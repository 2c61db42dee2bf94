//! Regression sentinel: structural diff of a run artifact against its
//! committed baseline.
//!
//! The artifact (`OBS_cluster.json`) mixes two kinds of numbers.
//! Virtual-time quantities — counters, latencies, utilizations,
//! attribution shares — are deterministic: same code, same seed ⇒ same
//! value, so any drift is a behaviour change worth failing CI over.
//! Wall-clock quantities (elapsed seconds, throughput rates) are machine
//! noise and are excluded by *schema*: a field is skipped when any path
//! component contains `"wall"`, ends in `"_per_sec"`, or names a known
//! machine-derived metric ([`EXCLUDED_FIELDS`]).
//!
//! Tolerance bands: integral values (counts, event totals) must match
//! exactly; other floats to relative tolerance [`DEFAULT_REL_TOL`] —
//! loose enough for cross-platform libm differences in transcendentals,
//! tight enough that a real change (±10% on a latency, one extra event)
//! is caught. Structure is exact: a missing, extra, or type-changed field
//! is drift.

use simcore::Json;

/// Relative tolerance on non-integral floats.
pub const DEFAULT_REL_TOL: f64 = 1e-9;

/// Machine-derived fields excluded by exact name (beyond the `"wall"` /
/// `"_per_sec"` patterns): E17's wall-clock scaling ratio, which moves
/// with host load.
pub const EXCLUDED_FIELDS: [&str; 1] = ["speedup_vs_1shard"];

/// One detected divergence from the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Drift {
    /// Dotted path of the field, e.g. `sections.e19_trace.classes.demand.mean_latency`.
    pub path: String,
    /// What the baseline records at that path.
    pub expected: String,
    /// What the current artifact has (or "absent").
    pub got: String,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(out, "{}: baseline {} vs current {}", self.path, self.expected, self.got)
    }
}

/// Is this path component a wall-clock/machine-dependent field?
fn excluded(component: &str) -> bool {
    component.contains("wall")
        || component.ends_with("_per_sec")
        || EXCLUDED_FIELDS.contains(&component)
}

/// Values that must match exactly: integral-valued numbers inside the
/// range where `f64` holds integers exactly — counters, counts, ids.
fn is_integral(x: f64) -> bool {
    x.fract() == 0.0 && x.abs() < 2f64.powi(53)
}

fn render_short(v: &Json) -> String {
    match v {
        Json::Obj(_) => "{object}".to_string(),
        Json::Arr(a) => format!("[array of {}]", a.len()),
        other => other.render(),
    }
}

/// Compares `current` against `baseline`, collecting every drift. Paths
/// through excluded (wall-clock) fields are skipped entirely.
pub fn compare(baseline: &Json, current: &Json, rel_tol: f64) -> Vec<Drift> {
    let mut drifts = Vec::new();
    walk(baseline, current, &mut String::new(), rel_tol, &mut drifts);
    drifts
}

fn push(drifts: &mut Vec<Drift>, path: &str, expected: &Json, got: Option<&Json>) {
    drifts.push(Drift {
        path: if path.is_empty() { "<root>".to_string() } else { path.to_string() },
        expected: render_short(expected),
        got: got.map_or("absent".to_string(), render_short),
    });
}

fn walk(base: &Json, cur: &Json, path: &mut String, rel_tol: f64, drifts: &mut Vec<Drift>) {
    match (base, cur) {
        (Json::Obj(b), Json::Obj(c)) => {
            for (key, bv) in b {
                if excluded(key) {
                    continue;
                }
                let len = path.len();
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(key);
                match c.iter().find(|(k, _)| k == key) {
                    Some((_, cv)) => walk(bv, cv, path, rel_tol, drifts),
                    None => push(drifts, path, bv, None),
                }
                path.truncate(len);
            }
            for (key, cv) in c {
                if !excluded(key) && !b.iter().any(|(k, _)| k == key) {
                    let p = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                    drifts.push(Drift {
                        path: p,
                        expected: "absent".to_string(),
                        got: render_short(cv),
                    });
                }
            }
        }
        (Json::Arr(b), Json::Arr(c)) => {
            if b.len() != c.len() {
                drifts.push(Drift {
                    path: path.clone(),
                    expected: format!("[array of {}]", b.len()),
                    got: format!("[array of {}]", c.len()),
                });
                return;
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                let len = path.len();
                path.push_str(&format!("[{i}]"));
                walk(bv, cv, path, rel_tol, drifts);
                path.truncate(len);
            }
        }
        (Json::Num(b), Json::Num(c)) => {
            let equal = if is_integral(*b) && is_integral(*c) {
                b == c
            } else {
                (b - c).abs() <= rel_tol * b.abs().max(c.abs()).max(1e-300)
            };
            if !equal {
                push(drifts, path, base, Some(cur));
            }
        }
        _ => {
            // Different variants, or scalars compared exactly.
            if base != cur {
                push(drifts, path, base, Some(cur));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(latency: f64, events: f64, wall: f64) -> Json {
        Json::obj().set(
            "sections",
            Json::obj().set(
                "e19_trace",
                Json::obj()
                    .set("mean_latency", Json::num(latency))
                    .set("events", Json::num(events))
                    .set("wall_secs", Json::num(wall))
                    .set("preds_per_sec", Json::num(wall * 7.0))
                    .set("speedup_vs_1shard", Json::num(wall / 3.0)),
            ),
        )
    }

    #[test]
    fn identical_artifacts_have_no_drift() {
        let a = doc(0.123456789, 5000.0, 1.0);
        assert!(compare(&a, &a, DEFAULT_REL_TOL).is_empty());
    }

    #[test]
    fn wall_clock_fields_are_excluded_by_schema() {
        // Same virtual-time numbers, wildly different machine speed.
        let drifts = compare(&doc(0.5, 10.0, 1.0), &doc(0.5, 10.0, 97.0), DEFAULT_REL_TOL);
        assert!(drifts.is_empty(), "{drifts:?}");
    }

    #[test]
    fn ten_percent_latency_drift_is_detected() {
        let drifts = compare(&doc(0.5, 10.0, 1.0), &doc(0.55, 10.0, 1.0), DEFAULT_REL_TOL);
        assert_eq!(drifts.len(), 1, "{drifts:?}");
        assert!(drifts[0].path.ends_with("mean_latency"), "{}", drifts[0]);
        let down = compare(&doc(0.5, 10.0, 1.0), &doc(0.45, 10.0, 1.0), DEFAULT_REL_TOL);
        assert_eq!(down.len(), 1, "−10% caught too");
    }

    #[test]
    fn float_noise_within_tolerance_passes_but_counts_are_exact() {
        let base = doc(0.5, 10.0, 1.0);
        // 1e-12 relative wiggle on a float: inside the band.
        assert!(compare(&base, &doc(0.5 + 5e-13, 10.0, 1.0), DEFAULT_REL_TOL).is_empty());
        // One extra event: integral ⇒ exact ⇒ drift.
        let drifts = compare(&base, &doc(0.5, 11.0, 1.0), DEFAULT_REL_TOL);
        assert_eq!(drifts.len(), 1);
        assert!(drifts[0].path.ends_with("events"));
    }

    #[test]
    fn structural_changes_are_drift() {
        let base = doc(0.5, 10.0, 1.0);
        // Missing field.
        let mut missing = base.clone();
        if let Json::Obj(sections) = missing.get("sections").unwrap().clone() {
            let e19 = Json::Obj(
                sections[0]
                    .1
                    .as_obj()
                    .unwrap()
                    .iter()
                    .filter(|(k, _)| k != "events")
                    .cloned()
                    .collect(),
            );
            missing.insert("sections", Json::obj().set("e19_trace", e19));
        }
        let drifts = compare(&base, &missing, DEFAULT_REL_TOL);
        assert!(drifts.iter().any(|d| d.path.ends_with("events") && d.got == "absent"));
        // Extra field.
        let extra = Json::obj()
            .set("sections", base.get("sections").unwrap().clone())
            .set("surprise", Json::num(1.0));
        let drifts = compare(&base, &extra, DEFAULT_REL_TOL);
        assert!(drifts.iter().any(|d| d.path == "surprise" && d.expected == "absent"));
        // Type change.
        let retyped = Json::obj().set("sections", Json::str("gone"));
        assert!(!compare(&base, &retyped, DEFAULT_REL_TOL).is_empty());
    }

    #[test]
    fn array_length_and_element_drift() {
        let base = Json::obj().set("xs", Json::nums([1.0, 2.5, 3.0]));
        let longer = Json::obj().set("xs", Json::nums([1.0, 2.5, 3.0, 4.0]));
        assert_eq!(compare(&base, &longer, DEFAULT_REL_TOL).len(), 1);
        let changed = Json::obj().set("xs", Json::nums([1.0, 2.75, 3.0]));
        let drifts = compare(&base, &changed, DEFAULT_REL_TOL);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].path, "xs[1]");
    }
}
