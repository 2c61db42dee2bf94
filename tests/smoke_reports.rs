//! What CI's harness steps check, checked in-process by tier-1: the ten
//! `harness <experiment> --smoke` reports diffed byte for byte against
//! `tests/golden/smoke/<name>.txt`, and the six `OBS_cluster.json`
//! sections those runs write, diffed by the regression sentinel against
//! `baselines/OBS_cluster.json` and schema-checked by every `--check`.
//! Every row of the schema table is also shown to bite: breaking the value
//! it names in the committed baseline fails its check with its message.
//!
//! Each smoke run renders once per test process and is shared between
//! its report test and the sentinel test. Regenerate the reports only for
//! an intended behaviour change, then review the diff:
//!
//! ```sh
//! cargo test --test smoke_reports -- --ignored
//! ```

use speculative_prefetch::harness::artifact::{self, Kind};
use speculative_prefetch::harness::experiments::{find, Rendered, Size, EXPERIMENTS};
use speculative_prefetch::harness::sentinel::{compare, DEFAULT_REL_TOL};
use speculative_prefetch::simcore::Json;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The experiments with a smoke size, in CI order.
const SMOKE: [&str; 10] =
    ["cluster", "coop", "scale", "delta", "shard", "obs", "trace", "delayed", "replay", "chaos"];

/// The smoke run of `name`, rendered on first use.
fn smoke(name: &str) -> &'static Rendered {
    static RUNS: [OnceLock<Rendered>; SMOKE.len()] = [const { OnceLock::new() }; SMOKE.len()];
    let i = SMOKE.iter().position(|&n| n == name).unwrap_or_else(|| panic!("{name}: no smoke"));
    RUNS[i].get_or_init(|| (find(name).expect("experiment in the table").render)(Size::Smoke))
}

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/smoke/{name}.txt"))
}

/// The committed sentinel baseline, `baselines/OBS_cluster.json`.
fn baseline() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines/OBS_cluster.json");
    let text = std::fs::read_to_string(&path).expect("committed baseline");
    Json::parse(&text).expect("baseline parses")
}

fn check(name: &str) {
    let path = golden(name);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (regenerate with --ignored)", path.display()));
    let got = &smoke(name).report;
    if *got != want {
        let same = want.lines().zip(got.lines()).take_while(|(w, g)| w == g).count();
        let line = |text: &str| text.lines().nth(same).unwrap_or("<end of report>").to_string();
        panic!(
            "{name} --smoke differs from {} at line {}:\n  want {}\n  got  {}",
            path.display(),
            same + 1,
            line(&want),
            line(got)
        );
    }
}

#[test]
fn cluster_smoke_report_matches_golden() {
    check("cluster");
}

#[test]
fn coop_smoke_report_matches_golden() {
    check("coop");
}

#[test]
fn scale_smoke_report_matches_golden() {
    check("scale");
}

#[test]
fn delta_smoke_report_matches_golden() {
    check("delta");
}

#[test]
fn shard_smoke_report_matches_golden() {
    check("shard");
}

#[test]
fn obs_smoke_report_matches_golden() {
    check("obs");
}

#[test]
fn trace_smoke_report_matches_golden() {
    check("trace");
}

#[test]
fn delayed_smoke_report_matches_golden() {
    check("delayed");
}

#[test]
fn replay_smoke_report_matches_golden() {
    check("replay");
}

#[test]
fn chaos_smoke_report_matches_golden() {
    check("chaos");
}

/// The sections go through the binary's write path, in
/// `baselines/README.md` order; the sentinel then finds no drift against
/// the committed baseline, and every schema row holds.
#[test]
fn smoke_artifact_passes_the_sentinel_and_every_check() {
    let sized: Vec<&str> = EXPERIMENTS.iter().filter(|e| e.smoke).map(|e| e.name).collect();
    assert_eq!(sized, SMOKE, "every experiment with a smoke size has a golden report");
    let dir = std::env::temp_dir().join(format!("smoke_artifact_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(artifact::OBS_ARTIFACT);
    for name in ["shard", "obs", "trace", "delayed", "replay", "chaos"] {
        let exp = find(name).expect("experiment in the table");
        let section = smoke(name).section.clone().expect("the run writes a section");
        artifact::write_section(&path, exp.section.expect("section name"), section)
            .expect("write section");
    }
    let doc = artifact::load(&path);
    std::fs::remove_dir_all(&dir).expect("remove temp dir");

    let drifts: Vec<String> =
        compare(&baseline(), &doc, DEFAULT_REL_TOL).iter().map(ToString::to_string).collect();
    assert!(
        drifts.is_empty(),
        "the smoke artifact drifted from baselines/:\n{}",
        drifts.join("\n")
    );

    for exp in EXPERIMENTS.iter().filter(|e| !e.schema.is_empty()) {
        assert_eq!(artifact::schema_errors(&doc, exp.schema), Vec::<String>::new(), "{}", exp.name);
    }
}

/// Replaces (`Some`) or deletes (`None`) the value at `path`, taking
/// the first element of every `[]` array and the first value of every
/// `*` object on the way.
fn edit(node: &mut Json, path: &str, value: Option<Json>) {
    let (head, rest) = path.split_once('.').map_or((path, None), |(h, r)| (h, Some(r)));
    let Json::Obj(fields) = node else { panic!("{path}: not an object") };
    let i = match head {
        "*" => 0,
        _ => {
            let name = head.strip_suffix("[]").unwrap_or(head);
            fields.iter().position(|(k, _)| k == name).unwrap_or_else(|| panic!("{name}"))
        }
    };
    let child = match (&mut fields[i].1, head.ends_with("[]")) {
        (Json::Arr(items), true) => &mut items[0],
        (other, _) => other,
    };
    match (rest, value) {
        (Some(rest), value) => edit(child, rest, value),
        (None, Some(value)) => *child = value,
        (None, None) => {
            fields.remove(i);
        }
    }
}

/// Values that break `kind`; deletion is tried separately.
fn wrong_values(kind: Kind) -> Vec<Json> {
    let text = Json::str("x");
    match kind {
        Kind::Present => vec![],
        Kind::Number => vec![text],
        Kind::Text | Kind::Equals(_) => vec![Json::num(1.0)],
        Kind::True => vec![Json::Bool(false), text],
        Kind::Count => vec![Json::num(-1.0), Json::num(0.5), text],
        Kind::AtLeast(b) => vec![Json::num(b - 0.5), text],
        Kind::AtMost(b) => vec![Json::num(2.0 * b + 1.0), text],
        Kind::Above(b) => vec![Json::num(b), text],
        Kind::Numbers => vec![Json::Arr(vec![text]), Json::num(1.0)],
        Kind::Law(_) => vec![],
    }
}

/// Every schema row bites: on the committed sentinel baseline (a
/// passing artifact), deleting the value a row names, setting it to a
/// wrong type or an out-of-bound value, fails that experiment's check
/// with exactly that row's message.
#[test]
fn every_schema_row_bites() {
    let baseline = baseline();
    let mut checked = 0;
    for exp in EXPERIMENTS.iter().filter(|e| !e.schema.is_empty()) {
        assert_eq!(
            artifact::schema_errors(&baseline, exp.schema),
            Vec::<String>::new(),
            "{}",
            exp.name
        );
        for rule in exp.schema {
            let mut edits: Vec<(String, Option<Json>)> = Vec::new();
            // A path ending in a named field can lose it; `*` and `[]`
            // ends name every value of a container instead.
            if !rule.path.ends_with('*') && !rule.path.ends_with("[]") {
                edits.push((rule.path.to_string(), None));
            }
            let wrong = wrong_values(rule.kind).into_iter().map(Some);
            edits.extend(wrong.map(|v| (rule.path.to_string(), v)));
            if let Kind::Law(_) = rule.kind {
                // The law's breaker: a total no class counts sum to.
                edits.push((format!("{}.events", rule.path), Some(Json::num(-1.0))));
            }
            assert!(!edits.is_empty(), "{}: no way to break it", rule.path);
            for (at, value) in edits {
                let mut doc = baseline.clone();
                edit(&mut doc, &at, value.clone());
                assert_eq!(
                    artifact::schema_errors(&doc, exp.schema),
                    vec![rule.message.to_string()],
                    "{} --check after setting {at} to {value:?}",
                    exp.name
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "only {checked} edits");
}

/// Rewrites every smoke report from the current code.
#[test]
#[ignore = "rewrites the committed smoke reports; run only for an intended behaviour change"]
fn regenerate_smoke_reports() {
    std::fs::create_dir_all(golden("x").parent().expect("golden dir")).expect("create dir");
    for name in SMOKE {
        std::fs::write(golden(name), &smoke(name).report).expect("write golden report");
    }
}
