//! The `OBS_cluster.json` observability artifact and its schema table.
//!
//! The machine-readable twin of the experiment dashboards: one JSON
//! document with named sections, each written by the experiment run that
//! produced it (`harness obs` → `e18_obs`, `harness shard` →
//! `e17_strong_scaling`).
//! Sections are merged read-modify-write through `simcore::Json::parse`,
//! so successive runs extend one artifact instead of clobbering each
//! other — CI archives the result and schema-checks it with
//! `harness <experiment> --check`, which evaluates that experiment's rows
//! of the schema table below ([`E18_OBS`] … [`E22_CHAOS`]).

use simcore::Json;
use std::path::Path;
use std::process::ExitCode;
use Kind::*;

/// Default artifact filename, resolved against the working directory (the
/// repository root under `cargo run`).
pub const OBS_ARTIFACT: &str = "OBS_cluster.json";

/// Chrome trace-event export written by `harness trace` (E19): the full
/// span set of the traced run, loadable in Perfetto / `chrome://tracing`.
/// A standalone file — the viewer wants the document at top level, so it
/// cannot be a section of [`OBS_ARTIFACT`].
pub const TRACE_ARTIFACT: &str = "TRACE_cluster.json";

/// Loads the artifact at `path`, or a fresh shell when it is missing or
/// unparseable (a corrupt artifact is rebuilt, not appended to).
pub fn load(path: &Path) -> Json {
    let parsed = std::fs::read_to_string(path).ok().and_then(|text| Json::parse(&text).ok());
    match parsed {
        Some(doc) if doc.get("sections").is_some() => doc,
        _ => Json::obj().set("artifact", Json::str("OBS_cluster")).set("sections", Json::obj()),
    }
}

/// Read-modify-writes one named section into the artifact at `path`.
pub fn write_section(path: &Path, name: &str, section: Json) -> std::io::Result<()> {
    let mut doc = load(path);
    let mut sections = doc.get("sections").cloned().unwrap_or_else(Json::obj);
    sections.insert(name, section);
    doc.insert("sections", sections);
    std::fs::write(path, doc.render())
}

/// What a schema row requires of each value its path names.
#[derive(Clone, Copy)]
pub enum Kind {
    /// Any value.
    Present,
    /// A number.
    Number,
    /// A string.
    Text,
    /// The boolean `true` (a headline claim).
    True,
    /// This exact string.
    Equals(&'static str),
    /// A non-negative integer.
    Count,
    /// A number ≥ the bound.
    AtLeast(f64),
    /// A number ≤ the bound.
    AtMost(f64),
    /// A number > the bound.
    Above(f64),
    /// An array of numbers (possibly empty).
    Numbers,
    /// A named cross-field predicate over the value.
    Law(fn(&Json) -> bool),
}

impl Kind {
    fn accepts(self, value: Option<&Json>) -> bool {
        let Some(v) = value else { return false };
        let num = v.as_f64();
        match self {
            Kind::Present => true,
            Kind::Number => num.is_some(),
            Kind::Text => v.as_str().is_some(),
            Kind::True => *v == Json::Bool(true),
            Kind::Equals(s) => v.as_str() == Some(s),
            Kind::Count => num.is_some_and(is_count),
            Kind::AtLeast(b) => num.is_some_and(|x| x >= b),
            Kind::AtMost(b) => num.is_some_and(|x| x <= b),
            Kind::Above(b) => num.is_some_and(|x| x > b),
            Kind::Numbers => v.as_arr().is_some_and(|a| a.iter().all(|x| x.as_f64().is_some())),
            Kind::Law(law) => law(v),
        }
    }
}

fn is_count(x: f64) -> bool {
    x >= 0.0 && x.fract() == 0.0
}

/// One schema row: the values at `path` must be of `kind`, or `--check`
/// prints `message`. The path is dotted from the document root; `name[]`
/// means a non-empty array under `name` and every element of it, `*` a
/// non-empty object and every value of it.
pub struct Rule {
    pub path: &'static str,
    pub kind: Kind,
    pub message: &'static str,
}

const fn row(path: &'static str, kind: Kind, message: &'static str) -> Rule {
    Rule { path, kind, message }
}

const E18_PROFILE: &str = "e18_obs.profiles[]: barrier_wall_secs + mailbox stats per shard";
const E18_COUNTERS: &str = "e18_obs.profiles[]: integral heap_depth_hwm, sched_arms, sched_cancels";

/// E18's rows: link-utilization series, latency percentiles, and the
/// per-shard profiler rows with their scheduler counters.
pub const E18_OBS: &[Rule] = &[
    row("artifact", Equals("OBS_cluster"), "artifact == \"OBS_cluster\""),
    row(
        "sections.e18_obs.link_util.series.*",
        Numbers,
        "e18_obs.link_util.series: nonempty map of numeric arrays",
    ),
    row("sections.e18_obs.latency.p50", Number, "e18_obs.latency.p50: finite number"),
    row("sections.e18_obs.latency.p90", Number, "e18_obs.latency.p90: finite number"),
    row("sections.e18_obs.latency.p99", Number, "e18_obs.latency.p99: finite number"),
    row("sections.e18_obs.profiles[].barrier_wall_secs.mean", Present, E18_PROFILE),
    row("sections.e18_obs.profiles[].mailbox_hwm", Number, E18_PROFILE),
    row("sections.e18_obs.profiles[].mailbox_drains", Number, E18_PROFILE),
    row("sections.e18_obs.profiles[].heap_depth_hwm", Count, E18_COUNTERS),
    row("sections.e18_obs.profiles[].sched_arms", Count, E18_COUNTERS),
    row("sections.e18_obs.profiles[].sched_cancels", Count, E18_COUNTERS),
    row(
        "sections.e18_obs.profiles[]",
        Law(events_by_class_sum_to_events),
        "e18_obs.profiles[]: integral events_by_class summing to events",
    ),
    row("sections.e18_obs.preds_per_sec", Number, "e18_obs.preds_per_sec: number"),
];

/// The one cross-field law: a profile row's `events_by_class` are
/// non-negative integers that add up to its `events`.
pub fn events_by_class_sum_to_events(profile: &Json) -> bool {
    let counts: Option<Vec<f64>> = profile
        .get("events_by_class")
        .and_then(Json::as_arr)
        .and_then(|a| a.iter().map(|v| v.as_f64().filter(|&v| is_count(v))).collect());
    let events = profile.get("events").and_then(Json::as_f64);
    counts.zip(events).is_some_and(|(c, e)| c.iter().sum::<f64>() == e)
}

const E19_CLASSES: &str = "e19_trace.classes: per-class attribution rows";
const E19_SLOWEST: &str = "e19_trace.slowest[]: latency + dominant bucket per trace";

/// E19's rows: sampling, the conservation residual, per-class attribution
/// and the slow-trace exemplars.
pub const E19_TRACE: &[Rule] = &[
    row("sections.e19_trace.sample_every", AtLeast(1.0), "e19_trace.sample_every: number >= 1"),
    row("sections.e19_trace.traces", Above(0.0), "e19_trace.traces: positive count"),
    row(
        "sections.e19_trace.max_residual",
        AtMost(1e-9),
        "e19_trace.max_residual: <= 1e-9 (segments tile latency)",
    ),
    row("sections.e19_trace.classes.*.traces", Number, E19_CLASSES),
    row("sections.e19_trace.classes.*.mean_latency", Number, E19_CLASSES),
    row("sections.e19_trace.classes.*.buckets", Present, E19_CLASSES),
    row("sections.e19_trace.slowest[].latency", Number, E19_SLOWEST),
    row("sections.e19_trace.slowest[].dominant", Text, E19_SLOWEST),
];

const E20_CELLS: &str = "e20_delayed.cells[]: full sweep rows";

/// E20's rows: the sweep cells and both headline claims.
pub const E20_DELAYED: &[Rule] = &[
    row("sections.e20_delayed.cells[].latency", Number, E20_CELLS),
    row("sections.e20_delayed.cells[].load", Number, E20_CELLS),
    row("sections.e20_delayed.cells[].origin_fetches_independent", Number, E20_CELLS),
    row("sections.e20_delayed.cells[].origin_fetches_coalescing", Number, E20_CELLS),
    row("sections.e20_delayed.cells[].coalesced_requests", Number, E20_CELLS),
    row("sections.e20_delayed.cells[].delayed_hits", Number, E20_CELLS),
    row("sections.e20_delayed.cells[].mean_waiter_depth", Number, E20_CELLS),
    row("sections.e20_delayed.cells[].mean_residual_wait", Number, E20_CELLS),
    row("sections.e20_delayed.cells[].mean_access_time_recency", Number, E20_CELLS),
    row("sections.e20_delayed.cells[].mean_access_time_ranked", Number, E20_CELLS),
    row(
        "sections.e20_delayed.coalescing_win",
        True,
        "e20_delayed.coalescing_win: true (fewer origin fetches + delayed hits settled)",
    ),
    row(
        "sections.e20_delayed.ranking_win",
        True,
        "e20_delayed.ranking_win: true (aggregate-delay t̄ beats recency in the pinned cell)",
    ),
];

const E21_SOURCE: &str = "e21_replay.source: records + hit ratio + backbone load";
const E21_SCALES: &str = "e21_replay.scales[]: one full row per superposition factor";

/// E21's rows: the source run, one row per scale, and both headline
/// claims.
pub const E21_REPLAY: &[Rule] = &[
    row("sections.e21_replay.source.records", Number, E21_SOURCE),
    row("sections.e21_replay.source.hit_ratio", Number, E21_SOURCE),
    row("sections.e21_replay.source.backbone_utilisation", Number, E21_SOURCE),
    row("sections.e21_replay.scales[].scale", Number, E21_SCALES),
    row("sections.e21_replay.scales[].n_proxies", Number, E21_SCALES),
    row("sections.e21_replay.scales[].records_replayed", Number, E21_SCALES),
    row("sections.e21_replay.scales[].records_per_sec", Number, E21_SCALES),
    row("sections.e21_replay.scales[].peak_resident_bytes", Number, E21_SCALES),
    row("sections.e21_replay.scales[].hit_ratio", Number, E21_SCALES),
    row("sections.e21_replay.scales[].hit_ratio_delta", Number, E21_SCALES),
    row("sections.e21_replay.scales[].backbone_utilisation", Number, E21_SCALES),
    row("sections.e21_replay.scales[].network_load_delta", Number, E21_SCALES),
    row(
        "sections.e21_replay.replay_bit_identical",
        True,
        "e21_replay.replay_bit_identical: true (x1 replay reproduces the recorded run)",
    ),
    row(
        "sections.e21_replay.peak_resident_ok",
        True,
        "e21_replay.peak_resident_ok: true (streams never exceed one chunk resident)",
    ),
];

const E22_CELLS: &str = "e22_chaos.cells[]: one full row per (loss, policy) cell";
const E22_SHOWCASE: &str = "e22_chaos.showcase: availability + recovery counters";

/// E22's rows: the sweep cells, the showcase counters, and the four
/// headline claims.
pub const E22_CHAOS: &[Rule] = &[
    row("sections.e22_chaos.cells[].policy", Text, E22_CELLS),
    row("sections.e22_chaos.cells[].loss", Number, E22_CELLS),
    row("sections.e22_chaos.cells[].availability", Number, E22_CELLS),
    row("sections.e22_chaos.cells[].availability_no_retries", Number, E22_CELLS),
    row("sections.e22_chaos.cells[].mean_access_time", Number, E22_CELLS),
    row("sections.e22_chaos.cells[].retries", Number, E22_CELLS),
    row("sections.e22_chaos.cells[].timeouts", Number, E22_CELLS),
    row("sections.e22_chaos.cells[].failed_fetches", Number, E22_CELLS),
    row("sections.e22_chaos.showcase.availability", Number, E22_SHOWCASE),
    row("sections.e22_chaos.showcase.lost_entries", Number, E22_SHOWCASE),
    row("sections.e22_chaos.showcase.failovers", Number, E22_SHOWCASE),
    row("sections.e22_chaos.showcase.snapshot_flushes", Number, E22_SHOWCASE),
    row(
        "sections.e22_chaos.prefetch_amplification",
        Number,
        "e22_chaos.prefetch_amplification: number",
    ),
    row(
        "sections.e22_chaos.zero_fault_identical",
        True,
        "e22_chaos.zero_fault_identical: true (loss-0 runs bit-identical to the plain engine)",
    ),
    row(
        "sections.e22_chaos.graceful_with_retries",
        True,
        "e22_chaos.graceful_with_retries: true (retries degrade gracefully)",
    ),
    row(
        "sections.e22_chaos.collapse_without_retries",
        True,
        "e22_chaos.collapse_without_retries: true (no-retries collapses at max loss)",
    ),
    row(
        "sections.e22_chaos.mshr_conservation_ok",
        True,
        "e22_chaos.mshr_conservation_ok: true (MSHR conservation law holds everywhere)",
    ),
];

/// Does every value `path` names under `node` hold `kind`?
fn holds(node: &Json, path: &str, kind: Kind) -> bool {
    let (head, rest) = path.split_once('.').map_or((path, None), |(h, r)| (h, Some(r)));
    let each = |items: Vec<&Json>| {
        !items.is_empty()
            && items.into_iter().all(|v| match rest {
                Some(rest) => holds(v, rest, kind),
                None => kind.accepts(Some(v)),
            })
    };
    if head == "*" {
        node.as_obj().is_some_and(|fields| each(fields.iter().map(|(_, v)| v).collect()))
    } else if let Some(name) = head.strip_suffix("[]") {
        node.get(name).and_then(Json::as_arr).is_some_and(|items| each(items.iter().collect()))
    } else {
        match rest {
            Some(rest) => node.get(head).is_some_and(|v| holds(v, rest, kind)),
            None => kind.accepts(node.get(head)),
        }
    }
}

/// The messages of the rows `doc` fails, in row order, each once (empty =
/// ok). The first row under a missing section reports `sections.<name>`
/// instead, and ends the check.
pub fn schema_errors(doc: &Json, rows: &[Rule]) -> Vec<String> {
    let mut errs: Vec<String> = Vec::new();
    for rule in rows {
        if let Some(under) = rule.path.strip_prefix("sections.") {
            let section = under.split('.').next().unwrap_or(under);
            if doc.get("sections").and_then(|s| s.get(section)).is_none() {
                errs.push(format!("sections.{section}"));
                break;
            }
        }
        if !holds(doc, rule.path, rule.kind) && !errs.iter().any(|e| e == rule.message) {
            errs.push(rule.message.to_string());
        }
    }
    errs
}

/// The `--check [path]` mode: no simulation, only a schema check of the
/// artifact at `path` against `rows`. Prints `<name> --check: <path> ok`
/// on success; otherwise names the unreadable file, the JSON parse error,
/// or each failing row's message, and exits nonzero.
pub fn check(name: &str, path: &Path, rows: &[Rule]) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{name} --check: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{name} --check: {} is not valid JSON: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let errs = schema_errors(&doc, rows);
    if errs.is_empty() {
        println!("{name} --check: {} ok", path.display());
        ExitCode::SUCCESS
    } else {
        for e in &errs {
            eprintln!("{name} --check: {} missing/invalid: {e}", path.display());
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_merge_across_writes() {
        let dir = std::env::temp_dir().join("obs_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(OBS_ARTIFACT);
        let _ = std::fs::remove_file(&path);

        write_section(&path, "a", Json::obj().set("x", Json::num(1.0))).unwrap();
        write_section(&path, "b", Json::obj().set("y", Json::num(2.0))).unwrap();
        write_section(&path, "a", Json::obj().set("x", Json::num(3.0))).unwrap();

        let doc = load(&path);
        assert_eq!(doc.get("artifact").and_then(Json::as_str), Some("OBS_cluster"));
        let sections = doc.get("sections").unwrap();
        assert_eq!(
            sections.get("a").and_then(|s| s.get("x")).and_then(Json::as_f64),
            Some(3.0),
            "rewrite replaces the section"
        );
        assert_eq!(sections.get("b").and_then(|s| s.get("y")).and_then(Json::as_f64), Some(2.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn check_exits_nonzero_unless_the_schema_holds() {
        const NEEDS_X: &[Rule] = &[row("sections.x", Present, "sections.x")];
        let dir = std::env::temp_dir().join("obs_artifact_check");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(OBS_ARTIFACT);
        let _ = std::fs::remove_file(&path);
        assert_eq!(check("t", &path, NEEDS_X), ExitCode::FAILURE, "unreadable");
        std::fs::write(&path, "{not json").unwrap();
        assert_eq!(check("t", &path, NEEDS_X), ExitCode::FAILURE, "invalid JSON");
        std::fs::remove_file(&path).unwrap();
        write_section(&path, "y", Json::obj()).unwrap();
        assert_eq!(check("t", &path, NEEDS_X), ExitCode::FAILURE, "section missing");
        write_section(&path, "x", Json::obj()).unwrap();
        assert_eq!(check("t", &path, NEEDS_X), ExitCode::SUCCESS);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_artifact_is_rebuilt() {
        let dir = std::env::temp_dir().join("obs_artifact_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(OBS_ARTIFACT);
        std::fs::write(&path, "{not json").unwrap();
        write_section(&path, "s", Json::obj()).unwrap();
        assert!(load(&path).get("sections").unwrap().get("s").is_some());
        std::fs::remove_file(&path).unwrap();
    }

    /// Per-shard scheduler counters every `e18_obs.profiles[]` row must carry.
    const SCHED_COUNTERS: [&str; 3] = ["heap_depth_hwm", "sched_arms", "sched_cancels"];

    /// A minimal artifact that passes E18's rows, with one profile row
    /// built by `profile`.
    fn artifact(profile: Json) -> Json {
        let series = Json::obj().set("0", Json::Arr(vec![Json::num(0.5)]));
        let latency =
            ["p50", "p90", "p99"].into_iter().fold(Json::obj(), |l, q| l.set(q, Json::num(1.0)));
        let e18 = Json::obj()
            .set("link_util", Json::obj().set("series", series))
            .set("latency", latency)
            .set("profiles", Json::Arr(vec![profile]))
            .set("preds_per_sec", Json::num(1.0));
        Json::obj()
            .set("artifact", Json::str("OBS_cluster"))
            .set("sections", Json::obj().set("e18_obs", e18))
    }

    fn profile() -> Json {
        Json::obj()
            .set("barrier_wall_secs", Json::obj().set("mean", Json::num(0.0)))
            .set("mailbox_hwm", Json::num(2.0))
            .set("mailbox_drains", Json::num(4.0))
            .set("heap_depth_hwm", Json::num(52.0))
            .set("sched_arms", Json::num(1200.0))
            .set("sched_cancels", Json::num(3.0))
            .set("events", Json::num(900.0))
            .set("events_by_class", Json::Arr([500.0, 0.0, 400.0].map(Json::num).to_vec()))
    }

    #[test]
    fn complete_profile_passes() {
        assert_eq!(schema_errors(&artifact(profile()), E18_OBS), Vec::<String>::new());
    }

    #[test]
    fn profile_without_a_scheduler_counter_fails() {
        for field in SCHED_COUNTERS {
            let Json::Obj(mut fields) = profile() else { unreachable!() };
            fields.retain(|(k, _)| k != field);
            let errs = schema_errors(&artifact(Json::Obj(fields)), E18_OBS);
            assert_eq!(errs.len(), 1, "dropping {field}: {errs:?}");
            assert!(errs[0].contains("sched_arms"), "{errs:?}");
        }
    }

    #[test]
    fn events_by_class_must_sum_to_events() {
        let wrong_sum = profile().set("events", Json::num(901.0));
        let errs = schema_errors(&artifact(wrong_sum), E18_OBS);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("events_by_class"), "{errs:?}");

        let fractional = Json::Arr([500.5, 0.0, 399.5].map(Json::num).to_vec());
        let errs = schema_errors(&artifact(profile().set("events_by_class", fractional)), E18_OBS);
        assert_eq!(errs.len(), 1, "{errs:?}");
    }

    #[test]
    fn fractional_scheduler_counter_fails() {
        let errs =
            schema_errors(&artifact(profile().set("sched_arms", Json::num(1200.5))), E18_OBS);
        assert_eq!(errs.len(), 1, "{errs:?}");
    }
}
