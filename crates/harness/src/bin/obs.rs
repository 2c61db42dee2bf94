//! Regenerates the report of experiment `e18_obs`: the observability
//! layer (metrics registry, epoch-grid probes, latency histogram, sharded
//! driver profiler, flight recorder) over a 64-proxy cooperative latency
//! mesh, and writes the telemetry to the `e18_obs` section of
//! `OBS_cluster.json`.
//!
//! Flags:
//! * `--smoke` — the reduced 16-proxy/2-shard fabric CI runs on every push
//! * `--top-k <N>` — also trace every request and append the N slowest
//!   traces (E19's view) to the dashboard
//! * `--check [path]` — no simulation: schema-check an existing artifact
//!   (default `OBS_cluster.json`), exiting nonzero if it is malformed or
//!   missing the fields the acceptance criteria name — the CI gate that
//!   fails the build on a broken artifact.

use harness::artifact::{self, OBS_ARTIFACT};
use harness::experiments::e18_obs;
use simcore::Json;
use std::path::Path;
use std::process::ExitCode;

/// Per-shard scheduler counters every `e18_obs.profiles[]` row must carry.
const SCHED_COUNTERS: [&str; 3] = ["heap_depth_hwm", "sched_arms", "sched_cancels"];

/// Validates the artifact's shape; returns the errors found (empty = ok).
fn schema_errors(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    let mut require = |what: &str, ok: bool| {
        if !ok {
            errs.push(what.to_string());
        }
    };
    require("artifact == \"OBS_cluster\"", {
        doc.get("artifact").and_then(Json::as_str) == Some("OBS_cluster")
    });
    let Some(e18) = doc.get("sections").and_then(|s| s.get("e18_obs")) else {
        errs.push("sections.e18_obs".to_string());
        return errs;
    };
    // Per-link utilization time-series.
    let series_ok =
        e18.get("link_util").and_then(|u| u.get("series")).and_then(Json::as_obj).is_some_and(
            |links| {
                !links.is_empty()
                    && links.iter().all(|(_, pts)| {
                        pts.as_arr().is_some_and(|a| a.iter().all(|p| p.as_f64().is_some()))
                    })
            },
        );
    require("e18_obs.link_util.series: nonempty map of numeric arrays", series_ok);
    // Latency percentiles.
    for q in ["p50", "p90", "p99"] {
        require(
            &format!("e18_obs.latency.{q}: finite number"),
            e18.get("latency").and_then(|l| l.get(q)).and_then(Json::as_f64).is_some(),
        );
    }
    // Per-shard profiler rows with barrier-wait and mailbox stats.
    let profiles_ok = e18.get("profiles").and_then(Json::as_arr).is_some_and(|rows| {
        !rows.is_empty()
            && rows.iter().all(|p| {
                p.get("barrier_wall_secs").and_then(|b| b.get("mean")).is_some()
                    && p.get("mailbox_hwm").and_then(Json::as_f64).is_some()
                    && p.get("mailbox_drains").and_then(Json::as_f64).is_some()
            })
    });
    require("e18_obs.profiles[]: barrier_wall_secs + mailbox stats per shard", profiles_ok);
    // Scheduler work counters: non-negative integers in every profile row.
    let counters_ok = e18.get("profiles").and_then(Json::as_arr).is_some_and(|rows| {
        rows.iter().all(|p| {
            SCHED_COUNTERS.iter().all(|&field| {
                p.get(field).and_then(Json::as_f64).is_some_and(|v| v >= 0.0 && v.fract() == 0.0)
            })
        })
    });
    require("e18_obs.profiles[]: integral heap_depth_hwm, sched_arms, sched_cancels", counters_ok);
    // Events per class: integral counts that add up to the row's events.
    let by_class_ok = e18.get("profiles").and_then(Json::as_arr).is_some_and(|rows| {
        rows.iter().all(|p| {
            let counts: Option<Vec<f64>> =
                p.get("events_by_class").and_then(Json::as_arr).and_then(|a| {
                    a.iter().map(|v| v.as_f64().filter(|v| *v >= 0.0 && v.fract() == 0.0)).collect()
                });
            let events = p.get("events").and_then(Json::as_f64);
            counts.zip(events).is_some_and(|(c, e)| c.iter().sum::<f64>() == e)
        })
    });
    require("e18_obs.profiles[]: integral events_by_class summing to events", by_class_ok);
    require(
        "e18_obs.preds_per_sec: number",
        e18.get("preds_per_sec").and_then(Json::as_f64).is_some(),
    );
    errs
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).map_or(OBS_ARTIFACT, String::as_str);
        return artifact::check("obs", Path::new(path), schema_errors);
    }
    let (n, shards, total) =
        if args.iter().any(|a| a == "--smoke") { e18_obs::SMOKE } else { e18_obs::FULL };
    let top_k = args
        .iter()
        .position(|a| a == "--top-k")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    let (report, section) = match top_k {
        Some(k) => e18_obs::render_with_top_k(n, shards, total, k),
        None => e18_obs::render_with(n, shards, total),
    };
    print!("{report}");
    let path = Path::new(OBS_ARTIFACT);
    match artifact::write_section(path, "e18_obs", section) {
        Ok(()) => eprintln!("e18: wrote section e18_obs of {}", path.display()),
        Err(e) => {
            eprintln!("e18: could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal artifact that passes the schema check, with one profile
    /// row built by `profile`.
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
        assert_eq!(schema_errors(&artifact(profile())), Vec::<String>::new());
    }

    #[test]
    fn profile_without_a_scheduler_counter_fails() {
        for field in SCHED_COUNTERS {
            let Json::Obj(mut fields) = profile() else { unreachable!() };
            fields.retain(|(k, _)| k != field);
            let errs = schema_errors(&artifact(Json::Obj(fields)));
            assert_eq!(errs.len(), 1, "dropping {field}: {errs:?}");
            assert!(errs[0].contains("sched_arms"), "{errs:?}");
        }
    }

    #[test]
    fn events_by_class_must_sum_to_events() {
        let wrong_sum = profile().set("events", Json::num(901.0));
        let errs = schema_errors(&artifact(wrong_sum));
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("events_by_class"), "{errs:?}");

        let fractional = Json::Arr([500.5, 0.0, 399.5].map(Json::num).to_vec());
        let errs = schema_errors(&artifact(profile().set("events_by_class", fractional)));
        assert_eq!(errs.len(), 1, "{errs:?}");
    }

    #[test]
    fn fractional_scheduler_counter_fails() {
        let errs = schema_errors(&artifact(profile().set("sched_arms", Json::num(1200.5))));
        assert_eq!(errs.len(), 1, "{errs:?}");
    }
}
