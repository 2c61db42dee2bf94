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
