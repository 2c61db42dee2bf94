//! Regenerates the report of experiment `e19_trace`: span-based causal
//! tracing over the E18 cooperative mesh — per-class latency attribution,
//! the top-K slowest traces, and the conservation residual. Writes the
//! `e19_trace` section of `OBS_cluster.json` and exports the full span
//! set as Chrome trace-event JSON (`TRACE_cluster.json`).
//!
//! Flags:
//! * `--smoke` — the reduced 8-proxy/2-shard fabric CI runs on every push
//! * `--check [path]` — no simulation: schema-check an existing artifact
//!   (default `OBS_cluster.json`), exiting nonzero if the `e19_trace`
//!   section is missing the fields the acceptance criteria name.

use harness::artifact::{self, OBS_ARTIFACT, TRACE_ARTIFACT};
use harness::experiments::e19_trace;
use simcore::Json;
use std::path::Path;
use std::process::ExitCode;

/// Validates the `e19_trace` section's shape (empty = ok).
fn schema_errors(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    let mut require = |what: &str, ok: bool| {
        if !ok {
            errs.push(what.to_string());
        }
    };
    let Some(e19) = doc.get("sections").and_then(|s| s.get("e19_trace")) else {
        return vec!["sections.e19_trace".to_string()];
    };
    require(
        "e19_trace.sample_every: number >= 1",
        e19.get("sample_every").and_then(Json::as_f64).is_some_and(|v| v >= 1.0),
    );
    require(
        "e19_trace.traces: positive count",
        e19.get("traces").and_then(Json::as_f64).is_some_and(|v| v > 0.0),
    );
    require(
        "e19_trace.max_residual: <= 1e-9 (segments tile latency)",
        e19.get("max_residual").and_then(Json::as_f64).is_some_and(|v| v <= 1e-9),
    );
    // Per-class attribution with bucket breakdowns.
    let classes_ok = e19.get("classes").and_then(Json::as_obj).is_some_and(|cs| {
        !cs.is_empty()
            && cs.iter().all(|(_, c)| {
                c.get("traces").and_then(Json::as_f64).is_some()
                    && c.get("mean_latency").and_then(Json::as_f64).is_some()
                    && c.get("buckets").is_some()
            })
    });
    require("e19_trace.classes: per-class attribution rows", classes_ok);
    // The slow-trace exemplars E18's --top-k view and the dashboards use.
    let slowest_ok = e19.get("slowest").and_then(Json::as_arr).is_some_and(|rows| {
        !rows.is_empty()
            && rows.iter().all(|r| {
                r.get("latency").and_then(Json::as_f64).is_some()
                    && r.get("dominant").and_then(Json::as_str).is_some()
            })
    });
    require("e19_trace.slowest[]: latency + dominant bucket per trace", slowest_ok);
    errs
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).map_or(OBS_ARTIFACT, String::as_str);
        return artifact::check("trace", Path::new(path), schema_errors);
    }
    let (n, shards, total, every) =
        if args.iter().any(|a| a == "--smoke") { e19_trace::SMOKE } else { e19_trace::FULL };
    let (report, section, chrome) = e19_trace::render_with(n, shards, total, every);
    print!("{report}");
    let path = Path::new(OBS_ARTIFACT);
    if let Err(e) = artifact::write_section(path, "e19_trace", section) {
        eprintln!("e19: could not write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("e19: wrote section e19_trace of {}", path.display());
    if let Err(e) = std::fs::write(TRACE_ARTIFACT, chrome.render()) {
        eprintln!("e19: could not write {TRACE_ARTIFACT}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("e19: wrote {TRACE_ARTIFACT} (Chrome trace-event format)");
    ExitCode::SUCCESS
}
