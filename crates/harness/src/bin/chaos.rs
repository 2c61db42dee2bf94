//! Regenerates the report of experiment `e22_chaos`: deterministic fault
//! injection on the cooperative mesh — link loss × prefetch
//! aggressiveness, retries vs no retries, plus a full-repertoire chaos
//! showcase (flaps, degrade, brownout, blackout, crash, digest loss).
//! Writes the `e22_chaos` section of `OBS_cluster.json`.
//!
//! Flags:
//! * `--smoke` — the reduced 4-proxy sweep CI runs on every push
//! * `--check [path]` — no simulation: schema-check an existing artifact
//!   (default `OBS_cluster.json`), exiting nonzero unless the `e22_chaos`
//!   section carries the per-cell rows, the showcase counters, and all
//!   four headline booleans — zero-fault bit-identity, graceful
//!   degradation with retries, collapse without, MSHR conservation — are
//!   true.

use harness::artifact::{self, OBS_ARTIFACT};
use harness::experiments::e22_chaos;
use simcore::Json;
use std::path::Path;
use std::process::ExitCode;

/// Validates the `e22_chaos` section's shape (empty = ok).
fn schema_errors(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    let mut require = |what: &str, ok: bool| {
        if !ok {
            errs.push(what.to_string());
        }
    };
    let Some(e22) = doc.get("sections").and_then(|s| s.get("e22_chaos")) else {
        return vec!["sections.e22_chaos".to_string()];
    };
    let cells_ok = e22.get("cells").and_then(Json::as_arr).is_some_and(|rows| {
        !rows.is_empty()
            && rows.iter().all(|r| {
                r.get("policy").and_then(Json::as_str).is_some()
                    && [
                        "loss",
                        "availability",
                        "availability_no_retries",
                        "mean_access_time",
                        "retries",
                        "timeouts",
                        "failed_fetches",
                    ]
                    .iter()
                    .all(|k| r.get(k).and_then(Json::as_f64).is_some())
            })
    });
    require("e22_chaos.cells[]: one full row per (loss, policy) cell", cells_ok);
    let showcase_ok = e22.get("showcase").is_some_and(|s| {
        ["availability", "lost_entries", "failovers", "snapshot_flushes"]
            .iter()
            .all(|k| s.get(k).and_then(Json::as_f64).is_some())
    });
    require("e22_chaos.showcase: availability + recovery counters", showcase_ok);
    require(
        "e22_chaos.prefetch_amplification: number",
        e22.get("prefetch_amplification").and_then(Json::as_f64).is_some(),
    );
    for (key, what) in [
        ("zero_fault_identical", "loss-0 runs bit-identical to the plain engine"),
        ("graceful_with_retries", "retries degrade gracefully"),
        ("collapse_without_retries", "no-retries collapses at max loss"),
        ("mshr_conservation_ok", "MSHR conservation law holds everywhere"),
    ] {
        require(
            &format!("e22_chaos.{key}: true ({what})"),
            e22.get(key) == Some(&Json::Bool(true)),
        );
    }
    errs
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).map_or(OBS_ARTIFACT, String::as_str);
        return artifact::check("chaos", Path::new(path), schema_errors);
    }
    let (n, shards, requests) =
        if args.iter().any(|a| a == "--smoke") { e22_chaos::SMOKE } else { e22_chaos::FULL };
    let (report, section) = e22_chaos::render_with(n, shards, requests);
    print!("{report}");
    let path = Path::new(OBS_ARTIFACT);
    if let Err(e) = artifact::write_section(path, "e22_chaos", section) {
        eprintln!("e22: could not write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("e22: wrote section e22_chaos of {}", path.display());
    ExitCode::SUCCESS
}
