//! Regenerates the report of experiment `e20_delayed`: the MSHR
//! outstanding-fetch table's coalescing win and the aggregate-delay
//! ranking inversion, swept over fetch latency × offered load. Writes the
//! `e20_delayed` section of `OBS_cluster.json`.
//!
//! Flags:
//! * `--smoke` — the reduced 4-proxy/2-shard grid CI runs on every push
//! * `--check [path]` — no simulation: schema-check an existing artifact
//!   (default `OBS_cluster.json`), exiting nonzero unless the
//!   `e20_delayed` section carries the sweep cells and both headline
//!   booleans the acceptance criteria name are true.

use harness::artifact::{self, OBS_ARTIFACT};
use harness::experiments::e20_delayed;
use simcore::Json;
use std::path::Path;
use std::process::ExitCode;

/// Validates the `e20_delayed` section's shape (empty = ok).
fn schema_errors(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    let mut require = |what: &str, ok: bool| {
        if !ok {
            errs.push(what.to_string());
        }
    };
    let Some(e20) = doc.get("sections").and_then(|s| s.get("e20_delayed")) else {
        return vec!["sections.e20_delayed".to_string()];
    };
    let cells_ok = e20.get("cells").and_then(Json::as_arr).is_some_and(|cells| {
        !cells.is_empty()
            && cells.iter().all(|c| {
                [
                    "latency",
                    "load",
                    "origin_fetches_independent",
                    "origin_fetches_coalescing",
                    "coalesced_requests",
                    "delayed_hits",
                    "mean_waiter_depth",
                    "mean_residual_wait",
                    "mean_access_time_recency",
                    "mean_access_time_ranked",
                ]
                .iter()
                .all(|k| c.get(k).and_then(Json::as_f64).is_some())
            })
    });
    require("e20_delayed.cells[]: full sweep rows", cells_ok);
    require(
        "e20_delayed.coalescing_win: true (fewer origin fetches + delayed hits settled)",
        e20.get("coalescing_win") == Some(&Json::Bool(true)),
    );
    require(
        "e20_delayed.ranking_win: true (aggregate-delay t̄ beats recency in the pinned cell)",
        e20.get("ranking_win") == Some(&Json::Bool(true)),
    );
    errs
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).map_or(OBS_ARTIFACT, String::as_str);
        return artifact::check("delayed", Path::new(path), schema_errors);
    }
    let (n, shards, total) =
        if args.iter().any(|a| a == "--smoke") { e20_delayed::SMOKE } else { e20_delayed::FULL };
    let (report, section) = e20_delayed::render_with(n, shards, total);
    print!("{report}");
    let path = Path::new(OBS_ARTIFACT);
    if let Err(e) = artifact::write_section(path, "e20_delayed", section) {
        eprintln!("e20: could not write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("e20: wrote section e20_delayed of {}", path.display());
    ExitCode::SUCCESS
}
