//! Regenerates the report of experiment `e21_replay`: record a synthetic
//! run to a versioned `.events` trace, scale it by superposition, and
//! replay it through bigger meshes with chunked streaming. Writes the
//! `e21_replay` section of `OBS_cluster.json` and the recorded sample to
//! `E21_trace_sample.events` (uploaded as a CI artifact).
//!
//! Flags:
//! * `--smoke` — the reduced 2-proxy capture CI runs on every push
//! * `--check [path]` — no simulation: schema-check an existing artifact
//!   (default `OBS_cluster.json`), exiting nonzero unless the
//!   `e21_replay` section carries the per-scale rows and both headline
//!   booleans — bit-identical ×1 replay, chunk-bounded memory — are true.

use harness::artifact::{self, OBS_ARTIFACT};
use harness::experiments::e21_replay;
use simcore::Json;
use std::path::Path;
use std::process::ExitCode;

/// Validates the `e21_replay` section's shape (empty = ok).
fn schema_errors(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    let mut require = |what: &str, ok: bool| {
        if !ok {
            errs.push(what.to_string());
        }
    };
    let Some(e21) = doc.get("sections").and_then(|s| s.get("e21_replay")) else {
        return vec!["sections.e21_replay".to_string()];
    };
    let source_ok = e21.get("source").is_some_and(|s| {
        ["records", "hit_ratio", "backbone_utilisation"]
            .iter()
            .all(|k| s.get(k).and_then(Json::as_f64).is_some())
    });
    require("e21_replay.source: records + hit ratio + backbone load", source_ok);
    let scales_ok = e21.get("scales").and_then(Json::as_arr).is_some_and(|rows| {
        !rows.is_empty()
            && rows.iter().all(|r| {
                [
                    "scale",
                    "n_proxies",
                    "records_replayed",
                    "records_per_sec",
                    "peak_resident_bytes",
                    "hit_ratio",
                    "hit_ratio_delta",
                    "backbone_utilisation",
                    "network_load_delta",
                ]
                .iter()
                .all(|k| r.get(k).and_then(Json::as_f64).is_some())
            })
    });
    require("e21_replay.scales[]: one full row per superposition factor", scales_ok);
    require(
        "e21_replay.replay_bit_identical: true (x1 replay reproduces the recorded run)",
        e21.get("replay_bit_identical") == Some(&Json::Bool(true)),
    );
    require(
        "e21_replay.peak_resident_ok: true (streams never exceed one chunk resident)",
        e21.get("peak_resident_ok") == Some(&Json::Bool(true)),
    );
    errs
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).map_or(OBS_ARTIFACT, String::as_str);
        return artifact::check("replay", Path::new(path), schema_errors);
    }
    let (n, shards, total) =
        if args.iter().any(|a| a == "--smoke") { e21_replay::SMOKE } else { e21_replay::FULL };
    let (report, section) = e21_replay::render_with(n, shards, total);
    print!("{report}");
    let path = Path::new(OBS_ARTIFACT);
    if let Err(e) = artifact::write_section(path, "e21_replay", section) {
        eprintln!("e21: could not write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("e21: wrote section e21_replay of {}", path.display());
    ExitCode::SUCCESS
}
