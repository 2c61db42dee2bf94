//! E21 — streaming trace replay: record a synthetic cluster run, scale it
//! by superposition, and replay it through bigger meshes without ever
//! materialising the trace.
//!
//! The pipeline under test is the full `.events` path:
//!
//! 1. **Record** — an adaptive Markov-predictor mesh runs with the
//!    request recorder attached ([`ClusterSim::run_recorded`]); the
//!    merged trace is written to a versioned `.events` file
//!    ([`E21_SAMPLE`], uploaded as a CI artifact).
//! 2. **Scale** — [`TraceScaler`] superposes K time-dilated copies with
//!    disjoint key spaces, for K in [`SCALES`]: one capture becomes a
//!    K×-heavier workload for a K×-bigger mesh.
//! 3. **Replay** — each scaled trace drives [`Workload::Trace`] through
//!    the sharded conservative-window driver. Every proxy streams its
//!    lane of the trace in fixed-size chunks, so peak resident trace
//!    bytes stay pinned at one chunk regardless of trace length.
//!
//! Two headline booleans gate the schema check:
//!
//! * `replay_bit_identical` — the ×1 replay reproduces the recorded
//!   source run's [`ClusterReport`] **bit-for-bit** (derived `PartialEq`,
//!   no tolerance);
//! * `peak_resident_ok` — no replay stream ever held more than one chunk
//!   of records resident.
//!
//! Stdout carries only virtual-time-deterministic numbers; wall-clock
//! throughput (`records_per_sec`) goes to stderr and the artifact, where
//! the sentinel's rate-suffix rule keeps it out of the tolerance bands.

use crate::experiments::{Rendered, Size};
use crate::report::{f, Table};
use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterReport, ClusterSim, DelayedHitsConfig,
    ProxyPolicy, ReplayStats, Topology, TraceSource, TraceWorkload, Workload,
};
use simcore::Json;
use workload::events::{encode_events, RECORD_BYTES};
use workload::synth_web::SynthWebConfig;
use workload::{TraceRecord, TraceScaler};

const SEED: u64 = 21;

/// Superposition factors: ×1 is the bit-identity pin, ×4 and ×16 stress
/// the scaler and the bigger meshes.
pub const SCALES: [u32; 3] = [1, 4, 16];

/// Records each replay stream holds resident at a time.
pub const CHUNK_RECORDS: usize = 1024;

/// The recorded `.events` sample CI uploads as a build artifact.
pub const E21_SAMPLE: &str = "E21_trace_sample.events";

/// Full sweep: a 16-proxy capture replayed up to a 256-proxy mesh.
const FULL: (usize, usize, usize) = (16, 8, 32_000);

/// Reduced CI sweep (`--smoke`): a 2-proxy capture replayed up to a
/// 32-proxy mesh, still through the windowed driver.
const SMOKE: (usize, usize, usize) = (2, 2, 1_600);

/// The latency mesh both sides run on. Bandwidth scales with the proxy
/// count so the backbone's per-proxy share stays constant across scales.
fn mesh(n_proxies: usize) -> Topology {
    Topology::mesh_with_latency(n_proxies, 60.0, 20.0 * n_proxies as f64, 45.0, 0.05)
}

/// The recording side: heterogeneous proxies under the learned Markov
/// predictor — the only candidate source a trace can replay.
fn source_workload(n_proxies: usize) -> AdaptiveWorkload {
    AdaptiveWorkload {
        proxies: (0..n_proxies)
            .map(|i| SynthWebConfig {
                lambda: 18.0 + 3.0 * (i % 4) as f64,
                n_items: 120,
                link_skew: 0.25,
                ..SynthWebConfig::default()
            })
            .collect(),
        cache_capacity: 24,
        cache_bytes: None,
        max_candidates: 3,
        prefetch_jitter: 0.01,
        policy: ProxyPolicy::Adaptive,
        predictor: CandidateSource::Markov1,
        shared_structure_seed: None,
        delayed: DelayedHitsConfig::default(),
    }
}

fn source_config(n_proxies: usize, total: usize) -> ClusterConfig<'static> {
    let requests = (total / n_proxies).max(60);
    ClusterConfig {
        topology: mesh(n_proxies),
        workload: Workload::Adaptive(source_workload(n_proxies)),
        requests_per_proxy: requests,
        warmup_per_proxy: requests / 5,
    }
}

/// Request-weighted cache hit ratio over all proxies.
fn hit_ratio(report: &ClusterReport) -> f64 {
    let total: u64 = report.nodes.iter().map(|n| n.measured_requests).sum();
    if total == 0 {
        return 0.0;
    }
    report.nodes.iter().map(|n| n.hit_ratio * n.measured_requests as f64).sum::<f64>()
        / total as f64
}

/// Backbone utilisation — the paper's network-load axis.
fn backbone_load(report: &ClusterReport) -> f64 {
    report.link("backbone").map_or(0.0, |l| l.utilisation)
}

/// One replay at scale `k`: the replayed report, the stream accounting,
/// and the wall-clock the throughput number is derived from.
pub struct ScaleRun {
    pub scale: u32,
    pub n_proxies: usize,
    pub report: ClusterReport,
    pub stats: ReplayStats,
    pub wall_secs: f64,
}

/// The full experiment: source run + one replay per scale.
pub struct Outcome {
    pub n_base: usize,
    pub shards: usize,
    pub source: ClusterReport,
    pub trace: Vec<TraceRecord>,
    pub runs: Vec<ScaleRun>,
}

impl Outcome {
    /// The ×1 replay reproduces the recorded run bit-for-bit.
    pub fn replay_bit_identical(&self) -> bool {
        self.runs.iter().any(|r| r.scale == 1 && r.report == self.source)
    }

    /// No replay stream held more than one chunk resident.
    pub fn peak_resident_ok(&self) -> bool {
        self.runs.iter().all(|r| {
            r.stats.peak_resident_bytes > 0
                && r.stats.peak_resident_bytes <= CHUNK_RECORDS * RECORD_BYTES
        })
    }
}

/// Records the seed trace and replays its scaled superpositions.
pub fn run(n_base: usize, shards: usize, total: usize) -> Outcome {
    let config = source_config(n_base, total);
    let (source, trace) = ClusterSim::new(&config).run_recorded(SEED, shards);

    let runs = SCALES
        .iter()
        .map(|&scale| {
            let scaler = TraceScaler {
                copies: scale,
                dilation_step: 0.03,
                key_stride: 1 << 32,
                client_stride: n_base as u32,
            };
            let scaled = scaler.scale_records(&trace);
            let n_proxies = n_base * scale as usize;
            let mut w = TraceWorkload::replaying(
                &source_workload(n_base),
                TraceSource::from_records(&scaled).expect("recorded trace encodes"),
            );
            w.chunk_records = CHUNK_RECORDS;
            // ×1 must match the source run exactly, including the
            // per-request denominators; bigger meshes get headroom and
            // stop when their lane of the trace runs dry.
            let (requests, warmup) = if scale == 1 {
                (config.requests_per_proxy, config.warmup_per_proxy)
            } else {
                (scaled.len(), config.warmup_per_proxy)
            };
            let replay_config = ClusterConfig {
                topology: mesh(n_proxies),
                workload: Workload::Trace(w),
                requests_per_proxy: requests,
                warmup_per_proxy: warmup,
            };
            let t0 = std::time::Instant::now();
            let (report, stats) = ClusterSim::new(&replay_config).run_replayed(SEED, shards);
            ScaleRun { scale, n_proxies, report, stats, wall_secs: t0.elapsed().as_secs_f64() }
        })
        .collect();

    Outcome { n_base, shards, source, trace, runs }
}

/// Runs one sweep at `size`; returns the report text, the `e21_replay`
/// artifact section, and the recorded sample as [`E21_SAMPLE`] bytes.
pub fn render(size: Size) -> Rendered {
    let (n_base, shards, total) = size.pick(FULL, SMOKE);
    let t0 = std::time::Instant::now();
    let outcome = run(n_base, shards, total);
    let sample = encode_events(&outcome.trace).expect("recorded trace encodes");

    let mut out = String::new();
    out.push_str("# E21 — streaming trace replay: record, scale, replay\n");
    out.push_str(&format!(
        "# {n_base}-proxy source mesh, {shards} shard(s), {} records captured;\n\
         # scaled superpositions replayed through meshes up to {} proxies,\n\
         # {CHUNK_RECORDS}-record stream chunks ({} bytes resident ceiling per stream)\n\n",
        outcome.trace.len(),
        n_base * SCALES[SCALES.len() - 1] as usize,
        CHUNK_RECORDS * RECORD_BYTES,
    ));

    let src_hit = hit_ratio(&outcome.source);
    let src_load = backbone_load(&outcome.source);
    let mut table = Table::new(
        "Replay at each superposition factor (deltas vs the synthetic source run)",
        &[
            "scale",
            "proxies",
            "records",
            "resident bytes",
            "hit ratio",
            "Δ hit",
            "backbone load",
            "Δ load",
        ],
    );
    for r in &outcome.runs {
        table.row(vec![
            format!("x{}", r.scale),
            r.n_proxies.to_string(),
            r.stats.records_replayed.to_string(),
            r.stats.peak_resident_bytes.to_string(),
            f(hit_ratio(&r.report), 4),
            format!("{:+.4}", hit_ratio(&r.report) - src_hit),
            f(backbone_load(&r.report), 4),
            format!("{:+.4}", backbone_load(&r.report) - src_load),
        ]);
    }
    out.push_str(&table.render());

    out.push_str(&format!(
        "\nSource run: hit ratio {}, backbone load {}. The x1 replay is\n\
         bit-identical to it: {}. Peak resident trace bytes stayed within one\n\
         chunk on every replay: {}. At higher scales the per-copy key spaces\n\
         are disjoint, so caches see K independent populations: per-proxy\n\
         behaviour stays in the source's regime while the fabric carries K\n\
         times the records.\n",
        f(src_hit, 4),
        f(src_load, 4),
        outcome.replay_bit_identical(),
        outcome.peak_resident_ok(),
    ));

    // Wall-clock telemetry stays off stdout, as in E17–E20.
    for r in &outcome.runs {
        eprintln!(
            "e21: x{} replay of {} records on {} proxies: {:.2}s wall ({:.0} records/s)",
            r.scale,
            r.stats.records_replayed,
            r.n_proxies,
            r.wall_secs,
            r.stats.records_replayed as f64 / r.wall_secs.max(1e-9)
        );
    }
    eprintln!("e21: total {:.2}s wall", t0.elapsed().as_secs_f64());

    Rendered { report: out, section: Some(section(&outcome)), files: vec![(E21_SAMPLE, sample)] }
}

fn scale_json(r: &ScaleRun, source_hit: f64, source_load: f64) -> Json {
    Json::obj()
        .set("scale", Json::num(f64::from(r.scale)))
        .set("n_proxies", Json::num(r.n_proxies as f64))
        .set("records_replayed", Json::num(r.stats.records_replayed as f64))
        .set("records_per_sec", Json::num(r.stats.records_replayed as f64 / r.wall_secs.max(1e-9)))
        .set("peak_resident_bytes", Json::num(r.stats.peak_resident_bytes as f64))
        .set("hit_ratio", Json::num(hit_ratio(&r.report)))
        .set("hit_ratio_delta", Json::num(hit_ratio(&r.report) - source_hit))
        .set("backbone_utilisation", Json::num(backbone_load(&r.report)))
        .set("network_load_delta", Json::num(backbone_load(&r.report) - source_load))
}

/// The machine-readable `e21_replay` section: source summary, one row per
/// scale, and the two headline booleans the schema check gates on.
pub fn section(outcome: &Outcome) -> Json {
    let src_hit = hit_ratio(&outcome.source);
    let src_load = backbone_load(&outcome.source);
    Json::obj()
        .set("experiment", Json::str("e21_replay"))
        .set("n_base", Json::num(outcome.n_base as f64))
        .set("shards", Json::num(outcome.shards as f64))
        .set("chunk_records", Json::num(CHUNK_RECORDS as f64))
        .set(
            "source",
            Json::obj()
                .set("records", Json::num(outcome.trace.len() as f64))
                .set("hit_ratio", Json::num(src_hit))
                .set("backbone_utilisation", Json::num(src_load)),
        )
        .set("scales", Json::arr(outcome.runs.iter().map(|r| scale_json(r, src_hit, src_load))))
        .set("replay_bit_identical", Json::Bool(outcome.replay_bit_identical()))
        .set("peak_resident_ok", Json::Bool(outcome.peak_resident_ok()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;

    fn num(node: &Json, key: &str) -> f64 {
        node.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("{key}: not a number"))
    }

    /// The shared smoke run replays bit-identically, within one chunk
    /// resident, and consumes its whole scaled trace at every scale.
    #[test]
    fn smoke_pins_identity_and_memory() {
        let section = smoke("replay").section.as_ref().expect("E21 writes a section");
        assert_eq!(
            section.get("replay_bit_identical"),
            Some(&Json::Bool(true)),
            "the x1 replay must reproduce the recorded source run bit-for-bit"
        );
        assert_eq!(
            section.get("peak_resident_ok"),
            Some(&Json::Bool(true)),
            "replay streams must never hold more than one chunk resident"
        );
        let records = num(section.get("source").expect("source row"), "records");
        let scales = section.get("scales").and_then(Json::as_arr).expect("scales");
        assert_eq!(scales.len(), SCALES.len());
        for r in scales {
            assert_eq!(
                num(r, "records_replayed"),
                records * num(r, "scale"),
                "x{} replay must consume its whole scaled trace",
                num(r, "scale")
            );
        }
    }

    /// A second render in the same process repeats the shared one.
    #[test]
    fn smoke_report_is_deterministic() {
        assert_eq!(render(Size::Smoke).report, smoke("replay").report);
    }
}
