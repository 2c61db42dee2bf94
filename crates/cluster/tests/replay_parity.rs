//! Record-then-replay determinism for the streaming trace pipeline.
//!
//! The contract this suite pins, with derived `PartialEq` and no
//! tolerance anywhere:
//!
//! * a synthetic adaptive run recorded via [`ClusterSim::run_recorded`]
//!   and replayed through [`Workload::Trace`] on the same topology,
//!   seed, and knobs reproduces the source [`ClusterReport`]
//!   **bit-for-bit**, at every shard count in {1, 2, 4, 8};
//! * the recorded trace itself is invariant under sharding — the merge
//!   order (time, source proxy, per-proxy sequence) does not depend on
//!   how the mesh was partitioned;
//! * replay never materialises the trace: peak resident trace bytes per
//!   stream stay pinned at one chunk even when the trace is more than
//!   100× the chunk size;
//! * static-mode recordings encode to valid `.events` bytes, and scaled
//!   superpositions replay cleanly through a bigger mesh.

use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterSim, DelayedHitsConfig, ProxyPolicy,
    ShardPlan, StaticProxy, StaticWorkload, Topology, TraceSource, TraceWorkload, Workload,
};
use simcore::dist::Exponential;
use workload::events::{encode_events, RECORD_BYTES};
use workload::synth_web::SynthWebConfig;
use workload::TraceScaler;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The recording side: a latency mesh under the adaptive engine with a
/// learned (Markov) predictor — the only candidate source a trace can
/// replay, since oracle candidates need the generating chain.
fn source_workload(n: usize) -> AdaptiveWorkload {
    AdaptiveWorkload {
        proxies: (0..n)
            .map(|i| SynthWebConfig {
                lambda: 18.0 + 3.0 * i as f64,
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

fn source_config(n: usize, requests: usize, warmup: usize) -> ClusterConfig<'static> {
    ClusterConfig {
        topology: Topology::mesh_with_latency(n, 60.0, 20.0 * n as f64, 45.0, 0.05),
        workload: Workload::Adaptive(source_workload(n)),
        requests_per_proxy: requests,
        warmup_per_proxy: warmup,
    }
}

/// Record once, replay at every shard count: every replayed report must
/// equal the source report bit-for-bit (derived `PartialEq`, full report
/// tree — nodes, links, coop, aggregates).
#[test]
fn record_then_replay_is_bit_identical() {
    let n = 4;
    let (requests, warmup) = (2_500, 500);
    let config = source_config(n, requests, warmup);
    let (source_report, trace) = ClusterSim::new(&config).run_recorded(11, 2);
    assert_eq!(trace.len(), n * requests, "one record per issued request");

    let source = TraceSource::from_records(&trace).expect("recorded trace encodes");
    let replay_config = ClusterConfig {
        topology: config.topology.clone(),
        workload: Workload::Trace(TraceWorkload::replaying(&source_workload(n), source)),
        requests_per_proxy: requests,
        warmup_per_proxy: warmup,
    };
    for shards in SHARD_COUNTS {
        let (replayed, stats) = ClusterSim::new(&replay_config).run_replayed(11, shards);
        assert_eq!(
            replayed, source_report,
            "replayed report at {shards} shards differs from the recorded source run"
        );
        assert_eq!(
            stats.records_replayed,
            (n * requests) as u64,
            "replay at {shards} shards must consume the whole trace"
        );
    }
}

/// Recording itself must be shard-invariant: same report as the plain
/// sharded run, same merged trace at every shard count.
#[test]
fn recording_is_shard_invariant() {
    let config = source_config(4, 1_500, 300);
    let oracle_report = ClusterSim::new(&config).run(13);
    let (r1, t1) = ClusterSim::new(&config).run_recorded(13, 1);
    assert_eq!(r1, oracle_report, "recording must not perturb the run");
    for shards in &SHARD_COUNTS[1..] {
        let (r, t) = ClusterSim::new(&config).run_recorded(13, *shards);
        assert_eq!(r, oracle_report, "recorded report differs at {shards} shards");
        assert_eq!(t, t1, "merged trace differs at {shards} shards");
    }
}

/// The O(chunk) pin: replaying a trace more than 100× the chunk size,
/// each proxy's stream never holds more than one chunk of records
/// resident.
#[test]
fn replay_memory_stays_chunk_bounded() {
    let n = 4;
    let (requests, warmup) = (13_000, 1_000);
    let chunk = 512usize;
    let config = source_config(n, requests, warmup);
    let (_, trace) = ClusterSim::new(&config).run_recorded(17, 4);
    assert!(
        trace.len() >= 100 * chunk,
        "need a trace >= 100x the chunk to make the pin meaningful, got {} records",
        trace.len()
    );

    let mut workload = TraceWorkload::replaying(
        &source_workload(n),
        TraceSource::from_records(&trace).expect("recorded trace encodes"),
    );
    workload.chunk_records = chunk;
    let replay_config = ClusterConfig {
        topology: config.topology.clone(),
        workload: Workload::Trace(workload),
        requests_per_proxy: requests,
        warmup_per_proxy: warmup,
    };
    let (_, stats) = ClusterSim::new(&replay_config).run_replayed(17, 4);
    assert_eq!(stats.records_replayed, (n * requests) as u64);
    assert!(
        stats.peak_resident_bytes <= chunk * RECORD_BYTES,
        "peak resident trace bytes {} exceed one {}-record chunk ({} bytes)",
        stats.peak_resident_bytes,
        chunk,
        chunk * RECORD_BYTES
    );
    assert!(stats.peak_resident_bytes > 0, "replay must have read something");
}

/// Static-mode recordings — hits tagged with the sentinel item — encode
/// to valid `.events` bytes and round-trip through the streaming reader.
#[test]
fn static_recording_encodes_valid_events() {
    let size = Exponential::with_mean(1.0);
    let config = |topology| ClusterConfig {
        topology,
        workload: Workload::Static(StaticWorkload {
            proxies: vec![StaticProxy { lambda: 12.0, h_prime: 0.3, n_f: 0.5, p: 0.8 }; 4],
            size_dist: &size,
            catalog_items: Some(40),
        }),
        requests_per_proxy: 2_000,
        warmup_per_proxy: 400,
    };
    // The latency mesh's 2-shard cut has positive lookahead, so that row
    // records on two threads.
    let mesh = Topology::mesh_with_latency(4, 50.0, 150.0, 45.0, 0.05);
    assert!(ShardPlan::partition(&mesh, 2).lookahead() > 0.0);
    for topology in [Topology::sharded_origin(4, 2, 25.0, 12.0), mesh] {
        let (_, trace) = ClusterSim::new(&config(topology)).run_recorded(19, 2);
        assert_eq!(trace.len(), 4 * 2_000);
        let bytes = encode_events(&trace).expect("static recording encodes");
        let decoded: Vec<_> = workload::TraceStream::open(&bytes[..])
            .expect("header parses")
            .collect::<Result<_, _>>()
            .expect("records validate");
        assert_eq!(decoded, trace, "static recording must stream-decode to itself");
    }
}

/// A scaled superposition (disjoint key spaces, dilated copies) replays
/// cleanly through a mesh with one proxy per folded client lane.
#[test]
fn scaled_trace_replays_cleanly() {
    let n = 2;
    let (requests, warmup) = (800, 160);
    let config = source_config(n, requests, warmup);
    let (_, trace) = ClusterSim::new(&config).run_recorded(23, 1);

    let scaler = TraceScaler {
        copies: 4,
        dilation_step: 0.25,
        key_stride: 1 << 32,
        client_stride: n as u32,
    };
    let scaled = scaler.scale_records(&trace);
    assert_eq!(scaled.len(), 4 * trace.len());

    // Folded client ids spread unevenly over the bigger mesh, so give
    // every proxy headroom to drain whatever share routes to it: the
    // engine stops when its lane of the trace runs dry.
    let big = n * scaler.copies as usize;
    let replay_config = ClusterConfig {
        topology: Topology::mesh_with_latency(big, 60.0, 20.0 * big as f64, 45.0, 0.05),
        workload: Workload::Trace(TraceWorkload::replaying(
            &source_workload(big),
            TraceSource::from_records(&scaled).expect("scaled trace encodes"),
        )),
        requests_per_proxy: scaled.len(),
        warmup_per_proxy: warmup,
    };
    for shards in [1, 4] {
        let (report, stats) = ClusterSim::new(&replay_config).run_replayed(29, shards);
        assert_eq!(stats.records_replayed, scaled.len() as u64);
        assert!(report.mean_access_time.is_finite());
        let one = ClusterSim::new(&replay_config).run_replayed(29, 1).0;
        assert_eq!(report, one, "scaled replay must stay shard-invariant");
    }
}
