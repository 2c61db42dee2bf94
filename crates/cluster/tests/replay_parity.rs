//! Record-then-replay determinism for the streaming trace pipeline.
//!
//! The contract this suite pins, with derived `PartialEq` and no
//! tolerance anywhere:
//!
//! * a synthetic adaptive run recorded via [`ClusterSim::run_recorded`]
//!   and replayed through [`Workload::Trace`] on the same topology,
//!   seed, and knobs reproduces the source [`ClusterReport`]
//!   **bit-for-bit**;
//! * replay never materialises the trace: peak resident trace bytes per
//!   stream stay pinned at one chunk even when the trace is more than
//!   100× the chunk size;
//! * static-mode recordings encode to valid `.events` bytes, and scaled
//!   superpositions replay cleanly through a bigger mesh.
//!
//! That a replay, a recording and the recorded trace itself do not
//! depend on the shard count are columns and rows of the parity matrix
//! (`shard_parity.rs`).
//!
//! [`ClusterReport`]: cluster::ClusterReport
//! [`Workload::Trace`]: cluster::Workload::Trace

mod common;

use cluster::{ClusterSim, Workload};
use common::{replay_source, replaying, static_catalog, trace_replay};
use workload::events::{encode_events, RECORD_BYTES};
use workload::TraceScaler;

/// Record once, then replay: the replayed report equals the source
/// report bit-for-bit (derived `PartialEq`, full report tree — nodes,
/// links, coop, aggregates), and the replay consumes the whole trace.
#[test]
fn record_then_replay_is_bit_identical() {
    let (n, requests) = (4, 2_500);
    let (config, source_report) = trace_replay(n, requests, 11);
    let (replayed, stats) = ClusterSim::new(&config).run_replayed(11, 1);
    assert_eq!(replayed, source_report, "the replayed report differs from the recorded source run");
    assert_eq!(stats.records_replayed, (n * requests) as u64, "one record per issued request");
}

/// The O(chunk) pin: replaying a trace more than 100× the chunk size,
/// each proxy's stream never holds more than one chunk of records
/// resident.
#[test]
fn replay_memory_stays_chunk_bounded() {
    let (n, requests) = (4, 13_000);
    let chunk = 512usize;
    let config = replay_source(n, requests);
    let (_, trace) = ClusterSim::new(&config).run_recorded(17, 4);
    assert!(
        trace.len() >= 100 * chunk,
        "need a trace >= 100x the chunk to make the pin meaningful, got {} records",
        trace.len()
    );

    let mut replay_config = replaying(&config, &trace);
    let Workload::Trace(w) = &mut replay_config.workload else { unreachable!() };
    w.chunk_records = chunk;
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
    let (_, trace) = ClusterSim::new(&static_catalog(4, 2_000)).run_recorded(19, 2);
    assert_eq!(trace.len(), 4 * 2_000);
    let bytes = encode_events(&trace).expect("static recording encodes");
    let decoded: Vec<_> = workload::TraceStream::open(&bytes[..])
        .expect("header parses")
        .collect::<Result<_, _>>()
        .expect("records validate");
    assert_eq!(decoded, trace, "static recording must stream-decode to itself");
}

/// A scaled superposition (disjoint key spaces, dilated copies) replays
/// cleanly through a mesh with one proxy per folded client lane.
#[test]
fn scaled_trace_replays_cleanly() {
    let n = 2;
    let source = replay_source(n, 800);
    let (_, trace) = ClusterSim::new(&source).run_recorded(23, 1);

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
    let mut bigger = replay_source(n * scaler.copies as usize, scaled.len());
    bigger.warmup_per_proxy = source.warmup_per_proxy;
    let replay_config = replaying(&bigger, &scaled);
    for shards in [1, 4] {
        let (report, stats) = ClusterSim::new(&replay_config).run_replayed(29, shards);
        assert_eq!(stats.records_replayed, scaled.len() as u64);
        assert!(report.mean_access_time.is_finite());
        let one = ClusterSim::new(&replay_config).run_replayed(29, 1).0;
        assert_eq!(report, one, "scaled replay must stay shard-invariant");
    }
}
