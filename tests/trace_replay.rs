//! Trace persistence and replay: an experiment's workload can be written
//! out as a binary `.events` trace, read back, and must drive the caches to
//! byte-identical results — the reproducibility spine of the harness.

use speculative_prefetch::cachesim::{LruCache, ReplacementCache, TaggedCache};
use speculative_prefetch::simcore::rng::Rng;
use speculative_prefetch::workload::events::{encode_events, read_events};
use speculative_prefetch::workload::synth_web::{SynthWeb, SynthWebConfig};
use speculative_prefetch::workload::TraceRecord;

fn make_trace(n: usize, seed: u64) -> Vec<TraceRecord> {
    let mut rng = Rng::new(seed);
    let mut web = SynthWeb::new(SynthWebConfig::default(), &mut rng);
    web.generate(n, &mut rng)
}

fn cache_fingerprint(trace: &[TraceRecord]) -> (u64, u64, Vec<u64>) {
    // One tagged LRU per client, driven by the trace; fingerprint the
    // counters and final contents.
    let n_clients = trace.iter().map(|r| r.client).max().unwrap_or(0) as usize + 1;
    let mut caches: Vec<TaggedCache<_, _>> =
        (0..n_clients).map(|_| TaggedCache::new(LruCache::new(24))).collect();
    for r in trace {
        caches[r.client as usize].access(r.item);
    }
    let hits: u64 = caches.iter().map(|c| c.real_hits()).sum();
    let accesses: u64 = caches.iter().map(|c| c.accesses()).sum();
    let mut contents: Vec<u64> =
        caches.iter().flat_map(|c| c.inner().keys().into_iter().map(|k| k.0)).collect();
    contents.sort_unstable();
    (hits, accesses, contents)
}

#[test]
fn binary_roundtrip_is_bit_exact() {
    let trace = make_trace(20_000, 2);
    let buf = encode_events(&trace).unwrap();
    let replayed = read_events(&buf).unwrap();
    assert_eq!(replayed, trace, "binary format must be lossless");
    assert_eq!(cache_fingerprint(&trace), cache_fingerprint(&replayed));
}

#[test]
fn generation_is_seed_deterministic() {
    assert_eq!(make_trace(5_000, 42), make_trace(5_000, 42));
    assert_ne!(make_trace(5_000, 42), make_trace(5_000, 43));
}
