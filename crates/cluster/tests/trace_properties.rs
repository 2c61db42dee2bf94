//! Property tests for the span extractor and the end-to-end tracing
//! pipeline (satellite 3).
//!
//! Two layers:
//!
//! * **Extractor algebra** — random-but-causal synthetic job lifecycles
//!   (jittered issue, 1–4 hops with arbitrary propagation/queue/service
//!   gaps, an optional mid-path false-hit redirect) must extract to an
//!   exactly-tiled segment list whose per-kind totals reproduce the gaps
//!   the generator injected. This pins the cursor invariant on inputs no
//!   hand-written case would think of.
//! * **Whole-simulation invariants** — small cooperative cluster runs at
//!   a random seed/shard count: every extracted trace is well-formed,
//!   conserves latency, and the store is bit-identical to the
//!   single-shard run's.

mod common;

use cluster::{ClusterSim, ShardPlan};
use common::{close, coop, flat, traced};
use coop::RefreshStrategy;
use proptest::collection::vec;
use proptest::prelude::*;
use simcore::trace::{
    SegKind, SpanEvent, SpanKind, TraceStore, TF_FALSE_HIT, TF_MEASURED, TF_PREFETCH,
};

/// Builds one synthetic job lifecycle: issue (optionally after a pending
/// stall), `retries` timed-out attempts each `(timeout, backoff)` long,
/// `hops` link traversals each `(prop, queue, service)` apart, an
/// optional redirect after hop `redirect_after`, then delivery one more
/// propagation gap later. Returns the raw events plus the exact per-kind
/// totals the extractor must reproduce.
#[allow(clippy::type_complexity)]
fn synth_lifecycle(
    stall: f64,
    retries: &[(f64, f64)],
    hops: &[(f64, f64, f64)],
    redirect_after: Option<usize>,
    tail_prop: f64,
    prefetch: bool,
) -> (Vec<SpanEvent>, [f64; 7], f64) {
    let mut events = Vec::new();
    let ev = |seq: u32, t: f64, kind: SpanKind, entity: u64, aux: f64, flags: u8| SpanEvent {
        trace: 0xfeed,
        seq,
        t,
        kind,
        entity,
        aux,
        item: 3,
        flags,
    };
    let decided = 10.0;
    let issued = decided + stall;
    let flags = TF_MEASURED | if prefetch { TF_PREFETCH } else { 0 };
    let mut seq = 0u32;
    events.push(ev(seq, issued, SpanKind::Issue, 1, decided, flags));
    // totals indexed like SegKind::ALL: pending, queue, service, prop,
    // wait, timeout, backoff
    let mut totals = [0.0f64; 7];
    totals[0] = stall;
    let mut t = issued;
    let mut wasted = 0.0;
    // Doomed attempts resolve before the surviving launch: each waits out
    // its timeout, then backs off before the next attempt.
    for &(timeout, backoff) in retries {
        seq += 1;
        let expiry = t + timeout;
        t = expiry + backoff;
        totals[5] += timeout;
        totals[6] += backoff;
        events.push(ev(seq, t, SpanKind::Retry, 1, expiry, 0));
    }
    for (h, &(prop, queue, service)) in hops.iter().enumerate() {
        seq += 1;
        t += prop;
        totals[3] += prop;
        events.push(ev(seq, t, SpanKind::Enqueue, 100 + h as u64, 0.0, 0));
        seq += 1;
        t += queue + service;
        totals[1] += queue;
        totals[2] += service;
        events.push(ev(seq, t, SpanKind::Dequeue, 100 + h as u64, service, 0));
        if redirect_after == Some(h) {
            seq += 1;
            events.push(ev(seq, t, SpanKind::Check, 2, 0.0, TF_FALSE_HIT));
            seq += 1;
            events.push(ev(seq, t, SpanKind::Redirect, 1, 0.0, TF_FALSE_HIT));
            // Everything accumulated on this leg (all queue/service/prop
            // plus any retry timeouts/backoffs so far — the pending stall
            // is outside the leg) is wasted.
            wasted = totals[1] + totals[2] + totals[3] + totals[5] + totals[6];
        }
    }
    seq += 1;
    t += tail_prop;
    totals[3] += tail_prop;
    events.push(ev(seq, t, SpanKind::Deliver, 1, 0.0, 0));
    (events, totals, wasted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The extractor reproduces exactly the time the generator injected,
    /// kind by kind, on arbitrary causal lifecycles.
    #[test]
    fn extractor_attributes_every_injected_gap(
        stall_q in 0u32..3,
        retries in vec((0.1f64..2.0, 0.0f64..1.0), 0..4),
        hops in vec((0.0f64..0.5, 0.0f64..2.0, 0.01f64..1.0), 1..5),
        redirect_sel in 0usize..8,
        tail_prop in 0.0f64..0.5,
        prefetch in any::<bool>(),
    ) {
        // A pending stall only exists for jittered prefetches; demand
        // fetches issue at decision time.
        let stall = if prefetch { stall_q as f64 * 0.21 } else { 0.0 };
        // Prefetches get exactly one attempt: no retry legs.
        let retries = if prefetch { &[][..] } else { &retries[..] };
        // Redirect after one of the non-final hops, or never.
        let redirect_after =
            if redirect_sel + 1 < hops.len() { Some(redirect_sel) } else { None };
        let (events, totals, wasted) =
            synth_lifecycle(stall, retries, &hops, redirect_after, tail_prop, prefetch);
        let store = TraceStore::from_events(events, 1);
        prop_assert_eq!(store.traces.len(), 1);
        let tr = &store.traces[0];
        prop_assert!(tr.check().is_ok(), "{:?}", tr.check());
        prop_assert!(close(tr.segment_sum(), tr.latency()),
            "segments {} vs latency {}", tr.segment_sum(), tr.latency());
        for (ki, &kind) in SegKind::ALL.iter().enumerate() {
            let got: f64 = tr
                .segments
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.end - s.start)
                .sum();
            prop_assert!(close(got, totals[ki]),
                "{}: extracted {} vs injected {}", kind.name(), got, totals[ki]);
        }
        let got_wasted: f64 =
            tr.segments.iter().filter(|s| s.wasted).map(|s| s.end - s.start).sum();
        prop_assert!(close(got_wasted, wasted),
            "wasted {} vs injected {}", got_wasted, wasted);
        // The wasted leg never includes the pending stall.
        prop_assert!(tr
            .segments
            .iter()
            .all(|s| !(s.wasted && s.kind == SegKind::PendingWait)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whole small runs at random seeds: every trace well-formed and
    /// conservative, and the store independent of the shard count.
    #[test]
    fn random_runs_trace_well_formed_and_shard_independent(
        seed in 0u64..10_000,
        shards_sel in 0usize..2,
        latency_on in any::<bool>(),
    ) {
        let config = coop(4, 300, RefreshStrategy::Deltas);
        let config = if latency_on { config } else { flat(config) };
        let shards = [2, 4][shards_sel];
        // Only the latency arm runs its shards on threads.
        let lookahead = ShardPlan::partition(&config.topology, shards).lookahead();
        prop_assert_eq!(lookahead > 0.0, latency_on, "lookahead {}", lookahead);
        let (report, base) = ClusterSim::new(&config).run_observed(seed, 1, &traced(1));
        let base = base.traces.expect("tracing ran");
        prop_assert!(!base.traces.is_empty());
        for tr in &base.traces {
            prop_assert!(tr.check().is_ok(), "{:?}", tr.check());
            prop_assert!(close(tr.segment_sum(), tr.latency()),
                "trace {:#x}: {} vs {}", tr.id, tr.segment_sum(), tr.latency());
            prop_assert!(tr.start <= tr.end && tr.end <= report.duration);
        }
        let (_, obs) = ClusterSim::new(&config).run_observed(seed, shards, &traced(1));
        prop_assert_eq!(obs.traces.as_ref(), Some(&base),
            "store differs at {} shards", shards);
    }
}
