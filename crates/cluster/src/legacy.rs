//! The retired O(links + proxies) scan driver, kept **only** as a parity
//! oracle.
//!
//! Before the indexed event scheduler (`simcore::sched`) landed, the
//! cluster engines selected the next event by scanning every link and
//! every proxy per iteration. The scan is gone from the hot paths (the
//! engine core arms per-link/per-proxy timers and runs under the `shard`
//! drivers), but it survives here, driving the *same* generic engine core
//! (`crate::engine`) for either proxy model, so the engine-parity tests
//! can pin that the scheduler rewrite changed event *selection cost* and
//! nothing else: both drivers must produce byte-identical
//! [`ClusterReport`]s.
//!
//! Compiled only under the `legacy-oracle` cargo feature (on by default
//! for this crate, so `cargo test` keeps the parity suites; release
//! consumers — the harness, the facade — opt out with
//! `default-features = false` and carry no dead driver). Not part of the
//! public API surface (`#[doc(hidden)]` at the re-export); do not build
//! features on it.
//!
//! The scan predates link latency, so it only accepts zero-latency
//! topologies (every effect settles at its emission instant, inline —
//! exactly the behaviour the pre-shard engines hard-coded).

use crate::closed_loop::{ClosedLoop, EngineWorkload, SharedWebs};
use crate::engine::{merge_reports, ProxyModel, Run};
use crate::report::ClusterReport;
use crate::shard::{
    flush_boundary, push_effects, Effect, EngineCore, CLASS_DEPART, CLASS_PREFETCH, CLASS_REQUEST,
};
use crate::sim::Scope;
use crate::static_mode::OpenLoop;
use crate::topology::ShardPlan;
use crate::{ClusterConfig, Workload};
use coop::Router;

/// Earliest pending stream of `class`: `(time, local index)`, lowest
/// index first on ties — the O(entities) scan the scheduler replaced.
fn earliest<C: EngineCore>(core: &C, class: usize) -> Option<(f64, usize)> {
    let mut best: Option<(f64, usize)> = None;
    for i in 0..core.class_counts()[class] {
        if let Some(t) = core.due(class, i) {
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, i));
            }
        }
    }
    best
}

/// Inline settlement of a full-scope handler's effects: on the
/// zero-latency topologies the scan supports, every effect applies at its
/// emission instant, children-before-siblings — byte-identical to the
/// nesting the pre-shard engines executed inline.
fn settle<C: EngineCore>(core: &mut C, t: f64, stack: &mut Vec<Effect<C::Job>>) {
    debug_assert!(stack.is_empty());
    push_effects(core, stack);
    while let Some(e) = stack.pop() {
        debug_assert!(core.owns(&e), "legacy scan runs one full scope");
        debug_assert_eq!(e.time(), t, "legacy scan supports zero-latency topologies only");
        core.apply_now(e, t);
        push_effects(core, stack);
    }
}

/// Runs one cluster simulation with the legacy scan driver. Same
/// semantics, dispatch, and validation as [`crate::ClusterSim::run`] on
/// zero-latency topologies (the only kind the scan era had).
pub fn run(config: &ClusterConfig<'_>, seed: u64) -> ClusterReport {
    config.validate();
    assert!(
        !config.topology.has_latency(),
        "the legacy scan predates link latency; use the shard drivers"
    );
    let topology = &config.topology;
    // One shard: the whole topology with identity index maps.
    let plan = ShardPlan::partition(topology, 1);
    let run = Run {
        topology,
        requests: config.requests_per_proxy,
        warmup: config.warmup_per_proxy,
        seed,
        plan: &plan,
        obs: None,
        record: false,
        faults: None,
    };
    match &config.workload {
        Workload::Static(w) => scan(&run, None, |scope| OpenLoop::new(w, seed, scope)),
        Workload::Adaptive(w) => {
            let webs = SharedWebs::build(w);
            scan(&run, None, |scope| {
                ClosedLoop::new(topology, EngineWorkload::Synth(w, &webs), None, seed, scope)
            })
        }
        Workload::Cooperative(w) => {
            let router = Router::new(topology.n_proxies(), w.base.cache_capacity, w.coop);
            let webs = SharedWebs::build(&w.base);
            scan(&run, Some(router), |scope| {
                let synth = EngineWorkload::Synth(&w.base, &webs);
                ClosedLoop::new(topology, synth, Some(&w.coop), seed, scope)
            })
        }
        Workload::Trace(w) => scan(&run, None, |scope| {
            ClosedLoop::new(topology, EngineWorkload::Trace(w), None, seed, scope)
        }),
    }
}

/// The scan loop: every iteration walks all links and all proxies for the
/// earliest event. Tie order (links by index, then requests by proxy, then
/// prefetches, refresh strictly last) matches the shard drivers' class
/// layout exactly.
fn scan<M: ProxyModel>(
    run: &Run<'_>,
    mut router: Option<Router>,
    model: impl FnOnce(&Scope) -> M,
) -> ClusterReport {
    let mut eng = run.shard(0, model);
    let mut stack = Vec::new();
    let mut dirty = Vec::new();
    loop {
        let link = earliest(&eng, CLASS_DEPART);
        let req = earliest(&eng, CLASS_REQUEST);
        let pre = earliest(&eng, CLASS_PREFETCH);
        let at = |e: Option<(f64, usize)>| e.map_or(f64::INFINITY, |(t, _)| t);
        let (ts, tr, tp) = (at(link), at(req), at(pre));
        if ts.is_infinite() && tr.is_infinite() && tp.is_infinite() {
            // Refresh boundaries beyond the last real event never fire.
            break;
        }
        let tb = router.as_ref().map_or(f64::INFINITY, Router::next_refresh);
        if tb < ts && tb < tr && tb < tp {
            let mut entries = Vec::new();
            eng.refresh_payloads(&mut entries);
            flush_boundary(router.as_mut().expect("boundary without a router"), entries);
            continue;
        }
        let (class, next) = if ts <= tr && ts <= tp {
            (CLASS_DEPART, link)
        } else if tr <= tp {
            (CLASS_REQUEST, req)
        } else {
            (CLASS_PREFETCH, pre)
        };
        let (t, idx) = next.expect("a finite event");
        eng.dispatch(class, idx, t, router.as_ref());
        settle(&mut eng, t, &mut stack);
        // The scan recomputes everything next iteration; no timers to sync.
        eng.drain_dirty(&mut dirty);
        dirty.clear();
    }
    merge_reports(run.topology, vec![eng], router)
}
