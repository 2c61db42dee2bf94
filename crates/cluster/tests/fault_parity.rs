//! Determinism contracts of the fault-injection layer (the E22 tentpole).
//!
//! Two pinned properties, both structural `assert_eq!` on the derived
//! `PartialEq` — every float bit-exact, no tolerance — and both columns
//! of the parity matrix (`shard_parity.rs`) on every engine:
//!
//! * **Empty plan ⇒ zero perturbation.** `run_faulted` with
//!   `FaultConfig::default()` is bit-identical to the unfaulted run: the
//!   fault machinery adds no RNG draws, float operations, or event
//!   reorderings until a fault fires.
//! * **Sharding-independence under faults.** A non-trivial plan — link
//!   flaps, degradation loss, proxy crashes, digest losses, origin
//!   brownouts and blackouts, retries and failovers — produces the same
//!   report (and the same traces) at every shard count.
//!
//! This suite adds the wider and sharper cases: eight proxies down to one
//! per shard, a crash tied with a request, and trace stores under faults.
//! Plus the satellite invariants: the MSHR conservation law
//! `origin_fetches + coalesced + failed == demand_misses` holds under
//! every fault mix; retries degrade gracefully where no-retries collapse;
//! crash recovery forces a snapshot refresh; and the capped-exponential
//! backoff schedule is deterministic, monotone, and jitter-bounded
//! (property-tested).

mod common;

use cluster::{ClusterConfig, ClusterSim};
use common::{adaptive, chaos, coop, flat, static_catalog, traced};
use coop::RefreshStrategy;
use proptest::prelude::*;
use simcore::faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use simcore::trace::TraceClass;

/// A non-trivial plan is bit-identical across shard counts on the
/// cooperative mesh (one shard on the calling thread, and > 1 shard on
/// threads, which the positive lookahead admits).
#[test]
fn fault_runs_are_bit_identical_across_shard_counts() {
    let config = coop(8, 700, RefreshStrategy::Deltas);
    let fc = chaos();
    let sim = ClusterSim::new(&config);
    let base = sim.run_faulted(23, 1, &fc);
    // The plan actually bites: failures, retries, and a crash all fire.
    assert!(base.failed_fetches() > 0, "plan produced no failures");
    assert!(base.retries() > 0, "plan produced no retries");
    assert!(base.nodes[1].lost_entries > 0, "crash wiped nothing");
    for shards in [2, 3, 4, 8] {
        let report = sim.run_faulted(23, shards, &fc);
        assert_eq!(report, base, "chaos plan at {shards} shards vs 1 shard");
    }
}

/// A boundary fault at exactly an event's instant: the event fires
/// before the boundary on every driver. The crash time and victim come
/// from a request in the recorded trace (the recorder folds the issuing
/// proxy into the client id), so the crashed proxy's own request and its
/// crash tie. The one-shard run must match the windowed driver at 2 and 4
/// shards, on the cooperative mesh (digest refreshes on) and on the
/// adaptive engine's two-shard origin.
#[test]
fn crash_at_a_request_instant_is_shard_independent() {
    let crash_at_request = |config: &ClusterConfig<'_>, seed: u64| {
        let (_, trace) = ClusterSim::new(config).run_recorded(seed, 1);
        let rec = &trace[trace.len() / 2];
        let proxy = rec.client as usize % config.topology.n_proxies();
        let crash = FaultEvent { t: rec.time, kind: FaultKind::ProxyCrash { proxy } };
        (proxy, FaultConfig { plan: FaultPlan::new(vec![crash]), retry: RetryPolicy::default() })
    };

    let configs = [
        ("coop", coop(4, 700, RefreshStrategy::Deltas), 59),
        ("sharded_origin", adaptive(4, 1_200), 61),
    ];
    for (label, config, seed) in configs {
        let (victim, fc) = crash_at_request(&config, seed);
        let sim = ClusterSim::new(&config);
        let base = sim.run_faulted(seed, 1, &fc);
        assert!(base.nodes[victim].lost_entries > 0, "{label}: crash wiped nothing");
        for shards in [2, 4] {
            let report = sim.run_faulted(seed, shards, &fc);
            assert_eq!(report, base, "{label}: crash tie at {shards} shards");
        }
    }
}

/// Traces under faults: bit-identical stores across shard counts, every
/// trace still tiles its latency exactly (now with `Timeout`/`Backoff`
/// segments), and failed fetches surface as `TraceClass::Failed`.
#[test]
fn fault_traces_are_bit_identical_and_conservative() {
    let config = coop(4, 700, RefreshStrategy::Deltas);
    let fc = chaos();
    let sim = ClusterSim::new(&config);
    let (report, base) = sim.run_faulted_observed(37, 1, &fc, &traced(1));
    let base = base.traces.expect("tracing ran");
    let mut failed = 0u64;
    for tr in &base.traces {
        tr.check().unwrap_or_else(|e| panic!("ill-formed trace: {e}"));
        let close = (tr.segment_sum() - tr.latency()).abs() <= 1e-9 * tr.latency().abs().max(1.0);
        assert!(
            close,
            "trace {:#x}: segments {} vs latency {}",
            tr.id,
            tr.segment_sum(),
            tr.latency()
        );
        if tr.class == TraceClass::Failed {
            failed += 1;
        }
    }
    assert!(failed > 0, "no failed traces despite {} failed fetches", report.failed_fetches());
    for shards in [2, 4] {
        let (_, obs) = sim.run_faulted_observed(37, shards, &fc, &traced(1));
        assert_eq!(obs.traces.expect("tracing ran"), base, "trace store at {shards} shards");
    }
}

/// The MSHR conservation law survives every fault mix, on both engines
/// with a table — checked from the report in release builds (the engines
/// also debug-assert it at report time): threaded at two shards, and on
/// the static catalog's zero-latency origin at one.
#[test]
fn mshr_conservation_holds_under_faults() {
    let fc = chaos();
    let runs: [(&str, ClusterConfig<'_>, u64, usize); 3] = [
        ("coop", coop(4, 800, RefreshStrategy::Deltas), 41, 2),
        ("static", static_catalog(4, 3_000), 43, 2),
        ("flat static", flat(static_catalog(4, 3_000)), 43, 1),
    ];
    for (label, config, seed, shards) in runs {
        let report = ClusterSim::new(&config).run_faulted(seed, shards, &fc);
        assert!(report.failed_fetches() > 0, "{label}: plan produced no failures");
        assert!(report.mshr_conservation_ok(), "{label}: conservation law violated");
    }
}

/// Retries buy graceful degradation: on a lossy mesh, the retry policy
/// keeps unavailability strictly below the no-retries collapse, at the
/// cost of a visible retry count.
#[test]
fn retries_degrade_gracefully_where_no_retries_collapse() {
    let config = coop(4, 800, RefreshStrategy::Deltas);
    // Every link lossy for the whole run.
    let n_links = config.topology.links().len();
    let plan = FaultPlan::new(
        (0..n_links)
            .map(|l| FaultEvent {
                t: 0.0,
                kind: FaultKind::LinkDegrade { link: l, loss: 0.25, latency_factor: 1.0 },
            })
            .collect(),
    );
    let with_retries = FaultConfig { plan: plan.clone(), retry: RetryPolicy::default() };
    let without = FaultConfig { plan, retry: RetryPolicy::no_retries(1.0) };
    let sim = ClusterSim::new(&config);
    let graceful = sim.run_faulted(47, 2, &with_retries);
    let collapsed = sim.run_faulted(47, 2, &without);
    assert!(graceful.retries() > 0, "lossy links provoked no retries");
    // The gap is material, not marginal: the retry budget claws back a
    // decent fraction of the loss. It does not vanish entirely, because
    // demand requests that coalesce onto an in-flight *prefetch* inherit
    // its single-attempt fate — speculative fetches are never worth a
    // retry budget, so aggressive prefetching widens the failure surface
    // (the interaction E22 sweeps).
    assert!(
        graceful.unavailability() < 0.85 * collapsed.unavailability(),
        "retries ({}) did not materially improve on no-retries ({})",
        graceful.unavailability(),
        collapsed.unavailability()
    );
    assert!(collapsed.unavailability() > 0.10, "no-retries run did not collapse");
}

/// A crash forces the victim's next digest refresh to ship a full
/// snapshot (the delta stream died with the node) even under the
/// pure-deltas strategy, and the wiped entries are reported.
#[test]
fn crash_recovery_forces_a_snapshot_refresh() {
    let config = coop(4, 800, RefreshStrategy::Deltas);
    let fc = FaultConfig {
        plan: FaultPlan::new(vec![FaultEvent {
            t: 20.0,
            kind: FaultKind::ProxyCrash { proxy: 2 },
        }]),
        retry: RetryPolicy::default(),
    };
    let report = ClusterSim::new(&config).run_faulted(53, 2, &fc);
    assert!(report.nodes[2].lost_entries > 0, "crash wiped no entries");
    let coop = report.coop.expect("cooperative run");
    assert!(
        coop.router.snapshot_flushes >= 1,
        "no snapshot refresh after the crash (got {} under pure deltas)",
        coop.router.snapshot_flushes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The capped-exponential backoff schedule: `attempts` is the retry
    /// budget plus the initial try; the nominal curve is monotone
    /// non-decreasing and clamped at the cap; the jittered draw is a pure
    /// function of `(seed, job, attempt)` landing in `[½·nominal,
    /// nominal)`.
    #[test]
    fn backoff_schedule_is_deterministic_monotone_and_bounded(
        timeout in 0.1f64..5.0,
        base in 0.01f64..2.0,
        cap_mult in 1.0f64..8.0,
        max_retries in 0u32..6,
        seed in any::<u64>(),
        job in any::<u64>(),
    ) {
        let rp = RetryPolicy {
            timeout,
            max_retries,
            backoff_base: base,
            backoff_cap: base * cap_mult,
        };
        rp.validate();
        prop_assert_eq!(rp.attempts(), max_retries + 1);
        let mut prev = 0.0f64;
        for k in 0..max_retries {
            let nominal = rp.nominal_backoff(k);
            prop_assert!(nominal <= rp.backoff_cap, "nominal {} above cap", nominal);
            prop_assert!(nominal >= prev, "nominal curve not monotone");
            prev = nominal;
            let b = rp.backoff(seed, job, k);
            prop_assert_eq!(b, rp.backoff(seed, job, k), "backoff not deterministic");
            prop_assert!(
                b >= 0.5 * nominal && b < nominal,
                "backoff {} outside [{}, {})", b, 0.5 * nominal, nominal
            );
        }
    }
}
