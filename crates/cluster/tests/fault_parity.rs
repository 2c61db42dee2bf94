//! Determinism contracts of the fault-injection layer (the E22 tentpole).
//!
//! Two pinned properties, both structural `assert_eq!` on the derived
//! `PartialEq` — every float bit-exact, no tolerance:
//!
//! * **Empty plan ⇒ zero perturbation.** `run_faulted` with
//!   `FaultConfig::default()` is bit-identical to the unfaulted run on
//!   every engine and every shard count: the fault machinery adds no RNG
//!   draws, float operations, or event reorderings until a fault fires.
//! * **Sharding-independence under faults.** A non-trivial plan — link
//!   flaps, degradation loss, proxy crashes, digest losses, origin
//!   brownouts and blackouts, retries and failovers — produces the same
//!   report (and the same traces) at shard counts 1, 2, 4, and 8.
//!
//! Plus the satellite invariants: the MSHR conservation law
//! `origin_fetches + coalesced + failed == demand_misses` holds under
//! every fault mix; retries degrade gracefully where no-retries collapse;
//! crash recovery forces a snapshot refresh; and the capped-exponential
//! backoff schedule is deterministic, monotone, and jitter-bounded
//! (property-tested).

use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterSim, CooperativeWorkload, ProxyPolicy,
    StaticProxy, StaticWorkload, Topology, Workload,
};
use coop::{CoopConfig, DigestConfig, PlacementPolicy, RefreshStrategy};
use proptest::prelude::*;
use simcore::dist::Exponential;
use simcore::faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use simcore::trace::TraceClass;
use simcore::ObsConfig;
use workload::synth_web::SynthWebConfig;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn coop_config(n: usize, latency: f64, requests: usize) -> ClusterConfig<'static> {
    ClusterConfig {
        topology: Topology::mesh_with_latency(n, 50.0, 150.0, 45.0, latency),
        workload: Workload::Cooperative(CooperativeWorkload {
            base: AdaptiveWorkload {
                proxies: (0..n)
                    .map(|_| SynthWebConfig {
                        lambda: 12.0,
                        link_skew: 0.3,
                        ..SynthWebConfig::default()
                    })
                    .collect(),
                cache_capacity: 48,
                cache_bytes: None,
                max_candidates: 3,
                prefetch_jitter: 0.01,
                policy: ProxyPolicy::Adaptive,
                predictor: CandidateSource::Oracle,
                shared_structure_seed: Some(99),
                delayed: Default::default(),
            },
            coop: CoopConfig {
                placement: PlacementPolicy::LoadAware { divergence: 0.05, step: 4, min_vnodes: 8 },
                digest: DigestConfig { epoch: 2.0, bits_per_entry: 10, hashes: 4 },
                refresh: RefreshStrategy::Deltas,
                ..CoopConfig::default()
            },
        }),
        requests_per_proxy: requests,
        warmup_per_proxy: requests / 5,
    }
}

fn adaptive_config() -> ClusterConfig<'static> {
    ClusterConfig {
        topology: Topology::sharded_origin(4, 2, 45.0, 80.0),
        workload: Workload::Adaptive(AdaptiveWorkload {
            proxies: [8.0, 18.0, 30.0, 11.0]
                .iter()
                .map(|&lambda| SynthWebConfig {
                    lambda,
                    link_skew: 0.3,
                    ..SynthWebConfig::default()
                })
                .collect(),
            cache_capacity: 32,
            cache_bytes: None,
            max_candidates: 3,
            prefetch_jitter: 0.01,
            policy: ProxyPolicy::Adaptive,
            predictor: CandidateSource::Oracle,
            shared_structure_seed: None,
            delayed: Default::default(),
        }),
        requests_per_proxy: 1_200,
        warmup_per_proxy: 240,
    }
}

fn static_config(size: &(dyn simcore::dist::Sample + Sync)) -> ClusterConfig<'_> {
    ClusterConfig {
        topology: Topology::sharded_origin(4, 2, 25.0, 12.0),
        workload: Workload::Static(StaticWorkload {
            proxies: vec![StaticProxy { lambda: 14.0, h_prime: 0.3, n_f: 0.5, p: 0.8 }; 4],
            size_dist: size,
            catalog_items: Some(40),
        }),
        requests_per_proxy: 3_000,
        warmup_per_proxy: 600,
    }
}

/// A plan exercising every fault kind: flapping links, a degraded lossy
/// link, a proxy crash, a digest loss, and an origin brownout followed by
/// a short blackout.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            t: 4.0,
            kind: FaultKind::LinkDegrade { link: 0, loss: 0.4, latency_factor: 2.0 },
        },
        FaultEvent { t: 8.0, kind: FaultKind::LinkDown { link: 1 } },
        FaultEvent { t: 12.0, kind: FaultKind::LinkUp { link: 1 } },
        FaultEvent { t: 14.0, kind: FaultKind::OriginBrownout { delay: 0.3 } },
        FaultEvent { t: 18.0, kind: FaultKind::ProxyCrash { proxy: 1 } },
        FaultEvent { t: 22.0, kind: FaultKind::DigestLoss { proxy: 2 } },
        FaultEvent { t: 26.0, kind: FaultKind::OriginBlackout },
        FaultEvent { t: 29.0, kind: FaultKind::OriginRestore },
        FaultEvent { t: 32.0, kind: FaultKind::LinkUp { link: 0 } },
    ])
}

fn chaos_config() -> FaultConfig {
    FaultConfig { plan: chaos_plan(), retry: RetryPolicy::default() }
}

/// Empty plan, every engine, every shard count: bit-identical to the
/// unfaulted run — `assert_eq!` on the full report, no tolerance.
#[test]
fn empty_plan_is_bit_identical_to_the_unfaulted_run() {
    let size = Exponential::with_mean(1.0);
    let configs: [(&str, ClusterConfig<'_>); 3] = [
        ("coop", coop_config(4, 0.05, 800)),
        ("adaptive", adaptive_config()),
        ("static", static_config(&size)),
    ];
    let empty = FaultConfig::default();
    for (label, config) in &configs {
        let sim = ClusterSim::new(config);
        for shards in SHARD_COUNTS {
            let oracle = sim.run_sharded(17, shards);
            let faulted = sim.run_faulted(17, shards, &empty);
            assert_eq!(faulted, oracle, "{label}: empty plan at {shards} shards");
        }
    }
}

/// A non-trivial plan is bit-identical across shard counts on the
/// cooperative mesh (one shard on the calling thread, and > 1 shard on
/// threads, which the positive lookahead admits).
#[test]
fn fault_runs_are_bit_identical_across_shard_counts() {
    let config = coop_config(8, 0.05, 700);
    let fc = chaos_config();
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

/// The same contract on the other two engines (origin-only routes).
#[test]
fn fault_runs_are_shard_independent_on_every_engine() {
    let size = Exponential::with_mean(1.0);
    let fc = chaos_config();
    for (label, config) in [("adaptive", adaptive_config()), ("static", static_config(&size))] {
        let sim = ClusterSim::new(&config);
        let base = sim.run_faulted(31, 1, &fc);
        assert!(base.failed_fetches() > 0, "{label}: plan produced no failures");
        for shards in [2, 4, 8] {
            assert_eq!(sim.run_faulted(31, shards, &fc), base, "{label} at {shards} shards");
        }
    }
}

/// A boundary fault at exactly an event's instant: the event fires
/// before the boundary on every driver. The crash time and victim come
/// from a request in the recorded trace (the recorder folds the issuing
/// proxy into the client id), so the crashed proxy's own request and its
/// crash tie. On the cooperative mesh (digest refreshes on) the one-shard
/// run must match the windowed driver at 2 and 4 shards; on a
/// zero-latency `sharded_origin` topology a 2-shard cut runs as the
/// one-shard plan.
#[test]
fn crash_at_a_request_instant_is_shard_independent() {
    let crash_at_request = |config: &ClusterConfig<'_>, seed: u64| {
        let (_, trace) = ClusterSim::new(config).run_recorded(seed, 1);
        let rec = &trace[trace.len() / 2];
        let proxy = rec.client as usize % config.topology.n_proxies();
        let crash = FaultEvent { t: rec.time, kind: FaultKind::ProxyCrash { proxy } };
        (proxy, FaultConfig { plan: FaultPlan::new(vec![crash]), retry: RetryPolicy::default() })
    };

    let coop = coop_config(4, 0.05, 700);
    let (victim, fc) = crash_at_request(&coop, 59);
    let sim = ClusterSim::new(&coop);
    let base = sim.run_faulted(59, 1, &fc);
    assert!(base.nodes[victim].lost_entries > 0, "coop: crash wiped nothing");
    for shards in [2, 4] {
        assert_eq!(sim.run_faulted(59, shards, &fc), base, "coop: crash tie at {shards} shards");
    }

    let origin = adaptive_config();
    let (victim, fc) = crash_at_request(&origin, 61);
    let sim = ClusterSim::new(&origin);
    let base = sim.run_faulted(61, 1, &fc);
    assert!(base.nodes[victim].lost_entries > 0, "sharded_origin: crash wiped nothing");
    assert_eq!(sim.run_faulted(61, 2, &fc), base, "sharded_origin: crash tie at 2 shards");
}

/// Traces under faults: bit-identical stores across shard counts, every
/// trace still tiles its latency exactly (now with `Timeout`/`Backoff`
/// segments), and failed fetches surface as `TraceClass::Failed`.
#[test]
fn fault_traces_are_bit_identical_and_conservative() {
    let config = coop_config(4, 0.05, 700);
    let fc = chaos_config();
    let probes = ObsConfig::on().with_sample_every(1.0).with_trace_every(1);
    let sim = ClusterSim::new(&config);
    let (report, base) = sim.run_faulted_observed(37, 1, &fc, &probes);
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
        let (_, obs) = sim.run_faulted_observed(37, shards, &fc, &probes);
        assert_eq!(obs.traces.expect("tracing ran"), base, "trace store at {shards} shards");
    }
}

/// The MSHR conservation law survives every fault mix, on both engines
/// with a table — checked from the report in release builds (the engines
/// also debug-assert it at report time).
#[test]
fn mshr_conservation_holds_under_faults() {
    let fc = chaos_config();
    let coop = coop_config(4, 0.05, 800);
    let report = ClusterSim::new(&coop).run_faulted(41, 2, &fc);
    assert!(report.failed_fetches() > 0, "coop: plan produced no failures");
    assert!(report.mshr_conservation_ok(), "coop: conservation law violated");

    let size = Exponential::with_mean(1.0);
    let catalog = static_config(&size);
    let report = ClusterSim::new(&catalog).run_faulted(43, 2, &fc);
    assert!(report.failed_fetches() > 0, "static: plan produced no failures");
    assert!(report.mshr_conservation_ok(), "static: conservation law violated");
}

/// Retries buy graceful degradation: on a lossy mesh, the retry policy
/// keeps unavailability strictly below the no-retries collapse, at the
/// cost of a visible retry count.
#[test]
fn retries_degrade_gracefully_where_no_retries_collapse() {
    let config = coop_config(4, 0.05, 800);
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
    let config = coop_config(4, 0.05, 800);
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
