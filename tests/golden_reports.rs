//! Golden reports: five small cluster runs whose full
//! `cluster::report_to_json` renderings are committed under
//! `tests/golden/` and diffed with the regression sentinel's bands
//! (integral values exact, every other float to 1e-9 relative).
//!
//! The parity suites pin drivers against each other — sharded against
//! one shard, observed against unobserved, the legacy scan against the
//! shard driver — but every one of those drivers runs the same engine
//! handlers, so a change that moves all of them together is invisible to
//! parity. These fixtures pin the absolute behaviour of each engine mode
//! instead: the open loop with and without a catalog (the latter under
//! faults), the adaptive closed loop, the cooperative latency mesh on the
//! windowed driver under faults, and trace replay.
//!
//! Regenerate only for an intended behaviour change, then review the diff:
//!
//! ```sh
//! cargo test --test golden_reports -- --ignored
//! ```

use speculative_prefetch::cluster::{
    report_to_json, AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterSim,
    CooperativeWorkload, DelayedHitsConfig, ProxyPolicy, RankingMode, StaticProxy, StaticWorkload,
    Topology, TraceSource, TraceWorkload, Workload,
};
use speculative_prefetch::coop::{CoopConfig, DigestConfig, PlacementPolicy, RefreshStrategy};
use speculative_prefetch::harness::sentinel::{compare, DEFAULT_REL_TOL};
use speculative_prefetch::simcore::dist::Exponential;
use speculative_prefetch::simcore::faults::{
    FaultConfig, FaultEvent, FaultKind, FaultPlan, RetryPolicy,
};
use speculative_prefetch::simcore::Json;
use speculative_prefetch::workload::synth_web::SynthWebConfig;
use std::path::PathBuf;

/// Open loop, itemless (the `netsim::parametric` mechanism) over a
/// sharded origin: Bernoulli hits, Poissonised prefetches, shard draws.
fn static_itemless() -> Json {
    let size = Exponential::with_mean(1.0);
    let config = ClusterConfig {
        topology: Topology::sharded_origin(3, 2, 30.0, 16.0),
        workload: Workload::Static(StaticWorkload {
            proxies: [9.0, 14.0, 6.0]
                .iter()
                .map(|&lambda| StaticProxy { lambda, h_prime: 0.3, n_f: 0.8, p: 0.7 })
                .collect(),
            size_dist: &size,
            catalog_items: None,
        }),
        requests_per_proxy: 2_000,
        warmup_per_proxy: 400,
    };
    report_to_json(&ClusterSim::new(&config).run(5))
}

/// Open loop in catalog mode (MSHR coalescing) under a plan that degrades
/// and drops links, crashes a proxy, and browns out then blacks out the
/// origin — timeouts, retries, failed fetches, and a crash drain.
fn static_catalog_faulted() -> Json {
    let size = Exponential::with_mean(1.0);
    let config = ClusterConfig {
        topology: Topology::sharded_origin(4, 2, 25.0, 12.0),
        workload: Workload::Static(StaticWorkload {
            proxies: vec![StaticProxy { lambda: 14.0, h_prime: 0.3, n_f: 0.5, p: 0.8 }; 4],
            size_dist: &size,
            catalog_items: Some(40),
        }),
        requests_per_proxy: 1_500,
        warmup_per_proxy: 300,
    };
    let faults = FaultConfig {
        plan: FaultPlan::new(vec![
            FaultEvent {
                t: 4.0,
                kind: FaultKind::LinkDegrade { link: 0, loss: 0.4, latency_factor: 2.0 },
            },
            FaultEvent { t: 8.0, kind: FaultKind::LinkDown { link: 3 } },
            FaultEvent { t: 12.0, kind: FaultKind::LinkUp { link: 3 } },
            FaultEvent { t: 14.0, kind: FaultKind::OriginBrownout { delay: 0.3 } },
            FaultEvent { t: 18.0, kind: FaultKind::ProxyCrash { proxy: 1 } },
            FaultEvent { t: 26.0, kind: FaultKind::OriginBlackout },
            FaultEvent { t: 29.0, kind: FaultKind::OriginRestore },
            FaultEvent { t: 32.0, kind: FaultKind::LinkUp { link: 0 } },
        ]),
        retry: RetryPolicy::default(),
    };
    report_to_json(&ClusterSim::new(&config).run_faulted(7, 2, &faults))
}

/// Adaptive closed loop: oracle candidates, aggregate-delay ranking,
/// size-aware thresholds, and a bounded MSHR table (bypassed fetches).
fn adaptive() -> Json {
    let config = ClusterConfig {
        topology: Topology::sharded_origin(3, 2, 45.0, 80.0),
        workload: Workload::Adaptive(AdaptiveWorkload {
            proxies: [10.0, 22.0, 15.0]
                .iter()
                .map(|&lambda| SynthWebConfig {
                    lambda,
                    link_skew: 0.3,
                    ..SynthWebConfig::default()
                })
                .collect(),
            cache_capacity: 24,
            cache_bytes: None,
            max_candidates: 3,
            prefetch_jitter: 0.01,
            policy: ProxyPolicy::Adaptive,
            predictor: CandidateSource::Oracle,
            shared_structure_seed: None,
            delayed: DelayedHitsConfig {
                mshr_entries: Some(6),
                coalesce: true,
                ranking: RankingMode::AggregateDelay,
                size_aware: true,
            },
        }),
        requests_per_proxy: 800,
        warmup_per_proxy: 160,
    };
    report_to_json(&ClusterSim::new(&config).run(11))
}

/// Cooperative latency mesh on the windowed driver at two shards, under
/// a plan that darkens a peer link (failovers), crashes a proxy, loses a
/// digest, and browns out the origin.
fn coop_mesh_2shards() -> Json {
    let n = 4;
    let config = ClusterConfig {
        topology: Topology::mesh_with_latency(n, 50.0, 150.0, 45.0, 0.02),
        workload: Workload::Cooperative(CooperativeWorkload {
            base: AdaptiveWorkload {
                proxies: (0..n)
                    .map(|_| SynthWebConfig {
                        lambda: 12.0,
                        link_skew: 0.3,
                        ..SynthWebConfig::default()
                    })
                    .collect(),
                cache_capacity: 40,
                cache_bytes: None,
                max_candidates: 3,
                prefetch_jitter: 0.01,
                policy: ProxyPolicy::Adaptive,
                predictor: CandidateSource::Oracle,
                shared_structure_seed: Some(99),
                delayed: DelayedHitsConfig::default(),
            },
            coop: CoopConfig {
                placement: PlacementPolicy::LoadAware { divergence: 0.05, step: 4, min_vnodes: 8 },
                digest: DigestConfig { epoch: 2.0, bits_per_entry: 10, hashes: 4 },
                refresh: RefreshStrategy::Auto,
                ..CoopConfig::default()
            },
        }),
        requests_per_proxy: 500,
        warmup_per_proxy: 100,
    };
    // Link 5 is the peer link between proxies 0 and 1.
    let faults = FaultConfig {
        plan: FaultPlan::new(vec![
            FaultEvent { t: 3.0, kind: FaultKind::LinkDown { link: 5 } },
            FaultEvent {
                t: 4.0,
                kind: FaultKind::LinkDegrade { link: 0, loss: 0.3, latency_factor: 1.5 },
            },
            FaultEvent { t: 6.0, kind: FaultKind::ProxyCrash { proxy: 2 } },
            FaultEvent { t: 9.0, kind: FaultKind::LinkUp { link: 5 } },
            FaultEvent { t: 10.0, kind: FaultKind::DigestLoss { proxy: 1 } },
            FaultEvent { t: 12.0, kind: FaultKind::OriginBrownout { delay: 0.2 } },
            FaultEvent { t: 16.0, kind: FaultKind::OriginRestore },
            FaultEvent { t: 18.0, kind: FaultKind::LinkUp { link: 0 } },
        ]),
        retry: RetryPolicy::default(),
    };
    report_to_json(&ClusterSim::new(&config).run_faulted(13, 2, &faults))
}

/// Trace replay: a Markov-predictor adaptive run is recorded, and the
/// recording replayed at two shards through `Workload::Trace`.
fn trace_replay() -> Json {
    let n = 3;
    let base = AdaptiveWorkload {
        proxies: (0..n)
            .map(|i| SynthWebConfig {
                lambda: 16.0 + 4.0 * i as f64,
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
    };
    let topology = Topology::mesh_with_latency(n, 60.0, 60.0, 45.0, 0.05);
    let (requests, warmup) = (700, 140);
    let source = ClusterConfig {
        topology: topology.clone(),
        workload: Workload::Adaptive(base.clone()),
        requests_per_proxy: requests,
        warmup_per_proxy: warmup,
    };
    let (_, trace) = ClusterSim::new(&source).run_recorded(17, 1);
    let replay = ClusterConfig {
        topology,
        workload: Workload::Trace(TraceWorkload::replaying(
            &base,
            TraceSource::from_records(&trace).expect("recorded trace encodes"),
        )),
        requests_per_proxy: requests,
        warmup_per_proxy: warmup,
    };
    report_to_json(&ClusterSim::new(&replay).run_sharded(17, 2))
}

/// A fixture name and the run that renders it.
type Case = (&'static str, fn() -> Json);

const CASES: [Case; 5] = [
    ("static_itemless", static_itemless),
    ("static_catalog_faulted", static_catalog_faulted),
    ("adaptive", adaptive),
    ("coop_mesh_2shards", coop_mesh_2shards),
    ("trace_replay", trace_replay),
];

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.json"))
}

/// Diffs one case against its committed fixture.
fn check(name: &str) {
    let (_, run) = CASES.iter().find(|(n, _)| *n == name).expect("known case");
    let path = fixture(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (regenerate with --ignored)", path.display()));
    let golden = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let drifts = compare(&golden, &run(), DEFAULT_REL_TOL);
    let listing: Vec<String> = drifts.iter().map(ToString::to_string).collect();
    assert!(listing.is_empty(), "{name} drifted from its golden report:\n{}", listing.join("\n"));
}

#[test]
fn static_itemless_matches_golden() {
    check("static_itemless");
}

#[test]
fn static_catalog_faulted_matches_golden() {
    check("static_catalog_faulted");
}

#[test]
fn adaptive_matches_golden() {
    check("adaptive");
}

#[test]
fn coop_mesh_2shards_matches_golden() {
    check("coop_mesh_2shards");
}

#[test]
fn trace_replay_matches_golden() {
    check("trace_replay");
}

/// Rewrites every fixture from the current code.
#[test]
#[ignore = "rewrites the committed fixtures; run only for an intended behaviour change"]
fn regenerate_golden_fixtures() {
    std::fs::create_dir_all(fixture("x").parent().expect("fixture dir")).expect("create dir");
    for (name, run) in CASES {
        std::fs::write(fixture(name), run().render() + "\n").expect("write fixture");
    }
}
