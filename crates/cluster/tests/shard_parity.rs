//! Sharded-driver determinism: `ClusterSim::run_sharded` must produce
//! **bit-identical** reports for every shard count, equal to the
//! single-threaded oracle (`ClusterSim::run`) — on the zero-latency
//! E13/E14/E16-shaped configurations (where the conservative lookahead is
//! zero, so the cut runs as the one-shard plan and these cases compare a
//! one-shard run with itself) *and* on latency-bearing meshes (where the
//! shards run real conservative windows on their own threads).
//!
//! Bit-identity is asserted through `ClusterReport`'s derived
//! `PartialEq` — every float compared exactly, not to a tolerance: the
//! sharding must not even perturb floating-point accumulation order.

use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterSim, CooperativeWorkload, Discipline,
    ProxyPolicy, ShardPlan, StaticProxy, StaticWorkload, Topology, Workload,
};
use coop::{CoopConfig, DigestConfig, PlacementPolicy, RefreshStrategy};
use simcore::dist::Exponential;
use simcore::faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use simcore::ObsConfig;
use workload::synth_web::SynthWebConfig;

const SHARD_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

fn assert_shard_counts_agree(config: &ClusterConfig<'_>, seed: u64, label: &str) {
    let oracle = ClusterSim::new(config).run(seed);
    for shards in SHARD_COUNTS {
        let sharded = ClusterSim::new(config).run_sharded(seed, shards);
        assert_eq!(
            sharded, oracle,
            "{label}: report at {shards} shards differs from the single-threaded oracle"
        );
    }
}

/// The E13-shaped adaptive deployment: heterogeneous local load over a
/// sharded origin, oracle candidates, jittered prefetch pacing.
fn e13_adaptive_config() -> ClusterConfig<'static> {
    ClusterConfig {
        topology: Topology::sharded_origin(6, 2, 45.0, 80.0),
        workload: Workload::Adaptive(AdaptiveWorkload {
            proxies: [8.0, 18.0, 30.0, 11.0, 22.0, 14.0]
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
        requests_per_proxy: 3_000,
        warmup_per_proxy: 600,
    }
}

/// The E14-shaped cooperative deployment: peer mesh, identical item
/// universes, short digest epoch, load-aware placement.
fn e14_coop_config(latency: f64, refresh: RefreshStrategy) -> ClusterConfig<'static> {
    let topology = if latency > 0.0 {
        Topology::mesh_with_latency(6, 50.0, 150.0, 45.0, latency)
    } else {
        Topology::mesh(6, 50.0, 150.0, 45.0)
    };
    ClusterConfig {
        topology,
        workload: Workload::Cooperative(CooperativeWorkload {
            base: AdaptiveWorkload {
                proxies: (0..6)
                    .map(|_| SynthWebConfig {
                        lambda: 14.0,
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
                refresh,
                ..CoopConfig::default()
            },
        }),
        requests_per_proxy: 2_500,
        warmup_per_proxy: 500,
    }
}

/// The E16-shaped deployment: byte-addressed caches under a heavy Pareto
/// size tail, delta digest exchange.
fn e16_bytes_config() -> ClusterConfig<'static> {
    let mut config = e14_coop_config(0.0, RefreshStrategy::Deltas);
    let Workload::Cooperative(w) = &mut config.workload else { unreachable!() };
    for p in &mut w.base.proxies {
        p.size_shape = 1.6;
    }
    w.base.cache_capacity = 192;
    w.base.cache_bytes = Some(160.0);
    w.coop.digest.epoch = 1.0;
    config
}

#[test]
fn adaptive_sharding_is_invisible() {
    assert_shard_counts_agree(&e13_adaptive_config(), 13, "e13 adaptive");
}

#[test]
fn cooperative_sharding_is_invisible() {
    assert_shard_counts_agree(&e14_coop_config(0.0, RefreshStrategy::Deltas), 14, "e14 coop");
}

#[test]
fn byte_cache_sharding_is_invisible() {
    assert_shard_counts_agree(&e16_bytes_config(), 16, "e16 bytes");
}

#[test]
fn static_sharding_is_invisible() {
    let size = Exponential::with_mean(1.0);
    let config = ClusterConfig {
        topology: Topology::sharded_origin(5, 2, 25.0, 30.0),
        workload: Workload::Static(StaticWorkload {
            proxies: vec![StaticProxy { lambda: 10.0, h_prime: 0.3, n_f: 0.5, p: 0.8 }; 5],
            size_dist: &size,
            catalog_items: None,
        }),
        requests_per_proxy: 8_000,
        warmup_per_proxy: 1_600,
    };
    assert_shard_counts_agree(&config, 29, "static");
}

/// The windowed multi-threaded path: a latency mesh gives the partition a
/// positive lookahead, so shard counts > 1 actually run concurrent
/// conservative windows — and must still match the sequential oracle
/// bit-for-bit, across refresh strategies (the boundary is the one global
/// synchronisation point).
#[test]
fn windowed_execution_matches_the_oracle() {
    for refresh in [RefreshStrategy::Deltas, RefreshStrategy::Auto] {
        let config = e14_coop_config(0.05, refresh);
        let plan = ShardPlan::partition(&config.topology, 4);
        assert!(
            plan.lookahead() > 0.0,
            "latency mesh must admit a positive lookahead, got {}",
            plan.lookahead()
        );
        assert_shard_counts_agree(&config, 21, &format!("latency mesh {refresh:?}"));
    }
}

/// A custom six-proxy peer ring with two link latencies (tree links 0.04,
/// ring segments 0.015). Peer routes take the shorter arc, one to three
/// hops. The opposite pair `(0, 3)` is first set the long way round and
/// then replaced, and most routes arrive out of slot order, so the
/// builder's replacement and compaction paths both run.
fn latency_ring() -> Topology {
    const PS: Discipline = Discipline::ProcessorSharing;
    let n = 6;
    let mut b = Topology::builder(n, 1);
    let backbone = b.add_link_latency("backbone", 150.0, 0.04, PS);
    for p in 0..n {
        let access = b.add_link_latency(format!("access[{p}]"), 50.0, 0.04, PS);
        b.route(p, 0, &[access, backbone]);
    }
    // Segment `i` joins proxies `i` and `(i + 1) mod n`.
    let ring: Vec<usize> =
        (0..n).map(|i| b.add_link_latency(format!("ring[{i}]"), 45.0, 0.015, PS)).collect();
    b.peer_route(0, 3, &[ring[5], ring[4], ring[3]]);
    for p in 0..n {
        for q in (0..n).filter(|&q| q != p) {
            let cw = (q + n - p) % n;
            let path: Vec<usize> = if cw <= n - cw {
                (0..cw).map(|i| ring[(p + i) % n]).collect()
            } else {
                (1..=n - cw).map(|i| ring[(p + n - i) % n]).collect()
            };
            b.peer_route(p, q, &path);
        }
    }
    b.build()
}

/// Multi-hop peer transfers on threads: on the latency ring every shard
/// count runs real windows, peer routes forward hop by hop across shard
/// boundaries, and the cooperative report must still equal the
/// single-threaded oracle bit for bit, with and without an empty fault
/// plan.
#[test]
fn multi_hop_peer_routes_are_shard_independent() {
    let mut config = e14_coop_config(0.0, RefreshStrategy::Deltas);
    config.topology = latency_ring();
    let topology = &config.topology;
    // Links: backbone 0, access 1..=6, ring segments 7..=12.
    assert_eq!(topology.peer_route(0, 3), &[7, 8, 9], "the replaced route is the clockwise arc");
    assert_eq!(topology.peer_route(5, 1), &[12, 7]);
    assert_eq!(topology.peer_route(2, 1), &[8]);
    for shards in [2, 3] {
        let plan = ShardPlan::partition(topology, shards);
        assert_eq!(plan.lookahead(), 0.015, "{shards} shards: a ring segment is the floor");
    }
    let sim = ClusterSim::new(&config);
    let oracle = sim.run(31);
    let coop = oracle.coop.as_ref().expect("a cooperative report");
    assert!(coop.peer_fetches > 0, "no peer transfer ran");
    for i in 0..6 {
        assert!(oracle.link_bytes(&format!("ring[{i}]")) > 0.0, "ring[{i}] carried nothing");
    }
    for shards in [1, 2, 3] {
        assert_eq!(sim.run_sharded(31, shards), oracle, "{shards} shards");
        let faulted = sim.run_faulted(31, shards, &FaultConfig::default());
        assert_eq!(faulted, oracle, "{shards} shards, empty fault plan");
    }
    let (report, obs) = sim.run_observed(31, 3, &ObsConfig::on());
    assert_eq!(report, oracle);
    assert_eq!((obs.driver, obs.profiles.len()), ("windowed", 3), "three shards on threads");
}

/// The E13 proxies behind FIFO access links (45 units/s, latency 0.04)
/// feeding one processor-sharing backbone (150 units/s, latency 0.04).
fn fifo_access_tree() -> Topology {
    let n = 6;
    let mut b = Topology::builder(n, 1);
    let backbone = b.add_link_latency("backbone", 150.0, 0.04, Discipline::ProcessorSharing);
    for p in 0..n {
        let access = b.add_link_latency(format!("access[{p}]"), 45.0, 0.04, Discipline::Fifo);
        b.route(p, 0, &[access, backbone]);
    }
    b.build()
}

/// FIFO links on threads: the report is identical at one, two and three
/// shards, the multi-shard runs cross scopes on threads, and every link
/// obeys the work law `utilisation · duration · bandwidth = bytes carried`
/// — a FIFO server that loses busy time to a queued arrival breaks it on
/// the busier access links.
#[test]
fn fifo_access_links_are_shard_independent_and_conserve_work() {
    let mut config = e13_adaptive_config();
    config.topology = fifo_access_tree();
    let sim = ClusterSim::new(&config);
    let oracle = sim.run(41);
    for shards in [2, 3] {
        assert!(ShardPlan::partition(&config.topology, shards).lookahead() > 0.0);
        let (report, obs) = sim.run_observed(41, shards, &ObsConfig::on());
        assert_eq!(report, oracle, "{shards} shards");
        assert_eq!((obs.driver, obs.profiles.len()), ("windowed", shards), "{shards} on threads");
    }
    for (spec, link) in config.topology.links().iter().zip(&oracle.links) {
        assert!(link.jobs_completed > 0, "{} carried nothing", link.name);
        let work = link.utilisation * oracle.duration * spec.bandwidth;
        let err = (work - link.bytes_carried).abs() / link.bytes_carried;
        assert!(err < 1e-6, "{}: busy work {work} vs {} carried", link.name, link.bytes_carried);
    }
}

/// Same windowed run, repeated: thread scheduling must not leak into the
/// report at all.
#[test]
fn windowed_execution_is_stable_across_repeats() {
    let config = e14_coop_config(0.05, RefreshStrategy::Deltas);
    let first = ClusterSim::new(&config).run_sharded(7, 8);
    for _ in 0..2 {
        assert_eq!(ClusterSim::new(&config).run_sharded(7, 8), first);
    }
}

/// The open loop with a catalog (MSHR on) on a latency mesh: its
/// multi-shard runs cross scopes on threads, under an empty fault plan
/// and under a crash + degrade + brownout plan. The same workload on a
/// zero-latency cut runs as one shard, and its telemetry keeps the
/// requested shard count.
#[test]
fn static_catalog_on_a_latency_mesh_is_shard_independent() {
    let size = Exponential::with_mean(1.0);
    let config = |topology| ClusterConfig {
        topology,
        workload: Workload::Static(StaticWorkload {
            proxies: vec![StaticProxy { lambda: 14.0, h_prime: 0.3, n_f: 0.5, p: 0.8 }; 4],
            size_dist: &size,
            catalog_items: Some(40),
        }),
        requests_per_proxy: 3_000,
        warmup_per_proxy: 600,
    };
    let mesh = config(Topology::mesh_with_latency(4, 50.0, 150.0, 45.0, 0.05));
    assert!(ShardPlan::partition(&mesh.topology, 2).lookahead() > 0.0);
    let chaos = FaultConfig {
        plan: FaultPlan::new(vec![
            FaultEvent {
                t: 4.0,
                kind: FaultKind::LinkDegrade { link: 0, loss: 0.3, latency_factor: 2.0 },
            },
            FaultEvent { t: 10.0, kind: FaultKind::OriginBrownout { delay: 0.3 } },
            FaultEvent { t: 18.0, kind: FaultKind::ProxyCrash { proxy: 1 } },
        ]),
        retry: RetryPolicy::default(),
    };
    let sim = ClusterSim::new(&mesh);
    let unfaulted = sim.run(37);
    assert!(unfaulted.coalesced_requests() > 0, "the catalog no longer coalesces");
    for (label, faults) in [("empty plan", FaultConfig::default()), ("chaos plan", chaos)] {
        let base = sim.run_faulted(37, 1, &faults);
        if label == "empty plan" {
            assert_eq!(base, unfaulted, "the empty plan perturbed the run");
        } else {
            assert!(base.failed_fetches() > 0 && base.retries() > 0, "the plan does not bite");
        }
        for shards in [2, 4] {
            assert_eq!(sim.run_faulted(37, shards, &faults), base, "{label} at {shards} shards");
        }
    }

    let flat = config(Topology::sharded_origin(4, 2, 25.0, 12.0));
    let (report, obs) = ClusterSim::new(&flat).run_observed(37, 4, &ObsConfig::on());
    assert_eq!(report, ClusterSim::new(&flat).run(37));
    assert_eq!(obs.profiles.len(), 1, "a zero-lookahead cut runs as one shard");
    assert_eq!((obs.driver, obs.shards), ("sequential", 4));
}

/// The partitioner itself: balanced contiguous blocks, every entity
/// owned, lookahead reflects the topology's latency floor.
#[test]
fn shard_plan_covers_the_topology() {
    let topology = Topology::mesh_with_latency(10, 50.0, 200.0, 45.0, 0.02);
    let plan = ShardPlan::partition(&topology, 4);
    assert_eq!(plan.n_shards(), 4);
    let mut per_shard = [0usize; 4];
    for p in 0..10 {
        per_shard[plan.proxy_shard(p)] += 1;
    }
    assert_eq!(per_shard.iter().sum::<usize>(), 10);
    assert!(per_shard.iter().all(|&c| c == 2 || c == 3), "balanced blocks: {per_shard:?}");
    // Private access links live with their proxy.
    for p in 0..10 {
        let access = topology.route(p, 0)[0];
        assert_eq!(plan.link_shard(access), plan.proxy_shard(p), "access[{p}] follows its proxy");
    }
    // Uniform latency 0.02 ⇒ every crossing handoff costs ≥ 0.02.
    assert_eq!(plan.lookahead(), 0.02);
    assert!(plan.edge_cut(&topology) > 0, "a 4-way mesh cut crosses peer links");

    // Zero-latency meshes admit no window at all.
    let flat = Topology::mesh(10, 50.0, 200.0, 45.0);
    assert_eq!(ShardPlan::partition(&flat, 4).lookahead(), 0.0);
    // One shard crosses nothing.
    assert_eq!(ShardPlan::partition(&flat, 1).lookahead(), f64::INFINITY);
}
