//! The parity matrix: the cluster's report is **bit-identical** at every
//! shard count and with every probe or empty fault plan on or off.
//!
//! Three axes. Rows are the workload families of `common` (one test per
//! row), each on a topology whose every crossing hop has latency, so
//! each multi-shard run crosses shard boundaries on threads. Shard
//! counts are `SHARD_COUNTS`. Options are the `ClusterSim::run_*` entry
//! points: plain, obs, obs with tracing, recording, an empty fault plan,
//! a real fault plan, and a real fault plan with obs. At every shard
//! count each option's report equals the plain one; the real-fault run
//! is compared with itself across shard counts instead. Across shard
//! counts the plain report, the integral obs counters, the trace store
//! and the recorded request trace all equal the one-shard ones.
//!
//! The entry points cannot express recording under faults or obs, nor a
//! replay's statistics under faults or obs (`run_recorded` and
//! `run_replayed` take neither), so those combinations are not run.
//!
//! Bit-identity is asserted through `ClusterReport`'s derived
//! `PartialEq`: every float compared exactly, not to a tolerance, so the
//! sharding must not even perturb floating-point accumulation order.

mod common;

use cluster::{
    ClusterConfig, ClusterObs, ClusterReport, ClusterSim, DelayedHitsConfig, RankingMode,
    ShardPlan, Topology,
};
use common::{
    adaptive, byte_budget, chaos, coop, fifo_access_tree, flat, mshr, peer_ring, probes,
    static_catalog, static_itemless, trace_replay, traced, SHARD_COUNTS,
};
use coop::RefreshStrategy;
use simcore::faults::FaultConfig;
use simcore::trace::TraceStore;
use simcore::ObsConfig;
use workload::TraceRecord;

/// What one row yields at one shard count and the matrix compares across
/// shard counts.
struct Cell {
    plain: ClusterReport,
    obs: ClusterObs,
    store: TraceStore,
    records: Vec<TraceRecord>,
    faulted: ClusterReport,
}

/// Runs every option at `shards` shards; each option's report must equal
/// the plain one.
fn run_cell(sim: &ClusterSim<'_>, seed: u64, shards: usize) -> Cell {
    let chaos = chaos();
    let plain = sim.run_sharded(seed, shards);
    let (observed, obs) = sim.run_observed(seed, shards, &probes());
    let (traced_report, traced_obs) = sim.run_observed(seed, shards, &traced(1));
    let (recorded, records) = sim.run_recorded(seed, shards);
    let faulted = sim.run_faulted(seed, shards, &chaos);
    let (faulted_observed, _) = sim.run_faulted_observed(seed, shards, &chaos, &probes());
    for (option, report) in [
        ("obs", observed),
        ("obs with tracing", traced_report),
        ("recording", recorded),
        ("an empty fault plan", sim.run_faulted(seed, shards, &FaultConfig::default())),
    ] {
        assert_eq!(report, plain, "{shards} shards: {option} vs plain");
    }
    assert_eq!(faulted_observed, faulted, "{shards} shards: the fault plan with obs");
    let driver = if shards > 1 { "windowed" } else { "sequential" };
    assert_eq!((obs.shards, obs.driver, obs.profiles.len()), (shards, driver, shards));
    let store = traced_obs.traces.expect("tracing ran");
    assert!(!store.traces.is_empty() && store.every == 1, "{shards} shards: trace store");
    Cell { plain, obs, store, records, faulted }
}

/// Runs one row through the matrix and returns its plain one-shard
/// report.
fn assert_matrix(config: &ClusterConfig<'_>, seed: u64) -> ClusterReport {
    let sim = ClusterSim::new(config);
    let one = run_cell(&sim, seed, 1);
    let bites = one.faulted.failed_fetches() > 0 && one.faulted.retries() > 0;
    assert!(bites, "the fault plan does not bite");
    for shards in SHARD_COUNTS.into_iter().filter(|&k| k > 1) {
        let lookahead = ShardPlan::partition(&config.topology, shards).lookahead();
        assert!(lookahead > 0.0, "{shards} shards would not run on threads");
        let cell = run_cell(&sim, seed, shards);
        assert_eq!(cell.plain, one.plain, "{shards} shards vs 1 shard");
        let counters: Vec<_> = cell.obs.registry.counters().collect();
        assert_eq!(counters, one.obs.registry.counters().collect::<Vec<_>>(), "{shards} shards");
        assert_eq!(cell.store, one.store, "trace store at {shards} shards vs 1 shard");
        assert_eq!(cell.records, one.records, "recorded trace at {shards} shards vs 1 shard");
        assert_eq!(cell.faulted, one.faulted, "fault plan at {shards} shards vs 1 shard");
    }
    one.plain
}

#[test]
fn static_sharding_is_invisible() {
    assert_matrix(&static_itemless(4, 1_000), 29);
}

/// The open loop with MSHR on: the catalog coalesces requests into
/// delayed hits.
#[test]
fn static_catalog_on_a_latency_mesh_is_shard_independent() {
    let report = assert_matrix(&static_catalog(4, 1_200), 37);
    assert!(report.delayed_hits() > 0, "a 40-item catalog must settle some delayed hits");
    assert!(
        report.coalesced_requests() > 0 && report.origin_fetches() > 0,
        "catalog mode must populate the MSHR aggregates"
    );
}

#[test]
fn adaptive_sharding_is_invisible() {
    assert_matrix(&adaptive(4, 800), 13);
}

/// Byte-addressed caches, with the `Auto` refresh strategy.
#[test]
fn byte_cache_sharding_is_invisible() {
    assert_matrix(&byte_budget(4, 1_000, RefreshStrategy::Auto), 16);
}

/// Cooperative caching with delta digests.
#[test]
fn cooperative_sharding_is_invisible() {
    assert_matrix(&coop(4, 1_000, RefreshStrategy::Deltas), 14);
}

/// Cooperative caching with full digest rebuilds: each digest boundary is
/// the one global synchronisation point of the windows.
#[test]
fn windowed_execution_matches_the_oracle() {
    assert_matrix(&coop(4, 1_000, RefreshStrategy::FullRebuild), 21);
}

/// Multi-hop peer transfers: peer routes forward hop by hop across shard
/// boundaries on the latency ring.
#[test]
fn multi_hop_peer_routes_are_shard_independent() {
    let config = peer_ring(500);
    let topology = &config.topology;
    // Links: backbone 0, access 1..=6, ring segments 7..=12.
    assert_eq!(topology.peer_route(0, 3), &[7, 8, 9], "the replaced route is the clockwise arc");
    assert_eq!(topology.peer_route(5, 1), &[12, 7]);
    assert_eq!(topology.peer_route(2, 1), &[8]);
    for shards in [2, 3, 4] {
        let plan = ShardPlan::partition(topology, shards);
        assert_eq!(plan.lookahead(), 0.015, "{shards} shards: a ring segment is the floor");
    }
    let report = assert_matrix(&config, 31);
    assert!(report.coop.as_ref().expect("a cooperative report").peer_fetches > 0);
    for i in 0..6 {
        assert!(report.link_bytes(&format!("ring[{i}]")) > 0.0, "ring[{i}] carried nothing");
    }
}

/// FIFO links: every link obeys the work law `utilisation · duration ·
/// bandwidth = bytes carried` — a FIFO server that loses busy time to a
/// queued arrival breaks it on the busier access links.
#[test]
fn fifo_access_links_are_shard_independent_and_conserve_work() {
    let config = fifo_access_tree(600);
    let report = assert_matrix(&config, 41);
    for (spec, link) in config.topology.links().iter().zip(&report.links) {
        assert!(link.jobs_completed > 0, "{} carried nothing", link.name);
        let work = link.utilisation * report.duration * spec.bandwidth;
        let err = (work - link.bytes_carried).abs() / link.bytes_carried;
        assert!(err < 1e-6, "{}: busy work {work} vs {} carried", link.name, link.bytes_carried);
    }
}

#[test]
fn trace_replay_sharding_is_invisible() {
    let (config, _) = trace_replay(4, 1_000, 11);
    assert_matrix(&config, 11);
}

/// The MSHR rows: at backbone latencies the coalescing table settles some
/// requests as delayed hits.
#[test]
fn coalescing_sharding_is_invisible() {
    let report = assert_matrix(&mshr(DelayedHitsConfig::default(), 1_000), 20);
    assert!(report.delayed_hits() > 0, "the high-latency cell must settle some delayed hits");
}

#[test]
fn independent_sharding_is_invisible() {
    let config = mshr(DelayedHitsConfig { coalesce: false, ..Default::default() }, 1_000);
    let report = assert_matrix(&config, 20);
    assert_eq!(report.delayed_hits(), 0, "independent mode must never coalesce");
}

#[test]
fn budgeted_sharding_is_invisible() {
    let config = mshr(DelayedHitsConfig { mshr_entries: Some(4), ..Default::default() }, 1_000);
    let report = assert_matrix(&config, 20);
    let rejections: u64 = report.nodes.iter().filter_map(|n| n.mshr_rejections).sum();
    assert!(rejections > 0, "a 4-entry budget at this load must refuse some allocations");
}

#[test]
fn ranked_sharding_is_invisible() {
    let ranked = DelayedHitsConfig { ranking: RankingMode::AggregateDelay, ..Default::default() };
    assert_matrix(&mshr(ranked, 1_000), 20);
}

#[test]
fn size_aware_sharding_is_invisible() {
    let config = mshr(DelayedHitsConfig { size_aware: true, ..Default::default() }, 1_000);
    assert_matrix(&config, 20);
}

/// The one zero-latency row. A multi-shard cut with zero lookahead admits
/// no window, so it runs as the one-shard plan: the same report, one
/// shard profile, driver `"sequential"`, while telemetry keeps the
/// requested shard count clamped to the proxies, with obs on or off.
#[test]
fn a_zero_latency_cut_runs_as_one_shard() {
    let config = flat(static_catalog(4, 1_200));
    let sim = ClusterSim::new(&config);
    let one = sim.run(37);
    for shards in [2, 3, 4, 8] {
        assert_eq!(ShardPlan::partition(&config.topology, shards).lookahead(), 0.0);
        let (report, obs) = sim.run_observed(37, shards, &probes());
        assert_eq!(report, one, "{shards} shards");
        let expect = ("sequential", shards.min(4));
        assert_eq!(((obs.driver, obs.shards), obs.profiles.len()), (expect, 1), "{shards} shards");
        let (_, shell) = sim.run_observed(37, shards, &ObsConfig::off());
        assert_eq!((shell.driver, shell.shards), expect, "{shards} shards, obs off");
    }
}

/// One proxy per shard (eight requested, clamped to six), repeated:
/// thread scheduling must not leak into the report at all.
#[test]
fn windowed_execution_is_stable_across_repeats() {
    let config = coop(6, 2_500, RefreshStrategy::Deltas);
    let one = ClusterSim::new(&config).run(7);
    for _ in 0..2 {
        assert_eq!(ClusterSim::new(&config).run_sharded(7, 8), one);
    }
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
    let zero = Topology::mesh(10, 50.0, 200.0, 45.0);
    assert_eq!(ShardPlan::partition(&zero, 4).lookahead(), 0.0);
    // One shard crosses nothing.
    assert_eq!(ShardPlan::partition(&zero, 1).lookahead(), f64::INFINITY);
}
