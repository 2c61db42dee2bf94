//! Configs and probe settings shared by the cluster suites: one builder
//! per workload family, sized by its caller. Every builder puts a
//! propagation latency on every link, so every multi-shard cut of its
//! topology has a positive lookahead and runs its shards on threads;
//! [`flat`] strips it again for the checks that need a zero-latency
//! topology (the legacy scan driver, and the one row that pins the
//! one-shard collapse).

// Each test binary compiles this module and uses a different subset.
#![allow(dead_code)]

use std::sync::LazyLock;

use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterReport, ClusterSim,
    CooperativeWorkload, DelayedHitsConfig, Discipline, ProxyPolicy, StaticProxy, StaticWorkload,
    Topology, TraceSource, TraceWorkload, Workload,
};
use coop::{CoopConfig, DigestConfig, PlacementPolicy, RefreshStrategy};
use simcore::dist::Exponential;
use simcore::faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use simcore::ObsConfig;
use workload::synth_web::SynthWebConfig;
use workload::TraceRecord;

/// The shard counts of the parity matrix.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 4];

/// Propagation latency of every link a builder makes.
const LATENCY: f64 = 0.05;

/// Object sizes of the open-loop workloads.
static SIZE: LazyLock<Exponential> = LazyLock::new(|| Exponential::with_mean(1.0));

/// `topology` with every link's latency set to `latency`; names,
/// bandwidths, disciplines and routes unchanged.
fn with_latency(topology: &Topology, latency: f64) -> Topology {
    let n = topology.n_proxies();
    let mut b = Topology::builder(n, topology.n_shards());
    for link in topology.links() {
        b.add_link_latency(link.name.clone(), link.bandwidth, latency, link.discipline);
    }
    for p in 0..n {
        for s in 0..topology.n_shards() {
            b.route(p, s, topology.route(p, s));
        }
        for q in (0..n).filter(|&q| topology.has_peer_path(p, q)) {
            b.peer_route(p, q, topology.peer_route(p, q));
        }
    }
    b.build()
}

/// `config` on its topology with zero latency everywhere: a multi-shard
/// cut of it has no lookahead and runs as the one-shard plan.
pub fn flat(config: ClusterConfig<'_>) -> ClusterConfig<'_> {
    ClusterConfig { topology: with_latency(&config.topology, 0.0), ..config }
}

fn open_loop(
    topology: Topology,
    lambda: f64,
    catalog_items: Option<u64>,
    requests: usize,
) -> ClusterConfig<'static> {
    let n = topology.n_proxies();
    ClusterConfig {
        topology,
        workload: Workload::Static(StaticWorkload {
            proxies: vec![StaticProxy { lambda, h_prime: 0.3, n_f: 0.5, p: 0.8 }; n],
            size_dist: &*SIZE,
            catalog_items,
        }),
        requests_per_proxy: requests,
        warmup_per_proxy: requests / 5,
    }
}

/// The open loop without an item catalog, over a two-shard origin.
pub fn static_itemless(n: usize, requests: usize) -> ClusterConfig<'static> {
    let origin = Topology::sharded_origin(n, 2, 25.0, 30.0);
    open_loop(with_latency(&origin, LATENCY), 10.0, None, requests)
}

/// The open loop over a 40-item catalog (MSHR on) behind a slow
/// two-shard origin: some requests coalesce as delayed hits.
pub fn static_catalog(n: usize, requests: usize) -> ClusterConfig<'static> {
    let origin = Topology::sharded_origin(n, 2, 25.0, 12.0);
    open_loop(with_latency(&origin, LATENCY), 14.0, Some(40), requests)
}

fn synth(lambda: f64) -> SynthWebConfig {
    SynthWebConfig { lambda, link_skew: 0.3, ..SynthWebConfig::default() }
}

fn closed_loop(proxies: Vec<SynthWebConfig>, cache_capacity: usize) -> AdaptiveWorkload {
    AdaptiveWorkload {
        proxies,
        cache_capacity,
        cache_bytes: None,
        max_candidates: 3,
        prefetch_jitter: 0.01,
        policy: ProxyPolicy::Adaptive,
        predictor: CandidateSource::Oracle,
        shared_structure_seed: None,
        delayed: DelayedHitsConfig::default(),
    }
}

/// The E13-shaped adaptive deployment: heterogeneous local load over a
/// two-shard origin, oracle candidates, jittered prefetch pacing.
pub fn adaptive(n: usize, requests: usize) -> ClusterConfig<'static> {
    let lambdas = [8.0, 18.0, 30.0, 11.0, 22.0, 14.0].into_iter().cycle();
    let origin = Topology::sharded_origin(n, 2, 45.0, 80.0);
    ClusterConfig {
        topology: with_latency(&origin, LATENCY),
        workload: Workload::Adaptive(closed_loop(lambdas.take(n).map(synth).collect(), 32)),
        requests_per_proxy: requests,
        warmup_per_proxy: requests / 5,
    }
}

/// The E14-shaped cooperative deployment: a peer mesh, identical item
/// universes, a short digest epoch and load-aware placement.
pub fn coop(n: usize, requests: usize, refresh: RefreshStrategy) -> ClusterConfig<'static> {
    let mut base = closed_loop(vec![synth(14.0); n], 48);
    base.shared_structure_seed = Some(99);
    ClusterConfig {
        topology: Topology::mesh_with_latency(n, 50.0, 150.0, 45.0, LATENCY),
        workload: Workload::Cooperative(CooperativeWorkload {
            base,
            coop: CoopConfig {
                placement: PlacementPolicy::LoadAware { divergence: 0.05, step: 4, min_vnodes: 8 },
                digest: DigestConfig { epoch: 2.0, bits_per_entry: 10, hashes: 4 },
                refresh,
                ..CoopConfig::default()
            },
        }),
        requests_per_proxy: requests,
        warmup_per_proxy: requests / 5,
    }
}

/// A cooperative `config` with its digest epoch set to `epoch`.
pub fn with_epoch(mut config: ClusterConfig<'_>, epoch: f64) -> ClusterConfig<'_> {
    let Workload::Cooperative(w) = &mut config.workload else { panic!("not cooperative") };
    w.coop.digest.epoch = epoch;
    config
}

/// The E16-shaped deployment: [`coop`] with byte-addressed caches of 160
/// size-units under a heavy Pareto size tail and a one-second epoch, so
/// byte-driven multi-evictions feed the digest stream. Per-epoch churn
/// stays well below capacity, the regime delta exchange is built for.
pub fn byte_budget(n: usize, requests: usize, refresh: RefreshStrategy) -> ClusterConfig<'static> {
    let mut config = with_epoch(coop(n, requests, refresh), 1.0);
    let Workload::Cooperative(w) = &mut config.workload else { unreachable!() };
    for p in &mut w.base.proxies {
        p.size_shape = 1.6;
    }
    w.base.cache_capacity = 192;
    w.base.cache_bytes = Some(160.0);
    config
}

/// Delayed hits: high load over a slow backbone with 0.08 s links, so
/// fetch windows span later requests, under the given MSHR settings.
pub fn mshr(delayed: DelayedHitsConfig, requests: usize) -> ClusterConfig<'static> {
    let proxies =
        (0..4).map(|i| SynthWebConfig { n_items: 160, ..synth(24.0 + 4.0 * i as f64) }).collect();
    ClusterConfig {
        topology: Topology::mesh_with_latency(4, 60.0, 25.0, 45.0, 0.08),
        workload: Workload::Adaptive(AdaptiveWorkload { delayed, ..closed_loop(proxies, 24) }),
        requests_per_proxy: requests,
        warmup_per_proxy: requests / 5,
    }
}

/// The recording side of trace replay: the adaptive engine with a
/// learned (Markov) predictor, the only candidate source a trace can
/// replay, since oracle candidates need the generating chain.
pub fn replay_source(n: usize, requests: usize) -> ClusterConfig<'static> {
    let proxies = (0..n)
        .map(|i| SynthWebConfig { n_items: 120, link_skew: 0.25, ..synth(18.0 + 3.0 * i as f64) })
        .collect();
    ClusterConfig {
        topology: Topology::mesh_with_latency(n, 60.0, 20.0 * n as f64, 45.0, LATENCY),
        workload: Workload::Adaptive(AdaptiveWorkload {
            predictor: CandidateSource::Markov1,
            ..closed_loop(proxies, 24)
        }),
        requests_per_proxy: requests,
        warmup_per_proxy: requests / 5,
    }
}

/// A replay of `records` on `source`'s topology with its policy knobs:
/// the setup under which a replay reproduces the recording run.
pub fn replaying(source: &ClusterConfig<'_>, records: &[TraceRecord]) -> ClusterConfig<'static> {
    let Workload::Adaptive(w) = &source.workload else { panic!("replays copy an adaptive source") };
    let source_trace = TraceSource::from_records(records).expect("recorded trace encodes");
    ClusterConfig {
        topology: source.topology.clone(),
        workload: Workload::Trace(TraceWorkload::replaying(w, source_trace)),
        requests_per_proxy: source.requests_per_proxy,
        warmup_per_proxy: source.warmup_per_proxy,
    }
}

/// Trace replay: [`replay_source`] recorded at one shard. Returns the
/// replay config and the recording run's report.
pub fn trace_replay(
    n: usize,
    requests: usize,
    seed: u64,
) -> (ClusterConfig<'static>, ClusterReport) {
    let source = replay_source(n, requests);
    let (report, records) = ClusterSim::new(&source).run_recorded(seed, 1);
    (replaying(&source, &records), report)
}

/// The E13 proxies behind FIFO access links (45 units/s) feeding one
/// processor-sharing backbone (150 units/s), every link 0.04 s long.
pub fn fifo_access_tree(requests: usize) -> ClusterConfig<'static> {
    let n = 6;
    let mut b = Topology::builder(n, 1);
    let backbone = b.add_link_latency("backbone", 150.0, 0.04, Discipline::ProcessorSharing);
    for p in 0..n {
        let access = b.add_link_latency(format!("access[{p}]"), 45.0, 0.04, Discipline::Fifo);
        b.route(p, 0, &[access, backbone]);
    }
    ClusterConfig { topology: b.build(), ..adaptive(n, requests) }
}

/// [`coop`] on six proxies joined by a peer *ring* with two link
/// latencies (tree links 0.04 s, ring segments 0.015 s). Peer routes take
/// the shorter arc, one to three hops. The opposite pair `(0, 3)` is
/// first set the long way round and then replaced, and most routes
/// arrive out of slot order, so the builder's replacement and compaction
/// paths both run.
pub fn peer_ring(requests: usize) -> ClusterConfig<'static> {
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
    ClusterConfig { topology: b.build(), ..coop(n, requests, RefreshStrategy::Deltas) }
}

/// A plan exercising every fault kind: flapping links, a degraded lossy
/// link, a proxy crash, a digest loss, and an origin brownout followed by
/// a short blackout.
pub fn chaos() -> FaultConfig {
    let plan = FaultPlan::new(vec![
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
    ]);
    FaultConfig { plan, retry: RetryPolicy::default() }
}

/// Every probe on: series sampling and a flight recorder.
pub fn probes() -> ObsConfig {
    ObsConfig::on().with_sample_every(1.0).with_flight_capacity(256)
}

/// [`probes`] with span tracing of every `every`-th trace id.
pub fn traced(every: u64) -> ObsConfig {
    probes().with_trace_every(every)
}

/// Equal to 1e-9, relative to the larger magnitude (absolute below 1).
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}
