//! The three benchmark workloads: each is a fixed-size batch cluster run
//! whose only free input is the seed.

use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterObs, ClusterReport, ClusterSim,
    CooperativeWorkload, DelayedHitsConfig, ProxyPolicy, StaticProxy, StaticWorkload, Topology,
    Workload,
};
use coop::{CoopConfig, DigestConfig, PlacementPolicy, RefreshStrategy};
use simcore::dist::Exponential;
use simcore::faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use simcore::obs::ObsConfig;
use workload::synth_web::SynthWebConfig;

/// Catalog and navigation chain every proxy of `coop_mesh_2shards` shares:
/// part of the workload's definition, so the cross-proxy redundancy the
/// cooperative layer removes is the same for every run seed.
const SHARED_STRUCTURE_SEED: u64 = 99;

/// Item sizes of the open-loop workload (mean one size-unit).
static STATIC_SIZES: Exponential = Exponential { rate: 1.0 };

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// Open-loop Model-A engine on a two-tier tree, PS backbone near ρ≈0.85.
    StaticBackbone,
    /// Closed loop, eager fixed threshold, learned predictor, lossy faults.
    EagerLossyMesh,
    /// Cooperative mesh, adaptive threshold, oracle candidates, 2 shards.
    CoopMesh2Shards,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 3] =
        [WorkloadId::StaticBackbone, WorkloadId::EagerLossyMesh, WorkloadId::CoopMesh2Shards];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::StaticBackbone => "static_backbone",
            WorkloadId::EagerLossyMesh => "eager_lossy_mesh",
            WorkloadId::CoopMesh2Shards => "coop_mesh_2shards",
        }
    }

    pub fn parse(s: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size of a batch: the benchmark size, or a reduced size for the
/// package's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Test,
}

/// One workload instance: the cluster configuration for a seed, the
/// fault schedule it runs under, and its native shard count.
pub struct Spec {
    pub config: ClusterConfig<'static>,
    pub faults: Option<FaultConfig>,
    pub shards: usize,
}

impl Spec {
    /// Builds the workload. The configuration is fixed per `(id, scale)`;
    /// the run seed alone drives every random draw of a batch (arrivals,
    /// navigation, sizes, and the per-proxy catalogs where they are not
    /// shared).
    pub fn build(id: WorkloadId, scale: Scale) -> Spec {
        match id {
            WorkloadId::StaticBackbone => static_backbone(scale),
            WorkloadId::EagerLossyMesh => eager_lossy_mesh(scale),
            WorkloadId::CoopMesh2Shards => coop_mesh_2shards(scale),
        }
    }

    /// Proxies in the topology.
    pub fn proxies(&self) -> usize {
        self.config.topology.n_proxies()
    }

    /// Simulated user requests one run issues (warm-up included).
    pub fn total_requests(&self) -> u64 {
        (self.proxies() * self.config.requests_per_proxy) as u64
    }

    /// Requests the report must count as measured (post warm-up).
    pub fn measured_requests(&self) -> u64 {
        (self.proxies() * (self.config.requests_per_proxy - self.config.warmup_per_proxy)) as u64
    }

    /// Scheduler timer keys one single-shard engine registers: departure
    /// and arrival timers per link plus the per-proxy stream timers
    /// (four in the open loop, five in the closed loop).
    pub fn timer_keys(&self) -> usize {
        let per_proxy = if matches!(self.config.workload, Workload::Static(_)) { 4 } else { 5 };
        2 * self.config.topology.links().len() + per_proxy * self.proxies()
    }

    /// Runs one batch under this workload's own fault schedule.
    pub fn run(&self, seed: u64, shards: usize, obs: &ObsConfig) -> (ClusterReport, ClusterObs) {
        let sim = ClusterSim::new(&self.config);
        match &self.faults {
            Some(f) => sim.run_faulted_observed(seed, shards, f, obs),
            None => sim.run_observed(seed, shards, obs),
        }
    }

    /// Runs one batch through the fault machinery with an empty plan.
    pub fn run_empty_plan(
        &self,
        seed: u64,
        shards: usize,
        obs: &ObsConfig,
    ) -> (ClusterReport, ClusterObs) {
        let empty = FaultConfig { plan: FaultPlan::empty(), retry: RetryPolicy::default() };
        ClusterSim::new(&self.config).run_faulted_observed(seed, shards, &empty, obs)
    }

    /// Per-proxy cache capacity in items (closed-loop workloads).
    pub fn cache_capacity(&self) -> Option<usize> {
        self.adaptive().map(|w| w.cache_capacity)
    }

    /// The closed-loop knobs, if this is a closed-loop workload.
    pub fn adaptive(&self) -> Option<&AdaptiveWorkload> {
        match &self.config.workload {
            Workload::Adaptive(w) => Some(w),
            Workload::Cooperative(w) => Some(&w.base),
            _ => None,
        }
    }

    /// The cooperative-layer configuration, if cooperative.
    pub fn coop(&self) -> Option<&CoopConfig> {
        match &self.config.workload {
            Workload::Cooperative(w) => Some(&w.coop),
            _ => None,
        }
    }
}

/// Observability settings of the tracing-off path: everything disabled.
pub fn untraced() -> ObsConfig {
    ObsConfig::off()
}

/// Observability settings of the traced run: registry, probes, profiler,
/// and a latency histogram wide enough for faulted access times.
pub fn traced() -> ObsConfig {
    ObsConfig::on().with_latency_range(0.0, 20.0, 4000)
}

fn static_backbone(scale: Scale) -> Spec {
    let (n, requests) = match scale {
        Scale::Bench => (32, 6_000),
        Scale::Test => (8, 1_500),
    };
    // Per proxy: a request hits with h′ + n̄(F)·p = 0.6, so it puts
    // (1 − 0.6) + n̄(F) = 1.4 size-units on the backbone; the backbone is
    // sized for ρ ≈ 0.85 at the proxies' aggregate rate. Equal rates keep
    // every proxy active until the end of the batch.
    let proxies: Vec<StaticProxy> =
        vec![StaticProxy { lambda: 9.5, h_prime: 0.3, n_f: 1.0, p: 0.3 }; n];
    let offered: f64 = proxies.iter().map(|p| p.lambda * 1.4).sum();
    Spec {
        config: ClusterConfig {
            topology: Topology::two_tier(n, 60.0, offered / 0.85),
            workload: Workload::Static(StaticWorkload {
                proxies,
                size_dist: &STATIC_SIZES,
                catalog_items: None,
            }),
            requests_per_proxy: requests,
            warmup_per_proxy: requests / 5,
        },
        faults: None,
        shards: 1,
    }
}

fn eager_lossy_mesh(scale: Scale) -> Spec {
    let (n, requests) = match scale {
        Scale::Bench => (64, 1_200),
        Scale::Test => (8, 300),
    };
    let topology = Topology::mesh_with_latency(n, 60.0, 40.0 * n as f64, 45.0, 0.16);
    // Virtual length of the batch at the proxies' mean rate of 11 req/s.
    let duration = requests as f64 / 11.0;
    let faults = FaultConfig { plan: lossy_plan(duration), retry: RetryPolicy::default() };
    Spec {
        config: ClusterConfig {
            topology,
            workload: Workload::Adaptive(AdaptiveWorkload {
                proxies: (0..n)
                    .map(|i| SynthWebConfig {
                        lambda: 8.0 + 2.0 * (i % 4) as f64,
                        n_items: 160,
                        link_skew: 0.3,
                        ..SynthWebConfig::default()
                    })
                    .collect(),
                cache_capacity: 24,
                cache_bytes: Some(16.0),
                max_candidates: 3,
                prefetch_jitter: 0.01,
                policy: ProxyPolicy::FixedThreshold(0.05),
                predictor: CandidateSource::Markov1,
                shared_structure_seed: None,
                delayed: DelayedHitsConfig::default(),
            }),
            requests_per_proxy: requests,
            warmup_per_proxy: requests / 5,
        },
        faults: Some(faults),
        shards: 1,
    }
}

/// The static fault schedule of `eager_lossy_mesh`, laid out over a run of
/// roughly `duration` virtual seconds: a lossy backbone for most of the
/// run, one access link flapping, and an origin brownout.
fn lossy_plan(duration: f64) -> FaultPlan {
    let at = |f: f64| f * duration;
    FaultPlan::new(vec![
        FaultEvent {
            t: at(0.15),
            kind: FaultKind::LinkDegrade { link: 0, loss: 0.1, latency_factor: 1.5 },
        },
        FaultEvent { t: at(0.35), kind: FaultKind::LinkDown { link: 1 } },
        FaultEvent { t: at(0.45), kind: FaultKind::LinkUp { link: 1 } },
        FaultEvent { t: at(0.55), kind: FaultKind::OriginBrownout { delay: 0.2 } },
        FaultEvent { t: at(0.7), kind: FaultKind::OriginRestore },
        FaultEvent { t: at(0.85), kind: FaultKind::LinkUp { link: 0 } },
    ])
}

fn coop_mesh_2shards(scale: Scale) -> Spec {
    let (n, requests) = match scale {
        Scale::Bench => (128, 300),
        Scale::Test => (8, 300),
    };
    Spec {
        config: ClusterConfig {
            topology: Topology::mesh_with_latency(n, 50.0, 25.0 * n as f64, 45.0, 0.05),
            workload: Workload::Cooperative(CooperativeWorkload {
                base: AdaptiveWorkload {
                    proxies: (0..n)
                        .map(|_| SynthWebConfig {
                            lambda: 14.0,
                            link_skew: 0.3,
                            ..SynthWebConfig::default()
                        })
                        .collect(),
                    cache_capacity: 96,
                    cache_bytes: None,
                    max_candidates: 3,
                    prefetch_jitter: 0.01,
                    policy: ProxyPolicy::Adaptive,
                    predictor: CandidateSource::Oracle,
                    shared_structure_seed: Some(SHARED_STRUCTURE_SEED),
                    delayed: DelayedHitsConfig::default(),
                },
                coop: CoopConfig {
                    placement: PlacementPolicy::LoadAware {
                        divergence: 0.05,
                        step: 4,
                        min_vnodes: 8,
                    },
                    digest: DigestConfig { epoch: 2.0, bits_per_entry: 10, hashes: 4 },
                    refresh: RefreshStrategy::Auto,
                    ..CoopConfig::default()
                },
            }),
            requests_per_proxy: requests,
            warmup_per_proxy: requests / 5,
        },
        faults: None,
        shards: 2,
    }
}
