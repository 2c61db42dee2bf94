//! # cluster — multi-node network-of-queues prefetching simulator
//!
//! The paper analyses speculative prefetching over a *single* shared path.
//! This crate lifts every substrate in the workspace to a **topology** of
//! client populations, edge proxies, and sharded origin servers, where each
//! hop is its own queueing resource:
//!
//! * [`Topology`] describes proxies, origin shards, per-link bandwidth and
//!   discipline, and the route every `(proxy, shard)` fetch traverses —
//!   with builders for star, two-tier-tree, and sharded-origin layouts;
//! * each link runs as a `queueing` server (PS or FIFO);
//! * each proxy hosts a `cachesim` tagged cache and, in adaptive mode, a
//!   `prefetch_core::AdaptiveController` provisioned against its local
//!   bottleneck bandwidth;
//! * `workload` generates per-proxy client sessions (Zipf catalog, Markov
//!   navigation).
//!
//! [`ClusterSim::run`] executes one deterministic discrete-event run and
//! returns a [`ClusterReport`] with per-node and per-link utilisation `ρ`,
//! mean access time `t̄`, prefetch goodput/badput, and aggregate network
//! load; [`network_load_curve`] sweeps prefetch volume for the cluster
//! analogue of the paper's Figures 2–3.
//!
//! Every mode runs on `simcore::sched`'s indexed event scheduler (one
//! timer per link / request stream / prefetch stream, plus a digest-
//! refresh timer on the epoch grid), so per-event cost is O(log n) and
//! 256-proxy meshes are routine (experiment E15). The retired
//! O(links + proxies) scan driver survives purely as a parity oracle in
//! the hidden `legacy` module, behind the default-on `legacy-oracle`
//! feature (release consumers opt out).
//!
//! ## Sharded parallel execution
//!
//! [`ClusterSim::run_sharded`] splits the topology into per-thread
//! shards ([`ShardPlan`]: contiguous proxy blocks, majority-use link
//! assignment) and runs one event loop per shard under a conservative
//! time-window protocol: the **lookahead** — the minimum propagation
//! delay of any cross-shard handoff, from per-link latencies
//! ([`Link::latency`], e.g. [`Topology::mesh_with_latency`]) — bounds how
//! far every shard may run past the globally earliest pending event
//! before a barrier exchanges in-flight transfers through per-shard
//! mailboxes. Determinism is contractual, not statistical: for a fixed
//! seed the [`ClusterReport`] is **bit-identical** across shard counts
//! and equal to the single-threaded [`ClusterSim::run`] (pinned by
//! `tests/shard_parity.rs`). One driver runs every plan: a one-shard plan
//! crosses nothing, so its lookahead is infinite and it runs on the
//! calling thread; on zero-latency topologies a multi-shard cut has
//! lookahead zero, admits no window, and runs as the one-shard plan
//! instead. Experiment E17 drives the strong-scaling ladder over
//! 256/512-proxy latency meshes (~32k/~131k PS links).
//!
//! ## Observability
//!
//! [`ClusterSim::run_observed`] attaches `simcore::obs` probes to any
//! run and returns the report **plus** a [`ClusterObs`]: merged metrics
//! registry (request latency histogram, predictor/prefetch counters,
//! the coop router's digest traffic), epoch-grid time-series (per-link
//! utilisation, queue depth, cache occupancy, outstanding prefetches),
//! per-shard driver profiles, and a flight-recorder tail of recent
//! dispatches and cross-shard effects. Probes are pure observers: the
//! report stays bit-identical with observability on or off, at every
//! shard count (`tests/obs_parity.rs`), and the disabled default costs
//! one branch per hook. [`report_to_json`] and [`ClusterObs::to_json`]
//! serialise both halves with the workspace's hand-rolled JSON codec
//! for the `OBS_cluster.json` artifact.
//!
//! ## One engine core, two proxy models
//!
//! Prefetching only adds arrival rate to an unchanged network of queues,
//! so every mode runs on one engine core: a shared transport (link
//! servers, propagation, timeout–retry–backoff, cross-shard effects,
//! tracing, recording, observability probes) parametrised by a *proxy
//! model* — what a proxy does on a request, a prefetch, a peer check and
//! a delivery. The open loop is one model; the closed loop, in its
//! adaptive, cooperative and trace-replay forms, is the other.
//!
//! * **Open loop** ([`Workload::Static`]) — every proxy runs the paper's
//!   Model-A mechanism (Bernoulli hits at `h′ + n̄(F)·p`, Poissonised
//!   prefetch stream). On the degenerate [`Topology::single`] this is
//!   event-for-event identical to `netsim::parametric`, which anchors the
//!   whole crate to the validated single-path simulator (pinned by test
//!   to 1e-6).
//! * **Closed loop** ([`Workload::Adaptive`]) — real caches, online
//!   estimators, and per-proxy threshold control. Because each controller
//!   estimates `ρ̂′` from its *own* traffic, proxies under different local
//!   load converge to different thresholds — the distributed behaviour the
//!   single-path model cannot express.
//! * **Cooperative** ([`Workload::Cooperative`]) — the closed loop plus
//!   the `coop` crate's digest/placement/router layer: peers answer each
//!   other's misses over [`Topology::mesh`]/[`Topology::ring`] peer links,
//!   with digest-staleness false hits falling back to the origin and a
//!   load-aware placement policy migrating virtual nodes on divergence.
//!   With one proxy this reduces *exactly* to adaptive mode (pinned by
//!   test to 1e-6), so cooperative results stay anchored too.
//! * **Trace replay** ([`Workload::Trace`]) — the closed loop driven by a
//!   recorded `.events` stream instead of the synthetic web model.
//!
//! ## Example
//!
//! ```
//! use cluster::{ClusterConfig, ClusterSim, StaticProxy, StaticWorkload, Topology, Workload};
//! use simcore::dist::Exponential;
//!
//! // Two proxies share a backbone: same offered load as two private paths,
//! // but now they impede each other.
//! let size = Exponential::with_mean(1.0);
//! let config = ClusterConfig {
//!     topology: Topology::two_tier(2, 50.0, 60.0),
//!     workload: Workload::Static(StaticWorkload {
//!         proxies: vec![
//!             StaticProxy { lambda: 20.0, h_prime: 0.3, n_f: 1.0, p: 0.8 },
//!             StaticProxy { lambda: 10.0, h_prime: 0.3, n_f: 1.0, p: 0.8 },
//!         ],
//!         size_dist: &size,
//!         catalog_items: None,
//!     }),
//!     requests_per_proxy: 20_000,
//!     warmup_per_proxy: 4_000,
//! };
//! let report = ClusterSim::new(&config).run(7);
//! assert!(report.link("backbone").unwrap().utilisation > 0.0);
//! assert!(report.mean_access_time.is_finite());
//! ```

mod closed_loop;
mod curve;
mod engine;
#[cfg(feature = "legacy-oracle")]
#[doc(hidden)]
pub mod legacy;
mod obs;
mod report;
mod shard;
mod sim;
mod static_mode;
mod topology;

pub use curve::{network_load_curve, CurveSpec};
pub use engine::ReplayStats;
pub use obs::{report_to_json, ClusterObs};
#[doc(hidden)]
pub use report::parity;
pub use report::{ClusterReport, CoopReport, CurvePoint, LinkReport, NodeReport};
pub use shard::EVENT_CLASS_NAMES;
pub use sim::ClusterSim;
pub use topology::{Discipline, Link, LinkName, ShardPlan, Topology, TopologyBuilder};
pub use workload::TraceSource;

use simcore::dist::Sample;
use workload::events::DEFAULT_CHUNK_RECORDS;
use workload::synth_web::SynthWebConfig;

/// Open-loop parameters of one proxy's population (the paper's symbols).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StaticProxy {
    /// Aggregate request rate `λ` of this proxy's clients.
    pub lambda: f64,
    /// No-prefetch hit ratio `h′` of the proxy cache.
    pub h_prime: f64,
    /// Prefetches per request `n̄(F)`.
    pub n_f: f64,
    /// Access probability `p` of prefetched items.
    pub p: f64,
}

/// Open-loop (Model-A mechanism) workload over every proxy.
pub struct StaticWorkload<'a> {
    /// One entry per topology proxy.
    pub proxies: Vec<StaticProxy>,
    /// Item-size distribution shared by all proxies (`Sync` so the
    /// sharded driver can sample it from every shard thread — all
    /// `simcore::dist` distributions are plain data).
    pub size_dist: &'a (dyn Sample + Sync),
    /// When `Some(n)`, every miss draws a concrete item id from a uniform
    /// catalog of `n` items and the proxy's misses run through an MSHR
    /// outstanding-fetch table: a miss for an in-flight item joins the
    /// fetch's FIFO waiter queue (a **delayed hit**) instead of launching
    /// another transfer, and settles when that fetch lands. `None` (the
    /// default) keeps the itemless flow, event-for-event identical to
    /// `netsim::parametric`.
    pub catalog_items: Option<u64>,
}

/// Where adaptive-mode prefetch candidates come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CandidateSource {
    /// Ground-truth successor probabilities from the generating chain.
    Oracle,
    /// Learned order-1 Markov predictor.
    Markov1,
}

/// Per-proxy prefetch policy in adaptive mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProxyPolicy {
    /// Never prefetch (baseline).
    NoPrefetch,
    /// Prefetch candidates above a constant probability.
    FixedThreshold(f64),
    /// The paper's policy: threshold `ρ̂′` from each proxy's own online
    /// estimators — thresholds diverge with local load.
    Adaptive,
}

/// Closed-loop workload: real caches, controllers, and predictors.
#[derive(Clone, Debug)]
pub struct AdaptiveWorkload {
    /// One session-workload config per topology proxy (rates may differ —
    /// that is what makes the local thresholds diverge).
    pub proxies: Vec<SynthWebConfig>,
    /// Per-proxy cache capacity (items).
    pub cache_capacity: usize,
    /// Per-proxy cache capacity in **bytes** (size-units). `None` keeps
    /// the cache item-counted; `Some(b)` makes eviction byte-driven: an
    /// admission evicts as many LRU victims as its size requires, so under
    /// heterogeneous object sizes occupancy tracks the paper's byte-
    /// denominated load instead of an item count. The item budget still
    /// applies as a second bound.
    pub cache_bytes: Option<f64>,
    /// Maximum prefetch candidates considered per request.
    pub max_candidates: usize,
    /// Mean exponential pacing delay before a prefetch hits the network
    /// (zero issues at the request instant, creating batch arrivals).
    pub prefetch_jitter: f64,
    /// Prefetch policy applied at every proxy.
    pub policy: ProxyPolicy,
    /// Candidate source for every proxy.
    pub predictor: CandidateSource,
    /// When `Some(seed)`, every proxy draws its catalog and navigation
    /// chain from this shared seed, so all proxies serve the *same* item
    /// universe with the same hot set — the cross-proxy redundancy
    /// cooperative caching exists to remove. Arrival randomness stays
    /// per-proxy. Proxies with equal structural config (`n_items`,
    /// `branching`, `link_skew`, `mean_size`, `size_shape`; not `lambda`
    /// or `n_clients`) share one catalog, chain and oracle table, built
    /// once per run. `None` (the default situation) keeps fully
    /// independent per-proxy structures, exactly as before.
    pub shared_structure_seed: Option<u64>,
    /// Delayed-hits behaviour: MSHR table budget, miss coalescing,
    /// aggregate-delay ranking, and byte-charged prefetch thresholds.
    /// The default reproduces the coalescing engine bit-for-bit as it
    /// behaved before these knobs existed.
    pub delayed: DelayedHitsConfig,
}

/// How eviction and prefetch selection rank items in the closed loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RankingMode {
    /// Classic recency ranking: LRU eviction, probability-vs-threshold
    /// prefetch selection. The default.
    #[default]
    Recency,
    /// Delayed-hits-aware ranking: each settled fetch charges its full
    /// latency plus the sum of its waiters' residual waits to the fetched
    /// key (`prefetch_core::AggregateDelay`); eviction removes the
    /// minimum-aggregate-delay entry (`cachesim::ValueAwareCache`), and
    /// keys that have caused delayed hits get a proportionally lower
    /// prefetch threshold. Under high fetch latency this inverts the
    /// recency ranking (Atre et al., SIGCOMM 2020) — experiment E20.
    AggregateDelay,
}

/// Delayed-hits configuration of the closed-loop engines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayedHitsConfig {
    /// MSHR entry budget (`None` = unbounded). With a full table, a new
    /// demand miss fetches independently (untracked) and a prefetch
    /// candidate is dropped — both deterministic.
    pub mshr_entries: Option<usize>,
    /// Whether demand misses for in-flight keys coalesce onto the
    /// outstanding fetch (`true`, the default) or refetch independently
    /// (`false` — the baseline the coalescing win is measured against).
    pub coalesce: bool,
    /// Eviction/prefetch ranking mode.
    pub ranking: RankingMode,
    /// Charge prefetch candidates by bytes instead of count: compare each
    /// candidate against `prefetch_core`'s byte-charged threshold
    /// `ρ̂′·s/ŝ̄` rather than the item-counted `ρ̂′`. Item-counted configs
    /// are the degenerate case (`s = ŝ̄`). Only meaningful under
    /// [`ProxyPolicy::Adaptive`].
    pub size_aware: bool,
}

impl Default for DelayedHitsConfig {
    fn default() -> Self {
        DelayedHitsConfig {
            mshr_entries: None,
            coalesce: true,
            ranking: RankingMode::Recency,
            size_aware: false,
        }
    }
}

/// Closed-loop workload with the cooperative layer attached: peers answer
/// each other's misses via Bloom digests and consistent-hash placement
/// (see the `coop` crate), over the topology's proxy↔proxy peer links.
#[derive(Clone, Debug)]
pub struct CooperativeWorkload {
    /// The underlying adaptive configuration (caches, controllers,
    /// predictors).
    pub base: AdaptiveWorkload,
    /// Digest, placement, and rebalancing parameters.
    pub coop: coop::CoopConfig,
}

/// Trace-replay workload: the closed-loop engine driven by a recorded
/// `.events` stream instead of the synthetic web model.
///
/// Every proxy opens its own lazy [`TraceSource`] cursor and consumes the
/// records whose client id maps back to it (the recorder folds the source
/// proxy into the client id), so resident trace memory stays
/// O(proxies × chunk) regardless of trace length. Replaying a trace
/// recorded by [`ClusterSim::run_recorded`] on the same topology, seed,
/// and knobs reproduces the source run's [`ClusterReport`] bit-for-bit:
/// the jitter RNG splits off before any workload draw, and the learned
/// Markov predictor only ever proposes items the replay has already seen,
/// whose sizes the feed learned from the records themselves.
#[derive(Clone, Debug)]
pub struct TraceWorkload {
    /// The recorded trace (file-backed or in-memory).
    pub source: TraceSource,
    /// Per-proxy cache capacity (items).
    pub cache_capacity: usize,
    /// Per-proxy cache capacity in bytes; see
    /// [`AdaptiveWorkload::cache_bytes`].
    pub cache_bytes: Option<f64>,
    /// Maximum prefetch candidates considered per request.
    pub max_candidates: usize,
    /// Mean exponential pacing delay before a prefetch hits the network.
    pub prefetch_jitter: f64,
    /// Prefetch policy applied at every proxy.
    pub policy: ProxyPolicy,
    /// Candidate source. Must be [`CandidateSource::Markov1`]: oracle
    /// candidates need the generating chain, which a trace does not carry.
    pub predictor: CandidateSource,
    /// Delayed-hits behaviour; see [`AdaptiveWorkload::delayed`].
    pub delayed: DelayedHitsConfig,
    /// Records each proxy's stream reader holds resident at a time.
    pub chunk_records: usize,
}

impl TraceWorkload {
    /// A replay configuration copying the policy knobs of the adaptive
    /// workload that recorded `source` — the setup under which replay
    /// reproduces the source report bit-for-bit.
    pub fn replaying(w: &AdaptiveWorkload, source: TraceSource) -> Self {
        TraceWorkload {
            source,
            cache_capacity: w.cache_capacity,
            cache_bytes: w.cache_bytes,
            max_candidates: w.max_candidates,
            prefetch_jitter: w.prefetch_jitter,
            policy: w.policy,
            predictor: w.predictor,
            delayed: w.delayed,
            chunk_records: DEFAULT_CHUNK_RECORDS,
        }
    }

    fn validate(&self) {
        assert!(
            matches!(self.predictor, CandidateSource::Markov1),
            "trace replay needs a learned predictor: oracle candidates \
             require the generating chain, which a trace does not carry"
        );
        assert!(self.cache_capacity > 0, "cache capacity must be positive");
        if let Some(bytes) = self.cache_bytes {
            assert!(bytes > 0.0 && bytes.is_finite(), "cache byte capacity must be positive");
        }
        assert!(self.max_candidates > 0, "need at least one candidate");
        assert!(self.prefetch_jitter >= 0.0);
        assert!(self.chunk_records > 0, "chunk size must be positive");
        if let Some(entries) = self.delayed.mshr_entries {
            assert!(entries > 0, "MSHR entry budget must be positive");
        }
        if let Err(e) = self.source.open(self.chunk_records) {
            panic!("trace source failed to open: {e}");
        }
    }
}

/// Which engine drives the cluster.
pub enum Workload<'a> {
    /// Open-loop Model-A mechanism (comparable with the closed forms).
    Static(StaticWorkload<'a>),
    /// Closed-loop adaptive prefetching.
    Adaptive(AdaptiveWorkload),
    /// Closed-loop adaptive prefetching with cooperative caching.
    Cooperative(CooperativeWorkload),
    /// Closed-loop engine replaying a recorded `.events` trace.
    Trace(TraceWorkload),
}

/// A complete cluster configuration.
pub struct ClusterConfig<'a> {
    pub topology: Topology,
    pub workload: Workload<'a>,
    /// User requests issued by each proxy's population.
    pub requests_per_proxy: usize,
    /// Leading requests per proxy discarded as warm-up.
    pub warmup_per_proxy: usize,
}

impl ClusterConfig<'_> {
    pub(crate) fn validate(&self) {
        assert!(self.requests_per_proxy > self.warmup_per_proxy, "need post-warmup requests");
        match &self.workload {
            Workload::Static(w) => {
                assert_eq!(
                    w.proxies.len(),
                    self.topology.n_proxies(),
                    "one StaticProxy per topology proxy"
                );
                for (i, p) in w.proxies.iter().enumerate() {
                    assert!(p.lambda > 0.0 && p.lambda.is_finite(), "proxy {i}: bad λ");
                    assert!((0.0..=1.0).contains(&p.h_prime), "proxy {i}: bad h′");
                    assert!((0.0..=1.0).contains(&p.p), "proxy {i}: bad p");
                    assert!(p.n_f >= 0.0 && p.n_f.is_finite(), "proxy {i}: bad n̄(F)");
                }
                if let Some(n) = w.catalog_items {
                    assert!(n > 0, "static catalog must hold at least one item");
                }
            }
            Workload::Adaptive(w) => w.validate(&self.topology),
            Workload::Cooperative(w) => {
                w.base.validate(&self.topology);
                assert!(
                    self.topology.n_proxies() == 1 || self.topology.is_peer_meshed(),
                    "cooperative mode needs a peer path between every proxy pair \
                     (use Topology::mesh or Topology::ring)"
                );
            }
            Workload::Trace(w) => w.validate(),
        }
    }
}

impl AdaptiveWorkload {
    fn validate(&self, topology: &Topology) {
        assert_eq!(
            self.proxies.len(),
            topology.n_proxies(),
            "one SynthWebConfig per topology proxy"
        );
        assert!(self.cache_capacity > 0, "cache capacity must be positive");
        if let Some(bytes) = self.cache_bytes {
            assert!(bytes > 0.0 && bytes.is_finite(), "cache byte capacity must be positive");
        }
        assert!(self.max_candidates > 0, "need at least one candidate");
        assert!(self.prefetch_jitter >= 0.0);
        if let Some(entries) = self.delayed.mshr_entries {
            assert!(entries > 0, "MSHR entry budget must be positive");
        }
    }
}
