//! The cluster simulator facade and the scope machinery shared by its
//! drivers.

use crate::closed_loop::{ClosedLoop, EngineWorkload, SharedWebs};
use crate::engine::{ReplayStats, Run, RunExtras};
use crate::obs::ClusterObs;
use crate::report::ClusterReport;
use crate::static_mode::OpenLoop;
use crate::topology::ShardPlan;
use crate::{ClusterConfig, Topology, Workload};
use coop::Router;
use simcore::faults::FaultConfig;
use simcore::obs::ObsConfig;
use workload::TraceRecord;

/// A multi-node discrete-event run over a [`crate::Topology`].
///
/// `ClusterSim` owns nothing but a borrow of its configuration; [`run`]
/// is pure in the seed, so sweeps can share one config across threads.
///
/// [`run`]: ClusterSim::run
pub struct ClusterSim<'a> {
    config: &'a ClusterConfig<'a>,
}

impl<'a> ClusterSim<'a> {
    pub fn new(config: &'a ClusterConfig<'a>) -> Self {
        config.validate();
        ClusterSim { config }
    }

    /// Runs the simulation to completion on one shard, on the calling
    /// thread. Deterministic in `seed`.
    pub fn run(&self, seed: u64) -> ClusterReport {
        self.run_on(seed, 1, None, false, None).0
    }

    /// Runs the simulation partitioned into `shards` shard-local event
    /// loops (see the `shard` module for the protocol). Deterministic in
    /// `seed` **and in `shards`**: the report is bit-identical to
    /// [`ClusterSim::run`] for every shard count — the property
    /// `cluster/tests/shard_parity.rs` pins. Shards execute on their own
    /// threads whenever the partition admits a positive conservative
    /// lookahead (cross-shard hops with propagation latency, e.g.
    /// [`Topology::mesh_with_latency`]); a zero-lookahead partition (any
    /// zero-latency crossing hop) admits no conservative window at all,
    /// so it runs as the one-shard plan instead.
    pub fn run_sharded(&self, seed: u64, shards: usize) -> ClusterReport {
        self.run_on(seed, shards, None, false, None).0
    }

    /// Runs the simulation under a deterministic fault plan: link
    /// outages/degradations, proxy crashes, origin brownouts, and digest
    /// losses injected at scheduled virtual times, with per-fetch
    /// timeout–retry–backoff governed by the plan's [`RetryPolicy`].
    ///
    /// Two pinned determinism properties (`cluster/tests/fault_parity.rs`):
    /// an **empty** plan is bit-identical to [`ClusterSim::run_sharded`]
    /// at the same `(seed, shards)` — the fault machinery adds no RNG
    /// draws, float operations, or event reorderings until a fault
    /// actually fires — and any plan is bit-identical across shard
    /// counts.
    ///
    /// [`RetryPolicy`]: simcore::faults::RetryPolicy
    pub fn run_faulted(&self, seed: u64, shards: usize, faults: &FaultConfig) -> ClusterReport {
        self.run_on(seed, shards, None, false, Some(faults)).0
    }

    /// [`ClusterSim::run_faulted`] with the observability layer attached
    /// (see [`ClusterSim::run_observed`] for the obs contract).
    pub fn run_faulted_observed(
        &self,
        seed: u64,
        shards: usize,
        faults: &FaultConfig,
        obs: &ObsConfig,
    ) -> (ClusterReport, ClusterObs) {
        self.observed(seed, shards, obs, Some(faults))
    }

    /// Runs the simulation while recording every issued request, returning
    /// the report and the merged request trace (globally time-ordered,
    /// with each record's source proxy folded into its client id). The
    /// report is bit-identical to [`ClusterSim::run_sharded`] at the same
    /// `(seed, shards)` — recording only copies requests out, it never
    /// draws RNG or reorders events — and the recorded trace itself is
    /// identical at every shard count. Encode it with
    /// [`workload::events::write_events_file`] (or
    /// [`workload::TraceSource::from_records`]) and replay it through
    /// [`crate::Workload::Trace`].
    pub fn run_recorded(&self, seed: u64, shards: usize) -> (ClusterReport, Vec<TraceRecord>) {
        let (report, _, extras) = self.run_on(seed, shards, None, true, None);
        (report, extras.recorded.expect("recording was requested"))
    }

    /// Runs a [`crate::Workload::Trace`] replay, returning the report and
    /// the replay accounting (records consumed, peak per-stream resident
    /// trace bytes — O(chunk), never O(trace)).
    ///
    /// # Panics
    ///
    /// Panics if the configured workload is not `Workload::Trace`.
    pub fn run_replayed(&self, seed: u64, shards: usize) -> (ClusterReport, ReplayStats) {
        assert!(
            matches!(self.config.workload, Workload::Trace(_)),
            "run_replayed needs a Workload::Trace config"
        );
        let (report, _, extras) = self.run_on(seed, shards, None, false, None);
        (report, extras.replay.expect("trace workloads produce replay stats"))
    }

    /// Runs the simulation with the observability layer attached: the
    /// report plus a [`ClusterObs`] of metrics, probes, and profiles.
    ///
    /// The report is **bit-identical** to [`ClusterSim::run_sharded`] at
    /// the same `(seed, shards)` whether `obs` is enabled or not — probes
    /// never draw RNG, reorder events, or feed anything back (pinned by
    /// `cluster/tests/obs_parity.rs`). With `obs.enabled == false` the
    /// telemetry comes back as an empty shell.
    pub fn run_observed(
        &self,
        seed: u64,
        shards: usize,
        obs: &ObsConfig,
    ) -> (ClusterReport, ClusterObs) {
        self.observed(seed, shards, obs, None)
    }

    /// The observed runs' shared shell: times the whole run on the wall
    /// clock.
    fn observed(
        &self,
        seed: u64,
        shards: usize,
        obs: &ObsConfig,
        faults: Option<&FaultConfig>,
    ) -> (ClusterReport, ClusterObs) {
        let wall = std::time::Instant::now();
        let (report, obs_out, _) = self.run_on(seed, shards, Some(obs), false, faults);
        let mut obs_out = obs_out.expect("an observed run returns telemetry");
        obs_out.wall_secs = wall.elapsed().as_secs_f64();
        (report, obs_out)
    }

    /// Partitions the topology into `shards` shards, picks the proxy model
    /// the workload needs and runs it on the shared engine core. A
    /// multi-shard cut with zero lookahead admits no window; reports are
    /// bit-identical at every shard count, so it runs as the one-shard
    /// plan, and only its telemetry still reports the requested count.
    fn run_on(
        &self,
        seed: u64,
        shards: usize,
        obs: Option<&ObsConfig>,
        record: bool,
        faults: Option<&FaultConfig>,
    ) -> (ClusterReport, Option<ClusterObs>, RunExtras) {
        let config = self.config;
        let topology = &config.topology;
        let cut = ShardPlan::partition(topology, shards);
        let shards = cut.n_shards();
        let plan = if cut.lookahead() > 0.0 { cut } else { ShardPlan::partition(topology, 1) };
        let run = Run {
            topology,
            requests: config.requests_per_proxy,
            warmup: config.warmup_per_proxy,
            seed,
            plan: &plan,
            shards,
            obs,
            record,
            faults,
        };
        match &config.workload {
            Workload::Static(w) => run.drive(None, |scope| OpenLoop::new(w, seed, scope)),
            Workload::Adaptive(w) => {
                let webs = SharedWebs::build(w);
                run.drive(None, |scope| {
                    ClosedLoop::new(topology, EngineWorkload::Synth(w, &webs), None, seed, scope)
                })
            }
            Workload::Cooperative(w) => {
                let router = Router::new(topology.n_proxies(), w.base.cache_capacity, w.coop);
                let webs = SharedWebs::build(&w.base);
                run.drive(Some(router), |scope| {
                    let synth = EngineWorkload::Synth(&w.base, &webs);
                    ClosedLoop::new(topology, synth, Some(&w.coop), seed, scope)
                })
            }
            Workload::Trace(w) => run.drive(None, |scope| {
                ClosedLoop::new(topology, EngineWorkload::Trace(w), None, seed, scope)
            }),
        }
    }
}

/// Per-proxy RNG seed: proxy 0 uses the run seed unchanged so the
/// degenerate single-proxy topology makes *exactly* the draw sequence of
/// `netsim::parametric::run` (the parity property the tests pin down);
/// later proxies decorrelate through golden-ratio increments
/// ([`simcore::rng::stream_seed`]). Because the stream is a pure function
/// of the *global* proxy index, every sharding hands each proxy the same
/// draws.
pub(crate) fn proxy_seed(seed: u64, proxy: usize) -> u64 {
    simcore::rng::stream_seed(seed, proxy as u64)
}

/// The slice of a topology one shard owns: its proxies and links, with
/// global↔local index maps. The single-shard scope (every entity,
/// identity maps) is the single-threaded case — the engine core is
/// written against `Scope` exclusively, so the monolithic and sharded
/// drivers run literally the same handler code.
pub(crate) struct Scope {
    /// Local → global link index.
    pub links: Vec<usize>,
    /// Local → global proxy index.
    pub proxies: Vec<usize>,
    link_local: Vec<usize>,
    proxy_local: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl Scope {
    /// The entities `plan` assigns to shard `s`, in ascending global
    /// order (so local tie order equals global tie order).
    pub fn shard(topology: &Topology, plan: &ShardPlan, s: usize) -> Scope {
        let links: Vec<usize> =
            (0..topology.links().len()).filter(|&l| plan.link_shard(l) == s).collect();
        let proxies: Vec<usize> =
            (0..topology.n_proxies()).filter(|&p| plan.proxy_shard(p) == s).collect();
        let mut link_local = vec![ABSENT; topology.links().len()];
        for (li, &g) in links.iter().enumerate() {
            link_local[g] = li;
        }
        let mut proxy_local = vec![ABSENT; topology.n_proxies()];
        for (li, &g) in proxies.iter().enumerate() {
            proxy_local[g] = li;
        }
        Scope { links, proxies, link_local, proxy_local }
    }

    /// Local index of global link `g`, if owned by this scope.
    pub fn link_local(&self, g: usize) -> Option<usize> {
        let l = self.link_local[g];
        (l != ABSENT).then_some(l)
    }

    /// Local index of global proxy `g`, if owned by this scope.
    pub fn proxy_local(&self, g: usize) -> Option<usize> {
        let p = self.proxy_local[g];
        (p != ABSENT).then_some(p)
    }
}

/// Global-order lookup over a set of scopes: which `(scope index, local
/// index)` owns each global proxy and link. The report merger iterates
/// these tables in ascending global order, which is what keeps every
/// floating-point reduction identical under every partitioning.
pub(crate) struct ScopeIndex {
    proxy_at: Vec<(usize, usize)>,
    link_at: Vec<(usize, usize)>,
}

impl ScopeIndex {
    /// Builds the tables from the scopes of a complete partition (every
    /// global entity owned exactly once).
    pub fn new<'s>(topology: &Topology, scopes: impl Iterator<Item = &'s Scope>) -> ScopeIndex {
        let mut proxy_at = vec![(usize::MAX, 0); topology.n_proxies()];
        let mut link_at = vec![(usize::MAX, 0); topology.links().len()];
        for (si, scope) in scopes.enumerate() {
            for (li, &g) in scope.proxies.iter().enumerate() {
                proxy_at[g] = (si, li);
            }
            for (li, &g) in scope.links.iter().enumerate() {
                link_at[g] = (si, li);
            }
        }
        debug_assert!(proxy_at.iter().chain(&link_at).all(|&(s, _)| s != usize::MAX));
        ScopeIndex { proxy_at, link_at }
    }

    /// `(scope, local)` owning global proxy `g`.
    pub fn proxy(&self, g: usize) -> (usize, usize) {
        self.proxy_at[g]
    }

    /// `(scope, local)` owning global link `g`.
    pub fn link(&self, g: usize) -> (usize, usize) {
        self.link_at[g]
    }
}
