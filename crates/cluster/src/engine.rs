//! The shared engine core: one transport, two proxy models.
//!
//! The paper's two proxy behaviours — the open-loop Model-A mechanism
//! ([`crate::static_mode`]: Bernoulli hits, a Poissonised prefetch stream)
//! and the adaptive closed loop ([`crate::closed_loop`]: real caches that
//! prefetch when `p > H′(ρ′)`) — load *the same* network of queues:
//! speculation is only extra arrival rate into it. This module is that
//! network, written once.
//!
//! * [`Transport`] owns one scope's link server table, the slab of jobs in
//!   service, the per-entity arrival/check/deliver/fail queues, the effect
//!   and dirty streams, the per-proxy [`Ledger`]s and the scope's one
//!   probe seam, [`Probe`]. Handlers emit each job-lifecycle event
//!   (`Transport::span`) and each access-time sample (a hit, a delivery,
//!   a settled waiter, a failed fetch) through the transport, which
//!   updates the ledger and hands the probe one copy; the metrics
//!   registry, the span buffer and the request recorder consume it there,
//!   so no handler names a consumer. [`Transport::launch`] resolves a
//!   fetch's whole fault schedule — latency inflation, loss, timeout,
//!   retry, backoff, peer failover — analytically at launch.
//! * A [`ProxyModel`] is what differs between the behaviours: per-proxy
//!   state, when requests and prefetches come due and what they do, what
//!   a peer check, a delivery, a crash or a digest loss does to a proxy,
//!   the digest refresh payloads, the cache-occupancy probe, and the
//!   model's own report fields.
//! * [`Engine`] pairs the two and exposes the driver-facing surface
//!   (event streams, dispatch, effects, boundaries), so the
//!   conservative-window driver (`crate::shard`) and the legacy scan run
//!   either model through the same code. [`Run::drive`] builds one engine
//!   per shard, drives them, and merges the reports, telemetry,
//!   recordings and replay accounting.
//!
//! The model is a type parameter, so every handler call is statically
//! dispatched.
//!
//! ## Why an empty fault plan is bit-identical
//!
//! A run with an empty plan takes exactly the float path of a run without
//! one: latency inflation multiplies only when a link's factor differs
//! from one, the origin delay adds only when positive, loss rolls and
//! backoff jitter are pure hashes of `(seed, job, attempt)` rather than
//! draws from any workload stream, and boundary faults fire only from the
//! plan's event list. Until a fault actually fires, the transport makes
//! the same RNG draws, float operations and effect emissions as an
//! unfaulted run.

use crate::obs::{ClusterObs, Probe};
use crate::report::{ClusterReport, CoopReport, LinkReport, NodeReport};
use crate::shard::{
    self, BoundaryEntry, Effect, ShardRunner, CLASS_ARRIVE, CLASS_CHECK, CLASS_DELIVER,
    CLASS_DEPART, CLASS_FAIL, CLASS_PREFETCH, CLASS_REQUEST, N_CLASSES,
};
use crate::sim::{Scope, ScopeIndex};
use crate::topology::ShardPlan;
use crate::Topology;
use cachesim::{FetchOrigin, Mshr, Waiter};
use coop::Router;
use queueing::{Completion, ServerTable};
use simcore::faults::{FaultConfig, FaultKind};
use simcore::obs::ObsConfig;
use simcore::sched::TimedQueues;
use simcore::stats::{BatchMeans, Welford};
use simcore::trace::{SpanEvent, SpanKind, TraceStore, TF_FALSE_HIT, TF_MEASURED, TF_PREFETCH};
use simcore::Scheduler;
use workload::{ItemId, TraceRecord};

/// Demand fetch or speculative transfer; `measured` marks jobs issued
/// inside the measurement window.
#[derive(Clone, Copy, Debug)]
pub(crate) enum JobKind {
    Demand { measured: bool },
    Prefetch { measured: bool },
}

/// Where a transfer is being served from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Dest {
    /// The item's origin shard, over the proxy's origin route.
    Origin,
    /// A peer proxy's cache, over the peer route.
    Peer(u32),
}

/// One transfer in the network of queues.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Job {
    /// Stable id: requesting proxy in the high bits, that proxy's job
    /// sequence number in the low — allocation is per proxy, so ids are
    /// identical under every sharding (they break `(time, id)` ties in
    /// the pending queues).
    pub(crate) id: u64,
    pub(crate) proxy: u32,
    pub(crate) shard: u32,
    pub(crate) dest: Dest,
    pub(crate) hop: usize,
    pub(crate) size: f64,
    /// Bytes this transfer has cost so far: `size`, plus `size` again for
    /// every false-hit fallback path — the per-transfer quantity good/bad
    /// prefetch accounting conserves.
    pub(crate) spent: f64,
    pub(crate) issued: f64,
    /// The item fetched; `ItemId(u64::MAX)` for open-loop transfers of no
    /// concrete item (the itemless flow and the Poissonised prefetches).
    pub(crate) item: ItemId,
    pub(crate) kind: JobKind,
    /// Whether this fetch owns an MSHR entry (false = a bypassed demand
    /// fetch on a full table). Failure settlement reclassifies exactly
    /// what the launch allocated.
    pub(crate) tracked: bool,
    /// Trace id when this job is head-sampled, 0 otherwise. Rides the job
    /// through effects/mailboxes so cross-shard hops keep recording.
    pub(crate) trace: u64,
    /// Per-trace record counter: `(trace, tseq)` totally orders the job's
    /// span records independent of sharding.
    pub(crate) tseq: u32,
}

impl Job {
    /// The link path this job is currently traversing.
    fn path<'t>(&self, topology: &'t Topology) -> &'t [usize] {
        match self.dest {
            Dest::Origin => topology.route(self.proxy as usize, self.shard as usize),
            Dest::Peer(q) => topology.peer_route(self.proxy as usize, q as usize),
        }
    }
}

/// Per-proxy accounting every model keeps the same way: request and job
/// counters, access-time statistics, byte volumes, delayed hits and fault
/// tallies. The transport owns it: launch charges timeouts, retries and
/// failovers here, and every access-time sample lands here through the
/// transport's hooks; the models' handlers feed the byte and job counters.
pub(crate) struct Ledger {
    job_seq: u64,
    /// Requests issued so far, warm-up included.
    pub(crate) issued: u64,
    /// Requests issued inside the measurement window.
    measured: u64,
    /// Measured requests served at once.
    hits: u64,
    access_times: BatchMeans,
    pub(crate) retrievals: Welford,
    pub(crate) total_job_time: f64,
    pub(crate) prefetch_jobs: u64,
    pub(crate) demand_bytes: f64,
    pub(crate) prefetch_bytes: f64,
    /// Measured requests settled as delayed hits (waiters on an
    /// outstanding fetch inside the measurement window).
    delayed_hits: u64,
    /// Residual waits of those measured delayed hits.
    residual: Welford,
    /// Fetch attempts declared failed at their timeout (fault runs only;
    /// this and the following counters stay zero under an empty plan).
    timeouts: u64,
    /// Re-attempts the retry budget paid for after a timeout.
    retries: u64,
    /// Peer-routed fetches rerouted to the origin because their peer
    /// route was dark at launch.
    failovers: u64,
    /// Fetches that exhausted their attempt budget (or were drained by a
    /// crash) and settled as failed.
    failed_fetches: u64,
    /// Measured requests (fetch owners and coalesced waiters) that settled
    /// with a failure instead of data — the unavailability numerator.
    measured_failed: u64,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            job_seq: 0,
            issued: 0,
            measured: 0,
            hits: 0,
            access_times: BatchMeans::new(20),
            retrievals: Welford::new(),
            total_job_time: 0.0,
            prefetch_jobs: 0,
            demand_bytes: 0.0,
            prefetch_bytes: 0.0,
            delayed_hits: 0,
            residual: Welford::new(),
            timeouts: 0,
            retries: 0,
            failovers: 0,
            failed_fetches: 0,
            measured_failed: 0,
        }
    }

    /// The next job id of global proxy `proxy`.
    pub(crate) fn next_job_id(&mut self, proxy: usize) -> u64 {
        self.job_seq += 1;
        ((proxy as u64) << 40) | self.job_seq
    }
}

/// What one proxy behaviour adds to the shared transport. Handlers get the
/// transport explicitly; proxy indices `i` are scope-local. The engine
/// ticks the obs grid, advances the scope's clock, and re-arms the fired
/// stream around every handler, so models only mutate state and issue
/// transfers.
pub(crate) trait ProxyModel: Send {
    /// Whether transfers may be served by peers, so the peer-check event
    /// class needs one stream per proxy.
    const PEERS: bool;

    /// When local proxy `i`'s next request arrives, while it has any left.
    fn request_due(&self, tx: &Transport<'_>, i: usize) -> Option<f64>;
    /// When local proxy `i`'s next prefetch issues.
    fn prefetch_due(&self, tx: &Transport<'_>, i: usize) -> Option<f64>;
    /// Serves local proxy `i`'s next request.
    fn on_request(&mut self, tx: &mut Transport<'_>, i: usize, router: Option<&Router>);
    /// Issues local proxy `i`'s next prefetch.
    fn on_prefetch(&mut self, tx: &mut Transport<'_>, i: usize, router: Option<&Router>);
    /// Does local proxy `i` hold `item` for a peer asking for it?
    fn holds(&self, i: usize, item: ItemId) -> bool;
    /// `job`'s response — or, with `false_hit`, a peer's "not here" —
    /// lands at its requesting proxy, local index `i`, at `t`.
    fn on_deliver(&mut self, tx: &mut Transport<'_>, i: usize, t: f64, job: Job, false_hit: bool);
    /// Local proxy `i`'s outstanding-fetch table, if it keeps one.
    fn mshr(&self, i: usize) -> Option<&Mshr<ItemId>>;
    fn mshr_mut(&mut self, i: usize) -> Option<&mut Mshr<ItemId>>;
    /// A crash wipes local proxy `i`'s data plane; the engine then drains
    /// its outstanding-fetch table as failed.
    fn crash(&mut self, _i: usize) {}
    /// Local proxy `i`'s buffered digest stream is lost.
    fn digest_loss(&mut self, _i: usize) {}
    /// Appends the scope's digest refresh payloads at an epoch boundary.
    fn refresh_payloads(&mut self, _scope: &Scope, _out: &mut Vec<BoundaryEntry>) {}
    /// Bytes cached across the scope (the occupancy probe).
    fn cache_bytes(&self) -> f64 {
        0.0
    }
    /// Fills the model's own fields of local proxy `i`'s report.
    fn report(&self, _i: usize, _lg: &Ledger, _node: &mut NodeReport) {}
    /// `(records consumed, max per-stream resident bytes)` when the scope
    /// replays a trace.
    fn replay_stats(&self, _ledgers: &[Ledger]) -> Option<(u64, usize)> {
        None
    }
}

/// One scope's network of queues: everything between the proxies.
///
/// The scope's links are the servers of one [`ServerTable`], indexed by
/// scope-local link id: a link is a row of scalars (clock, virtual time,
/// busy time, job count, carried bytes) plus one queue of the table's
/// pooled job family, so a link owns no object or heap block of its own,
/// whether processor-sharing or FIFO. A job on one of the scope's links
/// lives in the transport's slab, and the table carries only its `u32`
/// slot: entering a link parks the job in a free slot, leaving it frees
/// the slot again. The departures of every link event drain through one
/// reused buffer, so a link event allocates nothing once the slab, the
/// job pool and the buffer have grown.
///
/// Jobs waiting for a future instant (a link entry after propagation, a
/// peer check, a delivery, a failure settlement) wait in four more
/// [`TimedQueues`] families, one queue per local link or proxy. Each
/// family threads its queues through one node pool, so an idle link or
/// proxy costs a `(head, tail)` pair and no allocation of its own.
pub(crate) struct Transport<'a> {
    pub(crate) topology: &'a Topology,
    /// Origin shards; items partition over them by `item % n_shards`.
    pub(crate) n_shards: u64,
    pub(crate) scope: Scope,
    /// Local link servers, indexed by scope-local link id.
    servers: ServerTable,
    /// Per-local-proxy accounting.
    pub(crate) ledgers: Vec<Ledger>,
    /// Jobs currently on this scope's links, by slot. A job in a pending
    /// queue or in flight to another shard lives in its effect or queue
    /// entry instead.
    slab: Vec<Job>,
    /// Slab slots free for reuse; every slot is free once all links idle.
    free: Vec<u32>,
    /// Departure buffer reused by every link event.
    done: Vec<Completion<u32>>,
    /// Queued arrivals, one queue per local link (latency topologies
    /// only: a zero-latency hop enters its link at once).
    arrivals: TimedQueues<Job>,
    /// Queued peer-serve checks, one queue per local proxy.
    checks: TimedQueues<Job>,
    /// Queued response deliveries (`false_hit` flagged), one queue per
    /// local proxy.
    delivers: TimedQueues<(Job, bool)>,
    /// Queued fetch-failure settlements (fault runs only), one queue per
    /// local proxy.
    fails: TimedQueues<Job>,
    /// Fault schedule and retry policy when this run injects faults;
    /// `None` keeps every fault hook to one branch.
    faults: Option<&'a FaultConfig>,
    /// The run seed — packet-loss rolls and backoff jitter are pure hashes
    /// of it, never draws from the workload RNG streams.
    seed: u64,
    /// Cross-instant / cross-scope handoffs staged for the driver.
    effects: Vec<Effect>,
    /// Timer streams touched since the driver last re-synced.
    dirty: Vec<(usize, usize)>,
    t_end: f64,
    warm: u64,
    pub(crate) n_requests: u64,
    /// The probe seam, `Some` when the run is observed or recorded;
    /// `None` keeps every hook to a single branch.
    probe: Option<Box<Probe>>,
}

impl<'a> Transport<'a> {
    fn new(run: &Run<'a>, scope: Scope) -> Self {
        let topology = run.topology;
        let (n_links, n_proxies) = (scope.links.len(), scope.proxies.len());
        Transport {
            topology,
            n_shards: topology.n_shards() as u64,
            servers: ServerTable::new(scope.links.iter().map(|&g| {
                let link = &topology.links()[g];
                (link.bandwidth, link.discipline)
            })),
            ledgers: (0..n_proxies).map(|_| Ledger::new()).collect(),
            slab: Vec::new(),
            free: Vec::new(),
            done: Vec::new(),
            arrivals: TimedQueues::new(n_links),
            checks: TimedQueues::new(n_proxies),
            delivers: TimedQueues::new(n_proxies),
            fails: TimedQueues::new(n_proxies),
            faults: run.faults,
            seed: run.seed,
            effects: Vec::new(),
            dirty: Vec::new(),
            t_end: 0.0,
            warm: run.warmup as u64,
            n_requests: run.requests as u64,
            probe: None,
            scope,
        }
    }

    /// Counts local proxy `i`'s next request, returning whether it falls
    /// inside the measurement window and its head-sampled trace id; a
    /// recording run records the request `rec` builds.
    pub(crate) fn count_request(
        &mut self,
        i: usize,
        rec: impl FnOnce() -> TraceRecord,
    ) -> (bool, u64) {
        let lg = &mut self.ledgers[i];
        let idx = lg.issued;
        lg.issued += 1;
        let in_window = idx >= self.warm;
        if in_window {
            lg.measured += 1;
        }
        let rid = match self.probe.as_deref_mut() {
            Some(p) => p.request(i, self.scope.proxies[i] as u64, idx, rec),
            None => 0,
        };
        (in_window, rid)
    }

    /// Head-sampling decision for prefetch job `id` of global proxy `me`.
    pub(crate) fn prefetch_trace(&self, me: usize, id: u64) -> u64 {
        self.probe.as_deref().map_or(0, |p| p.prefetch_trace(me as u64, id))
    }

    /// Notes one predictor scoring call that produced `n` candidates.
    pub(crate) fn predictions(&mut self, n: usize) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.predictions(n as u64);
        }
    }

    /// Emits one job-lifecycle event of `job` — `kind` at `t` on `entity`
    /// — to the probe, advancing the job's per-trace sequence number.
    #[inline]
    pub(crate) fn span(
        &mut self,
        job: &mut Job,
        t: f64,
        kind: SpanKind,
        entity: u64,
        aux: f64,
        flags: u8,
    ) {
        if let Some(p) = self.probe.as_deref_mut() {
            let seq = job.tseq;
            job.tseq += 1;
            p.event(SpanEvent {
                trace: job.trace,
                seq,
                t,
                kind,
                entity,
                aux,
                item: job.item.0,
                flags,
            });
        }
    }

    /// Emits the single-record `kind` span (a hit or a settled wait) of
    /// request trace `id` at local proxy `i`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn point(
        &mut self,
        id: u64,
        i: usize,
        t: f64,
        kind: SpanKind,
        aux: f64,
        item: ItemId,
        flags: u8,
    ) {
        if let Some(p) = self.probe.as_deref_mut() {
            let entity = self.scope.proxies[i] as u64;
            p.event(SpanEvent { trace: id, seq: 0, t, kind, entity, aux, item: item.0, flags });
        }
    }

    /// One measured access time `x` of local proxy `i`: the ledger's
    /// sample and the latency histogram's, in one call.
    #[inline]
    fn access_time(&mut self, i: usize, x: f64) {
        self.ledgers[i].access_times.push(x);
        if let Some(p) = self.probe.as_deref_mut() {
            p.latency(x);
        }
    }

    /// Local proxy `i` serves a request from its cache at `t`: the `Hit`
    /// span of request trace `rid`, and for a `measured` request a hit
    /// with zero access time.
    pub(crate) fn hit(&mut self, i: usize, t: f64, rid: u64, item: ItemId, measured: bool) {
        let flags = if measured { TF_MEASURED } else { 0 };
        self.point(rid, i, t, SpanKind::Hit, 0.0, item, flags);
        if measured {
            self.ledgers[i].hits += 1;
            self.access_time(i, 0.0);
        }
    }

    /// `job` lands at its requesting proxy, local index `i`, at `t`: its
    /// `Deliver` span, and its sojourn in the ledger when measured. A
    /// measured demand fetch's sojourn is its request's access time.
    pub(crate) fn delivered(&mut self, i: usize, t: f64, job: &mut Job) {
        let jp = job.proxy as u64;
        self.span(job, t, SpanKind::Deliver, jp, 0.0, 0);
        let sojourn = t - job.issued;
        match job.kind {
            JobKind::Demand { measured: true } => {
                let lg = &mut self.ledgers[i];
                lg.retrievals.push(sojourn);
                lg.total_job_time += sojourn;
                self.access_time(i, sojourn);
            }
            JobKind::Prefetch { measured: true } => self.ledgers[i].total_job_time += sojourn,
            _ => {}
        }
    }

    /// Settles an MSHR entry's waiters at local proxy `i` at `t`, in FIFO
    /// order: one `Wait` span per waiter, and each measured waiter's
    /// residual wait recorded as an access time. Data ends the wait of a
    /// **delayed hit**; a `failed` fetch ends it with a failure instead,
    /// counted toward unavailability — graceful degradation is visible in
    /// `t̄`, not hidden from it. Returns the sum of all waiters' residual
    /// waits — the aggregate-delay charge the blocking key accrues beyond
    /// the fetch's own latency.
    pub(crate) fn settle_waiters(
        &mut self,
        i: usize,
        waiters: &[Waiter],
        t: f64,
        item: ItemId,
        failed: bool,
    ) -> f64 {
        let mut residual_sum = 0.0;
        for w in waiters {
            let flags = if w.measured { TF_MEASURED } else { 0 };
            self.point(w.trace, i, t, SpanKind::Wait, w.t, item, flags);
            let wait = t - w.t;
            residual_sum += wait;
            if w.measured {
                let lg = &mut self.ledgers[i];
                if failed {
                    lg.measured_failed += 1;
                } else {
                    lg.delayed_hits += 1;
                    lg.residual.push(wait);
                }
                self.access_time(i, wait);
            }
        }
        residual_sum
    }

    /// Propagation latency into global link `g` at `now`, inflated by any
    /// active degradation fault. The factor is 1.0 on healthy links and
    /// the multiply is skipped entirely, so unfaulted latencies stay
    /// bit-identical; a degrade fault guarantees factor ≥ 1, which keeps
    /// conservative-window lookaheads sound.
    fn entry_latency_at(&self, g: usize, now: f64) -> f64 {
        let base = self.topology.entry_latency(g);
        if let Some(fc) = self.faults {
            let f = fc.plan.link_latency_factor(g, now);
            if f != 1.0 {
                return base * f;
            }
        }
        base
    }

    /// Summed return propagation of `route` at `now`, per-hop inflated
    /// like [`Transport::entry_latency_at`].
    fn return_latency_at(&self, route: &[usize], now: f64) -> f64 {
        match self.faults {
            Some(fc) => route
                .iter()
                .map(|&g| {
                    let base = self.topology.entry_latency(g);
                    let f = fc.plan.link_latency_factor(g, now);
                    if f != 1.0 {
                        base * f
                    } else {
                        base
                    }
                })
                .sum(),
            None => self.topology.return_latency(route),
        }
    }

    /// Stages `job`'s entry into global link `g` at `now` plus the link's
    /// propagation latency (equal to `now` on zero-latency hops).
    fn send_arrive(&mut self, g: usize, now: f64, job: Job) {
        let tau = now + self.entry_latency_at(g, now);
        debug_assert!(tau >= now);
        self.effects.push(Effect::Arrive { link: g as u32, t: tau, job });
    }

    /// Stages the peer-serve check of `job` at proxy `q` (the far end of
    /// the peer route's last hop).
    fn send_check(&mut self, last_link: usize, now: f64, job: Job) {
        let Dest::Peer(q) = job.dest else { unreachable!("check on an origin transfer") };
        let tau = now + self.entry_latency_at(last_link, now);
        self.effects.push(Effect::Check { q, t: tau, job });
    }

    /// Stages `job`'s response delivery back at its requesting proxy,
    /// after the return propagation of `route` — plus any active origin
    /// brownout delay on origin responses.
    fn send_deliver(&mut self, route: &[usize], now: f64, job: Job, false_hit: bool) {
        let mut tau = now + self.return_latency_at(route, now);
        if matches!(job.dest, Dest::Origin) {
            if let Some(fc) = self.faults {
                let d = fc.plan.origin_delay(now);
                if d > 0.0 {
                    tau += d;
                }
            }
        }
        self.effects.push(Effect::Deliver { p: job.proxy, t: tau, job, false_hit });
    }

    /// Any link on `job`'s current path down at `t`? Origin routes also
    /// consult the origin's own blackout state. A pure query of the static
    /// plan — identical under every sharding.
    fn route_dark(&self, job: &Job, t: f64) -> bool {
        let Some(fc) = self.faults else { return false };
        if matches!(job.dest, Dest::Origin) && fc.plan.origin_dark(t) {
            return true;
        }
        job.path(self.topology).iter().any(|&g| fc.plan.link_down(g, t))
    }

    /// Does attempt `attempt` of `job`, launched at `t`, make it? Dark
    /// routes always fail; degraded links lose the attempt with a
    /// deterministic per-`(job, attempt)` roll.
    fn attempt_survives(&self, fc: &FaultConfig, job: &Job, attempt: u32, t: f64) -> bool {
        if self.route_dark(job, t) {
            return false;
        }
        !job.path(self.topology)
            .iter()
            .any(|&g| fc.plan.attempt_lost(self.seed, g, job.id, attempt, t))
    }

    /// Injects `job` onto the first link of its path at time `t`.
    ///
    /// Under a fault plan this is where the whole timeout–retry–backoff
    /// schedule resolves, **analytically**: the plan is static, so each
    /// attempt's fate (dark route, lost packet, or success) is a pure
    /// function of its launch instant. Each failed attempt charges
    /// `timeout + backoff(k)` of pure client-side wall clock (the lost
    /// attempt never occupies a link); the surviving attempt enters the
    /// network at its delayed instant; exhausting the budget stages a
    /// `Fail` effect at the last attempt's timeout expiry. A dark peer
    /// route fails over to the origin before spending an attempt — the
    /// cooperative mesh degrades instead of stalling (quarantined crash
    /// victims are already filtered at resolution). Speculative transfers
    /// get exactly one attempt: a prefetch is never worth a retry budget.
    pub(crate) fn launch(&mut self, t: f64, mut job: Job) {
        let Some(fc) = self.faults else {
            let first = job.path(self.topology)[0];
            self.send_arrive(first, t, job);
            return;
        };
        let attempts = match job.kind {
            JobKind::Demand { .. } => fc.retry.attempts(),
            JobKind::Prefetch { .. } => 1,
        };
        let i = self.scope.proxy_local(job.proxy as usize).expect("launch in scope");
        let mut t_att = t;
        for attempt in 0..attempts {
            if matches!(job.dest, Dest::Peer(_)) && self.route_dark(&job, t_att) {
                self.ledgers[i].failovers += 1;
                job.dest = Dest::Origin;
                job.hop = 0;
            }
            if self.attempt_survives(fc, &job, attempt, t_att) {
                let first = job.path(self.topology)[0];
                self.send_arrive(first, t_att, job);
                return;
            }
            self.ledgers[i].timeouts += 1;
            let expiry = t_att + fc.retry.timeout;
            if attempt + 1 < attempts {
                self.ledgers[i].retries += 1;
                let next = expiry + fc.retry.backoff(self.seed, job.id, attempt);
                let jp = job.proxy as u64;
                self.span(&mut job, next, SpanKind::Retry, jp, expiry, 0);
                t_att = next;
            } else {
                self.effects.push(Effect::Fail { p: job.proxy, t: expiry, job });
                return;
            }
        }
    }

    /// Traces `job`'s issue — `decided` is when the decision to fetch was
    /// made — and launches it at `t`.
    pub(crate) fn issue(&mut self, mut job: Job, t: f64, decided: f64, flags: u8) {
        let jp = job.proxy as u64;
        self.span(&mut job, t, SpanKind::Issue, jp, decided, flags);
        self.launch(t, job);
    }

    /// A link departure event on local link `l` at time `t`.
    fn on_link(&mut self, t: f64, l: usize) {
        let g_l = self.scope.links[l];
        // Taken out for the loop, whose body needs `&mut self`; put back
        // (empty, capacity kept) at the end.
        let mut done = std::mem::take(&mut self.done);
        self.servers.on_event(l, t, &mut done);
        let bandwidth = self.topology.links()[g_l].bandwidth;
        for c in done.drain(..) {
            let mut job = self.slab[c.tag as usize];
            self.free.push(c.tag);
            self.servers.carry(l, job.size);
            let service = job.size / bandwidth;
            self.span(&mut job, t, SpanKind::Dequeue, g_l as u64, service, 0);
            let route = job.path(self.topology);
            if job.hop + 1 < route.len() {
                // Tandem hop: forward to the next link unchanged.
                let mut fwd = job;
                fwd.hop += 1;
                self.send_arrive(route[fwd.hop], t, fwd);
                continue;
            }
            match job.dest {
                // A peer transfer must find the entry actually present at
                // the peer — checked at the peer itself (its cache is that
                // shard's state), after the last hop's propagation.
                Dest::Peer(_) => self.send_check(g_l, t, job),
                Dest::Origin => self.send_deliver(route, t, job, false),
            }
        }
        self.done = done;
    }

    /// `job` enters local link `l`'s server at `t`.
    fn arrive_now(&mut self, l: usize, t: f64, mut job: Job) {
        let g_l = self.scope.links[l] as u64;
        self.span(&mut job, t, SpanKind::Enqueue, g_l, 0.0, 0);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = job;
                slot
            }
            None => {
                self.slab.push(job);
                u32::try_from(self.slab.len() - 1)
                    .expect("fewer than 2^32 jobs on one scope's links")
            }
        };
        self.servers.arrive(l, t, job.size, slot);
        self.dirty.push((CLASS_DEPART, l));
    }
}

/// Moves every element of `src` to the end of `out`. The drivers hand in
/// an empty `out` on almost every event, and then the two buffers are
/// swapped instead of copied (an append copies through a `memcpy` call).
fn move_into<T>(src: &mut Vec<T>, out: &mut Vec<T>) {
    if out.is_empty() {
        std::mem::swap(src, out);
    } else {
        out.append(src);
    }
}

/// One scope of simulation state — the shared transport plus a proxy
/// model — with one handler per event kind. Drivers (`crate::shard` and
/// the legacy scan) own only event *selection* and effect routing; every
/// state transition lives here or in the model, so no two drivers can
/// diverge semantically.
pub(crate) struct Engine<'a, M> {
    tx: Transport<'a>,
    model: M,
}

/// `(cache occupancy bytes, outstanding fetches)` across a scope of
/// `n_proxies` proxies.
fn aggregates<M: ProxyModel>(model: &M, n_proxies: usize) -> (f64, f64) {
    let outstanding: usize = (0..n_proxies).map(|i| model.mshr(i).map_or(0, Mshr::len)).sum();
    (model.cache_bytes(), outstanding as f64)
}

impl<M: ProxyModel> Engine<'_, M> {
    /// Flushes every sampling-grid point at or before `t`. Called at the
    /// entry of every dispatch and `apply_now` **before** any state
    /// mutation at `t`, so a grid point `g` always samples "all events
    /// strictly before `g`" — the same state under every sharding.
    fn obs_tick(&mut self, t: f64) {
        let Some(p) = self.tx.probe.as_deref_mut() else { return };
        if let Some(o) = p.obs.as_mut() {
            let (model, n) = (&self.model, self.tx.scope.proxies.len());
            o.tick(t, &self.tx.servers, || aggregates(model, n));
        }
    }

    /// The peer-serve check of `job` at local proxy `i` (= `job.dest`'s
    /// peer): does the peer actually hold the item? Either way the answer
    /// travels back to the requester over the peer route.
    fn check_now(&mut self, i: usize, t: f64, mut job: Job) {
        let tx = &mut self.tx;
        tx.t_end = t;
        let me = tx.scope.proxies[i];
        debug_assert!(matches!(job.dest, Dest::Peer(q) if me == q as usize));
        let holds = self.model.holds(i, job.item);
        let (aux, flags) = if holds { (1.0, 0) } else { (0.0, TF_FALSE_HIT) };
        tx.span(&mut job, t, SpanKind::Check, me as u64, aux, flags);
        let route = job.path(tx.topology);
        tx.send_deliver(route, t, job, !holds);
    }

    /// `job`'s response (or false-hit notice) lands at its requesting
    /// proxy — local index `i` — and the model settles it.
    fn deliver_now(&mut self, i: usize, t: f64, job: Job, false_hit: bool) {
        self.tx.t_end = t;
        debug_assert_eq!(self.tx.scope.proxies[i], job.proxy as usize);
        self.model.on_deliver(&mut self.tx, i, t, job, false_hit);
    }

    /// `job`'s fetch exhausted its attempt budget — settle it (and every
    /// coalesced waiter) as **failed** at `t`, the last attempt's timeout
    /// expiry. The MSHR entry is reclassified with a failure outcome so
    /// the conservation law `origin_fetches + coalesced + failed ==
    /// demand_misses` stays exact, and the bytes of the never-launched leg
    /// are refunded: a transfer that never entered a link is client pain,
    /// not network load.
    fn fail_now(&mut self, i: usize, t: f64, mut job: Job) {
        let tx = &mut self.tx;
        tx.t_end = t;
        debug_assert_eq!(tx.scope.proxies[i], job.proxy as usize);
        let jp = job.proxy as u64;
        let pf = if matches!(job.kind, JobKind::Prefetch { .. }) { TF_PREFETCH } else { 0 };
        tx.span(&mut job, t, SpanKind::Failed, jp, 0.0, pf);
        tx.ledgers[i].failed_fetches += 1;
        let mshr = self.model.mshr_mut(i);
        let entry = match job.kind {
            JobKind::Demand { measured } => {
                let lg = &mut tx.ledgers[i];
                lg.demand_bytes -= job.size;
                if measured {
                    let sojourn = t - job.issued;
                    lg.measured_failed += 1;
                    lg.total_job_time += sojourn;
                    tx.access_time(i, sojourn);
                }
                mshr.and_then(|m| {
                    if !job.tracked {
                        // A bypassed fetch has no entry; reclassify by volume.
                        m.fail_untracked(job.size);
                        None
                    } else if m
                        .entry(&job.item)
                        .is_some_and(|e| e.origin == FetchOrigin::Demand && e.issued == job.issued)
                    {
                        m.fail(&job.item)
                    } else {
                        // The entry is gone (a crash drained and reclassified
                        // it) or belongs to a newer fetch generation — nothing
                        // of ours left to settle.
                        None
                    }
                })
            }
            JobKind::Prefetch { .. } => {
                tx.ledgers[i].prefetch_bytes -= job.size;
                // Duplicate reservations are filtered on the table, so a
                // Prefetch-origin entry for this item is this job's. (The
                // open loop's itemless prefetches never match one.)
                mshr.and_then(|m| {
                    let ours =
                        m.entry(&job.item).is_some_and(|e| e.origin == FetchOrigin::Prefetch);
                    if ours {
                        m.fail(&job.item)
                    } else {
                        None
                    }
                })
            }
        };
        if let Some(entry) = entry {
            tx.settle_waiters(i, &entry.waiters, t, job.item, true);
        }
    }

    /// A crash of local proxy `i` at `t`: the model drops its data plane,
    /// and every outstanding fetch settles as failed — each drained demand
    /// entry counts as a failed fetch, and its waiters end with a failure.
    /// Anything already on the wire still lands, on a cold proxy.
    fn crash(&mut self, i: usize, t: f64) {
        let tx = &mut self.tx;
        tx.t_end = tx.t_end.max(t);
        self.model.crash(i);
        let Some(mshr) = self.model.mshr_mut(i) else { return };
        for (item, entry) in mshr.drain_failed() {
            if entry.origin == FetchOrigin::Demand {
                tx.ledgers[i].failed_fetches += 1;
            }
            tx.settle_waiters(i, &entry.waiters, t, item, true);
        }
    }
}

/// The driver-facing surface: event streams addressed as `(class, local
/// index)`, their dispatch, effect exchange and the boundary hooks.
impl<M: ProxyModel> Engine<'_, M> {
    /// Local stream counts per class, in class order.
    pub(crate) fn class_counts(&self) -> [usize; N_CLASSES] {
        let (l, p) = (self.tx.servers.len(), self.tx.scope.proxies.len());
        [l, l, if M::PEERS { p } else { 0 }, p, p, p, p]
    }

    /// Global entity id of local stream `(class, idx)` — the global tie
    /// rank within the class.
    pub(crate) fn global_id(&self, class: usize, idx: usize) -> usize {
        match class {
            CLASS_DEPART | CLASS_ARRIVE => self.tx.scope.links[idx],
            _ => self.tx.scope.proxies[idx],
        }
    }

    /// Next due time of local stream `(class, idx)`.
    pub(crate) fn due(&self, class: usize, idx: usize) -> Option<f64> {
        let tx = &self.tx;
        match class {
            CLASS_DEPART => tx.servers.next_event(idx),
            CLASS_ARRIVE => tx.arrivals.next_time(idx),
            CLASS_CHECK => tx.checks.next_time(idx),
            CLASS_DELIVER => tx.delivers.next_time(idx),
            CLASS_REQUEST => self.model.request_due(tx, idx),
            CLASS_PREFETCH => self.model.prefetch_due(tx, idx),
            CLASS_FAIL => tx.fails.next_time(idx),
            _ => unreachable!("unknown class {class}"),
        }
    }

    /// Fires stream `(class, idx)` at `t`. Consequences for entities in
    /// scope at later times are queued internally; every handoff at the
    /// same instant or out of scope is emitted as an [`Effect`].
    pub(crate) fn dispatch(&mut self, class: usize, idx: usize, t: f64, router: Option<&Router>) {
        self.obs_tick(t);
        self.tx.t_end = t;
        match class {
            CLASS_DEPART => self.tx.on_link(t, idx),
            CLASS_ARRIVE => {
                while let Some(job) = self.tx.arrivals.pop_due(idx, t) {
                    self.tx.arrive_now(idx, t, job);
                }
            }
            CLASS_CHECK => {
                while let Some(job) = self.tx.checks.pop_due(idx, t) {
                    self.check_now(idx, t, job);
                }
            }
            CLASS_DELIVER => {
                while let Some((job, false_hit)) = self.tx.delivers.pop_due(idx, t) {
                    self.deliver_now(idx, t, job, false_hit);
                }
            }
            CLASS_REQUEST => self.model.on_request(&mut self.tx, idx, router),
            CLASS_PREFETCH => self.model.on_prefetch(&mut self.tx, idx, router),
            CLASS_FAIL => {
                while let Some(job) = self.tx.fails.pop_due(idx, t) {
                    self.fail_now(idx, t, job);
                }
            }
            _ => unreachable!("unknown class {class}"),
        }
        // The fired stream's due time moved; a request also arms (closed
        // loop) or ends (open loop) its proxy's prefetch stream.
        self.tx.dirty.push((class, idx));
        if class == CLASS_REQUEST {
            self.tx.dirty.push((CLASS_PREFETCH, idx));
        }
    }

    /// Applies an effect owned by this scope *now*, at its timestamp
    /// (`e.time() == t`). May emit further effects.
    pub(crate) fn apply_now(&mut self, e: Effect, t: f64) {
        debug_assert_eq!(e.time(), t);
        // A same-instant effect can land on a scope whose own dispatch at
        // `t` has not fired yet — tick first so grid samples stay "state
        // before `t`" under every sharding.
        self.obs_tick(t);
        match e {
            Effect::Arrive { link, job, .. } => {
                let l = self.tx.scope.link_local(link as usize).expect("arrive in scope");
                self.tx.arrive_now(l, t, job);
            }
            Effect::Check { q, job, .. } => {
                let i = self.tx.scope.proxy_local(q as usize).expect("check in scope");
                self.check_now(i, t, job);
            }
            Effect::Deliver { p, job, false_hit, .. } => {
                let i = self.tx.scope.proxy_local(p as usize).expect("deliver in scope");
                self.deliver_now(i, t, job, false_hit);
            }
            Effect::Fail { p, job, .. } => {
                let i = self.tx.scope.proxy_local(p as usize).expect("fail in scope");
                self.fail_now(i, t, job);
            }
        }
    }

    /// Queues an effect owned by this scope for its (future) timestamp.
    pub(crate) fn enqueue(&mut self, e: Effect) {
        let tx = &mut self.tx;
        match e {
            Effect::Arrive { link, t, job } => {
                let l = tx.scope.link_local(link as usize).expect("arrive in scope");
                tx.arrivals.push(l, t, job.id, job);
                tx.dirty.push((CLASS_ARRIVE, l));
            }
            Effect::Check { q, t, job } => {
                let i = tx.scope.proxy_local(q as usize).expect("check in scope");
                tx.checks.push(i, t, job.id, job);
                tx.dirty.push((CLASS_CHECK, i));
            }
            Effect::Deliver { p, t, job, false_hit } => {
                let i = tx.scope.proxy_local(p as usize).expect("deliver in scope");
                tx.delivers.push(i, t, job.id, (job, false_hit));
                tx.dirty.push((CLASS_DELIVER, i));
            }
            Effect::Fail { p, t, job } => {
                let i = tx.scope.proxy_local(p as usize).expect("fail in scope");
                tx.fails.push(i, t, job.id, job);
                tx.dirty.push((CLASS_FAIL, i));
            }
        }
    }

    /// Whether this scope owns the entity the effect targets.
    pub(crate) fn owns(&self, e: &Effect) -> bool {
        let scope = &self.tx.scope;
        match e {
            Effect::Arrive { link, .. } => scope.link_local(*link as usize).is_some(),
            Effect::Check { q, .. } => scope.proxy_local(*q as usize).is_some(),
            Effect::Deliver { p, .. } | Effect::Fail { p, .. } => {
                scope.proxy_local(*p as usize).is_some()
            }
        }
    }

    /// Moves the effects emitted since the last take into `out`,
    /// preserving emission order.
    pub(crate) fn take_effects(&mut self, out: &mut Vec<Effect>) {
        move_into(&mut self.tx.effects, out);
    }

    /// Streams touched since the last drain, as `(class, local idx)`.
    pub(crate) fn drain_dirty(&mut self, out: &mut Vec<(usize, usize)>) {
        move_into(&mut self.tx.dirty, out);
    }

    /// Re-arms local link `idx`'s departure timer under `key` — a no-op
    /// unless the link's next departure may have moved (see
    /// [`ServerTable::sync_timer`]).
    pub(crate) fn sync_link_timer(&mut self, idx: usize, sched: &mut Scheduler, key: usize) {
        self.tx.servers.sync_timer(idx, sched, key);
    }

    /// Appends this scope's boundary payloads (cooperative models only).
    pub(crate) fn refresh_payloads(&mut self, out: &mut Vec<BoundaryEntry>) {
        self.model.refresh_payloads(&self.tx.scope, out);
    }

    /// Applies a boundary fault (proxy crash / digest loss) at `t` to
    /// whatever part of the faulted entity this scope owns; a no-op for
    /// scopes that own none of it. Router-side consequences (quarantine)
    /// are the driver's job.
    pub(crate) fn apply_fault(&mut self, t: f64, kind: &FaultKind) {
        match *kind {
            FaultKind::ProxyCrash { proxy } => {
                if let Some(i) = self.tx.scope.proxy_local(proxy) {
                    self.crash(i, t);
                }
            }
            FaultKind::DigestLoss { proxy } => {
                if let Some(i) = self.tx.scope.proxy_local(proxy) {
                    self.model.digest_loss(i);
                }
            }
            _ => debug_assert!(false, "non-boundary fault {kind:?} routed to an engine"),
        }
    }
}

/// Builds global proxy `proxy`'s report block (local index `i` of `e`):
/// the ledger's fields, the outstanding-fetch table's when the model keeps
/// one, then the model's own.
fn node_report<M: ProxyModel>(
    e: &Engine<'_, M>,
    i: usize,
    proxy: usize,
    n_requests: u64,
) -> NodeReport {
    let lg = &e.tx.ledgers[i];
    let mshr = e.model.mshr(i);
    // Every demand miss launched a fetch that succeeds, coalesced onto
    // one, or failed — faults must not leak requests out of the ledger.
    debug_assert!(
        mshr.is_none_or(Mshr::conservation_ok),
        "proxy {proxy}: MSHR conservation law violated \
         (origin_fetches + coalesced + failed != demand_misses)"
    );
    let (mean_access, ci) = lg.access_times.mean_ci();
    let measured = lg.measured.max(1);
    let mut node = NodeReport {
        proxy,
        measured_requests: lg.measured,
        hit_ratio: lg.hits as f64 / measured as f64,
        mean_access_time: mean_access,
        access_time_ci95: ci,
        mean_retrieval_time: lg.retrievals.mean(),
        retrieval_per_request: lg.total_job_time / measured as f64,
        prefetches_per_request: lg.prefetch_jobs as f64 / n_requests.max(1) as f64,
        goodput_bytes: None,
        badput_bytes: None,
        demand_bytes: lg.demand_bytes,
        cache_used_bytes: None,
        peer_bytes: None,
        peer_fetches: None,
        peer_false_hits: None,
        mean_threshold: None,
        rho_prime_estimate: None,
        h_prime_estimate: None,
        delayed_hits: mshr.map(|_| lg.delayed_hits),
        coalesced_requests: mshr.map(Mshr::coalesced),
        origin_fetches: mshr.map(Mshr::origin_fetches),
        mean_residual_wait: (lg.delayed_hits > 0).then(|| lg.residual.mean()),
        mean_waiter_depth: mshr.and_then(Mshr::waiter_depth_mean),
        mshr_rejections: mshr.map(Mshr::rejections),
        demand_misses: mshr.map(Mshr::demand_misses),
        mshr_failed: mshr.map(Mshr::failed),
        timeouts: lg.timeouts,
        retries: lg.retries,
        failovers: lg.failovers,
        failed_fetches: lg.failed_fetches,
        lost_entries: 0,
        unavailability: if lg.measured > 0 {
            lg.measured_failed as f64 / lg.measured as f64
        } else {
            0.0
        },
    };
    e.model.report(i, lg, &mut node);
    node
}

/// Assembles the cluster report from the (possibly sharded) engine
/// scopes, iterating every per-proxy and per-link aggregate in **global**
/// index order so the floating-point reductions are identical under every
/// partitioning.
pub(crate) fn merge_reports<M: ProxyModel>(
    topology: &Topology,
    engines: Vec<Engine<'_, M>>,
    router: Option<Router>,
) -> ClusterReport {
    let n_requests = engines[0].tx.n_requests;
    let t_end = engines.iter().map(|e| e.tx.t_end).fold(0.0, f64::max);

    let n_proxies = topology.n_proxies();
    let index = ScopeIndex::new(topology, engines.iter().map(|e| &e.tx.scope));
    let nodes: Vec<NodeReport> = (0..n_proxies)
        .map(|g| {
            let (ei, li) = index.proxy(g);
            node_report(&engines[ei], li, g, n_requests)
        })
        .collect();

    let links: Vec<LinkReport> = topology
        .links()
        .iter()
        .enumerate()
        .map(|(g, spec)| {
            let (ei, li) = index.link(g);
            let servers = &engines[ei].tx.servers;
            LinkReport {
                name: spec.name.clone(),
                utilisation: if t_end > 0.0 { servers.busy_time(li) / t_end } else { 0.0 },
                bytes_carried: servers.bytes_carried(li),
                jobs_completed: servers.jobs_completed(li),
            }
        })
        .collect();

    let total_measured: u64 = nodes.iter().map(|n| n.measured_requests).sum();
    let mean_access_time =
        nodes.iter().map(|n| n.mean_access_time * n.measured_requests as f64).sum::<f64>()
            / total_measured.max(1) as f64;
    let total_bytes: f64 = (0..n_proxies)
        .map(|g| {
            let (ei, li) = index.proxy(g);
            let lg = &engines[ei].tx.ledgers[li];
            lg.demand_bytes + lg.prefetch_bytes
        })
        .sum();
    let coop = router.map(|r| CoopReport {
        router: r.stats(),
        peer_fetches: nodes.iter().filter_map(|n| n.peer_fetches).sum(),
        peer_false_hits: nodes.iter().filter_map(|n| n.peer_false_hits).sum(),
    });

    ClusterReport {
        nodes,
        links,
        mean_access_time,
        bytes_per_request: total_bytes / (n_requests * n_proxies as u64).max(1) as f64,
        duration: t_end,
        coop,
    }
}

/// What replaying a trace cost: consumed records and the high-water mark
/// of any single proxy's resident trace buffer — pinned O(chunk-size), not
/// O(trace), by the replay tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplayStats {
    /// Records consumed across all proxies.
    pub records_replayed: u64,
    /// Max per-stream resident trace bytes observed.
    pub peak_resident_bytes: usize,
}

/// Side outputs of a run beyond the report/obs pair.
pub(crate) struct RunExtras {
    /// The recorded request trace, merged in global time order, when
    /// recording was requested.
    pub(crate) recorded: Option<Vec<TraceRecord>>,
    /// Replay accounting, when the workload replayed a trace.
    pub(crate) replay: Option<ReplayStats>,
}

/// Merges per-proxy recorded request streams (each already time-ordered)
/// into one globally ordered trace: by time, ties by global proxy id, then
/// by per-proxy sequence — deterministic under every sharding.
fn merge_recorded(parts: Vec<(usize, Vec<TraceRecord>)>) -> Vec<TraceRecord> {
    let mut tagged: Vec<(usize, usize, TraceRecord)> = parts
        .into_iter()
        .flat_map(|(g, recs)| recs.into_iter().enumerate().map(move |(s, r)| (g, s, r)))
        .collect();
    tagged.sort_by(|a, b| a.2.time.total_cmp(&b.2.time).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    tagged.into_iter().map(|(_, _, r)| r).collect()
}

/// One run's parameters, shared by every shard engine it builds.
pub(crate) struct Run<'a> {
    pub(crate) topology: &'a Topology,
    pub(crate) requests: usize,
    pub(crate) warmup: usize,
    pub(crate) seed: u64,
    /// The plan the driver executes.
    pub(crate) plan: &'a ShardPlan,
    /// The shard count telemetry reports: the requested count clamped to
    /// the proxy count, which a zero-lookahead cut runs as one shard.
    pub(crate) shards: usize,
    /// Observability, when requested (a disabled config observes nothing).
    pub(crate) obs: Option<&'a ObsConfig>,
    /// Record every issued request.
    pub(crate) record: bool,
    pub(crate) faults: Option<&'a FaultConfig>,
}

impl<'a> Run<'a> {
    /// The engine of shard `s`, its proxy model built by `model` over the
    /// shard's scope.
    pub(crate) fn shard<M: ProxyModel>(
        &self,
        s: usize,
        model: impl FnOnce(&Scope) -> M,
    ) -> Engine<'a, M> {
        let scope = Scope::shard(self.topology, self.plan, s);
        let model = model(&scope);
        Engine { tx: Transport::new(self, scope), model }
    }

    /// Runs every shard of the plan under [`shard::drive`] and merges the
    /// results. The report is bit-identical with observability, tracing or
    /// recording on or off (pinned by the parity matrix in
    /// `shard_parity.rs`); the telemetry is `Some` exactly when an obs
    /// config was passed, and an empty shell when that config is disabled.
    pub(crate) fn drive<M: ProxyModel>(
        &self,
        router: Option<Router>,
        model: impl Fn(&Scope) -> M,
    ) -> (ClusterReport, Option<ClusterObs>, RunExtras) {
        // Validated here, once, so a bad policy fails before any shard is
        // built.
        if let Some(fc) = self.faults {
            fc.retry.validate();
        }
        // Boundary faults (crashes, digest losses) apply at globally
        // synchronised driver boundaries; everything else is a pure time
        // query the transport makes directly against the plan.
        let boundary = self.faults.map(|f| f.plan.boundary_events()).unwrap_or_default();
        let obs_cfg = self.obs.filter(|c| c.enabled);
        // Series sample on the explicit grid, or else on the cooperative
        // digest epoch (a fresh router's next refresh is its first epoch
        // boundary); without either, series probes stay off.
        let grid = match obs_cfg {
            Some(c) if c.sample_every > 0.0 => c.sample_every,
            Some(_) => router.as_ref().map_or(0.0, Router::next_refresh),
            None => 0.0,
        };
        let runners: Vec<ShardRunner<'a, M>> = (0..self.plan.n_shards())
            .map(|s| {
                let mut engine = self.shard(s, &model);
                let scope = &engine.tx.scope;
                engine.tx.probe = Probe::new(obs_cfg, grid, self.record, self.topology, scope);
                match obs_cfg {
                    Some(cfg) => ShardRunner::new(engine).with_obs(s, cfg),
                    None => ShardRunner::new(engine),
                }
            })
            .collect();
        let (runners, router) = shard::drive(runners, router, self.plan, &boundary);

        let mut engines = Vec::with_capacity(runners.len());
        let mut profiles = Vec::new();
        let mut flight = Vec::new();
        for r in runners {
            let (core, robs) = r.into_parts();
            if let Some(o) = robs {
                flight.extend(o.flight.records());
                profiles.push(o.profile);
            }
            engines.push(core);
        }

        // Each probe's consumers, merged: the registries after a final grid
        // flush at the cluster-wide end, the span buffers concatenated in
        // shard order (the store's total sort makes the merge
        // order-independent anyway), and the recorded requests by global
        // proxy.
        let t_end = engines.iter().map(|e| e.tx.t_end).fold(0.0, f64::max);
        let mut registries = Vec::new();
        let mut events = Vec::new();
        let mut recordings = Vec::new();
        for e in &mut engines {
            let Some(probe) = e.tx.probe.take() else { continue };
            let Probe { obs, trace, recorder } = *probe;
            if let Some(mut o) = obs {
                o.tick(t_end, &e.tx.servers, || aggregates(&e.model, e.tx.scope.proxies.len()));
                registries.push(o.finish());
            }
            events.extend(trace.map(|b| b.events).unwrap_or_default());
            if let Some(recs) = recorder {
                recordings.extend(e.tx.scope.proxies.iter().copied().zip(recs));
            }
        }

        let cluster_obs = self.obs.map(|c| {
            if !c.enabled {
                return ClusterObs::empty(self.shards, self.plan.driver_label());
            }
            let traces =
                (c.trace_every > 0).then(|| TraceStore::from_events(events, c.trace_every));
            let mut out = crate::obs::assemble(
                registries,
                profiles,
                flight,
                traces,
                self.shards,
                self.plan.driver_label(),
                grid,
                t_end,
            );
            // The router's counters become registry metrics (digest traffic
            // is the cooperative layer's headline overhead).
            if let Some(r) = router.as_ref() {
                let s = r.stats();
                for (name, v) in [
                    ("coop.digest_epochs", s.digest_epochs),
                    ("coop.vnode_migrations", s.vnode_migrations),
                    ("coop.digest_bytes", s.digest_bytes),
                    ("coop.delta_ops", s.delta_ops),
                    ("coop.delta_flushes", s.delta_flushes),
                    ("coop.snapshot_flushes", s.snapshot_flushes),
                ] {
                    let id = out.registry.counter(name);
                    out.registry.inc(id, v);
                }
            }
            out
        });

        let recorded = self.record.then(|| merge_recorded(recordings));
        let replay = engines
            .iter()
            .filter_map(|e| e.model.replay_stats(&e.tx.ledgers))
            .reduce(|(r1, p1), (r2, p2)| (r1 + r2, p1.max(p2)))
            .map(|(records_replayed, peak_resident_bytes)| ReplayStats {
                records_replayed,
                peak_resident_bytes,
            });

        let report = merge_reports(self.topology, engines, router);
        (report, cluster_obs, RunExtras { recorded, replay })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_loop::{ClosedLoop, EngineWorkload, SharedWebs};
    use crate::shard::ShardRunner;
    use crate::static_mode::OpenLoop;
    use crate::{
        AdaptiveWorkload, CandidateSource, CooperativeWorkload, ProxyPolicy, StaticProxy,
        StaticWorkload,
    };
    use coop::CoopConfig;
    use simcore::dist::Exponential;
    use simcore::faults::{FaultEvent, FaultPlan, RetryPolicy};
    use workload::synth_web::SynthWebConfig;

    /// Drives every shard of a `shards`-way run to its end and checks that
    /// each scope's job slab is entirely free again: every link has idled,
    /// and no job was stranded in its slot. Every link's job queue and
    /// every pending queue has drained too, and every node of each queue
    /// family's pool is back on its free list.
    fn assert_slabs_free<M: ProxyModel>(
        topology: &Topology,
        shards: usize,
        faults: Option<&FaultConfig>,
        router: Option<Router>,
        model: impl Fn(&Scope) -> M,
    ) {
        let plan = ShardPlan::partition(topology, shards);
        let run = Run {
            topology,
            requests: 600,
            warmup: 120,
            seed: 7,
            plan: &plan,
            shards,
            obs: None,
            record: false,
            faults,
        };
        let boundary = faults.map(|f| f.plan.boundary_events()).unwrap_or_default();
        let runners = (0..shards).map(|s| ShardRunner::new(run.shard(s, &model))).collect();
        let (runners, _) = shard::drive(runners, router, &plan, &boundary);
        for (s, r) in runners.into_iter().enumerate() {
            let tx = r.into_parts().0.tx;
            assert!(!tx.slab.is_empty(), "shard {s}: no job ever entered a link");
            assert_eq!(tx.free.len(), tx.slab.len(), "shard {s}: jobs left in the slab");
            let jobs = tx.servers.jobs();
            assert!((0..jobs.n_queues()).all(|l| jobs.next_time(l).is_none()), "shard {s}: busy");
            assert!(jobs.is_empty(), "shard {s}: link jobs pending");
            assert_eq!(jobs.free_len(), jobs.pool_len(), "shard {s}: link job nodes not freed");
            assert_drained(s, "arrival", &tx.arrivals);
            assert_drained(s, "check", &tx.checks);
            assert_drained(s, "deliver", &tx.delivers);
            assert_drained(s, "fail", &tx.fails);
        }
    }

    /// Every queue of a drained family is empty and every pool node free.
    fn assert_drained<T: Copy>(s: usize, family: &str, queues: &TimedQueues<T>) {
        for q in 0..queues.n_queues() {
            assert_eq!(queues.next_time(q), None, "shard {s}: {family} queue {q} holds entries");
        }
        assert!(queues.is_empty(), "shard {s}: {family} entries pending");
        assert_eq!(queues.free_len(), queues.pool_len(), "shard {s}: {family} nodes not freed");
    }

    fn adaptive(n: usize) -> AdaptiveWorkload {
        AdaptiveWorkload {
            proxies: (0..n)
                .map(|_| SynthWebConfig {
                    lambda: 12.0,
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
            shared_structure_seed: Some(99),
            delayed: Default::default(),
        }
    }

    #[test]
    fn open_loop_catalog_run_frees_every_slot() {
        let topology = Topology::sharded_origin(4, 2, 25.0, 12.0);
        let size = Exponential::with_mean(1.0);
        let w = StaticWorkload {
            proxies: vec![StaticProxy { lambda: 14.0, h_prime: 0.3, n_f: 0.5, p: 0.8 }; 4],
            size_dist: &size,
            catalog_items: Some(40),
        };
        assert_slabs_free(&topology, 1, None, None, |scope| OpenLoop::new(&w, 7, scope));
    }

    /// A proxy crash drains the proxy's outstanding-fetch table, but its
    /// jobs already on links still run to completion and leave their slots.
    #[test]
    fn closed_loop_run_with_a_proxy_crash_frees_every_slot() {
        let topology = Topology::sharded_origin(4, 2, 45.0, 80.0);
        let w = adaptive(4);
        let webs = SharedWebs::build(&w);
        let faults = FaultConfig {
            plan: FaultPlan::new(vec![
                FaultEvent { t: 10.0, kind: FaultKind::ProxyCrash { proxy: 1 } },
                FaultEvent { t: 20.0, kind: FaultKind::LinkDown { link: 0 } },
                FaultEvent { t: 24.0, kind: FaultKind::LinkUp { link: 0 } },
            ]),
            retry: RetryPolicy::default(),
        };
        assert_slabs_free(&topology, 1, Some(&faults), None, |scope| {
            ClosedLoop::new(&topology, EngineWorkload::Synth(&w, &webs), None, 7, scope)
        });
    }

    #[test]
    fn cooperative_run_at_two_shards_frees_every_slot() {
        let topology = Topology::mesh_with_latency(4, 50.0, 150.0, 45.0, 0.05);
        let w = CooperativeWorkload { base: adaptive(4), coop: CoopConfig::default() };
        let webs = SharedWebs::build(&w.base);
        let router = Router::new(4, w.base.cache_capacity, w.coop);
        assert_slabs_free(&topology, 2, None, Some(router), |scope| {
            let synth = EngineWorkload::Synth(&w.base, &webs);
            ClosedLoop::new(&topology, synth, Some(&w.coop), 7, scope)
        });
    }

    /// A degraded backbone and access link stretch propagation sixfold;
    /// once they are restored, later sends arrive before earlier ones
    /// still in flight, so arrivals and deliveries are inserted into
    /// their queues ahead of the tail.
    #[test]
    fn cooperative_latency_mesh_through_a_link_degrade_frees_every_slot() {
        let topology = Topology::mesh_with_latency(4, 50.0, 150.0, 45.0, 0.05);
        let w = CooperativeWorkload { base: adaptive(4), coop: CoopConfig::default() };
        let webs = SharedWebs::build(&w.base);
        let router = Router::new(4, w.base.cache_capacity, w.coop);
        let degrade = |link| FaultKind::LinkDegrade { link, loss: 0.1, latency_factor: 6.0 };
        let faults = FaultConfig {
            plan: FaultPlan::new(vec![
                FaultEvent { t: 4.0, kind: degrade(0) },
                FaultEvent { t: 4.0, kind: degrade(1) },
                FaultEvent { t: 8.0, kind: FaultKind::LinkUp { link: 0 } },
                FaultEvent { t: 8.0, kind: FaultKind::LinkUp { link: 1 } },
            ]),
            retry: RetryPolicy::default(),
        };
        assert_slabs_free(&topology, 2, Some(&faults), Some(router), |scope| {
            let synth = EngineWorkload::Synth(&w.base, &webs);
            ClosedLoop::new(&topology, synth, Some(&w.coop), 7, scope)
        });
    }
}
