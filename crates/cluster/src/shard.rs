//! Sharded event-loop drivers: conservative time windows over
//! `simcore::sched`, with a one-shard loop and a single-threaded merge for
//! the plans that admit no parallel windows.
//!
//! ## The protocol
//!
//! A [`crate::ShardPlan`] splits the topology into shards, each owning a
//! subset of proxies and link servers. Every shard runs its *own*
//! `simcore::sched::Scheduler` over the shared event-class layout below;
//! anything one shard's event does to an entity owned by another shard is
//! expressed as a timestamped [`Effect`] — a job entering a remote link, a
//! peer-serve check at a remote proxy, a response delivered to a remote
//! proxy. Effects are the *only* channel between shards, which is what
//! makes the partitioning invisible: an effect's timestamp and content are
//! pure functions of the topology and the emitting shard's deterministic
//! state, never of which shard owns what.
//!
//! Three drivers execute a shard set; [`drive`] picks one from the plan:
//!
//! * [`drive_single`] — a one-shard plan has nothing to merge, so its one
//!   runner drains its scheduler through the window loop up to the next
//!   boundary (fault or digest refresh), inclusively, then applies that
//!   boundary. This is the classic single-threaded engine driver.
//! * [`drive_sequential`] — one thread merges several shard schedulers,
//!   always firing the globally earliest `(time, class, entity)` event and
//!   applying same-instant effects depth-first, exactly the order a single
//!   monolithic scheduler would produce. This is the parity oracle, and
//!   the fallback whenever the partition's lookahead is zero.
//! * [`drive_windowed`] — one thread per shard and no coordinator,
//!   synchronised with the classic **conservative time-window** scheme:
//!   with `L = plan.lookahead()` (the minimum propagation delay of any
//!   cross-shard handoff) and `T` the globally earliest pending event,
//!   every event in `[T, T + L)` can be executed without seeing any other
//!   shard's window — an effect emitted at `t ≥ T` arrives at
//!   `t + delay ≥ T + L`, past the window's end. Each round every shard
//!   computes the same horizon from the shards' published times
//!   (`simcore::par::TimeBoard`), accepts the mail sent to it in the
//!   previous round, and drains its window, posting cross-shard effects
//!   to `simcore::par::Mailboxes`. It then publishes the minimum of its
//!   next local event and the earliest effect it sent, and waits at the
//!   round's one barrier. Accepting mail only enqueues, so the minimum
//!   over the shards is the earliest event pending anywhere. Boards and
//!   inboxes alternate by round parity, so no round overwrites what
//!   another shard may still read.
//!
//! All three share the boundary rules: events at a boundary instant fire
//! before it, and a fault goes before a refresh at the same instant.
//!
//! ## Why determinism holds
//!
//! * **Within a shard** events fire in `(time, key)` order, and the local
//!   key layout lists classes in the same order, and entities within a
//!   class in ascending *global* id order — so a shard's local order is
//!   exactly the global order restricted to its entities.
//! * **Across shards within a window** no interaction exists by
//!   construction (that is what the lookahead guarantees), and same-time
//!   events on different shards touch disjoint state, so any thread
//!   interleaving yields the same end state as the global order.
//! * **Mailbox delivery order is irrelevant**: received effects land in
//!   per-entity [`simcore::sched::TimedQueue`]s keyed by
//!   `(time, job id)`, and job ids are allocated per *proxy* (a
//!   deterministic stream), so the replay order is a pure function of the
//!   simulation, not of thread scheduling.
//! * **Floating-point accumulation order is preserved** because every
//!   accumulator (per-proxy stats, per-link counters) is owned by exactly
//!   one shard and fed in that shard's local event order — the global
//!   order restricted to the owning entity.
//!
//! Digest refreshes are the one global synchronisation: the horizon never
//! crosses the next epoch boundary, and when every shard's next event lies
//! beyond it each shard posts its per-proxy payloads
//! ([`coop::RefreshPayload`]) and waits at a barrier; shard 0's thread
//! then applies them to the shared router, and a second barrier holds
//! every shard until it has, so the next window sees the refreshed
//! router. A boundary fault takes the same two barriers (shard 0
//! quarantines a crashed proxy between them). Between boundaries the
//! router is immutable, so shards read it lock-free in spirit (a shared
//! `RwLock` read guard held for the whole window).

use crate::topology::ShardPlan;
use coop::{RefreshPayload, Router};
use simcore::faults::{FaultEvent, FaultKind};
use simcore::obs::{FlightKind, FlightRecord, FlightRecorder, ObsConfig};
use simcore::par::{BarrierPoisoned, Mailboxes, ShardBarrier, TimeBoard};
use simcore::sched::{KeyLayout, Scheduler};
use simcore::ShardProfile;
use std::sync::{Mutex, RwLock};
use std::time::Instant;

/// Event classes, in same-instant firing order. The engine core and every
/// driver build their key layouts from this sequence, so tie order is
/// global: link departures < queued link arrivals < peer-serve checks <
/// response deliveries < client requests < prefetch issues < fetch-
/// failure settlements (< digest refresh, which the drivers order
/// strictly last themselves).
pub(crate) const CLASS_DEPART: usize = 0;
pub(crate) const CLASS_ARRIVE: usize = 1;
pub(crate) const CLASS_CHECK: usize = 2;
pub(crate) const CLASS_DELIVER: usize = 3;
pub(crate) const CLASS_REQUEST: usize = 4;
pub(crate) const CLASS_PREFETCH: usize = 5;
pub(crate) const CLASS_FAIL: usize = 6;
pub(crate) const N_CLASSES: usize = 7;

/// Names of the event classes, in class order: the columns of a
/// profile's `events_by_class` counts.
pub const EVENT_CLASS_NAMES: [&str; N_CLASSES] =
    ["depart", "arrive", "check", "deliver", "request", "prefetch", "fail"];

/// A timestamped handoff between entities — possibly across shards. `J`
/// is the engine's job type; effects carry the whole job so a transfer
/// migrates between shards with its accounting intact.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Effect<J> {
    /// `job` enters link `link`'s queue at `t`.
    Arrive { link: u32, t: f64, job: J },
    /// A peer transfer for `job` reaches proxy `q` at `t`; `q` checks its
    /// cache and answers with a `Deliver` (serve or false hit).
    Check { q: u32, t: f64, job: J },
    /// `job`'s response reaches its requesting proxy `p` at `t`;
    /// `false_hit` marks a peer that turned out not to hold the item (the
    /// requester then falls back to the origin).
    Deliver { p: u32, t: f64, job: J, false_hit: bool },
    /// `job`'s fetch exhausted its retry budget; the failure settles at
    /// its requesting proxy `p` at `t` (the last attempt's timeout
    /// expiry). Always same-shard — the attempt schedule is resolved at
    /// the requester — but carried as an effect so the settlement fires
    /// in global `(time, rank)` order like every other handoff.
    Fail { p: u32, t: f64, job: J },
}

impl<J> Effect<J> {
    pub(crate) fn time(&self) -> f64 {
        match self {
            Effect::Arrive { t, .. }
            | Effect::Check { t, .. }
            | Effect::Deliver { t, .. }
            | Effect::Fail { t, .. } => *t,
        }
    }

    /// The shard that must execute this effect.
    pub(crate) fn owner(&self, plan: &ShardPlan) -> usize {
        match self {
            Effect::Arrive { link, .. } => plan.link_shard(*link as usize),
            Effect::Check { q, .. } => plan.proxy_shard(*q as usize),
            Effect::Deliver { p, .. } | Effect::Fail { p, .. } => plan.proxy_shard(*p as usize),
        }
    }

    /// `(event class, global entity id)` for flight-recorder records.
    fn trace_id(&self) -> (usize, u64) {
        match self {
            Effect::Arrive { link, .. } => (CLASS_ARRIVE, *link as u64),
            Effect::Check { q, .. } => (CLASS_CHECK, *q as u64),
            Effect::Deliver { p, .. } => (CLASS_DELIVER, *p as u64),
            Effect::Fail { p, .. } => (CLASS_FAIL, *p as u64),
        }
    }
}

/// Per-runner observability state: the shard's runtime profile plus its
/// flight-recorder ring. Boxed behind an `Option` on the runner so the
/// disabled case costs one branch per step.
pub(crate) struct RunnerObs {
    pub(crate) profile: ShardProfile,
    pub(crate) flight: FlightRecorder,
}

/// Waits on `barrier`, charging the wait to the shard's barrier-wall
/// profile when observability is on.
fn timed_wait(barrier: &ShardBarrier, obs: &mut Option<Box<RunnerObs>>) {
    match obs.as_deref_mut() {
        Some(o) => {
            let t0 = Instant::now();
            barrier.wait();
            o.profile.barrier_wall.push(t0.elapsed().as_secs_f64());
        }
        None => {
            barrier.wait();
        }
    }
}

/// One proxy's epoch-boundary contribution:
/// `(global proxy, load estimate, payload)`.
pub(crate) type BoundaryEntry = (usize, f64, RefreshPayload);

/// The driver-facing surface of a shard-local engine core
/// (`crate::engine::Engine`, for either proxy model); the drivers below
/// are generic over it.
pub(crate) trait EngineCore: Send {
    type Job: Copy + Send;

    /// Local stream counts per class, in class order.
    fn class_counts(&self) -> [usize; N_CLASSES];
    /// Global entity id of local stream `(class, idx)` — the global tie
    /// rank within the class.
    fn global_id(&self, class: usize, idx: usize) -> usize;
    /// Next due time of local stream `(class, idx)`.
    fn due(&self, class: usize, idx: usize) -> Option<f64>;
    /// Fires stream `(class, idx)` at `t`. Consequences for entities in
    /// scope at later times are queued internally; every handoff at the
    /// same instant or out of scope is emitted as an [`Effect`].
    fn dispatch(&mut self, class: usize, idx: usize, t: f64, router: Option<&Router>);
    /// Applies an effect owned by this scope *now*, at its timestamp
    /// (`e.time() == t`). May emit further effects.
    fn apply_now(&mut self, e: Effect<Self::Job>, t: f64);
    /// Queues an effect owned by this scope for its (future) timestamp.
    fn enqueue(&mut self, e: Effect<Self::Job>);
    /// Whether this scope owns the entity the effect targets.
    fn owns(&self, e: &Effect<Self::Job>) -> bool;
    /// Moves the effects emitted since the last take into `out`,
    /// preserving emission order.
    fn take_effects(&mut self, out: &mut Vec<Effect<Self::Job>>);
    /// Streams touched since the last drain, as `(class, local idx)`.
    fn drain_dirty(&mut self, out: &mut Vec<(usize, usize)>);
    /// Re-arms local link `idx`'s departure timer under `key` (the
    /// server-revision fast path).
    fn sync_link_timer(&mut self, idx: usize, sched: &mut Scheduler, key: usize);
    /// Appends this scope's boundary payloads (cooperative engines only).
    fn refresh_payloads(&mut self, out: &mut Vec<BoundaryEntry>);
    /// Applies a boundary fault (proxy crash / digest loss) at `t` to
    /// whatever part of the faulted entity this scope owns; a no-op for
    /// scopes that own none of it. Router-side consequences (quarantine)
    /// are the driver's job.
    fn apply_fault(&mut self, t: f64, kind: &FaultKind);
}

/// A shard bundled with its scheduler: owns event *selection* for one
/// scope, the way `closed_loop::run`'s single scheduler used to for the
/// whole topology.
pub(crate) struct ShardRunner<C: EngineCore> {
    pub(crate) core: C,
    sched: Scheduler,
    layout: KeyLayout,
    dirty: Vec<(usize, usize)>,
    /// Same-instant settlement stack (see [`push_effects`]).
    stack: Vec<Effect<C::Job>>,
    obs: Option<Box<RunnerObs>>,
}

impl<C: EngineCore> ShardRunner<C> {
    pub(crate) fn new(core: C) -> Self {
        let counts = core.class_counts();
        let mut layout = KeyLayout::new();
        for count in counts {
            layout.class(count);
        }
        let mut sched = layout.scheduler();
        for (class, count) in counts.into_iter().enumerate() {
            for idx in 0..count {
                if let Some(t) = core.due(class, idx) {
                    sched.schedule(layout.key(class, idx), t);
                }
            }
        }
        ShardRunner { core, sched, layout, dirty: Vec::new(), stack: Vec::new(), obs: None }
    }

    /// Arms this runner's profiler and flight recorder.
    pub(crate) fn with_obs(mut self, shard: usize, cfg: &ObsConfig) -> Self {
        self.obs = Some(Box::new(RunnerObs {
            profile: ShardProfile::new(shard, N_CLASSES),
            flight: FlightRecorder::new(cfg.flight_capacity),
        }));
        self
    }

    /// Tears the runner apart after a drive: the engine core plus whatever
    /// observability state accumulated, with the scheduler's work counters
    /// copied into the profile.
    pub(crate) fn into_parts(mut self) -> (C, Option<Box<RunnerObs>>) {
        if let Some(o) = &mut self.obs {
            o.profile.sched_arms = self.sched.arms();
            o.profile.sched_cancels = self.sched.cancels();
        }
        (self.core, self.obs)
    }

    /// Re-arms every stream the core touched since the last call.
    fn resync(&mut self) {
        self.core.drain_dirty(&mut self.dirty);
        while let Some((class, idx)) = self.dirty.pop() {
            let key = self.layout.key(class, idx);
            if class == CLASS_DEPART {
                self.core.sync_link_timer(idx, &mut self.sched, key);
            } else {
                self.sched.sync(key, self.core.due(class, idx));
            }
        }
    }

    /// Earliest pending `(time, global rank)`; rank is class-major so
    /// cross-shard comparisons reproduce a single global scheduler's tie
    /// order.
    pub(crate) fn peek(&self) -> Option<(f64, u64)> {
        self.sched.peek().map(|(t, key)| {
            let (class, idx) = self.layout.decode(key);
            (t, ((class as u64) << 48) | self.core.global_id(class, idx) as u64)
        })
    }

    /// Earliest pending event time.
    pub(crate) fn next_time(&self) -> Option<f64> {
        self.sched.peek().map(|(t, _)| t)
    }

    /// Fires the earliest event and stages its effects (does **not**
    /// settle them — the sequential merge settles globally).
    fn step(&mut self, router: Option<&Router>) -> f64 {
        if let Some(o) = &mut self.obs {
            o.profile.heap_depth(self.sched.len());
        }
        let (t, key) = self.sched.pop().expect("step on an idle shard");
        let (class, idx) = self.layout.decode(key);
        if let Some(o) = &mut self.obs {
            o.profile.events += 1;
            o.profile.events_by_class[class] += 1;
            o.flight.record(FlightRecord {
                t,
                shard: o.profile.shard as u32,
                kind: FlightKind::Dispatch,
                class: class as u8,
                entity: self.core.global_id(class, idx) as u64,
            });
        }
        self.core.dispatch(class, idx, t, router);
        self.resync();
        t
    }

    /// Queues an incoming (strictly future — the lookahead guarantees
    /// it) cross-shard effect delivered at a window barrier.
    pub(crate) fn accept(&mut self, e: Effect<C::Job>) {
        debug_assert!(self.core.owns(&e));
        if let Some(o) = &mut self.obs {
            let (class, entity) = e.trace_id();
            o.flight.record(FlightRecord {
                t: e.time(),
                shard: o.profile.shard as u32,
                kind: FlightKind::EffectIn,
                class: class as u8,
                entity,
            });
        }
        self.core.enqueue(e);
        self.resync();
        if let Some(o) = &mut self.obs {
            o.profile.heap_depth(self.sched.len());
        }
    }

    /// Drains every event strictly below `limit` (or at it, when
    /// `inclusive` — the pre-refresh sweep), settling same-instant effect
    /// chains depth-first locally and posting cross-shard effects through
    /// `send`.
    fn run_window(
        &mut self,
        limit: f64,
        inclusive: bool,
        router: Option<&Router>,
        send: &mut impl FnMut(Effect<C::Job>),
    ) {
        loop {
            match self.sched.peek() {
                Some((t, _)) if t < limit || (inclusive && t <= limit) => {
                    let t = self.step(router);
                    self.settle_local(t, send);
                }
                _ => break,
            }
        }
    }

    /// Depth-first settlement, on the runner's stack, of the effects
    /// staged by the last dispatch: a same-instant local effect is applied
    /// immediately and its children are processed before its siblings —
    /// reproducing the call-nesting a monolithic engine's inline handling
    /// produced. Future local effects are queued; out-of-scope effects go
    /// to `send`.
    fn settle_local(&mut self, t: f64, send: &mut impl FnMut(Effect<C::Job>)) {
        debug_assert!(self.stack.is_empty());
        push_effects(&mut self.core, &mut self.stack);
        while let Some(e) = self.stack.pop() {
            if !self.core.owns(&e) {
                debug_assert!(e.time() > t, "cross-shard handoff with zero delay in a window");
                send(e);
                continue;
            }
            if e.time() == t {
                self.core.apply_now(e, t);
                push_effects(&mut self.core, &mut self.stack);
            } else {
                self.core.enqueue(e);
            }
        }
        self.resync();
    }
}

/// Moves the effects `core` emitted since the last take onto the top of a
/// depth-first settlement `stack`, reversed so that they pop in emission
/// order: an applied effect's children settle before its siblings, and
/// siblings in the order they were emitted.
pub(crate) fn push_effects<C: EngineCore>(core: &mut C, stack: &mut Vec<Effect<C::Job>>) {
    let base = stack.len();
    core.take_effects(stack);
    stack[base..].reverse();
}

/// Sorts one boundary's payload entries by proxy and applies them to the
/// router at the epoch boundary it has armed. Shared by every driver (and
/// the legacy scan), so refresh semantics cannot diverge.
pub(crate) fn flush_boundary(router: &mut Router, mut entries: Vec<BoundaryEntry>) {
    let t = router.next_refresh();
    entries.sort_by_key(|&(proxy, _, _)| proxy);
    let loads: Vec<f64> = entries.iter().map(|&(_, load, _)| load).collect();
    let payloads: Vec<(usize, RefreshPayload)> =
        entries.into_iter().map(|(proxy, _, payload)| (proxy, payload)).collect();
    router.apply_payloads(t, payloads, &loads);
}

/// Collects every shard's boundary payloads and flushes them.
fn refresh_all<C: EngineCore>(router: &mut Router, runners: &mut [ShardRunner<C>]) {
    let mut entries: Vec<BoundaryEntry> = Vec::new();
    for runner in runners.iter_mut() {
        runner.core.refresh_payloads(&mut entries);
        if let Some(o) = &mut runner.obs {
            o.profile.refreshes += 1;
        }
    }
    flush_boundary(router, entries);
}

/// Applies one boundary fault: every scope handles its share of the
/// faulted entity, and a crash additionally quarantines the proxy's
/// advertised state in the router. Shared by both drivers so crash
/// semantics cannot diverge.
fn fault_all<C: EngineCore>(
    router: Option<&mut Router>,
    runners: &mut [ShardRunner<C>],
    ev: &FaultEvent,
) {
    for runner in runners.iter_mut() {
        runner.core.apply_fault(ev.t, &ev.kind);
        runner.resync();
    }
    if let (Some(r), FaultKind::ProxyCrash { proxy }) = (router, &ev.kind) {
        r.quarantine(*proxy);
    }
}

/// One-shard driver: the lone runner owns every entity, so there is no
/// cross-shard merge. It drains its scheduler through the window loop up
/// to the next boundary (a boundary fault or the router's next digest
/// refresh), inclusively, since events at a boundary instant fire first;
/// then it applies that boundary, a fault before a refresh on ties. A
/// boundary past the last event is never applied, as in the other
/// drivers.
fn drive_single<C: EngineCore>(
    mut runners: Vec<ShardRunner<C>>,
    mut router: Option<Router>,
    faults: &[FaultEvent],
) -> (Vec<ShardRunner<C>>, Option<Router>) {
    debug_assert_eq!(runners.len(), 1);
    let mut fi = 0usize;
    loop {
        let next_fault = faults.get(fi).map_or(f64::INFINITY, |e| e.t);
        let next_refresh = router.as_ref().map_or(f64::INFINITY, Router::next_refresh);
        runners[0].run_window(next_fault.min(next_refresh), true, router.as_ref(), &mut |_| {
            unreachable!("a one-shard plan owns every entity")
        });
        if runners[0].next_time().is_none() {
            break;
        }
        if next_fault <= next_refresh {
            fault_all(router.as_mut(), &mut runners, &faults[fi]);
            fi += 1;
        } else {
            let r = router.as_mut().expect("a finite refresh boundary has a router");
            refresh_all(r, &mut runners);
        }
    }
    (runners, router)
}

/// Single-threaded merge of several shards: fires the globally earliest
/// `(time, rank)` event across the shard schedulers, with depth-first
/// cross-shard effect settlement at each instant. It is the oracle the
/// windowed driver is pinned against, and the required fallback when the
/// partition's lookahead is zero (a conservative window of width zero
/// admits no parallel execution at all).
pub(crate) fn drive_sequential<C: EngineCore>(
    mut runners: Vec<ShardRunner<C>>,
    mut router: Option<Router>,
    plan: &ShardPlan,
    faults: &[FaultEvent],
) -> (Vec<ShardRunner<C>>, Option<Router>) {
    let mut stack: Vec<Effect<C::Job>> = Vec::new();
    let mut fi = 0usize;
    loop {
        // The globally earliest (time, rank) across shards.
        let mut best: Option<(f64, u64, usize)> = None;
        for (i, runner) in runners.iter().enumerate() {
            if let Some((t, rank)) = runner.peek() {
                let better = match best {
                    None => true,
                    Some((bt, br, _)) => t < bt || (t == bt && rank < br),
                };
                if better {
                    best = Some((t, rank, i));
                }
            }
        }
        let Some((t, _, who)) = best else { break };

        // Boundary faults and epoch refreshes strictly between events
        // fire first (events at the boundary instant win), faults before
        // refreshes on ties — a crash's force-snapshot recovery must be
        // visible to the boundary that follows it.
        let next_fault = faults.get(fi).map(|e| e.t).unwrap_or(f64::INFINITY);
        let next_refresh = router.as_ref().map(|r| r.next_refresh()).unwrap_or(f64::INFINITY);
        if next_fault < t && next_fault <= next_refresh {
            fault_all(router.as_mut(), &mut runners, &faults[fi]);
            fi += 1;
            continue;
        }
        if let Some(r) = router.as_mut() {
            if r.next_refresh() < t {
                refresh_all(r, &mut runners);
                continue;
            }
        }

        runners[who].step(router.as_ref());
        debug_assert!(stack.is_empty());
        push_effects(&mut runners[who].core, &mut stack);
        // Global depth-first settlement on one stack: an effect's children
        // (emitted by applying it, possibly on another shard) run before
        // its siblings, reproducing the monolithic engine's inline nesting
        // exactly.
        while let Some(e) = stack.pop() {
            let owner = e.owner(plan);
            let runner = &mut runners[owner];
            debug_assert!(runner.core.owns(&e));
            if e.time() == t {
                runner.core.apply_now(e, t);
                push_effects(&mut runner.core, &mut stack);
            } else {
                runner.core.enqueue(e);
            }
            runner.resync();
        }
    }
    (runners, router)
}

/// What a shard thread does in one round of the windowed driver. Every
/// thread decides the round itself, with [`next_round`], from state all
/// threads share, so all of them take the same decision (`None` once
/// every shard is idle: all threads stop).
#[derive(Clone, Copy, Debug)]
enum Round {
    /// Drain the window up to `limit` (inclusive at the pre-refresh
    /// boundary sweep).
    Window { limit: f64, inclusive: bool },
    /// Build and publish refresh payloads for the armed epoch boundary;
    /// shard 0 then flushes them into the router.
    Refresh,
    /// Apply the next boundary fault: each shard handles its share of the
    /// faulted entity; shard 0 then quarantines the router.
    Fault,
}

/// The round rule: given the global minimum `t_min` of the shards'
/// published times, the router's next refresh and the next fault's
/// instant (`+∞` when there is none), what the round does, or `None` when every shard is idle. A
/// boundary strictly before `t_min` is applied (a fault before a refresh
/// on ties, matching the sequential driver); otherwise the window runs to
/// `t_min + lookahead`, clipped at the next boundary.
fn next_round(t_min: f64, next_refresh: f64, next_fault: f64, lookahead: f64) -> Option<Round> {
    if t_min.is_infinite() {
        return None;
    }
    let boundary = next_fault.min(next_refresh);
    if boundary < t_min {
        return Some(if next_fault <= next_refresh { Round::Fault } else { Round::Refresh });
    }
    // Events exactly at a boundary precede it: sweep them (and only them)
    // inclusively.
    if t_min == boundary {
        return Some(Round::Window { limit: boundary, inclusive: true });
    }
    let limit = (t_min + lookahead).min(boundary);
    assert!(
        limit > t_min,
        "window [{t_min}, {limit}) collapsed — lookahead {lookahead} under-flows the time magnitude"
    );
    Some(Round::Window { limit, inclusive: false })
}

/// The state the windowed driver's shard threads share. The boards and
/// inboxes are double-buffered by round parity: in round `k` a shard reads
/// `boards[k % 2]` and drains `mail[k % 2]`, and publishes to and sends
/// into the other slot, which no shard reads until round `k + 1`.
struct Shared<'a, J> {
    plan: &'a ShardPlan,
    faults: &'a [FaultEvent],
    boards: [TimeBoard; 2],
    mail: [Mailboxes<Effect<J>>; 2],
    barrier: ShardBarrier,
    router: RwLock<Option<Router>>,
    payloads: Mutex<Vec<BoundaryEntry>>,
}

/// One shard thread of [`drive_windowed`]: rounds until every shard is
/// idle.
fn run_shard<C: EngineCore>(me: usize, runner: &mut ShardRunner<C>, s: &Shared<'_, C::Job>) {
    let mut fi = 0usize;
    let mut parity = 0usize;
    let mut inbox = Vec::new();
    loop {
        let next_refresh = s
            .router
            .read()
            .expect("router poisoned")
            .as_ref()
            .map_or(f64::INFINITY, Router::next_refresh);
        let next_fault = s.faults.get(fi).map_or(f64::INFINITY, |e| e.t);
        let Some(round) =
            next_round(s.boards[parity].min(), next_refresh, next_fault, s.plan.lookahead())
        else {
            break;
        };
        // The mail sent to this shard in the previous round, accepted
        // before this round builds payloads, applies a fault or drains a
        // window.
        s.mail[parity].drain_into(me, &mut inbox);
        if let Some(o) = &mut runner.obs {
            o.profile.mailbox_drained(inbox.len());
        }
        let local_next = runner.next_time().unwrap_or(f64::INFINITY);
        let mut earliest_in = f64::INFINITY;
        for e in inbox.drain(..) {
            earliest_in = earliest_in.min(e.time());
            runner.accept(e);
        }
        debug_assert_eq!(
            runner.next_time().unwrap_or(f64::INFINITY),
            local_next.min(earliest_in),
            "accepting mail must only enqueue: the published horizon relies on it"
        );
        let next = parity ^ 1;
        match round {
            Round::Window { limit, inclusive } => {
                let timer = runner.obs.is_some().then(Instant::now);
                let mut sent = 0u64;
                let mut earliest_sent = f64::INFINITY;
                {
                    let guard = s.router.read().expect("router poisoned");
                    runner.run_window(limit, inclusive, guard.as_ref(), &mut |e| {
                        let dest = e.owner(s.plan);
                        debug_assert_ne!(dest, me, "local effect routed to the mailboxes");
                        sent += 1;
                        earliest_sent = earliest_sent.min(e.time());
                        s.mail[next].send(me, dest, e);
                    });
                }
                if let Some(o) = &mut runner.obs {
                    o.profile.windows += 1;
                    o.profile.effects_sent += sent;
                    if let Some(t0) = timer {
                        o.profile.window_wall.push(t0.elapsed().as_secs_f64());
                    }
                }
                // Accepting only enqueues, so the minimum over all shards
                // of this value is the earliest time pending anywhere once
                // the mail is in: the next round's horizon.
                let local = runner.next_time().unwrap_or(f64::INFINITY);
                s.boards[next].publish(me, Some(local.min(earliest_sent)));
                timed_wait(&s.barrier, &mut runner.obs);
            }
            Round::Refresh => {
                runner
                    .core
                    .refresh_payloads(&mut s.payloads.lock().expect("payload sink poisoned"));
                if let Some(o) = &mut runner.obs {
                    o.profile.refreshes += 1;
                }
                s.boards[next].publish(me, runner.next_time());
                timed_wait(&s.barrier, &mut runner.obs);
                if me == 0 {
                    let entries =
                        std::mem::take(&mut *s.payloads.lock().expect("payload sink poisoned"));
                    let mut router = s.router.write().expect("router poisoned");
                    flush_boundary(
                        router.as_mut().expect("refresh round without a router"),
                        entries,
                    );
                }
                timed_wait(&s.barrier, &mut runner.obs);
            }
            Round::Fault => {
                // Each scope mutates only the entities it owns, so the
                // parallel application is race-free; the router-side
                // quarantine is shard 0's.
                let ev = &s.faults[fi];
                runner.core.apply_fault(ev.t, &ev.kind);
                runner.resync();
                s.boards[next].publish(me, runner.next_time());
                timed_wait(&s.barrier, &mut runner.obs);
                if let (0, FaultKind::ProxyCrash { proxy }) = (me, ev.kind) {
                    if let Some(r) = s.router.write().expect("router poisoned").as_mut() {
                        r.quarantine(proxy);
                    }
                }
                timed_wait(&s.barrier, &mut runner.obs);
                fi += 1;
            }
        }
        parity = next;
    }
}

/// Multi-threaded conservative-window driver: one `std::thread::scope`
/// thread per shard, with no coordinator — the calling thread only joins.
/// Each round, every shard thread decides the round itself from the
/// shared time board, the router's next refresh and its own fault cursor
/// (see [`next_round`]). A window round ends at one barrier, a boundary
/// round at two: shard 0 flushes or quarantines the router between them.
/// A panic on any shard thread poisons the barrier, so its peers unwind
/// instead of hanging, and the first panic is re-raised here. Requires
/// `plan.lookahead() > 0` — callers fall back to [`drive_sequential`]
/// otherwise. Produces bit-identical state evolution to the sequential
/// driver (see the module docs for the argument; `shard_parity.rs` for the
/// pin).
pub(crate) fn drive_windowed<C: EngineCore>(
    mut runners: Vec<ShardRunner<C>>,
    router: Option<Router>,
    plan: &ShardPlan,
    faults: &[FaultEvent],
) -> (Vec<ShardRunner<C>>, Option<Router>) {
    assert!(plan.lookahead() > 0.0, "windowed driver needs positive lookahead");
    let n = runners.len();
    let shared = Shared {
        plan,
        faults,
        boards: [TimeBoard::new(n), TimeBoard::new(n)],
        mail: [Mailboxes::new(n), Mailboxes::new(n)],
        barrier: ShardBarrier::new(n),
        router: RwLock::new(router),
        payloads: Mutex::new(Vec::new()),
    };
    for (i, runner) in runners.iter().enumerate() {
        shared.boards[0].publish(i, runner.next_time());
    }

    std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = runners
            .iter_mut()
            .enumerate()
            .map(|(me, runner)| {
                scope.spawn(move || {
                    let _poison = shared.barrier.guard();
                    run_shard(me, runner, shared);
                })
            })
            .collect();
        // Peers of a panicking shard unwind with `BarrierPoisoned`;
        // re-raise the panic that caused theirs.
        let panics = handles.into_iter().filter_map(|h| h.join().err());
        if let Some(payload) = panics.min_by_key(|p| p.is::<BarrierPoisoned>()) {
            std::panic::resume_unwind(payload);
        }
    });

    let router = shared.router.into_inner().expect("router poisoned");
    (runners, router)
}

/// Chooses the driver a plan admits: the one-shard loop for a single
/// shard, windows when there are several shards and the lookahead is
/// positive, the sequential merge otherwise.
pub(crate) fn drive<C: EngineCore>(
    runners: Vec<ShardRunner<C>>,
    router: Option<Router>,
    plan: &ShardPlan,
    faults: &[FaultEvent],
) -> (Vec<ShardRunner<C>>, Option<Router>) {
    if plan.n_shards() == 1 {
        drive_single(runners, router, faults)
    } else if plan.windowed() {
        drive_windowed(runners, router, plan, faults)
    } else {
        drive_sequential(runners, router, plan, faults)
    }
}
