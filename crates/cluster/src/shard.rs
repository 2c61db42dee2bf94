//! The sharded event-loop driver: conservative time windows over
//! `simcore::sched`, one loop for every shard count.
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
//! One driver, [`drive`], executes every plan with the classic
//! **conservative time-window** scheme: with `L = plan.lookahead()` (the
//! minimum propagation delay of any cross-shard handoff) and `T` the
//! globally earliest pending event, every event in `[T, T + L)` can be
//! executed without seeing any other shard's window — an effect emitted at
//! `t ≥ T` arrives at `t + delay ≥ T + L`, past the window's end. Each
//! round every shard computes the same horizon from the shards' published
//! times (`simcore::par::TimeBoard`), accepts the mail sent to it in the
//! previous round, and drains its window, posting cross-shard effects to
//! `simcore::par::Mailboxes`. It then publishes the minimum of its next
//! local event and the earliest effect it sent, and waits at the round's
//! one barrier. Accepting mail only enqueues, so the minimum over the
//! shards is the earliest event pending anywhere. Boards and inboxes
//! alternate by round parity, so no round overwrites what another shard
//! may still read.
//!
//! Several shards run one thread each. A one-shard plan crosses nothing,
//! so its lookahead is `+∞`: it runs on the calling thread, one window
//! per boundary interval. A multi-shard cut with zero lookahead admits no
//! window at all; `ClusterSim` runs it as the one-shard plan, which the
//! determinism contract makes indistinguishable.
//!
//! ## Boundary rules
//!
//! Boundaries are the boundary faults (proxy crashes, digest losses) and
//! the router's digest refreshes. [`next_round`] decides every round:
//!
//! * a window never crosses the next boundary;
//! * events exactly at a boundary instant fire before it, in an inclusive
//!   sweep of that instant alone;
//! * a boundary strictly before every pending event is applied, a fault
//!   before a refresh at the same instant (a crash's forced-snapshot
//!   recovery must be visible to the refresh that follows it);
//! * a boundary past the last event is never applied.
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
//! * **Mailbox delivery order is irrelevant**: a received effect lands in
//!   its entity's queue of a [`simcore::sched::TimedQueues`] family, which
//!   sorts it by `(time, job id)` wherever the pool placed its node, and
//!   job ids are allocated per *proxy* (a deterministic stream), so the
//!   replay order is a pure function of the simulation, not of thread
//!   scheduling.
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

use crate::engine::{Engine, Job, ProxyModel};
use crate::topology::ShardPlan;
use coop::{RefreshPayload, Router};
use simcore::faults::{FaultEvent, FaultKind};
use simcore::obs::{FlightKind, FlightRecord, FlightRecorder, ObsConfig};
use simcore::par::{BarrierPoisoned, Mailboxes, ShardBarrier, TimeBoard};
use simcore::sched::{KeyLayout, Scheduler};
use simcore::ShardProfile;
use std::sync::{Mutex, RwLock};
use std::time::Instant;

/// Event classes, in same-instant firing order. The engine core and the
/// driver build their key layouts from this sequence, so tie order is
/// global: link departures < queued link arrivals < peer-serve checks <
/// response deliveries < client requests < prefetch issues < fetch-
/// failure settlements (< digest refresh, which the driver orders
/// strictly last itself).
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

/// A timestamped handoff between entities — possibly across shards.
/// Effects carry the whole job so a transfer migrates between shards with
/// its accounting intact.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Effect {
    /// `job` enters link `link`'s queue at `t`.
    Arrive { link: u32, t: f64, job: Job },
    /// A peer transfer for `job` reaches proxy `q` at `t`; `q` checks its
    /// cache and answers with a `Deliver` (serve or false hit).
    Check { q: u32, t: f64, job: Job },
    /// `job`'s response reaches its requesting proxy `p` at `t`;
    /// `false_hit` marks a peer that turned out not to hold the item (the
    /// requester then falls back to the origin).
    Deliver { p: u32, t: f64, job: Job, false_hit: bool },
    /// `job`'s fetch exhausted its retry budget; the failure settles at
    /// its requesting proxy `p` at `t` (the last attempt's timeout
    /// expiry). Always same-shard — the attempt schedule is resolved at
    /// the requester — but carried as an effect so the settlement fires
    /// in global `(time, rank)` order like every other handoff.
    Fail { p: u32, t: f64, job: Job },
}

impl Effect {
    pub(crate) fn time(&self) -> f64 {
        match self {
            Effect::Arrive { t, .. }
            | Effect::Check { t, .. }
            | Effect::Deliver { t, .. }
            | Effect::Fail { t, .. } => *t,
        }
    }

    /// The shard that must execute this effect.
    fn owner(&self, plan: &ShardPlan) -> usize {
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

/// A shard bundled with its scheduler: owns event *selection* for one
/// scope, the way `closed_loop::run`'s single scheduler used to for the
/// whole topology.
pub(crate) struct ShardRunner<'a, M> {
    core: Engine<'a, M>,
    sched: Scheduler,
    layout: KeyLayout,
    dirty: Vec<(usize, usize)>,
    /// Same-instant settlement stack (see [`push_effects`]).
    stack: Vec<Effect>,
    obs: Option<Box<RunnerObs>>,
}

impl<'a, M: ProxyModel> ShardRunner<'a, M> {
    pub(crate) fn new(core: Engine<'a, M>) -> Self {
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
    pub(crate) fn into_parts(mut self) -> (Engine<'a, M>, Option<Box<RunnerObs>>) {
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

    /// Earliest pending event time.
    fn next_time(&self) -> Option<f64> {
        self.sched.peek().map(|(t, _)| t)
    }

    /// Fires the earliest event and stages its effects (does **not**
    /// settle them — [`ShardRunner::settle_local`] does).
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
    fn accept(&mut self, e: Effect) {
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
        send: &mut impl FnMut(Effect),
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
    fn settle_local(&mut self, t: f64, send: &mut impl FnMut(Effect)) {
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
pub(crate) fn push_effects<M: ProxyModel>(core: &mut Engine<'_, M>, stack: &mut Vec<Effect>) {
    let base = stack.len();
    core.take_effects(stack);
    stack[base..].reverse();
}

/// Sorts one boundary's payload entries by proxy and applies them to the
/// router at the epoch boundary it has armed. Shared by the driver and the
/// legacy scan, so refresh semantics cannot diverge.
pub(crate) fn flush_boundary(router: &mut Router, mut entries: Vec<BoundaryEntry>) {
    let t = router.next_refresh();
    entries.sort_by_key(|&(proxy, _, _)| proxy);
    let loads: Vec<f64> = entries.iter().map(|&(_, load, _)| load).collect();
    let payloads: Vec<(usize, RefreshPayload)> =
        entries.into_iter().map(|(proxy, _, payload)| (proxy, payload)).collect();
    router.apply_payloads(t, payloads, &loads);
}

/// What a shard does in one round of the driver. Every shard decides the
/// round itself, with [`next_round`], from state all shards share, so all
/// of them take the same decision (`None` once every shard is idle: all
/// shards stop).
#[derive(Clone, Copy, Debug, PartialEq)]
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
/// instant (`+∞` when there is none), what the round does, or `None` when
/// every shard is idle. A boundary strictly before `t_min` is applied, a
/// fault before a refresh on ties; otherwise the window runs to
/// `t_min + lookahead`, clipped at the next boundary. A one-shard plan's
/// lookahead is `+∞`, so its windows run from boundary to boundary.
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

/// The state the driver's shards share. The boards and
/// inboxes are double-buffered by round parity: in round `k` a shard reads
/// `boards[k % 2]` and drains `mail[k % 2]`, and publishes to and sends
/// into the other slot, which no shard reads until round `k + 1`.
struct Shared<'a> {
    plan: &'a ShardPlan,
    faults: &'a [FaultEvent],
    boards: [TimeBoard; 2],
    mail: [Mailboxes<Effect>; 2],
    barrier: ShardBarrier,
    router: RwLock<Option<Router>>,
    payloads: Mutex<Vec<BoundaryEntry>>,
}

/// One shard of [`drive`]: rounds until every shard is idle.
fn run_shard<M: ProxyModel>(me: usize, runner: &mut ShardRunner<'_, M>, s: &Shared<'_>) {
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

/// Runs every shard of `plan` to the end, under the conservative-window
/// protocol. A one-shard plan runs on the calling thread: its lookahead is
/// `+∞`, so it takes one window round per boundary interval. Several
/// shards run one `std::thread::scope` thread each, with no coordinator —
/// the calling thread only joins. A panic on any shard thread poisons the
/// barrier, so its peers unwind instead of hanging, and the first panic
/// is re-raised here. Requires `plan.lookahead() > 0`: `ClusterSim` runs a
/// multi-shard cut with zero lookahead as the one-shard plan. Every shard
/// count evolves the same state (see the module docs for the argument;
/// `shard_parity.rs` for the pin).
pub(crate) fn drive<'a, M: ProxyModel>(
    mut runners: Vec<ShardRunner<'a, M>>,
    router: Option<Router>,
    plan: &ShardPlan,
    faults: &[FaultEvent],
) -> (Vec<ShardRunner<'a, M>>, Option<Router>) {
    assert!(plan.lookahead() > 0.0, "a multi-shard cut with zero lookahead admits no window");
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

    if let [runner] = &mut runners[..] {
        run_shard(0, runner, &shared);
    } else {
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
    }

    let router = shared.router.into_inner().expect("router poisoned");
    (runners, router)
}

#[cfg(test)]
mod tests {
    use super::*;

    const INF: f64 = f64::INFINITY;

    #[test]
    fn a_fault_goes_before_a_refresh_on_ties() {
        assert_eq!(next_round(5.0, 3.0, 3.0, 1.0), Some(Round::Fault));
        assert_eq!(next_round(5.0, 3.0, 4.0, 1.0), Some(Round::Refresh));
        assert_eq!(next_round(5.0, 4.0, 3.0, 1.0), Some(Round::Fault));
    }

    #[test]
    fn the_sweep_at_a_boundary_is_inclusive() {
        let sweep = Some(Round::Window { limit: 3.0, inclusive: true });
        assert_eq!(next_round(3.0, 3.0, INF, 1.0), sweep);
        assert_eq!(next_round(3.0, INF, 3.0, 1.0), sweep);
        assert_eq!(next_round(3.0, 3.0, 3.0, INF), sweep);
    }

    #[test]
    fn windows_stop_short_of_the_next_boundary() {
        let window = |limit| Some(Round::Window { limit, inclusive: false });
        assert_eq!(next_round(1.0, 10.0, INF, 0.5), window(1.5));
        assert_eq!(next_round(1.0, 10.0, 1.2, 0.5), window(1.2));
    }

    #[test]
    fn infinite_lookahead_runs_to_the_boundary() {
        let window = |limit| Some(Round::Window { limit, inclusive: false });
        assert_eq!(next_round(1.0, 10.0, INF, INF), window(10.0));
        assert_eq!(next_round(1.0, 10.0, 7.0, INF), window(7.0));
        assert_eq!(next_round(1.0, INF, INF, INF), window(INF));
    }

    #[test]
    fn no_round_once_every_shard_is_idle() {
        assert_eq!(next_round(INF, 3.0, 2.0, 1.0), None);
        assert_eq!(next_round(INF, INF, INF, INF), None);
    }
}
