//! Parallel execution primitives.
//!
//! Two layers live here, both on `std::thread::scope` (no external runtime):
//!
//! * **Parameter sweeps** ([`par_map`], [`sweep_vs_baseline`]) — experiments
//!   evaluate the same simulation at many independent points; work is
//!   distributed by an atomic cursor (self-balancing for heterogeneous run
//!   times) and results land in their input slots, so output order is
//!   deterministic regardless of scheduling.
//! * **Conservative-window shard synchronization** ([`Mailboxes`],
//!   [`TimeBoard`], [`ShardBarrier`]) — the building blocks for a *single*
//!   simulation split across threads: per-shard message inboxes filled
//!   concurrently during a window and drained after the window's barrier,
//!   an atomic board where each shard publishes its next-event time so
//!   that every shard can compute the same global horizon, and a barrier
//!   that a panicking shard cannot hang. A driver that needs one barrier
//!   per window keeps two inboxes and two boards and alternates them by
//!   round parity. Delivery order is deterministic: a drain yields the
//!   messages of sender 0, then sender 1, and so on, each sender's in the
//!   order it sent them, whatever the thread interleaving. Receivers still
//!   sequence what they accept by their own timestamps/ids (e.g. via
//!   `sched::TimedQueue`); the fixed delivery order only keeps per-shard
//!   bookkeeping of the accepts themselves, such as scheduler re-arm
//!   counts, reproducible.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Per-shard message inboxes, safe to fill from any thread, with one
/// slot per (receiver, sender) pair.
///
/// During a window every shard pushes cross-shard messages into its own
/// slot of the destination's inbox; once the window's barrier has passed,
/// each shard [`Mailboxes::drain_into`]s its own inbox. Each slot has a
/// single writer, so the drain order — sender by sender, in send order
/// within a sender — depends only on what each shard sent, never on how
/// the sending threads interleaved.
pub struct Mailboxes<M> {
    n: usize,
    /// `slots[to * n + from]`: messages from shard `from` to shard `to`.
    slots: Vec<Mutex<Vec<M>>>,
}

impl<M> Mailboxes<M> {
    pub fn new(n: usize) -> Self {
        Mailboxes { n, slots: (0..n * n).map(|_| Mutex::new(Vec::new())).collect() }
    }

    /// Appends `msg`, sent by shard `from`, to shard `to`'s inbox.
    pub fn send(&self, from: usize, to: usize, msg: M) {
        self.slots[to * self.n + from].lock().expect("mailbox poisoned").push(msg);
    }

    /// Moves everything in shard `me`'s inbox to the end of `out`: sender
    /// 0's messages first, each sender's in the order it sent them. The
    /// slots keep their capacity, so a caller that reuses `out` allocates
    /// nothing once the buffers have grown.
    pub fn drain_into(&self, me: usize, out: &mut Vec<M>) {
        for slot in &self.slots[me * self.n..(me + 1) * self.n] {
            out.append(&mut slot.lock().expect("mailbox poisoned"));
        }
    }
}

/// A board of per-shard times published atomically (as `f64` bit patterns
/// — monotone under `u64` comparison for the non-negative times simulations
/// use, though [`TimeBoard::min`] decodes and compares as `f64` anyway).
///
/// Each shard publishes its next pending event time before a barrier;
/// after it, every shard reads the same global minimum and sizes the next
/// conservative window from it. `f64::INFINITY` means "idle — nothing
/// pending".
pub struct TimeBoard {
    slots: Vec<AtomicU64>,
}

impl TimeBoard {
    /// A board of `n` slots, all initially idle (`+∞`).
    pub fn new(n: usize) -> Self {
        TimeBoard { slots: (0..n).map(|_| AtomicU64::new(f64::INFINITY.to_bits())).collect() }
    }

    /// Publishes shard `me`'s next-event time (`None` ⇒ idle).
    pub fn publish(&self, me: usize, t: Option<f64>) {
        let t = t.unwrap_or(f64::INFINITY);
        debug_assert!(!t.is_nan(), "published NaN time");
        self.slots[me].store(t.to_bits(), Ordering::Release);
    }

    /// The published time of shard `i`.
    pub fn get(&self, i: usize) -> f64 {
        f64::from_bits(self.slots[i].load(Ordering::Acquire))
    }

    /// The minimum published time across all shards (`+∞` when all idle).
    pub fn min(&self) -> f64 {
        (0..self.slots.len()).map(|i| self.get(i)).fold(f64::INFINITY, f64::min)
    }
}

/// The panic payload of a wait on a poisoned [`ShardBarrier`]: a peer
/// panicked first, and this party's panic only echoes it.
#[derive(Debug)]
pub struct BarrierPoisoned;

/// A reusable barrier for a fixed party of threads that a panic cannot
/// hang.
///
/// `std::sync::Barrier` has no poisoning: when one party panics, its
/// peers wait forever. Here a party that unwinds while holding its
/// [`ShardBarrier::guard`] poisons the barrier, and every current and
/// later waiter then unwinds with a [`BarrierPoisoned`] payload instead of
/// blocking, so the scope that spawned the parties fails rather than
/// hangs.
pub struct ShardBarrier {
    parties: usize,
    state: Mutex<BarrierState>,
    released: Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

impl ShardBarrier {
    /// A barrier that releases once `parties` threads wait on it.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        ShardBarrier {
            parties,
            state: Mutex::new(BarrierState { arrived: 0, generation: 0, poisoned: false }),
            released: Condvar::new(),
        }
    }

    // Every update of the state is a single store and nothing panics
    // while the lock is held, so a poisoned mutex still holds valid state.
    fn lock(&self) -> MutexGuard<'_, BarrierState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until all parties have called `wait` in this generation.
    ///
    /// # Panics
    /// Unwinds with [`BarrierPoisoned`] if the barrier is or becomes
    /// poisoned before this generation is released. The unwind skips the
    /// panic hook, so only the panic that poisoned the barrier is printed.
    pub fn wait(&self) {
        let mut state = self.lock();
        if !state.poisoned {
            state.arrived += 1;
            if state.arrived == self.parties {
                state.arrived = 0;
                state.generation = state.generation.wrapping_add(1);
                self.released.notify_all();
                return;
            }
            let generation = state.generation;
            while state.generation == generation && !state.poisoned {
                state = self.released.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            if state.generation != generation {
                return;
            }
        }
        drop(state);
        std::panic::resume_unwind(Box::new(BarrierPoisoned));
    }

    /// Poisons the barrier and wakes every waiter.
    pub fn poison(&self) {
        self.lock().poisoned = true;
        self.released.notify_all();
    }

    /// A guard that poisons the barrier if it is dropped while its thread
    /// unwinds. Each party holds one for as long as it may wait.
    pub fn guard(&self) -> PoisonOnUnwind<'_> {
        PoisonOnUnwind(self)
    }

    /// Parties currently blocked in this generation.
    #[cfg(test)]
    fn waiting(&self) -> usize {
        self.lock().arrived
    }
}

/// Poisons its [`ShardBarrier`] when dropped during a panic.
pub struct PoisonOnUnwind<'a>(&'a ShardBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Number of worker threads to use: the available parallelism, capped by the
/// work-item count.
pub fn default_threads(items: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    hw.min(items).max(1)
}

/// Applies `f` to every item, in parallel, preserving input order in the
/// output vector.
///
/// `f` must be `Sync` (shared across workers) and the items are borrowed
/// immutably. Panics in workers propagate.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot poisoned").expect("slot unfilled"))
        .collect()
}

/// Like [`par_map`] but uses [`default_threads`].
pub fn par_map_auto<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map(items, default_threads(items.len()), f)
}

/// The network-load-curve convention shared by the single-path
/// (`netsim::parametric::run_with_baseline`) and cluster
/// (`cluster::network_load_curve`) Figure-2/3 sweeps: run the `baseline`
/// point at `seed`, then every treatment point at `seed + 1` (all
/// treatment points share one seed so they differ only in parameters),
/// fanning the treatments out over the pool. Returns
/// `(baseline result, per-point results in input order)`.
pub fn sweep_vs_baseline<T, R, F>(baseline: &T, points: &[T], seed: u64, run: F) -> (R, Vec<R>)
where
    T: Sync,
    R: Send,
    F: Fn(&T, u64) -> R + Sync,
{
    let base = run(baseline, seed);
    let treated = par_map_auto(points, |_, point| run(point, seed.wrapping_add(1)));
    (base, treated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, 8, |_, &x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let items = vec![1, 2, 3];
        let out = par_map(&items, 1, |i, &x| x + i as i32);
        assert_eq!(out, vec![1, 3, 5]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = vec![];
        let out: Vec<u32> = par_map(&items, 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let items = vec![10, 20];
        let out = par_map(&items, 64, |_, &x| x + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn index_argument_matches_position() {
        let items = vec!["a", "b", "c", "d"];
        let out = par_map(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn heavy_imbalanced_work_completes() {
        // Some items "cost" much more than others; cursor-based stealing
        // should still complete everything.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, 8, |_, &x| {
            let iters = if x % 8 == 0 { 200_000 } else { 100 };
            let mut acc = 0u64;
            for i in 0..iters {
                acc = acc.wrapping_add(i ^ x);
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn sweep_vs_baseline_seeding_convention() {
        let (base, points) = sweep_vs_baseline(&0.0f64, &[1.0, 2.0], 41, |&x, s| (x, s));
        assert_eq!(base, (0.0, 41));
        assert_eq!(points, vec![(1.0, 42), (2.0, 42)]);
    }

    #[test]
    fn default_threads_bounds() {
        assert_eq!(default_threads(0), 1);
        assert!(default_threads(1) == 1);
        assert!(default_threads(1000) >= 1);
    }

    #[test]
    fn mailboxes_collect_concurrent_sends() {
        let boxes: Mailboxes<(usize, u64)> = Mailboxes::new(4);
        std::thread::scope(|scope| {
            for sender in 0..4usize {
                let boxes = &boxes;
                scope.spawn(move || {
                    for i in 0..100u64 {
                        boxes.send(sender, (sender + i as usize) % 2, (sender, i));
                    }
                });
            }
        });
        let mut got: Vec<(usize, u64)> = Vec::new();
        boxes.drain_into(0, &mut got);
        boxes.drain_into(1, &mut got);
        assert_eq!(got.len(), 400, "no message lost or duplicated");
        got.sort_unstable();
        let expect: Vec<(usize, u64)> =
            (0..4).flat_map(|s| (0..100).map(move |i| (s, i))).collect();
        assert_eq!(got, expect);
        let mut rest = Vec::new();
        boxes.drain_into(0, &mut rest);
        assert!(rest.is_empty(), "drain empties the inbox");
    }

    #[test]
    fn mailboxes_drain_in_sender_order() {
        let boxes: Mailboxes<&str> = Mailboxes::new(3);
        boxes.send(2, 0, "from 2, first");
        boxes.send(1, 0, "from 1, first");
        boxes.send(2, 0, "from 2, second");
        boxes.send(1, 0, "from 1, second");
        let mut got = vec!["already there"];
        boxes.drain_into(0, &mut got);
        assert_eq!(
            got,
            ["already there", "from 1, first", "from 1, second", "from 2, first", "from 2, second"]
        );
    }

    #[test]
    fn shard_barrier_releases_each_generation_together() {
        let parties = 3;
        let barrier = ShardBarrier::new(parties);
        let arrived = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..parties {
                let (barrier, arrived) = (&barrier, &arrived);
                scope.spawn(move || {
                    for round in 1..=50 {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        assert_eq!(arrived.load(Ordering::SeqCst), round * parties);
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_party_releases_its_waiting_peer() {
        let barrier = ShardBarrier::new(2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let barrier = &barrier;
                let waiter = scope.spawn(move || {
                    let _poison = barrier.guard();
                    barrier.wait();
                });
                scope.spawn(move || {
                    let _poison = barrier.guard();
                    // Fail only once the peer is blocked in `wait`.
                    while barrier.waiting() == 0 {
                        std::thread::yield_now();
                    }
                    panic!("shard failed mid-run");
                });
                let echo = waiter.join().expect_err("the waiter must not return normally");
                assert!(echo.is::<BarrierPoisoned>(), "the waiter unwinds with the poison payload");
            })
        }));
        assert!(outcome.is_err(), "the scope fails with the panicking party");
        let late = std::panic::catch_unwind(|| barrier.wait());
        assert!(late.expect_err("a poisoned barrier never blocks").is::<BarrierPoisoned>());
    }

    #[test]
    fn time_board_tracks_minimum() {
        let board = TimeBoard::new(3);
        assert_eq!(board.min(), f64::INFINITY, "all idle at start");
        board.publish(0, Some(5.0));
        board.publish(1, Some(2.5));
        board.publish(2, None);
        assert_eq!(board.min(), 2.5);
        assert_eq!(board.get(2), f64::INFINITY);
        board.publish(1, None);
        assert_eq!(board.min(), 5.0);
    }
}
