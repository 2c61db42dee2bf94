//! Indexed event scheduler: a binary-heap timer wheel over a fixed key
//! space.
//!
//! This is the workspace's one event core. It serves a simulation with a
//! *known set of recurring timer streams* (one per link, one per arrival
//! process, one per periodic task), each of which is re-armed and
//! invalidated many times over a run. Every stream owns a small-integer
//! **key**; arming the key again simply replaces the previous deadline.
//! The scheduler carries no payloads: a stream that delivers data keeps
//! it in a [`TimedQueue`] and arms its key at the queue's next time.
//!
//! Invalidation is by **generation stamping**: each `schedule`/`cancel`
//! bumps the key's generation, and heap entries carry the generation they
//! were pushed with, so a superseded entry is skipped lazily when it
//! surfaces — `schedule` and `pop` are O(log n), `cancel` and `armed` are
//! O(1), and no heap surgery is ever needed.
//!
//! Determinism: [`Scheduler::pop`] yields events in nondecreasing time,
//! and simultaneous events fire in ascending key order. Callers that need
//! a specific same-instant ordering (the `cluster` engines fire link
//! completions before request arrivals before prefetch issues) encode it
//! in the key layout.
//!
//! ```
//! use simcore::sched::Scheduler;
//!
//! let mut sched = Scheduler::with_timers(3);
//! sched.schedule(2, 5.0);
//! sched.schedule(0, 9.0);
//! sched.schedule(2, 1.0); // re-arm: the 5.0 entry is now stale
//! assert_eq!(sched.pop(), Some((1.0, 2)));
//! assert_eq!(sched.pop(), Some((9.0, 0)));
//! assert_eq!(sched.pop(), None);
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A partition of a scheduler's key space into ordered **classes** — the
/// shard-handle API the `cluster` drivers build their timer layouts on.
///
/// A driver with several kinds of recurring timers (one per link, one per
/// arrival process, …) registers one class per kind, in the order
/// same-instant events must fire, and addresses each stream as
/// `(class, index)` instead of hand-computing key offsets. Because
/// [`Scheduler`] breaks time ties by ascending key, class registration
/// order *is* the same-instant precedence — and two layouts built from the
/// same class sequence assign consistent relative orders even when their
/// per-class counts differ (the property the sharded cluster driver
/// depends on: each shard's local layout must order its local events
/// exactly as the global layout would).
#[derive(Clone, Debug, Default)]
pub struct KeyLayout {
    /// `offsets[c]..offsets[c] + counts[c]` is class `c`'s key range.
    offsets: Vec<usize>,
    counts: Vec<usize>,
}

impl KeyLayout {
    /// An empty layout; add classes with [`KeyLayout::class`].
    pub fn new() -> Self {
        KeyLayout::default()
    }

    /// Registers the next class with `count` timer streams; returns its
    /// class index. Classes fire in registration order on time ties.
    pub fn class(&mut self, count: usize) -> usize {
        let offset = self.n_keys();
        self.offsets.push(offset);
        self.counts.push(count);
        self.offsets.len() - 1
    }

    /// Total keys across all classes.
    pub fn n_keys(&self) -> usize {
        match (self.offsets.last(), self.counts.last()) {
            (Some(o), Some(c)) => o + c,
            _ => 0,
        }
    }

    /// Number of streams in `class`.
    pub fn count(&self, class: usize) -> usize {
        self.counts[class]
    }

    /// The scheduler key of stream `idx` of `class`.
    pub fn key(&self, class: usize, idx: usize) -> usize {
        debug_assert!(idx < self.counts[class], "stream {idx} out of class {class}");
        self.offsets[class] + idx
    }

    /// Inverse of [`KeyLayout::key`]: which `(class, index)` a key is.
    pub fn decode(&self, key: usize) -> (usize, usize) {
        // Layouts have a handful of classes; a linear scan beats a binary
        // search at these sizes and keeps ties in registration order.
        for (c, (&offset, &count)) in self.offsets.iter().zip(&self.counts).enumerate() {
            if key < offset + count {
                debug_assert!(key >= offset);
                return (c, key - offset);
            }
        }
        panic!("key {key} beyond layout ({} keys)", self.n_keys());
    }

    /// A scheduler provisioned with one timer per key of this layout.
    pub fn scheduler(&self) -> Scheduler {
        Scheduler::with_timers(self.n_keys())
    }
}

/// A deterministic time-ordered queue of pending payloads, keyed by
/// `(time, id)` — the companion structure for timer streams that carry
/// *data* (a link's in-flight arrivals, a proxy's pending deliveries).
///
/// The owning driver arms one [`Scheduler`] timer at
/// [`TimedQueue::next_time`] and drains every entry due at the fired
/// instant. Entries pop in ascending `(time, id)` order **regardless of
/// insertion order**, which is what makes a mailbox-fed queue
/// deterministic: messages arriving from concurrent senders are sequenced
/// by their timestamps and stable ids, never by delivery race.
#[derive(Debug)]
pub struct TimedQueue<T> {
    heap: BinaryHeap<TimedEntry<T>>,
}

#[derive(Debug)]
struct TimedEntry<T> {
    time: f64,
    id: u64,
    payload: T,
}

impl<T> PartialEq for TimedEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for TimedEntry<T> {}
impl<T> PartialOrd for TimedEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for TimedEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: earliest (time, id) first out of the max-heap.
        other.time.total_cmp(&self.time).then_with(|| other.id.cmp(&self.id))
    }
}

impl<T> Default for TimedQueue<T> {
    fn default() -> Self {
        TimedQueue { heap: BinaryHeap::new() }
    }
}

impl<T> TimedQueue<T> {
    pub fn new() -> Self {
        TimedQueue::default()
    }

    /// Enqueues `payload` to surface at `time`; `id` breaks time ties (it
    /// must be unique per pending entry for the order to be total).
    pub fn push(&mut self, time: f64, id: u64, payload: T) {
        assert!(time.is_finite(), "queued entry at non-finite time {time}");
        self.heap.push(TimedEntry { time, id, payload });
    }

    /// When the earliest pending entry is due.
    pub fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest entry if it is due exactly at `time` — drivers
    /// drain a fired instant with `while let Some(x) = q.pop_due(t)`.
    pub fn pop_due(&mut self, time: f64) -> Option<T> {
        if self.heap.peek().is_some_and(|e| e.time == time) {
            Some(self.heap.pop().expect("peeked entry").payload)
        } else {
            None
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A heap entry: deadline, owning key, and the generation it was armed
/// under (stale once the key's generation moves on).
#[derive(Clone, Copy, Debug)]
struct Entry {
    time: f64,
    key: usize,
    gen: u64,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first, and
        // on time ties the lowest key. Generation only breaks ties between
        // a live entry and stale ones of the same key at the same time.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.gen.cmp(&self.gen))
    }
}

/// Per-key state: the current generation and the armed deadline, if any.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    gen: u64,
    armed: Option<f64>,
}

/// Indexed timer scheduler with O(log n) arm/re-arm, O(1) cancel, and
/// stable ascending-key tie order.
#[derive(Default)]
pub struct Scheduler {
    heap: BinaryHeap<Entry>,
    slots: Vec<Slot>,
    live: usize,
}

impl Scheduler {
    /// An empty scheduler; add keys with [`Scheduler::add_timer`].
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// A scheduler with keys `0..n`, all disarmed.
    pub fn with_timers(n: usize) -> Self {
        Scheduler { heap: BinaryHeap::new(), slots: vec![Slot::default(); n], live: 0 }
    }

    /// Registers one more timer stream; returns its key (sequential).
    pub fn add_timer(&mut self) -> usize {
        self.slots.push(Slot::default());
        self.slots.len() - 1
    }

    /// Number of registered timer keys (armed or not).
    pub fn n_timers(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently armed timers.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Physical heap depth, counting lazily-invalidated (stale) entries
    /// still awaiting their pop — the number [`Scheduler::len`] hides. A
    /// profiler watches this: a heap far deeper than the live count means
    /// re-arm churn is piling up garbage.
    pub fn heap_depth(&self) -> usize {
        self.heap.len()
    }

    /// The deadline `key` is armed for, if any.
    pub fn armed(&self, key: usize) -> Option<f64> {
        self.slots[key].armed
    }

    /// Arms (or re-arms) `key` to fire at absolute time `t`. Any previous
    /// deadline of this key is invalidated.
    pub fn schedule(&mut self, key: usize, t: f64) {
        assert!(t.is_finite(), "timer {key} armed at non-finite time {t}");
        let slot = &mut self.slots[key];
        if slot.armed.is_none() {
            self.live += 1;
        }
        slot.gen += 1;
        slot.armed = Some(t);
        self.heap.push(Entry { time: t, key, gen: slot.gen });
    }

    /// Disarms `key`; a no-op when it is not armed.
    pub fn cancel(&mut self, key: usize) {
        let slot = &mut self.slots[key];
        if slot.armed.take().is_some() {
            slot.gen += 1;
            self.live -= 1;
        }
    }

    /// Arms `key` at `t`, or disarms it when `t` is `None` — but leaves
    /// the heap untouched when the deadline is unchanged (the cheap path
    /// for owners that re-sync after every state change).
    pub fn sync(&mut self, key: usize, t: Option<f64>) {
        if self.slots[key].armed == t {
            return;
        }
        match t {
            Some(t) => self.schedule(key, t),
            None => self.cancel(key),
        }
    }

    /// Discards stale entries sitting on top of the heap.
    fn skim(&mut self) {
        while let Some(top) = self.heap.peek() {
            let slot = &self.slots[top.key];
            if slot.gen == top.gen && slot.armed.is_some() {
                break;
            }
            self.heap.pop();
        }
    }

    /// Earliest armed `(time, key)` without firing it.
    pub fn peek(&mut self) -> Option<(f64, usize)> {
        self.skim();
        self.heap.peek().map(|e| (e.time, e.key))
    }

    /// Fires the earliest armed timer: returns `(time, key)` and disarms
    /// the key (re-arm it to keep the stream going).
    pub fn pop(&mut self) -> Option<(f64, usize)> {
        self.skim();
        let e = self.heap.pop()?;
        self.slots[e.key].armed = None;
        self.live -= 1;
        Some((e.time, e.key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut Scheduler) -> Vec<(f64, usize)> {
        let mut out = Vec::new();
        while let Some(ev) = s.pop() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::with_timers(3);
        s.schedule(0, 3.0);
        s.schedule(1, 1.0);
        s.schedule(2, 2.0);
        assert_eq!(drain(&mut s), vec![(1.0, 1), (2.0, 2), (3.0, 0)]);
    }

    #[test]
    fn ties_fire_in_key_order() {
        let mut s = Scheduler::with_timers(5);
        for key in [3usize, 0, 4, 1, 2] {
            s.schedule(key, 7.0);
        }
        assert_eq!(drain(&mut s), (0..5).map(|k| (7.0, k)).collect::<Vec<_>>());
    }

    #[test]
    fn rearm_supersedes_previous_deadline() {
        let mut s = Scheduler::with_timers(2);
        s.schedule(0, 5.0);
        s.schedule(1, 2.0);
        s.schedule(0, 1.0); // earlier
        assert_eq!(s.len(), 2);
        assert_eq!(drain(&mut s), vec![(1.0, 0), (2.0, 1)]);

        s.schedule(0, 1.0);
        s.schedule(0, 9.0); // later: the 1.0 entry must be skipped
        s.schedule(1, 3.0);
        assert_eq!(drain(&mut s), vec![(3.0, 1), (9.0, 0)]);
    }

    #[test]
    fn cancel_disarms() {
        let mut s = Scheduler::with_timers(2);
        s.schedule(0, 1.0);
        s.schedule(1, 2.0);
        s.cancel(0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.armed(0), None);
        assert_eq!(drain(&mut s), vec![(2.0, 1)]);
        s.cancel(0); // cancelling a disarmed key is a no-op
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn pop_disarms_the_key() {
        let mut s = Scheduler::with_timers(1);
        s.schedule(0, 1.0);
        assert_eq!(s.pop(), Some((1.0, 0)));
        assert_eq!(s.armed(0), None);
        assert!(s.is_empty());
        s.schedule(0, 2.0); // recurring stream: re-arm after firing
        assert_eq!(s.pop(), Some((2.0, 0)));
    }

    #[test]
    fn sync_skips_heap_churn_on_unchanged_deadline() {
        let mut s = Scheduler::with_timers(1);
        s.sync(0, Some(4.0));
        let gen_before = s.slots[0].gen;
        s.sync(0, Some(4.0)); // identical deadline: no re-arm
        assert_eq!(s.slots[0].gen, gen_before);
        s.sync(0, None);
        assert!(s.is_empty());
        s.sync(0, None); // disarming a disarmed key: no-op
        assert!(s.is_empty());
    }

    #[test]
    fn add_timer_extends_key_space() {
        let mut s = Scheduler::new();
        assert_eq!(s.add_timer(), 0);
        assert_eq!(s.add_timer(), 1);
        assert_eq!(s.n_timers(), 2);
        s.schedule(1, 1.0);
        assert_eq!(s.pop(), Some((1.0, 1)));
    }

    #[test]
    fn peek_matches_pop() {
        let mut s = Scheduler::with_timers(3);
        s.schedule(2, 2.0);
        s.schedule(1, 2.0);
        s.schedule(2, 8.0); // re-arm later: only key 1 remains at t=2
        assert_eq!(s.peek(), Some((2.0, 1)));
        assert_eq!(s.pop(), Some((2.0, 1)));
        assert_eq!(s.peek(), Some((8.0, 2)));
    }

    #[test]
    #[should_panic]
    fn non_finite_deadline_panics() {
        let mut s = Scheduler::with_timers(1);
        s.schedule(0, f64::NAN);
    }

    #[test]
    fn key_layout_round_trips() {
        let mut layout = KeyLayout::new();
        let links = layout.class(3);
        let empty = layout.class(0);
        let proxies = layout.class(2);
        assert_eq!((links, empty, proxies), (0, 1, 2));
        assert_eq!(layout.n_keys(), 5);
        assert_eq!(layout.count(empty), 0);
        for (class, idx) in [(links, 0), (links, 2), (proxies, 0), (proxies, 1)] {
            assert_eq!(layout.decode(layout.key(class, idx)), (class, idx));
        }
        assert_eq!(layout.scheduler().n_timers(), 5);
    }

    #[test]
    fn key_layout_orders_classes_before_indices() {
        // Same-instant precedence: every stream of an earlier class fires
        // before any stream of a later class.
        let mut layout = KeyLayout::new();
        let a = layout.class(2);
        let b = layout.class(2);
        let mut s = layout.scheduler();
        for key in 0..4 {
            s.schedule(key, 1.0);
        }
        let order: Vec<(usize, usize)> =
            std::iter::from_fn(|| s.pop()).map(|(_, key)| layout.decode(key)).collect();
        assert_eq!(order, vec![(a, 0), (a, 1), (b, 0), (b, 1)]);
    }

    #[test]
    fn timed_queue_pops_by_time_then_id_not_insertion() {
        let mut q = TimedQueue::new();
        q.push(2.0, 7, "late");
        q.push(1.0, 9, "tie-high");
        q.push(1.0, 4, "tie-low");
        assert_eq!(q.next_time(), Some(1.0));
        assert_eq!(q.pop_due(1.0), Some("tie-low"));
        assert_eq!(q.pop_due(1.0), Some("tie-high"));
        assert_eq!(q.pop_due(1.0), None, "2.0 entry is not due yet");
        assert_eq!(q.next_time(), Some(2.0));
        assert_eq!(q.pop_due(2.0), Some("late"));
        assert!(q.is_empty());
    }
}
