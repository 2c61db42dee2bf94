//! Property tests for the indexed event scheduler: under arbitrary
//! interleavings of arm / re-arm / cancel / pop, events fire in
//! nondecreasing time with a stable ascending-key tie order, and every
//! fired event matches the *latest* deadline its key was armed with, with
//! no superseded entry left behind in the heap. The op scripts re-arm the
//! key a pop just fired often enough to fill the root slot that pop left
//! open, and run on a small key space (a shallow heap) and on a large one
//! (a heap four or more levels deep, with partly filled last sibling
//! groups). Unit tests pin the open slot's edges. A second
//! family replays `TimedQueues` pushes and pops against one sorted mirror
//! per queue, on one queue and on many sharing one node pool, and a third
//! does the same for the pairing heaps of `TimedHeaps`.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simcore::sched::{KeyLayout, Scheduler, TimedHeaps, TimedQueues};

/// One scripted operation against the scheduler. `RearmPopped` re-arms
/// the key the latest pop fired (nothing before any pop): the
/// recurring-stream pattern, which fills the root slot a pop leaves open
/// when no other mutation came between.
#[derive(Clone, Copy, Debug)]
enum Op {
    Schedule { key: usize, t: f64 },
    RearmPopped { t: f64 },
    Sync { key: usize, t: Option<f64> },
    Cancel { key: usize },
    Peek,
    Pop,
}

/// Deadlines: mostly continuous, but often on a coarse grid (so time ties
/// are common) and sometimes a signed zero, whose two encodings tie in
/// `==` but not in `total_cmp`.
fn time_strategy() -> impl Strategy<Value = f64> {
    (0u32..10, -1_000.0..1_000.0f64, 0u32..16).prop_map(|(kind, t, grid)| match kind {
        0..=3 => t,
        4..=7 => f64::from(grid) - 8.0,
        8 => 0.0,
        _ => -0.0,
    })
}

fn op_strategy(n_keys: usize) -> impl Strategy<Value = Op> {
    // Discriminant-weighted mix: mostly arms, some pops, a few cancels.
    (0u32..12, 0..n_keys, time_strategy()).prop_map(|(kind, key, t)| match kind {
        0..=3 => Op::Schedule { key, t },
        4 => Op::Sync { key, t: Some(t) },
        5 => Op::Sync { key, t: None },
        6 => Op::Cancel { key },
        7 => Op::Peek,
        8..=9 => Op::Pop,
        _ => Op::RearmPopped { t },
    })
}

/// The mirror's earliest armed `(time, key)`, in `(total_cmp, key)` order.
fn mirror_min(mirror: &[Option<f64>]) -> Option<(f64, usize)> {
    mirror
        .iter()
        .enumerate()
        .filter_map(|(k, t)| t.map(|t| (t, k)))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
}

/// Bit-exact view of a `(time, key)` pair, so `-0.0` and `0.0` differ.
fn bits(ev: Option<(f64, usize)>) -> Option<(u64, usize)> {
    ev.map(|(t, k)| (t.to_bits(), k))
}

/// A 4-ary heap of at least this many entries has an entry on level 4
/// (levels 0–3 hold 1 + 4 + 16 + 64 = 85 entries).
const DEPTH_4_LEN: usize = 86;

/// Which deep repairs of the root slot a [`replay`] reached: a sift from
/// the root over a heap of at least [`DEPTH_4_LEN`] entries whose last
/// sibling group was partly filled, once when a re-arm filled the slot a
/// pop left open and once when another mutation closed it.
#[derive(Default)]
struct DeepRepairs {
    max_len: usize,
    fill: bool,
    close: bool,
}

/// Replays an op script against a scheduler over `n_keys` keys and a
/// mirror of "latest deadline per key" state: every pop returns exactly
/// the earliest (time, key) armed in the mirror, so the full pop sequence
/// is nondecreasing in time, ties resolve by ascending key, and superseded
/// or cancelled deadlines never fire. After every op, `peek` agrees with
/// the mirror's minimum, `armed` with every key's mirrored deadline,
/// `arms` and `cancels` with the mirror's own counts, and the heap holds
/// no more entries than there are armed keys.
///
/// The mirror also tracks whether the root slot is open (a pop fired and
/// nothing has mutated the heap since), to record which deep repairs of
/// that slot the script reached.
fn replay(n_keys: usize, ops: &[Op]) -> Result<DeepRepairs, TestCaseError> {
    let mut sched = Scheduler::with_timers(n_keys);
    let mut mirror: Vec<Option<f64>> = vec![None; n_keys];
    let (mut arms, mut cancels) = (0u64, 0u64);
    let (mut popped, mut hole) = (None, false);
    let mut deep = DeepRepairs::default();
    // A sift from the root over `n` entries: children of node p sit at
    // 4p+1..=4p+4, so the last group is full exactly when n % 4 == 1.
    let deep_partial = |n: usize| n >= DEPTH_4_LEN && n % 4 != 1;
    for &op in ops {
        let live = mirror.iter().flatten().count();
        // The arm or disarm this op makes, if any: `(key, deadline)`.
        let change = match op {
            Op::Schedule { key, t } => Some((key, Some(t))),
            Op::RearmPopped { t } => popped.map(|key| (key, Some(t))),
            // `sync` compares with `==`, so re-syncing `-0.0` onto an
            // armed `0.0` (or back) keeps the armed encoding.
            Op::Sync { key, t } => (mirror[key] != t).then_some((key, t)),
            Op::Cancel { key } => mirror[key].is_some().then_some((key, None)),
            Op::Peek | Op::Pop => None,
        };
        if hole && (change.is_some() || matches!(op, Op::Pop)) {
            hole = false;
            match change {
                // An arm of a disarmed key fills the open slot; any other
                // mutation closes it first.
                Some((key, Some(_))) if mirror[key].is_none() => {
                    deep.fill |= deep_partial(live + 1)
                }
                _ => deep.close |= deep_partial(live),
            }
        }
        match op {
            Op::Schedule { key, t } => sched.schedule(key, t),
            Op::RearmPopped { t } => {
                if let Some(key) = popped {
                    sched.schedule(key, t);
                }
            }
            Op::Sync { key, t } => sched.sync(key, t),
            Op::Cancel { key } => sched.cancel(key),
            Op::Peek => {
                prop_assert_eq!(bits(sched.peek()), bits(mirror_min(&mirror)));
            }
            Op::Pop => {
                let expected = mirror_min(&mirror);
                prop_assert_eq!(bits(sched.pop()), bits(expected));
                if let Some((_, k)) = expected {
                    mirror[k] = None;
                    popped = Some(k);
                    hole = true;
                }
            }
        }
        if let Some((key, t)) = change {
            match t {
                Some(_) => arms += 1,
                None => cancels += 1,
            }
            mirror[key] = t;
        }
        // `len` is the heap's size less an open root slot: equal to the
        // armed count means no stale entry survives a re-arm, cancel or
        // pop.
        let live = mirror.iter().flatten().count();
        prop_assert_eq!(sched.len(), live);
        prop_assert_eq!(sched.is_empty(), live == 0);
        prop_assert_eq!(bits(sched.peek()), bits(mirror_min(&mirror)));
        prop_assert_eq!((sched.arms(), sched.cancels()), (arms, cancels));
        for (key, &t) in mirror.iter().enumerate() {
            prop_assert_eq!(sched.armed(key).map(f64::to_bits), t.map(f64::to_bits));
        }
        deep.max_len = deep.max_len.max(live);
    }
    Ok(deep)
}

/// One scripted operation against one queue of a [`TimedQueues`] family.
#[derive(Clone, Copy, Debug)]
enum QueueOp {
    /// Push at `t` under `id` (skipped when `id` is already pending).
    Push { t: f64, id: u64 },
    /// Push `step` after the queue's latest pending time: with `step > 0`
    /// the append fast path, with `step == 0` a tie with the tail entry.
    PushAfterBack { step: f64, id: u64 },
    /// `pop_due` at `at`, or at the queue's earliest pending time when
    /// `None`.
    Pop { at: Option<f64> },
}

fn queue_op_strategy() -> impl Strategy<Value = QueueOp> {
    (0u32..10, time_strategy(), 0u64..48, 0u32..3).prop_map(|(kind, t, id, step)| match kind {
        0..=3 => QueueOp::Push { t, id },
        4..=5 => QueueOp::PushAfterBack { step: f64::from(step) * 0.5, id },
        6..=8 => QueueOp::Pop { at: None },
        _ => QueueOp::Pop { at: Some(t) },
    })
}

/// Replays `(queue, op)` scripts against a [`TimedQueues`] family of
/// `n_queues` queues, checked at every step against one mirror per queue
/// kept sorted in `(total_cmp time, id)` order: out-of-order pushes land
/// at their sorted position, equal times pop by ascending id, `-0.0`
/// sorts before `0.0` (and `pop_due`, which compares with `==`, treats
/// them as one instant), in-order pushes take the append path, and no
/// queue sees another's entries. The pool never holds more nodes than
/// the most entries pending at once, so every freed node is reused; once
/// the family is drained, every node is on the free list.
fn replay_queues(n_queues: usize, ops: &[(usize, QueueOp)]) -> Result<(), TestCaseError> {
    let mut q = TimedQueues::new(n_queues);
    let mut mirrors: Vec<Vec<(f64, u64)>> = vec![Vec::new(); n_queues];
    let mut peak = 0;
    for &(qi, op) in ops {
        let mirror = &mut mirrors[qi];
        let push = match op {
            QueueOp::Push { t, id } => Some((t, id)),
            QueueOp::PushAfterBack { step, id } => {
                Some((mirror.last().map_or(0.0, |&(back, _)| back) + step, id))
            }
            QueueOp::Pop { at } => {
                let t = at.or(mirror.first().map(|&(front, _)| front)).unwrap_or(0.0);
                let due = mirror.first().is_some_and(|&(front, _)| front == t);
                let expected = due.then(|| mirror.remove(0));
                prop_assert_eq!(q.pop_due(qi, t), expected.map(|(t, id)| (t.to_bits(), id)));
                None
            }
        };
        let fresh = |&(_, id): &(f64, u64)| mirror.iter().all(|&(_, pending)| pending != id);
        if let Some((t, id)) = push.filter(fresh) {
            q.push(qi, t, id, (t.to_bits(), id));
            let at =
                mirror.partition_point(|&(mt, mid)| mt.total_cmp(&t).then(mid.cmp(&id)).is_lt());
            mirror.insert(at, (t, id));
        }
        prop_assert_eq!(q.queue_len(qi), mirrors[qi].len());
        let live: usize = mirrors.iter().map(Vec::len).sum();
        prop_assert_eq!(q.len(), live);
        prop_assert_eq!(q.is_empty(), live == 0);
        for (qj, mirror) in mirrors.iter().enumerate() {
            prop_assert_eq!(
                q.next_time(qj).map(f64::to_bits),
                mirror.first().map(|&(t, _)| t.to_bits())
            );
        }
        peak = peak.max(live);
        prop_assert!(q.pool_len() <= peak, "{} nodes for {} live at peak", q.pool_len(), peak);
    }
    // Drain in time order per queue: each queue pops its mirror.
    for (qi, mirror) in mirrors.iter().enumerate() {
        let mut popped = Vec::new();
        while let Some(t) = q.next_time(qi) {
            popped.extend(std::iter::from_fn(|| q.pop_due(qi, t)));
        }
        let expected: Vec<(u64, u64)> = mirror.iter().map(|&(t, id)| (t.to_bits(), id)).collect();
        prop_assert_eq!(popped, expected);
    }
    prop_assert!(q.is_empty());
    prop_assert_eq!(q.free_len(), q.pool_len());
    Ok(())
}

/// Replays `(heap, push or pop)` scripts against a [`TimedHeaps`] family
/// of `n_heaps` heaps, checked at every step against one mirror per heap
/// kept sorted in `(total_cmp time, id)` order: every pop returns its
/// mirror's first entry, every heap's next time matches, and the pool
/// never holds more nodes than the most entries pending at once. After a
/// final drain every node is on the free list.
fn replay_heaps(n_heaps: usize, ops: &[(usize, Option<(f64, u64)>)]) -> Result<(), TestCaseError> {
    let mut h = TimedHeaps::new(n_heaps);
    let mut mirrors: Vec<Vec<(f64, u64)>> = vec![Vec::new(); n_heaps];
    let mut peak = 0;
    for &(hi, op) in ops {
        let mirror = &mut mirrors[hi];
        match op {
            Some((t, id)) if mirror.iter().all(|&(_, pending)| pending != id) => {
                h.push(hi, t, id, (t.to_bits(), id));
                let at = mirror
                    .partition_point(|&(mt, mid)| mt.total_cmp(&t).then(mid.cmp(&id)).is_lt());
                mirror.insert(at, (t, id));
            }
            Some(_) => {}
            None => {
                let expected = (!mirror.is_empty()).then(|| mirror.remove(0));
                prop_assert_eq!(h.pop(hi), expected.map(|(t, id)| (t.to_bits(), id)));
            }
        }
        let live: usize = mirrors.iter().map(Vec::len).sum();
        prop_assert_eq!(h.len(), live);
        for (hj, mirror) in mirrors.iter().enumerate() {
            prop_assert_eq!(
                h.next_time(hj).map(f64::to_bits),
                mirror.first().map(|&(t, _)| t.to_bits())
            );
        }
        peak = peak.max(live);
        prop_assert!(h.pool_len() <= peak, "{} nodes for {} live at peak", h.pool_len(), peak);
    }
    for (hi, mirror) in mirrors.iter().enumerate() {
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| h.pop(hi)).collect();
        let expected: Vec<(u64, u64)> = mirror.iter().map(|&(t, id)| (t.to_bits(), id)).collect();
        prop_assert_eq!(popped, expected);
    }
    prop_assert!(h.is_empty());
    prop_assert_eq!(h.free_len(), h.pool_len());
    Ok(())
}

/// Pushes (out-of-order times, grid ties, signed zeros; ids from a small
/// range, so some repeat and are skipped) three times as often as pops.
fn heap_op_strategy(n_heaps: usize) -> impl Strategy<Value = (usize, Option<(f64, u64)>)> {
    (0..n_heaps, 0u32..4, time_strategy(), 0u64..256)
        .prop_map(|(hi, kind, t, id)| (hi, (kind < 3).then_some((t, id))))
}

proptest! {
    /// The op-script property on a shallow heap of 12 keys.
    #[test]
    fn pop_always_returns_the_earliest_live_deadline(
        ops in proptest::collection::vec(op_strategy(12), 1..400),
    ) {
        replay(12, &ops)?;
    }

    /// One queue of the family under interleaved pushes and pops, checked
    /// at every step against a sorted mirror (see [`replay_queues`]).
    #[test]
    fn timed_queue_matches_a_sorted_mirror(
        ops in proptest::collection::vec(queue_op_strategy(), 1..300),
    ) {
        let ops: Vec<(usize, QueueOp)> = ops.into_iter().map(|op| (0, op)).collect();
        replay_queues(1, &ops)?;
    }

    /// Twelve queues sharing one pool under interleaved pushes and pops:
    /// out-of-order times, equal times under distinct ids, and pops on
    /// any queue between pushes to others. Each queue pops in the order
    /// of its own sorted mirror, and the pool never grows past the peak
    /// number of live entries (see [`replay_queues`]).
    #[test]
    fn timed_queues_match_per_queue_sorted_mirrors(
        ops in proptest::collection::vec((0usize..12, queue_op_strategy()), 1..600),
    ) {
        replay_queues(12, &ops)?;
    }

    /// One pairing heap, pushed three times as often as popped, so it
    /// grows hundreds deep and every pop melds long sibling lists (see
    /// [`replay_heaps`]).
    #[test]
    fn timed_heap_matches_a_sorted_mirror(
        ops in proptest::collection::vec(heap_op_strategy(1), 1..600),
    ) {
        replay_heaps(1, &ops)?;
    }

    /// Eight pairing heaps sharing one pool under interleaved pushes and
    /// pops.
    #[test]
    fn timed_heaps_match_per_heap_sorted_mirrors(
        ops in proptest::collection::vec(heap_op_strategy(8), 1..600),
    ) {
        replay_heaps(8, &ops)?;
    }

    /// Draining a scheduler after arbitrary arming yields times in
    /// nondecreasing order with ascending keys on ties — the determinism
    /// contract the cluster engines' event ordering rests on.
    #[test]
    fn drain_is_sorted_by_time_then_key(
        arms in proptest::collection::vec((0usize..32, 0.0..100.0f64), 1..200),
    ) {
        let mut sched = Scheduler::with_timers(32);
        for &(key, t) in &arms {
            sched.schedule(key, t);
        }
        let mut fired = Vec::new();
        while let Some(ev) = sched.pop() {
            fired.push(ev);
        }
        for pair in fired.windows(2) {
            prop_assert!(
                pair[0].0 < pair[1].0 || (pair[0].0 == pair[1].0 && pair[0].1 < pair[1].1),
                "out of order: {:?} before {:?}",
                pair[0],
                pair[1]
            );
        }
        // Exactly the latest arm per key fired.
        let mut latest: Vec<Option<f64>> = vec![None; 32];
        for &(key, t) in &arms {
            latest[key] = Some(t);
        }
        let mut expected: Vec<(f64, usize)> = latest
            .iter()
            .enumerate()
            .filter_map(|(k, t)| t.map(|t| (t, k)))
            .collect();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        prop_assert_eq!(fired, expected);
    }

    /// Cancel/re-arm interleavings addressed through the shard-handle API
    /// ([`KeyLayout`]): a layout-addressed scheduler behaves exactly like
    /// a flat one, and same-instant pops come out class-major then
    /// entity-ascending — the cross-shard tie order the sharded cluster
    /// driver's global-rank merge depends on.
    #[test]
    fn layout_addressed_ops_match_flat_keys(
        ops in proptest::collection::vec(
            (0u32..7, 0usize..3, 0usize..5, 0.0..1_000.0f64),
            1..300,
        ),
    ) {
        // Three classes of five streams each.
        let mut layout = KeyLayout::new();
        let classes: Vec<usize> = (0..3).map(|_| layout.class(5)).collect();
        let mut sched = layout.scheduler();
        let mut mirror: Vec<Option<f64>> = vec![None; layout.n_keys()];
        for (kind, class, idx, t) in ops {
            let key = layout.key(classes[class], idx);
            match kind {
                0..=3 => {
                    sched.schedule(key, t);
                    mirror[key] = Some(t);
                }
                4 => {
                    sched.cancel(key);
                    mirror[key] = None;
                }
                _ => {
                    let expected = mirror
                        .iter()
                        .enumerate()
                        .filter_map(|(k, t)| t.map(|t| (t, k)))
                        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    let popped = sched.pop();
                    prop_assert_eq!(popped, expected);
                    if let Some((_, k)) = popped {
                        // Round-trip: the fired key decodes into the
                        // class/index it was armed through.
                        let (c, i) = layout.decode(k);
                        prop_assert_eq!(layout.key(c, i), k);
                        mirror[k] = None;
                    }
                }
            }
        }
        // Drain: class-major, then entity index, on every time tie.
        let mut last: Option<(f64, usize)> = None;
        while let Some((t, key)) = sched.pop() {
            if let Some((lt, lk)) = last {
                prop_assert!(lt < t || (lt == t && lk < key));
                if lt == t {
                    let (lc, li) = layout.decode(lk);
                    let (c, i) = layout.decode(key);
                    prop_assert!(lc < c || (lc == c && li < i), "tie order violates layout");
                }
            }
            last = Some((t, key));
        }
    }

    /// A mailbox-fed queue of a [`TimedQueues`] family replays entries in
    /// `(time, id)` order no matter how the sends were interleaved — the
    /// property that makes cross-shard message delivery order irrelevant.
    #[test]
    fn timed_queue_order_is_insertion_invariant(
        mut entries in proptest::collection::vec((0.0..100.0f64, 0u64..10_000), 1..100),
    ) {
        // Unique ids (the queue's contract: one pending entry per id).
        entries.sort_by_key(|e| e.1);
        entries.dedup_by_key(|e| e.1);
        let mut forward = TimedQueues::new(1);
        let mut backward = TimedQueues::new(1);
        for &(t, id) in &entries {
            forward.push(0, t, id, (t, id));
        }
        for &(t, id) in entries.iter().rev() {
            backward.push(0, t, id, (t, id));
        }
        let drain = |q: &mut TimedQueues<(f64, u64)>| {
            let mut out = Vec::new();
            while let Some(t) = q.next_time(0) {
                while let Some(e) = q.pop_due(0, t) {
                    out.push(e);
                }
            }
            out
        };
        let a = drain(&mut forward);
        let b = drain(&mut backward);
        prop_assert_eq!(&a, &b);
        for pair in a.windows(2) {
            prop_assert!(
                pair[0].0 < pair[1].0 || (pair[0].0 == pair[1].0 && pair[0].1 < pair[1].1)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The op-script property on 256 keys with long scripts: the heap
    /// grows to four or more levels, and the root slot a pop leaves open
    /// is both filled and closed with the last sibling group partly
    /// filled, so both sifts from the root, the tournament and the
    /// partial-group scan all meet deep heaps.
    #[test]
    fn deep_heap_pops_return_the_earliest_live_deadline(
        ops in proptest::collection::vec(op_strategy(256), 1_500..3_000),
    ) {
        let deep = replay(256, &ops)?;
        prop_assert!(deep.max_len >= DEPTH_4_LEN, "heap peaked at {} entries", deep.max_len);
        prop_assert!(deep.fill, "no deep fill of the root slot with a partial last group");
        prop_assert!(deep.close, "no deep close of the root slot with a partial last group");
    }
}

/// `-0.0` and `0.0` are equal under `==` but `total_cmp` orders `-0.0`
/// first; the scheduler's packed entries must agree with `total_cmp`,
/// whatever the keys and arming order.
#[test]
fn negative_zero_fires_before_positive_zero() {
    for (first, second) in [(0usize, 1usize), (1, 0)] {
        let mut sched = Scheduler::with_timers(2);
        sched.schedule(first, 0.0);
        sched.schedule(second, -0.0);
        assert_eq!(bits(sched.peek()), Some(((-0.0f64).to_bits(), second)));
        assert_eq!(bits(sched.pop()), Some(((-0.0f64).to_bits(), second)));
        assert_eq!(bits(sched.pop()), Some((0.0f64.to_bits(), first)));
        assert_eq!(sched.pop(), None);
    }
}

/// Popping the only armed timer leaves an open root slot and nothing
/// else: the scheduler reads empty, a second pop finds nothing, and the
/// next arm (of any key) fills the slot.
#[test]
fn popping_the_last_entry_leaves_an_empty_scheduler() {
    let mut sched = Scheduler::with_timers(2);
    sched.schedule(0, 1.0);
    assert_eq!(sched.pop(), Some((1.0, 0)));
    assert_eq!((sched.peek(), sched.len(), sched.is_empty()), (None, 0, true));
    assert_eq!(sched.armed(0), None);
    assert_eq!(sched.pop(), None);
    assert_eq!((sched.peek(), sched.len(), sched.is_empty()), (None, 0, true));
    // A fill into an otherwise empty heap: the new entry is the root.
    assert_eq!(sched.pop(), None);
    sched.schedule(0, 2.0);
    assert_eq!(sched.pop(), Some((2.0, 0)));
    sched.schedule(1, 5.0);
    assert_eq!((sched.peek(), sched.len(), sched.is_empty()), (Some((5.0, 1)), 1, false));
    assert_eq!(sched.pop(), Some((5.0, 1)));
    assert_eq!((sched.pop(), sched.len()), (None, 0));
    assert_eq!((sched.arms(), sched.cancels()), (3, 0));
}

/// With the root slot open, `peek` is the least of the root's 1–4
/// children, wherever that child sits in the group, and `len` counts
/// only the children.
#[test]
fn peek_over_an_open_root_slot_reads_its_children() {
    for children in 1..=4usize {
        for min_at in 1..=children {
            let mut sched = Scheduler::with_timers(children + 1);
            // Key 0 is the root; arming keys 1..=children later than it,
            // in key order, places key j at heap slot j.
            sched.schedule(0, 0.0);
            for key in 1..=children {
                sched.schedule(key, if key == min_at { 1.0 } else { 10.0 + key as f64 });
            }
            assert_eq!(sched.pop(), Some((0.0, 0)));
            assert_eq!(sched.peek(), Some((1.0, min_at)), "{children} children, min at {min_at}");
            assert_eq!((sched.len(), sched.is_empty()), (children, false));
            // Draining closes the slot and keeps the order.
            let mut fired: Vec<usize> =
                std::iter::from_fn(|| sched.pop()).map(|(_, k)| k).collect();
            assert_eq!(fired.remove(0), min_at);
            assert!(fired.windows(2).all(|w| w[0] < w[1]), "{fired:?}");
        }
    }
}

/// The `-0.0`/`0.0` tie with the root slot open: `peek` over the
/// children and a fill into the slot both order `-0.0` first.
#[test]
fn negative_zero_orders_first_with_the_root_slot_open() {
    let neg = (-0.0f64).to_bits();
    let pos = 0.0f64.to_bits();
    let mut sched = Scheduler::with_timers(3);
    sched.schedule(0, -5.0);
    sched.schedule(1, 0.0);
    sched.schedule(2, -0.0);
    assert_eq!(sched.pop(), Some((-5.0, 0)));
    assert_eq!(bits(sched.peek()), Some((neg, 2)));
    // The fill ties with key 1 at `0.0` and sorts after `-0.0`.
    sched.schedule(0, 0.0);
    assert_eq!(bits(sched.peek()), Some((neg, 2)));
    assert_eq!(bits(sched.pop()), Some((neg, 2)));
    assert_eq!(bits(sched.peek()), Some((pos, 0)));
    // A `-0.0` fill into the slot goes ahead of both `0.0` entries.
    sched.schedule(2, -0.0);
    assert_eq!(bits(sched.peek()), Some((neg, 2)));
    let drained: Vec<_> = std::iter::from_fn(|| bits(sched.pop())).collect();
    assert_eq!(drained, [(neg, 2), (pos, 0), (pos, 1)]);
}
