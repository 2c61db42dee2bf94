//! Property tests for the indexed event scheduler: under arbitrary
//! interleavings of arm / re-arm / cancel / pop, events fire in
//! nondecreasing time with a stable ascending-key tie order, and every
//! fired event matches the *latest* deadline its key was armed with, with
//! no superseded entry left behind in the heap.

use proptest::prelude::*;
use simcore::sched::{KeyLayout, Scheduler, TimedQueue};

/// One scripted operation against the scheduler.
#[derive(Clone, Copy, Debug)]
enum Op {
    Schedule { key: usize, t: f64 },
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
    (0u32..10, 0..n_keys, time_strategy()).prop_map(|(kind, key, t)| match kind {
        0..=3 => Op::Schedule { key, t },
        4 => Op::Sync { key, t: Some(t) },
        5 => Op::Sync { key, t: None },
        6 => Op::Cancel { key },
        7 => Op::Peek,
        _ => Op::Pop,
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

proptest! {
    /// Replaying any op script against a mirror of "latest deadline per
    /// key" state: every pop returns exactly the earliest (time, key)
    /// armed in the mirror, so the full pop sequence is nondecreasing in
    /// time, ties resolve by ascending key, and superseded or cancelled
    /// deadlines never fire. After every op, `peek` agrees with the
    /// mirror's minimum, `armed` with every key's mirrored deadline, and
    /// the heap holds no more entries than there are armed keys.
    #[test]
    fn pop_always_returns_the_earliest_live_deadline(
        ops in proptest::collection::vec(op_strategy(12), 1..400),
    ) {
        let mut sched = Scheduler::with_timers(12);
        let mut mirror: Vec<Option<f64>> = vec![None; 12];
        for op in ops {
            match op {
                Op::Schedule { key, t } => {
                    sched.schedule(key, t);
                    mirror[key] = Some(t);
                }
                Op::Sync { key, t } => {
                    sched.sync(key, t);
                    // `sync` compares with `==`, so re-syncing `-0.0` onto
                    // an armed `0.0` (or back) keeps the armed encoding.
                    if mirror[key] != t {
                        mirror[key] = t;
                    }
                }
                Op::Cancel { key } => {
                    sched.cancel(key);
                    mirror[key] = None;
                }
                Op::Peek => {
                    prop_assert_eq!(bits(sched.peek()), bits(mirror_min(&mirror)));
                }
                Op::Pop => {
                    let expected = mirror_min(&mirror);
                    prop_assert_eq!(bits(sched.pop()), bits(expected));
                    if let Some((_, k)) = expected {
                        mirror[k] = None;
                    }
                }
            }
            // `len` is the heap's size: equal to the armed count means no
            // stale entry survives a re-arm, cancel or pop.
            prop_assert_eq!(sched.len(), mirror.iter().flatten().count());
            prop_assert_eq!(bits(sched.peek()), bits(mirror_min(&mirror)));
            for (key, &t) in mirror.iter().enumerate() {
                prop_assert_eq!(sched.armed(key).map(f64::to_bits), t.map(f64::to_bits));
            }
        }
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

    /// A mailbox-fed [`TimedQueue`] replays entries in `(time, id)` order
    /// no matter how the sends were interleaved — the property that makes
    /// cross-shard message delivery order irrelevant.
    #[test]
    fn timed_queue_order_is_insertion_invariant(
        mut entries in proptest::collection::vec((0.0..100.0f64, 0u64..10_000), 1..100),
    ) {
        // Unique ids (the queue's contract: one pending entry per id).
        entries.sort_by_key(|e| e.1);
        entries.dedup_by_key(|e| e.1);
        let mut forward = TimedQueue::new();
        let mut backward = TimedQueue::new();
        for &(t, id) in &entries {
            forward.push(t, id, (t, id));
        }
        for &(t, id) in entries.iter().rev() {
            backward.push(t, id, (t, id));
        }
        let drain = |q: &mut TimedQueue<(f64, u64)>| {
            let mut out = Vec::new();
            while let Some(t) = q.next_time() {
                while let Some(e) = q.pop_due(t) {
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
