//! Byte-accounting invariants of the size-aware caches, proptested over
//! arbitrary operation interleavings:
//!
//! * occupancy in bytes never exceeds `byte_capacity`, and entry count
//!   never exceeds `capacity`, after any mix of charge/insert/remove/touch;
//! * `used_bytes` always equals the sum of the live entries' charges
//!   (no leaked or double-counted bytes);
//! * with an unbounded byte budget, `charge` is observationally identical
//!   to the item-counted `insert` — byte-addressed caches degenerate to
//!   the validated item-counted behaviour, not a parallel code path.

use cachesim::{ByteCapacity, FifoCache, LruCache, ReplacementCache, ValueAwareCache};
use proptest::prelude::*;

/// One generated cache operation. Sizes come quantised so eviction
/// tie-situations and exact-fit boundaries are actually exercised.
#[derive(Clone, Copy, Debug)]
enum Op {
    Charge(u32, f64),
    Insert(u32),
    Remove(u32),
    Touch(u32),
}

fn op_strategy(n_keys: u32) -> impl Strategy<Value = Op> {
    (0u32..4, 0u32..n_keys, 0u32..9).prop_map(|(kind, key, size_q)| match kind {
        0 => Op::Charge(key, size_q as f64 * 0.5),
        1 => Op::Insert(key),
        2 => Op::Remove(key),
        _ => Op::Touch(key),
    })
}

fn check_invariants<C: ByteCapacity<u32>>(cache: &C, label: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        cache.len() <= cache.capacity(),
        "{label}: {} entries exceed capacity {}",
        cache.len(),
        cache.capacity()
    );
    prop_assert!(
        cache.used_bytes() <= cache.byte_capacity() + 1e-9,
        "{label}: occupancy {} bytes exceeds byte capacity {}",
        cache.used_bytes(),
        cache.byte_capacity()
    );
    let sum: f64 = cache.keys().iter().map(|k| cache.entry_bytes(k).unwrap_or(0.0)).sum();
    prop_assert!(
        (cache.used_bytes() - sum).abs() < 1e-6,
        "{label}: used_bytes {} != sum of entry charges {sum}",
        cache.used_bytes()
    );
    Ok(())
}

fn drive<C: ByteCapacity<u32>>(
    cache: &mut C,
    ops: &[Op],
    label: &str,
) -> Result<(), TestCaseError> {
    for &op in ops {
        match op {
            Op::Charge(k, bytes) => {
                let before: Vec<u32> = cache.keys();
                let mut evicted = Vec::new();
                let admitted = cache.charge(k, bytes, &mut evicted);
                if bytes <= cache.byte_capacity() {
                    prop_assert!(admitted, "{label}: fitting entry rejected");
                    prop_assert!(cache.contains(&k));
                } else {
                    prop_assert!(!admitted, "{label}: oversized entry admitted");
                    prop_assert!(!cache.contains(&k));
                }
                for v in &evicted {
                    prop_assert!(
                        before.contains(v),
                        "{label}: evicted {v} was not cached beforehand"
                    );
                    prop_assert!(!cache.contains(v), "{label}: evicted {v} still present");
                }
            }
            Op::Insert(k) => {
                cache.insert(k);
            }
            Op::Remove(k) => {
                cache.remove(&k);
            }
            Op::Touch(k) => {
                cache.touch(k);
            }
        }
        check_invariants(cache, label)?;
    }
    Ok(())
}

/// Regression: f64 subtraction residue (`a + b - b ≠ a`) must not survive
/// in the ledger of an emptied cache — a later exact-budget charge (legal:
/// only `bytes > byte_capacity` is rejected) would otherwise drive the
/// eviction loop into an empty cache and panic.
#[test]
fn exact_budget_charge_after_residue_is_admitted() {
    let budget = 1.0;
    for sizes in [[0.1, 0.3], [0.7, 0.2], [0.3, 0.30000000000000004]] {
        let mut lru = LruCache::with_byte_capacity(8, budget);
        let mut fifo = FifoCache::with_byte_capacity(8, budget);
        for (i, &s) in sizes.iter().enumerate() {
            lru.charge(i as u32, s, &mut Vec::new());
            fifo.charge(i as u32, s, &mut Vec::new());
        }
        for i in 0..sizes.len() as u32 {
            lru.remove(&i);
            fifo.remove(&i);
        }
        assert_eq!(lru.used_bytes(), 0.0, "lru ledger residue after drain");
        assert_eq!(fifo.used_bytes(), 0.0, "fifo ledger residue after drain");
        assert!(lru.charge(9, budget, &mut Vec::new()), "exact-budget charge rejected by lru");
        assert!(fifo.charge(9, budget, &mut Vec::new()), "exact-budget charge rejected by fifo");
    }
}

proptest! {
    /// LRU: byte occupancy, entry count, and the used-bytes ledger hold
    /// under arbitrary interleavings of all five operations.
    #[test]
    fn lru_byte_occupancy_never_exceeds_budget(
        ops in proptest::collection::vec(op_strategy(24), 1..400),
        capacity in 1usize..12,
        byte_capacity_q in 1u32..20,
    ) {
        let mut cache = LruCache::with_byte_capacity(capacity, byte_capacity_q as f64 * 0.5);
        drive(&mut cache, &ops, "lru")?;
    }

    /// FIFO: the same invariants, including through its lazy-removal ghost
    /// queue.
    #[test]
    fn fifo_byte_occupancy_never_exceeds_budget(
        ops in proptest::collection::vec(op_strategy(24), 1..400),
        capacity in 1usize..12,
        byte_capacity_q in 1u32..20,
    ) {
        let mut cache = FifoCache::with_byte_capacity(capacity, byte_capacity_q as f64 * 0.5);
        drive(&mut cache, &ops, "fifo")?;
    }

    /// Value-aware: the invariants hold through minimum-value eviction,
    /// whose victim order differs from both LRU and FIFO.
    #[test]
    fn value_aware_byte_occupancy_never_exceeds_budget(
        ops in proptest::collection::vec(op_strategy(24), 1..400),
        capacity in 1usize..12,
        byte_capacity_q in 1u32..20,
    ) {
        let mut cache = ValueAwareCache::with_byte_capacity(capacity, byte_capacity_q as f64 * 0.5);
        drive(&mut cache, &ops, "value_aware")?;
    }

    /// With an unbounded byte budget, `charge` makes exactly the
    /// admissions and evictions `insert` makes: the byte-addressed path
    /// is a strict generalisation, pinned eviction-for-eviction.
    #[test]
    fn unbounded_charge_degenerates_to_insert(
        keys in proptest::collection::vec(0u32..32, 1..300),
        capacity in 1usize..10,
    ) {
        let mut by_charge = LruCache::with_byte_capacity(capacity, f64::INFINITY);
        let mut by_insert = LruCache::new(capacity);
        for &k in &keys {
            let mut charged_out = Vec::new();
            let admitted = by_charge.charge(k, 1.0, &mut charged_out);
            let evicted = by_insert.insert(k);
            prop_assert!(admitted);
            prop_assert_eq!(charged_out, evicted.into_iter().collect::<Vec<_>>());
            prop_assert_eq!(by_charge.keys(), by_insert.keys());
        }
    }
}
