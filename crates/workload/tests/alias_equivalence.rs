//! The sparse alias rows behind `MarkovChain` against the dense alias
//! table they replace (`simcore::dist::Discrete`):
//!
//! * every outcome's `(prob, alias)` entry is identical, so the sparse row
//!   *is* the dense Vose table, not merely the same distribution;
//! * a 10 000-draw stream from the same seed is identical, so every
//!   seeded simulation that walks a chain is unchanged;
//! * hand-built rows pin the construction's corner paths, and a size guard
//!   keeps an n×n table from coming back.

use proptest::prelude::*;
use simcore::dist::Discrete;
use simcore::rng::Rng;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use workload::alias::{AliasRow, AliasRows, AliasRowsBuilder};
use workload::{ItemId, MarkovChain};

/// The dense row a chain row compiles from.
fn dense_row(chain: &MarkovChain, from: usize) -> Vec<f64> {
    let mut row = vec![0.0; chain.len()];
    for (j, p) in chain.successors(ItemId(from as u64)) {
        row[j.0 as usize] = p;
    }
    row
}

/// Entry-for-entry comparison of a sparse row with the dense table.
fn same_table(sparse: &AliasRow<'_>, dense: &Discrete) -> Result<(), TestCaseError> {
    prop_assert_eq!(sparse.len(), dense.len());
    for i in 0..dense.len() {
        prop_assert_eq!(sparse.entry(i), dense.entry(i), "entry {}", i);
    }
    Ok(())
}

/// The same seeded stream of `draws` outcomes from both samplers.
fn same_draws(sparse: &AliasRow<'_>, dense: &Discrete, seed: u64, draws: usize) -> bool {
    let (mut a, mut b) = (Rng::new(seed), Rng::new(seed));
    (0..draws).all(|_| sparse.sample_index(&mut a) == dense.sample_index(&mut b))
}

/// Builds the sparse row of `entries` over `n` outcomes and checks it
/// against `Discrete` on the dense row; returns it for further assertions.
fn check_row(n: usize, entries: &[(u32, f64)]) -> AliasRows {
    let mut b = AliasRowsBuilder::new(n);
    b.push(entries);
    let rows = b.finish();
    let mut dense = vec![0.0; n];
    for &(j, w) in entries {
        dense[j as usize] = w;
    }
    let table = Discrete::new(&dense);
    same_table(&rows.row(0), &table).unwrap();
    assert!(same_draws(&rows.row(0), &table, 99, 10_000), "draw streams diverge on {entries:?}");
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `MarkovChain::random` rows: identical tables on sampled rows, and a
    /// 10 000-step walk identical to one drawn from dense tables.
    #[test]
    fn random_chain_rows_match_dense_alias_tables(
        n in 2usize..=600,
        branching_pick in 1usize..=8,
        skew in 0.0f64..1.0,
        seed in 0u64..1_000_000,
    ) {
        let branching = branching_pick.min(n);
        let skew = 1.0 - skew; // (0, 1]
        let chain = MarkovChain::random(n, branching, skew, &mut Rng::new(seed));
        for from in [0, n / 2, n - 1] {
            let dense = Discrete::new(&dense_row(&chain, from));
            same_table(&chain.sampler(ItemId(from as u64)), &dense)?;
        }
        let mut tables: HashMap<u64, Discrete> = HashMap::new();
        let (mut a, mut b) = (Rng::new(seed ^ 0x5eed), Rng::new(seed ^ 0x5eed));
        let mut at = ItemId(0);
        for k in 0..10_000 {
            let sparse = chain.step(at, &mut a);
            let dense = tables
                .entry(at.0)
                .or_insert_with(|| Discrete::new(&dense_row(&chain, at.0 as usize)))
                .sample_index(&mut b);
            prop_assert_eq!(sparse.0, dense as u64, "step {} from {:?}", k, at);
            at = sparse;
        }
    }

    /// Arbitrary sparse weight vectors straight through the builder,
    /// including exact zeros among the explicit entries and weights many
    /// orders of magnitude apart.
    #[test]
    fn arbitrary_sparse_rows_match_dense_alias_tables(
        n in 1usize..=300,
        raw in proptest::collection::vec((0u32..300, 0u32..7, 0.0f64..1.0), 1..9),
        seed in 0u64..1_000_000,
    ) {
        let mut entries: Vec<(u32, f64)> = raw
            .iter()
            .map(|&(j, e, u)| (j % n as u32, if e == 0 { 0.0 } else { u * 10f64.powi(e as i32 - 3) }))
            .collect();
        entries.sort_by_key(|&(j, _)| j);
        entries.dedup_by_key(|&mut (j, _)| j);
        prop_assume!(entries.iter().any(|&(_, w)| w > 0.0));
        let mut b = AliasRowsBuilder::new(n);
        b.push(&entries);
        let rows = b.finish();
        let row = rows.row(0);
        prop_assert!(row.pieces().len() <= 3 * entries.len() + 1, "{} pieces", row.pieces().len());
        let mut dense = vec![0.0; n];
        for &(j, w) in &entries {
            dense[j as usize] = w;
        }
        let table = Discrete::new(&dense);
        same_table(&row, &table)?;
        prop_assert!(same_draws(&row, &table, seed, 10_000));
    }
}

#[test]
fn entry_with_scaled_weight_below_one() {
    // Scaled weights 0.4 and 3.6: outcome 0 is "small" from the start.
    let rows = check_row(4, &[(0, 0.1), (1, 0.9)]);
    let row = rows.row(0);
    let (prob, alias) = row.entry(0);
    assert!(prob > 0.0 && prob < 1.0 && alias == 1, "{:?}", row.entry(0));
}

#[test]
fn large_entry_drops_below_one_inside_a_zero_run() {
    // Scaled weights 6.5 (outcome 0) and 3.5 (outcome 9) around a run of
    // eight zeros. Outcome 9 absorbs zeros 8, 7, 6, drops to 0.5 in the
    // middle of the run and is itself paired with 0, which absorbs the
    // rest of the run.
    let rows = check_row(10, &[(0, 0.65), (9, 0.35)]);
    let row = rows.row(0);
    for i in 6..=8 {
        assert_eq!(row.entry(i), (0.0, 9), "zero {i}");
    }
    for i in 1..=5 {
        assert_eq!(row.entry(i), (0.0, 0), "zero {i}");
    }
    assert_eq!(row.entry(9), (0.5, 0));
    assert_eq!(row.entry(0), (1.0, 0));
}

#[test]
fn leftover_entries_keep_prob_one() {
    // 0.7·3/0.7 rounds to 2.9999999999999996: after two zeros the only
    // entry drops just below 1 with no large entry left — a numerical
    // leftover on the small stack.
    let rows = check_row(3, &[(1, 0.7)]);
    assert_eq!(rows.row(0).entry(1), (1.0, 0));
    // 0.5·3/0.5 is exactly 3: the entry ends on the large stack at 1.0.
    let rows = check_row(3, &[(1, 0.5)]);
    assert_eq!(rows.row(0).entry(1), (1.0, 0));
    // Several entries, some left on each stack.
    check_row(7, &[(0, 1.0 / 3.0), (3, 1.0 / 3.0), (6, 1.0 / 3.0)]);
}

#[test]
fn dense_noisy_cycle_rows_match() {
    let chain = MarkovChain::noisy_cycle(97, 0.3, &mut Rng::new(1));
    for from in [0usize, 1, 48, 96] {
        let dense = Discrete::new(&dense_row(&chain, from));
        let row = chain.sampler(ItemId(from as u64));
        same_table(&row, &dense).unwrap();
        assert!(same_draws(&row, &dense, from as u64, 10_000));
        assert_eq!(row.pieces().len(), 97, "a fully dense row has one piece per outcome");
    }
}

#[test]
fn large_sparse_chain_builds_fast_in_linear_space() {
    let (n, branching) = (20_000, 4);
    let t0 = Instant::now();
    let chain = MarkovChain::random(n, branching, 0.5, &mut Rng::new(3));
    let elapsed = t0.elapsed();
    let pieces: usize = (0..n as u64).map(|i| chain.sampler(ItemId(i)).pieces().len()).sum();
    assert!(pieces <= (3 * branching + 1) * n, "{pieces} sampler pieces for {n} rows");
    // 16-byte pieces, and at most 4 guide words per piece of the longest
    // row: a few hundred bytes per row, against 240 000 for a dense row.
    let bytes = chain.sampler_bytes();
    assert!(bytes <= 16 * pieces + 16 * (3 * branching + 1) * n, "{bytes} sampler bytes");
    // A dense alias table per row would be 4·10⁸ entries (4.8 GB).
    assert!(elapsed < Duration::from_secs(5), "build took {elapsed:?}");
    let mut rng = Rng::new(4);
    let mut at = ItemId(0);
    for _ in 0..1_000 {
        let next = chain.step(at, &mut rng);
        assert!(chain.prob(at, next) > 0.0, "drew a zero-probability transition");
        at = next;
    }
}
