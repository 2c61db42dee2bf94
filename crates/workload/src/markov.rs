//! First-order Markov reference streams.
//!
//! A Markov chain over items is the canonical workload under which
//! speculative prefetching is analysable: after observing a request for item
//! `i`, the *true* probability that the next request is `j` is `P[i][j]` —
//! exactly the `p` in the paper's model. The chain doubles as ground truth
//! for scoring the `predictor` crate.

use crate::alias::{AliasRow, AliasRows, AliasRowsBuilder};
use crate::catalog::ItemId;
use crate::RequestStream;
use simcore::rng::Rng;

/// A first-order Markov chain over `n` items.
///
/// Rows are stored sparsely, in flat CSR arrays (all rows' entries back
/// to back, plus one offset per row): the non-zero transitions, and one
/// sparse alias sampler per row ([`AliasRows`]). A row with `k` non-zero
/// transitions costs O(k) memory and build time whatever `n` is, so a
/// [`MarkovChain::random`] chain holds O(n·branching) state, not an n×n
/// table, and a draw touches a few hundred bytes of its row.
///
/// **Draw contract.** [`MarkovChain::step`] consumes exactly the variates
/// of `simcore::dist::Discrete::sample_index` over the dense row
/// (`rng.index(n)`, then `rng.f64()`) and returns the same successor: the
/// sparse sampler reproduces the dense Vose alias table entry for entry.
///
/// ```
/// use simcore::rng::Rng;
/// use workload::{ItemId, MarkovChain, RequestStream};
///
/// let mut rng = Rng::new(7);
/// let mut chain = MarkovChain::noisy_cycle(5, 0.1, &mut rng);
/// // The top successor of state 0 is state 1, with probability 0.9 + 0.02.
/// let succ = chain.successors(ItemId(0));
/// assert_eq!(succ[0].0, ItemId(1));
/// assert!((succ[0].1 - 0.92).abs() < 1e-12);
/// // Streaming requests walk the chain.
/// let next = chain.next_item(&mut rng);
/// assert!(next.0 < 5);
/// ```
pub struct MarkovChain {
    /// Row `i`'s transitions with non-zero probability, `(successor, p)`
    /// in ascending successor order, are `succ[succ_at[i]..succ_at[i + 1]]`.
    succ: Vec<(u32, f64)>,
    succ_at: Vec<usize>,
    /// Row `i`'s sampler is `samplers.row(i)`.
    samplers: AliasRows,
    state: usize,
}

/// Validates and compiles rows one at a time into a [`MarkovChain`].
struct RowsBuilder {
    n: usize,
    succ: Vec<(u32, f64)>,
    succ_at: Vec<usize>,
    samplers: AliasRowsBuilder,
}

impl RowsBuilder {
    fn new(n: usize) -> Self {
        assert!(n > 0, "empty chain");
        RowsBuilder { n, succ: Vec::new(), succ_at: vec![0], samplers: AliasRowsBuilder::new(n) }
    }

    /// Appends the next row from its non-zero `(successor, p)` entries in
    /// ascending successor order.
    fn push(&mut self, entries: &[(u32, f64)]) {
        let i = self.succ_at.len() - 1;
        assert!(i < self.n, "more than {} rows", self.n);
        // Left to right, like the sum over the dense row (zeros add nothing).
        let sum: f64 = entries.iter().map(|&(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-9, "row {i} sums to {sum}");
        assert!(entries.iter().all(|&(_, p)| p >= 0.0), "row {i} has negative entries");
        self.samplers.push(entries);
        self.succ.extend(entries.iter().filter(|&&(_, p)| p > 0.0));
        self.succ_at.push(self.succ.len());
    }

    fn finish(mut self) -> MarkovChain {
        assert_eq!(self.succ_at.len(), self.n + 1, "chain needs {} rows", self.n);
        self.succ.shrink_to_fit();
        MarkovChain {
            succ: self.succ,
            succ_at: self.succ_at,
            samplers: self.samplers.finish(),
            state: 0,
        }
    }
}

impl MarkovChain {
    /// Builds a chain from a dense transition matrix (each row must be a
    /// probability vector).
    pub fn new(rows: Vec<Vec<f64>>) -> Self {
        let n = rows.len();
        let mut b = RowsBuilder::new(n);
        let mut entries = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has wrong length");
            entries.clear();
            // Negative (and NaN) entries stay in so the row checks see them.
            entries.extend(
                row.iter().enumerate().filter(|(_, &p)| p != 0.0).map(|(j, &p)| (j as u32, p)),
            );
            b.push(&entries);
        }
        b.finish()
    }

    /// A random sparse chain: from each state, `branching` successors with
    /// geometrically decaying probabilities (decay factor `skew` in (0,1];
    /// `skew = 1` gives equal successors). Successors are chosen uniformly
    /// at random. Higher `skew` → more deterministic → more predictable.
    pub fn random(n: usize, branching: usize, skew: f64, rng: &mut Rng) -> Self {
        assert!(n >= 2 && branching >= 1 && branching <= n);
        assert!(skew > 0.0 && skew <= 1.0);
        let mut b = RowsBuilder::new(n);
        // Geometric weights: skew^0, skew^1, ... normalised.
        let mut weights = Vec::with_capacity(branching);
        let mut w = 1.0;
        let mut total = 0.0;
        for _ in 0..branching {
            weights.push(w);
            total += w;
            w *= skew;
        }
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(branching);
        for _ in 0..n {
            // Pick `branching` distinct successors; the k-th drawn gets
            // the k-th weight.
            entries.clear();
            while entries.len() < branching {
                let s = rng.index(n) as u32;
                if !entries.iter().any(|&(j, _)| j == s) {
                    entries.push((s, weights[entries.len()] / total));
                }
            }
            entries.sort_unstable_by_key(|&(j, _)| j);
            b.push(&entries);
        }
        b.finish()
    }

    /// A noisy cycle: state `i` goes to `i+1 (mod n)` with probability
    /// `1 − noise`, else to a uniformly random state. `noise = 0` is fully
    /// deterministic (every access perfectly predictable).
    pub fn noisy_cycle(n: usize, noise: f64, _rng: &mut Rng) -> Self {
        assert!(n >= 2 && (0.0..=1.0).contains(&noise));
        let mut b = RowsBuilder::new(n);
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let next = (i + 1) % n;
            entries.clear();
            entries.extend((0..n).filter_map(|j| {
                let mut p = noise / n as f64;
                if j == next {
                    p += 1.0 - noise;
                }
                (p != 0.0).then_some((j as u32, p))
            }));
            b.push(&entries);
        }
        b.finish()
    }

    /// Row `i`'s non-zero transitions, ascending successor order.
    fn row(&self, i: usize) -> &[(u32, f64)] {
        &self.succ[self.succ_at[i]..self.succ_at[i + 1]]
    }

    /// The alias sampler [`MarkovChain::step`] draws `from`'s successor
    /// with.
    pub fn sampler(&self, from: ItemId) -> AliasRow<'_> {
        self.samplers.row(from.0 as usize)
    }

    /// Heap bytes of the alias samplers: O(n·branching) for a
    /// [`MarkovChain::random`] chain.
    pub fn sampler_bytes(&self) -> usize {
        self.samplers.heap_bytes()
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.succ_at.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True transition probability `P[from][to]`.
    pub fn prob(&self, from: ItemId, to: ItemId) -> f64 {
        let row = self.row(from.0 as usize);
        assert!((to.0 as usize) < self.len(), "state {} out of range", to.0);
        match row.binary_search_by_key(&to.0, |&(j, _)| j as u64) {
            Ok(k) => row[k].1,
            Err(_) => 0.0,
        }
    }

    /// The successors of `from` with non-zero probability, sorted by
    /// descending probability — the oracle candidate list.
    pub fn successors(&self, from: ItemId) -> Vec<(ItemId, f64)> {
        let mut out: Vec<(ItemId, f64)> =
            self.row(from.0 as usize).iter().map(|&(j, p)| (ItemId(j as u64), p)).collect();
        // Stable: equal probabilities keep ascending successor order.
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Current state.
    pub fn state(&self) -> ItemId {
        ItemId(self.state as u64)
    }

    /// Draws the successor of `from` without touching the chain's own
    /// state: the same draw `next_item` makes from state `from`, so one
    /// chain can drive many independent walkers through `&self`.
    pub fn step(&self, from: ItemId, rng: &mut Rng) -> ItemId {
        ItemId(self.sampler(from).sample_index(rng) as u64)
    }
}

impl RequestStream for MarkovChain {
    fn next_item(&mut self, rng: &mut Rng) -> ItemId {
        let next = self.step(self.state(), rng);
        self.state = next.0 as usize;
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_frequencies_match_matrix() {
        let mut rng = Rng::new(1);
        let mut chain =
            MarkovChain::new(vec![vec![0.1, 0.9, 0.0], vec![0.0, 0.2, 0.8], vec![0.5, 0.0, 0.5]]);
        let mut counts = [[0usize; 3]; 3];
        let mut prev = chain.state().0 as usize;
        let n = 300_000;
        for _ in 0..n {
            let next = chain.next_item(&mut rng).0 as usize;
            counts[prev][next] += 1;
            prev = next;
        }
        for (i, row) in counts.iter().enumerate() {
            let row_total: usize = row.iter().sum();
            for (j, &count) in row.iter().enumerate() {
                let emp = count as f64 / row_total as f64;
                let truth = chain.prob(ItemId(i as u64), ItemId(j as u64));
                assert!((emp - truth).abs() < 0.01, "P[{i}][{j}] emp {emp} vs {truth}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_stochastic_rows() {
        let _ = MarkovChain::new(vec![vec![0.5, 0.6], vec![0.5, 0.5]]);
    }

    #[test]
    fn random_chain_rows_are_stochastic() {
        let mut rng = Rng::new(2);
        let chain = MarkovChain::random(50, 4, 0.5, &mut rng);
        for i in 0..50 {
            let succ = chain.successors(ItemId(i));
            assert_eq!(succ.len(), 4);
            let total: f64 = succ.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9);
            // Geometric decay with ratio 0.5: top successor has p = 8/15.
            assert!((succ[0].1 - 8.0 / 15.0).abs() < 1e-9);
        }
    }

    #[test]
    fn noisy_cycle_probabilities() {
        let mut rng = Rng::new(3);
        let chain = MarkovChain::noisy_cycle(10, 0.2, &mut rng);
        let succ = chain.successors(ItemId(0));
        // Successor 1 has 0.8 + 0.02; all others 0.02.
        assert_eq!(succ[0].0, ItemId(1));
        assert!((succ[0].1 - 0.82).abs() < 1e-12);
        assert_eq!(succ.len(), 10);
    }

    /// Stationary distribution by power iteration over the sparse rows.
    fn stationary(chain: &MarkovChain, iterations: usize) -> Vec<f64> {
        let n = chain.len();
        let mut pi = vec![1.0 / n as f64; n];
        for _ in 0..iterations {
            let mut next = vec![0.0; n];
            for (i, &pi_i) in pi.iter().enumerate() {
                for &(j, p) in chain.row(i) {
                    next[j as usize] += pi_i * p;
                }
            }
            pi = next;
        }
        pi
    }

    #[test]
    fn stationary_matches_empirical_visits() {
        let mut rng = Rng::new(6);
        let mut chain = MarkovChain::random(20, 3, 0.4, &mut rng);
        let pi = stationary(&chain, 1000);
        let mut counts = [0usize; 20];
        let n = 400_000;
        for _ in 0..n {
            counts[chain.next_item(&mut rng).0 as usize] += 1;
        }
        for i in 0..20 {
            let emp = counts[i] as f64 / n as f64;
            assert!((emp - pi[i]).abs() < 0.01, "state {i}: {emp} vs {}", pi[i]);
        }
    }

    #[test]
    fn step_matches_set_state_then_next_item() {
        let mut build = Rng::new(8);
        let mut walker = MarkovChain::random(40, 4, 0.5, &mut build);
        let mut build = Rng::new(8);
        let shared = MarkovChain::random(40, 4, 0.5, &mut build);
        let (mut rng_a, mut rng_b) = (Rng::new(9), Rng::new(9));
        let mut from = ItemId(0);
        for k in 0..5_000u64 {
            // Jump around so every row's sampler is exercised.
            if k % 7 == 0 {
                from = ItemId(k % 40);
            }
            walker.state = from.0 as usize;
            let a = walker.next_item(&mut rng_a);
            let b = shared.step(from, &mut rng_b);
            assert_eq!(a, b, "draw {k} from {from:?}");
            from = b;
        }
        assert_eq!(shared.state(), ItemId(0), "step must not move the chain's own state");
    }

    #[test]
    fn sparse_rows_answer_like_the_dense_matrix() {
        let dense = vec![vec![0.25, 0.0, 0.75], vec![0.0, 1.0, 0.0], vec![0.5, 0.25, 0.25]];
        let chain = MarkovChain::new(dense.clone());
        for (i, row) in dense.iter().enumerate() {
            for (j, &p) in row.iter().enumerate() {
                assert_eq!(chain.prob(ItemId(i as u64), ItemId(j as u64)), p);
            }
        }
        // Ties keep ascending successor order.
        assert_eq!(
            chain.successors(ItemId(2)),
            vec![(ItemId(0), 0.5), (ItemId(1), 0.25), (ItemId(2), 0.25)]
        );
    }

    #[test]
    fn successors_sorted_descending() {
        let mut rng = Rng::new(7);
        let chain = MarkovChain::random(30, 5, 0.6, &mut rng);
        for i in 0..30 {
            let s = chain.successors(ItemId(i));
            for w in s.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }
}
