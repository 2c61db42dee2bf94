//! Candidate lists of the incrementally ordered predictors against a
//! sort-based reference: the Markov predictor (orders 1–3) keeps each
//! context's successors in candidate order as it observes, and the oracle
//! serves prefixes of pre-ordered successor lists. Both must return
//! exactly the lists a full sort over all counts gives — descending
//! probability, ascending id among ties, truncated to `max` — through
//! `candidates` and `candidates_into` alike.

use predictor::{MarkovPredictor, OraclePredictor, Predictor};
use simcore::rng::Rng;
use std::collections::HashMap;
use workload::{ItemId, MarkovChain, RequestStream};

/// The sort-based reference: every context's full count table, ranked by
/// sorting all successors on each query.
struct Reference {
    order: usize,
    context: Vec<ItemId>,
    table: HashMap<Vec<ItemId>, (HashMap<ItemId, u64>, u64)>,
}

impl Reference {
    fn new(order: usize) -> Self {
        Reference { order, context: Vec::new(), table: HashMap::new() }
    }

    fn observe(&mut self, item: ItemId) {
        if self.context.len() == self.order {
            let (counts, total) = self.table.entry(self.context.clone()).or_default();
            *counts.entry(item).or_default() += 1;
            *total += 1;
        }
        self.context.push(item);
        if self.context.len() > self.order {
            self.context.remove(0);
        }
    }

    fn candidates(&self, max: usize) -> Vec<(ItemId, f64)> {
        let Some((counts, total)) = self.table.get(&self.context) else {
            return Vec::new();
        };
        let mut v: Vec<(ItemId, f64)> =
            counts.iter().map(|(&id, &c)| (id, c as f64 / *total as f64)).collect();
        sort_canonical(&mut v, max);
        v
    }
}

fn sort_canonical(v: &mut Vec<(ItemId, f64)>, max: usize) {
    v.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v.truncate(max);
}

/// Checks both candidate entry points for every `max` in 1..=8; the reused
/// buffer starts dirty so a missing clear shows.
fn check(
    p: &dyn Predictor,
    expect: impl Fn(usize) -> Vec<(ItemId, f64)>,
    buf: &mut Vec<(ItemId, f64)>,
) {
    for max in 1..=8 {
        let want = expect(max);
        assert_eq!(p.candidates(max), want, "candidates({max})");
        buf.push((ItemId(u64::MAX), -1.0));
        p.candidates_into(max, buf);
        assert_eq!(*buf, want, "candidates_into({max})");
    }
}

#[test]
fn markov_candidates_match_sort_based_reference() {
    let mut buf = Vec::new();
    for seed in 0..40u64 {
        let mut rng = Rng::new(seed);
        // Few items and short streams: counts stay small, so ties are the
        // common case, not the exception.
        let alphabet = 2 + rng.below(12);
        let order = 1 + (seed % 3) as usize;
        let mut p = MarkovPredictor::new(order);
        let mut r = Reference::new(order);
        // Sparse, far-apart ids on some seeds, to exercise id order.
        let stride = if seed % 2 == 0 { 1 } else { 1_000_003 };
        for step in 0..600 {
            let item = ItemId(rng.below(alphabet) * stride);
            p.observe(item);
            r.observe(item);
            if step % 3 == 0 || step > 550 {
                check(&p, |max| r.candidates(max), &mut buf);
                let next = ItemId(rng.below(alphabet) * stride);
                let want =
                    r.candidates(usize::MAX).iter().find(|c| c.0 == next).map_or(0.0, |c| c.1);
                assert_eq!(p.prob(next), want, "seed {seed} step {step}");
            }
        }
        assert_eq!(p.contexts(), r.table.len(), "seed {seed}");
    }
}

#[test]
fn oracle_candidates_match_sorted_successors() {
    let mut buf = Vec::new();
    for seed in 0..20u64 {
        let mut rng = Rng::new(seed);
        // skew = 1 gives equal successor probabilities: all ties.
        let skew = if seed % 2 == 0 { 1.0 } else { 0.5 };
        let mut chain = MarkovChain::random(30, 1 + (seed % 8) as usize, skew, &mut rng);
        let mut o = OraclePredictor::from_chain(&chain);
        check(&o, |_| Vec::new(), &mut buf);
        for _ in 0..200 {
            let item = chain.next_item(&mut rng);
            o.observe(item);
            check(
                &o,
                |max| {
                    let mut v = chain.successors(item);
                    sort_canonical(&mut v, max);
                    v
                },
                &mut buf,
            );
        }
    }
}
