//! E12 — cache-policy comparison under the paper's workloads.
//!
//! The analysis folds all caching behaviour into one number, `h′`. This
//! experiment grounds that abstraction: it measures the `h′` different
//! replacement policies actually deliver on (a) the Zipf/IRM workload,
//! (b) the Markov navigation workload, and (c) the stack-distance workload
//! with a designed-in hit ratio — and therefore how the *threshold*
//! `p_th = f′λs̄/b` shifts purely as a function of the cache policy.

use crate::report::{f, Table};
use cachesim::{
    ClockCache, FifoCache, GdsfCache, LfuCache, LruCache, RandomCache, ReplacementCache, SlruCache,
};
use simcore::rng::Rng;
use workload::{Catalog, ItemId, LruStackStream, MarkovChain, RequestStream};

/// Independent reference model (IRM): IID draws from the catalog's
/// popularity law.
struct OwnedIrm {
    catalog: Catalog,
}

impl RequestStream for OwnedIrm {
    fn next_item(&mut self, rng: &mut Rng) -> ItemId {
        self.catalog.sample(rng)
    }
}

/// The Zipf IRM workload used across this experiment.
fn zipf_stream(rng: &mut Rng) -> OwnedIrm {
    OwnedIrm { catalog: Catalog::zipf(2000, 0.9, 1.0, rng) }
}

/// Hit ratio of `cache` over `n` requests of `stream` (after warm-up).
fn measure<C: ReplacementCache<u64> + ?Sized, S: RequestStream>(
    cache: &mut C,
    stream: &mut S,
    warmup: usize,
    n: usize,
    rng: &mut Rng,
) -> f64 {
    let mut hits = 0usize;
    for i in 0..warmup + n {
        let item = stream.next_item(rng).0;
        if cache.touch(item) {
            if i >= warmup {
                hits += 1;
            }
        } else {
            cache.insert(item);
        }
    }
    hits as f64 / n as f64
}

/// All policies at one capacity.
fn policies(capacity: usize, seed: u64) -> Vec<(&'static str, Box<dyn ReplacementCache<u64>>)> {
    vec![
        ("lru", Box::new(LruCache::new(capacity))),
        ("slru", Box::new(SlruCache::new(capacity))),
        ("lfu", Box::new(LfuCache::new(capacity))),
        ("clock", Box::new(ClockCache::new(capacity))),
        ("fifo", Box::new(FifoCache::new(capacity))),
        ("gdsf", Box::new(GdsfCache::new(capacity))),
        ("random", Box::new(RandomCache::new(capacity, seed))),
    ]
}

/// Measures every policy on a workload builder. Returns `(name, h′)`.
pub fn compare<S: RequestStream>(
    capacity: usize,
    make_stream: impl Fn(&mut Rng) -> S,
    requests: usize,
    seed: u64,
) -> Vec<(&'static str, f64)> {
    policies(capacity, seed)
        .into_iter()
        .map(|(name, mut cache)| {
            let mut rng = Rng::new(seed);
            let mut stream = make_stream(&mut rng);
            let h = measure(cache.as_mut(), &mut stream, requests / 5, requests, &mut rng);
            (name, h)
        })
        .collect()
}

pub fn render() -> String {
    let capacity = 64;
    let requests = 60_000;
    let mut out = String::new();
    out.push_str("# E12 — what h' does each cache policy deliver? (cap = 64 items)\n");
    out.push_str("# the paper's threshold p_th = f'*lambda*s/b moves with each h'\n\n");

    let mut table = Table::new(
        "Measured h' by policy and workload (and the p_th it implies at lambda=30, b=100, s=1)",
        &["policy", "zipf(0.9) IRM", "markov nav", "stack(h'=0.5)", "p_th on zipf"],
    );
    let zipf = compare(capacity, zipf_stream, requests, 42);
    let markov = compare(capacity, |rng| MarkovChain::random(600, 3, 0.3, rng), requests, 43);
    let stack = compare(capacity, |_| LruStackStream::new(0.5, 64), requests, 44);

    for i in 0..zipf.len() {
        let (name, h_zipf) = zipf[i];
        let (_, h_markov) = markov[i];
        let (_, h_stack) = stack[i];
        let pth = (1.0 - h_zipf) * 30.0 * 1.0 / 100.0;
        table.row(vec![name.to_string(), f(h_zipf, 3), f(h_markov, 3), f(h_stack, 3), f(pth, 3)]);
    }
    out.push_str(&table.render());
    out.push_str(
        "\nReading: on the stack-distance workload (pure recency, deliberately no\n\
         frequency signal) LRU recovers the designed-in h' = 0.5 exactly, CLOCK\n\
         nearly so; FIFO/random fall short; frequency-biased policies (LFU, and\n\
         SLRU with its small probation segment) collapse, hoarding stale items.\n\
         On the IRM workload the ranking flips: frequency is the optimal signal.\n\
         The h' spread moves the paper's prefetch threshold — a better cache\n\
         *lowers* the bar for prefetching (dp_th/dh' = -lambda*s/b < 0).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_recovers_designed_hit_ratio() {
        let rows = compare(64, |_| LruStackStream::new(0.5, 64), 40_000, 7);
        let lru = rows.iter().find(|(n, _)| *n == "lru").unwrap().1;
        assert!((lru - 0.5).abs() < 0.03, "LRU h' {lru}");
    }

    #[test]
    fn recency_policies_beat_fifo_on_markov_navigation() {
        let rows = compare(48, |rng| MarkovChain::random(600, 3, 0.3, rng), 40_000, 8);
        let get = |n: &str| rows.iter().find(|(name, _)| *name == n).unwrap().1;
        assert!(get("lru") >= get("fifo") - 0.02, "lru {} fifo {}", get("lru"), get("fifo"));
        assert!(get("lru") > get("random") - 0.02);
    }

    #[test]
    fn lfu_wins_on_irm() {
        // Under the independent reference model, frequency is the optimal
        // signal (LFU ≥ LRU asymptotically).
        let rows = compare(64, zipf_stream, 60_000, 9);
        let get = |n: &str| rows.iter().find(|(name, _)| *name == n).unwrap().1;
        assert!(get("lfu") >= get("lru") - 0.01, "lfu {} lru {}", get("lfu"), get("lru"));
    }

    #[test]
    fn all_policies_report_sane_ratios() {
        let rows = compare(32, |_| LruStackStream::new(0.4, 32), 20_000, 10);
        for (name, h) in rows {
            assert!((0.0..=1.0).contains(&h), "{name}: {h}");
        }
    }
}
