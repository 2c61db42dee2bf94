//! Synthetic web-proxy workload.
//!
//! The 2001 paper cites no public trace; the evaluation is purely
//! parametric. For the end-to-end experiments we substitute a synthetic
//! proxy workload with the empirically established shape of the era's web
//! traffic (see DESIGN.md §7): Zipf-popular items, heavy-tailed sizes, and
//! per-client Markov navigation (users follow links, so consecutive
//! requests are correlated — the structure predictors exploit).

use crate::arrivals::{ArrivalProcess, PoissonArrivals};
use crate::catalog::{Catalog, ItemId};
use crate::markov::MarkovChain;
use crate::trace::TraceRecord;
use simcore::dist::BoundedPareto;
use simcore::rng::Rng;
use std::sync::Arc;

/// Configuration of the synthetic proxy workload.
#[derive(Clone, Copy, Debug)]
pub struct SynthWebConfig {
    /// Number of clients behind the proxy.
    pub n_clients: usize,
    /// Aggregate request rate `λ` (requests/second across all clients).
    pub lambda: f64,
    /// Catalogue size (number of distinct pages).
    pub n_items: usize,
    /// Out-degree of the navigation graph (links per page).
    pub branching: usize,
    /// Geometric decay of link-follow probabilities (lower = more skewed =
    /// more predictable navigation).
    pub link_skew: f64,
    /// Mean item size `s̄` (size-units).
    pub mean_size: f64,
    /// Pareto tail exponent for sizes (must be > 1).
    pub size_shape: f64,
}

impl Default for SynthWebConfig {
    fn default() -> Self {
        SynthWebConfig {
            n_clients: 8,
            lambda: 30.0,
            n_items: 500,
            branching: 4,
            link_skew: 0.5,
            mean_size: 1.0,
            size_shape: 2.2,
        }
    }
}

/// The immutable part of a synthetic web: the item catalog and the
/// navigation chain. It depends only on the structural fields of a
/// [`SynthWebConfig`] (`n_items`, `branching`, `link_skew`, `mean_size`,
/// `size_shape`) and the draws that built it, so generators with equal
/// structural config and structure stream can share one copy.
pub struct WebStructure {
    pub catalog: Catalog,
    pub chain: MarkovChain,
}

impl WebStructure {
    /// Draws the catalog, then the chain, from `rng`.
    pub fn new(config: &SynthWebConfig, rng: &mut Rng) -> Self {
        // Bounded Pareto sizes: cap at 50x the scale to keep the simulation's
        // worst case sane while preserving heavy-tail shape.
        let scale = config.mean_size * (config.size_shape - 1.0) / config.size_shape;
        let size_dist = BoundedPareto::new(config.size_shape, scale, scale * 50.0);
        let catalog = Catalog::with_sizes(config.n_items, 0.8, &size_dist, rng);
        let chain = MarkovChain::random(config.n_items, config.branching, config.link_skew, rng);
        WebStructure { catalog, chain }
    }
}

/// Generator state: a (possibly shared) web structure, per-client
/// positions, the arrival process and the clock.
pub struct SynthWeb {
    structure: Arc<WebStructure>,
    arrivals: PoissonArrivals,
    client_states: Vec<ItemId>,
    now: f64,
    config: SynthWebConfig,
}

impl SynthWeb {
    /// Draws a fresh structure and then the client start positions from
    /// `rng`: [`WebStructure::new`] followed by [`SynthWeb::with_structure`].
    pub fn new(config: SynthWebConfig, rng: &mut Rng) -> Self {
        let structure = Arc::new(WebStructure::new(&config, rng));
        SynthWeb::with_structure(config, structure, rng)
    }

    /// A generator over an existing structure, drawing only the client
    /// start positions from `rng`. The structure must have been built from
    /// a config with the same structural fields as `config`.
    pub fn with_structure(
        config: SynthWebConfig,
        structure: Arc<WebStructure>,
        rng: &mut Rng,
    ) -> Self {
        assert!(config.n_clients > 0 && config.n_items >= 2);
        assert_eq!(structure.catalog.len(), config.n_items, "structure built for another catalog");
        let client_states =
            (0..config.n_clients).map(|_| ItemId(rng.below(config.n_items as u64))).collect();
        SynthWeb {
            structure,
            arrivals: PoissonArrivals::new(config.lambda),
            client_states,
            now: 0.0,
            config,
        }
    }

    /// The (possibly shared) structure this generator walks.
    pub fn structure(&self) -> &Arc<WebStructure> {
        &self.structure
    }

    /// The configuration in force.
    pub fn config(&self) -> &SynthWebConfig {
        &self.config
    }

    /// Generates the next request.
    pub fn next_request(&mut self, rng: &mut Rng) -> TraceRecord {
        self.now += self.arrivals.next_gap(rng);
        let client = rng.index(self.client_states.len());
        // Advance this client's navigation.
        let item = self.structure.chain.step(self.client_states[client], rng);
        self.client_states[client] = item;
        TraceRecord::new(self.now, client as u32, item, self.structure.catalog.size(item))
    }

    /// Generates a trace of `n` requests.
    pub fn generate(&mut self, n: usize, rng: &mut Rng) -> Vec<TraceRecord> {
        (0..n).map(|_| self.next_request(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(rng: &mut Rng) -> SynthWeb {
        SynthWeb::new(SynthWebConfig::default(), rng)
    }

    #[test]
    fn trace_is_time_ordered_with_correct_rate() {
        let mut rng = Rng::new(1);
        let mut w = make(&mut rng);
        let trace = w.generate(50_000, &mut rng);
        for pair in trace.windows(2) {
            assert!(pair[1].time > pair[0].time);
        }
        let span = trace.last().unwrap().time - trace[0].time;
        let rate = (trace.len() - 1) as f64 / span;
        assert!((rate - 30.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn all_clients_participate() {
        let mut rng = Rng::new(2);
        let mut w = make(&mut rng);
        let trace = w.generate(10_000, &mut rng);
        let mut seen = [false; 8];
        for r in &trace {
            seen[r.client as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sizes_match_catalog() {
        let mut rng = Rng::new(3);
        let mut w = make(&mut rng);
        let trace = w.generate(1_000, &mut rng);
        for r in &trace {
            assert_eq!(r.size, w.structure().catalog.size(r.item));
        }
    }

    #[test]
    fn mean_size_near_configured() {
        let mut rng = Rng::new(4);
        let w = make(&mut rng);
        let m = w.structure().catalog.mean_size();
        assert!((m - 1.0).abs() < 0.25, "mean size {m}");
    }

    #[test]
    fn per_client_streams_follow_the_chain() {
        // Every consecutive pair within one client must be a valid
        // transition of the navigation graph.
        let mut rng = Rng::new(5);
        let mut w = make(&mut rng);
        let trace = w.generate(20_000, &mut rng);
        let mut last: Vec<Option<ItemId>> = vec![None; 8];
        let mut checked = 0;
        for r in &trace {
            if let Some(prev) = last[r.client as usize] {
                assert!(
                    w.structure().chain.prob(prev, r.item) > 0.0,
                    "client {} jumped {prev:?}→{:?} with zero probability",
                    r.client,
                    r.item
                );
                checked += 1;
            }
            last[r.client as usize] = Some(r.item);
        }
        assert!(checked > 10_000);
    }

    #[test]
    fn shared_structure_yields_the_same_stream() {
        let config = SynthWebConfig::default();
        let mut rng = Rng::new(7);
        let expected = SynthWeb::new(config, &mut rng).generate(10_000, &mut rng);

        // Build the structure once; every walker continues from a clone of
        // the post-structure stream, exactly where `new` would.
        let mut rng = Rng::new(7);
        let structure = Arc::new(WebStructure::new(&config, &mut rng));
        for _ in 0..2 {
            let mut walker_rng = rng.clone();
            let mut web = SynthWeb::with_structure(config, Arc::clone(&structure), &mut walker_rng);
            assert!(Arc::ptr_eq(web.structure(), &structure));
            assert_eq!(web.generate(10_000, &mut walker_rng), expected);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng1 = Rng::new(6);
        let mut w1 = make(&mut rng1);
        let t1 = w1.generate(100, &mut rng1);
        let mut rng2 = Rng::new(6);
        let mut w2 = make(&mut rng2);
        let t2 = w2.generate(100, &mut rng2);
        assert_eq!(t1, t2);
    }
}
