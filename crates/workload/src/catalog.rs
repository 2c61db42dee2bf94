//! Item catalogs: identity, size, and popularity.

use serde::{Deserialize, Serialize};
use simcore::dist::{Sample, Zipf};
use simcore::rng::Rng;

/// Identity of a cacheable item.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ItemId(pub u64);

impl core::fmt::Display for ItemId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "item{}", self.0)
    }
}

/// A fixed universe of items with per-item sizes and a popularity law.
///
/// Sizes are drawn once at construction (an item's size is a property of
/// the item, not of the request), so repeated fetches of the same item move
/// the same number of bytes — a detail that matters for byte-weighted
/// utilisation.
pub struct Catalog {
    sizes: Vec<f64>,
    popularity: Zipf,
}

impl Catalog {
    /// `n` items, Zipf(`exponent`) popularity, IID sizes from `size_dist`.
    pub fn with_sizes(n: usize, exponent: f64, size_dist: &dyn Sample, rng: &mut Rng) -> Self {
        assert!(n > 0);
        let sizes: Vec<f64> = (0..n).map(|_| size_dist.sample(rng)).collect();
        Catalog { sizes, popularity: Zipf::new(n, exponent) }
    }

    /// `n` items, Zipf popularity, all sizes equal to `size`.
    pub fn zipf(n: usize, exponent: f64, size: f64, _rng: &mut Rng) -> Self {
        assert!(n > 0 && size > 0.0);
        Catalog { sizes: vec![size; n], popularity: Zipf::new(n, exponent) }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Size of an item.
    pub fn size(&self, id: ItemId) -> f64 {
        self.sizes[id.0 as usize]
    }

    /// Draws an item according to popularity.
    pub fn sample(&self, rng: &mut Rng) -> ItemId {
        ItemId(self.popularity.sample_rank(rng) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::dist::Pareto;

    #[test]
    fn zipf_catalog_basics() {
        let mut rng = Rng::new(1);
        let c = Catalog::zipf(1000, 0.8, 2.0, &mut rng);
        assert_eq!(c.len(), 1000);
        assert_eq!(c.size(ItemId(5)), 2.0);
    }

    #[test]
    fn sampling_respects_popularity() {
        let mut rng = Rng::new(3);
        let c = Catalog::zipf(10, 1.0, 1.0, &mut rng);
        let mut counts = [0usize; 10];
        let n = 200_000;
        for _ in 0..n {
            counts[c.sample(&mut rng).0 as usize] += 1;
        }
        let p0 = counts[0] as f64 / n as f64;
        assert!((p0 - Zipf::new(10, 1.0).prob(0)).abs() < 0.01);
    }

    #[test]
    fn heterogeneous_sizes_weighted_mean() {
        let mut rng = Rng::new(4);
        let c = Catalog::with_sizes(5000, 0.0, &Pareto::with_mean(3.0, 2.5), &mut rng);
        // Uniform popularity: the request-weighted mean is the arithmetic
        // mean of the drawn sizes.
        let mean = (0..5000).map(|i| c.size(ItemId(i))).sum::<f64>() / 5000.0;
        assert!((mean - 3.0).abs() < 0.3);
    }
}
