//! Consistent-hash ring with virtual nodes.
//!
//! Keys and virtual nodes hash onto one `u64` circle; a key is owned by
//! the first virtual node clockwise from its hash. Virtual node `r` of
//! node `n` always hashes to the same point, so weight changes (and node
//! joins/leaves) move only the keys adjacent to the added or removed
//! points — the minimal-disruption property the proptests pin down:
//! removing a node relocates exactly the keys it owned, and a join takes
//! roughly `K/n` keys, all of them to the joining node.

use simcore::rng::splitmix64;

/// Stable 64-bit mix of a key onto the ring circle.
#[inline]
fn hash_key(key: u64) -> u64 {
    let mut s = key ^ 0xC00B_1E5C_AC4E_u64;
    splitmix64(&mut s)
}

/// Stable position of virtual node `replica` of `node`.
#[inline]
fn hash_vnode(node: usize, replica: usize) -> u64 {
    let mut s = (node as u64) << 32 | replica as u64;
    let a = splitmix64(&mut s);
    splitmix64(&mut s) ^ a.rotate_left(17)
}

/// A consistent-hash ring over nodes `0..n` with per-node virtual-node
/// weights.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(position, node)` sorted by position.
    points: Vec<(u64, usize)>,
    weights: Vec<usize>,
}

impl HashRing {
    /// A ring over `n_nodes` nodes, each with `vnodes` virtual nodes.
    pub fn new(n_nodes: usize, vnodes: usize) -> Self {
        assert!(n_nodes > 0 && vnodes > 0);
        HashRing::with_weights(&vec![vnodes; n_nodes])
    }

    /// A ring with explicit per-node weights (a node with weight 0 owns
    /// nothing — it has left the ring).
    pub fn with_weights(weights: &[usize]) -> Self {
        assert!(!weights.is_empty(), "ring needs at least one node");
        assert!(weights.iter().any(|&w| w > 0), "ring needs at least one virtual node");
        let mut points = Vec::new();
        for (node, &w) in weights.iter().enumerate() {
            for replica in 0..w {
                points.push((hash_vnode(node, replica), node));
            }
        }
        // Position ties (astronomically unlikely) break by node id so the
        // ring is a pure function of the weights.
        points.sort_unstable();
        HashRing { points, weights: weights.to_vec() }
    }

    /// Number of nodes (including weight-0 ones).
    pub fn n_nodes(&self) -> usize {
        self.weights.len()
    }

    /// Virtual-node weight of `node`.
    pub fn weight(&self, node: usize) -> usize {
        self.weights[node]
    }

    /// Changes `node`'s weight; only keys adjacent to the added/removed
    /// virtual nodes move. The ring is edited in place: each added or
    /// removed virtual node is found by binary search on the sorted
    /// points, so the result equals a ring rebuilt from the new weights
    /// at the cost of the changed virtual nodes only.
    pub fn set_weight(&mut self, node: usize, vnodes: usize) {
        assert!(node < self.weights.len());
        let old = self.weights[node];
        assert!(
            vnodes > 0 || self.weights.iter().enumerate().any(|(n, &w)| n != node && w > 0),
            "cannot empty the ring"
        );
        for replica in vnodes..old {
            let point = (hash_vnode(node, replica), node);
            let idx = self.points.binary_search(&point).expect("virtual node on the ring");
            self.points.remove(idx);
        }
        for replica in old..vnodes {
            let point = (hash_vnode(node, replica), node);
            let idx = self.points.partition_point(|&p| p < point);
            self.points.insert(idx, point);
        }
        self.weights[node] = vnodes;
    }

    /// Adds a node with the given weight; returns its id.
    pub fn add_node(&mut self, vnodes: usize) -> usize {
        self.weights.push(0);
        let node = self.weights.len() - 1;
        self.set_weight(node, vnodes);
        node
    }

    /// Removes `node` from the ring (weight 0). Its keys redistribute to
    /// the surviving nodes; no key moves *between* survivors.
    pub fn remove_node(&mut self, node: usize) {
        self.set_weight(node, 0);
    }

    /// The node owning `key`: first virtual node clockwise of its hash.
    pub fn owner(&self, key: u64) -> usize {
        let h = hash_key(key);
        let idx = self.points.partition_point(|&(pos, _)| pos < h);
        let (_, node) = self.points[if idx == self.points.len() { 0 } else { idx }];
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn owner_is_deterministic_and_in_range() {
        let ring = HashRing::new(5, 32);
        for key in 0..1000u64 {
            let o = ring.owner(key);
            assert!(o < 5);
            assert_eq!(o, ring.owner(key));
        }
    }

    #[test]
    fn vnodes_balance_ownership() {
        let ring = HashRing::new(4, 128);
        let mut counts = [0usize; 4];
        for key in 0..40_000u64 {
            counts[ring.owner(key)] += 1;
        }
        for &c in &counts {
            // Perfect balance is 10_000; 128 vnodes keep every node within
            // a modest factor.
            assert!((6_000..=14_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn leave_moves_only_departed_keys() {
        let before = HashRing::new(4, 64);
        let mut after = before.clone();
        after.remove_node(2);
        for key in 0..10_000u64 {
            let owner_before = before.owner(key);
            let owner_after = after.owner(key);
            if owner_before != 2 {
                assert_eq!(owner_before, owner_after, "key {key} moved between survivors");
            } else {
                assert_ne!(owner_after, 2);
            }
        }
    }

    #[test]
    fn join_takes_keys_only_for_itself() {
        let before = HashRing::new(3, 64);
        let mut after = before.clone();
        let new = after.add_node(64);
        let mut moved = 0;
        for key in 0..12_000u64 {
            if before.owner(key) != after.owner(key) {
                assert_eq!(after.owner(key), new, "key {key} moved to a pre-existing node");
                moved += 1;
            }
        }
        // Expected movement is K/n = 3_000; far below a naive rehash
        // (which would move ~K·3/4 = 9_000).
        assert!(moved > 0 && moved < 2 * 12_000 / 4, "moved {moved}");
    }

    #[test]
    fn weight_shift_moves_keys_toward_heavier_node() {
        let before = HashRing::new(3, 60);
        let mut after = before.clone();
        after.set_weight(0, 30);
        after.set_weight(1, 90);
        let mut to_1 = 0;
        let mut from_0 = 0;
        for key in 0..9_000u64 {
            let (a, b) = (before.owner(key), after.owner(key));
            if a != b {
                if b == 1 {
                    to_1 += 1;
                }
                if a == 0 {
                    from_0 += 1;
                }
                assert_ne!((a, b), (1, 0), "keys must not drain from the upweighted node to 0");
            }
        }
        assert!(to_1 > 0 && from_0 > 0, "to_1 {to_1} from_0 {from_0}");
    }

    proptest! {
        /// Editing the ring in place is invisible: after any sequence of
        /// weight changes, joins and leaves, the points equal those of a
        /// ring built from scratch with the final weights.
        #[test]
        fn edits_match_a_ring_built_from_the_weights(
            weights in proptest::collection::vec(0usize..12, 1..6),
            ops in proptest::collection::vec((0usize..3, 0usize..8, 0usize..24), 0..24),
        ) {
            let mut weights = weights;
            weights[0] += 1;
            let mut ring = HashRing::with_weights(&weights);
            for (op, pick, vnodes) in ops {
                let node = pick % weights.len();
                let others_live =
                    weights.iter().enumerate().any(|(n, &w)| n != node && w > 0);
                match op {
                    0 if vnodes > 0 || others_live => {
                        ring.set_weight(node, vnodes);
                        weights[node] = vnodes;
                    }
                    1 => {
                        prop_assert_eq!(ring.add_node(vnodes), weights.len());
                        weights.push(vnodes);
                    }
                    2 if others_live => {
                        ring.remove_node(node);
                        weights[node] = 0;
                    }
                    _ => {}
                }
                prop_assert_eq!(&ring.points, &HashRing::with_weights(&weights).points);
                prop_assert_eq!(&ring.weights, &weights);
            }
        }
    }

    #[test]
    #[should_panic]
    fn emptying_the_ring_panics() {
        let mut ring = HashRing::new(1, 8);
        ring.set_weight(0, 0);
    }
}
