//! Shard placement over the consistent-hash ring, with optional
//! load-aware rebalancing.
//!
//! Placement answers "which proxy *should* hold this key" — the
//! consistent-hash owner. Under [`PlacementPolicy::LoadAware`] the layer
//! also watches the per-proxy load estimates the cluster feeds it every
//! digest epoch (each proxy's own `ρ̂′`) and, when the hottest and coldest
//! proxies diverge by more than the configured threshold, migrates a step
//! of virtual nodes from hot to cold. Because virtual-node positions are
//! stable, each migration moves only the key ranges adjacent to the moved
//! virtual nodes — hot shards drain gradually instead of reshuffling the
//! whole keyspace.

use crate::ring::HashRing;

/// How placement reacts to load divergence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlacementPolicy {
    /// Fixed ring: ownership never changes.
    Static,
    /// Migrate `step` virtual nodes from the most- to the least-loaded
    /// proxy whenever their load estimates differ by more than
    /// `divergence`, never shrinking a proxy below `min_vnodes`.
    LoadAware { divergence: f64, step: usize, min_vnodes: usize },
}

/// The placement layer: ring + rebalancing policy.
#[derive(Clone, Debug)]
pub struct Placement {
    ring: HashRing,
    policy: PlacementPolicy,
    migrations: u64,
}

impl Placement {
    pub fn new(n_nodes: usize, vnodes: usize, policy: PlacementPolicy) -> Self {
        Placement { ring: HashRing::new(n_nodes, vnodes), policy, migrations: 0 }
    }

    /// The proxy that should hold `key` under the current ring.
    pub fn owner(&self, key: u64) -> usize {
        self.ring.owner(key)
    }

    /// Feeds one round of per-proxy load estimates (e.g. each controller's
    /// `ρ̂′`); under the load-aware policy this may migrate virtual nodes.
    /// Returns the number of virtual nodes moved.
    pub fn observe_load(&mut self, loads: &[f64]) -> usize {
        assert_eq!(loads.len(), self.ring.n_nodes(), "one load estimate per node");
        let PlacementPolicy::LoadAware { divergence, step, min_vnodes } = self.policy else {
            return 0;
        };
        if loads.len() < 2 {
            return 0;
        }
        // Hottest and coldest proxies; ties break to the lowest index so
        // the migration sequence is a pure function of the load history.
        let mut hot = 0;
        let mut cold = 0;
        for (i, &l) in loads.iter().enumerate() {
            if l > loads[hot] {
                hot = i;
            }
            if l < loads[cold] {
                cold = i;
            }
        }
        if hot == cold || loads[hot] - loads[cold] <= divergence {
            return 0;
        }
        let movable = self.ring.weight(hot).saturating_sub(min_vnodes).min(step);
        if movable == 0 {
            return 0;
        }
        self.ring.set_weight(hot, self.ring.weight(hot) - movable);
        self.ring.set_weight(cold, self.ring.weight(cold) + movable);
        self.migrations += movable as u64;
        movable
    }

    /// Total virtual nodes migrated so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_policy_never_migrates() {
        let mut p = Placement::new(3, 32, PlacementPolicy::Static);
        assert_eq!(p.observe_load(&[0.9, 0.1, 0.1]), 0);
        assert_eq!(p.migrations(), 0);
    }

    #[test]
    fn load_aware_migrates_hot_to_cold() {
        let policy = PlacementPolicy::LoadAware { divergence: 0.2, step: 4, min_vnodes: 8 };
        let mut p = Placement::new(3, 32, policy);
        let moved = p.observe_load(&[0.1, 0.8, 0.4]);
        assert_eq!(moved, 4);
        assert_eq!(p.ring.weight(1), 28, "hot proxy sheds vnodes");
        assert_eq!(p.ring.weight(0), 36, "cold proxy gains them");
        assert_eq!(p.ring.weight(2), 32, "bystander untouched");
        assert_eq!(p.migrations(), 4);
    }

    #[test]
    fn small_divergence_is_tolerated() {
        let policy = PlacementPolicy::LoadAware { divergence: 0.3, step: 4, min_vnodes: 8 };
        let mut p = Placement::new(2, 32, policy);
        assert_eq!(p.observe_load(&[0.5, 0.6]), 0);
    }

    #[test]
    fn migration_respects_min_vnodes() {
        let policy = PlacementPolicy::LoadAware { divergence: 0.1, step: 100, min_vnodes: 8 };
        let mut p = Placement::new(2, 16, policy);
        assert_eq!(p.observe_load(&[0.9, 0.1]), 8, "clamped to weight − min_vnodes");
        assert_eq!(p.ring.weight(0), 8);
        // Fully drained to the floor: no further migration possible.
        assert_eq!(p.observe_load(&[0.9, 0.1]), 0);
    }

    #[test]
    fn migration_shifts_ownership_share() {
        let policy = PlacementPolicy::LoadAware { divergence: 0.1, step: 24, min_vnodes: 8 };
        let mut p = Placement::new(2, 64, policy);
        let share_before = (0..10_000u64).filter(|&k| p.owner(k) == 0).count() as f64 / 10_000.0;
        p.observe_load(&[0.9, 0.2]);
        let share_after = (0..10_000u64).filter(|&k| p.owner(k) == 0).count() as f64 / 10_000.0;
        assert!(
            share_after < share_before,
            "hot proxy 0 share {share_before} must shrink (now {share_after})"
        );
    }
}
