//! Delta-refresh vs full-rebuild parity at cluster scope.
//!
//! The two digest refresh protocols ([`RefreshStrategy::Deltas`] and
//! [`RefreshStrategy::FullRebuild`]) regenerate identical advertised
//! state, so entire simulation runs must be observationally identical:
//! full [`ClusterReport`] equality to 1e-12 on E13-shaped adaptive,
//! E14-shaped cooperative, and E16-shaped byte-addressed configurations —
//! everything except the digest-exchange volume, which differs *by
//! design* (that is the point of the protocol) and is asserted strictly
//! smaller on the delta side.
//!
//! Also pinned here: the byte-accounting invariants end-to-end — cache
//! occupancy never exceeds the configured byte budget, and prefetch
//! goodput/badput conserve the prefetched **byte** volume under
//! heterogeneous object sizes. (The open-loop static engine has no cache
//! and therefore no digest stream; its byte counters flow straight from
//! the size distribution and are covered by the engine-parity suite.)

mod common;

use cluster::parity::{assert_reports_match, assert_reports_match_modulo_digest_traffic};
use cluster::{ClusterConfig, ClusterReport, ClusterSim, Workload};
use common::{adaptive, byte_budget, coop, flat, with_epoch};
use coop::RefreshStrategy;

/// Runs a cooperative config under both strategies and pins report
/// parity. Digest-exchange volume legitimately differs between the
/// protocols (deltas cost O(churn), snapshots O(capacity)); the byte win
/// itself is asserted only on the E16-shaped config, whose caches sit in
/// the regime the delta protocol targets.
fn assert_delta_full_parity(
    delta_config: &ClusterConfig<'_>,
    full_config: &ClusterConfig<'_>,
    seed: u64,
    label: &str,
) -> (ClusterReport, ClusterReport) {
    let by_delta = ClusterSim::new(delta_config).run(seed);
    let by_full = ClusterSim::new(full_config).run(seed);
    assert_reports_match_modulo_digest_traffic(&by_delta, &by_full, label);
    (by_delta, by_full)
}

#[test]
fn e13_adaptive_is_strategy_invariant() {
    // No router → no digests: the runs must be *fully* identical,
    // digest-traffic counters (all zero) included.
    for seed in [13u64, 71] {
        let a = ClusterSim::new(&adaptive(3, 8_000)).run(seed);
        let b = ClusterSim::new(&adaptive(3, 8_000)).run(seed);
        assert_reports_match(&a, &b, &format!("e13 seed {seed}"));
        assert_eq!(a.digest_bytes(), 0);
    }
}

#[test]
fn e14_coop_delta_matches_full_rebuild() {
    for (seed, epoch) in [(14u64, 2.0), (77, 0.5), (5, 8.0)] {
        assert_delta_full_parity(
            &with_epoch(coop(3, 8_000, RefreshStrategy::Deltas), epoch),
            &with_epoch(coop(3, 8_000, RefreshStrategy::FullRebuild), epoch),
            seed,
            &format!("e14 seed {seed} epoch {epoch}"),
        );
    }
}

#[test]
fn e16_byte_addressed_delta_matches_full_rebuild() {
    for seed in [16u64, 99] {
        let (by_delta, by_full) = assert_delta_full_parity(
            &byte_budget(8, 3_000, RefreshStrategy::Deltas),
            &byte_budget(8, 3_000, RefreshStrategy::FullRebuild),
            seed,
            &format!("e16 seed {seed}"),
        );
        // Delta mode actually shipped ops (the byte-driven churn exists)…
        assert!(by_delta.coop.expect("coop counters").router.delta_ops > 0);
        // …and, with per-epoch churn below cache capacity (the regime the
        // protocol targets), strictly fewer exchange bytes than shipping
        // full snapshots every boundary.
        let (d, f) = (by_delta.digest_bytes(), by_full.digest_bytes());
        assert!(d < f, "seed {seed}: delta traffic {d} B not below full-rebuild {f} B");
    }
}

/// Byte-accounting invariants end-to-end: occupancy respects the byte
/// budget at every proxy, and goodput + badput — both byte-denominated —
/// stay non-negative and sum to the prefetched volume (the engine
/// debug-asserts exact conservation per proxy on every run).
#[test]
fn byte_budget_and_conservation_hold_under_heterogeneous_sizes() {
    let config = byte_budget(8, 3_000, RefreshStrategy::Deltas);
    let Workload::Cooperative(w) = &config.workload else { unreachable!() };
    let budget = w.base.cache_bytes.expect("a byte budget");
    let report = ClusterSim::new(&config).run(7);
    let mut prefetched_any = false;
    for node in &report.nodes {
        let used = node.cache_used_bytes.expect("closed loop reports cache occupancy");
        assert!(
            used <= budget + 1e-9,
            "proxy {}: occupancy {used} B exceeds budget {budget} B",
            node.proxy
        );
        let good = node.goodput_bytes.expect("adaptive mode reports goodput");
        let bad = node.badput_bytes.expect("adaptive mode reports badput");
        assert!(good >= 0.0 && bad >= 0.0);
        if node.prefetches_per_request > 0.0 {
            prefetched_any = true;
            assert!(good + bad > 0.0, "proxy {}: prefetched but no byte volume", node.proxy);
        }
    }
    assert!(prefetched_any, "the E16 config never prefetched");
}

/// The engine-parity oracle still holds with the delta strategy in force:
/// the legacy scan driver and the indexed scheduler produce identical
/// reports when both run delta refreshes (on zero latency: the scan
/// predates link latency).
#[test]
fn legacy_driver_parity_holds_under_delta_refresh() {
    let config = flat(byte_budget(8, 3_000, RefreshStrategy::Deltas));
    let new = ClusterSim::new(&config).run(21);
    let old = cluster::legacy::run(&config, 21);
    assert_reports_match(&new, &old, "legacy vs scheduler, delta mode");
}
