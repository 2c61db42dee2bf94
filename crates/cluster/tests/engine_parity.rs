//! Old-vs-new engine parity, and the timing/accounting regressions the
//! scheduler rewrite fixed.
//!
//! The indexed-scheduler drivers (`closed_loop::run`, `static_mode::run`)
//! and the retired scan drivers (`cluster::legacy`) share one handler
//! core; the only thing that changed is event *selection*. These tests pin
//! that the selection rewrite is observationally invisible: full
//! [`ClusterReport`] equality to 1e-12 on E13-shaped adaptive and
//! E14-shaped cooperative configurations (and the open-loop mode), across
//! seeds.

mod common;

use cluster::parity::assert_reports_match;
use cluster::{
    legacy, AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterSim, ProxyPolicy, Topology,
    Workload,
};
use common::{adaptive, coop, flat, static_itemless, with_epoch};
use coop::RefreshStrategy;
use workload::synth_web::SynthWebConfig;

/// The scheduler and the legacy scan agree on `config` at `seed`. The
/// scan predates link latency, so `config` must be [`flat`].
fn assert_legacy_matches(config: &ClusterConfig<'_>, seed: u64, label: &str) {
    let new = ClusterSim::new(config).run(seed);
    assert_reports_match(&new, &legacy::run(config, seed), label);
}

#[test]
fn adaptive_engine_parity_old_vs_new() {
    let mut config = flat(adaptive(3, 12_000));
    for seed in [13u64, 71] {
        assert_legacy_matches(&config, seed, &format!("adaptive seed {seed}"));
    }
    // The no-prefetch baseline exercises the request path alone.
    let Workload::Adaptive(w) = &mut config.workload else { unreachable!() };
    w.policy = ProxyPolicy::NoPrefetch;
    assert_legacy_matches(&config, 13, "no-prefetch");
}

#[test]
fn cooperative_engine_parity_old_vs_new() {
    for (seed, epoch) in [(14u64, 2.0), (77, 0.5)] {
        let config = flat(with_epoch(coop(3, 10_000, RefreshStrategy::Deltas), epoch));
        assert_legacy_matches(&config, seed, &format!("coop seed {seed} epoch {epoch}"));
    }
}

#[test]
fn static_engine_parity_old_vs_new() {
    let config = flat(static_itemless(3, 20_000));
    for seed in [13u64, 29] {
        assert_legacy_matches(&config, seed, &format!("static seed {seed}"));
    }
}

/// Digest refresh is a first-class event on the epoch grid: the number of
/// epochs is exactly `floor(duration / epoch)`, not whatever the drift of
/// rescheduling from straddling events produced.
#[test]
fn digest_epochs_match_the_grid_exactly() {
    for epoch in [0.5, 2.0, 8.0] {
        let config = with_epoch(coop(3, 10_000, RefreshStrategy::Deltas), epoch);
        let report = ClusterSim::new(&config).run(21);
        let epochs = report.coop.expect("coop counters").router.digest_epochs;
        let expected = (report.duration / epoch).floor() as u64;
        assert_eq!(
            epochs, expected,
            "epoch {epoch}: {epochs} refreshes over duration {} (expected {expected})",
            report.duration
        );
    }
}

/// The already-cached branch of the pending-prefetch event is unreachable
/// (the in-flight marker reserves the item from decision time to
/// completion), so no waiter can ever be dropped there. The engine
/// debug-asserts the branch is never taken; this test drives the jittered
/// prefetch path hard — long pacing delays maximise the window between a
/// prefetch decision and its issue — and must complete without tripping
/// the assertion.
#[test]
fn pending_prefetch_never_finds_item_cached() {
    let config = ClusterConfig {
        topology: Topology::two_tier(2, 40.0, 60.0),
        workload: Workload::Adaptive(AdaptiveWorkload {
            proxies: vec![
                SynthWebConfig { lambda: 25.0, link_skew: 0.3, ..SynthWebConfig::default() },
                SynthWebConfig { lambda: 12.0, link_skew: 0.3, ..SynthWebConfig::default() },
            ],
            cache_capacity: 16,
            cache_bytes: None,
            max_candidates: 4,
            // Pacing delay ~12x the mean inter-request gap of the busy
            // proxy: many demands race each pending prefetch.
            prefetch_jitter: 0.5,
            policy: ProxyPolicy::FixedThreshold(0.05),
            predictor: CandidateSource::Oracle,
            shared_structure_seed: None,
            delayed: Default::default(),
        }),
        requests_per_proxy: 15_000,
        warmup_per_proxy: 3_000,
    };
    for seed in 0..4u64 {
        let report = ClusterSim::new(&config).run(seed);
        assert!(report.mean_access_time.is_finite());
    }
}

/// Goodput accounting is per distinct prefetched entry, so the old
/// `min(used, prefetched)` clamp is gone: goodput + badput reconstructs
/// the prefetched volume exactly, and goodput never exceeds it.
#[test]
fn goodput_plus_badput_conserves_prefetched_bytes() {
    let report = ClusterSim::new(&adaptive(3, 12_000)).run(5);
    let mut prefetched_any = false;
    for node in &report.nodes {
        let good = node.goodput_bytes.expect("adaptive mode reports goodput");
        let bad = node.badput_bytes.expect("adaptive mode reports badput");
        assert!(good >= 0.0 && bad >= 0.0);
        let total = good + bad;
        if node.prefetches_per_request > 0.0 {
            prefetched_any = true;
            assert!(total > 0.0, "proxy {}: prefetched but no volume", node.proxy);
            assert!(
                good <= total * (1.0 + 1e-9),
                "proxy {}: goodput {good} exceeds prefetched volume {total}",
                node.proxy
            );
        } else {
            assert_eq!(total, 0.0);
        }
    }
    assert!(prefetched_any, "adaptive policy never prefetched");

    // Cooperative runs pay false-hit fallbacks on prefetch transfers too;
    // the conservation identity must survive the double-path costs.
    let coop = ClusterSim::new(&coop(3, 10_000, RefreshStrategy::Deltas)).run(3);
    for node in &coop.nodes {
        let good = node.goodput_bytes.unwrap();
        let bad = node.badput_bytes.unwrap();
        assert!(good >= 0.0 && bad >= 0.0);
    }
}
