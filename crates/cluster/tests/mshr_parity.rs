//! Delayed-hits behaviour. That every delayed-hits configuration —
//! coalescing on/off, bounded entry budgets, aggregate-delay ranking,
//! size-aware thresholds, the static catalog mode — leaves the sharded
//! driver **bit-identical** to the single-threaded one is a set of rows of
//! the parity matrix (`shard_parity.rs`); the static catalog is checked
//! here once more on uneven shard blocks. This suite pins the delayed-hits
//! physics the MSHR table exists for:
//!
//! * at backbone latencies the fetch window spans later requests, so the
//!   coalescing table settles some of them as **delayed hits** and makes
//!   **strictly fewer origin fetches** than the independent-miss baseline
//!   at equal offered load;
//! * aggregate-delay **ranking** (evict the key that has cost the least
//!   accumulated waiting) beats plain recency on mean access time in a
//!   pinned high-latency cell.

mod common;

use cluster::{ClusterSim, DelayedHitsConfig, RankingMode, ShardPlan};
use common::{mshr, static_catalog, SHARD_COUNTS};

/// The static catalog on five proxies, so two to four shards cut it into
/// uneven blocks (the matrix's row has four): the report is bit-identical
/// at every matrix shard count, every multi-shard cut runs on threads,
/// and the catalog settles some requests as delayed hits.
#[test]
fn static_catalog_sharding_is_invisible() {
    let config = static_catalog(5, 1_200);
    let sim = ClusterSim::new(&config);
    let one = sim.run(31);
    for shards in SHARD_COUNTS.into_iter().filter(|&k| k > 1) {
        let lookahead = ShardPlan::partition(&config.topology, shards).lookahead();
        assert!(lookahead > 0.0, "{shards} shards would not run on threads");
        assert_eq!(sim.run_sharded(31, shards), one, "{shards} shards vs 1 shard");
    }
    assert!(one.delayed_hits() > 0, "a 40-item catalog over a slow origin must settle some");
    assert!(
        one.coalesced_requests() > 0 && one.origin_fetches() > 0,
        "catalog mode must populate the MSHR aggregates"
    );
}

/// The coalescing win: at equal offered load over the same slow backbone,
/// the coalescing table launches strictly fewer origin fetches than the
/// independent-miss baseline — each waiter join is a transfer avoided —
/// and the counters reconcile exactly.
#[test]
fn coalescing_launches_strictly_fewer_origin_fetches() {
    let coalescing = ClusterSim::new(&mshr(DelayedHitsConfig::default(), 3_000)).run(22);
    let independent = DelayedHitsConfig { coalesce: false, ..Default::default() };
    let independent = ClusterSim::new(&mshr(independent, 3_000)).run(22);
    assert!(
        coalescing.coalesced_requests() > 0,
        "no coalescing happened — the cell no longer exercises delayed hits"
    );
    assert!(
        coalescing.origin_fetches() < independent.origin_fetches(),
        "coalescing must launch strictly fewer origin fetches: {} vs {}",
        coalescing.origin_fetches(),
        independent.origin_fetches()
    );
    assert_eq!(independent.delayed_hits(), 0, "the baseline must not settle delayed hits");
}

/// The ranking win: in the pinned high-latency cell, evicting by
/// aggregate delay (keep the keys whose absence costs the most waiting)
/// yields a lower mean access time than plain recency.
#[test]
fn aggregate_delay_ranking_beats_recency() {
    let recency = ClusterSim::new(&mshr(DelayedHitsConfig::default(), 3_000)).run(23);
    let ranked = DelayedHitsConfig { ranking: RankingMode::AggregateDelay, ..Default::default() };
    let ranked = ClusterSim::new(&mshr(ranked, 3_000)).run(23);
    assert!(
        ranked.mean_access_time < recency.mean_access_time,
        "aggregate-delay ranking must beat recency on mean access time: {} vs {}",
        ranked.mean_access_time,
        recency.mean_access_time
    );
}
