//! E16 — incremental digest deltas and byte-addressed caching at scale.
//!
//! E15 removed the per-event scan; the remaining per-epoch cost was the
//! digest exchange: every boundary, every proxy rebuilt and shipped its
//! whole Bloom summary — O(proxies × capacity) work and bytes, the last
//! term that grows with cache size rather than with activity. This
//! experiment turns on the two PR-4 mechanisms together over the
//! 64/128/256-proxy peer meshes:
//!
//! * **digest deltas** (`RefreshStrategy::Deltas`) — proxies ship only
//!   their insert/evict streams; the routers maintain counting-Bloom
//!   digests, provably equivalent to full rebuilds (the delta-parity
//!   suite), at O(churn) instead of O(capacity) per boundary;
//! * **byte-addressed caches** (`cache_bytes`) — eviction driven by a
//!   byte budget under markedly heterogeneous object sizes (Pareto tail
//!   at shape 1.6), so cache occupancy, goodput/badput, and the digest
//!   streams are all denominated in the paper's unit: bytes.
//!
//! Per fabric size the sweep runs all three refresh strategies at a
//! fixed total request budget and compares digest-exchange bytes,
//! backbone load, and false hits. The crossover is part of the story:
//! deltas win whenever per-epoch churn stays below
//! `capacity · bits / 8` wire-bytes — the regime real summary caches
//! live in — and `RefreshStrategy::Auto` (the compaction fallback) makes
//! the bound structural: each proxy ships whichever of the two forms is
//! cheaper that boundary, so its cost is `min(churn · 9, ⌈m/8⌉)` bytes
//! per proxy per epoch by construction, with `RouterStats` metering
//! which side fired. The stdout report carries only seeded,
//! deterministic metrics; wall-clock goes to stderr.

use crate::experiments::{Rendered, Size};
use crate::report::{f, Table};
use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterReport, ClusterSim,
    CooperativeWorkload, ProxyPolicy, Topology, Workload,
};
use coop::{CoopConfig, DigestConfig, PlacementPolicy, RefreshStrategy};
use std::time::Instant;
use workload::synth_web::SynthWebConfig;

const SEED: u64 = 16;
const LAMBDA: f64 = 14.0;

/// Fabric sizes the sweep walks (shared with E15 so rows line up).
pub const SIZES: [usize; 3] = [64, 128, 256];

/// Per-proxy cache capacity in entries, and the byte budget that actually
/// binds under the heavy-tailed sizes (mean size 1.0).
pub const CACHE_CAPACITY: usize = 192;
pub const CACHE_BYTES: f64 = 160.0;

/// Total requests across the cluster at full size.
const TOTAL_REQUESTS: usize = 96_000;

/// Reduced total for the CI smoke invocation (`--smoke`).
const SMOKE_TOTAL_REQUESTS: usize = 24_000;

/// A peer mesh whose backbone scales with the proxy count.
fn scaled_mesh(n_proxies: usize) -> Topology {
    Topology::mesh(n_proxies, 50.0, 25.0 * n_proxies as f64, 45.0)
}

fn workload(n_proxies: usize) -> AdaptiveWorkload {
    AdaptiveWorkload {
        proxies: (0..n_proxies)
            .map(|_| SynthWebConfig {
                lambda: LAMBDA,
                link_skew: 0.3,
                // Heavy Pareto tail: object sizes span ~50x, so an
                // admission can evict several entries under the byte
                // budget.
                size_shape: 1.6,
                ..SynthWebConfig::default()
            })
            .collect(),
        cache_capacity: CACHE_CAPACITY,
        cache_bytes: Some(CACHE_BYTES),
        max_candidates: 3,
        prefetch_jitter: 0.01,
        policy: ProxyPolicy::Adaptive,
        predictor: CandidateSource::Oracle,
        shared_structure_seed: Some(99),
        delayed: Default::default(),
    }
}

fn requests_per_proxy(n_proxies: usize, total_requests: usize) -> usize {
    (total_requests / n_proxies).max(60)
}

/// Runs one fabric size under one refresh strategy; returns the report
/// and the wall time.
pub fn run_at(
    n_proxies: usize,
    strategy: RefreshStrategy,
    total_requests: usize,
) -> (ClusterReport, f64) {
    let requests = requests_per_proxy(n_proxies, total_requests);
    let warmup = requests / 5;
    let config = ClusterConfig {
        topology: scaled_mesh(n_proxies),
        workload: Workload::Cooperative(CooperativeWorkload {
            base: workload(n_proxies),
            coop: CoopConfig {
                placement: PlacementPolicy::LoadAware { divergence: 0.05, step: 4, min_vnodes: 8 },
                digest: DigestConfig { epoch: 1.0, bits_per_entry: 10, hashes: 4 },
                refresh: strategy,
                ..CoopConfig::default()
            },
        }),
        requests_per_proxy: requests,
        warmup_per_proxy: warmup,
    };
    let start = Instant::now();
    let report = ClusterSim::new(&config).run(SEED);
    (report, start.elapsed().as_secs_f64())
}

/// The report at `size`.
pub fn render(size: Size) -> Rendered {
    let total_requests = size.pick(TOTAL_REQUESTS, SMOKE_TOTAL_REQUESTS);
    let mut out = String::new();
    out.push_str("# E16 — incremental digest deltas + byte-addressed caches\n");
    out.push_str("# delta streams vs full snapshot rebuilds over 64/128/256-proxy\n");
    out.push_str("# meshes; heterogeneous (Pareto 1.6) object sizes, byte-driven\n");
    out.push_str(&format!(
        "# eviction at {CACHE_BYTES} B per proxy; total request budget per run: {total_requests}\n\n"
    ));

    let mut sweep = Table::new(
        "Digest exchange and backbone load: deltas vs full rebuilds",
        &[
            "proxies",
            "refresh",
            "digest KB",
            "KB/epoch",
            "delta ops",
            "backbone B/req",
            "false hits",
            "hit ratio",
            "cache B used",
        ],
    );
    let mut digest_bytes = [[0u64; 3]; SIZES.len()];
    for (si, &n) in SIZES.iter().enumerate() {
        for (mi, strategy) in
            [RefreshStrategy::Deltas, RefreshStrategy::FullRebuild, RefreshStrategy::Auto]
                .into_iter()
                .enumerate()
        {
            let (r, wall) = run_at(n, strategy, total_requests);
            let requests_total = (requests_per_proxy(n, total_requests) * n) as u64;
            let mode = match strategy {
                RefreshStrategy::Deltas => "deltas",
                RefreshStrategy::FullRebuild => "full rebuild",
                RefreshStrategy::Auto => "auto",
            };
            eprintln!(
                "e16: {n} proxies, {mode}: {wall:.2}s wall ({:.1} kreq/s)",
                requests_total as f64 / wall / 1e3
            );
            let coop = r.coop.expect("cooperative run");
            digest_bytes[si][mi] = coop.router.digest_bytes;
            let epochs = coop.router.digest_epochs.max(1);
            let hit = r.nodes.iter().map(|node| node.hit_ratio).sum::<f64>() / r.nodes.len() as f64;
            let used = r.nodes.iter().map(|node| node.cache_used_bytes.unwrap_or(0.0)).sum::<f64>()
                / r.nodes.len() as f64;
            sweep.row(vec![
                n.to_string(),
                mode.to_string(),
                f(coop.router.digest_bytes as f64 / 1e3, 1),
                f(coop.router.digest_bytes as f64 / 1e3 / epochs as f64, 2),
                coop.router.delta_ops.to_string(),
                f(r.link_bytes("backbone") / requests_total as f64, 3),
                coop.peer_false_hits.to_string(),
                f(hit, 3),
                f(used, 1),
            ]);
        }
    }
    out.push_str(&sweep.render());

    // Headline: the exchange-byte ratio at each size (deltas as a share of
    // snapshot traffic — below 100% the delta protocol wins the wire).
    out.push('\n');
    let mut head = Table::new(
        "Delta exchange traffic as a share of full-rebuild traffic",
        &["proxies", "delta KB", "rebuild KB", "auto KB", "delta share", "auto share"],
    );
    for (si, &n) in SIZES.iter().enumerate() {
        let [d, fl, auto] = digest_bytes[si];
        head.row(vec![
            n.to_string(),
            f(d as f64 / 1e3, 1),
            f(fl as f64 / 1e3, 1),
            f(auto as f64 / 1e3, 1),
            format!("{:.0}%", 100.0 * d as f64 / fl.max(1) as f64),
            format!("{:.0}%", 100.0 * auto as f64 / fl.max(1) as f64),
        ]);
    }
    out.push_str(&head.render());

    out.push_str(
        "\nReading: both refresh protocols advertise identical state (pinned to\n\
         1e-12 by the delta-parity suite), so backbone bytes, hit ratios and\n\
         false hits line up row for row -- what changes is the metadata cost.\n\
         Full rebuilds ship capacity-proportional snapshots every epoch\n\
         whether or not anything changed; deltas ship 9 bytes per actual\n\
         cache change. With per-proxy request streams deep enough to warm\n\
         the caches, churn per epoch falls well below capacity and the\n\
         delta share drops accordingly; under cold-cache churn (256 proxies\n\
         at a thin per-proxy budget) the stream approaches snapshot cost\n\
         from below -- the worst case is parity, never a regression, while\n\
         the refresh CPU drops from O(capacity) to O(churn) per proxy\n\
         either way. Byte-driven eviction keeps occupancy pinned under the\n\
         byte budget at every size while the item count floats with the\n\
         size mix.\n",
    );
    Rendered::text(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_all_sections() {
        let report = render(Size::Smoke).report;
        assert!(report.contains("digest deltas"));
        assert!(report.contains("full rebuild"));
        assert!(report.contains("Delta exchange traffic"));
        assert!(report.contains("256"));
    }

    #[test]
    fn strategies_agree_on_everything_but_exchange_bytes() {
        let (by_delta, _) = run_at(64, RefreshStrategy::Deltas, SMOKE_TOTAL_REQUESTS);
        let (by_full, _) = run_at(64, RefreshStrategy::FullRebuild, SMOKE_TOTAL_REQUESTS);
        cluster::parity::assert_reports_match_modulo_digest_traffic(
            &by_delta,
            &by_full,
            "e16 smoke 64 proxies",
        );
        assert!(by_delta.coop.unwrap().router.delta_ops > 0);
    }

    #[test]
    fn auto_compaction_is_never_costlier_and_meters_its_choices() {
        // Auto flushes each proxy's cheaper form per boundary, so its
        // exchange volume is bounded by both pure strategies, while the
        // advertised state (and hence the whole report modulo exchange
        // metering) stays identical.
        let (by_auto, _) = run_at(64, RefreshStrategy::Auto, SMOKE_TOTAL_REQUESTS);
        let (by_delta, _) = run_at(64, RefreshStrategy::Deltas, SMOKE_TOTAL_REQUESTS);
        let (by_full, _) = run_at(64, RefreshStrategy::FullRebuild, SMOKE_TOTAL_REQUESTS);
        cluster::parity::assert_reports_match_modulo_digest_traffic(
            &by_auto,
            &by_delta,
            "e16 auto vs deltas",
        );
        let auto = by_auto.coop.unwrap().router;
        let delta = by_delta.coop.unwrap().router;
        let full = by_full.coop.unwrap().router;
        assert!(auto.digest_bytes <= delta.digest_bytes, "auto worse than pure deltas");
        assert!(auto.digest_bytes <= full.digest_bytes, "auto worse than pure snapshots");
        // The meter records which side of the crossover each flush took.
        assert_eq!(delta.snapshot_flushes, 0);
        assert_eq!(full.delta_flushes, 0);
        assert_eq!(
            auto.delta_flushes + auto.snapshot_flushes,
            delta.delta_flushes,
            "auto flushes once per proxy per boundary, same as pure deltas"
        );
        assert_eq!(delta.delta_flushes, full.snapshot_flushes);
    }

    #[test]
    fn byte_budget_binds_at_every_proxy() {
        let (r, _) = run_at(64, RefreshStrategy::Deltas, SMOKE_TOTAL_REQUESTS);
        for node in &r.nodes {
            let used = node.cache_used_bytes.expect("closed loop reports occupancy");
            assert!(
                used <= CACHE_BYTES + 1e-9,
                "proxy {}: occupancy {used} exceeds byte budget",
                node.proxy
            );
        }
    }
}
