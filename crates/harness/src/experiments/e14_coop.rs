//! E14 — cooperative edge caching across the cluster.
//!
//! PR 1's cluster showed *where* the queue lives decides what prefetching
//! costs; every proxy still pulled its misses straight from the origin,
//! so identical objects crossed the backbone once per proxy. This
//! experiment turns on the `coop` layer (consistent-hash placement +
//! Bloom digests + peer routing) over peer-meshed topologies:
//!
//! 1. **Headline** — cooperative vs plain adaptive on a two-tier + peer
//!    mesh with identical Zipf workloads: backbone bytes drop at equal
//!    hit ratio, the saved transfers riding the peer links;
//! 2. **Sweep** — digest epoch × placement policy × prefetch threshold
//!    against aggregate backbone load: long epochs trade exchange traffic
//!    for staleness false hits, and speculative volume amplifies the
//!    redundancy cooperation removes;
//! 3. **Mesh vs ring** — the same cooperation over a peer ring (fewer
//!    links, multi-hop peer transfers);
//! 4. **Load-aware placement** — heterogeneous per-proxy load with the
//!    migration policy on: virtual nodes drain from the hot proxy.

use crate::experiments::{Rendered, Size};
use crate::report::{f, Table};
use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterReport, ClusterSim,
    CooperativeWorkload, ProxyPolicy, Topology, Workload,
};
use coop::{CoopConfig, DigestConfig, PlacementPolicy};
use simcore::par::par_map_auto;
use workload::synth_web::SynthWebConfig;

const REQUESTS: usize = 30_000;
const WARMUP: usize = 6_000;
const SEED: u64 = 14;

/// Reduced problem size for the CI smoke invocation (`--smoke`).
const SMOKE_REQUESTS: usize = 3_000;
const SMOKE_WARMUP: usize = 600;

/// Identical item universe at every proxy (shared structure seed): the
/// maximally redundant deployment cooperation is built for.
pub fn base_workload(lambdas: &[f64], policy: ProxyPolicy) -> AdaptiveWorkload {
    AdaptiveWorkload {
        proxies: lambdas
            .iter()
            .map(|&lambda| SynthWebConfig { lambda, link_skew: 0.3, ..SynthWebConfig::default() })
            .collect(),
        cache_capacity: 48,
        cache_bytes: None,
        max_candidates: 3,
        prefetch_jitter: 0.01,
        policy,
        predictor: CandidateSource::Oracle,
        shared_structure_seed: Some(99),
        delayed: Default::default(),
    }
}

/// Runs the closed loop over `topology`, cooperatively when `coop` is set.
pub fn run_mode(
    topology: Topology,
    base: AdaptiveWorkload,
    coop: Option<CoopConfig>,
    requests: usize,
    warmup: usize,
) -> ClusterReport {
    let workload = match coop {
        Some(c) => Workload::Cooperative(CooperativeWorkload { base, coop: c }),
        None => Workload::Adaptive(base),
    };
    let config = ClusterConfig {
        topology,
        workload,
        requests_per_proxy: requests,
        warmup_per_proxy: warmup,
    };
    ClusterSim::new(&config).run(SEED)
}

fn digest(epoch: f64) -> DigestConfig {
    DigestConfig { epoch, bits_per_entry: 10, hashes: 4 }
}

fn mean_hit_ratio(report: &ClusterReport) -> f64 {
    report.nodes.iter().map(|n| n.hit_ratio).sum::<f64>() / report.nodes.len() as f64
}

/// The report at `size`.
pub fn render(size: Size) -> Rendered {
    let (requests, warmup) = size.pick((REQUESTS, WARMUP), (SMOKE_REQUESTS, SMOKE_WARMUP));
    let n = 3;
    let lambdas = vec![14.0; n];
    let mesh = || Topology::mesh(n, 50.0, 70.0, 45.0);

    let mut out = String::new();
    out.push_str("# E14 — cooperative edge caching and request routing\n");
    out.push_str("# peers answer each other's misses via Bloom digests over a\n");
    out.push_str("# consistent-hash ring; peer traffic bypasses the backbone\n\n");

    // 1. Headline: cooperative vs adaptive at equal hit ratio.
    let adaptive =
        run_mode(mesh(), base_workload(&lambdas, ProxyPolicy::Adaptive), None, requests, warmup);
    let coop_cfg = CoopConfig { digest: digest(2.0), ..CoopConfig::default() };
    let cooperative = run_mode(
        mesh(),
        base_workload(&lambdas, ProxyPolicy::Adaptive),
        Some(coop_cfg),
        requests,
        warmup,
    );
    let mut headline = Table::new(
        "Cooperation on a two-tier + peer mesh (3 proxies, identical Zipf workloads)",
        &["mode", "backbone bytes", "peer bytes", "hit ratio", "t mean", "peer fetches"],
    );
    for (name, r) in [("adaptive (no coop)", &adaptive), ("cooperative", &cooperative)] {
        let peer_bytes: f64 = r.nodes.iter().map(|node| node.peer_bytes.unwrap_or(0.0)).sum();
        headline.row(vec![
            name.to_string(),
            f(r.link_bytes("backbone"), 0),
            f(peer_bytes, 0),
            f(mean_hit_ratio(r), 3),
            f(r.mean_access_time, 5),
            r.coop.map_or("-".into(), |c| c.peer_fetches.to_string()),
        ]);
    }
    out.push_str(&headline.render());
    let saved =
        100.0 * (1.0 - cooperative.link_bytes("backbone") / adaptive.link_bytes("backbone"));
    out.push_str(&format!(
        "\nBackbone relief: {saved:.1}% fewer origin-side bytes at equal hit ratio.\n\n"
    ));

    // 2. Digest epoch x placement policy x prefetch threshold.
    let epochs = [0.5, 2.0, 8.0];
    let placements = [
        ("static", PlacementPolicy::Static),
        ("load-aware", PlacementPolicy::LoadAware { divergence: 0.05, step: 4, min_vnodes: 8 }),
    ];
    let policies = [
        ("no prefetch", ProxyPolicy::NoPrefetch),
        ("fixed 0.3", ProxyPolicy::FixedThreshold(0.3)),
        ("adaptive", ProxyPolicy::Adaptive),
    ];
    let grid: Vec<(usize, usize, usize)> = (0..epochs.len())
        .flat_map(|e| {
            (0..placements.len()).flat_map(move |pl| (0..policies.len()).map(move |po| (e, pl, po)))
        })
        .collect();
    let reports = par_map_auto(&grid, |_, &(e, pl, po)| {
        let cfg = CoopConfig {
            placement: placements[pl].1,
            digest: digest(epochs[e]),
            ..CoopConfig::default()
        };
        run_mode(mesh(), base_workload(&lambdas, policies[po].1), Some(cfg), requests, warmup)
    });
    let mut sweep = Table::new(
        "Digest epoch x placement x prefetch policy vs aggregate backbone load",
        &["epoch", "placement", "policy", "backbone bytes", "peer%", "false hits", "hit ratio"],
    );
    for (&(e, pl, po), r) in grid.iter().zip(&reports) {
        let coop = r.coop.expect("cooperative run");
        // Every origin transfer crosses the backbone exactly once, so the
        // peer share of all transfers is peer / (peer + backbone).
        let backbone_jobs = r.link("backbone").map_or(0, |l| l.jobs_completed);
        let peer_share =
            100.0 * coop.peer_fetches as f64 / (coop.peer_fetches + backbone_jobs).max(1) as f64;
        sweep.row(vec![
            f(epochs[e], 1),
            placements[pl].0.to_string(),
            policies[po].0.to_string(),
            f(r.link_bytes("backbone"), 0),
            f(peer_share, 1),
            coop.peer_false_hits.to_string(),
            f(mean_hit_ratio(r), 3),
        ]);
    }
    out.push_str(&sweep.render());

    // 3. Mesh vs ring — at 4 proxies, where the fabrics actually differ
    // (a 3-proxy ring *is* a mesh: every pair is adjacent).
    let m = 4;
    let wide = vec![14.0; m];
    let fabrics = [
        ("mesh", m * (m - 1) / 2, Topology::mesh(m, 50.0, 70.0, 45.0)),
        ("ring", m, Topology::ring(m, 50.0, 70.0, 45.0)),
    ];
    let mut topo = Table::new(
        "Peer fabric at 4 proxies: full mesh vs ring (same cooperation settings)",
        &["fabric", "peer links", "backbone bytes", "t mean", "peer fetches"],
    );
    for (name, links, topology) in fabrics {
        let r = run_mode(
            topology,
            base_workload(&wide, ProxyPolicy::Adaptive),
            Some(CoopConfig { digest: digest(2.0), ..CoopConfig::default() }),
            requests,
            warmup,
        );
        topo.row(vec![
            name.to_string(),
            links.to_string(),
            f(r.link_bytes("backbone"), 0),
            f(r.mean_access_time, 5),
            r.coop.map_or("-".into(), |c| c.peer_fetches.to_string()),
        ]);
    }
    out.push('\n');
    out.push_str(&topo.render());

    // 4. Load-aware placement under heterogeneous load.
    let skewed = [6.0, 14.0, 28.0];
    let migrating = run_mode(
        mesh(),
        base_workload(&skewed, ProxyPolicy::Adaptive),
        Some(CoopConfig {
            placement: PlacementPolicy::LoadAware { divergence: 0.05, step: 4, min_vnodes: 8 },
            digest: digest(2.0),
            ..CoopConfig::default()
        }),
        requests,
        warmup,
    );
    let frozen = run_mode(
        mesh(),
        base_workload(&skewed, ProxyPolicy::Adaptive),
        Some(CoopConfig { digest: digest(2.0), ..CoopConfig::default() }),
        requests,
        warmup,
    );
    let mut rebal = Table::new(
        "Placement under heterogeneous load (lambda = 6 / 14 / 28)",
        &["placement", "vnode migrations", "backbone bytes", "t mean", "max rho"],
    );
    for (name, r) in [("static", &frozen), ("load-aware", &migrating)] {
        rebal.row(vec![
            name.to_string(),
            r.coop.map_or("-".into(), |c| c.router.vnode_migrations.to_string()),
            f(r.link_bytes("backbone"), 0),
            f(r.mean_access_time, 5),
            f(r.max_link_utilisation(), 3),
        ]);
    }
    out.push('\n');
    out.push_str(&rebal.render());

    out.push_str(
        "\nReading: with identical hot sets behind every proxy, the digests turn\n\
         redundant origin fetches into peer fetches -- the backbone sheds load\n\
         while hit ratios stay put, because cooperation only re-routes misses.\n\
         Long digest epochs make peers advertise entries they have already\n\
         evicted, so false hits climb on top of the Bloom filter's small\n\
         structural floor, and every false hit pays the peer path *and* the\n\
         origin path. Prefetching raises the stakes in\n\
         both directions: speculative fetches are exactly the redundant bytes\n\
         cooperation removes. Under skewed load the load-aware policy drains\n\
         virtual nodes off the hot proxy; the ring buys cooperation with n\n\
         links instead of n(n-1)/2 at a small multi-hop latency premium.\n",
    );
    Rendered::text(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 8_000;
    const W: usize = 1_600;

    #[test]
    fn render_contains_all_sections() {
        let report = render(Size::Smoke).report;
        assert!(report.contains("Backbone relief"));
        assert!(report.contains("Digest epoch x placement x prefetch policy"));
        assert!(report.contains("full mesh vs ring"));
        assert!(report.contains("heterogeneous load"));
    }

    #[test]
    fn cooperation_relieves_the_backbone() {
        let lambdas = vec![14.0; 3];
        let mesh = || Topology::mesh(3, 50.0, 70.0, 45.0);
        let adaptive = run_mode(mesh(), base_workload(&lambdas, ProxyPolicy::Adaptive), None, N, W);
        let coop = run_mode(
            mesh(),
            base_workload(&lambdas, ProxyPolicy::Adaptive),
            Some(CoopConfig { digest: digest(2.0), ..CoopConfig::default() }),
            N,
            W,
        );
        assert!(
            coop.link_bytes("backbone") < adaptive.link_bytes("backbone"),
            "coop backbone {} vs adaptive {}",
            coop.link_bytes("backbone"),
            adaptive.link_bytes("backbone")
        );
    }

    #[test]
    fn longer_epochs_cause_more_false_hits() {
        let lambdas = vec![14.0; 3];
        let run_at = |epoch| {
            run_mode(
                Topology::mesh(3, 50.0, 70.0, 45.0),
                base_workload(&lambdas, ProxyPolicy::Adaptive),
                Some(CoopConfig { digest: digest(epoch), ..CoopConfig::default() }),
                N,
                W,
            )
        };
        let short = run_at(0.5).coop.unwrap();
        let long = run_at(10.0).coop.unwrap();
        assert!(
            long.peer_false_hits > short.peer_false_hits,
            "false hits: epoch 10 {} vs epoch 0.5 {}",
            long.peer_false_hits,
            short.peer_false_hits
        );
    }
}
