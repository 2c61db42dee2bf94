//! Integration properties of the cluster simulator: parity with the
//! validated single-path simulator, determinism, and the multi-node
//! phenomena the topology exists to expose.

mod common;

use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterSim, ProxyPolicy, StaticProxy,
    StaticWorkload, Topology, Workload,
};
use common::{adaptive, coop};
use coop::{CoopConfig, PlacementPolicy, RefreshStrategy};
use netsim::parametric::{self, ParametricConfig};
use prefetch_core::SystemParams;
use simcore::dist::Exponential;
use workload::synth_web::SynthWebConfig;

fn single_node_config<'a>(
    params: SystemParams,
    n_f: f64,
    p: f64,
    size_dist: &'a Exponential,
    requests: usize,
    warmup: usize,
) -> ClusterConfig<'a> {
    ClusterConfig {
        topology: Topology::single(params.bandwidth),
        workload: Workload::Static(StaticWorkload {
            proxies: vec![StaticProxy { lambda: params.lambda, h_prime: params.h_prime, n_f, p }],
            size_dist,
            catalog_items: None,
        }),
        requests_per_proxy: requests,
        warmup_per_proxy: warmup,
    }
}

/// The degenerate single-proxy, single-link topology reproduces
/// `netsim::parametric` within 1e-6 — across a grid of prefetch volumes,
/// probabilities, cache ratios, and seeds (the cluster engine makes the
/// same draws in the same order, so the match is effectively bit-exact).
#[test]
fn degenerate_topology_matches_parametric() {
    const REQUESTS: usize = 60_000;
    const WARMUP: usize = 10_000;
    let size = Exponential::with_mean(1.0);
    for (h_prime, n_f, p, seed) in
        [(0.0, 0.0, 0.0, 1u64), (0.0, 1.0, 0.9, 3), (0.3, 0.5, 0.8, 8), (0.3, 1.5, 0.6, 21)]
    {
        let params = SystemParams::new(30.0, 50.0, 1.0, h_prime).unwrap();
        let pconfig = ParametricConfig {
            params,
            n_f,
            p,
            size_dist: &size,
            requests: REQUESTS,
            warmup: WARMUP,
        };
        let expected = parametric::run(&pconfig, seed);

        let cconfig = single_node_config(params, n_f, p, &size, REQUESTS, WARMUP);
        let report = ClusterSim::new(&cconfig).run(seed);
        let node = &report.nodes[0];

        let tol = 1e-6;
        assert!(
            (report.links[0].utilisation - expected.utilisation).abs() < tol,
            "rho: cluster {} vs parametric {} (h'={h_prime} nf={n_f} p={p} seed={seed})",
            report.links[0].utilisation,
            expected.utilisation
        );
        assert!(
            (node.mean_access_time - expected.mean_access_time).abs() < tol,
            "t̄: cluster {} vs parametric {}",
            node.mean_access_time,
            expected.mean_access_time
        );
        assert!((node.hit_ratio - expected.hit_ratio).abs() < tol);
        assert!((node.mean_retrieval_time - expected.mean_retrieval_time).abs() < tol);
        assert!((node.retrieval_per_request - expected.retrieval_per_request).abs() < tol);
        assert_eq!(node.measured_requests, expected.measured_requests);
    }
}

/// Same seed ⇒ structurally identical report, in both engines.
#[test]
fn same_seed_identical_report() {
    let size = Exponential::with_mean(1.0);
    let params = SystemParams::paper_figure2(0.3);
    let cfg = single_node_config(params, 0.5, 0.8, &size, 20_000, 2_000);
    let sim = ClusterSim::new(&cfg);
    assert_eq!(sim.run(42), sim.run(42));
    assert_ne!(sim.run(42), sim.run(43), "different seeds must differ");

    let adaptive = adaptive(3, 12_000);
    let sim = ClusterSim::new(&adaptive);
    assert_eq!(sim.run(7), sim.run(7));
}

/// Sharing a backbone costs: the same per-proxy load over a shared hop has
/// strictly worse access times than over private links of that capacity —
/// the cluster generalisation of the paper's §5 load impedance.
#[test]
fn shared_backbone_impedes() {
    let size = Exponential::with_mean(1.0);
    let proxies = vec![
        StaticProxy { lambda: 15.0, h_prime: 0.0, n_f: 0.5, p: 0.8 },
        StaticProxy { lambda: 15.0, h_prime: 0.0, n_f: 0.5, p: 0.8 },
    ];
    let private = ClusterConfig {
        topology: Topology::star(2, 50.0),
        workload: Workload::Static(StaticWorkload {
            proxies: proxies.clone(),
            size_dist: &size,
            catalog_items: None,
        }),
        requests_per_proxy: 40_000,
        warmup_per_proxy: 8_000,
    };
    // Same access capacity, but the second hop is shared by both proxies.
    let shared = ClusterConfig {
        topology: Topology::two_tier(2, 50.0, 50.0),
        workload: Workload::Static(StaticWorkload {
            proxies,
            size_dist: &size,
            catalog_items: None,
        }),
        requests_per_proxy: 40_000,
        warmup_per_proxy: 8_000,
    };
    let r_private = ClusterSim::new(&private).run(11);
    let r_shared = ClusterSim::new(&shared).run(11);
    assert!(
        r_shared.mean_access_time > r_private.mean_access_time,
        "shared backbone {} must be slower than private links {}",
        r_shared.mean_access_time,
        r_private.mean_access_time
    );
    // The backbone carries both proxies' traffic: roughly double one
    // uplink's utilisation.
    let backbone = r_shared.link("backbone").unwrap().utilisation;
    let access = r_shared.link("access[0]").unwrap().utilisation;
    assert!(backbone > 1.6 * access, "backbone {backbone} vs access {access}");
}

/// Adaptive mode: proxies under different local load converge to different
/// thresholds, ordered by their local `ρ̂′`.
#[test]
fn adaptive_thresholds_diverge_with_local_load() {
    let config = ClusterConfig {
        topology: Topology::star(2, 45.0),
        workload: Workload::Adaptive(AdaptiveWorkload {
            proxies: vec![
                SynthWebConfig { lambda: 8.0, ..SynthWebConfig::default() },
                SynthWebConfig { lambda: 28.0, ..SynthWebConfig::default() },
            ],
            cache_capacity: 32,
            cache_bytes: None,
            max_candidates: 3,
            prefetch_jitter: 0.01,
            policy: ProxyPolicy::Adaptive,
            predictor: CandidateSource::Oracle,
            shared_structure_seed: None,
            delayed: Default::default(),
        }),
        requests_per_proxy: 30_000,
        warmup_per_proxy: 6_000,
    };
    let report = ClusterSim::new(&config).run(5);
    let lo = report.nodes[0].mean_threshold.expect("threshold at proxy 0");
    let hi = report.nodes[1].mean_threshold.expect("threshold at proxy 1");
    assert!(hi > lo * 1.5, "loaded proxy's threshold {hi} should clearly exceed idle proxy's {lo}");
    let rho_lo = report.nodes[0].rho_prime_estimate.unwrap();
    let rho_hi = report.nodes[1].rho_prime_estimate.unwrap();
    assert!(rho_hi > rho_lo, "ρ̂′ ordering: {rho_hi} vs {rho_lo}");
}

/// Prefetch byte accounting is conserved in adaptive mode: goodput +
/// badput equals what was prefetched, and no-prefetch runs move no
/// speculative bytes.
#[test]
fn adaptive_byte_accounting() {
    let mk = |policy| ClusterConfig {
        topology: Topology::two_tier(2, 60.0, 100.0),
        workload: Workload::Adaptive(AdaptiveWorkload {
            proxies: vec![
                SynthWebConfig { lambda: 20.0, link_skew: 0.3, ..SynthWebConfig::default() },
                SynthWebConfig { lambda: 12.0, link_skew: 0.3, ..SynthWebConfig::default() },
            ],
            cache_capacity: 24,
            cache_bytes: None,
            max_candidates: 3,
            prefetch_jitter: 0.01,
            policy,
            predictor: CandidateSource::Oracle,
            shared_structure_seed: None,
            delayed: Default::default(),
        }),
        requests_per_proxy: 25_000,
        warmup_per_proxy: 5_000,
    };
    let off = ClusterSim::new(&mk(ProxyPolicy::NoPrefetch)).run(13);
    for node in &off.nodes {
        assert_eq!(node.prefetches_per_request, 0.0);
        assert_eq!(node.goodput_bytes, Some(0.0));
        assert_eq!(node.badput_bytes, Some(0.0));
    }
    let on = ClusterSim::new(&mk(ProxyPolicy::Adaptive)).run(13);
    let mut prefetched_any = false;
    for node in &on.nodes {
        let good = node.goodput_bytes.unwrap();
        let bad = node.badput_bytes.unwrap();
        assert!(good >= 0.0 && bad >= 0.0);
        if node.prefetches_per_request > 0.0 {
            prefetched_any = true;
            assert!(good > 0.0, "oracle-driven prefetching should earn goodput");
        }
    }
    assert!(prefetched_any, "adaptive policy never prefetched");
    // Prefetching raised the hit ratio at every proxy that used it.
    for (n_on, n_off) in on.nodes.iter().zip(&off.nodes) {
        if n_on.prefetches_per_request > 0.05 {
            assert!(
                n_on.hit_ratio > n_off.hit_ratio,
                "proxy {}: hit ratio {} should beat no-prefetch {}",
                n_on.proxy,
                n_on.hit_ratio,
                n_off.hit_ratio
            );
        }
    }
}

/// Same seed ⇒ structurally identical report in cooperative mode, across
/// both placement policies (the determinism property the digest/placement
/// machinery must preserve).
#[test]
fn cooperative_same_seed_identical_report() {
    for policy in [
        PlacementPolicy::Static,
        PlacementPolicy::LoadAware { divergence: 0.05, step: 4, min_vnodes: 8 },
    ] {
        let mut cfg = coop(3, 20_000, RefreshStrategy::Deltas);
        let Workload::Cooperative(w) = &mut cfg.workload else { unreachable!() };
        w.coop.placement = policy;
        let sim = ClusterSim::new(&cfg);
        let a = sim.run(9);
        assert_eq!(a, sim.run(9), "policy {policy:?}");
        assert_ne!(a, sim.run(10), "different seeds must differ");
        let coop = a.coop.expect("coop counters present");
        assert!(coop.router.digest_epochs > 0, "digests must have refreshed");
    }
}

/// Cooperative mode actually cooperates: peers serve a meaningful share
/// of misses, and those transfers ride the peer links, not the backbone.
#[test]
fn cooperative_peers_carry_traffic() {
    let mut cfg = coop(3, 20_000, RefreshStrategy::Deltas);
    let Workload::Cooperative(w) = &mut cfg.workload else { unreachable!() };
    w.coop = CoopConfig::default();
    let report = ClusterSim::new(&cfg).run(21);
    let coop = report.coop.expect("coop counters");
    assert!(coop.peer_fetches > 100, "peer fetches {}", coop.peer_fetches);
    let peer_bytes: f64 = report
        .links
        .iter()
        .filter(|l| l.name.to_string().starts_with("peer["))
        .map(|l| l.bytes_carried)
        .sum();
    assert!(peer_bytes > 0.0);
    for node in &report.nodes {
        assert!(node.peer_bytes.expect("peer bytes reported") >= 0.0);
    }
}

/// The network-load curve reproduces the paper's Figure 2/3 shape at
/// cluster scope: G grows with volume when p > threshold, and the excess
/// network load grows monotonically with volume regardless.
#[test]
fn network_load_curve_has_paper_shape() {
    let size = Exponential::with_mean(1.0);
    let topology = Topology::star(2, 50.0);
    // ρ′ = 0.6 at each proxy; p = 0.9 clears the threshold.
    let proxies = [(30.0, 0.0), (30.0, 0.0)];
    let n_fs = [0.25, 0.5, 1.0];
    let curve = cluster::network_load_curve(
        &cluster::CurveSpec {
            topology: &topology,
            proxies: &proxies,
            p: 0.9,
            size_dist: &size,
            requests_per_proxy: 50_000,
            warmup_per_proxy: 10_000,
            seed: 17,
        },
        &n_fs,
    );
    assert_eq!(curve.len(), 3);
    for point in &curve {
        assert!(point.improvement > 0.0, "G at nf={} was {}", point.n_f, point.improvement);
    }
    // More volume ⇒ more network load, and G keeps growing (no volume
    // limit above threshold — the paper's headline result).
    assert!(curve[2].excess_bytes_per_request > curve[0].excess_bytes_per_request);
    assert!(curve[2].improvement > curve[0].improvement);
    assert!(curve[2].max_link_utilisation > curve[0].max_link_utilisation);
}
