//! E15 — cluster scale sweep on the indexed event scheduler.
//!
//! The original closed-loop engine paid an O(links + proxies) scan per
//! event, which capped experiments at a handful of proxies. With the
//! `simcore::sched` indexed scheduler every event costs O(log n), so this
//! experiment sweeps the peer-meshed cooperative deployment through
//! 64/128/256-proxy fabrics — the fan-outs the hardware-prefetching
//! surveys and Anselmi & Walton's speculative queueing networks argue the
//! interesting effects live at. A full 256-proxy mesh carries
//! 256·255/2 = 32 640 peer links, each its own PS queue: exactly the
//! shape the per-event scan could not touch.
//!
//! Per fabric size the sweep runs plain adaptive and cooperative modes at
//! a fixed *total* request budget (so wall-clock comparisons across sizes
//! are per-event cost, not workload growth). The stdout report carries
//! only seeded, deterministic metrics (the repo invariant: two runs of a
//! harness binary must diff empty); wall-clock event-loop throughput is
//! printed to stderr.

use crate::experiments::{Rendered, Size};
use crate::report::{f, Table};
use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterReport, ClusterSim,
    CooperativeWorkload, ProxyPolicy, Topology, Workload,
};
use coop::{CoopConfig, DigestConfig, PlacementPolicy};
use std::time::Instant;
use workload::synth_web::SynthWebConfig;

const SEED: u64 = 15;
const LAMBDA: f64 = 14.0;

/// Fabric sizes the sweep walks. CI's `--smoke` run covers the same
/// sizes at a reduced request budget, so the 256-proxy path cannot rot.
pub const SIZES: [usize; 3] = [64, 128, 256];

/// Total requests across the cluster at full size (split evenly over the
/// proxies, so bigger fabrics stress breadth, not per-proxy depth).
const TOTAL_REQUESTS: usize = 96_000;

/// Reduced total for the CI smoke invocation (`--smoke`).
const SMOKE_TOTAL_REQUESTS: usize = 24_000;

/// A peer mesh whose backbone scales with the proxy count (fixed per-proxy
/// headroom, so every size runs at a comparable utilisation).
fn scaled_mesh(n_proxies: usize) -> Topology {
    Topology::mesh(n_proxies, 50.0, 25.0 * n_proxies as f64, 45.0)
}

fn workload(n_proxies: usize, policy: ProxyPolicy) -> AdaptiveWorkload {
    AdaptiveWorkload {
        proxies: (0..n_proxies)
            .map(|_| SynthWebConfig { lambda: LAMBDA, link_skew: 0.3, ..SynthWebConfig::default() })
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

/// How the total request budget splits over `n_proxies` (floored so tiny
/// smoke budgets still clear the warmup at 256 proxies).
fn requests_per_proxy(n_proxies: usize, total_requests: usize) -> usize {
    (total_requests / n_proxies).max(60)
}

/// Runs one fabric size in one mode; returns the report and the wall time.
pub fn run_at(n_proxies: usize, cooperative: bool, total_requests: usize) -> (ClusterReport, f64) {
    let requests = requests_per_proxy(n_proxies, total_requests);
    let warmup = requests / 5;
    let base = workload(n_proxies, ProxyPolicy::Adaptive);
    let config = ClusterConfig {
        topology: scaled_mesh(n_proxies),
        workload: if cooperative {
            Workload::Cooperative(CooperativeWorkload {
                base,
                coop: CoopConfig {
                    placement: PlacementPolicy::LoadAware {
                        divergence: 0.05,
                        step: 4,
                        min_vnodes: 8,
                    },
                    digest: DigestConfig { epoch: 2.0, bits_per_entry: 10, hashes: 4 },
                    ..CoopConfig::default()
                },
            })
        } else {
            Workload::Adaptive(base)
        },
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
    out.push_str("# E15 — cluster scale sweep (indexed event scheduler)\n");
    out.push_str("# peer meshes at 64/128/256 proxies; every link its own PS queue\n");
    out.push_str(&format!("# total request budget per run: {total_requests}\n\n"));

    let mut sweep = Table::new(
        "Adaptive vs cooperative at scale (equal total requests per run)",
        &["proxies", "links", "mode", "hit ratio", "t mean", "backbone B/req", "peer%", "epochs"],
    );
    for &n in &SIZES {
        for coop_on in [false, true] {
            let (r, wall) = run_at(n, coop_on, total_requests);
            let requests_total: u64 = (requests_per_proxy(n, total_requests) * n) as u64;
            let mode = if coop_on { "cooperative" } else { "adaptive" };
            // Wall-clock throughput goes to stderr: the stdout report is
            // seeded and must be byte-identical run to run (the repo's
            // determinism invariant); timing never can be.
            eprintln!(
                "e15: {n} proxies, {mode}: {wall:.2}s wall ({:.1} kreq/s)",
                requests_total as f64 / wall / 1e3
            );
            let hit = r.nodes.iter().map(|node| node.hit_ratio).sum::<f64>() / r.nodes.len() as f64;
            let peer_share = match &r.coop {
                Some(c) => {
                    let backbone_jobs = r.link("backbone").map_or(0, |l| l.jobs_completed);
                    100.0 * c.peer_fetches as f64 / (c.peer_fetches + backbone_jobs).max(1) as f64
                }
                None => 0.0,
            };
            sweep.row(vec![
                n.to_string(),
                r.links.len().to_string(),
                mode.to_string(),
                f(hit, 3),
                f(r.mean_access_time, 5),
                f(r.link_bytes("backbone") / requests_total as f64, 3),
                f(peer_share, 1),
                r.coop.map_or("-".into(), |c| c.router.digest_epochs.to_string()),
            ]);
        }
    }
    out.push_str(&sweep.render());

    out.push_str(
        "\nReading: the event loop now scales to fabrics two orders of magnitude\n\
         beyond the 3-proxy deployments of E13/E14 -- a 256-proxy mesh is\n\
         ~32k queueing links, and per-event cost stays logarithmic in all of\n\
         them. Cooperation keeps shedding backbone bytes at every size: with\n\
         identical hot sets behind every proxy the digests turn redundant\n\
         origin fetches into peer fetches, while the load-aware placement\n\
         and grid-pinned digest epochs behave identically at 256 proxies as\n\
         at 3 (same code, same timers, bigger key space).\n",
    );
    Rendered::text(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_all_sections() {
        let report = render(Size::Smoke).report;
        assert!(report.contains("scale sweep"));
        assert!(report.contains("Adaptive vs cooperative at scale"));
        assert!(report.contains("256"));
        assert!(report.contains("cooperative"));
    }

    #[test]
    fn cooperation_still_relieves_the_backbone_at_64_proxies() {
        let (adaptive, _) = run_at(64, false, SMOKE_TOTAL_REQUESTS);
        let (coop, _) = run_at(64, true, SMOKE_TOTAL_REQUESTS);
        assert!(
            coop.link_bytes("backbone") < adaptive.link_bytes("backbone"),
            "coop backbone {} vs adaptive {}",
            coop.link_bytes("backbone"),
            adaptive.link_bytes("backbone")
        );
        let c = coop.coop.expect("coop counters");
        assert!(c.peer_fetches > 0);
        assert!(c.router.digest_epochs > 0);
    }
}
