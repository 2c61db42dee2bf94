//! E17 — strong scaling of the sharded parallel cluster engine.
//!
//! E15 made wide fabrics affordable by replacing the per-event scan with
//! the indexed scheduler; the event loop itself was still one core. This
//! experiment drives the same cooperative mesh through the **sharded**
//! driver (`ClusterSim::run_sharded`): the topology is partitioned into
//! per-thread shards, each running its own scheduler, synchronised with
//! conservative time windows whose lookahead is the mesh's link
//! propagation latency (`Topology::mesh_with_latency` — the physically
//! honest WAN model, and the parallelism budget).
//!
//! Per fabric size the sweep runs every shard count and asserts the
//! reports are **bit-identical** — the determinism contract: sharding is
//! an executor choice, never a modelling choice. The stdout report
//! therefore carries only seeded, deterministic metrics (topology shape,
//! edge cut, lookahead, hit ratios, backbone load) and is byte-stable
//! run-to-run; wall-clock timings and the strong-scaling speedup go to
//! stderr, where the machine's core count decides what they look like.
//! The 512-proxy point (~131k PS links) is the fabric the single-threaded
//! sweeps never attempted.

use crate::experiments::e18_obs::{config, LATENCY};
use crate::experiments::{Rendered, Size};
use crate::report::{f, Table};
use cluster::{ClusterReport, ClusterSim, ShardPlan};
use simcore::Json;
use std::time::Instant;

const SEED: u64 = 17;

/// Fabric sizes of the full sweep: the E15 ceiling, and the point past
/// it that the single-threaded driver made impractical.
const SIZES: [usize; 2] = [256, 512];

/// Shard counts of the strong-scaling ladder.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Total requests across the cluster at full size.
const TOTAL_REQUESTS: usize = 96_000;

/// Reduced sweep for the CI smoke invocation (`--smoke`): one modest
/// fabric, shards ∈ {1, 2}, so the parallel path is exercised on every
/// push without dominating the pipeline.
const SMOKE_SIZES: [usize; 1] = [96];
const SMOKE_SHARD_COUNTS: [usize; 2] = [1, 2];
const SMOKE_TOTAL_REQUESTS: usize = 12_000;

/// Runs one fabric at one shard count; returns the report and wall time.
pub fn run_at(n_proxies: usize, shards: usize, total_requests: usize) -> (ClusterReport, f64) {
    let config = config(n_proxies, total_requests);
    let sim = ClusterSim::new(&config);
    let start = Instant::now();
    let report = if shards == 1 { sim.run(SEED) } else { sim.run_sharded(SEED, shards) };
    (report, start.elapsed().as_secs_f64())
}

/// The report at `size`, with the wall-clock ladder as structured rows
/// for the `e17_strong_scaling` section of `OBS_cluster.json` — the same
/// numbers the stderr lines carry, which is why stdout stays
/// byte-identical: timings never print there.
pub fn render(size: Size) -> Rendered {
    let (sizes, shard_counts, total_requests): (&[usize], &[usize], usize) = size.pick(
        (&SIZES, &SHARD_COUNTS, TOTAL_REQUESTS),
        (&SMOKE_SIZES, &SMOKE_SHARD_COUNTS, SMOKE_TOTAL_REQUESTS),
    );
    let mut rows: Vec<Json> = Vec::new();
    let mut out = String::new();
    out.push_str("# E17 — sharded parallel cluster engine (strong scaling)\n");
    out.push_str("# conservative time windows over per-shard event loops;\n");
    out.push_str(&format!(
        "# mesh link latency {LATENCY} (= the lookahead); total request budget per run: \
         {total_requests}\n\n"
    ));

    let mut sweep = Table::new(
        "Shard ladder per fabric (every row's report is bit-identical to shards=1)",
        &[
            "proxies",
            "links",
            "shards",
            "edge cut",
            "lookahead",
            "hit ratio",
            "t mean",
            "backbone B/req",
            "peer%",
            "epochs",
        ],
    );
    for &n in sizes {
        let config = config(n, total_requests);
        let topology = &config.topology;
        let requests_total = (config.requests_per_proxy * n) as u64;
        // Untimed warm-up: the first run at a new fabric size pays
        // allocator growth and page faults that later runs do not; timing
        // it as the 1-shard baseline would flatter every speedup ratio.
        let (_, warm_wall) = run_at(n, 1, total_requests);
        eprintln!("e17: {n} proxies, warm-up: {warm_wall:.2}s wall (discarded)");
        let mut baseline: Option<(ClusterReport, f64)> = None;
        for &shards in shard_counts {
            let (r, wall) = run_at(n, shards, total_requests);
            // Wall-clock goes to stderr and the JSON rows: stdout must be
            // byte-identical run to run (the repo's determinism invariant).
            let speedup = match &baseline {
                None => {
                    eprintln!(
                        "e17: {n} proxies, {shards} shard(s): {wall:.2}s wall \
                         ({:.1} kreq/s)",
                        requests_total as f64 / wall / 1e3
                    );
                    baseline = Some((r.clone(), wall));
                    None
                }
                Some((oracle, base_wall)) => {
                    eprintln!(
                        "e17: {n} proxies, {shards} shard(s): {wall:.2}s wall \
                         ({:.1} kreq/s, {:.2}x vs 1 shard)",
                        requests_total as f64 / wall / 1e3,
                        base_wall / wall
                    );
                    // The determinism contract, enforced on every cell.
                    assert_eq!(
                        &r, oracle,
                        "{n}-proxy mesh at {shards} shards diverged from the oracle"
                    );
                    Some(base_wall / wall)
                }
            };
            rows.push(
                Json::obj()
                    .set("proxies", Json::num(n as f64))
                    .set("links", Json::num(r.links.len() as f64))
                    .set("shards", Json::num(shards as f64))
                    .set("requests", Json::num(requests_total as f64))
                    .set("wall_secs", Json::num(wall))
                    .set("kreq_per_sec", Json::num(requests_total as f64 / wall / 1e3))
                    .set("speedup_vs_1shard", speedup.map_or(Json::Null, Json::num)),
            );
            let plan = ShardPlan::partition(topology, shards);
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
                shards.to_string(),
                plan.edge_cut(topology).to_string(),
                f(plan.lookahead(), 3),
                f(hit, 3),
                f(r.mean_access_time, 5),
                f(r.link_bytes("backbone") / requests_total as f64, 3),
                f(peer_share, 1),
                r.coop.as_ref().map_or("-".into(), |c| c.router.digest_epochs.to_string()),
            ]);
        }
    }
    out.push_str(&sweep.render());

    out.push_str(
        "\nReading: the shard ladder changes the executor, never the answer --\n\
         every row is asserted bit-identical to the single-threaded oracle\n\
         before it is printed, with real conservative windows (lookahead =\n\
         the mesh propagation latency) between barrier exchanges whenever\n\
         shards > 1. Speedup is printed to stderr because it is a property\n\
         of the machine (core count, thread scheduling), not of the model:\n\
         on a multi-core host the 256-proxy mesh is the regime where 8\n\
         shards pay off, and the 512-proxy point -- ~131k PS links, beyond\n\
         what the single-threaded sweeps attempted -- completes either way.\n\
         The edge cut is dominated by peer links between blocks (a full\n\
         mesh crosses a (k-1)/k share of them at k shards; access links\n\
         never cross), but cut *links* are not cut *traffic*: a window's\n\
         mailbox volume is proportional to the cross-shard transfers that\n\
         actually fire in it, bounded by the workload rate times the\n\
         lookahead, not by the topology's link count.\n",
    );
    let section = Json::obj()
        .set("experiment", Json::str("e17_shard"))
        .set("lookahead", Json::num(LATENCY))
        .set("total_requests", Json::num(total_requests as f64))
        .set("rows", Json::Arr(rows));
    Rendered { report: out, section: Some(section), files: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;

    #[test]
    fn render_smoke_contains_all_sections() {
        let report = &smoke("shard").report;
        assert!(report.contains("strong scaling"));
        assert!(report.contains("Shard ladder"));
        assert!(report.contains("bit-identical"));
    }

    #[test]
    fn e17_mesh_admits_a_positive_lookahead() {
        let topology = config(SMOKE_SIZES[0], SMOKE_TOTAL_REQUESTS).topology;
        for &shards in &SHARD_COUNTS {
            let plan = ShardPlan::partition(&topology, shards);
            if shards > 1 {
                assert_eq!(plan.lookahead(), LATENCY, "{shards} shards");
                assert!(plan.edge_cut(&topology) > 0);
            }
        }
    }
}
