//! E20 — delayed hits: the MSHR table's coalescing win and the
//! aggregate-delay ranking inversion.
//!
//! At backbone latencies a miss's fetch window spans many later requests,
//! so "miss" stops being a binary: requests for in-flight keys are
//! **delayed hits** that ride the outstanding fetch (Atre et al., SIGCOMM
//! 2020). This experiment sweeps fetch latency × offered load over an
//! adaptive proxy mesh and, per cell, runs three configurations of the
//! same workload at the same seed:
//!
//! * **independent** — every miss fetches from the origin
//!   (`DelayedHitsConfig { coalesce: false }`), the pre-MSHR baseline;
//! * **coalescing** — misses on in-flight keys join the entry's FIFO
//!   waiter queue (the default table);
//! * **ranked** — coalescing plus aggregate-delay eviction: keys are
//!   valued by the total waiting their fetches have caused, so the cache
//!   keeps the keys whose absence hurts most, not the most recent ones.
//!
//! The report shows the two headline effects the acceptance criteria pin:
//!
//! 1. **Coalescing win** — at high fetch latency and equal load, the
//!    coalescing table launches *strictly fewer* origin fetches than the
//!    independent baseline (each waiter join is a transfer avoided);
//! 2. **Ranking inversion** — aggregate-delay eviction beats plain
//!    recency on mean access time once fetch windows are long enough for
//!    delayed hits to dominate; below the crossover, recency wins the
//!    cell and the gain column goes negative. The sign flip along the
//!    latency axis is the inversion.
//!
//! Everything on stdout is virtual-time deterministic; the same cells
//! land in the `e20_delayed` section of `OBS_cluster.json` for the
//! regression sentinel.

use crate::experiments::{Rendered, Size};
use crate::report::{f, Table};
use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterReport, ClusterSim, DelayedHitsConfig,
    ProxyPolicy, RankingMode, Topology, Workload,
};
use simcore::Json;
use workload::synth_web::SynthWebConfig;

const SEED: u64 = 20;

/// Base per-proxy request rate; cells scale it by their load factor.
const LAMBDA: f64 = 24.0;

/// Fetch-latency sweep (seconds of propagation on every link). The last
/// value is the **pinned cell** the win assertions run against.
pub const LATENCIES: [f64; 3] = [0.01, 0.16, 1.28];

/// Offered-load sweep (multiplier on the base per-proxy rate).
pub const LOADS: [f64; 2] = [1.0, 1.25];

/// Full sweep: 8 proxies, 4 shards, 3 latencies × 2 loads.
const FULL: (usize, usize, usize) = (8, 4, 24_000);

/// Reduced CI sweep (`--smoke`): 4 proxies at 2 shards — still through
/// the windowed driver, still covering the full grid.
const SMOKE: (usize, usize, usize) = (4, 2, 6_000);

/// The adaptive mesh one cell simulates: a slow, latency-bearing backbone
/// shared by heterogeneous proxies, item universes small enough that
/// fetch windows overlap repeat requests.
pub fn config(
    n_proxies: usize,
    total_requests: usize,
    latency: f64,
    load: f64,
    delayed: DelayedHitsConfig,
) -> ClusterConfig<'static> {
    let requests = (total_requests / n_proxies).max(60);
    ClusterConfig {
        topology: Topology::mesh_with_latency(
            n_proxies,
            60.0,
            20.0 * n_proxies as f64,
            45.0,
            latency,
        ),
        workload: Workload::Adaptive(AdaptiveWorkload {
            proxies: (0..n_proxies)
                .map(|i| SynthWebConfig {
                    lambda: load * (LAMBDA + 4.0 * (i % 4) as f64),
                    n_items: 160,
                    link_skew: 0.3,
                    ..SynthWebConfig::default()
                })
                .collect(),
            cache_capacity: 24,
            cache_bytes: None,
            max_candidates: 3,
            prefetch_jitter: 0.01,
            policy: ProxyPolicy::Adaptive,
            predictor: CandidateSource::Oracle,
            shared_structure_seed: None,
            delayed,
        }),
        requests_per_proxy: requests,
        warmup_per_proxy: requests / 5,
    }
}

/// One sweep cell: the three configurations' reports at equal seed/load.
pub struct Cell {
    pub latency: f64,
    pub load: f64,
    pub independent: ClusterReport,
    pub coalescing: ClusterReport,
    pub ranked: ClusterReport,
}

impl Cell {
    pub fn run(n_proxies: usize, shards: usize, total: usize, latency: f64, load: f64) -> Cell {
        let run = |delayed: DelayedHitsConfig| {
            let config = config(n_proxies, total, latency, load, delayed);
            ClusterSim::new(&config).run_sharded(SEED, shards)
        };
        Cell {
            latency,
            load,
            independent: run(DelayedHitsConfig { coalesce: false, ..Default::default() }),
            coalescing: run(DelayedHitsConfig::default()),
            ranked: run(DelayedHitsConfig {
                ranking: RankingMode::AggregateDelay,
                ..Default::default()
            }),
        }
    }

    /// Origin fetches the coalescing table avoided, as a fraction of the
    /// independent baseline's.
    pub fn fetches_saved(&self) -> f64 {
        let base = self.independent.origin_fetches();
        if base == 0 {
            return 0.0;
        }
        1.0 - self.coalescing.origin_fetches() as f64 / base as f64
    }

    /// Mean-access-time advantage of aggregate-delay ranking over recency
    /// (positive = ranking wins).
    pub fn ranking_gain(&self) -> f64 {
        let recency = self.coalescing.mean_access_time;
        if recency == 0.0 {
            return 0.0;
        }
        1.0 - self.ranked.mean_access_time / recency
    }
}

/// Runs the full latency × load grid.
pub fn run_grid(n_proxies: usize, shards: usize, total: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &latency in &LATENCIES {
        for &load in &LOADS {
            cells.push(Cell::run(n_proxies, shards, total, latency, load));
        }
    }
    cells
}

fn pct(x: f64) -> String {
    format!("{:+.1}%", 100.0 * x)
}

/// Runs one sweep at `size`; returns the report text and the
/// `e20_delayed` artifact section.
pub fn render(size: Size) -> Rendered {
    let (n_proxies, shards, total) = size.pick(FULL, SMOKE);
    let t0 = std::time::Instant::now();
    let cells = run_grid(n_proxies, shards, total);

    let mut out = String::new();
    out.push_str("# E20 — delayed hits: MSHR coalescing and aggregate-delay ranking\n");
    out.push_str(&format!(
        "# {n_proxies}-proxy adaptive mesh, {shards} shard(s), {} requests/proxy per run\n\
         # per cell, three runs at equal seed and load: independent misses,\n\
         # coalescing MSHR table, coalescing + aggregate-delay eviction\n\n",
        (total / n_proxies).max(60)
    ));

    let mut coalesce_table = Table::new(
        "Coalescing win (origin fetches avoided by the MSHR table)",
        &[
            "latency",
            "load",
            "fetch indep",
            "fetch mshr",
            "saved",
            "coalesced",
            "delayed hits",
            "waiter depth",
            "residual wait",
        ],
    );
    for c in &cells {
        coalesce_table.row(vec![
            f(c.latency, 3),
            f(c.load, 2),
            c.independent.origin_fetches().to_string(),
            c.coalescing.origin_fetches().to_string(),
            pct(c.fetches_saved()),
            c.coalescing.coalesced_requests().to_string(),
            c.coalescing.delayed_hits().to_string(),
            c.coalescing.mean_waiter_depth().map_or("-".into(), |d| f(d, 3)),
            c.coalescing.mean_residual_wait().map_or("-".into(), |w| f(w, 5)),
        ]);
    }
    out.push_str(&coalesce_table.render());

    let mut ranking_table = Table::new(
        "Ranking inversion (mean access time: recency vs aggregate delay)",
        &["latency", "load", "t̄ recency", "t̄ agg-delay", "gain", "t̄ independent"],
    );
    for c in &cells {
        ranking_table.row(vec![
            f(c.latency, 3),
            f(c.load, 2),
            f(c.coalescing.mean_access_time, 5),
            f(c.ranked.mean_access_time, 5),
            pct(c.ranking_gain()),
            f(c.independent.mean_access_time, 5),
        ]);
    }
    out.push('\n');
    out.push_str(&ranking_table.render());

    let pinned = pinned_cell(&cells);
    out.push_str(&format!(
        "\nPinned cell (latency {}, load {}): coalescing launches {} origin\n\
         fetches against the baseline's {} ({} saved) and settles {} delayed\n\
         hits; aggregate-delay eviction moves t̄ {} → {} ({}). The coalescing\n\
         win only grows with latency (queueing keeps fetch windows open even\n\
         at the lowest cell), but the ranking gain changes sign: below the\n\
         crossover recency wins, past it the keys whose absence costs the\n\
         most waiting are the ones worth keeping.\n",
        f(pinned.latency, 3),
        f(pinned.load, 2),
        pinned.coalescing.origin_fetches(),
        pinned.independent.origin_fetches(),
        pct(pinned.fetches_saved()),
        pinned.coalescing.delayed_hits(),
        f(pinned.coalescing.mean_access_time, 5),
        f(pinned.ranked.mean_access_time, 5),
        pct(pinned.ranking_gain()),
    ));

    // Wall-clock telemetry stays off stdout, as in E17–E19.
    eprintln!(
        "e20: {} cells × 3 runs on {n_proxies} proxies, {shards} shard(s): {:.2}s wall",
        cells.len(),
        t0.elapsed().as_secs_f64()
    );

    Rendered { report: out, section: Some(section(&cells, n_proxies, shards)), files: Vec::new() }
}

/// The high-latency, base-load cell the win assertions pin.
pub fn pinned_cell(cells: &[Cell]) -> &Cell {
    cells
        .iter()
        .find(|c| c.latency == LATENCIES[LATENCIES.len() - 1] && c.load == LOADS[0])
        .expect("the pinned cell is part of the grid")
}

fn cell_json(c: &Cell) -> Json {
    Json::obj()
        .set("latency", Json::num(c.latency))
        .set("load", Json::num(c.load))
        .set("origin_fetches_independent", Json::num(c.independent.origin_fetches() as f64))
        .set("origin_fetches_coalescing", Json::num(c.coalescing.origin_fetches() as f64))
        .set("coalesced_requests", Json::num(c.coalescing.coalesced_requests() as f64))
        .set("delayed_hits", Json::num(c.coalescing.delayed_hits() as f64))
        .set("mean_waiter_depth", Json::num(c.coalescing.mean_waiter_depth().unwrap_or(0.0)))
        .set("mean_residual_wait", Json::num(c.coalescing.mean_residual_wait().unwrap_or(0.0)))
        .set("mean_access_time_recency", Json::num(c.coalescing.mean_access_time))
        .set("mean_access_time_ranked", Json::num(c.ranked.mean_access_time))
        .set("mean_access_time_independent", Json::num(c.independent.mean_access_time))
}

/// The machine-readable `e20_delayed` section: the sweep cells plus the
/// two headline booleans the schema check gates on.
pub fn section(cells: &[Cell], n_proxies: usize, shards: usize) -> Json {
    let pinned = pinned_cell(cells);
    Json::obj()
        .set("experiment", Json::str("e20_delayed"))
        .set("n_proxies", Json::num(n_proxies as f64))
        .set("shards", Json::num(shards as f64))
        .set("cells", Json::arr(cells.iter().map(cell_json)))
        .set(
            "coalescing_win",
            Json::Bool(
                pinned.coalescing.origin_fetches() < pinned.independent.origin_fetches()
                    && pinned.coalescing.delayed_hits() > 0,
            ),
        )
        .set("ranking_win", Json::Bool(pinned.ranking_gain() > 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;

    fn num(node: &Json, key: &str) -> f64 {
        node.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("{key}: not a number"))
    }

    /// The pinned cell of the shared smoke run shows both wins; the
    /// section's booleans say so too.
    #[test]
    fn smoke_pins_both_wins() {
        let section = smoke("delayed").section.as_ref().expect("E20 writes a section");
        let cells = section.get("cells").and_then(Json::as_arr).expect("cells");
        assert_eq!(cells.len(), LATENCIES.len() * LOADS.len());
        let pinned = cells
            .iter()
            .find(|c| {
                num(c, "latency") == LATENCIES[LATENCIES.len() - 1] && num(c, "load") == LOADS[0]
            })
            .expect("the pinned cell is part of the grid");
        assert!(
            num(pinned, "coalesced_requests") > 0.0,
            "the pinned cell no longer exercises coalescing"
        );
        assert!(
            num(pinned, "origin_fetches_coalescing") < num(pinned, "origin_fetches_independent"),
            "coalescing must launch strictly fewer origin fetches: {} vs {}",
            num(pinned, "origin_fetches_coalescing"),
            num(pinned, "origin_fetches_independent")
        );
        assert!(
            num(pinned, "mean_access_time_ranked") < num(pinned, "mean_access_time_recency"),
            "aggregate-delay ranking must beat recency in the pinned cell: {} vs {}",
            num(pinned, "mean_access_time_ranked"),
            num(pinned, "mean_access_time_recency")
        );
        assert_eq!(section.get("coalescing_win"), Some(&Json::Bool(true)));
        assert_eq!(section.get("ranking_win"), Some(&Json::Bool(true)));
    }

    /// A second render in the same process repeats the shared one.
    #[test]
    fn smoke_report_is_deterministic() {
        assert_eq!(render(Size::Smoke).report, smoke("delayed").report);
    }
}
