//! E22 — chaos under prefetching: deterministic fault injection on the
//! cooperative mesh, sweeping link-failure intensity × prefetch
//! aggressiveness, with and without the timeout–retry–backoff policy.
//!
//! The sweep runs every `(loss, policy)` cell twice through
//! [`ClusterSim::run_faulted`]: once under the default [`RetryPolicy`]
//! (4 attempts, capped exponential backoff with deterministic jitter) and
//! once under [`RetryPolicy::no_retries`]. Three phenomena are pinned:
//!
//! * **Graceful degradation** — with retries, availability falls
//!   smoothly as loss rises; without them, every lost first attempt is a
//!   failed request and the mesh collapses at moderate loss.
//! * **Prefetch amplification** — speculative fetches get exactly one
//!   attempt (a prefetch is never worth a retry budget), and demand
//!   requests that coalesce onto an in-flight prefetch inherit its fate.
//!   Aggressive prefetching therefore *widens* the failure surface: the
//!   more demand rides on speculative transfers, the more of the retry
//!   policy's protection is bypassed. This is the paper's network-load
//!   trade-off with a failure axis attached.
//! * **Ledger conservation** — under every fault mix the MSHR law
//!   `origin_fetches + coalesced + failed == demand_misses` holds on
//!   every node ([`ClusterReport::mshr_conservation_ok`]).
//!
//! A separate **chaos showcase** runs the full fault repertoire — link
//! flaps, a lossy degrade, an origin brownout and blackout, a proxy
//! crash, a digest loss — on one mesh and reports the recovery counters
//! (wiped entries, failovers, forced snapshot refreshes).
//!
//! Headline booleans gating the schema check:
//!
//! * `zero_fault_identical` — the loss-0 sweep column, run through the
//!   whole fault-aware machinery, is **bit-identical** (derived
//!   `PartialEq`) to the plain sharded run for every policy;
//! * `graceful_with_retries` — retries never hurt availability, and at
//!   the heaviest loss they materially beat no-retries;
//! * `collapse_without_retries` — at the heaviest loss the no-retries
//!   mesh loses a large fraction of its requests;
//! * `mshr_conservation_ok` — the conservation law held on every run.

use crate::experiments::{Rendered, Size};
use crate::report::{f, Table};
use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterReport, ClusterSim,
    CooperativeWorkload, DelayedHitsConfig, ProxyPolicy, Topology, Workload,
};
use coop::{CoopConfig, DigestConfig, PlacementPolicy, RefreshStrategy};
use simcore::faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
use simcore::Json;
use workload::synth_web::SynthWebConfig;

const SEED: u64 = 22;

/// Uniform per-link packet-loss intensities the sweep visits. 0 is the
/// bit-identity pin; the last entry is the collapse regime.
pub const LOSSES: [f64; 4] = [0.0, 0.1, 0.25, 0.4];

/// Prefetch aggressiveness axis: none, the paper's adaptive threshold,
/// and an eager low fixed threshold.
pub const POLICIES: [(&str, ProxyPolicy); 3] = [
    ("none", ProxyPolicy::NoPrefetch),
    ("adaptive", ProxyPolicy::Adaptive),
    ("eager", ProxyPolicy::FixedThreshold(0.05)),
];

/// Full sweep: an 8-proxy mesh, 2 shards (windowed driver), 1600
/// requests per proxy.
const FULL: (usize, usize, usize) = (8, 2, 1_600);

/// Reduced CI sweep (`--smoke`): 4 proxies, 2 shards, 400 per proxy.
const SMOKE: (usize, usize, usize) = (4, 2, 400);

/// The same latency mesh shape as E21: backbone bandwidth scales with
/// the proxy count so its per-proxy share stays constant.
fn mesh(n_proxies: usize) -> Topology {
    Topology::mesh_with_latency(n_proxies, 60.0, 20.0 * n_proxies as f64, 45.0, 0.05)
}

fn config(n: usize, policy: ProxyPolicy, requests: usize) -> ClusterConfig<'static> {
    ClusterConfig {
        topology: mesh(n),
        workload: Workload::Cooperative(CooperativeWorkload {
            base: AdaptiveWorkload {
                proxies: (0..n)
                    .map(|i| SynthWebConfig {
                        lambda: 12.0 + 2.0 * (i % 3) as f64,
                        link_skew: 0.3,
                        ..SynthWebConfig::default()
                    })
                    .collect(),
                cache_capacity: 48,
                cache_bytes: None,
                max_candidates: 3,
                prefetch_jitter: 0.01,
                policy,
                predictor: CandidateSource::Oracle,
                shared_structure_seed: Some(SEED),
                delayed: DelayedHitsConfig::default(),
            },
            coop: CoopConfig {
                placement: PlacementPolicy::LoadAware { divergence: 0.05, step: 4, min_vnodes: 8 },
                digest: DigestConfig { epoch: 2.0, bits_per_entry: 10, hashes: 4 },
                refresh: RefreshStrategy::Deltas,
                ..CoopConfig::default()
            },
        }),
        requests_per_proxy: requests,
        warmup_per_proxy: requests / 5,
    }
}

/// Every link degraded to `loss` from t = 0 — a steady uniformly lossy
/// fabric, the cleanest signal for the sweep axes.
fn lossy_plan(topology: &Topology, loss: f64) -> FaultPlan {
    if loss <= 0.0 {
        return FaultPlan::empty();
    }
    FaultPlan::new(
        (0..topology.links().len())
            .map(|l| FaultEvent {
                t: 0.0,
                kind: FaultKind::LinkDegrade { link: l, loss, latency_factor: 1.0 },
            })
            .collect(),
    )
}

/// The showcase plan: every fault kind fires once mid-run. The downed
/// link is `peer[0-1]` (link `1 + n`: backbone is 0, access links are
/// 1..=n), so peer-destined fetches hit the dark-route failover path.
fn showcase_plan(n_proxies: usize) -> FaultPlan {
    let peer01 = 1 + n_proxies;
    FaultPlan::new(vec![
        FaultEvent {
            t: 4.0,
            kind: FaultKind::LinkDegrade { link: 0, loss: 0.3, latency_factor: 2.0 },
        },
        FaultEvent { t: 8.0, kind: FaultKind::LinkDown { link: peer01 } },
        FaultEvent { t: 12.0, kind: FaultKind::LinkUp { link: peer01 } },
        FaultEvent { t: 14.0, kind: FaultKind::OriginBrownout { delay: 0.3 } },
        FaultEvent { t: 18.0, kind: FaultKind::ProxyCrash { proxy: 1 } },
        FaultEvent { t: 22.0, kind: FaultKind::DigestLoss { proxy: 2 } },
        FaultEvent { t: 26.0, kind: FaultKind::OriginBlackout },
        FaultEvent { t: 29.0, kind: FaultKind::OriginRestore },
        FaultEvent { t: 32.0, kind: FaultKind::LinkUp { link: 0 } },
    ])
}

/// Request-weighted mean user-perceived access time over all proxies.
fn mean_access(report: &ClusterReport) -> f64 {
    let total: u64 = report.nodes.iter().map(|n| n.measured_requests).sum();
    if total == 0 {
        return 0.0;
    }
    report.nodes.iter().map(|n| n.mean_access_time * n.measured_requests as f64).sum::<f64>()
        / total as f64
}

fn sum(report: &ClusterReport, get: impl Fn(&cluster::NodeReport) -> u64) -> u64 {
    report.nodes.iter().map(get).sum()
}

/// One sweep cell: a `(loss, policy)` pair run with and without retries.
pub struct Cell {
    pub loss: f64,
    pub policy: &'static str,
    pub with_retries: ClusterReport,
    pub no_retries: ClusterReport,
}

impl Cell {
    pub fn availability(&self) -> f64 {
        1.0 - self.with_retries.unavailability()
    }
    pub fn availability_no_retries(&self) -> f64 {
        1.0 - self.no_retries.unavailability()
    }
}

/// The chaos showcase run and its recovery counters.
pub struct Showcase {
    pub report: ClusterReport,
    pub lost_entries: u64,
    pub failovers: u64,
    pub snapshot_flushes: u64,
}

pub struct Outcome {
    pub n_proxies: usize,
    pub shards: usize,
    pub cells: Vec<Cell>,
    pub showcase: Showcase,
    /// Loss-0 faulted runs matched the plain sharded run, per policy.
    pub zero_fault_identical: bool,
}

impl Outcome {
    fn max_loss_cells(&self) -> impl Iterator<Item = &Cell> {
        let max = LOSSES[LOSSES.len() - 1];
        self.cells.iter().filter(move |c| c.loss == max)
    }

    /// Retries never reduce availability anywhere, and at the heaviest
    /// loss they beat no-retries by a material margin on every policy.
    pub fn graceful_with_retries(&self) -> bool {
        let never_worse =
            self.cells.iter().all(|c| c.availability() >= c.availability_no_retries() - 1e-12);
        let material_at_max =
            self.max_loss_cells().all(|c| c.availability() >= c.availability_no_retries() + 0.02);
        never_worse && material_at_max
    }

    /// At the heaviest loss, the no-retries mesh drops a large share of
    /// its requests on every policy.
    pub fn collapse_without_retries(&self) -> bool {
        self.max_loss_cells().all(|c| c.no_retries.unavailability() > 0.15)
    }

    /// The MSHR conservation law held on every run of the sweep and the
    /// showcase.
    pub fn mshr_conservation_ok(&self) -> bool {
        self.cells
            .iter()
            .flat_map(|c| [&c.with_retries, &c.no_retries])
            .chain([&self.showcase.report])
            .all(ClusterReport::mshr_conservation_ok)
    }

    /// Availability lost to prefetch aggressiveness at the heaviest loss
    /// (retried runs): `availability(none) − availability(eager)`. The
    /// amplification phenomenon, as a number.
    pub fn prefetch_amplification(&self) -> f64 {
        let avail = |name: &str| {
            self.max_loss_cells().find(|c| c.policy == name).map_or(0.0, Cell::availability)
        };
        avail("none") - avail("eager")
    }
}

/// Runs the sweep plus the showcase.
pub fn run(n: usize, shards: usize, requests: usize) -> Outcome {
    let mut cells = Vec::new();
    let mut zero_fault_identical = true;
    for (name, policy) in POLICIES {
        let cfg = config(n, policy, requests);
        let sim = ClusterSim::new(&cfg);
        let plain = sim.run_sharded(SEED, shards);
        for loss in LOSSES {
            let plan = lossy_plan(&cfg.topology, loss);
            let with_retries = FaultConfig { plan: plan.clone(), retry: RetryPolicy::default() };
            let no_retries = FaultConfig { plan, retry: RetryPolicy::no_retries(1.0) };
            let cell = Cell {
                loss,
                policy: name,
                with_retries: sim.run_faulted(SEED, shards, &with_retries),
                no_retries: sim.run_faulted(SEED, shards, &no_retries),
            };
            if loss == 0.0 {
                zero_fault_identical &= cell.with_retries == plain && cell.no_retries == plain;
            }
            cells.push(cell);
        }
    }

    let cfg = config(n, ProxyPolicy::Adaptive, requests);
    let fc = FaultConfig { plan: showcase_plan(n), retry: RetryPolicy::default() };
    let report = ClusterSim::new(&cfg).run_faulted(SEED, shards, &fc);
    let coop = report.coop.as_ref().expect("cooperative run");
    let showcase = Showcase {
        lost_entries: sum(&report, |p| p.lost_entries),
        failovers: sum(&report, |p| p.failovers),
        snapshot_flushes: coop.router.snapshot_flushes,
        report,
    };

    Outcome { n_proxies: n, shards, cells, showcase, zero_fault_identical }
}

/// Runs one sweep at `size`; returns the report text and the `e22_chaos`
/// artifact section.
pub fn render(size: Size) -> Rendered {
    let (n, shards, requests) = size.pick(FULL, SMOKE);
    let t0 = std::time::Instant::now();
    let outcome = run(n, shards, requests);

    let mut out = String::new();
    out.push_str("# E22 — chaos under prefetching: faults, retries, degradation\n");
    out.push_str(&format!(
        "# {n}-proxy cooperative mesh, {shards} shard(s), {requests} requests/proxy;\n\
         # uniform link loss x prefetch policy, each cell with the default\n\
         # retry policy (4 attempts, capped exponential backoff) and with\n\
         # no retries (1 attempt, fail on first timeout)\n\n"
    ));

    let mut table = Table::new(
        "Availability under uniform link loss (retries vs no retries)",
        &[
            "policy",
            "loss",
            "avail (retries)",
            "avail (none)",
            "t-bar",
            "retries",
            "timeouts",
            "failed",
        ],
    );
    for c in &outcome.cells {
        table.row(vec![
            c.policy.to_string(),
            f(c.loss, 2),
            f(c.availability(), 4),
            f(c.availability_no_retries(), 4),
            f(mean_access(&c.with_retries), 4),
            c.with_retries.retries().to_string(),
            sum(&c.with_retries, |p| p.timeouts).to_string(),
            c.with_retries.failed_fetches().to_string(),
        ]);
    }
    out.push_str(&table.render());

    let s = &outcome.showcase;
    out.push_str(&format!(
        "\nChaos showcase (flaps + degrade + brownout + blackout + crash +\n\
         digest loss, retries on): availability {}, {} cache entries wiped\n\
         by the crash, {} failovers to the origin, {} forced snapshot\n\
         refresh(es) under the pure-deltas strategy.\n",
        f(1.0 - s.report.unavailability(), 4),
        s.lost_entries,
        s.failovers,
        s.snapshot_flushes,
    ));
    out.push_str(&format!(
        "\nZero-fault runs bit-identical to the plain engine: {}. Graceful\n\
         degradation with retries: {}. Collapse without: {}. MSHR\n\
         conservation (origin + coalesced + failed == misses) everywhere:\n\
         {}. Prefetch amplification at loss {}: eager prefetching costs\n\
         {} availability vs no prefetching — speculative fetches get one\n\
         attempt, so demand coalescing onto them bypasses the retry budget.\n",
        outcome.zero_fault_identical,
        outcome.graceful_with_retries(),
        outcome.collapse_without_retries(),
        outcome.mshr_conservation_ok(),
        f(LOSSES[LOSSES.len() - 1], 2),
        f(outcome.prefetch_amplification(), 4),
    ));

    eprintln!("e22: total {:.2}s wall", t0.elapsed().as_secs_f64());

    Rendered { report: out, section: Some(section(&outcome)), files: Vec::new() }
}

fn cell_json(c: &Cell) -> Json {
    Json::obj()
        .set("policy", Json::str(c.policy))
        .set("loss", Json::num(c.loss))
        .set("availability", Json::num(c.availability()))
        .set("availability_no_retries", Json::num(c.availability_no_retries()))
        .set("mean_access_time", Json::num(mean_access(&c.with_retries)))
        .set("retries", Json::num(c.with_retries.retries() as f64))
        .set("timeouts", Json::num(sum(&c.with_retries, |p| p.timeouts) as f64))
        .set("failed_fetches", Json::num(c.with_retries.failed_fetches() as f64))
}

/// The machine-readable `e22_chaos` section: one row per sweep cell, the
/// showcase counters, and the headline booleans the schema check gates
/// on.
pub fn section(outcome: &Outcome) -> Json {
    let s = &outcome.showcase;
    Json::obj()
        .set("experiment", Json::str("e22_chaos"))
        .set("n_proxies", Json::num(outcome.n_proxies as f64))
        .set("shards", Json::num(outcome.shards as f64))
        .set("cells", Json::arr(outcome.cells.iter().map(cell_json)))
        .set(
            "showcase",
            Json::obj()
                .set("availability", Json::num(1.0 - s.report.unavailability()))
                .set("lost_entries", Json::num(s.lost_entries as f64))
                .set("failovers", Json::num(s.failovers as f64))
                .set("snapshot_flushes", Json::num(s.snapshot_flushes as f64)),
        )
        .set("prefetch_amplification", Json::num(outcome.prefetch_amplification()))
        .set("zero_fault_identical", Json::Bool(outcome.zero_fault_identical))
        .set("graceful_with_retries", Json::Bool(outcome.graceful_with_retries()))
        .set("collapse_without_retries", Json::Bool(outcome.collapse_without_retries()))
        .set("mshr_conservation_ok", Json::Bool(outcome.mshr_conservation_ok()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_pins_the_headline_booleans() {
        let (n, shards, requests) = SMOKE;
        let outcome = run(n, shards, requests);
        assert!(
            outcome.zero_fault_identical,
            "loss-0 faulted runs must be bit-identical to the plain engine"
        );
        assert!(outcome.graceful_with_retries(), "retries must degrade gracefully");
        assert!(outcome.collapse_without_retries(), "no-retries must collapse at max loss");
        assert!(outcome.mshr_conservation_ok(), "MSHR conservation law violated");
        assert!(outcome.showcase.lost_entries > 0, "the showcase crash wiped nothing");
        assert!(outcome.showcase.snapshot_flushes >= 1, "no forced snapshot after the crash");
        let section = section(&outcome);
        for key in [
            "zero_fault_identical",
            "graceful_with_retries",
            "collapse_without_retries",
            "mshr_conservation_ok",
        ] {
            assert_eq!(section.get(key), Some(&Json::Bool(true)), "{key}");
        }
        assert_eq!(
            section.get("cells").and_then(Json::as_arr).map(<[Json]>::len),
            Some(LOSSES.len() * POLICIES.len())
        );
    }

    #[test]
    fn smoke_report_is_deterministic() {
        assert_eq!(render(Size::Smoke).report, render(Size::Smoke).report);
    }
}
