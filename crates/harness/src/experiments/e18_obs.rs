//! E18 — the observability layer over a cooperative latency mesh.
//!
//! E17 proved the sharded driver changes the executor, never the answer;
//! this experiment turns the probes on and shows what the run *looked
//! like*: per-link utilization and queue-depth time-series sampled on the
//! digest-epoch grid, the request-latency histogram (p50/p90/p99), the
//! prefetch pipeline's counters, and the sharded driver's per-shard
//! profile (events, windows, mailbox occupancy, scheduler heap depth).
//! The same telemetry lands machine-readably in `OBS_cluster.json`
//! (section `e18_obs`) for the ROADMAP-3/5 work to consume.
//!
//! The dashboard on stdout carries only deterministic quantities — every
//! sample is virtual-time-gridded and the cluster's parity matrix pins
//! that attaching the probes never perturbs the report — so the report is
//! byte-stable run-to-run. Wall-clock telemetry (events/sec, preds/sec,
//! window-drain and barrier-wait profiles) is machine-dependent and goes
//! to stderr and the JSON artifact, exactly like E17's scaling numbers.

use crate::asciiplot::sparkline;
use crate::experiments::{Rendered, Size};
use crate::report::{f, Table};
use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterObs, ClusterReport, ClusterSim,
    CooperativeWorkload, ProxyPolicy, Topology, Workload, EVENT_CLASS_NAMES,
};
use coop::{CoopConfig, DigestConfig, PlacementPolicy};
use simcore::{Json, ObsConfig};
use workload::synth_web::SynthWebConfig;

const SEED: u64 = 18;
const LAMBDA: f64 = 14.0;

/// Propagation latency on every mesh link (seconds of virtual time) —
/// the conservative lookahead each window of E17's shard ladder runs on.
pub const LATENCY: f64 = 0.05;

/// Full sweep: the 64-proxy cooperative mesh at 4 shards.
const FULL: (usize, usize, usize) = (64, 4, 24_000);

/// Reduced CI sweep (`--smoke`): 16 proxies at 2 shards, still through
/// the windowed driver so the profiler columns are exercised.
const SMOKE: (usize, usize, usize) = (16, 2, 6_000);

/// Sparkline width of the dashboard's series column.
const SPARK_W: usize = 48;

/// The cooperative latency-mesh fabric E17 scales, E18 observes and E19
/// traces — shared so the shard ladder, the dashboard and the trace
/// attribution describe the same run family.
pub fn config(n_proxies: usize, total_requests: usize) -> ClusterConfig<'static> {
    let requests = (total_requests / n_proxies).max(60);
    ClusterConfig {
        topology: Topology::mesh_with_latency(
            n_proxies,
            50.0,
            25.0 * n_proxies as f64,
            45.0,
            LATENCY,
        ),
        workload: Workload::Cooperative(CooperativeWorkload {
            base: AdaptiveWorkload {
                proxies: (0..n_proxies)
                    .map(|_| SynthWebConfig {
                        lambda: LAMBDA,
                        link_skew: 0.3,
                        ..SynthWebConfig::default()
                    })
                    .collect(),
                cache_capacity: 48,
                cache_bytes: None,
                max_candidates: 3,
                prefetch_jitter: 0.01,
                policy: ProxyPolicy::Adaptive,
                predictor: CandidateSource::Oracle,
                shared_structure_seed: Some(99),
                delayed: Default::default(),
            },
            coop: CoopConfig {
                placement: PlacementPolicy::LoadAware { divergence: 0.05, step: 4, min_vnodes: 8 },
                digest: DigestConfig { epoch: 2.0, bits_per_entry: 10, hashes: 4 },
                ..CoopConfig::default()
            },
        }),
        requests_per_proxy: requests,
        warmup_per_proxy: requests / 5,
    }
}

/// The probe set E18 runs with: series on the digest-epoch grid, a
/// latency histogram sized for sub-second access times, and a flight
/// recorder deep enough to hold the closing window.
pub fn probes() -> ObsConfig {
    ObsConfig::on().with_flight_capacity(512)
}

/// One observed run at the given scale.
pub fn run_observed(n_proxies: usize, shards: usize, total: usize) -> (ClusterReport, ClusterObs) {
    let config = config(n_proxies, total);
    ClusterSim::new(&config).run_observed(SEED, shards, &probes())
}

/// Runs one observed sweep at `size` and renders the dashboard, with the
/// artifact section for `OBS_cluster.json`. Wall-clock telemetry goes to
/// stderr (stdout stays byte-stable).
pub fn render(size: Size) -> Rendered {
    dashboard(size, 0)
}

/// Like [`render`], but with span tracing on (the `--top-k` flag): the
/// dashboard gains E19's `k` slowest traces. Tracing is a pure observer
/// (the parity matrix in `cluster/tests/shard_parity.rs` pins the report
/// bit-identical either way), so every other section is unchanged.
pub fn render_top_k(size: Size, k: usize) -> Rendered {
    dashboard(size, k.max(1))
}

fn dashboard(size: Size, top_k: usize) -> Rendered {
    let (n_proxies, shards, total_requests) = size.pick(FULL, SMOKE);
    let cfg = config(n_proxies, total_requests);
    let mut probe_set = probes();
    if top_k > 0 {
        probe_set = probe_set.with_trace_every(1);
    }
    let (report, obs) = ClusterSim::new(&cfg).run_observed(SEED, shards, &probe_set);

    let mut out = String::new();
    out.push_str("# E18 — observability: the cluster run as telemetry\n");
    out.push_str(&format!(
        "# {n_proxies}-proxy cooperative mesh, {shards} shard(s) ({} driver), \
         link latency {LATENCY}\n",
        obs.driver
    ));
    out.push_str(&format!(
        "# probe grid {} (the digest epoch); every quantity below is virtual-time\n\
         # deterministic — wall-clock telemetry goes to stderr and OBS_cluster.json\n\n",
        f(obs.grid, 2)
    ));

    // -- time-series probes ------------------------------------------------
    let mut series = Table::new(
        format!("Epoch-grid probes (sparkline over t = 0..{})", f(obs.duration, 1)),
        &["series", "mean", "peak", &format!("{:-^SPARK_W$}", " t ")],
    );
    let spark_row = |table: &mut Table, name: &str, label: &str| {
        if let Some(pts) = obs.registry.series_points(name) {
            let mean = pts.iter().sum::<f64>() / pts.len().max(1) as f64;
            let peak = pts.iter().copied().fold(0.0_f64, f64::max);
            table.row(vec![label.to_string(), f(mean, 3), f(peak, 3), sparkline(pts, SPARK_W)]);
        }
    };
    spark_row(&mut series, "link_util.backbone", "backbone util");
    spark_row(&mut series, &format!("link_util.access[{}]", n_proxies / 2), "median access util");
    spark_row(&mut series, "links.queue_depth", "in-flight jobs");
    spark_row(&mut series, "cache.occupancy_bytes", "cache bytes (all proxies)");
    spark_row(&mut series, "prefetch.outstanding", "outstanding prefetches");
    out.push_str(&series.render());

    // -- latency distribution ----------------------------------------------
    out.push('\n');
    let mut lat_table = Table::new(
        "Request latency (post-warmup accesses, histogram-backed quantiles)",
        &["samples", "mean", "p50", "p90", "p99", "max"],
    );
    if let Some(lat) = obs.latency() {
        let q = |p: f64| obs.latency_quantile(p).map_or("-".into(), |v| f(v, 5));
        lat_table.row(vec![
            lat.moments.count().to_string(),
            f(lat.moments.mean(), 5),
            q(0.50),
            q(0.90),
            q(0.99),
            f(lat.moments.max(), 5),
        ]);
    }
    out.push_str(&lat_table.render());

    // -- pipeline counters --------------------------------------------------
    out.push('\n');
    let mut counters = Table::new(
        "Pipeline counters (merged over shards)",
        &["requests", "pred calls", "predictions", "prefetches", "digest B", "delta ops"],
    );
    let c = |name: &str| obs.registry.counter_value(name).to_string();
    counters.row(vec![
        c("requests.processed"),
        c("predictor.calls"),
        c("predictor.predictions"),
        c("prefetch.issued"),
        c("coop.digest_bytes"),
        c("coop.delta_ops"),
    ]);
    out.push_str(&counters.render());

    // -- per-shard profile (deterministic columns) ---------------------------
    out.push('\n');
    let mut prof = Table::new(
        "Sharded-driver profile (virtual-time-deterministic columns)",
        &[
            "shard",
            "events",
            "windows",
            "refreshes",
            "effects out",
            "mail mean",
            "mail hwm",
            "heap hwm",
            "arms",
            "cancels",
        ],
    );
    for p in &obs.profiles {
        prof.row(vec![
            p.shard.to_string(),
            p.events.to_string(),
            p.windows.to_string(),
            p.refreshes.to_string(),
            p.effects_sent.to_string(),
            if p.mail_in.count() > 0 { f(p.mail_in.mean(), 2) } else { "-".into() },
            p.mailbox_hwm.to_string(),
            p.heap_depth_hwm.to_string(),
            p.sched_arms.to_string(),
            p.sched_cancels.to_string(),
        ]);
    }
    out.push_str(&prof.render());

    // -- per-shard events by class (sums to the profile's events column) ------
    out.push('\n');
    let headers: Vec<&str> = std::iter::once("shard").chain(EVENT_CLASS_NAMES).collect();
    let mut by_class = Table::new("Events per event class (sum = events)", &headers);
    for p in &obs.profiles {
        by_class.row(
            std::iter::once(p.shard.to_string())
                .chain(p.events_by_class.iter().map(u64::to_string))
                .collect(),
        );
    }
    out.push_str(&by_class.render());

    // -- flight recorder ------------------------------------------------------
    if let (Some(first), Some(last)) = (obs.flight.first(), obs.flight.last()) {
        out.push_str(&format!(
            "\nFlight recorder: {} records retained, t = {}..{} (dispatches + \
             cross-shard effects,\nthe diagnostic tail a parity failure would be \
             read from).\n",
            obs.flight.len(),
            f(first.t, 3),
            f(last.t, 3)
        ));
    }

    // -- slowest traces (tracing enabled via --top-k) -------------------------
    if let Some(store) = &obs.traces {
        out.push('\n');
        out.push_str(&crate::experiments::e19_trace::top_k_table(store, top_k).render());
    }

    out.push_str(&format!(
        "\nReading: the probes are pure observers -- `cluster/tests/obs_parity.rs`\n\
         pins the report bit-identical with them on or off, at every shard\n\
         count. Utilization series are busy-time deltas per grid interval, so\n\
         a cell of the backbone sparkline is its rho over that epoch; mailbox\n\
         and heap columns profile the windowed driver itself. Mean access time\n\
         {} matches the report's {}.\n",
        obs.latency().map_or("-".into(), |l| f(l.moments.mean(), 5)),
        f(report.mean_access_time, 5),
    ));

    // Wall-clock telemetry: machine-dependent, so stderr + artifact only.
    eprintln!(
        "e18: {n_proxies} proxies, {shards} shard(s): {:.2}s wall, {:.1} kev/s, {:.1} kpred/s",
        obs.wall_secs,
        obs.events_per_sec() / 1e3,
        obs.preds_per_sec() / 1e3
    );

    let section = obs
        .to_json()
        .set("experiment", Json::str("e18_obs"))
        .set("n_proxies", Json::num(n_proxies as f64))
        .set("mean_access_time", Json::num(report.mean_access_time))
        .set("report", cluster::report_to_json(&report));
    Rendered { report: out, section: Some(section), files: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;

    #[test]
    fn smoke_dashboard_contains_all_sections() {
        let Rendered { report: text, section, .. } = smoke("obs");
        let section = section.as_ref().expect("E18 writes a section");
        assert!(text.contains("Epoch-grid probes"));
        assert!(text.contains("backbone util"));
        assert!(text.contains("Request latency"));
        assert!(text.contains("Pipeline counters"));
        assert!(text.contains("Sharded-driver profile"));
        assert!(text.contains("Flight recorder"));
        // The artifact section carries the acceptance-criteria payload.
        assert!(section.get("latency").and_then(|l| l.get("p50")).is_some());
        assert!(section.get("link_util").is_some());
        assert!(section.get("profiles").and_then(Json::as_arr).map(<[Json]>::len) == Some(SMOKE.1));
        assert!(section.get("preds_per_sec").is_some());
        assert!(section.get("report").is_some());
    }

    #[test]
    fn top_k_flag_appends_the_slowest_traces() {
        let Rendered { report: text, section, .. } = render_top_k(Size::Smoke, 3);
        let section = section.expect("E18 writes a section");
        assert!(text.contains("Top-3 slowest traces"));
        // Tracing also lands in the artifact section.
        assert!(section.get("trace").and_then(|t| t.get("traces")).is_some());
    }

    /// A second render in the same process repeats the shared one.
    #[test]
    fn smoke_dashboard_is_deterministic() {
        assert_eq!(render(Size::Smoke).report, smoke("obs").report);
    }
}
