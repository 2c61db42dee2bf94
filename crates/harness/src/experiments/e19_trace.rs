//! E19 — causal request tracing over the E18 fabric.
//!
//! E18's dashboard says how much latency the run paid; this experiment
//! says *where it went*. Spans recorded at the engines' handler seams are
//! merged into per-request traces (`simcore::trace`), each an end-to-end
//! interval tiled by exclusive segments — pending-prefetch stall, link
//! queueing, link service, propagation, in-flight wait, and the wasted
//! peer leg of a digest false hit. The stdout report renders:
//!
//! * the **latency-attribution table** — per request class (hit, demand,
//!   delayed hit, prefetch), how total time divides across the buckets;
//! * the **top-K slowest traces** with their dominant bucket — the
//!   "why was this request slow" view;
//! * a conservation line: the maximum residual between each trace's
//!   segment sum and its measured latency (pinned ≤ 1e-9 relative by
//!   `cluster/tests/trace_parity.rs`).
//!
//! Everything on stdout is virtual-time deterministic. The same data
//! lands machine-readably in the `e19_trace` section of
//! `OBS_cluster.json`, and the full span set exports as Chrome
//! trace-event JSON (`TRACE_cluster.json`, loadable in Perfetto /
//! `chrome://tracing`) for interactive inspection.

use crate::artifact::TRACE_ARTIFACT;
use crate::experiments::e18_obs;
use crate::experiments::{Rendered, Size};
use crate::report::{f, Table};
use cluster::{ClusterObs, ClusterReport, ClusterSim};
use simcore::trace::{TraceStore, BUCKETS};
use simcore::Json;

const SEED: u64 = 19;

/// Full sweep: the 32-proxy cooperative mesh at 4 shards, tracing one
/// request in 2.
const FULL: (usize, usize, usize, u64) = (32, 4, 12_800, 2);

/// Reduced CI sweep (`--smoke`): 8 proxies at 2 shards, every request
/// traced.
const SMOKE: (usize, usize, usize, u64) = (8, 2, 2_400, 1);

/// Slowest-traces rows in the report and the artifact.
pub const TOP_K: usize = 8;

/// One traced run at the given scale.
pub fn run_traced(
    n_proxies: usize,
    shards: usize,
    total: usize,
    every: u64,
) -> (ClusterReport, ClusterObs) {
    let config = e18_obs::config(n_proxies, total);
    let probes = e18_obs::probes().with_trace_every(every);
    ClusterSim::new(&config).run_observed(SEED, shards, &probes)
}

/// Per-class latency attribution: traces, measured share, mean latency,
/// and the fraction of the class's total time in each bucket.
pub fn attribution_table(store: &TraceStore) -> Table {
    let mut cols: Vec<&str> = vec!["class", "traces", "measured", "mean lat"];
    cols.extend(BUCKETS);
    let mut table = Table::new("Latency attribution (share of class time per bucket)", &cols);
    for a in store.attribution() {
        if a.traces == 0 {
            continue;
        }
        let mut row = vec![
            a.class.name().to_string(),
            a.traces.to_string(),
            a.measured.to_string(),
            f(a.mean_latency(), 5),
        ];
        for b in &a.buckets {
            row.push(if a.latency_total > 0.0 && b.total > 0.0 {
                format!("{:.1}%", 100.0 * b.total / a.latency_total)
            } else {
                "-".to_string()
            });
        }
        table.row(row);
    }
    table
}

/// The `k` slowest traces with their dominant bucket — shared with the
/// E18 dashboard's `--top-k` view.
pub fn top_k_table(store: &TraceStore, k: usize) -> Table {
    let mut table = Table::new(
        format!("Top-{k} slowest traces"),
        &["trace", "class", "proxy", "item", "latency", "dominant", "segments"],
    );
    for tr in store.top_k_slowest(k) {
        table.row(vec![
            format!("{:#010x}", tr.id >> 32),
            tr.class.name().to_string(),
            tr.proxy.to_string(),
            tr.item.to_string(),
            f(tr.latency(), 5),
            tr.dominant_bucket().to_string(),
            tr.segments.len().to_string(),
        ]);
    }
    table
}

/// Largest relative conservation residual across the store — how far any
/// trace's segment sum strays from its measured latency.
pub fn max_residual(store: &TraceStore) -> f64 {
    store
        .traces
        .iter()
        .map(|t| (t.segment_sum() - t.latency()).abs() / t.latency().abs().max(1.0))
        .fold(0.0, f64::max)
}

/// Runs one traced sweep at `size`; returns the report text, the
/// `e19_trace` artifact section, and the Chrome trace-event export
/// ([`TRACE_ARTIFACT`]).
pub fn render(size: Size) -> Rendered {
    let (n_proxies, shards, total_requests, every) = size.pick(FULL, SMOKE);
    let (report, obs) = run_traced(n_proxies, shards, total_requests, every);
    let store = obs.traces.as_ref().expect("trace probes were on");

    let mut out = String::new();
    out.push_str("# E19 — causal tracing: where each request's latency went\n");
    out.push_str(&format!(
        "# {n_proxies}-proxy cooperative mesh, {shards} shard(s) ({} driver), \
         tracing 1-in-{every}\n",
        obs.driver
    ));
    out.push_str(&format!(
        "# {} traces extracted; spans merge on (trace, seq), so this page is\n\
         # bit-identical at every shard count (cluster/tests/trace_parity.rs)\n\n",
        store.traces.len()
    ));

    out.push_str(&attribution_table(store).render());
    out.push('\n');
    out.push_str(&top_k_table(store, TOP_K).render());

    out.push_str(&format!(
        "\nConservation: every trace's exclusive segments tile its end-to-end\n\
         interval; max relative residual {} (segment sum vs measured latency).\n",
        f(max_residual(store), 12)
    ));
    out.push_str(&format!(
        "\nReading: \"redirect\" is time on a peer leg a digest false hit wasted;\n\
         \"pending_wait\" is jitter between a prefetch decision and its issue;\n\
         \"wait\" is a delayed hit riding someone else's in-flight fetch. Mean\n\
         access time {} matches the report's {}. Full spans: TRACE_cluster.json\n\
         (Chrome trace-event format, load in Perfetto or chrome://tracing).\n",
        obs.latency().map_or("-".into(), |l| f(l.moments.mean(), 5)),
        f(report.mean_access_time, 5),
    ));

    // Wall-clock telemetry stays off stdout, as in E17/E18.
    eprintln!(
        "e19: {n_proxies} proxies, {shards} shard(s): {} traces, {:.2}s wall",
        store.traces.len(),
        obs.wall_secs,
    );

    let section = store
        .to_json(TOP_K)
        .set("experiment", Json::str("e19_trace"))
        .set("n_proxies", Json::num(n_proxies as f64))
        .set("shards", Json::num(shards as f64))
        .set("max_residual", Json::num(max_residual(store)))
        .set("mean_access_time", Json::num(report.mean_access_time));
    let chrome = store.chrome_json().render().into_bytes();
    Rendered { report: out, section: Some(section), files: vec![(TRACE_ARTIFACT, chrome)] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::smoke;

    #[test]
    fn smoke_report_contains_all_sections() {
        let Rendered { report: text, section, files } = smoke("trace");
        let section = section.as_ref().expect("E19 writes a section");
        assert!(text.contains("Latency attribution"));
        assert!(text.contains("slowest traces"));
        assert!(text.contains("Conservation"));
        assert!(text.contains("demand"));

        assert_eq!(section.get("experiment").and_then(Json::as_str), Some("e19_trace"));
        assert!(section.get("traces").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(section.get("classes").and_then(|c| c.get("demand")).is_some());
        assert!(!section.get("slowest").and_then(Json::as_arr).unwrap().is_empty());
        assert!(section.get("max_residual").and_then(Json::as_f64).unwrap() <= 1e-9);

        let [(name, chrome)] = &files[..] else { panic!("one Chrome export: {}", files.len()) };
        assert_eq!(*name, TRACE_ARTIFACT);
        let chrome = Json::parse(std::str::from_utf8(chrome).unwrap()).unwrap();
        let events = chrome.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty());
    }

    /// A second render in the same process repeats the shared one.
    #[test]
    fn smoke_report_is_deterministic() {
        assert_eq!(render(Size::Smoke).report, smoke("trace").report);
    }
}
