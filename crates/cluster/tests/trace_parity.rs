//! Causal tracing must follow the observability contract: attaching span
//! probes cannot perturb the simulation ([`cluster::ClusterReport`]
//! bit-identical with tracing on vs the untraced sequential oracle, at
//! every shard count, on all three engines), and the traces themselves
//! must be **bit-identical across shard counts** — span buffers merge on
//! the `(trace, seq)` total key, so sharding can't reorder anything.
//!
//! The second half cross-checks the extracted traces against the report's
//! own statistics (the satellite-2 requirement): with `trace_every = 1`
//! the per-proxy class counts reproduce `measured_requests`/`hit_ratio`
//! exactly, and the mean of measured demand-trace latencies agrees with
//! `mean_retrieval_time` to 1e-9 — two independent measurement paths over
//! the same events.

use cluster::{
    AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterSim, CooperativeWorkload,
    DelayedHitsConfig, ProxyPolicy, ShardPlan, StaticProxy, StaticWorkload, Topology, Workload,
};
use coop::{CoopConfig, DigestConfig, PlacementPolicy, RefreshStrategy};
use simcore::dist::Exponential;
use simcore::trace::{SegKind, TraceClass};
use simcore::{Json, ObsConfig};
use workload::synth_web::SynthWebConfig;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn coop_config(n: usize, latency: f64, requests: usize) -> ClusterConfig<'static> {
    let topology = if latency > 0.0 {
        Topology::mesh_with_latency(n, 50.0, 150.0, 45.0, latency)
    } else {
        Topology::mesh(n, 50.0, 150.0, 45.0)
    };
    ClusterConfig {
        topology,
        workload: Workload::Cooperative(CooperativeWorkload {
            base: AdaptiveWorkload {
                proxies: (0..n)
                    .map(|_| SynthWebConfig {
                        lambda: 12.0,
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
                refresh: RefreshStrategy::Deltas,
                ..CoopConfig::default()
            },
        }),
        requests_per_proxy: requests,
        warmup_per_proxy: requests / 5,
    }
}

fn adaptive_config(cache_bytes: Option<f64>) -> ClusterConfig<'static> {
    ClusterConfig {
        topology: Topology::sharded_origin(4, 2, 45.0, 80.0),
        workload: Workload::Adaptive(AdaptiveWorkload {
            proxies: [8.0, 18.0, 30.0, 11.0]
                .iter()
                .map(|&lambda| SynthWebConfig {
                    lambda,
                    link_skew: 0.3,
                    ..SynthWebConfig::default()
                })
                .collect(),
            cache_capacity: 32,
            cache_bytes,
            max_candidates: 3,
            prefetch_jitter: 0.01,
            policy: ProxyPolicy::Adaptive,
            predictor: CandidateSource::Oracle,
            shared_structure_seed: None,
            delayed: Default::default(),
        }),
        requests_per_proxy: 1_200,
        warmup_per_proxy: 240,
    }
}

fn static_config(size: &(dyn simcore::dist::Sample + Sync)) -> ClusterConfig<'_> {
    ClusterConfig {
        topology: Topology::sharded_origin(4, 2, 25.0, 30.0),
        workload: Workload::Static(StaticWorkload {
            proxies: vec![StaticProxy { lambda: 10.0, h_prime: 0.3, n_f: 0.5, p: 0.8 }; 4],
            size_dist: size,
            catalog_items: None,
        }),
        requests_per_proxy: 3_000,
        warmup_per_proxy: 600,
    }
}

/// `config` moved onto a 4-proxy latency mesh: its 2-shard cut has
/// positive lookahead, so every multi-shard run of it starts threads.
fn on_latency_mesh(config: ClusterConfig<'_>) -> ClusterConfig<'_> {
    let config = ClusterConfig {
        topology: Topology::mesh_with_latency(4, 50.0, 150.0, 45.0, 0.05),
        ..config
    };
    assert!(ShardPlan::partition(&config.topology, 2).lookahead() > 0.0);
    config
}

fn traced(every: u64) -> ObsConfig {
    ObsConfig::on().with_sample_every(1.0).with_flight_capacity(128).with_trace_every(every)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Tracing on must yield the exact report the untraced sequential oracle
/// produces, at every shard count — spans read state, never touch it.
fn assert_tracing_is_invisible(config: &ClusterConfig<'_>, seed: u64, every: u64, label: &str) {
    let oracle = ClusterSim::new(config).run(seed);
    for shards in SHARD_COUNTS {
        let (report, obs) = ClusterSim::new(config).run_observed(seed, shards, &traced(every));
        assert_eq!(report, oracle, "{label}: traced report at {shards} shards vs oracle");
        let store = obs.traces.as_ref().expect("tracing ran");
        assert!(!store.traces.is_empty(), "{label}: {shards} shards sampled nothing");
        assert_eq!(store.every, every.max(1), "{label}: sampling modulus");
    }
}

#[test]
fn tracing_is_invisible_adaptive() {
    assert_tracing_is_invisible(&adaptive_config(None), 13, 4, "adaptive");
    let mesh = on_latency_mesh(adaptive_config(None));
    assert_tracing_is_invisible(&mesh, 13, 4, "adaptive latency mesh");
}

#[test]
fn tracing_is_invisible_cooperative() {
    assert_tracing_is_invisible(&coop_config(4, 0.0, 1_000), 14, 1, "coop merged");
}

#[test]
fn tracing_is_invisible_on_the_windowed_driver() {
    assert_tracing_is_invisible(&coop_config(4, 0.05, 1_000), 21, 2, "coop windowed");
}

#[test]
fn tracing_is_invisible_static() {
    let size = Exponential::with_mean(1.0);
    assert_tracing_is_invisible(&static_config(&size), 29, 1, "static");
    let mesh = on_latency_mesh(static_config(&size));
    assert_tracing_is_invisible(&mesh, 29, 1, "static latency mesh");
}

/// The merged [`TraceStore`] is bit-identical (derived `PartialEq`, every
/// float exact) at shard counts 1, 2, 4 and 8: per-job sequence numbers
/// make `(trace, seq)` a total order no sharding can disturb.
#[test]
fn traces_are_bit_identical_across_shard_counts() {
    let config = coop_config(8, 0.05, 600);
    let (_, base) = ClusterSim::new(&config).run_observed(35, 1, &traced(2));
    let base = base.traces.expect("tracing ran");
    assert!(base.traces.len() > 10, "base sampled {} traces", base.traces.len());
    for shards in [2, 4, 8] {
        let (_, obs) = ClusterSim::new(&config).run_observed(35, shards, &traced(2));
        let store = obs.traces.expect("tracing ran");
        assert_eq!(store, base, "trace store at {shards} shards vs 1 shard");
    }
}

/// Every extracted trace is structurally sound: segments tile the
/// end-to-end interval exactly (shared boundaries, nothing backwards), so
/// exclusive segment durations sum to the measured latency — latency
/// attribution conserves time by construction, not by luck.
#[test]
fn segments_conserve_end_to_end_latency() {
    let config = coop_config(4, 0.05, 1_200);
    let (report, obs) = ClusterSim::new(&config).run_observed(41, 4, &traced(1));
    let store = obs.traces.expect("tracing ran");
    let mut wasted_legs = 0u64;
    let mut by_class = [0u64; 4];
    for tr in &store.traces {
        tr.check().unwrap_or_else(|e| panic!("ill-formed trace: {e}"));
        assert!(
            close(tr.segment_sum(), tr.latency()),
            "trace {:#x}: segments sum to {} but latency is {}",
            tr.id,
            tr.segment_sum(),
            tr.latency()
        );
        assert!(tr.start <= tr.end, "trace {:#x} runs backwards", tr.id);
        assert!(tr.end <= report.duration, "trace {:#x} outlives the run", tr.id);
        match tr.class {
            TraceClass::Hit => assert_eq!(tr.latency(), 0.0, "hit with nonzero latency"),
            TraceClass::DelayedHit => {
                assert_eq!(tr.segments.len(), 1, "waiter trace has one segment");
                assert_eq!(tr.segments[0].kind, SegKind::Wait);
            }
            TraceClass::Demand => {
                assert!(
                    tr.segments.iter().all(|s| s.kind != SegKind::PendingWait),
                    "demand fetch with a pending-prefetch stall"
                );
            }
            TraceClass::Prefetch => {}
            TraceClass::Failed => panic!("failed trace without a fault plan"),
        }
        if tr.segments.iter().any(|s| s.wasted) {
            wasted_legs += 1;
        }
        by_class[TraceClass::ALL.iter().position(|&c| c == tr.class).unwrap()] += 1;
    }
    // The config exercises every lifecycle.
    for (&c, &n) in TraceClass::ALL.iter().zip(&by_class) {
        assert!(n > 0, "no {} traces sampled", c.name());
    }
    // With every trace sampled, digest false hits (the report counts some
    // in this config) must show up as wasted peer legs.
    let false_hits = report.coop.expect("cooperative run").peer_false_hits;
    assert!(false_hits > 0, "config no longer produces digest false hits");
    assert!(wasted_legs > 0, "{false_hits} false hits but no wasted-leg traces");
}

/// Satellite 2: with `trace_every = 1` the traces are a complete parallel
/// measurement path. Per proxy: class counts reproduce the report's
/// measured-request and hit counters exactly, and the measured demand
/// traces' mean latency equals `mean_retrieval_time` (the report's `r̄`,
/// a Welford mean over the same `deliver − issue` samples) to 1e-9.
fn assert_trace_stats_match_report(config: &ClusterConfig<'_>, seed: u64, label: &str) {
    let (report, obs) = ClusterSim::new(config).run_observed(seed, 2, &traced(1));
    let store = obs.traces.expect("tracing ran");
    let n = report.nodes.len();
    let mut hits = vec![0u64; n];
    let mut delayed = vec![0u64; n];
    let mut demand = vec![0u64; n];
    let mut demand_lat = vec![0.0f64; n];
    for tr in &store.traces {
        if !tr.measured {
            continue;
        }
        let g = tr.proxy as usize;
        match tr.class {
            TraceClass::Hit => hits[g] += 1,
            TraceClass::DelayedHit => delayed[g] += 1,
            TraceClass::Demand => {
                demand[g] += 1;
                demand_lat[g] += tr.latency();
            }
            TraceClass::Prefetch => {}
            TraceClass::Failed => panic!("failed trace without a fault plan"),
        }
    }
    for node in &report.nodes {
        let g = node.proxy;
        let l = format!("{label}: proxy {g}");
        let report_hits = (node.hit_ratio * node.measured_requests.max(1) as f64).round() as u64;
        assert_eq!(hits[g], report_hits, "{l}: hit traces vs hit_ratio");
        assert_eq!(
            hits[g] + delayed[g] + demand[g],
            node.measured_requests,
            "{l}: measured traces vs measured_requests"
        );
        if demand[g] > 0 {
            let mean = demand_lat[g] / demand[g] as f64;
            assert!(
                close(mean, node.mean_retrieval_time),
                "{l}: demand-trace mean {mean} vs r̄ {}",
                node.mean_retrieval_time
            );
        } else {
            assert_eq!(node.mean_retrieval_time, 0.0, "{l}: r̄ without demand fetches");
        }
    }
}

#[test]
fn trace_stats_match_the_report_adaptive() {
    assert_trace_stats_match_report(&adaptive_config(None), 47, "adaptive");
}

#[test]
fn trace_stats_match_the_report_cooperative() {
    assert_trace_stats_match_report(&coop_config(4, 0.05, 1_200), 53, "coop windowed");
}

#[test]
fn trace_stats_match_the_report_byte_budget() {
    assert_trace_stats_match_report(&adaptive_config(Some(24.0)), 59, "byte budget");
}

#[test]
fn trace_stats_match_the_report_static() {
    let size = Exponential::with_mean(1.0);
    assert_trace_stats_match_report(&static_config(&size), 61, "static");
}

/// A latency-bearing adaptive deployment whose fetch windows span later
/// requests — the regime where the MSHR table settles delayed hits.
fn delayed_adaptive_config() -> ClusterConfig<'static> {
    ClusterConfig {
        topology: Topology::mesh_with_latency(4, 60.0, 25.0, 45.0, 0.08),
        workload: Workload::Adaptive(AdaptiveWorkload {
            proxies: (0..4)
                .map(|i| SynthWebConfig {
                    lambda: 24.0 + 4.0 * i as f64,
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
            delayed: DelayedHitsConfig::default(),
        }),
        requests_per_proxy: 1_500,
        warmup_per_proxy: 300,
    }
}

fn delayed_static_config(size: &(dyn simcore::dist::Sample + Sync)) -> ClusterConfig<'_> {
    ClusterConfig {
        topology: Topology::sharded_origin(4, 2, 25.0, 12.0),
        workload: Workload::Static(StaticWorkload {
            proxies: vec![StaticProxy { lambda: 14.0, h_prime: 0.3, n_f: 0.5, p: 0.8 }; 4],
            size_dist: size,
            catalog_items: Some(40),
        }),
        requests_per_proxy: 3_000,
        warmup_per_proxy: 600,
    }
}

/// Satellite 2, delayed-hits half: the trace layer and the MSHR report
/// aggregates are two independent measurement paths over the same waiter
/// settlements. With `trace_every = 1`, per proxy and cluster-wide:
///
/// * measured `DelayedHit` traces equal `delayed_hits` **exactly**;
/// * the mean of their end-to-end latencies (each a single `Wait`
///   segment: join → fetch landing) equals `mean_residual_wait` to 1e-9.
fn assert_delayed_aggregates_match(config: &ClusterConfig<'_>, seed: u64, label: &str) {
    let (report, obs) = ClusterSim::new(config).run_observed(seed, 2, &traced(1));
    let store = obs.traces.expect("tracing ran");
    let n = report.nodes.len();
    let mut delayed = vec![0u64; n];
    let mut residual = vec![0.0f64; n];
    for tr in &store.traces {
        if !tr.measured || tr.class != TraceClass::DelayedHit {
            continue;
        }
        assert_eq!(tr.segments.len(), 1, "{label}: waiter trace has one segment");
        assert_eq!(tr.segments[0].kind, SegKind::Wait);
        delayed[tr.proxy as usize] += 1;
        residual[tr.proxy as usize] += tr.latency();
    }
    for node in &report.nodes {
        let g = node.proxy;
        let l = format!("{label}: proxy {g}");
        let report_delayed = node.delayed_hits.expect("MSHR mode reports delayed_hits");
        assert_eq!(delayed[g], report_delayed, "{l}: DelayedHit traces vs delayed_hits");
        match node.mean_residual_wait {
            Some(mean) => {
                assert!(delayed[g] > 0, "{l}: residual mean without delayed hits");
                let trace_mean = residual[g] / delayed[g] as f64;
                assert!(
                    close(trace_mean, mean),
                    "{l}: Wait-segment mean {trace_mean} vs mean_residual_wait {mean}"
                );
            }
            None => assert_eq!(delayed[g], 0, "{l}: delayed hits without a residual mean"),
        }
    }
    // Cluster-level rollups agree with the same sums.
    let total: u64 = delayed.iter().sum();
    assert!(total > 0, "{label}: config no longer settles delayed hits");
    assert_eq!(report.delayed_hits(), total, "{label}: cluster delayed_hits rollup");
    let mean = residual.iter().sum::<f64>() / total as f64;
    let rollup = report.mean_residual_wait().expect("delayed hits imply a residual mean");
    assert!(close(mean, rollup), "{label}: cluster residual mean {mean} vs rollup {rollup}");
}

#[test]
fn delayed_hit_aggregates_match_the_traces_adaptive() {
    assert_delayed_aggregates_match(&delayed_adaptive_config(), 73, "delayed adaptive");
}

#[test]
fn delayed_hit_aggregates_match_the_traces_static() {
    let size = Exponential::with_mean(1.0);
    assert_delayed_aggregates_match(&delayed_static_config(&size), 79, "delayed static");
    let mesh = on_latency_mesh(delayed_static_config(&size));
    assert_delayed_aggregates_match(&mesh, 79, "delayed static latency mesh");
}

/// The trace-derived registry aggregates and both JSON artifacts agree
/// with the store they were computed from.
#[test]
fn attribution_aggregates_and_artifacts_are_consistent() {
    let config = coop_config(4, 0.05, 1_000);
    let (_, obs) = ClusterSim::new(&config).run_observed(67, 2, &traced(2));
    let store = obs.traces.as_ref().expect("tracing ran");

    // Registry counters mirror the per-class attribution.
    for a in obs.attribution() {
        let name = format!("trace.count.{}", a.class.name());
        assert_eq!(obs.registry.counter_value(&name), a.traces, "{name}");
    }
    let lat = obs.registry.dist_stats("trace.latency").expect("trace.latency dist");
    assert_eq!(lat.moments.count(), store.traces.len() as u64);
    let segs: u64 = store.traces.iter().map(|t| t.segments.len() as u64).sum();
    let seg_count: u64 = simcore::trace::BUCKETS
        .iter()
        .filter_map(|b| obs.registry.dist_stats(&format!("trace.seg.{b}")))
        .map(|d| d.moments.count())
        .sum();
    assert_eq!(seg_count, segs, "per-bucket segment dists cover every segment");

    // Chrome export: one summary slice per trace plus one per segment,
    // all complete ("X") events; parses back through the codec.
    let chrome = store.chrome_json();
    let events = chrome.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    assert_eq!(events.len() as u64, store.traces.len() as u64 + segs);
    assert!(events.iter().all(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
    assert!(Json::parse(&chrome.render()).is_ok());

    // The obs artifact carries the summary section.
    let parsed = Json::parse(&obs.to_json().render()).expect("obs json parses");
    let trace = parsed.get("trace").expect("trace section");
    assert_eq!(trace.get("traces").and_then(Json::as_f64), Some(store.traces.len() as f64));
    assert_eq!(trace.get("sample_every").and_then(Json::as_f64), Some(2.0));

    // Top-K is sorted slowest-first.
    let top = store.top_k_slowest(10);
    assert!(top.windows(2).all(|w| w[0].latency() >= w[1].latency()));
}

/// Leaving `trace_every` at 0 (the default, even under `ObsConfig::on()`)
/// keeps the store absent and the aggregates unregistered.
#[test]
fn tracing_off_leaves_no_store() {
    let config = adaptive_config(None);
    let (_, obs) =
        ClusterSim::new(&config).run_observed(13, 2, &ObsConfig::on().with_sample_every(1.0));
    assert!(obs.traces.is_none());
    assert!(obs.attribution().is_empty());
    assert_eq!(obs.registry.counter_value("trace.count.demand"), 0);
    assert!(obs.registry.dist_stats("trace.latency").is_none());
}

/// Head sampling is a per-trace-id filter: the `every = 4` store is the
/// restriction of the `every = 1` store to the sampled ids, trace for
/// trace (same extraction, same floats).
#[test]
fn sampled_store_is_a_restriction_of_the_full_store() {
    let config = coop_config(4, 0.05, 800);
    let (_, full) = ClusterSim::new(&config).run_observed(71, 2, &traced(1));
    let (_, thin) = ClusterSim::new(&config).run_observed(71, 2, &traced(4));
    let full = full.traces.expect("tracing ran");
    let thin = thin.traces.expect("tracing ran");
    assert!(thin.traces.len() < full.traces.len(), "sampling thinned nothing");
    for tr in &thin.traces {
        assert_eq!(tr.id % 4, 0, "unsampled id {:#x} admitted", tr.id);
        let twin = full
            .traces
            .iter()
            .find(|t| t.id == tr.id)
            .unwrap_or_else(|| panic!("trace {:#x} missing from the full store", tr.id));
        assert_eq!(tr, twin, "trace {:#x} differs under sampling", tr.id);
    }
    let expect = full.traces.iter().filter(|t| t.id % 4 == 0).count();
    assert_eq!(thin.traces.len(), expect, "restriction is exact");
}
