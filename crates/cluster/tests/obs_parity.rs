//! Observability must be a pure *observer*: attaching the full probe set
//! (`ObsConfig::on()` with series sampling and flight recording) must not
//! perturb the simulation at all. The [`cluster::ClusterReport`] produced
//! with probes on is asserted **bit-identical** (derived `PartialEq`,
//! every float exact) to the plain run, at every shard count — obs draws
//! no RNG, schedules no events, and feeds nothing back.
//!
//! The second half sanity-checks the telemetry itself: the metrics that
//! E18's dashboard and `OBS_cluster.json` rely on actually accumulate,
//! series from different shards line up on one grid, and the JSON
//! artifact round-trips through `simcore::Json::parse`.

use cluster::{
    report_to_json, AdaptiveWorkload, CandidateSource, ClusterConfig, ClusterSim,
    CooperativeWorkload, ProxyPolicy, StaticProxy, StaticWorkload, Topology, Workload,
};
use coop::{CoopConfig, DigestConfig, PlacementPolicy, RefreshStrategy};
use simcore::dist::Exponential;
use simcore::{Json, ObsConfig};
use workload::synth_web::SynthWebConfig;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn coop_config(latency: f64) -> ClusterConfig<'static> {
    let topology = if latency > 0.0 {
        Topology::mesh_with_latency(4, 50.0, 150.0, 45.0, latency)
    } else {
        Topology::mesh(4, 50.0, 150.0, 45.0)
    };
    ClusterConfig {
        topology,
        workload: Workload::Cooperative(CooperativeWorkload {
            base: AdaptiveWorkload {
                proxies: (0..4)
                    .map(|_| SynthWebConfig {
                        lambda: 14.0,
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
        requests_per_proxy: 1_500,
        warmup_per_proxy: 300,
    }
}

fn adaptive_config() -> ClusterConfig<'static> {
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
            cache_bytes: None,
            max_candidates: 3,
            prefetch_jitter: 0.01,
            policy: ProxyPolicy::Adaptive,
            predictor: CandidateSource::Oracle,
            shared_structure_seed: None,
            delayed: Default::default(),
        }),
        requests_per_proxy: 1_500,
        warmup_per_proxy: 300,
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
        requests_per_proxy: 4_000,
        warmup_per_proxy: 800,
    }
}

fn probes() -> ObsConfig {
    ObsConfig::on().with_sample_every(1.0).with_flight_capacity(256)
}

fn assert_obs_is_invisible(config: &ClusterConfig<'_>, seed: u64, label: &str) {
    let oracle = ClusterSim::new(config).run(seed);
    for shards in SHARD_COUNTS {
        let plain = ClusterSim::new(config).run_sharded(seed, shards);
        assert_eq!(plain, oracle, "{label}: obs-off report at {shards} shards vs oracle");
        let (observed, obs) = ClusterSim::new(config).run_observed(seed, shards, &probes());
        assert_eq!(observed, oracle, "{label}: obs-on report at {shards} shards vs oracle");
        assert_eq!(obs.shards, shards, "{label}: obs shard count");
    }
}

#[test]
fn observation_is_invisible_adaptive() {
    assert_obs_is_invisible(&adaptive_config(), 13, "adaptive");
}

#[test]
fn observation_is_invisible_cooperative() {
    assert_obs_is_invisible(&coop_config(0.0), 14, "coop merged");
}

#[test]
fn observation_is_invisible_on_the_windowed_driver() {
    assert_obs_is_invisible(&coop_config(0.05), 21, "coop windowed");
}

#[test]
fn observation_is_invisible_static() {
    let size = Exponential::with_mean(1.0);
    assert_obs_is_invisible(&static_config(&size), 29, "static");
}

/// Telemetry itself is deterministic across shard counts: counters are
/// exactly equal; float aggregates (series points, latency moments) agree
/// to last-ulp tolerance — per-shard partial sums merge in a different
/// addition order than the one-shard sequential sum, so bit-identity is
/// the contract of the *report*, and near-identity the contract of the
/// telemetry.
#[test]
fn telemetry_is_deterministic_across_shardings() {
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }
    let config = coop_config(0.05);
    let (_, base) = ClusterSim::new(&config).run_observed(7, 1, &probes());
    for shards in [2, 4] {
        let (_, obs) = ClusterSim::new(&config).run_observed(7, shards, &probes());
        let counters: Vec<_> = obs.registry.counters().collect();
        assert_eq!(counters, base.registry.counters().collect::<Vec<_>>(), "{shards} shards");
        for (name, pts) in base.registry.all_series() {
            let got = obs.registry.series_points(name).expect(name);
            assert_eq!(got.len(), pts.len(), "series {name} length, {shards} shards");
            for (i, (&x, &y)) in got.iter().zip(pts).enumerate() {
                assert!(close(x, y), "series {name}[{i}] at {shards} shards: {x} vs {y}");
            }
        }
        let (a, b) = (obs.latency().unwrap(), base.latency().unwrap());
        assert_eq!(a.moments.count(), b.moments.count());
        assert!(close(a.moments.mean(), b.moments.mean()));
        assert_eq!(obs.duration, base.duration);
    }
}

/// Every integral field of a shard's profile is a pure function of the
/// schedule, so two runs at the same shard count agree on all of them.
/// At 4 shards each inbox has several senders; the mailboxes deliver
/// sender by sender, so the order in which a shard re-arms its timers for
/// accepted mail, and with it `sched_arms` and `sched_cancels`, does not
/// depend on thread timing.
#[test]
fn shard_profiles_are_deterministic_at_four_shards() {
    fn integral(p: &simcore::ShardProfile) -> impl PartialEq + std::fmt::Debug {
        (
            (p.shard, p.windows, p.refreshes, p.events, p.events_by_class.clone()),
            (p.effects_sent, p.mailbox_msgs, p.mailbox_hwm, p.mail_in.count()),
            (p.heap_depth_hwm, p.sched_arms, p.sched_cancels),
        )
    }
    let config = coop_config(0.05);
    let (_, a) = ClusterSim::new(&config).run_observed(7, 4, &probes());
    let (_, b) = ClusterSim::new(&config).run_observed(7, 4, &probes());
    assert_eq!(a.profiles.len(), 4);
    for (pa, pb) in a.profiles.iter().zip(&b.profiles) {
        assert_eq!(integral(pa), integral(pb), "shard {} profile", pa.shard);
    }
}

#[test]
fn telemetry_content_is_populated() {
    let config = coop_config(0.05);
    let (report, obs) = ClusterSim::new(&config).run_observed(7, 4, &probes());

    // Latency distribution saw every post-warmup access.
    let lat = obs.latency().expect("latency dist");
    assert!(lat.moments.count() > 0, "latency samples");
    assert!(obs.latency_quantile(0.5).is_some(), "histogram-backed p50");
    assert!(lat.moments.mean() > 0.0);

    // Counters the dashboard prints.
    assert!(obs.registry.counter_value("requests.processed") > 0);
    assert!(obs.registry.counter_value("predictor.predictions") > 0, "adaptive ⇒ preds flow");
    assert!(obs.registry.counter_value("prefetch.issued") > 0);
    assert_eq!(obs.registry.counter_value("coop.digest_bytes"), report.digest_bytes());

    // Time-series probes share one epoch grid: equal lengths, grid > 0.
    assert!(obs.grid > 0.0);
    let series: Vec<(&str, usize)> = obs.registry.all_series().map(|(n, p)| (n, p.len())).collect();
    assert!(!series.is_empty(), "series probes present");
    let len = series[0].1;
    assert!(len > 0, "series non-empty");
    assert!(series.iter().all(|&(_, l)| l == len), "aligned series: {series:?}");
    assert!(obs.registry.series_points("cache.occupancy_bytes").is_some());
    let backbone = obs.mean_link_util("backbone").expect("backbone utilization series");
    assert!(backbone > 0.0 && backbone <= 1.0 + 1e-9, "backbone mean util: {backbone}");
    assert!(obs.mean_link_util("no-such-link").is_none());

    // Profiler rows: one per shard, events counted, windows driven.
    assert_eq!(obs.profiles.len(), 4);
    assert!(obs.profiles.iter().all(|p| p.events > 0), "every shard dispatched");
    assert!(obs.profiles.iter().map(|p| p.windows).sum::<u64>() > 0, "windowed driver ran");
    assert_eq!(obs.driver, "windowed");

    // Flight recorder kept the most recent records, time-ordered.
    assert!(!obs.flight.is_empty());
    assert!(obs.flight.windows(2).all(|w| w[0].t <= w[1].t), "flight time-ordered");

    // Wall-clock derived rates exist (wall time is the one nondeterministic
    // field, so only sign is asserted).
    assert!(obs.wall_secs > 0.0);
    assert!(obs.events_per_sec() > 0.0);
    assert!(obs.preds_per_sec() > 0.0);
}

/// The disabled config is an inert shell: same report, empty telemetry.
#[test]
fn disabled_obs_is_an_empty_shell() {
    let config = adaptive_config();
    let (report, obs) = ClusterSim::new(&config).run_observed(13, 2, &ObsConfig::off());
    assert_eq!(report, ClusterSim::new(&config).run_sharded(13, 2));
    assert!(obs.latency().is_none());
    assert_eq!(obs.registry.counter_value("requests.processed"), 0);
    assert!(obs.profiles.is_empty() && obs.flight.is_empty());
    assert!(obs.to_json().render().contains("\"driver\""));
}

/// Both JSON artifacts parse back through the hand-rolled codec.
#[test]
fn artifacts_roundtrip_through_the_parser() {
    let config = coop_config(0.0);
    let (report, obs) = ClusterSim::new(&config).run_observed(14, 2, &probes());

    let obs_text = obs.to_json().render();
    let parsed = Json::parse(&obs_text).expect("obs json parses");
    assert_eq!(parsed.get("shards").and_then(Json::as_f64), Some(2.0));
    assert!(parsed.get("latency").is_some());
    assert!(parsed.get("profiles").is_some());

    let rep_text = report_to_json(&report).render();
    let parsed = Json::parse(&rep_text).expect("report json parses");
    let nodes = parsed.get("nodes").and_then(Json::as_arr).expect("nodes array");
    assert_eq!(nodes.len(), 4);
    assert_eq!(
        parsed.get("mean_access_time").and_then(Json::as_f64),
        Some(report.mean_access_time)
    );
    let coop = parsed.get("coop").expect("coop section");
    assert_eq!(
        coop.get("router").and_then(|r| r.get("digest_bytes")).and_then(Json::as_f64),
        Some(report.digest_bytes() as f64)
    );
}
