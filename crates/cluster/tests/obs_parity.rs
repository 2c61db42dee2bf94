//! Observability must be a pure *observer*: attaching the full probe set
//! (`ObsConfig::on()` with series sampling and flight recording) must not
//! perturb the simulation at all. The bit-identity of the report with
//! probes on and off, at every shard count, is a column of the parity
//! matrix (`shard_parity.rs`): obs draws no RNG, schedules no events, and
//! feeds nothing back. The `observation_is_invisible_*` tests here repeat
//! it under the probe settings that column does not use.
//!
//! This suite also sanity-checks the telemetry itself: the metrics that
//! E18's dashboard and `OBS_cluster.json` rely on actually accumulate,
//! series from different shards line up on one grid, and the JSON
//! artifact round-trips through `simcore::Json::parse`.

mod common;

use cluster::{report_to_json, ClusterConfig, ClusterSim};
use common::{adaptive, chaos, coop, probes, static_catalog, static_itemless, SHARD_COUNTS};
use coop::RefreshStrategy;
use simcore::faults::FaultConfig;
use simcore::{Json, ObsConfig};

/// Obs is invisible under the probe settings the matrix's obs column does
/// not use: `ObsConfig::on()`'s natural series grid (none on the open and
/// adaptive loops, the digest epoch on the cooperative one), and a grid
/// four times denser than the matrix's with an 8-entry flight ring that
/// wraps. At every matrix shard count the report equals the plain one,
/// and obs reports the shard count and the driver that ran it (windowed,
/// so on threads, above one shard).
fn assert_obs_is_invisible(config: &ClusterConfig<'_>, seed: u64) {
    let sim = ClusterSim::new(config);
    let dense = ObsConfig::on().with_sample_every(0.25).with_flight_capacity(8);
    for shards in SHARD_COUNTS {
        let plain = sim.run_sharded(seed, shards);
        let driver = if shards > 1 { "windowed" } else { "sequential" };
        for (label, probes) in [("natural grid", ObsConfig::on()), ("dense grid", dense.clone())] {
            let (report, obs) = sim.run_observed(seed, shards, &probes);
            assert_eq!(report, plain, "{label}: obs-on report at {shards} shards vs plain");
            assert_eq!((obs.shards, obs.driver), (shards, driver), "{label}: {shards} shards");
        }
    }
}

#[test]
fn observation_is_invisible_static() {
    assert_obs_is_invisible(&static_itemless(4, 1_000), 29);
}

#[test]
fn observation_is_invisible_adaptive() {
    assert_obs_is_invisible(&adaptive(4, 800), 13);
}

#[test]
fn observation_is_invisible_cooperative() {
    assert_obs_is_invisible(&coop(4, 1_000, RefreshStrategy::Deltas), 14);
}

/// Full digest rebuilds: each digest boundary is a global synchronisation
/// point of the windows, and the natural series grid samples on it.
#[test]
fn observation_is_invisible_on_the_windowed_driver() {
    assert_obs_is_invisible(&coop(4, 1_000, RefreshStrategy::FullRebuild), 21);
}

/// The latency histogram mirrors the report's access times: one sample
/// per measured request (hits, delayed hits, fetches, and failed fetches
/// and their waiters alike), and a mean equal to the report's
/// count-weighted mean access time. Checked on the static catalog and the
/// cooperative closed loop at every matrix shard count (threaded above
/// one), under an empty plan and a chaos plan whose failures settle
/// through the failure path.
#[test]
fn latency_histogram_mirrors_every_access_time() {
    let coop = coop(4, 1_500, RefreshStrategy::Deltas);
    for (label, config) in [("static catalog", static_catalog(4, 3_000)), ("coop", coop)] {
        let sim = ClusterSim::new(&config);
        for (plan, faults) in [("empty plan", FaultConfig::default()), ("chaos plan", chaos())] {
            for shards in SHARD_COUNTS {
                let l = format!("{label}, {plan}, {shards} shards");
                let (report, obs) = sim.run_faulted_observed(37, shards, &faults, &probes());
                if plan == "chaos plan" {
                    assert!(report.failed_fetches() > 0, "{l}: the plan does not bite");
                }
                let lat = obs.latency().expect("latency dist");
                let measured: u64 = report.nodes.iter().map(|n| n.measured_requests).sum();
                assert_eq!(lat.moments.count(), measured, "{l}: samples vs measured requests");
                let (got, want) = (lat.moments.mean(), report.mean_access_time);
                assert!(
                    (got - want).abs() <= 1e-12 * want.abs(),
                    "{l}: histogram mean {got} vs report mean {want}"
                );
            }
        }
    }
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
    let config = coop(4, 1_500, RefreshStrategy::Deltas);
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
    let config = coop(4, 1_500, RefreshStrategy::Deltas);
    let (_, a) = ClusterSim::new(&config).run_observed(7, 4, &probes());
    let (_, b) = ClusterSim::new(&config).run_observed(7, 4, &probes());
    assert_eq!(a.profiles.len(), 4);
    for (pa, pb) in a.profiles.iter().zip(&b.profiles) {
        assert_eq!(integral(pa), integral(pb), "shard {} profile", pa.shard);
    }
}

#[test]
fn telemetry_content_is_populated() {
    let config = coop(4, 1_500, RefreshStrategy::Deltas);
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
    let config = adaptive(4, 1_500);
    let (report, obs) = ClusterSim::new(&config).run_observed(13, 2, &ObsConfig::off());
    assert_eq!(report, ClusterSim::new(&config).run_sharded(13, 2));
    assert!(obs.latency().is_none());
    assert_eq!(obs.registry.counter_value("requests.processed"), 0);
    assert!(obs.profiles.is_empty() && obs.flight.is_empty());
    assert!(obs.to_json().render().contains("\"driver\""));
}

/// Telemetry reports the requested shard count clamped to the proxies,
/// with observability on or off. (A zero-latency cut reports it too,
/// under the `"sequential"` label: `shard_parity.rs`'s zero-latency row.)
#[test]
fn obs_reports_the_clamped_shard_count() {
    let config = coop(4, 1_500, RefreshStrategy::Deltas);
    for obs in [probes(), ObsConfig::off()] {
        let (_, o) = ClusterSim::new(&config).run_observed(13, 8, &obs);
        assert_eq!((o.shards, o.driver), (4, "windowed"), "obs enabled: {}", obs.enabled);
    }
}

/// Both JSON artifacts parse back through the hand-rolled codec.
#[test]
fn artifacts_roundtrip_through_the_parser() {
    let config = coop(4, 1_500, RefreshStrategy::Deltas);
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
