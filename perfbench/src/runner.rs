//! The two kinds of benchmark run: the tracing-off run that measures the
//! end-to-end metrics, and the traced run that measures the layers.

use crate::calib;
use crate::checks::{check_against, check_report, Ledger};
use crate::layers::{self, CacheSetup, LinkLoad, Streams};
use crate::metrics::Output;
use crate::spec::{self, Scale, Spec, WorkloadId};
use cachesim::MshrConfig;
use cluster::{ClusterObs, ClusterReport, ClusterSim, ProxyPolicy};
use std::hint::black_box;
use std::time::Instant;

/// Set-ups timed as one group before the first batch and after every
/// batch; `setup_s` is the median over the groups, which spread over the
/// whole run like the batches.
const SETUP_GROUP: usize = 4;

/// Rounds of the traced run's wall-time comparisons.
const REPEATS: usize = 3;

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        0.5 * (xs[m - 1] + xs[m])
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The other shard count a run is cross-checked against (1 ↔ 2).
fn other_shards(spec: &Spec) -> usize {
    if spec.shards == 1 {
        2
    } else {
        1
    }
}

fn events(obs: &ClusterObs) -> u64 {
    obs.profiles.iter().map(|p| p.events).sum()
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Times `SETUP_GROUP` set-ups (the workload's configuration, topology
/// and fault plan, and `ClusterSim::new`'s validation) between
/// calibration runs; returns reference-host seconds per set-up.
fn time_setups(id: WorkloadId, scale: Scale) -> f64 {
    let ((), t) = calib::timed(|| {
        for _ in 0..SETUP_GROUP {
            let spec = Spec::build(id, scale);
            black_box(ClusterSim::new(&spec.config));
        }
    });
    t / SETUP_GROUP as f64
}

/// The disabled-observability contract: an untraced run hands back an
/// empty telemetry shell.
fn inert(obs: &ClusterObs) -> Result<(), String> {
    if obs.profiles.is_empty() && obs.registry.counters().next().is_none() {
        Ok(())
    } else {
        Err("tracing-off run produced telemetry".into())
    }
}

/// Tracing-off run: repeats the batch for `seconds` and reports the
/// end-to-end metrics from the median batch time (in reference-host
/// seconds, see [`calib`]).
pub fn untraced(id: WorkloadId, scale: Scale, seed: u64, seconds: f64) -> Result<Output, String> {
    let spec = Spec::build(id, scale);
    let mut setups = vec![time_setups(id, scale)];
    let off = spec::untraced();
    let mut ledger = Ledger::default();

    // Warm-up batch: its report is the reference every later run must
    // reproduce bit for bit.
    let (reference, obs) = spec.run(seed, spec.shards, &off);
    ledger.record(check_report(&spec, &reference).and_then(|()| inert(&obs)));

    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let ((report, obs), wall) = calib::timed(|| spec.run(seed, spec.shards, &off));
        walls.push(wall);
        ledger
            .record(check_against(&spec, &report, &reference, "repeat").and_then(|()| inert(&obs)));
        setups.push(time_setups(id, scale));
    }
    let rss = peak_rss_mib()?;
    eprintln!(
        "batch times (reference-host s): {}",
        walls.iter().map(|w| format!("{w:.4}")).collect::<Vec<_>>().join(" ")
    );

    // Outside the timed region: the same seed at another shard count, and
    // the traced run, must both reproduce the reference exactly. The
    // traced run also supplies the (deterministic) event count.
    let (other, _) = spec.run(seed, other_shards(&spec), &off);
    ledger.record(check_against(&spec, &other, &reference, "other shard count"));
    let (traced, tobs) = spec.run(seed, spec.shards, &spec::traced());
    ledger.record(check_against(&spec, &traced, &reference, "traced run"));

    let wall = median(walls);
    let mut out = Output::default();
    out.push("sim_requests_per_s", spec.total_requests() as f64 / wall);
    out.push("host_ns_per_event", wall * 1e9 / events(&tobs).max(1) as f64);
    out.push("setup_s", median(setups));
    out.push("peak_rss_mib", rss);
    out.push("sim_access_time_s", reference.mean_access_time);
    out.push("sim_bytes_per_request", reference.bytes_per_request);
    out.push("sim_availability", 1.0 - reference.unavailability());
    out.push(
        "passed_run_ratio",
        (ledger.attempted - ledger.failed) as f64 / ledger.attempted as f64,
    );
    Ok(finish(out, ledger))
}

/// Stamps the ledger's verdict on the result and logs failed checks.
fn finish(mut out: Output, ledger: Ledger) -> Output {
    for reason in &ledger.reasons {
        eprintln!("check failed: {reason}");
    }
    out.correct = ledger.all_passed();
    out.attempted = ledger.attempted;
    out.failed = ledger.failed;
    out
}

/// Request-weighted mean of an optional per-node quantity (0 when no node
/// reports it).
fn node_mean(report: &ClusterReport, get: impl Fn(&cluster::NodeReport) -> Option<f64>) -> f64 {
    let (mut sum, mut weight) = (0.0, 0.0);
    for n in &report.nodes {
        if let Some(v) = get(n) {
            sum += v * n.measured_requests as f64;
            weight += n.measured_requests as f64;
        }
    }
    if weight > 0.0 {
        sum / weight
    } else {
        0.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Traced run: one batch with observability on, cross-checked runs at the
/// other shard count and under an empty fault plan, the recorded request
/// stream, and a replay of every layer.
pub fn traced(id: WorkloadId, scale: Scale, seed: u64) -> Result<Output, String> {
    let spec = Spec::build(id, scale);
    let (off, on) = (spec::untraced(), spec::traced());
    let mut ledger = Ledger::default();

    // A warm-up batch first: its report is the reference, and the timed
    // batches after it do not pay the allocator's first-touch cost.
    let (reference, _) = spec.run(seed, spec.shards, &off);
    ledger.record(check_report(&spec, &reference));
    // The request stream, recorded without faults: bit-identical to the
    // empty-plan run through the fault machinery.
    let (recorded, records) = ClusterSim::new(&spec.config).run_recorded(seed, 1);
    if spec.faults.is_none() {
        ledger.record(check_against(&spec, &recorded, &reference, "recorded run"));
    }

    // Wall-time comparisons (shard scaling, tracing overhead, empty fault
    // plan) alternate their sides over `REPEATS` rounds and keep medians,
    // so host drift hits both sides alike.
    let other = other_shards(&spec);
    let (mut native, mut at_other, mut traced_walls, mut empty_walls) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut observed = None;
    for _ in 0..REPEATS {
        let ((r, _), w) = timed(|| spec.run(seed, spec.shards, &off));
        ledger.record(check_against(&spec, &r, &reference, "repeat"));
        native.push(w);
        let ((r, _), w) = timed(|| spec.run(seed, other, &off));
        ledger.record(check_against(&spec, &r, &reference, "other shard count"));
        at_other.push(w);
        let ((r, o), w) = timed(|| spec.run(seed, spec.shards, &on));
        ledger.record(check_against(&spec, &r, &reference, "traced run"));
        traced_walls.push(w);
        observed = Some((r, o));
        if spec.faults.is_some() {
            let ((r, _), w) = timed(|| spec.run_empty_plan(seed, spec.shards, &off));
            ledger.record(check_against(&spec, &r, &recorded, "empty fault plan"));
            empty_walls.push(w);
        }
    }
    let (report, obs) = observed.expect("at least one round");
    let (wall, other_wall) = (median(native), median(at_other));
    let traced_wall = median(traced_walls);
    let (wall_1, wall_2) = if spec.shards == 1 { (wall, other_wall) } else { (other_wall, wall) };
    let profiles_2 = if spec.shards == 2 {
        obs.profiles.clone()
    } else {
        let (r, o) = spec.run(seed, 2, &on);
        ledger.record(check_against(&spec, &r, &reference, "traced 2-shard run"));
        o.profiles
    };
    let (empty_events, empty_wall) = if spec.faults.is_some() {
        let (r, o) = spec.run_empty_plan(seed, spec.shards, &on);
        ledger.record(check_against(&spec, &r, &recorded, "traced empty fault plan"));
        (events(&o), median(empty_walls))
    } else {
        (events(&obs), wall)
    };

    let mut out = Output::default();
    let reg = &obs.registry;
    let n_events = events(&obs);
    let heap_hwm = obs.profiles.iter().map(|p| p.heap_depth_hwm).max().unwrap_or(0);

    // simcore.sched
    let sched_ns = layers::sched(spec.timer_keys(), heap_hwm, n_events, seed);
    out.push("sched.events", n_events as f64);
    out.push("sched.heap_depth_hwm", heap_hwm as f64);
    out.push("sched.ns_per_event", sched_ns);

    // queueing
    let topo_links = spec.config.topology.links();
    let loads: Vec<LinkLoad> = report
        .links
        .iter()
        .zip(topo_links)
        .map(|(l, t)| LinkLoad {
            bandwidth: t.bandwidth,
            utilisation: l.utilisation,
            jobs: l.jobs_completed,
            mean_work: ratio(l.bytes_carried, l.jobs_completed as f64),
        })
        .collect();
    let link_jobs: u64 = report.links.iter().map(|l| l.jobs_completed).sum();
    let ps_ns = layers::ps_links(&loads, seed);
    out.push("queueing.link_jobs", link_jobs as f64);
    out.push("queueing.max_link_util", report.max_link_utilisation());
    out.push("queueing.queue_depth_hwm", reg.gauge_value("links.queue_depth.hwm").unwrap_or(0.0));
    out.push("queueing.ps_ns_per_job", ps_ns);

    // predictor, then cachesim on the predictor's candidates.
    let streams = Streams::split(&records, spec.proxies());
    let adaptive = spec.adaptive();
    let max_candidates = adaptive.map_or(3, |w| w.max_candidates);
    let (pred_ns, candidates) = layers::markov(&streams, max_candidates);
    let pred_calls = reg.counter_value("predictor.calls");
    out.push("predictor.calls", pred_calls as f64);
    out.push("predictor.predictions", reg.counter_value("predictor.predictions") as f64);
    out.push("predictor.ns_per_call", pred_ns);

    let setup = CacheSetup {
        items: spec.cache_capacity().unwrap_or(64),
        bytes: adaptive.and_then(|w| w.cache_bytes),
        mshr: adaptive.map_or(MshrConfig::default(), |w| MshrConfig {
            entries: w.delayed.mshr_entries,
            coalesce: w.delayed.coalesce,
        }),
        threshold: match adaptive.map(|w| w.policy) {
            Some(ProxyPolicy::FixedThreshold(th)) => th,
            Some(ProxyPolicy::Adaptive) => node_mean(&report, |n| n.mean_threshold),
            Some(ProxyPolicy::NoPrefetch) | None => f64::INFINITY,
        },
    };
    let delays: Vec<f64> = report.nodes.iter().map(|n| n.mean_retrieval_time).collect();
    let cache = layers::cache(&streams, &candidates, setup, &delays, None);
    let sum_nodes = |get: fn(&cluster::NodeReport) -> Option<u64>| -> f64 {
        report.nodes.iter().filter_map(get).sum::<u64>() as f64
    };
    out.push("cache.probes", cache.probes as f64);
    out.push("cache.hit_ratio", node_mean(&report, |n| Some(n.hit_ratio)));
    out.push("cache.prefetch_inserts", cache.prefetch_inserts as f64);
    out.push("cache.evictions", cache.evictions as f64);
    out.push("mshr.coalesced", sum_nodes(|n| n.coalesced_requests));
    out.push("mshr.origin_fetches", sum_nodes(|n| n.origin_fetches));
    out.push("mshr.failed", sum_nodes(|n| n.mshr_failed));
    out.push("cache.ns_per_probe", cache.ns_per_probe);

    // prefetch-core: model outputs of the run itself.
    let goodput: f64 = report.nodes.iter().filter_map(|n| n.goodput_bytes).sum();
    let badput: f64 = report.nodes.iter().filter_map(|n| n.badput_bytes).sum();
    let issued = reg.counter_value("prefetch.issued");
    out.push("prefetch.issued", issued as f64);
    out.push("prefetch.useful_ratio", ratio(goodput, goodput + badput));
    out.push("controller.mean_threshold", node_mean(&report, |n| n.mean_threshold));
    out.push("controller.rho_prime", node_mean(&report, |n| n.rho_prime_estimate));

    // coop: churn snapshots come from an untimed second cache pass.
    let coop_cfg = spec.coop().copied().unwrap_or_default();
    let snap = layers::cache(&streams, &candidates, setup, &delays, Some(coop_cfg.digest.epoch));
    let coop_replay = layers::coop(coop_cfg, setup.items, &snap.epochs, &snap.misses);
    ledger.record(if coop_replay.routers_agree {
        Ok(())
    } else {
        Err("delta-driven and rebuilt routers resolve differently".into())
    });
    let coop = report.coop.unwrap_or_default();
    out.push("coop.peer_fetches", coop.peer_fetches as f64);
    out.push("coop.false_hit_ratio", ratio(coop.peer_false_hits as f64, coop.peer_fetches as f64));
    out.push("coop.digest_bytes", coop.router.digest_bytes as f64);
    out.push("coop.delta_ops", coop.router.delta_ops as f64);
    out.push("coop.snapshot_flushes", coop.router.snapshot_flushes as f64);
    out.push("coop.resolve_ns", coop_replay.resolve_ns);
    out.push("coop.refresh_ns_per_epoch.deltas", coop_replay.deltas_ns_per_epoch);
    out.push("coop.refresh_ns_per_epoch.rebuild", coop_replay.rebuild_ns_per_epoch);

    // workload
    let synth = adaptive.map_or_else(Default::default, |w| w.proxies[0]);
    let gen_ns = layers::synth_web(synth, records.len() as u64, seed);
    let (decode_ns, resident) = layers::decode(&records)?;
    out.push("workload.requests", records.len() as f64);
    out.push("workload.gen_ns_per_request", gen_ns);
    out.push("workload.decode_ns_per_record", decode_ns);
    out.push("workload.peak_resident_bytes", resident as f64);

    // simcore.faults
    let sum_u64 = |get: fn(&cluster::NodeReport) -> u64| -> f64 {
        report.nodes.iter().map(get).sum::<u64>() as f64
    };
    out.push("faults.timeouts", sum_u64(|n| n.timeouts));
    out.push("faults.retries", sum_u64(|n| n.retries));
    out.push("faults.failovers", sum_u64(|n| n.failovers));
    out.push("faults.failed_fetches", sum_u64(|n| n.failed_fetches));
    out.push("faults.host_ns_per_event", wall * 1e9 / n_events.max(1) as f64);
    out.push("faults.empty_plan_events", empty_events as f64);
    out.push("faults.empty_plan_host_ns_per_event", empty_wall * 1e9 / empty_events.max(1) as f64);

    // cluster: shard driver at 2 shards, and the attribution residual.
    let total = |w: fn(&simcore::ShardProfile) -> &simcore::Welford| -> f64 {
        profiles_2.iter().map(|p| w(p).count() as f64 * w(p).mean()).sum()
    };
    out.push("shard.windows", profiles_2.iter().map(|p| p.windows).sum::<u64>() as f64);
    out.push("shard.effects_sent", profiles_2.iter().map(|p| p.effects_sent).sum::<u64>() as f64);
    out.push(
        "shard.mailbox_hwm",
        profiles_2.iter().map(|p| p.mailbox_hwm).max().unwrap_or(0) as f64,
    );
    out.push("shard.window_wall_s", total(|p| &p.window_wall));
    out.push("shard.barrier_wait_s", total(|p| &p.barrier_wall));
    out.push("shard.speedup_2v1", wall_1 / wall_2);

    let closed_loop = adaptive.is_some();
    let mut attributed = sched_ns * n_events as f64 + ps_ns * link_jobs as f64;
    if closed_loop {
        attributed += cache.ns_per_probe * spec.total_requests() as f64
            + pred_ns * pred_calls as f64
            + gen_ns * spec.total_requests() as f64;
    }
    if report.coop.is_some() {
        let resolves = sum_nodes(|n| n.origin_fetches) + issued as f64;
        attributed += coop_replay.resolve_ns * resolves
            + coop_replay.deltas_ns_per_epoch * coop.router.digest_epochs as f64;
    }
    let attributed = attributed * 1e-9;
    out.push("cluster.run_wall_s", wall);
    out.push("cluster.attributed_s", attributed);
    out.push("cluster.engine_residual_s", wall - attributed);
    out.push("sim_access_time_p99_s", obs.latency_quantile(0.99).unwrap_or(0.0));

    out.push("obs.overhead_ratio", traced_wall / wall - 1.0);
    out.push("obs.traced_wall_s", traced_wall);
    Ok(finish(out, ledger))
}
