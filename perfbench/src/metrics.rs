//! Metric names, units, and the one-line JSON result.

/// End-to-end metrics (tracing off), in print order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("sim_requests_per_s", "1/s"),
    ("host_ns_per_event", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_access_time_s", "s"),
    ("sim_bytes_per_request", "size-units"),
    ("sim_availability", "ratio"),
    ("passed_run_ratio", "ratio"),
];

/// The end-to-end metrics that are simulation outputs rather than host
/// measurements: bit-identical for a given seed on every host, shard
/// count and tracing setting (`sim_requests_per_s` is host throughput).
pub const SIMULATED: [&str; 3] = ["sim_access_time_s", "sim_bytes_per_request", "sim_availability"];

/// Per-layer metrics (traced run), grouped by layer, in print order.
pub const PER_LAYER: [(&str, &str); 53] = [
    // simcore.sched
    ("sched.events", "count"),
    ("sched.heap_depth_hwm", "count"),
    ("sched.ns_per_event", "ns"),
    // queueing
    ("queueing.link_jobs", "count"),
    ("queueing.max_link_util", "ratio"),
    ("queueing.queue_depth_hwm", "count"),
    ("queueing.ps_ns_per_job", "ns"),
    // cachesim
    ("cache.probes", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.prefetch_inserts", "count"),
    ("cache.evictions", "count"),
    ("mshr.coalesced", "count"),
    ("mshr.origin_fetches", "count"),
    ("mshr.failed", "count"),
    ("cache.ns_per_probe", "ns"),
    // predictor
    ("predictor.calls", "count"),
    ("predictor.predictions", "count"),
    ("predictor.ns_per_call", "ns"),
    // prefetch-core
    ("prefetch.issued", "count"),
    ("prefetch.useful_ratio", "ratio"),
    ("controller.mean_threshold", "ratio"),
    ("controller.rho_prime", "ratio"),
    // coop
    ("coop.peer_fetches", "count"),
    ("coop.false_hit_ratio", "ratio"),
    ("coop.digest_bytes", "bytes"),
    ("coop.delta_ops", "count"),
    ("coop.snapshot_flushes", "count"),
    ("coop.resolve_ns", "ns"),
    ("coop.refresh_ns_per_epoch.deltas", "ns"),
    ("coop.refresh_ns_per_epoch.rebuild", "ns"),
    // cluster: sharded window driver and engines
    ("shard.windows", "count"),
    ("shard.effects_sent", "count"),
    ("shard.mailbox_hwm", "count"),
    ("shard.window_wall_s", "s"),
    ("shard.barrier_wait_s", "s"),
    ("shard.speedup_2v1", "ratio"),
    ("cluster.run_wall_s", "s"),
    ("cluster.attributed_s", "s"),
    ("cluster.engine_residual_s", "s"),
    ("sim_access_time_p99_s", "s"),
    // simcore.faults
    ("faults.timeouts", "count"),
    ("faults.retries", "count"),
    ("faults.failovers", "count"),
    ("faults.failed_fetches", "count"),
    ("faults.host_ns_per_event", "ns"),
    ("faults.empty_plan_events", "count"),
    ("faults.empty_plan_host_ns_per_event", "ns"),
    // workload
    ("workload.requests", "count"),
    ("workload.gen_ns_per_request", "ns"),
    ("workload.decode_ns_per_record", "ns"),
    ("workload.peak_resident_bytes", "bytes"),
    // tracing
    ("obs.overhead_ratio", "ratio"),
    ("obs.traced_wall_s", "s"),
];

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit a metric is declared with, from either list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// The benchmark's result line.
#[derive(Debug, Default)]
pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Output {
    /// Adds one metric; its unit comes from the declared lists.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Value of a metric already pushed.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Checks that exactly the metrics of `declared` are present, once
    /// each, and every value is finite.
    pub fn complete(&self, declared: &[(&str, &str)]) -> Result<(), String> {
        for (name, _) in declared {
            match self.metrics.iter().filter(|(n, _)| n == name).count() {
                1 => {}
                0 => return Err(format!("metric {name} missing")),
                _ => return Err(format!("metric {name} reported twice")),
            }
        }
        if let Some((n, _)) = self.metrics.iter().find(|(n, _)| unit_of(n).is_none()) {
            return Err(format!("metric {n} is not declared"));
        }
        if let Some((n, v)) = self.metrics.iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("metric {n} is not finite: {v}"));
        }
        Ok(())
    }

    /// Renders the single-line JSON result, every measured digit kept.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).expect("metric units are declared");
                // `{:?}` prints the shortest round-trip form, a JSON number
                // for every finite value (`complete` rejects the rest).
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
