//! Cluster-layer observability: the engine's probe seam and the merged
//! run telemetry, built on [`simcore::obs`] and [`simcore::trace`].
//!
//! * [`Probe`] (crate-private) — the one seam between the engine's
//!   handlers and whatever watches them. Each shard engine owns at most
//!   one, boxed behind an `Option`, so a run that neither observes nor
//!   records pays one branch per hook. Handlers emit job-lifecycle events
//!   ([`SpanEvent`]s) and access-time samples into it; its consumers are
//!   the [`EngineObs`] metrics, the [`TraceBuf`] span buffer and the
//!   recorded requests, each present only when the run asked for it.
//! * [`EngineObs`] (crate-private) — a metrics [`Registry`]: the
//!   request-latency histogram, request/predictor/prefetch counters, and
//!   epoch-grid time series (per-link utilisation, aggregate queue depth,
//!   cache occupancy, outstanding prefetches) sampled on a fixed grid.
//! * [`ClusterObs`] (public) — what a run hands back: the per-shard
//!   registries merged into one, shard runtime profiles, the flight-
//!   recorder tail, and the driver/wall metadata. Renders to the
//!   `OBS_cluster.json` section via [`ClusterObs::to_json`].
//!
//! # Determinism contract
//!
//! The probe only *reads*: handlers hand it copies of what they computed
//! anyway, no RNG is drawn, no event is scheduled, and the only job field
//! it advances is the span sequence number that only traces read. So
//! `ClusterReport` is bit-identical with every consumer on or off (the
//! obs, trace and replay parity suites pin this), and since each
//! access-time sample reaches the ledger and the histogram in one call,
//! the histogram holds exactly the report's samples. Every public handler
//! (and the cross-shard `apply_now` path) ticks the sampling grid
//! *before* mutating state, so the sample for grid point `g` reflects
//! "all events strictly before `g`" under every sharding. Wall-clock
//! readings exist only in the driver profiles and never touch simulation
//! state.

use crate::report::ClusterReport;
use crate::sim::Scope;
use crate::topology::Topology;
use queueing::ServerTable;
use simcore::json::Json;
use simcore::obs::{CounterId, Dist, DistId, FlightRecord, GaugeId, ObsConfig, SeriesId};
use simcore::trace::{
    self, ClassAttribution, SpanEvent, SpanKind, TraceBuf, TraceStore, BUCKETS, TF_PREFETCH,
};
use simcore::{Registry, ShardProfile};
use workload::TraceRecord;

/// Upper bound on per-link utilisation series shipped in the JSON artifact.
/// The registry always keeps every link; the artifact reports the backbone
/// plus the busiest access/peer links and says how many were elided.
const MAX_LINK_SERIES: usize = 16;

/// Flight records shipped in the JSON artifact (newest retained records).
const MAX_FLIGHT_JSON: usize = 64;

/// The engine's one probe seam: every job-lifecycle event and access-time
/// sample a handler emits passes through here to the consumers the run
/// asked for. A shard engine holds `Option<Box<Probe>>`, `Some` exactly
/// when the run is observed or recorded.
pub(crate) struct Probe {
    /// Metrics, latency histogram and grid series (observed runs).
    pub(crate) obs: Option<EngineObs>,
    /// Head-sampled span records (observed runs with `trace_every > 0`).
    pub(crate) trace: Option<TraceBuf>,
    /// Issued requests, one list per local proxy (recording runs).
    pub(crate) recorder: Option<Vec<Vec<TraceRecord>>>,
}

impl Probe {
    /// The probe of one scope: `None` unless the run is observed (an
    /// enabled `cfg`) or recorded.
    pub(crate) fn new(
        cfg: Option<&ObsConfig>,
        grid: f64,
        record: bool,
        topology: &Topology,
        scope: &Scope,
    ) -> Option<Box<Probe>> {
        if cfg.is_none() && !record {
            return None;
        }
        Some(Box::new(Probe {
            obs: cfg.map(|c| EngineObs::new(c, grid, topology, scope)),
            trace: cfg.filter(|c| c.trace_every > 0).map(|c| TraceBuf::new(c.trace_every)),
            recorder: record.then(|| vec![Vec::new(); scope.proxies.len()]),
        }))
    }

    /// One job-lifecycle event. The registry counts link occupancy and
    /// prefetch issues from it; the span buffer keeps it when its trace
    /// is head-sampled (a nonzero trace id).
    #[inline]
    pub(crate) fn event(&mut self, ev: SpanEvent) {
        if let Some(o) = self.obs.as_mut() {
            o.event(&ev);
        }
        if ev.trace != 0 {
            if let Some(b) = self.trace.as_mut() {
                b.push(ev);
            }
        }
    }

    /// One user-perceived access-time sample (hits are 0.0 by the
    /// report's convention).
    #[inline]
    pub(crate) fn latency(&mut self, x: f64) {
        if let Some(o) = self.obs.as_mut() {
            o.reg.record(o.latency, x);
        }
    }

    /// Request `idx` of global proxy `me` (local index `i`) arrives: it is
    /// counted, recorded as `rec` builds it, and its trace id returned
    /// when head-sampled (0 otherwise) — a pure hash of `(proxy, request
    /// index)`, identical under every sharding.
    #[inline]
    pub(crate) fn request(
        &mut self,
        i: usize,
        me: u64,
        idx: u64,
        rec: impl FnOnce() -> TraceRecord,
    ) -> u64 {
        if let Some(o) = self.obs.as_mut() {
            o.reg.inc(o.requests, 1);
        }
        if let Some(r) = self.recorder.as_mut() {
            r[i].push(rec());
        }
        self.trace.as_ref().map_or(0, |b| b.admit(trace::request_trace_id(me, idx)))
    }

    /// Head-sampling decision for prefetch job `id` of global proxy `me`.
    /// The prefetch-id stream mirrors the job-id stream: the low 40 bits
    /// of `id` are the proxy's job sequence number.
    #[inline]
    pub(crate) fn prefetch_trace(&self, me: u64, id: u64) -> u64 {
        self.trace
            .as_ref()
            .map_or(0, |b| b.admit(trace::prefetch_trace_id(me, id & ((1 << 40) - 1))))
    }

    /// One predictor scoring call that produced `n` candidates.
    #[inline]
    pub(crate) fn predictions(&mut self, n: u64) {
        if let Some(o) = self.obs.as_mut() {
            o.reg.inc(o.pred_calls, 1);
            o.reg.inc(o.predictions, n);
        }
    }
}

/// The metrics consumer of one shard engine's [`Probe`].
pub(crate) struct EngineObs {
    /// Sampling grid in simulation seconds; `<= 0` disables series probes.
    grid: f64,
    /// Next grid point to flush is `grid * k`.
    k: u64,
    next_t: f64,
    reg: Registry,
    latency: DistId,
    requests: CounterId,
    pred_calls: CounterId,
    predictions: CounterId,
    prefetches: CounterId,
    qdepth_gauge: GaugeId,
    /// Series handles, present only when `grid > 0`.
    s_cache: Option<SeriesId>,
    s_inflight: Option<SeriesId>,
    s_qdepth: Option<SeriesId>,
    /// Per local link: utilisation series handle and the busy-time integral
    /// at the previous grid point.
    link_series: Vec<SeriesId>,
    link_busy_last: Vec<f64>,
    /// Jobs queued or in service across the scope's links (enqueues minus
    /// dequeues), and its high-water mark.
    qdepth_now: i64,
    qdepth_hwm: i64,
}

impl EngineObs {
    fn new(cfg: &ObsConfig, grid: f64, topology: &Topology, scope: &Scope) -> EngineObs {
        let mut reg = Registry::new();
        let latency =
            reg.dist_hist("latency.access", cfg.latency_lo, cfg.latency_hi, cfg.latency_bins);
        let requests = reg.counter("requests.processed");
        let pred_calls = reg.counter("predictor.calls");
        let predictions = reg.counter("predictor.predictions");
        let prefetches = reg.counter("prefetch.issued");
        let qdepth_gauge = reg.gauge("links.queue_depth.hwm");
        let (s_cache, s_inflight, s_qdepth, link_series) = if grid > 0.0 {
            let cache = reg.series("cache.occupancy_bytes");
            let inflight = reg.series("prefetch.outstanding");
            let qdepth = reg.series("links.queue_depth");
            let links = scope
                .links
                .iter()
                .map(|&g| reg.series(&format!("link_util.{}", topology.links()[g].name)))
                .collect();
            (Some(cache), Some(inflight), Some(qdepth), links)
        } else {
            (None, None, None, Vec::new())
        };
        EngineObs {
            grid,
            k: 0,
            next_t: if grid > 0.0 { 0.0 } else { f64::INFINITY },
            reg,
            latency,
            requests,
            pred_calls,
            predictions,
            prefetches,
            qdepth_gauge,
            s_cache,
            s_inflight,
            s_qdepth,
            link_series,
            link_busy_last: vec![0.0; if grid > 0.0 { scope.links.len() } else { 0 }],
            qdepth_now: 0,
            qdepth_hwm: 0,
        }
    }

    /// Counts what the registry tracks of one job-lifecycle event: a job
    /// entering or leaving a link, and a prefetch issue.
    #[inline]
    fn event(&mut self, ev: &SpanEvent) {
        match ev.kind {
            SpanKind::Enqueue => {
                self.qdepth_now += 1;
                self.qdepth_hwm = self.qdepth_hwm.max(self.qdepth_now);
            }
            SpanKind::Dequeue => self.qdepth_now -= 1,
            SpanKind::Issue if ev.flags & TF_PREFETCH != 0 => self.reg.inc(self.prefetches, 1),
            _ => {}
        }
    }

    /// Flushes every grid point `<= t`. `aggregates` returns the scope's
    /// current (cache occupancy bytes, outstanding prefetch count); it is
    /// invoked once even if several grid points are crossed, because local
    /// state cannot change between consecutive flushes inside one tick.
    pub(crate) fn tick(
        &mut self,
        t: f64,
        servers: &ServerTable,
        aggregates: impl FnOnce() -> (f64, f64),
    ) {
        if self.next_t > t {
            return;
        }
        let (cache_bytes, outstanding) = aggregates();
        let qdepth = self.qdepth_now as f64;
        while self.next_t <= t {
            for (li, &sid) in self.link_series.iter().enumerate() {
                let busy = servers.busy_time(li);
                let util = (busy - self.link_busy_last[li]) / self.grid;
                self.link_busy_last[li] = busy;
                self.reg.push_point(sid, util);
            }
            if let Some(s) = self.s_cache {
                self.reg.push_point(s, cache_bytes);
            }
            if let Some(s) = self.s_inflight {
                self.reg.push_point(s, outstanding);
            }
            if let Some(s) = self.s_qdepth {
                self.reg.push_point(s, qdepth);
            }
            self.k += 1;
            self.next_t = self.grid * self.k as f64;
        }
    }

    /// Final flush at the end of a run: settles gauges and returns the
    /// engine's registry for merging. Callers tick to the cluster-wide
    /// `t_end` first so every shard's series have identical length.
    pub(crate) fn finish(mut self) -> Registry {
        let hwm = self.qdepth_hwm;
        self.reg.gauge_max(self.qdepth_gauge, hwm as f64);
        self.reg
    }
}

/// Merged observability output of one cluster run: the registry reduced
/// across shards, per-shard runtime profiles, and the flight-recorder tail.
///
/// Everything except the wall-clock fields (`wall_secs`, the profile wall
/// timers) and the flight/profile *contents* is deterministic for a fixed
/// shard count; the simulation metrics (counters, latency distribution,
/// series sums) are additionally stable across shard counts up to
/// floating-point reduction order.
pub struct ClusterObs {
    /// All shard registries merged (counters added, gauges maxed,
    /// distributions merged, series summed element-wise).
    pub registry: Registry,
    /// Per-shard driver profiles, in shard order.
    pub profiles: Vec<ShardProfile>,
    /// Flight-recorder survivors across all shards, ordered by
    /// `(time, shard)`.
    pub flight: Vec<FlightRecord>,
    /// Shards the run was asked for, clamped to the proxy count (a
    /// zero-lookahead cut reports its count but runs as one shard).
    pub shards: usize,
    /// How the driver ran: `"windowed"` when shards ran on their own
    /// threads, `"sequential"` for the one-thread run.
    pub driver: &'static str,
    /// Sampling grid the series used (`0` when series were disabled).
    pub grid: f64,
    /// Virtual duration of the run.
    pub duration: f64,
    /// Wall-clock seconds for the whole run (set by the caller that owns
    /// the timer; never read by simulation code).
    pub wall_secs: f64,
    /// Extracted causal traces, present when the run set a
    /// `trace_every > 0` (bit-identical across shard counts).
    pub traces: Option<TraceStore>,
}

impl ClusterObs {
    /// An empty shell for "observed" runs with observability disabled.
    pub fn empty(shards: usize, driver: &'static str) -> ClusterObs {
        ClusterObs {
            registry: Registry::new(),
            profiles: Vec::new(),
            flight: Vec::new(),
            shards,
            driver,
            grid: 0.0,
            duration: 0.0,
            wall_secs: 0.0,
            traces: None,
        }
    }

    /// Per-class latency attribution over the run's sampled traces
    /// (empty when tracing was off).
    pub fn attribution(&self) -> Vec<ClassAttribution> {
        self.traces.as_ref().map(TraceStore::attribution).unwrap_or_default()
    }

    /// The merged request-latency distribution.
    pub fn latency(&self) -> Option<&Dist> {
        self.registry.dist_stats("latency.access")
    }

    /// Latency quantile from the merged histogram.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.latency().and_then(|d| d.quantile(q))
    }

    /// Predictor throughput in candidates scored per wall second.
    pub fn preds_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.registry.counter_value("predictor.predictions") as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Events dispatched per wall second, summed over shards.
    pub fn events_per_sec(&self) -> f64 {
        let events: u64 = self.profiles.iter().map(|p| p.events).sum();
        if self.wall_secs > 0.0 {
            events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Mean utilisation of a named link's series, if sampled.
    pub fn mean_link_util(&self, name: &str) -> Option<f64> {
        let pts = self.registry.series_points(&format!("link_util.{name}"))?;
        if pts.is_empty() {
            return None;
        }
        Some(pts.iter().sum::<f64>() / pts.len() as f64)
    }

    /// Renders the run's telemetry as one JSON object. Per-link series are
    /// capped at `MAX_LINK_SERIES` (backbone first, then busiest by mean
    /// utilisation); `links_total`/`links_reported` record the elision.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (name, v) in self.registry.counters() {
            counters.insert(name, Json::num(v as f64));
        }
        let mut gauges = Json::obj();
        for (name, v) in self.registry.gauges() {
            if v.is_finite() {
                gauges.insert(name, Json::num(v));
            }
        }

        let latency = self.latency().map_or(Json::Null, Dist::to_json);

        let mut series = Json::obj();
        for key in ["cache.occupancy_bytes", "prefetch.outstanding", "links.queue_depth"] {
            if let Some(pts) = self.registry.series_points(key) {
                series.insert(key, Json::nums(pts.iter().copied()));
            }
        }

        // Rank link series: backbone first, then by descending mean
        // utilisation, name as the deterministic tie-break.
        let mut ranked: Vec<(&str, &[f64], f64)> = self
            .registry
            .all_series()
            .filter_map(|(name, pts)| {
                let link = name.strip_prefix("link_util.")?;
                let mean =
                    if pts.is_empty() { 0.0 } else { pts.iter().sum::<f64>() / pts.len() as f64 };
                Some((link, pts, mean))
            })
            .collect();
        let links_total = ranked.len();
        ranked.sort_by(|a, b| {
            let key_a = (a.0 != "backbone", std::cmp::Reverse(FiniteOrd(a.2)), a.0);
            let key_b = (b.0 != "backbone", std::cmp::Reverse(FiniteOrd(b.2)), b.0);
            key_a.cmp(&key_b)
        });
        ranked.truncate(MAX_LINK_SERIES);
        let mut link_util = Json::obj();
        for (name, pts, _) in &ranked {
            link_util.insert(*name, Json::nums(pts.iter().copied()));
        }

        let profiles = Json::Arr(self.profiles.iter().map(ShardProfile::to_json).collect());

        let shown = self.flight.len().min(MAX_FLIGHT_JSON);
        let flight_records = Json::Arr(
            self.flight[self.flight.len() - shown..]
                .iter()
                .map(|r| {
                    Json::obj()
                        .set("t", Json::num(r.t))
                        .set("shard", Json::num(r.shard as f64))
                        .set(
                            "kind",
                            Json::str(match r.kind {
                                simcore::obs::FlightKind::Dispatch => "dispatch",
                                simcore::obs::FlightKind::EffectIn => "effect_in",
                            }),
                        )
                        .set("class", Json::num(r.class as f64))
                        .set("entity", Json::num(r.entity as f64))
                })
                .collect(),
        );

        Json::obj()
            .set("shards", Json::num(self.shards as f64))
            .set("driver", Json::str(self.driver))
            .set("grid", Json::num(self.grid))
            .set("duration", Json::num(self.duration))
            .set("wall_secs", Json::num(self.wall_secs))
            .set("events_per_sec", Json::num(self.events_per_sec()))
            .set("preds_per_sec", Json::num(self.preds_per_sec()))
            .set("counters", counters)
            .set("gauges", gauges)
            .set("latency", latency)
            .set("series", series)
            .set(
                "link_util",
                Json::obj()
                    .set("total", Json::num(links_total as f64))
                    .set("reported", Json::num(ranked.len() as f64))
                    .set("series", link_util),
            )
            .set("profiles", profiles)
            .set(
                "flight",
                Json::obj()
                    .set("retained", Json::num(self.flight.len() as f64))
                    .set("records", flight_records),
            )
            .set("trace", self.traces.as_ref().map_or(Json::Null, |s| s.to_json(5)))
    }
}

/// Total order on finite utilisation means (NaN cannot occur: means of
/// finite series).
#[derive(PartialEq)]
struct FiniteOrd(f64);

impl Eq for FiniteOrd {}
impl PartialOrd for FiniteOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FiniteOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Serialises a [`ClusterReport`] with the workspace JSON codec — the
/// machine-readable twin of the report's `Debug` form, used by the
/// experiment artifacts.
pub fn report_to_json(r: &ClusterReport) -> Json {
    let nodes = Json::Arr(
        r.nodes
            .iter()
            .map(|n| {
                let mut doc = Json::obj()
                    .set("proxy", Json::num(n.proxy as f64))
                    .set("measured_requests", Json::num(n.measured_requests as f64))
                    .set("hit_ratio", Json::num(n.hit_ratio))
                    .set("mean_access_time", Json::num(n.mean_access_time))
                    .set("access_time_ci95", Json::num(n.access_time_ci95))
                    .set("mean_retrieval_time", Json::num(n.mean_retrieval_time))
                    .set("retrieval_per_request", Json::num(n.retrieval_per_request))
                    .set("prefetches_per_request", Json::num(n.prefetches_per_request))
                    .set("demand_bytes", Json::num(n.demand_bytes));
                let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::num);
                doc.insert("goodput_bytes", opt_num(n.goodput_bytes));
                doc.insert("badput_bytes", opt_num(n.badput_bytes));
                doc.insert("cache_used_bytes", opt_num(n.cache_used_bytes));
                doc.insert("peer_bytes", opt_num(n.peer_bytes));
                doc.insert("peer_fetches", opt_num(n.peer_fetches.map(|v| v as f64)));
                doc.insert("peer_false_hits", opt_num(n.peer_false_hits.map(|v| v as f64)));
                doc.insert("mean_threshold", opt_num(n.mean_threshold));
                doc.insert("rho_prime_estimate", opt_num(n.rho_prime_estimate));
                doc.insert("h_prime_estimate", opt_num(n.h_prime_estimate));
                doc.insert("delayed_hits", opt_num(n.delayed_hits.map(|v| v as f64)));
                doc.insert("coalesced_requests", opt_num(n.coalesced_requests.map(|v| v as f64)));
                doc.insert("origin_fetches", opt_num(n.origin_fetches.map(|v| v as f64)));
                doc.insert("mean_residual_wait", opt_num(n.mean_residual_wait));
                doc.insert("mean_waiter_depth", opt_num(n.mean_waiter_depth));
                doc.insert("mshr_rejections", opt_num(n.mshr_rejections.map(|v| v as f64)));
                doc.insert("demand_misses", opt_num(n.demand_misses.map(|v| v as f64)));
                doc.insert("mshr_failed", opt_num(n.mshr_failed.map(|v| v as f64)));
                doc = doc
                    .set("timeouts", Json::num(n.timeouts as f64))
                    .set("retries", Json::num(n.retries as f64))
                    .set("failovers", Json::num(n.failovers as f64))
                    .set("failed_fetches", Json::num(n.failed_fetches as f64))
                    .set("lost_entries", Json::num(n.lost_entries as f64))
                    .set("unavailability", Json::num(n.unavailability));
                doc
            })
            .collect(),
    );
    let links = Json::Arr(
        r.links
            .iter()
            .map(|l| {
                Json::obj()
                    .set("name", Json::str(l.name.to_string()))
                    .set("utilisation", Json::num(l.utilisation))
                    .set("bytes_carried", Json::num(l.bytes_carried))
                    .set("jobs_completed", Json::num(l.jobs_completed as f64))
            })
            .collect(),
    );
    let coop = r.coop.as_ref().map_or(Json::Null, |c| {
        Json::obj()
            .set("router", c.router.to_json())
            .set("peer_fetches", Json::num(c.peer_fetches as f64))
            .set("peer_false_hits", Json::num(c.peer_false_hits as f64))
    });
    Json::obj()
        .set("mean_access_time", Json::num(r.mean_access_time))
        .set("bytes_per_request", Json::num(r.bytes_per_request))
        .set("duration", Json::num(r.duration))
        .set("max_link_utilisation", Json::num(r.max_link_utilisation()))
        .set("nodes", nodes)
        .set("links", links)
        .set("coop", coop)
}

/// Assembles the final [`ClusterObs`] from per-shard pieces: merged
/// registries (in shard order), profiles, flight records sorted by
/// `(time, shard)`, and the merged trace store (when tracing ran).
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble(
    registries: Vec<Registry>,
    profiles: Vec<ShardProfile>,
    mut flight: Vec<FlightRecord>,
    traces: Option<TraceStore>,
    shards: usize,
    driver: &'static str,
    grid: f64,
    duration: f64,
) -> ClusterObs {
    let mut registry = Registry::new();
    for r in &registries {
        registry.merge(r);
    }
    flight.sort_by(|a, b| a.t.total_cmp(&b.t).then(a.shard.cmp(&b.shard)));
    // Trace-derived aggregates become first-class registry metrics. The
    // store iterates in its deterministic `(start, id)` order, so these
    // reductions are identical at every shard count.
    if let Some(store) = &traces {
        for a in store.attribution() {
            let id = registry.counter(&format!("trace.count.{}", a.class.name()));
            registry.inc(id, a.traces);
        }
        let lat = registry.dist("trace.latency");
        let seg_ids: Vec<DistId> =
            BUCKETS.iter().map(|b| registry.dist(&format!("trace.seg.{b}"))).collect();
        for tr in &store.traces {
            registry.record(lat, tr.latency());
            for s in &tr.segments {
                let bi = BUCKETS.iter().position(|&n| n == s.bucket()).unwrap();
                registry.record(seg_ids[bi], s.duration());
            }
        }
    }
    ClusterObs {
        registry,
        profiles,
        flight,
        shards,
        driver,
        grid,
        duration,
        wall_secs: 0.0,
        traces,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_obs_renders() {
        let obs = ClusterObs::empty(2, "sequential");
        let doc = obs.to_json();
        assert_eq!(doc.get("shards").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("driver").and_then(Json::as_str), Some("sequential"));
        assert_eq!(doc.get("preds_per_sec").and_then(Json::as_f64), Some(0.0));
    }
}
