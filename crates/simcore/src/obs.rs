//! Deterministic observability: metrics registry, flight recorder, and
//! runtime profiles.
//!
//! Simulation telemetry has two hard requirements that rule out an
//! off-the-shelf metrics crate:
//!
//! 1. **Determinism** — instrumentation must never perturb the simulation:
//!    no RNG draws, no event reordering, no clock reads on the hot path.
//!    Everything in this module is a plain accumulator fed values the
//!    caller already computed; the only wall-clock numbers (profiler
//!    timings) are pushed in by drivers and kept out of simulation state.
//! 2. **Zero cost when off** — engines hold an `Option` of their probe
//!    state and every hook starts with a branch on `None`
//!    ([`ObsConfig::off`], the default). No sink, no allocation, no
//!    formatting unless observability was explicitly enabled.
//!
//! The pieces:
//!
//! * [`Registry`] — named counters, gauges (high-water-mark semantics),
//!   distributions ([`crate::stats::Welford`] plus an optional
//!   [`crate::stats::Histogram`] for percentiles), and epoch-grid time
//!   series. Registries merge by name so per-shard instances reduce to one
//!   global view: counters add, gauges max, distributions merge, series
//!   add element-wise (each shard contributes its local share of a global
//!   quantity at the same grid point).
//! * [`FlightRecorder`] — a bounded ring of recent [`FlightRecord`]s
//!   (event dispatches and cross-shard effect traffic) for diagnosing
//!   parity failures: when two drivers disagree, the last few hundred
//!   records on each side show where the schedules diverged.
//! * [`ShardProfile`] — per-shard runtime counters for the conservative-
//!   window driver: windows driven, events dispatched, barrier-wait and
//!   window-drain wall time, mailbox traffic, scheduler heap depth.

use crate::json::Json;
use crate::stats::{Histogram, Welford};
use std::collections::HashMap;

/// Switchboard for the observability layer. The default ([`ObsConfig::off`])
/// disables everything; [`ObsConfig::on`] enables the registry, probes,
/// profiler, and flight recorder with sensible defaults.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Master switch. When false, instrumented code paths reduce to one
    /// branch on a `None`.
    pub enabled: bool,
    /// Time-series sampling grid in simulation seconds. `0.0` means "use
    /// the domain's natural grid" — the cluster layer substitutes the
    /// cooperative digest-refresh epoch, and disables series probes when
    /// no such grid exists.
    pub sample_every: f64,
    /// Latency histogram range `[lo, hi)` and bin count (out-of-range
    /// samples land in the under/overflow buckets and still count toward
    /// quantiles).
    pub latency_lo: f64,
    pub latency_hi: f64,
    pub latency_bins: usize,
    /// Capacity of the per-shard flight-recorder ring; `0` disables it.
    pub flight_capacity: usize,
    /// Causal-trace head sampling: trace one request in `trace_every`
    /// (`0` disables tracing — the default even under [`ObsConfig::on`],
    /// since span buffers grow with the request count).
    pub trace_every: u64,
}

impl ObsConfig {
    /// Everything off — the default. Hot paths pay one branch.
    pub fn off() -> Self {
        ObsConfig {
            enabled: false,
            sample_every: 0.0,
            latency_lo: 0.0,
            latency_hi: 2.0,
            latency_bins: 200,
            flight_capacity: 0,
            trace_every: 0,
        }
    }

    /// Metrics + probes + profiler on, flight recorder with a small ring,
    /// series sampled on the domain's natural grid.
    pub fn on() -> Self {
        ObsConfig { enabled: true, flight_capacity: 256, ..ObsConfig::off() }
    }

    pub fn with_sample_every(mut self, dt: f64) -> Self {
        self.sample_every = dt;
        self
    }

    pub fn with_latency_range(mut self, lo: f64, hi: f64, bins: usize) -> Self {
        self.latency_lo = lo;
        self.latency_hi = hi;
        self.latency_bins = bins;
        self
    }

    pub fn with_flight_capacity(mut self, n: usize) -> Self {
        self.flight_capacity = n;
        self
    }

    /// Enables causal tracing, head-sampling one request in `every`
    /// (`1` traces everything, `0` turns tracing back off).
    pub fn with_trace_every(mut self, every: u64) -> Self {
        self.trace_every = every;
        self
    }
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig::off()
    }
}

/// Handle to a registered counter. Handles are plain indices — cheap to
/// copy, and hot-path updates are a bounds-checked vector write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);
/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);
/// Handle to a registered distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistId(usize);
/// Handle to a registered time series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesId(usize);

/// A streaming distribution: Welford moments always, histogram quantiles
/// when a bucket geometry was declared.
#[derive(Clone, Debug)]
pub struct Dist {
    pub moments: Welford,
    pub hist: Option<Histogram>,
}

impl Dist {
    pub fn new() -> Self {
        Dist { moments: Welford::new(), hist: None }
    }

    pub fn with_histogram(lo: f64, hi: f64, bins: usize) -> Self {
        Dist { moments: Welford::new(), hist: Some(Histogram::new(lo, hi, bins)) }
    }

    #[inline]
    pub fn record(&mut self, x: f64) {
        self.moments.push(x);
        if let Some(h) = &mut self.hist {
            h.push(x);
        }
    }

    /// Histogram quantile (`None` without a histogram or without samples).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let h = self.hist.as_ref()?;
        if h.total() == 0 {
            return None;
        }
        Some(h.quantile(q))
    }

    pub fn merge(&mut self, other: &Dist) {
        self.moments.merge(&other.moments);
        match (&mut self.hist, &other.hist) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.hist = Some(b.clone()),
            _ => {}
        }
    }

    pub fn to_json(&self) -> Json {
        let w = &self.moments;
        let mut doc = Json::obj()
            .set("count", Json::num(w.count() as f64))
            .set("mean", Json::num(w.mean()))
            .set("std_dev", Json::num(w.std_dev()))
            .set("min", Json::num(w.min()))
            .set("max", Json::num(w.max()));
        if self.hist.is_some() {
            for (key, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                doc.insert(key, Json::num(self.quantile(q).unwrap_or(f64::NAN)));
            }
        }
        doc
    }
}

impl Default for Dist {
    fn default() -> Self {
        Dist::new()
    }
}

/// Named metrics, one instance per instrumented scope. Storage is flat
/// vectors addressed by the typed handles; the name index exists only for
/// registration and merging, never for iteration, so output order is the
/// deterministic registration order.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    dists: Vec<(String, Dist)>,
    series: Vec<(String, Vec<f64>)>,
    index: HashMap<String, (Kind, usize)>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Dist,
    Series,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(&mut self, name: &str, kind: Kind, len: usize) -> Option<usize> {
        match self.index.get(name) {
            Some(&(k, i)) => {
                assert!(k == kind, "metric {name:?} re-registered as a different kind");
                Some(i)
            }
            None => {
                self.index.insert(name.to_string(), (kind, len));
                None
            }
        }
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&mut self, name: &str) -> CounterId {
        match self.register(name, Kind::Counter, self.counters.len()) {
            Some(i) => CounterId(i),
            None => {
                self.counters.push((name.to_string(), 0));
                CounterId(self.counters.len() - 1)
            }
        }
    }

    /// Gets or creates the gauge `name` (high-water-mark semantics).
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        match self.register(name, Kind::Gauge, self.gauges.len()) {
            Some(i) => GaugeId(i),
            None => {
                self.gauges.push((name.to_string(), f64::NEG_INFINITY));
                GaugeId(self.gauges.len() - 1)
            }
        }
    }

    /// Gets or creates the moments-only distribution `name`.
    pub fn dist(&mut self, name: &str) -> DistId {
        self.dist_with(name, Dist::new)
    }

    /// Gets or creates the distribution `name` with histogram quantiles.
    pub fn dist_hist(&mut self, name: &str, lo: f64, hi: f64, bins: usize) -> DistId {
        self.dist_with(name, || Dist::with_histogram(lo, hi, bins))
    }

    fn dist_with(&mut self, name: &str, make: impl FnOnce() -> Dist) -> DistId {
        match self.register(name, Kind::Dist, self.dists.len()) {
            Some(i) => DistId(i),
            None => {
                self.dists.push((name.to_string(), make()));
                DistId(self.dists.len() - 1)
            }
        }
    }

    /// Gets or creates the time series `name`.
    pub fn series(&mut self, name: &str) -> SeriesId {
        match self.register(name, Kind::Series, self.series.len()) {
            Some(i) => SeriesId(i),
            None => {
                self.series.push((name.to_string(), Vec::new()));
                SeriesId(self.series.len() - 1)
            }
        }
    }

    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 += by;
    }

    /// Raises the gauge to `v` if higher (gauges track high-water marks).
    #[inline]
    pub fn gauge_max(&mut self, id: GaugeId, v: f64) {
        if v > self.gauges[id.0].1 {
            self.gauges[id.0].1 = v;
        }
    }

    #[inline]
    pub fn record(&mut self, id: DistId, x: f64) {
        self.dists[id.0].1.record(x);
    }

    #[inline]
    pub fn push_point(&mut self, id: SeriesId, x: f64) {
        self.series[id.0].1.push(x);
    }

    /// Counter value by name (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.index.get(name) {
            Some(&(Kind::Counter, i)) => self.counters[i].1,
            _ => 0,
        }
    }

    /// Gauge value by name (`None` when absent or never raised).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.index.get(name) {
            Some(&(Kind::Gauge, i)) if self.gauges[i].1.is_finite() => Some(self.gauges[i].1),
            _ => None,
        }
    }

    /// Distribution by name.
    pub fn dist_stats(&self, name: &str) -> Option<&Dist> {
        match self.index.get(name) {
            Some(&(Kind::Dist, i)) => Some(&self.dists[i].1),
            _ => None,
        }
    }

    /// Series points by name.
    pub fn series_points(&self, name: &str) -> Option<&[f64]> {
        match self.index.get(name) {
            Some(&(Kind::Series, i)) => Some(&self.series[i].1),
            _ => None,
        }
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    pub fn dists(&self) -> impl Iterator<Item = (&str, &Dist)> {
        self.dists.iter().map(|(n, d)| (n.as_str(), d))
    }

    pub fn all_series(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.series.iter().map(|(n, s)| (n.as_str(), s.as_slice()))
    }

    /// Merges another registry by metric name: counters add, gauges take
    /// the max, distributions merge, series add element-wise (shorter
    /// series are zero-extended — each scope contributes its share of a
    /// global quantity at the same grid index). Metrics only present in
    /// `other` are adopted in `other`'s order after existing ones.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            let id = self.counter(name);
            self.inc(id, *v);
        }
        for (name, v) in &other.gauges {
            let id = self.gauge(name);
            self.gauge_max(id, *v);
        }
        for (name, d) in &other.dists {
            let id = self.dist_with(name, Dist::new);
            self.dists[id.0].1.merge(d);
        }
        for (name, pts) in &other.series {
            let id = self.series(name);
            let mine = &mut self.series[id.0].1;
            if mine.len() < pts.len() {
                mine.resize(pts.len(), 0.0);
            }
            for (slot, p) in mine.iter_mut().zip(pts) {
                *slot += p;
            }
        }
    }

    /// Full registry as one JSON object (series included — callers that
    /// need to cap series for artifact size assemble their own document
    /// from the iteration accessors instead).
    pub fn to_json(&self) -> Json {
        let counters =
            self.counters.iter().fold(Json::obj(), |d, (n, v)| d.set(n, Json::num(*v as f64)));
        let gauges = self.gauges.iter().fold(Json::obj(), |d, (n, v)| d.set(n, Json::num(*v)));
        let dists = self.dists.iter().fold(Json::obj(), |d, (n, x)| d.set(n, x.to_json()));
        let series = self
            .series
            .iter()
            .fold(Json::obj(), |d, (n, s)| d.set(n, Json::nums(s.iter().copied())));
        Json::obj()
            .set("counters", counters)
            .set("gauges", gauges)
            .set("dists", dists)
            .set("series", series)
    }
}

/// What a [`FlightRecord`] witnessed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// An event dispatched from the scheduler.
    Dispatch,
    /// A cross-shard effect received from a mailbox.
    EffectIn,
}

/// One entry in the flight-recorder ring: enough to reconstruct the tail
/// of a shard's schedule when chasing a parity failure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlightRecord {
    /// Simulation time of the record.
    pub t: f64,
    /// Shard that produced it.
    pub shard: u32,
    /// What happened.
    pub kind: FlightKind,
    /// Event class (the engine's class index).
    pub class: u8,
    /// Global id of the entity the event addressed.
    pub entity: u64,
}

/// Bounded ring of the most recent [`FlightRecord`]s. Writes are O(1) and
/// allocation-free after the ring fills; [`FlightRecorder::records`]
/// returns the survivors oldest-first.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    buf: Vec<FlightRecord>,
    cap: usize,
    head: usize,
    total: u64,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        FlightRecorder { buf: Vec::with_capacity(capacity), cap: capacity, head: 0, total: 0 }
    }

    #[inline]
    pub fn record(&mut self, rec: FlightRecord) {
        if self.cap == 0 {
            return;
        }
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Records seen over the recorder's lifetime (≥ the retained count).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> Vec<FlightRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// Runtime profile of one shard of the conservative-window driver.
///
/// The event/window/mailbox counters are deterministic for a fixed shard
/// count (the round structure is a pure function of the schedule); the
/// wall-time accumulators are not and belong in diagnostics artifacts
/// only, never in simulation output.
#[derive(Clone, Debug)]
pub struct ShardProfile {
    pub shard: usize,
    /// Conservative windows driven, boundary-instant sweeps included (a
    /// one-shard run's windows span whole boundary intervals).
    pub windows: u64,
    /// Digest-refresh rounds participated in.
    pub refreshes: u64,
    /// Events dispatched by this shard's scheduler.
    pub events: u64,
    /// `events` split by event class: entry `c` counts the dispatches of
    /// class `c`, in the driver's class order, so the entries sum to
    /// `events`.
    pub events_by_class: Vec<u64>,
    /// Cross-shard effects posted to other shards' mailboxes.
    pub effects_sent: u64,
    /// Messages drained from this shard's mailbox, per exchange.
    pub mail_in: Welford,
    /// Messages drained in total: an exact count, which `mail_in`'s
    /// `count × mean` is not.
    pub mailbox_msgs: u64,
    /// Largest single mailbox drain.
    pub mailbox_hwm: u64,
    /// Most timers armed at once in this shard's scheduler (its heap
    /// depth: the heap holds one entry per armed timer).
    pub heap_depth_hwm: usize,
    /// Scheduler arms (first arms and re-arms), construction included.
    pub sched_arms: u64,
    /// Armed scheduler timers cancelled before they fired.
    pub sched_cancels: u64,
    /// Wall seconds per window drain (non-deterministic).
    pub window_wall: Welford,
    /// Wall seconds per barrier wait (non-deterministic): one wait per
    /// window round, two per refresh or fault round.
    pub barrier_wall: Welford,
}

impl ShardProfile {
    /// An empty profile of shard `shard`, counting `n_classes` event
    /// classes.
    pub fn new(shard: usize, n_classes: usize) -> Self {
        ShardProfile {
            shard,
            windows: 0,
            refreshes: 0,
            events: 0,
            events_by_class: vec![0; n_classes],
            effects_sent: 0,
            mail_in: Welford::new(),
            mailbox_msgs: 0,
            mailbox_hwm: 0,
            heap_depth_hwm: 0,
            sched_arms: 0,
            sched_cancels: 0,
            window_wall: Welford::new(),
            barrier_wall: Welford::new(),
        }
    }

    /// Notes a mailbox drain of `n` messages.
    pub fn mailbox_drained(&mut self, n: usize) {
        self.mail_in.push(n as f64);
        self.mailbox_msgs += n as u64;
        self.mailbox_hwm = self.mailbox_hwm.max(n as u64);
    }

    /// Raises the heap-depth high-water mark.
    #[inline]
    pub fn heap_depth(&mut self, depth: usize) {
        if depth > self.heap_depth_hwm {
            self.heap_depth_hwm = depth;
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("shard", Json::num(self.shard as f64))
            .set("windows", Json::num(self.windows as f64))
            .set("refreshes", Json::num(self.refreshes as f64))
            .set("events", Json::num(self.events as f64))
            .set(
                "events_by_class",
                Json::Arr(self.events_by_class.iter().map(|&n| Json::num(n as f64)).collect()),
            )
            .set("effects_sent", Json::num(self.effects_sent as f64))
            .set("mailbox_msgs", Json::num(self.mailbox_msgs as f64))
            .set("mailbox_drains", Json::num(self.mail_in.count() as f64))
            .set("mailbox_hwm", Json::num(self.mailbox_hwm as f64))
            .set("heap_depth_hwm", Json::num(self.heap_depth_hwm as f64))
            .set("sched_arms", Json::num(self.sched_arms as f64))
            .set("sched_cancels", Json::num(self.sched_cancels as f64))
            .set("window_wall_secs", welford_json(&self.window_wall))
            .set("barrier_wall_secs", welford_json(&self.barrier_wall))
    }
}

/// `{count, mean, min, max, total}` summary of a Welford accumulator
/// (empty accumulators render min/max as null).
pub fn welford_json(w: &Welford) -> Json {
    Json::obj()
        .set("count", Json::num(w.count() as f64))
        .set("mean", Json::num(w.mean()))
        .set("min", Json::num(w.min()))
        .set("max", Json::num(w.max()))
        .set("total", Json::num(w.mean() * w.count() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_off() {
        assert!(!ObsConfig::default().enabled);
        assert!(!ObsConfig::off().enabled);
        assert!(ObsConfig::on().enabled);
    }

    #[test]
    fn registry_get_or_create_and_update() {
        let mut r = Registry::new();
        let c = r.counter("requests");
        r.inc(c, 2);
        assert_eq!(r.counter("requests"), c, "same name, same handle");
        r.inc(c, 3);
        assert_eq!(r.counter_value("requests"), 5);
        assert_eq!(r.counter_value("absent"), 0);

        let g = r.gauge("depth.hwm");
        r.gauge_max(g, 4.0);
        r.gauge_max(g, 2.0);
        assert_eq!(r.gauge_value("depth.hwm"), Some(4.0));
        assert_eq!(r.gauge_value("untouched"), None);

        let d = r.dist_hist("latency", 0.0, 1.0, 10);
        for i in 0..10 {
            r.record(d, i as f64 / 10.0);
        }
        let dist = r.dist_stats("latency").unwrap();
        assert_eq!(dist.moments.count(), 10);
        assert!(dist.quantile(0.5).is_some());

        let s = r.series("util");
        r.push_point(s, 0.5);
        r.push_point(s, 0.75);
        assert_eq!(r.series_points("util"), Some(&[0.5, 0.75][..]));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_clash() {
        let mut r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn registry_merge_semantics() {
        let mut a = Registry::new();
        let c = a.counter("n");
        a.inc(c, 1);
        let g = a.gauge("hwm");
        a.gauge_max(g, 1.0);
        let s = a.series("util");
        a.push_point(s, 0.25);
        let d = a.dist("lat");
        a.record(d, 1.0);

        let mut b = Registry::new();
        let c = b.counter("n");
        b.inc(c, 41);
        let g = b.gauge("hwm");
        b.gauge_max(g, 3.0);
        let s = b.series("util");
        b.push_point(s, 0.5);
        b.push_point(s, 0.5);
        let d = b.dist("lat");
        b.record(d, 3.0);
        let only = b.counter("only_in_b");
        b.inc(only, 7);

        a.merge(&b);
        assert_eq!(a.counter_value("n"), 42);
        assert_eq!(a.gauge_value("hwm"), Some(3.0));
        // Element-wise add with zero-extension of the shorter series.
        assert_eq!(a.series_points("util"), Some(&[0.75, 0.5][..]));
        let lat = a.dist_stats("lat").unwrap();
        assert_eq!(lat.moments.count(), 2);
        assert!((lat.moments.mean() - 2.0).abs() < 1e-12);
        assert_eq!(a.counter_value("only_in_b"), 7);
    }

    #[test]
    fn flight_ring_wraps_keeping_newest() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(FlightRecord {
                t: i as f64,
                shard: 0,
                kind: FlightKind::Dispatch,
                class: 0,
                entity: i,
            });
        }
        assert_eq!(fr.total(), 5);
        let recs = fr.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs.iter().map(|r| r.entity).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn flight_ring_zero_capacity_is_inert() {
        let mut fr = FlightRecorder::new(0);
        fr.record(FlightRecord {
            t: 0.0,
            shard: 0,
            kind: FlightKind::EffectIn,
            class: 0,
            entity: 0,
        });
        assert_eq!(fr.total(), 0);
        assert!(fr.records().is_empty());
    }

    #[test]
    fn profile_json_has_expected_fields() {
        let mut p = ShardProfile::new(2, 3);
        p.windows = 10;
        p.events = 1000;
        p.events_by_class = vec![600, 0, 400];
        p.mailbox_drained(5);
        p.mailbox_drained(1);
        p.heap_depth(17);
        p.sched_arms = 1200;
        p.sched_cancels = 3;
        let doc = p.to_json();
        assert_eq!(doc.get("shard").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("mailbox_hwm").and_then(Json::as_f64), Some(5.0));
        assert_eq!(doc.get("mailbox_msgs").and_then(Json::as_f64), Some(6.0));
        assert_eq!(doc.get("heap_depth_hwm").and_then(Json::as_f64), Some(17.0));
        assert_eq!(doc.get("sched_arms").and_then(Json::as_f64), Some(1200.0));
        assert_eq!(doc.get("sched_cancels").and_then(Json::as_f64), Some(3.0));
        let by_class: Vec<f64> = doc
            .get("events_by_class")
            .and_then(Json::as_arr)
            .expect("events_by_class array")
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        assert_eq!(by_class, [600.0, 0.0, 400.0]);
        assert!(doc.get("barrier_wall_secs").is_some());
        // Drains of 5, 1, 0, 0, 0, 1: the Welford's count × mean gives
        // 6.999999999999999, the message count is exactly 7.
        for n in [0, 0, 0, 1] {
            p.mailbox_drained(n);
        }
        assert_eq!(p.to_json().get("mailbox_msgs").and_then(Json::as_f64), Some(7.0));
    }

    #[test]
    fn dist_json_includes_quantiles_only_with_histogram() {
        let mut plain = Dist::new();
        plain.record(1.0);
        assert!(plain.to_json().get("p50").is_none());
        let mut hist = Dist::with_histogram(0.0, 10.0, 10);
        for i in 0..100 {
            hist.record(i as f64 / 10.0);
        }
        let p50 = hist.to_json().get("p50").and_then(Json::as_f64).unwrap();
        assert!((p50 - 4.5).abs() <= 1.0);
    }
}
