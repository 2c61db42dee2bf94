//! Span-based causal request tracing.
//!
//! The aggregate telemetry in [`crate::obs`] says *how much* latency a run
//! paid; this module says *where each traced request's latency went* —
//! queue wait vs service vs propagation vs peer-redirect vs
//! pending-prefetch stall. It follows the same contract as the metrics
//! layer:
//!
//! * **Zero overhead when off.** Engines hold an `Option<Box<TraceBuf>>`;
//!   with tracing disabled every record site reduces to one branch.
//! * **Report-bit-identical on/off.** Recording only *reads* simulation
//!   state: no RNG draw, no event, nothing fed back.
//! * **Deterministic head sampling.** A request's trace id is a pure hash
//!   of its `(proxy, sequence)` coordinates (`trace_id`, built on
//!   [`crate::rng::stream_seed`]-style mixing), so whether a request is
//!   sampled is independent of sharding, timing, and every other request.
//! * **Bit-identical across shard counts.** Raw [`SpanEvent`]s carry a
//!   per-trace sequence number assigned in the job's own causal order;
//!   [`TraceStore::from_events`] sorts on `(trace, seq)`, a total key, so
//!   the merged store cannot depend on which shard recorded what.
//!
//! The extractor turns each trace's event list into a [`Trace`]: an
//! end-to-end interval tiled by **exclusive segments** (queue, service,
//! propagation, pending-prefetch stall, in-flight wait), with segments of
//! a wasted peer leg flagged `wasted` (the false-hit redirect). Exactness
//! is structural: consecutive segments share boundary values, the first
//! starts at the trace's start and the last ends at its end, so durations
//! sum to the measured end-to-end latency ([`Trace::check`] asserts it).

use crate::json::Json;
use crate::rng::{splitmix64, stream_seed};

/// Domain separator for demand-request trace ids (hits, waiters, fetches).
const SALT_REQUEST: u64 = 0x7472_6163_652d_7271; // "trace-rq"
/// Domain separator for prefetch-job trace ids.
const SALT_PREFETCH: u64 = 0x7472_6163_652d_7066; // "trace-pf"

/// Trace id for the `idx`-th client request of global proxy `proxy`.
///
/// A pure function of the request's sharding-independent coordinates: the
/// stream key `(proxy << 40) | idx` mirrors the engines' job-id layout and
/// is mixed through [`stream_seed`] + [`splitmix64`] so head sampling
/// (`id % every == 0`) takes an unbiased 1-in-`every` slice. Never zero:
/// engines use `trace == 0` as the "not sampled" marker on jobs.
pub fn request_trace_id(proxy: u64, idx: u64) -> u64 {
    trace_id(SALT_REQUEST, (proxy << 40) | idx)
}

/// Trace id for the prefetch job with per-proxy sequence `seq` at global
/// proxy `proxy` (the engines' job-id stream).
pub fn prefetch_trace_id(proxy: u64, seq: u64) -> u64 {
    trace_id(SALT_PREFETCH, (proxy << 40) | seq)
}

fn trace_id(salt: u64, stream: u64) -> u64 {
    let mut s = stream_seed(salt, stream);
    let id = splitmix64(&mut s);
    // Reserve 0 as "untraced"; remapping one value in 2^64 keeps sampling
    // unbiased for every practical `every`.
    if id == 0 {
        1
    } else {
        id
    }
}

/// What happened at one instrumentation seam.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// The request/prefetch decided to fetch. `aux` = decision time (for a
    /// jittered prefetch this precedes the issue instant — the gap is the
    /// pending-prefetch stall).
    Issue,
    /// The job entered a link's queue+server. `entity` = global link id.
    Enqueue,
    /// The job finished service on a link. `entity` = global link id,
    /// `aux` = the job's nominal service demand `size / bandwidth` (the
    /// queue/service split point).
    Dequeue,
    /// Peer-serve presence check at the far proxy. `aux` = 1.0 if held.
    Check,
    /// False-hit fallback: the peer leg was wasted, the job restarts
    /// toward the origin. `entity` = requesting proxy.
    Redirect,
    /// The response landed back at the requesting proxy.
    Deliver,
    /// A cache hit: the whole trace is one zero-latency point.
    Hit,
    /// A request joined an already-in-flight fetch; `aux` = the time the
    /// waiter started waiting (the trace spans `[aux, t]`).
    Wait,
    /// A fetch attempt timed out and a retry launched at `t`. `aux` = the
    /// instant the failed attempt's timeout expired (so `[prev, aux]` is
    /// the timeout wait and `[aux, t]` the backoff before this retry).
    /// `entity` = requesting proxy.
    Retry,
    /// The retry budget ran out: the request settles as failed at `t`
    /// (the final attempt's timeout expiry). `entity` = requesting proxy.
    Failed,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Issue => "issue",
            SpanKind::Enqueue => "enqueue",
            SpanKind::Dequeue => "dequeue",
            SpanKind::Check => "check",
            SpanKind::Redirect => "redirect",
            SpanKind::Deliver => "deliver",
            SpanKind::Hit => "hit",
            SpanKind::Wait => "wait",
            SpanKind::Retry => "retry",
            SpanKind::Failed => "failed",
        }
    }
}

/// Flag bit: the record belongs to the report's measurement window.
pub const TF_MEASURED: u8 = 1;
/// Flag bit: the job is a prefetch (demand otherwise).
pub const TF_PREFETCH: u8 = 2;
/// Flag bit: on a `Check`/`Redirect`, the peer did not hold the item.
pub const TF_FALSE_HIT: u8 = 4;

/// One raw record at an instrumentation seam. `Copy`, fixed-size, pushed
/// into a per-engine [`TraceBuf`]; everything else is derived after the
/// run. `seq` is the job's own record counter, so `(trace, seq)` totally
/// orders a trace's records independent of sharding.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanEvent {
    pub trace: u64,
    pub seq: u32,
    pub t: f64,
    pub kind: SpanKind,
    /// Global id of the resource touched (link or proxy, per `kind`).
    pub entity: u64,
    /// Kind-specific scalar (see [`SpanKind`]).
    pub aux: f64,
    /// The item fetched, for display (`u64::MAX` when not applicable).
    pub item: u64,
    pub flags: u8,
}

/// Per-engine span buffer: the head-sampling modulus and an append-only
/// event list. Engines hold `Option<Box<TraceBuf>>` — `None` when tracing
/// is off, so every record site costs one branch.
#[derive(Debug)]
pub struct TraceBuf {
    every: u64,
    pub events: Vec<SpanEvent>,
}

impl TraceBuf {
    /// A buffer sampling one trace in `every` (`every` is clamped to ≥ 1).
    pub fn new(every: u64) -> TraceBuf {
        TraceBuf { every: every.max(1), events: Vec::new() }
    }

    /// Head-sampling decision for a candidate trace id.
    #[inline]
    pub fn sampled(&self, id: u64) -> bool {
        id.is_multiple_of(self.every) || self.every == 1
    }

    /// Returns `id` if sampled, else 0 (the jobs' "untraced" marker).
    #[inline]
    pub fn admit(&self, id: u64) -> u64 {
        if self.sampled(id) {
            id
        } else {
            0
        }
    }

    #[inline]
    pub fn push(&mut self, ev: SpanEvent) {
        self.events.push(ev);
    }
}

/// Which lifecycle a trace followed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceClass {
    /// Served from the local cache: zero latency.
    Hit,
    /// A demand miss that launched its own fetch.
    Demand,
    /// A demand miss that joined an already-in-flight fetch (the
    /// MSHR-style waiter — "delayed hit").
    DelayedHit,
    /// A speculative prefetch transfer.
    Prefetch,
    /// A demand miss whose fetch exhausted its retry budget: the request
    /// settled as failed, its latency tiled by timeout/backoff segments.
    Failed,
}

impl TraceClass {
    pub fn name(self) -> &'static str {
        match self {
            TraceClass::Hit => "hit",
            TraceClass::Demand => "demand",
            TraceClass::DelayedHit => "delayed_hit",
            TraceClass::Prefetch => "prefetch",
            TraceClass::Failed => "failed",
        }
    }

    pub const ALL: [TraceClass; 5] = [
        TraceClass::Hit,
        TraceClass::Demand,
        TraceClass::DelayedHit,
        TraceClass::Prefetch,
        TraceClass::Failed,
    ];
}

/// Exclusive-segment kinds the critical-path extractor attributes time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegKind {
    /// Jittered prefetch decision waiting to be issued.
    PendingWait,
    /// In a link's queue, not yet in service.
    Queue,
    /// In service on a link (`size / bandwidth` of work).
    Service,
    /// Propagation delay between resources (request or response path).
    Prop,
    /// Waiting on someone else's in-flight fetch (delayed hit).
    Wait,
    /// Waiting out a fetch attempt that will time out (fault injection).
    Timeout,
    /// Backing off between fetch attempts (fault injection).
    Backoff,
}

impl SegKind {
    pub fn name(self) -> &'static str {
        match self {
            SegKind::PendingWait => "pending_wait",
            SegKind::Queue => "queue",
            SegKind::Service => "service",
            SegKind::Prop => "prop",
            SegKind::Wait => "wait",
            SegKind::Timeout => "timeout",
            SegKind::Backoff => "backoff",
        }
    }

    pub const ALL: [SegKind; 7] = [
        SegKind::PendingWait,
        SegKind::Queue,
        SegKind::Service,
        SegKind::Prop,
        SegKind::Wait,
        SegKind::Timeout,
        SegKind::Backoff,
    ];
}

/// One exclusive slice of a trace's end-to-end interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    pub kind: SegKind,
    pub start: f64,
    pub end: f64,
    /// Global id of the resource the time was spent on (link for
    /// queue/service, proxy otherwise).
    pub entity: u64,
    /// True for segments of a peer leg that ended in a false-hit redirect:
    /// time the cooperative layer *wasted*. Attribution buckets these
    /// under "redirect" regardless of kind.
    pub wasted: bool,
}

impl Segment {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The attribution bucket this segment's time lands in.
    pub fn bucket(&self) -> &'static str {
        if self.wasted {
            "redirect"
        } else {
            self.kind.name()
        }
    }
}

/// Attribution buckets, in render order: the seven [`SegKind`]s plus the
/// wasted-peer-leg bucket.
pub const BUCKETS: [&str; 8] =
    ["pending_wait", "queue", "service", "prop", "wait", "timeout", "backoff", "redirect"];

/// One extracted request trace: an end-to-end interval tiled by exclusive
/// segments.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    pub id: u64,
    pub class: TraceClass,
    /// Requesting (for prefetches: issuing) global proxy id.
    pub proxy: u64,
    pub item: u64,
    /// True when the trace falls in the report's measurement window.
    pub measured: bool,
    /// Trace start: the request instant (demand/hit/waiter) or the
    /// prefetch *decision* instant (so the pending stall is inside).
    pub start: f64,
    /// Response delivery (equal to `start` for hits).
    pub end: f64,
    pub segments: Vec<Segment>,
}

impl Trace {
    /// End-to-end latency. For measured demand traces this equals the
    /// report's access-time sample bit-for-bit (both are the same
    /// `deliver_t - issue_t` subtraction).
    pub fn latency(&self) -> f64 {
        self.end - self.start
    }

    /// Sum of exclusive segment durations.
    pub fn segment_sum(&self) -> f64 {
        self.segments.iter().map(Segment::duration).sum()
    }

    /// The bucket the largest share of this trace's time went to
    /// (`"cache"` for zero-latency hits).
    pub fn dominant_bucket(&self) -> &'static str {
        let mut best = "cache";
        let mut best_d = 0.0;
        for s in &self.segments {
            let d = s.duration();
            if d > best_d {
                best_d = d;
                best = s.bucket();
            }
        }
        best
    }

    /// Structural well-formedness: segments tile `[start, end]` exactly —
    /// the first starts at `start`, consecutive segments share the *same*
    /// boundary value, the last ends at `end`, and no segment runs
    /// backwards. Exact `f64` comparisons throughout: tiling is by
    /// construction, not by tolerance. (With exact tiling the segment
    /// durations telescope to `end - start` up to float summation order —
    /// the conservation the tests assert at 1e-9.)
    pub fn check(&self) -> Result<(), String> {
        let mut cursor = self.start;
        for (k, s) in self.segments.iter().enumerate() {
            if s.start != cursor {
                return Err(format!(
                    "trace {:#x}: segment {k} starts at {} but previous ended at {cursor}",
                    self.id, s.start
                ));
            }
            if s.end < s.start {
                return Err(format!("trace {:#x}: segment {k} runs backwards", self.id));
            }
            cursor = s.end;
        }
        if cursor != self.end {
            return Err(format!(
                "trace {:#x}: segments end at {cursor}, trace ends at {}",
                self.id, self.end
            ));
        }
        Ok(())
    }
}

/// Per-(class, bucket) latency-attribution aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BucketStat {
    pub total: f64,
    pub count: u64,
}

/// Attribution table for one [`TraceClass`].
#[derive(Clone, Debug, PartialEq)]
pub struct ClassAttribution {
    pub class: TraceClass,
    pub traces: u64,
    pub measured: u64,
    pub latency_total: f64,
    /// Indexed like [`BUCKETS`].
    pub buckets: [BucketStat; BUCKETS.len()],
}

impl ClassAttribution {
    fn new(class: TraceClass) -> ClassAttribution {
        ClassAttribution {
            class,
            traces: 0,
            measured: 0,
            latency_total: 0.0,
            buckets: [BucketStat::default(); BUCKETS.len()],
        }
    }

    pub fn mean_latency(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            self.latency_total / self.traces as f64
        }
    }
}

/// The merged, extracted traces of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceStore {
    /// Head-sampling modulus the run used (1 = every request).
    pub every: u64,
    /// Extracted traces, sorted by `(start, id)` — a deterministic order
    /// under every sharding.
    pub traces: Vec<Trace>,
}

impl TraceStore {
    /// Merges raw span buffers (concatenated in any order) into extracted
    /// traces. Events are sorted by the total key `(trace, seq)`; each
    /// trace group is handed to the critical-path extractor.
    pub fn from_events(mut events: Vec<SpanEvent>, every: u64) -> TraceStore {
        events.sort_by(|a, b| {
            a.trace.cmp(&b.trace).then(a.seq.cmp(&b.seq)).then(a.t.total_cmp(&b.t))
        });
        let mut traces = Vec::new();
        let mut lo = 0;
        while lo < events.len() {
            let id = events[lo].trace;
            let mut hi = lo;
            while hi < events.len() && events[hi].trace == id {
                hi += 1;
            }
            traces.push(extract(&events[lo..hi]));
            lo = hi;
        }
        traces.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        TraceStore { every: every.max(1), traces }
    }

    /// Per-class latency attribution over all traces.
    pub fn attribution(&self) -> Vec<ClassAttribution> {
        let mut out: Vec<ClassAttribution> =
            TraceClass::ALL.iter().map(|&c| ClassAttribution::new(c)).collect();
        for tr in &self.traces {
            let a = &mut out[TraceClass::ALL.iter().position(|&c| c == tr.class).unwrap()];
            a.traces += 1;
            if tr.measured {
                a.measured += 1;
            }
            a.latency_total += tr.latency();
            for s in &tr.segments {
                let b = BUCKETS.iter().position(|&n| n == s.bucket()).unwrap();
                a.buckets[b].total += s.duration();
                a.buckets[b].count += 1;
            }
        }
        out
    }

    /// The `k` slowest traces, slowest first (ties broken by id).
    pub fn top_k_slowest(&self, k: usize) -> Vec<&Trace> {
        let mut all: Vec<&Trace> = self.traces.iter().collect();
        all.sort_by(|a, b| b.latency().total_cmp(&a.latency()).then(a.id.cmp(&b.id)));
        all.truncate(k);
        all
    }

    /// Renders every trace as Chrome trace-event JSON (`chrome://tracing`
    /// / Perfetto "JSON Array Format"): one `"X"` complete event per
    /// segment, `pid` = requesting proxy, `tid` = trace index, timestamps
    /// in microseconds of simulation time.
    pub fn chrome_json(&self) -> Json {
        let us = 1e6;
        let mut events = Vec::new();
        for (ti, tr) in self.traces.iter().enumerate() {
            events.push(
                Json::obj()
                    .set("name", Json::str(format!("{} item {}", tr.class.name(), tr.item)))
                    .set("cat", Json::str(tr.class.name()))
                    .set("ph", Json::str("X"))
                    .set("ts", Json::num(tr.start * us))
                    .set("dur", Json::num(tr.latency() * us))
                    .set("pid", Json::num(tr.proxy as f64))
                    .set("tid", Json::num(ti as f64)),
            );
            for s in &tr.segments {
                events.push(
                    Json::obj()
                        .set("name", Json::str(format!("{} @{}", s.bucket(), s.entity)))
                        .set("cat", Json::str(s.bucket()))
                        .set("ph", Json::str("X"))
                        .set("ts", Json::num(s.start * us))
                        .set("dur", Json::num(s.duration() * us))
                        .set("pid", Json::num(tr.proxy as f64))
                        .set("tid", Json::num(ti as f64)),
                );
            }
        }
        Json::obj().set("displayTimeUnit", Json::str("ms")).set("traceEvents", Json::Arr(events))
    }

    /// Summary for the run artifact: sampling rate, per-class attribution,
    /// and the top-`k` slowest traces with their segment breakdown.
    pub fn to_json(&self, top_k: usize) -> Json {
        let mut classes = Json::obj();
        for a in self.attribution() {
            let mut buckets = Json::obj();
            for (bi, &name) in BUCKETS.iter().enumerate() {
                if a.buckets[bi].count > 0 {
                    buckets.insert(
                        name,
                        Json::obj()
                            .set("total", Json::num(a.buckets[bi].total))
                            .set("segments", Json::num(a.buckets[bi].count as f64)),
                    );
                }
            }
            classes.insert(
                a.class.name(),
                Json::obj()
                    .set("traces", Json::num(a.traces as f64))
                    .set("measured", Json::num(a.measured as f64))
                    .set("mean_latency", Json::num(a.mean_latency()))
                    .set("buckets", buckets),
            );
        }
        let slowest = Json::Arr(
            self.top_k_slowest(top_k)
                .iter()
                .map(|tr| {
                    Json::obj()
                        .set("trace", Json::str(format!("{:#018x}", tr.id)))
                        .set("class", Json::str(tr.class.name()))
                        .set("proxy", Json::num(tr.proxy as f64))
                        .set("item", Json::num(tr.item as f64))
                        .set("latency", Json::num(tr.latency()))
                        .set("dominant", Json::str(tr.dominant_bucket()))
                        .set("segments", Json::num(tr.segments.len() as f64))
                })
                .collect(),
        );
        Json::obj()
            .set("sample_every", Json::num(self.every as f64))
            .set("traces", Json::num(self.traces.len() as f64))
            .set("classes", classes)
            .set("slowest", slowest)
    }
}

/// Extracts one trace from its `(trace, seq)`-sorted records.
fn extract(events: &[SpanEvent]) -> Trace {
    let first = events[0];
    let measured = first.flags & TF_MEASURED != 0;
    match first.kind {
        SpanKind::Hit => Trace {
            id: first.trace,
            class: TraceClass::Hit,
            proxy: first.entity,
            item: first.item,
            measured,
            start: first.t,
            end: first.t,
            segments: Vec::new(),
        },
        SpanKind::Wait => Trace {
            id: first.trace,
            class: TraceClass::DelayedHit,
            proxy: first.entity,
            item: first.item,
            measured,
            start: first.aux,
            end: first.t,
            segments: vec![Segment {
                kind: SegKind::Wait,
                start: first.aux,
                end: first.t,
                entity: first.entity,
                wasted: false,
            }],
        },
        SpanKind::Issue => extract_job(events),
        other => {
            debug_assert!(false, "trace {:#x} starts with {:?}", first.trace, other);
            // A truncated trace (e.g. a fetch still in flight at the end
            // of the run) degenerates to a zero-length marker.
            Trace {
                id: first.trace,
                class: TraceClass::Demand,
                proxy: first.entity,
                item: first.item,
                measured,
                start: first.t,
                end: first.t,
                segments: Vec::new(),
            }
        }
    }
}

/// Walks an `Issue …` job lifecycle into exclusive segments. The cursor
/// invariant — every pushed segment starts exactly where the previous one
/// ended — is what makes conservation structural.
fn extract_job(events: &[SpanEvent]) -> Trace {
    let first = events[0];
    let measured = first.flags & TF_MEASURED != 0;
    let mut class =
        if first.flags & TF_PREFETCH != 0 { TraceClass::Prefetch } else { TraceClass::Demand };
    let proxy = first.entity;
    // A jittered prefetch is decided at `aux` and issued at `t`; the gap
    // is a pending-prefetch stall. Demand fetches issue at decision time.
    let start = if first.aux < first.t { first.aux } else { first.t };
    let mut segments = Vec::new();
    if first.aux < first.t {
        segments.push(Segment {
            kind: SegKind::PendingWait,
            start: first.aux,
            end: first.t,
            entity: proxy,
            wasted: false,
        });
    }
    let mut cursor = first.t;
    let mut end = first.t;
    // Segments since this index belong to the current (possibly wasted)
    // leg; a Redirect flips them to `wasted`.
    let mut leg_from = segments.len();
    let mut open: Option<(u64, f64)> = None;
    for ev in &events[1..] {
        match ev.kind {
            SpanKind::Enqueue => {
                if ev.t > cursor {
                    segments.push(Segment {
                        kind: SegKind::Prop,
                        start: cursor,
                        end: ev.t,
                        entity: ev.entity,
                        wasted: false,
                    });
                }
                open = Some((ev.entity, ev.t));
                cursor = ev.t;
            }
            SpanKind::Dequeue => {
                let (entity, t_in) = open.take().unwrap_or((ev.entity, cursor));
                // The nominal service demand is `size / bandwidth` (`aux`);
                // everything before its start is queueing/sharing delay.
                // Clamped into the sojourn so degenerate float cases stay
                // well-formed.
                let sb = (ev.t - ev.aux).max(t_in).min(ev.t);
                if sb > t_in {
                    segments.push(Segment {
                        kind: SegKind::Queue,
                        start: t_in,
                        end: sb,
                        entity,
                        wasted: false,
                    });
                }
                if ev.t > sb {
                    segments.push(Segment {
                        kind: SegKind::Service,
                        start: sb,
                        end: ev.t,
                        entity,
                        wasted: false,
                    });
                }
                cursor = ev.t;
            }
            SpanKind::Check => {
                if ev.t > cursor {
                    segments.push(Segment {
                        kind: SegKind::Prop,
                        start: cursor,
                        end: ev.t,
                        entity: ev.entity,
                        wasted: false,
                    });
                }
                cursor = ev.t;
            }
            SpanKind::Redirect => {
                if ev.t > cursor {
                    segments.push(Segment {
                        kind: SegKind::Prop,
                        start: cursor,
                        end: ev.t,
                        entity: ev.entity,
                        wasted: false,
                    });
                }
                cursor = ev.t;
                // The whole peer leg up to here bought nothing.
                for s in &mut segments[leg_from..] {
                    s.wasted = true;
                }
                leg_from = segments.len();
            }
            SpanKind::Deliver => {
                if ev.t > cursor {
                    segments.push(Segment {
                        kind: SegKind::Prop,
                        start: cursor,
                        end: ev.t,
                        entity: ev.entity,
                        wasted: false,
                    });
                }
                cursor = ev.t;
                end = ev.t;
            }
            SpanKind::Retry => {
                // `[cursor, aux]` waited out the doomed attempt's timeout;
                // `[aux, t]` is the backoff before this retry launched.
                let expiry = ev.aux.max(cursor).min(ev.t);
                if expiry > cursor {
                    segments.push(Segment {
                        kind: SegKind::Timeout,
                        start: cursor,
                        end: expiry,
                        entity: ev.entity,
                        wasted: false,
                    });
                }
                if ev.t > expiry {
                    segments.push(Segment {
                        kind: SegKind::Backoff,
                        start: expiry,
                        end: ev.t,
                        entity: ev.entity,
                        wasted: false,
                    });
                }
                cursor = ev.t;
                open = None;
            }
            SpanKind::Failed => {
                if ev.t > cursor {
                    segments.push(Segment {
                        kind: SegKind::Timeout,
                        start: cursor,
                        end: ev.t,
                        entity: ev.entity,
                        wasted: false,
                    });
                }
                cursor = ev.t;
                end = ev.t;
                if class != TraceClass::Prefetch {
                    class = TraceClass::Failed;
                }
            }
            SpanKind::Issue | SpanKind::Hit | SpanKind::Wait => {
                debug_assert!(false, "trace {:#x}: unexpected {:?} mid-trace", ev.trace, ev.kind);
            }
        }
    }
    // A job still in flight at the end of the run never delivered: close
    // the trace at the last recorded seam so the tiling stays exact.
    if end < cursor {
        end = cursor;
    }
    Trace { id: first.trace, class, proxy, item: first.item, measured, start, end, segments }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        trace: u64,
        seq: u32,
        t: f64,
        kind: SpanKind,
        entity: u64,
        aux: f64,
        flags: u8,
    ) -> SpanEvent {
        SpanEvent { trace, seq, t, kind, entity, aux, item: 7, flags }
    }

    #[test]
    fn trace_ids_are_nonzero_and_stable() {
        let a = request_trace_id(3, 41);
        assert_ne!(a, 0);
        assert_eq!(a, request_trace_id(3, 41));
        assert_ne!(a, request_trace_id(3, 42));
        assert_ne!(a, prefetch_trace_id(3, 41));
    }

    #[test]
    fn head_sampling_is_modular() {
        let b = TraceBuf::new(4);
        let hits =
            (0..10_000u64).map(|i| request_trace_id(1, i)).filter(|&id| b.sampled(id)).count();
        // 1-in-4 of a uniform hash: loose band.
        assert!((1_500..3_500).contains(&hits), "{hits} of 10000 sampled");
        assert!(TraceBuf::new(1).sampled(request_trace_id(0, 0)));
        assert_eq!(b.admit(5), 0);
    }

    #[test]
    fn demand_lifecycle_tiles_exactly() {
        let id = 9;
        // Issue at 1.0, hop enqueue 1.1 (prop 0.1), dequeue 1.5 with
        // 0.25 service, deliver 1.8.
        let events = vec![
            ev(id, 0, 1.0, SpanKind::Issue, 2, 1.0, TF_MEASURED),
            ev(id, 1, 1.1, SpanKind::Enqueue, 10, 0.0, 0),
            ev(id, 2, 1.5, SpanKind::Dequeue, 10, 0.25, 0),
            ev(id, 3, 1.8, SpanKind::Deliver, 2, 0.0, 0),
        ];
        let store = TraceStore::from_events(events, 1);
        assert_eq!(store.traces.len(), 1);
        let tr = &store.traces[0];
        assert_eq!(tr.class, TraceClass::Demand);
        assert!(tr.measured);
        tr.check().unwrap();
        assert!((tr.latency() - 0.8).abs() < 1e-12);
        let kinds: Vec<SegKind> = tr.segments.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SegKind::Prop, SegKind::Queue, SegKind::Service, SegKind::Prop]);
        assert!((tr.segment_sum() - tr.latency()).abs() < 1e-12);
    }

    #[test]
    fn redirect_marks_peer_leg_wasted() {
        let id = 11;
        let events = vec![
            ev(id, 0, 0.0, SpanKind::Issue, 1, 0.0, TF_MEASURED),
            ev(id, 1, 0.0, SpanKind::Enqueue, 4, 0.0, 0),
            ev(id, 2, 0.5, SpanKind::Dequeue, 4, 0.5, 0),
            ev(id, 3, 0.6, SpanKind::Check, 3, 0.0, TF_FALSE_HIT),
            ev(id, 4, 0.7, SpanKind::Redirect, 1, 0.0, TF_FALSE_HIT),
            ev(id, 5, 0.7, SpanKind::Enqueue, 8, 0.0, 0),
            ev(id, 6, 1.2, SpanKind::Dequeue, 8, 0.5, 0),
            ev(id, 7, 1.2, SpanKind::Deliver, 1, 0.0, 0),
        ];
        let store = TraceStore::from_events(events, 1);
        let tr = &store.traces[0];
        tr.check().unwrap();
        let wasted: f64 = tr.segments.iter().filter(|s| s.wasted).map(Segment::duration).sum();
        assert!((wasted - 0.7).abs() < 1e-12, "wasted {wasted}");
        assert!(!tr.segments.last().unwrap().wasted);
        let att = store.attribution();
        let demand = att.iter().find(|a| a.class == TraceClass::Demand).unwrap();
        let redirect_bucket = BUCKETS.iter().position(|&b| b == "redirect").unwrap();
        assert!((demand.buckets[redirect_bucket].total - 0.7).abs() < 1e-12);
    }

    #[test]
    fn prefetch_pending_stall_and_waiters() {
        let pid = 21;
        let wid = 23;
        let events = vec![
            // Prefetch decided at 2.0, issued at 2.4 after jitter.
            ev(pid, 0, 2.4, SpanKind::Issue, 0, 2.0, TF_PREFETCH),
            ev(pid, 1, 2.4, SpanKind::Enqueue, 5, 0.0, 0),
            ev(pid, 2, 3.0, SpanKind::Dequeue, 5, 0.6, 0),
            ev(pid, 3, 3.2, SpanKind::Deliver, 0, 0.0, 0),
            // A demand arrives at 2.9 and waits on it until 3.2.
            ev(wid, 0, 3.2, SpanKind::Wait, 0, 2.9, TF_MEASURED),
        ];
        let store = TraceStore::from_events(events, 1);
        assert_eq!(store.traces.len(), 2);
        let pf = store.traces.iter().find(|t| t.class == TraceClass::Prefetch).unwrap();
        pf.check().unwrap();
        assert_eq!(pf.segments[0].kind, SegKind::PendingWait);
        assert!((pf.latency() - 1.2).abs() < 1e-12);
        let dh = store.traces.iter().find(|t| t.class == TraceClass::DelayedHit).unwrap();
        dh.check().unwrap();
        assert!((dh.latency() - 0.3).abs() < 1e-12);
        assert_eq!(dh.dominant_bucket(), "wait");
    }

    #[test]
    fn store_order_is_shard_independent() {
        let mk = |shuffled: bool| {
            let a = vec![
                ev(5, 0, 1.0, SpanKind::Issue, 0, 1.0, 0),
                ev(5, 1, 1.0, SpanKind::Enqueue, 2, 0.0, 0),
                ev(5, 2, 2.0, SpanKind::Dequeue, 2, 1.0, 0),
                ev(5, 3, 2.0, SpanKind::Deliver, 0, 0.0, 0),
            ];
            let b = vec![ev(3, 0, 0.5, SpanKind::Hit, 1, 0.0, TF_MEASURED)];
            let mut all = Vec::new();
            if shuffled {
                // Interleave as two shards' buffers might.
                all.push(a[2]);
                all.push(b[0]);
                all.push(a[0]);
                all.push(a[3]);
                all.push(a[1]);
            } else {
                all.extend(a);
                all.extend(b);
            }
            TraceStore::from_events(all, 2)
        };
        assert_eq!(mk(false), mk(true));
    }

    #[test]
    fn retry_legs_tile_timeout_then_backoff() {
        let id = 31;
        let events = vec![
            // Issued at 1.0; first attempt times out at 2.0; backoff until
            // 2.3; second attempt succeeds over the network.
            ev(id, 0, 1.0, SpanKind::Issue, 2, 1.0, TF_MEASURED),
            ev(id, 1, 2.3, SpanKind::Retry, 2, 2.0, 0),
            ev(id, 2, 2.3, SpanKind::Enqueue, 4, 0.0, 0),
            ev(id, 3, 2.8, SpanKind::Dequeue, 4, 0.5, 0),
            ev(id, 4, 3.0, SpanKind::Deliver, 2, 0.0, 0),
        ];
        let store = TraceStore::from_events(events, 1);
        let tr = &store.traces[0];
        assert_eq!(tr.class, TraceClass::Demand);
        tr.check().unwrap();
        assert!((tr.latency() - 2.0).abs() < 1e-12);
        let kinds: Vec<SegKind> = tr.segments.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![SegKind::Timeout, SegKind::Backoff, SegKind::Service, SegKind::Prop]
        );
        assert!((tr.segments[0].duration() - 1.0).abs() < 1e-12);
        assert!((tr.segments[1].duration() - 0.3).abs() < 1e-12);
        assert_eq!(tr.dominant_bucket(), "timeout");
    }

    #[test]
    fn exhausted_retries_settle_as_failed_class() {
        let id = 33;
        let events = vec![
            ev(id, 0, 1.0, SpanKind::Issue, 0, 1.0, TF_MEASURED),
            ev(id, 1, 2.5, SpanKind::Retry, 0, 2.0, 0),
            // Second attempt also times out; budget gone → failed at 3.5.
            ev(id, 2, 3.5, SpanKind::Failed, 0, 0.0, 0),
        ];
        let store = TraceStore::from_events(events, 1);
        let tr = &store.traces[0];
        assert_eq!(tr.class, TraceClass::Failed);
        assert!(tr.measured);
        tr.check().unwrap();
        assert!((tr.latency() - 2.5).abs() < 1e-12);
        let kinds: Vec<SegKind> = tr.segments.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SegKind::Timeout, SegKind::Backoff, SegKind::Timeout]);
        let att = store.attribution();
        let failed = att.iter().find(|a| a.class == TraceClass::Failed).unwrap();
        assert_eq!(failed.traces, 1);
        let timeout_bucket = BUCKETS.iter().position(|&b| b == "timeout").unwrap();
        assert!((failed.buckets[timeout_bucket].total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_and_summary_json_render() {
        let events = vec![
            ev(5, 0, 1.0, SpanKind::Issue, 0, 1.0, TF_MEASURED),
            ev(5, 1, 1.0, SpanKind::Enqueue, 2, 0.0, 0),
            ev(5, 2, 2.0, SpanKind::Dequeue, 2, 1.0, 0),
            ev(5, 3, 2.0, SpanKind::Deliver, 0, 0.0, 0),
        ];
        let store = TraceStore::from_events(events, 1);
        let chrome = store.chrome_json();
        let evs = chrome.get("traceEvents").and_then(Json::as_arr).unwrap();
        // One summary event plus one per segment.
        assert_eq!(evs.len(), 1 + store.traces[0].segments.len());
        assert_eq!(evs[0].get("ph").and_then(Json::as_str), Some("X"));
        let sum = store.to_json(3);
        assert_eq!(sum.get("traces").and_then(Json::as_f64), Some(1.0));
        assert!(Json::parse(&sum.render()).is_ok());
    }
}
