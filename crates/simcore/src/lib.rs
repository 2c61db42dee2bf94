//! # simcore — discrete-event simulation substrate
//!
//! This crate provides the simulation machinery that every other crate in the
//! workspace builds on:
//!
//! * [`sched`] — the event core. [`sched::Scheduler`] is a position-tracked
//!   4-ary min-heap over a fixed key space holding one entry per armed
//!   timer, so re-arming or cancelling a timer stream moves its entry in
//!   place in O(log n), `pop` leaves the root slot open for the fired
//!   stream's re-arm to fill (one heap repair for both), and `peek` is
//!   O(1); [`sched::KeyLayout`] partitions the keys into classes whose
//!   registration order is the same-instant firing order; and
//!   [`sched::TimedQueues`], a family of sorted lists (one per timer
//!   stream) threaded through one pooled node array, holds the payloads
//!   the streams deliver; [`sched::TimedHeaps`] is the same contract as
//!   pooled pairing heaps, for queues pushed in any order.
//!   Both `cluster` proxy models run on it; the paper's single-server
//!   models (`queueing`, `netsim`) need no scheduler and step their own
//!   loops.
//! * [`rng`] — a hand-rolled, reproducible PRNG ([`rng::Rng`], xoshiro256++
//!   seeded through SplitMix64) with stream splitting for parallel
//!   experiments.
//! * [`dist`] — analytic sampling distributions (exponential, Erlang,
//!   Pareto, Zipf, empirical, …) behind one [`dist::Sample`] trait, each
//!   knowing its own analytic mean where it exists.
//! * [`stats`] — streaming statistics: Welford moments, time-weighted
//!   averages, histograms, batch-means confidence intervals.
//! * [`par`] — a small scoped-thread work-pool used to run
//!   parameter sweeps in parallel with deterministic output ordering.
//! * [`hash`] — [`hash::IdMap`] and [`hash::IdSet`], std maps under a
//!   fixed FxHash-style hasher for the integer ids every cache, predictor
//!   and router lookup is keyed by.
//! * [`faults`] — deterministic fault plans (link, proxy and origin faults)
//!   and the timeout–retry–backoff policy clients run under them.
//! * [`obs`] — deterministic observability: a metrics registry (counters,
//!   gauges, distributions, epoch-grid time series), a bounded
//!   flight-recorder ring for parity debugging, and per-shard runtime
//!   profiles. Off by default ([`obs::ObsConfig::off`]); when off,
//!   instrumented hot paths pay one branch.
//! * [`trace`] — causal spans whose segments tile each request's latency.
//! * [`json`] — a dependency-free JSON value tree ([`json::Json`]) with a
//!   deterministic renderer and a parser, for machine-readable artifacts
//!   (`OBS_cluster.json`) and their CI schema checks.
//!
//! The scheduler carries no payloads and no clock: the caller owns its state
//! and its virtual time, arms one key per recurring timer stream, and
//! handles each `(time, key)` that [`Scheduler::pop`] returns.
//!
//! ## Example
//!
//! ```
//! use simcore::KeyLayout;
//!
//! // Two timer classes; on a time tie, link completions fire before
//! // arrivals because the link class was registered first.
//! let mut layout = KeyLayout::new();
//! let links = layout.class(1);
//! let arrivals = layout.class(1);
//! let mut sched = layout.scheduler();
//! sched.schedule(layout.key(arrivals, 0), 0.0);
//! sched.schedule(layout.key(links, 0), 10.0);
//!
//! // Count the arrivals up to t = 10: the stream re-arms itself once per
//! // second, and the link timer at t = 10 ends the run.
//! let mut count = 0u32;
//! while let Some((t, key)) = sched.pop() {
//!     match layout.decode(key) {
//!         (c, _) if c == arrivals => {
//!             count += 1;
//!             sched.schedule(key, t + 1.0);
//!         }
//!         _ => break,
//!     }
//! }
//! assert_eq!(count, 10); // t = 0..=9; the arrival due at t = 10 loses the tie
//! ```

pub mod dist;
pub mod faults;
pub mod hash;
pub mod json;
pub mod obs;
pub mod par;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod trace;

pub use dist::Sample;
pub use faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
pub use json::Json;
pub use obs::{FlightRecord, FlightRecorder, ObsConfig, Registry, ShardProfile};
pub use rng::Rng;
pub use sched::{KeyLayout, Scheduler, TimedQueues};
pub use stats::{BatchMeans, Histogram, TimeWeighted, Welford};
pub use trace::{SpanEvent, SpanKind, Trace, TraceBuf, TraceClass, TraceStore};

/// Convenient re-exports for downstream simulation code.
pub mod prelude {
    pub use crate::dist::{self, Sample};
    pub use crate::faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
    pub use crate::json::Json;
    pub use crate::obs::{ObsConfig, Registry};
    pub use crate::rng::Rng;
    pub use crate::sched::{KeyLayout, Scheduler, TimedQueues};
    pub use crate::stats::{BatchMeans, Histogram, TimeWeighted, Welford};
}
