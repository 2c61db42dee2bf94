//! Batch benchmark of the cluster simulator.
//!
//! One invocation runs one workload (see [`spec`]) for one seed. With
//! tracing off it repeats the batch for a fixed time and reports host
//! throughput, memory and set-up time beside the simulated quantities of
//! the paper (batch times in reference-host seconds, see [`calib`]); the
//! traced run replays every crate's hot path on the run's
//! own counts and request stream (see [`layers`]).

pub mod calib;
pub mod checks;
pub mod layers;
pub mod metrics;
pub mod runner;
pub mod spec;
