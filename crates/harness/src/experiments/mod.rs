//! The experiment implementations (E1–E22) and the table the `harness`
//! binary dispatches over ([`EXPERIMENTS`]).
//!
//! E1–E12 expose `render() -> String`, the full plain-text report. E13–E22
//! expose one sized entry point, `render(Size) -> Rendered`: the report,
//! plus the `OBS_cluster.json` section and any standalone files the run
//! produces, which the binary writes (library renders do no file I/O).
//! Every module also exposes the structured data functions the
//! integration tests use.

pub mod e10_ablation;
pub mod e11_wireless;
pub mod e12_caches;
pub mod e13_cluster;
pub mod e14_coop;
pub mod e15_scale;
pub mod e16_delta;
pub mod e17_shard;
pub mod e18_obs;
pub mod e19_trace;
pub mod e1_fig1;
pub mod e20_delayed;
pub mod e21_replay;
pub mod e22_chaos;
pub mod e2_fig2;
pub mod e3_fig3;
pub mod e4_modelb;
pub mod e5_compare;
pub mod e6_estimate;
pub mod e7_validate;
pub mod e8_endtoend;
pub mod e9_impedance;

use crate::artifact::{self, Rule};
use simcore::Json;

/// Problem size of a sized experiment (E13–E22): the full sweep, or the
/// reduced one CI runs on every push (`--smoke`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    /// `full` or `smoke`, by size.
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// What one experiment run produces.
pub struct Rendered {
    /// The deterministic plain-text report (stdout).
    pub report: String,
    /// The run's `OBS_cluster.json` section (E17–E22).
    pub section: Option<Json>,
    /// Standalone files `(name, bytes)` for the working directory.
    pub files: Vec<(&'static str, Vec<u8>)>,
}

impl Rendered {
    /// A report with no section and no files.
    pub fn text(report: String) -> Rendered {
        Rendered { report, section: None, files: Vec::new() }
    }
}

/// One row of the experiment table.
pub struct Experiment {
    /// Command-line name: `harness <name>`.
    pub name: &'static str,
    /// Module name, and the report's file stem under `harness all`.
    pub stem: &'static str,
    /// Renders the experiment; experiments without a smoke size ignore it.
    pub render: fn(Size) -> Rendered,
    /// Whether the experiment has a smoke size (`--smoke`).
    pub smoke: bool,
    /// The `OBS_cluster.json` section the run writes.
    pub section: Option<&'static str>,
    /// The schema rows `--check` evaluates ([`artifact::schema_errors`]).
    pub schema: &'static [Rule],
    /// Render with the N slowest traces appended (E18's `--top-k N`).
    pub top_k: Option<fn(Size, usize) -> Rendered>,
}

/// A report-only experiment (E1–E12): full size only, no section.
macro_rules! report {
    ($name:literal, $module:ident) => {
        Experiment {
            name: $name,
            stem: stringify!($module),
            render: |_| Rendered::text($module::render()),
            smoke: false,
            section: None,
            schema: &[],
            top_k: None,
        }
    };
}

/// A sized experiment (E13–E22), with its section and schema rows if any.
macro_rules! sized {
    ($name:literal, $module:ident) => {
        sized!($name, $module, None, &[])
    };
    ($name:literal, $module:ident, $section:expr, $schema:expr) => {
        Experiment {
            name: $name,
            stem: stringify!($module),
            render: $module::render,
            smoke: true,
            section: $section,
            schema: $schema,
            top_k: None,
        }
    };
}

/// Every experiment, in report order.
pub static EXPERIMENTS: [Experiment; 22] = [
    report!("fig1", e1_fig1),
    report!("fig2", e2_fig2),
    report!("fig3", e3_fig3),
    report!("figs_modelb", e4_modelb),
    report!("compare_models", e5_compare),
    report!("estimate_hprime", e6_estimate),
    report!("validate", e7_validate),
    report!("endtoend", e8_endtoend),
    report!("impedance", e9_impedance),
    report!("ablation", e10_ablation),
    report!("wireless", e11_wireless),
    report!("cache_policies", e12_caches),
    sized!("cluster", e13_cluster),
    sized!("coop", e14_coop),
    sized!("scale", e15_scale),
    sized!("delta", e16_delta),
    sized!("shard", e17_shard, Some("e17_strong_scaling"), &[]),
    Experiment {
        top_k: Some(e18_obs::render_top_k),
        ..sized!("obs", e18_obs, Some("e18_obs"), artifact::E18_OBS)
    },
    sized!("trace", e19_trace, Some("e19_trace"), artifact::E19_TRACE),
    sized!("delayed", e20_delayed, Some("e20_delayed"), artifact::E20_DELAYED),
    sized!("replay", e21_replay, Some("e21_replay"), artifact::E21_REPLAY),
    sized!("chaos", e22_chaos, Some("e22_chaos"), artifact::E22_CHAOS),
];

/// The experiment named `name` on the command line.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The smoke run of `name`, rendered once per test process and shared by
/// every unit test that reads it.
#[cfg(test)]
pub(crate) fn smoke(name: &str) -> &'static Rendered {
    use std::sync::OnceLock;
    static RUNS: [OnceLock<Rendered>; EXPERIMENTS.len()] =
        [const { OnceLock::new() }; EXPERIMENTS.len()];
    let i = EXPERIMENTS.iter().position(|e| e.name == name && e.smoke).expect("a smoke size");
    RUNS[i].get_or_init(|| (EXPERIMENTS[i].render)(Size::Smoke))
}

/// The paper's global parameters: λ = 30 everywhere; Figures 2/3 use
/// s̄ = 1, b = 50; every figure has panels h′ = 0.0 and h′ = 0.3.
pub mod paper {
    /// λ used in every figure.
    pub const LAMBDA: f64 = 30.0;
    /// b of Figures 2 and 3.
    pub const FIG23_BANDWIDTH: f64 = 50.0;
    /// s̄ of Figures 2 and 3.
    pub const FIG23_MEAN_SIZE: f64 = 1.0;
    /// The two panels.
    pub const H_PRIMES: [f64; 2] = [0.0, 0.3];
    /// The `b` series of Figure 1.
    pub const FIG1_BANDWIDTHS: [f64; 9] =
        [50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0];
    /// The `p` series of Figures 2 and 3.
    pub const FIG23_PROBS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
}
