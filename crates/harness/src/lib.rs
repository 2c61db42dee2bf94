//! # harness — regenerates every figure of the paper, plus validation
//!
//! One binary per experiment (run with `--release`):
//!
//! | Binary | Paper artefact | Experiment |
//! |--------|----------------|------------|
//! | `fig1` | Figure 1 | E1: `p_th` vs `s̄` for `b ∈ {50..450}`, panels `h′∈{0,0.3}` |
//! | `fig2` | Figure 2 | E2: `G` vs `n̄(F)` for `p ∈ {0.1..0.9}` |
//! | `fig3` | Figure 3 | E3: `C` vs `n̄(F)` for `p ∈ {0.1..0.9}` |
//! | `figs_modelb` | (derived) | E4: Model-B analogues of Figs 1–3 |
//! | `compare_models` | §6 | E5: A vs AB vs B convergence |
//! | `estimate_hprime` | §4 | E6: tagged-entry `ĥ′` vs twin-cache truth |
//! | `validate` | (derived) | E7: DES measurements vs eqs (5),(10),(11),(27) |
//! | `endtoend` | §1 motivation | E8: policies × predictors on the proxy workload |
//! | `impedance` | §5 | E9: same prefetch volume under rising load |
//! | `ablation` | §2.1 | E10: RR→PS convergence; PS insensitivity vs FIFO |
//! | `wireless` | (derived) | E11: time-varying wireless channel |
//! | `cache_policies` | (derived) | E12: measured `h′` by replacement policy |
//! | `cluster` | title | E13: multi-node network-of-queues prefetching |
//! | `coop` | (derived) | E14: cooperative edge caching over peer meshes |
//! | `scale` | (derived) | E15: wide fabrics on the indexed scheduler |
//! | `delta` | (derived) | E16: digest deltas + byte-addressed caches |
//! | `shard` | (derived) | E17: strong scaling of the sharded engine |
//! | `obs` | (derived) | E18: observability dashboard + `OBS_cluster.json` (`--top-k N` appends the slowest-traces view) |
//! | `trace` | (derived) | E19: causal tracing — latency attribution, top-K slowest traces, `TRACE_cluster.json` |
//! | `delayed` | (derived) | E20: delayed hits — MSHR coalescing win + aggregate-delay ranking inversion |
//! | `replay` | (derived) | E21: streaming trace replay — record to `.events`, scale by superposition, replay bit-identically |
//! | `chaos` | (derived) | E22: fault injection — link loss × prefetch aggressiveness, retries vs none, full-repertoire chaos showcase |
//! | `sentinel` | — | regression gate: diffs `OBS_cluster.json` against `baselines/` |
//! | `all` | — | runs everything, writes `results/*.txt` |
//!
//! The library half provides plain-text tables ([`report::Table`]), terminal
//! line plots ([`asciiplot::Chart`] and [`asciiplot::sparkline`]) and the
//! experiment implementations themselves (under [`experiments`]), so
//! integration tests can call them directly. The E17–E22 binaries also
//! write machine-readable sections into `OBS_cluster.json` (see
//! [`artifact`]); E18–E22 schema-check their section with `--check`
//! ([`artifact::check`]).

pub mod artifact;
pub mod asciiplot;
pub mod experiments;
pub mod report;
pub mod sentinel;
pub mod sweep;

/// Formats an optional quantity, rendering instability as the paper's
/// figures do (the curve leaves the plot).
pub fn fmt_opt(v: Option<f64>, precision: usize) -> String {
    match v {
        Some(x) => format!("{x:.precision$}"),
        None => "unstable".to_string(),
    }
}

/// Relative error |measured − predicted| / |predicted| (NaN-safe).
pub fn rel_err(measured: f64, predicted: f64) -> f64 {
    if predicted == 0.0 {
        measured.abs()
    } else {
        (measured - predicted).abs() / predicted.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_opt_renders_both_cases() {
        assert_eq!(fmt_opt(Some(0.123456), 3), "0.123");
        assert_eq!(fmt_opt(None, 3), "unstable");
    }

    #[test]
    fn rel_err_basics() {
        assert!((rel_err(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(rel_err(0.5, 0.0), 0.5);
    }
}
