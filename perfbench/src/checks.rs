//! Per-run correctness checks. Every batch run the benchmark makes counts
//! as one attempt; a run that fails any check counts as failed.

use crate::spec::Spec;
use cluster::ClusterReport;

/// Attempt/failure ledger of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure reasons, for the diagnostic stream.
    pub reasons: Vec<String>,
}

impl Ledger {
    /// Records one run's verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(reason);
            }
        }
    }

    pub fn all_passed(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The checks every report must pass on its own: the MSHR conservation
/// law, finite floats everywhere, and the configured number of measured
/// requests.
pub fn check_report(spec: &Spec, report: &ClusterReport) -> Result<(), String> {
    if !report.mshr_conservation_ok() {
        return Err("MSHR conservation law violated".into());
    }
    if let Some(name) = first_non_finite(report) {
        return Err(format!("non-finite report field {name}"));
    }
    let measured: u64 = report.nodes.iter().map(|n| n.measured_requests).sum();
    if measured != spec.measured_requests() {
        return Err(format!(
            "measured {measured} requests, config asks for {}",
            spec.measured_requests()
        ));
    }
    Ok(())
}

/// `check_report` plus bit-identity (derived `PartialEq`) with a reference
/// report of the same seed.
pub fn check_against(
    spec: &Spec,
    report: &ClusterReport,
    reference: &ClusterReport,
    what: &str,
) -> Result<(), String> {
    check_report(spec, report)?;
    if report != reference {
        return Err(format!("{what}: report differs from the reference run"));
    }
    Ok(())
}

/// Name of the first non-finite float in the report, if any.
fn first_non_finite(r: &ClusterReport) -> Option<&'static str> {
    let top = [
        ("mean_access_time", r.mean_access_time),
        ("bytes_per_request", r.bytes_per_request),
        ("duration", r.duration),
    ];
    for n in &r.nodes {
        let fields = [
            ("hit_ratio", Some(n.hit_ratio)),
            ("node.mean_access_time", Some(n.mean_access_time)),
            ("access_time_ci95", Some(n.access_time_ci95)),
            ("mean_retrieval_time", Some(n.mean_retrieval_time)),
            ("retrieval_per_request", Some(n.retrieval_per_request)),
            ("prefetches_per_request", Some(n.prefetches_per_request)),
            ("goodput_bytes", n.goodput_bytes),
            ("badput_bytes", n.badput_bytes),
            ("demand_bytes", Some(n.demand_bytes)),
            ("cache_used_bytes", n.cache_used_bytes),
            ("peer_bytes", n.peer_bytes),
            ("mean_threshold", n.mean_threshold),
            ("rho_prime_estimate", n.rho_prime_estimate),
            ("h_prime_estimate", n.h_prime_estimate),
            ("mean_residual_wait", n.mean_residual_wait),
            ("mean_waiter_depth", n.mean_waiter_depth),
            ("unavailability", Some(n.unavailability)),
        ];
        if let Some((name, _)) = fields.iter().find(|(_, v)| v.is_some_and(|x| !x.is_finite())) {
            return Some(name);
        }
    }
    for l in &r.links {
        if !l.utilisation.is_finite() {
            return Some("link.utilisation");
        }
        if !l.bytes_carried.is_finite() {
            return Some("link.bytes_carried");
        }
    }
    top.iter().find(|(_, v)| !v.is_finite()).map(|(name, _)| *name)
}
