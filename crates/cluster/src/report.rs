//! Measurement records produced by one cluster run.
//!
//! Everything is plain data with `PartialEq` so determinism can be asserted
//! structurally (same seed ⇒ identical report). Quantities that only exist
//! in one mode (e.g. adaptive thresholds, prefetch goodput) are `Option`s
//! and are always finite when present — `NaN` never appears in a report.

use crate::topology::LinkName;

/// Per-link measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkReport {
    /// Topology name of the link (prints as text, compares with a `str`).
    pub name: LinkName,
    /// Busy fraction over the run, `ρ` of this hop.
    pub utilisation: f64,
    /// Size-units carried (every job counted once per traversal).
    pub bytes_carried: f64,
    /// Jobs that finished service on this link.
    pub jobs_completed: u64,
}

/// Per-proxy (client-population) measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// Proxy index in the topology.
    pub proxy: usize,
    /// Requests measured (post warm-up).
    pub measured_requests: u64,
    /// Cache hit ratio over measured requests.
    pub hit_ratio: f64,
    /// Mean user-perceived access time `t̄` (hits cost zero).
    pub mean_access_time: f64,
    /// 95% CI half-width on `t̄` (batch means).
    pub access_time_ci95: f64,
    /// Mean sojourn of demand fetches (the paper's `r̄`).
    pub mean_retrieval_time: f64,
    /// Retrieval time per user request, `R` (demand + prefetch sojourns).
    pub retrieval_per_request: f64,
    /// Prefetch jobs issued per user request (`n̄(F)` realised).
    pub prefetches_per_request: f64,
    /// Prefetched size-units that later served a hit (adaptive mode only).
    pub goodput_bytes: Option<f64>,
    /// Prefetched size-units that never served a hit (adaptive mode only).
    pub badput_bytes: Option<f64>,
    /// Demand-fetched size-units.
    pub demand_bytes: f64,
    /// Cache occupancy in size-units at the end of the run (closed-loop
    /// modes only; `None` in the cache-less open loop). Bounded by the
    /// workload's `cache_bytes` budget when one is set.
    pub cache_used_bytes: Option<f64>,
    /// Size-units of this proxy's misses/prefetches served from peer
    /// caches instead of the origin (cooperative mode only).
    pub peer_bytes: Option<f64>,
    /// Transfers served from a peer cache (cooperative mode only).
    pub peer_fetches: Option<u64>,
    /// Peer transfers that arrived to find the entry absent — digest false
    /// hits: epoch staleness plus the Bloom filter's structural
    /// false-positive floor (cooperative mode only).
    pub peer_false_hits: Option<u64>,
    /// Mean threshold the local controller applied (adaptive mode only).
    pub mean_threshold: Option<f64>,
    /// The controller's final `ρ̂′` estimate (adaptive mode only).
    pub rho_prime_estimate: Option<f64>,
    /// The controller's final `ĥ′` estimate (adaptive mode only).
    pub h_prime_estimate: Option<f64>,
    /// Measured requests settled as **delayed hits** — misses that joined
    /// an outstanding fetch's waiter queue instead of fetching (modes with
    /// an MSHR table; `None` in the itemless open loop).
    pub delayed_hits: Option<u64>,
    /// Demand misses absorbed by MSHR coalescing, warm-up included (the
    /// transfers the table avoided launching).
    pub coalesced_requests: Option<u64>,
    /// Origin fetches the MSHR table authorised (tracked launches plus
    /// full-table/independent-mode bypasses), warm-up included.
    pub origin_fetches: Option<u64>,
    /// Mean residual wait of the measured delayed hits (time from joining
    /// the waiter queue to the fetch landing).
    pub mean_residual_wait: Option<f64>,
    /// Mean waiters per settled MSHR entry, warm-up included.
    pub mean_waiter_depth: Option<f64>,
    /// MSHR allocations refused by the entry budget (demand bypasses on a
    /// full table plus dropped prefetch reservations).
    pub mshr_rejections: Option<u64>,
    /// Demand misses presented to the MSHR table, warm-up included.
    /// Together with `origin_fetches`, `coalesced_requests`, and
    /// `mshr_failed` this exposes the conservation law `origin_fetches +
    /// coalesced + failed == demand_misses` for external checking.
    pub demand_misses: Option<u64>,
    /// Demand misses reclassified as failed in the MSHR ledger (timeout
    /// exhaustion or crash drain), warm-up included.
    pub mshr_failed: Option<u64>,
    /// Fetch attempts that expired without an answer (fault runs; zero
    /// otherwise), warm-up included.
    pub timeouts: u64,
    /// Retry attempts launched after a timeout, warm-up included.
    pub retries: u64,
    /// Peer-destined fetches re-routed to the origin because every path
    /// to the peer was dark at launch, warm-up included.
    pub failovers: u64,
    /// Fetches that exhausted their attempt budget and settled as
    /// failures (plus crash-drained demand fetches), warm-up included.
    pub failed_fetches: u64,
    /// Cache entries and buffered digest ops wiped by crash / digest-loss
    /// faults at this proxy.
    pub lost_entries: u64,
    /// Fraction of measured requests that ended in failure instead of
    /// data — the headline graceful-degradation metric. Zero without
    /// faults.
    pub unavailability: f64,
}

/// Activity of the cooperative layer over one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoopReport {
    /// The router's own counters (digest epochs, vnode migrations, …).
    pub router: coop::RouterStats,
    /// Peer-served transfers across all proxies.
    pub peer_fetches: u64,
    /// Digest false hits across all proxies (staleness + Bloom structural
    /// false positives).
    pub peer_false_hits: u64,
}

/// One complete cluster run.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterReport {
    /// Per-proxy measurements, indexed by proxy.
    pub nodes: Vec<NodeReport>,
    /// Per-link measurements, in topology link order.
    pub links: Vec<LinkReport>,
    /// Request-weighted mean access time across all proxies.
    pub mean_access_time: f64,
    /// Network load: size-units injected (demand + prefetch, counted once
    /// per job) per user request — the Fig. 3 quantity at cluster scope.
    pub bytes_per_request: f64,
    /// Virtual time of the last event.
    pub duration: f64,
    /// Cooperative-layer counters (cooperative mode only).
    pub coop: Option<CoopReport>,
}

impl ClusterReport {
    /// The highest per-link utilisation — the cluster's stability margin
    /// (`max ρ < 1` ⇔ every queue is stable at these loads).
    pub fn max_link_utilisation(&self) -> f64 {
        self.links.iter().map(|l| l.utilisation).fold(0.0, f64::max)
    }

    /// Finds a link report by topology name.
    pub fn link(&self, name: &str) -> Option<&LinkReport> {
        self.links.iter().find(|l| &l.name == name)
    }

    /// Size-units carried by the named link — the backbone load the
    /// cooperative experiments compare. Zero when the link is absent.
    pub fn link_bytes(&self, name: &str) -> f64 {
        self.link(name).map_or(0.0, |l| l.bytes_carried)
    }

    /// Digest-exchange bytes the cooperative layer shipped (zero without
    /// cooperation) — the metadata overhead the delta protocol shrinks.
    pub fn digest_bytes(&self) -> u64 {
        self.coop.map_or(0, |c| c.router.digest_bytes)
    }

    /// Measured delayed hits across all proxies (zero when the mode has no
    /// MSHR table).
    pub fn delayed_hits(&self) -> u64 {
        self.nodes.iter().filter_map(|n| n.delayed_hits).sum()
    }

    /// Coalesced demand misses across all proxies.
    pub fn coalesced_requests(&self) -> u64 {
        self.nodes.iter().filter_map(|n| n.coalesced_requests).sum()
    }

    /// Origin fetches authorised across all proxies — the transfer count
    /// the coalescing win shrinks at equal offered load.
    pub fn origin_fetches(&self) -> u64 {
        self.nodes.iter().filter_map(|n| n.origin_fetches).sum()
    }

    /// Delayed-hit-weighted mean residual wait across all proxies (`None`
    /// when no proxy settled a measured delayed hit) — iterated in node
    /// order, so the reduction is identical under every sharding.
    pub fn mean_residual_wait(&self) -> Option<f64> {
        let total: u64 = self.delayed_hits();
        (total > 0).then(|| {
            self.nodes
                .iter()
                .filter_map(|n| Some(n.mean_residual_wait? * n.delayed_hits? as f64))
                .sum::<f64>()
                / total as f64
        })
    }

    /// The extended MSHR conservation law, checked cluster-wide: on every
    /// node with a table, `origin_fetches + coalesced + failed ==
    /// demand_misses` — faults must not leak demand misses out of the
    /// ledger. Vacuously true for table-less modes.
    pub fn mshr_conservation_ok(&self) -> bool {
        self.nodes.iter().all(|n| {
            match (n.origin_fetches, n.coalesced_requests, n.mshr_failed, n.demand_misses) {
                (Some(o), Some(c), Some(f), Some(d)) => o + c + f == d,
                _ => true,
            }
        })
    }

    /// Fetch failures across all proxies (zero without faults).
    pub fn failed_fetches(&self) -> u64 {
        self.nodes.iter().map(|n| n.failed_fetches).sum()
    }

    /// Retry attempts across all proxies (zero without faults).
    pub fn retries(&self) -> u64 {
        self.nodes.iter().map(|n| n.retries).sum()
    }

    /// Request-weighted cluster unavailability: the fraction of measured
    /// requests, cluster-wide, that ended in failure instead of data.
    /// Iterated in node order so the reduction is identical under every
    /// sharding. Zero without faults.
    pub fn unavailability(&self) -> f64 {
        let measured: u64 = self.nodes.iter().map(|n| n.measured_requests).sum();
        if measured == 0 {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.unavailability * n.measured_requests as f64).sum::<f64>()
            / measured as f64
    }

    /// Mean waiter depth across all proxies, weighted by each proxy's
    /// coalesced-request count (`None` when nothing coalesced).
    pub fn mean_waiter_depth(&self) -> Option<f64> {
        let weighted: f64 = self
            .nodes
            .iter()
            .filter_map(|n| Some(n.mean_waiter_depth? * n.coalesced_requests? as f64))
            .sum();
        let total: u64 = self.coalesced_requests();
        (total > 0).then(|| weighted / total as f64)
    }
}

/// Structural report-equality assertions shared by the parity test suites
/// (`engine_parity.rs`, `delta_parity.rs`). Not part of the public API.
#[doc(hidden)]
pub mod parity {
    use super::ClusterReport;

    /// Absolute tolerance on every floating-point field; counters must
    /// match exactly.
    pub const TOL: f64 = 1e-12;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= TOL
    }

    fn close_opt(a: Option<f64>, b: Option<f64>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => close(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Full structural report equality to [`TOL`] on every float, exact on
    /// every counter — including the digest-exchange traffic.
    pub fn assert_reports_match(a: &ClusterReport, b: &ClusterReport, label: &str) {
        assert_reports_match_impl(a, b, label, false);
    }

    /// Like [`assert_reports_match`], but ignores the digest-exchange
    /// volume counters (`digest_bytes`, `delta_ops`): deltas and full
    /// rebuilds advertise identical state while *by design* shipping
    /// different byte volumes, so the delta-parity suite compares
    /// everything else exactly.
    pub fn assert_reports_match_modulo_digest_traffic(
        a: &ClusterReport,
        b: &ClusterReport,
        label: &str,
    ) {
        assert_reports_match_impl(a, b, label, true);
    }

    fn assert_reports_match_impl(
        a: &ClusterReport,
        b: &ClusterReport,
        label: &str,
        ignore_digest_traffic: bool,
    ) {
        assert!(close(a.mean_access_time, b.mean_access_time), "{label}: mean_access_time");
        assert!(close(a.bytes_per_request, b.bytes_per_request), "{label}: bytes_per_request");
        assert!(close(a.duration, b.duration), "{label}: duration");
        assert_eq!(a.nodes.len(), b.nodes.len(), "{label}: node count");
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            let l = format!("{label}: proxy {}", x.proxy);
            assert_eq!(x.proxy, y.proxy, "{l}: index");
            assert_eq!(x.measured_requests, y.measured_requests, "{l}: measured");
            assert!(close(x.hit_ratio, y.hit_ratio), "{l}: hit_ratio");
            assert!(close(x.mean_access_time, y.mean_access_time), "{l}: mean_access_time");
            assert!(close(x.access_time_ci95, y.access_time_ci95), "{l}: ci95");
            assert!(close(x.mean_retrieval_time, y.mean_retrieval_time), "{l}: retrieval");
            assert!(close(x.retrieval_per_request, y.retrieval_per_request), "{l}: R");
            assert!(close(x.prefetches_per_request, y.prefetches_per_request), "{l}: nf");
            assert!(close_opt(x.goodput_bytes, y.goodput_bytes), "{l}: goodput");
            assert!(close_opt(x.badput_bytes, y.badput_bytes), "{l}: badput");
            assert!(close(x.demand_bytes, y.demand_bytes), "{l}: demand bytes");
            assert!(close_opt(x.cache_used_bytes, y.cache_used_bytes), "{l}: cache bytes");
            assert!(close_opt(x.peer_bytes, y.peer_bytes), "{l}: peer bytes");
            assert_eq!(x.peer_fetches, y.peer_fetches, "{l}: peer fetches");
            assert_eq!(x.peer_false_hits, y.peer_false_hits, "{l}: false hits");
            assert!(close_opt(x.mean_threshold, y.mean_threshold), "{l}: threshold");
            assert!(close_opt(x.rho_prime_estimate, y.rho_prime_estimate), "{l}: rho'");
            assert!(close_opt(x.h_prime_estimate, y.h_prime_estimate), "{l}: h'");
            assert_eq!(x.delayed_hits, y.delayed_hits, "{l}: delayed hits");
            assert_eq!(x.coalesced_requests, y.coalesced_requests, "{l}: coalesced");
            assert_eq!(x.origin_fetches, y.origin_fetches, "{l}: origin fetches");
            assert!(close_opt(x.mean_residual_wait, y.mean_residual_wait), "{l}: residual");
            assert!(close_opt(x.mean_waiter_depth, y.mean_waiter_depth), "{l}: waiter depth");
            assert_eq!(x.mshr_rejections, y.mshr_rejections, "{l}: mshr rejections");
            assert_eq!(x.demand_misses, y.demand_misses, "{l}: demand misses");
            assert_eq!(x.mshr_failed, y.mshr_failed, "{l}: mshr failed");
            assert_eq!(x.timeouts, y.timeouts, "{l}: timeouts");
            assert_eq!(x.retries, y.retries, "{l}: retries");
            assert_eq!(x.failovers, y.failovers, "{l}: failovers");
            assert_eq!(x.failed_fetches, y.failed_fetches, "{l}: failed fetches");
            assert_eq!(x.lost_entries, y.lost_entries, "{l}: lost entries");
            assert!(close(x.unavailability, y.unavailability), "{l}: unavailability");
        }
        assert_eq!(a.links.len(), b.links.len(), "{label}: link count");
        for (x, y) in a.links.iter().zip(&b.links) {
            let l = format!("{label}: link {}", x.name);
            assert_eq!(x.name, y.name, "{l}: name");
            assert!(close(x.utilisation, y.utilisation), "{l}: rho");
            assert!(close(x.bytes_carried, y.bytes_carried), "{l}: bytes");
            assert_eq!(x.jobs_completed, y.jobs_completed, "{l}: jobs");
        }
        assert_eq!(a.coop.is_some(), b.coop.is_some(), "{label}: coop presence");
        if let (Some(x), Some(y)) = (&a.coop, &b.coop) {
            assert_eq!(x.peer_fetches, y.peer_fetches, "{label}: coop peer fetches");
            assert_eq!(x.peer_false_hits, y.peer_false_hits, "{label}: coop false hits");
            assert_eq!(x.router.digest_epochs, y.router.digest_epochs, "{label}: digest epochs");
            assert_eq!(
                x.router.vnode_migrations, y.router.vnode_migrations,
                "{label}: vnode migrations"
            );
            if !ignore_digest_traffic {
                assert_eq!(x.router.digest_bytes, y.router.digest_bytes, "{label}: digest bytes");
                assert_eq!(x.router.delta_ops, y.router.delta_ops, "{label}: delta ops");
                assert_eq!(
                    x.router.delta_flushes, y.router.delta_flushes,
                    "{label}: delta flushes"
                );
                assert_eq!(
                    x.router.snapshot_flushes, y.router.snapshot_flushes,
                    "{label}: snapshot flushes"
                );
            }
        }
    }
}

/// One point of the aggregate network-load curve (the cluster-scope
/// analogue of the paper's Figures 2–3).
#[derive(Clone, Debug, PartialEq)]
pub struct CurvePoint {
    /// Prefetch volume `n̄(F)` applied at every proxy.
    pub n_f: f64,
    /// Cluster mean access time `t̄` at this volume.
    pub mean_access_time: f64,
    /// Access improvement `G = t̄′ − t̄` vs the no-prefetch baseline (Fig 2).
    pub improvement: f64,
    /// Excess network load per request vs baseline, `C` analogue (Fig 3).
    pub excess_bytes_per_request: f64,
    /// Highest link utilisation at this volume.
    pub max_link_utilisation: f64,
}
