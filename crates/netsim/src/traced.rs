//! Trace-driven end-to-end simulator: the full prefetching pipeline.
//!
//! N clients navigate a shared link graph (the `workload::SynthWeb`
//! workload). Each client has an LRU cache with the paper's tagged-entry
//! instrumentation, a per-client access predictor, and a **twin cache** —
//! an identical LRU fed the same request stream but never prefetched into —
//! providing the ground-truth counterfactual `h′` that the §4 estimator is
//! trying to recover. All fetches (demand and prefetch) share one
//! processor-sharing link.
//!
//! The policies under comparison (experiment E8):
//!
//! * [`Policy::NoPrefetch`] — baseline `t̄′`;
//! * [`Policy::PrefetchAll`] — prefetch every candidate the predictor
//!   offers (the naive heuristic the paper warns about);
//! * [`Policy::FixedThreshold`] — prefetch above a constant probability;
//! * [`Policy::Adaptive`] — the paper's headline policy with `p̂_th = ρ̂′`
//!   from the online estimators.

use cachesim::{AccessKind, LruCache, ReplacementCache, TaggedCache};
use predictor::{
    DependencyGraph, Ensemble, Lz78Predictor, MarkovPredictor, OraclePredictor, PpmPredictor,
    Predictor,
};
use prefetch_core::controller::{AdaptiveController, ControllerConfig};
use prefetch_core::estimator::EntryStatus;
use queueing::{PsServer, Server};
use simcore::hash::{IdMap, IdSet};
use simcore::rng::Rng;
use simcore::stats::BatchMeans;
use workload::synth_web::{SynthWeb, SynthWebConfig};
use workload::ItemId;

/// Which access model feeds the policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictorKind {
    /// Ground-truth probabilities from the generating chain.
    Oracle,
    /// Learned order-1 Markov.
    Markov1,
    /// Learned order-2 Markov.
    Markov2,
    /// PPM blend up to order 2.
    Ppm2,
    /// LZ78 parse tree.
    Lz78,
    /// Dependency graph with the given lookahead window.
    DepGraph(usize),
    /// Accuracy-weighted ensemble of Markov-1 and LZ78.
    Ensemble,
}

impl PredictorKind {
    fn build(&self, web: &SynthWeb) -> Box<dyn Predictor> {
        match self {
            PredictorKind::Oracle => Box::new(OraclePredictor::from_chain(&web.structure().chain)),
            PredictorKind::Markov1 => Box::new(MarkovPredictor::new(1)),
            PredictorKind::Markov2 => Box::new(MarkovPredictor::new(2)),
            PredictorKind::Ppm2 => Box::new(PpmPredictor::new(2)),
            PredictorKind::Lz78 => Box::new(Lz78Predictor::new()),
            PredictorKind::DepGraph(w) => Box::new(DependencyGraph::new(*w)),
            PredictorKind::Ensemble => Box::new(Ensemble::new(
                vec![Box::new(MarkovPredictor::new(1)), Box::new(Lz78Predictor::new())],
                0.02,
            )),
        }
    }

    pub fn label(&self) -> String {
        match self {
            PredictorKind::Oracle => "oracle".into(),
            PredictorKind::Markov1 => "markov1".into(),
            PredictorKind::Markov2 => "markov2".into(),
            PredictorKind::Ppm2 => "ppm2".into(),
            PredictorKind::Lz78 => "lz78".into(),
            PredictorKind::DepGraph(w) => format!("depgraph{w}"),
            PredictorKind::Ensemble => "ensemble".into(),
        }
    }
}

/// Prefetch policy under test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    /// Never prefetch.
    NoPrefetch,
    /// Prefetch every candidate with positive probability.
    PrefetchAll,
    /// Prefetch candidates above a constant threshold.
    FixedThreshold(f64),
    /// The paper's policy: threshold `ρ̂′` from online estimation (model A).
    Adaptive,
}

impl Policy {
    pub fn label(&self) -> String {
        match self {
            Policy::NoPrefetch => "no-prefetch".into(),
            Policy::PrefetchAll => "prefetch-all".into(),
            Policy::FixedThreshold(t) => format!("fixed({t:.2})"),
            Policy::Adaptive => "adaptive(pth=rho')".into(),
        }
    }
}

/// Configuration of one end-to-end run.
#[derive(Clone, Copy, Debug)]
pub struct TracedConfig {
    /// Workload shape (clients, λ, catalog, link structure, sizes).
    pub web: SynthWebConfig,
    /// Per-client cache capacity (items).
    pub cache_capacity: usize,
    /// Shared link bandwidth `b` (size-units/s).
    pub bandwidth: f64,
    /// Access model.
    pub predictor: PredictorKind,
    /// Prefetch policy.
    pub policy: Policy,
    /// Maximum candidates considered per request.
    pub max_candidates: usize,
    /// Mean of the exponential delay between a prefetch decision and the
    /// job's issue. Zero issues prefetches at the request instant, which
    /// creates batch arrivals at the link (`M^[X]/G/1`) and measurably
    /// inflates *demand* sojourns — real prefetchers pace their traffic,
    /// and the paper's M/G/1 model assumes Poisson superposition.
    pub prefetch_jitter: f64,
    /// Total user requests.
    pub requests: usize,
    /// Warm-up requests (unmeasured).
    pub warmup: usize,
}

impl Default for TracedConfig {
    fn default() -> Self {
        TracedConfig {
            web: SynthWebConfig::default(),
            cache_capacity: 32,
            bandwidth: 50.0,
            predictor: PredictorKind::Markov1,
            policy: Policy::Adaptive,
            max_candidates: 4,
            prefetch_jitter: 0.01,
            requests: 60_000,
            warmup: 10_000,
        }
    }
}

/// Results of one end-to-end run.
#[derive(Clone, Debug)]
pub struct TracedReport {
    /// Policy label.
    pub policy: String,
    /// Predictor label.
    pub predictor: String,
    /// Measured requests (post warm-up).
    pub requests: u64,
    /// Mean user-perceived access time (hits are zero).
    pub mean_access_time: f64,
    /// 95% CI half width (batch means).
    pub access_time_ci95: f64,
    /// Real hit ratio with prefetching.
    pub hit_ratio: f64,
    /// §4 estimate of the counterfactual `h′` (model A form).
    pub h_prime_estimate: f64,
    /// Ground-truth `h′` from the twin (no-prefetch) caches.
    pub twin_h_prime: f64,
    /// Link utilisation (busy fraction).
    pub utilisation: f64,
    /// Prefetch jobs issued per user request (`n̄(F)` realised).
    pub prefetches_per_request: f64,
    /// Fraction of prefetch insertions that served a later hit.
    pub useful_prefetch_fraction: f64,
    /// Mean threshold applied over measured requests.
    pub mean_threshold: f64,
    /// Network bytes (size-units) moved per user request (demand + prefetch).
    pub bytes_per_request: f64,
    /// Fraction of prefetched bytes that never served a hit.
    pub wasted_prefetch_bytes_fraction: f64,
}

#[derive(Clone, Copy)]
enum Job {
    Demand { client: u32, item: ItemId, issued: f64, measured: bool },
    Prefetch { client: u32, item: ItemId },
}

/// A prefetch decision waiting out its jitter before hitting the link.
#[derive(Clone, Copy)]
struct PendingPrefetch {
    due: f64,
    client: u32,
    item: ItemId,
    size: f64,
}

impl PartialEq for PendingPrefetch {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for PendingPrefetch {}
impl PartialOrd for PendingPrefetch {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingPrefetch {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest due first.
        other.due.total_cmp(&self.due)
    }
}

struct Client {
    cache: TaggedCache<ItemId, LruCache<ItemId>>,
    twin: LruCache<ItemId>,
    predictor: Box<dyn Predictor>,
    inflight: IdSet<ItemId>,
}

/// Runs the end-to-end simulation.
pub fn run(config: &TracedConfig, seed: u64) -> TracedReport {
    let mut rng = Rng::new(seed);
    let mut web = SynthWeb::new(config.web, &mut rng);
    let n_clients = config.web.n_clients;

    let mut clients: Vec<Client> = (0..n_clients)
        .map(|_| Client {
            cache: TaggedCache::new(LruCache::new(config.cache_capacity)),
            twin: LruCache::new(config.cache_capacity),
            predictor: config.predictor.build(&web),
            inflight: IdSet::default(),
        })
        .collect();

    let mut controller = AdaptiveController::new(ControllerConfig::model_a(config.bandwidth));
    let mut server: PsServer<Job> = PsServer::new(config.bandwidth);
    let mut done = Vec::new();

    let mut access_times = BatchMeans::new(20);
    let mut hits = 0u64;
    let mut measured = 0u64;
    let mut twin_hits = 0u64;
    let mut twin_accesses = 0u64;
    let mut prefetch_jobs = 0u64;
    let mut threshold_sum = 0.0;
    let mut threshold_n = 0u64;
    let mut demand_bytes = 0.0f64;
    let mut prefetch_bytes = 0.0f64;
    let mut used_prefetch_bytes = 0.0f64;

    let warm = config.warmup as u64;
    let n_requests = config.requests as u64;
    let mut issued = 0u64;
    let mut pending = web.next_request(&mut rng);
    let mut t_end = 0.0;
    let mut jitter_rng = rng.split();
    let mut delayed: std::collections::BinaryHeap<PendingPrefetch> = Default::default();
    // Requests that missed while a fetch for the same (client, item) was
    // already in flight wait for that fetch instead of duplicating it.
    let mut waiters: IdMap<(u32, ItemId), Vec<(f64, bool)>> = IdMap::default();

    #[derive(PartialEq)]
    enum Ev {
        Server,
        Request,
        IssuePrefetch,
        Done,
    }

    loop {
        let more = issued < n_requests;
        let ts = server.next_event().map_or(f64::INFINITY, |t| t);
        let tr = if more { pending.time } else { f64::INFINITY };
        // Pending prefetches are still issued after the request stream ends
        // so that any waiters attached to them resolve.
        let tp = delayed.peek().map_or(f64::INFINITY, |p| p.due);
        let ev = if ts.is_infinite() && tr.is_infinite() && tp.is_infinite() {
            Ev::Done
        } else if ts <= tr && ts <= tp {
            Ev::Server
        } else if tr <= tp {
            Ev::Request
        } else {
            Ev::IssuePrefetch
        };

        if ev == Ev::Done {
            break;
        }

        if ev == Ev::IssuePrefetch {
            let p = delayed.pop().expect("pending prefetch");
            t_end = p.due;
            // The item may have been demand-fetched while waiting; the
            // in-flight marker was set at decision time, so only issue if
            // it is still not cached.
            if !clients[p.client as usize].cache.inner().contains(&p.item) {
                prefetch_jobs += 1;
                prefetch_bytes += p.size;
                server.arrive(p.due, p.size, Job::Prefetch { client: p.client, item: p.item });
            } else {
                clients[p.client as usize].inflight.remove(&p.item);
            }
            continue;
        }

        if ev == Ev::Server {
            let t = ts;
            t_end = t;
            server.on_event(t, &mut done);
            for c in done.drain(..) {
                match c.tag {
                    Job::Demand { client, item, issued: t0, measured: m } => {
                        let cl = &mut clients[client as usize];
                        cl.cache.admit_after_fetch(item);
                        cl.inflight.remove(&item);
                        if m {
                            access_times.push(t - t0);
                        }
                        if let Some(ws) = waiters.remove(&(client, item)) {
                            for (tw, mw) in ws {
                                if mw {
                                    access_times.push(t - tw);
                                }
                            }
                        }
                    }
                    Job::Prefetch { client, item } => {
                        let cl = &mut clients[client as usize];
                        if let Some(ws) = waiters.remove(&(client, item)) {
                            // The item was demanded while the prefetch was in
                            // flight: it arrives as a demand-fetched (tagged)
                            // entry and the waiters' clocks stop now.
                            cl.cache.admit_after_fetch(item);
                            for (tw, mw) in ws {
                                if mw {
                                    access_times.push(t - tw);
                                }
                            }
                        } else {
                            cl.cache.prefetch_insert(item);
                            controller.on_prefetch_insert();
                        }
                        cl.inflight.remove(&item);
                    }
                }
            }
        } else {
            let req = pending;
            pending = web.next_request(&mut rng);
            let t = req.time;
            t_end = t;
            let idx = issued;
            issued += 1;
            let in_window = idx >= warm;
            let client_id = req.client;
            let cl = &mut clients[client_id as usize];

            // Twin (no-prefetch) cache: ground truth h′.
            let twin_hit = cl.twin.touch(req.item);
            if !twin_hit {
                cl.twin.insert(req.item);
            }
            if in_window {
                twin_accesses += 1;
                if twin_hit {
                    twin_hits += 1;
                }
            }

            // Main cache.
            match cl.cache.probe(req.item) {
                AccessKind::HitTagged => {
                    controller.on_cache_hit(t, EntryStatus::Tagged, req.size);
                    if in_window {
                        access_times.push(0.0);
                        hits += 1;
                        measured += 1;
                    }
                }
                AccessKind::HitUntagged => {
                    controller.on_cache_hit(t, EntryStatus::Untagged, req.size);
                    used_prefetch_bytes += req.size;
                    if in_window {
                        access_times.push(0.0);
                        hits += 1;
                        measured += 1;
                    }
                }
                AccessKind::Miss => {
                    controller.on_miss(t, req.size);
                    if in_window {
                        measured += 1;
                    }
                    if cl.inflight.contains(&req.item) {
                        // Join the in-flight fetch (demand or prefetch)
                        // instead of duplicating it.
                        waiters.entry((client_id, req.item)).or_default().push((t, in_window));
                    } else {
                        cl.inflight.insert(req.item);
                        demand_bytes += req.size;
                        server.arrive(
                            t,
                            req.size,
                            Job::Demand {
                                client: client_id,
                                item: req.item,
                                issued: t,
                                measured: in_window,
                            },
                        );
                    }
                }
            }

            // Predict and prefetch.
            cl.predictor.observe(req.item);
            let threshold = match config.policy {
                Policy::NoPrefetch => f64::INFINITY,
                Policy::PrefetchAll => 0.0,
                Policy::FixedThreshold(th) => th,
                Policy::Adaptive => controller.policy().threshold,
            };
            if in_window && threshold.is_finite() {
                threshold_sum += threshold;
                threshold_n += 1;
            }
            if threshold.is_finite() {
                let candidates = cl.predictor.candidates(config.max_candidates);
                for (item, p) in candidates {
                    if p > threshold
                        && !cl.cache.inner().contains(&item)
                        && !cl.inflight.contains(&item)
                    {
                        cl.inflight.insert(item);
                        let size = web.structure().catalog.size(item);
                        if config.prefetch_jitter > 0.0 {
                            let due = t + jitter_rng.exp(1.0 / config.prefetch_jitter);
                            delayed.push(PendingPrefetch { due, client: client_id, item, size });
                        } else {
                            prefetch_jobs += 1;
                            prefetch_bytes += size;
                            server.arrive(t, size, Job::Prefetch { client: client_id, item });
                        }
                    }
                }
            }
        }
    }

    // Aggregate tagged-cache statistics across clients.
    let mut n_access = 0u64;
    let mut n_cf_hits = 0u64;
    let mut prefetch_inserts = 0u64;
    let mut useful = 0u64;
    for cl in &clients {
        n_access += cl.cache.accesses();
        n_cf_hits += cl.cache.counterfactual_hits();
        prefetch_inserts += cl.cache.prefetch_inserts();
        // Useful prefetches: untagged entries that were touched. Every
        // HitUntagged converts exactly one prefetched entry, so count them
        // via real-vs-counterfactual difference.
        useful += cl.cache.real_hits() - cl.cache.counterfactual_hits();
    }

    let (mean_access, ci) = access_times.mean_ci();
    TracedReport {
        policy: config.policy.label(),
        predictor: config.predictor.label(),
        requests: measured,
        mean_access_time: mean_access,
        access_time_ci95: ci,
        hit_ratio: hits as f64 / measured.max(1) as f64,
        h_prime_estimate: if n_access > 0 { n_cf_hits as f64 / n_access as f64 } else { 0.0 },
        twin_h_prime: twin_hits as f64 / twin_accesses.max(1) as f64,
        utilisation: server.utilisation(t_end),
        prefetches_per_request: prefetch_jobs as f64 / n_requests.max(1) as f64,
        useful_prefetch_fraction: if prefetch_inserts > 0 {
            useful as f64 / prefetch_inserts as f64
        } else {
            0.0
        },
        mean_threshold: if threshold_n > 0 { threshold_sum / threshold_n as f64 } else { f64::NAN },
        bytes_per_request: (demand_bytes + prefetch_bytes) / n_requests.max(1) as f64,
        wasted_prefetch_bytes_fraction: if prefetch_bytes > 0.0 {
            (1.0 - used_prefetch_bytes / prefetch_bytes).max(0.0)
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> TracedConfig {
        TracedConfig {
            web: SynthWebConfig {
                n_clients: 12,
                lambda: 30.0,
                n_items: 400,
                branching: 3,
                link_skew: 0.3, // skewed: top successor ~0.72
                mean_size: 1.0,
                size_shape: 2.5,
            },
            cache_capacity: 24,
            bandwidth: 60.0,
            predictor: PredictorKind::Oracle,
            policy: Policy::Adaptive,
            max_candidates: 3,
            prefetch_jitter: 0.01,
            requests: 50_000,
            warmup: 10_000,
        }
    }

    #[test]
    fn estimator_recovers_twin_h_prime() {
        // E6 in miniature: the §4 estimate must track the twin-cache truth
        // while prefetching is live.
        let mut cfg = base_config();
        cfg.policy = Policy::Adaptive;
        let r = run(&cfg, 11);
        assert!(
            (r.h_prime_estimate - r.twin_h_prime).abs() < 0.05,
            "estimate {} vs twin {}",
            r.h_prime_estimate,
            r.twin_h_prime
        );
        // Prefetching actually happened.
        assert!(r.prefetches_per_request > 0.05, "nf {}", r.prefetches_per_request);
        // And raised the hit ratio above the counterfactual.
        assert!(r.hit_ratio > r.twin_h_prime, "h {} vs h' {}", r.hit_ratio, r.twin_h_prime);
    }

    #[test]
    fn adaptive_beats_no_prefetch_with_oracle() {
        let mut cfg = base_config();
        cfg.policy = Policy::NoPrefetch;
        let base = run(&cfg, 21);
        cfg.policy = Policy::Adaptive;
        let adapt = run(&cfg, 21);
        assert!(
            adapt.mean_access_time < base.mean_access_time,
            "adaptive {} vs baseline {}",
            adapt.mean_access_time,
            base.mean_access_time
        );
    }

    #[test]
    fn byte_accounting_is_coherent() {
        let mut cfg = base_config();
        cfg.policy = Policy::NoPrefetch;
        let base = run(&cfg, 71);
        // Without prefetching: bytes/request ≈ miss ratio × mean request
        // size (sizes are popularity-weighted, so compare loosely).
        assert!(base.bytes_per_request > 0.0);
        assert_eq!(base.wasted_prefetch_bytes_fraction, 0.0);
        cfg.policy = Policy::Adaptive;
        let adaptive = run(&cfg, 71);
        // Prefetching adds traffic…
        assert!(adaptive.bytes_per_request > base.bytes_per_request);
        // …and with a skewed oracle, most prefetched bytes get used.
        assert!(
            adaptive.wasted_prefetch_bytes_fraction < 0.5,
            "wasted {}",
            adaptive.wasted_prefetch_bytes_fraction
        );
        cfg.policy = Policy::PrefetchAll;
        let all = run(&cfg, 71);
        assert!(
            all.wasted_prefetch_bytes_fraction > adaptive.wasted_prefetch_bytes_fraction,
            "prefetch-all should waste more: {} vs {}",
            all.wasted_prefetch_bytes_fraction,
            adaptive.wasted_prefetch_bytes_fraction
        );
    }

    #[test]
    fn no_prefetch_hit_ratio_equals_twin() {
        let mut cfg = base_config();
        cfg.policy = Policy::NoPrefetch;
        let r = run(&cfg, 31);
        // With prefetching off, the main cache behaves exactly like the twin
        // (admission timing differs — fetch completion vs instant — so allow
        // a small gap).
        assert!(
            (r.hit_ratio - r.twin_h_prime).abs() < 0.02,
            "h {} vs twin {}",
            r.hit_ratio,
            r.twin_h_prime
        );
        assert_eq!(r.prefetches_per_request, 0.0);
        // §4 estimate degenerates to the real hit ratio.
        assert!((r.h_prime_estimate - r.hit_ratio).abs() < 0.02);
    }

    #[test]
    fn learned_predictor_close_to_oracle() {
        let mut cfg = base_config();
        cfg.predictor = PredictorKind::Markov1;
        cfg.policy = Policy::Adaptive;
        let learned = run(&cfg, 41);
        cfg.predictor = PredictorKind::Oracle;
        let oracle = run(&cfg, 41);
        // The learned model should capture most of the oracle's gain.
        assert!(
            learned.mean_access_time < oracle.mean_access_time * 1.5 + 1e-4,
            "learned {} vs oracle {}",
            learned.mean_access_time,
            oracle.mean_access_time
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = base_config();
        let a = run(&cfg, 5);
        let b = run(&cfg, 5);
        assert_eq!(a.mean_access_time, b.mean_access_time);
        assert_eq!(a.hit_ratio, b.hit_ratio);
        assert_eq!(a.prefetches_per_request, b.prefetches_per_request);
    }

    #[test]
    fn every_predictor_kind_runs() {
        let mut cfg = base_config();
        cfg.requests = 8_000;
        cfg.warmup = 2_000;
        for pk in [
            PredictorKind::Oracle,
            PredictorKind::Markov1,
            PredictorKind::Markov2,
            PredictorKind::Ppm2,
            PredictorKind::Lz78,
            PredictorKind::DepGraph(2),
            PredictorKind::Ensemble,
        ] {
            cfg.predictor = pk;
            let r = run(&cfg, 61);
            assert!(r.mean_access_time.is_finite(), "{}", pk.label());
            assert!(r.hit_ratio >= 0.0 && r.hit_ratio <= 1.0);
            // Every predictor learns *something* on this navigation graph.
            if pk != PredictorKind::DepGraph(2) {
                assert!(r.prefetches_per_request > 0.0, "{} never prefetched", pk.label());
            }
        }
    }

    #[test]
    fn prefetch_all_overloads_tight_link() {
        // With a tight link, prefetch-all must do worse than adaptive
        // (the paper's central warning: indiscriminate prefetching degrades
        // performance).
        let mut cfg = base_config();
        cfg.bandwidth = 40.0; // ρ′ ≈ 0.75·(1−h′) — tight
        cfg.web.link_skew = 0.9; // flat successor probabilities → poor candidates
        cfg.policy = Policy::PrefetchAll;
        let all = run(&cfg, 51);
        cfg.policy = Policy::Adaptive;
        let adaptive = run(&cfg, 51);
        assert!(
            adaptive.mean_access_time < all.mean_access_time,
            "adaptive {} vs prefetch-all {}",
            adaptive.mean_access_time,
            all.mean_access_time
        );
        // Prefetch-all should have pushed utilisation well above adaptive's.
        assert!(all.utilisation > adaptive.utilisation + 0.05);
    }
}
