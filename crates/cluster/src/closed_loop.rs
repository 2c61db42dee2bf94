//! Closed-loop proxy model: adaptive prefetching, optionally with
//! cooperative caching.
//!
//! Each proxy is a real edge cache: a Zipf catalog with Markov client
//! navigation (`workload::SynthWeb`), a shared tagged LRU cache
//! (`cachesim::TaggedCache`) fronting its whole client population, an
//! online `prefetch_core::AdaptiveController` provisioned against the
//! proxy's bottleneck bandwidth, and a per-proxy access predictor that
//! proposes prefetch candidates with probabilities. Misses and accepted
//! prefetches traverse a route of queueing links; items are partitioned
//! over origin shards by `item % n_shards`.
//!
//! Under [`AdaptiveWorkload::shared_structure_seed`], proxies with equal
//! structural config (`n_items`, `branching`, `link_skew`, `mean_size`,
//! `size_shape`) share one catalog, navigation chain and oracle successor
//! table ([`SharedWebs`]), built once per run before any shard engine;
//! each proxy keeps only its own cursor — client positions, arrival
//! process and clock.
//!
//! Because every controller estimates `ρ̂′` from *its own* traffic, two
//! proxies with different local load converge to different thresholds —
//! the per-node divergence the cluster experiment (E13) demonstrates.
//!
//! With a [`coop::CoopConfig`] attached (the [`crate::Workload::Cooperative`]
//! mode, experiment E14), a [`coop::Router`] additionally resolves every
//! miss and prefetch against the peers' Bloom digests and the consistent-
//! hash placement ring: a `Peer(q)` resolution traverses the proxy↔proxy
//! peer links instead of the backbone, and a transfer that reaches a peer
//! not actually holding the entry (a **false hit** — epoch staleness or a
//! structural Bloom false positive) falls back to the origin, paying both
//! paths. Digest refresh is a first-class periodic event firing exactly on
//! the epoch grid `k · epoch`, at which point the placement policy may
//! migrate virtual nodes from hot proxies to cold ones. With a single
//! proxy the router always resolves to the origin and the engine makes
//! exactly the draws of plain adaptive mode — the parity the integration
//! tests pin.
//!
//! ## Event core vs drivers
//!
//! The module is a [`ProxyModel`]: per-proxy caches, controllers,
//! predictors and request sources, and what a request, a prefetch
//! decision, a peer check, a delivery, a crash and a digest loss do to
//! them. Everything between the proxies — link servers, propagation,
//! faults and retries, effects across instants and scopes, and the probe
//! seam that tracing, recording and metrics consume — is the shared
//! transport of [`crate::engine`], the same one the open loop
//! ([`crate::static_mode`]) runs on. Event *selection* lives in the
//! [`crate::shard`] driver, conservative time windows over one thread per
//! shard (the calling thread for one shard). Handlers never reach outside
//! their **scope** (some subset of proxies and link servers, or all of
//! them): anything an event does to an entity at a later instant or in
//! another scope is a timestamped effect which the driver settles —
//! depth-first at the same instant (reproducing inline handling
//! bit-for-bit), through per-entity queues when the topology's link
//! latency puts it in the future, and across shard mailboxes when it
//! belongs to another thread. On zero-latency topologies every effect
//! settles at its emission instant — pinned against the retired scan
//! driver ([`crate::legacy`]) by the engine-parity tests.
//!
//! Digest refresh turned into a two-phase protocol so it shards: each
//! scope builds per-proxy [`RefreshPayload`]s (delta streams, snapshots,
//! or the cheaper of the two under [`RefreshStrategy::Auto`] — the
//! compaction fallback), and the driver flushes them to the shared router
//! at the epoch boundary.

use crate::engine::{Dest, Job, JobKind, Ledger, ProxyModel, Transport};
use crate::report::NodeReport;
use crate::shard::BoundaryEntry;
use crate::sim::{proxy_seed, Scope};
use crate::{
    AdaptiveWorkload, CandidateSource, DelayedHitsConfig, ProxyPolicy, RankingMode, Topology,
    TraceWorkload,
};
use cachesim::{
    AccessKind, LruCache, Mshr, MshrAccess, MshrConfig, ReplacementCache, TaggedCache,
    ValueAwareCache, Waiter,
};
use coop::{CoopConfig, DeltaOp, RefreshPayload, RefreshStrategy, Router};
use predictor::{MarkovPredictor, OraclePredictor, Predictor};
use prefetch_core::controller::{AdaptiveController, ControllerConfig};
use prefetch_core::estimator::EntryStatus;
use prefetch_core::AggregateDelay;
use simcore::hash::IdMap;
use simcore::rng::Rng;
use simcore::trace::{SpanKind, TF_FALSE_HIT, TF_MEASURED, TF_PREFETCH};
use std::collections::BinaryHeap;
use std::io::Read;
use std::sync::Arc;
use workload::events::TraceStream;
use workload::synth_web::{SynthWeb, SynthWebConfig, WebStructure};
use workload::{ItemId, TraceRecord};

/// A prefetch decision waiting out its pacing jitter before hitting the
/// first link.
#[derive(Clone, Copy)]
struct PendingPrefetch {
    due: f64,
    item: ItemId,
    size: f64,
    measured: bool,
    /// When the prefetch was decided — the trace's pending-stall start.
    decided: f64,
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

/// The proxy's tagged cache under either ranking mode. Every call
/// delegates to the same `TaggedCache` method on the wrapped policy, so
/// the §4 estimator sees identical streams in both variants; only the
/// eviction order differs (LRU vs minimum aggregate delay).
enum Store {
    /// Classic recency ranking ([`RankingMode::Recency`], the default).
    Lru(TaggedCache<ItemId, LruCache<ItemId>>),
    /// Delayed-hits-aware ranking ([`RankingMode::AggregateDelay`]):
    /// evicts the minimum-aggregate-delay entry; values are maintained
    /// from the proxy's [`AggregateDelay`] scores at every settle.
    Ranked(TaggedCache<ItemId, ValueAwareCache<ItemId>>),
}

impl Store {
    fn probe_via(
        &mut self,
        mshr: &mut Mshr<ItemId>,
        k: ItemId,
        t: f64,
        bytes: f64,
        w: Waiter,
    ) -> MshrAccess {
        match self {
            Store::Lru(c) => c.probe_via(mshr, k, t, bytes, w),
            Store::Ranked(c) => c.probe_via(mshr, k, t, bytes, w),
        }
    }

    fn contains(&self, k: &ItemId) -> bool {
        match self {
            Store::Lru(c) => c.inner().contains(k),
            Store::Ranked(c) => c.inner().contains(k),
        }
    }

    fn charge_after_fetch(&mut self, k: ItemId, bytes: f64, evicted: &mut Vec<ItemId>) -> bool {
        match self {
            Store::Lru(c) => c.charge_after_fetch_into(k, bytes, evicted),
            Store::Ranked(c) => c.charge_after_fetch_into(k, bytes, evicted),
        }
    }

    fn charge_prefetch(&mut self, k: ItemId, bytes: f64, evicted: &mut Vec<ItemId>) -> bool {
        match self {
            Store::Lru(c) => c.charge_prefetch_into(k, bytes, evicted),
            Store::Ranked(c) => c.charge_prefetch_into(k, bytes, evicted),
        }
    }

    fn used_bytes(&self) -> f64 {
        match self {
            Store::Lru(c) => c.used_bytes(),
            Store::Ranked(c) => c.used_bytes(),
        }
    }

    fn keys(&self) -> Vec<ItemId> {
        match self {
            Store::Lru(c) => c.keys(),
            Store::Ranked(c) => c.keys(),
        }
    }

    /// Updates a cached entry's eviction value (no-op on the recency
    /// store, and for absent keys).
    fn set_value(&mut self, k: ItemId, v: f64) {
        if let Store::Ranked(c) = self {
            c.inner_mut().set_value(k, v);
        }
    }
}

/// The policy knobs the closed loop consults per event, identical whether
/// the request stream is synthetic or replayed. Copied out of the workload
/// at construction, so the hot path never branches on stream kind to read
/// a threshold.
#[derive(Clone, Copy)]
struct Knobs {
    cache_capacity: usize,
    cache_bytes: Option<f64>,
    max_candidates: usize,
    prefetch_jitter: f64,
    policy: ProxyPolicy,
    delayed: DelayedHitsConfig,
}

/// What drives the closed loop: a synthetic workload (the classic
/// adaptive/cooperative modes) with the run's shared web structures, or a
/// recorded trace replayed from an `.events` source
/// ([`crate::Workload::Trace`]).
#[derive(Clone, Copy)]
pub(crate) enum EngineWorkload<'a> {
    Synth(&'a AdaptiveWorkload, &'a SharedWebs),
    Trace(&'a TraceWorkload),
}

impl EngineWorkload<'_> {
    fn knobs(&self) -> Knobs {
        match self {
            EngineWorkload::Synth(w, _) => Knobs {
                cache_capacity: w.cache_capacity,
                cache_bytes: w.cache_bytes,
                max_candidates: w.max_candidates,
                prefetch_jitter: w.prefetch_jitter,
                policy: w.policy,
                delayed: w.delayed,
            },
            EngineWorkload::Trace(w) => Knobs {
                cache_capacity: w.cache_capacity,
                cache_bytes: w.cache_bytes,
                max_candidates: w.max_candidates,
                prefetch_jitter: w.prefetch_jitter,
                policy: w.policy,
                delayed: w.delayed,
            },
        }
    }
}

/// The [`SynthWebConfig`] fields that feed the structure draws, floats by
/// bit pattern. The rate and the client count do not: proxies differing
/// only in those walk the same structure.
fn structure_key(c: &SynthWebConfig) -> [u64; 5] {
    [
        c.n_items as u64,
        c.branching as u64,
        c.link_skew.to_bits(),
        c.mean_size.to_bits(),
        c.size_shape.to_bits(),
    ]
}

/// One shared web structure and what each proxy walking it copies.
struct SharedWeb {
    structure: Arc<WebStructure>,
    /// The structure stream right after the structure draws. Each proxy
    /// draws its client start positions from its own clone, exactly where
    /// a private `SynthWeb::new` on the shared seed would.
    rest: Rng,
    /// The oracle over the structure's chain, when the workload asks for
    /// oracle candidates.
    oracle: Option<OraclePredictor>,
}

/// The immutable web structures of one run under
/// [`AdaptiveWorkload::shared_structure_seed`]: one catalog, chain and
/// oracle table per distinct [`structure_key`], built once per run and
/// shared by every proxy with that key. Empty without a shared seed, when
/// every proxy draws its own structure from its own stream.
pub(crate) struct SharedWebs {
    entries: Vec<([u64; 5], SharedWeb)>,
}

impl SharedWebs {
    pub(crate) fn build(w: &AdaptiveWorkload) -> Self {
        let mut entries: Vec<([u64; 5], SharedWeb)> = Vec::new();
        let Some(seed) = w.shared_structure_seed else {
            return SharedWebs { entries };
        };
        for cfg in &w.proxies {
            let key = structure_key(cfg);
            if entries.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let mut rest = Rng::new(seed);
            let structure = WebStructure::new(cfg, &mut rest);
            let oracle = matches!(w.predictor, CandidateSource::Oracle)
                .then(|| OraclePredictor::from_chain(&structure.chain));
            entries.push((key, SharedWeb { structure: Arc::new(structure), rest, oracle }));
        }
        SharedWebs { entries }
    }

    /// A proxy's request generator and oracle (when the workload asks for
    /// one): over the shared structure for `cfg` if there is one, otherwise
    /// over a private structure drawn from the proxy's own stream `rng`.
    fn web(&self, cfg: &SynthWebConfig, rng: &mut Rng) -> (SynthWeb, Option<OraclePredictor>) {
        let key = structure_key(cfg);
        match self.entries.iter().find(|(k, _)| *k == key) {
            Some((_, s)) => {
                let web =
                    SynthWeb::with_structure(*cfg, Arc::clone(&s.structure), &mut s.rest.clone());
                (web, s.oracle.clone())
            }
            None => (SynthWeb::new(*cfg, rng), None),
        }
    }
}

/// One proxy's lazy cursor into a replayed trace. The stream covers the
/// *whole* trace; this proxy consumes only the records whose client id is
/// congruent to it modulo the recording's proxy count (a recording folds
/// the source proxy into the client's low digits), so every proxy stays at
/// O(chunk) resident bytes regardless of trace length.
struct TraceFeed {
    stream: TraceStream<Box<dyn Read + Send>>,
    me: u32,
    stride: u32,
    /// Sizes learned from consumed records. With a Markov predictor every
    /// candidate is a previously observed item, so this table answers
    /// exactly the lookups the synthetic catalog would.
    sizes: IdMap<ItemId, f64>,
}

/// Per-proxy request source: the synthetic web model, or a trace feed.
enum Source {
    Synth(SynthWeb),
    Trace(TraceFeed),
}

impl Source {
    /// Next request for this proxy; `None` when a replayed trace runs out.
    /// Synthetic streams are endless. Replay decodes the recording's
    /// client folding, so a re-recorded replay round-trips.
    fn next_request(&mut self, rng: &mut Rng) -> Option<TraceRecord> {
        match self {
            Source::Synth(web) => Some(web.next_request(rng)),
            Source::Trace(feed) => {
                for rec in &mut feed.stream {
                    let rec = match rec {
                        Ok(r) => r,
                        Err(e) => panic!("trace replay failed: {e}"),
                    };
                    if rec.client % feed.stride == feed.me {
                        feed.sizes.insert(rec.item, rec.size);
                        return Some(TraceRecord {
                            time: rec.time,
                            client: rec.client / feed.stride,
                            item: rec.item,
                            size: rec.size,
                        });
                    }
                }
                None
            }
        }
    }

    /// Size of `item`, if known. Always `Some` on synthetic sources; on
    /// replay, `Some` exactly for items this proxy has already seen —
    /// which covers every Markov candidate.
    fn size_of(&self, item: ItemId) -> Option<f64> {
        match self {
            Source::Synth(web) => Some(web.structure().catalog.size(item)),
            Source::Trace(feed) => feed.sizes.get(&item).copied(),
        }
    }
}

/// One proxy's model state; its request counters, access times, byte
/// volumes and fault tallies live in the transport's [`Ledger`].
struct ProxyState {
    rng: Rng,
    jitter_rng: Rng,
    source: Source,
    cache: Store,
    controller: AdaptiveController,
    predictor: Box<dyn Predictor + Send>,
    /// Outstanding-fetch table: one entry per in-flight item (demand
    /// fetches and reserved prefetches), carrying the FIFO waiter queue
    /// of demand misses coalesced onto the fetch.
    mshr: Mshr<ItemId>,
    /// Per-key aggregate-delay scores — `Some` exactly under
    /// [`RankingMode::AggregateDelay`], charged at every settled fetch.
    agg: Option<AggregateDelay<ItemId>>,
    delayed: BinaryHeap<PendingPrefetch>,
    /// Bytes spent on the prefetch transfer behind each *untagged* cache
    /// entry, credited to goodput once, on the entry's first use. Keyed by
    /// item; an entry is removed exactly when the item's untagged copy is
    /// first accessed, so each distinct prefetched entry is counted at
    /// most once and goodput can never exceed the prefetched volume.
    prefetch_cost: IdMap<ItemId, f64>,
    pending: Option<TraceRecord>,
    threshold_sum: f64,
    threshold_n: u64,
    used_prefetch_bytes: f64,
    peer_bytes: f64,
    peer_fetches: u64,
    peer_false_hits: u64,
    /// Cache entries wiped by crashes plus digest delta ops dropped by
    /// crashes/digest-loss faults.
    lost_entries: u64,
}

/// Bookkeeping shared by every cache admission: drop evicted entries'
/// pending prefetch-cost records (they can never be credited once the
/// entry is gone) and append the ops the digest delta protocol ships at
/// the next epoch boundary. `deltas` is empty when no router is attached,
/// which disables the recording without a branch at every site.
fn note_cache_change(
    deltas: &mut [Vec<DeltaOp>],
    proxy: usize,
    p: &mut ProxyState,
    item: ItemId,
    admitted: bool,
    evicted: &[ItemId],
) {
    for v in evicted {
        p.prefetch_cost.remove(v);
    }
    if let Some(d) = deltas.get_mut(proxy) {
        for v in evicted {
            d.push(DeltaOp::Evict(v.0));
        }
        if admitted {
            d.push(DeltaOp::Insert(item.0));
        }
    }
}

/// Resolves where a miss/prefetch at global proxy `me` is served from.
fn resolve(router: Option<&Router>, me: usize, item: ItemId) -> Dest {
    match router.map(|r| r.resolve(me, item.0)) {
        Some(coop::Resolution::Peer(q)) => Dest::Peer(q as u32),
        _ => Dest::Origin,
    }
}

/// Builds one proxy's (empty) tagged store from the policy knobs — used
/// at construction and again when a crash fault cold-restarts the proxy.
fn new_store(knobs: &Knobs) -> Store {
    match knobs.delayed.ranking {
        RankingMode::Recency => Store::Lru(TaggedCache::new(match knobs.cache_bytes {
            Some(bytes) => LruCache::with_byte_capacity(knobs.cache_capacity, bytes),
            None => LruCache::new(knobs.cache_capacity),
        })),
        RankingMode::AggregateDelay => Store::Ranked(TaggedCache::new(match knobs.cache_bytes {
            Some(bytes) => ValueAwareCache::with_byte_capacity(knobs.cache_capacity, bytes),
            None => ValueAwareCache::new(knobs.cache_capacity),
        })),
    }
}

/// The closed-loop model of one scope's proxies.
pub(crate) struct ClosedLoop {
    knobs: Knobs,
    /// How this scope's proxies flush their digests at epoch boundaries.
    refresh_strategy: RefreshStrategy,
    /// Delta-stream length past which `Auto` ships a snapshot instead
    /// (`⌈capacity · bits / 8⌉ / 9` ops — the E16 crossover).
    delta_crossover: u64,
    coop_on: bool,
    /// Per-local-proxy digest-delta buffers: one op per cache-content
    /// change since the last epoch boundary, drained into the refresh
    /// payloads. Empty (never written) without a router.
    deltas: Vec<Vec<DeltaOp>>,
    /// Per-local-proxy "ship a full snapshot at the next epoch boundary"
    /// flags, set by crash/digest-loss faults (parallel to `deltas`).
    force_snapshot: Vec<bool>,
    proxies: Vec<ProxyState>,
    /// Reused buffers for one request's prefetch candidates and one cache
    /// admission's victims, so the per-event path allocates neither.
    candidates: Vec<(ItemId, f64)>,
    evicted: Vec<ItemId>,
}

impl ClosedLoop {
    pub(crate) fn new(
        topology: &Topology,
        workload: EngineWorkload<'_>,
        coop_cfg: Option<&CoopConfig>,
        seed: u64,
        scope: &Scope,
    ) -> Self {
        let knobs = workload.knobs();
        let proxies: Vec<ProxyState> = scope
            .proxies
            .iter()
            .map(|&i| {
                let mut rng = Rng::new(proxy_seed(seed, i));
                // The jitter stream splits off *before* any workload draw,
                // so it is a pure function of (seed, proxy) — replaying a
                // recorded run reconstructs the identical jitter sequence.
                let jitter_rng = rng.split();
                let (mut source, predictor): (Source, Box<dyn Predictor + Send>) = match workload {
                    EngineWorkload::Synth(w, webs) => {
                        let (web, oracle) = webs.web(&w.proxies[i], &mut rng);
                        let predictor: Box<dyn Predictor + Send> = match w.predictor {
                            CandidateSource::Oracle => Box::new(oracle.unwrap_or_else(|| {
                                OraclePredictor::from_chain(&web.structure().chain)
                            })),
                            CandidateSource::Markov1 => Box::new(MarkovPredictor::new(1)),
                        };
                        (Source::Synth(web), predictor)
                    }
                    EngineWorkload::Trace(tw) => {
                        // Oracle candidates need the generating chain, which
                        // a replayed trace does not carry — rejected by
                        // `TraceWorkload::validate`.
                        debug_assert!(matches!(tw.predictor, CandidateSource::Markov1));
                        let feed = TraceFeed {
                            stream: tw
                                .source
                                .open(tw.chunk_records)
                                .expect("validated trace source"),
                            me: i as u32,
                            stride: topology.n_proxies() as u32,
                            sizes: IdMap::default(),
                        };
                        (Source::Trace(feed), Box::new(MarkovPredictor::new(1)))
                    }
                };
                let pending = source.next_request(&mut rng);
                ProxyState {
                    rng,
                    jitter_rng,
                    source,
                    cache: new_store(&knobs),
                    controller: AdaptiveController::new(ControllerConfig::model_a(
                        topology.proxy_bottleneck(i),
                    )),
                    predictor,
                    mshr: Mshr::new(MshrConfig {
                        entries: knobs.delayed.mshr_entries,
                        coalesce: knobs.delayed.coalesce,
                    }),
                    agg: matches!(knobs.delayed.ranking, RankingMode::AggregateDelay)
                        .then(AggregateDelay::new),
                    delayed: BinaryHeap::new(),
                    prefetch_cost: IdMap::default(),
                    pending,
                    threshold_sum: 0.0,
                    threshold_n: 0,
                    used_prefetch_bytes: 0.0,
                    peer_bytes: 0.0,
                    peer_fetches: 0,
                    peer_false_hits: 0,
                    lost_entries: 0,
                }
            })
            .collect();

        let deltas = match coop_cfg {
            Some(_) => vec![Vec::new(); proxies.len()],
            None => Vec::new(),
        };
        ClosedLoop {
            knobs,
            refresh_strategy: coop_cfg.map(|c| c.refresh).unwrap_or_default(),
            delta_crossover: coop_cfg
                .map(|c| c.digest.delta_crossover_ops(knobs.cache_capacity))
                .unwrap_or(u64::MAX),
            coop_on: coop_cfg.is_some(),
            force_snapshot: vec![false; deltas.len()],
            deltas,
            proxies,
            candidates: Vec::new(),
            evicted: Vec::new(),
        }
    }
}

impl ProxyModel for ClosedLoop {
    const PEERS: bool = true;

    /// While the stream has requests left (a replayed trace may also run
    /// dry).
    fn request_due(&self, tx: &Transport<'_>, i: usize) -> Option<f64> {
        if tx.ledgers[i].issued >= tx.n_requests {
            return None;
        }
        self.proxies[i].pending.map(|r| r.time)
    }

    /// The earliest jittered prefetch decision. Pending prefetches are
    /// still issued after the request stream ends so any waiters attached
    /// to them resolve.
    fn prefetch_due(&self, _tx: &Transport<'_>, i: usize) -> Option<f64> {
        self.proxies[i].delayed.peek().map(|d| d.due)
    }

    fn on_request(&mut self, tx: &mut Transport<'_>, i: usize, router: Option<&Router>) {
        let me = tx.scope.proxies[i];
        let p = &mut self.proxies[i];
        let req = p.pending.take().expect("request due");
        p.pending = p.source.next_request(&mut p.rng);
        let t = req.time;
        // A recording folds the proxy into the client id so replay can
        // route the record back (`client % n_proxies == proxy`) while
        // keeping the original client recoverable by division.
        let stride = tx.topology.n_proxies() as u32;
        let (in_window, rid) = tx.count_request(i, || {
            TraceRecord::new(t, me as u32 + stride * req.client, req.item, req.size)
        });

        // One probe consults the cache *and* the outstanding-fetch table:
        // a miss on an in-flight item joins the fetch's FIFO waiter queue
        // (a delayed hit in the making) instead of authorising a second
        // transfer.
        let mut fetch = None;
        let waiter = Waiter { t, measured: in_window, trace: rid };
        match p.cache.probe_via(&mut p.mshr, req.item, t, req.size, waiter) {
            MshrAccess::Hit(AccessKind::HitTagged) => {
                p.controller.on_cache_hit(t, EntryStatus::Tagged, req.size);
                tx.hit(i, t, rid, req.item, in_window);
            }
            MshrAccess::Hit(AccessKind::HitUntagged) => {
                p.controller.on_cache_hit(t, EntryStatus::Untagged, req.size);
                // First use of a prefetched entry: credit exactly what its
                // transfer cost, once. The probe retags the entry, so a
                // re-access is a tagged hit and cannot double-count.
                let cost = p
                    .prefetch_cost
                    .remove(&req.item)
                    .expect("untagged cache entry must have a recorded prefetch cost");
                p.used_prefetch_bytes += cost;
                tx.hit(i, t, rid, req.item, in_window);
            }
            MshrAccess::Hit(AccessKind::Miss) => unreachable!("probe_via maps misses"),
            // Joined the in-flight fetch instead of duplicating the
            // transfer; the waiter settles when that fetch lands.
            MshrAccess::Coalesced => {
                p.controller.on_miss(t, req.size);
            }
            MshrAccess::Fetch { tracked } => {
                p.controller.on_miss(t, req.size);
                tx.ledgers[i].demand_bytes += req.size;
                fetch = Some(tracked);
            }
        }
        if let Some(tracked) = fetch {
            let job = Job {
                id: tx.ledgers[i].next_job_id(me),
                proxy: me as u32,
                shard: (req.item.0 % tx.n_shards) as u32,
                dest: resolve(router, me, req.item),
                hop: 0,
                size: req.size,
                spent: req.size,
                issued: t,
                item: req.item,
                kind: JobKind::Demand { measured: in_window },
                tracked,
                trace: rid,
                tseq: 0,
            };
            tx.issue(job, t, t, if in_window { TF_MEASURED } else { 0 });
        }

        // Predict and prefetch.
        let knobs = &self.knobs;
        p.predictor.observe(req.item);
        let threshold = match knobs.policy {
            ProxyPolicy::NoPrefetch => f64::INFINITY,
            ProxyPolicy::FixedThreshold(th) => th,
            ProxyPolicy::Adaptive => p.controller.policy().threshold,
        };
        if in_window && threshold.is_finite() {
            p.threshold_sum += threshold;
            p.threshold_n += 1;
        }
        if threshold.is_finite() {
            let cands = &mut self.candidates;
            p.predictor.candidates_into(knobs.max_candidates, cands);
            tx.predictions(cands.len());
            let size_aware =
                knobs.delayed.size_aware && matches!(knobs.policy, ProxyPolicy::Adaptive);
            let scale = tx.ledgers[i].retrievals.mean();
            for &(item, prob) in cands.iter() {
                // The size is pure data (no RNG draw), so reading it before
                // the acceptance check keeps draw order intact. On replay
                // an unknown size means the item was never seen here — a
                // Markov predictor cannot propose one, but skip defensively.
                let Some(size) = p.source.size_of(item) else { continue };
                // Byte-charged threshold: a candidate is compared against
                // ρ̂′ scaled by its own size, so big speculative objects
                // need proportionally higher confidence. Item-counted
                // configs are the degenerate case (size = ŝ̄).
                let mut th = if size_aware {
                    p.controller.threshold_for_size(size).unwrap_or(1.0)
                } else {
                    threshold
                };
                // Aggregate-delay bias: keys that have been charged
                // delayed-hit latency get a proportionally lower bar —
                // prefetching them saves their whole waiter queue.
                if let Some(agg) = p.agg.as_ref() {
                    if scale > 0.0 {
                        th = th * scale / (scale + agg.score(&item));
                    }
                }
                // `reserve_prefetch` is the in-flight filter: false when
                // the item already has an outstanding entry (or the table
                // is full, dropping the candidate deterministically).
                if prob > th && !p.cache.contains(&item) && p.mshr.reserve_prefetch(item, t, size) {
                    let due = if knobs.prefetch_jitter > 0.0 {
                        t + p.jitter_rng.exp(1.0 / knobs.prefetch_jitter)
                    } else {
                        t
                    };
                    p.delayed.push(PendingPrefetch {
                        due,
                        item,
                        size,
                        measured: in_window,
                        decided: t,
                    });
                }
            }
        }
    }

    /// A jittered prefetch decision comes due: launch it, unless the item
    /// got cached meanwhile.
    fn on_prefetch(&mut self, tx: &mut Transport<'_>, i: usize, router: Option<&Router>) {
        let me = tx.scope.proxies[i];
        let p = &mut self.proxies[i];
        let pfx = p.delayed.pop().expect("pending prefetch");
        if !p.cache.contains(&pfx.item) {
            let lg = &mut tx.ledgers[i];
            lg.prefetch_jobs += 1;
            lg.prefetch_bytes += pfx.size;
            let id = lg.next_job_id(me);
            let job = Job {
                id,
                proxy: me as u32,
                shard: (pfx.item.0 % tx.n_shards) as u32,
                dest: resolve(router, me, pfx.item),
                hop: 0,
                size: pfx.size,
                spent: pfx.size,
                issued: pfx.due,
                item: pfx.item,
                kind: JobKind::Prefetch { measured: pfx.measured },
                tracked: true,
                trace: tx.prefetch_trace(me, id),
                tseq: 0,
            };
            let mf = if pfx.measured { TF_MEASURED } else { 0 };
            tx.issue(job, pfx.due, pfx.decided, TF_PREFETCH | mf);
        } else {
            // Unreachable under the default unbounded coalescing table:
            // the MSHR entry allocated at decision time reserves the item
            // until this transfer (or its cancellation here) resolves —
            // demand misses on a reserved item coalesce instead of
            // fetching, and duplicate prefetch decisions are filtered on
            // the table — so nothing can have cached the item since the
            // decision checked it was absent. Pinned by
            // `pending_prefetch_never_finds_item_cached`. With coalescing
            // off, or a bounded table, an *untracked* concurrent demand
            // fetch can legitimately land first and cache the item.
            debug_assert!(
                self.knobs.delayed.mshr_entries.is_some() || !self.knobs.delayed.coalesce,
                "pending prefetch for item {:?} found it already cached",
                pfx.item
            );
            // Cancel the reservation, resolving any waiters at the
            // cancellation instant instead of silently dropping their
            // measured access times (the waiter-leak bug).
            if let Some(entry) = p.mshr.complete(&pfx.item) {
                tx.settle_waiters(i, &entry.waiters, pfx.due, pfx.item, false);
            }
        }
    }

    fn holds(&self, i: usize, item: ItemId) -> bool {
        self.proxies[i].cache.contains(&item)
    }

    fn on_deliver(
        &mut self,
        tx: &mut Transport<'_>,
        i: usize,
        t: f64,
        mut job: Job,
        false_hit: bool,
    ) {
        if false_hit {
            // Digest false hit: the transfer reached a peer that does not
            // hold the item (evicted since the last refresh, or a
            // structural Bloom false positive) — fall back to the origin,
            // paying the peer path *and* the origin path.
            let mut fwd = job;
            fwd.dest = Dest::Origin;
            fwd.hop = 0;
            fwd.spent += fwd.size;
            let fp = fwd.proxy as u64;
            tx.span(&mut fwd, t, SpanKind::Redirect, fp, 0.0, TF_FALSE_HIT);
            self.proxies[i].peer_false_hits += 1;
            let lg = &mut tx.ledgers[i];
            match job.kind {
                JobKind::Demand { .. } => lg.demand_bytes += job.size,
                JobKind::Prefetch { .. } => lg.prefetch_bytes += job.size,
            }
            tx.launch(t, fwd);
            return;
        }
        tx.delivered(i, t, &mut job);
        let p = &mut self.proxies[i];
        if matches!(job.dest, Dest::Peer(_)) {
            p.peer_fetches += 1;
            p.peer_bytes += job.size;
        }
        match job.kind {
            JobKind::Demand { .. } => {
                let evicted = &mut self.evicted;
                evicted.clear();
                let admitted = p.cache.charge_after_fetch(job.item, job.size, evicted);
                note_cache_change(&mut self.deltas, i, p, job.item, admitted, evicted);
                // Any landing of the key's data ends the wait — an entry
                // already settled by a concurrent (bypassed) fetch, or a
                // bypassed fetch itself, yields `None` here.
                let entry = p.mshr.complete(&job.item);
                let waiters = entry.map(|e| e.waiters).unwrap_or_default();
                let residual_sum = tx.settle_waiters(i, &waiters, t, job.item, false);
                if let Some(agg) = p.agg.as_mut() {
                    // The blocking fetch is charged its own latency plus
                    // every waiter's residual — the key's aggregate delay.
                    let score = agg.charge(job.item, (t - job.issued) + residual_sum);
                    p.cache.set_value(job.item, score);
                }
            }
            JobKind::Prefetch { .. } => {
                let entry = p.mshr.complete(&job.item);
                let waiters = entry.map(|e| e.waiters).unwrap_or_default();
                if !waiters.is_empty() {
                    // The item was demanded while the prefetch was in
                    // flight: it lands as a demand-fetched (tagged) entry
                    // and the waiters' clocks stop now. The transfer
                    // served real demand, so everything it cost counts as
                    // used.
                    let evicted = &mut self.evicted;
                    evicted.clear();
                    let admitted = p.cache.charge_after_fetch(job.item, job.size, evicted);
                    note_cache_change(&mut self.deltas, i, p, job.item, admitted, evicted);
                    p.used_prefetch_bytes += job.spent;
                    let residual_sum = tx.settle_waiters(i, &waiters, t, job.item, false);
                    if let Some(agg) = p.agg.as_mut() {
                        // A prefetch the demand stream caught up with:
                        // only the residuals were felt as delay.
                        let score = agg.charge(job.item, residual_sum);
                        p.cache.set_value(job.item, score);
                    }
                } else {
                    let evicted = &mut self.evicted;
                    evicted.clear();
                    let admitted = p.cache.charge_prefetch(job.item, job.size, evicted);
                    note_cache_change(&mut self.deltas, i, p, job.item, admitted, evicted);
                    if admitted {
                        p.controller.on_prefetch_insert();
                        p.prefetch_cost.insert(job.item, job.spent);
                        if let Some(agg) = p.agg.as_ref() {
                            p.cache.set_value(job.item, agg.score(&job.item));
                        }
                    }
                }
            }
        }
    }

    fn mshr(&self, i: usize) -> Option<&Mshr<ItemId>> {
        Some(&self.proxies[i].mshr)
    }

    fn mshr_mut(&mut self, i: usize) -> Option<&mut Mshr<ItemId>> {
        Some(&mut self.proxies[i].mshr)
    }

    /// The data plane is lost: cached entries, the outstanding-fetch table
    /// (drained by the engine), and the buffered digest stream. The
    /// control plane (controller, predictor) survives the restart.
    fn crash(&mut self, i: usize) {
        let p = &mut self.proxies[i];
        p.lost_entries += p.cache.keys().len() as u64;
        p.cache = new_store(&self.knobs);
        p.prefetch_cost.clear();
        if self.coop_on {
            self.deltas[i].clear();
            self.force_snapshot[i] = true;
        }
    }

    fn digest_loss(&mut self, i: usize) {
        if self.coop_on {
            self.proxies[i].lost_entries += self.deltas[i].len() as u64;
            self.deltas[i].clear();
            self.force_snapshot[i] = true;
        }
    }

    fn refresh_payloads(&mut self, scope: &Scope, out: &mut Vec<BoundaryEntry>) {
        if !self.coop_on {
            return;
        }
        for (li, p) in self.proxies.iter().enumerate() {
            let load = p.controller.rho_prime_estimate().unwrap_or(0.0);
            let snapshot =
                |p: &ProxyState| p.cache.keys().iter().map(|k| k.0).collect::<Vec<u64>>();
            let payload = if self.force_snapshot[li] {
                // A crash or digest loss invalidated the peers' view of
                // this node; the next boundary ships a full snapshot no
                // matter which refresh strategy is configured.
                self.force_snapshot[li] = false;
                self.deltas[li].clear();
                RefreshPayload::Snapshot(snapshot(p))
            } else {
                match self.refresh_strategy {
                    RefreshStrategy::Deltas => {
                        RefreshPayload::Deltas(std::mem::take(&mut self.deltas[li]))
                    }
                    RefreshStrategy::FullRebuild => {
                        // The snapshot supersedes the buffered stream; discard
                        // it so engine state stays identical across strategies.
                        self.deltas[li].clear();
                        RefreshPayload::Snapshot(snapshot(p))
                    }
                    RefreshStrategy::Auto => {
                        // The compaction fallback: a delta stream that outgrew
                        // the snapshot's wire size ships the snapshot instead.
                        if self.deltas[li].len() as u64 > self.delta_crossover {
                            self.deltas[li].clear();
                            RefreshPayload::Snapshot(snapshot(p))
                        } else {
                            RefreshPayload::Deltas(std::mem::take(&mut self.deltas[li]))
                        }
                    }
                }
            };
            out.push((scope.proxies[li], load, payload));
        }
    }

    fn cache_bytes(&self) -> f64 {
        self.proxies.iter().map(|p| p.cache.used_bytes()).sum()
    }

    fn report(&self, i: usize, lg: &Ledger, node: &mut NodeReport) {
        let p = &self.proxies[i];
        // Per-distinct-entry accounting conserves prefetched bytes exactly:
        // every transferred byte is either used (served a demand) or not —
        // no clamp needed to keep goodput within the prefetched volume.
        debug_assert!(
            p.used_prefetch_bytes <= lg.prefetch_bytes * (1.0 + 1e-9) + 1e-9,
            "proxy {}: goodput {} exceeds prefetched volume {}",
            node.proxy,
            p.used_prefetch_bytes,
            lg.prefetch_bytes
        );
        let goodput = p.used_prefetch_bytes;
        let badput = (lg.prefetch_bytes - p.used_prefetch_bytes).max(0.0);
        debug_assert!(
            (goodput + badput - lg.prefetch_bytes).abs() <= 1e-6 * lg.prefetch_bytes.max(1.0),
            "proxy {}: goodput {goodput} + badput {badput} != prefetched {}",
            node.proxy,
            lg.prefetch_bytes
        );
        node.goodput_bytes = Some(goodput);
        node.badput_bytes = Some(badput);
        node.cache_used_bytes = Some(p.cache.used_bytes());
        if self.coop_on {
            node.peer_bytes = Some(p.peer_bytes);
            node.peer_fetches = Some(p.peer_fetches);
            node.peer_false_hits = Some(p.peer_false_hits);
        }
        node.mean_threshold = (p.threshold_n > 0).then(|| p.threshold_sum / p.threshold_n as f64);
        node.rho_prime_estimate = p.controller.rho_prime_estimate();
        node.h_prime_estimate = p.controller.h_prime_estimate();
        node.lost_entries = p.lost_entries;
    }

    fn replay_stats(&self, ledgers: &[Ledger]) -> Option<(u64, usize)> {
        let mut any = false;
        let (mut records, mut peak) = (0u64, 0usize);
        for (p, lg) in self.proxies.iter().zip(ledgers) {
            if let Source::Trace(feed) = &p.source {
                any = true;
                records += lg.issued;
                peak = peak.max(feed.stream.peak_resident_bytes());
            }
        }
        any.then_some((records, peak))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ShardPlan;

    const SHARED_SEED: u64 = 99;

    fn workload(proxies: Vec<SynthWebConfig>) -> AdaptiveWorkload {
        AdaptiveWorkload {
            proxies,
            cache_capacity: 48,
            cache_bytes: None,
            max_candidates: 3,
            prefetch_jitter: 0.01,
            policy: ProxyPolicy::Adaptive,
            predictor: CandidateSource::Oracle,
            shared_structure_seed: Some(SHARED_SEED),
            delayed: Default::default(),
        }
    }

    /// The cooperative closed loop over every proxy of `topology`.
    fn build(
        topology: &Topology,
        w: &AdaptiveWorkload,
        webs: &SharedWebs,
        seed: u64,
    ) -> ClosedLoop {
        let plan = ShardPlan::partition(topology, 1);
        let scope = Scope::shard(topology, &plan, 0);
        let coop = CoopConfig::default();
        ClosedLoop::new(topology, EngineWorkload::Synth(w, webs), Some(&coop), seed, &scope)
    }

    fn structure(model: &ClosedLoop, i: usize) -> &Arc<WebStructure> {
        match &model.proxies[i].source {
            Source::Synth(web) => web.structure(),
            Source::Trace(_) => unreachable!("synthetic workload"),
        }
    }

    #[test]
    fn proxies_with_a_shared_seed_share_one_structure() {
        let topology = Topology::mesh(4, 50.0, 70.0, 45.0);
        // Rate and client count differ per proxy; neither feeds the structure.
        let w = workload(
            (0..4)
                .map(|i| SynthWebConfig {
                    lambda: 10.0 + i as f64,
                    n_clients: 4 + i,
                    ..SynthWebConfig::default()
                })
                .collect(),
        );
        let webs = SharedWebs::build(&w);
        assert_eq!(webs.entries.len(), 1);
        let model = build(&topology, &w, &webs, 5);
        for i in 1..4 {
            assert!(Arc::ptr_eq(structure(&model, 0), structure(&model, i)), "proxy {i}");
        }
    }

    #[test]
    fn structural_fields_split_the_structure_and_keep_todays_streams() {
        let topology = Topology::mesh(4, 50.0, 70.0, 45.0);
        let cfgs: Vec<SynthWebConfig> = [500, 300, 500, 300]
            .into_iter()
            .enumerate()
            .map(|(i, n_items)| SynthWebConfig {
                n_items,
                lambda: 12.0 + i as f64,
                ..SynthWebConfig::default()
            })
            .collect();
        let w = workload(cfgs.clone());
        let webs = SharedWebs::build(&w);
        assert_eq!(webs.entries.len(), 2);
        let seed = 5;
        let mut model = build(&topology, &w, &webs, seed);
        assert!(Arc::ptr_eq(structure(&model, 0), structure(&model, 2)));
        assert!(Arc::ptr_eq(structure(&model, 1), structure(&model, 3)));
        assert!(!Arc::ptr_eq(structure(&model, 0), structure(&model, 1)));

        // Each proxy's stream equals a private `SynthWeb::new` on the shared
        // seed, driven by the proxy's own stream after its jitter split.
        for (i, cfg) in cfgs.iter().enumerate() {
            let mut rng = Rng::new(proxy_seed(seed, i));
            let _jitter = rng.split();
            let mut web = SynthWeb::new(*cfg, &mut Rng::new(SHARED_SEED));
            let p = &mut model.proxies[i];
            assert_eq!(p.pending, Some(web.next_request(&mut rng)), "proxy {i}");
            for _ in 0..2_000 {
                assert_eq!(p.source.next_request(&mut p.rng), Some(web.next_request(&mut rng)));
            }
        }
    }
}
