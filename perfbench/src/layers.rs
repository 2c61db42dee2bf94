//! Layer replays: each times calls into one crate's public API, driven by
//! the counts and the request stream of the workload's own run. The
//! program itself carries no spans; the traced run attributes its wall
//! time by multiplying these per-operation costs by the run's operation
//! counts.

use cachesim::{LruCache, Mshr, MshrAccess, MshrConfig, TaggedCache, Waiter};
use coop::{CoopConfig, DeltaOp, Resolution, Router};
use predictor::{MarkovPredictor, Predictor};
use queueing::PsServer;
use simcore::sched::Scheduler;
use simcore::Rng;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hint::black_box;
use std::time::Instant;
use workload::events::{encode_events, TraceStream, DEFAULT_CHUNK_RECORDS};
use workload::synth_web::{SynthWeb, SynthWebConfig};
use workload::{ItemId, TraceRecord};

/// Upper bound on the operations one replay times, so the traced run
/// stays within its time budget on the largest workloads.
const MAX_REPLAY_OPS: u64 = 2_000_000;

fn ns_per(elapsed: f64, ops: u64) -> f64 {
    elapsed * 1e9 / ops.max(1) as f64
}

/// `simcore::sched`: a hold-model replay of `events` pop + re-arm cycles
/// over `timers` keys with `armed` of them live — the shape of the run's
/// timer population. Returns ns per event.
pub fn sched(timers: usize, armed: usize, events: u64, seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let gaps: Vec<f64> = (0..4096).map(|_| rng.exp(1.0)).collect();
    let mut s = Scheduler::with_timers(timers.max(1));
    for k in 0..armed.clamp(1, timers.max(1)) {
        s.schedule(k, gaps[k % gaps.len()]);
    }
    let n = events.clamp(1, MAX_REPLAY_OPS);
    let t0 = Instant::now();
    for i in 0..n as usize {
        let (t, k) = s.pop().expect("armed timers stay armed");
        s.schedule(k, t + gaps[i % gaps.len()]);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    black_box(s.peek());
    ns_per(elapsed, n)
}

/// One link of the run, as the `queueing` replay sees it.
pub struct LinkLoad {
    pub bandwidth: f64,
    pub utilisation: f64,
    pub jobs: u64,
    pub mean_work: f64,
}

/// `queueing`: replays every busy link as a `PsServer` under Poisson
/// arrivals at the link's measured utilisation and job count (sampled
/// down proportionally past the replay budget). Returns ns per job,
/// weighted by the run's per-link job counts.
pub fn ps_links(links: &[LinkLoad], seed: u64) -> f64 {
    let total: u64 = links.iter().map(|l| l.jobs).sum();
    let keep = (MAX_REPLAY_OPS as f64 / total as f64).min(1.0);
    let mut rng = Rng::new(seed);
    let mut weighted_ns = 0.0;
    for l in links.iter().filter(|l| l.jobs > 0) {
        let n = ((l.jobs as f64 * keep).round() as usize).max(1);
        let rate = (l.utilisation.max(1e-3) * l.bandwidth / l.mean_work.max(1e-9)).max(1e-9);
        let mut t = 0.0;
        let arrivals: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                t += rng.exp(rate);
                (t, rng.exp(1.0 / l.mean_work.max(1e-9)))
            })
            .collect();
        let mut server: PsServer<usize> = PsServer::new(l.bandwidth);
        let t0 = Instant::now();
        let done = queueing::drive(&mut server, &arrivals);
        let elapsed = t0.elapsed().as_secs_f64();
        black_box(done.len());
        weighted_ns += ns_per(elapsed, n as u64) * l.jobs as f64;
    }
    weighted_ns / total.max(1) as f64
}

/// The recorded request stream split by source proxy (the recorder folds
/// the proxy into the client id: `client % proxies == proxy`).
pub struct Streams {
    pub per_proxy: Vec<Vec<TraceRecord>>,
    pub sizes: HashMap<ItemId, f64>,
}

impl Streams {
    pub fn split(records: &[TraceRecord], proxies: usize) -> Streams {
        let mut per_proxy = vec![Vec::new(); proxies];
        let mut sizes = HashMap::new();
        for r in records {
            per_proxy[r.client as usize % proxies].push(*r);
            sizes.insert(r.item, r.size);
        }
        Streams { per_proxy, sizes }
    }

    pub(crate) fn len(&self) -> usize {
        self.per_proxy.iter().map(Vec::len).sum()
    }
}

/// Candidates the predictor proposed after each request, per proxy.
pub type Candidates = Vec<Vec<Vec<(ItemId, f64)>>>;

/// `predictor`: one order-1 `MarkovPredictor` per proxy, updated and
/// scored on every recorded request. Returns ns per (update + score)
/// call and the candidates for the cache replay.
pub fn markov(streams: &Streams, max_candidates: usize) -> (f64, Candidates) {
    let mut out: Candidates =
        streams.per_proxy.iter().map(|s| Vec::with_capacity(s.len())).collect();
    let t0 = Instant::now();
    for (stream, cands) in streams.per_proxy.iter().zip(&mut out) {
        let mut p = MarkovPredictor::new(1);
        for r in stream {
            p.observe(r.item);
            cands.push(p.candidates(max_candidates));
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    (ns_per(elapsed, streams.len() as u64), out)
}

/// Cache geometry and prefetch rule of the cache replay.
#[derive(Clone, Copy, Debug)]
pub struct CacheSetup {
    pub items: usize,
    pub bytes: Option<f64>,
    pub mshr: MshrConfig,
    /// Candidates above this probability are prefetched (∞: never).
    pub threshold: f64,
}

/// What the cache replay counted, and the state the coop replay needs.
#[derive(Debug, Default)]
pub struct CacheOutcome {
    pub ns_per_probe: f64,
    pub probes: u64,
    pub prefetch_inserts: u64,
    pub evictions: u64,
    /// Per proxy: the keys each demand fetch launched for (resolve replay).
    pub misses: Vec<Vec<u64>>,
    /// Per epoch boundary, per proxy: cache contents (refresh replay).
    pub epochs: Vec<Vec<Vec<u64>>>,
}

struct Pending {
    done: f64,
    item: ItemId,
    size: f64,
    tracked: bool,
    prefetch: bool,
}

/// `cachesim`: replays each proxy's recorded stream through a
/// `TaggedCache::probe_via` + `Mshr` pair at the workload's capacity.
/// Fetches land after the proxy's measured mean retrieval time, so MSHR
/// coalescing sees realistic in-flight windows; predictor candidates above
/// the threshold are reserved and prefetch-inserted. With `epoch`, the
/// replay also snapshots cache contents on that grid (untimed use only).
pub fn cache(
    streams: &Streams,
    candidates: &Candidates,
    setup: CacheSetup,
    fetch_delay: &[f64],
    epoch: Option<f64>,
) -> CacheOutcome {
    let mut out =
        CacheOutcome { misses: vec![Vec::new(); streams.per_proxy.len()], ..Default::default() };
    let mut finals = Vec::new();
    let t0 = Instant::now();
    for (p, stream) in streams.per_proxy.iter().enumerate() {
        let lru = match setup.bytes {
            Some(b) => LruCache::with_byte_capacity(setup.items, b),
            None => LruCache::new(setup.items),
        };
        let mut cache = TaggedCache::new(lru);
        let mut mshr = Mshr::new(setup.mshr);
        let mut pending: VecDeque<Pending> = VecDeque::new();
        let delay = fetch_delay[p].max(1e-6);
        let mut next_epoch = epoch.unwrap_or(f64::INFINITY);
        let mut epoch_idx = 0;
        for (i, r) in stream.iter().enumerate() {
            while pending.front().is_some_and(|f| f.done <= r.time) {
                let f = pending.pop_front().expect("front exists");
                if f.tracked {
                    mshr.complete(&f.item);
                }
                if f.prefetch {
                    cache.charge_prefetch(f.item, f.size);
                } else {
                    cache.charge_after_fetch(f.item, f.size);
                }
            }
            while r.time >= next_epoch {
                let e = epoch.expect("finite boundary implies an epoch");
                if out.epochs.len() <= epoch_idx {
                    out.epochs.push(vec![Vec::new(); streams.per_proxy.len()]);
                }
                out.epochs[epoch_idx][p] = cache.keys().iter().map(|k| k.0).collect();
                epoch_idx += 1;
                next_epoch += e;
            }
            out.probes += 1;
            match cache.probe_via(&mut mshr, r.item, r.time, r.size, Waiter::demand(r.time)) {
                MshrAccess::Hit(_) | MshrAccess::Coalesced => {}
                MshrAccess::Fetch { tracked } => {
                    out.misses[p].push(r.item.0);
                    pending.push_back(Pending {
                        done: r.time + delay,
                        item: r.item,
                        size: r.size,
                        tracked,
                        prefetch: false,
                    });
                }
            }
            for &(item, prob) in &candidates[p][i] {
                let Some(&size) = streams.sizes.get(&item) else { continue };
                if prob > setup.threshold
                    && cache.tag(&item).is_none()
                    && mshr.reserve_prefetch(item, r.time, size)
                {
                    pending.push_back(Pending {
                        done: r.time + delay,
                        item,
                        size,
                        tracked: true,
                        prefetch: true,
                    });
                }
            }
        }
        out.prefetch_inserts += cache.prefetch_inserts();
        let (tagged, untagged) = cache.evictions_by_tag();
        out.evictions += tagged + untagged;
        if epoch.is_some() {
            finals.push((epoch_idx, cache.keys().iter().map(|k| k.0).collect::<Vec<u64>>()));
        }
    }
    out.ns_per_probe = ns_per(t0.elapsed().as_secs_f64(), out.probes);
    // A proxy whose stream ended early keeps its final contents through
    // the remaining boundaries.
    for (p, (from, keys)) in finals.into_iter().enumerate() {
        for contents in out.epochs.iter_mut().skip(from) {
            contents[p] = keys.clone();
        }
    }
    out
}

/// Timings of the `coop` replay.
#[derive(Debug, Default)]
pub struct CoopOutcome {
    pub resolve_ns: f64,
    pub deltas_ns_per_epoch: f64,
    pub rebuild_ns_per_epoch: f64,
    /// Whether both routers resolve every miss key alike, as the delta
    /// protocol's contract requires.
    pub routers_agree: bool,
}

/// `coop`: drives two `Router`s through the same per-epoch cache churn —
/// one by `apply_deltas`, one by full `refresh` — then times
/// `Router::resolve` over the recorded miss keys against the final
/// advertised state (and checks, untimed, that both routers agree).
pub fn coop(
    config: CoopConfig,
    capacity: usize,
    epochs: &[Vec<Vec<u64>>],
    misses: &[Vec<u64>],
) -> CoopOutcome {
    let n = misses.len().max(1);
    let loads = vec![1.0; n];
    let epoch_len = config.digest.epoch;
    let mut by_deltas = Router::new(n, capacity, config);
    let mut by_rebuild = Router::new(n, capacity, config);
    let mut prev: Vec<HashSet<u64>> = vec![HashSet::new(); n];
    let (mut deltas_s, mut rebuild_s) = (0.0, 0.0);
    for (e, contents) in epochs.iter().enumerate() {
        let t = (e + 1) as f64 * epoch_len;
        let mut ops: Vec<Vec<DeltaOp>> = contents
            .iter()
            .zip(&mut prev)
            .map(|(keys, before)| {
                let now: HashSet<u64> = keys.iter().copied().collect();
                let mut evicted: Vec<u64> = before.difference(&now).copied().collect();
                let mut inserted: Vec<u64> = now.difference(before).copied().collect();
                evicted.sort_unstable();
                inserted.sort_unstable();
                *before = now;
                evicted
                    .into_iter()
                    .map(DeltaOp::Evict)
                    .chain(inserted.into_iter().map(DeltaOp::Insert))
                    .collect()
            })
            .collect();
        let t0 = Instant::now();
        by_deltas.apply_deltas(t, &mut ops, &loads);
        deltas_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        by_rebuild.refresh(t, |p| contents[p].clone(), &loads);
        rebuild_s += t0.elapsed().as_secs_f64();
    }
    let resolves: u64 = misses.iter().map(|m| m.len() as u64).sum();
    let t0 = Instant::now();
    let mut peers = 0u64;
    for (me, keys) in misses.iter().enumerate() {
        for &k in keys {
            if let Resolution::Peer(_) = by_deltas.resolve(me, k) {
                peers += 1;
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    black_box(peers);
    let routers_agree = misses.iter().enumerate().all(|(me, keys)| {
        keys.iter().all(|&k| by_deltas.resolve(me, k) == by_rebuild.resolve(me, k))
    });
    let n_epochs = epochs.len() as u64;
    CoopOutcome {
        resolve_ns: ns_per(elapsed, resolves),
        deltas_ns_per_epoch: ns_per(deltas_s, n_epochs),
        rebuild_ns_per_epoch: ns_per(rebuild_s, n_epochs),
        routers_agree,
    }
}

/// `workload`: times `SynthWeb::next_request` over `n` requests of the
/// given generator. Returns ns per request.
pub fn synth_web(config: SynthWebConfig, n: u64, seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let mut web = SynthWeb::new(config, &mut rng);
    let n = n.clamp(1, MAX_REPLAY_OPS);
    let t0 = Instant::now();
    let mut last = 0.0;
    for _ in 0..n {
        last = web.next_request(&mut rng).time;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    black_box(last);
    ns_per(elapsed, n)
}

/// `workload`: encodes the recorded stream as `.events` (untimed) and
/// times a validating `TraceStream` decode of it. Returns ns per record
/// and the stream's peak resident bytes.
pub fn decode(records: &[TraceRecord]) -> Result<(f64, usize), String> {
    let bytes = encode_events(records).map_err(|e| format!("encode: {e}"))?;
    let t0 = Instant::now();
    let mut stream = TraceStream::with_chunk(&bytes[..], DEFAULT_CHUNK_RECORDS)
        .map_err(|e| format!("open: {e}"))?;
    let mut n = 0u64;
    for rec in stream.by_ref() {
        rec.map_err(|e| format!("decode: {e}"))?;
        n += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    if n != records.len() as u64 {
        return Err(format!("decoded {n} of {} records", records.len()));
    }
    Ok((ns_per(elapsed, n), stream.peak_resident_bytes()))
}
