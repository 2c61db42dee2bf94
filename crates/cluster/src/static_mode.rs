//! Open-loop (Model-A mechanism) proxy model.
//!
//! Each proxy reproduces `netsim::parametric`'s mechanism on its own RNG
//! streams: Poisson(λ) user requests, Bernoulli hits at
//! `h = h′ + n̄(F)·p`, a Poissonised prefetch stream of rate `n̄(F)·λ`,
//! and demand fetches that traverse the proxy's route of queueing links
//! instead of one shared server. With the single-proxy, single-link
//! topology the event sequence — and therefore every measured number — is
//! *identical* to `netsim::parametric::run` at the same seed; that parity
//! is pinned by a test against 1e-6.
//!
//! The module is a [`ProxyModel`] on the shared transport of
//! [`crate::engine`] — the links, effects, fault handling and probe seam
//! the closed loop ([`crate::closed_loop`]) runs on — so the
//! [`crate::shard`] drivers and the retired scan in [`crate::legacy`]
//! drive it unchanged. Every open-loop transfer is an origin fetch.

use crate::engine::{Dest, Job, JobKind, ProxyModel, Transport};
use crate::sim::{proxy_seed, Scope};
use crate::StaticWorkload;
use cachesim::{FetchDecision, Mshr, Waiter};
use coop::Router;
use simcore::rng::Rng;
use simcore::trace::{TF_MEASURED, TF_PREFETCH};
use workload::{ItemId, TraceRecord};

/// The item of open-loop transfers that fetch no concrete item: the
/// itemless flow and the Poissonised prefetch stream.
const NO_ITEM: ItemId = ItemId(u64::MAX);

struct ProxyState {
    rng: Rng,
    prefetch_rng: Rng,
    h: f64,
    lambda: f64,
    prefetch_rate: f64,
    next_request_t: f64,
    next_prefetch_t: f64,
    in_window: bool,
    /// Outstanding-fetch table in catalog mode (`Some` exactly when the
    /// workload sets [`StaticWorkload::catalog_items`]): misses for
    /// in-flight items coalesce onto the fetch's FIFO waiter queue
    /// instead of launching a second transfer.
    mshr: Option<Mshr<ItemId>>,
}

/// The open-loop model of one scope's proxies.
pub(crate) struct OpenLoop<'w> {
    w: &'w StaticWorkload<'w>,
    proxies: Vec<ProxyState>,
}

impl<'w> OpenLoop<'w> {
    pub(crate) fn new(w: &'w StaticWorkload<'w>, seed: u64, scope: &Scope) -> Self {
        let proxies = scope
            .proxies
            .iter()
            .map(|&i| {
                let p = &w.proxies[i];
                // Draw order matches netsim::parametric::run exactly: split
                // the prefetch stream first, then the first inter-arrival
                // gaps.
                let mut rng = Rng::new(proxy_seed(seed, i));
                let prefetch_rate = p.n_f * p.lambda;
                let mut prefetch_rng = rng.split();
                let next_request_t = rng.exp(p.lambda);
                let next_prefetch_t = if prefetch_rate > 0.0 {
                    prefetch_rng.exp(prefetch_rate)
                } else {
                    f64::INFINITY
                };
                ProxyState {
                    rng,
                    prefetch_rng,
                    h: (p.h_prime + p.n_f * p.p).min(1.0),
                    lambda: p.lambda,
                    prefetch_rate,
                    next_request_t,
                    next_prefetch_t,
                    in_window: false,
                    mshr: w.catalog_items.map(|_| Mshr::unbounded()),
                }
            })
            .collect();
        OpenLoop { w, proxies }
    }
}

impl ProxyModel for OpenLoop<'_> {
    const PEERS: bool = false;

    fn request_due(&self, tx: &Transport<'_>, i: usize) -> Option<f64> {
        (tx.ledgers[i].issued < tx.n_requests).then_some(self.proxies[i].next_request_t)
    }

    /// The prefetch stream of a proxy stops with its request stream.
    fn prefetch_due(&self, tx: &Transport<'_>, i: usize) -> Option<f64> {
        let p = &self.proxies[i];
        (tx.ledgers[i].issued < tx.n_requests && p.next_prefetch_t.is_finite())
            .then_some(p.next_prefetch_t)
    }

    fn on_request(&mut self, tx: &mut Transport<'_>, i: usize, _router: Option<&Router>) {
        let me = tx.scope.proxies[i];
        let n_shards = tx.n_shards;
        let p = &mut self.proxies[i];
        let t = p.next_request_t;
        // A Bernoulli hit draws no item or size (it is recorded with the
        // itemless sentinel, so the stream stays replayable). A miss in
        // catalog mode draws a concrete item id (shard = item mod
        // n_shards); the itemless flow keeps the exact draw order of
        // `netsim::parametric` (a shard id is drawn only on sharded
        // topologies).
        let hit = p.rng.chance(p.h);
        let (size, item, shard) = if hit {
            (0.0, NO_ITEM, 0)
        } else {
            let size = self.w.size_dist.sample(&mut p.rng);
            match self.w.catalog_items {
                Some(n) => {
                    let item = ItemId(p.rng.below(n));
                    (size, item, item.0 % n_shards)
                }
                None => (size, NO_ITEM, if n_shards > 1 { p.rng.below(n_shards) } else { 0 }),
            }
        };
        let (measured, rid) = tx.count_request(i, || TraceRecord::new(t, me as u32, item, size));
        p.in_window = measured;
        p.next_request_t = t + p.rng.exp(p.lambda);
        if hit {
            tx.hit(i, t, rid, NO_ITEM, measured);
            return;
        }
        // Catalog mode consults the MSHR table: a miss for an in-flight
        // item coalesces onto its waiter queue instead of launching a
        // second transfer (unbounded coalescing: never a bypass), and its
        // Wait span and access time land when the blocking fetch settles.
        let waiter = Waiter { t, measured, trace: rid };
        let launch = p
            .mshr
            .as_mut()
            .is_none_or(|m| m.on_demand_miss(item, t, size, waiter) == FetchDecision::Launch);
        if launch {
            let lg = &mut tx.ledgers[i];
            lg.demand_bytes += size;
            let job = Job {
                id: lg.next_job_id(me),
                proxy: me as u32,
                shard: shard as u32,
                dest: Dest::Origin,
                hop: 0,
                size,
                spent: size,
                issued: t,
                item,
                kind: JobKind::Demand { measured },
                tracked: true,
                trace: rid,
                tseq: 0,
            };
            tx.issue(job, t, t, if measured { TF_MEASURED } else { 0 });
        }
    }

    /// The next Poissonised prefetch: abstract volume, not a concrete item
    /// — it never touches the MSHR table.
    fn on_prefetch(&mut self, tx: &mut Transport<'_>, i: usize, _router: Option<&Router>) {
        let me = tx.scope.proxies[i];
        let p = &mut self.proxies[i];
        let t = p.next_prefetch_t;
        let size = self.w.size_dist.sample(&mut p.prefetch_rng);
        let shard = if tx.n_shards > 1 { p.prefetch_rng.below(tx.n_shards) } else { 0 };
        let lg = &mut tx.ledgers[i];
        lg.prefetch_jobs += 1;
        lg.prefetch_bytes += size;
        p.next_prefetch_t = t + p.prefetch_rng.exp(p.prefetch_rate);
        let id = lg.next_job_id(me);
        let job = Job {
            id,
            proxy: me as u32,
            shard: shard as u32,
            dest: Dest::Origin,
            hop: 0,
            size,
            spent: size,
            issued: t,
            item: NO_ITEM,
            kind: JobKind::Prefetch { measured: p.in_window },
            tracked: true,
            trace: tx.prefetch_trace(me, id),
            tseq: 0,
        };
        let mf = if p.in_window { TF_MEASURED } else { 0 };
        tx.issue(job, t, t, TF_PREFETCH | mf);
    }

    fn holds(&self, _i: usize, _item: ItemId) -> bool {
        unreachable!("the open loop serves no peers")
    }

    fn on_deliver(
        &mut self,
        tx: &mut Transport<'_>,
        i: usize,
        t: f64,
        mut job: Job,
        _false_hit: bool,
    ) {
        tx.delivered(i, t, &mut job);
        if matches!(job.kind, JobKind::Demand { .. }) {
            // Catalog mode: the landing settles the item's outstanding
            // entry — every coalesced waiter's clock stops now, in FIFO
            // order.
            if let Some(entry) = self.proxies[i].mshr.as_mut().and_then(|m| m.complete(&job.item)) {
                tx.settle_waiters(i, &entry.waiters, t, job.item, false);
            }
        }
    }

    fn mshr(&self, i: usize) -> Option<&Mshr<ItemId>> {
        self.proxies[i].mshr.as_ref()
    }

    fn mshr_mut(&mut self, i: usize) -> Option<&mut Mshr<ItemId>> {
        self.proxies[i].mshr.as_mut()
    }
}
