//! Cluster topologies: proxies, origin shards, and the links between them.
//!
//! A [`Topology`] is a bipartite routing structure: `P` edge proxies (each
//! fronting a client population) fetch from `S` origin shards, and every
//! `(proxy, shard)` pair is assigned a *route* — an ordered path of links a
//! fetch traverses. Links are the queueing resources: each one becomes a
//! processor-sharing (or FIFO) server with its own bandwidth in
//! [`crate::ClusterSim`]. Cooperative topologies add a *peer route* for
//! ordered proxy pairs, the path a cache-to-cache transfer takes.
//!
//! Seven canonical layouts are provided, spanning the shapes the scaling
//! literature cares about (Anselmi & Walton's speculative queueing networks;
//! the server-scale prefetching surveys):
//!
//! * [`Topology::single`] — one proxy, one shard, one link: degenerates to
//!   the paper's single shared path (and is validated against
//!   `netsim::parametric`);
//! * [`Topology::star`] — every proxy has a private uplink to one origin:
//!   no cross-proxy queueing interaction, the baseline for comparison;
//! * [`Topology::two_tier`] — private access links feeding one shared
//!   backbone: proxies now impede each other exactly as the paper's §5 load
//!   impedance predicts;
//! * [`Topology::sharded_origin`] — private uplinks into per-shard egress
//!   links, items hash-partitioned across shards: the scale-out layout;
//! * [`Topology::mesh`] — `two_tier` plus one peer link per proxy pair, so
//!   cooperative fetches bypass the backbone;
//! * [`Topology::mesh_with_latency`] — the mesh with a propagation delay on
//!   every link, which is what lets the sharded driver run threads;
//! * [`Topology::ring`] — `two_tier` plus a peer ring: fewer links than
//!   the mesh, multi-hop peer transfers.
//!
//! ## Layout
//!
//! Storage is flat, so a 128-proxy mesh (8,257 links, 16,384 peer slots)
//! builds with a handful of allocations. Routes and peer routes are each
//! one offsets array plus one link-id array (CSR): the route of slot `i`
//! is `ids[start[i]..start[i + 1]]`, with slot `p * n_shards + s` for
//! `(proxy, shard)` and `p * n_proxies + q` for the peer pair `(p, q)`. A
//! topology without any peer route stores no peer table at all. Link
//! names are [`LinkName`] values that render on demand: the canonical
//! builders store a static prefix plus indices and print `backbone`,
//! `path`, `uplink[2]`, `access[2]`, `shard[1]`, `ring[3]` and
//! `peer[2-7]`; a name given to [`TopologyBuilder::add_link`] prints as
//! given.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// A directed link with a fixed capacity and queueing discipline.
#[derive(Clone, Debug, PartialEq)]
pub struct Link {
    /// Name used in reports (e.g. `uplink[2]`); see [`LinkName`].
    pub name: LinkName,
    /// Capacity in size-units/second (the paper's `b` for this hop).
    pub bandwidth: f64,
    /// One-way propagation delay of the hop, in seconds. Zero (the paper's
    /// model, and every classic builder) means a transfer enters the next
    /// hop at the instant it leaves this one. A positive latency delays
    /// entry into this link by `latency` and, once the last hop's service
    /// finishes, delays the response's arrival back at the proxy by the
    /// route's summed latency — and it is what gives the sharded parallel
    /// driver its conservative **lookahead** (see
    /// [`ShardPlan::lookahead`]).
    pub latency: f64,
    /// Scheduling discipline of the link server.
    pub discipline: Discipline,
}

/// Queueing discipline of one link: the discipline of its server in the
/// transport's [`queueing::ServerTable`].
pub use queueing::Discipline;

/// The name of a [`Link`], rendered only when printed.
///
/// The canonical builders name links by a static prefix plus one or two
/// indices (`access[3]`, `peer[2-7]`), so building a topology formats no
/// string; a custom name passed to the builder is kept as text. `Display`
/// honours width and alignment (`{:<10}`) like a `str`, `Debug` prints
/// the quoted text, and equality with a `str` compares the rendered text.
#[derive(Clone, PartialEq)]
pub struct LinkName(Name);

#[derive(Clone, PartialEq)]
enum Name {
    Text(Cow<'static, str>),
    /// `prefix[i]`.
    Indexed(&'static str, u32),
    /// `prefix[i-j]`.
    Pair(&'static str, u32, u32),
}

impl LinkName {
    fn indexed(prefix: &'static str, i: usize) -> LinkName {
        LinkName(Name::Indexed(prefix, index(i)))
    }

    fn pair(prefix: &'static str, i: usize, j: usize) -> LinkName {
        LinkName(Name::Pair(prefix, index(i), index(j)))
    }

    /// Writes the name piece by piece, without padding.
    fn render(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self.0 {
            Name::Text(ref text) => out.write_str(text),
            Name::Indexed(prefix, i) => write!(out, "{prefix}[{i}]"),
            Name::Pair(prefix, i, j) => write!(out, "{prefix}[{i}-{j}]"),
        }
    }
}

fn index(i: usize) -> u32 {
    u32::try_from(i).expect("topology index fits in u32")
}

fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("route ids fit in u32 offsets")
}

impl From<&'static str> for LinkName {
    fn from(name: &'static str) -> LinkName {
        LinkName(Name::Text(Cow::Borrowed(name)))
    }
}

impl From<String> for LinkName {
    fn from(name: String) -> LinkName {
        LinkName(Name::Text(Cow::Owned(name)))
    }
}

impl fmt::Display for LinkName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Name::Text(text) = &self.0 {
            f.pad(text)
        } else if f.width().is_some() || f.precision().is_some() {
            let mut text = String::new();
            self.render(&mut text)?;
            f.pad(&text)
        } else {
            self.render(f)
        }
    }
}

impl fmt::Debug for LinkName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

impl PartialEq<str> for LinkName {
    fn eq(&self, other: &str) -> bool {
        /// Consumes the expected text piece by piece as the name renders.
        struct Rest<'a>(&'a str);
        impl fmt::Write for Rest<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut rest = Rest(other);
        self.render(&mut rest).is_ok() && rest.0.is_empty()
    }
}

/// Variable-length rows of link ids stored flat (CSR): row `i` is
/// `ids[start[i]..start[i + 1]]`. An empty `start` stands for a table
/// whose every row is empty.
#[derive(Clone, Debug, Default, PartialEq)]
struct Routes {
    start: Vec<u32>,
    ids: Vec<usize>,
}

impl Routes {
    /// Row `i`; empty when the table is absent.
    fn row(&self, i: usize) -> &[usize] {
        self.rows(i..i + 1)
    }

    /// The length of every row; nothing when the table is absent.
    fn row_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.start.windows(2).map(|w| (w[1] - w[0]) as usize)
    }

    /// Rows `range`, concatenated.
    fn rows(&self, range: Range<usize>) -> &[usize] {
        if self.start.is_empty() {
            return &[];
        }
        &self.ids[self.start[range.start] as usize..self.start[range.end] as usize]
    }
}

/// A multi-node layout: links plus a route for every `(proxy, shard)` pair,
/// and optionally a peer route for every ordered `(proxy, proxy)` pair.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    n_proxies: usize,
    n_shards: usize,
    links: Vec<Link>,
    /// Slot `p * n_shards + s`: ordered link ids from proxy `p` to shard
    /// `s`.
    routes: Routes,
    /// Slot `p * n_proxies + q`: ordered link ids from proxy `p` to proxy
    /// `q`; an empty row when the pair has no peer path (the cooperative
    /// engine requires one for every pair), and no table at all when no
    /// pair has one.
    peer_routes: Routes,
}

impl Topology {
    /// Starts an empty custom topology; see [`TopologyBuilder`].
    pub fn builder(n_proxies: usize, n_shards: usize) -> TopologyBuilder {
        assert!(n_proxies > 0 && n_shards > 0);
        TopologyBuilder {
            n_proxies,
            n_shards,
            links: Vec::new(),
            routes: Staged::default(),
            peer_routes: Staged::default(),
        }
    }

    /// One proxy, one shard, one PS link of the given bandwidth — the
    /// paper's single shared path.
    pub fn single(bandwidth: f64) -> Topology {
        let mut b = Topology::builder(1, 1);
        let l = b.add_link("path", bandwidth, Discipline::ProcessorSharing);
        b.route(0, 0, &[l]);
        b.build()
    }

    /// `n_proxies` proxies, each with a private PS uplink of
    /// `uplink_bandwidth` to a single origin.
    pub fn star(n_proxies: usize, uplink_bandwidth: f64) -> Topology {
        let mut b = Topology::builder(n_proxies, 1);
        for p in 0..n_proxies {
            let l = b.add_link(
                LinkName::indexed("uplink", p),
                uplink_bandwidth,
                Discipline::ProcessorSharing,
            );
            b.route(p, 0, &[l]);
        }
        b.build()
    }

    /// Private access links feeding one shared backbone to a single origin.
    pub fn two_tier(n_proxies: usize, access_bandwidth: f64, backbone_bandwidth: f64) -> Topology {
        let mut b = Topology::builder(n_proxies, 1);
        let backbone = b.add_link("backbone", backbone_bandwidth, Discipline::ProcessorSharing);
        for p in 0..n_proxies {
            let l = b.add_link(
                LinkName::indexed("access", p),
                access_bandwidth,
                Discipline::ProcessorSharing,
            );
            b.route(p, 0, &[l, backbone]);
        }
        b.build()
    }

    /// Private uplinks into per-shard egress links; items are partitioned
    /// across `n_shards` shards by `item % n_shards`.
    pub fn sharded_origin(
        n_proxies: usize,
        n_shards: usize,
        uplink_bandwidth: f64,
        shard_bandwidth: f64,
    ) -> Topology {
        let mut b = Topology::builder(n_proxies, n_shards);
        let shard_links: Vec<usize> = (0..n_shards)
            .map(|s| {
                b.add_link(
                    LinkName::indexed("shard", s),
                    shard_bandwidth,
                    Discipline::ProcessorSharing,
                )
            })
            .collect();
        for p in 0..n_proxies {
            let up = b.add_link(
                LinkName::indexed("uplink", p),
                uplink_bandwidth,
                Discipline::ProcessorSharing,
            );
            for (s, &sl) in shard_links.iter().enumerate() {
                b.route(p, s, &[up, sl]);
            }
        }
        b.build()
    }

    /// A two-tier tree plus a full proxy↔proxy peer mesh: one PS peer link
    /// per unordered proxy pair, so cooperative fetches bypass the
    /// backbone entirely. With one proxy this degenerates to
    /// [`Topology::two_tier`] (no peers to mesh).
    pub fn mesh(
        n_proxies: usize,
        access_bandwidth: f64,
        backbone_bandwidth: f64,
        peer_bandwidth: f64,
    ) -> Topology {
        Topology::mesh_with_latency(
            n_proxies,
            access_bandwidth,
            backbone_bandwidth,
            peer_bandwidth,
            0.0,
        )
    }

    /// [`Topology::mesh`] with a uniform propagation `latency` on every
    /// link — the deployment shape of the sharded scale experiments (E17):
    /// the latency is physically the speed-of-light/serialisation floor a
    /// real WAN hop pays, and operationally the conservative lookahead
    /// that lets the sharded driver run whole windows of events without
    /// cross-thread synchronisation (see [`ShardPlan::lookahead`]).
    pub fn mesh_with_latency(
        n_proxies: usize,
        access_bandwidth: f64,
        backbone_bandwidth: f64,
        peer_bandwidth: f64,
        latency: f64,
    ) -> Topology {
        let mut b = Topology::builder(n_proxies, 1);
        b.links.reserve_exact(1 + n_proxies + n_proxies * n_proxies.saturating_sub(1) / 2);
        let backbone = b.add_link_latency(
            "backbone",
            backbone_bandwidth,
            latency,
            Discipline::ProcessorSharing,
        );
        for p in 0..n_proxies {
            let l = b.add_link_latency(
                LinkName::indexed("access", p),
                access_bandwidth,
                latency,
                Discipline::ProcessorSharing,
            );
            b.route(p, 0, &[l, backbone]);
        }
        // Peer links follow in `(p, q > p)` order, so the pair `(a, b)`,
        // `a < b`, is link `pair_start[a] + b - a - 1`.
        let mut pair_start = Vec::with_capacity(n_proxies);
        for p in 0..n_proxies {
            pair_start.push(b.links.len());
            for q in p + 1..n_proxies {
                b.add_link_latency(
                    LinkName::pair("peer", p, q),
                    peer_bandwidth,
                    latency,
                    Discipline::ProcessorSharing,
                );
            }
        }
        let mut t = b.build();
        if n_proxies > 1 {
            // One one-link row per ordered pair, written in slot order: the
            // table `peer_route` would stage, without its per-call checks.
            let n = n_proxies;
            let mut peers = Routes { start: Vec::with_capacity(n * n + 1), ids: Vec::new() };
            peers.ids.reserve_exact(n * (n - 1));
            peers.start.push(0);
            for p in 0..n {
                for q in 0..n {
                    if p != q {
                        let (lo, hi) = (p.min(q), p.max(q));
                        peers.ids.push(pair_start[lo] + hi - lo - 1);
                    }
                    peers.start.push(offset(peers.ids.len()));
                }
            }
            t.peer_routes = peers;
        }
        t
    }

    /// A two-tier tree plus a peer *ring*: proxy `p` links to `(p+1) mod n`
    /// and peer fetches traverse the shorter arc — fewer links than the
    /// mesh, at the price of multi-hop peer transfers.
    pub fn ring(
        n_proxies: usize,
        access_bandwidth: f64,
        backbone_bandwidth: f64,
        peer_bandwidth: f64,
    ) -> Topology {
        let mut b = Topology::builder(n_proxies, 1);
        let backbone = b.add_link("backbone", backbone_bandwidth, Discipline::ProcessorSharing);
        for p in 0..n_proxies {
            let l = b.add_link(
                LinkName::indexed("access", p),
                access_bandwidth,
                Discipline::ProcessorSharing,
            );
            b.route(p, 0, &[l, backbone]);
        }
        if n_proxies >= 2 {
            // `ring_links[p]` joins p and (p+1) mod n; with two proxies the
            // cycle collapses to a single link.
            let segments = if n_proxies == 2 { 1 } else { n_proxies };
            let ring_links: Vec<usize> = (0..segments)
                .map(|p| {
                    b.add_link(
                        LinkName::indexed("ring", p),
                        peer_bandwidth,
                        Discipline::ProcessorSharing,
                    )
                })
                .collect();
            let mut path = Vec::with_capacity(n_proxies / 2);
            for p in 0..n_proxies {
                for q in 0..n_proxies {
                    if p == q {
                        continue;
                    }
                    let clockwise = (q + n_proxies - p) % n_proxies;
                    path.clear();
                    if clockwise <= n_proxies - clockwise {
                        path.extend((0..clockwise).map(|i| ring_links[(p + i) % segments]));
                    } else {
                        path.extend(
                            (0..n_proxies - clockwise)
                                .map(|i| ring_links[(p + n_proxies - 1 - i) % segments]),
                        );
                    }
                    b.peer_route(p, q, &path);
                }
            }
        }
        b.build()
    }

    pub fn n_proxies(&self) -> usize {
        self.n_proxies
    }

    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link path a fetch from `proxy` to `shard` traverses.
    pub fn route(&self, proxy: usize, shard: usize) -> &[usize] {
        self.routes.row(proxy * self.n_shards + shard)
    }

    /// The link path a peer fetch from proxy `p` to proxy `q` traverses.
    /// Panics when the pair has no peer path (see
    /// [`Topology::has_peer_path`]).
    pub fn peer_route(&self, p: usize, q: usize) -> &[usize] {
        let r = self.peer_row(p, q);
        assert!(!r.is_empty(), "no peer route from proxy {p} to proxy {q}");
        r
    }

    fn peer_row(&self, p: usize, q: usize) -> &[usize] {
        debug_assert!(p < self.n_proxies && q < self.n_proxies, "peer endpoint out of range");
        self.peer_routes.row(p * self.n_proxies + q)
    }

    /// Whether proxies `p` and `q` have a peer path (`p == q` has none).
    pub fn has_peer_path(&self, p: usize, q: usize) -> bool {
        p != q && !self.peer_row(p, q).is_empty()
    }

    /// Whether every ordered proxy pair has a peer path — the property
    /// the cooperative workload requires.
    pub fn is_peer_meshed(&self) -> bool {
        // The builder sets no diagonal route, so every other slot is full
        // exactly when `n (n − 1)` slots are.
        let n = self.n_proxies;
        self.peer_routes.row_lens().filter(|&len| len > 0).count() == n * (n - 1)
    }

    /// Every link id on `proxy`'s origin routes and outgoing peer routes,
    /// once per route that crosses it — the routes are stored contiguously
    /// per proxy, so this is two slices.
    fn routed_by(&self, proxy: usize) -> impl Iterator<Item = usize> + '_ {
        let (s, n) = (self.n_shards, self.n_proxies);
        let origin = self.routes.rows(proxy * s..(proxy + 1) * s);
        origin.iter().chain(self.peer_routes.rows(proxy * n..(proxy + 1) * n)).copied()
    }

    /// The peer routes out of `proxy`, with their destinations.
    fn peer_routes_from(&self, proxy: usize) -> impl Iterator<Item = (usize, &[usize])> + '_ {
        (0..self.n_proxies)
            .map(move |q| (q, self.peer_row(proxy, q)))
            .filter(|(_, route)| !route.is_empty())
    }

    /// The narrowest bandwidth on the route — the capacity an adaptive
    /// controller at `proxy` should provision its threshold against for
    /// fetches to `shard`.
    pub fn bottleneck(&self, proxy: usize, shard: usize) -> f64 {
        self.route(proxy, shard)
            .iter()
            .map(|&l| self.links[l].bandwidth)
            .fold(f64::INFINITY, f64::min)
    }

    /// The worst-case bottleneck over all shards reachable from `proxy`.
    pub fn proxy_bottleneck(&self, proxy: usize) -> f64 {
        (0..self.n_shards).map(|s| self.bottleneck(proxy, s)).fold(f64::INFINITY, f64::min)
    }

    /// Whether any link carries a positive propagation latency. The
    /// classic builders never do — they are the paper's zero-latency
    /// model, on which the engines behave exactly as before this field
    /// existed.
    pub fn has_latency(&self) -> bool {
        self.links.iter().any(|l| l.latency > 0.0)
    }

    /// Propagation delay of entering link `l` (zero in classic layouts).
    pub(crate) fn entry_latency(&self, l: usize) -> f64 {
        self.links[l].latency
    }

    /// Summed propagation delay of a completed transfer's response
    /// returning to the requesting proxy over `route` — the whole path,
    /// reversed. The engines use it for both origin responses and peer
    /// serve/false-hit notifications.
    pub(crate) fn return_latency(&self, route: &[usize]) -> f64 {
        route.iter().map(|&l| self.links[l].latency).sum()
    }
}

/// A partition of a [`Topology`] into per-thread **shards** for the
/// sharded cluster driver: every proxy and every link is owned by exactly
/// one shard, and the plan knows the conservative **lookahead** the
/// partition admits.
///
/// ## Partitioning heuristic
///
/// Proxies are split into contiguous, balanced index blocks — for the
/// `mesh`/`ring`/`two_tier` families (symmetric peer fabrics over an
/// index-ordered peer structure) contiguous blocks minimise or tie the
/// edge cut among balanced partitions, and contiguity keeps the partition
/// a pure function of `(n_proxies, n_shards)` so reports cannot depend on
/// a randomised cut. Each link then goes to the shard that *routes over it
/// most*: we count, for every route and peer route, one use per traversing
/// proxy, and hand the link to the majority shard (lowest index on ties).
/// Private access links land with their proxy, shared backbones with the
/// largest user block, and peer links with one of their two endpoints —
/// exactly the assignment that minimises cross-shard handoffs given the
/// proxy blocks.
///
/// ## Lookahead
///
/// The conservative window protocol may run every shard `lookahead`
/// seconds past the globally earliest pending event without any shard
/// observing another's effects, because every **cross-shard handoff** —
/// a job entering a link owned by another shard, a peer-serve check at a
/// remote proxy, a response delivered to a remote proxy — takes at least
/// this long. The plan computes it as the minimum propagation delay over
/// all handoffs its cut actually crosses: `+∞` when nothing crosses
/// (shards are independent between digest epochs), and `0` when any
/// crossing hop has zero latency — in which case no window is admissible
/// and `ClusterSim` runs the one-shard plan instead (reports are
/// bit-identical at every shard count). A one-shard plan crosses nothing,
/// so it is built without walking a route, and the driver runs it on the
/// calling thread, one window per boundary interval.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    n_shards: usize,
    proxy_shard: Vec<u32>,
    link_shard: Vec<u32>,
    lookahead: f64,
}

impl ShardPlan {
    /// Partitions `topology` into `shards` shards (clamped to the proxy
    /// count).
    pub fn partition(topology: &Topology, shards: usize) -> ShardPlan {
        assert!(shards > 0, "need at least one shard");
        let n_shards = shards.min(topology.n_proxies());
        if n_shards == 1 {
            // Everything on shard 0: no handoff crosses.
            return ShardPlan {
                n_shards,
                proxy_shard: vec![0; topology.n_proxies()],
                link_shard: vec![0; topology.links().len()],
                lookahead: f64::INFINITY,
            };
        }
        ShardPlan::cut(topology, n_shards)
    }

    /// The heuristic of the type docs, for `n_shards <= n_proxies`.
    fn cut(topology: &Topology, n_shards: usize) -> ShardPlan {
        let n_proxies = topology.n_proxies();

        // Contiguous balanced blocks: the first `rem` shards get one extra.
        let base = n_proxies / n_shards;
        let rem = n_proxies % n_shards;
        let mut proxy_shard = Vec::with_capacity(n_proxies);
        for s in 0..n_shards {
            let count = base + usize::from(s < rem);
            proxy_shard.extend(std::iter::repeat_n(s as u32, count));
        }

        // Majority-use link assignment: one use per proxy whose route (or
        // peer route, in either direction) traverses the link.
        // `uses[l * n_shards + s]` counts link `l`'s uses by shard `s`.
        let mut uses = vec![0u32; topology.links().len() * n_shards];
        for (p, &s) in proxy_shard.iter().enumerate() {
            for l in topology.routed_by(p) {
                uses[l * n_shards + s as usize] += 1;
            }
        }
        let link_shard: Vec<u32> = uses
            .chunks_exact(n_shards)
            .map(|counts| {
                let mut best = 0usize;
                for (s, &c) in counts.iter().enumerate() {
                    if c > counts[best] {
                        best = s;
                    }
                }
                best as u32
            })
            .collect();

        let mut plan = ShardPlan { n_shards, proxy_shard, link_shard, lookahead: f64::INFINITY };
        plan.lookahead = plan.compute_lookahead(topology);
        plan
    }

    /// Minimum delay over the cross-shard handoffs this cut crosses (see
    /// the type docs); `+∞` when no handoff crosses.
    fn compute_lookahead(&self, topology: &Topology) -> f64 {
        let mut min = f64::INFINITY;
        let mut consider = |crosses: bool, delay: f64| {
            if crosses {
                min = min.min(delay);
            }
        };
        let mut walk = |route: &[usize], proxy: usize, endpoint: u32| {
            // Launch: the proxy injects into the route's first link.
            consider(
                self.proxy_shard[proxy] != self.link_shard[route[0]],
                topology.entry_latency(route[0]),
            );
            // Tandem forwards between consecutive links.
            for hop in route.windows(2) {
                consider(
                    self.link_shard[hop[0]] != self.link_shard[hop[1]],
                    topology.entry_latency(hop[1]),
                );
            }
            // Hand-off from the last link to the serving endpoint (the
            // origin-side proxy itself, or the peer being checked).
            let last = *route.last().expect("routes are non-empty");
            consider(self.link_shard[last] != endpoint, topology.entry_latency(last));
            // Response back to the requesting proxy.
            consider(endpoint != self.proxy_shard[proxy], topology.return_latency(route));
        };
        for p in 0..topology.n_proxies() {
            for s in 0..topology.n_shards() {
                // Origin fetches complete at the requester itself.
                walk(topology.route(p, s), p, self.proxy_shard[p]);
            }
            for (q, route) in topology.peer_routes_from(p) {
                // Peer fetches are checked at q, then answered to p.
                walk(route, p, self.proxy_shard[q]);
            }
        }
        min
    }

    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The shard owning proxy `p`'s client population, cache, and timers.
    pub fn proxy_shard(&self, p: usize) -> usize {
        self.proxy_shard[p] as usize
    }

    /// The shard owning link `l`'s queueing server.
    pub fn link_shard(&self, l: usize) -> usize {
        self.link_shard[l] as usize
    }

    /// The conservative window width this partition admits (seconds).
    pub fn lookahead(&self) -> f64 {
        self.lookahead
    }

    /// The driver name telemetry reports for this plan when it executes:
    /// `"windowed"` when its shards run on threads, `"sequential"` for the
    /// one-thread run.
    pub(crate) fn driver_label(&self) -> &'static str {
        if self.n_shards > 1 {
            "windowed"
        } else {
            "sequential"
        }
    }

    /// Number of links whose server lives on a different shard than at
    /// least one proxy routing over them — the cut the partitioning
    /// heuristic minimises (diagnostic, reported by E17).
    pub fn edge_cut(&self, topology: &Topology) -> usize {
        let mut cut = vec![false; topology.links().len()];
        for (p, &s) in self.proxy_shard.iter().enumerate() {
            for l in topology.routed_by(p) {
                if self.link_shard[l] != s {
                    cut[l] = true;
                }
            }
        }
        cut.iter().filter(|&&c| c).count()
    }
}

/// Incremental construction of a custom [`Topology`].
pub struct TopologyBuilder {
    n_proxies: usize,
    n_shards: usize,
    links: Vec<Link>,
    routes: Staged,
    peer_routes: Staged,
}

/// Routes as the builder receives them: every route appended to `ids` in
/// call order, `span[slot]` locating the slot's latest one. A route set
/// twice leaves its old ids behind until [`Staged::compact`]; the span
/// table is allocated by the first route set.
#[derive(Default)]
struct Staged {
    span: Vec<(u32, u32)>,
    ids: Vec<usize>,
}

impl Staged {
    fn set(&mut self, slots: usize, slot: usize, links: &[usize]) {
        if self.span.is_empty() {
            self.span = vec![(0, 0); slots];
        }
        self.span[slot] = (offset(self.ids.len()), offset(links.len()));
        self.ids.extend(links.iter().copied());
    }

    fn is_set(&self, slot: usize) -> bool {
        self.span.get(slot).is_some_and(|&(_, len)| len > 0)
    }

    /// The routes in slot order, without the ids of replaced routes.
    fn compact(self) -> Routes {
        if self.span.is_empty() {
            return Routes::default();
        }
        let mut routes = Routes { start: Vec::with_capacity(self.span.len() + 1), ids: Vec::new() };
        routes.start.push(0);
        for &(start, len) in &self.span {
            let start = start as usize;
            routes.ids.extend(self.ids[start..start + len as usize].iter().copied());
            routes.start.push(offset(routes.ids.len()));
        }
        routes
    }
}

impl TopologyBuilder {
    /// Registers a zero-latency link; returns its index for use in routes.
    pub fn add_link(
        &mut self,
        name: impl Into<LinkName>,
        bandwidth: f64,
        discipline: Discipline,
    ) -> usize {
        self.add_link_latency(name, bandwidth, 0.0, discipline)
    }

    /// Registers a link with a propagation `latency`; returns its index.
    pub fn add_link_latency(
        &mut self,
        name: impl Into<LinkName>,
        bandwidth: f64,
        latency: f64,
        discipline: Discipline,
    ) -> usize {
        assert!(bandwidth > 0.0 && bandwidth.is_finite(), "link bandwidth must be positive");
        assert!(latency >= 0.0 && latency.is_finite(), "link latency must be non-negative");
        self.links.push(Link { name: name.into(), bandwidth, latency, discipline });
        self.links.len() - 1
    }

    /// Sets the route for `(proxy, shard)`, replacing any earlier one.
    pub fn route(&mut self, proxy: usize, shard: usize, links: &[usize]) -> &mut Self {
        assert!(proxy < self.n_proxies && shard < self.n_shards, "route endpoint out of range");
        assert!(!links.is_empty(), "route must traverse at least one link");
        for &l in links {
            assert!(l < self.links.len(), "route references unknown link {l}");
        }
        let slots = self.n_proxies * self.n_shards;
        self.routes.set(slots, proxy * self.n_shards + shard, links);
        self
    }

    /// Sets the peer route from proxy `p` to proxy `q` (one direction;
    /// call twice for a symmetric pair), replacing any earlier one.
    pub fn peer_route(&mut self, p: usize, q: usize, links: &[usize]) -> &mut Self {
        assert!(p < self.n_proxies && q < self.n_proxies, "peer route endpoint out of range");
        assert!(p != q, "a proxy needs no route to itself");
        assert!(!links.is_empty(), "peer route must traverse at least one link");
        for &l in links {
            assert!(l < self.links.len(), "peer route references unknown link {l}");
        }
        let slots = self.n_proxies * self.n_proxies;
        self.peer_routes.set(slots, p * self.n_proxies + q, links);
        self
    }

    /// Validates completeness and freezes the topology.
    pub fn build(self) -> Topology {
        for p in 0..self.n_proxies {
            for s in 0..self.n_shards {
                assert!(
                    self.routes.is_set(p * self.n_shards + s),
                    "no route from proxy {p} to shard {s}"
                );
            }
        }
        Topology {
            n_proxies: self.n_proxies,
            n_shards: self.n_shards,
            links: self.links,
            routes: self.routes.compact(),
            peer_routes: self.peer_routes.compact(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_is_one_link() {
        let t = Topology::single(50.0);
        assert_eq!((t.n_proxies(), t.n_shards(), t.links().len()), (1, 1, 1));
        assert_eq!(t.route(0, 0), &[0]);
        assert_eq!(t.bottleneck(0, 0), 50.0);
    }

    #[test]
    fn star_has_private_uplinks() {
        let t = Topology::star(4, 25.0);
        assert_eq!(t.links().len(), 4);
        for p in 0..4 {
            assert_eq!(t.route(p, 0).len(), 1);
        }
        // No two proxies share a link.
        assert_ne!(t.route(0, 0), t.route(1, 0));
    }

    #[test]
    fn two_tier_shares_the_backbone() {
        let t = Topology::two_tier(3, 60.0, 100.0);
        assert_eq!(t.links().len(), 4);
        let backbone = t.route(0, 0)[1];
        for p in 0..3 {
            assert_eq!(t.route(p, 0)[1], backbone);
        }
        assert_eq!(t.bottleneck(0, 0), 60.0);
    }

    #[test]
    fn sharded_routes_cross_product() {
        let t = Topology::sharded_origin(3, 2, 40.0, 80.0);
        assert_eq!(t.links().len(), 2 + 3);
        for p in 0..3 {
            let up = t.route(p, 0)[0];
            for s in 0..2 {
                assert_eq!(t.route(p, s)[0], up, "same uplink for every shard");
            }
            assert_ne!(t.route(p, 0)[1], t.route(p, 1)[1], "distinct shard links");
        }
        assert_eq!(t.bottleneck(0, 0), 40.0);
        assert_eq!(t.proxy_bottleneck(0), 40.0);
    }

    #[test]
    fn mesh_has_peer_path_per_pair() {
        let t = Topology::mesh(4, 40.0, 80.0, 30.0);
        // backbone + 4 access + C(4,2)=6 peer links.
        assert_eq!(t.links().len(), 1 + 4 + 6);
        assert!(t.is_peer_meshed());
        for p in 0..4 {
            assert!(!t.has_peer_path(p, p));
            for q in 0..4 {
                if p != q {
                    assert_eq!(t.peer_route(p, q).len(), 1, "mesh peers are one hop");
                    assert_eq!(t.peer_route(p, q), t.peer_route(q, p), "shared medium");
                }
            }
        }
        // Peer routes avoid the backbone.
        let backbone = t.route(0, 0)[1];
        assert!(!t.peer_route(0, 3).contains(&backbone));
    }

    #[test]
    fn mesh_of_one_is_two_tier() {
        let mesh = Topology::mesh(1, 40.0, 80.0, 30.0);
        assert_eq!(mesh.links().len(), 2);
        assert!(mesh.is_peer_meshed(), "vacuously meshed");
    }

    #[test]
    fn ring_routes_take_the_shorter_arc() {
        let t = Topology::ring(5, 40.0, 80.0, 30.0);
        // backbone + 5 access + 5 ring segments.
        assert_eq!(t.links().len(), 1 + 5 + 5);
        assert!(t.is_peer_meshed());
        assert_eq!(t.peer_route(0, 1).len(), 1);
        assert_eq!(t.peer_route(0, 2).len(), 2);
        assert_eq!(t.peer_route(0, 3).len(), 2, "counter-clockwise is shorter");
        assert_eq!(t.peer_route(0, 4).len(), 1);
        // Adjacent pairs share their segment in both directions.
        assert_eq!(t.peer_route(1, 2), t.peer_route(2, 1));
    }

    #[test]
    fn two_proxy_ring_is_a_single_segment() {
        let t = Topology::ring(2, 40.0, 80.0, 30.0);
        assert_eq!(t.links().len(), 1 + 2 + 1);
        assert_eq!(t.peer_route(0, 1), t.peer_route(1, 0));
        assert_eq!(t.peer_route(0, 1).len(), 1);
    }

    #[test]
    fn classic_layouts_have_no_peer_paths() {
        assert!(!Topology::two_tier(3, 50.0, 80.0).is_peer_meshed());
        assert!(!Topology::star(3, 50.0).has_peer_path(0, 1));
    }

    #[test]
    #[should_panic]
    fn self_peer_route_panics() {
        let mut b = Topology::builder(2, 1);
        let l = b.add_link("x", 10.0, Discipline::ProcessorSharing);
        b.route(0, 0, &[l]);
        b.route(1, 0, &[l]);
        b.peer_route(0, 0, &[l]);
    }

    #[test]
    #[should_panic]
    fn missing_route_panics() {
        let mut b = Topology::builder(2, 1);
        let l = b.add_link("only", 10.0, Discipline::ProcessorSharing);
        b.route(0, 0, &[l]);
        b.build(); // proxy 1 has no route
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_panics() {
        let mut b = Topology::builder(1, 1);
        b.add_link("bad", 0.0, Discipline::ProcessorSharing);
    }

    #[test]
    #[should_panic]
    fn negative_latency_panics() {
        let mut b = Topology::builder(1, 1);
        b.add_link_latency("bad", 10.0, -0.1, Discipline::ProcessorSharing);
    }

    #[test]
    fn classic_layouts_have_zero_latency() {
        for t in [
            Topology::single(50.0),
            Topology::two_tier(3, 60.0, 100.0),
            Topology::mesh(4, 40.0, 80.0, 30.0),
        ] {
            assert!(!t.has_latency());
            for l in 0..t.links().len() {
                assert_eq!(t.entry_latency(l), 0.0);
            }
        }
    }

    #[test]
    fn latency_mesh_matches_flat_mesh_shape() {
        let lat = Topology::mesh_with_latency(4, 40.0, 80.0, 30.0, 0.02);
        let flat = Topology::mesh(4, 40.0, 80.0, 30.0);
        assert!(lat.has_latency());
        assert_eq!(lat.links().len(), flat.links().len());
        for (a, b) in lat.links().iter().zip(flat.links()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.bandwidth, b.bandwidth);
            assert_eq!(a.latency, 0.02);
        }
        for p in 0..4 {
            assert_eq!(lat.route(p, 0), flat.route(p, 0));
            // Origin responses return over access + backbone: 2 hops.
            assert_eq!(lat.return_latency(lat.route(p, 0)), 0.04);
            for q in 0..4 {
                if p != q {
                    assert_eq!(lat.peer_route(p, q), flat.peer_route(p, q));
                    assert_eq!(lat.return_latency(lat.peer_route(p, q)), 0.02);
                }
            }
        }
    }

    #[test]
    fn shard_plan_clamps_to_proxy_count_and_keeps_private_links_local() {
        let t = Topology::sharded_origin(3, 2, 40.0, 80.0);
        let plan = ShardPlan::partition(&t, 8);
        assert_eq!(plan.n_shards(), 3, "clamped to the proxy count");
        for p in 0..3 {
            let uplink = t.route(p, 0)[0];
            assert_eq!(plan.link_shard(uplink), plan.proxy_shard(p));
        }
        // Zero-latency topology: any crossing handoff has zero delay.
        assert_eq!(plan.lookahead(), 0.0);
        // The single-shard plan crosses nothing at all.
        let solo = ShardPlan::partition(&t, 1);
        assert_eq!(solo.lookahead(), f64::INFINITY);
        assert_eq!(solo.edge_cut(&t), 0);
    }

    /// One canonical topology's expected contents, written out: every
    /// link as `(name, bandwidth, latency)` (all processor sharing), the
    /// route of every `(proxy, shard)` slot, the peer route of every
    /// ordered proxy pair (empty = no path) and the bottleneck of every
    /// route.
    struct Want {
        links: Vec<(String, f64, f64)>,
        routes: Vec<Vec<usize>>,
        peers: Vec<Vec<usize>>,
        bottleneck: f64,
    }

    fn no_peers(n: usize) -> Vec<Vec<usize>> {
        vec![Vec::new(); n * n]
    }

    /// `two_tier`'s links and routes: backbone 0, `access[p]` = 1 + p.
    fn two_tier_want(n: usize, access: f64, backbone: f64, latency: f64) -> Want {
        let mut links = vec![("backbone".to_string(), backbone, latency)];
        links.extend((0..n).map(|p| (format!("access[{p}]"), access, latency)));
        let routes = (0..n).map(|p| vec![1 + p, 0]).collect();
        Want { links, routes, peers: no_peers(n), bottleneck: access.min(backbone) }
    }

    /// `mesh_with_latency`: the two-tier links, then `peer[p-q]` for
    /// `p < q` in lexicographic order, one hop each way.
    fn mesh_want(n: usize, latency: f64) -> Want {
        let mut want = two_tier_want(n, 40.0, 80.0, latency);
        let mut peers = no_peers(n);
        for p in 0..n {
            for q in p + 1..n {
                let id = want.links.len();
                want.links.push((format!("peer[{p}-{q}]"), 30.0, latency));
                peers[p * n + q] = vec![id];
                peers[q * n + p] = vec![id];
            }
        }
        want.peers = peers;
        want
    }

    /// `ring`: the two-tier links, then `ring[i]` joining `i` and
    /// `(i+1) mod n` (one segment for two proxies); peer routes take the
    /// shorter arc, clockwise on ties.
    fn ring_want(n: usize) -> Want {
        let mut want = two_tier_want(n, 40.0, 80.0, 0.0);
        let segments = match n {
            1 => 0,
            2 => 1,
            _ => n,
        };
        let first = want.links.len();
        want.links.extend((0..segments).map(|i| (format!("ring[{i}]"), 30.0, 0.0)));
        for p in 0..n {
            for q in 0..n {
                let cw = (q + n - p) % n;
                let path = if p == q {
                    Vec::new()
                } else if cw <= n - cw {
                    (0..cw).map(|i| first + (p + i) % n % segments).collect()
                } else {
                    (1..=n - cw).map(|i| first + (p + n - i) % n % segments).collect()
                };
                want.peers[p * n + q] = path;
            }
        }
        want
    }

    fn assert_layout(t: &Topology, want: &Want, label: &str) {
        let n = t.n_proxies();
        assert_eq!(t.links().len(), want.links.len(), "{label}: link count");
        for (l, (link, (name, bandwidth, latency))) in t.links().iter().zip(&want.links).enumerate()
        {
            assert_eq!(link.name.to_string(), *name, "{label}: link {l} name");
            assert_eq!(link.bandwidth, *bandwidth, "{label}: {name} bandwidth");
            assert_eq!(link.latency, *latency, "{label}: {name} latency");
            assert_eq!(link.discipline, Discipline::ProcessorSharing, "{label}: {name}");
        }
        assert_eq!(want.routes.len(), n * t.n_shards(), "{label}: route slots");
        for p in 0..n {
            for s in 0..t.n_shards() {
                let route = &want.routes[p * t.n_shards() + s];
                assert_eq!(t.route(p, s), route.as_slice(), "{label}: route ({p}, {s})");
                assert_eq!(t.bottleneck(p, s), want.bottleneck, "{label}: bottleneck ({p}, {s})");
            }
            for q in 0..n {
                let peer = &want.peers[p * n + q];
                assert_eq!(t.has_peer_path(p, q), !peer.is_empty(), "{label}: path ({p}, {q})");
                if !peer.is_empty() {
                    assert_eq!(t.peer_route(p, q), peer.as_slice(), "{label}: peer ({p}, {q})");
                }
            }
        }
        let meshed = (0..n * n).all(|i| i / n == i % n || !want.peers[i].is_empty());
        assert_eq!(t.is_peer_meshed(), meshed, "{label}: is_peer_meshed");
    }

    #[test]
    fn canonical_layouts_are_pinned() {
        let single = Want {
            links: vec![("path".into(), 50.0, 0.0)],
            routes: vec![vec![0]],
            peers: no_peers(1),
            bottleneck: 50.0,
        };
        assert_layout(&Topology::single(50.0), &single, "single");
        for n in [1, 2, 5, 16] {
            let star = Want {
                links: (0..n).map(|p| (format!("uplink[{p}]"), 25.0, 0.0)).collect(),
                routes: (0..n).map(|p| vec![p]).collect(),
                peers: no_peers(n),
                bottleneck: 25.0,
            };
            assert_layout(&Topology::star(n, 25.0), &star, &format!("star({n})"));
            let two_tier = two_tier_want(n, 60.0, 100.0, 0.0);
            assert_layout(
                &Topology::two_tier(n, 60.0, 100.0),
                &two_tier,
                &format!("two_tier({n})"),
            );
            for k in 1..=3 {
                // `shard[s]` = s first, then `uplink[p]` = k + p.
                let mut links: Vec<_> =
                    (0..k).map(|s| (format!("shard[{s}]"), 80.0, 0.0)).collect();
                links.extend((0..n).map(|p| (format!("uplink[{p}]"), 40.0, 0.0)));
                let routes = (0..n * k).map(|i| vec![k + i / k, i % k]).collect();
                let sharded = Want { links, routes, peers: no_peers(n), bottleneck: 40.0 };
                let t = Topology::sharded_origin(n, k, 40.0, 80.0);
                assert_layout(&t, &sharded, &format!("sharded_origin({n}, {k})"));
            }
            let mesh = Topology::mesh(n, 40.0, 80.0, 30.0);
            assert_layout(&mesh, &mesh_want(n, 0.0), &format!("mesh({n})"));
            let lat = Topology::mesh_with_latency(n, 40.0, 80.0, 30.0, 0.02);
            assert_layout(&lat, &mesh_want(n, 0.02), &format!("mesh_with_latency({n})"));
            assert_layout(
                &Topology::ring(n, 40.0, 80.0, 30.0),
                &ring_want(n),
                &format!("ring({n})"),
            );
        }

        // Spot values written out in full, for the formulas above.
        let mesh = Topology::mesh(5, 40.0, 80.0, 30.0);
        assert_eq!(mesh.links()[6].name.to_string(), "peer[0-1]");
        assert_eq!(mesh.peer_route(4, 3), &[15], "peer[3-4] is the last link");
        assert_eq!(mesh.peer_route(2, 0), &[7]);
        let ring = Topology::ring(5, 40.0, 80.0, 30.0);
        assert_eq!(ring.peer_route(0, 2), &[6, 7]);
        assert_eq!(ring.peer_route(0, 3), &[10, 9]);
        assert_eq!(ring.peer_route(3, 0), &[9, 10]);
        assert_eq!(ring.peer_route(4, 1), &[10, 6]);
        assert_eq!(ring.peer_route(1, 4), &[6, 10]);
        assert_eq!(Topology::ring(2, 40.0, 80.0, 30.0).peer_route(1, 0), &[3]);
        let sharded = Topology::sharded_origin(2, 3, 40.0, 80.0);
        assert_eq!(sharded.route(1, 2), &[4, 2]);
    }

    #[test]
    #[should_panic(expected = "no peer route from proxy 0 to proxy 1")]
    fn peerless_topology_has_no_peer_route() {
        Topology::two_tier(2, 60.0, 100.0).peer_route(0, 1);
    }

    #[test]
    fn link_names_print_like_text() {
        let mut b = Topology::builder(1, 1);
        let wan = b.add_link(String::from("wan"), 10.0, Discipline::Fifo);
        let lan = b.add_link("lan", 20.0, Discipline::ProcessorSharing);
        b.route(0, 0, &[wan, lan]);
        let custom = b.build();
        let mesh = Topology::mesh(3, 40.0, 80.0, 30.0);
        let [backbone, access, peer] = [0, 1, 4].map(|l| &mesh.links()[l].name);

        // `{:<10}` pads every kind of name as it pads a `str`.
        assert_eq!(format!("{:<10}|", custom.links()[wan].name), "wan       |");
        assert_eq!(format!("{:>5}|", custom.links()[lan].name), "  lan|");
        assert_eq!(format!("{:<10}|", backbone), "backbone  |");
        assert_eq!(format!("{:<10}|", access), "access[0] |");
        assert_eq!(format!("{:^11}|", peer), " peer[0-1] |");
        assert_eq!(format!("{:.4}", peer), "peer");
        assert_eq!(format!("{peer} {peer:?}"), "peer[0-1] \"peer[0-1]\"");

        // Equality with a `str` compares the rendered text.
        assert_eq!(peer, "peer[0-1]");
        assert_ne!(peer, "peer[0-10]");
        assert_ne!(access, "access[00]");
        assert_ne!(access, "access[0");
        assert_eq!(&custom.links()[wan].name, "wan");
        assert_ne!(*access, mesh.links()[2].name);
        assert_eq!(*backbone, LinkName::from(String::from("backbone")));
    }

    /// Every canonical layout, plus a builder-made one, at several sizes.
    fn canonical() -> Vec<Topology> {
        let mut all = vec![Topology::single(50.0)];
        for n in [1, 2, 5, 16] {
            all.extend([
                Topology::star(n, 25.0),
                Topology::two_tier(n, 60.0, 100.0),
                Topology::sharded_origin(n, 3, 40.0, 80.0),
                Topology::mesh(n, 40.0, 80.0, 30.0),
                Topology::mesh_with_latency(n, 40.0, 80.0, 30.0, 0.02),
                Topology::ring(n, 40.0, 80.0, 30.0),
            ]);
        }
        all
    }

    #[test]
    fn one_shard_plan_is_the_walked_cut() {
        for t in canonical() {
            let direct = ShardPlan::partition(&t, 1);
            let walked = ShardPlan::cut(&t, 1);
            assert_eq!(direct.n_shards, walked.n_shards);
            assert_eq!(direct.proxy_shard, walked.proxy_shard);
            assert_eq!(direct.link_shard, walked.link_shard);
            assert_eq!(direct.lookahead, walked.lookahead);
            assert_eq!(direct.edge_cut(&t), 0);
            if t.n_proxies() == 1 {
                // Any shard count clamps to the one-shard plan.
                assert_eq!(ShardPlan::partition(&t, 4).lookahead(), f64::INFINITY);
            }
        }
    }

    #[test]
    fn builder_keeps_the_latest_route() {
        let mut b = Topology::builder(3, 1);
        let up = b.add_link("up", 10.0, Discipline::ProcessorSharing);
        let ring: Vec<usize> =
            (0..3).map(|i| b.add_link(format!("r{i}"), 5.0, Discipline::Fifo)).collect();
        for p in 0..3 {
            b.route(p, 0, &[up]);
        }
        b.peer_route(0, 1, &[ring[0], ring[1]]);
        b.peer_route(2, 0, &[ring[2]]);
        b.peer_route(0, 1, &[ring[0]]);
        let t = b.build();
        assert_eq!(t.peer_route(0, 1), &[ring[0]]);
        assert_eq!(t.peer_route(2, 0), &[ring[2]]);
        assert!(!t.has_peer_path(1, 0) && !t.is_peer_meshed());
        // The replaced route left no ids behind.
        assert_eq!(t.peer_routes.ids, [ring[0], ring[2]]);
        assert_eq!(&t.links()[ring[1]].name, "r1");
    }
}
