//! Cluster topologies: proxies, origin shards, and the links between them.
//!
//! A [`Topology`] is a bipartite routing structure: `P` edge proxies (each
//! fronting a client population) fetch from `S` origin shards, and every
//! `(proxy, shard)` pair is assigned a *route* — an ordered path of links a
//! fetch traverses. Links are the queueing resources: each one becomes a
//! processor-sharing (or FIFO) server with its own bandwidth in
//! [`crate::ClusterSim`].
//!
//! Three canonical layouts are provided, spanning the shapes the scaling
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
//!   links, items hash-partitioned across shards: the scale-out layout.

/// A directed link with a fixed capacity and queueing discipline.
#[derive(Clone, Debug, PartialEq)]
pub struct Link {
    /// Human-readable name used in reports (e.g. `"uplink[2]"`).
    pub name: String,
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

/// Queueing discipline of one link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// Processor sharing — the paper's model (insensitive to size dist).
    ProcessorSharing,
    /// First-in-first-out — the ablation discipline.
    Fifo,
}

/// A multi-node layout: links plus a route for every `(proxy, shard)` pair,
/// and optionally a peer route for every ordered `(proxy, proxy)` pair.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    n_proxies: usize,
    n_shards: usize,
    links: Vec<Link>,
    /// `routes[p * n_shards + s]` = ordered link indices from proxy `p` to
    /// shard `s`.
    routes: Vec<Vec<usize>>,
    /// `peer_routes[p * n_proxies + q]` = ordered link indices from proxy
    /// `p` to proxy `q`; empty when the pair has no peer path (the
    /// cooperative engine requires one for every pair).
    peer_routes: Vec<Vec<usize>>,
}

impl Topology {
    /// Starts an empty custom topology; see [`TopologyBuilder`].
    pub fn builder(n_proxies: usize, n_shards: usize) -> TopologyBuilder {
        assert!(n_proxies > 0 && n_shards > 0);
        TopologyBuilder {
            n_proxies,
            n_shards,
            links: Vec::new(),
            routes: vec![Vec::new(); n_proxies * n_shards],
            peer_routes: vec![Vec::new(); n_proxies * n_proxies],
        }
    }

    /// One proxy, one shard, one PS link of the given bandwidth — the
    /// paper's single shared path.
    pub fn single(bandwidth: f64) -> Topology {
        let mut b = Topology::builder(1, 1);
        let l = b.add_link("path", bandwidth, Discipline::ProcessorSharing);
        b.route(0, 0, vec![l]);
        b.build()
    }

    /// `n_proxies` proxies, each with a private PS uplink of
    /// `uplink_bandwidth` to a single origin.
    pub fn star(n_proxies: usize, uplink_bandwidth: f64) -> Topology {
        let mut b = Topology::builder(n_proxies, 1);
        for p in 0..n_proxies {
            let l =
                b.add_link(format!("uplink[{p}]"), uplink_bandwidth, Discipline::ProcessorSharing);
            b.route(p, 0, vec![l]);
        }
        b.build()
    }

    /// Private access links feeding one shared backbone to a single origin.
    pub fn two_tier(n_proxies: usize, access_bandwidth: f64, backbone_bandwidth: f64) -> Topology {
        let mut b = Topology::builder(n_proxies, 1);
        let backbone = b.add_link("backbone", backbone_bandwidth, Discipline::ProcessorSharing);
        for p in 0..n_proxies {
            let l =
                b.add_link(format!("access[{p}]"), access_bandwidth, Discipline::ProcessorSharing);
            b.route(p, 0, vec![l, backbone]);
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
                b.add_link(format!("shard[{s}]"), shard_bandwidth, Discipline::ProcessorSharing)
            })
            .collect();
        for p in 0..n_proxies {
            let up =
                b.add_link(format!("uplink[{p}]"), uplink_bandwidth, Discipline::ProcessorSharing);
            for (s, &sl) in shard_links.iter().enumerate() {
                b.route(p, s, vec![up, sl]);
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
        let backbone = b.add_link_latency(
            "backbone",
            backbone_bandwidth,
            latency,
            Discipline::ProcessorSharing,
        );
        for p in 0..n_proxies {
            let l = b.add_link_latency(
                format!("access[{p}]"),
                access_bandwidth,
                latency,
                Discipline::ProcessorSharing,
            );
            b.route(p, 0, vec![l, backbone]);
        }
        for p in 0..n_proxies {
            for q in p + 1..n_proxies {
                let l = b.add_link_latency(
                    format!("peer[{p}-{q}]"),
                    peer_bandwidth,
                    latency,
                    Discipline::ProcessorSharing,
                );
                b.peer_route(p, q, vec![l]);
                b.peer_route(q, p, vec![l]);
            }
        }
        b.build()
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
            let l =
                b.add_link(format!("access[{p}]"), access_bandwidth, Discipline::ProcessorSharing);
            b.route(p, 0, vec![l, backbone]);
        }
        if n_proxies >= 2 {
            // `ring_links[p]` joins p and (p+1) mod n; with two proxies the
            // cycle collapses to a single link.
            let segments = if n_proxies == 2 { 1 } else { n_proxies };
            let ring_links: Vec<usize> = (0..segments)
                .map(|p| {
                    b.add_link(format!("ring[{p}]"), peer_bandwidth, Discipline::ProcessorSharing)
                })
                .collect();
            for p in 0..n_proxies {
                for q in 0..n_proxies {
                    if p == q {
                        continue;
                    }
                    let clockwise = (q + n_proxies - p) % n_proxies;
                    let path: Vec<usize> = if clockwise <= n_proxies - clockwise {
                        (0..clockwise).map(|i| ring_links[(p + i) % segments]).collect()
                    } else {
                        (0..n_proxies - clockwise)
                            .map(|i| ring_links[(p + n_proxies - 1 - i) % segments])
                            .collect()
                    };
                    b.peer_route(p, q, path);
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
        &self.routes[proxy * self.n_shards + shard]
    }

    /// The link path a peer fetch from proxy `p` to proxy `q` traverses.
    /// Panics when the pair has no peer path (see
    /// [`Topology::has_peer_path`]).
    pub fn peer_route(&self, p: usize, q: usize) -> &[usize] {
        let r = &self.peer_routes[p * self.n_proxies + q];
        assert!(!r.is_empty(), "no peer route from proxy {p} to proxy {q}");
        r
    }

    /// Whether proxies `p` and `q` have a peer path (`p == q` has none).
    pub fn has_peer_path(&self, p: usize, q: usize) -> bool {
        p != q && !self.peer_routes[p * self.n_proxies + q].is_empty()
    }

    /// Whether every ordered proxy pair has a peer path — the property
    /// the cooperative workload requires.
    pub fn is_peer_meshed(&self) -> bool {
        (0..self.n_proxies).all(|p| (0..self.n_proxies).all(|q| p == q || self.has_peer_path(p, q)))
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
/// so the driver runs it on the calling thread, one window per boundary
/// interval.
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
        let n_proxies = topology.n_proxies();
        let n_shards = shards.min(n_proxies);

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
        let mut use_count = vec![vec![0u32; n_shards]; topology.links().len()];
        let mut count_route = |route: &[usize], proxy: usize| {
            for &l in route {
                use_count[l][proxy_shard[proxy] as usize] += 1;
            }
        };
        for p in 0..n_proxies {
            for s in 0..topology.n_shards() {
                count_route(topology.route(p, s), p);
            }
            for q in 0..n_proxies {
                if topology.has_peer_path(p, q) {
                    count_route(topology.peer_route(p, q), p);
                }
            }
        }
        let link_shard: Vec<u32> = use_count
            .iter()
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
            for q in 0..topology.n_proxies() {
                if topology.has_peer_path(p, q) {
                    // Peer fetches are checked at q, then answered to p.
                    walk(topology.peer_route(p, q), p, self.proxy_shard[q]);
                }
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
        let mut mark = |route: &[usize], proxy: usize| {
            for &l in route {
                if self.link_shard[l] != self.proxy_shard[proxy] {
                    cut[l] = true;
                }
            }
        };
        for p in 0..topology.n_proxies() {
            for s in 0..topology.n_shards() {
                mark(topology.route(p, s), p);
            }
            for q in 0..topology.n_proxies() {
                if topology.has_peer_path(p, q) {
                    mark(topology.peer_route(p, q), p);
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
    routes: Vec<Vec<usize>>,
    peer_routes: Vec<Vec<usize>>,
}

impl TopologyBuilder {
    /// Registers a zero-latency link; returns its index for use in routes.
    pub fn add_link(
        &mut self,
        name: impl Into<String>,
        bandwidth: f64,
        discipline: Discipline,
    ) -> usize {
        self.add_link_latency(name, bandwidth, 0.0, discipline)
    }

    /// Registers a link with a propagation `latency`; returns its index.
    pub fn add_link_latency(
        &mut self,
        name: impl Into<String>,
        bandwidth: f64,
        latency: f64,
        discipline: Discipline,
    ) -> usize {
        assert!(bandwidth > 0.0 && bandwidth.is_finite(), "link bandwidth must be positive");
        assert!(latency >= 0.0 && latency.is_finite(), "link latency must be non-negative");
        self.links.push(Link { name: name.into(), bandwidth, latency, discipline });
        self.links.len() - 1
    }

    /// Sets the route for `(proxy, shard)`.
    pub fn route(&mut self, proxy: usize, shard: usize, links: Vec<usize>) -> &mut Self {
        assert!(proxy < self.n_proxies && shard < self.n_shards, "route endpoint out of range");
        assert!(!links.is_empty(), "route must traverse at least one link");
        for &l in &links {
            assert!(l < self.links.len(), "route references unknown link {l}");
        }
        self.routes[proxy * self.n_shards + shard] = links;
        self
    }

    /// Sets the peer route from proxy `p` to proxy `q` (one direction;
    /// call twice for a symmetric pair).
    pub fn peer_route(&mut self, p: usize, q: usize, links: Vec<usize>) -> &mut Self {
        assert!(p < self.n_proxies && q < self.n_proxies, "peer route endpoint out of range");
        assert!(p != q, "a proxy needs no route to itself");
        assert!(!links.is_empty(), "peer route must traverse at least one link");
        for &l in &links {
            assert!(l < self.links.len(), "peer route references unknown link {l}");
        }
        self.peer_routes[p * self.n_proxies + q] = links;
        self
    }

    /// Validates completeness and freezes the topology.
    pub fn build(self) -> Topology {
        for p in 0..self.n_proxies {
            for s in 0..self.n_shards {
                assert!(
                    !self.routes[p * self.n_shards + s].is_empty(),
                    "no route from proxy {p} to shard {s}"
                );
            }
        }
        Topology {
            n_proxies: self.n_proxies,
            n_shards: self.n_shards,
            links: self.links,
            routes: self.routes,
            peer_routes: self.peer_routes,
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
        b.route(0, 0, vec![l]);
        b.route(1, 0, vec![l]);
        b.peer_route(0, 0, vec![l]);
    }

    #[test]
    #[should_panic]
    fn missing_route_panics() {
        let mut b = Topology::builder(2, 1);
        let l = b.add_link("only", 10.0, Discipline::ProcessorSharing);
        b.route(0, 0, vec![l]);
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
}
