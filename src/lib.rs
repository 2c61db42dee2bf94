//! # speculative-prefetch
//!
//! A full reproduction of
//!
//! > N. J. Tuah, M. Kumar, S. Venkatesh,
//! > *"Effect of Speculative Prefetching on Network Load in Distributed
//! > Systems"*, IPDPS 2001,
//!
//! as a production-quality Rust workspace: the paper's analytical models,
//! every substrate they assume (queueing, caches, predictors, workloads, a
//! discrete-event simulator), and an experiment harness that regenerates
//! every figure.
//!
//! This crate is the facade: it re-exports the workspace crates under one
//! name and hosts the runnable examples and the cross-crate integration
//! tests.
//!
//! ## The sixty-second version
//!
//! Prefetching an item that will be used with probability `p` *helps* the
//! average access time **iff `p` exceeds the server utilisation** the
//! system would have without prefetching:
//!
//! ```
//! use speculative_prefetch::prelude::*;
//!
//! // λ = 30 req/s, bandwidth 50, mean item size 1, no-prefetch hit ratio 0.3.
//! let params = SystemParams::new(30.0, 50.0, 1.0, 0.3).unwrap();
//! assert!((params.rho_prime() - 0.42).abs() < 1e-12);
//!
//! // The optimal policy: prefetch *exactly* the candidates above ρ′.
//! let policy = ThresholdPolicy::from_model_a(&params);
//! assert!(policy.should_prefetch(0.9)); // p = 0.9 clears 0.42
//! assert!(!policy.should_prefetch(0.1));
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`core`] | `prefetch-core` | the paper's equations: Models A/B/AB, thresholds, `G`, `C`, §4 estimator, adaptive controller |
//! | [`queueing`] | `queueing` | M/G/1-PS theory + PS/RR/FIFO server simulations + the pooled PS/FIFO server table the cluster's links run on |
//! | [`simcore`] | `simcore` | indexed event scheduler (`sched`), PRNG, distributions, statistics, faults, observability |
//! | [`workload`] | `workload` | catalogs, arrival processes, Markov streams, traces |
//! | [`cachesim`] | `cachesim` | LRU/LFU/FIFO/CLOCK/random caches + §4 tagging |
//! | [`predictor`] | `predictor` | Markov/PPM/LZ78/dependency-graph/oracle predictors |
//! | [`netsim`] | `netsim` | parametric + trace-driven end-to-end simulators |
//! | [`cluster`] | `cluster` | multi-node network-of-queues simulator (topologies, per-link `ρ`, per-node adaptive control, cooperative mode) |
//! | [`coop`] | `coop` | cooperative caching: consistent-hash placement, Bloom digests + incremental delta exchange, peer/origin routing |
//! | [`harness`] | `harness` | the `harness` binary: experiment reports E1–E22 (figures + validation + cluster + cooperation + scale + digest deltas + observability + delayed hits + trace replay + fault injection) |
//!
//! ## Scaling out: the `cluster` layer
//!
//! The paper's "distributed system" is one shared path; [`cluster`] makes
//! it an actual network. A [`cluster::Topology`] places edge proxies in
//! front of sharded origins with per-link bandwidths (star, two-tier tree,
//! sharded-origin, or peer-meshed layouts), every link runs as its own
//! PS/FIFO queue, and every proxy hosts a cache plus — in adaptive mode —
//! its own online threshold controller. The degenerate one-proxy topology
//! reproduces `netsim::parametric` *exactly* (pinned by test to 1e-6), so
//! cluster results stay anchored to the validated single-path models;
//! experiment E13 (`cargo run --release -p harness -- cluster`) and
//! `examples/edge_cluster.rs` show per-proxy thresholds diverging with
//! local load — the paper's rule, applied node by node, needs no
//! coordination.
//!
//! ## Cooperating at the edge: the `coop` layer
//!
//! With several proxies fronting one origin, every proxy pulls its misses
//! over the backbone even when a sibling already holds the object. The
//! [`coop`] crate removes that redundancy: a consistent-hash ring with
//! virtual nodes places keys ([`coop::Placement`], optionally migrating
//! virtual nodes off hot proxies when per-proxy `ρ̂′` diverges), Bloom
//! digests summarise each cache on a configurable epoch
//! ([`coop::DigestConfig`], with staleness-induced false hits modelled),
//! and a [`coop::Router`] resolves every miss/prefetch to a peer or the
//! origin. `cluster::Workload::Cooperative` runs it over
//! [`cluster::Topology::mesh`]/[`cluster::Topology::ring`] peer links:
//! experiment E14 (`cargo run --release -p harness -- coop`) and
//! `examples/coop_mesh.rs` show backbone bytes dropping at equal hit
//! ratio, and a single-proxy cooperative run reproducing plain adaptive
//! mode to 1e-6.
//!
//! ## Scaling the event loop: `simcore::sched`
//!
//! Both cluster engines run on [`simcore::sched::Scheduler`], an indexed
//! event queue: a 4-ary min-heap over a fixed key space with one timer
//! per event stream — a departure timer per link (re-armed from the
//! link's [`queueing::ServerTable`] row only when its stale flag says the
//! next departure may have moved), a queued-arrival timer
//! per link, and per proxy a peer-check (cooperative model only),
//! delivery, request, prefetch and fetch-failure timer. The heap holds
//! one entry per armed timer, and a position table lets a re-arm or
//! cancel move that entry in place, so no stale entry is ever popped; a
//! pop walks the hole from the root to a leaf along the smaller children
//! and refills it from below. Every event costs O(log n) instead of the
//! former O(links + proxies) scan. The payloads a timer delivers wait in
//! that stream's queue of a [`simcore::sched::TimedQueues`] family: one
//! sorted list per link or proxy, keyed by `(time, id)`, that appends the
//! in-order pushes fixed-latency links produce, with every list of the
//! family threaded through one pooled node array, so an idle link holds
//! no allocation. The jobs in service wait the same way, in the link
//! server table's pooled pairing heaps ([`simcore::sched::TimedHeaps`]).
//! Simultaneous events fire in ascending key
//! order, which keeps runs bit-deterministic (pinned by old-vs-new engine
//! parity tests against the retired scan driver in `cluster::legacy`).
//! Digest refreshes and boundary faults are not timers: the shard drivers
//! stop at them between events. A one-shard run drains its scheduler
//! straight up to the next such boundary; only several shards need the
//! cross-shard merge or the conservative windows. Experiment E15
//! (`cargo run --release -p harness -- scale`) sweeps 64/128/256-proxy peer
//! meshes — ~32k queueing links at the top end — on that core.
//!
//! ## Deltas on the wire: incremental digests + byte-addressed caches
//!
//! With the event loop indexed, the remaining per-epoch cost was the
//! digest exchange itself: every boundary rebuilt and shipped every
//! proxy's whole Bloom summary — O(proxies × capacity) in work and
//! bytes. The [`coop`] layer now defaults to **incremental digest
//! deltas** ([`coop::RefreshStrategy::Deltas`]): proxies accumulate one
//! [`coop::DeltaOp`] per cache change and ship only that stream; the
//! router maintains counting-Bloom [`coop::DeltaDigest`]s whose
//! membership answers are provably identical to a from-scratch rebuild
//! (proptested in `coop`, and pinned to 1e-12 whole-`ClusterReport`
//! parity in `cluster/tests/delta_parity.rs` — the full-rebuild path
//! survives as the oracle, mirroring `cluster::legacy`). Caches are also
//! **byte-addressed** now: `cachesim`'s [`cachesim::ByteCapacity`] trait
//! adds a byte budget with multi-victim eviction, `cluster`'s
//! `AdaptiveWorkload::cache_bytes` turns it on, and occupancy,
//! goodput/badput, and digest traffic all come out denominated in the
//! paper's unit — bytes. Experiment E16 (`cargo run --release -p harness --
//! delta`) sweeps both refresh protocols across the E15 fabrics and
//! prints each run's wall time to stderr; the traced run of the
//! `perfbench/` benchmark times the router's delta apply against a full
//! rebuild on the run's own churn (`coop.refresh_ns_per_epoch.*`). A
//! third strategy, [`coop::RefreshStrategy::Auto`], is the compaction
//! fallback: each proxy ships whichever of the two forms is cheaper that
//! boundary (crossover at `capacity · bits / 8 / 9` ops), with
//! [`coop::RouterStats`] metering which side fired.
//!
//! ## Sharded parallel event loops: conservative time windows
//!
//! The event loop itself now shards across threads:
//! [`cluster::ClusterSim::run_sharded`] partitions the topology with
//! [`cluster::ShardPlan`] (contiguous proxy blocks, majority-use link
//! assignment), gives each shard its own `simcore::sched` scheduler and
//! per-proxy RNG streams ([`simcore::rng::stream_seed`]), and
//! synchronises the shards with conservative time windows: the lookahead
//! is the minimum propagation delay of any cross-shard handoff (per-link
//! [`cluster::Link::latency`], e.g.
//! [`cluster::Topology::mesh_with_latency`]), in-flight transfers cross
//! shards as timestamped effects through `simcore::par::Mailboxes`, and
//! digest refreshes are barrier-applied payload flushes
//! ([`coop::Router::apply_payloads`]). The contract is bit-identical
//! reports across shard counts *and* against the one-shard run — a single
//! driver runs every plan, a one-shard plan on the calling thread, and
//! zero-latency topologies (lookahead 0) run their multi-shard cuts as the
//! one-shard plan, so sharding never changes an answer anywhere (pinned by
//! the parity matrix, `cluster/tests/shard_parity.rs`). Experiment E17
//! (`cargo run --release -p harness -- shard`) runs the strong-scaling ladder
//! over 256- and 512-proxy latency meshes (~32k and ~131k PS links) and
//! records each rung's wall time and `speedup_vs_1shard` in section
//! `e17_strong_scaling` of `OBS_cluster.json`; `perfbench/`'s
//! `coop_mesh_2shards` workload reports `shard.speedup_2v1` beside its
//! window-drain and barrier-wait times.
//!
//! ## Observability: metrics, probes, and the runtime profiler
//!
//! Every run can now explain itself. [`simcore::obs`] is a deterministic
//! observability layer: a metrics [`simcore::Registry`] (counters,
//! gauges, `Welford`/`Histogram`-backed distributions), time-series
//! probes sampled on the digest-epoch grid, a per-shard runtime profiler
//! ([`simcore::ShardProfile`]: events, window drains, barrier waits,
//! mailbox occupancy, scheduler heap depth), and a bounded
//! [`simcore::FlightRecorder`] ring of recent dispatches and cross-shard
//! effects for diagnosing parity failures. Turn it on with
//! [`cluster::ClusterSim::run_observed`] and a [`simcore::ObsConfig`]:
//!
//! ```
//! use cluster::ClusterSim;
//! use simcore::ObsConfig;
//! # use cluster::{AdaptiveWorkload, CandidateSource, ClusterConfig, ProxyPolicy,
//! #     Topology, Workload};
//! # use workload::synth_web::SynthWebConfig;
//! # let config = ClusterConfig {
//! #     topology: Topology::sharded_origin(2, 2, 45.0, 80.0),
//! #     workload: Workload::Adaptive(AdaptiveWorkload {
//! #         proxies: vec![SynthWebConfig { lambda: 12.0, ..SynthWebConfig::default() }; 2],
//! #         cache_capacity: 32, cache_bytes: None, max_candidates: 3,
//! #         prefetch_jitter: 0.01, policy: ProxyPolicy::Adaptive,
//! #         predictor: CandidateSource::Oracle, shared_structure_seed: None,
//! #         delayed: Default::default(),
//! #     }),
//! #     requests_per_proxy: 400, warmup_per_proxy: 80,
//! # };
//! let obs_cfg = ObsConfig::on().with_sample_every(1.0);
//! let (report, obs) = ClusterSim::new(&config).run_observed(7, 2, &obs_cfg);
//! assert!(obs.registry.counter_value("requests.processed") > 0);
//! assert!(obs.latency_quantile(0.99).is_some());
//! ```
//!
//! Two contracts hold everywhere. **Determinism:** the probes never draw
//! RNG, reorder events, or feed back — the report is bit-identical with
//! observability on or off, at every shard count (the parity matrix,
//! `cluster/tests/shard_parity.rs`); only wall-clock fields differ
//! run-to-run, and they live strictly in the telemetry, never the
//! report. **Zero overhead when off:** with the default
//! [`simcore::ObsConfig::off`] the engines carry a `None` sink and every
//! hook is one branch. Experiment E18 (`cargo run --release -p harness -- obs`)
//! renders the telemetry of a 64-proxy cooperative mesh as an ASCII
//! dashboard (sparkline series via `harness::asciiplot::sparkline`,
//! latency p50/p90/p99, per-shard profiler columns) and writes the
//! machine-readable twin into `OBS_cluster.json` (section `e18_obs`;
//! E17's wall-clock scaling ladder lands in section
//! `e17_strong_scaling`). CI schema-checks the artifact with
//! `harness obs --check` and archives it on every push.
//!
//! ## Tracing: where each request's latency went
//!
//! The metrics layer says how much; [`simcore::trace`] says *where*.
//! Setting [`simcore::ObsConfig::with_trace_every`] head-samples requests
//! and prefetches by a pure hash of their `(proxy, sequence)` coordinates
//! (so the sampling decision is identical under every sharding), records
//! a span at each handler seam — issue, per-hop enqueue/dequeue with the
//! queue/service split at the job's nominal `size / bandwidth` demand,
//! peer-serve check, false-hit redirect, in-flight wait, delivery — and
//! merges the per-shard buffers on the `(trace, seq)` total key. Each
//! trace extracts to a [`simcore::Trace`]: an end-to-end interval tiled
//! by **exclusive segments** (pending-prefetch stall, queue, service,
//! propagation, wait, and the wasted peer leg of a digest false hit), so
//! segment durations sum to the measured latency by construction:
//!
//! ```
//! use cluster::ClusterSim;
//! use simcore::ObsConfig;
//! # use cluster::{AdaptiveWorkload, CandidateSource, ClusterConfig, ProxyPolicy,
//! #     Topology, Workload};
//! # use workload::synth_web::SynthWebConfig;
//! # let config = ClusterConfig {
//! #     topology: Topology::sharded_origin(2, 2, 45.0, 80.0),
//! #     workload: Workload::Adaptive(AdaptiveWorkload {
//! #         proxies: vec![SynthWebConfig { lambda: 12.0, ..SynthWebConfig::default() }; 2],
//! #         cache_capacity: 32, cache_bytes: None, max_candidates: 3,
//! #         prefetch_jitter: 0.01, policy: ProxyPolicy::Adaptive,
//! #         predictor: CandidateSource::Oracle, shared_structure_seed: None,
//! #         delayed: Default::default(),
//! #     }),
//! #     requests_per_proxy: 400, warmup_per_proxy: 80,
//! # };
//! let obs_cfg = ObsConfig::on().with_trace_every(1); // trace every request
//! let (_report, obs) = ClusterSim::new(&config).run_observed(7, 2, &obs_cfg);
//! let store = obs.traces.expect("tracing was on");
//! for trace in &store.traces {
//!     trace.check().unwrap(); // segments tile [start, end] exactly
//!     let residual = (trace.segment_sum() - trace.latency()).abs();
//!     assert!(residual <= 1e-9 * trace.latency().max(1.0));
//! }
//! assert!(store.attribution().iter().any(|a| a.traces > 0));
//! ```
//!
//! The same two contracts hold: reports are bit-identical with tracing
//! on or off, traces are bit-identical across shard counts, and the
//! default `trace_every = 0` costs one branch per seam (the parity
//! matrix, `cluster/tests/shard_parity.rs`, plus proptests in
//! `trace_properties.rs`). Experiment E19 (`cargo run --release -p harness --
//! trace`) renders the per-class latency-attribution table and the top-K
//! slowest traces, writes section `e19_trace` of `OBS_cluster.json`, and
//! exports the span set as Chrome trace-event JSON
//! (`TRACE_cluster.json`, loadable in Perfetto); `harness obs --top-k
//! N` appends the same slowest-traces view to the E18 dashboard. On top
//! of the artifacts sits the regression sentinel (`cargo run --release -p harness
//! -- sentinel`): CI diffs `OBS_cluster.json` against the committed
//! `baselines/`, excluding wall-clock fields by schema, requiring
//! counters exact and floats within 1e-9 (see `baselines/README.md`).
//!
//! ## Delayed hits: misses on keys already in flight
//!
//! At backbone latencies a miss's fetch window spans many later
//! requests, so "hit or miss" stops being binary: a request for a key
//! that is *already being fetched* pays only the residual latency of the
//! outstanding fetch (Atre et al., SIGCOMM 2020). [`cachesim::Mshr`]
//! lifts the hardware Miss Status Holding Register to the simulation —
//! one entry per in-flight key with a FIFO waiter queue, a configurable
//! entry budget with a deterministic full-table policy, and a coalescing
//! switch whose off position is the resolve-each-miss-independently
//! baseline. Both cluster engines consult the table before any fetch
//! ([`cachesim::TaggedCache::probe_via`]), configured per workload by
//! [`cluster::DelayedHitsConfig`]: the default (unbounded, coalescing)
//! reproduces the previous engine behaviour bit-for-bit, and
//! [`cluster::RankingMode::AggregateDelay`] switches eviction from
//! recency to *aggregate delay* — keep the keys whose absence has cost
//! the most total waiting, which beats LRU once fetch windows are long
//! (experiment E20, `cargo run --release -p harness -- delayed`):
//!
//! ```
//! use cluster::{ClusterSim, DelayedHitsConfig};
//! # use cluster::{AdaptiveWorkload, CandidateSource, ClusterConfig, ProxyPolicy,
//! #     Topology, Workload};
//! # use workload::synth_web::SynthWebConfig;
//! # let make = |delayed: DelayedHitsConfig| ClusterConfig {
//! #     // A slow, high-latency backbone: fetch windows span requests.
//! #     topology: Topology::mesh_with_latency(2, 60.0, 12.5, 45.0, 0.08),
//! #     workload: Workload::Adaptive(AdaptiveWorkload {
//! #         proxies: vec![SynthWebConfig { lambda: 26.0, n_items: 160,
//! #             ..SynthWebConfig::default() }; 2],
//! #         cache_capacity: 24, cache_bytes: None, max_candidates: 3,
//! #         prefetch_jitter: 0.01, policy: ProxyPolicy::Adaptive,
//! #         predictor: CandidateSource::Oracle, shared_structure_seed: None,
//! #         delayed,
//! #     }),
//! #     requests_per_proxy: 600, warmup_per_proxy: 120,
//! # };
//! // The same workload with and without coalescing, at the same seed.
//! let coalescing = ClusterSim::new(&make(DelayedHitsConfig::default())).run(7);
//! let independent =
//!     ClusterSim::new(&make(DelayedHitsConfig { coalesce: false, ..Default::default() })).run(7);
//!
//! // Waiters joined in-flight fetches and were settled as delayed hits…
//! assert!(coalescing.delayed_hits() > 0);
//! // …each join is an origin transfer the baseline pays for.
//! assert!(coalescing.origin_fetches() < independent.origin_fetches());
//! assert_eq!(independent.delayed_hits(), 0);
//! ```
//!
//! The per-node aggregates (`delayed_hits`, `coalesced_requests`,
//! `origin_fetches`, `mean_residual_wait`, `mean_waiter_depth`,
//! `mshr_rejections`) land in [`cluster::NodeReport`], roll up on
//! [`cluster::ClusterReport`], and cross-check exactly against the trace
//! layer's `DelayedHit` spans (`cluster/tests/trace_parity.rs`); shard
//! parity holds bit-identically in every MSHR configuration (the MSHR
//! rows of the parity matrix, `cluster/tests/shard_parity.rs`).
//!
//! ## Trace replay: record once, rerun exactly, scale by superposition
//!
//! Every synthetic cluster run can now be captured as a versioned binary
//! `.events` trace and replayed — **bit-identically**. The format is a
//! 16-byte header (magic `PFEV`, version, record count) over the compact
//! 28-byte record layout; [`workload::TraceStream`] decodes it lazily in
//! fixed-size chunks with per-record validation (finite fields,
//! non-decreasing time), so replaying a multi-gigabyte capture holds one
//! chunk resident per proxy, never the trace
//! ([`workload::TraceStream::peak_resident_bytes`] pins the high-water
//! mark). [`cluster::ClusterSim::run_recorded`] attaches the recorder to
//! any workload — recording never draws RNG or reorders events, so the
//! report and the merged trace are identical at every shard count — and
//! [`cluster::Workload::Trace`] drives the closed-loop engine from a
//! [`cluster::TraceSource`] instead of the synthetic web model. Because
//! each proxy's prefetch-jitter RNG splits off before any workload draw
//! and the learned Markov predictor only proposes items the replay has
//! already seen, a replay on the recording topology reproduces the source
//! [`cluster::ClusterReport`] bit-for-bit (derived `PartialEq`, no
//! tolerance — `cluster/tests/replay_parity.rs` pins it, and the parity
//! matrix in `cluster/tests/shard_parity.rs` pins the replay at shard
//! counts 1–4):
//!
//! ```
//! use cluster::{ClusterSim, TraceSource, TraceWorkload, Workload};
//! # use cluster::{AdaptiveWorkload, CandidateSource, ClusterConfig, ProxyPolicy, Topology};
//! # use workload::synth_web::SynthWebConfig;
//! # let workload = AdaptiveWorkload {
//! #     proxies: vec![SynthWebConfig { lambda: 14.0, n_items: 80,
//! #         ..SynthWebConfig::default() }; 2],
//! #     cache_capacity: 24, cache_bytes: None, max_candidates: 3,
//! #     prefetch_jitter: 0.01, policy: ProxyPolicy::Adaptive,
//! #     predictor: CandidateSource::Markov1, // replay needs a learned predictor
//! #     shared_structure_seed: None, delayed: Default::default(),
//! # };
//! # let config = ClusterConfig {
//! #     topology: Topology::mesh_with_latency(2, 60.0, 40.0, 45.0, 0.05),
//! #     workload: Workload::Adaptive(workload.clone()),
//! #     requests_per_proxy: 400, warmup_per_proxy: 80,
//! # };
//! // Record a synthetic run…
//! let (source_report, trace) = ClusterSim::new(&config).run_recorded(7, 2);
//!
//! // …and replay the trace through the same mesh: bit-identical report.
//! let replay_config = ClusterConfig {
//!     topology: config.topology.clone(),
//!     workload: Workload::Trace(TraceWorkload::replaying(
//!         &workload,
//!         TraceSource::from_records(&trace).unwrap(),
//!     )),
//!     requests_per_proxy: config.requests_per_proxy,
//!     warmup_per_proxy: config.warmup_per_proxy,
//! };
//! let (replayed, stats) = ClusterSim::new(&replay_config).run_replayed(7, 2);
//! assert_eq!(replayed, source_report);
//! assert_eq!(stats.records_replayed, trace.len() as u64);
//! ```
//!
//! One capture also scales: [`workload::TraceScaler`] superposes K
//! time-dilated copies with disjoint key spaces (a lazy K-way merge —
//! memory stays O(K × chunk)), modelling K independent populations on a
//! K×-bigger fabric. Experiment E21 (`cargo run --release -p harness -- replay`)
//! runs the whole pipeline — record, write the `.events` sample, scale
//! ×{1, 4, 16}, replay up to a 256-proxy mesh — and writes section
//! `e21_replay` of `OBS_cluster.json` (records/sec, peak resident trace
//! bytes, hit-ratio and network-load deltas vs the synthetic source),
//! schema-checked in CI by `harness replay --check` and covered by the
//! sentinel. The codec itself is proptested
//! (`workload/tests/trace_formats.rs`): arbitrary finite records
//! round-trip `.events` exactly; truncations, header bit-flips, and wrong
//! versions are errors, never panics.
//!
//! ## Fault injection: chaos you can diff
//!
//! Real meshes lose links, proxies, and origins; [`simcore::faults`]
//! injects all of it **deterministically**. A
//! [`simcore::faults::FaultPlan`] is a validated, time-sorted schedule of
//! faults — link down/up, lossy degradation with latency inflation, proxy
//! crashes (cold cache + MSHR drain + digest quarantine), digest-delta
//! loss, origin brownouts and blackouts — and because the plan is static,
//! every piece of fault state is a pure function of `(plan, t)`: loss
//! rolls and retry jitter come from pure hashes, never the workload RNG.
//! The client side survives through [`simcore::faults::RetryPolicy`]:
//! per-attempt timeouts, capped exponential backoff with deterministic
//! jitter, a bounded retry budget, and — on the cooperative mesh —
//! failover to the origin when every path to a peer is dark. Two
//! determinism contracts are pinned bit-identically (derived `PartialEq`,
//! the parity matrix in `cluster/tests/shard_parity.rs`, and
//! `cluster/tests/fault_parity.rs` down to one proxy per shard): an
//! **empty plan** reproduces the unfaulted run exactly, and any plan
//! produces the same report and traces at every shard count:
//!
//! ```
//! use cluster::ClusterSim;
//! use simcore::faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
//! # use cluster::{AdaptiveWorkload, CandidateSource, ClusterConfig, ProxyPolicy,
//! #     Topology, Workload};
//! # use workload::synth_web::SynthWebConfig;
//! # let config = ClusterConfig {
//! #     topology: Topology::mesh_with_latency(2, 60.0, 40.0, 45.0, 0.05),
//! #     workload: Workload::Adaptive(AdaptiveWorkload {
//! #         proxies: vec![SynthWebConfig { lambda: 14.0, n_items: 80,
//! #             ..SynthWebConfig::default() }; 2],
//! #         cache_capacity: 24, cache_bytes: None, max_candidates: 3,
//! #         prefetch_jitter: 0.01, policy: ProxyPolicy::Adaptive,
//! #         predictor: CandidateSource::Oracle, shared_structure_seed: None,
//! #         delayed: Default::default(),
//! #     }),
//! #     requests_per_proxy: 400, warmup_per_proxy: 80,
//! # };
//! let sim = ClusterSim::new(&config);
//!
//! // The empty plan run through the fault-aware paths changes nothing.
//! assert_eq!(sim.run_faulted(7, 2, &FaultConfig::default()), sim.run_sharded(7, 2));
//!
//! // Degrade every link to 30% loss: retries absorb most of it…
//! let lossy = |retry| FaultConfig {
//!     plan: FaultPlan::new(
//!         (0..config.topology.links().len())
//!             .map(|link| FaultEvent {
//!                 t: 0.0,
//!                 kind: FaultKind::LinkDegrade { link, loss: 0.3, latency_factor: 1.0 },
//!             })
//!             .collect(),
//!     ),
//!     retry,
//! };
//! let graceful = sim.run_faulted(7, 2, &lossy(RetryPolicy::default()));
//! assert!(graceful.retries() > 0);
//! // …while a single-attempt policy turns every lost packet into a
//! // failed request.
//! let collapsed = sim.run_faulted(7, 2, &lossy(RetryPolicy::no_retries(1.0)));
//! assert!(graceful.unavailability() < collapsed.unavailability());
//! // The MSHR ledger still balances: origin + coalesced + failed == misses.
//! assert!(graceful.mshr_conservation_ok());
//! ```
//!
//! Failures are first-class everywhere downstream: failed fetches settle
//! their MSHR waiters and surface as `TraceClass::Failed` traces whose
//! `Timeout`/`Backoff` segments tile the latency exactly; per-node
//! counters (`timeouts`, `retries`, `failovers`, `failed_fetches`,
//! `lost_entries`, `unavailability`) land in [`cluster::NodeReport`].
//! Experiment E22 (`cargo run --release -p harness -- chaos`) sweeps link loss ×
//! prefetch aggressiveness, with and without retries, and pins the
//! punchline: retries degrade gracefully where single-attempt fetching
//! collapses — but speculative prefetches get exactly one attempt, so
//! aggressive prefetching *widens* the failure surface as demand
//! coalesces onto unprotected in-flight fetches. Section `e22_chaos` of
//! `OBS_cluster.json` is schema-checked in CI by `harness chaos --check`
//! and covered by the sentinel.

pub use cachesim;
pub use cluster;
pub use coop;
pub use harness;
pub use netsim;
pub use predictor;
/// The paper's analytical models (`prefetch-core`).
pub use prefetch_core as core;
pub use queueing;
pub use simcore;
pub use workload;

/// The most common imports in one place.
pub mod prelude {
    pub use cachesim::{
        ByteCapacity, LruCache, Mshr, MshrAccess, MshrConfig, ReplacementCache, TaggedCache,
        ValueAwareCache, Waiter,
    };
    pub use cluster::{
        ClusterConfig, ClusterReport, ClusterSim, DelayedHitsConfig, RankingMode, ReplayStats,
        Topology, TraceWorkload, Workload,
    };
    pub use coop::{
        CoopConfig, DeltaDigest, DeltaOp, HashRing, Placement, RefreshStrategy, Resolution, Router,
    };
    pub use netsim::parametric::{ParametricConfig, ParametricReport};
    pub use netsim::traced::{Policy, PredictorKind, TracedConfig};
    pub use predictor::{MarkovPredictor, OraclePredictor, Predictor};
    pub use prefetch_core::{
        AdaptiveController, HPrimeEstimator, ModelA, ModelAb, ModelB, PrefetchDecision,
        SystemParams, ThresholdPolicy,
    };
    pub use queueing::theory::{MG1Fifo, MG1Ps, MM1};
    pub use simcore::prelude::*;
    pub use workload::{
        Catalog, ItemId, MarkovChain, RequestStream, TraceRecord, TraceScaler, TraceSource,
        TraceStream,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        use crate::prelude::*;
        let params = SystemParams::paper_figure2(0.0);
        assert_eq!(ModelA::new(params, 1.0, 0.9).threshold(), 0.6);
    }
}
