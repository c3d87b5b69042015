//! The simulator: configuration, the peers' local state, and the
//! protocol handlers driving the async message plane over the world.
//!
//! See the crate-level docs for the architecture (event ordering,
//! determinism contract, state-machine lifecycle). In short: every
//! routed operation is a walk whose hops are individual messages on the
//! [`MessagePlane`], so lookups, joins, refreshes and storage ops
//! interleave with churn and with each other at per-hop granularity. A
//! put, get or range keeps its walk record through its tail as well.
//!
//! This module holds the configs, the [`Simulator`] and its public API,
//! and the delivery layer: dispatch, `deliver`, `send_net` and the
//! timers. The handlers sit in one submodule per protocol family:
//! `walks`, `ring`, `links` and `storage`.

use crate::metrics::SimMetrics;
use crate::plane::{MessagePlane, FAR_AHEAD};
use crate::protocol::{LookupRecord, Msg, RoutingMode, Source, Timer, Walk};
use crate::slab::Slab;
use crate::time::SimTime;
use crate::traffic::{
    CongestionConfig, HotCache, LinkBuckets, ServiceQueue, TrafficConfig, ZipfSampler,
};
use crate::world::{stream, World};
use crate::{refuse_shim_values, LatencyModel};
use std::sync::Arc;
use std::time::Instant;
use sw_core::builder::{long_image, BuildProfile};
use sw_core::config::{LinkSampler, OutDegree};
use sw_dht::ShardMap;
use sw_graph::prefetch::{prefetch_read, prefetch_span};
use sw_graph::{par, DeltaStore, IdMap, IdSet, Topology};
use sw_keyspace::distribution::KeyDistribution;
use sw_keyspace::stats::OnlineStats;
use sw_keyspace::Topology as Metric;
use sw_keyspace::{Key, Rng};
use sw_overlay::route::{RouteOptions, RouteResult};
use sw_overlay::{greedy_route, route_interleaved, Placement, RouteTable, DEFAULT_INTERLEAVE};

mod links;
mod ring;
mod storage;
mod walks;

/// Churn intensity: Poisson arrival rates (events per virtual second).
/// Failure victims are drawn uniformly over alive *peers*: machines do
/// not crash more often for owning a longer arc.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Node joins per second (`0` disables).
    pub join_rate: f64,
    /// Silent node failures per second (`0` disables).
    pub fail_rate: f64,
}

impl ChurnConfig {
    /// No churn at all.
    pub const NONE: ChurnConfig = ChurnConfig {
        join_rate: 0.0,
        fail_rate: 0.0,
    };

    /// Symmetric churn: equal join and failure rates keep the population
    /// roughly stable.
    pub fn symmetric(rate: f64) -> ChurnConfig {
        ChurnConfig {
            join_rate: rate,
            fail_rate: rate,
        }
    }
}

/// Lookup workload: Poisson arrivals of member-key lookups.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Lookups per virtual second.
    pub lookup_rate: f64,
}

/// Storage workload: puts/gets/range queries routed as messages over the
/// plane, with replica fan-out and replica-fallback probes — data-layer
/// costs measured *under* churn, not on a frozen overlay.
#[derive(Debug, Clone, Copy)]
pub struct StorageConfig {
    /// Puts per virtual second.
    pub put_rate: f64,
    /// Gets per virtual second (targets previously stored keys).
    pub get_rate: f64,
    /// Range queries per virtual second.
    pub range_rate: f64,
    /// Total copies per item (primary + replicas), clamped to ≥ 1.
    pub replication: usize,
    /// Items bulk-loaded into the shards at time zero (no message cost,
    /// like the initial converged overlay).
    pub preload: usize,
    /// Anti-entropy repair round period (`None` disables repair). There
    /// is no oracle recovery path: a failed peer's shards die with it,
    /// and with repair disabled any key whose last live copy was on that
    /// peer is permanently lost.
    pub repair_interval: Option<SimTime>,
    /// Shim: only [`RANGE_WIDTH`] boots (see [`crate::LatencyModel`]).
    #[doc(hidden)]
    pub range_width: f64,
    /// Shim: only [`REPAIR_BYTE_SECS`] boots.
    #[doc(hidden)]
    pub repair_byte_secs: f64,
    /// Shim: only `None` boots; every walk takes
    /// [`SimConfig::routing_mode`].
    #[doc(hidden)]
    pub routing_mode: Option<RoutingMode>,
}

impl StorageConfig {
    /// Storage workload disabled.
    pub const NONE: StorageConfig = StorageConfig {
        put_rate: 0.0,
        get_rate: 0.0,
        range_rate: 0.0,
        replication: 2,
        preload: 0,
        repair_interval: None,
        range_width: RANGE_WIDTH,
        repair_byte_secs: REPAIR_BYTE_SECS,
        routing_mode: None,
    };

    /// True if any storage traffic or preload is configured.
    pub fn enabled(&self) -> bool {
        self.put_rate > 0.0 || self.get_rate > 0.0 || self.range_rate > 0.0 || self.preload > 0
    }
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig::NONE
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// PRNG seed — two runs with equal config are bit-identical.
    pub seed: u64,
    /// Peers [`Simulator::new`] draws converged, without message cost.
    /// Only `new` reads it: [`Simulator::with_store`] and
    /// [`Simulator::from_frozen`] overwrite it with `keys.len()`.
    pub initial_n: usize,
    /// Shim: only `Constant(HOP_DELAY)` boots (see [`LatencyModel`]).
    #[doc(hidden)]
    pub latency: LatencyModel,
    /// Ring stabilization period (`None` disables maintenance).
    pub stabilize_interval: Option<SimTime>,
    /// Long-link refresh period (`None` disables refresh).
    pub refresh_interval: Option<SimTime>,
    /// Churn rates.
    pub churn: ChurnConfig,
    /// Lookup workload.
    pub workload: WorkloadConfig,
    /// Storage workload (disabled by default).
    pub storage: StorageConfig,
    /// How walks forward on the plane: recursive hand-off (default) or
    /// requester-driven iterative with failover. Every walk of the run,
    /// storage operations included, takes this mode.
    pub routing_mode: RoutingMode,
    /// Keep a per-lookup [`LookupRecord`] (off by default — unbounded
    /// memory over long runs).
    pub record_lookups: bool,
    /// Worker threads for the t = 0 link draw and the probe batches;
    /// `0` = auto. Results are bit-identical for every value.
    pub parallelism: usize,
    /// Congestion model: per-node service queues and per-link token
    /// buckets (disabled by default — infinite capacity reproduces the
    /// pre-congestion simulator bit-for-bit). Maintenance rounds
    /// (stabilization pings) are modeled as aggregates, not individual
    /// envelopes, so only protocol messages pay queue and link costs.
    pub congestion: CongestionConfig,
    /// Open-loop traffic generator: Zipf-popular lookups injected at a
    /// configured offered rate from a bounded gateway set, with an
    /// optional requester-side hot-key cache (disabled by default).
    pub traffic: TrafficConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            initial_n: 512,
            latency: LatencyModel::Constant(HOP_DELAY),
            stabilize_interval: Some(SimTime::from_secs(10)),
            refresh_interval: Some(SimTime::from_secs(60)),
            churn: ChurnConfig::NONE,
            workload: WorkloadConfig { lookup_rate: 1.0 },
            storage: StorageConfig::NONE,
            routing_mode: RoutingMode::Recursive,
            record_lookups: false,
            parallelism: 0,
            congestion: CongestionConfig::NONE,
            traffic: TrafficConfig::NONE,
        }
    }
}

impl SimConfig {
    /// A maintenance timer's period, `None` when it is off. Repair
    /// rounds run only beside a storage workload.
    fn period(&self, timer: Timer) -> Option<SimTime> {
        match timer {
            Timer::Stabilize => self.stabilize_interval,
            Timer::Refresh => self.refresh_interval,
            Timer::Repair if self.storage.enabled() => self.storage.repair_interval,
            Timer::Repair => None,
        }
    }

    /// The fixed delays the engine sends at, one plane lane each (see
    /// [`crate::plane`]): a network message's flight, alone and with an
    /// idle service queue's service time on top; a stabilization round
    /// trip; the timeout penalty, counted from a send and from the
    /// arrival a hop after it; a repair digest's flight when repair
    /// rounds run; and each armed timer's period.
    fn lane_delays(&self) -> Vec<SimTime> {
        let service = SimTime::from_secs_f64(self.congestion.service_secs_per_msg.max(0.0));
        let mut delays = vec![
            HOP_DELAY,
            HOP_DELAY + service,
            SimTime(HOP_DELAY.0 * 2),
            TIMEOUT_PENALTY,
            TIMEOUT_PENALTY - HOP_DELAY,
        ];
        if self.period(Timer::Repair).is_some() {
            delays.push(repair_flight(DIGEST_BYTES));
        }
        delays.extend(
            Timer::ALL
                .into_iter()
                .filter_map(|timer| self.period(timer)),
        );
        delays
    }
}

/// A simulated peer. Routing state (`succ`, `preds`, and the long-link
/// row in [`Peers::links`]) is the node's *local view* and can go stale
/// under churn; [`World::is_alive`] says whether the peer is up.
#[derive(Debug, Clone)]
struct SimNode {
    /// Clockwise successor list (nearest first), inline: a step reads it
    /// off the node record's own cache lines.
    succ: SuccList,
    /// Counter-clockwise neighbours, nearest first: the routing
    /// predecessor, then the rest of the keep arc's bound
    /// ([`Simulator::keep_from`]).
    preds: [u32; PREDECESSOR_LIST],
    /// True while a refresh chain is rebuilding this node's long links.
    refreshing: bool,
}

impl SimNode {
    /// Peer `id`'s record in the converged ring of `n` key-ranked, all
    /// alive peers: its successors are the next [`SUCCESSOR_LIST`] ids
    /// and its predecessors the [`PREDECESSOR_LIST`] ids before, mod `n`
    /// — what [`ring_state`](crate::world::Oracle::ring_state) finds
    /// over that alive set, by rank instead of by search. Needs
    /// `n > PREDECESSOR_LIST`, so that no peer lists itself.
    fn converged(id: usize, n: usize) -> SimNode {
        let mut succ = SuccList::default();
        for d in 1..=SUCCESSOR_LIST {
            succ.push(((id + d) % n) as u32);
        }
        SimNode {
            succ,
            preds: std::array::from_fn(|d| ((id + n - 1 - d) % n) as u32),
            refreshing: false,
        }
    }
}

/// A successor list of at most [`SUCCESSOR_LIST`] ids stored in the node
/// record itself; derefs to the live prefix, nearest first.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SuccList {
    ids: [u32; SUCCESSOR_LIST],
    len: u8,
}

impl std::ops::Deref for SuccList {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        &self.ids[..self.len as usize]
    }
}

impl SuccList {
    /// Appends `v`. Panics on a full list.
    pub(crate) fn push(&mut self, v: u32) {
        self.ids[self.len as usize] = v;
        self.len += 1;
    }

    /// Puts `v` first, shifting the rest down; a full list drops its
    /// farthest entry.
    fn insert_front(&mut self, v: u32) {
        self.ids.copy_within(..SUCCESSOR_LIST - 1, 1);
        self.ids[0] = v;
        self.len = (self.len + 1).min(SUCCESSOR_LIST as u8);
    }
}

/// Copy census of the stored corpus (see
/// [`Simulator::durability_census`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityCensus {
    /// Distinct keys present anywhere in the live shards.
    pub keys: usize,
    /// Keys at exactly the replication target.
    pub fully_replicated: usize,
    /// Keys below the target (but not lost).
    pub under_replicated: usize,
    /// Keys above the target (stale copies not yet retired).
    pub over_replicated: usize,
    /// The target: `min(replication, alive peers)`.
    pub target: usize,
}

/// Long-link budget of every simulated peer: the paper's `log2 N`.
pub(crate) const OUT_DEGREE: OutDegree = OutDegree::Log2N;

/// The converged overlay at t = 0: `n` distinct keys drawn from `dist`,
/// ascending so that peer id is key rank, and each peer's `log2 n`
/// harmonic long links over their ring placement, drawn in draw order
/// by the builder's long stage ([`long_image`]) and so the same at any
/// `threads` (`0` = auto). From one generator state it is a ring,
/// harmonic `SmallWorldBuilder`'s placement and long topology. It is
/// what [`Simulator::new`] boots, and what a caller hands
/// [`Simulator::with_store`] (or freezes for [`Simulator::from_frozen`])
/// to boot the same overlay.
pub fn converged_overlay(
    n: usize,
    dist: &dyn KeyDistribution,
    rng: &mut Rng,
    threads: usize,
) -> (Vec<Key>, Topology) {
    let placement = Placement::sample(n, dist, Metric::Ring, rng);
    let rule = (OUT_DEGREE, LinkSampler::Harmonic);
    let stage = (&mut Instant::now(), &mut BuildProfile::default());
    let links =
        long_image(&placement, dist, rule, rng, threads, None, stage).expect("edge count fits u32");
    (placement.keys().to_vec(), links)
}

/// Successor-list length (ring repair redundancy).
pub(crate) const SUCCESSOR_LIST: usize = 4;

/// Predecessor-list length: a peer is in the replica chains of at most
/// [`SUCCESSOR_LIST`] predecessors, so its keep arc reaches back this far.
/// The population floor of 8 keeps the list full.
pub(crate) const PREDECESSOR_LIST: usize = SUCCESSOR_LIST + 1;

/// How long every overlay hop takes on the wire: each network message
/// flies this long (a repair message its payload's bandwidth delay
/// more), and a stabilization ping's round trip is twice it.
pub const HOP_DELAY: SimTime = SimTime::from_millis(50);

/// Latency charged for each timeout on a dead contact.
pub(crate) const TIMEOUT_PENALTY: SimTime = SimTime::from_millis(500);

/// Key-space width of a generated range query: `[lo, lo + RANGE_WIDTH)`.
pub const RANGE_WIDTH: f64 = 0.02;

/// Repair bandwidth: seconds of delivery delay per payload byte, on top
/// of [`HOP_DELAY`] (≈ 1 MB/s).
pub const REPAIR_BYTE_SECS: f64 = 1e-6;

/// Wire size of a repair digest message (arc bounds + count + hash).
const DIGEST_BYTES: u64 = 32;
/// Fixed header of a repair diff / push / pull message (arc bounds or
/// operation framing) on top of its per-key payload.
const REPAIR_HEADER_BYTES: u64 = 16;

/// Every peer's local state, one lane per kind, indexed by peer id
/// (dead peers keep their slots): what a peer could know.
struct Peers {
    nodes: Vec<SimNode>,
    /// `keys[id]` is peer `id`'s key: the dense lane every hop decision
    /// reads. A greedy step gathers ~25 contact keys at arbitrary ids;
    /// out of 8-byte slots that is an 800 KB working set at 10⁵ peers,
    /// out of the (≤ 56-byte) node records seven times that.
    keys: Vec<Key>,
    /// Per-peer long-link rows over one base image: the delta overlay
    /// lets churn mutate rows while the converged bulk — built in memory,
    /// or a 10⁷-peer frozen image preloaded straight from disk — stays
    /// immutable and shared.
    links: DeltaStore,
    /// Every stored copy, one shard per holder peer. A copy is primary
    /// iff its key lies on its holder's `(pred, self]`.
    store: ShardMap,
    /// Recovery keys an owner has already requested this repair round
    /// (cleared when its next round starts): with several replicas
    /// diffing concurrently, only the first mismatch requests a key, so
    /// recovery payloads are not streamed — and byte-billed —
    /// `replication - 1` times over. Membership-only (never iterated):
    /// safe for determinism.
    pending_wants: IdMap<u32, IdSet<Key>>,
    /// Requester-side hot-key caches, one per gateway that has issued
    /// traffic (keyed access only — determinism-safe).
    caches: IdMap<u32, HotCache>,
}

/// The simulator itself (ring topology).
pub struct Simulator {
    cfg: SimConfig,
    /// Probe RNG (forked per measurement call, never by the plane).
    rng: Rng,
    plane: MessagePlane<Msg>,
    world: World,
    peers: Peers,
    metrics: SimMetrics,
    /// In-flight walks, storage tails included; a walk's query id names
    /// its slot.
    walks: Slab<Walk>,
    /// Timer stagger draws.
    timer_rng: Rng,
    /// Link-probe target draws.
    link_rng: Rng,
    /// Keys known to be stored (get targets).
    put_keys: Vec<Key>,
    put_counter: u64,
    lookup_records: Vec<LookupRecord>,
    /// Reusable buffer behind [`Simulator::ranked_candidates`].
    cand_scratch: Vec<(u32, f64)>,
    // --- congestion + traffic plane ---
    /// Per-node inbound service queues, one slot per peer (all state is
    /// one `busy_until` per node, updated in event order).
    node_q: Vec<ServiceQueue>,
    /// Per-directed-link token buckets, for the links that carried
    /// traffic within the last refill period.
    link_buckets: LinkBuckets,
    /// Per-message service time (`SimTime`-converted once at boot).
    service_time: SimTime,
    /// Gateway nodes that originate traffic lookups.
    gateways: Vec<u32>,
    /// Hot-key universe: Zipf rank → target node id.
    traffic_targets: Vec<u32>,
    /// Popularity sampler over `traffic_targets` ranks.
    zipf: Option<ZipfSampler>,
}
impl Simulator {
    /// Builds the initial converged network ([`converged_overlay`] over
    /// `cfg.initial_n` peers) and schedules the recurring processes.
    ///
    /// # Panics
    ///
    /// Panics if `initial_n < 8`.
    pub fn new(cfg: SimConfig, dist: Arc<dyn KeyDistribution>) -> Simulator {
        assert!(cfg.initial_n >= 8, "simulator needs at least 8 peers");
        // `with_store` forks the probe stream from a fresh generator of
        // the same seed: skip that one draw here, then draw the overlay.
        let mut rng = Rng::new(cfg.seed);
        let _probe = rng.fork();
        let (keys, links) = converged_overlay(cfg.initial_n, &*dist, &mut rng, cfg.parallelism);
        Simulator::with_store(cfg, dist, keys, links)
    }

    /// Builds the simulator over a prebuilt long-link topology — e.g. a
    /// frozen image reopened from disk, so a 10⁷-peer run preloads its
    /// converged overlay instead of re-sampling it. `keys[u]` is peer
    /// `u`'s key, aligned with the topology's rows (strictly ascending,
    /// as `build_frozen` images are laid out); churn layers onto the
    /// delta overlay above the immutable base.
    ///
    /// Peer id is key rank, so the boot reads the t = 0 state off the
    /// ranks: a fixed number of sequential passes over the peers and no
    /// per-peer search. Every per-peer lane and the alive index are
    /// built whole (the index is a `BTreeMap` bulk build from the
    /// ascending keys), the ring state is rank arithmetic, and each
    /// preloaded item costs one binary search of `keys`. The links are
    /// taken as handed in, and no storage shard exists before its
    /// first write.
    ///
    /// Seeded runs depend on the rows only: the same rows built in
    /// memory and reopened from a file produce the same simulation.
    ///
    /// # Panics
    ///
    /// Panics if `keys` and the store disagree on the peer count, there
    /// are fewer than 8 peers, or the keys are not strictly ascending.
    /// Also panics if a `#[doc(hidden)]` shim field holds any value but
    /// its constant (or `None`).
    pub fn with_store(
        mut cfg: SimConfig,
        dist: Arc<dyn KeyDistribution>,
        keys: Vec<Key>,
        store: Topology,
    ) -> Simulator {
        refuse_shim_values(&cfg);
        assert_eq!(keys.len(), store.len(), "one key per stored row");
        assert!(keys.len() >= 8, "simulator needs at least 8 peers");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly ascending (store rows are key-ranked)"
        );
        cfg.initial_n = keys.len();
        let (n, seed) = (keys.len(), cfg.seed);
        let mut sim = Simulator {
            rng: Rng::new(seed).fork(),
            plane: MessagePlane::with_lanes(&cfg.lane_delays()),
            world: World::new(&cfg, dist, &keys),
            peers: Peers {
                nodes: (0..n).map(|id| SimNode::converged(id, n)).collect(),
                keys,
                links: DeltaStore::new(store),
                store: ShardMap::new(0),
                pending_wants: IdMap::default(),
                caches: IdMap::default(),
            },
            metrics: SimMetrics::default(),
            walks: Slab::new(),
            timer_rng: Rng::stream(seed, stream::TIMER),
            link_rng: Rng::stream(seed, stream::LINK),
            put_keys: Vec::new(),
            put_counter: 0,
            lookup_records: Vec::new(),
            cand_scratch: Vec::new(),
            node_q: vec![ServiceQueue::default(); n],
            link_buckets: LinkBuckets::new(),
            service_time: SimTime::from_secs_f64(cfg.congestion.service_secs_per_msg.max(0.0)),
            gateways: Vec::new(),
            traffic_targets: Vec::new(),
            zipf: None,
            cfg,
        };
        sim.preload_storage();
        if sim.cfg.traffic.enabled() {
            // Gateways (the front-ends users hit) and the hot-key
            // universe are fixed subsets of the t = 0 population, drawn
            // from the traffic stream before its first arrival: a
            // bounded gateway set gives each requester-side cache
            // realistic re-reference, and a bounded key universe gives
            // Zipf ranks stable owners. Both draws shuffle id vectors —
            // deterministic at any thread count.
            let rng = sim.world.stream(Source::Traffic);
            let mut ids: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut ids);
            sim.gateways = ids[..sim.cfg.traffic.gateways.clamp(1, n)].to_vec();
            let mut ids: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut ids);
            let universe = sim.cfg.traffic.hot_keys.clamp(1, n);
            sim.traffic_targets = ids[..universe].to_vec();
            sim.zipf = Some(ZipfSampler::new(universe, sim.cfg.traffic.zipf_s));
        }
        // Recurring processes.
        for src in Source::ALL {
            let rate = sim.rate(src);
            if rate > 0.0 {
                let dt = next_interval(sim.world.stream(src), rate);
                sim.plane.send(dt, Msg::Next(src));
            }
        }
        for id in 0..n as u32 {
            sim.schedule_timers(id);
        }
        sim
    }

    /// [`Simulator::with_store`] from a frozen image on disk: peer keys
    /// come from the image's per-node position lane. `path` is outside
    /// input, so the image is validated on open — a truncated or
    /// corrupted file is an `Err`, never an out-of-bounds row later.
    pub fn from_frozen(
        cfg: SimConfig,
        dist: Arc<dyn KeyDistribution>,
        path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Simulator> {
        let store = Topology::open(path)?;
        let keys: Vec<Key> = store
            .node_pos()
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "frozen image carries no per-node key lane",
                )
            })?
            .iter()
            .map(|&p| Key::clamped(p))
            .collect();
        Ok(Simulator::with_store(cfg, dist, keys, store))
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.plane.now()
    }

    /// Number of live peers.
    pub fn alive_count(&self) -> usize {
        self.world.population()
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Walks currently in flight (all purposes): routes, and the puts,
    /// gets and ranges whose fan-out, fallback probes or sweep still run.
    pub fn in_flight_walks(&self) -> usize {
        self.walks.len()
    }

    /// Per-lookup records (empty unless `record_lookups` is set).
    pub fn lookup_records(&self) -> &[LookupRecord] {
        &self.lookup_records
    }

    /// Every stored copy, one shard per holder peer.
    pub fn shards(&self) -> &ShardMap {
        &self.peers.store
    }

    /// Runs until the virtual clock passes `until`.
    ///
    /// Drains the plane in same-instant batches
    /// ([`MessagePlane::deliver_window`]). Handlers run strictly after
    /// their batch is drained; anything they send at the batch instant
    /// gets a larger sequence number and is picked up by the next
    /// `deliver_window` call at the same instant — the exact order the
    /// pop-one loop produces.
    ///
    /// The drain's lookahead hook is the engine's prefetcher: each pop
    /// of a lane shows the hook the walk messages a fixed number of
    /// that lane's pops ahead, at two stages, and each stage warms one
    /// link of the address chain its handler will walk (see
    /// `prefetch_peer`).
    pub fn run_until(&mut self, until: SimTime) {
        let mut batch = Vec::new();
        while self
            .plane
            .deliver_window_with(until, &mut batch, |ahead, msg| {
                prefetch_peer(&self.walks, &self.peers, &self.world, ahead, msg)
            })
            > 0
        {
            for env in batch.drain(..) {
                self.handle(env.msg);
            }
        }
        self.plane.advance_to(until);
        self.metrics.events = self.plane.delivered();
        self.metrics.end_time = self.plane.now();
    }

    /// Measurement probe: runs `queries` member lookups *without*
    /// advancing the clock or touching the workload metrics. Returns
    /// (success rate, hop stats).
    ///
    /// The probe pairs are drawn up front, and the live contact state is
    /// frozen once, by key rank, into a placement and a [`RouteTable`]
    /// (`probe_routes`). Every probe is then a plain batch route
    /// ([`route_interleaved`]) over that snapshot, so the result is
    /// independent of worker-thread count.
    pub fn probe_lookups(&mut self, queries: usize) -> (f64, OnlineStats) {
        let (_, _, _, routes) = self.probe_routes(queries);
        let mut hops = OnlineStats::new();
        let mut ok = 0usize;
        // Aggregate in draw order so the stats are chunk-independent.
        for r in routes.iter().filter(|r| r.success) {
            ok += 1;
            hops.push(r.hops as f64);
        }
        (ok as f64 / routes.len().max(1) as f64, hops)
    }

    /// [`Simulator::probe_lookups`]'s walks. `queries` (source, target)
    /// pairs of alive peers are drawn from a fork of the engine's
    /// stream. The snapshot is the alive peers by key rank: a placement
    /// of their keys, and a route table whose row `r` is the pred,
    /// successors and long links of the peer at rank `r`, over ranks
    /// ([`World::rank_rows`]). Each worker routes one contiguous chunk
    /// of the pairs through the batch kernel. Returns the snapshot, the
    /// queries over ranks and their routes, in draw order.
    fn probe_routes(
        &mut self,
        queries: usize,
    ) -> (Placement, RouteTable, Vec<(u32, Key)>, Vec<RouteResult>) {
        let mut rng = self.rng.fork();
        let (rank, placement, topo) = self.world.rank_rows(|id| {
            let node = &self.peers.nodes[id as usize];
            let long = self.peers.links.row_slice(id);
            std::iter::once(node.preds[0])
                .chain(node.succ.iter().copied())
                .chain(long.iter().copied())
        });
        let table = RouteTable::build(topo, |v| placement.key(v).get());
        // Alive pairs by key-space mass, as `World::random_alive` draws.
        let mut draw = || self.world.owner_of(Key::clamped(rng.f64()));
        let probes: Vec<(u32, Key)> = (0..queries)
            .map(|_| (draw(), draw()))
            .map(|(a, b)| (rank[a as usize], self.peers.keys[b as usize]))
            .collect();
        // The alive set is frozen for the whole probe batch, so the hop
        // budget is one constant here.
        let opts = RouteOptions {
            max_hops: self.hop_budget(),
            record_path: false,
        };
        let chunks = par::par_chunks_grained(probes.len(), self.cfg.parallelism, 64, |r| {
            let routes = route_interleaved(
                &placement,
                &table,
                &probes[r.clone()],
                &opts,
                DEFAULT_INTERLEAVE,
            );
            debug_assert!(
                r.zip(&routes).all(|(i, got)| {
                    let (from, target) = probes[i];
                    *got == greedy_route(&placement, table.store(), from, target, &opts)
                }),
                "probes must route like greedy_route over the snapshot"
            );
            routes
        });
        let routes = chunks.into_iter().flatten().collect();
        (placement, table, probes, routes)
    }

    /// The live overlay in the form [`converged_overlay`] returns and
    /// [`Simulator::with_store`] accepts: the alive peers' keys,
    /// ascending, and their long-link rows over peer id = key rank, with
    /// dead targets dropped and each row sorted. The ring state is left
    /// out, since `Placement::from_keys` rebuilds the ring from the keys.
    /// `SmallWorldNetwork::with_links` over that placement is then the
    /// grown network under the builder's contact rule. Before any event
    /// this is the t = 0 draw itself.
    pub fn live_overlay(&self) -> (Vec<Key>, Topology) {
        let long = |id| self.peers.links.row_slice(id).iter().copied();
        let (_, placement, topo) = self.world.rank_rows(long);
        (placement.keys().to_vec(), topo)
    }

    // ----- event dispatch -------------------------------------------

    fn handle(&mut self, msg: Msg) {
        match msg {
            Msg::Next(src) => self.next_arrival(src),
            Msg::Timer(timer, id) => self.fire_timer(timer, id),
            Msg::StabilizeApply(id) => self.do_stabilize_apply(id),
            Msg::Step { qid } => self.drive_walk(qid),
            // An overload drop's sender-side consequence: the wrapped
            // message re-enters delivery as lost, so the timeout /
            // failover / pending-count fallout reuses the dead-peer code
            // path verbatim. It arrives at the no-queue delivery
            // instant, making a drop's timing bit-identical to a
            // dead-peer delivery.
            Msg::Dropped(inner) => self.deliver(*inner, true),
            net => self.deliver(net, false),
        }
    }

    /// The current rate of a generator process. Only the churn and
    /// traffic rates can change mid-run ([`Simulator::set_churn`],
    /// [`Simulator::set_traffic_rate`]); a process that reads zero ends.
    fn rate(&self, src: Source) -> f64 {
        let cfg = &self.cfg;
        match src {
            Source::Join => cfg.churn.join_rate,
            Source::Fail => cfg.churn.fail_rate,
            Source::Lookup => cfg.workload.lookup_rate,
            Source::Put => cfg.storage.put_rate,
            Source::Get => cfg.storage.get_rate,
            Source::Range => cfg.storage.range_rate,
            Source::Traffic if cfg.traffic.enabled() => cfg.traffic.rate,
            Source::Traffic => 0.0,
        }
    }

    /// One arrival of a generator process: act, drawing on the
    /// process's own world stream, then draw the next inter-arrival time
    /// from it and re-arm. A process whose rate reads zero stops here, so
    /// `set_churn` and `set_traffic_rate` can end one mid-run.
    fn next_arrival(&mut self, src: Source) {
        let rate = self.rate(src);
        if rate <= 0.0 {
            return;
        }
        match src {
            Source::Join => self.do_join_start(),
            Source::Fail => self.do_fail(),
            Source::Lookup => self.do_lookup_start(),
            Source::Put => self.do_put_start(),
            Source::Get => self.do_get_start(),
            Source::Range => self.do_range_start(),
            Source::Traffic => self.do_traffic_lookup(),
        }
        let dt = next_interval(self.world.stream(src), rate);
        self.plane.send(dt, Msg::Next(src));
    }

    /// One network message arrives (or, `lost`, its drop reaches the
    /// sender): the ledger entry and the receiver-liveness test, made
    /// once here, then the message's handler with `live` — true if a
    /// live receiver got it.
    fn deliver(&mut self, msg: Msg, lost: bool) {
        let receiver = match &msg {
            Msg::Hop { to, .. }
            | Msg::NextHopQuery { to, .. }
            | Msg::ReplicaPut { to, .. }
            | Msg::ReplicaProbe { to, .. }
            | Msg::RangeFragment { to, .. } => Some(*to),
            // A late reply for a finished walk is still serviced.
            Msg::NextHopReply(reply) => self.walks.get(reply.qid).map(|w| w.requester),
            Msg::RepairDigest(digest) => Some(digest.to),
            Msg::RepairDiff(diff) => Some(diff.owner),
            Msg::RepairPush(push) => Some(push.replica),
            Msg::RepairPull(pull) => Some(pull.owner),
            Msg::Handoff(handoff) => handoff.relay.last().copied(),
            other => unreachable!("not a network message: {other:?}"),
        };
        let live = !lost && self.world.deliver(receiver);
        match msg {
            Msg::Hop { qid, to, sent_at } => self.deliver_hop(qid, to, sent_at, live),
            Msg::NextHopQuery { qid, to, sent_at } => {
                self.deliver_next_hop_query(qid, to, sent_at, live)
            }
            Msg::NextHopReply(reply) => self.deliver_next_hop_reply(*reply, live),
            Msg::ReplicaPut { op, to } => self.deliver_replica_put(op, to, live),
            Msg::ReplicaProbe { op, to, sent_at } => {
                self.deliver_replica_probe(op, to, sent_at, live)
            }
            Msg::RangeFragment { op, to, sent_at } => {
                self.deliver_range_fragment(op, to, sent_at, live)
            }
            // The repair rungs are fire-and-forget: one lost to a dead
            // receiver is simply gone, and the next round retries.
            Msg::RepairDigest(digest) if live => self.on_repair_digest(*digest),
            Msg::RepairDiff(diff) if live => self.on_repair_diff(*diff),
            Msg::RepairPush(push) if live => self.on_repair_push(*push),
            Msg::RepairPull(pull) if live => self.on_repair_pull(*pull),
            Msg::Handoff(handoff) if live => self.on_handoff(handoff),
            _ => {}
        }
    }

    // ----- the congestion plane --------------------------------------

    /// Sends one protocol message `from → to` through the congestion
    /// model and onto the plane. The full pipeline, all evaluated
    /// arithmetically at send time (deterministic event order, no extra
    /// envelopes, no randomness):
    ///
    /// 1. **Link shaping** — with `link_rate > 0`, the directed link's
    ///    token bucket may push the departure past `depart`.
    /// 2. **Flight** — the caller's hop delay (plus any per-byte
    ///    delay already folded in) gives the raw arrival instant.
    /// 3. **Service queue** — with `service_secs_per_msg > 0`, the
    ///    destination's queue either admits the arrival (delivery is
    ///    scheduled at its *service completion*, so handler-side
    ///    `now - sent_at` latency automatically includes queue wait and
    ///    service time) or drops it at the depth cap. A dropped
    ///    message with a sender-side consequence is re-scheduled as
    ///    [`Msg::Dropped`] at the no-queue arrival instant; drops of
    ///    fire-and-forget messages (repair rungs) vanish silently,
    ///    exactly like a dead receiver.
    ///
    /// Returns `Some(queue_wait)` when the message will be delivered
    /// (zero without queueing) and `None` when it was dropped.
    fn send_net(
        &mut self,
        from: u32,
        to: u32,
        depart: SimTime,
        flight: SimTime,
        msg: Msg,
    ) -> Option<SimTime> {
        self.world.count_offered();
        // A retry armed at `sent_at + penalty` may name an instant the
        // clock has already passed (the flight, or the queue
        // wait, outlasted the penalty). Nothing departs in the past:
        // a link bucket charged there would rewind its refill clock and
        // over-credit the next departure.
        let now = self.plane.now();
        let mut depart = depart.max(now);
        let cg = self.cfg.congestion;
        if cg.shaping_enabled() {
            depart += self
                .link_buckets
                .delay(from, to, now, depart, cg.link_rate, cg.link_burst);
        }
        let arrive = depart + flight;
        if !cg.queueing_enabled() {
            self.plane.send_at(arrive, msg);
            return Some(SimTime::ZERO);
        }
        match self.node_q[to as usize].offer(arrive, self.service_time, cg.queue_cap) {
            Some((done, wait, depth)) => {
                self.metrics.queue_wait.record(wait);
                self.metrics.queue_depth_peak = self.metrics.queue_depth_peak.max(depth + 1);
                self.plane.send_at(done, msg);
                Some(wait)
            }
            None => {
                self.metrics.msgs_dropped_overload += 1;
                self.world.count_dropped();
                if msg.sender_waits() {
                    self.plane.send_at(arrive, Msg::Dropped(Box::new(msg)));
                }
                None
            }
        }
    }

    /// Network-message conservation counters
    /// `(offered, dropped_overload, delivered, dead_discarded)`. Once
    /// the plane is drained, `offered = dropped + delivered + dead` —
    /// every message sent through the congestion model is accounted
    /// exactly once. (A reply whose walk already finished is
    /// counted `delivered`: the envelope was serviced, its walk just no
    /// longer cared.) Test instrumentation, not a public API.
    #[doc(hidden)]
    pub fn net_counters(&self) -> (u64, u64, u64, u64) {
        self.world.net_counters()
    }

    /// Retunes or stops the open-loop generator mid-run. A new positive
    /// rate takes effect at the generator's next tick; zero ends the
    /// process at that tick, after which draining the plane settles
    /// every in-flight message. Like [`Simulator::set_churn`], **raising
    /// the rate from zero restarts nothing** once that tick has passed
    /// (or if traffic was never enabled): no traffic arrival is left on
    /// the plane to read the new rate.
    pub fn set_traffic_rate(&mut self, rate: f64) {
        self.cfg.traffic.rate = rate;
    }

    /// Arms a new peer's timers, each at a stagger drawn uniformly over
    /// its period so maintenance does not arrive in bursts. At boot each
    /// stagger joins its period's plane lane (`plane`'s "boot sort").
    fn schedule_timers(&mut self, id: u32) {
        for timer in Timer::ALL {
            if let Some(interval) = self.cfg.period(timer) {
                let stagger = SimTime(self.timer_rng.bounded_u64(interval.0.max(1)));
                self.plane
                    .send_staggered(stagger, interval, Msg::Timer(timer, id));
            }
        }
    }

    /// One round of a peer's timer, which re-arms itself one period on.
    /// A timer dies with its node. Stabilization sends its apply before
    /// it re-arms; the other two re-arm before their round.
    fn fire_timer(&mut self, timer: Timer, id: u32) {
        if !self.world.is_alive(id) {
            return;
        }
        let period = self.cfg.period(timer).expect("an armed timer has a period");
        let rearm = Msg::Timer(timer, id);
        match timer {
            Timer::Stabilize => {
                self.do_stabilize_start(id);
                self.plane.send(period, rearm);
            }
            Timer::Refresh => {
                self.plane.send(period, rearm);
                self.do_refresh_start(id);
            }
            Timer::Repair => {
                self.plane.send(period, rearm);
                self.do_repair_round(id);
            }
        }
    }

    /// Copy census of the stored corpus, computed from the live shards on
    /// the `sw_graph::par` scan path (per-peer key lists fan out across
    /// workers; the merge is an order-independent count) — bit-identical
    /// at every `threads` value.
    pub fn durability_census(&self, threads: usize) -> DurabilityCensus {
        let target = (self.replication_target() as usize).min(self.world.population());
        let store = &self.peers.store;
        let per_peer: Vec<Vec<Key>> = par::par_map_grained(store.shard_count(), threads, 8, |i| {
            store
                .shard(i as u32)
                .map(|s| s.keys().copied().collect())
                .unwrap_or_default()
        });
        let mut counts: IdMap<Key, usize> = IdMap::default();
        for keys in per_peer {
            for k in keys {
                *counts.entry(k).or_insert(0) += 1;
            }
        }
        let mut census = DurabilityCensus {
            target,
            ..DurabilityCensus::default()
        };
        for &c in counts.values() {
            census.keys += 1;
            match c.cmp(&target) {
                std::cmp::Ordering::Less => census.under_replicated += 1,
                std::cmp::Ordering::Equal => census.fully_replicated += 1,
                std::cmp::Ordering::Greater => census.over_replicated += 1,
            }
        }
        census
    }

    /// Replaces the churn configuration mid-run. Lowering a rate takes
    /// effect at that generator's next tick, and zero ends the process
    /// there. **Raising a rate from zero has no effect**: a process that
    /// was never armed, or has ended, is not on the plane to read it.
    /// Used to stop churn and let the repair plane quiesce.
    pub fn set_churn(&mut self, churn: ChurnConfig) {
        self.cfg.churn = churn;
    }
}

/// The two prefetch stages of a simulated hop, driven by the plane's
/// lane lookahead (`plane`'s "lanes as lookahead"). A step at peer `to`
/// walks the walk's slot, then `to`'s liveness entry / `nodes[to]` /
/// `keys[to]` / the delta's `owned[to]` and the base's `offsets[to]` →
/// the long-link row → the row's contact keys, on state untouched for
/// thousands of events; the address chain has two links, whether the
/// row is the base's or owned, so there are two stages:
///
/// * the far stage, [`FAR_AHEAD`] pops of the message's lane ahead of
///   its delivery: the loads addressable from the message alone — the
///   walk's slot, the receiver's liveness entry in the world, its node
///   record, its key, the row's entry in the delta's lane and the base
///   store's row bounds;
/// * the near stage, [`NEAR_AHEAD`](crate::plane::NEAR_AHEAD) pops
///   ahead: those are resident by now, so read them and prefetch the
///   row itself.
///
/// Hints only: nothing here can change what a handler later reads.
#[inline]
fn prefetch_peer(walks: &Slab<Walk>, peers: &Peers, world: &World, ahead: usize, msg: &Msg) {
    let (Msg::Hop { qid, to, .. } | Msg::NextHopQuery { qid, to, .. }) = *msg else {
        return;
    };
    if ahead == FAR_AHEAD {
        walks.prefetch(qid);
        world.prefetch_liveness(to);
        if let Some(node) = peers.nodes.get(to as usize) {
            prefetch_span(std::slice::from_ref(node));
        }
        prefetch_read(peers.keys.as_ptr().wrapping_add(to as usize));
        peers.links.prefetch_row_bounds(to);
    } else {
        prefetch_span(peers.links.row_slice(to));
    }
}

/// A repair message's flight: a hop, plus its payload's bandwidth delay.
fn repair_flight(bytes: u64) -> SimTime {
    HOP_DELAY + SimTime::from_secs_f64(bytes as f64 * REPAIR_BYTE_SECS)
}

/// Poisson inter-arrival draw.
fn next_interval(rng: &mut Rng, rate: f64) -> SimTime {
    SimTime::from_secs_f64(rng.exponential(rate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Purpose, QueryId, RepairPull, WalkEnd};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use sw_core::links::LinkSelector;
    use sw_core::SmallWorldBuilder;
    use sw_dht::{item_bytes, Shard, KEY_BYTES};
    use sw_graph::LinkTable;
    use sw_keyspace::distribution::{TruncatedPareto, Uniform};
    use sw_overlay::Overlay;

    impl Simulator {
        /// Live copies of `key` across all peers (ground-truth
        /// bookkeeping; `0` for unknown or lost keys).
        fn live_copies(&self, key: Key) -> u32 {
            self.world.live_copies(key)
        }
    }

    fn quiet_config(seed: u64, n: usize) -> SimConfig {
        SimConfig {
            seed,
            initial_n: n,
            workload: WorkloadConfig { lookup_rate: 20.0 },
            ..SimConfig::default()
        }
    }

    #[test]
    fn static_network_lookups_always_succeed() {
        let mut sim = Simulator::new(quiet_config(1, 512), Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(60));
        let m = sim.metrics();
        assert!(m.lookups > 1000, "lookups {}", m.lookups);
        assert!(
            (m.success_rate() - 1.0).abs() < 1e-12,
            "{}",
            m.success_rate()
        );
        assert!(m.hops.mean() < 12.0, "hops {}", m.hops.mean());
        assert_eq!(m.timeouts, 0);
        assert_eq!(m.lookups_stranded, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut sim = Simulator::new(quiet_config(seed, 128), Arc::new(Uniform));
            sim.run_until(SimTime::from_secs(30));
            (
                sim.metrics().lookups,
                sim.metrics().lookups_ok,
                sim.metrics().hops.mean(),
                sim.alive_count(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn churn_without_maintenance_hurts_success() {
        let cfg = SimConfig {
            stabilize_interval: None,
            refresh_interval: None,
            churn: ChurnConfig::symmetric(4.0),
            ..quiet_config(2, 512)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(120));
        let m = sim.metrics();
        assert!(m.failures > 100, "failures {}", m.failures);
        assert!(
            m.success_rate() < 0.999,
            "expected degradation, got {}",
            m.success_rate()
        );
    }

    #[test]
    fn maintenance_restores_success_under_churn() {
        let base = quiet_config(3, 512);
        let churn = ChurnConfig::symmetric(4.0);
        let without = {
            let cfg = SimConfig {
                stabilize_interval: None,
                refresh_interval: None,
                churn,
                ..base.clone()
            };
            let mut sim = Simulator::new(cfg, Arc::new(Uniform));
            sim.run_until(SimTime::from_secs(120));
            sim.metrics().success_rate()
        };
        let with = {
            let cfg = SimConfig {
                stabilize_interval: Some(SimTime::from_secs(5)),
                refresh_interval: Some(SimTime::from_secs(30)),
                churn,
                ..base
            };
            let mut sim = Simulator::new(cfg, Arc::new(Uniform));
            sim.run_until(SimTime::from_secs(120));
            sim.metrics().success_rate()
        };
        assert!(with > without, "maintenance must help: {without} -> {with}");
        assert!(with > 0.97, "maintained success {with}");
    }

    #[test]
    fn population_tracks_join_and_fail_rates() {
        let cfg = SimConfig {
            churn: ChurnConfig {
                join_rate: 10.0,
                fail_rate: 2.0,
            },
            ..quiet_config(4, 128)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(60));
        // ~600 joins vs ~120 failures: population must grow.
        assert!(sim.alive_count() > 400, "alive {}", sim.alive_count());
        assert!(sim.metrics().joins > 400);
        assert!(sim.metrics().failures > 50);
    }

    #[test]
    fn skewed_density_simulation_routes_well() {
        let cfg = quiet_config(5, 512);
        let mut sim = Simulator::new(cfg, Arc::new(TruncatedPareto::new(1.5, 0.01).unwrap()));
        sim.run_until(SimTime::from_secs(60));
        let m = sim.metrics();
        assert!((m.success_rate() - 1.0).abs() < 1e-12);
        assert!(m.hops.mean() < 12.0, "hops {}", m.hops.mean());
    }

    #[test]
    fn probe_does_not_touch_metrics() {
        let mut sim = Simulator::new(quiet_config(6, 256), Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(10));
        let before = sim.metrics().lookups;
        let (ok, hops) = sim.probe_lookups(100);
        assert_eq!(sim.metrics().lookups, before);
        assert!(ok > 0.99);
        assert!(hops.mean() > 0.0);
    }

    /// The probe snapshot's route table under churn 4/s: one row per
    /// alive peer, by key rank, as in its placement; each lane entry is
    /// that contact's key, bit for bit, and the placement's key at that
    /// rank.
    #[test]
    fn route_table_snapshot_lanes_align_with_topology() {
        let cfg = SimConfig {
            churn: ChurnConfig::symmetric(4.0),
            ..quiet_config(12, 256)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(45));
        let (placement, table, _, _) = sim.probe_routes(0);
        let ids: Vec<u32> = sim.world.index().0.values().copied().collect();
        assert_eq!((table.len(), placement.len()), (ids.len(), ids.len()));
        for r in 0..table.len() as u32 {
            let (row, lane) = table.row(r);
            assert_eq!(row.len(), lane.len());
            for (&v, &p) in row.iter().zip(lane) {
                let peer = ids[v as usize];
                assert_eq!(p.to_bits(), sim.peers.keys[peer as usize].get().to_bits());
                assert_eq!(p.to_bits(), placement.key(v).get().to_bits());
            }
        }
    }

    /// The probe snapshot under churn 4/s holds the alive peers only, by
    /// key rank; every alive peer keeps a contact; each row is exactly
    /// the peer's alive pred, successors and long links as ranks, in
    /// range and never itself.
    #[test]
    fn topology_snapshot_is_alive_only_and_wired() {
        let cfg = SimConfig {
            churn: ChurnConfig::symmetric(4.0),
            ..quiet_config(11, 256)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(60));
        let (placement, table, _, _) = sim.probe_routes(0);
        let ids: Vec<u32> = sim.world.index().0.values().copied().collect();
        let peers = 0..sim.peers.nodes.len() as u32;
        assert!(ids.iter().all(|&id| sim.world.is_alive(id)));
        assert_eq!(ids.len(), peers.filter(|&v| sim.world.is_alive(v)).count());
        assert_eq!((table.len(), placement.len()), (ids.len(), ids.len()));
        for (r, &id) in ids.iter().enumerate() {
            assert_eq!(placement.key(r as u32), sim.peers.keys[id as usize]);
            let (row, _) = table.row(r as u32);
            assert!(!row.is_empty(), "alive peer {id} has no live contacts");
            let node = &sim.peers.nodes[id as usize];
            let mut live: Vec<u32> = node.preds[..1]
                .iter()
                .chain(node.succ.iter())
                .chain(sim.peers.links.row_slice(id))
                .copied()
                .filter(|&v| v != id && sim.world.is_alive(v))
                .collect();
            live.sort_unstable();
            live.dedup();
            let mut got = Vec::new();
            for &v in row {
                assert!(
                    (v as usize) < ids.len() && v != r as u32,
                    "row {r} names itself or an out-of-range rank"
                );
                got.push(ids[v as usize]);
            }
            got.sort_unstable();
            assert_eq!(got, live, "row {r}: not the peer's alive contacts");
        }
    }

    /// Every probe routes as [`greedy_route`] does over the same
    /// snapshot, with maintained and unmaintained churn over uniform and
    /// Pareto keys. Debug builds check this inside `probe_routes`; this
    /// test holds it in release, the build `benchmark/` times.
    #[test]
    fn probes_route_like_greedy_route_over_the_live_snapshot() {
        let dists: [Arc<dyn KeyDistribution>; 2] = [
            Arc::new(Uniform),
            Arc::new(TruncatedPareto::new(1.5, 0.01).unwrap()),
        ];
        for dist in dists {
            for maintained in [true, false] {
                let interval = |secs| maintained.then(|| SimTime::from_secs(secs));
                let cfg = SimConfig {
                    churn: ChurnConfig::symmetric(4.0),
                    stabilize_interval: interval(5),
                    refresh_interval: interval(30),
                    ..quiet_config(14, 512)
                };
                let mut sim = Simulator::new(cfg, dist.clone());
                sim.run_until(SimTime::from_secs(60));
                let (placement, table, probes, routes) = sim.probe_routes(1000);
                assert_eq!(routes.len(), 1000);
                let opts = RouteOptions {
                    max_hops: sim.hop_budget(),
                    record_path: false,
                };
                for (&(from, target), got) in probes.iter().zip(&routes) {
                    let want = greedy_route(&placement, table.store(), from, target, &opts);
                    assert_eq!(*got, want, "probe {from} → {target:?}");
                }
                if !maintained {
                    assert!(routes.iter().any(|r| !r.success), "no probe failed");
                }
            }
        }
    }

    /// From one generator state, `converged_overlay` and a ring,
    /// harmonic `SmallWorldBuilder` give the same keys and long rows.
    #[test]
    fn converged_overlay_is_the_builders_draw() {
        let densities: [fn() -> Box<dyn KeyDistribution>; 2] = [
            || Box::new(Uniform),
            || Box::new(TruncatedPareto::new(1.5, 0.01).unwrap()),
        ];
        for n in [8, 1024] {
            for density in densities {
                let (keys, links) = converged_overlay(n, &*density(), &mut Rng::new(5), 0);
                let net = SmallWorldBuilder::new(n)
                    .topology(Metric::Ring)
                    .sampler(LinkSampler::Harmonic)
                    .distribution(density())
                    .build(&mut Rng::new(5))
                    .unwrap();
                let on = format!("n = {n}, {}", density().name());
                assert_eq!(keys, net.placement().keys(), "{on}: keys");
                assert!(links == *net.long_topology(), "{on}: long rows");
            }
        }
    }

    /// `live_overlay` before any event is the draw `converged_overlay`
    /// makes for the seed, bit for bit once the draw's rows are sorted
    /// (it keeps them in draw order). After a fail-only run with no
    /// maintenance (so rows keep their dead targets), it is still a
    /// `with_store` input: keys strictly ascending, and each row the
    /// peer's alive targets as ranks, sorted, with no self or repeat.
    #[test]
    fn live_overlay_round_trips_the_draw_and_drops_the_dead() {
        let cfg = SimConfig {
            churn: ChurnConfig {
                join_rate: 0.0,
                fail_rate: 2.0,
            },
            stabilize_interval: None,
            refresh_interval: None,
            ..quiet_config(13, 256)
        };
        // `Simulator::new`'s draw: the probe fork, then the overlay.
        let mut rng = Rng::new(cfg.seed);
        let _probe = rng.fork();
        let (keys, links) = converged_overlay(cfg.initial_n, &Uniform, &mut rng, 0);
        let rows: Vec<Vec<u32>> = (0..links.len() as u32)
            .map(|u| {
                let mut row = links.neighbors(u).to_vec();
                row.sort_unstable();
                row
            })
            .collect();
        let drawn = (keys, Topology::from_rows(&rows));
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        assert!(sim.live_overlay() == drawn, "t = 0 overlay differs");
        sim.run_until(SimTime::from_secs(40));
        let (keys, topo) = sim.live_overlay();
        assert_eq!(keys.len(), sim.alive_count());
        assert_eq!(topo.len(), keys.len());
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys ascending");
        let mut dropped = 0;
        for (r, key) in keys.iter().enumerate() {
            let row = topo.neighbors(r as u32);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {r} sorted");
            assert!(
                row.iter()
                    .all(|&v| (v as usize) < keys.len() && v != r as u32),
                "row {r} names itself or an out-of-range peer"
            );
            let raw = sim.peers.links.row_slice(sim.world.index().0[key]);
            let mut live: Vec<Key> = raw
                .iter()
                .filter(|&&v| sim.world.is_alive(v))
                .map(|&v| sim.peers.keys[v as usize])
                .collect();
            live.sort();
            let got: Vec<Key> = row.iter().map(|&v| keys[v as usize]).collect();
            assert_eq!(got, live, "row {r}: not the peer's alive targets");
            dropped += raw.len() - live.len();
        }
        assert!(sim.metrics().failures > 40, "{}", sim.metrics().failures);
        assert!(dropped > 0, "the run left no dead target to drop");
    }

    #[test]
    fn probe_is_deterministic() {
        let probe = |seed| {
            let mut sim = Simulator::new(quiet_config(seed, 512), Arc::new(Uniform));
            sim.run_until(SimTime::from_secs(10));
            let (ok, hops) = sim.probe_lookups(300);
            (ok.to_bits(), hops.mean().to_bits())
        };
        assert_eq!(probe(13), probe(13));
    }

    #[test]
    fn maintenance_costs_are_accounted() {
        let mut sim = Simulator::new(quiet_config(7, 128), Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(120));
        let m = sim.metrics();
        assert!(m.stabilize_messages > 0);
        assert!(m.refresh_messages > 0);
    }

    #[test]
    fn failures_leave_population_floor() {
        let cfg = SimConfig {
            churn: ChurnConfig {
                join_rate: 0.0,
                fail_rate: 50.0,
            },
            ..quiet_config(8, 64)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(60));
        assert!(sim.alive_count() >= 8, "floor {}", sim.alive_count());
    }

    // ----- message-plane tests (impossible in the whole-walk engine) --

    /// The acceptance scenario: lookups overlap in flight, and at least
    /// one is stranded by a node failing mid-lookup.
    #[test]
    fn lookups_overlap_in_flight_and_strand_under_churn() {
        let cfg = SimConfig {
            stabilize_interval: None,
            refresh_interval: None,
            churn: ChurnConfig {
                join_rate: 2.0,
                fail_rate: 12.0,
            },
            workload: WorkloadConfig { lookup_rate: 50.0 },
            record_lookups: true,
            ..quiet_config(9, 256)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(120));
        let m = sim.metrics();
        assert!(
            m.inflight_peak >= 2,
            "expected concurrent lookups, peak {}",
            m.inflight_peak
        );
        // Find a witness pair of overlapping delivery intervals.
        let recs = sim.lookup_records();
        let overlapping = recs
            .iter()
            .enumerate()
            .any(|(i, a)| recs.iter().skip(i + 1).any(|b| a.overlaps(b)));
        assert!(overlapping, "no overlapping lookup intervals recorded");
        assert!(
            m.lookups_stranded >= 1,
            "expected at least one stranded lookup, got {}",
            m.lookups_stranded
        );
        let stranded = recs
            .iter()
            .find(|r| r.end == WalkEnd::Stranded)
            .expect("stranded record");
        assert!(!stranded.success);
    }

    /// Satellite: per-hop latency accounting. Every hop takes
    /// [`HOP_DELAY`], so every lookup's latency is exactly
    /// `hops * hop + timeouts * penalty`.
    #[test]
    fn latency_accumulates_per_hop_plus_timeout_penalty() {
        let hop = HOP_DELAY;
        let penalty = SimTime::from_millis(500);
        let cfg = SimConfig {
            stabilize_interval: None,
            refresh_interval: None,
            churn: ChurnConfig::symmetric(4.0),
            record_lookups: true,
            ..quiet_config(10, 256)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(90));
        let recs = sim.lookup_records();
        assert!(!recs.is_empty());
        let mut saw_timeout = false;
        for r in recs {
            let expect = SimTime(hop.0 * r.hops as u64 + penalty.0 * r.timeouts as u64);
            assert_eq!(
                r.latency, expect,
                "hops {} timeouts {}: {} != {}",
                r.hops, r.timeouts, r.latency, expect
            );
            saw_timeout |= r.timeouts > 0;
        }
        assert!(saw_timeout, "churn without maintenance must hit timeouts");
        // And the aggregate stat holds samples only for successes.
        let m = sim.metrics();
        assert!(m.lookups_ok < m.lookups, "some lookups must fail here");
        assert_eq!(m.latency_secs.count(), m.lookups_ok);
        assert_eq!(m.hops.count(), m.lookups_ok);
    }

    fn storage_config(seed: u64) -> SimConfig {
        SimConfig {
            churn: ChurnConfig::symmetric(4.0),
            workload: WorkloadConfig { lookup_rate: 10.0 },
            storage: StorageConfig {
                put_rate: 8.0,
                get_rate: 8.0,
                range_rate: 1.0,
                replication: 3,
                preload: 400,
                repair_interval: Some(SimTime::from_secs(5)),
                ..StorageConfig::NONE
            },
            stabilize_interval: Some(SimTime::from_secs(5)),
            refresh_interval: Some(SimTime::from_secs(30)),
            ..quiet_config(seed, 256)
        }
    }

    #[test]
    fn storage_workload_flows_under_churn() {
        let mut sim = Simulator::new(storage_config(14), Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(120));
        let m = sim.metrics();
        assert!(m.puts > 500, "puts {}", m.puts);
        assert!(m.put_success_rate() > 0.95, "{}", m.put_success_rate());
        assert!(m.gets > 500, "gets {}", m.gets);
        assert!(m.get_success_rate() > 0.9, "{}", m.get_success_rate());
        assert!(m.ranges > 50, "ranges {}", m.ranges);
        assert!(m.ranges_ok > 0);
        assert!(m.range_items > 0);
        assert!(m.storage_messages > 1000);
        assert_eq!(m.put_latency_secs.count(), m.puts_ok);
        assert_eq!(m.get_latency_secs.count(), m.gets_ok);
        let keys = sim.durability_census(1).keys;
        assert!(keys > 400, "preload + puts stored");
        assert!(sim.shards().len() > keys, "replica copies stored");
    }

    /// Data dies with its peers now: under churn with repair *disabled*,
    /// a failed peer's shards are dropped, so rows drain out of the
    /// corpus and the losses are accounted — while dead peers' shards
    /// are always empty.
    #[test]
    fn without_repair_churn_bleeds_rows_and_counts_losses() {
        let cfg = SimConfig {
            churn: ChurnConfig::symmetric(6.0),
            workload: WorkloadConfig { lookup_rate: 1.0 },
            storage: StorageConfig {
                preload: 500,
                replication: 2,
                ..StorageConfig::NONE
            },
            ..quiet_config(15, 256)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        let initial_keys = sim.durability_census(2).keys;
        assert!(initial_keys >= 499, "preload collisions should be rare");
        sim.run_until(SimTime::from_secs(120));
        let m = sim.metrics().clone();
        assert!(m.joins > 200 && m.failures > 200);
        assert!(m.keys_lost > 0, "no repair: some keys must be lost");
        // No repair round runs. The only repair traffic is the joins'
        // hand-offs, which carry each joiner its keep arc: from each
        // successor at most two relays of `k + 1 = 3` messages.
        assert!(m.repair_bytes > 0, "joiners receive their keep arcs");
        assert!(m.repair_messages <= m.joins * SUCCESSOR_LIST as u64 * 2 * 3);
        let census = sim.durability_census(2);
        assert_eq!(
            census.keys + m.keys_lost as usize,
            initial_keys,
            "every missing key must be accounted as lost"
        );
        assert!(census.keys < initial_keys, "rows must actually drain");
        for id in 0..sim.peers.nodes.len() {
            if !sim.world.is_alive(id as u32) {
                assert_eq!(
                    sim.shards().shard_len(id as u32),
                    0,
                    "dead peer {id} still holds rows"
                );
            }
        }
    }

    /// The acceptance scenario: peers fail mid-interval, the affected
    /// keys show up as under-replicated, repair traffic flows, and after
    /// churn stops the corpus quiesces back to full replication — while
    /// the same seed with repair disabled permanently loses keys.
    #[test]
    fn repair_recovers_under_replication_and_its_absence_loses_keys() {
        let base = |repair: Option<SimTime>| SimConfig {
            churn: ChurnConfig {
                join_rate: 1.0,
                fail_rate: 3.0,
            },
            workload: WorkloadConfig { lookup_rate: 2.0 },
            storage: StorageConfig {
                preload: 300,
                replication: 3,
                repair_interval: repair,
                ..StorageConfig::NONE
            },
            stabilize_interval: Some(SimTime::from_secs(3)),
            refresh_interval: Some(SimTime::from_secs(30)),
            ..quiet_config(21, 128)
        };

        // With repair: churn knocks keys under target, repair brings
        // them back.
        let mut sim = Simulator::new(base(Some(SimTime::from_secs(5))), Arc::new(Uniform));
        let mut under_peak = 0u64;
        for slice in 1..=12 {
            sim.run_until(SimTime::from_secs(slice * 5));
            under_peak = under_peak.max(sim.metrics().keys_under_replicated);
        }
        assert!(
            under_peak > 0,
            "mid-interval failures must under-replicate keys"
        );
        let m = sim.metrics().clone();
        assert!(m.repair_messages > 0, "repair traffic must flow");
        assert!(m.repair_bytes > 0);
        assert!(
            m.repair_time_secs.count() > 0,
            "some keys must have completed repair"
        );
        assert!(m.repair_overhead() > 0.0);
        // Stop churn, let the repair plane quiesce.
        sim.set_churn(ChurnConfig::NONE);
        sim.run_until(SimTime::from_secs(180));
        assert_eq!(
            sim.metrics().keys_under_replicated,
            0,
            "under-replication must drain after churn stops"
        );
        let census = sim.durability_census(2);
        assert_eq!(census.under_replicated, 0, "census agrees: {census:?}");
        let keys_lost_with = sim.metrics().keys_lost;

        // Same seed, repair disabled: permanent losses.
        let mut sim = Simulator::new(base(None), Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(60));
        let lost_without = sim.metrics().keys_lost;
        assert!(
            lost_without > 0,
            "without repair the same churn must lose keys"
        );
        assert!(
            keys_lost_with < lost_without,
            "repair must reduce losses: {keys_lost_with} vs {lost_without}"
        );
    }

    /// Regression (no oracle resurrection): when a key's owner *and*
    /// every replica fail between repair rounds, the key is counted in
    /// `keys_lost`, no shard ever holds it again, and gets for it keep
    /// failing.
    #[test]
    fn total_copy_loss_between_rounds_is_permanent() {
        let cfg = SimConfig {
            churn: ChurnConfig {
                join_rate: 0.0,
                fail_rate: 4.0,
            },
            workload: WorkloadConfig { lookup_rate: 2.0 },
            storage: StorageConfig {
                preload: 300,
                get_rate: 10.0,
                replication: 2,
                // Rounds far apart: failure bursts outrun repair.
                repair_interval: Some(SimTime::from_secs(60)),
                ..StorageConfig::NONE
            },
            stabilize_interval: Some(SimTime::from_secs(5)),
            ..quiet_config(22, 64)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(90));
        assert!(
            sim.metrics().keys_lost > 0,
            "owner+replica failures between rounds must lose keys"
        );
        // Identify concrete lost keys from the preloaded get-target pool.
        let lost: Vec<Key> = sim
            .put_keys
            .iter()
            .copied()
            .filter(|&k| sim.live_copies(k) == 0)
            .collect();
        assert!(!lost.is_empty(), "some preloaded keys must be lost");
        let holds_anywhere = |sim: &Simulator, key: Key| {
            (0..sim.peers.nodes.len() as u32).any(|id| sim.peers.store.contains(id, key))
        };
        for &k in &lost {
            assert!(!holds_anywhere(&sim, k), "lost key {k} still stored");
        }
        // Keep running (gets keep targeting the preloaded pool, repair
        // rounds keep firing): lost keys must never resurrect.
        let gets_ok_before = sim.metrics().gets_ok;
        sim.run_until(SimTime::from_secs(300));
        for &k in &lost {
            assert_eq!(sim.live_copies(k), 0, "lost key {k} resurrected");
            assert!(!holds_anywhere(&sim, k), "lost key {k} restored by oracle");
        }
        let m = sim.metrics();
        assert!(
            m.gets > 0 && m.gets_ok < m.gets,
            "gets for lost keys must fail: {} ok of {}",
            m.gets_ok,
            m.gets
        );
        // Sanity: the run kept serving *some* gets for surviving keys.
        assert!(m.gets_ok > gets_ok_before);
    }

    /// The acceptance determinism contract: a full churn + lookups +
    /// storage run digests bit-identically across runs and thread counts.
    #[test]
    fn full_run_bit_identical_across_runs_and_thread_counts() {
        let digest = |parallelism: usize| {
            let cfg = SimConfig {
                parallelism,
                record_lookups: true,
                ..storage_config(16)
            };
            let mut sim = Simulator::new(cfg, Arc::new(TruncatedPareto::new(1.5, 0.01).unwrap()));
            sim.run_until(SimTime::from_secs(60));
            let (probe_ok, probe_hops) = sim.probe_lookups(200);
            let m = sim.metrics();
            (
                (
                    m.lookups,
                    m.lookups_ok,
                    m.lookups_stranded,
                    m.timeouts,
                    m.hops.mean().to_bits(),
                    m.latency_secs.mean().to_bits(),
                ),
                (
                    m.puts,
                    m.puts_ok,
                    m.gets,
                    m.gets_ok,
                    m.gets_fallback,
                    m.ranges,
                    m.ranges_ok,
                    m.range_items,
                    m.storage_messages,
                ),
                (
                    m.joins,
                    m.failures,
                    m.events,
                    sim.alive_count(),
                    sim.shards().len(),
                ),
                (
                    m.repair_messages,
                    m.repair_bytes,
                    m.keys_lost,
                    m.keys_under_replicated,
                    m.stored_bytes,
                    m.repair_time_secs.mean().to_bits(),
                    sim.durability_census(4),
                ),
                (probe_ok.to_bits(), probe_hops.mean().to_bits()),
                sim.lookup_records().len(),
            )
        };
        let one = digest(1);
        assert_eq!(one, digest(1), "identical runs must digest identically");
        for threads in [2, 4, 8] {
            assert_eq!(
                one,
                digest(threads),
                "thread count {threads} changed the run"
            );
        }
    }

    // ----- routing modes ---------------------------------------------

    /// On a static network the two modes are the *same algorithm* on
    /// the wire: iterative takes as many hops as recursive for the same
    /// seed, and pays exactly one extra one-way delay ([`HOP_DELAY`])
    /// per hop — the reply leg that upgrades each hand-off to a full
    /// RTT.
    #[test]
    fn iterative_matches_recursive_hops_and_pays_one_rtt_per_hop() {
        let hop = HOP_DELAY;
        let run = |mode: RoutingMode| {
            let cfg = SimConfig {
                routing_mode: mode,
                record_lookups: true,
                // No maintenance: refresh chains would interleave their
                // link draws differently across modes (probe walks
                // finish at different times) and rewire the overlay.
                stabilize_interval: None,
                refresh_interval: None,
                ..quiet_config(19, 256)
            };
            let mut sim = Simulator::new(cfg, Arc::new(Uniform));
            sim.run_until(SimTime::from_secs(60));
            let mut recs = sim.lookup_records().to_vec();
            // Completion order differs across modes (iterative walks fly
            // longer); issue order is mode-independent.
            recs.sort_by_key(|r| r.issued_at);
            recs
        };
        let rec = run(RoutingMode::Recursive);
        let iter = run(RoutingMode::Iterative);
        // A walk issued close to the run horizon can complete in one
        // mode while still in flight in the other (iterative pays a
        // reply leg per hop), so match records by issue time instead of
        // assuming aligned lists — and insist every unmatched record
        // sits near the horizon, where truncation is the only excuse.
        let truncation_window = SimTime::from_secs(55);
        let merge_join =
            |xs: &[LookupRecord],
             ys: &[LookupRecord],
             on_pair: &mut dyn FnMut(&LookupRecord, &LookupRecord)| {
                let (mut i, mut j) = (0, 0);
                let mut matched = 0usize;
                while i < xs.len() && j < ys.len() {
                    let (a, b) = (&xs[i], &ys[j]);
                    match a.issued_at.cmp(&b.issued_at) {
                        std::cmp::Ordering::Less => {
                            assert!(a.issued_at > truncation_window, "unmatched early record");
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            assert!(b.issued_at > truncation_window, "unmatched early record");
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            on_pair(a, b);
                            matched += 1;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                matched
            };
        let matched = merge_join(&rec, &iter, &mut |a, b| {
            assert_eq!(a.hops, b.hops);
            assert!(a.success && b.success, "static network never fails");
            assert_eq!(a.end, WalkEnd::Arrived);
            assert_eq!(b.end, WalkEnd::Arrived);
            assert_eq!(a.latency, SimTime(hop.0 * a.hops as u64));
            assert_eq!(
                b.latency,
                SimTime(a.latency.0 + hop.0 * a.hops as u64),
                "iterative = recursive + one one-way per hop (a full RTT per hop)"
            );
        });
        assert!(matched > 500, "want a real sample, got {matched}");
    }

    /// The tentpole claim under churn: for the same seed and churn
    /// level, iterative lookups strand+fail strictly less than
    /// recursive ones — the requester survives carrier deaths and fails
    /// over past dead frontiers — and the failover/RTT machinery
    /// actually fires.
    #[test]
    fn iterative_strands_and_fails_strictly_less_than_recursive_under_churn() {
        let run = |mode: RoutingMode| {
            let cfg = SimConfig {
                // No ring stabilization: successor views go stale, so
                // the forwarding strategy itself must absorb the churn.
                stabilize_interval: None,
                refresh_interval: Some(SimTime::from_secs(30)),
                churn: ChurnConfig::symmetric(8.0),
                workload: WorkloadConfig { lookup_rate: 30.0 },
                routing_mode: mode,
                ..quiet_config(9, 512)
            };
            let mut sim = Simulator::new(cfg, Arc::new(Uniform));
            sim.run_until(SimTime::from_secs(120));
            sim.metrics().clone()
        };
        let rec = run(RoutingMode::Recursive);
        let iter = run(RoutingMode::Iterative);
        assert!(rec.lookups_stranded > 0, "recursive must strand here");
        assert_eq!(rec.lookups_failed_over, 0, "no ladder in recursive mode");
        assert!(
            iter.lookups_failed_over > 0,
            "iterative must fail over past dead frontiers"
        );
        assert!(iter.hop_rtt.count() > 0, "hop RTTs must be accounted");
        assert!(
            iter.stranded_or_failed_rate() < rec.stranded_or_failed_rate(),
            "iterative must strand+fail strictly less: {} vs {}",
            iter.stranded_or_failed_rate(),
            rec.stranded_or_failed_rate()
        );
        // The latency price of driving every hop from the requester.
        assert!(
            iter.latency_secs.mean() > rec.latency_secs.mean(),
            "per-hop RTTs must cost latency: {} vs {}",
            iter.latency_secs.mean(),
            rec.latency_secs.mean()
        );
    }

    /// Honest message accounting: storage walks routed iteratively pay
    /// two plane messages per hop, and `storage_messages` must show it.
    #[test]
    fn storage_mode_override_counts_two_messages_per_hop() {
        let run = |mode: RoutingMode| {
            let cfg = SimConfig {
                workload: WorkloadConfig { lookup_rate: 5.0 },
                storage: StorageConfig {
                    put_rate: 10.0,
                    get_rate: 10.0,
                    replication: 2,
                    preload: 100,
                    ..StorageConfig::NONE
                },
                routing_mode: mode,
                stabilize_interval: None,
                refresh_interval: None,
                ..quiet_config(24, 256)
            };
            let mut sim = Simulator::new(cfg, Arc::new(Uniform));
            sim.run_until(SimTime::from_secs(60));
            sim.metrics().clone()
        };
        let rec = run(RoutingMode::Recursive);
        let iter = run(RoutingMode::Iterative);
        // Same workload draws, same hop sequences (static network): the
        // only difference is the query+reply pair per hop. Iterative
        // walks fly longer, so slightly fewer ops complete by the fixed
        // horizon — compare messages *per completed operation*.
        let per_op = |m: &SimMetrics| m.storage_messages as f64 / (m.puts + m.gets) as f64;
        assert!((rec.puts + rec.gets).abs_diff(iter.puts + iter.gets) < 40);
        assert!(
            per_op(&iter) > 1.4 * per_op(&rec),
            "iterative storage routing must pay ~2x routing messages per op: {} vs {}",
            per_op(&iter),
            per_op(&rec)
        );
        // Only an iterative walk measures hop RTTs.
        assert!(iter.hop_rtt.count() > 0);
        assert_eq!(rec.hop_rtt.count(), 0);
    }

    /// Each shim field boots at its constant (the default) and refuses
    /// any other value at boot, never ignoring it.
    #[test]
    fn shim_fields_refuse_every_value_but_their_constant() {
        let boots = |cfg: SimConfig| {
            std::panic::catch_unwind(|| Simulator::new(cfg, Arc::new(Uniform))).is_ok()
        };
        let base = || quiet_config(3, 16);
        assert!(boots(base()), "the default boots");
        let with_storage = |storage: StorageConfig| SimConfig { storage, ..base() };
        let refused = [
            SimConfig {
                latency: LatencyModel::Constant(SimTime::from_millis(20)),
                ..base()
            },
            with_storage(StorageConfig {
                range_width: 0.05,
                ..StorageConfig::NONE
            }),
            with_storage(StorageConfig {
                repair_byte_secs: 1e-8,
                ..StorageConfig::NONE
            }),
            with_storage(StorageConfig {
                routing_mode: Some(RoutingMode::Recursive),
                ..StorageConfig::NONE
            }),
        ];
        for cfg in refused {
            assert!(!boots(cfg.clone()), "{cfg:?} must be refused");
        }
    }

    /// Read repair: a get served by a replica-fallback probe streams the
    /// key straight to the routed owner — even with anti-entropy rounds
    /// disabled, repair traffic flows at read time.
    #[test]
    fn read_repair_pushes_replica_hits_to_owner() {
        let cfg = SimConfig {
            churn: ChurnConfig::symmetric(6.0),
            workload: WorkloadConfig { lookup_rate: 2.0 },
            storage: StorageConfig {
                get_rate: 20.0,
                preload: 500,
                replication: 3,
                repair_interval: None, // anti-entropy off: reads do the repairing
                ..StorageConfig::NONE
            },
            stabilize_interval: Some(SimTime::from_secs(5)),
            ..quiet_config(20, 256)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(120));
        let m = sim.metrics();
        assert!(m.gets_fallback > 0, "churned owners must miss some gets");
        assert!(
            m.gets_read_repaired > 0,
            "replica hits must schedule read repair"
        );
        assert!(
            m.gets_read_repaired <= m.gets_fallback,
            "only fallback-served gets can read-repair"
        );
        assert!(
            m.repair_messages >= m.gets_read_repaired,
            "each read repair is a counted repair message"
        );
        assert!(m.repair_bytes > 0, "read repair pays bytes");
    }

    /// The acceptance determinism contract, per mode: a churn + storage
    /// run digests bit-identically across worker-thread counts in every
    /// routing mode.
    #[test]
    fn every_mode_bit_identical_across_thread_counts() {
        for mode in RoutingMode::ALL {
            let digest = |parallelism: usize| {
                let cfg = SimConfig {
                    parallelism,
                    routing_mode: mode,
                    record_lookups: true,
                    churn: ChurnConfig::symmetric(4.0),
                    workload: WorkloadConfig { lookup_rate: 20.0 },
                    storage: StorageConfig {
                        put_rate: 4.0,
                        get_rate: 8.0,
                        replication: 2,
                        preload: 200,
                        repair_interval: Some(SimTime::from_secs(5)),
                        ..StorageConfig::NONE
                    },
                    stabilize_interval: Some(SimTime::from_secs(5)),
                    refresh_interval: Some(SimTime::from_secs(30)),
                    ..quiet_config(23, 128)
                };
                let mut sim =
                    Simulator::new(cfg, Arc::new(TruncatedPareto::new(1.5, 0.01).unwrap()));
                sim.run_until(SimTime::from_secs(40));
                let (probe_ok, probe_hops) = sim.probe_lookups(100);
                let m = sim.metrics();
                (
                    (
                        m.lookups,
                        m.lookups_ok,
                        m.lookups_stranded,
                        m.lookups_failed_over,
                        m.lookups_exhausted,
                        m.timeouts,
                        m.hops.mean().to_bits(),
                        m.latency_secs.mean().to_bits(),
                        m.hop_rtt.mean().to_bits(),
                    ),
                    (
                        m.puts,
                        m.gets,
                        m.gets_ok,
                        m.gets_fallback,
                        m.gets_read_repaired,
                        m.repair_messages,
                        m.repair_bytes,
                        m.storage_messages,
                        m.events,
                    ),
                    (probe_ok.to_bits(), probe_hops.mean().to_bits()),
                    sim.lookup_records().len(),
                    sim.alive_count(),
                )
            };
            let one = digest(1);
            for threads in [2, 4] {
                assert_eq!(
                    one,
                    digest(threads),
                    "mode {mode:?}: thread count {threads} changed the run"
                );
            }
        }
    }

    #[test]
    fn in_flight_walks_are_visible() {
        let cfg = SimConfig {
            workload: WorkloadConfig { lookup_rate: 200.0 },
            ..quiet_config(17, 256)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(5));
        // At 200 lookups/s with multi-hop flight times, some walks are
        // mid-flight at any instant.
        assert!(sim.in_flight_walks() > 0);
        assert!(sim.metrics().inflight_peak >= 2);
    }

    // ----- thread counts and reopened images -------------------------

    /// The seeded run is bit-identical at every thread count, under the
    /// full mix: churn, maintenance and storage.
    #[test]
    fn thread_counts_run_bit_identical() {
        let digest = |parallelism: usize| {
            let cfg = SimConfig {
                churn: ChurnConfig::symmetric(4.0),
                storage: StorageConfig {
                    put_rate: 2.0,
                    get_rate: 2.0,
                    preload: 100,
                    repair_interval: Some(SimTime::from_secs(20)),
                    ..StorageConfig::NONE
                },
                parallelism,
                ..quiet_config(21, 128)
            };
            let mut sim = Simulator::new(cfg, Arc::new(Uniform));
            sim.run_until(SimTime::from_secs(90));
            let m = sim.metrics();
            (
                m.events,
                m.lookups,
                m.lookups_ok,
                m.hops.mean().to_bits(),
                m.latency_secs.mean().to_bits(),
                m.joins,
                m.failures,
                m.puts_ok,
                m.gets_ok,
                sim.alive_count(),
            )
        };
        let serial = digest(1);
        assert_eq!(serial, digest(3), "3 threads diverged");
        assert_eq!(serial, digest(4), "4 threads diverged");
    }

    /// A 64-peer ring with six harmonic long links per peer, frozen to a
    /// fresh temp file: `(keys, in-memory topology, image path)`.
    fn freeze_small_ring(tag: &str) -> (Vec<Key>, sw_graph::Topology, std::path::PathBuf) {
        let n = 64usize;
        let keys: Vec<Key> = (0..n)
            .map(|i| Key::clamped((i as f64 + 0.5) / n as f64))
            .collect();
        let placement = Placement::from_keys(keys.clone(), Metric::Ring, "test").unwrap();
        let selector =
            LinkSelector::new(&placement, &Uniform, 1.0 / n as f64, LinkSampler::Harmonic);
        let mut lt = LinkTable::new(n);
        let mut rng = Rng::new(77);
        for u in 0..n as u32 {
            lt.add_all(u, selector.sample_links(u, 6, &mut rng));
        }
        let topo = lt.build();
        let path = std::env::temp_dir().join(format!("sw-sim-{tag}-{}.arena", std::process::id()));
        let pos: Vec<f64> = keys.iter().map(|k| k.get()).collect();
        topo.freeze_to(&path, Some(&pos)).unwrap();
        (keys, topo, path)
    }

    /// The seeded run is bit-identical whether the converged rows were
    /// built in memory or round-tripped through a frozen image on disk
    /// (keys read back from its per-node lane) — including churn layered
    /// onto the delta overlay above the immutable base.
    #[test]
    fn heap_and_arena_stores_preload_bit_identical() {
        let (keys, topo, path) = freeze_small_ring("store-identity");
        let n = keys.len();
        let cfg_for = |parallelism: usize| SimConfig {
            churn: ChurnConfig::symmetric(2.0),
            parallelism,
            ..quiet_config(23, n)
        };
        let digest = |mut sim: Simulator| {
            sim.run_until(SimTime::from_secs(60));
            let m = sim.metrics();
            (
                m.events,
                m.lookups,
                m.lookups_ok,
                m.hops.mean().to_bits(),
                m.joins,
                m.failures,
                sim.alive_count(),
            )
        };
        let heap = digest(Simulator::with_store(
            cfg_for(1),
            Arc::new(Uniform),
            keys,
            topo,
        ));
        let arena = digest(Simulator::from_frozen(cfg_for(4), Arc::new(Uniform), &path).unwrap());
        std::fs::remove_file(&path).ok();
        assert_eq!(heap, arena, "the reopened image diverged");
    }

    /// `from_frozen` takes an arbitrary path, so a damaged image must
    /// come back as `Err` — not as a simulator that panics on an
    /// out-of-bounds row once a walk reads it.
    #[test]
    fn from_frozen_rejects_corrupt_images() {
        let (keys, _, path) = freeze_small_ring("corrupt");
        let n = keys.len();
        let good = std::fs::read(&path).unwrap();
        // SWTOPO v2: 5 header words, then `n + 1` u32 offsets padded to
        // whole words, then the edge rows.
        let offsets_byte = 5 * 8;
        let edges_byte = (5 + (n + 1).div_ceil(2)) * 8;
        let open = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            Simulator::from_frozen(quiet_config(23, n), Arc::new(Uniform), &path).map(|_| ())
        };
        assert!(open(&good).is_ok(), "the untouched image opens");
        let mut bad_offset = good.clone();
        let at = offsets_byte + 4 * (n / 2);
        bad_offset[at..at + 4].copy_from_slice(&u32::MAX.to_ne_bytes());
        assert!(open(&bad_offset).is_err(), "one offset word past m");
        let mut bad_target = good.clone();
        bad_target[edges_byte..edges_byte + 4].copy_from_slice(&(n as u32).to_ne_bytes());
        assert!(open(&bad_target).is_err(), "one edge target >= n");
        assert!(open(&good[..good.len() - 8]).is_err(), "truncated");
        std::fs::remove_file(&path).ok();
    }

    /// The token-bucket clock must not rewind. A replica-probe or
    /// range-fragment retry is armed at `sent_at + penalty`, which the
    /// clock has already passed whenever flight plus queue wait
    /// outlasted the penalty; charging the link bucket at that instant
    /// used to set its `last` backwards, and the next send on the link
    /// was then credited the rewound interval a second time. (The bucket
    /// arithmetic itself is `token_bucket_enforces_rate_after_burst` in
    /// `traffic.rs`; the clamp lives in `send_net`, so the regression
    /// is pinned here.)
    #[test]
    fn a_retry_armed_in_the_past_departs_now_and_rewinds_no_bucket() {
        let mut sim = Simulator::new(
            SimConfig {
                initial_n: 16,
                workload: WorkloadConfig { lookup_rate: 0.0 },
                stabilize_interval: None,
                refresh_interval: None,
                congestion: CongestionConfig {
                    link_rate: 100.0,
                    link_burst: 2.0,
                    ..CongestionConfig::NONE
                },
                ..SimConfig::default()
            },
            Arc::new(Uniform),
        );
        sim.run_until(SimTime::from_secs(1));
        let now = sim.now();
        let flight = SimTime::from_millis(1);
        // Fire-and-forget repair rungs nobody handles: only their
        // delivery instants matter.
        let mut send = |depart: SimTime| {
            let pull = Msg::RepairPull(Box::new(RepairPull {
                owner: 1,
                items: Vec::new(),
            }));
            sim.send_net(0, 1, depart, flight, pull);
        };
        // The burst of 2 departs at once, the third owes 10 ms.
        for _ in 0..3 {
            send(now);
        }
        // The retry "departs" half a second ago — it owes 20 ms from
        // *now* — and the send after it owes 30 ms, not nothing.
        send(now - SimTime::from_millis(500));
        send(now);
        let mut arrivals = Vec::new();
        while let Some(env) = sim.plane.deliver_before(SimTime::from_secs(2)) {
            arrivals.push(env.at - now);
        }
        let ms = SimTime::from_millis;
        assert_eq!(arrivals, [ms(1), ms(1), ms(11), ms(21), ms(31)]);
    }

    /// A range whose upper end lies above the highest peer key has its
    /// tail owned by the wrap owner, rank 0, so its sweep ends where it
    /// crosses the top of the ring. Over Pareto keys a range of width
    /// 0.02 covers ≈ 166 peers on average, up to 450, and every range
    /// on a static ring is served, however many peers it covers.
    #[test]
    fn range_sweeps_finish_at_the_top_of_the_ring() {
        let pareto = TruncatedPareto::new(1.5, 0.01).unwrap();
        let dists: [Arc<dyn KeyDistribution>; 2] = [Arc::new(Uniform), Arc::new(pareto)];
        for dist in dists {
            let name = dist.name();
            let cfg = SimConfig {
                seed: 3,
                initial_n: 1024,
                stabilize_interval: None,
                refresh_interval: None,
                workload: WorkloadConfig { lookup_rate: 0.0 },
                storage: StorageConfig {
                    range_rate: 50.0,
                    ..StorageConfig::NONE
                },
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(cfg, dist);
            sim.run_until(SimTime::from_secs(100));
            let m = sim.metrics();
            assert!(m.ranges > 4_000, "{name}: ranges {}", m.ranges);
            assert_eq!(
                m.ranges_ok, m.ranges,
                "{name}: every range on a static ring is served"
            );
        }
    }

    /// A key above every peer key lies on the wrap owner's arc
    /// `(top, rank 0]`. A put, a get and a range there all resolve at
    /// the wrap owner, for both densities, whether the key is nearer
    /// the top peer (the route ends there and shifts one peer on) or
    /// nearer the wrap owner across the top of the ring (the route
    /// ends at the owner itself). An owner test of `key <= own` alone
    /// would move the second case on to rank 1.
    #[test]
    fn storage_above_every_peer_key_resolves_at_the_wrap_owner() {
        let pareto = TruncatedPareto::new(1.5, 0.01).unwrap();
        let dists: [Arc<dyn KeyDistribution>; 2] = [Arc::new(Uniform), Arc::new(pareto)];
        for dist in dists {
            let name = dist.name();
            let cfg = SimConfig {
                stabilize_interval: None,
                refresh_interval: None,
                workload: WorkloadConfig { lookup_rate: 0.0 },
                storage: StorageConfig {
                    replication: 1,
                    preload: 64,
                    ..StorageConfig::NONE
                },
                ..quiet_config(4, 256)
            };
            let mut sim = Simulator::new(cfg, dist);
            let keys = sim.peers.keys.clone();
            let ids = 0..keys.len() as u32;
            let wrap = ids.clone().min_by_key(|&i| keys[i as usize]).unwrap();
            let top = ids.max_by_key(|&i| keys[i as usize]).unwrap();
            let (k0, k_top) = (keys[wrap as usize].get(), keys[top as usize].get());
            // Above `mid` a key is nearer the wrap owner than the top
            // peer, by ring distance.
            let mid = (k_top + 1.0 + k0) / 2.0;
            assert!(mid < 1.0, "{name}: no key above the top is nearer rank 0");
            let origin = keys.len() as u32 / 2;
            for (a, b) in [(k_top, mid), (mid, 1.0)] {
                let at = |f: f64| Key::clamped(a + f * (b - a));
                let (put, get, lo, hi) = (at(0.2), at(0.4), at(0.6), at(0.8));
                sim.store(wrap, get, vec![2]);
                sim.spawn_walk(
                    Purpose::Put {
                        value: vec![1],
                        pending: 0,
                    },
                    put,
                    origin,
                );
                sim.spawn_walk(Purpose::Get, get, origin);
                sim.spawn_walk(Purpose::range(lo, hi), lo, origin);
                let (gets_ok, ranges_ok, range_peers) = {
                    let m = sim.metrics();
                    (m.gets_ok, m.ranges_ok, m.range_peers)
                };
                sim.run_until(sim.now() + SimTime::from_secs(10));
                let m = sim.metrics();
                let case = format!("{name}, keys in ({a}, {b})");
                assert!(sim.peers.store.contains(wrap, put), "{case}: put");
                assert_eq!(m.gets_ok, gets_ok + 1, "{case}: get");
                assert_eq!(m.ranges_ok, ranges_ok + 1, "{case}: range");
                assert_eq!(m.range_peers, range_peers + 1, "{case}: sweep");
            }
        }
    }

    /// A range sweep gathers every stored key in `[lo, hi)` once,
    /// checked against the distinct keys the live shards hold there, at
    /// replication 1 and 3: when `lo` is a peer's own key (that peer
    /// holds one key of the range, not all of it) and when `lo` lies
    /// just past the routed peer whose successor is dead (the route ends
    /// one peer short of `lo`'s owner, and the sweep must pass on
    /// without serving). At replication 3 a sweep that served every row
    /// its peers hold would count the replicas too, and the dead peer's
    /// keys are served from its successor's replicas of its arc.
    #[test]
    fn range_sweeps_gather_every_stored_key_in_the_range() {
        for replication in [1, 3] {
            let cfg = SimConfig {
                stabilize_interval: None,
                refresh_interval: None,
                workload: WorkloadConfig { lookup_rate: 0.0 },
                storage: StorageConfig {
                    replication,
                    preload: 4096,
                    ..StorageConfig::NONE
                },
                ..quiet_config(5, 256)
            };
            let mut sim = Simulator::new(cfg, Arc::new(Uniform));
            let mut by_rank: Vec<u32> = (0..256).collect();
            by_rank.sort_by_key(|&i| sim.peers.keys[i as usize]);
            let ranked: Vec<Key> = by_rank
                .iter()
                .map(|&i| sim.peers.keys[i as usize])
                .collect();
            let key = |rank: usize| ranked[rank];
            let between = |a: usize, f: f64| {
                Key::clamped(key(a).get() + f * (key(a + 1).get() - key(a).get()))
            };
            // The dead successor is the fail stream's first victim.
            let victim = sim.world.fail(&sim.peers.keys).unwrap();
            sim.drop_peer_storage(victim);
            let dead = by_rank.iter().position(|&i| i == victim).unwrap();
            assert!((107..250).contains(&dead), "victim at rank {dead}");
            // The second route starts just below `lo`, so it ends at the
            // dead peer's predecessor rather than at its live successor.
            let exact = (key(100), between(105, 0.5), by_rank[0]);
            let past = (
                between(dead - 1, 0.1),
                between(dead + 5, 0.5),
                by_rank[dead - 2],
            );
            for (case, (lo, hi, origin)) in [("lo at a peer key", exact), ("dead successor", past)]
            {
                let case = format!("{case}, replication {replication}");
                let truth: BTreeSet<Key> = (0..256)
                    .filter(|&p| sim.world.is_alive(p))
                    .flat_map(|p| sim.peers.store.shard_range(p, lo, hi).map(|(k, _)| *k))
                    .collect();
                assert!(!truth.is_empty(), "{case}: no stored key in the range");
                let (ranges_ok, items) = (sim.metrics().ranges_ok, sim.metrics().range_items);
                sim.spawn_walk(Purpose::range(lo, hi), lo, origin);
                sim.run_until(sim.now() + SimTime::from_secs(10));
                let m = sim.metrics();
                assert_eq!(m.ranges_ok, ranges_ok + 1, "{case}: served");
                assert_eq!(m.range_items - items, truth.len() as u64, "{case}: items");
            }
        }
    }

    /// Every peer key fits inside one range of width 0.02, so the sweep
    /// runs from the wrap owner (the first peer above `lo`) round the
    /// ring and back to it, which then serves the items above the top
    /// peer. Each stored key of the range is counted once: none in
    /// `[lo, wrap owner]` twice, and no replica, at replication 3.
    #[test]
    fn a_range_over_every_peer_key_counts_each_item_once() {
        let n = 16;
        let keys: Vec<Key> = (0..n)
            .map(|i| Key::clamped(0.5 + 0.001 * i as f64))
            .collect();
        let cfg = SimConfig {
            stabilize_interval: None,
            refresh_interval: None,
            workload: WorkloadConfig { lookup_rate: 0.0 },
            storage: StorageConfig {
                replication: 3,
                ..StorageConfig::NONE
            },
            ..quiet_config(9, n)
        };
        let mut sim = Simulator::with_store(cfg, Arc::new(Uniform), keys, Topology::empty(n));
        let (lo, hi) = (Key::clamped(0.499), Key::clamped(0.519));
        let stored = [0.4995, 0.5, 0.5005, 0.507, 0.5155, 0.517, 0.5185].map(Key::clamped);
        for k in stored {
            // The owner is the first peer at or above `k`, rank 0 above
            // the top; its two successors hold replicas.
            let owner = sim.peers.keys.partition_point(|&p| p < k) % n;
            for d in 0..3 {
                sim.store(((owner + d) % n) as u32, k, vec![1]);
            }
        }
        let before = sim.metrics().clone();
        sim.spawn_walk(Purpose::range(lo, hi), lo, 8);
        sim.run_until(sim.now() + SimTime::from_secs(10));
        let m = sim.metrics();
        assert_eq!(m.ranges_ok, before.ranges_ok + 1, "served");
        assert_eq!(m.range_items - before.range_items, stored.len() as u64);
        assert_eq!(m.range_peers - before.range_peers, n as u64 + 1);
    }

    /// `lo` lies below the lowest peer key and the route ends at the top
    /// peer, whose successor, the lowest peer, is dead: the top peer
    /// serves nothing, and after the timeout the sweep starts at the
    /// next live peer, which holds `[lo, self]` with the dead peer's
    /// replicas. Each range is served whole, whether `hi` lies past that
    /// peer or on its arc.
    #[test]
    fn a_sweep_whose_route_ends_at_the_top_starts_past_a_dead_wrap_owner() {
        let keys: Vec<Key> = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
            .map(Key::clamped)
            .to_vec();
        let n = keys.len();
        let cfg = SimConfig {
            stabilize_interval: None,
            refresh_interval: None,
            workload: WorkloadConfig { lookup_rate: 0.0 },
            storage: StorageConfig {
                replication: 2,
                ..StorageConfig::NONE
            },
            ..quiet_config(9, n)
        };
        let mut sim = Simulator::with_store(cfg, Arc::new(Uniform), keys, Topology::empty(n));
        let stored = [0.01, 0.05, 0.15, 0.25].map(Key::clamped);
        for k in stored {
            let owner = sim.peers.keys.partition_point(|&p| p < k) % n;
            for d in 0..2 {
                sim.store(((owner + d) % n) as u32, k, vec![1]);
            }
        }
        let (lowest, top) = (0, n as u32 - 1);
        fail_peer(&mut sim, lowest);
        let lo = Key::clamped(0.0);
        for (hi, want) in [(0.28, 4), (0.12, 2)] {
            let before = sim.metrics().clone();
            sim.spawn_walk(Purpose::range(lo, Key::clamped(hi)), lo, top);
            sim.run_until(sim.now() + SimTime::from_secs(10));
            let m = sim.metrics();
            assert_eq!(m.ranges_ok, before.ranges_ok + 1, "[0, {hi}) served");
            assert_eq!(m.range_items - before.range_items, want, "[0, {hi}) items");
        }
    }

    /// The tail of the storage op routed as `qid`: its route's slot
    /// under the next generation.
    fn tail(sim: &Simulator, qid: QueryId) -> Option<&Walk> {
        sim.walks.get(qid + (1 << 32))
    }

    /// Peer `p` fails now, as a churn failure takes it down.
    fn fail_peer(sim: &mut Simulator, p: u32) {
        sim.world.take_down(p, &sim.peers.keys);
        sim.drop_peer_storage(p);
    }

    /// A peer that has failed sends nothing more. A get fallback whose
    /// routed owner fails while its first probe times out ends unserved,
    /// and so does a range sweep whose holder fails while its fragment
    /// request times out, as a walk strands at a dead holder. Without
    /// the liveness test the owner probes the next replica, which holds
    /// the key, and the holder retries the next successor, and both are
    /// served.
    #[test]
    fn a_failed_sender_ends_its_get_fallback_and_its_range_sweep() {
        let cfg = SimConfig {
            stabilize_interval: None,
            refresh_interval: None,
            workload: WorkloadConfig { lookup_rate: 0.0 },
            storage: StorageConfig {
                replication: 3,
                preload: 1,
                ..StorageConfig::NONE
            },
            ..quiet_config(6, 256)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        // Peer id is key rank at t = 0; a key just below peer `p`'s key
        // is `p`'s, and a walk from `p` to it ends at `p`.
        let below = |sim: &Simulator, p: usize| {
            let (a, b) = (sim.peers.keys[p - 1].get(), sim.peers.keys[p].get());
            Key::clamped(a + 0.9 * (b - a))
        };

        // The get: owner 100 misses, its first successor is dead, and
        // the second holds the key.
        let key = below(&sim, 100);
        sim.store(102, key, vec![1]);
        fail_peer(&mut sim, 101);
        let (gets, gets_ok) = (sim.metrics().gets, sim.metrics().gets_ok);
        let qid = sim.spawn_walk(Purpose::Get, key, 100);
        assert!(
            matches!(tail(&sim, qid), Some(w) if matches!(w.purpose, Purpose::Get) && w.cur == 100),
            "the owner probes its dead successor"
        );
        fail_peer(&mut sim, 100);
        sim.run_until(sim.now() + SimTime::from_secs(10));
        assert_eq!(sim.metrics().gets, gets + 1, "the get ended");
        assert_eq!(sim.metrics().gets_ok, gets_ok, "a dead owner probed on");

        // The sweep: holder 150 serves its part, sends to its dead
        // successor and fails before the retry.
        let (lo, hi) = (below(&sim, 150), below(&sim, 155));
        fail_peer(&mut sim, 151);
        let (ranges, ranges_ok) = (sim.metrics().ranges, sim.metrics().ranges_ok);
        let qid = sim.spawn_walk(Purpose::range(lo, hi), lo, 150);
        assert!(
            matches!(tail(&sim, qid), Some(w) if matches!(w.purpose, Purpose::Range { .. }) && w.cur == 150),
            "the holder asks its dead successor"
        );
        fail_peer(&mut sim, 150);
        sim.run_until(sim.now() + SimTime::from_secs(10));
        assert_eq!(sim.metrics().ranges, ranges + 1, "the sweep ended");
        assert_eq!(sim.metrics().ranges_ok, ranges_ok, "a dead holder retried");
    }

    /// A join pushes replica `r` out of owner `a`'s chain: the joiner
    /// sits between `a` and `a + 1`, so `a`'s chain becomes `a`, the
    /// joiner and `a + 1`. `r` learns of the joiner from the splice and
    /// hands `a`'s arc off at once, through `a + 1`, the joiner and `a`,
    /// before any copy has reached the joiner. `r` keeps every copy of
    /// `a`'s arc until the joiner holds them all, and drops them all on
    /// the release, before its next repair round. A holder that dropped
    /// its copies before their release fails here.
    #[test]
    fn a_replica_pushed_out_of_a_chain_keeps_its_copies_until_the_joiner_holds_them() {
        let cfg = SimConfig {
            stabilize_interval: Some(SimTime::from_secs(3)),
            refresh_interval: None,
            workload: WorkloadConfig { lookup_rate: 0.0 },
            storage: StorageConfig {
                replication: 3,
                preload: 2_000,
                repair_interval: Some(SimTime::from_secs(4)),
                ..StorageConfig::NONE
            },
            ..quiet_config(7, 64)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(10));
        // Peer id is key rank at t = 0, so owner `a` has arc `(a − 1, a]`
        // and replicas `a + 1` and `r`.
        let (a, r) = (20u32, 22u32);
        let (lo, hi) = (sim.peers.keys[19], sim.peers.keys[20]);
        let arc = |sim: &Simulator, p: u32| sim.peers.store.arc_keys(p, lo, hi);
        let held = arc(&sim, r);
        assert!(!held.is_empty(), "r holds no copy of a's arc");

        let keys = &sim.peers.keys;
        let joiner = Key::clamped((keys[20].get() + keys[21].get()) / 2.0);
        assert!(sim.complete_join(joiner));
        let joiner = sim.peers.nodes.len() as u32 - 1;
        assert!(
            !sim.replica_view(a, 0).contains(&r),
            "r is still in a's chain"
        );
        assert!(arc(&sim, joiner).is_empty(), "a copy moved at the join");
        // One event at a time, in `run_until`'s order, until r drops.
        while arc(&sim, r) == held {
            let env = sim.plane.deliver_before(SimTime::from_secs(1_000));
            let msg = env.expect("timers keep the plane busy").msg;
            let round = matches!(msg, Msg::Timer(Timer::Repair, p) if p == r);
            assert!(!round, "r kept a's arc to its next repair round");
            sim.handle(msg);
        }
        assert!(arc(&sim, r).is_empty(), "r kept part of a's arc");
        let joined = arc(&sim, joiner);
        assert!(
            held.iter().all(|k| joined.contains(k)),
            "r dropped a copy the joiner lacks"
        );
    }

    /// A joiner receives its keep arc `(pred_3, joiner]`, at replication
    /// 3, by message. Nothing moves at the join. Its first three
    /// successors each left one chain it joined, and each hands that
    /// arc off at once through its three predecessors, the joiner among
    /// them; `repair_bytes` grows by exactly those relays and their
    /// releases. The successor keeps its copies of the two arcs whose
    /// chains it stays in. The rounds are staggered over 10⁹ s, so no
    /// other repair message is sent.
    #[test]
    fn a_joiner_receives_its_keep_arc_by_message() {
        let cfg = SimConfig {
            stabilize_interval: None,
            refresh_interval: None,
            workload: WorkloadConfig { lookup_rate: 0.0 },
            storage: StorageConfig {
                replication: 3,
                preload: 2_000,
                repair_interval: Some(SimTime::from_secs(1_000_000_000)),
                ..StorageConfig::NONE
            },
            ..quiet_config(8, 64)
        };
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(1));
        // Peer id is key rank at t = 0: the joiner's successors are 21,
        // 22 and 23, and its third predecessor 18.
        let keys = sim.peers.keys.clone();
        let key = Key::clamped((keys[20].get() + keys[21].get()) / 2.0);
        let shard = |sim: &Simulator, p: u32, lo: Key, hi: Key| -> Shard {
            let s = sim.shards().shard(p).into_iter().flatten();
            let on = |k: &Key| Metric::Ring.in_arc(lo, *k, hi);
            s.filter(|(k, _)| on(k))
                .map(|(k, v)| (*k, v.clone()))
                .collect()
        };
        let arc = shard(&sim, 21, keys[18], key);
        assert!(
            arc.len() > 50,
            "{} copies on the joiner's keep arc",
            arc.len()
        );
        // Successor 21 + i left the chain of the arc ending at `ends[i]`.
        let ends = [keys[18], keys[19], keys[20], key];
        let mut relays = 0;
        for i in 0..3 {
            let part = shard(&sim, 21 + i as u32, ends[i], ends[i + 1]);
            if part.is_empty() {
                continue; // nothing to hand off, no message
            }
            let payload: u64 = part.values().map(|v| item_bytes(v)).sum();
            relays += 3 * (REPAIR_HEADER_BYTES + payload);
            relays += REPAIR_HEADER_BYTES + KEY_BYTES * part.len() as u64;
        }
        let kept = shard(&sim, 21, keys[19], keys[21]);
        let bytes = sim.metrics().repair_bytes;
        assert!(sim.complete_join(key));
        let joiner = sim.peers.nodes.len() as u32 - 1;
        assert_eq!(
            sim.shards().shard_len(joiner),
            0,
            "a copy moved at the join"
        );
        sim.run_until(sim.now() + SimTime::from_secs(1));
        assert_eq!(sim.metrics().repair_bytes, bytes + relays);
        assert_eq!(sim.shards().shard(joiner), Some(&arc), "the joiner's arc");
        assert_eq!(
            sim.shards().shard(21),
            Some(&kept),
            "the successor's copies"
        );
    }

    /// Who holds what after quiescence: churn a replicated store with
    /// repair on, stop churn and let it quiesce (as the crate's
    /// `repair_quiesces_to_exact_replication` property does), for both
    /// densities. Every stored key's live holders are then exactly its
    /// owner and that owner's first `r − 1` live successors; the census
    /// pins only how many copies there are.
    #[test]
    fn quiesced_copies_sit_on_the_owner_and_its_successors() {
        let pareto = TruncatedPareto::new(1.5, 0.01).unwrap();
        let dists: [Arc<dyn KeyDistribution>; 2] = [Arc::new(Uniform), Arc::new(pareto)];
        for dist in dists {
            let name = dist.name();
            let replication = 3;
            let cfg = SimConfig {
                churn: ChurnConfig::symmetric(2.0),
                workload: WorkloadConfig { lookup_rate: 2.0 },
                storage: StorageConfig {
                    put_rate: 2.0,
                    preload: 300,
                    replication,
                    repair_interval: Some(SimTime::from_secs(4)),
                    ..StorageConfig::NONE
                },
                stabilize_interval: Some(SimTime::from_secs(3)),
                refresh_interval: Some(SimTime::from_secs(20)),
                ..quiet_config(23, 128)
            };
            let mut sim = Simulator::new(cfg, dist);
            sim.run_until(SimTime::from_secs(40));
            assert!(sim.metrics().failures > 40, "{name}: churn ran");
            sim.set_churn(ChurnConfig::NONE);
            sim.run_until(SimTime::from_secs(160));
            let mut holders: BTreeMap<Key, Vec<u32>> = BTreeMap::new();
            for p in 0..sim.peers.nodes.len() as u32 {
                for &k in sim.shards().shard(p).into_iter().flat_map(|s| s.keys()) {
                    assert!(sim.world.is_alive(p), "{name}: dead peer {p} holds {k}");
                    holders.entry(k).or_default().push(p);
                }
            }
            assert!(holders.len() > 300, "{name}: {} keys", holders.len());
            for (k, mut held) in holders {
                let owner = sim.world.owner_of(k);
                let (succ, _) = sim
                    .world
                    .oracle()
                    .ring_state(sim.peers.keys[owner as usize]);
                let mut want: Vec<u32> = [owner]
                    .into_iter()
                    .chain(succ.iter().copied().take(replication - 1))
                    .collect();
                held.sort_unstable();
                want.sort_unstable();
                assert_eq!(held, want, "{name}: holders of {k}");
            }
        }
    }

    /// The t = 0 replica chain by search: the first `count` peers after
    /// `owner` in a walk of the alive index from its key, wrapping. The
    /// boot's rank arithmetic ([`World::preload`]) replaced it; it stays
    /// as that arithmetic's oracle.
    fn replica_chain_by_search(
        alive: &BTreeMap<Key, u32>,
        owner_key: Key,
        count: usize,
    ) -> Vec<u32> {
        let owner = alive[&owner_key];
        alive
            .range((
                std::ops::Bound::Excluded(owner_key),
                std::ops::Bound::Unbounded,
            ))
            .chain(alive.range(..owner_key))
            .map(|(_, &v)| v)
            .filter(|&v| v != owner)
            .take(count)
            .collect()
    }

    /// The boot reads the t = 0 state off the key ranks. Against the
    /// search path it replaced — a [`World`] that joins one key at a
    /// time, then [`Oracle::ring_state`] over the full alive set, and
    /// B-tree lookups for every preloaded item — it must give the same
    /// alive index,
    /// ring state, owners and replica chains. Replication 9 asks for
    /// more replicas than the successor list holds and, at n = 8, more
    /// than there are other peers.
    #[test]
    fn t0_state_by_rank_matches_the_search_oracle() {
        let pareto = TruncatedPareto::new(1.5, 0.01).unwrap();
        let dists: [Arc<dyn KeyDistribution>; 2] = [Arc::new(Uniform), Arc::new(pareto)];
        for n in [8usize, 9, 13, 1024] {
            for dist in &dists {
                for replication in [1usize, 3, 9] {
                    let preload = 4 * n;
                    let cfg = SimConfig {
                        storage: StorageConfig {
                            replication,
                            preload,
                            ..StorageConfig::NONE
                        },
                        ..quiet_config(n as u64 + replication as u64, n)
                    };
                    let case = format!("n {n}, {}, replication {replication}", dist.name());
                    let sim = Simulator::new(cfg.clone(), dist.clone());

                    let (keys, seed) = (&sim.peers.keys, cfg.seed);
                    let mut search = World::new(&cfg, dist.clone(), &[]);
                    for &key in keys {
                        search.join(key);
                    }
                    let (alive, ids, pos) = sim.world.index();
                    assert_eq!(alive, search.index().0, "{case}");
                    assert_eq!(ids, search.index().1, "{case}");
                    assert_eq!(pos, search.index().2, "{case}");
                    for (id, a) in sim.peers.nodes.iter().enumerate() {
                        let b = search.oracle().ring_state(keys[id]);
                        assert_eq!(&*a.succ, &*b.0, "{case}: succ of {id}");
                        assert_eq!(a.preds, b.1, "{case}: preds of {id}");
                    }

                    let replicas = replication - 1;
                    let mut rng = Rng::stream(seed, stream::PRELOAD);
                    for (_, _, by_rank) in sim.world.preload(&cfg, keys) {
                        let key = dist.sample_key(&mut rng);
                        let owner = sim.world.owner_of(key);
                        let chain = replica_chain_by_search(alive, keys[owner as usize], replicas);
                        let by_rank: Vec<u32> = by_rank.collect();
                        assert_eq!(by_rank, chain, "{case}: chain of {owner}");
                        assert!(
                            sim.peers.store.contains(owner, key),
                            "{case}: owner {owner}"
                        );
                        for &r in &chain {
                            assert!(sim.peers.store.contains(r, key), "{case}: replica {r}");
                        }
                        assert_eq!(sim.live_copies(key), 1 + chain.len() as u32, "{case}");
                    }
                    assert_eq!(sim.put_keys.len(), preload, "{case}");
                }
            }
        }
    }

    /// The inline successor list against the `Vec<u32>` it replaced,
    /// under the three things the engine does to one: rebuild it
    /// ([`Oracle::ring_state`]), push while rebuilding, and splice a joiner
    /// in front (`insert(0, id)` + `truncate`).
    #[test]
    fn inline_successor_list_matches_the_vec_model() {
        for seed in 0..64u64 {
            let mut rng = Rng::new(seed ^ 0x5ACC_1157);
            let mut list = SuccList::default();
            let mut model: Vec<u32> = Vec::new();
            for _ in 0..200 {
                let v = rng.next_u64() as u32;
                match rng.bounded_u64(8) {
                    0 => {
                        list = SuccList::default();
                        model.clear();
                    }
                    1..=4 if model.len() < SUCCESSOR_LIST => {
                        list.push(v);
                        model.push(v);
                    }
                    _ => {
                        list.insert_front(v);
                        model.insert(0, v);
                        model.truncate(SUCCESSOR_LIST);
                    }
                }
                assert_eq!(&*list, &model[..], "seed {seed}");
                assert!(list.len() <= SUCCESSOR_LIST);
                assert_eq!(list.first(), model.first());
            }
        }
    }

    // Every operation issued has ended or is in flight, per kind, at
    // random cuts of a run with churn, storage (ranges included), repair
    // and cached traffic: `*_issued` equals the ended count plus the
    // walks of that kind in the slab (storage tails included). The ended
    // counts are bumped at the end, so a run cut with operations in
    // flight is where the two differ.
    proptest! {
        #[test]
        fn issued_operations_have_ended_or_are_in_flight(seed in 0u64..12) {
            let cfg = SimConfig {
                churn: ChurnConfig::symmetric(3.0),
                storage: StorageConfig {
                    put_rate: 10.0,
                    get_rate: 10.0,
                    range_rate: 4.0,
                    replication: 3,
                    preload: 200,
                    repair_interval: Some(SimTime::from_secs(2)),
                    ..StorageConfig::NONE
                },
                traffic: TrafficConfig {
                    rate: 20.0,
                    zipf_s: 1.0,
                    hot_keys: 32,
                    gateways: 4,
                    cache: Some(crate::traffic::CacheConfig {
                        capacity: 8,
                        ttl: SimTime::from_secs(2),
                    }),
                },
                stabilize_interval: Some(SimTime::from_secs(2)),
                refresh_interval: Some(SimTime::from_secs(10)),
                ..quiet_config(seed, 96)
            };
            let mut sim = Simulator::new(cfg, Arc::new(Uniform));
            let mut rng = Rng::new(seed ^ 0x155_E4ED);
            let mut in_flight_seen = 0;
            for _ in 0..6 {
                let cut = sim.now() + SimTime(1 + rng.bounded_u64(3_000_000));
                sim.run_until(cut);
                let mut open = [0u64; 4];
                for w in sim.walks.values() {
                    match w.purpose {
                        Purpose::Lookup { .. } => open[0] += 1,
                        Purpose::Put { .. } => open[1] += 1,
                        Purpose::Get => open[2] += 1,
                        Purpose::Range { .. } => open[3] += 1,
                        _ => {}
                    }
                }
                in_flight_seen += open.iter().sum::<u64>();
                let m = sim.metrics();
                prop_assert_eq!(m.lookups_issued, m.lookups + open[0], "lookups");
                prop_assert_eq!(m.puts_issued, m.puts + open[1], "puts");
                prop_assert_eq!(m.gets_issued, m.gets + open[2], "gets");
                prop_assert_eq!(m.ranges_issued, m.ranges + open[3], "ranges");
            }
            let m = sim.metrics();
            prop_assert!(m.cache_hits > 0 && m.ranges > 0 && m.failures > 0);
            prop_assert!(in_flight_seen > 0, "no cut caught an operation in flight");
        }
    }

    /// The plane's lanes carry the engine's sends. Of the sends after
    /// the boot sort, at least 90 % join a lane on the churn golden's
    /// config (0.991 read), and at least 65 % on the traffic golden's
    /// (0.670 read): about a quarter of its sends are the open-loop
    /// generator's Poisson arrivals, and its link buckets and queue
    /// waits move a tenth of its network messages off the fixed
    /// delays. The configs are `tests/end_to_end.rs`'s two fingerprint
    /// goldens, booted by `Simulator::new` at the goldens' 2 048 Pareto
    /// peers. A delay that stops matching its lane, e.g. a jittered
    /// hop, fails here before it shows as a slower benchmark.
    #[test]
    fn most_sends_join_a_plane_lane() {
        let share = |cfg: SimConfig| {
            let cfg = SimConfig {
                initial_n: 2048,
                ..cfg
            };
            let mut sim = Simulator::new(cfg, Arc::new(TruncatedPareto::new(1.5, 0.01).unwrap()));
            let boot = sim.plane.sent();
            sim.run_until(SimTime::from_secs(8));
            sim.plane.laned as f64 / (sim.plane.sent() - boot) as f64
        };
        let churn = share(SimConfig {
            seed: 12,
            churn: ChurnConfig::symmetric(10.0),
            workload: WorkloadConfig { lookup_rate: 200.0 },
            storage: StorageConfig {
                put_rate: 20.0,
                get_rate: 20.0,
                range_rate: 5.0,
                replication: 3,
                preload: 400,
                repair_interval: Some(SimTime::from_secs(2)),
                ..StorageConfig::NONE
            },
            stabilize_interval: Some(SimTime::from_secs(1)),
            refresh_interval: Some(SimTime::from_secs(3)),
            ..SimConfig::default()
        });
        let traffic = share(SimConfig {
            seed: 11,
            stabilize_interval: None,
            refresh_interval: None,
            workload: WorkloadConfig { lookup_rate: 0.0 },
            congestion: CongestionConfig {
                service_secs_per_msg: 5e-3,
                queue_cap: 2,
                link_rate: 100.0,
                link_burst: 2.0,
            },
            traffic: TrafficConfig {
                rate: 2_000.0,
                zipf_s: 0.9,
                hot_keys: 128,
                gateways: 8,
                cache: Some(crate::traffic::CacheConfig {
                    capacity: 32,
                    ttl: SimTime::from_secs(1),
                }),
            },
            ..SimConfig::default()
        });
        assert!(churn >= 0.90, "churn golden: {churn:.3} of sends on a lane");
        assert!(
            traffic >= 0.65,
            "traffic golden: {traffic:.3} of sends on a lane"
        );
    }

    /// Layout pins for the records the event path moves and holds most.
    /// The node record must stay within one cache line with room to
    /// spare. The envelope size is an equality, so a `Msg` variant that
    /// grows past 20 bytes unboxed shows up as a deliberately moved
    /// pin. The walk record carries no RNG stream (a hop's delay is
    /// fixed), and its pin keeps one from coming back unnoticed. A walk
    /// slab entry is the walk plus its slot's id (the walk's niche
    /// holds the `Option`), so growth in the hop record shows there too.
    #[test]
    fn hot_record_sizes_are_pinned() {
        use crate::plane::Envelope;
        assert!(
            std::mem::size_of::<SimNode>() <= 56,
            "SimNode grew to {} bytes",
            std::mem::size_of::<SimNode>()
        );
        assert_eq!(std::mem::size_of::<Envelope<Msg>>(), 40);
        assert_eq!(std::mem::size_of::<Walk>(), 208);
        assert_eq!(std::mem::size_of::<(QueryId, Option<Walk>)>(), 216);
    }
}
