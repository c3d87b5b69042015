//! The simulator: configuration, ground-truth state, and the protocol
//! handlers driving the async message plane.
//!
//! See the crate-level docs for the architecture (event ordering,
//! determinism contract, state-machine lifecycle). In short: every
//! routed operation is a [`Walk`] whose hops are individual messages on
//! the [`MessagePlane`], so lookups, joins, refreshes and storage ops
//! interleave with churn and with each other at per-hop granularity.

use crate::latency::LatencyModel;
use crate::metrics::SimMetrics;
use crate::plane::MessagePlane;
use crate::protocol::{
    LookupRecord, Msg, NextHopReply, Purpose, QueryId, RepairDiff, RepairDigest, RepairPull,
    RepairPush, RoutingMode, Source, StorageOp, Timer, Walk, WalkEnd,
};
use crate::time::SimTime;
use crate::traffic::{
    CongestionConfig, HotCache, LinkBuckets, ServiceQueue, TrafficConfig, ZipfSampler,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use sw_core::builder::{long_image, BuildProfile};
use sw_core::config::{LinkSampler, OutDegree};
use sw_dht::{item_bytes, ShardMap, KEY_BYTES};
use sw_graph::prefetch::{prefetch_read, prefetch_span};
use sw_graph::{par, DeltaStore, IdMap, IdSet, LinkTable, Topology};
use sw_keyspace::distribution::KeyDistribution;
use sw_keyspace::stats::OnlineStats;
use sw_keyspace::Topology as Metric;
use sw_keyspace::{Key, Rng};
use sw_overlay::route::{RouteOptions, RouteResult};
use sw_overlay::{greedy_route, route_interleaved, Placement, RouteTable, DEFAULT_INTERLEAVE};

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
    /// Key-space width of generated range queries.
    pub range_width: f64,
    /// Anti-entropy repair round period (`None` disables repair). There
    /// is no oracle recovery path: a failed peer's shards die with it,
    /// and with repair disabled any key whose last live copy was on that
    /// peer is permanently lost.
    pub repair_interval: Option<SimTime>,
    /// Bandwidth model for repair transfers: seconds of extra delivery
    /// delay per payload byte, added on top of the per-message hop
    /// delay (default `1e-8` ≈ 100 MB/s).
    pub repair_byte_secs: f64,
    /// Per-operation routing-mode override for storage walks (puts,
    /// gets, ranges). `None` inherits `SimConfig::routing_mode` — set
    /// it to route data operations iteratively (failover, no stranding)
    /// while cheap lookups stay recursive, or vice versa.
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
        range_width: 0.02,
        repair_interval: None,
        repair_byte_secs: 1e-8,
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
    /// Initial population (built converged, without message cost).
    pub initial_n: usize,
    /// Per-hop latency model.
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
    /// requester-driven iterative with failover. A walk's mode is fixed
    /// when it is spawned. Storage ops can override per operation via
    /// [`StorageConfig::routing_mode`].
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
            latency: LatencyModel::Constant(SimTime::from_millis(50)),
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

/// A replica-retention lease: the holder keeps replica copies on the arc
/// `(lo, hi]` until `expires`. Owners renew leases with every
/// anti-entropy digest; a holder that stops hearing digests for an arc
/// (it fell out of the replica chain) lets the lease lapse and garbage-
/// collects the copies on its next round.
#[derive(Debug, Clone, Copy)]
struct RepairLease {
    lo: Key,
    hi: Key,
    expires: SimTime,
}

/// A simulated peer. Routing state (`pred`, `succ`, and the long-link
/// row in [`Simulator::links`]) is the node's *local view* and can go
/// stale under churn; the simulator's `alive` index is ground truth.
#[derive(Debug, Clone)]
struct SimNode {
    alive: bool,
    /// Clockwise successor list (nearest first), inline: a step reads it
    /// off the node record's own cache lines.
    succ: SuccList,
    /// Counter-clockwise neighbour.
    pred: Option<u32>,
    /// True while a refresh chain is rebuilding this node's long links.
    refreshing: bool,
    /// Replica-retention leases (renewed by incoming repair digests).
    leases: Vec<RepairLease>,
}

impl SimNode {
    /// Peer `id`'s record in the converged ring of `n` key-ranked, all
    /// alive peers: its successors are the next [`SUCCESSOR_LIST`] ids
    /// and its predecessor the id before, mod `n` — what
    /// [`Simulator::repair_ring_state`] finds over that alive set, by
    /// rank instead of by search. Needs `n > SUCCESSOR_LIST`, so that
    /// no peer lists itself.
    fn converged(id: usize, n: usize) -> SimNode {
        let mut succ = SuccList::default();
        for d in 1..=SUCCESSOR_LIST {
            succ.push(((id + d) % n) as u32);
        }
        SimNode {
            alive: true,
            succ,
            pred: Some(((id + n - 1) % n) as u32),
            refreshing: false,
            leases: Vec::new(),
        }
    }
}

/// A successor list of at most [`SUCCESSOR_LIST`] ids stored in the node
/// record itself; derefs to the live prefix, nearest first.
#[derive(Debug, Clone, Copy, Default)]
struct SuccList {
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
    fn push(&mut self, v: u32) {
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

/// Per-key live-copy state, maintained incrementally by the storage
/// accounting helpers (ground-truth durability bookkeeping — the
/// protocol itself never reads it).
#[derive(Debug, Clone, Copy)]
struct CopyState {
    /// Distinct live peers holding a copy (primary or replica).
    copies: u32,
    /// When a removal knocked the key below the replication target
    /// (`None` while fully replicated or still building up).
    under_since: Option<SimTime>,
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

/// What one recursive greedy step decided (see
/// [`Simulator::greedy_step`]).
enum Stepped {
    /// The walk ends here.
    Done(WalkEnd),
    /// Hand the query `from → next`, `flight` on the wire.
    Forward {
        from: u32,
        next: u32,
        flight: SimTime,
    },
}

/// RNG stream indices: the generator processes, the timer stagger, the
/// preload and the link-probe targets.
mod stream {
    pub const JOIN: u64 = 0x101;
    pub const FAIL: u64 = 0x102;
    pub const LOOKUP: u64 = 0x103;
    pub const PUT: u64 = 0x104;
    pub const GET: u64 = 0x105;
    pub const RANGE: u64 = 0x106;
    pub const TIMER: u64 = 0x107;
    pub const PRELOAD: u64 = 0x108;
    pub const LINK: u64 = 0x109;
    pub const TRAFFIC: u64 = 0x10B;

    /// A generator process's stream.
    pub fn of(src: super::Source) -> u64 {
        use super::Source;
        match src {
            Source::Join => JOIN,
            Source::Fail => FAIL,
            Source::Lookup => LOOKUP,
            Source::Put => PUT,
            Source::Get => GET,
            Source::Range => RANGE,
            Source::Traffic => TRAFFIC,
        }
    }
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

/// Latency charged for each timeout on a dead contact.
pub(crate) const TIMEOUT_PENALTY: SimTime = SimTime::from_millis(500);

/// Wire size of a repair digest message (arc bounds + count + hash).
const DIGEST_BYTES: u64 = 32;
/// Fixed header of a repair diff / push / pull message (arc bounds or
/// operation framing) on top of its per-key payload.
const REPAIR_HEADER_BYTES: u64 = 16;

/// The simulator itself (ring topology).
pub struct Simulator {
    cfg: SimConfig,
    dist: Arc<dyn KeyDistribution>,
    /// Probe RNG (forked per measurement call, never by the plane).
    rng: Rng,
    plane: MessagePlane<Msg>,
    nodes: Vec<SimNode>,
    /// `keys[id]` is peer `id`'s key (dead peers keep theirs): the dense
    /// lane every hop decision reads. A greedy step gathers ~25 contact
    /// keys at arbitrary ids; out of 8-byte slots that is an 800 KB
    /// working set at 10⁵ peers, out of the (≤ 56-byte) node records
    /// seven times that.
    keys: Vec<Key>,
    /// Per-peer long-link rows over one base image: the delta overlay
    /// lets churn mutate rows while the converged bulk — built in memory,
    /// or a 10⁷-peer frozen image preloaded straight from disk — stays
    /// immutable and shared.
    links: DeltaStore,
    /// Ground-truth alive index: key → node id.
    alive: BTreeMap<Key, u32>,
    /// Alive ids in O(1)-sample order (swap-remove on failure).
    alive_ids: Vec<u32>,
    /// Position of each node id in `alive_ids` (`u32::MAX` if dead).
    alive_pos: Vec<u32>,
    metrics: SimMetrics,
    /// In-flight walks by query id.
    walks: IdMap<QueryId, Walk>,
    /// Storage ops in their post-routing phase.
    ops: IdMap<QueryId, StorageOp>,
    next_qid: QueryId,
    /// One dedicated stream per generator process, indexed by
    /// [`Source`] (event-order deterministic).
    gen_rng: [Rng; 7],
    /// Timer stagger draws.
    timer_rng: Rng,
    /// Link-probe target draws.
    link_rng: Rng,
    // Storage substrate: one shard per owner peer.
    primary: ShardMap,
    replica: ShardMap,
    /// Ground-truth live-copy counts per stored key (durability
    /// bookkeeping only — never read by the protocol).
    copies: IdMap<Key, CopyState>,
    /// Recovery keys an owner has already requested this repair round
    /// (cleared when its next round starts): with several replicas
    /// diffing concurrently, only the first mismatch requests a key, so
    /// recovery payloads are not streamed — and byte-billed —
    /// `replication - 1` times over. Membership-only (never iterated):
    /// safe for determinism.
    pending_wants: IdMap<u32, IdSet<Key>>,
    /// Keys known to be stored (get targets).
    put_keys: Vec<Key>,
    put_counter: u64,
    inflight_lookups: u64,
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
    /// Requester-side hot-key caches, one per gateway that has issued
    /// traffic (keyed access only — determinism-safe).
    caches: IdMap<u32, HotCache>,
    // Network-message conservation ledger (see `net_counters`).
    net_offered: u64,
    net_dropped: u64,
    net_delivered: u64,
    net_dead: u64,
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
    pub fn with_store(
        cfg: SimConfig,
        dist: Arc<dyn KeyDistribution>,
        keys: Vec<Key>,
        store: Topology,
    ) -> Simulator {
        assert_eq!(keys.len(), store.len(), "one key per stored row");
        assert!(keys.len() >= 8, "simulator needs at least 8 peers");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly ascending (store rows are key-ranked)"
        );
        let mut cfg = cfg;
        cfg.initial_n = keys.len();
        let mut rng = Rng::new(cfg.seed);
        let mut sim = Simulator::empty(cfg, dist, &mut rng);
        let n = keys.len();
        sim.nodes = (0..n).map(|id| SimNode::converged(id, n)).collect();
        sim.node_q = vec![ServiceQueue::default(); n];
        sim.alive = keys.iter().copied().zip(0u32..).collect();
        sim.alive_ids = (0..n as u32).collect();
        sim.alive_pos = (0..n as u32).collect();
        sim.keys = keys;
        sim.links = DeltaStore::new(store);
        sim.boot();
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

    /// The bare simulator shell: every field at its empty/seeded value,
    /// no peers and no storage shards. Constructors populate the
    /// per-peer lanes, the alive index and `links`, then `boot`.
    fn empty(cfg: SimConfig, dist: Arc<dyn KeyDistribution>, rng: &mut Rng) -> Simulator {
        let seed = cfg.seed;
        Simulator {
            dist,
            rng: rng.fork(),
            plane: MessagePlane::new(),
            nodes: Vec::new(),
            keys: Vec::new(),
            links: DeltaStore::new(Topology::empty(0)),
            alive: BTreeMap::new(),
            alive_ids: Vec::new(),
            alive_pos: Vec::new(),
            metrics: SimMetrics::default(),
            walks: IdMap::default(),
            ops: IdMap::default(),
            next_qid: 0,
            gen_rng: Source::ALL.map(|src| Rng::stream(seed, stream::of(src))),
            timer_rng: Rng::stream(seed, stream::TIMER),
            link_rng: Rng::stream(seed, stream::LINK),
            primary: ShardMap::new(0),
            replica: ShardMap::new(0),
            copies: IdMap::default(),
            pending_wants: IdMap::default(),
            put_keys: Vec::new(),
            put_counter: 0,
            inflight_lookups: 0,
            lookup_records: Vec::new(),
            cand_scratch: Vec::new(),
            node_q: Vec::new(),
            link_buckets: LinkBuckets::new(),
            service_time: SimTime::from_secs_f64(cfg.congestion.service_secs_per_msg.max(0.0)),
            gateways: Vec::new(),
            traffic_targets: Vec::new(),
            zipf: None,
            caches: IdMap::default(),
            net_offered: 0,
            net_dropped: 0,
            net_delivered: 0,
            net_dead: 0,
            cfg,
        }
    }

    /// Registers one joining peer with empty ring state and returns its
    /// id: one slot in every per-peer lane (`nodes`, `keys`, `node_q`,
    /// `alive_pos`), so handlers index them without growing them. Only
    /// [`Simulator::complete_join`] calls it; the t = 0 population is
    /// built whole by [`Simulator::with_store`].
    fn push_node(&mut self, key: Key) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(SimNode {
            alive: true,
            succ: SuccList::default(),
            pred: None,
            refreshing: false,
            leases: Vec::new(),
        });
        self.keys.push(key);
        self.node_q.push(ServiceQueue::default());
        self.alive.insert(key, id);
        self.alive_pos.push(self.alive_ids.len() as u32);
        self.alive_ids.push(id);
        id
    }

    /// Shared constructor tail, over peers that already hold their
    /// converged ring state: storage preload, grace leases, and the
    /// recurring generator/timer processes.
    fn boot(&mut self) {
        let sim = self;
        sim.preload_storage();
        // Preloaded replicas were placed by the t=0 oracle; grant every
        // peer a grace lease over the full ring (the degenerate
        // `lo == hi` arc) so the first GC rounds do not retire them
        // before real digests establish per-arc leases.
        if sim.cfg.storage.enabled() && sim.cfg.storage.repair_interval.is_some() {
            let ttl = sim.lease_ttl();
            for (node, &k) in sim.nodes.iter_mut().zip(&sim.keys) {
                node.leases.push(RepairLease {
                    lo: k,
                    hi: k,
                    expires: ttl,
                });
            }
        }
        if sim.cfg.traffic.enabled() {
            // Gateways (the front-ends users hit) and the hot-key
            // universe are fixed subsets of the t = 0 population, drawn
            // from the traffic stream before its first arrival: a
            // bounded gateway set gives each requester-side cache
            // realistic re-reference, and a bounded key universe gives
            // Zipf ranks stable owners. Both draws shuffle id vectors —
            // deterministic at any thread count.
            let n = sim.nodes.len();
            let rng = &mut sim.gen_rng[Source::Traffic as usize];
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
                let dt = next_interval(&mut sim.gen_rng[src as usize], rate);
                sim.plane.send(dt, Msg::Next(src));
            }
        }
        for id in 0..sim.nodes.len() as u32 {
            sim.schedule_timers(id);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.plane.now()
    }

    /// Number of live peers.
    pub fn alive_count(&self) -> usize {
        self.alive.len()
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Walks currently in flight (all purposes).
    pub fn in_flight_walks(&self) -> usize {
        self.walks.len()
    }

    /// Per-lookup records (empty unless `record_lookups` is set).
    pub fn lookup_records(&self) -> &[LookupRecord] {
        &self.lookup_records
    }

    /// The primary storage shards (one per owner peer).
    pub fn primary_store(&self) -> &ShardMap {
        &self.primary
    }

    /// The replica storage shards.
    pub fn replica_store(&self) -> &ShardMap {
        &self.replica
    }

    /// Runs until the virtual clock passes `until`.
    ///
    /// Drains the plane in same-instant batches
    /// ([`MessagePlane::deliver_window`]): one cursor walk per instant
    /// instead of one per envelope, which matters for the wheel under
    /// same-tick bursts (stabilize rounds, replica fan-outs). Handlers
    /// run strictly after their batch is drained; anything they send at
    /// the batch instant gets a larger sequence number and is picked up
    /// by the next `deliver_window` call at the same instant — the
    /// exact order the old pop-one loop produced.
    ///
    /// The drain's cascade hook is the engine's prefetcher: the wheel
    /// re-files a walk message twice on its way down, and each re-file
    /// warms one link of the address chain its handler will walk (see
    /// `prefetch_peer`).
    pub fn run_until(&mut self, until: SimTime) {
        let mut batch = Vec::new();
        while self
            .plane
            .deliver_window_with(until, &mut batch, |level, msg| {
                prefetch_peer(&self.nodes, &self.keys, &self.links, level, msg)
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
        // Divide by the pairs actually drawn: when the alive set runs
        // dry the early break used to leave `queries` in the
        // denominator, biasing the rate downward.
        (ok as f64 / routes.len().max(1) as f64, hops)
    }

    /// [`Simulator::probe_lookups`]'s walks. Up to `queries` (source,
    /// target) pairs of alive peers are drawn from a fork of the engine's
    /// stream. The snapshot is the alive peers by key rank: a placement
    /// of their keys, and a route table whose row `r` is the pred,
    /// successors and long links of the peer at rank `r`, over ranks
    /// (`rank_rows`). Each worker routes one contiguous chunk of the
    /// pairs through the batch kernel. Returns the snapshot, the queries
    /// over ranks and their routes, in draw order.
    fn probe_routes(
        &mut self,
        queries: usize,
    ) -> (Placement, RouteTable, Vec<(u32, Key)>, Vec<RouteResult>) {
        let mut rng = self.rng.fork();
        let (rank, topo) = self.rank_rows(|id| {
            let node = &self.nodes[id as usize];
            let long = self.links.row_slice(id);
            node.pred
                .into_iter()
                .chain(node.succ.iter().copied())
                .chain(long.iter().copied())
        });
        let keys = self.alive.keys().copied().collect();
        let placement = Placement::from_keys(keys, Metric::Ring, self.dist.name())
            .expect("the engine keeps at least 8 peers, with distinct keys");
        let table = RouteTable::build(topo, |v| placement.key(v).get());
        let mut probes = Vec::with_capacity(queries);
        for _ in 0..queries {
            match (self.random_alive(&mut rng), self.random_alive(&mut rng)) {
                (Some(a), Some(b)) => probes.push((rank[a as usize], self.keys[b as usize])),
                _ => break,
            }
        }
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
        let (_, topo) = self.rank_rows(|id| self.links.row_slice(id).iter().copied());
        (self.alive.keys().copied().collect(), topo)
    }

    /// The alive peers re-indexed by key rank, the form both the probe
    /// snapshot and [`Simulator::live_overlay`] read the live state in.
    /// Returns `rank[id]` (`u32::MAX` for a dead peer) and the CSR whose
    /// row `r` is `row_of(id)` of the peer at rank `r`, over ranks: dead
    /// targets dropped, and self links and repeats too ([`LinkTable`]),
    /// each row sorted.
    fn rank_rows<I: IntoIterator<Item = u32>>(
        &self,
        row_of: impl Fn(u32) -> I,
    ) -> (Vec<u32>, Topology) {
        let mut rank = vec![u32::MAX; self.nodes.len()];
        for (r, &id) in self.alive.values().enumerate() {
            rank[id as usize] = r as u32;
        }
        let mut lt = LinkTable::new(self.alive.len());
        for (r, &id) in self.alive.values().enumerate() {
            let row = row_of(id).into_iter().map(|v| rank[v as usize]);
            lt.add_all(r as u32, row.filter(|&v| v != u32::MAX));
        }
        (rank, lt.build())
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

    /// One arrival of a generator process: act on the process's own
    /// stream, then draw the next inter-arrival time from it and
    /// re-arm. A process whose rate reads zero stops here, so
    /// `set_churn` and `set_traffic_rate` can end one mid-run.
    fn next_arrival(&mut self, src: Source) {
        let rate = self.rate(src);
        if rate <= 0.0 {
            return;
        }
        let mut rng = std::mem::replace(&mut self.gen_rng[src as usize], Rng::new(0));
        match src {
            Source::Join => self.do_join_start(&mut rng),
            Source::Fail => self.do_fail(&mut rng),
            Source::Lookup => self.do_lookup_start(&mut rng),
            Source::Put => self.do_put_start(&mut rng),
            Source::Get => self.do_get_start(&mut rng),
            Source::Range => self.do_range_start(&mut rng),
            Source::Traffic => self.do_traffic_lookup(&mut rng),
        }
        let dt = next_interval(&mut rng, rate);
        self.gen_rng[src as usize] = rng;
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
            Msg::NextHopReply(reply) => self.walks.get(&reply.qid).map(|w| w.requester),
            Msg::RepairDigest(digest) => Some(digest.to),
            Msg::RepairDiff(diff) => Some(diff.owner),
            Msg::RepairPush(push) => Some(push.replica),
            Msg::RepairPull(pull) => Some(pull.owner),
            other => unreachable!("not a network message: {other:?}"),
        };
        let live = !lost && {
            let alive = receiver.is_none_or(|to| self.nodes[to as usize].alive);
            if alive {
                self.net_delivered += 1;
            } else {
                self.net_dead += 1;
            }
            alive
        };
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
        self.net_offered += 1;
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
                self.net_dropped += 1;
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
        (
            self.net_offered,
            self.net_dropped,
            self.net_delivered,
            self.net_dead,
        )
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

    /// One open-loop arrival: draw a gateway and a Zipf-ranked hot key
    /// from the traffic stream, serve from the gateway's cache when
    /// fresh, otherwise spawn an ordinary lookup walk. Arrivals are
    /// independent of completions — offered load does not slow down
    /// when the system saturates, which is exactly what pushes the
    /// latency curve past its knee.
    fn do_traffic_lookup(&mut self, rng: &mut Rng) {
        let gw = self.gateways[rng.index(self.gateways.len())];
        let rank = self.zipf.as_ref().expect("traffic enabled").sample(rng);
        if !self.nodes[gw as usize].alive {
            return; // a dead gateway originates nothing this tick
        }
        let target_id = self.traffic_targets[rank];
        let now = self.plane.now();
        if let Some(cache_cfg) = self.cfg.traffic.cache {
            let cache = self
                .caches
                .entry(gw)
                .or_insert_with(|| HotCache::new(cache_cfg.capacity));
            if cache.lookup(u64::from(target_id), now) {
                // Served locally: a completed, successful, zero-hop
                // lookup that never touches the network. The TTL bounds
                // how stale the cached owner can be (see the
                // cache-coherence caveat in the crate docs); a hit on
                // an entry whose owner has since churned still counts
                // ok, which is the price of TTL coherence.
                self.metrics.cache_hits += 1;
                self.metrics.lookups += 1;
                self.metrics.lookups_ok += 1;
                self.metrics.hops.push(0.0);
                self.metrics.latency_secs.push(0.0);
                self.metrics.lookup_latency.record(SimTime::ZERO);
                return;
            }
        }
        let target = self.keys[target_id as usize];
        self.spawn_walk(Purpose::Lookup { target_id }, target, gw);
    }

    // ----- walk state machine ---------------------------------------

    /// Routing mode for a walk of the given purpose: storage ops honour
    /// their per-operation override, everything else uses the sim-wide
    /// mode.
    fn mode_for(&self, purpose: &Purpose) -> RoutingMode {
        match purpose {
            Purpose::Put { .. } | Purpose::Get { .. } | Purpose::Range { .. } => self
                .cfg
                .storage
                .routing_mode
                .unwrap_or(self.cfg.routing_mode),
            _ => self.cfg.routing_mode,
        }
    }

    /// Hop budget of a walk spawned against the current population:
    /// `64 + 8 · ⌈log2(alive)⌉`, far above any greedy route, so hitting
    /// it means a routing loop rather than a long path.
    fn hop_budget(&self) -> u32 {
        64 + 8 * (self.alive.len().max(2) as f64).log2().ceil() as u32
    }

    /// Spawns a walk and executes its first step at the origin.
    fn spawn_walk(&mut self, purpose: Purpose, target: Key, from: u32) -> QueryId {
        let qid = self.next_qid;
        self.next_qid += 1;
        let max_hops = self.hop_budget();
        if matches!(purpose, Purpose::Lookup { .. }) {
            self.inflight_lookups += 1;
            self.metrics.inflight_peak = self.metrics.inflight_peak.max(self.inflight_lookups);
        }
        let mode = self.mode_for(&purpose);
        let walk = Walk::new(purpose, target, mode, from, self.plane.now(), max_hops);
        self.walks.insert(qid, walk);
        match mode {
            RoutingMode::Recursive => self.step_recursive(qid),
            // The origin reads its own routing table for free.
            RoutingMode::Iterative => self.iterative_local_step(qid),
        }
        qid
    }

    /// The unified step executor behind `Msg::Step` — the retry path of
    /// both modes. A recursive walk re-steps at its current node after a
    /// timeout. An iterative walk fails over: its requester takes the
    /// globally next-best unqueried candidate from its pool, which may
    /// be a 2nd-best rung of an *earlier* frontier — a retreat a
    /// recursive hand-off cannot make.
    fn drive_walk(&mut self, qid: QueryId) {
        let Some(walk) = self.walks.get(&qid) else {
            return;
        };
        match walk.mode {
            RoutingMode::Recursive => self.step_recursive(qid),
            RoutingMode::Iterative if !self.nodes[walk.requester as usize].alive => {
                self.finish_walk(qid, WalkEnd::Stranded)
            }
            RoutingMode::Iterative => self.advance_from_pool(qid, true),
        }
    }

    /// Ranked next-hop candidates at `at` toward `target`, from `at`'s
    /// local view, with the walk's exclusions applied — the failover
    /// ladder an iterative frontier hands back (shared
    /// `sw_overlay::greedy_candidates_into` via [`sw_overlay::RingView`]).
    fn ranked_candidates(&mut self, at: u32, target: Key, excluded: &[u32]) -> Vec<u32> {
        let mut buf = std::mem::take(&mut self.cand_scratch);
        let node = &self.nodes[at as usize];
        let cur_d = Metric::Ring.distance(self.keys[at as usize], target);
        let view = sw_overlay::RingView {
            pred: node.pred,
            succ: &node.succ,
            long: self.links.row_slice(at),
        };
        let keys = &self.keys;
        view.candidates_into(
            Metric::Ring,
            target,
            cur_d,
            |v| v == at || excluded.contains(&v),
            |v| keys[v as usize],
            &mut buf,
        );
        let out = buf.iter().map(|&(v, _)| v).collect();
        self.cand_scratch = buf;
        out
    }

    /// One greedy step at the walk's current node (shared
    /// `sw_overlay::greedy_step` via [`sw_overlay::RingView`]) —
    /// recursive mode. Reads the peer lanes as disjoint fields so the
    /// caller's one `walks` borrow spans arrival bookkeeping, the step
    /// and the hand-off's message count; the caller acts on the result
    /// ([`Simulator::act_on_step`]) once that borrow ends.
    fn greedy_step(
        walk: &mut Walk,
        nodes: &[SimNode],
        keys: &[Key],
        links: &DeltaStore,
        latency: LatencyModel,
    ) -> Stepped {
        let cur = walk.cur;
        let node = &nodes[cur as usize];
        if !node.alive {
            // The node holding the query failed, and the query with it.
            return Stepped::Done(WalkEnd::Stranded);
        }
        let cur_d = Metric::Ring.distance(keys[cur as usize], walk.target);
        if cur_d == 0.0 {
            return Stepped::Done(WalkEnd::Arrived);
        }
        if walk.hops >= walk.max_hops {
            return Stepped::Done(WalkEnd::HopLimit);
        }
        let view = sw_overlay::RingView {
            pred: node.pred,
            succ: &node.succ,
            long: links.row_slice(cur),
        };
        let step = view.step(Metric::Ring, walk.target, cur_d, cur, &walk.excluded, |v| {
            keys[v as usize]
        });
        match step {
            None => Stepped::Done(WalkEnd::LocalMinimum),
            Some((next, _)) => {
                walk.msgs += 1;
                Stepped::Forward {
                    from: cur,
                    next,
                    flight: latency.delay(),
                }
            }
        }
    }

    /// Carries out what [`Simulator::greedy_step`] decided: finish the
    /// walk, or put its hand-off on the wire.
    fn act_on_step(&mut self, qid: QueryId, stepped: Stepped) {
        match stepped {
            Stepped::Done(end) => self.finish_walk(qid, end),
            Stepped::Forward { from, next, flight } => {
                let now = self.plane.now();
                self.send_net(
                    from,
                    next,
                    now,
                    flight,
                    Msg::Hop {
                        qid,
                        to: next,
                        sent_at: now,
                    },
                );
            }
        }
    }

    /// Steps a recursive walk at its current node (spawn and retry).
    fn step_recursive(&mut self, qid: QueryId) {
        let Some(walk) = self.walks.get_mut(&qid) else {
            return;
        };
        let stepped =
            Self::greedy_step(walk, &self.nodes, &self.keys, &self.links, self.cfg.latency);
        self.act_on_step(qid, stepped);
    }

    /// A recursively forwarded query arrives at `to` — or, unless
    /// `live`, its sender times out: `to` died while the message was in
    /// flight, or the hand-off was dropped at `to`'s full queue.
    fn deliver_hop(&mut self, qid: QueryId, to: u32, sent_at: SimTime, live: bool) {
        let now = self.plane.now();
        let Some(walk) = self.walks.get_mut(&qid) else {
            return;
        };
        if !live {
            return self.time_out(qid, to, sent_at);
        }
        walk.latency += now - sent_at;
        walk.hops += 1;
        walk.cur = to;
        let stepped =
            Self::greedy_step(walk, &self.nodes, &self.keys, &self.links, self.cfg.latency);
        self.act_on_step(qid, stepped);
    }

    /// Walk `qid`'s driver waited on `contact` since `since` and heard
    /// nothing: the contact died, or the message was dropped. Charge the
    /// timeout, exclude the contact, and retry the walk's next action at
    /// `since + penalty` (the plane clamps an instant already past to
    /// now). A recursive relay sits out the full penalty; an iterative
    /// requester, which has measured every hop RTT on the walk, waits
    /// its [`Walk::adaptive_timeout`].
    fn time_out(&mut self, qid: QueryId, contact: u32, since: SimTime) {
        let walk = self.walks.get_mut(&qid).expect("a timed-out walk is live");
        let penalty = match walk.mode {
            RoutingMode::Recursive => TIMEOUT_PENALTY,
            RoutingMode::Iterative => walk.adaptive_timeout(TIMEOUT_PENALTY),
        };
        walk.timeouts += 1;
        walk.latency += penalty;
        if !walk.excluded.contains(&contact) {
            walk.excluded.push(contact);
        }
        self.plane.send_at(since + penalty, Msg::Step { qid });
    }

    // ----- iterative mode --------------------------------------------

    /// The requester-local first step of an iterative walk: at spawn the
    /// frontier *is* the requester, whose routing table is read for
    /// free — it seeds the candidate pool.
    fn iterative_local_step(&mut self, qid: QueryId) {
        let walk = &self.walks[&qid];
        debug_assert_eq!(walk.cur, walk.requester, "local step away from requester");
        let (requester, target) = (walk.requester, walk.target);
        if !self.nodes[requester as usize].alive {
            // Only the requester's death strands an iterative walk.
            self.finish_walk(qid, WalkEnd::Stranded);
            return;
        }
        let cur_d = Metric::Ring.distance(self.keys[requester as usize], target);
        if cur_d == 0.0 {
            self.finish_walk(qid, WalkEnd::Arrived);
            return;
        }
        let cands = self.ranked_candidates(requester, target, &[]);
        if cands.is_empty() {
            self.finish_walk(qid, WalkEnd::LocalMinimum);
            return;
        }
        let walk = self.walks.get_mut(&qid).expect("walk present");
        walk.set_alternates(cands);
        walk.seen.push(requester);
        self.advance_from_pool(qid, false);
    }

    /// Advances the walk to the globally best unqueried candidate in
    /// its pool. On the healthy path this is the newest frontier's best
    /// candidate — the greedy choice, so static-network hop sequences
    /// match recursive exactly. After timeouts it may retreat to a
    /// 2nd-best rung of an *earlier* frontier and route around the dead
    /// region — persistence a recursive hand-off cannot offer, because
    /// the hand-off left those candidates behind. (Termination stays at
    /// greedy minima: the walk only ever *ends* at a frontier whose own
    /// view offers nothing closer, so storage ops still complete in the
    /// owner region.) A dry pool means every candidate the walk ever
    /// learned was tried and excluded (`Exhausted`).
    fn advance_from_pool(&mut self, qid: QueryId, failover: bool) {
        let Some(walk) = self.walks.get_mut(&qid) else {
            return;
        };
        match walk.next_alternate() {
            None => self.finish_walk(qid, WalkEnd::Exhausted),
            Some(next) => {
                if failover {
                    walk.failovers += 1;
                }
                walk.seen.push(next);
                self.send_next_hop_query(qid, next);
            }
        }
    }

    /// Merges a frontier's fresh candidates into the walk's pool,
    /// keeping it sorted closest-to-target-first (stable: existing
    /// entries win distance ties). Already-queried, excluded and
    /// duplicate nodes never enter.
    fn merge_pool(&mut self, qid: QueryId, fresh: &[u32]) {
        let walk = self.walks.get_mut(&qid).expect("walk present");
        let (keys, target) = (&self.keys, walk.target);
        let d_of = |v: u32| Metric::Ring.distance(keys[v as usize], target);
        let mut pool: Vec<(u32, f64)> = walk
            .pending_alternates()
            .iter()
            .map(|&v| (v, d_of(v)))
            .collect();
        for &v in fresh {
            if walk.seen.contains(&v)
                || walk.excluded.contains(&v)
                || pool.iter().any(|&(u, _)| u == v)
            {
                continue;
            }
            pool.push((v, d_of(v)));
        }
        pool.sort_by(|a, b| a.1.total_cmp(&b.1));
        walk.set_alternates(pool.into_iter().map(|(v, _)| v).collect());
    }

    /// Sends the iterative first leg: requester → frontier candidate
    /// query. Exactly one exchange is in flight per walk.
    fn send_next_hop_query(&mut self, qid: QueryId, to: u32) {
        let now = self.plane.now();
        let walk = self.walks.get_mut(&qid).expect("walk present");
        debug_assert!(
            !walk.excluded.contains(&to),
            "failover must never route through an excluded contact"
        );
        walk.query_sent = now;
        walk.msgs += 1;
        let requester = walk.requester;
        self.send_net(
            requester,
            to,
            now,
            self.cfg.latency.delay(),
            Msg::NextHopQuery {
                qid,
                to,
                sent_at: now,
            },
        );
    }

    /// The candidate query arrives at frontier `to` — or, unless
    /// `live`, the requester times out and fails over: `to` died while
    /// the query was in flight, or the query was dropped at `to`'s full
    /// queue.
    fn deliver_next_hop_query(&mut self, qid: QueryId, to: u32, sent_at: SimTime, live: bool) {
        let now = self.plane.now();
        let Some(walk) = self.walks.get_mut(&qid) else {
            return;
        };
        if !live {
            return self.time_out(qid, to, sent_at);
        }
        // The frontier answers from its local view at delivery time.
        // (The query carried the walk's exclusion list, so the ladder it
        // ranks never contains a contact the requester timed out on.)
        walk.latency += now - sent_at;
        let target = walk.target;
        let excluded = std::mem::take(&mut walk.excluded);
        let at_target = Metric::Ring.distance(self.keys[to as usize], target) == 0.0;
        let candidates = self.ranked_candidates(to, target, &excluded);
        let walk = self.walks.get_mut(&qid).expect("walk present");
        walk.excluded = excluded;
        walk.msgs += 1;
        let requester = walk.requester;
        let wait = self.send_net(
            to,
            requester,
            now,
            self.cfg.latency.delay(),
            Msg::NextHopReply(Box::new(NextHopReply {
                qid,
                from: to,
                sent_at: now,
                at_target,
                candidates,
            })),
        );
        if let Some(wait) = wait {
            // The reply's admission wait at the requester's own queue is
            // congestion the requester directly experiences — fold it
            // into the adaptive timeout so queued-not-lost replies do
            // not read as dead frontiers.
            self.walks
                .get_mut(&qid)
                .expect("walk present")
                .note_wait(wait);
        }
    }

    /// The frontier's answer lands back at the requester: confirm the
    /// hop (RTT accounted), then finish or query the next frontier. A
    /// reply dropped at the requester's own full queue (not `live`, to
    /// a live requester) is a frontier the requester never hears from:
    /// it times out adaptively and fails over, exactly as if the
    /// frontier had died after receiving the query.
    fn deliver_next_hop_reply(
        &mut self,
        NextHopReply {
            qid,
            from,
            sent_at,
            at_target,
            candidates,
        }: NextHopReply,
        live: bool,
    ) {
        let now = self.plane.now();
        let Some(walk) = self.walks.get_mut(&qid) else {
            return;
        };
        if !self.nodes[walk.requester as usize].alive {
            self.finish_walk(qid, WalkEnd::Stranded);
            return;
        }
        if !live {
            // The timeout clock started at the query send.
            let since = walk.query_sent;
            return self.time_out(qid, from, since);
        }
        walk.latency += now - sent_at;
        debug_assert_ne!(from, walk.cur, "a frontier is queried once");
        walk.hops += 1;
        walk.cur = from;
        let rtt = now - walk.query_sent;
        walk.rtt_seen = walk.rtt_seen.max(rtt);
        self.metrics.hop_rtt.push(rtt.as_secs_f64());
        // A frontier whose live view offers nothing closer is a greedy
        // terminus: the walk ends *here*, exactly where a recursive walk
        // would stop (the pool's farther leftovers must not drag a
        // completed route past the owner region).
        let end = if at_target {
            WalkEnd::Arrived
        } else if walk.hops >= walk.max_hops {
            WalkEnd::HopLimit
        } else if candidates.is_empty() {
            WalkEnd::LocalMinimum
        } else {
            self.merge_pool(qid, &candidates);
            return self.advance_from_pool(qid, false);
        };
        self.finish_walk(qid, end);
    }

    /// Terminal transition: remove the walk and dispatch on purpose.
    fn finish_walk(&mut self, qid: QueryId, end: WalkEnd) {
        let mut walk = self.walks.remove(&qid).expect("finishing a live walk");
        let now = self.plane.now();
        self.metrics.timeouts += walk.timeouts as u64;
        // Detach the purpose so the walk's accounting fields can still
        // move into the storage-phase handlers.
        let purpose = std::mem::replace(
            &mut walk.purpose,
            Purpose::Lookup {
                target_id: u32::MAX, // placeholder, never read
            },
        );
        match purpose {
            Purpose::Lookup { target_id } => {
                self.inflight_lookups -= 1;
                self.metrics.lookups += 1;
                // A result nobody can receive is no result: if the
                // requester died while the walk was in flight, the
                // lookup is terminally stranded in *every* mode — this
                // is what keeps the recursive/iterative comparison
                // apples-to-apples (iterative checks the requester at
                // each reply; recursive mode settles up here, when the
                // response would have been sent back).
                let end = if end != WalkEnd::Stranded && !self.nodes[walk.requester as usize].alive
                {
                    WalkEnd::Stranded
                } else {
                    end
                };
                let success = end != WalkEnd::Stranded && walk.cur == target_id;
                match end {
                    WalkEnd::Stranded => self.metrics.lookups_stranded += 1,
                    WalkEnd::Exhausted => self.metrics.lookups_exhausted += 1,
                    _ => {}
                }
                if walk.failovers > 0 {
                    self.metrics.lookups_failed_over += 1;
                }
                if success {
                    self.metrics.lookups_ok += 1;
                    self.metrics.hops.push(walk.hops as f64);
                    self.metrics.latency_secs.push(walk.latency.as_secs_f64());
                    self.metrics.lookup_latency.record(walk.latency);
                    // Fill the requester-side hot cache on the way out:
                    // the *next* lookup for this key from the same
                    // gateway is served locally until the TTL lapses.
                    // Only gateways carry caches — workload lookups
                    // originate anywhere and would grow the map to n
                    // entries.
                    if let Some(cache_cfg) = self.cfg.traffic.cache {
                        if self.gateways.contains(&walk.requester) {
                            self.caches
                                .entry(walk.requester)
                                .or_insert_with(|| HotCache::new(cache_cfg.capacity))
                                .insert(u64::from(target_id), now + cache_cfg.ttl);
                        }
                    }
                }
                if self.cfg.record_lookups {
                    self.lookup_records.push(LookupRecord {
                        issued_at: walk.issued_at,
                        completed_at: now,
                        hops: walk.hops,
                        timeouts: walk.timeouts,
                        failovers: walk.failovers,
                        latency: walk.latency,
                        success,
                        end,
                    });
                }
            }
            Purpose::JoinFind { key } => {
                self.metrics.join_messages += walk.msgs as u64;
                if end == WalkEnd::Stranded || self.alive.contains_key(&key) {
                    self.metrics.joins_aborted += 1;
                } else {
                    self.complete_join(key);
                }
            }
            Purpose::LinkProbe {
                node,
                mut collected,
                budget,
                tries_left,
                refresh,
            } => {
                let msgs = walk.msgs as u64;
                if refresh {
                    self.metrics.refresh_messages += msgs;
                } else {
                    self.metrics.join_messages += msgs;
                }
                // A dead `node` ends the chain with it.
                if self.nodes[node as usize].alive {
                    let v = walk.cur;
                    if end != WalkEnd::Stranded
                        && v != node
                        && self.nodes[v as usize].alive
                        && !collected.contains(&v)
                    {
                        collected.push(v);
                    }
                    if collected.len() < budget && tries_left > 0 {
                        self.spawn_link_probe(node, collected, budget, tries_left, refresh);
                    } else {
                        self.finish_links(node, collected, refresh);
                    }
                }
            }
            // Storage routes hand their walk to the post-routing op
            // state.
            Purpose::Put { key, value } => self.finish_put_route(qid, end, key, value, walk),
            Purpose::Get { key } => self.finish_get_route(qid, end, key, walk),
            Purpose::Range { lo, hi } => self.finish_range_route(qid, end, lo, hi, walk),
        }
    }

    // ----- lookups ---------------------------------------------------

    fn do_lookup_start(&mut self, rng: &mut Rng) {
        if let (Some(from), Some(target_id)) = (self.random_alive(rng), self.random_alive(rng)) {
            let target = self.keys[target_id as usize];
            self.spawn_walk(Purpose::Lookup { target_id }, target, from);
        }
    }

    // ----- churn -----------------------------------------------------

    fn do_join_start(&mut self, rng: &mut Rng) {
        let mut key = self.dist.sample_key(rng);
        while self.alive.contains_key(&key) {
            key = self.dist.sample_key(rng);
        }
        if let Some(entry) = self.random_alive(rng) {
            // Route to the joining key to find the join point; the splice
            // happens when (if) the walk completes.
            self.spawn_walk(Purpose::JoinFind { key }, key, entry);
        }
    }

    /// The join-point walk completed: create and splice the node, move
    /// its shard slice over, and start its long-link probe chain.
    fn complete_join(&mut self, key: Key) {
        let id = self.push_node(key);
        let row_id = self.links.push_node(Vec::new());
        debug_assert_eq!(row_id, id, "link rows track node ids");
        self.repair_ring_state(id);
        // Splice: the new peer's ring neighbours learn about it.
        if let Some(p) = self.nodes[id as usize].pred {
            self.nodes[p as usize].succ.insert_front(id);
        }
        if let Some(&s) = self.nodes[id as usize].succ.first() {
            self.nodes[s as usize].pred = Some(id);
        }
        // Ownership split: the new peer takes the arc between its
        // predecessor and itself from its successor's primary shard.
        if self.cfg.storage.enabled() {
            if let (Some(&succ0), Some(p)) = (
                self.nodes[id as usize].succ.first(),
                self.nodes[id as usize].pred,
            ) {
                let pred_key = self.keys[p as usize];
                self.primary.split_to(succ0, id, pred_key, key);
            }
            // Same grace lease the t=0 population gets: replica copies
            // fanned to the joiner before its arc owners' first digests
            // arrive must survive the joiner's own first GC rounds.
            if self.cfg.storage.repair_interval.is_some() {
                let expires = self.plane.now() + self.lease_ttl();
                self.nodes[id as usize].leases.push(RepairLease {
                    lo: key,
                    hi: key,
                    expires,
                });
            }
        }
        self.metrics.joins += 1;
        self.schedule_timers(id);
        // Long links via routed probes (message-accounted, in-flight).
        let budget = OUT_DEGREE.links_for(self.alive.len());
        self.spawn_link_probe(id, Vec::new(), budget, 8 * budget as u32 + 16, false);
    }

    fn do_fail(&mut self, rng: &mut Rng) {
        // Keep a minimal population so the ring never vanishes.
        if self.alive.len() <= 8 {
            return;
        }
        let victim = self.alive_ids[rng.index(self.alive_ids.len())];
        let key = self.keys[victim as usize];
        self.alive.remove(&key);
        let pos = self.alive_pos[victim as usize];
        self.alive_ids.swap_remove(pos as usize);
        if let Some(&moved) = self.alive_ids.get(pos as usize) {
            self.alive_pos[moved as usize] = pos;
        }
        self.alive_pos[victim as usize] = u32::MAX;
        self.nodes[victim as usize].alive = false;
        if self.cfg.storage.enabled() {
            // The machine is gone: both its shards die with it. Its
            // slice of the key space is durable again only once a
            // surviving replica actually streams it to the new owner
            // through the anti-entropy repair plane — there is no
            // instant-merge oracle. With repair disabled, keys whose
            // last live copy sat here are permanently lost (counted in
            // `keys_lost`).
            self.drop_peer_storage(victim);
        }
        self.metrics.failures += 1;
    }

    // ----- maintenance -----------------------------------------------

    /// A maintenance timer's period, `None` when it is off. Repair
    /// rounds run only beside a storage workload.
    fn period(&self, timer: Timer) -> Option<SimTime> {
        match timer {
            Timer::Stabilize => self.cfg.stabilize_interval,
            Timer::Refresh => self.cfg.refresh_interval,
            Timer::Repair if self.cfg.storage.enabled() => self.cfg.storage.repair_interval,
            Timer::Repair => None,
        }
    }

    /// Arms a new peer's timers, each at a stagger drawn uniformly over
    /// its period so maintenance does not arrive in bursts.
    fn schedule_timers(&mut self, id: u32) {
        for timer in Timer::ALL {
            if let Some(interval) = self.period(timer) {
                let stagger = SimTime(self.timer_rng.bounded_u64(interval.0.max(1)));
                self.plane.send(stagger, Msg::Timer(timer, id));
            }
        }
    }

    /// One round of a peer's timer, which re-arms itself one period on.
    /// A timer dies with its node. Stabilization sends its apply before
    /// it re-arms; the other two re-arm before their round.
    fn fire_timer(&mut self, timer: Timer, id: u32) {
        if !self.nodes[id as usize].alive {
            return;
        }
        let period = self.period(timer).expect("an armed timer has a period");
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

    /// Stabilization round: ping every contact now, apply the repair
    /// when the slowest ping resolves (dead contacts take the timeout
    /// penalty to be noticed). Lookups in flight during the round still
    /// see the stale view — the repair is not instantaneous.
    fn do_stabilize_start(&mut self, id: u32) {
        let node = &self.nodes[id as usize];
        let contacts: Vec<u32> = sw_overlay::RingView {
            pred: node.pred,
            succ: &node.succ,
            long: self.links.row_slice(id),
        }
        .contacts()
        .collect();
        self.metrics.stabilize_messages += contacts.len() as u64;
        let mut resolve = SimTime::ZERO;
        for v in contacts {
            let rtt = if self.nodes[v as usize].alive {
                SimTime(self.cfg.latency.delay().0 * 2)
            } else {
                TIMEOUT_PENALTY
            };
            resolve = resolve.max(rtt);
        }
        self.plane.send(resolve, Msg::StabilizeApply(id));
    }

    fn do_stabilize_apply(&mut self, id: u32) {
        if !self.nodes[id as usize].alive {
            return;
        }
        self.repair_ring_state(id);
        // Prune dead long links in place. A row with no dead contact is
        // left untouched: a base row stays a base read, not a delta copy.
        let nodes = &self.nodes;
        self.links.retain_row(id, |&v| nodes[v as usize].alive);
    }

    /// Long-link refresh: a chain of *routed* probes rebuilding the
    /// node's long links against the current population. The old links
    /// stay in service until the chain completes.
    fn do_refresh_start(&mut self, id: u32) {
        if self.nodes[id as usize].refreshing {
            return; // previous chain still in flight
        }
        self.nodes[id as usize].refreshing = true;
        let budget = OUT_DEGREE.links_for(self.alive.len());
        self.spawn_link_probe(id, Vec::new(), budget, 4 * budget as u32 + 8, true);
    }

    /// Spawns the next probe of a link chain: draw a harmonic-rule
    /// target around `node`'s position and route toward it.
    fn spawn_link_probe(
        &mut self,
        node: u32,
        collected: Vec<u32>,
        budget: usize,
        tries_left: u32,
        refresh: bool,
    ) {
        if budget == 0 || tries_left == 0 {
            self.finish_links(node, collected, refresh);
            return;
        }
        let n = self.alive.len();
        let tau = 1.0 / n as f64;
        let side_weight = (0.5f64 / tau).max(1.0).ln();
        if side_weight <= 0.0 {
            self.finish_links(node, collected, refresh);
            return;
        }
        // Target draws come from the dedicated link stream — chains are
        // spawned in event order, so the draws are deterministic.
        let pos = self.dist.cdf(self.keys[node as usize].get());
        let sign = if self.link_rng.chance(0.5) { 1.0 } else { -1.0 };
        let m = tau * (side_weight * self.link_rng.f64()).exp();
        let target_pos = (pos + sign * m).rem_euclid(1.0);
        let target = Key::clamped(self.dist.quantile(target_pos));
        self.spawn_walk(
            Purpose::LinkProbe {
                node,
                collected,
                budget,
                tries_left: tries_left - 1,
                refresh,
            },
            target,
            node,
        );
    }

    fn finish_links(&mut self, node: u32, collected: Vec<u32>, refresh: bool) {
        if self.nodes[node as usize].alive {
            self.links.set_row(node, collected);
        }
        if refresh {
            self.nodes[node as usize].refreshing = false;
        }
    }

    // ----- storage workload ------------------------------------------

    /// Bulk-loads `storage.preload` items at t = 0. Every peer is alive
    /// and peer id is key rank, so an item's owner (the first key at or
    /// above its own, wrapping to rank 0) is one binary search of `keys`.
    fn preload_storage(&mut self) {
        let preload = self.cfg.storage.preload;
        let mut rng = Rng::stream(self.cfg.seed, stream::PRELOAD);
        let replicas = self.replication_target() as usize - 1;
        self.put_keys.reserve(preload);
        for _ in 0..preload {
            let key = self.dist.sample_key(&mut rng);
            let value = self.next_value();
            let owner = match self.keys.partition_point(|&k| k < key) {
                rank if rank == self.keys.len() => 0,
                rank => rank as u32,
            };
            for r in self.ground_replica_chain(owner, replicas) {
                self.store_replica(r, key, value.clone());
            }
            self.store_primary(owner, key, value);
            self.put_keys.push(key);
        }
    }

    fn next_value(&mut self) -> Vec<u8> {
        self.put_counter += 1;
        self.put_counter.to_le_bytes().to_vec()
    }

    /// Ground-truth replica chain: the first `count` peers clockwise of
    /// `owner`, capped at the other `n − 1`. At t = 0 every peer is
    /// alive and peer id is key rank, so these are the next ids after
    /// `owner`, mod `n`.
    ///
    /// **Invariant: this oracle is reachable only from the t = 0
    /// preload** (modeling a converged network handed a pre-placed
    /// corpus, like the converged initial overlay), and its rank
    /// arithmetic holds only there. Every *routed* operation path — put
    /// fan-out, get fallback, failure recovery — works off local
    /// successor views and pays plane messages; failure recovery in
    /// particular moves data only through the anti-entropy repair plane.
    /// Do not call this from any handler that runs after time zero.
    fn ground_replica_chain(&self, owner: u32, count: usize) -> impl Iterator<Item = u32> {
        let n = self.nodes.len();
        (1..=count.min(n - 1)).map(move |d| ((owner as usize + d) % n) as u32)
    }

    fn do_put_start(&mut self, rng: &mut Rng) {
        let key = self.dist.sample_key(rng);
        let Some(from) = self.random_alive(rng) else {
            return;
        };
        let value = self.next_value();
        self.spawn_walk(Purpose::Put { key, value }, key, from);
    }

    fn do_get_start(&mut self, rng: &mut Rng) {
        let key = if self.put_keys.is_empty() {
            self.dist.sample_key(rng)
        } else {
            self.put_keys[rng.index(self.put_keys.len())]
        };
        let Some(from) = self.random_alive(rng) else {
            return;
        };
        self.spawn_walk(Purpose::Get { key }, key, from);
    }

    fn do_range_start(&mut self, rng: &mut Rng) {
        let lo = self.dist.sample_key(rng);
        let hi = Key::clamped(lo.get() + self.cfg.storage.range_width);
        let Some(from) = self.random_alive(rng) else {
            return;
        };
        if hi <= lo {
            return; // degenerate range at the top of the key space
        }
        self.spawn_walk(Purpose::Range { lo, hi }, lo, from);
    }

    /// The shared head of every storage route's completion: charge the
    /// walk's messages to storage and, for a route that failed
    /// (stranded, out of hops or exhausted), count the operation done in
    /// `done` and return `None`; otherwise the successor-rule owner of
    /// `key` near where the walk ended.
    fn storage_owner(
        &mut self,
        end: WalkEnd,
        walk: &Walk,
        key: Key,
        done: fn(&mut SimMetrics) -> &mut u64,
    ) -> Option<u32> {
        self.metrics.storage_messages += walk.msgs as u64;
        if matches!(
            end,
            WalkEnd::Stranded | WalkEnd::HopLimit | WalkEnd::Exhausted
        ) {
            *done(&mut self.metrics) += 1;
            return None;
        }
        Some(self.shift_to_owner(walk.cur, key))
    }

    /// `at`'s replica chain as its own successor view sees it: its first
    /// `replication − 1` successors, or `at_least` if more. Put
    /// fan-outs, get fallbacks and repair rounds all work off it.
    fn replica_view(&self, at: u32, at_least: usize) -> SuccList {
        let mut chain = self.nodes[at as usize].succ;
        let want = (self.replication_target() as usize - 1).max(at_least);
        chain.len = chain.len.min(want.min(SUCCESSOR_LIST) as u8);
        chain
    }

    /// Greedy routing terminates at the *nearest* peer; the owner under
    /// successor semantics is that peer or its direct ring successor —
    /// one extra forwarding message at most, charged to the op (exactly
    /// the adjustment `sw_dht::Dht::route_to_owner` makes statically).
    fn shift_to_owner(&mut self, at: u32, key: Key) -> u32 {
        if self.keys[at as usize] >= key {
            return at;
        }
        match self.nodes[at as usize].succ.first() {
            Some(&s) if self.nodes[s as usize].alive => {
                self.metrics.storage_messages += 1;
                s
            }
            _ => at,
        }
    }

    /// Put routing phase done: store the primary copy at the routed
    /// owner and fan out replica writes over its local successor view.
    fn finish_put_route(
        &mut self,
        qid: QueryId,
        end: WalkEnd,
        key: Key,
        value: Vec<u8>,
        walk: Walk,
    ) {
        let Some(at) = self.storage_owner(end, &walk, key, |m| &mut m.puts) else {
            return;
        };
        let now = self.plane.now();
        self.store_primary(at, key, value.clone());
        self.put_keys.push(key);
        let chain = self.replica_view(at, 0);
        if chain.is_empty() {
            self.metrics.puts += 1;
            self.metrics.puts_ok += 1;
            self.metrics
                .put_latency_secs
                .push(walk.latency.as_secs_f64());
            return;
        }
        for &to in chain.iter() {
            self.metrics.storage_messages += 1;
            self.send_net(
                at,
                to,
                now,
                self.cfg.latency.delay(),
                Msg::ReplicaPut { op: qid, to },
            );
        }
        self.ops.insert(
            qid,
            StorageOp::PutFanout {
                key,
                value,
                pending: chain.len() as u32,
                issued_at: walk.issued_at,
            },
        );
    }

    fn deliver_replica_put(&mut self, op: QueryId, to: u32, live: bool) {
        let now = self.plane.now();
        let Some(StorageOp::PutFanout {
            key,
            value,
            pending,
            issued_at,
        }) = self.ops.get_mut(&op)
        else {
            return;
        };
        *pending -= 1;
        let (done, issued) = (*pending == 0, *issued_at);
        if live {
            let (k, v) = (*key, value.clone());
            self.store_replica(to, k, v);
        }
        if done {
            // The primary holds a copy, so the put succeeded whatever
            // became of its replica writes.
            self.ops.remove(&op);
            self.metrics.puts += 1;
            self.metrics.puts_ok += 1;
            self.metrics
                .put_latency_secs
                .push((now - issued).as_secs_f64());
        }
    }

    /// Get routing phase done: read the routed owner's primary shard,
    /// falling back to replica probes along its successor view.
    fn finish_get_route(&mut self, qid: QueryId, end: WalkEnd, key: Key, walk: Walk) {
        let Some(at) = self.storage_owner(end, &walk, key, |m| &mut m.gets) else {
            return;
        };
        // The routed owner serves any local copy — its primary row, or a
        // replica copy it inherited but has not yet promoted (repair may
        // still be mid-round after its predecessor died).
        if self.primary.contains(at, key) || self.replica.contains(at, key) {
            self.metrics.gets += 1;
            self.metrics.gets_ok += 1;
            self.metrics
                .get_latency_secs
                .push(walk.latency.as_secs_f64());
            return;
        }
        // Probe at least the first successor, even unreplicated.
        let chain = self.replica_view(at, 1);
        let Some((&first, rest)) = chain.split_first() else {
            self.metrics.gets += 1;
            return;
        };
        let now = self.plane.now();
        self.metrics.storage_messages += 1;
        self.metrics.gets_fallback += 1;
        self.send_net(
            at,
            first,
            now,
            self.cfg.latency.delay(),
            Msg::ReplicaProbe {
                op: qid,
                to: first,
                sent_at: now,
            },
        );
        self.ops.insert(
            qid,
            StorageOp::GetFallback {
                key,
                owner: at,
                chain: rest.to_vec(),
                latency: walk.latency,
            },
        );
    }

    fn deliver_replica_probe(&mut self, op: QueryId, to: u32, sent_at: SimTime, live: bool) {
        let now = self.plane.now();
        let Some(StorageOp::GetFallback {
            key,
            owner,
            chain,
            latency,
        }) = self.ops.get_mut(&op)
        else {
            return;
        };
        let (key, owner) = (*key, *owner);
        // A live peer answers, request and reply both travelling (double
        // the one-way delay); a dead one costs the timeout penalty.
        let one_way = now - sent_at;
        let next_send = if live {
            *latency += one_way + one_way;
            now + one_way
        } else {
            *latency += TIMEOUT_PENALTY;
            sent_at + TIMEOUT_PENALTY
        };
        // A probed peer serves *any* copy it holds — replica copies from
        // fan-outs, or primary rows inherited through a failure merge.
        if live && (self.replica.contains(to, key) || self.primary.contains(to, key)) {
            let total = *latency;
            self.ops.remove(&op);
            self.metrics.gets += 1;
            self.metrics.gets_ok += 1;
            self.metrics.get_latency_secs.push(total.as_secs_f64());
            // Read repair: the routed owner missed a key this replica
            // just served — stream that one item to it immediately (an
            // owner-direction repair transfer, byte-accounted like any
            // anti-entropy rung) instead of waiting for the next round.
            if owner != to && self.nodes[owner as usize].alive {
                let item = self
                    .replica
                    .get(to, key)
                    .or_else(|| self.primary.get(to, key))
                    .cloned();
                if let Some(v) = item {
                    self.metrics.gets_read_repaired += 1;
                    let bytes = REPAIR_HEADER_BYTES + item_bytes(&v);
                    self.send_repair(
                        to,
                        owner,
                        bytes,
                        Msg::RepairPull(Box::new(RepairPull {
                            owner,
                            items: vec![(key, v)],
                        })),
                    );
                }
            }
            return;
        }
        // Miss (alive but no copy) or timeout (dead): try the next
        // replica in the chain, from the routed owner.
        if chain.is_empty() {
            self.ops.remove(&op);
            self.metrics.gets += 1;
            return;
        }
        let next = chain.remove(0);
        self.metrics.storage_messages += 1;
        self.metrics.gets_fallback += 1;
        self.send_net(
            owner,
            next,
            next_send,
            self.cfg.latency.delay(),
            Msg::ReplicaProbe {
                op,
                to: next,
                sent_at: next_send,
            },
        );
    }

    /// Range routing phase done: begin the clockwise owner sweep at the
    /// routed node.
    fn finish_range_route(&mut self, qid: QueryId, end: WalkEnd, lo: Key, hi: Key, walk: Walk) {
        // Same owner adjustment as puts and gets: the sweep must start
        // at `lo`'s successor-rule owner, not its nearest peer.
        let Some(at) = self.storage_owner(end, &walk, lo, |m| &mut m.ranges) else {
            return;
        };
        let budget = self.hop_budget();
        self.ops.insert(
            qid,
            StorageOp::RangeSweep {
                lo,
                hi,
                items: 0,
                peers_visited: 0,
                budget,
                tried: Vec::new(),
                // The routed peer is the first previous holder, so a
                // range above every key ends at the wrap owner.
                from: walk.cur,
            },
        );
        self.continue_sweep(qid, at);
    }

    /// Serve a fragment at sweep peer `at`, then forward to the next
    /// owner clockwise (or complete).
    fn continue_sweep(&mut self, op: QueryId, at: u32) {
        let Some(StorageOp::RangeSweep {
            lo,
            hi,
            items,
            peers_visited,
            budget,
            tried,
            from,
        }) = self.ops.get_mut(&op)
        else {
            return;
        };
        *items += self.primary.shard_range_count(at, *lo, *hi) as u64;
        *peers_visited += 1;
        *budget = budget.saturating_sub(1);
        tried.clear();
        // By the successor rule this peer owns everything at or below
        // its key: once its key reaches `hi` the range is fully served
        // (`>=` because `hi` is exclusive). A key below the previous
        // holder's crosses the top of the ring: this is the wrap owner,
        // which owns everything above the highest key, so the range is
        // served too.
        let key = self.keys[at as usize];
        let served = key >= *hi || key < self.keys[*from as usize];
        *from = at;
        let next = match self.nodes[at as usize].succ.first() {
            Some(&next) if !served && *budget > 0 => next,
            _ => return self.end_sweep(op, served),
        };
        let now = self.plane.now();
        self.metrics.storage_messages += 1;
        self.send_net(
            at,
            next,
            now,
            self.cfg.latency.delay(),
            Msg::RangeFragment {
                op,
                to: next,
                sent_at: now,
            },
        );
    }

    /// A fragment request reaches sweep peer `to` — or, unless `live`,
    /// the previous fragment holder times out and tries its next known
    /// successor.
    fn deliver_range_fragment(&mut self, op: QueryId, to: u32, sent_at: SimTime, live: bool) {
        if live {
            return self.continue_sweep(op, to);
        }
        let Some(StorageOp::RangeSweep { tried, from, .. }) = self.ops.get_mut(&op) else {
            return;
        };
        tried.push(to);
        let from = *from;
        let next = self.nodes[from as usize]
            .succ
            .iter()
            .copied()
            .find(|v| !tried.contains(v));
        let Some(next) = next else {
            // No live successor in view: the sweep dead-ends.
            return self.end_sweep(op, false);
        };
        let retry_at = sent_at + TIMEOUT_PENALTY;
        self.metrics.storage_messages += 1;
        self.send_net(
            from,
            next,
            retry_at,
            self.cfg.latency.delay(),
            Msg::RangeFragment {
                op,
                to: next,
                sent_at: retry_at,
            },
        );
    }

    /// Ends range sweep `op` and counts it, `ok` or not, with the items
    /// and peers it gathered.
    fn end_sweep(&mut self, op: QueryId, ok: bool) {
        let Some(StorageOp::RangeSweep {
            items,
            peers_visited,
            ..
        }) = self.ops.remove(&op)
        else {
            return;
        };
        self.metrics.ranges += 1;
        self.metrics.ranges_ok += u64::from(ok);
        self.metrics.range_items += items;
        self.metrics.range_peers += u64::from(peers_visited);
    }

    // ----- the repair plane (anti-entropy rounds) --------------------

    /// How long a replica-retention lease lives without renewal: several
    /// repair rounds plus stabilization slack, so a legitimate replica
    /// whose owner just died keeps its copies until the new owner's
    /// (post-stabilization) digests take over the renewals.
    fn lease_ttl(&self) -> SimTime {
        let interval = self.cfg.storage.repair_interval.unwrap_or(SimTime::ZERO);
        let stab = self.cfg.stabilize_interval.unwrap_or(SimTime::ZERO);
        SimTime(interval.0 * 4 + stab.0 * 2)
    }

    /// Sends one repair-plane message: counted, byte-accounted, and
    /// delayed by the hop delay *plus* the bandwidth cost of its
    /// payload. Routes through the congestion plane, so under load a
    /// repair transfer also pays queue wait and link shaping — and may
    /// be dropped outright at a full service queue (repair messages are
    /// fire-and-forget; the next anti-entropy round re-requests).
    fn send_repair(&mut self, from: u32, to: u32, bytes: u64, msg: Msg) {
        self.metrics.repair_messages += 1;
        self.metrics.repair_bytes += bytes;
        let now = self.plane.now();
        let dt = self.cfg.latency.delay()
            + SimTime::from_secs_f64(bytes as f64 * self.cfg.storage.repair_byte_secs);
        self.send_net(from, to, now, dt, msg);
    }

    /// One anti-entropy round at `id`: local fixups (promote inherited
    /// replica copies, garbage-collect lapsed leases, demote foreign
    /// primaries), then a digest to each replica-chain peer in the
    /// node's local successor view.
    fn do_repair_round(&mut self, id: u32) {
        // A fresh round re-requests anything still missing; pulls lost
        // to a dead replica stop blocking here.
        self.pending_wants.remove(&id);
        let key = self.keys[id as usize];
        let Some(pred) = self.nodes[id as usize].pred else {
            return;
        };
        let pred_key = self.keys[pred as usize];
        let now = self.plane.now();
        self.promote_owned(id, pred_key, key);
        self.gc_replica_leases(id, now);
        self.demote_foreign(id, pred_key, key);
        let chain = self.replica_view(id, 0);
        if chain.is_empty() {
            return;
        }
        let digest = self.primary.arc_digest(id, pred_key, key);
        for &to in chain.iter() {
            self.send_repair(
                id,
                to,
                DIGEST_BYTES,
                Msg::RepairDigest(Box::new(RepairDigest {
                    owner: id,
                    to,
                    lo: pred_key,
                    hi: key,
                    count: digest.count,
                    hash: digest.hash,
                })),
            );
        }
    }

    /// Local promotion: replica copies lying inside this node's own arc
    /// are data it now *owns* (inherited when its predecessor died) —
    /// move them into the primary shard. A local disk operation: no
    /// messages, no bytes.
    fn promote_owned(&mut self, id: u32, from: Key, upto: Key) {
        for k in self.replica.arc_keys(id, from, upto) {
            let Some(v) = self.replica.remove(id, k) else {
                continue;
            };
            if self.primary.contains(id, k) {
                // Defensive: the store helpers keep at most one physical
                // copy per peer, so this arm should not be reachable.
                self.metrics.stored_bytes -= item_bytes(&v);
            } else {
                self.primary.insert(id, k, v);
            }
        }
    }

    /// Local demotion: primary rows *outside* this node's own arc are
    /// not its to own (a stale view routed a put here, or its arc shrank)
    /// — reclassify them as replica copies. If this node sits in the true
    /// owner's replica chain they will be offered back through the next
    /// diff; otherwise their lease lapses and they are retired.
    fn demote_foreign(&mut self, id: u32, from: Key, upto: Key) {
        // The complement of the clockwise arc `(from, upto]` is
        // `(upto, from]`.
        for k in self.primary.arc_keys(id, upto, from) {
            let Some(v) = self.primary.remove(id, k) else {
                continue;
            };
            if let Some(old) = self.replica.insert(id, k, v) {
                self.metrics.stored_bytes -= item_bytes(&old);
            }
        }
    }

    /// Lease garbage collection: drop replica copies no arc lease covers
    /// any more (the holder fell out of that arc's replica chain and the
    /// owner's digests stopped renewing it). A retired last copy is a
    /// permanent loss and is counted as such.
    fn gc_replica_leases(&mut self, id: u32, now: SimTime) {
        self.nodes[id as usize].leases.retain(|l| l.expires > now);
        let leases = std::mem::take(&mut self.nodes[id as usize].leases);
        let doomed: Vec<Key> = self
            .replica
            .shard(id)
            .map(|s| {
                s.keys()
                    .copied()
                    .filter(|&k| !leases.iter().any(|l| Metric::Ring.in_arc(l.lo, k, l.hi)))
                    .collect()
            })
            .unwrap_or_default();
        self.nodes[id as usize].leases = leases;
        for k in doomed {
            if let Some(v) = self.replica.remove(id, k) {
                self.metrics.stored_bytes -= item_bytes(&v);
                self.note_remove(k);
            }
        }
    }

    /// A repair digest arrives at replica-chain peer `to`: renew the
    /// arc lease, compare digests, and reply with this peer's key list
    /// if they disagree.
    fn on_repair_digest(
        &mut self,
        RepairDigest {
            owner,
            to,
            lo,
            hi,
            count,
            hash,
        }: RepairDigest,
    ) {
        let now = self.plane.now();
        let ttl = self.lease_ttl();
        let node = &mut self.nodes[to as usize];
        node.leases.retain(|l| l.expires > now);
        if let Some(l) = node.leases.iter_mut().find(|l| l.lo == lo && l.hi == hi) {
            l.expires = now + ttl;
        } else {
            node.leases.push(RepairLease {
                lo,
                hi,
                expires: now + ttl,
            });
        }
        let mine = self.replica.arc_digest(to, lo, hi);
        if mine.count == count && mine.hash == hash {
            return; // in sync: the round cost one digest message
        }
        let mut keys = self.replica.arc_keys(to, lo, hi);
        keys.sort();
        let bytes = REPAIR_HEADER_BYTES + KEY_BYTES * keys.len() as u64;
        self.send_repair(
            to,
            owner,
            bytes,
            Msg::RepairDiff(Box::new(RepairDiff {
                owner,
                replica: to,
                lo,
                hi,
                keys,
            })),
        );
    }

    /// A diff reply arrives back at the owner: compute both transfer
    /// directions — items the replica lacks (push) and keys the owner
    /// lacks (want, the recovery direction) — and ship them.
    fn on_repair_diff(
        &mut self,
        RepairDiff {
            owner,
            replica,
            lo,
            hi,
            keys,
        }: RepairDiff,
    ) {
        let missing = self.primary.arc_diff(owner, lo, hi, &keys);
        let mut mine = self.primary.arc_keys(owner, lo, hi);
        mine.sort();
        let outstanding = self.pending_wants.entry(owner).or_default();
        let want: Vec<Key> = keys
            .iter()
            .copied()
            .filter(|k| mine.binary_search(k).is_err() && !outstanding.contains(k))
            .collect();
        outstanding.extend(want.iter().copied());
        if missing.is_empty() && want.is_empty() {
            return;
        }
        let (items, item_cost) = self.primary.export(owner, &missing);
        let bytes = REPAIR_HEADER_BYTES + item_cost + KEY_BYTES * want.len() as u64;
        self.send_repair(
            owner,
            replica,
            bytes,
            Msg::RepairPush(Box::new(RepairPush {
                owner,
                replica,
                items,
                want,
            })),
        );
    }

    /// A push arrives at the replica: absorb the refill, then stream the
    /// owner's wanted keys back (the transfer that makes a failed peer's
    /// slice durable again).
    fn on_repair_push(
        &mut self,
        RepairPush {
            owner,
            replica,
            items,
            want,
        }: RepairPush,
    ) {
        for (k, v) in items {
            self.store_replica(replica, k, v);
        }
        if want.is_empty() {
            return;
        }
        let mut back = Vec::with_capacity(want.len());
        let mut bytes = REPAIR_HEADER_BYTES;
        for &k in &want {
            let v = self
                .replica
                .get(replica, k)
                .or_else(|| self.primary.get(replica, k));
            if let Some(v) = v {
                bytes += item_bytes(v);
                back.push((k, v.clone()));
            }
        }
        if back.is_empty() {
            return; // the copies vanished while the ladder was in flight
        }
        self.send_repair(
            replica,
            owner,
            bytes,
            Msg::RepairPull(Box::new(RepairPull { owner, items: back })),
        );
    }

    /// The recovery transfer lands at the owner: the streamed items are
    /// finally durable under their new primary.
    fn on_repair_pull(&mut self, RepairPull { owner, items }: RepairPull) {
        for (k, v) in items {
            if let Some(w) = self.pending_wants.get_mut(&owner) {
                w.remove(&k);
            }
            self.store_primary(owner, k, v);
        }
    }

    // ----- storage accounting ----------------------------------------
    //
    // Every physical copy moves through these helpers so the per-key
    // live-copy counts, the under-replication gauge, `keys_lost`,
    // time-to-repair and `stored_bytes` stay exact. Invariant: a peer
    // holds at most one physical copy of a key (primary *or* replica).

    fn replication_target(&self) -> u32 {
        self.cfg.storage.replication.max(1) as u32
    }

    /// A distinct peer gained a copy of `key`.
    fn note_add(&mut self, key: Key) {
        let now = self.plane.now();
        let target = self.replication_target();
        let e = self.copies.entry(key).or_insert(CopyState {
            copies: 0,
            under_since: None,
        });
        e.copies += 1;
        if e.copies >= target {
            if let Some(since) = e.under_since.take() {
                self.metrics.keys_under_replicated -= 1;
                self.metrics
                    .repair_time_secs
                    .push((now - since).as_secs_f64());
            }
        }
    }

    /// A distinct peer lost its copy of `key`.
    fn note_remove(&mut self, key: Key) {
        let now = self.plane.now();
        let target = self.replication_target();
        let Some(e) = self.copies.get_mut(&key) else {
            debug_assert!(false, "removing an untracked copy");
            return;
        };
        e.copies -= 1;
        if e.copies == 0 {
            if e.under_since.is_some() {
                self.metrics.keys_under_replicated -= 1;
            }
            self.copies.remove(&key);
            self.metrics.keys_lost += 1;
        } else if e.copies < target && e.under_since.is_none() {
            e.under_since = Some(now);
            self.metrics.keys_under_replicated += 1;
        }
    }

    /// Stores a primary copy at `peer`, superseding any replica copy the
    /// peer already held (one physical copy per peer).
    fn store_primary(&mut self, peer: u32, key: Key, value: Vec<u8>) {
        let mut had = false;
        if let Some(old) = self.replica.remove(peer, key) {
            self.metrics.stored_bytes -= item_bytes(&old);
            had = true;
        }
        self.metrics.stored_bytes += item_bytes(&value);
        if let Some(old) = self.primary.insert(peer, key, value) {
            self.metrics.stored_bytes -= item_bytes(&old);
            had = true;
        }
        if !had {
            self.note_add(key);
        }
    }

    /// Stores a replica copy at `peer` (a no-op if the peer already
    /// holds the key as primary).
    fn store_replica(&mut self, peer: u32, key: Key, value: Vec<u8>) {
        if self.primary.contains(peer, key) {
            return;
        }
        self.metrics.stored_bytes += item_bytes(&value);
        if let Some(old) = self.replica.insert(peer, key, value) {
            self.metrics.stored_bytes -= item_bytes(&old);
        } else {
            self.note_add(key);
        }
    }

    /// A peer failed: both its shards die with the machine.
    fn drop_peer_storage(&mut self, peer: u32) {
        let dropped: Vec<(Key, u64)> = [&self.primary, &self.replica]
            .into_iter()
            .filter_map(|map| map.shard(peer))
            .flat_map(|s| s.iter().map(|(k, v)| (*k, item_bytes(v))))
            .collect();
        self.primary.clear_shard(peer);
        self.replica.clear_shard(peer);
        for (k, bytes) in dropped {
            self.metrics.stored_bytes -= bytes;
            self.note_remove(k);
        }
        self.nodes[peer as usize].leases.clear();
        self.pending_wants.remove(&peer);
    }

    /// Copy census of the stored corpus, computed from the live shards on
    /// the `sw_graph::par` scan path (per-peer key unions fan out across
    /// workers; the merge is an order-independent count) — bit-identical
    /// at every `threads` value.
    pub fn durability_census(&self, threads: usize) -> DurabilityCensus {
        let target = (self.replication_target() as usize).min(self.alive.len());
        let n = self.primary.shard_count().max(self.replica.shard_count());
        let per_peer: Vec<Vec<Key>> = par::par_map_grained(n, threads, 8, |i| {
            let id = i as u32;
            let mut keys: Vec<Key> = self
                .primary
                .shard(id)
                .map(|s| s.keys().copied().collect())
                .unwrap_or_default();
            if let Some(s) = self.replica.shard(id) {
                keys.extend(s.keys().copied().filter(|&k| !self.primary.contains(id, k)));
            }
            keys
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

    /// Live copies of `key` across all peers (ground-truth bookkeeping;
    /// `0` for unknown or lost keys).
    pub fn live_copies(&self, key: Key) -> u32 {
        self.copies.get(&key).map_or(0, |c| c.copies)
    }

    /// Replaces the churn configuration mid-run. Lowering a rate takes
    /// effect at that generator's next tick, and zero ends the process
    /// there. **Raising a rate from zero has no effect**: a process that
    /// was never armed, or has ended, is not on the plane to read it.
    /// Used to stop churn and let the repair plane quiesce.
    pub fn set_churn(&mut self, churn: ChurnConfig) {
        self.cfg.churn = churn;
    }

    // ----- ground-truth helpers --------------------------------------

    fn random_alive(&self, rng: &mut Rng) -> Option<u32> {
        if self.alive.is_empty() {
            return None;
        }
        // Key-space sampling + successor lookup: O(log n). Density-
        // weighted by arc ownership — intended for *workload* draws
        // (lookups, storage ops, join entry points), where traffic
        // proportional to owned key space is the realistic model. Churn
        // victims use `alive_ids` uniform sampling instead.
        let probe = Key::clamped(rng.f64());
        Some(self.owner_of(probe))
    }

    /// Ground-truth successor-owner of a key (first alive peer clockwise).
    fn owner_of(&self, key: Key) -> u32 {
        owner_of_map(&self.alive, key)
    }

    /// Rebuilds `id`'s ring state from ground truth (used by joins and
    /// stabilization; the t = 0 ring is [`SimNode::converged`]).
    fn repair_ring_state(&mut self, id: u32) {
        let key = self.keys[id as usize];
        let mut succ = SuccList::default();
        for (_, &v) in self
            .alive
            .range((std::ops::Bound::Excluded(key), std::ops::Bound::Unbounded))
            .chain(self.alive.range(..key))
        {
            if v != id {
                succ.push(v);
                if succ.len() == SUCCESSOR_LIST {
                    break;
                }
            }
        }
        let pred = {
            let p = self
                .alive
                .range(..key)
                .next_back()
                .or_else(|| self.alive.iter().next_back())
                .map(|(_, &v)| v);
            p.filter(|&v| v != id)
        };
        let node = &mut self.nodes[id as usize];
        node.succ = succ;
        node.pred = pred;
    }
}

/// The two prefetch stages of a simulated hop, driven by the wheel's
/// cascades (`plane`'s "cascades as lookahead"). A step at peer `to`
/// walks `nodes[to]` / `keys[to]` / `offsets[to]` → the long-link row →
/// the row's contact keys, on state untouched for thousands of events;
/// the address chain has two links, so there are two stages:
///
/// * `level ≥ 2` (the message is ≈ 4–260 ms of virtual time out): the
///   loads addressable from `to` alone — the node record, its key, the
///   base store's row bounds;
/// * `level 1` (≤ 4 ms out): the row bounds are resident by now, so read
///   them and prefetch the row itself.
///
/// Hints only: nothing here can change what a handler later reads.
#[inline]
fn prefetch_peer(nodes: &[SimNode], keys: &[Key], links: &DeltaStore, level: usize, msg: &Msg) {
    let (Msg::Hop { to, .. } | Msg::NextHopQuery { to, .. }) = *msg else {
        return;
    };
    if level >= 2 {
        if let Some(node) = nodes.get(to as usize) {
            prefetch_span(std::slice::from_ref(node));
        }
        prefetch_read(keys.as_ptr().wrapping_add(to as usize));
        links.prefetch_row_bounds(to);
    } else {
        prefetch_span(links.row_slice(to));
    }
}

/// Successor-rule owner lookup against a ground-truth alive index.
fn owner_of_map(alive: &BTreeMap<Key, u32>, key: Key) -> u32 {
    if let Some((_, &id)) = alive.range(key..).next() {
        id
    } else {
        *alive.values().next().expect("nonempty alive set")
    }
}

/// Poisson inter-arrival draw.
fn next_interval(rng: &mut Rng, rate: f64) -> SimTime {
    SimTime::from_secs_f64(rng.exponential(rate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_core::links::LinkSelector;
    use sw_core::SmallWorldBuilder;
    use sw_keyspace::distribution::{TruncatedPareto, Uniform};
    use sw_overlay::Overlay;

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
        let ids: Vec<u32> = sim.alive.values().copied().collect();
        assert_eq!((table.len(), placement.len()), (ids.len(), ids.len()));
        for r in 0..table.len() as u32 {
            let (row, lane) = table.row(r);
            assert_eq!(row.len(), lane.len());
            for (&v, &p) in row.iter().zip(lane) {
                let peer = ids[v as usize];
                assert_eq!(p.to_bits(), sim.keys[peer as usize].get().to_bits());
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
        let ids: Vec<u32> = sim.alive.values().copied().collect();
        assert!(ids.iter().all(|&id| sim.nodes[id as usize].alive));
        assert_eq!(ids.len(), sim.nodes.iter().filter(|n| n.alive).count());
        assert_eq!((table.len(), placement.len()), (ids.len(), ids.len()));
        for (r, &id) in ids.iter().enumerate() {
            assert_eq!(placement.key(r as u32), sim.keys[id as usize]);
            let (row, _) = table.row(r as u32);
            assert!(!row.is_empty(), "alive peer {id} has no live contacts");
            let node = &sim.nodes[id as usize];
            let mut live: Vec<u32> = node
                .pred
                .iter()
                .chain(node.succ.iter())
                .chain(sim.links.row_slice(id))
                .copied()
                .filter(|&v| v != id && sim.nodes[v as usize].alive)
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
            let raw = sim.links.row_slice(sim.alive[key]);
            let mut live: Vec<Key> = raw
                .iter()
                .filter(|&&v| sim.nodes[v as usize].alive)
                .map(|&v| sim.keys[v as usize])
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

    /// Satellite: per-hop latency accounting. With a constant hop
    /// latency, every lookup's latency is exactly
    /// `hops * hop + timeouts * penalty`.
    #[test]
    fn latency_accumulates_per_hop_plus_timeout_penalty() {
        let hop = SimTime::from_millis(50);
        let penalty = SimTime::from_millis(500);
        let cfg = SimConfig {
            latency: LatencyModel::Constant(hop),
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
                range_width: 0.02,
                repair_interval: Some(SimTime::from_secs(5)),
                repair_byte_secs: 1e-6,
                routing_mode: None,
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
        assert!(sim.primary_store().len() > 400, "preload + puts stored");
        assert!(!sim.replica_store().is_empty());
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
        assert_eq!(m.repair_messages, 0);
        assert_eq!(m.repair_bytes, 0);
        let census = sim.durability_census(2);
        assert_eq!(
            census.keys + m.keys_lost as usize,
            initial_keys,
            "every missing key must be accounted as lost"
        );
        assert!(census.keys < initial_keys, "rows must actually drain");
        for (id, node) in sim.nodes.iter().enumerate() {
            if !node.alive {
                assert_eq!(
                    sim.primary_store().shard_len(id as u32)
                        + sim.replica_store().shard_len(id as u32),
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
                repair_byte_secs: 1e-6,
                routing_mode: None,
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
                repair_byte_secs: 1e-6,
                routing_mode: None,
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
            (0..sim.nodes.len() as u32)
                .any(|id| sim.primary.contains(id, key) || sim.replica.contains(id, key))
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
                    sim.primary_store().len(),
                    sim.replica_store().len(),
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
    /// seed, and (with a constant latency model) pays exactly one extra
    /// one-way delay per hop — the reply leg that upgrades each
    /// hand-off to a full RTT.
    #[test]
    fn iterative_matches_recursive_hops_and_pays_one_rtt_per_hop() {
        let hop = SimTime::from_millis(50);
        let run = |mode: RoutingMode| {
            let cfg = SimConfig {
                latency: LatencyModel::Constant(hop),
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

    /// The per-operation mode override, and honest message accounting:
    /// storage walks routed iteratively (while lookups stay recursive)
    /// pay two plane messages per hop, and `storage_messages` must show
    /// it.
    #[test]
    fn storage_mode_override_counts_two_messages_per_hop() {
        let run = |storage_mode: Option<RoutingMode>| {
            let cfg = SimConfig {
                workload: WorkloadConfig { lookup_rate: 5.0 },
                storage: StorageConfig {
                    put_rate: 10.0,
                    get_rate: 10.0,
                    replication: 2,
                    preload: 100,
                    routing_mode: storage_mode,
                    ..StorageConfig::NONE
                },
                stabilize_interval: None,
                refresh_interval: None,
                ..quiet_config(24, 256)
            };
            let mut sim = Simulator::new(cfg, Arc::new(Uniform));
            sim.run_until(SimTime::from_secs(60));
            sim.metrics().clone()
        };
        let rec = run(None);
        let iter = run(Some(RoutingMode::Iterative));
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
        // The override is per-operation: lookups stayed recursive, so
        // every observed hop RTT came from a storage walk.
        assert!(iter.hop_rtt.count() > 0);
        assert_eq!(rec.hop_rtt.count(), 0);
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
                        repair_byte_secs: 1e-6,
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
    /// crosses the top of the ring. A sweep that only stopped at a key
    /// reaching `hi` circled the ring to its peer budget instead, and
    /// on a static ring every range starting in the top ≈ 2 % of key
    /// space failed that way.
    #[test]
    fn range_sweeps_finish_at_the_top_of_the_ring() {
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
        let mut sim = Simulator::new(cfg, Arc::new(Uniform));
        sim.run_until(SimTime::from_secs(100));
        let m = sim.metrics();
        assert!(m.ranges > 4_000, "ranges {}", m.ranges);
        assert_eq!(
            m.ranges_ok, m.ranges,
            "every range on a static ring is served"
        );
    }

    /// The t = 0 replica chain by search: the first `count` peers after
    /// `owner` in a walk of the alive index from its key, wrapping. The
    /// boot's rank arithmetic ([`Simulator::ground_replica_chain`])
    /// replaced it; it stays as that arithmetic's oracle.
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
    /// search path it replaced — one `push_node` per key, then
    /// `repair_ring_state` over the full alive set, and B-tree lookups
    /// for every preloaded item — it must give the same alive index,
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

                    let mut search = Simulator::empty(cfg, dist.clone(), &mut Rng::new(0));
                    for &key in &sim.keys {
                        search.push_node(key);
                    }
                    for id in 0..n as u32 {
                        search.repair_ring_state(id);
                    }
                    assert_eq!(sim.alive, search.alive, "{case}");
                    assert_eq!(sim.alive_ids, search.alive_ids, "{case}");
                    assert_eq!(sim.alive_pos, search.alive_pos, "{case}");
                    for (id, (a, b)) in sim.nodes.iter().zip(&search.nodes).enumerate() {
                        assert_eq!(&*a.succ, &*b.succ, "{case}: succ of {id}");
                        assert_eq!(a.pred, b.pred, "{case}: pred of {id}");
                    }

                    let replicas = replication - 1;
                    let mut rng = Rng::stream(sim.cfg.seed, stream::PRELOAD);
                    for _ in 0..preload {
                        let key = dist.sample_key(&mut rng);
                        let owner = owner_of_map(&sim.alive, key);
                        let chain =
                            replica_chain_by_search(&sim.alive, sim.keys[owner as usize], replicas);
                        let by_rank: Vec<u32> = sim.ground_replica_chain(owner, replicas).collect();
                        assert_eq!(by_rank, chain, "{case}: chain of {owner}");
                        assert!(sim.primary.contains(owner, key), "{case}: owner {owner}");
                        for &r in &chain {
                            assert!(sim.replica.contains(r, key), "{case}: replica {r}");
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
    /// (`repair_ring_state`), push while rebuilding, and splice a joiner
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

    /// Layout pins for the records the event path moves and holds most.
    /// The node record must stay within one cache line with room to
    /// spare. The envelope sizes are equalities, so a `Msg` variant that
    /// grows past 20 bytes unboxed, or a lost enum niche in the wheel's
    /// envelope store, shows up as a deliberately moved pin. The walk
    /// and storage-op records carry no RNG stream (a hop's delay is
    /// fixed), and their pins keep one from coming back unnoticed.
    #[test]
    fn hot_record_sizes_are_pinned() {
        use crate::plane::Envelope;
        assert!(
            std::mem::size_of::<SimNode>() <= 56,
            "SimNode grew to {} bytes",
            std::mem::size_of::<SimNode>()
        );
        assert_eq!(std::mem::size_of::<Envelope<Msg>>(), 40);
        assert_eq!(std::mem::size_of::<Option<Envelope<Msg>>>(), 40);
        assert_eq!(std::mem::size_of::<Walk>(), 208);
        assert_eq!(std::mem::size_of::<StorageOp>(), 64);
    }
}
