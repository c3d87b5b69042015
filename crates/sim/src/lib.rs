//! # sw-sim
//!
//! Discrete-event simulator for dynamic small-world overlays, built on
//! an **async message plane**: every protocol action — each hop of a
//! lookup, each replica write of a put, each repair rung — is an
//! individual message delivered one hop delay later in virtual time, so
//! any number of operations are in flight at once and every one of them
//! observes the overlay *as it is when its messages arrive*, not as it
//! was when the operation started. A stabilization round is the one
//! aggregate: its pings are counted (`SimMetrics::stabilize_messages`)
//! but not sent, and the round is one self-addressed message that lands
//! when the slowest ping's round trip or timeout is up.
//!
//! The paper defers dynamics to future work (§4.2/§5: “an iterative
//! process of revising its routing table …”, “models that can take into
//! account an unstable P2P environment (nodes are allowed to fail)”);
//! this crate implements that setting so experiments can measure lookup
//! success, hop inflation and data-layer availability as functions of
//! churn rate, with and without maintenance.
//!
//! ## Architecture
//!
//! The crate splits into four layers:
//!
//! * [`plane`] — the deterministic in-memory queue. An
//!   [`plane::Envelope`] is delivered in ascending `(time, seq)` order;
//!   `seq` is the global send counter, so messages scheduled for the
//!   same instant are delivered **FIFO in send order**. The plane draws
//!   no randomness and never rewinds the clock. It is one FIFO lane per
//!   fixed delay the engine sends at (a hop's flight, a stabilize round
//!   trip, the timeout penalty, each timer's period) beside one binary
//!   heap for every other send, merged by `(time, seq)`: for a fixed
//!   delay, send order is delivery order, so a lane push and pop are
//!   O(1) against millions of pending timers. With the large message
//!   payloads boxed, an envelope is 40 bytes; at scale the lanes hold
//!   about three pending timers per peer.
//! * [`protocol`] — the message vocabulary (the crate-private `Msg`)
//!   and the per-operation state machine: one crate-private `Walk` per
//!   operation, from spawn to end. It routes every query (lookup /
//!   join-point search / long-link probe / storage op), and a put, get
//!   or range then goes on in the same record as its tail: replica
//!   fan-out, replica-fallback probes, or the clockwise fragment sweep.
//!   The vocabulary has three kinds of event. `Next(source)` is
//!   the next arrival of one of the seven Poisson processes (joins,
//!   failures, lookups, puts, gets, ranges, open-loop traffic), and
//!   `Timer(timer, peer)` the next round of a peer's stabilize, refresh
//!   or repair timer; both re-arm themselves. The ten network messages
//!   (walk hand-offs, storage fan-outs, repair rungs) pass through the
//!   congestion model and reach their handlers through one delivery
//!   entry, which makes the ledger entry and the receiver-liveness test
//!   for all of them.
//! * [`engine`] — the peers' local state (ring views, long-link rows,
//!   the per-peer stores) and the handlers that advance the state
//!   machines on each delivery. Its root holds the configs, the
//!   [`Simulator`] with its public API, and the delivery layer (the
//!   dispatch, `deliver`, `send_net`, the timers); the handlers sit in
//!   four protocol families beside it: walks (spawn, the recursive and
//!   iterative steps, a walk's end), the ring (join, fail,
//!   stabilization), links (the probe chains of a join and a refresh)
//!   and storage (the put, get and range tails, repair, the hand-off,
//!   copy accounting). All four run over a crate-private world holding
//!   the ground truth (liveness, f, the generator streams, the ledgers)
//!   behind named calls; every read a peer could not make itself (the
//!   ring, f, n, a ping's outcome) goes through its one `Oracle`, whose
//!   methods name the ROADMAP item that deletes each. In-flight walks
//!   live in a slab: a query id
//!   is `generation << 32 | slot`, so a hop finds its walk with one
//!   index and an id compare, a freed slot is reused last-freed first
//!   under the next generation, and a stale id (a late reply, a retry
//!   after the walk finished) misses. A storage op's tail is filed back
//!   in its route's slot under the next generation, so its messages
//!   find it the same way and the route's late messages miss it. Long-link rows live in a
//!   [`sw_graph::DeltaStore`] over an immutable [`sw_graph::Topology`]
//!   base — one `SWTOPO` image, drawn in memory by
//!   [`converged_overlay`] or opened (mapped) from disk
//!   ([`Simulator::from_frozen`] / [`Simulator::with_store`]). The draw
//!   is the builder's long stage, [`sw_core::builder::long_image`], over
//!   a ring placement, so the t = 0 rows are those of a ring, harmonic
//!   [`sw_core::SmallWorldBuilder`] on the same generator state. A row
//!   the run touches is copied whole into an owned row, which is the
//!   peer's entry in a lane indexed by peer, so a hop reads either row
//!   with one load and no hash probe; a refresh rewrites every live peer's
//!   row each interval, so a run with refresh on soon owns a copy of
//!   every row, and only a run without it keeps reading the base (and
//!   allocates no lane).
//! * [`traffic`] — the congestion vocabulary: per-node service queues
//!   and per-link token buckets ([`CongestionConfig`]), the open-loop
//!   Zipf workload generator ([`TrafficConfig`] / [`ZipfSampler`]) and
//!   the requester-side hot-key cache ([`CacheConfig`] / [`HotCache`]).
//!   The engine evaluates these models **analytically at send time** —
//!   see the queueing section below.
//!
//! One thing crosses the plane/engine line besides envelopes: the
//! lanes double as the engine's prefetch clock (see [`plane`]'s "lanes
//! as lookahead"). A hop's handler starts with a chain of dependent
//! cache misses on state nobody has touched for thousands of events,
//! and [`Simulator::run_until`] drains the plane through
//! [`MessagePlane::deliver_window_with`] with a hook that warms one link
//! of that chain per stage of a `Hop` / `NextHopQuery`, as each pop of
//! its lane brings it closer to the front:
//!
//! 1. at the far stage, 16 pops of its lane ahead of its delivery, the
//!    loads addressable from the message alone: its walk's slot (the
//!    query id names it), the destination's liveness entry, node record
//!    (with its inline successor list) and key, and its entry in the
//!    delta's owned-row lane beside its row bounds in the base link
//!    store ([`sw_graph::DeltaStore::prefetch_row_bounds`]);
//! 2. at the near stage, 4 pops ahead, those are resident, so the hook
//!    reads them and prefetches the long-link row itself.
//!
//! The contact-key gathers of the step are left to the core: they are
//! independent loads and overlap on their own. Hints change no result —
//! the fingerprint goldens hold with the hook in and out.
//!
//! ## The repair plane
//!
//! Ownership is one rule: a peer owns the ring arc `(pred, self]`
//! ([`sw_keyspace::Topology::in_arc`]), read off the predecessor by the
//! repair round, and off `(routed, successor]` by a storage route's
//! last step. A range sweep ends at the first peer
//! whose arc holds `hi`, so a range costs its route plus one message per
//! peer key it covers, at any skew.
//!
//! Each peer keeps every copy it holds in one shard. Whether a copy is
//! primary is not stored: it is primary iff its key lies on the
//! holder's arc in its current view, and a replica otherwise. A range
//! sweep peer serves only its rows on the arc its stop test reads, so
//! no key is counted twice.
//!
//! The data layer has **no oracle recovery path**: when a peer fails,
//! its shard dies with the machine (the only oracle left is the t = 0
//! preload placement). Data moves only by message, and a copy leaves
//! its holder only once the peers that now cover its arc hold it. A
//! peer is in the chains of its own and its first `k − 1` predecessors'
//! arcs, `k = min(replication, 5)`, so it keeps copies on
//! `(pred_k, self]`, its *keep arc*. Every `repair_interval`, and when
//! stabilization moves its chain or keep arc, each peer runs a round —
//!
//! 1. **the hand-off**: its copies off the keep arc go in one message
//!    through the peers that now cover them, `pred_1 → … → pred_k` (its
//!    successors for copies ahead of it). Each hop stores what it lacks
//!    on its keep arc, the last the rest; it then releases the holder,
//!    which drops them. A dead hop releases nothing, and a later round
//!    retries. A join's successors learn of it from the splice and hand
//!    off at once, so the joiner receives its keep arc by message, with
//!    repair off too (the join's hand-off is then the only one);
//! 2. **digest fan-out**: a key digest of its arc `(pred, self]`
//!    ([`sw_dht::RangeDigest`]) to each replica-chain peer in its
//!    successor view. A mismatch triggers the diff → push → pull ladder
//!    (`RepairDiff` / `RepairPush` / `RepairPull`) that streams missing
//!    items both ways. Every repair message pays the hop delay **plus a
//!    per-byte bandwidth delay** ([`REPAIR_BYTE_SECS`]), so the
//!    durability/bandwidth trade-off is measurable
//!    (`SimMetrics::{repair_messages, repair_bytes, repair_overhead}`).
//!
//! **Read repair** shortcuts the round-trip wait: when a get's routed
//! owner misses and a replica-fallback probe serves the key, the
//! serving replica immediately streams that one item to the routed
//! owner (a targeted, single-item owner-direction transfer on the same
//! byte-accounted plane; counted in `SimMetrics::gets_read_repaired`),
//! so hot keys heal at read time instead of at the next round.
//!
//! Durability bookkeeping is ground truth outside the protocol: per-key
//! live-copy counts feed the `keys_under_replicated` gauge, `keys_lost`
//! (a key whose last live copy dies is *permanently* lost — subsequent
//! gets fail), and time-to-repair stats; [`Simulator::durability_census`]
//! recounts them from the shards on the parallel scan path. Repair is
//! *quiescent*: once churn stops, under-replicated keys refill, dead
//! owners' slices are re-streamed from surviving replicas, copies off
//! their holders' keep arcs are handed off, and every surviving key
//! converges to exactly `min(replication, alive)` copies, on its owner
//! and the owner's first live successors. While churn runs, a key is
//! over target only while a hand-off is in flight or waits on a stale
//! view: `examples/churn_simulation.rs` at 600 s counts 189 of 10 721
//! keys over target. `SimMetrics::stored_bytes`, and with it
//! `repair_overhead`, counts those copies.
//!
//! ## Walk lifecycle and routing modes
//!
//! A walk is spawned with a fresh query id, takes its **first greedy
//! step at the origin immediately** (the origin reads its own table for
//! free in both modes), and then lives on the plane according to its
//! [`protocol::RoutingMode`] — one per run, [`SimConfig::routing_mode`]:
//!
//! * **Recursive** — the query is handed off node to node: a chosen
//!   contact becomes a `Hop` message delivered [`HOP_DELAY`]
//!   later, and on delivery the walk advances and steps again *at that
//!   node's current local view*, which churn may have changed since the
//!   walk started. A contact that died while the message was in flight
//!   costs the sender a timeout (penalty latency, contact excluded,
//!   retry `Step` at `send time + penalty`); if the node *holding* the
//!   query fails before its retry fires, the walk is **stranded** — an
//!   outcome a whole-walk-at-one-instant engine cannot produce.
//! * **Iterative** — the requester drives every hop: it asks the
//!   frontier for its ranked candidate ladder (`NextHopQuery` /
//!   `NextHopReply`, two plane messages — one full RTT per hop,
//!   accounted in `SimMetrics::hop_rtt`) and advances itself. On a
//!   frontier timeout the requester **fails over** to the next-ranked
//!   candidate from the previous reply without re-asking
//!   (`Walk::next_alternate`); a dry ladder ends the walk
//!   `Exhausted`. The query never leaves the requester, so only the
//!   requester's death strands it — the same hop sequence as recursive
//!   on a static network, bought at one extra one-way delay per hop.
//!
//! Every walk of a run takes the run's mode; there is no mid-walk
//! recovery plane. What absorbs a lost contact is what the paper's §3.1
//! names — redundant links: the sender excludes it and takes the
//! next-best one.
//!
//! All terminations share one taxonomy ([`protocol::WalkEnd`]:
//! delivered / local-minimum / hop-budget / stranded /
//! failed-over-exhausted), surfaced per lookup in
//! [`protocol::LookupRecord`]. Completion dispatches on the walk's
//! purpose: lookups record metrics, a join splices the new node (taking
//! over its shard slice) and starts its link-probe chain, and a storage
//! op runs its fan-out / fallback / sweep tail in the same record.
//! This engine is the repo's only implementation of the §4.2 join
//! protocol: experiment E10 grows its networks here and reads them back
//! through [`Simulator::live_overlay`].
//! Contact selection everywhere is the one shared
//! [`sw_overlay::greedy_step`] / [`sw_overlay::greedy_candidates_into`]
//! implementation, through [`sw_overlay::RingView`].
//!
//! ## Queueing and congestion
//!
//! With [`CongestionConfig`] enabled, delivery time is no longer just
//! the hop delay: each network message pays **link shaping + flight +
//! destination queue wait**, all computed analytically when the message
//! is sent (no extra envelopes, no extra randomness —
//! thread-count-invariant by construction):
//!
//! * every node is a **single-server FIFO queue** folded into one
//!   `busy_until` instant: an arrival's wait is `busy_until − arrival`,
//!   its service (`service_secs_per_msg`) extends `busy_until`, and the
//!   implied depth is `residual / service`. Past `queue_cap` the
//!   message is **dropped**: a message its sender waits on re-enters
//!   the delivery entry as lost (`Msg::Dropped` — timing identical
//!   to a dead-peer delivery, so the requester's failover machinery
//!   absorbs overload exactly like churn), fire-and-forget repair rungs
//!   are silently discarded, and `SimMetrics::msgs_dropped_overload`,
//!   `queue_wait` and `queue_depth_peak` account for it all;
//! * every directed link is a **deficit token bucket** (`link_rate`,
//!   `link_burst`): a negative balance is owed refill time added to the
//!   departure instant, modeling serialization without per-token events.
//!   Queue state lives in a per-peer lane sized with the population
//!   (one `busy_until` per peer, forever). Bucket state lives in one
//!   table keyed by directed link, created full on a link's first send
//!   and **forgotten once it has refilled** to `link_burst`: from then
//!   on it is bit-for-bit the bucket a first send would create, because
//!   no message departs before the plane clock (`send_net` clamps a
//!   retry armed at an instant already past). The table is swept when
//!   it is full, before it would grow, so it holds the links used in
//!   the last `link_burst / link_rate` seconds — thousands at 10⁵
//!   peers, where remembering every link ever used held a million.
//!
//! Measured wait feeds back into patience:
//! `Walk::adaptive_timeout` is `min(penalty, 3·max RTT +
//! 2·max wait)`, so requester-driven timeouts stretch with observed
//! congestion instead of misreading a deep queue as a death.
//!
//! The open-loop generator ([`TrafficConfig`]) injects lookups at a
//! fixed offered rate from a bounded gateway set toward a Zipf-ranked
//! hot-key universe; because arrivals never slow down with completions,
//! the system can be driven **past saturation** and the knee measured
//! (experiment E23). Gateways may keep a bounded LRU+TTL [`HotCache`];
//! a hit answers the lookup at zero network cost and is counted in
//! `SimMetrics::cache_hits`.
//!
//! **Cache-coherence caveat:** the hot-key cache is TTL-consistent
//! only. A cached entry can serve a key for up to `CacheConfig::ttl`
//! after the owner died or the keyspace shifted, and — unlike gets,
//! which read-repair through the replica chain — a cache hit never
//! consults the data layer, so it cannot observe read repair, hand-offs,
//! or re-replication. That is the intended trade (front-end caches are
//! stale by design); experiments that need linearizable reads must
//! route every lookup (`cache: None`).
//!
//! ## Determinism contract
//!
//! Seeded runs are bit-identical on every platform and at every worker
//! thread count:
//!
//! * the event loop is sequential; `(time, seq)` delivery order with the
//!   FIFO tie-break is a pure function of the seed;
//! * every hop takes [`HOP_DELAY`], so walks and messages draw nothing; every generator process (joins, failures,
//!   lookups, puts, gets, ranges, timer stagger, link targets, traffic
//!   arrivals) owns a dedicated stream, so one process's draws never
//!   perturb another's;
//! * the parallel paths (the t = 0 link draw, probe batches, the
//!   durability census) are pure per-index maps over pre-drawn inputs —
//!   thread count only changes how work is chunked, never what is
//!   computed.
//!
//! Measurement probes ([`Simulator::probe_lookups`],
//! [`Simulator::live_overlay`]) read the *live* state at frozen time
//! and never touch the plane or the workload metrics. Both read it by
//! key rank: the alive peers' keys ascending, and each peer's contacts
//! as ranks, dead ones dropped. A probe batch freezes the pred,
//! successors and long links of every alive peer **once** into a
//! placement and a key-aligned SoA [`sw_overlay::RouteTable`], and
//! routes every probe with [`sw_overlay::route_interleaved`] — the
//! batch kernel static routing uses (`benchmark/`'s `route_static`
//! workload), so a probe is exactly [`sw_overlay::greedy_route`] over
//! the snapshot. The in-flight plane walks keep routing over live
//! [`sw_overlay::RingView`]s (their views mutate under churn mid-walk,
//! which is the point), with contact selection bit-identical between
//! the two paths.

pub mod engine;
pub mod metrics;
pub mod plane;
pub mod protocol;
mod slab;
pub mod time;
pub mod traffic;
mod world;

pub use engine::{
    converged_overlay, ChurnConfig, DurabilityCensus, SimConfig, Simulator, StorageConfig,
    WorkloadConfig, HOP_DELAY, RANGE_WIDTH, REPAIR_BYTE_SECS,
};
pub use metrics::{Histogram, SimMetrics};
pub use plane::{Envelope, MessagePlane};
pub use protocol::{LookupRecord, RoutingMode, WalkEnd};
pub use time::SimTime;
pub use traffic::{CacheConfig, CongestionConfig, HotCache, TrafficConfig, ZipfSampler};

/// An inert stand-in for the deleted peer-local engine: [`Simulator`] is
/// the crate's one engine. It keeps compiling the one benchmark layer
/// that names it (`benchmark/src/layers/sharded.rs`), runs nothing, and
/// reports no events, so that layer's `sim.sharded.*` readings are 0.
/// The next change to the benchmark deletes it with that file.
#[doc(hidden)]
pub struct ShardedSimulator;

#[doc(hidden)]
impl ShardedSimulator {
    pub fn new(
        _cfg: SimConfig,
        _dist: std::sync::Arc<dyn sw_keyspace::distribution::KeyDistribution>,
        _shards: usize,
        _horizon: SimTime,
    ) -> ShardedSimulator {
        ShardedSimulator
    }

    pub fn set_workers(&mut self, _workers: usize) {}

    pub fn run_until(&mut self, _until: SimTime) {}

    pub fn run_serial_until(&mut self, _until: SimTime) {}

    pub fn events(&self) -> u64 {
        0
    }
}

/// A shim for the per-hop latency model, which had one variant: every
/// hop takes [`HOP_DELAY`]. It and three other `#[doc(hidden)]` fields,
/// `StorageConfig::{range_width, repair_byte_secs, routing_mode}`, keep
/// compiling the frozen benchmark, which still writes or reads them.
/// [`Simulator::with_store`] refuses any value but the constant (or
/// `None`), so none is ignored. The next change to the benchmark deletes
/// all four.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    Constant(SimTime),
}

/// The boot-time refusal of every shim value but the constant.
pub(crate) fn refuse_shim_values(cfg: &SimConfig) {
    let storage = &cfg.storage;
    assert!(
        cfg.latency == LatencyModel::Constant(HOP_DELAY)
            && storage.range_width == RANGE_WIDTH
            && storage.repair_byte_secs == REPAIR_BYTE_SECS
            && storage.routing_mode.is_none(),
        "SimConfig::latency and StorageConfig::{{range_width, repair_byte_secs, routing_mode}} \
         are shims that the next change to the benchmark deletes: only Constant(HOP_DELAY), \
         RANGE_WIDTH, REPAIR_BYTE_SECS and None run, not {:?} and {storage:?}",
        cfg.latency
    );
}
