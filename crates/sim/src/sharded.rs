//! Peer-sharded parallel discrete-event execution with conservative
//! time windows and a deterministic merge.
//!
//! # Why a second engine
//!
//! The serial [`Simulator`](crate::Simulator) threads every handler
//! through one global state bundle (walk pool, delta-overlay topology,
//! shared metrics), which makes it fast to iterate on but impossible to
//! partition: almost every event touches state owned by an arbitrary
//! peer. [`ShardedSimulator`] is built the other way around — **every
//! handler touches only its home peer's state** (`SNode`), the
//! immutable shared `Global`, and the payload carried by the message
//! itself. Peer state is disjoint by construction, so *any* partition
//! of the peers produces the same per-peer event trajectories.
//!
//! # Execution model
//!
//! Peers are partitioned into `P` shards by `id % P`. Each shard owns
//! its own [`MessagePlane`], its slice of node state, and its own
//! mergeable [`SimMetrics`]. The driver advances virtual time in
//! **conservative windows** of width δ, the *lookahead*: the fixed
//! cross-peer hop delay of the latency model (see [`lookahead`]).
//! Every cross-peer send clamps its delivery to `now + δ` or later,
//! so all events inside the window `[T, T + δ)` are causally
//! independent **across** shards and the shards can execute the
//! window in parallel (scoped std threads, one
//! [`std::thread::scope`] region per window). Sends that target another
//! shard are buffered in per-destination outboxes; at the window
//! barrier they are exchanged and enqueued on the target plane.
//!
//! # Determinism contract
//!
//! Delivery order at a peer must not depend on the shard count or the
//! worker count. Every envelope therefore carries a canonical ordering
//! key `(sender_id << 32) | per-sender-sequence` (via
//! [`MessagePlane::send_keyed`]); planes order by `(at, key)`. Since
//! each peer's send counter advances with its own (canonically ordered)
//! event subsequence, the key assigned to every message is invariant to
//! `P` and to the worker count — so the full event order at every peer,
//! every RNG draw, and every metric counter is bit-identical for any
//! `P ∈ {1, 2, …}` and any number of workers. The serial oracle
//! ([`ShardedSimulator::run_serial_until`], `P = 1`, a plain drain loop
//! with no window clamping) is compared against the windowed driver in
//! the property tests below.
//!
//! The key's two halves are 32 bits each, which bounds a run: peer ids
//! are `u32`, and one peer may send fewer than 2³² messages. A wrapped
//! sequence would reuse keys and silently break the merge order, so the
//! engine panics on the 2³²-th send of any one peer instead.
//!
//! Floating-point *accumulator* lanes ([`OnlineStats`]) are excluded
//! from the parity fingerprint: per-shard accumulation then merge folds
//! the same samples in a different order than one serial accumulator,
//! which drifts the low bits. Their `count()`s, every integer counter,
//! and both latency histograms are bit-compared, as is the full
//! topology + storage digest ([`ShardedSimulator::topology_digest`]).
//!
//! # Protocol (per-peer formulation)
//!
//! The protocol mirrors the serial engine's semantics in a strictly
//! peer-local form: recursive carried walks (greedy on ring distance
//! with a one-hop clockwise correction at the local minimum), Chord
//!-style stabilization (`StabReq`/`StabReply` + notify fold-in),
//! harmonic-distance link refresh via probe walks, join by walking to
//! the key's owner and splicing, replicated puts with replica-fallback
//! get probes and read repair, and digest/pull/push anti-entropy. Two
//! documented simplifications versus the serial engine: range queries
//! and the keep-arc hand-off are not modeled, and a get probe lost to a dead replica
//! is re-forwarded from the dead peer's shard (modeling the requester's
//! timeout without a requester round-trip). Failure victims are drawn
//! as per-peer exponential lifetimes (uniform hazard).
//!
//! [`OnlineStats`]: sw_keyspace::stats::OnlineStats

use crate::engine::{SimConfig, OUT_DEGREE, SUCCESSOR_LIST, TIMEOUT_PENALTY};
use crate::latency::LatencyModel;
use crate::metrics::SimMetrics;
use crate::plane::{Envelope, MessagePlane};
use crate::time::SimTime;
use crate::traffic::{HotCache, ServiceQueue, TokenBucket, ZipfSampler};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use sw_core::config::{LinkSampler, MassThreshold};
use sw_core::links::LinkSelector;
use sw_graph::{par, IdMap};
use sw_keyspace::distribution::KeyDistribution;
use sw_keyspace::Topology as Metric;
use sw_keyspace::{Key, Rng};
use sw_overlay::Placement;

/// Modeled payload bytes per stored item (matches the serial engine).
const ITEM_BYTES: u64 = 64;
/// Fixed per-message header bytes for repair digests and pulls.
const DIGEST_HDR_BYTES: usize = 16;
/// Bytes per `(key, version)` entry in a repair digest.
const DIGEST_KEY_BYTES: usize = 12;
/// Bytes per key in a repair pull request.
const PULL_KEY_BYTES: usize = 8;
/// A joiner retries its join walk at most this many times.
const MAX_JOIN_ATTEMPTS: u8 = 8;

/// Boot-time RNG stream salts (per-peer streams start at `PEER_BASE`).
mod stream {
    pub const BOOT: u64 = 0x5A01;
    pub const JOINS: u64 = 0x5A02;
    pub const PRELOAD: u64 = 0x5A03;
    pub const LOOKUPS: u64 = 0x5A04;
    pub const PUTS: u64 = 0x5A05;
    pub const GETS: u64 = 0x5A06;
    pub const TRAFFIC: u64 = 0x5A07;
    pub const PEER_BASE: u64 = 0x1_0000;
}

/// The conservative lookahead δ: the cross-peer hop delay under
/// `model`, clamped to ≥ 1 µs so windows always advance. Every
/// cross-peer send clamps its delivery to `now + δ`, which is what
/// makes same-window events causally independent across shards.
pub fn lookahead(model: &LatencyModel) -> SimTime {
    model.delay().max(SimTime(1))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeerState {
    /// A joiner that has not yet been spliced into the ring.
    Dormant,
    Alive,
    Dead,
}

/// Walk purpose: what happens when the walk reaches the key's owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WalkKind {
    /// Plain lookup; `rank` is set for traffic-generator lookups and
    /// routes the result back to the gateway for its cache.
    Lookup {
        rank: Option<u32>,
    },
    Put {
        ver: u64,
    },
    Get,
    Join {
        joiner: u32,
        attempt: u8,
    },
    /// Link-refresh probe; the terminal node is reported back to
    /// `origin` for link slot `slot`.
    Probe {
        slot: u32,
    },
}

/// A carried (recursive) walk: the entire walk state travels in the
/// message, so each hop only reads the current peer's views.
#[derive(Debug, Clone)]
struct CWalk {
    kind: WalkKind,
    /// Target key as order-preserving `f64` bits.
    target: u64,
    origin: u32,
    /// Peer that sent the current hop (retries are addressed here).
    cur: u32,
    hops: u32,
    issued_at: SimTime,
    /// When the current hop was sent (timeout base).
    sent_at: SimTime,
    /// Peers learned dead during this walk.
    excluded: Vec<u32>,
    /// Set once the walk has taken its final clockwise correction hop.
    corrected: bool,
}

/// Replica-fallback get probe, advanced along the owner's successor
/// chain captured at fallback time.
#[derive(Debug, Clone)]
struct GetProbe {
    key: u64,
    chain: Vec<u32>,
    idx: usize,
    owner: u32,
    issued_at: SimTime,
}

/// A network message: consumes latency (and congestion costs) in
/// flight.
#[derive(Debug, Clone)]
enum NetMsg {
    Hop(CWalk),
    TrafficResult {
        key: u64,
        ok: bool,
    },
    StabReq {
        from: u32,
        sent_at: SimTime,
    },
    StabReply {
        pred: Option<u32>,
        succ: Vec<u32>,
    },
    Notify {
        candidate: u32,
    },
    JoinAck {
        pred: Option<u32>,
        succ: Vec<u32>,
        items: Vec<(u64, u64)>,
    },
    ProbeResult {
        slot: u32,
        node: u32,
    },
    ReplicaPut {
        key: u64,
        ver: u64,
    },
    GetProbe(GetProbe),
    ReadRepair {
        key: u64,
        ver: u64,
    },
    RepairDigest {
        from: u32,
        items: Vec<(u64, u64)>,
    },
    RepairPull {
        from: u32,
        keys: Vec<u64>,
    },
    RepairPush {
        items: Vec<(u64, u64)>,
    },
}

/// An event addressed to one peer. Timers and bookkeeping are direct
/// variants; network traffic is boxed to keep the envelope small.
#[derive(Debug)]
enum Ev {
    SpawnLookup {
        key: u64,
    },
    SpawnPut {
        key: u64,
        ver: u64,
    },
    SpawnGet {
        key: u64,
    },
    SpawnTraffic {
        rank: u32,
    },
    StabTick,
    RefreshTick,
    RepairTick,
    JoinWake,
    Die,
    /// The sender of a lost walk hop times out and resumes the walk.
    Retry {
        walk: Box<CWalk>,
        dead: u32,
    },
    StabTimeout {
        probed: u32,
    },
    /// A queued network message whose service completed.
    Admitted(Box<NetMsg>),
    Net(Box<NetMsg>),
}

#[derive(Debug)]
struct Addressed {
    to: u32,
    ev: Ev,
}

/// Immutable state shared (read-only) by all shards during a window.
struct Global {
    cfg: SimConfig,
    /// Conservative lookahead (window width).
    delta: SimTime,
    shards: u32,
    /// Initial (ring) population; ids `0..n0` hold ascending keys.
    n0: u32,
    /// Total ids including the pre-drawn joiner pool.
    total: u32,
    /// Key of every id, as order-preserving `f64` bits.
    keybits: Vec<u64>,
    /// Key of every id, as the raw position in `[0, 1)`.
    pos: Vec<f64>,
    max_hops: u32,
    /// Copies per item (primary + replicas).
    repl: usize,
    link_budget: usize,
    storage_enabled: bool,
    /// Per-message service time (congestion queueing).
    service: SimTime,
    /// Keys bulk-loaded at time zero (durability census universe).
    preload_keys: Vec<u64>,
    /// Hot-key bits by popularity rank (traffic generator).
    traffic_targets: Vec<u64>,
}

impl Global {
    fn shard_of(&self, id: u32) -> usize {
        (id % self.shards) as usize
    }
}

/// One peer's complete state. Handlers may touch only their home
/// peer's `SNode` — that invariant is what makes sharding sound.
struct SNode {
    state: PeerState,
    /// Per-peer stream: every draw happens in the peer's canonical
    /// event order, so draws are invariant to shard/worker counts.
    rng: Rng,
    /// Per-sender sequence for canonical envelope keys.
    send_ctr: u32,
    pred: Option<u32>,
    succ: Vec<u32>,
    links: Vec<u32>,
    /// Items this peer owns (arc `(pred, self]`), key bits → version.
    primary: BTreeMap<u64, u64>,
    /// Replica copies held for other owners.
    replica: BTreeMap<u64, u64>,
    queue: ServiceQueue,
    /// Lazily allocated per-destination token buckets (never iterated,
    /// so map order cannot leak into behavior).
    buckets: IdMap<u32, TokenBucket>,
    /// Gateway hot-key cache (traffic generator only).
    cache: Option<HotCache>,
}

/// One shard: a slice of peers (`id % P == index`, local index
/// `id / P`), its own plane, outboxes, and mergeable metrics.
struct Shard {
    index: u32,
    plane: MessagePlane<Addressed>,
    nodes: Vec<SNode>,
    metrics: SimMetrics,
    /// Cross-shard sends buffered until the window barrier, one bucket
    /// per destination shard.
    outbox: Vec<Vec<(SimTime, u64, Addressed)>>,
    /// Reused same-instant delivery batch.
    batch: Vec<Envelope<Addressed>>,
}

/// The peer-sharded conservative-window simulator. See the module docs
/// for the execution model and determinism contract.
pub struct ShardedSimulator {
    global: Global,
    shards: Vec<Shard>,
    workers: usize,
    merged: SimMetrics,
}

fn in_arc(lo: u64, hi: u64, k: u64) -> bool {
    use std::cmp::Ordering::*;
    match lo.cmp(&hi) {
        Less => k > lo && k <= hi,
        Greater => k > lo || k <= hi,
        Equal => true,
    }
}

fn ring_dist(a: f64, b: f64) -> f64 {
    let d = (a - b).abs();
    d.min(1.0 - d)
}

/// Clockwise distance from `from` to `to` on the unit ring; `(0, 1]`.
fn cw(from: f64, to: f64) -> f64 {
    let d = to - from;
    if d <= 0.0 {
        d + 1.0
    } else {
        d
    }
}

fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}

/// Owner id of `k` on the *initial* ring (ids `0..n0` hold ascending
/// keys; a peer owns the arc `(pred_key, self_key]`).
fn owner_of(initial_bits: &[u64], k: u64) -> usize {
    let i = initial_bits.partition_point(|&b| b < k);
    i % initial_bits.len()
}

impl ShardedSimulator {
    /// Builds the initial converged overlay (same harmonic sampler and
    /// per-peer RNG streams as the serial engine), pre-draws every
    /// open-loop schedule up to `horizon` (workload, traffic, joins,
    /// per-peer timers and lifetimes), and seeds each shard's plane.
    ///
    /// Pre-drawn schedules are what keep the boot `P`-invariant: each
    /// generated operation is an ordinary keyed envelope addressed to
    /// its origin peer, so no global "generator peer" serializes the
    /// run. `run_until` past `horizon` is allowed — the generators
    /// simply stop injecting.
    pub fn new(
        cfg: SimConfig,
        dist: Arc<dyn KeyDistribution>,
        shards: usize,
        horizon: SimTime,
    ) -> ShardedSimulator {
        assert!(shards >= 1, "need at least one shard");
        let n0 = cfg.initial_n;
        assert!(n0 >= 2, "need at least two initial peers");
        assert!(horizon > SimTime::ZERO, "need a positive horizon");

        // Initial membership: n0 distinct keys, ascending by id.
        let mut boot_rng = Rng::stream(cfg.seed, stream::BOOT);
        let mut keyset: BTreeSet<Key> = BTreeSet::new();
        while keyset.len() < n0 {
            keyset.insert(dist.sample_key(&mut boot_rng));
        }
        let keys: Vec<Key> = keyset.into_iter().collect();
        let mut keybits: Vec<u64> = keys.iter().map(|k| k.get().to_bits()).collect();

        // Joiner pool: arrival times then keys, both from one stream.
        let mut join_rng = Rng::stream(cfg.seed, stream::JOINS);
        let mut join_times: Vec<SimTime> = Vec::new();
        if cfg.churn.join_rate > 0.0 {
            let mut t = 0.0;
            loop {
                t += join_rng.exponential(cfg.churn.join_rate);
                let at = SimTime::from_secs_f64(t);
                if at > horizon {
                    break;
                }
                join_times.push(at.max(SimTime(1)));
            }
        }
        let mut used: BTreeSet<u64> = keybits.iter().copied().collect();
        for _ in 0..join_times.len() {
            loop {
                let k = dist.sample_key(&mut join_rng).get().to_bits();
                if used.insert(k) {
                    keybits.push(k);
                    break;
                }
            }
        }
        let total = keybits.len();
        let pos: Vec<f64> = keybits.iter().map(|&b| f64::from_bits(b)).collect();

        // Long links for the initial ring via the shared harmonic
        // sampler — same per-peer streams as the serial engine, so the
        // sampled overlay is a pure function of (seed, n, dist).
        let link_budget = OUT_DEGREE.links_for(n0);
        let placement = Placement::from_keys(keys, Metric::Ring, "sharded-sim")
            .expect("distinct sampled keys always place");
        let min_mass = MassThreshold::OneOverN.min_mass(n0);
        let selector = LinkSelector::new(&placement, &*dist, min_mass, LinkSampler::Harmonic);
        let build_seed = boot_rng.next_u64();
        let rows: Vec<Vec<u32>> = par::par_map_grained(n0, cfg.parallelism, 256, |u| {
            selector.sample_links(
                u as u32,
                link_budget,
                &mut Rng::stream(build_seed, u as u64),
            )
        });

        // Traffic generator setup (gateways, hot keys, arrivals).
        let mut traffic_rng = Rng::stream(cfg.seed, stream::TRAFFIC);
        let mut gateways: Vec<u32> = Vec::new();
        let mut traffic_targets: Vec<u64> = Vec::new();
        let mut traffic_arrivals: Vec<(SimTime, u32, u32)> = Vec::new();
        if cfg.traffic.enabled() {
            let mut ids: Vec<u32> = (0..n0 as u32).collect();
            traffic_rng.shuffle(&mut ids);
            ids.truncate(cfg.traffic.gateways.clamp(1, n0));
            gateways = ids;
            traffic_targets = (0..cfg.traffic.hot_keys)
                .map(|_| dist.sample_key(&mut traffic_rng).get().to_bits())
                .collect();
            let zipf = ZipfSampler::new(cfg.traffic.hot_keys, cfg.traffic.zipf_s);
            let mut t = 0.0;
            loop {
                t += traffic_rng.exponential(cfg.traffic.rate);
                let at = SimTime::from_secs_f64(t);
                if at > horizon {
                    break;
                }
                let gw = gateways[traffic_rng.index(gateways.len())];
                let rank = zipf.sample(&mut traffic_rng) as u32;
                traffic_arrivals.push((at.max(SimTime(1)), gw, rank));
            }
        }

        // Preloaded items (distinct keys; versions are load indices).
        let storage_enabled =
            cfg.storage.put_rate > 0.0 || cfg.storage.get_rate > 0.0 || cfg.storage.preload > 0;
        let mut preload_rng = Rng::stream(cfg.seed, stream::PRELOAD);
        let mut preload_keys: Vec<u64> = Vec::new();
        let mut preload_set: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..cfg.storage.preload {
            loop {
                let k = dist.sample_key(&mut preload_rng).get().to_bits();
                if preload_set.insert(k) {
                    preload_keys.push(k);
                    break;
                }
            }
        }

        let global = Global {
            delta: lookahead(&cfg.latency),
            shards: shards as u32,
            n0: n0 as u32,
            total: total as u32,
            max_hops: (2.0 * (n0.max(2) as f64).log2()).ceil() as u32 + 16,
            repl: cfg.storage.replication.max(1),
            link_budget,
            storage_enabled,
            service: SimTime::from_secs_f64(cfg.congestion.service_secs_per_msg.max(0.0)),
            keybits,
            pos,
            preload_keys,
            traffic_targets,
            cfg,
        };
        let cfg = &global.cfg;

        let mut shard_vec: Vec<Shard> = (0..shards)
            .map(|i| Shard {
                index: i as u32,
                plane: MessagePlane::new(),
                nodes: Vec::new(),
                metrics: SimMetrics::default(),
                outbox: (0..shards).map(|_| Vec::new()).collect(),
                batch: Vec::new(),
            })
            .collect();
        for id in 0..total as u32 {
            let i = id as usize;
            let initial = i < n0;
            let succ: Vec<u32> = if initial {
                (1..=SUCCESSOR_LIST.min(n0 - 1))
                    .map(|d| ((i + d) % n0) as u32)
                    .collect()
            } else {
                Vec::new()
            };
            let node = SNode {
                state: if initial {
                    PeerState::Alive
                } else {
                    PeerState::Dormant
                },
                rng: Rng::stream(cfg.seed, stream::PEER_BASE + id as u64),
                send_ctr: 0,
                pred: if initial {
                    Some(((i + n0 - 1) % n0) as u32)
                } else {
                    None
                },
                succ,
                links: if initial { rows[i].clone() } else { Vec::new() },
                primary: BTreeMap::new(),
                replica: BTreeMap::new(),
                queue: ServiceQueue::default(),
                buckets: IdMap::default(),
                cache: if gateways.contains(&id) {
                    cfg.traffic.cache.map(|cc| HotCache::new(cc.capacity))
                } else {
                    None
                },
            };
            shard_vec[global.shard_of(id)].nodes.push(node);
        }

        // Preload placement: owner + successor chain on the initial
        // ring (ids are in key order, so the chain is `owner + c`).
        let copies = global.repl.min(n0);
        for (i, &k) in global.preload_keys.iter().enumerate() {
            let owner = owner_of(&global.keybits[..n0], k);
            for c in 0..copies {
                let id = ((owner + c) % n0) as u32;
                let s = &mut shard_vec[global.shard_of(id)];
                let n = &mut s.nodes[(id / global.shards) as usize];
                let map = if c == 0 {
                    &mut n.primary
                } else {
                    &mut n.replica
                };
                if map.insert(k, i as u64).is_none() {
                    s.metrics.stored_bytes += ITEM_BYTES;
                }
            }
        }

        let mut sim = ShardedSimulator {
            global,
            shards: shard_vec,
            workers: 1,
            merged: SimMetrics::default(),
        };

        // Boot envelopes, in one fixed global order (every entry bumps
        // its origin's send counter, so order is part of the contract):
        // per-peer timers, joiner wakes, then the open-loop schedules.
        let g = &sim.global;
        for id in 0..g.n0 {
            sim.shards[g.shard_of(id)].schedule_peer_timers(g, id, SimTime::ZERO);
        }
        for (j, &at) in join_times.iter().enumerate() {
            let id = (g.n0 as usize + j) as u32;
            sim.shards[g.shard_of(id)].send_ev(g, id, id, at, Ev::JoinWake);
        }
        let mut lrng = Rng::stream(g.cfg.seed, stream::LOOKUPS);
        if g.cfg.workload.lookup_rate > 0.0 {
            let mut t = 0.0;
            loop {
                t += lrng.exponential(g.cfg.workload.lookup_rate);
                let at = SimTime::from_secs_f64(t);
                if at > horizon {
                    break;
                }
                let origin = lrng.index(g.n0 as usize) as u32;
                // Member-key lookups, like the serial workload.
                let key = g.keybits[lrng.index(g.n0 as usize)];
                sim.shards[g.shard_of(origin)].send_ev(
                    g,
                    origin,
                    origin,
                    at.max(SimTime(1)),
                    Ev::SpawnLookup { key },
                );
            }
        }
        let mut prng = Rng::stream(g.cfg.seed, stream::PUTS);
        if g.cfg.storage.put_rate > 0.0 {
            let mut t = 0.0;
            let mut ver = 1_000_000_000u64;
            loop {
                t += prng.exponential(g.cfg.storage.put_rate);
                let at = SimTime::from_secs_f64(t);
                if at > horizon {
                    break;
                }
                let origin = prng.index(g.n0 as usize) as u32;
                let key = dist.sample_key(&mut prng).get().to_bits();
                ver += 1;
                sim.shards[g.shard_of(origin)].send_ev(
                    g,
                    origin,
                    origin,
                    at.max(SimTime(1)),
                    Ev::SpawnPut { key, ver },
                );
            }
        }
        let mut grng = Rng::stream(g.cfg.seed, stream::GETS);
        if g.cfg.storage.get_rate > 0.0 {
            let mut t = 0.0;
            loop {
                t += grng.exponential(g.cfg.storage.get_rate);
                let at = SimTime::from_secs_f64(t);
                if at > horizon {
                    break;
                }
                let origin = grng.index(g.n0 as usize) as u32;
                let key = if g.preload_keys.is_empty() {
                    dist.sample_key(&mut grng).get().to_bits()
                } else {
                    g.preload_keys[grng.index(g.preload_keys.len())]
                };
                sim.shards[g.shard_of(origin)].send_ev(
                    g,
                    origin,
                    origin,
                    at.max(SimTime(1)),
                    Ev::SpawnGet { key },
                );
            }
        }
        for (at, gw, rank) in traffic_arrivals {
            sim.shards[sim.global.shard_of(gw)].send_ev(
                &sim.global,
                gw,
                gw,
                at,
                Ev::SpawnTraffic { rank },
            );
        }
        sim
    }

    /// Sets the worker count for the windowed driver (`0` = auto,
    /// capped at the shard count). Results are identical for every
    /// value — that is the point of the determinism contract.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers;
    }

    /// Shards in this simulator.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The conservative window width δ.
    pub fn delta(&self) -> SimTime {
        self.global.delta
    }

    /// Merged metrics of the last `run_*` call.
    pub fn metrics(&self) -> &SimMetrics {
        &self.merged
    }

    /// Integer-lane metrics fingerprint of the last run (see
    /// [`SimMetrics::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.merged.fingerprint()
    }

    /// Total events delivered across all shard planes.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.plane.delivered()).sum()
    }

    /// Serial oracle: requires `P = 1` and drains the single plane in
    /// one pass with **no window clamping** — a structurally different
    /// control path than the windowed driver, kept as the ground truth
    /// the parity tests compare against.
    pub fn run_serial_until(&mut self, until: SimTime) {
        assert_eq!(
            self.shards.len(),
            1,
            "serial oracle needs exactly one shard"
        );
        let global = &self.global;
        let shard = &mut self.shards[0];
        shard.run_window(global, until);
        debug_assert!(shard.outbox.iter().all(Vec::is_empty));
        shard.plane.advance_to(until);
        self.finish(until);
    }

    /// The conservative-window driver: repeatedly finds the earliest
    /// due instant across shards, executes the window
    /// `[start, start + δ)` on all shards (in parallel when
    /// `workers > 1`), then exchanges the buffered cross-shard sends at
    /// the barrier. Works for any `P ≥ 1`.
    pub fn run_until(&mut self, until: SimTime) {
        let global = &self.global;
        let shards = &mut self.shards;
        let workers = if self.workers == 0 {
            par::default_parallelism()
        } else {
            self.workers
        }
        .clamp(1, shards.len());
        let per = shards.len().div_ceil(workers);
        while let Some(start) = shards.iter_mut().filter_map(|s| s.plane.next_due()).min() {
            if start > until {
                break;
            }
            let hi = SimTime(start.0 + global.delta.0 - 1).min(until);
            let run = move |group: &mut [Shard]| {
                for s in group {
                    s.run_window(global, hi);
                }
            };
            // One scoped region per window: the first shard group runs
            // here, each other group (none when `workers == 1`) on a
            // thread of its own.
            let (first, rest) = shards.split_at_mut(per);
            std::thread::scope(|sc| {
                for group in rest.chunks_mut(per) {
                    sc.spawn(move || run(group));
                }
                run(first);
            });
            Self::exchange(shards, hi);
        }
        for s in shards.iter_mut() {
            s.plane.advance_to(until);
        }
        self.finish(until);
    }

    /// Window barrier: moves every buffered cross-shard envelope onto
    /// its destination plane. Iteration order is fixed (source-major),
    /// but the planes order by `(at, key)` anyway, so the exchange
    /// order is immaterial to delivery order.
    fn exchange(shards: &mut [Shard], window_hi: SimTime) {
        let p = shards.len();
        for src in 0..p {
            for dst in 0..p {
                if src == dst {
                    continue;
                }
                if shards[src].outbox[dst].is_empty() {
                    continue;
                }
                let moved = std::mem::take(&mut shards[src].outbox[dst]);
                for (at, key, msg) in moved {
                    debug_assert!(at > window_hi, "conservative window violated");
                    shards[dst].plane.send_keyed(at, key, msg);
                }
            }
        }
    }

    /// Deterministic merge: folds per-shard metrics in shard order
    /// (single-threaded), stamps the event total and end time, and
    /// runs the durability census over the preload keys.
    fn finish(&mut self, until: SimTime) {
        let mut m = SimMetrics::default();
        for s in &self.shards {
            m.merge(&s.metrics);
        }
        m.events = self.events();
        m.end_time = until;
        if self.global.storage_enabled && !self.global.preload_keys.is_empty() {
            let mut copies: HashMap<u64, u32> =
                self.global.preload_keys.iter().map(|&k| (k, 0)).collect();
            for s in &self.shards {
                for n in &s.nodes {
                    if n.state != PeerState::Alive {
                        continue;
                    }
                    for k in n.primary.keys().chain(n.replica.keys()) {
                        if let Some(c) = copies.get_mut(k) {
                            *c += 1;
                        }
                    }
                }
            }
            let repl = self.global.repl as u32;
            m.keys_lost = copies.values().filter(|&&c| c == 0).count() as u64;
            m.keys_under_replicated =
                copies.values().filter(|&&c| c > 0 && c < repl).count() as u64;
        }
        self.merged = m;
    }

    /// Order-fixed digest over every peer's full state: liveness,
    /// views, stored items, and send counters (the latter pin the
    /// complete per-peer send history). Bit-equal digests across
    /// `P` and worker counts are the engine's acceptance criterion.
    pub fn topology_digest(&self) -> u64 {
        let g = &self.global;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for id in 0..g.total {
            let n = &self.shards[g.shard_of(id)].nodes[(id / g.shards) as usize];
            h = fold(h, id as u64);
            h = fold(
                h,
                match n.state {
                    PeerState::Dormant => 0,
                    PeerState::Alive => 1,
                    PeerState::Dead => 2,
                },
            );
            h = fold(h, n.pred.map_or(u64::MAX, |p| p as u64));
            for &x in &n.succ {
                h = fold(h, x as u64 + 1);
            }
            h = fold(h, u64::MAX - 1);
            for &x in &n.links {
                h = fold(h, x as u64 + 1);
            }
            h = fold(h, u64::MAX - 2);
            for (k, v) in n.primary.iter().chain(n.replica.iter()) {
                h = fold(h, *k);
                h = fold(h, *v);
            }
            h = fold(h, n.send_ctr as u64);
        }
        h
    }
}

impl Shard {
    fn local(&self, g: &Global, id: u32) -> usize {
        debug_assert_eq!(id % g.shards, self.index, "event routed to wrong shard");
        (id / g.shards) as usize
    }

    fn is_alive(&self, g: &Global, id: u32) -> bool {
        self.nodes[self.local(g, id)].state == PeerState::Alive
    }

    /// True when `p`'s arc `(pred, self]` covers `k`.
    fn owns_key(&self, g: &Global, p: u32, k: u64) -> bool {
        let n = &self.nodes[self.local(g, p)];
        match n.pred {
            Some(pr) => in_arc(g.keybits[pr as usize], g.keybits[p as usize], k),
            None => g.keybits[p as usize] == k,
        }
    }

    /// Drains everything due at or before `until` — one same-instant
    /// batch at a time, so handler sends landing at the current instant
    /// are picked up (in key order) before time advances.
    fn run_window(&mut self, g: &Global, until: SimTime) {
        let mut batch = std::mem::take(&mut self.batch);
        while self.plane.deliver_window(until, &mut batch) > 0 {
            for env in batch.drain(..) {
                let Addressed { to, ev } = env.msg;
                self.dispatch(g, env.at, to, ev);
            }
        }
        self.batch = batch;
    }

    /// Enqueues an event with the canonical `(sender << 32) | seq` key:
    /// same-shard destinations go straight onto the plane, cross-shard
    /// ones into the outbox for the window barrier.
    fn send_ev(&mut self, g: &Global, from: u32, to: u32, at: SimTime, ev: Ev) {
        let li = self.local(g, from);
        let key = {
            let n = &mut self.nodes[li];
            let key = ((from as u64) << 32) | n.send_ctr as u64;
            n.send_ctr = n
                .send_ctr
                .checked_add(1)
                .expect("per-sender sequence exhausted: 2^32 sends");
            key
        };
        let dst = (to % g.shards) as usize;
        if dst == self.index as usize {
            self.plane.send_keyed(at, key, Addressed { to, ev });
        } else {
            debug_assert!(
                at >= self.plane.now() + g.delta,
                "cross-shard send inside the lookahead window"
            );
            self.outbox[dst].push((at, key, Addressed { to, ev }));
        }
    }

    /// Sends a network message: token-bucket shaping at the sender,
    /// the hop delay, plus `extra` payload-transfer delay — clamped to
    /// the lookahead `now + δ`.
    fn send_net(
        &mut self,
        g: &Global,
        now: SimTime,
        from: u32,
        to: u32,
        extra: SimTime,
        msg: NetMsg,
    ) {
        let li = self.local(g, from);
        let mut depart = now;
        if g.cfg.congestion.shaping_enabled() {
            let cc = &g.cfg.congestion;
            let b = self.nodes[li]
                .buckets
                .entry(to)
                .or_insert_with(|| TokenBucket::full(now, cc.link_burst));
            depart = now + b.delay(now, cc.link_rate, cc.link_burst);
        }
        let at = (depart + g.cfg.latency.delay() + extra).max(now + g.delta);
        self.send_ev(g, from, to, at, Ev::Net(Box::new(msg)));
    }

    fn dispatch(&mut self, g: &Global, now: SimTime, to: u32, ev: Ev) {
        match ev {
            Ev::SpawnLookup { key } => {
                self.spawn_walk(g, now, to, WalkKind::Lookup { rank: None }, key)
            }
            Ev::SpawnPut { key, ver } => self.spawn_walk(g, now, to, WalkKind::Put { ver }, key),
            Ev::SpawnGet { key } => self.spawn_walk(g, now, to, WalkKind::Get, key),
            Ev::SpawnTraffic { rank } => self.spawn_traffic(g, now, to, rank),
            Ev::StabTick => self.stab_tick(g, now, to),
            Ev::RefreshTick => self.refresh_tick(g, now, to),
            Ev::RepairTick => self.repair_tick(g, now, to),
            Ev::JoinWake => {
                if self.nodes[self.local(g, to)].state == PeerState::Dormant {
                    self.launch_join(g, now, to, 0, Vec::new());
                }
            }
            Ev::Die => self.die(g, now, to),
            Ev::Retry { walk, dead } => self.retry(g, now, to, *walk, dead),
            Ev::StabTimeout { probed } => self.stab_timeout(g, now, to, probed),
            Ev::Admitted(msg) => {
                if self.is_alive(g, to) {
                    self.handle_net(g, now, to, *msg);
                } else {
                    // Died while the message sat in its service queue.
                    self.on_lost(g, now, to, *msg);
                }
            }
            Ev::Net(msg) => self.net_arrival(g, now, to, *msg),
        }
    }

    /// Network arrival: liveness check, then (optionally) two-phase
    /// admission through the peer's analytic service queue.
    fn net_arrival(&mut self, g: &Global, now: SimTime, to: u32, msg: NetMsg) {
        match self.nodes[self.local(g, to)].state {
            PeerState::Alive => {}
            PeerState::Dormant => {
                // A dormant joiner only ever receives its own JoinAck
                // (admission-free: it is not serving traffic yet).
                if matches!(msg, NetMsg::JoinAck { .. }) {
                    return self.handle_net(g, now, to, msg);
                }
                return self.on_lost(g, now, to, msg);
            }
            PeerState::Dead => return self.on_lost(g, now, to, msg),
        }
        if g.cfg.congestion.queueing_enabled() {
            let cc = &g.cfg.congestion;
            let offer = {
                let li = self.local(g, to);
                self.nodes[li].queue.offer(now, g.service, cc.queue_cap)
            };
            match offer {
                None => {
                    self.metrics.msgs_dropped_overload += 1;
                    self.on_lost(g, now, to, msg);
                }
                Some((done, wait, depth)) => {
                    self.metrics.queue_wait.record(wait);
                    self.metrics.queue_depth_peak = self.metrics.queue_depth_peak.max(depth);
                    self.send_ev(g, to, to, done, Ev::Admitted(Box::new(msg)));
                }
            }
        } else {
            self.handle_net(g, now, to, msg);
        }
    }

    /// Consequences of a message that was never serviced (dead target
    /// or queue overflow): request/response traffic triggers the
    /// sender's timeout; fire-and-forget traffic is silently lost.
    fn on_lost(&mut self, g: &Global, now: SimTime, to: u32, msg: NetMsg) {
        match msg {
            NetMsg::Hop(w) => {
                let at = (w.sent_at + TIMEOUT_PENALTY).max(now + g.delta);
                let cur = w.cur;
                self.send_ev(
                    g,
                    to,
                    cur,
                    at,
                    Ev::Retry {
                        walk: Box::new(w),
                        dead: to,
                    },
                );
            }
            NetMsg::StabReq { from, sent_at } => {
                let at = (sent_at + TIMEOUT_PENALTY).max(now + g.delta);
                self.send_ev(g, to, from, at, Ev::StabTimeout { probed: to });
            }
            NetMsg::GetProbe(mut p) => {
                // Model the requester's timeout without a round-trip:
                // the dead replica's shard advances the probe chain
                // after the timeout penalty (documented simplification).
                self.metrics.timeouts += 1;
                p.idx += 1;
                if p.idx < p.chain.len() {
                    self.metrics.storage_messages += 1;
                    let next = p.chain[p.idx];
                    let at = (now + TIMEOUT_PENALTY).max(now + g.delta);
                    self.send_ev(g, to, next, at, Ev::Net(Box::new(NetMsg::GetProbe(p))));
                } else {
                    self.metrics.gets += 1;
                }
            }
            _ => {}
        }
    }

    fn handle_net(&mut self, g: &Global, now: SimTime, to: u32, msg: NetMsg) {
        match msg {
            NetMsg::Hop(w) => self.step_walk(g, now, to, w),
            NetMsg::TrafficResult { key, ok } => {
                let li = self.local(g, to);
                if ok {
                    if let (Some(cache), Some(cc)) =
                        (&mut self.nodes[li].cache, g.cfg.traffic.cache)
                    {
                        cache.insert(key, now + cc.ttl);
                    }
                }
            }
            NetMsg::StabReq { from, sent_at: _ } => self.stab_req(g, now, to, from),
            NetMsg::StabReply { pred, succ } => {
                self.metrics.stabilize_messages += 1;
                let mut cands = succ;
                if let Some(pr) = pred {
                    cands.push(pr);
                }
                self.rebuild_succ(g, to, cands);
            }
            NetMsg::Notify { candidate } => self.rebuild_succ(g, to, vec![candidate]),
            NetMsg::JoinAck { pred, succ, items } => self.join_ack(g, now, to, pred, succ, items),
            NetMsg::ProbeResult { slot, node } => {
                self.metrics.refresh_messages += 1;
                if node != to {
                    let li = self.local(g, to);
                    let n = &mut self.nodes[li];
                    let slot = slot as usize;
                    if slot < n.links.len() {
                        n.links[slot] = node;
                    } else if !n.links.contains(&node) {
                        n.links.push(node);
                    }
                }
            }
            NetMsg::ReplicaPut { key, ver } => self.store_item(g, to, key, ver),
            NetMsg::GetProbe(p) => self.get_probe(g, now, to, p),
            NetMsg::ReadRepair { key, ver } => self.store_item(g, to, key, ver),
            NetMsg::RepairDigest { from, items } => self.repair_digest(g, now, to, from, items),
            NetMsg::RepairPull { from, keys } => self.repair_pull(g, now, to, from, keys),
            NetMsg::RepairPush { items } => {
                for (k, v) in items {
                    self.store_item(g, to, k, v);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Walks
    // ------------------------------------------------------------------

    fn spawn_walk(&mut self, g: &Global, now: SimTime, origin: u32, kind: WalkKind, key: u64) {
        if !self.is_alive(g, origin) {
            return;
        }
        let w = CWalk {
            kind,
            target: key,
            origin,
            cur: origin,
            hops: 0,
            issued_at: now,
            sent_at: now,
            excluded: Vec::new(),
            corrected: false,
        };
        self.step_walk(g, now, origin, w);
    }

    fn spawn_traffic(&mut self, g: &Global, now: SimTime, gw: u32, rank: u32) {
        if !self.is_alive(g, gw) {
            return;
        }
        let key = g.traffic_targets[rank as usize];
        let li = self.local(g, gw);
        let cached = match &mut self.nodes[li].cache {
            Some(c) => c.lookup(key, now),
            None => false,
        };
        if cached {
            self.metrics.cache_hits += 1;
            self.metrics.lookups += 1;
            self.metrics.lookups_ok += 1;
            self.metrics.hops.push(0.0);
            self.metrics.latency_secs.push(0.0);
            self.metrics.lookup_latency.record(SimTime::ZERO);
        } else {
            self.spawn_walk(g, now, gw, WalkKind::Lookup { rank: Some(rank) }, key);
        }
    }

    /// One greedy step at `p`: forward to the strictly ring-closest
    /// known neighbor, or — at a local minimum that does not own the
    /// target — take one clockwise correction hop (the greedy metric is
    /// bidirectional, so the minimum can sit just counterclockwise of
    /// the owner). Otherwise the walk terminates here.
    fn step_walk(&mut self, g: &Global, now: SimTime, p: u32, mut w: CWalk) {
        if w.hops >= g.max_hops {
            return self.finish_walk(g, now, p, w, true);
        }
        let (best, succ0, owns) = {
            let n = &self.nodes[self.local(g, p)];
            let t = f64::from_bits(w.target);
            let dcur = ring_dist(g.pos[p as usize], t);
            let mut best: Option<(f64, u32)> = None;
            if !w.corrected {
                for &c in n.links.iter().chain(n.succ.iter()).chain(n.pred.iter()) {
                    if c == p || w.excluded.contains(&c) {
                        continue;
                    }
                    let d = ring_dist(g.pos[c as usize], t);
                    if d < dcur && best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, c));
                    }
                }
            }
            (best, n.succ.first().copied(), self.owns_key(g, p, w.target))
        };
        match best {
            Some((_, next)) => self.forward(g, now, p, w, next),
            None => {
                if !w.corrected && !owns {
                    if let Some(s) = succ0 {
                        if s != p && !w.excluded.contains(&s) {
                            w.corrected = true;
                            return self.forward(g, now, p, w, s);
                        }
                    }
                }
                self.finish_walk(g, now, p, w, false)
            }
        }
    }

    fn forward(&mut self, g: &Global, now: SimTime, p: u32, mut w: CWalk, next: u32) {
        w.cur = p;
        w.hops += 1;
        w.sent_at = now;
        match w.kind {
            WalkKind::Join { .. } => self.metrics.join_messages += 1,
            WalkKind::Put { .. } | WalkKind::Get => self.metrics.storage_messages += 1,
            WalkKind::Probe { .. } => self.metrics.refresh_messages += 1,
            WalkKind::Lookup { .. } => {}
        }
        self.send_net(g, now, p, next, SimTime::ZERO, NetMsg::Hop(w));
    }

    /// Walk terminal: `forced` means the hop budget ran out (the walk
    /// fails regardless of where it stands).
    fn finish_walk(&mut self, g: &Global, now: SimTime, p: u32, w: CWalk, forced: bool) {
        match w.kind {
            WalkKind::Lookup { rank } => {
                let ok = !forced && self.owns_key(g, p, w.target);
                self.metrics.lookups += 1;
                if ok {
                    self.metrics.lookups_ok += 1;
                    self.metrics.hops.push(w.hops as f64);
                    self.metrics
                        .latency_secs
                        .push((now - w.issued_at).as_secs_f64());
                    self.metrics.lookup_latency.record(now - w.issued_at);
                }
                if rank.is_some() && !forced && w.origin != p {
                    self.send_net(
                        g,
                        now,
                        p,
                        w.origin,
                        SimTime::ZERO,
                        NetMsg::TrafficResult { key: w.target, ok },
                    );
                }
            }
            WalkKind::Put { ver } => {
                self.metrics.puts += 1;
                if forced {
                    return;
                }
                self.metrics.puts_ok += 1;
                self.metrics
                    .put_latency_secs
                    .push((now - w.issued_at).as_secs_f64());
                self.store_item(g, p, w.target, ver);
                let fanout: Vec<u32> = {
                    let n = &self.nodes[self.local(g, p)];
                    n.succ
                        .iter()
                        .take(g.repl.saturating_sub(1))
                        .copied()
                        .collect()
                };
                for r in fanout {
                    self.metrics.storage_messages += 1;
                    self.send_net(
                        g,
                        now,
                        p,
                        r,
                        SimTime::ZERO,
                        NetMsg::ReplicaPut { key: w.target, ver },
                    );
                }
            }
            WalkKind::Get => {
                if forced {
                    self.metrics.gets += 1;
                    return;
                }
                let (hit, chain) = {
                    let n = &self.nodes[self.local(g, p)];
                    let hit =
                        n.primary.contains_key(&w.target) || n.replica.contains_key(&w.target);
                    let chain: Vec<u32> = if hit {
                        Vec::new()
                    } else {
                        n.succ
                            .iter()
                            .take(g.repl.saturating_sub(1))
                            .copied()
                            .collect()
                    };
                    (hit, chain)
                };
                if hit {
                    self.metrics.gets += 1;
                    self.metrics.gets_ok += 1;
                    self.metrics
                        .get_latency_secs
                        .push((now - w.issued_at).as_secs_f64());
                } else if chain.is_empty() {
                    self.metrics.gets += 1;
                } else {
                    self.metrics.gets_fallback += 1;
                    self.metrics.storage_messages += 1;
                    let first = chain[0];
                    let probe = GetProbe {
                        key: w.target,
                        chain,
                        idx: 0,
                        owner: p,
                        issued_at: w.issued_at,
                    };
                    self.send_net(g, now, p, first, SimTime::ZERO, NetMsg::GetProbe(probe));
                }
            }
            WalkKind::Join { joiner, .. } => {
                if forced || !self.owns_key(g, p, g.keybits[joiner as usize]) {
                    // Walk failed to land on the owner (budget or stale
                    // ring); the joiner stays dormant.
                    self.metrics.joins_aborted += 1;
                    return;
                }
                self.join_splice(g, now, p, joiner);
            }
            WalkKind::Probe { slot } => {
                self.metrics.refresh_messages += 1;
                self.send_net(
                    g,
                    now,
                    p,
                    w.origin,
                    SimTime::ZERO,
                    NetMsg::ProbeResult { slot, node: p },
                );
            }
        }
    }

    /// Sender-side timeout of a lost walk hop: scrub the dead contact,
    /// exclude it, and resume the walk here.
    fn retry(&mut self, g: &Global, now: SimTime, to: u32, mut w: CWalk, dead: u32) {
        let li = self.local(g, to);
        match self.nodes[li].state {
            PeerState::Alive => {
                self.metrics.timeouts += 1;
                {
                    let n = &mut self.nodes[li];
                    n.succ.retain(|&x| x != dead);
                    n.links.retain(|&x| x != dead);
                }
                if !w.excluded.contains(&dead) {
                    w.excluded.push(dead);
                }
                w.corrected = false;
                self.step_walk(g, now, to, w);
            }
            PeerState::Dormant => {
                if let WalkKind::Join { joiner, attempt } = w.kind {
                    debug_assert_eq!(joiner, to);
                    let mut excluded = w.excluded;
                    if !excluded.contains(&dead) {
                        excluded.push(dead);
                    }
                    self.metrics.timeouts += 1;
                    self.launch_join(g, now, joiner, attempt + 1, excluded);
                } else {
                    self.strand(&w);
                }
            }
            PeerState::Dead => self.strand(&w),
        }
    }

    /// The walk's sender is gone: account the operation as failed.
    fn strand(&mut self, w: &CWalk) {
        match w.kind {
            WalkKind::Lookup { .. } => {
                self.metrics.lookups += 1;
                self.metrics.lookups_stranded += 1;
            }
            WalkKind::Put { .. } => self.metrics.puts += 1,
            WalkKind::Get => self.metrics.gets += 1,
            WalkKind::Join { .. } => self.metrics.joins_aborted += 1,
            WalkKind::Probe { .. } => {}
        }
    }

    // ------------------------------------------------------------------
    // Join
    // ------------------------------------------------------------------

    /// Starts (or retries) a dormant joiner's join walk at a random
    /// entry peer.
    fn launch_join(
        &mut self,
        g: &Global,
        now: SimTime,
        joiner: u32,
        attempt: u8,
        excluded: Vec<u32>,
    ) {
        if attempt >= MAX_JOIN_ATTEMPTS {
            self.metrics.joins_aborted += 1;
            return;
        }
        let entry = {
            let li = self.local(g, joiner);
            self.nodes[li].rng.index(g.n0 as usize) as u32
        };
        let w = CWalk {
            kind: WalkKind::Join { joiner, attempt },
            target: g.keybits[joiner as usize],
            origin: joiner,
            cur: joiner,
            hops: 0,
            issued_at: now,
            sent_at: now,
            excluded,
            corrected: false,
        };
        self.metrics.join_messages += 1;
        self.send_net(g, now, joiner, entry, SimTime::ZERO, NetMsg::Hop(w));
    }

    /// The owner splices the joiner in as its new predecessor and hands
    /// over the arc `(old_pred, joiner]` (keeping its own copies as
    /// replicas — anti-entropy has no GC, by design).
    fn join_splice(&mut self, g: &Global, now: SimTime, owner: u32, joiner: u32) {
        let (items, old_pred, succ_list) = {
            let li = self.local(g, owner);
            let n = &mut self.nodes[li];
            let old_pred = n.pred;
            let jkey = g.keybits[joiner as usize];
            let hand: Vec<(u64, u64)> = match old_pred {
                Some(pr) => {
                    let lo = g.keybits[pr as usize];
                    n.primary
                        .iter()
                        .filter(|(k, _)| in_arc(lo, jkey, **k))
                        .map(|(k, v)| (*k, *v))
                        .collect()
                }
                None => Vec::new(),
            };
            for (k, v) in &hand {
                n.primary.remove(k);
                n.replica.insert(*k, *v);
            }
            n.pred = Some(joiner);
            let succ_list: Vec<u32> = std::iter::once(owner)
                .chain(n.succ.iter().copied())
                .take(SUCCESSOR_LIST)
                .collect();
            (hand, old_pred, succ_list)
        };
        self.metrics.join_messages += 1;
        let bytes = items.len() as u64 * ITEM_BYTES;
        let extra = SimTime::from_secs_f64(bytes as f64 * g.cfg.storage.repair_byte_secs);
        self.send_net(
            g,
            now,
            owner,
            joiner,
            extra,
            NetMsg::JoinAck {
                pred: old_pred,
                succ: succ_list,
                items,
            },
        );
        if let Some(pr) = old_pred {
            if pr != joiner {
                self.metrics.join_messages += 1;
                self.send_net(
                    g,
                    now,
                    owner,
                    pr,
                    SimTime::ZERO,
                    NetMsg::Notify { candidate: joiner },
                );
            }
        }
    }

    /// Joiner activation: adopt the handed-over views and items, then
    /// start this peer's timers (fixed draw order from its own stream).
    fn join_ack(
        &mut self,
        g: &Global,
        now: SimTime,
        joiner: u32,
        pred: Option<u32>,
        succ: Vec<u32>,
        items: Vec<(u64, u64)>,
    ) {
        let li = self.local(g, joiner);
        {
            let n = &mut self.nodes[li];
            if n.state != PeerState::Dormant {
                return;
            }
            n.state = PeerState::Alive;
            n.pred = pred;
            n.succ = succ
                .into_iter()
                .filter(|&x| x != joiner)
                .take(SUCCESSOR_LIST)
                .collect();
        }
        self.metrics.joins += 1;
        for (k, v) in items {
            self.store_item(g, joiner, k, v);
        }
        self.schedule_peer_timers(g, joiner, now);
    }

    /// Schedules a peer's maintenance timers and lifetime. Draws happen
    /// in a fixed order (stabilize, refresh, repair, death) from the
    /// peer's own stream — the order is part of the determinism
    /// contract. First firings are staggered uniformly over one period.
    fn schedule_peer_timers(&mut self, g: &Global, id: u32, now: SimTime) {
        let li = self.local(g, id);
        let stab = g.cfg.stabilize_interval.map(|iv| {
            let n = &mut self.nodes[li];
            SimTime(n.rng.bounded_u64(iv.0.max(1)) + 1)
        });
        let refresh = g.cfg.refresh_interval.map(|iv| {
            let n = &mut self.nodes[li];
            SimTime(n.rng.bounded_u64(iv.0.max(1)) + 1)
        });
        let repair = if g.storage_enabled {
            g.cfg.storage.repair_interval.map(|iv| {
                let n = &mut self.nodes[li];
                SimTime(n.rng.bounded_u64(iv.0.max(1)) + 1)
            })
        } else {
            None
        };
        let die = if g.cfg.churn.fail_rate > 0.0 {
            let n = &mut self.nodes[li];
            let life = n.rng.exponential(g.cfg.churn.fail_rate / g.n0 as f64);
            Some(SimTime::from_secs_f64(life).max(SimTime(1)))
        } else {
            None
        };
        if let Some(d) = stab {
            self.send_ev(g, id, id, now + d, Ev::StabTick);
        }
        if let Some(d) = refresh {
            self.send_ev(g, id, id, now + d, Ev::RefreshTick);
        }
        if let Some(d) = repair {
            self.send_ev(g, id, id, now + d, Ev::RepairTick);
        }
        if let Some(d) = die {
            self.send_ev(g, id, id, now + d, Ev::Die);
        }
    }

    fn die(&mut self, g: &Global, _now: SimTime, id: u32) {
        let li = self.local(g, id);
        let n = &mut self.nodes[li];
        if n.state != PeerState::Alive {
            return;
        }
        n.state = PeerState::Dead;
        let copies = (n.primary.len() + n.replica.len()) as u64;
        n.primary = BTreeMap::new();
        n.replica = BTreeMap::new();
        n.buckets = IdMap::default();
        n.cache = None;
        self.metrics.failures += 1;
        self.metrics.stored_bytes -= copies * ITEM_BYTES;
    }

    // ------------------------------------------------------------------
    // Stabilization and refresh
    // ------------------------------------------------------------------

    fn stab_tick(&mut self, g: &Global, now: SimTime, p: u32) {
        let li = self.local(g, p);
        if self.nodes[li].state != PeerState::Alive {
            return;
        }
        let target = {
            let base = g.pos[p as usize];
            let n = &mut self.nodes[li];
            if n.succ.is_empty() {
                // Ring lost all successors: re-adopt the clockwise
                // closest long link as a successor candidate.
                let adopt = n
                    .links
                    .iter()
                    .copied()
                    .filter(|&c| c != p)
                    .min_by(|&a, &b| {
                        cw(base, g.pos[a as usize])
                            .partial_cmp(&cw(base, g.pos[b as usize]))
                            .expect("ring positions are finite")
                            .then(a.cmp(&b))
                    });
                if let Some(c) = adopt {
                    n.succ.push(c);
                }
            }
            n.succ.first().copied()
        };
        if let Some(s0) = target {
            self.metrics.stabilize_messages += 1;
            self.send_net(
                g,
                now,
                p,
                s0,
                SimTime::ZERO,
                NetMsg::StabReq {
                    from: p,
                    sent_at: now,
                },
            );
        }
        if let Some(iv) = g.cfg.stabilize_interval {
            self.send_ev(g, p, p, now + iv, Ev::StabTick);
        }
    }

    /// A successor answers a stabilize probe: fold the prober in as a
    /// predecessor candidate and reply with the pre-adoption pred (so
    /// the prober can detect a peer between them) plus our successors.
    fn stab_req(&mut self, g: &Global, now: SimTime, s: u32, from: u32) {
        self.metrics.stabilize_messages += 1;
        let (prev_pred, succ_list) = {
            let li = self.local(g, s);
            let n = &mut self.nodes[li];
            let prev = n.pred;
            let adopt = from != s
                && match prev {
                    None => true,
                    Some(pr) => {
                        pr != from
                            && in_arc(
                                g.keybits[pr as usize],
                                g.keybits[s as usize],
                                g.keybits[from as usize],
                            )
                    }
                };
            if adopt {
                n.pred = Some(from);
            }
            (prev, n.succ.clone())
        };
        self.send_net(
            g,
            now,
            s,
            from,
            SimTime::ZERO,
            NetMsg::StabReply {
                pred: prev_pred,
                succ: succ_list,
            },
        );
    }

    fn stab_timeout(&mut self, g: &Global, now: SimTime, p: u32, probed: u32) {
        let li = self.local(g, p);
        if self.nodes[li].state != PeerState::Alive {
            return;
        }
        self.metrics.timeouts += 1;
        let next = {
            let n = &mut self.nodes[li];
            n.succ.retain(|&x| x != probed);
            n.links.retain(|&x| x != probed);
            if n.pred == Some(probed) {
                n.pred = None;
            }
            n.succ.first().copied()
        };
        // Immediate retry at the new head — bounded by the successor
        // list length, since every timeout scrubs one entry.
        if let Some(s0) = next {
            self.metrics.stabilize_messages += 1;
            self.send_net(
                g,
                now,
                p,
                s0,
                SimTime::ZERO,
                NetMsg::StabReq {
                    from: p,
                    sent_at: now,
                },
            );
        }
    }

    /// Merges `extra` candidates into `p`'s successor list: sort by
    /// clockwise distance (stable, id tie-break), dedup, truncate.
    fn rebuild_succ(&mut self, g: &Global, p: u32, extra: Vec<u32>) {
        let li = self.local(g, p);
        if self.nodes[li].state != PeerState::Alive {
            return;
        }
        let base = g.pos[p as usize];
        let n = &mut self.nodes[li];
        let mut cands: Vec<u32> = n
            .succ
            .iter()
            .copied()
            .chain(extra)
            .filter(|&c| c != p && (c as usize) < g.total as usize)
            .collect();
        cands.sort_by(|&a, &b| {
            cw(base, g.pos[a as usize])
                .partial_cmp(&cw(base, g.pos[b as usize]))
                .expect("ring positions are finite")
                .then(a.cmp(&b))
        });
        cands.dedup();
        cands.truncate(SUCCESSOR_LIST);
        n.succ = cands;
    }

    fn refresh_tick(&mut self, g: &Global, now: SimTime, p: u32) {
        let li = self.local(g, p);
        if self.nodes[li].state != PeerState::Alive {
            return;
        }
        let (target, slot) = {
            let n = &mut self.nodes[li];
            // Harmonic clockwise distance in [1/n, 1) — the paper's
            // long-link distribution, resampled per refresh.
            let x = n.rng.f64();
            let d = (g.n0 as f64).powf(x - 1.0);
            let t = (g.pos[p as usize] + d).fract();
            let slot = if n.links.len() < g.link_budget {
                n.links.len()
            } else {
                n.rng.index(n.links.len())
            };
            (t.to_bits(), slot as u32)
        };
        let w = CWalk {
            kind: WalkKind::Probe { slot },
            target,
            origin: p,
            cur: p,
            hops: 0,
            issued_at: now,
            sent_at: now,
            excluded: Vec::new(),
            corrected: false,
        };
        self.step_walk(g, now, p, w);
        if let Some(iv) = g.cfg.refresh_interval {
            self.send_ev(g, p, p, now + iv, Ev::RefreshTick);
        }
    }

    // ------------------------------------------------------------------
    // Storage
    // ------------------------------------------------------------------

    /// Inserts a copy on `p` (primary if owned, replica otherwise),
    /// keeping the two maps disjoint and the byte gauge exact.
    fn store_item(&mut self, g: &Global, p: u32, k: u64, v: u64) {
        if !self.is_alive(g, p) && self.nodes[self.local(g, p)].state != PeerState::Dormant {
            return;
        }
        let owns = self.owns_key(g, p, k);
        let li = self.local(g, p);
        let n = &mut self.nodes[li];
        let (into, other) = if owns {
            (&mut n.primary, &mut n.replica)
        } else {
            (&mut n.replica, &mut n.primary)
        };
        let had_other = other.remove(&k).is_some();
        let had_into = into.insert(k, v).is_some();
        if !had_other && !had_into {
            self.metrics.stored_bytes += ITEM_BYTES;
        }
    }

    fn get_probe(&mut self, g: &Global, now: SimTime, r: u32, mut p: GetProbe) {
        let found = {
            let n = &self.nodes[self.local(g, r)];
            n.primary
                .get(&p.key)
                .or_else(|| n.replica.get(&p.key))
                .copied()
        };
        match found {
            Some(ver) => {
                self.metrics.gets += 1;
                self.metrics.gets_ok += 1;
                self.metrics
                    .get_latency_secs
                    .push((now - p.issued_at).as_secs_f64());
                if p.owner != r {
                    // Read repair: push the copy back to the owner.
                    self.metrics.gets_read_repaired += 1;
                    self.metrics.storage_messages += 1;
                    self.send_net(
                        g,
                        now,
                        r,
                        p.owner,
                        SimTime::ZERO,
                        NetMsg::ReadRepair { key: p.key, ver },
                    );
                }
            }
            None => {
                p.idx += 1;
                if p.idx < p.chain.len() {
                    self.metrics.storage_messages += 1;
                    let next = p.chain[p.idx];
                    self.send_net(g, now, r, next, SimTime::ZERO, NetMsg::GetProbe(p));
                } else {
                    self.metrics.gets += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Anti-entropy repair
    // ------------------------------------------------------------------

    fn repair_tick(&mut self, g: &Global, now: SimTime, p: u32) {
        let li = self.local(g, p);
        if self.nodes[li].state != PeerState::Alive {
            return;
        }
        let digest = {
            let n = &mut self.nodes[li];
            if let Some(pr) = n.pred {
                let lo = g.keybits[pr as usize];
                let hi = g.keybits[p as usize];
                // Local fixups first: ownership may have shifted since
                // the items arrived.
                let promote: Vec<(u64, u64)> = n
                    .replica
                    .iter()
                    .filter(|(k, _)| in_arc(lo, hi, **k))
                    .map(|(k, v)| (*k, *v))
                    .collect();
                for (k, v) in promote {
                    n.replica.remove(&k);
                    n.primary.insert(k, v);
                }
                let demote: Vec<(u64, u64)> = n
                    .primary
                    .iter()
                    .filter(|(k, _)| !in_arc(lo, hi, **k))
                    .map(|(k, v)| (*k, *v))
                    .collect();
                for (k, v) in demote {
                    n.primary.remove(&k);
                    n.replica.insert(k, v);
                }
                let items: Vec<(u64, u64)> = n.primary.iter().map(|(k, v)| (*k, *v)).collect();
                let succs: Vec<u32> = n
                    .succ
                    .iter()
                    .take(g.repl.saturating_sub(1))
                    .copied()
                    .collect();
                Some((items, succs))
            } else {
                None
            }
        };
        if let Some((items, succs)) = digest {
            if !items.is_empty() {
                let bytes = (DIGEST_HDR_BYTES + items.len() * DIGEST_KEY_BYTES) as u64;
                let extra = SimTime::from_secs_f64(bytes as f64 * g.cfg.storage.repair_byte_secs);
                for r in succs {
                    self.metrics.repair_messages += 1;
                    self.metrics.repair_bytes += bytes;
                    self.send_net(
                        g,
                        now,
                        p,
                        r,
                        extra,
                        NetMsg::RepairDigest {
                            from: p,
                            items: items.clone(),
                        },
                    );
                }
            }
        }
        if let Some(iv) = g.cfg.storage.repair_interval {
            self.send_ev(g, p, p, now + iv, Ev::RepairTick);
        }
    }

    fn repair_digest(
        &mut self,
        g: &Global,
        now: SimTime,
        r: u32,
        from: u32,
        items: Vec<(u64, u64)>,
    ) {
        let missing: Vec<u64> = {
            let n = &self.nodes[self.local(g, r)];
            items
                .iter()
                .filter(|(k, v)| {
                    let have = n.primary.get(k).or_else(|| n.replica.get(k));
                    have.is_none_or(|&hv| hv < *v)
                })
                .map(|(k, _)| *k)
                .collect()
        };
        if !missing.is_empty() {
            let bytes = (DIGEST_HDR_BYTES + missing.len() * PULL_KEY_BYTES) as u64;
            let extra = SimTime::from_secs_f64(bytes as f64 * g.cfg.storage.repair_byte_secs);
            self.metrics.repair_messages += 1;
            self.metrics.repair_bytes += bytes;
            self.send_net(
                g,
                now,
                r,
                from,
                extra,
                NetMsg::RepairPull {
                    from: r,
                    keys: missing,
                },
            );
        }
    }

    fn repair_pull(&mut self, g: &Global, now: SimTime, o: u32, from: u32, keys: Vec<u64>) {
        let items: Vec<(u64, u64)> = {
            let n = &self.nodes[self.local(g, o)];
            keys.iter()
                .filter_map(|k| {
                    n.primary
                        .get(k)
                        .or_else(|| n.replica.get(k))
                        .map(|v| (*k, *v))
                })
                .collect()
        };
        if !items.is_empty() {
            let bytes = items.len() as u64 * ITEM_BYTES;
            let extra = SimTime::from_secs_f64(bytes as f64 * g.cfg.storage.repair_byte_secs);
            self.metrics.repair_messages += 1;
            self.metrics.repair_bytes += bytes;
            self.send_net(g, now, o, from, extra, NetMsg::RepairPush { items });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ChurnConfig, StorageConfig, WorkloadConfig};
    use crate::traffic::{CacheConfig, CongestionConfig, TrafficConfig};
    use sw_keyspace::distribution::Uniform;

    const HORIZON: SimTime = SimTime::from_secs(20);

    fn base_cfg(seed: u64) -> SimConfig {
        SimConfig {
            seed,
            initial_n: 64,
            latency: LatencyModel::Constant(SimTime::from_millis(20)),
            stabilize_interval: Some(SimTime::from_secs(2)),
            refresh_interval: Some(SimTime::from_secs(5)),
            churn: ChurnConfig::symmetric(2.0),
            workload: WorkloadConfig { lookup_rate: 10.0 },
            ..SimConfig::default()
        }
    }

    fn storage_cfg(seed: u64) -> SimConfig {
        SimConfig {
            storage: StorageConfig {
                put_rate: 5.0,
                get_rate: 5.0,
                replication: 3,
                preload: 32,
                repair_interval: Some(SimTime::from_secs(3)),
                repair_byte_secs: 1e-6,
                ..StorageConfig::NONE
            },
            ..base_cfg(seed)
        }
    }

    fn traffic_cfg(seed: u64) -> SimConfig {
        SimConfig {
            traffic: TrafficConfig {
                rate: 30.0,
                zipf_s: 1.1,
                hot_keys: 16,
                gateways: 6,
                cache: Some(CacheConfig {
                    capacity: 32,
                    ttl: SimTime::from_secs(5),
                }),
            },
            congestion: CongestionConfig {
                service_secs_per_msg: 1e-3,
                queue_cap: 16,
                link_rate: 500.0,
                link_burst: 10.0,
            },
            ..base_cfg(seed)
        }
    }

    /// (metrics fingerprint, topology digest, delivered events).
    fn run(cfg: &SimConfig, shards: usize, workers: usize, serial: bool) -> (u64, u64, u64) {
        let mut sim = ShardedSimulator::new(cfg.clone(), Arc::new(Uniform), shards, HORIZON);
        sim.set_workers(workers);
        if serial {
            sim.run_serial_until(HORIZON);
        } else {
            sim.run_until(HORIZON);
        }
        (
            sim.fingerprint(),
            sim.topology_digest(),
            sim.metrics().events,
        )
    }

    #[test]
    fn lookahead_tracks_the_latency_model() {
        let ms = SimTime::from_millis;
        assert_eq!(lookahead(&LatencyModel::Constant(ms(50))), ms(50));
        assert_eq!(
            lookahead(&LatencyModel::Constant(SimTime::ZERO)),
            SimTime(1)
        );
    }

    #[test]
    #[should_panic(expected = "per-sender sequence exhausted")]
    fn exhausted_sender_sequence_panics_instead_of_wrapping() {
        let mut sim = ShardedSimulator::new(base_cfg(3), Arc::new(Uniform), 1, HORIZON);
        sim.shards[0].nodes[0].send_ctr = u32::MAX;
        sim.shards[0].send_ev(&sim.global, 0, 0, SimTime(1), Ev::JoinWake);
    }

    #[test]
    fn windowed_matches_serial_oracle_under_churn() {
        let cfg = base_cfg(11);
        let oracle = run(&cfg, 1, 1, true);
        assert!(oracle.2 > 1_000, "oracle barely ran: {} events", oracle.2);
        for (p, w) in [(1, 1), (2, 1), (2, 2), (8, 1), (8, 4)] {
            assert_eq!(run(&cfg, p, w, false), oracle, "P={p} workers={w}");
        }
    }

    #[test]
    fn storage_workload_parity_across_shard_counts() {
        let cfg = storage_cfg(23);
        let oracle = run(&cfg, 1, 1, true);
        for p in [2, 8] {
            assert_eq!(run(&cfg, p, 2, false), oracle, "P={p}");
        }
    }

    #[test]
    fn traffic_and_congestion_parity() {
        let cfg = traffic_cfg(37);
        let oracle = run(&cfg, 1, 1, true);
        for (p, w) in [(2, 1), (2, 4), (8, 1), (8, 4)] {
            assert_eq!(run(&cfg, p, w, false), oracle, "P={p} workers={w}");
        }
    }

    #[test]
    fn sharded_run_is_live() {
        let cfg = storage_cfg(5);
        let mut sim = ShardedSimulator::new(cfg, Arc::new(Uniform), 4, HORIZON);
        sim.set_workers(2);
        sim.run_until(HORIZON);
        let m = sim.metrics();
        assert!(m.lookups > 50, "lookups: {}", m.lookups);
        assert!(m.lookups_ok > 0, "no lookup succeeded");
        assert!(m.puts_ok > 0, "no put succeeded");
        assert!(m.gets_ok > 0, "no get succeeded");
        assert!(m.joins > 0, "no joiner activated");
        assert!(m.failures > 0, "no peer died");
        assert!(m.stabilize_messages > 0 && m.refresh_messages > 0);
        assert!(m.repair_messages > 0, "anti-entropy never ran");
        assert!(m.stored_bytes > 0);
        assert_eq!(m.events, sim.events());
        assert!(m.end_time == HORIZON);
    }

    #[test]
    fn traffic_cache_hits_and_congestion_fire() {
        let cfg = traffic_cfg(7);
        let mut sim = ShardedSimulator::new(cfg, Arc::new(Uniform), 2, HORIZON);
        sim.run_until(HORIZON);
        let m = sim.metrics();
        assert!(m.cache_hits > 0, "hot-key cache never hit");
        assert!(m.queue_wait.count() > 0, "service queue never engaged");
    }
}
