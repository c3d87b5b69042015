//! Protocol messages and per-query state machines.
//!
//! A routed operation (lookup, join-point search, long-link probe,
//! put/get/range) lives as a `Walk` — a greedy walk whose hops are
//! individual messages on the message plane, so any number of walks
//! can be in flight at once and every one of them sees the overlay *as
//! it is at each hop's delivery time*, not as it was when the operation
//! started.
//!
//! ## The event vocabulary
//!
//! Everything on the plane is one crate-private `Msg`, of three kinds:
//!
//! * **Generators and timers.** `Msg::Next(source)` is the next arrival
//!   of one of the seven Poisson processes (`Source`: joins, failures,
//!   lookups, puts, gets, ranges, open-loop traffic), each drawing from
//!   its own RNG stream. `Msg::Timer(timer, peer)` is the next round of
//!   one peer's stabilize, refresh or repair timer (`Timer`). Both
//!   re-arm themselves when they fire; a generator whose rate reads
//!   zero, or a timer whose peer died, stops.
//! * **Self-sends.** `StabilizeApply` resolves a stabilization round;
//!   `Step` is a walk's driver acting again, its retry after a timeout.
//! * **Network messages.** The ten messages that cross between peers —
//!   `Hop`, `NextHopQuery`, `NextHopReply`, `ReplicaPut`,
//!   `ReplicaProbe`, `RangeFragment` and the four repair rungs — pass
//!   through the congestion model and reach their handlers through one
//!   delivery entry in the engine. It makes the ledger entry and the
//!   receiver-liveness test once for all ten. A dropped message whose
//!   sender waits on it comes back as `Dropped(msg)` and re-enters the
//!   same entry as lost.
//!
//! ## Routing modes
//!
//! Forwarding strategy is pluggable ([`RoutingMode`], one per run:
//! `SimConfig::routing_mode`). The `Walk`
//! struct is the **requester-held** record of the operation (engine-side
//! accounting: hops, timeouts, latency, exclusions, failover ladder);
//! what actually travels on the plane is only the minimal in-flight
//! payload of each message. The mode decides *who holds the query* —
//! and therefore whose death strands it:
//!
//! * **Recursive** — the query is handed off node to node
//!   (`Hop`, one message per hop). The walk state conceptually
//!   travels with the carrier: if the node holding the query dies, the
//!   walk is **stranded** ([`WalkEnd::Stranded`]). Cheapest per hop
//!   (one one-way hop delay), most fragile under churn.
//! * **Iterative** — the requester drives every hop itself: it asks the
//!   frontier node for its ranked next-hop candidates
//!   (`NextHopQuery`) and the frontier answers
//!   (`NextHopReply`) — two plane messages, one full RTT per
//!   hop. The query never leaves the requester, so the walk strands
//!   only if the *requester* dies. A frontier that times out is
//!   excluded and the requester **fails over** to the next-best
//!   candidate from the previous reply without re-asking
//!   (`Walk::next_alternate`); running the ladder dry ends the walk
//!   as [`WalkEnd::Exhausted`].
//!
//! Every walk of a run takes the run's mode. Robustness beyond that is
//! the paper's: redundant links, so a walk that loses a contact takes
//! the next-best one — there is no per-query recovery plane.
//!
//! Lifecycle of a walk:
//!
//! 1. **Spawn** — the engine files the walk in a free slot of its walk
//!    slab, under a `QueryId` that names the slot and the slot's
//!    generation, and executes the first step at the origin immediately
//!    (the origin reads its own routing table for free in every mode).
//! 2. **Step** — in recursive mode the current node picks the greedy
//!    next contact from its local view (shared
//!    `sw_overlay::greedy_step`) and sends a `Hop`; in iterative mode
//!    the requester sends a `NextHopQuery` to its chosen frontier,
//!    which ranks its candidates with
//!    `sw_overlay::greedy_candidates_into` and replies.
//! 3. **Timeouts** — a contact that died while a message was in flight
//!    costs the sender/requester the timeout penalty and is excluded;
//!    recursive mode re-steps at the sender, iterative mode fails over
//!    down the candidate ladder.
//! 4. **Completion** — arrival at the target's owner, a local minimum,
//!    the hop budget, a dry failover ladder, or stranding. What happens
//!    next depends on `Purpose`: lookups record metrics, a join
//!    splices the new node and starts its link-probe chain, and a put,
//!    get or range goes on in the same record, as its replica fan-out,
//!    fallback probes or range sweep (in iterative mode the operation
//!    payload piggybacks on the final exchange with the owner, so
//!    completion costs no extra message). The engine files that record
//!    back in the route's own slot under the next generation, so a late
//!    routing message misses it, and its tail messages find it by index.
//!
//! ## The repair plane
//!
//! Replica repair is its own message family, not a walk: every
//! `repair_interval` a peer runs an **anti-entropy round** against its
//! successor-list view of its replica chain. The round is a four-message
//! ladder per `(owner, replica)` pair — `RepairDigest` (owner's arc
//! summary), `RepairDiff` (replica's key list on mismatch),
//! `RepairPush` (missing items + recovery wants), `RepairPull` (the
//! wanted items streamed back) — and each rung
//! pays plane latency *plus a per-byte bandwidth delay* sized by its
//! payload. A message whose receiver died in flight is silently lost;
//! the next round retries. There is no oracle shortcut: a failed peer's
//! shards die with it, and its slice of the key space is durable again
//! only once a surviving replica has actually streamed it to the new
//! owner. Copies off a holder's keep arc leave it by `Handoff`, relayed
//! through the peers that now cover them and back as their release.
//! **Read repair** rides the same plane: a get served by a
//! replica-fallback probe immediately streams that one key to the
//! routed owner (a targeted, single-item `RepairPull`) instead
//! of waiting for the next anti-entropy round.

use crate::time::SimTime;
use sw_keyspace::Key;

/// Identifier of one in-flight walk / storage operation:
/// `generation << 32 | slot`. The slot is the walk's place in the
/// engine's walk slab, and the generation counts the slot's earlier
/// walks, so a freed slot's next walk gets a fresh id and an id is never
/// handed out twice in a run. A storage operation's tail runs in its
/// route's slot under the next generation.
pub(crate) type QueryId = u64;

/// How a walk's hops travel on the plane — who holds the query, who can
/// strand it, and what a hop costs. See the module docs for the full
/// contrast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// Hand the query off node to node; a dying carrier strands it.
    #[default]
    Recursive,
    /// The requester drives each hop (query + reply, one RTT per hop)
    /// and fails over to alternate candidates on timeout; only the
    /// requester's death strands the walk.
    Iterative,
}

impl RoutingMode {
    /// All modes, in sweep order (benchmarks and comparison tables).
    pub const ALL: [RoutingMode; 2] = [RoutingMode::Recursive, RoutingMode::Iterative];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            RoutingMode::Recursive => "recursive",
            RoutingMode::Iterative => "iterative",
        }
    }
}

/// Why a walk is routing — decides what its completion triggers.
#[derive(Debug, Clone)]
pub(crate) enum Purpose {
    /// Workload lookup for the key of peer `target_id`.
    Lookup {
        /// The peer whose key is being looked up.
        target_id: u32,
    },
    /// Join phase 1: find the join point for a joining key.
    JoinFind {
        /// The joining peer's key.
        key: Key,
    },
    /// Join phase 2 or long-link refresh: a routed probe that collects
    /// one long-link candidate for `node`; the chain continues until the
    /// budget is met or the tries run out.
    LinkProbe {
        /// The peer whose long links are being (re)built.
        node: u32,
        /// Candidates collected so far.
        collected: Vec<u32>,
        /// Link budget still to fill.
        budget: usize,
        /// Probes left before the chain gives up.
        tries_left: u32,
        /// True when this chain is a periodic refresh (existing links
        /// are replaced at the end), false for a join's initial wiring.
        refresh: bool,
    },
    /// Storage: route to the item's key (the walk's target), then fan
    /// out replica writes from the owner (the walk's `cur`).
    Put {
        /// Item payload.
        value: Vec<u8>,
        /// Replica writes still in flight.
        pending: u32,
    },
    /// Storage: route to the item's key (the walk's target), read the
    /// owner (the walk's `cur`), then probe the replicas in its successor
    /// view, which the walk's candidate pool holds
    /// ([`Walk::next_alternate`]).
    Get,
    /// Storage: route to `lo`, then sweep owners clockwise up to the
    /// first peer whose arc holds `hi`: at most one circuit. The walk's
    /// `cur` is the peer that served the last fragment (its key starts
    /// the next peer's arc, and retries re-consult its successor list),
    /// and `excluded` the sweep peers that timed out since. The first
    /// peer holds `[lo, self]`, or none of the range if `lo` lies on its
    /// successor's arc (the route ended short of a dead one), and then
    /// the next live peer holds `[lo, self]`.
    Range {
        /// Inclusive lower bound.
        lo: Key,
        /// Exclusive upper bound.
        hi: Key,
        /// Items collected so far.
        items: u64,
        /// Peers that served a fragment.
        peers_visited: u32,
        /// A peer has served `[lo, self]`: the sweep has started, and
        /// each later peer holds `(previous holder, self]`.
        started: bool,
    },
}

impl Purpose {
    /// A range query over `[lo, hi)` whose sweep has served nothing yet.
    pub(crate) fn range(lo: Key, hi: Key) -> Purpose {
        Purpose::Range {
            lo,
            hi,
            items: 0,
            peers_visited: 0,
            started: false,
        }
    }
}

/// The requester-held state of one in-flight operation, from spawn to
/// end: its route, and a put's, get's or range's tail after it. Only
/// message payloads travel on the plane; this record stays with the
/// engine and — in iterative mode — models exactly what the requesting
/// node itself would remember, which is why a dying *relay* cannot
/// destroy it.
#[derive(Debug)]
pub(crate) struct Walk {
    /// What completion triggers.
    pub purpose: Purpose,
    /// Key being routed toward.
    pub target: Key,
    /// The node that issued the operation. It drives every hop in
    /// iterative mode; its death is the only thing that strands an
    /// iterative walk.
    pub requester: u32,
    /// The query's frontier: the node currently holding it (recursive)
    /// or the last hop the requester confirmed (iterative). In a storage
    /// tail, the peer that holds the op (see [`Purpose`]).
    pub cur: u32,
    /// Hops taken so far.
    pub hops: u32,
    /// Network messages this walk has put on the plane so far (hop
    /// hand-offs, next-hop queries *and* replies) — what the
    /// per-purpose message metrics charge, so iterative mode's
    /// two-messages-per-hop cost is not invisible. In recursive mode
    /// this equals `hops + timeouts`.
    pub msgs: u32,
    /// Dead contacts hit so far.
    pub timeouts: u32,
    /// Failovers taken to an alternate candidate (iterative ladder).
    pub failovers: u32,
    /// Accumulated network latency (hop delays + timeout penalties, and
    /// a get's replica probes).
    pub latency: SimTime,
    /// Virtual time the operation was issued.
    pub issued_at: SimTime,
    /// Contacts excluded after timing out (small; linear scan); cleared
    /// when a storage tail starts.
    pub excluded: Vec<u32>,
    /// The requester's candidate pool (iterative mode): every next-hop
    /// candidate learned from any reply on this walk, not yet queried,
    /// kept sorted closest-to-target-first and consumed via
    /// [`Walk::next_alternate`]. On a healthy path its head is always
    /// the newest frontier's best candidate (the greedy choice); after
    /// a timeout it is the failover ladder — including 2nd/3rd-best
    /// candidates from *earlier* frontiers, which a recursive hand-off
    /// has irrevocably left behind. A get's tail refills it with the
    /// replicas still to probe.
    pub alternates: Vec<u32>,
    /// Consumption cursor into `alternates`: entries before it have been
    /// popped by [`Walk::next_alternate`]. A cursor instead of
    /// `Vec::remove(0)` keeps consumption O(1).
    pub alt_head: usize,
    /// Nodes this walk has already queried (iterative mode): never
    /// re-queried, never re-admitted to the pool.
    pub seen: Vec<u32>,
    /// Send time of the in-flight `NextHopQuery` (per-hop RTT
    /// accounting at the requester).
    pub query_sent: SimTime,
    /// Largest hop RTT the requester has observed on this walk —
    /// feeds its adaptive timeout (`Walk::adaptive_timeout`), one of
    /// the structural advantages of driving lookups iteratively: the
    /// requester sees every round trip, so it can stop waiting the
    /// full conservative penalty for contacts that are clearly dead.
    pub rtt_seen: SimTime,
    /// Largest service-queue wait observed on any message delivered to
    /// this walk's driver — measured congestion, folded into
    /// [`Walk::adaptive_timeout`] so the RTT-derived timeout does not
    /// fire spuriously when replies are merely queued, not lost. Stays
    /// zero when congestion modelling is off.
    pub wait_seen: SimTime,
    /// Hop budget.
    pub max_hops: u32,
}

impl Walk {
    /// A walk `requester` issues at `issued_at`: at the requester, no hop
    /// taken, no candidate learned.
    pub(crate) fn new(
        purpose: Purpose,
        target: Key,
        requester: u32,
        issued_at: SimTime,
        max_hops: u32,
    ) -> Walk {
        Walk {
            purpose,
            target,
            requester,
            cur: requester,
            hops: 0,
            msgs: 0,
            timeouts: 0,
            failovers: 0,
            latency: SimTime::ZERO,
            issued_at,
            excluded: Vec::new(),
            alternates: Vec::new(),
            alt_head: 0,
            seen: Vec::new(),
            query_sent: SimTime::ZERO,
            rtt_seen: SimTime::ZERO,
            wait_seen: SimTime::ZERO,
            max_hops,
        }
    }

    /// Pops the best remaining failover candidate: the first entry of
    /// the ranked ladder that has not been excluded by a timeout.
    /// Entries excluded since the ladder was built are discarded, never
    /// returned — failover can *never* route through a contact the
    /// requester already timed out on. `None` means the ladder is dry
    /// ([`WalkEnd::Exhausted`] if a candidate had existed).
    pub fn next_alternate(&mut self) -> Option<u32> {
        while self.alt_head < self.alternates.len() {
            let v = self.alternates[self.alt_head];
            self.alt_head += 1;
            if !self.excluded.contains(&v) {
                return Some(v);
            }
        }
        None
    }

    /// The unconsumed tail of the candidate pool (everything
    /// [`Walk::next_alternate`] has not popped yet).
    pub fn pending_alternates(&self) -> &[u32] {
        &self.alternates[self.alt_head.min(self.alternates.len())..]
    }

    /// Replaces the candidate pool and resets the consumption cursor.
    pub fn set_alternates(&mut self, pool: Vec<u32>) {
        self.alternates = pool;
        self.alt_head = 0;
    }

    /// The requester's adaptive query timeout: three times the largest
    /// RTT it has observed on this walk **plus twice the largest queue
    /// wait** it has measured, capped by the configured conservative
    /// penalty (and equal to it until a first RTT lands). Recursive
    /// relays cannot do this — each sender observes at most one round
    /// trip — so they always wait the full penalty. The wait term keeps
    /// the timeout honest under load: near the saturation knee a reply
    /// can spend more time queued at the requester than in flight, and
    /// an RTT-only bound would declare live-but-congested frontiers
    /// dead, cascading retries into an already-full queue.
    pub fn adaptive_timeout(&self, penalty: SimTime) -> SimTime {
        if self.rtt_seen == SimTime::ZERO {
            penalty
        } else {
            let bound = self
                .rtt_seen
                .0
                .saturating_mul(3)
                .saturating_add(self.wait_seen.0.saturating_mul(2));
            penalty.min(SimTime(bound))
        }
    }

    /// Fold a measured queue wait into the walk's congestion estimate
    /// (keeps the maximum seen).
    pub fn note_wait(&mut self, wait: SimTime) {
        if wait > self.wait_seen {
            self.wait_seen = wait;
        }
    }

    /// Bare test fixture: a lookup walk with the given
    /// candidate pool and exclusion list, everything else zeroed. For
    /// unit and property tests of the pool mechanics only.
    #[cfg(test)]
    fn fixture(alternates: Vec<u32>, excluded: Vec<u32>) -> Walk {
        let lookup = Purpose::Lookup { target_id: 0 };
        let walk = Walk::new(lookup, Key::clamped(0.5), 0, SimTime::ZERO, 8);
        Walk {
            alternates,
            excluded,
            ..walk
        }
    }
}

/// Terminal states of a walk's routing phase — the termination taxonomy
/// [`LookupRecord::end`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkEnd {
    /// Delivered: reached a node whose key distance to the target is
    /// zero.
    Arrived,
    /// No live contact improves on the current node (greedy terminus —
    /// for non-member keys this *is* the owner region).
    LocalMinimum,
    /// Hop budget exhausted.
    HopLimit,
    /// The walk died with the node holding it: the carrier (recursive),
    /// or the requester itself (iterative).
    Stranded,
    /// Failed-over-exhausted: every ranked candidate at the frontier
    /// timed out and the failover ladder ran dry (iterative mode).
    Exhausted,
}

impl WalkEnd {
    /// Short display name (comparison tables).
    pub fn name(self) -> &'static str {
        match self {
            WalkEnd::Arrived => "delivered",
            WalkEnd::LocalMinimum => "local-minimum",
            WalkEnd::HopLimit => "hop-budget",
            WalkEnd::Stranded => "stranded",
            WalkEnd::Exhausted => "failed-over-exhausted",
        }
    }
}

/// Everything delivered on the message plane: generator arrivals,
/// timer rounds, two self-sends and the ten network messages (see the
/// module docs' event vocabulary).
///
/// The five variants whose payload would be wider than 20 bytes carry
/// it boxed, so a `Msg` is 24 bytes and an
/// [`Envelope<Msg>`](crate::plane::Envelope) 40: the timer population
/// the plane holds at scale is the common small variants, and they do
/// not pay for a repair rung's key lists.
#[derive(Debug)]
pub(crate) enum Msg {
    /// The next arrival of a generator process.
    Next(Source),
    /// A peer's next round of one of its maintenance timers.
    Timer(Timer, u32),
    /// A peer's stabilization round resolved; apply the repair.
    StabilizeApply(u32),

    // -- The walk plane -----------------------------------------------
    /// The walk's driver executes its next action: a greedy step at the
    /// current node (recursive mode) or a failover down the candidate
    /// ladder at the requester (iterative mode). Also the timeout
    /// retry in both modes.
    Step {
        /// Walk id.
        qid: QueryId,
    },
    /// Recursive hand-off: the query itself arriving at `to` (sent at
    /// `sent_at`).
    Hop {
        /// Walk id.
        qid: QueryId,
        /// Destination node.
        to: u32,
        /// Send time (for the sender's timeout clock).
        sent_at: SimTime,
    },
    /// Iterative mode, first leg: the requester asks frontier `to` for
    /// its ranked next-hop candidates toward the walk's target.
    NextHopQuery {
        /// Walk id.
        qid: QueryId,
        /// The frontier node being asked.
        to: u32,
        /// Send time (for the requester's timeout clock and the hop's
        /// RTT accounting).
        sent_at: SimTime,
    },
    /// Iterative mode, second leg: frontier `from` answers with its
    /// candidate ladder; the requester advances (or finishes).
    NextHopReply(Box<NextHopReply>),

    // -- Storage fan-out ----------------------------------------------
    /// A replica write for put `op` arriving at `to`.
    ReplicaPut {
        /// Operation id.
        op: QueryId,
        /// Replica holder.
        to: u32,
    },
    /// A replica read probe for get `op` arriving at `to`.
    ReplicaProbe {
        /// Operation id.
        op: QueryId,
        /// Probed replica holder.
        to: u32,
        /// Send time.
        sent_at: SimTime,
    },
    /// A range fragment request for `op` arriving at sweep peer `to`.
    RangeFragment {
        /// Operation id.
        op: QueryId,
        /// Next sweep peer.
        to: u32,
        /// Send time.
        sent_at: SimTime,
    },

    // -- Congestion ----------------------------------------------------
    /// The inner message was dropped at its destination's full service
    /// queue. Delivered at the instant the message *would* have arrived
    /// (no queueing), so the sender-side consequence — timeout, ladder
    /// failover, pending-count decrement, sweep retry — runs through
    /// the exact same code path as a dead-peer delivery, with identical
    /// timing. Only a message whose sender waits on it is wrapped.
    Dropped(Box<Msg>),

    // -- The repair plane (anti-entropy rounds) -----------------------
    /// Owner → replica: digest of the owner's copies on its arc
    /// `(lo, hi]`. A mismatch with the replica's copies there triggers
    /// a [`Msg::RepairDiff`] reply.
    RepairDigest(Box<RepairDigest>),
    /// Replica → owner: the replica's key list on `(lo, hi]`, sent when
    /// the digests disagreed.
    RepairDiff(Box<RepairDiff>),
    /// Owner → replica: the items the replica was missing, plus the keys
    /// the *owner* is missing and wants streamed back (the recovery
    /// request after inheriting a dead predecessor's arc).
    RepairPush(Box<RepairPush>),
    /// Replica → owner: items streamed toward the owner — the recovery
    /// direction of an anti-entropy round, and the carrier of targeted
    /// read-repair pushes (a single-item transfer scheduled the moment a
    /// replica-fallback probe serves a get the routed owner missed).
    RepairPull(Box<RepairPull>),
    /// Holder → the peers that now cover its copies off its keep arc,
    /// one hop at a time, then back to the holder as their release.
    Handoff(Box<Handoff>),
}

impl Msg {
    /// True if the sender waits on this message — a walk hop or query,
    /// a reply its requester waits for, a replica write or probe, a
    /// range fragment — so that losing it has a consequence to
    /// schedule. The repair rungs are fire-and-forget: the next
    /// anti-entropy round re-requests.
    pub(crate) fn sender_waits(&self) -> bool {
        matches!(
            self,
            Msg::Hop { .. }
                | Msg::NextHopQuery { .. }
                | Msg::NextHopReply(_)
                | Msg::ReplicaPut { .. }
                | Msg::ReplicaProbe { .. }
                | Msg::RangeFragment { .. }
        )
    }
}

/// The seven Poisson generator processes, each drawing from its own
/// RNG stream; [`Source::ALL`] is the order the engine arms them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// Churn join arrivals.
    Join,
    /// Churn failure arrivals.
    Fail,
    /// Workload lookup arrivals.
    Lookup,
    /// Storage put arrivals.
    Put,
    /// Storage get arrivals.
    Get,
    /// Storage range-query arrivals.
    Range,
    /// Open-loop traffic lookup arrivals (`SimConfig::traffic`).
    Traffic,
}

impl Source {
    /// Every process, in arming order (index = `self as usize`).
    pub(crate) const ALL: [Source; 7] = [
        Source::Join,
        Source::Fail,
        Source::Lookup,
        Source::Put,
        Source::Get,
        Source::Range,
        Source::Traffic,
    ];
}

/// The per-peer maintenance timers; [`Timer::ALL`] is the order a peer's
/// timers are staggered in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Timer {
    /// A stabilization round: ping the view, then apply the repair.
    Stabilize,
    /// A long-link refresh chain.
    Refresh,
    /// An anti-entropy repair round over the owned arc.
    Repair,
}

impl Timer {
    /// Every timer, in stagger order.
    pub(crate) const ALL: [Timer; 3] = [Timer::Stabilize, Timer::Refresh, Timer::Repair];
}

/// [`Msg::NextHopReply`]'s payload.
#[derive(Debug)]
pub(crate) struct NextHopReply {
    /// Walk id.
    pub qid: QueryId,
    /// The answering frontier.
    pub from: u32,
    /// Reply send time.
    pub sent_at: SimTime,
    /// True if the frontier's key distance to the target is zero.
    pub at_target: bool,
    /// Ranked next-hop candidates from the frontier's local view,
    /// closest-first, already filtered by the walk's exclusions.
    pub candidates: Vec<u32>,
}

/// [`Msg::RepairDigest`]'s payload.
#[derive(Debug)]
pub(crate) struct RepairDigest {
    /// The arc's owner (digest sender).
    pub owner: u32,
    /// The replica-chain peer being synced.
    pub to: u32,
    /// Arc lower bound (exclusive).
    pub lo: Key,
    /// Arc upper bound (inclusive).
    pub hi: Key,
    /// Key count of the owner's slice.
    pub count: u64,
    /// Order-independent key hash of the owner's slice.
    pub hash: u64,
}

/// [`Msg::RepairDiff`]'s payload.
#[derive(Debug)]
pub(crate) struct RepairDiff {
    /// The arc's owner (reply destination).
    pub owner: u32,
    /// The replying replica.
    pub replica: u32,
    /// Arc lower bound (exclusive).
    pub lo: Key,
    /// Arc upper bound (inclusive).
    pub hi: Key,
    /// The replica's keys on the arc (sorted).
    pub keys: Vec<Key>,
}

/// [`Msg::RepairPush`]'s payload.
#[derive(Debug)]
pub(crate) struct RepairPush {
    /// The arc's owner (push sender).
    pub owner: u32,
    /// The replica being refilled.
    pub replica: u32,
    /// Items the replica lacked.
    pub items: Vec<(Key, Vec<u8>)>,
    /// Keys the owner lacks and requests back.
    pub want: Vec<Key>,
}

/// [`Msg::RepairPull`]'s payload.
#[derive(Debug)]
pub(crate) struct RepairPull {
    /// The recovering owner.
    pub owner: u32,
    /// Items recovered from the replica's copy.
    pub items: Vec<(Key, Vec<u8>)>,
}

/// [`Msg::Handoff`]'s payload.
#[derive(Debug)]
pub(crate) struct Handoff {
    /// The peer handing its copies off.
    pub holder: u32,
    /// The hops still to visit, the receiver last; the holder itself
    /// once the last relay hop releases the copies.
    pub relay: Vec<u32>,
    /// The holder's copies off its keep arc.
    pub items: Vec<(Key, Vec<u8>)>,
}

/// Per-lookup record, collected when `SimConfig::record_lookups` is on.
///
/// `latency` is exactly the per-hop accumulation: one hop delay per
/// successful hop (two per hop in iterative mode — query and reply legs)
/// plus one timeout penalty per dead contact hit — tests assert this
/// identity against `hops`/`timeouts` per mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupRecord {
    /// When the lookup was issued.
    pub issued_at: SimTime,
    /// When it completed (success or failure).
    pub completed_at: SimTime,
    /// Hops taken.
    pub hops: u32,
    /// Dead contacts hit.
    pub timeouts: u32,
    /// Failovers taken down the candidate ladder (iterative mode).
    pub failovers: u32,
    /// Accumulated network latency.
    pub latency: SimTime,
    /// True if the walk ended at the target peer.
    pub success: bool,
    /// How the walk terminated.
    pub end: WalkEnd,
}

impl LookupRecord {
    /// True if this lookup's in-flight interval overlaps `other`'s —
    /// the witness that two lookups were concurrently in flight.
    pub fn overlaps(&self, other: &LookupRecord) -> bool {
        self.issued_at < other.completed_at && other.issued_at < self.completed_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

    /// Failover safety: the candidate-pool pop can *never* hand back a
    /// contact the requester has already excluded by timeout, no matter
    /// how pool and exclusion list interleave — and it consumes each
    /// candidate at most once.
    #[test]
    fn failover_never_routes_through_excluded_contacts(
        pool in proptest::collection::vec(0u32..64, 0..24),
        excluded in proptest::collection::vec(0u32..64, 0..24),
    ) {
        let mut walk = Walk::fixture(pool.clone(), excluded.clone());
        let mut handed_out = Vec::new();
        while let Some(v) = walk.next_alternate() {
            prop_assert!(!excluded.contains(&v), "excluded contact {} handed out", v);
            prop_assert!(!handed_out.contains(&v) || pool.iter().filter(|&&u| u == v).count() > 1,
                "candidate {} handed out twice", v);
            handed_out.push(v);
        }
        prop_assert!(walk.pending_alternates().is_empty(), "pool must drain");
        // Every pool entry was either handed out or excluded.
        for v in pool {
            prop_assert!(handed_out.contains(&v) || excluded.contains(&v));
        }
    }
    }

    #[test]
    fn next_alternate_skips_excluded_and_drains_in_rank_order() {
        let mut w = Walk::fixture(vec![3, 4, 5, 6], vec![4, 6]);
        assert_eq!(w.next_alternate(), Some(3));
        assert_eq!(w.next_alternate(), Some(5), "4 is excluded");
        assert_eq!(w.next_alternate(), None, "6 is excluded: ladder dry");
        assert!(w.pending_alternates().is_empty());
    }

    #[test]
    fn next_alternate_on_empty_ladder_is_none() {
        let mut w = Walk::fixture(Vec::new(), vec![1]);
        assert_eq!(w.next_alternate(), None);
    }

    #[test]
    fn adaptive_timeout_accounts_for_measured_queue_wait() {
        let penalty = SimTime::from_secs(2);
        let mut w = Walk::fixture(Vec::new(), Vec::new());
        // No RTT yet: always the conservative penalty.
        assert_eq!(w.adaptive_timeout(penalty), penalty);
        // Fast RTT, no congestion: tight 3x bound (pre-queue behavior).
        w.rtt_seen = SimTime::from_millis(50);
        assert_eq!(w.adaptive_timeout(penalty), SimTime::from_millis(150));
        // Same RTT but a 400ms queue wait measured: the bound stretches
        // by 2x the wait, so a merely-congested frontier is not
        // declared dead the moment its reply sits in a queue.
        w.note_wait(SimTime::from_millis(400));
        assert_eq!(w.adaptive_timeout(penalty), SimTime::from_millis(950));
        // note_wait keeps the max, and the penalty still caps it all.
        w.note_wait(SimTime::from_millis(100));
        assert_eq!(w.wait_seen, SimTime::from_millis(400));
        w.note_wait(SimTime::from_secs(10));
        assert_eq!(w.adaptive_timeout(penalty), penalty);
    }
}
