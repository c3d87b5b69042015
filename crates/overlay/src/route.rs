//! The shared greedy routing engine and the [`Overlay`] trait.
//!
//! “In each step a node u forwards a search request for a target key t to
//! the node with the minimal distance to the target node t among all
//! nodes reachable through an edge from u.” (§3). Every overlay in the
//! workspace routes through this one engine so that hop counts are
//! comparable across systems.
//!
//! Overlays store their contact tables in one flat CSR
//! [`Topology`](sw_graph::Topology): routing reads neighbour *slices*
//! (no per-hop allocation), and [`route_batch`] evaluates thousands of
//! independent lookups across threads — the batched path that feeds
//! [`RoutingSurvey`] and the experiment harness.
//!
//! # Two kernels, one semantics, one dispatch rule
//!
//! Table-backed greedy routing has two implementations that must be
//! (and are tested to be) **bit-identical**. Which one runs is decided
//! by the *shape of the call*, never by table size, backing store or a
//! setting:
//!
//! 1. **One lookup → the reference walk.** [`Overlay::route`] runs
//!    [`greedy_route`]'s loop: [`greedy_step`] over the `(id, key)`
//!    pairs of the current peer's contact row, keys gathered through
//!    the placement. It is the readable spec of the tie-break rule —
//!    *strict* improvement over the running best, earliest candidate
//!    wins exact distance ties — and the oracle everything else is
//!    compared against. The id rows come from [`Overlay::contacts`]:
//!    the overlay's [`Topology`](sw_graph::Topology) image — for a
//!    table-backed network the [`RouteTable`](crate::soa::RouteTable)'s
//!    own, built or reopened from disk alike. A lone walk is a dependent pointer chase
//!    whichever way its rows are scanned, and the gathers are what
//!    measured fastest for it at every size from 10³ to 10⁷ peers.
//! 2. **A batch → the interleaved AMAC loop.** [`Overlay::route_chunk`]
//!    — which [`route_batch`] feeds one contiguous chunk per worker
//!    thread — hands a table-backed overlay's chunk to
//!    [`route_interleaved`](crate::interleaved::route_interleaved) at
//!    [`DEFAULT_INTERLEAVE`](crate::interleaved::DEFAULT_INTERLEAVE)
//!    walks in flight, each walk's next offset pair / edge row /
//!    position lane software-prefetched one round ahead so dependent
//!    misses overlap (memory-*bandwidth*-bound instead of
//!    latency-bound; `overlay.interleaved.ns_per_hop` against
//!    `overlay.route_single.ns_per_hop` in `BENCHMARK.json` is the
//!    measure). Its per-hop decision is
//!    [`greedy_step_soa`]: the row's key-aligned position lane scanned
//!    in fixed-width 8-wide chunks (constant-trip-count inner
//!    loops, no bounds checks, distance arithmetic branch-free on the
//!    data), the strict-`<` left-to-right fold preserving the reference
//!    tie-break exactly. The same primitive is
//!    [`RouteTable::step`](crate::soa::RouteTable::step), the one-hop
//!    form `overlay.step.ns` times; the simulator's measurement probes
//!    are batches like any other, and its own per-message hop is
//!    [`RingView::step`] (below).
//!
//! [`RingView`] — dynamic protocols route over borrowed per-peer views
//! that mutate under churn, so there is nothing contiguous to scan —
//! always goes through the slice-based [`greedy_step`] /
//! [`greedy_candidates_into`] ([`RingView::step`] as its flat three-loop
//! form). Debug builds check every interleaved hop and every flat
//! `RingView` step against [`greedy_step`] over the same row, and the
//! equivalence proptests drive both kernels over the same workloads.

use crate::placement::Placement;
use sw_graph::csr::Topology as CsrTopology;
use sw_graph::{par, NodeId};
use sw_keyspace::stats::OnlineStats;
use sw_keyspace::{Key, Rng};

/// Options for a single greedy route.
#[derive(Debug, Clone, Copy)]
pub struct RouteOptions {
    /// Abort (and count as failure) after this many hops.
    pub max_hops: u32,
    /// Record the full node path (otherwise only endpoints).
    pub record_path: bool,
}

impl RouteOptions {
    /// A generous default for an `n`-peer overlay: `32 + 8·ceil(log2 n)`
    /// hops, far above anything a healthy logarithmic overlay needs, while
    /// still catching livelock in degraded ones.
    pub fn for_n(n: usize) -> Self {
        RouteOptions {
            max_hops: 32 + 8 * (n.max(2) as f64).log2().ceil() as u32,
            record_path: true,
        }
    }
}

/// Outcome of one greedy route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteResult {
    /// True if the route reached the peer responsible for the target.
    pub success: bool,
    /// Hops taken (edges traversed).
    pub hops: u32,
    /// Visited peers from source to final (inclusive) when
    /// `record_path`; otherwise just `[source, final]`.
    pub path: Vec<NodeId>,
}

/// A key-based overlay network: a placement plus per-peer routing tables
/// stored as one flat CSR topology.
///
/// `Sync` is a supertrait so any overlay can be shared across the worker
/// threads of [`route_batch`] without wrappers.
pub trait Overlay: Sync {
    /// Display name with parameters, e.g. `"chord"`.
    fn name(&self) -> String;

    /// The peer placement this overlay is built over.
    fn placement(&self) -> &Placement;

    /// The full contact table (neighbour links *and* long-range links) as
    /// a CSR topology — one row per peer.
    fn topology(&self) -> &CsrTopology;

    /// The routing table of peer `u`: every peer reachable in one hop,
    /// as a slice into the CSR edge array (no allocation).
    #[inline]
    fn contacts(&self, u: NodeId) -> &[NodeId] {
        self.topology().neighbors(u)
    }

    /// Greedy distance-minimizing route from `from` toward `target`:
    /// the reference walk ([`greedy_route`]'s loop) over
    /// [`Overlay::contacts`] rows.
    fn route(&self, from: NodeId, target: Key, opts: &RouteOptions) -> RouteResult {
        greedy_walk(self.placement(), |u| self.contacts(u), from, target, opts)
    }

    /// Routes a contiguous chunk of independent queries — the unit
    /// [`route_batch`] hands each worker thread. The default loops
    /// [`Overlay::route`]; overlays backed by a
    /// [`RouteTable`](crate::soa::RouteTable) override this with the
    /// interleaved AMAC kernel. Overrides must stay bit-identical to
    /// the default (the contract [`route_batch`]'s determinism rests
    /// on).
    fn route_chunk(&self, queries: &[(NodeId, Key)], opts: &RouteOptions) -> Vec<RouteResult> {
        queries
            .iter()
            .map(|&(from, target)| self.route(from, target, opts))
            .collect()
    }

    /// Mean routing-table size (out-degree).
    fn avg_table_size(&self) -> f64 {
        self.topology().avg_out_degree()
    }

    /// Largest routing table in the overlay.
    fn max_table_size(&self) -> usize {
        self.topology().max_out_degree()
    }
}

/// One greedy contact-selection step — the single implementation every
/// router in the workspace shares.
///
/// Among `candidates` (`(peer, key)` pairs), returns the first one whose
/// key is *strictly* closer to `target` than `cur_d` under `metric`
/// (later candidates must beat the running best strictly, so ties keep
/// the earliest candidate in iteration order), together with its
/// distance. `None` means `cur_d` is a local minimum over the candidate
/// set.
///
/// Both the static [`greedy_route`] below and the simulator's per-hop
/// message plane (`sw-sim`) call this, so a simulated hop decision is
/// bit-identical to a static one given the same view.
#[inline]
pub fn greedy_step(
    metric: sw_keyspace::Topology,
    target: Key,
    cur_d: f64,
    candidates: impl IntoIterator<Item = (NodeId, Key)>,
) -> Option<(NodeId, f64)> {
    let mut best: Option<(NodeId, f64)> = None;
    let mut best_d = cur_d;
    for (v, k) in candidates {
        let d = metric.distance(k, target);
        if d < best_d {
            best_d = d;
            best = Some((v, d));
        }
    }
    best
}

/// The ranked generalization of [`greedy_step`]: *every* candidate that
/// strictly improves on `cur_d`, sorted closest-first, into `out`
/// (cleared first).
///
/// The head of the list is exactly what [`greedy_step`] returns (the
/// sort is stable, so distance ties keep iteration order — the same
/// tie-break `greedy_step` applies), and the tail is the failover
/// ladder: a requester driving an *iterative* lookup can fall back to
/// the 2nd/3rd-best contact after a timeout without re-asking the node
/// that produced the list. Duplicate node ids in the candidate stream
/// (a contact appearing as both successor and long link) are kept once,
/// at their first position. The buffer is the caller's so per-hop
/// ladder construction — the hottest allocation site of the
/// simulator's iterative mode — can reuse one across calls.
pub fn greedy_candidates_into(
    metric: sw_keyspace::Topology,
    target: Key,
    cur_d: f64,
    candidates: impl IntoIterator<Item = (NodeId, Key)>,
    out: &mut Vec<(NodeId, f64)>,
) {
    out.clear();
    for (v, k) in candidates {
        let d = metric.distance(k, target);
        if d < cur_d && !out.iter().any(|&(u, _)| u == v) {
            out.push((v, d));
        }
    }
    out.sort_by(|a, b| a.1.total_cmp(&b.1));
}

/// Lane width of the chunked SoA row scan: 8 `f64`s — one 64-byte cache
/// line per chunk, and wide enough for the autovectorizer to use full
/// vector registers on the distance arithmetic.
const LANES: usize = 8;

/// One lane distance — the *same expression*
/// [`sw_keyspace::Topology::distance`] evaluates (`|t − p|`, ring-folded
/// by `min(d, 1 − d)`), so kernel results are bit-identical to the
/// reference. No branch on the data, only on the (loop-invariant)
/// metric.
#[inline(always)]
fn lane_distance(metric: sw_keyspace::Topology, t: f64, p: f64) -> f64 {
    let d = (t - p).abs();
    match metric {
        sw_keyspace::Topology::Interval => d,
        sw_keyspace::Topology::Ring => d.min(1.0 - d),
    }
}

/// The chunked SoA twin of [`greedy_step`]: one greedy contact selection
/// over a CSR row's id slice and its aligned position lane.
///
/// `pos[i]` must be the ring position (`Key::get`) of `ids[i]` — the
/// invariant the SoA routing table maintains. The lane is scanned in
/// fixed-width `LANES`-wide chunks (`chunks_exact`, so the inner loop
/// has a constant trip count and no bounds checks — the form LLVM
/// unrolls and keeps in registers), with the distance arithmetic
/// branch-free on the data; the strict-`<` fold keeps the earliest
/// minimum, which is exactly the reference tie-break. Returns the
/// winning `(id, distance)` or `None` when no contact strictly beats
/// `cur_d`.
///
/// (Measured against two alternatives on the routing micro-bench: a
/// chunk-buffer + min-fold variant and an explicit SSE2 variant both
/// lose to this form — the stack round-trip costs more than wide
/// reductions save on logarithmic-degree rows.)
#[inline]
pub fn greedy_step_soa(
    metric: sw_keyspace::Topology,
    target: Key,
    cur_d: f64,
    ids: &[NodeId],
    pos: &[f64],
) -> Option<(NodeId, f64)> {
    debug_assert_eq!(ids.len(), pos.len(), "SoA lanes must align with ids");
    let t = target.get();
    let mut best_i = usize::MAX;
    let mut best_d = cur_d;
    let mut chunks = pos.chunks_exact(LANES);
    let mut base = 0usize;
    for chunk in &mut chunks {
        for (j, &p) in chunk.iter().enumerate() {
            let d = lane_distance(metric, t, p);
            if d < best_d {
                best_d = d;
                best_i = base + j;
            }
        }
        base += LANES;
    }
    for (j, &p) in chunks.remainder().iter().enumerate() {
        let d = lane_distance(metric, t, p);
        if d < best_d {
            best_d = d;
            best_i = base + j;
        }
    }
    (best_i != usize::MAX).then(|| (ids[best_i], best_d))
}

/// A peer's *local* ring view: predecessor, successor list and long-range
/// links, borrowed from wherever the protocol keeps them. This is the
/// contact set dynamic protocols (joins, stabilization, the simulator's
/// message plane) route over; building one is free.
#[derive(Debug, Clone, Copy)]
pub struct RingView<'a> {
    /// Counter-clockwise neighbour, if known.
    pub pred: Option<NodeId>,
    /// Clockwise successor list, nearest first.
    pub succ: &'a [NodeId],
    /// Long-range links.
    pub long: &'a [NodeId],
}

impl RingView<'_> {
    /// Every contact in view order: predecessor, successors, long links.
    pub fn contacts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.pred
            .into_iter()
            .chain(self.succ.iter().copied())
            .chain(self.long.iter().copied())
    }

    /// [`greedy_step`] over this view, skipping `me` (self-loops) and the
    /// contacts in `excluded` (already timed out this walk) and resolving
    /// contact keys through `key_of`.
    ///
    /// This is the simulator's per-hop decision, so it is written as
    /// three plain loops in view order rather than as the
    /// `contacts().filter().map()` chain it is defined by: same strict
    /// `<`, same order, same ties — debug builds check every call
    /// against [`greedy_step`] over that chain — and a walk with nothing
    /// excluded (almost every hop) scans no exclusion list at all.
    pub fn step(
        &self,
        metric: sw_keyspace::Topology,
        target: Key,
        cur_d: f64,
        me: NodeId,
        excluded: &[NodeId],
        key_of: impl Fn(NodeId) -> Key,
    ) -> Option<(NodeId, f64)> {
        let best = if excluded.is_empty() {
            self.scan(metric, target, cur_d, &key_of, |v| v == me)
        } else {
            self.scan(metric, target, cur_d, &key_of, |v| {
                v == me || excluded.contains(&v)
            })
        };
        debug_assert_eq!(
            best,
            greedy_step(
                metric,
                target,
                cur_d,
                self.contacts()
                    .filter(|&v| v != me && !excluded.contains(&v))
                    .map(|v| (v, key_of(v))),
            ),
            "the flat scan must agree with greedy_step over the same view"
        );
        best
    }

    /// The strict-`<` fold of [`greedy_step`] over `pred`, `succ`,
    /// `long`, in that order.
    #[inline(always)]
    fn scan(
        &self,
        metric: sw_keyspace::Topology,
        target: Key,
        cur_d: f64,
        key_of: &impl Fn(NodeId) -> Key,
        skip: impl Fn(NodeId) -> bool,
    ) -> Option<(NodeId, f64)> {
        let mut best = None;
        let mut best_d = cur_d;
        let mut offer = |v: NodeId| {
            if skip(v) {
                return;
            }
            let d = metric.distance(key_of(v), target);
            if d < best_d {
                best_d = d;
                best = Some((v, d));
            }
        };
        if let Some(p) = self.pred {
            offer(p);
        }
        for &v in self.succ {
            offer(v);
        }
        for &v in self.long {
            offer(v);
        }
        best
    }

    /// [`greedy_candidates_into`] over this view, skipping the contacts
    /// `skip` names: the full failover ladder a node hands back to an
    /// iterative requester, closest-first, into `out` (cleared first).
    /// The head agrees with [`RingView::step`] for the same arguments.
    pub fn candidates_into(
        &self,
        metric: sw_keyspace::Topology,
        target: Key,
        cur_d: f64,
        mut skip: impl FnMut(NodeId) -> bool,
        mut key_of: impl FnMut(NodeId) -> Key,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        greedy_candidates_into(
            metric,
            target,
            cur_d,
            self.contacts()
                .filter(|&v| !skip(v))
                .map(|v| (v, key_of(v))),
            out,
        )
    }
}

/// The greedy engine itself — the reference walk — reading neighbour
/// slices from the CSR.
///
/// The goal peer is the placement-wide nearest peer to `target`; success
/// means reaching exactly that peer. A hop is taken only if it *strictly*
/// decreases the distance to the target, so the walk cannot cycle; a local
/// minimum that is not the goal is reported as failure (this happens only
/// in degraded overlays — intact neighbour links always offer progress).
/// Each hop's contact selection goes through [`greedy_step`].
pub fn greedy_route(
    placement: &Placement,
    topo: &CsrTopology,
    from: NodeId,
    target: Key,
    opts: &RouteOptions,
) -> RouteResult {
    greedy_walk(placement, |u| topo.neighbors(u), from, target, opts)
}

/// [`greedy_route`]'s loop over any source of contact-id rows: `row_of`
/// is a topology's rows for [`greedy_route`] itself and [`Overlay::contacts`]
/// for [`Overlay::route`]. It resolves the goal up front; the batch
/// kernel reaches the same verdict without that search, arriving at
/// distance `0.0` and asking for the goal only where a walk stops short
/// of it ([`crate::interleaved`]'s module docs).
fn greedy_walk<'a>(
    placement: &Placement,
    row_of: impl Fn(NodeId) -> &'a [NodeId],
    from: NodeId,
    target: Key,
    opts: &RouteOptions,
) -> RouteResult {
    let goal = placement.nearest(target);
    let mut cur = from;
    let mut hops = 0u32;
    let mut path = Vec::new();
    if opts.record_path {
        path.push(cur);
    }
    while cur != goal {
        if hops >= opts.max_hops {
            return finish_route(false, hops, path, from, cur, opts);
        }
        let cur_d = placement.distance_to(cur, target);
        let step = greedy_step(
            placement.topology(),
            target,
            cur_d,
            row_of(cur).iter().map(|&v| (v, placement.key(v))),
        );
        let Some((best, _)) = step else {
            // Local minimum away from the goal: routing failure.
            return finish_route(false, hops, path, from, cur, opts);
        };
        cur = best;
        hops += 1;
        if opts.record_path {
            path.push(cur);
        }
    }
    finish_route(true, hops, path, from, cur, opts)
}

/// Assembles a [`RouteResult`], shared by every walk in the crate.
pub(crate) fn finish_route(
    success: bool,
    hops: u32,
    path: Vec<NodeId>,
    from: NodeId,
    last: NodeId,
    opts: &RouteOptions,
) -> RouteResult {
    let path = if opts.record_path {
        path
    } else {
        vec![from, last]
    };
    RouteResult {
        success,
        hops,
        path,
    }
}

/// Clockwise (closest-preceding-contact) routing: the native algorithm of
/// unidirectional-finger DHTs like Chord.
///
/// The goal is the *successor* of the target key; each hop forwards to the
/// contact that advances furthest clockwise without overshooting the
/// target, falling back to the immediate successor edge. Symmetric greedy
/// distance-minimization is wrong for these overlays: their fingers only
/// point clockwise, so a target just counter-clockwise of the current peer
/// would otherwise be approached by `O(n)` single predecessor steps.
pub fn clockwise_route(
    placement: &Placement,
    topo: &CsrTopology,
    from: NodeId,
    target: Key,
    opts: &RouteOptions,
) -> RouteResult {
    use sw_keyspace::Topology;
    let goal = placement.successor(target);
    let mut cur = from;
    let mut hops = 0u32;
    let mut path = Vec::new();
    if opts.record_path {
        path.push(cur);
    }
    while cur != goal {
        if hops >= opts.max_hops {
            return finish_route(false, hops, path, from, cur, opts);
        }
        let arc_to_target = Topology::Ring.clockwise(placement.key(cur), target);
        let mut best = cur;
        let mut best_remaining = f64::INFINITY;
        for &v in topo.neighbors(cur) {
            let adv = Topology::Ring.clockwise(placement.key(cur), placement.key(v));
            if adv > 0.0 && adv <= arc_to_target {
                let remaining = arc_to_target - adv;
                if remaining < best_remaining {
                    best_remaining = remaining;
                    best = v;
                }
            }
        }
        if best == cur {
            // No contact precedes the target: the successor edge finishes.
            best = placement.next(cur);
        }
        cur = best;
        hops += 1;
        if opts.record_path {
            path.push(cur);
        }
    }
    finish_route(true, hops, path, from, cur, opts)
}

/// Evaluates a batch of independent greedy lookups, splitting the batch
/// across `threads` workers (`0` = auto). Results come back in input
/// order, and — because each lookup is deterministic given the overlay —
/// are bit-identical to a sequential `overlay.route(..)` loop for every
/// thread count.
///
/// Dispatches through [`Overlay::route_chunk`], so overlays with a
/// native router (e.g. Chord's clockwise walk) batch their own
/// algorithm, and table-backed overlays route each worker's chunk
/// through the interleaved AMAC kernel.
pub fn route_batch<O: Overlay + ?Sized>(
    overlay: &O,
    queries: &[(NodeId, Key)],
    opts: &RouteOptions,
    threads: usize,
) -> Vec<RouteResult> {
    // A single greedy route costs microseconds, so even modest batches
    // are worth fanning out; each worker gets one contiguous chunk so
    // the per-chunk kernel sees the widest possible batch.
    let chunks = par::par_chunks_grained(queries.len(), threads, 64, |r| {
        overlay.route_chunk(&queries[r], opts)
    });
    let mut out = Vec::with_capacity(queries.len());
    for c in chunks {
        out.extend(c);
    }
    out
}

/// How survey target keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetModel {
    /// Target is the key of a uniformly random peer (member lookup) —
    /// matches the paper's “search request for a target key t” where `t`
    /// is a node.
    MemberKeys,
    /// Target is a uniformly random point of the key space.
    UniformKeys,
}

/// Draws the `(source, target)` pairs a survey would route — exposed so
/// callers can share one workload between survey and batch APIs.
pub fn survey_queries(
    placement: &Placement,
    queries: usize,
    model: TargetModel,
    rng: &mut Rng,
) -> Vec<(NodeId, Key)> {
    let n = placement.len();
    (0..queries)
        .map(|_| {
            let from = rng.index(n) as NodeId;
            let target = match model {
                TargetModel::MemberKeys => placement.key(rng.index(n) as NodeId),
                TargetModel::UniformKeys => Key::clamped(rng.f64()),
            };
            (from, target)
        })
        .collect()
}

/// Aggregated routing statistics over many random lookups.
#[derive(Debug, Clone)]
pub struct RoutingSurvey {
    /// Hop statistics over successful routes.
    pub hops: OnlineStats,
    /// Raw hop samples of successful routes (for percentiles).
    pub hop_samples: Vec<f64>,
    /// Number of lookups attempted.
    pub attempts: usize,
    /// Number of successful lookups.
    pub successes: usize,
}

impl RoutingSurvey {
    /// Fraction of lookups that succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }

    /// Hop-count percentile over successful routes (`q` in `[0, 1]`).
    /// Returns `0` when no route succeeded.
    pub fn hop_percentile(&self, q: f64) -> f64 {
        if self.hop_samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.hop_samples.clone();
        sorted.sort_by(f64::total_cmp);
        sw_keyspace::stats::quantile_sorted(&sorted, q)
    }

    /// Runs `queries` random lookups over `overlay` with default options.
    pub fn run(
        overlay: &dyn Overlay,
        queries: usize,
        model: TargetModel,
        rng: &mut Rng,
    ) -> RoutingSurvey {
        let opts = RouteOptions {
            record_path: false,
            ..RouteOptions::for_n(overlay.placement().len())
        };
        Self::run_with_opts(overlay, queries, model, &opts, rng)
    }

    /// Runs `queries` random lookups with explicit [`RouteOptions`] —
    /// needed when linear-walk hop counts are legitimate (e.g. a ring
    /// stripped of long links).
    ///
    /// The lookups are evaluated through [`route_batch`]; the workload is
    /// drawn up front, so the survey is deterministic in `rng` regardless
    /// of worker-thread count.
    pub fn run_with_opts(
        overlay: &dyn Overlay,
        queries: usize,
        model: TargetModel,
        opts: &RouteOptions,
        rng: &mut Rng,
    ) -> RoutingSurvey {
        let workload = survey_queries(overlay.placement(), queries, model, rng);
        let results = route_batch(overlay, &workload, opts, 0);
        Self::from_results(&results)
    }

    /// Aggregates pre-computed route results (in input order, so float
    /// accumulation is reproducible).
    pub fn from_results(results: &[RouteResult]) -> RoutingSurvey {
        let mut hops = OnlineStats::new();
        let mut hop_samples = Vec::with_capacity(results.len());
        let mut successes = 0usize;
        for r in results {
            if r.success {
                successes += 1;
                hops.push(r.hops as f64);
                hop_samples.push(r.hops as f64);
            }
        }
        RoutingSurvey {
            hops,
            hop_samples,
            attempts: results.len(),
            successes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_graph::LinkTable;
    use sw_keyspace::Topology;

    /// Minimal overlay: ring successor/predecessor only.
    struct RingOnly {
        p: Placement,
        topo: CsrTopology,
    }

    impl Overlay for RingOnly {
        fn name(&self) -> String {
            "ring-only".into()
        }
        fn placement(&self) -> &Placement {
            &self.p
        }
        fn topology(&self) -> &CsrTopology {
            &self.topo
        }
    }

    fn ring(n: usize) -> RingOnly {
        let p = Placement::regular(n, Topology::Ring);
        let mut lt = LinkTable::new(n);
        for u in 0..n as NodeId {
            lt.add_all(u, p.topology_neighbors(u));
        }
        RingOnly {
            p,
            topo: lt.build(),
        }
    }

    #[test]
    fn ring_routing_takes_ring_distance_hops() {
        let o = ring(16);
        let opts = RouteOptions::for_n(16);
        // From peer 0 to peer 8's key: 8 hops either way.
        let r = o.route(0, o.p.key(8), &opts);
        assert!(r.success);
        assert_eq!(r.hops, 8);
        // Wrap-around: 0 to 15 is one hop backwards.
        let r = o.route(0, o.p.key(15), &opts);
        assert!(r.success);
        assert_eq!(r.hops, 1);
    }

    #[test]
    fn self_route_is_zero_hops() {
        let o = ring(8);
        let r = o.route(3, o.p.key(3), &RouteOptions::for_n(8));
        assert!(r.success);
        assert_eq!(r.hops, 0);
        assert_eq!(r.path, vec![3]);
    }

    #[test]
    fn route_to_nonmember_key_reaches_nearest() {
        let o = ring(10); // keys at multiples of 0.1
        let r = o.route(0, Key::new(0.33).unwrap(), &RouteOptions::for_n(10));
        assert!(r.success);
        assert_eq!(*r.path.last().unwrap(), 3);
    }

    #[test]
    fn hop_limit_aborts() {
        let o = ring(64);
        let opts = RouteOptions {
            max_hops: 3,
            record_path: true,
        };
        let r = o.route(0, o.p.key(32), &opts);
        assert!(!r.success);
        assert_eq!(r.hops, 3);
    }

    #[test]
    fn path_is_recorded_in_order() {
        let o = ring(8);
        let r = o.route(1, o.p.key(4), &RouteOptions::for_n(8));
        assert_eq!(r.path, vec![1, 2, 3, 4]);
    }

    #[test]
    fn local_minimum_is_failure() {
        // A broken overlay where no peer has any contacts at all.
        struct Broken {
            p: Placement,
            topo: CsrTopology,
        }
        impl Overlay for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn placement(&self) -> &Placement {
                &self.p
            }
            fn topology(&self) -> &CsrTopology {
                &self.topo
            }
        }
        let o = Broken {
            p: Placement::regular(8, Topology::Ring),
            topo: CsrTopology::empty(8),
        };
        let r = o.route(0, o.p.key(4), &RouteOptions::for_n(8));
        assert!(!r.success);
        assert_eq!(r.hops, 0);
    }

    #[test]
    fn survey_counts_successes() {
        let o = ring(32);
        let mut rng = Rng::new(7);
        let s = RoutingSurvey::run(&o, 200, TargetModel::MemberKeys, &mut rng);
        assert_eq!(s.attempts, 200);
        assert_eq!(s.successes, 200);
        assert!((s.success_rate() - 1.0).abs() < 1e-12);
        // Mean ring-routing distance on n=32 is ~8.
        assert!(s.hops.mean() > 4.0 && s.hops.mean() < 12.0);
    }

    #[test]
    fn route_batch_matches_looped_routes_for_any_thread_count() {
        let o = ring(64);
        let mut rng = Rng::new(11);
        // 6 401 queries at the 64-query grain fan out to 100 workers but
        // fill only 99 chunks of 65: no worker may be handed a range
        // past the end of the batch.
        let workload = survey_queries(&o.p, 6401, TargetModel::MemberKeys, &mut rng);
        let opts = RouteOptions::for_n(64);
        let looped: Vec<RouteResult> = workload
            .iter()
            .map(|&(from, t)| o.route(from, t, &opts))
            .collect();
        for threads in [1, 2, 4, 9, 100] {
            let batched = route_batch(&o, &workload, &opts, threads);
            assert_eq!(batched, looped, "threads={threads}");
        }
    }

    #[test]
    fn candidates_head_agrees_with_greedy_step_and_is_sorted() {
        let mut rng = Rng::new(23);
        let mut ranked = Vec::new();
        for _ in 0..200 {
            let n = 3 + rng.index(40);
            let cands: Vec<(NodeId, Key)> = (0..n)
                .map(|i| (i as NodeId, Key::clamped(rng.f64())))
                .collect();
            let target = Key::clamped(rng.f64());
            let cur_d = rng.f64();
            let step = greedy_step(Topology::Ring, target, cur_d, cands.iter().copied());
            greedy_candidates_into(
                Topology::Ring,
                target,
                cur_d,
                cands.iter().copied(),
                &mut ranked,
            );
            assert_eq!(
                step,
                ranked.first().copied(),
                "ranked head must be the greedy choice"
            );
            for w in ranked.windows(2) {
                assert!(w[0].1 <= w[1].1, "candidates must be sorted closest-first");
            }
            for &(_, d) in &ranked {
                assert!(d < cur_d, "every candidate must strictly improve");
            }
        }
    }

    #[test]
    fn soa_kernels_are_bit_identical_to_reference() {
        let mut rng = Rng::new(31);
        for metric in [Topology::Interval, Topology::Ring] {
            for _ in 0..200 {
                let n = rng.index(40); // includes rows shorter than LANES and empty
                let ids: Vec<NodeId> = (0..n as NodeId).collect();
                let keys: Vec<Key> = (0..n).map(|_| Key::clamped(rng.f64())).collect();
                let pos: Vec<f64> = keys.iter().map(|k| k.get()).collect();
                let target = Key::clamped(rng.f64());
                let cur_d = rng.f64();
                let pairs = ids.iter().copied().zip(keys.iter().copied());
                assert_eq!(
                    greedy_step(metric, target, cur_d, pairs),
                    greedy_step_soa(metric, target, cur_d, &ids, &pos),
                );
            }
        }
    }

    #[test]
    fn candidates_dedupe_repeated_contacts() {
        let k = Key::new(0.25).unwrap();
        let target = Key::new(0.3).unwrap();
        // Node 1 appears twice (successor *and* long link); keep it once.
        let mut ranked = Vec::new();
        greedy_candidates_into(
            Topology::Ring,
            target,
            0.5,
            [(1, k), (1, k), (2, k)],
            &mut ranked,
        );
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].0, 1);
        assert_eq!(ranked[1].0, 2);
    }

    #[test]
    fn ring_view_candidates_match_step_head() {
        let keys: Vec<Key> = (0..8).map(|i| Key::clamped(i as f64 / 8.0)).collect();
        let succ = [1, 2];
        let long = [5, 6];
        let view = RingView {
            pred: Some(7),
            succ: &succ,
            long: &long,
        };
        let target = keys[6];
        let cur_d = Topology::Ring.distance(keys[0], target);
        let key_of = |v: NodeId| keys[v as usize];
        let step = view.step(Topology::Ring, target, cur_d, 0, &[], key_of);
        let mut ranked = Vec::new();
        view.candidates_into(
            Topology::Ring,
            target,
            cur_d,
            |v| v == 0,
            key_of,
            &mut ranked,
        );
        assert_eq!(step, ranked.first().copied());
        assert_eq!(ranked[0].0, 6, "the long link straight to the target wins");
        // Excluding the winner hands the step to the runner-up: 7 and 5
        // tie at distance 1/8, and view order (pred before long) decides.
        let step = view.step(Topology::Ring, target, cur_d, 0, &[6], key_of);
        assert_eq!(step, ranked.get(1).copied());
        assert_eq!(step.map(|(v, _)| v), Some(7));
    }

    #[test]
    fn avg_and_max_table_size() {
        let o = ring(8);
        assert!((o.avg_table_size() - 2.0).abs() < 1e-12);
        assert_eq!(o.max_table_size(), 2);
    }
}
