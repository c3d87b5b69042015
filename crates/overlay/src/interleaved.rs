//! The interleaved multi-walk routing kernel — AMAC-style
//! (Asynchronous Memory Access Chaining) batch execution of independent
//! greedy walks.
//!
//! # Why batches get their own kernel
//!
//! A single greedy walk is a dependent pointer chase: the CSR offset
//! pair of the current peer must arrive before its edge row can be
//! fetched, and the row must arrive before the next peer is known. At
//! n ≥ 10⁷ the arena is multiple GB, every one of those loads is a DRAM
//! miss, and the walk advances at *memory latency* — nothing a single
//! walk does to its own row scan changes how long each line takes to
//! arrive.
//!
//! Batched workloads (routing surveys, simulator probes, the experiment
//! harness) route thousands of *independent* walks, and independence is
//! exactly what a memory-level-parallelism kernel needs: this module
//! keeps `K` walks in flight as explicit per-walk state machines,
//! advancing each walk one stage per round and software-prefetching the
//! lines the *next* stage will read ([`sw_graph::prefetch`]) one round
//! ahead — so the dependent miss of walk `i` overlaps the scans of
//! walks `i+1..i+K`, and throughput scales with memory *bandwidth*
//! (outstanding-miss capacity) instead of latency.
//!
//! Each walk alternates between two stages:
//!
//! 1. **FetchRow** — the offset pair `offsets[cur..cur+2]` (prefetched
//!    when the walk hopped to `cur`) is loaded, and the edge row
//!    `edges[a..b]` plus its aligned SoA position lane `pos[a..b]` are
//!    prefetched for the next round.
//! 2. **Scan** — the row (now resident) is scanned by the chunked
//!    [`greedy_step_soa`]; the walk hops, retires (arrived / local
//!    minimum / hop budget), or continues, and the *next* peer's offset
//!    pair is prefetched.
//!
//! Retired walks refill their slot from the pending workload in input
//! order, so the pipeline stays full until the tail drains; slots that
//! cannot refill are removed and the remaining walks finish at a
//! narrower width (the "uneven drain" the equivalence proptest covers).
//!
//! There is one round loop. Its two entry points —
//! [`route_interleaved`] (walk to the placement's goal peer, report a
//! [`RouteResult`]) and [`probe_interleaved`] (walk to an exact key,
//! report a [`ProbeOutcome`]) — differ only in how a walk opens and
//! closes, which the private [`Walks`] policy supplies at compile time.
//!
//! # Bit-identity
//!
//! Results are **bit-identical** to a sequential loop of
//! [`crate::route::greedy_route`] over the same queries, for every
//! interleave width: debug builds check every Scan against the
//! slice-based [`greedy_step`] over the gathered keys of the same row,
//! and the carried distance against the one recomputed from the peer's
//! key (both evaluate `|t − p|`, ring-folded, on the same `f64`s).
//! Interleaving order affects only *when* each walk's loads issue, never
//! what they return.

use crate::placement::Placement;
use crate::route::{finish_route, greedy_step, greedy_step_soa, RouteOptions, RouteResult};
use crate::soa::RouteTable;
use sw_graph::prefetch::{prefetch_read, prefetch_span};
use sw_graph::NodeId;
use sw_keyspace::Key;

/// Default number of walks kept in flight per thread.
///
/// A sweep of K ∈ {1, 2, 4, 8, 16, 32} at n up to 10⁷ on both heap and
/// mmap-arena tables (recorded in CHANGES.md, PRs 10 and 12) saw
/// throughput rise steeply to K = 8 and stay near-flat through
/// K = 16–32 (the line-fill buffers are saturated), and 8 keeps the
/// per-walk state well inside L1 — so 8 is the tuned default. Its cost
/// today is `overlay.interleaved.ns_per_hop` in `BENCHMARK.json`.
pub const DEFAULT_INTERLEAVE: usize = 8;

/// Hard cap on the interleave width: beyond this the per-walk state no
/// longer fits the L1 working set and wider pipelines only add misses.
pub const MAX_INTERLEAVE: usize = 64;

/// Stage of one in-flight walk (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// `offsets[cur..cur+2]` prefetched; load it, prefetch the row.
    FetchRow,
    /// Row prefetched; scan it and hop / retire.
    Scan,
}

/// One in-flight walk: the explicit state machine AMAC advances.
struct Walk {
    /// Index into the query/result arrays.
    query: usize,
    from: NodeId,
    cur: NodeId,
    /// The peer the walk must reach ([`ToGoal`] only).
    goal: NodeId,
    target: Key,
    /// Distance of `cur` to the target — carried from the winning
    /// lane's distance, bit-equal to recomputing it from `cur`'s key.
    cur_d: f64,
    hops: u32,
    /// Row bounds of `cur` once `FetchRow` has run.
    row: (usize, usize),
    stage: Stage,
    /// Visited peers, when the options ask for the path.
    path: Vec<NodeId>,
}

/// How a walk opens and closes — all the two entry points disagree on.
/// [`interleave`] is monomorphised per policy, so neither walk pays a
/// per-hop branch for the other.
trait Walks {
    /// What a retired walk reports.
    type Outcome;

    /// The goal peer of a walk starting `from_d` away from its target,
    /// or `Err` with its outcome when it ends before the first hop.
    fn open(
        &self,
        from: NodeId,
        target: Key,
        from_d: f64,
        opts: &RouteOptions,
    ) -> Result<NodeId, Self::Outcome>;

    /// True once the walk stands where it was headed.
    fn arrived(w: &Walk) -> bool;

    /// The outcome of a walk that stops at `w.cur`.
    fn close(w: &mut Walk, arrived: bool, opts: &RouteOptions) -> Self::Outcome;
}

/// The routing walk: ends at the placement-wide nearest peer to the
/// target, like [`crate::route::greedy_route`].
struct ToGoal<'a>(&'a Placement);

impl Walks for ToGoal<'_> {
    type Outcome = RouteResult;

    fn open(
        &self,
        from: NodeId,
        target: Key,
        _: f64,
        opts: &RouteOptions,
    ) -> Result<NodeId, RouteResult> {
        let goal = self.0.nearest(target);
        if from == goal || opts.max_hops == 0 {
            return Err(finish_route(from == goal, 0, vec![from], from, from, opts));
        }
        Ok(goal)
    }

    fn arrived(w: &Walk) -> bool {
        w.cur == w.goal
    }

    fn close(w: &mut Walk, arrived: bool, opts: &RouteOptions) -> RouteResult {
        let path = std::mem::take(&mut w.path);
        finish_route(arrived, w.hops, path, w.from, w.cur, opts)
    }
}

/// The measurement probe: ends on *exact arrival* (distance `0.0` to
/// the target key), like the simulator's scalar `probe_walk`. There is
/// no goal peer to resolve; arrival is read off the carried distance.
struct ToKey;

impl Walks for ToKey {
    type Outcome = ProbeOutcome;

    fn open(
        &self,
        from: NodeId,
        _: Key,
        from_d: f64,
        _: &RouteOptions,
    ) -> Result<NodeId, ProbeOutcome> {
        if from_d == 0.0 {
            return Err(ProbeOutcome {
                final_node: from,
                hops: 0,
            });
        }
        Ok(from)
    }

    fn arrived(w: &Walk) -> bool {
        w.cur_d == 0.0
    }

    fn close(w: &mut Walk, _: bool, _: &RouteOptions) -> ProbeOutcome {
        ProbeOutcome {
            final_node: w.cur,
            hops: w.hops,
        }
    }
}

/// The round loop: keeps up to `width` walks of `queries` in flight
/// over `table` (clamped to `1..=`[`MAX_INTERLEAVE`]) and returns their
/// outcomes in input order. `key_of` resolves a peer's key: each walk's
/// start distance, and the debug-build checks of every hop against the
/// slice reference.
fn interleave<P: Walks, K: FnMut(NodeId) -> Key>(
    table: &RouteTable,
    metric: sw_keyspace::Topology,
    queries: &[(NodeId, Key)],
    opts: &RouteOptions,
    width: usize,
    mut key_of: K,
    policy: P,
) -> Vec<P::Outcome> {
    // Hoist the flat arrays once — the round loop indexes raw slices
    // with zero backend dispatch.
    let store = table.store();
    let offsets = store.offsets();
    let edges = store.edges();
    let pos = store.edge_pos().expect("route table carries lanes");
    let width = width.clamp(1, MAX_INTERLEAVE);

    let mut results: Vec<Option<P::Outcome>> = Vec::with_capacity(queries.len());
    results.resize_with(queries.len(), || None);
    let mut next_query = 0usize;
    let mut slots: Vec<Walk> = Vec::with_capacity(width);

    // Starts the walk for query `q`: either an outcome written in place
    // (the walk ended before its first hop), or an in-flight walk with
    // its offset pair prefetched.
    let start = |q: usize, key_of: &mut K, results: &mut [Option<P::Outcome>]| -> Option<Walk> {
        let (from, target) = queries[q];
        let cur_d = metric.distance(key_of(from), target);
        let goal = match policy.open(from, target, cur_d, opts) {
            Ok(goal) => goal,
            Err(outcome) => {
                results[q] = Some(outcome);
                return None;
            }
        };
        prefetch_read(&offsets[from as usize]);
        prefetch_read(&offsets[from as usize + 1]);
        let path = if opts.record_path {
            vec![from]
        } else {
            Vec::new()
        };
        Some(Walk {
            query: q,
            from,
            cur: from,
            goal,
            target,
            cur_d,
            hops: 0,
            row: (0, 0),
            stage: Stage::FetchRow,
            path,
        })
    };

    // Prime the pipeline.
    while slots.len() < width && next_query < queries.len() {
        if let Some(w) = start(next_query, &mut key_of, &mut results) {
            slots.push(w);
        }
        next_query += 1;
    }

    // Round loop: one stage per walk per round. Any schedule computes
    // the same per-walk answers; rounds only shape the prefetch overlap.
    while !slots.is_empty() {
        let mut i = 0;
        while i < slots.len() {
            let w = &mut slots[i];
            let finished: Option<P::Outcome> = match w.stage {
                Stage::FetchRow => {
                    let a = offsets[w.cur as usize] as usize;
                    let b = offsets[w.cur as usize + 1] as usize;
                    w.row = (a, b);
                    prefetch_span(&edges[a..b]);
                    prefetch_span(&pos[a..b]);
                    w.stage = Stage::Scan;
                    None
                }
                Stage::Scan => {
                    debug_assert_eq!(
                        w.cur_d.to_bits(),
                        metric.distance(key_of(w.cur), w.target).to_bits(),
                        "carried distance must equal the recomputed one at node {}",
                        w.cur
                    );
                    let (ids, lane) = (&edges[w.row.0..w.row.1], &pos[w.row.0..w.row.1]);
                    let step = greedy_step_soa(metric, w.target, w.cur_d, ids, lane);
                    debug_assert_eq!(
                        step,
                        greedy_step(
                            metric,
                            w.target,
                            w.cur_d,
                            ids.iter().map(|&v| (v, key_of(v))),
                        ),
                        "chunked scan must agree with the slice reference at node {}",
                        w.cur
                    );
                    match step {
                        // Local minimum short of arrival.
                        None => Some(P::close(w, false, opts)),
                        Some((next, d)) => {
                            w.cur = next;
                            w.cur_d = d;
                            w.hops += 1;
                            if opts.record_path {
                                w.path.push(next);
                            }
                            let arrived = P::arrived(w);
                            if arrived || w.hops >= opts.max_hops {
                                Some(P::close(w, arrived, opts))
                            } else {
                                prefetch_read(&offsets[next as usize]);
                                prefetch_read(&offsets[next as usize + 1]);
                                w.stage = Stage::FetchRow;
                                None
                            }
                        }
                    }
                }
            };
            match finished {
                None => i += 1,
                Some(res) => {
                    results[slots[i].query] = Some(res);
                    // Refill in place from the pending workload so the
                    // pipeline stays full until the tail.
                    loop {
                        if next_query >= queries.len() {
                            slots.swap_remove(i);
                            break;
                        }
                        let q = next_query;
                        next_query += 1;
                        if let Some(w) = start(q, &mut key_of, &mut results) {
                            slots[i] = w;
                            i += 1;
                            break;
                        }
                    }
                }
            }
        }
    }

    results
        .into_iter()
        .map(|r| r.expect("every query retires exactly once"))
        .collect()
}

/// Routes a batch of independent greedy lookups through the interleaved
/// kernel, keeping up to `width` walks in flight (clamped to
/// `1..=`[`MAX_INTERLEAVE`]). Results come back in input order and are
/// bit-identical to a sequential [`crate::route::greedy_route`] loop for
/// every width.
///
/// This is a *single-threaded* kernel by design: [`crate::route::route_batch`]
/// hands each worker thread a contiguous chunk and the kernel extracts
/// memory-level parallelism within the chunk, so the two axes (threads ×
/// in-flight walks) compose.
pub fn route_interleaved(
    placement: &Placement,
    table: &RouteTable,
    queries: &[(NodeId, Key)],
    opts: &RouteOptions,
    width: usize,
) -> Vec<RouteResult> {
    let (metric, key_of) = (placement.topology(), |v| placement.key(v));
    interleave(
        table,
        metric,
        queries,
        opts,
        width,
        key_of,
        ToGoal(placement),
    )
}

/// Outcome of one interleaved measurement probe: where the walk ended
/// and how many hops it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// The peer the walk stopped at (the target iff it succeeded).
    pub final_node: NodeId,
    /// Greedy hops taken.
    pub hops: u32,
}

/// The probe twin of [`route_interleaved`], used by the simulator's
/// `probe_lookups`: walks terminate on *exact arrival* (distance `0.0`
/// to the target key), a local minimum, or the hop budget — the
/// semantics of the simulator's scalar `probe_walk` — rather than on
/// reaching a placement-resolved goal peer. `key_of` resolves the
/// *source* peer's key for the initial distance (the per-hop distances
/// are carried from the scanned lanes, which hold the same bits).
///
/// Outcomes are in input order and bit-identical to the scalar loop for
/// every `width`.
pub fn probe_interleaved(
    table: &RouteTable,
    metric: sw_keyspace::Topology,
    queries: &[(NodeId, Key)],
    max_hops: u32,
    width: usize,
    key_of: impl FnMut(NodeId) -> Key,
) -> Vec<ProbeOutcome> {
    let opts = RouteOptions {
        max_hops,
        record_path: false,
    };
    interleave(table, metric, queries, &opts, width, key_of, ToKey)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{greedy_route, survey_queries, Overlay, TargetModel};
    use crate::symphony::Symphony;
    use sw_keyspace::distribution::Uniform;
    use sw_keyspace::{Rng, Topology};

    fn symphony(n: usize, seed: u64) -> (Symphony, RouteTable) {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        let o = Symphony::build(p, 4, true, &mut rng);
        let pl = o.placement().clone();
        let t = RouteTable::build(o.topology().clone(), |v| pl.key(v).get());
        (o, t)
    }

    fn reference(o: &Symphony, queries: &[(NodeId, Key)], opts: &RouteOptions) -> Vec<RouteResult> {
        queries
            .iter()
            .map(|&(from, t)| greedy_route(o.placement(), o.topology(), from, t, opts))
            .collect()
    }

    #[test]
    fn matches_reference_for_every_width() {
        let (o, table) = symphony(512, 7);
        let mut rng = Rng::new(11);
        let queries = survey_queries(o.placement(), 300, TargetModel::MemberKeys, &mut rng);
        for record_path in [true, false] {
            let opts = RouteOptions {
                record_path,
                ..RouteOptions::for_n(512)
            };
            let want = reference(&o, &queries, &opts);
            for width in [1, 2, 3, 8, 17, 64, 1000] {
                let got = route_interleaved(o.placement(), &table, &queries, &opts, width);
                assert_eq!(got, want, "width={width} record_path={record_path}");
            }
        }
    }

    #[test]
    fn empty_batch_and_single_query() {
        let (o, table) = symphony(64, 3);
        let opts = RouteOptions::for_n(64);
        assert!(route_interleaved(o.placement(), &table, &[], &opts, 8).is_empty());
        let q = [(5 as NodeId, o.placement().key(40))];
        let got = route_interleaved(o.placement(), &table, &q, &opts, 8);
        assert_eq!(got, reference(&o, &q, &opts));
    }

    #[test]
    fn self_routes_and_zero_budget_retire_at_refill() {
        let (o, table) = symphony(128, 5);
        // Every query already at its goal: the pipeline never fills,
        // results still come back in order.
        let qs: Vec<(NodeId, Key)> = (0..40).map(|i| (i, o.placement().key(i))).collect();
        let opts = RouteOptions::for_n(128);
        let got = route_interleaved(o.placement(), &table, &qs, &opts, 4);
        assert_eq!(got, reference(&o, &qs, &opts));
        for r in &got {
            assert!(r.success);
            assert_eq!(r.hops, 0);
        }
        // Zero hop budget: every cross-peer route fails immediately.
        let opts0 = RouteOptions {
            max_hops: 0,
            record_path: true,
        };
        let qs: Vec<(NodeId, Key)> = (0..20).map(|i| (i, o.placement().key(i + 50))).collect();
        let got = route_interleaved(o.placement(), &table, &qs, &opts0, 8);
        assert_eq!(got, reference(&o, &qs, &opts0));
    }

    #[test]
    fn tight_hop_budget_matches_reference() {
        let (o, table) = symphony(256, 9);
        let mut rng = Rng::new(2);
        let queries = survey_queries(o.placement(), 200, TargetModel::UniformKeys, &mut rng);
        for max_hops in [1, 2, 3] {
            let opts = RouteOptions {
                max_hops,
                record_path: true,
            };
            let got = route_interleaved(o.placement(), &table, &queries, &opts, 8);
            assert_eq!(got, reference(&o, &queries, &opts), "max_hops={max_hops}");
        }
    }

    #[test]
    fn probe_matches_scalar_walk() {
        let (o, table) = symphony(512, 13);
        let pl = o.placement();
        let mut rng = Rng::new(17);
        let queries: Vec<(NodeId, Key)> = (0..400)
            .map(|_| {
                let from = rng.index(512) as NodeId;
                let target = pl.key(rng.index(512) as NodeId);
                (from, target)
            })
            .collect();
        let max_hops = 20;
        // Scalar reference: the simulator's probe_walk loop.
        let scalar: Vec<ProbeOutcome> = queries
            .iter()
            .map(|&(from, target)| {
                let mut cur = from;
                let mut hops = 0u32;
                loop {
                    let cur_d = Topology::Ring.distance(pl.key(cur), target);
                    if cur_d == 0.0 {
                        break;
                    }
                    let Some((next, _)) = table.step(Topology::Ring, cur, target, cur_d) else {
                        break;
                    };
                    hops += 1;
                    cur = next;
                    if hops >= max_hops {
                        break;
                    }
                }
                ProbeOutcome {
                    final_node: cur,
                    hops,
                }
            })
            .collect();
        for width in [1, 4, 8, 32] {
            let got = probe_interleaved(&table, Topology::Ring, &queries, max_hops, width, |v| {
                pl.key(v)
            });
            assert_eq!(got, scalar, "width={width}");
        }
    }
}
