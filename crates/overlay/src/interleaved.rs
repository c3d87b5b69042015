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
//! Each walk moves through three stages, Open → Scan → (FetchRow →
//! Scan)…:
//!
//! 1. **Open** — the source's key `keys[from]` and offset pair
//!    (prefetched when the walk was started) are loaded. A walk that
//!    already stands on its target key retires here, as does a walk
//!    with no hop budget; any other walk does FetchRow's work in the
//!    same round.
//! 2. **FetchRow** — the offset pair `offsets[cur..cur+2]` (prefetched
//!    when the walk hopped to `cur`) is loaded, and the edge row
//!    `edges[a..b]` plus its aligned SoA position lane `pos[a..b]` are
//!    prefetched for the next round.
//! 3. **Scan** — the row (now resident) is scanned by the chunked
//!    [`greedy_step_soa`]; the walk hops, retires (arrived / local
//!    minimum / hop budget), or continues, and the *next* peer's offset
//!    pair is prefetched.
//!
//! Retired walks refill their slot from the pending workload in input
//! order, so the pipeline stays full until the tail drains; slots that
//! cannot refill are removed and the remaining walks finish at a
//! narrower width (the "uneven drain" the equivalence proptest covers).
//!
//! [`route_interleaved`] is the one entry point: every batch of greedy
//! walks — [`crate::route::route_batch`]'s chunks and the simulator's
//! measurement probes alike — walks to the placement's goal peer and
//! reports a [`RouteResult`].
//!
//! # Arrival from the carried distance
//!
//! A walk arrives the way a peer would see it: its distance to the
//! target is `0.0`. That is exact without ever resolving the goal peer
//! up front. Placement keys are distinct and lie in `[0, 1)`, so
//! [`Topology::distance`](sw_keyspace::Topology::distance) is `0.0`
//! only between equal keys (`|t − p|` of distinct doubles is never
//! zero, and below 1 the ring fold `1 − d` cannot be either). The peer
//! at distance `0.0` is therefore the unique minimiser, which is
//! [`Placement::nearest`] of the target.
//!
//! A target that is no member's key is never reached at distance `0.0`.
//! The walk keeps hopping until its row holds no strictly closer
//! contact — at the goal, the global minimiser, that is certain — or
//! its hop budget runs out, and only then does it ask whether it stands
//! at the goal, through [`Placement::nearest_bracketed`] over
//! `[cur, cur + 1]`. That call verifies its bracket and falls back to
//! the full search, so it always equals `nearest`. A member target thus
//! costs no search at all, and any other target trades the search for
//! one extra row scan at the goal.
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
/// mmap-arena tables (recorded in CHANGES.md) saw throughput rise
/// steeply to K = 8 and stay near-flat through K = 16–32 (the line-fill
/// buffers are saturated), and 8 keeps the per-walk state well inside
/// L1 — so 8 is the tuned default. That sweep predates the Open stage
/// and the goal-free arrival rule (module docs); re-checked after them
/// in four alternating pairs on `route_static`, K = 16 read within 1 %
/// of K = 8 in every pair. Its cost today is
/// `overlay.interleaved.ns_per_hop` in `BENCHMARK.json`.
pub const DEFAULT_INTERLEAVE: usize = 8;

/// Hard cap on the interleave width: beyond this the per-walk state no
/// longer fits the L1 working set and wider pipelines only add misses.
const MAX_INTERLEAVE: usize = 64;

/// Stage of one in-flight walk (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// `keys[from]` and `offsets[from..from+2]` prefetched; compute the
    /// start distance, then retire or do FetchRow's work.
    Open,
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
    target: Key,
    /// Distance of `cur` to the target once Open has run — then carried
    /// from the winning lane's distance, bit-equal to recomputing it
    /// from `cur`'s key.
    cur_d: f64,
    hops: u32,
    /// Row bounds of `cur` once `FetchRow` has run.
    row: (usize, usize),
    stage: Stage,
    /// Visited peers, when the options ask for the path.
    path: Vec<NodeId>,
}

/// Routes a batch of independent greedy lookups through the interleaved
/// kernel, keeping up to `width` walks in flight (clamped to
/// `1..=64`). Results come back in input order and are
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
    // Hoist the flat arrays once — the round loop indexes raw slices
    // with zero backend dispatch. `keys` gives each walk's start
    // distance, and the debug-build checks of every hop against the
    // slice reference.
    let metric = placement.topology();
    let keys = placement.keys();
    let store = table.store();
    let offsets = store.offsets();
    let edges = store.edges();
    let pos = store.edge_pos().expect("route table carries lanes");
    let width = width.clamp(1, MAX_INTERLEAVE);

    let mut results: Vec<Option<RouteResult>> = Vec::with_capacity(queries.len());
    results.resize_with(queries.len(), || None);
    let mut next_query = 0usize;
    let mut slots: Vec<Walk> = Vec::with_capacity(width);

    // Starts the walk for query `q` in the Open stage, its source's key
    // and offset pair prefetched.
    let start = |q: usize| -> Walk {
        let (from, target) = queries[q];
        prefetch_read(&keys[from as usize]);
        prefetch_read(&offsets[from as usize]);
        prefetch_read(&offsets[from as usize + 1]);
        let path = if opts.record_path {
            vec![from]
        } else {
            Vec::new()
        };
        Walk {
            query: q,
            from,
            cur: from,
            target,
            cur_d: f64::NAN,
            hops: 0,
            row: (0, 0),
            stage: Stage::Open,
            path,
        }
    };

    // FetchRow's work: load `cur`'s offset pair, prefetch its row.
    let fetch_row = |w: &mut Walk| {
        let a = offsets[w.cur as usize] as usize;
        let b = offsets[w.cur as usize + 1] as usize;
        w.row = (a, b);
        prefetch_span(&edges[a..b]);
        prefetch_span(&pos[a..b]);
        w.stage = Stage::Scan;
    };

    // The result of a walk that stops at `w.cur`, `w.cur_d` away from
    // its target. Only a walk stopped away from its target asks for the
    // goal (module docs); `[cur, cur + 1]` brackets it whenever it is
    // `cur`.
    let close = |w: &mut Walk| -> RouteResult {
        let cur = w.cur as usize;
        let success =
            w.cur_d == 0.0 || placement.nearest_bracketed(w.target, cur, cur + 1) == w.cur;
        let path = std::mem::take(&mut w.path);
        finish_route(success, w.hops, path, w.from, w.cur, opts)
    };

    // Prime the pipeline.
    while slots.len() < width && next_query < queries.len() {
        slots.push(start(next_query));
        next_query += 1;
    }

    // Round loop: one stage per walk per round. Any schedule computes
    // the same per-walk answers; rounds only shape the prefetch overlap.
    while !slots.is_empty() {
        let mut i = 0;
        while i < slots.len() {
            let w = &mut slots[i];
            let finished: Option<RouteResult> = match w.stage {
                Stage::Open => {
                    w.cur_d = metric.distance(keys[w.from as usize], w.target);
                    // The reference route spends its budget before each
                    // hop, so a zero budget ends the walk at its source.
                    if w.cur_d == 0.0 || opts.max_hops == 0 {
                        Some(close(w))
                    } else {
                        fetch_row(w);
                        None
                    }
                }
                Stage::FetchRow => {
                    fetch_row(w);
                    None
                }
                Stage::Scan => {
                    debug_assert_eq!(
                        w.cur_d.to_bits(),
                        metric.distance(keys[w.cur as usize], w.target).to_bits(),
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
                            ids.iter().map(|&v| (v, keys[v as usize])),
                        ),
                        "chunked scan must agree with the slice reference at node {}",
                        w.cur
                    );
                    match step {
                        // Local minimum short of exact arrival.
                        None => Some(close(w)),
                        Some((next, d)) => {
                            w.cur = next;
                            w.cur_d = d;
                            w.hops += 1;
                            if opts.record_path {
                                w.path.push(next);
                            }
                            if d == 0.0 || w.hops >= opts.max_hops {
                                Some(close(w))
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
                    if next_query < queries.len() {
                        slots[i] = start(next_query);
                        next_query += 1;
                        i += 1;
                    } else {
                        slots.swap_remove(i);
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

    /// A member target is reached exactly when the walk stands at
    /// distance `0.0`, so the simulator's measurement probe — walk until
    /// arrival, a local minimum or the budget, a loop of
    /// [`RouteTable::step`] — is a plain batch route. A thinned table
    /// makes local minima common.
    #[test]
    fn probe_matches_scalar_walk() {
        let (o, _) = symphony(512, 13);
        let pl = o.placement();
        let thinned = o
            .topology()
            .filter_edges(|u, v| (u ^ v.rotate_left(16)) % 3 != 0);
        let table = RouteTable::build(thinned, |v| pl.key(v).get());
        let mut rng = Rng::new(17);
        let queries = survey_queries(pl, 400, TargetModel::MemberKeys, &mut rng);
        let opts = RouteOptions {
            max_hops: 20,
            record_path: false,
        };
        let scalar: Vec<RouteResult> = queries
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
                    if hops >= opts.max_hops {
                        break;
                    }
                }
                let success = pl.key(cur) == target;
                finish_route(success, hops, Vec::new(), from, cur, &opts)
            })
            .collect();
        assert!(scalar.iter().any(|r| !r.success), "no walk stopped short");
        for width in [1, 4, 8, 32] {
            let got = route_interleaved(pl, &table, &queries, &opts, width);
            assert_eq!(got, scalar, "width={width}");
        }
    }
}
