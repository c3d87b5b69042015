//! Property-based equivalence of the interleaved AMAC routing kernel:
//! for any overlay (including views filtered by dead peers and lost
//! links), any workload shape, any interleave width and any
//! worker-thread count, the batched kernels return exactly the
//! `RouteResult` sequence a sequential `greedy_route` loop returns —
//! bit for bit, including failure tails
//! (hop budgets, local minima) and the in-place refill path when the
//! batch drains unevenly — over ring and interval placements alike.

use proptest::prelude::*;
use sw_graph::{LinkTable, NodeId};
use sw_keyspace::distribution::{TruncatedPareto, Uniform};
use sw_keyspace::{Key, Rng, Topology};
use sw_overlay::pgrid::{PGridLike, SplitPolicy};
use sw_overlay::route::{route_batch, RouteOptions, RouteResult};
use sw_overlay::symphony::Symphony;
use sw_overlay::{greedy_route, route_interleaved, Overlay, Placement, RouteTable};

/// A workload mixing the shapes that stress the retire/refill machinery:
/// ordinary member lookups, self-routes (retire at start, before ever
/// entering the pipeline), and non-member targets.
fn mixed_workload(p: &Placement, len: usize, rng: &mut Rng) -> Vec<(NodeId, Key)> {
    let n = p.len();
    (0..len)
        .map(|_| {
            let from = rng.index(n) as NodeId;
            match rng.index(4) {
                0 => (from, p.key(from)),             // immediate success
                1 => (from, Key::clamped(rng.f64())), // arbitrary point
                _ => (from, p.key(rng.index(n) as NodeId)),
            }
        })
        .collect()
}

/// A healthy overlay over `p`: Symphony with `k` long links per peer on
/// the ring, where Symphony lives, and P-Grid with `k` references per
/// trie level on the interval.
fn small_world(p: Placement, k: usize, rng: &mut Rng) -> Box<dyn Overlay> {
    match p.topology() {
        Topology::Ring => Box::new(Symphony::build(p, k, true, rng)),
        Topology::Interval => Box::new(PGridLike::build(p, SplitPolicy::Median, k, rng)),
    }
}

fn reference_loop(
    p: &Placement,
    topo: &sw_graph::Topology,
    workload: &[(NodeId, Key)],
    opts: &RouteOptions,
) -> Vec<RouteResult> {
    workload
        .iter()
        .map(|&(from, t)| greedy_route(p, topo, from, t, opts))
        .collect()
}

/// Overlay wrapper whose `route_chunk` goes through the interleaved
/// kernel at a chosen width — what a table-backed network does for
/// every chunk — so `route_batch` exercises it across thread counts.
struct InterleavedOverlay<'a> {
    inner: &'a Symphony,
    table: &'a RouteTable,
    width: usize,
}

impl Overlay for InterleavedOverlay<'_> {
    fn name(&self) -> String {
        format!("{}+interleaved", self.inner.name())
    }
    fn placement(&self) -> &Placement {
        self.inner.placement()
    }
    fn topology(&self) -> &sw_graph::Topology {
        self.inner.topology()
    }
    fn route_chunk(&self, queries: &[(NodeId, Key)], opts: &RouteOptions) -> Vec<RouteResult> {
        route_interleaved(self.placement(), self.table, queries, opts, self.width)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract: `route_interleaved` is bit-identical to a
    /// looped `greedy_route` for any workload, any width, any hop
    /// budget, with and without recorded paths — on healthy overlays
    /// over uniform and Pareto placements, on the ring and the interval.
    #[test]
    fn interleaved_matches_reference_loop(
        seed in any::<u64>(),
        n in 24usize..256,
        k in 1usize..5,
        len in 0usize..200,
        width in 1usize..80,
        budget_div in 1u32..6,
        record_path in any::<bool>(),
        pareto in any::<bool>(),
        ring in any::<bool>(),
    ) {
        let mut rng = Rng::new(seed);
        let topology = if ring { Topology::Ring } else { Topology::Interval };
        let p = if pareto {
            Placement::sample(n, &TruncatedPareto::new(1.5, 0.02).unwrap(), topology, &mut rng)
        } else {
            Placement::sample(n, &Uniform, topology, &mut rng)
        };
        let o = small_world(p.clone(), k, &mut rng);
        let table = RouteTable::build(o.topology().clone(), |v| p.key(v).get());
        let workload = mixed_workload(&p, len, &mut rng);
        // budget_div > 1 shrinks the budget enough that some walks die
        // on max_hops — the failure tail must match too (budget 0
        // exercises the retire-at-start path).
        let max_hops = RouteOptions::for_n(n).max_hops / budget_div - (budget_div - 1) / 4;
        let opts = RouteOptions { max_hops, record_path };
        let want = reference_loop(&p, o.topology(), &workload, &opts);
        let got = route_interleaved(&p, &table, &workload, &opts, width);
        prop_assert_eq!(got, want);
    }

    /// Same contract over *degraded* views — killed peers and dropped
    /// long links produce local minima and unreachable goals, so the
    /// kernel's failure retirements and the uneven tail drain (most
    /// walks die early, a few run long) are exercised hard.
    #[test]
    fn interleaved_matches_reference_on_degraded_views(
        seed in any::<u64>(),
        n in 32usize..128,
        kill in 0.0f64..0.5,
        drop in 0.0f64..1.0,
        width in 1usize..40,
        ring in any::<bool>(),
    ) {
        let mut rng = Rng::new(seed);
        let topology = if ring { Topology::Ring } else { Topology::Interval };
        let p = Placement::sample(n, &Uniform, topology, &mut rng);
        let o = small_world(p.clone(), 3, &mut rng);
        // Dead peers lose every edge in or out; a surviving edge that is
        // not a topology-neighbour edge is a long link, dropped with
        // probability `drop`.
        let mut dead = vec![false; n];
        for u in rng.sample_distinct(n, (n as f64 * kill).round() as usize) {
            dead[u] = true;
        }
        let topo = o.topology().filter_edges(|u, v| {
            !dead[u as usize]
                && !dead[v as usize]
                && (p.topology_neighbors(u).any(|w| w == v) || !rng.chance(drop))
        });
        let alive: Vec<NodeId> = (0..n as NodeId).filter(|&u| !dead[u as usize]).collect();
        let table = RouteTable::build(topo.clone(), |v| p.key(v).get());
        let workload: Vec<(NodeId, Key)> = (0..120)
            .map(|_| {
                let from = alive[rng.index(alive.len())];
                (from, p.key(alive[rng.index(alive.len())]))
            })
            .collect();
        let opts = RouteOptions { max_hops: n as u32, record_path: true };
        let want = reference_loop(&p, &topo, &workload, &opts);
        let got = route_interleaved(&p, &table, &workload, &opts, width);
        prop_assert_eq!(got, want);
    }

    /// `route_batch` through an interleaving `route_chunk` override is
    /// bit-identical to the sequential loop for every thread count —
    /// chunk boundaries and per-chunk pipelines don't leak into results.
    #[test]
    fn route_batch_interleaved_matches_for_any_thread_count(
        seed in any::<u64>(),
        n in 48usize..160,
        len in 1usize..300,
        width in 1usize..24,
        threads in 1usize..7,
    ) {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        let o = Symphony::build(p.clone(), 4, true, &mut rng);
        let table = RouteTable::build(o.topology().clone(), |v| p.key(v).get());
        let workload = mixed_workload(&p, len, &mut rng);
        let opts = RouteOptions { record_path: false, ..RouteOptions::for_n(n) };
        let want = reference_loop(&p, o.topology(), &workload, &opts);
        let wrapped = InterleavedOverlay { inner: &o, table: &table, width };
        let got = route_batch(&wrapped, &workload, &opts, threads);
        prop_assert_eq!(got, want);
    }
}

/// Deterministic stress of the uneven-drain tail: widths far beyond the
/// workload, workloads that retire almost entirely at refill time, and a
/// lone long walk finishing after the pipeline has narrowed to width 1.
#[test]
fn uneven_drain_tails_match_reference() {
    let mut rng = Rng::new(99);
    let p = Placement::sample(200, &Uniform, Topology::Ring, &mut rng);
    let o = Symphony::build(p.clone(), 2, true, &mut rng);
    let table = RouteTable::build(o.topology().clone(), |v| p.key(v).get());
    let opts = RouteOptions::for_n(200);
    // 39 immediate self-routes + one real route at the end: every slot
    // but one retires during refill, then a single walk drains alone.
    let mut workload: Vec<(NodeId, Key)> = (0..39u32).map(|i| (i % 200, p.key(i % 200))).collect();
    workload.push((0, p.key(137)));
    let want = reference_loop(&p, o.topology(), &workload, &opts);
    for width in [1, 2, 8, 39, 40, 64, usize::MAX] {
        let got = route_interleaved(&p, &table, &workload, &opts, width);
        assert_eq!(got, want, "width={width}");
    }
}

/// A chain of peers with only topology-neighbour links (ring or
/// interval) over `keys` — every walk's hops are predictable by hand.
fn neighbour_chain(keys: &[f64], topology: Topology) -> (Placement, RouteTable) {
    let keys = keys.iter().map(|&k| Key::new(k).unwrap()).collect();
    let p = Placement::from_keys(keys, topology, "chain").unwrap();
    let mut lt = LinkTable::new(p.len());
    for u in 0..p.len() as NodeId {
        lt.add_all(u, p.topology_neighbors(u));
    }
    let table = RouteTable::build(lt.build(), |v| p.key(v).get());
    (p, table)
}

/// Routes `workload` through the kernel at several widths and both
/// path settings, asserting each equals the reference loop; returns the
/// path-recording reference for the caller's own checks.
fn assert_matches_reference(
    p: &Placement,
    table: &RouteTable,
    workload: &[(NodeId, Key)],
    max_hops: u32,
) -> Vec<RouteResult> {
    let mut recorded = Vec::new();
    for record_path in [false, true] {
        let opts = RouteOptions {
            max_hops,
            record_path,
        };
        let want = reference_loop(p, table.store(), workload, &opts);
        for width in [1, 3, 8] {
            let got = route_interleaved(p, table, workload, &opts, width);
            assert_eq!(
                got,
                want,
                "{:?} width={width} record_path={record_path}",
                p.topology()
            );
        }
        recorded = want;
    }
    recorded
}

/// The arrival rule's corner cases on both topologies: the kernel sees
/// arrival at distance `0.0` and asks for the goal only when a walk
/// stops short of it, so every way a walk can stop near a goal that is
/// *not* at distance `0.0` is pinned against `greedy_route` here.
#[test]
fn arrival_corners_match_reference() {
    for topology in [Topology::Ring, Topology::Interval] {
        // A target exactly midway between two adjacent keys: the tie
        // goes to the lower id, so a walk reaching the higher one stops
        // there and fails, exactly as the reference does.
        let (p, table) = neighbour_chain(&[0.125, 0.25, 0.75, 0.875], topology);
        let mid = Key::new(0.5).unwrap();
        assert_eq!(p.nearest(mid), 1);
        let workload: Vec<(NodeId, Key)> = (0..4).map(|from| (from, mid)).collect();
        let got = assert_matches_reference(&p, &table, &workload, 8);
        assert!(got[1].success && got[0].success);
        assert!(!got[2].success && !got[3].success);
        assert_eq!(got[3].path, vec![3, 2]);

        // A budget that runs out exactly on the goal of a non-member
        // target succeeds; one hop less fails. A zero budget succeeds
        // only from that goal itself.
        let (p, table) = neighbour_chain(
            &(0..16).map(|i| i as f64 / 16.0).collect::<Vec<_>>(),
            topology,
        );
        let t = Key::new(5.0 / 16.0 + 0.01).unwrap();
        assert_eq!(p.nearest(t), 5);
        let exact = assert_matches_reference(&p, &table, &[(0, t)], 5);
        assert!(exact[0].success && exact[0].hops == 5);
        let short = assert_matches_reference(&p, &table, &[(0, t)], 4);
        assert!(!short[0].success && short[0].hops == 4);
        let zero = assert_matches_reference(&p, &table, &[(5, t), (4, t), (0, t)], 0);
        assert!(zero[0].success && zero[0].hops == 0);
        assert!(!zero[1].success && !zero[2].success);
    }

    // The key space's ends on the ring. In each placement one of the two
    // targets has its goal across the wrap from its insertion point, so
    // the `[cur, cur + 1]` bracket fails its check and the full search
    // decides; for the other the bracket holds.
    for (keys, goal) in [(&[0.01, 0.4, 0.7][..], 0), (&[0.3, 0.6, 0.99][..], 2)] {
        let (p, table) = neighbour_chain(keys, Topology::Ring);
        for t in [Key::MIN, Key::MAX] {
            assert_eq!(p.nearest(t), goal);
            let workload: Vec<(NodeId, Key)> = (0..3).map(|from| (from, t)).collect();
            for max_hops in [0, 1, 8] {
                let got = assert_matches_reference(&p, &table, &workload, max_hops);
                assert!(got[goal as usize].success);
            }
        }
    }
    let mut rng = Rng::new(5);
    let p = Placement::sample(96, &Uniform, Topology::Ring, &mut rng);
    let o = Symphony::build(p.clone(), 3, true, &mut rng);
    let table = RouteTable::build(o.topology().clone(), |v| p.key(v).get());
    let workload: Vec<(NodeId, Key)> = (0..96)
        .flat_map(|from| [(from, Key::MIN), (from, Key::MAX)])
        .collect();
    let got = assert_matches_reference(&p, &table, &workload, 64);
    assert!(got.iter().all(|r| r.success));
}
