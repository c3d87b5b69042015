//! Property-based equivalence of the interleaved AMAC routing kernel:
//! for any overlay (including degraded/filtered views), any workload
//! shape, any interleave width and any worker-thread count, the batched
//! kernels return exactly the `RouteResult` sequence a sequential
//! `greedy_route` loop returns — bit for bit, including failure tails
//! (hop budgets, local minima) and the in-place refill path when the
//! batch drains unevenly.

use proptest::prelude::*;
use sw_graph::NodeId;
use sw_keyspace::distribution::{TruncatedPareto, Uniform};
use sw_keyspace::{Key, Rng, Topology};
use sw_overlay::route::{route_batch, RouteOptions, RouteResult};
use sw_overlay::symphony::Symphony;
use sw_overlay::{
    greedy_route, probe_interleaved, route_interleaved, Overlay, Placement, ProbeOutcome,
    RouteTable,
};

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
    /// over both uniform and Pareto placements.
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
    ) {
        let mut rng = Rng::new(seed);
        let p = if pareto {
            Placement::sample(n, &TruncatedPareto::new(1.5, 0.02).unwrap(), Topology::Ring, &mut rng)
        } else {
            Placement::sample(n, &Uniform, Topology::Ring, &mut rng)
        };
        let o = Symphony::build(p.clone(), k, true, &mut rng);
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
    ) {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        let o = Symphony::build(p.clone(), 3, true, &mut rng);
        let d = sw_overlay::degraded::DegradedOverlay::new(&o)
            .kill_random(kill, &mut rng)
            .drop_long_links(drop, &mut rng);
        let table = RouteTable::build(d.topology().clone(), |v| p.key(v).get());
        let workload: Vec<(NodeId, Key)> = (0..120)
            .map(|_| (d.random_alive(&mut rng), p.key(d.random_alive(&mut rng))))
            .collect();
        let opts = RouteOptions { max_hops: n as u32, record_path: true };
        let want = reference_loop(&p, d.topology(), &workload, &opts);
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

    /// The probe twin: `probe_interleaved` matches the scalar
    /// walk-until-{arrival, local minimum, budget} loop for any width,
    /// including zero-distance starts and filtered (degraded) tables.
    #[test]
    fn probe_interleaved_matches_scalar_walk(
        seed in any::<u64>(),
        n in 32usize..128,
        drop in 0.0f64..0.8,
        width in 1usize..40,
        max_hops in 0u32..40,
    ) {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        let o = Symphony::build(p.clone(), 3, true, &mut rng);
        // A filtered topology stands in for the simulator's alive-only
        // snapshot: local minima become common.
        let filtered = o.topology().filter_edges(|u, v| {
            let h = (u ^ v.rotate_left(16)).wrapping_mul(2654435761) % 1000;
            (h as f64 / 1000.0) >= drop
        });
        let table = RouteTable::build(filtered, |v| p.key(v).get());
        let workload: Vec<(NodeId, Key)> = (0..100)
            .map(|_| {
                let from = rng.index(n) as NodeId;
                match rng.index(3) {
                    0 => (from, p.key(from)), // d == 0 at the start
                    _ => (from, p.key(rng.index(n) as NodeId)),
                }
            })
            .collect();
        let key_of = |v: NodeId| p.key(v);
        let want: Vec<ProbeOutcome> = workload
            .iter()
            .map(|&(from, target)| {
                let mut cur = from;
                let mut hops = 0u32;
                loop {
                    let d = Topology::Ring.distance(key_of(cur), target);
                    if d == 0.0 {
                        break;
                    }
                    let Some((next, _)) = table.step(Topology::Ring, cur, target, d) else {
                        break;
                    };
                    hops += 1;
                    cur = next;
                    if hops >= max_hops {
                        break;
                    }
                }
                ProbeOutcome { final_node: cur, hops }
            })
            .collect();
        let got = probe_interleaved(&table, Topology::Ring, &workload, max_hops, width, key_of);
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
