//! overlay: the placement index and the routing kernels. The batched
//! kernel sets `lookups_per_s` on `route_static` (10⁹ / (`hops_mean` ×
//! `route_batch.ns_per_hop`)); the other kernels are the same walk done
//! other ways, and `step` is the one hop the simulator takes per
//! message (`events_per_s` on `traffic_zipf`).

use super::{ns_per_op, secs_of_three};
use crate::pipeline::{self, Keys, Scratch, BATCH};
use crate::stats::{median, nearest_rank};
use crate::trace::Tracer;
use crate::workloads::route_static::{batch_loop, LoopPlan};
use crate::workloads::{put_all, Metrics, Opts};
use std::hint::black_box;
use std::time::Instant;
use sw_core::SmallWorldNetwork;
use sw_keyspace::Rng;
use sw_overlay::route::route_batch;
use sw_overlay::{greedy_route, route_interleaved, Overlay, Placement, DEFAULT_INTERLEAVE};

/// Batches behind `route_batch.ns_per_hop`; a hundred leave ten beyond
/// the p90.
const KERNEL_BATCHES: usize = 100;
/// Peers of the cache-resident twin.
const RESIDENT_PEERS: usize = 20_000;

/// Fills the overlay metrics; returns `overlay.placement.from_keys_s`.
pub fn measure(
    opts: &Opts,
    net: &SmallWorldNetwork,
    scratch: &mut Scratch,
    rng: &mut Rng,
    tr: &mut Tracer,
    layer: &mut Metrics,
) -> Result<f64, String> {
    let n = net.len();
    let placement = net.placement();
    let metric = placement.topology();
    let route_opts = pipeline::route_opts(n);
    let (batch, batches) = if opts.smoke {
        (1_024, 20)
    } else {
        (BATCH, KERNEL_BATCHES)
    };

    // Three copies up front: the copy is not part of the index build.
    let mut copies = vec![placement.keys().to_vec(); 3];
    let from_keys_s = secs_of_three(|| {
        let keys = copies.pop().expect("one copy per round");
        Placement::from_keys(keys, metric, "bench").expect("keys of a placement")
    });
    let targets = pipeline::queries(net, 65_536, rng);
    let at = |i: usize| targets[i & 65_535];
    let nearest_ns = ns_per_op(200_000, |i| {
        black_box(placement.nearest(at(i).1));
    });
    let table = net.route_table();
    let step_ns = ns_per_op(200_000, |i| {
        let (u, target) = at(i);
        let cur_d = placement.distance_to(u, target);
        black_box(table.step(metric, u, target, cur_d));
    });

    // The batched kernel, one thread, as `route_static` drives it.
    let plan = |warm, min_batches| LoopPlan {
        batch,
        warm,
        min_batches,
        seconds: 0.0,
        tracing: false,
    };
    let b = batch_loop(net, rng, &plan(4, batches), tr);
    let ns_per_hop = median(&b.secs) * 1e9 * b.secs.len() as f64 / b.hops as f64;
    let mut sorted = b.secs.clone();
    sorted.sort_by(|x, y| x.partial_cmp(y).expect("durations are finite"));
    let batch_p90_ms = nearest_rank(&sorted, 0.90) * 1e3;

    // The same walks through the other kernels, one batch each way.
    let queries = pipeline::queries(net, batch, rng);
    let hops_of = |results: &[sw_overlay::RouteResult]| pipeline::tally(results).0 as f64;
    let topo = net.topology(); // materialises the heap CSR once, untimed
    let t0 = Instant::now();
    let reference: Vec<_> = queries
        .iter()
        .map(|&(from, target)| greedy_route(placement, topo, from, target, &route_opts))
        .collect();
    let reference_ns = t0.elapsed().as_secs_f64() * 1e9 / hops_of(&reference);
    let t0 = Instant::now();
    let single: Vec<_> = queries
        .iter()
        .map(|&(from, target)| net.route(from, target, &route_opts))
        .collect();
    let single_ns = t0.elapsed().as_secs_f64() * 1e9 / hops_of(&single);
    let t0 = Instant::now();
    let interleaved =
        route_interleaved(placement, table, &queries, &route_opts, DEFAULT_INTERLEAVE);
    let interleaved_ns = t0.elapsed().as_secs_f64() * 1e9 / hops_of(&interleaved);
    if reference != single || reference != interleaved {
        return Err("the routing kernels disagree on one batch".to_string());
    }
    let allcores: Vec<f64> = (0..8)
        .map(|_| {
            let queries = pipeline::queries(net, batch, rng);
            let t0 = Instant::now();
            black_box(route_batch(net, &queries, &route_opts, 0));
            batch as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();

    // A table that fits the private cache: a memory-parallelism gain
    // predicts no change here.
    let resident_n = RESIDENT_PEERS.min(n);
    let dir = scratch.fresh();
    let small = pipeline::cycle(tr, Keys::Pareto, resident_n, opts.seed, &dir, 1_024)?;
    let r = batch_loop(&small.net, rng, &plan(2, 16), tr);
    let resident_ns = median(&r.secs) * 1e9 * r.secs.len() as f64 / r.hops as f64;
    drop(small);
    scratch.remove(&dir);

    put_all(
        layer,
        &[
            ("overlay.placement.from_keys_s", from_keys_s),
            ("overlay.placement.nearest_ns", nearest_ns),
            ("overlay.step.ns", step_ns),
            ("overlay.route_batch.ns_per_hop", ns_per_hop),
            ("overlay.route_batch.batch_p90_ms", batch_p90_ms),
            ("overlay.reference.ns_per_hop", reference_ns),
            ("overlay.route_single.ns_per_hop", single_ns),
            ("overlay.interleaved.ns_per_hop", interleaved_ns),
            (
                "overlay.route_batch.allcores_lookups_per_s",
                median(&allcores),
            ),
            ("overlay.route_batch.resident_ns_per_hop", resident_ns),
        ],
    );
    Ok(from_keys_s)
}
