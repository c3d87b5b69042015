//! `route_static` — the routing kernel over a memory-resident table is
//! the work.
//!
//! A closed loop of one caller: each batch of 16 384 member-key lookups
//! is issued through `route_batch(net, batch, opts, 1)` only after the
//! previous one returned, over the overlay set-up built, dropped and
//! reopened from its frozen image. Queries are drawn from the seed
//! outside the timed region. One thread, because single-thread rates
//! repeat about twice as tightly as two threads on two shared cores;
//! the all-cores rate is a layer metric. Construction and the simulator
//! do nothing here, so a sampler or engine gain predicts no change.

use super::{put, Alternating, Measured, Opts, Ready};
use crate::pipeline::{self, stream, BATCH};
use crate::trace::Tracer;
use std::time::Instant;
use sw_core::SmallWorldNetwork;
use sw_keyspace::{Key, Rng};
use sw_overlay::route::route_batch;
use sw_overlay::{greedy_route, Overlay, RouteResult};

/// Results kept from the head of the run for the reference comparison.
const REFERENCE_ROUTES: usize = 4_096;

/// What a timed loop of batches saw.
pub struct Batches {
    /// Seconds of every timed batch.
    pub secs: Vec<f64>,
    /// Lookups and hops of the plan's first `min_batches` timed batches
    /// only: a fixed count, so their ratio repeats exactly for a seed
    /// however many more batches the host has time for.
    pub lookups: u64,
    pub hops: u64,
    /// Failures among all timed batches.
    pub failed: u64,
    pub alt: Alternating,
    /// The first [`REFERENCE_ROUTES`] queries and their results.
    pub head: Vec<((u32, Key), RouteResult)>,
}

/// How long a loop of batches runs.
pub struct LoopPlan {
    /// Lookups per batch.
    pub batch: usize,
    /// Untimed batches first.
    pub warm: usize,
    /// Timed batches until both of these are spent.
    pub min_batches: usize,
    pub seconds: f64,
    /// Alternate traced and untraced batches.
    pub tracing: bool,
}

/// Routes the plan's warm-up batches untimed, then its timed batches.
pub fn batch_loop(
    net: &SmallWorldNetwork,
    rng: &mut Rng,
    plan: &LoopPlan,
    tr: &mut Tracer,
) -> Batches {
    let &LoopPlan {
        batch,
        warm,
        min_batches,
        seconds,
        tracing,
    } = plan;
    let opts = pipeline::route_opts(net.len());
    let mut out = Batches {
        secs: Vec::new(),
        lookups: 0,
        hops: 0,
        failed: 0,
        alt: Alternating::default(),
        head: Vec::new(),
    };
    tr.set_enabled(false);
    for _ in 0..warm {
        let queries = pipeline::queries(net, batch, rng);
        std::hint::black_box(route_batch(net, &queries, &opts, 1));
    }
    let started = Instant::now();
    let mut index = 0usize;
    while index < min_batches || started.elapsed().as_secs_f64() < seconds {
        let queries = pipeline::queries(net, batch, rng);
        let on = Alternating::arm(tr, tracing, index);
        let (results, secs) = tr.timed("overlay.route_batch", || {
            route_batch(net, &queries, &opts, 1)
        });
        let (hops, failed) = pipeline::tally(&results);
        out.secs.push(secs);
        if index < min_batches {
            out.lookups += results.len() as u64;
            out.hops += hops;
        }
        out.failed += failed;
        out.alt.push(on, results.len() as f64 / secs);
        if out.head.len() < REFERENCE_ROUTES {
            let room = REFERENCE_ROUTES - out.head.len();
            out.head.extend(queries.into_iter().zip(results).take(room));
        }
        index += 1;
    }
    tr.set_enabled(tracing);
    out
}

pub fn measure(opts: &Opts, ready: &Ready, tr: &mut Tracer) -> Result<Measured, String> {
    let net = &ready.cycle.net;
    let (batch, warm, min_batches) = if opts.smoke {
        (1_024, 2, 8)
    } else {
        (BATCH, 32, 64)
    };
    let mut rng = Rng::stream(opts.seed, stream::QUERIES);
    let plan = LoopPlan {
        batch,
        warm,
        min_batches,
        seconds: opts.seconds,
        tracing: opts.trace,
    };
    let b = batch_loop(net, &mut rng, &plan, tr);
    let routed = (b.secs.len() * batch) as u64;
    let mut m = Measured {
        work: vec![batch as f64; b.secs.len()],
        work_secs: b.secs,
        hops_mean: b.hops as f64 / b.lookups as f64,
        ops: routed,
        ops_ok: routed - b.failed,
        attempted: routed,
        failed: b.failed,
        overhead_share: b.alt.overhead_share(),
        ..Measured::default()
    };
    m.sim_lookup_mean_ms = m.hops_mean * super::modelled_hop_ms();
    put(&mut m.counts, "batch", batch as f64);
    if b.failed > 0 {
        return Err(format!("{} of {routed} lookups failed", b.failed));
    }
    m.checks.push("no_lookup_failed");
    m.head = b.head;
    Ok(m)
}

/// The first results must equal a looped `greedy_route` bit for bit.
pub fn check(_opts: &Opts, ready: &Ready, m: &mut Measured) -> Result<(), String> {
    let net = &ready.cycle.net;
    let opts = pipeline::route_opts(net.len());
    for ((from, target), got) in &m.head {
        let want = greedy_route(net.placement(), net.topology(), *from, *target, &opts);
        if &want != got {
            return Err(format!(
                "route_batch and greedy_route disagree on ({from}, {target:?}): \
                 {got:?} vs {want:?}"
            ));
        }
    }
    m.checks.push("head_equals_reference_route");
    Ok(())
}
