//! Per-layer measurements of the traced run, one module per crate.
//!
//! Layers are measured from outside: micro-timings call the same public
//! functions the headline path goes through, on the workload's own
//! overlay, and the span totals of the traced workload supply the rest.
//! A layer a workload never enters reports 0 for its engine-level
//! metrics (the simulator on `build_skew` and `route_static`).
//!
//! Every entry point named here is one the ROADMAP does not plan to
//! delete; the one `ShardedSimulator` comparison lives alone in
//! [`sharded`].

pub mod core;
pub mod dht;
pub mod graph;
pub mod keyspace;
pub mod overlay;
pub mod sharded;
pub mod sim;

use crate::pipeline::{self, stream, Keys, Scratch};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Measured, Opts, Ready, Workload};
use std::time::Instant;
use sw_keyspace::Rng;

/// Median nanoseconds per call of `f` over three rounds of `iters`
/// calls; `f` gets the call index and must `black_box` what it
/// computes.
pub fn ns_per_op(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut rounds = [0.0f64; 3];
    for round in &mut rounds {
        let t0 = Instant::now();
        for i in 0..iters {
            f(i);
        }
        *round = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    }
    median(&rounds)
}

/// Median seconds of three calls of `f`.
pub fn secs_of_three<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut rounds = [0.0f64; 3];
    for round in &mut rounds {
        let t0 = Instant::now();
        std::hint::black_box(f());
        *round = t0.elapsed().as_secs_f64();
    }
    median(&rounds)
}

/// A fixed arithmetic spin, timed: a reading well above its neighbours
/// flags a run that shared its cores.
pub fn spin_ns_per_iter() -> f64 {
    const ITERS: u64 = 200_000_000;
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..ITERS {
        x = std::hint::black_box(x.rotate_left(7) ^ i).wrapping_mul(0x100_0000_01b3);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e9 / ITERS as f64
}

/// Medians the layer metrics quote: of the set-up repetitions, or of
/// the measured builds and reopens on `build_skew`.
pub struct SetupMedians {
    pub build_s: f64,
    pub open_s: f64,
    pub boot_s: f64,
}

/// Everything the traced run measures beyond the workload itself.
pub fn traced_extras(
    w: Workload,
    opts: &Opts,
    ready: &mut Ready,
    scratch: &mut Scratch,
    tr: &mut Tracer,
    setup: &SetupMedians,
    m: &mut Measured,
) -> Result<(), String> {
    let hops_mean = m.hops_mean;
    let layer = &mut m.layer;
    let mut rng = Rng::stream(opts.seed, stream::MICRO);
    let n = ready.cycle.net.len();

    let cdf_ns = keyspace::measure(&mut rng, layer);
    graph::measure(&ready.dir, scratch, &mut rng, layer)?;
    let from_keys_s = overlay::measure(opts, &ready.cycle.net, scratch, &mut rng, tr, layer)?;
    dht::measure(&mut rng, layer);
    let plane_ns = sim::micro(&mut rng, layer);

    // The uniform twin: same n, same seed, same probes.
    let twin_dir = scratch.fresh();
    let mut twin_build = Vec::new();
    let mut twin_open = Vec::new();
    let mut twin = None;
    for _ in 0..2 {
        drop(twin.take());
        scratch.remove(&twin_dir);
        let c = pipeline::cycle(tr, Keys::Uniform, n, opts.seed, &twin_dir, opts.probes())?;
        twin_build.push(c.build_s);
        twin_open.push(c.open_s);
        twin = Some(c);
    }
    let twin = twin.expect("two twin cycles ran");
    core::measure(
        &ready.cycle,
        &twin,
        setup,
        (median(&twin_build), median(&twin_open)),
        from_keys_s + n as f64 * cdf_ns * 1e-9 + layer["graph.store.open_s"],
        &mut rng,
        layer,
    );
    drop(twin);
    scratch.remove(&twin_dir);

    sim::engine(w, opts, ready, setup.boot_s, plane_ns, hops_mean, layer)?;
    sharded::measure(w, opts, layer);
    Ok(())
}
