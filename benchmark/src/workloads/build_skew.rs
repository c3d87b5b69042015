//! `build_skew` — construction is the work.
//!
//! The measured phase repeats the set-up cycle (sample Pareto keys,
//! draw harmonic links on every core, fill the arena image in place,
//! reopen it validated, route one probe batch) from the same seed into
//! fresh directories, deleting each image before the next build.
//! keyspace, the core sampler and the graph writer do nearly all of it;
//! the routing kernel sees one cold batch per build and the simulator
//! nothing, so a kernel or engine gain predicts no change here.

use super::{Alternating, Measured, Opts, Ready};
use crate::pipeline::{self, Keys, Scratch};
use crate::trace::Tracer;
use std::time::Instant;

/// Builds measured however short `--seconds` is.
const MIN_SLICES: usize = 3;

pub fn measure(
    opts: &Opts,
    ready: &Ready,
    scratch: &mut Scratch,
    tr: &mut Tracer,
) -> Result<Measured, String> {
    let n = ready.cycle.net.len();
    let mut m = Measured::default();
    let mut open_s = Vec::new();
    let mut alt = Alternating::default();
    let (mut probes, mut probe_failed) = (0u64, 0u64);
    let started = Instant::now();
    let mut slice = 0usize;
    while slice < MIN_SLICES || started.elapsed().as_secs_f64() < opts.seconds {
        let on = Alternating::arm(tr, opts.trace, slice);
        let dir = scratch.fresh();
        // Every slice repeats the set-up seed, so every slice does the
        // same work (and routes the probes set-up routed). The first
        // image is compared with the one set-up built: same seed, same
        // bytes.
        let cycle = pipeline::cycle(tr, Keys::Pareto, n, opts.seed, &dir, opts.probes())?;
        if slice == 0 && Some(pipeline::image_digest(&dir)?) != ready.digest {
            return Err("two builds from one seed froze different bytes".to_string());
        }
        m.work.push(n as f64);
        m.work_secs.push(cycle.build_s);
        open_s.push(cycle.open_s);
        alt.push(on, n as f64 / cycle.build_s);
        probes += cycle.probes;
        probe_failed += cycle.probe_failed;
        drop(cycle);
        scratch.remove(&dir);
        slice += 1;
    }
    tr.set_enabled(opts.trace);
    m.checks.push("same_seed_images_byte_identical");
    if probe_failed > 0 {
        return Err(format!("{probe_failed} of {probes} probes failed"));
    }
    m.hops_mean = ready.cycle.probe_hops as f64 / ready.cycle.probes as f64;
    m.sim_lookup_mean_ms = m.hops_mean * super::modelled_hop_ms();
    m.ops = probes;
    m.ops_ok = probes - probe_failed;
    // One build and one validated open per slice, plus every probe.
    m.attempted = 2 * slice as u64 + probes;
    m.failed = probe_failed;
    m.overhead_share = alt.overhead_share();
    m.samples.insert("open_s", open_s);
    Ok(m)
}
