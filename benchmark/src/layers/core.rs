//! core: the harmonic link sampler (`peers_per_s` on `build_skew`), the
//! builder and the reopen as wholes, and the paper's own claim —
//! Theorem 2: hops do not depend on the key skew.

use super::SetupMedians;
use crate::pipeline::{self, Cycle, Keys};
use crate::workloads::{put_all, Metrics};
use std::hint::black_box;
use std::time::Instant;
use sw_core::links::LinkSelector;
use sw_core::{MassThreshold, OutDegree};
use sw_keyspace::Rng;
use sw_overlay::Overlay;

/// Peers whose links the sampler timing draws.
const SAMPLED_PEERS: usize = 20_000;

/// (ns per link, links per peer) of `sample_links_into` over a stride
/// of the overlay's own placement.
fn sample_links(cycle: &Cycle, keys: Keys, rng: &mut Rng) -> (f64, f64) {
    let placement = cycle.net.placement();
    let n = placement.len();
    let dist = keys.dist();
    let config = pipeline::config();
    let selector = LinkSelector::new(
        placement,
        dist.as_ref(),
        MassThreshold::OneOverN.min_mass(n),
        config.sampler,
    );
    let budget = OutDegree::Log2N.links_for(n);
    let peers = SAMPLED_PEERS.min(n);
    let stride = n / peers;
    let seed = rng.next_u64();
    let mut out = Vec::new();
    let mut links = 0usize;
    let t0 = Instant::now();
    for i in 0..peers {
        let u = (i * stride) as u32;
        selector.sample_links_into(u, budget, &mut Rng::stream(seed, u64::from(u)), &mut out);
        links += black_box(&out).len();
    }
    let secs = t0.elapsed().as_secs_f64();
    (secs * 1e9 / links as f64, links as f64 / peers as f64)
}

pub fn measure(
    pareto: &Cycle,
    uniform: &Cycle,
    setup: &SetupMedians,
    (uniform_build_s, uniform_open_s): (f64, f64),
    open_children_s: f64,
    rng: &mut Rng,
    layer: &mut Metrics,
) {
    let (pareto_ns, links_per_peer) = sample_links(pareto, Keys::Pareto, rng);
    let (uniform_ns, _) = sample_links(uniform, Keys::Uniform, rng);
    let hops = |c: &Cycle| c.probe_hops as f64 / c.probes as f64;
    put_all(
        layer,
        &[
            ("core.links.pareto.ns_per_link", pareto_ns),
            ("core.links.uniform.ns_per_link", uniform_ns),
            ("core.links.links_per_peer", links_per_peer),
            ("core.builder.uniform.build_frozen_s", uniform_build_s),
            ("core.network.uniform.open_s", uniform_open_s),
            // Derived: the reopen minus the children timed on their own (store
            // open, placement index, one cdf per peer).
            (
                "core.network.open.self_s",
                (setup.open_s - open_children_s).max(0.0),
            ),
            ("core.builder.build_frozen_s", setup.build_s),
            ("core.network.open_s", setup.open_s),
            ("core.hops_skew_ratio", hops(pareto) / hops(uniform)),
        ],
    );
}
