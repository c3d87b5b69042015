//! keyspace: what one key draw and one density evaluation cost. They
//! run n times per build (`sample_key`), n times per reopen (`cdf`) and
//! once per sampled link (`quantile`), so they move `peers_per_s` and
//! `open_s` on `build_skew` and `setup_s` everywhere.

use super::ns_per_op;
use crate::pipeline::Keys;
use crate::workloads::{put, Metrics};
use std::hint::black_box;
use sw_keyspace::Rng;

const CALLS: usize = 200_000;

/// Fills the keyspace metrics; returns `keyspace.pareto.cdf_ns`.
pub fn measure(rng: &mut Rng, layer: &mut Metrics) -> f64 {
    // Through the trait object, as the builder and the reopen call it.
    let pareto = Keys::Pareto.dist();
    let uniform = Keys::Uniform.dist();
    let xs: Vec<f64> = (0..4_096).map(|_| rng.f64()).collect();
    let at = |i: usize| xs[i & 4_095];

    let sample = ns_per_op(CALLS, |_| {
        black_box(pareto.sample_key(rng));
    });
    let cdf = ns_per_op(CALLS, |i| {
        black_box(pareto.cdf(black_box(at(i))));
    });
    let quantile = ns_per_op(CALLS, |i| {
        black_box(pareto.quantile(black_box(at(i))));
    });
    let uniform_cdf = ns_per_op(CALLS, |i| {
        black_box(uniform.cdf(black_box(at(i))));
    });
    put(layer, "keyspace.pareto.sample_key_ns", sample);
    put(layer, "keyspace.pareto.cdf_ns", cdf);
    put(layer, "keyspace.pareto.quantile_ns", quantile);
    put(layer, "keyspace.uniform.cdf_ns", uniform_cdf);
    cdf
}
