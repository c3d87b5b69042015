//! Per-lookup routing latency over prebuilt networks: the paper's model
//! vs the baseline DHTs, and key-space vs mass-space greedy. All systems
//! route over the same CSR contact tables, so the comparison is pure
//! algorithm cost.

use std::hint::black_box;
use sw_bench::microbench::Bencher;
use sw_core::routing::DistanceMode;
use sw_core::SmallWorldBuilder;
use sw_keyspace::distribution::{TruncatedPareto, Uniform};
use sw_keyspace::{Rng, Topology};
use sw_overlay::chord::Chord;
use sw_overlay::route::{survey_queries, RouteOptions, TargetModel};
use sw_overlay::symphony::Symphony;
use sw_overlay::{Overlay, Placement};

fn main() {
    let b = Bencher::from_args();
    let n = 4096usize;
    let mut rng = Rng::new(1);
    let sw_uniform = SmallWorldBuilder::new(n).build(&mut rng).expect("n >= 4");
    let sw_skewed = SmallWorldBuilder::new(n)
        .distribution(Box::new(TruncatedPareto::new(1.5, 0.01).expect("valid")))
        .build(&mut rng)
        .expect("n >= 4");
    let ring = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
    let chord = Chord::build(ring.clone());
    let symphony = Symphony::build(ring, 12, true, &mut rng);
    let opts = RouteOptions {
        record_path: false,
        ..RouteOptions::for_n(n)
    };
    // One shared member-lookup workload per overlay (same seed → same
    // source/rank pairs; keys differ per placement, as they must).
    let queries = 512usize;

    let systems: Vec<(&str, &dyn Overlay)> = vec![
        ("small-world-uniform", &sw_uniform),
        ("small-world-skewed", &sw_skewed),
        ("chord", &chord),
        ("symphony", &symphony),
    ];
    for (name, overlay) in systems {
        let mut wrng = Rng::new(99);
        let workload = survey_queries(
            overlay.placement(),
            queries,
            TargetModel::MemberKeys,
            &mut wrng,
        );
        b.bench_with_items(&format!("lookup/{name}/{n}"), queries as f64, || {
            let mut hops = 0u64;
            for &(from, t) in &workload {
                hops += overlay.route(from, t, &opts).hops as u64;
            }
            black_box(hops)
        });
    }

    for (name, mode) in [
        ("key-space", DistanceMode::KeySpace),
        ("mass-space", DistanceMode::MassSpace),
    ] {
        let mut wrng = Rng::new(99);
        let workload = survey_queries(
            sw_skewed.placement(),
            queries,
            TargetModel::MemberKeys,
            &mut wrng,
        );
        b.bench_with_items(&format!("lookup/skewed-{name}/{n}"), queries as f64, || {
            let mut hops = 0u64;
            for &(from, t) in &workload {
                hops += sw_skewed.route_with_mode(from, t, mode, &opts).hops as u64;
            }
            black_box(hops)
        });
    }
}
