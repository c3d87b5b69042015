//! Property-based invariants of the paper's constructions: whatever the
//! seed, size, out-degree policy and skew, a built network must satisfy
//! the structural contract of §3/§4 and greedy routing must terminate at
//! the right peer with monotonically decreasing distance.

use proptest::prelude::*;
use sw_core::config::{LinkSampler, OutDegree};
use sw_core::partition::partition_index;
use sw_core::{theory, SmallWorldBuilder};
use sw_keyspace::distribution::KeyDistribution;
use sw_keyspace::distribution::{Kumaraswamy, TruncatedPareto, Uniform};
use sw_keyspace::Rng;
use sw_overlay::route::RouteOptions;
use sw_overlay::Overlay;

fn dist_for(choice: u8) -> Box<dyn KeyDistribution> {
    match choice % 3 {
        0 => Box::new(Uniform),
        1 => Box::new(Kumaraswamy::new(0.5, 0.5).unwrap()),
        _ => Box::new(TruncatedPareto::new(1.5, 0.02).unwrap()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every long link respects the 1/N mass threshold, links are
    /// distinct, and the out-degree never exceeds the budget.
    #[test]
    fn built_network_structural_contract(
        seed in any::<u64>(),
        n in 16usize..256,
        dist_choice in 0u8..3,
        sampler_choice in 0u8..2,
    ) {
        let sampler = if sampler_choice == 0 {
            LinkSampler::Exact
        } else {
            LinkSampler::Harmonic
        };
        let mut rng = Rng::new(seed);
        let net = SmallWorldBuilder::new(n)
            .distribution(dist_for(dist_choice))
            .sampler(sampler)
            .build(&mut rng)
            .unwrap();
        let budget = OutDegree::Log2N.links_for(n);
        for u in 0..n as u32 {
            let links = net.long_links(u);
            prop_assert!(links.len() <= budget);
            let mut seen = std::collections::HashSet::new();
            for &v in links {
                prop_assert!(v != u, "self link");
                prop_assert!(seen.insert(v), "duplicate link");
                prop_assert!(
                    net.mass_between(u, v) >= 1.0 / n as f64 - 1e-12,
                    "link below threshold"
                );
            }
        }
    }

    /// Greedy routing reaches the key-nearest peer from any source, and
    /// the distance to the target strictly decreases along the path.
    #[test]
    fn greedy_route_is_total_and_monotone(
        seed in any::<u64>(),
        n in 16usize..256,
        dist_choice in 0u8..3,
    ) {
        let mut rng = Rng::new(seed);
        let net = SmallWorldBuilder::new(n)
            .distribution(dist_for(dist_choice))
            .build(&mut rng)
            .unwrap();
        let opts = RouteOptions::for_n(n);
        for _ in 0..8 {
            let from = rng.index(n) as u32;
            let to = rng.index(n) as u32;
            let target = net.placement().key(to);
            let r = net.route(from, target, &opts);
            prop_assert!(r.success);
            prop_assert_eq!(*r.path.last().unwrap(), to);
            prop_assert!(r.hops as usize <= n);
            let mut last = f64::INFINITY;
            for &s in &r.path {
                let d = net.placement().distance_to(s, target);
                prop_assert!(d < last, "distance must strictly decrease");
                last = d;
            }
        }
    }

    /// Hop counts stay below the paper's Theorem 1/2 bound for every
    /// seed and skew (the bound is an expectation bound; with the ~4x
    /// slack observed empirically, per-run means clear it comfortably).
    #[test]
    fn mean_hops_below_theorem_bound(
        seed in any::<u64>(),
        dist_choice in 0u8..3,
    ) {
        let n = 512;
        let mut rng = Rng::new(seed);
        let net = SmallWorldBuilder::new(n)
            .distribution(dist_for(dist_choice))
            .build(&mut rng)
            .unwrap();
        let s = net.routing_survey(120, &mut rng);
        prop_assert!(s.success_rate() > 0.999);
        prop_assert!(s.hops.mean() < theory::expected_hops_upper_bound(n));
    }

    /// Constant out-degree policy is honoured exactly (up to candidate
    /// saturation, impossible at these sizes).
    #[test]
    fn const_out_degree_respected(seed in any::<u64>(), k in 1usize..8) {
        let mut rng = Rng::new(seed);
        let net = SmallWorldBuilder::new(128)
            .out_degree(OutDegree::Const(k))
            .build(&mut rng)
            .unwrap();
        for u in 0..128u32 {
            prop_assert_eq!(net.long_links(u).len(), k);
        }
    }

    /// partition_index is a nondecreasing step function of distance that
    /// covers exactly [0, m].
    #[test]
    fn partition_index_monotone(m in 2usize..20, d1 in 0.0f64..1.0, d2 in 0.0f64..1.0) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(partition_index(lo, m) <= partition_index(hi, m));
        prop_assert!(partition_index(hi, m) <= m);
        // The band boundaries are exact powers of two.
        for j in 1..=m {
            let boundary = (2.0f64).powi(j as i32 - 1 - m as i32);
            prop_assert_eq!(partition_index(boundary, m), j);
        }
    }

    /// Same seed, same network; different seed, (almost surely)
    /// different links.
    #[test]
    fn construction_determinism(seed in any::<u64>()) {
        let build = |s: u64| {
            let mut rng = Rng::new(s);
            SmallWorldBuilder::new(64).build(&mut rng).unwrap()
        };
        let a = build(seed);
        let b = build(seed);
        for u in 0..64u32 {
            prop_assert_eq!(a.long_links(u), b.long_links(u));
        }
    }
}
