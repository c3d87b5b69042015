//! Mercury (Bharambe, Agrawal & Seshan, SIGCOMM 2004): small-world long
//! links over *estimated rank distance*.
//!
//! Mercury keeps attribute values un-hashed (so range queries work) and
//! therefore faces exactly the paper's problem: peers are non-uniform in
//! key space. Its heuristic: each peer samples other peers' keys (via
//! random walks), builds an approximate histogram of the key distribution,
//! draws a harmonic *rank* offset `ρ ∈ [1, n]` with `p(ρ) ∝ 1/ρ`, and
//! links to the peer whose key sits `ρ` ranks clockwise — translated
//! through the estimated CDF. The paper's §1 positions Model 2 as the
//! formalization of this heuristic; experiment E4/E11 measure how close
//! the approximation gets as the sample budget grows.

use crate::placement::Placement;
use crate::route::Overlay;
use sw_graph::csr::Topology as CsrTopology;
use sw_graph::{LinkTable, NodeId};
use sw_keyspace::distribution::{Empirical, KeyDistribution};
use sw_keyspace::{Key, Rng, Topology};

/// Mercury overlay instance.
#[derive(Debug, Clone)]
pub struct Mercury {
    p: Placement,
    topo: CsrTopology,
    k: usize,
    sample_size: usize,
}

impl Mercury {
    /// Builds a Mercury overlay: `k` long links per peer, each peer
    /// estimating the key distribution from `sample_size` uniformly
    /// sampled peer keys (its random-walk samples).
    ///
    /// # Panics
    ///
    /// Panics if the placement topology is not [`Topology::Ring`] or
    /// `sample_size < 2`.
    pub fn build(p: Placement, k: usize, sample_size: usize, rng: &mut Rng) -> Mercury {
        assert_eq!(p.topology(), Topology::Ring, "mercury lives on the ring");
        assert!(sample_size >= 2, "need at least two samples to estimate");
        let n = p.len();
        let ln_n = (n as f64).ln();
        let mut out = vec![Vec::with_capacity(k); n];
        for u in 0..n as NodeId {
            // Per-peer estimate of F from sampled keys (plus own key).
            let mut samples: Vec<f64> = (0..sample_size)
                .map(|_| p.key(rng.index(n) as NodeId).get())
                .collect();
            samples.push(p.key(u).get());
            let est = match Empirical::from_samples(&samples) {
                Ok(e) => e,
                // Degenerate sample set (all identical): fall back to the
                // peer's ring neighbours only.
                Err(_) => continue,
            };
            let own_frac = est.cdf(p.key(u).get());
            let mut tries = 0;
            while out[u as usize].len() < k && tries < 16 * k + 32 {
                tries += 1;
                // Harmonic rank offset rho = n^U, i.e. p(rho) ∝ 1/rho on
                // [1, n], applied in a uniformly random direction (the
                // symmetric two-sided sampling of the paper's Model 2 —
                // one-sided links would leave greedy routing crawling
                // backwards to targets just counter-clockwise).
                let rho = (rng.f64() * ln_n).exp();
                let signed = if rng.chance(0.5) { rho } else { -rho };
                let frac = (own_frac + signed / n as f64).rem_euclid(1.0);
                let target = Key::clamped(est.quantile(frac));
                let v = p.nearest(target);
                if v != u && !out[u as usize].contains(&v) {
                    out[u as usize].push(v);
                }
            }
        }
        let mut lt = LinkTable::new(n);
        for u in 0..n as NodeId {
            lt.add_all(u, p.topology_neighbors(u));
            // A long link can land on a ring neighbour; the table dedupes.
            lt.add_all(u, out[u as usize].iter().copied());
        }
        Mercury {
            p,
            topo: lt.build(),
            k,
            sample_size,
        }
    }
}

impl Overlay for Mercury {
    fn name(&self) -> String {
        format!("mercury(k={},s={})", self.k, self.sample_size)
    }

    fn placement(&self) -> &Placement {
        &self.p
    }

    fn topology(&self) -> &CsrTopology {
        &self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{RoutingSurvey, TargetModel};
    use crate::symphony::Symphony;
    use sw_keyspace::distribution::TruncatedPareto;

    fn skewed_placement(n: usize, seed: u64) -> Placement {
        let mut rng = Rng::new(seed);
        Placement::sample(
            n,
            &TruncatedPareto::new(1.5, 0.001).unwrap(),
            Topology::Ring,
            &mut rng,
        )
    }

    #[test]
    fn builds_k_links() {
        let mut rng = Rng::new(1);
        let m = Mercury::build(skewed_placement(512, 2), 4, 64, &mut rng);
        let avg = m.avg_table_size();
        assert!(avg > 5.5 && avg <= 6.0, "avg {avg}");
    }

    #[test]
    fn routing_succeeds_under_skew() {
        let mut rng = Rng::new(3);
        let m = Mercury::build(skewed_placement(2048, 4), 5, 128, &mut rng);
        let s = RoutingSurvey::run(&m, 300, TargetModel::MemberKeys, &mut rng);
        assert!((s.success_rate() - 1.0).abs() < 1e-12);
        assert!(s.hops.mean() < 30.0, "hops {}", s.hops.mean());
    }

    #[test]
    fn beats_symphony_on_skewed_keys() {
        // Mercury's rank-space links adapt to the skew; Symphony's raw
        // key-space links do not. Same k, same placement.
        let mut rng = Rng::new(5);
        let p = skewed_placement(2048, 6);
        let mercury = Mercury::build(p.clone(), 4, 256, &mut rng);
        let symphony = Symphony::build(p, 4, false, &mut rng);
        let hm = RoutingSurvey::run(&mercury, 400, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        let hs = RoutingSurvey::run(&symphony, 400, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        assert!(hm < 0.75 * hs, "mercury {hm}, symphony {hs}");
    }

    #[test]
    fn larger_sample_budget_does_not_hurt() {
        let mut rng = Rng::new(7);
        let p = skewed_placement(1024, 8);
        let coarse = Mercury::build(p.clone(), 4, 8, &mut rng);
        let fine = Mercury::build(p, 4, 512, &mut rng);
        let hc = RoutingSurvey::run(&coarse, 400, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        let hf = RoutingSurvey::run(&fine, 400, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        // Fine estimation should be at least as good (allow noise).
        assert!(hf < hc * 1.15, "coarse {hc}, fine {hf}");
    }
}
