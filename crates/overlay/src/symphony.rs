//! Symphony (Manku, Bawa & Raghavan, USITS 2003): constant out-degree
//! small-world ring with harmonic long links in raw key space.
//!
//! Each peer draws `k` long-distance links with the clockwise key-space
//! offset `x` distributed as `p(x) = 1/(x ln n)` on `[1/n, 1)` — the
//! continuous harmonic distribution. Symphony assumes *hashed, uniform*
//! peer ids; on a skewed placement its raw key-space offsets ignore the
//! density `f`, which is precisely the failure mode the paper's Model 2
//! fixes (experiment E4 quantifies it).

use crate::placement::Placement;
use crate::route::Overlay;
use sw_graph::csr::Topology as CsrTopology;
use sw_graph::{LinkTable, NodeId};
use sw_keyspace::{Key, Rng, Topology};

/// Symphony overlay instance.
#[derive(Debug, Clone)]
pub struct Symphony {
    p: Placement,
    /// Long links only, one outgoing row per peer.
    links: CsrTopology,
    /// Full contact table: ring neighbours + long links (+ reverses when
    /// bidirectional).
    topo: CsrTopology,
    k: usize,
    bidirectional: bool,
}

impl Symphony {
    /// Builds a Symphony overlay with `k` harmonic long links per peer.
    ///
    /// `bidirectional` adds each long link's reverse direction to the
    /// contact set (Symphony's links are undirected); turn it off to match
    /// the directed graphs of the paper's models.
    ///
    /// # Panics
    ///
    /// Panics if the placement topology is not [`Topology::Ring`].
    pub fn build(p: Placement, k: usize, bidirectional: bool, rng: &mut Rng) -> Symphony {
        assert_eq!(p.topology(), Topology::Ring, "symphony lives on the ring");
        let n = p.len();
        let ln_n = (n as f64).ln();
        let mut out = vec![Vec::with_capacity(k); n];
        for u in 0..n as NodeId {
            let base = p.key(u).get();
            let mut tries = 0;
            while out[u as usize].len() < k && tries < 16 * k + 32 {
                tries += 1;
                // Inverse-CDF of p(x) = 1/(x ln n) on [1/n, 1): x = n^(U-1).
                // Symphony draws the offset clockwise; with
                // `bidirectional = false` we apply a random sign instead so
                // that symmetric greedy routing is not starved of
                // counter-clockwise shortcuts (Symphony itself always
                // routes over the undirected link set).
                let x = (rng.f64() * ln_n).exp() / n as f64;
                let signed = if bidirectional || rng.chance(0.5) {
                    x
                } else {
                    -x
                };
                let target = Key::clamped((base + signed).rem_euclid(1.0));
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
        if bidirectional {
            // Each link's reverse, from the rows themselves; `build`
            // sorts every row, so the order of these adds is immaterial.
            for (u, row) in out.iter().enumerate() {
                for &v in row {
                    lt.add(v, u as NodeId);
                }
            }
        }
        let links = CsrTopology::from_rows(&out);
        Symphony {
            p,
            links,
            topo: lt.build(),
            k,
            bidirectional,
        }
    }

    /// The configured long-link budget `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The long links only (each peer's outgoing row).
    pub fn long_topology(&self) -> &CsrTopology {
        &self.links
    }
}

impl Overlay for Symphony {
    fn name(&self) -> String {
        format!(
            "symphony(k={}{})",
            self.k,
            if self.bidirectional { ",bidir" } else { "" }
        )
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
    use crate::route::{greedy_route, survey_queries, RouteOptions, RoutingSurvey, TargetModel};
    use sw_keyspace::distribution::{TruncatedPareto, Uniform};

    fn uniform_placement(n: usize, seed: u64) -> Placement {
        let mut rng = Rng::new(seed);
        Placement::sample(n, &Uniform, Topology::Ring, &mut rng)
    }

    #[test]
    fn constant_out_degree() {
        let mut rng = Rng::new(1);
        let s = Symphony::build(uniform_placement(512, 2), 4, false, &mut rng);
        for u in 0..512 {
            // 2 ring neighbours + k distinct long links; a long link that
            // lands on a ring neighbour is deduplicated, so the contact
            // count is at most 6 and at least 4.
            let len = s.contacts(u).len();
            assert!((4..=6).contains(&len), "contact count {len}");
        }
        let avg = s.avg_table_size();
        assert!(avg > 5.7, "avg {avg} — neighbour collisions are rare");
    }

    #[test]
    fn routing_succeeds_on_uniform_keys() {
        let mut rng = Rng::new(3);
        let s = Symphony::build(uniform_placement(2048, 4), 5, true, &mut rng);
        let survey = RoutingSurvey::run(&s, 300, TargetModel::MemberKeys, &mut rng);
        assert!((survey.success_rate() - 1.0).abs() < 1e-12);
        // Symphony promises O(log^2 n / k); with k=5 and n=2048 the mean
        // should sit well under the plain-ring baseline of n/4.
        assert!(survey.hops.mean() < 30.0, "hops {}", survey.hops.mean());
    }

    #[test]
    fn more_links_fewer_hops() {
        let mut rng = Rng::new(5);
        let p = uniform_placement(2048, 6);
        let s1 = Symphony::build(p.clone(), 1, false, &mut rng);
        let s8 = Symphony::build(p, 8, false, &mut rng);
        let h1 = RoutingSurvey::run(&s1, 300, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        let h8 = RoutingSurvey::run(&s8, 300, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        assert!(h8 < 0.6 * h1, "k=1: {h1}, k=8: {h8}");
    }

    #[test]
    fn degrades_on_skewed_placement() {
        // Symphony's raw key-space harmonic links ignore the density: on
        // a heavy Pareto placement routing inside the dense region needs
        // many more hops than on uniform keys.
        let mut rng = Rng::new(7);
        let n = 2048;
        let uni = Symphony::build(uniform_placement(n, 8), 4, false, &mut rng);
        let skew_p = Placement::sample(
            n,
            &TruncatedPareto::new(1.5, 0.001).unwrap(),
            Topology::Ring,
            &mut rng,
        );
        let skew = Symphony::build(skew_p, 4, false, &mut rng);
        let h_uni = RoutingSurvey::run(&uni, 300, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        let h_skew = RoutingSurvey::run(&skew, 300, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        assert!(
            h_skew > 1.25 * h_uni,
            "expected degradation: uniform {h_uni}, skewed {h_skew}"
        );
    }

    #[test]
    fn bidirectional_adds_reverse_contacts() {
        let mut rng = Rng::new(9);
        let p = uniform_placement(256, 10);
        let s = Symphony::build(p, 3, true, &mut rng);
        // Every out-link of u must appear in v's contact set.
        for u in 0..256u32 {
            for &v in s.long_topology().neighbors(u) {
                assert!(s.contacts(v).contains(&u), "reverse of {u}->{v} missing");
            }
        }
    }

    /// A bidirectional Symphony on a uniform ring, placement and links
    /// drawn from one generator.
    fn symphony(n: usize, k: usize, seed: u64) -> Symphony {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        Symphony::build(p, k, true, &mut rng)
    }

    /// `o`'s contact rows with each long link (every edge that is not a
    /// ring-neighbour edge) dropped with probability `fraction`: §3.1's
    /// link-loss scenario.
    fn drop_long_links(o: &Symphony, fraction: f64, rng: &mut Rng) -> CsrTopology {
        let p = o.placement();
        o.topology()
            .filter_edges(|u, v| p.topology_neighbors(u).any(|w| w == v) || !rng.chance(fraction))
    }

    /// `queries` member-key lookups over `topo`, with a hop budget that
    /// lets linear (neighbour-only) walks finish.
    fn survey_over(
        p: &Placement,
        topo: &CsrTopology,
        queries: usize,
        rng: &mut Rng,
    ) -> RoutingSurvey {
        let opts = RouteOptions {
            max_hops: p.len() as u32,
            record_path: false,
        };
        let results: Vec<_> = survey_queries(p, queries, TargetModel::MemberKeys, rng)
            .into_iter()
            .map(|(from, target)| greedy_route(p, topo, from, target, &opts))
            .collect();
        RoutingSurvey::from_results(&results)
    }

    #[test]
    fn dropping_all_long_links_leaves_the_ring() {
        let o = symphony(256, 4, 2);
        let mut rng = Rng::new(3);
        let ring = drop_long_links(&o, 1.0, &mut rng);
        for u in 0..256u32 {
            assert_eq!(ring.neighbors(u).len(), 2, "only ring neighbours remain");
        }
        // Routing still succeeds — linearly.
        let s = survey_over(o.placement(), &ring, 100, &mut rng);
        assert!((s.success_rate() - 1.0).abs() < 1e-12);
        assert!(s.hops.mean() > 20.0, "ring routing is linear");
    }

    #[test]
    fn partial_link_loss_degrades_gracefully() {
        let o = symphony(1024, 5, 4);
        let mut rng = Rng::new(5);
        let intact = RoutingSurvey::run(&o, 300, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        let half = drop_long_links(&o, 0.5, &mut rng);
        let s = survey_over(o.placement(), &half, 300, &mut rng);
        assert!(
            (s.success_rate() - 1.0).abs() < 1e-12,
            "neighbour links keep routing total"
        );
        let degraded = s.hops.mean();
        assert!(degraded > intact, "losing links costs hops");
        assert!(
            degraded < 15.0 * intact,
            "but degradation is graceful: {intact} -> {degraded}"
        );
    }
}
