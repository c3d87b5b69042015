//! A Pastry-like prefix-routing DHT (Rowstron & Druschel, Middleware
//! 2001), reduced to its structural skeleton.
//!
//! §3.1 of the paper: “in Pastry … any random node of the partition”
//! with base-`k` logarithmic partitioning (`k = 16` in Pastry). A peer's
//! routing table has one row per digit of its key's base-`2^b` expansion;
//! row `ℓ`, column `d` points to a random peer sharing the first `ℓ`
//! digits and continuing with digit `d`. A leaf set of ring neighbours
//! finishes the last hop(s).
//!
//! Because rows partition the *key space* (not the peer population),
//! skewed placements leave many cells empty and push the load onto the
//! leaf set — the fixed-partition brittleness the paper's §4 motivates
//! against (experiment E4).

use crate::placement::Placement;
use crate::route::Overlay;
use sw_graph::csr::Topology as CsrTopology;
use sw_graph::{LinkTable, NodeId};
use sw_keyspace::{Rng, Topology};

/// Pastry-like overlay instance.
#[derive(Debug, Clone)]
pub struct PastryLike {
    p: Placement,
    topo: CsrTopology,
    bits_per_digit: u32,
    rows: usize,
    leaf_each_side: usize,
    /// Number of empty routing cells across the whole overlay (skew
    /// diagnostic reported by E4).
    empty_cells: usize,
}

impl PastryLike {
    /// Builds the overlay: digits of `bits_per_digit` bits (base
    /// `2^bits_per_digit`), a leaf set of `leaf_each_side` peers per ring
    /// direction, random in-partition table entries.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits_per_digit <= 8` and the placement is a
    /// ring.
    pub fn build(
        p: Placement,
        bits_per_digit: u32,
        leaf_each_side: usize,
        rng: &mut Rng,
    ) -> PastryLike {
        assert!(
            (1..=8).contains(&bits_per_digit),
            "bits_per_digit must be in 1..=8"
        );
        assert_eq!(p.topology(), Topology::Ring, "pastry lives on the ring");
        let n = p.len();
        let base = 1u32 << bits_per_digit;
        // Enough rows that the finest partition is below the mean peer
        // spacing: ceil(log_base(n)) + 1.
        let rows = ((n as f64).log2() / bits_per_digit as f64).ceil() as usize + 1;
        let mut lt = LinkTable::new(n);
        let mut empty_cells = 0usize;
        for u in 0..n as NodeId {
            let key = p.key(u).get();
            // The contact order mirrors routing priority: ring neighbours
            // first, then the leaf set, then routing-table cells.
            lt.add_all(u, p.topology_neighbors(u));
            // Leaf set.
            let mut fwd = u;
            let mut bwd = u;
            for _ in 0..leaf_each_side {
                fwd = p.next(fwd);
                bwd = p.prev(bwd);
                lt.add(u, fwd);
                lt.add(u, bwd);
            }
            // Routing table rows.
            for row in 0..rows {
                let cell_width = (base as f64).powi(-(row as i32 + 1));
                let prefix_width = (base as f64).powi(-(row as i32));
                let prefix_start = (key / prefix_width).floor() * prefix_width;
                let own_digit = ((key - prefix_start) / cell_width).floor() as u32;
                for d in 0..base {
                    if d == own_digit {
                        continue;
                    }
                    let lo = prefix_start + d as f64 * cell_width;
                    let hi = lo + cell_width;
                    match p.random_in_arc(lo, hi.min(1.0), rng) {
                        Some(v) if v != u => {
                            lt.add(u, v);
                        }
                        _ => empty_cells += 1,
                    }
                }
            }
        }
        PastryLike {
            p,
            topo: lt.build(),
            bits_per_digit,
            rows,
            leaf_each_side,
            empty_cells,
        }
    }

    /// Fraction of routing cells that are empty — grows sharply with key
    /// skew since cells partition key space, not peers.
    pub fn empty_cell_fraction(&self) -> f64 {
        let base = 1usize << self.bits_per_digit;
        let total = self.p.len() * self.rows * (base - 1);
        self.empty_cells as f64 / total as f64
    }

    /// Number of routing-table rows.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

impl Overlay for PastryLike {
    fn name(&self) -> String {
        format!(
            "pastry(b={},leaf={})",
            self.bits_per_digit, self.leaf_each_side
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
    use crate::route::{RoutingSurvey, TargetModel};
    use sw_keyspace::distribution::{TruncatedPareto, Uniform};

    fn uniform_placement(n: usize, seed: u64) -> Placement {
        let mut rng = Rng::new(seed);
        Placement::sample(n, &Uniform, Topology::Ring, &mut rng)
    }

    #[test]
    fn routes_fully_on_uniform_keys() {
        let mut rng = Rng::new(1);
        let o = PastryLike::build(uniform_placement(1024, 2), 2, 2, &mut rng);
        let s = RoutingSurvey::run(&o, 300, TargetModel::MemberKeys, &mut rng);
        assert!((s.success_rate() - 1.0).abs() < 1e-12);
        // Base-4 prefix routing: ~log4(n) = 5 digit-fixing hops.
        assert!(s.hops.mean() < 8.0, "hops {}", s.hops.mean());
    }

    #[test]
    fn base16_routes_in_fewer_hops_than_base2() {
        let mut rng = Rng::new(3);
        let p = uniform_placement(2048, 4);
        let b1 = PastryLike::build(p.clone(), 1, 2, &mut rng);
        let b4 = PastryLike::build(p, 4, 2, &mut rng);
        let h1 = RoutingSurvey::run(&b1, 300, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        let h4 = RoutingSurvey::run(&b4, 300, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        assert!(h4 < h1, "base2 {h1}, base16 {h4}");
    }

    #[test]
    fn larger_base_means_bigger_tables() {
        let mut rng = Rng::new(5);
        let p = uniform_placement(1024, 6);
        let b1 = PastryLike::build(p.clone(), 1, 2, &mut rng);
        let b4 = PastryLike::build(p, 4, 2, &mut rng);
        assert!(b4.avg_table_size() > 1.5 * b1.avg_table_size());
    }

    #[test]
    fn empty_cell_accounting_is_consistent() {
        // Note the direction of the effect: because a peer's rows are
        // anchored at its *own* prefix, peers in dense regions see mostly
        // occupied cells, so the *overall* empty fraction falls under
        // skew even though resolution near dense targets is insufficient
        // (which is why hop counts inflate — see the test below). The
        // accounting itself must stay within bounds under both regimes.
        let mut rng = Rng::new(7);
        let n = 1024;
        let uni = PastryLike::build(uniform_placement(n, 8), 2, 2, &mut rng);
        let skew_p = Placement::sample(
            n,
            &TruncatedPareto::new(1.5, 0.001).unwrap(),
            Topology::Ring,
            &mut rng,
        );
        let skew = PastryLike::build(skew_p, 2, 2, &mut rng);
        for o in [&uni, &skew] {
            let f = o.empty_cell_fraction();
            assert!((0.0..1.0).contains(&f), "fraction {f}");
            assert!(o.empty_cells > 0, "finest rows always have gaps");
        }
        assert!(
            skew.empty_cell_fraction() < uni.empty_cell_fraction(),
            "own-prefix anchoring fills cells under skew: uniform {} vs skewed {}",
            uni.empty_cell_fraction(),
            skew.empty_cell_fraction()
        );
    }

    #[test]
    fn skew_inflates_hop_counts() {
        let mut rng = Rng::new(9);
        let n = 2048;
        let uni = PastryLike::build(uniform_placement(n, 10), 2, 2, &mut rng);
        let skew_p = Placement::sample(
            n,
            &TruncatedPareto::new(1.5, 0.0005).unwrap(),
            Topology::Ring,
            &mut rng,
        );
        let skew = PastryLike::build(skew_p, 2, 2, &mut rng);
        let hu = RoutingSurvey::run(&uni, 400, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        let hs = RoutingSurvey::run(&skew, 400, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        assert!(hs > 1.3 * hu, "uniform {hu}, skewed {hs}");
    }

    #[test]
    fn still_routes_successfully_under_skew_thanks_to_leaf_set() {
        let mut rng = Rng::new(11);
        let skew_p = Placement::sample(
            1024,
            &TruncatedPareto::new(1.5, 0.001).unwrap(),
            Topology::Ring,
            &mut rng,
        );
        let o = PastryLike::build(skew_p, 2, 2, &mut rng);
        let s = RoutingSurvey::run(&o, 300, TargetModel::MemberKeys, &mut rng);
        assert!((s.success_rate() - 1.0).abs() < 1e-12);
    }
}
