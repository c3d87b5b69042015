//! A P-Grid-like trie DHT (Aberer, CoopIS 2001).
//!
//! P-Grid partitions the key space by a binary trie; each peer is
//! responsible for one leaf and keeps, for every level of its path, a
//! reference to a random peer in the *sibling* subtree. Routing resolves
//! one bit per hop.
//!
//! Two split policies reproduce the paper's §1 observation that “P-Grid's
//! randomization helps retaining routing efficiency, however peers
//! require more than logarithmic routing states”:
//!
//! * [`SplitPolicy::Midpoint`] — canonical P-Grid: split intervals at
//!   their midpoint. Under skewed keys, one side can be (nearly) empty,
//!   so paths — and with them routing tables — grow beyond `log2 N`.
//! * [`SplitPolicy::Median`] — split at the median peer: depth is exactly
//!   `ceil(log2 N)` regardless of skew (the idealized balanced trie).

use crate::placement::Placement;
use crate::route::Overlay;
use sw_graph::csr::Topology as CsrTopology;
use sw_graph::{LinkTable, NodeId};
use sw_keyspace::Rng;

/// How the trie splits an interval of peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Split the key interval at its arithmetic midpoint (canonical
    /// P-Grid). Depth grows with skew.
    Midpoint,
    /// Split the peer population at its median. Depth is `ceil(log2 N)`.
    Median,
}

/// P-Grid-like overlay instance.
#[derive(Debug, Clone)]
pub struct PGridLike {
    p: Placement,
    topo: CsrTopology,
    /// Trie depth (path length) of each peer's leaf.
    depths: Vec<usize>,
    policy: SplitPolicy,
    refs_per_level: usize,
}

impl PGridLike {
    /// Builds the trie and per-level random references.
    ///
    /// `refs_per_level` peers are sampled (with deduplication) from the
    /// sibling subtree at every level of each peer's path.
    pub fn build(
        p: Placement,
        policy: SplitPolicy,
        refs_per_level: usize,
        rng: &mut Rng,
    ) -> PGridLike {
        let n = p.len();
        let mut tables: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut depths = vec![0usize; n];
        // Work stack: (id range, key interval, level).
        let mut stack: Vec<(usize, usize, f64, f64, usize)> = vec![(0, n, 0.0, 1.0, 0)];
        while let Some((a, b, lo, hi, level)) = stack.pop() {
            if b - a <= 1 {
                if b > a {
                    depths[a] = level;
                }
                continue;
            }
            let (split_idx, split_key) = match policy {
                SplitPolicy::Midpoint if hi - lo > 1e-12 => {
                    let mid = 0.5 * (lo + hi);
                    let idx = a + p.keys()[a..b].partition_point(|&k| k.get() < mid);
                    (idx, mid)
                }
                // Median split — also the fallback once midpoint splitting
                // has exhausted float precision.
                _ => {
                    let idx = (a + b) / 2;
                    let mid = 0.5 * (p.keys()[idx - 1].get() + p.keys()[idx].get());
                    (idx, mid)
                }
            };
            if split_idx == a || split_idx == b {
                // One side empty (midpoint under skew): the whole
                // population descends a level with a narrowed interval and
                // no sibling references — this is where P-Grid's routing
                // state exceeds log2 N.
                let (nlo, nhi) = if split_idx == a {
                    (split_key, hi)
                } else {
                    (lo, split_key)
                };
                stack.push((a, b, nlo, nhi, level + 1));
                continue;
            }
            // Cross references: each side points into the other. (`u` is
            // deliberately both index and identity here.)
            #[allow(clippy::needless_range_loop)]
            for u in a..split_idx {
                push_refs(&mut tables[u], split_idx, b, refs_per_level, u, rng);
            }
            #[allow(clippy::needless_range_loop)]
            for u in split_idx..b {
                push_refs(&mut tables[u], a, split_idx, refs_per_level, u, rng);
            }
            stack.push((a, split_idx, lo, split_key, level + 1));
            stack.push((split_idx, b, split_key, hi, level + 1));
        }
        // Freeze: ring/interval neighbours first, then the per-level
        // sibling references (deduplicated by the table).
        let mut lt = LinkTable::new(n);
        for u in 0..n as NodeId {
            lt.add_all(u, p.topology_neighbors(u));
            lt.add_all(u, tables[u as usize].iter().copied());
        }
        PGridLike {
            p,
            topo: lt.build(),
            depths,
            policy,
            refs_per_level,
        }
    }

    /// Largest leaf depth (worst-case path length).
    pub fn max_depth(&self) -> usize {
        self.depths.iter().copied().max().unwrap_or(0)
    }
}

/// Samples `want` distinct references for `u` from the id range `[a, b)`.
fn push_refs(table: &mut Vec<NodeId>, a: usize, b: usize, want: usize, u: usize, rng: &mut Rng) {
    let span = b - a;
    let want = want.min(span);
    let mut tries = 0;
    let mut added = 0;
    while added < want && tries < 8 * want + 16 {
        tries += 1;
        let v = (a + rng.index(span)) as NodeId;
        if v as usize != u && !table.contains(&v) {
            table.push(v);
            added += 1;
        }
    }
}

impl Overlay for PGridLike {
    fn name(&self) -> String {
        format!("pgrid({:?},refs={})", self.policy, self.refs_per_level)
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
    use sw_keyspace::Topology;

    impl PGridLike {
        /// Mean leaf depth.
        fn avg_depth(&self) -> f64 {
            if self.depths.is_empty() {
                0.0
            } else {
                self.depths.iter().sum::<usize>() as f64 / self.depths.len() as f64
            }
        }
    }

    fn uniform_placement(n: usize, seed: u64) -> Placement {
        let mut rng = Rng::new(seed);
        Placement::sample(n, &Uniform, Topology::Ring, &mut rng)
    }

    fn skewed_placement(n: usize, seed: u64) -> Placement {
        let mut rng = Rng::new(seed);
        Placement::sample(
            n,
            &TruncatedPareto::new(1.5, 0.0005).unwrap(),
            Topology::Ring,
            &mut rng,
        )
    }

    #[test]
    fn median_depth_is_exactly_log2n() {
        let mut rng = Rng::new(1);
        let g = PGridLike::build(uniform_placement(1024, 2), SplitPolicy::Median, 1, &mut rng);
        assert_eq!(g.max_depth(), 10);
        assert!((g.avg_depth() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn median_depth_handles_non_power_of_two() {
        let mut rng = Rng::new(3);
        let g = PGridLike::build(uniform_placement(1000, 4), SplitPolicy::Median, 1, &mut rng);
        assert_eq!(g.max_depth(), 10); // ceil(log2 1000)
        assert!(g.avg_depth() <= 10.0);
    }

    #[test]
    fn midpoint_on_uniform_keys_stays_logarithmic() {
        let mut rng = Rng::new(5);
        let g = PGridLike::build(
            uniform_placement(1024, 6),
            SplitPolicy::Midpoint,
            1,
            &mut rng,
        );
        // Random uniform splits wobble around log2 n.
        assert!(g.max_depth() <= 2 * 10, "max depth {}", g.max_depth());
        assert!(g.avg_depth() < 14.0, "avg depth {}", g.avg_depth());
    }

    #[test]
    fn midpoint_under_skew_inflates_depth_median_does_not() {
        let mut rng = Rng::new(7);
        let p = skewed_placement(1024, 8);
        let mid = PGridLike::build(p.clone(), SplitPolicy::Midpoint, 1, &mut rng);
        let med = PGridLike::build(p, SplitPolicy::Median, 1, &mut rng);
        // The paper's §1 claim: midpoint P-Grid needs more than log N
        // routing state under skew; the median (balanced) trie does not.
        assert!(
            mid.avg_depth() > 1.3 * med.avg_depth(),
            "midpoint {} vs median {}",
            mid.avg_depth(),
            med.avg_depth()
        );
        assert_eq!(med.max_depth(), 10);
        assert!(mid.max_depth() > 13, "max depth {}", mid.max_depth());
    }

    #[test]
    fn routing_succeeds_both_policies_both_skews() {
        let mut rng = Rng::new(9);
        for policy in [SplitPolicy::Midpoint, SplitPolicy::Median] {
            for p in [uniform_placement(512, 10), skewed_placement(512, 11)] {
                let g = PGridLike::build(p, policy, 1, &mut rng);
                let s = RoutingSurvey::run(&g, 200, TargetModel::MemberKeys, &mut rng);
                assert!(
                    (s.success_rate() - 1.0).abs() < 1e-12,
                    "{:?}: {}",
                    policy,
                    s.success_rate()
                );
                assert!(s.hops.mean() < 16.0, "{policy:?}: hops {}", s.hops.mean());
            }
        }
    }

    #[test]
    fn table_size_tracks_depth() {
        let mut rng = Rng::new(13);
        let p = skewed_placement(1024, 14);
        let mid = PGridLike::build(p.clone(), SplitPolicy::Midpoint, 1, &mut rng);
        let med = PGridLike::build(p, SplitPolicy::Median, 1, &mut rng);
        assert!(
            mid.avg_table_size() > med.avg_table_size(),
            "midpoint {} vs median {}",
            mid.avg_table_size(),
            med.avg_table_size()
        );
    }

    #[test]
    fn more_refs_per_level_reduce_hops() {
        let mut rng = Rng::new(15);
        let p = uniform_placement(1024, 16);
        let r1 = PGridLike::build(p.clone(), SplitPolicy::Median, 1, &mut rng);
        let r3 = PGridLike::build(p, SplitPolicy::Median, 3, &mut rng);
        let h1 = RoutingSurvey::run(&r1, 300, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        let h3 = RoutingSurvey::run(&r3, 300, TargetModel::MemberKeys, &mut rng)
            .hops
            .mean();
        assert!(h3 <= h1, "1 ref: {h1}, 3 refs: {h3}");
    }

    #[test]
    fn works_on_interval_topology_too() {
        let mut rng = Rng::new(17);
        let p = Placement::sample(256, &Uniform, Topology::Interval, &mut rng);
        let g = PGridLike::build(p, SplitPolicy::Median, 2, &mut rng);
        let s = RoutingSurvey::run(&g, 200, TargetModel::MemberKeys, &mut rng);
        assert!((s.success_rate() - 1.0).abs() < 1e-12);
    }
}
