//! Failure injection: route over an overlay with dead peers and/or
//! dropped long links.
//!
//! §3.1 of the paper claims robustness: “even in the case of connectivity
//! loss, the routing cost will be at worst poly-logarithmic given we have
//! at least one long-range link and the neighboring links intact”.
//! Experiment E7 quantifies exactly that by wrapping any overlay in a
//! [`DegradedOverlay`] that filters its contact lists.

use crate::placement::Placement;
use crate::route::Overlay;
use sw_graph::csr::Topology as CsrTopology;
use sw_graph::NodeId;
use sw_keyspace::{Rng, Topology};

/// A view of an overlay with some peers dead and/or some links dropped.
///
/// The degraded contact table is materialized as its own CSR topology
/// (rebuilt by one `filter_edges` pass per degradation call), so routing
/// over a degraded overlay reads the same flat slices as an intact one.
pub struct DegradedOverlay<'a> {
    inner: &'a dyn Overlay,
    dead: Vec<bool>,
    topo: CsrTopology,
}

impl<'a> DegradedOverlay<'a> {
    /// Wraps `inner` with no degradation applied yet.
    pub fn new(inner: &'a dyn Overlay) -> Self {
        DegradedOverlay {
            dead: vec![false; inner.placement().len()],
            topo: inner.topology().clone(),
            inner,
        }
    }

    /// Marks a `fraction` of peers (chosen uniformly) as dead. Dead peers
    /// are filtered from every contact list and cannot source routes.
    pub fn kill_random(mut self, fraction: f64, rng: &mut Rng) -> Self {
        let n = self.dead.len();
        let kill = ((n as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        for idx in rng.sample_distinct(n, kill.min(n)) {
            self.dead[idx] = true;
        }
        let dead = &self.dead;
        self.topo = self
            .topo
            .filter_edges(|u, v| !dead[u as usize] && !dead[v as usize]);
        self
    }

    /// Drops each *long* link (anything that is not a topology-neighbour
    /// edge) independently with probability `fraction`. Neighbour links
    /// stay intact, matching the §3.1 robustness scenario.
    pub fn drop_long_links(mut self, fraction: f64, rng: &mut Rng) -> Self {
        let p = self.inner.placement();
        self.topo = self
            .topo
            .filter_edges(|u, v| is_topology_neighbor(p, u, v) || !rng.chance(fraction));
        self
    }

    /// True if peer `u` is alive.
    pub fn is_alive(&self, u: NodeId) -> bool {
        !self.dead[u as usize]
    }

    /// A uniformly random alive peer.
    ///
    /// # Panics
    ///
    /// Panics if every peer is dead.
    pub fn random_alive(&self, rng: &mut Rng) -> NodeId {
        assert!(
            self.dead.iter().any(|d| !d),
            "no peers left alive in degraded overlay"
        );
        loop {
            let u = rng.index(self.dead.len()) as NodeId;
            if !self.dead[u as usize] {
                return u;
            }
        }
    }
}

/// True if `v` is `u`'s immediate ring/interval neighbour.
fn is_topology_neighbor(p: &Placement, u: NodeId, v: NodeId) -> bool {
    match p.topology() {
        Topology::Ring => v == p.next(u) || v == p.prev(u),
        Topology::Interval => {
            let (l, r) = p.interval_neighbors(u);
            Some(v) == l || Some(v) == r
        }
    }
}

impl Overlay for DegradedOverlay<'_> {
    fn name(&self) -> String {
        format!("{}+degraded", self.inner.name())
    }

    fn placement(&self) -> &Placement {
        self.inner.placement()
    }

    fn topology(&self) -> &CsrTopology {
        &self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{RouteOptions, RoutingSurvey, TargetModel};
    use crate::symphony::Symphony;
    use sw_keyspace::distribution::Uniform;

    /// Symphony with bidirectional links: symmetric greedy routing is its
    /// native algorithm, which is what the generic degraded wrapper runs.
    fn symphony(n: usize, k: usize, seed: u64) -> Symphony {
        let mut rng = Rng::new(seed);
        let p = Placement::sample(n, &Uniform, Topology::Ring, &mut rng);
        Symphony::build(p, k, true, &mut rng)
    }

    /// Options that tolerate linear (neighbour-only) walks.
    fn linear_opts(n: usize) -> RouteOptions {
        RouteOptions {
            max_hops: n as u32,
            record_path: false,
        }
    }

    #[test]
    fn no_degradation_is_transparent() {
        let o = symphony(256, 4, 1);
        let d = DegradedOverlay::new(&o);
        for u in 0..256 {
            assert_eq!(d.contacts(u), o.contacts(u));
        }
    }

    #[test]
    fn dropping_all_long_links_leaves_the_ring() {
        let o = symphony(256, 4, 2);
        let mut rng = Rng::new(3);
        let d = DegradedOverlay::new(&o).drop_long_links(1.0, &mut rng);
        for u in 0..256u32 {
            assert_eq!(d.contacts(u).len(), 2, "only ring neighbours remain");
        }
        // Routing still succeeds — linearly.
        let s = RoutingSurvey::run_with_opts(
            &d,
            100,
            TargetModel::MemberKeys,
            &linear_opts(256),
            &mut rng,
        );
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
        let half = DegradedOverlay::new(&o).drop_long_links(0.5, &mut rng);
        let s = RoutingSurvey::run_with_opts(
            &half,
            300,
            TargetModel::MemberKeys,
            &linear_opts(1024),
            &mut rng,
        );
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

    #[test]
    fn dead_peers_are_invisible() {
        let o = symphony(128, 3, 6);
        let mut rng = Rng::new(7);
        let d = DegradedOverlay::new(&o).kill_random(0.25, &mut rng);
        let dead_count = (0..128u32).filter(|&u| !d.is_alive(u)).count();
        assert_eq!(dead_count, 32);
        for u in 0..128u32 {
            for &v in d.contacts(u) {
                assert!(d.is_alive(v), "contact list contains dead peer");
            }
        }
    }

    #[test]
    fn routes_between_alive_peers_mostly_survive_failures() {
        let o = symphony(1024, 5, 8);
        let mut rng = Rng::new(9);
        let d = DegradedOverlay::new(&o).kill_random(0.1, &mut rng);
        let opts = linear_opts(1024);
        let mut success = 0;
        let total = 200;
        for _ in 0..total {
            let from = d.random_alive(&mut rng);
            let to = d.random_alive(&mut rng);
            let r = d.route(from, d.placement().key(to), &opts);
            if r.success {
                success += 1;
            }
        }
        // Pure greedy has no backtracking, so a dead ring neighbour right
        // before the goal strands the walk; still, with 10% dead peers the
        // large majority of routes complete. (The simulator in `sw-sim`
        // adds retry/fallback and pushes this to ~100%.)
        assert!(
            success as f64 / total as f64 > 0.7,
            "success {success}/{total}"
        );
    }

    #[test]
    fn random_alive_never_returns_dead() {
        let o = symphony(64, 3, 10);
        let mut rng = Rng::new(11);
        let d = DegradedOverlay::new(&o).kill_random(0.5, &mut rng);
        for _ in 0..100 {
            assert!(d.is_alive(d.random_alive(&mut rng)));
        }
    }
}
