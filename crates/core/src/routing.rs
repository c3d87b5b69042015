//! Greedy routing in key space and in the normalized (mass) space.
//!
//! The paper's Theorem 2 proof routes in the normalized space `R′` —
//! distances there are mass distances `|∫ f|` — while a practical peer
//! only sees raw keys. Greedy on raw keys and greedy on mass agree on
//! each side of the target (the CDF is monotone) but may disagree when
//! comparing candidates on *opposite* sides. [`DistanceMode`] exposes
//! both so experiment E15 can measure the gap the proof glosses over.

use crate::network::SmallWorldNetwork;
use sw_graph::NodeId;
use sw_keyspace::{Key, Topology};
use sw_overlay::route::{RouteOptions, RouteResult};
use sw_overlay::Overlay;

/// Which distance greedy routing minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceMode {
    /// Raw key distance `|v.id − t|` — what a peer can always compute.
    KeySpace,
    /// Mass distance `|F̂(v.id) − F̂(t)|` — the distance of the proof's
    /// normalized space (requires knowing `f̂`).
    MassSpace,
}

impl SmallWorldNetwork {
    /// Mass distance from peer `u` to an arbitrary target key.
    fn mass_to_key(&self, u: NodeId, target_pos: f64) -> f64 {
        let d = (self.normalized_position(u) - target_pos).abs();
        match self.placement().topology() {
            Topology::Interval => d,
            Topology::Ring => d.min(1.0 - d),
        }
    }

    /// Greedy route minimizing the distance selected by `mode`.
    ///
    /// In both modes the goal is the peer nearest the target *in that
    /// mode's metric*; the two goals coincide except for targets almost
    /// exactly between two peers with asymmetric local density.
    pub fn route_with_mode(
        &self,
        from: NodeId,
        target: Key,
        mode: DistanceMode,
        opts: &RouteOptions,
    ) -> RouteResult {
        match mode {
            DistanceMode::KeySpace => self.route(from, target, opts),
            DistanceMode::MassSpace => {
                let target_pos = self.assumed().cdf(target.get());
                // Goal: mass-nearest peer. The placement's key-nearest and
                // its ring/interval neighbours are the only candidates.
                let key_goal = self.placement().nearest(target);
                let mut goal = key_goal;
                let mut goal_d = self.mass_to_key(key_goal, target_pos);
                for cand in [
                    self.placement().prev(key_goal),
                    self.placement().next(key_goal),
                ] {
                    let d = self.mass_to_key(cand, target_pos);
                    if d < goal_d {
                        goal_d = d;
                        goal = cand;
                    }
                }
                let mut cur = from;
                let mut hops = 0u32;
                let mut path = Vec::new();
                if opts.record_path {
                    path.push(cur);
                }
                let success = loop {
                    if cur == goal {
                        break true;
                    }
                    if hops >= opts.max_hops {
                        break false;
                    }
                    let mut best = cur;
                    let mut best_d = self.mass_to_key(cur, target_pos);
                    for &v in self.contacts(cur) {
                        let d = self.mass_to_key(v, target_pos);
                        if d < best_d {
                            best_d = d;
                            best = v;
                        }
                    }
                    if best == cur {
                        break false;
                    }
                    cur = best;
                    hops += 1;
                    if opts.record_path {
                        path.push(cur);
                    }
                };
                // The shape `finish_route` gives the key-space walk.
                if !opts.record_path {
                    path = vec![from, cur];
                }
                RouteResult {
                    success,
                    hops,
                    path,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SmallWorldBuilder;
    use sw_keyspace::distribution::TruncatedPareto;
    use sw_keyspace::stats::OnlineStats;
    use sw_keyspace::Rng;

    #[test]
    fn both_modes_succeed_on_uniform() {
        let mut rng = Rng::new(1);
        let net = SmallWorldBuilder::new(512).build(&mut rng).unwrap();
        let opts = RouteOptions::for_n(512);
        for _ in 0..100 {
            let from = rng.index(512) as NodeId;
            let to = rng.index(512) as NodeId;
            let t = net.placement().key(to);
            assert!(
                net.route_with_mode(from, t, DistanceMode::KeySpace, &opts)
                    .success
            );
            assert!(
                net.route_with_mode(from, t, DistanceMode::MassSpace, &opts)
                    .success
            );
        }
    }

    #[test]
    fn both_modes_return_source_and_final_peer_without_a_recorded_path() {
        let mut rng = Rng::new(4);
        let net = SmallWorldBuilder::new(256)
            .distribution(Box::new(TruncatedPareto::new(1.5, 0.01).unwrap()))
            .build(&mut rng)
            .unwrap();
        for mode in [DistanceMode::KeySpace, DistanceMode::MassSpace] {
            // Budgets of 0 and 2 stop most walks early; 64 lets them finish.
            for max_hops in [0, 2, 64] {
                for _ in 0..40 {
                    let from = rng.index(256) as NodeId;
                    let t = Key::clamped(rng.f64());
                    let route = |record_path| {
                        let opts = RouteOptions {
                            max_hops,
                            record_path,
                        };
                        net.route_with_mode(from, t, mode, &opts)
                    };
                    let (full, ends) = (route(true), route(false));
                    assert_eq!(full.path[0], from, "{mode:?}");
                    assert_eq!(full.path.len(), full.hops as usize + 1, "{mode:?}");
                    let last = *full.path.last().unwrap();
                    assert_eq!(ends.path, vec![from, last], "{mode:?}");
                    assert_eq!((ends.success, ends.hops), (full.success, full.hops));
                }
            }
        }
    }

    #[test]
    fn modes_agree_under_uniform_density() {
        // With f = const the CDF is the identity: both metrics coincide,
        // so the exact same path must be taken.
        let mut rng = Rng::new(2);
        let net = SmallWorldBuilder::new(256).build(&mut rng).unwrap();
        let opts = RouteOptions::for_n(256);
        for _ in 0..50 {
            let from = rng.index(256) as NodeId;
            let to = rng.index(256) as NodeId;
            let t = net.placement().key(to);
            let a = net.route_with_mode(from, t, DistanceMode::KeySpace, &opts);
            let b = net.route_with_mode(from, t, DistanceMode::MassSpace, &opts);
            assert_eq!(a.path, b.path);
        }
    }

    #[test]
    fn both_modes_route_skewed_networks_members() {
        let mut rng = Rng::new(3);
        let net = SmallWorldBuilder::new(1024)
            .distribution(Box::new(TruncatedPareto::new(1.5, 0.01).unwrap()))
            .build(&mut rng)
            .unwrap();
        let opts = RouteOptions::for_n(1024);
        let mut key_hops = OnlineStats::new();
        let mut mass_hops = OnlineStats::new();
        for _ in 0..200 {
            let from = rng.index(1024) as NodeId;
            let to = rng.index(1024) as NodeId;
            let t = net.placement().key(to);
            let a = net.route_with_mode(from, t, DistanceMode::KeySpace, &opts);
            let b = net.route_with_mode(from, t, DistanceMode::MassSpace, &opts);
            assert!(a.success, "key-space route failed");
            assert!(b.success, "mass-space route failed");
            key_hops.push(a.hops as f64);
            mass_hops.push(b.hops as f64);
        }
        // Theorem 2 guarantees the mass-space walk is logarithmic; the
        // key-space walk tracks it closely (E15 reports the exact gap).
        assert!(mass_hops.mean() < 12.0, "mass hops {}", mass_hops.mean());
        assert!(
            key_hops.mean() < 2.0 * mass_hops.mean(),
            "key {} vs mass {}",
            key_hops.mean(),
            mass_hops.mean()
        );
    }
}
