//! Greedy routing by mass: the normalized space R′ of Theorem 2's proof
//! (Figures 1–2). Peer `u` sits there at `F̂(key_u)` and keeps its
//! contacts, so routing by mass is
//! [`greedy_route`](sw_overlay::route::greedy_route) over
//! [`mass_placement`] and the network's own contact table, with the
//! target moved to [`mass_key`]. E15 compares it with greedy routing in
//! raw key space on the same networks.

use crate::network::SmallWorldNetwork;
use sw_graph::NodeId;
use sw_keyspace::Key;
use sw_overlay::{Overlay, Placement};

/// The network's peers placed in the normalized space: peer `u` at key
/// `F̂(key_u)`, on the network's topology. Ids are unchanged, so the
/// network's contact tables route over it as they are.
///
/// # Panics
///
/// If normalizing merges or reorders peers (`F̂` flat between two keys).
pub fn mass_placement(net: &SmallWorldNetwork) -> Placement {
    let n = net.placement().len() as NodeId;
    let key = |u| mass_key(net, net.placement().key(u));
    let placement = Placement::from_keys(
        (0..n).map(key).collect(),
        net.placement().topology(),
        "normalized",
    )
    .expect("F̂ is strictly monotone on the support");
    assert!(
        (0..n).all(|u| placement.key(u) == key(u)),
        "normalizing reordered the peers"
    );
    placement
}

/// Where key `t` lies in the normalized space: `F̂(t)`.
pub fn mass_key(net: &SmallWorldNetwork, t: Key) -> Key {
    Key::clamped(net.assumed().cdf(t.get()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SmallWorldBuilder;
    use sw_keyspace::distribution::TruncatedPareto;
    use sw_keyspace::stats::OnlineStats;
    use sw_keyspace::Rng;
    use sw_overlay::route::{greedy_route, RouteOptions, RouteResult};

    /// Routes `from → t` greedily in key space and in mass space.
    fn both_modes(
        net: &SmallWorldNetwork,
        mass: &Placement,
        from: NodeId,
        t: Key,
        opts: &RouteOptions,
    ) -> (RouteResult, RouteResult) {
        let by_key = greedy_route(net.placement(), net.topology(), from, t, opts);
        let by_mass = greedy_route(mass, net.topology(), from, mass_key(net, t), opts);
        (by_key, by_mass)
    }

    #[test]
    fn both_modes_succeed_on_uniform() {
        let mut rng = Rng::new(1);
        let net = SmallWorldBuilder::new(512).build(&mut rng).unwrap();
        let mass = mass_placement(&net);
        let opts = RouteOptions::for_n(512);
        for _ in 0..100 {
            let from = rng.index(512) as NodeId;
            let to = rng.index(512) as NodeId;
            let t = net.placement().key(to);
            let (a, b) = both_modes(&net, &mass, from, t, &opts);
            assert!(a.success);
            assert!(b.success);
        }
    }

    #[test]
    fn modes_agree_under_uniform_density() {
        // With f = const the CDF is the identity: both metrics coincide,
        // so the exact same path must be taken.
        let mut rng = Rng::new(2);
        let net = SmallWorldBuilder::new(256).build(&mut rng).unwrap();
        let mass = mass_placement(&net);
        let opts = RouteOptions::for_n(256);
        for _ in 0..50 {
            let from = rng.index(256) as NodeId;
            let to = rng.index(256) as NodeId;
            let t = net.placement().key(to);
            let (a, b) = both_modes(&net, &mass, from, t, &opts);
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
        let mass = mass_placement(&net);
        let opts = RouteOptions::for_n(1024);
        let mut key_hops = OnlineStats::new();
        let mut mass_hops = OnlineStats::new();
        for _ in 0..200 {
            let from = rng.index(1024) as NodeId;
            let to = rng.index(1024) as NodeId;
            let t = net.placement().key(to);
            let (a, b) = both_modes(&net, &mass, from, t, &opts);
            assert!(a.success, "key-space route failed");
            assert!(b.success, "mass-space route failed");
            // A member target sits at the member's own normalized key.
            assert_eq!(mass_key(&net, t), mass.key(to));
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
