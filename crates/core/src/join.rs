//! The §4.2 join protocol: incremental network construction when each
//! peer knows the key density `f`.
//!
//! “While joining the network, some peer u generates a value according to
//! probability density function f and assigns it as its identifier. The
//! peer u contacts any known peer and issues a query with that
//! identifier. When u gets an answer from some peer v …, u announces to v
//! that it will become its immediate neighbor. … Since the peer u knows
//! the function f it can calculate the pdf h_u that satisfies (7). The
//! peer u draws log2 N random values according to h_u and queries for
//! these values. The peers that respond are added to u's routing table as
//! long-range neighbors.”
//!
//! [`GrowingNetwork`] implements exactly that, counting every overlay hop
//! as a protocol message so experiment E10 can report construction cost,
//! and [`GrowingNetwork::snapshot`] freezes the grown network into a
//! [`SmallWorldNetwork`] for head-to-head comparison with the oracle
//! batch construction.

use crate::config::{OutDegree, SmallWorldConfig};
use crate::network::SmallWorldNetwork;
use std::sync::Arc;
use sw_graph::NodeId;
use sw_keyspace::distribution::KeyDistribution;
use sw_keyspace::{Key, Rng, Topology};
use sw_overlay::Placement;

/// Cumulative protocol-cost counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinStats {
    /// Completed joins.
    pub joins: u64,
    /// Total overlay messages (greedy hops) spent on join lookups.
    pub messages: u64,
    /// Long-link refresh operations performed.
    pub refreshes: u64,
}

/// An incrementally grown small-world network (stable peer ids, sorted
/// order index maintained on join).
pub struct GrowingNetwork {
    topology: Topology,
    assumed: Arc<dyn KeyDistribution>,
    out_degree: OutDegree,
    /// Keys by stable id (insertion order).
    keys: Vec<Key>,
    /// Stable ids sorted by key.
    order: Vec<NodeId>,
    /// Position of each stable id inside `order`.
    pos: Vec<usize>,
    /// Long links by stable id.
    long: Vec<Vec<NodeId>>,
    stats: JoinStats,
}

impl GrowingNetwork {
    /// Bootstraps a network from a handful of seed keys (fully meshed
    /// with neighbour links only; long links appear as peers join).
    ///
    /// # Panics
    ///
    /// Panics with fewer than 2 distinct seed keys.
    pub fn bootstrap(
        seed_keys: &[Key],
        assumed: Arc<dyn KeyDistribution>,
        topology: Topology,
        out_degree: OutDegree,
    ) -> Self {
        assert!(seed_keys.len() >= 2, "need at least two seed peers");
        let mut keys: Vec<Key> = seed_keys.to_vec();
        keys.sort_unstable();
        keys.dedup();
        assert!(keys.len() >= 2, "seed keys must be distinct");
        let n = keys.len();
        let order: Vec<NodeId> = (0..n as NodeId).collect();
        let pos: Vec<usize> = (0..n).collect();
        GrowingNetwork {
            topology,
            assumed,
            out_degree,
            long: vec![Vec::new(); n],
            keys,
            order,
            pos,
            stats: JoinStats::default(),
        }
    }

    /// Current number of peers.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if empty (never for a bootstrapped network).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Protocol-cost counters so far.
    pub fn stats(&self) -> JoinStats {
        self.stats
    }

    /// Key of a (stable-id) peer.
    pub fn key_of(&self, u: NodeId) -> Key {
        self.keys[u as usize]
    }

    fn distance(&self, a: Key, b: Key) -> f64 {
        self.topology.distance(a, b)
    }

    /// Contacts of peer `u`: sorted-order neighbours plus long links.
    fn contacts(&self, u: NodeId) -> Vec<NodeId> {
        let n = self.keys.len();
        let p = self.pos[u as usize];
        let mut c: Vec<NodeId> = Vec::with_capacity(2 + self.long[u as usize].len());
        match self.topology {
            Topology::Ring => {
                c.push(self.order[(p + 1) % n]);
                c.push(self.order[(p + n - 1) % n]);
            }
            Topology::Interval => {
                if p + 1 < n {
                    c.push(self.order[p + 1]);
                }
                if p > 0 {
                    c.push(self.order[p - 1]);
                }
            }
        }
        for &v in &self.long[u as usize] {
            if !c.contains(&v) {
                c.push(v);
            }
        }
        c
    }

    /// Greedy lookup from `from` toward `target`; returns the closest
    /// peer found and the hop count (protocol messages).
    pub fn lookup(&self, from: NodeId, target: Key) -> (NodeId, u32) {
        let mut cur = from;
        let mut hops = 0u32;
        let max_hops = 64 + 8 * (self.keys.len() as f64).log2().ceil() as u32;
        loop {
            let mut best = cur;
            let mut best_d = self.distance(self.key_of(cur), target);
            for v in self.contacts(cur) {
                let d = self.distance(self.key_of(v), target);
                if d < best_d {
                    best_d = d;
                    best = v;
                }
            }
            if best == cur || hops >= max_hops {
                return (cur, hops);
            }
            cur = best;
            hops += 1;
        }
    }

    /// A uniformly random existing peer — the “any known peer” entry
    /// point of the protocol.
    pub fn random_peer(&self, rng: &mut Rng) -> NodeId {
        self.order[rng.index(self.order.len())] as NodeId
    }

    /// Joins a new peer with a key drawn from the known density `f`.
    /// Returns the new peer's stable id.
    pub fn join(&mut self, rng: &mut Rng) -> NodeId {
        let key = self.assumed.sample_key(rng);
        self.join_with_key(key, rng)
    }

    /// Joins a new peer with an explicit key (resampling on the
    /// astronomically rare exact collision).
    pub fn join_with_key(&mut self, mut key: Key, rng: &mut Rng) -> NodeId {
        while self
            .order
            .binary_search_by(|&id| self.keys[id as usize].cmp(&key))
            .is_ok()
        {
            key = self.assumed.sample_key(rng);
        }
        // 1. Route from a random entry peer to the own id; the answering
        //    peer becomes the immediate neighbour.
        let entry = self.random_peer(rng);
        let (_, hops) = self.lookup(entry, key);
        self.stats.messages += hops as u64;

        // 2. Insert into the sorted order (neighbour links are implicit
        //    in the order index).
        let id = self.keys.len() as NodeId;
        self.keys.push(key);
        let insert_at = self
            .order
            .binary_search_by(|&x| self.keys[x as usize].cmp(&key))
            .unwrap_err();
        self.order.insert(insert_at, id);
        self.pos.push(0);
        for (i, &x) in self.order.iter().enumerate().skip(insert_at) {
            self.pos[x as usize] = i;
        }
        self.long.push(Vec::new());

        // 3. Draw log2 N values from h_u and query for them; responders
        //    become long-range neighbours.
        let links = self.draw_long_links(id, rng);
        self.long[id as usize] = links;
        self.stats.joins += 1;
        id
    }

    /// Draws the long-link targets for `u` from `h_u` (the harmonic law
    /// in mass space, Eq. 7) and resolves each by routing — counting the
    /// messages.
    fn draw_long_links(&mut self, u: NodeId, rng: &mut Rng) -> Vec<NodeId> {
        let n = self.keys.len();
        let budget = self.out_degree.links_for(n);
        let tau = 1.0 / n as f64;
        let pos = self.assumed.cdf(self.key_of(u).get());
        let (left_mass, right_mass) = match self.topology {
            Topology::Interval => (pos, 1.0 - pos),
            Topology::Ring => (0.5, 0.5),
        };
        let wl = if left_mass > tau {
            (left_mass / tau).ln()
        } else {
            0.0
        };
        let wr = if right_mass > tau {
            (right_mass / tau).ln()
        } else {
            0.0
        };
        let mut links = Vec::with_capacity(budget);
        if wl + wr <= 0.0 {
            return links;
        }
        let mut tries = 0;
        while links.len() < budget && tries < 16 * budget + 32 {
            tries += 1;
            // A chosen side has positive weight, which is its
            // `ln(side_mass / tau)` (as in `links.rs::sample_harmonic`).
            let (side_weight, sign) = if rng.f64() * (wl + wr) < wl {
                (wl, -1.0)
            } else {
                (wr, 1.0)
            };
            let m = tau * (side_weight * rng.f64()).exp();
            let target_pos = match self.topology {
                Topology::Interval => (pos + sign * m).clamp(0.0, 1.0),
                Topology::Ring => (pos + sign * m).rem_euclid(1.0),
            };
            let target = Key::clamped(self.assumed.quantile(target_pos));
            let (v, hops) = self.lookup(u, target);
            self.stats.messages += hops as u64;
            if v != u && !links.contains(&v) {
                links.push(v);
            }
        }
        links
    }

    /// Re-draws the long links of one peer against the *current* network
    /// size (maintenance: as `N` grows, older peers' link budgets and
    /// `1/N` thresholds go stale).
    pub fn refresh(&mut self, u: NodeId, rng: &mut Rng) {
        let links = self.draw_long_links(u, rng);
        self.long[u as usize] = links;
        self.stats.refreshes += 1;
    }

    /// Refreshes every peer once (a full maintenance round).
    pub fn refresh_all(&mut self, rng: &mut Rng) {
        for u in 0..self.keys.len() as NodeId {
            self.refresh(u, rng);
        }
    }

    /// Freezes the grown network into a [`SmallWorldNetwork`] (dense ids
    /// in key order) for measurement with the standard survey machinery.
    pub fn snapshot(&self) -> SmallWorldNetwork {
        let keys: Vec<Key> = self
            .order
            .iter()
            .map(|&id| self.keys[id as usize])
            .collect();
        let placement = Placement::from_keys(keys, self.topology, self.assumed.name())
            .expect("grown network keys are sorted and distinct");
        // Map stable ids -> dense (order) ids.
        let long: Vec<Vec<NodeId>> = self
            .order
            .iter()
            .map(|&id| {
                self.long[id as usize]
                    .iter()
                    .map(|&v| self.pos[v as usize] as NodeId)
                    .collect()
            })
            .collect();
        let config = SmallWorldConfig {
            topology: self.topology,
            out_degree: self.out_degree,
            ..SmallWorldConfig::default()
        };
        SmallWorldNetwork::assemble(
            placement,
            self.assumed.clone(),
            config,
            sw_graph::Topology::from_rows(&long),
            format!("sw-grown({})", self.assumed.name()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_keyspace::distribution::{TruncatedPareto, Uniform};

    fn seeds(k: usize) -> Vec<Key> {
        (0..k)
            .map(|i| Key::clamped((i as f64 + 0.5) / k as f64))
            .collect()
    }

    fn grow(n: usize, dist: Arc<dyn KeyDistribution>, seed: u64) -> GrowingNetwork {
        let mut net =
            GrowingNetwork::bootstrap(&seeds(4), dist, Topology::Interval, OutDegree::Log2N);
        let mut rng = Rng::new(seed);
        while net.len() < n {
            net.join(&mut rng);
        }
        net
    }

    #[test]
    fn bootstrap_requires_two_seeds() {
        let r = std::panic::catch_unwind(|| {
            GrowingNetwork::bootstrap(
                &seeds(1),
                Arc::new(Uniform),
                Topology::Interval,
                OutDegree::Log2N,
            )
        });
        assert!(r.is_err());
    }

    #[test]
    fn join_keeps_order_and_pos_consistent() {
        let net = grow(200, Arc::new(Uniform), 1);
        assert_eq!(net.len(), 200);
        for w in net.order.windows(2) {
            assert!(net.keys[w[0] as usize] < net.keys[w[1] as usize]);
        }
        for (i, &id) in net.order.iter().enumerate() {
            assert_eq!(net.pos[id as usize], i);
        }
    }

    #[test]
    fn joins_cost_logarithmic_messages() {
        let net = grow(512, Arc::new(Uniform), 2);
        let per_join = net.stats().messages as f64 / net.stats().joins as f64;
        // Each join does ~log2 N lookups of ~log2 N hops: O(log^2 N).
        // For N=512 that is ~81 plus constants; assert a sane ceiling.
        assert!(per_join < 200.0, "messages/join = {per_join}");
        assert!(per_join > 5.0, "suspiciously cheap: {per_join}");
    }

    #[test]
    fn grown_network_routes_logarithmically() {
        let net = grow(1024, Arc::new(Uniform), 3);
        let snap = net.snapshot();
        let mut rng = Rng::new(4);
        let s = snap.routing_survey(300, &mut rng);
        assert!(s.success_rate() > 0.999);
        assert!(s.hops.mean() < 15.0, "hops {}", s.hops.mean());
    }

    #[test]
    fn grown_skewed_network_routes_well_after_refresh() {
        let dist = Arc::new(TruncatedPareto::new(1.5, 0.01).unwrap());
        let mut net = grow(1024, dist, 5);
        let mut rng = Rng::new(6);
        // Early joiners built their links when N was small; one refresh
        // round brings everyone to the current N.
        net.refresh_all(&mut rng);
        let snap = net.snapshot();
        let s = snap.routing_survey(300, &mut rng);
        assert!(s.success_rate() > 0.999);
        assert!(s.hops.mean() < 15.0, "hops {}", s.hops.mean());
    }

    #[test]
    fn snapshot_preserves_link_count() {
        let net = grow(256, Arc::new(Uniform), 7);
        let snap = net.snapshot();
        let total: usize = net.long.iter().map(Vec::len).sum();
        assert_eq!(snap.total_long_links(), total);
    }

    #[test]
    fn refresh_updates_stats() {
        let mut net = grow(64, Arc::new(Uniform), 8);
        let mut rng = Rng::new(9);
        let before = net.stats().refreshes;
        net.refresh(3, &mut rng);
        assert_eq!(net.stats().refreshes, before + 1);
    }

    #[test]
    fn lookup_finds_nearest_peer() {
        let net = grow(128, Arc::new(Uniform), 10);
        let mut rng = Rng::new(11);
        for _ in 0..50 {
            let target = Key::clamped(rng.f64());
            let from = net.random_peer(&mut rng);
            let (found, _) = net.lookup(from, target);
            // Exhaustive check.
            let best = (0..net.len() as NodeId)
                .min_by(|&a, &b| {
                    net.distance(net.key_of(a), target)
                        .total_cmp(&net.distance(net.key_of(b), target))
                })
                .unwrap();
            assert_eq!(found, best);
        }
    }
}
