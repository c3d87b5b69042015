//! The key-value / range-query store.
//!
//! * **Ownership** — successor rule: the peer with the first key
//!   clockwise at-or-after an item's key owns it (both topologies are
//!   treated as a ring for ownership, so every key has exactly one
//!   owner).
//! * **Replication** — an item is copied to the owner's `r − 1`
//!   immediate successors; `get` falls back along the chain when peers
//!   are dead (availability under failures — the §3.1 robustness story
//!   at the data layer).
//! * **Ranges** — contiguous key ranges live on contiguous peers, so a
//!   range query is one `O(log2 N)` greedy route plus a linear sweep of
//!   exactly the peers owning the range.

use crate::shard::{on_sweep_arc, ShardMap};
use sw_graph::NodeId;
use sw_keyspace::Key;
use sw_overlay::route::RouteOptions;
use sw_overlay::Overlay;

/// Cost accounting for one operation, in overlay messages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Greedy routing hops to reach the owner region.
    pub hops: u32,
    /// Additional one-hop messages to replicas / swept peers.
    pub extra_messages: u32,
}

impl OpCost {
    /// Total overlay messages.
    pub fn total(&self) -> u32 {
        self.hops + self.extra_messages
    }
}

/// Result of a range query.
#[derive(Debug, Clone)]
pub struct RangeResult {
    /// Matching `(key, value)` pairs in ascending key order.
    pub items: Vec<(Key, Vec<u8>)>,
    /// Message cost (route + sweep).
    pub cost: OpCost,
    /// Number of peers that served part of the range.
    pub peers_visited: usize,
}

/// Errors surfaced by DHT operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhtError {
    /// Greedy routing failed (only possible with degraded overlays).
    RoutingFailed,
    /// The key exists on no reachable replica.
    NotFound,
    /// The requested origin peer is dead.
    OriginDead(NodeId),
}

impl std::fmt::Display for DhtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhtError::RoutingFailed => write!(f, "greedy routing failed"),
            DhtError::NotFound => write!(f, "key not found on any reachable replica"),
            DhtError::OriginDead(id) => write!(f, "origin peer {id} is dead"),
        }
    }
}

impl std::error::Error for DhtError {}

/// An order-preserving key-value store over an overlay network.
///
/// The store holds every copy in one [`ShardMap`], one shard per holder
/// peer: a copy is primary iff its key lies on its holder's arc
/// `(pred, self]`, and a replica otherwise. The overlay is only used for
/// routing, so any [`Overlay`] implementation works — the paper's
/// small-world networks, Chord, Mercury, …
pub struct Dht<'a> {
    overlay: &'a dyn Overlay,
    replication: usize,
    /// Every copy, sharded by holder peer.
    shards: ShardMap,
    /// Failure injection: a dead peer's copies are unreachable.
    dead: Vec<bool>,
    opts: RouteOptions,
}

impl<'a> Dht<'a> {
    /// Creates an empty store with `replication` total copies per item
    /// (clamped to at least 1 and at most the overlay size).
    pub fn new(overlay: &'a dyn Overlay, replication: usize) -> Self {
        let n = overlay.placement().len();
        Dht {
            replication: replication.clamp(1, n),
            shards: ShardMap::new(n),
            dead: vec![false; n],
            opts: RouteOptions {
                record_path: false,
                ..RouteOptions::for_n(n)
            },
            overlay,
        }
    }

    /// The replication factor in effect.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Total number of primary items stored: the copies on their
    /// holder's arc.
    pub fn len(&self) -> usize {
        let p = self.overlay.placement();
        (0..p.len() as NodeId)
            .map(|u| self.shards.arc_digest(u, p.key(p.prev(u)), p.key(u)).count as usize)
            .sum()
    }

    /// Every copy, one shard per holder (read-only — for bulk analytics
    /// and tests).
    pub fn shards(&self) -> &ShardMap {
        &self.shards
    }

    /// True if the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Marks a peer dead (its copies become unreachable).
    pub fn kill(&mut self, peer: NodeId) {
        self.dead[peer as usize] = true;
    }

    /// True if the peer is alive.
    pub fn is_alive(&self, peer: NodeId) -> bool {
        !self.dead[peer as usize]
    }

    /// Successor-rule owner of a key.
    pub fn owner_of(&self, key: Key) -> NodeId {
        self.overlay.placement().successor(key)
    }

    /// Routes from `origin` toward `key` and returns `(owner, hops)`.
    ///
    /// Greedy routing terminates at the *nearest* peer; the owner under
    /// successor semantics is that peer or its direct ring successor —
    /// one extra hop at most, which is charged to the cost.
    fn route_to_owner(&self, origin: NodeId, key: Key) -> Result<(NodeId, OpCost), DhtError> {
        if self.dead[origin as usize] {
            return Err(DhtError::OriginDead(origin));
        }
        let r = self.overlay.route(origin, key, &self.opts);
        if !r.success {
            return Err(DhtError::RoutingFailed);
        }
        let nearest = *r.path.last().expect("route paths are nonempty");
        let owner = self.owner_of(key);
        let mut cost = OpCost {
            hops: r.hops,
            extra_messages: 0,
        };
        if owner != nearest {
            cost.extra_messages += 1;
        }
        Ok((owner, cost))
    }

    /// The owner's replica chain: `r − 1` immediate successors.
    fn replica_chain(&self, owner: NodeId) -> Vec<NodeId> {
        let p = self.overlay.placement();
        let mut chain = Vec::with_capacity(self.replication - 1);
        let mut cur = owner;
        for _ in 1..self.replication {
            cur = p.next(cur);
            if cur == owner {
                break; // tiny network: chain wrapped
            }
            chain.push(cur);
        }
        chain
    }

    /// Stores `value` under `key`, routing from `origin`. Overwrites any
    /// previous value. Dead replicas are skipped (not an error); a dead
    /// *owner* still accepts the primary copy only if alive, otherwise
    /// the first alive replica holds the authoritative copy.
    pub fn put(&mut self, origin: NodeId, key: Key, value: Vec<u8>) -> Result<OpCost, DhtError> {
        let (owner, mut cost) = self.route_to_owner(origin, key)?;
        let mut stored = false;
        if self.is_alive(owner) {
            self.shards.insert(owner, key, value.clone());
            stored = true;
        }
        for r in self.replica_chain(owner) {
            cost.extra_messages += 1;
            if self.is_alive(r) {
                self.shards.insert(r, key, value.clone());
                stored = true;
            }
        }
        if stored {
            Ok(cost)
        } else {
            Err(DhtError::RoutingFailed)
        }
    }

    /// Fetches the value for `key`, routing from `origin`; falls back to
    /// the replica chain if the owner is dead or missing the item.
    pub fn get(&self, origin: NodeId, key: Key) -> Result<(Vec<u8>, OpCost), DhtError> {
        let (owner, mut cost) = self.route_to_owner(origin, key)?;
        if self.is_alive(owner) {
            if let Some(v) = self.shards.get(owner, key) {
                return Ok((v.clone(), cost));
            }
        }
        for r in self.replica_chain(owner) {
            cost.extra_messages += 1;
            if self.is_alive(r) {
                if let Some(v) = self.shards.get(r, key) {
                    return Ok((v.clone(), cost));
                }
            }
        }
        Err(DhtError::NotFound)
    }

    /// Deletes `key` from the owner and every replica. Returns the cost;
    /// deleting an absent key is not an error.
    ///
    /// Dead peers are skipped exactly as [`Dht::get`] skips them: an
    /// unreachable peer cannot process a delete, so its stale copy
    /// survives (and stays unreachable until the peer does).
    pub fn remove(&mut self, origin: NodeId, key: Key) -> Result<OpCost, DhtError> {
        let (owner, mut cost) = self.route_to_owner(origin, key)?;
        if self.is_alive(owner) {
            self.shards.remove(owner, key);
        }
        for r in self.replica_chain(owner) {
            cost.extra_messages += 1;
            if self.is_alive(r) {
                self.shards.remove(r, key);
            }
        }
        Ok(cost)
    }

    /// Answers the range query `[lo, hi)`: one greedy route to `lo`,
    /// then a clockwise sweep over the peers owning the range.
    ///
    /// A peer owns `(pred, self]` on the ring, and the sweep stops at
    /// the first peer whose arc holds `hi`. It visits the peers whose
    /// keys lie in `[lo, hi)` plus one: a range above the highest key
    /// ends at the wrap owner, which owns the top of the ring, so a
    /// range over every peer key comes back to its first owner. Each
    /// peer serves its rows of the range on that arc
    /// ([`on_sweep_arc`]), never a replica copy.
    ///
    /// Items on dead peers are silently missing from the result (their
    /// replicas are not consulted — range reads are primary-only, as in
    /// most range-partitioned stores).
    pub fn range(&self, origin: NodeId, lo: Key, hi: Key) -> Result<RangeResult, DhtError> {
        if hi <= lo {
            return Ok(RangeResult {
                items: Vec::new(),
                cost: OpCost::default(),
                peers_visited: 0,
            });
        }
        let (first_owner, mut cost) = self.route_to_owner(origin, lo)?;
        let p = self.overlay.placement();
        let mut items = Vec::new();
        let mut peer = first_owner;
        let mut peers_visited = 0usize;
        // Of the range the first owner holds `[lo, own key]`, each later
        // peer `(previous key, own key]`; equal ends hold no `hi`.
        let mut from = None;
        loop {
            peers_visited += 1;
            let own = p.key(peer);
            let on_arc = |k: Key| on_sweep_arc(lo, from, own, k);
            if self.is_alive(peer) {
                let rows = self.shards.shard_range(peer, lo, hi);
                items.extend(
                    rows.filter(|(k, _)| on_arc(**k))
                        .map(|(k, v)| (*k, v.clone())),
                );
            }
            if on_arc(hi) {
                break;
            }
            from = Some(own);
            peer = p.next(peer);
            cost.extra_messages += 1;
        }
        items.sort_by_key(|(k, _)| *k);
        Ok(RangeResult {
            items,
            cost,
            peers_visited,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_core::SmallWorldBuilder;
    use sw_core::SmallWorldNetwork;
    use sw_keyspace::distribution::TruncatedPareto;
    use sw_keyspace::{Rng, Topology};

    fn ring_net(n: usize, seed: u64) -> SmallWorldNetwork {
        let mut rng = Rng::new(seed);
        SmallWorldBuilder::new(n)
            .topology(Topology::Ring)
            .build(&mut rng)
            .unwrap()
    }

    fn key(v: f64) -> Key {
        Key::new(v).unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let net = ring_net(128, 1);
        let mut dht = Dht::new(&net, 1);
        let cost = dht.put(0, key(0.37), b"hello".to_vec()).unwrap();
        assert!(cost.hops <= 20);
        let (v, _) = dht.get(99, key(0.37)).unwrap();
        assert_eq!(v, b"hello");
        assert_eq!(dht.len(), 1);
    }

    #[test]
    fn overwrite_replaces_value() {
        let net = ring_net(64, 2);
        let mut dht = Dht::new(&net, 2);
        dht.put(0, key(0.5), b"one".to_vec()).unwrap();
        dht.put(1, key(0.5), b"two".to_vec()).unwrap();
        let (v, _) = dht.get(2, key(0.5)).unwrap();
        assert_eq!(v, b"two");
        assert_eq!(dht.len(), 1, "overwrite, not duplicate");
    }

    #[test]
    fn missing_key_is_not_found() {
        let net = ring_net(64, 3);
        let dht = Dht::new(&net, 2);
        assert_eq!(dht.get(0, key(0.9)).unwrap_err(), DhtError::NotFound);
    }

    #[test]
    fn remove_deletes_all_copies() {
        let net = ring_net(64, 4);
        let mut dht = Dht::new(&net, 3);
        dht.put(0, key(0.25), b"x".to_vec()).unwrap();
        dht.remove(5, key(0.25)).unwrap();
        assert_eq!(dht.get(0, key(0.25)).unwrap_err(), DhtError::NotFound);
        assert!(dht.is_empty());
    }

    #[test]
    fn item_lands_on_successor_owner() {
        let net = ring_net(128, 5);
        let mut dht = Dht::new(&net, 1);
        let k = key(0.61803);
        dht.put(0, k, b"phi".to_vec()).unwrap();
        let owner = dht.owner_of(k);
        // Only the owner's shard holds a copy.
        for u in 0..128 {
            let has = dht.shards().contains(u, k);
            assert_eq!(has, u == owner, "peer {u}");
        }
        assert!(net.placement().key(owner) >= k || owner == 0);
    }

    #[test]
    fn replication_factor_copies() {
        let net = ring_net(64, 6);
        let mut dht = Dht::new(&net, 3);
        let k = key(0.111);
        dht.put(0, k, b"r".to_vec()).unwrap();
        let owner = dht.owner_of(k);
        let replicas: usize = (0..64)
            .filter(|&u| u != owner && dht.shards().contains(u, k))
            .count();
        assert_eq!(replicas, 2, "owner + 2 replicas for r = 3");
        assert_eq!(dht.shards().len(), 3);
        assert_eq!(dht.len(), 1, "one copy on its holder's arc");
    }

    #[test]
    fn owner_death_falls_back_to_replicas() {
        let net = ring_net(128, 7);
        let mut dht = Dht::new(&net, 3);
        let k = key(0.42);
        dht.put(0, k, b"safe".to_vec()).unwrap();
        let owner = dht.owner_of(k);
        dht.kill(owner);
        let (v, cost) = dht.get(0, k).unwrap();
        assert_eq!(v, b"safe");
        assert!(cost.extra_messages >= 1, "needed a replica hop");
    }

    #[test]
    fn losing_every_replica_loses_the_item() {
        let net = ring_net(128, 8);
        let mut dht = Dht::new(&net, 2);
        let k = key(0.77);
        dht.put(0, k, b"gone".to_vec()).unwrap();
        let owner = dht.owner_of(k);
        dht.kill(owner);
        dht.kill(net.placement().next(owner));
        assert_eq!(dht.get(0, k).unwrap_err(), DhtError::NotFound);
    }

    #[test]
    fn dead_origin_is_rejected() {
        let net = ring_net(64, 9);
        let mut dht = Dht::new(&net, 1);
        dht.kill(5);
        assert_eq!(dht.get(5, key(0.5)).unwrap_err(), DhtError::OriginDead(5));
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let net = ring_net(256, 10);
        let mut dht = Dht::new(&net, 2);
        let mut rng = Rng::new(11);
        let dist = TruncatedPareto::new(1.5, 0.01).unwrap();
        let mut reference: Vec<(Key, Vec<u8>)> = Vec::new();
        use sw_keyspace::distribution::KeyDistribution;
        for i in 0..2000u32 {
            let k = dist.sample_key(&mut rng);
            let v = i.to_le_bytes().to_vec();
            if dht.put(rng.index(256) as u32, k, v.clone()).is_ok() {
                reference.retain(|(rk, _)| *rk != k);
                reference.push((k, v));
            }
        }
        reference.sort_by_key(|(k, _)| *k);
        let ranges = [(0.0, 0.01), (0.005, 0.02), (0.1, 0.5), (0.9, 0.99999)]
            .map(|(lo, hi)| (key(lo), key(hi)));
        // One range starts exactly at a peer key.
        let peer_keys = net.placement().keys();
        let at_peer = (peer_keys[64], peer_keys[80]);
        for (lo, hi) in ranges.into_iter().chain([at_peer]) {
            let got = dht.range(0, lo, hi).unwrap();
            let want: Vec<(Key, Vec<u8>)> = reference
                .iter()
                .filter(|(k, _)| *k >= lo && *k < hi)
                .cloned()
                .collect();
            assert_eq!(got.items.len(), want.len(), "range [{lo},{hi})");
            assert_eq!(got.items, want);
            let covered = net
                .placement()
                .keys()
                .iter()
                .filter(|&&k| k >= lo && k < hi)
                .count();
            assert_eq!(got.peers_visited, covered + 1, "range [{lo},{hi})");
        }
    }

    /// Every peer key fits inside one range of width 0.02, so the sweep
    /// runs from the first owner round the ring and back to it, which
    /// serves the items above the top peer. Each item in the range is
    /// served once: none in `[lo, first owner]` twice, none above the
    /// top peer missed.
    #[test]
    fn a_range_over_every_peer_key_serves_each_item_once() {
        use sw_overlay::Placement;
        let n = 32;
        let keys: Vec<Key> = (0..n).map(|i| key(0.5 + 0.0005 * i as f64)).collect();
        let placement = Placement::from_keys(keys, Topology::Ring, "narrow").unwrap();
        let mut rng = Rng::new(15);
        let net = SmallWorldBuilder::new(n)
            .topology(Topology::Ring)
            .build_on(placement, &mut rng)
            .unwrap();
        let mut dht = Dht::new(&net, 2);
        let (lo, hi) = (key(0.499), key(0.519));
        let stored: Vec<Key> = [0.4995, 0.5, 0.5002, 0.507, 0.5155, 0.517, 0.5185]
            .map(key)
            .to_vec();
        for (i, &k) in stored.iter().enumerate() {
            dht.put(i as u32, k, vec![i as u8]).unwrap();
        }
        let got = dht.range(3, lo, hi).unwrap();
        let got_keys: Vec<Key> = got.items.iter().map(|(k, _)| *k).collect();
        assert_eq!(got_keys, stored);
        assert_eq!(got.peers_visited, n + 1, "every peer, then the first again");
    }

    #[test]
    fn empty_and_inverted_ranges() {
        let net = ring_net(64, 12);
        let mut dht = Dht::new(&net, 1);
        dht.put(0, key(0.5), b"x".to_vec()).unwrap();
        let r = dht.range(0, key(0.8), key(0.2)).unwrap();
        assert!(r.items.is_empty());
        assert_eq!(r.peers_visited, 0);
        let r = dht.range(0, key(0.6), key(0.7)).unwrap();
        assert!(r.items.is_empty());
    }

    #[test]
    fn range_cost_scales_with_range_width_not_corpus() {
        let net = ring_net(256, 13);
        let mut dht = Dht::new(&net, 1);
        let mut rng = Rng::new(14);
        use sw_keyspace::distribution::{KeyDistribution, Uniform};
        for i in 0..4000u32 {
            let k = Uniform.sample_key(&mut rng);
            let _ = dht.put(rng.index(256) as u32, k, i.to_le_bytes().to_vec());
        }
        let narrow = dht.range(0, key(0.40), key(0.42)).unwrap();
        let wide = dht.range(0, key(0.10), key(0.60)).unwrap();
        assert!(
            narrow.peers_visited < 16,
            "narrow: {}",
            narrow.peers_visited
        );
        assert!(
            wide.peers_visited > 4 * narrow.peers_visited,
            "wide sweep covers proportionally more peers"
        );
    }

    #[test]
    fn dead_peers_never_accept_writes() {
        // Regression: `remove` used to mutate dead peers' shards (a dead
        // owner accepted a primary delete). Dead peers must be skipped by
        // every mutation exactly as `get` skips them on reads.
        let net = ring_net(128, 20);
        let mut dht = Dht::new(&net, 3);
        let k = key(0.42);
        dht.put(0, k, b"before".to_vec()).unwrap();
        let owner = dht.owner_of(k);
        let first_replica = net.placement().next(owner);
        dht.kill(owner);
        dht.kill(first_replica);

        // A put routed while owner + first replica are dead must leave
        // their shards untouched (stale "before" copies survive).
        dht.put(5, k, b"after".to_vec()).unwrap();
        assert_eq!(dht.shards().get(owner, k), Some(&b"before".to_vec()));
        assert_eq!(
            dht.shards().get(first_replica, k),
            Some(&b"before".to_vec())
        );

        // A remove must skip them too: the dead owner's stale primary
        // copy survives, while every alive replica drops the key.
        dht.remove(5, k).unwrap();
        assert!(
            dht.shards().contains(owner, k),
            "dead owner processed a delete"
        );
        assert!(dht.shards().contains(first_replica, k));
        for u in 0..128u32 {
            if u != owner && u != first_replica {
                assert!(!dht.shards().contains(u, k), "alive peer {u}");
            }
        }
        // The surviving copies are unreachable: reads agree it is gone.
        assert_eq!(dht.get(5, k).unwrap_err(), DhtError::NotFound);
    }

    #[test]
    fn replication_is_clamped() {
        let net = ring_net(8, 15);
        let dht = Dht::new(&net, 1000);
        assert_eq!(dht.replication(), 8);
        let dht = Dht::new(&net, 0);
        assert_eq!(dht.replication(), 1);
    }

    #[test]
    fn error_messages_render() {
        assert!(DhtError::NotFound.to_string().contains("not found"));
        assert!(DhtError::RoutingFailed.to_string().contains("routing"));
        assert!(DhtError::OriginDead(3).to_string().contains('3'));
    }
}
