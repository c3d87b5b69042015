//! The world: what no peer could know.
//!
//! [`World`] owns the key distribution f, the alive index and liveness
//! (stored once, in the lane [`World::is_alive`] reads), the generator
//! streams and the ledgers. Its fields are private to this module, so
//! the engine reaches it only through named methods. Its own methods
//! are services that stay: delivery truth (a message to a dead peer is
//! lost, and a dead holder, requester or timer owner acts no more), the
//! workload and churn draws, the ledgers, and the ground truth the
//! measurement API reads. What a handler reads that its peer could not
//! know goes through [`World::oracle`]; see [`Oracle`].

use crate::engine::{SimConfig, SuccList, PREDECESSOR_LIST, SUCCESSOR_LIST};
use crate::metrics::SimMetrics;
use crate::protocol::Source;
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::Arc;
use sw_graph::prefetch::prefetch_read;
use sw_graph::{IdMap, LinkTable, Topology};
use sw_keyspace::distribution::KeyDistribution;
use sw_keyspace::Topology as Metric;
use sw_keyspace::{Key, Rng};
use sw_overlay::Placement;

/// RNG stream indices: the generator processes, the timer stagger, the
/// preload and the link-probe targets.
pub(crate) mod stream {
    /// Join, fail, lookup, put, get, range, traffic: indexed by `Source`.
    pub(super) const GENERATORS: [u64; 7] = [0x101, 0x102, 0x103, 0x104, 0x105, 0x106, 0x10B];
    pub const TIMER: u64 = 0x107;
    pub const PRELOAD: u64 = 0x108;
    pub const LINK: u64 = 0x109;
}

/// A stored key's live-copy state.
#[derive(Debug, Clone, Copy, Default)]
struct CopyState {
    /// Distinct live peers holding a copy (primary or replica).
    copies: u32,
    /// When a removal knocked the key below the replication target
    /// (`None` while fully replicated or still building up).
    under_since: Option<SimTime>,
}

/// Ground truth: see the module docs.
pub(crate) struct World {
    dist: Arc<dyn KeyDistribution>,
    /// Alive index: key → peer id.
    alive: BTreeMap<Key, u32>,
    /// Alive ids in O(1)-sample order (swap-remove on failure).
    alive_ids: Vec<u32>,
    /// Each peer's position in `alive_ids`, `u32::MAX` once it failed:
    /// the liveness lane, one entry per peer ever registered.
    alive_pos: Vec<u32>,
    /// One stream per generator process, indexed by [`Source`].
    streams: [Rng; 7],
    copies: IdMap<Key, CopyState>,
    /// The replication target the copy counts are held against.
    copy_target: u32,
    /// Network messages `[offered, dropped, delivered, dead]`.
    net: [u64; 4],
}

impl World {
    /// Every peer of `keys` (ascending: peer id is key rank) alive, and
    /// every stream at its seeded start.
    pub(crate) fn new(cfg: &SimConfig, dist: Arc<dyn KeyDistribution>, keys: &[Key]) -> World {
        let n = keys.len() as u32;
        World {
            dist,
            alive: keys.iter().copied().zip(0..n).collect(),
            alive_ids: (0..n).collect(),
            alive_pos: (0..n).collect(),
            streams: stream::GENERATORS.map(|id| Rng::stream(cfg.seed, id)),
            copies: IdMap::default(),
            copy_target: cfg.storage.replication.max(1) as u32,
            net: [0; 4],
        }
    }

    #[inline]
    pub(crate) fn is_alive(&self, v: u32) -> bool {
        self.alive_pos[v as usize] != u32::MAX
    }

    #[inline]
    pub(crate) fn prefetch_liveness(&self, v: u32) {
        prefetch_read(self.alive_pos.as_ptr().wrapping_add(v as usize));
    }

    /// Alive peers: the measurement API's ground truth. A handler reads
    /// n through [`Oracle::population`].
    pub(crate) fn population(&self) -> usize {
        self.alive.len()
    }

    /// The reads a peer could not make itself.
    pub(crate) fn oracle(&self) -> Oracle<'_> {
        Oracle { world: self }
    }

    /// Process `src`'s stream, for its inter-arrival times and its
    /// draws over pools the engine holds.
    pub(crate) fn stream(&mut self, src: Source) -> &mut Rng {
        &mut self.streams[src as usize]
    }

    pub(crate) fn sample_key(&mut self, src: Source) -> Key {
        self.dist.sample_key(&mut self.streams[src as usize])
    }

    /// A joining peer's key: drawn from f on the join stream until no
    /// live peer holds it.
    pub(crate) fn joining_key(&mut self) -> Key {
        loop {
            let key = self.sample_key(Source::Join);
            if !self.alive.contains_key(&key) {
                return key;
            }
        }
    }

    /// A live peer drawn on `src`'s stream by the arc it owns (the owner
    /// of a uniform key), the realistic model for *workload* draws.
    pub(crate) fn random_alive(&mut self, src: Source) -> u32 {
        let probe = Key::clamped(self.streams[src as usize].f64());
        self.owner_of(probe)
    }

    /// The successor-rule owner of `key`: the first live peer at or
    /// above it, wrapping to the lowest.
    pub(crate) fn owner_of(&self, key: Key) -> u32 {
        let first = self.alive.range(key..).chain(&self.alive).next();
        *first.expect("the population floor keeps peers alive").1
    }

    /// A joining peer at `key` comes up under the next unused id, unless
    /// a live peer took `key` first.
    pub(crate) fn join(&mut self, key: Key) -> Option<u32> {
        if self.alive.contains_key(&key) {
            return None;
        }
        let id = self.alive_pos.len() as u32;
        self.alive.insert(key, id);
        self.alive_pos.push(self.alive_ids.len() as u32);
        self.alive_ids.push(id);
        Some(id)
    }

    /// A live peer drawn uniformly on the fail stream goes down, unless
    /// the population is at its floor of 8. `keys[id]` is peer `id`'s key.
    pub(crate) fn fail(&mut self, keys: &[Key]) -> Option<u32> {
        if self.alive.len() <= 8 {
            return None;
        }
        let draw = self.streams[Source::Fail as usize].index(self.alive_ids.len());
        let victim = self.alive_ids[draw];
        self.take_down(victim, keys);
        Some(victim)
    }

    /// Live peer `victim` goes down. `keys[id]` is peer `id`'s key.
    pub(crate) fn take_down(&mut self, victim: u32, keys: &[Key]) {
        let pos = self.alive_pos[victim as usize];
        self.alive_ids.swap_remove(pos as usize);
        if let Some(&moved) = self.alive_ids.get(pos as usize) {
            self.alive_pos[moved as usize] = pos;
        }
        self.alive_pos[victim as usize] = u32::MAX;
        self.alive.remove(&keys[victim as usize]);
    }

    /// The alive peers re-indexed by key rank, the form the probe
    /// snapshot and `Simulator::live_overlay` read the live state in:
    /// `rank[id]` (`u32::MAX` for a dead peer), the placement of the
    /// alive keys, and the CSR whose row `r` is `row_of(id)` of the peer
    /// at rank `r`, over ranks: dead targets dropped, and self links and
    /// repeats too ([`LinkTable`]), each row sorted.
    pub(crate) fn rank_rows<I: IntoIterator<Item = u32>>(
        &self,
        row_of: impl Fn(u32) -> I,
    ) -> (Vec<u32>, Placement, Topology) {
        let mut rank = vec![u32::MAX; self.alive_pos.len()];
        for (r, &id) in self.alive.values().enumerate() {
            rank[id as usize] = r as u32;
        }
        let mut lt = LinkTable::new(self.alive.len());
        for (r, &id) in self.alive.values().enumerate() {
            let row = row_of(id).into_iter().map(|v| rank[v as usize]);
            lt.add_all(r as u32, row.filter(|&v| v != u32::MAX));
        }
        let keys = self.alive.keys().copied().collect();
        let placement = Placement::from_keys(keys, Metric::Ring, self.dist.name())
            .expect("the population floor keeps 8 distinct keys");
        (rank, placement, lt.build())
    }

    /// The t = 0 corpus, a converged network's pre-placed data:
    /// `cfg.storage.preload` keys drawn from f on the preload stream,
    /// each with its owner (one binary search of `keys`, all alive and
    /// ascending) and the owner's first `replication − 1` clockwise peers.
    pub(crate) fn preload(
        &self,
        cfg: &SimConfig,
        keys: &[Key],
    ) -> Vec<(Key, u32, impl Iterator<Item = u32>)> {
        let mut rng = Rng::stream(cfg.seed, stream::PRELOAD);
        let (n, replicas) = (keys.len(), self.copy_target as usize - 1);
        (0..cfg.storage.preload)
            .map(|_| {
                let key = self.dist.sample_key(&mut rng);
                let owner = keys.partition_point(|&k| k < key) % n;
                (key, owner as u32, ground_replica_chain(owner, replicas, n))
            })
            .collect()
    }

    pub(crate) fn count_offered(&mut self) {
        self.net[0] += 1;
    }

    pub(crate) fn count_dropped(&mut self) {
        self.net[1] += 1;
    }

    /// A network message reaches `receiver` (`None`: nobody to test):
    /// whether it is up, counted delivered or dead.
    pub(crate) fn deliver(&mut self, receiver: Option<u32>) -> bool {
        let alive = receiver.is_none_or(|to| self.is_alive(to));
        self.net[if alive { 2 } else { 3 }] += 1;
        alive
    }

    pub(crate) fn net_counters(&self) -> (u64, u64, u64, u64) {
        let [offered, dropped, delivered, dead] = self.net;
        (offered, dropped, delivered, dead)
    }

    /// A distinct peer gained a copy of `key` at `now`.
    pub(crate) fn note_add(&mut self, key: Key, now: SimTime, metrics: &mut SimMetrics) {
        let e = self.copies.entry(key).or_default();
        e.copies += 1;
        if e.copies >= self.copy_target {
            if let Some(since) = e.under_since.take() {
                metrics.keys_under_replicated -= 1;
                metrics.repair_time_secs.push((now - since).as_secs_f64());
            }
        }
    }

    /// A distinct peer lost its copy of `key` at `now`.
    pub(crate) fn note_remove(&mut self, key: Key, now: SimTime, metrics: &mut SimMetrics) {
        let Some(e) = self.copies.get_mut(&key) else {
            debug_assert!(false, "removing an untracked copy");
            return;
        };
        e.copies -= 1;
        if e.copies == 0 {
            if e.under_since.is_some() {
                metrics.keys_under_replicated -= 1;
            }
            self.copies.remove(&key);
            metrics.keys_lost += 1;
        } else if e.copies < self.copy_target && e.under_since.is_none() {
            e.under_since = Some(now);
            metrics.keys_under_replicated += 1;
        }
    }
}

/// The world's answers to what a handler asks but its peer could not
/// know: the ring it did not hear of, whether a contact it did not
/// ping is up, and f and n. Every call is one read a message-passing
/// peer replaces with what it learns, so each method names the ROADMAP
/// item that deletes it.
pub(crate) struct Oracle<'w> {
    world: &'w World,
}

impl Oracle<'_> {
    /// Item 5: the ring state of the peer at `key`, its first
    /// [`SUCCESSOR_LIST`] live successors (fewer when few others are
    /// alive) and [`PREDECESSOR_LIST`] live predecessors, nearest first,
    /// wrapping, never itself. A joiner and each stabilization round
    /// take it whole.
    pub(crate) fn ring_state(&self, key: Key) -> (SuccList, [u32; PREDECESSOR_LIST]) {
        let alive = &self.world.alive;
        let ring = || {
            let after = alive.range((Excluded(key), Unbounded));
            after.chain(alive.range(..key)).map(|(_, &v)| v)
        };
        let mut succ = SuccList::default();
        ring().take(SUCCESSOR_LIST).for_each(|v| succ.push(v));
        let mut preds = ring().rev();
        let floor = "the population floor keeps 8 peers alive";
        (succ, std::array::from_fn(|_| preds.next().expect(floor)))
    }

    /// Item 5: whether `v` is up, read as the outcome of a ping or a
    /// reply that was never sent: stabilization's round trips and its
    /// prune of dead long links, the owner shift past a dead successor
    /// and read repair's check of the owner. Item 11 deletes the last
    /// reader, a link probe's check of its endpoint.
    #[inline]
    pub(crate) fn is_alive(&self, v: u32) -> bool {
        self.world.is_alive(v)
    }

    /// Items 7 and 11: n, for the hop and link budgets and the harmonic
    /// scale of the link probes.
    pub(crate) fn population(&self) -> usize {
        self.world.alive.len()
    }

    /// Items 7 and 11: F at `x`, a link probe's own position in mass.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        self.world.dist.cdf(x)
    }

    /// Items 7 and 11: F⁻¹ at `p`, a link probe's target.
    pub(crate) fn quantile(&self, p: f64) -> f64 {
        self.world.dist.quantile(p)
    }
}

/// The first `count` peers clockwise of `owner` among `n` alive peers
/// by key rank, capped at the other `n − 1`: private to the t = 0
/// preload, where that arithmetic holds, so no handler can call it.
fn ground_replica_chain(owner: usize, count: usize, n: usize) -> impl Iterator<Item = u32> {
    (1..=count.min(n - 1)).map(move |d| ((owner + d) % n) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use sw_keyspace::distribution::Uniform;

    impl World {
        /// The alive index, `alive_ids` and `alive_pos`, for tests that
        /// check them against a model.
        pub(crate) fn index(&self) -> (&BTreeMap<Key, u32>, &[u32], &[u32]) {
            (&self.alive, &self.alive_ids, &self.alive_pos)
        }

        /// Distinct live peers holding a copy of `key`.
        pub(crate) fn live_copies(&self, key: Key) -> u32 {
            self.copies.get(&key).map_or(0, |c| c.copies)
        }
    }

    // The world's liveness against a `BTreeSet<u32>` model of the alive
    // ids, over random joins (fresh keys and taken ones) and fails, in
    // phases that lean toward fails, so the population floor is hit, and
    // then toward joins. After every call: the alive index, `alive_ids`
    // / `alive_pos` and `is_alive` agree with the model; `owner_of` is a
    // linear successor search, wrapping to the lowest key; `ring_state`
    // is the model's next four and previous five alive ids by key; and
    // the victim a fail returns was alive.
    proptest! {
        #[test]
        fn world_liveness_matches_the_set_model(seed in 0u64..64) {
            let mut rng = Rng::new(seed ^ 0x3041_D5EE);
            let n0 = 8 + rng.index(24);
            let mut keys: Vec<Key> = (0..n0).map(|_| Key::clamped(rng.f64())).collect();
            keys.sort();
            keys.dedup();
            let cfg = SimConfig { seed, ..SimConfig::default() };
            let mut world = World::new(&cfg, Arc::new(Uniform), &keys);
            let mut model: BTreeSet<u32> = (0..keys.len() as u32).collect();
            let mut floor_hits = 0;
            for step in 0..1_500 {
                let fail_share = if (step / 250) % 2 == 0 { 7 } else { 3 };
                if rng.index(10) < fail_share {
                    let victim = world.fail(&keys);
                    if model.len() <= 8 {
                        prop_assert_eq!(victim, None, "a fail below the floor");
                        floor_hits += 1;
                    } else {
                        let v = victim.expect("a fail above the floor");
                        prop_assert!(model.remove(&v), "victim {} was not alive", v);
                    }
                } else if rng.index(8) == 0 {
                    let taken = *model.iter().nth(rng.index(model.len())).unwrap();
                    prop_assert_eq!(world.join(keys[taken as usize]), None);
                } else {
                    let key = world.joining_key();
                    prop_assert!(model.iter().all(|&v| keys[v as usize] != key));
                    prop_assert_eq!(world.join(key), Some(keys.len() as u32));
                    model.insert(keys.len() as u32);
                    keys.push(key);
                }

                let (alive, ids, pos) = world.index();
                prop_assert_eq!(world.population(), model.len());
                prop_assert_eq!((alive.len(), ids.len()), (model.len(), model.len()));
                prop_assert_eq!(pos.len(), keys.len());
                for (&k, &v) in alive {
                    prop_assert!(model.contains(&v), "dead {} in the index", v);
                    prop_assert_eq!(k, keys[v as usize], "index key of {}", v);
                }
                for (i, &v) in ids.iter().enumerate() {
                    prop_assert_eq!(pos[v as usize], i as u32, "alive_pos of {}", v);
                }
                let mut up = vec![false; keys.len()];
                model.iter().for_each(|&v| up[v as usize] = true);
                for (v, &is_up) in up.iter().enumerate() {
                    prop_assert_eq!(world.is_alive(v as u32), is_up, "is_alive({})", v);
                    prop_assert_eq!(pos[v] == u32::MAX, !is_up, "alive_pos of {}", v);
                }

                // The model's ring: alive ids by key.
                let mut ring: Vec<u32> = model.iter().copied().collect();
                ring.sort_by_key(|&v| keys[v as usize]);
                let m = ring.len();
                for probe in [Key::clamped(rng.f64()), keys[rng.index(keys.len())]] {
                    let owner = ring
                        .iter()
                        .copied()
                        .find(|&v| keys[v as usize] >= probe)
                        .unwrap_or(ring[0]);
                    prop_assert_eq!(world.owner_of(probe), owner, "owner of {:?}", probe);
                }
                for _ in 0..2 {
                    let i = rng.index(m);
                    let next = (1..m).map(|d| ring[(i + d) % m]);
                    let succ: Vec<u32> = next.take(SUCCESSOR_LIST).collect();
                    let prev = (1..m).map(|d| ring[(i + m - d) % m]);
                    let preds: Vec<u32> = prev.take(PREDECESSOR_LIST).collect();
                    let (got, got_preds) = world.oracle().ring_state(keys[ring[i] as usize]);
                    prop_assert_eq!(&*got, &succ[..], "successors of {}", ring[i]);
                    prop_assert_eq!(&got_preds[..], &preds[..], "preds of {}", ring[i]);
                }
            }
            prop_assert!(floor_hits > 0, "the fail phases never reached the floor");
        }
    }
}
