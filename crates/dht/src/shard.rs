//! The sharded storage substrate: one shard per holder peer.
//!
//! A [`ShardMap`] holds the physical copies of a range-partitioned store.
//! Each shard is the ordered map of every copy one peer holds. Which of
//! them are primary is not stored: a copy is primary iff its key lies on
//! its holder's arc `(pred, self]` in the holder's current view, and the
//! rest are replicas of its predecessors' arcs. The successor rule keeps
//! an arc's keys contiguous on the ring, so ownership changes under
//! churn move contiguous slices of shards, not individual rows. No
//! slice moves inside the map: a failure drops the dead peer's shard
//! ([`ShardMap::clear_shard`]), and every other move is a message that
//! carries copies [`ShardMap::export`] cloned out of the sender.
//!
//! ## Anti-entropy substrate
//!
//! The simulator's replica-repair protocol is built on the arc-scoped
//! views below: [`ShardMap::arc_digest`] summarises one holder's slice of
//! a ring arc as an order-independent [`RangeDigest`] (cheap to ship,
//! cheap to compare), [`ShardMap::arc_diff`] returns the keys a peer is
//! missing against another's key list, and [`ShardMap::export`] /
//! [`ShardMap::absorb`] move bulk slices with **byte-size accounting**
//! ([`item_bytes`]) so every repair transfer can be charged a per-byte
//! bandwidth delay.

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included, Unbounded};
use sw_keyspace::{splitmix64_mix, Key, Topology};

/// Wire size one stored item accounts for: an 8-byte key plus the value
/// payload. Key-only messages (digests, diffs, pull requests) charge
/// [`KEY_BYTES`] per key.
pub fn item_bytes(value: &[u8]) -> u64 {
    KEY_BYTES + value.len() as u64
}

/// Wire bytes of one key reference.
pub const KEY_BYTES: u64 = 8;

/// Order-independent summary of a key set over one ring arc: the key
/// count and the XOR of per-key mixes. Two peers whose digests agree
/// hold the same key set (up to a vanishing collision probability), so
/// a matching digest ends an anti-entropy round after a single message.
///
/// The digest deliberately covers *keys only*: a stale value under an
/// unchanged key is invisible to it (documented trade-off — the repair
/// protocol targets durability of keys, not value freshness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RangeDigest {
    /// Number of keys in the arc.
    pub count: u64,
    /// XOR of the keys' bit-mixes (order-independent).
    pub hash: u64,
}

impl RangeDigest {
    /// Folds one key into the digest (the workspace-shared splitmix64
    /// finalizer decorrelates adjacent key bit patterns so the XOR fold
    /// does not cancel structured key sets).
    pub fn push(&mut self, key: Key) {
        self.count += 1;
        self.hash ^= splitmix64_mix(key.get().to_bits());
    }
}

/// Every copy one peer holds, ordered by key.
pub type Shard = BTreeMap<Key, Vec<u8>>;

/// True if `key` lies on the arc a sweep of the range `[lo, hi)` holds
/// at the peer whose key is `own`: `(from, own]` above `from`, `from`
/// the previous holder's key, or `[lo, own]` at the sweep's first peer
/// (`from` is `None`). The sweep ends at the first peer whose arc holds
/// `hi`, and a peer that serves only its rows on its arc counts each
/// key of the range once, from whichever copy lies there: the primary
/// on a static ring, or a replica its holder kept of a dead
/// predecessor's arc. A sweep climbs from `lo` and never comes back
/// below `from`: a range over every peer key returns to its first peer,
/// which then serves the range above the top peer, not `[lo, own]` again.
/// So `from` is a peer that served: a peer short of `lo`, whose
/// successor's arc holds it, serves nothing and is no one's `from`.
pub fn on_sweep_arc(lo: Key, from: Option<Key>, own: Key, key: Key) -> bool {
    match from {
        Some(from) => key > from && Topology::Ring.in_arc(from, key, own),
        None => key == lo || (own != lo && Topology::Ring.in_arc(lo, key, own)),
    }
}

/// A store sharded by holder peer.
///
/// Shards are indexed by peer id and created lazily as the peer
/// population grows; an id without inserted items costs one empty
/// `BTreeMap`.
#[derive(Debug, Clone, Default)]
pub struct ShardMap {
    shards: Vec<Shard>,
    len: usize,
}

impl ShardMap {
    /// An empty map with `n` pre-allocated shards. Any other shard is
    /// created on its owner's first insert, so `ShardMap::new(0)` holds
    /// no per-owner memory until something is stored.
    pub fn new(n: usize) -> ShardMap {
        ShardMap {
            shards: vec![Shard::new(); n],
            len: 0,
        }
    }

    /// Number of shards (the highest owner id seen, plus one).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total items across all shards (O(1) — maintained on mutation).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no shard holds anything.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items in `owner`'s shard.
    pub fn shard_len(&self, owner: u32) -> usize {
        self.shards.get(owner as usize).map_or(0, Shard::len)
    }

    /// Read-only view of one shard (empty slice of the key space if the
    /// owner was never seen).
    pub fn shard(&self, owner: u32) -> Option<&Shard> {
        self.shards.get(owner as usize)
    }

    fn ensure(&mut self, owner: u32) -> &mut Shard {
        let idx = owner as usize;
        if idx >= self.shards.len() {
            self.shards.resize_with(idx + 1, Shard::new);
        }
        &mut self.shards[idx]
    }

    /// Inserts into `owner`'s shard, returning any displaced value.
    pub fn insert(&mut self, owner: u32, key: Key, value: Vec<u8>) -> Option<Vec<u8>> {
        let old = self.ensure(owner).insert(key, value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Looks up `key` in `owner`'s shard only.
    pub fn get(&self, owner: u32, key: Key) -> Option<&Vec<u8>> {
        self.shards.get(owner as usize)?.get(&key)
    }

    /// True if `owner`'s shard holds `key`.
    pub fn contains(&self, owner: u32, key: Key) -> bool {
        self.get(owner, key).is_some()
    }

    /// Removes `key` from `owner`'s shard.
    pub fn remove(&mut self, owner: u32, key: Key) -> Option<Vec<u8>> {
        let old = self.shards.get_mut(owner as usize)?.remove(&key);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Drops `owner`'s shard contents (the peer left or lost its disk);
    /// returns how many items were lost.
    pub fn clear_shard(&mut self, owner: u32) -> usize {
        let Some(s) = self.shards.get_mut(owner as usize) else {
            return 0;
        };
        let dropped = s.len();
        s.clear();
        self.len -= dropped;
        dropped
    }

    /// Items of `owner`'s shard in `[lo, hi)`, ascending.
    pub fn shard_range(
        &self,
        owner: u32,
        lo: Key,
        hi: Key,
    ) -> impl Iterator<Item = (&Key, &Vec<u8>)> {
        let shard = self.shards.get(owner as usize).filter(|_| lo < hi);
        shard.into_iter().flat_map(move |s| s.range(lo..hi))
    }

    // ----- anti-entropy substrate ------------------------------------

    /// Visits `owner`'s items on the clockwise ring arc `(from, upto]`,
    /// handling wrap-around (two ordered sub-ranges: above `from`, then
    /// up to `upto`). `from == upto` reads as the full shard (the
    /// degenerate single-owner arc, matching `Topology::Ring::in_arc`).
    fn for_arc(&self, owner: u32, from: Key, upto: Key, mut f: impl FnMut(Key, &Vec<u8>)) {
        let Some(s) = self.shards.get(owner as usize) else {
            return;
        };
        if from == upto {
            for (k, v) in s.iter() {
                f(*k, v);
            }
        } else if from < upto {
            for (k, v) in s.range((Excluded(from), Included(upto))) {
                f(*k, v);
            }
        } else {
            for (k, v) in s.range((Excluded(from), Unbounded)) {
                f(*k, v);
            }
            for (k, v) in s.range((Unbounded, Included(upto))) {
                f(*k, v);
            }
        }
    }

    /// Digest of `owner`'s keys on the arc `(from, upto]`.
    pub fn arc_digest(&self, owner: u32, from: Key, upto: Key) -> RangeDigest {
        let mut d = RangeDigest::default();
        self.for_arc(owner, from, upto, |k, _| d.push(k));
        d
    }

    /// `owner`'s keys on the arc `(from, upto]`. For a wrapped arc the
    /// order is the two ordered sub-ranges concatenated (deterministic,
    /// but not globally sorted) — sort before binary searching.
    pub fn arc_keys(&self, owner: u32, from: Key, upto: Key) -> Vec<Key> {
        let mut out = Vec::new();
        self.for_arc(owner, from, upto, |k, _| out.push(k));
        out
    }

    /// Keys of `owner`'s arc `(from, upto]` that are *not* in the sorted
    /// list `have` — the transfer set one side of a digest mismatch must
    /// stream to the other.
    pub fn arc_diff(&self, owner: u32, from: Key, upto: Key, have: &[Key]) -> Vec<Key> {
        debug_assert!(have.windows(2).all(|w| w[0] <= w[1]), "have must be sorted");
        let mut out = Vec::new();
        self.for_arc(owner, from, upto, |k, _| {
            if have.binary_search(&k).is_err() {
                out.push(k);
            }
        });
        out
    }

    /// Clones the listed items out of `owner`'s shard (absent keys are
    /// skipped), returning them with their total wire size — the
    /// replication-transfer read path (the source *keeps* its copy).
    pub fn export(&self, owner: u32, keys: &[Key]) -> (Vec<(Key, Vec<u8>)>, u64) {
        let mut items = Vec::with_capacity(keys.len());
        let mut bytes = 0u64;
        for &k in keys {
            if let Some(v) = self.get(owner, k) {
                bytes += item_bytes(v);
                items.push((k, v.clone()));
            }
        }
        (items, bytes)
    }

    /// Bulk-inserts transferred items into `owner`'s shard (incoming
    /// values overwrite), returning how many keys were new and the total
    /// wire size absorbed.
    pub fn absorb(&mut self, owner: u32, items: Vec<(Key, Vec<u8>)>) -> (usize, u64) {
        let mut new_keys = 0usize;
        let mut bytes = 0u64;
        for (k, v) in items {
            bytes += item_bytes(&v);
            if self.insert(owner, k, v).is_none() {
                new_keys += 1;
            }
        }
        (new_keys, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: f64) -> Key {
        Key::clamped(v)
    }

    fn val(i: u32) -> Vec<u8> {
        i.to_le_bytes().to_vec()
    }

    #[test]
    fn insert_get_remove_track_len() {
        let mut m = ShardMap::new(4);
        assert!(m.is_empty());
        assert_eq!(m.insert(1, k(0.3), val(1)), None);
        assert_eq!(m.insert(1, k(0.3), val(2)), Some(val(1)));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(1, k(0.3)), Some(&val(2)));
        assert_eq!(m.get(0, k(0.3)), None, "wrong shard misses");
        assert_eq!(m.remove(1, k(0.3)), Some(val(2)));
        assert!(m.is_empty());
        assert_eq!(m.remove(1, k(0.3)), None);
    }

    #[test]
    fn shards_grow_on_demand() {
        let mut m = ShardMap::new(0);
        m.insert(17, k(0.5), val(9));
        assert_eq!(m.shard_count(), 18);
        assert_eq!(m.shard_len(17), 1);
        assert_eq!(m.shard_len(99), 0, "unseen owner reads as empty");
    }

    #[test]
    fn arc_digest_matches_iff_key_sets_match() {
        let mut a = ShardMap::new(2);
        let mut b = ShardMap::new(2);
        for i in 1..9 {
            a.insert(0, k(i as f64 / 10.0), val(i));
            b.insert(1, k(i as f64 / 10.0), val(100 + i)); // values differ
        }
        let (lo, hi) = (k(0.15), k(0.75));
        assert_eq!(
            a.arc_digest(0, lo, hi),
            b.arc_digest(1, lo, hi),
            "digest covers keys, not values"
        );
        b.remove(1, k(0.4));
        assert_ne!(a.arc_digest(0, lo, hi), b.arc_digest(1, lo, hi));
        // Same count, different key: the hash must still differ.
        b.insert(1, k(0.45), val(1));
        assert_eq!(a.arc_digest(0, lo, hi).count, b.arc_digest(1, lo, hi).count);
        assert_ne!(a.arc_digest(0, lo, hi).hash, b.arc_digest(1, lo, hi).hash);
    }

    #[test]
    fn arc_views_handle_wraparound_and_degenerate_arcs() {
        let mut m = ShardMap::new(1);
        for i in 0..10 {
            m.insert(0, k(i as f64 / 10.0), val(i));
        }
        // Wrapped arc (0.75, 0.15]: 0.8, 0.9, then 0.0, 0.1.
        let keys = m.arc_keys(0, k(0.75), k(0.15));
        assert_eq!(keys, vec![k(0.8), k(0.9), k(0.0), k(0.1)]);
        assert_eq!(m.arc_digest(0, k(0.75), k(0.15)).count, 4);
        // Degenerate arc from == upto: the whole shard.
        assert_eq!(m.arc_keys(0, k(0.3), k(0.3)).len(), 10);
        // Open at `from`: 0.3 itself is excluded, 0.5 included.
        let keys = m.arc_keys(0, k(0.3), k(0.5));
        assert_eq!(keys, vec![k(0.4), k(0.5)]);
    }

    #[test]
    fn arc_diff_finds_missing_keys() {
        let mut m = ShardMap::new(1);
        for i in 0..6 {
            m.insert(0, k(i as f64 / 10.0), val(i));
        }
        let mut have = vec![k(0.1), k(0.3)];
        have.sort();
        let missing = m.arc_diff(0, k(0.05), k(0.55), &have);
        assert_eq!(missing, vec![k(0.2), k(0.4), k(0.5)]);
        assert!(m
            .arc_diff(0, k(0.05), k(0.55), &m.arc_keys(0, k(0.05), k(0.55)))
            .is_empty());
    }

    #[test]
    fn export_transfer_absorb_account_bytes() {
        let mut m = ShardMap::new(2);
        m.insert(0, k(0.1), vec![1, 2, 3]); // 8 + 3 = 11 bytes
        m.insert(0, k(0.2), vec![4]); // 8 + 1 = 9 bytes
        m.insert(0, k(0.8), vec![5, 6]); // 8 + 2 = 10 bytes
        let (items, bytes) = m.export(0, &[k(0.1), k(0.2), k(0.9)]);
        assert_eq!(items.len(), 2, "absent keys skipped");
        assert_eq!(bytes, 20);
        assert_eq!(m.shard_len(0), 3, "export keeps the source copies");

        let (new_keys, bytes) = m.absorb(1, items);
        assert_eq!((new_keys, bytes), (2, 20));
        assert_eq!(m.get(1, k(0.1)), Some(&vec![1, 2, 3]));
        // Absorbing an overwrite is not a new key but still pays bytes.
        let (new_keys, bytes) = m.absorb(1, vec![(k(0.1), vec![9; 4])]);
        assert_eq!((new_keys, bytes), (0, 12));
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn sweep_arcs_take_lo_at_the_first_peer_only() {
        let on = |from: Option<f64>, own: f64, key: f64| {
            on_sweep_arc(k(0.3), from.map(k), k(own), k(key))
        };
        // First peer: `[lo, own]`, wrapping at the wrap owner.
        assert!(on(None, 0.5, 0.3) && on(None, 0.5, 0.5) && !on(None, 0.5, 0.6));
        assert!(on(None, 0.1, 0.9) && on(None, 0.1, 0.05) && !on(None, 0.1, 0.2));
        // A first peer at `lo` itself holds `lo` alone.
        assert!(on(None, 0.3, 0.3) && !on(None, 0.3, 0.4));
        // Later peers: `(from, own]`; `lo` is no longer special.
        assert!(!on(Some(0.5), 0.7, 0.5) && on(Some(0.5), 0.7, 0.7));
        assert!(!on(Some(0.2), 0.25, 0.3));
    }

    #[test]
    fn a_sweep_back_at_its_first_peer_serves_above_the_top_only() {
        // lo 0.3, first peer 0.35, top peer 0.9: back at the first peer,
        // the sweep serves (0.9, hi), not [lo, 0.35] a second time.
        let on = |key: f64| on_sweep_arc(k(0.3), Some(k(0.9)), k(0.35), k(key));
        assert!(on(0.95) && on(0.99));
        assert!(!on(0.3) && !on(0.32) && !on(0.35) && !on(0.1));
    }

    #[test]
    fn clear_shard_loses_rows() {
        let mut m = ShardMap::new(2);
        m.insert(0, k(0.1), val(1));
        m.insert(1, k(0.2), val(2));
        assert_eq!(m.clear_shard(0), 1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.clear_shard(0), 0);
    }
}
