//! A placement: the sorted multiset of peer keys every overlay is built
//! over.
//!
//! Peer `i` (a dense [`NodeId`]) owns key `keys[i]`; the sort order makes
//! rank and key interchangeable, which is what Mercury reasons over and
//! what the paper's normalized space `R′` formalizes.

use sw_graph::NodeId;
use sw_keyspace::distribution::KeyDistribution;
use sw_keyspace::{Key, Rng, Topology};

/// Sorted, distinct peer keys plus the topology they live in.
#[derive(Debug, Clone)]
pub struct Placement {
    topology: Topology,
    keys: Vec<Key>,
    /// Name of the distribution that produced the keys (for reports).
    source: String,
}

/// Errors from [`Placement::from_keys`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// Fewer than two peers.
    TooSmall,
    /// Two peers share a key.
    DuplicateKey,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::TooSmall => write!(f, "placement needs at least two peers"),
            PlacementError::DuplicateKey => write!(f, "placement keys must be distinct"),
        }
    }
}

impl std::error::Error for PlacementError {}

impl Placement {
    /// Samples `n` distinct keys from `dist`.
    ///
    /// Collisions (astronomically rare for continuous distributions) are
    /// resampled.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, or if the distribution cannot produce `n`
    /// distinct keys within a generous retry budget (which indicates a
    /// degenerate, point-massed distribution).
    pub fn sample(
        n: usize,
        dist: &dyn KeyDistribution,
        topology: Topology,
        rng: &mut Rng,
    ) -> Placement {
        assert!(n >= 2, "placement needs at least two peers");
        let mut keys: Vec<Key> = Vec::with_capacity(n);
        let mut attempts = 0usize;
        while keys.len() < n {
            keys.push(dist.sample_key(rng));
            attempts += 1;
            if attempts >= 4 * n + 64 {
                // Dedup what we have and keep sampling only if needed.
                keys.sort_unstable();
                keys.dedup();
                assert!(
                    attempts < 64 * n + 1024,
                    "distribution {} cannot produce {} distinct keys",
                    dist.name(),
                    n
                );
            }
        }
        keys.sort_unstable();
        keys.dedup();
        while keys.len() < n {
            // Resample collisions one at a time (keeps determinism simple).
            let k = dist.sample_key(rng);
            if let Err(pos) = keys.binary_search(&k) {
                keys.insert(pos, k);
            }
        }
        Placement {
            topology,
            keys,
            source: dist.name(),
        }
    }

    /// Builds a placement from explicit keys (sorted + checked distinct).
    pub fn from_keys(
        mut keys: Vec<Key>,
        topology: Topology,
        source: impl Into<String>,
    ) -> Result<Placement, PlacementError> {
        if keys.len() < 2 {
            return Err(PlacementError::TooSmall);
        }
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            return Err(PlacementError::DuplicateKey);
        }
        Ok(Placement {
            topology,
            keys,
            source: source.into(),
        })
    }

    /// Evenly spaced keys `i/n` — the idealized uniform grid.
    pub fn regular(n: usize, topology: Topology) -> Placement {
        assert!(n >= 2);
        let keys = (0..n).map(|i| Key::clamped(i as f64 / n as f64)).collect();
        Placement {
            topology,
            keys,
            source: "regular".into(),
        }
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if there are no peers (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// `ceil(log2 n)` — the paper's `log2 N` out-degree and partition
    /// count.
    pub fn log2_n(&self) -> usize {
        (self.keys.len() as f64).log2().ceil() as usize
    }

    /// The topology of the key space.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Name of the key source distribution.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Key of peer `id`.
    #[inline]
    pub fn key(&self, id: NodeId) -> Key {
        self.keys[id as usize]
    }

    /// All keys in ascending order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Distance between a peer and a key under this placement's topology.
    #[inline]
    pub fn distance_to(&self, id: NodeId, target: Key) -> f64 {
        self.topology.distance(self.key(id), target)
    }

    /// The peer whose key is nearest to `target` (ties: lower id).
    pub fn nearest(&self, target: Key) -> NodeId {
        let idx = self.keys.partition_point(|&k| k < target);
        self.nearest_at(idx, target)
    }

    /// [`nearest`] with the binary search bracketed to `[lo, hi]` —
    /// for callers holding an index (e.g. the link sampler's bucket rank
    /// index) that localizes the insertion point. The bracket is
    /// *verified* against the keys before being trusted: if it provably
    /// contains the insertion point (`keys[lo - 1] < target <= keys[hi]`,
    /// boundaries aside) the search runs inside it, otherwise the full
    /// search runs — so the result is **bit-identical to [`nearest`]**
    /// for any bracket, valid or not.
    ///
    /// [`nearest`]: Placement::nearest
    #[inline]
    pub fn nearest_bracketed(&self, target: Key, lo: usize, hi: usize) -> NodeId {
        let n = self.keys.len();
        let (lo, hi) = (lo.min(n), hi.min(n));
        let idx = if lo <= hi
            && (lo == 0 || self.keys[lo - 1] < target)
            && (hi == n || self.keys[hi] >= target)
        {
            lo + self.keys[lo..hi].partition_point(|&k| k < target)
        } else {
            self.keys.partition_point(|&k| k < target)
        };
        self.nearest_at(idx, target)
    }

    /// Shared candidate check of the `nearest*` family: given the
    /// insertion point of `target`, picks the closest of the insertion
    /// neighbours (plus the ring wrap-arounds), ties to the lower id.
    #[inline]
    fn nearest_at(&self, idx: usize, target: Key) -> NodeId {
        let mut best: NodeId = 0;
        let mut best_d = f64::INFINITY;
        let n = self.keys.len();
        // Candidates: the insertion neighbours, plus ring wrap-arounds.
        let mut candidates = [0usize; 4];
        let mut c = 0;
        if idx < n {
            candidates[c] = idx;
            c += 1;
        }
        if idx > 0 {
            candidates[c] = idx - 1;
            c += 1;
        }
        if self.topology == Topology::Ring {
            candidates[c] = 0;
            c += 1;
            candidates[c] = n - 1;
            c += 1;
        }
        for &i in &candidates[..c] {
            let d = self.topology.distance(self.keys[i], target);
            if d < best_d || (d == best_d && (i as NodeId) < best) {
                best_d = d;
                best = i as NodeId;
            }
        }
        best
    }

    /// The first peer clockwise at-or-after `target` (successor). Wraps to
    /// peer 0 past the last key.
    pub fn successor(&self, target: Key) -> NodeId {
        let idx = self.keys.partition_point(|&k| k < target);
        if idx == self.keys.len() {
            0
        } else {
            idx as NodeId
        }
    }

    /// Clockwise ring neighbour of a peer (wraps).
    pub fn next(&self, id: NodeId) -> NodeId {
        ((id as usize + 1) % self.keys.len()) as NodeId
    }

    /// Counter-clockwise ring neighbour of a peer (wraps).
    pub fn prev(&self, id: NodeId) -> NodeId {
        ((id as usize + self.keys.len() - 1) % self.keys.len()) as NodeId
    }

    /// The structural neighbour edges of `id` under this placement's
    /// topology: `prev`/`next` on the ring (wrapping), the 1–2 adjacent
    /// peers on the interval. Every overlay seeds its contact table from
    /// this one definition.
    pub fn topology_neighbors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let (a, b) = match self.topology {
            Topology::Ring => (Some(self.prev(id)), Some(self.next(id))),
            Topology::Interval => self.interval_neighbors(id),
        };
        a.into_iter().chain(b)
    }

    /// Interval neighbours: `(left, right)` without wrap; `None` at the
    /// boundary peers.
    fn interval_neighbors(&self, id: NodeId) -> (Option<NodeId>, Option<NodeId>) {
        let left = if id == 0 { None } else { Some(id - 1) };
        let right = if (id as usize) + 1 >= self.keys.len() {
            None
        } else {
            Some(id + 1)
        };
        (left, right)
    }

    /// Peers whose keys fall in `[lo, hi)` (no wrap), as a contiguous id
    /// range.
    pub fn range(&self, lo: f64, hi: f64) -> std::ops::Range<usize> {
        let a = self.keys.partition_point(|&k| k.get() < lo);
        let b = self.keys.partition_point(|&k| k.get() < hi);
        a..b
    }

    /// Peers on the clockwise arc `[lo, hi)`, wrapping past 1 when
    /// `hi <= lo`. Returns up to two contiguous id ranges.
    pub fn arc(&self, lo: f64, hi: f64) -> [std::ops::Range<usize>; 2] {
        let lo = lo.rem_euclid(1.0);
        let hi = hi.rem_euclid(1.0);
        if lo < hi {
            [self.range(lo, hi), 0..0]
        } else {
            [self.range(lo, 1.0), self.range(0.0, hi)]
        }
    }

    /// Picks a uniformly random peer on the clockwise arc `[lo, hi)`, or
    /// `None` if the arc holds no peer.
    pub fn random_in_arc(&self, lo: f64, hi: f64, rng: &mut Rng) -> Option<NodeId> {
        let [a, b] = self.arc(lo, hi);
        let total = a.len() + b.len();
        if total == 0 {
            return None;
        }
        let pick = rng.index(total);
        let idx = if pick < a.len() {
            a.start + pick
        } else {
            b.start + (pick - a.len())
        };
        Some(idx as NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_keyspace::distribution::{TruncatedPareto, Uniform};

    fn key(v: f64) -> Key {
        Key::new(v).unwrap()
    }

    #[test]
    fn sample_is_sorted_and_distinct() {
        let mut rng = Rng::new(1);
        let p = Placement::sample(500, &Uniform, Topology::Ring, &mut rng);
        assert_eq!(p.len(), 500);
        for w in p.keys().windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(p.source(), "uniform");
    }

    #[test]
    fn from_keys_validates() {
        assert_eq!(
            Placement::from_keys(vec![key(0.5)], Topology::Ring, "t").unwrap_err(),
            PlacementError::TooSmall
        );
        assert_eq!(
            Placement::from_keys(vec![key(0.5), key(0.5)], Topology::Ring, "t").unwrap_err(),
            PlacementError::DuplicateKey
        );
        let p = Placement::from_keys(vec![key(0.9), key(0.1)], Topology::Ring, "t").unwrap();
        assert_eq!(p.key(0), key(0.1)); // sorted
    }

    #[test]
    fn log2_n_is_ceiling() {
        let p = Placement::regular(1024, Topology::Ring);
        assert_eq!(p.log2_n(), 10);
        let p = Placement::regular(1025, Topology::Ring);
        assert_eq!(p.log2_n(), 11);
        let p = Placement::regular(2, Topology::Ring);
        assert_eq!(p.log2_n(), 1);
    }

    #[test]
    fn nearest_interval() {
        let p = Placement::from_keys(vec![key(0.1), key(0.4), key(0.8)], Topology::Interval, "t")
            .unwrap();
        assert_eq!(p.nearest(key(0.0)), 0);
        assert_eq!(p.nearest(key(0.24)), 0);
        assert_eq!(p.nearest(key(0.26)), 1);
        assert_eq!(p.nearest(key(0.99)), 2);
        assert_eq!(p.nearest(key(0.4)), 1);
    }

    #[test]
    fn nearest_ring_wraps() {
        let p =
            Placement::from_keys(vec![key(0.1), key(0.5), key(0.9)], Topology::Ring, "t").unwrap();
        // 0.99 is nearer to 0.1 (distance 0.11) than to 0.9 (0.09)?
        // ring distance: |0.99-0.9| = 0.09 vs |0.99-0.1| wrap = 0.11.
        assert_eq!(p.nearest(key(0.99)), 2);
        // 0.02: wrap distance to 0.9 is 0.12; to 0.1 is 0.08 -> peer 0.
        assert_eq!(p.nearest(key(0.02)), 0);
        // 0.97 equidistant-ish: |0.97-0.9|=0.07 < wrap to 0.1 (0.13).
        assert_eq!(p.nearest(key(0.97)), 2);
    }

    #[test]
    fn nearest_bracketed_matches_nearest_for_any_bracket() {
        let mut rng = Rng::new(17);
        for topology in [Topology::Interval, Topology::Ring] {
            let p = Placement::sample(257, &Uniform, topology, &mut rng);
            let n = p.len();
            let mut probe_rng = Rng::new(18);
            for _ in 0..2000 {
                let target = Key::clamped(probe_rng.f64() * 1.2 - 0.1);
                let expect = p.nearest(target);
                // Brackets of every flavour: exact, loose, wrong, empty,
                // inverted, out of range — all must agree with nearest().
                let idx = p.keys().partition_point(|&k| k < target);
                for (lo, hi) in [
                    (idx, idx),
                    (idx.saturating_sub(1), (idx + 1).min(n)),
                    (0, n),
                    (n / 2, n / 2),
                    (n, 0),
                    (idx + 3, idx + 9),
                    (idx.saturating_sub(9), idx.saturating_sub(3)),
                    (n + 5, n + 9),
                ] {
                    assert_eq!(
                        p.nearest_bracketed(target, lo, hi),
                        expect,
                        "topology={topology:?} target={} lo={lo} hi={hi}",
                        target.get()
                    );
                }
            }
        }
    }

    #[test]
    fn successor_wraps_to_zero() {
        let p =
            Placement::from_keys(vec![key(0.1), key(0.5), key(0.9)], Topology::Ring, "t").unwrap();
        assert_eq!(p.successor(key(0.05)), 0);
        assert_eq!(p.successor(key(0.1)), 0);
        assert_eq!(p.successor(key(0.2)), 1);
        assert_eq!(p.successor(key(0.95)), 0);
    }

    #[test]
    fn ring_neighbors_wrap() {
        let p =
            Placement::from_keys(vec![key(0.1), key(0.5), key(0.9)], Topology::Ring, "t").unwrap();
        assert_eq!(p.next(2), 0);
        assert_eq!(p.prev(0), 2);
        assert_eq!(p.next(0), 1);
    }

    #[test]
    fn interval_neighbors_have_boundaries() {
        let p = Placement::from_keys(vec![key(0.1), key(0.5), key(0.9)], Topology::Interval, "t")
            .unwrap();
        assert_eq!(p.interval_neighbors(0), (None, Some(1)));
        assert_eq!(p.interval_neighbors(1), (Some(0), Some(2)));
        assert_eq!(p.interval_neighbors(2), (Some(1), None));
    }

    #[test]
    fn range_query() {
        let p = Placement::regular(10, Topology::Ring);
        // keys are 0.0, 0.1, ..., 0.9
        let r = p.range(0.25, 0.65);
        assert_eq!(r, 3..7);
        assert_eq!(p.range(0.0, 1.0), 0..10);
        assert_eq!(p.range(0.95, 0.99), 10..10);
    }

    #[test]
    fn skewed_sampling_respects_distribution() {
        let mut rng = Rng::new(5);
        let d = TruncatedPareto::new(1.5, 0.02).unwrap();
        let p = Placement::sample(2000, &d, Topology::Ring, &mut rng);
        // Most peers land in the dense low region.
        let dense = p.range(0.0, 0.1).len();
        assert!(dense > 1000, "dense region has {dense} peers");
    }

    #[test]
    fn regular_spacing() {
        let p = Placement::regular(4, Topology::Interval);
        assert_eq!(p.key(0), key(0.0));
        assert_eq!(p.key(2), key(0.5));
    }
}
