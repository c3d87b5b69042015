//! A hasher for maps keyed by ids this program generated itself — node
//! ids, query ids, `(from << 32) | to` link keys, `Key` bit patterns —
//! and only ever accessed by key.
//!
//! `std`'s default SipHash pays ≈ 20 ns a probe to resist keys crafted
//! to collide; none of these keys comes from outside the program, and
//! the simulator probes such maps four to six times per delivered event.
//! One folded 64 × 64 → 128-bit multiply per word is enough *if* it
//! mixes both ways: the table indexes with the low bits and tags with
//! the top seven, and the keys are the worst case for a plain multiply —
//! sequential counters vary only in their low bits, dyadic-rational
//! `f64` keys (`Placement::regular`) only in their high ones.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` over [`IdHasher`]. Keep the default hasher for keys that
/// arrive from outside the program.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// `HashSet` over [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Folded-multiply hasher: each written word is XORed into the state,
/// multiplied by an odd 64-bit constant to 128 bits, and the two halves
/// are XORed together — high input bits reach the low output bits
/// through the upper half, low input bits reach the high ones through
/// the lower half.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15_u128;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};
    use sw_keyspace::Key;

    /// Distinct values of the low 16 hash bits over `keys`.
    fn low16_spread<K: Hash>(keys: impl Iterator<Item = K>) -> usize {
        let build = BuildHasherDefault::<IdHasher>::default();
        let seen: HashSet<u16> = keys.map(|k| build.hash_one(k) as u16).collect();
        seen.len()
    }

    /// The table indexes with the low hash bits. 2¹⁶ keys thrown at 2¹⁶
    /// slots uniformly occupy 1 − 1/e ≈ 63 % of them; a hasher that
    /// leaves an input family's structure in the low bits occupies far
    /// fewer (an identity hash puts every dyadic key in slot 0).
    #[test]
    fn low_bits_spread_for_every_key_family_the_engine_uses() {
        const N: u64 = 1 << 16;
        let half = (N / 2) as usize;
        // Dyadic-rational keys: the low 36 mantissa bits are all zero.
        let dyadic = low16_spread((0..N).map(|i| Key::clamped(i as f64 / N as f64)));
        assert!(
            dyadic >= half,
            "dyadic keys: {dyadic} of {N} low-bit values"
        );
        // Sequential query ids: only the low bits vary.
        let sequential = low16_spread(0..N);
        assert!(sequential >= half, "query ids: {sequential}");
        // Directed-link keys: two small ids, one per half-word.
        let links = low16_spread((0..N).map(|i| ((i >> 8) << 32) | (i & 0xFF)));
        assert!(links >= half, "link keys: {links}");
        // Node ids hashed as `u32`.
        let nodes = low16_spread(0..N as u32);
        assert!(nodes >= half, "node ids: {nodes}");
    }

    /// The top seven bits tag a slot's control byte; sequential ids must
    /// not share one tag.
    #[test]
    fn top_bits_vary_for_sequential_ids() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let tags: HashSet<u64> = (0..4096u64).map(|i| build.hash_one(i) >> 57).collect();
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn byte_strings_hash_by_words() {
        let mut a = IdHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = IdHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        b.write_u64(9);
        assert_eq!(a.finish(), b.finish());
    }
}
