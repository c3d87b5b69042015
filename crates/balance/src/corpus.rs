//! Synthetic data corpora: item keys plus query weights.

use sw_keyspace::distribution::KeyDistribution;
use sw_keyspace::{Key, Rng};

/// A corpus of data items. Item `i` lives at `keys[i]` and receives a
/// fraction `query_weight[i] / Σ query_weight` of the query workload.
#[derive(Debug, Clone)]
pub struct Corpus {
    keys: Vec<Key>,
    query_weight: Vec<f64>,
}

impl Corpus {
    /// Generates `m` items with keys drawn from `dist` and uniform query
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn generate(m: usize, dist: &dyn KeyDistribution, rng: &mut Rng) -> Corpus {
        assert!(m > 0, "corpus needs at least one item");
        let mut keys: Vec<Key> = (0..m).map(|_| dist.sample_key(rng)).collect();
        keys.sort_unstable();
        Corpus {
            keys,
            query_weight: vec![1.0; m],
        }
    }

    /// Assigns *spatially correlated* query weights: item `i` is queried
    /// proportionally to `profile.pdf(key_i)`. Models hot key *ranges*
    /// (the paper's range-query applications), not scattered per-item
    /// popularity.
    pub fn with_query_profile(mut self, profile: &dyn KeyDistribution) -> Corpus {
        for (w, k) in self.query_weight.iter_mut().zip(&self.keys) {
            // Floor keeps every item queryable and the total positive.
            *w = profile.pdf(k.get()).max(1e-9);
        }
        self
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the corpus has no items (never for a generated corpus).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Item keys in ascending order.
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// Per-item query weights (parallel to `keys`).
    pub fn query_weights(&self) -> &[f64] {
        &self.query_weight
    }

    /// The key of a uniformly random item — used by data-sampled peer
    /// placement.
    pub fn random_item_key(&self, rng: &mut Rng) -> Key {
        self.keys[rng.index(self.keys.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_keyspace::distribution::{TruncatedPareto, Uniform};

    #[test]
    fn generate_sorts_keys() {
        let mut rng = Rng::new(1);
        let c = Corpus::generate(1000, &Uniform, &mut rng);
        assert_eq!(c.len(), 1000);
        for w in c.keys().windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn skewed_corpus_concentrates() {
        let mut rng = Rng::new(2);
        let d = TruncatedPareto::new(1.5, 0.01).unwrap();
        let c = Corpus::generate(5000, &d, &mut rng);
        let low = c.keys().iter().filter(|k| k.get() < 0.1).count();
        assert!(low > 2500, "low-region items: {low}");
    }

    #[test]
    fn random_item_key_is_a_member() {
        let mut rng = Rng::new(4);
        let c = Corpus::generate(50, &Uniform, &mut rng);
        for _ in 0..20 {
            let k = c.random_item_key(&mut rng);
            assert!(c.keys().binary_search(&k).is_ok());
        }
    }
}
