//! Long-range link sampling: the heart of both models.
//!
//! The selection rule (paper Eq. 7, with Eq. of §3 as the uniform special
//! case): peer `u` links to `v` with probability inversely proportional to
//! the probability mass between them,
//! `P[v ∈ LE_u] ∝ 1/|∫_{u.id}^{v.id} f(x)dx|`, restricted to pairs with
//! mass at least `1/N`.
//!
//! Two interchangeable samplers implement the rule (see
//! [`crate::config::LinkSampler`]); experiments E1/E3 verify they agree.
//! The harmonic draw is written here and in the simulator's join and
//! refresh probes (`sw_sim`'s `spawn_link_probe`, which resolves
//! targets by routing); the only other copy is this module's
//! `#[cfg(test)]` reference oracle.

use crate::config::LinkSampler;
use sw_graph::par;
use sw_graph::prefetch::prefetch_read;
use sw_graph::writer::{ArenaWriter, VACANT};
use sw_graph::NodeId;
use sw_keyspace::distribution::KeyDistribution;
use sw_keyspace::{Key, Rng, Topology};
use sw_overlay::Placement;

/// Precomputed link-sampling context for one network build.
pub struct LinkSelector<'a> {
    placement: &'a Placement,
    /// CDF of the *assumed* density at every peer key (normalized-space
    /// positions `F̂(key_i)`).
    cdf: Vec<f64>,
    /// Bucket rank index over `cdf`: `bounds[j]` is the first peer with
    /// normalized position ≥ `j / buckets` (`bounds[buckets] == n`).
    /// When the assumed density matches the key distribution the `cdf`
    /// values are ≈ U[0, 1], so fixed-width buckets stay balanced for
    /// *any* key skew — this is what turns the harmonic sampler's
    /// nearest-peer lookup from a full `log2 n` cache-missing binary
    /// search into a ~O(1) bracketed probe (see [`Placement::nearest_bracketed`]).
    bounds: Vec<u32>,
    assumed: &'a dyn KeyDistribution,
    min_mass: f64,
    sampler: LinkSampler,
}

impl<'a> LinkSelector<'a> {
    /// Builds the selector. `assumed` is the density used for link
    /// selection — the true `f` for the paper's models, something else
    /// for the mis-specification baselines.
    pub fn new(
        placement: &'a Placement,
        assumed: &'a dyn KeyDistribution,
        min_mass: f64,
        sampler: LinkSampler,
    ) -> Self {
        let keys = placement.keys();
        let cdf = par::par_map(keys.len(), 0, |i| assumed.cdf(keys[i].get()));
        // One bucket per peer; one ascending pass fills the bounds.
        let n = cdf.len();
        let buckets = n.max(1);
        let mut bounds = vec![n as u32; buckets + 1];
        bounds[0] = 0;
        let mut j = 1usize;
        for (i, &c) in cdf.iter().enumerate() {
            while j < buckets && c >= j as f64 / buckets as f64 {
                bounds[j] = i as u32;
                j += 1;
            }
        }
        LinkSelector {
            placement,
            cdf,
            bounds,
            assumed,
            min_mass,
            sampler,
        }
    }

    /// The rank-index bucket of a normalized position. The bucket's
    /// `bounds[j]..bounds[j + 1]` entries bracket every peer whose
    /// assumed-CDF value lies inside it; the bracket is a *hint* —
    /// [`Placement::nearest_bracketed`] re-verifies it against the actual
    /// keys (the `cdf`/`quantile` float round-trip is not exactly
    /// monotone), so lookups stay bit-identical to the full search.
    #[inline]
    fn bucket_of(&self, target_pos: f64) -> usize {
        let buckets = self.bounds.len() - 1;
        ((target_pos * buckets as f64) as usize).min(buckets - 1)
    }

    /// Mass distance between two peers in the assumed normalized space,
    /// respecting the topology (on the ring, mass wraps the short way).
    #[inline]
    pub fn mass_between(&self, u: NodeId, v: NodeId) -> f64 {
        let d = (self.cdf[v as usize] - self.cdf[u as usize]).abs();
        match self.placement.topology() {
            Topology::Interval => d,
            Topology::Ring => d.min(1.0 - d),
        }
    }

    /// Draws `count` distinct long-range links for peer `u`.
    ///
    /// Distinctness (and the `v ≠ u` / mass ≥ threshold restrictions) are
    /// enforced with bounded retries, at most `16·count + 64` candidates
    /// per row; the returned vector is shorter than `count` when the
    /// admissible candidate set itself is smaller (tiny networks) or when
    /// that retry cap runs out first.
    pub fn sample_links(&self, u: NodeId, count: usize, rng: &mut Rng) -> Vec<NodeId> {
        let mut links = Vec::with_capacity(count);
        self.sample_links_into(u, count, rng, &mut links);
        links
    }

    /// [`sample_links`] into a caller-owned buffer (cleared first), so
    /// a caller drawing many rows reuses one buffer instead of
    /// allocating one `Vec` per peer. Draw-for-draw identical to
    /// [`sample_links`].
    ///
    /// [`sample_links`]: LinkSelector::sample_links
    pub fn sample_links_into(&self, u: NodeId, count: usize, rng: &mut Rng, out: &mut Vec<NodeId>) {
        out.clear();
        out.resize(count, 0);
        let len = self.draw_row(u, rng, out);
        out.truncate(len);
    }

    /// Draws every peer's long row straight into its slot of `writer`,
    /// whose rows are reserved at the link budget: peer `u` draws as
    /// many links as its slot holds from stream `u` of `build_seed`, in
    /// draw order, and leaves the slots it does not fill [`VACANT`] for
    /// the seal to close up. Row `u` is [`sample_links`] on that stream,
    /// so the image is the same at any `threads` (`0` = auto). Its one
    /// caller is the builder's long stage, [`crate::builder::long_image`].
    ///
    /// [`sample_links`]: LinkSelector::sample_links
    pub fn sample_into(&self, writer: &mut ArenaWriter, build_seed: u64, threads: usize) {
        let n = writer.len();
        writer.fill(par::effective_threads(n, threads, 1024), |slots| {
            for u in slots.range.clone() {
                let r = slots.row_bounds(u);
                let row = &mut slots.edges[r];
                let len = self.draw_row(u as NodeId, &mut Rng::stream(build_seed, u as u64), row);
                row[len..].fill(VACANT);
            }
        });
    }

    /// Draws up to `row.len()` links for peer `u` into the front of
    /// `row` and returns how many it drew.
    fn draw_row(&self, u: NodeId, rng: &mut Rng, row: &mut [NodeId]) -> usize {
        let mut links = Row { slots: row, len: 0 };
        match self.sampler {
            LinkSampler::Exact => self.sample_exact(u, rng, &mut links),
            LinkSampler::Harmonic => self.sample_harmonic(u, rng, &mut links),
        }
        links.len
    }

    /// Exact discrete sampling: cumulative weights `1/mass(u, v)` over all
    /// admissible `v`.
    fn sample_exact(&self, u: NodeId, rng: &mut Rng, links: &mut Row<'_>) {
        let (n, count) = (self.placement.len(), links.slots.len());
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for v in 0..n as NodeId {
            if v != u {
                let m = self.mass_between(u, v);
                if m >= self.min_mass && m > 0.0 {
                    acc += 1.0 / m;
                }
            }
            cum.push(acc);
        }
        if acc <= 0.0 {
            return;
        }
        let mut tries = 0;
        while links.len < count && tries < 16 * count + 64 {
            tries += 1;
            let v = rng.sample_cumulative(&cum) as NodeId;
            // `cum` is flat at inadmissible v, so sample_cumulative can
            // only land there through float ties; re-check admissibility.
            if v == u || self.mass_between(u, v) < self.min_mass {
                continue;
            }
            if !links.contains(&v) {
                links.push(v);
            }
        }
    }

    /// Continuous harmonic sampling in the normalized space.
    ///
    /// Candidates are drawn in rounds so the bucket/key/cdf cache lines
    /// they will touch can all be prefetched before the accept loop runs
    /// — at 10⁷ peers those three dependent misses per candidate
    /// dominate construction. A round draws exactly as many candidates
    /// as links are still outstanding (capped by `BATCH` and the retry
    /// cap): the whole budget first, then top-ups for the rejections. It
    /// can complete the row only with its last candidate, so no `exp` or
    /// `quantile` is ever drawn and discarded, and with accepts in draw
    /// order every link and the generator's final state are bit-identical
    /// to the one-candidate-at-a-time loop.
    fn sample_harmonic(&self, u: NodeId, rng: &mut Rng, links: &mut Row<'_>) {
        let (pos, count) = (self.cdf[u as usize], links.slots.len());
        // Available mass on each side of u in normalized space.
        let (left_mass, right_mass) = match self.placement.topology() {
            Topology::Interval => (pos, 1.0 - pos),
            Topology::Ring => (0.5, 0.5),
        };
        let tau = self.min_mass.max(1e-12);
        // Total harmonic weight of a side with available mass M:
        // ∫_tau^M dx/x = ln(M/tau), zero if M <= tau.
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
        if wl + wr <= 0.0 {
            return;
        }
        const BATCH: usize = 32;
        let keys = self.placement.keys();
        let cap = 16 * count + 64;
        let mut tries = 0;
        let mut target_key = [Key::clamped(0.0); BATCH];
        let mut bucket = [0usize; BATCH];
        while links.len < count && tries < cap {
            let want = (count - links.len).min(BATCH).min(cap - tries);
            for i in 0..want {
                // A side is only ever chosen when its weight is positive,
                // and then the weight *is* `ln(side_mass / tau)`.
                let (side_weight, sign) = if rng.f64() * (wl + wr) < wl {
                    (wl, -1.0)
                } else {
                    (wr, 1.0)
                };
                // Log-uniform mass offset in [tau, side_mass].
                let m = tau * (side_weight * rng.f64()).exp();
                let target_pos = match self.placement.topology() {
                    Topology::Interval => (pos + sign * m).clamp(0.0, 1.0),
                    Topology::Ring => (pos + sign * m).rem_euclid(1.0),
                };
                let j = self.bucket_of(target_pos);
                bucket[i] = j;
                prefetch_read(&self.bounds[j]);
                target_key[i] = Key::clamped(self.assumed.quantile(target_pos));
            }
            for &j in &bucket[..want] {
                let blo = self.bounds[j] as usize;
                if blo < keys.len() {
                    prefetch_read(&keys[blo]);
                    prefetch_read(&self.cdf[blo]);
                }
            }
            tries += want;
            for (&j, &target) in bucket[..want].iter().zip(&target_key) {
                let (blo, bhi) = (self.bounds[j] as usize, self.bounds[j + 1] as usize);
                let v = self.placement.nearest_bracketed(target, blo, bhi);
                if v == u || links.contains(&v) {
                    continue;
                }
                // Snapping to the nearest peer can land below the
                // threshold; honour the paper's restriction.
                if self.mass_between(u, v) < self.min_mass {
                    continue;
                }
                links.push(v);
            }
        }
    }
}

/// A row being drawn into its slots: the first `len` hold its links.
struct Row<'a> {
    slots: &'a mut [NodeId],
    len: usize,
}

impl Row<'_> {
    fn contains(&self, v: &NodeId) -> bool {
        self.slots[..self.len].contains(v)
    }

    fn push(&mut self, v: NodeId) {
        self.slots[self.len] = v;
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_keyspace::distribution::{TruncatedPareto, Uniform};

    fn uniform_placement(n: usize, seed: u64) -> Placement {
        let mut rng = Rng::new(seed);
        Placement::sample(n, &Uniform, Topology::Interval, &mut rng)
    }

    #[test]
    fn links_are_distinct_and_admissible() {
        let p = uniform_placement(512, 1);
        let uni = Uniform;
        let sel = LinkSelector::new(&p, &uni, 1.0 / 512.0, LinkSampler::Exact);
        let mut rng = Rng::new(2);
        for u in [0u32, 100, 255, 511] {
            let links = sel.sample_links(u, 9, &mut rng);
            assert_eq!(links.len(), 9);
            let set: std::collections::HashSet<_> = links.iter().collect();
            assert_eq!(set.len(), 9, "links must be distinct");
            for &v in &links {
                assert_ne!(v, u);
                assert!(sel.mass_between(u, v) >= 1.0 / 512.0);
            }
        }
    }

    #[test]
    fn harmonic_links_are_admissible_too() {
        let p = uniform_placement(512, 3);
        let uni = Uniform;
        let sel = LinkSelector::new(&p, &uni, 1.0 / 512.0, LinkSampler::Harmonic);
        let mut rng = Rng::new(4);
        for u in [0u32, 256, 511] {
            let links = sel.sample_links(u, 9, &mut rng);
            assert!(links.len() >= 8, "got {}", links.len());
            for &v in &links {
                assert_ne!(v, u);
                assert!(sel.mass_between(u, v) >= 1.0 / 512.0);
            }
        }
    }

    /// Empirical distribution of link *mass* should be close to
    /// log-uniform: the probability that a link lands at mass ≤ m is
    /// ln(m/τ)/ln(M/τ). We compare the exact and harmonic samplers
    /// against the analytic curve at the median.
    #[test]
    fn both_samplers_match_the_harmonic_law() {
        let p = uniform_placement(2048, 5);
        let uni = Uniform;
        let tau = 1.0 / 2048.0;
        for sampler in [LinkSampler::Exact, LinkSampler::Harmonic] {
            let sel = LinkSelector::new(&p, &uni, tau, sampler);
            let mut rng = Rng::new(6);
            // Sample from the centre of the interval: both sides ~0.5.
            let u = p.nearest(Key::new(0.5).unwrap());
            let mut masses = Vec::new();
            for _ in 0..400 {
                for v in sel.sample_links(u, 8, &mut rng) {
                    masses.push(sel.mass_between(u, v));
                }
            }
            masses.sort_by(f64::total_cmp);
            let median = masses[masses.len() / 2];
            // Analytic median: sqrt(tau * M) with M ~ 0.5.
            let expect = (tau * 0.5f64).sqrt();
            let ratio = median / expect;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{sampler:?}: median {median:.5}, expected ~{expect:.5}"
            );
        }
    }

    /// The pre-index harmonic loop, verbatim (full binary search per
    /// attempt): the oracle the bucket-bracketed fast path must match
    /// draw-for-draw.
    fn sample_harmonic_reference(
        sel: &LinkSelector<'_>,
        u: NodeId,
        count: usize,
        rng: &mut Rng,
    ) -> Vec<NodeId> {
        let pos = sel.cdf[u as usize];
        let (left_mass, right_mass) = match sel.placement.topology() {
            Topology::Interval => (pos, 1.0 - pos),
            Topology::Ring => (0.5, 0.5),
        };
        let tau = sel.min_mass.max(1e-12);
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
        if wl + wr <= 0.0 {
            return Vec::new();
        }
        let mut links = Vec::with_capacity(count);
        let mut tries = 0;
        while links.len() < count && tries < 16 * count + 64 {
            tries += 1;
            let go_left = rng.f64() * (wl + wr) < wl;
            let (side_mass, sign) = if go_left {
                (left_mass, -1.0)
            } else {
                (right_mass, 1.0)
            };
            let m = tau * ((side_mass / tau).ln() * rng.f64()).exp();
            let target_pos = match sel.placement.topology() {
                Topology::Interval => (pos + sign * m).clamp(0.0, 1.0),
                Topology::Ring => (pos + sign * m).rem_euclid(1.0),
            };
            let target_key = Key::clamped(sel.assumed.quantile(target_pos));
            let v = sel.placement.nearest(target_key);
            if v == u || links.contains(&v) {
                continue;
            }
            if sel.mass_between(u, v) < sel.min_mass {
                continue;
            }
            links.push(v);
        }
        links
    }

    #[test]
    fn bracketed_harmonic_sampling_is_bit_identical() {
        // Matched and mis-specified densities, both topologies: the rank
        // index may bracket well or terribly, but results and the
        // generator's final state must equal the reference loop exactly.
        // The budgets cover every shape of the round sizing: one link
        // (single-candidate rounds), the usual budget (one full round
        // plus top-ups for its rejections) and 40 links (a first round
        // capped at BATCH); with 8 peers the larger two run the retry
        // cap dry, its last round cut short by `cap - tries`.
        let pareto = TruncatedPareto::new(1.5, 0.01).unwrap();
        let uni = Uniform;
        let cases: [(&dyn KeyDistribution, &dyn KeyDistribution); 3] =
            [(&uni, &uni), (&pareto, &pareto), (&pareto, &uni)];
        for topology in [Topology::Interval, Topology::Ring] {
            for (actual, assumed) in cases {
                for n in [8usize, 700] {
                    let mut rng = Rng::new(21);
                    let p = Placement::sample(n, actual, topology, &mut rng);
                    let sel = LinkSelector::new(&p, assumed, 1.0 / n as f64, LinkSampler::Harmonic);
                    for count in [1usize, 10, 40] {
                        for u in (0..n).step_by(n / 8 + 5) {
                            let mut a = Rng::stream(99, u as u64);
                            let mut b = Rng::stream(99, u as u64);
                            let fast = sel.sample_links(u as NodeId, count, &mut a);
                            let refr = sample_harmonic_reference(&sel, u as NodeId, count, &mut b);
                            let at = format!("topology={topology:?} n={n} count={count} u={u}");
                            assert_eq!(fast, refr, "{at}");
                            assert_eq!(a.next_u64(), b.next_u64(), "generator state, {at}");
                            assert_eq!(fast.len() < count, n == 8 && count > 1, "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn skewed_mass_rule_prefers_dense_region_neighbours() {
        // Under Pareto skew, peers in the dense region must link mostly
        // *within* the dense region (key-near but mass-far peers), while a
        // uniform-assuming selector would overshoot into the sparse tail.
        let mut rng = Rng::new(7);
        let d = TruncatedPareto::new(1.5, 0.01).unwrap();
        let p = Placement::sample(1024, &d, Topology::Interval, &mut rng);
        let sel_true = LinkSelector::new(&p, &d, 1.0 / 1024.0, LinkSampler::Exact);
        let uni = Uniform;
        let sel_naive = LinkSelector::new(&p, &uni, 1.0 / 1024.0, LinkSampler::Exact);
        let u = 5u32; // deep inside the dense region
        let mut rng2 = Rng::new(8);
        let t = sel_true.sample_links(u, 10, &mut rng2);
        let n = sel_naive.sample_links(u, 10, &mut rng2);
        let mean_key = |ls: &[NodeId]| {
            ls.iter().map(|&v| p.key(v).get()).sum::<f64>() / ls.len().max(1) as f64
        };
        assert!(
            mean_key(&t) < mean_key(&n),
            "mass-aware links stay dense: {} vs naive {}",
            mean_key(&t),
            mean_key(&n)
        );
    }

    #[test]
    fn threshold_zero_allows_near_neighbours() {
        let p = uniform_placement(128, 9);
        let uni = Uniform;
        let sel = LinkSelector::new(&p, &uni, 0.0, LinkSampler::Exact);
        let mut rng = Rng::new(10);
        // With no threshold the nearest peers dominate the weights; the
        // sampler must still return distinct admissible links.
        let links = sel.sample_links(64, 5, &mut rng);
        assert_eq!(links.len(), 5);
    }

    #[test]
    fn tiny_network_saturates_gracefully() {
        let p = uniform_placement(4, 11);
        let uni = Uniform;
        let sel = LinkSelector::new(&p, &uni, 0.25, LinkSampler::Exact);
        let mut rng = Rng::new(12);
        // Only a couple of admissible candidates exist; ask for more.
        let links = sel.sample_links(0, 10, &mut rng);
        assert!(links.len() <= 3);
        let set: std::collections::HashSet<_> = links.iter().collect();
        assert_eq!(set.len(), links.len());
    }

    #[test]
    fn ring_mass_wraps() {
        let mut rng = Rng::new(13);
        let p = Placement::sample(256, &Uniform, Topology::Ring, &mut rng);
        let uni = Uniform;
        let sel = LinkSelector::new(&p, &uni, 0.0, LinkSampler::Exact);
        // First and last peers are mass-close on the ring.
        let m = sel.mass_between(0, 255);
        assert!(m < 0.1, "wrap mass {m}");
    }
}
