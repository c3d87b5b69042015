//! Local density estimation and iterative link refinement — §4.2's
//! “more realistic situation, where peers do not have information of the
//! distribution f and have to acquire it locally, by interacting with
//! other peers”.
//!
//! A peer samples keys by random walks over the current overlay, builds a
//! histogram estimate `f̂_u`, and re-draws its long links against that
//! estimate. Repeating the cycle is the paper's “iterative process of
//! revising its routing table according to the current knowledge on f”.
//! Experiment E11 measures routing cost as a function of the sample
//! budget and of refinement rounds.

use crate::config::{LinkSampler, MassThreshold};
use crate::links::LinkSelector;
use crate::network::SmallWorldNetwork;
use sw_graph::NodeId;
use sw_keyspace::distribution::{Empirical, PiecewiseConstant};
use sw_keyspace::Rng;
use sw_overlay::Overlay;

/// Collects `samples` peer keys by random walks of `walk_len` hops
/// starting at `start` (the walk's visited keys, start excluded).
///
/// Random walks over the overlay graph are how a peer can observe other
/// peers' keys without any global component; the mild degree bias of the
/// walk is irrelevant here because all peers have (near-)equal degree.
fn walk_samples(
    net: &SmallWorldNetwork,
    start: NodeId,
    samples: usize,
    walk_len: usize,
    rng: &mut Rng,
) -> Vec<f64> {
    let mut out = Vec::with_capacity(samples);
    let mut cur = start;
    while out.len() < samples {
        for _ in 0..walk_len.max(1) {
            let contacts = net.contacts(cur);
            if contacts.is_empty() {
                cur = start;
                break;
            }
            cur = contacts[rng.index(contacts.len())];
        }
        out.push(net.placement().key(cur).get());
    }
    out
}

/// Builds a Laplace-smoothed histogram density from observed keys.
fn density_from_samples(samples: &[f64], bins: usize) -> PiecewiseConstant {
    let mut weights = vec![1.0; bins.max(1)];
    for &x in samples {
        if (0.0..1.0).contains(&x) {
            let b = ((x * bins as f64) as usize).min(bins - 1);
            weights[b] += 1.0;
        }
    }
    PiecewiseConstant::from_weights(&weights).expect("smoothed weights are positive")
}

/// How a peer turns its key samples into a density estimate `f̂_u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// Laplace-smoothed fixed-bin histogram. Simple, but its resolution
    /// is uniform in *key* space: a dense region narrower than one bin
    /// is modelled as flat, which mis-places links inside hotspots.
    Histogram {
        /// Number of equal-width bins.
        bins: usize,
    },
    /// Interpolated empirical CDF over the sampled keys. Resolution is
    /// uniform in *mass* — each order statistic carries `1/k` of the
    /// estimated mass — exactly the adaptivity the mass-based link rule
    /// needs under heavy skew. (E11 ablates the two.)
    Ecdf,
}

/// One round of decentralized link refinement: every peer samples keys
/// by random walk, estimates `f̂_u` with the chosen [`Estimator`], and
/// re-draws its long links with the harmonic sampler against its own
/// estimate. Returns the total sample cost spent.
pub fn refine_links_round(
    net: &mut SmallWorldNetwork,
    samples_per_peer: usize,
    walk_len: usize,
    estimator: Estimator,
    rng: &mut Rng,
) -> usize {
    let n = net.len();
    let budget = net.config().out_degree.links_for(n);
    let min_mass = MassThreshold::OneOverN.min_mass(n);
    let mut new_links: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    for u in 0..n as NodeId {
        let mut samples = walk_samples(net, u, samples_per_peer, walk_len, rng);
        // The peer also knows its own key and its neighbours' keys.
        samples.push(net.placement().key(u).get());
        let est: Box<dyn sw_keyspace::distribution::KeyDistribution> = match estimator {
            Estimator::Histogram { bins } => Box::new(density_from_samples(&samples, bins)),
            Estimator::Ecdf => match Empirical::from_samples(&samples) {
                Ok(e) => Box::new(e),
                // Degenerate sample set: fall back to a smoothed histogram.
                Err(_) => Box::new(density_from_samples(&samples, 16)),
            },
        };
        let selector = LinkSelector::new(
            net.placement(),
            est.as_ref(),
            min_mass,
            LinkSampler::Harmonic,
        );
        new_links.push(selector.sample_links(u, budget, rng));
    }
    net.set_all_long_links(new_links);
    samples_per_peer * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SmallWorldBuilder;
    use crate::config::{LinkSampler, OutDegree};
    use sw_keyspace::distribution::{KeyDistribution, TruncatedPareto, Uniform};

    #[test]
    fn walk_collects_requested_samples() {
        let mut rng = Rng::new(1);
        let net = SmallWorldBuilder::new(256).build(&mut rng).unwrap();
        let s = walk_samples(&net, 0, 50, 3, &mut rng);
        assert_eq!(s.len(), 50);
        assert!(s.iter().all(|x| (0.0..1.0).contains(x)));
    }

    #[test]
    fn walk_samples_reflect_the_density() {
        let mut rng = Rng::new(2);
        let net = SmallWorldBuilder::new(2048)
            .distribution(Box::new(TruncatedPareto::new(1.5, 0.01).unwrap()))
            .build(&mut rng)
            .unwrap();
        let s = walk_samples(&net, 1000, 600, 4, &mut rng);
        // Most walk samples must land in the dense low-key region.
        let low = s.iter().filter(|&&x| x < 0.2).count();
        assert!(low > s.len() / 2, "low-region samples: {low}/{}", s.len());
    }

    #[test]
    fn density_estimate_matches_histogram_shape() {
        let samples = vec![0.05, 0.06, 0.07, 0.08, 0.9];
        let d = density_from_samples(&samples, 10);
        assert!(d.pdf(0.05) > d.pdf(0.5));
        assert!(d.pdf(0.95) > d.pdf(0.5));
        // Laplace smoothing: no zero-density bins.
        assert!(d.pdf(0.45) > 0.0);
    }

    #[test]
    fn refinement_restores_skewed_routing_from_naive_start() {
        // Start from the *naive* network (links chosen as if uniform on a
        // skewed placement) and run refinement rounds; routing cost must
        // drop toward the oracle's.
        let mut rng = Rng::new(3);
        let skew = TruncatedPareto::new(1.5, 0.005).unwrap();
        let naive = SmallWorldBuilder::new(1024)
            .distribution(Box::new(skew))
            .assumed(Box::new(Uniform))
            .out_degree(OutDegree::Log2N)
            .sampler(LinkSampler::Harmonic)
            .build(&mut rng)
            .unwrap();
        let mut net = naive.clone();
        let before = net.routing_survey(300, &mut rng);
        for _ in 0..2 {
            refine_links_round(&mut net, 128, 3, Estimator::Ecdf, &mut rng);
        }
        let after = net.routing_survey(300, &mut rng);
        assert!(after.success_rate() > 0.999);
        assert!(
            after.hops.mean() < before.hops.mean(),
            "refinement must help: {} -> {}",
            before.hops.mean(),
            after.hops.mean()
        );
    }

    #[test]
    fn refinement_on_uniform_network_is_harmless() {
        let mut rng = Rng::new(4);
        let mut net = SmallWorldBuilder::new(512)
            .sampler(LinkSampler::Harmonic)
            .build(&mut rng)
            .unwrap();
        let before = net.routing_survey(200, &mut rng).hops.mean();
        refine_links_round(&mut net, 64, 3, Estimator::Ecdf, &mut rng);
        let after = net.routing_survey(200, &mut rng).hops.mean();
        assert!(
            after < before * 1.4,
            "uniform refinement: {before} -> {after}"
        );
    }
}
