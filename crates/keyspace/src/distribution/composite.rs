//! Empirical (learned) densities.

use super::{DistributionError, KeyDistribution, PiecewiseConstant};

/// Empirical distribution from observed keys: linear interpolation of the
/// empirical CDF between order statistics.
///
/// This is what a peer in §4.2 can build from keys it has *seen* (its
/// routing table, passing queries, gossip samples) when the true `f` is
/// unknown. [`Empirical::to_histogram`] converts to a smoothed
/// [`PiecewiseConstant`] suitable for link sampling.
#[derive(Debug, Clone)]
pub struct Empirical {
    /// Sorted, deduplicated sample values in `[0, 1)`.
    sorted: Vec<f64>,
}

impl Empirical {
    /// Builds the empirical distribution from samples. Requires at least
    /// two distinct finite values in `[0, 1)`.
    pub fn from_samples(samples: &[f64]) -> Result<Self, DistributionError> {
        let mut sorted: Vec<f64> = samples
            .iter()
            .copied()
            .filter(|x| x.is_finite() && (0.0..1.0).contains(x))
            .collect();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        if sorted.len() < 2 {
            return Err(DistributionError::InvalidShape(
                "need at least two distinct in-range samples".into(),
            ));
        }
        Ok(Empirical { sorted })
    }

    /// Number of retained (distinct, in-range) samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Converts to a histogram density with `bins` cells, adding one
    /// pseudo-count per bin (Laplace smoothing) so the estimated density
    /// never vanishes — important when it is used as a link-sampling pdf.
    pub fn to_histogram(&self, bins: usize) -> Result<PiecewiseConstant, DistributionError> {
        if bins == 0 {
            return Err(DistributionError::InvalidShape("zero bins".into()));
        }
        let mut weights = vec![1.0; bins];
        for &x in &self.sorted {
            let b = ((x * bins as f64) as usize).min(bins - 1);
            weights[b] += 1.0;
        }
        PiecewiseConstant::from_weights(&weights)
    }
}

impl KeyDistribution for Empirical {
    fn name(&self) -> String {
        format!("empirical({} samples)", self.sorted.len())
    }

    fn pdf(&self, x: f64) -> f64 {
        // Central difference of the interpolated CDF.
        let h = 1e-4;
        ((self.cdf(x + h) - self.cdf(x - h)) / (2.0 * h)).max(0.0)
    }

    fn cdf(&self, x: f64) -> f64 {
        let s = &self.sorted;
        let n = s.len();
        if x <= s[0] {
            // Linear ramp from (0, 0) to the first sample.
            if s[0] <= 0.0 || x <= 0.0 {
                return 0.0;
            }
            return (x / s[0]).clamp(0.0, 1.0) * (0.5 / n as f64);
        }
        if x >= s[n - 1] {
            // Linear ramp from the last sample to (1, 1).
            if x >= 1.0 {
                return 1.0;
            }
            let tail = 0.5 / n as f64;
            let span = 1.0 - s[n - 1];
            if span <= 0.0 {
                return 1.0;
            }
            return 1.0 - tail + ((x - s[n - 1]) / span) * tail;
        }
        // Interpolate between order statistics: sample i sits at
        // probability (i + 0.5) / n (Hazen plotting position).
        let i = s.partition_point(|&v| v <= x) - 1;
        let p_lo = (i as f64 + 0.5) / n as f64;
        let p_hi = (i as f64 + 1.5) / n as f64;
        let t = (x - s[i]) / (s[i + 1] - s[i]);
        (p_lo + t * (p_hi - p_lo)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::TruncatedNormal;
    use crate::rng::Rng;

    #[test]
    fn empirical_needs_two_distinct_samples() {
        assert!(Empirical::from_samples(&[]).is_err());
        assert!(Empirical::from_samples(&[0.5]).is_err());
        assert!(Empirical::from_samples(&[0.5, 0.5]).is_err());
        assert!(Empirical::from_samples(&[f64::NAN, 2.0]).is_err());
        assert!(Empirical::from_samples(&[0.3, 0.7]).is_ok());
    }

    #[test]
    fn empirical_cdf_is_monotone_and_bounded() {
        let mut rng = Rng::new(23);
        let tn = TruncatedNormal::new(0.4, 0.15).unwrap();
        let samples: Vec<f64> = (0..500).map(|_| tn.sample_value(&mut rng)).collect();
        let e = Empirical::from_samples(&samples).unwrap();
        let mut prev = -1.0;
        for i in 0..=1000 {
            let x = i as f64 / 1000.0;
            let c = e.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c + 1e-12 >= prev, "non-monotone at {x}");
            prev = c;
        }
        assert_eq!(e.cdf(0.0), 0.0);
        assert_eq!(e.cdf(1.0), 1.0);
    }

    #[test]
    fn empirical_approximates_the_source() {
        let mut rng = Rng::new(29);
        let src = TruncatedNormal::new(0.5, 0.1).unwrap();
        let samples: Vec<f64> = (0..5_000).map(|_| src.sample_value(&mut rng)).collect();
        let e = Empirical::from_samples(&samples).unwrap();
        for i in 1..10 {
            let x = i as f64 / 10.0;
            assert!(
                (e.cdf(x) - src.cdf(x)).abs() < 0.03,
                "x={x}: emp={} true={}",
                e.cdf(x),
                src.cdf(x)
            );
        }
    }

    #[test]
    fn empirical_histogram_is_valid_density() {
        let mut rng = Rng::new(31);
        let src = TruncatedNormal::new(0.3, 0.05).unwrap();
        let samples: Vec<f64> = (0..2_000).map(|_| src.sample_value(&mut rng)).collect();
        let h = Empirical::from_samples(&samples)
            .unwrap()
            .to_histogram(32)
            .unwrap();
        assert!((h.cdf(1.0) - 1.0).abs() < 1e-12);
        // Laplace smoothing: density positive everywhere.
        for i in 0..32 {
            assert!(h.pdf((i as f64 + 0.5) / 32.0) > 0.0);
        }
        // Peak near 0.3.
        assert!(h.pdf(0.3) > h.pdf(0.8));
    }
}
