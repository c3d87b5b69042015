//! Piecewise-constant (histogram) densities.
//!
//! [`PiecewiseConstant`] doubles as (a) the classic “Zipf over m bins”
//! workload generator of the P2P literature and (b) the output format of
//! *local density estimation* (§4.2 of the paper: peers estimating `f`
//! from observed keys) — so the same code path serves workload generation
//! and the adaptive protocol.

use super::{DistributionError, KeyDistribution};

/// A histogram density: `bins` equal-width cells over `[0, 1)`, constant
/// density inside each cell.
#[derive(Debug, Clone)]
pub struct PiecewiseConstant {
    /// Probability mass per bin (sums to 1).
    mass: Vec<f64>,
    /// Cumulative mass; `cum[0] = 0`, `cum[bins] = 1`.
    cum: Vec<f64>,
    /// Short label for `name()`.
    label: String,
}

impl PiecewiseConstant {
    /// Builds a histogram density from nonnegative weights (one per bin).
    ///
    /// Weights are normalized to total mass 1; they must be finite,
    /// nonnegative, and sum to a positive value.
    pub fn from_weights(weights: &[f64]) -> Result<Self, DistributionError> {
        Self::from_weights_labeled(weights, format!("histogram({} bins)", weights.len()))
    }

    fn from_weights_labeled(weights: &[f64], label: String) -> Result<Self, DistributionError> {
        if weights.is_empty() {
            return Err(DistributionError::InvalidShape("no bins".into()));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(DistributionError::InvalidShape(
                "weights must be finite and nonnegative".into(),
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(DistributionError::InvalidShape(
                "weights must have positive sum".into(),
            ));
        }
        let mass: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut cum = Vec::with_capacity(mass.len() + 1);
        let mut acc = 0.0;
        cum.push(0.0);
        for m in &mass {
            acc += m;
            cum.push(acc);
        }
        // Pin the final entry to exactly 1 against float drift.
        *cum.last_mut().expect("nonempty") = 1.0;
        Ok(PiecewiseConstant { mass, cum, label })
    }

    /// Zipf(s) mass over `bins` cells in rank order: bin `i` gets weight
    /// `1/(i+1)^s`. The hottest cell sits at the low end of the key space.
    pub fn zipf(bins: usize, s: f64) -> Result<Self, DistributionError> {
        if !s.is_finite() || s < 0.0 {
            return Err(DistributionError::InvalidParameter {
                name: "s",
                value: s,
                expected: "finite >= 0",
            });
        }
        let weights: Vec<f64> = (0..bins).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        Self::from_weights_labeled(&weights, format!("zipf({bins},{s})"))
    }

    fn bin_width(&self) -> f64 {
        1.0 / self.mass.len() as f64
    }
}

impl KeyDistribution for PiecewiseConstant {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn pdf(&self, x: f64) -> f64 {
        if !(0.0..1.0).contains(&x) {
            return 0.0;
        }
        let b = ((x * self.mass.len() as f64) as usize).min(self.mass.len() - 1);
        self.mass[b] / self.bin_width()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        if x >= 1.0 {
            return 1.0;
        }
        let n = self.mass.len() as f64;
        let pos = x * n;
        let b = (pos as usize).min(self.mass.len() - 1);
        let frac = pos - b as f64;
        (self.cum[b] + frac * self.mass[b]).clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        // First bin whose cumulative upper bound reaches p.
        let b = self.cum.partition_point(|&c| c < p).saturating_sub(1);
        let b = b.min(self.mass.len() - 1);
        let within = if self.mass[b] > 0.0 {
            (p - self.cum[b]) / self.mass[b]
        } else {
            0.0
        };
        ((b as f64 + within.clamp(0.0, 1.0)) * self.bin_width()).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PiecewiseConstant {
        /// Per-bin probability mass.
        fn bin_masses(&self) -> &[f64] {
            &self.mass
        }
    }

    fn roundtrip(d: &dyn KeyDistribution) {
        for i in 0..=100 {
            let p = i as f64 / 100.0;
            let x = d.quantile(p);
            let back = d.cdf(x);
            assert!(
                (back - p).abs() < 1e-9,
                "{}: p={p}, q={x}, cdf={back}",
                d.name()
            );
        }
    }

    #[test]
    fn histogram_rejects_bad_weights() {
        assert!(PiecewiseConstant::from_weights(&[]).is_err());
        assert!(PiecewiseConstant::from_weights(&[0.0, 0.0]).is_err());
        assert!(PiecewiseConstant::from_weights(&[1.0, -0.5]).is_err());
        assert!(PiecewiseConstant::from_weights(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn histogram_uniform_weights_are_uniform() {
        let d = PiecewiseConstant::from_weights(&[1.0; 10]).unwrap();
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            assert!((d.cdf(x) - x.min(1.0)).abs() < 1e-12);
        }
        assert!((d.pdf(0.55) - 1.0).abs() < 1e-12);
        roundtrip(&d);
    }

    #[test]
    fn histogram_respects_masses() {
        let d = PiecewiseConstant::from_weights(&[3.0, 1.0]).unwrap();
        assert!((d.cdf(0.5) - 0.75).abs() < 1e-12);
        assert!((d.pdf(0.25) - 1.5).abs() < 1e-12);
        assert!((d.pdf(0.75) - 0.5).abs() < 1e-12);
        assert!((d.quantile(0.75) - 0.5).abs() < 1e-12);
        roundtrip(&d);
    }

    #[test]
    fn histogram_with_empty_bins_roundtrips() {
        let d = PiecewiseConstant::from_weights(&[1.0, 0.0, 0.0, 1.0]).unwrap();
        roundtrip(&d);
        assert_eq!(d.pdf(0.4), 0.0);
        assert!((d.cdf(0.3) - 0.5).abs() < 1e-12);
        assert!((d.cdf(0.7) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zipf_mass_decreases_with_rank() {
        let d = PiecewiseConstant::zipf(16, 1.0).unwrap();
        let m = d.bin_masses();
        for w in m.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        roundtrip(&d);
    }
}
