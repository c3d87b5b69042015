//! Key distributions: the probability density `f` of §2.1.
//!
//! The paper's Model 2 (§4.1) selects long-range links with probability
//! inversely proportional to the *mass* `|∫_u^v f(x)dx| = |F(v) − F(u)|`,
//! and its proof of Theorem 2 normalizes the space through the CDF `F`.
//! Every distribution here therefore exposes an exact, mutually consistent
//! `pdf`/`cdf`/`quantile` triple — no numerical integration at call sites.
//!
//! Concrete families:
//!
//! * [`Uniform`] — the baseline `f = 1` of Model 1.
//! * [`Kumaraswamy`] — Beta-like shapes with closed-form CDF and quantile.
//! * [`TruncatedNormal`] — a hotspot in the middle of the key space.
//! * [`TruncatedExponential`] — monotone skew toward one end.
//! * [`TruncatedPareto`] — heavy-tailed skew (the classic “Zipf-like”
//!   workload of the 2000s P2P literature).
//! * [`PiecewiseConstant`] — histogram densities, incl. the Zipf-binned
//!   constructor; also the output of local density *estimation*.
//! * [`Empirical`] — interpolated ECDF learned from observed keys.

mod composite;
mod numerics;
mod parametric;
mod piecewise;

pub use composite::Empirical;
pub use numerics::{norm_cdf, norm_pdf};
pub use parametric::{Kumaraswamy, TruncatedExponential, TruncatedNormal, TruncatedPareto};
pub use piecewise::PiecewiseConstant;

use crate::key::Key;
use crate::rng::Rng;
use std::fmt;

/// A probability distribution over the key space `[0, 1)`.
///
/// # Contract
///
/// For every implementation and all finite inputs:
///
/// * `pdf(x) ≥ 0`; `pdf(x) = 0` outside `[0, 1)`.
/// * `cdf` is nondecreasing with `cdf(x) = 0` for `x ≤ 0` and
///   `cdf(x) = 1` for `x ≥ 1`.
/// * `quantile(p)` inverts `cdf` on `[0, 1]` up to numerical tolerance:
///   `cdf(quantile(p)) ≈ p`.
/// * `sample_value` draws from the distribution (default: inverse-CDF).
///
/// These invariants are enforced by shared property tests in
/// `tests/contract.rs` of this crate.
pub trait KeyDistribution: fmt::Debug + Send + Sync {
    /// Human-readable name with parameters, e.g. `"kumaraswamy(0.5,0.5)"`.
    fn name(&self) -> String;

    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function `F(x) = P[X ≤ x]`.
    fn cdf(&self, x: f64) -> f64;

    /// Inverse CDF. `p` is clamped to `[0, 1]`.
    ///
    /// The default implementation bisects the CDF (64 iterations, ~1e-19
    /// interval width); implementations with closed forms override it.
    fn quantile(&self, p: f64) -> f64 {
        bisect_quantile(&|x| self.cdf(x), p)
    }

    /// Draws a value in `[0, 1)` from this distribution.
    fn sample_value(&self, rng: &mut Rng) -> f64 {
        // Inverse-CDF sampling; clamp below 1.0 for the half-open space.
        self.quantile(rng.f64()).clamp(0.0, Key::MAX.get())
    }

    /// Draws a [`Key`].
    fn sample_key(&self, rng: &mut Rng) -> Key {
        Key::clamped(self.sample_value(rng))
    }

    /// The mass distance `|F(b) − F(a)|` of the paper's Eq. (7)/(8) —
    /// the distance `d′` in the normalized space `R′`.
    fn mass_between(&self, a: f64, b: f64) -> f64 {
        (self.cdf(b) - self.cdf(a)).abs()
    }
}

/// Generic quantile via bisection of a monotone CDF on `[0, 1]`.
pub(crate) fn bisect_quantile(cdf: &dyn Fn(f64) -> f64, p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The uniform distribution on `[0, 1)` — Model 1's `f = const`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

impl KeyDistribution for Uniform {
    fn name(&self) -> String {
        "uniform".into()
    }

    fn pdf(&self, x: f64) -> f64 {
        if (0.0..1.0).contains(&x) {
            1.0
        } else {
            0.0
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        x.clamp(0.0, 1.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        p.clamp(0.0, 1.0)
    }

    fn sample_value(&self, rng: &mut Rng) -> f64 {
        rng.f64()
    }
}

/// The standard palette of distributions exercised by the experiments:
/// one uniform baseline plus six differently shaped skews.
///
/// Used by E3/E4/E8/E9 so that “independent of the skew of the key-space
/// partition” (Theorem 2) is tested across qualitatively different `f`.
pub fn standard_suite() -> Vec<Box<dyn KeyDistribution>> {
    vec![
        Box::new(Uniform),
        Box::new(Kumaraswamy::new(0.5, 0.5).expect("valid params")),
        Box::new(Kumaraswamy::new(3.0, 4.0).expect("valid params")),
        Box::new(TruncatedNormal::new(0.5, 0.08).expect("valid params")),
        Box::new(TruncatedExponential::new(8.0).expect("valid params")),
        Box::new(TruncatedPareto::new(1.5, 0.02).expect("valid params")),
        Box::new(PiecewiseConstant::zipf(64, 1.2).expect("valid params")),
    ]
}

/// Construction-parameter errors shared by the distribution family.
#[derive(Debug, Clone, PartialEq)]
pub enum DistributionError {
    /// A shape/scale/rate parameter was non-finite or out of its domain.
    InvalidParameter {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
        /// Human-readable domain description.
        expected: &'static str,
    },
    /// Weight/point vectors that cannot form a density.
    InvalidShape(String),
}

impl fmt::Display for DistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistributionError::InvalidParameter {
                name,
                value,
                expected,
            } => {
                write!(f, "parameter {name}={value} invalid (expected {expected})")
            }
            DistributionError::InvalidShape(msg) => write!(f, "invalid shape: {msg}"),
        }
    }
}

impl std::error::Error for DistributionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_its_own_cdf() {
        let u = Uniform;
        assert_eq!(u.pdf(0.4), 1.0);
        assert_eq!(u.pdf(-0.1), 0.0);
        assert_eq!(u.pdf(1.0), 0.0);
        assert_eq!(u.cdf(0.25), 0.25);
        assert_eq!(u.cdf(-3.0), 0.0);
        assert_eq!(u.cdf(2.0), 1.0);
        assert_eq!(u.quantile(0.7), 0.7);
    }

    #[test]
    fn uniform_mass_is_length() {
        let u = Uniform;
        assert!((u.mass_between(0.2, 0.5) - 0.3).abs() < 1e-12);
        assert!((u.mass_between(0.5, 0.2) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn bisect_quantile_inverts_uniform() {
        for p in [0.0, 0.1, 0.5, 0.99, 1.0] {
            let q = bisect_quantile(&|x| x.clamp(0.0, 1.0), p);
            assert!((q - p).abs() < 1e-9, "p={p} q={q}");
        }
    }

    #[test]
    fn samples_stay_in_key_space() {
        let mut rng = Rng::new(3);
        let u = Uniform;
        for _ in 0..1000 {
            let k = u.sample_key(&mut rng);
            assert!(k.get() < 1.0);
        }
    }

    #[test]
    fn suite_has_uniform_plus_skews() {
        let suite = standard_suite();
        assert!(suite.len() >= 7);
        assert_eq!(suite[0].name(), "uniform");
        // All are valid distributions at a basic level.
        for d in &suite {
            assert!(d.cdf(1.0) > 0.999, "{}: cdf(1) = {}", d.name(), d.cdf(1.0));
            assert!(d.cdf(0.0) < 1e-9, "{}: cdf(0) = {}", d.name(), d.cdf(0.0));
        }
    }
}
