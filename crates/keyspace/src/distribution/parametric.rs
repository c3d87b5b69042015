//! Parametric families truncated/renormalized to the unit interval.

use super::numerics::{norm_cdf, norm_pdf};
use super::{DistributionError, KeyDistribution};

/// Kumaraswamy(a, b): `cdf(x) = 1 − (1 − x^a)^b`.
///
/// Covers the same shape palette as the Beta distribution (bathtub for
/// `a, b < 1`, unimodal for `a, b > 1`, J-shapes otherwise) but with
/// closed-form CDF *and* quantile — ideal for the exact mass computations
/// Model 2 needs.
#[derive(Debug, Clone, Copy)]
pub struct Kumaraswamy {
    a: f64,
    b: f64,
}

impl Kumaraswamy {
    /// Creates a Kumaraswamy(a, b) distribution; both parameters must be
    /// finite and positive.
    pub fn new(a: f64, b: f64) -> Result<Self, DistributionError> {
        check_param("a", a, a.is_finite() && a > 0.0, "finite > 0")?;
        check_param("b", b, b.is_finite() && b > 0.0, "finite > 0")?;
        Ok(Kumaraswamy { a, b })
    }
}

impl KeyDistribution for Kumaraswamy {
    fn name(&self) -> String {
        format!("kumaraswamy({},{})", self.a, self.b)
    }

    fn pdf(&self, x: f64) -> f64 {
        if !(0.0..1.0).contains(&x) {
            return 0.0;
        }
        // Density can legitimately diverge at the boundary for a<1 or b<1;
        // nudge off the singular points so we return a large finite value.
        let x = x.clamp(1e-300, 1.0 - 1e-16);
        self.a * self.b * x.powf(self.a - 1.0) * (1.0 - x.powf(self.a)).powf(self.b - 1.0)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= 1.0 {
            1.0
        } else {
            1.0 - (1.0 - x.powf(self.a)).powf(self.b)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        (1.0 - (1.0 - p).powf(1.0 / self.b)).powf(1.0 / self.a)
    }
}

/// Normal(mu, sigma) truncated and renormalized to `[0, 1)`.
///
/// Models a hotspot around `mu` — e.g. peers clustered around a popular
/// key region.
#[derive(Debug, Clone, Copy)]
pub struct TruncatedNormal {
    mu: f64,
    sigma: f64,
    /// `Φ(α)` at the left truncation point.
    phi_lo: f64,
    /// Total mass `Φ(β) − Φ(α)` inside `[0, 1]`.
    mass: f64,
}

impl TruncatedNormal {
    /// Creates a truncated normal; `sigma` must be finite and positive and
    /// `mu` finite. The untruncated mean may lie outside `[0, 1)`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistributionError> {
        check_param("mu", mu, mu.is_finite(), "finite")?;
        check_param(
            "sigma",
            sigma,
            sigma.is_finite() && sigma > 0.0,
            "finite > 0",
        )?;
        let phi_lo = norm_cdf((0.0 - mu) / sigma);
        let phi_hi = norm_cdf((1.0 - mu) / sigma);
        let mass = phi_hi - phi_lo;
        if mass <= 1e-12 {
            return Err(DistributionError::InvalidParameter {
                name: "mu/sigma",
                value: mu,
                expected: "non-negligible mass inside [0,1)",
            });
        }
        Ok(TruncatedNormal {
            mu,
            sigma,
            phi_lo,
            mass,
        })
    }
}

impl KeyDistribution for TruncatedNormal {
    fn name(&self) -> String {
        format!("normal({},{})", self.mu, self.sigma)
    }

    fn pdf(&self, x: f64) -> f64 {
        if !(0.0..1.0).contains(&x) {
            return 0.0;
        }
        norm_pdf((x - self.mu) / self.sigma) / (self.sigma * self.mass)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= 1.0 {
            1.0
        } else {
            ((norm_cdf((x - self.mu) / self.sigma) - self.phi_lo) / self.mass).clamp(0.0, 1.0)
        }
    }
}

/// Exponential with rate `lambda`, truncated to `[0, 1)`:
/// `cdf(x) = (1 − e^{−λx}) / (1 − e^{−λ})`.
///
/// Positive `lambda` concentrates keys near `0`; negative `lambda` is also
/// accepted and concentrates keys near `1` (the algebra goes through
/// unchanged).
#[derive(Debug, Clone, Copy)]
pub struct TruncatedExponential {
    lambda: f64,
    /// Precomputed `1 − e^{−λ}`.
    denom: f64,
}

impl TruncatedExponential {
    /// Creates a truncated exponential; `lambda` must be finite, nonzero
    /// (use [`super::Uniform`] for the `λ → 0` limit) and `|λ| ≤ 700` to
    /// keep `e^{±λ}` in range.
    pub fn new(lambda: f64) -> Result<Self, DistributionError> {
        check_param(
            "lambda",
            lambda,
            lambda.is_finite() && lambda != 0.0 && lambda.abs() <= 700.0,
            "finite, nonzero, |lambda| <= 700",
        )?;
        Ok(TruncatedExponential {
            lambda,
            denom: 1.0 - (-lambda).exp(),
        })
    }
}

impl KeyDistribution for TruncatedExponential {
    fn name(&self) -> String {
        format!("exponential({})", self.lambda)
    }

    fn pdf(&self, x: f64) -> f64 {
        if !(0.0..1.0).contains(&x) {
            return 0.0;
        }
        self.lambda * (-self.lambda * x).exp() / self.denom
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= 1.0 {
            1.0
        } else {
            ((1.0 - (-self.lambda * x).exp()) / self.denom).clamp(0.0, 1.0)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        (-(1.0 - p * self.denom).ln() / self.lambda).clamp(0.0, 1.0)
    }
}

/// Shifted Pareto density `f(x) ∝ (x + x0)^{−α}` on `[0, 1)`.
///
/// The heavy-tailed “Zipf-like” skew of the early-2000s P2P measurement
/// studies: small `x0` puts an extreme spike at the low end of the key
/// space; `α` controls the tail.
#[derive(Debug, Clone, Copy)]
pub struct TruncatedPareto {
    alpha: f64,
    x0: f64,
    /// Precomputed `x0^(1−α)` (unused on the `α = 1` log branch).
    x0_pow: f64,
    /// Precomputed normaliser: the raw integral over `[0, 1]`.
    total: f64,
}

impl TruncatedPareto {
    /// Creates the distribution; requires finite `alpha > 0` and
    /// `x0 > 0`.
    pub fn new(alpha: f64, x0: f64) -> Result<Self, DistributionError> {
        check_param(
            "alpha",
            alpha,
            alpha.is_finite() && alpha > 0.0,
            "finite > 0",
        )?;
        check_param("x0", x0, x0.is_finite() && x0 > 0.0, "finite > 0")?;
        let mut d = TruncatedPareto {
            alpha,
            x0,
            x0_pow: x0.powf(1.0 - alpha),
            total: 0.0,
        };
        d.total = d.raw_integral(1.0);
        Ok(d)
    }

    /// True on the `α = 1` branch, where the antiderivative is a log.
    fn is_log(&self) -> bool {
        (self.alpha - 1.0).abs() < 1e-9
    }

    /// Antiderivative of the *unnormalized* density on `[0, x]`.
    fn raw_integral(&self, x: f64) -> f64 {
        if self.is_log() {
            ((x + self.x0) / self.x0).ln()
        } else {
            let e = 1.0 - self.alpha;
            ((x + self.x0).powf(e) - self.x0_pow) / e
        }
    }
}

impl KeyDistribution for TruncatedPareto {
    fn name(&self) -> String {
        format!("pareto({},{})", self.alpha, self.x0)
    }

    fn pdf(&self, x: f64) -> f64 {
        if !(0.0..1.0).contains(&x) {
            return 0.0;
        }
        (x + self.x0).powf(-self.alpha) / self.total
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= 1.0 {
            1.0
        } else {
            (self.raw_integral(x) / self.total).clamp(0.0, 1.0)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let target = p * self.total;
        let x = if self.is_log() {
            self.x0 * target.exp() - self.x0
        } else {
            let e = 1.0 - self.alpha;
            (target * e + self.x0_pow).powf(1.0 / e) - self.x0
        };
        x.clamp(0.0, 1.0)
    }
}

fn check_param(
    name: &'static str,
    value: f64,
    ok: bool,
    expected: &'static str,
) -> Result<(), DistributionError> {
    if ok {
        Ok(())
    } else {
        Err(DistributionError::InvalidParameter {
            name,
            value,
            expected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn check_cdf_quantile_roundtrip(d: &dyn KeyDistribution) {
        for i in 1..100 {
            let p = i as f64 / 100.0;
            let x = d.quantile(p);
            let back = d.cdf(x);
            assert!(
                (back - p).abs() < 1e-6,
                "{}: quantile({p}) = {x}, cdf back = {back}",
                d.name()
            );
        }
    }

    fn check_pdf_matches_cdf_derivative(d: &dyn KeyDistribution) {
        let h = 1e-6;
        for i in 1..50 {
            let x = i as f64 / 50.0 - 0.01;
            if x <= h || x >= 1.0 - h {
                continue;
            }
            let numeric = (d.cdf(x + h) - d.cdf(x - h)) / (2.0 * h);
            let analytic = d.pdf(x);
            let tol = 1e-3 * (1.0 + analytic.abs());
            assert!(
                (numeric - analytic).abs() < tol,
                "{} at x={x}: pdf={analytic}, dF/dx={numeric}",
                d.name()
            );
        }
    }

    #[test]
    fn kumaraswamy_rejects_bad_params() {
        assert!(Kumaraswamy::new(0.0, 1.0).is_err());
        assert!(Kumaraswamy::new(1.0, -2.0).is_err());
        assert!(Kumaraswamy::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn kumaraswamy_closed_forms_consistent() {
        for (a, b) in [(0.5, 0.5), (2.0, 2.0), (3.0, 4.0), (1.0, 1.0), (0.7, 2.5)] {
            let d = Kumaraswamy::new(a, b).unwrap();
            check_cdf_quantile_roundtrip(&d);
            check_pdf_matches_cdf_derivative(&d);
        }
    }

    #[test]
    fn kumaraswamy_1_1_is_uniform() {
        let d = Kumaraswamy::new(1.0, 1.0).unwrap();
        for i in 0..=10 {
            let x = i as f64 / 10.0;
            assert!((d.cdf(x) - x.clamp(0.0, 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_mass_concentrates_at_mu() {
        let d = TruncatedNormal::new(0.5, 0.05).unwrap();
        // ~all mass within 4 sigma of mu.
        assert!(d.mass_between(0.3, 0.7) > 0.999);
        assert!(d.pdf(0.5) > d.pdf(0.3));
        check_cdf_quantile_roundtrip(&d);
        check_pdf_matches_cdf_derivative(&d);
    }

    #[test]
    fn normal_offcenter_mu_allowed() {
        let d = TruncatedNormal::new(0.0, 0.3).unwrap();
        assert!(d.cdf(0.0) == 0.0 && d.cdf(1.0) == 1.0);
        assert!(d.pdf(0.01) > d.pdf(0.9));
        check_cdf_quantile_roundtrip(&d);
    }

    #[test]
    fn normal_rejects_vanishing_mass() {
        // All mass far outside the unit interval.
        assert!(TruncatedNormal::new(100.0, 0.001).is_err());
        assert!(TruncatedNormal::new(0.5, 0.0).is_err());
    }

    #[test]
    fn exponential_shapes() {
        let pos = TruncatedExponential::new(8.0).unwrap();
        assert!(pos.pdf(0.05) > pos.pdf(0.9));
        let neg = TruncatedExponential::new(-8.0).unwrap();
        assert!(neg.pdf(0.9) > neg.pdf(0.05));
        for d in [&pos, &neg] {
            check_cdf_quantile_roundtrip(d);
            check_pdf_matches_cdf_derivative(d);
        }
    }

    #[test]
    fn exponential_rejects_zero_rate() {
        assert!(TruncatedExponential::new(0.0).is_err());
        assert!(TruncatedExponential::new(f64::INFINITY).is_err());
    }

    #[test]
    fn pareto_consistency_both_branches() {
        // alpha != 1 branch and the log branch at alpha == 1.
        for (alpha, x0) in [(1.5, 0.02), (0.8, 0.1), (1.0, 0.05), (2.5, 0.01)] {
            let d = TruncatedPareto::new(alpha, x0).unwrap();
            check_cdf_quantile_roundtrip(&d);
            check_pdf_matches_cdf_derivative(&d);
        }
    }

    #[test]
    fn pareto_is_heavily_front_loaded() {
        let d = TruncatedPareto::new(1.5, 0.02).unwrap();
        // Most of the mass in the first 10% of the key space.
        assert!(d.cdf(0.1) > 0.6, "cdf(0.1) = {}", d.cdf(0.1));
    }

    #[test]
    fn sampling_matches_cdf() {
        // Kolmogorov-Smirnov-style check: empirical CDF within 2% of the
        // analytic CDF at a grid of points.
        let dists: Vec<Box<dyn KeyDistribution>> = vec![
            Box::new(Kumaraswamy::new(0.5, 0.5).unwrap()),
            Box::new(TruncatedNormal::new(0.5, 0.1).unwrap()),
            Box::new(TruncatedExponential::new(5.0).unwrap()),
            Box::new(TruncatedPareto::new(1.5, 0.05).unwrap()),
        ];
        let mut rng = Rng::new(1234);
        for d in &dists {
            let n = 20_000;
            let mut xs: Vec<f64> = (0..n).map(|_| d.sample_value(&mut rng)).collect();
            xs.sort_by(f64::total_cmp);
            for i in 1..10 {
                let q = i as f64 / 10.0;
                let x = d.quantile(q);
                let emp = xs.partition_point(|&s| s <= x) as f64 / n as f64;
                assert!((emp - q).abs() < 0.02, "{}: q={q} emp={emp}", d.name());
            }
        }
    }

    /// Points at which [`PARETO_BITS`] pins the density.
    const GOLDEN_XS: [f64; 12] = [
        1e-9,
        0.001,
        0.01,
        0.05,
        0.1,
        0.25,
        0.5,
        0.618_033_988_7,
        0.75,
        0.9,
        0.99,
        0.999_999,
    ];

    /// `(α, x0, [cdf, quantile, pdf] bits at each of GOLDEN_XS)`, recorded
    /// at commit abf6b81 — before the normaliser was cached — on x86-64
    /// Linux. Link sampling feeds these values straight into arena
    /// images, so a one-ulp move here is a different network.
    #[rustfmt::skip]
    const PARETO_BITS: [(f64, f64, [[u64; 3]; 12]); 3] = [
        (1.5, 0.01, [
            [0x3e6dcf49edab0d09, 0x3db3cd57c0000000, 0x404bc330e3a69036],
            [0x3faa75c436802d68, 0x3ef2e90a6644d600, 0x40481066cd244e64],
            [0x3fd4d1051095bbf2, 0x3f27edbf268cd840, 0x4033a18b2f09e7d4],
            [0x3fe507497ec4de10, 0x3f4fa0878e5c3920, 0x400e3954a69c3f59],
            [0x3fe8d24b88b8807a, 0x3f61041b4bca3a20, 0x3ff859e359523116],
            [0x3fec9118d2cf316e, 0x3f7b41e989ca36a6, 0x3fdacdf5040c6f68],
            [0x3fee8f579a5d1f24, 0x3f97a44d5a513bd4, 0x3fc3838b27c1fa8f],
            [0x3fef0d45e75adb0e, 0x3fa4ea365fe52169, 0x3fbc8f4721eb9447],
            [0x3fef75af4af0a844, 0x3fb5bb77cbfaa9fb, 0x3fb574375760e3a4],
            [0x3fefcf8f3cb52184, 0x3fd12c13f1c85576, 0x3fb05fda1161d353],
            [0x3feffb7c38051048, 0x3feadbb4471f004e, 0x3fac6dc3c0048040],
            [0x3fefffffe2a1c294, 0x3fefffd9a9bb20e8, 0x3fac01f5298e3c44],
        ]),
        (1.0, 0.05, [
            [0x3e3c36e2497ec0cc, 0x3de4ebfb00000000, 0x401a46d5b7c13ad0],
            [0x3f7aa44d14a5af03, 0x3f23fba4fac03000, 0x4019c2efadbcafed],
            [0x3faea942cdd7245e, 0x3f595303937fb540, 0x4015e5b22079fbf0],
            [0x3fcd244c78367a0d, 0x3f80d6437c5886f4, 0x400a46d5c0926187],
            [0x3fd7182597e8ee19, 0x3f92389e31e575f0, 0x4001848e8061965a],
            [0x3fe2d525ea021590, 0x3fad33a8e15bb3c4, 0x3ff1848e8061965b],
            [0x3fe934192ad5bee8, 0x3fc6edb12821ca6e, 0x3fe31c3e5d81bb4b],
            [0x3feb3f3b9f329e94, 0x3fd1ce206392990b, 0x3fdf77ae0df845f5],
            [0x3fed244c78367a0d, 0x3fdc31116c47612c, 0x3fda46d5c0926187],
            [0x3feef2b3b8a8f44d, 0x3fe72e507b7c70e2, 0x3fd620b4007b44a8],
            [0x3fefe6404b8e8bff, 0x3feefe119454b65e, 0x3fd4367d0a493754],
            [0x3fefffff580e9f40, 0x3feffff94bc2e46c, 0x3fd4053664e60061],
        ]),
        (0.8, 0.1, [
            [0x3e2beab6a6268a34, 0x3df52510d0000000, 0x4009ffe543c1ea08],
            [0x3f6a84897912b95a, 0x3f3430a8ac2a9700, 0x4009cb1f8d21d9f7],
            [0x3fa002f0c17185b3, 0x3f6984c9c1463a00, 0x40081742e92cba67],
            [0x3fc191e1e0a9d762, 0x3f90c0fe8b13d05c, 0x4002cc16578da7db],
            [0x3fceedc40dd24611, 0x3fa1d0edec0c3db8, 0x3ffddd9dc8f9899e],
            [0x3fdd9cab811c0029, 0x3fbac2141ddcb926, 0x3ff316525fba6e3b],
            [0x3fe668f86e923ed5, 0x3fd21319d54035d8, 0x3fe8cd96545aeada],
            [0x3fe92196c08a6c16, 0x3fd9ab92e106e80c, 0x3fe57bd8749737d8],
            [0x3febc73e6c660b75, 0x3fe2240f9713ab8f, 0x3fe2c56b8653e4fc],
            [0x3fee69f9dff9ffbc, 0x3fe9c97428a3127a, 0x3fe07b8dafb1b37e],
            [0x3fefd8c25dc78f20, 0x3fef55a8c345167d, 0x3fdec4e635d340e6],
            [0x3feffffeffc4bfb0, 0x3feffffb9b1e17b1, 0x3fde8b90ee55af16],
        ]),
    ];

    #[test]
    fn pareto_bits_match_the_pinned_values() {
        for (alpha, x0, rows) in PARETO_BITS {
            let d = TruncatedPareto::new(alpha, x0).unwrap();
            for (x, want) in GOLDEN_XS.into_iter().zip(rows) {
                let got = [d.cdf(x), d.quantile(x), d.pdf(x)].map(f64::to_bits);
                assert_eq!(
                    got, want,
                    "pareto({alpha},{x0}) [cdf, quantile, pdf] at {x}: {got:#018x?}"
                );
            }
        }
    }
}
