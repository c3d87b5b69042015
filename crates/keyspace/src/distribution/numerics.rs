//! Special functions implemented in-tree (no numeric crates offline).
//!
//! Only what the distribution library needs: the error function and the
//! standard normal pdf/cdf. Accuracy is modest (~1.5e-7 absolute for
//! `erf`) but far below the statistical noise of any experiment in this
//! workspace; the tests pin the achieved accuracy against high-precision
//! reference values.

use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// Error function via the Abramowitz & Stegun 7.1.26 rational
/// approximation (max absolute error ≈ 1.5e-7).
fn erf(x: f64) -> f64 {
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;

    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let poly = ((((A5 * t + A4) * t + A3) * t + A2) * t + A1) * t;
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal density `φ(z)`.
pub fn norm_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (2.0 * PI).sqrt()
}

/// Standard normal CDF `Φ(z)`.
pub fn norm_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z * FRAC_1_SQRT_2))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference values computed with mpmath at 50 digits.
    const ERF_REFS: &[(f64, f64)] = &[
        (0.0, 0.0),
        (0.1, 0.1124629160182849),
        (0.5, 0.5204998778130465),
        (1.0, 0.8427007929497149),
        (1.5, 0.9661051464753107),
        (2.0, 0.9953222650189527),
        (3.0, 0.9999779095030014),
    ];

    #[test]
    fn erf_matches_reference_within_2e7() {
        for &(x, want) in ERF_REFS {
            let got = erf(x);
            assert!((got - want).abs() < 2e-7, "erf({x}) = {got}, want {want}");
            // Odd symmetry.
            assert!((erf(-x) + want).abs() < 2e-7);
        }
    }

    #[test]
    fn erf_saturates() {
        assert!((erf(6.0) - 1.0).abs() < 1e-9);
        assert!((erf(-6.0) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn norm_cdf_reference_points() {
        // (z, Phi(z))
        let refs = [
            (0.0, 0.5),
            (1.0, 0.8413447460685429),
            (1.96, 0.9750021048517795),
            (-1.0, 0.15865525393145707),
            (2.5758, 0.9949998904404562),
        ];
        for (z, want) in refs {
            let got = norm_cdf(z);
            // A&S 7.1.26 is good to ~1.5e-7 on erf; allow 5e-7 on Phi.
            assert!((got - want).abs() < 5e-7, "Phi({z}) = {got}, want {want}");
        }
    }

    #[test]
    fn norm_pdf_peak_and_symmetry() {
        assert!((norm_pdf(0.0) - 0.3989422804014327).abs() < 1e-12);
        assert!((norm_pdf(1.3) - norm_pdf(-1.3)).abs() < 1e-15);
    }

    #[test]
    fn norm_cdf_is_monotone() {
        let mut prev = 0.0;
        for i in -400..=400 {
            let z = i as f64 / 100.0;
            let c = norm_cdf(z);
            assert!(c + 1e-9 >= prev, "non-monotone at z={z}");
            prev = c;
        }
    }
}
