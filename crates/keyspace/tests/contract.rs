//! Property-based contract tests for every `KeyDistribution`
//! implementation: the invariants documented on the trait must hold for
//! arbitrary in-range inputs and arbitrary (valid) parameters.

use proptest::prelude::*;
use std::sync::Arc;
use sw_keyspace::distribution::{
    Empirical, KeyDistribution, Kumaraswamy, Mixture, PiecewiseConstant, PiecewiseLinear,
    TruncatedExponential, TruncatedNormal, TruncatedPareto, Uniform,
};
use sw_keyspace::Rng;

/// All distributions under test, with fixed representative parameters.
fn fixed_zoo() -> Vec<Box<dyn KeyDistribution>> {
    let mut rng = Rng::new(0xC0FFEE);
    let samples: Vec<f64> = (0..400)
        .map(|_| {
            TruncatedNormal::new(0.4, 0.2)
                .unwrap()
                .sample_value(&mut rng)
        })
        .collect();
    vec![
        Box::new(Uniform),
        Box::new(Kumaraswamy::new(0.5, 0.5).unwrap()),
        Box::new(Kumaraswamy::new(3.0, 4.0).unwrap()),
        Box::new(TruncatedNormal::new(0.5, 0.08).unwrap()),
        Box::new(TruncatedNormal::new(-0.2, 0.4).unwrap()),
        Box::new(TruncatedExponential::new(8.0).unwrap()),
        Box::new(TruncatedExponential::new(-3.0).unwrap()),
        Box::new(TruncatedPareto::new(1.5, 0.02).unwrap()),
        Box::new(TruncatedPareto::new(1.0, 0.1).unwrap()),
        Box::new(PiecewiseConstant::zipf(32, 1.2).unwrap()),
        Box::new(PiecewiseConstant::step(16, 0.25, 10.0).unwrap()),
        Box::new(PiecewiseLinear::tent(0.3).unwrap()),
        Box::new(PiecewiseLinear::valley(0.6).unwrap()),
        Box::new(Mixture::bimodal(0.2, 0.05, 0.75, 0.1).unwrap()),
        Box::new(Empirical::from_samples(&samples).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cdf_is_monotone(x1 in 0.0f64..1.0, x2 in 0.0f64..1.0) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        for d in fixed_zoo() {
            prop_assert!(
                d.cdf(lo) <= d.cdf(hi) + 1e-12,
                "{}: cdf({lo}) > cdf({hi})", d.name()
            );
        }
    }

    #[test]
    fn cdf_bounded_and_anchored(x in -2.0f64..3.0) {
        for d in fixed_zoo() {
            let c = d.cdf(x);
            prop_assert!((0.0..=1.0).contains(&c), "{}: cdf({x}) = {c}", d.name());
            prop_assert!(d.cdf(-0.5) == 0.0, "{}", d.name());
            prop_assert!(d.cdf(1.5) == 1.0, "{}", d.name());
        }
    }

    #[test]
    fn pdf_is_nonnegative(x in -0.5f64..1.5) {
        for d in fixed_zoo() {
            prop_assert!(d.pdf(x) >= 0.0, "{}: pdf({x}) < 0", d.name());
        }
    }

    #[test]
    fn quantile_inverts_cdf(p in 0.001f64..0.999) {
        for d in fixed_zoo() {
            let x = d.quantile(p);
            prop_assert!((0.0..=1.0).contains(&x), "{}: quantile out of range", d.name());
            let back = d.cdf(x);
            prop_assert!(
                (back - p).abs() < 1e-5,
                "{}: cdf(quantile({p})) = {back}", d.name()
            );
        }
    }

    #[test]
    fn quantile_is_monotone(p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        for d in fixed_zoo() {
            prop_assert!(
                d.quantile(lo) <= d.quantile(hi) + 1e-9,
                "{}: quantile not monotone", d.name()
            );
        }
    }

    #[test]
    fn mass_between_is_symmetric_and_additive(
        a in 0.0f64..1.0, b in 0.0f64..1.0, c in 0.0f64..1.0
    ) {
        let mut v = [a, b, c];
        v.sort_by(f64::total_cmp);
        let [lo, mid, hi] = v;
        for d in fixed_zoo() {
            prop_assert!((d.mass_between(lo, hi) - d.mass_between(hi, lo)).abs() < 1e-12);
            let split = d.mass_between(lo, mid) + d.mass_between(mid, hi);
            prop_assert!(
                (d.mass_between(lo, hi) - split).abs() < 1e-9,
                "{}: mass not additive", d.name()
            );
        }
    }

    #[test]
    fn samples_land_in_key_space(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        for d in fixed_zoo() {
            for _ in 0..16 {
                let k = d.sample_key(&mut rng);
                prop_assert!(k.get() >= 0.0 && k.get() < 1.0, "{}", d.name());
            }
        }
    }

    #[test]
    fn kumaraswamy_params_random(a in 0.2f64..5.0, b in 0.2f64..5.0, p in 0.01f64..0.99) {
        let d = Kumaraswamy::new(a, b).unwrap();
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn pareto_params_random(alpha in 0.3f64..3.0, x0 in 0.005f64..0.5, p in 0.01f64..0.99) {
        let d = TruncatedPareto::new(alpha, x0).unwrap();
        let x = d.quantile(p);
        prop_assert!((d.cdf(x) - p).abs() < 1e-8, "alpha={alpha} x0={x0} p={p} x={x}");
    }

    #[test]
    fn histogram_random_weights(ws in proptest::collection::vec(0.0f64..10.0, 2..40)) {
        prop_assume!(ws.iter().sum::<f64>() > 0.0);
        let d = PiecewiseConstant::from_weights(&ws).unwrap();
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let x = d.quantile(p);
            prop_assert!((d.cdf(x) - p).abs() < 1e-9, "p={p} x={x}");
        }
    }

    #[test]
    fn mixture_cdf_is_weighted_sum(w1 in 0.1f64..5.0, w2 in 0.1f64..5.0, x in 0.0f64..1.0) {
        let a = Arc::new(Kumaraswamy::new(2.0, 2.0).unwrap());
        let b = Arc::new(TruncatedExponential::new(4.0).unwrap());
        let m = Mixture::new(vec![(w1, a.clone() as _), (w2, b.clone() as _)]).unwrap();
        let t = w1 + w2;
        let want = (w1 / t) * a.cdf(x) + (w2 / t) * b.cdf(x);
        prop_assert!((m.cdf(x) - want).abs() < 1e-12);
    }
}

/// The probability integral transform behind the paper's `R → R′`
/// normalization (Figures 1–2): keys drawn from `f` and pushed through
/// its own `cdf` land uniformly, so every decile holds 10 % ± 1 pp.
#[test]
fn cdf_maps_samples_to_uniform() {
    const SAMPLES: usize = 20_000;
    let mut rng = Rng::new(77);
    for d in fixed_zoo() {
        let mut deciles = [0usize; 10];
        for _ in 0..SAMPLES {
            let u = d.cdf(d.sample_key(&mut rng).get());
            deciles[((u * 10.0) as usize).min(9)] += 1;
        }
        for (i, &c) in deciles.iter().enumerate() {
            let share = c as f64 / SAMPLES as f64;
            assert!(
                (share - 0.1).abs() <= 0.01,
                "{}: decile {i} holds {share}",
                d.name()
            );
        }
    }
}
