//! Statistics toolkit for the experiment harness.
//!
//! Small, dependency-free implementations of the estimators used when
//! validating the paper's theorems: streaming moments (Welford), empirical
//! quantiles, the Gini coefficient for load balance, ordinary least
//! squares for `hops ~ log2 N` fits, and the two-sample
//! Kolmogorov–Smirnov statistic for comparing hop distributions.

/// Streaming mean/variance/min/max via Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator (Chan's parallel formula).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance.
    fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    fn sem(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of a normal-approximation 95% confidence interval.
    pub fn ci95(&self) -> f64 {
        1.96 * self.sem()
    }

    /// Smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Quantile of a **sorted** slice with linear interpolation
/// (type-7 estimator, the R/NumPy default). `q` in `[0, 1]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of an unsorted slice (copies and sorts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Arithmetic mean (`0` for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Gini coefficient of a nonnegative load vector: `0` = perfectly even,
/// `→1` = maximally concentrated. Returns `0` for empty/zero input.
pub fn gini(loads: &[f64]) -> f64 {
    let n = loads.len();
    if n == 0 {
        return 0.0;
    }
    let mut v: Vec<f64> = loads.to_vec();
    v.sort_by(f64::total_cmp);
    let total: f64 = v.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    // G = (2 * sum_i i*x_(i) / (n * total)) - (n + 1) / n, i is 1-based.
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n as f64 * total) - (n as f64 + 1.0) / n as f64
}

/// `max(x) / mean(x)` — the load-imbalance factor used in the DHT
/// load-balancing literature. Returns `0` for empty input.
pub fn max_over_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    if m == 0.0 {
        return 0.0;
    }
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max) / m
}

/// Two-sample Kolmogorov–Smirnov statistic: the largest gap between the
/// empirical CDFs of `a` and `b`, taken after every distinct value so
/// that ties (hop counts are integers) step both CDFs together.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    let (mut i, mut j, mut d) = (0, 0, 0.0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] == x {
            i += 1;
        }
        while j < b.len() && b[j] == x {
            j += 1;
        }
        d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
    }
    d
}

/// Ordinary least-squares fit `y ≈ intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Fits a line through `(x, y)` pairs.
///
/// # Panics
///
/// Panics if the slices differ in length or have fewer than two points.
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "linear_fit length mismatch");
    assert!(xs.len() >= 2, "linear_fit needs at least two points");
    let n = xs.len() as f64;
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mx) * (x - mx);
        sxy += (x - mx) * (y - my);
        syy += (y - my) * (y - my);
    }
    assert!(sxx > 0.0, "linear_fit: x values are all identical");
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    let _ = n;
    LinearFit {
        slope,
        intercept,
        r2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs[..37].iter().for_each(|&x| a.push(x));
        xs[37..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert!((quantile_sorted(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile_sorted(&v, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn median_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn gini_extremes() {
        assert!((gini(&[1.0, 1.0, 1.0, 1.0])).abs() < 1e-12);
        // All load on one of n peers: G = (n-1)/n.
        let g = gini(&[0.0, 0.0, 0.0, 10.0]);
        assert!((g - 0.75).abs() < 1e-12, "g={g}");
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn gini_is_scale_invariant() {
        let a = gini(&[1.0, 2.0, 3.0, 4.0]);
        let b = gini(&[10.0, 20.0, 30.0, 40.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn max_over_mean_basic() {
        assert!((max_over_mean(&[1.0, 1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(max_over_mean(&[]), 0.0);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 2.0).collect();
        let fit = linear_fit(&xs, &ys);
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 2.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_statistic_steps_both_cdfs_at_ties() {
        let a = [3.0, 1.0, 2.0, 2.0];
        assert_eq!(ks_statistic(&a, &a), 0.0);
        assert_eq!(ks_statistic(&[1.0, 2.0], &[3.0, 4.0, 5.0]), 1.0);
        assert_eq!(ks_statistic(&[5.0], &[1.0, 2.0]), 1.0);
        // At 1: 2/3 against 1/3; at 2 both CDFs reach 1 together.
        let d = ks_statistic(&[1.0, 1.0, 2.0], &[1.0, 2.0, 2.0]);
        assert!((d - 1.0 / 3.0).abs() < 1e-15, "{d}");
    }

    #[test]
    fn linear_fit_r2_degrades_with_noise() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + if i % 2 == 0 { 5.0 } else { -5.0 })
            .collect();
        let fit = linear_fit(&xs, &ys);
        assert!((fit.slope - 2.0).abs() < 0.05);
        assert!(fit.r2 < 1.0);
        assert!(fit.r2 > 0.9);
    }
}
