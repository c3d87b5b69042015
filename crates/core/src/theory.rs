//! Closed-form constants and bounds from the paper's proofs, used by the
//! experiments to print “predicted vs measured” columns.

/// The paper's partition-advance constant
/// `c = 1 − e^{−1/(3 ln 2)} ≈ 0.3819` (Eq. 5): with `log2 N` long links,
/// the probability that a routing step advances at least one logarithmic
/// partition is at least `c`, independent of `N`.
pub fn advance_probability_lower_bound() -> f64 {
    1.0 - (-(1.0 / (3.0 * std::f64::consts::LN_2))).exp()
}

/// Upper bound on the expected hops spent inside one partition before
/// advancing: `E[X_j] ≤ (1 − c)/c` (Eq. 6).
pub fn hops_per_partition_upper_bound() -> f64 {
    let c = advance_probability_lower_bound();
    (1.0 - c) / c
}

/// Number of logarithmic partitions: `ceil(log2 N)`.
pub fn partition_count(n: usize) -> usize {
    (n.max(2) as f64).log2().ceil() as usize
}

/// The paper's (pessimistic) upper bound on total expected routing cost:
/// `(1/c)·log2 N + 1` hops (end of the proof of Theorem 1).
pub fn expected_hops_upper_bound(n: usize) -> f64 {
    let c = advance_probability_lower_bound();
    partition_count(n) as f64 / c + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Upper bound on `Σ 1/d(u,v)` for a centre node under uniform
    /// density (Eq. 2): `2 N ln N` — the normalizing constant the proof
    /// divides by.
    fn inverse_distance_sum_upper_bound(n: usize) -> f64 {
        let nf = n as f64;
        2.0 * nf * nf.ln()
    }

    #[test]
    fn constant_c_matches_the_paper() {
        // 1/(3 ln 2) = 0.48090...; e^-0.4809 = 0.6182...; c = 0.3818...
        let c = advance_probability_lower_bound();
        assert!((c - 0.3818).abs() < 1e-3, "c = {c}");
        assert!(c > 0.0 && c < 1.0);
    }

    #[test]
    fn per_partition_bound() {
        let b = hops_per_partition_upper_bound();
        assert!((b - 1.619).abs() < 0.01, "bound = {b}");
    }

    #[test]
    fn partition_counts() {
        assert_eq!(partition_count(1024), 10);
        assert_eq!(partition_count(1000), 10);
        assert_eq!(partition_count(1025), 11);
        assert_eq!(partition_count(2), 1);
    }

    #[test]
    fn total_bound_scales_with_log() {
        let b1k = expected_hops_upper_bound(1024);
        let b1m = expected_hops_upper_bound(1 << 20);
        assert!((b1k - (10.0 / advance_probability_lower_bound() + 1.0)).abs() < 1e-9);
        assert!((b1m / b1k) < 2.1, "log scaling: {b1k} -> {b1m}");
    }

    #[test]
    fn normalizing_sum_bound() {
        // Direct numeric check of Eq. 2's integral bound for n = 4096:
        // the discrete sum over a regular grid from the centre is below
        // 2 N ln N.
        let n = 4096usize;
        let mut sum = 0.0;
        for i in 0..n {
            let x = (i as f64 + 0.5) / n as f64;
            let d = (x - 0.5).abs();
            if d >= 1.0 / n as f64 {
                sum += 1.0 / d;
            }
        }
        assert!(sum < inverse_distance_sum_upper_bound(n), "sum {sum}");
    }
}
