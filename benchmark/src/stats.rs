//! Order statistics the benchmark reports: medians over slices and the
//! highest percentile that still has ten samples beyond it.

/// Median of an unsorted slice (mean of the two middle values for an
/// even count) — the workspace's own, pinned by a test below.
pub use sw_keyspace::stats::median;

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. (The workspace's
/// `quantile_sorted` interpolates between samples; a percentile that
/// must leave ten real samples beyond it has to be one of them.)
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples a percentile must leave beyond itself to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// The highest of p50 < p90 < p98 < p99 < p999 that still has
/// [`TAIL_SAMPLES`] samples strictly beyond its rank among `count`
/// samples, or `None` when not even the median has.
pub fn highest_supported_percentile(count: usize) -> Option<f64> {
    [0.999, 0.99, 0.98, 0.90, 0.50].into_iter().find(|&q| {
        let rank = (q * count as f64).ceil() as usize;
        count >= rank + TAIL_SAMPLES
    })
}

/// Per-slice rates `work[i] / secs[i]`, ascending.
fn slice_rates(work: &[f64], secs: &[f64]) -> Vec<f64> {
    assert_eq!(work.len(), secs.len(), "one duration per slice");
    let mut rates: Vec<f64> = work.iter().zip(secs).map(|(w, s)| w / s).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    rates
}

/// The median of the per-slice rates.
pub fn slice_rate_median(work: &[f64], secs: &[f64]) -> f64 {
    nearest_rank(&slice_rates(work, secs), 0.5)
}

/// The rate of the fastest tenth of the slices (the 90th percentile of
/// the per-slice rates): the headline host throughput.
///
/// Interference on a shared host only ever slows a slice down, and it
/// comes in stretches that can cover most of a run, so the median moves
/// with the neighbours; the fast decile estimates the speed of the
/// undisturbed program. Over five ten-run sets on the host this was
/// written on its run-to-run spread was about half the median's on
/// three of the four workloads (README, "Measured A/A spread"); a
/// stretch that slows a whole run still moves it.
pub fn fast_decile_rate(work: &[f64], secs: &[f64]) -> f64 {
    nearest_rank(&slice_rates(work, secs), 0.9)
}

/// The rate of the slowest tenth of the slices: what stalls cost.
pub fn slow_decile_rate(work: &[f64], secs: &[f64]) -> f64 {
    nearest_rank(&slice_rates(work, secs), 0.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), 50.0);
        assert_eq!(nearest_rank(&xs, 0.99), 99.0);
        assert_eq!(nearest_rank(&xs, 1.0), 100.0);
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // 768 batches: p98 leaves 15 beyond, p99 only 7.
        assert_eq!(highest_supported_percentile(768), Some(0.98));
        // 3 012 lookups: p99 leaves 30 beyond, p999 only 3.
        assert_eq!(highest_supported_percentile(3_012), Some(0.99));
        assert_eq!(highest_supported_percentile(3_200_000), Some(0.999));
        assert_eq!(highest_supported_percentile(20), Some(0.50));
        assert_eq!(highest_supported_percentile(19), None);
        // The boundary: exactly ten beyond p99 of 1 000 samples.
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(999), Some(0.98));
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        let work = [100.0, 100.0, 100.0, 100.0, 100.0];
        let secs = [1.0, 1.0, 10.0, 1.0, 1.0];
        assert_eq!(slice_rate_median(&work, &secs), 100.0);
        // The wall total would have reported 500 / 14 ≈ 35.7.
    }

    #[test]
    fn fast_decile_survives_a_disturbed_majority() {
        // Twenty slices of 100 units; fourteen of them ran beside a busy
        // neighbour at 70 % speed. The median reads the neighbour, the
        // fast decile the program; the slow decile shows the stall.
        let work = [100.0; 20];
        let mut secs = [1.0 / 0.7; 20];
        for s in secs.iter_mut().take(6) {
            *s = 1.0;
        }
        assert!((slice_rate_median(&work, &secs) - 70.0).abs() < 1e-9);
        assert!((fast_decile_rate(&work, &secs) - 100.0).abs() < 1e-9);
        assert!((slow_decile_rate(&work, &secs) - 70.0).abs() < 1e-9);
        // A uniform slowdown of the program moves all three alike.
        let slower: Vec<f64> = secs.iter().map(|s| s * 1.1).collect();
        let ratio = fast_decile_rate(&work, &slower) / fast_decile_rate(&work, &secs);
        assert!((ratio - 1.0 / 1.1).abs() < 1e-9);
    }
}
