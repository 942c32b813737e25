//! Summary statistics over the benchmark's own raw samples.
//!
//! Latency percentiles are computed here from every recorded sample,
//! never from a bucketed histogram. A tail percentile is only reported
//! where at least [`MIN_BEYOND`] samples lie beyond it; with fewer
//! samples the highest percentile that satisfies the rule is reported
//! instead, and the report says which one it was.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read from raw samples, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile actually reported, as a fraction in `(0, 1)`.
    pub p: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was read from.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Nearest-rank index (0-based) of fraction `p` among `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    let k = (p * n as f64).ceil() as usize;
    k.clamp(1, n) - 1
}

/// The highest fraction `<= wanted` whose nearest rank leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when `n <= MIN_BEYOND`.
fn supported_fraction(wanted: f64, n: usize) -> Option<f64> {
    if n <= MIN_BEYOND {
        return None;
    }
    let cap = (n - MIN_BEYOND) as f64 / n as f64;
    Some(wanted.min(cap))
}

/// Reads fraction `wanted` from `samples` under the ten-beyond rule.
/// Sorts `samples` in place. `None` when there are too few samples to
/// report any percentile.
pub fn quantile(samples: &mut [f64], wanted: f64) -> Option<Quantile> {
    let n = samples.len();
    let p = supported_fraction(wanted, n)?;
    samples.sort_by(f64::total_cmp);
    // The clamp only absorbs float rounding in `p * n`: by construction
    // `p` already leaves `MIN_BEYOND` samples beyond its rank.
    let idx = rank(p, n).min(n - 1 - MIN_BEYOND);
    Some(Quantile {
        p,
        value: samples[idx],
        samples: n,
        beyond: n - 1 - idx,
    })
}

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let q = quantile(&mut ramp(1000), 0.99).unwrap();
        assert_eq!(q.p, 0.99);
        assert_eq!(q.value, 990.0);
        assert_eq!(q.beyond, 10);
        assert_eq!(q.samples, 1000);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_highest_supported_percentile() {
        let q = quantile(&mut ramp(200), 0.99).unwrap();
        assert!(q.p < 0.99);
        assert_eq!(q.beyond, MIN_BEYOND);
        assert_eq!(q.value, 190.0);
        // Every lower percentile that is already supported is untouched.
        let q = quantile(&mut ramp(200), 0.5).unwrap();
        assert_eq!(q.p, 0.5);
        assert_eq!(q.value, 100.0);
        assert_eq!(q.beyond, 100);
    }

    #[test]
    fn every_reported_percentile_keeps_ten_samples_beyond_it() {
        for n in 11..400 {
            for &wanted in &[0.5, 0.9, 0.99, 0.999] {
                let q = quantile(&mut ramp(n), wanted).unwrap();
                assert!(
                    q.beyond >= MIN_BEYOND,
                    "n={n} wanted={wanted} beyond={}",
                    q.beyond
                );
                assert!(q.p <= wanted);
            }
        }
    }

    #[test]
    fn ten_or_fewer_samples_report_nothing() {
        assert!(quantile(&mut ramp(10), 0.5).is_none());
        assert!(quantile(&mut [], 0.5).is_none());
    }

    #[test]
    fn quantile_ignores_input_order() {
        let mut shuffled: Vec<f64> = (0..500).map(|i| ((i * 7919) % 500) as f64).collect();
        let q = quantile(&mut shuffled, 0.9).unwrap();
        assert_eq!(q.value, 449.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
