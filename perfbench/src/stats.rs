//! Order statistics and the scaling exponent.

/// The `p`-th percentile (0..=1) of `values` by nearest rank on the
/// sorted sample; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() - 1) as f64 * p).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples per batch of [`batched_percentile`]: p99 of 1000 samples
/// has ten beyond it.
const BATCH_SAMPLES: usize = 1000;

/// The `p`-th percentile of each batch of consecutive repetitions
/// (`reps`, one sample list each) holding at least [`BATCH_SAMPLES`]
/// samples, then the median across batches: a repetition hit by a stall
/// moves one batch, not the whole tail. A trailing partial batch is
/// dropped unless it is the only one.
pub fn batched_percentile(reps: &[&[f64]], p: f64) -> f64 {
    let mut batches = Vec::new();
    let mut current = Vec::new();
    for r in reps {
        current.extend_from_slice(r);
        if current.len() >= BATCH_SAMPLES {
            batches.push(percentile(&current, p));
            current.clear();
        }
    }
    if batches.is_empty() {
        batches.push(percentile(&current, p));
    }
    median(&batches)
}

/// Fitted exponent `k` of `time ∝ size^k` from two points:
/// ln(t_full / t_small) ÷ ln(n_full / n_small).
pub fn scaling_exp(t_full: f64, t_small: f64, n_full: usize, n_small: usize) -> f64 {
    (t_full / t_small).ln() / (n_full as f64 / n_small as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn batches_hold_enough_samples_for_p99() {
        let calm: Vec<f64> = (0..600).map(f64::from).collect();
        let stalled: Vec<f64> = (0..600).map(|i| f64::from(i) + 1e6).collect();
        // Two 600-sample reps make one batch; the trailing rep is dropped.
        let p = batched_percentile(&[&calm, &calm, &stalled], 0.99);
        assert_eq!(p, percentile(&[calm.clone(), calm.clone()].concat(), 0.99));
        // One stalled batch of three moves the median by one rank only.
        let reps: Vec<&[f64]> = vec![&calm, &calm, &calm, &calm, &stalled, &stalled];
        assert!(batched_percentile(&reps, 0.99) < 1e6);
        // Fewer samples than a batch: the percentile of all of them.
        assert_eq!(batched_percentile(&[&calm], 0.5), percentile(&calm, 0.5));
    }

    #[test]
    fn scaling_exponent_recovers_power_laws() {
        // Quadratic: doubling the size quadruples the time.
        assert!((scaling_exp(4.0, 1.0, 2000, 1000) - 2.0).abs() < 1e-12);
        // Linear, at an uneven size ratio.
        assert!((scaling_exp(3.0, 1.0, 3000, 1000) - 1.0).abs() < 1e-12);
        // n^1.5 from 441 to 1924 tasks.
        let t = |n: f64| n.powf(1.5);
        assert!((scaling_exp(t(1924.0), t(441.0), 1924, 441) - 1.5).abs() < 1e-12);
    }
}
