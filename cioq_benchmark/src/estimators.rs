//! Host-time estimators.
//!
//! Interference on a shared host only ever *adds* time to a rep, so the
//! estimator of a workload's host time is [`low5`], the mean of its five
//! fastest reps: in the sizing runs behind this benchmark the median rep
//! time moved 15–42 % between sets of the same binary while `low5` moved
//! 5.5–12 %. The median and quartiles are reported beside it as context.

/// Mean of the `k` smallest values (all of them if fewer; NaN of none).
pub fn low_k(values: &[f64], k: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(k.max(1));
    sorted.iter().sum::<f64>() / sorted.len() as f64
}

/// Mean of the five fastest reps — the host-time estimator.
pub fn low5(values: &[f64]) -> f64 {
    low_k(values, 5)
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics. Panics on an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The run's own noise floor: `|low5(even rounds) − low5(odd rounds)| /
/// low5(all)`, where `round[i]` is the round rep `i` ran in. A difference
/// between two runs smaller than this cannot be told from noise.
pub fn split_half_diff(values: &[f64], round: &[u32]) -> f64 {
    let half = |parity: u32| -> Vec<f64> {
        values
            .iter()
            .zip(round)
            .filter(|(_, r)| *r % 2 == parity)
            .map(|(v, _)| *v)
            .collect()
    };
    let (even, odd) = (half(0), half(1));
    if even.is_empty() || odd.is_empty() {
        return 0.0;
    }
    (low5(&even) - low5(&odd)).abs() / low5(values)
}
