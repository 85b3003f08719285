//! The one quantile helper every printed quantile goes through.

/// A quantile is only reported when at least this many samples lie
/// strictly above it; below that it would be set by a handful of
/// outliers.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `samples` (`0 < q < 1`), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it — so a median
/// needs at least 20 samples and a p99 at least 1000.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The highest quantile on the ladder p50, p90, p99, p99.9 that
/// `n` samples support (`None` below 20 samples).
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| n >= ((q * n as f64).ceil() as usize).max(1) + MIN_BEYOND)
}

/// Per-sample median across passes: element `i` of the result is the
/// median of `passes[*][i]`. This combines repeated passes over the same
/// tick stream (so a host stall in one pass drops out) and is not itself
/// a reported quantile.
pub fn per_index_median(passes: &[&[f64]]) -> Vec<f64> {
    let len = passes.first().map_or(0, |pass| pass.len());
    let mut column = Vec::with_capacity(passes.len());
    (0..len)
        .map(|i| {
            column.clear();
            column.extend(passes.iter().map(|pass| pass[i]));
            column.sort_unstable_by(f64::total_cmp);
            let mid = column.len() / 2;
            if column.len() % 2 == 1 {
                column[mid]
            } else {
                (column[mid - 1] + column[mid]) / 2.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_need_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples[..999], 0.99), None);
        assert_eq!(percentile(&samples, 0.99), Some(990.0));
        assert_eq!(percentile(&samples[..19], 0.5), None);
        assert_eq!(percentile(&samples[..20], 0.5), Some(10.0));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(19), None);
    }

    #[test]
    fn per_index_median_drops_one_slow_pass() {
        let passes: [&[f64]; 3] = [&[1.0, 5.0], &[100.0, 6.0], &[2.0, 4.0]];
        assert_eq!(per_index_median(&passes), vec![2.0, 5.0]);
    }
}
