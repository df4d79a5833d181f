//! Nearest-rank percentiles: the one definition every tail the
//! workspace reports uses (runtime sojourns, bench study tails).

/// Nearest-rank `q` percentile of an ascending-sorted sample: the
/// smallest value with at least `q` of the sample at or below it, the
/// rank clamped to `[1, len]`. Returns 0 for an empty sample.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of [0, 1]: {q}");
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(nearest_rank(&v, 0.50), 100);
        assert_eq!(nearest_rank(&v, 0.99), 198);
        assert_eq!(nearest_rank(&v, 0.999), 200);
        assert_eq!(nearest_rank(&v, 0.0), 1, "rank clamps to 1");
        assert_eq!(nearest_rank(&[7], 0.5), 7);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    #[should_panic(expected = "quantile out of [0, 1]")]
    fn quantile_outside_unit_interval_panics() {
        nearest_rank(&[1, 2], 1.5);
    }
}
