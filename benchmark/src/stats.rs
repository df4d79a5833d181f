//! Order statistics and seed derivation shared by the runner, the
//! workloads and `compare`.

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile of `v` exactly as Python's
/// `statistics.quantiles(v, n=4)` gives them (the "exclusive" method,
/// which extrapolates past the ends of a tiny sample). Both are the
/// value itself for a single sample and 0 for none.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let only = s.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |i: usize| -> f64 {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Interquartile range of `v` as a share of its median; 0 when the
/// median is 0.
pub fn spread(v: &[f64]) -> f64 {
    let m = median(v);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it (the definition
/// `RuntimeReport::sojourn_percentile_ns` uses). 0 for an empty sample.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile's position.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Derive the seed of sub-stream `index` of `seed` (SplitMix64 over the
/// pair): every iteration, ladder step and hazard draws from its own
/// stream, and the same `(seed, index)` always gives the same stream.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a fold of `words` into `h` (digest of simulated outputs).
pub fn fnv(mut h: u64, words: &[u64]) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a offset basis: the starting value for [`fnv`].
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), 1.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_matches_runtime_definition() {
        let v: Vec<u64> = (1..=100).map(|i| i * 10).collect();
        assert_eq!(nearest_rank(&v, 0.5), 500);
        assert_eq!(nearest_rank(&v, 0.99), 990);
        assert_eq!(nearest_rank(&v, 0.999), 1000);
        assert_eq!(nearest_rank(&v, 1.0), 1000);
        assert_eq!(nearest_rank(&v, 0.0), 10, "rank clamps to 1");
        assert_eq!(nearest_rank(&[], 0.5), 0);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(12_000, 0.999), 12);
        assert_eq!(samples_beyond(1, 0.999), 0);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..8 {
            for index in 0..8 {
                assert!(seen.insert(derive_seed(seed, index)));
            }
        }
    }
}
