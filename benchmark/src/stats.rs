//! Order statistics and the fingerprint hash the harness reports with.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the benchmark's acceptance check uses. Fewer than two values have
/// no spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        // position i*(n+1)/4 on a 1-based scale; like Python, the index is
        // clamped to the data but the interpolation weight is not
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range (`q3 - q1` of [`quartiles`]).
pub fn iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    q3 - q1
}

/// Nearest-rank percentile of integer samples: the smallest value with at
/// least `p` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn nearest_rank(samples: &[u64], p: u32) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&p), "percentile {p} out of range");
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = (v.len() * p as usize).div_ceil(100).max(1);
    v[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// FNV-1a over 64-bit words: the `virt_fp` fingerprint of a run's
/// simulated statistics (the same hash family as
/// `AlgoOutput::fingerprint`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: every seed-derived choice the harness makes itself (which
/// sources a workload traverses from) goes through this, so any two
/// `--seed` values give unrelated streams.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(iqr(&[3.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=24).collect();
        assert_eq!(nearest_rank(&v, 50), 12);
        assert_eq!(nearest_rank(&v, 90), 22);
        assert_eq!(nearest_rank(&v, 100), 24);
        assert_eq!(nearest_rank(&[9], 50), 9);
        assert_eq!(nearest_rank(&[5, 1, 3], 1), 1);
    }

    #[test]
    fn fnv_depends_on_order_and_value() {
        let fp = |words: &[u64]| {
            let mut h = Fnv::new();
            words.iter().for_each(|&w| h.eat(w));
            h.finish()
        };
        assert_eq!(fp(&[1, 2, 3]), fp(&[1, 2, 3]));
        assert_ne!(fp(&[1, 2, 3]), fp(&[3, 2, 1]));
        assert_ne!(fp(&[1, 2, 3]), fp(&[1, 2, 4]));
    }

    #[test]
    fn splitmix_streams_differ_by_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(1);
            (0..4).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix::new(2);
            (0..4).map(|_| r.next()).collect()
        };
        assert_ne!(a, b);
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }
}
