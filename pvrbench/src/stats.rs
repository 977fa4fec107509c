//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the spread this benchmark prints is the
//! spread a reader recomputes from the same values in Python.

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarize `values` (any order). An empty set summarizes to zeros.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles_sorted(&v);
        Summary {
            q1,
            median,
            q3,
            n: v.len(),
        }
    }

    /// Interquartile range as a share of the median (0 when the median is).
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Interquartile mean: the mean of the middle half of `values` once
/// sorted, a quarter of them dropped from each end (0 for no values).
///
/// On this benchmark's host, timings are a mixture of a fast and a slow
/// level, and the host's share of time at each level drifts. The median
/// jumps from one level to the other as that share crosses a half; the
/// interquartile mean moves with the share, and still ignores the stray
/// slow run.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    if middle.is_empty() {
        0.0
    } else {
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

/// Percentile `p` in [0, 100] by nearest rank on sorted data; used for
/// tail latencies, which are reported but never gated.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `(q1, median, q3)` of sorted data, by Python's exclusive method:
/// with `m = len + 1`, cut point `i` sits at position `i * m / 4`
/// (1-based), interpolated between its neighbours and clamped to the
/// data. Fewer than two values have no spread.
fn quartiles_sorted(v: &[f64]) -> (f64, f64, f64) {
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = Summary::of(&[8.0, 1.0, 4.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.0, 7.0));
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!((s.rel_spread() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).rel_spread(), 0.0);
        assert_eq!(Summary::of(&[3.0, 3.0, 3.0]).rel_spread(), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        // 1..=8: the middle half is 3, 4, 5, 6
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(interquartile_mean(&v), 4.5);
        // 1..=10: 10 / 4 = 2 dropped from each end, mean of 3..=8
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(interquartile_mean(&v), 5.5);
        // a stray slow value does not move it
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 1000.0]), 2.5);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn percentile_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
