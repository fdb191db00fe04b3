//! Sample statistics for timings: medians, quartiles and the tail
//! percentile rule (report the highest percentile that still has at
//! least ten samples beyond it).

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (its default `exclusive`
/// method) computes the cut points; `None` for fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // `i * m - 4 * j` lies in 0..=4 except at the clamps, where
        // Python's formula extrapolates linearly; mirror it in f64.
        let delta = i as f64 * m as f64 - 4.0 * j as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let idx = rank(sorted.len(), q)?;
    sorted.get(idx).copied()
}

/// A tail percentile chosen by [`tail_percentile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile was used: `p90`, `p99` or `p99.9`.
    pub label: &'static str,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The highest of p90/p99/p99.9 that has at least ten samples beyond it,
/// with which one it is; `None` when even p90 has fewer than ten (under
/// 100 samples).
#[must_use]
pub fn tail_percentile(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find_map(|(label, q)| {
            let idx = rank(n, q)?;
            let beyond = n - idx - 1;
            (beyond >= 10).then(|| Tail {
                label,
                value: sorted[idx],
                beyond,
            })
        })
}

/// Index of the nearest-rank `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let r = (q * n as f64).ceil() as usize;
    Some(r.clamp(1, n) - 1)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail_percentile(&hundred).unwrap();
        assert_eq!((t.label, t.value, t.beyond), ("p90", 90.0, 10));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail_percentile(&thousand).unwrap();
        assert_eq!((t.label, t.value, t.beyond), ("p99", 990.0, 10));
        let many: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many).unwrap().label, "p99.9");
        assert_eq!(tail_percentile(&hundred[..99]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }
}
