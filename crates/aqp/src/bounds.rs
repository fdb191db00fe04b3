//! Deterministic per-answer error bounds.
//!
//! A synopsis built by the deterministic algorithms carries a *guaranteed*
//! maximum error (the DP objective). Unlike L2 or probabilistic synopses,
//! this lets every individual answer carry an interval the true value
//! provably lies in — the paper's headline motivation for maximum-error
//! metrics.

/// A closed interval `[lo, hi]` guaranteed to contain the true value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (may be `-∞` when the guarantee is vacuous).
    pub lo: f64,
    /// Upper bound (may be `+∞`).
    pub hi: f64,
}

impl Interval {
    /// Whether `v` lies in the interval.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Interval width (`∞` for unbounded intervals).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Bound on a true data value given an estimate `est` from a synopsis with
/// guaranteed **maximum absolute error** `e`: `[est − e, est + e]`.
pub fn point_absolute(est: f64, e: f64) -> Interval {
    debug_assert!(e >= 0.0);
    Interval {
        lo: est - e,
        hi: est + e,
    }
}

/// Bound on a true data value given an estimate `est` from a synopsis with
/// guaranteed **maximum relative error** `rho` under sanity bound `s`:
/// the hull of all `d` with `|d − est| ≤ rho · max{|d|, s}`.
///
/// For `rho ≥ 1` the multiplicative cases are one-sided and the interval
/// may be unbounded (a relative guarantee of 100% says little).
///
/// # Panics
/// Panics when `rho < 0` or `s <= 0`.
pub fn point_relative(est: f64, rho: f64, s: f64) -> Interval {
    assert!(rho >= 0.0, "negative error guarantee");
    assert!(s > 0.0, "sanity bound must be positive");
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut absorb = |a: f64, b: f64| {
        if a <= b {
            lo = lo.min(a);
            hi = hi.max(b);
        }
    };
    // Case |d| <= s: |d - est| <= rho*s.
    absorb((est - rho * s).max(-s), (est + rho * s).min(s));
    // Case d > s: (1-rho)·d <= est <= (1+rho)·d.
    {
        let a = (est / (1.0 + rho)).max(s);
        let b = if rho < 1.0 {
            est / (1.0 - rho)
        } else {
            f64::INFINITY
        };
        absorb(a, b);
    }
    // Case d < -s (symmetric).
    {
        let b = (est / (1.0 + rho)).min(-s);
        let a = if rho < 1.0 {
            est / (1.0 - rho)
        } else {
            f64::NEG_INFINITY
        };
        absorb(a, b);
    }
    debug_assert!(lo <= hi, "estimate inconsistent with its own guarantee");
    // Guard the divisions' rounding: widen by a few ulps so a true value
    // sitting exactly on the mathematical boundary is never excluded.
    let guard = |v: f64| 1e-12 * (1.0 + v.abs());
    if lo.is_finite() {
        lo -= guard(lo);
    }
    if hi.is_finite() {
        hi += guard(hi);
    }
    Interval { lo, hi }
}

/// Bound on a true range sum over `len` values given the synopsis estimate
/// and a guaranteed maximum absolute error `e` per value:
/// `[est − e·len, est + e·len]`.
pub fn range_sum_absolute(est: f64, e: f64, len: usize) -> Interval {
    debug_assert!(e >= 0.0);
    let slack = e * len as f64;
    Interval {
        lo: est - slack,
        hi: est + slack,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsyn_synopsis::one_dim::MinMaxErr;
    use wsyn_synopsis::ErrorMetric;

    #[test]
    fn absolute_interval_contains_truth() {
        let data: Vec<f64> = (0..32).map(|i| f64::from((i * 17 + 3) % 29)).collect();
        let solver = MinMaxErr::new(&data).unwrap();
        for b in [2usize, 4, 8] {
            let r = solver.run(b, ErrorMetric::absolute());
            let recon = r.synopsis.reconstruct();
            for i in 0..32 {
                let iv = point_absolute(recon[i], r.objective);
                assert!(iv.contains(data[i]), "b={b} i={i}: {iv:?} vs {}", data[i]);
            }
        }
    }

    #[test]
    fn relative_interval_contains_truth() {
        let data: Vec<f64> = (0..32)
            .map(|i| f64::from((i * 23 + 7) % 41) - 10.0)
            .collect();
        let solver = MinMaxErr::new(&data).unwrap();
        let s = 2.0;
        for b in [3usize, 6, 12] {
            let r = solver.run(b, ErrorMetric::relative(s));
            let recon = r.synopsis.reconstruct();
            for i in 0..32 {
                let iv = point_relative(recon[i], r.objective, s);
                assert!(
                    iv.contains(data[i]),
                    "b={b} i={i}: {iv:?} vs {} (est {}, rho {})",
                    data[i],
                    recon[i],
                    r.objective
                );
            }
        }
    }

    #[test]
    fn relative_interval_tightens_with_smaller_rho() {
        let a = point_relative(100.0, 0.5, 1.0);
        let b = point_relative(100.0, 0.1, 1.0);
        assert!(b.width() < a.width());
    }

    #[test]
    fn relative_interval_unbounded_for_rho_ge_one() {
        let iv = point_relative(10.0, 1.0, 1.0);
        assert_eq!(iv.hi, f64::INFINITY);
    }

    #[test]
    fn range_sum_interval() {
        let data: Vec<f64> = (0..16).map(|i| f64::from(i % 4) * 3.0).collect();
        let solver = MinMaxErr::new(&data).unwrap();
        let r = solver.run(4, ErrorMetric::absolute());
        for lo in 0..16 {
            for hi in lo..=16 {
                let est = r.synopsis.range_sum(lo..hi);
                let exact: f64 = data[lo..hi].iter().sum();
                let iv = range_sum_absolute(est, r.objective, hi - lo);
                assert!(iv.contains(exact), "[{lo},{hi}): {iv:?} vs {exact}");
            }
        }
    }

    #[test]
    fn zero_error_gives_point_interval() {
        let iv = point_absolute(5.0, 0.0);
        assert_eq!(iv.lo, 5.0);
        assert_eq!(iv.hi, 5.0);
        assert!(iv.contains(5.0));
    }
}
