//! The ε-additive-error approximation scheme for multi-dimensional
//! thresholding (§3.2.1, Theorem 3.2).
//!
//! The optimal DP would have to condition each subtree on the exact
//! additive error contributed by dropped ancestors — super-exponentially
//! many values in `D`. This scheme instead *covers* the range
//! `[-R·2^D·log N, +R·2^D·log N]` of possible incoming errors with
//! geometric breakpoints `{0} ∪ {±(1+ε')^k}` and tabulates only those:
//! every time an error value propagates into a subtree it is rounded down
//! (towards `-∞` in value, per the paper) to the nearest breakpoint.
//! Repeated rounding deviates from the true error by at most `ε'` per hop
//! relatively, so running with `ε' = ε/(2^D·log N)` yields a worst-case
//! additive deviation of `εR` for absolute error (or `εR/s` for relative
//! error with sanity bound `s`).
//!
//! Values with magnitude below 1 round to 0 (the paper's breakpoint set
//! starts at `(1+ε)^0 = 1`); callers should scale their data so meaningful
//! errors are ≥ 1 — integer-valued data (frequency counts, OLAP measures)
//! already is.

use wsyn_core::narrow_u32;
use wsyn_haar::nd::NdArray;
use wsyn_haar::{ErrorTreeNd, HaarError};

use super::kernel::{self, ErrorDomain};
use super::{NdThresholdResult, MAX_DIMS};
use crate::metric::ErrorMetric;
use crate::synopsis::SynopsisNd;

/// Rounds `v` down (towards `-∞`) to the nearest value in
/// `{0} ∪ {±(1+eps)^k : k ≥ 0}` — the paper's `round_ε`.
pub fn round_eps(v: f64, eps: f64) -> f64 {
    debug_assert!(eps > 0.0);
    let a = v.abs();
    if a < 1.0 {
        return 0.0;
    }
    let l = a.ln() / (1.0 + eps).ln();
    // Float→int casts saturate at i32 bounds, where (1+eps)^k has long
    // since overflowed to ±inf — exactly the intended degradation.
    if v > 0.0 {
        // wsyn: allow(lossy-cast)
        (1.0 + eps).powi(l.floor() as i32)
    } else {
        // wsyn: allow(lossy-cast)
        -(1.0 + eps).powi(l.ceil() as i32)
    }
}

/// The ε-additive multi-dimensional thresholding scheme.
pub struct AdditiveScheme {
    tree: ErrorTreeNd,
    data: Vec<f64>,
}

impl AdditiveScheme {
    /// Builds the scheme from a data hypercube.
    ///
    /// # Errors
    /// Propagates [`HaarError`] from the transform.
    ///
    /// # Panics
    /// Panics when the dimensionality exceeds [`MAX_DIMS`] (the per-node
    /// subset enumeration is `O(2^{2^D - 1})` by design).
    pub fn new(data: &NdArray) -> Result<Self, HaarError> {
        assert!(
            data.shape().ndims() <= MAX_DIMS,
            "additive scheme supports at most {MAX_DIMS} dimensions"
        );
        Ok(Self {
            tree: ErrorTreeNd::from_data(data)?,
            data: data.data().to_vec(),
        })
    }

    /// The underlying error tree.
    pub fn tree(&self) -> &ErrorTreeNd {
        &self.tree
    }

    /// Runs the scheme targeting a total additive deviation of
    /// `eps_total · R` from the optimal maximum absolute error (resp.
    /// `eps_total · R / s` for relative error): internally rounds with
    /// `ε' = eps_total / (2^D · m)` per Theorem 3.2.
    pub fn run(&self, b: usize, metric: ErrorMetric, eps_total: f64) -> NdThresholdResult {
        let d = narrow_u32(self.tree.ndims());
        let m = self.tree.levels().max(1);
        let eps_step = eps_total / ((1u64 << d) as f64 * f64::from(m));
        self.run_with_step_eps(b, metric, eps_step)
    }

    /// Runs the scheme with an explicit *per-rounding* `ε'` (the knob the
    /// DP actually uses; `run` derives it from a total target).
    ///
    /// # Panics
    /// Panics when `eps_step` is not strictly positive.
    pub fn run_with_step_eps(
        &self,
        b: usize,
        metric: ErrorMetric,
        eps_step: f64,
    ) -> NdThresholdResult {
        assert!(eps_step > 0.0, "eps_step must be positive");
        let dom = Rounded {
            coeffs: self.tree.coeffs().data(),
            denom: self.data.iter().map(|&v| metric.denom(v)).collect(),
            eps: eps_step,
        };
        let outcome = kernel::solve(&self.tree, &dom, b);
        let synopsis = SynopsisNd::from_positions(&self.tree, &outcome.retained);
        let true_objective = synopsis.max_error(&self.data, metric);
        NdThresholdResult {
            synopsis,
            dp_objective: outcome.value,
            true_objective,
            stats: outcome.stats,
        }
    }
}

/// The scheme's error domain: the tree's `f64` coefficients, incoming
/// errors rounded by [`round_eps`] at every node, leaf values
/// `|e| / denom`.
struct Rounded<'a> {
    coeffs: &'a [f64],
    denom: Vec<f64>,
    eps: f64,
}

impl ErrorDomain for Rounded<'_> {
    type Err = f64;
    type Val = f64;

    fn coeff(&self, pos: usize) -> f64 {
        self.coeffs[pos]
    }

    fn settle(&self, e: f64) -> f64 {
        round_eps(e, self.eps)
    }

    fn leaf(&self, e: f64, cell: usize) -> f64 {
        e.abs() / self.denom[cell]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use wsyn_haar::nd::NdShape;

    fn cube(side: usize, d: usize, vals: Vec<f64>) -> NdArray {
        NdArray::new(NdShape::hypercube(side, d).unwrap(), vals).unwrap()
    }

    #[test]
    fn round_eps_basics() {
        let eps = 0.5;
        assert_eq!(round_eps(0.0, eps), 0.0);
        assert_eq!(round_eps(0.7, eps), 0.0);
        assert_eq!(round_eps(-0.3, eps), 0.0);
        assert_eq!(round_eps(1.0, eps), 1.0);
        // Positive: rounds magnitude down.
        let r = round_eps(2.0, eps);
        assert!((2.0 / 1.5..=2.0).contains(&r), "{r}");
        // Negative: rounds value down (magnitude up).
        let r = round_eps(-2.0, eps);
        assert!((-2.0 * 1.5..=-2.0).contains(&r), "{r}");
    }

    /// `true` iff `r` lies on the rounding grid `{0} ∪ {±(1+eps)^k, k ≥ 0}`
    /// (bitwise, since `powi` is deterministic).
    fn on_grid(r: f64, eps: f64) -> bool {
        if r == 0.0 {
            return true;
        }
        let k = (r.abs().ln() / (1.0 + eps).ln()).round() as i32;
        k >= 0 && (1.0 + eps).powi(k) == r.abs()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// At exact breakpoints `±(1+ε)^k` the result must stay on the
        /// grid, never overshoot `v` towards `+∞`, and stay within one
        /// grid step — even when `ln`-noise makes `l` land a hair off `k`.
        #[test]
        fn round_eps_at_exact_breakpoints(
            k in 0i32..60,
            eps_tenths in 1u32..=20,
            negative in 0u32..2,
        ) {
            let eps = f64::from(eps_tenths) / 10.0;
            let mag = (1.0 + eps).powi(k);
            let v = if negative == 1 { -mag } else { mag };
            let r = round_eps(v, eps);
            proptest::prop_assert!(on_grid(r, eps), "v={v} r={r} off-grid");
            let slack = if v > 0.0 { 1.0 + 1e-12 } else { 1.0 - 1e-12 };
            proptest::prop_assert!(r <= v * slack, "rounded up: v={v} r={r}");
            proptest::prop_assert!(
                r.abs() >= mag / (1.0 + eps) * (1.0 - 1e-12)
                    && r.abs() <= mag * (1.0 + eps) * (1.0 + 1e-12),
                "more than one grid step: v={v} r={r}"
            );
            proptest::prop_assert!(r.signum() == v.signum());
        }

        /// Magnitudes strictly below 1 round to exactly 0 — all the way up
        /// to the last representable `f64` below 1.
        #[test]
        fn round_eps_just_below_one_is_zero(
            ulps_below in 1u64..1_000_000,
            eps_tenths in 1u32..=20,
            negative in 0u32..2,
        ) {
            let eps = f64::from(eps_tenths) / 10.0;
            let mag = f64::from_bits(1.0f64.to_bits() - ulps_below);
            proptest::prop_assert!(mag < 1.0);
            let v = if negative == 1 { -mag } else { mag };
            proptest::prop_assert_eq!(round_eps(v, eps), 0.0);
        }
    }

    #[test]
    fn round_eps_relative_error_bounded() {
        let eps = 0.1;
        for i in 1..500 {
            let v = f64::from(i) * 1.37;
            for x in [v, -v] {
                let r = round_eps(x, eps);
                assert!(
                    (r - x).abs() <= eps * x.abs() + 1e-9,
                    "x={x} r={r} dev={}",
                    (r - x).abs()
                );
            }
        }
    }

    #[test]
    fn full_budget_zero_error() {
        let vals: Vec<f64> = (0..16)
            .map(|i| f64::from((i * 7 + 3) % 13) * 10.0)
            .collect();
        let arr = cube(4, 2, vals.clone());
        let s = AdditiveScheme::new(&arr).unwrap();
        let r = s.run(16, ErrorMetric::absolute(), 0.1);
        assert_eq!(r.true_objective, 0.0);
    }

    #[test]
    fn zero_budget_error_is_max_value() {
        let vals: Vec<f64> = (0..16).map(|i| f64::from(i % 7) * 10.0).collect();
        let max = vals.iter().copied().fold(0.0f64, f64::max);
        let arr = cube(4, 2, vals);
        let s = AdditiveScheme::new(&arr).unwrap();
        let r = s.run(0, ErrorMetric::absolute(), 0.1);
        assert!(r.synopsis.is_empty());
        assert_eq!(r.true_objective, max);
    }

    #[test]
    fn within_additive_guarantee_of_oracle_2d() {
        // Theorem 3.2: true objective ≤ OPT + ε·R (plus the sub-1 rounding
        // truncation slack, bounded by one unit per hop).
        let vals: Vec<f64> = (0..16)
            .map(|i| f64::from((i * 11 + 5) % 23) * 8.0)
            .collect();
        let arr = cube(4, 2, vals.clone());
        let s = AdditiveScheme::new(&arr).unwrap();
        let tree = s.tree();
        let r_max = tree
            .coeffs()
            .data()
            .iter()
            .fold(0.0f64, |a, &c| a.max(c.abs()));
        let hops = 4.0 * 2.0 + 1.0; // 2^D · m + 1 truncation slack
        for b in [1usize, 2, 4, 6] {
            for eps in [0.5, 0.1] {
                let r = s.run(b, ErrorMetric::absolute(), eps);
                let opt = oracle::exhaustive_nd(tree, &vals, b, ErrorMetric::absolute()).objective;
                assert!(
                    r.true_objective <= opt + eps * r_max + hops + 1e-9,
                    "b={b} eps={eps}: got {} vs opt {opt} (R={r_max})",
                    r.true_objective
                );
                assert!(r.true_objective >= opt - 1e-9, "cannot beat the optimum");
                assert!(r.synopsis.len() <= b);
            }
        }
    }

    #[test]
    fn relative_error_metric_supported() {
        let vals: Vec<f64> = (0..16).map(|i| f64::from((i % 5) + 1) * 20.0).collect();
        let arr = cube(4, 2, vals.clone());
        let s = AdditiveScheme::new(&arr).unwrap();
        let r = s.run(4, ErrorMetric::relative(1.0), 0.2);
        assert!(r.true_objective.is_finite());
        assert!(r.synopsis.len() <= 4);
        // Sanity: more budget cannot be worse than much less (allowing the
        // approximation slack of the rounded DP).
        let r2 = s.run(12, ErrorMetric::relative(1.0), 0.2);
        assert!(r2.true_objective <= r.true_objective + 1e-9);
    }

    #[test]
    fn within_additive_guarantee_for_relative_error_vs_exact_dp() {
        // Theorem 3.2's relative-error arm: deviation ≤ ε·R/s from the
        // optimum, here computed by the exact pseudo-polynomial relative
        // DP (integer data so the scaled coefficients are exact).
        use crate::multi_dim::integer::IntegerExact;
        use wsyn_haar::nd::NdShape;
        let shape = NdShape::hypercube(4, 2).unwrap();
        let data_i: Vec<i64> = (0..16).map(|i| i64::from((i * 11 + 5) % 23) * 8).collect();
        let data_f: Vec<f64> = data_i.iter().map(|&v| v as f64).collect();
        let arr = NdArray::new(shape.clone(), data_f.clone()).unwrap();
        let scheme = AdditiveScheme::new(&arr).unwrap();
        let exact = IntegerExact::new(&shape, &data_i).unwrap();
        let r_max = scheme
            .tree()
            .coeffs()
            .data()
            .iter()
            .fold(0.0f64, |a, &c| a.max(c.abs()));
        let s = 4.0;
        let hops = 4.0 * 2.0 + 1.0; // sub-1 truncation slack per hop
        for b in [2usize, 4, 8] {
            for eps in [0.5, 0.1] {
                let approx = scheme.run(b, ErrorMetric::relative(s), eps);
                let opt = exact.run_relative(b, s).true_objective;
                assert!(
                    approx.true_objective <= opt + eps * r_max / s + hops / s + 1e-9,
                    "b={b} eps={eps}: {} vs opt {opt} (R={r_max}, s={s})",
                    approx.true_objective
                );
                assert!(approx.true_objective >= opt - 1e-9);
            }
        }
    }

    #[test]
    fn three_dimensional_smoke() {
        let vals: Vec<f64> = (0..8).map(|i| f64::from(i * 10)).collect();
        let arr = cube(2, 3, vals.clone());
        let s = AdditiveScheme::new(&arr).unwrap();
        let r = s.run(8, ErrorMetric::absolute(), 0.2);
        assert_eq!(r.true_objective, 0.0);
        let r1 = s.run(2, ErrorMetric::absolute(), 0.2);
        assert!(r1.synopsis.len() <= 2);
        assert!(r1.true_objective.is_finite());
    }

    #[test]
    fn single_cell_domain() {
        let arr = cube(1, 2, vec![42.0]);
        let s = AdditiveScheme::new(&arr).unwrap();
        let r0 = s.run(0, ErrorMetric::absolute(), 0.1);
        assert_eq!(r0.true_objective, 42.0);
        let r1 = s.run(1, ErrorMetric::absolute(), 0.1);
        assert_eq!(r1.true_objective, 0.0);
        assert_eq!(r1.synopsis.positions(), vec![0]);
    }

    #[test]
    fn d1_additive_close_to_optimal_1d_dp() {
        // In one dimension the scheme competes with the exact MinMaxErr.
        let data: Vec<f64> = (0..16).map(|i| f64::from((i * 13) % 29) * 12.0).collect();
        let arr = NdArray::new(NdShape::new(vec![16]).unwrap(), data.clone()).unwrap();
        let s = AdditiveScheme::new(&arr).unwrap();
        let exact = crate::one_dim::MinMaxErr::new(&data).unwrap();
        let r_max = s
            .tree()
            .coeffs()
            .data()
            .iter()
            .fold(0.0f64, |a, &c| a.max(c.abs()));
        for b in [2usize, 4, 8] {
            let approx = s.run(b, ErrorMetric::absolute(), 0.1);
            let opt = exact.run(b, ErrorMetric::absolute()).objective;
            let hops = 2.0 * 4.0 + 1.0;
            assert!(
                approx.true_objective <= opt + 0.1 * r_max + hops + 1e-9,
                "b={b}: {} vs {opt}",
                approx.true_objective
            );
            assert!(approx.true_objective >= opt - 1e-9);
        }
    }

    #[test]
    fn smaller_eps_means_more_states() {
        let vals: Vec<f64> = (0..64)
            .map(|i| f64::from((i * 17 + 3) % 31) * 5.0)
            .collect();
        let arr = cube(8, 2, vals);
        let s = AdditiveScheme::new(&arr).unwrap();
        let coarse = s.run_with_step_eps(6, ErrorMetric::absolute(), 0.5);
        let fine = s.run_with_step_eps(6, ErrorMetric::absolute(), 0.01);
        assert!(
            fine.stats.states >= coarse.stats.states,
            "fine {} vs coarse {}",
            fine.stats.states,
            coarse.stats.states
        );
    }
}
