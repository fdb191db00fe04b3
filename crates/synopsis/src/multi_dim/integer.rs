//! The optimal **pseudo-polynomial** integer DP of §3.2.2.
//!
//! With integer coefficients (obtained by scaling integer data by
//! `2^{D·m}`, see [`wsyn_haar::int`]), the additive error entering any
//! subtree is an integer in `[-R_Z·2^D·log N, +R_Z·2^D·log N]`, so a DP
//! table `M[j, b, e]` indexed by the *exact* integer incoming error is
//! finite — of size proportional to `R_Z`, hence pseudo-polynomial. This
//! module runs that DP on the multi-D kernel (top-down, materializing only
//! reachable `e` values) with exact `i64` incoming errors. Its one entry
//! point, `run_int_dp`, also serves each τ of the truncated `(1+ε)` scheme
//! of [`super::oneplus`], which additionally force-retains all
//! coefficients above a threshold. Every call solves in storage of its
//! own, so its counters never depend on an earlier call.
//!
//! The primary DP targets **maximum absolute error** (the paper's
//! setting for this scheme) with exact integer DP values — no
//! floating-point comparisons. Per the paper's remark that the
//! pseudo-polynomial scheme "directly extends to maximum relative-error
//! minimization as well", [`IntegerExact::run_relative`] provides that
//! extension: integer incoming errors, float values normalized at the
//! leaves by `max{|d_i|, s}`.

use wsyn_haar::int::{self, ScaledCoeffs};
use wsyn_haar::nd::{NdArray, NdShape};
use wsyn_haar::{ErrorTreeNd, HaarError};

use super::kernel::{self, DpOutcome, ErrorDomain};
use super::{NdThresholdResult, MAX_DIMS};
use crate::metric::ErrorMetric;
use crate::synopsis::SynopsisNd;

/// Exact optimal absolute-error thresholding via the pseudo-polynomial
/// integer DP. Intended for small/medium instances and as an optimality
/// oracle for the approximation schemes.
pub struct IntegerExact {
    tree: ErrorTreeNd,
    scaled: ScaledCoeffs,
    data_f64: Vec<f64>,
}

impl IntegerExact {
    /// Builds the solver from integer data over a hypercube shape.
    ///
    /// # Errors
    /// Propagates [`HaarError`] (shape problems, overflow while scaling).
    ///
    /// # Panics
    /// Panics when the dimensionality exceeds [`MAX_DIMS`].
    pub fn new(shape: &NdShape, data: &[i64]) -> Result<Self, HaarError> {
        assert!(
            shape.ndims() <= MAX_DIMS,
            "integer DP supports at most {MAX_DIMS} dimensions"
        );
        let scaled = int::forward_scaled_nd(shape, data)?;
        let data_f64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        let coeffs_f64 = NdArray::new(shape.clone(), scaled.to_f64())?;
        let tree = ErrorTreeNd::from_coeffs(coeffs_f64)?;
        Ok(Self {
            tree,
            scaled,
            data_f64,
        })
    }

    /// The error tree (unnormalized f64 coefficients).
    pub fn tree(&self) -> &ErrorTreeNd {
        &self.tree
    }

    /// The maximum absolute scaled coefficient `R_Z` (drives the DP cost).
    pub fn rz(&self) -> i64 {
        self.scaled.max_abs()
    }

    /// The integer scale factor `2^{D·m}`.
    pub fn scale(&self) -> i64 {
        self.scaled.scale
    }

    /// Runs the exact DP for budget `b`, minimizing maximum absolute error.
    pub fn run(&self, b: usize) -> NdThresholdResult {
        let outcome = run_int_dp(&self.tree, &self.scaled.coeffs, None, b);
        let value = outcome
            .feasible_value()
            // With no forced-keep threshold the empty synopsis is always
            // feasible, so the DP cannot come back infeasible.
            // wsyn: allow(no-panic)
            .expect("unforced DP always feasible (empty synopsis)");
        let synopsis = SynopsisNd::from_positions(&self.tree, &outcome.retained);
        let true_objective = synopsis.max_error(&self.data_f64, ErrorMetric::absolute());
        NdThresholdResult {
            synopsis,
            dp_objective: value as f64 / self.scaled.scale as f64,
            true_objective,
            stats: outcome.stats,
        }
    }

    /// Runs the exact DP for budget `b`, minimizing maximum **relative**
    /// error with sanity bound `sanity` — the paper notes in §3.2.2 that
    /// "this pseudo-polynomial time scheme directly extends to maximum
    /// relative-error minimization as well": incoming errors remain exact
    /// integers, only the leaf values are normalized by
    /// `max{|d_i|, s}` (so DP values become floats).
    ///
    /// # Panics
    /// Panics unless `sanity > 0`.
    pub fn run_relative(&self, b: usize, sanity: f64) -> NdThresholdResult {
        assert!(sanity > 0.0, "sanity bound must be positive");
        let metric = ErrorMetric::relative(sanity);
        // Leaf denominators in *scaled* units: the DP errors carry the
        // 2^{D·m} scale, so denominators must too.
        let scale = self.scaled.scale as f64;
        let denom: Vec<f64> = self
            .data_f64
            .iter()
            .map(|&d| metric.denom(d) * scale)
            .collect();
        let dom = ExactRelative {
            coeff: &self.scaled.coeffs,
            denom,
        };
        let outcome = kernel::solve(&self.tree, &dom, b);
        let synopsis = SynopsisNd::from_positions(&self.tree, &outcome.retained);
        let true_objective = synopsis.max_error(&self.data_f64, metric);
        NdThresholdResult {
            synopsis,
            dp_objective: outcome.value,
            true_objective,
            stats: outcome.stats,
        }
    }
}

/// The exact DP's error domain for absolute error: scaled integer
/// coefficients (possibly truncated, with a forced set), exact incoming
/// errors, integer leaf values `|e|`.
struct Exact<'a> {
    coeff: &'a [i64],
    forced: Option<&'a [bool]>,
}

impl ErrorDomain for Exact<'_> {
    type Err = i64;
    type Val = i64;

    fn coeff(&self, pos: usize) -> i64 {
        self.coeff[pos]
    }

    fn forced(&self, pos: usize) -> bool {
        self.forced.is_some_and(|f| f[pos])
    }

    fn leaf(&self, e: i64, _cell: usize) -> i64 {
        e.abs()
    }
}

/// The exact DP's error domain for relative error: exact integer
/// incoming errors, `f64` leaf values `|e| / denom` with the
/// denominators in scaled units.
struct ExactRelative<'a> {
    coeff: &'a [i64],
    denom: Vec<f64>,
}

impl ErrorDomain for ExactRelative<'_> {
    type Err = i64;
    type Val = f64;

    fn coeff(&self, pos: usize) -> i64 {
        self.coeff[pos]
    }

    fn leaf(&self, e: i64, cell: usize) -> f64 {
        e.abs() as f64 / self.denom[cell]
    }
}

/// Runs the integer DP over `tree`'s structure with integer coefficient
/// values `coeff[pos]` (which may be truncated/scaled-down versions of the
/// tree's actual coefficients) and an optional per-position forced-retention
/// set. Crate-internal: shared by [`IntegerExact`] and the truncated
/// `(1+ε)` scheme.
pub(crate) fn run_int_dp(
    tree: &ErrorTreeNd,
    coeff: &[i64],
    forced: Option<&[bool]>,
    b: usize,
) -> DpOutcome<i64> {
    kernel::solve(tree, &Exact { coeff, forced }, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    fn cube_shape(side: usize, d: usize) -> NdShape {
        NdShape::hypercube(side, d).unwrap()
    }

    #[test]
    fn matches_oracle_2d() {
        let shape = cube_shape(4, 2);
        let data: Vec<i64> = (0..16).map(|i| i64::from((i * 7 + 3) % 11)).collect();
        let solver = IntegerExact::new(&shape, &data).unwrap();
        let data_f64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        for b in 0..=8usize {
            let r = solver.run(b);
            let opt = oracle::exhaustive_nd(solver.tree(), &data_f64, b, ErrorMetric::absolute())
                .objective;
            assert!(
                (r.true_objective - opt).abs() < 1e-9,
                "b={b}: {} vs oracle {opt}",
                r.true_objective
            );
            // The DP objective (exact integers) must equal the evaluated
            // error of the traced synopsis.
            assert!(
                (r.dp_objective - r.true_objective).abs() < 1e-9,
                "b={b}: dp {} vs true {}",
                r.dp_objective,
                r.true_objective
            );
            assert!(r.synopsis.len() <= b);
        }
    }

    #[test]
    fn matches_1d_minmaxerr() {
        let shape = NdShape::new(vec![16]).unwrap();
        let data: Vec<i64> = (0..16).map(|i| i64::from((i * 13 + 5) % 17)).collect();
        let solver = IntegerExact::new(&shape, &data).unwrap();
        let data_f64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        let exact = crate::one_dim::MinMaxErr::new(&data_f64).unwrap();
        for b in [0usize, 1, 3, 5, 8, 16] {
            let r = solver.run(b);
            let opt = exact.run(b, ErrorMetric::absolute()).objective;
            assert!(
                (r.true_objective - opt).abs() < 1e-9,
                "b={b}: {} vs {opt}",
                r.true_objective
            );
        }
    }

    #[test]
    fn full_budget_zero_error_3d() {
        let shape = cube_shape(2, 3);
        let data: Vec<i64> = (0..8).map(|i| i64::from(i * 3 % 5)).collect();
        let solver = IntegerExact::new(&shape, &data).unwrap();
        let r = solver.run(8);
        assert_eq!(r.true_objective, 0.0);
        assert_eq!(r.dp_objective, 0.0);
    }

    #[test]
    fn zero_budget() {
        let shape = cube_shape(4, 2);
        let data: Vec<i64> = (0..16).map(|i| i64::from(i % 6)).collect();
        let solver = IntegerExact::new(&shape, &data).unwrap();
        let r = solver.run(0);
        assert_eq!(r.true_objective, 5.0);
        assert!(r.synopsis.is_empty());
    }

    #[test]
    fn forced_retention_respected() {
        let shape = cube_shape(4, 2);
        let data: Vec<i64> = (0..16).map(|i| i64::from((i * 5 + 1) % 9)).collect();
        let solver = IntegerExact::new(&shape, &data).unwrap();
        // Force the two largest coefficients.
        let coeffs = &solver.scaled.coeffs;
        let mut order: Vec<usize> = (0..16).collect();
        order.sort_by_key(|&p| std::cmp::Reverse(coeffs[p].abs()));
        let mut forced = vec![false; 16];
        forced[order[0]] = true;
        forced[order[1]] = true;
        let out = run_int_dp(&solver.tree, coeffs, Some(&forced), 4);
        let retained = out.retained;
        assert!(retained.contains(&order[0]));
        assert!(retained.contains(&order[1]));
        assert!(retained.len() <= 4);
        // Infeasible when the budget cannot hold the forced set.
        let forced_all = vec![true; 16];
        let out = run_int_dp(&solver.tree, coeffs, Some(&forced_all), 3);
        assert!(out.feasible_value().is_none());
    }

    #[test]
    fn single_cell() {
        let shape = cube_shape(1, 2);
        let solver = IntegerExact::new(&shape, &[9]).unwrap();
        assert_eq!(solver.run(0).true_objective, 9.0);
        assert_eq!(solver.run(1).true_objective, 0.0);
    }

    #[test]
    fn prop33_lower_bound_holds() {
        // The optimum's absolute error is at least the largest dropped
        // |coefficient| (Proposition 3.3), in original (unscaled) units.
        let shape = cube_shape(4, 2);
        let data: Vec<i64> = (0..16).map(|i| i64::from((i * 11 + 2) % 13)).collect();
        let solver = IntegerExact::new(&shape, &data).unwrap();
        let scale = solver.scale() as f64;
        for b in 0..6usize {
            let r = solver.run(b);
            let max_dropped = (0..16)
                .filter(|&p| !r.synopsis.retains(p))
                .map(|p| solver.scaled.coeffs[p].abs() as f64 / scale)
                .fold(0.0f64, f64::max);
            assert!(
                r.true_objective >= max_dropped - 1e-9,
                "b={b}: {} < {max_dropped}",
                r.true_objective
            );
        }
    }
}

#[cfg(test)]
mod rel_tests {
    use super::*;
    use crate::oracle;

    #[test]
    fn relative_dp_matches_oracle_2d() {
        let shape = NdShape::hypercube(4, 2).unwrap();
        let data: Vec<i64> = (0..16).map(|i| i64::from((i * 7 + 3) % 11)).collect();
        let solver = IntegerExact::new(&shape, &data).unwrap();
        let data_f64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        for b in 0..=8usize {
            let r = solver.run_relative(b, 1.0);
            let opt =
                oracle::exhaustive_nd(solver.tree(), &data_f64, b, ErrorMetric::relative(1.0))
                    .objective;
            assert!(
                (r.true_objective - opt).abs() < 1e-9,
                "b={b}: {} vs oracle {opt}",
                r.true_objective
            );
            assert!(
                (r.dp_objective - r.true_objective).abs() < 1e-9,
                "b={b}: dp {} vs true {}",
                r.dp_objective,
                r.true_objective
            );
        }
    }

    #[test]
    fn relative_dp_matches_1d_minmaxerr() {
        let shape = NdShape::new(vec![16]).unwrap();
        let data: Vec<i64> = (0..16).map(|i| i64::from((i * 13 + 5) % 17)).collect();
        let solver = IntegerExact::new(&shape, &data).unwrap();
        let data_f64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        let exact = crate::one_dim::MinMaxErr::new(&data_f64).unwrap();
        for b in [0usize, 2, 5, 9, 16] {
            for s in [0.5, 1.0, 4.0] {
                let r = solver.run_relative(b, s);
                let opt = exact.run(b, ErrorMetric::relative(s)).objective;
                assert!(
                    (r.true_objective - opt).abs() < 1e-9,
                    "b={b} s={s}: {} vs {opt}",
                    r.true_objective
                );
            }
        }
    }

    #[test]
    fn relative_dp_sanity_bound_monotone() {
        let shape = NdShape::hypercube(4, 2).unwrap();
        let data: Vec<i64> = (0..16).map(|i| i64::from((i * 5 + 2) % 13)).collect();
        let solver = IntegerExact::new(&shape, &data).unwrap();
        let lo = solver.run_relative(4, 0.5).true_objective;
        let hi = solver.run_relative(4, 20.0).true_objective;
        assert!(hi <= lo + 1e-9);
    }

    #[test]
    fn relative_dp_single_cell() {
        let shape = NdShape::hypercube(1, 2).unwrap();
        let solver = IntegerExact::new(&shape, &[7]).unwrap();
        assert_eq!(solver.run_relative(0, 1.0).true_objective, 1.0); // |7|/7
        assert_eq!(solver.run_relative(1, 1.0).true_objective, 0.0);
    }
}
