//! The `(1+ε)`-approximation scheme for maximum **absolute** error in
//! multiple dimensions (§3.2.2, Theorem 3.4).
//!
//! The pseudo-polynomial exact DP ([`super::integer`]) is polynomial only
//! when the coefficient magnitude `R_Z` is polynomially bounded. The
//! truncated DP makes that so: for a threshold `τ` it
//!
//! 1. **force-retains** every coefficient with `|c| > τ` (the set `S_{>τ}`);
//! 2. replaces every coefficient by `c^τ = ⌊c / K_τ⌋` with
//!    `K_τ = ε·τ / (2^D·log N)` — dropped coefficients then satisfy
//!    `|c^τ| ≤ 2^D·log N / ε`, so the incoming-error range is polynomial;
//! 3. runs the exact integer DP on the truncated instance.
//!
//! Sweeping `τ ∈ {2^k : k = 0..⌈log R_Z⌉}` guarantees some `τ'` lies in
//! `[C, 2C)` where `C` is the largest coefficient the optimum drops; for
//! that `τ'` the truncated solution is within `2ετ' ≤ 4ε·OPT` of optimal
//! (using Proposition 3.3's lower bound `OPT > τ'/2`). Running with
//! `ε' = ε/4` therefore yields a `(1+ε)`-approximation.

use wsyn_core::{DpStats, DpWorkspace, Pool, RowId};
use wsyn_haar::int::{self, ScaledCoeffs};
use wsyn_haar::nd::{NdArray, NdShape};
use wsyn_haar::{ErrorTreeNd, HaarError};
use wsyn_obs::{Collector, SpanNode};

use super::integer::run_int_dp_in;
use super::{NdThresholdResult, MAX_DIMS};
use crate::metric::ErrorMetric;
use crate::synopsis::SynopsisNd;

/// The truncated-DP `(1+ε)`-approximation scheme for absolute error.
pub struct OnePlusEps {
    tree: ErrorTreeNd,
    scaled: ScaledCoeffs,
    data_f64: Vec<f64>,
    d: usize,
    m: u32,
}

/// Diagnostics from one threshold value of the τ-sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauReport {
    /// The threshold tried.
    pub tau: i64,
    /// Number of force-retained coefficients (`|S_{>τ}|`).
    pub forced: usize,
    /// `None` when `|S_{>τ}| > B` (infeasible); otherwise the true
    /// absolute error of the synopsis the truncated DP selected.
    pub true_objective: Option<f64>,
    /// DP states materialized for this τ.
    pub states: usize,
}

/// Everything one τ value of the sweep produces: the public diagnostics,
/// the candidate solution (when feasible), and the DP statistics. Workers
/// return these so the parallel and sequential sweeps share one merge.
struct TauOutcome {
    report: TauReport,
    /// `(true error, retained positions, dp objective in data units)`.
    selected: Option<(f64, Vec<usize>, f64)>,
    stats: DpStats,
}

impl TauOutcome {
    /// The observability subtree for this τ: a `tau` span carrying the
    /// threshold, the forced-set size, feasibility, and the DP counters.
    fn span_node(&self) -> SpanNode {
        let mut node = SpanNode::new("tau");
        let c = &mut node.counters;
        c.insert(
            "tau".to_string(),
            usize::try_from(self.report.tau).unwrap_or(usize::MAX),
        );
        c.insert("forced".to_string(), self.report.forced);
        c.insert(
            "feasible".to_string(),
            usize::from(self.report.true_objective.is_some()),
        );
        c.insert("states".to_string(), self.stats.states);
        c.insert("leaf_evals".to_string(), self.stats.leaf_evals);
        c.insert("probes".to_string(), self.stats.probes);
        node.gauges
            .insert("peak_live".to_string(), self.stats.peak_live);
        node
    }
}

impl OnePlusEps {
    /// Builds the scheme from integer data over a hypercube shape.
    ///
    /// # Errors
    /// Propagates [`HaarError`] (shape problems, scaling overflow).
    ///
    /// # Panics
    /// Panics when the dimensionality exceeds [`MAX_DIMS`].
    pub fn new(shape: &NdShape, data: &[i64]) -> Result<Self, HaarError> {
        assert!(
            shape.ndims() <= MAX_DIMS,
            "(1+eps) scheme supports at most {MAX_DIMS} dimensions"
        );
        let scaled = int::forward_scaled_nd(shape, data)?;
        let data_f64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        let coeffs_f64 = NdArray::new(shape.clone(), scaled.to_f64())?;
        let tree = ErrorTreeNd::from_coeffs(coeffs_f64)?;
        let d = shape.ndims();
        let m = tree.levels();
        Ok(Self {
            tree,
            scaled,
            data_f64,
            d,
            m,
        })
    }

    /// The error tree.
    pub fn tree(&self) -> &ErrorTreeNd {
        &self.tree
    }

    /// The maximum absolute scaled coefficient `R_Z`.
    pub fn rz(&self) -> i64 {
        self.scaled.max_abs()
    }

    /// Runs the full τ-sweep, returning the best synopsis found. The
    /// guarantee `true_objective ≤ (1+epsilon)·OPT` holds for the returned
    /// result (the internal per-τ ε is `epsilon/4` per the paper).
    ///
    /// # Panics
    /// Panics when `epsilon` is not strictly positive.
    pub fn run(&self, b: usize, epsilon: f64) -> NdThresholdResult {
        let (result, _) = self.run_with_reports(b, epsilon);
        result
    }

    /// As [`Self::run`], recording the sweep into an observability
    /// collector: a `tau_sweep` span whose children are one `tau` span
    /// per threshold tried, carrying that τ's forced-set size and DP
    /// counters. Children are attached in ascending-τ order during the
    /// deterministic merge, so the recorded tree is identical whether
    /// the sweep ran parallel or sequential.
    ///
    /// # Panics
    /// Panics when `epsilon` is not strictly positive.
    pub fn run_observed(&self, b: usize, epsilon: f64, obs: &Collector) -> NdThresholdResult {
        self.sweep(b, epsilon, &Pool::new(), obs).0
    }

    /// As [`Self::run`], additionally returning per-τ diagnostics.
    ///
    /// The τ values are independent subproblems, so they fan out through
    /// the process-default [`Pool`]; the merge is performed in
    /// ascending-τ order with a strict `<` comparison, which makes the
    /// result bit-identical to [`Self::run_with_reports_sequential`]
    /// (ties go to the smallest τ in both).
    ///
    /// # Panics
    /// Panics when `epsilon` is not strictly positive.
    pub fn run_with_reports(&self, b: usize, epsilon: f64) -> (NdThresholdResult, Vec<TauReport>) {
        self.sweep(b, epsilon, &Pool::new(), &Collector::noop())
    }

    /// As [`Self::run`], fanning the τ-sweep out through an explicit
    /// [`Pool`] instead of the process-default one. The result is
    /// bit-identical at every thread count (the conformance harness
    /// checks this on every corpus instance).
    ///
    /// # Panics
    /// Panics when `epsilon` is not strictly positive.
    pub fn run_with_pool(&self, b: usize, epsilon: f64, pool: &Pool) -> NdThresholdResult {
        self.sweep(b, epsilon, pool, &Collector::noop()).0
    }

    /// As [`Self::run_observed`], with an explicit [`Pool`]. The
    /// conformance harness renders the recorded report at several
    /// thread counts and asserts the outputs are byte-identical.
    ///
    /// # Panics
    /// Panics when `epsilon` is not strictly positive.
    pub fn run_observed_with_pool(
        &self,
        b: usize,
        epsilon: f64,
        pool: &Pool,
        obs: &Collector,
    ) -> NdThresholdResult {
        self.sweep(b, epsilon, pool, obs).0
    }

    /// Sequential reference sweep: same results as
    /// [`Self::run_with_reports`], one τ at a time. Kept as the reference
    /// the determinism tests compare the pooled sweep against.
    ///
    /// # Panics
    /// Panics when `epsilon` is not strictly positive.
    pub fn run_with_reports_sequential(
        &self,
        b: usize,
        epsilon: f64,
    ) -> (NdThresholdResult, Vec<TauReport>) {
        self.sweep(b, epsilon, &Pool::with_threads(1), &Collector::noop())
    }

    fn sweep(
        &self,
        b: usize,
        epsilon: f64,
        pool: &Pool,
        obs: &Collector,
    ) -> (NdThresholdResult, Vec<TauReport>) {
        assert!(epsilon > 0.0, "epsilon must be positive");
        let eps_internal = epsilon / 4.0;
        let rz = self.rz();
        if rz == 0 {
            // All-zero data: the empty synopsis is exact.
            let synopsis = SynopsisNd::from_positions(&self.tree, &[]);
            return (
                NdThresholdResult {
                    synopsis,
                    dp_objective: 0.0,
                    true_objective: 0.0,
                    stats: DpStats::default(),
                },
                Vec::new(),
            );
        }
        // log N in K_τ: the depth of the error tree in coefficient hops is
        // m levels of up to 2^D-1 coefficients plus the root; we use the
        // path-length bound 2^D·m (+1 for the root) that also drives the
        // additive scheme. A smaller K_τ only refines the truncation.
        let hops = ((1u64 << self.d) as f64) * f64::from(self.m.max(1));
        let kmax = i64::from(64 - (rz as u64).leading_zeros()); // ceil(log2 rz) + 1 cover
        let taus: Vec<i64> = (0..=kmax).collect();
        let outcomes: Vec<TauOutcome> = if pool.is_parallel_for(taus.len()) {
            // Each τ runs as one pool item with a fresh workspace —
            // workspace reuse only pays within a thread, and the pool's
            // min-work floor already keeps tiny sweeps sequential.
            pool.map_indexed(taus, |_, k| {
                self.solve_tau(&mut DpWorkspace::new(), b, eps_internal, hops, k)
            })
        } else {
            // One workspace threaded through the whole sweep: each τ's
            // DP has different truncated coefficients (no warm states),
            // but the memo/arena allocations are reused across all τ.
            let mut ws = DpWorkspace::new();
            taus.into_iter()
                .map(|k| self.solve_tau(&mut ws, b, eps_internal, hops, k))
                .collect()
        };
        // Deterministic merge in ascending-τ order; strict `<` keeps the
        // smallest τ on ties, matching the sequential loop bit-for-bit.
        // Per-τ observability subtrees are built *here*, from the merged
        // outcomes, so the recorded tree is independent of worker
        // scheduling: parallel and sequential sweeps report identically.
        let sweep_span = obs.span("tau_sweep");
        let mut reports = Vec::with_capacity(outcomes.len());
        let mut stats = DpStats::default();
        let mut best: Option<(f64, Vec<usize>, f64)> = None;
        for outcome in outcomes {
            if obs.is_enabled() {
                obs.attach(outcome.span_node());
            }
            reports.push(outcome.report);
            stats = stats.merged(outcome.stats);
            if let Some((true_err, positions, dp_units)) = outcome.selected {
                if best.as_ref().map_or(true, |(e, _, _)| true_err < *e) {
                    best = Some((true_err, positions, dp_units));
                }
            }
        }
        obs.add("taus", reports.len());
        drop(sweep_span);
        let (true_objective, positions, dp_objective) =
            // The largest tau in the sweep forces no coefficient, so that
            // run is always feasible and `best` is always populated.
            // wsyn: allow(no-panic)
            best.expect("tau = 2^ceil(log rz) forces nothing, so at least one tau is feasible");
        let synopsis = SynopsisNd::from_positions(&self.tree, &positions);
        (
            NdThresholdResult {
                synopsis,
                dp_objective,
                true_objective,
                stats,
            },
            reports,
        )
    }

    /// Solves the truncated DP for one τ = 2^k, reusing `ws`'s
    /// allocations (the workspace is cleared inside `run_int_dp_in` —
    /// truncated coefficients differ per τ, so only capacity carries
    /// over).
    fn solve_tau(
        &self,
        ws: &mut DpWorkspace<RowId, i64>,
        b: usize,
        eps_internal: f64,
        hops: f64,
        k: i64,
    ) -> TauOutcome {
        let tau = 1i64 << k;
        let k_tau = (eps_internal * tau as f64 / hops).max(f64::MIN_POSITIVE);
        let forced: Vec<bool> = self.scaled.coeffs.iter().map(|&c| c.abs() > tau).collect();
        let forced_count = forced.iter().filter(|&&f| f).count();
        if forced_count > b {
            return TauOutcome {
                report: TauReport {
                    tau,
                    forced: forced_count,
                    true_objective: None,
                    states: 0,
                },
                selected: None,
                stats: DpStats::default(),
            };
        }
        let truncated: Vec<i64> = self
            .scaled
            .coeffs
            .iter()
            .map(|&c| (c as f64 / k_tau).floor() as i64)
            .collect();
        let outcome = run_int_dp_in(ws, &self.tree, &truncated, Some(&forced), b);
        let Some(dp_val) = outcome.feasible_value() else {
            return TauOutcome {
                report: TauReport {
                    tau,
                    forced: forced_count,
                    true_objective: None,
                    states: outcome.stats.states,
                },
                selected: None,
                stats: outcome.stats,
            };
        };
        let synopsis = SynopsisNd::from_positions(&self.tree, &outcome.retained);
        let true_err = synopsis.max_error(&self.data_f64, ErrorMetric::absolute());
        let dp_in_data_units = dp_val as f64 * k_tau / self.scaled.scale as f64;
        TauOutcome {
            report: TauReport {
                tau,
                forced: forced_count,
                true_objective: Some(true_err),
                states: outcome.stats.states,
            },
            selected: Some((true_err, outcome.retained, dp_in_data_units)),
            stats: outcome.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_dim::integer::IntegerExact;

    fn cube_shape(side: usize, d: usize) -> NdShape {
        NdShape::hypercube(side, d).unwrap()
    }

    #[test]
    fn guarantee_vs_exact_2d() {
        let shape = cube_shape(4, 2);
        let data: Vec<i64> = (0..16).map(|i| i64::from((i * 7 + 3) % 19) * 3).collect();
        let scheme = OnePlusEps::new(&shape, &data).unwrap();
        let exact = IntegerExact::new(&shape, &data).unwrap();
        for b in [1usize, 2, 4, 6, 8] {
            for eps in [1.0, 0.25, 0.05] {
                let approx = scheme.run(b, eps);
                let opt = exact.run(b).true_objective;
                assert!(
                    approx.true_objective <= (1.0 + eps) * opt + 1e-9,
                    "b={b} eps={eps}: {} vs (1+eps)*{opt}",
                    approx.true_objective
                );
                assert!(approx.true_objective >= opt - 1e-9);
                assert!(approx.synopsis.len() <= b);
            }
        }
    }

    #[test]
    fn guarantee_vs_exact_1d_and_minmaxerr() {
        let shape = NdShape::new(vec![16]).unwrap();
        let data: Vec<i64> = (0..16).map(|i| i64::from((i * 11 + 5) % 23)).collect();
        let scheme = OnePlusEps::new(&shape, &data).unwrap();
        let data_f64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        let exact = crate::one_dim::MinMaxErr::new(&data_f64).unwrap();
        for b in [1usize, 3, 6] {
            let approx = scheme.run(b, 0.1);
            let opt = exact.run(b, ErrorMetric::absolute()).objective;
            assert!(
                approx.true_objective <= 1.1 * opt + 1e-9,
                "b={b}: {} vs {opt}",
                approx.true_objective
            );
        }
    }

    #[test]
    fn all_zero_data() {
        let shape = cube_shape(4, 2);
        let scheme = OnePlusEps::new(&shape, &[0i64; 16]).unwrap();
        let r = scheme.run(4, 0.5);
        assert_eq!(r.true_objective, 0.0);
        assert!(r.synopsis.is_empty());
    }

    #[test]
    fn full_budget_recovers_exactly() {
        let shape = cube_shape(4, 2);
        let data: Vec<i64> = (0..16).map(|i| i64::from(i % 7) - 3).collect();
        let scheme = OnePlusEps::new(&shape, &data).unwrap();
        let r = scheme.run(16, 0.5);
        assert_eq!(r.true_objective, 0.0);
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        // Values spread to ±1500 so RZ spans ≥ 8 τ values — every τ worker
        // does real work and ties between τ values are plausible.
        let shape = cube_shape(4, 2);
        let data: Vec<i64> = (0..16)
            .map(|i| i64::from((i * 13 + 7) % 257) * 12 - 1500)
            .collect();
        let scheme = OnePlusEps::new(&shape, &data).unwrap();
        assert!(
            64 - scheme.rz().leading_zeros() >= 8,
            "workload too small for an 8-τ sweep (RZ = {})",
            scheme.rz()
        );
        for (b, eps) in [(2usize, 0.5), (4, 0.25), (8, 0.1)] {
            let (par, par_reports) = scheme.run_with_reports(b, eps);
            let (seq, seq_reports) = scheme.run_with_reports_sequential(b, eps);
            assert_eq!(
                par.true_objective.to_bits(),
                seq.true_objective.to_bits(),
                "b={b} eps={eps}: objectives differ"
            );
            assert_eq!(par.dp_objective.to_bits(), seq.dp_objective.to_bits());
            assert_eq!(par.synopsis, seq.synopsis, "b={b} eps={eps}");
            assert_eq!(par.stats, seq.stats);
            assert_eq!(par_reports, seq_reports);
        }
    }

    #[test]
    fn reports_cover_tau_range() {
        let shape = cube_shape(4, 2);
        let data: Vec<i64> = (0..16).map(|i| i64::from(i * i % 13)).collect();
        let scheme = OnePlusEps::new(&shape, &data).unwrap();
        let (r, reports) = scheme.run_with_reports(4, 0.25);
        assert!(!reports.is_empty());
        // Taus are the powers of two covering [1, 2^ceil(log RZ)].
        for w in reports.windows(2) {
            assert_eq!(w[1].tau, w[0].tau * 2);
        }
        // The largest tau forces nothing, hence is always feasible.
        let last = reports.last().unwrap();
        assert_eq!(last.forced, 0);
        assert!(last.true_objective.is_some());
        // The returned best matches the minimum over feasible taus.
        let min_feasible = reports
            .iter()
            .filter_map(|t| t.true_objective)
            .fold(f64::INFINITY, f64::min);
        assert!((r.true_objective - min_feasible).abs() < 1e-9);
    }

    #[test]
    fn small_budget_respects_forced_feasibility() {
        // With b = 1 many taus are infeasible; the sweep must still find a
        // feasible one and return a valid synopsis.
        let shape = cube_shape(4, 2);
        let data: Vec<i64> = (0..16).map(|i| i64::from((i * 29 + 7) % 31)).collect();
        let scheme = OnePlusEps::new(&shape, &data).unwrap();
        let r = scheme.run(1, 0.5);
        assert!(r.synopsis.len() <= 1);
        assert!(r.true_objective.is_finite());
    }
}
