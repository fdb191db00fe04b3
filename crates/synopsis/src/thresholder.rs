//! Uniform dispatch over every thresholding algorithm in the workspace.
//!
//! All solvers — the optimal 1-D DP, the greedy L2 baseline, the three
//! multi-dimensional schemes, and the probabilistic baselines in
//! `wsyn-prob` — answer the same question: *given a budget `B` and an
//! error metric, which coefficients go into the synopsis and what error
//! does that achieve?* [`Thresholder`] captures exactly that contract so
//! the CLI, the family registry, the server's columns and the
//! experiment binaries can hold a `Box<dyn Thresholder>` instead of
//! dispatching with bespoke match arms per algorithm.
//!
//! The required method is [`Thresholder::threshold_with`], which takes a
//! [`RunParams`]: budget, metric, the approximation `ε` of the
//! ε-schemes and an observability [`Collector`] slot.
//! [`Thresholder::threshold`] is a thin wrapper over default
//! parameters, and [`Thresholder::threshold_with_reusing`] lets a
//! caller that solves many times keep the one fact worth carrying
//! between runs, where the 1-D memo should start ([`SolverScratch`]).
//! A combination a solver cannot serve (e.g. `OnePlusEps` under a
//! relative metric) returns
//! [`WsynError::Unsupported`] rather than silently substituting a
//! different computation.

use wsyn_core::{DpStats, Pool, WsynError};
use wsyn_haar::{ErrorTree1d, HaarError};
use wsyn_obs::Collector;

use crate::greedy::greedy_l2_1d;
use crate::metric::ErrorMetric;
use crate::multi_dim::additive::AdditiveScheme;
use crate::multi_dim::integer::IntegerExact;
use crate::multi_dim::oneplus::OnePlusEps;
use crate::one_dim::{Config, Memo, MinMaxErr};
use crate::synopsis::{Synopsis1d, SynopsisNd};

/// Default approximation parameter used when an ε-parameterized scheme is
/// driven through the parameterless [`Thresholder`] interface.
pub const DEFAULT_EPS: f64 = 0.1;

/// Parameters for one thresholding run: the `(budget, metric)` pair every
/// solver needs, the approximation parameter of the ε-schemes, and an
/// observability [`Collector`] slot (no-op by default, so
/// uninstrumented runs pay nothing).
///
/// Built with chainable setters:
///
/// ```
/// use wsyn_synopsis::thresholder::RunParams;
/// use wsyn_synopsis::ErrorMetric;
/// let params = RunParams::new(8, ErrorMetric::absolute()).eps(0.05);
/// assert_eq!(params.budget, 8);
/// ```
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Space budget `B` (maximum retained coefficients).
    pub budget: usize,
    /// Target maximum-error metric.
    pub metric: ErrorMetric,
    /// Approximation parameter for the ε-schemes ([`AdditiveScheme`],
    /// [`OnePlusEps`], the streaming builder); ignored by exact solvers.
    pub eps: f64,
    /// Observability collector; [`Collector::noop`] unless the caller
    /// wants a run report.
    pub obs: Collector,
}

impl RunParams {
    /// Parameters with the documented defaults: `eps` =
    /// [`DEFAULT_EPS`], no-op collector.
    #[must_use]
    pub fn new(budget: usize, metric: ErrorMetric) -> RunParams {
        RunParams {
            budget,
            metric,
            eps: DEFAULT_EPS,
            obs: Collector::noop(),
        }
    }

    /// Sets the approximation parameter ε.
    #[must_use]
    pub fn eps(mut self, eps: f64) -> RunParams {
        self.eps = eps;
        self
    }

    /// Installs an observability collector; pass
    /// [`Collector::recording`] to capture a span tree for a run report.
    #[must_use]
    pub fn obs(mut self, obs: Collector) -> RunParams {
        self.obs = obs;
        self
    }
}

/// A synopsis of either dimensionality, as produced by a [`Thresholder`].
///
/// Marked `#[non_exhaustive]`: future dimensionality-specialized
/// representations may be added without a breaking release, so matches
/// outside this crate need a wildcard arm (or go through
/// [`AnySynopsis::into_one`]).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum AnySynopsis {
    /// A one-dimensional synopsis.
    One(Synopsis1d),
    /// A multi-dimensional synopsis.
    Nd(SynopsisNd),
    /// A step-function (histogram) synopsis.
    Histogram(wsyn_hist::StepSynopsis),
}

impl AnySynopsis {
    /// Space used: retained coefficients, or buckets for the histogram
    /// family.
    pub fn len(&self) -> usize {
        match self {
            AnySynopsis::One(s) => s.len(),
            AnySynopsis::Nd(s) => s.len(),
            AnySynopsis::Histogram(s) => s.len(),
        }
    }

    /// Whether no coefficient is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The one-dimensional synopsis, or a
    /// [`WsynError::DimensionMismatch`] naming `what` when the run
    /// produced a multi-dimensional one.
    ///
    /// # Errors
    /// [`WsynError::DimensionMismatch`] for a non-1-D synopsis.
    pub fn into_one(self, what: &str) -> Result<Synopsis1d, WsynError> {
        match self {
            AnySynopsis::One(s) => Ok(s),
            _ => Err(WsynError::dimension_mismatch(what)),
        }
    }

    /// The histogram synopsis, or a [`WsynError::DimensionMismatch`]
    /// naming `what` when the run produced a wavelet one.
    ///
    /// # Errors
    /// [`WsynError::DimensionMismatch`] for a non-histogram synopsis.
    pub fn into_histogram(self, what: &str) -> Result<wsyn_hist::StepSynopsis, WsynError> {
        match self {
            AnySynopsis::Histogram(s) => Ok(s),
            _ => Err(WsynError::dimension_mismatch(what)),
        }
    }
}

/// Result of driving any [`Thresholder`]: the synopsis, the maximum error
/// it achieves under the requested metric, and the unified DP counters
/// (zeroed for algorithms that run no DP, like greedy L2).
#[derive(Debug, Clone)]
pub struct ThresholdRun {
    /// The selected synopsis.
    pub synopsis: AnySynopsis,
    /// Maximum error of `synopsis` under the requested metric. For
    /// guarantee-providing algorithms this is the guaranteed bound; for
    /// baselines it is the measured error of the returned synopsis.
    pub objective: f64,
    /// Unified DP instrumentation (see [`DpStats`]).
    pub stats: DpStats,
}

/// A thresholding algorithm: built once over a dataset, then run for any
/// [`RunParams`].
pub trait Thresholder {
    /// Stable algorithm identifier (used in CLI output and JSON docs).
    fn name(&self) -> &'static str;

    /// Whether the reported objective is a *guarantee* (a bound the
    /// algorithm proves) rather than a measured value.
    fn has_guarantee(&self) -> bool {
        false
    }

    /// Selects at most `params.budget` coefficients for `params.metric`,
    /// honouring the tuning knobs in `params` and recording spans and
    /// counters into `params.obs`.
    ///
    /// # Errors
    /// [`WsynError::Unsupported`] when this algorithm cannot serve the
    /// requested parameter combination.
    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError>;

    /// [`Thresholder::threshold_with`] with a caller-kept
    /// [`SolverScratch`]. A caller that solves many times (the server's
    /// columns) threads one scratch through every call. The optimal 1-D
    /// DP solves in the thread's retained memo, started at the slot
    /// count the scratch recorded, which skips the memo's growth ramp,
    /// and records the count it ended at; the default ignores the
    /// scratch. Objective, synopsis, `states`
    /// and `peak_live` are identical to [`Thresholder::threshold_with`]
    /// by contract; `probes` may be lower, since it depends on the slot
    /// count.
    ///
    /// # Errors
    /// Same conditions as [`Thresholder::threshold_with`].
    fn threshold_with_reusing(
        &self,
        params: &RunParams,
        scratch: &mut SolverScratch,
    ) -> Result<ThresholdRun, WsynError> {
        let _ = scratch;
        self.threshold_with(params)
    }

    /// Selects at most `b` coefficients for the given metric with
    /// default parameters — a thin wrapper over
    /// [`Thresholder::threshold_with`].
    ///
    /// # Errors
    /// Same conditions as [`Thresholder::threshold_with`].
    fn threshold(&self, b: usize, metric: ErrorMetric) -> Result<ThresholdRun, WsynError> {
        self.threshold_with(&RunParams::new(b, metric))
    }
}

/// What a caller that solves many times keeps between
/// [`Thresholder::threshold_with_reusing`] calls: the slot count the
/// 1-D DP's memo ended its last run at, where the next run starts. The
/// memo itself belongs to the solving thread and is reset at every run
/// (see [`crate::one_dim`]), so the scratch holds no DP state and no
/// table memory; cold runs use a fresh table and leave the thread's
/// memo alone. One scratch serves any mix of solvers.
#[derive(Debug)]
pub struct SolverScratch {
    slots: usize,
}

impl SolverScratch {
    /// A scratch whose first run starts as a cold one does.
    #[must_use]
    pub fn new() -> Self {
        SolverScratch {
            slots: Memo::MIN_SLOTS,
        }
    }
}

impl Default for SolverScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl Thresholder for MinMaxErr {
    fn name(&self) -> &'static str {
        "minmax"
    }

    fn has_guarantee(&self) -> bool {
        true
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        certified_run(self, params, None)
    }

    fn threshold_with_reusing(
        &self,
        params: &RunParams,
        scratch: &mut SolverScratch,
    ) -> Result<ThresholdRun, WsynError> {
        certified_run(self, params, Some(scratch))
    }
}

/// Both [`MinMaxErr`] trait methods: the default DP, in the thread's
/// memo started where `scratch` says or cold without one, then the certification every published
/// result passes in every build (the realized maximum error must be
/// finite and equal the objective).
fn certified_run(
    solver: &MinMaxErr,
    params: &RunParams,
    scratch: Option<&mut SolverScratch>,
) -> Result<ThresholdRun, WsynError> {
    let _run = params.obs.span("minmax");
    let r = {
        let _dp = params.obs.span("dp");
        let r = solver.run_from(
            params.budget,
            params.metric,
            Config::default(),
            scratch.map(|s| &mut s.slots),
        );
        params.obs.record_dp_stats(&r.stats);
        r
    };
    solver.certify(&r, params.metric)?;
    Ok(ThresholdRun {
        synopsis: AnySynopsis::One(r.synopsis),
        objective: r.objective,
        stats: r.stats,
    })
}

/// The conventional greedy L2 baseline behind the uniform interface
/// (retains the `B` largest normalized coefficients; no max-error
/// guarantee, so the reported objective is the measured maximum error).
#[derive(Debug, Clone)]
pub struct GreedyL2 {
    tree: ErrorTree1d,
    data: Vec<f64>,
}

impl GreedyL2 {
    /// Builds the baseline from raw data.
    ///
    /// # Errors
    /// Propagates [`HaarError`] from the transform.
    pub fn new(data: &[f64]) -> Result<Self, HaarError> {
        Ok(Self {
            tree: ErrorTree1d::from_data(data)?,
            data: data.to_vec(),
        })
    }

    /// The underlying error tree.
    pub fn tree(&self) -> &ErrorTree1d {
        &self.tree
    }
}

impl Thresholder for GreedyL2 {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        let _run = params.obs.span("greedy");
        let synopsis = {
            let _select = params.obs.span("select");
            greedy_l2_1d(&self.tree, params.budget)
        };
        let objective = {
            let _measure = params.obs.span("measure_error");
            synopsis.max_error(&self.data, params.metric)
        };
        params.obs.add("retained", synopsis.len());
        Ok(ThresholdRun {
            synopsis: AnySynopsis::One(synopsis),
            objective,
            stats: DpStats::default(),
        })
    }
}

impl Thresholder for AdditiveScheme {
    fn name(&self) -> &'static str {
        "additive"
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        let _run = params.obs.span("additive");
        let r = {
            let _dp = params.obs.span("rounded_dp");
            let r = self.run(params.budget, params.metric, params.eps);
            params.obs.record_dp_stats(&r.stats);
            r
        };
        Ok(ThresholdRun {
            synopsis: AnySynopsis::Nd(r.synopsis),
            objective: r.true_objective,
            stats: r.stats,
        })
    }
}

impl Thresholder for IntegerExact {
    fn name(&self) -> &'static str {
        "integer-exact"
    }

    fn has_guarantee(&self) -> bool {
        true
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        let _run = params.obs.span("integer_exact");
        let r = {
            let _dp = params.obs.span("int_dp");
            let r = match params.metric {
                ErrorMetric::Absolute => self.run(params.budget),
                ErrorMetric::Relative { sanity } => self.run_relative(params.budget, sanity),
            };
            params.obs.record_dp_stats(&r.stats);
            r
        };
        Ok(ThresholdRun {
            synopsis: AnySynopsis::Nd(r.synopsis),
            objective: r.true_objective,
            stats: r.stats,
        })
    }
}

impl Thresholder for OnePlusEps {
    fn name(&self) -> &'static str {
        "oneplus"
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        if !matches!(params.metric, ErrorMetric::Absolute) {
            return Err(WsynError::unsupported(
                self.name(),
                "the (1+ε) scheme is defined for the absolute-error metric only (§3.2.2)",
            ));
        }
        let _run = params.obs.span("oneplus");
        let (r, _) = self.run_with(params.budget, params.eps, &Pool::new(), &params.obs);
        params.obs.record_dp_stats(&r.stats);
        Ok(ThresholdRun {
            synopsis: AnySynopsis::Nd(r.synopsis),
            objective: r.true_objective,
            stats: r.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: [f64; 8] = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];

    #[test]
    fn uniform_dispatch_1d() {
        let solvers: Vec<Box<dyn Thresholder>> = vec![
            Box::new(MinMaxErr::new(&EXAMPLE).unwrap()),
            Box::new(GreedyL2::new(&EXAMPLE).unwrap()),
        ];
        for metric in [ErrorMetric::absolute(), ErrorMetric::relative(1.0)] {
            let mut optimal = None;
            for s in &solvers {
                let r = s.threshold(3, metric).unwrap();
                let syn = r.synopsis.into_one("test").unwrap();
                assert!(syn.len() <= 3, "{} overspent the budget", s.name());
                let measured = syn.max_error(&EXAMPLE, metric);
                assert!(
                    (measured - r.objective).abs() < 1e-9,
                    "{}: objective {} vs measured {measured}",
                    s.name(),
                    r.objective
                );
                match s.name() {
                    "minmax" => optimal = Some(r.objective),
                    _ => assert!(
                        optimal.expect("minmax first") <= r.objective + 1e-9,
                        "optimal beaten by {}",
                        s.name()
                    ),
                }
            }
        }
    }

    #[test]
    fn uniform_dispatch_nd() {
        use wsyn_haar::nd::{NdArray, NdShape};
        let shape = NdShape::hypercube(4, 2).unwrap();
        let vals: Vec<f64> = (0..16).map(|i| f64::from(i % 5)).collect();
        let ints: Vec<i64> = vals.iter().map(|&v| v as i64).collect();
        let arr = NdArray::new(shape.clone(), vals.clone()).unwrap();
        let solvers: Vec<Box<dyn Thresholder>> = vec![
            Box::new(AdditiveScheme::new(&arr).unwrap()),
            Box::new(IntegerExact::new(&shape, &ints).unwrap()),
            Box::new(OnePlusEps::new(&shape, &ints).unwrap()),
        ];
        for s in &solvers {
            let r = s.threshold(4, ErrorMetric::absolute()).unwrap();
            assert!(r.synopsis.len() <= 4, "{} overspent", s.name());
            assert!(r.objective.is_finite());
            assert!(r.synopsis.into_one("x").is_err(), "{} is N-D", s.name());
        }
    }

    /// `threshold_with_reusing` must be result-identical to `threshold`
    /// for every solver — bit-identical for MinMaxErr, whose memo is
    /// cleared and refilled in one scratch across budgets and metrics.
    #[test]
    fn threshold_with_reusing_matches_threshold() {
        let solvers: Vec<Box<dyn Thresholder>> = vec![
            Box::new(MinMaxErr::new(&EXAMPLE).unwrap()),
            Box::new(GreedyL2::new(&EXAMPLE).unwrap()),
        ];
        let mut scratch = SolverScratch::new();
        for metric in [ErrorMetric::absolute(), ErrorMetric::relative(1.0)] {
            for s in &solvers {
                for b in (0..=8).rev() {
                    let cold = s.threshold(b, metric).unwrap();
                    let reused = s
                        .threshold_with_reusing(&RunParams::new(b, metric), &mut scratch)
                        .unwrap();
                    assert_eq!(
                        reused.objective.to_bits(),
                        cold.objective.to_bits(),
                        "{} b={b} {metric:?}",
                        s.name()
                    );
                    let (reused1, cold1) = (
                        reused.synopsis.into_one("t").unwrap(),
                        cold.synopsis.into_one("t").unwrap(),
                    );
                    assert_eq!(reused1.indices(), cold1.indices());
                }
            }
        }
    }

    /// The reusing runs' memo belongs to the solving thread, but a run's
    /// counters do not depend on what that thread solved before: on a
    /// thread whose memo already grew on a larger instance,
    /// `threshold_with`, `run` and a first `threshold_with_reusing`
    /// report the same `DpStats`, `probes` included, as on a freshly
    /// spawned thread.
    #[test]
    fn dp_stats_do_not_depend_on_the_solving_threads_history() {
        let metric = ErrorMetric::absolute();
        let data: Vec<f64> = (0..256).map(|i| f64::from((i * 37 + 11) % 101)).collect();
        let larger: Vec<f64> = (0..4096).map(|i| f64::from((i * 53 + 7) % 997)).collect();
        let solve = move || {
            let s = MinMaxErr::new(&data).unwrap();
            let params = RunParams::new(12, metric);
            [
                s.threshold_with(&params).unwrap().stats,
                s.run(12, metric).stats,
                s.threshold_with_reusing(&params, &mut SolverScratch::new())
                    .unwrap()
                    .stats,
            ]
        };
        let fresh = std::thread::spawn(solve.clone()).join().unwrap();
        let warmed = std::thread::spawn(move || {
            let grown = MinMaxErr::new(&larger)
                .unwrap()
                .threshold_with_reusing(&RunParams::new(48, metric), &mut SolverScratch::new())
                .unwrap()
                .stats;
            assert!(
                grown.states > 10 * fresh[0].states,
                "{grown:?} vs {fresh:?}"
            );
            solve()
        })
        .join()
        .unwrap();
        assert_eq!(warmed, fresh);
        // The instance outgrows the fewest slots, so growth is covered.
        assert!(fresh[0].states > 11 && fresh[0].probes > 0, "{fresh:?}");
    }

    /// Data near `f64::MAX` can overflow the reconstruction, so the DP's
    /// objective (about `MAX/4` for both inputs) is not the synopsis's
    /// error. Both trait methods refuse to publish it.
    #[test]
    fn overflowing_data_gets_a_typed_refusal_not_a_certificate() {
        let max = f64::MAX;
        let cases: [(&[f64], usize); 2] = [(&[max, -max, max, 0.0], 3), (&[max, max, max, 0.0], 2)];
        let mut scratch = SolverScratch::new();
        for (data, b) in cases {
            let s = MinMaxErr::new(data).unwrap();
            let params = RunParams::new(b, ErrorMetric::absolute());
            for err in [
                s.threshold_with(&params).unwrap_err(),
                s.threshold_with_reusing(&params, &mut scratch).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, WsynError::Invalid(m) if m.contains("cannot certify")),
                    "{data:?} b={b}: {err:?}"
                );
            }
        }
        // The scratch still serves ordinary data afterwards.
        let s = MinMaxErr::new(&EXAMPLE).unwrap();
        let params = RunParams::new(3, ErrorMetric::absolute());
        let reused = s.threshold_with_reusing(&params, &mut scratch).unwrap();
        assert_eq!(
            reused.objective.to_bits(),
            s.threshold_with(&params).unwrap().objective.to_bits()
        );
    }

    /// Cells whose pairwise sum or difference passes `f64::MAX` still get
    /// finite coefficients (the transform halves before it adds), so
    /// these inputs are certified with their true error.
    #[test]
    fn cells_summing_past_max_are_certified() {
        let max = f64::MAX;
        let cases: [(&[f64], usize, f64); 2] = [
            (&[max, -max, max, 0.0], 8, 0.0),
            (&[1e308, 1e308, -1e308, 1e308], 1, 1e308),
        ];
        for (data, b, objective) in cases {
            let run = MinMaxErr::new(data)
                .unwrap()
                .threshold_with(&RunParams::new(b, ErrorMetric::absolute()))
                .unwrap_or_else(|e| panic!("{data:?} b={b}: {e}"));
            assert_eq!(run.objective, objective, "{data:?} b={b}");
            let recon = run.synopsis.into_one("t").unwrap().reconstruct();
            let realized = ErrorMetric::absolute().max_error(data, &recon);
            assert_eq!(realized, objective, "{data:?} b={b}");
        }
    }

    /// Non-dyadic data near `1e8` rounds in the transform and the
    /// reconstruction, so the realized error of a synopsis that keeps
    /// every coefficient is about `1e-8`, not the objective's exact 0.
    /// Certification must accept it: the rounding scales with the
    /// data's magnitude, not with the objective.
    #[test]
    fn large_non_dyadic_data_is_certified() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        let mut inputs = vec![vec![1e8 + 0.1, 1e8 + 0.2]];
        for n in [8usize, 64, 256] {
            inputs.push((0..n).map(|_| 1e8 + rng.gen::<f64>()).collect());
        }
        let mut scratch = SolverScratch::new();
        for data in &inputs {
            let s = MinMaxErr::new(data).unwrap();
            let n = data.len();
            for b in [n, n / 2] {
                let params = RunParams::new(b, ErrorMetric::absolute());
                let cold = s.run(b, ErrorMetric::absolute()).objective;
                for run in [
                    s.threshold_with(&params),
                    s.threshold_with_reusing(&params, &mut scratch),
                ] {
                    let run = run.unwrap_or_else(|e| panic!("N={n} b={b}: {e}"));
                    assert_eq!(run.objective.to_bits(), cold.to_bits(), "N={n} b={b}");
                }
            }
        }
    }

    #[test]
    fn oneplus_rejects_relative_metric() {
        use wsyn_haar::nd::NdShape;
        let shape = NdShape::hypercube(4, 2).unwrap();
        let ints: Vec<i64> = (0..16).collect();
        let s = OnePlusEps::new(&shape, &ints).unwrap();
        let err = s.threshold(4, ErrorMetric::relative(1.0)).unwrap_err();
        assert!(
            matches!(&err, WsynError::Unsupported { solver, .. } if solver == "oneplus"),
            "{err:?}"
        );
    }

    #[test]
    fn run_params_builder() {
        let p = RunParams::new(8, ErrorMetric::absolute()).eps(0.25);
        assert_eq!(p.budget, 8);
        assert_eq!(p.eps, 0.25);
        assert_eq!(p.metric, ErrorMetric::Absolute);
        assert!(!p.obs.is_enabled());
    }

    /// Acceptance criterion: every solver run through `threshold_with`
    /// with a recording collector yields a report with a **non-empty**
    /// span tree, and two identical runs serialize byte-identically.
    #[test]
    fn every_solver_emits_a_nonempty_span_tree() {
        use wsyn_haar::nd::{NdArray, NdShape};
        let shape = NdShape::hypercube(4, 2).unwrap();
        let vals: Vec<f64> = (0..16).map(|i| f64::from((i * 3 + 1) % 7)).collect();
        let ints: Vec<i64> = vals.iter().map(|&v| v as i64).collect();
        let arr = NdArray::new(shape.clone(), vals.clone()).unwrap();
        let solvers: Vec<Box<dyn Thresholder>> = vec![
            Box::new(MinMaxErr::new(&EXAMPLE).unwrap()),
            Box::new(GreedyL2::new(&EXAMPLE).unwrap()),
            Box::new(AdditiveScheme::new(&arr).unwrap()),
            Box::new(IntegerExact::new(&shape, &ints).unwrap()),
            Box::new(OnePlusEps::new(&shape, &ints).unwrap()),
        ];
        for s in &solvers {
            let render = || {
                let obs = wsyn_obs::Collector::recording();
                let params = RunParams::new(4, ErrorMetric::absolute()).obs(obs.clone());
                s.threshold_with(&params).unwrap();
                let report = obs
                    .report(wsyn_obs::run_meta(s.name(), 4, "abs"))
                    .expect("recording collector yields a report");
                assert!(
                    !report.root.children.is_empty(),
                    "{}: empty span tree",
                    s.name()
                );
                report.strip_timing().render()
            };
            assert_eq!(render(), render(), "{}: report not deterministic", s.name());
        }
    }

    /// The scratch-reusing path records into the collector too.
    #[test]
    fn reusing_path_records_spans() {
        let s = MinMaxErr::new(&EXAMPLE).unwrap();
        let mut scratch = SolverScratch::new();
        let obs = wsyn_obs::Collector::recording();
        let params = RunParams::new(3, ErrorMetric::absolute()).obs(obs.clone());
        s.threshold_with_reusing(&params, &mut scratch).unwrap();
        drop(params); // release the clone RunParams holds
        let root = obs.into_root().unwrap();
        assert_eq!(root.children[0].name, "minmax");
        assert_eq!(root.children[0].children[0].name, "dp");
        assert!(root.children[0].children[0].counters.contains_key("states"));
    }
}
