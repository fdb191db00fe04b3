//! Per-column state: data, synopsis, guarantee, and warm solver
//! workspace.
//!
//! A [`Column`] owns a [`DynamicErrorTree`] (the maintained data and its
//! error tree, O(log N) per point update), the most recent build
//! ([`Built`]: synopsis, objective, metric, drift bookkeeping), a cached
//! [`MinMaxErr`] solver for the *current* data, and a persistent
//! [`SolverScratch`]. The scratch is the warm-workspace cache the server
//! exists to exploit: repeated builds on unchanged data run
//! [`Thresholder::threshold_with_reusing`] against the same solver, so a
//! budget sweep hits the dedup memo exactly like the library's warm
//! B-sweep (a proven bit-identity twin of the cold path); across data
//! changes the workspace self-clears but keeps its allocations, skipping
//! the memo growth ramp — the same reuse argument
//! [`wsyn_stream::AdaptiveMaxErrSynopsis`] makes for streaming rebuilds.
//!
//! Point updates are *batched*: [`Column::enqueue`] validates and queues
//! them (the cheap ack on the ingest path), and [`Column::drain`]
//! applies them through the tree one at a time — deciding rebuilds with
//! the same [`RebuildPolicy`] `AdaptiveMaxErrSynopsis::update` calls —
//! before the next build, query, flush, or info touches the column. The
//! rebuild decision therefore depends only on the update sequence, never
//! on when the drain runs, which is what keeps server answers
//! byte-identical to library answers.
//!
//! Builds are **family-aware**: a build request may name a synopsis
//! family from the workspace registry (`minmax`, `hist`, or the
//! server-side `auto` sentinel). Family-absent requests take the
//! original wavelet path — bit-identical answers and bytes-identical
//! responses to the pre-family protocol. `auto` solves both
//! guarantee-providing families on the drained data and keeps the
//! histogram iff its objective is *strictly* smaller (ties break to the
//! wavelet), so the pick is a pure function of the column state.

use wsyn_aqp::{bounds, QueryEngine1d, StepEngine};
use wsyn_obs::Collector;
use wsyn_stream::{DynamicErrorTree, RebuildPolicy, StreamingMaxErr};
use wsyn_synopsis::family::{AUTO, HIST, MINMAX};
use wsyn_synopsis::histogram::HistThresholder;
use wsyn_synopsis::one_dim::MinMaxErr;
use wsyn_synopsis::thresholder::{RunParams, SolverScratch};
use wsyn_synopsis::{ErrorMetric, Thresholder};

use crate::protocol::QueryKind;

/// Parses a metric spec string: `abs` or `rel:<sanity>` (the CLI's
/// `--metric` grammar and [`wsyn_synopsis::ErrorMetric`]'s stable ids).
///
/// # Errors
/// A message naming the malformed spec.
pub fn parse_metric(spec: &str) -> Result<ErrorMetric, String> {
    if spec == "abs" {
        return Ok(ErrorMetric::absolute());
    }
    if let Some(s) = spec.strip_prefix("rel:") {
        let sanity: f64 = s
            .parse()
            .map_err(|_| format!("bad sanity bound in metric '{spec}'"))?;
        if !(sanity > 0.0 && sanity.is_finite()) {
            return Err("sanity bound must be positive and finite".to_string());
        }
        return Ok(ErrorMetric::relative(sanity));
    }
    Err(format!(
        "unknown metric '{spec}' (expected 'abs' or 'rel:<sanity>')"
    ))
}

/// The query engine of a build, dispatching on the synopsis family that
/// produced it. Both variants answer the same point/range workload; the
/// interval derivations downstream consume only `(estimate, guarantee)`
/// pairs and never care which arm they came from.
#[derive(Debug)]
pub enum BuiltEngine {
    /// Wavelet coefficient-domain engine (`minmax` family).
    Wavelet(QueryEngine1d),
    /// Step-function engine (`hist` family).
    Hist(StepEngine),
}

impl BuiltEngine {
    /// Approximate point query `d̂_i`.
    #[must_use]
    pub fn point(&self, i: usize) -> f64 {
        match self {
            BuiltEngine::Wavelet(e) => e.point(i),
            BuiltEngine::Hist(e) => e.point(i),
        }
    }

    /// Approximate range sum.
    #[must_use]
    pub fn range_sum(&self, range: std::ops::Range<usize>) -> f64 {
        match self {
            BuiltEngine::Wavelet(e) => e.range_sum(range),
            BuiltEngine::Hist(e) => e.range_sum(range),
        }
    }

    /// Approximate range average.
    #[must_use]
    pub fn range_avg(&self, range: std::ops::Range<usize>) -> f64 {
        match self {
            BuiltEngine::Wavelet(e) => e.range_avg(range),
            BuiltEngine::Hist(e) => e.range_avg(range),
        }
    }

    /// The synopsis's retained positions: coefficient indices for the
    /// wavelet family, bucket start offsets for the histogram family.
    #[must_use]
    pub fn retained(&self) -> Vec<usize> {
        match self {
            BuiltEngine::Wavelet(e) => e.synopsis().indices().clone(),
            BuiltEngine::Hist(e) => e.synopsis().buckets().iter().map(|b| b.start).collect(),
        }
    }

    /// The wavelet engine, when this build is one.
    #[must_use]
    pub fn as_wavelet(&self) -> Option<&QueryEngine1d> {
        match self {
            BuiltEngine::Wavelet(e) => Some(e),
            BuiltEngine::Hist(_) => None,
        }
    }

    /// The step engine, when this build is one.
    #[must_use]
    pub fn as_hist(&self) -> Option<&StepEngine> {
        match self {
            BuiltEngine::Wavelet(_) => None,
            BuiltEngine::Hist(e) => Some(e),
        }
    }
}

/// The most recent successful build of a column.
#[derive(Debug)]
pub struct Built {
    /// Budget the synopsis was built with.
    pub budget: usize,
    /// Metric spec string (`abs` / `rel:<sanity>`).
    pub metric_spec: String,
    /// The parsed metric.
    pub metric: ErrorMetric,
    /// Family spec from the build request (`None` = legacy wavelet
    /// default; may be `auto`). Rebuilds re-resolve this spec, so an
    /// `auto` column re-picks its family on every drift rebuild.
    pub family_spec: Option<String>,
    /// The concrete registry id of the family that produced `engine`
    /// (never `auto`).
    pub family: &'static str,
    /// The DP objective at build time — the guaranteed maximum error on
    /// the data as of the build.
    pub objective: f64,
    /// Accumulated `Σ|δ|` applied since the build (conservative
    /// guarantee drift, judged by [`RebuildPolicy::degraded`]).
    pub drift_abs: f64,
    /// Query engine over the built synopsis.
    pub engine: BuiltEngine,
}

impl Built {
    /// The current conservative guarantee:
    /// `objective + accumulated |δ|`.
    #[must_use]
    pub fn guarantee(&self) -> f64 {
        self.objective + self.drift_abs
    }
}

/// A validated server-side family choice (the resolution of a build
/// request's optional family spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FamilyChoice {
    /// The wavelet `minmax` DP — also the family-absent default.
    Wavelet,
    /// The `hist` step-function DP.
    Hist,
    /// Solve both, keep the strictly better objective (tie → wavelet).
    Auto,
}

/// Resolves a build request's family spec against the server's
/// serveable families. Unknown ids get the registry's canonical
/// unsupported error (listing every valid id); known-but-unserveable
/// families (measured-guarantee or stream-only solvers) get a pointed
/// refusal.
fn resolve_family(spec: Option<&str>) -> Result<FamilyChoice, String> {
    match spec {
        None => Ok(FamilyChoice::Wavelet),
        Some(s) if s == MINMAX => Ok(FamilyChoice::Wavelet),
        Some(s) if s == HIST => Ok(FamilyChoice::Hist),
        Some(s) if s == AUTO => Ok(FamilyChoice::Auto),
        Some(other) => match crate::registry().get(other) {
            Err(e) => Err(e.to_string()),
            Ok(_) => Err(format!(
                "synopsis family '{other}' is not serveable for dynamic columns \
                 (valid here: {MINMAX}, {HIST}, {AUTO})"
            )),
        },
    }
}

/// One family's solve result, ready to install as a [`Built`].
struct Solved {
    family: &'static str,
    objective: f64,
    engine: BuiltEngine,
}

/// The answer to one query: the estimate, the conservative guarantee it
/// was answered under, and the guaranteed interval (when one is
/// derivable for the metric/query combination).
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// The synopsis estimate (`-0.0` normalized to `0.0`).
    pub est: f64,
    /// The conservative guarantee in force ([`Built::guarantee`]).
    pub guarantee: f64,
    /// Guaranteed interval containing the true value, if derivable.
    pub interval: Option<bounds::Interval>,
}

/// A named column: maintained data, pending updates, current build.
#[derive(Debug)]
pub struct Column {
    tree: DynamicErrorTree,
    /// Cached solver over the current data; valid iff `solver_at`
    /// equals `tree.updates()`.
    solver: Option<MinMaxErr>,
    solver_at: u64,
    /// Cached histogram solver, same validity rule as `solver`.
    hist: Option<HistThresholder>,
    hist_at: u64,
    scratch: SolverScratch,
    built: Option<Built>,
    pending: Vec<(usize, f64)>,
    policy: RebuildPolicy,
    rebuilds: u64,
}

impl Column {
    /// Creates a column over `data`.
    ///
    /// `tolerance >= 1` is the [`RebuildPolicy`] factor a drain
    /// consults after every applied update.
    ///
    /// # Errors
    /// A non-power-of-two or empty data vector, or `tolerance < 1`.
    pub fn new(data: &[f64], tolerance: f64) -> Result<Column, String> {
        let policy = RebuildPolicy::new(tolerance).map_err(|e| e.to_string())?;
        let tree = DynamicErrorTree::new(data).map_err(|e| e.to_string())?;
        Ok(Column {
            tree,
            solver: None,
            solver_at: 0,
            hist: None,
            hist_at: 0,
            scratch: SolverScratch::new(),
            built: None,
            pending: Vec::new(),
            policy,
            rebuilds: 0,
        })
    }

    /// Domain size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.tree.n()
    }

    /// Number of updates waiting to be applied.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Rebuilds triggered by drift so far.
    #[must_use]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The current build, if any.
    #[must_use]
    pub fn built(&self) -> Option<&Built> {
        self.built.as_ref()
    }

    /// Validates and queues point updates; they are applied by the next
    /// [`Column::drain`]. Returns the new pending count.
    ///
    /// # Errors
    /// An out-of-range index or a non-finite delta
    /// ([`DynamicErrorTree::check_update`]; nothing is queued — a batch
    /// is all-or-nothing so a rejected ack leaves no partial state).
    pub fn enqueue(&mut self, updates: &[(usize, f64)]) -> Result<usize, String> {
        for &(i, delta) in updates {
            self.tree
                .check_update(i, delta)
                .map_err(|e| e.to_string())?;
        }
        self.pending.extend_from_slice(updates);
        Ok(self.pending.len())
    }

    /// Applies every pending update through the tree, consulting the
    /// [`RebuildPolicy`] after each one (a rebuild can trigger mid-batch,
    /// resetting drift, exactly as a stream of
    /// `AdaptiveMaxErrSynopsis::update` calls would).
    ///
    /// # Errors
    /// A rebuild failure (propagated from the solver).
    pub fn drain(&mut self, obs: &Collector) -> Result<(), String> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let span = obs.span("drain");
        obs.add("applied", self.pending.len());
        let pending = std::mem::take(&mut self.pending);
        for (i, delta) in pending {
            self.tree.update(i, delta);
            let degraded = match &mut self.built {
                None => false,
                Some(built) => {
                    built.drift_abs += delta.abs();
                    self.policy
                        .degraded(built.metric, built.objective, built.drift_abs)
                }
            };
            if degraded {
                self.rebuild(obs)?;
            }
        }
        drop(span);
        Ok(())
    }

    /// Re-solves at the current build's `(budget, metric, family)` on
    /// the current data, resetting drift. An `auto` build re-picks its
    /// family here — the pick tracks the data, not the original build.
    fn rebuild(&mut self, obs: &Collector) -> Result<(), String> {
        let Some(built) = self.built.take() else {
            return Ok(());
        };
        let span = obs.span("rebuild");
        obs.add("rebuilds", 1);
        // Validated when the build was first installed.
        let choice = resolve_family(built.family_spec.as_deref())?;
        let rebuilt = self.solve_family(choice, built.budget, built.metric, obs)?;
        self.rebuilds += 1;
        self.built = Some(Built {
            budget: built.budget,
            metric_spec: built.metric_spec,
            metric: built.metric,
            family_spec: built.family_spec,
            family: rebuilt.family,
            objective: rebuilt.objective,
            drift_abs: 0.0,
            engine: rebuilt.engine,
        });
        drop(span);
        Ok(())
    }

    /// Runs the warm DP at `(budget, metric)` over the current data,
    /// (re)creating the cached solver only when the data changed since
    /// the last solve.
    fn solve(
        &mut self,
        budget: usize,
        metric: ErrorMetric,
        obs: &Collector,
    ) -> Result<(f64, wsyn_synopsis::Synopsis1d), String> {
        if self.solver.is_none() || self.solver_at != self.tree.updates() {
            self.solver = Some(MinMaxErr::from_tree(self.tree.snapshot()));
            self.solver_at = self.tree.updates();
        }
        let Some(solver) = self.solver.as_ref() else {
            return Err("solver cache invariant broken".to_string());
        };
        let params = RunParams::new(budget, metric).obs(obs.clone());
        let run = solver
            .threshold_with_reusing(&params, &mut self.scratch)
            .map_err(|e| e.to_string())?;
        let synopsis = run
            .synopsis
            .into_one("the server")
            .map_err(|e| e.to_string())?;
        Ok((run.objective, synopsis))
    }

    /// Runs the histogram DP at `(budget, metric)` over the current
    /// data, (re)creating the cached solver only when the data changed
    /// since the last histogram solve.
    fn solve_hist(
        &mut self,
        budget: usize,
        metric: ErrorMetric,
        obs: &Collector,
    ) -> Result<(f64, wsyn_hist::StepSynopsis), String> {
        if self.hist.is_none() || self.hist_at != self.tree.updates() {
            self.hist = Some(HistThresholder::new(self.tree.data()));
            self.hist_at = self.tree.updates();
        }
        let Some(solver) = self.hist.as_ref() else {
            return Err("hist solver cache invariant broken".to_string());
        };
        let params = RunParams::new(budget, metric).obs(obs.clone());
        let run = solver.threshold_with(&params).map_err(|e| e.to_string())?;
        let synopsis = run
            .synopsis
            .into_histogram("the server")
            .map_err(|e| e.to_string())?;
        Ok((run.objective, synopsis))
    }

    /// Solves under `choice`. `Auto` solves both families on the same
    /// drained data — wavelet first, then histogram, a fixed order so
    /// traces are deterministic — and keeps the histogram iff its
    /// objective is strictly smaller (ties break to the wavelet).
    fn solve_family(
        &mut self,
        choice: FamilyChoice,
        budget: usize,
        metric: ErrorMetric,
        obs: &Collector,
    ) -> Result<Solved, String> {
        let wavelet = |col: &mut Column, obs: &Collector| -> Result<Solved, String> {
            let (objective, synopsis) = col.solve(budget, metric, obs)?;
            Ok(Solved {
                family: MINMAX,
                objective,
                engine: BuiltEngine::Wavelet(QueryEngine1d::new(synopsis)),
            })
        };
        let hist = |col: &mut Column, obs: &Collector| -> Result<Solved, String> {
            let (objective, synopsis) = col.solve_hist(budget, metric, obs)?;
            Ok(Solved {
                family: HIST,
                objective,
                engine: BuiltEngine::Hist(StepEngine::new(synopsis)),
            })
        };
        match choice {
            FamilyChoice::Wavelet => wavelet(self, obs),
            FamilyChoice::Hist => hist(self, obs),
            FamilyChoice::Auto => {
                let w = wavelet(self, obs)?;
                let h = hist(self, obs)?;
                Ok(if h.objective < w.objective { h } else { w })
            }
        }
    }

    /// Drains pending updates, then builds the synopsis for
    /// `(budget, metric_spec)` under `family` (`None` = the wavelet
    /// default, a registry id, or `auto`). Returns the fresh [`Built`].
    ///
    /// # Errors
    /// A bad metric spec, an unknown or unserveable family, or a solver
    /// refusal.
    pub fn build(
        &mut self,
        budget: usize,
        metric_spec: &str,
        family: Option<&str>,
        obs: &Collector,
    ) -> Result<&Built, String> {
        let metric = parse_metric(metric_spec)?;
        let choice = resolve_family(family)?;
        self.drain(obs)?;
        let span = obs.span("build");
        let solved = self.solve_family(choice, budget, metric, obs)?;
        self.built = Some(Built {
            budget,
            metric_spec: metric_spec.to_string(),
            metric,
            family_spec: family.map(str::to_string),
            family: solved.family,
            objective: solved.objective,
            drift_abs: 0.0,
            engine: solved.engine,
        });
        drop(span);
        self.built
            .as_ref()
            .ok_or_else(|| "build state lost".to_string())
    }

    /// Drains pending updates, then answers `kind` from the built
    /// synopsis with a per-answer error interval.
    ///
    /// Interval derivations (all conservative under drift — the true
    /// value moved by at most the accumulated `Σ|δ|` since the build,
    /// so every zero-drift interval widens by that drift):
    ///
    /// * point, absolute metric: `est ± guarantee()`;
    /// * point, relative metric: the relative hull at the built
    ///   objective, widened by the drift;
    /// * range sum, absolute metric: `est ± guarantee() · len`;
    /// * range sum under a relative metric, and range averages: no
    ///   interval (none is derivable from a per-value guarantee).
    ///
    /// # Errors
    /// No build yet, an out-of-range query, or a rebuild failure from
    /// the drain.
    pub fn query(&mut self, kind: QueryKind, obs: &Collector) -> Result<Answer, String> {
        self.drain(obs)?;
        let span = obs.span("query");
        let n = self.tree.n();
        let Some(built) = self.built.as_ref() else {
            return Err("column has no synopsis yet (build first)".to_string());
        };
        let drift = built.drift_abs;
        let widen = |iv: bounds::Interval| bounds::Interval {
            lo: iv.lo - drift,
            hi: iv.hi + drift,
        };
        let answer = match kind {
            QueryKind::Point(i) => {
                if i >= n {
                    return Err(format!("index {i} out of range (N = {n})"));
                }
                let est = built.engine.point(i) + 0.0; // normalizes -0
                let interval = match built.metric {
                    ErrorMetric::Absolute => Some(bounds::point_absolute(est, built.guarantee())),
                    ErrorMetric::Relative { sanity } => {
                        Some(widen(bounds::point_relative(est, built.objective, sanity)))
                    }
                };
                Answer {
                    est,
                    guarantee: built.guarantee(),
                    interval,
                }
            }
            QueryKind::RangeSum(lo, hi) => {
                if lo > hi || hi > n {
                    return Err(format!("bad range [{lo}, {hi}) for N = {n}"));
                }
                let est = built.engine.range_sum(lo..hi) + 0.0;
                let interval = match built.metric {
                    ErrorMetric::Absolute => {
                        Some(bounds::range_sum_absolute(est, built.guarantee(), hi - lo))
                    }
                    ErrorMetric::Relative { .. } => None,
                };
                Answer {
                    est,
                    guarantee: built.guarantee(),
                    interval,
                }
            }
            QueryKind::RangeAvg(lo, hi) => {
                if lo >= hi || hi > n {
                    return Err(format!("bad range [{lo}, {hi}) for N = {n}"));
                }
                let est = built.engine.range_avg(lo..hi) + 0.0;
                Answer {
                    est,
                    guarantee: built.guarantee(),
                    interval: None,
                }
            }
        };
        obs.add("answered", 1);
        drop(span);
        Ok(answer)
    }
}

/// The finalized build of a streaming-ingest column.
#[derive(Debug)]
pub struct StreamBuilt {
    /// The streaming guarantee: the true maximum absolute error of the
    /// finalized synopsis is at most `objective`.
    pub objective: f64,
    /// The raw quantized-DP value (`objective` minus the drift
    /// allowance).
    pub dp_objective: f64,
    /// Peak live DP cells during the pass (the working-space counter).
    pub peak_cells: usize,
    /// Peak resident sketch bytes during the pass.
    pub peak_bytes: usize,
    /// Query engine over the finalized synopsis.
    pub engine: QueryEngine1d,
}

/// A column in *streaming ingest mode*: `append` frames feed a one-pass
/// [`StreamingMaxErr`] builder instead of [`DynamicErrorTree`] point
/// updates, and the synopsis finalizes automatically when the declared
/// `n`-th item lands. Until then the column holds only the builder's
/// poly(`B`, `log N`, `1/ε`) sketch — never the data.
#[derive(Debug)]
pub struct StreamColumn {
    n: usize,
    budget: usize,
    eps: f64,
    scale: f64,
    builder: Option<StreamingMaxErr>,
    built: Option<StreamBuilt>,
    /// A finalize failure (undersized scale) poisons the column: the
    /// one-pass data is gone, so the only recovery is a fresh
    /// `stream_create` with a larger scale.
    failed: Option<String>,
}

impl StreamColumn {
    /// Creates a streaming column expecting exactly `n` items.
    ///
    /// # Errors
    /// The builder's validation errors (non-power-of-two `n`, bad `eps`
    /// or `scale`).
    pub fn new(n: usize, budget: usize, eps: f64, scale: f64) -> Result<StreamColumn, String> {
        let params = RunParams::new(budget, ErrorMetric::absolute()).eps(eps);
        let builder = StreamingMaxErr::new(n, scale, &params).map_err(|e| e.to_string())?;
        Ok(StreamColumn {
            n,
            budget,
            eps,
            scale,
            builder: Some(builder),
            built: None,
            failed: None,
        })
    }

    /// Declared stream length.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Budget the finalized synopsis is built with.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Quantization epsilon.
    #[must_use]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Declared scale.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Items received so far.
    #[must_use]
    pub fn received(&self) -> usize {
        match (&self.builder, &self.built) {
            (Some(b), _) => b.pushed(),
            (None, Some(_)) => self.n,
            // A poisoned column received everything but kept nothing.
            (None, None) => self.n,
        }
    }

    /// The finalized build, if the stream completed successfully.
    #[must_use]
    pub fn built(&self) -> Option<&StreamBuilt> {
        self.built.as_ref()
    }

    /// Whether every declared item has arrived.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.builder.is_none()
    }

    /// Feeds the next batch of items in order; finalizes the synopsis
    /// when the declared length is reached. Validation is all-or-nothing
    /// (a rejected batch leaves the sketch untouched). Returns the new
    /// received count.
    ///
    /// # Errors
    /// A completed or poisoned stream, a batch overrunning the declared
    /// length, a non-finite value, a block whose Haar transform
    /// overflows, or a finalize failure (undersized scale). The last two
    /// poison the column.
    pub fn append(&mut self, values: &[f64], obs: &Collector) -> Result<usize, String> {
        if let Some(reason) = &self.failed {
            return Err(format!("stream failed and holds no data: {reason}"));
        }
        let Some(builder) = self.builder.as_mut() else {
            return Err(format!("stream already complete ({} items)", self.n));
        };
        let remaining = self.n - builder.pushed();
        if values.len() > remaining {
            return Err(format!(
                "append of {} values overruns the stream ({remaining} remaining of {})",
                values.len(),
                self.n
            ));
        }
        for (k, v) in values.iter().enumerate() {
            if !v.is_finite() {
                return Err(format!("append values[{k}] is not finite"));
            }
        }
        let span = obs.span("append");
        obs.add("appended", values.len());
        // Validated above, so the builder refuses only a block whose Haar
        // average or detail overflows. Items before it already went by,
        // so the column is poisoned.
        if let Err(e) = builder.push_slice(values) {
            let msg = e.to_string();
            self.failed = Some(msg.clone());
            drop(span);
            return Err(msg);
        }
        let received = builder.pushed();
        if builder.is_complete() {
            // The builder is consumed by finalize; on failure the column
            // is poisoned (the data went by and was never stored).
            // wsyn: allow(no-panic)
            let builder = self.builder.take().expect("builder present");
            match builder.finalize() {
                Ok(run) => {
                    self.built = Some(StreamBuilt {
                        objective: run.objective,
                        dp_objective: run.dp_objective,
                        peak_cells: run.peak_cells,
                        peak_bytes: run.peak_bytes,
                        engine: QueryEngine1d::new(run.synopsis),
                    });
                }
                Err(e) => {
                    let msg = e.to_string();
                    self.failed = Some(msg.clone());
                    drop(span);
                    return Err(msg);
                }
            }
        }
        drop(span);
        Ok(received)
    }

    /// Answers `kind` from the finalized synopsis. Intervals follow the
    /// absolute-metric derivations of [`Column::query`], with the
    /// streaming guarantee in place of the DP objective (no drift — a
    /// finalized stream never mutates).
    ///
    /// # Errors
    /// An incomplete or poisoned stream, or an out-of-range query.
    pub fn query(&self, kind: QueryKind, obs: &Collector) -> Result<Answer, String> {
        if let Some(reason) = &self.failed {
            return Err(format!("stream failed and holds no data: {reason}"));
        }
        let Some(built) = self.built.as_ref() else {
            return Err(format!(
                "stream incomplete ({} of {} items)",
                self.received(),
                self.n
            ));
        };
        let span = obs.span("query");
        let n = self.n;
        let answer = match kind {
            QueryKind::Point(i) => {
                if i >= n {
                    return Err(format!("index {i} out of range (N = {n})"));
                }
                let est = built.engine.point(i) + 0.0; // normalizes -0
                Answer {
                    est,
                    guarantee: built.objective,
                    interval: Some(bounds::point_absolute(est, built.objective)),
                }
            }
            QueryKind::RangeSum(lo, hi) => {
                if lo > hi || hi > n {
                    return Err(format!("bad range [{lo}, {hi}) for N = {n}"));
                }
                let est = built.engine.range_sum(lo..hi) + 0.0;
                Answer {
                    est,
                    guarantee: built.objective,
                    interval: Some(bounds::range_sum_absolute(est, built.objective, hi - lo)),
                }
            }
            QueryKind::RangeAvg(lo, hi) => {
                if lo >= hi || hi > n {
                    return Err(format!("bad range [{lo}, {hi}) for N = {n}"));
                }
                let est = built.engine.range_avg(lo..hi) + 0.0;
                Answer {
                    est,
                    guarantee: built.objective,
                    interval: None,
                }
            }
        };
        obs.add("answered", 1);
        drop(span);
        Ok(answer)
    }
}

/// Either ingest mode of a named column: classic dynamic (full data,
/// point updates, on-demand builds) or one-pass streaming.
#[derive(Debug)]
pub enum AnyColumn {
    /// A [`Column`]: full data held, `update`/`build` lifecycle.
    /// Boxed to keep the enum near the streaming variant's size.
    Dynamic(Box<Column>),
    /// A [`StreamColumn`]: `append`-fed one-pass sketch.
    /// Boxed for the same reason.
    Stream(Box<StreamColumn>),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<f64> {
        (0..32).map(|i| f64::from((i * 19 + 5) % 23)).collect()
    }

    #[test]
    fn metric_specs_parse() {
        assert_eq!(parse_metric("abs").unwrap(), ErrorMetric::absolute());
        assert_eq!(
            parse_metric("rel:2.5").unwrap(),
            ErrorMetric::Relative { sanity: 2.5 }
        );
        assert!(parse_metric("rel:0").is_err());
        assert!(parse_metric("rel:inf").is_err());
        assert!(parse_metric("l2").is_err());
    }

    #[test]
    fn build_matches_library_cold_run() {
        let data = data();
        let mut col = Column::new(&data, 2.0).unwrap();
        let reference = MinMaxErr::new(&data).unwrap();
        for metric_spec in ["abs", "rel:1.0"] {
            let metric = parse_metric(metric_spec).unwrap();
            for b in [0usize, 3, 8, 16] {
                let built = col.build(b, metric_spec, None, &Collector::noop()).unwrap();
                let lib = reference.run(b, metric);
                assert_eq!(built.objective.to_bits(), lib.objective.to_bits());
                assert_eq!(
                    built.engine.as_wavelet().unwrap().synopsis().indices(),
                    lib.synopsis.indices()
                );
            }
        }
    }

    #[test]
    fn queries_match_library_engine_and_contain_truth() {
        let data = data();
        let mut col = Column::new(&data, 2.0).unwrap();
        col.build(6, "abs", None, &Collector::noop()).unwrap();
        let lib = MinMaxErr::new(&data)
            .unwrap()
            .run(6, ErrorMetric::absolute());
        let engine = QueryEngine1d::new(lib.synopsis);
        let obs = Collector::noop();
        for (i, &truth) in data.iter().enumerate() {
            let a = col.query(QueryKind::Point(i), &obs).unwrap();
            assert_eq!(a.est.to_bits(), (engine.point(i) + 0.0).to_bits());
            assert!(a.interval.unwrap().contains(truth));
        }
        let exact: f64 = data[4..20].iter().sum();
        let a = col.query(QueryKind::RangeSum(4, 20), &obs).unwrap();
        assert_eq!(a.est.to_bits(), (engine.range_sum(4..20) + 0.0).to_bits());
        assert!(a.interval.unwrap().contains(exact));
        let a = col.query(QueryKind::RangeAvg(4, 20), &obs).unwrap();
        assert_eq!(a.est.to_bits(), (engine.range_avg(4..20) + 0.0).to_bits());
        assert!(a.interval.is_none());
    }

    #[test]
    fn batched_updates_match_streaming_policy() {
        // Batching must not change what the shared rebuild policy sees:
        // a drained column and a stream of AdaptiveMaxErrSynopsis updates
        // reach the same rebuild count, final synopsis, and guarantee.
        let data = data();
        let (b, tolerance) = (5usize, 2.0f64);
        let metric = ErrorMetric::absolute();
        let mut stream =
            wsyn_stream::AdaptiveMaxErrSynopsis::new(&data, b, metric, tolerance).unwrap();
        let mut col = Column::new(&data, tolerance).unwrap();
        col.build(b, "abs", None, &Collector::noop()).unwrap();

        let updates: Vec<(usize, f64)> = (0..40)
            .map(|k| {
                (
                    (k * 13 + 3) % data.len(),
                    f64::from(u8::try_from(k % 7).unwrap()) - 2.0,
                )
            })
            .collect();
        for chunk in updates.chunks(7) {
            col.enqueue(chunk).unwrap();
        }
        for &(i, d) in &updates {
            stream.update(i, d).unwrap();
        }
        col.drain(&Collector::noop()).unwrap();

        assert_eq!(col.rebuilds(), stream.rebuilds());
        let built = col.built().unwrap();
        assert_eq!(
            built.objective.to_bits(),
            stream.built_objective().to_bits()
        );
        assert_eq!(built.guarantee().to_bits(), stream.guarantee().to_bits());
        assert_eq!(
            built.engine.as_wavelet().unwrap().synopsis().indices(),
            stream.synopsis().indices()
        );
    }

    #[test]
    fn warm_rebuild_sweep_matches_cold_solves() {
        // Repeated builds on unchanged data go through the warm memo;
        // they must stay bit-identical to cold library runs at every
        // budget (the warm==cold conformance contract, exercised through
        // the column).
        let data = data();
        let mut col = Column::new(&data, 2.0).unwrap();
        let reference = MinMaxErr::new(&data).unwrap();
        for b in (0..=16).rev() {
            let built = col.build(b, "rel:1.0", None, &Collector::noop()).unwrap();
            let lib = reference.run(b, ErrorMetric::relative(1.0));
            assert_eq!(built.objective.to_bits(), lib.objective.to_bits(), "b={b}");
            assert_eq!(
                built.engine.as_wavelet().unwrap().synopsis().indices(),
                lib.synopsis.indices()
            );
        }
    }

    #[test]
    fn hist_family_build_matches_library_cold_run() {
        let data = data();
        let mut col = Column::new(&data, 2.0).unwrap();
        for b in [0usize, 3, 8] {
            let built = col
                .build(b, "abs", Some("hist"), &Collector::noop())
                .unwrap();
            assert_eq!(built.family, "hist");
            assert_eq!(built.family_spec.as_deref(), Some("hist"));
            let lib = wsyn_hist::solve(&data, None, b, wsyn_hist::SplitStrategy::Binary).unwrap();
            assert_eq!(built.objective.to_bits(), lib.objective.to_bits(), "b={b}");
            let starts: Vec<usize> = lib.synopsis.buckets().iter().map(|bk| bk.start).collect();
            assert_eq!(built.engine.retained(), starts);
        }
        // Queries flow through the step engine with intervals intact.
        let obs = Collector::noop();
        col.build(6, "abs", Some("hist"), &obs).unwrap();
        for (i, &truth) in data.iter().enumerate() {
            let a = col.query(QueryKind::Point(i), &obs).unwrap();
            assert!(a.interval.unwrap().contains(truth), "i={i}");
        }
        let exact: f64 = data[4..20].iter().sum();
        let a = col.query(QueryKind::RangeSum(4, 20), &obs).unwrap();
        assert!(a.interval.unwrap().contains(exact));
    }

    #[test]
    fn auto_picks_the_strictly_better_family() {
        // A step-shaped column: the histogram nails it with few buckets
        // while the wavelet must spend coefficients per plateau edge.
        let step: Vec<f64> = (0..32).map(|i| if i < 11 { 4.0 } else { 7.0 }).collect();
        let mut col = Column::new(&step, 2.0).unwrap();
        let built = col
            .build(2, "abs", Some("auto"), &Collector::noop())
            .unwrap();
        assert_eq!(built.family, "hist", "two buckets reproduce two plateaus");
        assert_eq!(built.objective, 0.0);
        assert_eq!(built.family_spec.as_deref(), Some("auto"));

        // At full budget both families are exact: the tie breaks to the
        // wavelet, deterministically.
        let built = col
            .build(32, "abs", Some("auto"), &Collector::noop())
            .unwrap();
        assert_eq!(built.family, "minmax", "ties break to the wavelet");
    }

    #[test]
    fn auto_rebuild_repicks_the_family() {
        // A non-dyadic step edge: the wavelet cannot be exact at b = 2
        // (a mid-array step would be, tying the pick back to minmax),
        // but two buckets are.
        let step: Vec<f64> = (0..32).map(|i| if i < 11 { 0.0 } else { 8.0 }).collect();
        let mut col = Column::new(&step, 1.0).unwrap();
        let built = col
            .build(2, "abs", Some("auto"), &Collector::noop())
            .unwrap();
        assert_eq!(built.family, "hist");
        let rebuilds_before = col.rebuilds();
        // tolerance = 1: any drift on a zero-objective build triggers a
        // rebuild, which must re-run the auto pick on the mutated data.
        col.enqueue(&[(3, 5.0)]).unwrap();
        col.drain(&Collector::noop()).unwrap();
        assert!(col.rebuilds() > rebuilds_before);
        let built = col.built().unwrap();
        assert_eq!(built.family_spec.as_deref(), Some("auto"));
        assert_eq!(built.drift_abs, 0.0, "rebuild resets drift");
    }

    #[test]
    fn explicit_minmax_is_bit_identical_to_family_absent() {
        let data = data();
        let mut legacy = Column::new(&data, 2.0).unwrap();
        let mut named = Column::new(&data, 2.0).unwrap();
        let obs = Collector::noop();
        for b in [0usize, 5, 9] {
            let a = legacy.build(b, "rel:1.0", None, &obs).unwrap();
            assert_eq!(a.family, "minmax");
            assert!(a.family_spec.is_none());
            let a = (a.objective, a.engine.retained());
            let b2 = named.build(b, "rel:1.0", Some("minmax"), &obs).unwrap();
            let b2 = (b2.objective, b2.engine.retained());
            assert_eq!(a.0.to_bits(), b2.0.to_bits());
            assert_eq!(a.1, b2.1);
        }
    }

    #[test]
    fn unknown_and_unserveable_families_are_refused() {
        let mut col = Column::new(&data(), 2.0).unwrap();
        let err = col
            .build(4, "abs", Some("nope"), &Collector::noop())
            .unwrap_err();
        assert!(err.contains("nope"), "{err}");
        assert!(err.contains("minmax") && err.contains("hist"), "{err}");
        let err = col
            .build(4, "abs", Some("greedy"), &Collector::noop())
            .unwrap_err();
        assert!(err.contains("not serveable"), "{err}");
        assert!(col.built().is_none(), "refused builds install nothing");
    }

    #[test]
    fn enqueue_validates_before_queueing() {
        let mut col = Column::new(&data(), 2.0).unwrap();
        assert!(col.enqueue(&[(0, 1.0), (99, 1.0)]).is_err());
        assert_eq!(col.pending(), 0, "rejected batch must not queue partially");
        assert!(col.enqueue(&[(0, f64::NAN)]).is_err());
        assert_eq!(col.enqueue(&[(0, 1.0), (5, -2.0)]).unwrap(), 2);
        assert_eq!(col.pending(), 2);
    }

    #[test]
    fn query_before_build_is_an_error() {
        let mut col = Column::new(&data(), 2.0).unwrap();
        let err = col
            .query(QueryKind::Point(0), &Collector::noop())
            .unwrap_err();
        assert!(err.contains("build first"), "{err}");
    }

    #[test]
    fn rejects_bad_construction() {
        assert!(Column::new(&[1.0, 2.0, 3.0], 2.0).is_err(), "non-pow2");
        assert_eq!(
            Column::new(&data(), 0.5).unwrap_err(),
            "tolerance must be >= 1, got 0.5"
        );
        assert!(Column::new(&data(), f64::NAN).is_err());
    }

    #[test]
    fn stream_column_finalize_matches_offline_builder() {
        // Feeding the column in frames must be bit-identical to one
        // offline pass of the same builder: the column adds lifecycle,
        // never arithmetic.
        let data = data();
        let scale = data.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let (budget, eps) = (6usize, 0.25f64);
        let obs = Collector::noop();

        let mut col = StreamColumn::new(data.len(), budget, eps, scale).unwrap();
        assert!(!col.is_complete());
        assert!(col.built().is_none());
        let err = col.query(QueryKind::Point(0), &obs).unwrap_err();
        assert!(err.contains("stream incomplete"), "{err}");
        for (k, chunk) in data.chunks(7).enumerate() {
            let received = col.append(chunk, &obs).unwrap();
            assert_eq!(received, (k * 7 + chunk.len()).min(data.len()));
        }
        assert!(col.is_complete());

        let params = RunParams::new(budget, ErrorMetric::absolute()).eps(eps);
        let mut offline = wsyn_stream::StreamingMaxErr::new(data.len(), scale, &params).unwrap();
        offline.push_slice(&data).unwrap();
        let run = offline.finalize().unwrap();

        let built = col.built().unwrap();
        assert_eq!(built.objective.to_bits(), run.objective.to_bits());
        assert_eq!(built.engine.synopsis().indices(), run.synopsis.indices());

        for (i, &truth) in data.iter().enumerate() {
            let a = col.query(QueryKind::Point(i), &obs).unwrap();
            assert!(
                (a.est - truth).abs() <= built.objective + 1e-9,
                "point {i}: est {} truth {truth} guarantee {}",
                a.est,
                built.objective
            );
            assert!(a.interval.unwrap().contains(truth));
        }
        let exact: f64 = data[3..29].iter().sum();
        let a = col.query(QueryKind::RangeSum(3, 29), &obs).unwrap();
        assert!(a.interval.unwrap().contains(exact));
        assert!(col.query(QueryKind::RangeAvg(3, 29), &obs).is_ok());
    }

    #[test]
    fn stream_append_validation_is_all_or_nothing() {
        let mut col = StreamColumn::new(8, 2, 0.5, 10.0).unwrap();
        let obs = Collector::noop();
        col.append(&[1.0, 2.0, 3.0], &obs).unwrap();
        let err = col
            .append(&[0.0; 6], &obs)
            .expect_err("overrun must be rejected");
        assert!(err.contains("overruns"), "{err}");
        assert_eq!(
            col.received(),
            3,
            "rejected batch must not ingest partially"
        );
        let err = col.append(&[1.0, f64::NAN], &obs).unwrap_err();
        assert!(err.contains("not finite"), "{err}");
        assert_eq!(col.received(), 3);
        col.append(&[4.0, 5.0, 6.0, 7.0, 8.0], &obs).unwrap();
        assert!(col.is_complete());
        let err = col.append(&[9.0], &obs).unwrap_err();
        assert!(err.contains("already complete"), "{err}");
    }

    #[test]
    fn stream_undersized_scale_poisons_the_column() {
        // Declaring a scale below the data's magnitude breaks the
        // sketch's promise; the failure must surface as an explicit
        // poisoned state, never as a silently wrong synopsis.
        let mut col = StreamColumn::new(8, 0, 0.25, 0.5).unwrap();
        let obs = Collector::noop();
        let data: Vec<f64> = (0..8).map(|i| f64::from(i) * 3.0).collect();
        let err = col
            .append(&data, &obs)
            .expect_err("finalize must fail on an undersized scale");
        assert!(err.contains("scale"), "{err}");
        let err = col.append(&[1.0], &obs).unwrap_err();
        assert!(err.contains("stream failed"), "{err}");
        let err = col.query(QueryKind::Point(0), &obs).unwrap_err();
        assert!(err.contains("stream failed"), "{err}");
    }

    #[test]
    fn stream_overflow_poisons_the_column() {
        // Finite items near f64::MAX whose pairwise average overflows
        // must poison the column, never finalize into a certificate.
        let mut col = StreamColumn::new(4, 1, 0.25, f64::MAX).unwrap();
        let obs = Collector::noop();
        let err = col.append(&[f64::MAX, f64::MAX], &obs).unwrap_err();
        assert!(err.contains("position 1"), "{err}");
        let err = col.append(&[1.0, 2.0], &obs).unwrap_err();
        assert!(err.contains("stream failed"), "{err}");
        let err = col.query(QueryKind::Point(0), &obs).unwrap_err();
        assert!(err.contains("stream failed"), "{err}");
    }
}
