//! The differential drivers: every engine runs on the same instance and
//! is held to the strongest claim the theory makes about it.
//!
//! **Exact twins** (must agree bit for bit — objective bit patterns and
//! retained sets):
//!
//! * the eight 1-D `Engine` × `SplitSearch` configurations of
//!   [`MinMaxErr`] ([`Config::ALL`]);
//! * runs through one reused [`SolverScratch`]
//!   ([`Thresholder::threshold_with_reusing`]) vs. cold runs;
//! * the τ-sweep of [`OnePlusEps`] through a multi-thread pool vs. a
//!   one-thread pool (the sequential reference);
//! * a server column's rebuild after updates ([`wsyn_serve::Column`])
//!   vs. a from-scratch solve on the same post-update data.
//!
//! **Near twins** (same optimum through different arithmetic — equal
//! within `1e-9`): [`IntegerExact`] vs. [`MinMaxErr`] on 1-D instances,
//! and both vs. the brute-force oracle (Theorem 3.1).
//!
//! **Bounded approximations** (theorem-bounded deviation):
//!
//! * [`AdditiveScheme`] — Theorem 3.2: within `ε·R` (absolute) or
//!   `ε·R/s` (relative) of the optimum, plus the sub-unit truncation
//!   slack of one rounding per coefficient hop;
//! * [`OnePlusEps`] — Theorem 3.4: within `(1+ε)·OPT`;
//! * every absolute-error optimum obeys Proposition 3.3's lower bound
//!   (objective ≥ largest dropped `|coefficient|`).
//!
//! Every interval the AQP layer derives from a guarantee must contain
//! the exact answer (point and range-sum queries).

use wsyn_core::{DpStats, Pool};
use wsyn_haar::nd::{NdArray, NdShape};
use wsyn_obs::Collector;
use wsyn_serve::Column;
use wsyn_synopsis::multi_dim::additive::AdditiveScheme;
use wsyn_synopsis::multi_dim::integer::IntegerExact;
use wsyn_synopsis::multi_dim::oneplus::OnePlusEps;
use wsyn_synopsis::one_dim::{Config, MinMaxErr};
use wsyn_synopsis::thresholder::{GreedyL2, RunParams};
use wsyn_synopsis::{ErrorMetric, SolverScratch, Thresholder};

use crate::gen::{Instance, MetricSpec};
use crate::{oracle, Failure};

/// Budgets above this are exercised differentially but not against the
/// brute-force oracle (the enumeration cost is `Σ C(nz, k)`).
pub const ORACLE_BUDGET_CAP: usize = 5;

/// Approximation parameters exercised for the bounded schemes.
pub const EPSILONS: [f64; 2] = [0.5, 0.1];

/// What a full conformance pass over one instance established.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckSummary {
    /// Individual assertions evaluated (and passed).
    pub checks: usize,
    /// How many of those were Theorem 3.2 deviation bounds certified
    /// against the brute-force oracle (not merely against the exact DP).
    pub thm32_vs_oracle: usize,
    /// Merged DP statistics across every solver run.
    pub stats: DpStats,
}

/// Evaluates one assertion: counts it, and converts a violation into a
/// [`Failure`] carrying the formatted detail.
macro_rules! ensure {
    ($sum:expr, $cond:expr, $check:expr, $name:expr, $($fmt:tt)+) => {
        $sum.checks += 1;
        let ok: bool = $cond;
        if !ok {
            return Err(Failure::new($check, $name, format!($($fmt)+)));
        }
    };
}

/// Runs the full differential suite on one instance.
///
/// # Errors
/// The first failing check, with enough detail to reproduce it.
pub fn check_instance(inst: &Instance) -> Result<CheckSummary, Failure> {
    check_instance_observed(inst, &Collector::noop())
}

/// Wraps one check family in an observability span, recording how many
/// assertions the family evaluated.
macro_rules! observed {
    ($obs:expr, $name:literal, $sum:expr, $call:expr) => {{
        let span = $obs.span($name);
        let before = $sum.checks;
        $call?;
        $obs.add("checks", $sum.checks - before);
        drop(span);
    }};
}

/// [`check_instance`], with each check family recorded as a span on
/// `obs` (one span per family, carrying a `checks` counter). The no-op
/// collector makes this identical to [`check_instance`].
///
/// # Errors
/// The first failing check, with enough detail to reproduce it.
pub fn check_instance_observed(inst: &Instance, obs: &Collector) -> Result<CheckSummary, Failure> {
    inst.validate()
        .map_err(|e| Failure::new("instance-shape", &inst.name, e))?;
    let mut sum = CheckSummary::default();
    if inst.shape.len() == 1 {
        observed!(obs, "one_dim", sum, check_one_dim(inst, &mut sum));
        observed!(
            obs,
            "stream_rebuild",
            sum,
            check_stream_rebuild(inst, &mut sum)
        );
        observed!(obs, "aqp_bounds", sum, check_aqp_bounds(inst, &mut sum));
        observed!(
            obs,
            "report_determinism",
            sum,
            check_report_determinism(inst, &mut sum)
        );
        observed!(
            obs,
            "streaming_approx",
            sum,
            crate::streaming_approx::check(inst, &mut sum)
        );
        observed!(
            obs,
            "family_race",
            sum,
            crate::family_race::check(inst, &mut sum)
        );
        observed!(
            obs,
            "server_identity",
            sum,
            crate::server_identity::check(inst, &mut sum)
        );
    }
    observed!(obs, "schemes", sum, check_schemes(inst, &mut sum));
    observed!(
        obs,
        "parallel_identity",
        sum,
        check_parallel_identity(inst, &mut sum)
    );
    Ok(sum)
}

fn data_f64(inst: &Instance) -> Vec<f64> {
    inst.data.iter().map(|&v| v as f64).collect()
}

fn oracle_budgets(inst: &Instance) -> Vec<usize> {
    inst.budgets
        .iter()
        .copied()
        .filter(|&b| b <= ORACLE_BUDGET_CAP)
        .collect()
}

/// 1-D: the eight engine configurations are exact twins of each other
/// and of warm reuse; the DP objective equals the achieved error, the
/// oracle (Theorem 3.1), and the integer DP; Proposition 3.3 bounds it
/// from below and greedy L2 from above.
fn check_one_dim(inst: &Instance, sum: &mut CheckSummary) -> Result<(), Failure> {
    let name = &inst.name;
    let data = data_f64(inst);
    let solver =
        MinMaxErr::new(&data).map_err(|e| Failure::new("build-1d", name, e.to_string()))?;
    let int_solver = IntegerExact::new(
        &NdShape::new(inst.shape.clone())
            .map_err(|e| Failure::new("build-1d", name, e.to_string()))?,
        &inst.data,
    )
    .map_err(|e| Failure::new("build-1d", name, e.to_string()))?;
    let greedy = GreedyL2::new(&data).map_err(|e| Failure::new("build-1d", name, e.to_string()))?;
    let n = data.len();
    let max_abs_coeff = |retains: &dyn Fn(usize) -> bool| {
        (0..n)
            .filter(|&j| !retains(j))
            .map(|j| solver.tree().coeff(j).abs())
            .fold(0.0f64, f64::max)
    };
    let orc_budgets = oracle_budgets(inst);
    // One scratch across every budget and metric of the instance.
    let mut scratch = SolverScratch::new();
    for &spec in &inst.metrics {
        let metric = spec.metric();
        let opt_by_budget = oracle::optimal_1d(
            solver.tree(),
            &data,
            &orc_budgets,
            metric,
            oracle::DEFAULT_MAX_EVALS,
        );
        for &b in &inst.budgets {
            let mut witness: Option<(u64, Vec<usize>)> = None;
            for config in Config::ALL {
                let r = solver.run_with(b, metric, config);
                sum.stats = sum.stats.merged(r.stats);
                ensure!(
                    sum,
                    r.synopsis.len() <= b,
                    "budget-respected",
                    name,
                    "{} kept {} > B={b} ({})",
                    config.id(),
                    r.synopsis.len(),
                    spec.id()
                );
                let achieved = r.synopsis.max_error(&data, metric);
                ensure!(
                    sum,
                    (achieved - r.objective).abs() <= 1e-9 * (1.0 + r.objective.abs()),
                    "objective-certified",
                    name,
                    "{} b={b} {}: DP says {} but synopsis achieves {achieved}",
                    config.id(),
                    spec.id(),
                    r.objective
                );
                let bits = r.objective.to_bits();
                let indices = r.synopsis.indices();
                match &witness {
                    None => witness = Some((bits, indices)),
                    Some((wbits, windices)) => {
                        ensure!(
                            sum,
                            bits == *wbits && &indices == windices,
                            "exact-twin-bits",
                            name,
                            "{} b={b} {} diverges from {}: objective {} vs {}, kept {:?} vs {:?}",
                            config.id(),
                            spec.id(),
                            Config::ALL[0].id(),
                            r.objective,
                            f64::from_bits(*wbits),
                            indices,
                            windices
                        );
                    }
                }
            }
            // Witness is always set: `Config::ALL` is non-empty.
            let Some((wbits, windices)) = witness else {
                unreachable!("Config::ALL is non-empty")
            };
            let wobj = f64::from_bits(wbits);
            let reused = solver
                .threshold_with_reusing(&RunParams::new(b, metric), &mut scratch)
                .map_err(|e| Failure::new("minmax-run", name, e.to_string()))?;
            sum.stats = sum.stats.merged(reused.stats);
            let reused_indices = reused
                .synopsis
                .into_one("conform")
                .map_err(|e| Failure::new("minmax-run", name, e.to_string()))?
                .indices();
            ensure!(
                sum,
                reused.objective.to_bits() == wbits && reused_indices == windices,
                "reused-scratch-bits",
                name,
                "reused scratch b={b} {}: {} vs cold {wobj}",
                spec.id(),
                reused.objective
            );
            if let (Some(opts), Some(pos)) =
                (&opt_by_budget, orc_budgets.iter().position(|&ob| ob == b))
            {
                ensure!(
                    sum,
                    (wobj - opts[pos]).abs() <= 1e-9,
                    "thm3.1-oracle",
                    name,
                    "b={b} {}: MinMaxErr {wobj} vs oracle {}",
                    spec.id(),
                    opts[pos]
                );
            }
            if matches!(spec, MetricSpec::Abs) {
                let dropped = max_abs_coeff(&|j| windices.contains(&j));
                ensure!(
                    sum,
                    wobj >= dropped - 1e-9,
                    "prop3.3-lower-bound",
                    name,
                    "b={b}: objective {wobj} below largest dropped |coeff| {dropped}"
                );
            }
            let int_run = match spec {
                MetricSpec::Abs => int_solver.run(b),
                MetricSpec::Rel(s) => int_solver.run_relative(b, s),
            };
            sum.stats = sum.stats.merged(int_run.stats);
            ensure!(
                sum,
                (int_run.true_objective - wobj).abs() <= 1e-9,
                "integer-dp-near-twin",
                name,
                "b={b} {}: integer DP {} vs MinMaxErr {wobj}",
                spec.id(),
                int_run.true_objective
            );
            let greedy_run = greedy
                .threshold(b, metric)
                .map_err(|e| Failure::new("greedy-run", name, e.to_string()))?;
            ensure!(
                sum,
                greedy_run.objective >= wobj - 1e-9,
                "greedy-not-below-optimum",
                name,
                "b={b} {}: greedy {} beat the optimum {wobj}",
                spec.id(),
                greedy_run.objective
            );
        }
    }
    Ok(())
}

/// Streaming: after the instance's updates reach a server column, a
/// forced rebuild must be a bit-exact twin of thresholding the
/// post-update data from scratch.
fn check_stream_rebuild(inst: &Instance, sum: &mut CheckSummary) -> Result<(), Failure> {
    let name = &inst.name;
    if inst.updates.is_empty() {
        return Ok(());
    }
    let data = data_f64(inst);
    let n = data.len();
    // One representative budget: the largest not exceeding n/2, else 1.
    let b = inst
        .budgets
        .iter()
        .copied()
        .filter(|&b| b >= 1 && b <= n / 2)
        .max()
        .unwrap_or(1);
    let updates: Vec<(usize, f64)> = inst.updates.iter().map(|&(i, d)| (i, d as f64)).collect();
    // The column keeps its data to itself; the fresh solve needs a copy.
    let mut updated = data.clone();
    for &(i, d) in &updates {
        updated[i] += d;
    }
    let obs = Collector::noop();
    for &spec in &inst.metrics {
        let metric = spec.metric();
        let mut column =
            Column::new(&data, 2.0).map_err(|e| Failure::new("stream-build", name, e))?;
        column
            .build(b, &spec.id(), None, &obs)
            .map_err(|e| Failure::new("stream-build", name, e))?;
        column
            .enqueue(&updates)
            .map_err(|e| Failure::new("stream-update", name, e))?;
        column
            .drain(&obs)
            .map_err(|e| Failure::new("stream-update", name, e))?;
        let rebuilt = column
            .build(b, &spec.id(), None, &obs)
            .map_err(|e| Failure::new("stream-rebuild", name, e))?;
        let (objective, kept) = (rebuilt.objective, rebuilt.engine.retained());
        let fresh = MinMaxErr::new(&updated)
            .map_err(|e| Failure::new("stream-rebuild", name, e.to_string()))?
            .run(b, metric);
        sum.stats = sum.stats.merged(fresh.stats);
        ensure!(
            sum,
            objective.to_bits() == fresh.objective.to_bits(),
            "stream-rebuild-bits",
            name,
            "b={b} {}: rebuild objective {objective} vs from-scratch {}",
            spec.id(),
            fresh.objective
        );
        ensure!(
            sum,
            kept == fresh.synopsis.indices(),
            "stream-rebuild-set",
            name,
            "b={b} {}: rebuild kept {kept:?}, from-scratch kept {:?}",
            spec.id(),
            fresh.synopsis.indices()
        );
    }
    Ok(())
}

/// Observability: two identical runs of the same solver on the same
/// instance must produce byte-identical untimed run reports (spans,
/// counters, gauges, and serialization order are all deterministic).
fn check_report_determinism(inst: &Instance, sum: &mut CheckSummary) -> Result<(), Failure> {
    let name = &inst.name;
    let data = data_f64(inst);
    let n = data.len();
    let b = inst
        .budgets
        .iter()
        .copied()
        .filter(|&b| b >= 1 && b < n)
        .max()
        .unwrap_or(1);
    for &spec in &inst.metrics {
        let metric = spec.metric();
        let render_once = || -> Result<String, Failure> {
            let obs = Collector::recording();
            let solver = MinMaxErr::new(&data)
                .map_err(|e| Failure::new("report-run", name, e.to_string()))?;
            let params = RunParams::new(b, metric).obs(obs.clone());
            solver
                .threshold_with(&params)
                .map_err(|e| Failure::new("report-run", name, e.to_string()))?;
            let report = obs
                .report(wsyn_obs::run_meta("minmax", b, &spec.id()))
                .ok_or_else(|| {
                    Failure::new("report-run", name, "recording collector lost".to_string())
                })?;
            Ok(report.strip_timing().render())
        };
        let first = render_once()?;
        let second = render_once()?;
        ensure!(
            sum,
            first == second,
            "report-byte-identity",
            name,
            "b={b} {}: two identical runs rendered different untimed reports\n--- first ---\n{first}\n--- second ---\n{second}",
            spec.id()
        );
    }
    Ok(())
}

/// AQP: intervals derived from a guarantee contain the exact answer —
/// for every point under both metrics and for every prefix range sum.
fn check_aqp_bounds(inst: &Instance, sum: &mut CheckSummary) -> Result<(), Failure> {
    let name = &inst.name;
    let data = data_f64(inst);
    let n = data.len();
    let solver =
        MinMaxErr::new(&data).map_err(|e| Failure::new("build-1d", name, e.to_string()))?;
    let b = inst
        .budgets
        .iter()
        .copied()
        .filter(|&b| b >= 1 && b < n)
        .max()
        .unwrap_or(1);
    for &spec in &inst.metrics {
        let metric = spec.metric();
        let r = solver.run(b, metric);
        sum.stats = sum.stats.merged(r.stats);
        let recon = r.synopsis.reconstruct();
        for i in 0..n {
            let iv = match spec {
                MetricSpec::Abs => wsyn_aqp::bounds::point_absolute(recon[i], r.objective),
                MetricSpec::Rel(s) => wsyn_aqp::bounds::point_relative(recon[i], r.objective, s),
            };
            ensure!(
                sum,
                iv.contains(data[i]),
                "aqp-point-interval",
                name,
                "b={b} {} i={i}: [{}, {}] excludes true value {}",
                spec.id(),
                iv.lo,
                iv.hi,
                data[i]
            );
        }
        if matches!(spec, MetricSpec::Abs) {
            // Exact prefix sums: prefix[hi] = Σ data[0..hi].
            let prefix: Vec<f64> = std::iter::once(0.0)
                .chain(data.iter().scan(0.0f64, |acc, &v| {
                    *acc += v;
                    Some(*acc)
                }))
                .collect();
            for (hi, &exact) in prefix.iter().enumerate() {
                let est = r.synopsis.range_sum(0..hi);
                let iv = wsyn_aqp::bounds::range_sum_absolute(est, r.objective, hi);
                ensure!(
                    sum,
                    iv.contains(exact),
                    "aqp-range-sum-interval",
                    name,
                    "b={b} [0, {hi}): [{}, {}] excludes exact sum {exact}",
                    iv.lo,
                    iv.hi
                );
            }
        }
    }
    Ok(())
}

/// Pool-parallel execution is invisible in results: the `OnePlusEps`
/// τ-sweep through explicit pools of 2 and 4 threads (forced via
/// [`Pool::with_threads`], so real threads run even on a 1-CPU host) is
/// an exact twin of the one-thread sweep, `DpStats` included, and its
/// recorded observability report renders to byte-identical text at 1
/// and 4 threads.
fn check_parallel_identity(inst: &Instance, sum: &mut CheckSummary) -> Result<(), Failure> {
    let name = &inst.name;
    // τ-sweep through explicit pools, on one representative budget.
    let shape = NdShape::new(inst.shape.clone())
        .map_err(|e| Failure::new("build-nd", name, e.to_string()))?;
    let oneplus = OnePlusEps::new(&shape, &inst.data)
        .map_err(|e| Failure::new("build-nd", name, e.to_string()))?;
    let n = inst.n();
    let b = inst
        .budgets
        .iter()
        .copied()
        .filter(|&b| b >= 1 && b <= n / 2)
        .max()
        .unwrap_or(1);
    let noop = Collector::noop();
    let seq = oneplus.run_with(b, 0.5, &Pool::with_threads(1), &noop).0;
    for threads in [2usize, 4] {
        let par = oneplus
            .run_with(b, 0.5, &Pool::with_threads(threads), &noop)
            .0;
        sum.stats = sum.stats.merged(par.stats);
        ensure!(
            sum,
            par.true_objective.to_bits() == seq.true_objective.to_bits()
                && par.dp_objective.to_bits() == seq.dp_objective.to_bits()
                && par.synopsis == seq.synopsis
                && par.stats == seq.stats,
            "pool-tau-sweep-bits",
            name,
            "b={b} threads={threads}: {} vs sequential {}",
            par.true_objective,
            seq.true_objective
        );
    }
    let render = |threads: usize| -> Result<String, Failure> {
        let obs = Collector::recording();
        oneplus.run_with(b, 0.5, &Pool::with_threads(threads), &obs);
        let report = obs
            .report(wsyn_obs::run_meta("oneplus", b, "abs"))
            .ok_or_else(|| {
                Failure::new(
                    "pool-report-run",
                    name,
                    "recording collector lost".to_string(),
                )
            })?;
        Ok(report.strip_timing().render())
    };
    let one = render(1)?;
    let four = render(4)?;
    ensure!(
        sum,
        one == four,
        "pool-report-byte-identity",
        name,
        "b={b}: τ-sweep reports differ between 1 and 4 threads\n--- 1 thread ---\n{one}\n--- 4 threads ---\n{four}"
    );
    Ok(())
}

/// The multi-dimensional schemes (which also accept 1-D shapes): the
/// exact integer DP vs. the oracle, Theorem 3.2 for the additive scheme,
/// Theorem 3.4 for the truncated DP, parallel vs. sequential τ-sweeps,
/// and Proposition 3.3.
fn check_schemes(inst: &Instance, sum: &mut CheckSummary) -> Result<(), Failure> {
    let name = &inst.name;
    let data = data_f64(inst);
    let shape = NdShape::new(inst.shape.clone())
        .map_err(|e| Failure::new("build-nd", name, e.to_string()))?;
    let exact = IntegerExact::new(&shape, &inst.data)
        .map_err(|e| Failure::new("build-nd", name, e.to_string()))?;
    let additive = AdditiveScheme::new(
        &NdArray::new(shape.clone(), data.clone())
            .map_err(|e| Failure::new("build-nd", name, e.to_string()))?,
    )
    .map_err(|e| Failure::new("build-nd", name, e.to_string()))?;
    let oneplus = OnePlusEps::new(&shape, &inst.data)
        .map_err(|e| Failure::new("build-nd", name, e.to_string()))?;
    let coeffs = additive.tree().coeffs().data().to_vec();
    let r_max = coeffs.iter().fold(0.0f64, |a, &c| a.max(c.abs()));
    // Theorem 3.2 deviation budget: one sub-unit rounding per coefficient
    // hop on a root-to-leaf path, 2^D per level plus the root.
    let hops_slack =
        ((1u64 << shape.ndims()) as f64) * f64::from(additive.tree().levels().max(1)) + 1.0;
    let orc_budgets = oracle_budgets(inst);
    let orc_abs = oracle::optimal_nd(
        additive.tree(),
        &data,
        &orc_budgets,
        ErrorMetric::absolute(),
        oracle::DEFAULT_MAX_EVALS,
    );
    for &b in &inst.budgets {
        let exact_run = exact.run(b);
        sum.stats = sum.stats.merged(exact_run.stats);
        ensure!(
            sum,
            exact_run.synopsis.len() <= b,
            "budget-respected",
            name,
            "integer-exact kept {} > B={b}",
            exact_run.synopsis.len()
        );
        ensure!(
            sum,
            (exact_run.dp_objective - exact_run.true_objective).abs() <= 1e-9,
            "objective-certified",
            name,
            "integer-exact b={b}: DP {} vs achieved {}",
            exact_run.dp_objective,
            exact_run.true_objective
        );
        let dropped = (0..inst.n())
            .filter(|&p| !exact_run.synopsis.retains(p))
            .map(|p| coeffs[p].abs())
            .fold(0.0f64, f64::max);
        ensure!(
            sum,
            exact_run.true_objective >= dropped - 1e-9,
            "prop3.3-lower-bound",
            name,
            "integer-exact b={b}: {} below largest dropped |coeff| {dropped}",
            exact_run.true_objective
        );
        let opt_abs = exact_run.true_objective;
        let oracle_abs_here = match (&orc_abs, orc_budgets.iter().position(|&ob| ob == b)) {
            (Some(opts), Some(pos)) => {
                ensure!(
                    sum,
                    (opt_abs - opts[pos]).abs() <= 1e-9,
                    "integer-exact-oracle",
                    name,
                    "b={b}: integer DP {opt_abs} vs oracle {}",
                    opts[pos]
                );
                Some(opts[pos])
            }
            _ => None,
        };
        for eps in EPSILONS {
            let add = additive.run(b, ErrorMetric::absolute(), eps);
            sum.stats = sum.stats.merged(add.stats);
            ensure!(
                sum,
                add.synopsis.len() <= b,
                "budget-respected",
                name,
                "additive b={b} eps={eps} kept {}",
                add.synopsis.len()
            );
            // Theorem 3.2 (absolute arm), certified against the
            // brute-force oracle whenever the budget permits enumeration;
            // the exact DP (itself oracle-checked above) stands in for
            // larger budgets.
            let opt_ref = oracle_abs_here.unwrap_or(opt_abs);
            ensure!(
                sum,
                add.true_objective <= opt_ref + eps * r_max + hops_slack + 1e-9,
                "thm3.2-additive-abs",
                name,
                "b={b} eps={eps}: {} vs OPT {opt_ref} + eps*R {} + slack {hops_slack}",
                add.true_objective,
                eps * r_max
            );
            if oracle_abs_here.is_some() {
                sum.thm32_vs_oracle += 1;
            }
            ensure!(
                sum,
                add.true_objective >= opt_abs - 1e-9,
                "approx-not-below-optimum",
                name,
                "additive b={b} eps={eps}: {} beat the optimum {opt_abs}",
                add.true_objective
            );
            let approx = oneplus.run(b, eps);
            sum.stats = sum.stats.merged(approx.stats);
            ensure!(
                sum,
                approx.true_objective <= (1.0 + eps) * opt_abs + 1e-9,
                "thm3.4-oneplus",
                name,
                "b={b} eps={eps}: {} vs (1+eps)*OPT = {}",
                approx.true_objective,
                (1.0 + eps) * opt_abs
            );
            ensure!(
                sum,
                approx.true_objective >= opt_abs - 1e-9,
                "approx-not-below-optimum",
                name,
                "oneplus b={b} eps={eps}: {} beat the optimum {opt_abs}",
                approx.true_objective
            );
            ensure!(
                sum,
                approx.synopsis.len() <= b,
                "budget-respected",
                name,
                "oneplus b={b} eps={eps} kept {}",
                approx.synopsis.len()
            );
        }
        // Default pool vs. one thread: exact twins, one eps suffices
        // (the merge path is identical for all).
        let noop = Collector::noop();
        let (par, par_reports) = oneplus.run_with(b, 0.5, &Pool::new(), &noop);
        let (seq, seq_reports) = oneplus.run_with(b, 0.5, &Pool::with_threads(1), &noop);
        ensure!(
            sum,
            par.true_objective.to_bits() == seq.true_objective.to_bits()
                && par.dp_objective.to_bits() == seq.dp_objective.to_bits()
                && par.synopsis == seq.synopsis
                && par.stats == seq.stats
                && par_reports == seq_reports,
            "tau-sweep-parallel-bits",
            name,
            "b={b}: parallel sweep {} vs sequential {}",
            par.true_objective,
            seq.true_objective
        );
        // Relative-error arms.
        for &spec in &inst.metrics {
            let MetricSpec::Rel(s) = spec else { continue };
            let rel_exact = exact.run_relative(b, s);
            sum.stats = sum.stats.merged(rel_exact.stats);
            ensure!(
                sum,
                (rel_exact.dp_objective - rel_exact.true_objective).abs() <= 1e-9,
                "objective-certified",
                name,
                "integer-exact-rel b={b} s={s}: DP {} vs achieved {}",
                rel_exact.dp_objective,
                rel_exact.true_objective
            );
            for eps in EPSILONS {
                let add = additive.run(b, ErrorMetric::relative(s), eps);
                sum.stats = sum.stats.merged(add.stats);
                ensure!(
                    sum,
                    add.true_objective
                        <= rel_exact.true_objective + eps * r_max / s + hops_slack / s + 1e-9,
                    "thm3.2-additive-rel",
                    name,
                    "b={b} eps={eps} s={s}: {} vs OPT {} + eps*R/s {}",
                    add.true_objective,
                    rel_exact.true_objective,
                    eps * r_max / s
                );
                ensure!(
                    sum,
                    add.true_objective >= rel_exact.true_objective - 1e-9,
                    "approx-not-below-optimum",
                    name,
                    "additive-rel b={b} eps={eps} s={s}: {} beat {}",
                    add.true_objective,
                    rel_exact.true_objective
                );
            }
        }
    }
    Ok(())
}
