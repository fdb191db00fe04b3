//! Optimal deterministic one-dimensional thresholding — the `MinMaxErr`
//! algorithm of §3.1 (Figure 3, Theorem 3.1).
//!
//! Given a space budget `B`, `MinMaxErr` selects at most `B` Haar
//! coefficients minimizing the **maximum** relative (with sanity bound) or
//! absolute error over all reconstructed data values. The paper's dynamic
//! program conditions the optimal error of a subtree `T_j` on the subtree
//! root `j`, the budget `b` allotted to the subtree, and the subset
//! `S ⊆ path(c_j)` of ancestors retained in the synopsis; tabulating all
//! `O(2^depth)` subsets per node yields `O(N² B log B)` time.
//!
//! Four interchangeable engines are provided (all provably return the same
//! optimal objective; tests assert this):
//!
//! * [`Engine::Dedup`] *(default)* — memoizes on the **incoming error**
//!   `e = Σ_{c_k ∈ path(c_j) \ S} sign_{jk}·c_k` instead of the subset `S`.
//!   Every ancestor contributes with a fixed sign to the whole subtree, so
//!   `S` influences `T_j` only through this scalar; distinct subsets with
//!   equal `e` are *identical* subproblems and collapse into one state.
//!   This is a pure deduplication of the paper's table (never more states,
//!   often far fewer) and is also precisely the state the paper itself uses
//!   for its multi-dimensional DPs in §3.2. Runs as a recursive kernel
//!   (one nested solve per memoized level) with certified-lossless
//!   branch-and-bound pruning.
//! * [`Engine::DedupExhaustive`] — the same kernel with pruning disabled;
//!   ablation baseline asserting the pruned kernel's losslessness.
//! * [`Engine::SubsetMask`] — the paper-faithful formulation, memoizing on
//!   the ancestor-subset bitmask exactly as written in Figure 3. Quadratic
//!   state blow-up; intended for validation and ablation.
//! * [`Engine::BottomUp`] — post-order evaluation that keeps only one
//!   "line" of the DP table per tree level (the paper's `O(NB)`
//!   working-space argument) and re-traces the optimal solution by
//!   recomputing subtree tables along the optimal path.
//!
//! The split of a node's budget between its two child subtrees is found
//! either by the paper's `O(log B)` binary search (valid because the table
//! is non-increasing in the budget) or by a linear scan
//! ([`SplitSearch`]) — an ablation knob; both are exact.
//!
//! **Tie-breaking:** when keeping and dropping a coefficient yield the same
//! optimal maximum error, every engine prefers **keep**. The max-error
//! objective can saturate (e.g. relative error 1.0 on spiky data whose
//! spikes the budget cannot cover), where drop-on-tie would return a
//! degenerate near-empty synopsis; keep-on-tie spends the granted budget,
//! which never worsens the guaranteed objective but greatly improves
//! secondary quality (RMSE, individual query answers).

mod bottom_up;
pub mod closed_form;
mod dedup;
mod subset;

pub(crate) use dedup::Memo;

use wsyn_core::WsynError;
use wsyn_haar::{ErrorTree1d, HaarError};

use crate::metric::ErrorMetric;
use crate::synopsis::Synopsis1d;
use closed_form::vmax;

/// Which DP engine to run (see module docs).
///
/// Deliberately **not** `#[non_exhaustive]`: [`Engine::ALL`] is a public
/// contract — the conformance harness and the ablation binaries iterate
/// it and exhaustively match on every variant, and the exact-twin
/// guarantee is quantified over *all* engines. Adding an engine is a
/// semver-breaking event by design: every exhaustive match (and every
/// bit-identity claim) must be revisited, not silently wildcarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Incoming-error memoization with branch-and-bound pruning
    /// (default; fastest).
    #[default]
    Dedup,
    /// The same recursive kernel as [`Engine::Dedup`] with pruning
    /// disabled — the ablation baseline certifying that pruning is
    /// lossless (identical objectives, synopses, and memo entries).
    DedupExhaustive,
    /// Paper-faithful ancestor-subset bitmask tabulation.
    SubsetMask,
    /// Low-working-memory bottom-up tables with recompute traceback.
    BottomUp,
}

/// How to locate the optimal budget split between two child subtrees.
///
/// Not `#[non_exhaustive]`, for the same reason as [`Engine`]:
/// [`SplitSearch::ALL`] spans the engine × split matrix of
/// [`Config::ALL`], whose exact-twin contract enumerates every variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitSearch {
    /// The paper's `O(log B)` binary search over the crossover allotment.
    #[default]
    Binary,
    /// Exhaustive `O(B)` scan (ablation baseline; identical results).
    Linear,
}

/// Tuning knobs for [`MinMaxErr`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Config {
    /// DP engine.
    pub engine: Engine,
    /// Budget-split search strategy.
    pub split: SplitSearch,
}

impl Engine {
    /// Every engine, in documentation order — the enumeration driven by
    /// the differential-conformance harness and the E4/E5 ablations.
    pub const ALL: [Engine; 4] = [
        Engine::Dedup,
        Engine::DedupExhaustive,
        Engine::SubsetMask,
        Engine::BottomUp,
    ];

    /// Stable kebab-case identifier (conformance reports, corpus files).
    #[must_use]
    pub const fn id(self) -> &'static str {
        match self {
            Engine::Dedup => "dedup",
            Engine::DedupExhaustive => "dedup-exhaustive",
            Engine::SubsetMask => "subset-mask",
            Engine::BottomUp => "bottom-up",
        }
    }
}

impl SplitSearch {
    /// Both split strategies, in documentation order.
    pub const ALL: [SplitSearch; 2] = [SplitSearch::Binary, SplitSearch::Linear];

    /// Stable identifier.
    #[must_use]
    pub const fn id(self) -> &'static str {
        match self {
            SplitSearch::Binary => "binary",
            SplitSearch::Linear => "linear",
        }
    }
}

impl Config {
    /// The full engine × split-search matrix, engine-major in the
    /// [`Engine::ALL`] / [`SplitSearch::ALL`] orders. All eight
    /// configurations are exact twins: they return bit-identical
    /// objectives and retained sets (the conformance harness asserts
    /// this on every instance it touches).
    pub const ALL: [Config; 8] = {
        let mut out = [Config {
            engine: Engine::Dedup,
            split: SplitSearch::Binary,
        }; 8];
        let mut i = 0;
        while i < 4 {
            let mut j = 0;
            while j < 2 {
                out[i * 2 + j] = Config {
                    engine: Engine::ALL[i],
                    split: SplitSearch::ALL[j],
                };
                j += 1;
            }
            i += 1;
        }
        out
    };

    /// Stable `"<engine>/<split>"` identifier.
    ///
    /// **Stability guarantee:** these identifiers are persisted — in
    /// blessed conformance corpus files, benchmark JSON, and
    /// observability run reports — so they are never renamed or
    /// repurposed. A new configuration gets a new id; an existing id
    /// refers to the same configuration forever.
    #[must_use]
    pub fn id(self) -> String {
        format!("{}/{}", self.engine.id(), self.split.id())
    }
}

/// Instrumentation counters from a DP run (ablation reporting) — the
/// workspace-wide statistics block from [`wsyn_core`].
pub use wsyn_core::DpStats;

/// Result of a thresholding run.
#[derive(Debug, Clone)]
pub struct ThresholdResult {
    /// The selected synopsis (at most `B` coefficients).
    pub synopsis: Synopsis1d,
    /// The optimal objective value (maximum error) computed by the DP.
    ///
    /// Always equals the true maximum error of `synopsis` (tests assert
    /// this to 1e-9).
    pub objective: f64,
    /// Instrumentation counters.
    pub stats: DpStats,
}

/// Optimal deterministic maximum-error thresholding for one-dimensional
/// Haar wavelets (Theorem 3.1).
///
/// ```
/// use wsyn_synopsis::{one_dim::MinMaxErr, ErrorMetric};
/// let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
/// let r = MinMaxErr::new(&data).unwrap().run(3, ErrorMetric::absolute());
/// assert!(r.synopsis.len() <= 3);
/// assert!((r.synopsis.max_error(&data, wsyn_synopsis::ErrorMetric::absolute())
///          - r.objective).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct MinMaxErr {
    tree: ErrorTree1d,
    data: Vec<f64>,
}

/// Per-metric tables shared by the DP engines, computed at the start of
/// each run in O(N).
#[derive(Debug)]
pub(crate) struct MetricTables {
    /// Per-leaf error denominator (`max{|d_i|, s}` for relative error,
    /// `1` for absolute).
    pub(crate) denom: Vec<f64>,
    /// Per-node subtree *maximum* of `denom`, in combined-slot indexing
    /// (see [`ErrorTree1d::subtree_leaf_max`]) — the admissible
    /// branch-and-bound denominator: dividing an incoming error by the
    /// subtree's largest leaf denominator never overestimates the
    /// subtree optimum (DESIGN.md §9).
    pub(crate) bound: Vec<f64>,
}

impl MinMaxErr {
    /// Builds the solver from raw data (computes the wavelet transform).
    ///
    /// # Errors
    /// [`HaarError`] when `data` is empty, its length is not a power of
    /// two, or it holds a `NaN` or infinite value
    /// ([`HaarError::NonFinite`]).
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

    /// The original data vector.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Runs the DP with default configuration (dedup engine, binary-search
    /// splits) for budget `b` and the given metric.
    pub fn run(&self, b: usize, metric: ErrorMetric) -> ThresholdResult {
        self.run_with(b, metric, Config::default())
    }

    /// Runs the DP with an explicit engine/split configuration.
    ///
    /// Any budget is accepted: one of `N` or more keeps every coefficient
    /// the optimum needs, so it is clamped to `N` (DESIGN.md §9).
    ///
    /// The result is not certified here: the [`crate::Thresholder`]
    /// methods check it before they publish it.
    pub fn run_with(&self, b: usize, metric: ErrorMetric, config: Config) -> ThresholdResult {
        self.run_from(b, metric, config, None)
    }

    /// [`Self::run_with`] for a caller that solves many times: with
    /// `slots`, the dedup engines solve in the thread's retained memo
    /// started at `*slots` slots instead of a fresh table, and `*slots`
    /// then holds the count the memo ended at. Passing the same count
    /// each time skips the memo's growth ramp. Only the `probes` counter
    /// depends on the start; no state carries over between runs.
    pub(crate) fn run_from(
        &self,
        b: usize,
        metric: ErrorMetric,
        config: Config,
        slots: Option<&mut usize>,
    ) -> ThresholdResult {
        // A subtree whose budget reaches its own coefficient count can
        // keep all of them, so its value, keep decision and leftmost
        // split stop changing (DESIGN.md §9): clamping to `N` moves no
        // objective bit or retained coefficient. It also bounds every
        // budget by `N < 2^32`, which memo keys and `BottomUp` rows need.
        let b = b.min(self.tree.n());
        let denom: Vec<f64> = self.data.iter().map(|&v| metric.denom(v)).collect();
        let bound = self.tree.subtree_leaf_max(&denom);
        let tables = MetricTables { denom, bound };
        match config.engine {
            Engine::Dedup | Engine::DedupExhaustive => {
                let prune = matches!(config.engine, Engine::Dedup);
                dedup::run(&self.tree, &tables, b, config.split, prune, slots)
            }
            Engine::SubsetMask => {
                subset::run(&self.tree, &self.data, &tables.denom, b, config.split)
            }
            Engine::BottomUp => bottom_up::run(&self.tree, &tables.denom, b, config.split),
        }
    }

    /// Certifies a run before it is published: the synopsis is
    /// reconstructed, and its realized maximum error and the DP
    /// objective must both be finite and agree (Theorem 3.1's equality —
    /// the deterministic guarantee is the *actual* error, not a bound).
    /// Data near `f64::MAX` can overflow the transform or the
    /// reconstruction, and then the DP's objective is not the synopsis's
    /// error.
    ///
    /// The two values are computed along different float paths, so the
    /// tolerance is `1e-9` relative to the objective plus the rounding
    /// of the transform and the reconstruction: each of the `log2 N + 1`
    /// levels rounds by about `ε · max|d_i|`, seen through the smallest
    /// denominator. Without the second term, non-dyadic data of
    /// magnitude `1e7` and up would be refused at a small objective.
    ///
    /// # Errors
    /// [`WsynError::Invalid`] naming both values when the check fails.
    pub(crate) fn certify(
        &self,
        result: &ThresholdResult,
        metric: ErrorMetric,
    ) -> Result<(), WsynError> {
        let approx = result.synopsis.reconstruct();
        let achieved = if approx.iter().all(|v| v.is_finite()) {
            metric.max_error(&self.data, &approx)
        } else {
            f64::INFINITY
        };
        let objective = result.objective;
        // The rounding term costs two passes over the data, so it is
        // only computed for a gap the relative term does not cover.
        let rounding = || {
            let magnitude = self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            let min_denom = self
                .data
                .iter()
                .fold(f64::INFINITY, |m, &v| m.min(metric.denom(v)));
            let levels = f64::from(self.tree.n().trailing_zeros() + 1);
            8.0 * f64::EPSILON * levels * magnitude / min_denom
        };
        let gap = (achieved - objective).abs();
        let relative = 1e-9 * (1.0 + objective.abs());
        if achieved.is_finite()
            && objective.is_finite()
            && (gap <= relative || gap <= relative + rounding())
        {
            return Ok(());
        }
        Err(WsynError::invalid(format!(
            "minmax cannot certify its result: the synopsis's maximum error is {achieved:e} \
             but the DP objective is {objective:e}"
        )))
    }
}

/// Locates the optimal split of `budget` between a left part evaluated by
/// `f` (non-increasing in its argument) and a right part evaluated by `g`
/// at `budget - b'` (so non-decreasing in `b'`), minimizing
/// `max(f(b'), g(b'))`. Returns `(best value, best b')`.
///
/// Shared by all engines. `Binary` performs the paper's `O(log B)` search
/// for the crossover allotment; `Linear` scans all `B + 1` splits. Both are
/// exact under the monotonicity invariant (asserted in debug builds by the
/// callers' tests), and both break ties identically: when several splits
/// attain the optimum, the *smallest* `b'` is returned. Monotonicity makes
/// the minimizer set of `max(f, g)` a contiguous interval
/// (`{b' : f(b') <= best}` is a suffix, `{b' : g(b') <= best}` a prefix),
/// so `Binary` recovers its left edge with one extra `O(log B)` search over
/// `f` alone — keeping every `Config` an exact twin, retained sets included.
/// The closures receive a shared mutable context `ctx` (the DP solver), so
/// recursive memoized lookups can run inside the search. Generic over the
/// value type (`f64` for the float DPs, `i64` for the integer DPs of
/// §3.2.2).
pub(crate) fn best_split<C, V, F, G>(
    ctx: &mut C,
    budget: usize,
    split: SplitSearch,
    f: F,
    g: G,
) -> (V, usize)
where
    V: PartialOrd + Copy,
    F: Fn(&mut C, usize) -> V,
    G: Fn(&mut C, usize) -> V,
{
    best_split_above(ctx, budget, split, None, f, g)
}

/// [`best_split`] with an optional `floor`: a lower bound on
/// `max(f(b'), g(b'))` valid for *every* allotment. Once the incumbent
/// reaches it, no other allotment can be strictly better, so `Linear`
/// stops scanning and `Binary` skips its `lo - 1` refinement. Both cuts
/// return the exact `(value, b')` pair the search without a floor
/// returns: only strict improvements move the incumbent, and the
/// leftmost refinement still runs (the floor certifies that `best` is
/// optimal, not that it is leftmost). The pruned `Dedup` kernel passes
/// its branch's admissible bound (DESIGN.md §9).
#[inline]
pub(crate) fn best_split_above<C, V, F, G>(
    ctx: &mut C,
    budget: usize,
    split: SplitSearch,
    floor: Option<V>,
    f: F,
    g: G,
) -> (V, usize)
where
    V: PartialOrd + Copy,
    F: Fn(&mut C, usize) -> V,
    G: Fn(&mut C, usize) -> V,
{
    let reached = |best: V| floor.is_some_and(|fl| best <= fl);
    match split {
        SplitSearch::Linear => {
            let mut best = vmax(f(ctx, 0), g(ctx, 0));
            let mut best_b = 0usize;
            if !reached(best) {
                for bp in 1..=budget {
                    let v = vmax(f(ctx, bp), g(ctx, bp));
                    if v < best {
                        best = v;
                        best_b = bp;
                        if reached(best) {
                            break;
                        }
                    }
                }
            }
            (best, best_b)
        }
        SplitSearch::Binary => {
            // Smallest b' with f(b') <= g(b'); the optimum is at that
            // crossover or immediately before it.
            let mut lo = 0usize;
            let mut hi = budget;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if f(ctx, mid) <= g(ctx, mid) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let mut best = vmax(f(ctx, lo), g(ctx, lo));
            let mut best_b = lo;
            if lo > 0 && !reached(best) {
                let v = vmax(f(ctx, lo - 1), g(ctx, lo - 1));
                if v < best {
                    best = v;
                    best_b = lo - 1;
                }
            }
            // Tie-break to the leftmost optimal split, matching `Linear`'s
            // strict-`<` scan. `best_b` is a minimizer, so the smallest b'
            // with f(b') <= best also has g(b') <= g(best_b) <= best.
            if best_b > 0 {
                let mut llo = 0usize;
                let mut lhi = best_b;
                while llo < lhi {
                    let mid = llo + (lhi - llo) / 2;
                    if f(ctx, mid) <= best {
                        lhi = mid;
                    } else {
                        llo = mid + 1;
                    }
                }
                if llo != best_b {
                    best_b = llo;
                    // Equal to `best` by the interval argument above; the
                    // re-evaluation materializes both children's memo rows
                    // at the chosen split so traceback can replay it.
                    best = vmax(f(ctx, best_b), g(ctx, best_b));
                }
            }
            (best, best_b)
        }
    }
}

/// The budget-split search at every total budget at once: for each `t ∈
/// 0..=total` in order, calls `emit(t, best, b')` where `b'` is the
/// leftmost minimizer of `max(left(b'), right(t - b'))` over `b' ∈ 0..=t`
/// and `best` its value — exactly what `best_split` returns for budget
/// `t` with `f = left` and `g(b') = right(t - b')`, under either
/// [`SplitSearch`].
///
/// Both `left` and `right` take their own allotment and must be
/// non-increasing in it. Then the crossover (the smallest `b'` with
/// `left(b') <= right(t - b')`) and the leftmost minimizer (the smallest
/// `b'` with `left(b') <= best`, since `best` never grows with `t`) only
/// move right as `t` grows, so one forward pass of two pointers costs
/// `O(total)` evaluations instead of `O(total²)`. Used by the streaming
/// builder to merge a whole error column of two child tables.
pub fn best_splits<V, F, G, E>(total: usize, left: F, right: G, mut emit: E)
where
    V: PartialOrd + Copy,
    F: Fn(usize) -> V,
    G: Fn(usize) -> V,
    E: FnMut(usize, V, usize),
{
    let mut cross = 0usize;
    let mut lead = 0usize;
    for t in 0..=total {
        // As in `Binary`: the optimum sits at the crossover or just
        // before it (the crossover is `t` when no split satisfies it).
        while cross < t && left(cross) > right(t - cross) {
            cross += 1;
        }
        let mut best = vmax(left(cross), right(t - cross));
        if cross > 0 {
            let v = vmax(left(cross - 1), right(t + 1 - cross));
            if v < best {
                best = v;
            }
        }
        while lead < t && left(lead) > best {
            lead += 1;
        }
        emit(t, vmax(left(lead), right(t - lead)), lead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::ErrorMetric;
    use crate::oracle;

    const EXAMPLE: [f64; 8] = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];

    fn configs() -> Vec<Config> {
        let mut out = Vec::new();
        for engine in [
            Engine::Dedup,
            Engine::DedupExhaustive,
            Engine::SubsetMask,
            Engine::BottomUp,
        ] {
            for split in [SplitSearch::Binary, SplitSearch::Linear] {
                out.push(Config { engine, split });
            }
        }
        out
    }

    /// Binary and Linear split searches must agree on *which* split wins,
    /// not just on the optimal value: both pick the leftmost minimizer of
    /// `max(f, g)`. Exercised over every monotone step-function pair on a
    /// small budget so every plateau shape (ties at the crossover, flat
    /// valleys, all-infeasible rows) is covered.
    #[test]
    fn best_split_tie_breaks_identically_across_searches() {
        const B: usize = 6;
        // All non-increasing f (and non-decreasing g, reversed f) with
        // values in {0, 1, 2, MAX}: thresholds t1 <= t2 <= t3 where the
        // value steps down.
        let mut profiles: Vec<[i64; B + 1]> = Vec::new();
        for t1 in 0..=B + 1 {
            for t2 in t1..=B + 1 {
                for t3 in t2..=B + 1 {
                    let mut p = [0i64; B + 1];
                    for (i, slot) in p.iter_mut().enumerate() {
                        *slot = if i < t1 {
                            i64::MAX
                        } else if i < t2 {
                            2
                        } else if i < t3 {
                            1
                        } else {
                            0
                        };
                    }
                    profiles.push(p);
                }
            }
        }
        for fv in &profiles {
            for gv in &profiles {
                let f = |_: &mut (), bp: usize| fv[bp];
                let g = |_: &mut (), bp: usize| gv[B - bp];
                let lin = best_split(&mut (), B, SplitSearch::Linear, f, g);
                let bin = best_split(&mut (), B, SplitSearch::Binary, f, g);
                assert_eq!(lin, bin, "f={fv:?} g(rev)={gv:?}");
                // The all-budgets pass agrees with the reference scan at
                // every budget, not just the full one.
                let mut emitted = 0;
                best_splits(
                    B,
                    |bp| fv[bp],
                    |br| gv[br],
                    |t, best, bp| {
                        assert_eq!(t, emitted);
                        emitted += 1;
                        let g = |_: &mut (), bp: usize| gv[t - bp];
                        let lin = best_split(&mut (), t, SplitSearch::Linear, f, g);
                        assert_eq!((best, bp), lin, "t={t} f={fv:?} g={gv:?}");
                    },
                );
                assert_eq!(emitted, B + 1);
            }
        }
    }

    #[test]
    fn matches_oracle_on_example_all_budgets_all_engines() {
        let solver = MinMaxErr::new(&EXAMPLE).unwrap();
        for metric in [ErrorMetric::absolute(), ErrorMetric::relative(1.0)] {
            for b in 0..=8usize {
                let expect = oracle::exhaustive_1d(solver.tree(), &EXAMPLE, b, metric).objective;
                for config in configs() {
                    let r = solver.run_with(b, metric, config);
                    assert!(
                        (r.objective - expect).abs() < 1e-9,
                        "b={b} {metric:?} {config:?}: got {} want {expect}",
                        r.objective
                    );
                    // The reported objective must equal the true error of
                    // the returned synopsis.
                    let true_err = r.synopsis.max_error(&EXAMPLE, metric);
                    assert!(
                        (true_err - r.objective).abs() < 1e-9,
                        "b={b} {metric:?} {config:?}: synopsis err {true_err} vs objective {}",
                        r.objective
                    );
                    assert!(r.synopsis.len() <= b);
                }
            }
        }
    }

    /// The certification the `Thresholder` methods run (reconstructed
    /// maximum error equals the DP objective) holds for every engine,
    /// split and budget on the §2.1 worked example and on E4-style
    /// random instances. `run_with` itself does not certify, so this
    /// checks its results directly.
    #[test]
    fn certification_holds_on_example_and_e4_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let certify = |data: &[f64]| {
            let solver = MinMaxErr::new(data).unwrap();
            for metric in [ErrorMetric::absolute(), ErrorMetric::relative(1.0)] {
                for b in 0..=data.len().min(8) {
                    for config in configs() {
                        let r = solver.run_with(b, metric, config);
                        let achieved = r.synopsis.max_error(data, metric);
                        assert!(
                            (achieved - r.objective).abs() <= 1e-9 * (1.0 + r.objective.abs()),
                            "b={b} {metric:?} {config:?}: achieved {achieved} vs objective {} \
                             (data {data:?})",
                            r.objective
                        );
                    }
                }
            }
        };
        // §2.1 worked example.
        certify(&EXAMPLE);
        // E4 inputs: random integer-valued instances (E4's seed).
        let mut rng = StdRng::seed_from_u64(2004);
        for n in [4usize, 8, 16] {
            for _ in 0..10 {
                let data: Vec<f64> = (0..n)
                    .map(|_| f64::from(rng.gen_range(-20i32..=20)))
                    .collect();
                certify(&data);
            }
        }
    }

    /// Every `Config::ALL` twin returns bit-identical objectives and
    /// retained sets at the sizes where the root's child is itself a
    /// closed-form subtree (N ≤ 4) and one level above (N = 8), for
    /// every budget up to `N + 1` and both metrics; the objective also
    /// matches the exhaustive oracle.
    #[test]
    fn config_twins_agree_at_closed_form_sizes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(16);
        for n in [1usize, 2, 4, 8] {
            for round in 0..40 {
                // Small integers make zero coefficients and exact ties
                // common; round 0 is all-zero data.
                let data: Vec<f64> = (0..n)
                    .map(|_| {
                        if round == 0 {
                            0.0
                        } else {
                            f64::from(rng.gen_range(-3i32..=3))
                        }
                    })
                    .collect();
                let solver = MinMaxErr::new(&data).unwrap();
                for metric in [ErrorMetric::absolute(), ErrorMetric::relative(2.0)] {
                    for b in 0..=n + 1 {
                        let want = oracle::exhaustive_1d(solver.tree(), &data, b, metric).objective;
                        let base = solver.run_with(b, metric, Config::ALL[0]);
                        assert!(
                            (base.objective - want).abs() < 1e-9,
                            "{data:?} b={b} {metric:?}: {} vs oracle {want}",
                            base.objective
                        );
                        for config in Config::ALL {
                            let r = solver.run_with(b, metric, config);
                            assert_eq!(
                                (r.objective.to_bits(), r.synopsis.indices()),
                                (base.objective.to_bits(), base.synopsis.indices()),
                                "{data:?} b={b} {metric:?} {}",
                                config.id()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Budgets of `N` or more are clamped to `N`: every `Config::ALL`
    /// twin returns the objective bits and retained set of `b = N` at
    /// `b = N + 1` and at `b = 2^32 + 1`, a budget no `u32` memo key or
    /// `BottomUp` row could hold unclamped.
    #[test]
    fn budgets_beyond_n_match_budget_n() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(32);
        for n in [1usize, 2, 8, 16] {
            for _ in 0..4 {
                let data: Vec<f64> = (0..n)
                    .map(|_| f64::from(rng.gen_range(-9i32..=9)))
                    .collect();
                let solver = MinMaxErr::new(&data).unwrap();
                for metric in [ErrorMetric::absolute(), ErrorMetric::relative(2.0)] {
                    let bits = |r: ThresholdResult| (r.objective.to_bits(), r.synopsis.indices());
                    let want = bits(solver.run_with(n, metric, Config::ALL[0]));
                    for b in [n, n + 1, (1usize << 32) + 1] {
                        for config in Config::ALL {
                            assert_eq!(
                                bits(solver.run_with(b, metric, config)),
                                want,
                                "{data:?} b={b} {metric:?} {}",
                                config.id()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_data_is_refused_at_construction() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for index in [0, EXAMPLE.len() - 1] {
                let mut data = EXAMPLE;
                data[index] = bad;
                let err = MinMaxErr::new(&data).unwrap_err();
                assert_eq!(err, HaarError::NonFinite { index });
                assert!(err.to_string().contains("data must be finite"), "{err}");
            }
        }
    }

    #[test]
    fn full_budget_zero_error() {
        let solver = MinMaxErr::new(&EXAMPLE).unwrap();
        for config in configs() {
            let r = solver.run_with(8, ErrorMetric::absolute(), config);
            assert_eq!(r.objective, 0.0, "{config:?}");
        }
    }

    #[test]
    fn zero_budget_reconstructs_nothing() {
        let solver = MinMaxErr::new(&EXAMPLE).unwrap();
        for config in configs() {
            let r = solver.run_with(0, ErrorMetric::absolute(), config);
            assert!(r.synopsis.is_empty());
            assert_eq!(r.objective, 5.0, "{config:?}"); // max |d_i|
        }
    }

    #[test]
    fn single_value_domain() {
        let solver = MinMaxErr::new(&[7.0]).unwrap();
        for config in configs() {
            let r0 = solver.run_with(0, ErrorMetric::absolute(), config);
            assert_eq!(r0.objective, 7.0);
            let r1 = solver.run_with(1, ErrorMetric::absolute(), config);
            assert_eq!(r1.objective, 0.0);
            assert_eq!(r1.synopsis.indices(), vec![0]);
        }
    }

    #[test]
    fn budget_larger_than_nonzero_coefficients() {
        let solver = MinMaxErr::new(&EXAMPLE).unwrap();
        // Only 5 non-zero coefficients exist; asking for 100 is fine.
        let r = solver.run(100, ErrorMetric::relative(0.5));
        assert_eq!(r.objective, 0.0);
        assert!(r.synopsis.len() <= 5);
    }

    #[test]
    fn objective_monotone_in_budget() {
        let data: Vec<f64> = (0..32)
            .map(|i| f64::from((i * 37 + 11) % 23) - 7.0)
            .collect();
        let solver = MinMaxErr::new(&data).unwrap();
        for metric in [ErrorMetric::absolute(), ErrorMetric::relative(2.0)] {
            let mut prev = f64::INFINITY;
            for b in 0..=12 {
                let r = solver.run(b, metric);
                assert!(r.objective <= prev + 1e-12, "b={b}");
                prev = r.objective;
            }
        }
    }

    #[test]
    fn engines_agree_on_random_data() {
        // Deterministic pseudo-random data; all engines and split modes
        // must agree bit-for-bit on the objective.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 1000) as f64 / 10.0 - 50.0
        };
        for n in [4usize, 8, 16, 32] {
            let data: Vec<f64> = (0..n).map(|_| rnd()).collect();
            let solver = MinMaxErr::new(&data).unwrap();
            for metric in [ErrorMetric::absolute(), ErrorMetric::relative(5.0)] {
                for b in [0usize, 1, 2, n / 4, n / 2] {
                    let base = solver.run_with(
                        b,
                        metric,
                        Config {
                            engine: Engine::Dedup,
                            split: SplitSearch::Binary,
                        },
                    );
                    for config in configs() {
                        let r = solver.run_with(b, metric, config);
                        assert!(
                            (r.objective - base.objective).abs() < 1e-9,
                            "n={n} b={b} {metric:?} {config:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dedup_never_has_more_states_than_subset() {
        let data: Vec<f64> = (0..16).map(|i| f64::from((i * 7) % 5)).collect();
        let solver = MinMaxErr::new(&data).unwrap();
        let metric = ErrorMetric::absolute();
        let run = |engine| {
            solver.run_with(
                4,
                metric,
                Config {
                    engine,
                    split: SplitSearch::Linear,
                },
            )
        };
        let dedup = run(Engine::Dedup);
        let exhaustive = run(Engine::DedupExhaustive);
        let subset = run(Engine::SubsetMask);
        // Pruning can only skip work relative to the exhaustive kernel,
        // which in turn only merges (never adds) paper states.
        assert!(
            dedup.stats.states <= exhaustive.stats.states,
            "pruned {} vs exhaustive {}",
            dedup.stats.states,
            exhaustive.stats.states
        );
        assert!(
            dedup.stats.leaf_evals <= exhaustive.stats.leaf_evals,
            "pruned {} vs exhaustive {} leaf evals",
            dedup.stats.leaf_evals,
            exhaustive.stats.leaf_evals
        );
        assert!(
            exhaustive.stats.states <= subset.stats.states,
            "dedup {} vs subset {}",
            exhaustive.stats.states,
            subset.stats.states
        );
    }

    #[test]
    fn max_relative_error_can_legitimately_prefer_the_empty_synopsis() {
        // Isolated huge spikes in a sea of small values with a tight
        // sanity bound: reconstructing 0 everywhere gives relErr exactly 1
        // for every cell, while *any* retained coefficient overshoots the
        // sea of 1.0-values (e.g. the overall average ≈ 94 gives relErr
        // ≈ 93 there). The optimum really is the empty synopsis — the DP
        // must find it and agree with the oracle. This is the phenomenon
        // the sanity bound `s` exists to modulate (footnote 2).
        let mut data = vec![1.0f64; 16];
        for i in [3usize, 9] {
            data[i] = 1000.0;
        }
        let solver = MinMaxErr::new(&data).unwrap();
        let metric = ErrorMetric::relative(1.0);
        let r = solver.run(2, metric);
        let opt = oracle::exhaustive_1d(solver.tree(), &data, 2, metric).objective;
        assert!((r.objective - opt).abs() < 1e-9);
        assert!(
            (r.objective - 1.0).abs() < 1e-9,
            "objective {}",
            r.objective
        );
        assert!(
            r.synopsis.is_empty(),
            "empty synopsis is the unique optimum"
        );
        // A generous sanity bound changes the picture: overshooting small
        // values is now cheap, so coefficients get retained.
        let relaxed = solver.run(2, ErrorMetric::relative(1000.0));
        assert!(!relaxed.synopsis.is_empty());
        assert!(relaxed.objective < 1.0);
        // And under absolute error, retention always helps here.
        let abs = solver.run(2, ErrorMetric::absolute());
        assert!(!abs.synopsis.is_empty());
    }

    #[test]
    fn keep_preferred_on_genuine_ties() {
        // Two equal-magnitude sibling coefficients and budget for one: both
        // choices give the same optimal max absolute error; the engines
        // must spend the budget rather than return an empty synopsis.
        let data = vec![1.0, -1.0, 1.0, -1.0];
        // W = [0, 0, 1, 1]: c_2 and c_3 are interchangeable for B = 1.
        let solver = MinMaxErr::new(&data).unwrap();
        let r = solver.run(1, ErrorMetric::absolute());
        assert_eq!(r.synopsis.len(), 1, "tie must be broken towards keep");
        assert!((r.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prop33_lower_bound_max_dropped_coefficient() {
        // Proposition 3.3: any synopsis has max absolute error >= the
        // largest dropped |coefficient|; the optimum must respect it too.
        let data: Vec<f64> = (0..16).map(|i| f64::from((i * 13 + 5) % 17)).collect();
        let solver = MinMaxErr::new(&data).unwrap();
        for b in 0..8 {
            let r = solver.run(b, ErrorMetric::absolute());
            let max_dropped = (0..16)
                .filter(|&j| !r.synopsis.retains(j))
                .map(|j| solver.tree().coeff(j).abs())
                .fold(0.0f64, f64::max);
            assert!(
                r.objective >= max_dropped - 1e-9,
                "b={b}: objective {} < max dropped {max_dropped}",
                r.objective
            );
        }
    }
}
