//! # wsyn-prob — probabilistic wavelet synopses (comparison baselines)
//!
//! The probabilistic-thresholding schemes of *Garofalakis & Gibbons*
//! (SIGMOD 2002 / TODS 2004) that the PODS 2004 paper supersedes with
//! deterministic guarantees. They are implemented here so the comparison
//! study the paper defers to future work ("we are currently implementing
//! our techniques…") can actually run — experiments E6–E8.
//!
//! ## The randomized-rounding construction
//!
//! Each non-zero coefficient `c_i` is assigned *fractional storage*
//! `y_i ∈ {0} ∪ (0, 1]` with `Σ y_i ≤ B`. The synopsis is then drawn by
//! independent coin flips: coefficient `i` is retained **with probability
//! `y_i`**, and if retained it is stored as the *rounded value* `c_i / y_i`
//! — an unbiased estimator (`E[d̂_i] = d_i`). A coefficient with `y_i = 0`
//! is deterministically dropped.
//!
//! * The variance contributed by coefficient `i` is `c_i²(1/y_i − 1)`
//!   (`c_i²` if dropped, counting its deterministic squared error).
//! * **MinRelVar** chooses the `y_i` to minimize the *maximum normalized
//!   standard error* `max_k sqrt(Σ_{j ∈ path(k)} σ²_j) / max{|d_k|, s}`.
//! * **MinRelBias** deterministically rounds which coefficients to drop so
//!   as to minimize the *maximum normalized bias*
//!   `max_k (Σ_{dropped j ∈ path(k)} |c_j|) / max{|d_k|, s}`.
//!
//! ## Faithfulness note (documented deviation)
//!
//! GG's original DP quantizes the fractional-space allotment of whole
//! *subtrees*; ours keeps their fractional-storage quantization
//! (`y ∈ {0, 1/q, …, q/q}`) and their objectives, but conditions subtrees
//! on the (geometrically quantized) *incoming* variance/bias — the same
//! state the PODS'04 paper uses for its deterministic DPs. The objective
//! minimized is GG's; only the tabulation differs. This preserves the
//! baseline's qualitative behaviour — in particular the coin-flip variance
//! that experiment E8 measures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use wsyn_core::{is_zero, narrow_u32, pack_state_1d, DpStats, StateTable};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsyn_core::WsynError;
use wsyn_haar::{ErrorTree1d, HaarError};
use wsyn_synopsis::thresholder::{AnySynopsis, RunParams, ThresholdRun, Thresholder};
use wsyn_synopsis::{ErrorMetric, Synopsis1d};

/// Fractional-storage quantization the baselines use when driven
/// through the [`Thresholder`] interface (E6's setting).
pub const DEFAULT_Q: usize = 6;

/// Registry descriptors for the probabilistic families, for assembly
/// into the canonical synopsis-family registry (`wsyn_serve::registry`).
#[must_use]
pub fn families() -> Vec<wsyn_synopsis::SynopsisFamily> {
    use wsyn_synopsis::family::{GuaranteeKind, MetricSupport, MINRELBIAS, MINRELVAR};
    vec![
        wsyn_synopsis::SynopsisFamily {
            id: MINRELVAR,
            summary: "probabilistic min-relative-variance wavelet baseline (GG, one seeded draw)",
            guarantee: GuaranteeKind::Measured,
            metrics: MetricSupport::RelativeOnly,
            build: |data| Ok(Box::new(MinRelVar::new(data)?)),
        },
        wsyn_synopsis::SynopsisFamily {
            id: MINRELBIAS,
            summary: "probabilistic min-relative-bias wavelet baseline (GG, one seeded draw)",
            guarantee: GuaranteeKind::Measured,
            metrics: MetricSupport::RelativeOnly,
            build: |data| Ok(Box::new(MinRelBias::new(data)?)),
        },
    ]
}

/// A fractional-storage assignment over the coefficients of a
/// one-dimensional error tree: the output of [`MinRelVar`] / [`MinRelBias`]
/// and the input to randomized rounding.
#[derive(Debug, Clone)]
pub struct ProbAssignment {
    n: usize,
    /// `(coefficient index, y ∈ (0,1], coefficient value)` for every
    /// coefficient with positive fractional storage.
    entries: Vec<(usize, f64, f64)>,
    /// Counters of the DP that produced this assignment.
    stats: DpStats,
}

impl ProbAssignment {
    /// Domain size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entries `(index, y, coefficient)` with `y > 0`, sorted by index.
    pub fn entries(&self) -> &[(usize, f64, f64)] {
        &self.entries
    }

    /// Expected synopsis size `Σ y_i` (≤ the budget `B` by construction).
    pub fn expected_space(&self) -> f64 {
        self.entries.iter().map(|&(_, y, _)| y).sum()
    }

    /// Instrumentation counters of the DP run that produced this
    /// assignment (same [`DpStats`] block as the deterministic solvers).
    pub fn dp_stats(&self) -> DpStats {
        self.stats
    }

    /// Draws one synopsis by independent biased coin flips: coefficient `i`
    /// is retained with probability `y_i` and stored as `c_i / y_i`.
    pub fn draw<R: Rng>(&self, rng: &mut R) -> Synopsis1d {
        let entries: Vec<(usize, f64)> = self
            .entries
            .iter()
            .filter(|&&(_, y, _)| rng.gen::<f64>() < y)
            .map(|&(j, y, c)| (j, c / y))
            .collect();
        Synopsis1d::from_entries(self.n, entries)
            // The entry domain was validated when the assignment was built.
            // wsyn: allow(no-panic)
            .expect("assignment domain validated at construction")
    }

    /// The maximum normalized standard error of this assignment —
    /// the quantity MinRelVar minimizes. `O(N log N)`.
    pub fn max_nse(&self, data: &[f64], sanity: f64) -> f64 {
        let var = self.per_coeff_sq(data.len());
        max_normalized_path_sum(data, sanity, &var, f64::sqrt)
    }

    /// Per-coefficient squared-error contribution: `c²(1/y − 1)` for
    /// assigned coefficients, `c²` for dropped non-zero coefficients.
    fn per_coeff_sq(&self, n: usize) -> Vec<f64> {
        // Build from the tree implied by the entries; dropped coefficients
        // are those absent from `entries` — the caller supplies data so we
        // can recompute the full coefficient array.
        let mut v = vec![f64::NAN; n];
        for &(j, y, c) in &self.entries {
            v[j] = c * c * (1.0 / y - 1.0);
        }
        v
    }
}

/// `max_k f(Σ_{j ∈ path(k)} contrib_j) / max{|d_k|, s}` over all leaves;
/// NaN contributions are filled from the freshly computed tree (dropped
/// coefficients contribute `c²` / `|c|` depending on the caller).
fn max_normalized_path_sum(data: &[f64], sanity: f64, contrib: &[f64], f: fn(f64) -> f64) -> f64 {
    // Callers pass the same data an ErrorTree1d was already built from.
    // wsyn: allow(no-panic)
    let tree = ErrorTree1d::from_data(data).expect("data validated upstream");
    let mut worst = 0.0f64;
    for (i, &d) in data.iter().enumerate() {
        let mut sum = 0.0;
        for (j, _) in tree.path_iter(i) {
            let c = tree.coeff(j);
            if is_zero(c) {
                continue;
            }
            let x = contrib[j];
            sum += if x.is_nan() { c * c } else { x };
        }
        let nse = f(sum) / d.abs().max(sanity);
        worst = worst.max(nse);
    }
    worst
}

/// Geometric rounding grid for non-negative accumulated variance/bias
/// values — keeps the DP state space polynomial, mirroring §3.2.1's
/// breakpoint idea. Values below `f64::MIN_POSITIVE` round to zero.
fn round_grid(v: f64, eps: f64) -> f64 {
    debug_assert!(v >= 0.0 && eps > 0.0);
    if v <= 0.0 {
        return 0.0;
    }
    let k = (v.ln() / (1.0 + eps).ln()).floor();
    // Float→int after an explicit clamp into i32 range: saturating by
    // construction, and the grid exponent is meaningless beyond ±600.
    // wsyn: allow(lossy-cast)
    let k = k.clamp(-600.0, 600.0) as i32;
    (1.0 + eps).powi(k)
}

/// Shared driver: a DP over the error tree assigning quantized fractional
/// storage `u/q` per coefficient, minimizing the maximum over leaves of
/// `combine(accumulated)/norm_k`, where each coefficient adds
/// `contribution(c, u)` to the accumulated quantity along its path.
struct ProbDp<'a> {
    tree: &'a ErrorTree1d,
    denom: Vec<f64>,
    q: usize,
    grid_eps: f64,
    /// contribution(c, u): added to the path accumulator when the
    /// coefficient gets `u` quantization units.
    contribution: fn(f64, usize, usize) -> f64,
    /// combine: applied to the accumulated value at a leaf (sqrt for
    /// variance/NSE, identity for bias).
    combine: fn(f64) -> f64,
    /// Minimum units a *retained* coefficient may receive (retention
    /// probability lower bound `min_units/q`): caps the variance inflation
    /// `c²(1/y - 1)` of low-probability retention, mirroring GG's
    /// constraint on admissible rounding values.
    min_units: usize,
    memo: StateTable<(f64, u32, u32)>, // value, units here, left units
    leaf_evals: usize,
}

impl ProbDp<'_> {
    /// Minimum achievable objective in subtree `id` with `t` quantization
    /// units of fractional storage and accumulated incoming value `v`.
    fn solve(&mut self, id: usize, t: usize, v: f64) -> f64 {
        let n = self.tree.n();
        if id >= n {
            self.leaf_evals += 1;
            return (self.combine)(v) / self.denom[id - n];
        }
        let key = pack_state_1d(narrow_u32(id), narrow_u32(t), v.to_bits());
        if let Some(&(val, _, _)) = self.memo.get(key) {
            return val;
        }
        let c = self.tree.coeff(id);
        let umax = if is_zero(c) { 0 } else { self.q.min(t) };
        let mut best = (f64::INFINITY, 0u32, 0u32);
        let min_units = self.min_units;
        for u in (0..=umax).filter(move |&u| u == 0 || u >= min_units) {
            let vv = round_grid(v + (self.contribution)(c, u, self.q), self.grid_eps);
            let remaining = t - u;
            if id == 0 {
                let child = if n == 1 { n } else { 1 };
                let val = self.solve(child, remaining, vv);
                if val < best.0 {
                    best = (val, narrow_u32(u), narrow_u32(remaining));
                }
            } else {
                let (lc, rc) = (2 * id, 2 * id + 1);
                // The subtree table is non-increasing in its unit budget,
                // so the optimal split is at the crossover of the two
                // monotone child curves — binary search, as in §3.1.
                let (mut lo, mut hi) = (0usize, remaining);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if self.solve(lc, mid, vv) <= self.solve(rc, remaining - mid, vv) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                for tl in [lo, lo.saturating_sub(1)] {
                    let val = self
                        .solve(lc, tl, vv)
                        .max(self.solve(rc, remaining - tl, vv));
                    if val < best.0 {
                        best = (val, narrow_u32(u), narrow_u32(tl));
                    }
                }
            }
        }
        self.memo.insert(key, best);
        best.0
    }

    fn trace(&mut self, id: usize, t: usize, v: f64, out: &mut Vec<(usize, f64)>) {
        let n = self.tree.n();
        if id >= n {
            return;
        }
        let key = pack_state_1d(narrow_u32(id), narrow_u32(t), v.to_bits());
        // Trace replays decisions along states solve() materialized.
        // wsyn: allow(no-panic)
        let &(_, u, tl) = self.memo.get(key).expect("trace visits only solved states");
        let (u, tl) = (u as usize, tl as usize);
        let c = self.tree.coeff(id);
        if u > 0 {
            out.push((id, u as f64 / self.q as f64));
        }
        let vv = round_grid(v + (self.contribution)(c, u, self.q), self.grid_eps);
        let remaining = t - u;
        if id == 0 {
            let child = if n == 1 { n } else { 1 };
            self.trace(child, remaining, vv, out);
        } else {
            let (lc, rc) = (2 * id, 2 * id + 1);
            self.trace(lc, tl, vv, out);
            self.trace(rc, remaining - tl, vv, out);
        }
    }
}

#[allow(clippy::too_many_arguments)] // internal driver shared by two schemes
fn run_prob_dp(
    tree: &ErrorTree1d,
    data: &[f64],
    b: usize,
    q: usize,
    sanity: f64,
    contribution: fn(f64, usize, usize) -> f64,
    combine: fn(f64) -> f64,
    min_units: usize,
) -> ProbAssignment {
    assert!(q >= 1, "quantization q must be at least 1");
    assert!(sanity > 0.0, "sanity bound must be positive");
    let denom: Vec<f64> = data.iter().map(|&d| d.abs().max(sanity)).collect();
    let mut dp = ProbDp {
        tree,
        denom,
        q,
        grid_eps: 0.02,
        contribution,
        combine,
        min_units,
        memo: StateTable::new(),
        leaf_evals: 0,
    };
    let total_units = b * q;
    let _ = dp.solve(0, total_units, 0.0);
    let mut ys = Vec::new();
    dp.trace(0, total_units, 0.0, &mut ys);
    let entries = ys.into_iter().map(|(j, y)| (j, y, tree.coeff(j))).collect();
    let stats = DpStats {
        states: dp.memo.len(),
        leaf_evals: dp.leaf_evals,
        probes: dp.memo.probes(),
        // Insert-only memo: final size == peak resident entries.
        peak_live: dp.memo.len(),
    };
    ProbAssignment {
        n: tree.n(),
        entries,
        stats,
    }
}

/// The MinRelVar probabilistic-thresholding baseline: assigns fractional
/// storage minimizing the maximum normalized standard error.
pub struct MinRelVar {
    tree: ErrorTree1d,
    data: Vec<f64>,
}

impl MinRelVar {
    /// Builds the solver from raw data.
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

    /// Computes the fractional-storage assignment for budget `b`, with
    /// fractional storage quantized to multiples of `1/q` and relative
    /// error sanity bound `sanity`. A budget past `N` is clamped to `N`:
    /// no coefficient's storage exceeds 1, and the DP's unit budget `b·q`
    /// must stay a table index.
    pub fn assign(&self, b: usize, q: usize, sanity: f64) -> ProbAssignment {
        run_prob_dp(
            &self.tree,
            &self.data,
            b.min(self.data.len()),
            q,
            sanity,
            // Variance contribution: c²(1/y − 1); dropped -> c².
            |c, u, q| {
                if u == 0 {
                    c * c
                } else {
                    let y = u as f64 / q as f64;
                    c * c * (1.0 / y - 1.0)
                }
            },
            f64::sqrt,
            1,
        )
    }
}

/// The MinRelBias probabilistic-thresholding baseline: assigns fractional
/// storage minimizing the maximum normalized bias of the reconstruction.
pub struct MinRelBias {
    tree: ErrorTree1d,
    data: Vec<f64>,
}

impl MinRelBias {
    /// Builds the solver from raw data.
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

    /// Computes the fractional-storage assignment for budget `b`
    /// (quantization `1/q`, sanity bound `sanity`), minimizing maximum
    /// normalized bias: dropped coefficients contribute `|c|`, assigned
    /// ones are unbiased. A budget past `N` is clamped to `N`, as in
    /// [`MinRelVar::assign`]; the DP and the leftover top-up both spend
    /// `b·q` units.
    pub fn assign(&self, b: usize, q: usize, sanity: f64) -> ProbAssignment {
        let b = b.min(self.data.len());
        let a = run_prob_dp(
            &self.tree,
            &self.data,
            b,
            q,
            sanity,
            |c, u, _q| if u == 0 { c.abs() } else { 0.0 },
            |x| x,
            // Bias can be zeroed by arbitrarily small retention
            // probabilities, which explodes the drawn-value variance
            // (stored value c/y); require y >= 1/2 for retained
            // coefficients, keeping per-coefficient variance <= c².
            q.div_ceil(2),
        );
        // The bias objective is indifferent between y = 1/2 and y = 1, so
        // the DP may leave budget on the table; spend the remainder
        // raising retention probabilities where it cuts the most variance
        // (GG's construction likewise uses the full space).
        let total_units = b * q;
        let mut used: usize = a
            .entries
            .iter()
            .map(|&(_, y, _)| (y * q as f64).round() as usize)
            .sum();
        let mut units: Vec<(usize, usize, f64)> = a
            .entries
            .iter()
            .map(|&(j, y, c)| (j, (y * q as f64).round() as usize, c))
            .collect();
        while used < total_units {
            let best = units.iter_mut().filter(|(_, u, _)| *u < q).max_by(|x, y2| {
                let gain = |e: &(usize, usize, f64)| {
                    e.2 * e.2 * q as f64 * (1.0 / e.1 as f64 - 1.0 / (e.1 + 1) as f64)
                };
                gain(x).total_cmp(&gain(y2))
            });
            match best {
                Some(e) => e.1 += 1,
                None => break,
            }
            used += 1;
        }
        ProbAssignment {
            n: a.n,
            entries: units
                .into_iter()
                .map(|(j, u, c)| (j, u as f64 / q as f64, c))
                .collect(),
            stats: a.stats,
        }
    }
}

/// Drives a probabilistic baseline through the uniform [`Thresholder`]
/// interface: computes the fractional-storage assignment with the
/// quantization [`DEFAULT_Q`] and draws **one** synopsis with a fixed seed, so
/// repeated calls are deterministic. The reported objective is the
/// measured maximum error of that draw (these baselines guarantee nothing
/// about the maximum error — the point of the comparison).
fn run_via_assignment(
    data: &[f64],
    assign: impl Fn(usize, usize, f64) -> ProbAssignment,
    params: &RunParams,
    name: &'static str,
) -> Result<ThresholdRun, WsynError> {
    let ErrorMetric::Relative { sanity } = params.metric else {
        return Err(WsynError::unsupported(
            name,
            "minimizes relative-error objectives only (use --metric rel:S)",
        ));
    };
    let _run = params.obs.span(name);
    let a = {
        let _assign = params.obs.span("assign_dp");
        let a = assign(params.budget, DEFAULT_Q, sanity);
        params.obs.record_dp_stats(&a.dp_stats());
        a
    };
    let synopsis = {
        let _draw = params.obs.span("rounding_draw");
        let mut rng = StdRng::seed_from_u64(0);
        a.draw(&mut rng)
    };
    params.obs.add("retained", synopsis.len());
    let objective = synopsis.max_error(data, params.metric);
    Ok(ThresholdRun {
        synopsis: AnySynopsis::One(synopsis),
        objective,
        stats: a.dp_stats(),
    })
}

impl Thresholder for MinRelVar {
    fn name(&self) -> &'static str {
        "minrelvar"
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        run_via_assignment(
            &self.data,
            |b, q, s| self.assign(b, q, s),
            params,
            "minrelvar",
        )
    }
}

impl Thresholder for MinRelBias {
    fn name(&self) -> &'static str {
        "minrelbias"
    }

    fn threshold_with(&self, params: &RunParams) -> Result<ThresholdRun, WsynError> {
        run_via_assignment(
            &self.data,
            |b, q, s| self.assign(b, q, s),
            params,
            "minrelbias",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wsyn_synopsis::ErrorMetric;

    const EXAMPLE: [f64; 8] = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];

    #[test]
    fn expected_space_within_budget() {
        let mrv = MinRelVar::new(&EXAMPLE).unwrap();
        for b in 1..=5usize {
            let a = mrv.assign(b, 10, 1.0);
            assert!(
                a.expected_space() <= b as f64 + 1e-9,
                "b={b}: {}",
                a.expected_space()
            );
        }
    }

    #[test]
    fn full_budget_assigns_full_storage() {
        // With B = N every non-zero coefficient can get y = 1 and the NSE
        // becomes 0.
        let mrv = MinRelVar::new(&EXAMPLE).unwrap();
        let a = mrv.assign(8, 10, 1.0);
        assert!(a.max_nse(&EXAMPLE, 1.0) < 1e-12);
        for &(_, y, _) in a.entries() {
            assert_eq!(y, 1.0);
        }
        // Every draw is the exact synopsis.
        let mut rng = StdRng::seed_from_u64(7);
        let s = a.draw(&mut rng);
        assert_eq!(s.max_error(&EXAMPLE, ErrorMetric::absolute()), 0.0);
    }

    #[test]
    fn draw_is_unbiased_per_assigned_coefficient() {
        // Randomized rounding is unbiased coefficient-wise: for every entry
        // with y > 0, E[stored value · retention indicator] = c. (Dropped
        // coefficients — y = 0 — are deterministically biased; that is the
        // known weakness E8 measures.)
        let a = ProbAssignment {
            n: 8,
            entries: vec![(0, 0.5, 4.0), (1, 0.25, -2.0), (3, 1.0, 1.5)],
            stats: DpStats::default(),
        };
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 20000usize;
        let mut sums = [0.0f64; 8];
        for _ in 0..trials {
            let s = a.draw(&mut rng);
            for &(j, v) in s.entries() {
                sums[j] += v;
            }
        }
        for &(j, _, c) in a.entries() {
            let mean = sums[j] / trials as f64;
            assert!(
                (mean - c).abs() < 0.15 * (1.0 + c.abs()),
                "coefficient {j}: mean {mean} vs {c}"
            );
        }
    }

    #[test]
    fn nse_decreases_with_budget() {
        let data: Vec<f64> = (0..16).map(|i| f64::from((i * 7 + 1) % 11) + 1.0).collect();
        let mrv = MinRelVar::new(&data).unwrap();
        let mut prev = f64::INFINITY;
        for b in [1usize, 2, 4, 8, 16] {
            let nse = mrv.assign(b, 6, 1.0).max_nse(&data, 1.0);
            assert!(nse <= prev + 1e-9, "b={b}: {nse} vs {prev}");
            prev = nse;
        }
    }

    #[test]
    fn bias_assignment_spends_space_on_large_coefficients() {
        // One giant coefficient: MinRelBias must not drop it.
        let mut data = vec![1.0f64; 16];
        data[0] = 1000.0;
        let mrb = MinRelBias::new(&data).unwrap();
        let a = mrb.assign(2, 4, 1.0);
        let tree = ErrorTree1d::from_data(&data).unwrap();
        // Find the largest |coefficient| and check it received storage.
        let (jmax, _) = (0..16)
            .map(|j| (j, tree.coeff(j).abs()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert!(
            a.entries().iter().any(|&(j, y, _)| j == jmax && y > 0.0),
            "largest coefficient dropped by MinRelBias"
        );
    }

    #[test]
    fn fractional_draws_vary_across_seeds() {
        // A genuinely fractional assignment produces different synopses
        // under different coin flips — the instability the deterministic
        // scheme eliminates. (A DP assignment may legitimately be fully
        // integral, in which case every draw is identical; so we pin a
        // fractional one.)
        let data: Vec<f64> = (0..8).map(|i| f64::from((i * 13 + 3) % 19)).collect();
        let tree = ErrorTree1d::from_data(&data).unwrap();
        let entries: Vec<(usize, f64, f64)> = (0..8)
            .filter(|&j| tree.coeff(j) != 0.0)
            .map(|j| (j, 0.5, tree.coeff(j)))
            .collect();
        let a = ProbAssignment {
            n: 8,
            entries,
            stats: DpStats::default(),
        };
        let mut errors = std::collections::HashSet::new();
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = a.draw(&mut rng);
            errors.insert(s.max_error(&data, ErrorMetric::relative(1.0)).to_bits());
        }
        assert!(errors.len() > 1, "all draws identical?");
    }

    #[test]
    fn single_value_domain() {
        let mrv = MinRelVar::new(&[5.0]).unwrap();
        let a = mrv.assign(1, 4, 1.0);
        assert_eq!(a.entries().len(), 1);
        assert_eq!(a.entries()[0], (0, 1.0, 5.0));
    }

    #[test]
    fn budgets_past_n_assign_as_n() {
        let n = EXAMPLE.len();
        let mrv = MinRelVar::new(&EXAMPLE).unwrap();
        let mrb = MinRelBias::new(&EXAMPLE).unwrap();
        let fields = |a: &ProbAssignment| {
            let entries: Vec<_> = a
                .entries()
                .iter()
                .map(|&(j, y, c)| (j, y.to_bits(), c.to_bits()))
                .collect();
            (entries, a.dp_stats())
        };
        for b in [n + 1, 5_000_000_000] {
            assert_eq!(
                fields(&mrv.assign(b, DEFAULT_Q, 1.0)),
                fields(&mrv.assign(n, DEFAULT_Q, 1.0)),
                "minrelvar b={b}"
            );
            assert_eq!(
                fields(&mrb.assign(b, DEFAULT_Q, 1.0)),
                fields(&mrb.assign(n, DEFAULT_Q, 1.0)),
                "minrelbias b={b}"
            );
        }
    }

    #[test]
    fn zero_budget_assigns_nothing() {
        let mrv = MinRelVar::new(&EXAMPLE).unwrap();
        let a = mrv.assign(0, 8, 1.0);
        assert!(a.entries().is_empty());
        assert_eq!(a.expected_space(), 0.0);
    }
}
