//! Stout's optimal b-bucket L∞ step-function DP, with the
//! monotone/binary-search split speedup as a certified twin of the
//! exhaustive scan.
//!
//! `E[j][i]` = the best achievable maximum fit error covering the first
//! `i` items with at most `j` buckets:
//!
//! ```text
//! E[j][i] = min_{0 ≤ m < i} max(E[j−1][m], cost(m, i−1))
//! ```
//!
//! Two structural facts make the binary-search speedup *exact* rather
//! than approximate, both holding bit-for-bit because every cost is a
//! max over a finite candidate set (see `cost.rs`) and every `E` entry
//! is a min/max over such values:
//!
//! * `E[j−1][m]` is nondecreasing in `m` — a cover of a longer prefix
//!   restricts to a cover of a shorter one with no bucket's candidate
//!   set growing;
//! * `cost(m, i−1)` is nonincreasing in `m` — shrinking a bucket only
//!   shrinks its candidate set.
//!
//! So `max(E[j−1][m], cost(m, i−1))` is the max of a nondecreasing and
//! a nonincreasing sequence: the minimum sits where they cross, and the
//! only candidates are the first `m₀` with `E[j−1][m₀] ≥ cost(m₀, i−1)`
//! and its left neighbor. [`SplitStrategy::Binary`] evaluates exactly
//! those two; [`SplitStrategy::Exhaustive`] scans every `m`. The two
//! must agree on every objective bit *and* on the partition — both run
//! the same leftmost reconstruction scan over the (identical) `E`
//! table — which the conformance harness re-certifies on every corpus
//! instance.

use wsyn_core::WsynError;

use crate::cost::{fit, zero_objective, Costs};
use crate::{Bucket, StepSynopsis};

/// How the DP searches for each state's best split point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// Binary-search the crossing of the two monotone halves and
    /// evaluate only its two candidates (`O(log n)` probes per state).
    #[default]
    Binary,
    /// Scan every split point (`O(n)` per state) — the refutation twin
    /// the binary strategy is certified against.
    Exhaustive,
}

impl SplitStrategy {
    /// Stable identifier (`binary` / `exhaustive`).
    #[must_use]
    pub fn id(&self) -> &'static str {
        match self {
            SplitStrategy::Binary => "binary",
            SplitStrategy::Exhaustive => "exhaustive",
        }
    }
}

/// The result of one histogram solve.
#[derive(Debug, Clone)]
pub struct HistRun {
    /// The optimal step-function synopsis (leftmost-canonical
    /// partition).
    pub synopsis: StepSynopsis,
    /// The optimal maximum fit error — a guarantee, and bit-certified
    /// against the enumeration oracle on small instances.
    pub objective: f64,
    /// Bucket-cost oracle queries served (the solver's work counter).
    pub cost_evals: usize,
}

fn validate(data: &[f64], denoms: Option<&[f64]>) -> Result<(), WsynError> {
    if data.is_empty() {
        return Err(WsynError::invalid("hist: data must be non-empty"));
    }
    if data.iter().any(|d| !d.is_finite()) {
        return Err(WsynError::invalid("hist: data must be finite"));
    }
    if let Some(den) = denoms {
        if den.len() != data.len() {
            return Err(WsynError::invalid(format!(
                "hist: {} denominators for {} items",
                den.len(),
                data.len()
            )));
        }
        if den.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
            return Err(WsynError::invalid(
                "hist: denominators must be positive and finite",
            ));
        }
    }
    Ok(())
}

/// Builds the optimal at-most-`budget`-bucket step function for `data`
/// under per-item error denominators `denoms` (`None` ⇒ uniform, the
/// absolute metric; `Some` ⇒ `|d_i − v| / r_i`, e.g. the relative
/// metric's `max{|d_i|, s}`).
///
/// `budget = 0` returns the empty synopsis (reconstructing `0.0`
/// everywhere) with the measured zero-reconstruction objective,
/// mirroring the wavelet solvers' convention.
///
/// # Errors
/// Empty or non-finite data, or mismatched/non-positive denominators.
pub fn solve(
    data: &[f64],
    denoms: Option<&[f64]>,
    budget: usize,
    split: SplitStrategy,
) -> Result<HistRun, WsynError> {
    validate(data, denoms)?;
    let n = data.len();
    if budget == 0 {
        return Ok(HistRun {
            synopsis: StepSynopsis::empty(n),
            objective: zero_objective(data, denoms),
            cost_evals: 0,
        });
    }
    let b_eff = budget.min(n);
    let width = n + 1;
    let mut costs = Costs::new(data, denoms);

    // Flat (b_eff + 1) × (n + 1) table; row 0 is the no-buckets row
    // (feasible only for the empty prefix).
    let mut table = vec![f64::INFINITY; (b_eff + 1) * width];
    for j in 0..=b_eff {
        table[j * width] = 0.0;
    }
    for i in 1..=n {
        let end = i - 1;
        costs.advance_to(end);
        for j in 1..=b_eff {
            let (prev_rows, row) = table.split_at_mut(j * width);
            let prev = &prev_rows[(j - 1) * width..];
            row[i] = match split {
                SplitStrategy::Exhaustive => {
                    let mut best = f64::INFINITY;
                    for (m, &p) in prev.iter().enumerate().take(i) {
                        let cand = p.max(costs.cost(m, end));
                        if cand < best {
                            best = cand;
                        }
                    }
                    best
                }
                SplitStrategy::Binary => {
                    // Leftmost m with E[j−1][m] ≥ cost(m, end). The
                    // predicate is monotone in m and true at m = i−1
                    // (a singleton bucket costs 0), so m₀ exists.
                    let (mut lo, mut hi) = (0usize, i - 1);
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        if prev[mid] >= costs.cost(mid, end) {
                            hi = mid;
                        } else {
                            lo = mid + 1;
                        }
                    }
                    let m0 = lo;
                    let mut best = prev[m0].max(costs.cost(m0, end));
                    if m0 > 0 {
                        best = best.min(prev[m0 - 1].max(costs.cost(m0 - 1, end)));
                    }
                    best
                }
            };
        }
    }
    let objective = table[b_eff * width + n];

    // Shared leftmost reconstruction: both split strategies (whose E
    // tables are bit-identical) walk the same scan, so their partitions
    // cannot diverge even across exact cost ties.
    let mut starts_rev: Vec<usize> = Vec::new();
    let (mut i, mut j) = (n, b_eff);
    while i > 0 {
        if j == 0 {
            return Err(WsynError::invalid(
                "hist: internal error — reconstruction ran out of buckets",
            ));
        }
        let target = table[j * width + i];
        let end = i - 1;
        costs.advance_to(end);
        let prev = &table[(j - 1) * width..j * width];
        let mut found = None;
        for (m, &p) in prev.iter().enumerate().take(i) {
            let cand = p.max(costs.cost(m, end));
            if cand.to_bits() == target.to_bits() {
                found = Some(m);
                break;
            }
        }
        let Some(m) = found else {
            return Err(WsynError::invalid(
                "hist: internal error — reconstruction lost the optimum",
            ));
        };
        starts_rev.push(m);
        i = m;
        j -= 1;
    }

    let mut buckets = Vec::with_capacity(starts_rev.len());
    let mut bucket_end = n; // exclusive
    let mut achieved = 0.0f64;
    for &start in &starts_rev {
        let (cost, value) = fit(data, denoms, start, bucket_end - 1);
        // Near `f64::MAX` a weighted cost (a difference past MAX over
        // small denominators) or a band edge `d_i ± cost·r_i` can still
        // overflow: refuse such a bucket rather than publish it.
        if !(cost.is_finite() && value.is_finite()) {
            return Err(WsynError::invalid(format!(
                "hist: the fit of bucket [{start}, {bucket_end}) overflows f64 \
                 (cost {cost}, value {value}); data this close to f64::MAX \
                 cannot be certified under this metric"
            )));
        }
        achieved = achieved.max(cost);
        buckets.push(Bucket { start, value });
        bucket_end = start;
    }
    buckets.reverse();
    debug_assert_eq!(
        achieved.to_bits(),
        objective.to_bits(),
        "bucket costs must reproduce the DP objective"
    );
    Ok(HistRun {
        synopsis: StepSynopsis::from_buckets(n, buckets)?,
        objective,
        cost_evals: costs.evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize, seed: u64) -> Vec<f64> {
        // Integer-valued (dyadic-exact) deterministic data.
        (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(seed.wrapping_mul(1_442_695_040_888_963_407));
                f64::from(((x >> 33) % 41) as u32) - 20.0
            })
            .collect()
    }

    fn denoms(d: &[f64]) -> Vec<f64> {
        d.iter().map(|v| v.abs().max(1.0)).collect()
    }

    #[test]
    fn binary_and_exhaustive_are_bit_identical_twins() {
        for seed in 0..4u64 {
            for n in [1usize, 2, 3, 7, 16, 33, 50] {
                let d = data(n, seed);
                let den = denoms(&d);
                for denoms in [None, Some(&den[..])] {
                    for b in 0..=(n + 2) {
                        let fast = solve(&d, denoms, b, SplitStrategy::Binary).unwrap();
                        let slow = solve(&d, denoms, b, SplitStrategy::Exhaustive).unwrap();
                        assert_eq!(
                            fast.objective.to_bits(),
                            slow.objective.to_bits(),
                            "n={n} b={b} seed={seed} weighted={}",
                            denoms.is_some()
                        );
                        assert_eq!(
                            fast.synopsis, slow.synopsis,
                            "n={n} b={b} seed={seed}: partitions must match"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_weights_reproduce_the_absolute_fast_path() {
        let d = data(40, 9);
        let ones = vec![1.0; d.len()];
        for b in 0..=12 {
            let fast = solve(&d, None, b, SplitStrategy::Binary).unwrap();
            let weighted = solve(&d, Some(&ones), b, SplitStrategy::Binary).unwrap();
            assert_eq!(fast.objective.to_bits(), weighted.objective.to_bits());
            assert_eq!(fast.synopsis, weighted.synopsis);
        }
    }

    #[test]
    fn objective_is_monotone_in_the_budget() {
        let d = data(48, 3);
        let den = denoms(&d);
        for denoms in [None, Some(&den[..])] {
            let mut prev = f64::INFINITY;
            for b in 0..=d.len() {
                let run = solve(&d, denoms, b, SplitStrategy::Binary).unwrap();
                assert!(
                    run.objective <= prev,
                    "b={b}: {} > previous {prev}",
                    run.objective
                );
                prev = run.objective;
            }
            assert_eq!(prev, 0.0, "a bucket per item fits exactly");
        }
    }

    #[test]
    fn plateaus_with_at_most_b_segments_fit_exactly() {
        // The family race's shape claim: a step signal with no more
        // segments than buckets is represented with zero error.
        let d = wsyn_datagen::piecewise_constant(1024, 8, (1.0, 600.0), 0.0, 23);
        for b in [8, 32] {
            let run = solve(&d, None, b, SplitStrategy::Binary).unwrap();
            assert_eq!(run.objective, 0.0, "b={b}");
            assert_eq!(run.synopsis.reconstruct(), d, "b={b}");
        }
    }

    #[test]
    fn objective_is_the_achieved_error_on_integer_data() {
        // Absolute metric, integer data: midpoints and half-ranges are
        // dyadic-exact, so the guarantee is an equality, bit for bit.
        let d = data(32, 5);
        for b in 0..=8 {
            let run = solve(&d, None, b, SplitStrategy::Binary).unwrap();
            let recon = run.synopsis.reconstruct();
            let measured = d
                .iter()
                .zip(&recon)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max);
            assert_eq!(measured.to_bits(), run.objective.to_bits(), "b={b}");
        }
    }

    #[test]
    fn weighted_guarantee_holds_within_float_slack() {
        let d = data(40, 11);
        let den = denoms(&d);
        for b in 0..=10 {
            let run = solve(&d, Some(&den), b, SplitStrategy::Binary).unwrap();
            let recon = run.synopsis.reconstruct();
            let measured = d
                .iter()
                .zip(&recon)
                .enumerate()
                .map(|(i, (x, y))| (x - y).abs() / den[i])
                .fold(0.0f64, f64::max);
            assert!(
                measured <= run.objective + 1e-9,
                "b={b}: measured {measured} vs objective {}",
                run.objective
            );
        }
    }

    #[test]
    fn degenerate_budgets() {
        let d = data(16, 1);
        let zero = solve(&d, None, 0, SplitStrategy::Binary).unwrap();
        assert!(zero.synopsis.is_empty());
        assert_eq!(zero.objective, d.iter().fold(0.0f64, |m, v| m.max(v.abs())));
        let full = solve(&d, None, 99, SplitStrategy::Binary).unwrap();
        assert_eq!(full.objective, 0.0);
        assert_eq!(full.synopsis.len(), d.len());
        assert_eq!(full.synopsis.reconstruct(), d);
    }

    /// Data near `f64::MAX`: a bucket spanning `MAX` and `-MAX` has a
    /// range past `f64::MAX`, and relative-error denominator sums
    /// overflow. Both metrics still certify the true objective: the
    /// absolute one fits that bucket at half-range `MAX` around 0, and
    /// the relative one reaches 1 (opposite signs) or the true ratio
    /// instead of the `0` an overflowed sum would give.
    #[test]
    fn data_near_max_is_certified_at_its_true_objective() {
        let max = f64::MAX;
        let realized = |d: &[f64], den: Option<&[f64]>, run: &HistRun| {
            d.iter()
                .zip(run.synopsis.reconstruct())
                .enumerate()
                .map(|(i, (x, v))| (x - v).abs() / den.map_or(1.0, |r| r[i]))
                .fold(0.0f64, f64::max)
        };
        let d = [max, -max, max, 0.0];
        let den: Vec<f64> = d.iter().map(|v| v.abs().max(1.0)).collect();
        for split in [SplitStrategy::Binary, SplitStrategy::Exhaustive] {
            for b in [1, 2] {
                let run = solve(&d, None, b, split).unwrap();
                assert_eq!(run.objective, max, "abs b={b}");
                assert_eq!(realized(&d, None, &run), max, "abs b={b}");
            }
            for b in [1, 2, 3] {
                let run = solve(&d, Some(&den), b, split).unwrap();
                assert_eq!(run.objective, 1.0, "rel b={b}");
                assert_eq!(realized(&d, Some(&den), &run), 1.0, "rel b={b}");
            }
            // One bucket over two same-sign values whose denominators
            // sum past MAX: the cost is their true ratio 1/19, not 0.
            let d = [max, 0.9 * max];
            let den = [max, 0.9 * max];
            let run = solve(&d, Some(&den), 1, split).unwrap();
            assert!(
                (run.objective - 1.0 / 19.0).abs() < 1e-12,
                "{}",
                run.objective
            );
            assert!(realized(&d, Some(&den), &run) <= run.objective * (1.0 + 1e-12));
        }
        // A difference past MAX over denominators no metric produces has
        // no finite cost: a typed refusal that names the overflow.
        let err = solve(&[max, -max], Some(&[0.5, 0.5]), 1, SplitStrategy::Binary).unwrap_err();
        assert!(
            matches!(&err, WsynError::Invalid(m) if m.contains("overflows f64")),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(solve(&[], None, 2, SplitStrategy::Binary).is_err());
        assert!(solve(&[1.0, f64::NAN], None, 1, SplitStrategy::Binary).is_err());
        assert!(solve(&[1.0, 2.0], Some(&[1.0]), 1, SplitStrategy::Binary).is_err());
        assert!(solve(&[1.0, 2.0], Some(&[1.0, 0.0]), 1, SplitStrategy::Binary).is_err());
        assert!(solve(&[1.0, 2.0], Some(&[1.0, -3.0]), 1, SplitStrategy::Binary).is_err());
    }
}
