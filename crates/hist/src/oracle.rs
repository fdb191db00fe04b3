//! Brute-force bucket-enumeration oracle for small-`n` certification.
//!
//! Enumerates **every** partition of `0..n` into at most `b` contiguous
//! buckets, fits each bucket exactly as the DP does (same
//! `cost::fit` float expressions), and keeps the best
//! objective. The conform harness certifies the DP against this on
//! every small instance: objectives must agree **bit-for-bit**, and the
//! DP's own partition must achieve that objective when re-fit
//! standalone.
//!
//! The partition count is `Σ_{k=1..min(b,n)} C(n−1, k−1)`; callers cap
//! it so the oracle declines (returns `Ok(None)`) rather than stalls on
//! instances where enumeration is infeasible.

use wsyn_core::WsynError;

use crate::cost::{fit, zero_objective};
use crate::{Bucket, StepSynopsis};

/// Partition-count cap used when callers have no tighter bound.
pub const DEFAULT_MAX_PARTITIONS: u64 = 250_000;

/// An exhaustively-certified optimum.
#[derive(Debug, Clone)]
pub struct OracleRun {
    /// An optimal synopsis found by enumeration (leftmost-lexicographic
    /// among optima is *not* guaranteed — certify objectives, not
    /// partitions).
    pub synopsis: StepSynopsis,
    /// The optimal max-error objective.
    pub objective: f64,
    /// Number of partitions enumerated.
    pub partitions: u64,
}

/// `C(n, k)` with saturating arithmetic.
fn choose(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc = 1u64;
    for i in 0..k {
        acc = acc.saturating_mul(n - i) / (i + 1);
    }
    acc
}

/// Total partitions of `n` items into `1..=b_eff` contiguous buckets.
fn partition_count(n: usize, b_eff: usize) -> u64 {
    let mut total = 0u64;
    for k in 1..=b_eff as u64 {
        total = total.saturating_add(choose(n as u64 - 1, k - 1));
    }
    total
}

/// Enumerates every at-most-`budget`-bucket partition and returns the
/// best, or `Ok(None)` when the partition count exceeds
/// `max_partitions`.
///
/// # Errors
/// Same input validation as [`crate::solve`]: empty or non-finite data,
/// mismatched or non-positive denominators.
pub fn enumerate(
    data: &[f64],
    denoms: Option<&[f64]>,
    budget: usize,
    max_partitions: u64,
) -> Result<Option<OracleRun>, WsynError> {
    if data.is_empty() {
        return Err(WsynError::invalid("hist oracle: data must be non-empty"));
    }
    if data.iter().any(|d| !d.is_finite()) {
        return Err(WsynError::invalid("hist oracle: data must be finite"));
    }
    if let Some(den) = denoms {
        if den.len() != data.len() {
            return Err(WsynError::invalid(
                "hist oracle: denominators must match data length",
            ));
        }
        if den.iter().any(|r| !r.is_finite() || *r <= 0.0) {
            return Err(WsynError::invalid(
                "hist oracle: denominators must be positive and finite",
            ));
        }
    }
    let n = data.len();
    if budget == 0 {
        return Ok(Some(OracleRun {
            synopsis: StepSynopsis::empty(n),
            objective: zero_objective(data, denoms),
            partitions: 0,
        }));
    }
    let b_eff = budget.min(n);
    if partition_count(n, b_eff) > max_partitions {
        return Ok(None);
    }

    let mut best_objective = f64::INFINITY;
    let mut best_starts: Vec<usize> = Vec::new();
    let mut starts: Vec<usize> = vec![0];
    let mut partitions = 0u64;

    // Depth-first over bucket start positions. `starts` always holds a
    // strictly increasing prefix beginning at 0; each leaf (a complete
    // partition) is scored bucket by bucket with early exit once the
    // running max exceeds the incumbent.
    fn descend(
        data: &[f64],
        denoms: Option<&[f64]>,
        b_eff: usize,
        starts: &mut Vec<usize>,
        best_objective: &mut f64,
        best_starts: &mut Vec<usize>,
        partitions: &mut u64,
    ) {
        let n = data.len();
        // Score the partition closed by `n`.
        *partitions += 1;
        let mut worst = 0.0f64;
        let mut alive = true;
        for (k, &s) in starts.iter().enumerate() {
            let e = starts.get(k + 1).copied().unwrap_or(n) - 1;
            let (cost, _) = fit(data, denoms, s, e);
            worst = worst.max(cost);
            if worst > *best_objective {
                alive = false;
                break;
            }
        }
        if alive && worst < *best_objective {
            *best_objective = worst;
            best_starts.clone_from(starts);
        }
        // Recurse: open one more bucket at every later position.
        if starts.len() < b_eff {
            // The recursion is seeded with `starts = [0]` and only ever
            // pushes, so the slice is never empty here.
            // wsyn: allow(no-panic)
            let last = *starts.last().expect("starts never empty");
            for next in (last + 1)..n {
                starts.push(next);
                descend(
                    data,
                    denoms,
                    b_eff,
                    starts,
                    best_objective,
                    best_starts,
                    partitions,
                );
                starts.pop();
            }
        }
    }
    descend(
        data,
        denoms,
        b_eff,
        &mut starts,
        &mut best_objective,
        &mut best_starts,
        &mut partitions,
    );

    let buckets: Vec<Bucket> = best_starts
        .iter()
        .enumerate()
        .map(|(k, &s)| {
            let e = best_starts.get(k + 1).copied().unwrap_or(n) - 1;
            let (_, value) = fit(data, denoms, s, e);
            Bucket { start: s, value }
        })
        .collect();
    Ok(Some(OracleRun {
        synopsis: StepSynopsis::from_buckets(n, buckets)?,
        objective: best_objective,
        partitions,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitStrategy;

    fn data(seed: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed.wrapping_mul(1442695040888963407));
                ((x >> 33) % 41) as f64 - 20.0
            })
            .collect()
    }

    #[test]
    fn partition_counting_is_exact() {
        assert_eq!(choose(7, 3), 35);
        assert_eq!(choose(3, 5), 0);
        // n = 5, b = 3: C(4,0) + C(4,1) + C(4,2) = 1 + 4 + 6.
        assert_eq!(partition_count(5, 3), 11);
        // Cap declines politely.
        let d = data(1, 40);
        assert!(enumerate(&d, None, 12, 10).unwrap().is_none());
    }

    #[test]
    fn oracle_certifies_the_dp_on_small_instances() {
        for seed in 0..3u64 {
            for n in [1usize, 2, 5, 9, 12] {
                let d = data(seed, n);
                let den: Vec<f64> = d.iter().map(|v| v.abs().max(1.0)).collect();
                for denoms in [None, Some(den.as_slice())] {
                    for b in 0..=n.min(6) {
                        let run = crate::solve(&d, denoms, b, SplitStrategy::Binary).unwrap();
                        let oracle = enumerate(&d, denoms, b, DEFAULT_MAX_PARTITIONS)
                            .unwrap()
                            .expect("within cap");
                        assert_eq!(
                            run.objective.to_bits(),
                            oracle.objective.to_bits(),
                            "seed={seed} n={n} b={b} weighted={}",
                            denoms.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_budget_reports_the_zero_reconstruction() {
        let d = data(7, 9);
        let run = enumerate(&d, None, 0, DEFAULT_MAX_PARTITIONS)
            .unwrap()
            .unwrap();
        assert!(run.synopsis.is_empty());
        assert_eq!(
            run.objective,
            d.iter().fold(0.0f64, |acc, v| acc.max(v.abs()))
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(enumerate(&[], None, 2, 100).is_err());
        assert!(enumerate(&[f64::NAN], None, 1, 100).is_err());
        assert!(enumerate(&[1.0, 2.0], Some(&[1.0]), 1, 100).is_err());
        assert!(enumerate(&[1.0], Some(&[0.0]), 1, 100).is_err());
    }
}
