//! # wsyn-hist — optimal L∞ step-function (histogram) synopses
//!
//! The classic rival to wavelet synopses for maximum-error AQP: the
//! optimal at-most-`b`-bucket step-function approximation under an L∞
//! objective, after *Stout, "An Algorithm for L∞ Approximation by Step
//! Functions"*. The solver is an exact interval DP with the
//! monotone-matrix/binary-search split speedup, generalized to
//! per-item error denominators so the workspace's relative metric
//! (`|d_i − v| / max{|d_i|, s}`) maps onto the same machinery.
//!
//! * [`StepSynopsis`] — the synopsis: at most `b` constant buckets
//!   tiling `[0, n)`; the empty synopsis reconstructs `0.0` everywhere
//!   (the wavelet solvers' `B = 0` convention). It answers point queries
//!   in `O(log b)` and range sums and averages in `O(b)`.
//! * [`solve`] — the DP, with [`SplitStrategy::Binary`] (the `O(n log
//!   n)`-probe speedup) and [`SplitStrategy::Exhaustive`] (its
//!   refutation twin) certified bit-identical, objective *and*
//!   partition.
//! * [`oracle`] — a brute-force bucket-enumeration oracle for small-`n`
//!   certification of the DP's optimality.
//!
//! The crate is deliberately metric-agnostic (it knows denominators,
//! not `ErrorMetric`): the mapping from metrics to denominator arrays
//! and the `Thresholder` adapter live in `wsyn-synopsis`, which keeps
//! this crate a pure algorithm layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

use wsyn_core::WsynError;

mod cost;
mod dp;
pub mod oracle;

pub use dp::{solve, HistRun, SplitStrategy};

/// One constant bucket: items `start ..` (up to the next bucket's
/// start, or `n`) reconstruct as `value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// First item index the bucket covers.
    pub start: usize,
    /// The constant the bucket reconstructs.
    pub value: f64,
}

/// A step-function synopsis: at most `b` constant buckets tiling
/// `[0, n)`, or no buckets at all (reconstructing `0.0` everywhere).
#[derive(Debug, Clone, PartialEq)]
pub struct StepSynopsis {
    n: usize,
    buckets: Vec<Bucket>,
}

impl StepSynopsis {
    /// The empty synopsis over a domain of `n` values.
    #[must_use]
    pub fn empty(n: usize) -> StepSynopsis {
        StepSynopsis {
            n,
            buckets: Vec::new(),
        }
    }

    /// Builds a synopsis from explicit buckets.
    ///
    /// # Errors
    /// A zero-size domain with buckets, a first bucket not starting at
    /// 0, starts out of order or out of range, or non-finite values.
    pub fn from_buckets(n: usize, buckets: Vec<Bucket>) -> Result<StepSynopsis, WsynError> {
        if let Some(first) = buckets.first() {
            if first.start != 0 {
                return Err(WsynError::invalid(format!(
                    "step synopsis must start at 0, got {}",
                    first.start
                )));
            }
        }
        for pair in buckets.windows(2) {
            if pair[1].start <= pair[0].start {
                return Err(WsynError::invalid(format!(
                    "bucket starts must strictly increase ({} then {})",
                    pair[0].start, pair[1].start
                )));
            }
        }
        if buckets.iter().any(|b| b.start >= n) || buckets.iter().any(|b| !b.value.is_finite()) {
            return Err(WsynError::invalid(
                "bucket starts must lie in [0, n) and values must be finite",
            ));
        }
        Ok(StepSynopsis { n, buckets })
    }

    /// Domain size.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of buckets (the space the synopsis occupies).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the synopsis holds no buckets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The buckets, in start order.
    #[must_use]
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// Approximate point query `d̂_i`: the covering bucket's constant, or
    /// `0.0` for the empty synopsis — `O(log b)` (bucket binary search).
    ///
    /// # Panics
    /// Panics when `i >= N`.
    #[must_use]
    pub fn point(&self, i: usize) -> f64 {
        let n = self.n;
        assert!(i < n, "point index {i} out of range (N = {n})");
        if self.buckets.is_empty() {
            return 0.0;
        }
        let k = self.buckets.partition_point(|b| b.start <= i);
        self.buckets[k - 1].value
    }

    /// `(start, end_exclusive, value)` for every bucket.
    pub fn spans(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.buckets.iter().enumerate().map(move |(k, b)| {
            let end = self.buckets.get(k + 1).map_or(self.n, |next| next.start);
            (b.start, end, b.value)
        })
    }

    /// Approximate range sum `Σ_{i ∈ range} d̂_i` — `O(b)`: each bucket
    /// contributes `value · |range ∩ bucket|`, the step analogue of the
    /// wavelet coefficient-overlap weights.
    ///
    /// # Panics
    /// Panics on an out-of-bounds range.
    #[must_use]
    pub fn range_sum(&self, range: Range<usize>) -> f64 {
        let n = self.n;
        assert!(range.end <= n, "range {range:?} out of bounds (N = {n})");
        if range.is_empty() {
            return 0.0;
        }
        self.spans()
            .map(|(start, end, value)| {
                let lo = range.start.max(start);
                let hi = range.end.min(end);
                value * hi.saturating_sub(lo) as f64
            })
            .sum()
    }

    /// Approximate range average.
    ///
    /// # Panics
    /// Panics on an empty or out-of-bounds range.
    #[must_use]
    pub fn range_avg(&self, range: Range<usize>) -> f64 {
        assert!(!range.is_empty(), "empty range");
        let len = (range.end - range.start) as f64;
        self.range_sum(range) / len
    }

    /// Materializes the full approximation.
    #[must_use]
    pub fn reconstruct(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        for (start, end, value) in self.spans() {
            for slot in &mut out[start..end] {
                *slot = value;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_synopsis_reconstructs_zero() {
        let s = StepSynopsis::empty(5);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.reconstruct(), vec![0.0; 5]);
        assert_eq!(s.point(4), 0.0);
    }

    #[test]
    fn point_matches_reconstruct() {
        let s = StepSynopsis::from_buckets(
            7,
            vec![
                Bucket {
                    start: 0,
                    value: 2.5,
                },
                Bucket {
                    start: 3,
                    value: -1.0,
                },
                Bucket {
                    start: 6,
                    value: 9.0,
                },
            ],
        )
        .unwrap();
        assert_eq!(s.len(), 3);
        let recon = s.reconstruct();
        assert_eq!(recon, vec![2.5, 2.5, 2.5, -1.0, -1.0, -1.0, 9.0]);
        for (i, &v) in recon.iter().enumerate() {
            assert_eq!(s.point(i), v, "i={i}");
        }
        let spans: Vec<_> = s.spans().collect();
        assert_eq!(spans, vec![(0, 3, 2.5), (3, 6, -1.0), (6, 7, 9.0)]);
    }

    #[test]
    fn validation_rejects_malformed_buckets() {
        let b = |start, value| Bucket { start, value };
        assert!(StepSynopsis::from_buckets(4, vec![b(1, 0.0)]).is_err());
        assert!(StepSynopsis::from_buckets(4, vec![b(0, 0.0), b(0, 1.0)]).is_err());
        assert!(StepSynopsis::from_buckets(4, vec![b(0, 0.0), b(4, 1.0)]).is_err());
        assert!(StepSynopsis::from_buckets(4, vec![b(0, f64::NAN)]).is_err());
        assert!(StepSynopsis::from_buckets(4, vec![b(0, 1.0), b(2, 3.0)]).is_ok());
    }

    fn sawtooth() -> Vec<f64> {
        (0..16).map(|i| f64::from((i * 5 + 2) % 11) - 5.0).collect()
    }

    #[test]
    fn point_queries_stay_within_the_objective() {
        let data = sawtooth();
        let run = solve(&data, None, 4, SplitStrategy::Binary).unwrap();
        for (i, &d) in data.iter().enumerate() {
            assert!(
                (run.synopsis.point(i) - d).abs() <= run.objective + 1e-12,
                "i={i}"
            );
        }
    }

    #[test]
    fn range_aggregates_match_the_reconstruction() {
        let syn = solve(&sawtooth(), None, 4, SplitStrategy::Binary)
            .unwrap()
            .synopsis;
        let recon = syn.reconstruct();
        for lo in 0..16usize {
            for hi in lo..=16 {
                let truth: f64 = recon[lo..hi].iter().sum();
                let est = syn.range_sum(lo..hi);
                assert!((est - truth).abs() < 1e-9, "[{lo}, {hi}): {est} vs {truth}");
                if hi > lo {
                    assert!((syn.range_avg(lo..hi) - truth / (hi - lo) as f64).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn empty_synopsis_answers_zero() {
        let syn = StepSynopsis::empty(8);
        assert_eq!(syn.point(3), 0.0);
        assert_eq!(syn.range_sum(0..8), 0.0);
    }
}
