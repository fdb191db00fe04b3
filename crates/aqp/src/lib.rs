//! # wsyn-aqp — approximate query processing over 1-D synopses
//!
//! The motivating application of the paper (§1): answer queries *directly
//! from the compact synopsis*, without touching the base data, and attach
//! meaningful per-answer guarantees — which is exactly what maximum-error
//! synopses enable and L2-optimized synopses do not.
//!
//! The synopsis types answer their own point, range-sum and range-average
//! queries (`Synopsis1d`, `SynopsisNd` and `StepSynopsis` each have
//! `point`, `range_sum` and `range_avg`). This crate adds what sits on
//! top of an answer:
//!
//! * [`AnySynopsis1d`] — the one type that dispatches between the two
//!   guarantee-providing 1-D families (wavelet coefficients and
//!   step-function buckets); the server's columns and the CLI's synopsis
//!   documents both hold it. [`AnySynopsis1d::answer`] is the one
//!   derivation of every [`Answer`] interval.
//! * [`bounds`] — deterministic per-answer intervals derived from a
//!   synopsis's guaranteed maximum error: absolute guarantees translate to
//!   `±E` bands, relative guarantees (with sanity bound `s`) to the exact
//!   interval of data values consistent with the estimate.
//! * [`SelectivityEstimator`] — the classic use case (Matias, Vitter &
//!   Wang): approximate range-selectivity over a column's frequency
//!   vector.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;

use std::ops::Range;

use wsyn_core::WsynError;
use wsyn_haar::HaarError;
use wsyn_hist::StepSynopsis;
use wsyn_synopsis::{AnySynopsis, ErrorMetric, Synopsis1d};

/// One query shape against a 1-D synopsis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryKind {
    /// Reconstructed value of `data[i]`.
    Point(usize),
    /// Reconstructed sum over `[lo, hi)`.
    RangeSum(usize, usize),
    /// Reconstructed mean over `[lo, hi)`.
    RangeAvg(usize, usize),
}

/// The answer to one query: the estimate, the conservative guarantee it
/// was answered under, and the guaranteed interval (when one is
/// derivable for the metric/query combination).
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    /// The synopsis estimate (`-0.0` normalized to `0.0`).
    pub est: f64,
    /// The conservative guarantee in force: the build-time objective
    /// plus the drift since.
    pub guarantee: f64,
    /// Guaranteed interval containing the true value, if derivable.
    pub interval: Option<bounds::Interval>,
}

/// A one-dimensional synopsis of either guarantee-providing family.
/// Both arms answer the same point/range workload;
/// [`AnySynopsis1d::answer`] derives intervals from `(estimate,
/// guarantee)` pairs alone and never cares which arm they came from.
#[derive(Debug, Clone, PartialEq)]
pub enum AnySynopsis1d {
    /// Retained wavelet coefficients (`minmax`, `greedy`, `stream`, …).
    Wavelet(Synopsis1d),
    /// Step-function buckets (`hist`).
    Histogram(StepSynopsis),
}

impl TryFrom<AnySynopsis> for AnySynopsis1d {
    type Error = WsynError;

    /// The 1-D synopsis a solver returned.
    ///
    /// # Errors
    /// [`WsynError::DimensionMismatch`] for a multi-dimensional synopsis.
    fn try_from(synopsis: AnySynopsis) -> Result<AnySynopsis1d, WsynError> {
        match synopsis {
            AnySynopsis::One(s) => Ok(AnySynopsis1d::Wavelet(s)),
            AnySynopsis::Histogram(s) => Ok(AnySynopsis1d::Histogram(s)),
            _ => Err(WsynError::dimension_mismatch("a 1-D query answer")),
        }
    }
}

impl AnySynopsis1d {
    /// Domain size `N`.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        match self {
            AnySynopsis1d::Wavelet(s) => s.n(),
            AnySynopsis1d::Histogram(s) => s.n(),
        }
    }

    /// Space used: retained coefficients or buckets.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            AnySynopsis1d::Wavelet(s) => s.len(),
            AnySynopsis1d::Histogram(s) => s.len(),
        }
    }

    /// Whether the synopsis retains nothing.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full approximate reconstruction.
    #[must_use]
    pub fn reconstruct(&self) -> Vec<f64> {
        match self {
            AnySynopsis1d::Wavelet(s) => s.reconstruct(),
            AnySynopsis1d::Histogram(s) => s.reconstruct(),
        }
    }

    /// Approximate point query `d̂_i`.
    ///
    /// # Panics
    /// Panics when `i >= N`.
    #[inline]
    #[must_use]
    pub fn point(&self, i: usize) -> f64 {
        match self {
            AnySynopsis1d::Wavelet(s) => s.point(i),
            AnySynopsis1d::Histogram(s) => s.point(i),
        }
    }

    /// Approximate range sum.
    ///
    /// # Panics
    /// Panics on an out-of-bounds range.
    #[inline]
    #[must_use]
    pub fn range_sum(&self, range: Range<usize>) -> f64 {
        match self {
            AnySynopsis1d::Wavelet(s) => s.range_sum(range),
            AnySynopsis1d::Histogram(s) => s.range_sum(range),
        }
    }

    /// Approximate range average.
    ///
    /// # Panics
    /// Panics on an empty or out-of-bounds range.
    #[inline]
    #[must_use]
    pub fn range_avg(&self, range: Range<usize>) -> f64 {
        match self {
            AnySynopsis1d::Wavelet(s) => s.range_avg(range),
            AnySynopsis1d::Histogram(s) => s.range_avg(range),
        }
    }

    /// The synopsis's retained positions: coefficient indices for the
    /// wavelet family, bucket start offsets for the histogram family.
    #[must_use]
    pub fn retained(&self) -> Vec<usize> {
        match self {
            AnySynopsis1d::Wavelet(s) => s.indices(),
            AnySynopsis1d::Histogram(s) => s.buckets().iter().map(|b| b.start).collect(),
        }
    }

    /// The wavelet synopsis, when this is one.
    #[inline]
    #[must_use]
    pub fn as_wavelet(&self) -> Option<&Synopsis1d> {
        match self {
            AnySynopsis1d::Wavelet(s) => Some(s),
            AnySynopsis1d::Histogram(_) => None,
        }
    }

    /// Answers `kind` under a build-time guarantee `objective` for
    /// `metric`, after `drift = Σ|δ|` of updates the synopsis has not
    /// seen. The one derivation of every answer interval:
    ///
    /// * point, absolute metric: `est ± (objective + drift)`;
    /// * point, relative metric: the relative hull at `objective`,
    ///   widened by `drift` on each side;
    /// * range sum, absolute metric: `est ± (objective + drift) · len`;
    /// * range sum under a relative metric, and range averages: no
    ///   interval (none is derivable from a per-value guarantee).
    ///
    /// Each is conservative under drift: the true value moved by at most
    /// `drift` since the build.
    ///
    /// # Errors
    /// An index or range outside the synopsis's domain.
    // Inlined so the server's query path makes no extra call across
    // crates (the workspace builds without LTO).
    #[inline]
    pub fn answer(
        &self,
        kind: QueryKind,
        metric: ErrorMetric,
        objective: f64,
        drift: f64,
    ) -> Result<Answer, String> {
        let n = self.n();
        let guarantee = objective + drift;
        // `+ 0.0` normalizes a `-0.0` estimate.
        let (est, interval) = match kind {
            QueryKind::Point(i) => {
                if i >= n {
                    return Err(format!("index {i} out of range (N = {n})"));
                }
                let est = self.point(i) + 0.0;
                let interval = match metric {
                    ErrorMetric::Absolute => bounds::point_absolute(est, guarantee),
                    ErrorMetric::Relative { sanity } => {
                        let iv = bounds::point_relative(est, objective, sanity);
                        bounds::Interval {
                            lo: iv.lo - drift,
                            hi: iv.hi + drift,
                        }
                    }
                };
                (est, Some(interval))
            }
            QueryKind::RangeSum(lo, hi) => {
                if lo > hi || hi > n {
                    return Err(format!("bad range [{lo}, {hi}) for N = {n}"));
                }
                let est = self.range_sum(lo..hi) + 0.0;
                let interval = match metric {
                    ErrorMetric::Absolute => {
                        Some(bounds::range_sum_absolute(est, guarantee, hi - lo))
                    }
                    ErrorMetric::Relative { .. } => None,
                };
                (est, interval)
            }
            QueryKind::RangeAvg(lo, hi) => {
                if lo >= hi || hi > n {
                    return Err(format!("bad range [{lo}, {hi}) for N = {n}"));
                }
                (self.range_avg(lo..hi) + 0.0, None)
            }
        };
        Ok(Answer {
            est,
            guarantee,
            interval,
        })
    }
}

/// Range-selectivity estimation over a column (Matias, Vitter & Wang's
/// original wavelet use case): builds the frequency vector of a column of
/// integer values in `[0, domain)`, thresholds it, and answers
/// `COUNT(*) WHERE lo <= x < hi` approximately.
#[derive(Debug, Clone)]
pub struct SelectivityEstimator {
    synopsis: Synopsis1d,
    total: f64,
}

impl SelectivityEstimator {
    /// Builds the estimator from column values, a power-of-two domain size,
    /// a space budget `b`, and the thresholding function to apply
    /// (e.g. `|tree, b| MinMaxErr-based synopsis`).
    ///
    /// # Errors
    /// [`HaarError::NotPowerOfTwo`] when `domain` is not a power of two;
    /// panics if a value falls outside the domain.
    pub fn build<F>(
        values: &[u64],
        domain: usize,
        b: usize,
        threshold: F,
    ) -> Result<Self, HaarError>
    where
        F: FnOnce(&[f64], usize) -> Synopsis1d,
    {
        if !wsyn_haar::is_pow2(domain) {
            return Err(HaarError::NotPowerOfTwo { len: domain });
        }
        let mut freq = vec![0.0f64; domain];
        for &v in values {
            assert!((v as usize) < domain, "value {v} outside domain {domain}");
            freq[v as usize] += 1.0;
        }
        Ok(Self {
            synopsis: threshold(&freq, b),
            total: values.len() as f64,
        })
    }

    /// Approximate `COUNT(*) WHERE lo <= x < hi`, clamped to `[0, total]`.
    pub fn count(&self, range: Range<usize>) -> f64 {
        self.synopsis.range_sum(range).clamp(0.0, self.total)
    }

    /// Approximate selectivity (fraction of tuples) of a range predicate.
    pub fn selectivity(&self, range: Range<usize>) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        self.count(range) / self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsyn_synopsis::one_dim::MinMaxErr;

    #[test]
    fn selectivity_estimation_end_to_end() {
        // A skewed column over domain 64.
        let mut values = Vec::new();
        for v in 0..64u64 {
            let count = 1000 / (v + 1);
            for _ in 0..count {
                values.push(v);
            }
        }
        let est = SelectivityEstimator::build(&values, 64, 10, |freq, b| {
            MinMaxErr::new(freq)
                .unwrap()
                .run(b, ErrorMetric::relative(1.0))
                .synopsis
        })
        .unwrap();
        let total = values.len() as f64;
        // Exact counts for a few ranges.
        for (lo, hi) in [(0usize, 4usize), (0, 32), (10, 50), (32, 64)] {
            let exact = values
                .iter()
                .filter(|&&v| (v as usize) >= lo && (v as usize) < hi)
                .count() as f64;
            let approx = est.count(lo..hi);
            assert!(
                (approx - exact).abs() <= 0.25 * total,
                "[{lo},{hi}): approx {approx} vs exact {exact}"
            );
        }
        // Selectivity of the full domain is 1.
        assert!((est.selectivity(0..64) - 1.0).abs() < 0.05);
    }

    #[test]
    fn only_one_dimensional_synopses_convert() {
        use wsyn_haar::nd::{NdArray, NdShape};
        use wsyn_haar::ErrorTreeNd;
        let shape = NdShape::hypercube(2, 2).unwrap();
        let tree = ErrorTreeNd::from_data(&NdArray::new(shape, vec![1.0; 4]).unwrap()).unwrap();
        let nd = AnySynopsis::Nd(wsyn_synopsis::SynopsisNd::from_positions(&tree, &[0]));
        let err = AnySynopsis1d::try_from(nd).unwrap_err();
        assert!(matches!(err, WsynError::DimensionMismatch { .. }), "{err}");
        let hist = AnySynopsis::Histogram(StepSynopsis::empty(4));
        assert_eq!(
            AnySynopsis1d::try_from(hist).unwrap(),
            AnySynopsis1d::Histogram(StepSynopsis::empty(4))
        );
    }
}
