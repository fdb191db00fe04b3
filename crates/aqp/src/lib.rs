//! # wsyn-aqp — approximate query processing over wavelet synopses
//!
//! The motivating application of the paper (§1): answer queries *directly
//! from the compact synopsis*, without touching the base data, and attach
//! meaningful per-answer guarantees — which is exactly what maximum-error
//! synopses enable and L2-optimized synopses do not.
//!
//! * [`QueryEngine1d`] / [`QueryEngineNd`] — point, range-sum, range-average
//!   and range-count queries evaluated in the coefficient domain:
//!   `O(log N)` per point query, `O(B·D)` per range aggregate (each
//!   retained coefficient contributes a closed-form overlap weight).
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
pub mod step_engine;

pub use step_engine::StepEngine;

use std::ops::Range;

use wsyn_haar::{transform, HaarError};
use wsyn_synopsis::{Synopsis1d, SynopsisNd};

/// Query engine over a one-dimensional wavelet synopsis.
#[derive(Debug, Clone)]
pub struct QueryEngine1d {
    synopsis: Synopsis1d,
}

impl QueryEngine1d {
    /// Wraps a synopsis.
    pub fn new(synopsis: Synopsis1d) -> Self {
        Self { synopsis }
    }

    /// The wrapped synopsis.
    pub fn synopsis(&self) -> &Synopsis1d {
        &self.synopsis
    }

    /// Domain size `N`.
    pub fn n(&self) -> usize {
        self.synopsis.n()
    }

    /// Approximate point query `d̂_i`: sums the retained coefficients on
    /// `path(i)` — `O(log N · log B)`.
    ///
    /// # Panics
    /// Panics when `i >= N`.
    pub fn point(&self, i: usize) -> f64 {
        let n = self.n();
        assert!(i < n, "point index {i} out of range (N = {n})");
        let entries = self.synopsis.entries();
        let mut acc = 0.0;
        // Walk the ancestor chain explicitly (no tree materialization).
        let mut lookup = |j: usize, sign: f64| {
            if let Ok(k) = entries.binary_search_by_key(&j, |&(p, _)| p) {
                acc += sign * entries[k].1;
            }
        };
        lookup(0, 1.0);
        if n > 1 {
            let m = wsyn_haar::log2_exact(n);
            for l in 0..m {
                let j = (1usize << l) + (i >> (m - l));
                let sign = if (i >> (m - l - 1)) & 1 == 0 {
                    1.0
                } else {
                    -1.0
                };
                lookup(j, sign);
            }
        }
        acc
    }

    /// Approximate range sum `Σ_{i ∈ range} d̂_i` — `O(B)`: every retained
    /// coefficient contributes `value · (|range ∩ left half| − |range ∩
    /// right half|)` (the root contributes `value · |range|`).
    ///
    /// # Panics
    /// Panics on an out-of-bounds range.
    pub fn range_sum(&self, range: Range<usize>) -> f64 {
        let n = self.n();
        assert!(range.end <= n, "range {range:?} out of bounds (N = {n})");
        if range.is_empty() {
            return 0.0;
        }
        self.synopsis
            .entries()
            .iter()
            .map(|&(j, v)| v * coeff_range_weight_1d(j, n, &range))
            .sum()
    }

    /// Approximate range average.
    ///
    /// # Panics
    /// Panics on an empty or out-of-bounds range.
    pub fn range_avg(&self, range: Range<usize>) -> f64 {
        assert!(!range.is_empty(), "empty range");
        let len = (range.end - range.start) as f64;
        self.range_sum(range) / len
    }
}

/// Signed overlap weight of coefficient `j` over `range` in a domain of
/// `n` values: `Σ_{i ∈ range} sign_{ij}`.
fn coeff_range_weight_1d(j: usize, n: usize, range: &Range<usize>) -> f64 {
    let overlap = |a: usize, b: usize| -> f64 {
        let lo = range.start.max(a);
        let hi = range.end.min(b);
        hi.saturating_sub(lo) as f64
    };
    if j == 0 {
        return overlap(0, n);
    }
    let l = transform::level(j);
    let width = n >> l;
    let start = (j - (1 << l)) * width;
    let mid = start + width / 2;
    overlap(start, mid) - overlap(mid, start + width)
}

/// Query engine over a multi-dimensional (nonstandard) wavelet synopsis.
#[derive(Debug, Clone)]
pub struct QueryEngineNd {
    synopsis: SynopsisNd,
}

impl QueryEngineNd {
    /// Wraps a synopsis.
    pub fn new(synopsis: SynopsisNd) -> Self {
        Self { synopsis }
    }

    /// The wrapped synopsis.
    pub fn synopsis(&self) -> &SynopsisNd {
        &self.synopsis
    }

    /// Approximate range sum over a `D`-dimensional box — `O(B·D)`; each
    /// retained coefficient contributes the product over dimensions of its
    /// per-dimension signed overlap with the box.
    ///
    /// # Panics
    /// Panics on a box of wrong dimensionality or out of bounds.
    pub fn range_sum(&self, query: &[Range<usize>]) -> f64 {
        let shape = self.synopsis.shape();
        let d = shape.ndims();
        assert_eq!(query.len(), d, "query box dimensionality mismatch");
        let side = shape.sides()[0];
        for (k, r) in query.iter().enumerate() {
            assert!(r.end <= shape.sides()[k], "query dim {k} out of bounds");
        }
        if query.iter().any(std::ops::Range::is_empty) {
            return 0.0;
        }
        let m = wsyn_haar::log2_exact(side);
        self.synopsis
            .entries()
            .iter()
            .map(|&(pos, v)| {
                let coords = shape.delinearize(pos);
                v * coeff_range_weight_nd(&coords, side, m, query)
            })
            .sum()
    }

    /// Approximate average over a box.
    ///
    /// # Panics
    /// Panics on an empty box.
    pub fn range_avg(&self, query: &[Range<usize>]) -> f64 {
        let cells: usize = query.iter().map(|r| r.end - r.start).product();
        assert!(cells > 0, "empty query box");
        self.range_sum(query) / cells as f64
    }

    /// Approximate point query via a degenerate box.
    pub fn point(&self, coords: &[usize]) -> f64 {
        let query: Vec<Range<usize>> = coords.iter().map(|&c| c..c + 1).collect();
        self.range_sum(&query)
    }
}

/// Signed overlap weight of the nonstandard coefficient at `coords` over a
/// query box, for a `2^m`-per-side hypercube.
fn coeff_range_weight_nd(coords: &[usize], side: usize, m: u32, query: &[Range<usize>]) -> f64 {
    let overlap = |r: &Range<usize>, a: usize, b: usize| -> f64 {
        let lo = r.start.max(a);
        let hi = r.end.min(b);
        hi.saturating_sub(lo) as f64
    };
    if coords.iter().all(|&c| c == 0) {
        // Overall average: plain volume overlap.
        return query.iter().map(|r| overlap(r, 0, side)).product();
    }
    // Level of the coefficient: the unique l with all coords < 2^{l+1}
    // and at least one >= 2^l — i.e. floor(log2) of the largest
    // coordinate (nonzero, since the all-zero average returned above).
    let cmax = coords.iter().copied().max().unwrap_or(1).max(1);
    let l = usize::BITS - 1 - cmax.leading_zeros();
    debug_assert!(l < m);
    let off = 1usize << l;
    let width = side >> l;
    let mut w = 1.0f64;
    for (k, r) in query.iter().enumerate() {
        let q = coords[k] & (off - 1);
        let b = coords[k] >= off;
        let start = q * width;
        if b {
            let mid = start + width / 2;
            w *= overlap(r, start, mid) - overlap(r, mid, start + width);
        } else {
            w *= overlap(r, start, start + width);
        }
        if w == 0.0 {
            return 0.0;
        }
    }
    w
}

/// Range-selectivity estimation over a column (Matias, Vitter & Wang's
/// original wavelet use case): builds the frequency vector of a column of
/// integer values in `[0, domain)`, thresholds it, and answers
/// `COUNT(*) WHERE lo <= x < hi` approximately.
#[derive(Debug, Clone)]
pub struct SelectivityEstimator {
    engine: QueryEngine1d,
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
        let synopsis = threshold(&freq, b);
        Ok(Self {
            engine: QueryEngine1d::new(synopsis),
            total: values.len() as f64,
        })
    }

    /// Approximate `COUNT(*) WHERE lo <= x < hi`, clamped to `[0, total]`.
    pub fn count(&self, range: Range<usize>) -> f64 {
        self.engine.range_sum(range).clamp(0.0, self.total)
    }

    /// Approximate selectivity (fraction of tuples) of a range predicate.
    pub fn selectivity(&self, range: Range<usize>) -> f64 {
        if self.total == 0.0 {
            return 0.0;
        }
        self.count(range) / self.total
    }

    /// The underlying query engine.
    pub fn engine(&self) -> &QueryEngine1d {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::needless_range_loop)] // index loops read clearer in assertions
    use super::*;
    use wsyn_haar::ErrorTree1d as Tree;
    use wsyn_synopsis::one_dim::MinMaxErr;
    use wsyn_synopsis::ErrorMetric;

    const EXAMPLE: [f64; 8] = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];

    fn full_synopsis(data: &[f64]) -> Synopsis1d {
        let tree = Tree::from_data(data).unwrap();
        Synopsis1d::from_indices(&tree, &(0..data.len()).collect::<Vec<_>>())
    }

    #[test]
    fn point_queries_match_reconstruction() {
        let tree = Tree::from_data(&EXAMPLE).unwrap();
        let syn = Synopsis1d::from_indices(&tree, &[0, 1, 5]);
        let engine = QueryEngine1d::new(syn.clone());
        let recon = syn.reconstruct();
        for i in 0..8 {
            assert!((engine.point(i) - recon[i]).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn range_sums_exact_with_full_synopsis() {
        let engine = QueryEngine1d::new(full_synopsis(&EXAMPLE));
        for lo in 0..8 {
            for hi in lo..=8 {
                let expect: f64 = EXAMPLE[lo..hi].iter().sum();
                let got = engine.range_sum(lo..hi);
                assert!(
                    (got - expect).abs() < 1e-9,
                    "[{lo},{hi}): {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn range_sum_equals_sum_of_point_queries() {
        let tree = Tree::from_data(&EXAMPLE).unwrap();
        let syn = Synopsis1d::from_indices(&tree, &[0, 2, 6]);
        let engine = QueryEngine1d::new(syn);
        for lo in 0..8 {
            for hi in lo..=8 {
                let by_points: f64 = (lo..hi).map(|i| engine.point(i)).sum();
                let direct = engine.range_sum(lo..hi);
                assert!(
                    (by_points - direct).abs() < 1e-9,
                    "[{lo},{hi}): {direct} vs {by_points}"
                );
            }
        }
    }

    #[test]
    fn range_avg() {
        let engine = QueryEngine1d::new(full_synopsis(&EXAMPLE));
        assert!((engine.range_avg(4..8) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn nd_range_sums_exact_with_full_synopsis() {
        use wsyn_haar::nd::{NdArray, NdShape};
        use wsyn_haar::ErrorTreeNd;
        let shape = NdShape::hypercube(4, 2).unwrap();
        let vals: Vec<f64> = (0..16).map(|i| f64::from((i * 7 + 2) % 9)).collect();
        let tree =
            ErrorTreeNd::from_data(&NdArray::new(shape.clone(), vals.clone()).unwrap()).unwrap();
        let syn = SynopsisNd::from_positions(&tree, &(0..16).collect::<Vec<_>>());
        let engine = QueryEngineNd::new(syn);
        for r0s in 0..4 {
            for r0e in r0s..=4 {
                for r1s in 0..4 {
                    for r1e in r1s..=4 {
                        let mut expect = 0.0;
                        for x0 in r0s..r0e {
                            for x1 in r1s..r1e {
                                expect += vals[shape.linearize(&[x0, x1])];
                            }
                        }
                        let got = engine.range_sum(&[r0s..r0e, r1s..r1e]);
                        assert!(
                            (got - expect).abs() < 1e-9,
                            "[{r0s},{r0e})x[{r1s},{r1e}): {got} vs {expect}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nd_point_matches_reconstruction() {
        use wsyn_haar::nd::{NdArray, NdShape};
        use wsyn_haar::ErrorTreeNd;
        let shape = NdShape::hypercube(4, 2).unwrap();
        let vals: Vec<f64> = (0..16).map(|i| f64::from(i % 5) * 2.0).collect();
        let tree = ErrorTreeNd::from_data(&NdArray::new(shape.clone(), vals).unwrap()).unwrap();
        let syn = SynopsisNd::from_positions(&tree, &[0, 1, 4, 5]);
        let engine = QueryEngineNd::new(syn.clone());
        let recon = syn.reconstruct();
        for idx in 0..16 {
            let x = shape.delinearize(idx);
            assert!(
                (engine.point(&x) - recon.data()[idx]).abs() < 1e-9,
                "cell {x:?}"
            );
        }
    }

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
    fn empty_range_is_zero() {
        let engine = QueryEngine1d::new(full_synopsis(&EXAMPLE));
        assert_eq!(engine.range_sum(3..3), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_range_panics() {
        let engine = QueryEngine1d::new(full_synopsis(&EXAMPLE));
        let _ = engine.range_sum(0..9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use wsyn_synopsis::one_dim::MinMaxErr;
    use wsyn_synopsis::ErrorMetric;

    proptest! {
        #[test]
        fn range_sums_match_reconstruction(
            data in proptest::collection::vec(-100.0f64..100.0, 32),
            b in 0usize..12,
            lo in 0usize..32,
            len in 0usize..32,
        ) {
            let hi = (lo + len).min(32);
            let solver = MinMaxErr::new(&data).unwrap();
            let syn = solver.run(b, ErrorMetric::absolute()).synopsis;
            let engine = QueryEngine1d::new(syn.clone());
            let recon = syn.reconstruct();
            let expect: f64 = recon[lo..hi].iter().sum();
            let got = engine.range_sum(lo..hi);
            prop_assert!((got - expect).abs() <= 1e-7 * (1.0 + expect.abs()));
        }
    }
}

#[cfg(test)]
mod nd_proptests {
    use super::*;
    use proptest::prelude::*;
    use wsyn_haar::nd::{NdArray, NdShape};
    use wsyn_haar::ErrorTreeNd;

    proptest! {
        /// N-D range sums from any synopsis agree with summing its own
        /// reconstruction over the box — for random data, random retained
        /// subsets, and random boxes.
        #[test]
        fn nd_range_sum_matches_reconstruction(
            vals in proptest::collection::vec(-50.0f64..50.0, 16),
            mask in any::<u16>(),
            r0s in 0usize..4, r0l in 0usize..=4,
            r1s in 0usize..4, r1l in 0usize..=4,
        ) {
            let shape = NdShape::hypercube(4, 2).unwrap();
            let tree = ErrorTreeNd::from_data(&NdArray::new(shape.clone(), vals).unwrap()).unwrap();
            let pos: Vec<usize> = (0..16).filter(|&p| mask >> p & 1 == 1).collect();
            let syn = SynopsisNd::from_positions(&tree, &pos);
            let engine = QueryEngineNd::new(syn.clone());
            let recon = syn.reconstruct();
            let (r0e, r1e) = ((r0s + r0l).min(4), (r1s + r1l).min(4));
            let mut expect = 0.0;
            for x0 in r0s..r0e {
                for x1 in r1s..r1e {
                    expect += recon.get(&[x0, x1]);
                }
            }
            let got = engine.range_sum(&[r0s..r0e, r1s..r1e]);
            prop_assert!((got - expect).abs() <= 1e-7 * (1.0 + expect.abs()),
                "{got} vs {expect}");
        }

        /// Point queries equal degenerate range sums equal reconstruction.
        #[test]
        fn nd_point_consistency(
            vals in proptest::collection::vec(-50.0f64..50.0, 16),
            mask in any::<u16>(),
        ) {
            let shape = NdShape::hypercube(4, 2).unwrap();
            let tree = ErrorTreeNd::from_data(&NdArray::new(shape.clone(), vals).unwrap()).unwrap();
            let pos: Vec<usize> = (0..16).filter(|&p| mask >> p & 1 == 1).collect();
            let syn = SynopsisNd::from_positions(&tree, &pos);
            let engine = QueryEngineNd::new(syn.clone());
            let recon = syn.reconstruct();
            for idx in 0..16 {
                let x = shape.delinearize(idx);
                prop_assert!((engine.point(&x) - recon.data()[idx]).abs() < 1e-9);
            }
        }
    }
}
