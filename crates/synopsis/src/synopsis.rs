//! Wavelet synopses: sparse sets of retained coefficients (§2.3).
//!
//! A synopsis retains `B ≪ N` coefficients of the wavelet transform; the
//! rest are implicitly zero. [`Synopsis1d`] and [`SynopsisNd`] store the
//! retained `(position, value)` pairs together with enough shape
//! information to reconstruct approximate data, and answer point,
//! range-sum and range-average queries in the coefficient domain:
//! `O(log N · log B)` per 1-D point query, `O(B·D)` per range aggregate
//! (each retained coefficient contributes a closed-form overlap weight).

use std::ops::Range;

use wsyn_haar::nd::{nonstandard, NdArray, NdShape};
use wsyn_haar::{transform, ErrorTree1d, ErrorTreeNd, HaarError};

use crate::metric::ErrorMetric;

/// A one-dimensional wavelet synopsis: retained `(index, coefficient)`
/// pairs over a domain of `n` values, sorted by index.
#[derive(Debug, Clone, PartialEq)]
pub struct Synopsis1d {
    n: usize,
    entries: Vec<(usize, f64)>,
}

impl Synopsis1d {
    /// Builds a synopsis from retained coefficient indices of an error tree.
    ///
    /// Duplicate indices are collapsed; indices are validated against `N`.
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn from_indices(tree: &ErrorTree1d, indices: &[usize]) -> Self {
        let n = tree.n();
        let mut idx: Vec<usize> = indices.to_vec();
        idx.sort_unstable();
        idx.dedup();
        let entries = idx
            .into_iter()
            .map(|j| {
                assert!(j < n, "coefficient index {j} out of range (N = {n})");
                (j, tree.coeff(j))
            })
            .collect();
        Self { n, entries }
    }

    /// Builds a synopsis from explicit `(index, value)` pairs.
    ///
    /// # Errors
    /// [`HaarError::NotPowerOfTwo`] / [`HaarError::Empty`] on a bad domain
    /// size; panics on out-of-range indices.
    pub fn from_entries(n: usize, mut entries: Vec<(usize, f64)>) -> Result<Self, HaarError> {
        if n == 0 {
            return Err(HaarError::Empty);
        }
        if !wsyn_haar::is_pow2(n) {
            return Err(HaarError::NotPowerOfTwo { len: n });
        }
        entries.sort_unstable_by_key(|&(j, _)| j);
        entries.dedup_by_key(|&mut (j, _)| j);
        for &(j, _) in &entries {
            assert!(j < n, "coefficient index {j} out of range (N = {n})");
        }
        Ok(Self { n, entries })
    }

    /// Builds a synopsis from raw parts **without checking invariants**.
    /// For deserializers only: the caller must run [`Self::validate`]
    /// before using the synopsis — the other methods assume a
    /// power-of-two domain and strictly sorted, in-range entries.
    #[must_use]
    pub fn from_raw_parts(n: usize, entries: Vec<(usize, f64)>) -> Self {
        Self { n, entries }
    }

    /// Validates the structural invariants the constructors enforce:
    /// power-of-two domain, entries strictly sorted by index, indices in
    /// range. Call this after deserializing a synopsis from an untrusted
    /// source (deserializers bypass the constructors); without it,
    /// out-of-range indices panic in [`Self::reconstruct`] and unsorted
    /// entries silently break the binary searches.
    ///
    /// # Errors
    /// A human-readable description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("domain size is zero".into());
        }
        if !wsyn_haar::is_pow2(self.n) {
            return Err(format!("domain size {} is not a power of two", self.n));
        }
        for w in self.entries.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!(
                    "entries not strictly sorted by index ({} then {})",
                    w[0].0, w[1].0
                ));
            }
        }
        if let Some(&(j, _)) = self.entries.last() {
            if j >= self.n {
                return Err(format!(
                    "coefficient index {j} out of range (N = {})",
                    self.n
                ));
            }
        }
        Ok(())
    }

    /// Domain size `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of retained coefficients (the synopsis "size" `B`).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no coefficients are retained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Retained `(index, value)` pairs, sorted by index.
    #[inline]
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Retained coefficient indices.
    pub fn indices(&self) -> Vec<usize> {
        self.entries.iter().map(|&(j, _)| j).collect()
    }

    /// Whether coefficient `j` is retained (binary search).
    pub fn retains(&self, j: usize) -> bool {
        self.entries.binary_search_by_key(&j, |&(i, _)| i).is_ok()
    }

    /// Reconstructs the full approximate data vector (dropped coefficients
    /// are zero). `O(N)` via the inverse transform.
    pub fn reconstruct(&self) -> Vec<f64> {
        let mut coeffs = vec![0.0f64; self.n];
        for &(j, v) in &self.entries {
            coeffs[j] = v;
        }
        transform::inverse_in_place(&mut coeffs);
        coeffs
    }

    /// Maximum error of this synopsis against the original data.
    pub fn max_error(&self, data: &[f64], metric: ErrorMetric) -> f64 {
        metric.max_error(data, &self.reconstruct())
    }

    /// Approximate point query `d̂_i`: sums the retained coefficients on
    /// `path(i)` — `O(log N · log B)`.
    ///
    /// # Panics
    /// Panics when `i >= N`.
    pub fn point(&self, i: usize) -> f64 {
        let n = self.n;
        assert!(i < n, "point index {i} out of range (N = {n})");
        let entries = &self.entries;
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
        let n = self.n;
        assert!(range.end <= n, "range {range:?} out of bounds (N = {n})");
        if range.is_empty() {
            return 0.0;
        }
        self.entries
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

/// A multi-dimensional wavelet synopsis over the nonstandard decomposition:
/// retained `(linear position, coefficient)` pairs plus the array shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SynopsisNd {
    shape: NdShape,
    entries: Vec<(usize, f64)>,
}

impl SynopsisNd {
    /// Builds a synopsis from retained linear coefficient positions of a
    /// multi-dimensional error tree.
    ///
    /// # Panics
    /// Panics when a position is out of range.
    pub fn from_positions(tree: &ErrorTreeNd, positions: &[usize]) -> Self {
        let shape = tree.coeffs().shape().clone();
        let n = shape.len();
        let mut pos: Vec<usize> = positions.to_vec();
        pos.sort_unstable();
        pos.dedup();
        let entries = pos
            .into_iter()
            .map(|p| {
                assert!(p < n, "coefficient position {p} out of range (N = {n})");
                (p, tree.coeffs().data()[p])
            })
            .collect();
        Self { shape, entries }
    }

    /// The array shape.
    #[inline]
    pub fn shape(&self) -> &NdShape {
        &self.shape
    }

    /// Number of retained coefficients.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no coefficients are retained.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Retained `(linear position, value)` pairs, sorted by position.
    #[inline]
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Retained positions.
    pub fn positions(&self) -> Vec<usize> {
        self.entries.iter().map(|&(p, _)| p).collect()
    }

    /// Whether the coefficient at linear position `p` is retained.
    pub fn retains(&self, p: usize) -> bool {
        self.entries.binary_search_by_key(&p, |&(i, _)| i).is_ok()
    }

    /// Reconstructs the approximate data array. `O(N)`.
    ///
    /// # Panics
    /// Never for synopses built by this crate (hypercube validated).
    pub fn reconstruct(&self) -> NdArray {
        let mut coeffs = NdArray::zeros(self.shape.clone());
        for &(p, v) in &self.entries {
            coeffs.data_mut()[p] = v;
        }
        nonstandard::inverse_in_place(&mut coeffs)
            // The shape was validated hypercube when the synopsis was
            // built; the inverse transform cannot fail on it.
            // wsyn: allow(no-panic)
            .expect("synopsis shape is a validated hypercube");
        coeffs
    }

    /// Maximum error of this synopsis against the original (flat) data.
    pub fn max_error(&self, data: &[f64], metric: ErrorMetric) -> f64 {
        metric.max_error(data, self.reconstruct().data())
    }

    /// Approximate range sum over a `D`-dimensional box — `O(B·D)`; each
    /// retained coefficient contributes the product over dimensions of its
    /// per-dimension signed overlap with the box.
    ///
    /// # Panics
    /// Panics on a box of wrong dimensionality or out of bounds.
    pub fn range_sum(&self, query: &[Range<usize>]) -> f64 {
        let shape = &self.shape;
        let d = shape.ndims();
        assert_eq!(query.len(), d, "query box dimensionality mismatch");
        let side = shape.sides()[0];
        for (k, r) in query.iter().enumerate() {
            assert!(r.end <= shape.sides()[k], "query dim {k} out of bounds");
        }
        if query.iter().any(Range::is_empty) {
            return 0.0;
        }
        let m = wsyn_haar::log2_exact(side);
        self.entries
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
        if wsyn_core::is_zero(w) {
            return 0.0;
        }
    }
    w
}

#[cfg(test)]
mod tests {
    #![allow(clippy::needless_range_loop)] // index loops read clearer in assertions
    use super::*;

    const EXAMPLE: [f64; 8] = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];

    #[test]
    fn full_synopsis_reconstructs_exactly() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let s = Synopsis1d::from_indices(&tree, &(0..8).collect::<Vec<_>>());
        assert_eq!(s.reconstruct(), EXAMPLE.to_vec());
        assert_eq!(s.max_error(&EXAMPLE, ErrorMetric::absolute()), 0.0);
    }

    #[test]
    fn empty_synopsis_reconstructs_zero() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let s = Synopsis1d::from_indices(&tree, &[]);
        assert!(s.is_empty());
        assert_eq!(s.reconstruct(), vec![0.0; 8]);
        assert_eq!(s.max_error(&EXAMPLE, ErrorMetric::absolute()), 5.0);
    }

    #[test]
    fn average_only_synopsis() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let s = Synopsis1d::from_indices(&tree, &[0]);
        assert_eq!(s.reconstruct(), vec![11.0 / 4.0; 8]);
    }

    #[test]
    fn retains_and_indices() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let s = Synopsis1d::from_indices(&tree, &[5, 1, 5, 0]);
        assert_eq!(s.indices(), vec![0, 1, 5]);
        assert_eq!(s.len(), 3);
        assert!(s.retains(5));
        assert!(!s.retains(2));
    }

    #[test]
    fn from_entries_validates_domain() {
        assert!(Synopsis1d::from_entries(0, vec![]).is_err());
        assert!(Synopsis1d::from_entries(3, vec![]).is_err());
        let s = Synopsis1d::from_entries(4, vec![(2, 1.5), (0, 3.0)]).unwrap();
        assert_eq!(s.entries(), &[(0, 3.0), (2, 1.5)]);
    }

    #[test]
    fn validate_accepts_constructed_and_rejects_malformed() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let good = Synopsis1d::from_indices(&tree, &[0, 5, 2]);
        assert!(good.validate().is_ok());
        // Malformed states only reachable by bypassing the constructors
        // (e.g. serde deserialization of hand-edited JSON).
        let out_of_range = Synopsis1d {
            n: 8,
            entries: vec![(99, 5.0)],
        };
        assert!(out_of_range
            .validate()
            .unwrap_err()
            .contains("out of range"));
        let unsorted = Synopsis1d {
            n: 8,
            entries: vec![(5, 1.0), (2, 3.0)],
        };
        assert!(unsorted.validate().unwrap_err().contains("sorted"));
        let dup = Synopsis1d {
            n: 8,
            entries: vec![(2, 1.0), (2, 3.0)],
        };
        assert!(dup.validate().is_err());
        let bad_n = Synopsis1d {
            n: 6,
            entries: vec![],
        };
        assert!(bad_n.validate().unwrap_err().contains("power of two"));
    }

    fn full_synopsis(data: &[f64]) -> Synopsis1d {
        let tree = ErrorTree1d::from_data(data).unwrap();
        Synopsis1d::from_indices(&tree, &(0..data.len()).collect::<Vec<_>>())
    }

    #[test]
    fn point_queries_match_reconstruction() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let syn = Synopsis1d::from_indices(&tree, &[0, 1, 5]);
        let recon = syn.reconstruct();
        for i in 0..8 {
            assert!((syn.point(i) - recon[i]).abs() < 1e-12, "i={i}");
        }
    }

    #[test]
    fn range_sums_exact_with_full_synopsis() {
        let syn = full_synopsis(&EXAMPLE);
        for lo in 0..8 {
            for hi in lo..=8 {
                let expect: f64 = EXAMPLE[lo..hi].iter().sum();
                let got = syn.range_sum(lo..hi);
                assert!(
                    (got - expect).abs() < 1e-9,
                    "[{lo},{hi}): {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn range_sum_equals_sum_of_point_queries() {
        let tree = ErrorTree1d::from_data(&EXAMPLE).unwrap();
        let syn = Synopsis1d::from_indices(&tree, &[0, 2, 6]);
        for lo in 0..8 {
            for hi in lo..=8 {
                let by_points: f64 = (lo..hi).map(|i| syn.point(i)).sum();
                let direct = syn.range_sum(lo..hi);
                assert!(
                    (by_points - direct).abs() < 1e-9,
                    "[{lo},{hi}): {direct} vs {by_points}"
                );
            }
        }
    }

    #[test]
    fn range_avg() {
        let syn = full_synopsis(&EXAMPLE);
        assert!((syn.range_avg(4..8) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_range_is_zero() {
        let syn = full_synopsis(&EXAMPLE);
        assert_eq!(syn.range_sum(3..3), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_range_panics() {
        let syn = full_synopsis(&EXAMPLE);
        let _ = syn.range_sum(0..9);
    }

    #[test]
    fn nd_range_sums_exact_with_full_synopsis() {
        let shape = NdShape::hypercube(4, 2).unwrap();
        let vals: Vec<f64> = (0..16).map(|i| f64::from((i * 7 + 2) % 9)).collect();
        let tree =
            ErrorTreeNd::from_data(&NdArray::new(shape.clone(), vals.clone()).unwrap()).unwrap();
        let syn = SynopsisNd::from_positions(&tree, &(0..16).collect::<Vec<_>>());
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
                        let got = syn.range_sum(&[r0s..r0e, r1s..r1e]);
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
        let shape = NdShape::hypercube(4, 2).unwrap();
        let vals: Vec<f64> = (0..16).map(|i| f64::from(i % 5) * 2.0).collect();
        let tree = ErrorTreeNd::from_data(&NdArray::new(shape.clone(), vals).unwrap()).unwrap();
        let syn = SynopsisNd::from_positions(&tree, &[0, 1, 4, 5]);
        let recon = syn.reconstruct();
        for idx in 0..16 {
            let x = shape.delinearize(idx);
            assert!(
                (syn.point(&x) - recon.data()[idx]).abs() < 1e-9,
                "cell {x:?}"
            );
        }
    }

    #[test]
    fn nd_synopsis_roundtrip() {
        let shape = NdShape::hypercube(4, 2).unwrap();
        let vals: Vec<f64> = (0..16).map(|i| f64::from(i % 5)).collect();
        let tree = ErrorTreeNd::from_data(&NdArray::new(shape, vals.clone()).unwrap()).unwrap();
        let all: Vec<usize> = (0..16).collect();
        let s = SynopsisNd::from_positions(&tree, &all);
        let recon = s.reconstruct();
        for (a, b) in recon.data().iter().zip(&vals) {
            assert!((a - b).abs() < 1e-12);
        }
        let s0 = SynopsisNd::from_positions(&tree, &[0]);
        assert_eq!(s0.len(), 1);
        let avg = tree.root_average();
        for &v in s0.reconstruct().data() {
            assert!((v - avg).abs() < 1e-12);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::one_dim::MinMaxErr;
    use proptest::prelude::*;

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
            let recon = syn.reconstruct();
            let expect: f64 = recon[lo..hi].iter().sum();
            let got = syn.range_sum(lo..hi);
            prop_assert!((got - expect).abs() <= 1e-7 * (1.0 + expect.abs()));
        }
    }
}

#[cfg(test)]
mod nd_proptests {
    use super::*;
    use proptest::prelude::*;

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
            let recon = syn.reconstruct();
            let (r0e, r1e) = ((r0s + r0l).min(4), (r1s + r1l).min(4));
            let mut expect = 0.0;
            for x0 in r0s..r0e {
                for x1 in r1s..r1e {
                    expect += recon.get(&[x0, x1]);
                }
            }
            let got = syn.range_sum(&[r0s..r0e, r1s..r1e]);
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
            let recon = syn.reconstruct();
            for idx in 0..16 {
                let x = shape.delinearize(idx);
                prop_assert!((syn.point(&x) - recon.data()[idx]).abs() < 1e-9);
            }
        }
    }
}
