//! One-dimensional Haar error tree (§2.1, Figure 1(a)).
//!
//! The error tree is the hierarchical view of the wavelet transform used by
//! every thresholding algorithm in the paper. Internal node `c_j`
//! (`0 <= j < N`) carries the unnormalized coefficient `W_A[j]`; leaf `d_i`
//! carries the `i`-th data value. The root `c_0` (the overall average) has a
//! single child `c_1`; every other internal node `c_j` has children
//! `c_{2j}` and `c_{2j+1}` (which are leaves `d_{2j-N}` and `d_{2j+1-N}`
//! once `2j >= N`).
//!
//! Key property (Equation (1)): a data value is reconstructed from exactly
//! the coefficients on its root path,
//! `d_i = Σ_{c_j ∈ path(d_i)} sign_{ij} · c_j`, where `sign_{ij} = +1` if
//! `d_i` lies in the left child subtree of `c_j` or `j = 0`, and `-1`
//! otherwise. An ancestor coefficient therefore contributes with a *fixed*
//! sign to every leaf of a given subtree — the observation underlying the
//! incoming-error dynamic programs of §3.
//!
//! ## Layout
//!
//! The tree is stored struct-of-arrays: four flat slices indexed by `j`
//! (coefficient values, levels, support starts, support ends), all
//! precomputed once at construction. Structural queries are single
//! branch-free slice reads, and the hot consumers — the branch-and-bound
//! kernel's leaf evaluations and [`ErrorTree1d::subtree_leaf_max`] —
//! become linear scans over contiguous memory instead of per-node
//! formula re-derivation. The slices are exposed read-only
//! ([`ErrorTree1d::coeffs`], [`ErrorTree1d::levels_u8`],
//! [`ErrorTree1d::support_starts`], [`ErrorTree1d::support_ends`]); the
//! per-node accessors keep their historical signatures and read from
//! the same arrays, so the two views can never diverge.

use crate::{is_pow2, log2_exact, transform, HaarError};
use wsyn_core::{narrow_u32, narrow_u8};

/// The two children of an internal error-tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Children {
    /// Root case (`j = 0`, `N > 1`): a single coefficient child, `c_1`.
    RootCoeff(usize),
    /// Root case (`j = 0`, `N = 1`): a single leaf child, `d_0`.
    RootLeaf(usize),
    /// Two coefficient children `(c_{2j}, c_{2j+1})`.
    Coeffs(usize, usize),
    /// Two leaf children `(d_{2j-N}, d_{2j+1-N})` (data indices).
    Leaves(usize, usize),
}

/// One-dimensional Haar error tree over `N = 2^m` data values.
///
/// Struct-of-arrays storage (module docs): the unnormalized coefficient
/// array plus precomputed per-node levels and support bounds as flat
/// slices. All structural queries are `O(1)` slice reads; paths are
/// `O(log N)`.
///
/// Invariants (established at construction, relied on by the slice
/// consumers):
///
/// * all four arrays have length `N`, a power of two with `N < 2^32`;
/// * `levels[j] == transform::level(j)` (so `levels` is non-decreasing
///   and `levels[j] ≤ 31`);
/// * `support_starts[j]..support_ends[j]` is exactly the §2.1 support
///   of `c_j`: `0..N` for `j ≤ 1`, else
///   `(j - 2^l)·N/2^l .. (j - 2^l + 1)·N/2^l` with `l = levels[j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorTree1d {
    coeffs: Vec<f64>,
    levels: Vec<u8>,
    sup_start: Vec<u32>,
    sup_end: Vec<u32>,
}

impl ErrorTree1d {
    /// Builds the error tree for a data vector (computes the transform).
    ///
    /// # Errors
    /// Propagates [`HaarError`] for empty / non-power-of-two input, and
    /// [`HaarError::NonFinite`] for a `NaN` or infinite value (the
    /// solvers' arithmetic assumes finite data).
    pub fn from_data(data: &[f64]) -> Result<Self, HaarError> {
        Self::from_coeffs(transform::forward(data)?)
    }

    /// Wraps an existing unnormalized coefficient array and precomputes
    /// the structural SoA slices.
    ///
    /// # Errors
    /// [`HaarError`] if the length is empty or not a power of two.
    pub fn from_coeffs(coeffs: Vec<f64>) -> Result<Self, HaarError> {
        if coeffs.is_empty() {
            return Err(HaarError::Empty);
        }
        let n = coeffs.len();
        if !is_pow2(n) {
            return Err(HaarError::NotPowerOfTwo { len: n });
        }
        let n_u32 = narrow_u32(n);
        let mut levels = Vec::with_capacity(n);
        let mut sup_start = Vec::with_capacity(n);
        let mut sup_end = Vec::with_capacity(n);
        for j in 0..n {
            if j <= 1 {
                // c_0 and c_1 sit at level 0 and support the whole domain.
                levels.push(0);
                sup_start.push(0);
                sup_end.push(n_u32);
            } else {
                let l = transform::level(j);
                let width = n >> l;
                let pos = j - (1usize << l);
                levels.push(narrow_u8(l as usize));
                sup_start.push(narrow_u32(pos * width));
                sup_end.push(narrow_u32((pos + 1) * width));
            }
        }
        Ok(Self {
            coeffs,
            levels,
            sup_start,
            sup_end,
        })
    }

    /// Domain size `N` (number of data values == number of coefficients).
    #[inline]
    pub fn n(&self) -> usize {
        self.coeffs.len()
    }

    /// Number of resolution levels, `log2 N`.
    #[inline]
    pub fn levels(&self) -> u32 {
        log2_exact(self.n())
    }

    /// The unnormalized coefficient array `W_A` (SoA slice).
    #[inline]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Per-node resolution levels as a flat slice (`levels_u8()[j] ==
    /// transform::level(j)`, which fits a `u8` for any `N < 2^32`).
    #[inline]
    pub fn levels_u8(&self) -> &[u8] {
        &self.levels
    }

    /// Per-node support starts as a flat slice
    /// (`support_starts()[j] == support(j).start`).
    #[inline]
    pub fn support_starts(&self) -> &[u32] {
        &self.sup_start
    }

    /// Per-node support ends as a flat slice
    /// (`support_ends()[j] == support(j).end`).
    #[inline]
    pub fn support_ends(&self) -> &[u32] {
        &self.sup_end
    }

    /// Value of coefficient `c_j`.
    #[inline]
    pub fn coeff(&self, j: usize) -> f64 {
        self.coeffs[j]
    }

    /// Resolution level of coefficient `c_j` (see [`transform::level`]).
    #[inline]
    pub fn level(&self, j: usize) -> u32 {
        u32::from(self.levels[j])
    }

    /// Children of internal node `c_j`.
    ///
    /// # Panics
    /// Panics if `j >= N` (leaves have no children).
    pub fn children(&self, j: usize) -> Children {
        let n = self.n();
        assert!(j < n, "c_{j} is not an internal node (N = {n})");
        if j == 0 {
            return if n == 1 {
                Children::RootLeaf(0)
            } else {
                Children::RootCoeff(1)
            };
        }
        let l = 2 * j;
        if l < n {
            Children::Coeffs(l, l + 1)
        } else {
            Children::Leaves(l - n, l + 1 - n)
        }
    }

    /// Parent coefficient index of internal node `c_j` (`j >= 1`).
    ///
    /// `c_1`'s parent is `c_0`; otherwise `parent(j) = j / 2`.
    #[inline]
    pub fn parent(&self, j: usize) -> usize {
        debug_assert!(j >= 1 && j < self.n());
        if j == 1 {
            0
        } else {
            j / 2
        }
    }

    /// Support region of coefficient `c_j`: the contiguous range of data
    /// indices whose reconstruction involves `c_j`.
    ///
    /// `c_0` and `c_1` support the whole domain; `c_j` (`j >= 2`) at level
    /// `l` supports `(j - 2^l) * N/2^l .. (j - 2^l + 1) * N/2^l`. A pair
    /// of branch-free SoA reads.
    #[inline]
    pub fn support(&self, j: usize) -> std::ops::Range<usize> {
        self.sup_start[j] as usize..self.sup_end[j] as usize
    }

    /// Sign of coefficient `c_j`'s contribution to data value `d_i`
    /// (Equation (1)): `+1.0`, `-1.0`, or `0.0` when `d_i` is outside the
    /// support of `c_j`.
    pub fn sign(&self, j: usize, i: usize) -> f64 {
        let sup = self.support(j);
        if !sup.contains(&i) {
            return 0.0;
        }
        if j == 0 {
            return 1.0;
        }
        let mid = sup.start + (sup.end - sup.start) / 2;
        if i < mid {
            1.0
        } else {
            -1.0
        }
    }

    /// Non-allocating ancestor walk of leaf `d_i`: yields the same
    /// `(coefficient index, sign)` pairs as [`Self::path`], root first,
    /// without building a `Vec`. This is the form the per-query
    /// consumers (AQP point queries, streaming point updates) iterate.
    ///
    /// # Panics
    /// Panics if `i >= N`.
    pub fn path_iter(&self, i: usize) -> PathIter {
        let n = self.n();
        assert!(i < n, "leaf index {i} out of range (N = {n})");
        PathIter {
            i,
            m: self.levels(),
            pos: 0,
        }
    }

    /// Ancestor path of leaf `d_i`: the coefficient indices on the path from
    /// the root down to (and including) the finest coefficient covering
    /// `d_i`, together with the contribution sign of each. Ordered root
    /// first. Length is `log2 N + 1` (or 1 when `N = 1`).
    ///
    /// Unlike the paper's `path(u)` (which drops zero coefficients because
    /// they can never be usefully retained), this method returns *all*
    /// structural ancestors; filter on [`Self::coeff`] if needed. Allocates
    /// — prefer [`Self::path_iter`] on hot paths.
    pub fn path(&self, i: usize) -> Vec<(usize, f64)> {
        self.path_iter(i).collect()
    }

    /// Reconstructs data value `d_i` via Equation (1) (`O(log N)`).
    pub fn reconstruct(&self, i: usize) -> f64 {
        self.path_iter(i).map(|(j, s)| s * self.coeffs[j]).sum()
    }

    /// Reconstructs the full data vector (`O(N)` via the inverse transform).
    pub fn reconstruct_all(&self) -> Vec<f64> {
        let mut out = self.coeffs.clone();
        transform::inverse_in_place(&mut out);
        out
    }

    /// Reconstructs data value `d_i` using only a retained subset of
    /// coefficients, supplied as a predicate over coefficient indices.
    /// Dropped coefficients are treated as zero (§2.3).
    pub fn reconstruct_with<F: Fn(usize) -> bool>(&self, i: usize, retained: F) -> f64 {
        self.path_iter(i)
            .filter(|&(j, _)| retained(j))
            .map(|(j, s)| s * self.coeffs[j])
            .sum()
    }

    /// Per-node subtree maxima of an arbitrary per-leaf value, in the
    /// combined-array indexing of the incoming-error DPs: slot `n + i`
    /// holds `leaf_vals[i]` itself, slot `j` (`1 <= j < n`) holds the
    /// maximum of `leaf_vals` over `c_j`'s support, and slot `0` mirrors
    /// slot `1` (the root's single child covers the whole domain).
    ///
    /// One `O(N)` bottom-up pass over the flat combined array — a
    /// branch-light linear scan, computed once per metric. The
    /// branch-and-bound kernel divides incoming error magnitudes by
    /// these maxima to get admissible per-subtree lower bounds: a leaf's
    /// contribution is `|e| / denom`, so dividing by the subtree's
    /// *largest* denominator never overestimates any leaf's error.
    ///
    /// # Panics
    /// Panics when `leaf_vals.len() != self.n()`.
    #[must_use]
    pub fn subtree_leaf_max(&self, leaf_vals: &[f64]) -> Vec<f64> {
        let n = self.n();
        assert_eq!(leaf_vals.len(), n, "one value per leaf");
        let mut out = vec![0.0; 2 * n];
        out[n..].copy_from_slice(leaf_vals);
        for j in (1..n).rev() {
            // Children of c_j live at combined slots 2j and 2j+1
            // whether they are coefficients (2j < n) or leaves
            // (slot n + (2j - n) == 2j).
            let l = out[2 * j];
            let r = out[2 * j + 1];
            out[j] = if l >= r { l } else { r };
        }
        // Root: single child c_1 (or leaf slot 1 == n + 0 when n == 1).
        out[0] = out[1];
        out
    }
}

/// Iterator over the ancestor path of one leaf (see
/// [`ErrorTree1d::path_iter`]): `(coefficient index, sign)` pairs, root
/// first, `log2 N + 1` items.
#[derive(Debug, Clone)]
pub struct PathIter {
    /// Leaf (data) index being walked.
    i: usize,
    /// `log2 N`.
    m: u32,
    /// Next emission: `0` is the root, `1 + l` is level `l`'s covering
    /// coefficient.
    pos: u32,
}

impl Iterator for PathIter {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        if self.pos == 0 {
            self.pos = 1;
            return Some((0, 1.0));
        }
        let l = self.pos - 1;
        if l >= self.m {
            return None;
        }
        self.pos += 1;
        // At level l the covering coefficient is 2^l + (i >> (m - l))
        // and the sign is determined by bit (m - l - 1).
        let j = (1usize << l) + (self.i >> (self.m - l));
        let sign = if (self.i >> (self.m - l - 1)) & 1 == 0 {
            1.0
        } else {
            -1.0
        };
        Some((j, sign))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.m + 1 - self.pos.min(self.m + 1)) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for PathIter {}

#[cfg(test)]
mod tests {
    #![allow(clippy::needless_range_loop)] // index loops read clearer in assertions
    use super::*;

    const EXAMPLE: [f64; 8] = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];

    fn tree() -> ErrorTree1d {
        ErrorTree1d::from_data(&EXAMPLE).unwrap()
    }

    #[test]
    fn paper_example_d4_equals_c0_minus_c1_plus_c6() {
        // §2.1: d_4 = c_0 - c_1 + c_6 = 11/4 + 5/4 - 1 = 3.
        let t = tree();
        let path = t.path(4);
        let indices: Vec<usize> = path.iter().map(|&(j, _)| j).collect();
        assert_eq!(indices, vec![0, 1, 3, 6]);
        let signs: Vec<f64> = path.iter().map(|&(_, s)| s).collect();
        assert_eq!(signs, vec![1.0, -1.0, 1.0, 1.0]); // c_3 is 0 in the example
        assert_eq!(t.reconstruct(4), 3.0);
    }

    #[test]
    fn reconstruct_matches_inverse_transform() {
        let t = tree();
        let all = t.reconstruct_all();
        assert_eq!(all, EXAMPLE.to_vec());
        for i in 0..8 {
            assert_eq!(t.reconstruct(i), EXAMPLE[i], "d_{i}");
        }
    }

    #[test]
    fn children_structure_matches_figure_1a() {
        let t = tree();
        assert_eq!(t.children(0), Children::RootCoeff(1));
        assert_eq!(t.children(1), Children::Coeffs(2, 3));
        assert_eq!(t.children(2), Children::Coeffs(4, 5));
        assert_eq!(t.children(3), Children::Coeffs(6, 7));
        assert_eq!(t.children(4), Children::Leaves(0, 1));
        assert_eq!(t.children(7), Children::Leaves(6, 7));
    }

    #[test]
    fn parent_inverts_children() {
        let t = tree();
        for j in 1..8 {
            let p = t.parent(j);
            match t.children(p) {
                Children::RootCoeff(c) => assert_eq!(c, j),
                Children::Coeffs(l, r) => assert!(j == l || j == r),
                _ => panic!("unexpected"),
            }
        }
    }

    #[test]
    fn supports() {
        let t = tree();
        assert_eq!(t.support(0), 0..8);
        assert_eq!(t.support(1), 0..8);
        assert_eq!(t.support(2), 0..4);
        assert_eq!(t.support(3), 4..8);
        assert_eq!(t.support(6), 4..6);
        assert_eq!(t.support(7), 6..8);
    }

    #[test]
    fn soa_slices_expose_the_same_structure() {
        let t = tree();
        assert_eq!(t.levels_u8(), &[0, 0, 1, 1, 2, 2, 2, 2]);
        assert_eq!(t.support_starts(), &[0, 0, 0, 4, 0, 2, 4, 6]);
        assert_eq!(t.support_ends(), &[8, 8, 4, 8, 2, 4, 6, 8]);
        for j in 0..8 {
            assert_eq!(t.level(j), transform::level(j), "c_{j}");
        }
    }

    #[test]
    fn signs_flip_at_support_midpoint() {
        let t = tree();
        assert_eq!(t.sign(1, 0), 1.0);
        assert_eq!(t.sign(1, 3), 1.0);
        assert_eq!(t.sign(1, 4), -1.0);
        assert_eq!(t.sign(6, 4), 1.0);
        assert_eq!(t.sign(6, 5), -1.0);
        assert_eq!(t.sign(6, 0), 0.0); // outside support
        for i in 0..8 {
            assert_eq!(t.sign(0, i), 1.0); // root always +
        }
    }

    #[test]
    fn single_value_tree() {
        let t = ErrorTree1d::from_data(&[5.0]).unwrap();
        assert_eq!(t.children(0), Children::RootLeaf(0));
        assert_eq!(t.path(0), vec![(0, 1.0)]);
        assert_eq!(t.reconstruct(0), 5.0);
        assert_eq!(t.levels_u8(), &[0]);
        assert_eq!(t.support_starts(), &[0]);
        assert_eq!(t.support_ends(), &[1]);
    }

    #[test]
    fn reconstruct_with_subset() {
        let t = tree();
        // Retaining only c_0 reconstructs every value as the overall average.
        for i in 0..8 {
            assert_eq!(t.reconstruct_with(i, |j| j == 0), 11.0 / 4.0);
        }
        // Retaining everything reconstructs exactly.
        for i in 0..8 {
            assert_eq!(t.reconstruct_with(i, |_| true), EXAMPLE[i]);
        }
        // Retaining nothing reconstructs zero.
        for i in 0..8 {
            assert_eq!(t.reconstruct_with(i, |_| false), 0.0);
        }
    }

    #[test]
    fn path_lengths_are_logn_plus_one() {
        for m in 0..6u32 {
            let n = 1usize << m;
            let t = ErrorTree1d::from_coeffs(vec![1.0; n]).unwrap();
            for i in 0..n {
                assert_eq!(t.path(i).len(), m as usize + 1);
                let it = t.path_iter(i);
                assert_eq!(it.len(), m as usize + 1); // ExactSizeIterator
            }
        }
    }

    #[test]
    fn from_coeffs_validates() {
        assert!(ErrorTree1d::from_coeffs(vec![]).is_err());
        assert!(ErrorTree1d::from_coeffs(vec![1.0; 3]).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn pow2_vec() -> impl Strategy<Value = Vec<f64>> {
        (0u32..=7).prop_flat_map(|m| proptest::collection::vec(-1e5f64..1e5, 1usize << m))
    }

    /// Support of `c_j` by the §2.1 formula — the pre-SoA per-call
    /// computation, kept as the oracle for the precomputed slices.
    fn formula_support(n: usize, j: usize) -> std::ops::Range<usize> {
        if j <= 1 {
            return 0..n;
        }
        let l = transform::level(j);
        let width = n >> l;
        let pos = j - (1 << l);
        pos * width..(pos + 1) * width
    }

    proptest! {
        #[test]
        fn equation_1_reconstruction_matches_inverse(data in pow2_vec()) {
            let t = ErrorTree1d::from_data(&data).unwrap();
            let all = t.reconstruct_all();
            for i in 0..data.len() {
                let via_path = t.reconstruct(i);
                prop_assert!((via_path - all[i]).abs() <= 1e-6 * (1.0 + all[i].abs()));
                prop_assert!((via_path - data[i]).abs() <= 1e-6 * (1.0 + data[i].abs()));
            }
        }

        #[test]
        fn sign_function_agrees_with_path(data in pow2_vec()) {
            let t = ErrorTree1d::from_data(&data).unwrap();
            for i in 0..data.len() {
                for (j, s) in t.path(i) {
                    prop_assert_eq!(t.sign(j, i), s);
                }
            }
        }

        #[test]
        fn soa_layout_reproduces_formula_accessors(data in pow2_vec()) {
            // The SoA arrays must be indistinguishable from the old
            // per-call formula layout: level via transform::level,
            // support via the §2.1 arithmetic, coeff via the transform.
            let t = ErrorTree1d::from_data(&data).unwrap();
            let n = data.len();
            let forward = transform::forward(&data).unwrap();
            prop_assert_eq!(t.coeffs(), forward.as_slice());
            for (j, &w) in forward.iter().enumerate() {
                prop_assert_eq!(t.coeff(j).to_bits(), w.to_bits());
                prop_assert_eq!(t.level(j), transform::level(j), "level c_{}", j);
                prop_assert_eq!(u32::from(t.levels_u8()[j]), transform::level(j));
                let sup = formula_support(n, j);
                prop_assert_eq!(t.support(j), sup.clone(), "support c_{}", j);
                prop_assert_eq!(t.support_starts()[j] as usize, sup.start);
                prop_assert_eq!(t.support_ends()[j] as usize, sup.end);
            }
        }

        #[test]
        fn path_iter_matches_path(data in pow2_vec()) {
            let t = ErrorTree1d::from_data(&data).unwrap();
            for i in 0..data.len() {
                let collected: Vec<(usize, f64)> = t.path_iter(i).collect();
                prop_assert_eq!(collected, t.path(i));
            }
        }

        #[test]
        fn subtree_leaf_max_matches_naive_support_scan(data in pow2_vec()) {
            let t = ErrorTree1d::from_data(&data).unwrap();
            let n = data.len();
            let vals: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.37 % 5.0).collect();
            let got = t.subtree_leaf_max(&vals);
            prop_assert_eq!(got.len(), 2 * n);
            for (i, &v) in vals.iter().enumerate() {
                prop_assert_eq!(got[n + i], v);
            }
            for (j, &combined) in got.iter().enumerate().take(n) {
                let naive = t
                    .support(j)
                    .map(|i| vals[i])
                    .fold(f64::NEG_INFINITY, f64::max);
                prop_assert_eq!(combined, naive, "node {}", j);
            }
        }

        #[test]
        fn ancestors_have_constant_sign_over_subtrees(data in pow2_vec()) {
            // The property the incoming-error DP relies on: an ancestor's
            // sign is constant over all leaves of each child subtree.
            let t = ErrorTree1d::from_data(&data).unwrap();
            let n = data.len();
            for j in 1..n {
                let sup = t.support(j);
                let mid = sup.start + (sup.end - sup.start) / 2;
                for i in sup.start..mid {
                    prop_assert_eq!(t.sign(j, i), 1.0);
                }
                for i in mid..sup.end {
                    prop_assert_eq!(t.sign(j, i), -1.0);
                }
            }
        }
    }
}
