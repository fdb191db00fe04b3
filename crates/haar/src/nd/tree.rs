//! Multi-dimensional Haar error tree (§2.2, Figure 2).
//!
//! In the `D`-dimensional error tree over a `2^m`-per-side hypercube:
//!
//! * the **root** holds the single overall-average coefficient and has one
//!   child (the level-0 node);
//! * every **inner node** at level `l ∈ [0, m)` corresponds to a hypercubic
//!   support region of side `2^{m-l}` and holds the `2^D - 1` detail
//!   coefficients sharing that region (those at array positions
//!   `q + b·2^l` for offset masks `b ∈ {0,1}^D \ {0}`, where
//!   `q ∈ [0, 2^l)^D` is the node position);
//! * an inner node's `2^D` children are the quadrants of its support:
//!   nodes `(l+1, 2q + δ)` for `δ ∈ {0,1}^D`, or individual data cells when
//!   `l = m - 1`;
//! * coefficient `b` contributes to quadrant `δ` with sign
//!   `(-1)^popcount(b & δ)` — Figure 1(b)'s quadrant-sign rule.
//!
//! For `D = 1` this degenerates exactly to the one-dimensional error tree of
//! [`crate::tree1d`], which the tests verify.

use wsyn_core::{narrow_u32, narrow_u8};

use super::{nonstandard, NdArray};
use crate::{log2_exact, HaarError};

/// Reference to an inner error-tree node: resolution `level` (0 =
/// coarsest) and row-major `index` within the `[0, 2^level)^D` grid of
/// nodes at that level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef {
    /// Resolution level, `0..m`.
    pub level: u8,
    /// Row-major node index within the level grid.
    pub index: u32,
}

impl NodeRef {
    /// Packs the reference into a single `u64` (for memo keys).
    #[inline]
    pub fn key(self) -> u64 {
        (u64::from(self.level) << 56) | u64::from(self.index)
    }

    /// Packs the node reference together with a 64-bit incoming-error
    /// payload (float bits or a sign-extended integer) into the `u128`
    /// state key the DP memo tables use: node key in the high half,
    /// error bits in the low half.
    #[inline]
    pub fn state_key(self, error_bits: u64) -> u128 {
        (u128::from(self.key()) << 64) | u128::from(error_bits)
    }
}

/// Children of an error-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeChildren {
    /// Inner-node children (the `2^D` quadrants), ordered by quadrant mask
    /// `δ = 0..2^D` (bit `k` of `δ` selects the high half along dim `k`).
    Nodes(Vec<NodeRef>),
    /// Data-cell children (linear cell indices), same quadrant order.
    Cells(Vec<usize>),
}

/// One coefficient stored in an inner node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCoeff {
    /// Offset mask `b ∈ {0,1}^D \ {0}`: bit `k` set means the coefficient
    /// sits at offset `2^level` along dimension `k`.
    pub bmask: u32,
    /// Linear position in the coefficient array.
    pub pos: usize,
    /// Unnormalized coefficient value.
    pub value: f64,
}

/// Multi-dimensional Haar error tree over a `2^m`-per-side hypercube.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorTreeNd {
    coeffs: NdArray,
    side: usize,
    m: u32,
    d: usize,
}

impl ErrorTreeNd {
    /// Builds the error tree for a data hypercube (computes the
    /// nonstandard transform).
    ///
    /// # Errors
    /// [`HaarError::UnequalSides`] unless the shape is a hypercube, and
    /// [`HaarError::NonFinite`] for a `NaN` or infinite cell (the
    /// solvers' arithmetic assumes finite data).
    pub fn from_data(data: &NdArray) -> Result<Self, HaarError> {
        Self::from_coeffs(nonstandard::forward(data)?)
    }

    /// Wraps an existing nonstandard coefficient array.
    ///
    /// # Errors
    /// [`HaarError::UnequalSides`] unless the shape is a hypercube.
    pub fn from_coeffs(coeffs: NdArray) -> Result<Self, HaarError> {
        let (side, d) = coeffs.shape().cube()?;
        let m = log2_exact(side);
        Ok(Self { coeffs, side, m, d })
    }

    /// Number of dimensions `D`.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.d
    }

    /// Side length `2^m` per dimension.
    #[inline]
    pub fn side(&self) -> usize {
        self.side
    }

    /// Number of resolution levels `m`.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.m
    }

    /// Total number of cells `N = side^D`.
    #[inline]
    pub fn n(&self) -> usize {
        self.coeffs.shape().len()
    }

    /// The underlying nonstandard coefficient array.
    #[inline]
    pub fn coeffs(&self) -> &NdArray {
        &self.coeffs
    }

    /// The overall-average (root) coefficient and its linear position (0).
    #[inline]
    pub fn root_average(&self) -> f64 {
        self.coeffs.data()[0]
    }

    /// Number of inner nodes at `level`: `2^(level·D)`.
    #[inline]
    pub fn nodes_at_level(&self, level: u8) -> usize {
        1usize << (level as usize * self.d)
    }

    /// Iterates all inner nodes, coarsest level first.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeRef> + '_ {
        (0..narrow_u8(self.m as usize)).flat_map(move |level| {
            (0..narrow_u32(self.nodes_at_level(level))).map(move |index| NodeRef { level, index })
        })
    }

    /// Node position `q ∈ [0, 2^level)^D` from its row-major index.
    pub fn node_pos(&self, node: NodeRef) -> Vec<usize> {
        let grid = 1usize << node.level;
        let mut idx = node.index as usize;
        let mut q = vec![0usize; self.d];
        for k in (0..self.d).rev() {
            q[k] = idx % grid;
            idx /= grid;
        }
        q
    }

    /// Row-major node index from position `q` at `level`.
    pub fn node_index(&self, level: u8, q: &[usize]) -> NodeRef {
        let grid = 1usize << level;
        let mut idx = 0usize;
        for &c in q {
            debug_assert!(c < grid);
            idx = idx * grid + c;
        }
        NodeRef {
            level,
            index: narrow_u32(idx),
        }
    }

    /// The `2^D - 1` detail coefficients held by an inner node, ordered by
    /// offset mask `b = 1..2^D`.
    pub fn node_coeffs(&self, node: NodeRef) -> Vec<NodeCoeff> {
        let q = self.node_pos(node);
        let off = 1usize << node.level;
        let nb = 1u32 << self.d;
        let mut out = Vec::with_capacity(nb as usize - 1);
        let mut coord = vec![0usize; self.d];
        for bmask in 1..nb {
            for k in 0..self.d {
                coord[k] = q[k] + if (bmask >> k) & 1 == 1 { off } else { 0 };
            }
            let pos = self.coeffs.shape().linearize(&coord);
            out.push(NodeCoeff {
                bmask,
                pos,
                value: self.coeffs.data()[pos],
            });
        }
        out
    }

    /// Children of an inner node, ordered by quadrant mask `δ = 0..2^D`.
    pub fn children(&self, node: NodeRef) -> NodeChildren {
        let q = self.node_pos(node);
        let nq = 1usize << self.d;
        if u32::from(node.level) + 1 < self.m {
            let lvl = node.level + 1;
            let mut out = Vec::with_capacity(nq);
            let mut child_q = vec![0usize; self.d];
            for delta in 0..nq {
                for k in 0..self.d {
                    child_q[k] = 2 * q[k] + ((delta >> k) & 1);
                }
                out.push(self.node_index(lvl, &child_q));
            }
            NodeChildren::Nodes(out)
        } else {
            // level == m - 1 (or m == 0 handled by root_children): children
            // are the individual data cells of the 2-per-side support box.
            let mut out = Vec::with_capacity(nq);
            let mut cell = vec![0usize; self.d];
            for delta in 0..nq {
                for k in 0..self.d {
                    cell[k] = 2 * q[k] + ((delta >> k) & 1);
                }
                out.push(self.coeffs.shape().linearize(&cell));
            }
            NodeChildren::Cells(out)
        }
    }

    /// Children of the conceptual root node (holding the overall average).
    /// A single level-0 node, or the single data cell when `m = 0`.
    pub fn root_children(&self) -> NodeChildren {
        if self.m == 0 {
            NodeChildren::Cells(vec![0])
        } else {
            NodeChildren::Nodes(vec![NodeRef { level: 0, index: 0 }])
        }
    }

    /// Sign of coefficient `bmask`'s contribution to quadrant `delta`:
    /// `(-1)^popcount(bmask & delta)`.
    #[inline]
    pub fn child_sign(bmask: u32, delta: u32) -> f64 {
        if (bmask & delta).count_ones() % 2 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// The inner nodes on the path from the root to data cell `x`
    /// (coarsest first; the conceptual root is not included).
    pub fn cell_path(&self, x: &[usize]) -> Vec<NodeRef> {
        debug_assert_eq!(x.len(), self.d);
        let mut out = Vec::with_capacity(self.m as usize);
        let mut q = vec![0usize; self.d];
        for l in 0..self.m {
            for k in 0..self.d {
                q[k] = x[k] >> (self.m - l);
            }
            out.push(self.node_index(narrow_u8(l as usize), &q));
        }
        out
    }

    /// Quadrant mask of cell `x` within the level-`l` node containing it:
    /// bit `k` is bit `(m - l - 1)` of `x_k`.
    pub fn cell_quadrant(&self, x: &[usize], level: u8) -> u32 {
        let shift = self.m - u32::from(level) - 1;
        let mut delta = 0u32;
        for (k, &xk) in x.iter().enumerate() {
            delta |= u32::from((xk >> shift) & 1 == 1) << k;
        }
        delta
    }

    /// Reconstructs a single data cell by summing its path contributions
    /// (the multi-dimensional Equation (1)); `O(2^D · m)`.
    pub fn reconstruct_cell(&self, x: &[usize]) -> f64 {
        let mut v = self.root_average();
        for node in self.cell_path(x) {
            let delta = self.cell_quadrant(x, node.level);
            for c in self.node_coeffs(node) {
                v += Self::child_sign(c.bmask, delta) * c.value;
            }
        }
        v
    }

    /// Reconstructs the full data array via the inverse transform (`O(N)`).
    ///
    /// # Panics
    /// Never (shape validated at construction).
    pub fn reconstruct_all(&self) -> NdArray {
        let mut out = self.coeffs.clone();
        // Shape was validated hypercube at construction; the inverse
        // transform cannot fail on it.
        // wsyn: allow(no-panic)
        nonstandard::inverse_in_place(&mut out).expect("validated hypercube");
        out
    }

    /// Reconstructs the full data array retaining only the coefficients at
    /// linear positions accepted by `retained` (others are zeroed — the
    /// synopsis semantics of §2.3).
    pub fn reconstruct_all_with<F: Fn(usize) -> bool>(&self, retained: F) -> NdArray {
        let mut out = self.coeffs.clone();
        for (pos, v) in out.data_mut().iter_mut().enumerate() {
            if !retained(pos) {
                *v = 0.0;
            }
        }
        // Shape was validated hypercube at construction; the inverse
        // transform cannot fail on it.
        // wsyn: allow(no-panic)
        nonstandard::inverse_in_place(&mut out).expect("validated hypercube");
        out
    }

    /// Linear indices of the data cells in the support of an inner node
    /// (the hypercube of side `2^{m-level}` at offset `q·2^{m-level}`).
    pub fn cells_under(&self, node: NodeRef) -> Vec<usize> {
        let q = self.node_pos(node);
        let width = self.side >> node.level;
        let count = width.pow(narrow_u32(self.d));
        let mut out = Vec::with_capacity(count);
        let mut rel = vec![0usize; self.d];
        let mut abs = vec![0usize; self.d];
        loop {
            for k in 0..self.d {
                abs[k] = q[k] * width + rel[k];
            }
            out.push(self.coeffs.shape().linearize(&abs));
            let mut k = self.d;
            loop {
                if k == 0 {
                    return out;
                }
                k -= 1;
                rel[k] += 1;
                if rel[k] < width {
                    break;
                }
                rel[k] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nd::NdShape;

    fn tree_4x4() -> ErrorTreeNd {
        let shape = NdShape::hypercube(4, 2).unwrap();
        let vals: Vec<f64> = (0..16).map(|i| f64::from((i * 7 + 3) % 13) - 5.0).collect();
        ErrorTreeNd::from_data(&NdArray::new(shape, vals).unwrap()).unwrap()
    }

    #[test]
    fn figure_2_structure() {
        // 4x4: root -> single level-0 node holding W[0,1], W[1,0], W[1,1];
        // its 4 children are the 2x2-quadrant level-1 nodes; the lower-left
        // quadrant child holds W[0,2], W[2,0], W[2,2].
        let t = tree_4x4();
        assert_eq!(t.levels(), 2);
        match t.root_children() {
            NodeChildren::Nodes(v) => assert_eq!(v, vec![NodeRef { level: 0, index: 0 }]),
            _ => panic!("root child should be a node"),
        }
        let top = NodeRef { level: 0, index: 0 };
        let coeffs = t.node_coeffs(top);
        let shape = t.coeffs().shape().clone();
        let positions: Vec<usize> = coeffs.iter().map(|c| c.pos).collect();
        // bmask 1 = offset in dim 0? bit k of bmask = dim k. bmask=1 -> (1,0).
        assert_eq!(
            positions,
            vec![
                shape.linearize(&[1, 0]),
                shape.linearize(&[0, 1]),
                shape.linearize(&[1, 1])
            ]
        );
        match t.children(top) {
            NodeChildren::Nodes(v) => {
                assert_eq!(v.len(), 4);
                // Quadrant delta=0 is the (0,0) quadrant node.
                assert_eq!(v[0], NodeRef { level: 1, index: 0 });
            }
            _ => panic!("level-0 children should be nodes for m=2"),
        }
        // The (0,0)-quadrant level-1 node holds W at (0,2),(2,0),(2,2).
        let ll = NodeRef { level: 1, index: 0 };
        let coeffs = t.node_coeffs(ll);
        let positions: Vec<usize> = coeffs.iter().map(|c| c.pos).collect();
        assert_eq!(
            positions,
            vec![
                shape.linearize(&[2, 0]),
                shape.linearize(&[0, 2]),
                shape.linearize(&[2, 2])
            ]
        );
        // Level-1 children are data cells.
        match t.children(ll) {
            NodeChildren::Cells(cells) => {
                // Quadrant mask bit k selects the high half along dim k, so
                // delta order is (0,0), (1,0), (0,1), (1,1).
                assert_eq!(
                    cells,
                    vec![
                        shape.linearize(&[0, 0]),
                        shape.linearize(&[1, 0]),
                        shape.linearize(&[0, 1]),
                        shape.linearize(&[1, 1])
                    ]
                );
            }
            _ => panic!("level-1 children should be cells for m=2"),
        }
    }

    #[test]
    fn node_counts() {
        let t = tree_4x4();
        assert_eq!(t.nodes_at_level(0), 1);
        assert_eq!(t.nodes_at_level(1), 4);
        assert_eq!(t.all_nodes().count(), 5);
        // Coefficient accounting: 1 (root avg) + 5 nodes * 3 coeffs = 16.
        let total: usize = t.all_nodes().map(|n| t.node_coeffs(n).len()).sum();
        assert_eq!(1 + total, 16);
    }

    #[test]
    fn reconstruct_cell_matches_inverse() {
        let t = tree_4x4();
        let full = t.reconstruct_all();
        for x0 in 0..4 {
            for x1 in 0..4 {
                let v = t.reconstruct_cell(&[x0, x1]);
                let w = full.get(&[x0, x1]);
                assert!((v - w).abs() < 1e-12, "cell ({x0},{x1}): {v} vs {w}");
            }
        }
    }

    #[test]
    fn reconstruct_cell_matches_inverse_3d() {
        let shape = NdShape::hypercube(4, 3).unwrap();
        let vals: Vec<f64> = (0..64).map(|i| f64::from((i * 11 + 5) % 17)).collect();
        let t = ErrorTreeNd::from_data(&NdArray::new(shape.clone(), vals).unwrap()).unwrap();
        let full = t.reconstruct_all();
        for idx in 0..shape.len() {
            let x = shape.delinearize(idx);
            assert!((t.reconstruct_cell(&x) - full.data()[idx]).abs() < 1e-12);
        }
    }

    #[test]
    fn d1_tree_matches_tree1d() {
        let vals = vec![2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
        let shape = NdShape::new(vec![8]).unwrap();
        let tn = ErrorTreeNd::from_data(&NdArray::new(shape, vals.clone()).unwrap()).unwrap();
        let t1 = crate::tree1d::ErrorTree1d::from_data(&vals).unwrap();
        // Node (l, q) holds exactly coefficient c_{2^l + q}.
        for node in tn.all_nodes() {
            let coeffs = tn.node_coeffs(node);
            assert_eq!(coeffs.len(), 1);
            let expect = (1usize << node.level) + node.index as usize;
            assert_eq!(coeffs[0].pos, expect);
            assert_eq!(coeffs[0].value, t1.coeff(expect));
        }
        // Signs: bmask=1, delta 0 (left) +, delta 1 (right) -.
        assert_eq!(ErrorTreeNd::child_sign(1, 0), 1.0);
        assert_eq!(ErrorTreeNd::child_sign(1, 1), -1.0);
    }

    #[test]
    fn quadrant_signs_balance() {
        // Every detail coefficient has equally many + and - quadrants
        // (needed by Proposition 3.3's sign navigation).
        for d in 1..=4usize {
            for bmask in 1u32..(1 << d) {
                let mut plus = 0;
                let mut minus = 0;
                for delta in 0..(1u32 << d) {
                    if ErrorTreeNd::child_sign(bmask, delta) > 0.0 {
                        plus += 1;
                    } else {
                        minus += 1;
                    }
                }
                assert_eq!(plus, minus, "d={d} bmask={bmask}");
            }
        }
    }

    #[test]
    fn cells_under_counts() {
        let t = tree_4x4();
        let top = NodeRef { level: 0, index: 0 };
        assert_eq!(t.cells_under(top).len(), 16);
        let ll = NodeRef { level: 1, index: 3 };
        let cells = t.cells_under(ll);
        assert_eq!(cells.len(), 4);
        let shape = t.coeffs().shape();
        // Node (1, q=(1,1)) supports cells (2..4, 2..4).
        let expect: Vec<usize> = vec![
            shape.linearize(&[2, 2]),
            shape.linearize(&[2, 3]),
            shape.linearize(&[3, 2]),
            shape.linearize(&[3, 3]),
        ];
        assert_eq!(cells, expect);
    }

    #[test]
    fn side_one_degenerate_tree() {
        let shape = NdShape::hypercube(1, 2).unwrap();
        let t = ErrorTreeNd::from_data(&NdArray::new(shape, vec![9.0]).unwrap()).unwrap();
        assert_eq!(t.levels(), 0);
        assert_eq!(t.root_children(), NodeChildren::Cells(vec![0]));
        assert_eq!(t.root_average(), 9.0);
        assert_eq!(t.all_nodes().count(), 0);
    }

    #[test]
    fn reconstruct_with_subset_zeroes_dropped() {
        let t = tree_4x4();
        // Retain only the root average: every cell reconstructs to it.
        let approx = t.reconstruct_all_with(|pos| pos == 0);
        for &v in approx.data() {
            assert!((v - t.root_average()).abs() < 1e-12);
        }
    }
}

#[cfg(test)]
mod proptests {
    #![allow(clippy::needless_range_loop)]
    use super::*;
    use crate::nd::NdShape;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn path_reconstruction_2d(side_exp in 0u32..=3, vals in proptest::collection::vec(-1e4f64..1e4, 64)) {
            let side = 1usize << side_exp;
            let shape = NdShape::hypercube(side, 2).unwrap();
            let vals: Vec<f64> = vals.into_iter().take(shape.len()).collect();
            prop_assume!(vals.len() == shape.len());
            let t = ErrorTreeNd::from_data(&NdArray::new(shape.clone(), vals.clone()).unwrap()).unwrap();
            for idx in 0..shape.len() {
                let x = shape.delinearize(idx);
                let v = t.reconstruct_cell(&x);
                prop_assert!((v - vals[idx]).abs() <= 1e-7 * (1.0 + vals[idx].abs()));
            }
        }

        #[test]
        fn ancestor_sign_constant_over_child_subtree(vals in proptest::collection::vec(-100f64..100.0, 64)) {
            // For every node coefficient and child quadrant: the sign of the
            // coefficient's contribution is identical for all cells in that
            // quadrant (foundation of the incoming-error DP).
            let shape = NdShape::hypercube(8, 2).unwrap();
            let vals: Vec<f64> = vals.into_iter().take(64).collect();
            let t = ErrorTreeNd::from_data(&NdArray::new(shape.clone(), vals).unwrap()).unwrap();
            for node in t.all_nodes() {
                if let NodeChildren::Nodes(children) = t.children(node) {
                    for (delta, child) in children.iter().enumerate() {
                        for cell in t.cells_under(*child) {
                            let x = shape.delinearize(cell);
                            let q = t.cell_quadrant(&x, node.level);
                            prop_assert_eq!(q, delta as u32);
                        }
                    }
                }
            }
        }
    }
}
