//! Multi-dimensional Haar wavelets (§2.2 of the paper).
//!
//! [`nonstandard`] implements the **nonstandard** decomposition used by the
//! paper's multi-dimensional error tree (Figures 1(b) and 2): at every
//! resolution level, one pairwise averaging/differencing step is applied
//! along *each* dimension, then the algorithm recurses on the low-pass
//! hypercube. It requires all sides equal (a `2^m` hypercube).
//!
//! [`tree::ErrorTreeNd`] exposes the nonstandard coefficients as the error
//! tree of §2.2: each non-root node holds the `2^D - 1` coefficients sharing
//! a support region, and has `2^D` children (the quadrants of that region);
//! the root holds the single overall average and has one child.

pub mod nonstandard;
pub mod tree;

pub use tree::{ErrorTreeNd, NodeChildren, NodeCoeff, NodeRef};

use crate::{is_pow2, HaarError};

/// Shape of a `D`-dimensional data array; every side must be a power of two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NdShape {
    sides: Vec<usize>,
}

impl NdShape {
    /// Creates a shape from dimension sides (row-major order; the **last**
    /// dimension varies fastest in the flat buffer).
    ///
    /// # Errors
    /// [`HaarError::ZeroDimensional`] for an empty side list,
    /// [`HaarError::NotPowerOfTwo`] if any side is not a power of two.
    pub fn new(sides: Vec<usize>) -> Result<Self, HaarError> {
        if sides.is_empty() {
            return Err(HaarError::ZeroDimensional);
        }
        for &s in &sides {
            if !is_pow2(s) {
                return Err(HaarError::NotPowerOfTwo { len: s });
            }
        }
        Ok(Self { sides })
    }

    /// Convenience constructor for a hypercube `side^d`.
    ///
    /// # Errors
    /// Same as [`NdShape::new`].
    pub fn hypercube(side: usize, d: usize) -> Result<Self, HaarError> {
        Self::new(vec![side; d])
    }

    /// Number of dimensions `D`.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.sides.len()
    }

    /// Side lengths per dimension.
    #[inline]
    pub fn sides(&self) -> &[usize] {
        &self.sides
    }

    /// Total number of cells (product of sides).
    #[inline]
    pub fn len(&self) -> usize {
        self.sides.iter().product()
    }

    /// Whether the shape has zero cells (never true for valid shapes).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether all sides are equal (required by the nonstandard transform).
    pub fn is_hypercube(&self) -> bool {
        self.sides.windows(2).all(|w| w[0] == w[1])
    }

    /// Side and dimension count of a hypercube shape.
    ///
    /// # Errors
    /// [`HaarError::UnequalSides`] unless all sides are equal.
    pub(crate) fn cube(&self) -> Result<(usize, usize), HaarError> {
        if !self.is_hypercube() {
            return Err(HaarError::UnequalSides);
        }
        Ok((self.sides[0], self.ndims()))
    }

    /// Row-major linear index of `coords` (last dimension fastest).
    ///
    /// # Panics
    /// Debug-panics when a coordinate is out of range.
    #[inline]
    pub fn linearize(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.ndims());
        let mut idx = 0usize;
        for (c, s) in coords.iter().zip(&self.sides) {
            debug_assert!(c < s, "coordinate {c} out of range for side {s}");
            idx = idx * s + c;
        }
        idx
    }

    /// Inverse of [`NdShape::linearize`].
    pub fn delinearize(&self, mut idx: usize) -> Vec<usize> {
        let mut coords = vec![0usize; self.ndims()];
        for k in (0..self.ndims()).rev() {
            coords[k] = idx % self.sides[k];
            idx /= self.sides[k];
        }
        coords
    }
}

/// A dense `D`-dimensional array of `f64` cells in row-major layout.
#[derive(Debug, Clone, PartialEq)]
pub struct NdArray {
    shape: NdShape,
    data: Vec<f64>,
}

impl NdArray {
    /// Wraps a flat buffer with a shape.
    ///
    /// # Errors
    /// [`HaarError::ShapeMismatch`] when `data.len() != shape.len()`.
    pub fn new(shape: NdShape, data: Vec<f64>) -> Result<Self, HaarError> {
        if data.len() != shape.len() {
            return Err(HaarError::ShapeMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// A zero-filled array.
    pub fn zeros(shape: NdShape) -> Self {
        let n = shape.len();
        Self {
            shape,
            data: vec![0.0; n],
        }
    }

    /// The array's shape.
    #[inline]
    pub fn shape(&self) -> &NdShape {
        &self.shape
    }

    /// Flat row-major cell buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Cell value at multi-dimensional `coords`.
    #[inline]
    pub fn get(&self, coords: &[usize]) -> f64 {
        self.data[self.shape.linearize(coords)]
    }

    /// Sets the cell at `coords`.
    #[inline]
    pub fn set(&mut self, coords: &[usize], v: f64) {
        let idx = self.shape.linearize(coords);
        self.data[idx] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_validation() {
        assert_eq!(
            NdShape::new(vec![]).unwrap_err(),
            HaarError::ZeroDimensional
        );
        assert_eq!(
            NdShape::new(vec![4, 3]).unwrap_err(),
            HaarError::NotPowerOfTwo { len: 3 }
        );
        let s = NdShape::new(vec![4, 8]).unwrap();
        assert_eq!(s.ndims(), 2);
        assert_eq!(s.len(), 32);
        assert!(!s.is_hypercube());
        assert!(NdShape::hypercube(4, 3).unwrap().is_hypercube());
    }

    #[test]
    fn linearize_roundtrip() {
        let s = NdShape::new(vec![2, 4, 8]).unwrap();
        for idx in 0..s.len() {
            let c = s.delinearize(idx);
            assert_eq!(s.linearize(&c), idx);
        }
        // Last dimension fastest.
        assert_eq!(s.linearize(&[0, 0, 1]), 1);
        assert_eq!(s.linearize(&[0, 1, 0]), 8);
        assert_eq!(s.linearize(&[1, 0, 0]), 32);
    }

    #[test]
    fn ndarray_shape_mismatch() {
        let s = NdShape::new(vec![2, 2]).unwrap();
        assert_eq!(
            NdArray::new(s, vec![0.0; 5]).unwrap_err(),
            HaarError::ShapeMismatch {
                expected: 4,
                actual: 5
            }
        );
    }

    #[test]
    fn get_set() {
        let s = NdShape::new(vec![2, 2]).unwrap();
        let mut a = NdArray::zeros(s);
        a.set(&[1, 0], 3.5);
        assert_eq!(a.get(&[1, 0]), 3.5);
        assert_eq!(a.data()[2], 3.5);
    }
}
