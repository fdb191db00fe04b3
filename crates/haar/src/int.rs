//! The integer-scaled Haar transform (§3.2.2).
//!
//! The `(1+ε)`-approximation scheme for maximum absolute error assumes all
//! wavelet coefficients are integers, which the paper obtains by scaling
//! integer data "by a factor of `O(2^{D log N}) = O(N^D)`". Concretely: for
//! a `2^m`-per-side `D`-dimensional integer array, pre-multiplying every
//! value by `2^{D·m}` makes every intermediate pairwise average — and hence
//! every coefficient — an exact integer, because the decomposition performs
//! exactly `D·m` halvings along any root-to-coefficient path.
//!
//! All arithmetic is checked; overflow surfaces as
//! [`HaarError::Overflow`] instead of wrapping.

use crate::nd::NdShape;
use crate::{cascade, log2_exact, HaarError};

/// Result of an integer-scaled transform: `coeffs[i] = scale * W_A[i]`,
/// all exactly integral.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaledCoeffs {
    /// Scaled integer coefficients (same layout as the f64 transform).
    pub coeffs: Vec<i64>,
    /// The scale factor (`2^m` in 1-D, `2^{D·m}` in D dimensions).
    pub scale: i64,
}

impl ScaledCoeffs {
    /// Maximum absolute scaled coefficient value (the paper's `R_Z`).
    pub fn max_abs(&self) -> i64 {
        self.coeffs.iter().map(|c| c.abs()).max().unwrap_or(0)
    }

    /// Converts back to unnormalized f64 coefficients (`c / scale`).
    pub fn to_f64(&self) -> Vec<f64> {
        let s = self.scale as f64;
        self.coeffs.iter().map(|&c| c as f64 / s).collect()
    }
}

/// Integer-scaled nonstandard D-dimensional Haar transform; scale is
/// `2^{D·m}` for a `2^m`-per-side hypercube (`N = 2^m` in 1-D).
///
/// # Errors
/// [`HaarError`] on non-hypercube shapes, shape mismatch, or overflow.
pub fn forward_scaled_nd(shape: &NdShape, data: &[i64]) -> Result<ScaledCoeffs, HaarError> {
    let (side, d) = shape.cube()?;
    if data.len() != shape.len() {
        return Err(HaarError::ShapeMismatch {
            expected: shape.len(),
            actual: data.len(),
        });
    }
    let total_shift = u32::try_from(d)
        .map_err(|_| HaarError::Overflow)?
        .checked_mul(log2_exact(side))
        .ok_or(HaarError::Overflow)?;
    if total_shift >= 63 {
        return Err(HaarError::Overflow);
    }
    let scale = 1i64 << total_shift;
    let mut buf = data
        .iter()
        .map(|&v| v.checked_mul(scale).ok_or(HaarError::Overflow))
        .collect::<Result<Vec<_>, _>>()?;
    cascade::forward_i64(&mut buf, side, d)?;
    Ok(ScaledCoeffs { coeffs: buf, scale })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nd::{nonstandard, NdArray};

    /// The transform over a 1-D shape of `data.len()` cells.
    fn scaled_1d(data: &[i64]) -> Result<ScaledCoeffs, HaarError> {
        forward_scaled_nd(&NdShape::new(vec![data.len()])?, data)
    }

    #[test]
    fn scaled_1d_matches_f64_transform() {
        let data = [2i64, 2, 0, 2, 3, 5, 4, 4];
        let sc = scaled_1d(&data).unwrap();
        assert_eq!(sc.scale, 8);
        let f: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        let w = crate::transform::forward(&f).unwrap();
        for (i, &c) in sc.coeffs.iter().enumerate() {
            assert_eq!(c as f64, w[i] * 8.0, "coeff {i}");
        }
        // Spot-check: W[0] = 11/4 -> 22; W[1] = -5/4 -> -10.
        assert_eq!(sc.coeffs[0], 22);
        assert_eq!(sc.coeffs[1], -10);
    }

    #[test]
    fn scaled_nd_matches_f64_transform() {
        let shape = NdShape::hypercube(4, 2).unwrap();
        let data: Vec<i64> = (0..16).map(|i| i64::from(i * i % 7) - 3).collect();
        let sc = forward_scaled_nd(&shape, &data).unwrap();
        assert_eq!(sc.scale, 16);
        let f: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        let w = nonstandard::forward(&NdArray::new(shape, f).unwrap()).unwrap();
        for (i, &c) in sc.coeffs.iter().enumerate() {
            assert_eq!(c as f64, w.data()[i] * 16.0, "coeff {i}");
        }
    }

    #[test]
    fn to_f64_roundtrip() {
        let sc = scaled_1d(&[7, -3, 12, 0]).unwrap();
        let w = crate::transform::forward(&[7.0, -3.0, 12.0, 0.0]).unwrap();
        assert_eq!(sc.to_f64(), w);
    }

    #[test]
    fn max_abs_reports_rz() {
        let sc = scaled_1d(&[100, -100, 0, 0]).unwrap();
        assert_eq!(
            sc.max_abs(),
            sc.coeffs.iter().map(|c| c.abs()).max().unwrap()
        );
        assert!(sc.max_abs() >= 400); // (100 - (-100))/2 * 4 = 400
    }

    #[test]
    fn overflow_detected() {
        // In the pairwise sum (the scaled cells still fit) ...
        assert_eq!(
            scaled_1d(&[i64::MAX / 2, i64::MAX / 2]).unwrap_err(),
            HaarError::Overflow
        );
        // ... and in the pre-scale.
        assert_eq!(
            scaled_1d(&[i64::MAX / 2, 0, 0, 0]).unwrap_err(),
            HaarError::Overflow
        );
    }

    #[test]
    fn bad_shapes_rejected() {
        // An empty or non-power-of-two 1-D domain has no shape.
        assert_eq!(
            scaled_1d(&[]).unwrap_err(),
            HaarError::NotPowerOfTwo { len: 0 }
        );
        assert_eq!(
            scaled_1d(&[1, 2, 3]).unwrap_err(),
            HaarError::NotPowerOfTwo { len: 3 }
        );
        let shape = NdShape::new(vec![4]).unwrap();
        assert_eq!(
            forward_scaled_nd(&shape, &[]).unwrap_err(),
            HaarError::ShapeMismatch {
                expected: 4,
                actual: 0
            }
        );
        let shape = NdShape::new(vec![2, 4]).unwrap();
        assert_eq!(
            forward_scaled_nd(&shape, &[0; 8]).unwrap_err(),
            HaarError::UnequalSides
        );
        let shape = NdShape::hypercube(2, 2).unwrap();
        assert_eq!(
            forward_scaled_nd(&shape, &[0; 5]).unwrap_err(),
            HaarError::ShapeMismatch {
                expected: 4,
                actual: 5
            }
        );
    }

    #[test]
    fn halvings_always_exact() {
        // Odd inputs still produce exact integers thanks to the pre-scale.
        let sc = scaled_1d(&[1, 0, 0, 0, 0, 0, 0, 1]).unwrap();
        let f = crate::transform::forward(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]).unwrap();
        for (i, &c) in sc.coeffs.iter().enumerate() {
            assert_eq!(c as f64, f[i] * 8.0);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::nd::{nonstandard, NdArray};
    use proptest::prelude::*;

    proptest! {
        /// Scaled integer coefficients always equal scale × the f64
        /// transform exactly, for random integer data (1-D).
        #[test]
        fn scaled_1d_always_exact(m in 0u32..=6,
                                  vals in proptest::collection::vec(-1000i64..1000, 64)) {
            let n = 1usize << m;
            let data: Vec<i64> = vals.into_iter().take(n).collect();
            prop_assume!(data.len() == n);
            let sc = forward_scaled_nd(&NdShape::new(vec![n]).unwrap(), &data).unwrap();
            prop_assert_eq!(sc.scale, i64::try_from(n).unwrap());
            let f: Vec<f64> = data.iter().map(|&v| v as f64).collect();
            let w = crate::transform::forward(&f).unwrap();
            for (i, &c) in sc.coeffs.iter().enumerate() {
                prop_assert_eq!(c as f64, w[i] * sc.scale as f64, "coeff {}", i);
            }
        }

        /// Same for the 2-D nonstandard transform.
        #[test]
        fn scaled_nd_always_exact(side_exp in 0u32..=3,
                                  vals in proptest::collection::vec(-500i64..500, 64)) {
            let side = 1usize << side_exp;
            let shape = NdShape::hypercube(side, 2).unwrap();
            let data: Vec<i64> = vals.into_iter().take(shape.len()).collect();
            prop_assume!(data.len() == shape.len());
            let sc = forward_scaled_nd(&shape, &data).unwrap();
            let f: Vec<f64> = data.iter().map(|&v| v as f64).collect();
            let w = nonstandard::forward(&NdArray::new(shape, f).unwrap()).unwrap();
            for (i, &c) in sc.coeffs.iter().enumerate() {
                prop_assert_eq!(c as f64, w.data()[i] * sc.scale as f64, "coeff {}", i);
            }
        }
    }
}
