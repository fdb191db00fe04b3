//! Nonstandard multi-dimensional Haar decomposition (§2.2, Figure 1(b)).
//!
//! At every resolution level the algorithm performs one unnormalized
//! pairwise averaging/differencing step (`avg = (a+b)/2`, `detail =
//! (a-b)/2`) along **each** dimension over the current low-pass hypercube,
//! then recurses on the averages. For a `2^m`-per-side, `D`-dimensional
//! array, the detail coefficients produced at level `l` (coarsest = 0)
//! occupy the region `[0, 2^{l+1})^D \ [0, 2^l)^D` of the coefficient
//! array, and the overall average lands at the origin.
//!
//! Coefficient semantics: the coefficient at position `q + b·2^l`
//! (node position `q ∈ [0, 2^l)^D`, offset mask `b ∈ {0,1}^D \ {0}`)
//! contributes to data cell `x` inside its support hypercube with sign
//! `Π_{k : b_k = 1} (+1 if x_k in the low half along dim k, else -1)` —
//! exactly the quadrant-sign structure of Figure 1(b).
//!
//! The steps are the crate's one Haar cascade, which the 1-D and the
//! integer-scaled transforms share.

use super::NdArray;
use crate::{cascade, HaarError};

/// Computes the nonstandard Haar decomposition of `data`, returning the
/// coefficient array (same shape).
///
/// # Errors
/// [`HaarError::UnequalSides`] unless the shape is a hypercube (all sides
/// equal powers of two), [`HaarError::NonFinite`] for a `NaN` or infinite
/// cell.
pub fn forward(data: &NdArray) -> Result<NdArray, HaarError> {
    let (side, d) = data.shape().cube()?;
    let mut out = data.clone();
    cascade::forward_f64(out.data_mut(), side, d)?;
    Ok(out)
}

/// Reconstructs the data array from nonstandard coefficients.
///
/// # Errors
/// [`HaarError::UnequalSides`] unless the shape is a hypercube.
pub fn inverse(coeffs: &NdArray) -> Result<NdArray, HaarError> {
    let mut out = coeffs.clone();
    inverse_in_place(&mut out)?;
    Ok(out)
}

/// In-place variant of [`inverse`].
///
/// # Errors
/// [`HaarError::UnequalSides`] unless the shape is a hypercube.
pub fn inverse_in_place(arr: &mut NdArray) -> Result<(), HaarError> {
    let (side, d) = arr.shape().cube()?;
    cascade::inverse_f64(arr.data_mut(), side, d);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nd::NdShape;

    fn arr2(side: usize, vals: Vec<f64>) -> NdArray {
        NdArray::new(NdShape::hypercube(side, 2).unwrap(), vals).unwrap()
    }

    #[test]
    fn two_by_two_block_transform() {
        // [[a, b], [c, d]] with row-major [a, b, c, d].
        let (a, b, c, d) = (5.0, 1.0, 3.0, 7.0);
        let w = forward(&arr2(2, vec![a, b, c, d])).unwrap();
        let wd = w.data();
        assert_eq!(wd[0], (a + b + c + d) / 4.0); // overall average
        assert_eq!(wd[1], (a - b + c - d) / 4.0); // detail along dim 1
        assert_eq!(wd[2], (a + b - c - d) / 4.0); // detail along dim 0
        assert_eq!(wd[3], (a - b - c + d) / 4.0); // diagonal detail
    }

    #[test]
    fn roundtrip_4x4() {
        let vals: Vec<f64> = (0..16).map(|i| f64::from(i * i % 7) - 3.0).collect();
        let original = arr2(4, vals);
        let w = forward(&original).unwrap();
        let back = inverse(&w).unwrap();
        for (x, y) in original.data().iter().zip(back.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn roundtrip_3d() {
        let shape = NdShape::hypercube(4, 3).unwrap();
        let vals: Vec<f64> = (0..shape.len())
            .map(|i| ((i * 31 + 7) % 13) as f64)
            .collect();
        let original = NdArray::new(shape, vals).unwrap();
        let w = forward(&original).unwrap();
        let back = inverse(&w).unwrap();
        for (x, y) in original.data().iter().zip(back.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_array_single_coefficient() {
        let original = arr2(8, vec![2.5; 64]);
        let w = forward(&original).unwrap();
        assert_eq!(w.data()[0], 2.5);
        assert!(w.data()[1..].iter().all(|&c| c == 0.0));
    }

    #[test]
    fn rejects_non_hypercube() {
        let shape = NdShape::new(vec![2, 4]).unwrap();
        let a = NdArray::zeros(shape);
        assert_eq!(forward(&a).unwrap_err(), HaarError::UnequalSides);
        assert_eq!(inverse(&a).unwrap_err(), HaarError::UnequalSides);
    }

    #[test]
    fn cells_near_max_have_finite_coefficients() {
        // [[MAX, -MAX], [MAX, 0]]: both steps of the one level have a
        // pairwise sum past f64::MAX.
        let max = f64::MAX;
        let w = forward(&arr2(2, vec![max, -max, max, 0.0])).unwrap();
        assert_eq!(
            w.data(),
            &[max / 4.0, max / 2.0 + max / 4.0, -max / 4.0, max / 4.0]
        );
        // The inverse is exact up to its 2·D·m roundings of values below MAX.
        let back = inverse(&w).unwrap();
        for (x, y) in back.data().iter().zip([max, -max, max, 0.0]) {
            assert!((x - y).abs() <= 4.0 * f64::EPSILON * max, "{back:?}");
        }
    }

    #[test]
    fn rejects_non_finite_cells() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let w = forward(&arr2(2, vec![1.0, 2.0, bad, 4.0]));
            assert_eq!(w.unwrap_err(), HaarError::NonFinite { index: 2 });
        }
    }

    #[test]
    fn quadrant_sign_structure_matches_figure_1b() {
        // Verify the sign pattern of each of the 16 basis functions of a
        // 4x4 nonstandard decomposition by transforming indicator arrays:
        // the inverse transform of a single unit coefficient is the basis
        // function; its sign pattern must follow the quadrant rule.
        let shape = NdShape::hypercube(4, 2).unwrap();
        let m = 2u32;
        for pos in 0..16usize {
            let mut coeffs = NdArray::zeros(shape.clone());
            coeffs.data_mut()[pos] = 1.0;
            let basis = inverse(&coeffs).unwrap();
            let coord = shape.delinearize(pos);
            if pos == 0 {
                // Overall average: +1 everywhere.
                assert!(basis.data().iter().all(|&v| v == 1.0));
                continue;
            }
            // Determine level l and offset mask b of this coefficient: the
            // unique l with all coords < 2^{l+1} and at least one >= 2^l.
            let l = (0..m as usize)
                .find(|&ll| {
                    coord.iter().all(|&c| c < (1usize << (ll + 1)))
                        && coord.iter().any(|&c| c >= (1usize << ll))
                })
                .unwrap();
            let q: Vec<usize> = coord.iter().map(|&c| c & ((1 << l) - 1)).collect();
            let b: Vec<bool> = coord.iter().map(|&c| c >= (1 << l)).collect();
            let node_width = 4usize >> l; // support side
            for x0 in 0..4usize {
                for x1 in 0..4usize {
                    let x = [x0, x1];
                    let inside = (0..2).all(|k| x[k] / node_width == q[k]);
                    let v = basis.get(&x);
                    if !inside {
                        assert_eq!(v, 0.0, "pos {pos} outside support");
                    } else {
                        let mut sign = 1.0;
                        for k in 0..2 {
                            if b[k] {
                                let low = (x[k] % node_width) < node_width / 2;
                                if !low {
                                    sign = -sign;
                                }
                            }
                        }
                        assert_eq!(v, sign, "pos {pos} cell {x:?}");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::nd::NdShape;
    use proptest::prelude::*;

    /// A 1-D vector of `2^m` values, some of them near `f64::MAX`.
    fn line() -> impl Strategy<Value = Vec<f64>> {
        (0u32..=7).prop_flat_map(|m| {
            let value = prop_oneof![-1e6f64..1e6, Just(f64::MAX), Just(-f64::MAX)];
            proptest::collection::vec(value, 1usize << m)
        })
    }

    proptest! {
        /// The 1-D transform is the nonstandard one at D = 1, bit for bit,
        /// forward and inverse.
        #[test]
        fn one_dimensional_case_matches_1d_transform(vals in line()) {
            let shape = NdShape::new(vec![vals.len()]).unwrap();
            let w = forward(&NdArray::new(shape, vals.clone()).unwrap()).unwrap();
            let w1d = crate::transform::forward(&vals).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(w.data()), bits(&w1d));
            let back = inverse(&w).unwrap();
            let back1d = crate::transform::inverse(&w1d).unwrap();
            prop_assert_eq!(bits(back.data()), bits(&back1d));
        }

        #[test]
        fn roundtrip_2d(side_exp in 0u32..=4, seed_vals in proptest::collection::vec(-1e4f64..1e4, 256)) {
            let side = 1usize << side_exp;
            let shape = NdShape::hypercube(side, 2).unwrap();
            let vals: Vec<f64> = seed_vals.into_iter().take(shape.len()).collect();
            prop_assume!(vals.len() == shape.len());
            let original = NdArray::new(shape, vals).unwrap();
            let w = forward(&original).unwrap();
            let back = inverse(&w).unwrap();
            for (x, y) in original.data().iter().zip(back.data()) {
                prop_assert!((x - y).abs() <= 1e-7 * (1.0 + x.abs()));
            }
        }

        #[test]
        fn linearity_2d(vals_a in proptest::collection::vec(-1e4f64..1e4, 16),
                        vals_b in proptest::collection::vec(-1e4f64..1e4, 16)) {
            let shape = NdShape::hypercube(4, 2).unwrap();
            let wa = forward(&NdArray::new(shape.clone(), vals_a.clone()).unwrap()).unwrap();
            let wb = forward(&NdArray::new(shape.clone(), vals_b.clone()).unwrap()).unwrap();
            let sum: Vec<f64> = vals_a.iter().zip(&vals_b).map(|(x, y)| x + y).collect();
            let ws = forward(&NdArray::new(shape, sum).unwrap()).unwrap();
            for i in 0..16 {
                prop_assert!((ws.data()[i] - (wa.data()[i] + wb.data()[i])).abs() < 1e-9);
            }
        }
    }
}
