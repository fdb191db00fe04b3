//! The Haar cascade behind every transform in this crate (§2.1, §2.2).
//!
//! One decomposition level applies a pairwise step along each dimension
//! in turn, over the current low-pass box `[0, size)^D` of a row-major
//! `side^D` hypercube: along every line of the box, the pair at
//! positions `(2i, 2i+1)` becomes its average at `i` and its detail at
//! `size/2 + i`. The next level recurses on the box of averages. The 1-D
//! transform is the case `D = 1` and the nonstandard decomposition of
//! Figure 1(b) the general case; the integer-scaled transforms of §3.2.2
//! run the same cascade over `i64`. Only the pair rule differs.

use std::convert::Infallible;

use crate::HaarError;

/// The forward float cascade over a `side^d` hypercube. Non-finite data
/// is refused here, the one place every float transform passes through.
/// A pairwise sum that leaves the finite range (two cells near
/// `f64::MAX`) is taken as `a/2 + b/2`, so finite data always has finite
/// coefficients; a finite sum keeps the plain formula's bits.
pub(crate) fn forward_f64(data: &mut [f64], side: usize, d: usize) -> Result<(), HaarError> {
    if let Some(index) = data.iter().position(|v| !v.is_finite()) {
        return Err(HaarError::NonFinite { index });
    }
    let half_sum = |a: f64, b: f64| {
        let sum = a + b;
        if sum.is_finite() {
            sum / 2.0
        } else {
            a / 2.0 + b / 2.0
        }
    };
    run::<false, _, _>(data, side, d, |a, b| {
        Ok::<_, Infallible>((half_sum(a, b), half_sum(a, -b)))
    })
    .unwrap_or_else(|never| match never {});
    Ok(())
}

/// The inverse float cascade: `(avg, detail) -> (avg + detail, avg -
/// detail)`, level by level from the coarsest.
pub(crate) fn inverse_f64(coeffs: &mut [f64], side: usize, d: usize) {
    run::<true, _, _>(coeffs, side, d, |avg, detail| {
        Ok::<_, Infallible>((avg + detail, avg - detail))
    })
    .unwrap_or_else(|never| match never {});
}

/// The forward cascade over pre-scaled integers. The scale makes every
/// pairwise sum and difference even, so each halving is exact; an `i64`
/// overflow is [`HaarError::Overflow`].
pub(crate) fn forward_i64(data: &mut [i64], side: usize, d: usize) -> Result<(), HaarError> {
    run::<false, _, _>(data, side, d, |a, b| {
        let sum = a.checked_add(b).ok_or(HaarError::Overflow)?;
        let diff = a.checked_sub(b).ok_or(HaarError::Overflow)?;
        debug_assert!(sum % 2 == 0 && diff % 2 == 0);
        Ok((sum / 2, diff / 2))
    })
}

/// Runs every level of the cascade with `pair` as the pair rule. The
/// forward cascade (`INVERSE = false`) shrinks the box from the full cube
/// to the overall average, stepping along dimensions `0..d`; the inverse
/// grows it back, undoing the steps in reverse order. One scratch line of
/// `side` values serves every step.
fn run<const INVERSE: bool, T: Copy + Default, E>(
    data: &mut [T],
    side: usize,
    d: usize,
    pair: impl Fn(T, T) -> Result<(T, T), E>,
) -> Result<(), E> {
    let mut scratch = vec![T::default(); side];
    for level in 0..side.trailing_zeros() {
        let size = if INVERSE { 2 << level } else { side >> level };
        for k in 0..d {
            let dim = if INVERSE { d - 1 - k } else { k };
            step::<INVERSE, _, _>(data, d, dim, size, &mut scratch, &pair)?;
        }
    }
    Ok(())
}

/// One pairwise step along `dim`, over every line of the box `[0,
/// size)^d`. Forward reads each pair at `(2i, 2i+1)` and writes `(avg,
/// detail)` to `(i, size/2 + i)`; inverse reads `(i, size/2 + i)` and
/// writes `(2i, 2i+1)`. A line's results go through `scratch` (one line
/// of the cube, so its length is the side), so no write clobbers a value
/// the line has yet to read; a contiguous line is copied back whole.
fn step<const INVERSE: bool, T: Copy, E>(
    data: &mut [T],
    d: usize,
    dim: usize,
    size: usize,
    scratch: &mut [T],
    pair: &impl Fn(T, T) -> Result<(T, T), E>,
) -> Result<(), E> {
    let side = scratch.len();
    let half = size / 2;
    let stride = (dim + 1..d).fold(1, |s, _| s * side);
    let lines = (1..d).fold(1, |n, _| n * size);
    for line in 0..lines {
        // The line's start: its coordinates along every dimension but
        // `dim` are the base-`size` digits of `line`, last dimension lowest.
        let (mut base, mut rest, mut weight) = (0, line, 1);
        for k in (0..d).rev() {
            if k != dim {
                base += rest % size * weight;
                rest /= size;
            }
            weight *= side;
        }
        for i in 0..half {
            let (src, dst) = if INVERSE {
                ((i, half + i), (2 * i, 2 * i + 1))
            } else {
                ((2 * i, 2 * i + 1), (i, half + i))
            };
            let (lo, hi) = pair(data[base + src.0 * stride], data[base + src.1 * stride])?;
            scratch[dst.0] = lo;
            scratch[dst.1] = hi;
        }
        if stride == 1 {
            data[base..base + size].copy_from_slice(&scratch[..size]);
        } else {
            for (k, &v) in scratch[..size].iter().enumerate() {
                data[base + k * stride] = v;
            }
        }
    }
    Ok(())
}
