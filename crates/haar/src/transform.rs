//! One-dimensional Haar wavelet transform (§2.1 of the paper).
//!
//! The paper's convention is **unnormalized**: one decomposition step maps a
//! pair `(a, b)` to the pairwise average `(a + b) / 2` and the detail
//! coefficient `(a - b) / 2` (the difference of the *first* value from the
//! average). Recursing on the averages yields the transform array
//! `W_A = [overall average, coarsest detail, ..., finest details]`.
//!
//! For the §2.1 example `A = [2, 2, 0, 2, 3, 5, 4, 4]` this produces
//! `W_A = [11/4, -5/4, 1/2, 0, 0, -1, -1, 0]` — reproduced exactly by the
//! unit tests below (f64 arithmetic on dyadic rationals is exact).

use crate::{is_pow2, log2_exact, HaarError};

/// Computes the unnormalized 1-D Haar wavelet transform of `data`.
///
/// `data.len()` must be a non-zero power of two. Runs in `O(N)` time and
/// allocates one scratch buffer of `N/2` values.
///
/// # Errors
/// [`HaarError::Empty`] / [`HaarError::NotPowerOfTwo`] on bad input length.
///
/// # Examples
/// ```
/// let w = wsyn_haar::transform::forward(&[2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0]).unwrap();
/// assert_eq!(w, vec![2.75, -1.25, 0.5, 0.0, 0.0, -1.0, -1.0, 0.0]);
/// ```
pub fn forward(data: &[f64]) -> Result<Vec<f64>, HaarError> {
    if data.is_empty() {
        return Err(HaarError::Empty);
    }
    if !is_pow2(data.len()) {
        return Err(HaarError::NotPowerOfTwo { len: data.len() });
    }
    let mut out = data.to_vec();
    forward_in_place(&mut out);
    Ok(out)
}

/// In-place variant of [`forward`]; `data.len()` must already be a power of
/// two (checked by `debug_assert` only — intended for hot paths that have
/// validated their shapes once).
pub fn forward_in_place(data: &mut [f64]) {
    debug_assert!(is_pow2(data.len()));
    let n = data.len();
    // Scratch holds averages in [..half] and details in [half..len] so that
    // writes never alias reads of the current level.
    let mut scratch = vec![0.0f64; n];
    let mut len = n;
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            let a = data[2 * i];
            let b = data[2 * i + 1];
            scratch[i] = half_sum(a, b); // pairwise average
            scratch[half + i] = half_sum(a, -b); // detail coefficient
        }
        data[..len].copy_from_slice(&scratch[..len]);
        len = half;
    }
}

/// `(a + b) / 2`, without overflow: when the sum leaves the finite range
/// (two cells near `f64::MAX`) it is taken as `a/2 + b/2` instead, so
/// finite data always has finite coefficients. A finite sum keeps the
/// plain formula's bits.
#[inline]
fn half_sum(a: f64, b: f64) -> f64 {
    let sum = a + b;
    if sum.is_finite() {
        sum / 2.0
    } else {
        a / 2.0 + b / 2.0
    }
}

/// Reconstructs the original data array from an unnormalized Haar transform.
///
/// Exact inverse of [`forward`] (dyadic arithmetic, no rounding error for
/// dyadic inputs).
///
/// # Errors
/// [`HaarError::Empty`] / [`HaarError::NotPowerOfTwo`] on bad input length.
pub fn inverse(coeffs: &[f64]) -> Result<Vec<f64>, HaarError> {
    if coeffs.is_empty() {
        return Err(HaarError::Empty);
    }
    if !is_pow2(coeffs.len()) {
        return Err(HaarError::NotPowerOfTwo { len: coeffs.len() });
    }
    let mut out = coeffs.to_vec();
    inverse_in_place(&mut out);
    Ok(out)
}

/// In-place variant of [`inverse`].
pub fn inverse_in_place(coeffs: &mut [f64]) {
    debug_assert!(is_pow2(coeffs.len()));
    let n = coeffs.len();
    let mut scratch = vec![0.0f64; n];
    let mut len = 1usize;
    while len < n {
        // Averages occupy coeffs[..len], details coeffs[len..2*len].
        for i in 0..len {
            let avg = coeffs[i];
            let detail = coeffs[len + i];
            scratch[2 * i] = avg + detail;
            scratch[2 * i + 1] = avg - detail;
        }
        coeffs[..2 * len].copy_from_slice(&scratch[..2 * len]);
        len *= 2;
    }
}

/// Resolution level of coefficient `i` (paper §2.1): `level(c_0) = 0` and
/// `level(c_i) = floor(log2 i)` for `i >= 1`. Level 0 is the *coarsest*
/// resolution.
#[inline]
pub fn level(i: usize) -> u32 {
    if i == 0 {
        0
    } else {
        usize::BITS - 1 - i.leading_zeros()
    }
}

/// Size of the support region of coefficient `i` in a domain of `n` values:
/// `n / 2^level(i)`. Both `c_0` and `c_1` have support `n`.
#[inline]
pub fn support_len(i: usize, n: usize) -> usize {
    n >> level(i)
}

/// Normalized coefficient magnitudes `|c_i| * sqrt(support_len(i, n))`,
/// proportional to the paper's `|c_i| / sqrt(2^level(i))` ranking (the
/// common `sqrt(n)` factor does not affect ordering). Conventional greedy
/// thresholding retains the `B` largest of these (§2.3); that ranking is
/// provably optimal for L2 error.
pub fn normalized_magnitudes(coeffs: &[f64]) -> Vec<f64> {
    let n = coeffs.len();
    coeffs
        .iter()
        .enumerate()
        .map(|(i, &c)| c.abs() * (support_len(i, n) as f64).sqrt())
        .collect()
}

/// Sum of squares of the data array implied by a coefficient array
/// (Parseval for the unnormalized basis): `Σ_i c_i² · support_len(i, n)`.
/// Used in tests to validate normalization without reconstructing.
pub fn energy(coeffs: &[f64]) -> f64 {
    let n = coeffs.len();
    coeffs
        .iter()
        .enumerate()
        .map(|(i, &c)| c * c * support_len(i, n) as f64)
        .sum()
}

/// Number of resolution levels in a domain of `n = 2^m` values (`m`).
#[inline]
pub fn num_levels(n: usize) -> u32 {
    log2_exact(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §2.1 example data vector.
    pub(crate) const EXAMPLE: [f64; 8] = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];

    #[test]
    fn worked_example_matches_paper() {
        let w = forward(&EXAMPLE).unwrap();
        assert_eq!(
            w,
            vec![11.0 / 4.0, -5.0 / 4.0, 0.5, 0.0, 0.0, -1.0, -1.0, 0.0]
        );
    }

    #[test]
    fn worked_example_intermediate_resolutions() {
        // The §2.1 table: averages per resolution and detail coefficients.
        let mut data = EXAMPLE.to_vec();
        let mut averages = Vec::new();
        let mut details = Vec::new();
        let mut cur = data.clone();
        while cur.len() > 1 {
            let half = cur.len() / 2;
            let avg: Vec<f64> = (0..half)
                .map(|i| (cur[2 * i] + cur[2 * i + 1]) / 2.0)
                .collect();
            let det: Vec<f64> = (0..half)
                .map(|i| (cur[2 * i] - cur[2 * i + 1]) / 2.0)
                .collect();
            averages.push(avg.clone());
            details.push(det);
            cur = avg;
        }
        assert_eq!(averages[0], vec![2.0, 1.0, 4.0, 4.0]);
        assert_eq!(details[0], vec![0.0, -1.0, -1.0, 0.0]);
        assert_eq!(averages[1], vec![1.5, 4.0]);
        assert_eq!(details[1], vec![0.5, 0.0]);
        assert_eq!(averages[2], vec![11.0 / 4.0]);
        assert_eq!(details[2], vec![-5.0 / 4.0]);
        // forward() must agree with the hand-rolled recursion.
        forward_in_place(&mut data);
        assert_eq!(data[0], 11.0 / 4.0);
    }

    #[test]
    fn roundtrip_exact_for_dyadic_input() {
        let w = forward(&EXAMPLE).unwrap();
        let back = inverse(&w).unwrap();
        assert_eq!(back, EXAMPLE.to_vec());
    }

    #[test]
    fn cells_near_max_have_finite_coefficients() {
        let max = f64::MAX;
        assert_eq!(forward(&[max; 4]).unwrap(), vec![max, 0.0, 0.0, 0.0]);
        let w = forward(&[max, -max, max, 0.0]).unwrap();
        assert_eq!(w, vec![max / 4.0, -max / 4.0, max, max / 2.0]);
        assert_eq!(inverse(&w).unwrap(), vec![max, -max, max, 0.0]);
    }

    #[test]
    fn single_element() {
        let w = forward(&[42.0]).unwrap();
        assert_eq!(w, vec![42.0]);
        assert_eq!(inverse(&w).unwrap(), vec![42.0]);
    }

    #[test]
    fn two_elements() {
        let w = forward(&[3.0, 1.0]).unwrap();
        assert_eq!(w, vec![2.0, 1.0]);
        assert_eq!(inverse(&w).unwrap(), vec![3.0, 1.0]);
    }

    #[test]
    fn rejects_bad_lengths() {
        assert_eq!(forward(&[]).unwrap_err(), HaarError::Empty);
        assert_eq!(
            forward(&[1.0, 2.0, 3.0]).unwrap_err(),
            HaarError::NotPowerOfTwo { len: 3 }
        );
        assert_eq!(inverse(&[]).unwrap_err(), HaarError::Empty);
        assert_eq!(
            inverse(&[1.0; 6]).unwrap_err(),
            HaarError::NotPowerOfTwo { len: 6 }
        );
    }

    #[test]
    fn levels_match_paper_figure_1a() {
        // Figure 1(a): c_0, c_1 at level 0; c_2, c_3 at level 1; c_4..c_7 at level 2.
        assert_eq!(level(0), 0);
        assert_eq!(level(1), 0);
        assert_eq!(level(2), 1);
        assert_eq!(level(3), 1);
        for i in 4..8 {
            assert_eq!(level(i), 2, "c_{i}");
        }
    }

    #[test]
    fn support_lengths() {
        let n = 8;
        assert_eq!(support_len(0, n), 8);
        assert_eq!(support_len(1, n), 8);
        assert_eq!(support_len(2, n), 4);
        assert_eq!(support_len(3, n), 4);
        for i in 4..8 {
            assert_eq!(support_len(i, n), 2);
        }
    }

    #[test]
    fn parseval_energy() {
        let w = forward(&EXAMPLE).unwrap();
        let direct: f64 = EXAMPLE.iter().map(|d| d * d).sum();
        assert!((energy(&w) - direct).abs() < 1e-9);
    }

    #[test]
    fn constant_signal_has_single_nonzero_coefficient() {
        let w = forward(&[7.0; 16]).unwrap();
        assert_eq!(w[0], 7.0);
        assert!(w[1..].iter().all(|&c| c == 0.0));
    }

    #[test]
    fn linearity() {
        let a = [1.0, -2.0, 3.5, 0.25, -1.0, 8.0, 0.0, 4.0];
        let b = [0.5, 0.5, -3.0, 2.0, 9.0, -1.0, 1.0, 1.0];
        let wa = forward(&a).unwrap();
        let wb = forward(&b).unwrap();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        let wsum = forward(&sum).unwrap();
        for i in 0..8 {
            assert!((wsum[i] - (wa[i] + wb[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn normalized_magnitudes_rank_overall_average_highest_for_shifted_data() {
        // A large DC offset should dominate the normalized ranking.
        let data: Vec<f64> = (0..16).map(|i| 100.0 + f64::from(i % 2)).collect();
        let w = forward(&data).unwrap();
        let norm = normalized_magnitudes(&w);
        let max_idx = norm
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn pow2_vec() -> impl Strategy<Value = Vec<f64>> {
        (0u32..=7).prop_flat_map(|m| proptest::collection::vec(-1e6f64..1e6, 1usize << m))
    }

    proptest! {
        #[test]
        fn roundtrip(data in pow2_vec()) {
            let w = forward(&data).unwrap();
            let back = inverse(&w).unwrap();
            for (x, y) in data.iter().zip(&back) {
                prop_assert!((x - y).abs() <= 1e-6 * (1.0 + x.abs()));
            }
        }

        #[test]
        fn parseval(data in pow2_vec()) {
            let w = forward(&data).unwrap();
            let direct: f64 = data.iter().map(|d| d * d).sum();
            prop_assert!((energy(&w) - direct).abs() <= 1e-6 * (1.0 + direct.abs()));
        }

        #[test]
        fn dc_shift_only_affects_average(data in pow2_vec(), shift in -1e3f64..1e3) {
            let w = forward(&data).unwrap();
            let shifted: Vec<f64> = data.iter().map(|d| d + shift).collect();
            let w2 = forward(&shifted).unwrap();
            prop_assert!((w2[0] - (w[0] + shift)).abs() <= 1e-6 * (1.0 + shift.abs() + w[0].abs()));
            for i in 1..w.len() {
                prop_assert!((w2[i] - w[i]).abs() <= 1e-7 * (1.0 + w[i].abs()));
            }
        }
    }
}
