//! # wsyn-haar — Haar wavelet substrate
//!
//! This crate implements the wavelet machinery of Section 2 of
//! *Garofalakis & Kumar, "Deterministic Wavelet Thresholding for
//! Maximum-Error Metrics" (PODS 2004)*:
//!
//! * the one-dimensional Haar wavelet transform and its inverse
//!   ([`transform`]), using the paper's unnormalized convention
//!   (pairwise average `(a+b)/2`, detail `(a-b)/2`) so the worked example
//!   of §2.1 reproduces exactly;
//! * the one-dimensional *error tree* ([`tree1d::ErrorTree1d`], Figure 1(a)):
//!   ancestor paths, contribution signs, support regions, and the
//!   reconstruction formula of Equation (1);
//! * multi-dimensional Haar wavelets (§2.2): the **nonstandard**
//!   decomposition with its error tree of `2^D - 1`-coefficient nodes and
//!   `2^D` children per node (Figures 1(b) and 2) ([`nd`]);
//! * the integer-scaled transform ([`int`]) backing the `(1+ε)`
//!   absolute-error scheme of §3.2.2, which requires integral
//!   coefficients.
//!
//! All three transforms run one Haar cascade: the same strided pairwise
//! step, with a float rule that halves before adding where a sum would
//! overflow and a checked integer rule. Float transforms refuse `NaN` and
//! infinite data ([`HaarError::NonFinite`]).
//!
//! Everything here is deterministic, allocation-conscious, and `O(N)` per
//! transform. Domains must be powers of two (the setting of the paper);
//! padding helpers live in the `wsyn-datagen` crate.
//!
//! ## Conventions
//!
//! Coefficients are stored **unnormalized** (the error-tree values used by
//! all thresholding algorithms). The *normalized* magnitude used by
//! conventional greedy L2 thresholding is `|c_i| * sqrt(support(i))`; see
//! [`transform::normalized_magnitudes`] and [`tree1d::ErrorTree1d::level`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cascade;
pub mod error;
pub mod int;
pub mod nd;
pub mod transform;
pub mod tree1d;

pub use error::HaarError;
pub use nd::{ErrorTreeNd, NdArray, NdShape, NodeRef};
pub use tree1d::ErrorTree1d;

/// Returns `true` when `n` is a power of two (and non-zero).
#[inline]
pub fn is_pow2(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// `log2` of a power of two.
///
/// # Panics
/// Panics if `n` is not a power of two.
#[inline]
pub fn log2_exact(n: usize) -> u32 {
    assert!(is_pow2(n), "expected a power of two, got {n}");
    n.trailing_zeros()
}
