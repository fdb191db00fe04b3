//! Error types shared by the wavelet substrate.

use std::fmt;

/// Errors raised by wavelet transforms and error-tree constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HaarError {
    /// The input length (or a dimension side) was not a power of two.
    NotPowerOfTwo {
        /// The offending length.
        len: usize,
    },
    /// The input was empty.
    Empty,
    /// A dimension side disagreed with the declared shape, or the flat
    /// buffer length did not equal the product of the sides.
    ShapeMismatch {
        /// Expected number of cells.
        expected: usize,
        /// Number of cells actually supplied.
        actual: usize,
    },
    /// The nonstandard multi-dimensional decomposition requires all sides
    /// to be equal; they were not.
    UnequalSides,
    /// Integer arithmetic overflowed while computing the scaled transform
    /// of §3.2.2. Reduce the magnitude of the input data or the domain
    /// size.
    Overflow,
    /// Zero dimensions were supplied.
    ZeroDimensional,
    /// A data value was `NaN` or infinite.
    NonFinite {
        /// Position of the first non-finite value.
        index: usize,
    },
}

impl fmt::Display for HaarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HaarError::NotPowerOfTwo { len } => {
                write!(f, "length {len} is not a power of two")
            }
            HaarError::Empty => write!(f, "input is empty"),
            HaarError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected} cells, got {actual}")
            }
            HaarError::UnequalSides => write!(
                f,
                "nonstandard decomposition requires all dimension sides equal"
            ),
            HaarError::Overflow => {
                write!(f, "integer overflow in scaled Haar transform")
            }
            HaarError::ZeroDimensional => write!(f, "zero dimensions supplied"),
            HaarError::NonFinite { index } => {
                write!(f, "data must be finite (index {index})")
            }
        }
    }
}

impl std::error::Error for HaarError {}

/// Lifts a transform failure into the workspace-wide error. The
/// conversion lives here rather than in `wsyn-core` because core is
/// dependency-free by policy and cannot name [`HaarError`]; the rendered
/// message is preserved verbatim in [`WsynError::Transform`].
impl From<HaarError> for wsyn_core::WsynError {
    fn from(err: HaarError) -> wsyn_core::WsynError {
        wsyn_core::WsynError::Transform(err.to_string())
    }
}
