//! Multi-dimensional deterministic thresholding (§3.2).
//!
//! Directly extending the optimal one-dimensional DP to `D` dimensions
//! explodes: a node at level `l = Θ(log N)` has `O(N^{2^D - 1})` possible
//! ancestor subsets. The paper instead gives two polynomial-time
//! approximate dynamic programs, both implemented here over the
//! nonstandard error tree of [`wsyn_haar::ErrorTreeNd`]:
//!
//! * [`additive::AdditiveScheme`] (§3.2.1, Theorem 3.2) — rounds the
//!   incoming additive error of every subtree to geometric breakpoints
//!   `±(1+ε')^k`, tabulating only those; guarantees a worst-case additive
//!   deviation of `εR` (absolute error) or `εR/s` (relative error) from
//!   the optimum, where `R` is the largest |coefficient|.
//! * [`oneplus::OnePlusEps`] (§3.2.2, Theorem 3.4) — for **absolute**
//!   error on integer data: scales coefficients down by
//!   `K_τ = ετ/(2^D log N)`, force-retains everything above the threshold
//!   `τ`, runs an exact integer DP on the truncated instance, and sweeps
//!   `τ ∈ {2^k}`; a `(1+ε)`-approximation.
//! * [`integer::IntegerExact`] — the optimal *pseudo-polynomial* integer
//!   DP both of the above build on (exact, time proportional to the
//!   coefficient magnitude `R_Z`); usable as an optimality oracle whenever
//!   `R_Z` is small.
//!
//! All three run one dynamic program, the crate-internal `kernel`: rows
//! `M[node, b, e]` memoized by node and incoming error, an enumeration of
//! each node's retained coefficient subsets, and the paper's "list"
//! generalization for distributing a node's budget among its `2^D`
//! children with an `O(log B)` search per split instead of the naive
//! `O(B^{2^D})` enumeration. They differ only in the kernel's error domain:
//!
//! * the additive scheme: `f64` errors rounded by
//!   [`additive::round_eps`] as they enter each subtree, `f64` values
//!   `|e| / denom`;
//! * the exact DP for absolute error (also each τ of the `(1+ε)` sweep,
//!   with truncated coefficients and a forced set): exact `i64` errors,
//!   `i64` values `|e|`;
//! * the exact DP for relative error: exact `i64` errors, `f64` values
//!   `|e| / denom` with the denominators in scaled units.
//!
//! Budgets past the number of cells `N` solve as `N`.

pub mod additive;
pub mod integer;
mod kernel;
pub mod oneplus;

use wsyn_core::DpStats;

use crate::synopsis::SynopsisNd;

/// Result of an approximate multi-dimensional thresholding run.
#[derive(Debug, Clone)]
pub struct NdThresholdResult {
    /// The selected synopsis.
    pub synopsis: SynopsisNd,
    /// The objective value *as estimated by the (approximate) DP* — for
    /// the additive scheme this uses rounded incoming errors, for the
    /// truncated scheme scaled-down coefficients.
    pub dp_objective: f64,
    /// The exact objective of the returned synopsis, evaluated against the
    /// original data. This is the number the guarantees of Theorems 3.2
    /// and 3.4 bound.
    pub true_objective: f64,
    /// The unified workspace-wide DP statistics block; `states` counts the
    /// `(node, budget, incoming-error)` cells materialized.
    pub stats: DpStats,
}

/// Practical cap on dimensionality: the per-node subset enumeration is
/// `O(2^{2^D - 1})`, unusable beyond this (the paper notes wavelets are
/// typically employed at `D = 2–5`; the schemes are exponential in `2^D`
/// by design).
pub const MAX_DIMS: usize = 4;
