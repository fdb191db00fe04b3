//! # wsyn-synopsis — deterministic wavelet thresholding for maximum-error
//! metrics
//!
//! The core contribution of *Garofalakis & Kumar (PODS 2004)*: given a
//! Haar-wavelet error tree and a space budget `B`, select at most `B`
//! coefficients minimizing the **maximum relative error** (with a sanity
//! bound) or the **maximum absolute error** of the reconstructed data.
//!
//! * [`one_dim::MinMaxErr`] — the optimal one-dimensional dynamic program
//!   (§3.1, Theorem 3.1), with three interchangeable engines and both
//!   budget-split search strategies.
//! * [`multi_dim`] — the multi-dimensional approximation schemes: the
//!   ε-additive-error scheme for relative/absolute error (§3.2.1,
//!   Theorem 3.2) and the `(1+ε)`-approximation for absolute error
//!   (§3.2.2, Theorem 3.4), plus the pseudo-polynomial exact integer DP
//!   they build on.
//! * [`greedy`] — the conventional L2-optimal greedy baseline (§2.3).
//! * [`oracle`] — exhaustive-search oracles validating optimality and
//!   approximation guarantees on small instances.
//! * [`prop33`] — the sign-navigation argument of Proposition 3.3 as an
//!   executable lower bound.
//! * [`logdomain`] — an exploration of the paper's §5 closing question:
//!   log-domain Haar synopses whose absolute-error machinery yields
//!   multiplicative (relative-error) guarantees.
//! * [`metric`] / [`synopsis`] — shared error metrics and synopsis types.
//! * [`thresholder`] — the [`thresholder::Thresholder`] trait giving every
//!   algorithm (including the `wsyn-prob` baselines) one `(budget, metric)
//!   → synopsis` interface for uniform dispatch in the CLI, AQP, streaming
//!   and experiment layers.
//! * [`family`] — the synopsis-family registry: one [`family::Registry`]
//!   of [`family::SynopsisFamily`] descriptors that the CLI, the server,
//!   and the conformance harness all resolve ids through.
//! * [`histogram`] — the `wsyn-hist` step-function solver (Stout's
//!   optimal b-bucket L∞ histogram) adapted to the [`Thresholder`]
//!   contract, the wavelet family's classic rival.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod family;
pub mod greedy;
pub mod histogram;
pub mod logdomain;
pub mod metric;
pub mod multi_dim;
pub mod one_dim;
pub mod oracle;
pub mod prop33;
#[allow(clippy::module_inception)]
pub mod synopsis;
pub mod thresholder;

pub use family::{Registry, SynopsisFamily};
pub use metric::{rmse, ErrorMetric};
pub use synopsis::{Synopsis1d, SynopsisNd};
pub use thresholder::{AnySynopsis, RunParams, SolverScratch, ThresholdRun, Thresholder};
// The worker pool and observability collector that entry points such as
// `OnePlusEps::run_with` and `RunParams::obs` take, so callers need no
// direct `wsyn-core` or `wsyn-obs` dependency.
pub use wsyn_core::Pool;
pub use wsyn_obs::Collector;
