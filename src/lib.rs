//! # wavelet-synopses
//!
//! A complete Rust implementation of *Garofalakis & Kumar, "Deterministic
//! Wavelet Thresholding for Maximum-Error Metrics" (PODS 2004)* — optimal
//! and near-optimal deterministic algorithms for building Haar wavelet
//! synopses that minimize **maximum relative error** (with a sanity bound)
//! or **maximum absolute error** in the reconstructed data, plus every
//! substrate they rest on.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`haar`] — Haar wavelet transforms and error trees (1-D and multi-D).
//! * [`synopsis`] — the paper's algorithms: the optimal 1-D `MinMaxErr`
//!   dynamic program (§3.1), the multi-dimensional ε-additive scheme
//!   (§3.2.1), the `(1+ε)` absolute-error scheme (§3.2.2), the conventional
//!   greedy L2 baseline, exhaustive verification oracles, and the synopsis
//!   **family registry** (`synopsis::family`) every front end dispatches
//!   through.
//! * [`hist`] — the competing synopsis family: optimal b-bucket
//!   max-error histograms (Stout's L∞ step-function DP) with an
//!   enumeration oracle for small-N certification.
//! * [`prob`] — the probabilistic baselines (MinRelVar / MinRelBias) of
//!   Garofalakis & Gibbons that the paper compares against.
//! * [`aqp`] — approximate query processing on top of the synopses' own
//!   point and range-aggregate queries: the one 1-D synopsis type
//!   (`AnySynopsis1d`) the server and the CLI answer from, per-answer
//!   guaranteed intervals, and range-selectivity estimation.
//! * [`stream`] — dynamic maintenance: exact `O(log N)` coefficient
//!   updates, the guarantee-preserving rebuild rule over the optimal DP,
//!   and one-pass streaming construction.
//! * [`serve`] — the synopsis server; its [`serve::Column`] is the
//!   dynamic synopsis that applies point updates under that rule.
//! * [`obs`] — deterministic observability: the `Collector` every
//!   solve and column operation records into.
//! * [`datagen`] — seeded synthetic workload generators.
//!
//! ## Quickstart
//!
//! ```
//! use wavelet_synopses::synopsis::{one_dim::MinMaxErr, ErrorMetric};
//!
//! // A skewed frequency vector over a domain of 16 values.
//! let data: Vec<f64> = (0..16).map(|i| (100.0 / (1.0 + i as f64)).round()).collect();
//!
//! // Build the deterministic optimal synopsis with B = 4 coefficients,
//! // minimizing maximum relative error with sanity bound 1.0.
//! let result = MinMaxErr::new(&data)
//!     .unwrap()
//!     .run(4, ErrorMetric::relative(1.0));
//! let synopsis = result.synopsis;
//! assert!(synopsis.len() <= 4);
//!
//! // The reported optimum matches the true maximum relative error of the
//! // reconstruction.
//! let recon = synopsis.reconstruct();
//! let err = ErrorMetric::relative(1.0).max_error(&data, &recon);
//! assert!((err - result.objective).abs() < 1e-9);
//! ```

pub use wsyn_aqp as aqp;
pub use wsyn_datagen as datagen;
pub use wsyn_haar as haar;
pub use wsyn_hist as hist;
pub use wsyn_obs as obs;
pub use wsyn_prob as prob;
pub use wsyn_serve as serve;
pub use wsyn_stream as stream;
pub use wsyn_synopsis as synopsis;
