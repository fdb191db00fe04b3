//! # wsyn-stream — dynamic maintenance of wavelet synopses
//!
//! The paper's related work (§4) leans on two dynamic settings: Matias,
//! Vitter & Wang's *dynamic maintenance of wavelet-based histograms*
//! (point updates to the underlying frequency vector) and Gilbert et al.'s
//! one-pass stream summaries. This crate provides the update substrate and
//! the rules that keep a **deterministic maximum-error synopsis** fresh as
//! data drifts:
//!
//! * [`DynamicErrorTree`] — exact maintenance of the full unnormalized
//!   Haar coefficient array under point updates `d_i += δ`, at
//!   `O(log N)` coefficient touches per update (every update affects only
//!   the `log N + 1` ancestors of the cell).
//! * [`check_update`] and [`RebuildPolicy`] — the validation rule for a
//!   point update, and the drift rule deciding when a built synopsis must
//!   be re-solved: its guarantee is tracked under updates via a
//!   conservative drift bound, and the expensive DP is re-run only when
//!   the bound degrades past a tolerance factor; between rebuilds every
//!   answer still carries a valid (if looser) guarantee. The dynamic
//!   synopsis that applies them is the server's column
//!   (`wsyn_serve::Column`).
//! * [`StreamingMaxErr`] — one-pass streaming B-term construction with
//!   poly(`B`, `log N`, `1/ε`) working space and a certified absolute
//!   max-error guarantee (Guha & Harb's quantized-error DP; see
//!   [`streaming`] for the algorithm, drift accounting, and proof
//!   sketch), plus [`StreamMaxErr`], its offline
//!   [`Thresholder`](wsyn_synopsis::Thresholder) adapter behind
//!   `wsyn build --algo stream`. Its state is a [`StreamSketch`] that
//!   takes each call's collector instead of storing one, so an owner
//!   that crosses threads (a server column) can hold it.
//!
//! The O(N)-space coefficient maintenance is exact; MVW's
//! probabilistic-counting trick for sublinear space is out of scope
//! (DESIGN.md documents the substitution).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use wsyn_core::WsynError;
use wsyn_haar::{is_pow2, log2_exact, transform, ErrorTree1d, HaarError};
use wsyn_synopsis::ErrorMetric;

pub mod streaming;

pub use streaming::{StreamMaxErr, StreamRun, StreamSketch, StreamingMaxErr};

/// Registry descriptor for the streaming family, for assembly into the
/// canonical synopsis-family registry (`wsyn_serve::registry`).
#[must_use]
pub fn families() -> Vec<wsyn_synopsis::SynopsisFamily> {
    use wsyn_synopsis::family::{GuaranteeKind, MetricSupport, STREAM};
    vec![wsyn_synopsis::SynopsisFamily {
        id: STREAM,
        summary: "one-pass streaming B-term construction (certified absolute guarantee)",
        guarantee: GuaranteeKind::Deterministic,
        metrics: MetricSupport::AbsoluteOnly,
        build: |data| Ok(Box::new(StreamMaxErr::new(data)?)),
    }]
}

/// Checks that `d_i += delta` is a valid point update of an `n`-cell
/// vector: `i < n` and a finite `delta`. The one validation rule every
/// update path applies before changing data (the server's ingest queue).
///
/// # Errors
/// [`WsynError::Invalid`] naming the out-of-range index or the
/// non-finite delta.
pub fn check_update(n: usize, i: usize, delta: f64) -> Result<(), WsynError> {
    if i >= n {
        return Err(WsynError::Invalid(format!(
            "update index {i} out of range (N = {n})"
        )));
    }
    if !delta.is_finite() {
        return Err(WsynError::Invalid(format!(
            "update delta at index {i} is not finite"
        )));
    }
    Ok(())
}

/// Exact dynamic maintenance of a 1-D Haar coefficient array under point
/// updates.
///
/// An update `d_i += δ` changes the overall average by `δ/N` and each
/// ancestor detail coefficient at level `l` by `±δ/support_len` — exactly
/// the coefficients on `path(d_i)`.
#[derive(Debug, Clone)]
pub struct DynamicErrorTree {
    coeffs: Vec<f64>,
    data: Vec<f64>,
    levels: u32,
    updates: u64,
}

impl DynamicErrorTree {
    /// Builds the tree from initial data.
    ///
    /// # Errors
    /// Propagates [`HaarError`] for empty / non-power-of-two input.
    pub fn new(data: &[f64]) -> Result<Self, HaarError> {
        let coeffs = transform::forward(data)?;
        Ok(Self {
            coeffs,
            data: data.to_vec(),
            levels: log2_exact(data.len()),
            updates: 0,
        })
    }

    /// An all-zero tree over a power-of-two domain.
    ///
    /// # Errors
    /// [`HaarError`] on a bad domain size.
    pub fn zeros(n: usize) -> Result<Self, HaarError> {
        if n == 0 {
            return Err(HaarError::Empty);
        }
        if !is_pow2(n) {
            return Err(HaarError::NotPowerOfTwo { len: n });
        }
        Ok(Self {
            coeffs: vec![0.0; n],
            data: vec![0.0; n],
            levels: log2_exact(n),
            updates: 0,
        })
    }

    /// Domain size `N`.
    pub fn n(&self) -> usize {
        self.data.len()
    }

    /// Number of point updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Current data vector (maintained alongside the coefficients).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Current coefficient array.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Applies `d_i += delta`, updating the `log N + 1` affected
    /// coefficients in place.
    ///
    /// # Panics
    /// Panics when `i >= N` (see [`check_update`]).
    pub fn update(&mut self, i: usize, delta: f64) {
        let n = self.n();
        assert!(i < n, "update index {i} out of range (N = {n})");
        self.data[i] += delta;
        self.updates += 1;
        // Overall average.
        self.coeffs[0] += delta / n as f64;
        if n == 1 {
            return;
        }
        // Detail ancestors: at level l, coefficient 2^l + (i >> (m - l))
        // with sign +1 in the left half of its support; the update spreads
        // delta over support_len cells, i.e. contributes ±delta/support.
        let m = self.levels;
        for l in 0..m {
            let j = (1usize << l) + (i >> (m - l));
            let support = n >> l;
            let sign = if (i >> (m - l - 1)) & 1 == 0 {
                1.0
            } else {
                -1.0
            };
            self.coeffs[j] += sign * delta / support as f64;
        }
    }

    /// Snapshots the current coefficients into an [`ErrorTree1d`].
    ///
    /// # Panics
    /// Never (domain validated at construction).
    pub fn snapshot(&self) -> ErrorTree1d {
        // The domain (power-of-two, non-empty) was validated when the
        // dynamic tree was built; the same coefficients always re-wrap.
        // wsyn: allow(no-panic)
        ErrorTree1d::from_coeffs(self.coeffs.clone()).expect("validated domain")
    }

    /// Recomputes the coefficients from the maintained data (used by tests
    /// and to shed accumulated floating-point drift after very long update
    /// streams). Returns the maximum absolute drift that was corrected.
    pub fn rebuild(&mut self) -> f64 {
        // Same validated domain as `snapshot`.
        // wsyn: allow(no-panic)
        let fresh = transform::forward(&self.data).expect("validated domain");
        let drift = self
            .coeffs
            .iter()
            .zip(&fresh)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        self.coeffs = fresh;
        drift
    }
}

/// The drift-degradation rule: when has a built synopsis drifted far
/// enough from the data that it must be rebuilt?
///
/// Between rebuilds, a synopsis's guarantee is tracked conservatively:
/// an update `d_i += δ` can worsen any single value's absolute
/// reconstruction error by at most `|δ|` (the data moved while the
/// synopsis did not), so after a stream of updates the **absolute** error
/// guarantee is `built_objective + Σ|δ|` (per-cell sums would be tighter;
/// the global sum keeps the bookkeeping O(1)). This is the one copy of
/// the rule: the server's batched-update columns call
/// [`RebuildPolicy::degraded`] after every applied update.
#[derive(Debug, Clone, Copy)]
pub struct RebuildPolicy {
    tolerance: f64,
}

impl RebuildPolicy {
    /// A policy with rebuild factor `tolerance >= 1` (e.g. `2.0` =
    /// rebuild when the guarantee may have doubled).
    ///
    /// # Errors
    /// [`WsynError::Invalid`] when `tolerance < 1` or is NaN.
    pub fn new(tolerance: f64) -> Result<Self, WsynError> {
        if tolerance < 1.0 || tolerance.is_nan() {
            return Err(WsynError::Invalid(format!(
                "tolerance must be >= 1, got {tolerance}"
            )));
        }
        Ok(Self { tolerance })
    }

    /// Whether a synopsis built at `built_objective` under `metric` has
    /// degraded past the tolerance after accumulating `drift_abs = Σ|δ|`.
    ///
    /// * Absolute metric: the conservative guarantee
    ///   `built_objective + drift_abs` exceeds `tolerance ×
    ///   built_objective`, floored at `f64::MIN_POSITIVE` so a zero
    ///   objective rebuilds on any drift above `tolerance ×
    ///   f64::MIN_POSITIVE`.
    /// * Relative metric: the denominator may also have shrunk, so a
    ///   drifted relative guarantee is not cheaply boundable; drift
    ///   beyond `(tolerance − 1) ×` the sanity/objective scale triggers.
    ///
    /// A guarantee (absolute) or drift (relative) that is no longer
    /// finite always counts as degraded: once both sides of the
    /// comparison overflow, `∞ > ∞` would never fire again.
    #[must_use]
    pub fn degraded(&self, metric: ErrorMetric, built_objective: f64, drift_abs: f64) -> bool {
        match metric {
            ErrorMetric::Absolute => {
                let guarantee = built_objective + drift_abs;
                !guarantee.is_finite()
                    || guarantee > self.tolerance * built_objective.max(f64::MIN_POSITIVE)
            }
            ErrorMetric::Relative { sanity } => {
                !drift_abs.is_finite()
                    || drift_abs > (self.tolerance - 1.0) * sanity.max(built_objective)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn update_matches_recompute() {
        let data = [2.0, 2.0, 0.0, 2.0, 3.0, 5.0, 4.0, 4.0];
        let mut dyn_tree = DynamicErrorTree::new(&data).unwrap();
        dyn_tree.update(3, 5.0);
        dyn_tree.update(0, -2.0);
        dyn_tree.update(7, 0.5);
        let mut expect = data.to_vec();
        expect[3] += 5.0;
        expect[0] -= 2.0;
        expect[7] += 0.5;
        let fresh = transform::forward(&expect).unwrap();
        for (a, b) in dyn_tree.coeffs().iter().zip(&fresh) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert_eq!(dyn_tree.updates(), 3);
    }

    #[test]
    fn random_update_stream_stays_exact() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 64usize;
        let mut dyn_tree = DynamicErrorTree::zeros(n).unwrap();
        let mut reference = vec![0.0f64; n];
        for _ in 0..2000 {
            let i = rng.gen_range(0..n);
            let delta = f64::from(rng.gen_range(-10i32..=10));
            dyn_tree.update(i, delta);
            reference[i] += delta;
        }
        let fresh = transform::forward(&reference).unwrap();
        for (a, b) in dyn_tree.coeffs().iter().zip(&fresh) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // Rebuild corrects only negligible drift.
        let drift = dyn_tree.rebuild();
        assert!(drift < 1e-9, "drift {drift}");
    }

    #[test]
    fn single_cell_domain_updates() {
        let mut t = DynamicErrorTree::new(&[5.0]).unwrap();
        t.update(0, 3.0);
        assert_eq!(t.coeffs(), &[8.0]);
        assert_eq!(t.data(), &[8.0]);
    }

    /// The next representable `f64` above a positive finite `x`.
    fn ulp_above(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn rebuild_policy_absolute_boundary() {
        let policy = RebuildPolicy::new(2.0).unwrap();
        let abs = ErrorMetric::absolute();
        // Guarantee exactly tolerance × objective: not yet degraded.
        assert!(!policy.degraded(abs, 1.0, 1.0));
        // One ulp above: degraded.
        let above = ulp_above(2.0);
        let drift = above - 1.0;
        assert_eq!((1.0 + drift).to_bits(), above.to_bits());
        assert!(policy.degraded(abs, 1.0, drift));
    }

    #[test]
    fn rebuild_policy_zero_objective_uses_min_positive_floor() {
        let abs = ErrorMetric::absolute();
        for tolerance in [1.0, 2.0] {
            let policy = RebuildPolicy::new(tolerance).unwrap();
            assert!(!policy.degraded(abs, 0.0, 0.0), "no drift, no rebuild");
            assert!(policy.degraded(abs, 0.0, 1e-300), "tolerance {tolerance}");
            // The floor itself: drift of exactly tolerance × MIN_POSITIVE
            // is not above it, one ulp more is.
            let floor = tolerance * f64::MIN_POSITIVE;
            assert!(!policy.degraded(abs, 0.0, floor));
            assert!(policy.degraded(abs, 0.0, ulp_above(floor)));
        }
    }

    #[test]
    fn rebuild_policy_relative_threshold_scales_with_sanity_or_objective() {
        let policy = RebuildPolicy::new(2.0).unwrap();
        let rel = ErrorMetric::relative(5.0);
        // Objective below the sanity bound: the threshold is (2-1)·5.
        assert!(!policy.degraded(rel, 0.5, 5.0));
        assert!(policy.degraded(rel, 0.5, ulp_above(5.0)));
        // Objective above the sanity bound: the threshold is (2-1)·10.
        assert!(!policy.degraded(rel, 10.0, 6.0));
        assert!(!policy.degraded(rel, 10.0, 10.0));
        assert!(policy.degraded(rel, 10.0, ulp_above(10.0)));
        // tolerance = 1 rebuilds on any positive drift.
        let eager = RebuildPolicy::new(1.0).unwrap();
        assert!(!eager.degraded(rel, 0.5, 0.0));
        assert!(eager.degraded(rel, 0.5, f64::MIN_POSITIVE));
    }

    #[test]
    fn rebuild_policy_fires_once_the_guarantee_overflows() {
        let policy = RebuildPolicy::new(2.0).unwrap();
        let abs = ErrorMetric::absolute();
        // tolerance × objective is ∞ here; a finite guarantee is not
        // degraded, an overflowed one is.
        assert!(!policy.degraded(abs, 1e308, 0.0));
        assert!(!policy.degraded(abs, 1e308, 1e307));
        assert!(policy.degraded(abs, 1e308, 1e308));
        assert!(policy.degraded(abs, 1e308, f64::INFINITY));
        // Relative: (tolerance − 1) × sanity overflows at tolerance 3.
        let wide = RebuildPolicy::new(3.0).unwrap();
        let rel = ErrorMetric::relative(1e308);
        assert!(!wide.degraded(rel, 0.5, f64::MAX));
        assert!(wide.degraded(rel, 0.5, f64::INFINITY));
    }

    #[test]
    fn bad_tolerance_is_an_error_not_a_panic() {
        for tolerance in [0.5, f64::NAN] {
            let err = RebuildPolicy::new(tolerance).unwrap_err();
            assert!(matches!(err, WsynError::Invalid(_)), "{err:?}");
            assert_eq!(
                err.to_string(),
                format!("tolerance must be >= 1, got {tolerance}")
            );
        }
    }

    #[test]
    fn zeros_rejects_bad_sizes() {
        assert!(DynamicErrorTree::zeros(0).is_err());
        assert!(DynamicErrorTree::zeros(3).is_err());
        assert!(DynamicErrorTree::zeros(4).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn updates_commute_with_transform(
            m in 1u32..=6,
            updates in proptest::collection::vec((0usize..64, -100i32..100), 1..50)
        ) {
            let n = 1usize << m;
            let mut dyn_tree = DynamicErrorTree::zeros(n).unwrap();
            let mut reference = vec![0.0f64; n];
            for (i, delta) in updates {
                let i = i % n;
                let delta = f64::from(delta);
                dyn_tree.update(i, delta);
                reference[i] += delta;
            }
            let fresh = transform::forward(&reference).unwrap();
            for (a, b) in dyn_tree.coeffs().iter().zip(&fresh) {
                prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
            }
        }
    }
}
