//! Property-based tests for the one-dimensional `MinMaxErr` engines:
//! engine/split equivalence, optimality against the oracle, and structural
//! invariants — on fully random inputs via proptest.

use proptest::prelude::*;
use wsyn_synopsis::one_dim::{Config, Engine, MinMaxErr, SplitSearch};
use wsyn_synopsis::{oracle, ErrorMetric};

fn pow2_data() -> impl Strategy<Value = Vec<f64>> {
    (1u32..=4).prop_flat_map(|m| {
        proptest::collection::vec((-50i32..=50).prop_map(f64::from), 1usize << m)
    })
}

/// Integer-valued signals up to `N = 64`. Integer data keeps every
/// engine's float computations dyadic-exact, so cross-engine equality
/// can be asserted on exact bit patterns, not tolerances.
fn pow2_data_large() -> impl Strategy<Value = Vec<f64>> {
    (1u32..=6).prop_flat_map(|m| {
        proptest::collection::vec((-50i32..=50).prop_map(f64::from), 1usize << m)
    })
}

fn metrics() -> impl Strategy<Value = ErrorMetric> {
    prop_oneof![
        Just(ErrorMetric::absolute()),
        (1u32..=20).prop_map(|s| ErrorMetric::relative(f64::from(s) / 2.0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// All six engine×split configurations compute the same optimum, and
    /// each returned synopsis attains its reported objective.
    #[test]
    fn engines_and_splits_agree(data in pow2_data(), b in 0usize..7, metric in metrics()) {
        let solver = MinMaxErr::new(&data).unwrap();
        let mut objectives = Vec::new();
        for engine in [Engine::Dedup, Engine::SubsetMask, Engine::BottomUp] {
            for split in [SplitSearch::Binary, SplitSearch::Linear] {
                let r = solver.run_with(b, metric, Config { engine, split });
                let true_err = r.synopsis.max_error(&data, metric);
                prop_assert!(
                    (true_err - r.objective).abs() < 1e-9,
                    "{engine:?}/{split:?}: objective {} vs true {}",
                    r.objective, true_err
                );
                prop_assert!(r.synopsis.len() <= b);
                objectives.push(r.objective);
            }
        }
        for w in objectives.windows(2) {
            prop_assert!((w[0] - w[1]).abs() < 1e-9, "engines disagree: {objectives:?}");
        }
    }

    /// The DP matches the exhaustive oracle (Theorem 3.1) on random data.
    #[test]
    fn optimal_vs_oracle(data in pow2_data(), b in 0usize..6, metric in metrics()) {
        let solver = MinMaxErr::new(&data).unwrap();
        let opt = oracle::exhaustive_1d(solver.tree(), &data, b, metric).objective;
        let r = solver.run(b, metric);
        prop_assert!((r.objective - opt).abs() < 1e-9, "{} vs {opt}", r.objective);
    }

    /// Monotone in budget; zero at full budget.
    #[test]
    fn budget_monotonicity(data in pow2_data(), metric in metrics()) {
        let solver = MinMaxErr::new(&data).unwrap();
        let n = data.len();
        let mut prev = f64::INFINITY;
        for b in 0..=n {
            let obj = solver.run(b, metric).objective;
            prop_assert!(obj <= prev + 1e-9, "b={b}: {obj} > {prev}");
            prev = obj;
        }
        prop_assert!(prev < 1e-9, "full budget should be exact, got {prev}");
    }

    /// Shift invariance of absolute error up to the (shifted) average:
    /// adding a constant only changes c_0, so optimal absolute objectives
    /// with c_0 force-included are equal. Weaker checkable form: the
    /// objective changes by at most |shift| in either direction.
    #[test]
    fn absolute_error_shift_stability(data in pow2_data(), b in 1usize..5, shift in -20i32..=20) {
        let shift = f64::from(shift);
        let shifted: Vec<f64> = data.iter().map(|&v| v + shift).collect();
        let o1 = MinMaxErr::new(&data).unwrap().run(b, ErrorMetric::absolute()).objective;
        let o2 = MinMaxErr::new(&shifted).unwrap().run(b, ErrorMetric::absolute()).objective;
        prop_assert!((o1 - o2).abs() <= shift.abs() + 1e-9, "{o1} vs {o2} (shift {shift})");
    }

    /// Permuting data within the two halves' subtrees symmetrically
    /// (mirror the whole vector) preserves the optimal objective — the
    /// error tree is left/right symmetric.
    #[test]
    fn mirror_symmetry(data in pow2_data(), b in 0usize..6, metric in metrics()) {
        let mirrored: Vec<f64> = data.iter().rev().copied().collect();
        let o1 = MinMaxErr::new(&data).unwrap().run(b, metric).objective;
        let o2 = MinMaxErr::new(&mirrored).unwrap().run(b, metric).objective;
        prop_assert!((o1 - o2).abs() < 1e-9, "{o1} vs mirrored {o2}");
    }

    /// Duplicating every value (N -> 2N, pairwise constant) keeps the same
    /// optimal objective at budget b+... : the duplicated signal's finest
    /// detail coefficients are all zero, so the same solution transfers.
    #[test]
    fn pairwise_duplication_preserves_objective(data in pow2_data(), b in 0usize..5, metric in metrics()) {
        let doubled: Vec<f64> = data.iter().flat_map(|&v| [v, v]).collect();
        let o1 = MinMaxErr::new(&data).unwrap().run(b, metric).objective;
        let o2 = MinMaxErr::new(&doubled).unwrap().run(b, metric).objective;
        prop_assert!((o1 - o2).abs() < 1e-9, "{o1} vs doubled {o2}");
    }
}

proptest! {
    // Fewer cases: each one sweeps all budgets through three engines.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pruned Dedup kernel returns **bit-identical** objectives and
    /// retained sets vs. the unpruned SubsetMask and BottomUp engines,
    /// across both metrics and all budgets `0..=N`. SubsetMask's
    /// quadratic state blow-up makes it the expensive reference, so it
    /// checks a budget sample once `N > 16`; BottomUp checks every
    /// budget.
    #[test]
    fn pruned_dedup_bit_identical_to_unpruned_engines(
        data in pow2_data_large(),
        metric in metrics(),
        split_linear in any::<bool>(),
    ) {
        let split = if split_linear { SplitSearch::Linear } else { SplitSearch::Binary };
        let solver = MinMaxErr::new(&data).unwrap();
        let n = data.len();
        for b in 0..=n {
            let dedup = solver.run_with(b, metric, Config { engine: Engine::Dedup, split });
            let bottom_up = solver.run_with(b, metric, Config { engine: Engine::BottomUp, split });
            prop_assert_eq!(
                dedup.objective.to_bits(),
                bottom_up.objective.to_bits(),
                "objective vs BottomUp: n={} b={} {:?}",
                n, b, metric
            );
            prop_assert_eq!(
                dedup.synopsis.indices(),
                bottom_up.synopsis.indices(),
                "retained set vs BottomUp: n={} b={} {:?}",
                n, b, metric
            );
            if n <= 16 || b % 7 == 0 {
                let subset =
                    solver.run_with(b, metric, Config { engine: Engine::SubsetMask, split });
                prop_assert_eq!(
                    dedup.objective.to_bits(),
                    subset.objective.to_bits(),
                    "objective vs SubsetMask: n={} b={} {:?}",
                    n, b, metric
                );
                prop_assert_eq!(
                    dedup.synopsis.indices(),
                    subset.synopsis.indices(),
                    "retained set vs SubsetMask: n={} b={} {:?}",
                    n, b, metric
                );
            }
        }
    }
}
