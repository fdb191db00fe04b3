//! Cross-crate integration: datagen → haar → synopsis algorithms → aqp,
//! verifying the paper's qualitative claims end to end in one dimension.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wavelet_synopses::aqp::bounds;
use wavelet_synopses::datagen::{gaussian_bumps, piecewise_constant, zipf, ZipfPlacement};
use wavelet_synopses::haar::ErrorTree1d;
use wavelet_synopses::prob::MinRelVar;
use wavelet_synopses::synopsis::greedy::greedy_l2_1d;
use wavelet_synopses::synopsis::one_dim::MinMaxErr;
use wavelet_synopses::synopsis::ErrorMetric;

fn workloads(n: usize) -> Vec<(&'static str, Vec<f64>)> {
    vec![
        (
            "zipf-shuffled",
            zipf(n, 1.0, 50_000.0, ZipfPlacement::Shuffled, 11),
        ),
        (
            "zipf-decreasing",
            zipf(n, 0.8, 50_000.0, ZipfPlacement::Decreasing, 11),
        ),
        (
            "bumps",
            gaussian_bumps(n, 5, (50.0, 300.0), (0.02, 0.1), 2.0, 3),
        ),
        ("piecewise", piecewise_constant(n, 10, (1.0, 500.0), 0.0, 5)),
    ]
}

/// Theorem 3.1 in action: the deterministic optimum never loses to the
/// greedy L2 baseline or to any probabilistic draw, on any workload.
#[test]
fn minmaxerr_dominates_baselines_on_max_relative_error() {
    let n = 64;
    let b = 8;
    let metric = ErrorMetric::relative(1.0);
    for (name, data) in workloads(n) {
        let tree = ErrorTree1d::from_data(&data).unwrap();
        let det = MinMaxErr::new(&data).unwrap().run(b, metric);
        let l2_err = greedy_l2_1d(&tree, b).max_error(&data, metric);
        assert!(
            det.objective <= l2_err + 1e-9,
            "{name}: deterministic {} vs greedy {l2_err}",
            det.objective
        );
        let assignment = MinRelVar::new(&data).unwrap().assign(b, 6, 1.0);
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let draw_err = assignment.draw(&mut rng).max_error(&data, metric);
            assert!(
                det.objective <= draw_err + 1e-9,
                "{name} seed {seed}: deterministic {} vs draw {draw_err}",
                det.objective
            );
        }
    }
}

/// The reported objective is always the true error of the synopsis, and
/// per-answer intervals derived from it always contain the truth.
#[test]
fn guarantees_hold_for_every_point_query() {
    let n = 64;
    let metric = ErrorMetric::relative(2.0);
    for (name, data) in workloads(n) {
        for b in [4usize, 10] {
            let det = MinMaxErr::new(&data).unwrap().run(b, metric);
            let true_err = det.synopsis.max_error(&data, metric);
            assert!(
                (true_err - det.objective).abs() < 1e-9,
                "{name} b={b}: objective {} vs true {true_err}",
                det.objective
            );
            for (i, &d) in data.iter().enumerate() {
                let iv = bounds::point_relative(det.synopsis.point(i), det.objective, 2.0);
                assert!(iv.contains(d), "{name} b={b} i={i}: {iv:?} vs {d}");
            }
        }
    }
}

/// Absolute-error mode: range-sum intervals contain the exact answers.
#[test]
fn range_sum_guarantees_hold() {
    let data = zipf(64, 1.2, 20_000.0, ZipfPlacement::Shuffled, 23);
    let det = MinMaxErr::new(&data)
        .unwrap()
        .run(10, ErrorMetric::absolute());
    for lo in (0..64).step_by(7) {
        for hi in ((lo + 1)..=64).step_by(9) {
            let exact: f64 = data[lo..hi].iter().sum();
            let est = det.synopsis.range_sum(lo..hi);
            let iv = bounds::range_sum_absolute(est, det.objective, hi - lo);
            assert!(iv.contains(exact), "[{lo},{hi}): {iv:?} vs {exact}");
        }
    }
}

/// Budget monotonicity across the full pipeline (more space never hurts the
/// optimal deterministic objective).
#[test]
fn objective_monotone_in_budget_on_real_workloads() {
    for (name, data) in workloads(32) {
        let solver = MinMaxErr::new(&data).unwrap();
        for metric in [ErrorMetric::relative(1.0), ErrorMetric::absolute()] {
            let mut prev = f64::INFINITY;
            for b in [0usize, 1, 2, 4, 8, 16, 32] {
                let obj = solver.run(b, metric).objective;
                assert!(obj <= prev + 1e-9, "{name} {metric:?} b={b}");
                prev = obj;
            }
            // Full budget must reach zero error.
            assert!(prev < 1e-9, "{name} {metric:?}: full budget error {prev}");
        }
    }
}

/// Determinism: the whole pipeline is bit-for-bit reproducible.
#[test]
fn pipeline_is_deterministic() {
    let data = gaussian_bumps(64, 6, (10.0, 200.0), (0.01, 0.2), 1.0, 77);
    let r1 = MinMaxErr::new(&data)
        .unwrap()
        .run(9, ErrorMetric::relative(1.0));
    let r2 = MinMaxErr::new(&data)
        .unwrap()
        .run(9, ErrorMetric::relative(1.0));
    assert_eq!(r1.synopsis, r2.synopsis);
    assert_eq!(r1.objective.to_bits(), r2.objective.to_bits());
}
