//! E11: approximate query processing with guarantees (§1's motivation).
//!
//! Over a Zipfian selectivity workload: the distribution of per-query
//! range-count errors under equal-size MinMaxErr, greedy-L2 and MinRelVar
//! synopses, plus verification that the deterministic per-answer intervals
//! of `wsyn-aqp::bounds` contain every true answer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsyn_aqp::bounds;
use wsyn_bench::{f, md_table};
use wsyn_datagen::{zipf, ZipfPlacement};
use wsyn_haar::ErrorTree1d;
use wsyn_prob::MinRelVar;
use wsyn_synopsis::greedy::greedy_l2_1d;
use wsyn_synopsis::metric::error_quantile;
use wsyn_synopsis::one_dim::MinMaxErr;
use wsyn_synopsis::ErrorMetric;

fn main() {
    let n = 256usize;
    let b = 16usize;
    let sanity = 1.0;
    let metric = ErrorMetric::relative(sanity);
    let data = zipf(n, 1.1, 200_000.0, ZipfPlacement::Shuffled, 3);

    let tree = ErrorTree1d::from_data(&data).unwrap();
    let det = MinMaxErr::new(&data).unwrap().run(b, metric);
    // On spiky shuffled-Zipf data the max-relative-error optimum saturates
    // at 1.0 (the empty synopsis is genuinely optimal — see the module
    // docs of wsyn_synopsis::one_dim); the *absolute*-metric synopsis is
    // the natural deterministic choice for range aggregates, so both are
    // reported.
    let det_abs = MinMaxErr::new(&data)
        .unwrap()
        .run(b, ErrorMetric::absolute());
    let l2 = greedy_l2_1d(&tree, b);
    let prob = {
        let a = MinRelVar::new(&data).unwrap().assign(b, 6, sanity);
        let mut rng = StdRng::seed_from_u64(1);
        a.draw(&mut rng)
    };

    // 500 random range-count queries.
    let mut rng = StdRng::seed_from_u64(99);
    let queries: Vec<(usize, usize)> = (0..500)
        .map(|_| {
            let lo = rng.gen_range(0..n - 1);
            let hi = rng.gen_range(lo + 1..=n);
            (lo, hi)
        })
        .collect();

    println!("## E11 — range-count query error over a Zipf(1.1) column (N = {n}, B = {b}, 500 queries)\n");
    let mut rows = Vec::new();
    for (name, syn) in [
        ("MinMaxErr (rel)", det.synopsis.clone()),
        ("MinMaxErr (abs)", det_abs.synopsis.clone()),
        ("greedy-L2", l2),
        ("MinRelVar draw", prob),
    ] {
        let errs: Vec<f64> = queries
            .iter()
            .map(|&(lo, hi)| {
                let exact: f64 = data[lo..hi].iter().sum();
                let est = syn.range_sum(lo..hi);
                (est - exact).abs() / exact.max(1.0)
            })
            .collect();
        rows.push(vec![
            name.to_string(),
            f(error_quantile(errs.clone(), 0.5)),
            f(error_quantile(errs.clone(), 0.9)),
            f(error_quantile(errs.clone(), 0.99)),
            f(errs.iter().copied().fold(0.0f64, f64::max)),
        ]);
    }
    md_table(&["synopsis", "median rel err", "p90", "p99", "max"], &rows);

    // Deterministic guarantees: every point interval contains the truth.
    let mut violations = 0usize;
    for (i, &d) in data.iter().enumerate() {
        let iv = bounds::point_relative(det.synopsis.point(i), det.objective, sanity);
        if !iv.contains(d) {
            violations += 1;
        }
    }
    println!("\nper-answer interval check (deterministic synopsis): {violations} violations out of {n} points");
    assert_eq!(violations, 0);
    println!("every true value inside its guaranteed interval  ✓");

    // Absolute-mode range-sum intervals.
    let mut violations = 0usize;
    for &(lo, hi) in &queries {
        let exact: f64 = data[lo..hi].iter().sum();
        let iv = bounds::range_sum_absolute(
            det_abs.synopsis.range_sum(lo..hi),
            det_abs.objective,
            hi - lo,
        );
        if !iv.contains(exact) {
            violations += 1;
        }
    }
    println!(
        "range-sum interval check (absolute synopsis): {violations} violations out of {} queries",
        queries.len()
    );
    assert_eq!(violations, 0);
}
