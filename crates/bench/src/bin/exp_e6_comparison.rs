//! E6: the deferred headline experiment — **maximum relative error vs.
//! budget** for deterministic MinMaxErr against the conventional greedy L2
//! baseline and the probabilistic MinRelVar / MinRelBias synopses of
//! Garofalakis & Gibbons (the comparison the paper's §5 promises).
//!
//! Expected shape: MinMaxErr (provably optimal) lower-bounds everything at
//! every budget; greedy L2 suffers most on skewed/spiky workloads (small
//! data values under-served); probabilistic draws land between, with
//! per-draw spread (E8 quantifies the spread).
//!
//! The budgets of a sweep are independent DP runs over shared immutable
//! solvers, so each budget row is one item on the process-wide
//! [`Pool`] (`wsyn_core::Pool`), whose `map_indexed` returns rows in
//! budget order, keeping the output deterministic (on one thread it
//! runs the rows inline, in order).

use rand::rngs::StdRng;
use rand::SeedableRng;
use wsyn_bench::{f, md_table, workloads_1d};
use wsyn_core::Pool;
use wsyn_haar::ErrorTree1d;
use wsyn_prob::{MinRelBias, MinRelVar};
use wsyn_synopsis::greedy::greedy_l2_1d;
use wsyn_synopsis::one_dim::MinMaxErr;
use wsyn_synopsis::ErrorMetric;

fn main() {
    let n = 256usize;
    let sanity = 1.0;
    let metric = ErrorMetric::relative(sanity);
    let q = 6usize; // fractional-storage quantization for the GG baselines
    let draws = 20u64;
    let budgets = [8usize, 16, 24, 32];

    let pool = Pool::new();
    println!("## E6 — max relative error vs budget (N = {n}, sanity s = {sanity})\n");
    for (name, data) in workloads_1d(n) {
        println!("### workload: {name}\n");
        let tree = ErrorTree1d::from_data(&data).unwrap();
        let det = MinMaxErr::new(&data).unwrap();
        let mrv = MinRelVar::new(&data).unwrap();
        let mrb = MinRelBias::new(&data).unwrap();
        let rows: Vec<Vec<String>> = pool.map_indexed(budgets.to_vec(), |_, b| {
            let opt = det.run(b, metric).objective;
            budget_row(b, opt, &tree, &data, metric, q, sanity, draws, &mrv, &mrb)
        });
        md_table(
            &[
                "B",
                "MinMaxErr (optimal)",
                "greedy L2",
                "MinRelVar mean/worst",
                "MinRelBias mean/worst",
                "L2 vs optimal",
            ],
            &rows,
        );
        println!();
    }
    println!("MinMaxErr ≤ every baseline at every budget (asserted)  ✓");
}

#[allow(clippy::too_many_arguments)]
fn budget_row(
    b: usize,
    opt: f64,
    tree: &ErrorTree1d,
    data: &[f64],
    metric: ErrorMetric,
    q: usize,
    sanity: f64,
    draws: u64,
    mrv: &MinRelVar,
    mrb: &MinRelBias,
) -> Vec<String> {
    let l2 = greedy_l2_1d(tree, b).max_error(data, metric);
    let (rv_mean, rv_worst) = draw_stats(&mrv.assign(b, q, sanity), data, metric, draws);
    let (rb_mean, rb_worst) = draw_stats(&mrb.assign(b, q, sanity), data, metric, draws);
    assert!(opt <= l2 + 1e-9, "optimality violated vs greedy");
    assert!(opt <= rv_worst + 1e-9, "optimality violated vs MinRelVar");
    vec![
        b.to_string(),
        f(opt),
        f(l2),
        format!("{} / {}", f(rv_mean), f(rv_worst)),
        format!("{} / {}", f(rb_mean), f(rb_worst)),
        format!("{:.1}x", l2 / opt.max(1e-12)),
    ]
}

fn draw_stats(
    assignment: &wsyn_prob::ProbAssignment,
    data: &[f64],
    metric: ErrorMetric,
    draws: u64,
) -> (f64, f64) {
    let mut worst = 0.0f64;
    let mut sum = 0.0f64;
    for seed in 0..draws {
        let mut rng = StdRng::seed_from_u64(seed);
        let err = assignment.draw(&mut rng).max_error(data, metric);
        worst = worst.max(err);
        sum += err;
    }
    (sum / draws as f64, worst)
}
