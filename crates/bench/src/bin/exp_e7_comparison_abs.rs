//! E7: **maximum absolute error vs. budget** — the companion of E6 for the
//! paper's second target metric. Deterministic MinMaxErr vs. greedy L2 and
//! Proposition 3.3's lower bound (largest dropped |coefficient|), which the
//! optimum must and does respect while staying within a small factor of it.
//!
//! Both algorithms are driven through the uniform [`Thresholder`] trait,
//! and the independent budget rows of each sweep fan out through the
//! process-wide [`Pool`] (`wsyn_core::Pool`), whose `map_indexed`
//! returns rows in budget order for deterministic output (on one thread
//! it runs the rows inline, in order).

use wsyn_bench::{f, md_table, workloads_1d};
use wsyn_core::Pool;
use wsyn_synopsis::one_dim::MinMaxErr;
use wsyn_synopsis::thresholder::GreedyL2;
use wsyn_synopsis::{prop33, ErrorMetric, Thresholder};

fn main() {
    let n = 256usize;
    let metric = ErrorMetric::absolute();
    let budgets = [8usize, 16, 24, 32];
    let pool = Pool::new();
    println!("## E7 — max absolute error vs budget (N = {n})\n");
    for (name, data) in workloads_1d(n) {
        println!("### workload: {name}\n");
        let det = MinMaxErr::new(&data).unwrap();
        let l2 = GreedyL2::new(&data).unwrap();
        let rows: Vec<Vec<String>> = pool.map_indexed(budgets.to_vec(), |_, b| {
            // Uniform dispatch: the optimal DP and the baseline answer
            // the same (budget, metric) question through the same
            // interface.
            let solvers: [&(dyn Thresholder + Sync); 2] = [&det, &l2];
            let [opt, base] = solvers.map(|s| s.threshold(b, metric).unwrap());
            budget_row(b, opt, base, l2.tree())
        });
        md_table(
            &[
                "B",
                "MinMaxErr (optimal)",
                "greedy L2",
                "Prop 3.3 lower bound",
                "optimal vs bound",
                "L2 vs optimal",
            ],
            &rows,
        );
        println!();
    }
    println!("optimal ≤ greedy and optimal ≥ max dropped |coefficient| everywhere  ✓");
}

fn budget_row(
    b: usize,
    opt: wsyn_synopsis::ThresholdRun,
    base: wsyn_synopsis::ThresholdRun,
    tree: &wsyn_haar::ErrorTree1d,
) -> Vec<String> {
    let opt_syn = opt.synopsis.into_one("E7").unwrap();
    let bound = prop33::max_dropped_abs_1d(tree, &opt_syn);
    assert!(opt.objective <= base.objective + 1e-9);
    assert!(opt.objective >= bound - 1e-9, "Prop 3.3 violated");
    vec![
        b.to_string(),
        f(opt.objective),
        f(base.objective),
        f(bound),
        format!("{:.2}x", opt.objective / bound.max(1e-12)),
        format!("{:.2}x", base.objective / opt.objective.max(1e-12)),
    ]
}
