//! OLAP-cube summarization in two dimensions (§3.2).
//!
//! A 16×16 "sales by region × product" measure cube is summarized with the
//! multi-dimensional ε-additive scheme and with the `(1+ε)` absolute-error
//! scheme, then range aggregates are answered straight from the synopses.
//!
//! Run with: `cargo run --release --example olap_cube`

use wavelet_synopses::aqp::QueryEngineNd;
use wavelet_synopses::datagen::{cube_bumps, quantize_to_i64};
use wavelet_synopses::haar::nd::{NdArray, NdShape};
use wavelet_synopses::synopsis::multi_dim::additive::AdditiveScheme;
use wavelet_synopses::synopsis::multi_dim::oneplus::OnePlusEps;
use wavelet_synopses::synopsis::{Collector, ErrorMetric, Pool};

fn main() {
    let side = 16usize;
    let shape = NdShape::hypercube(side, 2).unwrap();
    // Synthetic sales cube: a few regional hot spots over a base level.
    let sales = cube_bumps(side, 2, 4, (200.0, 900.0), 20.0, 2024);
    let sales_int = quantize_to_i64(&sales);
    let sales_f: Vec<f64> = sales_int.iter().map(|&v| v as f64).collect();
    let arr = NdArray::new(shape.clone(), sales_f.clone()).unwrap();

    let budget = 24usize;
    println!(
        "16x16 sales cube, budget {budget} of {} coefficients\n",
        side * side
    );

    // ε-additive scheme, max *relative* error with sanity bound 10.
    let additive = AdditiveScheme::new(&arr).unwrap();
    let rel = additive.run(budget, ErrorMetric::relative(10.0), 0.2);
    println!(
        "additive scheme (relative, s=10, eps=0.2): retained {}, max rel err {:.4} (DP estimate {:.4})",
        rel.synopsis.len(),
        rel.true_objective,
        rel.dp_objective
    );

    // (1+ε) scheme for max absolute error on the integer cube.
    let oneplus = OnePlusEps::new(&shape, &sales_int).unwrap();
    let (abs, reports) = oneplus.run_with(budget, 0.25, &Pool::new(), &Collector::noop());
    println!(
        "(1+eps) scheme  (absolute, eps=0.25)     : retained {}, max abs err {:.2}",
        abs.synopsis.len(),
        abs.true_objective
    );
    println!("  tau sweep:");
    for t in &reports {
        match t.true_objective {
            Some(err) => println!(
                "    tau = {:>8}: forced {:>3} coeffs, abs err {:>10.2}",
                t.tau, t.forced, err
            ),
            None => println!(
                "    tau = {:>8}: forced {:>3} coeffs  (infeasible for this budget)",
                t.tau, t.forced
            ),
        }
    }

    // Answer OLAP range aggregates directly from the synopsis.
    let engine = QueryEngineNd::new(abs.synopsis.clone());
    println!("\nrange aggregates from the (1+eps) synopsis:");
    for (r0, r1) in [(0..8usize, 0..8usize), (8..16, 8..16), (4..12, 0..16)] {
        let mut exact = 0.0;
        for x0 in r0.clone() {
            for x1 in r1.clone() {
                exact += sales_f[shape.linearize(&[x0, x1])];
            }
        }
        let est = engine.range_sum(&[r0.clone(), r1.clone()]);
        let cells = (r0.end - r0.start) * (r1.end - r1.start);
        println!(
            "  sum over {r0:?} x {r1:?}: est {est:>12.0}, exact {exact:>12.0}, \
             guaranteed within ±{:.0}",
            abs.true_objective * cells as f64
        );
    }
}
