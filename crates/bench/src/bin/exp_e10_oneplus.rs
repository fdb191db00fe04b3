//! E10: Theorem 3.4 + Proposition 3.3 — the `(1+ε)` scheme for maximum
//! absolute error.
//!
//! Reports the measured approximation ratio vs. the exact optimum across
//! an ε sweep (always ≤ 1+ε, usually far better), the τ-sweep internals
//! (forced-retention counts, feasibility, per-τ objectives) for one
//! representative run, and the runtime trend in 1/ε.

use wsyn_bench::{f, md_table, timed};
use wsyn_datagen::{cube_bumps, quantize_to_i64};
use wsyn_haar::nd::NdShape;
use wsyn_synopsis::multi_dim::integer::IntegerExact;
use wsyn_synopsis::multi_dim::oneplus::OnePlusEps;
use wsyn_synopsis::{Collector, Pool};

fn main() {
    let side = 8usize;
    let d = 2usize;
    let shape = NdShape::hypercube(side, d).unwrap();
    let data = quantize_to_i64(&cube_bumps(side, d, 4, (100.0, 500.0), 8.0, 31));
    let exact = IntegerExact::new(&shape, &data).unwrap();
    let scheme = OnePlusEps::new(&shape, &data).unwrap();
    println!(
        "## E10 — Theorem 3.4: (1+ε) scheme on an {side}x{side} cube (R_Z = {})\n",
        scheme.rz()
    );

    println!("### approximation ratio vs ε (per budget)\n");
    let mut rows = Vec::new();
    for b in [4usize, 8, 16] {
        let opt = exact.run(b).true_objective;
        for eps in [1.0, 0.5, 0.25, 0.1] {
            let (r, ms) = timed(|| scheme.run(b, eps));
            let ratio = if opt > 0.0 {
                r.true_objective / opt
            } else {
                1.0
            };
            assert!(
                r.true_objective <= (1.0 + eps) * opt + 1e-9,
                "guarantee violated: b={b} eps={eps}"
            );
            rows.push(vec![
                b.to_string(),
                f(eps),
                f(opt),
                f(r.true_objective),
                format!("{ratio:.4}"),
                format!("{:.4}", 1.0 + eps),
                f(ms),
            ]);
        }
    }
    md_table(
        &[
            "B",
            "ε",
            "exact OPT",
            "(1+ε) scheme",
            "measured ratio",
            "guaranteed ratio",
            "time (ms)",
        ],
        &rows,
    );

    println!("\n### τ-sweep internals (B = 8, ε = 0.25)\n");
    let (_, reports) = scheme.run_with(8, 0.25, &Pool::new(), &Collector::noop());
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|t| {
            vec![
                t.tau.to_string(),
                t.forced.to_string(),
                t.true_objective.map_or_else(|| "infeasible".into(), f),
                t.states.to_string(),
            ]
        })
        .collect();
    md_table(
        &["τ", "|S_>τ| (forced)", "true abs err", "DP states"],
        &rows,
    );
    println!("\nmeasured ratio ≤ 1+ε at every (B, ε) (asserted)  ✓");
}
