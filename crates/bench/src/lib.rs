//! # wsyn-bench — experiment harness
//!
//! One binary per experiment of DESIGN.md's per-experiment index
//! (`exp_e1` … `exp_e16`), each printing the markdown tables recorded in
//! `EXPERIMENTS.md`, plus Criterion micro-benchmarks (`benches/`). The
//! repository's end-to-end, per-layer benchmark is not here: it is the
//! `ledger` package under `ledger/` (see `ledger/BENCHMARK.md`).
//!
//! The PODS 2004 paper contains no empirical section (its §5 defers the
//! experimental study), so these experiments (a) mechanically verify every
//! displayed artifact and theorem of the paper and (b) carry out the
//! deferred comparison study against conventional and probabilistic
//! synopses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Instant;

use wsyn_datagen::{gaussian_bumps, piecewise_constant, zipf, ZipfPlacement};

/// Prints a GitHub-markdown table.
pub fn md_table(headers: &[&str], rows: &[Vec<String>]) {
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Times a closure, returning `(result, milliseconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// The standard one-dimensional experiment workloads (seeded,
/// deterministic). These mirror the data regimes of the companion
/// papers' evaluations: skewed frequency vectors, smooth multi-modal
/// signals, and flat/spiky step signals.
pub fn workloads_1d(n: usize) -> Vec<(&'static str, Vec<f64>)> {
    vec![
        (
            "zipf(1.0)-shuffled",
            zipf(n, 1.0, 100_000.0, ZipfPlacement::Shuffled, 11),
        ),
        (
            "zipf(0.7)-decreasing",
            zipf(n, 0.7, 100_000.0, ZipfPlacement::Decreasing, 11),
        ),
        (
            "gaussian-bumps",
            gaussian_bumps(n, 6, (50.0, 400.0), (0.02, 0.12), 3.0, 7),
        ),
        (
            "piecewise-constant",
            piecewise_constant(n, 12, (1.0, 600.0), 0.0, 13),
        ),
    ]
}

/// Format a float with 4 significant decimals for tables.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}
