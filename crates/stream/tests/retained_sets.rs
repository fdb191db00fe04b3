//! Output pin for which coefficients the one-pass sketch keeps.
//!
//! The `streaming-approx` transcript pins objective bits, kept counts
//! and `peak_cells`, but not the retained coefficients themselves. This
//! recording does: for seeded zipf, spike and plateau streams at
//! `N = 2^10 … 2^12`, every budget in [`BUDGETS`] and every ε in
//! [`EPSILONS`], one line holds the objective bits and each retained
//! `(index, value bits)` pair in the synopsis's order. The comparison is
//! byte for byte; a mismatch means the streaming DP's output changed and
//! is never a re-recording opportunity unless that change is the intent.

use std::fmt::Write as _;

use wsyn_datagen::ZipfPlacement;
use wsyn_stream::StreamingMaxErr;
use wsyn_synopsis::{ErrorMetric, RunParams};

const BUDGETS: [usize; 4] = [1, 4, 8, 16];
const EPSILONS: [f64; 3] = [0.1, 0.25, 0.5];
const SEED: u64 = 17;

/// The seeded stream of one shape at length `n`.
fn stream(shape: &str, n: usize) -> Vec<f64> {
    match shape {
        "zipf" => wsyn_datagen::zipf(n, 1.1, 100_000.0, ZipfPlacement::Shuffled, SEED),
        "spike" => wsyn_datagen::spikes(n, 8, (50.0, 500.0), (-5.0, 5.0), SEED),
        "plateau" => wsyn_datagen::piecewise_constant(n, 12, (-100.0, 100.0), 0.0, SEED),
        other => panic!("unknown shape {other}"),
    }
}

/// One line per `(shape, n, B, ε)`, in that nesting order.
fn transcript() -> String {
    let mut out = String::new();
    for shape in ["zipf", "spike", "plateau"] {
        for n in [1 << 10, 1 << 11, 1 << 12] {
            let data = stream(shape, n);
            let scale = data.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for b in BUDGETS {
                for eps in EPSILONS {
                    let params = RunParams::new(b, ErrorMetric::absolute()).eps(eps);
                    let mut builder = StreamingMaxErr::new(n, scale, &params).unwrap();
                    builder.push_slice(&data).unwrap();
                    let run = builder.finalize().unwrap();
                    write!(
                        out,
                        "{shape} n={n} b={b} eps={eps} objective={:016x} kept={}",
                        run.objective.to_bits(),
                        run.synopsis.len()
                    )
                    .unwrap();
                    for &(j, c) in run.synopsis.entries() {
                        write!(out, " {j}:{:016x}", c.to_bits()).unwrap();
                    }
                    out.push('\n');
                }
            }
        }
    }
    out
}

#[test]
fn retained_sets_match_the_recording() {
    let now = transcript();
    let recorded = include_str!("transcripts/retained_sets.txt");
    let first_diff = now
        .lines()
        .zip(recorded.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b);
    assert!(
        now == recorded,
        "retained-set transcript drifted from its recording; {}",
        first_diff.map_or_else(
            || format!(
                "line counts {} vs {}",
                now.lines().count(),
                recorded.lines().count()
            ),
            |(i, (a, b))| format!("line {}:\n  now:      {a}\n  recorded: {b}", i + 1)
        )
    );
}
