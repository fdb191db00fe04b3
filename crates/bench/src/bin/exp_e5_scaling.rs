//! E5: Theorem 3.1 — `O(N² B log B)` running time, and engine ablations.
//!
//! Measures wall-clock time of the default engine across an `N` sweep
//! (fixed `B`) and a `B` sweep (fixed `N`), reporting the empirical growth
//! ratios (the `N` sweep should grow ≈4× per doubling, i.e. quadratically;
//! the `B` sweep ≈ linearly up to the `log B` factor). Also compares the four engines and the two split-search strategies on a
//! fixed instance, including their DP state counts (the dedup-vs-subset
//! ratio quantifies how much incoming-error merging saves; the
//! Dedup-vs-DedupExhaustive ratio quantifies branch-and-bound pruning).

use wsyn_bench::{f, md_table, timed};
use wsyn_datagen::{zipf, ZipfPlacement};
use wsyn_synopsis::one_dim::{Config, Engine, MinMaxErr, SplitSearch};
use wsyn_synopsis::ErrorMetric;

fn main() {
    let metric = ErrorMetric::relative(1.0);

    println!("## E5 — runtime scaling of MinMaxErr (dedup engine, binary split)\n");
    println!("### N sweep (B = 12)\n");
    let mut rows = Vec::new();
    let mut prev = None;
    for n in [64usize, 128, 256, 512] {
        let data = zipf(n, 1.0, 100_000.0, ZipfPlacement::Shuffled, 5);
        let solver = MinMaxErr::new(&data).unwrap();
        let (r, ms) = timed(|| solver.run(12, metric));
        let ratio = prev.map_or(f64::NAN, |p: f64| ms / p);
        rows.push(vec![
            n.to_string(),
            f(ms),
            if ratio.is_nan() {
                "—".into()
            } else {
                format!("{ratio:.2}x")
            },
            r.stats.states.to_string(),
        ]);
        prev = Some(ms);
    }
    md_table(&["N", "time (ms)", "vs previous", "DP states"], &rows);

    println!("\n### B sweep (N = 256)\n");
    let data = zipf(256, 1.0, 100_000.0, ZipfPlacement::Shuffled, 5);
    let solver = MinMaxErr::new(&data).unwrap();
    let mut rows = Vec::new();
    let mut prev = None;
    for b in [4usize, 8, 16, 32] {
        let (r, ms) = timed(|| solver.run(b, metric));
        let ratio = prev.map_or(f64::NAN, |p: f64| ms / p);
        rows.push(vec![
            b.to_string(),
            f(ms),
            if ratio.is_nan() {
                "—".into()
            } else {
                format!("{ratio:.2}x")
            },
            r.stats.states.to_string(),
        ]);
        prev = Some(ms);
    }
    md_table(&["B", "time (ms)", "vs previous", "DP states"], &rows);

    println!("\n### engine & split ablation (N = 128, B = 10)\n");
    let data = zipf(128, 1.0, 100_000.0, ZipfPlacement::Shuffled, 5);
    let solver = MinMaxErr::new(&data).unwrap();
    let mut rows = Vec::new();
    let mut objective = None;
    for engine in [
        Engine::Dedup,
        Engine::DedupExhaustive,
        Engine::SubsetMask,
        Engine::BottomUp,
    ] {
        for split in [SplitSearch::Binary, SplitSearch::Linear] {
            let (r, ms) = timed(|| solver.run_with(10, metric, Config { engine, split }));
            match objective {
                None => objective = Some(r.objective),
                Some(o) => assert!(
                    (r.objective - o).abs() < 1e-9,
                    "engines disagree: {engine:?}/{split:?}"
                ),
            }
            rows.push(vec![
                format!("{engine:?}"),
                format!("{split:?}"),
                f(ms),
                r.stats.states.to_string(),
                f(r.objective),
            ]);
        }
    }
    md_table(
        &["engine", "split", "time (ms)", "DP states", "objective"],
        &rows,
    );
    println!("\nall eight configurations return the identical optimal objective  ✓");
}
