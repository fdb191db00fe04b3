//! Output pin for the multi-dimensional solvers: the ε-additive scheme
//! (Theorem 3.2), the exact pseudo-polynomial integer DP (absolute and
//! relative error) and the `(1+ε)` τ-sweep (Theorem 3.4), recorded once
//! and compared byte for byte.
//!
//! `check --report` compares one commit's solvers with themselves across
//! pool sizes, so a change that moves every multi-D objective bit, retained
//! set or DP counter consistently would pass it. This recording catches
//! that: each line carries the DP objective and the true objective as raw
//! bits, the retained positions and all four `DpStats` counters, including
//! `probes` and `peak_live`, which depend on memo insertion order and row
//! lengths.
//!
//! Inputs are the corpus cubes `cube-4x4` and `cube-2x2x2`, a 1-D N = 16
//! instance, and quantized `cube_bumps` cubes of 8² and 4³ cells (seed 17,
//! the E9 inputs), at every budget `0..=min(N, 8)`. A mismatch means the
//! solvers' outputs changed; it is never a re-recording opportunity
//! unless that change is the intent.
//!
//! The `(1+ε)` sweep is recorded at 1 and 4 pool threads, and the two
//! lines of each pair must agree, counters included.

use wsyn_conform::corpus;
use wsyn_core::Pool;
use wsyn_datagen::{cube_bumps, quantize_to_i64};
use wsyn_haar::nd::{NdArray, NdShape};
use wsyn_obs::Collector;
use wsyn_synopsis::multi_dim::additive::AdditiveScheme;
use wsyn_synopsis::multi_dim::integer::IntegerExact;
use wsyn_synopsis::multi_dim::oneplus::OnePlusEps;
use wsyn_synopsis::multi_dim::NdThresholdResult;
use wsyn_synopsis::ErrorMetric;

/// `(name, shape, integer data)` in the transcript's fixed order.
fn instances() -> Vec<(String, NdShape, Vec<i64>)> {
    let docs = corpus::load_dir(&corpus::default_dir()).expect("corpus directory loads");
    let mut out = Vec::new();
    for name in ["cube-4x4", "cube-2x2x2"] {
        let inst = docs
            .iter()
            .map(|(_, doc)| &doc.instance)
            .find(|inst| inst.name == name)
            .unwrap_or_else(|| panic!("corpus instance {name} is present"));
        let shape = NdShape::new(inst.shape.clone()).expect("corpus shape");
        out.push((name.to_string(), shape, inst.data.clone()));
    }
    let line: Vec<i64> = (0..16i64).map(|i| (i * 13 + 5) % 17 * 3 - 20).collect();
    out.push(("line-16".to_string(), NdShape::new(vec![16]).unwrap(), line));
    for (side, d) in [(8usize, 2usize), (4, 3)] {
        let data = quantize_to_i64(&cube_bumps(side, d, 3, (80.0, 300.0), 10.0, 17));
        out.push((
            format!("bumps-{side}^{d}"),
            NdShape::hypercube(side, d).unwrap(),
            data,
        ));
    }
    out
}

fn line(out: &mut String, label: &str, b: usize, r: &NdThresholdResult) {
    let s = r.stats;
    out.push_str(&format!(
        "{label} b={b} dp={:016x} true={:016x} kept={:?} states={} leaf_evals={} probes={} peak_live={}\n",
        r.dp_objective.to_bits(),
        r.true_objective.to_bits(),
        r.synopsis.positions(),
        s.states,
        s.leaf_evals,
        s.probes,
        s.peak_live,
    ));
}

fn report() -> String {
    let mut out = String::new();
    for (name, shape, data) in instances() {
        let n = shape.len();
        let data_f: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        let arr = NdArray::new(shape.clone(), data_f).unwrap();
        let additive = AdditiveScheme::new(&arr).unwrap();
        let exact = IntegerExact::new(&shape, &data).unwrap();
        let oneplus = OnePlusEps::new(&shape, &data).unwrap();
        for b in 0..=n.min(8) {
            for (metric, tag) in [
                (ErrorMetric::absolute(), "abs"),
                (ErrorMetric::relative(4.0), "rel:4"),
            ] {
                for eps in [0.5, 0.1] {
                    let r = additive.run(b, metric, eps);
                    line(&mut out, &format!("{name} additive {tag} eps={eps}"), b, &r);
                }
            }
            line(&mut out, &format!("{name} exact abs"), b, &exact.run(b));
            line(
                &mut out,
                &format!("{name} exact rel:4"),
                b,
                &exact.run_relative(b, 4.0),
            );
            for eps in [0.5, 0.25] {
                for threads in [1usize, 4] {
                    let (r, _) =
                        oneplus.run_with(b, eps, &Pool::with_threads(threads), &Collector::noop());
                    line(
                        &mut out,
                        &format!("{name} oneplus eps={eps} threads={threads}"),
                        b,
                        &r,
                    );
                }
            }
        }
    }
    out
}

#[test]
fn nd_solvers_match_the_recording() {
    let now = report();
    let recorded = include_str!("transcripts/nd_solvers.txt");
    assert!(
        now == recorded,
        "multi-D transcript drifted from its recording;\nfirst diverging line:\n{}",
        now.lines()
            .zip(recorded.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map_or_else(
                || format!(
                    "(no line-level diff; lengths {} vs {})",
                    now.lines().count(),
                    recorded.lines().count()
                ),
                |(i, (a, b))| format!("line {}:\n  now:      {a}\n  recorded: {b}", i + 1)
            )
    );
}

/// The τ-sweep's output does not depend on the pool size: every
/// `oneplus … threads=1` line of the recording equals its `threads=4`
/// twin once the thread tag is removed, `probes` and `peak_live`
/// included.
#[test]
fn oneplus_lines_agree_across_thread_counts() {
    let recorded = include_str!("transcripts/nd_solvers.txt");
    let untagged = |tag: &str| -> Vec<String> {
        recorded
            .lines()
            .filter(|l| l.contains(tag))
            .map(|l| l.replacen(tag, " ", 1))
            .collect()
    };
    let one = untagged(" threads=1 ");
    let four = untagged(" threads=4 ");
    assert_eq!((one.len(), four.len()), (90, 90), "line pairs recorded");
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a, b, "threads=1 and threads=4 disagree");
    }
}
