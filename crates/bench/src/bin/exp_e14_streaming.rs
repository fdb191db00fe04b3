//! E14: dynamic maintenance (the related-work setting of §4, with this
//! paper's guarantees).
//!
//! A frequency vector receives a stream of point updates. We compare three
//! maintenance policies for a budget-`B` synopsis:
//!
//! 1. **static** — build once, never update (guarantee decays);
//! 2. **adaptive** — a server column (`wsyn_serve::Column`) draining the
//!    updates under `wsyn-stream`'s rebuild policy (rebuild when the
//!    conservative drift bound exceeds `tolerance ×` the built objective);
//! 3. **always-rebuild** — re-run the DP after every update (the quality
//!    ceiling, at absurd cost).
//!
//! Reported: true max absolute error at checkpoints, number of DP runs,
//! and update throughput of the exact O(log N) coefficient maintenance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsyn_bench::{f, md_table, timed};
use wsyn_datagen::{zipf, ZipfPlacement};
use wsyn_obs::Collector;
use wsyn_serve::Column;
use wsyn_stream::DynamicErrorTree;
use wsyn_synopsis::one_dim::MinMaxErr;
use wsyn_synopsis::ErrorMetric;

fn main() {
    let n = 128usize;
    let b = 10usize;
    let updates = 2000usize;
    let data = zipf(n, 0.9, 50_000.0, ZipfPlacement::Shuffled, 8);
    let metric = ErrorMetric::absolute();

    println!("## E14 — synopsis maintenance under {updates} point updates (N = {n}, B = {b})\n");

    // Shared update stream.
    let mut rng = StdRng::seed_from_u64(77);
    let stream: Vec<(usize, f64)> = (0..updates)
        .map(|_| (rng.gen_range(0..n), f64::from(rng.gen_range(-40i32..=40))))
        .collect();

    // Policies.
    let static_syn = MinMaxErr::new(&data).unwrap().run(b, metric).synopsis;
    let obs = Collector::noop();
    let mut adaptive = Column::new(&data, 2.0).unwrap();
    adaptive.build(b, "abs", None, &obs).unwrap();
    let mut current = data.clone();
    let mut rebuild_errs: Vec<(usize, f64, f64, f64)> = Vec::new();

    for (k, batch) in stream.chunks(500).enumerate() {
        for &(i, delta) in batch {
            current[i] += delta;
        }
        adaptive.enqueue(batch).unwrap();
        adaptive.drain(&obs).unwrap();
        let static_err = static_syn.max_error(&current, metric);
        let engine = &adaptive.built().unwrap().engine;
        let adaptive_err = engine.as_wavelet().unwrap().max_error(&current, metric);
        let fresh = MinMaxErr::new(&current).unwrap().run(b, metric).objective;
        rebuild_errs.push(((k + 1) * 500, static_err, adaptive_err, fresh));
    }

    let mut rows = Vec::new();
    for (step, st, ad, fresh) in &rebuild_errs {
        rows.push(vec![
            step.to_string(),
            f(*st),
            f(*ad),
            f(*fresh),
            format!("{:.2}x", ad / fresh.max(1e-12)),
        ]);
    }
    md_table(
        &[
            "updates",
            "static synopsis err",
            "adaptive policy err",
            "fresh optimum",
            "adaptive vs optimum",
        ],
        &rows,
    );
    println!(
        "\nadaptive policy: {} DP rebuilds over {updates} updates (always-rebuild would need {updates})",
        adaptive.rebuilds()
    );

    // Raw update throughput of the exact coefficient maintenance.
    let mut tree = DynamicErrorTree::new(&data).unwrap();
    let reps = 200_000usize;
    let (_, ms) = timed(|| {
        for k in 0..reps {
            let (i, delta) = stream[k % stream.len()];
            tree.update(i, delta);
        }
    });
    println!(
        "\nexact coefficient maintenance: {reps} updates in {ms:.1} ms \
         ({:.1} M updates/s, O(log N) per update)",
        reps as f64 / ms / 1e3
    );
    // Exactness check after the hammering.
    let drift = {
        let mut t2 = tree.clone();
        t2.rebuild()
    };
    println!("accumulated float drift after {reps} updates: {drift:.2e} (corrected by rebuild)");
    assert!(drift < 1e-6);
}
