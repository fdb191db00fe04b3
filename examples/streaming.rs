//! Dynamic maintenance: keeping a maximum-error synopsis fresh under a
//! stream of point updates (the setting of Matias, Vitter & Wang's dynamic
//! wavelet histograms, with the deterministic guarantees of this paper).
//!
//! A frequency vector receives 5000 random increments through a server
//! column; the column tracks a conservative guarantee and re-runs the
//! MinMaxErr DP only when it degrades past 1.5× — every answer in between
//! still carries a valid bound.
//!
//! Run with: `cargo run --release --example streaming`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavelet_synopses::datagen::{zipf, ZipfPlacement};
use wavelet_synopses::obs::Collector;
use wavelet_synopses::serve::Column;
use wavelet_synopses::synopsis::ErrorMetric;

fn main() {
    let n = 128usize;
    let b = 12usize;
    let mut data = zipf(n, 0.9, 50_000.0, ZipfPlacement::Shuffled, 8);
    let obs = Collector::noop();
    let mut column = Column::new(&data, 1.5).unwrap();
    let built = column.build(b, "abs", None, &obs).unwrap();
    println!(
        "initial optimal guarantee (B = {b}): {:.2}\n",
        built.objective
    );

    let mut rng = StdRng::seed_from_u64(77);
    let updates = 5000usize;
    let mut rebuild_points = Vec::new();
    for step in 0..updates {
        let i = rng.gen_range(0..n);
        let delta = f64::from(rng.gen_range(-40i32..=40));
        let rebuilds = column.rebuilds();
        column.enqueue(&[(i, delta)]).unwrap();
        column.drain(&obs).unwrap();
        data[i] += delta;
        let built = column.built().unwrap();
        if column.rebuilds() > rebuilds {
            rebuild_points.push((step, built.objective));
        }
        // Every 1000 steps: verify the conservative guarantee holds.
        if step % 1000 == 999 {
            let synopsis = built.engine.as_wavelet().unwrap();
            let true_err = synopsis.max_error(&data, ErrorMetric::absolute());
            println!(
                "step {:>5}: true max abs err {:>9.2} <= guarantee {:>9.2}  (rebuilds so far: {})",
                step + 1,
                true_err,
                built.guarantee(),
                column.rebuilds()
            );
            assert!(true_err <= built.guarantee() + 1e-9);
        }
    }
    println!(
        "\n{} rebuilds over {updates} updates:",
        rebuild_points.len()
    );
    for (step, obj) in rebuild_points.iter().take(12) {
        println!("  rebuilt at update {step:>5}, fresh optimal objective {obj:.2}");
    }
    if rebuild_points.len() > 12 {
        println!("  … and {} more", rebuild_points.len() - 12);
    }
    println!(
        "\nThe DP runs only {} times instead of {updates}; all interim answers keep a valid bound.",
        column.rebuilds() + 1
    );
}
