//! Pool-scaling benchmark: the 1 → N thread curve for the τ-sweep of the
//! `(1+ε)` scheme (many coarse, independent DP solves), with every timed
//! run first checked bit-identical to the single-thread reference.
//! Results land in `BENCH_parallel.json` at the repo root so the scaling
//! trajectory accumulates across changes.
//!
//! Run with `cargo bench --bench parallel`. The curve is the scaling
//! gate: at 4 threads its parallel efficiency `speedup / 4` must reach
//! 0.7, unless `WSYN_BENCH_SKIP_SCALING_GATE` is set (required on hosts
//! with fewer than 4 CPUs, where the speedup is physically capped below
//! the gate).

use wsyn_core::json::{object, Value};
use wsyn_core::Pool;
use wsyn_haar::nd::NdShape;
use wsyn_synopsis::multi_dim::oneplus::OnePlusEps;

/// Name of the escape hatch consulted by the efficiency gate.
const SKIP_GATE_ENV: &str = "WSYN_BENCH_SKIP_SCALING_GATE";

/// Efficiency the τ-sweep must reach at [`GATE_THREADS`] threads.
const GATE_EFFICIENCY: f64 = 0.7;
const GATE_THREADS: usize = 4;

/// Wall-clock milliseconds of one run of `f`.
fn time_ms(mut f: impl FnMut()) -> f64 {
    let t0 = std::time::Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

fn median(times: &mut [f64]) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median-of-`reps` wall time of `f` at each thread count, as
/// `(threads, ms, speedup vs threads = 1)` rows. All counts are timed in
/// one interleaved round-robin so background drift hits every point
/// equally.
fn scaling_curve(
    reps: usize,
    counts: &[usize],
    mut f: impl FnMut(usize),
) -> Vec<(usize, f64, f64)> {
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); counts.len()];
    for _ in 0..reps {
        for (slot, &threads) in counts.iter().enumerate() {
            times[slot].push(time_ms(|| f(threads)));
        }
    }
    let ms: Vec<f64> = times.iter_mut().map(|t| median(t)).collect();
    counts
        .iter()
        .zip(&ms)
        .map(|(&threads, &m)| (threads, m, ms[0] / m))
        .collect()
}

fn curve_json(rows: &[(usize, f64, f64)]) -> Value {
    Value::Array(
        rows.iter()
            .map(|&(threads, ms, speedup)| {
                object(vec![
                    ("threads", Value::Number(threads as f64)),
                    ("ms", Value::Number(ms)),
                    ("speedup", Value::Number(speedup)),
                ])
            })
            .collect(),
    )
}

fn main() {
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let reps = 5usize;
    let mut counts = vec![1usize, 2, 4];
    if host_cpus > 4 {
        counts.push(host_cpus);
    }

    // ── τ-sweep of the (1+ε) scheme, 2-D cube, ≥ 8 τ values ───────────
    let side = 16usize;
    let shape = NdShape::hypercube(side, 2).unwrap();
    let ints: Vec<i64> = (0..side * side)
        .map(|i| ((i * 13 + 7) % 257) as i64 * 12 - 1500)
        .collect();
    let scheme = OnePlusEps::new(&shape, &ints).unwrap();
    let taus = 64 - scheme.rz().leading_zeros() as usize;
    assert!(taus >= 8, "need >= 8 tau values, got {taus}");
    let (tb, teps) = (16usize, 0.1f64);
    let tau_reference = scheme.run_with_pool(tb, teps, &Pool::with_threads(1));
    for &threads in &counts {
        let r = scheme.run_with_pool(tb, teps, &Pool::with_threads(threads));
        assert_eq!(
            r.true_objective.to_bits(),
            tau_reference.true_objective.to_bits(),
            "tau-sweep not bit-identical at {threads} threads"
        );
        assert_eq!(
            r.stats, tau_reference.stats,
            "tau-sweep stats depend on thread count"
        );
    }
    let tau_sweep = scaling_curve(reps, &counts, |threads| {
        let pool = Pool::with_threads(threads);
        std::hint::black_box(scheme.run_with_pool(tb, teps, &pool).true_objective);
    });
    println!("tau-sweep ({side}x{side} 2-D cube, {taus} tau values, B = {tb}, eps = {teps}):");
    for &(threads, ms, speedup) in &tau_sweep {
        println!("  {threads} thread(s): {ms:.2} ms  ({speedup:.2}x)");
    }

    // ── Efficiency gate ───────────────────────────────────────────────
    let gate_row = tau_sweep
        .iter()
        .find(|&&(threads, _, _)| threads == GATE_THREADS)
        .copied();
    let efficiency = gate_row.map(|(threads, _, speedup)| speedup / threads as f64);
    let skip_gate = std::env::var_os(SKIP_GATE_ENV).is_some();
    if let Some(eff) = efficiency {
        println!(
            "tau-sweep efficiency at {GATE_THREADS} threads: {eff:.2} \
             (gate {GATE_EFFICIENCY}, {} on {host_cpus} cpu(s))",
            if skip_gate { "skipped" } else { "enforced" }
        );
        assert!(
            skip_gate || eff >= GATE_EFFICIENCY,
            "tau-sweep efficiency {eff:.2} at {GATE_THREADS} threads is below \
             {GATE_EFFICIENCY}; set {SKIP_GATE_ENV} only on hosts with fewer \
             than {GATE_THREADS} CPUs"
        );
    }

    let doc = object(vec![
        ("bench", Value::String("parallel".into())),
        ("host_cpus", Value::Number(host_cpus as f64)),
        ("reps", Value::Number(reps as f64)),
        (
            "tau_sweep",
            object(vec![
                ("shape", Value::String(format!("{side}x{side} 2-D cube"))),
                ("tau_values", Value::Number(taus as f64)),
                ("b", Value::Number(tb as f64)),
                ("epsilon", Value::Number(teps)),
                ("curve", curve_json(&tau_sweep)),
                (
                    "efficiency_at_4",
                    efficiency.map_or(Value::Null, Value::Number),
                ),
                ("gate_skipped", Value::Bool(skip_gate)),
            ]),
        ),
    ]);
    // The bench usually runs from the workspace root under `cargo bench`;
    // resolve the root from the manifest dir so any cwd works.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has two ancestors")
        .to_path_buf();
    let out = root.join("BENCH_parallel.json");
    std::fs::write(&out, doc.pretty() + "\n").expect("write BENCH_parallel.json");
    println!("wrote {}", out.display());
}
