//! `stream-ingest`: the one-pass sketch alone.
//!
//! A round is one pass of `StreamingMaxErr` over a seeded zipf stream of
//! `stream_n` items (`B = 8`, `ε = 0.25`): `push_slice` in
//! [`FRAME`]-item frames, then `finalize`. `ops_per_s` counts items over
//! the whole pass, taking each frame push and the finalize at its lower
//! quartile over the passes; the latency operation is one frame push. The memo,
//! the server and `aqp` are bypassed.

use wsyn_datagen::{zipf, ZipfPlacement};
use wsyn_stream::{StreamRun, StreamingMaxErr};
use wsyn_synopsis::{ErrorMetric, RunParams};

use crate::clock::Stopwatch;
use crate::trace::{span, Tracer};
use crate::{
    lower_quartile, per_op_lower_quartiles, rate, repeated_setup, sub_seed, timed_rounds, Check,
    Layers, Measured, Ops, Scale, Traced,
};

/// Budget of the finalized synopsis.
pub const BUDGET: usize = 8;
/// Quantization epsilon.
pub const EPS: f64 = 0.25;
/// Items per `push_slice` call (the server's natural append size).
pub const FRAME: usize = 4096;
/// Relative slack allowed between the realized error and the guarantee.
pub const SLACK: f64 = 1e-9;

/// The seeded stream and its declared scale (`max |d_i|`, which always
/// bounds the offline optimum).
#[must_use]
pub fn input(seed: u64, scale: &Scale) -> (Vec<f64>, f64) {
    let data = zipf(
        scale.stream_n,
        1.1,
        100_000.0,
        ZipfPlacement::Shuffled,
        sub_seed(seed, 3000),
    );
    let bound = data.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    (data, bound)
}

/// One pass's result.
#[derive(Debug, Clone)]
pub struct Pass {
    /// What `finalize` returned.
    pub run: StreamRun,
    /// The builder's documented bound on live cells.
    pub bound_cells: usize,
    /// Wall time of each frame push, in microseconds.
    pub frame_us: Vec<f64>,
    /// Wall time of `finalize`, in microseconds.
    pub finalize_us: f64,
}

/// One pass over `data`, timing each library call as a span when a
/// tracer is given.
///
/// # Errors
/// A builder refusal or a failed finalize (an undersized scale).
pub fn pass(data: &[f64], bound: f64, mut tracer: Option<&mut Tracer>) -> Result<Pass, String> {
    let params = RunParams::new(BUDGET, ErrorMetric::absolute()).eps(EPS);
    let mut builder =
        StreamingMaxErr::new(data.len(), bound, &params).map_err(|e| e.to_string())?;
    let bound_cells = builder.state_bound_cells();
    let mut frame_us = Vec::with_capacity(data.len().div_ceil(FRAME));
    for (req, frame) in (0u64..).zip(data.chunks(FRAME)) {
        let t = Stopwatch::start();
        span(&mut tracer, "stream.push_slice", req, || {
            builder.push_slice(frame)
        })
        .map_err(|e| e.to_string())?;
        frame_us.push(t.secs() * 1e6);
    }
    let t = Stopwatch::start();
    let run = span(&mut tracer, "stream.finalize", 0, || builder.finalize())
        .map_err(|e| e.to_string())?;
    Ok(Pass {
        run,
        bound_cells,
        frame_us,
        finalize_us: t.secs() * 1e6,
    })
}

/// The guarantee and space checks: the realized maximum error is at
/// most the objective, and the peak live cells stay within the
/// builder's bound.
///
/// # Errors
/// Which of the two failed, with the numbers.
pub fn check_pass(data: &[f64], pass: &Pass) -> Result<(), String> {
    let run = &pass.run;
    let realized = run.synopsis.max_error(data, ErrorMetric::absolute());
    if realized > run.objective + SLACK * run.objective.abs().max(1.0) {
        return Err(format!(
            "realized error {realized} exceeds the objective {}",
            run.objective
        ));
    }
    if run.peak_cells > pass.bound_cells {
        return Err(format!(
            "peak cells {} exceed the state bound {}",
            run.peak_cells, pass.bound_cells
        ));
    }
    Ok(())
}

/// The determinism check: every pass certifies the same objective bits.
///
/// # Errors
/// The first pass whose objective differs from the reference.
pub fn check_same_objective(reference: f64, passes: &[f64]) -> Result<(), String> {
    match passes.iter().find(|o| o.to_bits() != reference.to_bits()) {
        None => Ok(()),
        Some(o) => Err(format!(
            "objective {o} differs from the first pass's {reference}"
        )),
    }
}

fn counted(result: Result<Pass, String>, ops: &mut Ops) -> Result<Pass, String> {
    ops.attempted += 1;
    if result.is_err() {
        ops.failed += 1;
    }
    result
}

/// The untraced run.
///
/// # Errors
/// A pass the sketch refuses (never, for the declared scale).
pub(crate) fn measure(seed: u64, seconds: f64, scale: &Scale) -> Result<Measured, String> {
    let ((data, bound), setup_secs) = repeated_setup(scale, || Ok(input(seed, scale)))?;
    let mut ops = Ops::default();
    let (warm, timed) = timed_rounds(seconds, scale.min_rounds, |_| {
        counted(pass(&data, bound, None), &mut ops)
    })?;
    let objectives: Vec<f64> = timed.iter().map(|(_, p)| p.run.objective).collect();
    let round_secs = timed.iter().map(|(secs, _)| *secs).collect();
    let finalize: Vec<f64> = timed.iter().map(|(_, p)| p.finalize_us).collect();
    let frames: Vec<Vec<f64>> = timed.into_iter().map(|(_, p)| p.frame_us).collect();
    let latencies_us = per_op_lower_quartiles(&frames);
    let busy_s = (latencies_us.iter().sum::<f64>() + lower_quartile(&finalize)) / 1e6;
    Ok(Measured {
        setup_secs,
        round_secs,
        ops_per_s: data.len() as f64 / busy_s,
        latencies_us,
        ops,
        checks: vec![
            Check::new("guarantee_and_space", check_pass(&data, &warm)),
            Check::new(
                "objective_bits_repeat",
                check_same_objective(warm.run.objective, &objectives),
            ),
        ],
    })
}

/// The traced run: a warm-up pass, then one pass with a span per
/// `push_slice` and for `finalize`, and the counters of
/// `StreamRun.stats`.
///
/// # Errors
/// A pass the sketch refuses.
pub(crate) fn trace(seed: u64, scale: &Scale) -> Result<Traced, String> {
    let (data, bound) = input(seed, scale);
    let mut ops = Ops::default();
    let warm = counted(pass(&data, bound, None), &mut ops)?;
    let mut tracer = Tracer::new();
    let t = Stopwatch::start();
    let traced = counted(pass(&data, bound, Some(&mut tracer)), &mut ops)?;
    let round_secs = t.secs();
    let run = &traced.run;
    let layers = Layers {
        stream_push_items_per_s: rate(data.len() as f64, tracer.total_ns("stream.push_slice")),
        stream_finalizes_per_s: rate(1.0, tracer.total_ns("stream.finalize")),
        stream_states: run.stats.states as f64,
        stream_leaf_evals: run.stats.leaf_evals as f64,
        stream_peak_cells: run.peak_cells as f64,
        stream_peak_sketch_bytes: run.peak_bytes as f64,
        ..Layers::default()
    };
    let checks = vec![
        Check::new("traced_guarantee_and_space", check_pass(&data, &traced)),
        Check::new(
            "traced_objective_bits",
            check_same_objective(warm.run.objective, &[run.objective]),
        ),
    ];
    Ok(Traced {
        round_secs,
        layers,
        tracer,
        ops,
        checks,
    })
}
