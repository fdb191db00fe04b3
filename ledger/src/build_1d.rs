//! `build-1d`: data in → certified synopsis out, through the library.
//!
//! A round builds, cold, the optimal wavelet synopsis
//! (`MinMaxErr::new(d).run(b, abs)`) and the optimal histogram
//! (`HistThresholder::new(d).threshold(b, abs)`) of every instance:
//! `build_copies` seeded copies of zipf-shuffled, spike and plateau data
//! at `N = build_n` with `B ∈` [`BUDGETS`], plus one zipf instance at
//! `N = build_big_n` with `B =` [`BIG_BUDGET`]. One operation is one
//! instance through both families; `ops_per_s` counts instances. No
//! socket, store or stream code runs.
//!
//! The budgets keep every instance's DP memo inside one size class of
//! the memo table (which grows 4× at 70 % load) for every seed: at
//! `B = 8` or `32` and `N = 1024`, and at `B = 8` and `N = 4096`, the
//! state count straddles a growth threshold, so time and peak memory
//! jump between seeds for a reason unrelated to any code change.

use wsyn_datagen::{piecewise_constant, spikes, zipf, ZipfPlacement};
use wsyn_synopsis::histogram::HistThresholder;
use wsyn_synopsis::one_dim::{MinMaxErr, ThresholdResult};
use wsyn_synopsis::{AnySynopsis, ErrorMetric, ThresholdRun, Thresholder};

use crate::clock::Stopwatch;
use crate::trace::{span, Tracer};
use crate::{
    per_op_lower_quartiles, rate, repeated_setup, sub_seed, timed_rounds, Check, Layers, Measured,
    Ops, Scale, Traced,
};

/// Relative slack allowed between a realized error and its guarantee.
pub const SLACK: f64 = 1e-9;
/// Budgets of the `build_n` instances.
pub const BUDGETS: [usize; 2] = [16, 24];
/// Budget of the `build_big_n` instance.
pub const BIG_BUDGET: usize = 6;

/// One input of the workload.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Generator name.
    pub shape: &'static str,
    /// Budget `B` for both families.
    pub budget: usize,
    /// The data.
    pub data: Vec<f64>,
}

/// Both families' results on one instance.
#[derive(Debug, Clone)]
pub struct Built {
    /// The wavelet DP result.
    pub wavelet: ThresholdResult,
    /// The histogram DP result.
    pub hist: ThresholdRun,
}

/// The seeded instances of one round.
#[must_use]
pub fn instances(seed: u64, scale: &Scale) -> Vec<Instance> {
    let n = scale.build_n;
    let mut out = Vec::new();
    for copy in 0..scale.build_copies as u64 {
        for budget in BUDGETS {
            let s = |shape: u64| sub_seed(seed, 1000 * copy + 10 * budget as u64 + shape);
            out.push(Instance {
                shape: "zipf",
                budget,
                data: zipf(n, 1.0, 200_000.0, ZipfPlacement::Shuffled, s(1)),
            });
            out.push(Instance {
                shape: "spike",
                budget,
                data: spikes(n, 6, (400.0, 900.0), (-5.0, 5.0), s(2)),
            });
            out.push(Instance {
                shape: "plateau",
                budget,
                data: piecewise_constant(n, 8, (1.0, 600.0), 0.0, s(3)),
            });
        }
    }
    out.push(Instance {
        shape: "zipf-big",
        budget: BIG_BUDGET,
        data: zipf(
            scale.build_big_n,
            1.0,
            200_000.0,
            ZipfPlacement::Shuffled,
            sub_seed(seed, 99),
        ),
    });
    out
}

/// Builds both families on `inst`, timing each library call as a span
/// when a tracer is given.
///
/// # Errors
/// A solver refusal (a non-power-of-two domain, an unsupported budget).
pub fn build(inst: &Instance, mut tracer: Option<&mut Tracer>, req: u64) -> Result<Built, String> {
    let abs = ErrorMetric::absolute();
    let solver = span(&mut tracer, "haar.tree", req, || MinMaxErr::new(&inst.data))
        .map_err(|e| e.to_string())?;
    let wavelet = span(&mut tracer, "synopsis.threshold", req, || {
        solver.run(inst.budget, abs)
    });
    let hist = span(&mut tracer, "hist.threshold", req, || {
        HistThresholder::new(&inst.data).threshold(inst.budget, abs)
    })
    .map_err(|e| e.to_string())?;
    Ok(Built { wavelet, hist })
}

/// The guarantee check: for both families, the realized maximum absolute
/// error of the synopsis is at most the reported objective (with
/// [`SLACK`] relative slack).
///
/// # Errors
/// The first instance whose synopsis exceeds its objective.
pub fn check_guarantees(instances: &[Instance], built: &[Built]) -> Result<(), String> {
    let abs = ErrorMetric::absolute();
    for (i, (inst, b)) in instances.iter().zip(built).enumerate() {
        let wavelet = b.wavelet.synopsis.max_error(&inst.data, abs);
        let hist = match &b.hist.synopsis {
            AnySynopsis::Histogram(h) => abs.max_error(&inst.data, &h.reconstruct()),
            _ => {
                return Err(format!(
                    "instance {i}: hist returned a non-histogram synopsis"
                ))
            }
        };
        for (family, realized, objective) in [
            ("wavelet", wavelet, b.wavelet.objective),
            ("hist", hist, b.hist.objective),
        ] {
            if realized > objective + SLACK * objective.abs().max(1.0) {
                return Err(format!(
                    "instance {i} ({}, B={}): {family} realized error {realized} exceeds \
                     its objective {objective}",
                    inst.shape, inst.budget
                ));
            }
        }
    }
    Ok(())
}

/// Objective bits of a round, wavelet then histogram per instance.
#[must_use]
pub fn objective_bits(built: &[Built]) -> Vec<u64> {
    built
        .iter()
        .flat_map(|b| [b.wavelet.objective.to_bits(), b.hist.objective.to_bits()])
        .collect()
}

/// The determinism check: a round's objective bits equal the reference's.
///
/// # Errors
/// Names the first differing objective.
pub fn check_same_bits(reference: &[u64], round: &[u64]) -> Result<(), String> {
    match reference.iter().zip(round).position(|(a, b)| a != b) {
        None if reference.len() == round.len() => Ok(()),
        None => Err("rounds built different instance counts".to_string()),
        Some(k) => Err(format!(
            "objective {k} differs across rounds: {} vs {}",
            f64::from_bits(reference[k]),
            f64::from_bits(round[k])
        )),
    }
}

struct RoundOut {
    built: Vec<Built>,
    latencies_us: Vec<f64>,
    ops: Ops,
}

fn round(instances: &[Instance]) -> RoundOut {
    let mut out = RoundOut {
        built: Vec::with_capacity(instances.len()),
        latencies_us: Vec::with_capacity(instances.len()),
        ops: Ops::default(),
    };
    for inst in instances {
        let t = Stopwatch::start();
        let result = build(inst, None, 0);
        out.latencies_us.push(t.secs() * 1e6);
        out.ops.attempted += 1;
        match result {
            Ok(b) => out.built.push(b),
            Err(_) => out.ops.failed += 1,
        }
    }
    out
}

/// The untraced run.
///
/// # Errors
/// Never in practice; the signature matches the other workloads.
pub(crate) fn measure(seed: u64, seconds: f64, scale: &Scale) -> Result<Measured, String> {
    let (instances, setup_secs) = repeated_setup(scale, || Ok(instances(seed, scale)))?;
    let (warm, timed) = timed_rounds(seconds, scale.min_rounds, |_| Ok(round(&instances)))?;
    let reference = objective_bits(&warm.built);
    let mut ops = warm.ops;
    let mut same = Ok(());
    let mut round_secs = Vec::with_capacity(timed.len());
    let mut latencies = Vec::with_capacity(timed.len());
    for (secs, r) in timed {
        ops.add(r.ops);
        if same.is_ok() {
            same = check_same_bits(&reference, &objective_bits(&r.built));
        }
        round_secs.push(secs);
        latencies.push(r.latencies_us);
    }
    let latencies_us = per_op_lower_quartiles(&latencies);
    let busy_s: f64 = latencies_us.iter().sum::<f64>() / 1e6;
    Ok(Measured {
        setup_secs,
        round_secs,
        ops_per_s: latencies_us.len() as f64 / busy_s,
        latencies_us,
        ops,
        checks: vec![
            Check::new("guarantees", check_guarantees(&instances, &warm.built)),
            Check::new("objective_bits_repeat", same),
        ],
    })
}

/// The traced run: a warm-up round, then one round with a span per
/// library call and the DP counters of `ThresholdResult.stats` and
/// `ThresholdRun.stats`.
///
/// # Errors
/// Never in practice; the signature matches the other workloads.
pub(crate) fn trace(seed: u64, scale: &Scale) -> Result<Traced, String> {
    let instances = instances(seed, scale);
    let warm = round(&instances);
    let mut tracer = Tracer::new();
    let mut ops = warm.ops;
    let mut built = Vec::with_capacity(instances.len());
    let t = Stopwatch::start();
    for (req, inst) in (0u64..).zip(&instances) {
        ops.attempted += 1;
        let id = tracer.begin("build.instance", req);
        let result = build(inst, Some(&mut tracer), req);
        tracer.end(id);
        match result {
            Ok(b) => built.push(b),
            Err(_) => ops.failed += 1,
        }
    }
    let round_secs = t.secs();

    let mut l = Layers::default();
    for b in &built {
        let (w, h) = (b.wavelet.stats, b.hist.stats);
        l.synopsis_states += w.states as f64;
        l.synopsis_leaf_evals += w.leaf_evals as f64;
        l.core_probes += w.probes as f64;
        l.core_peak_live = l.core_peak_live.max(w.peak_live as f64);
        l.hist_states += h.states as f64;
        l.hist_leaf_evals += h.leaf_evals as f64;
    }
    l.haar_trees_per_s = rate(built.len() as f64, tracer.total_ns("haar.tree"));
    l.synopsis_states_per_s = rate(l.synopsis_states, tracer.total_ns("synopsis.threshold"));
    l.hist_states_per_s = rate(l.hist_states, tracer.total_ns("hist.threshold"));
    let checks = vec![
        Check::new("traced_guarantees", check_guarantees(&instances, &built)),
        Check::new(
            "traced_objective_bits",
            check_same_bits(&objective_bits(&warm.built), &objective_bits(&built)),
        ),
    ];
    Ok(Traced {
        round_secs,
        layers: l,
        tracer,
        ops,
        checks,
    })
}
