//! # wsyn-ledger — the repository's benchmark
//!
//! One command measures the system end to end and per layer on four
//! workloads (see `BENCHMARK.md` beside this crate for the why of each):
//!
//! * `build-1d` — data in → certified synopsis out, through the library
//!   (`haar`, `synopsis` with the `core` memo, `hist`);
//! * `serve-read` — point and range queries over the loopback server
//!   (`serve.protocol`, `serve.server`, `serve.shard`, `serve.store`,
//!   `aqp`), no DP after setup;
//! * `serve-mixed` — batched updates beside queries on the server, so
//!   queries pay drains and drift rebuilds;
//! * `stream-ingest` — the one-pass sketch (`stream` with the `core`
//!   row arena) and nothing else.
//!
//! Every layer is driven through its public API only. Timings are taken
//! from outside, around the calls into each layer ([`trace`]); the
//! program under measurement carries no benchmark instrumentation.
//!
//! A run makes its inputs from the seed, sets up several times (the
//! median is `setup_s`), runs one untimed warm-up round, then timed
//! rounds of identical work until the requested seconds have passed.
//! Every operation of a round recurs in every round, so each gets its
//! lower quartile over the rounds (`per_op_lower_quartiles`); latency
//! percentiles are taken over those, and throughputs are the upper
//! quartile of per-round throughput (or, for the sequential library
//! workloads, the work of a round over the sum of its operations'
//! lower quartiles). A host stall that slows some rounds thus moves no
//! reported number.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build_1d;
pub mod clock;
pub mod serve;
pub mod serve_mixed;
pub mod serve_read;
pub mod stats;
pub mod stream_ingest;
pub mod trace;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use wsyn_core::json::{object, Value};

use crate::clock::Stopwatch;

/// The benchmark's workloads, in the order the ledger runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold wavelet and histogram builds over seeded instances.
    Build1d,
    /// Read-only queries against the loopback server.
    ServeRead,
    /// Update batches beside queries against the loopback server.
    ServeMixed,
    /// One-pass streaming construction.
    StreamIngest,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Build1d,
        Workload::ServeRead,
        Workload::ServeMixed,
        Workload::StreamIngest,
    ];

    /// The workload's name in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Build1d => "build-1d",
            Workload::ServeRead => "serve-read",
            Workload::ServeMixed => "serve-mixed",
            Workload::StreamIngest => "stream-ingest",
        }
    }

    /// Looks a workload up by name.
    ///
    /// # Errors
    /// An unknown name; the message lists the valid ones.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload '{name}' (valid: {})", names.join(", "))
            })
    }
}

/// How much work each workload does. Sizes live here, not on the
/// command line, so a run is described by its workload, seed and
/// seconds alone.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Set-ups per run, at least; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Seconds of set-ups per run, at least.
    pub setup_secs: f64,
    /// Timed rounds run even when the seconds are already spent.
    pub min_rounds: usize,
    /// `build-1d` domain size of the zipf, spike and plateau instances.
    pub build_n: usize,
    /// `build-1d` domain size of the large zipf instance.
    pub build_big_n: usize,
    /// `build-1d` instances per shape and budget in a round.
    pub build_copies: usize,
    /// `serve-read` values per column.
    pub read_n: usize,
    /// `serve-read` queries per connection per round.
    pub read_queries: usize,
    /// `serve-mixed` values per column.
    pub mixed_n: usize,
    /// `serve-mixed` operations per connection per round (a multiple of
    /// 8: the second half mirrors the first with negated deltas).
    pub mixed_ops: usize,
    /// `stream-ingest` stream length.
    pub stream_n: usize,
}

/// The scale every benchmark run uses.
pub const FULL: Scale = Scale {
    setup_repeats: 3,
    setup_secs: 0.5,
    min_rounds: 3,
    build_n: 1024,
    build_big_n: 4096,
    build_copies: 4,
    read_n: 1024,
    read_queries: 4000,
    mixed_n: 256,
    mixed_ops: 160,
    stream_n: 1 << 16,
};

/// A small scale for the benchmark's own tests: every code path, check
/// and metric, in well under a second per workload.
pub const TEST: Scale = Scale {
    setup_repeats: 2,
    setup_secs: 0.0,
    min_rounds: 2,
    build_n: 64,
    build_big_n: 128,
    build_copies: 1,
    read_n: 64,
    read_queries: 90,
    mixed_n: 64,
    mixed_ops: 16,
    stream_n: 1 << 10,
};

/// The end-to-end metrics, reported by every untraced run: name, unit.
pub(crate) const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// One correctness check and its result.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// `Err` carries what went wrong.
    pub result: Result<(), String>,
}

impl Check {
    /// A check named `name` with `result`.
    #[must_use]
    pub fn new<T>(name: &'static str, result: Result<T, String>) -> Check {
        Check {
            name,
            result: result.map(|_| ()),
        }
    }
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations the benchmark asked the system to do.
    pub attempted: u64,
    /// Of those, how many returned an error.
    pub failed: u64,
}

impl Ops {
    /// Adds `other`'s counts.
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What an untraced run measured.
#[derive(Debug, Clone, Default)]
pub(crate) struct Measured {
    /// Duration of each set-up.
    pub setup_secs: Vec<f64>,
    /// Wall time of each timed round (the warm-up round is not among
    /// them).
    pub round_secs: Vec<f64>,
    /// The workload's throughput, noise-filtered across rounds.
    pub ops_per_s: f64,
    /// One latency per operation of a round: its lower quartile over the
    /// timed rounds (see [`per_op_lower_quartiles`]).
    pub latencies_us: Vec<f64>,
    /// Operations of the warm-up and timed rounds.
    pub ops: Ops,
    /// Correctness checks.
    pub checks: Vec<Check>,
}

/// Per-operation lower quartiles: `rounds[r][k]` is operation `k`'s
/// latency in round `r`; the result holds operation `k`'s lower quartile
/// over the rounds (its only value when there is one round). Every round
/// does the same operations, so the lengths agree.
///
/// Contention from other tenants of a shared host only ever slows an
/// operation down, so the lower quartile tracks the code's own cost:
/// over 20-second blocks on a 2-core host it spread 3.6 % against the
/// median's 6.1 % and the minimum's 9.8 %.
#[must_use]
pub(crate) fn per_op_lower_quartiles(rounds: &[Vec<f64>]) -> Vec<f64> {
    let ops = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..ops)
        .map(|k| lower_quartile(&rounds.iter().map(|r| r[k]).collect::<Vec<_>>()))
        .collect()
}

/// The lower quartile of `values` (the value itself for one sample, 0
/// for none).
#[must_use]
pub(crate) fn lower_quartile(values: &[f64]) -> f64 {
    match values {
        [] => 0.0,
        [one] => *one,
        _ => stats::quartiles(values).map_or(0.0, |q| q.0),
    }
}

/// The upper quartile of `values` (the value itself for one sample, 0
/// for none).
#[must_use]
pub(crate) fn upper_quartile(values: &[f64]) -> f64 {
    match values {
        [] => 0.0,
        [one] => *one,
        _ => stats::quartiles(values).map_or(0.0, |q| q.2),
    }
}

/// What a traced run measured: one traced round after a warm-up.
#[derive(Debug, Default)]
pub(crate) struct Traced {
    /// Wall time of the traced round.
    pub round_secs: f64,
    /// Per-layer numbers.
    pub layers: Layers,
    /// The spans of the traced round.
    pub tracer: trace::Tracer,
    /// Operations of the warm-up and traced rounds.
    pub ops: Ops,
    /// Correctness checks.
    pub checks: Vec<Check>,
}

/// Per-layer numbers of one traced round. A layer a workload bypasses
/// reads 0. Counts are per round; rates are work per second of the
/// layer's busy time, measured around the calls into it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Layers {
    /// `MinMaxErr::new` (the Haar error tree) calls per busy second.
    pub haar_trees_per_s: f64,
    /// Wavelet DP states materialized.
    pub synopsis_states: f64,
    /// Wavelet DP leaf evaluations.
    pub synopsis_leaf_evals: f64,
    /// Wavelet DP states per second of direct threshold calls.
    pub synopsis_states_per_s: f64,
    /// Memo probe displacement of the wavelet DP.
    pub core_probes: f64,
    /// Peak live memo entries of the wavelet DP.
    pub core_peak_live: f64,
    /// Histogram DP cells.
    pub hist_states: f64,
    /// Histogram DP bucket-cost evaluations.
    pub hist_leaf_evals: f64,
    /// Histogram DP cells per second of direct threshold calls.
    pub hist_states_per_s: f64,
    /// Mean request payload bytes.
    pub protocol_req_bytes: f64,
    /// Mean response payload bytes.
    pub protocol_resp_bytes: f64,
    /// Payload MB encoded or decoded per second of codec time.
    pub protocol_mb_per_s: f64,
    /// Requests per second of `shard::handle` time.
    pub shard_handles_per_s: f64,
    /// Share of the median query latency outside codec and handler:
    /// socket, handler thread and shard-queue handoff.
    pub server_residual_pct: f64,
    /// Updates drained.
    pub store_applied: f64,
    /// Drift rebuilds.
    pub store_rebuilds: f64,
    /// `Column::enqueue` calls per busy second.
    pub store_enqueues_per_s: f64,
    /// Non-empty `Column::drain` calls per busy second.
    pub store_drains_per_s: f64,
    /// Point answers per second of query-engine time.
    pub aqp_point_per_s: f64,
    /// Range-sum answers per second of query-engine time.
    pub aqp_range_sum_per_s: f64,
    /// Range-average answers per second of query-engine time.
    pub aqp_range_avg_per_s: f64,
    /// `DynamicErrorTree::update` calls per busy second.
    pub stream_tree_updates_per_s: f64,
    /// Items per second of `push_slice` time.
    pub stream_push_items_per_s: f64,
    /// `finalize` calls per busy second.
    pub stream_finalizes_per_s: f64,
    /// Streaming DP cells materialized.
    pub stream_states: f64,
    /// Streaming closed-form leaf evaluations.
    pub stream_leaf_evals: f64,
    /// Peak live streaming DP cells.
    pub stream_peak_cells: f64,
    /// Peak resident sketch bytes.
    pub stream_peak_sketch_bytes: f64,
}

impl Layers {
    /// The per-layer metrics in `BENCHMARK.json` order, given the
    /// traced round's overhead over the untraced rounds.
    #[must_use]
    pub(crate) fn metrics(&self, trace_overhead_pct: f64) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("haar.trees_per_s", self.haar_trees_per_s, "1/s"),
            m("synopsis.states", self.synopsis_states, "count"),
            m("synopsis.leaf_evals", self.synopsis_leaf_evals, "count"),
            m("synopsis.states_per_s", self.synopsis_states_per_s, "1/s"),
            m("core.probes", self.core_probes, "count"),
            m("core.peak_live", self.core_peak_live, "count"),
            m("hist.states", self.hist_states, "count"),
            m("hist.leaf_evals", self.hist_leaf_evals, "count"),
            m("hist.states_per_s", self.hist_states_per_s, "1/s"),
            m("serve.protocol.req_bytes", self.protocol_req_bytes, "B"),
            m("serve.protocol.resp_bytes", self.protocol_resp_bytes, "B"),
            m("serve.protocol.mb_per_s", self.protocol_mb_per_s, "MB/s"),
            m("serve.shard.handles_per_s", self.shard_handles_per_s, "1/s"),
            m("serve.server.residual_pct", self.server_residual_pct, "%"),
            m("serve.store.applied", self.store_applied, "count"),
            m("serve.store.rebuilds", self.store_rebuilds, "count"),
            m(
                "serve.store.enqueues_per_s",
                self.store_enqueues_per_s,
                "1/s",
            ),
            m("serve.store.drains_per_s", self.store_drains_per_s, "1/s"),
            m("aqp.point_per_s", self.aqp_point_per_s, "1/s"),
            m("aqp.range_sum_per_s", self.aqp_range_sum_per_s, "1/s"),
            m("aqp.range_avg_per_s", self.aqp_range_avg_per_s, "1/s"),
            m(
                "stream.tree_updates_per_s",
                self.stream_tree_updates_per_s,
                "1/s",
            ),
            m(
                "stream.push_items_per_s",
                self.stream_push_items_per_s,
                "1/s",
            ),
            m("stream.finalizes_per_s", self.stream_finalizes_per_s, "1/s"),
            m("stream.states", self.stream_states, "count"),
            m("stream.leaf_evals", self.stream_leaf_evals, "count"),
            m("stream.peak_cells", self.stream_peak_cells, "count"),
            m(
                "stream.peak_sketch_bytes",
                self.stream_peak_sketch_bytes,
                "B",
            ),
            m("obs.trace_overhead_pct", trace_overhead_pct, "%"),
        ]
    }
}

/// `count` events per second of `ns` busy nanoseconds (0 when idle).
#[must_use]
pub(crate) fn rate(count: f64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        count * 1e9 / ns as f64
    }
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Which workload ran.
    pub workload: Workload,
    /// Operations attempted and failed.
    pub ops: Ops,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Every correctness check.
    pub checks: Vec<Check>,
    /// Extra human-readable lines (tail percentiles, sample counts).
    pub notes: Vec<String>,
    /// The span file a traced run wrote.
    pub trace_file: Option<std::path::PathBuf>,
}

impl Outcome {
    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.result.is_ok())
    }

    /// The human-readable report: one line per metric
    /// (`<workload> <metric> <value> <unit>`), per check and per note.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        let w = self.workload.name();
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{w} {} {} {}", m.name, m.value, m.unit))
            .collect();
        out.extend(self.notes.iter().map(|n| format!("{w} note {n}")));
        out.extend(self.checks.iter().map(|c| match &c.result {
            Ok(()) => format!("{w} check {} pass", c.name),
            Err(e) => format!("{w} check {} FAIL: {e}", c.name),
        }));
        if let Some(path) = &self.trace_file {
            out.push(format!("{w} note spans written to {}", path.display()));
        }
        out
    }

    /// The result document: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = object(vec![
                    ("value", Value::Number(m.value)),
                    ("unit", Value::String(m.unit.to_string())),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        object(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Number(self.ops.attempted as f64)),
            ("failed", Value::Number(self.ops.failed as f64)),
            ("metrics", Value::Object(metrics)),
        ])
    }
}

/// Runs one workload: untraced, or untraced then traced on the same
/// inputs (the traced run's per-layer metrics replace the end-to-end
/// ones, and its spans go to `target/ledger/trace-<workload>-<seed>.json`).
///
/// # Errors
/// A failure to set up or drive the system at all (a refused operation
/// is counted in [`Ops::failed`] instead).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: &Scale,
) -> Result<Outcome, String> {
    let measured = match workload {
        Workload::Build1d => build_1d::measure(seed, seconds, scale)?,
        Workload::ServeRead => serve_read::measure(seed, seconds, scale)?,
        Workload::ServeMixed => serve_mixed::measure(seed, seconds, scale)?,
        Workload::StreamIngest => stream_ingest::measure(seed, seconds, scale)?,
    };
    let mut notes = vec![format!(
        "{} timed rounds; latencies are per-operation lower quartiles over them ({} operations)",
        measured.round_secs.len(),
        measured.latencies_us.len()
    )];
    if let Some(tail) = stats::tail_percentile(&measured.latencies_us) {
        notes.push(format!(
            "latency_{}_us {} ({} samples beyond)",
            tail.label.replace('.', "_"),
            tail.value,
            tail.beyond
        ));
    }
    if !traced {
        let mut sorted = measured.latencies_us.clone();
        sorted.sort_by(f64::total_cmp);
        let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("no samples for {what}"));
        let values = [
            need(stats::median(&measured.setup_secs), "setup_s")?,
            peak_rss_mb()?,
            measured.ops_per_s,
            need(stats::percentile(&sorted, 0.5), "latency_p50_us")?,
            need(stats::percentile(&sorted, 0.9), "latency_p90_us")?,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect();
        return Ok(Outcome {
            workload,
            ops: measured.ops,
            metrics,
            checks: measured.checks,
            notes,
            trace_file: None,
        });
    }

    let traced = match workload {
        Workload::Build1d => build_1d::trace(seed, scale)?,
        Workload::ServeRead => serve_read::trace(seed, scale)?,
        Workload::ServeMixed => serve_mixed::trace(seed, scale)?,
        Workload::StreamIngest => stream_ingest::trace(seed, scale)?,
    };
    let untraced = stats::median(&measured.round_secs).ok_or("no timed rounds")?;
    let overhead_pct = (traced.round_secs / untraced - 1.0) * 100.0;
    let path = std::path::PathBuf::from(format!(
        "target/ledger/trace-{}-{seed}.json",
        workload.name()
    ));
    traced.tracer.write(&path, workload.name(), seed)?;
    let mut ops = measured.ops;
    ops.add(traced.ops);
    let mut checks = measured.checks;
    checks.extend(traced.checks);
    notes.push(format!(
        "{} spans in the traced round; self time per layer (ns): {:?}",
        traced.tracer.spans().len(),
        traced.tracer.self_ns_by_layer()
    ));
    Ok(Outcome {
        workload,
        ops,
        metrics: traced.layers.metrics(overhead_pct),
        checks,
        notes,
        trace_file: Some(path),
    })
}

/// Runs `round(false)` once untimed (warm-up: caches fill, lazy set-up
/// finishes), then `round(true)` timed until `seconds` have passed and
/// at least `min_rounds` rounds ran. Returns the warm-up result and each
/// timed round's result with its wall time.
///
/// # Errors
/// The first error a round returns.
pub(crate) fn timed_rounds<R>(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(bool) -> Result<R, String>,
) -> Result<(R, Vec<(f64, R)>), String> {
    let warm = round(false)?;
    let clock = Stopwatch::start();
    let mut out = Vec::new();
    while out.len() < min_rounds || clock.secs() < seconds {
        let t = Stopwatch::start();
        let r = round(true)?;
        out.push((t.secs(), r));
    }
    Ok((warm, out))
}

/// Runs `setup` at least `scale.setup_repeats` times and until
/// `scale.setup_secs` have passed, keeping the last result. Returns it
/// with every duration; cheap set-ups thus run often enough for their
/// median to be steady.
///
/// # Errors
/// The first error `setup` returns.
pub(crate) fn repeated_setup<S>(
    scale: &Scale,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let clock = Stopwatch::start();
    let mut secs = Vec::new();
    let mut kept = None;
    while secs.len() < scale.setup_repeats.max(1) || clock.secs() < scale.setup_secs {
        // Dropped first, so one set-up's memory never overlaps the next.
        drop(kept.take());
        let t = Stopwatch::start();
        kept = Some(setup()?);
        secs.push(t.secs());
    }
    let kept = kept.ok_or("setup never ran")?;
    Ok((kept, secs))
}

/// A seed for input `tag` of a run seeded with `seed`: distinct tags
/// give independent streams, and the run seed reaches every generator.
#[must_use]
pub(crate) fn sub_seed(seed: u64, tag: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
/// `/proc/self/status` is unreadable or has no `VmHWM` line.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
