//! `serve-mixed`: update batches beside queries on the loopback server.
//!
//! [`COLUMNS`] zipf columns of `mixed_n` values, built at setup (`B = 16`,
//! even columns `minmax`, odd ones `auto`). Each connection owns four
//! columns. One operation sends [`BATCHES`] update batches of [`BATCH`]
//! updates (deltas in [`DELTAS`]) to an owned column, then one query on
//! that same column, so every written column is queried — and drained —
//! within the operation (pending queues are unbounded). A round is
//! `mixed_ops` operations per connection, then a flush and a fresh build
//! of every owned column. The second half of a round repeats the first
//! with negated deltas, so a flushed round leaves the data as it found
//! it, and the closing build resets the drift: every round starts from
//! the set-up state and repeats the same rebuilds at the same queries. `ops_per_s` counts updates applied; the
//! latency operation is a query, which pays the drain and any drift
//! rebuild (warm wavelet DP, and both DPs on `auto` columns).
//!
//! Deltas are whole multiples of a per-column unit, `objective /`
//! [`UNITS_PER_OBJECTIVE`] from the setup build. An operation adds about
//! `48 × 1.2 = 57.6` units of drift to its column, and the server
//! rebuilds once drift exceeds the objective (tolerance 2), so about 30 %
//! of queries pay a rebuild on every seed: `latency_p90_us` sits inside
//! the rebuild mode instead of jumping between modes with the data.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsyn_datagen::{zipf, ZipfPlacement};
use wsyn_serve::protocol::{QueryKind, Request};
use wsyn_serve::Client;

use crate::clock::Stopwatch;
use crate::serve::{
    build_objectives, check_point_intervals, check_replay, fold_rounds, run_round, server_rebuilds,
    traced_pass, ColumnSpec, Harness, Step,
};
use crate::{repeated_setup, sub_seed, timed_rounds, Check, Measured, Scale, Traced};

/// Columns served.
pub const COLUMNS: usize = 8;
/// Client connections, each owning `COLUMNS / CONNECTIONS` columns, so
/// two rebuilds can run on the two shards at once.
pub const CONNECTIONS: usize = 2;
/// Build budget.
pub const BUDGET: usize = 16;
/// Update batches per operation.
pub const BATCHES: usize = 3;
/// Updates per batch.
pub const BATCH: usize = 16;
/// The update deltas, in units.
pub const DELTAS: [f64; 5] = [-2.0, -1.0, 0.0, 1.0, 2.0];
/// A column's delta unit is its setup objective divided by this.
pub const UNITS_PER_OBJECTIVE: f64 = 192.0;

/// The seeded columns.
#[must_use]
pub fn columns(seed: u64, scale: &Scale) -> Vec<ColumnSpec> {
    (0..COLUMNS)
        .map(|c| ColumnSpec {
            name: format!("mixed{c}"),
            data: zipf(
                scale.mixed_n,
                1.1,
                100_000.0,
                ZipfPlacement::Shuffled,
                sub_seed(seed, 2000 + c as u64),
            ),
            budget: BUDGET,
            family: if c % 2 == 0 { "minmax" } else { "auto" },
        })
        .collect()
}

/// The columns connection `conn` owns.
fn owned(conn: usize) -> Vec<String> {
    (conn..COLUMNS)
        .step_by(CONNECTIONS)
        .map(|c| format!("mixed{c}"))
        .collect()
}

/// One round's script per connection (see the module docs), given each
/// column's setup objective.
///
/// # Errors
/// A column without an objective.
pub(crate) fn scripts(
    seed: u64,
    scale: &Scale,
    columns: &[ColumnSpec],
    objectives: &BTreeMap<String, f64>,
) -> Result<Vec<Vec<Step>>, String> {
    let n = scale.mixed_n;
    let half = scale.mixed_ops / 2;
    (0..CONNECTIONS)
        .map(|conn| {
            let own = owned(conn);
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2100 + conn as u64));
            let first: Vec<Vec<Vec<(usize, f64)>>> = (0..half)
                .map(|_| {
                    (0..BATCHES)
                        .map(|_| {
                            (0..BATCH)
                                .map(|_| {
                                    let i = rng.gen_range(0..n);
                                    (i, DELTAS[rng.gen_range(0..DELTAS.len())])
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let mut steps = Vec::new();
            for op in 0..2 * half {
                // `half` is a multiple of the owned-column count, so the
                // mirrored operation lands on the same column.
                let column = &own[op % own.len()];
                let objective = objectives
                    .get(column)
                    .ok_or_else(|| format!("no setup objective for column '{column}'"))?;
                let unit = (objective / UNITS_PER_OBJECTIVE).round().max(1.0);
                let sign = if op < half { unit } else { -unit };
                for batch in &first[op % half] {
                    steps.push(Step {
                        request: Request::Update {
                            column: column.clone(),
                            updates: batch.iter().map(|&(i, d)| (i, sign * d)).collect(),
                        },
                        timed: false,
                        updates: batch.len(),
                    });
                }
                let lo = rng.gen_range(0..n);
                let hi = rng.gen_range(lo + 1..=n);
                let kind = match op % 3 {
                    0 => QueryKind::Point(lo),
                    1 => QueryKind::RangeSum(lo, hi),
                    _ => QueryKind::RangeAvg(lo, hi),
                };
                steps.push(Step::query(column, kind));
            }
            let untimed = |request| Step {
                request,
                timed: false,
                updates: 0,
            };
            for column in &own {
                steps.push(untimed(Request::Flush {
                    column: column.clone(),
                }));
            }
            for spec in columns.iter().filter(|c| own.contains(&c.name)) {
                steps.push(untimed(spec.build_request()));
            }
            Ok(steps)
        })
        .collect()
}

/// The benchmark's own copy of the data after `scripts` ran once: every
/// update applied in order.
#[must_use]
pub(crate) fn apply(columns: &[ColumnSpec], scripts: &[Vec<Step>]) -> Vec<ColumnSpec> {
    let mut out = columns.to_vec();
    for step in scripts.iter().flatten() {
        if let Request::Update { column, updates } = &step.request {
            if let Some(c) = out.iter_mut().find(|c| &c.name == column) {
                for &(i, d) in updates {
                    c.data[i] += d;
                }
            }
        }
    }
    out
}

/// Point queries of every value of every owned column, per connection:
/// the post-flush check.
#[must_use]
pub(crate) fn all_points(scale: &Scale) -> Vec<Vec<Step>> {
    (0..CONNECTIONS)
        .map(|conn| {
            owned(conn)
                .iter()
                .flat_map(|c| (0..scale.mixed_n).map(move |i| Step::query(c, QueryKind::Point(i))))
                .collect()
        })
        .collect()
}

/// The rebuild check: the drift rebuilds the server's flushes report for
/// the traced round equal those of the in-process `Column` replay.
///
/// # Errors
/// Both counts, when they differ.
pub fn check_rebuilds(server: u64, replay: u64) -> Result<(), String> {
    if server == replay {
        Ok(())
    } else {
        Err(format!(
            "server flushes report {server} rebuilds in the traced round, the column replay {replay}"
        ))
    }
}

/// Queries every point of every column of a flushed server and checks
/// each answer interval against `truth`. These requests are not part of
/// any round.
fn post_flush_check(
    clients: &mut [Client],
    points: &[Vec<Step>],
    truth: &[ColumnSpec],
) -> Result<Check, String> {
    let (_, conns) = run_round(clients, points, Some(Stopwatch::start()))?;
    let frames: Vec<_> = conns.into_iter().flat_map(|c| c.frames).collect();
    Ok(Check::new(
        "post_flush_point_intervals",
        check_point_intervals(truth, &frames),
    ))
}

/// The untraced run.
///
/// # Errors
/// A failure to start or drive the server.
pub(crate) fn measure(seed: u64, seconds: f64, scale: &Scale) -> Result<Measured, String> {
    let mut harness = Harness::bind()?;
    let ((columns, scripts), setup_secs) = repeated_setup(scale, || {
        let columns = columns(seed, scale);
        harness.load(&columns)?;
        let objectives = build_objectives(&harness.setup_frames)?;
        let scripts = scripts(seed, scale, &columns, &objectives)?;
        Ok((columns, scripts))
    })?;
    let truth = apply(&columns, &scripts);
    let points = all_points(scale);
    let mut clients = (0..CONNECTIONS)
        .map(|_| harness.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let mut checks = Vec::new();
    let (warm, timed) = timed_rounds(seconds, scale.min_rounds, |timed| {
        let round = run_round(&mut clients, &scripts, None)?;
        if !timed {
            checks.push(post_flush_check(&mut clients, &points, &truth)?);
        }
        Ok(round)
    })?;
    checks.push(post_flush_check(&mut clients, &points, &truth)?);
    drop(clients);
    harness.stop()?;

    let mut ops = fold_rounds(vec![warm], |_| 0.0).ops;
    let folded = fold_rounds(timed.into_iter().map(|(_, r)| r).collect(), |c| {
        c.updates as f64
    });
    ops.add(folded.ops);
    Ok(Measured {
        setup_secs,
        round_secs: folded.round_secs,
        ops_per_s: folded.ops_per_s,
        latencies_us: folded.latencies_us,
        ops,
        checks,
    })
}

/// The traced run: a fresh server, a warm-up and a traced round, both
/// recorded and replayed in-process.
///
/// # Errors
/// A failure to start, drive or replay the server.
pub(crate) fn trace(seed: u64, scale: &Scale) -> Result<Traced, String> {
    let columns = columns(seed, scale);
    let pass = traced_pass(&columns, |setup| {
        scripts(seed, scale, &columns, &build_objectives(setup)?)
    })?;
    let server = server_rebuilds(&pass.frames, &pass.warm_len)?;
    Ok(Traced {
        round_secs: pass.round_secs,
        layers: pass.layers,
        tracer: pass.tracer,
        ops: pass.ops,
        checks: vec![
            Check::new("replay_bytes_equal_wire", check_replay(pass.mismatches)),
            Check::new(
                "server_rebuilds_equal_replay",
                check_rebuilds(server, pass.replay_rebuilds),
            ),
        ],
    })
}
