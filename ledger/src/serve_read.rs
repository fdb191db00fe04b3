//! `serve-read`: read-only queries over the loopback server.
//!
//! [`COLUMNS`] zipf columns of `read_n` values are put and built at setup
//! (`B = 16`; even columns `minmax`, odd ones `auto`, so both the wavelet
//! and the step-function query engines answer). In a round the
//! connection sends `read_queries` point, range-sum and range-average
//! queries over every column. No update is ever pending, so no DP runs
//! after setup: each request pays the codec, the handler thread, the
//! shard queue, the store lookup and `aqp`. `ops_per_s` counts queries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsyn_datagen::{zipf, ZipfPlacement};
use wsyn_serve::protocol::QueryKind;

use crate::clock::Stopwatch;
use crate::serve::{
    check_point_intervals, check_replay, check_same_fingerprints, fold_rounds, run_round,
    traced_pass, ColumnSpec, Harness, Step,
};
use crate::{repeated_setup, sub_seed, timed_rounds, Check, Measured, Scale, Traced};

/// Columns served.
pub const COLUMNS: usize = 16;
/// Client connections. One: with two, where the scheduler puts the six
/// client, handler and shard threads on two cores changed the query
/// rate by up to 40 % between runs of one seed, four times the spread
/// of one connection.
pub const CONNECTIONS: usize = 1;
/// Build budget.
pub const BUDGET: usize = 16;

/// The seeded columns.
#[must_use]
pub fn columns(seed: u64, scale: &Scale) -> Vec<ColumnSpec> {
    (0..COLUMNS)
        .map(|c| ColumnSpec {
            name: format!("read{c}"),
            data: zipf(
                scale.read_n,
                1.1,
                100_000.0,
                ZipfPlacement::Shuffled,
                sub_seed(seed, 1000 + c as u64),
            ),
            budget: BUDGET,
            family: if c % 2 == 0 { "minmax" } else { "auto" },
        })
        .collect()
}

/// One query script per connection: seeded positions, the kind cycling
/// point → range sum → range average, the column cycling over all.
#[must_use]
pub fn scripts(seed: u64, scale: &Scale) -> Vec<Vec<Step>> {
    let n = scale.read_n;
    (0..CONNECTIONS)
        .map(|conn| {
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1100 + conn as u64));
            (0..scale.read_queries)
                .map(|k| {
                    let column = format!("read{}", (k + conn) % COLUMNS);
                    let lo = rng.gen_range(0..n);
                    let hi = rng.gen_range(lo + 1..=n);
                    let kind = match k % 3 {
                        0 => QueryKind::Point(lo),
                        1 => QueryKind::RangeSum(lo, hi),
                        _ => QueryKind::RangeAvg(lo, hi),
                    };
                    Step::query(&column, kind)
                })
                .collect()
        })
        .collect()
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
        Ok((columns, scripts(seed, scale)))
    })?;
    let mut clients = scripts
        .iter()
        .map(|_| harness.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let (warm, timed) = timed_rounds(seconds, scale.min_rounds, |timed| {
        run_round(&mut clients, &scripts, (!timed).then(Stopwatch::start))
    })?;
    drop(clients);
    harness.stop()?;

    let (warm_secs, mut warm_conns) = warm;
    let warm_frames: Vec<_> = warm_conns
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.frames))
        .collect();
    let warm = fold_rounds(vec![(warm_secs, warm_conns)], |_| 0.0);
    let folded = fold_rounds(timed.into_iter().map(|(_, r)| r).collect(), |c| {
        c.latencies_us.len() as f64
    });
    let mut ops = warm.ops;
    ops.add(folded.ops);
    let same = check_same_fingerprints(&warm.fingerprints[0], &folded.fingerprints);
    Ok(Measured {
        setup_secs,
        round_secs: folded.round_secs,
        ops_per_s: folded.ops_per_s,
        latencies_us: folded.latencies_us,
        ops,
        checks: vec![
            Check::new(
                "point_intervals",
                check_point_intervals(&columns, &warm_frames),
            ),
            Check::new("answer_bytes_repeat", same),
        ],
    })
}

/// The traced run: a fresh server, a warm-up and a traced round, both
/// recorded and replayed in-process.
///
/// # Errors
/// A failure to start, drive or replay the server.
pub(crate) fn trace(seed: u64, scale: &Scale) -> Result<Traced, String> {
    let columns = columns(seed, scale);
    let pass = traced_pass(&columns, |_| Ok(scripts(seed, scale)))?;
    let traced_frames: Vec<_> = pass
        .frames
        .iter()
        .zip(&pass.warm_len)
        .flat_map(|(f, &warm)| f[warm..].iter().cloned())
        .collect();
    Ok(Traced {
        round_secs: pass.round_secs,
        layers: pass.layers,
        tracer: pass.tracer,
        ops: pass.ops,
        checks: vec![
            Check::new("replay_bytes_equal_wire", check_replay(pass.mismatches)),
            Check::new(
                "traced_point_intervals",
                check_point_intervals(&columns, &traced_frames),
            ),
        ],
    })
}
