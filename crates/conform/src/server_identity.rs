//! The `server-identity` family: `wsyn-serve` answers must be
//! **byte-identical** to library answers.
//!
//! The server's determinism contract (DESIGN.md §14) is that answer
//! content is a pure function of the per-column request order — shard
//! scheduling, connection handling, and the thread count must never
//! leak into a byte. This module certifies that claim two ways:
//!
//! * [`check`] — per corpus instance, an in-process server on an
//!   ephemeral loopback port answers a build/query/update script, and
//!   every response is compared against the *expected bytes*: the same
//!   answer computed from library primitives ([`MinMaxErr`],
//!   [`Synopsis1d`], `wsyn_aqp::bounds`) and rendered through the
//!   same canonical protocol codec. A build must reproduce the cold
//!   run's objective bit pattern and retained set; a query's frame must
//!   match byte for byte.
//! * [`answer_stream`] — a deterministic transcript of every response
//!   payload for the whole corpus, which CI captures under
//!   `WSYN_POOL_THREADS=1` and `=4` and `diff -u`s: the two streams
//!   must be identical.

use wsyn_aqp::bounds;
use wsyn_core::json::Value;
use wsyn_serve::{Client, QueryKind, Request, Response, ServeConfig, Server};
use wsyn_synopsis::one_dim::MinMaxErr;
use wsyn_synopsis::{ErrorMetric, Synopsis1d};

use crate::checks::CheckSummary;
use crate::gen::Instance;
use crate::Failure;

/// Shard count for in-process identity servers: more than one, so the
/// check exercises real cross-shard routing, and fixed, so the request
/// script is reproducible.
const SHARDS: usize = 2;

/// At most this many point queries per `(budget, metric)` pair (evenly
/// strided over the domain, ends always included).
const MAX_POINTS: usize = 48;

/// Runs `script` against a freshly bound in-process server, then shuts
/// the server down and joins it.
pub(crate) fn with_server<T>(
    name: &str,
    script: impl FnOnce(&mut Client) -> Result<T, Failure>,
) -> Result<T, Failure> {
    let config = ServeConfig {
        shards: SHARDS,
        ..ServeConfig::default()
    };
    let server =
        Server::bind("127.0.0.1:0", &config).map_err(|e| Failure::new("server-bind", name, e))?;
    let addr = server.local_addr().to_string();
    let running = std::thread::spawn(move || server.run());
    let result = Client::connect(&addr)
        .map_err(|e| Failure::new("server-connect", name, e))
        .and_then(|mut client| {
            let out = script(&mut client)?;
            client
                .shutdown()
                .map_err(|e| Failure::new("server-shutdown", name, e))?;
            Ok(out)
        });
    match running.join() {
        Ok(Ok(())) => result,
        Ok(Err(e)) => Err(Failure::new("server-run", name, e)),
        Err(_) => Err(Failure::new(
            "server-run",
            name,
            "server thread panicked".to_string(),
        )),
    }
}

/// The point indices a `(budget, metric)` pair queries: an even stride
/// capped at [`MAX_POINTS`], always including both ends.
fn point_plan(n: usize) -> Vec<usize> {
    let step = n.div_ceil(MAX_POINTS).max(1);
    let mut points: Vec<usize> = (0..n).step_by(step).collect();
    if points.last() != Some(&(n - 1)) {
        points.push(n - 1);
    }
    points
}

/// The range queries exercised per pair: prefixes, a middle slice, the
/// full domain (sum), and an average.
fn range_plan(n: usize) -> Vec<QueryKind> {
    vec![
        QueryKind::RangeSum(0, n),
        QueryKind::RangeSum(0, n / 2),
        QueryKind::RangeSum(n / 4, n - n / 4),
        QueryKind::RangeAvg(0, n),
        QueryKind::RangeAvg(n / 2, n),
    ]
}

/// The expected response bytes for a query against a fresh build
/// (zero drift): the library's estimate and interval, rendered through
/// the protocol codec. Mirrors the interval derivations documented on
/// `wsyn_serve::store::Column::query`.
fn expected_query_bytes(
    synopsis: &Synopsis1d,
    objective: f64,
    metric: ErrorMetric,
    kind: QueryKind,
) -> Vec<u8> {
    let interval_value = |iv: Option<bounds::Interval>| match iv {
        None => Value::Null,
        Some(iv) => Value::Array(vec![Value::Number(iv.lo), Value::Number(iv.hi)]),
    };
    let (est, interval) = match kind {
        QueryKind::Point(i) => {
            let est = synopsis.point(i) + 0.0;
            let iv = match metric {
                ErrorMetric::Absolute => Some(bounds::point_absolute(est, objective)),
                ErrorMetric::Relative { sanity } => {
                    Some(bounds::point_relative(est, objective, sanity))
                }
            };
            (est, iv)
        }
        QueryKind::RangeSum(lo, hi) => {
            let est = synopsis.range_sum(lo..hi) + 0.0;
            let iv = match metric {
                ErrorMetric::Absolute => Some(bounds::range_sum_absolute(est, objective, hi - lo)),
                ErrorMetric::Relative { .. } => None,
            };
            (est, iv)
        }
        QueryKind::RangeAvg(lo, hi) => (synopsis.range_avg(lo..hi) + 0.0, None),
    };
    Response::ok(vec![
        ("est", Value::Number(est)),
        ("guarantee", Value::Number(objective)),
        ("interval", interval_value(interval)),
    ])
    .to_bytes()
}

/// One (budget, metric) build target for [`check_pair`].
struct BuildSpec<'a> {
    b: usize,
    spec_id: &'a str,
    metric: ErrorMetric,
}

/// One build-and-query pass: builds `(b, spec)` over the wire, checks
/// the build against the cold library run, then checks every planned
/// query's bytes against the library-computed expectation.
fn check_pair(
    client: &mut Client,
    column: &str,
    name: &str,
    sum: &mut CheckSummary,
    reference: &MinMaxErr,
    data_len: usize,
    spec: &BuildSpec<'_>,
) -> Result<(), Failure> {
    let &BuildSpec { b, spec_id, metric } = spec;
    let build = client
        .build(column, b, spec_id, false)
        .map_err(|e| Failure::new("server-build", name, e))?;
    let lib = reference.run(b, metric);

    sum.checks += 1;
    let server_objective = build.get("objective").and_then(Value::as_f64);
    if server_objective.map(f64::to_bits) != Some(lib.objective.to_bits()) {
        return Err(Failure::new(
            "server-build-bits",
            name,
            format!(
                "b={b} {spec_id}: server objective {server_objective:?} vs library {}",
                lib.objective
            ),
        ));
    }
    sum.checks += 1;
    let retained: Option<Vec<usize>> = build
        .get("retained")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_usize).collect());
    if retained.as_deref() != Some(&lib.synopsis.indices()[..]) {
        return Err(Failure::new(
            "server-build-set",
            name,
            format!(
                "b={b} {spec_id}: server kept {retained:?}, library kept {:?}",
                lib.synopsis.indices()
            ),
        ));
    }
    sum.stats = sum.stats.merged(lib.stats);

    let queries = point_plan(data_len)
        .into_iter()
        .map(QueryKind::Point)
        .chain(range_plan(data_len));
    for kind in queries {
        let got = client
            .request_raw(&Request::Query {
                column: column.to_string(),
                kind,
                trace: false,
            })
            .map_err(|e| Failure::new("server-query", name, e))?;
        let want = expected_query_bytes(&lib.synopsis, lib.objective, metric, kind);
        sum.checks += 1;
        if got != want {
            return Err(Failure::new(
                "server-identity-bytes",
                name,
                format!(
                    "b={b} {spec_id} {kind:?}: server answered\n  {}\nlibrary expects\n  {}",
                    String::from_utf8_lossy(&got),
                    String::from_utf8_lossy(&want)
                ),
            ));
        }
    }
    Ok(())
}

/// The full family for one (1-D) instance. Multi-dimensional instances
/// pass vacuously: the server stores 1-D columns.
///
/// # Errors
/// The first divergence between a server answer and the library answer.
pub fn check(inst: &Instance, sum: &mut CheckSummary) -> Result<(), Failure> {
    if inst.shape.len() != 1 {
        return Ok(());
    }
    let name = &inst.name;
    let data: Vec<f64> = inst.data.iter().map(|&v| v as f64).collect();
    let reference =
        MinMaxErr::new(&data).map_err(|e| Failure::new("server-identity", name, e.to_string()))?;
    let column = format!("ci/{name}");
    with_server(name, |client| {
        client
            .put(&column, &data)
            .map_err(|e| Failure::new("server-put", name, e))?;
        for spec in &inst.metrics {
            for &b in &inst.budgets {
                check_pair(
                    client,
                    &column,
                    name,
                    sum,
                    &reference,
                    data.len(),
                    &BuildSpec {
                        b,
                        spec_id: &spec.id(),
                        metric: spec.metric(),
                    },
                )?;
            }
        }
        // Batched ingest: after updates drain, a fresh build must be a
        // bit-exact twin of a from-scratch solve on the updated data.
        if !inst.updates.is_empty() {
            let mut updated = data.clone();
            let deltas: Vec<(usize, f64)> =
                inst.updates.iter().map(|&(i, d)| (i, d as f64)).collect();
            for &(i, d) in &deltas {
                updated[i] += d;
            }
            for chunk in deltas.chunks(3) {
                client
                    .update(&column, chunk)
                    .map_err(|e| Failure::new("server-update", name, e))?;
            }
            client
                .flush(&column)
                .map_err(|e| Failure::new("server-flush", name, e))?;
            let fresh = MinMaxErr::new(&updated)
                .map_err(|e| Failure::new("server-identity", name, e.to_string()))?;
            let Some(&b) = inst.budgets.last() else {
                return Ok(());
            };
            let spec = inst.metrics[0];
            check_pair(
                client,
                &column,
                name,
                sum,
                &fresh,
                updated.len(),
                &BuildSpec {
                    b,
                    spec_id: &spec.id(),
                    metric: spec.metric(),
                },
            )?;
        }
        Ok(())
    })
}

/// A deterministic transcript of the whole corpus's server answers, one
/// `instance-name<TAB>response-payload` line per response. Two runs —
/// any machine, any `WSYN_POOL_THREADS`, any shard scheduling — must
/// produce identical text; CI diffs exactly this.
///
/// # Errors
/// A transport or server failure (identity violations surface later,
/// as a diff between two streams).
pub fn answer_stream(instances: &[&Instance]) -> Result<String, Failure> {
    let mut lines = Vec::new();
    for inst in instances {
        if inst.shape.len() != 1 {
            continue;
        }
        let name = &inst.name;
        let data: Vec<f64> = inst.data.iter().map(|&v| v as f64).collect();
        let column = format!("ci/{name}");
        let mut record = |req: &Request, client: &mut Client| -> Result<(), Failure> {
            let payload = client
                .request_raw(req)
                .map_err(|e| Failure::new("answer-stream", name, e))?;
            lines.push(format!("{name}\t{}", String::from_utf8_lossy(&payload)));
            Ok(())
        };
        with_server(name, |client| {
            record(
                &Request::Put {
                    column: column.clone(),
                    data: data.clone(),
                },
                client,
            )?;
            for spec in &inst.metrics {
                for &b in &inst.budgets {
                    record(
                        &Request::Build {
                            column: column.clone(),
                            budget: b,
                            metric: spec.id(),
                            family: None,
                            trace: false,
                        },
                        client,
                    )?;
                    for i in point_plan(data.len()) {
                        record(
                            &Request::Query {
                                column: column.clone(),
                                kind: QueryKind::Point(i),
                                trace: false,
                            },
                            client,
                        )?;
                    }
                    for kind in range_plan(data.len()) {
                        record(
                            &Request::Query {
                                column: column.clone(),
                                kind,
                                trace: false,
                            },
                            client,
                        )?;
                    }
                }
            }
            if !inst.updates.is_empty() {
                let deltas: Vec<(usize, f64)> =
                    inst.updates.iter().map(|&(i, d)| (i, d as f64)).collect();
                record(
                    &Request::Update {
                        column: column.clone(),
                        updates: deltas,
                    },
                    client,
                )?;
                record(
                    &Request::Flush {
                        column: column.clone(),
                    },
                    client,
                )?;
                record(
                    &Request::Info {
                        column: column.clone(),
                    },
                    client,
                )?;
            }
            Ok(())
        })?;
    }
    Ok(lines.join("\n") + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Kind};

    fn one_dim_instance() -> Instance {
        // The first 1-D generator kind, fixed seed.
        for kind in Kind::ALL {
            let inst = generate(kind, 7);
            if inst.shape.len() == 1 {
                return inst;
            }
        }
        unreachable!("generators include 1-D kinds")
    }

    #[test]
    fn family_passes_on_a_generated_instance() {
        let inst = one_dim_instance();
        let mut sum = CheckSummary::default();
        check(&inst, &mut sum).expect("server-identity family");
        assert!(sum.checks > 0, "family must evaluate assertions");
    }

    #[test]
    fn answer_stream_is_reproducible() {
        let inst = one_dim_instance();
        let a = answer_stream(&[&inst]).expect("stream");
        let b = answer_stream(&[&inst]).expect("stream");
        assert_eq!(a, b, "two runs must produce identical transcripts");
        assert!(a.lines().count() > 3);
    }
}
