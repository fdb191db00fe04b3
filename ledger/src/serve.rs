//! The loopback server both serve workloads drive, and the in-process
//! replays that split a request's time by layer.
//!
//! Load shape: one process, one client thread per script with one TCP
//! connection each (each workload states how many), and a server with
//! `SHARDS` shard workers set in its [`ServeConfig`]. The loop is
//! closed: the protocol is strict request/response per connection, so a
//! connection sends its next request only after the previous answer
//! arrived.
//!
//! A traced round records every request and response frame. The frames
//! are then replayed in-process twice: through `Request::from_bytes` →
//! `shard::handle` → `Response::to_bytes` on columns rebuilt from the
//! same setup frames (the replay bytes must equal the wire bytes — the
//! server's determinism contract), and through `Column::enqueue` /
//! `Column::drain` / the query engines directly, to time the store and
//! `aqp` and read the drain counters from a recording collector.

use std::collections::BTreeMap;
use std::thread::JoinHandle;

use wsyn_core::json::Value;
use wsyn_core::DpStats;
use wsyn_obs::{Collector, SpanNode};
use wsyn_serve::protocol::{QueryKind, Request, Response};
use wsyn_serve::shard::{fnv1a64, handle};
use wsyn_serve::{Client, Column, ServeConfig, Server};
use wsyn_stream::DynamicErrorTree;

use crate::clock::Stopwatch;
use crate::trace::Tracer;
use crate::{rate, stats, Layers, Ops};

/// Shard worker threads.
pub(crate) const SHARDS: usize = 2;

/// The server configuration, set explicitly rather than through the
/// pool's thread policy.
#[must_use]
pub(crate) fn config() -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        queue_depth: 64,
        tolerance: 2.0,
    }
}

/// A column the workload serves.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Its data.
    pub data: Vec<f64>,
    /// Build budget.
    pub budget: usize,
    /// Build family (`minmax` or `auto`).
    pub family: &'static str,
}

impl ColumnSpec {
    /// The `build` request that creates the column's synopsis.
    #[must_use]
    pub fn build_request(&self) -> Request {
        Request::Build {
            column: self.name.clone(),
            budget: self.budget,
            metric: "abs".to_string(),
            family: Some(self.family.to_string()),
            trace: false,
        }
    }
}

/// One request/response exchange as it crossed the wire.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Request payload bytes.
    pub request: Vec<u8>,
    /// Response payload bytes.
    pub response: Vec<u8>,
}

/// A running server, its setup connection, and the setup frames.
#[derive(Debug)]
pub struct Harness {
    addr: String,
    setup: Client,
    server: JoinHandle<Result<(), String>>,
    /// The `put` and `build` exchanges of the last load of columns.
    pub setup_frames: Vec<Frame>,
}

impl Harness {
    /// Binds a loopback server with no columns.
    ///
    /// # Errors
    /// A bind or connect failure.
    pub(crate) fn bind() -> Result<Harness, String> {
        let server = Server::bind("127.0.0.1:0", &config())?;
        let addr = server.local_addr().to_string();
        let server = std::thread::spawn(move || server.run());
        let setup = Client::connect(&addr)?;
        Ok(Harness {
            addr,
            setup,
            server,
            setup_frames: Vec::new(),
        })
    }

    /// Binds a server and loads `columns`.
    ///
    /// # Errors
    /// A bind or connect failure, or a refused `put` or `build`.
    pub fn start(columns: &[ColumnSpec]) -> Result<Harness, String> {
        let mut harness = Harness::bind()?;
        harness.load(columns)?;
        Ok(harness)
    }

    /// Puts and builds every column, replacing columns of the same name.
    /// A replaced column is dropped by its own shard worker before the
    /// `put` is answered, so repeated loads reuse the same memory.
    ///
    /// # Errors
    /// A refused `put` or `build`.
    pub(crate) fn load(&mut self, columns: &[ColumnSpec]) -> Result<(), String> {
        self.setup_frames.clear();
        for c in columns {
            let put = Request::Put {
                column: c.name.clone(),
                data: c.data.clone(),
            };
            for request in [put, c.build_request()] {
                let response = self.setup.request_raw(&request)?;
                if !is_ok(&response) {
                    return Err(format!(
                        "setup of column '{}' refused: {}",
                        c.name,
                        String::from_utf8_lossy(&response)
                    ));
                }
                self.setup_frames.push(Frame {
                    request: request.to_bytes(),
                    response,
                });
            }
        }
        Ok(())
    }

    /// Opens a client connection.
    ///
    /// # Errors
    /// A connect failure.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr)
    }

    /// Shuts the server down and waits for its accept loop to end.
    ///
    /// # Errors
    /// A refused shutdown or a failed accept loop.
    pub fn stop(mut self) -> Result<(), String> {
        self.setup.shutdown()?;
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

/// Each column's objective, from the `build` responses among `frames`.
///
/// # Errors
/// A frame that does not decode, or a build response without an
/// objective.
pub(crate) fn build_objectives(frames: &[Frame]) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for f in frames {
        if let Request::Build { column, .. } = Request::from_bytes(&f.request)? {
            let objective = Response::from_bytes(&f.response)?
                .get("objective")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("build of '{column}' reported no objective"))?;
            out.insert(column, objective);
        }
    }
    Ok(out)
}

/// Whether a response payload reports success (canonical bytes put
/// `"ok"` first).
#[must_use]
fn is_ok(response: &[u8]) -> bool {
    response.starts_with(b"{\"ok\":true")
}

/// One step of a connection's script.
#[derive(Debug, Clone)]
pub struct Step {
    /// The request to send.
    pub request: Request,
    /// Whether its latency is measured (queries) — updates and flushes
    /// are counted by the work they apply instead.
    pub timed: bool,
    /// Updates the step carries.
    pub updates: usize,
}

impl Step {
    /// A query step.
    #[must_use]
    pub fn query(column: &str, kind: QueryKind) -> Step {
        Step {
            request: Request::Query {
                column: column.to_string(),
                kind,
                trace: false,
            },
            timed: true,
            updates: 0,
        }
    }
}

/// What one connection did in one round.
#[derive(Debug, Default)]
pub struct ConnRound {
    /// Latency of each timed step, in microseconds.
    pub latencies_us: Vec<f64>,
    /// Updates sent.
    pub updates: u64,
    /// Requests sent and refused.
    pub ops: Ops,
    /// Hash of every response byte, in order.
    pub fingerprint: u64,
    /// The exchanges, when recording.
    pub frames: Vec<Frame>,
    /// A span per request, when recording.
    pub tracer: Option<Tracer>,
}

fn run_script(client: &mut Client, script: &[Step], record: Option<Stopwatch>) -> ConnRound {
    let mut out = ConnRound {
        latencies_us: Vec::with_capacity(script.len()),
        tracer: record.map(Tracer::with_origin),
        ..ConnRound::default()
    };
    for (req, step) in (0u64..).zip(script) {
        let span = out
            .tracer
            .as_mut()
            .map(|t| t.begin("serve.client.request", req));
        let t = Stopwatch::start();
        let result = client.request_raw(&step.request);
        let us = t.secs() * 1e6;
        if let (Some(tracer), Some(id)) = (out.tracer.as_mut(), span) {
            tracer.end(id);
        }
        out.ops.attempted += 1;
        if step.timed {
            out.latencies_us.push(us);
        }
        match result {
            Ok(response) => {
                if is_ok(&response) {
                    out.updates += step.updates as u64;
                } else {
                    out.ops.failed += 1;
                }
                out.fingerprint =
                    out.fingerprint.wrapping_mul(0x100_0000_01b3) ^ fnv1a64(&response);
                if record.is_some() {
                    out.frames.push(Frame {
                        request: step.request.to_bytes(),
                        response,
                    });
                }
            }
            Err(_) => out.ops.failed += 1,
        }
    }
    out
}

/// Runs one script per connection concurrently; returns the round's
/// wall time and each connection's results. With `record`, frames and
/// per-request spans (on that time origin) are kept.
///
/// # Errors
/// A client thread that panicked.
pub fn run_round(
    clients: &mut [Client],
    scripts: &[Vec<Step>],
    record: Option<Stopwatch>,
) -> Result<(f64, Vec<ConnRound>), String> {
    let t = Stopwatch::start();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(scripts)
            .map(|(client, script)| s.spawn(move || run_script(client, script, record)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((t.secs(), results))
}

/// The replay check: every replayed frame's bytes equal the wire bytes.
///
/// # Errors
/// How many frames differ.
pub fn check_replay(mismatches: usize) -> Result<(), String> {
    match mismatches {
        0 => Ok(()),
        n => Err(format!("{n} replayed frames differ from the wire bytes")),
    }
}

/// The repeat check: every round's per-connection response fingerprints
/// equal the reference round's.
///
/// # Errors
/// The first round whose answer bytes changed.
pub fn check_same_fingerprints(reference: &[u64], rounds: &[Vec<u64>]) -> Result<(), String> {
    match rounds.iter().position(|r| r != reference) {
        None => Ok(()),
        Some(k) => Err(format!(
            "answer bytes of timed round {k} differ from the warm-up's"
        )),
    }
}

/// Timed serve rounds, folded into the measured numbers.
#[derive(Debug, Default)]
pub(crate) struct Folded {
    /// Wall time of each round.
    pub round_secs: Vec<f64>,
    /// Upper quartile over rounds of the round's work per second.
    pub ops_per_s: f64,
    /// Each timed request's lower-quartile latency over the rounds.
    pub latencies_us: Vec<f64>,
    /// Each round's response fingerprint per connection.
    pub fingerprints: Vec<Vec<u64>>,
    /// Requests of every round.
    pub ops: Ops,
}

/// Folds the results of [`run_round`]; `work` is what one connection's
/// round contributes to `ops_per_s`.
#[must_use]
pub(crate) fn fold_rounds(
    rounds: Vec<(f64, Vec<ConnRound>)>,
    work: fn(&ConnRound) -> f64,
) -> Folded {
    let mut out = Folded::default();
    let mut throughputs = Vec::with_capacity(rounds.len());
    let mut latencies = Vec::with_capacity(rounds.len());
    for (secs, conns) in rounds {
        let mut round_work = 0.0;
        let mut round_latencies = Vec::new();
        let mut prints = Vec::with_capacity(conns.len());
        for conn in conns {
            out.ops.add(conn.ops);
            round_work += work(&conn);
            prints.push(conn.fingerprint);
            round_latencies.extend(conn.latencies_us);
        }
        out.round_secs.push(secs);
        throughputs.push(round_work / secs);
        latencies.push(round_latencies);
        out.fingerprints.push(prints);
    }
    out.ops_per_s = crate::upper_quartile(&throughputs);
    out.latencies_us = crate::per_op_lower_quartiles(&latencies);
    out
}

/// The interval check: every point query's answer interval contains the
/// true value of `truth` (the columns as the benchmark knows them).
/// Returns how many answers were checked.
///
/// # Errors
/// The first answer whose interval misses the true value, or a frame
/// that does not decode.
pub fn check_point_intervals(truth: &[ColumnSpec], frames: &[Frame]) -> Result<usize, String> {
    let by_name: BTreeMap<&str, &[f64]> = truth
        .iter()
        .map(|c| (c.name.as_str(), c.data.as_slice()))
        .collect();
    let mut checked = 0;
    for f in frames {
        let Request::Query {
            column,
            kind: QueryKind::Point(i),
            ..
        } = Request::from_bytes(&f.request)?
        else {
            continue;
        };
        let value = by_name
            .get(column.as_str())
            .and_then(|d| d.get(i))
            .ok_or_else(|| format!("query of unknown point {column}[{i}]"))?;
        let response = Response::from_bytes(&f.response)?;
        let interval = response
            .get("interval")
            .and_then(Value::as_array)
            .and_then(|a| Some((a.first()?.as_f64()?, a.get(1)?.as_f64()?)))
            .ok_or_else(|| {
                format!(
                    "point {column}[{i}] answered without an interval: {}",
                    String::from_utf8_lossy(&f.response)
                )
            })?;
        if !(interval.0 <= *value && *value <= interval.1) {
            return Err(format!(
                "point {column}[{i}]: interval [{}, {}] misses the true value {value}",
                interval.0, interval.1
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// The traced pass shared by both serve workloads: a fresh server, a
/// recorded warm-up round, a recorded and traced round, then both
/// in-process replays.
#[derive(Debug)]
pub(crate) struct TracedPass {
    /// Wall time of the traced round.
    pub round_secs: f64,
    /// Every span: wire requests of the traced round, then the replays.
    pub tracer: Tracer,
    /// Per-layer numbers.
    pub layers: Layers,
    /// Requests of both rounds.
    pub ops: Ops,
    /// Mismatching frames of the shard-handler replay.
    pub mismatches: usize,
    /// Frames of both rounds, per connection.
    pub frames: Vec<Vec<Frame>>,
    /// Frames of the warm-up round, per connection.
    pub warm_len: Vec<usize>,
    /// Drift rebuilds of the traced round in the store replay.
    pub replay_rebuilds: u64,
}

/// Runs the traced pass over `columns` with one script per connection,
/// made from the setup frames.
///
/// # Errors
/// A failure to start, drive or replay the server.
pub(crate) fn traced_pass(
    columns: &[ColumnSpec],
    scripts: impl FnOnce(&[Frame]) -> Result<Vec<Vec<Step>>, String>,
) -> Result<TracedPass, String> {
    let mut harness = Harness::start(columns)?;
    let scripts = scripts(&harness.setup_frames)?;
    let mut clients = scripts
        .iter()
        .map(|_| harness.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let origin = Stopwatch::start();
    let (_, warm) = run_round(&mut clients, &scripts, Some(origin))?;
    let (round_secs, traced) = run_round(&mut clients, &scripts, Some(origin))?;
    drop(clients);
    let setup_frames = std::mem::take(&mut harness.setup_frames);
    harness.stop()?;

    let mut tracer = Tracer::with_origin(origin);
    let mut ops = Ops::default();
    let mut frames = Vec::with_capacity(scripts.len());
    let mut warm_len = Vec::with_capacity(scripts.len());
    let mut client_ns = Vec::new();
    for (w, mut t) in warm.into_iter().zip(traced) {
        ops.add(w.ops);
        ops.add(t.ops);
        warm_len.push(w.frames.len());
        if let Some(spans) = t.tracer.take() {
            client_ns.extend(spans.durations("serve.client.request"));
            tracer.absorb(spans);
        }
        let mut f = w.frames;
        f.extend(t.frames);
        frames.push(f);
    }

    let handled = replay_handle(&setup_frames, &frames, &warm_len, &mut tracer)?;
    let store = replay_store(columns, &frames, &warm_len, &mut tracer)?;

    let mut layers = store.layers;
    let requests = handled.codec_ns.len() as f64;
    layers.protocol_req_bytes = handled.req_bytes as f64 / requests;
    layers.protocol_resp_bytes = handled.resp_bytes as f64 / requests;
    let codec_ns: u64 = handled.codec_ns.iter().sum();
    layers.protocol_mb_per_s = rate(handled.codec_bytes as f64 / 1e6, codec_ns);
    layers.shard_handles_per_s = rate(requests, handled.handle_ns.iter().sum());
    // Residual at the median query: the client's wire latency minus the
    // codec and handler work the replay measured for the same requests.
    let queries = |v: &[u64]| -> Vec<f64> {
        v.iter()
            .zip(&handled.is_query)
            .filter(|(_, &q)| q)
            .map(|(&ns, _)| ns as f64)
            .collect()
    };
    let client = stats::median(&queries(&client_ns));
    let codec = stats::median(&queries(&handled.codec_ns));
    let handler = stats::median(&queries(&handled.handle_ns));
    if let (Some(client), Some(codec), Some(handler)) = (client, codec, handler) {
        layers.server_residual_pct = (client - codec - handler) / client * 100.0;
    }
    Ok(TracedPass {
        round_secs,
        tracer,
        layers,
        ops,
        mismatches: handled.mismatches,
        frames,
        warm_len,
        replay_rebuilds: store.rebuilds,
    })
}

/// Per-request results of the shard-handler replay (traced frames only).
#[derive(Debug, Default)]
pub struct Handled {
    codec_ns: Vec<u64>,
    handle_ns: Vec<u64>,
    is_query: Vec<bool>,
    req_bytes: u64,
    resp_bytes: u64,
    codec_bytes: u64,
    /// Frames (setup ones included) whose replayed bytes differ from the
    /// wire bytes.
    pub mismatches: usize,
}

/// Replays setup frames, then each connection's frames in order, through
/// the shard handler on a fresh column map, counting frames whose bytes
/// differ from the wire. Frames from `traced_from[c]` on are timed:
/// client-side request encode, server-side decode, the handler, response
/// encode, client-side response decode.
///
/// # Errors
/// A recorded frame that does not decode.
pub fn replay_handle(
    setup: &[Frame],
    conns: &[Vec<Frame>],
    traced_from: &[usize],
    tracer: &mut Tracer,
) -> Result<Handled, String> {
    let tolerance = config().tolerance;
    let mut columns = BTreeMap::new();
    let mut out = Handled::default();
    for f in setup {
        let request = Request::from_bytes(&f.request)?;
        if handle(&mut columns, &request, tolerance).to_bytes() != f.response {
            out.mismatches += 1;
        }
    }
    let mut req = 0u64;
    for (frames, &from) in conns.iter().zip(traced_from) {
        for (k, f) in frames.iter().enumerate() {
            if k < from {
                let request = Request::from_bytes(&f.request)?;
                if handle(&mut columns, &request, tolerance).to_bytes() != f.response {
                    out.mismatches += 1;
                }
                continue;
            }
            req += 1;
            let t0 = tracer.origin().ns();
            let request = tracer.time("serve.protocol.decode_request", req, || {
                Request::from_bytes(&f.request)
            })?;
            let encoded = tracer.time("serve.protocol.encode_request", req, || request.to_bytes());
            let t1 = tracer.origin().ns();
            let response = tracer.time("serve.shard.handle", req, || {
                handle(&mut columns, &request, tolerance)
            });
            let t2 = tracer.origin().ns();
            let bytes = tracer.time("serve.protocol.encode_response", req, || {
                response.to_bytes()
            });
            tracer.time("serve.protocol.decode_response", req, || {
                Response::from_bytes(&f.response)
            })?;
            let t3 = tracer.origin().ns();
            if encoded != f.request || bytes != f.response {
                out.mismatches += 1;
            }
            out.codec_ns.push((t1 - t0) + (t3 - t2));
            out.handle_ns.push(t2 - t1);
            out.is_query.push(matches!(request, Request::Query { .. }));
            out.req_bytes += f.request.len() as u64;
            out.resp_bytes += f.response.len() as u64;
            out.codec_bytes += 2 * (f.request.len() + f.response.len()) as u64;
        }
    }
    Ok(out)
}

/// Store-level results of a replay (traced frames only).
#[derive(Debug, Default)]
struct StoreReplay {
    layers: Layers,
    rebuilds: u64,
}

/// Replays each column's requests through `Column` directly: updates
/// through `enqueue`, and before every query or flush a `drain` with a
/// recording collector whose span tree gives `applied`, `rebuilds` and
/// the DP counters; queries then go straight to the column's query
/// engine. Finally every traced update batch is replayed alone through
/// `DynamicErrorTree::update`.
fn replay_store(
    specs: &[ColumnSpec],
    conns: &[Vec<Frame>],
    traced_from: &[usize],
    tracer: &mut Tracer,
) -> Result<StoreReplay, String> {
    let tolerance = config().tolerance;
    let mut columns = BTreeMap::new();
    for c in specs {
        let mut col = Column::new(&c.data, tolerance)?;
        col.build(c.budget, "abs", Some(c.family), &Collector::noop())?;
        columns.insert(c.name.clone(), col);
    }
    let mut counts = Counts::default();
    let mut traced_updates: Vec<(String, Vec<(usize, f64)>)> = Vec::new();
    let mut req = 0u64;
    for (frames, &from) in conns.iter().zip(traced_from) {
        for (k, f) in frames.iter().enumerate() {
            let traced = k >= from;
            req += 1;
            let request = Request::from_bytes(&f.request)?;
            let name = request.column().unwrap_or_default().to_string();
            let col = columns
                .get_mut(&name)
                .ok_or_else(|| format!("replay of unknown column '{name}'"))?;
            match request {
                Request::Update { updates, .. } => {
                    if traced {
                        tracer.time("serve.store.enqueue", req, || col.enqueue(&updates))?;
                        counts.enqueues += 1;
                        traced_updates.push((name, updates));
                    } else {
                        col.enqueue(&updates)?;
                    }
                }
                Request::Query { kind, .. } => {
                    drain(col, traced, req, tracer, &mut counts)?;
                    let engine = &col
                        .built()
                        .ok_or_else(|| format!("column '{name}' has no build"))?
                        .engine;
                    if traced {
                        let (span, n) = match kind {
                            QueryKind::Point(_) => ("aqp.point", &mut counts.points),
                            QueryKind::RangeSum(..) => ("aqp.range_sum", &mut counts.sums),
                            QueryKind::RangeAvg(..) => ("aqp.range_avg", &mut counts.avgs),
                        };
                        *n += 1;
                        tracer.time(span, req, || {
                            std::hint::black_box(match kind {
                                QueryKind::Point(i) => engine.point(i),
                                QueryKind::RangeSum(lo, hi) => engine.range_sum(lo..hi),
                                QueryKind::RangeAvg(lo, hi) => engine.range_avg(lo..hi),
                            })
                        });
                    }
                }
                Request::Flush { .. } => drain(col, traced, req, tracer, &mut counts)?,
                Request::Build {
                    budget,
                    metric,
                    family,
                    ..
                } => {
                    let obs = if traced {
                        Collector::recording()
                    } else {
                        Collector::noop()
                    };
                    col.build(budget, &metric, family.as_deref(), &obs)?;
                    if let Some(root) = obs.into_root() {
                        add_counters(&root, None, &mut counts);
                    }
                }
                other => return Err(format!("unexpected request in a round: {other:?}")),
            }
        }
    }

    let mut trees: BTreeMap<String, DynamicErrorTree> = BTreeMap::new();
    for c in specs {
        trees.insert(
            c.name.clone(),
            DynamicErrorTree::new(&c.data).map_err(|e| e.to_string())?,
        );
    }
    let mut tree_updates = 0u64;
    for (batch, (name, updates)) in (0u64..).zip(&traced_updates) {
        let tree = trees
            .get_mut(name)
            .ok_or_else(|| format!("replay of unknown column '{name}'"))?;
        tracer.time("stream.tree_update", batch, || {
            for &(i, delta) in updates {
                tree.update(i, delta);
            }
        });
        tree_updates += updates.len() as u64;
    }

    let l = Layers {
        synopsis_states: counts.synopsis.states as f64,
        synopsis_leaf_evals: counts.synopsis.leaf_evals as f64,
        core_probes: counts.synopsis.probes as f64,
        core_peak_live: counts.synopsis.peak_live as f64,
        hist_states: counts.hist.states as f64,
        hist_leaf_evals: counts.hist.leaf_evals as f64,
        store_applied: counts.applied as f64,
        store_rebuilds: counts.rebuilds as f64,
        store_enqueues_per_s: rate(
            counts.enqueues as f64,
            tracer.total_ns("serve.store.enqueue"),
        ),
        store_drains_per_s: rate(counts.drains as f64, tracer.total_ns("serve.store.drain")),
        aqp_point_per_s: rate(counts.points as f64, tracer.total_ns("aqp.point")),
        aqp_range_sum_per_s: rate(counts.sums as f64, tracer.total_ns("aqp.range_sum")),
        aqp_range_avg_per_s: rate(counts.avgs as f64, tracer.total_ns("aqp.range_avg")),
        stream_tree_updates_per_s: rate(tree_updates as f64, tracer.total_ns("stream.tree_update")),
        ..Layers::default()
    };
    Ok(StoreReplay {
        layers: l,
        rebuilds: counts.rebuilds,
    })
}

/// Counters gathered by the store replay.
#[derive(Debug, Default)]
struct Counts {
    enqueues: u64,
    drains: u64,
    applied: u64,
    rebuilds: u64,
    points: u64,
    sums: u64,
    avgs: u64,
    synopsis: DpStats,
    hist: DpStats,
}

/// Drains a column's pending updates; a traced non-empty drain is timed
/// and its span tree's counters are added to `counts`.
fn drain(
    col: &mut Column,
    traced: bool,
    req: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    if !traced || col.pending() == 0 {
        return col.drain(&Collector::noop());
    }
    let obs = Collector::recording();
    tracer.time("serve.store.drain", req, || col.drain(&obs))?;
    counts.drains += 1;
    if let Some(root) = obs.into_root() {
        add_counters(&root, None, counts);
    }
    Ok(())
}

/// Sums the counters of a drain's span tree: `applied` and `rebuilds`,
/// and the DP counters attributed to the nearest enclosing solver span
/// (`minmax` → synopsis, `hist` → hist).
fn add_counters(node: &SpanNode, family: Option<&str>, counts: &mut Counts) {
    let family = match node.name.as_str() {
        "minmax" | "hist" => Some(node.name.as_str()),
        _ => family,
    };
    let get = |k: &str| node.counters.get(k).copied().unwrap_or(0);
    counts.applied += get("applied") as u64;
    counts.rebuilds += get("rebuilds") as u64;
    let dp = DpStats {
        states: get("states"),
        leaf_evals: get("leaf_evals"),
        probes: get("probes"),
        peak_live: node.gauges.get("peak_live").copied().unwrap_or(0),
    };
    match family {
        Some("minmax") => counts.synopsis = counts.synopsis.merged(dp),
        Some("hist") => counts.hist = counts.hist.merged(dp),
        _ => {}
    }
    for child in &node.children {
        add_counters(child, family, counts);
    }
}

/// Drift rebuilds the server reported between the flushes that end the
/// warm-up round and the traced round (each flush answers with its
/// column's running rebuild count).
///
/// # Errors
/// A flush response that does not decode.
pub(crate) fn server_rebuilds(frames: &[Vec<Frame>], warm_len: &[usize]) -> Result<u64, String> {
    let mut total = 0u64;
    for (conn, &warm) in frames.iter().zip(warm_len) {
        let mut before: BTreeMap<String, u64> = BTreeMap::new();
        let mut after: BTreeMap<String, u64> = BTreeMap::new();
        for (k, f) in conn.iter().enumerate() {
            let Request::Flush { column } = Request::from_bytes(&f.request)? else {
                continue;
            };
            let count = Response::from_bytes(&f.response)?
                .get("rebuilds")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("flush of '{column}' reported no rebuilds"))?;
            let map = if k < warm { &mut before } else { &mut after };
            map.insert(column, count as u64);
        }
        for (column, count) in after {
            total += count.saturating_sub(before.get(&column).copied().unwrap_or(0));
        }
    }
    Ok(total)
}
