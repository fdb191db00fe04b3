//! End-to-end loopback tests: a real server on an ephemeral port, real
//! sockets, answers compared bit-for-bit against library runs.

use wsyn_aqp::QueryEngine1d;
use wsyn_core::json::Value;
use wsyn_serve::{Client, QueryKind, Request, ServeConfig, Server};
use wsyn_synopsis::one_dim::MinMaxErr;
use wsyn_synopsis::ErrorMetric;

fn start(shards: usize) -> (String, std::thread::JoinHandle<Result<(), String>>) {
    let config = ServeConfig {
        shards,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", &config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn data(n: usize, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(2862933555777941757)
                .wrapping_add(salt);
            f64::from(u32::try_from(x >> 40).unwrap() % 1000) / 10.0 - 40.0
        })
        .collect()
}

#[test]
fn full_lifecycle_over_loopback_matches_library() {
    let (addr, handle) = start(2);
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("ping");

    let data = data(64, 7);
    client.put("sales", &data).expect("put");
    let build = client.build("sales", 9, "abs", false).expect("build");
    let lib = MinMaxErr::new(&data)
        .unwrap()
        .run(9, ErrorMetric::absolute());
    assert_eq!(
        build
            .get("objective")
            .and_then(Value::as_f64)
            .unwrap()
            .to_bits(),
        lib.objective.to_bits(),
        "server objective must be bit-identical to the library's"
    );
    let retained: Vec<usize> = build
        .get("retained")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_usize().unwrap())
        .collect();
    assert_eq!(retained, lib.synopsis.indices());

    let engine = QueryEngine1d::new(lib.synopsis);
    for i in [0usize, 17, 63] {
        let q = client
            .query("sales", QueryKind::Point(i), false)
            .expect("query");
        let est = q.get("est").and_then(Value::as_f64).unwrap();
        assert_eq!(est.to_bits(), (engine.point(i) + 0.0).to_bits());
        let iv = q.get("interval").and_then(Value::as_array).unwrap();
        let (lo, hi) = (iv[0].as_f64().unwrap(), iv[1].as_f64().unwrap());
        assert!(
            lo <= data[i] && data[i] <= hi,
            "interval must contain truth"
        );
    }
    let q = client
        .query("sales", QueryKind::RangeSum(8, 40), false)
        .expect("range");
    let est = q.get("est").and_then(Value::as_f64).unwrap();
    assert_eq!(est.to_bits(), (engine.range_sum(8..40) + 0.0).to_bits());

    // Batched ingest: enqueue cheap, flush applies, info reflects it.
    client
        .update("sales", &[(3, 5.0), (40, -2.5), (3, 1.5)])
        .expect("update");
    let info = client.info("sales").expect("info");
    assert_eq!(info.get("pending").and_then(Value::as_usize), Some(3));
    client.flush("sales").expect("flush");
    let info = client.info("sales").expect("info");
    assert_eq!(info.get("pending").and_then(Value::as_usize), Some(0));

    // Queries after updates answer under the drifted (or rebuilt)
    // guarantee and still contain the new truth under abs.
    let mut truth = data.clone();
    truth[3] += 6.5;
    truth[40] -= 2.5;
    let q = client
        .query("sales", QueryKind::Point(3), false)
        .expect("query");
    let iv = q.get("interval").and_then(Value::as_array).unwrap();
    assert!(iv[0].as_f64().unwrap() <= truth[3] && truth[3] <= iv[1].as_f64().unwrap());

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn columns_spread_across_shards_and_answers_do_not_depend_on_shard_count() {
    // The same request script against 1-shard and 4-shard servers must
    // produce byte-identical responses (the in-process version of the
    // CI answer-stream diff).
    let columns: Vec<(String, Vec<f64>)> = (0..6)
        .map(|k| (format!("col{k}"), data(32, 100 + k)))
        .collect();
    let mut streams: Vec<Vec<Vec<u8>>> = Vec::new();
    for shards in [1usize, 4] {
        let (addr, handle) = start(shards);
        let mut client = Client::connect(&addr).expect("connect");
        let mut answers = Vec::new();
        for (name, data) in &columns {
            client.put(name, data).expect("put");
            answers.push(client.request_raw(&Request::Build {
                column: name.clone(),
                budget: 6,
                metric: "rel:1.0".to_string(),
                family: None,
                trace: false,
            }));
            for i in 0..data.len() {
                answers.push(client.request_raw(&Request::Query {
                    column: name.clone(),
                    kind: QueryKind::Point(i),
                    trace: false,
                }));
            }
        }
        client.shutdown().expect("shutdown");
        handle.join().expect("join").expect("run");
        streams.push(answers.into_iter().map(|a| a.expect("answer")).collect());
    }
    assert_eq!(
        streams[0], streams[1],
        "answer stream must be independent of the shard count"
    );
}

/// A budget beyond `u32` is an ordinary request: the build answers with
/// the synopsis a budget of `N` gives, and the shard worker survives to
/// serve the next column (one shard, so both columns share it).
#[test]
fn oversized_budget_builds_and_the_shard_keeps_answering() {
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).expect("connect");
    let (huge, other) = (data(32, 11), data(32, 12));
    client.put("huge", &huge).expect("put");
    client.put("other", &other).expect("put");
    let fields = |r: &wsyn_serve::Response| {
        let objective = r.get("objective").and_then(Value::as_f64).unwrap();
        let retained: Vec<usize> = r
            .get("retained")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_usize().unwrap())
            .collect();
        (objective.to_bits(), retained)
    };
    let build = client
        .build("huge", 5_000_000_000, "abs", false)
        .expect("a budget of 5e9 builds");
    let lib = MinMaxErr::new(&huge)
        .unwrap()
        .run(huge.len(), ErrorMetric::absolute());
    assert_eq!(
        fields(&build),
        (lib.objective.to_bits(), lib.synopsis.indices())
    );
    // The probabilistic baselines are not serveable for dynamic columns:
    // a huge minrelvar budget gets the typed refusal before any DP runs,
    // and the shard keeps answering.
    let refused = client
        .build_with_family("huge", 5_000_000_000, "rel:1", "minrelvar", false)
        .expect_err("minrelvar is refused for dynamic columns");
    assert!(refused.contains("not serveable"), "{refused}");
    let build = client
        .build("other", 6, "abs", false)
        .expect("the shard still answers");
    let lib = MinMaxErr::new(&other)
        .unwrap()
        .run(6, ErrorMetric::absolute());
    assert_eq!(
        fields(&build),
        (lib.objective.to_bits(), lib.synopsis.indices())
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
}

/// Builds the server cannot certify get an error answer, not a wrong
/// guarantee: data near `f64::MAX` overflows the reconstruction, and a tiny
/// stream eps makes a grid no table can address. The shard keeps
/// answering another column (one shard, so all columns share it).
#[test]
fn uncertifiable_builds_are_refused_and_the_shard_keeps_answering() {
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).expect("connect");
    let max = f64::MAX;
    client.put("overflow", &[max, -max, max, 0.0]).expect("put");
    client.put("overflow2", &[max, max, max, 0.0]).expect("put");
    let other = data(32, 13);
    client.put("other", &other).expect("put");
    for (column, budget) in [("overflow", 3), ("overflow2", 2)] {
        let refused = client
            .build(column, budget, "abs", false)
            .expect_err("an uncertifiable build is refused");
        assert!(refused.contains("cannot certify"), "{column}: {refused}");
    }
    for (i, eps) in [1e-300, 5e-324].into_iter().enumerate() {
        let refused = client
            .stream_create(&format!("tiny{i}"), 8, 3, eps, 1.0)
            .expect_err("a tiny stream eps is refused");
        assert!(
            refused.contains("cannot be addressed"),
            "eps={eps}: {refused}"
        );
    }
    let build = client
        .build("other", 6, "abs", false)
        .expect("the shard still answers");
    let lib = MinMaxErr::new(&other)
        .unwrap()
        .run(6, ErrorMetric::absolute());
    let objective = build.get("objective").and_then(Value::as_f64).unwrap();
    assert_eq!(objective.to_bits(), lib.objective.to_bits());
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
}

#[test]
fn protocol_errors_answer_without_dropping_the_connection() {
    let (addr, handle) = start(1);
    let mut client = Client::connect(&addr).expect("connect");

    let miss = client
        .request(&Request::Info {
            column: "ghost".to_string(),
        })
        .expect("transport ok");
    assert!(!miss.is_ok());
    assert!(miss.error_message().unwrap().contains("ghost"));

    let bad = client
        .request(&Request::Put {
            column: "c".to_string(),
            data: vec![1.0, 2.0, 3.0],
        })
        .expect("transport ok");
    assert!(!bad.is_ok(), "non-power-of-two put must fail cleanly");

    // The connection still works.
    client.ping().expect("ping after errors");
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
}

#[test]
fn trace_reports_are_deterministic_and_untimed() {
    let (addr, handle) = start(2);
    let mut client = Client::connect(&addr).expect("connect");
    let data = data(32, 3);
    client.put("t", &data).expect("put");

    let one = client.build("t", 5, "abs", true).expect("build");
    let report = one.get("report").expect("trace must attach a report");
    let rendered = report.compact();
    assert!(!rendered.contains("elapsed_ns"), "reports must be untimed");

    // Re-putting the data and rebuilding yields the identical report —
    // per-request traces are deterministic.
    client.put("t", &data).expect("put again");
    let two = client.build("t", 5, "abs", true).expect("build again");
    assert_eq!(
        report.compact(),
        two.get("report").expect("report").compact()
    );
    assert_eq!(rendered, report.compact());

    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
}
