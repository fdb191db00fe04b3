//! The contract between `BENCHMARK.json` and the ledger: the file parses,
//! its names and sizes are within the benchmark rules, every workload it
//! names is one the ledger runs, and each workload — run at the small
//! test scale — emits exactly the declared metric names and units.

use std::collections::BTreeSet;

use wsyn_core::json::Value;
use wsyn_ledger::{run, Workload, TEST};

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the ledger");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("'{key}' is an array"))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("'{key}' is a string in {}", v.compact()))
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {}", other.compact()),
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Declared `(name, unit)` pairs of a metric list.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    entries(doc, key)
        .iter()
        .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
        .collect()
}

#[test]
fn benchmark_json_follows_the_rules() {
    let doc = benchmark();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = entries(&doc, "workloads");
    let end_to_end = entries(&doc, "end_to_end");
    let per_layer = entries(&doc, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));

    let mut names = BTreeSet::new();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        assert!(names.insert(str_of(w, "name")), "duplicate name");
    }
    for m in end_to_end {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .expect("numeric bound");
        assert!((0.0..=0.25).contains(&bound), "bound {bound}");
        assert!(names.insert(str_of(m, "name")), "duplicate name");
    }
    for m in per_layer {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        assert!(names.insert(str_of(m, "name")), "duplicate name");
    }
    for name in &names {
        assert!(valid_name(name), "bad name '{name}'");
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(matches!(str_of(m, "better"), "lower" | "higher"));
        let unit = str_of(m, "unit");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit '{unit}'"
        );
    }
    let setup = end_to_end
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
    let largest = end_to_end
        .iter()
        .filter_map(|m| m.get("bound").and_then(Value::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));

    let paths = entries(&doc, "paths");
    assert!((1..=16).contains(&paths.len()));
    let command = entries(&doc, "command");
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in command.iter().chain(paths) {
        let arg = arg.as_str().expect("string");
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    let seconds = doc.get("run_seconds").and_then(Value::as_usize);
    assert!(seconds.is_some_and(|s| (1..=60).contains(&s)));
}

#[test]
fn declared_workloads_are_the_ledgers() {
    let doc = benchmark();
    let declared: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let ledger: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, ledger);
    for name in declared {
        assert!(Workload::parse(name).is_ok());
    }
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let doc = benchmark();
    for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(&doc, key);
        for w in Workload::ALL {
            let outcome = run(w, 7, 0.0, traced, &TEST).expect("workload runs");
            let got: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{} ({key})", w.name());
            assert!(outcome.correct(), "{}: {:?}", w.name(), outcome.checks);
            assert!(outcome.ops.attempted > 0 && outcome.ops.failed == 0);
            let json = outcome.to_json();
            assert_eq!(keys(&json), ["correct", "attempted", "failed", "metrics"]);
            assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}
