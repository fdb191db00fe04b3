//! # wsyn-obs — deterministic observability for the solver workspace
//!
//! Garofalakis & Kumar's schemes are multi-phase by construction: the
//! `(1+ε)` scheme sweeps truncated DPs over a τ grid (Theorem 3.4), the
//! 1-D DP walks rows per node and searches budget splits (Theorem 3.1),
//! and the conformance shrinker iterates rounds. This crate gives those
//! phases names. It provides:
//!
//! * a hand-rolled **span tree** — enter/exit scopes (`tau_sweep`,
//!   `dp`, `rebuild`, …) recorded through a
//!   cheap [`Collector`] handle with RAII [`SpanGuard`]s;
//! * **typed counters and gauges** attached to the open span, subsuming
//!   the flat [`DpStats`] block (via [`Collector::record_dp_stats`]);
//! * a **JSON run report** ([`Report`]) emitted through `wsyn-core`'s
//!   hand-rolled JSON, with a parser for round-tripping;
//! * optional **monotonic timing** behind the `timing` cargo feature.
//!
//! ## Determinism contract
//!
//! With the `timing` feature **off** (the default), a report is a pure
//! function of the solver's execution: counters are exact event counts,
//! span order is program order, and map-like structures are ordered
//! (`BTreeMap`) — so two identical runs serialize to **byte-identical**
//! JSON. With `timing` on, each span additionally carries an
//! `elapsed_ns` field; timed fields are segregated (they are the *only*
//! addition) so stripping them recovers the untimed report.
//!
//! ## Zero-cost default
//!
//! [`Collector::noop`] (also [`Collector::default`]) holds no recorder:
//! every operation is a branch on a `None` and allocates nothing, so
//! instrumented solvers pay nothing when nobody is watching;
//! `tests/noop_alloc.rs` asserts the no-op path never allocates.
//!
//! ## Parallel collection
//!
//! [`Collector`] is deliberately **not** `Send`: a parallel phase (the
//! τ-sweep) creates one child collector per unit of work *inside* each
//! worker, extracts the finished subtree with [`Collector::into_root`],
//! and the coordinator attaches the subtrees in deterministic (ascending
//! τ) order with [`Collector::attach`]. Reports are therefore identical
//! between parallel and sequential execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use wsyn_core::json::{self, Value};
use wsyn_core::DpStats;

/// One node of a recorded span tree: a named scope with the counters and
/// gauges recorded while it was the innermost open span, and its child
/// spans in program order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanNode {
    /// Scope name (e.g. `tau_sweep`, `dp`, `rebuild`).
    pub name: String,
    /// Monotonically accumulated event counts, in name order.
    pub counters: BTreeMap<String, usize>,
    /// High-water marks (e.g. `peak_live`), in name order.
    pub gauges: BTreeMap<String, usize>,
    /// Child spans, in the order they were entered.
    pub children: Vec<SpanNode>,
    /// Wall-clock nanoseconds spent inside the span. Populated only when
    /// the `timing` cargo feature is enabled; always `None` otherwise,
    /// keeping untimed reports byte-identical across runs.
    pub elapsed_ns: Option<u64>,
}

impl SpanNode {
    /// An empty span with the given name.
    #[must_use]
    pub fn new(name: &str) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            ..SpanNode::default()
        }
    }

    /// Total number of spans in the subtree rooted here (including self).
    #[must_use]
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanNode::span_count)
            .sum::<usize>()
    }

    /// Maximum nesting depth of the subtree rooted here (a leaf is 1).
    #[must_use]
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(SpanNode::depth).max().unwrap_or(0)
    }

    /// Sums every counter in the subtree into `into` (name-keyed).
    fn accumulate(&self, into: &mut BTreeMap<String, usize>) {
        for (name, n) in &self.counters {
            *into.entry(name.clone()).or_insert(0) += n;
        }
        for child in &self.children {
            child.accumulate(into);
        }
    }

    /// A copy of the subtree with every timed field removed — the
    /// canonical untimed form reports are byte-compared under.
    #[must_use]
    pub fn strip_timing(&self) -> SpanNode {
        SpanNode {
            name: self.name.clone(),
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            children: self.children.iter().map(SpanNode::strip_timing).collect(),
            elapsed_ns: None,
        }
    }

    fn to_json(&self) -> Value {
        let mut fields = vec![("name", Value::String(self.name.clone()))];
        if !self.counters.is_empty() {
            fields.push((
                "counters",
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::Number(v as f64)))
                        .collect(),
                ),
            ));
        }
        if !self.gauges.is_empty() {
            fields.push((
                "gauges",
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::Number(v as f64)))
                        .collect(),
                ),
            ));
        }
        if let Some(ns) = self.elapsed_ns {
            fields.push(("elapsed_ns", Value::Number(ns as f64)));
        }
        if !self.children.is_empty() {
            fields.push((
                "children",
                Value::Array(self.children.iter().map(SpanNode::to_json).collect()),
            ));
        }
        json::object(fields)
    }

    fn from_json(v: &Value) -> Result<SpanNode, String> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| "span: missing `name`".to_string())?
            .to_string();
        let metrics = |key: &str| -> Result<BTreeMap<String, usize>, String> {
            let mut out = BTreeMap::new();
            if let Some(Value::Object(fields)) = v.get(key) {
                for (k, n) in fields {
                    let n = n
                        .as_usize()
                        .ok_or_else(|| format!("span `{name}`: non-numeric {key} `{k}`"))?;
                    out.insert(k.clone(), n);
                }
            }
            Ok(out)
        };
        let counters = metrics("counters")?;
        let gauges = metrics("gauges")?;
        let elapsed_ns = match v.get("elapsed_ns") {
            None => None,
            Some(ns) => Some(
                ns.as_usize()
                    .map(|n| n as u64)
                    .ok_or_else(|| format!("span `{name}`: non-numeric elapsed_ns"))?,
            ),
        };
        let mut children = Vec::new();
        if let Some(kids) = v.get("children").and_then(Value::as_array) {
            for kid in kids {
                children.push(SpanNode::from_json(kid)?);
            }
        }
        Ok(SpanNode {
            name,
            counters,
            gauges,
            children,
            elapsed_ns,
        })
    }
}

/// The recording state behind an enabled [`Collector`]: the span tree
/// built so far plus the path (child indices from the root) to the
/// innermost open span.
#[derive(Debug)]
struct Recorder {
    root: SpanNode,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            root: SpanNode::new(ROOT_SPAN),
            open: Vec::new(),
        }
    }

    /// The innermost open span (the root when none is open).
    fn cursor(&mut self) -> &mut SpanNode {
        let mut node = &mut self.root;
        for &i in &self.open {
            node = &mut node.children[i];
        }
        node
    }

    fn enter(&mut self, name: &str) {
        let cursor = self.cursor();
        cursor.children.push(SpanNode::new(name));
        let i = cursor.children.len() - 1;
        self.open.push(i);
    }

    fn exit(&mut self, elapsed_ns: Option<u64>) {
        if let Some(ns) = elapsed_ns {
            let cursor = self.cursor();
            cursor.elapsed_ns = Some(cursor.elapsed_ns.unwrap_or(0) + ns);
        }
        // Unbalanced exits (a forgotten guard) degrade to a no-op rather
        // than corrupting the tree.
        self.open.pop();
    }
}

/// Name of the implicit root span every collector starts with.
pub const ROOT_SPAN: &str = "run";

/// A cheap, cloneable handle solvers record into. The default
/// ([`Collector::noop`]) holds no recorder and makes every operation a
/// no-op branch; [`Collector::recording`] allocates one shared recorder,
/// and clones of it append to the same span tree.
///
/// Deliberately `!Send`: parallel phases record into per-worker child
/// collectors and merge subtrees deterministically (see the crate docs).
#[derive(Debug, Clone, Default)]
pub struct Collector {
    inner: Option<Rc<RefCell<Recorder>>>,
}

impl Collector {
    /// The zero-cost disabled collector (also [`Collector::default`]).
    #[must_use]
    pub fn noop() -> Collector {
        Collector { inner: None }
    }

    /// A collector that records spans, counters, and gauges.
    #[must_use]
    pub fn recording() -> Collector {
        Collector {
            inner: Some(Rc::new(RefCell::new(Recorder::new()))),
        }
    }

    /// Whether this handle records anything. Parallel phases consult
    /// this once, outside the worker loop, to decide whether workers
    /// should build child collectors.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; it closes when the returned guard drops. Nested
    /// calls build nested spans.
    #[must_use = "the span closes when the guard drops; binding it to _ closes it immediately"]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().enter(name);
        }
        SpanGuard {
            collector: self,
            #[cfg(feature = "timing")]
            // Timing is an explicitly opted-in diagnostic: reports carry
            // elapsed_ns only under this feature, never in the
            // byte-compared untimed form.
            start: self.inner.as_ref().map(|_| std::time::Instant::now()), // wsyn: allow(wall-clock)
        }
    }

    /// Adds `n` to a counter on the innermost open span.
    pub fn add(&self, counter: &'static str, n: usize) {
        if let Some(inner) = &self.inner {
            *inner
                .borrow_mut()
                .cursor()
                .counters
                .entry(counter.to_string())
                .or_insert(0) += n;
        }
    }

    /// Raises a high-water-mark gauge on the innermost open span.
    pub fn gauge_max(&self, gauge: &'static str, value: usize) {
        if let Some(inner) = &self.inner {
            let mut rec = inner.borrow_mut();
            let slot = rec.cursor().gauges.entry(gauge.to_string()).or_insert(0);
            *slot = (*slot).max(value);
        }
    }

    /// Records a [`DpStats`] block on the innermost open span: the three
    /// monotone counts become counters, `peak_live` a gauge. This is how
    /// the unified DP statistics of PR 1 flow into the span tree.
    pub fn record_dp_stats(&self, stats: &DpStats) {
        if self.inner.is_some() {
            self.add("states", stats.states);
            self.add("leaf_evals", stats.leaf_evals);
            self.add("probes", stats.probes);
            self.gauge_max("peak_live", stats.peak_live);
        }
    }

    /// Attaches a finished subtree (from a per-worker child collector)
    /// as a child of the innermost open span. Callers attach in a
    /// deterministic order — ascending τ for the sweep — so parallel and
    /// sequential execution produce identical trees.
    pub fn attach(&self, subtree: SpanNode) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().cursor().children.push(subtree);
        }
    }

    /// Consumes the collector and returns its span tree (`None` for the
    /// no-op collector or while other clones of the handle are alive).
    /// Any spans still open are treated as closed.
    #[must_use]
    pub fn into_root(self) -> Option<SpanNode> {
        let inner = Rc::try_unwrap(self.inner?).ok()?;
        Some(inner.into_inner().root)
    }

    /// A snapshot of the current span tree (`None` for the no-op
    /// collector). Open spans appear as recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Option<SpanNode> {
        self.inner.as_ref().map(|inner| inner.borrow().root.clone())
    }

    /// Builds a [`Report`] from the current tree, with caller-supplied
    /// metadata (solver name, budget, metric, …). `None` for the no-op
    /// collector.
    #[must_use]
    pub fn report(&self, meta: Vec<(String, Value)>) -> Option<Report> {
        self.snapshot().map(|root| Report { meta, root })
    }
}

/// RAII guard for an open span; dropping it closes the span.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    collector: &'a Collector,
    #[cfg(feature = "timing")]
    start: Option<std::time::Instant>, // wsyn: allow(wall-clock)
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = &self.collector.inner {
            #[cfg(feature = "timing")]
            let elapsed = self.start.map(|s| {
                u64::try_from(s.elapsed().as_nanos()).unwrap_or(u64::MAX) // wsyn: allow(no-panic)
            });
            #[cfg(not(feature = "timing"))]
            let elapsed = None;
            inner.borrow_mut().exit(elapsed);
        }
    }
}

/// A complete run report: caller metadata, derived counter totals, and
/// the span tree. Serialized with `wsyn-core`'s JSON writer; with the
/// `timing` feature off the serialization is byte-identical across
/// identical runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Caller-supplied metadata (solver, budget, metric, …), emitted in
    /// the order given.
    pub meta: Vec<(String, Value)>,
    /// The recorded span tree.
    pub root: SpanNode,
}

/// Schema tag emitted in every report, bumped on layout changes.
pub const REPORT_SCHEMA: &str = "wsyn-run-report/1";

impl Report {
    /// Counter totals aggregated over the whole tree (derived; also
    /// emitted as the `totals` object for quick inspection).
    #[must_use]
    pub fn totals(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        self.root.accumulate(&mut out);
        out
    }

    /// The report with every timed field removed (see
    /// [`SpanNode::strip_timing`]).
    #[must_use]
    pub fn strip_timing(&self) -> Report {
        Report {
            meta: self.meta.clone(),
            root: self.root.strip_timing(),
        }
    }

    /// Serializes the report. Field order, map ordering, and span order
    /// are all deterministic.
    #[must_use]
    pub fn to_json(&self) -> Value {
        json::object(vec![
            ("schema", Value::String(REPORT_SCHEMA.to_string())),
            ("meta", Value::Object(self.meta.clone())),
            (
                "totals",
                Value::Object(
                    self.totals()
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::Number(v as f64)))
                        .collect(),
                ),
            ),
            ("span_tree", self.root.to_json()),
        ])
    }

    /// The pretty-printed serialization plus a trailing newline — the
    /// exact bytes `--report` writes and CI byte-compares.
    #[must_use]
    pub fn render(&self) -> String {
        let mut text = self.to_json().pretty();
        text.push('\n');
        text
    }

    /// Parses a report serialized by [`Report::to_json`]. The derived
    /// `totals` object is ignored (it is recomputed on emission).
    ///
    /// # Errors
    /// Describes the first structural mismatch.
    pub fn from_json(v: &Value) -> Result<Report, String> {
        match v.get("schema").and_then(Value::as_str) {
            Some(REPORT_SCHEMA) => {}
            Some(other) => return Err(format!("unsupported report schema `{other}`")),
            None => return Err("report: missing `schema`".to_string()),
        }
        let meta = match v.get("meta") {
            Some(Value::Object(fields)) => fields.clone(),
            Some(_) => return Err("report: `meta` is not an object".to_string()),
            None => Vec::new(),
        };
        let root = v
            .get("span_tree")
            .ok_or_else(|| "report: missing `span_tree`".to_string())
            .and_then(SpanNode::from_json)?;
        Ok(Report { meta, root })
    }
}

/// Convenience: standard metadata block for a thresholding run.
#[must_use]
pub fn run_meta(solver: &str, budget: usize, metric: &str) -> Vec<(String, Value)> {
    vec![
        ("solver".to_string(), Value::String(solver.to_string())),
        ("budget".to_string(), Value::Number(budget as f64)),
        ("metric".to_string(), Value::String(metric.to_string())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_collector() -> Collector {
        let obs = Collector::recording();
        {
            let _sweep = obs.span("tau_sweep");
            for tau in 0..3usize {
                let _t = obs.span("tau");
                obs.add("states", 10 + tau);
            }
            obs.gauge_max("peak_live", 7);
        }
        obs.add("leaf_evals", 42);
        obs
    }

    #[test]
    fn noop_records_nothing() {
        let obs = Collector::noop();
        {
            let _g = obs.span("tau_sweep");
            obs.add("states", 1);
            obs.gauge_max("peak_live", 9);
            obs.record_dp_stats(&DpStats {
                states: 1,
                leaf_evals: 2,
                probes: 3,
                peak_live: 4,
            });
            obs.attach(SpanNode::new("orphan"));
        }
        assert!(!obs.is_enabled());
        assert!(obs.snapshot().is_none());
        assert!(obs.report(Vec::new()).is_none());
        assert!(obs.into_root().is_none());
    }

    #[test]
    fn span_tree_shape() {
        let root = sample_collector().into_root().unwrap();
        assert_eq!(root.name, ROOT_SPAN);
        assert_eq!(root.span_count(), 5);
        assert_eq!(root.depth(), 3);
        let sweep = &root.children[0];
        assert_eq!(sweep.name, "tau_sweep");
        assert_eq!(sweep.gauges["peak_live"], 7);
        assert_eq!(sweep.children.len(), 3);
        assert_eq!(sweep.children[1].counters["states"], 11);
        assert_eq!(root.counters["leaf_evals"], 42);
    }

    #[test]
    fn clones_share_one_tree() {
        let obs = Collector::recording();
        let alias = obs.clone();
        {
            let _g = obs.span("phase");
            alias.add("states", 5);
        }
        drop(alias);
        let root = obs.into_root().unwrap();
        assert_eq!(root.children[0].counters["states"], 5);
    }

    #[test]
    fn into_root_requires_sole_ownership() {
        let obs = Collector::recording();
        let alias = obs.clone();
        assert!(obs.into_root().is_none());
        assert!(alias.into_root().is_some());
    }

    #[test]
    fn dp_stats_mapping() {
        let obs = Collector::recording();
        let stats = DpStats {
            states: 3,
            leaf_evals: 5,
            probes: 7,
            peak_live: 11,
        };
        obs.record_dp_stats(&stats);
        obs.record_dp_stats(&stats);
        let root = obs.into_root().unwrap();
        assert_eq!(root.counters["states"], 6);
        assert_eq!(root.counters["probes"], 14);
        assert_eq!(root.gauges["peak_live"], 11, "gauge is a max, not a sum");
    }

    #[test]
    fn attach_preserves_order() {
        let obs = Collector::recording();
        // Simulated parallel sweep: children built out of order, attached
        // in ascending-τ order — the tree must reflect attach order.
        let subtrees: Vec<SpanNode> = (0..4)
            .map(|tau| {
                let child = Collector::recording();
                child.add("states", tau + 1);
                child.into_root().unwrap()
            })
            .collect();
        let _sweep = obs.span("tau_sweep");
        for (tau, mut sub) in subtrees.into_iter().enumerate() {
            sub.name = format!("tau_{tau}");
            obs.attach(sub);
        }
        drop(_sweep);
        let root = obs.into_root().unwrap();
        let names: Vec<&str> = root.children[0]
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, ["tau_0", "tau_1", "tau_2", "tau_3"]);
    }

    #[test]
    fn report_round_trip_and_determinism() {
        let build = || {
            sample_collector()
                .report(run_meta("oneplus", 8, "abs"))
                .unwrap()
        };
        let (a, b) = (build(), build());
        // Byte-identity holds on the untimed form; with `timing` off the
        // untimed form IS the report.
        let text = a.strip_timing().render();
        assert_eq!(
            text,
            b.strip_timing().render(),
            "identical runs must serialize identically"
        );
        #[cfg(not(feature = "timing"))]
        assert_eq!(text, a.render(), "untimed report already is canonical");
        let parsed = Report::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, a.strip_timing());
        assert_eq!(parsed.render(), text, "round-trip is byte-stable");
        assert_eq!(a.totals()["states"], 33);
        assert_eq!(a.totals()["leaf_evals"], 42);
    }

    #[test]
    fn from_json_rejects_malformed() {
        let bad = |s: &str| Report::from_json(&Value::parse(s).unwrap()).unwrap_err();
        assert!(bad("{}").contains("schema"));
        assert!(bad(r#"{"schema":"other/9"}"#).contains("unsupported"));
        assert!(
            bad(r#"{"schema":"wsyn-run-report/1","meta":{}}"#).contains("span_tree"),
            "missing tree must be reported"
        );
        assert!(bad(
            r#"{"schema":"wsyn-run-report/1","meta":{},"span_tree":{"name":"run","counters":{"x":"y"}}}"#
        )
        .contains("non-numeric"));
    }

    #[cfg(not(feature = "timing"))]
    #[test]
    fn untimed_reports_carry_no_elapsed_fields() {
        let report = sample_collector().report(Vec::new()).unwrap();
        assert_eq!(report.strip_timing(), report);
        assert!(!report.render().contains("elapsed_ns"));
    }

    #[cfg(feature = "timing")]
    #[test]
    fn timed_spans_strip_back_to_untimed() {
        let report = sample_collector().report(Vec::new()).unwrap();
        // Guarded spans carry elapsed time (the implicit root is never
        // exited, so look at its first child).
        assert!(report.root.children[0].elapsed_ns.is_some());
        let stripped = report.strip_timing();
        assert!(!stripped.render().contains("elapsed_ns"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random open/close scripts: guards keep the tree balanced —
        /// every entered span is closed, span counts match the script,
        /// and the recorded depth never exceeds the script's live
        /// nesting.
        #[test]
        fn guards_balance_under_random_nesting(
            script in proptest::collection::vec(0usize..3, 1..40)
        ) {
            let obs = Collector::recording();
            let mut guards = Vec::new();
            let mut entered = 0usize;
            let mut max_live = 0usize;
            for op in script {
                match op {
                    // enter a child span
                    0 | 1 => {
                        guards.push(obs.span("step"));
                        entered += 1;
                        max_live = max_live.max(guards.len());
                    }
                    // close the innermost span
                    _ => {
                        guards.pop();
                    }
                }
            }
            drop(guards);
            let root = obs.clone().into_root();
            prop_assert!(root.is_none(), "clone still alive");
            drop(root);
            let root = obs.into_root().expect("sole handle");
            prop_assert_eq!(root.span_count(), entered + 1);
            prop_assert!(root.depth() <= max_live + 1);
        }
    }
}
