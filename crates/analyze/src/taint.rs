//! Determinism taint analysis: no flow from nondeterministic sources
//! into solver results or observability reports.
//!
//! The dynamic layers (conformance harness, parallel-identity family)
//! prove runs *were* deterministic; this pass is the static twin — it
//! flags code that could make a future run depend on anything but its
//! inputs. The lattice is a five-element label set ([`SourceKind`]):
//!
//! * **wall-clock** — `Instant::now`, `SystemTime::now`, `.elapsed()`;
//! * **env-read** — `std::env::{var, var_os, vars}`;
//! * **thread-id** — `std::thread::current`;
//! * **ptr-addr** — integer casts of raw pointers (address-dependent
//!   values, ASLR-nondeterministic);
//! * **hash-order** — `HashMap`/`HashSet`/`RandomState` values
//!   (per-process-seeded iteration order).
//!
//! Analysis shape: **intraprocedural with call summaries.** Each
//! function body is evaluated once per fixpoint round under union
//! semantics (locals map to label sets; every expression's taint is the
//! union of its parts; call results union the callee summaries from the
//! previous round). The fixpoint is monotone over a finite lattice, so
//! it terminates. Findings:
//!
//! * a solver-crate function whose *return value* carries a label
//!   ([`crate::rules::Rule::TaintFlow`]), and
//! * a labelled argument reaching a `wsyn-obs` report method
//!   (`add`, `gauge_max`, `record_dp_stats`, `attach`, `exit`,
//!   `gauge`).
//!
//! The deliberate nondeterminism sites — the pool's thread-count policy
//! reading [`WSYN_POOL_THREADS`](https://docs.rs/wsyn-core), the
//! `timing`-feature clock in `wsyn-obs` — are declared in
//! [`TAINT_ALLOWLIST`], one entry per (file, function, source kind).
//! The negative test in this module deletes each entry in turn and
//! asserts the workspace scan then reports a finding: the allowlist is
//! the proof the analysis is live, not a hole it can't see through.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, FnNode};
use crate::parse::{Block, Expr, ExprKind, File, Stmt};
use crate::rules::{Diagnostic, Rule};

/// A nondeterminism source class (one lattice label).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SourceKind {
    /// Monotonic or wall clocks.
    WallClock,
    /// Process environment reads.
    EnvRead,
    /// Thread identity.
    ThreadId,
    /// Pointer-to-integer casts.
    PtrAddr,
    /// Randomized hash iteration order.
    HashOrder,
}

/// All source kinds, in display order.
pub const ALL_SOURCE_KINDS: [SourceKind; 5] = [
    SourceKind::WallClock,
    SourceKind::EnvRead,
    SourceKind::ThreadId,
    SourceKind::PtrAddr,
    SourceKind::HashOrder,
];

impl SourceKind {
    fn bit(self) -> u8 {
        match self {
            SourceKind::WallClock => 1,
            SourceKind::EnvRead => 1 << 1,
            SourceKind::ThreadId => 1 << 2,
            SourceKind::PtrAddr => 1 << 3,
            SourceKind::HashOrder => 1 << 4,
        }
    }

    /// Human-readable label used in diagnostics.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            SourceKind::WallClock => "wall-clock time",
            SourceKind::EnvRead => "an environment read",
            SourceKind::ThreadId => "a thread id",
            SourceKind::PtrAddr => "a pointer address",
            SourceKind::HashOrder => "hash iteration order",
        }
    }
}

/// A label set — the lattice element carried by every expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Taint {
    bits: u8,
}

impl Taint {
    /// The bottom element: no labels.
    #[must_use]
    pub fn clean() -> Taint {
        Taint { bits: 0 }
    }

    /// The singleton set for one source kind.
    #[must_use]
    pub fn of(kind: SourceKind) -> Taint {
        Taint { bits: kind.bit() }
    }

    /// Set union (the lattice join).
    #[must_use]
    pub fn union(self, other: Taint) -> Taint {
        Taint {
            bits: self.bits | other.bits,
        }
    }

    /// Set difference (used for allowlist suppression).
    #[must_use]
    pub fn minus(self, other: Taint) -> Taint {
        Taint {
            bits: self.bits & !other.bits,
        }
    }

    /// Whether no label is present.
    #[must_use]
    pub fn is_clean(self) -> bool {
        self.bits == 0
    }

    /// The labels present, in display order.
    #[must_use]
    pub fn kinds(self) -> Vec<SourceKind> {
        ALL_SOURCE_KINDS
            .into_iter()
            .filter(|k| self.bits & k.bit() != 0)
            .collect()
    }

    fn describe(self) -> String {
        let parts: Vec<&str> = self.kinds().into_iter().map(SourceKind::describe).collect();
        parts.join(" and ")
    }
}

/// One sanctioned nondeterminism site: sources of `kind` inside
/// function `func` of `file` generate no taint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllowEntry {
    /// Workspace-relative path of the file.
    pub file: &'static str,
    /// Function name (bare, as parsed).
    pub func: &'static str,
    /// The source kind sanctioned at this site.
    pub kind: SourceKind,
    /// Why the site is sound — shown by `wsyn-analyze list-rules` and
    /// audited in DESIGN.md §13.
    pub why: &'static str,
}

/// The sanctioned sources in this workspace. Every entry is load-
/// bearing: the `allowlist_entries_are_load_bearing` test deletes each
/// one and asserts the workspace scan then produces a finding.
pub const TAINT_ALLOWLIST: &[AllowEntry] = &[
    AllowEntry {
        file: "crates/core/src/pool.rs",
        func: "configured_threads",
        kind: SourceKind::EnvRead,
        why: "WSYN_POOL_THREADS picks the thread count only; Pool::map_indexed \
              output is thread-count-invariant (conformance parallel-identity family)",
    },
    AllowEntry {
        file: "crates/obs/src/lib.rs",
        func: "span",
        kind: SourceKind::WallClock,
        why: "timing-feature clock capture; elapsed_ns is quarantined behind the \
              off-by-default `timing` feature and stripped from canonical reports",
    },
    AllowEntry {
        file: "crates/obs/src/lib.rs",
        func: "drop",
        kind: SourceKind::WallClock,
        why: "SpanGuard::drop reads the timing-feature clock; same quarantine as \
              Collector::span",
    },
];

/// Crates whose solver paths and report fields are taint sinks (and in
/// which sources are scanned). `stream` carries solver guarantees but
/// sits outside the token-rule `SOLVER_CRATES` set; for dataflow it is
/// in scope.
pub const TAINT_CRATES: &[&str] = &[
    "core", "synopsis", "haar", "prob", "conform", "obs", "stream",
];

/// `wsyn-obs` report-mutating methods: a labelled argument reaching one
/// of these is a nondeterministic report field.
pub const OBS_SINK_METHODS: &[&str] = &[
    "add",
    "gauge_max",
    "record_dp_stats",
    "attach",
    "exit",
    "gauge",
];

/// Whether `rel_path` is inside a taint-scoped crate's non-test code.
#[must_use]
pub fn in_taint_scope(rel_path: &str) -> bool {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"))
    {
        return false;
    }
    matches!(parts.as_slice(), ["crates", name, ..] if TAINT_CRATES.contains(name))
}

/// Integer target types for the pointer-cast source.
const INT_TYPES: &[&str] = &[
    "usize", "u64", "u32", "u16", "u8", "isize", "i64", "i32", "i16", "i8",
];

fn is_int_type(ty: &str) -> bool {
    INT_TYPES.contains(&ty.split("::").last().unwrap_or(ty))
}

/// Whether an expression tree plausibly produces a raw pointer.
fn mentions_ptr(e: &Expr) -> bool {
    let mut found = false;
    crate::parse::visit_expr(e, &mut |x| match &x.kind {
        ExprKind::MethodCall { name, .. } if matches!(name.as_str(), "as_ptr" | "as_mut_ptr") => {
            found = true;
        }
        ExprKind::Cast { ty, .. } if ty.contains("const") || ty.contains("mut") => {
            found = true;
        }
        ExprKind::Path(segs) if segs.iter().any(|s| s == "ptr") => found = true,
        _ => {}
    });
    found
}

/// Source labels produced by a plain call to `segs`.
fn path_call_source(segs: &[String]) -> Taint {
    let Some(last) = segs.last() else {
        return Taint::clean();
    };
    let has = |name: &str| segs.iter().any(|s| s == name);
    match last.as_str() {
        "now" if has("Instant") || has("SystemTime") => Taint::of(SourceKind::WallClock),
        "var" | "var_os" | "vars" if has("env") => Taint::of(SourceKind::EnvRead),
        "current" if has("thread") => Taint::of(SourceKind::ThreadId),
        _ => Taint::clean(),
    }
}

/// Source labels produced by a method call named `name`.
fn method_source(name: &str) -> Taint {
    match name {
        "elapsed" | "duration_since" => Taint::of(SourceKind::WallClock),
        _ => Taint::clean(),
    }
}

/// Labels carried by a bare path (hash-order values).
fn path_source(segs: &[String]) -> Taint {
    if segs
        .iter()
        .any(|s| matches!(s.as_str(), "HashMap" | "HashSet" | "RandomState"))
    {
        Taint::of(SourceKind::HashOrder)
    } else {
        Taint::clean()
    }
}

/// A report-method call that received a labelled argument.
struct SinkHit {
    line: u32,
    method: String,
    taint: Taint,
}

/// One function-body evaluation pass.
struct Eval<'g, 'a> {
    graph: &'g CallGraph<'a>,
    summaries: &'g [Taint],
    /// Source kinds suppressed in this function (allowlist).
    suppress: Taint,
    /// Local bindings to label sets.
    env: BTreeMap<String, Taint>,
    /// Sink hits collected during the reporting pass.
    sinks: Vec<SinkHit>,
}

impl Eval<'_, '_> {
    fn block(&mut self, b: &Block) -> Taint {
        let mut acc = Taint::clean();
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let { names, init, .. } => {
                    let t = init.as_ref().map_or(Taint::clean(), |e| self.expr(e));
                    for name in names {
                        let merged = self.env.get(name).copied().unwrap_or_default().union(t);
                        self.env.insert(name.clone(), merged);
                    }
                }
                // Statement expressions union into the block value:
                // lenient parsing routes match arms and macro bodies
                // here, and union semantics point the sound direction.
                Stmt::Expr(e) => acc = acc.union(self.expr(e)),
                Stmt::Return(Some(e), _) => acc = acc.union(self.expr(e)),
                Stmt::Return(None, _) | Stmt::Item(_) => {}
            }
        }
        if let Some(tail) = &b.tail {
            acc = acc.union(self.expr(tail));
        }
        acc
    }

    fn expr(&mut self, e: &Expr) -> Taint {
        match &e.kind {
            ExprKind::Path(segs) => {
                let local = if segs.len() == 1 {
                    self.env.get(&segs[0]).copied().unwrap_or_default()
                } else {
                    Taint::clean()
                };
                local.union(path_source(segs).minus(self.suppress))
            }
            ExprKind::Call { callee, args } => {
                let mut t = self.expr(callee);
                for a in args {
                    t = t.union(self.expr(a));
                }
                if let ExprKind::Path(segs) = &callee.kind {
                    t = t.union(path_call_source(segs).minus(self.suppress));
                    for idx in self.graph.resolve(segs, false) {
                        t = t.union(self.summaries[idx]);
                    }
                }
                t
            }
            ExprKind::MethodCall { recv, name, args } => {
                let mut t = self.expr(recv);
                let mut arg_taint = Taint::clean();
                for a in args {
                    arg_taint = arg_taint.union(self.expr(a));
                }
                if OBS_SINK_METHODS.contains(&name.as_str()) && !arg_taint.is_clean() {
                    self.sinks.push(SinkHit {
                        line: e.line,
                        method: name.clone(),
                        taint: arg_taint,
                    });
                }
                t = t.union(arg_taint);
                t = t.union(method_source(name).minus(self.suppress));
                for idx in self.graph.resolve(std::slice::from_ref(name), true) {
                    t = t.union(self.summaries[idx]);
                }
                t
            }
            ExprKind::Closure { body, .. } => self.expr(body),
            ExprKind::Unsafe(b) | ExprKind::Block(b) => self.block(b),
            ExprKind::Cast { expr, ty } => {
                let t = self.expr(expr);
                if is_int_type(ty) && mentions_ptr(expr) {
                    t.union(Taint::of(SourceKind::PtrAddr).minus(self.suppress))
                } else {
                    t
                }
            }
            ExprKind::For { names, iter, body } => {
                let ti = self.expr(iter);
                for name in names {
                    let merged = self.env.get(name).copied().unwrap_or_default().union(ti);
                    self.env.insert(name.clone(), merged);
                }
                let tb = self.block(body);
                ti.union(tb)
            }
            ExprKind::Seq(children) => {
                let mut t = Taint::clean();
                for c in children {
                    t = t.union(self.expr(c));
                }
                t
            }
            ExprKind::Lit => Taint::clean(),
        }
    }
}

/// Source kinds the allowlist suppresses for function `f`.
fn suppress_for(f: &FnNode<'_>, allow: &[AllowEntry]) -> Taint {
    let mut t = Taint::clean();
    for entry in allow {
        if entry.file == f.file && entry.func == f.name {
            t = t.union(Taint::of(entry.kind));
        }
    }
    t
}

/// Evaluates one function body under the given summaries.
fn eval_fn(
    graph: &CallGraph<'_>,
    summaries: &[Taint],
    f: &FnNode<'_>,
    allow: &[AllowEntry],
) -> (Taint, Vec<SinkHit>) {
    let Some(body) = f.body else {
        return (Taint::clean(), Vec::new());
    };
    let mut eval = Eval {
        graph,
        summaries,
        suppress: suppress_for(f, allow),
        env: BTreeMap::new(),
        sinks: Vec::new(),
    };
    let ret = eval.block(body);
    (ret, eval.sinks)
}

/// Runs the workspace taint analysis with the default
/// [`TAINT_ALLOWLIST`].
#[must_use]
pub fn check(files: &[(String, File)], graph: &CallGraph<'_>) -> Vec<Diagnostic> {
    check_with_allowlist(files, graph, TAINT_ALLOWLIST)
}

/// [`check`] with an explicit allowlist (the negative test passes a
/// truncated one to prove each entry is load-bearing).
#[must_use]
pub fn check_with_allowlist(
    files: &[(String, File)],
    graph: &CallGraph<'_>,
    allow: &[AllowEntry],
) -> Vec<Diagnostic> {
    let _ = files; // scope decisions are path-based via the graph nodes
                   // Fixpoint over call summaries: monotone union over a finite
                   // lattice, so `5 kinds × fns` bounds the rounds; in practice it
                   // stabilizes in 2–3. Summaries are computed only for taint-scoped
                   // non-test functions: `cli` and `bench` use `HashMap` and the clock
                   // legitimately, and with name-based resolution a tainted
                   // out-of-scope `new`/`default` would otherwise poison every
                   // same-named definition in the workspace (solver code never calls
                   // into cli/bench, so nothing real is dropped).
    let mut summaries = vec![Taint::clean(); graph.fns.len()];
    loop {
        let mut changed = false;
        for (i, f) in graph.fns.iter().enumerate() {
            if f.in_test || !in_taint_scope(f.file) {
                continue;
            }
            let (ret, _) = eval_fn(graph, &summaries, f, allow);
            let merged = summaries[i].union(ret);
            if merged != summaries[i] {
                summaries[i] = merged;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Reporting pass: findings only inside taint-scoped non-test code.
    let mut out = Vec::new();
    for (i, f) in graph.fns.iter().enumerate() {
        if f.in_test || !in_taint_scope(f.file) {
            continue;
        }
        let (_, sinks) = eval_fn(graph, &summaries, f, allow);
        if f.returns_value && !summaries[i].is_clean() {
            out.push(Diagnostic {
                path: f.file.to_string(),
                line: f.line,
                rule: Rule::TaintFlow,
                message: format!(
                    "`fn {}` may return a value derived from {}; deterministic \
                     solver outputs must depend only on their inputs",
                    f.qual,
                    summaries[i].describe()
                ),
            });
        }
        for hit in sinks {
            out.push(Diagnostic {
                path: f.file.to_string(),
                line: hit.line,
                rule: Rule::TaintFlow,
                message: format!(
                    "argument to report method `.{}(…)` is derived from {}; \
                     run reports must be byte-identical across runs",
                    hit.method,
                    hit.taint.describe()
                ),
            });
        }
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, &a.message).cmp(&(b.path.as_str(), b.line, &b.message))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

    fn diags(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let parsed: Vec<(String, File)> = files
            .iter()
            .map(|(p, s)| ((*p).to_string(), parse_source(s)))
            .collect();
        let graph = CallGraph::build(&parsed);
        check_with_allowlist(&parsed, &graph, &[])
    }

    #[test]
    fn direct_source_to_return_is_flagged() {
        let d = diags(&[(
            "crates/core/src/lib.rs",
            "pub fn t() -> u64 { std::time::Instant::now().elapsed().as_nanos() as u64 }",
        )]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::TaintFlow);
        assert!(d[0].message.contains("wall-clock"), "{}", d[0].message);
    }

    #[test]
    fn flow_through_let_bindings() {
        let d = diags(&[(
            "crates/core/src/lib.rs",
            "pub fn t() -> usize {
                let raw = std::env::var(\"X\").ok();
                let n = raw.map(|s| s.len());
                n.unwrap_or(1)
            }",
        )]);
        assert_eq!(d.len(), 1);
        assert!(
            d[0].message.contains("environment read"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn flow_through_call_summaries() {
        // The source sits two calls away from the flagged return.
        let d = diags(&[(
            "crates/core/src/lib.rs",
            "fn source() -> usize { std::env::var(\"X\").map_or(1, |s| s.len()) }
             fn middle() -> usize { source() + 1 }
             pub fn outer() -> usize { middle() }",
        )]);
        let outer: Vec<_> = d.iter().filter(|d| d.message.contains("outer")).collect();
        assert_eq!(outer.len(), 1, "{d:?}");
    }

    #[test]
    fn flow_through_if_let_bindings() {
        let d = diags(&[(
            "crates/core/src/lib.rs",
            "pub fn t() -> usize {
                if let Ok(v) = std::env::var(\"X\") { v.len() } else { 0 }
            }",
        )]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message.contains("environment read"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn args_flow_through_unresolved_calls() {
        let d = diags(&[(
            "crates/core/src/lib.rs",
            "pub fn t() -> String { format!(\"{:?}\", std::thread::current()) }",
        )]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("thread id"), "{}", d[0].message);
    }

    #[test]
    fn ptr_casts_and_hash_paths_are_sources() {
        let d = diags(&[(
            "crates/core/src/lib.rs",
            "pub fn addr(v: &[u8]) -> usize { v.as_ptr() as usize }
             pub fn hashed() -> Vec<u32> { let m = HashMap::new(); m.into_keys().collect() }",
        )]);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("pointer address"));
        assert!(d[1].message.contains("hash iteration order"));
    }

    #[test]
    fn obs_sink_arguments_are_flagged() {
        let d = diags(&[(
            "crates/synopsis/src/lib.rs",
            "pub fn record(obs: &Collector) {
                let t = std::time::Instant::now();
                obs.add(\"states\", t.elapsed().as_nanos() as usize);
            }",
        )]);
        // One sink finding; `record` has no `->` so no return finding.
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains(".add"), "{}", d[0].message);
    }

    #[test]
    fn clean_functions_and_unit_returns_are_silent() {
        let d = diags(&[(
            "crates/core/src/lib.rs",
            "pub fn pure(a: u32, b: u32) -> u32 { a.max(b) }
             pub fn effect() { let _t = std::time::Instant::now(); }",
        )]);
        // `effect` taints nothing it returns (no `->`) and feeds no
        // sink, so only silence — the wall-clock *token* rule guards
        // the bare read.
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn out_of_scope_crates_and_tests_are_exempt() {
        let source = "pub fn t() -> usize { std::env::var(\"X\").map_or(1, |s| s.len()) }";
        assert!(diags(&[("crates/cli/src/main.rs", source)]).is_empty());
        assert!(diags(&[("crates/bench/src/lib.rs", source)]).is_empty());
        assert!(diags(&[("crates/core/tests/t.rs", source)]).is_empty());
        let test_fn =
            "#[cfg(test)] mod tests { pub fn t() -> usize { std::env::var(\"X\").map_or(1, |s| s.len()) } }";
        assert!(diags(&[("crates/core/src/lib.rs", test_fn)]).is_empty());
    }

    #[test]
    fn allowlist_suppresses_the_declared_site_only() {
        let files = [(
            "crates/core/src/pool.rs",
            "pub fn configured_threads() -> usize {
                    let var = std::env::var(\"WSYN_POOL_THREADS\").ok();
                    var.map_or(1, |s| s.len())
                }
                pub fn rogue() -> usize {
                    std::env::var(\"OTHER\").map_or(1, |s| s.len())
                }",
        )];
        let parsed: Vec<(String, File)> = files
            .iter()
            .map(|(p, s)| ((*p).to_string(), parse_source(s)))
            .collect();
        let graph = CallGraph::build(&parsed);
        let d = check_with_allowlist(&parsed, &graph, TAINT_ALLOWLIST);
        // `configured_threads` is sanctioned; `rogue` is not.
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("rogue"), "{}", d[0].message);
    }

    #[test]
    fn taint_scope_classification() {
        assert!(in_taint_scope("crates/core/src/pool.rs"));
        assert!(in_taint_scope("crates/stream/src/lib.rs"));
        assert!(in_taint_scope("crates/obs/src/lib.rs"));
        assert!(!in_taint_scope("crates/cli/src/main.rs"));
        assert!(!in_taint_scope("crates/core/benches/b.rs"));
        assert!(!in_taint_scope("crates/core/tests/t.rs"));
        assert!(!in_taint_scope("vendor/rand/src/lib.rs"));
        assert!(!in_taint_scope("src/lib.rs"));
    }

    #[test]
    fn allowlist_entries_have_reasons() {
        for entry in TAINT_ALLOWLIST {
            assert!(
                entry.why.len() > 20,
                "allowlist entry {}::{} needs a substantive justification",
                entry.file,
                entry.func
            );
        }
    }
}
