//! The determinism-and-robustness rules and the per-file engine.
//!
//! Every rule guards an invariant the paper's *deterministic* error
//! guarantees rest on (DESIGN.md §4, README "Determinism invariants"):
//!
//! | id | guard |
//! |----|-------|
//! | `float-eq` | no `==`/`!=` against float literals in solver crates — ties must be broken by explicit ordering or `wsyn_core::{is_zero, total_eq}` |
//! | `hash-collections` | no `HashMap`/`HashSet` (randomized `RandomState` iteration order) in solver crates — use `StateTable` or `BTreeMap`/`BTreeSet` |
//! | `wall-clock` | no `Instant::now`/`SystemTime`/entropy-seeded RNG outside `bench`/`cli` |
//! | `no-panic` | no `.unwrap()`/`.expect(…)`/`panic!` in library non-test code — propagate `Result` |
//! | `lossy-cast` | no narrowing `as` casts in solver-crate DP state packing / index arithmetic — use `try_into` or `wsyn_core::narrow_u32` |
//! | `safety-comment` | every `unsafe` must carry a `// SAFETY:` comment (vendor exempt) |
//! | `taint-flow` | no dataflow from a nondeterministic source into a solver return value or obs report field ([`crate::taint`]) |
//! | `thread-policy` | only `core/src/pool.rs` may call `configured_threads`/`host_parallelism` |
//! | `pool-capture` | closures handed to `Pool::map_indexed`/`thread::scope` must not capture `Rc`/`RefCell`/`Cell` |
//! | `atomic-ordering` | every atomic op names its `Ordering` and justifies it with `// ORDERING:` |
//! | `mutex-poison` | solver-crate `Mutex` locks use `.lock().unwrap_or_else(PoisonError::into_inner)` |
//! | `unsafe-caller` | calls to unambiguously-`unsafe` fns need their own `// SAFETY:` comment |
//! | `threshold-surface` | solver crates must not define `threshold_*` fns outside the `Thresholder` trait surface — new knobs ride on `RunParams` |
//!
//! The first six are token rules from PR 2; the rest ride the PR 7
//! parse tree ([`crate::parse`]) and call graph ([`crate::callgraph`]).
//!
//! A violation that is *intended* — a documented invariant, a wrapping
//! truncation inside a hash — is silenced in place with
//! `// wsyn: allow(<rule>)` on the offending line or the line above.
//! The comment is the audit trail: the justification lives next to it.
//!
//! Scoping decisions (computed by [`Scope::classify`]):
//!
//! * Solver crates are `core`, `synopsis` (home of `MinMaxErr` and the
//!   multi-dimensional schemes), `haar`, `prob`, and `conform` (the
//!   conformance harness certifies solver determinism, so it is held to
//!   the same determinism bar — in scope, not exempt).
//! * `#[cfg(test)]` modules, `#[test]` functions, and `tests/` /
//!   `benches/` / `examples/` trees are exempt from `float-eq`,
//!   `hash-collections`, `no-panic`, and `lossy-cast`: exact float
//!   assertions and `unwrap` are the *point* of tests. `wall-clock` and
//!   `safety-comment` apply everywhere in scope — a flaky clock in a
//!   test is still nondeterminism.
//! * `vendor/` (in-tree dependency stand-ins) is exempt from all rules.

use crate::lexer::{lex, Token, TokenKind};
use crate::parse::{self, Block, Expr, ExprKind, Stmt};

/// The thirteen rules, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: float `==`/`!=` in solver crates.
    FloatEq,
    /// R2: `HashMap`/`HashSet` with random state in solver crates.
    HashCollections,
    /// R3: wall-clock or entropy sources outside `bench`/`cli`.
    WallClock,
    /// R4: `unwrap`/`expect`/`panic!` in library non-test code.
    NoPanic,
    /// R5: narrowing `as` casts in solver crates.
    LossyCast,
    /// R6: `unsafe` without a `// SAFETY:` comment.
    SafetyComment,
    /// R7: nondeterministic dataflow into a solver return value or obs
    /// report field ([`crate::taint`]).
    TaintFlow,
    /// R8: `configured_threads`/`host_parallelism` called outside
    /// `core/src/pool.rs`.
    ThreadPolicy,
    /// R9: `Rc`/`RefCell`/`Cell` inside a closure handed to
    /// `Pool::map_indexed`/`thread::scope`.
    PoolCapture,
    /// R10: atomic op without a named `Ordering` or without a
    /// `// ORDERING:` justification.
    AtomicOrdering,
    /// R11: solver-crate `Mutex` lock without the poison-recovery idiom.
    MutexPoison,
    /// R12: call to an unambiguously-`unsafe` fn without its own
    /// `// SAFETY:` comment.
    UnsafeCaller,
    /// R13: solver-crate `fn threshold_*` defined outside the
    /// `Thresholder` trait surface.
    ThresholdSurface,
}

/// All rules, in reporting order.
pub const ALL_RULES: [Rule; 13] = [
    Rule::FloatEq,
    Rule::HashCollections,
    Rule::WallClock,
    Rule::NoPanic,
    Rule::LossyCast,
    Rule::SafetyComment,
    Rule::TaintFlow,
    Rule::ThreadPolicy,
    Rule::PoolCapture,
    Rule::AtomicOrdering,
    Rule::MutexPoison,
    Rule::UnsafeCaller,
    Rule::ThresholdSurface,
];

impl Rule {
    /// The kebab-case id used in diagnostics and allow comments.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::FloatEq => "float-eq",
            Rule::HashCollections => "hash-collections",
            Rule::WallClock => "wall-clock",
            Rule::NoPanic => "no-panic",
            Rule::LossyCast => "lossy-cast",
            Rule::SafetyComment => "safety-comment",
            Rule::TaintFlow => "taint-flow",
            Rule::ThreadPolicy => "thread-policy",
            Rule::PoolCapture => "pool-capture",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::MutexPoison => "mutex-poison",
            Rule::UnsafeCaller => "unsafe-caller",
            Rule::ThresholdSurface => "threshold-surface",
        }
    }

    /// Parses a rule id (as written in an allow comment).
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == id)
    }

    /// One-line description shown by `wsyn-analyze list-rules`.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Rule::FloatEq => {
                "float == / != against a float literal in a solver crate; \
                 use explicit ordering, wsyn_core::is_zero, or wsyn_core::total_eq"
            }
            Rule::HashCollections => {
                "HashMap/HashSet iteration order is randomized per process; \
                 use wsyn_core::StateTable or BTreeMap/BTreeSet in solver crates"
            }
            Rule::WallClock => {
                "Instant/SystemTime/entropy-seeded randomness outside bench/cli \
                 makes solver behaviour time-dependent"
            }
            Rule::NoPanic => {
                ".unwrap()/.expect()/panic! in library non-test code; \
                 propagate Result, or justify with // wsyn: allow(no-panic)"
            }
            Rule::LossyCast => {
                "narrowing `as` cast in solver-crate DP state packing or index \
                 arithmetic; use try_into or wsyn_core::narrow_u32"
            }
            Rule::SafetyComment => "unsafe without an adjacent // SAFETY: justification",
            Rule::TaintFlow => {
                "dataflow from a nondeterministic source (clock, env read, thread \
                 id, pointer address, hash order) into a solver return value or \
                 wsyn-obs report field; sanctioned sites live in \
                 taint::TAINT_ALLOWLIST"
            }
            Rule::ThreadPolicy => {
                "configured_threads/host_parallelism called outside \
                 core/src/pool.rs; thread-count policy has exactly one owner — \
                 everything else takes a &Pool"
            }
            Rule::PoolCapture => {
                "closure passed to Pool::map_indexed or thread::scope mentions \
                 Rc/RefCell/Cell; cross-thread state must be Sync"
            }
            Rule::AtomicOrdering => {
                "atomic op must name its memory Ordering explicitly and justify \
                 it with a // ORDERING: comment within 3 lines above"
            }
            Rule::MutexPoison => {
                "Mutex lock in a solver crate must recover from poisoning via \
                 .lock().unwrap_or_else(PoisonError::into_inner) — a panicked \
                 sibling thread must not wedge the solver"
            }
            Rule::UnsafeCaller => {
                "call to a workspace `unsafe fn` needs its own // SAFETY: comment \
                 within 3 lines above, even when the enclosing unsafe block is \
                 justified elsewhere"
            }
            Rule::ThresholdSurface => {
                "fn named threshold_* defined outside the Thresholder trait \
                 surface (threshold, threshold_with, threshold_with_reusing); \
                 new knobs ride on RunParams, not on new entry points"
            }
        }
    }

    /// Where the rule applies, shown by `wsyn-analyze list-rules`.
    /// `vendor/` is exempt from every rule.
    #[must_use]
    pub fn scope_note(self) -> &'static str {
        match self {
            Rule::FloatEq | Rule::HashCollections | Rule::LossyCast => {
                "solver crates (core, synopsis, haar, hist, prob, conform, obs, \
                 serve); test code exempt"
            }
            Rule::WallClock => "all crates except bench and cli; applies in test code",
            Rule::NoPanic => "all crates except bench; test code exempt",
            Rule::SafetyComment | Rule::PoolCapture | Rule::AtomicOrdering | Rule::UnsafeCaller => {
                "all crates; applies in test code"
            }
            Rule::TaintFlow => "non-test code of core, synopsis, haar, prob, conform, obs, stream",
            Rule::ThreadPolicy => {
                "all crates except the policy owner crates/core/src/pool.rs; \
                 applies in test code"
            }
            Rule::MutexPoison => "solver crates; test code exempt",
            Rule::ThresholdSurface => {
                "solver crates except the trait owner \
                 crates/synopsis/src/thresholder.rs; test code exempt"
            }
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Violated rule.
    pub rule: Rule,
    /// Human-readable detail (what was matched).
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Which rules apply to a file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope {
    /// `float-eq`, `hash-collections`, `lossy-cast` (solver crates).
    pub solver: bool,
    /// `wall-clock`.
    pub wall_clock: bool,
    /// `no-panic`.
    pub no_panic: bool,
    /// `safety-comment`.
    pub safety: bool,
    /// Whole file is test/bench/example code (path-derived).
    pub test_path: bool,
}

/// Crates whose solver paths carry the paper's deterministic guarantees.
/// (`MinMaxErr` and the multi-dimensional schemes live in `synopsis`;
/// `hist` holds the step-function DP whose objective is bit-certified
/// against an enumeration oracle; `obs` feeds deterministic run reports
/// from those same paths; `serve` answers queries byte-identically to
/// the library, so its store and shard code carry the same contract.)
pub const SOLVER_CRATES: &[&str] = &[
    "core", "synopsis", "haar", "hist", "prob", "conform", "obs", "serve",
];

impl Scope {
    /// A scope with nothing enabled (vendor, non-Rust trees).
    #[must_use]
    pub fn none() -> Scope {
        Scope {
            solver: false,
            wall_clock: false,
            no_panic: false,
            safety: false,
            test_path: false,
        }
    }

    /// Derives the scope from a workspace-relative path with `/`
    /// separators (e.g. `crates/synopsis/src/one_dim/dedup.rs`).
    #[must_use]
    pub fn classify(rel_path: &str) -> Scope {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let test_path = parts
            .iter()
            .any(|p| matches!(*p, "tests" | "benches" | "examples"));
        match parts.as_slice() {
            ["vendor", ..] => Scope::none(),
            ["crates", name, ..] => Scope {
                solver: SOLVER_CRATES.contains(name),
                // bench times things and cli may report durations; both
                // sit outside every guarantee-carrying path.
                wall_clock: !matches!(*name, "bench" | "cli"),
                no_panic: *name != "bench",
                safety: true,
                test_path,
            },
            // Root package: facade lib, integration tests, examples.
            _ => Scope {
                solver: false,
                wall_clock: !test_path,
                no_panic: true,
                safety: true,
                test_path,
            },
        }
    }
}

/// Idents that read the wall clock or process entropy (rule
/// `wall-clock`). `RandomState` is `std`'s per-process-seeded hasher.
const WALL_CLOCK_IDENTS: &[&str] = &[
    "Instant",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "RandomState",
];

/// Per-line allow-comment table.
pub(crate) struct Allows {
    /// `(line, rule)` pairs collected from `// wsyn: allow(...)`.
    entries: Vec<(u32, Rule)>,
}

impl Allows {
    /// Parses every comment token. Accepted forms, anywhere inside a
    /// line or block comment: `wsyn: allow(rule)` and
    /// `wsyn: allow(rule-a, rule-b)`. A multi-line block comment
    /// anchors at its *last* line.
    pub(crate) fn collect(tokens: &[Token<'_>]) -> Allows {
        let mut entries = Vec::new();
        for t in tokens {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let line = t.line + u32::try_from(t.text.matches('\n').count()).unwrap_or(0);
            let mut rest = t.text;
            while let Some(at) = rest.find("wsyn:") {
                rest = &rest[at + "wsyn:".len()..];
                let trimmed = rest.trim_start();
                let Some(arg) = trimmed.strip_prefix("allow(") else {
                    continue;
                };
                let Some(close) = arg.find(')') else { continue };
                for id in arg[..close].split(',') {
                    if let Some(rule) = Rule::from_id(id.trim()) {
                        entries.push((line, rule));
                    }
                }
            }
        }
        Allows { entries }
    }

    /// Whether a diagnostic for `rule` at `line` is suppressed: an allow
    /// comment matches its own line (trailing) or the next (preceding).
    pub(crate) fn covers(&self, line: u32, rule: Rule) -> bool {
        self.entries
            .iter()
            .any(|&(l, r)| r == rule && (l == line || l + 1 == line))
    }
}

/// Lines whose comments carry `marker` (`SAFETY:`, `ORDERING:`). A
/// multi-line block comment anchors at its last line.
pub(crate) fn marker_lines(tokens: &[Token<'_>], marker: &str) -> Vec<u32> {
    let mut out = Vec::new();
    for t in tokens {
        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
            && t.text.contains(marker)
        {
            let last = t.line + u32::try_from(t.text.matches('\n').count()).unwrap_or(0);
            out.push(last);
        }
    }
    out
}

/// Whether any line in `lines` sits on `line` or within 3 lines above.
pub(crate) fn justified_near(lines: &[u32], line: u32) -> bool {
    lines
        .iter()
        .any(|&l| l <= line && line.saturating_sub(l) <= 3)
}

/// Marks each code token as test code or not, by tracking `#[test]` /
/// `#[cfg(test)]`-attributed items and the brace extent of their bodies.
///
/// Token-level approximation: an attribute whose argument tokens contain
/// the bare ident `test` marks the next brace-delimited item body as
/// test code. This covers `#[test]`, `#[cfg(test)]`, and
/// `#[cfg(all(test, …))]`; it does not understand `#[cfg(not(test))]`,
/// which the workspace does not use.
fn test_mask(code: &[Token<'_>]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut depth = 0i32;
    // Brace depths at which a test item's body ends, as a stack.
    let mut test_until: Vec<i32> = Vec::new();
    // Set when a test attribute was seen and its item body not yet begun.
    let mut pending = false;
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        let in_test = !test_until.is_empty();
        mask[i] = in_test;
        if t.kind == TokenKind::Punct {
            match t.text {
                "#" if code.get(i + 1).is_some_and(|n| n.text == "[") => {
                    // Scan the attribute for the bare ident `test`.
                    let mut j = i + 2;
                    let mut bracket = 1i32;
                    let mut has_test = false;
                    while j < code.len() && bracket > 0 {
                        match code[j].text {
                            "[" => bracket += 1,
                            "]" => bracket -= 1,
                            "test" if code[j].kind == TokenKind::Ident => has_test = true,
                            _ => {}
                        }
                        mask[j] = in_test;
                        j += 1;
                    }
                    mask[i + 1] = in_test;
                    if has_test {
                        pending = true;
                    }
                    i = j;
                    continue;
                }
                "{" => {
                    depth += 1;
                    if pending {
                        test_until.push(depth);
                        pending = false;
                        mask[i] = true;
                    }
                }
                "}" => {
                    if test_until.last() == Some(&depth) {
                        test_until.pop();
                        mask[i] = true;
                    }
                    depth -= 1;
                }
                // `#[cfg(test)] use …;` or `mod tests;` — no body.
                ";" if pending && depth == test_until.last().copied().unwrap_or(0) => {
                    pending = false;
                }
                _ => {}
            }
        }
        i += 1;
    }
    mask
}

/// Runs every applicable rule over one file.
///
/// `rel_path` must be workspace-relative with `/` separators — it picks
/// the [`Scope`] and is echoed into diagnostics.
#[must_use]
pub fn check_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let scope = Scope::classify(rel_path);
    check_source_scoped(rel_path, src, scope)
}

/// [`check_source`] with an explicit scope (used by tests to aim rules
/// at synthetic snippets without fabricating paths).
#[must_use]
pub fn check_source_scoped(rel_path: &str, src: &str, scope: Scope) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if scope == Scope::none() {
        return out;
    }
    let tokens = lex(src);
    let allows = Allows::collect(&tokens);
    let safety = marker_lines(&tokens, "SAFETY:");
    let code: Vec<Token<'_>> = tokens
        .iter()
        .copied()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let in_test = test_mask(&code);

    let mut push = |line: u32, rule: Rule, message: String| {
        if !allows.covers(line, rule) {
            out.push(Diagnostic {
                path: rel_path.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    for (i, t) in code.iter().enumerate() {
        let exempt_test = scope.test_path || in_test[i];
        match t.kind {
            TokenKind::Punct if matches!(t.text, "==" | "!=") && scope.solver && !exempt_test => {
                let prev_float = i > 0 && code[i - 1].kind == TokenKind::Float;
                let next_float = code.get(i + 1).map(|n| n.kind) == Some(TokenKind::Float)
                    || (code.get(i + 1).map(|n| n.text) == Some("-")
                        && code.get(i + 2).map(|n| n.kind) == Some(TokenKind::Float));
                if prev_float || next_float {
                    push(
                        t.line,
                        Rule::FloatEq,
                        format!(
                            "float `{}` against a literal; use explicit ordering or \
                             wsyn_core::{{is_zero, total_eq}}",
                            t.text
                        ),
                    );
                }
            }
            TokenKind::Ident => match t.text {
                "HashMap" | "HashSet" if scope.solver && !exempt_test => {
                    push(
                        t.line,
                        Rule::HashCollections,
                        format!(
                            "`{}` has per-process-randomized iteration order; use \
                             wsyn_core::StateTable or an ordered map",
                            t.text
                        ),
                    );
                }
                name if scope.wall_clock && WALL_CLOCK_IDENTS.contains(&name) => {
                    push(
                        t.line,
                        Rule::WallClock,
                        format!("`{name}` is a wall-clock/entropy source outside bench/cli"),
                    );
                }
                "unwrap" | "expect"
                    if scope.no_panic
                        && !exempt_test
                        && i > 0
                        && code[i - 1].text == "."
                        && code.get(i + 1).map(|n| n.text) == Some("(") =>
                {
                    push(
                        t.line,
                        Rule::NoPanic,
                        format!(".{}() in library non-test code; propagate Result", t.text),
                    );
                }
                "panic"
                    if scope.no_panic
                        && !exempt_test
                        && code.get(i + 1).map(|n| n.text) == Some("!") =>
                {
                    push(
                        t.line,
                        Rule::NoPanic,
                        "panic! in library non-test code; return an error".to_string(),
                    );
                }
                "as" if scope.solver && !exempt_test => {
                    if let Some(next) = code.get(i + 1) {
                        if matches!(next.text, "u8" | "u16" | "u32" | "i8" | "i16" | "i32") {
                            push(
                                t.line,
                                Rule::LossyCast,
                                format!(
                                    "narrowing `as {}`; use try_into or wsyn_core::narrow_u32",
                                    next.text
                                ),
                            );
                        }
                    }
                }
                "unsafe" if scope.safety && !justified_near(&safety, t.line) => {
                    push(
                        t.line,
                        Rule::SafetyComment,
                        "unsafe without a // SAFETY: comment within 3 lines above".to_string(),
                    );
                }
                _ => {}
            },
            _ => {}
        }
    }
    out.sort_by_key(|a| (a.line, a.rule));
    out
}

/// The file that owns thread-count policy: the single module allowed to
/// call `configured_threads` / `host_parallelism` (rule `thread-policy`).
pub const THREAD_POLICY_OWNER: &str = "crates/core/src/pool.rs";

/// Thread-count policy entry points (rule `thread-policy`).
const THREAD_POLICY_FNS: &[&str] = &["configured_threads", "host_parallelism"];

/// The file that owns the thresholding surface: the single module
/// allowed to declare `threshold_*` entry points (rule
/// `threshold-surface`). Everything else implements `threshold_with`
/// and friends, or picks a new name.
pub const THRESHOLD_SURFACE_OWNER: &str = "crates/synopsis/src/thresholder.rs";

/// The sanctioned `threshold_*` names — the `Thresholder` trait surface
/// (rule `threshold-surface`).
const THRESHOLD_SURFACE_FNS: &[&str] = &["threshold", "threshold_with", "threshold_with_reusing"];

/// Atomic RMW methods whose names are unambiguous: a call without a
/// visible `Ordering` argument is a missing ordering.
const ATOMIC_RMW_OPS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Atomic methods whose names collide with ordinary APIs (`Vec::swap`,
/// arbitrary `load`/`store`): treated as atomic only when an `Ordering`
/// argument is visible.
const ATOMIC_AMBIGUOUS_OPS: &[&str] = &["load", "store", "swap"];

/// The `std::sync::atomic::Ordering` variants.
const ORDERING_NAMES: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Shared-but-not-`Sync` types that must not cross into pool closures.
const NON_SYNC_TYPES: &[&str] = &["Rc", "RefCell", "Cell"];

/// Whether an expression mentions an `Ordering` variant or path.
fn has_ordering(e: &Expr) -> bool {
    let mut found = false;
    parse::visit_expr(e, &mut |x| {
        if let ExprKind::Path(segs) = &x.kind {
            if segs.iter().any(|s| s == "Ordering")
                || segs
                    .last()
                    .is_some_and(|s| ORDERING_NAMES.contains(&s.as_str()))
            {
                found = true;
            }
        }
    });
    found
}

/// Whether an expression mentions `PoisonError::into_inner` (the
/// recovery closure of the poison idiom).
fn mentions_into_inner(e: &Expr) -> bool {
    let mut found = false;
    parse::visit_expr(e, &mut |x| match &x.kind {
        ExprKind::Path(segs) if segs.iter().any(|s| s == "into_inner") => found = true,
        ExprKind::MethodCall { name, .. } if name == "into_inner" => found = true,
        _ => {}
    });
    found
}

/// Flags `.lock()` calls not wrapped in the poison-recovery idiom.
/// Custom recursion: a compliant `recv.lock().unwrap_or_else(…into_inner)`
/// chain is descended *past* so the inner `lock` is not re-flagged.
fn mutex_walk(e: &Expr, flag: &mut impl FnMut(u32)) {
    match &e.kind {
        ExprKind::MethodCall { recv, name, args } if name == "unwrap_or_else" => {
            if let ExprKind::MethodCall {
                recv: lock_recv,
                name: lock_name,
                args: lock_args,
            } = &recv.kind
            {
                if lock_name == "lock" && args.iter().any(mentions_into_inner) {
                    mutex_walk(lock_recv, flag);
                    for a in lock_args {
                        mutex_walk(a, flag);
                    }
                    for a in args {
                        mutex_walk(a, flag);
                    }
                    return;
                }
            }
            mutex_walk(recv, flag);
            for a in args {
                mutex_walk(a, flag);
            }
        }
        ExprKind::MethodCall { recv, name, args } => {
            if name == "lock" {
                flag(e.line);
            }
            mutex_walk(recv, flag);
            for a in args {
                mutex_walk(a, flag);
            }
        }
        ExprKind::Call { callee, args } => {
            mutex_walk(callee, flag);
            for a in args {
                mutex_walk(a, flag);
            }
        }
        ExprKind::Closure { body, .. } => mutex_walk(body, flag),
        ExprKind::Unsafe(b) | ExprKind::Block(b) => mutex_block(b, flag),
        ExprKind::Cast { expr, .. } => mutex_walk(expr, flag),
        ExprKind::For { iter, body, .. } => {
            mutex_walk(iter, flag);
            mutex_block(body, flag);
        }
        ExprKind::Seq(children) => {
            for c in children {
                mutex_walk(c, flag);
            }
        }
        ExprKind::Path(_) | ExprKind::Lit => {}
    }
}

fn mutex_block(b: &Block, flag: &mut impl FnMut(u32)) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let { init: Some(e), .. } | Stmt::Expr(e) | Stmt::Return(Some(e), _) => {
                mutex_walk(e, flag);
            }
            Stmt::Let { init: None, .. } | Stmt::Return(None, _) | Stmt::Item(_) => {}
        }
    }
    if let Some(tail) = &b.tail {
        mutex_walk(tail, flag);
    }
}

/// Runs the per-file AST rules (`thread-policy`, `pool-capture`,
/// `atomic-ordering`, `mutex-poison`, `threshold-surface`) over one
/// file.
///
/// `taint-flow` and `unsafe-caller` need the whole workspace and run in
/// [`crate::engine`]; this covers everything decidable from a single
/// parse tree.
#[must_use]
pub fn check_ast(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let scope = Scope::classify(rel_path);
    if scope == Scope::none() {
        return Vec::new();
    }
    let tokens = lex(src);
    let allows = Allows::collect(&tokens);
    let ordering = marker_lines(&tokens, "ORDERING:");
    let file = parse::parse_tokens(&tokens);

    let mut out: Vec<Diagnostic> = Vec::new();
    let mut push = |line: u32, rule: Rule, message: String| {
        if !allows.covers(line, rule) {
            out.push(Diagnostic {
                path: rel_path.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    let is_policy_owner = rel_path == THREAD_POLICY_OWNER;
    let is_surface_owner = rel_path == THRESHOLD_SURFACE_OWNER;
    parse::for_each_fn(&file, |f, _self_ty, in_test| {
        let exempt_test = scope.test_path || in_test;

        // `threshold-surface`: the trait surface is closed — solver
        // crates must not grow ad-hoc `threshold_*` entry points. The
        // name check runs even for bodiless trait signatures.
        if scope.solver
            && !is_surface_owner
            && !exempt_test
            && (f.name == "threshold" || f.name.starts_with("threshold_"))
            && !THRESHOLD_SURFACE_FNS.contains(&f.name.as_str())
        {
            push(
                f.line,
                Rule::ThresholdSurface,
                format!(
                    "`fn {}` adds a threshold_* entry point outside the \
                     Thresholder trait; route new knobs through RunParams \
                     on threshold_with",
                    f.name
                ),
            );
        }

        let Some(body) = &f.body else { return };

        parse::for_each_expr(body, &mut |e| {
            // `thread-policy` and `pool-capture` target: plain calls
            // carry a path, method calls a name.
            let (call_name, closure_args): (Option<&str>, &[Expr]) = match &e.kind {
                ExprKind::Call { callee, args } => match &callee.kind {
                    ExprKind::Path(segs) => {
                        let last = segs.last().map(String::as_str);
                        // `thread::scope` only; a bare `scope(…)` call is
                        // something else.
                        let pool_entry =
                            last == Some("scope") && segs.iter().any(|s| s == "thread");
                        (last, if pool_entry { args } else { &[] })
                    }
                    _ => (None, &[]),
                },
                ExprKind::MethodCall { name, args, .. } => (
                    Some(name.as_str()),
                    if name == "map_indexed" { args } else { &[] },
                ),
                _ => (None, &[]),
            };

            if let Some(name) = call_name {
                if !is_policy_owner && THREAD_POLICY_FNS.contains(&name) {
                    push(
                        e.line,
                        Rule::ThreadPolicy,
                        format!(
                            "`{name}` called outside {THREAD_POLICY_OWNER}; take a \
                             &Pool instead — thread-count policy has one owner"
                        ),
                    );
                }
            }

            for arg in closure_args {
                if let ExprKind::Closure { body, .. } = &arg.kind {
                    parse::visit_expr(body, &mut |x| {
                        if let ExprKind::Path(segs) = &x.kind {
                            if let Some(bad) =
                                segs.iter().find(|s| NON_SYNC_TYPES.contains(&s.as_str()))
                            {
                                push(
                                    x.line,
                                    Rule::PoolCapture,
                                    format!(
                                        "`{bad}` inside a closure handed to the \
                                         thread pool; cross-thread state must be Sync"
                                    ),
                                );
                            }
                        }
                    });
                }
            }

            // `atomic-ordering`.
            if let ExprKind::MethodCall { name, args, .. } = &e.kind {
                let ordered = args.iter().any(has_ordering);
                let is_atomic = if ATOMIC_RMW_OPS.contains(&name.as_str()) {
                    true
                } else {
                    ATOMIC_AMBIGUOUS_OPS.contains(&name.as_str()) && ordered
                };
                if is_atomic {
                    if !ordered {
                        push(
                            e.line,
                            Rule::AtomicOrdering,
                            format!("atomic `.{name}(…)` without an explicit Ordering"),
                        );
                    } else if !justified_near(&ordering, e.line) {
                        push(
                            e.line,
                            Rule::AtomicOrdering,
                            format!(
                                "atomic `.{name}(…)` needs a // ORDERING: comment \
                                 within 3 lines above justifying the memory ordering"
                            ),
                        );
                    }
                }
            }
        });

        // `mutex-poison`: solver library code only — tests may use
        // plain locks (no-panic already exempts them).
        if scope.solver && !exempt_test {
            mutex_block(body, &mut |line| {
                push(
                    line,
                    Rule::MutexPoison,
                    "`.lock()` without poison recovery; use \
                     .lock().unwrap_or_else(PoisonError::into_inner)"
                        .to_string(),
                );
            });
        }
    });

    out.sort_by_key(|a| (a.line, a.rule));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scope with every rule armed and no path-level test exemption.
    fn all() -> Scope {
        Scope {
            solver: true,
            wall_clock: true,
            no_panic: true,
            safety: true,
            test_path: false,
        }
    }

    fn rules_of(src: &str) -> Vec<Rule> {
        check_source_scoped("crates/core/src/lib.rs", src, all())
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn float_eq_flags_literal_comparisons() {
        assert_eq!(
            rules_of("fn f(x: f64) -> bool { x == 0.0 }"),
            vec![Rule::FloatEq]
        );
        assert_eq!(
            rules_of("fn f(x: f64) -> bool { 1e-9 != x }"),
            vec![Rule::FloatEq]
        );
        assert_eq!(
            rules_of("fn f(x: f64) -> bool { x == -0.5 }"),
            vec![Rule::FloatEq]
        );
        // Integer comparisons and float ordering are fine.
        assert!(rules_of("fn f(x: u32) -> bool { x == 0 }").is_empty());
        assert!(rules_of("fn f(x: f64) -> bool { x < 0.0 }").is_empty());
    }

    #[test]
    fn float_eq_ignores_strings_comments_and_tests() {
        assert!(rules_of("// x == 0.0\nfn f() {}").is_empty());
        assert!(rules_of("fn f() -> &'static str { \"x == 0.0\" }").is_empty());
        assert!(rules_of("#[cfg(test)]\nmod t { fn g(x: f64) -> bool { x == 0.0 } }").is_empty());
        assert!(rules_of("#[test]\nfn t() { assert!(1.0 == 1.0); }").is_empty());
    }

    #[test]
    fn hash_collections_flagged_in_solver_scope_only() {
        let src = "use std::collections::HashMap;";
        assert_eq!(rules_of(src), vec![Rule::HashCollections]);
        assert!(check_source("crates/cli/src/args.rs", src).is_empty());
        assert!(check_source("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_scoping() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(rules_of(src), vec![Rule::WallClock]);
        assert!(check_source("crates/bench/src/lib.rs", src).is_empty());
        assert!(check_source("crates/cli/src/main.rs", src).is_empty());
        // Applies inside test code too: flaky clocks make flaky tests.
        assert_eq!(
            rules_of("#[test]\nfn t() { let t = Instant::now(); }"),
            vec![Rule::WallClock]
        );
    }

    #[test]
    fn no_panic_variants() {
        assert_eq!(rules_of("fn f() { x.unwrap(); }"), vec![Rule::NoPanic]);
        assert_eq!(rules_of("fn f() { x.expect(\"m\"); }"), vec![Rule::NoPanic]);
        assert_eq!(
            rules_of("fn f() { panic!(\"boom\"); }"),
            vec![Rule::NoPanic]
        );
        // Not confused by unwrap_or / expect-like names or field access.
        assert!(rules_of("fn f() { x.unwrap_or(0); }").is_empty());
        assert!(rules_of("fn f() { x.unwrap_or_else(g); }").is_empty());
        assert!(rules_of("fn f() { unwrap(); }").is_empty());
        // Test code may unwrap freely.
        assert!(rules_of("#[test]\nfn t() { x.unwrap(); }").is_empty());
        assert!(rules_of("#[cfg(test)]\nmod t {\n fn h() { x.unwrap(); }\n}").is_empty());
        // …but a sibling item after the test module is back in scope.
        assert_eq!(
            rules_of("#[cfg(test)]\nmod t { fn h() {} }\nfn f() { x.unwrap(); }"),
            vec![Rule::NoPanic]
        );
    }

    #[test]
    fn lossy_cast_targets_narrowing_only() {
        assert_eq!(
            rules_of("fn f(x: usize) -> u32 { x as u32 }"),
            vec![Rule::LossyCast]
        );
        assert_eq!(
            rules_of("fn f(x: u64) -> i16 { x as i16 }"),
            vec![Rule::LossyCast]
        );
        assert!(rules_of("fn f(x: u32) -> u64 { x as u64 }").is_empty());
        assert!(rules_of("fn f(x: u32) -> usize { x as usize }").is_empty());
        assert!(rules_of("fn f(x: u32) -> f64 { x as f64 }").is_empty());
    }

    #[test]
    fn safety_comment_rule() {
        assert_eq!(
            rules_of("fn f() { unsafe { core::hint::unreachable_unchecked() } }"),
            vec![Rule::SafetyComment]
        );
        assert!(rules_of(
            "fn f() {\n    // SAFETY: caller guarantees the invariant\n    unsafe { g() }\n}"
        )
        .is_empty());
        // A SAFETY comment more than 3 lines away does not count.
        assert_eq!(
            rules_of("// SAFETY: too far\n\n\n\n\nfn f() { unsafe { g() } }"),
            vec![Rule::SafetyComment]
        );
        // Applies in test code too.
        assert_eq!(
            rules_of("#[test]\nfn t() { unsafe { g() } }"),
            vec![Rule::SafetyComment]
        );
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        // Trailing on the offending line.
        assert!(rules_of("fn f(x: f64) -> bool { x == 0.0 } // wsyn: allow(float-eq)").is_empty());
        // On the line above.
        assert!(
            rules_of("fn f(x: f64) -> bool {\n    // wsyn: allow(float-eq)\n    x == 0.0\n}")
                .is_empty()
        );
        // Multiple rules in one comment.
        assert!(rules_of(
            "fn f(x: f64, y: usize) {\n    // wsyn: allow(float-eq, lossy-cast)\n    \
             let _ = (x == 0.0, y as u32);\n}"
        )
        .is_empty());
        // The wrong rule id does not suppress.
        assert_eq!(
            rules_of("fn f(x: f64) -> bool { x == 0.0 } // wsyn: allow(no-panic)"),
            vec![Rule::FloatEq]
        );
        // Two lines below is out of reach.
        assert_eq!(
            rules_of("// wsyn: allow(float-eq)\n\nfn f(x: f64) -> bool { x == 0.0 }"),
            vec![Rule::FloatEq]
        );
    }

    #[test]
    fn scope_classification() {
        let s = Scope::classify("crates/synopsis/src/one_dim/dedup.rs");
        assert!(s.solver && s.wall_clock && s.no_panic && s.safety && !s.test_path);
        // The thread pool carries the determinism contract for every
        // parallel path, so it gets the full solver rule set.
        let s = Scope::classify("crates/core/src/pool.rs");
        assert!(s.solver && s.wall_clock && s.no_panic && s.safety && !s.test_path);
        let s = Scope::classify("crates/aqp/src/lib.rs");
        assert!(!s.solver && s.wall_clock && s.no_panic);
        // The step-function DP carries the same bit-certified guarantee
        // as the wavelet solvers.
        let s = Scope::classify("crates/hist/src/oracle.rs");
        assert!(s.solver && s.wall_clock && s.no_panic && s.safety && !s.test_path);
        let s = Scope::classify("crates/conform/src/lib.rs");
        assert!(s.solver && s.wall_clock && s.no_panic && !s.test_path);
        // The server answers must be byte-identical to library answers,
        // so the serve crate is held to the full solver rule set.
        let s = Scope::classify("crates/serve/src/store.rs");
        assert!(s.solver && s.wall_clock && s.no_panic && s.safety && !s.test_path);
        let s = Scope::classify("crates/serve/tests/loopback.rs");
        assert!(s.solver && s.test_path);
        let s = Scope::classify("crates/bench/src/bin/exp_e5_scaling.rs");
        assert!(!s.wall_clock && !s.no_panic && s.safety);
        let s = Scope::classify("crates/cli/src/main.rs");
        assert!(!s.wall_clock && s.no_panic);
        let s = Scope::classify("vendor/rand/src/lib.rs");
        assert_eq!(s, Scope::none());
        let s = Scope::classify("crates/synopsis/tests/one_dim_properties.rs");
        assert!(s.solver && s.test_path);
        let s = Scope::classify("tests/invariants.rs");
        assert!(s.test_path && !s.wall_clock);
        let s = Scope::classify("src/lib.rs");
        assert!(s.no_panic && s.wall_clock && !s.solver);
    }

    #[test]
    fn diagnostics_carry_path_line_and_rule_id() {
        let d = check_source(
            "crates/haar/src/error.rs",
            "fn f(x: f64) -> bool {\n    x == 0.0\n}",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].rule.id(), "float-eq");
        assert_eq!(
            d[0].to_string(),
            format!("crates/haar/src/error.rs:2: [float-eq] {}", d[0].message)
        );
    }

    #[test]
    fn rule_ids_roundtrip() {
        for r in ALL_RULES {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("nonsense"), None);
    }

    fn ast_rules_of(path: &str, src: &str) -> Vec<Rule> {
        check_ast(path, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn thread_policy_allows_only_the_pool_module() {
        let src = "fn f() -> usize { configured_threads() }";
        assert_eq!(
            ast_rules_of("crates/synopsis/src/lib.rs", src),
            vec![Rule::ThreadPolicy]
        );
        assert_eq!(
            ast_rules_of(
                "crates/cli/src/main.rs",
                "fn f() -> usize { host_parallelism() }"
            ),
            vec![Rule::ThreadPolicy]
        );
        assert!(ast_rules_of(THREAD_POLICY_OWNER, src).is_empty());
        // Applies in test code; the escape hatch still works.
        assert_eq!(
            ast_rules_of(
                "crates/core/src/lib.rs",
                "#[test] fn t() { assert!(host_parallelism() >= 1); }"
            ),
            vec![Rule::ThreadPolicy]
        );
        assert!(ast_rules_of(
            "crates/core/src/lib.rs",
            "#[test] fn t() { assert!(host_parallelism() >= 1); // wsyn: allow(thread-policy)\n }"
        )
        .is_empty());
    }

    #[test]
    fn pool_capture_flags_non_sync_types() {
        assert_eq!(
            ast_rules_of(
                "crates/core/src/pool.rs",
                "fn f(pool: &Pool) {
                    let c = Rc::new(RefCell::new(0));
                    pool.map_indexed(&xs, |i, x| { c.borrow_mut(); Rc::clone(&c) });
                }"
            ),
            vec![Rule::PoolCapture]
        );
        assert_eq!(
            ast_rules_of(
                "crates/core/src/pool.rs",
                "fn f() { thread::scope(|s| { let c = Cell::new(0); c.set(1) }); }"
            ),
            vec![Rule::PoolCapture]
        );
        // Sync sharing is fine; so are Rc/RefCell outside pool closures.
        assert!(ast_rules_of(
            "crates/core/src/pool.rs",
            "fn f(pool: &Pool) {
                let c = Rc::new(0);
                pool.map_indexed(&xs, |i, x| x + 1);
            }"
        )
        .is_empty());
    }

    #[test]
    fn atomic_ordering_demands_order_and_comment() {
        // RMW without any Ordering argument.
        assert_eq!(
            ast_rules_of(
                "crates/core/src/lib.rs",
                "fn f(a: &AtomicUsize) { a.fetch_add(1); }"
            ),
            vec![Rule::AtomicOrdering]
        );
        // Ordering present but unjustified.
        assert_eq!(
            ast_rules_of(
                "crates/core/src/lib.rs",
                "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }"
            ),
            vec![Rule::AtomicOrdering]
        );
        // Justified within 3 lines: clean.
        assert!(ast_rules_of(
            "crates/core/src/lib.rs",
            "fn f(a: &AtomicUsize) {\n    // ORDERING: counter only, no synchronization\n    \
             a.fetch_add(1, Ordering::Relaxed);\n}"
        )
        .is_empty());
        // Plain `load`/`swap` without Ordering is not an atomic op.
        assert!(ast_rules_of(
            "crates/core/src/lib.rs",
            "fn f(v: &mut Vec<u32>) { v.swap(0, 1); cfg.load(path); }"
        )
        .is_empty());
    }

    #[test]
    fn mutex_poison_requires_recovery_idiom() {
        assert_eq!(
            ast_rules_of(
                "crates/core/src/lib.rs",
                "fn f(m: &Mutex<u32>) -> u32 { *m.lock().unwrap() }"
            ),
            // (`.unwrap()` is the token pass's business, not check_ast's.)
            vec![Rule::MutexPoison]
        );
        assert!(ast_rules_of(
            "crates/core/src/lib.rs",
            "fn f(m: &Mutex<u32>) -> u32 {
                *m.lock().unwrap_or_else(PoisonError::into_inner)
            }"
        )
        .is_empty());
        // Out of solver scope and in tests: exempt.
        assert!(ast_rules_of(
            "crates/cli/src/main.rs",
            "fn f(m: &Mutex<u32>) { m.lock().unwrap(); }"
        )
        .is_empty());
        assert!(ast_rules_of(
            "crates/core/src/lib.rs",
            "#[test] fn t(m: &Mutex<u32>) { m.lock().unwrap(); }"
        )
        .is_empty());
    }

    #[test]
    fn threshold_surface_is_closed_outside_the_trait_owner() {
        // An ad-hoc variant in a solver crate is flagged…
        assert_eq!(
            ast_rules_of(
                "crates/hist/src/lib.rs",
                "pub fn threshold_fast(data: &[f64]) -> f64 { 0.0 }"
            ),
            vec![Rule::ThresholdSurface]
        );
        // …even as a bodiless trait-method signature.
        assert_eq!(
            ast_rules_of(
                "crates/prob/src/lib.rs",
                "trait Fast { fn threshold_quick(&self) -> f64; }"
            ),
            vec![Rule::ThresholdSurface]
        );
        // The sanctioned trait surface passes everywhere.
        assert!(ast_rules_of(
            "crates/hist/src/lib.rs",
            "impl Thresholder for H {
                fn threshold_with(&self, p: &RunParams) -> f64 { 0.0 }
            }"
        )
        .is_empty());
        // The trait owner declares the surface (including defaults).
        assert!(ast_rules_of(THRESHOLD_SURFACE_OWNER, "pub fn threshold_anything() {}").is_empty());
        // Non-solver crates, test code, and prefix-only lookalikes are
        // out of scope; the escape hatch still works.
        assert!(ast_rules_of("crates/cli/src/main.rs", "fn threshold_fast() {}").is_empty());
        assert!(ast_rules_of(
            "crates/hist/src/lib.rs",
            "#[test] fn threshold_fast_matches() {}"
        )
        .is_empty());
        assert!(ast_rules_of("crates/hist/src/lib.rs", "fn thresholder_name() {}").is_empty());
        assert!(ast_rules_of(
            "crates/hist/src/lib.rs",
            "// wsyn: allow(threshold-surface) transition shim\nfn threshold_old() {}"
        )
        .is_empty());
    }

    #[test]
    fn every_rule_has_description_and_scope() {
        for r in ALL_RULES {
            assert!(r.describe().len() > 20, "{} description too thin", r.id());
            assert!(r.scope_note().len() > 10, "{} scope note too thin", r.id());
        }
    }
}
