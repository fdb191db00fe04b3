//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program itself is not instrumented: a span here is the wall time
//! of one call into a layer's public function, taken from outside. Span
//! names are `<layer>.<call>` (`synopsis.threshold`,
//! `serve.protocol.decode_request`); a layer's self time is its spans'
//! time minus the part their child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use wsyn_core::json::{object, Value};

use crate::clock::Stopwatch;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in its tracer.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// The request (or instance, or frame) this call served; spans of
    /// one request share it.
    pub req: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its last `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

/// An in-memory span recorder. Spans nest by call order: a span begun
/// while another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer::with_origin(Stopwatch::start())
    }

    /// A tracer sharing `origin` with other tracers (one per thread), so
    /// their spans can be merged onto one time axis.
    #[must_use]
    pub fn with_origin(origin: Stopwatch) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The shared time origin.
    #[must_use]
    pub fn origin(&self) -> Stopwatch {
        self.origin
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            req,
            name,
            start_ns: self.origin.ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span opened after it and left open).
    pub fn end(&mut self, id: usize) {
        let now = self.origin.ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another tracer's spans (renumbered after this tracer's).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + offset,
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// Every recorded span, in begin order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`, in order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Total nanoseconds spent in spans called `name`.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Self time per layer: each span's duration minus its children's.
    #[must_use]
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.layer()).or_insert(0) += s.ns().saturating_sub(children[s.id]);
        }
        out
    }

    /// Writes the span file: per-layer self time, then one span per line.
    ///
    /// # Errors
    /// An I/O failure creating or writing `path`.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> Result<(), String> {
        let fail = |e: std::io::Error| format!("write {}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(fail)?;
        }
        let file = std::fs::File::create(path).map_err(fail)?;
        let mut out = std::io::BufWriter::new(file);
        let self_ns = self
            .self_ns_by_layer()
            .into_iter()
            .map(|(layer, ns)| (layer.to_string(), Value::Number(ns as f64)))
            .collect();
        let head = object(vec![
            ("schema", Value::String("wsyn-ledger-trace/1".to_string())),
            ("workload", Value::String(workload.to_string())),
            ("seed", Value::Number(seed as f64)),
            ("self_ns", Value::Object(self_ns)),
        ])
        .compact();
        // The head object stays open so the span list streams out one
        // line per span instead of being built as one document.
        let head = head.strip_suffix('}').unwrap_or(&head);
        write!(out, "{head},\"spans\":[").map_err(fail)?;
        for (i, s) in self.spans.iter().enumerate() {
            let span = object(vec![
                ("id", Value::Number(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                ),
                ("req", Value::Number(s.req as f64)),
                ("name", Value::String(s.name.to_string())),
                ("start_ns", Value::Number(s.start_ns as f64)),
                ("end_ns", Value::Number(s.end_ns as f64)),
            ]);
            let sep = if i == 0 { "" } else { "," };
            write!(out, "{sep}\n{}", span.compact()).map_err(fail)?;
        }
        writeln!(out, "\n]}}").map_err(fail)?;
        out.flush().map_err(fail)
    }
}

/// Times `f` as a span when a tracer is given; otherwise just runs it.
pub fn span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, req, f),
        None => f(),
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_parents_and_self_time() {
        let mut t = Tracer::new();
        let outer = t.begin("serve.shard.handle", 7);
        t.time("aqp.point", 7, || std::hint::black_box(1 + 1));
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        assert_eq!(spans[0].layer(), "serve.shard");
        let by_layer = t.self_ns_by_layer();
        assert_eq!(
            by_layer["serve.shard"] + by_layer["aqp"],
            spans[0].ns(),
            "self times partition the outer span"
        );
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let mut a = Tracer::new();
        a.time("x.a", 0, || ());
        let mut b = Tracer::with_origin(a.origin());
        let id = b.begin("y.b", 1);
        b.time("y.c", 1, || ());
        b.end(id);
        a.absorb(b);
        let ids: Vec<_> = a.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(0, None), (1, None), (2, Some(1))]);
    }
}
