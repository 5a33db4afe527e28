//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A [`Tracer`] belongs to one thread.  Spans nest through
//! [`Tracer::span`]; each carries its name, start, end, parent and the id
//! of the op it belongs to.  Nothing is written while the benchmark runs:
//! the spans are kept in memory and [`write_spans`] dumps them at exit.
//! A disabled tracer records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to (0 outside any op).
    pub op: u64,
    /// Which tracer (thread) recorded the span.
    pub thread: usize,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    thread: usize,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for one thread.  All tracers of a run share `origin`, so
    /// their spans sit on one time axis.
    pub fn new(enabled: bool, origin: Instant, thread: usize) -> Self {
        Self {
            enabled,
            origin,
            thread,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            thread: self.thread,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// time its direct children cover.  Spans of one tracer are sequential on
/// one thread, so the children of a span never overlap each other.
pub fn self_times(spans: &[Vec<Span>]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for thread in spans {
        let mut child_ns = vec![0u64; thread.len()];
        for span in thread {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        for (span, children) in thread.iter().zip(child_ns) {
            *totals.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(children);
        }
    }
    totals
}

/// Writes every span as one JSON object per line.
pub fn write_spans(path: &Path, spans: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = String::new();
    for thread in spans {
        for (index, span) in thread.iter().enumerate() {
            let parent = span.parent.map_or_else(
                || "null".to_string(),
                |p| format!("\"{}.{p}\"", span.thread),
            );
            let _ = writeln!(
                out,
                "{{\"id\": \"{}.{index}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}}}",
                span.thread, span.name, span.start_ns, span.end_ns, span.op
            );
        }
    }
    std::fs::write(path, out)
}
