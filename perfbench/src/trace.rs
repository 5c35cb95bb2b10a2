//! In-memory spans recorded around the benchmark's calls into each layer of
//! the program, written out once the run ends.
//!
//! A span has a name, start and end (nanoseconds since the tracer's epoch),
//! the span that caused it, and the request or session id it belongs to.
//! Spans stay in memory while the run measures; nothing is written until
//! [`Tracer::write_jsonl`] at exit.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `models.serve_conv.conv2.3x3`.
    pub name: String,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// End, ns since the tracer epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request or session id the span belongs to (0 when none).
    pub id: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span store shared by the benchmark's threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle of an open span; [`Tracer::close`] ends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub usize);

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span that already ended.
    pub fn record(
        &self,
        name: &str,
        parent: Option<SpanId>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: parent.map(|p| p.0),
            id,
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        SpanId(spans.len() - 1)
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &str, parent: Option<SpanId>, id: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, id, now, now)
    }

    /// Ends an open span now.
    pub fn close(&self, span: SpanId) {
        let end = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans[span.0].end_ns = end;
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.snapshot().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when a tracer is given, or bare when not.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: impl FnOnce() -> String,
    parent: Option<SpanId>,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            let start = Instant::now();
            let r = f();
            t.record(&name(), parent, id, start, Instant::now());
            r
        }
    }
}

/// Self time of span `index`: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    covered.sort_unstable();
    let mut union = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in covered {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                union += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        union += cb - ca;
    }
    parent.duration_ns().saturating_sub(union)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("forward", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)), // overlaps `a`
            span("c", 70, 80, Some(0)),
            span("grandchild", 12, 14, Some(1)), // not a child of 0
        ];
        // Covered: [10, 50) and [70, 80) = 50 ns.
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 18);
        assert_eq!(self_time_ns(&spans, 3), 10);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("p", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 190, 260, Some(0)),
            span("outside", 300, 400, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 10);
    }

    #[test]
    fn recorded_spans_keep_their_parents_and_ids() {
        let tracer = Tracer::new();
        let root = tracer.open("root", None, 7);
        let child = span_in(&tracer, root);
        tracer.close(root);
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[child.0].parent, Some(root.0));
        assert_eq!(spans[root.0].id, 7);
        assert!(spans[root.0].end_ns >= spans[child.0].end_ns);
        assert!(self_time_ns(&spans, root.0) <= spans[root.0].duration_ns());
    }

    fn span_in(tracer: &Tracer, parent: SpanId) -> SpanId {
        let start = Instant::now();
        std::hint::black_box((0..1000).sum::<u64>());
        tracer.record("child", Some(parent), 7, start, Instant::now())
    }

    #[test]
    fn the_span_helper_is_transparent_without_a_tracer() {
        assert_eq!(super::span(None, || unreachable!(), None, 0, || 3), 3);
        let tracer = Tracer::new();
        assert_eq!(super::span(Some(&tracer), || "x".into(), None, 1, || 4), 4);
        assert_eq!(tracer.snapshot()[0].name, "x");
    }
}
