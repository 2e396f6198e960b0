//! In-memory spans for the traced run.
//!
//! A span is a named interval with a parent and a request id. Spans are
//! kept in memory while the run executes and written out as JSON lines at
//! the end. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover; the root's self time is reported as
//! `unattributed`, so the self times of a tree add up to its root.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Handle returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder; a disabled tracer records nothing, which is how the
/// tracing overhead is measured.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Tracer::begin`] (innermost first).
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(id), "spans must close innermost first");
            self.spans[id].end = self.now();
        }
    }

    /// Time `f` as a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, request);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

/// Length of the union of intervals, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the union of its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Self time per span name, nanoseconds (roots reported as `unattributed`).
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Spans recorded per name.
    pub count: BTreeMap<&'static str, u64>,
    /// Total duration of the root spans, nanoseconds.
    pub root_ns: u64,
}

impl Breakdown {
    /// Mean self time of one `name` span in microseconds (0 when absent).
    pub fn mean_us(&self, name: &str) -> f64 {
        match (self.self_ns.get(name), self.count.get(name)) {
            (Some(&ns), Some(&n)) if n > 0 => ns as f64 / n as f64 / 1000.0,
            _ => 0.0,
        }
    }

    /// Sum of all self times; equals `root_ns` for a well-nested trace.
    pub fn attributed_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }
}

/// Aggregate a trace by span name. The self time of parentless spans is
/// booked as `unattributed`.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let selfs = self_times(spans);
    let mut b = Breakdown::default();
    for (s, own) in spans.iter().zip(selfs) {
        let name = if s.parent.is_none() {
            b.root_ns += s.end - s.start;
            "unattributed"
        } else {
            s.name
        };
        *b.self_ns.entry(name).or_default() += own;
        *b.count.entry(s.name).or_default() += 1;
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn nested_self_times_add_up_to_the_root() {
        // root [0,100) > a [10,40) > a1 [15,25); b [50,90)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let b = breakdown(&spans);
        assert_eq!(b.root_ns, 100);
        assert_eq!(b.attributed_ns(), 100);
        assert_eq!(b.self_ns["unattributed"], 30);
        assert_eq!(b.count["root"], 1);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children overlap on [30,40); one sticks out past the parent.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 20, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // Covered: [20,60) + [90,100) = 50.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn tracer_records_parents_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 7);
        t.time("child", 7, || std::hint::black_box(1 + 1));
        t.end(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 7);
        let b = breakdown(t.spans());
        assert_eq!(b.attributed_ns(), b.root_ns);

        let mut off = Tracer::new(false);
        let root = off.begin("root", 0);
        off.end(root);
        assert!(off.spans().is_empty());
    }
}
