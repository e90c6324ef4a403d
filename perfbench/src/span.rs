//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions, so the spans sit at layer boundaries as seen from
//! outside the program. Spans are kept in memory and written out once,
//! at the end of the run, as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::measure::json_string;

/// One timed call. `child_ns` is time spent in children too numerous to
/// record one by one (per-emission sink calls), summed instead.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one request or one enumeration pass share this id.
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub child_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span recorder. Spans nest by the order they are opened: a span
/// opened while another is open is its child.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, trace: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, trace);
        let out = f();
        self.end(id);
        out
    }

    /// Adds summed child time to span `id` (see [`Span::child_ns`]).
    pub fn add_child_ns(&mut self, id: usize, ns: u64) {
        self.spans[id].child_ns += ns;
    }

    /// Records an already measured span (a call timed on another thread).
    pub fn record(&mut self, name: &'static str, trace: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name,
            trace,
            parent: self.open.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
            child_ns: 0,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its direct
    /// children (recorded and summed) cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered: Vec<u64> = self.spans.iter().map(|s| s.child_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(covered).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":{},\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                json_string(s.name),
                s.trace,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { name, trace: 0, parent, start_ns: start, end_ns: end, child_ns: 0 }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer { epoch: Instant::now(), spans, open: Vec::new() }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = tracer(vec![
            span("pass", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 70),
            span("b.inner", Some(2), 45, 60),
        ]);
        assert_eq!(t.self_ns(), vec![50, 20, 15, 15]);
        // Self times along the tree add up to the root's duration.
        assert_eq!(t.self_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn summed_children_count_as_covered() {
        let mut t = tracer(vec![span("run", None, 0, 100), span("x", Some(0), 0, 40)]);
        t.spans[0].child_ns = 25;
        assert_eq!(t.self_ns(), vec![35, 40]);
        let totals = t.totals();
        assert_eq!(totals["run"], Totals { count: 1, total_ns: 100, self_ns: 35 });
    }

    #[test]
    fn nesting_follows_open_order() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", 7);
        t.time("inner", 7, || ());
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert_eq!(t.spans()[0].parent, None);
        let [o, i] = [&t.spans()[0], &t.spans()[1]];
        assert!(o.start_ns <= i.start_ns && i.end_ns <= o.end_ns);
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new();
        let a = t.begin("a", 0);
        let _b = t.begin("b", 0);
        t.end(a);
    }
}
