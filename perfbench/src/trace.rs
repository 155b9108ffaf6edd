//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start and end, an optional parent and the id of the
//! request it belongs to. Spans stay in memory while the benchmark runs
//! and are written out once it ends. With tracing off nothing is recorded
//! and the calls cost one branch.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that started at `start` (a request's intended send
    /// time may lie before the call that records it).
    pub fn begin_at(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            req,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    pub fn end_at(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end_ns = self.ns(end);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.begin_at(name, Instant::now(), parent, req);
        let out = f();
        self.end_at(id, Instant::now());
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered_ns(lo: u64, hi: u64, intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let covered = covered_ns(
                s.start_ns,
                s.end_ns,
                kids.iter().map(|&k| (spans[k].start_ns, spans[k].end_ns)),
            );
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: count, total and self time (ns), sorted by name.
pub fn self_time_table(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut rows: std::collections::BTreeMap<&'static str, (usize, u64, u64)> =
        std::collections::BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.dur_ns();
        row.2 += own;
    }
    rows.into_iter()
        .map(|(name, (n, total, own))| (name, n, total, own))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: the shared 30..40 is subtracted once.
            span("b", 30, 60, Some(0)),
            // Sticks out past the parent: only 90..100 counts.
            span("c", 90, 120, Some(0)),
            span("a.inner", 15, 20, Some(1)),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 50 - 10, 30 - 5, 30, 30, 5]
        );
    }

    #[test]
    fn self_time_table_sums_by_name() {
        let spans = vec![
            span("req", 0, 10, None),
            span("call", 2, 4, Some(0)),
            span("req", 20, 30, None),
            span("call", 20, 30, Some(2)),
        ];
        let table = self_time_table(&spans);
        assert_eq!(table, vec![("call", 2, 12, 12), ("req", 2, 20, 8)]);
    }

    #[test]
    fn coverage_clips_and_merges() {
        assert_eq!(covered_ns(10, 20, [(0, 12), (11, 15), (18, 40)]), 7);
        assert_eq!(covered_ns(10, 20, [(20, 30), (0, 10)]), 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", None, 0, || 7), 7);
        assert!(t.begin_at("y", Instant::now(), None, 1).is_none());
        assert!(t.spans().is_empty());
    }
}
