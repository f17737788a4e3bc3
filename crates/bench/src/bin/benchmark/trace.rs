//! Harness-side spans around calls into the product's layers.
//!
//! A span is `{name, start, end, parent, unit}` plus the traced pass it
//! belongs to and the allocations counted while it was open. Spans are
//! kept in memory and written as JSONL when the run ends. A layer's *self*
//! time is its span's duration minus the durations of its direct children,
//! so a `unit` span around a staged unit keeps only the glue between its
//! layers and summing self times never counts an interval twice.

use crate::alloc;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the translation unit (or edit) the work belongs to.
    pub unit: Option<usize>,
    /// Which traced pass recorded it.
    pub pass: usize,
    /// Allocations and bytes counted between open and close (children
    /// included).
    pub allocs: u64,
    pub bytes: u64,
}

/// Per-name totals of one pass, over self values.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub self_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
    pub spans: usize,
}

impl Agg {
    pub fn ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// `(self nanoseconds, self allocations, self bytes)` of every span: its
/// own figure minus its direct children's.
pub fn self_values(spans: &[Span]) -> Vec<(u64, u64, u64)> {
    let mut out: Vec<(u64, u64, u64)> = spans
        .iter()
        .map(|s| (s.end.saturating_sub(s.start), s.allocs, s.bytes))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p].0 = out[p].0.saturating_sub(s.end.saturating_sub(s.start));
            out[p].1 = out[p].1.saturating_sub(s.allocs);
            out[p].2 = out[p].2.saturating_sub(s.bytes);
        }
    }
    out
}

/// The in-memory span recorder. Only the generator thread holds one.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Spans recorded from now on belong to pass `pass`.
    pub fn set_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    /// Runs `f` inside a span. `f` gets the tracer back so it can open
    /// children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        unit: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        let (allocs, bytes) = alloc::snapshot();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_nanos() as u64,
            end: 0,
            parent: self.open.last().copied(),
            unit,
            pass: self.pass,
            allocs,
            bytes,
        });
        self.open.push(index);
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        let (allocs_now, bytes_now) = alloc::snapshot();
        self.open.pop();
        let s = &mut self.spans[index];
        s.end = end;
        s.allocs = allocs_now - s.allocs;
        s.bytes = bytes_now - s.bytes;
        out
    }

    /// Self totals per span name for one pass.
    pub fn totals(&self, pass: usize) -> BTreeMap<&'static str, Agg> {
        let selfs = self_values(&self.spans);
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, (ns, allocs, bytes)) in self.spans.iter().zip(selfs) {
            if s.pass != pass {
                continue;
            }
            let a = out.entry(s.name).or_default();
            a.self_ns += ns;
            a.allocs += allocs;
            a.bytes += bytes;
            a.spans += 1;
        }
        out
    }

    /// Self durations in milliseconds of every span called `name`, in
    /// recording order, across all passes.
    pub fn each_ms(&self, name: &str) -> Vec<f64> {
        let selfs = self_values(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, (ns, _, _))| ns as f64 / 1e6)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\
                 \"unit\":{},\"pass\":{},\"allocs\":{},\"bytes\":{}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.unit),
                s.pass,
                s.allocs,
                s.bytes
            )?;
        }
        w.flush()
    }
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
            unit: None,
            pass: 0,
            allocs: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] { a [10,50] { a1 [20,30] }, b [60,90] }
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("a1", 20, 30, Some(1)),
            span("b", 60, 90, Some(0)),
        ];
        let selfs: Vec<u64> = self_values(&spans).into_iter().map(|v| v.0).collect();
        // root loses both siblings (40 + 30) but not the grandchild again.
        assert_eq!(selfs, vec![30, 30, 10, 30]);
        assert_eq!(selfs.iter().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn recorded_spans_nest_and_total_per_name() {
        let mut t = Tracer::new();
        t.span("outer", None, |t| {
            t.span("leaf", Some(0), |_| std::hint::black_box(1 + 1));
            t.span("leaf", Some(1), |_| std::hint::black_box(2 + 2));
        });
        assert_eq!(t.len(), 3);
        let totals = t.totals(0);
        assert_eq!(totals["leaf"].spans, 2);
        assert_eq!(totals["outer"].spans, 1);
        let spans = &t.spans;
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end >= spans[2].end);
    }
}
