//! Spans recorded around the benchmark's own calls into each layer's
//! public functions. Each thread keeps its spans in memory; they are
//! merged and written out when the run ends. With tracing off, every
//! call is a no-op, so the untraced run measures the bare pipeline.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Marks a span with no parent.
pub const ROOT: u32 = u32::MAX;

/// One timed call: offsets in nanoseconds from the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the causing span in the same thread's list, or [`ROOT`].
    pub parent: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// A thread's span list.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    /// Records a finished span; returns its index for children.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, parent: u32) -> u32 {
        if !self.on {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.record(name, start, end, parent);
        out
    }
}

/// Every thread's spans, tagged by thread.
#[derive(Debug, Default)]
pub struct Trace {
    pub threads: Vec<(&'static str, Vec<Span>)>,
}

impl Trace {
    pub fn add(&mut self, thread: &'static str, tracer: Tracer) {
        if tracer.on {
            self.threads.push((thread, tracer.spans));
        }
    }

    /// Spans named `name`, from every thread.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.threads
            .iter()
            .flat_map(|(_, spans)| spans.iter())
            .filter(move |s| s.name == name)
    }

    /// Writes `thread\tid\tparent\tname\tstart_ns\tend_ns` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("thread\tid\tparent\tname\tstart_ns\tend_ns\n");
        for (thread, spans) in &self.threads {
            for (i, s) in spans.iter().enumerate() {
                let parent = if s.parent == ROOT {
                    "-".to_string()
                } else {
                    s.parent.to_string()
                };
                writeln!(
                    out,
                    "{thread}\t{i}\t{parent}\t{}\t{}\t{}",
                    s.name, s.start, s.end
                )
                .expect("writing to a String cannot fail");
            }
        }
        std::fs::write(path, out)
    }
}

/// Sorted, merged `[start, end)` intervals, for asking whether a call
/// overlapped a publish or a checkpoint.
#[derive(Debug, Default)]
pub struct Intervals(Vec<(u64, u64)>);

impl Intervals {
    pub fn of<'a>(spans: impl Iterator<Item = &'a Span>) -> Self {
        let mut v: Vec<(u64, u64)> = spans.map(|s| (s.start, s.end)).collect();
        v.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(v.len());
        for (s, e) in v {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        Intervals(merged)
    }

    /// True when `[start, end)` overlaps any interval.
    pub fn overlaps(&self, start: u64, end: u64) -> bool {
        let i = self.0.partition_point(|&(_, e)| e <= start);
        self.0.get(i).is_some_and(|&(s, _)| s < end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            name: "x",
            start,
            end,
            parent: ROOT,
        }
    }

    #[test]
    fn overlap_queries_see_merged_intervals() {
        let spans = [span(10, 20), span(15, 30), span(50, 60)];
        let iv = Intervals::of(spans.iter());
        assert_eq!(iv.0, vec![(10, 30), (50, 60)]);
        assert!(iv.overlaps(0, 11));
        assert!(iv.overlaps(29, 40));
        assert!(!iv.overlaps(30, 50));
        assert!(iv.overlaps(55, 56));
        assert!(!iv.overlaps(60, 70));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.time("x", ROOT, || 7), 7);
        assert!(t.spans.is_empty());
        let mut t = Tracer::new(true, Instant::now());
        let id = t.record("a", 1, 2, ROOT);
        t.time("b", id, || ());
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, id);
    }
}
