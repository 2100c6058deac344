//! In-memory spans for the traced pass: name, start, end, parent, and
//! how many layer calls the span covers.
//!
//! Most layer calls here cost tens of nanoseconds, the same order as
//! reading the clock, so a span around every single call would measure
//! the timer. A span therefore covers a *run of consecutive calls into
//! one layer* (at most [`BATCH`]) with nothing but loop glue between
//! them, and carries the call count; calls that are rare and heavy
//! (`start`, `halt`, cluster proposes, traffic pulls) get a span each.

use std::collections::BTreeMap;
use std::time::Instant;

/// Longest run of calls one span may cover.
pub const BATCH: u32 = 4096;

/// Index of a span in its recorder.
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub calls: u32,
}

/// Per-layer totals over all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub calls: u64,
    /// Summed span durations minus the part child spans cover.
    pub self_ns: u64,
}

impl LayerTotals {
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let id = self.spans.len() as SpanId;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            calls: 0,
        });
        id
    }

    pub fn close(&mut self, id: SpanId, calls: u32) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    /// Times one call as a span of its own.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id, 1);
        out
    }

    /// Self time and call count per span name. Children are never
    /// concurrent with each other here (one thread), so a span's self
    /// time is its duration minus the summed durations of its children.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += u64::from(s.calls);
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// One span per line: `name start_ns end_ns parent calls` (parent
    /// `-` for roots) — the `--spans FILE` dump.
    pub fn write_to(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{} {} {} {} {}",
                s.name, s.start_ns, s.end_ns, parent, s.calls
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        let outer = spans.open("outer", None);
        let inner = spans.open("inner", Some(outer));
        spans.close(inner, 3);
        spans.close(outer, 1);
        // Fix the clock readings so the arithmetic is checkable.
        spans.spans[0].start_ns = 100;
        spans.spans[0].end_ns = 1_100;
        spans.spans[1].start_ns = 300;
        spans.spans[1].end_ns = 700;
        let totals = spans.totals();
        assert_eq!(
            totals["outer"],
            LayerTotals {
                calls: 1,
                self_ns: 600
            }
        );
        assert_eq!(
            totals["inner"],
            LayerTotals {
                calls: 3,
                self_ns: 400
            }
        );
        let mut dump = Vec::new();
        spans.write_to(&mut dump).unwrap();
        assert_eq!(
            String::from_utf8(dump).unwrap(),
            "outer 100 1100 - 1\ninner 300 700 0 3\n"
        );
    }
}
