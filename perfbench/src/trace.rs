//! In-memory span recorder. The benchmark records a span around each call
//! it makes into a layer; spans inside the program are a later change.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based; 0 is "no parent".
    pub id: u64,
    pub parent: u64,
    /// Spans of one operation share this identifier.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Records a finished span and returns its id.
    pub fn add(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span now; [`Tracer::close`] stamps its end.
    pub fn open(&mut self, parent: u64, request: u64, name: &'static str) -> u64 {
        let now = self.now_ns();
        self.add(parent, request, name, now, now)
    }

    pub fn close(&mut self, id: u64) {
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time of the direct children of every span with one of the `parents`
    /// names, over the time of those spans: 1.0 when the children account
    /// for all of it.
    pub fn layer_sum_share(&self, parents: &[&str]) -> f64 {
        let is_parent: Vec<bool> = self
            .spans
            .iter()
            .map(|s| parents.contains(&s.name))
            .collect();
        let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns) as f64;
        let parents: f64 = self
            .spans
            .iter()
            .zip(&is_parent)
            .filter(|(_, &p)| p)
            .map(|(s, _)| dur(s))
            .sum();
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent != 0 && is_parent[s.parent as usize - 1])
            .map(dur)
            .sum();
        if parents == 0.0 {
            0.0
        } else {
            children / parents
        }
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = Json::obj([
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("request", Json::Num(s.request as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

/// A tracer that may be absent, so the same code runs traced and not; an
/// untraced run pays one branch per call.
pub struct Spans<'a>(pub Option<&'a mut Tracer>);

impl Spans<'_> {
    /// Opens a span now (id 0 when untraced).
    pub fn open(&mut self, parent: u64, request: u64, name: &'static str) -> u64 {
        self.0.as_mut().map_or(0, |t| t.open(parent, request, name))
    }

    pub fn close(&mut self, id: u64) {
        if let Some(t) = self.0.as_mut() {
            t.close(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_children() {
        let mut t = Tracer::new();
        let root = t.add(0, 1, "request", 100, 200);
        t.add(root, 1, "a", 100, 150);
        let b = t.add(root, 1, "b", 150, 190);
        t.add(b, 1, "grandchild", 150, 190);
        t.add(0, 2, "other", 0, 1_000);
        assert!((t.layer_sum_share(&["request"]) - 0.9).abs() < 1e-12);
        assert_eq!(t.layer_sum_share(&["absent"]), 0.0);
    }

    #[test]
    fn open_close_nest_and_order() {
        let mut t = Tracer::new();
        let mut spans = Spans(Some(&mut t));
        let outer = spans.open(0, 7, "outer");
        let inner = spans.open(outer, 7, "inner");
        spans.close(inner);
        spans.close(outer);
        let (o, i) = (&t.spans()[0], &t.spans()[1]);
        assert_eq!((o.id, o.parent, o.request, o.name), (1, 0, 7, "outer"));
        assert_eq!((i.id, i.parent), (2, 1));
        assert!(o.start_ns <= i.start_ns && i.end_ns <= o.end_ns);
        assert_eq!(Spans(None).open(0, 1, "untraced"), 0);
    }
}
