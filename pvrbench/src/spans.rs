//! Spans recorded by the benchmark around its own calls into the layers.
//!
//! A span has a name, a start, an end and the span that caused it. Spans
//! are kept in memory while the benchmark runs and written out once at
//! the end; nothing is recorded inside the runtime itself. A span's self
//! time is its duration minus the time its child spans cover.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// Sentinel parent of a root span.
pub const ROOT: SpanId = usize::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// An append-only span log shared between the benchmark loop and rank bodies.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// The span that rank bodies attach their own spans to: `run_once`
    /// points it at the current `run` span before calling `Machine::run`.
    body_parent: AtomicUsize,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            body_parent: AtomicUsize::new(ROOT),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the log's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`SpanLog::close`].
    pub fn open(&self, name: &'static str, parent: SpanId) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock()[id].end_ns = end_ns;
    }

    /// Record an already-finished span (used by rank bodies, which time
    /// their steps locally and hand the batch over when they finish).
    pub fn push(&self, name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> SpanId {
        let mut spans = self.spans.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        spans.len() - 1
    }

    pub fn set_body_parent(&self, id: SpanId) {
        self.body_parent.store(id, Ordering::Relaxed);
    }

    pub fn body_parent(&self) -> SpanId {
        self.body_parent.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }
}

/// Count, total time and self time per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(c) = child_ns.get_mut(s.parent) {
            *c += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
    }
    out
}

/// Durations in nanoseconds of every span named `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}

/// The spans as a JSON array (one object per span, with its index).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let log = SpanLog::default();
        let run = log.push("run", 0, 100, ROOT);
        log.push("step", 10, 30, run);
        let step = log.push("step", 40, 80, run);
        log.push("send", 40, 50, step);
        let t = totals(&log.snapshot());
        assert_eq!(
            t["run"],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(
            t["step"],
            SpanTotals {
                count: 2,
                total_ns: 60,
                self_ns: 50
            }
        );
        assert_eq!(t["send"].self_ns, 10);
    }

    #[test]
    fn json_names_every_span_and_its_parent() {
        let log = SpanLog::default();
        let a = log.push("build", 0, 5, ROOT);
        log.push("probe", 5, 9, a);
        let json = to_json(&log.snapshot());
        assert!(json.contains("\"name\": \"build\""));
        assert!(json.contains("\"parent\": null"));
        assert!(json.contains("\"parent\": 0"));
    }
}
