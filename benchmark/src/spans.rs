//! In-memory spans for the traced run. A span is recorded from the
//! benchmark's own code around a call into one layer — name, start, end,
//! the span that caused it, and the rep it belongs to — and nothing is
//! written until the run is over.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the log's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `session.push_batch`.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<u32>,
    /// The rep the span belongs to.
    pub rep: u32,
}

/// An append-only span log owned by one thread; logs from several
/// threads share an origin and are merged with [`absorb`](SpanLog::absorb).
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    /// The shared clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens a span now; close it with [`close`](SpanLog::close).
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, rep: u32) -> u32 {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            rep,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Appends another thread's log, keeping its parent links intact.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is the
    /// span's duration minus the part its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += duration;
            entry.2 += duration.saturating_sub(children);
        }
        totals
    }

    /// Total nanoseconds spent in spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The whole log as JSON: a per-name summary and every span.
    pub fn to_json(&self) -> Json {
        let summary = self
            .totals()
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name,
                    Json::obj([
                        ("count", Json::Num(count as f64)),
                        ("total_ns", Json::Num(total as f64)),
                        ("self_ns", Json::Num(own as f64)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::str(s.name),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    Json::Num(f64::from(s.rep)),
                ])
            })
            .collect();
        Json::obj([
            ("summary", Json::obj(summary)),
            (
                "span_columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "rep"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// The recording side of a [`SpanLog`] as drivers see it: a no-op on
/// untraced runs, so the driver code is the same either way.
#[derive(Debug)]
pub struct Tracer<'a> {
    log: Option<&'a mut SpanLog>,
    rep: u32,
}

impl<'a> Tracer<'a> {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { log: None, rep: 0 }
    }

    /// A tracer appending to `log`, when there is one, on behalf of rep
    /// `rep`.
    pub fn new(log: Option<&'a mut SpanLog>, rep: u32) -> Self {
        Tracer { log, rep }
    }

    /// Opens a span (see [`SpanLog::open`]); `None` when tracing is off.
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> Option<u32> {
        let rep = self.rep;
        self.log.as_mut().map(|log| log.open(name, parent, rep))
    }

    /// Closes a span opened by [`open`](Tracer::open).
    #[inline]
    pub fn close(&mut self, id: Option<u32>) {
        if let (Some(log), Some(id)) = (self.log.as_mut(), id) {
            log.close(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_absorb_keeps_parents() {
        let mut log = SpanLog::new(Instant::now());
        let rep = log.open("rep", None, 0);
        let push = log.open("push", Some(rep), 0);
        log.close(push);
        log.close(rep);
        let mut other = SpanLog::new(log.origin());
        let outer = other.open("worker", None, 0);
        let inner = other.open("push", Some(outer), 0);
        other.close(inner);
        other.close(outer);
        log.absorb(other);
        assert_eq!(log.spans()[3].parent, Some(2));
        let totals = log.totals();
        let (count, total, own) = totals["rep"];
        assert_eq!(count, 1);
        assert_eq!(own, total - log.total_ns("push") + other_push(&log));
        assert_eq!(totals["push"].0, 2);
    }

    fn other_push(log: &SpanLog) -> u64 {
        let s = log.spans()[3];
        s.end_ns - s.start_ns
    }
}
