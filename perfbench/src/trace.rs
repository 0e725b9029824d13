//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (nothing inside the crates is instrumented). A span has a name, a
//! start and an end in seconds since the tracer was made, the span that
//! caused it, and the request it belongs to. They are kept in memory
//! and written out once, when the run ends.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// A recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: usize,
    /// The span that caused it, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
    /// Layer-qualified name, e.g. `pegasus.evaluate`.
    pub name: &'static str,
    /// Start, seconds since the tracer's epoch.
    pub start: f64,
    /// End, seconds since the tracer's epoch.
    pub end: f64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// A span recorder; a disabled one records nothing.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Seconds since the tracer's epoch.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a span from `start` to `end` (epoch seconds) and returns
    /// its id, or `None` when disabled.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: f64,
        end: f64,
    ) -> Option<usize> {
        let mut spans = self.spans.as_ref()?.lock().expect("span list poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end,
        });
        Some(id)
    }

    /// Opens a span at `start` whose end is set by [`Tracer::close`], so
    /// that spans it causes can name it as their parent while it runs.
    pub fn open(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
    ) -> Option<usize> {
        let at = self.at(start);
        self.record(name, parent, request, at, at)
    }

    /// Ends the span `id` (from [`Tracer::open`]) at `end`.
    pub fn close(&self, id: Option<usize>, end: Instant) {
        if let (Some(spans), Some(id)) = (&self.spans, id) {
            spans.lock().expect("span list poisoned")[id].end = self.at(end);
        }
    }

    /// Records a span for the interval between two instants.
    pub fn record_between(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        from: Instant,
        to: Instant,
    ) -> Option<usize> {
        self.record(name, parent, request, self.at(from), self.at(to))
    }

    /// Takes the recorded spans out of the tracer.
    pub fn take(&self) -> Vec<Span> {
        match &self.spans {
            Some(m) => std::mem::take(&mut *m.lock().expect("span list poisoned")),
            None => Vec::new(),
        }
    }
}

/// Seconds of `parent` covered by none of `children`: its duration
/// minus the union of the children's intervals clipped to it.
pub fn self_time(parent: &Span, children: &[&Span]) -> f64 {
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.dur() - covered
}

/// The recorded spans of one run, indexed for the per-layer metrics.
pub struct Trace {
    spans: Vec<Span>,
    children: Vec<Vec<usize>>,
}

impl Trace {
    /// Indexes `spans` (ids must be their positions, as [`Tracer`]
    /// assigns them).
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push(s.id);
            }
        }
        Trace { spans, children }
    }

    /// Durations of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Self time of span `id`.
    pub fn self_time_of(&self, id: usize) -> f64 {
        let kids: Vec<&Span> = self.children[id].iter().map(|&c| &self.spans[c]).collect();
        self_time(&self.spans[id], &kids)
    }

    /// Spans whose children cover more than the span itself (a negative
    /// self time beyond clock rounding), as `(name, self seconds)`.
    pub fn overfull(&self) -> Vec<(&'static str, f64)> {
        self.spans
            .iter()
            .filter(|s| !self.children[s.id].is_empty())
            .filter_map(|s| {
                let sum: f64 = self.children[s.id]
                    .iter()
                    .map(|&c| self.spans[c].dur())
                    .sum();
                (sum > s.dur() + 1e-6).then(|| (s.name, s.dur() - sum))
            })
            .collect()
    }

    /// The spans as JSON lines, each with its self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"self\":{}}}",
                s.id,
                parent,
                s.request,
                s.name,
                s.start,
                s.end,
                self.self_time_of(s.id)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let p = span(0, None, 0.0, 10.0);
        // Overlapping children [1,4] and [3,6] cover 5 s, not 6.
        let a = span(1, Some(0), 1.0, 4.0);
        let b = span(2, Some(0), 3.0, 6.0);
        // A disjoint child [8,9] covers one more.
        let c = span(3, Some(0), 8.0, 9.0);
        assert_eq!(self_time(&p, &[&a, &b, &c]), 4.0);
        assert_eq!(self_time(&p, &[]), 10.0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let p = span(0, None, 2.0, 6.0);
        let a = span(1, Some(0), 0.0, 3.0);
        let b = span(2, Some(0), 5.0, 9.0);
        let outside = span(3, Some(0), 7.0, 8.0);
        assert_eq!(self_time(&p, &[&a, &b, &outside]), 2.0);
        // Nested children count once.
        let inner = span(4, Some(0), 3.5, 4.5);
        let outer = span(5, Some(0), 3.0, 5.0);
        assert_eq!(self_time(&p, &[&inner, &outer]), 2.0);
    }

    #[test]
    fn trace_reports_durations_and_flags_overfull_spans() {
        let t = Tracer::new(true);
        let run = t.record("run", None, 1, 0.0, 10.0);
        let it = t.record("iter", run, 1, 0.0, 6.0);
        t.record("eval", it, 1, 1.0, 4.0);
        t.record("eval", it, 1, 4.0, 5.0);
        t.record("eval", run, 1, 7.0, 8.0);
        let bad = t.record("bad", None, 2, 0.0, 1.0);
        t.record("kid", bad, 2, 0.0, 0.8);
        t.record("kid", bad, 2, 0.1, 0.9);
        let trace = Trace::new(t.take());
        assert_eq!(trace.durations("eval"), vec![3.0, 1.0, 1.0]);
        assert_eq!(trace.self_time_of(0), 3.0);
        assert_eq!(trace.self_time_of(1), 2.0);
        let over = trace.overfull();
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].0, "bad");
        assert!(trace.to_jsonl().lines().count() == 8);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert!(!t.enabled());
        assert_eq!(t.record("x", None, 0, 0.0, 1.0), None);
        assert!(t.take().is_empty());
    }
}
