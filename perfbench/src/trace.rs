//! The traced run's span recorder: spans live in memory while a run
//! measures and are written out as JSON lines when it ends.
//!
//! A span has a name, a start and an end (relative to a shared epoch),
//! the span that caused it, and the request, rule or procedure id it
//! belongs to. Self time is a span's duration minus the time its child
//! spans cover. With the recorder off, [`Tracer::span`] only calls its
//! closure, so the untraced and traced runs share one code path.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub id: String,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    /// Time covered by direct children.
    pub child: Duration,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    pub fn self_time(&self) -> Duration {
        self.dur().saturating_sub(self.child)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for `id`. Nested calls made
    /// through the tracer handed to `f` become its children.
    pub fn span<T>(&mut self, name: &str, id: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name: name.to_string(),
            id: id.to_string(),
            parent,
            start,
            end: start,
            child: Duration::ZERO,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.epoch.elapsed();
        self.spans[idx].end = end;
        if let Some(p) = parent {
            self.spans[p].child += end.saturating_sub(start);
        }
        out
    }

    /// Records an already-measured interval as a leaf span under the
    /// innermost open span (used where the interval is timed by the
    /// caller, e.g. a wait for the first response byte).
    pub fn record(&mut self, name: &str, id: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let s = start.saturating_duration_since(self.epoch);
        let e = end.saturating_duration_since(self.epoch);
        self.spans.push(Span {
            name: name.to_string(),
            id: id.to_string(),
            parent,
            start: s,
            end: e,
            child: Duration::ZERO,
        });
        if let Some(p) = parent {
            self.spans[p].child += e.saturating_sub(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans in behind this tracer's, keeping
    /// parent links intact.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total self time per span name.
    pub fn self_times(&self) -> BTreeMap<String, Duration> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name.clone()).or_insert(Duration::ZERO) += s.self_time();
        }
        out
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":\"{}\",\"parent\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                cobalt_lint::json_escape(&s.name),
                cobalt_lint::json_escape(&s.id),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.self_time().as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}
