//! In-memory span recording for the traced run.
//!
//! A span is one timed call from the benchmark into a layer: a name, a
//! start and end in nanoseconds since the tracer was created, the span
//! that caused it, and an id shared by every span of one command or job.
//! Spans stay in memory while the workload runs and are written out as
//! JSON lines when it ends. A disabled tracer records nothing, so the
//! untraced runs that give the end-to-end metrics pay only for the
//! `enabled` check.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span whose bounds the caller already measured; returns
    /// its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: self.ns_since_epoch(start),
            end_ns: self.ns_since_epoch(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.ns_since_epoch(Instant::now());
        }
    }

    /// Times `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.record(name, id, parent, start, Instant::now());
        r
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Summed duration in nanoseconds of every span called `name`.
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line:
    /// `{"i":…,"name":…,"id":…,"parent":…,"start_ns":…,"end_ns":…}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                line,
                r#"{{"i":{i},"name":"{}","id":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.id, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}
