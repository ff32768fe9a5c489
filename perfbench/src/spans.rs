//! Host-time spans the benchmark records around calls into each layer's
//! public API (the traced run only).
//!
//! Spans nest: a span opened while another is open records it as its
//! parent. A span's *self time* is its duration minus the durations of its
//! direct children, so a parent span that only sequences layer calls shows
//! the benchmark's own bookkeeping and nothing else. Spans stay in memory
//! until the run ends.

use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Instant,
    parent: Option<usize>,
    dur_s: f64,
    child_s: f64,
}

/// An in-memory span recorder. A disabled tracer runs the wrapped calls
/// and records nothing, so the untraced run pays no tracing cost.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records (`enabled`) or only runs the wrapped calls.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`. Spans opened by `f` through the
    /// tracer it is handed become children of this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: Instant::now(),
            parent: self.open.last().copied(),
            dur_s: 0.0,
            child_s: 0.0,
        });
        self.open.push(index);
        let out = f(self);
        let dur_s = self.spans[index].start.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[index].dur_s = dur_s;
        if let Some(parent) = self.spans[index].parent {
            self.spans[parent].child_s += dur_s;
        }
        out
    }

    fn closed<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.dur_s > 0.0)
    }

    /// Number of closed spans named `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.closed(name).count()
    }

    /// Summed self time of the closed spans named `name`, in seconds.
    #[must_use]
    pub fn total_self_s(&self, name: &str) -> f64 {
        self.closed(name).map(|s| s.dur_s - s.child_s).sum()
    }

    /// Mean self time of the closed spans named `name`, in seconds (0 when
    /// there are none).
    #[must_use]
    pub fn mean_self_s(&self, name: &str) -> f64 {
        let count = self.count(name);
        if count == 0 {
            0.0
        } else {
            self.total_self_s(name) / count as f64
        }
    }

    /// One line per span name, in first-opened order: count, total self
    /// time and the name of the parent span.
    #[must_use]
    pub fn summary(&self) -> Vec<String> {
        let mut names: Vec<&'static str> = Vec::new();
        for span in &self.spans {
            if !names.contains(&span.name) {
                names.push(span.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let parent = self
                    .spans
                    .iter()
                    .find(|s| s.name == name)
                    .and_then(|s| s.parent)
                    .map_or("-", |p| self.spans[p].name);
                format!(
                    "span {name}: n={} self={:.3} ms parent={parent}",
                    self.count(name),
                    self.total_self_s(name) * 1e3
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", |t| {
            spin(200);
            t.span("inner", |_| spin(2_000));
        });
        let outer = tracer.total_self_s("outer");
        let inner = tracer.total_self_s("inner");
        assert!(inner >= 2e-3, "inner {inner}");
        assert!(
            outer < inner,
            "outer self {outer} must exclude inner {inner}"
        );
        assert_eq!(tracer.count("outer"), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.span("x", |_| 7);
        assert_eq!(value, 7);
        assert_eq!(tracer.count("x"), 0);
        assert_eq!(tracer.mean_self_s("x"), 0.0);
    }
}
