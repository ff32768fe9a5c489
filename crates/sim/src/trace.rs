//! Execution traces.
//!
//! The executor records, for every task, when it started and finished and on
//! which resource it ran. Traces support debugging dataflows (e.g. verifying
//! that MAS-Attention's MAC and VEC streams really overlap while FLAT's do
//! not) and drive the per-resource utilization statistics in the report.

use serde::{Deserialize, Serialize};

use crate::task::{Label, Resource, TaskId};

/// One scheduled task occurrence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// The task that ran.
    pub task: TaskId,
    /// The task's label, copied unrendered; it is rendered when the trace
    /// is printed ([`Trace::summary`]) or exported.
    pub label: Label,
    /// Resource the task occupied.
    pub resource: Resource,
    /// Cycle at which the task started.
    pub start_cycle: u64,
    /// Cycle at which the task finished (exclusive).
    pub end_cycle: u64,
}

impl TraceEntry {
    /// Duration of the entry in cycles.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end_cycle - self.start_cycle
    }

    /// Whether this entry overlaps in time with another entry.
    #[must_use]
    pub fn overlaps(&self, other: &TraceEntry) -> bool {
        self.start_cycle < other.end_cycle && other.start_cycle < self.end_cycle
    }
}

/// A full execution trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trace with room for `entries` entries.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        Self {
            entries: Vec::with_capacity(entries),
        }
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: TraceEntry) {
        self.entries.push(entry);
    }

    /// All entries in scheduling order.
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// The distinct resources the trace touched, in first-appearance order
    /// (stable track assignment for trace exporters).
    #[must_use]
    pub fn resources(&self) -> Vec<Resource> {
        let mut seen = Vec::new();
        for e in &self.entries {
            if !seen.contains(&e.resource) {
                seen.push(e.resource);
            }
        }
        seen
    }

    /// Entries that ran on a particular resource, in start order.
    #[must_use]
    pub fn on_resource(&self, resource: Resource) -> Vec<&TraceEntry> {
        let mut v: Vec<&TraceEntry> = self
            .entries
            .iter()
            .filter(|e| e.resource == resource)
            .collect();
        v.sort_by_key(|e| e.start_cycle);
        v
    }

    /// Total busy cycles of a resource (sum of entry durations).
    #[must_use]
    pub fn busy_cycles(&self, resource: Resource) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.resource == resource)
            .map(TraceEntry::duration)
            .sum()
    }

    /// Number of cycles during which *both* given resources were busy
    /// simultaneously. Used by tests to verify MAC/VEC overlap in
    /// MAS-Attention and its absence in FLAT.
    #[must_use]
    pub fn overlap_cycles(&self, a: Resource, b: Resource) -> u64 {
        let ea = self.on_resource(a);
        let eb = self.on_resource(b);
        let mut total = 0u64;
        for x in &ea {
            for y in &eb {
                let start = x.start_cycle.max(y.start_cycle);
                let end = x.end_cycle.min(y.end_cycle);
                if end > start {
                    total += end - start;
                }
            }
        }
        total
    }

    /// The makespan: latest end cycle across all entries (0 for an empty
    /// trace).
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.entries.iter().map(|e| e.end_cycle).max().unwrap_or(0)
    }

    /// Renders a compact textual Gantt-like summary, one line per resource,
    /// for debugging small graphs.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::collections::BTreeMap;
        let mut per_resource: BTreeMap<String, Vec<&TraceEntry>> = BTreeMap::new();
        for e in &self.entries {
            per_resource
                .entry(e.resource.to_string())
                .or_default()
                .push(e);
        }
        let mut out = String::new();
        for (res, mut entries) in per_resource {
            entries.sort_by_key(|e| e.start_cycle);
            out.push_str(&res);
            out.push_str(": ");
            for e in entries {
                out.push_str(&format!(
                    "[{}..{} {}] ",
                    e.start_cycle, e.end_cycle, e.label
                ));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(task: usize, resource: Resource, start: u64, end: u64) -> TraceEntry {
        TraceEntry {
            task: TaskId(task),
            label: format!("t{task}").into(),
            resource,
            start_cycle: start,
            end_cycle: end,
        }
    }

    #[test]
    fn duration_and_overlap() {
        let a = entry(0, Resource::Mac { core: 0 }, 0, 10);
        let b = entry(1, Resource::Vec { core: 0 }, 5, 15);
        let c = entry(2, Resource::Vec { core: 0 }, 10, 12);
        assert_eq!(a.duration(), 10);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn busy_and_overlap_cycles() {
        let mut t = Trace::new();
        t.push(entry(0, Resource::Mac { core: 0 }, 0, 10));
        t.push(entry(1, Resource::Mac { core: 0 }, 10, 30));
        t.push(entry(2, Resource::Vec { core: 0 }, 5, 25));
        assert_eq!(t.busy_cycles(Resource::Mac { core: 0 }), 30);
        assert_eq!(t.busy_cycles(Resource::Vec { core: 0 }), 20);
        assert_eq!(
            t.overlap_cycles(Resource::Mac { core: 0 }, Resource::Vec { core: 0 }),
            20
        );
        assert_eq!(t.makespan(), 30);
    }

    #[test]
    fn on_resource_sorted_by_start() {
        let mut t = Trace::new();
        t.push(entry(0, Resource::DmaIn, 50, 60));
        t.push(entry(1, Resource::DmaIn, 0, 10));
        let entries = t.on_resource(Resource::DmaIn);
        assert_eq!(entries.len(), 2);
        assert!(entries[0].start_cycle < entries[1].start_cycle);
    }

    #[test]
    fn summary_mentions_every_resource() {
        let mut t = Trace::new();
        t.push(entry(0, Resource::Mac { core: 0 }, 0, 5));
        t.push(entry(1, Resource::DmaOut, 5, 9));
        let s = t.summary();
        assert!(s.contains("MAC0"));
        assert!(s.contains("DMA-out"));
        assert!(s.contains("t1"));
    }

    #[test]
    fn empty_trace_makespan_is_zero() {
        assert_eq!(Trace::new().makespan(), 0);
    }
}
