//! Inference requests entering the serving runtime.

use mas_dataflow::{AttentionWorkload, DataflowKind};
use mas_workloads::TraceEvent;

/// One attention inference request: a workload, the dataflow to run it with,
/// an arrival timestamp and an optional latency SLO.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Caller-assigned request id, unique within one trace.
    pub id: u64,
    /// Arrival time in seconds from the start of the trace.
    pub arrival_s: f64,
    /// The dataflow method requested.
    pub method: DataflowKind,
    /// The attention workload to execute.
    pub workload: AttentionWorkload,
    /// Latency SLO relative to arrival, in seconds (`None` = best effort).
    pub deadline_s: Option<f64>,
}

impl ServeRequest {
    /// Creates a request.
    #[must_use]
    pub fn new(
        id: u64,
        arrival_s: f64,
        method: DataflowKind,
        workload: AttentionWorkload,
        deadline_s: Option<f64>,
    ) -> Self {
        Self {
            id,
            arrival_s,
            method,
            workload,
            deadline_s,
        }
    }

    /// Converts a generated request trace (`mas-workloads::traffic`) into a
    /// request stream: ids are assigned in trace order, every request asks
    /// for `method` and carries the same relative deadline.
    #[must_use]
    pub fn stream_from_trace(
        events: &[TraceEvent],
        method: DataflowKind,
        deadline_s: Option<f64>,
    ) -> Vec<ServeRequest> {
        events
            .iter()
            .enumerate()
            .map(|(i, e)| {
                Self::new(
                    i as u64,
                    e.arrival_s,
                    method,
                    e.workload.clone(),
                    deadline_s,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mas_workloads::{request_trace, Network, TraceConfig};

    #[test]
    fn stream_from_trace_assigns_sequential_ids() {
        let trace = request_trace(&TraceConfig::poisson(
            vec![Network::BertSmall, Network::VitB16],
            8,
            100.0,
            3,
        ));
        let stream =
            ServeRequest::stream_from_trace(&trace, DataflowKind::MasAttention, Some(0.05));
        assert_eq!(stream.len(), 8);
        for (i, r) in stream.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.arrival_s, trace[i].arrival_s);
            assert_eq!(r.workload, trace[i].workload);
            assert_eq!(r.deadline_s, Some(0.05));
        }
    }
}
