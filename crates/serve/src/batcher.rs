//! Prefill micro-batching policy.
//!
//! The engine groups admitted prefill requests by *batch key* — the
//! `(method, heads, seq_len, embed)` shape of the attention they ask for.
//! Requests sharing a key within a batching window are merged into one
//! device launch whose workload has the summed batch dimension: identical
//! requests coalesce outright, and compatible shapes micro-batch (the
//! `(batch, head)` slices of the merged workload are independent, so the
//! dataflows execute them in one schedule). A batch is dispatched when it
//! fills ([`BatchPolicy::max_batch`] member requests), when its window
//! ([`BatchPolicy::window_s`] seconds after its first member's arrival)
//! expires, or when growing further would outrun the device's memory,
//! whichever comes first. [`ServeEngine`](crate::ServeEngine)'s event loop
//! is the one place this policy is applied.

pub use crate::key::BatchKey;

/// Micro-batching configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Maximum number of member requests per batch; a batch dispatches as
    /// soon as it reaches this size.
    pub max_batch: usize,
    /// Batching window in seconds: a batch dispatches at
    /// `first_arrival + window_s` at the latest. `0.0` disables coalescing
    /// (every request is its own batch). Must be finite and `>= 0`.
    pub window_s: f64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 8,
            window_s: 2e-3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheKey, CachedPlan, ScheduleCache};
    use crate::engine::{EngineConfig, ServeEngine};
    use crate::metrics::{RequestOutcome, ServeReport};
    use crate::queue::{AdmissionPolicy, RejectReason};
    use crate::request::ServeRequest;
    use mas_dataflow::{AttentionWorkload, DataflowKind, Tiling};
    use mas_sim::HardwareConfig;
    use mas_workloads::DecodeTrace;
    use std::collections::BTreeMap;

    fn req(id: u64, arrival_s: f64, heads: usize, seq: usize) -> ServeRequest {
        ServeRequest::new(
            id,
            arrival_s,
            DataflowKind::MasAttention,
            AttentionWorkload::new(format!("r{id}"), 1, heads, seq, 64),
            None,
        )
    }

    fn policy(max_batch: usize, window_s: f64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            window_s,
        }
    }

    /// Replays a prefill-only stream with the given batching and admission
    /// policies and the shared budget disabled, so batching alone decides
    /// the launches.
    fn replay(
        requests: &[ServeRequest],
        batching: BatchPolicy,
        admission: AdmissionPolicy,
    ) -> ServeReport {
        let config = EngineConfig {
            batching,
            admission,
            shared_budget_bytes: Some(u64::MAX),
            ..EngineConfig::default()
        };
        ServeEngine::new(config)
            .run(requests, &DecodeTrace::empty())
            .unwrap()
            .prefill
    }

    /// The launches of a report: member outcomes grouped by batch id, in
    /// launch-id order.
    fn launches(report: &ServeReport) -> Vec<Vec<&RequestOutcome>> {
        let mut by_id: BTreeMap<u64, Vec<&RequestOutcome>> = BTreeMap::new();
        for o in &report.outcomes {
            by_id.entry(o.batch_id).or_default().push(o);
        }
        by_id.into_values().collect()
    }

    fn member_ids(launch: &[&RequestOutcome]) -> Vec<u64> {
        launch.iter().map(|o| o.id).collect()
    }

    #[test]
    fn identical_shapes_coalesce_within_the_window() {
        let reqs = vec![
            req(0, 0.0, 8, 256),
            req(1, 0.0005, 8, 256),
            req(2, 0.001, 8, 256),
        ];
        let report = replay(&reqs, policy(8, 0.002), AdmissionPolicy::admit_all());
        let launches = launches(&report);
        assert_eq!(launches.len(), 1);
        assert_eq!(member_ids(&launches[0]), vec![0, 1, 2]);
        // One merged launch: one plan, shared start and completion.
        assert_eq!((report.batches, report.cache_misses), (1, 1));
        assert!(launches[0]
            .iter()
            .all(|o| o.start_s == launches[0][0].start_s
                && o.completion_s == launches[0][0].completion_s));
        assert!(report.rejected.is_empty());
    }

    #[test]
    fn different_shapes_never_merge() {
        let reqs = vec![
            req(0, 0.0, 8, 256),
            req(1, 0.0, 12, 256),
            req(2, 0.0, 8, 512),
        ];
        let report = replay(&reqs, policy(8, 0.01), AdmissionPolicy::admit_all());
        let launches = launches(&report);
        assert_eq!(launches.len(), 3);
        assert!(launches.iter().all(|l| l.len() == 1));
    }

    #[test]
    fn a_full_batch_dispatches_at_the_filling_arrival() {
        let reqs: Vec<ServeRequest> = (0..5).map(|i| req(i, i as f64 * 1e-4, 8, 256)).collect();
        let report = replay(&reqs, policy(4, 1.0), AdmissionPolicy::admit_all());
        let launches = launches(&report);
        assert_eq!(launches.len(), 2);
        // The first four fill a batch at the fourth arrival and start on the
        // idle device right then.
        assert_eq!(member_ids(&launches[0]), vec![0, 1, 2, 3]);
        assert!((launches[0][0].start_s - 3e-4).abs() < 1e-12);
        // The fifth waits out its own window.
        assert_eq!(member_ids(&launches[1]), vec![4]);
        assert!((launches[1][0].start_s - (4e-4 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn window_expiry_dispatches_before_a_late_arrival_joins() {
        let reqs = vec![req(0, 0.0, 8, 256), req(1, 0.5, 8, 256)];
        let report = replay(&reqs, policy(8, 0.001), AdmissionPolicy::admit_all());
        let launches = launches(&report);
        assert_eq!(launches.len(), 2, "the late request starts a new batch");
        assert!((launches[0][0].start_s - 0.001).abs() < 1e-12);
    }

    #[test]
    fn zero_window_disables_coalescing() {
        let reqs = vec![req(0, 0.0, 8, 256), req(1, 0.0, 8, 256)];
        let report = replay(&reqs, policy(8, 0.0), AdmissionPolicy::admit_all());
        assert_eq!(report.batches, 2);
        assert!(launches(&report).iter().all(|l| l.len() == 1));
    }

    #[test]
    fn queue_full_rejections_surface_in_order() {
        let admission = AdmissionPolicy {
            max_queue_depth: Some(2),
            ..AdmissionPolicy::default()
        };
        // Four simultaneous arrivals, depth 2: the last two are shed, in
        // arrival order.
        let reqs: Vec<ServeRequest> = (0..4).map(|i| req(i, 0.0, 8, 256)).collect();
        let report = replay(&reqs, policy(8, 1.0), admission);
        assert_eq!(report.completed(), 2);
        let rejected: Vec<(u64, RejectReason)> =
            report.rejected.iter().map(|r| (r.id, r.reason)).collect();
        assert_eq!(
            rejected,
            vec![(2, RejectReason::QueueFull), (3, RejectReason::QueueFull)]
        );
    }

    #[test]
    fn merging_never_outgrows_the_device() {
        // Each request alone fits DRAM, but eight merged copies would not:
        // the engine must split instead of building an infeasible launch.
        let hw = HardwareConfig::edge_default();
        let big = |batch: usize| AttentionWorkload::new("big", batch, 32, 28672, 128);
        let method = DataflowKind::MasAttention;
        assert!(crate::queue::workload_is_feasible(method, &big(1), &hw));
        assert!(!crate::queue::workload_is_feasible(method, &big(8), &hw));
        // Stub plans for every merged size keep the test about batching:
        // simulating workloads this large would dominate the suite.
        let config = EngineConfig {
            batching: policy(8, 1.0),
            admission: AdmissionPolicy::admit_all(),
            shared_budget_bytes: Some(u64::MAX),
            ..EngineConfig::default()
        };
        let mut cache = ScheduleCache::new();
        for batch in 1..=8 {
            let workload = big(batch);
            let plan = CachedPlan {
                tiling: Tiling::naive(&workload),
                cycles: 1_000_000,
                seconds: 1e-3,
                energy_pj: 1.0,
                dram_read_bytes: 0,
                dram_write_bytes: 0,
                tuned: false,
            };
            cache.insert(CacheKey::of(method, &workload, &config.planner), plan);
        }
        let reqs: Vec<ServeRequest> = (0..8)
            .map(|i| ServeRequest::new(i, 0.0, method, big(1), None))
            .collect();
        let report = ServeEngine::with_cache(config, cache)
            .run(&reqs, &DecodeTrace::empty())
            .unwrap()
            .prefill;
        assert_eq!(report.cache_misses, 0, "every merged size was stubbed");
        let launches = launches(&report);
        assert!(
            launches.len() > 1,
            "an infeasible 8-way merge must split into several batches"
        );
        assert_eq!(report.completed(), 8, "splitting must not drop requests");
        for launch in &launches {
            assert!(
                crate::queue::workload_is_feasible(method, &big(launch.len()), &hw),
                "every dispatched batch must fit the device"
            );
        }
    }

    #[test]
    fn coalesce_is_input_order_independent() {
        let mut reqs = vec![
            req(0, 0.0, 8, 256),
            req(1, 0.01, 12, 256),
            req(2, 0.02, 8, 256),
        ];
        let a = replay(&reqs, policy(8, 0.05), AdmissionPolicy::admit_all());
        reqs.reverse();
        let b = replay(&reqs, policy(8, 0.05), AdmissionPolicy::admit_all());
        assert_eq!(a, b);
        assert_eq!(a.batches, 2);
    }
}
