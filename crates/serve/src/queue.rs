//! Admission control for the request queue.
//!
//! Requests are screened at arrival, before they consume batcher or planner
//! resources. Three checks are applied in order of specificity:
//!
//! 1. **Feasibility** — the workload's operands must fit device DRAM and at
//!    least the naive single-row tiling must fit L1 for the requested
//!    method; otherwise no schedule exists at any tiling.
//! 2. **Deadline screening** — a request whose SLO is below the device's
//!    physical lower-bound service time (peak-MAC compute time, peak-VEC
//!    softmax time and minimum DRAM traffic time, whichever binds) can never
//!    be met, even on an idle device, and is rejected up front.
//! 3. **Backlog bounds** — the batcher may hold at most
//!    [`AdmissionPolicy::max_queue_depth`] not-yet-dispatched requests, and
//!    the *estimated* launch-queue delay (already-dispatched batches waiting
//!    for a device, costed at their physical service-time lower bound) may
//!    not exceed [`AdmissionPolicy::max_est_queue_s`]; beyond either bound,
//!    load is shed instead of growing the queue without bound. The depth
//!    bound caps batcher memory; the delay bound is what engages under
//!    sustained overload, where batches dispatch promptly but the device
//!    cannot drain them.

use mas_dataflow::footprint::tiling_fits;
use mas_dataflow::{AttentionWorkload, DataflowKind, Tiling, TrackDemand};
use mas_sim::HardwareConfig;

/// Why a request was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The workload cannot run on the device with the requested method at
    /// any tiling (operands exceed DRAM, or even the naive tiling overflows
    /// L1).
    InfeasibleWorkload,
    /// The deadline is below the physical lower bound of the service time,
    /// so it would be missed even on an idle device.
    DeadlineImpossible,
    /// The batcher backlog reached the configured depth, or the estimated
    /// launch-queue delay exceeded its bound; load is shed.
    QueueFull,
    /// Admitting the request's activation footprint would overrun the
    /// shared device memory budget — prefill activations and resident
    /// decode KV caches are charged against one pool, so a heavy decode
    /// residency can shed prefill load (and vice versa).
    MemoryPressure,
}

impl RejectReason {
    /// Stable snake_case identifier for machine-readable output (Prometheus
    /// label values, trace-event args). Distinct per variant and free of
    /// spaces, unlike the prose [`Display`](std::fmt::Display) form.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::InfeasibleWorkload => "infeasible_workload",
            RejectReason::DeadlineImpossible => "deadline_impossible",
            RejectReason::QueueFull => "queue_full",
            RejectReason::MemoryPressure => "memory_pressure",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RejectReason::InfeasibleWorkload => "infeasible workload",
            RejectReason::DeadlineImpossible => "deadline below service-time lower bound",
            RejectReason::QueueFull => "queue full",
            RejectReason::MemoryPressure => "shared device memory budget exhausted",
        })
    }
}

/// Admission-control configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Maximum number of admitted-but-not-yet-dispatched requests the
    /// batcher may hold; arrivals beyond this are rejected with
    /// [`RejectReason::QueueFull`]. `None` disables the bound.
    pub max_queue_depth: Option<usize>,
    /// Maximum *estimated* launch-queue delay, in seconds: already-dispatched
    /// batches still waiting for a device, costed at their physical
    /// service-time lower bound. Arrivals that would queue behind more than
    /// this are rejected with [`RejectReason::QueueFull`] — the bound that
    /// engages under sustained overload. `None` disables it.
    pub max_est_queue_s: Option<f64>,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            max_queue_depth: Some(1024),
            max_est_queue_s: Some(0.25),
        }
    }
}

impl AdmissionPolicy {
    /// A policy with no backlog bound (useful for offline replay): it
    /// still rejects infeasible workloads and impossible deadlines.
    #[must_use]
    pub fn admit_all() -> Self {
        Self {
            max_queue_depth: None,
            max_est_queue_s: None,
        }
    }

    /// Screens one request against this policy.
    ///
    /// `backlog` is the number of admitted requests currently waiting in the
    /// batcher; `est_queue_s` is the estimated delay of the dispatched
    /// launch queue (see [`AdmissionPolicy::max_est_queue_s`]). Returns
    /// `Err(reason)` when the request must be rejected.
    pub fn admit(
        &self,
        method: DataflowKind,
        workload: &AttentionWorkload,
        deadline_s: Option<f64>,
        backlog: usize,
        est_queue_s: f64,
        hw: &HardwareConfig,
    ) -> Result<(), RejectReason> {
        if !workload_is_feasible(method, workload, hw) {
            return Err(RejectReason::InfeasibleWorkload);
        }
        if let Some(deadline) = deadline_s {
            if deadline < service_time_lower_bound_s(workload, hw) {
                return Err(RejectReason::DeadlineImpossible);
            }
        }
        if let Some(depth) = self.max_queue_depth {
            if backlog >= depth {
                return Err(RejectReason::QueueFull);
            }
        }
        if let Some(max_delay) = self.max_est_queue_s {
            if est_queue_s > max_delay {
                return Err(RejectReason::QueueFull);
            }
        }
        Ok(())
    }
}

/// Whether the workload can execute on the device with the method at all:
/// its four operands fit DRAM and the naive single-row tiling (the smallest
/// working set any tiling can have) fits L1.
#[must_use]
pub fn workload_is_feasible(
    method: DataflowKind,
    workload: &AttentionWorkload,
    hw: &HardwareConfig,
) -> bool {
    let operands = workload.operand_bytes(hw.element_bytes).saturating_mul(4);
    if operands > hw.dram_bytes as u64 {
        return false;
    }
    tiling_fits(method, workload, &Tiling::naive(workload), hw)
}

/// Physical lower bound on the service time of one workload on an idle
/// device: the largest of peak-throughput MAC time, peak-throughput VEC
/// (softmax) time and minimum DRAM traffic time (the workload's
/// [`TrackDemand`]). Queueing and tiling overheads only add to this, so
/// any deadline below it is hopeless.
#[must_use]
pub fn service_time_lower_bound_s(workload: &AttentionWorkload, hw: &HardwareConfig) -> f64 {
    TrackDemand::of_prefill(workload, hw)
        .stream()
        .bound_seconds(hw)
}

/// Tracks an estimated device timeline during admission so load can be shed
/// when the launch queue falls behind. Estimates cost prefill launches at
/// their physical service-time lower bound (planning has not happened yet)
/// and decode launches at their closed-form service time, so they
/// under-state the true backlog — shedding is conservative, never spurious.
#[derive(Debug, Clone)]
pub(crate) struct BacklogEstimator {
    est_free_s: Vec<f64>,
}

impl BacklogEstimator {
    pub(crate) fn new(devices: usize) -> Self {
        Self {
            est_free_s: vec![0.0; devices.max(1)],
        }
    }

    /// Accounts one dispatched launch of estimated cost `lb_s`, ready at
    /// `ready_s`, on the earliest-free estimated device.
    pub(crate) fn feed(&mut self, ready_s: f64, lb_s: f64) {
        let device = self
            .est_free_s
            .iter_mut()
            .min_by(|a, b| a.partial_cmp(b).expect("times are finite"))
            .expect("at least one device");
        *device = device.max(ready_s) + lb_s;
    }

    /// Estimated queueing delay a launch dispatched at `now_s` would see.
    pub(crate) fn queue_delay_s(&self, now_s: f64) -> f64 {
        let earliest = self
            .est_free_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        (earliest - now_s).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareConfig {
        HardwareConfig::edge_default()
    }

    fn bert() -> AttentionWorkload {
        AttentionWorkload::new("BERT-Base", 1, 12, 512, 64)
    }

    #[test]
    fn default_policy_admits_a_reasonable_request() {
        let policy = AdmissionPolicy::default();
        assert_eq!(
            policy.admit(
                DataflowKind::MasAttention,
                &bert(),
                Some(0.1),
                0,
                0.0,
                &hw()
            ),
            Ok(())
        );
    }

    #[test]
    fn oversized_workloads_are_infeasible() {
        let policy = AdmissionPolicy::default();
        // ~86 GB of operands at seq 2^20 × embed 128 × 32 heads: over 6 GiB DRAM.
        let huge = AttentionWorkload::new("huge", 1, 32, 1 << 20, 128);
        assert_eq!(
            policy.admit(DataflowKind::MasAttention, &huge, None, 0, 0.0, &hw()),
            Err(RejectReason::InfeasibleWorkload)
        );
        assert!(!workload_is_feasible(
            DataflowKind::MasAttention,
            &huge,
            &hw()
        ));
    }

    #[test]
    fn impossible_deadlines_are_screened() {
        let policy = AdmissionPolicy::default();
        let lb = service_time_lower_bound_s(&bert(), &hw());
        assert!(lb > 0.0);
        assert_eq!(
            policy.admit(DataflowKind::Flat, &bert(), Some(lb / 2.0), 0, 0.0, &hw()),
            Err(RejectReason::DeadlineImpossible)
        );
        // At or above the bound the deadline passes the screen.
        assert_eq!(
            policy.admit(DataflowKind::Flat, &bert(), Some(lb * 2.0), 0, 0.0, &hw()),
            Ok(())
        );
    }

    #[test]
    fn queue_depth_sheds_load() {
        let policy = AdmissionPolicy {
            max_queue_depth: Some(2),
            ..AdmissionPolicy::default()
        };
        assert_eq!(
            policy.admit(DataflowKind::Flat, &bert(), None, 1, 0.0, &hw()),
            Ok(())
        );
        assert_eq!(
            policy.admit(DataflowKind::Flat, &bert(), None, 2, 0.0, &hw()),
            Err(RejectReason::QueueFull)
        );
    }

    #[test]
    fn estimated_queue_delay_sheds_load() {
        let policy = AdmissionPolicy {
            max_est_queue_s: Some(0.01),
            ..AdmissionPolicy::default()
        };
        assert_eq!(
            policy.admit(DataflowKind::Flat, &bert(), None, 0, 0.005, &hw()),
            Ok(())
        );
        assert_eq!(
            policy.admit(DataflowKind::Flat, &bert(), None, 0, 0.02, &hw()),
            Err(RejectReason::QueueFull)
        );
    }

    #[test]
    fn lower_bound_scales_with_the_workload() {
        let small = AttentionWorkload::new("s", 1, 2, 128, 64);
        let large = AttentionWorkload::new("l", 1, 16, 1024, 64);
        assert!(
            service_time_lower_bound_s(&large, &hw()) > service_time_lower_bound_s(&small, &hw())
        );
    }

    #[test]
    fn lower_bound_saturates_past_the_u64_range() {
        // B·H·N² = 2⁶⁴: the counts saturate instead of overflowing, and
        // the price does not fall below that of a 4x smaller shape.
        let huge = AttentionWorkload::new("huge", 1, 1 << 20, 1 << 22, 1);
        let quarter = AttentionWorkload::new("quarter", 1, 1 << 20, 1 << 21, 1);
        let (huge_s, quarter_s) = (
            service_time_lower_bound_s(&huge, &hw()),
            service_time_lower_bound_s(&quarter, &hw()),
        );
        assert!(
            huge_s.is_finite() && huge_s >= quarter_s,
            "{huge_s} < {quarter_s}"
        );
    }
}
