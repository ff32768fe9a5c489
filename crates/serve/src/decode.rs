//! Autoregressive decode serving: KV-resident sessions and batched steps.
//!
//! Prefill requests are independent fixed-shape launches. Decode traffic is
//! different in kind: a *session* opens with a prompt already in its KV
//! cache, then issues one step request per generated token, and every step
//! depends on the session's cached `K`/`V` rows staying resident on the
//! device. This module holds the decode policy, cost functions and report
//! that [`ServeEngine`](crate::ServeEngine) applies to that shape:
//!
//! * **Block-granular KV residency** — sessions charge the shared device
//!   KV budget ([`DecodePolicy::kv_budget_bytes`], defaulting to half of
//!   device DRAM) *as they actually grow*, in fixed-size token blocks of
//!   [`DecodePolicy::kv_block_tokens`] (vLLM-style paged allocation,
//!   modeling `mas_tensor::paged::PagedKvCache` over a `KvBlockPool`).
//!   Admission screens only the first step's blocks; a later step that
//!   cannot get a new block is shed as a *pool overflow*
//!   ([`DecodeRejectReason::KvPoolExhausted`]) while its session keeps
//!   decoding at its old residency. Charged bytes release when the
//!   session's last step completes.
//! * **Grouped-query head sharing** — sessions carry
//!   `kv_heads ≤ heads` shared K/V heads
//!   ([`mas_workloads::DecodeSessionSpec::kv_heads`]); residency and
//!   cache-stream traffic shrink by `kv_heads / heads` (Llama3-8B decodes
//!   at a quarter of its MHA KV bytes). Invalid groupings reject the
//!   session at admission instead of panicking.
//! * **Cross-session step batching** — step requests that share a
//!   `(heads, kv_heads, embed)` shape and arrive within
//!   [`DecodePolicy::window_s`] coalesce into one batched launch (each
//!   session contributes its own query row and cache; the slices are
//!   independent, like the `(batch, head)` slices of a merged prefill
//!   workload). Batching amortizes the per-launch issue overhead — the
//!   dominant cost of single-token kernels.
//! * **Decode cost model** — a launch's service time is the physical bound
//!   of its summed per-step work plus one issue overhead, replayed on the
//!   earliest-free virtual device exactly like prefill batches. Each step
//!   is its one-row [`PrefillChunk`] ([`DecodeStep::to_chunk`]), so its MAC,
//!   VEC and DRAM terms, linear in the member's context length, come from
//!   the same closed form as a prefill chunk's, summed as one
//!   [`TrackDemand`]. One crate-private price prices the deadline screen,
//!   every decode launch and the split of a chunked prefill batch.
//!
//! The numerical kernel this models is `mas_tensor::decode::decode_attention`
//! over a `mas_tensor::decode::KvCache` (contiguous) or
//! `mas_tensor::paged::decode_attention_paged` over a block table (paged,
//! bit-identical). Both run the one-row case of tiled attention — per KV
//! head, score the cached rows (MAC), softmax each query head's score row
//! (VEC), accumulate the value rows (MAC) — which is why a decode step is
//! priced as the one-row chunk `(t − 1, 1)`; the test harnesses pin every
//! step bitwise to the last row of `tiled_attention` over its prefix.
//!
//! [`DecodeStep::to_chunk`]: mas_dataflow::decode::DecodeStep::to_chunk

use mas_dataflow::decode::PrefillChunk;
use mas_dataflow::{KvDtype, TrackDemand};
use mas_sim::HardwareConfig;

use crate::metrics::{percentile, LatencyStats};

/// Why a decode session or step was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeRejectReason {
    /// The session's step working set cannot run on the device at all
    /// (streaming footprint over L1, KV cache over device DRAM, or an
    /// invalid grouped-query head configuration).
    InfeasibleSession,
    /// Admitting the session's *initial* KV residency (the blocks of its
    /// first step's context) would exceed the device KV budget.
    KvBudgetExceeded,
    /// The concurrent-session limit was reached.
    SessionLimit,
    /// The per-step deadline is below the step's physical service-time lower
    /// bound, so it would be missed even on an idle device.
    DeadlineImpossible,
    /// The step references a session id absent from the trace's session
    /// table (a malformed or partially assembled trace).
    UnknownSession,
    /// The step needed a new KV block but the shared block pool is
    /// exhausted — a pool overflow. The session keeps its existing blocks;
    /// only this step is shed.
    KvPoolExhausted,
}

impl DecodeRejectReason {
    /// Stable snake_case identifier for machine-readable output (Prometheus
    /// label values, trace-event args). Distinct per variant and free of
    /// spaces, unlike the prose [`Display`](std::fmt::Display) form.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DecodeRejectReason::InfeasibleSession => "infeasible_session",
            DecodeRejectReason::KvBudgetExceeded => "kv_budget_exceeded",
            DecodeRejectReason::SessionLimit => "session_limit",
            DecodeRejectReason::DeadlineImpossible => "deadline_impossible",
            DecodeRejectReason::UnknownSession => "unknown_session",
            DecodeRejectReason::KvPoolExhausted => "kv_pool_exhausted",
        }
    }
}

impl std::fmt::Display for DecodeRejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DecodeRejectReason::InfeasibleSession => "infeasible session",
            DecodeRejectReason::KvBudgetExceeded => "KV budget exceeded",
            DecodeRejectReason::SessionLimit => "session limit reached",
            DecodeRejectReason::DeadlineImpossible => {
                "deadline below decode service-time lower bound"
            }
            DecodeRejectReason::UnknownSession => "unknown session id",
            DecodeRejectReason::KvPoolExhausted => "shared KV block pool exhausted",
        })
    }
}

/// Decode admission and batching configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodePolicy {
    /// Device bytes available for resident KV caches. `None` defaults to
    /// half of device DRAM (the other half is headroom for operands and
    /// prefill traffic).
    pub kv_budget_bytes: Option<u64>,
    /// Maximum concurrently open sessions. `None` disables the bound (the
    /// KV budget is then the only residency limit).
    pub max_sessions: Option<usize>,
    /// Step-coalescing window in seconds: a launch dispatches at
    /// `first_step_arrival + window_s` at the latest. `0.0` disables
    /// batching (every step launches alone). Must be finite and `>= 0`.
    pub window_s: f64,
    /// Maximum member steps per launch; a launch dispatches as soon as it
    /// reaches this size.
    pub max_steps_per_launch: usize,
    /// Uniform per-step latency SLO relative to the step's arrival
    /// (`None` = best effort). Steps whose SLO is below the physical lower
    /// bound at their context length are rejected up front.
    pub step_deadline_s: Option<f64>,
    /// KV-cache streaming granularity (rows per sub-tile) used for the L1
    /// footprint feasibility screen.
    pub kv_tile_rows: usize,
    /// KV residency charging granularity in tokens per block. Sessions
    /// charge the shared block pool on *actual growth*: a session pays for
    /// the blocks its current context occupies (`DecodeStep::paged_kv_bytes`),
    /// admission screens only the first step's blocks, and a step that
    /// cannot get a new block is shed with
    /// [`DecodeRejectReason::KvPoolExhausted`] (a *pool overflow*) while the
    /// session keeps decoding at its old residency. `0` clamps to one-token
    /// blocks.
    pub kv_block_tokens: usize,
    /// KV storage dtype used to price residency charges and the cache-stream
    /// term of launch costing. `None` inherits the device element size
    /// (`hw.element_bytes`); `Some(KvDtype::F16)` prices KV at 2 bytes per
    /// element — halving residency charges relative to f32 activations and
    /// admitting ~2× the sessions under the same budget. The compute dtype
    /// is unchanged (kernels widen KV tiles to f32).
    pub kv_dtype: Option<KvDtype>,
    /// Cross-session KV prefix sharing. When `true` and a session declares a
    /// prefix group (`DecodeSessionSpec::prefix_group`), the full blocks of
    /// its shared prefix ([`DecodeStep::shared_kv_bytes`]) are charged
    /// against the budget *once per group* instead of once per session, and
    /// released with the group's last session; a partially filled tail
    /// block and every decode block stay private to the session. Default
    /// `false`: fully private residency.
    ///
    /// [`DecodeStep::shared_kv_bytes`]: mas_dataflow::decode::DecodeStep::shared_kv_bytes
    pub prefix_share: bool,
}

impl Default for DecodePolicy {
    fn default() -> Self {
        Self {
            kv_budget_bytes: None,
            max_sessions: None,
            window_s: 2e-3,
            max_steps_per_launch: 16,
            step_deadline_s: None,
            kv_tile_rows: 64,
            kv_block_tokens: 16,
            kv_dtype: None,
            prefix_share: false,
        }
    }
}

impl DecodePolicy {
    /// The effective KV budget on `hw` (explicit bytes, or half of DRAM).
    #[must_use]
    pub fn kv_budget(&self, hw: &HardwareConfig) -> u64 {
        self.kv_budget_bytes.unwrap_or(hw.dram_bytes as u64 / 2)
    }

    /// The launch-size cap the engine actually enforces: a degenerate
    /// `max_steps_per_launch == 0` clamps to 1 (every step launches alone),
    /// exactly like the `kv_block_tokens == 0` → one-token-blocks
    /// normalization. This is the *single* normalization site — the engine
    /// must never re-derive the clamp inline, so the replayed policy and
    /// the telemetry-reconstructed one can't drift.
    #[must_use]
    pub fn effective_max_steps_per_launch(&self) -> usize {
        self.max_steps_per_launch.max(1)
    }

    /// Bytes per stored KV element under this policy on `hw`: the explicit
    /// [`DecodePolicy::kv_dtype`]'s width, or the device element size.
    #[must_use]
    pub fn kv_element_bytes(&self, hw: &HardwareConfig) -> usize {
        self.kv_dtype
            .map_or(hw.element_bytes, |dtype| dtype.element_bytes())
    }
}

/// The launch-issue overhead in seconds: the fixed cost every launch pays
/// once, whatever its size, and what batching and chunk fusion amortize.
pub(crate) fn issue_s(hw: &HardwareConfig) -> f64 {
    hw.issue_overhead_cycles as f64 / hw.frequency_hz
}

/// The closed-form demand of one launch: the summed [`TrackDemand`] of its
/// decode steps and prefill chunks, each streaming its own KV cache at the
/// policy's KV element size. It prices the decode deadline screen, every
/// decode launch (recompute resumes included) and the split of a chunked
/// prefill batch, so those never disagree, and the track executor places
/// the same record. A decode step is priced once, when it arrives: the
/// screen wraps the step's own demand as a solo launch, and its open
/// launch adds it as the step joins with [`TrackDemand::accumulate`]
/// (saturating integer addition, so the sum is the same whenever it is
/// taken). Prefill admission keeps
/// [`service_time_lower_bound_s`](crate::queue::service_time_lower_bound_s),
/// which leaves the issue overhead out.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LaunchDemand(pub(crate) TrackDemand);

impl LaunchDemand {
    /// Adds one prefill chunk: the exact closed-form sum of the decode
    /// steps it fuses.
    pub(crate) fn add_chunk(&mut self, chunk: &PrefillChunk, hw: &HardwareConfig, kv_bytes: usize) {
        self.0
            .accumulate(&TrackDemand::of_prefill_chunk_with_kv(chunk, hw, kv_bytes));
    }

    /// The launch's service time on an idle device: the binding component
    /// of the summed work (peak-throughput MAC or VEC time, or minimum DRAM
    /// traffic time) plus one issue overhead. Queueing only adds to it, so
    /// a step whose deadline is below its solo price can never meet it.
    pub(crate) fn service_s(&self, hw: &HardwareConfig) -> f64 {
        self.0.stream().bound_seconds(hw) + issue_s(hw)
    }
}

/// The fate of one completed decode step.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeStepOutcome {
    /// The session the step belongs to.
    pub session_id: u64,
    /// Zero-based index of the step within its session.
    pub step_index: usize,
    /// Context length attended (prompt plus generated tokens so far,
    /// including this step's).
    pub context_len: usize,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Virtual time the step's launch started on its device.
    pub start_s: f64,
    /// Virtual time the step's launch completed.
    pub completion_s: f64,
    /// Simulated service time of the launch that carried this step.
    pub service_s: f64,
    /// The step's relative deadline, if any.
    pub deadline_s: Option<f64>,
    /// Whether the end-to-end step latency met the deadline (`true` when no
    /// deadline was set).
    pub deadline_met: bool,
    /// Creation-order id of the launch that carried this step.
    pub launch_id: u64,
    /// Virtual device the launch ran on.
    pub device: usize,
}

impl DecodeStepOutcome {
    /// End-to-end step latency: completion minus arrival.
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.completion_s - self.arrival_s
    }
}

/// A decode step refused at admission (with its session's reason when the
/// whole session was rejected).
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedDecodeStep {
    /// The session the step belongs to.
    pub session_id: u64,
    /// Zero-based index of the step within its session.
    pub step_index: usize,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Why it was rejected.
    pub reason: DecodeRejectReason,
}

/// Aggregate result of replaying one decode trace. A pure function of the
/// trace, the policy and the hardware.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecodeReport {
    /// Completed steps in launch order (members in arrival order).
    pub outcomes: Vec<DecodeStepOutcome>,
    /// Rejected steps in arrival order.
    pub rejected: Vec<RejectedDecodeStep>,
    /// Sessions rejected at open, with reasons, in open order.
    pub rejected_sessions: Vec<(u64, DecodeRejectReason)>,
    /// Sessions admitted.
    pub sessions_admitted: usize,
    /// Batched launches dispatched.
    pub launches: usize,
    /// Virtual time at which the last launch completed.
    pub makespan_s: f64,
    /// Peak allocated-block bytes charged against the KV budget at once.
    pub kv_peak_bytes: u64,
    /// Peak KV blocks allocated at once across all sessions.
    pub kv_peak_blocks: u64,
    /// Internal fragmentation at the charge peak: the fraction of charged
    /// bytes not holding an actual context token (partial-tail-block
    /// waste).
    pub kv_frag_at_peak: f64,
    /// Seconds each virtual device spent busy with decode launches, indexed
    /// by device. Empty when no decode launch dispatched (so prefill-only
    /// runs keep this report equal to its default).
    pub device_busy_s: Vec<f64>,
    /// Peak bytes of group-shared prefix blocks resident at once (charged
    /// once per prefix group). Zero unless `DecodePolicy::prefix_share` is
    /// on and some admitted session declared a prefix group.
    pub kv_shared_peak_bytes: u64,
    /// Sessions admitted with prefix sharing active (their shared prefix
    /// blocks were charged group-wide rather than privately).
    pub shared_sessions: usize,
}

impl DecodeReport {
    /// Number of completed steps.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }

    /// Sustained decode throughput: completed steps per second of makespan.
    #[must_use]
    pub fn steps_per_s(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.completed() as f64 / self.makespan_s
    }

    /// Mean member steps per launch (the batching factor).
    #[must_use]
    pub fn mean_launch_size(&self) -> f64 {
        if self.launches == 0 {
            return 0.0;
        }
        self.completed() as f64 / self.launches as f64
    }

    /// Step latency at percentile `p` (nearest rank), or `None` with no
    /// completed steps.
    #[must_use]
    pub fn latency_percentile_s(&self, p: f64) -> Option<f64> {
        let latencies: Vec<f64> = self
            .outcomes
            .iter()
            .map(DecodeStepOutcome::latency_s)
            .collect();
        percentile(&latencies, p)
    }

    /// The report's latency summary (count, mean, p50, p99), or `None` with
    /// no completed steps — the same [`LatencyStats`] type the prefill and
    /// engine reports expose.
    #[must_use]
    pub fn latency_stats(&self) -> Option<LatencyStats> {
        let latencies: Vec<f64> = self
            .outcomes
            .iter()
            .map(DecodeStepOutcome::latency_s)
            .collect();
        LatencyStats::of(&latencies)
    }

    /// Completed steps that missed their deadline.
    #[must_use]
    pub fn deadline_missed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.deadline_met).count()
    }

    /// Steps shed because the shared KV block pool was exhausted (pool
    /// overflows).
    #[must_use]
    pub fn pool_overflows(&self) -> usize {
        self.rejected
            .iter()
            .filter(|r| r.reason == DecodeRejectReason::KvPoolExhausted)
            .count()
    }

    /// A compact human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let fmt_ms =
            |s: Option<f64>| s.map_or_else(|| "-".to_string(), |v| format!("{:.3} ms", v * 1e3));
        let mut out = format!(
            "decode: {} steps ({} sessions) / {} rejected in {} launches (mean {:.1} steps) | \
             {:.0} steps/s | latency p50 {} p99 {} | deadline misses {} | peak KV {:.1} MB \
             ({} blocks, {:.1}% frag) | pool overflows {}",
            self.completed(),
            self.sessions_admitted,
            self.rejected.len(),
            self.launches,
            self.mean_launch_size(),
            self.steps_per_s(),
            fmt_ms(self.latency_percentile_s(50.0)),
            fmt_ms(self.latency_percentile_s(99.0)),
            self.deadline_missed(),
            self.kv_peak_bytes as f64 / 1e6,
            self.kv_peak_blocks,
            self.kv_frag_at_peak * 100.0,
            self.pool_overflows(),
        );
        if self.shared_sessions > 0 {
            out.push_str(&format!(
                " | shared prefixes: {} sessions, {:.1} MB shared peak",
                self.shared_sessions,
                self.kv_shared_peak_bytes as f64 / 1e6,
            ));
        }
        if !self.device_busy_s.is_empty() {
            let per_device: Vec<String> = self
                .device_busy_s
                .iter()
                .enumerate()
                .map(|(d, &busy)| {
                    let pct = if self.makespan_s > 0.0 {
                        busy / self.makespan_s * 100.0
                    } else {
                        0.0
                    };
                    format!("d{d} {pct:.1}%")
                })
                .collect();
            out.push_str(&format!(" | busy {}", per_device.join(" ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, ServeEngine};
    use mas_dataflow::decode::DecodeStep;
    use mas_workloads::{
        decode_trace, DecodeSessionSpec, DecodeStepEvent, DecodeTrace, DecodeTraceConfig, Network,
    };

    fn hw() -> HardwareConfig {
        HardwareConfig::edge_default()
    }

    /// Replays a decode-only trace through the engine on `devices` devices.
    fn replay_on(policy: DecodePolicy, devices: usize, trace: &DecodeTrace) -> DecodeReport {
        let config = EngineConfig {
            decode: policy,
            devices,
            ..EngineConfig::default()
        };
        ServeEngine::new(config)
            .run(&[], trace)
            .expect("decode-only streams never plan")
            .decode
    }

    fn replay(policy: DecodePolicy, trace: &DecodeTrace) -> DecodeReport {
        replay_on(policy, 1, trace)
    }

    /// A hand-built trace: `sessions` sessions of `steps` steps each, step i
    /// of every session arriving at `i * gap_s` (cross-session simultaneous).
    fn lockstep_trace(sessions: u64, steps: usize, prompt: usize, gap_s: f64) -> DecodeTrace {
        let specs: Vec<DecodeSessionSpec> = (0..sessions)
            .map(|id| DecodeSessionSpec {
                id,
                network: Network::BertSmall,
                start_s: 0.0,
                heads: 8,
                kv_heads: 8,
                embed: 64,
                prompt_len: prompt,
                steps,
                prefix_group: None,
                shared_prefix_len: 0,
            })
            .collect();
        let mut events = Vec::new();
        for step_index in 0..steps {
            for id in 0..sessions {
                events.push(DecodeStepEvent {
                    session_id: id,
                    step_index,
                    arrival_s: step_index as f64 * gap_s + 1e-9,
                });
            }
        }
        DecodeTrace {
            sessions: specs,
            steps: events,
        }
    }

    /// The price of a launch of `steps` at `kv_bytes` per KV element.
    fn price(steps: &[DecodeStep], kv_bytes: usize) -> f64 {
        let hw = hw();
        let mut demand = LaunchDemand::default();
        for step in steps {
            (demand.0).accumulate(&TrackDemand::of_decode_step_with_kv(step, &hw, kv_bytes));
        }
        demand.service_s(&hw)
    }

    #[test]
    fn lower_bound_grows_linearly_with_context() {
        let hw = hw();
        let short = DecodeStep::new("s", 1, 8, 128, 64);
        let long = short.with_context(1024);
        let lb_short = price(std::slice::from_ref(&short), hw.element_bytes);
        let lb_long = price(std::slice::from_ref(&long), hw.element_bytes);
        assert!(lb_long > lb_short);
        // Linear in context up to the fixed launch overhead.
        let ratio = (lb_long - issue_s(&hw)) / (lb_short - issue_s(&hw));
        assert!((ratio - 8.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn batched_launch_beats_solo_launches() {
        let steps: Vec<DecodeStep> = (0..8)
            .map(|i| DecodeStep::new("s", 1, 8, 128 + i, 64))
            .collect();
        let eb = hw().element_bytes;
        let batched = price(&steps, eb);
        let solo: f64 = steps
            .iter()
            .map(|s| price(std::slice::from_ref(s), eb))
            .sum();
        assert!(
            batched < solo,
            "batched {batched} must beat serial solo {solo}"
        );
    }

    #[test]
    fn lockstep_sessions_batch_into_shared_launches() {
        let trace = lockstep_trace(4, 6, 32, 0.01);
        let report = replay(DecodePolicy::default(), &trace);
        assert_eq!(report.completed(), 24);
        assert_eq!(report.sessions_admitted, 4);
        assert!(report.rejected.is_empty());
        // Four simultaneous same-shape steps share one launch per tick.
        assert_eq!(report.launches, 6);
        assert!((report.mean_launch_size() - 4.0).abs() < 1e-12);
        // Context grows by one per step.
        let first = report.outcomes.iter().find(|o| o.step_index == 0).unwrap();
        let last = report.outcomes.iter().find(|o| o.step_index == 5).unwrap();
        assert_eq!(first.context_len, 33);
        assert_eq!(last.context_len, 38);
    }

    #[test]
    fn kv_budget_sheds_whole_sessions() {
        // Each session opens at context 33 and ends at 38: three 16-token
        // blocks (48 tokens of KV) for its whole life.
        let per_session = DecodeStep::new("s", 1, 8, 48, 64).kv_cache_bytes(hw().element_bytes);
        let policy = DecodePolicy {
            kv_budget_bytes: Some(2 * per_session + per_session / 2),
            ..DecodePolicy::default()
        };
        let trace = lockstep_trace(4, 6, 32, 0.01);
        let report = replay(policy, &trace);
        assert_eq!(report.sessions_admitted, 2);
        assert_eq!(report.rejected_sessions.len(), 2);
        assert!(report
            .rejected_sessions
            .iter()
            .all(|(_, r)| *r == DecodeRejectReason::KvBudgetExceeded));
        // Every step of a rejected session is rejected; admitted ones all run.
        assert_eq!(report.completed(), 12);
        assert_eq!(report.rejected.len(), 12);
        assert!(report.kv_peak_bytes <= policy.kv_budget(&hw()));
    }

    #[test]
    fn f16_kv_policy_charges_half_and_admits_double() {
        // Same trace, same budget: pricing KV at f16 (2 B) instead of f32
        // (4 B) halves each session's three-block charge, so twice the
        // sessions fit. The budget is sized for two and a half f32 sessions.
        let per_session_f32 = DecodeStep::new("s", 1, 8, 48, 64).kv_cache_bytes(4);
        let base = DecodePolicy {
            kv_budget_bytes: Some(2 * per_session_f32 + per_session_f32 / 2),
            kv_dtype: Some(KvDtype::F32),
            ..DecodePolicy::default()
        };
        let half = DecodePolicy {
            kv_dtype: Some(KvDtype::F16),
            ..base
        };
        assert_eq!(base.kv_element_bytes(&hw()), 4);
        assert_eq!(half.kv_element_bytes(&hw()), 2);
        let trace = lockstep_trace(4, 6, 32, 0.01);
        let f32_report = replay(base, &trace);
        let f16_report = replay(half, &trace);
        assert_eq!(f32_report.sessions_admitted, 2);
        assert_eq!(f16_report.sessions_admitted, 4);
        assert!(f16_report.rejected.is_empty());
        // Charges are exactly half per admitted session.
        assert_eq!(f16_report.kv_peak_bytes, f32_report.kv_peak_bytes);
        assert_eq!(f32_report.completed(), 12);
        assert_eq!(f16_report.completed(), 24);
    }

    #[test]
    fn kv_bytes_release_when_a_session_finishes() {
        // Session 0 finishes its 2 steps early; session 1 opens much later
        // and must reuse the released budget.
        let specs = vec![
            DecodeSessionSpec {
                id: 0,
                network: Network::BertSmall,
                start_s: 0.0,
                heads: 8,
                kv_heads: 8,
                embed: 64,
                prompt_len: 32,
                steps: 2,
                prefix_group: None,
                shared_prefix_len: 0,
            },
            DecodeSessionSpec {
                id: 1,
                network: Network::BertSmall,
                start_s: 1.0,
                heads: 8,
                kv_heads: 8,
                embed: 64,
                prompt_len: 32,
                steps: 2,
                prefix_group: None,
                shared_prefix_len: 0,
            },
        ];
        let mut events = Vec::new();
        for (id, base) in [(0u64, 0.0f64), (1, 1.0)] {
            for step_index in 0..2 {
                events.push(DecodeStepEvent {
                    session_id: id,
                    step_index,
                    arrival_s: base + step_index as f64 * 0.01,
                });
            }
        }
        let trace = DecodeTrace {
            sessions: specs,
            steps: events,
        };
        // Contexts 33..=34: three 16-token blocks per session.
        let per_session = DecodeStep::new("s", 1, 8, 48, 64).kv_cache_bytes(hw().element_bytes);
        let policy = DecodePolicy {
            kv_budget_bytes: Some(per_session), // room for exactly one at a time
            ..DecodePolicy::default()
        };
        let report = replay(policy, &trace);
        assert_eq!(report.sessions_admitted, 2, "{}", report.summary());
        assert!(report.rejected_sessions.is_empty());
        assert_eq!(report.completed(), 4);
        assert_eq!(report.kv_peak_bytes, per_session);
    }

    #[test]
    fn session_limit_bounds_concurrency() {
        let policy = DecodePolicy {
            max_sessions: Some(3),
            ..DecodePolicy::default()
        };
        let trace = lockstep_trace(5, 2, 16, 0.01);
        let report = replay(policy, &trace);
        assert_eq!(report.sessions_admitted, 3);
        assert!(report
            .rejected_sessions
            .iter()
            .all(|(_, r)| *r == DecodeRejectReason::SessionLimit));
    }

    #[test]
    fn impossible_step_deadlines_are_screened() {
        let policy = DecodePolicy {
            step_deadline_s: Some(1e-12),
            ..DecodePolicy::default()
        };
        let trace = lockstep_trace(1, 3, 16, 0.01);
        let report = replay(policy, &trace);
        assert_eq!(report.completed(), 0);
        assert_eq!(report.rejected.len(), 3);
        assert!(report
            .rejected
            .iter()
            .all(|r| r.reason == DecodeRejectReason::DeadlineImpossible));
    }

    #[test]
    fn generous_deadlines_are_met_under_light_load() {
        let policy = DecodePolicy {
            step_deadline_s: Some(0.5),
            ..DecodePolicy::default()
        };
        let trace = lockstep_trace(2, 4, 16, 0.05);
        let report = replay(policy, &trace);
        assert_eq!(report.completed(), 8);
        assert_eq!(report.deadline_missed(), 0);
    }

    #[test]
    fn infeasible_sessions_are_rejected_up_front() {
        let specs = vec![DecodeSessionSpec {
            id: 0,
            network: Network::BertSmall,
            start_s: 0.0,
            heads: 32,
            kv_heads: 32,
            embed: 128,
            prompt_len: 1 << 28, // ~2 TB of KV at max context
            steps: 1,
            prefix_group: None,
            shared_prefix_len: 0,
        }];
        let trace = DecodeTrace {
            sessions: specs,
            steps: vec![DecodeStepEvent {
                session_id: 0,
                step_index: 0,
                arrival_s: 0.0,
            }],
        };
        let report = replay(DecodePolicy::default(), &trace);
        assert_eq!(
            report.rejected_sessions,
            vec![(0, DecodeRejectReason::InfeasibleSession)]
        );
        assert_eq!(report.completed(), 0);
    }

    #[test]
    fn deadline_rejected_sessions_still_release_their_kv() {
        // Session 0's steps are all screened out (impossible deadline), so
        // its KV must be released; session 1 opens later with a budget sized
        // for one session and must be admitted.
        let specs = vec![
            DecodeSessionSpec {
                id: 0,
                network: Network::BertSmall,
                start_s: 0.0,
                heads: 8,
                kv_heads: 8,
                embed: 64,
                prompt_len: 32,
                steps: 2,
                prefix_group: None,
                shared_prefix_len: 0,
            },
            DecodeSessionSpec {
                id: 1,
                network: Network::BertSmall,
                start_s: 1.0,
                heads: 8,
                kv_heads: 8,
                embed: 64,
                prompt_len: 32,
                steps: 2,
                prefix_group: None,
                shared_prefix_len: 0,
            },
        ];
        let mut events = Vec::new();
        for (id, base) in [(0u64, 0.0f64), (1, 1.0)] {
            for step_index in 0..2 {
                events.push(DecodeStepEvent {
                    session_id: id,
                    step_index,
                    arrival_s: base + step_index as f64 * 0.01,
                });
            }
        }
        let trace = DecodeTrace {
            sessions: specs,
            steps: events,
        };
        // Admission charges three 16-token blocks (context 33).
        let per_session = DecodeStep::new("s", 1, 8, 48, 64).kv_cache_bytes(hw().element_bytes);
        // A deadline only the *short-context* session-1 steps could meet is
        // hard to construct; instead make every step impossible and assert
        // session 1 is admitted (KV freed) even though all steps reject.
        let policy = DecodePolicy {
            kv_budget_bytes: Some(per_session),
            step_deadline_s: Some(1e-12),
            ..DecodePolicy::default()
        };
        let report = replay(policy, &trace);
        assert_eq!(
            report.sessions_admitted,
            2,
            "session 0's KV must release when its steps are all screened: {}",
            report.summary()
        );
        assert!(report.rejected_sessions.is_empty());
        assert_eq!(report.rejected.len(), 4);
    }

    #[test]
    fn malformed_traces_are_rejected_not_panicked() {
        // A step referencing a session id absent from the table, and a
        // session whose first event is mid-stream (step_index > 0).
        let trace = DecodeTrace {
            sessions: vec![DecodeSessionSpec {
                id: 0,
                network: Network::BertSmall,
                start_s: 0.0,
                heads: 8,
                kv_heads: 8,
                embed: 64,
                prompt_len: 16,
                steps: 3,
                prefix_group: None,
                shared_prefix_len: 0,
            }],
            steps: vec![
                DecodeStepEvent {
                    session_id: 99,
                    step_index: 0,
                    arrival_s: 0.0,
                },
                DecodeStepEvent {
                    session_id: 0,
                    step_index: 1, // resumed mid-session: admitted here
                    arrival_s: 0.01,
                },
            ],
        };
        let report = replay(DecodePolicy::default(), &trace);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(
            report.rejected[0].reason,
            DecodeRejectReason::UnknownSession
        );
        assert_eq!(report.completed(), 1, "the mid-stream session still runs");
        assert_eq!(report.outcomes[0].context_len, 16 + 1 + 1);
        assert_eq!(report.sessions_admitted, 1);
    }

    #[test]
    fn zero_max_steps_per_launch_normalizes_to_one() {
        // The single normalization site (satellite of the chunked-prefill
        // PR): a degenerate 0 behaves exactly like 1, and the engine replay
        // under both policies is identical.
        let zero = DecodePolicy {
            max_steps_per_launch: 0,
            ..DecodePolicy::default()
        };
        let one = DecodePolicy {
            max_steps_per_launch: 1,
            ..DecodePolicy::default()
        };
        assert_eq!(zero.effective_max_steps_per_launch(), 1);
        assert_eq!(one.effective_max_steps_per_launch(), 1);
        assert_eq!(
            DecodePolicy::default().effective_max_steps_per_launch(),
            DecodePolicy::default().max_steps_per_launch
        );
        let trace = lockstep_trace(3, 4, 16, 0.01);
        let with_zero = replay(zero, &trace);
        let with_one = replay(one, &trace);
        assert_eq!(with_zero, with_one);
        // Size-1 launches: nothing ever coalesces.
        assert_eq!(with_zero.launches, with_zero.completed());
    }

    #[test]
    fn chunk_service_time_matches_its_fused_decode_steps() {
        // A chunk's price is the fused decode chain's demand bound plus ONE
        // issue overhead (that is the fusion saving), under any KV dtype.
        let hw = hw();
        let chunk = PrefillChunk::new(1, 8, 64, 16, 64);
        for kv_eb in [hw.element_bytes, hw.element_bytes / 2] {
            let mut fused = LaunchDemand::default();
            fused.add_chunk(&chunk, &hw, kv_eb);
            let (fused, chain) = (fused.service_s(&hw), price(&chunk.decode_steps(), kv_eb));
            assert!((fused - chain).abs() < 1e-15, "fused {fused} chain {chain}");
        }
    }

    #[test]
    fn more_chunks_only_add_issue_overheads() {
        // Splitting a prompt slice into more chunks keeps its work and adds
        // one issue overhead per extra chunk.
        let hw = hw();
        let chunk_price = |prefilled: usize, tokens: usize| {
            let mut demand = LaunchDemand::default();
            let chunk = PrefillChunk::new(1, 8, prefilled, tokens, 64);
            demand.add_chunk(&chunk, &hw, hw.element_bytes);
            demand.service_s(&hw)
        };
        let whole = chunk_price(0, 128);
        let halves = chunk_price(0, 64) + chunk_price(64, 64);
        assert!(halves > whole);
        let extra = halves - whole;
        assert!(
            (extra - issue_s(&hw)).abs() < 1e-9 * whole,
            "two chunks cost {extra} s over one, against one issue overhead"
        );
    }

    /// The deadline screen and a solo decode launch use one price: a step
    /// whose deadline equals it to the last bit is admitted and served in
    /// exactly that time, and one whose deadline is the next f64 down is
    /// screened out.
    #[test]
    fn lower_bound_is_a_solo_launch() {
        let trace = lockstep_trace(1, 1, 332, 0.0);
        let trace = DecodeTrace {
            steps: vec![DecodeStepEvent {
                arrival_s: 0.0,
                ..trace.steps[0]
            }],
            ..trace
        };
        for kv_dtype in [KvDtype::F32, KvDtype::F16] {
            let step = DecodeStep::new("s", 1, 8, 333, 64);
            let solo = price(&[step], kv_dtype.element_bytes());
            let at = |deadline: f64| {
                let policy = DecodePolicy {
                    window_s: 0.0,
                    step_deadline_s: Some(deadline),
                    kv_dtype: Some(kv_dtype),
                    ..DecodePolicy::default()
                };
                replay(policy, &trace)
            };
            let served = at(solo);
            assert_eq!(served.outcomes.len(), 1, "{kv_dtype:?}");
            assert_eq!(served.outcomes[0].service_s.to_bits(), solo.to_bits());
            assert!(served.outcomes[0].deadline_met);
            let screened = at(solo.next_down());
            assert!(screened.outcomes.is_empty(), "{kv_dtype:?}");
            assert_eq!(
                screened.rejected[0].reason,
                DecodeRejectReason::DeadlineImpossible
            );
        }
    }

    #[test]
    fn generated_traces_replay_deterministically() {
        let cfg =
            DecodeTraceConfig::poisson(vec![Network::BertSmall, Network::T5Mini], 20, 200.0, 9);
        let trace = decode_trace(&cfg);
        let a = replay(DecodePolicy::default(), &trace);
        let b = replay(DecodePolicy::default(), &trace);
        assert_eq!(a, b);
        assert_eq!(a.completed() + a.rejected.len(), trace.total_steps());
        assert!(a.steps_per_s() > 0.0);
        assert!(a.latency_percentile_s(50.0).unwrap() <= a.latency_percentile_s(99.0).unwrap());
        let s = a.summary();
        assert!(s.contains("steps/s"));
    }

    #[test]
    fn zero_window_disables_batching() {
        let policy = DecodePolicy {
            window_s: 0.0,
            ..DecodePolicy::default()
        };
        let trace = lockstep_trace(3, 2, 16, 0.01);
        let report = replay(policy, &trace);
        assert_eq!(report.launches, 6, "every step launches alone");
        assert!((report.mean_launch_size() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extra_devices_cut_decode_makespan() {
        let policy = DecodePolicy {
            window_s: 0.0,
            ..DecodePolicy::default()
        };
        let trace = lockstep_trace(6, 4, 512, 0.0);
        let one = replay_on(policy, 1, &trace).makespan_s;
        let two = replay_on(policy, 2, &trace).makespan_s;
        assert!(two < one, "two devices ({two} s) must beat one ({one} s)");
    }

    #[test]
    fn paged_charging_grows_with_actual_context_not_max() {
        // One session, prompt 8, 4 steps, 16-token blocks: the charge starts
        // at one block (context 9) and never reaches the max-context worst
        // case.
        let trace = lockstep_trace(1, 4, 8, 0.01);
        let step_at = |t: usize| DecodeStep::new("s", 1, 8, t, 64);
        let report = replay(DecodePolicy::default(), &trace);
        assert_eq!(report.completed(), 4);
        assert_eq!(report.pool_overflows(), 0);
        // Context ends at 12 tokens: still one 16-token block.
        assert_eq!(report.kv_peak_blocks, 1);
        assert_eq!(
            report.kv_peak_bytes,
            step_at(12).kv_block_bytes(16, hw().element_bytes)
        );
        let max_context = step_at(12).kv_cache_bytes(hw().element_bytes);
        assert!(report.kv_peak_bytes <= 2 * max_context);
        // Fragmentation at peak: 12 of 16 slots used.
        assert!((report.kv_frag_at_peak - 4.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn paged_pool_overflow_sheds_steps_not_sessions() {
        // Budget of exactly two 16-token blocks per the session's shape: the
        // session is admitted (first step needs one block) and decodes until
        // context crosses 32 tokens, after which every step that needs a
        // third block is shed as a pool overflow.
        let block = DecodeStep::new("s", 1, 8, 1, 64).kv_block_bytes(16, hw().element_bytes);
        let policy = DecodePolicy {
            kv_budget_bytes: Some(2 * block),
            ..DecodePolicy::default()
        };
        let trace = lockstep_trace(1, 30, 8, 0.01); // context 9..=38
        let report = replay(policy, &trace);
        assert_eq!(report.sessions_admitted, 1);
        assert!(report.rejected_sessions.is_empty(), "sessions are kept");
        // Steps up to context 32 run: contexts 9..=32 are steps 0..=23.
        assert_eq!(report.completed(), 24);
        assert_eq!(report.pool_overflows(), 6);
        assert!(report
            .rejected
            .iter()
            .all(|r| r.reason == DecodeRejectReason::KvPoolExhausted));
        assert_eq!(report.kv_peak_bytes, 2 * block);
        assert_eq!(report.kv_peak_blocks, 2);
        assert!(report.kv_peak_bytes <= policy.kv_budget(&hw()));
    }

    #[test]
    fn deadline_screened_steps_do_not_keep_blocks() {
        // Impossible deadline: every step is screened out before it
        // generates a token, so under paged charging no step may grow the
        // session's block allocation past the admission-time charge.
        let policy = DecodePolicy {
            step_deadline_s: Some(1e-12),
            ..DecodePolicy::default()
        };
        let trace = lockstep_trace(1, 40, 8, 0.01); // context would reach 48
        let report = replay(policy, &trace);
        assert_eq!(report.completed(), 0);
        assert_eq!(report.rejected.len(), 40);
        // Admission charged ceil(9 / 16) = 1 block; screened steps added
        // none (pre-fix this grew to ceil(48 / 16) = 3).
        assert_eq!(report.kv_peak_blocks, 1);
    }

    #[test]
    fn gqa_sessions_charge_fewer_kv_bytes() {
        // Same trace shape, one MHA (8/8) and one GQA (8/2) session set: the
        // grouped sessions' peak charge is a quarter of the MHA one.
        let mk_trace = |kv_heads: usize| {
            let mut t = lockstep_trace(2, 4, 32, 0.01);
            for s in &mut t.sessions {
                s.kv_heads = kv_heads;
            }
            t
        };
        let mha = replay(DecodePolicy::default(), &mk_trace(8));
        let gqa = replay(DecodePolicy::default(), &mk_trace(2));
        assert_eq!(mha.completed(), gqa.completed());
        assert_eq!(gqa.kv_peak_bytes * 4, mha.kv_peak_bytes);
        // GQA steps stream less DRAM, so they can only be faster.
        assert!(gqa.makespan_s <= mha.makespan_s);
    }

    #[test]
    fn zero_block_tokens_degrades_to_per_token_charging_not_a_free_pass() {
        // A degenerate zero-token-block policy must not zero out block bytes and
        // bypass the budget: it clamps to one-token blocks, so a budget
        // sized for one session still sheds the rest.
        let per_session = DecodeStep::new("s", 1, 8, 38, 64).kv_cache_bytes(hw().element_bytes);
        let policy = DecodePolicy {
            kv_budget_bytes: Some(per_session),
            kv_block_tokens: 0,
            ..DecodePolicy::default()
        };
        let trace = lockstep_trace(4, 6, 32, 0.01);
        let report = replay(policy, &trace);
        assert!(report.sessions_admitted < 4, "{}", report.summary());
        assert!(report.kv_peak_bytes > 0);
        assert!(report.kv_peak_bytes <= per_session);
        // Behaves exactly like one-token blocks.
        let one = DecodePolicy {
            kv_block_tokens: 1,
            ..policy
        };
        let with_one = replay(one, &trace);
        assert_eq!(report.outcomes, with_one.outcomes);
        assert_eq!(report.kv_peak_bytes, with_one.kv_peak_bytes);
    }

    #[test]
    fn invalid_head_grouping_rejects_the_session_not_panics() {
        let mut trace = lockstep_trace(1, 2, 16, 0.01);
        trace.sessions[0].kv_heads = 3; // 8 % 3 != 0
        let report = replay(DecodePolicy::default(), &trace);
        assert_eq!(
            report.rejected_sessions,
            vec![(0, DecodeRejectReason::InfeasibleSession)]
        );
        assert_eq!(report.completed(), 0);
    }
}
