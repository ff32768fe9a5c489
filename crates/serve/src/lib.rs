//! # mas-serve
//!
//! A streaming attention-serving runtime on top of the MAS-Attention
//! reproduction: the paper's memory-aware stream processing overlaps tile
//! compute with DMA inside one kernel; this crate sustains a *request
//! stream* across kernels, turning the one-shot `Planner::run` pipeline
//! into a serving system with admission control, micro-batching and a
//! shared, persistable schedule cache.
//!
//! ## Request lifecycle
//!
//! [`ServeEngine::run`] is the one serving entry point: it admits, batches,
//! plans and replays a **mixed** stream — prefill requests plus a decode
//! trace — on one earliest-free device timeline with one shared memory
//! budget. A prefill-only or decode-only replay is the same call with the
//! other stream empty.
//!
//! ```text
//!        ┌────────┐   ┌─────────┐   ┌──────────────┐   ┌──────────┐   ┌────────┐
//! req ──▶│ admit  │──▶│  batch  │──▶│ plan / cache │──▶│ simulate │──▶│ report │
//!        └────────┘   └─────────┘   └──────────────┘   └──────────┘   └────────┘
//!         shed load    coalesce +     tune once,         one device     per-request
//!         (queue.rs,   micro-batch    replay forever     timeline       latency/energy/
//!          decode.rs)  (batcher.rs)   (cache.rs)         (engine.rs)    deadline (metrics.rs)
//! ```
//!
//! 1. **Admit** ([`queue`], [`decode`]) — each prefill arrival is
//!    screened: infeasible workloads (operands over DRAM, no valid tiling)
//!    and deadlines below the device's physical service-time lower bound
//!    are rejected up front; load is shed at a batcher depth bound, at an
//!    estimated launch-queue delay bound, and when its activation footprint
//!    would overrun the shared budget. Decode sessions are admitted at
//!    their first step against the same budget.
//! 2. **Batch** ([`batcher`]) — admitted prefill requests coalesce by
//!    `(method, heads, seq_len, embed)` key: identical requests merge
//!    outright and compatible shapes micro-batch into one merged workload
//!    (summed batch dimension), dispatched when full, when the batching
//!    window expires, or when growing further would outrun the device's
//!    memory (per-request feasibility is preserved under merging). Decode
//!    steps sharing a `(heads, kv_heads, embed)` shape batch across
//!    sessions the same way.
//! 3. **Plan / cache** ([`cache`]) — at dispatch, each prefill batch key is
//!    looked up in the shared [`ScheduleCache`]; misses run the planner
//!    (heuristic tiling or MCTS + GA search) plus one simulation and are
//!    memoized. Caches serialize to a versioned text format and merge
//!    commutatively and associatively, so sharded tuning sweeps combine
//!    into one cache equal to the jointly built one.
//! 4. **Simulate** ([`engine`]) — launches of both classes start on the
//!    earliest-free virtual device; the deterministic timeline yields
//!    per-request start, completion and queueing delay.
//! 5. **Report** ([`metrics`]) — an [`EngineReport`] with a per-class
//!    breakdown: a [`ServeReport`] (per-request latency, energy share and
//!    deadline verdicts, throughput, p50/p99 latency, cache hit rate) and
//!    a [`DecodeReport`], plus the shared-timeline and shared-budget
//!    figures.
//! 6. **Observe** ([`telemetry`], opt-in) — the engine describes every
//!    lifecycle transition (arrival, admission verdict, batch join,
//!    dispatch, completion, budget charge/release) as a typed
//!    [`EventKind`] and builds its report by folding those events through
//!    one internal ledger, which also tracks the shared budget. With
//!    [`EngineConfig::telemetry`](engine::EngineConfig::telemetry) set the
//!    events are also appended to an [`EngineEvent`] timeline, the run's
//!    only record, so recording never changes the report; post-hoc
//!    analysis folds the log through the same ledger to reconstruct the
//!    report bit-for-bit, attributes memory peaks and device utilization,
//!    and exports Chrome trace-event JSON (Perfetto) and Prometheus text
//!    snapshots with log-bucketed latency histograms, all from that fold.
//!
//! Reports are a pure function of the streams and the configuration: a warm
//! cache changes wall-clock planning cost only, never results.
//!
//! ## Autoregressive decode ([`decode`])
//!
//! Decode traffic (one generated token per step, the dominant shape in LLM
//! serving) differs from prefill in kind:
//!
//! * Sessions hold *block-granular KV residency*: they charge the shared
//!   budget for the fixed-size token blocks their context actually
//!   occupies (vLLM-style paged allocation), growing one block at a time
//!   as they decode; a step that cannot get a block is shed as a pool
//!   overflow while its session keeps decoding. Grouped-query sessions
//!   (`kv_heads < heads`) charge proportionally less ([`DecodePolicy`]).
//! * Step requests from different sessions sharing a
//!   `(heads, kv_heads, embed)` shape coalesce into one batched launch
//!   within a window, amortizing the per-launch issue overhead that
//!   dominates single-token kernels.
//! * Launch cost comes from the closed-form decode model
//!   ([`mas_dataflow::decode::DecodeStep`]): per-step work linear in the
//!   context length, DRAM traffic of the cache stream plus only the
//!   new-token operand rows. The numerical kernel this models —
//!   `mas_tensor::decode::decode_attention` over a per-session
//!   `mas_tensor::decode::KvCache` — is pinned step-by-step against the
//!   full-prefill oracle by the differential `decode_vs_prefill` test
//!   harness.
//!
//! ## Mixed scheduling ([`engine`])
//!
//! ```text
//! prefill ──┐   ┌────────────────────────┐   ┌──────────────────────────┐
//!           ├──▶│ one launch path        │──▶│ one device timeline      │
//! decode  ──┘   │ (LaunchKey coalescing, │   │ (policy-ordered slots,   │
//!               │  one price, placement  │   │  shared schedule cache)  │
//!               │  and completion)       │   │                          │
//!               └────────────────────────┘   └──────────────────────────┘
//! ```
//!
//! Prefill requests and decode steps coalesce under a typed [`LaunchKey`]
//! into launches that share one placement and one completion path, and
//! every decode launch and prefill chunk is priced by one closed-form
//! function; a configurable iteration-level [`SchedulePolicy`]
//! (decode-priority / prefill-priority / fair-share) decides which class
//! feeds each launch slot when both are ready; and prefill activation
//! footprints plus decode KV residency charge one budget, so a prefill
//! burst can shed decode block growth (pool overflows) and a heavy decode
//! residency can shed prefill arrivals
//! ([`RejectReason::MemoryPressure`]). On a single-class stream every
//! policy replays bit-identically, and the report breaks a mixed replay
//! down per class with shared [`LatencyStats`].
//!
//! With [`EngineConfig::tracks`](engine::EngineConfig::tracks) set, the
//! scalar one-number-per-launch device model gives way to the
//! **overlap-aware track executor**: each launch's closed-form cost is
//! split per tile/chunk stage into DMA-in / MAC / VEC / writeback demands
//! ([`mas_dataflow::TrackDemand`]) and flow-shop scheduled on four
//! per-device FIFO tracks ([`TrackKind`]), so stage `k+1`'s DMA streams
//! under stage `k`'s compute — the paper's intra-kernel overlap, recovered
//! at the serving layer. A launch commits the overlapped placement only
//! when it strictly beats the scalar one (never-worse by construction).
//! With the default `tracks: None` a launch holds its whole device for its
//! one scalar service time.
//!
//! ## Example
//!
//! ```
//! use mas_dataflow::DataflowKind;
//! use mas_serve::{EngineConfig, ServeEngine, ServeRequest};
//! use mas_workloads::{request_trace, DecodeTrace, Network, TraceConfig};
//!
//! let trace = request_trace(&TraceConfig::poisson(
//!     vec![Network::BertSmall, Network::VitB16],
//!     16,   // requests
//!     500.0, // arrival rate (req/s)
//!     42,   // seed
//! ));
//! let stream = ServeRequest::stream_from_trace(&trace, DataflowKind::MasAttention, Some(0.05));
//! let mut engine = ServeEngine::new(EngineConfig::default());
//! let report = engine.run(&stream, &DecodeTrace::empty()).unwrap();
//! assert_eq!(report.prefill.completed() + report.prefill.rejected.len(), 16);
//! assert!(report.prefill.throughput_rps() > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod batcher;
pub mod cache;
pub mod decode;
pub mod engine;
pub mod key;
mod ledger;
pub mod metrics;
pub mod queue;
pub mod request;
pub mod telemetry;

pub use batcher::BatchPolicy;
pub use cache::{
    hardware_fingerprint, planning_fingerprint, CacheError, CacheKey, CachedPlan, ScheduleCache,
};
pub use decode::{
    DecodePolicy, DecodeRejectReason, DecodeReport, DecodeStepOutcome, RejectedDecodeStep,
};
pub use engine::{
    ChunkPolicy, DeviceUtil, EngineConfig, EngineReport, PreemptMode, SchedulePolicy, ServeEngine,
};
pub use key::{BatchKey, ChunkKey, DecodeKey, LaunchKey, WorkClass};
pub use mas_dataflow::KvDtype;
pub use mas_sim::{DeviceTracks, TrackConfig, TrackKind, TRACK_COUNT};
pub use metrics::{
    percentile, percentile_sorted, LatencyStats, RejectedRequest, RequestOutcome, ServeReport,
};
pub use queue::{AdmissionPolicy, RejectReason};
pub use request::ServeRequest;
pub use telemetry::{
    validate_chrome_trace, ChromeTraceStats, ConservationStats, EngineEvent, EventKind,
    LogHistogram, MemOwner, PeakAttribution, PreemptVictim, SealCause, Telemetry, TelemetryConfig,
    Track,
};
