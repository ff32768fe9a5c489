//! The serve engine: one mixed prefill+decode request stream, one
//! earliest-free device timeline, one shared memory budget.
//!
//! [`ServeEngine::run`] is the crate's only serving entry point. Prefill
//! requests and decode steps flow through one interleaved work stream:
//!
//! * **One launch path.** Prefill requests and decode steps coalesce in one
//!   launch map keyed by the typed [`LaunchKey`], with one launch-id space.
//!   Prefill requests micro-batch under [`BatchPolicy`] (window / fill /
//!   feasibility dispatch) and decode steps batch cross-session under
//!   [`DecodePolicy`] (window / fill). A sealed prefill batch, each chunk of
//!   a chunked batch and each decode batch then become one launch record,
//!   placed by one function and completed by another: the mechanism is
//!   shared, the per-class policies differ.
//! * **One device timeline.** Every dispatched launch — either class —
//!   starts on the earliest-free virtual device at
//!   `max(device_free, ready)`, so the classes genuinely contend for
//!   compute. The iteration-level [`SchedulePolicy`] decides which queue
//!   feeds the launch slots when launches of both classes are ready at the
//!   same stream instant: [`SchedulePolicy::DecodePriority`] dispatches
//!   pending decode launches first (protecting token latency under prefill
//!   bursts), [`SchedulePolicy::PrefillPriority`] the reverse, and
//!   [`SchedulePolicy::FairShare`] interleaves strictly by launch creation
//!   (arrival) order.
//! * **One memory budget.** Decode sessions charge paged KV residency (the
//!   blocks their context occupies, per [`DecodePolicy`]) and prefill
//!   requests charge their activation footprint (the four Q/K/V/O
//!   operands) against the *same* budget
//!   ([`EngineConfig::shared_budget_bytes`], defaulting to the decode
//!   policy's KV budget — half of device DRAM). A prefill burst can
//!   therefore exhaust the pool and shed decode block growth
//!   ([`DecodeRejectReason::KvPoolExhausted`]), and a heavy decode
//!   residency can shed prefill arrivals
//!   ([`RejectReason::MemoryPressure`]).
//!
//! ## Budget accounting invariants
//!
//! The shared pool is charged and released at these points, and nowhere
//! else:
//!
//! 1. A prefill request charges `4 · operand_bytes` when it joins a batch
//!    (it is rejected with [`RejectReason::MemoryPressure`] instead if the
//!    charge would exceed the budget) and its batch releases the summed
//!    member charge when the batch's launch *completes* on the timeline.
//! 2. A decode session charges the blocks of its first step at admission,
//!    grows block-by-block as it decodes (a growth that would exceed the
//!    budget sheds that step as a pool overflow, never the session), and
//!    releases everything when its last step completes.
//! 3. Charges never go negative (releases are saturating), every charge is
//!    checked against the budget *before* it is applied, and the recorded
//!    peak ([`EngineReport::mem_peak_bytes`]) therefore never exceeds the
//!    budget. These invariants are pinned by a proptest over random mixed
//!    interleavings (`tests/engine_mixed.rs`).
//!
//! Every charge, release and report figure is one [`EventKind`] folded by
//! the crate's ledger (`ledger.rs`): the engine emits each event into it
//! and reads admission and eviction headroom back from it, and
//! [`Telemetry::report`] folds a recorded log through the same ledger. The
//! ledger is also the double-release guard: a release for an owner with no
//! live charge is dropped and counted ([`Telemetry::release_drops`]).
//!
//! ## Chunked prefill and preemption invariants
//!
//! Two opt-in features bound decode tail latency under overload. Both
//! default off: without chunking every prefill batch is one launch, and
//! without preemption every placement is final and no session is evicted.
//!
//! 1. **Chunk-chain ordering.** Under [`EngineConfig::chunked_prefill`] a
//!    prefill batch longer than the chunk token budget lowers into a chain
//!    of chunk launches keyed by [`LaunchKey::PrefillChunk`]. Chunks of one
//!    chain dispatch strictly in index order — chunk `k+1` becomes ready
//!    only at chunk `k`'s completion, so decode launches can slot between
//!    chunks (the head-of-line-blocking fix) — and chunks of *different*
//!    requests never coalesce: the chain id is part of the launch key.
//!    This holds under any batching window, including `window_s = 0.0`.
//!    Chunk service times split the monolithic plan's seconds
//!    proportionally to each chunk's closed-form stream demand, plus one
//!    launch-issue overhead per chunk after the first — chunking is priced
//!    as issue overhead, never as replanning the batch.
//! 2. **Budget charged once per chain.** A chunked batch charges its
//!    activation footprint once, at join, exactly like a monolithic batch,
//!    and releases it exactly once — when the chain's *last* chunk
//!    completes. Member requests complete at the last chunk's completion.
//! 3. **Preemption never drops an admitted session's tokens.** Under
//!    [`EngineConfig::preempt`], slot preemption displaces only launches
//!    that have not yet *started* (their effects are staged until their
//!    start instant passes), and the displaced batch re-places behind the
//!    preempting decode launch — it is delayed, never dropped. KV
//!    preemption evicts an idle session's block charge but stashes its
//!    resident-token bytes: they swap back in at the session's next step
//!    ([`PreemptMode::Hold`]) or are re-priced as recompute work on that
//!    step's launch ([`PreemptMode::Recompute`]). Steps are shed only
//!    through the pre-existing screening and overflow paths.
//!
//! ## Dispatch-order contract
//!
//! A replay is a pure function of its inputs, configuration and cache
//! because [`ServeEngine::run`] visits work in one fixed order:
//!
//! 1. **Arrival merge.** Prefill requests sorted by `(arrival, id)` merge
//!    with decode steps in trace order; a prefill request wins an
//!    exact-arrival tie.
//! 2. **Per-event stages.** At each arrival's instant `now`, in order:
//!    staged spans that started by `now` harden, in start order; ready
//!    chunk-chain chunks place, in `(ready, chain id)` order; launches
//!    whose window ended by `now` dispatch, in `(class rank, launch id)`
//!    order under the [`SchedulePolicy`]; budget releases due by `now`
//!    apply, in the order they were scheduled; then the arrival itself is
//!    screened, admitted and joined, and a fill or feasibility dispatch
//!    runs at once.
//! 3. **Flush.** After the last arrival the open launches dispatch in
//!    `(ready, class rank, launch id)` order, chains drain, and every
//!    staged span hardens.
//! 4. **Eviction.** KV preemption picks victims in descending session id.
//!
//! Per-run state is dense. Sessions sit in a slab sorted by id: a step
//! finds its slot once, through an id → slot table (a binary search when
//! ids are sparse), and its launch carries the slot to completion. Open
//! launches sit in slots indexed by an interned launch key, and a session
//! caches its decode key's slot at admission. Chains with chunks left sit
//! in a min-heap by `(ready, chain id)` of their next chunk, so finding
//! the next ready chunk reads the heap's top and placing it costs
//! `O(log chains)`; an entry goes stale when its chain places another
//! chunk (a per-chain generation, bumped at every placement, a displaced
//! chunk's re-placement included), and stale entries are dropped as they
//! reach the top. The window and release stages keep a lower bound on
//! their next due instant and scan only when `now` reaches it. An event
//! therefore costs O(1) plus the work it triggers and a pass over the
//! devices; a window end scans the open launches, a due release the
//! pending releases, and an eviction the sessions.
//!
//! Each unit of work is priced once: a decode step at arrival (its open
//! launch adds the price as the step joins), a chunk when its chain is
//! sealed. Placing a launch allocates only when the flow-shop commits it
//! (its stage spans are copied out of a buffer the run reuses, for the
//! log); the stage demands also go to a reused buffer, and a decode
//! launch's member list goes back to its launch slot. What still
//! allocates per launch is sealing a prefill batch: its member list and,
//! for a chain, its chunk layout.
//!
//! ## Single-class streams and planning
//!
//! With only one class present the scheduling policy degenerates to
//! launch-creation order, so every [`SchedulePolicy`] replays a
//! prefill-only or decode-only stream bit-identically (pinned by the
//! `engine_equivalence` suite), and the absent class's report stays at its
//! default.
//!
//! Prefill batches are planned at dispatch through the shared
//! [`ScheduleCache`]: a launch whose key is missing plans it (tiling plus
//! one simulation) and memoizes it, and a launch counts as a cache hit when
//! its key was cached before its dispatch (the cache never evicts). The
//! cache therefore changes wall-clock planning cost only, never results.
//!
//! [`Telemetry::report`]: crate::telemetry::Telemetry::report
//! [`Telemetry::release_drops`]: crate::telemetry::Telemetry::release_drops
//! [`DecodeRejectReason::KvPoolExhausted`]: crate::decode::DecodeRejectReason::KvPoolExhausted
//! [`RejectReason::MemoryPressure`]: crate::queue::RejectReason::MemoryPressure

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use mas_attention::planner::TilingStrategy;
use mas_attention::{Planner, PlannerConfig};
use mas_dataflow::decode::{decode_step_fits_with_kv, DecodeStep, PrefillChunk};
use mas_dataflow::{AttentionWorkload, TrackDemand};
use mas_sim::{
    DeviceTracks, HardwareConfig, Result, SimError, StageSpan, TrackConfig, TrackKind,
    TrackPlacement, TRACK_COUNT,
};
use mas_workloads::{DecodeSessionSpec, DecodeStepEvent, DecodeTrace};

use crate::batcher::BatchPolicy;
use crate::cache::{planning_fingerprint, CacheKey, CachedPlan, ScheduleCache};
use crate::decode::{issue_s, DecodePolicy, DecodeRejectReason, DecodeReport, LaunchDemand};
use crate::key::{BatchKey, ChunkKey, DecodeKey, LaunchKey, WorkClass};
use crate::ledger::{Completion, Ledger};
use crate::metrics::{LatencyStats, RejectedRequest, ServeReport};
use crate::queue::{workload_is_feasible, AdmissionPolicy, BacklogEstimator, RejectReason};
use crate::request::ServeRequest;
use crate::telemetry::{EventKind, MemOwner, PreemptVictim, SealCause, Telemetry, TelemetryConfig};

/// Which queue feeds the launch slots when launches of both classes are
/// ready at the same stream instant (iteration-level scheduling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulePolicy {
    /// Pending decode launches dispatch before pending prefill launches:
    /// protects per-token latency under prefill bursts.
    DecodePriority,
    /// Pending prefill launches dispatch before pending decode launches:
    /// protects time-to-first-token / prefill throughput under decode load.
    PrefillPriority,
    /// Launches dispatch strictly in creation (arrival) order regardless of
    /// class — the default.
    #[default]
    FairShare,
}

impl SchedulePolicy {
    /// Dispatch rank of a class under this policy (lower dispatches first;
    /// ties fall back to launch creation order).
    fn class_rank(self, class: WorkClass) -> u8 {
        match (self, class) {
            (SchedulePolicy::FairShare, _)
            | (SchedulePolicy::DecodePriority, WorkClass::Decode)
            | (SchedulePolicy::PrefillPriority, WorkClass::Prefill) => 0,
            _ => 1,
        }
    }
}

impl std::fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SchedulePolicy::DecodePriority => "decode-priority",
            SchedulePolicy::PrefillPriority => "prefill-priority",
            SchedulePolicy::FairShare => "fair-share",
        })
    }
}

/// Chunked-prefill policy ([`EngineConfig::chunked_prefill`]): a prefill
/// batch whose sequence length exceeds the per-chunk token budget lowers
/// into a chain of chunk launches instead of one monolithic launch, so
/// decode work can slot into the gaps between chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkPolicy {
    /// Token budget per chunk: each chunk covers at most this many query
    /// rows of the prompt. `0` disables chunking (every batch stays one
    /// monolithic launch), as does any budget at or above the prompt
    /// length.
    pub chunk_tokens: usize,
}

impl ChunkPolicy {
    /// A policy with the given per-chunk token budget.
    #[must_use]
    pub fn new(chunk_tokens: usize) -> Self {
        Self { chunk_tokens }
    }

    /// The chunk sizes covering a `seq_len`-token prompt, in order: full
    /// chunks of `chunk_tokens` rows plus one ragged tail. A single size
    /// means the batch dispatches monolithically.
    pub fn chunk_sizes(&self, seq_len: usize) -> impl Iterator<Item = usize> + Clone {
        let (size, full, tail) = if self.chunk_tokens == 0 || self.chunk_tokens >= seq_len {
            (seq_len, 1, 0)
        } else {
            let size = self.chunk_tokens;
            (size, seq_len / size, seq_len % size)
        };
        std::iter::repeat_n(size, full).chain((tail > 0).then_some(tail))
    }
}

/// What happens to a decode session's KV residency when the session is
/// preempted under shared-pool pressure ([`EngineConfig::preempt`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PreemptMode {
    /// Swap: the evicted KV is held host-side and its resident-token bytes
    /// are restored when the session's next step arrives. The host
    /// transfer is off the device timeline, so the resumed step pays no
    /// extra service time.
    #[default]
    Hold,
    /// Drop-and-recompute: the evicted KV is discarded, and the session's
    /// resumed step is additionally priced for recomputing the evicted
    /// context as a [`PrefillChunk`] demand folded into its launch.
    Recompute,
}

impl std::fmt::Display for PreemptMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PreemptMode::Hold => "hold",
            PreemptMode::Recompute => "recompute",
        })
    }
}

impl std::str::FromStr for PreemptMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "hold" => Ok(PreemptMode::Hold),
            "recompute" => Ok(PreemptMode::Recompute),
            other => Err(format!("unknown preempt mode `{other}` (hold|recompute)")),
        }
    }
}

/// A decode step joined to a launch: the session, the step index, the
/// context length attended and the arrival time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodeStepItem {
    /// The session the step belongs to.
    pub(crate) session_id: u64,
    /// Zero-based index of the step within its session.
    pub(crate) step_index: usize,
    /// Context length attended (prompt plus generated tokens so far,
    /// including this step's).
    pub(crate) context_len: usize,
    /// Arrival time in seconds.
    pub(crate) arrival_s: f64,
    /// Context tokens whose KV must be recomputed before this step can run
    /// (nonzero only for the first step after a
    /// [`PreemptMode::Recompute`] eviction): priced into the step's launch
    /// as a [`PrefillChunk`] demand.
    pub(crate) recompute_tokens: usize,
}

/// Configuration of the unified serve engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Planner for prefill batches (hardware, energy model, tiling
    /// strategy, tuning budget). The hardware model also costs decode
    /// launches and sizes the shared memory budget.
    pub planner: PlannerConfig,
    /// Prefill admission control.
    pub admission: AdmissionPolicy,
    /// Prefill micro-batching policy.
    pub batching: BatchPolicy,
    /// Decode admission, KV charging and step-batching policy.
    pub decode: DecodePolicy,
    /// Number of virtual devices both classes' launches share.
    pub devices: usize,
    /// Iteration-level scheduling policy for mixed launch queues.
    pub policy: SchedulePolicy,
    /// The shared device memory budget both classes charge against. `None`
    /// defaults to the decode policy's KV budget (half of device DRAM).
    pub shared_budget_bytes: Option<u64>,
    /// Opt-in structured telemetry ([`crate::telemetry`]). `None` (the
    /// default) keeps no log; `Some` also appends every [`EventKind`] the
    /// engine folds into its report to a log retrievable via
    /// [`ServeEngine::telemetry`] after a run. The log is uncapped and is
    /// the run's only record: its report, histograms and exports are all
    /// derived from it afterwards. Recording never changes the report: the
    /// engine builds it from the same events either way.
    pub telemetry: Option<TelemetryConfig>,
    /// Opt-in chunked prefill. `None` (the default) dispatches every
    /// prefill batch as one launch; `Some` lowers batches longer than the
    /// chunk budget into chunk chains (see the module docs'
    /// chunking/preemption invariants).
    pub chunked_prefill: Option<ChunkPolicy>,
    /// Opt-in iteration-level preemption. `None` (the default) makes every
    /// placement final when it is made and never evicts a session's KV
    /// charge. `Some` enables both mechanisms: deadline-pressed decode
    /// launches may displace not-yet-started prefill-class launches (only
    /// under [`SchedulePolicy::DecodePriority`], which expresses that decode
    /// latency outranks prefill), and KV-pool pressure may evict idle
    /// sessions' block charges with the chosen [`PreemptMode`].
    pub preempt: Option<PreemptMode>,
    /// Opt-in overlap-aware track executor. `None` (the default) uses the
    /// scalar device model: a launch holds its whole device for its one
    /// service time. `Some` lowers each launch into per-tile stage demands
    /// flow-shop scheduled over the device's DMA-in/MAC/VEC/writeback
    /// tracks ([`mas_sim::DeviceTracks`]); a launch commits the earlier of
    /// the scalar span and the track schedule, so makespans are never worse
    /// than the scalar model's, and [`TrackConfig::degenerate`] reproduces
    /// the scalar model bit-for-bit. Admission, deadline screening and
    /// budget sizing keep using the scalar estimates in both modes.
    pub tracks: Option<TrackConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            planner: PlannerConfig::default(),
            admission: AdmissionPolicy::default(),
            batching: BatchPolicy::default(),
            decode: DecodePolicy::default(),
            devices: 1,
            policy: SchedulePolicy::default(),
            shared_budget_bytes: None,
            telemetry: None,
            chunked_prefill: None,
            preempt: None,
            tracks: None,
        }
    }
}

impl EngineConfig {
    /// The effective shared memory budget on `hw`: the explicit bytes, or
    /// the decode policy's KV budget.
    #[must_use]
    pub fn budget(&self, hw: &HardwareConfig) -> u64 {
        self.shared_budget_bytes
            .unwrap_or_else(|| self.decode.kv_budget(hw))
    }
}

/// Aggregate result of replaying one mixed trace: the per-class breakdowns
/// plus the shared-timeline and shared-budget figures.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// The scheduling policy the replay ran under.
    pub policy: SchedulePolicy,
    /// Prefill-class breakdown (latency, energy, cache hits, sheds).
    pub prefill: ServeReport,
    /// Decode-class breakdown (per-step latency, batching factor, KV peaks,
    /// pool overflows).
    pub decode: DecodeReport,
    /// Total launches dispatched across both classes (one shared id space).
    pub launches: usize,
    /// Virtual time at which the last launch of either class completed.
    pub makespan_s: f64,
    /// The shared memory budget the replay enforced, in bytes.
    pub mem_budget_bytes: u64,
    /// Peak bytes charged against the shared budget at once (prefill
    /// activations plus decode KV residency). Never exceeds the budget.
    pub mem_peak_bytes: u64,
    /// Prefill activation share of the shared peak.
    pub mem_peak_prefill_bytes: u64,
    /// Decode KV share of the shared peak.
    pub mem_peak_decode_bytes: u64,
    /// Per-device utilization on the shared timeline (both classes), one
    /// entry per virtual device.
    pub device_util: Vec<DeviceUtil>,
    /// Prefill-class launches displaced by deadline-pressed decode launches
    /// before starting (slot preemption). Zero unless
    /// [`EngineConfig::preempt`] is set.
    pub preemptions_prefill: usize,
    /// Decode sessions whose KV block charge was evicted under pool
    /// pressure (KV preemption). Zero unless [`EngineConfig::preempt`] is
    /// set.
    pub preemptions_decode: usize,
}

/// Utilization of one virtual device over a replay's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceUtil {
    /// Seconds the device spent in service (sum of launch service times,
    /// both classes).
    pub busy_s: f64,
    /// Launch-to-launch idle gaps: times a launch started strictly after
    /// the device's previous completion (excluding the initial idle before
    /// the first launch).
    pub idle_gaps: usize,
    /// Launches the device served.
    pub launches: usize,
}

impl DeviceUtil {
    /// Busy fraction of the device over `makespan_s` (0 when the makespan
    /// is zero).
    #[must_use]
    pub fn busy_fraction(&self, makespan_s: f64) -> f64 {
        if makespan_s > 0.0 {
            self.busy_s / makespan_s
        } else {
            0.0
        }
    }
}

impl EngineReport {
    /// Completed work items across both classes.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.prefill.completed() + self.decode.completed()
    }

    /// Rejected work items across both classes.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.prefill.rejected.len() + self.decode.rejected.len()
    }

    /// Prefill-class latency summary.
    #[must_use]
    pub fn prefill_latency(&self) -> Option<LatencyStats> {
        self.prefill.latency_stats()
    }

    /// Decode-class latency summary.
    #[must_use]
    pub fn decode_latency(&self) -> Option<LatencyStats> {
        self.decode.latency_stats()
    }

    /// A compact human-readable summary: the shared timeline and budget
    /// headline plus one line per class.
    #[must_use]
    pub fn summary(&self) -> String {
        let stats = |s: Option<LatencyStats>| {
            s.map_or_else(|| "no completions".to_string(), |s| s.to_string())
        };
        let devices = if self.device_util.is_empty() {
            String::new()
        } else {
            let per_device: Vec<String> = self
                .device_util
                .iter()
                .enumerate()
                .map(|(d, u)| {
                    format!(
                        "d{d} {:.0}% busy ({} launches, {} gaps)",
                        u.busy_fraction(self.makespan_s) * 100.0,
                        u.launches,
                        u.idle_gaps
                    )
                })
                .collect();
            format!("\n  devices: {}", per_device.join(" | "))
        };
        let preempt = if self.preemptions_prefill + self.preemptions_decode > 0 {
            format!(
                " | preempted {} launches / {} sessions",
                self.preemptions_prefill, self.preemptions_decode
            )
        } else {
            String::new()
        };
        format!(
            "engine[{}]: {} launches in {:.3} ms makespan | shared budget {:.1} MB peak {:.1} MB \
             ({:.1} prefill + {:.1} decode){preempt}\n  prefill: {}\n  decode:  {}{}",
            self.policy,
            self.launches,
            self.makespan_s * 1e3,
            self.mem_budget_bytes as f64 / 1e6,
            self.mem_peak_bytes as f64 / 1e6,
            self.mem_peak_prefill_bytes as f64 / 1e6,
            self.mem_peak_decode_bytes as f64 / 1e6,
            stats(self.prefill_latency()),
            stats(self.decode_latency()),
            devices,
        )
    }
}

/// The unified serve engine. Owns the shared schedule cache, which persists
/// across runs (and, via [`ScheduleCache::save`] / [`ScheduleCache::load`]
/// / [`ScheduleCache::merge`], across processes).
#[derive(Debug, Clone)]
pub struct ServeEngine {
    config: EngineConfig,
    planner: Planner,
    cache: ScheduleCache,
    /// The telemetry of the most recent run, when recording was configured.
    telemetry: Option<Telemetry>,
    /// Per-device track executor state of the most recent run, when
    /// [`EngineConfig::tracks`] was set.
    track_stats: Option<Vec<DeviceTracks>>,
}

impl ServeEngine {
    /// Creates an engine with an empty schedule cache.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        Self::with_cache(config, ScheduleCache::new())
    }

    /// Creates an engine warm-started with an existing cache.
    #[must_use]
    pub fn with_cache(config: EngineConfig, cache: ScheduleCache) -> Self {
        let planner = Planner::new(config.planner.clone());
        Self {
            config,
            planner,
            cache,
            telemetry: None,
            track_stats: None,
        }
    }

    /// The structured telemetry of the most recent [`ServeEngine::run`]:
    /// `Some` only when [`EngineConfig::telemetry`] was set for that run.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Per-device track executor state after the last run (`None` unless
    /// [`EngineConfig::tracks`] was set): per-track busy seconds and
    /// overlap-vs-scalar commit counts.
    #[must_use]
    pub fn track_stats(&self) -> Option<&[DeviceTracks]> {
        self.track_stats.as_deref()
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The shared schedule cache.
    #[must_use]
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// Consumes the engine, returning its cache (for persistence).
    #[must_use]
    pub fn into_cache(self) -> ScheduleCache {
        self.cache
    }

    /// Replays a mixed stream — prefill requests plus a decode trace — on
    /// one device timeline and returns the aggregate report.
    ///
    /// Events are processed in arrival order (prefill requests additionally
    /// ordered by id, decode steps in trace order; a prefill request ties
    /// ahead of a decode step arriving at the identical instant). The
    /// report is a pure function of the inputs, the configuration and the
    /// cache contents (the cache changes wall-clock planning cost, never
    /// results).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`], before any state changes, if
    /// [`BatchPolicy::window_s`] or [`DecodePolicy::window_s`] is NaN,
    /// infinite or negative, a prefill request or decode step has a
    /// non-finite or negative arrival time, a prefill deadline or
    /// [`DecodePolicy::step_deadline_s`] is NaN or negative, two prefill
    /// requests or two session specs share an id, a session's prompt plus
    /// steps exceed `u32::MAX` tokens, or a decode step's index is out of
    /// range or not above its session's previous step's; otherwise a
    /// [`SimError`] if a prefill batch that passed admission fails to plan
    /// or simulate. Decode-only streams never plan.
    pub fn run(&mut self, prefill: &[ServeRequest], decode: &DecodeTrace) -> Result<EngineReport> {
        let sessions = validate_inputs(prefill, decode, &self.config)?;
        let hw = self.planner.hardware().clone();
        let budget = self.config.budget(&hw);
        let recycled = self.telemetry.take();
        let log = self.config.telemetry.map(|_| {
            let hint = Telemetry::bytes_hint(prefill.len(), decode.steps.len());
            let mut log = Telemetry::recording(hint, recycled);
            log.record(
                0.0,
                &EventKind::RunStart {
                    policy: self.config.policy,
                    devices: self.config.devices.max(1) as u32,
                    budget_bytes: budget,
                    max_batch: self.config.batching.max_batch.max(1) as u32,
                    max_steps_per_launch: self.config.decode.effective_max_steps_per_launch()
                        as u32,
                    step_deadline_s: self.config.decode.step_deadline_s,
                },
            );
            log
        });
        let mut ledger = Ledger::new(self.config.policy, self.config.devices, budget);
        ledger.reserve_outcomes(prefill.len(), decode.steps.len());
        let element_bytes = hw.element_bytes;
        let kv_element_bytes = self.config.decode.kv_element_bytes(&hw);

        let mut pass = EngineRun {
            config: &self.config,
            planner: &self.planner,
            cache: &mut self.cache,
            hw,
            element_bytes,
            kv_element_bytes,
            tuned: self.config.planner.tiling == TilingStrategy::Search,
            fingerprint: planning_fingerprint(&self.config.planner),
            max_batch: self.config.batching.max_batch.max(1),
            max_steps_per_launch: self.config.decode.effective_max_steps_per_launch(),
            free_at: vec![0.0f64; self.config.devices.max(1)],
            launches: Launches::default(),
            expired: Vec::new(),
            open_prefill_members: 0,
            next_launch_id: 0,
            sessions,
            releases: Releases::default(),
            chunk_chains: BTreeMap::new(),
            ready_chunks: BinaryHeap::new(),
            spare_members: Vec::new(),
            spare_layouts: Vec::new(),
            chunk_demands: Vec::new(),
            staged: (0..self.config.devices.max(1)).map(|_| None).collect(),
            tracks: self
                .config
                .tracks
                .map(|_| vec![DeviceTracks::new(); self.config.devices.max(1)]),
            stage_s: Vec::new(),
            stage_spans: Vec::new(),
            estimator: BacklogEstimator::new(self.config.devices),
            prefix_groups: BTreeMap::new(),
            active_sessions: 0,
            events: EventSink { ledger, log },
        };

        // Merge the two arrival streams: prefill sorted by (arrival, id) and
        // decode steps in trace order, a prefill request winning
        // exact-arrival ties.
        let mut prefill_sorted: Vec<&ServeRequest> = prefill.iter().collect();
        prefill_sorted.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        let mut pi = 0usize;
        let mut di = 0usize;
        while pi < prefill_sorted.len() || di < decode.steps.len() {
            let take_prefill = match (prefill_sorted.get(pi), decode.steps.get(di)) {
                (Some(p), Some(d)) => p.arrival_s <= d.arrival_s,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_prefill {
                let request = prefill_sorted[pi];
                pi += 1;
                pass.dispatch_expired(request.arrival_s)?;
                pass.apply_releases(request.arrival_s);
                pass.on_prefill(request)?;
            } else {
                let event = &decode.steps[di];
                di += 1;
                pass.dispatch_expired(event.arrival_s)?;
                pass.apply_releases(event.arrival_s);
                pass.on_decode(event);
            }
        }
        pass.flush()?;

        // Destructure the pass to end its borrows of the engine before
        // storing the sealed telemetry back on `self`.
        let EngineRun { events, tracks, .. } = pass;
        self.telemetry = events.log;
        self.track_stats = tracks;
        Ok(events.ledger.into_report())
    }
}

/// Rejects a non-finite or negative arrival time anywhere in either stream,
/// naming the offending request or session, a prefill request id or
/// session id used twice, a session whose prompt plus steps exceed
/// `u32::MAX` tokens, a step of a declared session whose index is not below
/// the session's step count, a step of an undeclared session whose index
/// exceeds `u32::MAX`, and a step whose index is not above its session's
/// previous step's. The event loop orders, windows and expires work by
/// arrival, so such a timestamp has no meaningful place on the timeline; a
/// shared request id would make two requests one in the event log, and a
/// shared session id would leave a step's session ambiguous. The log stores
/// step indices and context lengths as `u32`, a repeated step would
/// complete or be rejected twice, and a step past the session's count would
/// keep it from ever finishing and releasing its KV charge. Returns the
/// run's session slab, which the duplicate check sorts.
fn validate_inputs<'a>(
    prefill: &[ServeRequest],
    decode: &'a DecodeTrace,
    config: &EngineConfig,
) -> Result<Sessions<'a>> {
    for (name, window) in [
        ("BatchPolicy::window_s", config.batching.window_s),
        ("DecodePolicy::window_s", config.decode.window_s),
    ] {
        // Launches are sealed and ordered by `first arrival + window`.
        if !(window.is_finite() && window >= 0.0) {
            return Err(SimError::InvalidConfig {
                reason: format!("{name} is {window} s; batching windows must be finite and >= 0"),
            });
        }
    }
    let valid_arrival = |t: f64| t.is_finite() && t >= 0.0;
    // An infinite deadline is valid (it is never missed).
    let invalid_deadline = |d: Option<f64>| d.filter(|d| d.is_nan() || *d < 0.0);
    for r in prefill {
        if !valid_arrival(r.arrival_s) {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "prefill request {} arrives at {} s; arrival times must be finite and >= 0",
                    r.id, r.arrival_s
                ),
            });
        }
        if let Some(deadline) = invalid_deadline(r.deadline_s) {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "prefill request {} has a deadline of {deadline} s; deadlines must be >= 0",
                    r.id
                ),
            });
        }
    }
    // Ids key the event log and the conservation check. One pass suffices
    // for the strictly increasing ids of `ServeRequest::stream_from_trace`.
    if prefill.windows(2).any(|w| w[0].id >= w[1].id) {
        let mut ids: Vec<u64> = prefill.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        if let Some(pair) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "prefill request id {} is used by more than one request",
                    pair[0]
                ),
            });
        }
    }
    if let Some(deadline) = invalid_deadline(config.decode.step_deadline_s) {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "DecodePolicy::step_deadline_s is {deadline} s; deadlines must be >= 0"
            ),
        });
    }
    let context_limit = u32::MAX as usize;
    if let Some(spec) = (decode.sessions.iter()).find(|s| {
        s.prompt_len
            .checked_add(s.steps)
            .is_none_or(|n| n > context_limit)
    }) {
        return Err(SimError::InvalidConfig {
            reason: format!(
                "decode session {} has a {}-token prompt and {} steps; their sum must not \
                 exceed {context_limit} tokens",
                spec.id, spec.prompt_len, spec.steps
            ),
        });
    }
    let sessions = Sessions::new(&decode.sessions)?;
    // The least index the next step of a session may carry: per slot for
    // declared sessions, and by id for undeclared ones, whose steps are
    // rejected at run time but still logged and counted by step.
    let mut next_index = vec![0usize; sessions.slots.len()];
    let mut next_undeclared: BTreeMap<u64, usize> = BTreeMap::new();
    for e in &decode.steps {
        let invalid = |why: String| SimError::InvalidConfig {
            reason: format!(
                "decode step {} of session {} {why}",
                e.step_index, e.session_id
            ),
        };
        if !valid_arrival(e.arrival_s) {
            return Err(invalid(format!(
                "arrives at {} s; arrival times must be finite and >= 0",
                e.arrival_s
            )));
        }
        let follows = |next: usize| {
            invalid(format!(
                "follows step {} of the same session; step indices must increase in trace order",
                next - 1
            ))
        };
        let Some(slot) = sessions.slot(e.session_id) else {
            if e.step_index > context_limit {
                return Err(invalid(format!(
                    "is out of range: the session is undeclared, and step indices must not \
                     exceed {context_limit}"
                )));
            }
            let next = next_undeclared.entry(e.session_id).or_default();
            if e.step_index < *next {
                return Err(follows(*next));
            }
            *next = e.step_index + 1;
            continue;
        };
        let steps = sessions.slots[slot].spec.steps;
        if e.step_index >= steps {
            return Err(invalid(format!(
                "is out of range: the session declares {steps} steps"
            )));
        }
        if e.step_index < next_index[slot] {
            return Err(follows(next_index[slot]));
        }
        next_index[slot] = e.step_index + 1;
    }
    Ok(sessions)
}

/// Plans one uncached prefill key: tiling via the plan-only entry point,
/// then one simulated execution. Pure function of its arguments.
fn plan_one(
    planner: &Planner,
    method: mas_dataflow::DataflowKind,
    workload: &AttentionWorkload,
    tuned: bool,
) -> Result<CachedPlan> {
    let planned = planner.plan(method, workload);
    let run = planner.execute(&planned, workload)?;
    Ok(CachedPlan {
        tiling: planned.tiling,
        cycles: run.report.total_cycles,
        seconds: run.report.total_seconds,
        energy_pj: run.report.total_energy_pj(),
        dram_read_bytes: run.report.dram_read_bytes,
        dram_write_bytes: run.report.dram_write_bytes,
        tuned,
    })
}

/// The launch slot of one interned [`LaunchKey`]: the not-yet-dispatched
/// launch accumulating same-key work toward a window, fill or feasibility
/// dispatch, open while it has members. A key keeps its slot, and so its
/// member buffers, for the whole run.
struct OpenLaunch<'a> {
    key: LaunchKey,
    /// The open launch's id (stale while closed).
    id: u64,
    first_arrival_s: f64,
    /// Prefill members, for a prefill key.
    requests: Vec<&'a ServeRequest>,
    /// Decode members with their session slots, for a decode key.
    steps: Vec<(DecodeStepItem, usize)>,
    /// The decode members' summed demand, each step priced once as it
    /// joins; dispatch takes it.
    demand: TrackDemand,
}

/// The run's launch slots, indexed by interned key.
#[derive(Default)]
struct Launches<'a> {
    slots: Vec<OpenLaunch<'a>>,
    ids: BTreeMap<LaunchKey, usize>,
    /// Slots of the open launches, in no particular order.
    open: Vec<usize>,
    /// A lower bound on the earliest window end among open launches:
    /// expiry scans only once `now` reaches it.
    next_expiry_s: f64,
}

impl<'a> Launches<'a> {
    /// The slot of `key`, interned on first use.
    fn intern(&mut self, key: LaunchKey) -> usize {
        let next = self.slots.len();
        let slot = *self.ids.entry(key).or_insert(next);
        if slot == next {
            self.slots.push(OpenLaunch {
                key,
                id: 0,
                first_arrival_s: 0.0,
                requests: Vec::new(),
                steps: Vec::new(),
                demand: TrackDemand::default(),
            });
        }
        slot
    }

    /// Unlists slot `k` as it dispatches.
    fn close(&mut self, k: usize) {
        self.open.retain(|&open| open != k);
    }
}

/// Deferred shared-budget releases with their due instants, in scheduling
/// order.
#[derive(Default)]
struct Releases {
    due: Vec<(f64, Release)>,
    /// A lower bound on the earliest due instant.
    next_s: f64,
}

impl Releases {
    fn push(&mut self, due_s: f64, release: Release) {
        self.due.push((due_s, release));
        self.next_s = self.next_s.min(due_s);
    }
}

/// The holder of a deferred release: a completed prefill launch's
/// activation charge, or a finished session's KV residency (by slot).
#[derive(Clone, Copy)]
enum Release {
    Launch(u64),
    Session(usize),
}

/// Where the engine's events go: always into the ledger, which builds the
/// report and tracks the shared budget, and into the telemetry log when
/// recording.
struct EventSink {
    ledger: Ledger,
    /// The opt-in event log (`None` keeps none).
    log: Option<Telemetry>,
}

impl EventSink {
    /// Folds one event into the ledger and logs it when recording.
    #[inline]
    fn emit(&mut self, t_s: f64, kind: EventKind) {
        self.ledger.apply(t_s, &kind);
        if let Some(log) = self.log.as_mut() {
            log.record(t_s, &kind);
        }
    }

    /// Logs an event the ledger has no use for (the run header, arrivals,
    /// stage spans and the id-only rejection and completions), building it
    /// only when recording.
    fn log(&mut self, t_s: f64, kind: impl FnOnce() -> EventKind) {
        if let Some(log) = self.log.as_mut() {
            log.record(t_s, &kind());
        }
    }

    /// Logs a prefill request's arrival when recording, without cloning its
    /// workload name.
    fn log_prefill_arrival(&mut self, request: &ServeRequest) {
        if let Some(log) = self.log.as_mut() {
            log.record_prefill_arrival(
                request.arrival_s,
                request.id,
                &request.workload.name,
                request.method,
                request.workload.batch as u32,
                request.deadline_s,
            );
        }
    }

    /// Rejects one decode step.
    fn reject_step(
        &mut self,
        t_s: f64,
        session_id: u64,
        step_index: usize,
        reason: DecodeRejectReason,
    ) {
        let step_index = step_index as u32;
        self.emit(
            t_s,
            EventKind::DecodeStepRejected {
                session_id,
                step_index,
                reason,
            },
        );
    }

    /// Logs a prefill rejection and hands the ledger its whole record.
    fn reject_prefill(&mut self, request: &ServeRequest, reason: RejectReason) {
        self.log(request.arrival_s, || EventKind::PrefillRejected {
            id: request.id,
            reason,
        });
        self.ledger.reject_prefill(RejectedRequest {
            id: request.id,
            workload: request.workload.name.clone(),
            arrival_s: request.arrival_s,
            reason,
        });
    }

    /// Logs the completion of `request` by `done` and hands the ledger
    /// its outcome.
    fn complete_prefill(&mut self, done: &Completion, request: &ServeRequest) {
        self.log(done.completion_s, || EventKind::PrefillCompleted {
            id: request.id,
            launch_id: done.launch_id,
        });
        self.ledger.complete_prefill(done.prefill(
            request.id,
            &request.workload.name,
            request.method,
            request.workload.batch as f64,
            request.arrival_s,
            request.deadline_s,
        ));
    }

    /// Logs the completion of `step` by `done` and hands the ledger its
    /// outcome.
    fn complete_decode(
        &mut self,
        done: &Completion,
        step: &DecodeStepItem,
        deadline_s: Option<f64>,
    ) {
        self.log(done.completion_s, || EventKind::DecodeCompleted {
            session_id: step.session_id,
            step_index: step.step_index as u32,
            context_len: step.context_len as u32,
            launch_id: done.launch_id,
        });
        self.ledger.complete_decode(done.decode(
            step.session_id,
            step.step_index,
            step.context_len,
            step.arrival_s,
            deadline_s,
        ));
    }
}

/// One in-flight chunked-prefill chain: the sealed batch's members and
/// launch payload, the chunk layout, and the lazy-dispatch cursor. The
/// chain id is the launch id of the chain's first chunk.
struct ChunkChain<'a> {
    requests: Vec<&'a ServeRequest>,
    total_batch: usize,
    /// The monolithic plan's energy, attributed to the last chunk's launch
    /// (earlier chunks carry zero) and split across members at completion.
    energy_pj: f64,
    cache_hit: bool,
    /// Per chunk, its service seconds and track profile, fixed at dispatch
    /// while the chunk shapes are known. The service seconds split the
    /// monolithic plan's in proportion to each chunk's price, plus one
    /// launch-issue overhead for every chunk after the first (the modeled
    /// cost of chunking), which its profile carries too. The chain's total
    /// service is therefore the monolithic service plus `(chunks - 1)`
    /// issue overheads.
    chunks: Vec<(f64, Profile)>,
    /// Index of the next chunk to place (`chunks.len()` = all placed).
    next_index: usize,
    /// Earliest instant the next chunk may start: the batch's ready time
    /// for chunk 0, then the previous chunk's completion.
    next_ready_s: f64,
    /// Bumped at every placement of one of the chain's chunks (a displaced
    /// chunk's re-placement included), so only the newest of the chain's
    /// [`ReadyChunk`] entries is current.
    generation: u64,
    /// The completed chunks folded into the chain's completion, in chunk
    /// order (chunks complete in start order, and chain starts ascend);
    /// member outcomes close on it.
    done: Option<Completion>,
    /// Chunks completed so far; the members complete at `chunks.len()`.
    done_chunks: usize,
}

/// A chain's next chunk in the ready-chunk queue: the chain's
/// `next_ready_s` and the chain's generation when it was queued. Entries
/// are never removed early: one is current only while its chain is live,
/// has chunks left and still has that generation, and a stale one is
/// dropped when it reaches the top. Ordered by `(ready, chain id)`, the
/// order ready chunks place in (the generation only splits a stale entry
/// from a current one).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ReadyChunk {
    /// `next_ready_s`'s bits. Times are never negative and `-0.0` is
    /// stored as `0.0`, so the bits order as the times do.
    ready_bits: u64,
    chain: u64,
    generation: u64,
}

/// The record of one launch of any kind — a monolithic prefill batch, one
/// chunk of a chain or a decode batch: the figures its launch event
/// records. What it completes into rides beside it as a [`Payload`], and
/// what the track executor places it by as a [`Profile`], so the record is
/// plain `Copy` data the per-launch path can keep in registers.
#[derive(Clone, Copy)]
struct Launch {
    launch_id: u64,
    key: LaunchKey,
    ready_s: f64,
    /// The scalar-model service time; a displaced span re-places with it.
    service_s: f64,
    members: u32,
    total_batch: u32,
    energy_pj: f64,
    cache_hit: bool,
    cause: SealCause,
    /// What the backlog estimator is fed at completion: the merged
    /// workload's service lower bound for monolithic batches and the
    /// launch's own service time otherwise. Always the *scalar* estimate,
    /// even when the track executor commits a shorter span, so admission
    /// stays identical across modes.
    est_service_s: f64,
}

/// What the track executor places a launch by: its four-track demand and
/// the issue overhead its service time carries.
type Profile = (TrackDemand, f64);

/// What a launch completes into.
enum Payload<'a> {
    /// A monolithic prefill batch: member outcomes close on the span.
    Monolithic { requests: Vec<&'a ServeRequest> },
    /// One chunk of a chain: the chain aggregates, and its members
    /// complete with its last chunk.
    Chunk { chain: u64, index: usize },
    /// A decode batch: the member steps with their session slots, borrowed
    /// from launch slot `slot` and handed back to it, cleared, at
    /// completion.
    Decode {
        slot: usize,
        steps: Vec<(DecodeStepItem, usize)>,
    },
}

/// Where and when a placed launch runs.
struct Span {
    device: usize,
    start_s: f64,
    /// The placed span's service time (the launch's scalar one on scalar
    /// commits).
    service_s: f64,
    completion_s: f64,
    /// The flow-shop stage spans when the track executor committed this
    /// span (`None` = scalar commit); logged at completion.
    stages: Option<Vec<StageSpan>>,
}

/// A placed prefill-class launch whose effects (events, outcomes, budget
/// release, utilization tallies) are deferred until it *starts*: while
/// staged, a deadline-pressed decode launch may displace it back to the
/// queue. Device `free_at` is already advanced past the span —
/// `prev_free_s` is what displacement rolls back to.
struct StagedSpan<'a> {
    launch: Launch,
    payload: Payload<'a>,
    span: Span,
    /// The profile it was placed by; a displaced span re-places with it.
    profile: Profile,
    /// `free_at[device]` before this span was placed.
    prev_free_s: f64,
    /// The device's track state before this placement (`None` with the
    /// track executor off).
    prev_tracks: Option<DeviceTracks>,
}

/// Per-session decode bookkeeping (admission verdict, step progress, KV
/// charge).
struct SessionState<'a> {
    spec: &'a DecodeSessionSpec,
    /// The slot of the session's decode launch key, interned at admission.
    launch: usize,
    admitted: bool,
    reject_reason: Option<DecodeRejectReason>,
    /// Steps that completed on a device.
    completed_steps: usize,
    /// Steps rejected after admission (e.g. deadline screening).
    rejected_steps: usize,
    /// Steps joined to a not-yet-dispatched launch.
    pending_steps: usize,
    /// KV blocks currently allocated (their bytes are the session's charge
    /// in the ledger).
    charged_blocks: u64,
    /// Bytes of actual resident context tokens (prompt plus generated),
    /// used for fragmentation reporting.
    used_bytes: u64,
    /// Whole KV blocks of the session's shared prefix charged group-wide
    /// instead of privately (zero without prefix sharing). The session's
    /// own `charged_blocks` and ledger charge cover only its private tail.
    shared_blocks: u64,
    /// The prefix group the session joined at admission (`None` = fully
    /// private residency).
    prefix_group: Option<u64>,
    /// Set while the session is KV-preempted: the stashed resident-token
    /// bytes and the eviction mode. The session's block charge is zero
    /// until its next step re-charges through the normal growth path.
    swapped: Option<(u64, PreemptMode)>,
}

impl SessionState<'_> {
    /// Whether every step the session will ever request has been accounted
    /// for (completed or rejected) with nothing still waiting in a launch —
    /// the point at which its KV residency can be released.
    fn finished(&self) -> bool {
        self.completed_steps + self.rejected_steps == self.spec.steps && self.pending_steps == 0
    }

    /// `K` plus `V` bytes of one context token at the session's shape.
    fn token_bytes(&self, element_bytes: usize) -> u64 {
        2 * self.spec.kv_heads as u64 * self.spec.embed as u64 * element_bytes as u64
    }

    /// Blocks covering `context_len` tokens at `block_tokens` per block —
    /// plain arithmetic (`DecodeStep::kv_blocks` without building a step on
    /// the per-event hot path).
    fn blocks_at(context_len: usize, block_tokens: usize) -> u64 {
        context_len.div_ceil(block_tokens.max(1)) as u64
    }

    /// `K` plus `V` bytes of one KV block at the session's shape
    /// (`DecodeStep::kv_block_bytes` without the step allocation). Clamps a
    /// zero block size to one token, like [`SessionState::blocks_at`], so a
    /// degenerate `kv_block_tokens: 0` policy charges per token instead of
    /// silently disabling the budget.
    fn block_bytes(&self, block_tokens: usize, element_bytes: usize) -> u64 {
        block_tokens.max(1) as u64 * self.token_bytes(element_bytes)
    }
}

/// One decode step of `key`'s shape at `context_len`, unnamed so pricing
/// it allocates nothing. Callers must have validated the head grouping
/// (admission rejects invalid groupings as infeasible before any step is
/// priced).
fn decode_step(key: DecodeKey, context_len: usize) -> DecodeStep {
    DecodeStep {
        name: String::new(),
        batch: 1,
        heads: key.heads,
        kv_heads: key.kv_heads,
        context_len,
        embed: key.embed,
    }
}

/// The run's sessions in ascending id order, so a reverse walk visits the
/// largest id first, with an id → slot table when the ids are dense.
struct Sessions<'a> {
    slots: Vec<SessionState<'a>>,
    /// `table[id]` is the slot of session `id` (`u32::MAX` for none);
    /// `None` when the largest id is 4 × sessions + 64 or more, and a
    /// lookup binary searches the slots instead.
    table: Option<Vec<u32>>,
}

impl<'a> Sessions<'a> {
    /// Builds the slab, or names a session id that two specs share.
    fn new(specs: &'a [DecodeSessionSpec]) -> Result<Self> {
        let mut slots: Vec<SessionState<'a>> = specs
            .iter()
            .map(|spec| SessionState {
                spec,
                launch: 0,
                admitted: false,
                reject_reason: None,
                completed_steps: 0,
                rejected_steps: 0,
                pending_steps: 0,
                charged_blocks: 0,
                used_bytes: 0,
                shared_blocks: 0,
                prefix_group: None,
                swapped: None,
            })
            .collect();
        slots.sort_unstable_by_key(|s| s.spec.id);
        if let Some(pair) = slots.windows(2).find(|w| w[0].spec.id == w[1].spec.id) {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "decode session id {} is used by more than one session spec",
                    pair[0].spec.id
                ),
            });
        }
        let dense = slots
            .last()
            .is_none_or(|s| s.spec.id < 4 * slots.len() as u64 + 64);
        let table = dense.then(|| {
            let mut table = vec![u32::MAX; slots.last().map_or(0, |s| s.spec.id as usize + 1)];
            for (slot, s) in slots.iter().enumerate() {
                table[s.spec.id as usize] = slot as u32;
            }
            table
        });
        Ok(Self { slots, table })
    }

    /// The slot of session `id`, if the trace declares it.
    fn slot(&self, id: u64) -> Option<usize> {
        match &self.table {
            Some(table) => usize::try_from(id)
                .ok()
                .and_then(|id| table.get(id))
                .filter(|&&slot| slot != u32::MAX)
                .map(|&slot| slot as usize),
            None => self.slots.binary_search_by_key(&id, |s| s.spec.id).ok(),
        }
    }
}

/// Group-wide bookkeeping for one shared prefix under
/// [`DecodePolicy::prefix_share`]: the whole blocks of the common prompt
/// prefix are charged against the budget once here, referenced by every
/// member session, and released when the last member releases.
struct PrefixGroupState {
    /// Member sessions currently holding the group's blocks.
    refs: usize,
    /// Shared prefix blocks charged group-wide (the longest member prefix
    /// seen so far). Their bytes are the group's charge in the ledger, and
    /// all of them hold resident tokens (shared blocks are always full).
    charged_blocks: u64,
    /// `K`+`V` bytes of one block at the group's shape — sessions whose
    /// block bytes differ cannot share and fall back to private residency.
    block_bytes: u64,
}

/// All mutable state of one engine replay: the event loop's stages are its
/// methods, and the comments note where shared-budget or cross-class
/// behavior enters (all of which are no-ops for single-class streams).
struct EngineRun<'a> {
    config: &'a EngineConfig,
    planner: &'a Planner,
    cache: &'a mut ScheduleCache,
    hw: HardwareConfig,
    element_bytes: usize,
    /// Bytes per stored KV element ([`DecodePolicy::kv_element_bytes`]):
    /// prices every KV residency charge and the cache-stream term of launch
    /// costing, while `element_bytes` keeps pricing activations.
    kv_element_bytes: usize,
    tuned: bool,
    /// [`planning_fingerprint`] of the planner configuration, for the
    /// schedule-cache keys of prefill dispatches.
    fingerprint: u64,
    max_batch: usize,
    max_steps_per_launch: usize,
    free_at: Vec<f64>,
    launches: Launches<'a>,
    /// Scratch for the expired launches of one event, as
    /// `(class rank, launch id, slot)`.
    expired: Vec<(u8, u64, usize)>,
    open_prefill_members: usize,
    next_launch_id: u64,
    sessions: Sessions<'a>,
    releases: Releases,
    /// In-flight chunked-prefill chains by chain id
    /// ([`EngineConfig::chunked_prefill`]).
    chunk_chains: BTreeMap<u64, ChunkChain<'a>>,
    /// Every chain with chunks left to place, by `(ready, chain id)` of
    /// its next chunk, plus stale entries dropped lazily.
    ready_chunks: BinaryHeap<Reverse<ReadyChunk>>,
    /// Emptied member lists of completed prefill batches: a sealing batch
    /// hands its list on and takes one of these for the slot's next batch.
    spare_members: Vec<Vec<&'a ServeRequest>>,
    /// Emptied chunk layouts ([`ChunkChain::chunks`]) of finished chains.
    spare_layouts: Vec<Vec<(f64, Profile)>>,
    /// The per-chunk demands of the batch being chunked, reused across
    /// batches.
    chunk_demands: Vec<LaunchDemand>,
    /// At most one staged (placed, effects-deferred, displaceable)
    /// prefill-class span per device. Always empty unless slot preemption
    /// is active ([`EngineConfig::preempt`] under
    /// [`SchedulePolicy::DecodePriority`]).
    staged: Vec<Option<StagedSpan<'a>>>,
    /// Per-device continuous-time track clocks, `Some` only under
    /// [`EngineConfig::tracks`]. Every launch placement either commits a
    /// flow-shop schedule here or barriers the clocks behind its scalar
    /// span, so the clocks always cover everything committed to `free_at`.
    tracks: Option<Vec<DeviceTracks>>,
    /// The per-stage, per-track seconds of the launch being placed on the
    /// tracks, reused across launches.
    stage_s: Vec<[f64; TRACK_COUNT]>,
    /// The stage spans of the launch being placed on the tracks, reused
    /// across launches and copied out only when the flow-shop commits.
    stage_spans: Vec<StageSpan>,
    estimator: BacklogEstimator,
    /// Live prefix groups under [`DecodePolicy::prefix_share`].
    prefix_groups: BTreeMap<u64, PrefixGroupState>,
    active_sessions: usize,
    /// The ledger (report and shared-budget occupancy) and the log.
    events: EventSink,
}

impl<'a> EngineRun<'a> {
    /// The batching window of a class.
    fn window_s(&self, class: WorkClass) -> f64 {
        match class {
            WorkClass::Prefill => self.config.batching.window_s,
            WorkClass::Decode => self.config.decode.window_s,
        }
    }

    /// Attempts the overlap-aware flow-shop placement of one launch on
    /// `device` and commits whichever candidate completes earlier:
    ///
    /// * Returns `Some(placement)` — and commits it to the device's track
    ///   clocks — when the stage DAG beats the scalar span strictly. Its
    ///   stage spans are then in `self.stage_spans`.
    /// * Returns `None` — and barriers the track clocks behind
    ///   `scalar_completion_s` — when the scalar candidate wins (ties go to
    ///   scalar) or the demand's bound is zero.
    ///
    /// The stage durations spread the launch's *modeled* service time (not
    /// just the roofline bound) over the streams: each track's ideal
    /// seconds are stretched by `(scalar_service − issue) / bound ≥ 1`, so
    /// tiling slack and simulation overheads are conserved, and the issue
    /// overhead rides the MAC queue ahead of the first compute stage where
    /// it can hide under the first tile's DMA. With
    /// [`TrackConfig::degenerate`] the serialized DAG is provably ≥ the
    /// scalar span, so scalar always wins and replays stay bit-identical.
    ///
    /// The stage demands ([`TrackDemand::stage_shares`]) go straight into
    /// the run's reused `stage_s` buffer, and [`DeviceTracks::plan`] writes
    /// the spans into the reused `stage_spans`, so trying a placement
    /// allocates nothing; [`EngineRun::place`] copies the spans out only
    /// for a flow-shop commit.
    fn try_track_placement(
        &mut self,
        device: usize,
        ready_s: f64,
        scalar_service_s: f64,
        scalar_completion_s: f64,
        (demand, issue_s): &Profile,
    ) -> Option<TrackPlacement> {
        let cfg = self.config.tracks?;
        let dev = &mut self.tracks.as_mut()?[device];
        let bound = demand.stream().bound_seconds(&self.hw);
        if bound > 0.0 {
            let stretch = ((scalar_service_s - issue_s) / bound).max(1.0);
            let stage_s = &mut self.stage_s;
            stage_s.clear();
            stage_s.extend(demand.stage_shares(cfg.stages).map(|d| {
                let mut s = d.track_seconds(&self.hw);
                for v in &mut s {
                    *v *= stretch;
                }
                s
            }));
            if *issue_s > 0.0 {
                stage_s[0][TrackKind::Mac.index()] += *issue_s;
            }
            let placement = dev.plan(ready_s, stage_s, cfg.fused_queue, &mut self.stage_spans);
            if placement.completion_s < scalar_completion_s {
                dev.commit(&placement);
                return Some(placement);
            }
            // Scalar wins: the launch occupies the whole device, but its
            // demand still loads specific queues — attribute it so the
            // per-track busy figures expose the workload's regime
            // (DMA-bound vs MAC-bound) on either commit path.
            let mut seconds = [0.0; TRACK_COUNT];
            for durs in stage_s.iter() {
                for (sum, d) in seconds.iter_mut().zip(durs) {
                    *sum += d;
                }
            }
            dev.barrier(scalar_completion_s);
            dev.attribute(seconds);
            return None;
        }
        dev.barrier(scalar_completion_s);
        None
    }

    /// The earliest-free virtual device (first index on ties).
    fn earliest_free_device(&self) -> usize {
        self.free_at
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("times are finite"))
            .map(|(i, _)| i)
            .expect("at least one device")
    }

    /// Whether slot preemption is active: prefill-class placements stage
    /// (effects deferred, displaceable until started) only when preemption
    /// is configured *and* decode outranks prefill — the policy that says
    /// decode latency is worth displacing prefill for.
    fn staging_active(&self) -> bool {
        self.config.preempt.is_some() && self.config.policy == SchedulePolicy::DecodePriority
    }

    /// Dispatches every open launch whose window ended at or before `now`,
    /// ordered by the scheduling policy's class rank and then by launch
    /// creation order (pure creation order for a single class). Ready
    /// chunk-chain chunks place first: they continue work
    /// already committed to the timeline.
    fn dispatch_expired(&mut self, now_s: f64) -> Result<()> {
        // Staged spans that have started are no longer displaceable: pin
        // their effects before anything new dispatches at `now`. (Nothing
        // stages without slot preemption.)
        if self.staging_active() {
            self.harden_through(now_s);
        }
        self.dispatch_ready_chunks(now_s);
        if now_s < self.launches.next_expiry_s {
            return Ok(());
        }
        let mut expired = std::mem::take(&mut self.expired);
        let mut next_expiry_s = f64::INFINITY;
        for &k in &self.launches.open {
            let launch = &self.launches.slots[k];
            let class = launch.key.class();
            let end_s = launch.first_arrival_s + self.window_s(class);
            if now_s >= end_s {
                expired.push((self.config.policy.class_rank(class), launch.id, k));
            } else {
                next_expiry_s = next_expiry_s.min(end_s);
            }
        }
        // Dispatching never opens a launch, so the bound holds afterwards.
        self.launches.next_expiry_s = next_expiry_s;
        expired.sort_unstable();
        for &(_, _, k) in &expired {
            let launch = &self.launches.slots[k];
            let ready_s = launch.first_arrival_s + self.window_s(launch.key.class());
            self.dispatch(k, ready_s, SealCause::Window, now_s)?;
        }
        expired.clear();
        self.expired = expired;
        Ok(())
    }

    /// Places every chunk whose chain is ready at or before `now`, in
    /// `(ready, chain id)` order. Chunk `k+1` becomes ready only at chunk
    /// `k`'s completion, so the loop walks each chain at most one virtual
    /// completion at a time — the lazy dispatch that lets decode launches
    /// slot between chunks. The next chunk is the top of `ready_chunks`
    /// once stale entries are dropped, so a call that places nothing reads
    /// the top and returns, and a placement costs `O(log chains)`.
    fn dispatch_ready_chunks(&mut self, now_s: f64) {
        while let Some(&Reverse(next)) = self.ready_chunks.peek() {
            let current = (self.chunk_chains.get(&next.chain)).is_some_and(|chain| {
                chain.generation == next.generation && chain.next_index < chain.chunks.len()
            });
            if !current {
                self.ready_chunks.pop();
                continue;
            }
            if f64::from_bits(next.ready_bits) > now_s {
                return;
            }
            if self.staging_active() {
                // With preemption on, keep the committed horizon to one
                // running span plus one displaceable staged span per
                // device: placing another chunk would harden the
                // incumbent while it is still displaceable, walling
                // decode launches behind committed prefill work. Defer —
                // ready chains stay ready and place once the incumbent
                // starts (hardens) or is displaced.
                let incumbent = self.staged[self.earliest_free_device()].as_ref();
                if incumbent.is_some_and(|s| s.span.start_s > now_s) {
                    return;
                }
            }
            self.ready_chunks.pop();
            self.place_chunk(next.chain, SealCause::Chain);
        }
    }

    /// Places one chunk of a chain on the earliest-free device, then queues
    /// the chain's next chunk, if it has one, at this chunk's completion.
    /// `cause` is the batch's real seal cause for chunk 0 and
    /// [`SealCause::Chain`] for every later chunk.
    fn place_chunk(&mut self, chain_id: u64, cause: SealCause) {
        let chain = self.chunk_chains.get_mut(&chain_id).expect("chain exists");
        let index = chain.next_index;
        let (service_s, profile) = chain.chunks[index];
        let of = chain.chunks.len();
        chain.next_index = index + 1;
        // Whatever the queue holds for the chain is stale from here on.
        chain.generation += 1;
        // Chunk 0 reuses the chain id (it *is* the sealed batch's launch);
        // later chunks draw fresh ids from the shared launch-id space.
        let launch_id = if index == 0 {
            chain_id
        } else {
            self.next_launch_id += 1;
            self.next_launch_id - 1
        };
        let launch = Launch {
            launch_id,
            key: LaunchKey::PrefillChunk(ChunkKey {
                chain: chain_id,
                index: index as u32,
                of: of as u32,
            }),
            ready_s: chain.next_ready_s,
            service_s,
            members: chain.requests.len() as u32,
            total_batch: chain.total_batch as u32,
            // Member outcomes split the plan's energy via the *last*
            // chunk's launch record; earlier chunks carry zero.
            energy_pj: if index + 1 == of {
                chain.energy_pj
            } else {
                0.0
            },
            cache_hit: chain.cache_hit,
            cause,
            est_service_s: service_s,
        };
        let payload = Payload::Chunk {
            chain: chain_id,
            index,
        };
        let completion_s = self.place(launch, payload, profile);
        // On the immediate (non-staging) path the last chunk completes
        // inside `place`, finalizing and removing the chain — the cursor
        // update is moot then.
        if let Some(chain) = self.chunk_chains.get_mut(&chain_id) {
            chain.next_ready_s = completion_s;
            if chain.next_index < of {
                self.ready_chunks.push(Reverse(ReadyChunk {
                    ready_bits: (completion_s + 0.0).to_bits(),
                    chain: chain_id,
                    generation: chain.generation,
                }));
            }
        }
    }

    /// Places one launch of any kind on the earliest-free device: pins that
    /// device's staged incumbent, starts the launch at `max(free_at,
    /// ready)`, commits the track executor's span for `profile` instead
    /// when it completes earlier, and advances `free_at`. A prefill-class
    /// launch stages for possible displacement while slot preemption is
    /// active; every other launch completes at once. Returns the span's
    /// completion instant. Inlined with [`EngineRun::complete`], so a decode
    /// batch (most launches) pays no call and keeps its record in
    /// registers.
    #[inline(always)]
    fn place(&mut self, launch: Launch, payload: Payload<'a>, profile: Profile) -> f64 {
        let device = self.earliest_free_device();
        // One staged span per device (none without staging): pin the
        // incumbent (its slot is committed — the new span starts after it)
        // in global start order.
        if let Some(limit) = self.staged[device].as_ref().map(|s| s.span.start_s) {
            self.harden_through(limit);
        }
        let prev_free_s = self.free_at[device];
        let start_s = prev_free_s.max(launch.ready_s);
        let mut span = Span {
            device,
            start_s,
            service_s: launch.service_s,
            completion_s: start_s + launch.service_s,
            stages: None,
        };
        let stage = self.staging_active() && launch.key.class() == WorkClass::Prefill;
        let prev_tracks = (self.tracks.as_ref()).filter(|_| stage).map(|t| t[device]);
        if self.tracks.is_some() {
            if let Some(p) = self.try_track_placement(
                device,
                launch.ready_s,
                launch.service_s,
                span.completion_s,
                &profile,
            ) {
                span.start_s = p.start_s;
                span.completion_s = p.completion_s;
                span.service_s = p.completion_s - p.start_s;
                span.stages = Some(self.stage_spans.clone());
            }
        }
        let completion_s = span.completion_s;
        self.free_at[device] = completion_s;
        if stage {
            self.staged[device] = Some(StagedSpan {
                launch,
                payload,
                span,
                profile,
                prev_free_s,
                prev_tracks,
            });
        } else {
            self.complete(launch, payload, span);
        }
        completion_s
    }

    /// Completes every staged span whose start is at or before `limit_s`,
    /// in ascending start order. Global start order keeps per-device event
    /// order equal to start order and chunk events in chain order.
    fn harden_through(&mut self, limit_s: f64) {
        loop {
            let next = self
                .staged
                .iter()
                .enumerate()
                .filter_map(|(d, slot)| slot.as_ref().map(|s| (s.span.start_s, d)))
                .min_by(|a, b| a.partial_cmp(b).expect("start times are finite"));
            let Some((start_s, device)) = next else {
                return;
            };
            if start_s > limit_s {
                return;
            }
            let staged = self.staged[device].take().expect("selected above");
            self.complete(staged.launch, staged.payload, staged.span);
        }
    }

    /// Applies a placed launch's effects, in one order for every kind of
    /// launch, staged or not: the backlog estimate, the launch event (which
    /// carries its utilization and makespan into the ledger), its stage
    /// spans, then its members' outcomes and releases.
    #[inline(always)]
    fn complete(&mut self, launch: Launch, payload: Payload<'a>, span: Span) {
        let device = span.device;
        self.estimator.feed(launch.ready_s, launch.est_service_s);
        self.events.emit(
            span.start_s,
            EventKind::LaunchDispatched {
                launch_id: launch.launch_id,
                key: launch.key,
                device: device as u32,
                ready_s: launch.ready_s,
                start_s: span.start_s,
                completion_s: span.completion_s,
                service_s: span.service_s,
                members: launch.members,
                total_batch: launch.total_batch,
                energy_pj: launch.energy_pj,
                cache_hit: launch.cache_hit,
                cause: launch.cause,
            },
        );
        for s in span.stages.unwrap_or_default() {
            self.events.log(s.start_s, || EventKind::LaunchStage {
                launch_id: launch.launch_id,
                device: device as u32,
                track: s.track,
                stage: s.stage as u32,
                start_s: s.start_s,
                end_s: s.end_s,
            });
        }
        let done = Completion {
            launch_id: launch.launch_id,
            batch_id: launch.launch_id,
            device,
            start_s: span.start_s,
            completion_s: span.completion_s,
            service_s: span.service_s,
            energy_pj: launch.energy_pj,
            total_batch: f64::from(launch.total_batch),
            cache_hit: launch.cache_hit,
        };
        match payload {
            Payload::Monolithic { mut requests } => {
                self.complete_requests(&requests, &done, done.launch_id);
                requests.clear();
                self.spare_members.push(requests);
            }
            Payload::Chunk { chain, .. } => self.complete_chunk(chain, done),
            Payload::Decode { slot, mut steps } => {
                let deadline_s = self.config.decode.step_deadline_s;
                for (step, session_slot) in &steps {
                    let session = &mut self.sessions.slots[*session_slot];
                    session.completed_steps += 1;
                    session.pending_steps -= 1;
                    if session.finished() {
                        self.releases
                            .push(done.completion_s, Release::Session(*session_slot));
                    }
                    self.events.complete_decode(&done, step, deadline_s);
                }
                steps.clear();
                self.launches.slots[slot].steps = steps;
            }
        }
    }

    /// Closes the member outcomes of a prefill batch on `done` and
    /// schedules the release of the activation charge it holds under
    /// `launch_id` (its chain id, for a chunked batch). Out of line, like
    /// [`EngineRun::complete_chunk`], so the inlined decode path stays
    /// small.
    #[inline(never)]
    fn complete_requests(
        &mut self,
        requests: &[&'a ServeRequest],
        done: &Completion,
        launch_id: u64,
    ) {
        for request in requests {
            self.events.complete_prefill(done, request);
        }
        // A batch whose members charged nothing holds no charge.
        let owner = MemOwner::PrefillLaunch(launch_id);
        if (self.events.ledger.held(owner)).is_some_and(|bytes| bytes > 0) {
            self.releases
                .push(done.completion_s, Release::Launch(launch_id));
        }
    }

    /// Folds one completed chunk into its chain. With the last chunk the
    /// members complete on the whole chain ([`Completion::then`]), their
    /// events naming the last chunk's launch (replay re-derives the chain
    /// id from its chunk key), and the chain's charge releases once.
    #[inline(never)]
    fn complete_chunk(&mut self, chain_id: u64, done: Completion) {
        let chain = self.chunk_chains.get_mut(&chain_id).expect("chain exists");
        let done = chain.done.map_or(done, |chain| chain.then(done));
        chain.done = Some(done);
        chain.done_chunks += 1;
        if chain.done_chunks == chain.chunks.len() {
            let mut chain = self.chunk_chains.remove(&chain_id).expect("chain exists");
            self.complete_requests(&chain.requests, &done, chain_id);
            chain.requests.clear();
            chain.chunks.clear();
            self.spare_members.push(chain.requests);
            self.spare_layouts.push(chain.chunks);
        }
    }

    /// Applies every deferred release whose completion instant has passed,
    /// in the order the releases were scheduled.
    fn apply_releases(&mut self, now_s: f64) {
        if now_s < self.releases.next_s {
            return;
        }
        // Applying a release never schedules one, so the list can leave
        // `self` while it is filtered in place.
        let mut due = std::mem::take(&mut self.releases.due);
        let mut next_s = f64::INFINITY;
        due.retain(|&(release_s, release)| {
            if release_s > now_s {
                next_s = next_s.min(release_s);
                return true;
            }
            self.release(release, release_s, now_s);
            false
        });
        self.releases = Releases { due, next_s };
    }

    /// Applies one due release scheduled for `release_s`.
    fn release(&mut self, release: Release, release_s: f64, now_s: f64) {
        // A launch returns only its activation bytes; a session also its
        // resident tokens and blocks.
        let (owner, used_bytes, blocks) = match release {
            Release::Launch(launch_id) => (MemOwner::PrefillLaunch(launch_id), 0, 0),
            Release::Session(slot) => {
                let s = &self.sessions.slots[slot];
                (MemOwner::Session(s.spec.id), s.used_bytes, s.charged_blocks)
            }
        };
        // Double-release guard: an owner with no live charge has already
        // released. Applying the duplicate would silently under-report
        // through the ledger's saturating subtractions, so it is dropped
        // and counted.
        let Some(bytes) = self.events.ledger.held(owner) else {
            debug_assert!(false, "duplicate release for {owner}");
            if let Some(log) = self.events.log.as_mut() {
                log.note_release_drop();
            }
            return;
        };
        self.events.emit(
            now_s,
            EventKind::BudgetRelease {
                owner,
                bytes,
                used_bytes,
                blocks,
                scheduled_s: release_s,
            },
        );
        let Release::Session(slot) = release else {
            return;
        };
        let s = &mut self.sessions.slots[slot];
        s.charged_blocks = 0;
        s.used_bytes = 0;
        self.active_sessions = self.active_sessions.saturating_sub(1);
        // Refcount semantics for the shared prefix: the group's blocks are
        // released only with its last member.
        let Some(g) = s.prefix_group.take() else {
            return;
        };
        s.shared_blocks = 0;
        let gs = self.prefix_groups.get_mut(&g).expect("group exists");
        gs.refs -= 1;
        if gs.refs == 0 {
            let gs = self.prefix_groups.remove(&g).expect("present");
            let group = MemOwner::PrefixGroup(g);
            let held = self.events.ledger.held(group);
            debug_assert!(held.is_some(), "duplicate release for {group}");
            // Shared blocks hold only full prompt tokens.
            let bytes = held.unwrap_or(0);
            self.events.emit(
                now_s,
                EventKind::BudgetRelease {
                    owner: group,
                    bytes,
                    used_bytes: bytes,
                    blocks: gs.charged_blocks,
                    scheduled_s: release_s,
                },
            );
        }
    }

    /// Handles one prefill arrival: shape screening, admission (backlog,
    /// estimated queue delay, shared budget), feasibility-preserving join,
    /// fill dispatch.
    fn on_prefill(&mut self, request: &'a ServeRequest) -> Result<()> {
        let now_s = request.arrival_s;
        self.events.log_prefill_arrival(request);

        // A zero dimension leaves nothing to compute and no valid tiling:
        // screen it before any cost model or workload constructor sees it.
        let w = &request.workload;
        if w.batch == 0 || w.heads == 0 || w.seq_len == 0 || w.embed == 0 {
            self.events
                .reject_prefill(request, RejectReason::InfeasibleWorkload);
            return Ok(());
        }

        // Admission against the post-expiry backlog: open prefill members
        // plus the estimated delay of the already-dispatched launch queue
        // (which, on the unified timeline, includes decode launches).
        if let Err(reason) = self.config.admission.admit(
            request.method,
            &request.workload,
            request.deadline_s,
            self.open_prefill_members,
            self.estimator.queue_delay_s(now_s),
            &self.hw,
        ) {
            self.events.reject_prefill(request, reason);
            return Ok(());
        }

        // Shared-budget admission: the request's activation footprint (its
        // four Q/K/V/O operands) must fit beside the resident decode KV.
        let charge = 4 * request.workload.operand_bytes(self.element_bytes);
        if !self.events.ledger.fits(charge) {
            self.events
                .reject_prefill(request, RejectReason::MemoryPressure);
            return Ok(());
        }

        // Join (or open) the launch for this key. If the merged workload
        // would outgrow the device, dispatch the current batch first —
        // per-request feasibility is preserved under merging.
        let batch_key = BatchKey::of(request);
        let k = self.launches.intern(LaunchKey::Prefill(batch_key));
        let members = &self.launches.slots[k].requests;
        if !members.is_empty() {
            let existing: usize = members.iter().map(|r| r.workload.batch).sum();
            let prospective = AttentionWorkload {
                name: String::new(),
                batch: existing + request.workload.batch,
                heads: batch_key.heads,
                seq_len: batch_key.seq_len,
                embed: batch_key.embed,
            };
            if !workload_is_feasible(batch_key.method, &prospective, &self.hw) {
                self.dispatch_prefill(batch_key, k, now_s, SealCause::Feasibility)?;
            }
        }
        let launch = self.open_launch(k, now_s);
        launch.requests.push(request);
        let (launch_id, members) = (launch.id, launch.requests.len());
        self.open_prefill_members += 1;
        self.events.emit(
            now_s,
            EventKind::PrefillJoin {
                launch_id,
                members: members as u32,
                charged_bytes: charge,
            },
        );
        if members >= self.max_batch {
            self.dispatch_prefill(batch_key, k, now_s, SealCause::Fill)?;
        }
        Ok(())
    }

    /// The launch of slot `k`, opened at `now_s` (a fresh launch id, its
    /// window starting now) when it has no members yet.
    fn open_launch(&mut self, k: usize, now_s: f64) -> &mut OpenLaunch<'a> {
        let launch = &self.launches.slots[k];
        if launch.requests.is_empty() && launch.steps.is_empty() {
            let end_s = now_s + self.window_s(launch.key.class());
            let launches = &mut self.launches;
            launches.open.push(k);
            launches.next_expiry_s = launches.next_expiry_s.min(end_s);
            let launch = &mut launches.slots[k];
            launch.id = self.next_launch_id;
            launch.first_arrival_s = now_s;
            self.next_launch_id += 1;
        }
        &mut self.launches.slots[k]
    }

    /// Handles one decode-step arrival: session admission at first sight
    /// (against the shared budget), deadline screening, paged block growth,
    /// launch join, fill dispatch.
    fn on_decode(&mut self, event: &DecodeStepEvent) {
        let now_s = event.arrival_s;
        let (session_id, step_index) = (event.session_id, event.step_index);
        self.events.log(now_s, || EventKind::DecodeArrival {
            session_id,
            step_index: step_index as u32,
        });

        // Steps of malformed traces referencing unknown sessions are
        // rejected, not a panic.
        let Some(slot) = self.sessions.slot(session_id) else {
            self.events.reject_step(
                now_s,
                session_id,
                step_index,
                DecodeRejectReason::UnknownSession,
            );
            return;
        };
        let session = &self.sessions.slots[slot];
        let context_len = session.spec.prompt_len + step_index + 1;
        // Admit the session at its first seen step.
        if !session.admitted && session.reject_reason.is_none() {
            self.admit(slot, context_len, now_s);
        }
        let session = &mut self.sessions.slots[slot];
        if !session.admitted {
            let reason = session
                .reject_reason
                .expect("unadmitted sessions carry a reason");
            self.events
                .reject_step(now_s, session_id, step_index, reason);
            return;
        }

        // The step's demand at its context length, priced once: the deadline
        // screen reads it as a solo launch and its launch adds it on join.
        let decode_key = DecodeKey::of(session.spec);
        let demand = TrackDemand::of_decode_step_with_kv(
            &decode_step(decode_key, context_len),
            &self.hw,
            self.kv_element_bytes,
        );
        // Per-step deadline screening against the step's price as a solo
        // launch: queueing only adds to it.
        if let Some(deadline) = self.config.decode.step_deadline_s {
            if deadline < LaunchDemand(demand).service_s(&self.hw) {
                session.rejected_steps += 1;
                // A session whose every remaining step is screened out
                // must still release its KV residency.
                if session.finished() {
                    self.releases.push(now_s, Release::Session(slot));
                }
                self.events.reject_step(
                    now_s,
                    session_id,
                    step_index,
                    DecodeRejectReason::DeadlineImpossible,
                );
                return;
            }
        }
        // A swapped-out session resumes at its next surviving step: `Hold`
        // restores the stashed resident bytes from host memory off the
        // device timeline; `Recompute` additionally re-prices the evicted
        // context as prefill-chunk work folded into this step's launch.
        // Charged blocks re-grow through the normal paged path below.
        // (Restoring cannot exceed the pre-eviction KV peak.)
        let mut recompute_tokens = 0usize;
        if let Some((stashed_used, mode)) = session.swapped.take() {
            session.used_bytes = stashed_used;
            if mode == PreemptMode::Recompute {
                recompute_tokens = context_len.saturating_sub(1);
            }
            self.events.emit(
                now_s,
                EventKind::SessionResumed {
                    session_id,
                    restored_used_bytes: stashed_used,
                    recompute_tokens: recompute_tokens as u32,
                },
            );
        }
        // Grow the session's block allocation to cover this step's
        // context. Growth runs *after* the deadline screen — a screened step
        // generates no token, so it must not keep a block. A step that
        // cannot get its block from the shared pool (also drained by prefill
        // activations) is shed as a pool overflow while the session keeps
        // its residency.
        let bt = self.config.decode.kv_block_tokens;
        // A sharing session grows only its private tail: the group's
        // shared prefix blocks stay charged once, group-wide.
        let needed = SessionState::blocks_at(context_len, bt).saturating_sub(session.shared_blocks);
        if needed > session.charged_blocks {
            let delta_blocks = needed - session.charged_blocks;
            let delta_bytes = delta_blocks * session.block_bytes(bt, self.kv_element_bytes);
            // KV preemption: before shedding the step, try evicting idle
            // sessions' residency to make room for the growth.
            if !self.events.ledger.fits(delta_bytes) && self.config.preempt.is_some() {
                self.try_evict_for(delta_bytes, slot, now_s);
            }
            let session = &mut self.sessions.slots[slot];
            if !self.events.ledger.fits(delta_bytes) {
                session.rejected_steps += 1;
                if session.finished() {
                    self.releases.push(now_s, Release::Session(slot));
                }
                self.events.reject_step(
                    now_s,
                    session_id,
                    step_index,
                    DecodeRejectReason::KvPoolExhausted,
                );
                return;
            }
            session.charged_blocks = needed;
            self.events.emit(
                now_s,
                EventKind::KvGrow {
                    session_id,
                    delta_bytes,
                    delta_blocks,
                },
            );
        }
        let session = &mut self.sessions.slots[slot];
        session.pending_steps += 1;
        // The step's token becomes resident context.
        let token = session.token_bytes(self.kv_element_bytes);
        session.used_bytes += token;

        // Join (or open) the launch for this shape key.
        let k = session.launch;
        let launch = self.open_launch(k, now_s);
        let item = DecodeStepItem {
            session_id,
            step_index,
            context_len,
            arrival_s: now_s,
            recompute_tokens,
        };
        launch.steps.push((item, slot));
        launch.demand.accumulate(&demand);
        let (launch_id, members) = (launch.id, launch.steps.len());
        self.events.emit(
            now_s,
            EventKind::DecodeJoin {
                launch_id,
                session_id,
                step_index: step_index as u32,
                context_len: context_len as u32,
                members: members as u32,
                token_bytes: token,
            },
        );
        if members >= self.max_steps_per_launch || self.config.decode.window_s == 0.0 {
            self.dispatch_decode(decode_key, k, now_s, SealCause::Fill, now_s);
        }
    }

    /// Decides a session's admission at its first seen step (`context_len`
    /// attended): shape and device feasibility, the shared budget beside
    /// resident prefill activations (the cross-class squeeze) and the
    /// session limit. An admitted session is charged its first step's
    /// blocks, joins its prefix group and interns its decode launch key.
    fn admit(&mut self, slot: usize, context_len: usize, now_s: f64) {
        let session = &mut self.sessions.slots[slot];
        let spec = session.spec;
        let session_id = spec.id;
        // A zero dimension (a `heads` of 0 fails the grouping too)
        // leaves no step to build: the session is infeasible.
        let shape_valid = spec.kv_heads > 0
            && spec.kv_heads <= spec.heads
            && spec.heads.is_multiple_of(spec.kv_heads)
            && spec.embed > 0;
        // Cross-session prefix sharing needs the policy switch, a
        // declared group, and a group whose block shape matches (a
        // mismatched shape falls back to private residency rather than
        // mixing block geometries in one group).
        let bt = self.config.decode.kv_block_tokens;
        let sharing = match spec.prefix_group {
            Some(g) if self.config.decode.prefix_share && shape_valid => {
                let block_bytes = session.block_bytes(bt, self.kv_element_bytes);
                match self.prefix_groups.get(&g) {
                    Some(gs) if gs.block_bytes != block_bytes => None,
                    _ => Some((g, block_bytes)),
                }
            }
            _ => None,
        };
        // Shared prefix blocks already charged group-wide are free for
        // this session; only the group's growth plus the private tail
        // hit the budget.
        let (shared_blocks, group_delta_blocks) = match sharing {
            Some((g, _)) => {
                let shared = (spec.shared_prefix_len.min(spec.prompt_len) / bt.max(1)) as u64;
                let already = self.prefix_groups.get(&g).map_or(0, |gs| gs.charged_blocks);
                (shared, shared.saturating_sub(already))
            }
            None => (0, 0),
        };
        // Initial charge: the first step's blocks, minus the blocks the
        // prefix group already holds.
        let (initial_bytes, initial_blocks) = if shape_valid {
            let blocks = SessionState::blocks_at(context_len, bt).saturating_sub(shared_blocks)
                + group_delta_blocks;
            (
                blocks * session.block_bytes(bt, self.kv_element_bytes),
                blocks,
            )
        } else {
            (0, 0)
        };
        // `decode_step` requires a valid shape; `||` short-circuits past
        // it for malformed specs.
        let verdict = if !shape_valid
            || !decode_step_fits_with_kv(
                &decode_step(DecodeKey::of(spec), spec.max_context()),
                self.config.decode.kv_tile_rows,
                &self.hw,
                self.kv_element_bytes,
            ) {
            Some(DecodeRejectReason::InfeasibleSession)
        } else if !self.events.ledger.fits(initial_bytes) {
            Some(DecodeRejectReason::KvBudgetExceeded)
        } else if self
            .config
            .decode
            .max_sessions
            .is_some_and(|limit| self.active_sessions >= limit)
        {
            Some(DecodeRejectReason::SessionLimit)
        } else {
            None
        };
        if let Some(reason) = verdict {
            session.reject_reason = Some(reason);
            self.events
                .emit(now_s, EventKind::SessionRejected { session_id, reason });
            return;
        }
        session.admitted = true;
        session.launch = self.launches.intern(LaunchKey::Decode(DecodeKey::of(spec)));
        // The session itself is charged only its private tail; the group's
        // growth is charged on the group entry.
        let private_blocks = initial_blocks - group_delta_blocks;
        let token_bytes = session.token_bytes(self.kv_element_bytes);
        let (private_bytes, delta_bytes) = match sharing {
            Some((_, block_bytes)) => (
                private_blocks * block_bytes,
                group_delta_blocks * block_bytes,
            ),
            None => (initial_bytes, 0),
        };
        session.charged_blocks = private_blocks;
        // The prompt is resident from admission; each joined step adds one
        // token. Shared-prefix tokens are resident on the group, not the
        // session.
        let shared_tokens = match sharing {
            Some(_) => shared_blocks * bt as u64,
            None => 0,
        };
        session.used_bytes = (spec.prompt_len as u64 - shared_tokens) * token_bytes;
        self.active_sessions += 1;
        self.events.emit(
            now_s,
            EventKind::SessionOpen {
                session_id,
                prompt_len: spec.prompt_len as u32,
                charged_bytes: private_bytes,
                used_bytes: session.used_bytes,
                blocks: private_blocks,
            },
        );
        if let Some((g, block_bytes)) = sharing {
            session.shared_blocks = shared_blocks;
            session.prefix_group = Some(g);
            let gs = self.prefix_groups.entry(g).or_insert(PrefixGroupState {
                refs: 0,
                charged_blocks: 0,
                block_bytes,
            });
            gs.refs += 1;
            gs.charged_blocks += group_delta_blocks;
            // Shared blocks hold only full prompt tokens.
            self.events.emit(
                now_s,
                EventKind::PrefixShared {
                    group: g,
                    session_id,
                    delta_bytes,
                    delta_blocks: group_delta_blocks,
                    used_delta_bytes: delta_bytes,
                    refs: gs.refs as u32,
                },
            );
        }
    }

    /// Dispatches the launch of slot `k`, of either class. `now_s` is the
    /// stream instant of the dispatch ([`f64::INFINITY`] at flush): decode
    /// launches use it to judge whether a staged span has started yet.
    fn dispatch(&mut self, k: usize, ready_s: f64, cause: SealCause, now_s: f64) -> Result<()> {
        match self.launches.slots[k].key {
            LaunchKey::Prefill(batch_key) => self.dispatch_prefill(batch_key, k, ready_s, cause),
            LaunchKey::Decode(decode_key) => {
                self.dispatch_decode(decode_key, k, ready_s, cause, now_s);
                Ok(())
            }
            LaunchKey::PrefillChunk(_) => {
                unreachable!("chunk launches are placed by their chain, never opened")
            }
        }
    }

    /// Dispatches the prefill micro-batch of slot `k`: plan (cached), launch
    /// on the earliest-free device, record per-request outcomes, schedule
    /// the activation-charge release at completion.
    fn dispatch_prefill(
        &mut self,
        batch_key: BatchKey,
        k: usize,
        ready_s: f64,
        cause: SealCause,
    ) -> Result<()> {
        self.launches.close(k);
        let launch_id = self.launches.slots[k].id;
        let spare = self.spare_members.pop().unwrap_or_default();
        let requests = std::mem::replace(&mut self.launches.slots[k].requests, spare);
        let total_batch: usize = requests.iter().map(|r| r.workload.batch).sum();
        let mut merged = AttentionWorkload {
            name: String::new(),
            batch: total_batch,
            heads: batch_key.heads,
            seq_len: batch_key.seq_len,
            embed: batch_key.embed,
        };
        let cache_key = CacheKey {
            method: batch_key.method,
            batch: total_batch,
            heads: batch_key.heads,
            seq_len: batch_key.seq_len,
            embed: batch_key.embed,
            config_fingerprint: self.fingerprint,
        };
        // The cache never evicts, so a launch is a hit exactly when its key
        // was cached before this dispatch.
        let cached = self.cache.lookup(&cache_key).copied();
        let hit = cached.is_some();
        let plan = match cached {
            Some(plan) => plan,
            None => {
                // Only planning sees the batch's name.
                merged.name = format!(
                    "serve-batch-{}x{}h{}n{}e{}",
                    requests.len(),
                    total_batch,
                    batch_key.heads,
                    batch_key.seq_len,
                    batch_key.embed
                );
                let plan = plan_one(self.planner, batch_key.method, &merged, self.tuned)?;
                self.cache.insert(cache_key, plan);
                plan
            }
        };

        self.open_prefill_members -= requests.len();

        // Chunked prefill: a batch longer than the chunk budget lowers
        // into a chain of chunk launches. Chunk 0 places now with the
        // batch's real seal cause; later chunks place lazily as virtual
        // time reaches each predecessor's completion. A single-chunk
        // layout is a monolithic batch.
        if let Some(policy) = self.config.chunked_prefill {
            let chunk_sizes = policy.chunk_sizes(batch_key.seq_len);
            if chunk_sizes.clone().nth(1).is_some() {
                let chain_id = launch_id;
                // Split the monolithic plan's seconds across chunks in
                // proportion to each chunk's price (later chunks re-stream
                // more prior KV, so they cost more per token).
                let mut prefilled = 0usize;
                self.chunk_demands.clear();
                self.chunk_demands.extend(chunk_sizes.map(|tokens| {
                    let (heads, embed) = (batch_key.heads, batch_key.embed);
                    let chunk = PrefillChunk::new(total_batch, heads, prefilled, tokens, embed);
                    prefilled += tokens;
                    let mut demand = LaunchDemand::default();
                    demand.add_chunk(&chunk, &self.hw, self.kv_element_bytes);
                    demand
                }));
                let demands = &self.chunk_demands;
                let raw_sum: f64 = demands.iter().map(|d| d.service_s(&self.hw)).sum();
                let mut chunks = self.spare_layouts.pop().unwrap_or_default();
                chunks.extend((demands.iter().enumerate()).map(|(k, d)| {
                    let issue = if k > 0 { issue_s(&self.hw) } else { 0.0 };
                    let share = plan.seconds * d.service_s(&self.hw) / raw_sum;
                    (share + issue, (d.0, issue))
                }));
                self.chunk_chains.insert(
                    chain_id,
                    ChunkChain {
                        requests,
                        total_batch,
                        energy_pj: plan.energy_pj,
                        cache_hit: hit,
                        chunks,
                        next_index: 0,
                        next_ready_s: ready_s,
                        generation: 0,
                        done: None,
                        done_chunks: 0,
                    },
                );
                self.place_chunk(chain_id, cause);
                return Ok(());
            }
        }

        let members = requests.len() as u32;
        // One demand feeds the backlog estimate (the merged workload's
        // service lower bound) and the track profile. A monolithic batch's
        // plan already amortizes its issue cost into `plan.seconds`; the
        // whole modeled service spreads over the streams via the stretch
        // factor.
        let demand = TrackDemand::of_prefill(&merged, &self.hw);
        let est_service_s = demand.stream().bound_seconds(&self.hw);
        let profile = (demand, 0.0);
        let launch = Launch {
            launch_id,
            key: LaunchKey::Prefill(batch_key),
            ready_s,
            service_s: plan.seconds,
            members,
            total_batch: total_batch as u32,
            energy_pj: plan.energy_pj,
            cache_hit: hit,
            cause,
            est_service_s,
        };
        self.place(launch, Payload::Monolithic { requests }, profile);
        Ok(())
    }

    /// Dispatches the batched decode launch of slot `k`: prices it, lets it
    /// displace a staged prefill-class span when slot preemption is active
    /// and that fixes a step-deadline miss, and hands it to placement.
    /// `now_s` judges whether a staged span has started
    /// ([`f64::INFINITY`] at flush disables displacement — everything has
    /// started by then).
    fn dispatch_decode(
        &mut self,
        decode_key: DecodeKey,
        k: usize,
        ready_s: f64,
        cause: SealCause,
        now_s: f64,
    ) {
        self.launches.close(k);
        let launch_id = self.launches.slots[k].id;
        // Borrowed out of the slot and handed back, cleared, at completion:
        // dispatching never joins a launch.
        let steps = std::mem::take(&mut self.launches.slots[k].steps);
        // Member steps (summed as they joined), then the evicted context of
        // recompute-priced resumes as prefill-chunk work. The track profile
        // keeps the issue overhead a separate term the flow-shop can hide
        // under the KV stream.
        let (hw, kv_bytes) = (&self.hw, self.kv_element_bytes);
        let mut demand = LaunchDemand(std::mem::take(&mut self.launches.slots[k].demand));
        for (p, _) in steps.iter().filter(|(p, _)| p.recompute_tokens > 0) {
            let chunk =
                PrefillChunk::new(1, decode_key.heads, 0, p.recompute_tokens, decode_key.embed)
                    .with_kv_heads(decode_key.kv_heads);
            demand.add_chunk(&chunk, hw, kv_bytes);
        }
        let service_s = demand.service_s(hw);
        let profile = (demand.0, issue_s(hw));
        let mut victim = None;
        if let (true, Some(deadline)) = (
            self.staging_active() && now_s.is_finite(),
            self.config.decode.step_deadline_s,
        ) {
            let misses = |start: f64| {
                (steps.iter())
                    .filter(|(p, _)| start + service_s - p.arrival_s > deadline)
                    .count()
            };
            let start_s = self.free_at[self.earliest_free_device()].max(ready_s);
            if misses(start_s) > 0 {
                // Candidate victims: staged spans that have not started
                // yet. Pick the one whose rollback yields the earliest
                // decode start; displace only if that fixes a miss.
                let candidate = (self.staged.iter().enumerate())
                    .filter_map(|(d, slot)| {
                        let s = slot.as_ref().filter(|s| s.span.start_s > now_s)?;
                        Some((s.prev_free_s.max(ready_s), d))
                    })
                    .min_by(|a, b| a.partial_cmp(b).expect("times are finite"));
                if let Some((cand_start, d)) = candidate {
                    if cand_start < start_s && misses(cand_start) < misses(start_s) {
                        victim = Some(self.displace(d, now_s));
                    }
                }
            }
        }
        let members = steps.len() as u32;
        let launch = Launch {
            launch_id,
            key: LaunchKey::Decode(decode_key),
            ready_s,
            service_s,
            members,
            total_batch: members,
            energy_pj: 0.0,
            cache_hit: false,
            cause,
            est_service_s: service_s,
        };
        self.place(launch, Payload::Decode { slot: k, steps }, profile);
        // The displaced span re-places now — behind the decode launch, never
        // dropped. A chunk victim rewinds its chain to the displaced index;
        // the chain re-places it with the same identity.
        if let Some(StagedSpan {
            launch,
            payload,
            profile,
            ..
        }) = victim
        {
            if let Payload::Chunk { chain, index } = payload {
                let state = self.chunk_chains.get_mut(&chain).expect("chain is live");
                state.next_index = index;
                state.next_ready_s = launch.ready_s;
                self.place_chunk(chain, launch.cause);
            } else {
                self.place(launch, payload, profile);
            }
        }
    }

    /// Takes device `d`'s staged span off the timeline, rolling `free_at`
    /// and the track clocks back to before its placement, and returns it.
    fn displace(&mut self, d: usize, now_s: f64) -> StagedSpan<'a> {
        let victim = self.staged[d].take().expect("a staged span");
        self.free_at[d] = victim.prev_free_s;
        // The victim is always the device's last placement (a newer one
        // would have hardened it), so its pre-placement snapshot is current.
        if let (Some(tracks), Some(prev)) = (self.tracks.as_mut(), victim.prev_tracks) {
            tracks[d] = prev;
        }
        self.events.emit(
            now_s,
            EventKind::Preempted {
                victim: PreemptVictim::Launch {
                    launch_id: victim.launch.launch_id,
                    key: victim.launch.key,
                    device: d as u32,
                    start_s: victim.span.start_s,
                },
            },
        );
        victim
    }

    /// Evicts idle sessions' KV residency (largest session id first, a
    /// reverse walk of the slab) until the pending growth `delta_bytes`
    /// would fit the budget, or no victim remains. A victim must not be
    /// the growing session in slot `keep`, and must be admitted,
    /// unfinished, not already swapped, have no step riding an open launch,
    /// hold a nonzero charge, and not share a prefix group (group blocks
    /// are held collectively — evicting one member cannot reclaim them).
    /// The victim's session stays admitted: its tokens swap out and come
    /// back at its next step.
    fn try_evict_for(&mut self, delta_bytes: u64, keep: usize, now_s: f64) {
        let mode = self.config.preempt.expect("caller gates on preempt");
        while !self.events.ledger.fits(delta_bytes) {
            let ledger = &self.events.ledger;
            let victim = self
                .sessions
                .slots
                .iter()
                .enumerate()
                .rev()
                .find_map(|(slot, s)| {
                    let bytes = ledger.held(MemOwner::Session(s.spec.id)).unwrap_or(0);
                    (slot != keep
                        && s.admitted
                        && !s.finished()
                        && s.swapped.is_none()
                        && s.pending_steps == 0
                        && s.prefix_group.is_none()
                        && bytes > 0)
                        .then_some((slot, bytes))
                });
            let Some((slot, bytes)) = victim else { return };
            let s = &mut self.sessions.slots[slot];
            let blocks = s.charged_blocks;
            let used = s.used_bytes;
            s.swapped = Some((used, mode));
            s.charged_blocks = 0;
            s.used_bytes = 0;
            // The ledger keeps the owner live at zero bytes: the session is
            // still admitted and its one finish-release is still owed.
            // Eviction only lowers the gauges, so no peak can move.
            self.events.emit(
                now_s,
                EventKind::Preempted {
                    victim: PreemptVictim::Session {
                        session_id: s.spec.id,
                        mode,
                        bytes,
                        used_bytes: used,
                        blocks,
                    },
                },
            );
        }
    }

    /// Flushes the straggler launches at their window ends, ordered by
    /// `(ready, policy class rank, creation order)` — for a single class
    /// this is plain `(ready, creation order)`. Chunk chains opened by
    /// flushed batches drain to completion afterwards, then every still-
    /// staged span hardens.
    fn flush(&mut self) -> Result<()> {
        let mut rest: Vec<(f64, u8, u64, usize)> = self
            .launches
            .open
            .iter()
            .map(|&k| {
                let launch = &self.launches.slots[k];
                let class = launch.key.class();
                let ready_s = launch.first_arrival_s + self.window_s(class);
                (ready_s, self.config.policy.class_rank(class), launch.id, k)
            })
            .collect();
        rest.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("ready times are finite")
                .then((a.1, a.2).cmp(&(b.1, b.2)))
        });
        for (ready_s, _, _, k) in rest {
            self.dispatch(k, ready_s, SealCause::Flush, f64::INFINITY)?;
        }
        self.dispatch_ready_chunks(f64::INFINITY);
        self.harden_through(f64::INFINITY);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RequestOutcome;
    use mas_dataflow::DataflowKind;
    use mas_workloads::{DecodeSessionSpec, Network};

    /// The default engine with the shared budget disabled, so prefill
    /// admission is decided by the admission policy alone.
    fn unbudgeted() -> EngineConfig {
        EngineConfig {
            shared_budget_bytes: Some(u64::MAX),
            ..EngineConfig::default()
        }
    }

    fn prefill_report(engine: &mut ServeEngine, requests: &[ServeRequest]) -> ServeReport {
        engine.run(requests, &DecodeTrace::empty()).unwrap().prefill
    }

    fn reqs(n: usize, gap_s: f64) -> Vec<ServeRequest> {
        (0..n)
            .map(|i| {
                ServeRequest::new(
                    i as u64,
                    i as f64 * gap_s,
                    DataflowKind::MasAttention,
                    AttentionWorkload::new("toy", 1, 2, 128, 64),
                    None,
                )
            })
            .collect()
    }

    fn burst(n: u64, method: DataflowKind, workload: &AttentionWorkload) -> Vec<ServeRequest> {
        (0..n)
            .map(|i| ServeRequest::new(i, 0.0, method, workload.clone(), None))
            .collect()
    }

    #[test]
    fn identical_requests_share_one_plan() {
        let mut engine = ServeEngine::new(unbudgeted());
        let report = prefill_report(&mut engine, &reqs(6, 1e-5));
        assert_eq!(report.completed(), 6);
        assert_eq!(report.cache_misses, 1, "one shape → one planning run");
        assert_eq!(engine.cache().len(), 1);
        assert!(report.makespan_s > 0.0);
        assert!(report.total_energy_pj > 0.0);
    }

    #[test]
    fn a_second_replay_is_all_hits_and_identical() {
        let mut engine = ServeEngine::new(unbudgeted());
        let stream = reqs(5, 1e-4);
        let cold = prefill_report(&mut engine, &stream);
        let warm = prefill_report(&mut engine, &stream);
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.cache_hits, warm.batches);
        // The cache changes planning cost (and the hit flags), never results.
        let strip = |r: &ServeReport| -> Vec<RequestOutcome> {
            r.outcomes
                .iter()
                .cloned()
                .map(|mut o| {
                    o.cache_hit = false;
                    o
                })
                .collect()
        };
        assert_eq!(strip(&warm), strip(&cold));
        assert_eq!(warm.makespan_s, cold.makespan_s);
        assert_eq!(warm.total_energy_pj, cold.total_energy_pj);
    }

    #[test]
    fn queueing_latency_grows_under_a_burst() {
        let mut config = unbudgeted();
        config.batching.window_s = 0.0; // no coalescing: requests serialize
        let workload = AttentionWorkload::new("toy", 1, 2, 128, 64);
        let report = prefill_report(
            &mut ServeEngine::new(config),
            &burst(4, DataflowKind::Flat, &workload),
        );
        assert_eq!(report.batches, 4);
        let mut latencies: Vec<f64> = report
            .outcomes
            .iter()
            .map(RequestOutcome::latency_s)
            .collect();
        latencies.sort_by(f64::total_cmp);
        // Head-of-line service vs. tail: 4 serialized identical services.
        let service = report.outcomes[0].service_s;
        assert!((latencies[0] - service).abs() < 1e-9);
        assert!((latencies[3] - 4.0 * service).abs() < 1e-9);
    }

    #[test]
    fn extra_devices_cut_the_makespan() {
        let mk = |devices: usize| {
            let mut config = unbudgeted();
            config.batching.window_s = 0.0;
            config.devices = devices;
            prefill_report(&mut ServeEngine::new(config), &reqs(4, 0.0)).makespan_s
        };
        let one = mk(1);
        let two = mk(2);
        assert!(
            two < one,
            "two devices ({two} s) must beat one ({one} s) on a 4-burst"
        );
    }

    #[test]
    fn sustained_overload_sheds_load_at_the_estimated_backlog_bound() {
        // Offered load far above device capacity: a tight estimated-backlog
        // bound must start rejecting once the launch queue falls behind,
        // instead of growing latency without bound.
        let mut config = unbudgeted();
        config.batching.window_s = 0.0; // no coalescing: pure queueing
        config.admission.max_est_queue_s = Some(2e-4);
        // 50 simultaneous BERT-Small requests; each takes ~100 µs+, so the
        // estimated queue blows through 200 µs after a handful of launches.
        let workload = AttentionWorkload::new("BERT-Small", 1, 8, 512, 64);
        let report = prefill_report(
            &mut ServeEngine::new(config),
            &burst(50, DataflowKind::MasAttention, &workload),
        );
        assert!(
            !report.rejected.is_empty(),
            "overload must shed load: {}",
            report.summary()
        );
        assert!(report.completed() > 0, "head of the queue is still served");
        assert!(report
            .rejected
            .iter()
            .all(|r| r.reason == RejectReason::QueueFull));
        // The head of the line was admitted, the tail shed.
        let max_completed_id = report.outcomes.iter().map(|o| o.id).max().unwrap();
        let min_rejected_id = report.rejected.iter().map(|r| r.id).min().unwrap();
        assert!(min_rejected_id > 0);
        assert_eq!(
            max_completed_id + u64::try_from(report.rejected.len()).unwrap(),
            49
        );
    }

    #[test]
    fn rejected_requests_never_reach_planning() {
        let mut config = unbudgeted();
        config.admission.max_queue_depth = Some(1);
        config.batching.window_s = 1.0;
        config.batching.max_batch = 100;
        let mut stream = reqs(3, 0.0);
        // The shed requests ask for a shape of their own: planning it would
        // leave a second cache entry.
        for r in &mut stream[1..] {
            r.workload = AttentionWorkload::new("other", 1, 2, 96, 64);
        }
        let mut engine = ServeEngine::new(config);
        let report = prefill_report(&mut engine, &stream);
        assert_eq!(report.completed(), 1);
        assert_eq!(report.rejected.len(), 2);
        assert_eq!(report.cache_misses, 1, "only the admitted batch plans");
        assert_eq!(engine.cache().len(), 1);
    }

    /// A one-step BERT-Small decode session.
    fn one_step_session(id: u64) -> DecodeSessionSpec {
        DecodeSessionSpec {
            id,
            network: Network::BertSmall,
            start_s: 0.0,
            heads: 8,
            kv_heads: 8,
            embed: 64,
            prompt_len: 16,
            steps: 1,
            prefix_group: None,
            shared_prefix_len: 0,
        }
    }

    #[test]
    fn hostile_arrival_times_are_rejected_before_any_state_changes() {
        let session = one_step_session(7);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut engine = ServeEngine::new(EngineConfig::default());
            let mut prefill = reqs(2, 1e-4);
            prefill[1].arrival_s = bad;
            let err = engine.run(&prefill, &DecodeTrace::empty()).unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig { reason } if reason.contains("request 1")),
                "{err}"
            );

            let decode = DecodeTrace {
                sessions: vec![session.clone()],
                steps: vec![DecodeStepEvent {
                    session_id: 7,
                    step_index: 0,
                    arrival_s: bad,
                }],
            };
            let err = engine.run(&[], &decode).unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig { reason } if reason.contains("session 7")),
                "{err}"
            );
            // Nothing was planned or recorded before the rejection.
            assert!(engine.cache().is_empty());
        }
    }

    /// Two specs sharing a session id would leave the session of a step
    /// ambiguous: the run refuses them, naming the id, before it plans,
    /// records or overwrites the previous run's telemetry.
    #[test]
    fn duplicate_session_ids_are_rejected_before_any_state_changes() {
        let mut engine = ServeEngine::new(EngineConfig {
            telemetry: Some(TelemetryConfig::default()),
            ..EngineConfig::default()
        });
        engine.run(&[], &DecodeTrace::empty()).unwrap();
        let sessions = [3, 9, 3].map(one_step_session).to_vec();
        let steps = vec![DecodeStepEvent {
            session_id: 3,
            step_index: 0,
            arrival_s: 0.0,
        }];
        let decode = DecodeTrace { sessions, steps };
        let err = engine.run(&reqs(2, 1e-4), &decode).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidConfig { reason } if reason.contains("session id 3")),
            "{err}"
        );
        assert!(engine.cache().is_empty());
        assert_eq!(engine.telemetry().map(|t| t.len()), Some(1));
    }

    /// Two prefill requests sharing an id would fold into one request of
    /// the event log: the run refuses them, naming the id, before it plans
    /// or records. Unique ids out of order are valid.
    #[test]
    fn duplicate_prefill_ids_are_rejected_before_any_state_changes() {
        let mut engine = ServeEngine::new(EngineConfig {
            telemetry: Some(TelemetryConfig::default()),
            ..EngineConfig::default()
        });
        engine.run(&[], &DecodeTrace::empty()).unwrap();
        for (ids, dup) in [([7, 7, 7, 7], 7), ([5, 1, 9, 1], 1)] {
            let mut prefill = reqs(4, 1e-4);
            for (request, id) in prefill.iter_mut().zip(ids) {
                request.id = id;
            }
            let err = engine.run(&prefill, &DecodeTrace::empty()).unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig { reason }
                    if reason.contains(&format!("prefill request id {dup} "))),
                "{err}"
            );
            assert!(engine.cache().is_empty());
            assert_eq!(engine.telemetry().map(|t| t.len()), Some(1));
        }

        let mut prefill = reqs(4, 1e-4);
        prefill.reverse();
        let report = engine.run(&prefill, &DecodeTrace::empty()).unwrap();
        assert_eq!(report.prefill.completed(), 4);
        let telemetry = engine.telemetry().unwrap();
        telemetry.conservation_check().unwrap();
        assert_eq!(telemetry.report().as_ref(), Some(&report));
    }

    /// A decode step must name a step its session declares, after the
    /// session's previous step: a repeated step would complete twice and
    /// break conservation, and a step past the session's count (any step of
    /// a zero-step session) would keep the session from ever releasing its
    /// KV charge. The run refuses both, naming the step, before it plans or
    /// records. Skipped indices are valid.
    #[test]
    fn decode_step_indices_are_validated_before_any_state_changes() {
        let mut engine = ServeEngine::new(EngineConfig {
            telemetry: Some(TelemetryConfig::default()),
            ..EngineConfig::default()
        });
        engine.run(&[], &DecodeTrace::empty()).unwrap();
        let trace = |steps: usize, indices: &[usize]| DecodeTrace {
            sessions: vec![
                one_step_session(3),
                DecodeSessionSpec {
                    steps,
                    ..one_step_session(7)
                },
            ],
            steps: (indices.iter().enumerate())
                .map(|(k, &step_index)| DecodeStepEvent {
                    session_id: 7,
                    step_index,
                    arrival_s: 1e-4 * k as f64,
                })
                .collect(),
        };
        for (steps, indices, bad, why) in [
            (2, &[0, 0][..], 0, "follows step 0"),
            (3, &[1, 2, 1], 1, "follows step 2"),
            (2, &[0, 2], 2, "is out of range"),
            (0, &[0], 0, "is out of range"),
        ] {
            let err = engine
                .run(&reqs(2, 1e-4), &trace(steps, indices))
                .unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig { reason }
                    if reason.contains(&format!("decode step {bad} of session 7 {why}"))),
                "{indices:?}: {err}"
            );
            assert!(engine.cache().is_empty());
            assert_eq!(engine.telemetry().map(|t| t.len()), Some(1));
        }

        let decode = trace(4, &[1, 3]);
        let report = engine.run(&[], &decode).unwrap();
        assert_eq!(report.decode.completed(), 2);
        let telemetry = engine.telemetry().unwrap();
        telemetry.conservation_check().unwrap();
        assert_eq!(telemetry.report().as_ref(), Some(&report));
    }

    /// A trace with steps of session 99, which it never declares.
    fn undeclared_steps(indices: &[usize]) -> DecodeTrace {
        DecodeTrace {
            sessions: vec![one_step_session(3)],
            steps: (indices.iter().enumerate())
                .map(|(k, &step_index)| DecodeStepEvent {
                    session_id: 99,
                    step_index,
                    arrival_s: 1e-4 * k as f64,
                })
                .collect(),
        }
    }

    /// Steps of an undeclared session are rejected at run time, but the log
    /// still records and counts them by `(session, step)`: a repeated one
    /// would be rejected twice and fail the conservation check, so the run
    /// refuses it, naming the step, before it plans or records. Increasing
    /// indices stay counted rejections.
    #[test]
    fn repeated_steps_of_an_undeclared_session_are_rejected_before_any_state_changes() {
        let mut engine = ServeEngine::new(EngineConfig {
            telemetry: Some(TelemetryConfig::default()),
            ..EngineConfig::default()
        });
        engine.run(&[], &DecodeTrace::empty()).unwrap();
        for (indices, bad, prev) in [(&[0, 0][..], 0, 0), (&[1, 5, 2][..], 2, 5)] {
            let err = engine
                .run(&reqs(2, 1e-4), &undeclared_steps(indices))
                .unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig { reason }
                    if reason.contains(&format!("decode step {bad} of session 99 follows step {prev}"))),
                "{indices:?}: {err}"
            );
            assert!(engine.cache().is_empty());
            assert_eq!(engine.telemetry().map(|t| t.len()), Some(1));
        }
        let report = engine.run(&[], &undeclared_steps(&[0, 2])).unwrap();
        assert_eq!(report.decode.rejected.len(), 2);
        let telemetry = engine.telemetry().unwrap();
        telemetry.conservation_check().unwrap();
        assert_eq!(telemetry.report().as_ref(), Some(&report));
    }

    /// An undeclared session has no step count to bound its indices, but
    /// the log stores them as `u32`: a larger index would be recorded as
    /// another step, so the run refuses it, naming the step. The largest
    /// index the log holds is a counted rejection.
    #[test]
    fn undeclared_step_indices_beyond_the_event_log_field_width_are_rejected() {
        let mut engine = ServeEngine::new(EngineConfig {
            telemetry: Some(TelemetryConfig::default()),
            ..EngineConfig::default()
        });
        let beyond = (1usize << 32) + 4;
        let err = engine.run(&[], &undeclared_steps(&[beyond])).unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidConfig { reason }
                if reason.contains(&format!("decode step {beyond} of session 99 is out of range"))),
            "{err}"
        );
        assert!(engine.telemetry().is_none());
        let limit = u32::MAX as usize;
        let report = engine.run(&[], &undeclared_steps(&[limit])).unwrap();
        assert_eq!(report.decode.rejected[0].step_index, limit);
        assert_eq!(engine.telemetry().unwrap().report().as_ref(), Some(&report));
    }

    /// The event log stores step indices and context lengths as `u32`, so
    /// a session whose prompt plus steps exceed `u32::MAX` tokens is
    /// refused, naming the session; one at the limit replays, and its log
    /// rebuilds the report.
    #[test]
    fn context_beyond_the_event_log_field_width_is_rejected() {
        let limit = u32::MAX as usize;
        let decode = |prompt_len: usize, steps: usize| DecodeTrace {
            sessions: vec![DecodeSessionSpec {
                prompt_len,
                steps,
                ..one_step_session(7)
            }],
            steps: vec![DecodeStepEvent {
                session_id: 7,
                step_index: 0,
                arrival_s: 0.0,
            }],
        };
        let mut engine = ServeEngine::new(EngineConfig {
            telemetry: Some(TelemetryConfig::default()),
            ..EngineConfig::default()
        });
        for (prompt_len, steps) in [(usize::MAX / 2, 1), (16, usize::MAX), (limit, 1)] {
            let err = engine.run(&[], &decode(prompt_len, steps)).unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig { reason }
                    if reason.contains("decode session 7 ")),
                "{prompt_len} + {steps}: {err}"
            );
        }
        let report = engine.run(&[], &decode(limit - 1, 1)).unwrap();
        assert_eq!(report.decode.completed() + report.decode.rejected.len(), 1);
        assert_eq!(engine.telemetry().unwrap().report().as_ref(), Some(&report));
    }

    /// A prefill request shorter than the MAC array is width (8 tokens on a
    /// 16-column array) plans, simulates and completes under the default
    /// configuration, and the prefill class conserves
    /// `completed + rejected == offered`.
    #[test]
    fn sequences_shorter_than_the_mac_array_are_served() {
        let request = ServeRequest::new(
            0,
            0.0,
            DataflowKind::MasAttention,
            AttentionWorkload::new("short", 1, 8, 8, 64),
            None,
        );
        let mut engine = ServeEngine::new(EngineConfig::default());
        let report = engine.run(&[request], &DecodeTrace::empty()).unwrap();
        assert_eq!(report.prefill.completed(), 1);
        assert_eq!(
            report.prefill.completed() + report.prefill.rejected.len(),
            1
        );
    }

    /// Zero-dimension inputs are accounted rejections, never panics: a
    /// prefill request with any zero dimension is an infeasible workload
    /// and a session with a zero head, KV-head or embedding count an
    /// infeasible session, under every policy with chunking and both
    /// preemption mechanisms on, and under zero and `u64::MAX` shared
    /// budgets. Every class conserves `completed + rejected == offered`.
    #[test]
    fn zero_dimension_inputs_are_rejected_not_panicked() {
        let shape = [1usize, 2, 128, 64];
        let mut prefill: Vec<ServeRequest> = reqs(6, 1e-4);
        for (dim, request) in prefill.iter_mut().take(4).enumerate() {
            let mut dims = shape;
            dims[dim] = 0;
            request.workload = AttentionWorkload {
                name: format!("zero-dim-{dim}"),
                batch: dims[0],
                heads: dims[1],
                seq_len: dims[2],
                embed: dims[3],
            };
        }
        let session = |id: u64, heads: usize, kv_heads: usize, embed: usize| DecodeSessionSpec {
            id,
            network: Network::BertSmall,
            start_s: 0.0,
            heads,
            kv_heads,
            embed,
            prompt_len: 16,
            steps: 2,
            prefix_group: None,
            shared_prefix_len: 0,
        };
        let sessions = vec![
            session(0, 0, 0, 64),
            session(1, 0, 8, 64),
            session(2, 8, 0, 64),
            session(3, 8, 8, 0),
            session(4, 8, 8, 64),
        ];
        let steps = (0..2)
            .flat_map(|step_index| {
                sessions.iter().map(move |s| DecodeStepEvent {
                    session_id: s.id,
                    step_index,
                    arrival_s: 1e-4 * step_index as f64,
                })
            })
            .collect();
        let decode = DecodeTrace { sessions, steps };
        // Hostile budgets ride along: a zero budget sheds every feasible
        // item, and `u64::MAX` must not overflow the charge arithmetic.
        for (budget, feasible) in [(None, 2), (Some(0), 0), (Some(u64::MAX), 2)] {
            for policy in [
                SchedulePolicy::FairShare,
                SchedulePolicy::DecodePriority,
                SchedulePolicy::PrefillPriority,
            ] {
                let label = format!("{policy} budget {budget:?}");
                let mut engine = ServeEngine::new(EngineConfig {
                    policy,
                    shared_budget_bytes: budget,
                    chunked_prefill: Some(ChunkPolicy::new(32)),
                    preempt: Some(PreemptMode::Recompute),
                    decode: DecodePolicy {
                        step_deadline_s: Some(0.004),
                        ..DecodePolicy::default()
                    },
                    ..EngineConfig::default()
                });
                let report = engine.run(&prefill, &decode).unwrap();
                assert_eq!(
                    report.prefill.completed() + report.prefill.rejected.len(),
                    prefill.len(),
                    "{label}"
                );
                assert_eq!(
                    report.decode.completed() + report.decode.rejected.len(),
                    decode.total_steps(),
                    "{label}"
                );
                let mut infeasible: Vec<u64> = report
                    .prefill
                    .rejected
                    .iter()
                    .filter(|r| r.reason == RejectReason::InfeasibleWorkload)
                    .map(|r| r.id)
                    .collect();
                infeasible.sort_unstable();
                assert_eq!(infeasible, [0, 1, 2, 3], "{label}");
                assert_eq!(report.prefill.completed(), feasible, "{label}");
                let infeasible_sessions: Vec<u64> = report
                    .decode
                    .rejected_sessions
                    .iter()
                    .filter(|(_, reason)| *reason == DecodeRejectReason::InfeasibleSession)
                    .map(|(id, _)| *id)
                    .collect();
                assert_eq!(infeasible_sessions, [0, 1, 2, 3], "{label}");
                assert_eq!(
                    report.decode.rejected_sessions.len(),
                    4 + usize::from(feasible == 0),
                    "{label}"
                );
                assert_eq!(report.decode.completed(), feasible, "{label}");
            }
        }
    }

    #[test]
    fn hostile_deadlines_are_rejected_before_any_state_changes() {
        let session = one_step_session(7);
        let decode = DecodeTrace {
            sessions: vec![session],
            steps: vec![DecodeStepEvent {
                session_id: 7,
                step_index: 0,
                arrival_s: 0.0,
            }],
        };
        for bad in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            let mut engine = ServeEngine::new(EngineConfig::default());
            let mut prefill = reqs(2, 1e-4);
            prefill[1].deadline_s = Some(bad);
            let err = engine.run(&prefill, &decode).unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig { reason }
                    if reason.contains("request 1") && reason.contains("deadline")),
                "{err}"
            );

            let mut engine = ServeEngine::new(EngineConfig {
                decode: DecodePolicy {
                    step_deadline_s: Some(bad),
                    ..DecodePolicy::default()
                },
                ..EngineConfig::default()
            });
            let err = engine.run(&reqs(2, 1e-4), &decode).unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig { reason }
                    if reason.contains("step_deadline_s")),
                "{err}"
            );
            // Nothing was planned or recorded before the rejection.
            assert!(engine.cache().is_empty());
        }
        // Zero and infinite deadlines are valid: the first is missed, the
        // second never.
        for ok in [0.0, f64::INFINITY] {
            let mut prefill = reqs(2, 1e-4);
            prefill[1].deadline_s = Some(ok);
            let mut engine = ServeEngine::new(EngineConfig {
                decode: DecodePolicy {
                    step_deadline_s: Some(ok),
                    ..DecodePolicy::default()
                },
                ..EngineConfig::default()
            });
            engine.run(&prefill, &decode).unwrap();
        }
    }

    #[test]
    fn hostile_batching_windows_are_rejected_before_any_state_changes() {
        let decode = DecodeTrace {
            sessions: vec![one_step_session(7)],
            steps: vec![DecodeStepEvent {
                session_id: 7,
                step_index: 0,
                arrival_s: 0.0,
            }],
        };
        let with_windows = |prefill_window: f64, decode_window: f64| EngineConfig {
            batching: BatchPolicy {
                window_s: prefill_window,
                ..BatchPolicy::default()
            },
            decode: DecodePolicy {
                window_s: decode_window,
                ..DecodePolicy::default()
            },
            ..EngineConfig::default()
        };
        for bad in [f64::NAN, -1e-3, f64::INFINITY] {
            for (config, name) in [
                (with_windows(bad, 0.0), "BatchPolicy::window_s"),
                (with_windows(0.0, bad), "DecodePolicy::window_s"),
            ] {
                let mut engine = ServeEngine::new(config);
                let err = engine.run(&reqs(2, 1e-4), &decode).unwrap_err();
                assert!(
                    matches!(&err, SimError::InvalidConfig { reason } if reason.contains(name)),
                    "{err}"
                );
                assert!(engine.cache().is_empty());
            }
        }
        let report = ServeEngine::new(with_windows(0.0, 0.0))
            .run(&reqs(2, 1e-4), &decode)
            .unwrap();
        assert_eq!(report.prefill.completed(), 2);
        assert_eq!(report.decode.completed(), 1);
    }

    #[test]
    fn chunk_policy_covers_every_token_exactly_once() {
        let p = ChunkPolicy::new(128);
        let sizes = |p: ChunkPolicy, seq| p.chunk_sizes(seq).collect::<Vec<_>>();
        assert_eq!(sizes(p, 512), vec![128, 128, 128, 128]);
        assert_eq!(sizes(p, 300), vec![128, 128, 44]);
        assert_eq!(sizes(p, 100), vec![100], "budget >= prompt: one chunk");
        assert_eq!(sizes(p, 128), vec![128]);
        // A zero budget disables chunking rather than dividing by zero.
        assert_eq!(sizes(ChunkPolicy::new(0), 512), vec![512]);
        for seq in [1usize, 127, 128, 129, 1000, 4096] {
            assert_eq!(p.chunk_sizes(seq).sum::<usize>(), seq, "seq {seq}");
        }
    }

    #[test]
    fn preempt_mode_round_trips_display_and_parse() {
        for mode in [PreemptMode::Hold, PreemptMode::Recompute] {
            assert_eq!(mode.to_string().parse::<PreemptMode>().unwrap(), mode);
        }
        assert!("swap".parse::<PreemptMode>().is_err());
        assert_eq!(PreemptMode::default(), PreemptMode::Hold);
    }
}
