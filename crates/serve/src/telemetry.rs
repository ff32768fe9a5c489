//! Engine-wide structured telemetry: a typed event timeline recorded by
//! [`ServeEngine`], with post-hoc analysis and exporters.
//!
//! ## Event taxonomy
//!
//! When [`EngineConfig::telemetry`] is set, the engine records one
//! [`EngineEvent`] at every lifecycle transition of its replay loop:
//!
//! | event | when | track |
//! |---|---|---|
//! | [`EventKind::RunStart`] | once, before the first arrival | timeline |
//! | [`EventKind::PrefillArrival`] | a prefill request arrives | timeline |
//! | [`EventKind::PrefillRejected`] | admission / budget refusal | timeline |
//! | [`EventKind::PrefillJoin`] | a request joins an open launch | timeline |
//! | [`EventKind::DecodeArrival`] | a decode step arrives | timeline |
//! | [`EventKind::SessionOpen`] | a session admits (initial KV charge) | timeline |
//! | [`EventKind::SessionRejected`] | a session refuses at first sight | timeline |
//! | [`EventKind::DecodeStepRejected`] | a step is screened or shed | timeline |
//! | [`EventKind::KvGrow`] | paged block growth charges the pool | timeline |
//! | [`EventKind::PrefixShared`] | an admitted session joins a shared-prefix group | timeline |
//! | [`EventKind::DecodeJoin`] | a step joins an open launch | timeline |
//! | [`EventKind::LaunchDispatched`] | a sealed launch starts on a device | device |
//! | [`EventKind::LaunchStage`] | a track-executor stage occupies a per-device track | device |
//! | [`EventKind::PrefillCompleted`] | a member request completes | launch |
//! | [`EventKind::DecodeCompleted`] | a member step completes | launch |
//! | [`EventKind::BudgetRelease`] | a deferred release applies | timeline |
//! | [`EventKind::Preempted`] | a staged launch is displaced, or a session's KV is evicted | timeline |
//! | [`EventKind::SessionResumed`] | a preempted session's next step swaps its KV back in | timeline |
//!
//! Timestamps are monotone **per track** (the virtual timeline, one track
//! per device, and one per launch): timeline events carry the stream
//! instant at which the engine processed them, device events carry launch
//! *start* times (monotone because dispatch order is start order even under
//! the overlap executor), and member completions ride each launch's own
//! track — with [`EngineConfig::tracks`](crate::engine::EngineConfig::tracks)
//! a later launch may legitimately start before an earlier launch's
//! completion on the same device, so
//! completions cannot share the device track. The raw event sequence is
//! *not* globally time-sorted (completion events are recorded at dispatch,
//! timestamped in the future); sort by `(track, t_s)` — or feed
//! [`Telemetry::chrome_trace_json`] to a viewer — for a wall-clock view.
//!
//! ## Overhead contract
//!
//! Recording is **off by default**, and recording never changes the
//! report: the engine emits the same [`EventKind`] values either way and
//! builds its report by folding them through the crate's one accounting
//! implementation (the ledger); recording only appends them to the log.
//! Events that only the log needs (the run header, arrivals and track
//! stages) are built only when recording. Enabled, the engine appends
//! compact plain-data events to a pre-reserved (and across-runs recycled)
//! `Vec`, and does nothing else: the log is the run's only record, with no
//! cap and no live aggregates. The `telemetry` bench pins the contract
//! from both ends: a cold replay of the mixed contention scenario (engine
//! construction, planning, replay — the serving cost a user pays) stays
//! within **5%**, and the marginal recording cost on a warm pure-replay
//! loop stays under an absolute per-event bound, so neither a planning
//! regression nor a bloated event can hide in the other's denominator.
//!
//! ## Replay fidelity
//!
//! The event stream is *complete*: [`Telemetry::report`] reconstructs the
//! full [`EngineReport`] — outcomes, rejects, peaks, fragmentation, energy,
//! makespans, per-device utilization — purely from events, bit-for-bit
//! equal to the engine's own report. It folds the log through the same
//! ledger the engine folded the events through live, in recording order;
//! the replay only rebuilds the three facts whose events carry ids (a
//! prefill rejection and the two completions) from the arrival and launch
//! events, through the same outcome constructor the engine uses, and
//! snapshots the peak's holders for [`Telemetry::peak_attribution`].
//! Equality is pinned by `tests/telemetry.rs` over random mixed traces ×
//! policies × budgets × chunking, preemption, track and KV-dtype modes,
//! and by the golden digests of `tests/golden_reports.rs`. Conservation
//! (every arrival resolves exactly once) and per-track monotonicity are
//! checkable with [`Telemetry::conservation_check`] /
//! [`Telemetry::tracks_monotone`].
//!
//! One fold is behind every view. The Prometheus counters, gauges and
//! latency histograms, [`Telemetry::latency_histogram`] and
//! [`Telemetry::device_utilization`] all read the rebuilt report; the
//! Chrome trace's `shared_budget_bytes` counter reads the ledger's
//! occupancy as it folds the log; and the Chrome `queue_depth` counter and
//! [`Telemetry::queue_depth`] apply one join/dispatch rule.
//!
//! ## Exporter formats
//!
//! * [`Telemetry::chrome_trace_json`] — Chrome trace-event JSON (the
//!   Perfetto / `chrome://tracing` format): one thread per device plus an
//!   `engine` thread (and, under the track executor, four extra threads
//!   per device — one per [`TrackKind`]), `"X"` complete-events for
//!   launches and launch stages, `"C"` counters for shared-budget occupancy
//!   and queue depth, `"i"` instants for rejects. [`validate_chrome_trace`]
//!   parses it back and proves spans never overlap within one thread row —
//!   a device's scalar launches serialize, and each track's stages
//!   serialize, while stages on *different* tracks of one device may
//!   overlap by design (run by CI on `serve_trace` output).
//! * [`Telemetry::prometheus_text`] — Prometheus text exposition: typed
//!   `mas_engine_*` counters and gauges with `class` / `reason` / `device`
//!   labels, plus log-bucketed latency histograms
//!   ([`LogHistogram`], power-of-two buckets, mergeable across engines by
//!   bucket-wise addition — the hook for the future multi-engine cluster
//!   layer) alongside the exact [`LatencyStats`] figures in the report.
//!
//! [`ServeEngine`]: crate::engine::ServeEngine
//! [`EngineConfig::telemetry`]: crate::engine::EngineConfig::telemetry
//! [`LatencyStats`]: crate::metrics::LatencyStats

use std::collections::BTreeMap;

use mas_dataflow::DataflowKind;
use mas_sim::{TrackKind, TRACK_COUNT};

use crate::decode::DecodeRejectReason;
use crate::engine::{DeviceUtil, EngineReport, SchedulePolicy};
use crate::key::{LaunchKey, WorkClass};
use crate::ledger::{Completion, Ledger};
use crate::metrics::RejectedRequest;
use crate::queue::RejectReason;

/// Opt-in telemetry configuration ([`crate::engine::EngineConfig::telemetry`]).
/// Setting it turns recording on; the log has no options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {}

/// Which memory-budget holder a charge or release belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemOwner {
    /// A prefill launch's summed activation charge, by launch id.
    PrefillLaunch(u64),
    /// A decode session's KV residency, by session id.
    Session(u64),
    /// A shared-prefix group's block charge (held once for all member
    /// sessions), by group id.
    PrefixGroup(u64),
}

impl std::fmt::Display for MemOwner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemOwner::PrefillLaunch(id) => write!(f, "prefill-launch {id}"),
            MemOwner::Session(id) => write!(f, "session {id}"),
            MemOwner::PrefixGroup(id) => write!(f, "prefix-group {id}"),
        }
    }
}

/// Why an open launch was sealed and dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealCause {
    /// Its batching window expired.
    Window,
    /// It reached the class's member capacity (or decode batching is
    /// disabled with a zero window).
    Fill,
    /// Growing the merged prefill workload further would outrun the device,
    /// so the current batch dispatched early.
    Feasibility,
    /// End-of-stream flush at the window end.
    Flush,
    /// A non-first chunk of a chunked-prefill chain: it dispatched because
    /// its predecessor chunk completed, not because of any batching rule.
    Chain,
}

impl SealCause {
    /// Stable lower-case label (Prometheus / trace args).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SealCause::Window => "window",
            SealCause::Fill => "fill",
            SealCause::Feasibility => "feasibility",
            SealCause::Flush => "flush",
            SealCause::Chain => "chain",
        }
    }
}

/// The track an event belongs to for per-track monotonicity: the engine's
/// virtual timeline, one device's dispatch history, one execution track of
/// one device, or one launch's completion batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// Stream-processing events, stamped at the engine's current instant.
    Timeline,
    /// Launch dispatches on one virtual device, stamped at launch start.
    /// Starts are monotone even under the overlap executor: every launch's
    /// first stage queues FIFO on a per-device track whose clock never goes
    /// backwards, and scalar launches barrier all track clocks.
    Device(u32),
    /// One execution track of one device: the overlap executor's stage
    /// spans ([`EventKind::LaunchStage`]), stamped at stage start. Each
    /// track is a FIFO queue, so its stage starts are monotone — while
    /// stages on *different* tracks of the same device overlap freely.
    DeviceTrack(u32, TrackKind),
    /// One launch's member completions, all stamped at the launch's
    /// completion instant. Completions cannot ride the device track: under
    /// [`EngineConfig::tracks`] a later launch may start before an earlier
    /// launch's completion on the same device.
    ///
    /// [`EngineConfig::tracks`]: crate::engine::EngineConfig::tracks
    Launch(u64),
}

/// One typed lifecycle event. The sequence number is the event's index in
/// [`Telemetry::events`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineEvent {
    /// Virtual-time stamp in seconds (monotone per [`Track`]).
    pub t_s: f64,
    /// What happened.
    pub kind: EventKind,
}

/// The event taxonomy (see the module docs for when each fires).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Replay started: the configuration snapshot reconstruction needs.
    RunStart {
        /// Iteration-level scheduling policy.
        policy: SchedulePolicy,
        /// Virtual device count (one track each).
        devices: u32,
        /// Shared memory budget in bytes.
        budget_bytes: u64,
        /// Prefill member capacity per launch.
        max_batch: u32,
        /// Decode member capacity per launch.
        max_steps_per_launch: u32,
        /// Uniform per-step decode deadline, if any.
        step_deadline_s: Option<f64>,
    },
    /// A prefill request arrived (before admission).
    PrefillArrival {
        /// Request id.
        id: u64,
        /// Workload name (carried once; later events reference the id).
        workload: String,
        /// Requested dataflow method.
        method: DataflowKind,
        /// The request's batch dimension.
        batch: u32,
        /// Relative latency SLO, if any.
        deadline_s: Option<f64>,
    },
    /// A prefill request was refused (admission or shared-budget pressure).
    PrefillRejected {
        /// Request id.
        id: u64,
        /// Why.
        reason: RejectReason,
    },
    /// A prefill request joined an open launch, charging the shared budget.
    PrefillJoin {
        /// The launch joined.
        launch_id: u64,
        /// Member count after the join.
        members: u32,
        /// Activation bytes charged against the shared budget.
        charged_bytes: u64,
    },
    /// A decode step arrived (before any screening).
    DecodeArrival {
        /// Session id.
        session_id: u64,
        /// Zero-based step index within the session.
        step_index: u32,
    },
    /// A session admitted at first sight, charging its initial KV residency.
    SessionOpen {
        /// Session id.
        session_id: u64,
        /// Prompt length resident from admission.
        prompt_len: u32,
        /// Initial bytes charged against the shared budget.
        charged_bytes: u64,
        /// Bytes of actual resident context tokens at admission.
        used_bytes: u64,
        /// Initial KV blocks allocated.
        blocks: u64,
    },
    /// A session was refused at first sight.
    SessionRejected {
        /// Session id.
        session_id: u64,
        /// Why.
        reason: DecodeRejectReason,
    },
    /// A decode step was refused (unknown/unadmitted session, deadline
    /// screen, or pool overflow).
    DecodeStepRejected {
        /// Session id.
        session_id: u64,
        /// Zero-based step index.
        step_index: u32,
        /// Why.
        reason: DecodeRejectReason,
    },
    /// Paged block growth charged the shared pool.
    KvGrow {
        /// The growing session.
        session_id: u64,
        /// Bytes charged.
        delta_bytes: u64,
        /// Blocks allocated.
        delta_blocks: u64,
    },
    /// An admitted session joined a shared-prefix group: the whole blocks
    /// of its shared prompt prefix are charged once per group (recorded
    /// right after the session's [`EventKind::SessionOpen`], which carries
    /// only the private charges).
    PrefixShared {
        /// The prefix group joined.
        group: u64,
        /// The joining session.
        session_id: u64,
        /// Budget bytes the group's charge *grew* by (zero when the prefix
        /// was already fully charged by earlier members).
        delta_bytes: u64,
        /// Blocks the group's charge grew by.
        delta_blocks: u64,
        /// Resident-token bytes the group's charge grew by (shared blocks
        /// are always full, so this equals `delta_bytes`).
        used_delta_bytes: u64,
        /// Member count after the join.
        refs: u32,
    },
    /// A decode step joined an open launch; its token became resident.
    DecodeJoin {
        /// The launch joined.
        launch_id: u64,
        /// Session id.
        session_id: u64,
        /// Zero-based step index.
        step_index: u32,
        /// Context length attended by the step.
        context_len: u32,
        /// Member count after the join.
        members: u32,
        /// `K`+`V` bytes of the step's token (used-bytes growth).
        token_bytes: u64,
    },
    /// A sealed launch started on a device.
    LaunchDispatched {
        /// Launch id (shared id space across classes).
        launch_id: u64,
        /// The coalescing key (class + kernel shape).
        key: LaunchKey,
        /// Device index.
        device: u32,
        /// When the launch was ready to start.
        ready_s: f64,
        /// Device start time (`max(device_free, ready)`).
        start_s: f64,
        /// Device completion time.
        completion_s: f64,
        /// Simulated service time.
        service_s: f64,
        /// Member work items carried.
        members: u32,
        /// Summed batch dimension (prefill; equals `members` for decode).
        total_batch: u32,
        /// The plan's total energy (prefill; zero for decode).
        energy_pj: f64,
        /// Whether the plan came from the schedule cache (prefill).
        cache_hit: bool,
        /// Why the launch sealed.
        cause: SealCause,
    },
    /// One stage of a track-executor launch occupied a per-device track for
    /// `[start_s, end_s)`. Recorded (in track-then-stage order) right after
    /// the launch's [`EventKind::LaunchDispatched`] when
    /// [`crate::engine::EngineConfig::tracks`] committed an overlapped
    /// placement; scalar-committed launches emit no stage events. Stage
    /// spans of one launch chain in dataflow order; spans on *different*
    /// tracks of the same device may overlap — that overlap is the whole
    /// point of the track executor, and the Chrome trace exporter gives
    /// each track its own thread row so viewers render it correctly.
    LaunchStage {
        /// The launch the stage belongs to.
        launch_id: u64,
        /// Device index.
        device: u32,
        /// The per-device track the stage occupied.
        track: TrackKind,
        /// Zero-based stage (tile/chunk) index within the launch.
        stage: u32,
        /// Track occupancy start.
        start_s: f64,
        /// Track occupancy end.
        end_s: f64,
    },
    /// A member prefill request completed (stamped at launch completion).
    PrefillCompleted {
        /// Request id.
        id: u64,
        /// The launch that carried it.
        launch_id: u64,
    },
    /// A member decode step completed (stamped at launch completion).
    DecodeCompleted {
        /// Session id.
        session_id: u64,
        /// Zero-based step index.
        step_index: u32,
        /// Context length attended.
        context_len: u32,
        /// The launch that carried it.
        launch_id: u64,
    },
    /// A deferred shared-budget release applied (stamped at the stream
    /// instant it was applied; `scheduled_s` is the completion instant that
    /// scheduled it).
    BudgetRelease {
        /// Whose charge released.
        owner: MemOwner,
        /// Bytes released.
        bytes: u64,
        /// Resident-token bytes released (sessions; zero for prefill).
        used_bytes: u64,
        /// KV blocks released (sessions; zero for prefill).
        blocks: u64,
        /// The completion instant that scheduled the release.
        scheduled_s: f64,
    },
    /// Iteration-level preemption fired: a staged (not-yet-hardened) launch
    /// was displaced back behind a deadline-pressed decode launch, or a
    /// decode session's KV residency was evicted under pool pressure.
    Preempted {
        /// What was displaced.
        victim: PreemptVictim,
    },
    /// A preempted decode session's next step arrived: its device KV
    /// residency is restored (swap-in under `Hold`, rebuild under
    /// `Recompute` — the rebuild cost rides on the resuming launch).
    SessionResumed {
        /// The resuming session.
        session_id: u64,
        /// Resident-token bytes restored to the device.
        restored_used_bytes: u64,
        /// Context tokens the resuming launch must recompute (zero under
        /// `Hold`, `context_len - 1` under `Recompute`).
        recompute_tokens: u32,
    },
}

/// What an [`EventKind::Preempted`] displaced.
#[derive(Debug, Clone, PartialEq)]
pub enum PreemptVictim {
    /// A scheduled-but-unstarted (staged) launch was pushed back behind a
    /// deadline-pressed decode launch. No device span was emitted for the
    /// displaced placement — the launch re-places and dispatches later.
    Launch {
        /// The displaced launch.
        launch_id: u64,
        /// Its coalescing key.
        key: LaunchKey,
        /// The device it had been staged on.
        device: u32,
        /// The start time the staged placement would have had.
        start_s: f64,
    },
    /// A decode session's KV charge was evicted from the shared pool to
    /// admit higher-priority growth. The session stays admitted; none of
    /// its completed tokens are lost (they swap to host or recompute).
    Session {
        /// The evicted session.
        session_id: u64,
        /// How the session's KV comes back.
        mode: crate::engine::PreemptMode,
        /// Budget bytes released by the eviction.
        bytes: u64,
        /// Resident-token bytes swapped out.
        used_bytes: u64,
        /// KV blocks released.
        blocks: u64,
    },
}

/// The event log of one engine replay, with analysis and exporters. The
/// engine appends to it during the run; read it from
/// [`crate::engine::ServeEngine::telemetry`] after a run with
/// [`TelemetryConfig`] set.
#[derive(Debug, Clone)]
pub struct Telemetry {
    events: Vec<EngineEvent>,
    release_drops: u64,
}

impl Telemetry {
    /// An empty log with room for `capacity_hint` events. `recycle` donates
    /// the event buffer of a previous run's log — reusing its allocation
    /// keeps repeated replays on one warm engine from re-faulting a fresh
    /// multi-hundred-KB buffer every run, which would dominate the
    /// recording overhead.
    pub(crate) fn recording(capacity_hint: usize, recycle: Option<Telemetry>) -> Self {
        let want = capacity_hint.min(1 << 20);
        let mut events = recycle.map(|log| log.events).unwrap_or_default();
        events.clear();
        if events.capacity() < want {
            events.reserve(want - events.capacity());
        }
        Self {
            events,
            release_drops: 0,
        }
    }

    /// Appends one event.
    #[inline]
    pub(crate) fn record(&mut self, t_s: f64, kind: EventKind) {
        self.events.push(EngineEvent { t_s, kind });
    }

    /// Counts one rejected duplicate budget release (a release arriving for
    /// an owner with no live charge — the double-release hazard).
    pub(crate) fn note_release_drop(&mut self) {
        self.release_drops += 1;
    }

    /// The recorded events, in recording order (index = sequence number).
    #[must_use]
    pub fn events(&self) -> &[EngineEvent] {
        &self.events
    }

    /// Duplicate budget releases the engine detected and rejected (a
    /// release arriving for an owner with no live charge). Always zero in a
    /// correct replay; a non-zero count flags the double-release hazard the
    /// saturating arithmetic would otherwise silently absorb.
    #[must_use]
    pub fn release_drops(&self) -> u64 {
        self.release_drops
    }

    /// The log-bucketed latency histogram of a class, built from the
    /// rebuilt report's outcomes in completion order (empty without a
    /// [`EventKind::RunStart`]). Histograms merge across engines
    /// ([`LogHistogram::merge`]).
    #[must_use]
    pub fn latency_histogram(&self, class: WorkClass) -> LogHistogram {
        self.report()
            .map_or_else(LogHistogram::new, |report| class_histogram(&report, class))
    }

    /// Reconstructs the full [`EngineReport`] purely from the event log —
    /// bit-for-bit equal to the report the engine produced, because both
    /// fold the same events through the same ledger. `None` when the log
    /// has no [`EventKind::RunStart`].
    #[must_use]
    pub fn report(&self) -> Option<EngineReport> {
        Some(Replay::run(&self.events)?.ledger.into_report())
    }

    /// Per-device utilization replayed from the event log. Empty when the
    /// log never started.
    #[must_use]
    pub fn device_utilization(&self) -> Vec<DeviceUtil> {
        self.report()
            .map_or_else(Vec::new, |report| report.device_util)
    }

    /// Shared-budget occupancy peak with attribution: which holders
    /// (prefill launches, sessions, prefix groups) held bytes at the peak
    /// instant. `None` when the log never started or the budget was never
    /// charged.
    #[must_use]
    pub fn peak_attribution(&self) -> Option<PeakAttribution> {
        Replay::run(&self.events)?.peak
    }

    /// Queue-depth gauge of a class: joined-but-undispatched members over
    /// time (`+1` per join, `-members` per dispatch).
    #[must_use]
    pub fn queue_depth(&self, class: WorkClass) -> TimeSeries<i64> {
        let mut series = TimeSeries::new();
        let mut depth = 0i64;
        for event in &self.events {
            if let Some((_, delta)) = queue_delta(&event.kind).filter(|&(c, _)| c == class) {
                depth += delta;
                series.push(event.t_s, depth);
            }
        }
        series
    }

    /// Mean batch fill of a class: dispatched members over the class's
    /// member capacity, averaged across launches. `None` with no launches
    /// (or no [`EventKind::RunStart`] to read capacities from).
    #[must_use]
    pub fn mean_batch_fill(&self, class: WorkClass) -> Option<f64> {
        let capacity = self.events.iter().find_map(|e| match e.kind {
            EventKind::RunStart {
                max_batch,
                max_steps_per_launch,
                ..
            } => Some(match class {
                WorkClass::Prefill => max_batch,
                WorkClass::Decode => max_steps_per_launch,
            }),
            _ => None,
        })?;
        let fills: Vec<f64> = self
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::LaunchDispatched { key, members, .. } if key.class() == class => {
                    Some(f64::from(*members) / f64::from(capacity.max(1)))
                }
                _ => None,
            })
            .collect();
        if fills.is_empty() {
            return None;
        }
        Some(fills.iter().sum::<f64>() / fills.len() as f64)
    }

    /// Checks conservation: every arrival appears exactly once as completed
    /// or rejected, and no completion/reject lacks an arrival.
    ///
    /// # Errors
    ///
    /// A description of the first violation found.
    pub fn conservation_check(&self) -> Result<ConservationStats, String> {
        // 0 = arrived, 1 = resolved once; anything else is a violation.
        let mut prefill: BTreeMap<u64, u32> = BTreeMap::new();
        let mut decode: BTreeMap<(u64, u32), u32> = BTreeMap::new();
        let mut stats = ConservationStats::default();
        for event in &self.events {
            match &event.kind {
                EventKind::PrefillArrival { id, .. } => {
                    if prefill.insert(*id, 0).is_some() {
                        return Err(format!("prefill request {id} arrived twice"));
                    }
                    stats.prefill_arrivals += 1;
                }
                EventKind::PrefillRejected { id, .. } | EventKind::PrefillCompleted { id, .. } => {
                    let resolved = matches!(event.kind, EventKind::PrefillCompleted { .. });
                    match prefill.get_mut(id) {
                        None => {
                            return Err(format!("prefill request {id} resolved, never arrived"))
                        }
                        Some(n @ 0) => *n = 1,
                        Some(_) => return Err(format!("prefill request {id} resolved twice")),
                    }
                    if resolved {
                        stats.prefill_completed += 1;
                    } else {
                        stats.prefill_rejected += 1;
                    }
                }
                EventKind::DecodeArrival {
                    session_id,
                    step_index,
                } => {
                    if decode.insert((*session_id, *step_index), 0).is_some() {
                        return Err(format!(
                            "decode step ({session_id}, {step_index}) arrived twice"
                        ));
                    }
                    stats.decode_arrivals += 1;
                }
                EventKind::DecodeStepRejected {
                    session_id,
                    step_index,
                    ..
                }
                | EventKind::DecodeCompleted {
                    session_id,
                    step_index,
                    ..
                } => {
                    let resolved = matches!(event.kind, EventKind::DecodeCompleted { .. });
                    match decode.get_mut(&(*session_id, *step_index)) {
                        None => {
                            return Err(format!(
                                "decode step ({session_id}, {step_index}) resolved, never arrived"
                            ))
                        }
                        Some(n @ 0) => *n = 1,
                        Some(_) => {
                            return Err(format!(
                                "decode step ({session_id}, {step_index}) resolved twice"
                            ))
                        }
                    }
                    if resolved {
                        stats.decode_completed += 1;
                    } else {
                        stats.decode_rejected += 1;
                    }
                }
                _ => {}
            }
        }
        if let Some((id, _)) = prefill.iter().find(|(_, &n)| n == 0) {
            return Err(format!("prefill request {id} arrived, never resolved"));
        }
        if let Some(((sid, idx), _)) = decode.iter().find(|(_, &n)| n == 0) {
            return Err(format!(
                "decode step ({sid}, {idx}) arrived, never resolved"
            ));
        }
        Ok(stats)
    }

    /// Checks per-track timestamp monotonicity (see the module docs for the
    /// track assignment).
    ///
    /// # Errors
    ///
    /// A description of the first out-of-order pair found.
    pub fn tracks_monotone(&self) -> Result<(), String> {
        let mut last: BTreeMap<Track, f64> = BTreeMap::new();
        let mut launch_device: BTreeMap<u64, u32> = BTreeMap::new();
        for (seq, event) in self.events.iter().enumerate() {
            let track = match &event.kind {
                EventKind::LaunchDispatched {
                    launch_id, device, ..
                } => {
                    launch_device.insert(*launch_id, *device);
                    Track::Device(*device)
                }
                EventKind::LaunchStage { device, track, .. } => Track::DeviceTrack(*device, *track),
                EventKind::PrefillCompleted { launch_id, .. }
                | EventKind::DecodeCompleted { launch_id, .. } => {
                    if !launch_device.contains_key(launch_id) {
                        return Err(format!("completion references launch {launch_id}"));
                    }
                    Track::Launch(*launch_id)
                }
                _ => Track::Timeline,
            };
            let prev = last.entry(track).or_insert(f64::NEG_INFINITY);
            if event.t_s < *prev {
                return Err(format!(
                    "event {seq} ({:?}) at t={} regresses behind t={} on {track:?}",
                    std::mem::discriminant(&event.kind),
                    event.t_s,
                    *prev,
                ));
            }
            *prev = event.t_s;
        }
        Ok(())
    }

    /// Exports the log as Chrome trace-event JSON (Perfetto /
    /// `chrome://tracing`): one thread per device plus an `engine` thread,
    /// `"X"` spans for launches, `"C"` counters for budget occupancy and
    /// queue depth, `"i"` instants for rejects.
    ///
    /// Under the track executor ([`EventKind::LaunchStage`]), each device
    /// additionally gets one thread row per [`TrackKind`]; a launch that
    /// committed an overlapped placement renders as per-stage `"X"` spans
    /// on those track rows *instead of* one span on the device row (spans
    /// on one device's different track rows overlap by design, which a
    /// single row cannot represent without violating the viewer's nesting
    /// rules). Scalar-committed launches keep their device-row span.
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        let devices = self
            .events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::RunStart { devices, .. } => Some(devices),
                _ => None,
            })
            .unwrap_or(0);
        let engine_tid = devices; // one tid past the device tracks
                                  // Per-device-track thread rows sit past the engine thread:
                                  // tid = devices + 1 + device·TRACK_COUNT + track.index().
        let track_tid = |device: u32, track: TrackKind| {
            devices + 1 + device * TRACK_COUNT as u32 + track.index() as u32
        };
        // Pre-scan: group the overlap executor's stage spans by launch so
        // the dispatch arm below knows which launches render per-track.
        // (device, track, stage, start_s, end_s)
        type StageSpanRow = (u32, TrackKind, u32, f64, f64);
        let mut stage_spans: BTreeMap<u64, Vec<StageSpanRow>> = BTreeMap::new();
        for event in &self.events {
            if let EventKind::LaunchStage {
                launch_id,
                device,
                track,
                stage,
                start_s,
                end_s,
            } = &event.kind
            {
                stage_spans
                    .entry(*launch_id)
                    .or_default()
                    .push((*device, *track, *stage, *start_s, *end_s));
            }
        }
        let us = |t_s: f64| t_s * 1e6;
        let mut out = String::with_capacity(256 + self.events.len() * 128);
        out.push('[');
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, event: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&event);
        };
        push(
            &mut out,
            &mut first,
            r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"mas-serve engine"}}"#
                .to_string(),
        );
        for d in 0..devices {
            push(
                &mut out,
                &mut first,
                format!(
                    r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{d},"args":{{"name":"device {d}"}}}}"#
                ),
            );
        }
        push(
            &mut out,
            &mut first,
            format!(
                r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{engine_tid},"args":{{"name":"engine"}}}}"#
            ),
        );
        if !stage_spans.is_empty() {
            for d in 0..devices {
                for track in TrackKind::ALL {
                    let tid = track_tid(d, track);
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{tid},"args":{{"name":"device {d} {track}"}}}}"#
                        ),
                    );
                }
            }
        }
        // The budget counter samples the occupancy of a ledger fed the
        // log's charges and releases, the only events that move it (so the
        // run's policy, devices and budget do not matter here).
        let mut ledger = Ledger::new(SchedulePolicy::default(), 1, u64::MAX);
        let (mut prefill_depth, mut decode_depth) = (0i64, 0i64);
        for event in &self.events {
            let t = event.t_s;
            if Ledger::moves_budget(&event.kind) {
                ledger.apply(t, &event.kind);
                let (p, d) = ledger.occupancy();
                push(
                    &mut out,
                    &mut first,
                    format!(
                        r#"{{"name":"shared_budget_bytes","ph":"C","pid":0,"tid":0,"ts":{},"args":{{"prefill":{p},"decode":{d}}}}}"#,
                        us(t)
                    ),
                );
            }
            match &event.kind {
                EventKind::LaunchDispatched {
                    launch_id,
                    key,
                    device,
                    start_s,
                    service_s,
                    members,
                    cause,
                    ..
                } => {
                    if let Some(stages) = stage_spans.get(launch_id) {
                        // Overlap-committed launch: one span per stage on
                        // the per-track rows; the device row stays clear so
                        // it never shows two overlapping launches.
                        for (dev, track, stage, stage_start, stage_end) in stages {
                            push(
                                &mut out,
                                &mut first,
                                format!(
                                    r#"{{"name":{},"cat":"{}","ph":"X","pid":0,"tid":{},"ts":{},"dur":{},"args":{{"launch_id":{launch_id},"stage":{stage},"members":{members},"cause":"{}"}}}}"#,
                                    escape_json(&format!("{key} s{stage} {track}")),
                                    key.class(),
                                    track_tid(*dev, *track),
                                    us(*stage_start),
                                    us(stage_end - stage_start),
                                    cause.label(),
                                ),
                            );
                        }
                    } else {
                        push(
                            &mut out,
                            &mut first,
                            format!(
                                r#"{{"name":{},"cat":"{}","ph":"X","pid":0,"tid":{device},"ts":{},"dur":{},"args":{{"launch_id":{launch_id},"members":{members},"cause":"{}"}}}}"#,
                                escape_json(&key.to_string()),
                                key.class(),
                                us(*start_s),
                                us(*service_s),
                                cause.label(),
                            ),
                        );
                    }
                }
                EventKind::PrefillRejected { id, reason } => {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            r#"{{"name":{},"ph":"i","s":"t","pid":0,"tid":{engine_tid},"ts":{},"args":{{"id":{id}}}}}"#,
                            escape_json(&format!("reject prefill: {}", reason.label())),
                            us(t),
                        ),
                    );
                }
                EventKind::SessionRejected { session_id, reason } => {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            r#"{{"name":{},"ph":"i","s":"t","pid":0,"tid":{engine_tid},"ts":{},"args":{{"session_id":{session_id}}}}}"#,
                            escape_json(&format!("reject session: {}", reason.label())),
                            us(t),
                        ),
                    );
                }
                EventKind::DecodeStepRejected {
                    session_id, reason, ..
                } => {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            r#"{{"name":{},"ph":"i","s":"t","pid":0,"tid":{engine_tid},"ts":{},"args":{{"session_id":{session_id}}}}}"#,
                            escape_json(&format!("reject step: {}", reason.label())),
                            us(t),
                        ),
                    );
                }
                _ => {}
            }
            if let Some((class, delta)) = queue_delta(&event.kind) {
                match class {
                    WorkClass::Prefill => prefill_depth += delta,
                    WorkClass::Decode => decode_depth += delta,
                }
                let (p, d) = (prefill_depth, decode_depth);
                push(
                    &mut out,
                    &mut first,
                    format!(
                        r#"{{"name":"queue_depth","ph":"C","pid":0,"tid":0,"ts":{},"args":{{"prefill":{p},"decode":{d}}}}}"#,
                        us(t)
                    ),
                );
            }
        }
        out.push_str("\n]\n");
        out
    }

    /// Exports a Prometheus text-exposition snapshot: `mas_engine_*`
    /// counters, gauges and log-bucketed latency histograms, all read from
    /// the rebuilt report (empty without a [`EventKind::RunStart`]).
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let Some(report) = self.report() else {
            return String::new();
        };
        let (prefill, decode) = (&report.prefill, &report.decode);
        let mut out = String::with_capacity(4096);
        let metric = |out: &mut String, name: &str, help: &str, kind: &str| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        };
        metric(
            &mut out,
            "mas_engine_arrivals_total",
            "Work-item arrivals by class.",
            "counter",
        );
        out.push_str(&format!(
            "mas_engine_arrivals_total{{class=\"prefill\"}} {}\nmas_engine_arrivals_total{{class=\"decode\"}} {}\n",
            prefill.outcomes.len() + prefill.rejected.len(),
            decode.outcomes.len() + decode.rejected.len()
        ));
        metric(
            &mut out,
            "mas_engine_completed_total",
            "Completed work items by class.",
            "counter",
        );
        out.push_str(&format!(
            "mas_engine_completed_total{{class=\"prefill\"}} {}\nmas_engine_completed_total{{class=\"decode\"}} {}\n",
            prefill.outcomes.len(),
            decode.outcomes.len()
        ));
        metric(
            &mut out,
            "mas_engine_rejected_total",
            "Rejected work items by class and reason.",
            "counter",
        );
        for (reason, n) in tally(prefill.rejected.iter().map(|r| r.reason.label())) {
            out.push_str(&format!(
                "mas_engine_rejected_total{{class=\"prefill\",reason=\"{reason}\"}} {n}\n"
            ));
        }
        for (reason, n) in tally(decode.rejected.iter().map(|r| r.reason.label())) {
            out.push_str(&format!(
                "mas_engine_rejected_total{{class=\"decode\",reason=\"{reason}\"}} {n}\n"
            ));
        }
        metric(
            &mut out,
            "mas_engine_sessions_rejected_total",
            "Decode sessions rejected at open, by reason.",
            "counter",
        );
        for (reason, n) in tally(decode.rejected_sessions.iter().map(|(_, r)| r.label())) {
            out.push_str(&format!(
                "mas_engine_sessions_rejected_total{{reason=\"{reason}\"}} {n}\n"
            ));
        }
        metric(
            &mut out,
            "mas_engine_sessions_admitted_total",
            "Decode sessions admitted.",
            "counter",
        );
        out.push_str(&format!(
            "mas_engine_sessions_admitted_total {}\n",
            decode.sessions_admitted
        ));
        metric(
            &mut out,
            "mas_engine_launches_total",
            "Device launches by class.",
            "counter",
        );
        out.push_str(&format!(
            "mas_engine_launches_total{{class=\"prefill\"}} {}\nmas_engine_launches_total{{class=\"decode\"}} {}\n",
            prefill.batches, decode.launches
        ));
        metric(
            &mut out,
            "mas_engine_cache_lookups_total",
            "Prefill plan-cache lookups by result.",
            "counter",
        );
        out.push_str(&format!(
            "mas_engine_cache_lookups_total{{result=\"hit\"}} {}\nmas_engine_cache_lookups_total{{result=\"miss\"}} {}\n",
            prefill.cache_hits, prefill.cache_misses
        ));
        metric(
            &mut out,
            "mas_engine_preemptions_total",
            "Iteration-level preemptions by victim kind.",
            "counter",
        );
        out.push_str(&format!(
            "mas_engine_preemptions_total{{victim=\"launch\"}} {}\nmas_engine_preemptions_total{{victim=\"session\"}} {}\n",
            report.preemptions_prefill, report.preemptions_decode
        ));
        metric(
            &mut out,
            "mas_engine_release_drops_total",
            "Duplicate budget releases detected and rejected.",
            "counter",
        );
        out.push_str(&format!(
            "mas_engine_release_drops_total {}\n",
            self.release_drops
        ));
        metric(
            &mut out,
            "mas_engine_mem_budget_bytes",
            "Shared memory budget.",
            "gauge",
        );
        out.push_str(&format!(
            "mas_engine_mem_budget_bytes {}\n",
            report.mem_budget_bytes
        ));
        metric(
            &mut out,
            "mas_engine_mem_peak_bytes",
            "Peak shared-budget occupancy, total and by class.",
            "gauge",
        );
        out.push_str(&format!(
            "mas_engine_mem_peak_bytes{{class=\"total\"}} {}\nmas_engine_mem_peak_bytes{{class=\"prefill\"}} {}\nmas_engine_mem_peak_bytes{{class=\"decode\"}} {}\n",
            report.mem_peak_bytes, report.mem_peak_prefill_bytes, report.mem_peak_decode_bytes
        ));
        metric(
            &mut out,
            "mas_engine_makespan_seconds",
            "Virtual time of the last completion.",
            "gauge",
        );
        out.push_str(&format!(
            "mas_engine_makespan_seconds {}\n",
            report.makespan_s
        ));
        metric(
            &mut out,
            "mas_engine_device_busy_seconds",
            "Busy time per device.",
            "gauge",
        );
        for (d, util) in report.device_util.iter().enumerate() {
            out.push_str(&format!(
                "mas_engine_device_busy_seconds{{device=\"{d}\"}} {}\n",
                util.busy_s
            ));
        }
        metric(
            &mut out,
            "mas_engine_device_idle_gaps_total",
            "Idle gaps between launches per device.",
            "counter",
        );
        for (d, util) in report.device_util.iter().enumerate() {
            out.push_str(&format!(
                "mas_engine_device_idle_gaps_total{{device=\"{d}\"}} {}\n",
                util.idle_gaps
            ));
        }
        metric(
            &mut out,
            "mas_engine_latency_seconds",
            "End-to-end completion latency by class (log2 buckets).",
            "histogram",
        );
        for class in [WorkClass::Prefill, WorkClass::Decode] {
            let hist = class_histogram(&report, class);
            let mut cumulative = 0u64;
            for (i, &n) in hist.bucket_counts().iter().enumerate() {
                cumulative += n;
                if n > 0 || i + 1 == LOG_HISTOGRAM_BUCKETS {
                    out.push_str(&format!(
                        "mas_engine_latency_seconds_bucket{{class=\"{class}\",le=\"{:e}\"}} {cumulative}\n",
                        LogHistogram::bucket_upper_bound_s(i)
                    ));
                }
            }
            out.push_str(&format!(
                "mas_engine_latency_seconds_bucket{{class=\"{class}\",le=\"+Inf\"}} {}\n",
                hist.count()
            ));
            out.push_str(&format!(
                "mas_engine_latency_seconds_sum{{class=\"{class}\"}} {}\n",
                hist.sum_s()
            ));
            out.push_str(&format!(
                "mas_engine_latency_seconds_count{{class=\"{class}\"}} {}\n",
                hist.count()
            ));
        }
        out
    }
}

/// The queue-depth change an event makes to its class: `+1` per join and
/// `-members` per dispatch.
fn queue_delta(kind: &EventKind) -> Option<(WorkClass, i64)> {
    match kind {
        EventKind::PrefillJoin { .. } => Some((WorkClass::Prefill, 1)),
        EventKind::DecodeJoin { .. } => Some((WorkClass::Decode, 1)),
        EventKind::LaunchDispatched { key, members, .. } => {
            Some((key.class(), -i64::from(*members)))
        }
        _ => None,
    }
}

/// The latency histogram of a class's outcomes, observed in completion
/// order (the order the engine completed them, so the sum is bit-stable).
fn class_histogram(report: &EngineReport, class: WorkClass) -> LogHistogram {
    let mut hist = LogHistogram::new();
    match class {
        WorkClass::Prefill => {
            (report.prefill.outcomes.iter()).for_each(|o| hist.observe(o.latency_s()))
        }
        WorkClass::Decode => {
            (report.decode.outcomes.iter()).for_each(|o| hist.observe(o.latency_s()))
        }
    }
    hist
}

/// Occurrences of each label, in label order.
fn tally(labels: impl Iterator<Item = &'static str>) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for label in labels {
        *counts.entry(label).or_insert(0) += 1;
    }
    counts
}

/// Conservation tallies returned by [`Telemetry::conservation_check`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConservationStats {
    /// Prefill requests that arrived.
    pub prefill_arrivals: usize,
    /// Prefill requests that completed.
    pub prefill_completed: usize,
    /// Prefill requests that were rejected.
    pub prefill_rejected: usize,
    /// Decode steps that arrived.
    pub decode_arrivals: usize,
    /// Decode steps that completed.
    pub decode_completed: usize,
    /// Decode steps that were rejected.
    pub decode_rejected: usize,
}

/// The shared-budget occupancy peak with its holders, from
/// [`Telemetry::peak_attribution`].
#[derive(Debug, Clone, PartialEq)]
pub struct PeakAttribution {
    /// Peak bytes charged at once.
    pub peak_bytes: u64,
    /// Prefill activation share of the peak.
    pub prefill_bytes: u64,
    /// Decode KV share of the peak.
    pub decode_bytes: u64,
    /// Virtual time of the peak instant.
    pub t_s: f64,
    /// Every holder's charge at the peak instant, largest first (ties by
    /// owner identity).
    pub holders: Vec<(MemOwner, u64)>,
}

/// A timestamped value series (gauges over virtual time).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries<T> {
    /// `(t_s, value)` points in time order.
    pub points: Vec<(f64, T)>,
}

impl<T> TimeSeries<T> {
    /// An empty series.
    #[must_use]
    pub fn new() -> Self {
        Self { points: Vec::new() }
    }

    /// Appends a point.
    pub fn push(&mut self, t_s: f64, value: T) {
        self.points.push((t_s, value));
    }

    /// The most recent value.
    #[must_use]
    pub fn last(&self) -> Option<&T> {
        self.points.last().map(|(_, v)| v)
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Bucket count of [`LogHistogram`].
pub const LOG_HISTOGRAM_BUCKETS: usize = 32;

/// Smallest bucket exponent: bucket 0 covers values below
/// 2^(`LOG_HISTOGRAM_MIN_EXP` + 1) seconds.
pub const LOG_HISTOGRAM_MIN_EXP: i32 = -24;

/// A streaming log₂-bucketed histogram: 32 power-of-two buckets from
/// `2^-24` s (~60 ns) to `2^8` s, each holding a count. Observation is two
/// integer ops (IEEE-754 exponent extraction) plus a float add; histograms
/// merge by bucket-wise addition — the property the future multi-engine
/// cluster layer needs to aggregate per-shard latency without raw samples.
/// Quantiles come back as bucket upper bounds (≤ one octave of error),
/// coexisting with the exact [`crate::metrics::LatencyStats`] figures.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: [u64; LOG_HISTOGRAM_BUCKETS],
    count: u64,
    sum_s: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: [0; LOG_HISTOGRAM_BUCKETS],
            count: 0,
            sum_s: 0.0,
        }
    }

    /// The bucket index of a value: its binary exponent, clamped to the
    /// bucket range (non-positive and subnormal values land in bucket 0,
    /// values ≥ `2^8` s in the last bucket).
    #[must_use]
    pub fn bucket_index(v_s: f64) -> usize {
        if v_s <= 0.0 || !v_s.is_finite() {
            return 0;
        }
        // floor(log2(v)) for normal doubles, straight from the exponent bits.
        let e = ((v_s.to_bits() >> 52) & 0x7ff) as i32 - 1023;
        (e - LOG_HISTOGRAM_MIN_EXP).clamp(0, LOG_HISTOGRAM_BUCKETS as i32 - 1) as usize
    }

    /// Upper bound of bucket `i` in seconds: `2^(MIN_EXP + i + 1)`. The
    /// last bucket is a catch-all; its nominal bound understates extreme
    /// outliers (the `+Inf` exposition line carries the true total).
    #[must_use]
    pub fn bucket_upper_bound_s(i: usize) -> f64 {
        f64::from(LOG_HISTOGRAM_MIN_EXP + i as i32 + 1).exp2()
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&mut self, v_s: f64) {
        self.counts[Self::bucket_index(v_s)] += 1;
        self.count += 1;
        self.sum_s += v_s;
    }

    /// Merges another histogram into this one (bucket-wise addition;
    /// commutative and associative).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_s += other.sum_s;
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations in seconds.
    #[must_use]
    pub fn sum_s(&self) -> f64 {
        self.sum_s
    }

    /// Whether nothing was observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Per-bucket counts.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64; LOG_HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`), reported as the containing
    /// bucket's upper bound. `None` when empty.
    #[must_use]
    pub fn quantile_upper_bound_s(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Some(Self::bucket_upper_bound_s(i));
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Report reconstruction: fold the log through the engine's own ledger, in
// recording order (the order the engine applied the events), so every f64
// accumulation chain matches bit-for-bit. The replay itself only rebuilds
// the facts whose events carry ids, and snapshots the peak's holders.
// ---------------------------------------------------------------------------

struct ArrivalInfo {
    workload: String,
    method: DataflowKind,
    batch: u32,
    deadline_s: Option<f64>,
    arrival_s: f64,
}

/// A folded log: the ledger (the report) and the latest peak snapshot.
struct Replay {
    ledger: Ledger,
    peak: Option<PeakAttribution>,
}

impl Replay {
    /// Replays the full event stream; `None` without a `RunStart`, or when
    /// an event references a device, arrival or launch the log lacks.
    fn run(events: &[EngineEvent]) -> Option<Self> {
        let (policy, devices, budget, step_deadline_s) =
            events.iter().find_map(|e| match e.kind {
                EventKind::RunStart {
                    policy,
                    devices,
                    budget_bytes,
                    step_deadline_s,
                    ..
                } => Some((policy, devices.max(1), budget_bytes, step_deadline_s)),
                _ => None,
            })?;
        let mut ledger = Ledger::new(policy, devices as usize, budget);
        let mut peak = None;
        let mut arrivals: BTreeMap<u64, ArrivalInfo> = BTreeMap::new();
        let mut decode_arrivals: BTreeMap<(u64, u32), f64> = BTreeMap::new();
        // Each launch's completion, with its chain for a chunk, and each
        // chain's completion so far, folded in chunk-dispatch order.
        let mut launches: BTreeMap<u64, (Completion, Option<u64>)> = BTreeMap::new();
        let mut chains: BTreeMap<u64, Completion> = BTreeMap::new();
        for event in events {
            let t = event.t_s;
            match &event.kind {
                EventKind::PrefillArrival {
                    id,
                    workload,
                    method,
                    batch,
                    deadline_s,
                } => {
                    arrivals.insert(
                        *id,
                        ArrivalInfo {
                            workload: workload.clone(),
                            method: *method,
                            batch: *batch,
                            deadline_s: *deadline_s,
                            arrival_s: t,
                        },
                    );
                }
                EventKind::PrefillRejected { id, reason } => {
                    let info = arrivals.get(id)?;
                    ledger.reject_prefill(RejectedRequest {
                        id: *id,
                        workload: info.workload.clone(),
                        arrival_s: t,
                        reason: *reason,
                    });
                }
                EventKind::DecodeArrival {
                    session_id,
                    step_index,
                } => {
                    decode_arrivals.insert((*session_id, *step_index), t);
                }
                EventKind::LaunchDispatched {
                    launch_id,
                    key,
                    device,
                    start_s,
                    completion_s,
                    service_s,
                    total_batch,
                    energy_pj,
                    cache_hit,
                    ..
                } => {
                    if *device >= devices {
                        return None;
                    }
                    let done = Completion {
                        launch_id: *launch_id,
                        batch_id: *launch_id,
                        device: *device as usize,
                        start_s: *start_s,
                        completion_s: *completion_s,
                        service_s: *service_s,
                        energy_pj: *energy_pj,
                        total_batch: f64::from(*total_batch),
                        cache_hit: *cache_hit,
                    };
                    let chain = match key {
                        LaunchKey::PrefillChunk(ck) => Some(ck.chain),
                        _ => None,
                    };
                    if let Some(chain) = chain {
                        chains
                            .entry(chain)
                            .and_modify(|c| *c = c.then(done))
                            .or_insert(done);
                    }
                    launches.insert(*launch_id, (done, chain));
                }
                EventKind::PrefillCompleted { id, launch_id } => {
                    let info = arrivals.get(id)?;
                    // A chunked request completes with its whole chain (the
                    // event references the chain's last chunk).
                    let done = match launches.get(launch_id)? {
                        (_, Some(chain)) => chains.get(chain)?,
                        (done, None) => done,
                    };
                    ledger.complete_prefill(done.prefill(
                        *id,
                        &info.workload,
                        info.method,
                        f64::from(info.batch),
                        info.arrival_s,
                        info.deadline_s,
                    ));
                }
                EventKind::DecodeCompleted {
                    session_id,
                    step_index,
                    context_len,
                    launch_id,
                } => {
                    let arrival_s = *decode_arrivals.get(&(*session_id, *step_index))?;
                    let (done, _) = launches.get(launch_id)?;
                    ledger.complete_decode(done.decode(
                        *session_id,
                        *step_index as usize,
                        *context_len as usize,
                        arrival_s,
                        step_deadline_s,
                    ));
                }
                _ => {}
            }
            if ledger.apply(t, &event.kind) {
                peak = Some(ledger.peak_attribution(t));
            }
        }
        Some(Self { ledger, peak })
    }
}

// ---------------------------------------------------------------------------
// Chrome trace validation: a minimal JSON parser plus per-track span
// overlap checking (used by CI on serve_trace output).
// ---------------------------------------------------------------------------

/// Summary of a validated Chrome trace, from [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChromeTraceStats {
    /// Total trace events.
    pub total_events: usize,
    /// `"X"` complete-event spans.
    pub spans: usize,
    /// `"C"` counter samples.
    pub counters: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// Distinct `(pid, tid)` tracks carrying at least one span.
    pub span_tracks: usize,
}

/// Parses Chrome trace-event JSON and verifies its structure: a top-level
/// array of objects, every `"X"` span with numeric `pid`/`tid`/`ts`/`dur`,
/// and — the scheduling invariant — **no two spans overlapping within one
/// `(pid, tid)` track** (1 ns tolerance for decimal round-tripping).
///
/// The invariant is deliberately per *thread row*, not per device: under
/// the overlap executor one device exports several rows (its scalar
/// dispatch row plus one row per [`TrackKind`]), and spans on different
/// rows of the same device overlap by design — a DMA stage streaming the
/// next tile runs under the current tile's MAC stage. Each single row is
/// still a FIFO queue and must serialize.
///
/// # Errors
///
/// A description of the first structural or overlap violation.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceStats, String> {
    let value = parse_json(json)?;
    let JsonValue::Array(events) = value else {
        return Err("top-level value is not an array".to_string());
    };
    let mut stats = ChromeTraceStats {
        total_events: events.len(),
        ..ChromeTraceStats::default()
    };
    let mut tracks: BTreeMap<(i64, i64), Vec<(f64, f64)>> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let JsonValue::Object(fields) = event else {
            return Err(format!("event {i} is not an object"));
        };
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let Some(JsonValue::String(ph)) = get("ph") else {
            return Err(format!("event {i} lacks a string \"ph\""));
        };
        match ph.as_str() {
            "X" => {
                stats.spans += 1;
                let num = |k: &str| match get(k) {
                    Some(JsonValue::Number(n)) => Ok(*n),
                    _ => Err(format!("span {i} lacks numeric \"{k}\"")),
                };
                let (pid, tid) = (num("pid")?, num("tid")?);
                let (ts, dur) = (num("ts")?, num("dur")?);
                if !matches!(get("name"), Some(JsonValue::String(_))) {
                    return Err(format!("span {i} lacks a string \"name\""));
                }
                if dur < 0.0 {
                    return Err(format!("span {i} has negative dur"));
                }
                tracks
                    .entry((pid as i64, tid as i64))
                    .or_default()
                    .push((ts, dur));
            }
            "C" => stats.counters += 1,
            "i" => stats.instants += 1,
            _ => {}
        }
    }
    stats.span_tracks = tracks.len();
    for ((pid, tid), mut spans) in tracks {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in spans.windows(2) {
            let (prev_ts, prev_dur) = pair[0];
            let (next_ts, _) = pair[1];
            // 1e-3 µs = 1 ns tolerance for decimal formatting round-trips.
            if next_ts < prev_ts + prev_dur - 1e-3 {
                return Err(format!(
                    "track (pid {pid}, tid {tid}): span at ts={next_ts} overlaps previous span \
                     [{prev_ts}, {}]",
                    prev_ts + prev_dur
                ));
            }
        }
    }
    Ok(stats)
}

/// Escapes a string for embedding in JSON (returns the quoted literal).
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

enum JsonValue {
    Null,
    // The payload is carried for parse fidelity; no validator rule reads it.
    Bool(#[allow(dead_code)] bool),
    Number(f64),
    String(String),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

/// The deepest array/object nesting [`parse_json`] accepts. Exported
/// traces nest 3 levels; the bound keeps the recursive parser's stack
/// small on hostile input.
const MAX_JSON_DEPTH: usize = 64;

fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut parser = JsonParser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            b'"' => Ok(JsonValue::String(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "invalid \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
                    }
                }
                b => {
                    // Re-borrow multi-byte UTF-8 sequences whole.
                    if b < 0x80 {
                        out.push(char::from(b));
                    } else {
                        let start = self.pos - 1;
                        let mut end = self.pos;
                        while self.bytes.get(end).is_some_and(|&b| b & 0xc0 == 0x80) {
                            end += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..end])
                                .map_err(|_| "invalid UTF-8 in string".to_string())?,
                        );
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_buckets_by_binary_exponent() {
        // 2^-24 ≤ v < 2^-23 is bucket 0; each octave up is the next bucket.
        assert_eq!(LogHistogram::bucket_index(0.0), 0);
        assert_eq!(LogHistogram::bucket_index(-1.0), 0);
        assert_eq!(LogHistogram::bucket_index(f64::NAN), 0);
        assert_eq!(LogHistogram::bucket_index(2f64.powi(-24)), 0);
        assert_eq!(LogHistogram::bucket_index(2f64.powi(-23)), 1);
        assert_eq!(LogHistogram::bucket_index(1e-3), 14);
        assert_eq!(LogHistogram::bucket_index(1.0), 24);
        assert_eq!(LogHistogram::bucket_index(1e9), 31);
        // Upper bounds bracket their bucket.
        for v in [1e-6, 3.7e-4, 0.01, 2.5] {
            let i = LogHistogram::bucket_index(v);
            assert!(v < LogHistogram::bucket_upper_bound_s(i), "{v}");
            if i > 0 {
                assert!(v >= LogHistogram::bucket_upper_bound_s(i - 1), "{v}");
            }
        }
    }

    #[test]
    fn log_histogram_merges_like_combined_observation() {
        let samples = [1e-5, 2e-5, 1e-4, 3e-3, 3e-3, 0.5, 2.0];
        let mut combined = LogHistogram::new();
        let mut left = LogHistogram::new();
        let mut right = LogHistogram::new();
        for (i, &s) in samples.iter().enumerate() {
            combined.observe(s);
            if i % 2 == 0 {
                left.observe(s);
            } else {
                right.observe(s);
            }
        }
        left.merge(&right);
        assert_eq!(left, combined);
        assert_eq!(left.count(), samples.len() as u64);
        assert!((left.sum_s() - samples.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn log_histogram_quantiles_return_bucket_bounds() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile_upper_bound_s(0.5), None);
        for _ in 0..9 {
            h.observe(1e-4); // bucket 10 (2^-14 ≤ v < 2^-13)
        }
        h.observe(1.0); // bucket 24
        let p50 = h.quantile_upper_bound_s(0.5).unwrap();
        assert!(1e-4 < p50 && p50 < 2e-4, "{p50}");
        let p99 = h.quantile_upper_bound_s(0.99).unwrap();
        assert_eq!(p99, LogHistogram::bucket_upper_bound_s(24));
    }

    #[test]
    fn json_parser_round_trips_structures() {
        let value = parse_json(
            r#"[{"name":"a\"b","ph":"X","ts":1.5e3,"dur":2,"ok":true,"none":null,"arr":[1,2]}]"#,
        )
        .unwrap();
        let JsonValue::Array(items) = value else {
            panic!("not an array")
        };
        assert_eq!(items.len(), 1);
        let JsonValue::Object(fields) = &items[0] else {
            panic!("not an object")
        };
        assert!(matches!(
            fields.iter().find(|(k, _)| k == "name"),
            Some((_, JsonValue::String(s))) if s == "a\"b"
        ));
        assert!(matches!(
            fields.iter().find(|(k, _)| k == "ts"),
            Some((_, JsonValue::Number(n))) if (*n - 1500.0).abs() < 1e-9
        ));
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1] trailing").is_err());
    }

    #[test]
    fn validator_accepts_disjoint_and_rejects_overlapping_spans() {
        let good = r#"[
            {"name":"a","ph":"X","pid":0,"tid":0,"ts":0,"dur":10},
            {"name":"b","ph":"X","pid":0,"tid":0,"ts":10,"dur":5},
            {"name":"c","ph":"X","pid":0,"tid":1,"ts":3,"dur":100},
            {"name":"q","ph":"C","pid":0,"tid":0,"ts":1,"args":{"v":1}},
            {"name":"r","ph":"i","s":"t","pid":0,"tid":0,"ts":2}
        ]"#;
        let stats = validate_chrome_trace(good).unwrap();
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.span_tracks, 2);
        let overlapping = r#"[
            {"name":"a","ph":"X","pid":0,"tid":0,"ts":0,"dur":10},
            {"name":"b","ph":"X","pid":0,"tid":0,"ts":5,"dur":5}
        ]"#;
        let err = validate_chrome_trace(overlapping).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"[{"ph":"X","pid":0,"tid":0,"ts":0}]"#).is_err());
    }

    /// Nesting past `MAX_JSON_DEPTH` is an error, not a stack overflow,
    /// however deep the input goes.
    #[test]
    fn json_parser_bounds_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_JSON_DEPTH + 1)).err().unwrap();
        assert!(err.contains("nesting deeper"), "{err}");
        assert!(validate_chrome_trace(&"[".repeat(200_000)).is_err());
        assert!(validate_chrome_trace(&"[{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn escape_json_quotes_specials() {
        assert_eq!(escape_json("plain"), "\"plain\"");
        assert_eq!(escape_json("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(
            escape_json("line\nbreak\ttab\r"),
            "\"line\\nbreak\\ttab\\r\""
        );
        assert_eq!(escape_json("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape_json("\u{1f}"), "\"\\u001f\"");
        // Escaped output parses back to the original.
        let original = "span \"x\" \\ with\nnewline";
        let parsed = parse_json(&escape_json(original)).unwrap();
        assert!(matches!(parsed, JsonValue::String(s) if s == original));
    }

    #[test]
    fn time_series_accumulates_points() {
        let mut series = TimeSeries::new();
        assert!(series.is_empty());
        series.push(0.0, 1i64);
        series.push(1.0, 3);
        assert_eq!(series.len(), 2);
        assert_eq!(series.last(), Some(&3));
        assert_eq!(series.points[0], (0.0, 1));
    }

    #[test]
    fn seal_cause_and_mem_owner_labels() {
        assert_eq!(SealCause::Window.label(), "window");
        assert_eq!(SealCause::Flush.label(), "flush");
        assert_eq!(MemOwner::Session(3).to_string(), "session 3");
        assert_eq!(MemOwner::PrefillLaunch(1).to_string(), "prefill-launch 1");
    }
}
