//! `serve_steady` and `serve_overload`: open-loop mixed prefill + decode
//! traces replayed through [`ServeEngine`].
//!
//! Both traces come from [`mixed_trace`]: Poisson prefill arrivals plus
//! Poisson-opened decode sessions whose steps arrive at jittered token
//! gaps. Arrivals are fixed in advance and never react to completions.
//! Set-up generates the trace and replays it once cold, which plans every
//! unique prefill key into the engine's schedule cache; the timed phase
//! then replays the same trace on the warm engine back to back.

use std::hint::black_box;

use mas_attention::Planner;
use mas_dataflow::{AttentionWorkload, DataflowKind, DecodeStep, StreamDemand, TrackDemand};
use mas_serve::{
    validate_chrome_trace, ChunkPolicy, DecodePolicy, DecodeRejectReason, EngineConfig,
    EngineReport, EventKind, KvDtype, LatencyStats, LaunchKey, PreemptMode, RejectReason,
    ScheduleCache, SchedulePolicy, ServeEngine, ServeRequest, TelemetryConfig, TrackConfig,
};
use mas_sim::HardwareConfig;
use mas_workloads::{mixed_trace, MixedTrace, MixedTraceConfig, Network};

use crate::spans::Tracer;
use crate::{
    record_end_to_end, record_tracing_overhead, repeated_setup, timed_passes, Outcome, RunConfig,
    Timing,
};

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Well below device saturation, default engine configuration.
    Steady,
    /// Above device capacity, every overload mechanism enabled.
    Overload,
}

/// Repetitions of each per-layer probe call in the traced run.
const PROBE_REPEATS: usize = 20;
/// Relative deadline of every prefill request.
const PREFILL_DEADLINE_S: f64 = 0.050;

impl ServeKind {
    /// The trace generator's configuration at `seed`.
    #[must_use]
    pub fn trace_config(self, seed: u64) -> MixedTraceConfig {
        let small = vec![Network::BertSmall, Network::VitB16, Network::T5Mini];
        match self {
            ServeKind::Steady => MixedTraceConfig::poisson(small, 4_000, 400.0, 1_500, 150.0, seed),
            ServeKind::Overload => {
                let mut networks = small;
                networks.push(Network::Llama3_8B);
                MixedTraceConfig::poisson(networks, 7_000, 3_000.0, 1_500, 1_000.0, seed)
                    .with_shared_system_prompt(64)
            }
        }
    }

    /// The engine configuration the workload replays under.
    #[must_use]
    pub fn engine_config(self) -> EngineConfig {
        match self {
            ServeKind::Steady => EngineConfig::default(),
            ServeKind::Overload => EngineConfig {
                policy: SchedulePolicy::DecodePriority,
                decode: DecodePolicy {
                    step_deadline_s: Some(0.003),
                    kv_dtype: Some(KvDtype::F16),
                    prefix_share: true,
                    ..DecodePolicy::default()
                },
                chunked_prefill: Some(ChunkPolicy::new(64)),
                preempt: Some(PreemptMode::Hold),
                tracks: Some(TrackConfig::default()),
                telemetry: Some(TelemetryConfig::default()),
                shared_budget_bytes: Some(512 << 20),
                ..EngineConfig::default()
            },
        }
    }
}

/// The generated inputs of one serve workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    /// The mixed trace (prefill events and decode sessions/steps).
    pub trace: MixedTrace,
    /// The prefill leg as engine requests, with the workload's deadline.
    pub stream: Vec<ServeRequest>,
}

impl ServeInputs {
    /// Offered items: prefill requests plus decode steps.
    #[must_use]
    pub fn events(&self) -> usize {
        self.trace.total_events()
    }
}

/// Generates the workload's inputs from `seed`.
#[must_use]
pub fn inputs(kind: ServeKind, seed: u64) -> ServeInputs {
    let trace = mixed_trace(&kind.trace_config(seed));
    let stream = ServeRequest::stream_from_trace(
        &trace.prefill,
        DataflowKind::MasAttention,
        Some(PREFILL_DEADLINE_S),
    );
    ServeInputs { trace, stream }
}

/// Runs a serve workload.
#[must_use]
pub fn run(kind: ServeKind, config: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(config.trace);
    let ((inputs, mut engine, cold), setup) = repeated_setup(|| {
        let inputs = tracer.span("workloads.mixed_trace", |_| inputs(kind, config.seed));
        let mut engine = ServeEngine::new(kind.engine_config());
        let cold = engine.run(&inputs.stream, &inputs.trace.decode);
        (inputs, engine, cold)
    });
    if let Err(e) = cold {
        outcome.failed += 1;
        outcome.failures.push(format!("cold replay failed: {e}"));
        return outcome;
    }
    let events = inputs.events();

    // Timed phase: warm replays back to back, tracing off.
    let mut reports: Vec<EngineReport> = Vec::new();
    let mut errors = Vec::new();
    let mut keep = |result: mas_sim::Result<EngineReport>| match result {
        // The first and the latest report are enough for the checks.
        Ok(report) if reports.len() == 2 => reports[1] = report,
        Ok(report) => reports.push(report),
        Err(e) => errors.push(e.to_string()),
    };
    let untraced = timed_passes(
        config.phase_budget(),
        2,
        || engine.run(&inputs.stream, &inputs.trace.decode),
        &mut keep,
    );
    let traced = if config.trace {
        timed_passes(
            config.phase_budget(),
            2,
            || {
                tracer.span("engine.run", |_| {
                    engine.run(&inputs.stream, &inputs.trace.decode)
                })
            },
            &mut keep,
        )
    } else {
        Timing::default()
    };
    let passes = untraced.passes.len() + traced.passes.len();
    outcome.notes.push(setup.summary("setup"));
    outcome.notes.push(untraced.summary("untraced"));

    outcome.attempted = (passes * events) as u64;
    outcome.failed = (errors.len() * events) as u64;
    outcome.failures.extend(errors);
    if reports.len() < 2 {
        outcome
            .failures
            .push("fewer than two warm replays succeeded".into());
        return outcome;
    }
    check_replays(
        kind,
        &inputs,
        &reports[0],
        &reports[1],
        &engine,
        &mut outcome,
    );
    let report = &reports[1];
    guard_mechanisms(kind, report, &engine, &mut outcome);

    if config.trace {
        outcome.notes.push(traced.summary("traced"));
        record_tracing_overhead(&mut outcome, events as f64, &untraced, &traced);
        outcome.set(
            "workloads.trace_gen_ms",
            tracer.mean_self_s("workloads.mixed_trace") * 1e3,
        );
        let run_s = tracer.mean_self_s("engine.run");
        outcome.set("engine.run_ms", run_s * 1e3);
        outcome.set("engine.ns_per_event", run_s * 1e9 / events as f64);
        record_report(&inputs, report, &engine, &mut outcome);
        probe_layers(&inputs, report, &engine, &mut tracer, &mut outcome);
        outcome.notes.extend(tracer.summary());
    } else {
        record_end_to_end(&mut outcome, events as f64, &setup, &untraced);
    }
    outcome.notes.push(format!(
        "{}: {events} events/replay, {passes} warm replays",
        config.workload.name()
    ));
    outcome.notes.push(report.summary().replace('\n', " |"));
    outcome
}

/// Correctness: conservation per class, the memory budget, replay
/// determinism and (with telemetry) the event log's agreement with the
/// report and a valid Chrome-trace export.
fn check_replays(
    kind: ServeKind,
    inputs: &ServeInputs,
    first: &EngineReport,
    last: &EngineReport,
    engine: &ServeEngine,
    outcome: &mut Outcome,
) {
    let prefill_offered = inputs.stream.len();
    let decode_offered = inputs.trace.decode.total_steps();
    let prefill_seen = last.prefill.completed() + last.prefill.rejected.len();
    let decode_seen = last.decode.completed() + last.decode.rejected.len();
    outcome.check(prefill_seen == prefill_offered, || {
        format!("prefill: completed + rejected = {prefill_seen}, offered {prefill_offered}")
    });
    outcome.check(decode_seen == decode_offered, || {
        format!("decode: completed + rejected = {decode_seen}, offered {decode_offered}")
    });
    outcome.check(last.mem_peak_bytes <= last.mem_budget_bytes, || {
        format!(
            "memory peak {} exceeds budget {}",
            last.mem_peak_bytes, last.mem_budget_bytes
        )
    });
    outcome.check(first == last, || {
        "two warm replays gave different reports".into()
    });
    if kind == ServeKind::Overload {
        let Some(telemetry) = engine.telemetry() else {
            outcome.failures.push("telemetry was not recorded".into());
            return;
        };
        if let Err(e) = telemetry.conservation_check() {
            outcome
                .failures
                .push(format!("telemetry conservation: {e}"));
        }
        outcome.check(telemetry.report().as_ref() == Some(last), || {
            "telemetry report differs from the engine report".into()
        });
        if let Err(e) = validate_chrome_trace(&telemetry.chrome_trace_json()) {
            outcome.failures.push(format!("chrome trace invalid: {e}"));
        }
    }
}

fn busy_fraction(report: &EngineReport) -> f64 {
    let devices = report.device_util.len().max(1) as f64;
    report
        .device_util
        .iter()
        .map(|u| u.busy_fraction(report.makespan_s))
        .sum::<f64>()
        / devices
}

fn chunk_launches(engine: &ServeEngine) -> usize {
    engine.telemetry().map_or(0, |t| {
        t.events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::LaunchDispatched {
                        key: LaunchKey::PrefillChunk(_),
                        ..
                    }
                )
            })
            .count()
    })
}

/// Mechanism guards: each serve workload must exercise the mechanisms it
/// exists for, and `serve_steady` must bypass the overload paths.
fn guard_mechanisms(
    kind: ServeKind,
    report: &EngineReport,
    engine: &ServeEngine,
    outcome: &mut Outcome,
) {
    let busy = busy_fraction(report);
    let rejected = report.rejected();
    let preemptions = report.preemptions_prefill + report.preemptions_decode;
    match kind {
        ServeKind::Steady => {
            outcome.check(rejected == 0, || {
                format!("serve_steady rejected {rejected} items")
            });
            outcome.check(preemptions == 0, || {
                format!("serve_steady preempted {preemptions} times")
            });
            outcome.check(busy < 0.7, || {
                format!("serve_steady device busy {busy:.3}, expected well below 1")
            });
            outcome.check(report.prefill.cache_misses == 0, || {
                format!(
                    "serve_steady warm replay missed the cache {} times",
                    report.prefill.cache_misses
                )
            });
        }
        ServeKind::Overload => {
            outcome.check(busy >= 0.9, || {
                format!("serve_overload device busy {busy:.3} < 0.9")
            });
            outcome.check(rejected > 0, || "serve_overload rejected nothing".into());
            outcome.check(preemptions > 0, || "serve_overload never preempted".into());
            outcome.check(chunk_launches(engine) > 0, || {
                "serve_overload dispatched no prefill chunks".into()
            });
            outcome.check(report.decode.shared_sessions > 0, || {
                "serve_overload shared no KV prefix".into()
            });
        }
    }
}

/// Per-layer counts and simulated outcomes taken from the warm report.
fn record_report(
    inputs: &ServeInputs,
    report: &EngineReport,
    engine: &ServeEngine,
    outcome: &mut Outcome,
) {
    let offered = inputs.events() as f64;
    if let Some(s) = report.prefill_latency() {
        outcome.set("serve.prefill_p50_ms", s.p50_s * 1e3);
        outcome.set("serve.prefill_p99_ms", s.p99_s * 1e3);
        outcome.set("serve.prefill_samples", s.count as f64);
    }
    if let Some(s) = report.decode_latency() {
        outcome.set("serve.decode_p50_ms", s.p50_s * 1e3);
        outcome.set("serve.decode_p99_ms", s.p99_s * 1e3);
        outcome.set("serve.decode_samples", s.count as f64);
    }
    // A rejected item never met its deadline.
    let met = report.prefill.deadline_met()
        + report
            .decode
            .outcomes
            .iter()
            .filter(|o| o.deadline_met)
            .count();
    outcome.set("serve.slo_attainment", met as f64 / offered);
    outcome.set("serve.rejected_share", report.rejected() as f64 / offered);

    let hits = report.prefill.cache_hits as f64;
    let lookups = hits + report.prefill.cache_misses as f64;
    outcome.set(
        "cache.hit_rate",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    outcome.set("cache.entries", engine.cache().len() as f64);

    outcome.set("engine.launches", report.launches as f64);
    outcome.set(
        "engine.items_per_launch",
        report.completed() as f64 / report.launches.max(1) as f64,
    );
    outcome.set("engine.chunk_launches", chunk_launches(engine) as f64);
    outcome.set("batcher.prefill_batches", report.prefill.batches as f64);
    outcome.set("engine.device_busy", busy_fraction(report));
    outcome.set(
        "engine.preemptions_prefill",
        report.preemptions_prefill as f64,
    );
    outcome.set(
        "engine.preemptions_decode",
        report.preemptions_decode as f64,
    );

    for (reason, name) in [
        (
            RejectReason::InfeasibleWorkload,
            "admission.rejected.prefill.infeasible_workload",
        ),
        (
            RejectReason::DeadlineImpossible,
            "admission.rejected.prefill.deadline_impossible",
        ),
        (
            RejectReason::QueueFull,
            "admission.rejected.prefill.queue_full",
        ),
        (
            RejectReason::MemoryPressure,
            "admission.rejected.prefill.memory_pressure",
        ),
    ] {
        let count = report
            .prefill
            .rejected
            .iter()
            .filter(|r| r.reason == reason)
            .count();
        outcome.set(name, count as f64);
    }
    for (reason, name) in [
        (
            DecodeRejectReason::InfeasibleSession,
            "admission.rejected.decode.infeasible_session",
        ),
        (
            DecodeRejectReason::KvBudgetExceeded,
            "admission.rejected.decode.kv_budget_exceeded",
        ),
        (
            DecodeRejectReason::SessionLimit,
            "admission.rejected.decode.session_limit",
        ),
        (
            DecodeRejectReason::DeadlineImpossible,
            "admission.rejected.decode.deadline_impossible",
        ),
        (
            DecodeRejectReason::UnknownSession,
            "admission.rejected.decode.unknown_session",
        ),
        (
            DecodeRejectReason::KvPoolExhausted,
            "admission.rejected.decode.kv_pool_exhausted",
        ),
    ] {
        let count = report
            .decode
            .rejected
            .iter()
            .filter(|r| r.reason == reason)
            .count();
        outcome.set(name, count as f64);
    }

    outcome.set("kv.peak_blocks", report.decode.kv_peak_blocks as f64);
    outcome.set("kv.frag_at_peak", report.decode.kv_frag_at_peak);
    outcome.set("kv.pool_overflows", report.decode.pool_overflows() as f64);
    outcome.set("kv.shared_sessions", report.decode.shared_sessions as f64);
    outcome.set(
        "mem.peak_over_budget",
        report.mem_peak_bytes as f64 / report.mem_budget_bytes.max(1) as f64,
    );
    if let Some(tracks) = engine.track_stats() {
        let overlap: u64 = tracks.iter().map(|t| t.overlap_launches).sum();
        let total: u64 = tracks
            .iter()
            .map(|t| t.overlap_launches + t.scalar_launches)
            .sum();
        outcome.set(
            "tracks.overlap_commit_share",
            overlap as f64 / total.max(1) as f64,
        );
    }
    if let Some(telemetry) = engine.telemetry() {
        outcome.set("telemetry.events", telemetry.events().len() as f64);
    }
}

/// The decode steps the warm replay completed, as closed-form cost-model
/// inputs.
fn completed_steps(inputs: &ServeInputs, report: &EngineReport) -> Vec<DecodeStep> {
    let sessions = &inputs.trace.decode.sessions;
    report
        .decode
        .outcomes
        .iter()
        .filter_map(|o| {
            // Session ids are their indices in the generated trace.
            let spec = sessions
                .get(usize::try_from(o.session_id).ok()?)
                .filter(|s| s.id == o.session_id)?;
            Some(
                DecodeStep::new("step", 1, spec.heads, o.context_len, spec.embed)
                    .with_kv_heads(spec.kv_heads),
            )
        })
        .collect()
}

/// Timed calls into the layers around the engine: planner, schedule cache,
/// closed-form cost models, telemetry exporters and latency summaries.
fn probe_layers(
    inputs: &ServeInputs,
    report: &EngineReport,
    engine: &ServeEngine,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) {
    // Cold planning of every unique prefill key, as a cache miss pays it.
    let planner = Planner::new(engine.config().planner.clone());
    let keys: Vec<_> = engine.cache().entries().map(|(k, _)| *k).collect();
    for key in &keys {
        let workload = AttentionWorkload::new("key", key.batch, key.heads, key.seq_len, key.embed);
        let result = tracer.span("planner.plan", |_| {
            let plan = planner.plan(key.method, &workload);
            planner.execute(&plan, &workload)
        });
        if let Err(e) = result {
            outcome.failures.push(format!("cold planning failed: {e}"));
        }
    }
    outcome.set("planner.plan_ms", tracer.mean_self_s("planner.plan") * 1e3);
    outcome.set("planner.unique_keys", keys.len() as f64);

    let cache = engine.cache();
    for _ in 0..PROBE_REPEATS {
        let text = tracer.span("cache.to_text", |_| cache.to_text());
        let parsed = tracer.span("cache.from_text", |_| ScheduleCache::from_text(&text));
        let mut merged = ScheduleCache::new();
        match parsed {
            Ok(parsed) => {
                tracer.span("cache.merge", |_| merged.merge(&parsed));
                outcome.check(merged == *cache, || "cache text round trip differs".into());
            }
            Err(e) => outcome.failures.push(format!("cache parse failed: {e}")),
        }
    }
    outcome.set(
        "cache.to_text_us",
        tracer.mean_self_s("cache.to_text") * 1e6,
    );
    outcome.set(
        "cache.from_text_us",
        tracer.mean_self_s("cache.from_text") * 1e6,
    );
    outcome.set("cache.merge_us", tracer.mean_self_s("cache.merge") * 1e6);

    let hw = HardwareConfig::edge_default();
    let kv_bytes = engine.config().decode.kv_element_bytes(&hw);
    let stages = engine.config().tracks.unwrap_or_default().stages;
    let steps = completed_steps(inputs, report);
    if !steps.is_empty() {
        let per_step = |total_s: f64| total_s * 1e9 / (steps.len() * PROBE_REPEATS) as f64;
        for _ in 0..PROBE_REPEATS {
            tracer.span("dataflow.stream_demand", |_| {
                for step in &steps {
                    black_box(
                        StreamDemand::of_decode_step_with_kv(step, &hw, kv_bytes)
                            .bound_seconds(&hw),
                    );
                }
            });
            tracer.span("dataflow.track_demand", |_| {
                for step in &steps {
                    let demand = TrackDemand::of_decode_step_with_kv(step, &hw, kv_bytes);
                    black_box(demand.split_stages(stages));
                }
            });
        }
        outcome.set(
            "dataflow.stream_demand_ns",
            per_step(tracer.total_self_s("dataflow.stream_demand")),
        );
        outcome.set(
            "dataflow.track_demand_ns",
            per_step(tracer.total_self_s("dataflow.track_demand")),
        );
    }

    let prefill: Vec<f64> = report
        .prefill
        .outcomes
        .iter()
        .map(|o| o.latency_s())
        .collect();
    let decode: Vec<f64> = report
        .decode
        .outcomes
        .iter()
        .map(|o| o.latency_s())
        .collect();
    for _ in 0..PROBE_REPEATS {
        for latencies in [&prefill, &decode] {
            black_box(tracer.span("metrics.latency_stats", |_| LatencyStats::of(latencies)));
        }
    }
    outcome.set(
        "metrics.latency_stats_us",
        tracer.mean_self_s("metrics.latency_stats") * 1e6,
    );

    if let Some(telemetry) = engine.telemetry() {
        let mut chrome_bytes = 0usize;
        for _ in 0..3 {
            black_box(tracer.span("telemetry.report", |_| telemetry.report()));
            chrome_bytes += tracer.span("telemetry.chrome_trace_json", |_| {
                telemetry.chrome_trace_json().len()
            });
            black_box(tracer.span("telemetry.prometheus_text", |_| telemetry.prometheus_text()));
        }
        outcome.set(
            "telemetry.report_ms",
            tracer.mean_self_s("telemetry.report") * 1e3,
        );
        outcome.set(
            "telemetry.chrome_mb_per_s",
            chrome_bytes as f64 / 1e6 / tracer.total_self_s("telemetry.chrome_trace_json"),
        );
        outcome.set(
            "telemetry.prometheus_ms",
            tracer.mean_self_s("telemetry.prometheus_text") * 1e3,
        );
    }
}
