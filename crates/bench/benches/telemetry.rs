//! Telemetry overhead and fidelity on the mixed contention trace.
//!
//! The observability acceptance criterion is pinned from both ends
//! (mirroring the module-docs overhead contract in `mas_serve::telemetry`):
//!
//! * **End-to-end ≤ 5%** — a cold contention-scenario replay (engine
//!   construction, planning, replay: the serving cost a user actually
//!   pays) with recording on stays within 5% of recording off.
//! * **Marginal per-event bound** — on a warm engine, where the schedule
//!   cache removes all planning and the pure replay loop is the whole
//!   measurement, the *absolute* recording cost stays under a per-event
//!   nanosecond budget. A ratio would be meaningless here (the baseline is
//!   a few tens of microseconds), but the absolute bound catches a bloated
//!   record or a lost `reserve` immediately.
//!
//! The recorded run is also checked for fidelity: the event-reconstructed
//! report must equal the engine report exactly and the Chrome trace export
//! must validate.

use mas_dataflow::DataflowKind;
use mas_serve::{
    validate_chrome_trace, EngineConfig, SchedulePolicy, ServeEngine, ServeRequest, TelemetryConfig,
};
use mas_workloads::{DecodeSessionSpec, DecodeStepEvent, DecodeTrace, Network};

/// The deterministic contention scenario (the policy scenario of
/// `crates/serve/tests/engine_mixed.rs`): 12 lockstep long-context decode
/// sessions and 6-request prefill bursts contending for one device at
/// every tick.
fn contention_scenario() -> (Vec<ServeRequest>, DecodeTrace) {
    let sessions = 12u64;
    let steps = 30usize;
    let specs: Vec<DecodeSessionSpec> = (0..sessions)
        .map(|id| DecodeSessionSpec {
            id,
            network: Network::BertSmall,
            start_s: 0.0,
            heads: 8,
            kv_heads: 8,
            embed: 64,
            prompt_len: 2000,
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
                arrival_s: step_index as f64 * 0.01 + 1e-9,
            });
        }
    }
    let decode = DecodeTrace {
        sessions: specs,
        steps: events,
    };
    let workload = Network::BertSmall.attention_workload(1);
    let mut prefill = Vec::new();
    for k in 0..29usize {
        for j in 0..6usize {
            prefill.push(ServeRequest::new(
                (k * 6 + j) as u64,
                0.001 + k as f64 * 0.01,
                DataflowKind::MasAttention,
                workload.clone(),
                None,
            ));
        }
    }
    (prefill, decode)
}

fn engine(telemetry: Option<TelemetryConfig>) -> ServeEngine {
    ServeEngine::new(EngineConfig {
        policy: SchedulePolicy::FairShare,
        telemetry,
        ..EngineConfig::default()
    })
}

/// Fidelity of one recorded run: the event log alone must rebuild the
/// engine report bit-for-bit, conserve every arrival, keep each track
/// monotone, and export a valid Chrome trace. Returns the event count.
fn check_fidelity(prefill: &[ServeRequest], decode: &DecodeTrace) -> usize {
    let mut on = engine(Some(TelemetryConfig::default()));
    let report = on.run(prefill, decode).expect("recorded replay");
    let baseline = engine(None).run(prefill, decode).expect("plain replay");
    assert_eq!(baseline, report, "recording must not perturb results");

    let telemetry = on.telemetry().expect("recording enabled");
    let rebuilt = telemetry.report().expect("complete event log");
    assert_eq!(
        rebuilt, report,
        "event-reconstructed report must equal the engine report exactly"
    );
    telemetry.conservation_check().expect("conserved");
    telemetry.tracks_monotone().expect("monotone");
    validate_chrome_trace(&telemetry.chrome_trace_json()).expect("valid Chrome trace");
    telemetry.len()
}

/// Interleaved min-of-N measurement of both overhead bounds. Min-of-N is
/// robust to scheduler noise: the minimum is the intrinsic cost, which is
/// what the contract bounds.
fn main() {
    let (prefill, decode) = contention_scenario();
    let events = check_fidelity(&prefill, &decode);

    // End-to-end bound: cold engine per round (construction + planning +
    // replay — what `serve_trace --trace-out` pays on a fresh process).
    // Adaptive round count: each 0.22–0.46 ms cold round (2-vCPU AVX2
    // host) sees scheduler jitter on a shared CI runner, and both minima only
    // tighten with more rounds — so keep interleaving until the ratio is
    // comfortably inside budget (or the cap is hit, at which point the
    // overhead is real).
    const COLD_MIN_ROUNDS: usize = 12;
    const COLD_MAX_ROUNDS: usize = 96;
    let mut cold_off = f64::INFINITY;
    let mut cold_on = f64::INFINITY;
    let mut cold_overhead = f64::INFINITY;
    for round in 0..COLD_MAX_ROUNDS {
        let t = std::time::Instant::now();
        engine(None).run(&prefill, &decode).expect("plain replay");
        cold_off = cold_off.min(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        engine(Some(TelemetryConfig::default()))
            .run(&prefill, &decode)
            .expect("recorded replay");
        cold_on = cold_on.min(t.elapsed().as_secs_f64());
        cold_overhead = cold_on / cold_off - 1.0;
        if round + 1 >= COLD_MIN_ROUNDS && cold_overhead <= 0.03 {
            break;
        }
    }

    // Marginal bound: warm engines, pure replay loop, absolute ns/event.
    const WARM_ROUNDS: usize = 40;
    let mut off = engine(None);
    let mut on = engine(Some(TelemetryConfig::default()));
    off.run(&prefill, &decode).expect("prime");
    on.run(&prefill, &decode).expect("prime");
    let mut warm_off = f64::INFINITY;
    let mut warm_on = f64::INFINITY;
    for _ in 0..WARM_ROUNDS {
        let t = std::time::Instant::now();
        off.run(&prefill, &decode).expect("plain replay");
        warm_off = warm_off.min(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        on.run(&prefill, &decode).expect("recorded replay");
        warm_on = warm_on.min(t.elapsed().as_secs_f64());
    }
    let ns_per_event = (warm_on - warm_off).max(0.0) * 1e9 / events as f64;

    println!(
        "\ntelemetry overhead on the mixed contention trace ({events} events/run):\n\
         | measurement | off | on | overhead |\n|---|---|---|---|\n\
         | cold end-to-end | {:.3} ms | {:.3} ms | {:+.1}% |\n\
         | warm pure replay | {:.3} ms | {:.3} ms | {:.1} ns/event |",
        cold_off * 1e3,
        cold_on * 1e3,
        cold_overhead * 100.0,
        warm_off * 1e3,
        warm_on * 1e3,
        ns_per_event,
    );
    assert!(
        cold_overhead <= 0.05,
        "end-to-end recording overhead {:.1}% exceeds the 5% budget \
         (off {:.3} ms, on {:.3} ms)",
        cold_overhead * 100.0,
        cold_off * 1e3,
        cold_on * 1e3,
    );
    // 6–13 ns/event measured (2-vCPU AVX2 host); 60 allows CI-runner noise
    // while still catching a bloated record or a lost buffer reservation.
    assert!(
        ns_per_event <= 60.0,
        "marginal recording cost {ns_per_event:.1} ns/event exceeds the 60 ns budget \
         (warm off {:.3} ms, on {:.3} ms)",
        warm_off * 1e3,
        warm_on * 1e3,
    );
}
