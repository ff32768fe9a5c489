//! Replays a generated request trace through the `mas-serve` engine and
//! reports per-network and aggregate serving metrics.
//!
//! ```text
//! serve_trace [--requests N] [--rate RPS] [--seed S] [--burst LEN]
//!             [--deadline-ms MS] [--devices N] [--search]
//!             [--mixed] [--sessions N] [--session-rate RPS]
//!             [--policy decode|prefill|fair] [--kv-dtype f32|f16]
//!             [--prefix-share] [--chunked-prefill TOKENS]
//!             [--preempt hold|recompute] [--tracks]
//!             [--load-cache PATH]... [--save-cache PATH] [--json]
//!             [--trace-out PATH] [--metrics-out PATH]
//! ```
//!
//! `--load-cache` may repeat: the caches merge (commutatively) before the
//! replay, which is how sharded tuning sweeps combine. `--save-cache`
//! persists the post-replay cache for the next shard or process.
//!
//! `--trace-out` / `--metrics-out` enable structured telemetry recording
//! (`mas_serve::telemetry`) and export the replay as Chrome trace-event
//! JSON (open in Perfetto / `chrome://tracing`) and a Prometheus text
//! snapshot respectively. The Chrome trace is validated before writing,
//! and the recorded log's event count and encoded size are printed.
//!
//! Every replay runs through `ServeEngine` with its default shared memory
//! budget. `--mixed` interleaves `--sessions` autoregressive decode sessions
//! with the prefill trace on the same device timeline (`--policy` selects
//! the iteration-level scheduling policy), reporting per-class latency plus
//! the shared-budget peak.
//!
//! `--prefix-share` (with `--mixed`) prepends a 64-token shared system
//! prompt to every session of a network and enables cross-session KV
//! prefix sharing: the shared prefix blocks are charged against the budget
//! once per group, and the report's decode detail shows the sharing peak.
//!
//! `--chunked-prefill TOKENS` lowers long prefill batches
//! into chains of TOKENS-sized chunk launches, and `--preempt` enables
//! iteration-level preemption (`hold` keeps an evicted session's KV
//! swap-resident, `recompute` re-prices it on resume); together they bound
//! decode tail latency under prefill overload, with preemption counters in
//! the `--json` report.
//!
//! `--tracks` enables the overlap-aware track executor:
//! each launch lowers into per-stage DMA-in/MAC/VEC/writeback demands
//! flow-shop scheduled on four per-device queues, committing the overlapped
//! placement whenever it strictly beats the scalar span. With `--trace-out`
//! the Chrome trace gains one thread row per track, with overlap-committed
//! launches' stage spans on those rows; `trace_check` validates each row
//! individually.

use mas_attention::planner::{PlannerConfig, TilingStrategy};
use mas_dataflow::DataflowKind;
use mas_search::tuner::TunerConfig;
use mas_serve::{
    validate_chrome_trace, ChunkPolicy, EngineConfig, EngineReport, KvDtype, PreemptMode,
    ScheduleCache, SchedulePolicy, ServeEngine, ServeReport, ServeRequest, Telemetry,
    TelemetryConfig, TrackConfig,
};
use mas_workloads::{
    decode_trace, request_trace, DecodeTrace, DecodeTraceConfig, Network, TraceConfig,
    MIXED_DECODE_SEED_SALT,
};

struct Args {
    requests: usize,
    rate_rps: f64,
    seed: u64,
    burst: Option<usize>,
    deadline_ms: Option<f64>,
    devices: usize,
    search: bool,
    mixed: bool,
    sessions: usize,
    session_rate_rps: f64,
    policy: SchedulePolicy,
    kv_dtype: Option<KvDtype>,
    prefix_share: bool,
    chunked_prefill: Option<usize>,
    preempt: Option<PreemptMode>,
    tracks: bool,
    load_caches: Vec<String>,
    save_cache: Option<String>,
    json: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

impl Args {
    /// Telemetry recording is enabled exactly when an exporter needs it.
    fn telemetry(&self) -> Option<TelemetryConfig> {
        (self.trace_out.is_some() || self.metrics_out.is_some()).then(TelemetryConfig::default)
    }
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let value = |flag: &str| -> Option<String> {
        argv.iter().position(|a| a == flag).map(|i| {
            argv.get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .unwrap_or_else(|| panic!("{flag} requires a value"))
                .clone()
        })
    };
    // A present-but-unparseable value is an error, never a silent default:
    // this binary's output is recorded as experiment evidence.
    fn parsed<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Option<T> {
        v.map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag}: cannot parse {v:?}"))
        })
    }
    let values = |flag: &str| -> Vec<String> {
        argv.iter()
            .enumerate()
            .filter(|(_, a)| a.as_str() == flag)
            .map(|(i, _)| {
                argv.get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .unwrap_or_else(|| panic!("{flag} requires a value"))
                    .clone()
            })
            .collect()
    };
    Args {
        requests: parsed("--requests", value("--requests")).unwrap_or(200),
        rate_rps: parsed("--rate", value("--rate")).unwrap_or(2000.0),
        seed: parsed("--seed", value("--seed")).unwrap_or(42),
        burst: parsed("--burst", value("--burst")),
        deadline_ms: parsed("--deadline-ms", value("--deadline-ms")),
        devices: parsed("--devices", value("--devices")).unwrap_or(1),
        search: argv.iter().any(|a| a == "--search"),
        mixed: argv.iter().any(|a| a == "--mixed"),
        sessions: parsed("--sessions", value("--sessions")).unwrap_or(16),
        session_rate_rps: parsed("--session-rate", value("--session-rate")).unwrap_or(200.0),
        policy: match value("--policy").as_deref() {
            None | Some("fair") => SchedulePolicy::FairShare,
            Some("decode") => SchedulePolicy::DecodePriority,
            Some("prefill") => SchedulePolicy::PrefillPriority,
            Some(other) => panic!("--policy: expected decode|prefill|fair, got {other:?}"),
        },
        kv_dtype: value("--kv-dtype").map(|v| {
            KvDtype::parse(&v).unwrap_or_else(|| panic!("--kv-dtype: expected f32|f16, got {v:?}"))
        }),
        prefix_share: argv.iter().any(|a| a == "--prefix-share"),
        chunked_prefill: parsed("--chunked-prefill", value("--chunked-prefill")),
        preempt: value("--preempt").map(|v| {
            v.parse()
                .unwrap_or_else(|e: String| panic!("--preempt: {e}"))
        }),
        tracks: argv.iter().any(|a| a == "--tracks"),
        load_caches: values("--load-cache"),
        save_cache: value("--save-cache"),
        json: argv.iter().any(|a| a == "--json"),
        trace_out: value("--trace-out"),
        metrics_out: value("--metrics-out"),
    }
}

/// Writes the requested telemetry exports. The Chrome trace is validated
/// (well-formed JSON, no overlapping spans per thread row) before it is
/// written — an invalid export is a bug, not an artifact.
fn export_telemetry(telemetry: Option<&Telemetry>, args: &Args) {
    if args.trace_out.is_none() && args.metrics_out.is_none() {
        return;
    }
    let telemetry = telemetry.expect("telemetry was enabled for export");
    println!(
        "event log: {} events in {} bytes",
        telemetry.len(),
        telemetry.encoded_bytes()
    );
    if let Some(path) = &args.trace_out {
        let json = telemetry.chrome_trace_json();
        let stats = validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("generated Chrome trace is invalid: {e}"));
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!(
            "wrote Chrome trace to {path} ({} spans, {} counter samples, {} instants)",
            stats.spans, stats.counters, stats.instants
        );
    }
    if let Some(path) = &args.metrics_out {
        let text = telemetry.prometheus_text();
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!(
            "wrote Prometheus snapshot to {path} ({} lines)",
            text.lines().count()
        );
    }
}

fn main() {
    let args = parse_args();
    let networks = vec![Network::BertSmall, Network::VitB16, Network::T5Mini];
    let trace_cfg = match args.burst {
        Some(len) => TraceConfig::bursty(
            networks.clone(),
            args.requests,
            args.rate_rps,
            len,
            args.seed,
        ),
        None => TraceConfig::poisson(networks.clone(), args.requests, args.rate_rps, args.seed),
    };
    let trace = request_trace(&trace_cfg);
    let stream = ServeRequest::stream_from_trace(
        &trace,
        DataflowKind::MasAttention,
        args.deadline_ms.map(|ms| ms / 1e3),
    );

    let mut config = EngineConfig {
        devices: args.devices,
        policy: args.policy,
        telemetry: args.telemetry(),
        chunked_prefill: args.chunked_prefill.map(ChunkPolicy::new),
        preempt: args.preempt,
        tracks: args.tracks.then(TrackConfig::default),
        ..EngineConfig::default()
    };
    config.decode.kv_dtype = args.kv_dtype;
    config.decode.prefix_share = args.prefix_share;
    if args.search {
        config.planner = PlannerConfig {
            tiling: TilingStrategy::Search,
            tuner: TunerConfig::quick(),
            ..PlannerConfig::default()
        };
    }

    let mut cache = ScheduleCache::new();
    for path in &args.load_caches {
        let shard =
            ScheduleCache::load(path).unwrap_or_else(|e| panic!("loading cache {path}: {e}"));
        println!("loaded cache {path}: {} entries", shard.len());
        cache.merge(&shard);
    }
    let warm_entries = cache.len();

    let dtrace = if args.mixed {
        let mut dconfig = DecodeTraceConfig::poisson(
            networks,
            args.sessions,
            args.session_rate_rps,
            args.seed ^ MIXED_DECODE_SEED_SALT,
        );
        if args.prefix_share {
            // A 64-token shared system prompt per network, with pool-level
            // prefix sharing enabled above. Arrival times and shapes are
            // identical to the unshared trace at the same seed.
            dconfig = dconfig.with_system_prompt(64);
        }
        decode_trace(&dconfig)
    } else {
        DecodeTrace::empty()
    };

    let mut engine = ServeEngine::with_cache(config, cache);
    let wall_start = std::time::Instant::now();
    let report = engine
        .run(&stream, &dtrace)
        .unwrap_or_else(|e| panic!("replaying the trace failed: {e}"));
    let wall = wall_start.elapsed();
    let final_entries = engine.cache().len();

    if args.mixed {
        print_mixed(&args, &dtrace, &report, warm_entries, final_entries);
        println!(
            "host planning wall-clock: {:.1} ms for {} mixed events",
            wall.as_secs_f64() * 1e3,
            stream.len() + dtrace.total_steps(),
        );
        if args.json {
            println!("{}", mixed_report_json(&report));
        }
    } else {
        print_report(
            &args,
            &trace_cfg,
            &report.prefill,
            warm_entries,
            final_entries,
        );
        println!(
            "host planning wall-clock: {:.1} ms for {} requests ({:.1} req/s offered)",
            wall.as_secs_f64() * 1e3,
            args.requests,
            args.rate_rps
        );
        if args.json {
            println!("{}", report_json(&report.prefill));
        }
    }
    export_telemetry(engine.telemetry(), &args);
    if let Some(path) = &args.save_cache {
        engine
            .cache()
            .save(path)
            .unwrap_or_else(|e| panic!("saving cache {path}: {e}"));
        println!("saved cache to {path} ({final_entries} entries)");
    }
}

/// The `--mixed` human-readable report: both classes on one timeline.
fn print_mixed(
    args: &Args,
    dtrace: &DecodeTrace,
    report: &EngineReport,
    warm_entries: usize,
    final_entries: usize,
) {
    println!("# mas-serve mixed trace replay (unified engine)");
    println!(
        "trace: {} prefill requests + {} decode sessions ({} steps), seed {}",
        args.requests,
        args.sessions,
        dtrace.total_steps(),
        args.seed
    );
    println!(
        "runtime: {} device(s), policy {}, kv dtype {}, prefix sharing {}, \
         chunked prefill {}, preemption {}, track overlap {}, \
         cache warm entries {} -> final {}",
        args.devices.max(1),
        args.policy,
        args.kv_dtype
            .map_or("device default".to_string(), |d| d.to_string()),
        if args.prefix_share { "on" } else { "off" },
        args.chunked_prefill
            .map_or("off".to_string(), |t| format!("{t} tokens")),
        args.preempt.map_or("off".to_string(), |m| m.to_string()),
        if args.tracks { "on" } else { "off" },
        warm_entries,
        final_entries,
    );
    println!("{}", report.summary());
    println!("  prefill detail: {}", report.prefill.summary());
    println!("  decode detail:  {}", report.decode.summary());
}

/// The `--mixed --json` record: per-class latency plus shared figures.
fn mixed_report_json(report: &EngineReport) -> String {
    let fmt_ms = |s: Option<mas_serve::LatencyStats>| {
        s.map_or((0.0, 0.0), |s| (s.p50_s * 1e3, s.p99_s * 1e3))
    };
    let (pf_p50, pf_p99) = fmt_ms(report.prefill_latency());
    let (dc_p50, dc_p99) = fmt_ms(report.decode_latency());
    format!(
        "{{\"policy\":\"{}\",\"prefill_completed\":{},\"decode_completed\":{},\
         \"rejected\":{},\"launches\":{},\"makespan_s\":{:.9},\
         \"prefill_p50_ms\":{pf_p50:.6},\"prefill_p99_ms\":{pf_p99:.6},\
         \"decode_p50_ms\":{dc_p50:.6},\"decode_p99_ms\":{dc_p99:.6},\
         \"mem_budget_bytes\":{},\"mem_peak_bytes\":{},\
         \"shared_sessions\":{},\"kv_shared_peak_bytes\":{},\
         \"preempted_prefill\":{},\"preempted_decode\":{}}}",
        report.policy,
        report.prefill.completed(),
        report.decode.completed(),
        report.rejected(),
        report.launches,
        report.makespan_s,
        report.mem_budget_bytes,
        report.mem_peak_bytes,
        report.decode.shared_sessions,
        report.decode.kv_shared_peak_bytes,
        report.preemptions_prefill,
        report.preemptions_decode,
    )
}

fn print_report(
    args: &Args,
    trace_cfg: &TraceConfig,
    report: &ServeReport,
    warm_entries: usize,
    final_entries: usize,
) {
    println!("# mas-serve trace replay");
    println!(
        "trace: {} requests, {:?}, seed {}",
        args.requests, trace_cfg.arrivals, args.seed
    );
    println!(
        "runtime: {} device(s), {} tiling, cache warm entries {} -> final {}",
        args.devices.max(1),
        if args.search { "search" } else { "heuristic" },
        warm_entries,
        final_entries,
    );
    println!("{}", report.summary());

    // Per-network rollup.
    let mut names: Vec<&str> = report
        .outcomes
        .iter()
        .map(|o| o.workload.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    println!(
        "| {:<24} | {:>5} | {:>10} | {:>10} | {:>7} |",
        "network", "reqs", "p50 ms", "max ms", "misses"
    );
    for name in names {
        let latencies: Vec<f64> = report
            .outcomes
            .iter()
            .filter(|o| o.workload == name)
            .map(|o| o.latency_s())
            .collect();
        let missed = report
            .outcomes
            .iter()
            .filter(|o| o.workload == name && !o.deadline_met)
            .count();
        println!(
            "| {:<24} | {:>5} | {:>10.3} | {:>10.3} | {:>7} |",
            name,
            latencies.len(),
            mas_serve::percentile(&latencies, 50.0).expect("non-empty group") * 1e3,
            mas_serve::percentile(&latencies, 100.0).expect("non-empty group") * 1e3,
            missed,
        );
    }
}

fn report_json(report: &ServeReport) -> String {
    format!(
        "{{\"completed\":{},\"rejected\":{},\"batches\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"throughput_rps\":{:.3},\"p50_ms\":{:.6},\"p99_ms\":{:.6},\"deadline_missed\":{},\
         \"makespan_s\":{:.9},\"total_energy_pj\":{:.3}}}",
        report.completed(),
        report.rejected.len(),
        report.batches,
        report.cache_hits,
        report.cache_misses,
        report.throughput_rps(),
        report.p50_latency_s().unwrap_or(0.0) * 1e3,
        report.p99_latency_s().unwrap_or(0.0) * 1e3,
        report.deadline_missed(),
        report.makespan_s,
        report.total_energy_pj,
    )
}
