//! The metric catalogue and the result every run prints.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units
//! (a test keeps the two in step). Every workload prints every metric of
//! the mode it runs in: the end-to-end metrics without tracing, the
//! per-layer metrics with it. A per-layer metric of a layer the workload
//! never calls reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Each is measured on every workload;
/// README.md gives its meaning per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("norm_items_per_s", "1/s"),
];

/// Per-layer metrics from the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Tracing overhead: the workload's throughput without and with spans.
    ("trace.items_per_s_untraced", "1/s"),
    ("trace.items_per_s_traced", "1/s"),
    ("host.calibration_ms", "ms"),
    // Simulated serving outcome (serve_*).
    ("serve.prefill_p50_ms", "ms"),
    ("serve.prefill_p99_ms", "ms"),
    ("serve.prefill_samples", "count"),
    ("serve.decode_p50_ms", "ms"),
    ("serve.decode_p99_ms", "ms"),
    ("serve.decode_samples", "count"),
    ("serve.slo_attainment", "fraction"),
    ("serve.rejected_share", "fraction"),
    // mas_workloads, mas_attention planner, mas_serve schedule cache.
    ("workloads.trace_gen_ms", "ms"),
    ("planner.plan_ms", "ms"),
    ("planner.unique_keys", "count"),
    ("cache.hit_rate", "fraction"),
    ("cache.entries", "count"),
    ("cache.to_text_us", "us"),
    ("cache.from_text_us", "us"),
    ("cache.merge_us", "us"),
    // mas_serve engine, batcher and admission.
    ("engine.run_ms", "ms"),
    ("engine.ns_per_event", "ns"),
    ("engine.launches", "count"),
    ("engine.items_per_launch", "count"),
    ("engine.chunk_launches", "count"),
    ("batcher.prefill_batches", "count"),
    ("engine.device_busy", "fraction"),
    ("engine.preemptions_prefill", "count"),
    ("engine.preemptions_decode", "count"),
    ("admission.rejected.prefill.infeasible_workload", "count"),
    ("admission.rejected.prefill.deadline_impossible", "count"),
    ("admission.rejected.prefill.queue_full", "count"),
    ("admission.rejected.prefill.memory_pressure", "count"),
    ("admission.rejected.decode.infeasible_session", "count"),
    ("admission.rejected.decode.kv_budget_exceeded", "count"),
    ("admission.rejected.decode.session_limit", "count"),
    ("admission.rejected.decode.deadline_impossible", "count"),
    ("admission.rejected.decode.unknown_session", "count"),
    ("admission.rejected.decode.kv_pool_exhausted", "count"),
    // KV ledger and shared memory budget.
    ("kv.peak_blocks", "count"),
    ("kv.frag_at_peak", "fraction"),
    ("kv.pool_overflows", "count"),
    ("kv.shared_sessions", "count"),
    ("mem.peak_over_budget", "fraction"),
    // Closed-form cost models (mas_dataflow) and the track executor.
    ("dataflow.stream_demand_ns", "ns"),
    ("dataflow.track_demand_ns", "ns"),
    ("tracks.overlap_commit_share", "fraction"),
    // Telemetry and metrics helpers (mas_serve).
    ("telemetry.events", "count"),
    ("telemetry.report_ms", "ms"),
    ("telemetry.chrome_mb_per_s", "MB/s"),
    ("telemetry.prometheus_ms", "ms"),
    ("metrics.latency_stats_us", "us"),
    // Planning, simulation and search (plan_tune).
    ("plan.tune_s", "s"),
    ("plan.tuned_mcycles_geomean", "Mcycles"),
    ("dataflow.build_us", "us"),
    ("sim.executor_run_us", "us"),
    ("sim.tasks_per_s", "1/s"),
    ("search.evaluations", "count"),
    ("search.evals_per_s", "1/s"),
    ("search.improvement_over_naive", "x"),
    ("dataflow.model_rel_err_max", "fraction"),
    // Numeric kernels (mas_tensor).
    ("kernels.decode_tokens_per_s", "1/s"),
    ("kernels.prefill_tokens_per_s", "1/s"),
    ("simd.dot_many_gflops", "GFLOP/s"),
    ("tensor.decode_step_us.64.contiguous.f32", "us"),
    ("tensor.decode_step_us.64.paged.f16", "us"),
    ("tensor.decode_step_us.256.contiguous.f32", "us"),
    ("tensor.decode_step_us.256.paged.f16", "us"),
    ("tensor.decode_step_us.1024.contiguous.f32", "us"),
    ("tensor.decode_step_us.1024.paged.f16", "us"),
    ("tensor.tiled_attention_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations the run attempted (workload-specific unit, see README).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Descriptions of the correctness checks and guards that failed.
    pub failures: Vec<String>,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue (a bug in the benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// The recorded value of a metric, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a correctness check or mechanism guard; a failed one fails
    /// the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every check passed and every operation succeeded.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The one-line result: `correct`, `attempted`, `failed` and every
    /// metric of the mode (`per_layer` selects the traced catalogue).
    /// Per-layer metrics the workload did not record read 0; a missing or
    /// non-finite end-to-end metric fails the result.
    #[must_use]
    pub fn result_json(&self, per_layer: bool) -> String {
        let catalogue = if per_layer { PER_LAYER } else { END_TO_END };
        let mut correct = self.correct();
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match self.get(name) {
                    Some(v) if v.is_finite() => v,
                    Some(_) => {
                        correct = false;
                        0.0
                    }
                    None => {
                        correct &= per_layer;
                        0.0
                    }
                };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A one-line summary of per-pass wall times: count, min, lower quartile,
/// median and max.
#[must_use]
pub fn pass_summary(label: &str, times: &[f64]) -> String {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize] * 1e3;
    format!(
        "{label} passes: n={} min={:.3} ms p10={:.3} ms p25={:.3} ms median={:.3} ms max={:.3} ms",
        sorted.len(),
        at(0.0),
        at(0.1),
        at(0.25),
        median(times) * 1e3,
        at(1.0)
    )
}

/// Geometric mean of positive values (1 for an empty sample).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The process's resident-memory high-water mark in MB (10⁶ bytes), from
/// `/proc/self/status` (`VmHWM`); `None` where that file is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_fills_unrecorded_per_layer_metrics_with_zero() {
        let mut outcome = Outcome::default();
        outcome.set("engine.launches", 3.0);
        let json = outcome.result_json(true);
        assert!(json.contains("\"engine.launches\": {\"value\": 3.0, \"unit\": \"count\"}"));
        assert!(json.contains("\"plan.tune_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(json.starts_with("{\"correct\": true"));
    }

    #[test]
    fn missing_end_to_end_metric_is_incorrect() {
        let outcome = Outcome::default();
        assert!(outcome
            .result_json(false)
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
