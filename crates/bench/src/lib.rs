//! Shared harness code for the experiment binaries and the bench gates.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it. The binaries share the table-formatting and
//! experiment-running helpers in this module. The host-timed gates in
//! `benches/` (plain `fn main()` targets run by `cargo bench -p mas-bench`)
//! share [`time_per_call`]; gates on simulated time or counts are tests.
//!
//! All binaries accept:
//!
//! * `--search` — tune tilings with the MCTS + GA pipeline instead of the
//!   heuristic tiling (slower, closer to the paper's methodology),
//! * `--json`   — additionally print machine-readable JSON records.

use std::time::{Duration, Instant};

use mas_attention::{report::ComparisonReport, Method, Planner};
use mas_dataflow::AttentionWorkload;
use mas_search::tuner::TunerConfig;
use mas_serve::telemetry::escape_json;
use mas_workloads::Network;

/// Command-line options shared by the experiment binaries.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Use the MCTS + GA search instead of the heuristic tiling.
    pub search: bool,
    /// Emit JSON records after the human-readable tables.
    pub json: bool,
}

impl Options {
    /// Parses options from `std::env::args`.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self {
            search: args.iter().any(|a| a == "--search"),
            json: args.iter().any(|a| a == "--json"),
        }
    }

    /// Builds the planner corresponding to these options.
    #[must_use]
    pub fn planner(&self) -> Planner {
        if self.search {
            Planner::with_search(TunerConfig::quick())
        } else {
            Planner::edge_default()
        }
    }
}

/// The Table 1 networks with their attention workloads (batch 1).
#[must_use]
pub fn table1_workloads() -> Vec<(Network, AttentionWorkload)> {
    Network::all()
        .into_iter()
        .map(|n| (n, n.attention_workload(1)))
        .collect()
}

/// Runs the full method comparison for every Table 1 network.
///
/// # Panics
///
/// Panics if any simulation fails (the Table 1 workloads always fit the
/// default edge device).
#[must_use]
pub fn compare_all_networks(planner: &Planner) -> Vec<(Network, ComparisonReport)> {
    table1_workloads()
        .into_iter()
        .map(|(net, w)| {
            let report = planner
                .compare_all(&w)
                .unwrap_or_else(|e| panic!("simulating {net} failed: {e}"));
            (net, report)
        })
        .collect()
}

/// Formats a cycles value in millions, like the paper's Table 2.
#[must_use]
pub fn fmt_mcycles(cycles: u64) -> String {
    format!("{:.3}", cycles as f64 / 1e6)
}

/// Formats an energy value in 10⁹ pJ, like the paper's Table 3.
#[must_use]
pub fn fmt_gpj(pj: f64) -> String {
    format!("{:.3}", pj / 1e9)
}

/// Formats a ratio with two decimals and a trailing `x`.
#[must_use]
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Formats a fraction as a signed percentage.
#[must_use]
pub fn fmt_pct(f: f64) -> String {
    format!("{:.2}%", f * 100.0)
}

/// Prints a Markdown-style table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let row: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("| {} |", row.join(" | "));
}

/// Formats one network's comparison report as a single-line JSON record
/// (hand-rolled: the offline build vendors a marker-only serde shim, so
/// machine-readable output is emitted directly from the typed report).
#[must_use]
pub fn report_json(network: &str, report: &ComparisonReport) -> String {
    let mut cycles = Vec::new();
    let mut energy = Vec::new();
    for method in report.methods() {
        if let (Some(c), Some(e)) = (report.cycles(method), report.energy_pj(method)) {
            let name = escape_json(&method.to_string());
            cycles.push(format!("{name}:{c}"));
            energy.push(format!("{name}:{e:.3}"));
        }
    }
    format!(
        "{{\"network\":{},\"cycles\":{{{}}},\"energy_pj\":{{{}}}}}",
        escape_json(network),
        cycles.join(","),
        energy.join(",")
    )
}

/// The baseline methods in the column order of Tables 2 and 3.
#[must_use]
pub fn baseline_columns() -> [Method; 5] {
    [
        Method::LayerWise,
        Method::SoftPipe,
        Method::Flat,
        Method::TileFlow,
        Method::FuseMax,
    ]
}

/// Times `f` after a 50 ms warmup and returns the mean duration per call
/// over a ~300 ms measurement.
pub fn time_per_call<F: FnMut()>(mut f: F) -> Duration {
    let warmup = Instant::now();
    let mut warm_iters: u32 = 0;
    while warmup.elapsed() < Duration::from_millis(50) || warm_iters == 0 {
        f();
        warm_iters += 1;
    }
    let per_iter = warmup.elapsed() / warm_iters;
    let iters = (Duration::from_millis(300).as_nanos() / per_iter.as_nanos().max(1))
        .clamp(1, 10_000_000) as u32;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_mcycles(1_234_000), "1.234");
        assert_eq!(fmt_gpj(2.5e9), "2.500");
        assert_eq!(fmt_ratio(1.7), "1.70x");
        assert_eq!(fmt_pct(0.25), "25.00%");
    }

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        // The comparison JSON writer quotes names through `escape_json`.
        assert_eq!(escape_json("plain"), "\"plain\"");
        assert_eq!(escape_json("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escape_json("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(escape_json("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn time_per_call_measures_the_mean_of_many_calls() {
        let mut calls = 0u64;
        let mean = time_per_call(|| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(1));
        });
        assert!(calls > 1, "warmup and measurement both call f");
        assert!(mean >= Duration::from_millis(1), "{mean:?}");
    }

    #[test]
    fn table1_has_twelve_networks() {
        assert_eq!(table1_workloads().len(), 12);
    }

    #[test]
    fn options_default_to_heuristic_planner() {
        let o = Options::default();
        assert!(!o.search);
        let _ = o.planner();
    }
}
