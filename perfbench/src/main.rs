//! Runs one benchmark workload and prints its result.
//!
//! ```text
//! mas-perfbench --workload <serve_steady|serve_overload|plan_tune|kernels>
//!               [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Standard output carries the environment block, informational lines
//! (prefixed `#`) and, as its last line, the result object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed check prints
//! the result with `correct: false` and exits with code 1; bad arguments
//! exit with code 2.

use std::process::ExitCode;

use mas_perfbench::{env, run, RunConfig, Workload, DEFAULT_SEED};

fn parse_args(argv: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&argv) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("mas-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("# env {}", env::block());
    println!(
        "# run workload={} seed={} seconds={} trace={}",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    let outcome = run(&config);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in &outcome.failures {
        println!("# FAILED: {failure}");
    }
    let result = outcome.result_json(config.trace);
    println!("{result}");
    if result.starts_with("{\"correct\": true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
