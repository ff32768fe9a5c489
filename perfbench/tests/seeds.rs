//! Seed handling and the benchmark's declared metric set.
//!
//! * The same seed gives byte-identical inputs and identical simulated
//!   results; a different seed gives different inputs.
//! * `BENCHMARK.json` names exactly the workloads and metrics the binary
//!   prints.

use mas_dataflow::DataflowKind;
use mas_perfbench::metrics::{END_TO_END, PER_LAYER};
use mas_perfbench::serve::{self, ServeKind};
use mas_perfbench::{kernels, plan_tune, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use mas_search::tuner::AutoTuner;
use mas_serve::ServeEngine;

/// Byte-level identity: equal values with equal `Debug` renderings (which
/// print every float to round-trip precision).
fn assert_identical<T: PartialEq + std::fmt::Debug>(a: &T, b: &T) {
    assert!(a == b);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn serve_inputs_are_a_function_of_the_seed() {
    for kind in [ServeKind::Steady, ServeKind::Overload] {
        let a = serve::inputs(kind, DEFAULT_SEED);
        assert_identical(&a, &serve::inputs(kind, DEFAULT_SEED));
        assert!(a != serve::inputs(kind, HELD_OUT_SEED), "{kind:?}");
    }
}

#[test]
fn serve_simulated_results_repeat_for_a_seed() {
    for kind in [ServeKind::Steady, ServeKind::Overload] {
        let replay = || {
            let inputs = serve::inputs(kind, DEFAULT_SEED);
            ServeEngine::new(kind.engine_config())
                .run(&inputs.stream, &inputs.trace.decode)
                .expect("replay succeeds")
        };
        assert_identical(&replay(), &replay());
    }
}

#[test]
fn plan_tune_inputs_and_tuning_repeat_for_a_seed() {
    let a = plan_tune::inputs(DEFAULT_SEED);
    assert_identical(&a, &plan_tune::inputs(DEFAULT_SEED));
    assert!(a != plan_tune::inputs(HELD_OUT_SEED));
    assert_ne!(a.search_seed(0), a.search_seed(1));

    let workload = plan_tune::TUNED[0].attention_workload(1);
    let hw = mas_sim::HardwareConfig::edge_default();
    let tune = || {
        AutoTuner::new(plan_tune::tuner_config(), a.search_seed(0))
            .tune(DataflowKind::MasAttention, &workload, &hw)
            .expect("the workload has a valid tiling")
    };
    let (first, second) = (tune(), tune());
    assert_eq!(first.best_cost.cycles, second.best_cost.cycles);
    assert_eq!(first.best_tiling, second.best_tiling);
    assert_eq!(first.evaluations, second.evaluations);
}

#[test]
fn kernel_inputs_are_a_function_of_the_seed() {
    let a = kernels::inputs(DEFAULT_SEED);
    assert_identical(&a, &kernels::inputs(DEFAULT_SEED));
    let b = kernels::inputs(HELD_OUT_SEED);
    assert!(a.qkv != b.qkv);
    assert!(a.decode_k != b.decode_k);
}

/// The `name` and (if present) `unit` of every entry of the list `list` in
/// `BENCHMARK.json`, in file order.
fn declared(json: &str, list: &str) -> Vec<(String, Option<String>)> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &json[start..];
    let end = body.find(']').expect("list is closed");
    body[..end]
        .split('{')
        .skip(1)
        .map(|object| {
            let field = |key: &str| {
                let at = object.find(&format!("\"{key}\""))?;
                let rest = &object[at + key.len() + 2..];
                let open = rest.find('"')? + 1;
                let close = open + rest[open..].find('"')?;
                Some(rest[open..close].to_string())
            };
            (
                field("name").expect("every entry has a name"),
                field("unit"),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let names = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), names(PER_LAYER));
    let workloads: Vec<String> = declared(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, expected);
}
