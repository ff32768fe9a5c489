//! `plan_tune`: cold planning, simulation and search with no serve engine.
//!
//! One pass plans every Table 1 network with every method (heuristic
//! tiling), builds each dataflow and runs it on the cycle simulator, then
//! auto-tunes MAS-Attention on a fixed subset of networks. Each pass
//! searches with its own seed, drawn from the run seed. Set-up runs the same sweep once through
//! [`Planner::compare_all`] and the SD-UNet estimate, which give the
//! reference cycles for the checks and the paper-fidelity rows. This module
//! never builds a `ServeEngine`, so no engine event is replayed.

use mas_attention::report::{geomean_energy_saving, geomean_speedup};
use mas_attention::{ComparisonReport, Method, Planner};
use mas_dataflow::{build_dataflow, AttentionWorkload, DataflowKind, StreamDemand};
use mas_npu::e2e::{sd_unet_report, E2eConfig};
use mas_npu::NpuModel;
use mas_search::tuner::{AutoTuner, TunerConfig, TuningResult};
use mas_sim::{Executor, SimReport};
use mas_workloads::sdunet::sd15_reduced_unet;
use mas_workloads::Network;

use crate::metrics::geomean;
use crate::spans::Tracer;
use crate::{
    record_end_to_end, record_tracing_overhead, repeated_setup, timed_passes, Outcome, RunConfig,
    Timing,
};

/// The networks MAS-Attention is auto-tuned on in every pass.
pub const TUNED: [Network; 2] = [Network::BertSmall, Network::T5Mini];

/// The budget of one search: [`TunerConfig::quick`] with a quarter of its
/// MCTS playouts and half of its GA generations, run serially. A shorter
/// pass gives more passes, and so more search seeds, per run; the serial
/// path gives bit-identical results and keeps the work on the thread the
/// host-speed calibration runs on.
#[must_use]
pub fn tuner_config() -> TunerConfig {
    TunerConfig {
        mcts_iterations: 10,
        ga_generations: 2,
        parallel: false,
        ..TunerConfig::quick()
    }
}

/// The generated inputs: the Table 1 workloads and the search seed.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanTuneInputs {
    /// Every Table 1 network with its batch-1 attention workload.
    pub workloads: Vec<(Network, AttentionWorkload)>,
    /// Seed the per-pass search seeds are drawn from.
    pub tuner_seed: u64,
}

impl PlanTuneInputs {
    /// The MCTS + GA seed of pass `index` of a timed phase. The cost of a
    /// search depends on the tilings its seed leads it to simulate, so a
    /// new seed per pass makes a run's median pass cover many trajectories
    /// rather than one.
    #[must_use]
    pub fn search_seed(&self, index: u64) -> u64 {
        self.tuner_seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(index)
    }
}

/// Builds the inputs for `seed`.
#[must_use]
pub fn inputs(seed: u64) -> PlanTuneInputs {
    PlanTuneInputs {
        workloads: Network::all()
            .into_iter()
            .map(|n| (n, n.attention_workload(1)))
            .collect(),
        tuner_seed: seed,
    }
}

/// What one pass produced.
struct Pass {
    /// Simulated report of every `(network, method)` pair, in sweep order.
    runs: Vec<(Network, DataflowKind, SimReport)>,
    /// Tuning result per [`TUNED`] network.
    tuned: Vec<(Network, Option<TuningResult>)>,
    errors: Vec<String>,
}

/// The work of one pass, fixed by the workload rather than by the code under
/// test: every `(network, method)` pair of the sweep plus one search per
/// [`TUNED`] network. The search's own evaluation count is a per-layer
/// metric (`search.evaluations`).
#[must_use]
pub fn items_per_pass() -> usize {
    Network::all().len() * DataflowKind::all().len() + TUNED.len()
}

fn pass(inputs: &PlanTuneInputs, index: u64, planner: &Planner, tracer: &mut Tracer) -> Pass {
    let hw = planner.hardware();
    let executor = Executor::new(hw.clone(), planner.config().energy);
    tracer.span("bench.pass", |tracer| {
        let mut runs = Vec::new();
        let mut errors = Vec::new();
        for (network, workload) in &inputs.workloads {
            for method in DataflowKind::all() {
                let plan = tracer.span("planner.plan", |_| planner.plan(method, workload));
                let schedule = tracer.span("dataflow.build", |_| {
                    build_dataflow(method, workload, &plan.tiling, hw)
                });
                let report = schedule.and_then(|schedule| {
                    tracer.span("sim.executor_run", |_| executor.run(schedule.graph()))
                });
                match report {
                    Ok(report) => runs.push((*network, method, report)),
                    Err(e) => errors.push(format!("{network:?} {method}: {e}")),
                }
            }
        }
        let tuned = TUNED
            .iter()
            .map(|&network| {
                let workload = network.attention_workload(1);
                let mut tuner = AutoTuner::new(tuner_config(), inputs.search_seed(index));
                let result = tracer.span("search.tune", |_| {
                    tuner.tune(DataflowKind::MasAttention, &workload, hw)
                });
                (network, result)
            })
            .collect();
        Pass {
            runs,
            tuned,
            errors,
        }
    })
}

/// The reference sweep of set-up: Table 2/3 comparison reports through the
/// planner's public comparison API, plus the SD-UNet end-to-end estimate.
struct Reference {
    reports: Vec<(Network, ComparisonReport)>,
    sd_unet: mas_npu::e2e::E2eReport,
}

fn reference(inputs: &PlanTuneInputs, planner: &Planner) -> Result<Reference, String> {
    let reports = inputs
        .workloads
        .iter()
        .map(|(n, w)| {
            planner
                .compare_all(w)
                .map(|r| (*n, r))
                .map_err(|e| format!("{n:?}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let sd_unet = sd_unet_report(
        &NpuModel::kirin990(),
        &sd15_reduced_unet(1),
        DataflowKind::MasAttention,
        E2eConfig::default(),
    );
    Ok(Reference { reports, sd_unet })
}

/// Paper-fidelity rows: deterministic reproduction figures beside the
/// paper's own.
fn fidelity_notes(reference: &Reference) -> Vec<String> {
    let reports: Vec<ComparisonReport> = reference.reports.iter().map(|(_, r)| r.clone()).collect();
    let mut notes = Vec::new();
    for baseline in [
        Method::LayerWise,
        Method::SoftPipe,
        Method::Flat,
        Method::TileFlow,
        Method::FuseMax,
    ] {
        let speedup = geomean_speedup(&reports, baseline).unwrap_or(f64::NAN);
        let saving = geomean_energy_saving(&reports, baseline).unwrap_or(f64::NAN);
        notes.push(format!(
            "paper-fidelity table2 geomean speedup vs {baseline}: {speedup:.2}x | \
             table3 geomean energy saving: {:.1}%",
            saving * 100.0
        ));
    }
    notes.push(format!(
        "paper-fidelity sd-unet reduction vs Layer-Wise: largest unit {:.1}% (paper 29.4%), \
         end to end {:.1}% (paper 6%)",
        reference.sd_unet.largest_unit_reduction * 100.0,
        reference.sd_unet.end_to_end_reduction * 100.0
    ));
    notes
}

/// Runs `plan_tune`.
#[must_use]
pub fn run(config: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();
    let planner = Planner::edge_default();
    let ((inputs, reference), setup) = repeated_setup(|| {
        let inputs = inputs(config.seed);
        let reference = reference(&inputs, &planner);
        (inputs, reference)
    });
    let reference = match reference {
        Ok(reference) => reference,
        Err(e) => {
            outcome.failed += 1;
            outcome
                .failures
                .push(format!("reference sweep failed: {e}"));
            return outcome;
        }
    };
    outcome.notes.extend(fidelity_notes(&reference));

    // Each pass is checked as it completes. Only the first is kept, for
    // the per-layer search figures, since its search seed does not depend
    // on how many passes ran; so memory does not grow with the pass count.
    let mut first: Option<Pass> = None;
    let mut keep = |p: Pass| {
        check(&reference, &p, &mut outcome);
        first.get_or_insert(p);
    };
    // Both phases search with the same seed sequence, from pass 0.
    let (mut untraced, mut index) = (Tracer::new(false), 0);
    let untraced_timing = timed_passes(
        config.phase_budget(),
        1,
        || {
            index += 1;
            pass(&inputs, index - 1, &planner, &mut untraced)
        },
        &mut keep,
    );
    let (mut tracer, mut index, mut traced_evaluations) = (Tracer::new(config.trace), 0, 0);
    let traced_timing = if config.trace {
        timed_passes(
            config.phase_budget(),
            1,
            || {
                index += 1;
                let p = pass(&inputs, index - 1, &planner, &mut tracer);
                traced_evaluations += search_evaluations(&p);
                p
            },
            &mut keep,
        )
    } else {
        Timing::default()
    };

    outcome.notes.push(setup.summary("setup"));
    outcome.notes.push(untraced_timing.summary("untraced"));
    if config.trace {
        outcome.notes.push(traced_timing.summary("traced"));
    }
    let first = first.expect("at least one pass ran");
    let items = items_per_pass() as f64;

    if config.trace {
        record_tracing_overhead(&mut outcome, items, &untraced_timing, &traced_timing);
        record_layers(&reference, &first, &tracer, &planner, &mut outcome);
        outcome.set(
            "search.evals_per_s",
            traced_evaluations as f64 / tracer.total_self_s("search.tune"),
        );
        outcome.set("plan.tune_s", untraced_timing.pass_s());
        outcome.notes.extend(tracer.summary());
    } else {
        record_end_to_end(&mut outcome, items, &setup, &untraced_timing);
    }
    outcome.notes.push(format!(
        "plan_tune: {} items/pass, {} search evaluations in the first pass, {} passes",
        items_per_pass(),
        search_evaluations(&first),
        untraced_timing.passes.len() + traced_timing.passes.len(),
    ));
    outcome
}

/// Candidates the tuners simulated in one pass.
fn search_evaluations(p: &Pass) -> usize {
    p.tuned
        .iter()
        .filter_map(|(_, r)| r.as_ref())
        .map(|r| r.evaluations)
        .sum()
}

/// Correctness and guards: every pass reproduces the reference cycles, the
/// search never loses to the heuristic tiling it is seeded with, and the
/// workload really spends its evaluations in the simulator and the search.
fn check(reference: &Reference, p: &Pass, outcome: &mut Outcome) {
    outcome.attempted += items_per_pass() as u64;
    outcome.failed += p.errors.len() as u64;
    outcome.failures.extend(p.errors.iter().cloned());
    for (network, method, report) in &p.runs {
        let expected = reference
            .reports
            .iter()
            .find(|(n, _)| n == network)
            .and_then(|(_, r)| r.cycles(*method));
        outcome.check(expected == Some(report.total_cycles), || {
            format!(
                "{network:?} {method}: {} cycles, reference {expected:?}",
                report.total_cycles
            )
        });
    }
    for (network, result) in &p.tuned {
        let heuristic = reference
            .reports
            .iter()
            .find(|(n, _)| n == network)
            .and_then(|(_, r)| r.cycles(Method::MasAttention));
        let tuned = result.as_ref().map(|r| r.best_cost.cycles);
        outcome.check(
            matches!((tuned, heuristic), (Some(t), Some(h)) if t <= h),
            || format!("{network:?}: tuned {tuned:?} cycles vs heuristic {heuristic:?}"),
        );
    }
    outcome.check(
        p.tuned
            .iter()
            .all(|(_, r)| r.as_ref().is_some_and(|r| r.evaluations > 0)),
        || "the search evaluated no candidate".into(),
    );
}

/// Per-layer figures: the search's from `first` (the first traced or
/// untraced pass, whose seed is fixed by the run seed), timings from the
/// traced phase's spans.
fn record_layers(
    reference: &Reference,
    first: &Pass,
    tracer: &Tracer,
    planner: &Planner,
    outcome: &mut Outcome,
) {
    let tuned: Vec<&TuningResult> = first.tuned.iter().filter_map(|(_, r)| r.as_ref()).collect();
    let tuned_mcycles: Vec<f64> = tuned
        .iter()
        .map(|r| r.best_cost.cycles as f64 / 1e6)
        .collect();
    let improvements: Vec<f64> = tuned
        .iter()
        .filter_map(|r| r.improvement_over_naive())
        .collect();
    outcome.set("plan.tuned_mcycles_geomean", geomean(&tuned_mcycles));
    outcome.set("search.evaluations", search_evaluations(first) as f64);
    outcome.set("search.improvement_over_naive", geomean(&improvements));
    outcome.set(
        "dataflow.build_us",
        tracer.mean_self_s("dataflow.build") * 1e6,
    );
    outcome.set(
        "sim.executor_run_us",
        tracer.mean_self_s("sim.executor_run") * 1e6,
    );
    // The sweep is identical every pass, so its tasks scale with the passes.
    let passes = tracer.count("bench.pass").max(1) as f64;
    let tasks: usize = first.runs.iter().map(|(_, _, r)| r.tasks_executed).sum();
    outcome.set(
        "sim.tasks_per_s",
        tasks as f64 * passes / tracer.total_self_s("sim.executor_run"),
    );

    // Closed-form max-of-streams bound vs the cycle simulator, MAS-Attention
    // on every Table 1 shape.
    let hw = planner.hardware();
    let worst = reference
        .reports
        .iter()
        .filter_map(|(network, report)| {
            let simulated = report.cycles(Method::MasAttention)? as f64 / hw.frequency_hz;
            let closed =
                StreamDemand::of_prefill(&network.attention_workload(1), hw).bound_seconds(hw);
            Some((closed - simulated).abs() / simulated)
        })
        .fold(0.0, f64::max);
    outcome.set("dataflow.model_rel_err_max", worst);
}
