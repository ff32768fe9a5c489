//! The repository benchmark: four workloads that each load one part of the
//! MAS-Attention stack, driven through the libraries' public APIs only.
//!
//! * `serve_steady` and `serve_overload` replay generated mixed
//!   prefill + decode traces through [`mas_serve::ServeEngine`]
//!   ([`serve`]).
//! * `plan_tune` plans, simulates and auto-tunes the Table 1 networks with
//!   no engine at all ([`plan_tune`]).
//! * `kernels` computes real attention numbers with [`mas_tensor`]
//!   ([`kernels`]).
//!
//! A run builds its inputs from the seed, measures for a given number of
//! seconds, checks its outputs and reports the metrics of
//! [`metrics::END_TO_END`] (untraced) or [`metrics::PER_LAYER`] (traced).
//! README.md documents each workload, each metric and the layer map.

pub mod env;
pub mod kernels;
pub mod metrics;
pub mod plan_tune;
pub mod serve;
pub mod spans;

use std::cell::RefCell;
use std::time::{Duration, Instant};

pub use metrics::Outcome;

/// The seed the benchmark uses when none is given.
pub const DEFAULT_SEED: u64 = 42;
/// A seed kept out of tuning, to confirm a claim on inputs it was not
/// shaped on.
pub const HELD_OUT_SEED: u64 = 7919;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Duration of [`calibration_work`] on the reference host. Normalized
/// metrics read as if measured on a host where the calibration loop takes
/// this long.
pub const CALIBRATION_REFERENCE_S: f64 = 0.005;
/// Timed passes after which the peak resident set is read. A fixed amount
/// of work, so the figure does not depend on how many passes the host's
/// speed allowed in the measurement time.
pub const RSS_PASSES: usize = 2;
/// Elapsed time per calibration sample owed after a pass.
const CALIBRATION_GAP: Duration = Duration::from_millis(50);

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Mixed trace well below device saturation, default engine config.
    ServeSteady,
    /// Mixed trace above device capacity with every overload mechanism on.
    ServeOverload,
    /// Table 1 plan + simulate sweep plus seeded auto-tuning, no engine.
    PlanTune,
    /// Numeric tiled prefill and GQA decode kernels.
    Kernels,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeSteady,
        Workload::ServeOverload,
        Workload::PlanTune,
        Workload::Kernels,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSteady => "serve_steady",
            Workload::ServeOverload => "serve_overload",
            Workload::PlanTune => "plan_tune",
            Workload::Kernels => "kernels",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement time. The traced run spends half of it untraced and half
    /// traced, so both throughputs come from the same run.
    pub seconds: f64,
    /// Whether to record spans and report the per-layer metrics.
    pub trace: bool,
}

impl RunConfig {
    /// The measurement budget of one timed phase.
    #[must_use]
    pub fn phase_budget(&self) -> Duration {
        let share = if self.trace { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Runs one workload and returns its outcome (end-to-end metrics, or
/// per-layer metrics when traced, plus the check results).
#[must_use]
pub fn run(config: &RunConfig) -> Outcome {
    // Allocate and touch the calibration buffer before any sample is taken.
    std::hint::black_box(calibration_work());
    match config.workload {
        Workload::ServeSteady => serve::run(serve::ServeKind::Steady, config),
        Workload::ServeOverload => serve::run(serve::ServeKind::Overload, config),
        Workload::PlanTune => plan_tune::run(config),
        Workload::Kernels => kernels::run(config),
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, returning the last result and the
/// repetitions' timing, calibrated like [`timed_passes`].
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Timing) {
    let mut timing = Timing::default();
    let mut calibrated = calibrate(&mut timing);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous repetition's result before this one is built,
        // outside the timed region, so two set-up copies never coexist.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        timing.record(start.elapsed().as_secs_f64(), &mut calibrated);
    }
    (last.expect("SETUP_REPEATS is positive"), timing)
}

/// Wall times of one timed phase, or of the set-up repetitions, with the
/// host speed measured beside each.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Each pass's (or repetition's) wall time, in seconds.
    pub passes: Vec<f64>,
    /// Host speed beside each pass relative to the reference host:
    /// [`CALIBRATION_REFERENCE_S`] over the median of the calibration
    /// samples taken right after the pass, or over the latest sample when
    /// none was due. Contention from other tenants of a shared host slows
    /// the calibration loop and the workload alike, and it drifts within a
    /// run, so each pass is scaled by the speed measured next to it. The
    /// loop runs on one thread, so contention on the other cores a pooled
    /// workload uses is not cancelled.
    pub speeds: Vec<f64>,
    /// Wall times of the calibration samples, in seconds.
    pub calibration: Vec<f64>,
    /// Process peak resident set, in MB, after set-up and the first
    /// [`RSS_PASSES`] timed passes.
    pub peak_rss_mb: Option<f64>,
}

impl Timing {
    /// Median pass wall time in seconds.
    #[must_use]
    pub fn pass_s(&self) -> f64 {
        metrics::median(&self.passes)
    }

    /// Median pass time scaled to the reference host, in seconds: each
    /// pass's wall time times the host speed beside it.
    #[must_use]
    pub fn normalized_pass_s(&self) -> f64 {
        let scaled: Vec<f64> = self
            .passes
            .iter()
            .zip(&self.speeds)
            .map(|(pass, speed)| pass * speed)
            .collect();
        metrics::median(&scaled)
    }

    /// One informational line: pass-time quantiles and the host speed.
    #[must_use]
    pub fn summary(&self, label: &str) -> String {
        format!(
            "{}; calibration n={} median={:.3} ms, median host speed {:.3}",
            metrics::pass_summary(label, &self.passes),
            self.calibration.len(),
            metrics::median(&self.calibration) * 1e3,
            metrics::median(&self.speeds)
        )
    }

    /// Records a pass's wall time. Then takes one calibration sample per
    /// [`CALIBRATION_GAP`] elapsed since `calibrated`, the end of the
    /// previous sample, so long passes are calibrated as densely as short
    /// ones, and records the host speed beside the pass.
    fn record(&mut self, pass_s: f64, calibrated: &mut Instant) {
        self.passes.push(pass_s);
        let owed = calibrated.elapsed().as_secs_f64() / CALIBRATION_GAP.as_secs_f64();
        let before = self.calibration.len();
        for _ in 0..owed as usize {
            *calibrated = calibrate(self);
        }
        let beside = match &self.calibration[before..] {
            [] => *self
                .calibration
                .last()
                .expect("sampled before the first pass"),
            burst => metrics::median(burst),
        };
        self.speeds.push(CALIBRATION_REFERENCE_S / beside);
    }
}

/// Repeats `pass` until `budget` has elapsed and at least `min_passes` (and
/// [`RSS_PASSES`]) ran. Each pass's result goes to `keep` outside the timed
/// region. A calibration sample is taken before the first pass and more
/// after each pass ([`Timing::record`]).
pub fn timed_passes<T>(
    budget: Duration,
    min_passes: usize,
    mut pass: impl FnMut() -> T,
    mut keep: impl FnMut(T),
) -> Timing {
    let mut timing = Timing::default();
    let mut calibrated = calibrate(&mut timing);
    let start = Instant::now();
    while timing.passes.len() < min_passes.max(RSS_PASSES) || start.elapsed() < budget {
        let t = Instant::now();
        let result = pass();
        let pass_s = t.elapsed().as_secs_f64();
        keep(result);
        timing.record(pass_s, &mut calibrated);
        if timing.passes.len() == RSS_PASSES {
            timing.peak_rss_mb = metrics::peak_rss_mb();
        }
    }
    timing
}

/// Takes one calibration sample; returns when it ended.
fn calibrate(timing: &mut Timing) -> Instant {
    let t = Instant::now();
    std::hint::black_box(calibration_work());
    timing.calibration.push(t.elapsed().as_secs_f64());
    Instant::now()
}

/// Slots of the calibration hash table (a power of two).
const CALIBRATION_SLOTS: usize = 1 << 16;
/// Keys inserted into, and looked up in, the calibration hash table.
const CALIBRATION_KEYS: u64 = 20_000;
/// Values the calibration loop sorts.
const CALIBRATION_VALUES: u32 = 20_000;
/// Repetitions of the calibration loop in one sample.
const CALIBRATION_ROUNDS: usize = 3;

thread_local! {
    /// The calibration loop's working memory, allocated on first use so the
    /// loop itself allocates nothing.
    static CALIBRATION_BUFFER: RefCell<(Vec<u64>, Vec<f64>)> = RefCell::new((
        vec![0; CALIBRATION_SLOTS],
        vec![0.0; CALIBRATION_VALUES as usize],
    ));
}

/// Fixed reference work that calls none of the repository's code and
/// allocates nothing: open-addressing hash inserts and lookups, an in-place
/// sort and a floating-point reduction (~5 ms), on the calling thread.
#[must_use]
pub fn calibration_work() -> u64 {
    /// The slot holding `key`, or the empty slot where it would go.
    fn probe(table: &[u64], key: u64) -> usize {
        let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) as usize;
        while table[slot] != 0 && table[slot] != key {
            slot = (slot + 1) % CALIBRATION_SLOTS;
        }
        slot
    }
    CALIBRATION_BUFFER.with_borrow_mut(|(table, values)| {
        let mut total = 0u64;
        for _ in 0..CALIBRATION_ROUNDS {
            table.fill(0);
            // Keys are stored plus one, so 0 marks an empty slot.
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..CALIBRATION_KEYS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let key = x % 50_000 + 1;
                let slot = probe(table, key);
                table[slot] = key;
            }
            total += (0..CALIBRATION_KEYS)
                .filter(|i| table[probe(table, i * 3 + 1)] != 0)
                .count() as u64;
            for (value, i) in values.iter_mut().zip(0..CALIBRATION_VALUES) {
                *value = f64::from(i * 7_919 % 10_007) * 0.5;
            }
            values.sort_unstable_by(f64::total_cmp);
            let dot: f64 = values
                .iter()
                .zip(values.iter().rev())
                .map(|(a, b)| a * b)
                .sum();
            total += dot as u64;
        }
        total
    })
}

/// Sets the end-to-end metrics of an untraced run: `items` is the work of
/// one pass. Each pass is scaled by the host speed measured beside it
/// ([`Timing::normalized_pass_s`]); the raw figures are printed as notes.
pub fn record_end_to_end(outcome: &mut Outcome, items: f64, setup: &Timing, timed: &Timing) {
    let setup_s = setup.pass_s();
    let items_per_s = items / timed.pass_s();
    outcome.set("setup_s", setup.normalized_pass_s());
    outcome.set("norm_items_per_s", items / timed.normalized_pass_s());
    match timed.peak_rss_mb {
        Some(mb) => outcome.set("peak_rss_mb", mb),
        None => outcome
            .failures
            .push("peak RSS unavailable (/proc/self/status)".into()),
    }
    outcome.notes.push(format!(
        "raw (not normalized): setup {setup_s:.6} s, {items_per_s:.3} items/s"
    ));
}

/// Sets the per-layer metrics every traced run shares: the raw throughput
/// of its untraced and traced phases and the calibration time.
pub fn record_tracing_overhead(
    outcome: &mut Outcome,
    items: f64,
    untraced: &Timing,
    traced: &Timing,
) {
    outcome.set("trace.items_per_s_untraced", items / untraced.pass_s());
    outcome.set("trace.items_per_s_traced", items / traced.pass_s());
    outcome.set(
        "host.calibration_ms",
        metrics::median(&untraced.calibration) * 1e3,
    );
}
