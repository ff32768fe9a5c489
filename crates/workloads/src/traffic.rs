//! Request-trace generation for the streaming serving runtime.
//!
//! The serving experiments replay a timestamped stream of attention requests
//! against `mas-serve`. This module generates those streams deterministically
//! from a seed: each event carries an arrival time (seconds) and an attention
//! workload drawn from the paper's Table 1 networks.
//!
//! Three arrival processes are provided:
//!
//! * [`ArrivalProcess::Poisson`] — independent exponential inter-arrivals at
//!   a given rate, the standard open-loop serving model,
//! * [`ArrivalProcess::Bursty`] — groups of back-to-back arrivals separated
//!   by idle gaps, with the same long-run rate as the Poisson process (the
//!   hard case for admission control and batching),
//! * [`ArrivalProcess::Uniform`] — a fixed inter-arrival gap (closed-loop
//!   replay, useful for deterministic latency baselines).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mas_dataflow::AttentionWorkload;

use crate::networks::Network;

/// How request arrival times are spaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson process: exponential inter-arrival times at `rate_rps`
    /// requests per second.
    Poisson {
        /// Long-run arrival rate in requests per second.
        rate_rps: f64,
    },
    /// Bursts of `burst_len` simultaneous arrivals, with gaps sized so the
    /// long-run rate is `rate_rps`.
    Bursty {
        /// Long-run arrival rate in requests per second.
        rate_rps: f64,
        /// Number of requests arriving together in each burst.
        burst_len: usize,
    },
    /// A fixed gap of `gap_s` seconds between consecutive requests.
    Uniform {
        /// Inter-arrival gap in seconds.
        gap_s: f64,
    },
}

/// Configuration of one generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Arrival process shaping the request timestamps.
    pub arrivals: ArrivalProcess,
    /// Number of requests to generate.
    pub count: usize,
    /// Networks to draw workloads from (uniformly at random). Must be
    /// non-empty.
    pub networks: Vec<Network>,
    /// Batch size of each generated request's workload.
    pub batch: usize,
    /// RNG seed; traces are a pure function of the whole config.
    pub seed: u64,
}

impl TraceConfig {
    /// A Poisson trace over the given networks at `rate_rps`.
    #[must_use]
    pub fn poisson(networks: Vec<Network>, count: usize, rate_rps: f64, seed: u64) -> Self {
        Self {
            arrivals: ArrivalProcess::Poisson { rate_rps },
            count,
            networks,
            batch: 1,
            seed,
        }
    }

    /// A bursty trace with the same long-run rate as [`TraceConfig::poisson`].
    #[must_use]
    pub fn bursty(
        networks: Vec<Network>,
        count: usize,
        rate_rps: f64,
        burst_len: usize,
        seed: u64,
    ) -> Self {
        Self {
            arrivals: ArrivalProcess::Bursty {
                rate_rps,
                burst_len: burst_len.max(1),
            },
            count,
            networks,
            batch: 1,
            seed,
        }
    }
}

/// One timestamped request of a generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Arrival time in seconds from the start of the trace (non-decreasing).
    pub arrival_s: f64,
    /// The attention workload requested.
    pub workload: AttentionWorkload,
    /// The Table 1 network the workload was drawn from.
    pub network: Network,
}

/// Generates a request trace from the config.
///
/// Events are returned in non-decreasing arrival order. The trace is a pure
/// function of `config` (bit-identical across runs and platforms).
///
/// # Panics
///
/// Panics if `config.networks` is empty, a rate is non-positive, or the
/// uniform gap is negative.
#[must_use]
pub fn request_trace(config: &TraceConfig) -> Vec<TraceEvent> {
    assert!(
        !config.networks.is_empty(),
        "trace generation needs at least one network"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut events = Vec::with_capacity(config.count);
    let mut now_s = 0.0f64;
    for i in 0..config.count {
        now_s += match config.arrivals {
            ArrivalProcess::Poisson { rate_rps } => {
                assert!(rate_rps > 0.0, "Poisson rate must be positive");
                // Inverse-CDF sample of Exp(rate); u is in [0, 1) so the
                // argument of ln stays in (0, 1].
                let u: f64 = rng.gen_range(0.0..1.0);
                -(1.0 - u).ln() / rate_rps
            }
            ArrivalProcess::Bursty {
                rate_rps,
                burst_len,
            } => {
                assert!(rate_rps > 0.0, "burst rate must be positive");
                if i == 0 || !i.is_multiple_of(burst_len.max(1)) {
                    0.0 // within a burst: simultaneous arrival
                } else {
                    burst_len.max(1) as f64 / rate_rps
                }
            }
            ArrivalProcess::Uniform { gap_s } => {
                assert!(gap_s >= 0.0, "uniform gap must be non-negative");
                if i == 0 {
                    0.0
                } else {
                    gap_s
                }
            }
        };
        let network = config.networks[rng.gen_range(0..config.networks.len())];
        events.push(TraceEvent {
            arrival_s: now_s,
            workload: network.attention_workload(config.batch),
            network,
        });
    }
    events
}

/// Configuration of a generated autoregressive decode trace: sessions open
/// at Poisson times, each with a prompt length and a step count drawn from
/// configured ranges, and the session's decode steps arrive at jittered
/// inter-token gaps.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeTraceConfig {
    /// Networks whose head count / embedding size sessions draw from
    /// (uniformly at random). Must be non-empty.
    pub networks: Vec<Network>,
    /// Number of sessions to generate.
    pub sessions: usize,
    /// Long-run session arrival rate in sessions per second (Poisson).
    pub session_rate_rps: f64,
    /// Inclusive `(min, max)` prompt length in tokens (the KV cache each
    /// session starts from).
    pub prompt_len: (usize, usize),
    /// Inclusive `(min, max)` number of decode steps per session.
    pub steps_per_session: (usize, usize),
    /// Mean inter-token gap in seconds; actual gaps are exponentially
    /// jittered around it.
    pub token_gap_s: f64,
    /// RNG seed; traces are a pure function of the whole config.
    pub seed: u64,
    /// Shared system-prompt length in tokens. `Some(len)` marks every
    /// session's first `min(len, prompt_len)` tokens as a prefix shared
    /// with all same-network sessions (`DecodeSessionSpec::prefix_group` =
    /// the network's index in [`DecodeTraceConfig::networks`]), modeling a
    /// per-model system prompt. `None` (default) generates fully private
    /// sessions — and leaves the sampled trace byte-identical to configs
    /// predating this field.
    pub system_prompt_len: Option<usize>,
}

impl DecodeTraceConfig {
    /// A decode trace with Poisson session arrivals and sensible ranges
    /// (prompts of 32–256 tokens, 8–64 steps, 10 ms mean token gap).
    #[must_use]
    pub fn poisson(networks: Vec<Network>, sessions: usize, rate_rps: f64, seed: u64) -> Self {
        Self {
            networks,
            sessions,
            session_rate_rps: rate_rps,
            prompt_len: (32, 256),
            steps_per_session: (8, 64),
            token_gap_s: 0.01,
            seed,
            system_prompt_len: None,
        }
    }

    /// Marks the first `len` tokens of every session's prompt as a shared
    /// per-network system prompt (see
    /// [`DecodeTraceConfig::system_prompt_len`]). Arrival times, shapes and
    /// prompt lengths are unchanged — only the sharing annotation differs.
    #[must_use]
    pub fn with_system_prompt(mut self, len: usize) -> Self {
        self.system_prompt_len = Some(len);
        self
    }
}

/// One decode session of a generated trace: its shape, prompt and step
/// budget.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeSessionSpec {
    /// Session id, unique within the trace.
    pub id: u64,
    /// The Table 1 network the session's shape was drawn from.
    pub network: Network,
    /// Time the session opens, in seconds from the start of the trace.
    pub start_s: f64,
    /// Query attention heads of the session's layers.
    pub heads: usize,
    /// Shared key/value heads (`kv_heads ≤ heads`, dividing `heads`) —
    /// grouped-query networks like Llama3-8B store fewer KV heads than
    /// query heads, shrinking per-session KV residency.
    pub kv_heads: usize,
    /// Per-head embedding size.
    pub embed: usize,
    /// Prompt length in tokens (KV-cache residency before the first step).
    pub prompt_len: usize,
    /// Number of decode steps the session will request.
    pub steps: usize,
    /// Cross-session prefix-sharing group: sessions with the same group id
    /// share the whole KV blocks of their common prompt prefix when the
    /// serving policy enables prefix sharing. `None` (default) keeps the
    /// session fully private.
    pub prefix_group: Option<u64>,
    /// Length in tokens of the prompt prefix shared with the group (already
    /// clamped to `prompt_len` by the generator). Only whole KV blocks of
    /// it are charged group-wide; `0` without a group.
    pub shared_prefix_len: usize,
}

impl DecodeSessionSpec {
    /// KV-cache residency after the last step, in tokens — what a serving
    /// layer charges against its KV budget for the session's lifetime.
    #[must_use]
    pub fn max_context(&self) -> usize {
        self.prompt_len + self.steps
    }
}

/// One timestamped decode-step request.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeStepEvent {
    /// The session requesting the step.
    pub session_id: u64,
    /// Zero-based index of the step within its session.
    pub step_index: usize,
    /// Arrival time in seconds from the start of the trace.
    pub arrival_s: f64,
}

/// A generated decode trace: session specs plus their step requests in
/// global arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeTrace {
    /// Sessions in start order (ids are their indices).
    pub sessions: Vec<DecodeSessionSpec>,
    /// Step requests sorted by `(arrival_s, session_id, step_index)`.
    pub steps: Vec<DecodeStepEvent>,
}

impl DecodeTrace {
    /// The empty decode trace (no sessions, no steps) — the decode leg of a
    /// prefill-only replay through the unified serve engine.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            sessions: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Total decode steps across all sessions.
    #[must_use]
    pub fn total_steps(&self) -> usize {
        self.steps.len()
    }
}

/// Generates a decode trace from the config.
///
/// Session starts follow a Poisson process at
/// [`DecodeTraceConfig::session_rate_rps`]; each session's steps arrive at
/// exponentially jittered gaps with mean [`DecodeTraceConfig::token_gap_s`].
/// The trace is a pure function of `config` (bit-identical across runs and
/// platforms).
///
/// # Panics
///
/// Panics if `config.networks` is empty, the rates are non-positive, or a
/// range is inverted or starts at zero.
#[must_use]
pub fn decode_trace(config: &DecodeTraceConfig) -> DecodeTrace {
    assert!(
        !config.networks.is_empty(),
        "decode trace generation needs at least one network"
    );
    assert!(
        config.session_rate_rps > 0.0,
        "session arrival rate must be positive"
    );
    assert!(config.token_gap_s > 0.0, "token gap must be positive");
    let ranges = [config.prompt_len, config.steps_per_session];
    for (lo, hi) in ranges {
        assert!(lo > 0 && lo <= hi, "ranges must be non-empty and ordered");
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    // Inverse-CDF sample of Exp(1/mean); u in [0, 1) keeps ln's argument in
    // (0, 1].
    let exp_sample = |mean: f64, rng: &mut StdRng| -> f64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        -(1.0 - u).ln() * mean
    };
    let mut sessions = Vec::with_capacity(config.sessions);
    let mut steps = Vec::new();
    let mut now_s = 0.0f64;
    for id in 0..config.sessions as u64 {
        now_s += exp_sample(1.0 / config.session_rate_rps, &mut rng);
        let network_index = rng.gen_range(0..config.networks.len());
        let network = config.networks[network_index];
        let shape = network.attention_workload(1);
        let prompt_len = rng.gen_range(config.prompt_len.0..config.prompt_len.1 + 1);
        // The sharing annotation draws nothing from the RNG, so traces with
        // and without a system prompt have identical arrivals and shapes.
        let (prefix_group, shared_prefix_len) = match config.system_prompt_len {
            Some(len) => (Some(network_index as u64), len.min(prompt_len)),
            None => (None, 0),
        };
        let step_count = rng.gen_range(config.steps_per_session.0..config.steps_per_session.1 + 1);
        let mut t = now_s;
        for step_index in 0..step_count {
            t += exp_sample(config.token_gap_s, &mut rng);
            steps.push(DecodeStepEvent {
                session_id: id,
                step_index,
                arrival_s: t,
            });
        }
        sessions.push(DecodeSessionSpec {
            id,
            network,
            start_s: now_s,
            heads: shape.heads,
            kv_heads: network.kv_heads(),
            embed: shape.embed,
            prompt_len,
            steps: step_count,
            prefix_group,
            shared_prefix_len,
        });
    }
    steps.sort_by(|a, b| {
        a.arrival_s
            .partial_cmp(&b.arrival_s)
            .expect("arrival times are finite")
            .then(a.session_id.cmp(&b.session_id))
            .then(a.step_index.cmp(&b.step_index))
    });
    DecodeTrace { sessions, steps }
}

/// Configuration of a mixed prefill+decode trace: the two generated legs a
/// unified serving replay interleaves on one timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedTraceConfig {
    /// The prefill request leg.
    pub prefill: TraceConfig,
    /// The decode session/step leg.
    pub decode: DecodeTraceConfig,
}

/// Seed salt decorrelating a mixed trace's decode leg from its prefill leg
/// (the bytes `"mixed_tr"`): both legs derive from one user seed without
/// sampling correlated streams. Exposed so every mixed-trace producer (the
/// [`MixedTraceConfig::poisson`] helper, CLI tools building custom legs)
/// derives the same decode seed for the same user seed.
pub const MIXED_DECODE_SEED_SALT: u64 = 0x6d69_7865_645f_7472;

impl MixedTraceConfig {
    /// A Poisson mixed trace over one network set: `prefill_count` prefill
    /// requests at `prefill_rate_rps` interleaved with `sessions` decode
    /// sessions opening at `session_rate_rps`. The two legs draw from
    /// decorrelated seeds derived from `seed` (the decode leg uses
    /// `seed ^ MIXED_DECODE_SEED_SALT`).
    #[must_use]
    pub fn poisson(
        networks: Vec<Network>,
        prefill_count: usize,
        prefill_rate_rps: f64,
        sessions: usize,
        session_rate_rps: f64,
        seed: u64,
    ) -> Self {
        Self {
            prefill: TraceConfig::poisson(networks.clone(), prefill_count, prefill_rate_rps, seed),
            decode: DecodeTraceConfig::poisson(
                networks,
                sessions,
                session_rate_rps,
                seed ^ MIXED_DECODE_SEED_SALT,
            ),
        }
    }

    /// The shared-system-prompt leg: every decode session's first `len`
    /// prompt tokens become a per-network shared prefix (see
    /// [`DecodeTraceConfig::with_system_prompt`]). The prefill leg and all
    /// arrival times are unchanged.
    #[must_use]
    pub fn with_shared_system_prompt(mut self, len: usize) -> Self {
        self.decode = self.decode.with_system_prompt(len);
        self
    }
}

/// A generated mixed trace: the prefill request events and the decode
/// trace, each internally sorted by arrival. A consumer replaying both
/// classes on one timeline (the serve engine) merges them by arrival time —
/// the deterministic interleaving is a property of the timestamps, not of a
/// combined event list.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedTrace {
    /// Prefill request events in arrival order.
    pub prefill: Vec<TraceEvent>,
    /// Decode sessions and their step events in arrival order.
    pub decode: DecodeTrace,
}

impl MixedTrace {
    /// Total events across both legs (prefill requests plus decode steps).
    #[must_use]
    pub fn total_events(&self) -> usize {
        self.prefill.len() + self.decode.total_steps()
    }
}

/// Generates a mixed prefill+decode trace from the config: the existing
/// prefill and decode generators run with their own (decorrelated) seeds,
/// producing two arrival-timestamped legs over one shared time origin. The
/// trace is a pure function of `config`.
///
/// # Panics
///
/// Panics under the same conditions as [`request_trace`] and
/// [`decode_trace`].
#[must_use]
pub fn mixed_trace(config: &MixedTraceConfig) -> MixedTrace {
    MixedTrace {
        prefill: request_trace(&config.prefill),
        decode: decode_trace(&config.decode),
    }
}

/// Configuration of a deterministic overload burst: steady decode traffic
/// plus a simultaneous burst of long prefill requests — the head-of-line
/// blocking scenario chunked prefill and iteration-level preemption exist
/// for. Unlike the Poisson generators this draws **nothing** from an RNG:
/// session starts are uniformly staggered, decode steps arrive at a fixed
/// inter-token gap, and every burst prefill lands at the same instant, so
/// the trace (and any replay of it) is reproducible term by term.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadBurstConfig {
    /// Network supplying the attention shape of both legs.
    pub network: Network,
    /// Steady decode sessions running through the burst.
    pub sessions: usize,
    /// Decode steps per session.
    pub steps_per_session: usize,
    /// Prompt length of every session, in tokens.
    pub prompt_len: usize,
    /// Fixed inter-token gap between a session's steps, in seconds.
    pub token_gap_s: f64,
    /// Fixed stagger between consecutive session starts, in seconds
    /// (decorrelates the steady steps without an RNG).
    pub session_stagger_s: f64,
    /// Long prefill requests arriving together in the burst.
    pub burst_prefills: usize,
    /// The instant the whole burst arrives, in seconds.
    pub burst_at_s: f64,
    /// Sequence length of the burst's first prefill — sized so one
    /// monolithic launch dwarfs a decode step's service time.
    pub burst_seq_len: usize,
    /// Sequence-length increment between consecutive burst prefills:
    /// request `i` asks for `burst_seq_len + i * burst_seq_step` tokens.
    /// `0` makes the burst one coalescible shape (a single giant batch);
    /// nonzero gives every request its own batch key, so the burst becomes
    /// a convoy of back-to-back monolithic launches instead.
    pub burst_seq_step: usize,
    /// Batch dimension of each burst prefill.
    pub burst_batch: usize,
}

impl OverloadBurstConfig {
    /// A steady-decode-plus-prefill-burst scenario on one network: a few
    /// long-context sessions decoding at a 10 ms token gap, hit at 50 ms by
    /// a convoy of 2048+-token prefills (distinct shapes, so they dispatch
    /// as back-to-back monolithic launches rather than one batch).
    #[must_use]
    pub fn new(network: Network) -> Self {
        Self {
            network,
            sessions: 4,
            steps_per_session: 48,
            prompt_len: 2048,
            token_gap_s: 0.01,
            session_stagger_s: 0.0025,
            burst_prefills: 4,
            burst_at_s: 0.05,
            burst_seq_len: 2048,
            burst_seq_step: 256,
            burst_batch: 1,
        }
    }
}

/// Generates the mixed trace of an [`OverloadBurstConfig`]: the decode leg
/// holds `sessions` uniformly staggered sessions stepping at the fixed
/// token gap; the prefill leg holds `burst_prefills` identical long
/// requests all arriving at `burst_at_s` (one coalescible shape — without
/// chunking they seal into one monolithic head-of-line launch). The trace
/// is a pure function of the config; no RNG is involved.
///
/// # Panics
///
/// Panics if the gaps are non-positive, the prompt is empty, or a burst
/// request has a zero dimension.
#[must_use]
pub fn overload_burst_trace(config: &OverloadBurstConfig) -> MixedTrace {
    assert!(config.token_gap_s > 0.0, "token gap must be positive");
    assert!(config.session_stagger_s >= 0.0, "stagger must be >= 0");
    assert!(config.prompt_len > 0, "sessions need a prompt");
    assert!(
        config.burst_seq_len > 0 && config.burst_batch > 0,
        "burst requests need nonzero dimensions"
    );
    let shape = config.network.attention_workload(1);
    let prefill = (0..config.burst_prefills)
        .map(|i| {
            let seq_len = config.burst_seq_len + i * config.burst_seq_step;
            TraceEvent {
                arrival_s: config.burst_at_s,
                workload: AttentionWorkload::new(
                    format!(
                        "burst-{i}-b{}h{}n{}e{}",
                        config.burst_batch, shape.heads, seq_len, shape.embed
                    ),
                    config.burst_batch,
                    shape.heads,
                    seq_len,
                    shape.embed,
                ),
                network: config.network,
            }
        })
        .collect();
    let mut sessions = Vec::with_capacity(config.sessions);
    let mut steps = Vec::new();
    for id in 0..config.sessions as u64 {
        let start_s = id as f64 * config.session_stagger_s;
        for step_index in 0..config.steps_per_session {
            steps.push(DecodeStepEvent {
                session_id: id,
                step_index,
                arrival_s: start_s + (step_index + 1) as f64 * config.token_gap_s,
            });
        }
        sessions.push(DecodeSessionSpec {
            id,
            network: config.network,
            start_s,
            heads: shape.heads,
            kv_heads: config.network.kv_heads(),
            embed: shape.embed,
            prompt_len: config.prompt_len,
            steps: config.steps_per_session,
            prefix_group: None,
            shared_prefix_len: 0,
        });
    }
    steps.sort_by(|a, b| {
        a.arrival_s
            .partial_cmp(&b.arrival_s)
            .expect("arrival times are finite")
            .then(a.session_id.cmp(&b.session_id))
            .then(a.step_index.cmp(&b.step_index))
    });
    MixedTrace {
        prefill,
        decode: DecodeTrace { sessions, steps },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nets() -> Vec<Network> {
        vec![Network::BertBase, Network::VitB16, Network::Xlm]
    }

    #[test]
    fn traces_are_deterministic_per_seed() {
        let cfg = TraceConfig::poisson(nets(), 50, 100.0, 7);
        assert_eq!(request_trace(&cfg), request_trace(&cfg));
        let other = TraceConfig::poisson(nets(), 50, 100.0, 8);
        assert_ne!(request_trace(&cfg), request_trace(&other));
    }

    #[test]
    fn arrivals_are_non_decreasing_and_rate_is_respected() {
        let cfg = TraceConfig::poisson(nets(), 400, 200.0, 3);
        let trace = request_trace(&cfg);
        assert_eq!(trace.len(), 400);
        for pair in trace.windows(2) {
            assert!(pair[1].arrival_s >= pair[0].arrival_s);
        }
        // 400 arrivals at 200 rps span ~2 s; allow generous sampling slack.
        let span = trace.last().unwrap().arrival_s;
        assert!((1.0..4.0).contains(&span), "span {span} s");
    }

    #[test]
    fn bursts_arrive_together() {
        let cfg = TraceConfig::bursty(nets(), 12, 100.0, 4, 11);
        let trace = request_trace(&cfg);
        // Requests 0..4 share one timestamp, 4..8 the next, 8..12 the last.
        for chunk in trace.chunks(4) {
            assert!(chunk
                .iter()
                .all(|e| (e.arrival_s - chunk[0].arrival_s).abs() < 1e-12));
        }
        assert!(trace[4].arrival_s > trace[3].arrival_s);
        assert!((trace[4].arrival_s - trace[0].arrival_s - 0.04).abs() < 1e-12);
    }

    #[test]
    fn uniform_gap_spacing() {
        let cfg = TraceConfig {
            arrivals: ArrivalProcess::Uniform { gap_s: 0.5 },
            count: 4,
            networks: nets(),
            batch: 2,
            seed: 1,
        };
        let trace = request_trace(&cfg);
        assert_eq!(trace[0].arrival_s, 0.0);
        assert!((trace[3].arrival_s - 1.5).abs() < 1e-12);
        assert!(trace.iter().all(|e| e.workload.batch == 2));
    }

    #[test]
    fn workloads_match_their_network() {
        let cfg = TraceConfig::poisson(nets(), 30, 50.0, 21);
        for e in request_trace(&cfg) {
            assert_eq!(e.workload, e.network.attention_workload(1));
        }
    }

    #[test]
    #[should_panic(expected = "at least one network")]
    fn empty_network_list_panics() {
        let cfg = TraceConfig::poisson(vec![], 1, 1.0, 0);
        let _ = request_trace(&cfg);
    }

    #[test]
    fn decode_traces_are_deterministic_per_seed() {
        let cfg = DecodeTraceConfig::poisson(nets(), 10, 50.0, 5);
        assert_eq!(decode_trace(&cfg), decode_trace(&cfg));
        let other = DecodeTraceConfig::poisson(nets(), 10, 50.0, 6);
        assert_ne!(decode_trace(&cfg), decode_trace(&other));
    }

    #[test]
    fn decode_sessions_respect_the_configured_ranges() {
        let cfg = DecodeTraceConfig {
            prompt_len: (4, 9),
            steps_per_session: (2, 5),
            ..DecodeTraceConfig::poisson(nets(), 40, 100.0, 12)
        };
        let trace = decode_trace(&cfg);
        assert_eq!(trace.sessions.len(), 40);
        for s in &trace.sessions {
            assert!((4..=9).contains(&s.prompt_len));
            assert!((2..=5).contains(&s.steps));
            assert_eq!(s.max_context(), s.prompt_len + s.steps);
            let shape = s.network.attention_workload(1);
            assert_eq!((s.heads, s.embed), (shape.heads, shape.embed));
            assert_eq!(s.kv_heads, s.network.kv_heads());
            assert!(s.kv_heads > 0 && s.heads % s.kv_heads == 0);
        }
        // Step count conservation and global ordering.
        let expected: usize = trace.sessions.iter().map(|s| s.steps).sum();
        assert_eq!(trace.total_steps(), expected);
        for pair in trace.steps.windows(2) {
            assert!(pair[1].arrival_s >= pair[0].arrival_s);
        }
    }

    #[test]
    fn decode_steps_arrive_after_their_session_opens_in_order() {
        let cfg = DecodeTraceConfig::poisson(nets(), 12, 200.0, 3);
        let trace = decode_trace(&cfg);
        for session in &trace.sessions {
            let mine: Vec<&DecodeStepEvent> = trace
                .steps
                .iter()
                .filter(|e| e.session_id == session.id)
                .collect();
            assert_eq!(mine.len(), session.steps);
            let mut prev = session.start_s;
            for (i, e) in mine.iter().enumerate() {
                assert_eq!(e.step_index, i, "per-session steps stay ordered");
                assert!(e.arrival_s > prev);
                prev = e.arrival_s;
            }
        }
    }

    #[test]
    fn system_prompt_annotation_leaves_arrivals_and_shapes_unchanged() {
        // The shared-system-prompt leg must not disturb the RNG stream:
        // same seed with and without the annotation gives identical
        // arrivals, shapes, prompt lengths and step schedules.
        let base = DecodeTraceConfig::poisson(nets(), 25, 80.0, 42);
        let shared_cfg = base.clone().with_system_prompt(64);
        let plain = decode_trace(&base);
        let shared = decode_trace(&shared_cfg);
        assert_eq!(plain.steps, shared.steps);
        assert_eq!(plain.sessions.len(), shared.sessions.len());
        for (p, s) in plain.sessions.iter().zip(&shared.sessions) {
            assert_eq!(
                (
                    p.start_s,
                    p.heads,
                    p.kv_heads,
                    p.embed,
                    p.prompt_len,
                    p.steps
                ),
                (
                    s.start_s,
                    s.heads,
                    s.kv_heads,
                    s.embed,
                    s.prompt_len,
                    s.steps
                )
            );
            // Private leg carries no sharing; shared leg groups by network
            // and clamps the prefix to the prompt.
            assert_eq!((p.prefix_group, p.shared_prefix_len), (None, 0));
            assert_eq!(s.shared_prefix_len, 64.min(s.prompt_len));
            let group = s.prefix_group.expect("shared sessions carry a group");
            assert_eq!(nets()[group as usize], s.network);
        }
        // Same-network sessions share a group id.
        for a in &shared.sessions {
            for b in &shared.sessions {
                assert_eq!(a.network == b.network, a.prefix_group == b.prefix_group);
            }
        }
        // The mixed-trace builder threads the annotation through.
        let mixed_cfg =
            MixedTraceConfig::poisson(nets(), 5, 50.0, 10, 40.0, 9).with_shared_system_prompt(32);
        assert_eq!(mixed_cfg.decode.system_prompt_len, Some(32));
        let mixed = mixed_trace(&mixed_cfg);
        assert!(mixed
            .decode
            .sessions
            .iter()
            .all(|s| s.prefix_group.is_some() && s.shared_prefix_len <= s.prompt_len));
    }

    #[test]
    fn grouped_query_networks_produce_gqa_decode_sessions() {
        let cfg = DecodeTraceConfig::poisson(vec![Network::Llama3_8B], 6, 100.0, 17);
        let trace = decode_trace(&cfg);
        for s in &trace.sessions {
            assert_eq!((s.heads, s.kv_heads), (32, 8), "Llama3-8B decodes GQA-4");
        }
    }

    #[test]
    fn mixed_traces_are_deterministic_and_carry_both_legs() {
        let cfg = MixedTraceConfig::poisson(nets(), 30, 1000.0, 8, 100.0, 17);
        let a = mixed_trace(&cfg);
        assert_eq!(a, mixed_trace(&cfg), "pure function of the config");
        assert_eq!(a.prefill.len(), 30);
        assert_eq!(a.decode.sessions.len(), 8);
        assert_eq!(a.total_events(), 30 + a.decode.total_steps());
        // Each leg is internally sorted by arrival.
        for pair in a.prefill.windows(2) {
            assert!(pair[1].arrival_s >= pair[0].arrival_s);
        }
        for pair in a.decode.steps.windows(2) {
            assert!(pair[1].arrival_s >= pair[0].arrival_s);
        }
        // The legs are decorrelated: a different seed changes both.
        let b = mixed_trace(&MixedTraceConfig::poisson(nets(), 30, 1000.0, 8, 100.0, 18));
        assert_ne!(a.prefill, b.prefill);
        assert_ne!(a.decode, b.decode);
    }

    #[test]
    fn overload_burst_trace_is_deterministic_and_rng_free() {
        let cfg = OverloadBurstConfig::new(Network::Llama3_8B);
        let a = overload_burst_trace(&cfg);
        assert_eq!(a, overload_burst_trace(&cfg), "pure function of the config");
        // Every burst prefill arrives at the same instant with the same
        // coalescible shape (method-independent BatchKey fields).
        assert_eq!(a.prefill.len(), cfg.burst_prefills);
        for (i, e) in a.prefill.iter().enumerate() {
            assert_eq!(e.arrival_s, cfg.burst_at_s);
            assert_eq!(
                e.workload.seq_len,
                cfg.burst_seq_len + i * cfg.burst_seq_step,
                "distinct shapes form a convoy, not one batch"
            );
            assert_eq!(e.workload.batch, cfg.burst_batch);
            assert_eq!(e.workload.heads, a.prefill[0].workload.heads);
        }
        // Steady decode leg: staggered sessions, uniform token gaps, steps
        // globally sorted.
        assert_eq!(a.decode.sessions.len(), cfg.sessions);
        assert_eq!(a.decode.total_steps(), cfg.sessions * cfg.steps_per_session);
        for s in &a.decode.sessions {
            assert_eq!(s.start_s, s.id as f64 * cfg.session_stagger_s);
            assert_eq!(s.prompt_len, cfg.prompt_len);
            assert_eq!((s.prefix_group, s.shared_prefix_len), (None, 0));
        }
        for pair in a.decode.steps.windows(2) {
            assert!(pair[1].arrival_s >= pair[0].arrival_s);
        }
        let first = &a.decode.steps[0];
        assert!(
            (first.arrival_s - cfg.token_gap_s).abs() < 1e-12,
            "session 0's first step arrives one token gap after its start"
        );
    }

    #[test]
    fn empty_decode_trace_has_no_work() {
        let t = DecodeTrace::empty();
        assert_eq!(t.total_steps(), 0);
        assert!(t.sessions.is_empty());
    }

    #[test]
    #[should_panic(expected = "ranges must be non-empty")]
    fn inverted_decode_range_panics() {
        let cfg = DecodeTraceConfig {
            prompt_len: (9, 4),
            ..DecodeTraceConfig::poisson(nets(), 1, 1.0, 0)
        };
        let _ = decode_trace(&cfg);
    }
}
