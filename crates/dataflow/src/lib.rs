//! # mas-dataflow
//!
//! Attention dataflows for resource-constrained edge accelerators.
//!
//! This crate lowers an attention layer (`Q, K, V ∈ R^{B×H×N×E}`) into a
//! [`mas_sim::TaskGraph`] for each of the six methods evaluated by the
//! MAS-Attention paper (MLSys 2025):
//!
//! * [`DataflowKind::LayerWise`] — unfused baseline; `C` and `P` round-trip
//!   DRAM between the three operators.
//! * [`DataflowKind::SoftPipe`] — pipelines `QKᵀ` with softmax on-chip but
//!   stores `P` to DRAM and runs `O = PV` afterwards.
//! * [`DataflowKind::Flat`] — FLAT (Kao et al., 2023): fully fused rows kept
//!   on-chip, MAC and VEC strictly serialized per round.
//! * [`DataflowKind::TileFlow`] — fused, stage-synchronous pipeline with a
//!   barrier per computation round (Zheng et al., 2023, re-implemented as in
//!   the paper's §5.1).
//! * [`DataflowKind::FuseMax`] — FuseMax scaled down to the edge device:
//!   MAC/VEC overlap with an online-softmax decomposition into extra vector
//!   passes and accumulator rescaling.
//! * [`DataflowKind::MasAttention`] — the paper's contribution: the
//!   semi-synchronous MAC/VEC stream-processing schedule of Algorithm 1 with
//!   the multi-tiered tiling of Algorithms 2–4 and the proactive buffer
//!   overwrite strategy of §4.3.
//!
//! Every builder returns a [`schedule::Schedule`]: the task graph plus
//! construction statistics (rounds, overwrite events, reload traffic). The
//! graphs are simulated by `mas-sim`; the *numerical* counterparts used for
//! golden-data checks live in [`numeric`].
//!
//! Beyond the paper's fixed-shape prefill layers, [`decode`] models
//! autoregressive *decode* steps ([`DecodeStep`]) and chunked prefill
//! ([`PrefillChunk`]): query rows attending causally over the session's KV
//! cache, counted by one closed form (a decode step is a one-row chunk),
//! with per-step cost linear in the context and DRAM traffic that counts
//! only the new-token operands beyond the unavoidable cache streaming.
//! [`cost`] provides [`TrackDemand`], the one demand record prefill
//! workloads, chunks and decode steps lower into, and its three-stream view
//! [`StreamDemand`] — what the serving layer's unified prefill+decode launch
//! timeline is costed with.
//!
//! ## Example
//!
//! ```
//! use mas_dataflow::{AttentionWorkload, DataflowKind, Tiling, build_dataflow};
//! use mas_sim::{Executor, HardwareConfig, EnergyModel};
//!
//! let hw = HardwareConfig::edge_default();
//! let w = AttentionWorkload::new("toy", 1, 2, 128, 64);
//! let tiling = Tiling::heuristic(&w, &hw);
//! let flat = build_dataflow(DataflowKind::Flat, &w, &tiling, &hw).unwrap();
//! let mas = build_dataflow(DataflowKind::MasAttention, &w, &tiling, &hw).unwrap();
//! let exec = Executor::new(hw, EnergyModel::edge_16nm());
//! let flat_cycles = exec.run(flat.graph()).unwrap().total_cycles;
//! let mas_cycles = exec.run(mas.graph()).unwrap().total_cycles;
//! assert!(mas_cycles < flat_cycles);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cost;
pub mod decode;
pub mod flat;
pub mod footprint;
pub mod fusemax;
pub mod kind;
pub mod layerwise;
pub mod mas;
pub mod max_seqlen;
pub mod numeric;
pub mod overwrite;
pub mod schedule;
pub mod softpipe;
pub mod tileflow;
pub mod tiling;
pub mod workload;

pub use cost::{StreamDemand, TrackDemand};
pub use decode::{DecodeStep, PrefillChunk};
pub use kind::DataflowKind;
pub use mas_tensor::half::KvDtype;
pub use schedule::{build_dataflow, BuildStats, Schedule};
pub use tiling::Tiling;
pub use workload::AttentionWorkload;
