//! # mas-workloads
//!
//! Attention-layer workload definitions used by the MAS-Attention paper's
//! evaluation:
//!
//! * [`networks`] — the twelve transformer configurations of Table 1
//!   (BERT, T5, Llama3-8B, ViT and XLM variants),
//! * [`sdunet`] — the reduced Stable Diffusion 1.5 UNet used for the
//!   end-to-end on-device experiment (§5.2.2), and
//! * [`traffic`] — deterministic Poisson/burst request-trace generation for
//!   the `mas-serve` streaming runtime, autoregressive decode traces
//!   (sessions with prompts and per-token step arrivals) for its KV-cached
//!   decode path, and mixed prefill+decode traces for the unified serve
//!   engine's single-timeline co-scheduling.
//!
//! ## Example
//!
//! ```
//! use mas_workloads::networks::Network;
//!
//! let w = Network::BertBase.attention_workload(1);
//! assert_eq!(w.heads, 12);
//! assert_eq!(w.seq_len, 512);
//! assert_eq!(w.embed, 64);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod networks;
pub mod sdunet;
pub mod traffic;

pub use networks::Network;
pub use sdunet::{sd15_reduced_unet, SdAttentionUnit};
pub use traffic::{
    decode_trace, mixed_trace, overload_burst_trace, request_trace, ArrivalProcess,
    DecodeSessionSpec, DecodeStepEvent, DecodeTrace, DecodeTraceConfig, MixedTrace,
    MixedTraceConfig, OverloadBurstConfig, TraceConfig, TraceEvent, MIXED_DECODE_SEED_SALT,
};
