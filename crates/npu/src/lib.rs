//! # mas-npu
//!
//! A DaVinci-like edge NPU model standing in for the Huawei MatePad Pro
//! 13.2 (Kirin 990 5G) used in the paper's real-hardware experiments
//! (Figure 5 and §5.2.2).
//!
//! The real device exposes three NPU cores — two Ascend Lite cores and one
//! Ascend Tiny core — each with a cube (matrix) unit, a vector unit and
//! dedicated on-chip memory. No public cycle-accurate simulator of the
//! DaVinci architecture exists, so this crate lowers each core to the
//! `mas-sim` edge device and prices it there:
//!
//! * [`device::NpuDevice`] describes the cores (cube throughput, vector
//!   throughput, unified-buffer capacity, clock),
//! * [`model::NpuModel`] partitions heads across the heterogeneous cores,
//!   lowers each core to a one-core `mas_sim::HardwareConfig` and runs its
//!   head share's `mas-dataflow` graph — the graphs Tables 2/3 simulate —
//!   on the cycle simulator, with the query row-block chosen by grid search
//!   over the core's buffer (the paper uses grid search on this device),
//! * [`numeric`] gives the model a numeric golden check: attention computed
//!   with the modelled core partition and row-block structure on the
//!   `mas-tensor` slice kernels (`dot` / `softmax_row` / `axpy`), compared
//!   against the unfused reference with `golden_check` (§5.1), and
//! * [`e2e`] assembles the reduced Stable Diffusion 1.5 UNet end-to-end
//!   estimate of §5.2.2.
//!
//! Absolute milliseconds are not meaningful (the real device's kernel launch
//! and DMA engines are proprietary); the *normalized* execution times of
//! Figure 5 — which method is faster and by roughly what factor — are what
//! this model reproduces.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod device;
pub mod e2e;
pub mod model;
pub mod numeric;

pub use device::{NpuCore, NpuDevice};
pub use model::{NpuLatency, NpuModel};
