//! # mas
//!
//! Umbrella crate for the MAS-Attention reproduction. It re-exports the
//! public surface of every sub-crate so that examples, integration tests and
//! downstream users can depend on a single crate:
//!
//! * [`tensor`] — dense tensors, attention kernels and golden-data checking,
//! * [`sim`] — the edge-accelerator simulator (timing + energy),
//! * [`dataflow`] — the six attention dataflows including MAS-Attention,
//! * [`search`] — tiling-factor search (grid, MCTS, genetic),
//! * [`workloads`] — Table 1 networks and the Stable Diffusion UNet suite,
//! * [`npu`] — the DaVinci-like NPU model,
//! * [`api`] — the high-level planner/comparison API from `mas-attention`,
//! * [`serve`] — the streaming serving runtime (admission, micro-batching,
//!   shared schedule cache).
//!
//! ## Quickstart
//!
//! ```
//! use mas::api::{Method, Planner};
//! use mas::workloads::networks::Network;
//!
//! let workload = Network::BertBase.attention_workload(1);
//! let planner = Planner::edge_default();
//! let report = planner.compare(&workload, &[Method::Flat, Method::MasAttention]).unwrap();
//! assert!(report.speedup(Method::Flat, Method::MasAttention).unwrap() > 1.0);
//! ```

pub use mas_attention as api;
pub use mas_dataflow as dataflow;
pub use mas_npu as npu;
pub use mas_search as search;
pub use mas_serve as serve;
pub use mas_sim as sim;
pub use mas_tensor as tensor;
pub use mas_workloads as workloads;
