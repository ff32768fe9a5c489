//! # mas-attention
//!
//! Public API of the MAS-Attention reproduction: memory-aware stream
//! processing for attention acceleration on resource-constrained edge devices
//! (MLSys 2025).
//!
//! The crate ties the substrates together behind a small surface:
//!
//! * [`Method`] — the evaluated attention dataflows (re-exported from
//!   `mas-dataflow`),
//! * [`Planner`] — one-call entry points: simulate a method on a workload
//!   ([`Planner::run`]), compare several methods ([`Planner::compare`]),
//!   auto-tune the tiling ([`Planner::autotune`]) and verify numerical
//!   exactness ([`Planner::verify`]),
//! * [`report`] — comparison tables with speedups, energy savings and
//!   geometric means, matching the layout of the paper's Tables 2 and 3.
//!
//! ## Quickstart
//!
//! ```
//! use mas_attention::{Method, Planner};
//! use mas_workloads::Network;
//!
//! let planner = Planner::edge_default();
//! let workload = Network::BertSmall.attention_workload(1);
//! let report = planner
//!     .compare(&workload, &[Method::Flat, Method::MasAttention])
//!     .unwrap();
//! let speedup = report.speedup(Method::Flat, Method::MasAttention).unwrap();
//! assert!(speedup > 1.0, "MAS-Attention outperforms FLAT");
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod planner;
pub mod report;
pub mod verify;

pub use mas_dataflow::DataflowKind as Method;
pub use planner::{PlannedRun, Planner, PlannerConfig, RunResult};
pub use report::{ComparisonReport, MethodRow};
pub use verify::{verify_decode, verify_decode_paged, verify_method};
