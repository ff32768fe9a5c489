//! # mas-sim
//!
//! An event-driven simulator for resource-constrained edge neural
//! accelerators, replacing the Timeloop + Accelergy + TileFlow toolchain used
//! by the MAS-Attention paper (MLSys 2025) for its simulated-hardware
//! experiments.
//!
//! The simulator consumes three inputs:
//!
//! 1. a **hardware configuration** ([`config::HardwareConfig`]) — clock
//!    frequency, number of cores, MAC-array and VEC-unit geometry, L1/L0
//!    capacities and DRAM bandwidth (the paper's Figure 4 device is
//!    [`config::HardwareConfig::edge_default`]),
//! 2. an **energy model** ([`energy::EnergyModel`]) — per-byte access energies
//!    for DRAM/L1/L0 and per-op energies for the MAC and VEC processing
//!    elements, in the style of Accelergy, and
//! 3. a **task graph** ([`graph::TaskGraph`]) — tiled compute and DMA tasks
//!    with explicit dependencies, produced by the dataflow builders in
//!    `mas-dataflow`.
//!
//! The executor ([`executor::Executor`]) performs a list-scheduled,
//! event-driven simulation across the device's resources (per-core MAC and
//! VEC units, DMA channels) and produces a [`report::SimReport`]: makespan in
//! cycles and seconds, per-resource busy/idle time, energy broken down by
//! component (Figure 6), and DRAM read/write traffic (§5.4).
//!
//! ## Graph construction
//!
//! A search simulates thousands of candidate graphs, so building one must
//! cost little per task:
//!
//! - **Labels are rendered only when read.** A [`task::Label`] keeps a
//!   `&'static str` template and up to four integers; its `Display`
//!   renders the text. Building and simulating a graph formats nothing;
//!   only printing or exporting a trace ([`trace::TraceEntry`] keeps the
//!   label unrendered too) does. Plain `&'static str` and `String` labels
//!   are accepted as they are.
//! - **Dependencies are stored in CSR form.** The graph keeps every stored
//!   task's dependencies back to back in one array, with one offset per
//!   task, and hands out [`task::Task`] views whose `deps()` slice points
//!   into it. Adding a task allocates nothing of its own.
//! - **Repeated rounds are stored once.** [`graph::TaskGraph::repeat`]
//!   keeps one period of a builder's rounds with a repeat count; every
//!   further instance exists only as a range of program indices, and the
//!   executor reads the template rather than per-instance rows. The graph
//!   still reads as every task in order ([`graph::TaskGraph::iter`],
//!   [`graph::TaskGraph::expand`]).
//! - **Validation is a single pass for builder graphs.**
//!   [`graph::TaskGraph::validate`] returns `Ok` after one allocation-free
//!   pass over the stored tasks when every dependency points to an earlier
//!   task, which the dataflow builders and every repeat guarantee. Other graphs get the full check (unknown
//!   ids, then Kahn's algorithm), with the same errors.
//!
//! ## Example
//!
//! ```
//! use mas_sim::config::HardwareConfig;
//! use mas_sim::energy::EnergyModel;
//! use mas_sim::graph::TaskGraph;
//! use mas_sim::task::{Label, TaskKind, Resource};
//! use mas_sim::executor::Executor;
//!
//! let hw = HardwareConfig::edge_default();
//! let mut graph = TaskGraph::new();
//! // Load a 1 KiB tile, multiply, then store the result.
//! let load = graph.add_task("load K tile", Resource::DmaIn, TaskKind::DramLoad { bytes: 1024 }, &[]);
//! let mm = graph.add_task(
//!     Label::new("C_{0} = Q_{0} K^T", [3]),
//!     Resource::Mac { core: 0 },
//!     TaskKind::MatMul { m: 16, k: 64, n: 16 },
//!     &[load],
//! );
//! graph.add_task("store C tile", Resource::DmaOut, TaskKind::DramStore { bytes: 512 }, &[mm]);
//! graph.validate().unwrap();
//!
//! let report = Executor::new(hw, EnergyModel::edge_16nm()).run(&graph).unwrap();
//! assert!(report.total_cycles > 0);
//! // The label is rendered here, when the trace is read.
//! let trace = report.trace.unwrap();
//! assert_eq!(trace.entries()[1].label.to_string(), "C_3 = Q_3 K^T");
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod buffer;
pub mod config;
pub mod energy;
pub mod error;
pub mod executor;
pub mod graph;
pub mod report;
pub mod task;
pub mod timing;
pub mod trace;

pub use config::HardwareConfig;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use error::{Result, SimError};
pub use executor::{DeviceTracks, Executor, StageSpan, TrackConfig, TrackPlacement};
pub use graph::TaskGraph;
pub use report::SimReport;
pub use task::{Label, Resource, TaskId, TaskKind, TrackKind, TRACK_COUNT};
