//! Tasks: the unit of work scheduled by the simulator.
//!
//! A task occupies exactly one [`Resource`] (a core's MAC unit, a core's VEC
//! unit, or a DMA channel) for a duration determined by the timing model, and
//! contributes energy determined by the energy model. Dataflow builders in
//! `mas-dataflow` translate Algorithms 1–4 of the paper (and each baseline's
//! schedule) into streams of tasks with dependencies.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Identifier of a task within a [`crate::graph::TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// The task's index in insertion order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// The id `tasks` places later in program order.
    #[must_use]
    pub fn later(self, tasks: usize) -> TaskId {
        TaskId(self.0 + tasks)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A hardware resource that executes tasks serially.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Resource {
    /// The MAC (matrix multiply-accumulate) unit of one core.
    Mac {
        /// Core index, `0..cores`.
        core: usize,
    },
    /// The VEC (element-wise / vector) unit of one core.
    Vec {
        /// Core index, `0..cores`.
        core: usize,
    },
    /// The inbound DMA channel (DRAM → L1).
    DmaIn,
    /// The outbound DMA channel (L1 → DRAM).
    DmaOut,
}

impl Resource {
    /// Whether this resource is a compute unit (MAC or VEC) rather than a DMA
    /// channel.
    #[must_use]
    pub fn is_compute(&self) -> bool {
        matches!(self, Resource::Mac { .. } | Resource::Vec { .. })
    }

    /// The core index for compute resources, `None` for DMA channels.
    #[must_use]
    pub fn core(&self) -> Option<usize> {
        match self {
            Resource::Mac { core } | Resource::Vec { core } => Some(*core),
            _ => None,
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Mac { core } => write!(f, "MAC{core}"),
            Resource::Vec { core } => write!(f, "VEC{core}"),
            Resource::DmaIn => write!(f, "DMA-in"),
            Resource::DmaOut => write!(f, "DMA-out"),
        }
    }
}

/// One of the four per-device execution *tracks* of the overlap-aware
/// executor — the queue a launch stage occupies. Tracks are the
/// continuous-time counterpart of [`Resource`]: a device schedules each
/// track FIFO and independently, so stages of successive tiles overlap
/// across tracks (tile `k+1`'s DMA hides under tile `k`'s compute) while
/// stages on one track serialize.
///
/// The numeric order ([`TrackKind::index`]) is the dataflow order of one
/// tile — stream in, multiply, reduce, write back — and is also the
/// per-device thread ordering used by the Chrome trace exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TrackKind {
    /// Inbound DMA queue (DRAM → L1 operand/KV streaming).
    DmaIn,
    /// MAC (matrix) compute queue.
    Mac,
    /// VEC (softmax / element-wise) compute queue.
    Vec,
    /// Outbound DMA queue (L1 → DRAM result/appended-row writeback).
    Writeback,
}

/// Number of per-device tracks ([`TrackKind`] variants).
pub const TRACK_COUNT: usize = 4;

impl TrackKind {
    /// All tracks in dataflow order (also the index order).
    pub const ALL: [TrackKind; TRACK_COUNT] = [
        TrackKind::DmaIn,
        TrackKind::Mac,
        TrackKind::Vec,
        TrackKind::Writeback,
    ];

    /// The track's stable index, `0..TRACK_COUNT`, in dataflow order.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            TrackKind::DmaIn => 0,
            TrackKind::Mac => 1,
            TrackKind::Vec => 2,
            TrackKind::Writeback => 3,
        }
    }

    /// The cycle-level [`Resource`] this track corresponds to on core 0 of
    /// a device (used when lowering a stage pipeline to a task graph).
    #[must_use]
    pub fn resource(self) -> Resource {
        match self {
            TrackKind::DmaIn => Resource::DmaIn,
            TrackKind::Mac => Resource::Mac { core: 0 },
            TrackKind::Vec => Resource::Vec { core: 0 },
            TrackKind::Writeback => Resource::DmaOut,
        }
    }
}

impl fmt::Display for TrackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrackKind::DmaIn => write!(f, "dma-in"),
            TrackKind::Mac => write!(f, "mac"),
            TrackKind::Vec => write!(f, "vec"),
            TrackKind::Writeback => write!(f, "writeback"),
        }
    }
}

/// The kind of work a task performs; drives both timing and energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// A tiled matrix multiplication `[m × k] · [k × n]` executed on a MAC
    /// unit (`m·k·n` multiply-accumulates).
    MatMul {
        /// Output rows.
        m: usize,
        /// Contracted dimension.
        k: usize,
        /// Output columns.
        n: usize,
    },
    /// Row-wise softmax over a `rows × cols` tile executed on a VEC unit.
    Softmax {
        /// Number of rows.
        rows: usize,
        /// Row length.
        cols: usize,
    },
    /// A generic element-wise pass over `elements` values, `passes` times
    /// (used for FuseMax's extra online-softmax correction passes and other
    /// vector workloads such as rescaling).
    VecOp {
        /// Number of elements touched per pass.
        elements: usize,
        /// Number of passes over the elements.
        passes: usize,
    },
    /// DRAM → L1 transfer of `bytes` bytes on the inbound DMA channel.
    DramLoad {
        /// Transfer size in bytes.
        bytes: usize,
    },
    /// L1 → DRAM transfer of `bytes` bytes on the outbound DMA channel.
    DramStore {
        /// Transfer size in bytes.
        bytes: usize,
    },
    /// A zero-duration synchronization point (used to express the
    /// semi-synchronous round barriers of Algorithm 1).
    Barrier,
}

impl TaskKind {
    /// Multiply-accumulate operations performed by this task.
    #[must_use]
    pub fn mac_ops(&self) -> u64 {
        match self {
            TaskKind::MatMul { m, k, n } => (*m as u64) * (*k as u64) * (*n as u64),
            _ => 0,
        }
    }

    /// VEC-lane operations performed by this task, given the configured
    /// per-element softmax cost.
    #[must_use]
    pub fn vec_ops(&self, softmax_ops_per_element: usize) -> u64 {
        match self {
            TaskKind::Softmax { rows, cols } => {
                (*rows as u64) * (*cols as u64) * softmax_ops_per_element as u64
            }
            TaskKind::VecOp { elements, passes } => (*elements as u64) * (*passes as u64),
            _ => 0,
        }
    }

    /// Bytes read from DRAM by this task.
    #[must_use]
    pub fn dram_read_bytes(&self) -> u64 {
        match self {
            TaskKind::DramLoad { bytes } => *bytes as u64,
            _ => 0,
        }
    }

    /// Bytes written to DRAM by this task.
    #[must_use]
    pub fn dram_write_bytes(&self) -> u64 {
        match self {
            TaskKind::DramStore { bytes } => *bytes as u64,
            _ => 0,
        }
    }

    /// Whether this is a compute kind (must run on a MAC or VEC resource).
    #[must_use]
    pub fn is_compute(&self) -> bool {
        matches!(
            self,
            TaskKind::MatMul { .. } | TaskKind::Softmax { .. } | TaskKind::VecOp { .. }
        )
    }
}

/// A task's human-readable label, e.g. `"c0 r3: C_3,1 = Q_3 K_1^T"`.
///
/// Only traced runs ever read a label, so building a graph renders none:
/// a label keeps its template and up to four integer arguments, and its
/// [`fmt::Display`] renders the text when a trace is printed or exported.
/// In a template, `{0}` to `{3}` stand for the arguments; any other text,
/// braces included, renders as written. Plain text (a `&'static str` or an
/// owned `String`) converts into a label unchanged. Two labels are equal
/// when they render the same text, whatever their form.
#[derive(Clone, Serialize, Deserialize)]
pub struct Label(LabelRepr);

#[derive(Clone, Serialize, Deserialize)]
enum LabelRepr {
    Text(&'static str),
    Owned(Box<str>),
    Template(&'static str, [usize; 4]),
}

impl Label {
    /// A label rendering `template` with `{k}` replaced by `args[k]`.
    #[must_use]
    pub fn new<const N: usize>(template: &'static str, args: [usize; N]) -> Self {
        const { assert!(N <= 4, "a label template takes at most four arguments") };
        let mut all = [0; 4];
        all[..N].copy_from_slice(&args);
        Self(LabelRepr::Template(template, all))
    }

    /// How far each template argument moved from `earlier` to this label,
    /// so that `earlier.advanced(delta, 1)` renders like this label; `None`
    /// when the two are different templates, or different plain texts.
    pub(crate) fn delta_from(&self, earlier: &Label) -> Option<[usize; 4]> {
        match (&self.0, &earlier.0) {
            (LabelRepr::Template(t, a), LabelRepr::Template(u, b)) if t == u => {
                Some(std::array::from_fn(|k| a[k].wrapping_sub(b[k])))
            }
            (LabelRepr::Template(..), _) | (_, LabelRepr::Template(..)) => None,
            _ => (self == earlier).then_some([0; 4]),
        }
    }

    /// This label with each template argument moved `times` steps of
    /// `delta` on (plain text is returned as it is).
    pub(crate) fn advanced(&self, delta: &[usize; 4], times: usize) -> Label {
        match &self.0 {
            LabelRepr::Template(template, args) => Self(LabelRepr::Template(
                template,
                std::array::from_fn(|k| args[k].wrapping_add(delta[k].wrapping_mul(times))),
            )),
            _ => self.clone(),
        }
    }

    /// Whether the label renders exactly `text`, compared as it renders.
    fn renders(&self, text: &str) -> bool {
        /// Consumes the expected text as the label writes it.
        struct Expect<'a>(&'a str);
        impl fmt::Write for Expect<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut expect = Expect(text);
        fmt::write(&mut expect, format_args!("{self}")).is_ok() && expect.0.is_empty()
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (mut rest, args) = match &self.0 {
            LabelRepr::Text(text) => return f.write_str(text),
            LabelRepr::Owned(text) => return f.write_str(text),
            LabelRepr::Template(template, args) => (*template, args),
        };
        while let Some(at) = rest.find('{') {
            f.write_str(&rest[..at])?;
            rest = &rest[at..];
            if let [b'{', digit @ b'0'..=b'3', b'}', ..] = rest.as_bytes() {
                write!(f, "{}", args[usize::from(digit - b'0')])?;
                rest = &rest[3..];
            } else {
                f.write_str("{")?;
                rest = &rest[1..];
            }
        }
        f.write_str(rest)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

impl From<&'static str> for Label {
    fn from(text: &'static str) -> Self {
        Self(LabelRepr::Text(text))
    }
}

impl From<String> for Label {
    fn from(text: String) -> Self {
        Self(LabelRepr::Owned(text.into_boxed_str()))
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (LabelRepr::Template(t, a), LabelRepr::Template(u, b)) if t == u && a == b => true,
            _ => self.renders(&other.to_string()),
        }
    }
}

impl Eq for Label {}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.renders(other)
    }
}

/// A task of a [`crate::graph::TaskGraph`] ([`crate::graph::TaskGraph::iter`],
/// [`crate::graph::TaskGraph::get`]). A stored task's label and
/// dependencies are borrowed from the graph; a task of a repeated period
/// past its first instance gets them computed
/// ([`crate::graph::TaskGraph::repeat`]).
#[derive(Debug, Clone)]
pub struct Task<'g> {
    /// Identifier (index in insertion order).
    pub id: TaskId,
    /// Human-readable label, rendered only when displayed.
    pub label: Cow<'g, Label>,
    /// The resource this task occupies.
    pub resource: Resource,
    /// What the task does.
    pub kind: TaskKind,
    deps: Cow<'g, [TaskId]>,
}

impl<'g> Task<'g> {
    pub(crate) fn new(
        id: TaskId,
        label: Cow<'g, Label>,
        resource: Resource,
        kind: TaskKind,
        deps: Cow<'g, [TaskId]>,
    ) -> Self {
        Self {
            id,
            label,
            resource,
            kind,
            deps,
        }
    }

    /// Tasks that must complete before this one starts, in the order they
    /// were given (repeats kept).
    #[must_use]
    pub fn deps(&self) -> &[TaskId] {
        &self.deps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_op_counts() {
        let k = TaskKind::MatMul { m: 4, k: 8, n: 2 };
        assert_eq!(k.mac_ops(), 64);
        assert_eq!(k.vec_ops(64), 0);
        assert_eq!(k.dram_read_bytes(), 0);
        assert!(k.is_compute());
    }

    #[test]
    fn softmax_op_counts_scale_with_configured_cost() {
        let k = TaskKind::Softmax { rows: 2, cols: 8 };
        assert_eq!(k.vec_ops(10), 160);
        assert_eq!(k.vec_ops(64), 1024);
        assert_eq!(k.mac_ops(), 0);
    }

    #[test]
    fn vecop_counts_passes() {
        let k = TaskKind::VecOp {
            elements: 100,
            passes: 3,
        };
        assert_eq!(k.vec_ops(64), 300);
    }

    #[test]
    fn dma_kinds_report_traffic() {
        assert_eq!(TaskKind::DramLoad { bytes: 123 }.dram_read_bytes(), 123);
        assert_eq!(TaskKind::DramStore { bytes: 77 }.dram_write_bytes(), 77);
        assert!(!TaskKind::DramLoad { bytes: 1 }.is_compute());
        assert_eq!(TaskKind::Barrier.mac_ops(), 0);
    }

    #[test]
    fn resource_properties() {
        assert!(Resource::Mac { core: 0 }.is_compute());
        assert!(Resource::Vec { core: 1 }.is_compute());
        assert!(!Resource::DmaIn.is_compute());
        assert_eq!(Resource::Mac { core: 1 }.core(), Some(1));
        assert_eq!(Resource::DmaOut.core(), None);
        assert_eq!(format!("{}", Resource::Mac { core: 0 }), "MAC0");
        assert_eq!(format!("{}", Resource::DmaIn), "DMA-in");
    }

    #[test]
    fn track_kinds_enumerate_in_dataflow_order() {
        for (i, t) in TrackKind::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
        assert_eq!(TrackKind::ALL.len(), TRACK_COUNT);
        assert_eq!(TrackKind::DmaIn.resource(), Resource::DmaIn);
        assert_eq!(TrackKind::Mac.resource(), Resource::Mac { core: 0 });
        assert_eq!(TrackKind::Vec.resource(), Resource::Vec { core: 0 });
        assert_eq!(TrackKind::Writeback.resource(), Resource::DmaOut);
        assert_eq!(format!("{}", TrackKind::Writeback), "writeback");
    }

    #[test]
    fn labels_render_their_template_on_demand() {
        let label = Label::new("c{0} r{1}: C_{1},{2} = Q_{1} K_{2}^T", [3, 12, 0]);
        assert_eq!(label.to_string(), "c3 r12: C_12,0 = Q_12 K_0^T");
        assert_eq!(Label::new("{x} {4} {0", [7]).to_string(), "{x} {4} {0");
        assert_eq!(Label::new("no arguments", []).to_string(), "no arguments");
        assert_eq!(format!("{:?}", Label::new("t{0}", [1])), "\"t1\"");
    }

    #[test]
    fn label_equality_compares_rendered_text() {
        let template = Label::new("t{0}", [12]);
        assert_eq!(template, "t12");
        assert_eq!(template, Label::from("t12"));
        assert_eq!(Label::from(String::from("t12")), template);
        assert_eq!(template, Label::new("t1{0}", [2]));
        assert_ne!(template, Label::new("t{0}", [1]));
        assert_ne!(template, "t1");
        assert_ne!(template, "t123");
    }

    #[test]
    fn labels_advance_by_their_argument_deltas() {
        let earlier = Label::new("c{0} r{1}", [3, 7]);
        let later = Label::new("c{0} r{1}", [3, 9]);
        let delta = later.delta_from(&earlier).unwrap();
        assert_eq!(earlier.advanced(&delta, 1), later);
        assert_eq!(earlier.advanced(&delta, 5), "c3 r17");
        assert_eq!(Label::new("x{0}", [1]).delta_from(&earlier), None);
        assert_eq!(Label::from("t").delta_from(&Label::from("t")), Some([0; 4]));
        assert_eq!(Label::from("t").delta_from(&Label::from("u")), None);
        assert_eq!(Label::from("t").advanced(&[1; 4], 3), "t");
    }

    #[test]
    fn task_id_display_and_index() {
        let id = TaskId(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "#42");
    }
}
