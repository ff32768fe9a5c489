//! Stream-demand cost glue shared by the serving layer's merged launch path.
//!
//! A device launch — whether it carries a merged prefill batch or a batched
//! set of decode steps — is bounded by the same three streams: MAC work,
//! VEC (softmax) work and DRAM traffic. [`StreamDemand`] is the common
//! currency: both work classes lower into it, demands of co-launched work
//! items add component-wise, and [`StreamDemand::bound_seconds`] turns the
//! sum into the physical service-time bound on a given device. The serve
//! engine's unified prefill+decode timeline costs every launch through this
//! one type, so the two traffic classes are comparable by construction.
//!
//! The arithmetic is deliberately bit-for-bit identical to the historical
//! per-class formulas (prefill admission's service-time lower bound and the
//! decode launch cost model): each component is computed per item in `f64`,
//! accumulated in item order, and divided by the device rate once at the
//! end. Refactoring the call sites onto this type therefore changes no
//! report anywhere.

use mas_sim::HardwareConfig;

use crate::decode::{DecodeStep, PrefillChunk};
use crate::workload::AttentionWorkload;

/// The three-stream resource demand of one unit of attention work (a
/// prefill workload or a decode step), in device-independent units:
/// multiply-accumulates, VEC-lane operations and DRAM bytes.
///
/// Demands of work items sharing a launch add component-wise
/// ([`StreamDemand::accumulate`]); the launch's physical service-time bound
/// on a device is the binding component ([`StreamDemand::bound_seconds`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamDemand {
    /// Multiply-accumulate operations.
    pub mac_ops: f64,
    /// VEC-lane operations (softmax elements times the per-element op
    /// count of the device's softmax decomposition).
    pub vec_ops: f64,
    /// Minimum DRAM traffic in bytes.
    pub dram_bytes: f64,
}

impl StreamDemand {
    /// The demand of one fixed-shape prefill attention workload: its full
    /// MAC count, its softmax elements at the device's VEC cost per
    /// element, and its minimum DRAM traffic.
    #[must_use]
    pub fn of_prefill(workload: &AttentionWorkload, hw: &HardwareConfig) -> Self {
        Self {
            mac_ops: workload.total_mac_ops() as f64,
            vec_ops: workload.softmax_elements() as f64 * hw.softmax_ops_per_element as f64,
            dram_bytes: workload.min_dram_traffic_bytes(hw.element_bytes) as f64,
        }
    }

    /// The demand of one decode step: linear-in-context MAC and softmax
    /// work plus the KV-cache stream and new-token rows, with the KV terms
    /// of the DRAM traffic priced at `kv_element_bytes`
    /// ([`DecodeStep::min_dram_traffic_bytes_split`]; pass
    /// `hw.element_bytes` for KV stored at the compute width): a narrower KV
    /// dtype shrinks the cache stream — and so the DRAM-bound service time —
    /// but leaves MAC and softmax work untouched (compute widens to f32).
    #[must_use]
    pub fn of_decode_step_with_kv(
        step: &DecodeStep,
        hw: &HardwareConfig,
        kv_element_bytes: usize,
    ) -> Self {
        Self {
            mac_ops: step.mac_ops() as f64,
            vec_ops: step.softmax_elements() as f64 * hw.softmax_ops_per_element as f64,
            dram_bytes: step.min_dram_traffic_bytes_split(hw.element_bytes, kv_element_bytes)
                as f64,
        }
    }

    /// The demand of one chunk of a chunked prefill with the KV terms
    /// priced at `kv_element_bytes`: the decode cost split
    /// ([`StreamDemand::of_decode_step_with_kv`]) summed in closed form over
    /// the chunk's causal query rows ([`PrefillChunk`]). A chunk covering a
    /// whole prompt therefore prices identically to the per-token decode
    /// chain it replaces, up to the per-launch issue overhead.
    #[must_use]
    pub fn of_prefill_chunk_with_kv(
        chunk: &PrefillChunk,
        hw: &HardwareConfig,
        kv_element_bytes: usize,
    ) -> Self {
        Self {
            mac_ops: chunk.mac_ops() as f64,
            vec_ops: chunk.softmax_elements() as f64 * hw.softmax_ops_per_element as f64,
            dram_bytes: chunk.min_dram_traffic_bytes_split(hw.element_bytes, kv_element_bytes)
                as f64,
        }
    }

    /// Adds another work item's demand component-wise (work items sharing a
    /// launch each stream their own operands and compute their own rows, so
    /// demands sum).
    pub fn accumulate(&mut self, other: &Self) {
        self.mac_ops += other.mac_ops;
        self.vec_ops += other.vec_ops;
        self.dram_bytes += other.dram_bytes;
    }

    /// Physical lower bound on the service time of this demand on an idle
    /// device: the largest of peak-throughput MAC time, peak-throughput VEC
    /// time and minimum DRAM traffic time. Queueing, tiling overheads and
    /// launch issue cost only add to this.
    #[must_use]
    pub fn bound_seconds(&self, hw: &HardwareConfig) -> f64 {
        let mac_s = self.mac_ops / hw.peak_macs_per_second();
        let vec_s = self.vec_ops / (hw.vec_ops_per_cycle_total() as f64 * hw.frequency_hz);
        let dram_s = self.dram_bytes / hw.dram_bandwidth_bytes_per_s;
        mac_s.max(vec_s).max(dram_s)
    }
}

/// The four-track resource demand of one unit of attention work: the
/// [`StreamDemand`] streams with the DRAM traffic split by direction, in
/// exact integer units. This is the currency the overlap-aware track
/// executor schedules — operand/KV streaming rides the DMA-in queue,
/// MAC and VEC work ride the two compute queues, and result rows ride the
/// writeback queue, so a launch's stages can overlap across queues instead
/// of collapsing to the scalar `max` bound.
///
/// Components are integers by construction (op and byte counts), which
/// makes [`TrackDemand::split_stages`] exact: the per-stage demands of a
/// tiled launch telescope back to the monolithic demand with zero rounding
/// drift, and [`TrackDemand::stream`] reproduces the closed-form
/// [`StreamDemand`] bit-for-bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackDemand {
    /// Read-direction DRAM bytes (operand / KV-cache streaming in).
    pub dma_in_bytes: u64,
    /// Multiply-accumulate operations on the MAC queue.
    pub mac_ops: u64,
    /// VEC-lane operations (softmax elements times the device's per-element
    /// op count) on the VEC queue.
    pub vec_ops: u64,
    /// Write-direction DRAM bytes (appended KV rows / output rows out).
    pub writeback_bytes: u64,
}

impl TrackDemand {
    /// The four-track demand of one fixed-shape prefill attention workload:
    /// reads `Q`/`K`/`V`, computes, writes `O`.
    #[must_use]
    pub fn of_prefill(workload: &AttentionWorkload, hw: &HardwareConfig) -> Self {
        let total = workload.min_dram_traffic_bytes(hw.element_bytes);
        let write = workload.min_dram_write_bytes(hw.element_bytes);
        Self {
            dma_in_bytes: total - write,
            mac_ops: workload.total_mac_ops(),
            vec_ops: workload.softmax_elements() * hw.softmax_ops_per_element as u64,
            writeback_bytes: write,
        }
    }

    /// The four-track demand of one decode step with KV terms priced at
    /// `kv_element_bytes`: streams the cached `K`/`V` plus the `q` row in,
    /// writes the appended `k`/`v` rows and the `o` row back.
    #[must_use]
    pub fn of_decode_step_with_kv(
        step: &DecodeStep,
        hw: &HardwareConfig,
        kv_element_bytes: usize,
    ) -> Self {
        let total = step.min_dram_traffic_bytes_split(hw.element_bytes, kv_element_bytes);
        let write = step.min_dram_write_bytes_split(hw.element_bytes, kv_element_bytes);
        Self {
            dma_in_bytes: total - write,
            mac_ops: step.mac_ops(),
            vec_ops: step.softmax_elements() * hw.softmax_ops_per_element as u64,
            writeback_bytes: write,
        }
    }

    /// The four-track demand of one chunk of a chunked prefill — the decode
    /// split summed in closed form over the chunk's causal rows, exactly as
    /// [`StreamDemand::of_prefill_chunk_with_kv`].
    #[must_use]
    pub fn of_prefill_chunk_with_kv(
        chunk: &PrefillChunk,
        hw: &HardwareConfig,
        kv_element_bytes: usize,
    ) -> Self {
        let total = chunk.min_dram_traffic_bytes_split(hw.element_bytes, kv_element_bytes);
        let write = chunk.min_dram_write_bytes_split(hw.element_bytes, kv_element_bytes);
        Self {
            dma_in_bytes: total - write,
            mac_ops: chunk.mac_ops(),
            vec_ops: chunk.softmax_elements() * hw.softmax_ops_per_element as u64,
            writeback_bytes: write,
        }
    }

    /// Adds another work item's demand component-wise (co-launched items
    /// each stream their own operands, so demands sum, exactly as
    /// [`StreamDemand::accumulate`]).
    pub fn accumulate(&mut self, other: &Self) {
        self.dma_in_bytes += other.dma_in_bytes;
        self.mac_ops += other.mac_ops;
        self.vec_ops += other.vec_ops;
        self.writeback_bytes += other.writeback_bytes;
    }

    /// Collapses the four tracks back to the three-stream closed form. The
    /// result is bit-identical to the corresponding [`StreamDemand`]
    /// constructor: both DMA directions re-merge into one DRAM-byte stream,
    /// and all counts are integers below 2^53 so the `u64 → f64` casts are
    /// exact.
    #[must_use]
    pub fn stream(&self) -> StreamDemand {
        StreamDemand {
            mac_ops: self.mac_ops as f64,
            vec_ops: self.vec_ops as f64,
            dram_bytes: (self.dma_in_bytes + self.writeback_bytes) as f64,
        }
    }

    /// Splits the demand into `stages` per-tile stage demands that sum back
    /// to `self` *exactly*. Stage `k` of `S` receives
    /// `⌊c·(k+1)/S⌋ − ⌊c·k/S⌋` of each component `c` — the telescoping
    /// floors partition every integer count with zero remainder, so the
    /// stage-split schedule conserves work by construction (no component
    /// exceeds ~2^53, so the intermediate `c·S` products cannot overflow).
    #[must_use]
    pub fn split_stages(&self, stages: usize) -> Vec<Self> {
        let stages = stages.max(1);
        let share = |c: u64, k: usize| -> u64 {
            c * (k as u64 + 1) / stages as u64 - c * k as u64 / stages as u64
        };
        (0..stages)
            .map(|k| Self {
                dma_in_bytes: share(self.dma_in_bytes, k),
                mac_ops: share(self.mac_ops, k),
                vec_ops: share(self.vec_ops, k),
                writeback_bytes: share(self.writeback_bytes, k),
            })
            .collect()
    }

    /// Per-track ideal seconds on `hw`, indexed
    /// `[dma-in, mac, vec, writeback]` (the track order of
    /// `mas_sim::TrackKind`): each track's work at its queue's peak rate.
    /// The scalar [`StreamDemand::bound_seconds`] is the max of these with
    /// the two DMA directions fused — splitting the directions can only
    /// lower the per-queue times, never the compute ones.
    #[must_use]
    pub fn track_seconds(&self, hw: &HardwareConfig) -> [f64; 4] {
        [
            self.dma_in_bytes as f64 / hw.dram_bandwidth_bytes_per_s,
            self.mac_ops as f64 / hw.peak_macs_per_second(),
            self.vec_ops as f64 / (hw.vec_ops_per_cycle_total() as f64 * hw.frequency_hz),
            self.writeback_bytes as f64 / hw.dram_bandwidth_bytes_per_s,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareConfig {
        HardwareConfig::edge_default()
    }

    #[test]
    fn prefill_demand_matches_the_workload_counters() {
        let hw = hw();
        let w = AttentionWorkload::new("toy", 1, 8, 256, 64);
        let d = StreamDemand::of_prefill(&w, &hw);
        assert_eq!(d.mac_ops, w.total_mac_ops() as f64);
        assert_eq!(
            d.vec_ops,
            w.softmax_elements() as f64 * hw.softmax_ops_per_element as f64
        );
        assert_eq!(
            d.dram_bytes,
            w.min_dram_traffic_bytes(hw.element_bytes) as f64
        );
        assert!(d.bound_seconds(&hw) > 0.0);
    }

    #[test]
    fn decode_demand_is_linear_in_context() {
        let hw = hw();
        let short = StreamDemand::of_decode_step_with_kv(
            &DecodeStep::new("s", 1, 8, 128, 64),
            &hw,
            hw.element_bytes,
        );
        let long = StreamDemand::of_decode_step_with_kv(
            &DecodeStep::new("s", 1, 8, 256, 64),
            &hw,
            hw.element_bytes,
        );
        assert_eq!(long.mac_ops, 2.0 * short.mac_ops);
        assert_eq!(long.vec_ops, 2.0 * short.vec_ops);
        assert!(long.bound_seconds(&hw) > short.bound_seconds(&hw));
    }

    #[test]
    fn kv_priced_demand_shrinks_only_dram_bytes() {
        let hw = hw();
        let step = DecodeStep::new("d", 1, 8, 4096, 64);
        let full = StreamDemand::of_decode_step_with_kv(&step, &hw, hw.element_bytes);
        let half = StreamDemand::of_decode_step_with_kv(&step, &hw, hw.element_bytes / 2);
        assert_eq!(half.mac_ops, full.mac_ops);
        assert_eq!(half.vec_ops, full.vec_ops);
        assert!(half.dram_bytes < full.dram_bytes);
        // Equal pricing is exactly the unsplit traffic.
        assert_eq!(
            full.dram_bytes,
            step.min_dram_traffic_bytes(hw.element_bytes) as f64
        );
    }

    #[test]
    fn accumulation_sums_components_in_order() {
        let hw = hw();
        let a = StreamDemand::of_decode_step_with_kv(
            &DecodeStep::new("a", 1, 8, 100, 64),
            &hw,
            hw.element_bytes,
        );
        let b = StreamDemand::of_decode_step_with_kv(
            &DecodeStep::new("b", 1, 8, 200, 64),
            &hw,
            hw.element_bytes,
        );
        let mut sum = StreamDemand::default();
        sum.accumulate(&a);
        sum.accumulate(&b);
        assert_eq!(sum.mac_ops, a.mac_ops + b.mac_ops);
        assert_eq!(sum.vec_ops, a.vec_ops + b.vec_ops);
        assert_eq!(sum.dram_bytes, a.dram_bytes + b.dram_bytes);
        // Accumulating from the zero demand is exact (0.0 + x == x), so the
        // fold over a one-item launch equals the item's own demand.
        let mut one = StreamDemand::default();
        one.accumulate(&a);
        assert_eq!(one, a);
    }

    #[test]
    fn bound_takes_the_binding_component() {
        let hw = hw();
        let mac_heavy = StreamDemand {
            mac_ops: 1e12,
            vec_ops: 1.0,
            dram_bytes: 1.0,
        };
        let dram_heavy = StreamDemand {
            mac_ops: 1.0,
            vec_ops: 1.0,
            dram_bytes: 1e12,
        };
        assert_eq!(
            mac_heavy.bound_seconds(&hw),
            1e12 / hw.peak_macs_per_second()
        );
        assert_eq!(
            dram_heavy.bound_seconds(&hw),
            1e12 / hw.dram_bandwidth_bytes_per_s
        );
    }

    #[test]
    fn chunk_demand_sums_its_decode_steps() {
        // A chunk's demand must equal the accumulated demand of the decode
        // steps it fuses, for any KV pricing — this is what makes chunked
        // prefill cost-neutral relative to the decode timeline it shares.
        let hw = hw();
        let chunk = PrefillChunk::new(1, 8, 100, 32, 64).with_kv_heads(2);
        for kv_eb in [hw.element_bytes, hw.element_bytes / 2] {
            let direct = StreamDemand::of_prefill_chunk_with_kv(&chunk, &hw, kv_eb);
            let mut summed = StreamDemand::default();
            for s in chunk.decode_steps() {
                summed.accumulate(&StreamDemand::of_decode_step_with_kv(&s, &hw, kv_eb));
            }
            assert_eq!(direct.mac_ops, summed.mac_ops);
            assert_eq!(direct.vec_ops, summed.vec_ops);
            assert_eq!(direct.dram_bytes, summed.dram_bytes);
        }
    }

    #[test]
    fn track_demand_stream_matches_the_closed_form_bitwise() {
        // The four-track split must collapse back to the exact StreamDemand
        // the scalar model computes — this is what keeps the degenerate
        // one-track executor bit-identical to `bound_seconds`.
        let hw = hw();
        let w = AttentionWorkload::new("toy", 2, 8, 192, 64);
        assert_eq!(
            TrackDemand::of_prefill(&w, &hw).stream(),
            StreamDemand::of_prefill(&w, &hw)
        );
        let step = DecodeStep::new("d", 1, 8, 300, 64).with_kv_heads(2);
        let chunk = PrefillChunk::new(1, 8, 100, 32, 64).with_kv_heads(2);
        for kv_eb in [hw.element_bytes, hw.element_bytes / 2] {
            assert_eq!(
                TrackDemand::of_decode_step_with_kv(&step, &hw, kv_eb).stream(),
                StreamDemand::of_decode_step_with_kv(&step, &hw, kv_eb)
            );
            assert_eq!(
                TrackDemand::of_prefill_chunk_with_kv(&chunk, &hw, kv_eb).stream(),
                StreamDemand::of_prefill_chunk_with_kv(&chunk, &hw, kv_eb)
            );
        }
    }

    #[test]
    fn track_demand_dma_directions_partition_the_traffic() {
        let hw = hw();
        let step = DecodeStep::new("d", 1, 8, 513, 64);
        let d = TrackDemand::of_decode_step_with_kv(&step, &hw, hw.element_bytes);
        assert_eq!(
            d.dma_in_bytes + d.writeback_bytes,
            step.min_dram_traffic_bytes(hw.element_bytes)
        );
        assert_eq!(
            d.writeback_bytes,
            step.min_dram_write_bytes_split(hw.element_bytes, hw.element_bytes)
        );
        // Both directions are non-trivial: a decode step always writes its
        // appended rows and always streams the cache in.
        assert!(d.dma_in_bytes > 0 && d.writeback_bytes > 0);
    }

    #[test]
    fn stage_split_telescopes_exactly() {
        let hw = hw();
        let d = TrackDemand::of_decode_step_with_kv(&DecodeStep::new("d", 1, 8, 997, 64), &hw, 2);
        for stages in [1, 2, 3, 4, 7, 16] {
            let split = d.split_stages(stages);
            assert_eq!(split.len(), stages);
            let mut sum = TrackDemand::default();
            for s in &split {
                sum.accumulate(s);
            }
            assert_eq!(sum, d, "stage split must conserve work at S={stages}");
            // No stage exceeds its even share by more than one unit per
            // component (floors differ by at most one).
            for s in &split {
                assert!(s.mac_ops <= d.mac_ops / stages as u64 + 1);
                assert!(s.dma_in_bytes <= d.dma_in_bytes / stages as u64 + 1);
            }
        }
        // Degenerate split: zero stages clamps to one.
        assert_eq!(d.split_stages(0), vec![d]);
    }

    #[test]
    fn track_seconds_never_exceed_the_scalar_bound() {
        let hw = hw();
        for ctx in [64, 1024, 8192] {
            let step = DecodeStep::new("d", 1, 8, ctx, 64);
            let d = TrackDemand::of_decode_step_with_kv(&step, &hw, hw.element_bytes);
            let ts = d.track_seconds(&hw);
            let bound = d.stream().bound_seconds(&hw);
            for t in ts {
                assert!(t <= bound + f64::EPSILON);
            }
            // The per-queue max equals the scalar bound only when a compute
            // stream binds; when DRAM binds, splitting the directions
            // strictly relaxes the binding queue.
            let queue_max = ts.iter().copied().fold(0.0f64, f64::max);
            assert!(queue_max <= bound);
        }
    }

    #[test]
    fn prefill_and_decode_demands_are_comparable() {
        // The unified engine's premise: a decode step's demand and a prefill
        // workload's demand live in the same units, so a mixed launch queue
        // can be costed on one timeline.
        let hw = hw();
        let prefill = StreamDemand::of_prefill(&AttentionWorkload::new("p", 1, 8, 256, 64), &hw);
        let step = StreamDemand::of_decode_step_with_kv(
            &DecodeStep::new("d", 1, 8, 256, 64),
            &hw,
            hw.element_bytes,
        );
        // One decode step is one query row of the prefill's 256: strictly
        // less work on every component.
        assert!(step.mac_ops < prefill.mac_ops);
        assert!(step.vec_ops < prefill.vec_ops);
        assert!(step.bound_seconds(&hw) < prefill.bound_seconds(&hw));
    }
}
