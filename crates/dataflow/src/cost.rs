//! The one demand record the serving layer prices attention work with.
//!
//! A device launch — whether it carries a merged prefill batch, a prefill
//! chunk or a batched set of decode steps — is bounded by the same streams:
//! MAC work, VEC (softmax) work and DRAM traffic. [`TrackDemand`] is the
//! record: it holds them as exact integer counts with the DRAM traffic split
//! by direction, demands of co-launched work items add component-wise
//! ([`TrackDemand::accumulate`]), and it is built from exactly two closed
//! forms — [`PrefillChunk`]'s for causal rows (a [`DecodeStep`] is the
//! one-row chunk) and [`AttentionWorkload`]'s for non-causal prefill.
//!
//! [`StreamDemand`] is its three-stream view ([`TrackDemand::stream`]), and
//! [`StreamDemand::bound_seconds`] turns it into the physical service-time
//! bound on a given device; its constructors are one-line delegations to
//! [`TrackDemand`]'s. Counts convert to `f64` exactly below 2⁵³, so the bound
//! of a summed record equals the bound of the per-item `f64` sums bit for
//! bit there. Above 2⁵³ the conversion rounds, and a count past `u64::MAX`
//! saturates (see [`crate::decode`]), so a price never falls as the work
//! grows.

use mas_sim::HardwareConfig;

use crate::decode::{DecodeStep, PrefillChunk};
use crate::workload::AttentionWorkload;

/// The three-stream view of a [`TrackDemand`] in device-independent units:
/// multiply-accumulates, VEC-lane operations and DRAM bytes (both
/// directions). A launch's physical service-time bound on a device is the
/// binding component ([`StreamDemand::bound_seconds`]).
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
    /// The demand of one fixed-shape prefill attention workload
    /// ([`TrackDemand::of_prefill`]).
    #[must_use]
    pub fn of_prefill(workload: &AttentionWorkload, hw: &HardwareConfig) -> Self {
        TrackDemand::of_prefill(workload, hw).stream()
    }

    /// The demand of one decode step with the KV terms priced at
    /// `kv_element_bytes` ([`TrackDemand::of_decode_step_with_kv`]).
    #[must_use]
    pub fn of_decode_step_with_kv(
        step: &DecodeStep,
        hw: &HardwareConfig,
        kv_element_bytes: usize,
    ) -> Self {
        TrackDemand::of_decode_step_with_kv(step, hw, kv_element_bytes).stream()
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

/// The four-track resource demand of attention work: MAC and VEC work plus
/// the DRAM traffic split by direction, in exact integer units. This is the
/// only demand record that is built or summed. The overlap-aware track
/// executor schedules it directly — operand/KV streaming rides the DMA-in
/// queue, MAC and VEC work ride the two compute queues, and result rows
/// ride the writeback queue, so a launch's stages can overlap across queues
/// instead of collapsing to the scalar `max` bound — and the scalar model
/// reads its [`StreamDemand`] view.
///
/// Integer components make [`TrackDemand::split_stages`] exact: the
/// per-stage demands of a tiled launch telescope back to the monolithic
/// demand with zero rounding drift.
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
    /// The demand of one fixed-shape (non-causal) prefill attention
    /// workload: reads `Q`/`K`/`V`, computes, writes `O`.
    #[must_use]
    pub fn of_prefill(workload: &AttentionWorkload, hw: &HardwareConfig) -> Self {
        let total = workload.min_dram_traffic_bytes(hw.element_bytes);
        let write = workload.min_dram_write_bytes(hw.element_bytes);
        Self {
            dma_in_bytes: total - write,
            mac_ops: workload.total_mac_ops(),
            vec_ops: workload
                .softmax_elements()
                .saturating_mul(hw.softmax_ops_per_element as u64),
            writeback_bytes: write,
        }
    }

    /// The demand of one decode step with KV terms priced at
    /// `kv_element_bytes`: its one-row chunk's ([`DecodeStep::to_chunk`]),
    /// which streams the cached `K`/`V` plus the `q` row in and writes the
    /// appended `k`/`v` rows and the `o` row back.
    #[must_use]
    pub fn of_decode_step_with_kv(
        step: &DecodeStep,
        hw: &HardwareConfig,
        kv_element_bytes: usize,
    ) -> Self {
        Self::of_prefill_chunk_with_kv(&step.to_chunk(), hw, kv_element_bytes)
    }

    /// The demand of one chunk of causal rows with the KV terms (the KV
    /// stream and the appended `k`/`v` rows) priced at `kv_element_bytes`
    /// and the activation rows at the device's element size (pass
    /// `hw.element_bytes` for KV stored at the compute width): a narrower KV
    /// dtype shrinks the DRAM terms but leaves MAC and softmax work
    /// untouched (compute widens to the device dtype).
    #[must_use]
    pub fn of_prefill_chunk_with_kv(
        chunk: &PrefillChunk,
        hw: &HardwareConfig,
        kv_element_bytes: usize,
    ) -> Self {
        Self {
            dma_in_bytes: chunk.min_dram_read_bytes_split(hw.element_bytes, kv_element_bytes),
            mac_ops: chunk.mac_ops(),
            vec_ops: chunk
                .softmax_elements()
                .saturating_mul(hw.softmax_ops_per_element as u64),
            writeback_bytes: chunk.min_dram_write_bytes_split(hw.element_bytes, kv_element_bytes),
        }
    }

    /// Adds another work item's demand component-wise (co-launched items
    /// each stream their own operands and compute their own rows, so
    /// demands sum), saturating at `u64::MAX`.
    pub fn accumulate(&mut self, other: &Self) {
        self.dma_in_bytes = self.dma_in_bytes.saturating_add(other.dma_in_bytes);
        self.mac_ops = self.mac_ops.saturating_add(other.mac_ops);
        self.vec_ops = self.vec_ops.saturating_add(other.vec_ops);
        self.writeback_bytes = self.writeback_bytes.saturating_add(other.writeback_bytes);
    }

    /// The three-stream view: both DMA directions merge into one DRAM-byte
    /// stream. Counts below 2⁵³ convert to `f64` exactly.
    #[must_use]
    pub fn stream(&self) -> StreamDemand {
        StreamDemand {
            mac_ops: self.mac_ops as f64,
            vec_ops: self.vec_ops as f64,
            dram_bytes: self.dma_in_bytes.saturating_add(self.writeback_bytes) as f64,
        }
    }

    /// The demand split into `stages` per-tile stage demands (`stages`
    /// clamps to ≥ 1), in stage order. Stage `k` of `S` receives
    /// `⌊c·(k+1)/S⌋ − ⌊c·k/S⌋` of each component `c` — the telescoping
    /// floors partition every integer count with zero remainder, so the
    /// stage-split schedule conserves work by construction, and any two
    /// shares differ by at most one. With `c = q·S + r` the share is
    /// `q + ⌊(k+1)·r/S⌋ − ⌊k·r/S⌋`: `q` plus one exactly when
    /// `(k+1)·r mod S < r`, which is how each stage is computed, from `q`
    /// and `r` taken once per component. `r` and `k` are below `S`, so no
    /// intermediate exceeds `S²` and even a saturated count splits without
    /// overflow. Every stage stands alone, so a placement writes its
    /// stages straight into a reused buffer.
    pub fn stage_shares(&self, stages: usize) -> impl ExactSizeIterator<Item = Self> {
        let stages = stages.max(1);
        let n = stages as u64;
        let [dma_in, mac, vec, writeback] = [
            self.dma_in_bytes,
            self.mac_ops,
            self.vec_ops,
            self.writeback_bytes,
        ]
        .map(|c| (c / n, c % n));
        let share = move |(q, r): (u64, u64), j: u64| {
            if r == 0 {
                return q;
            }
            // `j·r < n²`: in `u64` unless the stage count is past 2³².
            let wrapped = match r.checked_mul(j) {
                Some(p) => p % n,
                None => (u128::from(r) * u128::from(j) % u128::from(n)) as u64,
            };
            q + u64::from(wrapped < r)
        };
        (0..stages).map(move |k| {
            let j = k as u64 + 1;
            Self {
                dma_in_bytes: share(dma_in, j),
                mac_ops: share(mac, j),
                vec_ops: share(vec, j),
                writeback_bytes: share(writeback, j),
            }
        })
    }

    /// Splits the demand into `stages` per-tile stage demands that sum back
    /// to `self` *exactly*: [`TrackDemand::stage_shares`], collected.
    #[must_use]
    pub fn split_stages(&self, stages: usize) -> Vec<Self> {
        self.stage_shares(stages).collect()
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
            step.to_chunk()
                .min_dram_traffic_bytes_split(hw.element_bytes, hw.element_bytes)
                as f64
        );
    }

    #[test]
    fn accumulation_sums_components_in_order() {
        let hw = hw();
        let of =
            |t| TrackDemand::of_decode_step_with_kv(&DecodeStep::new("s", 1, 8, t, 64), &hw, 2);
        let (a, b) = (of(100), of(200));
        let mut sum = TrackDemand::default();
        sum.accumulate(&a);
        sum.accumulate(&b);
        assert_eq!(sum.mac_ops, a.mac_ops + b.mac_ops);
        assert_eq!(sum.vec_ops, a.vec_ops + b.vec_ops);
        assert_eq!(sum.dma_in_bytes, a.dma_in_bytes + b.dma_in_bytes);
        assert_eq!(sum.writeback_bytes, a.writeback_bytes + b.writeback_bytes);
        // Below 2^53 the summed record's view equals the per-item f64 sums
        // bit for bit, and accumulating from zero is the item itself.
        let (sa, sb, ss) = (a.stream(), b.stream(), sum.stream());
        assert_eq!(ss.mac_ops.to_bits(), (sa.mac_ops + sb.mac_ops).to_bits());
        assert_eq!(ss.vec_ops.to_bits(), (sa.vec_ops + sb.vec_ops).to_bits());
        assert_eq!(
            ss.dram_bytes.to_bits(),
            (sa.dram_bytes + sb.dram_bytes).to_bits()
        );
        let mut one = TrackDemand::default();
        one.accumulate(&a);
        assert_eq!(one, a);
        // Past u64::MAX a sum saturates instead of wrapping.
        let mut full = TrackDemand {
            mac_ops: u64::MAX,
            ..a
        };
        full.accumulate(&b);
        assert_eq!(full.mac_ops, u64::MAX);
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

    // A chunk's demand equals the accumulated demand of the decode steps it
    // fuses, for any shape and KV pricing — this is what makes chunked
    // prefill cost-neutral relative to the decode timeline it shares — and
    // so does the bound of its scalar view.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn chunk_demand_sums_its_decode_steps(
            batch in 1usize..4,
            heads in 1usize..17,
            group in 0usize..5,
            prefilled in 0usize..2048,
            tokens in 1usize..65,
            embed in 1usize..257,
            act_eb in 1usize..5,
            kv_eb in 1usize..5,
        ) {
            let mut hw = hw();
            hw.element_bytes = act_eb;
            let divisors: Vec<usize> = (1..=heads).filter(|d| heads.is_multiple_of(*d)).collect();
            let kv_heads = divisors[group % divisors.len()];
            let chunk = PrefillChunk::new(batch, heads, prefilled, tokens, embed)
                .with_kv_heads(kv_heads);
            let direct = TrackDemand::of_prefill_chunk_with_kv(&chunk, &hw, kv_eb);
            let mut summed = TrackDemand::default();
            for s in chunk.decode_steps() {
                summed.accumulate(&TrackDemand::of_decode_step_with_kv(&s, &hw, kv_eb));
            }
            proptest::prop_assert_eq!(direct, summed);
            proptest::prop_assert_eq!(
                direct.stream().bound_seconds(&hw).to_bits(),
                summed.stream().bound_seconds(&hw).to_bits()
            );
        }
    }

    #[test]
    fn track_demand_dma_directions_partition_the_traffic() {
        let hw = hw();
        let rows = DecodeStep::new("d", 1, 8, 513, 64).to_chunk();
        let eb = hw.element_bytes;
        let d = TrackDemand::of_prefill_chunk_with_kv(&rows, &hw, eb);
        assert_eq!(
            d.dma_in_bytes + d.writeback_bytes,
            rows.min_dram_traffic_bytes_split(eb, eb)
        );
        assert_eq!(d.writeback_bytes, rows.min_dram_write_bytes_split(eb, eb));
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
            // Stage k gets ⌊c·(k+1)/S⌋ − ⌊c·k/S⌋ of each component c, so no
            // stage exceeds its even share by more than one unit.
            let floors = |c: u64, k: u64| c * (k + 1) / stages as u64 - c * k / stages as u64;
            for (k, s) in (0u64..).zip(&split) {
                assert_eq!(s.dma_in_bytes, floors(d.dma_in_bytes, k));
                assert_eq!(s.mac_ops, floors(d.mac_ops, k));
                assert_eq!(s.vec_ops, floors(d.vec_ops, k));
                assert_eq!(s.writeback_bytes, floors(d.writeback_bytes, k));
                assert!(s.mac_ops <= d.mac_ops / stages as u64 + 1);
            }
        }
        // Degenerate split: zero stages clamps to one.
        assert_eq!(d.split_stages(0), vec![d]);
        // Saturated counts split without overflowing.
        let full = TrackDemand {
            mac_ops: u64::MAX,
            ..d
        };
        let split = full.split_stages(7);
        let mut sum = TrackDemand::default();
        for s in &split {
            sum.accumulate(s);
        }
        assert_eq!(sum, full);
    }

    /// The accumulated-remainder split that [`TrackDemand::stage_shares`]'s
    /// closed form replaced: `c = q·S + r`, and a stage takes `q` plus one
    /// whenever the running sum of `r` wraps past `S`.
    fn wrapping_split(count: u64, stages: u64) -> Vec<u64> {
        let (q, r) = (count / stages, count % stages);
        let mut wrapped = 0;
        (0..stages)
            .map(|_| {
                wrapped += r;
                if wrapped >= stages {
                    wrapped -= stages;
                    q + 1
                } else {
                    q
                }
            })
            .collect()
    }

    // The closed-form per-stage share equals the accumulated-remainder
    // split element by element, on edge counts and random ones alike.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn stage_shares_equal_the_wrapping_split(
            stages in 1u64..65,
            random in 0u64..u64::MAX,
            small in 0u64..1_000_000,
        ) {
            for count in [0, 1, stages - 1, stages, u64::MAX, random, small] {
                let d = TrackDemand {
                    dma_in_bytes: count,
                    mac_ops: count.wrapping_add(1),
                    vec_ops: count / 3,
                    writeback_bytes: u64::MAX - count,
                };
                let n = stages as usize;
                let shares: Vec<TrackDemand> = d.stage_shares(n).collect();
                proptest::prop_assert_eq!(&shares, &d.split_stages(n));
                let components: [fn(&TrackDemand) -> u64; 4] = [
                    |t| t.dma_in_bytes,
                    |t| t.mac_ops,
                    |t| t.vec_ops,
                    |t| t.writeback_bytes,
                ];
                for component in components {
                    let c = component(&d);
                    let got: Vec<u64> = shares.iter().map(component).collect();
                    let reference = wrapping_split(c, stages);
                    proptest::prop_assert_eq!(&got, &reference, "count {c} over {stages}");
                    let sum = (got.iter()).try_fold(0u64, |sum, &s| sum.checked_add(s));
                    proptest::prop_assert_eq!(sum, Some(c));
                    let (lo, hi) = (got.iter().min().unwrap(), got.iter().max().unwrap());
                    proptest::prop_assert!(hi - lo <= 1, "shares {got:?}");
                }
            }
        }
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
