//! Autoregressive decode-step workloads and their cost/footprint math.
//!
//! The paper's workloads ([`AttentionWorkload`]) are fixed-shape *prefill*
//! layers: `N` queries against `N` keys, `O(N²)` work. Real LLM serving is
//! dominated by *decode* traffic: one new token per step whose single query
//! row attends over the `t` rows already in the session's KV cache. A
//! [`DecodeStep`] describes one such step, and its cost model differs from
//! prefill in two structural ways:
//!
//! 1. **Work is linear in the context.** One query row means `2·B·H·t·E`
//!    MACs and `B·H·t` softmax elements per step — versus the quadratic
//!    `2·B·H·t²·E` of re-running prefill over the whole sequence.
//! 2. **Only the new token's operands hit DRAM as fresh traffic.** The
//!    cached `K`/`V` rows are *read* (streamed through L1 once), but the
//!    only new operands are the step's `q`/`k`/`v` rows in and `o` row out —
//!    `4·B·H·E` elements, independent of `t`. Prefill re-reads and re-writes
//!    full `N×E` operands every time.
//!
//! [`decode_footprint`] gives the L1 working set of the streaming decode
//! kernel (FuseMax-like: score strip + running statistics, no `N×N`
//! intermediate), used by the serving layer to screen steps against the
//! device, and [`DecodeStep::prefill_equivalent`] produces the
//! [`AttentionWorkload`] a recompute-per-step baseline would run — the same
//! conversion the differential decode-vs-prefill tests exploit.

use serde::{Deserialize, Serialize};
use std::fmt;

use mas_sim::HardwareConfig;

use crate::footprint::Footprint;
use crate::workload::AttentionWorkload;

/// One autoregressive decode step: a single new token per sequence, whose
/// query row attends over `context_len` cached tokens (the new token's own
/// `K`/`V` rows included).
///
/// With grouped-query head sharing ([`DecodeStep::with_kv_heads`]) the step
/// has `kv_heads ≤ heads` shared K/V heads: compute is unchanged (every
/// query head still scores `t` keys) but KV residency and cache-stream
/// traffic shrink by `kv_heads / heads`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DecodeStep {
    /// Human-readable name, e.g. `"llama3-decode"`.
    pub name: String,
    /// Number of sequences decoded together (batched sessions).
    pub batch: usize,
    /// Number of query attention heads `H`.
    pub heads: usize,
    /// Number of shared key/value heads (`kv_heads ≤ heads`, dividing
    /// `heads`; equal for plain MHA, `1` for MQA).
    pub kv_heads: usize,
    /// Tokens attended this step: the KV-cache residency *after* appending
    /// the new token (`t`).
    pub context_len: usize,
    /// Per-head embedding size `E`.
    pub embed: usize,
}

impl DecodeStep {
    /// Creates a plain multi-head decode-step description
    /// (`kv_heads == heads`).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        batch: usize,
        heads: usize,
        context_len: usize,
        embed: usize,
    ) -> Self {
        assert!(
            batch > 0 && heads > 0 && context_len > 0 && embed > 0,
            "decode step dimensions must be non-zero"
        );
        Self {
            name: name.into(),
            batch,
            heads,
            kv_heads: heads,
            context_len,
            embed,
        }
    }

    /// Returns the step with `kv_heads` shared key/value heads
    /// (grouped-query attention; `kv_heads == 1` is MQA).
    ///
    /// # Panics
    ///
    /// Panics if `kv_heads` is zero, exceeds `heads` or does not divide it
    /// (the numeric layer rejects the same configurations with a typed
    /// error — `mas_tensor::decode::check_head_grouping`).
    #[must_use]
    pub fn with_kv_heads(mut self, kv_heads: usize) -> Self {
        assert!(
            kv_heads > 0 && kv_heads <= self.heads && self.heads.is_multiple_of(kv_heads),
            "kv_heads must be non-zero and divide the query head count"
        );
        self.kv_heads = kv_heads;
        self
    }

    /// Query heads per shared KV head (`1` for plain MHA).
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.heads / self.kv_heads
    }

    /// Number of independent `(batch, head)` decode slices.
    #[must_use]
    pub fn slices(&self) -> usize {
        self.batch * self.heads
    }

    /// Multiply-accumulate operations of one step: the single query row's
    /// `q·Kᵀ` scores plus the `p·V` accumulation — `2 · B · H · t · E`,
    /// linear in the context.
    #[must_use]
    pub fn mac_ops(&self) -> u64 {
        2 * self.slices() as u64 * self.context_len as u64 * self.embed as u64
    }

    /// Softmax elements of one step (`B · H · t`).
    #[must_use]
    pub fn softmax_elements(&self) -> u64 {
        self.slices() as u64 * self.context_len as u64
    }

    /// Bytes of one *query-head-wide* new-token operand row set (`q` or
    /// `o`): `B · H · E` elements — independent of the context length.
    #[must_use]
    pub fn new_token_bytes(&self, element_bytes: usize) -> u64 {
        self.slices() as u64 * self.embed as u64 * element_bytes as u64
    }

    /// Bytes of one *KV-head-wide* new-token row set (`k` or `v`):
    /// `B · H_kv · E` elements — grouped-query sharing shrinks the appended
    /// rows along with the cache.
    #[must_use]
    pub fn new_kv_token_bytes(&self, element_bytes: usize) -> u64 {
        self.batch as u64 * self.kv_heads as u64 * self.embed as u64 * element_bytes as u64
    }

    /// Bytes of the resident KV cache attended this step
    /// (`2 · B · H_kv · t · E` elements) — what a serving layer charges
    /// against the device memory budget for session residency under
    /// token-granular accounting. Scales by `kv_heads / heads` relative to
    /// plain MHA.
    #[must_use]
    pub fn kv_cache_bytes(&self, element_bytes: usize) -> u64 {
        2 * self.batch as u64
            * self.kv_heads as u64
            * self.context_len as u64
            * self.embed as u64
            * element_bytes as u64
    }

    /// `K` plus `V` bytes of one `block_tokens`-token KV block
    /// (`2 · B · H_kv · block_tokens · E` elements) — the allocation granule
    /// of the paged KV path. A zero block size is clamped to one token,
    /// matching [`DecodeStep::kv_blocks`], so degenerate configurations
    /// never account zero bytes per block.
    #[must_use]
    pub fn kv_block_bytes(&self, block_tokens: usize, element_bytes: usize) -> u64 {
        2 * self.batch as u64
            * self.kv_heads as u64
            * block_tokens.max(1) as u64
            * self.embed as u64
            * element_bytes as u64
    }

    /// Blocks needed to hold the step's context at `block_tokens` tokens per
    /// block (the last block may be partially filled).
    #[must_use]
    pub fn kv_blocks(&self, block_tokens: usize) -> u64 {
        self.context_len.div_ceil(block_tokens.max(1)) as u64
    }

    /// Bytes of the *allocated* KV blocks under block-granular accounting:
    /// `kv_blocks · kv_block_bytes` — residency counts allocated blocks, not
    /// max context, so a serving layer charging this grows a session's bill
    /// as it decodes instead of reserving worst case up front.
    #[must_use]
    pub fn paged_kv_bytes(&self, block_tokens: usize, element_bytes: usize) -> u64 {
        self.kv_blocks(block_tokens) * self.kv_block_bytes(block_tokens, element_bytes)
    }

    /// Bytes of this step's allocated KV blocks that are *shared* with
    /// sibling sessions under cross-session prefix sharing: only whole
    /// blocks fully inside the shared prefix count (the floor — a partially
    /// shared tail block is private after copy-on-write), clamped to the
    /// session's own context. A serving layer charges these bytes once per
    /// prefix group, not once per session, so effective residency is
    /// `paged_kv_bytes − shared_kv_bytes` plus one group-wide copy.
    #[must_use]
    pub fn shared_kv_bytes(
        &self,
        block_tokens: usize,
        shared_prefix_len: usize,
        element_bytes: usize,
    ) -> u64 {
        let shared_blocks = (shared_prefix_len.min(self.context_len) / block_tokens.max(1)) as u64;
        shared_blocks * self.kv_block_bytes(block_tokens, element_bytes)
    }

    /// Internal fragmentation of block-granular residency at this context:
    /// the fraction of allocated token slots not holding a token (`0.0`
    /// when the context fills its blocks exactly, bounded by
    /// `(block_tokens − 1) / block_tokens`).
    #[must_use]
    pub fn kv_fragmentation(&self, block_tokens: usize) -> f64 {
        let slots = self.kv_blocks(block_tokens) * block_tokens.max(1) as u64;
        1.0 - self.context_len as f64 / slots as f64
    }

    /// Minimum DRAM traffic of one KV-cached step: stream the cached `K`/`V`
    /// rows in once, read the new `q` row and write the appended `k`/`v`
    /// rows and the output row. Only the new-token operands appear beyond
    /// the unavoidable cache streaming — contrast
    /// [`DecodeStep::recompute_dram_traffic_bytes`]. Grouped-query sharing
    /// shrinks both the cache stream and the appended rows.
    #[must_use]
    pub fn min_dram_traffic_bytes(&self, element_bytes: usize) -> u64 {
        // Reads: cached K/V (includes the just-appended rows) + q row.
        // Writes: appended k/v rows + o row.
        self.kv_cache_bytes(element_bytes)
            + 2 * self.new_token_bytes(element_bytes)
            + 2 * self.new_kv_token_bytes(element_bytes)
    }

    /// [`DecodeStep::min_dram_traffic_bytes`] with the KV-resident terms
    /// (the cache stream and the appended `k`/`v` rows) priced at
    /// `kv_element_bytes` while the activation rows (`q` in, `o` out) stay
    /// at `activation_element_bytes` — the traffic of a runtime storing its
    /// KV cache in a narrower dtype than its activations (f16 KV under f32
    /// compute halves every KV term). Equal element sizes reduce to the
    /// unsplit formula.
    #[must_use]
    pub fn min_dram_traffic_bytes_split(
        &self,
        activation_element_bytes: usize,
        kv_element_bytes: usize,
    ) -> u64 {
        self.kv_cache_bytes(kv_element_bytes)
            + 2 * self.new_token_bytes(activation_element_bytes)
            + 2 * self.new_kv_token_bytes(kv_element_bytes)
    }

    /// The write-direction share of [`DecodeStep::min_dram_traffic_bytes_split`]:
    /// the appended `k`/`v` rows (KV dtype) and the output row (activation
    /// dtype). The remainder of the split traffic — the cache stream plus
    /// the `q` row — is read-direction. The track executor puts the two
    /// directions on separate DMA queues, so the split must partition the
    /// total exactly.
    #[must_use]
    pub fn min_dram_write_bytes_split(
        &self,
        activation_element_bytes: usize,
        kv_element_bytes: usize,
    ) -> u64 {
        self.new_token_bytes(activation_element_bytes)
            + 2 * self.new_kv_token_bytes(kv_element_bytes)
    }

    /// Minimum DRAM traffic of the recompute-per-step baseline: re-running
    /// full prefill over the `t`-token sequence (read `Q`, `K`, `V`, write
    /// `O` — all `t × E` per head), which is what a runtime without a KV
    /// cache pays every step.
    #[must_use]
    pub fn recompute_dram_traffic_bytes(&self, element_bytes: usize) -> u64 {
        self.prefill_equivalent()
            .min_dram_traffic_bytes(element_bytes)
    }

    /// The prefill workload whose final query row computes the same
    /// attention as this step: `t` queries over `t` keys. This is both the
    /// recompute-per-step baseline's workload and the oracle shape of the
    /// differential decode-vs-prefill tests.
    #[must_use]
    pub fn prefill_equivalent(&self) -> AttentionWorkload {
        AttentionWorkload::new(
            format!("{}@prefill", self.name),
            self.batch,
            self.heads,
            self.context_len,
            self.embed,
        )
    }

    /// Returns a copy at a different context length (used by per-step sweeps
    /// as the cache grows).
    #[must_use]
    pub fn with_context(&self, context_len: usize) -> Self {
        Self {
            name: format!("{}@t{context_len}", self.name),
            context_len,
            ..self.clone()
        }
    }
}

impl fmt::Display for DecodeStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (B={}, H={}, t={}, E={}",
            self.name, self.batch, self.heads, self.context_len, self.embed
        )?;
        if self.kv_heads != self.heads {
            write!(f, ", KV={}", self.kv_heads)?;
        }
        f.write_str(")")
    }
}

/// One chunk of a chunked (Sarathi-style) prefill: `chunk_tokens` new query
/// rows attending causally over the `prefilled_len` tokens already in the
/// KV cache plus the chunk itself. The cost model is the decode model
/// generalized from one query row to `chunk_tokens` rows: the chunk is
/// arithmetically identical to the sum of the decode steps at contexts
/// `prefilled_len + 1 ..= prefilled_len + chunk_tokens`, fused into one
/// launch (one issue overhead, one kernel).
///
/// Splitting a long prompt into such chunks bounds how long a single
/// prefill launch can occupy a device, which is what lets a serving layer
/// interleave decode steps at chunk granularity instead of stalling them
/// for a full prompt length.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrefillChunk {
    /// Number of sequences prefilled together.
    pub batch: usize,
    /// Number of query attention heads `H`.
    pub heads: usize,
    /// Number of shared key/value heads (`kv_heads ≤ heads`, dividing
    /// `heads`).
    pub kv_heads: usize,
    /// Tokens already resident in the KV cache before this chunk (zero for
    /// the first chunk of a prompt).
    pub prefilled_len: usize,
    /// New tokens this chunk prefills.
    pub chunk_tokens: usize,
    /// Per-head embedding size `E`.
    pub embed: usize,
}

impl PrefillChunk {
    /// Creates a plain multi-head chunk description (`kv_heads == heads`).
    ///
    /// # Panics
    ///
    /// Panics if `batch`, `heads`, `chunk_tokens` or `embed` is zero
    /// (`prefilled_len` may be zero: the first chunk of a prompt).
    #[must_use]
    pub fn new(
        batch: usize,
        heads: usize,
        prefilled_len: usize,
        chunk_tokens: usize,
        embed: usize,
    ) -> Self {
        assert!(
            batch > 0 && heads > 0 && chunk_tokens > 0 && embed > 0,
            "prefill chunk dimensions must be non-zero"
        );
        Self {
            batch,
            heads,
            kv_heads: heads,
            prefilled_len,
            chunk_tokens,
            embed,
        }
    }

    /// Returns the chunk with `kv_heads` shared key/value heads.
    ///
    /// # Panics
    ///
    /// Panics if `kv_heads` is zero, exceeds `heads` or does not divide it.
    #[must_use]
    pub fn with_kv_heads(mut self, kv_heads: usize) -> Self {
        assert!(
            kv_heads > 0 && kv_heads <= self.heads && self.heads.is_multiple_of(kv_heads),
            "kv_heads must be non-zero and divide the query head count"
        );
        self.kv_heads = kv_heads;
        self
    }

    /// Summed context length over the chunk's query rows under causal
    /// attention: row `i` (zero-based) attends `prefilled_len + i + 1`
    /// tokens, so the total is
    /// `Σ_{t = p+1}^{p+c} t = c·p + c·(c+1)/2`.
    #[must_use]
    pub fn token_span(&self) -> u64 {
        let p = self.prefilled_len as u64;
        let c = self.chunk_tokens as u64;
        c * p + c * (c + 1) / 2
    }

    /// Multiply-accumulate operations of the chunk: each query row pays the
    /// decode-step `2·B·H·t·E` at its own causal context, summed —
    /// `2 · B · H · token_span · E`.
    #[must_use]
    pub fn mac_ops(&self) -> u64 {
        2 * self.batch as u64 * self.heads as u64 * self.token_span() * self.embed as u64
    }

    /// Softmax elements of the chunk (`B · H · token_span`).
    #[must_use]
    pub fn softmax_elements(&self) -> u64 {
        self.batch as u64 * self.heads as u64 * self.token_span()
    }

    /// Bytes of the chunk's *query-head-wide* new rows (`q` in or `o` out):
    /// `B · H · chunk_tokens · E` elements.
    #[must_use]
    pub fn new_row_bytes(&self, element_bytes: usize) -> u64 {
        self.batch as u64
            * self.heads as u64
            * self.chunk_tokens as u64
            * self.embed as u64
            * element_bytes as u64
    }

    /// Bytes of the chunk's *KV-head-wide* appended rows (`k` or `v`):
    /// `B · H_kv · chunk_tokens · E` elements.
    #[must_use]
    pub fn new_kv_row_bytes(&self, element_bytes: usize) -> u64 {
        self.batch as u64
            * self.kv_heads as u64
            * self.chunk_tokens as u64
            * self.embed as u64
            * element_bytes as u64
    }

    /// Minimum DRAM traffic of the chunk with the KV terms priced at
    /// `kv_element_bytes` and the activation rows at
    /// `activation_element_bytes` — exactly the decode cost split
    /// ([`DecodeStep::min_dram_traffic_bytes_split`]) summed over the
    /// chunk's rows: the incremental KV stream
    /// (`2 · B · H_kv · token_span · E`), the `q`/`o` activation rows and
    /// the appended `k`/`v` rows.
    #[must_use]
    pub fn min_dram_traffic_bytes_split(
        &self,
        activation_element_bytes: usize,
        kv_element_bytes: usize,
    ) -> u64 {
        let kv_stream = 2
            * self.batch as u64
            * self.kv_heads as u64
            * self.token_span()
            * self.embed as u64
            * kv_element_bytes as u64;
        kv_stream
            + 2 * self.new_row_bytes(activation_element_bytes)
            + 2 * self.new_kv_row_bytes(kv_element_bytes)
    }

    /// The write-direction share of
    /// [`PrefillChunk::min_dram_traffic_bytes_split`]: the chunk's output
    /// rows (activation dtype) plus its appended `k`/`v` rows (KV dtype).
    /// Reads are the incremental KV stream and the `q` rows — the split
    /// partitions the total exactly, mirroring
    /// [`DecodeStep::min_dram_write_bytes_split`] summed over the chunk.
    #[must_use]
    pub fn min_dram_write_bytes_split(
        &self,
        activation_element_bytes: usize,
        kv_element_bytes: usize,
    ) -> u64 {
        self.new_row_bytes(activation_element_bytes) + 2 * self.new_kv_row_bytes(kv_element_bytes)
    }

    /// The decode steps this chunk fuses: one per new token, at the causal
    /// contexts `prefilled_len + 1 ..= prefilled_len + chunk_tokens`. Used
    /// by the differential tests; the closed forms above avoid allocating
    /// these on hot paths.
    #[must_use]
    pub fn decode_steps(&self) -> Vec<DecodeStep> {
        (1..=self.chunk_tokens)
            .map(|i| {
                DecodeStep::new(
                    "chunk-row",
                    self.batch,
                    self.heads,
                    self.prefilled_len + i,
                    self.embed,
                )
                .with_kv_heads(self.kv_heads)
            })
            .collect()
    }
}

impl fmt::Display for PrefillChunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chunk (B={}, H={}, p={}, c={}, E={}",
            self.batch, self.heads, self.prefilled_len, self.chunk_tokens, self.embed
        )?;
        if self.kv_heads != self.heads {
            write!(f, ", KV={}", self.kv_heads)?;
        }
        f.write_str(")")
    }
}

/// L1 working set of the streaming decode kernel for one `(batch, head)`
/// slice processed at a time, with the cached `K`/`V` rows streamed through
/// in `kv_tile_rows`-row sub-tiles (double buffered): the query row, two
/// `K`/`V` sub-tiles, the score strip of the current sub-tile, the running
/// online-softmax statistics and the output accumulator row. Like FuseMax's
/// footprint, it is independent of the context length — decode streams, it
/// never materializes a `t`-wide intermediate.
#[must_use]
pub fn decode_footprint(step: &DecodeStep, kv_tile_rows: usize, element_bytes: usize) -> Footprint {
    let kv_tile_rows = kv_tile_rows.clamp(1, step.context_len);
    let row = step.embed * element_bytes;
    Footprint {
        q_bytes: row,
        kv_bytes: 2 * 2 * kv_tile_rows * row,
        cp_bytes: kv_tile_rows * element_bytes,
        o_bytes: row,
        misc_bytes: 2 * element_bytes,
    }
}

/// Whether one decode step can run on the device: the streaming working set
/// fits L1 and the step's DRAM-resident bytes (the KV cache plus the
/// new-token operand rows, with the KV terms priced at `kv_element_bytes`;
/// see [`DecodeStep::min_dram_traffic_bytes_split`]) fit device DRAM. The
/// L1 working set does not depend on the KV dtype: the kernel widens KV
/// tiles to the compute dtype before streaming them, so scratch tiles stay
/// at `hw.element_bytes`.
#[must_use]
pub fn decode_step_fits_with_kv(
    step: &DecodeStep,
    kv_tile_rows: usize,
    hw: &HardwareConfig,
    kv_element_bytes: usize,
) -> bool {
    decode_footprint(step, kv_tile_rows, hw.element_bytes).fits(hw.l1_bytes)
        && step.min_dram_traffic_bytes_split(hw.element_bytes, kv_element_bytes)
            <= hw.dram_bytes as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step() -> DecodeStep {
        DecodeStep::new("llama-decode", 1, 8, 256, 64)
    }

    #[test]
    fn op_counts_are_linear_in_context() {
        let s = step();
        assert_eq!(s.slices(), 8);
        assert_eq!(s.mac_ops(), 2 * 8 * 256 * 64);
        assert_eq!(s.softmax_elements(), 8 * 256);
        let doubled = s.with_context(512);
        assert_eq!(doubled.mac_ops(), 2 * s.mac_ops());
        assert_eq!(doubled.softmax_elements(), 2 * s.softmax_elements());
    }

    #[test]
    fn prefill_equivalent_is_quadratically_more_work() {
        let s = step();
        let prefill = s.prefill_equivalent();
        assert_eq!(prefill.seq_len, 256);
        // Prefill runs t query rows where decode runs one.
        assert_eq!(prefill.total_mac_ops(), s.context_len as u64 * s.mac_ops());
    }

    #[test]
    fn new_token_bytes_are_context_independent() {
        let s = step();
        assert_eq!(
            s.new_token_bytes(2),
            s.with_context(4096).new_token_bytes(2)
        );
        assert_eq!(s.new_token_bytes(2), 8 * 64 * 2);
    }

    #[test]
    fn dram_traffic_counts_cache_stream_plus_new_token_rows() {
        let s = step();
        assert_eq!(
            s.min_dram_traffic_bytes(2),
            s.kv_cache_bytes(2) + 4 * s.new_token_bytes(2)
        );
        // The KV-cached step moves far less than the recompute baseline
        // (which re-reads full Q/K/V and re-writes full O).
        assert!(s.recompute_dram_traffic_bytes(2) > s.min_dram_traffic_bytes(2));
        // And the advantage grows with context: recompute is 4·t·E per head
        // per operand, decode stays at cache-stream + O(1) rows.
        let long = s.with_context(4096);
        let ratio_short =
            s.recompute_dram_traffic_bytes(2) as f64 / s.min_dram_traffic_bytes(2) as f64;
        let ratio_long =
            long.recompute_dram_traffic_bytes(2) as f64 / long.min_dram_traffic_bytes(2) as f64;
        assert!(ratio_long >= ratio_short);
    }

    #[test]
    fn kv_cache_bytes_scale_with_context_and_element_size() {
        let s = step();
        assert_eq!(s.kv_cache_bytes(2), 2 * 8 * 256 * 64 * 2);
        assert_eq!(s.kv_cache_bytes(4), 2 * s.kv_cache_bytes(2));
        assert_eq!(
            s.with_context(512).kv_cache_bytes(2),
            2 * s.kv_cache_bytes(2)
        );
    }

    #[test]
    fn shared_kv_bytes_count_whole_prefix_blocks_clamped_to_context() {
        let s = step(); // context 256
                        // 100 shared tokens at 16-token blocks: 6 whole blocks, the partial
                        // 7th is private (copy-on-write makes it so).
        assert_eq!(s.shared_kv_bytes(16, 100, 2), 6 * s.kv_block_bytes(16, 2));
        // Block-aligned prefix shares exactly its blocks.
        assert_eq!(s.shared_kv_bytes(16, 96, 2), 6 * s.kv_block_bytes(16, 2));
        // A prefix longer than the session's own context clamps to it.
        assert_eq!(s.shared_kv_bytes(16, 10_000, 2), s.paged_kv_bytes(16, 2));
        // Shared bytes never exceed the allocated paged bytes.
        assert!(s.shared_kv_bytes(16, 200, 2) <= s.paged_kv_bytes(16, 2));
        // No sharing, no bytes; degenerate block size is clamped like
        // kv_blocks.
        assert_eq!(s.shared_kv_bytes(16, 0, 2), 0);
        assert_eq!(s.shared_kv_bytes(0, 10, 2), s.shared_kv_bytes(1, 10, 2));
    }

    #[test]
    fn footprint_is_context_independent_and_fits_the_edge_device() {
        let hw = HardwareConfig::edge_default();
        let short = decode_footprint(&step(), 64, hw.element_bytes);
        let long = decode_footprint(&step().with_context(1 << 20), 64, hw.element_bytes);
        assert_eq!(short.total_bytes(), long.total_bytes());
        assert!(decode_step_fits_with_kv(&step(), 64, &hw, hw.element_bytes));
    }

    #[test]
    fn oversized_kv_cache_is_infeasible() {
        let hw = HardwareConfig::edge_default();
        // ~2 TB of KV cache at this context: over any edge DRAM.
        let huge = DecodeStep::new("huge", 1, 32, 1 << 28, 128);
        assert!(!decode_step_fits_with_kv(&huge, 64, &hw, hw.element_bytes));
    }

    #[test]
    fn grouped_kv_heads_scale_cache_bytes_not_compute() {
        let mha = step(); // H = 8
        let gqa = step().with_kv_heads(2);
        let mqa = step().with_kv_heads(1);
        assert_eq!(gqa.group_size(), 4);
        // Compute is per query head: unchanged.
        assert_eq!(gqa.mac_ops(), mha.mac_ops());
        assert_eq!(gqa.softmax_elements(), mha.softmax_elements());
        // Residency and appended K/V rows shrink by kv_heads / heads.
        assert_eq!(gqa.kv_cache_bytes(2), mha.kv_cache_bytes(2) / 4);
        assert_eq!(mqa.kv_cache_bytes(2), mha.kv_cache_bytes(2) / 8);
        assert_eq!(gqa.new_kv_token_bytes(2), mha.new_kv_token_bytes(2) / 4);
        // q/o rows stay query-head-wide.
        assert_eq!(gqa.new_token_bytes(2), mha.new_token_bytes(2));
        // DRAM traffic shrinks accordingly, and the MHA formula reduces to
        // the historical 4-row form.
        assert!(gqa.min_dram_traffic_bytes(2) < mha.min_dram_traffic_bytes(2));
        assert_eq!(
            mha.min_dram_traffic_bytes(2),
            mha.kv_cache_bytes(2) + 4 * mha.new_token_bytes(2)
        );
        // kv_heads survives context sweeps.
        assert_eq!(gqa.with_context(512).kv_heads, 2);
    }

    #[test]
    #[should_panic(expected = "divide the query head count")]
    fn invalid_kv_head_grouping_panics() {
        let _ = step().with_kv_heads(3);
    }

    #[test]
    fn block_granular_residency_counts_allocated_blocks() {
        let s = step(); // t = 256
                        // 256 tokens in 16-token blocks: exactly 16 blocks, zero waste.
        assert_eq!(s.kv_blocks(16), 16);
        assert_eq!(s.paged_kv_bytes(16, 2), s.kv_cache_bytes(2));
        assert_eq!(s.kv_fragmentation(16), 0.0);
        // 255 tokens still allocate 16 blocks; one slot is wasted.
        let short = s.with_context(255);
        assert_eq!(short.kv_blocks(16), 16);
        assert_eq!(short.paged_kv_bytes(16, 2), s.kv_cache_bytes(2));
        assert!((short.kv_fragmentation(16) - 1.0 / 256.0).abs() < 1e-12);
        // A block larger than the context allocates one block.
        let tiny = s.with_context(3);
        assert_eq!(tiny.kv_blocks(512), 1);
        assert!((tiny.kv_fragmentation(512) - 509.0 / 512.0).abs() < 1e-12);
        // Block bytes scale with kv_heads like the cache does.
        assert_eq!(
            step().with_kv_heads(2).kv_block_bytes(16, 2),
            s.kv_block_bytes(16, 2) / 4
        );
        // A zero block size clamps to one token everywhere — it must never
        // account zero bytes per block (which would zero paged residency).
        assert_eq!(s.kv_block_bytes(0, 2), s.kv_block_bytes(1, 2));
        assert_eq!(s.paged_kv_bytes(0, 2), s.kv_cache_bytes(2));
        // Paged residency never undercounts the true token bytes, and wastes
        // less than one block.
        for (t, b) in [(1usize, 7usize), (9, 7), (100, 16), (64, 64), (65, 64)] {
            let c = s.with_context(t);
            assert!(c.paged_kv_bytes(b, 2) >= c.kv_cache_bytes(2));
            assert!(c.paged_kv_bytes(b, 2) < c.kv_cache_bytes(2) + c.kv_block_bytes(b, 2));
        }
    }

    #[test]
    fn split_traffic_reduces_to_unsplit_at_equal_element_sizes() {
        let s = step();
        for eb in [1usize, 2, 4] {
            assert_eq!(
                s.min_dram_traffic_bytes_split(eb, eb),
                s.min_dram_traffic_bytes(eb)
            );
        }
    }

    #[test]
    fn f16_kv_halves_exactly_the_kv_terms_of_the_traffic() {
        let s = step().with_kv_heads(2);
        let kv_terms_f32 = s.kv_cache_bytes(4) + 2 * s.new_kv_token_bytes(4);
        let split = s.min_dram_traffic_bytes_split(4, 2);
        // Activation rows unchanged, every KV term exactly halved.
        assert_eq!(split, s.min_dram_traffic_bytes(4) - kv_terms_f32 / 2);
        assert_eq!(split - 2 * s.new_token_bytes(4), kv_terms_f32 / 2);
    }

    #[test]
    fn kv_aware_feasibility_admits_contexts_the_unsplit_check_rejects() {
        let hw = HardwareConfig::edge_default();
        // Find a context whose f32-priced traffic overflows DRAM but whose
        // f16 KV pricing fits: KV dominates, so halving it roughly halves
        // the bill.
        let eb = hw.element_bytes;
        let per_token_kv = 2u64 * 32 * 128 * eb as u64;
        let t = (hw.dram_bytes as u64 / per_token_kv * 3 / 4) as usize;
        let s = DecodeStep::new("edge-of-dram", 1, 32, 2 * t, 128);
        assert!(!decode_step_fits_with_kv(&s, 64, &hw, eb));
        assert!(decode_step_fits_with_kv(&s, 64, &hw, eb / 2));
        // A feasible step stays feasible under narrower KV pricing.
        let small = step();
        assert!(decode_step_fits_with_kv(&small, 64, &hw, eb));
        assert!(decode_step_fits_with_kv(&small, 64, &hw, eb / 2));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_panics() {
        let _ = DecodeStep::new("bad", 1, 0, 16, 64);
    }

    #[test]
    fn display_contains_dimensions() {
        let s = format!("{}", step());
        assert!(s.contains("H=8"));
        assert!(s.contains("t=256"));
    }

    #[test]
    fn chunk_cost_equals_summed_decode_steps() {
        // The chunk's closed forms must match the per-row decode steps it
        // fuses, exactly, for every cost component and both byte pricings.
        for (p, c) in [(0usize, 1usize), (0, 17), (100, 1), (100, 32), (255, 3)] {
            let chunk = PrefillChunk::new(2, 8, p, c, 64).with_kv_heads(2);
            let steps = chunk.decode_steps();
            assert_eq!(steps.len(), c);
            assert_eq!(
                chunk.token_span(),
                steps.iter().map(|s| s.context_len as u64).sum::<u64>()
            );
            assert_eq!(
                chunk.mac_ops(),
                steps.iter().map(DecodeStep::mac_ops).sum::<u64>()
            );
            assert_eq!(
                chunk.softmax_elements(),
                steps.iter().map(DecodeStep::softmax_elements).sum::<u64>()
            );
            for (act_eb, kv_eb) in [(4usize, 4usize), (4, 2), (2, 2)] {
                assert_eq!(
                    chunk.min_dram_traffic_bytes_split(act_eb, kv_eb),
                    steps
                        .iter()
                        .map(|s| s.min_dram_traffic_bytes_split(act_eb, kv_eb))
                        .sum::<u64>()
                );
            }
        }
    }

    #[test]
    fn chunk_chain_covers_the_monolithic_prompt_span() {
        // Chaining chunks over a whole prompt yields exactly the causal
        // token span of prefilling it in one go: Σ_{t=1}^{n} t.
        let n = 1000usize;
        let mut covered = 0u64;
        let mut p = 0usize;
        while p < n {
            let c = (n - p).min(192);
            covered += PrefillChunk::new(1, 8, p, c, 64).token_span();
            p += c;
        }
        assert_eq!(covered, (n as u64) * (n as u64 + 1) / 2);
    }

    #[test]
    fn chunk_new_row_bytes_follow_head_widths() {
        let chunk = PrefillChunk::new(2, 8, 64, 16, 32).with_kv_heads(2);
        assert_eq!(chunk.new_row_bytes(4), 2 * 8 * 16 * 32 * 4);
        assert_eq!(chunk.new_kv_row_bytes(2), 2 * 2 * 16 * 32 * 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_chunk_tokens_panics() {
        let _ = PrefillChunk::new(1, 8, 64, 0, 64);
    }

    #[test]
    fn chunk_display_contains_dimensions() {
        let s = format!("{}", PrefillChunk::new(1, 8, 128, 64, 32).with_kv_heads(4));
        assert!(s.contains("p=128"));
        assert!(s.contains("c=64"));
        assert!(s.contains("KV=4"));
    }
}
