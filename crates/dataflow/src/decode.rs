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
//! # One closed form
//!
//! Causal attention work is counted in one place, [`PrefillChunk`]: a chunk
//! of `c` query rows after `p` cached tokens. A decode step at context `t`
//! *is* the chunk `(p = t − 1, c = 1)` ([`DecodeStep::to_chunk`]), and at
//! that shape every count equals the step's as an integer, so a step keeps
//! only its KV-residency accessors (`kv_cache_bytes`, `kv_block_bytes`,
//! `paged_kv_bytes`, `shared_kv_bytes`). Non-causal prefill keeps its own
//! counters on [`AttentionWorkload`]. [`crate::cost`] turns either into the
//! one demand record the serving layer prices.
//!
//! The counts are `u64` and exact up to `u64::MAX`; a shape whose count
//! would exceed it (a 10⁸-token recompute over thousands of heads, say)
//! saturates at `u64::MAX` instead of wrapping, so a price never falls as
//! the work grows. The demand record converts counts to `f64`, which is
//! exact below 2⁵³ — so summing per-item `f64` values and converting a
//! `u64` sum agree bit for bit there — and rounds to the nearest `f64`
//! above it.
//!
//! [`decode_footprint`] gives the L1 working set of the streaming decode
//! kernel (FuseMax-like: score strip + running statistics, no `N×N`
//! intermediate), used by the serving layer to screen steps against the
//! device, and [`DecodeStep::prefill_equivalent`] produces the
//! [`AttentionWorkload`] a recompute-per-step baseline would run — the same
//! conversion the differential decode-vs-prefill tests exploit.

use std::fmt;

use mas_sim::HardwareConfig;

use crate::footprint::Footprint;
use crate::workload::{count, AttentionWorkload};

/// One autoregressive decode step: a single new token per sequence, whose
/// query row attends over `context_len` cached tokens (the new token's own
/// `K`/`V` rows included).
///
/// With grouped-query head sharing ([`DecodeStep::with_kv_heads`]) the step
/// has `kv_heads ≤ heads` shared K/V heads: compute is unchanged (every
/// query head still scores `t` keys) but KV residency and cache-stream
/// traffic shrink by `kv_heads / heads`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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

    /// The one-row prefill chunk this step is: its query row attends
    /// causally over the `t − 1` cached tokens plus its own, so every work
    /// and traffic count of the step — MAC ops, softmax elements, the KV
    /// stream, the `q`/`o` rows and the appended `k`/`v` rows — is the
    /// chunk's, from the one closed form in [`PrefillChunk`]. A step at
    /// context `0` is the empty chunk and prices as zero work.
    #[must_use]
    pub fn to_chunk(&self) -> PrefillChunk {
        PrefillChunk {
            batch: self.batch,
            heads: self.heads,
            kv_heads: self.kv_heads,
            prefilled_len: self.context_len.saturating_sub(1),
            chunk_tokens: self.context_len.min(1),
            embed: self.embed,
        }
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
    /// filled tail block is charged to each session privately), clamped to
    /// the session's own context. A serving layer charges these bytes once
    /// per prefix group, not once per session, so effective residency is
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
/// KV cache plus the chunk itself. Its counters are the one closed form for
/// causal attention work: a [`DecodeStep`] is the one-row chunk
/// ([`DecodeStep::to_chunk`]), and a chunk is arithmetically identical to
/// the sum of the decode steps at contexts
/// `prefilled_len + 1 ..= prefilled_len + chunk_tokens`, fused into one
/// launch (one issue overhead, one kernel).
///
/// Splitting a long prompt into such chunks bounds how long a single
/// prefill launch can occupy a device, which is what lets a serving layer
/// interleave decode steps at chunk granularity instead of stalling them
/// for a full prompt length.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
    /// `Σ_{t = p+1}^{p+c} t = c·p + c·(c+1)/2` (saturating at `u64::MAX`).
    #[must_use]
    pub fn token_span(&self) -> u64 {
        let (p, c) = (self.prefilled_len as u128, self.chunk_tokens as u128);
        u64::try_from((c * p).saturating_add(c * (c + 1) / 2)).unwrap_or(u64::MAX)
    }

    /// Multiply-accumulate operations of the chunk: each query row pays
    /// `2·B·H·t·E` (its `q·Kᵀ` scores and `p·V` accumulation) at its own
    /// causal context `t`, summed — `2 · B · H · token_span · E`.
    #[must_use]
    pub fn mac_ops(&self) -> u64 {
        count([
            2,
            self.slices(self.heads),
            self.embed as u64,
            self.token_span(),
        ])
    }

    /// Softmax elements of the chunk (`B · H · token_span`).
    #[must_use]
    pub fn softmax_elements(&self) -> u64 {
        count([self.slices(self.heads), self.token_span()])
    }

    /// Bytes of the chunk's *query-head-wide* new rows (`q` in or `o` out):
    /// `B · H · chunk_tokens · E` elements.
    #[must_use]
    pub fn new_row_bytes(&self, element_bytes: usize) -> u64 {
        self.rows(self.heads, self.chunk_tokens as u64, element_bytes)
    }

    /// Bytes of the chunk's *KV-head-wide* appended rows (`k` or `v`):
    /// `B · H_kv · chunk_tokens · E` elements.
    #[must_use]
    pub fn new_kv_row_bytes(&self, element_bytes: usize) -> u64 {
        self.rows(self.kv_heads, self.chunk_tokens as u64, element_bytes)
    }

    /// The read-direction DRAM traffic of the chunk: the incremental KV
    /// stream (every row streams the cached `K`/`V` it attends,
    /// `2 · B · H_kv · token_span · E` elements at `kv_element_bytes`) plus
    /// the `q` rows at `activation_element_bytes`.
    #[must_use]
    pub fn min_dram_read_bytes_split(
        &self,
        activation_element_bytes: usize,
        kv_element_bytes: usize,
    ) -> u64 {
        let kv_stream = count([
            2,
            self.bytes_per_token(self.kv_heads, kv_element_bytes),
            self.token_span(),
        ]);
        kv_stream.saturating_add(self.new_row_bytes(activation_element_bytes))
    }

    /// The write-direction DRAM traffic of the chunk: its `o` rows
    /// (activation dtype) plus its appended `k`/`v` rows (KV dtype). The
    /// track executor puts the two directions on separate DMA queues, and
    /// the split partitions [`PrefillChunk::min_dram_traffic_bytes_split`]
    /// exactly.
    #[must_use]
    pub fn min_dram_write_bytes_split(
        &self,
        activation_element_bytes: usize,
        kv_element_bytes: usize,
    ) -> u64 {
        count([2, self.new_kv_row_bytes(kv_element_bytes)])
            .saturating_add(self.new_row_bytes(activation_element_bytes))
    }

    /// Minimum DRAM traffic of the chunk with the KV terms (the KV stream
    /// and the appended `k`/`v` rows) priced at `kv_element_bytes` and the
    /// activation rows (`q` in, `o` out) at `activation_element_bytes` — the
    /// traffic of a runtime storing its KV cache in a narrower dtype than
    /// its activations (f16 KV under f32 compute halves every KV term).
    #[must_use]
    pub fn min_dram_traffic_bytes_split(
        &self,
        activation_element_bytes: usize,
        kv_element_bytes: usize,
    ) -> u64 {
        let read = self.min_dram_read_bytes_split(activation_element_bytes, kv_element_bytes);
        read.saturating_add(
            self.min_dram_write_bytes_split(activation_element_bytes, kv_element_bytes),
        )
    }

    /// `B · heads` (batch, head) slices.
    fn slices(&self, heads: usize) -> u64 {
        count([self.batch as u64, heads as u64])
    }

    /// Bytes of `B · heads · tokens · E` elements.
    fn rows(&self, heads: usize, tokens: u64, element_bytes: usize) -> u64 {
        count([self.bytes_per_token(heads, element_bytes), tokens])
    }

    /// Bytes of one token's `B · heads · E` elements. Shape factors multiply
    /// before token counts, so a caller pricing one shape at many contexts
    /// can hoist them.
    fn bytes_per_token(&self, heads: usize, element_bytes: usize) -> u64 {
        count([self.slices(heads), self.embed as u64, element_bytes as u64])
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
    let kv_tile_rows = kv_tile_rows.clamp(1, step.context_len.max(1));
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
/// see [`PrefillChunk::min_dram_traffic_bytes_split`]) fit device DRAM. The
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
        && step
            .to_chunk()
            .min_dram_traffic_bytes_split(hw.element_bytes, kv_element_bytes)
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
        let (one, two) = (s.to_chunk(), s.with_context(512).to_chunk());
        assert_eq!(one.mac_ops(), 2 * 8 * 256 * 64);
        assert_eq!(one.softmax_elements(), 8 * 256);
        assert_eq!(two.mac_ops(), 2 * one.mac_ops());
        assert_eq!(two.softmax_elements(), 2 * one.softmax_elements());
    }

    #[test]
    fn prefill_equivalent_is_quadratically_more_work() {
        let s = step();
        let prefill = s.prefill_equivalent();
        assert_eq!(prefill.seq_len, 256);
        // Prefill runs t query rows where decode runs one.
        assert_eq!(
            prefill.total_mac_ops(),
            s.context_len as u64 * s.to_chunk().mac_ops()
        );
    }

    #[test]
    fn new_token_bytes_are_context_independent() {
        let s = step();
        let row = s.to_chunk().new_row_bytes(2);
        assert_eq!(row, s.with_context(4096).to_chunk().new_row_bytes(2));
        assert_eq!(row, 8 * 64 * 2);
    }

    #[test]
    fn dram_traffic_counts_cache_stream_plus_new_token_rows() {
        let traffic = |s: &DecodeStep| s.to_chunk().min_dram_traffic_bytes_split(2, 2);
        let recompute = |s: &DecodeStep| s.prefill_equivalent().min_dram_traffic_bytes(2);
        let s = step();
        assert_eq!(
            traffic(&s),
            s.kv_cache_bytes(2) + 4 * s.to_chunk().new_row_bytes(2)
        );
        // The KV-cached step moves far less than the recompute baseline
        // (which re-reads full Q/K/V and re-writes full O).
        assert!(recompute(&s) > traffic(&s));
        // And the advantage grows with context: recompute is 4·t·E per head
        // per operand, decode stays at cache-stream + O(1) rows.
        let long = s.with_context(4096);
        let ratio_short = recompute(&s) as f64 / traffic(&s) as f64;
        let ratio_long = recompute(&long) as f64 / traffic(&long) as f64;
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
                        // 7th is private.
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
    fn zero_context_step_has_the_one_row_footprint() {
        let hw = HardwareConfig::edge_default();
        let empty = DecodeStep {
            context_len: 0,
            ..DecodeStep::new("s", 1, 8, 1, 64)
        };
        let one_row = DecodeStep::new("s", 1, 8, 1, 64);
        assert_eq!(
            decode_footprint(&empty, 64, hw.element_bytes),
            decode_footprint(&one_row, 64, hw.element_bytes)
        );
        assert!(decode_step_fits_with_kv(&empty, 64, &hw, hw.element_bytes));
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
        let (mha_rows, gqa_rows) = (mha.to_chunk(), gqa.to_chunk());
        // Compute is per query head: unchanged.
        assert_eq!(gqa_rows.mac_ops(), mha_rows.mac_ops());
        assert_eq!(gqa_rows.softmax_elements(), mha_rows.softmax_elements());
        // Residency and appended K/V rows shrink by kv_heads / heads.
        assert_eq!(gqa.kv_cache_bytes(2), mha.kv_cache_bytes(2) / 4);
        assert_eq!(mqa.kv_cache_bytes(2), mha.kv_cache_bytes(2) / 8);
        assert_eq!(
            gqa_rows.new_kv_row_bytes(2),
            mha_rows.new_kv_row_bytes(2) / 4
        );
        // q/o rows stay query-head-wide.
        assert_eq!(gqa_rows.new_row_bytes(2), mha_rows.new_row_bytes(2));
        // DRAM traffic shrinks accordingly, and the MHA formula reduces to
        // the historical 4-row form.
        let traffic = |c: &PrefillChunk| c.min_dram_traffic_bytes_split(2, 2);
        assert!(traffic(&gqa_rows) < traffic(&mha_rows));
        assert_eq!(
            traffic(&mha_rows),
            mha.kv_cache_bytes(2) + 4 * mha_rows.new_row_bytes(2)
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
        // At one element size the split traffic is the cache stream plus
        // the q/o and k/v rows, whatever the head grouping.
        for s in [step(), step().with_kv_heads(2)] {
            let rows = s.to_chunk();
            for eb in [1usize, 2, 4] {
                assert_eq!(
                    rows.min_dram_traffic_bytes_split(eb, eb),
                    s.kv_cache_bytes(eb)
                        + 2 * rows.new_row_bytes(eb)
                        + 2 * rows.new_kv_row_bytes(eb)
                );
            }
        }
    }

    #[test]
    fn f16_kv_halves_exactly_the_kv_terms_of_the_traffic() {
        let s = step().with_kv_heads(2);
        let rows = s.to_chunk();
        let kv_terms_f32 = s.kv_cache_bytes(4) + 2 * rows.new_kv_row_bytes(4);
        let split = rows.min_dram_traffic_bytes_split(4, 2);
        // Activation rows unchanged, every KV term exactly halved.
        assert_eq!(
            split,
            rows.min_dram_traffic_bytes_split(4, 4) - kv_terms_f32 / 2
        );
        assert_eq!(split - 2 * rows.new_row_bytes(4), kv_terms_f32 / 2);
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
            let rows: Vec<PrefillChunk> = steps.iter().map(DecodeStep::to_chunk).collect();
            assert_eq!(
                chunk.mac_ops(),
                rows.iter().map(PrefillChunk::mac_ops).sum::<u64>()
            );
            assert_eq!(
                chunk.softmax_elements(),
                rows.iter().map(PrefillChunk::softmax_elements).sum::<u64>()
            );
            for (act_eb, kv_eb) in [(4usize, 4usize), (4, 2), (2, 2)] {
                assert_eq!(
                    chunk.min_dram_traffic_bytes_split(act_eb, kv_eb),
                    rows.iter()
                        .map(|r| r.min_dram_traffic_bytes_split(act_eb, kv_eb))
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
    fn a_decode_step_is_a_one_row_chunk() {
        // Every count of a step at context t is the chunk (t − 1, 1)'s,
        // and a zero context is the empty chunk: zero work, no underflow.
        let s = step().with_kv_heads(2);
        let rows = s.to_chunk();
        assert_eq!((rows.prefilled_len, rows.chunk_tokens), (255, 1));
        assert_eq!(rows.token_span(), 256);
        assert_eq!(
            rows.min_dram_read_bytes_split(4, 2),
            s.kv_cache_bytes(2) + rows.new_row_bytes(4)
        );
        let empty = DecodeStep {
            context_len: 0,
            ..step()
        }
        .to_chunk();
        assert_eq!(empty.mac_ops(), 0);
        assert_eq!(empty.softmax_elements(), 0);
        assert_eq!(empty.min_dram_traffic_bytes_split(4, 2), 0);
    }

    #[test]
    fn overflowing_counts_saturate_instead_of_wrapping() {
        // A 10⁸-token recompute over 4,096 heads needs ~4·10¹⁹ MACs, past
        // u64::MAX: the count saturates, so it never prices below a
        // smaller chunk's.
        let chunk = |tokens| PrefillChunk::new(1, 4096, 0, tokens, 1).with_kv_heads(1);
        let (big, half) = (chunk(100_000_001), chunk(50_000_000));
        assert_eq!(big.mac_ops(), u64::MAX);
        assert!(half.mac_ops() < u64::MAX);
        assert!(big.softmax_elements() >= half.softmax_elements());
        assert!(big.min_dram_traffic_bytes_split(4, 2) > half.min_dram_traffic_bytes_split(4, 2));
        let huge = PrefillChunk::new(usize::MAX, usize::MAX, usize::MAX, usize::MAX, usize::MAX);
        assert_eq!(huge.token_span(), u64::MAX);
        assert_eq!(huge.mac_ops(), u64::MAX);
        assert_eq!(
            huge.min_dram_traffic_bytes_split(usize::MAX, usize::MAX),
            u64::MAX
        );
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
