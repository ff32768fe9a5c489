//! KV-cache streaming for autoregressive decode.
//!
//! Prefill attention (the paper's workload class) computes all `N` query rows
//! against all `N` key/value rows in one kernel. Autoregressive *decode*
//! instead produces one token per step: the new token's `K`/`V` rows are
//! appended to a per-session cache and the single new query row attends over
//! every cached row — `O(t·E)` work at context length `t`, versus `O(t²·E)`
//! for re-running prefill over the whole sequence each step.
//!
//! Two pieces implement that here:
//!
//! * [`KvCache`] — appendable per-head `K`/`V` row storage with optional
//!   sliding-window capacity and eviction accounting. Rows are contiguous
//!   per head, so the decode kernel runs on the same block primitives as
//!   the prefill executors in [`crate::tiled`].
//! * [`decode_attention`] — one decode step, the one-row case of
//!   [`tiled_attention`](crate::tiled::tiled_attention).
//!
//! ## The decode step: score, softmax, accumulate
//!
//! A step runs the paper's three algorithm steps on tiles of cached rows,
//! once per KV head for the whole group of query heads that reads it:
//!
//! 1. **Scores (Alg. 2).** Each query row of the group is dotted with a
//!    tile of up to [`F16_TILE_TOKENS`] key rows by one
//!    [`dot_many`](crate::simd::dot_many), filling the group's score rows.
//! 2. **Softmax (Alg. 3).** Each query head's full score row becomes its
//!    probabilities in place ([`softmax_row_in_place`]).
//! 3. **Accumulate (Alg. 4).** Each query head's probabilities for a tile
//!    of value rows go into its zeroed output row by one
//!    [`axpy_many`](crate::simd::axpy_many).
//!
//! f16 rows are widened to f32 once per tile and pass for the whole group
//! ([`crate::simd::f16_to_f32_slice`]). Every score is one `dot` of the
//! query with a key row, the softmax sees the whole row, and every output
//! element is accumulated row by row in cache order, so the result does not
//! depend on how the rows are stored or split into tiles: decode over `t`
//! cached tokens equals row `t − 1` of
//! [`tiled_attention`](crate::tiled::tiled_attention) over those tokens bit
//! for bit, at any tile size (`crates/tensor/tests/decode_vs_tiled.rs`).
//!
//! ## Grouped-query head sharing (GQA / MQA)
//!
//! Both caches support *grouped-query attention*: `kv_heads ≤ heads` shared
//! key/value heads, each read by a group of `heads / kv_heads` query heads
//! ([`KvCache::grouped`]). `kv_heads == heads` is plain multi-head attention
//! and `kv_heads == 1` is multi-query attention; invalid groupings are
//! rejected with [`TensorError::InvalidHeadGrouping`], never a panic. Head
//! sharing shrinks KV residency by `kv_heads / heads` without changing the
//! per-query-head arithmetic — query head `h` computes bit-identically to an
//! MHA cache whose K/V heads were replicated per group (the oracle
//! [`expand_kv_heads`] builds, pinned by the GQA differential tests).
//!
//! Block-granular (paged) KV storage lives in [`crate::paged`]; its
//! [`decode_attention_paged`](crate::paged::decode_attention_paged) kernel
//! runs the same step over one row run per block instead of one per cache.
//! The step is layout-independent, so the two paths are bit-identical.
//!
//! The differential harness in `tests/decode_vs_prefill.rs` also pins every
//! decode step against the online-softmax prefill
//! ([`fused_online_attention`](crate::tiled::fused_online_attention)) within
//! [`golden_check`](crate::golden::golden_check) tolerance.

use crate::error::{Result, TensorError};
use crate::half::{f32_to_f16_bits_saturating, KvDtype};
use crate::simd;
use crate::softmax::softmax_row_in_place;
use crate::tensor::Tensor;

/// Rows per tile of the decode step: key and value rows are scored and
/// accumulated this many tokens at a time, and f16 rows are widened to f32
/// in tiles of this size (the unit a device DMA engine would stream),
/// bounding the widening scratch at `F16_TILE_TOKENS × embed` floats per
/// decode call.
pub const F16_TILE_TOKENS: usize = 64;

/// Validates a grouped-query head configuration.
///
/// # Errors
///
/// Returns [`TensorError::InvalidHeadGrouping`] unless `kv_heads` is
/// non-zero, at most `heads` and divides `heads`.
pub fn check_head_grouping(heads: usize, kv_heads: usize) -> Result<()> {
    if kv_heads == 0 || kv_heads > heads || !heads.is_multiple_of(kv_heads) {
        return Err(TensorError::InvalidHeadGrouping { heads, kv_heads });
    }
    Ok(())
}

/// Replicates the `kv_heads` heads of a `(B, kv_heads, N, E)` tensor into a
/// `(B, heads, N, E)` tensor where query head `h` holds a copy of KV head
/// `h / (heads / kv_heads)` — the head-replicated MHA oracle grouped-query
/// attention is checked against.
///
/// # Errors
///
/// Returns [`TensorError::InvalidHeadGrouping`] if `heads` is not a multiple
/// of the tensor's head count.
pub fn expand_kv_heads(src: &Tensor, heads: usize) -> Result<Tensor> {
    let [b, kv_heads, n, e] = src.shape().dims();
    check_head_grouping(heads, kv_heads)?;
    let group = heads / kv_heads;
    let mut out = Tensor::zeros(crate::Shape::new(b, heads, n, e)?);
    for bi in 0..b {
        for h in 0..heads {
            let src_slice = src.slice(bi, h / group);
            out.slice_mut(bi, h).copy_from_slice(src_slice);
        }
    }
    Ok(out)
}

/// Appendable per-session key/value cache for autoregressive decode.
///
/// Storage is one contiguous row-major `len × embed` matrix per KV head for
/// `K` and one for `V` — the decode kernel's inner loops borrow whole-cache
/// row slices per head, exactly like the `(batch, head)` slices of the
/// prefill executors.
///
/// An optional capacity turns the cache into a sliding window: appending
/// beyond `capacity_tokens` evicts the oldest rows first (StreamingLLM-style
/// recency window) and the eviction count is tracked so serving layers can
/// report cache pressure.
///
/// With [`KvCache::grouped`] the cache stores `kv_heads < heads` shared
/// K/V heads; [`KvCache::append`] then takes `kv_heads · embed`-wide rows
/// while [`decode_attention`] still takes `heads · embed`-wide queries.
///
/// Storage precision is selectable with [`KvCache::with_dtype`]: under
/// [`KvDtype::F16`] rows live in the `u16` arenas as binary16 bits (written
/// through [`f32_to_f16_bits_saturating`], 2 bytes/element) and the decode
/// step widens them back to f32 in [`F16_TILE_TOKENS`]-token tiles.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCache {
    heads: usize,
    kv_heads: usize,
    embed: usize,
    capacity_tokens: Option<usize>,
    dtype: KvDtype,
    /// Per-KV-head contiguous `len × embed` key rows (`F32` storage).
    k: Vec<Vec<f32>>,
    /// Per-KV-head contiguous `len × embed` value rows (`F32` storage).
    v: Vec<Vec<f32>>,
    /// Per-KV-head contiguous key rows as binary16 bits (`F16` storage).
    k16: Vec<Vec<u16>>,
    /// Per-KV-head contiguous value rows as binary16 bits (`F16` storage).
    v16: Vec<Vec<u16>>,
    appended_tokens: usize,
    evicted_tokens: usize,
}

impl KvCache {
    /// Creates an unbounded MHA cache (`kv_heads == heads`) for `heads`
    /// heads of `embed`-wide rows.
    ///
    /// # Panics
    ///
    /// Panics if `heads` or `embed` is zero.
    #[must_use]
    pub fn new(heads: usize, embed: usize) -> Self {
        assert!(
            heads > 0 && embed > 0,
            "KV cache dimensions must be non-zero"
        );
        Self {
            heads,
            kv_heads: heads,
            embed,
            capacity_tokens: None,
            dtype: KvDtype::F32,
            k: vec![Vec::new(); heads],
            v: vec![Vec::new(); heads],
            k16: vec![Vec::new(); heads],
            v16: vec![Vec::new(); heads],
            appended_tokens: 0,
            evicted_tokens: 0,
        }
    }

    /// Creates an unbounded grouped-query cache: `kv_heads` shared K/V heads
    /// read by `heads` query heads (`heads / kv_heads` queries per group).
    /// `kv_heads == heads` is plain MHA, `kv_heads == 1` is MQA.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidHeadGrouping`] if `kv_heads` is zero,
    /// exceeds `heads` or does not divide it.
    ///
    /// # Panics
    ///
    /// Panics if `heads` or `embed` is zero.
    pub fn grouped(heads: usize, kv_heads: usize, embed: usize) -> Result<Self> {
        assert!(
            heads > 0 && embed > 0,
            "KV cache dimensions must be non-zero"
        );
        check_head_grouping(heads, kv_heads)?;
        Ok(Self {
            kv_heads,
            k: vec![Vec::new(); kv_heads],
            v: vec![Vec::new(); kv_heads],
            k16: vec![Vec::new(); kv_heads],
            v16: vec![Vec::new(); kv_heads],
            ..Self::new(heads, embed)
        })
    }

    /// Creates a sliding-window MHA cache holding at most `capacity_tokens`
    /// tokens; appends beyond the capacity evict the oldest rows.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the capacity is zero.
    #[must_use]
    pub fn with_capacity(heads: usize, embed: usize, capacity_tokens: usize) -> Self {
        Self::new(heads, embed).with_window(capacity_tokens)
    }

    /// Turns the cache into a sliding window of at most `capacity_tokens`
    /// tokens (applies to grouped caches too).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_tokens` is zero.
    #[must_use]
    pub fn with_window(mut self, capacity_tokens: usize) -> Self {
        assert!(capacity_tokens > 0, "KV cache capacity must be non-zero");
        self.capacity_tokens = Some(capacity_tokens);
        self
    }

    /// Selects the storage precision of the (still empty) cache.
    ///
    /// # Panics
    ///
    /// Panics if any token has already been appended — storage cannot be
    /// re-typed in flight.
    #[must_use]
    pub fn with_dtype(mut self, dtype: KvDtype) -> Self {
        assert!(
            self.appended_tokens == 0,
            "KV storage dtype must be chosen before the first append"
        );
        self.dtype = dtype;
        self
    }

    /// The storage precision of the cached rows.
    #[must_use]
    pub fn dtype(&self) -> KvDtype {
        self.dtype
    }

    /// Number of query heads served by the cache.
    #[must_use]
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Number of stored (shared) key/value heads.
    #[must_use]
    pub fn kv_heads(&self) -> usize {
        self.kv_heads
    }

    /// Query heads per shared KV head (`1` for plain MHA).
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.heads / self.kv_heads
    }

    /// Per-head embedding width of each cached row.
    #[must_use]
    pub fn embed(&self) -> usize {
        self.embed
    }

    /// The sliding-window capacity in tokens (`None` = unbounded).
    #[must_use]
    pub fn capacity_tokens(&self) -> Option<usize> {
        self.capacity_tokens
    }

    /// Number of tokens currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        match self.dtype {
            KvDtype::F32 => self.k[0].len() / self.embed,
            KvDtype::F16 => self.k16[0].len() / self.embed,
        }
    }

    /// Whether no tokens are cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        match self.dtype {
            KvDtype::F32 => self.k[0].is_empty(),
            KvDtype::F16 => self.k16[0].is_empty(),
        }
    }

    /// Total tokens ever appended (resident plus evicted).
    #[must_use]
    pub fn appended_tokens(&self) -> usize {
        self.appended_tokens
    }

    /// Tokens evicted by the sliding window so far.
    #[must_use]
    pub fn evicted_tokens(&self) -> usize {
        self.evicted_tokens
    }

    /// Bytes of resident `K` plus `V` rows at `element_bytes` per element —
    /// the footprint a serving layer charges against its device KV budget.
    /// Grouped caches store only `kv_heads` heads, so head sharing shrinks
    /// this by `kv_heads / heads`.
    #[must_use]
    pub fn kv_bytes(&self, element_bytes: usize) -> usize {
        2 * self.kv_heads * self.len() * self.embed * element_bytes
    }

    /// Bytes of resident `K` plus `V` rows at the cache's *own* storage
    /// precision — [`KvCache::kv_bytes`] with
    /// [`KvDtype::element_bytes`](KvDtype::element_bytes): exactly half under
    /// [`KvDtype::F16`].
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.kv_bytes(self.dtype.element_bytes())
    }

    /// Appends one token: `k_step` and `v_step` hold the new row for every
    /// *KV* head, concatenated head-major (`kv_heads × embed` values each).
    /// Evicts the oldest token first when the sliding window is full.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] if either slice is not
    /// exactly `kv_heads · embed` long.
    pub fn append(&mut self, k_step: &[f32], v_step: &[f32]) -> Result<()> {
        let expected = self.kv_heads * self.embed;
        for step in [k_step, v_step] {
            if step.len() != expected {
                return Err(TensorError::DataLengthMismatch {
                    expected,
                    actual: step.len(),
                });
            }
        }
        if let Some(capacity) = self.capacity_tokens {
            if self.len() == capacity {
                for h in 0..self.kv_heads {
                    match self.dtype {
                        KvDtype::F32 => {
                            self.k[h].drain(..self.embed);
                            self.v[h].drain(..self.embed);
                        }
                        KvDtype::F16 => {
                            self.k16[h].drain(..self.embed);
                            self.v16[h].drain(..self.embed);
                        }
                    }
                }
                self.evicted_tokens += 1;
            }
        }
        for h in 0..self.kv_heads {
            let k_row = &k_step[h * self.embed..(h + 1) * self.embed];
            let v_row = &v_step[h * self.embed..(h + 1) * self.embed];
            match self.dtype {
                KvDtype::F32 => {
                    self.k[h].extend_from_slice(k_row);
                    self.v[h].extend_from_slice(v_row);
                }
                KvDtype::F16 => {
                    self.k16[h].extend(k_row.iter().map(|&x| f32_to_f16_bits_saturating(x)));
                    self.v16[h].extend(v_row.iter().map(|&x| f32_to_f16_bits_saturating(x)));
                }
            }
        }
        self.appended_tokens += 1;
        Ok(())
    }

    /// The contiguous `len × embed` key rows of KV head `h` (oldest first).
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range (`0..kv_heads`) or the cache stores
    /// [`KvDtype::F16`] (use [`KvCache::key_bits`]).
    #[must_use]
    pub fn key_rows(&self, h: usize) -> &[f32] {
        assert_eq!(self.dtype, KvDtype::F32, "f16 caches expose key_bits");
        &self.k[h]
    }

    /// The contiguous `len × embed` value rows of KV head `h` (oldest
    /// first).
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range (`0..kv_heads`) or the cache stores
    /// [`KvDtype::F16`] (use [`KvCache::value_bits`]).
    #[must_use]
    pub fn value_rows(&self, h: usize) -> &[f32] {
        assert_eq!(self.dtype, KvDtype::F32, "f16 caches expose value_bits");
        &self.v[h]
    }

    /// The contiguous `len × embed` key rows of KV head `h` as binary16 bits
    /// (oldest first).
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range (`0..kv_heads`) or the cache stores
    /// [`KvDtype::F32`] (use [`KvCache::key_rows`]).
    #[must_use]
    pub fn key_bits(&self, h: usize) -> &[u16] {
        assert_eq!(self.dtype, KvDtype::F16, "f32 caches expose key_rows");
        &self.k16[h]
    }

    /// The contiguous `len × embed` value rows of KV head `h` as binary16
    /// bits (oldest first).
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range (`0..kv_heads`) or the cache stores
    /// [`KvDtype::F32`] (use [`KvCache::value_rows`]).
    #[must_use]
    pub fn value_bits(&self, h: usize) -> &[u16] {
        assert_eq!(self.dtype, KvDtype::F16, "f32 caches expose value_rows");
        &self.v16[h]
    }
}

/// A contiguous run of one KV head's cached `K` or `V` rows, oldest first,
/// as stored.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// f32 rows, read in place.
    F32(&'a [f32]),
    /// binary16 bit patterns, widened tile by tile.
    F16(&'a [u16]),
}

impl<'a> Rows<'a> {
    fn elements(self) -> usize {
        match self {
            Rows::F32(rows) => rows.len(),
            Rows::F16(bits) => bits.len(),
        }
    }

    /// Elements `range` as f32: borrowed in place, or widened into `tile`.
    fn view<'t>(self, range: std::ops::Range<usize>, tile: &'t mut [f32]) -> &'t [f32]
    where
        'a: 't,
    {
        match self {
            Rows::F32(rows) => &rows[range],
            Rows::F16(bits) => {
                let tile = &mut tile[..range.len()];
                simd::f16_to_f32_slice(&bits[range], tile);
                tile
            }
        }
    }
}

/// Calls `f(token, rows)` for each tile of up to [`F16_TILE_TOKENS`] rows of
/// `runs` in order, where `token` counts the rows before the tile.
fn for_each_tile<'a>(
    runs: impl Iterator<Item = Rows<'a>>,
    embed: usize,
    tile: &mut [f32],
    mut f: impl FnMut(usize, &[f32]),
) {
    let mut token = 0;
    for run in runs {
        let rows = run.elements() / embed;
        let mut off = 0;
        while off < rows {
            let n = F16_TILE_TOKENS.min(rows - off);
            f(token, run.view(off * embed..(off + n) * embed, tile));
            off += n;
            token += n;
        }
    }
}

/// One decode step over every KV head of a cache, shared by
/// [`decode_attention`] and
/// [`decode_attention_paged`](crate::paged::decode_attention_paged).
///
/// `runs(kv_head)` yields the head's attended `(K, V)` row runs oldest
/// first (one run for a contiguous cache, one per block for a paged one),
/// `attended` rows in all. For each KV head and the group of query heads
/// reading it, the step runs the three algorithm steps of
/// [`tiled_attention`](crate::tiled::tiled_attention) on tiles of up to
/// [`F16_TILE_TOKENS`] rows:
///
/// 1. scores: each query row against a `K` tile with one [`simd::dot_many`];
/// 2. softmax: [`softmax_row_in_place`] over each query head's full score
///    row;
/// 3. accumulate: each query head's probabilities for a `V` tile with one
///    [`simd::axpy_many`] into its zeroed output row.
///
/// f16 rows are widened once per tile and pass for the whole group. No step
/// depends on how the rows are split into runs or tiles, so the output is a
/// pure function of the attended row sequence.
pub(crate) fn decode_step<'a, I>(
    runs: impl Fn(usize) -> I,
    attended: usize,
    dtype: KvDtype,
    group: usize,
    embed: usize,
    q_step: &[f32],
    out: &mut [f32],
) where
    I: Iterator<Item = (Rows<'a>, Rows<'a>)>,
{
    let mut scores = vec![0.0f32; group * attended];
    let mut tile = match dtype {
        KvDtype::F32 => Vec::new(),
        KvDtype::F16 => vec![0.0f32; F16_TILE_TOKENS * embed],
    };
    let width = group * embed;
    let groups = q_step.chunks_exact(width).zip(out.chunks_exact_mut(width));
    for (kv_h, (q_group, o_group)) in groups.enumerate() {
        // Algorithm 2: the group's score rows, one K tile at a time.
        let keys = runs(kv_h).map(|(keys, _)| keys);
        for_each_tile(keys, embed, &mut tile, |token, k_tile| {
            for (g, q_row) in q_group.chunks_exact(embed).enumerate() {
                let at = g * attended + token;
                simd::dot_many(q_row, k_tile, &mut scores[at..at + k_tile.len() / embed]);
            }
        });
        // Algorithm 3: each score row becomes its probabilities.
        for p_row in scores.chunks_exact_mut(attended) {
            softmax_row_in_place(p_row);
        }
        // Algorithm 4: the group's output rows, one V tile at a time.
        o_group.fill(0.0);
        let vals = runs(kv_h).map(|(_, vals)| vals);
        for_each_tile(vals, embed, &mut tile, |token, v_tile| {
            for (g, o_row) in o_group.chunks_exact_mut(embed).enumerate() {
                let at = g * attended + token;
                simd::axpy_many(&scores[at..at + v_tile.len() / embed], v_tile, o_row);
            }
        });
    }
}

/// One autoregressive decode step: the single query row of each query head
/// attends over every cached `K`/`V` row of its (possibly shared) KV head,
/// writing the attention output into `out`.
///
/// `q_step` and `out` are head-major `heads × embed` slices — the *query*
/// head count, even for grouped caches whose [`KvCache::append`] takes
/// `kv_heads × embed` rows. For each KV head, the step scores the cached
/// rows against every query head of its group, applies a softmax to each
/// score row and accumulates the value rows (module docs): the one-row case
/// of [`tiled_attention`](crate::tiled::tiled_attention), whose row `t − 1`
/// over the cached `t` tokens it equals bit for bit, at any `n_kv`. Cost is
/// `O(len · embed)` per query head.
///
/// # Errors
///
/// Returns [`TensorError::DataLengthMismatch`] if `q_step` or `out` is not
/// `heads · embed` long, or [`TensorError::ZeroDimension`] if the cache is
/// empty (a query attending over zero keys has no defined softmax).
pub fn decode_attention(cache: &KvCache, q_step: &[f32], out: &mut [f32]) -> Result<()> {
    let (heads, embed) = (cache.heads(), cache.embed());
    let expected = heads * embed;
    if q_step.len() != expected || out.len() != expected {
        return Err(TensorError::DataLengthMismatch {
            expected,
            actual: if q_step.len() != expected {
                q_step.len()
            } else {
                out.len()
            },
        });
    }
    if cache.is_empty() {
        return Err(TensorError::ZeroDimension { dim: "kv_cache" });
    }
    let runs = |h| {
        std::iter::once(match cache.dtype() {
            KvDtype::F32 => (Rows::F32(cache.key_rows(h)), Rows::F32(cache.value_rows(h))),
            KvDtype::F16 => (Rows::F16(cache.key_bits(h)), Rows::F16(cache.value_bits(h))),
        })
    };
    decode_step(
        runs,
        cache.len(),
        cache.dtype(),
        cache.group_size(),
        embed,
        q_step,
        out,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::random_qkv;
    use crate::tiled::{fused_online_attention, TileSizes};

    /// Runs `t` decode steps over the rows of seeded `(1, H, t, E)` tensors,
    /// returning the stacked per-step outputs.
    fn decode_all_steps(heads: usize, t: usize, embed: usize, seed: u64) -> Vec<Vec<f32>> {
        let (q, k, v) = random_qkv(1, heads, t, embed, seed);
        let mut cache = KvCache::new(heads, embed);
        let mut outs = Vec::with_capacity(t);
        for step in 0..t {
            let row_of = |tensor: &crate::Tensor| -> Vec<f32> {
                (0..heads)
                    .flat_map(|h| tensor.row(0, h, step).to_vec())
                    .collect()
            };
            cache.append(&row_of(&k), &row_of(&v)).unwrap();
            let mut out = vec![0.0f32; heads * embed];
            decode_attention(&cache, &row_of(&q), &mut out).unwrap();
            outs.push(out);
        }
        outs
    }

    #[test]
    fn append_grows_and_reports_bytes() {
        let mut cache = KvCache::new(2, 4);
        assert!(cache.is_empty());
        cache.append(&[1.0; 8], &[2.0; 8]).unwrap();
        cache.append(&[3.0; 8], &[4.0; 8]).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.appended_tokens(), 2);
        assert_eq!(cache.evicted_tokens(), 0);
        assert_eq!(cache.kv_bytes(2), 2 * 2 * 2 * 4 * 2);
        assert_eq!(cache.key_rows(0), &[1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0]);
        assert_eq!(cache.value_rows(1).len(), 8);
    }

    #[test]
    fn wrong_row_width_is_rejected() {
        let mut cache = KvCache::new(2, 4);
        assert!(matches!(
            cache.append(&[0.0; 7], &[0.0; 8]),
            Err(TensorError::DataLengthMismatch {
                expected: 8,
                actual: 7
            })
        ));
        assert!(cache.is_empty(), "failed append must not partially apply");
    }

    #[test]
    fn sliding_window_evicts_oldest_rows() {
        let mut cache = KvCache::with_capacity(1, 2, 2);
        for t in 0..4 {
            let row = [t as f32, t as f32];
            cache.append(&row, &row).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.appended_tokens(), 4);
        assert_eq!(cache.evicted_tokens(), 2);
        // Only the two newest tokens remain, oldest first.
        assert_eq!(cache.key_rows(0), &[2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn decode_on_empty_cache_is_an_error() {
        let cache = KvCache::new(1, 2);
        let mut out = [0.0f32; 2];
        assert!(matches!(
            decode_attention(&cache, &[1.0, 0.0], &mut out),
            Err(TensorError::ZeroDimension { .. })
        ));
    }

    #[test]
    fn single_token_decode_returns_its_value_row() {
        // With one cached token the softmax weight is 1 regardless of score.
        let mut cache = KvCache::new(2, 3);
        cache
            .append(&[9.0; 6], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .unwrap();
        let mut out = [0.0f32; 6];
        decode_attention(&cache, &[0.5; 6], &mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn invalid_head_groupings_are_typed_errors_not_panics() {
        for (heads, kv_heads) in [(8, 3), (8, 0), (4, 8), (6, 4)] {
            assert_eq!(
                KvCache::grouped(heads, kv_heads, 4).unwrap_err(),
                TensorError::InvalidHeadGrouping { heads, kv_heads }
            );
        }
        // Degenerate-but-valid groupings construct fine.
        assert_eq!(KvCache::grouped(8, 8, 4).unwrap().group_size(), 1); // MHA
        assert_eq!(KvCache::grouped(8, 1, 4).unwrap().group_size(), 8); // MQA
        assert_eq!(KvCache::grouped(8, 2, 4).unwrap().group_size(), 4); // GQA
    }

    #[test]
    fn grouped_append_takes_kv_head_rows_and_shrinks_bytes() {
        let mut mha = KvCache::new(4, 2);
        let mut gqa = KvCache::grouped(4, 2, 2).unwrap();
        mha.append(&[1.0; 8], &[2.0; 8]).unwrap();
        gqa.append(&[1.0; 4], &[2.0; 4]).unwrap();
        assert_eq!(gqa.len(), 1);
        assert_eq!(gqa.kv_bytes(2), mha.kv_bytes(2) / 2);
        // Appending query-head-wide rows to a grouped cache is a typed error.
        assert!(matches!(
            gqa.append(&[0.0; 8], &[0.0; 8]),
            Err(TensorError::DataLengthMismatch {
                expected: 4,
                actual: 8
            })
        ));
    }

    #[test]
    fn grouped_decode_matches_head_replicated_mha_exactly() {
        let (heads, kv_heads, t, embed, seed) = (6, 2, 9, 5, 31);
        let (q, _, _) = random_qkv(1, heads, t, embed, seed);
        let (_, k, v) = random_qkv(1, kv_heads, t, embed, seed.wrapping_add(1));
        let k_full = expand_kv_heads(&k, heads).unwrap();
        let v_full = expand_kv_heads(&v, heads).unwrap();

        let mut gqa = KvCache::grouped(heads, kv_heads, embed).unwrap();
        let mut mha = KvCache::new(heads, embed);
        let gather = |src: &crate::Tensor, r: usize| -> Vec<f32> {
            let [_, h_n, _, _] = src.shape().dims();
            (0..h_n).flat_map(|h| src.row(0, h, r).to_vec()).collect()
        };
        for i in 0..t {
            gqa.append(&gather(&k, i), &gather(&v, i)).unwrap();
            mha.append(&gather(&k_full, i), &gather(&v_full, i))
                .unwrap();
            let q_step = gather(&q, i);
            let mut out_gqa = vec![0.0f32; heads * embed];
            let mut out_mha = vec![0.0f32; heads * embed];
            decode_attention(&gqa, &q_step, &mut out_gqa).unwrap();
            decode_attention(&mha, &q_step, &mut out_mha).unwrap();
            assert_eq!(out_gqa, out_mha, "step {i}: GQA must be bit-identical");
        }
    }

    #[test]
    fn expand_kv_heads_replicates_per_group() {
        let (_, k, _) = random_qkv(1, 2, 3, 4, 7);
        let full = expand_kv_heads(&k, 6).unwrap();
        assert_eq!(full.shape().dims(), [1, 6, 3, 4]);
        for h in 0..6 {
            assert_eq!(full.slice(0, h), k.slice(0, h / 3));
        }
        assert!(matches!(
            expand_kv_heads(&k, 5),
            Err(TensorError::InvalidHeadGrouping {
                heads: 5,
                kv_heads: 2
            })
        ));
    }

    #[test]
    fn final_decode_step_matches_full_prefill_oracle() {
        let (heads, t, embed, seed) = (3, 12, 8, 17);
        let outs = decode_all_steps(heads, t, embed, seed);
        let (q, k, v) = random_qkv(1, heads, t, embed, seed);
        let tiles = TileSizes::new(4, 3, t).unwrap();
        let oracle = fused_online_attention(&q, &k, &v, tiles).unwrap();
        // The last step's query attends over the full t-token context — the
        // same computation as oracle row t-1.
        let last = &outs[t - 1];
        for h in 0..heads {
            let oracle_row = oracle.row(0, h, t - 1);
            for (c, &ov) in oracle_row.iter().enumerate() {
                assert!(
                    (last[h * embed + c] - ov).abs() < 1e-4,
                    "head {h} col {c}: decode {} vs oracle {ov}",
                    last[h * embed + c]
                );
            }
        }
    }

    #[test]
    fn f16_cache_charges_exactly_half_the_storage_bytes() {
        let mut f32c = KvCache::new(2, 4);
        let mut f16c = KvCache::new(2, 4).with_dtype(KvDtype::F16);
        for _ in 0..3 {
            f32c.append(&[1.5; 8], &[2.5; 8]).unwrap();
            f16c.append(&[1.5; 8], &[2.5; 8]).unwrap();
        }
        assert_eq!(f32c.dtype(), KvDtype::F32);
        assert_eq!(f16c.dtype(), KvDtype::F16);
        assert_eq!(f16c.len(), f32c.len());
        assert_eq!(f32c.storage_bytes(), f32c.kv_bytes(4));
        assert_eq!(f16c.storage_bytes() * 2, f32c.storage_bytes());
        assert_eq!(f16c.key_bits(0).len(), 12);
    }

    #[test]
    fn f16_decode_tracks_f32_decode_across_tile_boundaries() {
        // Context longer than one widening tile so the sweep crosses a
        // scratch-refill boundary; the tiling must not change results.
        let (heads, embed, t) = (2, 8, F16_TILE_TOKENS + 17);
        let (q, k, v) = random_qkv(1, heads, t, embed, 41);
        let mut full = KvCache::new(heads, embed);
        let mut half = KvCache::new(heads, embed).with_dtype(KvDtype::F16);
        let gather = |src: &crate::Tensor, r: usize| -> Vec<f32> {
            (0..heads).flat_map(|h| src.row(0, h, r).to_vec()).collect()
        };
        for i in 0..t {
            full.append(&gather(&k, i), &gather(&v, i)).unwrap();
            half.append(&gather(&k, i), &gather(&v, i)).unwrap();
            let q_step = gather(&q, i);
            let mut out_full = vec![0.0f32; heads * embed];
            let mut out_half = vec![0.0f32; heads * embed];
            decode_attention(&full, &q_step, &mut out_full).unwrap();
            decode_attention(&half, &q_step, &mut out_half).unwrap();
            for (c, (a, b)) in out_full.iter().zip(&out_half).enumerate() {
                assert!(
                    (a - b).abs() <= 5e-3 * a.abs().max(1.0),
                    "step {i} col {c}: f32 {a} vs f16 {b}"
                );
            }
        }
    }

    #[test]
    fn f16_store_saturates_large_logits_instead_of_poisoning_softmax() {
        // A key row whose dot with the query would be huge: stored as f16
        // it must clamp to ±F16_MAX, not round to inf (which would make
        // every later softmax inf - inf = NaN).
        let mut cache = KvCache::new(1, 4).with_dtype(KvDtype::F16);
        cache.append(&[1e6; 4], &[1.0; 4]).unwrap();
        cache.append(&[0.5; 4], &[2.0; 4]).unwrap();
        assert!(cache
            .key_bits(0)
            .iter()
            .all(|&b| crate::half::f16_bits_to_f32(b).is_finite()));
        let mut out = [0.0f32; 4];
        decode_attention(&cache, &[1.0; 4], &mut out).unwrap();
        assert!(out.iter().all(|v| v.is_finite()), "out {out:?}");
    }

    #[test]
    fn f16_sliding_window_evicts_oldest_rows() {
        let mut cache = KvCache::with_capacity(1, 2, 2).with_dtype(KvDtype::F16);
        for t in 0..4 {
            let row = [t as f32, t as f32];
            cache.append(&row, &row).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evicted_tokens(), 2);
        let resident: Vec<f32> = cache
            .key_bits(0)
            .iter()
            .map(|&b| crate::half::f16_bits_to_f32(b))
            .collect();
        assert_eq!(resident, vec![2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "before the first append")]
    fn retyping_a_nonempty_cache_panics() {
        let mut cache = KvCache::new(1, 2);
        cache.append(&[1.0; 2], &[1.0; 2]).unwrap();
        let _ = cache.with_dtype(KvDtype::F16);
    }

    #[test]
    fn every_decode_step_matches_its_prefix_oracle() {
        let (heads, t, embed, seed) = (2, 9, 4, 23);
        let outs = decode_all_steps(heads, t, embed, seed);
        let (q, k, v) = random_qkv(1, heads, t, embed, seed);
        for (step, out) in outs.iter().enumerate() {
            let prefix = step + 1;
            let sub = |t: &crate::Tensor| t.block([0, 0, 0, 0], [1, heads, prefix, embed]).unwrap();
            let tiles = TileSizes::new(prefix, 1, prefix).unwrap();
            let oracle = fused_online_attention(&sub(&q), &sub(&k), &sub(&v), tiles).unwrap();
            for h in 0..heads {
                let oracle_row = oracle.row(0, h, step);
                for (c, &ov) in oracle_row.iter().enumerate() {
                    assert!(
                        (out[h * embed + c] - ov).abs() < 1e-4,
                        "step {step} head {h} col {c}"
                    );
                }
            }
        }
    }
}
