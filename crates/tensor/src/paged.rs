//! Block-granular (paged) KV-cache storage for autoregressive decode.
//!
//! The contiguous [`KvCache`](crate::decode::KvCache) grows one dense buffer
//! per session, so a serving layer must reserve worst-case max-context bytes
//! per session up front — the fragmentation/over-reservation problem that
//! caps concurrent sessions on DRAM-starved edge devices. This module
//! provides the vLLM-style alternative: fixed-size *token blocks* drawn from
//! a shared pool, with per-session block tables.
//!
//! * [`KvBlockPool`] — the physical block store (the `BlockAllocator`): a
//!   flat arena of `block_tokens`-token K/V blocks with a LIFO free list,
//!   optional capacity bound, and live/peak accounting. Freed blocks are
//!   always reused before the arena grows.
//! * [`PagedKvCache`] — one session's logical cache: a table of pool block
//!   ids covering its tokens in order, plus append/sliding-window logic.
//!   Eviction returns *whole blocks* to the pool (a block is freed once all
//!   of its tokens fall outside the window), while the attended token set
//!   stays exactly the window's newest tokens — identical to the contiguous
//!   cache's.
//! * [`decode_attention_paged`] — the decode kernel over a block table. It
//!   runs the same grouped score/softmax/accumulate step as the contiguous
//!   [`decode_attention`](crate::decode::decode_attention) (see
//!   [`crate::decode`]), fed one row run per block instead of one per
//!   cache. The step's result depends only on the attended rows and their
//!   order, not on where runs or tiles split them, so the two paths are
//!   **bit-identical** (pinned by `tests/paged_vs_contiguous.rs` and
//!   `crates/tensor/tests/decode_vs_tiled.rs`).
//!
//! ## Block-table layout invariants
//!
//! 1. **Blocks are token-aligned to the resident stream.** Resident token
//!    `r` (zero-based from the oldest token still in a pool block, i.e.
//!    absolute token `freed_tokens + r`) lives in `table[r / block_tokens]`,
//!    slot `r % block_tokens`. Window eviction only frees whole front
//!    blocks, so it advances `freed_tokens` in `block_tokens` steps and
//!    preserves the alignment; [`PagedKvCache::release`] drops every block
//!    and restarts the resident stream at slot 0 of the next block.
//! 2. **Rows are contiguous per `(block, kv_head)`.** Inside a block, the
//!    `block_tokens` K rows of one KV head are one contiguous
//!    `block_tokens × embed` slice (likewise V), so the kernel scores and
//!    accumulates each block with the same
//!    [`dot_many`](crate::simd::dot_many)/[`axpy_many`](crate::simd::axpy_many)
//!    block primitives as the contiguous cache — a block is to the paged
//!    kernel what the whole cache is to the contiguous one.
//! 3. **Only the tail block is partially filled.** Every table entry except
//!    possibly the last holds exactly `block_tokens` tokens; the attended
//!    range within the table is `[window_start, appended)` and never
//!    touches slots beyond the fill point.
//! 4. **A live block has one holder.** [`KvBlockPool::alloc`] hands a block
//!    to exactly one session's table, and [`KvBlockPool::free`] returns it
//!    to the free list; freeing a block that is already free is a logic
//!    error in the caller's table and panics.
//! 5. **Pool conservation.** `free_blocks + live_blocks == total_blocks` at
//!    every step; `peak_live_blocks` is the high-water mark of
//!    `live_blocks` (pinned by the allocator proptests in
//!    `crates/tensor/tests/paged_alloc.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::decode::{check_head_grouping, check_nonzero, decode_step, RowStore};
use crate::error::{Result, TensorError};
use crate::half::KvDtype;

/// Source of unique pool identity tokens: block ids are raw arena indices,
/// so a cache must never be used with a pool other than the one that
/// allocated its blocks — the identity check turns that logic error into a
/// typed error instead of an out-of-bounds panic or a silent read of
/// another session's rows.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

/// Handle to one block in a [`KvBlockPool`].
///
/// Ids are indices into the pool's arena; they are only meaningful for the
/// pool that allocated them and may be reused after [`KvBlockPool::free`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(usize);

impl BlockId {
    /// The raw arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// The physical KV block store shared by paged caches: a flat arena of
/// fixed-geometry blocks (`block_tokens` tokens × `kv_heads` heads ×
/// `embed` lanes, for K and V), a LIFO free list and live/peak accounting.
///
/// Allocation policy: freed blocks are always reused (free-list pop) before
/// the arena grows; growth beyond an optional `max_blocks` bound fails with
/// [`TensorError::BlockPoolExhausted`] instead of allocating.
#[derive(Debug, Clone, PartialEq)]
pub struct KvBlockPool {
    /// Unique identity token (see [`NEXT_POOL_ID`]); clones share it, since
    /// a clone holds the same arena contents and its block ids stay valid.
    id: u64,
    block_tokens: usize,
    kv_heads: usize,
    embed: usize,
    max_blocks: Option<usize>,
    /// Arena of key rows: `total_blocks × kv_heads × block_tokens × embed`,
    /// block-major then head-major (invariant 2 of the module docs), in the
    /// pool's storage dtype.
    k: RowStore,
    /// Arena of value rows, same layout and dtype as `k`.
    v: RowStore,
    /// Indices of freed blocks, reused LIFO.
    free: Vec<usize>,
    /// Per-block liveness, parallel to the arena: the double-free guard of
    /// module invariant 4.
    allocated: Vec<bool>,
    live: usize,
    peak_live: usize,
}

impl KvBlockPool {
    /// Creates an unbounded pool of `block_tokens`-token blocks for
    /// `kv_heads` KV heads of `embed`-wide rows. The arena starts empty and
    /// grows on demand.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(block_tokens: usize, kv_heads: usize, embed: usize) -> Self {
        assert!(
            block_tokens > 0 && kv_heads > 0 && embed > 0,
            "block pool dimensions must be non-zero"
        );
        Self {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            block_tokens,
            kv_heads,
            embed,
            max_blocks: None,
            k: RowStore::new(KvDtype::F32),
            v: RowStore::new(KvDtype::F32),
            free: Vec::new(),
            allocated: Vec::new(),
            live: 0,
            peak_live: 0,
        }
    }

    /// Bounds the pool at `max_blocks` blocks: allocations beyond the bound
    /// fail with [`TensorError::BlockPoolExhausted`].
    #[must_use]
    pub fn with_max_blocks(mut self, max_blocks: usize) -> Self {
        self.max_blocks = Some(max_blocks);
        self
    }

    /// Selects the storage dtype of the pool's arenas. Under
    /// [`KvDtype::F16`] each written element is converted with the
    /// saturating f16 store
    /// ([`f32_to_f16_bits_saturating`](crate::half::f32_to_f16_bits_saturating))
    /// and blocks charge half the bytes of f32 blocks.
    ///
    /// # Panics
    ///
    /// Panics if the pool has already created blocks: the storage dtype must
    /// be chosen before the first allocation.
    #[must_use]
    pub fn with_dtype(mut self, dtype: KvDtype) -> Self {
        assert_eq!(
            self.total_blocks(),
            0,
            "KV storage dtype must be chosen before the first block allocation"
        );
        self.k = RowStore::new(dtype);
        self.v = RowStore::new(dtype);
        self
    }

    /// Storage dtype of the pool's arenas.
    #[must_use]
    pub fn dtype(&self) -> KvDtype {
        self.k.dtype()
    }

    /// Tokens per block.
    #[must_use]
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Stored KV heads per block.
    #[must_use]
    pub fn kv_heads(&self) -> usize {
        self.kv_heads
    }

    /// Per-head embedding width of each row.
    #[must_use]
    pub fn embed(&self) -> usize {
        self.embed
    }

    /// Elements of one head's rows within a block (`block_tokens · embed`).
    fn head_stride(&self) -> usize {
        self.block_tokens * self.embed
    }

    /// Elements of one block per arena (`kv_heads · block_tokens · embed`).
    fn block_stride(&self) -> usize {
        self.kv_heads * self.head_stride()
    }

    /// Blocks ever created in the arena (live plus free).
    #[must_use]
    pub fn total_blocks(&self) -> usize {
        self.allocated.len()
    }

    /// Blocks currently allocated to caches.
    #[must_use]
    pub fn live_blocks(&self) -> usize {
        self.live
    }

    /// Blocks on the free list, awaiting reuse.
    #[must_use]
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// High-water mark of [`KvBlockPool::live_blocks`].
    #[must_use]
    pub fn peak_live_blocks(&self) -> usize {
        self.peak_live
    }

    /// `K` plus `V` bytes of one block at `element_bytes` per element.
    #[must_use]
    pub fn block_bytes(&self, element_bytes: usize) -> usize {
        2 * self.block_stride() * element_bytes
    }

    /// `K` plus `V` bytes of one block at the pool's own storage dtype
    /// ([`KvBlockPool::block_bytes`] with
    /// [`KvDtype::element_bytes`]) — exactly half under [`KvDtype::F16`].
    #[must_use]
    pub fn storage_block_bytes(&self) -> usize {
        self.block_bytes(self.dtype().element_bytes())
    }

    /// Bytes of all live blocks at the pool's own storage dtype.
    #[must_use]
    pub fn live_storage_bytes(&self) -> usize {
        self.live * self.storage_block_bytes()
    }

    /// Allocates one block, reusing the most recently freed block if any,
    /// growing the arena otherwise. The block's contents are zeroed.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BlockPoolExhausted`] if the pool is bounded
    /// and every block is live.
    pub fn alloc(&mut self) -> Result<BlockId> {
        let id = match self.free.pop() {
            Some(reused) => reused,
            None => {
                let id = self.total_blocks();
                if let Some(max) = self.max_blocks {
                    if id >= max {
                        return Err(TensorError::BlockPoolExhausted {
                            capacity_blocks: max,
                        });
                    }
                }
                self.allocated.push(false);
                id
            }
        };
        let stride = self.block_stride();
        self.k.zero(id * stride..(id + 1) * stride);
        self.v.zero(id * stride..(id + 1) * stride);
        self.allocated[id] = true;
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        Ok(BlockId(id))
    }

    /// Returns a block to the free list for reuse (module invariant 4).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the block is already free: a
    /// double free is a logic error in the caller's block table, not a
    /// recoverable state.
    pub fn free(&mut self, id: BlockId) {
        assert!(id.0 < self.total_blocks(), "freed block id out of range");
        assert!(self.allocated[id.0], "double free of block {}", id.0);
        self.allocated[id.0] = false;
        self.free.push(id.0);
        self.live -= 1;
    }

    /// Arena elements of the rows `[slot_start, slot_end)` of KV head `h` in
    /// block `id`.
    fn range(
        &self,
        id: BlockId,
        h: usize,
        slot_start: usize,
        slot_end: usize,
    ) -> std::ops::Range<usize> {
        let base = id.0 * self.block_stride() + h * self.head_stride();
        base + slot_start * self.embed..base + slot_end * self.embed
    }

    /// Writes one token's K/V rows (head-major, `kv_heads × embed` each)
    /// into slot `slot` of block `id`, in the pool's storage dtype.
    fn write_token(&mut self, id: BlockId, slot: usize, k_step: &[f32], v_step: &[f32]) {
        let embed = self.embed;
        for h in 0..self.kv_heads {
            let at = self.range(id, h, slot, slot + 1).start;
            self.k.write(at, &k_step[h * embed..(h + 1) * embed]);
            self.v.write(at, &v_step[h * embed..(h + 1) * embed]);
        }
    }
}

/// One session's paged KV cache: a block table over a shared
/// [`KvBlockPool`], with grouped-query head sharing and an optional sliding
/// window whose eviction returns whole blocks to the pool.
///
/// The cache holds no K/V data itself — callers pass the pool to
/// [`PagedKvCache::append`] and [`decode_attention_paged`], mirroring the
/// block-table / physical-memory split of paged-attention serving systems
/// (many sessions, one pool).
#[derive(Debug, Clone, PartialEq)]
pub struct PagedKvCache {
    heads: usize,
    kv_heads: usize,
    embed: usize,
    block_tokens: usize,
    window_tokens: Option<usize>,
    /// Pool blocks covering tokens `[freed_tokens, appended_tokens)`,
    /// oldest first.
    table: Vec<BlockId>,
    appended_tokens: usize,
    /// Tokens dropped from the front by whole-block eviction; always a
    /// multiple of `block_tokens`.
    freed_tokens: usize,
    /// Identity of the pool the table's blocks were allocated from (`None`
    /// until the first successful append, reset by release): block ids are
    /// raw arena indices, so operations against any *other* pool are
    /// rejected with a typed error even when the geometry matches.
    bound_pool_id: Option<u64>,
}

impl PagedKvCache {
    /// Creates an unbounded paged cache for `heads` query heads over
    /// `kv_heads` shared KV heads, in `block_tokens`-token blocks.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ZeroDimension`] if `heads`, `embed` or
    /// `block_tokens` is zero, and [`TensorError::InvalidHeadGrouping`] if
    /// `kv_heads` is zero, exceeds `heads` or does not divide it.
    pub fn new(heads: usize, kv_heads: usize, embed: usize, block_tokens: usize) -> Result<Self> {
        check_nonzero(&[
            ("heads", heads),
            ("embed", embed),
            ("block_tokens", block_tokens),
        ])?;
        check_head_grouping(heads, kv_heads)?;
        Ok(Self {
            heads,
            kv_heads,
            embed,
            block_tokens,
            window_tokens: None,
            table: Vec::new(),
            appended_tokens: 0,
            freed_tokens: 0,
            bound_pool_id: None,
        })
    }

    /// Turns the cache into a sliding window: decode attends at most the
    /// newest `window_tokens` tokens — the *same* attended set as a
    /// contiguous cache with that capacity — and a block is freed back to
    /// the pool once every one of its tokens leaves the window.
    ///
    /// # Panics
    ///
    /// Panics if `window_tokens` is zero.
    #[must_use]
    pub fn with_window(mut self, window_tokens: usize) -> Self {
        assert!(window_tokens > 0, "KV window must be non-zero");
        self.window_tokens = Some(window_tokens);
        self
    }

    /// Number of query heads served by the cache.
    #[must_use]
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Number of stored (shared) KV heads.
    #[must_use]
    pub fn kv_heads(&self) -> usize {
        self.kv_heads
    }

    /// Query heads per shared KV head.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.heads / self.kv_heads
    }

    /// Per-head embedding width of each row.
    #[must_use]
    pub fn embed(&self) -> usize {
        self.embed
    }

    /// Tokens per block.
    #[must_use]
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// The sliding-window length in tokens (`None` = unbounded).
    #[must_use]
    pub fn window_tokens(&self) -> Option<usize> {
        self.window_tokens
    }

    /// Tokens the next decode step attends: `min(window, appended)` — the
    /// same value as the contiguous cache's `len()` — bounded by the tokens
    /// still resident in pool blocks (zero right after
    /// [`PagedKvCache::release`]).
    #[must_use]
    pub fn len(&self) -> usize {
        let resident = self.resident_tokens();
        self.window_tokens
            .map_or(resident, |w| w.min(self.appended_tokens).min(resident))
    }

    /// Whether no tokens are attended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total tokens ever appended.
    #[must_use]
    pub fn appended_tokens(&self) -> usize {
        self.appended_tokens
    }

    /// Tokens no longer attended (outside the sliding window, or dropped by
    /// [`PagedKvCache::release`]) — matches the contiguous cache's
    /// `evicted_tokens` count under window eviction, even though physical
    /// blocks are only freed whole.
    #[must_use]
    pub fn evicted_tokens(&self) -> usize {
        self.appended_tokens - self.len()
    }

    /// Tokens physically returned to the pool (whole-block window eviction
    /// plus [`PagedKvCache::release`]); never more than
    /// [`PagedKvCache::evicted_tokens`].
    #[must_use]
    pub fn freed_tokens(&self) -> usize {
        self.freed_tokens
    }

    /// Tokens resident in pool blocks (`appended − freed`).
    #[must_use]
    pub fn resident_tokens(&self) -> usize {
        self.appended_tokens - self.freed_tokens
    }

    /// The session's block table, oldest block first.
    #[must_use]
    pub fn block_table(&self) -> &[BlockId] {
        &self.table
    }

    /// Blocks currently held by the session.
    #[must_use]
    pub fn allocated_blocks(&self) -> usize {
        self.table.len()
    }

    /// Bytes of the session's allocated blocks at `element_bytes` per
    /// element — block-granular residency (allocated blocks, not max
    /// context).
    #[must_use]
    pub fn kv_bytes(&self, pool: &KvBlockPool, element_bytes: usize) -> usize {
        self.table.len() * pool.block_bytes(element_bytes)
    }

    /// Internal fragmentation of the session's blocks: the fraction of
    /// allocated token slots not holding a resident token (`0.0` when every
    /// slot is used, approaching `1.0` for a nearly empty tail block).
    #[must_use]
    pub fn fragmentation(&self) -> f64 {
        let slots = self.table.len() * self.block_tokens;
        if slots == 0 {
            return 0.0;
        }
        1.0 - self.resident_tokens() as f64 / slots as f64
    }

    /// Ensures the pool geometry matches the cache's, and — once the cache
    /// holds blocks — that `pool` is the *same pool* they were allocated
    /// from: block ids are raw arena indices, meaningless in any other
    /// pool, so a same-geometry-different-pool call must be a typed error,
    /// not an out-of-bounds panic or a silent read of foreign rows.
    fn check_pool(&self, pool: &KvBlockPool) -> Result<()> {
        for (param, p, c) in [
            ("block_tokens", pool.block_tokens(), self.block_tokens),
            ("kv_heads", pool.kv_heads(), self.kv_heads),
            ("embed", pool.embed(), self.embed),
        ] {
            if p != c {
                return Err(TensorError::BlockGeometryMismatch {
                    param,
                    pool: p,
                    cache: c,
                });
            }
        }
        if let Some(bound) = self.bound_pool_id {
            if bound != pool.id {
                return Err(TensorError::BlockGeometryMismatch {
                    param: "pool identity",
                    pool: pool.id as usize,
                    cache: bound as usize,
                });
            }
        }
        Ok(())
    }

    /// Appends one token: `k_step` and `v_step` hold the new row for every
    /// KV head (`kv_heads × embed` values each, the same layout as
    /// [`KvCache::append`](crate::decode::KvCache::append)). Allocates a new
    /// block from `pool` when the previous one is full, and frees front
    /// blocks that slid fully out of the window.
    ///
    /// # Errors
    ///
    /// * [`TensorError::DataLengthMismatch`] if a slice is not
    ///   `kv_heads · embed` long,
    /// * [`TensorError::BlockGeometryMismatch`] if `pool` was built for a
    ///   different block geometry, or is not the pool the cache's existing
    ///   blocks came from (`param: "pool identity"`),
    /// * [`TensorError::BlockPoolExhausted`] if a new block is needed and
    ///   the bounded pool is full — the cache is left unchanged.
    pub fn append(&mut self, pool: &mut KvBlockPool, k_step: &[f32], v_step: &[f32]) -> Result<()> {
        self.check_pool(pool)?;
        let expected = self.kv_heads * self.embed;
        for step in [k_step, v_step] {
            if step.len() != expected {
                return Err(TensorError::DataLengthMismatch {
                    expected,
                    actual: step.len(),
                });
            }
        }
        let resident = self.resident_tokens();
        if resident == self.table.len() * self.block_tokens {
            self.table.push(pool.alloc()?);
        }
        let block = *self.table.last().expect("tail block exists");
        pool.write_token(block, resident % self.block_tokens, k_step, v_step);
        self.appended_tokens += 1;
        self.bound_pool_id = Some(pool.id);

        // Whole-block eviction: free front blocks whose every token left the
        // attended window.
        if self.window_tokens.is_some() {
            let attended_start = self.appended_tokens - self.len();
            while self.freed_tokens + self.block_tokens <= attended_start {
                pool.free(self.table.remove(0));
                self.freed_tokens += self.block_tokens;
            }
        }
        Ok(())
    }

    /// Releases every block back to the pool, leaving the cache empty:
    /// [`PagedKvCache::len`] drops to zero (so a decode attempt is the usual
    /// empty-cache error, not a panic) and appending again restarts cleanly
    /// at slot 0 of a fresh block — in any pool, since the identity binding
    /// is cleared along with the table. Used when a session closes.
    ///
    /// # Panics
    ///
    /// Panics if the cache holds blocks and `pool` is not the pool they
    /// were allocated from (freeing foreign ids would corrupt that pool's
    /// free list).
    pub fn release(&mut self, pool: &mut KvBlockPool) {
        if !self.table.is_empty() {
            assert_eq!(
                self.bound_pool_id,
                Some(pool.id),
                "release must target the pool the cache's blocks came from"
            );
        }
        for id in self.table.drain(..) {
            pool.free(id);
        }
        self.freed_tokens = self.appended_tokens;
        self.bound_pool_id = None;
    }
}

/// One autoregressive decode step over a paged cache: each query head's
/// single query row attends over the attended-window rows of its shared KV
/// head, read block by block through the session's block table by the same
/// score/softmax/accumulate step as the contiguous kernel (see
/// [`crate::decode`]). The attended row sequence is identical, so the
/// result is bit-identical to
/// [`decode_attention`](crate::decode::decode_attention) on a contiguous
/// cache holding the same tokens. Each KV head's query group is one job on
/// the rayon pool, and the output bits do not depend on the thread count.
///
/// `q_step` and `out` are head-major `heads × embed` slices.
///
/// # Errors
///
/// Returns [`TensorError::DataLengthMismatch`] if `q_step` or `out` is not
/// `heads · embed` long, [`TensorError::BlockGeometryMismatch`] if `pool`
/// does not match the cache geometry or is not the pool the cache's blocks
/// were allocated from (`param: "pool identity"`), or
/// [`TensorError::ZeroDimension`] if no tokens are attended yet.
pub fn decode_attention_paged(
    pool: &KvBlockPool,
    cache: &PagedKvCache,
    q_step: &[f32],
    out: &mut [f32],
) -> Result<()> {
    cache.check_pool(pool)?;
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
    // Attended tokens relative to the table's first resident token
    // (`attended <= resident` by construction of `len`).
    let attended = cache.len();
    let end = cache.resident_tokens();
    let start = end - attended;
    let block_tokens = cache.block_tokens();
    let table = cache.block_table();
    let (first, last) = (start / block_tokens, (end - 1) / block_tokens);
    // One contiguous slot run per block, oldest first (invariant 2: rows
    // per (block, head) are contiguous).
    let runs = |h| {
        (first..=last).map(move |b| {
            let base = b * block_tokens;
            let (lo, hi) = (start.max(base) - base, (end - base).min(block_tokens));
            let range = pool.range(table[b], h, lo, hi);
            (pool.k.rows(range.clone()), pool.v.rows(range))
        })
    };
    decode_step(
        runs,
        attended,
        pool.dtype(),
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
    use crate::decode::{decode_attention, KvCache};
    use crate::init::random_qkv;
    use crate::Tensor;

    fn gather(src: &Tensor, r: usize) -> Vec<f32> {
        let [_, heads, _, _] = src.shape().dims();
        (0..heads).flat_map(|h| src.row(0, h, r).to_vec()).collect()
    }

    #[test]
    fn pool_conserves_blocks_and_tracks_peak() {
        let mut pool = KvBlockPool::new(4, 2, 8);
        assert_eq!(pool.total_blocks(), 0);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        assert_eq!((pool.live_blocks(), pool.free_blocks()), (2, 0));
        pool.free(a);
        assert_eq!((pool.live_blocks(), pool.free_blocks()), (1, 1));
        assert_eq!(pool.total_blocks(), 2);
        // Reuse before growth: the freed block comes back.
        let c = pool.alloc().unwrap();
        assert_eq!(c, a, "freed blocks are reused LIFO before the pool grows");
        assert_eq!(pool.total_blocks(), 2);
        assert_eq!(pool.peak_live_blocks(), 2);
        pool.free(b);
        pool.free(c);
        assert_eq!(pool.live_blocks(), 0);
        assert_eq!(pool.free_blocks() + pool.live_blocks(), pool.total_blocks());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pool = KvBlockPool::new(2, 1, 2);
        let a = pool.alloc().unwrap();
        pool.free(a);
        pool.free(a);
    }

    #[test]
    fn bounded_pool_exhaustion_is_a_typed_error() {
        let mut pool = KvBlockPool::new(2, 1, 4).with_max_blocks(2);
        let _a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        assert_eq!(
            pool.alloc().unwrap_err(),
            TensorError::BlockPoolExhausted { capacity_blocks: 2 }
        );
        pool.free(b);
        assert!(pool.alloc().is_ok(), "freeing restores capacity");
    }

    #[test]
    fn reused_blocks_come_back_zeroed() {
        let mut pool = KvBlockPool::new(1, 1, 2);
        let mut cache = PagedKvCache::new(1, 1, 2, 1).unwrap();
        cache.append(&mut pool, &[7.0, 7.0], &[7.0, 7.0]).unwrap();
        cache.release(&mut pool);
        // The reused block is the pool's only one.
        assert_eq!(pool.alloc().unwrap().index(), 0);
        assert_eq!(pool.k, RowStore::F32(vec![0.0, 0.0]));
        assert_eq!(pool.v, RowStore::F32(vec![0.0, 0.0]));
    }

    #[test]
    fn geometry_mismatch_is_a_typed_error() {
        let mut pool = KvBlockPool::new(4, 2, 8);
        let mut cache = PagedKvCache::new(2, 2, 8, 8).unwrap();
        assert!(matches!(
            cache.append(&mut pool, &[0.0; 16], &[0.0; 16]),
            Err(TensorError::BlockGeometryMismatch {
                param: "block_tokens",
                ..
            })
        ));
    }

    #[test]
    fn foreign_pool_with_matching_geometry_is_a_typed_error() {
        // Two pools, identical geometry: a cache bound to pool A must not
        // be readable (or appendable) against pool B — block ids are raw
        // arena indices into A.
        let mut pool_a = KvBlockPool::new(2, 1, 2);
        let pool_b = KvBlockPool::new(2, 1, 2);
        let mut cache = PagedKvCache::new(1, 1, 2, 2).unwrap();
        cache.append(&mut pool_a, &[1.0, 2.0], &[3.0, 4.0]).unwrap();
        let mut out = [0.0f32; 2];
        assert!(matches!(
            decode_attention_paged(&pool_b, &cache, &[1.0, 0.0], &mut out),
            Err(TensorError::BlockGeometryMismatch {
                param: "pool identity",
                ..
            })
        ));
        let mut pool_b = pool_b;
        assert!(matches!(
            cache.append(&mut pool_b, &[5.0, 6.0], &[7.0, 8.0]),
            Err(TensorError::BlockGeometryMismatch {
                param: "pool identity",
                ..
            })
        ));
        // The bound pool keeps working, and release clears the binding so
        // the cache can start over in another pool.
        decode_attention_paged(&pool_a, &cache, &[1.0, 0.0], &mut out).unwrap();
        cache.release(&mut pool_a);
        cache.append(&mut pool_b, &[5.0, 6.0], &[7.0, 8.0]).unwrap();
        decode_attention_paged(&pool_b, &cache, &[1.0, 0.0], &mut out).unwrap();
        assert_eq!(out, [7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "release must target the pool")]
    fn releasing_into_a_foreign_pool_panics() {
        let mut pool_a = KvBlockPool::new(2, 1, 2);
        let mut pool_b = KvBlockPool::new(2, 1, 2);
        let mut cache = PagedKvCache::new(1, 1, 2, 2).unwrap();
        cache.append(&mut pool_a, &[1.0, 2.0], &[3.0, 4.0]).unwrap();
        cache.release(&mut pool_b);
    }

    #[test]
    fn failed_block_alloc_leaves_the_cache_unchanged() {
        let mut pool = KvBlockPool::new(1, 1, 2).with_max_blocks(1);
        let mut cache = PagedKvCache::new(1, 1, 2, 1).unwrap();
        cache.append(&mut pool, &[1.0, 1.0], &[1.0, 1.0]).unwrap();
        let before = cache.clone();
        assert!(matches!(
            cache.append(&mut pool, &[2.0, 2.0], &[2.0, 2.0]),
            Err(TensorError::BlockPoolExhausted { .. })
        ));
        assert_eq!(cache, before, "failed append must not partially apply");
    }

    #[test]
    fn paged_decode_is_bit_identical_to_contiguous() {
        let (heads, t, embed, seed) = (3, 23, 8, 41);
        for block_tokens in [1usize, 7, 16, 64] {
            let (q, k, v) = random_qkv(1, heads, t, embed, seed);
            let mut contiguous = KvCache::new(heads, embed);
            let mut pool = KvBlockPool::new(block_tokens, heads, embed);
            let mut paged = PagedKvCache::new(heads, heads, embed, block_tokens).unwrap();
            let mut out_c = vec![0.0f32; heads * embed];
            let mut out_p = vec![0.0f32; heads * embed];
            for i in 0..t {
                let (ks, vs, qs) = (gather(&k, i), gather(&v, i), gather(&q, i));
                contiguous.append(&ks, &vs).unwrap();
                paged.append(&mut pool, &ks, &vs).unwrap();
                decode_attention(&contiguous, &qs, &mut out_c).unwrap();
                decode_attention_paged(&pool, &paged, &qs, &mut out_p).unwrap();
                assert_eq!(out_c, out_p, "block {block_tokens} step {i}");
            }
            assert_eq!(paged.allocated_blocks(), t.div_ceil(block_tokens));
        }
    }

    #[test]
    fn f16_paged_decode_is_bit_identical_to_f16_contiguous() {
        // Paged slot runs and the contiguous sweep deliver rows to
        // `sweep_f16_rows` in different tile groupings, but the online
        // recurrence is a pure function of the visited row sequence — so
        // the two f16 paths must agree bitwise, just like the f32 ones.
        // `t` crosses F16_TILE_TOKENS to exercise contiguous tiling.
        let (heads, embed, seed) = (3, 8, 41);
        let t = crate::decode::F16_TILE_TOKENS + 9;
        for block_tokens in [1usize, 7, 16, 64] {
            let (q, k, v) = random_qkv(1, heads, t, embed, seed);
            let mut contiguous = KvCache::new(heads, embed).with_dtype(KvDtype::F16);
            let mut pool = KvBlockPool::new(block_tokens, heads, embed).with_dtype(KvDtype::F16);
            let mut paged = PagedKvCache::new(heads, heads, embed, block_tokens).unwrap();
            let mut out_c = vec![0.0f32; heads * embed];
            let mut out_p = vec![0.0f32; heads * embed];
            for i in 0..t {
                let (ks, vs, qs) = (gather(&k, i), gather(&v, i), gather(&q, i));
                contiguous.append(&ks, &vs).unwrap();
                paged.append(&mut pool, &ks, &vs).unwrap();
                decode_attention(&contiguous, &qs, &mut out_c).unwrap();
                decode_attention_paged(&pool, &paged, &qs, &mut out_p).unwrap();
                assert_eq!(out_c, out_p, "block {block_tokens} step {i}");
            }
        }
    }

    #[test]
    fn f16_pool_charges_exactly_half_the_block_bytes() {
        let f32_pool = KvBlockPool::new(16, 2, 8);
        let mut f16_pool = KvBlockPool::new(16, 2, 8).with_dtype(KvDtype::F16);
        assert_eq!(f16_pool.dtype(), KvDtype::F16);
        assert_eq!(
            2 * f16_pool.storage_block_bytes(),
            f32_pool.storage_block_bytes()
        );
        let _ = f16_pool.alloc().unwrap();
        let _ = f16_pool.alloc().unwrap();
        assert_eq!(
            f16_pool.live_storage_bytes(),
            2 * f16_pool.storage_block_bytes()
        );
    }

    #[test]
    fn reused_f16_blocks_come_back_zeroed() {
        let mut pool = KvBlockPool::new(1, 1, 2).with_dtype(KvDtype::F16);
        let mut cache = PagedKvCache::new(1, 1, 2, 1).unwrap();
        cache.append(&mut pool, &[7.0, 7.0], &[7.0, 7.0]).unwrap();
        cache.release(&mut pool);
        assert_eq!(pool.alloc().unwrap().index(), 0);
        assert_eq!(pool.k, RowStore::F16(vec![0, 0]));
        assert_eq!(pool.v, RowStore::F16(vec![0, 0]));
    }

    #[test]
    #[should_panic(expected = "before the first block allocation")]
    fn retyping_a_nonempty_pool_panics() {
        let mut pool = KvBlockPool::new(2, 1, 2);
        let _ = pool.alloc().unwrap();
        let _ = pool.with_dtype(KvDtype::F16);
    }

    #[test]
    fn windowed_paged_decode_attends_the_same_tokens_as_contiguous() {
        let (heads, t, embed, window, block_tokens, seed) = (2, 29, 4, 6, 4, 9);
        let (q, k, v) = random_qkv(1, heads, t, embed, seed);
        let mut contiguous = KvCache::new(heads, embed).with_window(window);
        let mut pool = KvBlockPool::new(block_tokens, heads, embed);
        let mut paged = PagedKvCache::new(heads, heads, embed, block_tokens)
            .unwrap()
            .with_window(window);
        let mut out_c = vec![0.0f32; heads * embed];
        let mut out_p = vec![0.0f32; heads * embed];
        for i in 0..t {
            let (ks, vs, qs) = (gather(&k, i), gather(&v, i), gather(&q, i));
            contiguous.append(&ks, &vs).unwrap();
            paged.append(&mut pool, &ks, &vs).unwrap();
            decode_attention(&contiguous, &qs, &mut out_c).unwrap();
            decode_attention_paged(&pool, &paged, &qs, &mut out_p).unwrap();
            assert_eq!(out_c, out_p, "step {i}");
            assert_eq!(paged.len(), contiguous.len());
            assert_eq!(paged.evicted_tokens(), contiguous.evicted_tokens());
        }
        // Whole-block eviction keeps at most window + block_tokens resident
        // tokens and returns everything older to the pool.
        assert!(paged.resident_tokens() <= window + block_tokens);
        assert!(paged.freed_tokens() > 0);
        assert_eq!(pool.live_blocks() + pool.free_blocks(), pool.total_blocks());
    }

    #[test]
    fn grouped_paged_decode_matches_grouped_contiguous() {
        let (heads, kv_heads, t, embed, block_tokens, seed) = (4, 2, 11, 6, 3, 13);
        let (q, _, _) = random_qkv(1, heads, t, embed, seed);
        let (_, k, v) = random_qkv(1, kv_heads, t, embed, seed + 1);
        let mut contiguous = KvCache::grouped(heads, kv_heads, embed).unwrap();
        let mut pool = KvBlockPool::new(block_tokens, kv_heads, embed);
        let mut paged = PagedKvCache::new(heads, kv_heads, embed, block_tokens).unwrap();
        let mut out_c = vec![0.0f32; heads * embed];
        let mut out_p = vec![0.0f32; heads * embed];
        for i in 0..t {
            let (ks, vs, qs) = (gather(&k, i), gather(&v, i), gather(&q, i));
            contiguous.append(&ks, &vs).unwrap();
            paged.append(&mut pool, &ks, &vs).unwrap();
            decode_attention(&contiguous, &qs, &mut out_c).unwrap();
            decode_attention_paged(&pool, &paged, &qs, &mut out_p).unwrap();
            assert_eq!(out_c, out_p, "step {i}");
        }
    }

    #[test]
    fn fragmentation_reflects_the_partial_tail_block() {
        let mut pool = KvBlockPool::new(8, 1, 2);
        let mut cache = PagedKvCache::new(1, 1, 2, 8).unwrap();
        assert_eq!(cache.fragmentation(), 0.0);
        cache.append(&mut pool, &[0.0; 2], &[0.0; 2]).unwrap();
        // 1 of 8 slots used.
        assert!((cache.fragmentation() - 7.0 / 8.0).abs() < 1e-12);
        for _ in 1..8 {
            cache.append(&mut pool, &[0.0; 2], &[0.0; 2]).unwrap();
        }
        assert_eq!(cache.fragmentation(), 0.0);
    }

    #[test]
    fn invalid_grouping_is_a_typed_error() {
        assert_eq!(
            PagedKvCache::new(8, 3, 4, 16).unwrap_err(),
            TensorError::InvalidHeadGrouping {
                heads: 8,
                kv_heads: 3
            }
        );
    }

    #[test]
    fn zero_dimensions_are_typed_errors() {
        for (heads, embed, block_tokens, dim) in [
            (0, 4, 16, "heads"),
            (2, 0, 16, "embed"),
            (2, 4, 0, "block_tokens"),
        ] {
            assert_eq!(
                PagedKvCache::new(heads, 1, embed, block_tokens).unwrap_err(),
                TensorError::ZeroDimension { dim }
            );
        }
    }

    #[test]
    fn released_cache_is_empty_and_restartable() {
        // Regression: after release, len() must drop to zero so decode is
        // the usual empty-cache error (not an arithmetic panic), and a
        // fresh append must restart cleanly at slot 0 of a new block.
        let mut pool = KvBlockPool::new(2, 1, 2);
        let mut cache = PagedKvCache::new(1, 1, 2, 2).unwrap();
        for _ in 0..5 {
            cache.append(&mut pool, &[1.0, 2.0], &[3.0, 4.0]).unwrap();
        }
        cache.release(&mut pool);
        assert_eq!(cache.len(), 0);
        assert!(cache.is_empty());
        assert_eq!(cache.resident_tokens(), 0);
        assert_eq!(cache.evicted_tokens(), 5);
        let mut out = [0.0f32; 2];
        assert!(matches!(
            decode_attention_paged(&pool, &cache, &[1.0, 0.0], &mut out),
            Err(TensorError::ZeroDimension { .. })
        ));
        // Restart: appending again works and decode sees only the new token.
        cache.append(&mut pool, &[0.0, 0.0], &[7.0, 8.0]).unwrap();
        assert_eq!((cache.len(), cache.allocated_blocks()), (1, 1));
        decode_attention_paged(&pool, &cache, &[1.0, 0.0], &mut out).unwrap();
        assert_eq!(out, [7.0, 8.0]);
        // A released *windowed* cache behaves the same.
        let mut windowed = PagedKvCache::new(1, 1, 2, 2).unwrap().with_window(3);
        for _ in 0..5 {
            windowed
                .append(&mut pool, &[1.0, 2.0], &[3.0, 4.0])
                .unwrap();
        }
        windowed.release(&mut pool);
        assert_eq!(windowed.len(), 0);
        assert!(matches!(
            decode_attention_paged(&pool, &windowed, &[1.0, 0.0], &mut out),
            Err(TensorError::ZeroDimension { .. })
        ));
    }

    #[test]
    fn release_returns_every_block() {
        let mut pool = KvBlockPool::new(2, 1, 2);
        let mut a = PagedKvCache::new(1, 1, 2, 2).unwrap();
        let mut b = PagedKvCache::new(1, 1, 2, 2).unwrap();
        for _ in 0..5 {
            a.append(&mut pool, &[1.0; 2], &[1.0; 2]).unwrap();
            b.append(&mut pool, &[2.0; 2], &[2.0; 2]).unwrap();
        }
        assert_eq!(pool.live_blocks(), 6);
        a.release(&mut pool);
        assert_eq!(pool.live_blocks(), 3);
        assert_eq!(a.allocated_blocks(), 0);
        b.release(&mut pool);
        assert_eq!(pool.live_blocks(), 0);
        assert_eq!(pool.peak_live_blocks(), 6);
    }
}
