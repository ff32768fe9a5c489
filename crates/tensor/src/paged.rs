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
//!   per-block reference counts, optional capacity bound, and live/peak
//!   accounting. Freed blocks are always reused before the arena grows.
//! * [`PagedKvCache`] — one session's logical cache: a table of pool block
//!   ids covering its tokens in order, plus append/sliding-window logic.
//!   Eviction returns *whole blocks* to the pool (a block is freed once all
//!   of its tokens fall outside the window), while the attended token set
//!   stays exactly the window's newest tokens — identical to the contiguous
//!   cache's.
//! * [`PrefixIndex`] — a radix tree over token-block contents (SGLang
//!   RadixAttention style) enabling *cross-session prefix sharing*: sessions
//!   whose prompts share a block-aligned prefix map the same physical
//!   blocks via [`PagedKvCache::open_with_prefix`], with copy-on-write on
//!   divergence and LRU eviction of index-only blocks under pool pressure.
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
//! 4. **Pool conservation.** `free_blocks + live_blocks == total_blocks` at
//!    every step; `peak_live_blocks` is the high-water mark of
//!    `live_blocks` (pinned by the allocator proptests in
//!    `crates/tensor/tests/paged_alloc.rs`).
//!
//! ## Prefix-sharing invariants
//!
//! 5. **Blocks are refcounted; a free is a decref.** [`KvBlockPool::alloc`]
//!    creates a block with refcount 1, [`KvBlockPool::retain`] adds a
//!    holder, and [`KvBlockPool::free`] drops one — the block only returns
//!    to the free list (and leaves the live count) when the *last* holder
//!    drops it, so releasing one sharing session can never free blocks a
//!    sibling session (or the prefix index) still references. `live_blocks`
//!    counts **unique** physical blocks with refcount > 0, so conservation
//!    (invariant 4) is unchanged under sharing.
//! 6. **The prefix index shares only verified content, only within one
//!    pool.** [`PrefixIndex`] nodes key full blocks by a content hash of
//!    their token ids *and* verify exact token equality on lookup (hash
//!    collisions cannot alias prefixes). The index binds to the first
//!    pool's identity and [`KvDtype`] it is used with; resolving or
//!    publishing against any other pool (or a differently-typed clone) is a
//!    typed [`TensorError::BlockGeometryMismatch`], never a silent read of
//!    foreign rows. The index holds its own refcount on every indexed
//!    block, so shared prefixes outlive their publishing session; LRU
//!    eviction reclaims only *leaf* nodes whose block has refcount 1 (the
//!    index's own) — it never frees a block any session still maps.
//! 7. **Shared table entries are read-only until copy-on-write.** A session
//!    opened with [`PagedKvCache::open_with_prefix`] counts its leading
//!    shared table entries; all of them except possibly a partially-matched
//!    tail are full and never written again. The first append *into* a
//!    shared tail block clones the written-prefix rows into a private block
//!    (dropping one ref on the source, whose bytes are never mutated);
//!    window-evicting *past* a shared block likewise just drops the
//!    session's ref. Decode reads only resident slots, so a partially
//!    matched tail's extra rows are never attended — shared-prefix decode
//!    is bit-identical to a fully private session with the same tokens
//!    (pinned by the shared-prefix oracle in
//!    `tests/paged_vs_contiguous.rs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::decode::{check_head_grouping, decode_step, Rows};
use crate::error::{Result, TensorError};
use crate::half::{f32_to_f16_bits_saturating, KvDtype};

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
    /// Storage dtype of the arenas. Exactly one pair of arenas (`k`/`v` for
    /// [`KvDtype::F32`], `k16`/`v16` for [`KvDtype::F16`]) is populated.
    dtype: KvDtype,
    /// Arena of key rows: `total_blocks × kv_heads × block_tokens × embed`,
    /// block-major then head-major (invariant 2 of the module docs).
    k: Vec<f32>,
    /// Arena of value rows, same layout as `k`.
    v: Vec<f32>,
    /// f16 key arena (same layout as `k`, one `u16` of f16 bits per
    /// element); used instead of `k` under [`KvDtype::F16`].
    k16: Vec<u16>,
    /// f16 value arena, same layout as `k16`.
    v16: Vec<u16>,
    /// Indices of freed blocks, reused LIFO.
    free: Vec<usize>,
    /// Per-block reference counts, parallel to the arena. A block is live
    /// iff its refcount is non-zero; [`KvBlockPool::free`] is a decref and
    /// only returns the block to the free list at zero (module invariant 5).
    refs: Vec<u32>,
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
            dtype: KvDtype::F32,
            k: Vec::new(),
            v: Vec::new(),
            k16: Vec::new(),
            v16: Vec::new(),
            free: Vec::new(),
            refs: Vec::new(),
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
    /// saturating f16 store ([`f32_to_f16_bits_saturating`]) and blocks
    /// charge half the bytes of f32 blocks.
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
        self.dtype = dtype;
        self
    }

    /// Storage dtype of the pool's arenas.
    #[must_use]
    pub fn dtype(&self) -> KvDtype {
        self.dtype
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
        if self.block_stride() == 0 {
            return 0;
        }
        let elements = match self.dtype {
            KvDtype::F32 => self.k.len(),
            KvDtype::F16 => self.k16.len(),
        };
        elements / self.block_stride()
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
        self.block_bytes(self.dtype.element_bytes())
    }

    /// Bytes of all live blocks at the pool's own storage dtype.
    #[must_use]
    pub fn live_storage_bytes(&self) -> usize {
        self.live * self.storage_block_bytes()
    }

    /// Allocates one block, reusing the most recently freed block if any,
    /// growing the arena otherwise. The block's contents are zeroed and its
    /// refcount starts at 1 (the caller is the sole holder).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BlockPoolExhausted`] if the pool is bounded
    /// and every block is live.
    pub fn alloc(&mut self) -> Result<BlockId> {
        let id = if let Some(reused) = self.free.pop() {
            let stride = self.block_stride();
            match self.dtype {
                KvDtype::F32 => {
                    self.k[reused * stride..(reused + 1) * stride].fill(0.0);
                    self.v[reused * stride..(reused + 1) * stride].fill(0.0);
                }
                KvDtype::F16 => {
                    self.k16[reused * stride..(reused + 1) * stride].fill(0);
                    self.v16[reused * stride..(reused + 1) * stride].fill(0);
                }
            }
            reused
        } else {
            if let Some(max) = self.max_blocks {
                if self.total_blocks() >= max {
                    return Err(TensorError::BlockPoolExhausted {
                        capacity_blocks: max,
                    });
                }
            }
            let id = self.total_blocks();
            let stride = self.block_stride();
            match self.dtype {
                KvDtype::F32 => {
                    self.k.resize(self.k.len() + stride, 0.0);
                    self.v.resize(self.v.len() + stride, 0.0);
                }
                KvDtype::F16 => {
                    self.k16.resize(self.k16.len() + stride, 0);
                    self.v16.resize(self.v16.len() + stride, 0);
                }
            }
            self.refs.push(0);
            id
        };
        self.refs[id] = 1;
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        Ok(BlockId(id))
    }

    /// Adds one holder to a live block — how a sharing session (or the
    /// [`PrefixIndex`]) maps an existing physical block into its table.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the block is not live.
    pub fn retain(&mut self, id: BlockId) {
        assert!(id.0 < self.total_blocks(), "retained block id out of range");
        assert!(self.refs[id.0] > 0, "retain of a free block {}", id.0);
        self.refs[id.0] += 1;
    }

    /// The number of holders of a block (0 for a freed block).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn refcount(&self, id: BlockId) -> u32 {
        assert!(id.0 < self.total_blocks(), "block id out of range");
        self.refs[id.0]
    }

    /// Drops one holder of a block; the block returns to the free list for
    /// reuse only when the last holder drops it (module invariant 5 — a
    /// sharing sibling's or the prefix index's reference keeps it live).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the block is already free: a
    /// double free is a logic error in the caller's block table, not a
    /// recoverable state.
    pub fn free(&mut self, id: BlockId) {
        assert!(id.0 < self.total_blocks(), "freed block id out of range");
        assert!(self.refs[id.0] > 0, "double free of block {}", id.0);
        self.refs[id.0] -= 1;
        if self.refs[id.0] == 0 {
            self.free.push(id.0);
            self.live -= 1;
        }
    }

    /// Copies the K and V rows of slots `[0, slots)` (every KV head) from
    /// `src` into `dst` — the copy-on-write clone step. `dst` is typically
    /// freshly allocated (zeroed), so after the copy it is byte-identical
    /// to a block that had the same `slots` tokens appended privately.
    fn copy_rows(&mut self, src: BlockId, dst: BlockId, slots: usize) {
        debug_assert!(slots <= self.block_tokens);
        let (embed, head_stride, block_stride) =
            (self.embed, self.head_stride(), self.block_stride());
        for h in 0..self.kv_heads {
            let s = src.0 * block_stride + h * head_stride;
            let d = dst.0 * block_stride + h * head_stride;
            let len = slots * embed;
            match self.dtype {
                KvDtype::F32 => {
                    self.k.copy_within(s..s + len, d);
                    self.v.copy_within(s..s + len, d);
                }
                KvDtype::F16 => {
                    self.k16.copy_within(s..s + len, d);
                    self.v16.copy_within(s..s + len, d);
                }
            }
        }
    }

    /// Allocates a private copy of `src` holding its first `slots` tokens'
    /// rows — the copy-on-write clone. The source block's bytes are never
    /// mutated and its refcount is unchanged (the caller decides whether to
    /// drop its own reference).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BlockPoolExhausted`] if the bounded pool is
    /// full.
    pub fn clone_block(&mut self, src: BlockId, slots: usize) -> Result<BlockId> {
        let dst = self.alloc()?;
        self.copy_rows(src, dst, slots);
        Ok(dst)
    }

    /// The contiguous key rows `[slot_start, slot_end)` of KV head `h` in
    /// block `id` (each row `embed` wide).
    ///
    /// # Panics
    ///
    /// Panics unless the pool stores [`KvDtype::F32`]; use
    /// [`KvBlockPool::key_bits`] for f16 pools.
    #[must_use]
    pub fn key_rows(&self, id: BlockId, h: usize, slot_start: usize, slot_end: usize) -> &[f32] {
        assert_eq!(self.dtype, KvDtype::F32, "key_rows requires an f32 pool");
        let base = id.0 * self.block_stride() + h * self.head_stride();
        &self.k[base + slot_start * self.embed..base + slot_end * self.embed]
    }

    /// The contiguous value rows `[slot_start, slot_end)` of KV head `h` in
    /// block `id`.
    ///
    /// # Panics
    ///
    /// Panics unless the pool stores [`KvDtype::F32`]; use
    /// [`KvBlockPool::value_bits`] for f16 pools.
    #[must_use]
    pub fn value_rows(&self, id: BlockId, h: usize, slot_start: usize, slot_end: usize) -> &[f32] {
        assert_eq!(self.dtype, KvDtype::F32, "value_rows requires an f32 pool");
        let base = id.0 * self.block_stride() + h * self.head_stride();
        &self.v[base + slot_start * self.embed..base + slot_end * self.embed]
    }

    /// The raw f16 bits of key rows `[slot_start, slot_end)` of KV head `h`
    /// in block `id` (each row `embed` wide).
    ///
    /// # Panics
    ///
    /// Panics unless the pool stores [`KvDtype::F16`].
    #[must_use]
    pub fn key_bits(&self, id: BlockId, h: usize, slot_start: usize, slot_end: usize) -> &[u16] {
        assert_eq!(self.dtype, KvDtype::F16, "key_bits requires an f16 pool");
        let base = id.0 * self.block_stride() + h * self.head_stride();
        &self.k16[base + slot_start * self.embed..base + slot_end * self.embed]
    }

    /// The raw f16 bits of value rows `[slot_start, slot_end)` of KV head
    /// `h` in block `id`.
    ///
    /// # Panics
    ///
    /// Panics unless the pool stores [`KvDtype::F16`].
    #[must_use]
    pub fn value_bits(&self, id: BlockId, h: usize, slot_start: usize, slot_end: usize) -> &[u16] {
        assert_eq!(self.dtype, KvDtype::F16, "value_bits requires an f16 pool");
        let base = id.0 * self.block_stride() + h * self.head_stride();
        &self.v16[base + slot_start * self.embed..base + slot_end * self.embed]
    }

    /// Writes one token's K/V rows (head-major, `kv_heads × embed` each)
    /// into slot `slot` of block `id`, converting with the saturating f16
    /// store when the pool holds [`KvDtype::F16`].
    fn write_token(&mut self, id: BlockId, slot: usize, k_step: &[f32], v_step: &[f32]) {
        let (embed, head_stride, block_stride) =
            (self.embed, self.head_stride(), self.block_stride());
        for h in 0..self.kv_heads {
            let base = id.0 * block_stride + h * head_stride + slot * embed;
            let (k_src, v_src) = (
                &k_step[h * embed..(h + 1) * embed],
                &v_step[h * embed..(h + 1) * embed],
            );
            match self.dtype {
                KvDtype::F32 => {
                    self.k[base..base + embed].copy_from_slice(k_src);
                    self.v[base..base + embed].copy_from_slice(v_src);
                }
                KvDtype::F16 => {
                    for (dst, &x) in self.k16[base..base + embed].iter_mut().zip(k_src) {
                        *dst = f32_to_f16_bits_saturating(x);
                    }
                    for (dst, &x) in self.v16[base..base + embed].iter_mut().zip(v_src) {
                        *dst = f32_to_f16_bits_saturating(x);
                    }
                }
            }
        }
    }
}

/// FNV-1a over the little-endian bytes of a token-id run — the content
/// hash keying radix children. Lookups verify exact token equality after
/// the hash match, so collisions cost a scan, never a false share.
fn hash_tokens(tokens: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &t in tokens {
        for b in t.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The pool identity and storage dtype a [`PrefixIndex`] is bound to (set
/// at first use): block ids and row bytes are only meaningful within one
/// pool, so cross-pool or cross-dtype use is a typed error, never a match.
#[derive(Debug, Clone, Copy, PartialEq)]
struct IndexBinding {
    pool_id: u64,
    dtype: KvDtype,
}

/// One radix node: a full block's token ids, the physical block holding
/// their rows (the index holds one refcount on it), and hash-keyed child
/// buckets for the next block of deeper prefixes.
#[derive(Debug, Clone, PartialEq)]
struct PrefixNode {
    /// Exactly `block_tokens` token ids — the block's verified content.
    tokens: Vec<u64>,
    block: BlockId,
    parent: Option<usize>,
    /// Content hash → node slots of children (buckets are collision
    /// chains; empty buckets are removed, so a leaf has an empty map).
    children: BTreeMap<u64, Vec<usize>>,
    /// Logical-clock timestamp of the last resolve/publish touching the
    /// node — the LRU eviction key.
    last_use: u64,
}

/// The longest indexed prefix of a prompt: matched full-block node slots in
/// chain order, an optional partially-matched tail node (taken only when
/// the remaining prompt is a strict prefix of one block's content), the
/// matched token count, and the deepest full-block node to keep publishing
/// under.
struct ResolvedPrefix {
    slots: Vec<usize>,
    partial: Option<usize>,
    matched: usize,
    parent: Option<(usize, u64)>,
}

/// A radix tree over token-block contents, mapping block-aligned prompt
/// prefixes to the physical [`KvBlockPool`] blocks that already hold their
/// K/V rows (module invariant 6). Sessions resolve their longest shared
/// prefix at open via [`PagedKvCache::open_with_prefix`] and publish their
/// own full prompt blocks as they fill via
/// [`PagedKvCache::append_with_prefix`]; under pool pressure,
/// least-recently-used index-only leaves are evicted to make room.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixIndex {
    block_tokens: usize,
    bound: Option<IndexBinding>,
    /// Node slab; freed slots are `None` and reusable.
    nodes: Vec<Option<PrefixNode>>,
    /// Per-slot generation counters, bumped on eviction so a publisher's
    /// stale parent handle can never attach under a recycled slot.
    gens: Vec<u64>,
    free_slots: Vec<usize>,
    /// Content hash → node slots of depth-0 blocks (prompt starts).
    roots: BTreeMap<u64, Vec<usize>>,
    /// Logical clock driving `last_use` (monotone per index).
    clock: u64,
}

impl PrefixIndex {
    /// Creates an empty index over `block_tokens`-token blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero.
    #[must_use]
    pub fn new(block_tokens: usize) -> Self {
        assert!(block_tokens > 0, "prefix index block size must be non-zero");
        Self {
            block_tokens,
            bound: None,
            nodes: Vec::new(),
            gens: Vec::new(),
            free_slots: Vec::new(),
            roots: BTreeMap::new(),
            clock: 0,
        }
    }

    /// Tokens per indexed block.
    #[must_use]
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Number of indexed blocks (radix nodes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Whether the index holds no blocks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Binds the index to `pool` on first use; afterwards, use with any
    /// other pool — or a differently-typed pool — is a typed error
    /// (module invariant 6): a prefix indexed under one pool identity or
    /// [`KvDtype`] must never match in another.
    ///
    /// # Errors
    ///
    /// [`TensorError::BlockGeometryMismatch`] with `param: "block_tokens"`
    /// (geometry), `"kv dtype"` (stored dtype differs from the binding) or
    /// `"pool identity"` (different pool than the binding).
    fn ensure_bound(&mut self, pool: &KvBlockPool) -> Result<()> {
        if pool.block_tokens() != self.block_tokens {
            return Err(TensorError::BlockGeometryMismatch {
                param: "block_tokens",
                pool: pool.block_tokens(),
                cache: self.block_tokens,
            });
        }
        match self.bound {
            None => {
                self.bound = Some(IndexBinding {
                    pool_id: pool.id,
                    dtype: pool.dtype(),
                });
                Ok(())
            }
            Some(b) if b.dtype != pool.dtype() => Err(TensorError::BlockGeometryMismatch {
                param: "kv dtype",
                pool: pool.dtype().element_bytes(),
                cache: b.dtype.element_bytes(),
            }),
            Some(b) if b.pool_id != pool.id => Err(TensorError::BlockGeometryMismatch {
                param: "pool identity",
                pool: pool.id as usize,
                cache: b.pool_id as usize,
            }),
            Some(_) => Ok(()),
        }
    }

    /// Bumps the LRU clock on a node.
    fn touch(&mut self, slot: usize) {
        self.clock += 1;
        if let Some(node) = &mut self.nodes[slot] {
            node.last_use = self.clock;
        }
    }

    /// The child of `parent` (or root) whose tokens equal `tokens` exactly.
    fn find_child(&self, parent: Option<usize>, tokens: &[u64]) -> Option<usize> {
        let bucket = match parent {
            Some(p) => self.nodes[p].as_ref()?.children.get(&hash_tokens(tokens)),
            None => self.roots.get(&hash_tokens(tokens)),
        }?;
        bucket
            .iter()
            .copied()
            .find(|&s| self.nodes[s].as_ref().is_some_and(|n| n.tokens == tokens))
    }

    /// The first child of `parent` (or root) whose content *starts with*
    /// `prefix` — the partial-tail share. Buckets are scanned in
    /// deterministic (`BTreeMap`) order; any match is correct since decode
    /// only reads the matched slots.
    fn find_child_by_prefix(&self, parent: Option<usize>, prefix: &[u64]) -> Option<usize> {
        let children = match parent {
            Some(p) => &self.nodes[p].as_ref()?.children,
            None => &self.roots,
        };
        children.values().flatten().copied().find(|&s| {
            self.nodes[s]
                .as_ref()
                .is_some_and(|n| n.tokens.starts_with(prefix))
        })
    }

    /// The longest indexed prefix of `tokens`: full-block chain matches,
    /// then an optional partial-tail match covering the *entire* remainder.
    /// Touches every matched node for LRU.
    fn resolve(&mut self, tokens: &[u64]) -> ResolvedPrefix {
        let bt = self.block_tokens;
        let mut slots = Vec::new();
        let mut parent: Option<usize> = None;
        let mut matched = 0;
        while matched + bt <= tokens.len() {
            match self.find_child(parent, &tokens[matched..matched + bt]) {
                Some(slot) => {
                    self.touch(slot);
                    slots.push(slot);
                    parent = Some(slot);
                    matched += bt;
                }
                None => break,
            }
        }
        let mut partial = None;
        if matched < tokens.len() && tokens.len() - matched < bt {
            if let Some(slot) = self.find_child_by_prefix(parent, &tokens[matched..]) {
                self.touch(slot);
                partial = Some(slot);
                matched = tokens.len();
            }
        }
        let parent = parent.map(|p| (p, self.gens[p]));
        ResolvedPrefix {
            slots,
            partial,
            matched,
            parent,
        }
    }

    /// The number of leading tokens of `tokens` the index would share
    /// (counting only full-block chain matches), without touching LRU state
    /// — a read-only probe for tests and diagnostics.
    #[must_use]
    pub fn probe(&self, tokens: &[u64]) -> usize {
        let bt = self.block_tokens;
        let mut parent: Option<usize> = None;
        let mut matched = 0;
        while matched + bt <= tokens.len() {
            match self.find_child(parent, &tokens[matched..matched + bt]) {
                Some(slot) => {
                    parent = Some(slot);
                    matched += bt;
                }
                None => break,
            }
        }
        matched
    }

    /// The physical block of node `slot`.
    fn node_block(&self, slot: usize) -> BlockId {
        self.nodes[slot].as_ref().expect("occupied node slot").block
    }

    /// Publishes one full block under `parent` (a `(slot, generation)`
    /// handle, `None` for a prompt-start block). If an equal-content child
    /// already exists, it is adopted (deduplicated) and `block` keeps its
    /// current holders only; otherwise the index retains `block` as its own
    /// holder and inserts a node. Returns the handle to chain the next
    /// block under, or `None` when `parent` was evicted (stale generation)
    /// — the publisher stops publishing.
    fn insert(
        &mut self,
        pool: &mut KvBlockPool,
        parent: Option<(usize, u64)>,
        tokens: &[u64],
        block: BlockId,
    ) -> Option<(usize, u64)> {
        debug_assert_eq!(tokens.len(), self.block_tokens);
        let parent_slot = match parent {
            None => None,
            Some((slot, gen)) => {
                if self.gens.get(slot) != Some(&gen) || self.nodes[slot].is_none() {
                    return None;
                }
                Some(slot)
            }
        };
        if let Some(existing) = self.find_child(parent_slot, tokens) {
            self.touch(existing);
            return Some((existing, self.gens[existing]));
        }
        pool.retain(block);
        self.clock += 1;
        let node = PrefixNode {
            tokens: tokens.to_vec(),
            block,
            parent: parent_slot,
            children: BTreeMap::new(),
            last_use: self.clock,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.nodes[s] = Some(node);
                s
            }
            None => {
                self.nodes.push(Some(node));
                self.gens.push(0);
                self.nodes.len() - 1
            }
        };
        let hash = hash_tokens(tokens);
        match parent_slot {
            Some(p) => self.nodes[p]
                .as_mut()
                .expect("validated parent")
                .children
                .entry(hash)
                .or_default()
                .push(slot),
            None => self.roots.entry(hash).or_default().push(slot),
        }
        Some((slot, self.gens[slot]))
    }

    /// Evicts the least-recently-used *leaf* node whose block has refcount
    /// 1 — i.e. held only by the index itself — freeing the block back to
    /// the pool. Returns the freed block, or `None` when every node is
    /// either interior or still mapped by a session (eviction never frees a
    /// referenced block; module invariant 6).
    pub fn evict_lru(&mut self, pool: &mut KvBlockPool) -> Option<BlockId> {
        let mut victim: Option<(u64, usize)> = None;
        for (slot, entry) in self.nodes.iter().enumerate() {
            if let Some(node) = entry {
                if node.children.is_empty() && pool.refcount(node.block) == 1 {
                    match victim {
                        Some((lu, _)) if lu <= node.last_use => {}
                        _ => victim = Some((node.last_use, slot)),
                    }
                }
            }
        }
        let (_, slot) = victim?;
        let node = self.nodes[slot].take().expect("victim slot occupied");
        let hash = hash_tokens(&node.tokens);
        match node.parent {
            Some(p) => {
                let children = &mut self.nodes[p].as_mut().expect("live parent").children;
                if let Some(bucket) = children.get_mut(&hash) {
                    bucket.retain(|&s| s != slot);
                    if bucket.is_empty() {
                        children.remove(&hash);
                    }
                }
            }
            None => {
                if let Some(bucket) = self.roots.get_mut(&hash) {
                    bucket.retain(|&s| s != slot);
                    if bucket.is_empty() {
                        self.roots.remove(&hash);
                    }
                }
            }
        }
        self.gens[slot] += 1;
        self.free_slots.push(slot);
        pool.free(node.block);
        Some(node.block)
    }

    /// Evicts every index-only leaf (LRU-first, cascading up freed chains),
    /// returning the number of blocks freed — full pressure relief.
    pub fn evict_unreferenced(&mut self, pool: &mut KvBlockPool) -> usize {
        let mut freed = 0;
        while self.evict_lru(pool).is_some() {
            freed += 1;
        }
        freed
    }
}

/// Allocates from `pool`, reclaiming LRU index-only prefix blocks on
/// exhaustion (the pool-pressure path of module invariant 6).
fn alloc_with_reclaim(pool: &mut KvBlockPool, index: Option<&mut PrefixIndex>) -> Result<BlockId> {
    match pool.alloc() {
        Ok(id) => Ok(id),
        Err(TensorError::BlockPoolExhausted { .. }) if index.is_some() => {
            let ix = index.expect("checked above");
            while ix.evict_lru(pool).is_some() {
                if let Ok(id) = pool.alloc() {
                    return Ok(id);
                }
            }
            pool.alloc()
        }
        Err(e) => Err(e),
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
    /// Leading table entries mapped (read-only) from the prefix index.
    /// Every one except possibly the last is full; the first append into a
    /// partially-filled shared tail triggers copy-on-write, and window
    /// eviction past a shared front just drops the session's reference
    /// (module invariant 7).
    shared_blocks: usize,
    /// Publishing state while the session's own prompt blocks are being
    /// appended and inserted into the prefix index; `None` once the prompt
    /// is exhausted (decode tokens are never published).
    publish: Option<PublishState>,
}

/// Publishing bookkeeping for a session opened with
/// [`PagedKvCache::open_with_prefix`]: the unmatched prompt tail still to
/// append, the token ids accumulated into the current tail block, and the
/// radix node to chain the next published block under.
#[derive(Debug, Clone, PartialEq)]
struct PublishState {
    /// Prompt tokens not yet appended; `pending[cursor..]` remain.
    pending: Vec<u64>,
    cursor: usize,
    /// Token ids of the (block-aligned) tail block being filled — exactly
    /// the slots written so far.
    block: Vec<u64>,
    /// `(slot, generation)` of the deepest chained node, `None` at the
    /// radix root. A stale generation (the node was evicted) cleanly stops
    /// publishing.
    parent: Option<(usize, u64)>,
}

impl PagedKvCache {
    /// Creates an unbounded paged cache for `heads` query heads over
    /// `kv_heads` shared KV heads, in `block_tokens`-token blocks.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidHeadGrouping`] if `kv_heads` is zero,
    /// exceeds `heads` or does not divide it.
    ///
    /// # Panics
    ///
    /// Panics if `heads`, `embed` or `block_tokens` is zero.
    pub fn new(heads: usize, kv_heads: usize, embed: usize, block_tokens: usize) -> Result<Self> {
        assert!(
            heads > 0 && embed > 0 && block_tokens > 0,
            "paged KV cache dimensions must be non-zero"
        );
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
            shared_blocks: 0,
            publish: None,
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
    /// block from `pool` when the previous one is full, copies a shared
    /// tail block on write (module invariant 7), and frees front blocks
    /// that slid fully out of the window.
    ///
    /// A plain append stops prefix publishing for the session (the token
    /// stream diverged from the declared prompt); use
    /// [`PagedKvCache::append_with_prefix`] to keep publishing prompt
    /// blocks into the index.
    ///
    /// # Errors
    ///
    /// * [`TensorError::DataLengthMismatch`] if a slice is not
    ///   `kv_heads · embed` long,
    /// * [`TensorError::BlockGeometryMismatch`] if `pool` was built for a
    ///   different block geometry, or is not the pool the cache's existing
    ///   blocks came from (`param: "pool identity"`),
    /// * [`TensorError::BlockPoolExhausted`] if a new block (or a
    ///   copy-on-write clone) is needed and the bounded pool is full — the
    ///   cache is left unchanged.
    pub fn append(&mut self, pool: &mut KvBlockPool, k_step: &[f32], v_step: &[f32]) -> Result<()> {
        self.check_pool(pool)?;
        self.publish = None;
        self.append_impl(pool, None, k_step, v_step)
    }

    /// [`PagedKvCache::append`] with the prefix index attached: new blocks
    /// can reclaim LRU index-only blocks under pool pressure, and — while
    /// the [`PagedKvCache::open_with_prefix`] prompt lasts — each filled
    /// prompt block is published into the index for later sessions to
    /// share. Decode-step appends may keep using this method; once the
    /// declared prompt is exhausted publishing stops by itself.
    ///
    /// # Errors
    ///
    /// As [`PagedKvCache::append`], plus the index binding checks of
    /// [`PagedKvCache::open_with_prefix`].
    pub fn append_with_prefix(
        &mut self,
        pool: &mut KvBlockPool,
        index: &mut PrefixIndex,
        k_step: &[f32],
        v_step: &[f32],
    ) -> Result<()> {
        self.check_pool(pool)?;
        index.ensure_bound(pool)?;
        self.append_impl(pool, Some(index), k_step, v_step)
    }

    /// The shared append body: CoW-aware write, optional index-pressure
    /// reclaim, publishing, and window eviction.
    fn append_impl(
        &mut self,
        pool: &mut KvBlockPool,
        mut index: Option<&mut PrefixIndex>,
        k_step: &[f32],
        v_step: &[f32],
    ) -> Result<()> {
        let expected = self.kv_heads * self.embed;
        for step in [k_step, v_step] {
            if step.len() != expected {
                return Err(TensorError::DataLengthMismatch {
                    expected,
                    actual: step.len(),
                });
            }
        }
        let slot = (self.appended_tokens - self.freed_tokens) % self.block_tokens;
        let needs_block =
            self.appended_tokens - self.freed_tokens == self.table.len() * self.block_tokens;
        if needs_block {
            let id = alloc_with_reclaim(pool, index.as_deref_mut())?;
            self.table.push(id);
        } else if self.table.len() == self.shared_blocks {
            // Copy-on-write: the write targets the partially-matched shared
            // tail. Clone its written slots into a private block (sole
            // holder short-circuit: if no sibling or index holds it, it is
            // already private — just un-share it in place).
            let src = *self.table.last().expect("shared tail exists");
            if pool.refcount(src) > 1 {
                let dst = alloc_with_reclaim(pool, index.as_deref_mut())?;
                pool.copy_rows(src, dst, slot);
                pool.free(src);
                *self.table.last_mut().expect("tail block exists") = dst;
            }
            self.shared_blocks -= 1;
        }
        let block = *self.table.last().expect("tail block exists");
        pool.write_token(block, slot, k_step, v_step);
        self.appended_tokens += 1;
        self.bound_pool_id = Some(pool.id);

        // Whole-block eviction: free front blocks whose every token left the
        // attended window. Evicting a shared front just drops this session's
        // reference — siblings and the index keep the block alive.
        if self.window_tokens.is_some() {
            let attended_start = self.appended_tokens - self.len();
            while self.freed_tokens + self.block_tokens <= attended_start {
                let front = self.table.remove(0);
                pool.free(front);
                self.freed_tokens += self.block_tokens;
                self.shared_blocks = self.shared_blocks.saturating_sub(1);
            }
        }

        // Publishing: consume one pending prompt token; when it fills the
        // tail block, insert that block into the index (deduplicating
        // against an existing equal-content child). The tail block cannot
        // have been evicted above — it holds the newest attended token.
        let mut stop_publishing = false;
        if let Some(p) = &mut self.publish {
            if p.cursor < p.pending.len() {
                let token = p.pending[p.cursor];
                p.cursor += 1;
                p.block.push(token);
                if p.block.len() == self.block_tokens {
                    let ix = index
                        .take()
                        .expect("publishing runs only with the index attached");
                    let published = *self.table.last().expect("tail block exists");
                    match ix.insert(pool, p.parent, &p.block, published) {
                        Some(handle) => {
                            p.parent = Some(handle);
                            p.block.clear();
                        }
                        None => stop_publishing = true,
                    }
                }
            } else {
                // The prompt is exhausted: the next appended token is a
                // decode token and its block must never be indexed.
                stop_publishing = true;
            }
        }
        if stop_publishing {
            self.publish = None;
        }
        Ok(())
    }

    /// Opens a fresh session from its full prompt token ids: resolves the
    /// longest indexed prefix of `tokens` in `index`, maps those physical
    /// blocks into the table (retaining each — module invariants 5–7), and
    /// arms publishing so the *unmatched* prompt tail appended via
    /// [`PagedKvCache::append_with_prefix`] is inserted into the index for
    /// later sessions. Returns the number of prompt tokens covered by
    /// shared blocks; the caller appends K/V rows for exactly the remaining
    /// `tokens.len() - matched` prompt tokens (then decode tokens as
    /// usual).
    ///
    /// A partially-filled shared tail is taken only when it covers the
    /// entire remaining prompt, so the matched count is always either
    /// block-aligned or the whole prompt. Window eviction applies
    /// immediately (a prompt longer than the window drops stale front
    /// blocks' references).
    ///
    /// # Errors
    ///
    /// [`TensorError::BlockGeometryMismatch`] if `pool` does not match the
    /// cache geometry, the index's block size, or the index's bound pool
    /// identity / [`KvDtype`] (`param: "pool identity"` / `"kv dtype"`).
    ///
    /// # Panics
    ///
    /// Panics if the cache is not fresh (tokens were already appended).
    pub fn open_with_prefix(
        &mut self,
        pool: &mut KvBlockPool,
        index: &mut PrefixIndex,
        tokens: &[u64],
    ) -> Result<usize> {
        assert!(
            self.appended_tokens == 0 && self.table.is_empty(),
            "open_with_prefix requires a fresh cache"
        );
        self.check_pool(pool)?;
        index.ensure_bound(pool)?;
        let resolved = index.resolve(tokens);
        for &slot in &resolved.slots {
            let block = index.node_block(slot);
            pool.retain(block);
            self.table.push(block);
        }
        if let Some(slot) = resolved.partial {
            let block = index.node_block(slot);
            pool.retain(block);
            self.table.push(block);
        }
        self.appended_tokens = resolved.matched;
        self.shared_blocks = self.table.len();
        self.bound_pool_id = (!self.table.is_empty()).then_some(pool.id);
        self.publish = (resolved.matched < tokens.len()).then(|| PublishState {
            pending: tokens[resolved.matched..].to_vec(),
            cursor: 0,
            block: Vec::new(),
            parent: resolved.parent,
        });
        // A prompt longer than the window sheds stale shared fronts
        // immediately (dropping references, not bytes — invariant 7).
        if self.window_tokens.is_some() {
            let attended_start = self.appended_tokens - self.len();
            while self.freed_tokens + self.block_tokens <= attended_start {
                let front = self.table.remove(0);
                pool.free(front);
                self.freed_tokens += self.block_tokens;
                self.shared_blocks = self.shared_blocks.saturating_sub(1);
            }
        }
        Ok(resolved.matched)
    }

    /// Leading table entries still mapped read-only from the prefix index
    /// (each would be copied on write; see module invariant 7).
    #[must_use]
    pub fn shared_blocks(&self) -> usize {
        self.shared_blocks
    }

    /// Releases every block back to the pool, leaving the cache empty:
    /// [`PagedKvCache::len`] drops to zero (so a decode attempt is the usual
    /// empty-cache error, not a panic) and appending again restarts cleanly
    /// at slot 0 of a fresh block — in any pool, since the identity binding
    /// is cleared along with the table. Used when a session closes.
    ///
    /// Each drop is a refcount decref: blocks shared with sibling sessions
    /// or the prefix index stay live until their last holder releases
    /// (module invariant 5), so closing one sharing session can never free
    /// a sibling's rows.
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
        self.shared_blocks = 0;
        self.publish = None;
    }
}

/// One autoregressive decode step over a paged cache: each query head's
/// single query row attends over the attended-window rows of its shared KV
/// head, read block by block through the session's block table by the same
/// score/softmax/accumulate step as the contiguous kernel (see
/// [`crate::decode`]). The attended row sequence is identical, so the
/// result is bit-identical to
/// [`decode_attention`](crate::decode::decode_attention) on a contiguous
/// cache holding the same tokens.
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
            let id = table[b];
            match pool.dtype() {
                KvDtype::F32 => (
                    Rows::F32(pool.key_rows(id, h, lo, hi)),
                    Rows::F32(pool.value_rows(id, h, lo, hi)),
                ),
                KvDtype::F16 => (
                    Rows::F16(pool.key_bits(id, h, lo, hi)),
                    Rows::F16(pool.value_bits(id, h, lo, hi)),
                ),
            }
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
        let id = pool.alloc().unwrap();
        assert_eq!(pool.key_rows(id, 0, 0, 1), &[0.0, 0.0]);
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
        let id = pool.alloc().unwrap();
        assert_eq!(pool.key_bits(id, 0, 0, 1), &[0u16, 0u16]);
        assert_eq!(pool.value_bits(id, 0, 0, 1), &[0u16, 0u16]);
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
        let mut contiguous = KvCache::with_capacity(heads, embed, window);
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

    /// Deterministic K/V rows per token id: any two sessions appending the
    /// same token write identical bytes, so shared blocks are byte-equal to
    /// privately written ones.
    fn token_rows(token: u64, kv_heads: usize, embed: usize) -> (Vec<f32>, Vec<f32>) {
        let k = (0..kv_heads * embed)
            .map(|i| (token as f32 * 0.11 + i as f32 * 0.013).sin())
            .collect();
        let v = (0..kv_heads * embed)
            .map(|i| (token as f32 * 0.07 + i as f32 * 0.019).cos())
            .collect();
        (k, v)
    }

    #[test]
    fn refcounted_free_returns_a_block_only_at_zero() {
        let mut pool = KvBlockPool::new(2, 1, 2);
        let a = pool.alloc().unwrap();
        assert_eq!(pool.refcount(a), 1);
        pool.retain(a);
        assert_eq!(pool.refcount(a), 2);
        pool.free(a);
        assert_eq!((pool.live_blocks(), pool.free_blocks()), (1, 0));
        pool.free(a);
        assert_eq!((pool.live_blocks(), pool.free_blocks()), (0, 1));
        assert_eq!(pool.refcount(a), 0);
    }

    #[test]
    fn clone_block_copies_prefix_rows_and_never_mutates_the_source() {
        let mut pool = KvBlockPool::new(4, 1, 2);
        let src = pool.alloc().unwrap();
        pool.write_token(src, 0, &[1.0, 2.0], &[3.0, 4.0]);
        pool.write_token(src, 1, &[5.0, 6.0], &[7.0, 8.0]);
        let (before_k, before_v) = (
            pool.key_rows(src, 0, 0, 4).to_vec(),
            pool.value_rows(src, 0, 0, 4).to_vec(),
        );
        let dst = pool.clone_block(src, 1).unwrap();
        assert_eq!(pool.key_rows(dst, 0, 0, 1), &[1.0, 2.0]);
        assert_eq!(pool.value_rows(dst, 0, 0, 1), &[3.0, 4.0]);
        // Uncopied slots of the clone are zeroed (fresh allocation).
        assert_eq!(pool.key_rows(dst, 0, 1, 4), &[0.0; 6]);
        assert_eq!(pool.key_rows(src, 0, 0, 4), &before_k[..]);
        assert_eq!(pool.value_rows(src, 0, 0, 4), &before_v[..]);
        assert_eq!(pool.refcount(src), 1);
    }

    #[test]
    fn shared_prefix_maps_the_same_physical_blocks() {
        let (kv_heads, embed, bt) = (2, 4, 4);
        let mut pool = KvBlockPool::new(bt, kv_heads, embed);
        let mut index = PrefixIndex::new(bt);
        let prompt: Vec<u64> = (0..8).collect();
        let mut a = PagedKvCache::new(2, kv_heads, embed, bt).unwrap();
        assert_eq!(
            a.open_with_prefix(&mut pool, &mut index, &prompt).unwrap(),
            0
        );
        for &t in &prompt {
            let (k, v) = token_rows(t, kv_heads, embed);
            a.append_with_prefix(&mut pool, &mut index, &k, &v).unwrap();
        }
        assert_eq!(index.len(), 2);
        assert_eq!(index.probe(&prompt), 8);

        let mut b = PagedKvCache::new(2, kv_heads, embed, bt).unwrap();
        assert_eq!(
            b.open_with_prefix(&mut pool, &mut index, &prompt).unwrap(),
            8
        );
        assert_eq!(b.block_table(), a.block_table(), "same physical blocks");
        assert_eq!(b.shared_blocks(), 2);
        // Holders of each block: a's table, the index, b's table.
        for &id in b.block_table() {
            assert_eq!(pool.refcount(id), 3);
        }
        assert_eq!(pool.live_blocks(), 2, "two sessions, one set of blocks");

        let q = vec![0.3f32; 2 * embed];
        let mut out_a = vec![0.0f32; 2 * embed];
        let mut out_b = vec![0.0f32; 2 * embed];
        decode_attention_paged(&pool, &a, &q, &mut out_a).unwrap();
        decode_attention_paged(&pool, &b, &q, &mut out_b).unwrap();
        assert_eq!(out_a, out_b, "shared decode is bitwise-equal to private");
    }

    #[test]
    fn releasing_a_sharing_session_keeps_sibling_blocks_live() {
        // Regression pin for the latent release hazard: before refcounts,
        // release returned every table block unconditionally, so closing
        // one sharing session would hand its siblings' prefix blocks back
        // to the free list for reuse.
        let (kv_heads, embed, bt) = (1, 4, 4);
        let mut pool = KvBlockPool::new(bt, kv_heads, embed);
        let mut index = PrefixIndex::new(bt);
        let prompt: Vec<u64> = (0..8).collect();
        let mut a = PagedKvCache::new(1, kv_heads, embed, bt).unwrap();
        a.open_with_prefix(&mut pool, &mut index, &prompt).unwrap();
        for &t in &prompt {
            let (k, v) = token_rows(t, kv_heads, embed);
            a.append_with_prefix(&mut pool, &mut index, &k, &v).unwrap();
        }
        let mut b = PagedKvCache::new(1, kv_heads, embed, bt).unwrap();
        b.open_with_prefix(&mut pool, &mut index, &prompt).unwrap();

        let q = vec![0.5f32; embed];
        let mut before = vec![0.0f32; embed];
        decode_attention_paged(&pool, &b, &q, &mut before).unwrap();

        a.release(&mut pool);
        assert_eq!(pool.live_blocks(), 2, "shared blocks survive the release");
        // A third session allocating new blocks must not be handed b's rows.
        let mut c = PagedKvCache::new(1, kv_heads, embed, bt).unwrap();
        for t in 100..104u64 {
            let (k, v) = token_rows(t, kv_heads, embed);
            c.append(&mut pool, &k, &v).unwrap();
        }
        let mut after = vec![0.0f32; embed];
        decode_attention_paged(&pool, &b, &q, &mut after).unwrap();
        assert_eq!(before, after, "sibling decode unchanged after release");
    }

    #[test]
    fn cow_divergence_clones_the_shared_tail_and_matches_private() {
        let (kv_heads, embed, bt) = (1, 4, 4);
        let mut pool = KvBlockPool::new(bt, kv_heads, embed);
        let mut index = PrefixIndex::new(bt);
        // Publisher: 8-token prompt -> two indexed full blocks.
        let full: Vec<u64> = (0..8).collect();
        let mut a = PagedKvCache::new(1, kv_heads, embed, bt).unwrap();
        a.open_with_prefix(&mut pool, &mut index, &full).unwrap();
        for &t in &full {
            let (k, v) = token_rows(t, kv_heads, embed);
            a.append_with_prefix(&mut pool, &mut index, &k, &v).unwrap();
        }
        // Sharer: 6-token prompt = block 0 (full match) + tokens {4,5} as a
        // partial-tail match into the second indexed block.
        let short: Vec<u64> = (0..6).collect();
        let mut b = PagedKvCache::new(1, kv_heads, embed, bt).unwrap();
        assert_eq!(
            b.open_with_prefix(&mut pool, &mut index, &short).unwrap(),
            6
        );
        assert_eq!(b.shared_blocks(), 2);
        assert_eq!(b.block_table()[1], a.block_table()[1]);
        let src = b.block_table()[1];
        let src_k = pool.key_rows(src, 0, 0, bt).to_vec();

        // Divergence: b appends a token a never saw -> CoW of the tail.
        let (k, v) = token_rows(99, kv_heads, embed);
        b.append(&mut pool, &k, &v).unwrap();
        assert_ne!(b.block_table()[1], src, "tail was cloned, not written");
        assert_eq!(b.shared_blocks(), 1, "tail is private now");
        assert_eq!(
            pool.key_rows(src, 0, 0, bt),
            &src_k[..],
            "CoW never mutates the source block"
        );

        // b is now bitwise-equal to a fully private session with the same
        // token history.
        let mut private = PagedKvCache::new(1, kv_heads, embed, bt).unwrap();
        for &t in short.iter().chain([99u64].iter()) {
            let (k, v) = token_rows(t, kv_heads, embed);
            private.append(&mut pool, &k, &v).unwrap();
        }
        let q = vec![0.4f32; embed];
        let mut out_b = vec![0.0f32; embed];
        let mut out_p = vec![0.0f32; embed];
        decode_attention_paged(&pool, &b, &q, &mut out_b).unwrap();
        decode_attention_paged(&pool, &private, &q, &mut out_p).unwrap();
        assert_eq!(out_b, out_p);
    }

    #[test]
    fn prefix_index_is_bound_to_one_pool_and_dtype() {
        let bt = 2;
        let mut pool_a = KvBlockPool::new(bt, 1, 2);
        let mut index = PrefixIndex::new(bt);
        let mut cache = PagedKvCache::new(1, 1, 2, bt).unwrap();
        cache
            .open_with_prefix(&mut pool_a, &mut index, &[1, 2])
            .unwrap();

        // Same geometry, different pool: block ids would be foreign.
        let mut pool_b = KvBlockPool::new(bt, 1, 2);
        let mut fresh = PagedKvCache::new(1, 1, 2, bt).unwrap();
        assert!(matches!(
            fresh.open_with_prefix(&mut pool_b, &mut index, &[1, 2]),
            Err(TensorError::BlockGeometryMismatch {
                param: "pool identity",
                ..
            })
        ));
        // A differently-typed pool: stored bytes are not interchangeable.
        let mut pool_h = KvBlockPool::new(bt, 1, 2).with_dtype(KvDtype::F16);
        assert!(matches!(
            fresh.open_with_prefix(&mut pool_h, &mut index, &[1, 2]),
            Err(TensorError::BlockGeometryMismatch {
                param: "kv dtype",
                ..
            })
        ));
        // A block-size-mismatched index can never resolve against the pool.
        let mut index4 = PrefixIndex::new(4);
        assert!(matches!(
            fresh.open_with_prefix(&mut pool_a, &mut index4, &[1, 2]),
            Err(TensorError::BlockGeometryMismatch {
                param: "block_tokens",
                ..
            })
        ));
        // The bound pool keeps working.
        let mut ok = PagedKvCache::new(1, 1, 2, bt).unwrap();
        assert_eq!(
            ok.open_with_prefix(&mut pool_a, &mut index, &[1, 2])
                .unwrap(),
            0,
            "clean miss (nothing published yet), not an error"
        );
    }

    #[test]
    fn pool_pressure_reclaims_lru_index_only_blocks() {
        let (kv_heads, embed, bt) = (1, 2, 2);
        let mut pool = KvBlockPool::new(bt, kv_heads, embed).with_max_blocks(3);
        let mut index = PrefixIndex::new(bt);
        let mut a = PagedKvCache::new(1, kv_heads, embed, bt).unwrap();
        a.open_with_prefix(&mut pool, &mut index, &[0, 1, 2, 3])
            .unwrap();
        for t in 0..4u64 {
            let (k, v) = token_rows(t, kv_heads, embed);
            a.append_with_prefix(&mut pool, &mut index, &k, &v).unwrap();
        }
        a.release(&mut pool);
        assert_eq!(index.len(), 2);
        assert_eq!(pool.live_blocks(), 2, "index-only blocks stay live");

        // A private session needing 3 blocks forces LRU reclaim of both
        // index-only blocks (deepest leaf first, then its parent).
        let mut b = PagedKvCache::new(1, kv_heads, embed, bt).unwrap();
        for t in 10..16u64 {
            let (k, v) = token_rows(t, kv_heads, embed);
            b.append_with_prefix(&mut pool, &mut index, &k, &v).unwrap();
        }
        assert_eq!(b.allocated_blocks(), 3);
        assert_eq!(index.len(), 0, "pressure evicted the unreferenced prefix");
        // With the index empty and every block referenced, the next block
        // is a typed exhaustion error — eviction never frees b's blocks.
        let (k, v) = token_rows(99, kv_heads, embed);
        assert!(matches!(
            b.append_with_prefix(&mut pool, &mut index, &k, &v),
            Err(TensorError::BlockPoolExhausted { .. })
        ));
    }

    #[test]
    fn concurrent_publishers_deduplicate_equal_content_blocks() {
        let (kv_heads, embed, bt) = (1, 2, 2);
        let mut pool = KvBlockPool::new(bt, kv_heads, embed);
        let mut index = PrefixIndex::new(bt);
        let prompt: Vec<u64> = (0..4).collect();
        // Both sessions open before either publishes: both miss and both
        // publish the same content.
        let mut a = PagedKvCache::new(1, kv_heads, embed, bt).unwrap();
        let mut b = PagedKvCache::new(1, kv_heads, embed, bt).unwrap();
        assert_eq!(
            a.open_with_prefix(&mut pool, &mut index, &prompt).unwrap(),
            0
        );
        assert_eq!(
            b.open_with_prefix(&mut pool, &mut index, &prompt).unwrap(),
            0
        );
        for &t in &prompt {
            let (k, v) = token_rows(t, kv_heads, embed);
            a.append_with_prefix(&mut pool, &mut index, &k, &v).unwrap();
            b.append_with_prefix(&mut pool, &mut index, &k, &v).unwrap();
        }
        assert_eq!(index.len(), 2, "equal-content blocks deduplicated");
        // a won the race: its blocks are indexed (refcount 2); b's stayed
        // private (refcount 1).
        for &id in a.block_table() {
            assert_eq!(pool.refcount(id), 2);
        }
        for &id in b.block_table() {
            assert_eq!(pool.refcount(id), 1);
        }
        // A later session shares the indexed copy.
        let mut c = PagedKvCache::new(1, kv_heads, embed, bt).unwrap();
        assert_eq!(
            c.open_with_prefix(&mut pool, &mut index, &prompt).unwrap(),
            4
        );
        assert_eq!(c.block_table(), a.block_table());
    }

    #[test]
    fn decode_tokens_are_never_published() {
        let (kv_heads, embed, bt) = (1, 2, 2);
        let mut pool = KvBlockPool::new(bt, kv_heads, embed);
        let mut index = PrefixIndex::new(bt);
        // 3-token prompt: one full block publishes, the partial tail block
        // then fills with a decode token and must not be indexed.
        let prompt: Vec<u64> = vec![7, 8, 9];
        let mut a = PagedKvCache::new(1, kv_heads, embed, bt).unwrap();
        a.open_with_prefix(&mut pool, &mut index, &prompt).unwrap();
        for &t in &prompt {
            let (k, v) = token_rows(t, kv_heads, embed);
            a.append_with_prefix(&mut pool, &mut index, &k, &v).unwrap();
        }
        assert_eq!(index.len(), 1);
        for t in 50..53u64 {
            let (k, v) = token_rows(t, kv_heads, embed);
            a.append_with_prefix(&mut pool, &mut index, &k, &v).unwrap();
        }
        assert_eq!(index.len(), 1, "decode blocks stay private");
        assert_eq!(index.probe(&[7, 8]), 2);
        assert_eq!(index.probe(&[7, 8, 9, 50]), 2, "only the prompt block");
    }

    #[test]
    fn windowed_sharing_evicts_past_the_shared_region() {
        // A sharing session whose window slides past the shared prefix
        // drops references (never bytes) and stays bit-identical to a
        // private windowed session with the same history.
        let (kv_heads, embed, bt, window) = (1, 3, 2, 3);
        let mut pool = KvBlockPool::new(bt, kv_heads, embed);
        let mut index = PrefixIndex::new(bt);
        let prompt: Vec<u64> = (0..4).collect();
        let mut a = PagedKvCache::new(1, kv_heads, embed, bt).unwrap();
        a.open_with_prefix(&mut pool, &mut index, &prompt).unwrap();
        for &t in &prompt {
            let (k, v) = token_rows(t, kv_heads, embed);
            a.append_with_prefix(&mut pool, &mut index, &k, &v).unwrap();
        }

        let mut b = PagedKvCache::new(1, kv_heads, embed, bt)
            .unwrap()
            .with_window(window);
        let mut private = PagedKvCache::new(1, kv_heads, embed, bt)
            .unwrap()
            .with_window(window);
        assert_eq!(
            b.open_with_prefix(&mut pool, &mut index, &prompt).unwrap(),
            4
        );
        assert_eq!(b.shared_blocks(), 2);
        for &t in &prompt {
            let (k, v) = token_rows(t, kv_heads, embed);
            private.append(&mut pool, &k, &v).unwrap();
        }
        let q = vec![0.6f32; embed];
        let (mut out_b, mut out_p) = (vec![0.0f32; embed], vec![0.0f32; embed]);
        for t in 200..208u64 {
            let (k, v) = token_rows(t, kv_heads, embed);
            b.append(&mut pool, &k, &v).unwrap();
            private.append(&mut pool, &k, &v).unwrap();
            decode_attention_paged(&pool, &b, &q, &mut out_b).unwrap();
            decode_attention_paged(&pool, &private, &q, &mut out_p).unwrap();
            assert_eq!(out_b, out_p);
        }
        assert_eq!(b.shared_blocks(), 0, "window slid past the shared region");
        // The publisher still decodes its full prompt — eviction only
        // dropped b's references.
        let mut out_a = vec![0.0f32; embed];
        decode_attention_paged(&pool, &a, &q, &mut out_a).unwrap();
    }
}
