//! # mas-tensor
//!
//! Dense tensor substrate for the MAS-Attention reproduction.
//!
//! The paper ("MAS-Attention: Memory-Aware Stream Processing for Attention
//! Acceleration on Resource-Constrained Edge Devices", MLSys 2025) evaluates
//! *exact* attention dataflows: every method — Layer-Wise, Soft-Pipe, FLAT,
//! TileFlow, FuseMax and MAS-Attention — must produce the same output as the
//! unfused reference ("golden data check", §5.1). This crate provides:
//!
//! * a small, self-contained 4-D tensor type ([`Tensor`]) laid out as
//!   `(batch, heads, rows, cols)` — the `B × H × N × E` layout used throughout
//!   the paper,
//! * the numerical kernels attention is built from ([`matmul`], [`softmax`]),
//! * a reference attention implementation ([`attention::reference_attention`]),
//! * tiled numerical executors mirroring Algorithms 1–4 of the paper and each
//!   baseline's blocking structure ([`tiled`]),
//! * KV-cache streaming for autoregressive decode ([`decode`]): an
//!   appendable per-session [`decode::KvCache`] plus the incremental
//!   [`decode::decode_attention`] kernel — the one-row case of
//!   [`tiled::tiled_attention`]: per KV head, the group's query rows are
//!   scored against tiles of cached key rows, each score row goes through
//!   one softmax, and the value rows are accumulated tile by tile. A step
//!   is `O(t)` instead of the `O(t²)` full-prefill recompute and equals the
//!   last row of `tiled_attention` over the cached tokens bit for bit,
//!   with grouped-query/multi-query head sharing (`kv_heads ≤ heads`,
//!   [`decode::KvCache::grouped`]),
//! * block-granular (paged, vLLM-style) KV storage ([`paged`]): a shared
//!   [`paged::KvBlockPool`] block allocator plus per-session
//!   [`paged::PagedKvCache`] block tables and the
//!   [`paged::decode_attention_paged`] kernel, the same decode step fed one
//!   row run per block and so bit-identical to the contiguous path (see the
//!   module docs for the block-table layout invariants), and
//! * the golden-data checker ([`golden`]) and deterministic input generation
//!   ([`init`]).
//!
//! The crate is deliberately dependency-light (`rand` for input generation,
//! `rayon` for the per-`(batch, head)` kernel fan-out) and uses `f32`
//! arithmetic with an `f16` *storage* emulation ([`half`]) for footprint
//! analyses.
//!
//! ## f16 KV storage layout
//!
//! Compute is always `f32`; KV-cache *storage* is selectable per cache via
//! [`half::KvDtype`]. Under `KvDtype::F16` both the contiguous
//! [`decode::KvCache`] and the paged [`paged::KvBlockPool`] keep their K/V
//! rows as raw binary16 bit patterns (`u16`, same `kv_heads × tokens × embed`
//! row-major layout as the `f32` arenas — 2 bytes per element instead of 4).
//! Rows are written through the saturating converter
//! [`half::f32_to_f16_bits_saturating`] (finite overflow clamps to
//! ±[`half::F16_MAX`] so one outsized logit cannot poison a session's softmax
//! with `inf`) and widened back to `f32` a row tile at a time inside the
//! decode step via [`simd::f16_to_f32_slice`], once per tile for the whole
//! query-head group — the point where a device DMA engine would expand the
//! stream. Storage accounting (`kv_bytes`,
//! `block_bytes`, the serve engine's budget charging) scales by
//! `KvDtype::element_bytes`, so f16 sessions charge exactly half the bytes of
//! f32 ones.
//!
//! ## Slice-view invariants
//!
//! All kernels are built on contiguous views of the row-major
//! `(B, H, rows, cols)` storage, and rely on these invariants:
//!
//! 1. **Rows are contiguous.** `Tensor::row(b, h, r)` is exactly
//!    `data[offset(b, h, r, 0) .. offset(b, h, r, 0) + cols]`; element
//!    `(b, h, r, c)` is `row(b, h, r)[c]`. There is no stride or padding.
//! 2. **`(batch, head)` matrices are contiguous.** `Tensor::slice(b, h)` is
//!    the `rows × cols` row-major matrix of that slice, and the full storage
//!    is the concatenation of the `B · H` matrices in `(b, h)` order — which
//!    is what lets kernels partition `data_mut()` into disjoint
//!    `rows * cols` chunks and process them in parallel.
//! 3. **Kernels never index per element on the hot path.** Inner loops are
//!    block primitives over tiles of rows — one query row against many key
//!    rows ([`simd::dot_many`]), many weighted value rows into one output
//!    row ([`simd::axpy_many`]) — and single-row softmax passes
//!    ([`softmax::softmax_row`]) over `&[f32]`, which bounds-check once per
//!    tile or row and run on the explicitly vectorized [`simd`] kernels. The scalar element accessors (`get`/`set`) remain
//!    for tests and one-off edits.
//! 4. **Accumulation order is fixed but not left-to-right.** Reductions
//!    follow the explicit 8-lane contract of the [`simd`] module (eight
//!    independent accumulator lanes, scalar tail, fixed lane-reduction
//!    order), so results are deterministic run-to-run *and* bit-identical
//!    between the runtime-dispatched SIMD backends and the scalar fallback —
//!    yet may differ from a strict left-to-right sum by `f32` rounding;
//!    golden checks compare against [`golden::Tolerance`], never bit
//!    equality.
//!
//! ## Example
//!
//! ```
//! use mas_tensor::{init::random_qkv, attention::reference_attention};
//!
//! // A tiny attention layer: batch 1, 2 heads, 8 tokens, embedding 4.
//! let (q, k, v) = random_qkv(1, 2, 8, 4, 42);
//! let o = reference_attention(&q, &k, &v).unwrap();
//! assert_eq!(o.shape().dims(), [1, 2, 8, 4]);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod attention;
pub mod decode;
pub mod error;
pub mod golden;
pub mod half;
pub mod init;
pub mod matmul;
pub mod paged;
pub mod shape;
pub mod simd;
pub mod softmax;
pub mod tensor;
pub mod tiled;

pub use error::{Result, TensorError};
pub use shape::Shape;
pub use tensor::Tensor;
