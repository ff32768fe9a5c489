//! Typed launch-coalescing keys shared by both traffic classes.
//!
//! Work items merge into one device launch only when they share a kernel
//! shape. The engine coalesces both classes with one mechanism, and the
//! two shape identities are variants of [`LaunchKey`]: [`BatchKey`]
//! (`(method, heads, seq_len, embed)`) for prefill batches and
//! [`DecodeKey`] (`(heads, kv_heads, embed)`) for batched decode steps. The key is `Hash`/`Eq`/`Ord`
//! (launch maps and deterministic dispatch ordering) and `Display` (report
//! readability).

use mas_dataflow::DataflowKind;
use mas_workloads::DecodeSessionSpec;

use crate::request::ServeRequest;

/// The two traffic classes the unified engine schedules on one timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkClass {
    /// Fixed-shape prefill attention requests.
    Prefill,
    /// Single-token autoregressive decode steps.
    Decode,
}

impl std::fmt::Display for WorkClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WorkClass::Prefill => "prefill",
            WorkClass::Decode => "decode",
        })
    }
}

/// The coalescing identity of a prefill request: requests merge only when
/// they ask for the same method on the same attention shape (the batch
/// dimension is what merging sums over).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatchKey {
    /// Requested dataflow method.
    pub method: DataflowKind,
    /// Attention heads of the shape.
    pub heads: usize,
    /// Sequence length of the shape.
    pub seq_len: usize,
    /// Per-head embedding size of the shape.
    pub embed: usize,
}

impl BatchKey {
    /// The batch key of one request.
    #[must_use]
    pub fn of(request: &ServeRequest) -> Self {
        Self {
            method: request.method,
            heads: request.workload.heads,
            seq_len: request.workload.seq_len,
            embed: request.workload.embed,
        }
    }
}

impl std::fmt::Display for BatchKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} h{} n{} e{}",
            self.method, self.heads, self.seq_len, self.embed
        )
    }
}

/// The coalescing identity of a decode step: launches merge only steps
/// whose kernels share the per-head geometry, including the grouped-query
/// KV head count (which changes the cache-stream traffic per step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DecodeKey {
    /// Query attention heads.
    pub heads: usize,
    /// Shared key/value heads (`kv_heads ≤ heads`).
    pub kv_heads: usize,
    /// Per-head embedding size.
    pub embed: usize,
}

impl DecodeKey {
    /// The decode key of one session's steps.
    #[must_use]
    pub fn of(session: &DecodeSessionSpec) -> Self {
        Self {
            heads: session.heads,
            kv_heads: session.kv_heads,
            embed: session.embed,
        }
    }
}

impl std::fmt::Display for DecodeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{} kv{} e{}", self.heads, self.kv_heads, self.embed)
    }
}

/// The identity of one chunk within a chunked-prefill chain. Unlike
/// [`BatchKey`]/[`DecodeKey`], a chunk key never coalesces: the chain id is
/// part of the identity precisely so chunks of *different* requests can
/// never merge into one launch, and the index pins each chunk's position in
/// its chain (dispatch is strictly `index` order within a chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkKey {
    /// Id of the chunk chain (the launch id of the chain's first chunk).
    pub chain: u64,
    /// Zero-based position of this chunk within the chain.
    pub index: u32,
    /// Total chunks in the chain (`index < of`).
    pub of: u32,
}

impl std::fmt::Display for ChunkKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chain{} {}/{}", self.chain, self.index + 1, self.of)
    }
}

/// The unified coalescing key of the engine's launch map: a prefill batch
/// shape, a decode step shape, or one chunk of a chunked-prefill chain.
/// Keys of different classes never compare equal, so one
/// `BTreeMap<LaunchKey, _>` coalesces both traffic classes with one
/// mechanism while keeping their launches disjoint. Chunk keys carry their
/// chain id, so they are never shared across requests and never coalesce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LaunchKey {
    /// A prefill micro-batch shape.
    Prefill(BatchKey),
    /// A batched decode-step shape.
    Decode(DecodeKey),
    /// One chunk of a chunked-prefill chain (prefill traffic class).
    PrefillChunk(ChunkKey),
}

impl LaunchKey {
    /// The traffic class of launches under this key.
    #[must_use]
    pub fn class(&self) -> WorkClass {
        match self {
            LaunchKey::Prefill(_) | LaunchKey::PrefillChunk(_) => WorkClass::Prefill,
            LaunchKey::Decode(_) => WorkClass::Decode,
        }
    }
}

impl std::fmt::Display for LaunchKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchKey::Prefill(k) => write!(f, "prefill[{k}]"),
            LaunchKey::Decode(k) => write!(f, "decode[{k}]"),
            LaunchKey::PrefillChunk(k) => write!(f, "prefill-chunk[{k}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    use mas_dataflow::AttentionWorkload;
    use mas_workloads::Network;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    fn prefill_key() -> LaunchKey {
        LaunchKey::Prefill(BatchKey {
            method: DataflowKind::MasAttention,
            heads: 8,
            seq_len: 512,
            embed: 64,
        })
    }

    fn decode_key() -> LaunchKey {
        LaunchKey::Decode(DecodeKey {
            heads: 32,
            kv_heads: 8,
            embed: 64,
        })
    }

    #[test]
    fn equal_keys_hash_equal_and_unequal_keys_differ() {
        assert_eq!(prefill_key(), prefill_key());
        assert_eq!(hash_of(&prefill_key()), hash_of(&prefill_key()));
        assert_ne!(prefill_key(), decode_key());
        // Same numeric fields, different class: never equal.
        let p = LaunchKey::Prefill(BatchKey {
            method: DataflowKind::MasAttention,
            heads: 8,
            seq_len: 64,
            embed: 64,
        });
        let d = LaunchKey::Decode(DecodeKey {
            heads: 8,
            kv_heads: 64,
            embed: 64,
        });
        assert_ne!(p, d);
        // Every field participates in identity.
        let base = BatchKey {
            method: DataflowKind::Flat,
            heads: 8,
            seq_len: 256,
            embed: 64,
        };
        for other in [
            BatchKey {
                method: DataflowKind::MasAttention,
                ..base
            },
            BatchKey { heads: 12, ..base },
            BatchKey {
                seq_len: 512,
                ..base
            },
            BatchKey { embed: 128, ..base },
        ] {
            assert_ne!(base, other);
            assert_ne!(LaunchKey::Prefill(base), LaunchKey::Prefill(other));
        }
        let dbase = DecodeKey {
            heads: 8,
            kv_heads: 2,
            embed: 64,
        };
        for other in [
            DecodeKey { heads: 16, ..dbase },
            DecodeKey {
                kv_heads: 4,
                ..dbase
            },
            DecodeKey {
                embed: 128,
                ..dbase
            },
        ] {
            assert_ne!(LaunchKey::Decode(dbase), LaunchKey::Decode(other));
        }
    }

    #[test]
    fn keys_derive_from_requests_and_sessions() {
        let req = ServeRequest::new(
            7,
            0.0,
            DataflowKind::FuseMax,
            AttentionWorkload::new("toy", 3, 8, 256, 64),
            None,
        );
        let bk = BatchKey::of(&req);
        assert_eq!(
            (bk.method, bk.heads, bk.seq_len, bk.embed),
            (DataflowKind::FuseMax, 8, 256, 64),
            "the batch dimension is merged over, never part of the key"
        );
        let session = DecodeSessionSpec {
            id: 0,
            network: Network::Llama3_8B,
            start_s: 0.0,
            heads: 32,
            kv_heads: 8,
            embed: 64,
            prompt_len: 16,
            steps: 4,
            prefix_group: None,
            shared_prefix_len: 0,
        };
        let dk = DecodeKey::of(&session);
        assert_eq!((dk.heads, dk.kv_heads, dk.embed), (32, 8, 64));
    }

    #[test]
    fn ordering_is_total_and_groups_by_class() {
        let mut keys = [decode_key(), prefill_key()];
        keys.sort();
        assert_eq!(keys[0].class(), WorkClass::Prefill);
        assert_eq!(keys[1].class(), WorkClass::Decode);
    }

    #[test]
    fn chunk_keys_carry_chain_identity_and_never_collide_across_chains() {
        let k = |chain: u64, index: u32| {
            LaunchKey::PrefillChunk(ChunkKey {
                chain,
                index,
                of: 4,
            })
        };
        assert_eq!(k(7, 0).class(), WorkClass::Prefill);
        assert_eq!(k(7, 2), k(7, 2));
        assert_eq!(hash_of(&k(7, 2)), hash_of(&k(7, 2)));
        // Same index, different chain: distinct — chunks of different
        // requests can never coalesce into one launch.
        assert_ne!(k(7, 2), k(8, 2));
        // Within a chain, ordering follows the chunk index.
        assert!(k(7, 0) < k(7, 1));
        let s = k(7, 2).to_string();
        assert!(s.contains("prefill-chunk"), "{s}");
        assert!(s.contains("chain7") && s.contains("3/4"), "{s}");
    }

    #[test]
    fn display_is_human_readable() {
        let p = prefill_key().to_string();
        assert!(p.contains("prefill"), "{p}");
        assert!(
            p.contains("h8") && p.contains("n512") && p.contains("e64"),
            "{p}"
        );
        let d = decode_key().to_string();
        assert!(d.contains("decode"), "{d}");
        assert!(d.contains("h32") && d.contains("kv8"), "{d}");
        assert_eq!(WorkClass::Prefill.to_string(), "prefill");
        assert_eq!(WorkClass::Decode.to_string(), "decode");
    }
}
