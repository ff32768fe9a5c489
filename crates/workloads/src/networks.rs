//! The paper's Table 1 network configurations.
//!
//! Each entry lists the number of attention heads, the sequence length, the
//! model hidden size and the per-head embedding size (`Emb_{K,V}`). The
//! hidden size is informational (it determines the number of heads × per-head
//! embedding for the projection layers, which are outside the attention block
//! the paper accelerates); the attention workload is defined by
//! `(heads, seq, embed)`.

use std::fmt;

use mas_dataflow::AttentionWorkload;

/// The networks evaluated in the paper (Table 1).
///
/// Networks that share an attention configuration are represented by a single
/// variant, exactly as the paper groups them (e.g. "BERT-Base & T5-Base").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Network {
    /// BERT-Base & T5-Base: 12 heads, 512 tokens, hidden 768, embed 64.
    BertBase,
    /// BERT-Large & T5-Large: 16 heads, 512 tokens, hidden 1024, embed 64.
    BertLarge,
    /// BERT-Small: 8 heads, 512 tokens, hidden 512, embed 64.
    BertSmall,
    /// Llama3-8B & T5-3B (T5-XL): 32 heads, 512 tokens, hidden 4096, embed 128.
    Llama3_8B,
    /// T5-Mini & T5-Small: 8 heads, 512 tokens, hidden 256, embed 32.
    T5Mini,
    /// ViT-B/14: 12 heads, 196 tokens, hidden 768, embed 64.
    VitB14,
    /// ViT-L/14: 16 heads, 196 tokens, hidden 1024, embed 64.
    VitL14,
    /// ViT-H/14: 16 heads, 196 tokens, hidden 1280, embed 80.
    VitH14,
    /// ViT-B/16: 12 heads, 256 tokens, hidden 768, embed 64.
    VitB16,
    /// ViT-L/16: 16 heads, 256 tokens, hidden 1024, embed 64.
    VitL16,
    /// ViT-H/16: 16 heads, 256 tokens, hidden 1280, embed 80.
    VitH16,
    /// XLM: 8 heads, 512 tokens, hidden 1024, embed 128.
    Xlm,
}

/// Static description of one Table 1 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkConfig {
    /// Display name used in the paper's tables.
    pub name: &'static str,
    /// Number of attention heads.
    pub heads: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Model hidden size (informational).
    pub hidden: usize,
    /// Per-head embedding size (`Emb_{K,V}`).
    pub embed: usize,
}

impl Network {
    /// Every network in Table 1 order.
    #[must_use]
    pub const fn all() -> [Network; 12] {
        [
            Network::BertBase,
            Network::BertLarge,
            Network::BertSmall,
            Network::Llama3_8B,
            Network::T5Mini,
            Network::VitB14,
            Network::VitL14,
            Network::VitH14,
            Network::VitB16,
            Network::VitL16,
            Network::VitH16,
            Network::Xlm,
        ]
    }

    /// The Table 1 row for this network.
    #[must_use]
    pub const fn config(self) -> NetworkConfig {
        match self {
            Network::BertBase => NetworkConfig {
                name: "BERT-Base & T5-Base",
                heads: 12,
                seq_len: 512,
                hidden: 768,
                embed: 64,
            },
            Network::BertLarge => NetworkConfig {
                name: "BERT-Large & T5-Large",
                heads: 16,
                seq_len: 512,
                hidden: 1024,
                embed: 64,
            },
            Network::BertSmall => NetworkConfig {
                name: "BERT-Small",
                heads: 8,
                seq_len: 512,
                hidden: 512,
                embed: 64,
            },
            Network::Llama3_8B => NetworkConfig {
                name: "Llama3-8B & T5-3B (T5-XL)",
                heads: 32,
                seq_len: 512,
                hidden: 4096,
                embed: 128,
            },
            Network::T5Mini => NetworkConfig {
                name: "T5-Mini & T5-Small",
                heads: 8,
                seq_len: 512,
                hidden: 256,
                embed: 32,
            },
            Network::VitB14 => NetworkConfig {
                name: "ViT-B/14",
                heads: 12,
                seq_len: 196,
                hidden: 768,
                embed: 64,
            },
            Network::VitL14 => NetworkConfig {
                name: "ViT-L/14",
                heads: 16,
                seq_len: 196,
                hidden: 1024,
                embed: 64,
            },
            Network::VitH14 => NetworkConfig {
                name: "ViT-H/14",
                heads: 16,
                seq_len: 196,
                hidden: 1280,
                embed: 80,
            },
            Network::VitB16 => NetworkConfig {
                name: "ViT-B/16",
                heads: 12,
                seq_len: 256,
                hidden: 768,
                embed: 64,
            },
            Network::VitL16 => NetworkConfig {
                name: "ViT-L/16",
                heads: 16,
                seq_len: 256,
                hidden: 1024,
                embed: 64,
            },
            Network::VitH16 => NetworkConfig {
                name: "ViT-H/16",
                heads: 16,
                seq_len: 256,
                hidden: 1280,
                embed: 80,
            },
            Network::Xlm => NetworkConfig {
                name: "XLM",
                heads: 8,
                seq_len: 512,
                hidden: 1024,
                embed: 128,
            },
        }
    }

    /// The network's display name (as used in the paper's tables).
    #[must_use]
    pub const fn name(self) -> &'static str {
        self.config().name
    }

    /// Shared key/value heads of the network's *decode* configuration.
    ///
    /// Table 1 describes prefill attention shapes; for autoregressive decode
    /// the grouped-query networks share K/V heads across query-head groups.
    /// Llama3-8B uses 8 KV heads for its 32 query heads (GQA-4); the
    /// encoder-style networks are plain MHA (`kv_heads == heads`).
    #[must_use]
    pub const fn kv_heads(self) -> usize {
        match self {
            Network::Llama3_8B => 8,
            other => other.config().heads,
        }
    }

    /// The attention workload of this network for a given batch size.
    #[must_use]
    pub fn attention_workload(self, batch: usize) -> AttentionWorkload {
        let c = self.config();
        AttentionWorkload::new(c.name, batch, c.heads, c.seq_len, c.embed)
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_twelve_table1_rows() {
        assert_eq!(Network::all().len(), 12);
        let mut names: Vec<&str> = Network::all().iter().map(|n| n.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12, "all names must be distinct");
    }

    #[test]
    fn headline_configurations_match_the_paper() {
        let bert = Network::BertBase.config();
        assert_eq!(
            (bert.heads, bert.seq_len, bert.hidden, bert.embed),
            (12, 512, 768, 64)
        );
        let llama = Network::Llama3_8B.config();
        assert_eq!(
            (llama.heads, llama.seq_len, llama.hidden, llama.embed),
            (32, 512, 4096, 128)
        );
        let t5 = Network::T5Mini.config();
        assert_eq!(
            (t5.heads, t5.seq_len, t5.hidden, t5.embed),
            (8, 512, 256, 32)
        );
        let vit = Network::VitH16.config();
        assert_eq!((vit.heads, vit.seq_len, vit.embed), (16, 256, 80));
        let xlm = Network::Xlm.config();
        assert_eq!(
            (xlm.heads, xlm.seq_len, xlm.hidden, xlm.embed),
            (8, 512, 1024, 128)
        );
    }

    #[test]
    fn workloads_carry_the_batch_dimension() {
        let w = Network::VitB16.attention_workload(4);
        assert_eq!(w.batch, 4);
        assert_eq!(w.heads, 12);
        assert_eq!(w.seq_len, 256);
        assert_eq!(w.embed, 64);
    }

    #[test]
    fn hidden_size_is_consistent_with_heads_times_embed_where_applicable() {
        // Most text models satisfy hidden = heads * embed; the exceptions in
        // Table 1 (Llama3-8B uses grouped projections, ViT-H uses a wider
        // MLP) are carried verbatim from the paper.
        for n in [
            Network::BertBase,
            Network::BertLarge,
            Network::BertSmall,
            Network::T5Mini,
        ] {
            let c = n.config();
            assert_eq!(c.hidden, c.heads * c.embed, "{}", c.name);
        }
    }

    #[test]
    fn kv_heads_divide_query_heads_everywhere() {
        for n in Network::all() {
            let c = n.config();
            let kv = n.kv_heads();
            assert!(kv > 0 && kv <= c.heads && c.heads % kv == 0, "{}", c.name);
        }
        // Llama3-8B is the grouped-query network of Table 1 (32 Q / 8 KV).
        assert_eq!(Network::Llama3_8B.kv_heads(), 8);
        assert_eq!(Network::BertBase.kv_heads(), 12);
    }

    #[test]
    fn display_matches_table_names() {
        assert_eq!(Network::BertBase.to_string(), "BERT-Base & T5-Base");
        assert_eq!(Network::Xlm.to_string(), "XLM");
    }
}
