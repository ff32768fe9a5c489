//! Property tests of the `ScheduleCache` serialization format's robustness:
//! valid round-trips are identity, and corrupted text — any single bit flip
//! or any truncation — parses to an error, never a panic and never a cache
//! that silently dropped or mutated entries. The guarantees rest on the
//! format's integrity footer (entry count + FNV-1a checksum).

use proptest::prelude::*;

use mas_attention::PlannerConfig;
use mas_dataflow::{AttentionWorkload, DataflowKind, Tiling};
use mas_serve::{CacheError, CacheKey, CachedPlan, ScheduleCache};

/// Builds a deterministic cache with `entries` distinct keys derived from
/// `seed`, exercising every method token and awkward float bit patterns.
fn build_cache(entries: usize, seed: u64) -> ScheduleCache {
    let methods = DataflowKind::all();
    let config = PlannerConfig::default();
    let mut cache = ScheduleCache::new();
    for i in 0..entries {
        let x = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i as u64);
        let workload = AttentionWorkload::new(
            "prop",
            1 + (x % 4) as usize,
            1 + (x % 16) as usize,
            64 + (x % 1024) as usize,
            32 + (x % 96) as usize,
        );
        let key = CacheKey::of(methods[i % methods.len()], &workload, &config);
        let plan = CachedPlan {
            tiling: Tiling {
                b_b: 1,
                h_h: 1 + (x % 4) as usize,
                n_q: 16 + (x % 64) as usize,
                n_kv: 32 + (x % 128) as usize,
            },
            cycles: x,
            seconds: f64::from_bits(0x3f00_0000_0000_0000 | (x >> 12)),
            energy_pj: if x.is_multiple_of(7) {
                -0.0
            } else {
                x as f64 * 0.5
            },
            dram_read_bytes: x % 100_000,
            dram_write_bytes: x % 50_000,
            tuned: x.is_multiple_of(2),
        };
        cache.insert(key, plan);
    }
    cache
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn valid_round_trips_are_identity(
        entries in 0usize..8,
        seed in 0u64..10_000,
    ) {
        let cache = build_cache(entries, seed);
        let text = cache.to_text();
        let back = ScheduleCache::from_text(&text).unwrap();
        prop_assert_eq!(&back, &cache, "parse(serialize(c)) == c");
        prop_assert_eq!(back.to_text(), text, "serialization is canonical");
    }

    #[test]
    fn any_single_bit_flip_is_rejected_without_panicking(
        entries in 1usize..6,
        seed in 0u64..10_000,
        flip_pos in 0usize..4096,
        flip_bit in 0u32..8,
    ) {
        let cache = build_cache(entries, seed);
        let text = cache.to_text();
        let mut bytes = text.clone().into_bytes();
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1u8 << flip_bit;
        // Flips that break UTF-8 never reach the parser in practice (callers
        // read files as strings); only valid-UTF-8 corruptions are checked.
        if let Ok(corrupted) = String::from_utf8(bytes) {
            prop_assert_ne!(&corrupted, &text);
            match ScheduleCache::from_text(&corrupted) {
                Err(CacheError::Parse { .. }) => {}
                Err(CacheError::Io(e)) => prop_assert!(false, "unexpected I/O error: {}", e),
                Ok(parsed) => prop_assert!(
                    false,
                    "corrupted text (byte {} bit {}) parsed to a cache of {} entries",
                    pos, flip_bit, parsed.len()
                ),
            }
        }
    }

    #[test]
    fn any_truncation_is_rejected_without_panicking(
        entries in 0usize..6,
        seed in 0u64..10_000,
        cut in 0usize..4096,
    ) {
        let cache = build_cache(entries, seed);
        let text = cache.to_text();
        let cut = cut % text.len(); // strictly shorter than the full text
        // The serialized form is pure ASCII, so every cut is a char boundary.
        prop_assert!(text.is_char_boundary(cut));
        let truncated = &text[..cut];
        if cut == text.len() - 1 {
            // Only the final newline is gone: the footer line is complete,
            // no data was lost, and the parse must still be the identity.
            prop_assert_eq!(ScheduleCache::from_text(truncated).unwrap(), cache);
        } else {
            prop_assert!(
                matches!(
                    ScheduleCache::from_text(truncated),
                    Err(CacheError::Parse { .. })
                ),
                "a {}-byte prefix of a {}-byte cache must not parse (it would \
                 silently drop entries)",
                cut,
                text.len()
            );
        }
    }

    #[test]
    fn merged_shards_round_trip_identically(
        entries_a in 0usize..5,
        entries_b in 0usize..5,
        seed in 0u64..10_000,
    ) {
        // Shard caches travel serialized; merging parsed shards must equal
        // merging the originals.
        let a = build_cache(entries_a, seed);
        let b = build_cache(entries_b, seed.wrapping_add(1));
        let mut via_text = ScheduleCache::from_text(&a.to_text()).unwrap();
        via_text.merge(&ScheduleCache::from_text(&b.to_text()).unwrap());
        let mut direct = a;
        direct.merge(&b);
        prop_assert_eq!(&direct, &via_text);
        prop_assert_eq!(direct.to_text(), via_text.to_text());
    }
}
