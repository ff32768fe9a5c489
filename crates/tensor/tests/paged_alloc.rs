//! Allocator invariant proptests for the paged KV block pool.
//!
//! For arbitrary interleavings of session opens, appends, window evictions,
//! releases and raw alloc/free traffic, the pool must conserve blocks
//! (`free + live == total` after every operation), reuse freed blocks
//! before growing the arena, and track a peak-live count that matches an
//! independent reference counter.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mas_tensor::paged::{BlockId, KvBlockPool, PagedKvCache};

/// Pool conservation: live + free must always equal the arena size.
fn assert_conserved(pool: &KvBlockPool) {
    assert_eq!(
        pool.live_blocks() + pool.free_blocks(),
        pool.total_blocks(),
        "block conservation violated"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Raw alloc/free interleavings against a reference counter.
    #[test]
    fn raw_alloc_free_interleavings_conserve_blocks(
        seed in 0u64..10_000,
        ops in 10usize..200,
        block_tokens in 1usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = KvBlockPool::new(block_tokens, 2, 4);
        let mut held: Vec<BlockId> = Vec::new();
        // Reference accounting: live count and its high-water mark.
        let mut ref_live = 0usize;
        let mut ref_peak = 0usize;
        let mut ref_total = 0usize;
        for _ in 0..ops {
            if held.is_empty() || rng.gen_range(0..100usize) < 60 {
                // Alloc. Growth may only happen when the free list is empty.
                let free_before = pool.free_blocks();
                let total_before = pool.total_blocks();
                let id = pool.alloc().unwrap();
                if free_before > 0 {
                    prop_assert_eq!(
                        pool.total_blocks(), total_before,
                        "pool grew while {} freed blocks were reusable", free_before
                    );
                } else {
                    prop_assert_eq!(pool.total_blocks(), total_before + 1);
                    ref_total += 1;
                }
                held.push(id);
                ref_live += 1;
                ref_peak = ref_peak.max(ref_live);
            } else {
                // Free a random held block.
                let idx = rng.gen_range(0..held.len());
                pool.free(held.swap_remove(idx));
                ref_live -= 1;
            }
            assert_conserved(&pool);
            prop_assert_eq!(pool.live_blocks(), ref_live);
            prop_assert_eq!(pool.peak_live_blocks(), ref_peak);
            prop_assert_eq!(pool.total_blocks(), ref_total);
        }
        // Drain: everything frees, nothing leaks.
        for id in held.drain(..) {
            pool.free(id);
        }
        prop_assert_eq!(pool.live_blocks(), 0);
        assert_conserved(&pool);
        prop_assert_eq!(pool.peak_live_blocks(), ref_peak);
    }

    // Session-level interleavings: opens, appends, windowed eviction and
    // releases over one shared pool never leak blocks, and per-session
    // block counts always cover exactly the resident tokens.
    #[test]
    fn session_interleavings_never_leak_blocks(
        seed in 0u64..10_000,
        ops in 20usize..160,
        block_tokens in 1usize..24,
        kv_heads in 1usize..4,
    ) {
        let embed = 3;
        let heads = 2 * kv_heads; // always a valid grouping
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pool = KvBlockPool::new(block_tokens, kv_heads, embed);
        let mut sessions: Vec<PagedKvCache> = Vec::new();
        let row = vec![0.5f32; kv_heads * embed];
        for _ in 0..ops {
            match rng.gen_range(0..100usize) {
                // Open a session, sometimes windowed.
                0..=19 => {
                    let mut cache =
                        PagedKvCache::new(heads, kv_heads, embed, block_tokens).unwrap();
                    if rng.gen_range(0..2usize) == 1 {
                        cache = cache.with_window(rng.gen_range(1..3 * block_tokens + 1));
                    }
                    sessions.push(cache);
                }
                // Append a burst of tokens to a random session.
                20..=79 if !sessions.is_empty() => {
                    let idx = rng.gen_range(0..sessions.len());
                    for _ in 0..rng.gen_range(1..2 * block_tokens + 1) {
                        sessions[idx].append(&mut pool, &row, &row).unwrap();
                    }
                }
                // Release a random session whole.
                _ if !sessions.is_empty() => {
                    let idx = rng.gen_range(0..sessions.len());
                    let mut cache = sessions.swap_remove(idx);
                    cache.release(&mut pool);
                    prop_assert_eq!(cache.allocated_blocks(), 0);
                }
                _ => {}
            }
            assert_conserved(&pool);
            // The pool's live blocks are exactly the sessions' tables.
            let table_blocks: usize = sessions.iter().map(PagedKvCache::allocated_blocks).sum();
            prop_assert_eq!(pool.live_blocks(), table_blocks);
            for s in &sessions {
                // Every resident token has a slot; waste is under one block
                // per session.
                let slots = s.allocated_blocks() * block_tokens;
                prop_assert!(slots >= s.resident_tokens());
                prop_assert!(slots < s.resident_tokens() + block_tokens);
                // The window bounds what decode attends, and whole-block
                // eviction keeps at most one stale block's worth of rows.
                if let Some(w) = s.window_tokens() {
                    prop_assert!(s.len() <= w);
                    prop_assert!(s.resident_tokens() < w + block_tokens);
                }
            }
        }
        // Releasing every remaining session returns the pool to empty.
        for mut s in sessions {
            s.release(&mut pool);
        }
        prop_assert_eq!(pool.live_blocks(), 0);
        assert_conserved(&pool);
    }

    // A bounded pool hands out exactly its capacity, then typed errors; a
    // free always restores exactly one allocation.
    #[test]
    fn bounded_pools_never_exceed_capacity(
        capacity in 1usize..12,
        block_tokens in 1usize..8,
    ) {
        let mut pool = KvBlockPool::new(block_tokens, 1, 2).with_max_blocks(capacity);
        let mut held = Vec::new();
        for _ in 0..capacity {
            held.push(pool.alloc().unwrap());
        }
        prop_assert!(pool.alloc().is_err());
        prop_assert_eq!(pool.live_blocks(), capacity);
        pool.free(held.pop().unwrap());
        prop_assert!(pool.alloc().is_ok());
        prop_assert!(pool.alloc().is_err());
        prop_assert_eq!(pool.peak_live_blocks(), capacity);
        assert_conserved(&pool);
    }
}
