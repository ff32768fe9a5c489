//! `build_dataflow` allocates per chunk, never per repeated round.
//!
//! A counting global allocator wraps the system allocator for this test
//! binary only. Building MAS-Attention on BERT-Small at the naive
//! single-row tiling (77,840 tasks in 4,096 rounds, the first candidate of
//! every tuning run) must stay far below one heap allocation per round:
//! each chunk stores one period of its rounds with a repeat count, labels
//! are stored unrendered, dependencies go into the graph's flat array and
//! the builders pass dependency lists as stack slices.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mas_dataflow::{build_dataflow, AttentionWorkload, DataflowKind, Tiling};
use mas_sim::HardwareConfig;

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn naive_tiling_build_allocates_per_round_not_per_task() {
    let hw = HardwareConfig::edge_default();
    let w = AttentionWorkload::new("BERT-Small", 1, 8, 512, 64);
    let t = Tiling::naive(&w);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let schedule = build_dataflow(DataflowKind::MasAttention, &w, &t, &hw).expect("builds");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let tasks = schedule.graph().len();
    assert_eq!(tasks, 77_840);
    println!("{allocations} allocations for {tasks} tasks");
    assert!(
        allocations * 256 < tasks,
        "{allocations} allocations for {tasks} tasks"
    );
}
