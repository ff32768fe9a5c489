//! A chunk's repeated rounds cost per chunk, not per round.
//!
//! MAS-Attention on BERT-Small at `N_Q = 16` has 256 rounds (4,880 tasks);
//! the naive single-row tiling has the same round shape, 16 times the
//! rounds (4,096) and 77,840 tasks. Each chunk stores one period of its
//! rounds with a repeat count, and the executor replays the periods it
//! recognizes instead of starting their tasks one by one, so going from
//! the first graph to the second at most doubles both the tasks the graph
//! stores and the tasks the event loop starts.

use mas_dataflow::{build_dataflow, AttentionWorkload, DataflowKind, Tiling};
use mas_sim::{EnergyModel, Executor, HardwareConfig};

#[test]
fn sixteen_times_the_rounds_at_most_doubles_stored_tasks_and_loop_starts() {
    let hw = HardwareConfig::edge_default();
    let w = AttentionWorkload::new("BERT-Small", 1, 8, 512, 64);
    let exec = Executor::new(hw.clone(), EnergyModel::edge_16nm()).without_trace();
    let measure = |tiling: Tiling| {
        let schedule =
            build_dataflow(DataflowKind::MasAttention, &w, &tiling, &hw).expect("builds");
        let (report, loop_starts) = exec.simulate(schedule.graph()).expect("simulates");
        assert_eq!(
            report,
            exec.run(&schedule.graph().expand()).expect("simulates")
        );
        let graph = schedule.graph();
        (
            schedule.stats().rounds,
            graph.len(),
            graph.stored_len(),
            loop_starts,
        )
    };
    let (rounds, tasks, stored, starts) = measure(Tiling::new(1, 1, 16, 64, &w));
    assert_eq!((rounds, tasks), (256, 4_880));
    let (naive_rounds, naive_tasks, naive_stored, naive_starts) = measure(Tiling::naive(&w));
    assert_eq!((naive_rounds, naive_tasks), (4_096, 77_840));
    println!("stored {stored} -> {naive_stored}, event-loop starts {starts} -> {naive_starts}");
    assert!(
        naive_stored <= 2 * stored,
        "stored {stored} -> {naive_stored}"
    );
    assert!(
        naive_starts <= 2 * starts,
        "starts {starts} -> {naive_starts}"
    );
}
