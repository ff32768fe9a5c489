//! A chunk's repeated rounds cost per chunk, not per round.
//!
//! MAS-Attention on BERT-Small at `N_Q = 16` has 256 rounds (4,880 tasks);
//! the naive single-row tiling has the same round shape, 16 times the
//! rounds (4,096) and 77,840 tasks. Each chunk stores one period of its
//! rounds with a repeat count, and the executor skips the periods it
//! recognizes, and runs a stream of query-row transfers in stretches,
//! instead of starting their tasks one by one, so going from the first
//! graph to the second at most doubles both the tasks the graph stores
//! and the tasks the event loop starts.

use mas_dataflow::footprint::tiling_fits;
use mas_dataflow::{build_dataflow, AttentionWorkload, DataflowKind, Tiling};
use mas_sim::{EnergyModel, Executor, HardwareConfig};
use mas_workloads::Network;

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
    // 2,852 and 3,748 starts: the naive graph's schedule repeats only once
    // the DMA has prefetched all 4,096 query rows, and those transfers run
    // in stretches. Both bounds leave 5%.
    assert!(starts <= 3_000, "{starts} event-loop starts at N_Q = 16");
    assert!(
        naive_starts <= 3_950,
        "{naive_starts} event-loop starts for the naive tiling"
    );
}

/// Every power of two from `lo` up to `hi`, and `hi`: the search space's
/// `N_Q` and `N_{K,V}` candidates (`mas_search::space`).
fn pow2_candidates(lo: usize, hi: usize) -> Vec<usize> {
    let mut out: Vec<usize> = std::iter::successors(Some(lo), |v| Some(v * 2))
        .take_while(|&v| v < hi)
        .collect();
    out.push(hi);
    out
}

/// Skips engage from a repeated chunk's first periods: summed over the
/// 273 MAS-Attention search-space points of BERT-Small and T5-Mini that
/// fit the device, the event loop starts 202,098 of 273,974 tasks (before
/// looks were aligned with the repeats, 250,618). The bound leaves 5%.
#[test]
fn search_space_skips_engage_early() {
    let hw = HardwareConfig::edge_default();
    let exec = Executor::new(hw.clone(), EnergyModel::edge_16nm()).without_trace();
    let (mut points, mut tasks, mut loop_starts) = (0, 0, 0);
    for network in [Network::BertSmall, Network::T5Mini] {
        let w = network.attention_workload(1);
        let heads = (1..=w.heads).filter(|h| w.heads.is_multiple_of(*h));
        let n_q = pow2_candidates(hw.mac_array_rows.min(w.seq_len), w.seq_len);
        let n_kv = pow2_candidates(hw.mac_array_cols.min(w.seq_len), w.seq_len);
        for h in heads {
            for (&q, &kv) in n_q.iter().flat_map(|q| n_kv.iter().map(move |kv| (q, kv))) {
                let tiling = Tiling::new(1, h, q, kv, &w);
                let kind = DataflowKind::MasAttention;
                if tiling.check(&w).is_err() || !tiling_fits(kind, &w, &tiling, &hw) {
                    continue;
                }
                let schedule = build_dataflow(kind, &w, &tiling, &hw).expect("builds");
                let (_, starts) = exec.simulate(schedule.graph()).expect("simulates");
                points += 1;
                tasks += schedule.graph().len();
                loop_starts += starts;
            }
        }
    }
    assert_eq!((points, tasks), (273, 273_974));
    assert!(
        loop_starts <= 212_000,
        "{loop_starts} of {tasks} tasks started through the event loop"
    );
}
