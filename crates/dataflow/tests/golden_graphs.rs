//! Golden pins of the graphs the dataflow builders emit.
//!
//! `golden/graphs.tsv` holds one row per graph: every Table 1 network under
//! every method at the heuristic tiling, MAS-Attention on BERT-Small at the
//! naive single-row tiling (the first candidate every tuning run
//! simulates), and MAS-Attention under proactive overwrite on a long
//! sequence. Each row pins the task and edge counts and an FNV-1a digest of
//! every task's rendered label, resource, kind and dependency list in
//! insertion order. `golden/bert_small_mas_trace.tsv` is the rendered trace
//! of one simulated BERT-Small MAS-Attention run at the heuristic tiling.
//! Both files were generated once; a builder change that alters any label,
//! edge, task or schedule fails here.

use std::fmt::Write;

use mas_dataflow::{build_dataflow, AttentionWorkload, DataflowKind, Tiling};
use mas_sim::{EnergyModel, Executor, HardwareConfig, TaskGraph};
use mas_workloads::Network;

const GRAPHS: &str = include_str!("golden/graphs.tsv");
const TRACE: &str = include_str!("golden/bert_small_mas_trace.tsv");

/// 64-bit FNV-1a of `bytes`, continuing from `hash`.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The graph's golden row: name, method, tiling, tasks, edges and digest.
fn row(name: &str, kind: DataflowKind, tiling: &str, graph: &TaskGraph) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut edges = 0;
    let mut line = String::new();
    for task in graph.iter() {
        line.clear();
        write!(line, "{}\t{}\t{:?}\t", task.label, task.resource, task.kind).unwrap();
        for (k, dep) in task.deps().iter().enumerate() {
            if k > 0 {
                line.push(',');
            }
            write!(line, "{}", dep.index()).unwrap();
        }
        line.push('\n');
        edges += task.deps().len();
        hash = fnv1a(line.as_bytes(), hash);
    }
    format!(
        "{name}\t{kind:?}\t{tiling}\t{}\t{edges}\t{hash:016x}",
        graph.len()
    )
}

fn build(kind: DataflowKind, w: &AttentionWorkload, t: &Tiling, hw: &HardwareConfig) -> TaskGraph {
    build_dataflow(kind, w, t, hw)
        .expect("dataflow builds")
        .into_parts()
        .0
}

#[test]
fn builders_emit_the_pinned_graphs() {
    let hw = HardwareConfig::edge_default();
    let mut rows = Vec::new();
    for network in Network::all() {
        let w = network.attention_workload(1);
        let tiling = Tiling::heuristic(&w, &hw);
        for kind in DataflowKind::all() {
            let graph = build(kind, &w, &tiling, &hw);
            rows.push(row(&network.to_string(), kind, "heuristic", &graph));
        }
    }
    let bert = Network::BertSmall.attention_workload(1);
    let naive = build(
        DataflowKind::MasAttention,
        &bert,
        &Tiling::naive(&bert),
        &hw,
    );
    assert_eq!(naive.len(), 77_840);
    rows.push(row(
        "BERT-Small",
        DataflowKind::MasAttention,
        "naive",
        &naive,
    ));

    // An L1 that holds only the FLAT-like working set next to the resident
    // K/V engages the proactive overwrite (§4.3) on every round.
    let long = AttentionWorkload::new("long", 1, 2, 8192, 64);
    let small_l1 = HardwareConfig {
        l1_bytes: 7 * 1024 * 1024,
        ..hw.clone()
    };
    let tiling = Tiling::new(1, 2, 64, 512, &long);
    let overwrite = build(DataflowKind::MasAttention, &long, &tiling, &small_l1);
    for text in [
        "reload V tile",
        "reload K tile",
        "redo interrupted MatMul (K)",
    ] {
        assert!(overwrite.iter().any(|t| t.label.to_string().contains(text)));
    }
    rows.push(row(
        "long@7MiB",
        DataflowKind::MasAttention,
        "1x2x64x512",
        &overwrite,
    ));

    let golden: Vec<&str> = GRAPHS.lines().collect();
    assert_eq!(rows.len(), golden.len(), "golden row count");
    for (got, want) in rows.iter().zip(golden) {
        assert_eq!(got, want);
    }
}

#[test]
fn traced_run_renders_the_pinned_trace() {
    let hw = HardwareConfig::edge_default();
    let w = Network::BertSmall.attention_workload(1);
    let graph = build(
        DataflowKind::MasAttention,
        &w,
        &Tiling::heuristic(&w, &hw),
        &hw,
    );
    let report = Executor::new(hw, EnergyModel::edge_16nm())
        .run(&graph)
        .expect("simulates");
    let mut text = String::new();
    for e in report.trace.expect("trace recorded").entries() {
        writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}",
            e.task, e.resource, e.start_cycle, e.end_cycle, e.label
        )
        .unwrap();
    }
    for (i, (got, want)) in text.lines().zip(TRACE.lines()).enumerate() {
        assert_eq!(got, want, "trace line {}", i + 1);
    }
    assert_eq!(text, TRACE);
}
