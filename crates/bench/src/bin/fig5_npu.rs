//! Regenerates Figure 5: normalized execution time of Layer-Wise, Soft-Pipe,
//! FLAT and MAS-Attention on the DaVinci-like NPU model, per network, with
//! the geometric-mean speedups reported in §5.2.1.

use mas_bench::table1_workloads;
use mas_dataflow::DataflowKind;
use mas_npu::NpuModel;
use mas_sim::report::geometric_mean;

fn main() {
    let model = NpuModel::kirin990();
    println!("Figure 5: normalized execution time on the DaVinci-like NPU");
    println!(
        "{:<28} {:>11} {:>11} {:>11} {:>11} | {:>9} {:>9} {:>9}",
        "Network", "Layer-Wise", "Soft-Pipe", "FLAT", "MAS", "MAS/LW", "MAS/SP", "MAS/FLAT"
    );
    let mut speedups: Vec<(f64, f64, f64)> = Vec::new();
    for (net, w) in table1_workloads() {
        let rows = model
            .figure5_estimates(&w)
            .unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        let get = |k: DataflowKind| rows.iter().find(|(m, _, _)| *m == k).unwrap();
        let lw = get(DataflowKind::LayerWise);
        let sp = get(DataflowKind::SoftPipe);
        let flat = get(DataflowKind::Flat);
        let mas = get(DataflowKind::MasAttention);
        println!(
            "{:<28} {:>11.3} {:>11.3} {:>11.3} {:>11.3} | {:>8.2}x {:>8.2}x {:>8.2}x",
            net.name(),
            lw.2,
            sp.2,
            flat.2,
            mas.2,
            lw.1 / mas.1,
            sp.1 / mas.1,
            flat.1 / mas.1
        );
        speedups.push((lw.1 / mas.1, sp.1 / mas.1, flat.1 / mas.1));
    }
    let lw: Vec<f64> = speedups.iter().map(|s| s.0).collect();
    let sp: Vec<f64> = speedups.iter().map(|s| s.1).collect();
    let flat: Vec<f64> = speedups.iter().map(|s| s.2).collect();
    println!(
        "{:<28} {:>11} {:>11} {:>11} {:>11} | {:>8.2}x {:>8.2}x {:>8.2}x",
        "Geometric Mean",
        "-",
        "-",
        "-",
        "-",
        geometric_mean(&lw).unwrap(),
        geometric_mean(&sp).unwrap(),
        geometric_mean(&flat).unwrap()
    );
}
