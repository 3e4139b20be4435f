//! **Table 1** — Benchmarks: wire length and CPU time.
//!
//! For every circuit of the paper's Table 1, runs the three flows
//! (TimberWolf-class annealing, GORDIAN-class quadratic partitioning, and
//! Kraftwerk in standard mode) through legalization and prints wire
//! length in meters and wall-clock CPU seconds. Results are cached to
//! `bench_results/table1.csv` for the derived Table 2.
//!
//! ```sh
//! cargo run --release -p kraftwerk-bench --bin table1            # all 9 circuits
//! cargo run --release -p kraftwerk-bench --bin table1 -- --quick # <= 7000 cells
//! ```
//!
//! The committed `BENCH_place.json` rows come from `kraftwerk bench
//! --json` (README "Inspecting runs"), not from this binary.

use kraftwerk_baselines::{AnnealingConfig, GordianConfig};
use kraftwerk_bench::{run_annealing, run_gordian, run_kraftwerk, table1_circuits, write_csv};
use kraftwerk_core::KraftwerkConfig;
use kraftwerk_netlist::synth::mcnc;

fn main() {
    let console = kraftwerk_bench::console();
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let circuits = table1_circuits(if quick { 7000 } else { usize::MAX });

    console.info("Table 1: wire length [m] and CPU [s] (legalized placements)");
    console.info(format!(
        "{:<12} {:>7} {:>7} | {:>10} {:>8} | {:>10} {:>8} | {:>10} {:>8}",
        "circuit", "#cells", "#nets", "TW wire", "TW CPU", "Go wire", "Go CPU", "Our wire", "Our CPU"
    ));
    let mut rows = Vec::new();
    for preset in circuits {
        let netlist = mcnc::by_name(preset.name);
        let sa = run_annealing(&netlist, AnnealingConfig::heavy());
        let gq = run_gordian(&netlist, GordianConfig::default());
        let kw = run_kraftwerk(&netlist, KraftwerkConfig::standard());
        assert!(sa.legal && gq.legal && kw.legal, "illegal result on {}", preset.name);
        console.info(format!(
            "{:<12} {:>7} {:>7} | {:>10.4} {:>8.1} | {:>10.4} {:>8.1} | {:>10.4} {:>8.1}",
            preset.name,
            preset.cells,
            preset.nets,
            sa.wirelength_m,
            sa.seconds,
            gq.wirelength_m,
            gq.seconds,
            kw.wirelength_m,
            kw.seconds,
        ));
        rows.push(vec![
            preset.name.to_owned(),
            format!("{}", preset.cells),
            format!("{:.6}", sa.wirelength_m),
            format!("{:.3}", sa.seconds),
            format!("{:.6}", gq.wirelength_m),
            format!("{:.3}", gq.seconds),
            format!("{:.6}", kw.wirelength_m),
            format!("{:.3}", kw.seconds),
        ]);
    }
    write_csv(
        "table1.csv",
        "circuit;cells;tw_wire;tw_cpu;go_wire;go_cpu;our_wire;our_cpu",
        &rows,
    );
    console.info("\ncached to bench_results/table1.csv (table2 derives from it)");
}
