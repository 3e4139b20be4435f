//! **Experiments E5/E6** — the fast mode claims of section 6.1.
//!
//! E5: fast mode (`K = 1.0` in the paper; this reproduction keeps the
//! standard `K = 0.05` and coarsens the grid instead, DESIGN.md §7)
//! computes a placement in about a third of the standard mode's time at
//! ~6% average wire-length cost.
//!
//! E6 (`--large`): a legal placement for a 210,000-cell circuit within
//! 10 minutes using the fast mode.
//!
//! ```sh
//! cargo run --release -p kraftwerk-bench --bin fastmode            # E5
//! cargo run --release -p kraftwerk-bench --bin fastmode -- --quick # E5, <= 7000 cells
//! cargo run --release -p kraftwerk-bench --bin fastmode -- --large # E6
//! ```
//!
//! The committed `BENCH_place.json` rows for both modes come from
//! `kraftwerk bench --json --modes standard,fast`, not from this binary.

use kraftwerk_bench::{run_kraftwerk, table1_circuits};
use kraftwerk_core::KraftwerkConfig;
use kraftwerk_netlist::synth::{generate, mcnc};

fn main() {
    let console = kraftwerk_bench::console();
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--large") {
        run_large();
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let circuits = table1_circuits(if quick { 7000 } else { usize::MAX });

    console.info("E5: standard vs fast mode (both K = 0.05) — wire length [m] and CPU [s]");
    console.info(format!(
        "{:<12} | {:>10} {:>8} | {:>10} {:>8} | {:>8} {:>8}",
        "circuit", "std wire", "std CPU", "fast wire", "fast CPU", "wire +%", "speedup"
    ));
    let mut wire_sum = 0.0;
    let mut speed_sum = 0.0;
    let mut count = 0.0;
    for preset in circuits {
        let netlist = mcnc::by_name(preset.name);
        let std_run = run_kraftwerk(&netlist, KraftwerkConfig::standard());
        let fast_run = run_kraftwerk(&netlist, KraftwerkConfig::fast());
        let wire_pct = 100.0 * (fast_run.wirelength_m - std_run.wirelength_m) / std_run.wirelength_m;
        let speedup = std_run.seconds / fast_run.seconds;
        console.info(format!(
            "{:<12} | {:>10.4} {:>8.1} | {:>10.4} {:>8.1} | {:>8.1} {:>8.2}",
            preset.name,
            std_run.wirelength_m,
            std_run.seconds,
            fast_run.wirelength_m,
            fast_run.seconds,
            wire_pct,
            speedup,
        ));
        wire_sum += wire_pct;
        speed_sum += speedup;
        count += 1.0;
    }
    console.info(format!(
        "{:<12} | {:>31} | {:>8.1} {:>8.2}",
        "average",
        "",
        wire_sum / count,
        speed_sum / count
    ));
    console.info("\n(paper: fast mode is ~3x faster at ~6% wire-length cost)");
}

fn run_large() {
    let console = kraftwerk_bench::console();
    console.info("E6: 210,000-cell circuit, fast mode (paper: legal placement within 10 minutes)");
    let started = std::time::Instant::now();
    let netlist = generate(&mcnc::giant());
    console.info(format!(
        "generated {} cells / {} nets in {:.0}s",
        netlist.num_movable(),
        netlist.num_nets(),
        started.elapsed().as_secs_f64()
    ));
    let result = run_kraftwerk(&netlist, KraftwerkConfig::fast());
    console.info(format!(
        "fast-mode flow: wire {:.3} m, CPU {:.0}s, legal: {} — {}",
        result.wirelength_m,
        result.seconds,
        result.legal,
        if result.seconds <= 600.0 && result.legal {
            "within the paper's 10-minute budget"
        } else {
            "outside the paper's 10-minute budget"
        }
    ));
}
