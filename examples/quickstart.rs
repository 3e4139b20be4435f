//! Quickstart: generate a benchmark, run the full Kraftwerk flow, and
//! write SVG snapshots of the placement before and after.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use kraftwerk::geom::svg::SvgCanvas;
use kraftwerk::legalize::{check_legality, detail_place};
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::{metrics, CellKind, Netlist, Placement};
use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig};

fn snapshot(netlist: &Netlist, placement: &Placement, path: &str) -> std::io::Result<()> {
    let core = netlist.core_region();
    let mut svg = SvgCanvas::new(core.inflate(core.width() * 0.03), 900.0);
    for row in netlist.rows() {
        svg.rect(&row.rect(), "#f2f2f2", 1.0);
    }
    for (id, cell) in netlist.cells() {
        let rect = placement.cell_rect(id, cell.size());
        let color = match cell.kind() {
            CellKind::Standard => "#4682b4",
            CellKind::Block => "#c06030",
            CellKind::Fixed => "#333333",
        };
        svg.rect(&rect, color, 0.6);
    }
    std::fs::write(path, svg.finish())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An MCNC-shaped synthetic circuit: 800 cells, 950 nets, 16 rows.
    let netlist = generate(&SynthConfig::with_size("quickstart", 800, 950, 16));
    println!("circuit: {}", kraftwerk::netlist::stats::NetlistStats::collect(&netlist));

    // Global placement (the paper's standard mode).
    let placer = GlobalPlacer::new(KraftwerkConfig::standard());
    let start = std::time::Instant::now();
    let result = placer.try_place(&netlist)?;
    println!(
        "global placement: {} transformations in {:.2}s, hpwl {:.0}, converged: {}",
        result.iterations(),
        start.elapsed().as_secs_f64(),
        metrics::hpwl(&netlist, &result.placement),
        result.converged,
    );
    snapshot(&netlist, &result.placement, "quickstart_global.svg")?;

    // Legalize into rows and refine (the Domino-style final placement).
    let legal = detail_place(&netlist, &result.placement)?;
    let report = check_legality(&netlist, &legal, 1e-6);
    println!(
        "legalized: hpwl {:.0}, legal: {}",
        metrics::hpwl(&netlist, &legal),
        report.is_legal(),
    );
    snapshot(&netlist, &legal, "quickstart_legal.svg")?;
    println!("wrote quickstart_global.svg and quickstart_legal.svg");
    Ok(())
}
