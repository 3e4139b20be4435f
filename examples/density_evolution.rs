//! Watch the algorithm work: dump the density deviation map and the
//! placement as SVG frames across the placement transformations — the
//! visual version of section 4.2's "each iteration makes the distribution
//! of the cells more even".
//!
//! ```sh
//! cargo run --release --example density_evolution
//! # then open density_frame_*.svg / placement_frame_*.svg
//! ```

use kraftwerk::field::{density_map, svg_heatmap};
use kraftwerk::geom::svg::SvgCanvas;
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::{CellKind, Netlist, Placement};
use kraftwerk::placer::{KraftwerkConfig, PlacementSession};

fn placement_svg(netlist: &Netlist, placement: &Placement) -> String {
    let core = netlist.core_region();
    let mut svg = SvgCanvas::new(core.inflate(core.width() * 0.02), 700.0);
    for (id, cell) in netlist.cells() {
        let color = match cell.kind() {
            CellKind::Standard => "#4682b4",
            CellKind::Block => "#c06030",
            CellKind::Fixed => "#333333",
        };
        svg.rect(&placement.cell_rect(id, cell.size()), color, 0.55);
    }
    svg.finish()
}

fn main() -> std::io::Result<()> {
    let netlist = generate(&SynthConfig::with_size("evolution", 1200, 1500, 16));
    let config = KraftwerkConfig::standard();
    let mut session = PlacementSession::new(&netlist, config.clone());
    let (nx, ny) = session.grid_dims();

    let mut frame = 0;
    loop {
        let stats = session.try_transform().expect("transformation");
        let snapshot_due = stats.iteration == 1
            || stats.iteration.is_multiple_of(8)
            || session.is_converged()
            || session.is_stalled();
        if snapshot_due {
            let density = density_map(&netlist, session.placement(), nx, ny);
            std::fs::write(
                format!("density_frame_{frame:02}.svg"),
                svg_heatmap(&density, 700.0),
            )?;
            std::fs::write(
                format!("placement_frame_{frame:02}.svg"),
                placement_svg(&netlist, session.placement()),
            )?;
            println!(
                "frame {frame:02}: iteration {:3}, hpwl {:9.0}, peak density {:6.2}, empty square {:8.0}",
                stats.iteration, stats.hpwl, stats.peak_density, stats.empty_square_area
            );
            frame += 1;
        }
        if session.is_converged()
            || session.is_stalled()
            || session.iteration() >= config.max_transformations
        {
            break;
        }
    }
    println!("wrote {frame} density/placement frame pairs");
    Ok(())
}
