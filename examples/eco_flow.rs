//! ECO / logic-synthesis interaction: change the netlist after placement
//! and re-place incrementally with minimal disturbance (section 5).
//!
//! A placed design receives 2% extra cells (as a synthesis step would
//! add buffers or resized gates); the incremental flow adapts the
//! placement around them instead of starting over.
//!
//! ```sh
//! cargo run --release --example eco_flow
//! ```

use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::{metrics, NetlistBuilder, PinDirection, Placement};
use kraftwerk::geom::{Point, Size};
use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let original = generate(&SynthConfig::with_size("eco_demo", 800, 950, 16));
    let placer = GlobalPlacer::new(KraftwerkConfig::standard());
    let before = placer.try_place(&original)?;
    println!(
        "original: {} cells, hpwl {:.0}",
        original.num_movable(),
        metrics::hpwl(&original, &before.placement)
    );

    // --- netlist change: clone the design and append 2% new cells, each
    // spliced into an existing net (what buffer insertion looks like).
    let mut builder = NetlistBuilder::new();
    builder.name("eco_demo_v2");
    builder.core_region(original.core_region());
    builder.rows(original.rows().len(), original.rows()[0].height);
    let mut id_map = Vec::with_capacity(original.num_cells());
    for (_, cell) in original.cells() {
        let id = match cell.kind() {
            kraftwerk::netlist::CellKind::Fixed => builder.add_fixed_cell(
                cell.name(),
                cell.size(),
                cell.fixed_position().expect("fixed cell has position"),
            ),
            kraftwerk::netlist::CellKind::Block => builder.add_block(cell.name(), cell.size()),
            kraftwerk::netlist::CellKind::Standard => builder.add_cell(cell.name(), cell.size()),
        };
        builder.set_delay(id, cell.delay());
        builder.set_power(id, cell.power());
        id_map.push(id);
    }
    for (_, net) in original.nets() {
        let pins: Vec<_> = net
            .pins()
            .iter()
            .map(|&p| {
                let pin = original.pin(p);
                (id_map[pin.cell().index()], pin.offset(), pin.direction())
            })
            .collect();
        builder.add_weighted_net(net.name(), net.weight(), pins);
    }
    let extra = original.num_movable() / 50; // 2%
    for i in 0..extra {
        let id = builder.add_cell(format!("eco_buf{i}"), Size::new(6.0, 16.0));
        // Splice into an existing net as an extra load.
        let net = kraftwerk::netlist::NetId::from_index((i * 37) % original.num_nets());
        builder.add_pin_to_net(net, id, PinDirection::Input);
    }
    let changed = builder.build()?;

    // --- incremental re-placement: existing cells start where they were,
    // new cells at the core center.
    let mut warm = Placement::from_positions(
        changed
            .cell_ids()
            .map(|id| {
                if id.index() < original.num_cells() {
                    before.placement.position(kraftwerk::netlist::CellId::from_index(id.index()))
                } else {
                    changed.core_region().center()
                }
            })
            .collect::<Vec<Point>>(),
    );
    // Nudge new cells near their net's centroid for a fair start.
    for id in changed.cell_ids().skip(original.num_cells()) {
        if let Some(&pid) = changed.cell(id).pins().first() {
            let net = changed.pin(pid).net();
            let bbox = metrics::net_bounding_box(&changed, &warm, net);
            if let Some(r) = bbox.rect() {
                warm.set_position(id, r.center());
            }
        }
    }

    let eco = placer.try_place_incremental(&changed, warm)?;
    // How far did the pre-existing cells move?
    let mut moved = 0.0f64;
    let mut max_moved = 0.0f64;
    for id in original.cell_ids() {
        let d = before
            .placement
            .position(id)
            .distance(eco.placement.position(kraftwerk::netlist::CellId::from_index(id.index())));
        moved += d;
        max_moved = max_moved.max(d);
    }
    let core = changed.core_region();
    println!(
        "ECO with {extra} new cells: avg displacement {:.2} units ({:.2}% of the die), max {:.1}",
        moved / original.num_cells() as f64,
        100.0 * moved / original.num_cells() as f64 / core.half_perimeter(),
        max_moved,
    );
    println!(
        "new hpwl {:.0} (vs {:.0} before the change)",
        metrics::hpwl(&changed, &eco.placement),
        metrics::hpwl(&original, &before.placement)
    );

    // Contrast: placing the changed netlist from scratch moves everything.
    let scratch = placer.try_place(&changed)?;
    let mut scratch_moved = 0.0f64;
    for id in original.cell_ids() {
        scratch_moved += before.placement.position(id).distance(
            scratch.placement.position(kraftwerk::netlist::CellId::from_index(id.index())),
        );
    }
    println!(
        "from-scratch re-place would have moved cells {:.1}x as far on average",
        scratch_moved / moved.max(1e-9)
    );
    Ok(())
}
