//! Experiment A4 (DESIGN.md): ECO / incremental placement disturbs an
//! existing placement minimally (paper section 5).

use kraftwerk::geom::Size;
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::{metrics, CellId, CellKind, Netlist, NetlistBuilder, NetId, PinDirection, Placement};
use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig};

/// Clones a netlist and appends `extra` buffer-like cells spliced into
/// existing nets.
fn with_extra_cells(original: &Netlist, extra: usize) -> Netlist {
    let mut b = NetlistBuilder::new();
    b.name(format!("{}_eco", original.name()));
    b.core_region(original.core_region());
    if let Some(row) = original.rows().first() {
        b.rows(original.rows().len(), row.height);
    }
    let mut ids = Vec::new();
    for (_, cell) in original.cells() {
        let id = match cell.kind() {
            CellKind::Fixed => b.add_fixed_cell(
                cell.name(),
                cell.size(),
                cell.fixed_position().expect("fixed has position"),
            ),
            CellKind::Block => b.add_block(cell.name(), cell.size()),
            CellKind::Standard => b.add_cell(cell.name(), cell.size()),
        };
        ids.push(id);
    }
    for (_, net) in original.nets() {
        let pins: Vec<_> = net
            .pins()
            .iter()
            .map(|&p| {
                let pin = original.pin(p);
                (ids[pin.cell().index()], pin.offset(), pin.direction())
            })
            .collect();
        b.add_weighted_net(net.name(), net.weight(), pins);
    }
    for i in 0..extra {
        let id = b.add_cell(format!("eco{i}"), Size::new(6.0, 16.0));
        let net = NetId::from_index((i * 53) % original.num_nets());
        b.add_pin_to_net(net, id, PinDirection::Input);
    }
    b.build().expect("valid ECO netlist")
}

#[test]
fn eco_disturbs_far_less_than_replacement() {
    let original = generate(&SynthConfig::with_size("eco_int", 600, 720, 12));
    let placer = GlobalPlacer::new(KraftwerkConfig::standard());
    let before = placer.try_place(&original).expect("placement");

    let changed = with_extra_cells(&original, original.num_movable() / 100);
    let warm: Placement = changed
        .cell_ids()
        .map(|id| {
            if id.index() < original.num_cells() {
                before.placement.position(CellId::from_index(id.index()))
            } else {
                changed.core_region().center()
            }
        })
        .collect();

    let eco = placer
        .try_place_incremental(&changed, warm)
        .expect("incremental placement");
    let scratch = placer.try_place(&changed).expect("placement");

    let mut eco_moved = 0.0;
    let mut scratch_moved = 0.0;
    for id in original.cell_ids() {
        let p0 = before.placement.position(id);
        let idc = CellId::from_index(id.index());
        eco_moved += p0.distance(eco.placement.position(idc));
        scratch_moved += p0.distance(scratch.placement.position(idc));
    }
    assert!(
        eco_moved < 0.5 * scratch_moved,
        "ECO displacement {eco_moved:.0} should be far below scratch {scratch_moved:.0}"
    );

    // The adapted placement stays usable: wire length within 15% of the
    // original design's.
    let eco_hpwl = metrics::hpwl(&changed, &eco.placement);
    let before_hpwl = metrics::hpwl(&original, &before.placement);
    assert!(
        eco_hpwl < 1.15 * before_hpwl,
        "ECO hpwl {eco_hpwl:.0} vs original {before_hpwl:.0}"
    );
}

#[test]
fn gate_resizing_is_absorbed_incrementally() {
    // Section 5 lists "gate resizing techniques" among the netlist
    // changes the incremental flow handles: grow 5% of the cells by 60%
    // and re-place incrementally.
    let nl = generate(&SynthConfig::with_size("eco_resize", 500, 620, 10));
    let placer = GlobalPlacer::new(KraftwerkConfig::standard());
    let before = placer.try_place(&nl).expect("placement");

    let resized = nl.with_sizes(|id, cell| {
        if id.index() % 20 == 0 && cell.is_movable() {
            Size::new(cell.size().width * 1.6, cell.size().height)
        } else {
            cell.size()
        }
    });
    let eco = placer
        .try_place_incremental(&resized, before.placement.clone())
        .expect("incremental placement");

    // Disturbance stays modest: the resized cells' neighbourhoods adapt,
    // the rest of the placement barely moves.
    let avg = before.placement.total_displacement(&eco.placement) / nl.num_movable() as f64;
    assert!(
        avg < 0.05 * resized.core_region().half_perimeter(),
        "avg displacement {avg:.2}"
    );
    // And the result still legalizes with the new footprints.
    let legal = kraftwerk::legalize::legalize(&resized, &eco.placement).expect("capacity");
    assert!(kraftwerk::legalize::check_legality(&resized, &legal, 1e-6).is_legal());
}

#[test]
fn unchanged_netlist_eco_is_nearly_a_fixed_point() {
    let nl = generate(&SynthConfig::with_size("eco_fix", 400, 500, 10));
    let placer = GlobalPlacer::new(KraftwerkConfig::standard());
    let first = placer.try_place(&nl).expect("placement");
    let eco = placer
        .try_place_incremental(&nl, first.placement.clone())
        .expect("incremental placement");
    let avg = first.placement.total_displacement(&eco.placement) / nl.num_movable() as f64;
    assert!(
        avg < 0.02 * nl.core_region().half_perimeter(),
        "avg displacement {avg:.2} on unchanged netlist"
    );
}
