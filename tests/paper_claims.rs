//! Small-scale executable versions of the paper's qualitative claims —
//! the statements section 5 and 7 make without a table. Each test states
//! the claim it covers. (The quantitative tables live in the
//! `kraftwerk-bench` binaries; these run in the normal test suite on
//! small circuits.)

use kraftwerk::bench::run_kraftwerk;
use kraftwerk::congestion::{demand_for_session, peak, thermal_map};
use kraftwerk::floorplan::{is_legal_mixed, place_mixed, MixedPlaceConfig};
use kraftwerk::legalize::detail_place;
use kraftwerk::netlist::synth::{generate, mcnc, SynthConfig};
use kraftwerk::netlist::{metrics, CellKind, Placement};
use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig, PlacementSession};
use kraftwerk::timing::{meet_requirements, DelayModel, Sta};

/// Claim (section 2.2): "the introduction of forces does not restrict the
/// solution space, i.e. any given placement can fulfill equation (3) if
/// the additional forces are chosen appropriately." The session realizes
/// this through `resume`: any placement is a fixed point until density
/// forces demand otherwise, so a resumed converged placement barely moves.
#[test]
fn any_placement_is_an_equilibrium_under_suitable_forces() {
    let nl = generate(&SynthConfig::with_size("claim_eq", 250, 310, 8));
    let placer = GlobalPlacer::new(KraftwerkConfig::standard());
    let converged = placer.try_place(&nl).expect("placement").placement;
    let resumed = placer
        .try_place_incremental(&nl, converged.clone())
        .expect("incremental placement")
        .placement;
    let moved = converged.max_displacement(&resumed);
    assert!(
        moved < 0.1 * nl.core_region().half_perimeter(),
        "resumed equilibrium moved {moved}"
    );
}

/// Claim (section 5): "our algorithm is the first one which is able to
/// handle large mixed block/cell placement problems without treating
/// blocks and cells differently" — the same config places a pure
/// standard-cell design and a blocks-included design, and the mixed flow
/// ends legal.
#[test]
fn blocks_and_cells_share_one_algorithm() {
    let nl = generate(&SynthConfig::with_size("claim_mixed", 220, 280, 10).blocks(3));
    let result = place_mixed(&nl, &MixedPlaceConfig::default()).expect("mixed flow");
    assert!(is_legal_mixed(&nl, &result.legal, 1e-6));
    // Blocks ended inside the core, spread apart (not piled at the center).
    let blocks: Vec<_> = nl
        .cells()
        .filter(|(_, c)| c.kind() == CellKind::Block)
        .map(|(id, _)| result.legal.position(id))
        .collect();
    for (i, a) in blocks.iter().enumerate() {
        for b in &blocks[i + 1..] {
            assert!(a.distance(*b) > 1.0, "blocks piled: {a} vs {b}");
        }
    }
}

/// Claim (section 5): the meet-requirements flow "guarantees that the
/// timing requirements are precisely met if it is possible at all" and
/// produces a trade-off curve trading area for timing.
#[test]
fn meeting_requirements_is_precise_and_costs_area() {
    let nl = generate(&SynthConfig::with_size("claim_meet", 350, 440, 10));
    let model = DelayModel::default();
    let sta = Sta::new(&nl, model).expect("acyclic");
    let cfg = KraftwerkConfig::standard();
    let base = GlobalPlacer::new(cfg.clone())
        .try_place(&nl)
        .expect("placement");
    let base_delay = sta.analyze(&base.placement).max_delay;
    let base_hpwl = metrics::hpwl(&nl, &base.placement);
    let requirement = base_delay * 0.9;
    let result = meet_requirements(&nl, model, cfg, requirement, 60).expect("acyclic");
    assert!(result.met);
    // Precisely met: verified on the returned placement itself.
    assert!(sta.analyze(&result.placement).max_delay <= requirement + 1e-9);
    // The area (wire length) cost is visible but bounded.
    let final_hpwl = metrics::hpwl(&nl, &result.placement);
    assert!(final_hpwl < 2.0 * base_hpwl, "area cost exploded: {final_hpwl} vs {base_hpwl}");
}

/// Claim (section 5): "by replacing the congestion map with a heat map we
/// can use the same approach to avoid hot spots in the layout."
#[test]
fn heat_map_injection_flattens_a_hot_spot() {
    let base = generate(&SynthConfig::with_size("claim_heat", 400, 500, 10));
    let n = base.num_movable();
    let nl = base.with_powers(|id, cell| {
        if (n / 4..n / 4 + n / 8).contains(&id.index()) {
            cell.power() * 30.0
        } else {
            cell.power()
        }
    });
    let cfg = KraftwerkConfig::standard();
    let (nx, ny) = PlacementSession::new(&nl, cfg.clone()).grid_dims();
    let plain = GlobalPlacer::new(cfg.clone())
        .try_place(&nl)
        .expect("placement");
    let plain_peak = peak(&thermal_map(&nl, &plain.placement, nx, ny));

    let mut session = PlacementSession::new(&nl, cfg.clone());
    for _ in 0..cfg.max_transformations {
        let t = thermal_map(&nl, session.placement(), nx, ny);
        session
            .set_demand_map(demand_for_session(&t), 0.8)
            .expect("thermal map uses grid_dims");
        session.try_transform().expect("transformation");
        if session.is_converged() {
            break;
        }
    }
    let driven_peak = peak(&thermal_map(&nl, session.placement(), nx, ny));
    assert!(
        driven_peak < plain_peak,
        "heat-driven peak {driven_peak:.3} should beat plain {plain_peak:.3}"
    );
}

/// Claim (section 6.1): the fast mode trades single-digit-percent wire
/// length for a substantially cheaper run (measured here as fewer or
/// equal transformations and never worse than a generous envelope).
#[test]
fn fast_mode_quality_stays_in_a_sane_envelope() {
    let nl = generate(&SynthConfig::with_size("claim_fast", 600, 720, 12));
    let std_run = GlobalPlacer::new(KraftwerkConfig::standard())
        .try_place(&nl)
        .expect("placement");
    let fast_run = GlobalPlacer::new(KraftwerkConfig::fast())
        .try_place(&nl)
        .expect("placement");
    let legal_hpwl =
        |global: &Placement| metrics::hpwl(&nl, &detail_place(&nl, global).expect("legal"));
    let std_legal = legal_hpwl(&std_run.placement);
    let fast_legal = legal_hpwl(&fast_run.placement);
    assert!(
        fast_legal < 1.45 * std_legal,
        "fast {fast_legal:.0} vs standard {std_legal:.0}"
    );
    assert!(fast_run.iterations() <= std_run.iterations());
}

/// Claim (section 6.1, experiment E5): the fast mode computes a placement
/// with far less work at about 6% more wire length. Gated on biomed, the
/// E5 circuit whose fast mode costs the most wire, as the `fastmode`
/// binary runs it: legalized wire at most 10% above standard mode's, in
/// fewer transformations.
#[test]
fn fast_mode_costs_at_most_a_tenth_more_wire_on_biomed() {
    let netlist = mcnc::by_name("biomed");
    let standard = run_kraftwerk(&netlist, KraftwerkConfig::standard());
    let fast = run_kraftwerk(&netlist, KraftwerkConfig::fast());
    assert!(standard.legal && fast.legal, "both placements must be legal");
    assert!(
        fast.wirelength_m <= 1.10 * standard.wirelength_m,
        "fast {:.4} m vs standard {:.4} m",
        fast.wirelength_m,
        standard.wirelength_m
    );
    assert!(
        fast.iterations < standard.iterations,
        "fast {} vs standard {} transformations",
        fast.iterations,
        standard.iterations
    );
}

/// Claim (section 4.2): "each iteration makes the distribution of the
/// cells more even" — peak density decreases from start to converged end.
#[test]
fn transformations_flatten_the_density() {
    let nl = generate(&SynthConfig::with_size("claim_flat", 400, 500, 10));
    let cfg = KraftwerkConfig::standard();
    let mut session = PlacementSession::new(&nl, cfg.clone());
    let first = session.try_transform().expect("transformation");
    let mut last = first.clone();
    while session.iteration() < cfg.max_transformations {
        last = session.try_transform().expect("transformation");
        if session.is_converged() || session.is_stalled() {
            break;
        }
    }
    assert!(
        last.peak_density < 0.5 * first.peak_density.max(2.0),
        "peak density {} -> {}",
        first.peak_density,
        last.peak_density
    );
    assert!(last.empty_square_area <= first.empty_square_area);
}
