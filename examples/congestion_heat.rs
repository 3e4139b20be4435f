//! Congestion- and heat-driven placement (section 5): inject routing
//! overflow or temperature maps into the density model so the additional
//! forces also flatten congestion and hot spots.
//!
//! ```sh
//! cargo run --release --example congestion_heat
//! ```

use kraftwerk::congestion::{
    congestion_map, demand_for_session, peak, routing_demand_map, thermal_map, total_overflow,
};
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::metrics;
use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig, PlacementSession};

fn main() {
    let base = generate(&SynthConfig::with_size("maps_demo", 1000, 1200, 18));
    // Create a hot cluster: one contiguous index range (which the
    // locality model places together) burns 25x the power.
    let n = base.num_movable();
    let netlist = base.with_powers(|id, cell| {
        if (n / 3..n / 3 + n / 10).contains(&id.index()) {
            cell.power() * 25.0
        } else {
            cell.power()
        }
    });
    let config = KraftwerkConfig::standard();
    let (nx, ny) = PlacementSession::new(&netlist, config.clone()).grid_dims();

    // Plain placement for reference.
    let plain = GlobalPlacer::new(config.clone())
        .try_place(&netlist)
        .expect("placement");
    // Routing capacity: 60% of the plain placement's peak demand, so the
    // reference design is (mildly) unroutable and there is something to
    // optimize.
    let tracks = 0.6 * routing_demand_map(&netlist, &plain.placement, nx, ny).max();
    let plain_overflow =
        total_overflow(&congestion_map(&netlist, &plain.placement, nx, ny, tracks));
    let plain_peak_t = peak(&thermal_map(&netlist, &plain.placement, nx, ny));
    println!(
        "plain:             hpwl {:9.0}  overflow {:8.0}  peak temp {:.2}",
        metrics::hpwl(&netlist, &plain.placement),
        plain_overflow,
        plain_peak_t
    );

    // Congestion-driven: re-estimate routing demand before each
    // transformation ("the placement and the congestion map converge
    // simultaneously").
    let mut session = PlacementSession::new(&netlist, config.clone());
    for _ in 0..config.max_transformations {
        let map = congestion_map(&netlist, session.placement(), nx, ny, tracks);
        session
            .set_demand_map(demand_for_session(&map), 2.5)
            .expect("congestion map uses grid_dims");
        session.try_transform().expect("transformation");
        if session.is_converged() {
            break;
        }
    }
    let cong_overflow =
        total_overflow(&congestion_map(&netlist, session.placement(), nx, ny, tracks));
    println!(
        "congestion-driven: hpwl {:9.0}  overflow {:8.0}  ({:+.0}% overflow)",
        metrics::hpwl(&netlist, session.placement()),
        cong_overflow,
        100.0 * (cong_overflow - plain_overflow) / plain_overflow.max(1e-9),
    );

    // Heat-driven: same mechanism with the thermal map.
    let mut session = PlacementSession::new(&netlist, config.clone());
    for _ in 0..config.max_transformations {
        let map = thermal_map(&netlist, session.placement(), nx, ny);
        session
            .set_demand_map(demand_for_session(&map), 0.8)
            .expect("thermal map uses grid_dims");
        session.try_transform().expect("transformation");
        if session.is_converged() {
            break;
        }
    }
    let heat_peak = peak(&thermal_map(&netlist, session.placement(), nx, ny));
    println!(
        "heat-driven:       hpwl {:9.0}  peak temp {:.2}       ({:+.0}% peak temperature)",
        metrics::hpwl(&netlist, session.placement()),
        heat_peak,
        100.0 * (heat_peak - plain_peak_t) / plain_peak_t.max(1e-9),
    );
}
