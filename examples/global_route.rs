//! Global routing validation: route a placement with the pattern router,
//! compare the probabilistic congestion estimate against true routed
//! congestion, and show how congestion-driven placement changes the
//! routed outcome.
//!
//! ```sh
//! cargo run --release --example global_route
//! ```

use kraftwerk::congestion::router::{route, RouterConfig};
use kraftwerk::congestion::{congestion_map, demand_for_session};
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::metrics;
use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig, PlacementSession};

fn main() {
    let netlist = generate(&SynthConfig::with_size("route_demo", 1500, 1800, 20));
    let config = KraftwerkConfig::standard();
    let (nx, ny) = PlacementSession::new(&netlist, config.clone()).grid_dims();

    // Plain placement, routed.
    let plain = GlobalPlacer::new(config.clone())
        .try_place(&netlist)
        .expect("placement")
        .placement;
    // Capacity sized to ~80% of what the plain placement demands at its
    // worst edge, so the router has to negotiate.
    let probe = route(&netlist, &plain, nx, ny, &RouterConfig {
        capacity_h: f64::INFINITY,
        capacity_v: f64::INFINITY,
        reroute_passes: 0,
        ..RouterConfig::default()
    });
    let peak_usage = probe.grid.max_utilization(&RouterConfig {
        capacity_h: 1.0,
        capacity_v: 1.0,
        ..RouterConfig::default()
    });
    let router_cfg = RouterConfig {
        capacity_h: 0.55 * peak_usage,
        capacity_v: 0.55 * peak_usage,
        reroute_passes: 4,
        ..RouterConfig::default()
    };
    let routed = route(&netlist, &plain, nx, ny, &router_cfg);
    println!(
        "plain placement:      hpwl {:>9.0}, routed wl {:>7.0} gcells, overflow {:>6.0}, peak util {:.2}",
        metrics::hpwl(&netlist, &plain),
        routed.wirelength,
        routed.overflow,
        routed.max_utilization,
    );

    // Congestion-driven placement using the *router's* congestion map —
    // the full version of the paper's "a routing estimation is executed"
    // loop (the cheap probabilistic estimator is used inside the loop,
    // the router verifies the outcome).
    let mut session = PlacementSession::new(&netlist, config.clone());
    let tracks_estimate = 0.6
        * kraftwerk::congestion::routing_demand_map(&netlist, &plain, nx, ny).max();
    for _ in 0..config.max_transformations {
        let map = congestion_map(&netlist, session.placement(), nx, ny, tracks_estimate);
        session
            .set_demand_map(demand_for_session(&map), 2.0)
            .expect("congestion map uses grid_dims");
        session.try_transform().expect("transformation");
        if session.is_converged() {
            break;
        }
    }
    let cong_routed = route(&netlist, session.placement(), nx, ny, &router_cfg);
    println!(
        "congestion-driven:    hpwl {:>9.0}, routed wl {:>7.0} gcells, overflow {:>6.0}, peak util {:.2}",
        metrics::hpwl(&netlist, session.placement()),
        cong_routed.wirelength,
        cong_routed.overflow,
        cong_routed.max_utilization,
    );
    println!(
        "overflow change: {:+.0}%",
        100.0 * (cong_routed.overflow - routed.overflow) / routed.overflow.max(1e-9)
    );
}
