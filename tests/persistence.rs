//! Integration: the text format round-trips a mid-flow state — save a
//! netlist and its global placement, reload, and finish the flow with
//! identical results.

use kraftwerk::legalize::{check_legality, legalize};
use kraftwerk::netlist::format::{read_netlist, read_placement, write_netlist, write_placement};
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::metrics;
use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig};

#[test]
fn save_and_resume_mid_flow() {
    let nl = generate(&SynthConfig::with_size("persist", 300, 380, 8));
    let global = GlobalPlacer::new(KraftwerkConfig::standard())
        .try_place(&nl)
        .expect("placement");

    // Serialize both artifacts.
    let nl_text = write_netlist(&nl);
    let pl_text = write_placement(&nl, &global.placement);

    // Reload and verify equivalence.
    let nl2 = read_netlist(&nl_text).expect("parseable netlist");
    let pl2 = read_placement(&nl2, &pl_text).expect("parseable placement");
    assert_eq!(nl2.num_cells(), nl.num_cells());
    assert_eq!(nl2.num_nets(), nl.num_nets());
    assert!(
        (metrics::hpwl(&nl2, &pl2) - metrics::hpwl(&nl, &global.placement)).abs() < 1e-6
    );

    // Finishing the flow from the reloaded state works and is legal.
    let legal_a = legalize(&nl, &global.placement).expect("legal");
    let legal_b = legalize(&nl2, &pl2).expect("legal");
    assert!(check_legality(&nl2, &legal_b, 1e-6).is_legal());
    assert!(
        (metrics::hpwl(&nl, &legal_a) - metrics::hpwl(&nl2, &legal_b)).abs() < 1e-6,
        "resumed flow diverged"
    );
}

#[test]
fn serialization_is_stable() {
    let nl = generate(&SynthConfig::with_size("stable", 150, 190, 6));
    let once = write_netlist(&nl);
    let twice = write_netlist(&read_netlist(&once).expect("parseable"));
    assert_eq!(once, twice);
}
