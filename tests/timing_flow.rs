//! Cross-crate timing integration: the paper's timing flows measured on
//! fully legalized placements (the configuration Tables 3 and 4 report).

use kraftwerk::legalize::detail_place;
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::{Netlist, Placement};
use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig};
use kraftwerk::timing::{meet_requirements, optimize_timing, optimize_timing_legalized, DelayModel, Sta};

fn finish(netlist: &Netlist, global: &Placement) -> Placement {
    detail_place(netlist, global).expect("legalizable")
}

/// The plain (not timing-driven) flow's legal placement.
fn plain_flow(netlist: &Netlist, config: KraftwerkConfig) -> Placement {
    let global = GlobalPlacer::new(config)
        .try_place(netlist)
        .expect("placement");
    finish(netlist, &global.placement)
}

#[test]
fn legalized_timing_driven_placement_exploits_potential() {
    let nl = generate(&SynthConfig::with_size("tflow", 800, 950, 16));
    let model = DelayModel::default();
    let sta = Sta::new(&nl, model).expect("acyclic");
    let cfg = KraftwerkConfig::standard();

    let plain = plain_flow(&nl, cfg.clone());
    let optimized = optimize_timing_legalized(&nl, model, cfg, 3)
        .expect("acyclic")
        .placement;

    let bound = sta.lower_bound();
    let plain_delay = sta.analyze(&plain).max_delay;
    let opt_delay = sta.analyze(&optimized).max_delay;
    let potential = plain_delay - bound;
    assert!(potential > 0.0, "no potential: plain {plain_delay}, bound {bound}");
    let exploitation = (plain_delay - opt_delay) / potential;
    assert!(
        exploitation > 0.12,
        "legalized exploitation {:.0}% (plain {plain_delay:.2}, opt {opt_delay:.2}, bound {bound:.2})",
        exploitation * 100.0
    );
}

#[test]
fn met_requirements_hold_after_final_placement_analysis() {
    let nl = generate(&SynthConfig::with_size("tmeet", 500, 620, 10));
    let model = DelayModel::default();
    let sta = Sta::new(&nl, model).expect("acyclic");
    let cfg = KraftwerkConfig::standard();
    let plain = GlobalPlacer::new(cfg.clone())
        .try_place(&nl)
        .expect("placement");
    let requirement = sta.analyze(&plain.placement).max_delay * 0.9;
    let result = meet_requirements(&nl, model, cfg, requirement, 60).expect("acyclic");
    assert!(result.met);
    // The paper's claim: the placement used for analysis meets the
    // requirement *precisely* — verify on the returned placement.
    assert!(sta.analyze(&result.placement).max_delay <= requirement + 1e-9);
    // The curve is recorded and monotone enough to serve as a trade-off
    // curve (delay decreases overall from the first to the last point).
    assert!(result.curve.len() >= 2);
    let first = result.curve.first().expect("non-empty");
    let last = result.curve.last().expect("non-empty");
    assert!(last.max_delay < first.max_delay);
}

#[test]
fn timing_mode_costs_bounded_wire_length() {
    let nl = generate(&SynthConfig::with_size("tcost", 500, 620, 10));
    let model = DelayModel::default();
    let cfg = KraftwerkConfig::standard();
    let plain = plain_flow(&nl, cfg.clone());
    let optimized = finish(&nl, &optimize_timing(&nl, model, cfg).expect("acyclic").placement);
    let plain_hpwl = kraftwerk::netlist::metrics::hpwl(&nl, &plain);
    let opt_hpwl = kraftwerk::netlist::metrics::hpwl(&nl, &optimized);
    // Timing mode trades wire length for delay, within a sane envelope.
    assert!(
        opt_hpwl < 3.0 * plain_hpwl,
        "timing mode exploded wire length: {opt_hpwl:.0} vs {plain_hpwl:.0}"
    );
}
