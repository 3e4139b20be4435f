//! Cross-crate integration: the full global placement → detail placement
//! pipeline on MCNC-shaped circuits, compared against both baseline
//! placers.

use kraftwerk::baselines::{AnnealingConfig, AnnealingPlacer, GordianConfig, GordianPlacer};
use kraftwerk::legalize::{check_legality, detail_place};
use kraftwerk::netlist::synth::{generate, mcnc, SynthConfig};
use kraftwerk::netlist::{metrics, Netlist, Placement};
use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig, NetModel};

fn place(netlist: &Netlist, config: KraftwerkConfig) -> Placement {
    GlobalPlacer::new(config)
        .try_place(netlist)
        .expect("placement")
        .placement
}

fn finish(netlist: &Netlist, global: &Placement) -> Placement {
    detail_place(netlist, global).expect("legalizable")
}

#[test]
fn kraftwerk_pipeline_is_legal_and_beats_scatter() {
    let nl = generate(&SynthConfig::with_size("pipe", 600, 720, 12));
    let legal = finish(&nl, &place(&nl, KraftwerkConfig::standard()));
    assert!(check_legality(&nl, &legal, 1e-6).is_legal());

    // Scatter reference: cells placed round-robin over rows.
    let mut scatter = nl.initial_placement();
    let rows = nl.rows();
    let movable: Vec<_> = nl.movable_cells().map(|(id, _)| id).collect();
    for (i, &id) in movable.iter().enumerate() {
        let row = rows[i % rows.len()];
        let frac = (i / rows.len()) as f64 / (movable.len() / rows.len()).max(1) as f64;
        scatter.set_position(
            id,
            kraftwerk::geom::Point::new(row.x_lo + frac * row.width(), row.center_y()),
        );
    }
    let ours = metrics::hpwl(&nl, &legal);
    let scattered = metrics::hpwl(&nl, &scatter);
    assert!(
        ours < 0.5 * scattered,
        "pipeline {ours:.0} should be well under scatter {scattered:.0}"
    );
}

#[test]
fn all_three_placers_complete_the_pipeline_on_fract() {
    // The smallest Table 1 circuit through all three flows.
    let nl = mcnc::by_name("fract");

    let kw = finish(&nl, &place(&nl, KraftwerkConfig::standard()));
    assert!(check_legality(&nl, &kw, 1e-6).is_legal());

    let (sa_global, _) = AnnealingPlacer::new(AnnealingConfig::default()).place(&nl);
    let sa = finish(&nl, &sa_global);
    assert!(check_legality(&nl, &sa, 1e-6).is_legal());

    let gq = finish(&nl, &GordianPlacer::new(GordianConfig::default()).place(&nl));
    assert!(check_legality(&nl, &gq, 1e-6).is_legal());

    // All three produce comparable-order wire length; none is broken.
    let (a, b, c) = (
        metrics::hpwl(&nl, &kw),
        metrics::hpwl(&nl, &sa),
        metrics::hpwl(&nl, &gq),
    );
    let max = a.max(b).max(c);
    let min = a.min(b).min(c);
    assert!(max < 4.0 * min, "wild spread: kw {a:.0}, sa {b:.0}, gordian {c:.0}");
}

#[test]
fn pipeline_handles_the_fast_mode() {
    let nl = generate(&SynthConfig::with_size("pipe_fast", 500, 620, 10));
    let legal = finish(&nl, &place(&nl, KraftwerkConfig::fast()));
    assert!(check_legality(&nl, &legal, 1e-6).is_legal());
}

#[test]
fn b2b_and_clique_agree_on_mcnc_wirelength() {
    // The bound-to-bound model approximates the same HPWL objective the
    // clique model does, so end-to-end legalized wire length on the MCNC
    // stand-ins must land in the same ballpark — B2B no more than 20%
    // worse and not suspiciously shorter than half the clique result.
    for name in ["fract", "primary1"] {
        let nl = mcnc::by_name(name);
        let run = |model: NetModel| {
            let mut cfg = KraftwerkConfig::standard();
            cfg.net_model = model;
            metrics::hpwl(&nl, &finish(&nl, &place(&nl, cfg)))
        };
        let clique = run(NetModel::Clique);
        let b2b = run(NetModel::B2B);
        assert!(
            b2b < 1.2 * clique && b2b > 0.5 * clique,
            "{name}: b2b {b2b:.0} vs clique {clique:.0}"
        );
    }
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let nl = generate(&SynthConfig::with_size("pipe_det", 300, 380, 8));
    let one = finish(&nl, &place(&nl, KraftwerkConfig::standard()));
    let two = finish(&nl, &place(&nl, KraftwerkConfig::standard()));
    assert_eq!(one, two);
}
