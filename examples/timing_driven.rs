//! Timing-driven placement: minimize the longest path, then *meet* an
//! explicit delay requirement with a recorded timing/area trade-off curve
//! (the two flows of the paper's section 5).
//!
//! ```sh
//! cargo run --release --example timing_driven
//! ```

use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::metrics;
use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig};
use kraftwerk::timing::{meet_requirements, optimize_timing, DelayModel, Sta};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = generate(&SynthConfig::with_size("timing_demo", 1000, 1200, 18));
    let model = DelayModel::default();
    let sta = Sta::new(&netlist, model)?;
    let config = KraftwerkConfig::standard();

    // Baseline: plain area-driven placement.
    let plain = GlobalPlacer::new(config.clone()).try_place(&netlist)?;
    let plain_delay = sta.analyze(&plain.placement).max_delay;
    let bound = sta.lower_bound();
    println!("zero-wire lower bound: {bound:.2} ns");
    println!(
        "area-driven:   delay {plain_delay:.2} ns, hpwl {:.0}",
        metrics::hpwl(&netlist, &plain.placement)
    );

    // Flow 1: timing optimization (iterative net weighting).
    let optimized = optimize_timing(&netlist, model, config.clone())?;
    let opt_delay = sta.analyze(&optimized.placement).max_delay;
    let exploitation = (plain_delay - opt_delay) / (plain_delay - bound);
    println!(
        "timing-driven: delay {opt_delay:.2} ns, hpwl {:.0} — exploited {:.0}% of the optimization potential",
        metrics::hpwl(&netlist, &optimized.placement),
        exploitation * 100.0,
    );

    // Flow 2: meet a requirement halfway between the two, and show the
    // recorded trade-off curve.
    let requirement = 0.5 * (plain_delay + opt_delay);
    let met = meet_requirements(&netlist, model, config, requirement, 60)?;
    println!(
        "\nmeet {requirement:.2} ns: met = {} after {} extra transformations",
        met.met,
        met.curve.len() - 1
    );
    println!("timing/area trade-off curve (paper: 'which timing can be achieved at which area cost'):");
    for point in met.curve.iter().take(12) {
        println!(
            "  step {:2}: delay {:7.2} ns   hpwl {:9.0}",
            point.iteration, point.max_delay, point.hpwl
        );
    }
    Ok(())
}
