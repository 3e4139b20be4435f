//! Bookshelf interchange: export a placed design as a GSRC Bookshelf file
//! set (`.aux`/`.nodes`/`.nets`/`.pl`/`.scl`), read it back, and verify
//! the round trip — the path for exchanging designs with external
//! placement tools.
//!
//! ```sh
//! cargo run --release --example bookshelf_io
//! ```

use kraftwerk::legalize::legalize;
use kraftwerk::netlist::format::bookshelf;
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::metrics;
use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = generate(&SynthConfig::with_size("bookshelf_demo", 400, 500, 10));
    let global = GlobalPlacer::new(KraftwerkConfig::standard()).try_place(&netlist)?;
    let legal = legalize(&netlist, &global.placement)?;
    println!(
        "placed {}: hpwl {:.0}",
        netlist.name(),
        metrics::hpwl(&netlist, &legal)
    );

    // Export.
    let files = bookshelf::write(&netlist, Some(&legal));
    let dir = std::path::Path::new("bookshelf_demo");
    std::fs::create_dir_all(dir)?;
    for (ext, content) in &files {
        let path = dir.join(format!("{}.{ext}", netlist.name()));
        std::fs::write(&path, content)?;
        println!("wrote {} ({} bytes)", path.display(), content.len());
    }

    // Re-import and verify.
    let (back, placement) = bookshelf::read(&files)?;
    let placement = placement.expect("placement was exported");
    println!(
        "reimported: {} cells, {} nets, hpwl {:.0} (matches: {})",
        back.num_cells(),
        back.num_nets(),
        metrics::hpwl(&back, &placement),
        (metrics::hpwl(&back, &placement) - metrics::hpwl(&netlist, &legal)).abs() < 1.0,
    );
    Ok(())
}
