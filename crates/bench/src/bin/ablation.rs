//! **Ablations A1–A3, A6 and A8** (DESIGN.md §4) — the design choices the
//! paper leaves implicit, measured.
//!
//! * A1 `--solvers` — direct superposition vs multigrid Poisson solve:
//!   field accuracy (vs the exact reference) and runtime per grid size.
//! * A2 `--models` — clique vs star vs hybrid net models, and GORDIAN-L
//!   linearization on/off, measured end to end on legalized wire length.
//! * A3 `--maps` — congestion- and heat-driven placement vs plain mode:
//!   overflow / peak temperature / wire-length trade-off.
//! * A6 `--detail` — the detailed-placement ladder (Abacus, refinement,
//!   Hungarian window assignment).
//! * A8 `--multilevel` — clustered placement vs flat placement.
//!
//! With no flag, all five run.
//!
//! ```sh
//! cargo run --release -p kraftwerk-bench --bin ablation
//! ```

use kraftwerk_bench::run_kraftwerk;
use kraftwerk_congestion::{congestion_map, demand_for_session, peak, routing_demand_map, thermal_map, total_overflow};
use kraftwerk_core::{KraftwerkConfig, NetModel, PlacementSession};
use kraftwerk_field::{density_map, DirectSolver, MultigridSolver};
use kraftwerk_netlist::synth::{generate, SynthConfig};
use kraftwerk_netlist::metrics;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let all = args.len() <= 1;
    if all || args.iter().any(|a| a == "--solvers") {
        solvers();
    }
    if all || args.iter().any(|a| a == "--models") {
        models();
    }
    if all || args.iter().any(|a| a == "--maps") {
        maps();
    }
    if all || args.iter().any(|a| a == "--detail") {
        detail();
    }
    if all || args.iter().any(|a| a == "--multilevel") {
        multilevel();
    }
}

/// A8: multilevel (clustered) placement — the paper's "larger netlists
/// in less time" extension.
fn multilevel() {
    use kraftwerk_core::{try_place_multilevel, GlobalPlacer, MultilevelConfig};
    use kraftwerk_legalize::detail_place;
    let console = kraftwerk_bench::console();
    console.info("A8: multilevel placement (cluster -> place coarse -> expand -> refine)");
    let nl = generate(&SynthConfig::with_size("ablation_ml", 6000, 7200, 40));
    let finish = |p: &kraftwerk_netlist::Placement| {
        metrics::hpwl(&nl, &detail_place(&nl, p).expect("legalizable"))
    };
    let t0 = std::time::Instant::now();
    let flat = GlobalPlacer::new(KraftwerkConfig::standard())
        .try_place(&nl)
        .expect("placement");
    let t_flat = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let ml = try_place_multilevel(
        &nl,
        KraftwerkConfig::standard(),
        &MultilevelConfig {
            coarsest_movable: 1500,
            ..MultilevelConfig::default()
        },
    )
    .expect("multilevel placement");
    let t_ml = t0.elapsed().as_secs_f64();
    let (flat_wire, ml_wire) = (finish(&flat.placement), finish(&ml.placement));
    console.info(format!("  flat:       wire {flat_wire:>10.0}  {t_flat:>6.1} s"));
    console.info(format!(
        "  multilevel: wire {ml_wire:>10.0}  {t_ml:>6.1} s  ({:+.1}% wire, {:.2}x speed)",
        100.0 * (ml_wire - flat_wire) / flat_wire,
        t_flat / t_ml
    ));
    console.info("");
}

/// A6: the detailed-placement ladder — what each stage after global
/// placement recovers.
fn detail() {
    use kraftwerk_legalize::{legalize, optimize_windows, refine};
    use kraftwerk_netlist::metrics;
    let console = kraftwerk_bench::console();
    console.info("A6: detailed placement ladder (HPWL after each stage)");
    let nl = generate(&SynthConfig::with_size("ablation_detail", 3000, 3600, 28));
    let global = kraftwerk_core::GlobalPlacer::new(KraftwerkConfig::standard())
        .try_place(&nl)
        .expect("placement")
        .placement;
    console.info(format!("  global:          {:>10.0}", metrics::hpwl(&nl, &global)));
    let mut p = legalize(&nl, &global).expect("legalizable");
    console.info(format!(
        "  abacus:          {:>10.0}  (displacement {:>9.0})",
        metrics::hpwl(&nl, &p),
        global.total_displacement(&p)
    ));
    refine(&nl, &mut p, 2);
    console.info(format!("  + refine:        {:>10.0}", metrics::hpwl(&nl, &p)));
    let gain = optimize_windows(&nl, &mut p, 6);
    console.info(format!("  + windows:       {:>10.0}  (window pass gained {gain:.0})", metrics::hpwl(&nl, &p)));
    refine(&nl, &mut p, 1);
    console.info(format!("  + refine again:  {:>10.0}", metrics::hpwl(&nl, &p)));
    console.info("");
}

/// A1: field solver accuracy and speed.
fn solvers() {
    let console = kraftwerk_bench::console();
    console.info("A1: force-field solvers — multigrid vs direct superposition");
    console.info(format!(
        "{:>6} | {:>12} {:>12} | {:>9} {:>9}",
        "grid", "direct [ms]", "mgrid [ms]", "rel.err", "cosine"
    ));
    let nl = generate(&SynthConfig::with_size("ablation_field", 2000, 2400, 20));
    let placement = {
        // A mid-flight placement: half spread.
        let mut s = PlacementSession::new(&nl, KraftwerkConfig::standard());
        for _ in 0..6 {
            s.try_transform().expect("transformation");
        }
        s.placement().clone()
    };
    for bins in [16usize, 32, 48, 64, 96] {
        let ny = (bins / 4).max(8);
        let density = density_map(&nl, &placement, bins, ny);
        let t0 = std::time::Instant::now();
        let exact = DirectSolver::new().solve(&density);
        let t_direct = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = std::time::Instant::now();
        let fast = MultigridSolver::new().solve(&density);
        let t_mg = t0.elapsed().as_secs_f64() * 1e3;
        let mut err = 0.0;
        let mut base = 0.0;
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nb = 0.0;
        for iy in 1..ny - 1 {
            for ix in 1..bins - 1 {
                let c = density.bin_center(ix, iy);
                let a = fast.force_at(c);
                let b = exact.force_at(c);
                err += (a - b).norm_sq();
                base += b.norm_sq();
                dot += a.dot(b);
                na += a.norm_sq();
                nb += b.norm_sq();
            }
        }
        console.info(format!(
            "{:>6} | {:>12.2} {:>12.2} | {:>9.3} {:>9.4}",
            format!("{bins}x{ny}"),
            t_direct,
            t_mg,
            (err / base).sqrt(),
            dot / (na.sqrt() * nb.sqrt()),
        ));
    }
    console.info("");
}

/// A2: net model and linearization choices, end to end.
fn models() {
    let console = kraftwerk_bench::console();
    console.info("A2: net model / linearization ablation (legalized wire length, CPU)");
    console.info(format!("{:<26} | {:>10} {:>8}", "variant", "wire [m]", "CPU [s]"));
    let nl = generate(&SynthConfig::with_size("ablation_model", 3000, 3600, 28));
    let variants: Vec<(&str, KraftwerkConfig)> = vec![
        ("hybrid + linearization", KraftwerkConfig::standard()),
        (
            "clique + linearization",
            KraftwerkConfig::standard().with_net_model(NetModel::Clique),
        ),
        (
            "star + linearization",
            KraftwerkConfig::standard().with_net_model(NetModel::Star),
        ),
        (
            "hybrid, quadratic",
            KraftwerkConfig {
                linearization: false,
                ..KraftwerkConfig::standard()
            },
        ),
    ];
    for (label, cfg) in variants {
        let run = run_kraftwerk(&nl, cfg);
        console.info(format!(
            "{:<26} | {:>10.4} {:>8.1}{}",
            label,
            run.wirelength_m,
            run.seconds,
            if run.legal { "" } else { "  (ILLEGAL)" }
        ));
    }
    console.info("");
}

/// A3: congestion- and heat-driven modes.
fn maps() {
    let console = kraftwerk_bench::console();
    console.info("A3: congestion- and heat-driven placement (section 5 modes)");
    let base = generate(&SynthConfig::with_size("ablation_maps", 2000, 2400, 20));
    let n = base.num_movable();
    // A hot cluster so the heat map is not just the cell density.
    let nl = base.with_powers(|id, cell| {
        if (n / 3..n / 3 + n / 10).contains(&id.index()) {
            cell.power() * 25.0
        } else {
            cell.power()
        }
    });
    let cfg = KraftwerkConfig::standard();
    let (nx, ny) = PlacementSession::new(&nl, cfg.clone()).grid_dims();

    let plain = run_kraftwerk(&nl, cfg.clone());
    let tracks = 0.6 * routing_demand_map(&nl, &plain.placement, nx, ny).max();
    let plain_overflow = total_overflow(&congestion_map(&nl, &plain.placement, nx, ny, tracks));
    let plain_peak = peak(&thermal_map(&nl, &plain.placement, nx, ny));
    console.info(format!(
        "{:<18} | wire {:>8.4} m | overflow {:>9.0} | peak temp {:>6.2}",
        "plain", plain.wirelength_m, plain_overflow, plain_peak
    ));

    for (label, heat) in [("congestion-driven", false), ("heat-driven", true)] {
        let mut session = PlacementSession::new(&nl, cfg.clone());
        for _ in 0..cfg.max_transformations {
            let map = if heat {
                thermal_map(&nl, session.placement(), nx, ny)
            } else {
                congestion_map(&nl, session.placement(), nx, ny, tracks)
            };
            session
                .set_demand_map(demand_for_session(&map), if heat { 0.8 } else { 2.5 })
                .expect("map uses grid_dims");
            session.try_transform().expect("transformation");
            if session.is_converged() {
                break;
            }
        }
        let p = session.placement();
        let overflow = total_overflow(&congestion_map(&nl, p, nx, ny, tracks));
        let peak_t = peak(&thermal_map(&nl, p, nx, ny));
        console.info(format!(
            "{:<18} | wire {:>8.4} m | overflow {:>9.0} | peak temp {:>6.2}",
            label,
            metrics::hpwl(&nl, p) * kraftwerk_bench::UNITS_TO_METERS,
            overflow,
            peak_t
        ));
    }
    console.info("");
}
