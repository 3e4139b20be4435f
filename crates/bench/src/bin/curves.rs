//! Exports the trajectories behind the paper's narrative as CSV files in
//! `bench_results/`:
//!
//! * `convergence_<circuit>.csv` — per-transformation wire length, peak
//!   density, and largest-empty-square area ("each iteration makes the
//!   distribution of the cells more even", section 4.2);
//! * `tradeoff_<circuit>.csv` — the timing/area trade-off curve of the
//!   meet-requirements flow ("which timing can be achieved at which area
//!   cost", section 5).
//!
//! ```sh
//! cargo run --release -p kraftwerk-bench --bin curves
//! ```

use kraftwerk_bench::write_csv;
use kraftwerk_core::{GlobalPlacer, KraftwerkConfig, PlacementSession};
use kraftwerk_netlist::synth::mcnc;
use kraftwerk_timing::{meet_requirements, DelayModel, Sta};

fn main() {
    let console = kraftwerk_bench::console();
    for name in ["primary1", "struct"] {
        let netlist = mcnc::by_name(name);

        // Convergence trajectory.
        let mut session = PlacementSession::new(&netlist, KraftwerkConfig::standard());
        let mut rows = Vec::new();
        while session.iteration() < KraftwerkConfig::standard().max_transformations {
            let stats = session.try_transform().expect("transformation");
            rows.push(vec![
                format!("{}", stats.iteration),
                format!("{:.1}", stats.hpwl),
                format!("{:.4}", stats.peak_density),
                format!("{:.1}", stats.empty_square_area),
                format!("{}", stats.cg_iterations),
            ]);
            if session.is_converged() || session.is_stalled() {
                break;
            }
        }
        let file = format!("convergence_{}.csv", name.replace('.', "_"));
        write_csv(&file, "iteration;hpwl;peak_density;empty_square;cg_iters", &rows);
        console.info(format!("{name}: {} transformations -> bench_results/{file}", rows.len()));

        // Timing/area trade-off curve.
        let model = DelayModel::default();
        let sta = Sta::new(&netlist, model).expect("synthetic circuits are acyclic");
        let base = GlobalPlacer::new(KraftwerkConfig::standard())
            .try_place(&netlist)
            .expect("placement");
        let base_delay = sta.analyze(&base.placement).max_delay;
        let result = meet_requirements(
            &netlist,
            model,
            KraftwerkConfig::standard(),
            base_delay * 0.85,
            40,
        )
        .expect("synthetic circuits are acyclic and place cleanly");
        let rows: Vec<Vec<String>> = result
            .curve
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.iteration),
                    format!("{:.4}", p.max_delay),
                    format!("{:.1}", p.hpwl),
                ]
            })
            .collect();
        let file = format!("tradeoff_{}.csv", name.replace('.', "_"));
        write_csv(&file, "step;delay_ns;hpwl", &rows);
        console.info(format!(
            "{name}: requirement {:.2} ns met = {} ({} points) -> bench_results/{file}",
            result.requirement,
            result.met,
            result.curve.len()
        ));
    }
}
