//! Criterion bench: the two Poisson force-field solvers across grid
//! sizes (supports ablation A1 and the CPU columns of Table 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kraftwerk_field::{density_map, DirectSolver, MultigridSolver};
use kraftwerk_netlist::synth::{generate, SynthConfig};

fn bench_solvers(c: &mut Criterion) {
    let nl = generate(&SynthConfig::with_size("bench_field", 2000, 2400, 20));
    let placement = nl.initial_placement();
    let mut group = c.benchmark_group("field_solvers");
    group.sample_size(10);
    for bins in [16usize, 32, 64] {
        let density = density_map(&nl, &placement, bins, (bins / 4).max(8));
        group.bench_with_input(BenchmarkId::new("direct", bins), &density, |b, d| {
            b.iter(|| DirectSolver::new().solve(d))
        });
        group.bench_with_input(BenchmarkId::new("multigrid", bins), &density, |b, d| {
            b.iter(|| MultigridSolver::new().solve(d))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
