//! Criterion bench: DILU-preconditioned CG on real placement matrices
//! (the inner loop of every placement transformation), including the
//! factor refresh the session pays once per assembly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kraftwerk_core::{NetModel, QuadraticSystem};
use kraftwerk_netlist::synth::{generate, SynthConfig};
use kraftwerk_sparse::{try_solve_with, CgOptions, CgWorkspace, DiluFactor};

fn bench_cg(c: &mut Criterion) {
    let mut group = c.benchmark_group("linear_solver");
    group.sample_size(10);
    for cells in [1000usize, 4000] {
        let nl = generate(&SynthConfig::with_size("bench_cg", cells, cells * 12 / 10, 16));
        let sys = QuadraticSystem::new(&nl);
        let asm = sys.assemble(&nl, &nl.initial_placement(), None, NetModel::default(), None);
        let b: Vec<f64> = asm.dx.iter().map(|v| -v).collect();
        let opts = CgOptions {
            max_iterations: 500,
            rel_tolerance: 1e-6,
            abs_tolerance: 1e-12,
        };
        let mut ws = CgWorkspace::new();
        group.bench_with_input(BenchmarkId::new("dilu", cells), &cells, |bch, _| {
            bch.iter(|| {
                let factor = DiluFactor::from_matrix(&asm.cx);
                try_solve_with(&asm.cx, &b, None, &factor, &opts, &mut ws)
                    .expect("an assembled system is finite")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cg);
criterion_main!(benches);
