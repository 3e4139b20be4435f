//! Determinism matrix: the data-parallel runtime must produce bitwise
//! identical placements at every thread count.
//!
//! The `kraftwerk-par` chunking is fixed by input size — never by thread
//! count — and reductions combine partials in index order, so floating
//! point association is the same no matter how many workers execute the
//! chunks. This test drives a netlist large enough to engage every
//! parallel path (SpMV row chunks and density deposits both split at 2048
//! elements, and the Poisson V-cycle fans out from 513 vertices per side)
//! through the full transformation loop under 1, 2, and 8 worker threads
//! and compares the results bit for bit.

use std::sync::Arc;

use kraftwerk::legalize::legalize;
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::{Netlist, Placement};
use kraftwerk::placer::{IterationStats, KraftwerkConfig, PlacementSession};
use kraftwerk::trace::{install_scoped, RunRecorder};

/// Enough cells that the SpMV row loop (one row per movable cell) and the
/// density deposit (one rect per cell) both exceed their 2048-element
/// chunk size and actually fan out, and that standard mode's density map
/// (121 bins or more) solves on a 513-vertex Poisson grid, whose V-cycle
/// passes fan out inside the field/assembly join.
fn matrix_netlist() -> Netlist {
    generate(&SynthConfig::with_size("det-matrix", 3800, 4700, 29))
}

/// Runs `f` under a trace recorder scoped to this thread (and the join
/// branches it hands off) and returns its result with the largest Poisson
/// grid, in vertices per side, that the `multigrid` convergence records
/// report.
fn with_largest_poisson_grid<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let recorder = Arc::new(RunRecorder::new());
    let guard = install_scoped(recorder.clone());
    let out = f();
    drop(guard);
    let largest = recorder
        .report()
        .convergence
        .iter()
        .filter(|c| c.solver == "multigrid")
        .filter_map(|c| c.get("vertices_per_side")?.as_u64())
        .max()
        .unwrap_or(0);
    (out, largest)
}

fn run_with_threads(nl: &Netlist, threads: usize) -> (Placement, Vec<IterationStats>) {
    kraftwerk::par::set_threads(threads);
    let mut session = PlacementSession::new(nl, KraftwerkConfig::standard());
    let stats = (0..6)
        .map(|_| session.try_transform().expect("transformation"))
        .collect();
    (session.placement().clone(), stats)
}

#[test]
fn placement_is_bitwise_identical_at_every_thread_count() {
    let nl = matrix_netlist();
    let (p1, s1) = run_with_threads(&nl, 1);
    let ((p2, s2), largest_grid) = with_largest_poisson_grid(|| run_with_threads(&nl, 2));
    let (p8, s8) = run_with_threads(&nl, 8);
    kraftwerk::par::set_threads(0);
    assert!(
        largest_grid >= 513,
        "premise: the Poisson grid must fan out (m = {largest_grid}, fans out from 513)"
    );
    assert_eq!(s1, s2, "1 vs 2 threads: iteration stats differ");
    assert_eq!(s1, s8, "1 vs 8 threads: iteration stats differ");
    assert_eq!(p1, p2, "1 vs 2 threads: placements differ");
    assert_eq!(p1, p8, "1 vs 8 threads: placements differ");
}

fn run_degraded_with_threads(nl: &Netlist, threads: usize) -> (Placement, Vec<IterationStats>) {
    kraftwerk::par::set_threads(threads);
    let mut config = KraftwerkConfig::standard();
    // Persistent fault injection: every transformation diverges, the
    // watchdog trips, rolls back, and finally returns the checkpointed
    // best (see tests/robustness.rs). The whole trip/rollback/give-up
    // sequence must be as deterministic as the healthy path.
    config.force_scale_boost = 40.0;
    let result = kraftwerk::placer::GlobalPlacer::new(config)
        .try_place(nl)
        .expect("degraded run returns the checkpoint");
    assert!(result.health.recoveries >= 1, "fault injection must trip");
    (result.placement, result.stats)
}

#[test]
fn watchdog_tripping_run_is_bitwise_identical_at_every_thread_count() {
    let nl = matrix_netlist();
    let (p1, s1) = run_degraded_with_threads(&nl, 1);
    let (p2, s2) = run_degraded_with_threads(&nl, 2);
    let (p8, s8) = run_degraded_with_threads(&nl, 8);
    kraftwerk::par::set_threads(0);
    assert_eq!(s1, s2, "1 vs 2 threads: degraded-run stats differ");
    assert_eq!(s1, s8, "1 vs 8 threads: degraded-run stats differ");
    assert_eq!(p1, p2, "1 vs 2 threads: degraded placements differ");
    assert_eq!(p1, p8, "1 vs 8 threads: degraded placements differ");
}

fn run_multilevel_with_threads(nl: &Netlist, threads: usize) -> (Placement, Vec<IterationStats>) {
    kraftwerk::par::set_threads(threads);
    // A low coarsening threshold forces a real hierarchy (several
    // cluster/expand levels) even on this test-sized netlist; the default
    // multilevel config selects the bound-to-bound net model.
    let ml = kraftwerk::placer::MultilevelConfig {
        coarsest_movable: 400,
        ..kraftwerk::placer::MultilevelConfig::default()
    };
    let result = kraftwerk::placer::try_place_multilevel(nl, KraftwerkConfig::fast(), &ml)
        .expect("multilevel run places");
    (result.placement, result.stats)
}

/// The multilevel V-cycle composes clustering (sequential), per-level
/// B2B assemblies (extreme-pin scans with fixed tie-breaks) and the
/// shared transformation loop — every stage must stay bitwise identical
/// across worker counts for the flow to be reproducible.
#[test]
fn multilevel_b2b_placement_is_bitwise_identical_at_every_thread_count() {
    let nl = matrix_netlist();
    let (p1, s1) = run_multilevel_with_threads(&nl, 1);
    let (p2, s2) = run_multilevel_with_threads(&nl, 2);
    let (p8, s8) = run_multilevel_with_threads(&nl, 8);
    kraftwerk::par::set_threads(0);
    assert_eq!(s1, s2, "1 vs 2 threads: multilevel iteration stats differ");
    assert_eq!(s1, s8, "1 vs 8 threads: multilevel iteration stats differ");
    assert_eq!(p1, p2, "1 vs 2 threads: multilevel placements differ");
    assert_eq!(p1, p8, "1 vs 8 threads: multilevel placements differ");
}

#[test]
fn legalization_is_bitwise_identical_at_every_thread_count() {
    let nl = matrix_netlist();
    kraftwerk::par::set_threads(1);
    let one = legalize(&nl, &nl.initial_placement()).expect("row capacity");
    kraftwerk::par::set_threads(8);
    let eight = legalize(&nl, &nl.initial_placement()).expect("row capacity");
    kraftwerk::par::set_threads(0);
    assert_eq!(one, eight, "1 vs 8 threads: legalizations differ");
}
