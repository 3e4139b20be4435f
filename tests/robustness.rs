//! Adversarial-input and watchdog-recovery tests.
//!
//! The library must be panic-free on any input: hostile netlists are
//! rejected at the validation boundary with a typed [`KraftwerkError`],
//! and numerically diverging runs are caught by the session watchdog,
//! rolled back to the best-so-far checkpoint, and either recovered or
//! returned degraded — never a crash, never a garbage placement.

use kraftwerk::field::ScalarMap;
use kraftwerk::netlist::synth::{generate, SynthConfig};
use kraftwerk::netlist::{
    metrics, Netlist, NetlistBuilder, PinDirection, ValidationIssue, MAX_NET_DEGREE,
};
use kraftwerk::placer::{
    try_place_multilevel, GlobalPlacer, KraftwerkConfig, KraftwerkError, MultilevelConfig,
    PlaceResult, PlacementSession, WatchdogConfig,
};
use kraftwerk::sparse::SolverError;
use kraftwerk::trace::{self, RunRecorder, Value};
use kraftwerk_geom::{Point, Rect, Size, Vector};
use std::sync::Arc;

fn placer() -> GlobalPlacer {
    GlobalPlacer::new(KraftwerkConfig::standard())
}

/// Both global-placement front doors, flat and multilevel, on the same
/// input: each must validate before it places.
fn both_front_doors(nl: &Netlist) -> [Result<PlaceResult, KraftwerkError>; 2] {
    let config = KraftwerkConfig::standard();
    [
        GlobalPlacer::new(config.clone()).try_place(nl),
        try_place_multilevel(nl, config, &MultilevelConfig::default()),
    ]
}

/// Every coordinate of every movable cell is finite and inside the
/// (slightly inflated) core.
fn assert_placement_sane(nl: &Netlist, result: &PlaceResult) {
    let core = nl.core_region().inflate(1.0);
    for (id, cell) in nl.movable_cells() {
        let p = result.placement.position(id);
        assert!(
            p.x.is_finite() && p.y.is_finite(),
            "cell `{}` has non-finite position",
            cell.name()
        );
        assert!(
            core.contains(p),
            "cell `{}` at ({}, {}) escaped the core",
            cell.name(),
            p.x,
            p.y
        );
    }
}

#[test]
fn single_cell_netlist_places_cleanly() {
    let mut b = NetlistBuilder::new();
    b.core_region(Rect::new(0.0, 0.0, 100.0, 100.0));
    b.add_cell("only", Size::new(4.0, 8.0));
    let nl = b.build().expect("single-cell netlist builds");
    let result = placer().try_place(&nl).expect("single cell places");
    assert!(result.health.is_clean());
    assert_placement_sane(&nl, &result);
}

#[test]
fn all_fixed_netlist_returns_converged() {
    let mut b = NetlistBuilder::new();
    b.core_region(Rect::new(0.0, 0.0, 100.0, 100.0));
    let a = b.add_fixed_cell("a", Size::new(4.0, 8.0), Point::new(10.0, 10.0));
    let c = b.add_fixed_cell("c", Size::new(4.0, 8.0), Point::new(90.0, 90.0));
    b.add_net("n", [(a, PinDirection::Output), (c, PinDirection::Input)]);
    let nl = b.build().expect("all-fixed netlist builds");
    let result = placer().try_place(&nl).expect("nothing to move");
    assert!(result.converged);
    assert!(result.health.is_clean());
    assert_eq!(result.stats.len(), 0);
}

#[test]
fn zero_area_core_is_rejected_without_panic() {
    let mut b = NetlistBuilder::new();
    b.core_region(Rect::new(50.0, 20.0, 50.0, 80.0)); // zero width
    let a = b.add_cell("a", Size::new(4.0, 8.0));
    let c = b.add_cell("c", Size::new(4.0, 8.0));
    b.add_net("n", [(a, PinDirection::Output), (c, PinDirection::Input)]);
    let nl = b.build().expect("builder does not police core area");
    for result in both_front_doors(&nl) {
        let err = result.expect_err("validation must reject");
        let KraftwerkError::Validation(v) = &err else {
            panic!("expected Validation, got {err:?}");
        };
        assert!(v
            .issues
            .iter()
            .any(|i| matches!(i, ValidationIssue::ZeroAreaCore { .. })));
        assert_eq!(err.exit_code(), 5);
    }
}

#[test]
fn nan_pin_offset_is_rejected_without_panic() {
    let mut b = NetlistBuilder::new();
    b.core_region(Rect::new(0.0, 0.0, 100.0, 100.0));
    let a = b.add_cell("a", Size::new(4.0, 8.0));
    let c = b.add_cell("c", Size::new(4.0, 8.0));
    b.add_weighted_net(
        "poison",
        1.0,
        [
            (a, Vector::new(f64::NAN, 0.0), PinDirection::Output),
            (c, Vector::ZERO, PinDirection::Input),
        ],
    );
    let nl = b.build().expect("builder does not police pin offsets");
    for result in both_front_doors(&nl) {
        let err = result.expect_err("validation must reject");
        assert_eq!(err.stage(), "validation");
        assert_eq!(err.exit_code(), 5);
        assert!(err.to_string().contains("non-finite pin offset"));
    }
}

#[test]
fn clique_net_above_degree_cap_is_rejected() {
    let mut b = NetlistBuilder::new();
    b.core_region(Rect::new(0.0, 0.0, 100.0, 100.0));
    let a = b.add_cell("a", Size::new(4.0, 8.0));
    let c = b.add_cell("c", Size::new(4.0, 8.0));
    let net = b.add_net("reset", [(a, PinDirection::Output), (c, PinDirection::Input)]);
    for _ in 0..MAX_NET_DEGREE {
        b.add_pin_to_net(net, a, PinDirection::Input);
    }
    let nl = b.build().expect("builder does not cap net degree");
    let err = placer().try_place(&nl).expect_err("validation must reject");
    let KraftwerkError::Validation(v) = &err else {
        panic!("expected Validation, got {err:?}");
    };
    assert!(v
        .issues
        .iter()
        .any(|i| matches!(i, ValidationIssue::NetDegreeOverflow { .. })));
}

#[test]
fn wrong_size_demand_map_is_rejected_without_panic() {
    let nl = generate(&SynthConfig::with_size("demand-size", 150, 200, 6));
    let mut session = PlacementSession::new(&nl, KraftwerkConfig::standard());
    let (nx, ny) = session.grid_dims();
    let wide = ScalarMap::zeros(nl.core_region(), nx + 1, ny);
    let err = session.set_demand_map(wide, 1.0).expect_err("a wider map must be rejected");
    assert_eq!(
        err,
        KraftwerkError::Solver(SolverError::DimensionMismatch {
            what: "demand map nx",
            expected: nx,
            got: nx + 1,
        })
    );
    let short = ScalarMap::zeros(nl.core_region(), nx, ny - 1);
    assert!(session.set_demand_map(short, 1.0).is_err());
    // Neither map was stored, so the next transformation runs cleanly.
    session.try_transform().expect("transformation after rejected maps");
    assert!(session.health_snapshot().is_clean());
}

#[test]
fn ten_thousand_pin_net_places_without_panic() {
    // Below the degree cap a pathological high-fanout net must still go
    // through (the hybrid net model decomposes it as a star).
    let mut b = NetlistBuilder::new();
    b.core_region(Rect::new(0.0, 0.0, 400.0, 400.0));
    let cells: Vec<_> = (0..200)
        .map(|i| b.add_cell(format!("c{i}"), Size::new(4.0, 8.0)))
        .collect();
    let net = b.add_net(
        "fanout",
        [
            (cells[0], PinDirection::Output),
            (cells[1], PinDirection::Input),
        ],
    );
    for i in 0..10_000 {
        b.add_pin_to_net(net, cells[i % 200], PinDirection::Input);
    }
    let nl = b.build().expect("high-fanout netlist builds");
    let result = placer().try_place(&nl).expect("fanout net places");
    assert_placement_sane(&nl, &result);
}

#[test]
fn watchdog_trip_rolls_back_to_best_so_far() {
    let nl = generate(&SynthConfig::with_size("wd-trip", 150, 200, 6));
    // Exhaust the recovery budget so the trip is fatal: the session must
    // end up sitting on its checkpoint, not on the diverged placement.
    let mut fatal = KraftwerkConfig::standard();
    fatal.watchdog = WatchdogConfig {
        max_recoveries: 0,
        ..fatal.watchdog
    };
    let mut session = PlacementSession::new(&nl, fatal);
    // Record every healthy state: the checkpoint is the density-best of
    // these, so the rollback must land bitwise on one of them.
    let mut seen = Vec::new();
    for _ in 0..3 {
        session.try_transform().expect("healthy transformations");
        seen.push((session.iteration(), session.placement().clone()));
    }
    assert!(
        session.health_snapshot().is_clean(),
        "healthy run must not trip"
    );
    session.inject_force_scale_boost(500.0);
    let err = session.try_transform().expect_err("boosted step must trip");
    assert!(matches!(err, KraftwerkError::Diverged { .. }));
    assert_eq!(err.exit_code(), 6);
    let health = session.health_snapshot();
    assert!(health.trips >= 1);
    assert_eq!(health.recoveries, 0);
    let restored = seen
        .iter()
        .find(|(it, _)| *it == session.iteration())
        .expect("rollback must rewind to a previously accepted iteration");
    assert_eq!(
        &restored.1,
        session.placement(),
        "rollback must restore the checkpointed placement bitwise"
    );
    let rolled_hpwl = metrics::hpwl(&nl, session.placement());
    assert!(rolled_hpwl.is_finite());
}

#[test]
fn watchdog_recovers_from_one_shot_divergence() {
    let nl = generate(&SynthConfig::with_size("wd-recover", 150, 200, 6));
    let mut session = PlacementSession::new(&nl, KraftwerkConfig::standard());
    for _ in 0..2 {
        session.try_transform().expect("healthy transformations");
    }
    // One-shot fault: the injected boost is consumed by the diverging
    // attempt, so the rollback retry runs unperturbed and succeeds.
    session.inject_force_scale_boost(500.0);
    let stats = session.try_transform().expect("retry after rollback");
    assert!(stats.hpwl.is_finite());
    let health = session.health_snapshot();
    assert!(health.trips >= 1, "the boosted attempt must trip");
    assert!(health.recoveries >= 1, "the retry must be a recovery");
    assert!(!health.degraded);
}

#[test]
fn cg_stall_streak_doubles_the_cg_budget_and_recovers() {
    // Standard mode spends about 11 DILU-preconditioned CG iterations per
    // axis on this netlist, so an 8-iteration budget stalls every solve
    // until the watchdog's CG-stall rung doubles it.
    let nl = generate(&SynthConfig::with_size("wd-stall", 150, 200, 6));
    let mut config = KraftwerkConfig::standard();
    config.cg.max_iterations = 8;
    config.watchdog.cg_stall_streak = 2;
    let recorder = Arc::new(RunRecorder::new());
    let result = {
        let _guard = trace::install_scoped(recorder.clone());
        GlobalPlacer::new(config).try_place(&nl).expect("a stalled run recovers")
    };
    assert_eq!(result.health.trips, 1);
    assert_eq!(result.health.recoveries, 1);
    assert!(!result.health.degraded);
    let last = result.stats.last().expect("transformations ran");
    assert!(last.cg_converged, "the doubled budget must let CG converge");
    // Over 8 iterations on one axis needs the raised budget; 16 per axis
    // is its cap.
    assert!(result.stats.iter().any(|s| s.cg_iterations > 2 * 8));
    assert!(result.stats.iter().all(|s| s.cg_iterations <= 2 * 16));
    let timeline = recorder.report().timeline;
    assert_eq!(timeline.len(), 1, "{timeline:?}");
    assert_eq!(timeline[0].get("reason").and_then(Value::as_str), Some("cg stall streak"));
    assert_eq!(timeline[0].get("action").and_then(Value::as_str), Some("rollback"));
}

#[test]
fn forced_divergence_run_returns_checkpointed_best() {
    // Persistent fault injection: every retry diverges again, the budget
    // runs out, and the run must still return the checkpointed best.
    let nl = generate(&SynthConfig::with_size("wd-degraded", 150, 200, 6));
    let mut config = KraftwerkConfig::standard();
    config.force_scale_boost = 40.0;
    let result = GlobalPlacer::new(config)
        .try_place(&nl)
        .expect("degraded run still returns the checkpoint");
    assert!(result.health.recoveries >= 1);
    assert!(result.health.degraded);
    assert!(result.health.trips > result.health.recoveries);
    assert_placement_sane(&nl, &result);
}

#[test]
fn disabled_watchdog_still_returns_finite_placements() {
    let nl = generate(&SynthConfig::with_size("wd-off", 100, 130, 6));
    let mut config = KraftwerkConfig::standard();
    config.watchdog.enabled = false;
    let result = GlobalPlacer::new(config).try_place(&nl).expect("healthy");
    assert!(result.health.is_clean());
    assert_placement_sane(&nl, &result);
}

#[test]
fn expired_wall_clock_budget_marks_budget_exhausted() {
    let nl = generate(&SynthConfig::with_size("wd-budget", 150, 200, 6));
    let mut config = KraftwerkConfig::standard();
    config.watchdog.wall_clock_budget = Some(0.0);
    let result = GlobalPlacer::new(config).try_place(&nl).expect("budgeted run returns");
    assert!(result.health.budget_exhausted, "zero budget must cut the run short");
    assert_eq!(result.iterations(), 0, "no transformation fits a zero budget");
    assert_eq!(
        result.health.remaining_budget_ms,
        Some(0),
        "an exhausted budget reports zero remaining"
    );
    assert_placement_sane(&nl, &result);
}

#[test]
fn explicit_deadline_takes_precedence_over_budget() {
    let nl = generate(&SynthConfig::with_size("wd-deadline", 120, 150, 6));
    let mut config = KraftwerkConfig::standard();
    // A generous relative budget, but an already-expired absolute
    // deadline: the deadline must win.
    config.watchdog.wall_clock_budget = Some(1e9);
    config.watchdog.deadline = Some(std::time::Instant::now());
    let result = GlobalPlacer::new(config).try_place(&nl).expect("deadlined run returns");
    assert!(result.health.budget_exhausted);
    assert_eq!(result.iterations(), 0);
}

#[test]
fn budget_free_runs_report_no_remaining_budget() {
    let nl = generate(&SynthConfig::with_size("wd-nobudget", 100, 130, 6));
    let result = placer().try_place(&nl).expect("healthy");
    assert_eq!(
        result.health.remaining_budget_ms, None,
        "runs without a budget must stay bitwise comparable"
    );
}

#[test]
fn budget_exhausted_survives_multilevel_health_merge() {
    // Big enough to build a real hierarchy (>= 2 levels) with a small
    // coarsest tier, so the merged health crosses several level sessions.
    let nl = generate(&SynthConfig::with_size("wd-ml-budget", 2000, 2600, 7));
    let ml = MultilevelConfig {
        coarsest_movable: 250,
        ..MultilevelConfig::default()
    };
    let mut config = KraftwerkConfig::fast();
    config.watchdog.deadline = Some(std::time::Instant::now());
    let result =
        try_place_multilevel(&nl, config, &ml).expect("expired deadline still yields a placement");
    assert!(
        result.health.budget_exhausted,
        "budget_exhausted must survive the cross-level health merge"
    );
    assert_eq!(result.health.remaining_budget_ms, Some(0));
    assert_placement_sane(&nl, &result);
}

#[test]
fn nonsense_budget_expires_instead_of_running_unbounded() {
    for bad in [f64::NAN, f64::NEG_INFINITY, -5.0] {
        let wd = WatchdogConfig {
            wall_clock_budget: Some(bad),
            ..WatchdogConfig::default()
        };
        let deadline = wd.resolve_deadline().expect("budget present resolves");
        assert!(
            deadline <= std::time::Instant::now(),
            "a nonsense budget ({bad}) must resolve to an expired deadline"
        );
    }
    assert!(WatchdogConfig::default().resolve_deadline().is_none());
}
