//! Timing-driven placement flows (section 5).

use crate::criticality::CriticalityTracker;
use crate::model::DelayModel;
use crate::sta::Sta;
use kraftwerk_core::{KraftwerkConfig, KraftwerkError, PlacementSession};
use kraftwerk_netlist::{metrics, Netlist, Placement};

/// Timing flows need per-transformation mobility: the net-weight pull
/// moves critical cells at most one displacement target per step, so with
/// very small `K` the contraction starves before the run converges. The
/// drivers therefore run with at least this `K`.
const MIN_TIMING_K: f64 = 0.2;

fn timing_config(mut config: KraftwerkConfig) -> KraftwerkConfig {
    config.k = config.k.max(MIN_TIMING_K);
    config
}

/// One recorded point of a timing/area trade-off curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// Placement transformation index the point was recorded after.
    pub iteration: usize,
    /// Half-perimeter wire length.
    pub hpwl: f64,
    /// Longest path delay in nanoseconds.
    pub max_delay: f64,
}

/// Result of [`optimize_timing`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimingDrivenResult {
    /// The final global placement.
    pub placement: Placement,
    /// Delay/wire-length trajectory, one point per transformation.
    pub history: Vec<TradeoffPoint>,
}

impl TimingDrivenResult {
    /// The last recorded longest-path delay.
    #[must_use]
    pub fn final_delay(&self) -> f64 {
        self.history.last().map_or(0.0, |p| p.max_delay)
    }
}

/// Result of [`meet_requirements`].
#[derive(Debug, Clone, PartialEq)]
pub struct MeetResult {
    /// The final global placement.
    pub placement: Placement,
    /// Whether the requirement was met.
    pub met: bool,
    /// The recorded timing/area trade-off curve (phase 2), starting from
    /// the area-optimized placement.
    pub curve: Vec<TradeoffPoint>,
    /// The delay requirement in nanoseconds.
    pub requirement: f64,
}

/// The timing-driven transformation loop of [`optimize_timing`] and
/// [`optimize_timing_legalized`]: before every transformation but the
/// first, analyze, update the net criticalities in `tracker` and feed the
/// weights into the quadratic system. The loop inherits the placer's
/// stopping criterion.
fn timing_loop(
    netlist: &Netlist,
    sta: &Sta<'_>,
    config: &KraftwerkConfig,
    tracker: &mut CriticalityTracker,
) -> Result<TimingDrivenResult, KraftwerkError> {
    netlist.validate()?;
    let mut session = PlacementSession::new(netlist, config.clone());
    let mut history = Vec::new();
    while session.iteration() < config.max_transformations {
        // Skip the weight update before the very first transformation:
        // the everything-at-the-center start has no meaningful wire
        // delays to rank nets by.
        if session.iteration() > 0 {
            session.set_extra_weights(tracker.update(&sta.analyze(session.placement())));
        }
        let stats = session.try_transform()?;
        history.push(TradeoffPoint {
            iteration: stats.iteration,
            hpwl: stats.hpwl,
            max_delay: sta.analyze(session.placement()).max_delay,
        });
        if session.is_converged() || session.is_stalled() {
            break;
        }
    }
    Ok(TimingDrivenResult {
        placement: session.placement().clone(),
        history,
    })
}

/// Timing *optimization* (section 5, "Timing Optimization"): before every
/// placement transformation, run a longest-path analysis, update net
/// criticalities and weights, and feed the weights into the quadratic
/// system. The iteration inherits the placer's stopping criterion.
///
/// # Errors
///
/// [`KraftwerkError::Timing`] when the netlist has a combinational loop,
/// [`KraftwerkError::Validation`] when it fails boundary validation, and
/// the session's errors when a transformation diverges beyond recovery.
pub fn optimize_timing(
    netlist: &Netlist,
    model: DelayModel,
    config: KraftwerkConfig,
) -> Result<TimingDrivenResult, KraftwerkError> {
    let sta = Sta::new(netlist, model)?;
    let mut tracker = CriticalityTracker::new(netlist.num_nets());
    timing_loop(netlist, &sta, &timing_config(config), &mut tracker)
}

/// Timing optimization measured where it counts: on *legal* placements.
/// Runs [`optimize_timing`], detail-places
/// ([`kraftwerk_legalize::detail_place`]), then applies `rounds` outer
/// iterations of analyze-on-legal → reweight → incremental re-place →
/// detail-place again, returning the best legal placement seen. The net
/// criticalities carry over from the global flow into these rounds. This
/// closes the gap between global-placement timing (which can stack
/// critical cells) and realizable row placements; Tables 3 and 4 use this
/// flow.
///
/// # Errors
///
/// Everything [`optimize_timing`] returns, and
/// [`KraftwerkError::Legalize`] when the netlist cannot be legalized (no
/// rows, no capacity).
pub fn optimize_timing_legalized(
    netlist: &Netlist,
    model: DelayModel,
    config: KraftwerkConfig,
    rounds: usize,
) -> Result<TimingDrivenResult, KraftwerkError> {
    use kraftwerk_legalize::detail_place;
    let sta = Sta::new(netlist, model)?;
    let config = timing_config(config);
    let mut tracker = CriticalityTracker::new(netlist.num_nets());
    let global = timing_loop(netlist, &sta, &config, &mut tracker)?;
    let mut history = global.history;
    let mut best = detail_place(netlist, &global.placement)?;
    let mut best_delay = sta.analyze(&best).max_delay;
    history.push(TradeoffPoint {
        iteration: history.len() + 1,
        hpwl: metrics::hpwl(netlist, &best),
        max_delay: best_delay,
    });
    for _ in 0..rounds {
        let report = sta.analyze(&best);
        let weights = tracker.update(&report);
        let mut eco = PlacementSession::resume(netlist, config.clone(), best.clone());
        eco.set_extra_weights(weights);
        for _ in 0..8 {
            eco.try_transform()?;
        }
        let legal = detail_place(netlist, eco.placement())?;
        let delay = sta.analyze(&legal).max_delay;
        history.push(TradeoffPoint {
            iteration: history.len() + 1,
            hpwl: metrics::hpwl(netlist, &legal),
            max_delay: delay,
        });
        if delay < best_delay {
            best = legal;
            best_delay = delay;
        }
    }
    Ok(TimingDrivenResult {
        placement: best,
        history,
    })
}

/// *Meeting* a timing requirement (section 5): run the non-timing-driven
/// placer to convergence first (area-optimized), then apply net-weight
/// adaptations transformation by transformation, recording the trade-off
/// curve, and stop as soon as the requirement is met. "Since we used the
/// resulting placement for timing analysis we can assure that the
/// placement meets precisely the timing requirements."
///
/// `max_extra_transformations` bounds phase 2 when the requirement is
/// unreachable (`met == false` in that case).
///
/// # Errors
///
/// [`KraftwerkError::Timing`] when the netlist has a combinational loop,
/// and the errors of [`GlobalPlacer::try_place`](kraftwerk_core::GlobalPlacer::try_place)
/// and of the session's transformations.
pub fn meet_requirements(
    netlist: &Netlist,
    model: DelayModel,
    config: KraftwerkConfig,
    requirement_ns: f64,
    max_extra_transformations: usize,
) -> Result<MeetResult, KraftwerkError> {
    let sta = Sta::new(netlist, model)?;
    // Phase 1: plain area-driven placement.
    let base = kraftwerk_core::GlobalPlacer::new(config.clone()).try_place(netlist)?;
    let mut curve = vec![TradeoffPoint {
        iteration: 0,
        hpwl: metrics::hpwl(netlist, &base.placement),
        max_delay: sta.analyze(&base.placement).max_delay,
    }];
    if curve[0].max_delay <= requirement_ns {
        return Ok(MeetResult {
            placement: base.placement,
            met: true,
            curve,
            requirement: requirement_ns,
        });
    }

    // Phase 2: resume and tighten with net-weight adaptation (with the
    // timing mobility floor on K).
    let mut tracker = CriticalityTracker::new(netlist.num_nets());
    let mut session = PlacementSession::resume(netlist, timing_config(config), base.placement);
    let mut met = false;
    for i in 0..max_extra_transformations {
        let report = sta.analyze(session.placement());
        if report.max_delay <= requirement_ns {
            met = true;
            break;
        }
        let weights = tracker.update(&report);
        session.set_extra_weights(weights);
        let stats = session.try_transform()?;
        curve.push(TradeoffPoint {
            iteration: i + 1,
            hpwl: stats.hpwl,
            max_delay: sta.analyze(session.placement()).max_delay,
        });
    }
    if !met {
        // The loop may have ended exactly at the requirement.
        met = sta.analyze(session.placement()).max_delay <= requirement_ns;
    }
    Ok(MeetResult {
        placement: session.placement().clone(),
        met,
        curve,
        requirement: requirement_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kraftwerk_netlist::synth::{generate, SynthConfig};

    fn circuit() -> Netlist {
        generate(&SynthConfig::with_size("td", 400, 500, 10))
    }

    #[test]
    fn timing_optimization_beats_plain_placement_on_delay() {
        let nl = circuit();
        let model = DelayModel::default();
        let cfg = KraftwerkConfig::standard();
        let sta = Sta::new(&nl, model).unwrap();

        let plain = kraftwerk_core::GlobalPlacer::new(cfg.clone())
            .try_place(&nl)
            .expect("placement");
        let plain_delay = sta.analyze(&plain.placement).max_delay;

        let optimized = optimize_timing(&nl, model, cfg).unwrap();
        let opt_delay = sta.analyze(&optimized.placement).max_delay;
        assert!(
            opt_delay < plain_delay,
            "timing-driven {opt_delay:.2} ns should beat plain {plain_delay:.2} ns"
        );
        assert!(!optimized.history.is_empty());
    }

    #[test]
    fn exploitation_of_potential_is_positive(){
        let nl = circuit();
        let model = DelayModel::default();
        let sta = Sta::new(&nl, model).unwrap();
        let cfg = KraftwerkConfig::standard();
        let plain = kraftwerk_core::GlobalPlacer::new(cfg.clone())
            .try_place(&nl)
            .expect("placement");
        let optimized = optimize_timing(&nl, model, cfg).unwrap();
        let bound = sta.lower_bound();
        let plain_delay = sta.analyze(&plain.placement).max_delay;
        let opt_delay = sta.analyze(&optimized.placement).max_delay;
        let potential = plain_delay - bound;
        assert!(potential > 0.0);
        let exploitation = (plain_delay - opt_delay) / potential;
        assert!(
            exploitation > 0.1,
            "exploitation {:.0}% too low",
            exploitation * 100.0
        );
    }

    #[test]
    fn meeting_an_easy_requirement_needs_no_phase_two() {
        let nl = circuit();
        let model = DelayModel::default();
        let result =
            meet_requirements(&nl, model, KraftwerkConfig::standard(), 1e6, 20).unwrap();
        assert!(result.met);
        assert_eq!(result.curve.len(), 1);
    }

    #[test]
    fn meeting_a_tight_requirement_records_a_curve_and_meets_it() {
        let nl = circuit();
        let model = DelayModel::default();
        let cfg = KraftwerkConfig::standard();
        let sta = Sta::new(&nl, model).unwrap();
        let plain = kraftwerk_core::GlobalPlacer::new(cfg.clone())
            .try_place(&nl)
            .expect("placement");
        let plain_delay = sta.analyze(&plain.placement).max_delay;
        // Ask for a modest improvement over the area-optimized result.
        let requirement = plain_delay * 0.93;
        let result = meet_requirements(&nl, model, cfg, requirement, 40).unwrap();
        assert!(result.met, "requirement {requirement:.2} ns not met");
        assert!(result.curve.len() > 1, "phase 2 should have run");
        let final_delay = sta.analyze(&result.placement).max_delay;
        assert!(final_delay <= requirement + 1e-9);
    }

    #[test]
    fn impossible_requirement_reports_not_met() {
        let nl = generate(&SynthConfig::with_size("imp", 150, 190, 6));
        let model = DelayModel::default();
        let result =
            meet_requirements(&nl, model, KraftwerkConfig::standard(), 1e-6, 5).unwrap();
        assert!(!result.met);
        assert!(result.curve.len() > 1);
    }

    #[test]
    fn flows_are_deterministic() {
        let nl = generate(&SynthConfig::with_size("det", 200, 260, 8));
        let model = DelayModel::default();
        let a = optimize_timing(&nl, model, KraftwerkConfig::standard()).unwrap();
        let b = optimize_timing(&nl, model, KraftwerkConfig::standard()).unwrap();
        assert_eq!(a.placement, b.placement);
    }
}
