//! The paper's iterative net criticality and weighting scheme (section 5).

use crate::sta::TimingReport;

/// Cap on the accumulated weight. Besides keeping unsatisfiable paths
/// from running the weights to infinity, the cap balances the timing pull
/// against the density forces: uncapped weights stack critical cells on
/// top of each other, which no legal placement can realize (tuned in the
/// ablation bench; ~8 maximizes post-legalization exploitation).
const MAX_WEIGHT: f64 = 8.0;

/// Tracks per-net criticality across placement transformations:
///
/// ```text
/// c⁽ᵐ⁾ = (c⁽ᵐ⁻¹⁾ + 1)/2   if the net is among the most critical 3%
/// c⁽ᵐ⁾ =  c⁽ᵐ⁻¹⁾ / 2      otherwise
/// ```
///
/// so "a net which is critical at step m contributes 50%, at step m−1
/// 25%, and so on" — the exponential smoothing that the paper credits
/// with damping net-weight oscillation. Weights follow
/// `w⁽ᵐ⁾ = w⁽ᵐ⁻¹⁾ · (1 + c⁽ᵐ⁾)`: an always-critical net doubles its
/// weight each step, a never-critical net keeps it.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalityTracker {
    criticality: Vec<f64>,
    weights: Vec<f64>,
    fraction: f64,
}

impl CriticalityTracker {
    /// Creates a tracker for `num_nets` nets with the paper's 3% critical
    /// fraction.
    #[must_use]
    pub fn new(num_nets: usize) -> Self {
        Self {
            criticality: vec![0.0; num_nets],
            weights: vec![1.0; num_nets],
            fraction: 0.03,
        }
    }

    /// Overrides the critical fraction (builder style).
    #[must_use]
    pub fn with_fraction(mut self, fraction: f64) -> Self {
        self.fraction = fraction;
        self
    }

    /// Current per-net criticalities.
    #[must_use]
    pub fn criticality(&self) -> &[f64] {
        &self.criticality
    }

    /// Current per-net weight multipliers.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Applies one update from a timing report and returns the new weight
    /// vector (cloned, ready for `PlacementSession::set_extra_weights`).
    ///
    /// # Panics
    ///
    /// Panics if the report's net count differs from the tracker's.
    pub fn update(&mut self, report: &TimingReport) -> Vec<f64> {
        assert_eq!(
            report.net_slack.len(),
            self.criticality.len(),
            "net count mismatch"
        );
        let critical = report.most_critical(self.fraction);
        let mut is_critical = vec![false; self.criticality.len()];
        for net in critical {
            is_critical[net.index()] = true;
        }
        for i in 0..self.criticality.len() {
            self.criticality[i] = if is_critical[i] {
                (self.criticality[i] + 1.0) * 0.5
            } else {
                self.criticality[i] * 0.5
            };
            self.weights[i] = (self.weights[i] * (1.0 + self.criticality[i])).min(MAX_WEIGHT);
        }
        self.weights.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta::TimingReport;

    fn report(slacks: Vec<f64>) -> TimingReport {
        TimingReport {
            max_delay: 10.0,
            arrival: Vec::new(),
            net_slack: slacks,
            critical_path: Vec::new(),
        }
    }

    #[test]
    fn always_critical_net_approaches_criticality_one() {
        let mut t = CriticalityTracker::new(10).with_fraction(0.1);
        // Net 0 always has the worst slack.
        let mut slacks = vec![5.0; 10];
        slacks[0] = 0.0;
        for _ in 0..10 {
            t.update(&report(slacks.clone()));
        }
        assert!(t.criticality()[0] > 0.99, "{}", t.criticality()[0]);
        assert!(t.criticality()[1] < 0.01);
    }

    #[test]
    fn weights_follow_the_paper_recursion() {
        let mut t = CriticalityTracker::new(4).with_fraction(0.25);
        let mut slacks = vec![5.0; 4];
        slacks[2] = 0.0;
        let w1 = t.update(&report(slacks.clone()));
        // First update: c = 0.5 for the critical net -> w = 1.5.
        assert!((w1[2] - 1.5).abs() < 1e-12);
        assert!((w1[0] - 1.0).abs() < 1e-12);
        let w2 = t.update(&report(slacks));
        // Second: c = 0.75 -> w = 1.5 * 1.75 = 2.625.
        assert!((w2[2] - 2.625).abs() < 1e-12);
    }

    #[test]
    fn criticality_decays_once_net_leaves_the_critical_set() {
        let mut t = CriticalityTracker::new(4).with_fraction(0.25);
        let mut slacks = vec![5.0; 4];
        slacks[1] = 0.0;
        t.update(&report(slacks));
        assert!((t.criticality()[1] - 0.5).abs() < 1e-12);
        // Now net 3 becomes critical instead.
        let mut slacks = vec![5.0; 4];
        slacks[3] = 0.0;
        t.update(&report(slacks));
        assert!((t.criticality()[1] - 0.25).abs() < 1e-12);
        assert!((t.criticality()[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weights_are_capped() {
        let mut t = CriticalityTracker::new(2).with_fraction(0.5);
        let mut slacks = vec![5.0; 2];
        slacks[0] = 0.0;
        for _ in 0..50 {
            t.update(&report(slacks.clone()));
        }
        assert!(t.weights()[0] <= 8.0 + 1e-9);
        assert!(t.weights()[0].is_finite());
    }

    #[test]
    fn infinite_slack_nets_are_never_critical() {
        let mut t = CriticalityTracker::new(3).with_fraction(1.0);
        let slacks = vec![0.0, f64::INFINITY, 1.0];
        t.update(&report(slacks));
        assert_eq!(t.criticality()[1], 0.0);
        assert!(t.criticality()[0] > 0.0);
        assert!(t.criticality()[2] > 0.0);
    }
}
