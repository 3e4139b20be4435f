//! Placer configuration.

use kraftwerk_sparse::CgOptions;

/// How nets are decomposed into quadratic two-point connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetModel {
    /// The paper's model (section 2.1): a `k`-pin net becomes a clique of
    /// `k(k-1)/2` edges of weight `w/k`. Exact but quadratic in `k`.
    Clique,
    /// Every pin connects to the net's current centroid (held fixed during
    /// the solve) with weight `w/(k-1)`. Linear in `k`; an approximation
    /// used for ablation and as the large-net fallback.
    Star,
    /// Clique up to `clique_threshold` pins, star beyond — the practical
    /// default that keeps huge (clock-like) nets from blowing up the
    /// matrix.
    Hybrid {
        /// Largest net degree still expanded as a clique.
        clique_threshold: usize,
    },
    /// Bound-to-bound (Coloquinte/Kraftwerk2 style): each pin connects to
    /// the net's current extreme pins per axis with weight
    /// `w/(2(k−1)·len)`, so the model's gradient at the reference
    /// placement equals the exact HPWL gradient for every degree while
    /// the matrix stays linear in `k`. The edge set is rebuilt from the
    /// previous placement each transformation.
    B2B,
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel::Hybrid {
            clique_threshold: 30,
        }
    }
}

/// Numerical-guardrail controls for the [`crate::PlacementSession`]
/// watchdog.
///
/// The watchdog inspects every placement transformation. When a check
/// trips it rolls the session back to the best-so-far checkpoint, damps
/// the force step (and doubles the CG iteration budget after a CG stall)
/// and retries, up to [`max_recoveries`](Self::max_recoveries) times in
/// the session before the run gives up with the checkpointed result.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogConfig {
    /// Master switch. Disabled, transformations run unguarded (the
    /// pre-watchdog behaviour).
    pub enabled: bool,
    /// Trip when the post-transformation HPWL exceeds this multiple of
    /// the lowest HPWL of any accepted transformation so far (whatever
    /// its density). Guards against slow blow-ups the displacement check
    /// cannot see.
    pub hpwl_explosion_ratio: f64,
    /// Trip when the realized per-cell displacement of a held
    /// transformation exceeds this fraction of the core diagonal (a
    /// healthy step is bounded by the trust region at a small fraction
    /// of the die).
    pub max_step_fraction: f64,
    /// Trip after this many consecutive transformations in which both CG
    /// solves hit their iteration cap without converging. `0` disables
    /// the streak check.
    pub cg_stall_streak: usize,
    /// Recovery attempts (rollback + damp + ladder step) in one session,
    /// counted across all trips, before the run gives up with the
    /// checkpointed result. The multilevel flow runs one session per
    /// level, so each level gets its own allowance.
    pub max_recoveries: usize,
    /// Optional wall-clock budget in seconds for a whole run; exceeded,
    /// the run stops with the best-so-far placement and
    /// `RunHealth::budget_exhausted` set. **Off by default** because a
    /// wall-clock cut-off makes results machine-dependent and breaks the
    /// bitwise determinism guarantee.
    ///
    /// When [`deadline`](Self::deadline) is unset, the budget is resolved
    /// into a monotonic deadline once, when the session starts; the
    /// deadline is then checked before every transformation.
    pub wall_clock_budget: Option<f64>,
    /// Optional absolute monotonic deadline for a whole run. Takes
    /// precedence over [`wall_clock_budget`](Self::wall_clock_budget),
    /// and — unlike a relative budget — is shared verbatim by every
    /// session built from the same config, so a multilevel V-cycle (or a
    /// serving daemon handing one config to retries) enforces one
    /// wall-clock cut-off across all its levels rather than restarting
    /// the clock per level.
    pub deadline: Option<std::time::Instant>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            hpwl_explosion_ratio: 10.0,
            max_step_fraction: 0.35,
            cg_stall_streak: 8,
            max_recoveries: 3,
            wall_clock_budget: None,
            deadline: None,
        }
    }
}

impl WatchdogConfig {
    /// The effective monotonic deadline for a session starting *now*: the
    /// explicit [`deadline`](Self::deadline) when set, otherwise
    /// [`wall_clock_budget`](Self::wall_clock_budget) seconds from now
    /// (non-finite or negative budgets resolve to an already-expired
    /// deadline so a nonsense budget fails loudly instead of silently
    /// running unbounded).
    #[must_use]
    pub fn resolve_deadline(&self) -> Option<std::time::Instant> {
        self.deadline.or_else(|| {
            let budget = self.wall_clock_budget?;
            let now = std::time::Instant::now();
            Some(
                std::time::Duration::try_from_secs_f64(budget)
                    .ok()
                    .and_then(|d| now.checked_add(d))
                    .unwrap_or(now),
            )
        })
    }
}

/// Parameters of the Kraftwerk iteration.
///
/// The paper exposes a single user knob, `K` (section 4.1): the maximum
/// additional force per transformation equals the pull of a unit-weight
/// two-pin net of length `K·(W+H)`. The paper uses `K = 0.2` in its
/// standard mode and `K = 1.0` in its fast mode. This reproduction reads
/// the force as a displacement target in density-grid bins (DESIGN.md
/// §7), and both of its modes use `K = 0.05`.
#[derive(Debug, Clone, PartialEq)]
pub struct KraftwerkConfig {
    /// Force strength parameter `K`.
    pub k: f64,
    /// Hard cap on placement transformations.
    pub max_transformations: usize,
    /// Divides the automatic density-grid resolution (fast mode trades
    /// field resolution for speed). `1.0` keeps the automatic choice.
    pub grid_coarsening: f64,
    /// Net decomposition model.
    pub net_model: NetModel,
    /// GORDIAN-L net-weight linearization (section 4.1 cites \[14\]): edge
    /// weights are divided by the current edge length per coordinate,
    /// turning the effective objective from quadratic into linear wire
    /// length.
    pub linearization: bool,
    /// Linearization length floor as a fraction of `W + H`. The floor must
    /// stay above the typical cell pitch: overlapping cells have
    /// zero-length nets, and without a generous floor their reweighted
    /// springs become arbitrarily stiff and lock the overlap in place.
    pub linearization_epsilon: f64,
    /// Conjugate-gradient controls for the two linear solves per
    /// transformation.
    pub cg: CgOptions,
    /// Stopping criterion factor: stop when no empty square larger than
    /// this multiple of the average cell area remains (paper: 4.0).
    pub stop_empty_square_factor: f64,
    /// Secondary stop: give up when the largest-empty-square area has not
    /// improved by at least 1% over this many consecutive transformations
    /// (guards low-utilization designs where the paper criterion can
    /// never fire). `0` disables.
    pub stall_window: usize,
    /// Worker threads for the data-parallel kernels. `0` keeps the
    /// current global setting (the `KRAFTWERK_THREADS` environment
    /// variable, falling back to the machine's parallelism); any other
    /// value is applied via [`kraftwerk_par::set_threads`] when a session
    /// starts. Results are bitwise identical at every setting.
    pub threads: usize,
    /// Numerical-guardrail (watchdog) controls.
    pub watchdog: WatchdogConfig,
    /// Fault-injection knob: multiplies the per-transformation force
    /// scale, and any value other than exactly `1.0` also bypasses the
    /// trust region so the injected divergence is observable. `1.0` (the
    /// default) is bit-for-bit the unperturbed pipeline. Exists to
    /// exercise the watchdog's divergence detection and recovery from
    /// tests and the CLI (`--force-scale`); never set it in production.
    pub force_scale_boost: f64,
    /// Capture downsampled density/potential-field and cell-position
    /// snapshots into the trace stream every this many transformations
    /// (plus the first one). `0` (the default) disables snapshots; any
    /// value only takes effect while a trace sink is installed, so the
    /// untraced hot path is unaffected either way.
    pub snapshot_every: usize,
}

impl KraftwerkConfig {
    /// The paper's standard mode, at this reproduction's `K = 0.05` (the
    /// paper's `K = 0.2` in its own force units; DESIGN.md §7).
    #[must_use]
    pub fn standard() -> Self {
        Self {
            k: 0.05,
            max_transformations: 120,
            grid_coarsening: 1.0,
            net_model: NetModel::default(),
            linearization: true,
            linearization_epsilon: 0.05,
            cg: CgOptions {
                max_iterations: 300,
                rel_tolerance: 1e-6,
                abs_tolerance: 1e-12,
            },
            stop_empty_square_factor: 4.0,
            stall_window: 16,
            threads: 0,
            watchdog: WatchdogConfig::default(),
            force_scale_boost: 1.0,
            snapshot_every: 0,
        }
    }

    /// The paper's fast mode (section 6.1: about a third of the standard
    /// mode's runtime at ~6% wire-length cost). This reproduction gets
    /// the speed from per-iteration cost — a coarser density grid, looser
    /// solver tolerances, and a relaxed stopping criterion — and keeps the
    /// standard mode's `K = 0.05` rather than the paper's larger `K = 1.0`
    /// (see DESIGN.md §7 on the force-scale calibration).
    #[must_use]
    pub fn fast() -> Self {
        let std = Self::standard();
        Self {
            max_transformations: 60,
            cg: CgOptions {
                max_iterations: 150,
                rel_tolerance: 1e-4,
                abs_tolerance: 1e-12,
            },
            grid_coarsening: 1.15,
            stop_empty_square_factor: 8.0,
            stall_window: 8,
            ..std
        }
    }

    /// Overrides `K` (builder style).
    #[must_use]
    pub fn with_k(mut self, k: f64) -> Self {
        self.k = k;
        self
    }

    /// Overrides the net model (builder style).
    #[must_use]
    pub fn with_net_model(mut self, net_model: NetModel) -> Self {
        self.net_model = net_model;
        self
    }

    /// Overrides the worker-thread count (builder style); `0` keeps the
    /// global setting.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Overrides the snapshot cadence (builder style); `0` disables
    /// mid-run field snapshots.
    #[must_use]
    pub fn with_snapshot_every(mut self, snapshot_every: usize) -> Self {
        self.snapshot_every = snapshot_every;
        self
    }

    /// Density grid bins along the longer core edge for a given cell
    /// count: `clamp(2·√cells / grid_coarsening, 16, 192)`.
    #[must_use]
    pub fn grid_bins_for(&self, num_cells: usize) -> usize {
        let auto = ((num_cells as f64).sqrt() * 2.0 / self.grid_coarsening.max(0.1)).round();
        (auto as usize).clamp(16, 192)
    }
}

impl Default for KraftwerkConfig {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_and_fast_match_the_paper() {
        assert!(KraftwerkConfig::standard().k > 0.0);
        // Fast mode trades per-iteration cost (coarser grid, looser
        // solves, laxer stopping) for speed.
        assert!(KraftwerkConfig::fast().grid_coarsening > KraftwerkConfig::standard().grid_coarsening);
        assert!(KraftwerkConfig::fast().cg.rel_tolerance > KraftwerkConfig::standard().cg.rel_tolerance);
        assert!(
            KraftwerkConfig::fast().stop_empty_square_factor
                > KraftwerkConfig::standard().stop_empty_square_factor
        );
        assert_eq!(KraftwerkConfig::standard().stop_empty_square_factor, 4.0);
        assert_eq!(KraftwerkConfig::default(), KraftwerkConfig::standard());
    }

    #[test]
    fn builder_overrides() {
        let c = KraftwerkConfig::standard()
            .with_k(0.5)
            .with_net_model(NetModel::Star);
        assert_eq!(c.k, 0.5);
        assert_eq!(c.net_model, NetModel::Star);
    }

    #[test]
    fn automatic_grid_resolution_scales_with_design_size() {
        let c = KraftwerkConfig::standard();
        assert_eq!(c.grid_bins_for(64), 16);
        assert_eq!(c.grid_bins_for(2500), 100);
        assert_eq!(c.grid_bins_for(1_000_000), 192);
    }

    #[test]
    fn watchdog_defaults_are_deterministic_and_enabled() {
        let c = KraftwerkConfig::standard();
        assert!(c.watchdog.enabled);
        assert!(c.watchdog.wall_clock_budget.is_none(), "wall clock breaks determinism");
        assert_eq!(c.force_scale_boost, 1.0);
        assert!(c.watchdog.max_recoveries > 0);
    }

    #[test]
    fn default_net_model_is_hybrid() {
        assert_eq!(NetModel::default(), NetModel::Hybrid { clique_threshold: 30 });
    }
}
