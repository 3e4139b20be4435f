//! The per-session scratch arena.
//!
//! Every buffer the placement transformation loop needs is allocated once
//! and reused across iterations: after the arena has grown to the design's
//! size (typically during the first transformation), the steady-state loop
//! performs no further heap allocation. [`ScratchArena::capacity_signature`]
//! exposes the buffer capacities so tests can assert exactly that.

use crate::quadratic::{Assembled, AssemblyScratch};
use kraftwerk_field::{DensityScratch, ForceField, MultigridWorkspace, ScalarMap};
use kraftwerk_geom::Vector;
use kraftwerk_sparse::{CgWorkspace, DiluFactor};

/// Reusable state for [`crate::PlacementSession::try_transform`], grouped by
/// pipeline phase. All fields are buffers whose *contents* are rebuilt
/// every iteration; none carry semantic state across iterations.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Symmetric staging + CSR build scratch for system assembly.
    pub(crate) assembly: AssemblyScratch,
    /// The assembled system (matrices and linear terms, storage reused).
    pub(crate) asm: Assembled,
    /// The unweighted assembly the hold force is derived from when timing
    /// weights are active.
    pub(crate) hold_asm: Assembled,
    /// Per-cell mean stiffness, partially ordered for the median estimate.
    pub(crate) stiffness: Vec<f64>,
    /// Raw (unscaled) field force per movable cell.
    pub(crate) raw: Vec<Vector>,
    /// Holding-force x component.
    pub(crate) hx: Vec<f64>,
    /// Holding-force y component.
    pub(crate) hy: Vec<f64>,
    /// Spring-force scratch (x), input to the hold computation.
    pub(crate) sx: Vec<f64>,
    /// Spring-force scratch (y).
    pub(crate) sy: Vec<f64>,
    /// Right-hand side of the x solve.
    pub(crate) bx: Vec<f64>,
    /// Right-hand side of the y solve.
    pub(crate) by: Vec<f64>,
    /// Movable-cell x coordinates before the solve (warm start).
    pub(crate) xs0: Vec<f64>,
    /// Movable-cell y coordinates before the solve.
    pub(crate) ys0: Vec<f64>,
    /// DILU factor of the x system, refreshed with the assembly; its
    /// diagonal is the per-cell x stiffness.
    pub(crate) px: DiluFactor,
    /// DILU factor of the y system.
    pub(crate) py: DiluFactor,
    /// Conjugate-gradient workspace for the x solve.
    pub(crate) cg_x: CgWorkspace,
    /// Conjugate-gradient workspace for the y solve.
    pub(crate) cg_y: CgWorkspace,
    /// The density deviation grid, re-shaped in place each iteration.
    pub(crate) density: Option<ScalarMap>,
    /// Clamped cell rectangles for the density build.
    pub(crate) density_scratch: DensityScratch,
    /// Multigrid Poisson-solve grids.
    pub(crate) mg: MultigridWorkspace,
    /// The force field written by the in-place Poisson solve.
    pub(crate) field: Option<ForceField>,
}

impl ScratchArena {
    /// Capacities of every directly owned growable buffer, in a fixed
    /// order. Two equal signatures around a block of transformations prove
    /// the block allocated nothing new from the arena's pools.
    pub fn capacity_signature(&self) -> Vec<usize> {
        vec![
            self.px.capacity(),
            self.py.capacity(),
            self.stiffness.capacity(),
            self.raw.capacity(),
            self.hx.capacity(),
            self.hy.capacity(),
            self.sx.capacity(),
            self.sy.capacity(),
            self.bx.capacity(),
            self.by.capacity(),
            self.xs0.capacity(),
            self.ys0.capacity(),
            self.cg_x.capacity(),
            self.cg_y.capacity(),
            self.asm.dx.capacity(),
            self.asm.dy.capacity(),
        ]
    }
}
