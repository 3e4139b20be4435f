//! Density maps and force-field solvers — the paper's core contribution.
//!
//! Section 3 of the paper derives the additional placement forces from
//! four requirements and shows they are uniquely determined by Poisson's
//! equation `ΔΦ = k·D(x,y)` with the *density deviation* `D` as source
//! term and open boundary conditions; the force is `f = ∇Φ`, given in
//! closed form by equation (9):
//!
//! ```text
//! f(r) = k/(2π) ∬ D(r') (r - r') / |r - r'|²  dr'
//! ```
//!
//! This crate discretizes that machinery:
//!
//! * [`ScalarMap`] — a bin grid over a rectangular region;
//! * [`density_map`] — the supply/demand density `D` of equation (4),
//!   exact rectangle-overlap binning of cell area minus the scaled supply;
//! * two solvers that turn `D` into forces: [`MultigridSolver`] solves
//!   the Poisson problem with a geometric multigrid V-cycle on a padded
//!   domain (the placer's only field solve), and [`DirectSolver`]
//!   evaluates the superposition sum of equation (9) exactly
//!   (`O(bins²)`, the reference the multigrid tests and ablation A1
//!   measure against);
//! * [`ForceField`] — the resulting vector field with bilinear sampling;
//! * [`largest_empty_square`] — the paper's stopping criterion
//!   (section 4.2: stop when no empty square larger than four times the
//!   average cell area remains).
//!
//! # Example
//!
//! ```
//! use kraftwerk_field::{density_map, DirectSolver};
//! use kraftwerk_netlist::synth::{generate, SynthConfig};
//!
//! let nl = generate(&SynthConfig::with_size("demo", 64, 80, 4));
//! let placement = nl.initial_placement(); // everything piled at the center
//! let density = density_map(&nl, &placement, 16, 16);
//! let field = DirectSolver::new().solve(&density);
//! // The pile at the center is a source: forces point away from it.
//! let probe = kraftwerk_geom::Point::new(
//!     nl.core_region().x_lo + nl.core_region().width() * 0.25,
//!     nl.core_region().center().y,
//! );
//! assert!(field.force_at(probe).x < 0.0);
//! ```

mod direct;
mod field;
mod grid;
mod map;
mod multigrid;

pub use direct::DirectSolver;
pub use field::ForceField;
pub use map::{
    density_map, density_map_into, largest_empty_square, occupancy_map, svg_heatmap,
    DensityScratch, ScalarMap,
};
pub use multigrid::{MultigridSolver, MultigridWorkspace};
