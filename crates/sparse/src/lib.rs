//! Sparse symmetric linear algebra for quadratic placement.
//!
//! The quadratic placement objective of the paper (section 2) is minimized
//! by solving `C p + d + e = 0` where `C` is sparse, symmetric and positive
//! definite as soon as at least one cell connects (transitively) to a fixed
//! location. This crate provides exactly the machinery the paper names in
//! section 4.1, on one path: stage the system in a [`SymmetricStaging`],
//! build its [`CsrMatrix`], factor it into a [`DiluFactor`], and solve it
//! with [`try_solve_with`], a **conjugate gradient solver with
//! preconditioning** (the DILU factor, applied to the split system with
//! Eisenstat's trick) that checks its inputs and returns a
//! [`SolverError`] instead of panicking.
//!
//! Implemented from scratch — no external linear-algebra dependencies —
//! because the solver *is* part of the system being reproduced.
//!
//! # Example
//!
//! ```
//! use kraftwerk_sparse::{
//!     try_solve_with, CgOptions, CgWorkspace, CsrBuildScratch, CsrMatrix, DiluFactor,
//!     SymmetricStaging,
//! };
//!
//! // 2x2 SPD system: [[4, 1], [1, 3]] x = [1, 2]
//! let mut staging = SymmetricStaging::default();
//! staging.reset(2);
//! staging.add_diagonal(0, 4.0);
//! staging.add_diagonal(1, 3.0);
//! staging.add_coupling(0, 1, 1.0);
//! let mut a = CsrMatrix::default();
//! a.rebuild_from_staging(&staging, &mut CsrBuildScratch::default());
//! let factor = DiluFactor::from_matrix(&a);
//! let mut ws = CgWorkspace::new();
//! let options = CgOptions::default();
//! let stats = try_solve_with(&a, &[1.0, 2.0], None, &factor, &options, &mut ws)?;
//! assert!(stats.converged);
//! let x = ws.solution();
//! assert!((x[0] - 1.0 / 11.0).abs() < 1e-8);
//! assert!((x[1] - 7.0 / 11.0).abs() < 1e-8);
//! # Ok::<(), kraftwerk_sparse::SolverError>(())
//! ```

// Numeric kernels index several parallel arrays; an explicit index is
// the clearest formulation there.
#![allow(clippy::needless_range_loop)]

mod cg;
mod csr;
mod dilu;

pub use cg::{try_solve_with, CgOptions, CgStats, CgWorkspace, SolverError};
pub use csr::{CsrBuildScratch, CsrMatrix, SymmetricStaging};
pub use dilu::DiluFactor;
