//! Sparse symmetric linear algebra for quadratic placement.
//!
//! The quadratic placement objective of the paper (section 2) is minimized
//! by solving `C p + d + e = 0` where `C` is sparse, symmetric and positive
//! definite as soon as at least one cell connects (transitively) to a fixed
//! location. This crate provides exactly the machinery the paper names in
//! section 4.1: a sparse matrix ([`CsrMatrix`], assembled via
//! [`CooMatrix`] or, for symmetric systems, [`SymmetricStaging`]) and a
//! **conjugate gradient solver with preconditioning** ([`solve`],
//! preconditioned by the [`DiluFactor`] of the matrix and run on its
//! split system with Eisenstat's trick).
//!
//! Implemented from scratch — no external linear-algebra dependencies —
//! because the solver *is* part of the system being reproduced.
//!
//! # Example
//!
//! ```
//! use kraftwerk_sparse::{CooMatrix, CgOptions, DiluFactor, solve};
//!
//! // 2x2 SPD system: [[4, 1], [1, 3]] x = [1, 2]
//! let mut coo = CooMatrix::new(2);
//! coo.push(0, 0, 4.0);
//! coo.push(0, 1, 1.0);
//! coo.push(1, 0, 1.0);
//! coo.push(1, 1, 3.0);
//! let a = coo.into_csr();
//! let factor = DiluFactor::from_matrix(&a);
//! let result = solve(&a, &[1.0, 2.0], None, &factor, &CgOptions::default());
//! assert!(result.converged);
//! assert!((result.x[0] - 1.0 / 11.0).abs() < 1e-8);
//! assert!((result.x[1] - 7.0 / 11.0).abs() < 1e-8);
//! ```

// Numeric kernels index several parallel arrays; an explicit index is
// the clearest formulation there.
#![allow(clippy::needless_range_loop)]

mod cg;
mod csr;
mod dilu;
pub mod vecops;

pub use cg::{solve, solve_with, try_solve_with, CgOptions, CgResult, CgStats, CgWorkspace, SolverError};
pub use csr::{CooMatrix, CsrBuildScratch, CsrMatrix, SymmetricStaging};
pub use dilu::DiluFactor;
