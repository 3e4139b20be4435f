//! The Kraftwerk force-directed global placer.
//!
//! Reproduces the algorithm of *Eisenmann & Johannes, "Generic Global
//! Placement and Floorplanning", DAC 1998*:
//!
//! 1. Wire length is modeled by the quadratic clique objective
//!    `½ pᵀ C p + dᵀ p` (section 2.1, assembled by [`QuadraticSystem`]);
//! 2. additional forces `e` extend the equilibrium condition to
//!    `C p + d + e = 0` (section 2.2);
//! 3. each *placement transformation* (section 4.1) derives new forces
//!    from the density deviation of the current placement via a
//!    multigrid Poisson solve (the [`kraftwerk_field`] crate), scales
//!    them so the strongest force equals that of a net of length
//!    `K·(W+H)`, **accumulates** them
//!    into `e`, and re-solves the linear system with preconditioned
//!    conjugate gradients and GORDIAN-L net-weight linearization;
//! 4. iteration stops when no empty square larger than four times the
//!    average cell area remains (section 4.2).
//!
//! The accumulation in step 3 is the key mechanism: once the density
//! deviation reaches zero, no new force is added and the accumulated `e`
//! holds the spread placement in equilibrium against the quadratic pull.
//!
//! # Quick start
//!
//! ```
//! use kraftwerk_core::{GlobalPlacer, KraftwerkConfig};
//! use kraftwerk_netlist::synth::{generate, SynthConfig};
//! use kraftwerk_netlist::metrics;
//!
//! let netlist = generate(&SynthConfig::with_size("demo", 120, 150, 6));
//! let placer = GlobalPlacer::new(KraftwerkConfig::standard());
//! let result = placer.try_place(&netlist)?;
//! // The global placement is spread over the core with low overlap.
//! assert!(metrics::overlap_ratio(&netlist, &result.placement) < 0.8);
//! # Ok::<(), kraftwerk_core::KraftwerkError>(())
//! ```
//!
//! Every front door ([`GlobalPlacer`], [`try_place_multilevel`])
//! validates the netlist and returns a [`KraftwerkError`], never a panic.
//!
//! Finer control — timing-driven net weights, congestion/heat maps, ECO
//! restarts — goes through [`PlacementSession`].

// Numeric kernels index several parallel arrays; an explicit index is
// the clearest formulation there.
#![allow(clippy::needless_range_loop)]

mod arena;
mod config;
mod error;
mod multilevel;
mod quadratic;
mod session;

pub use config::{KraftwerkConfig, NetModel, WatchdogConfig};
pub use arena::ScratchArena;
pub use error::KraftwerkError;
pub use multilevel::{
    build_hierarchy, cluster, try_place_multilevel, Clustering, ClusteringConfig, MultilevelConfig,
};
pub use quadratic::{Assembled, AssemblyScratch, QuadraticSystem, CLIQUE_DEGREE_CAP};
pub use session::{
    GlobalPlacer, IterationStats, PlaceResult, PlacementSession, RunHealth,
};
