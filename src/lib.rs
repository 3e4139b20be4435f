//! # Kraftwerk — Generic Global Placement and Floorplanning
//!
//! A from-scratch Rust reproduction of *H. Eisenmann and F. M. Johannes,
//! "Generic Global Placement and Floorplanning", DAC 1998* — the
//! force-directed analytical placer later known as **Kraftwerk** — together
//! with every substrate the paper's evaluation depends on: netlist model
//! and MCNC-shaped benchmark generator, sparse conjugate-gradient solver,
//! Poisson force fields, row legalization, static timing analysis,
//! congestion/thermal maps, mixed block/cell floorplanning, and
//! TimberWolf-/GORDIAN-class comparison placers.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof and hosts the runnable examples and cross-crate integration
//! tests. Each area lives in its own crate:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`trace`] | `kraftwerk-trace` | zero-dependency tracing, run telemetry, JSONL reports |
//! | [`par`] | `kraftwerk-par` | deterministic data-parallel runtime (worker pool, par_map) |
//! | [`geom`] | `kraftwerk-geom` | points, rectangles, SVG plots |
//! | [`netlist`] | `kraftwerk-netlist` | cells/nets/pins, metrics, file format, synthetic benchmarks |
//! | [`sparse`] | `kraftwerk-sparse` | CSR matrices, preconditioned CG |
//! | [`field`] | `kraftwerk-field` | density maps, Poisson force solvers |
//! | [`placer`] | `kraftwerk-core` | the Kraftwerk algorithm itself |
//! | [`legalize`] | `kraftwerk-legalize` | Abacus row legalization + refinement |
//! | [`baselines`] | `kraftwerk-baselines` | simulated-annealing and quadratic-partitioning placers |
//! | [`timing`] | `kraftwerk-timing` | Elmore STA, criticality weighting, timing-driven flows |
//! | [`congestion`] | `kraftwerk-congestion` | routing demand, congestion and thermal maps |
//! | [`floorplan`] | `kraftwerk-floorplan` | mixed block/cell flows |
//! | [`inspect`] | `kraftwerk-inspect` | HTML/SVG run dashboards from recorded telemetry |
//! | [`bench`] | `kraftwerk-bench` | experiment harness and the bench regression gate |
//!
//! # Quick start
//!
//! ```
//! use kraftwerk::placer::{GlobalPlacer, KraftwerkConfig};
//! use kraftwerk::netlist::synth::{generate, SynthConfig};
//! use kraftwerk::netlist::metrics;
//! use kraftwerk::legalize::detail_place;
//!
//! // Generate an MCNC-shaped benchmark, place it, legalize it.
//! let netlist = generate(&SynthConfig::with_size("demo", 200, 260, 8));
//! let global = GlobalPlacer::new(KraftwerkConfig::standard()).try_place(&netlist)?;
//! let legal = detail_place(&netlist, &global.placement)?;
//! println!("final wire length: {:.0}", metrics::hpwl(&netlist, &legal));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for the domain flows (timing-driven placement, mixed
//! floorplanning, ECO, congestion/heat-driven placement) and the
//! `kraftwerk-bench` crate for the harness regenerating every table of
//! the paper.

pub use kraftwerk_baselines as baselines;
pub use kraftwerk_bench as bench;
pub use kraftwerk_congestion as congestion;
pub use kraftwerk_core as placer;
pub use kraftwerk_field as field;
pub use kraftwerk_floorplan as floorplan;
pub use kraftwerk_geom as geom;
pub use kraftwerk_inspect as inspect;
pub use kraftwerk_legalize as legalize;
pub use kraftwerk_netlist as netlist;
pub use kraftwerk_par as par;
pub use kraftwerk_serve as serve;
pub use kraftwerk_sparse as sparse;
pub use kraftwerk_timing as timing;
pub use kraftwerk_trace as trace;
