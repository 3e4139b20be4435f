//! Netlist data model for the Kraftwerk placement reproduction.
//!
//! This crate is the substrate every placer in the workspace runs on. It
//! provides:
//!
//! * an arena-style [`Netlist`] of cells, nets and pins with typed ids
//!   ([`CellId`], [`NetId`], [`PinId`]) and a validating [`NetlistBuilder`];
//! * a [`Placement`] container mapping cells to coordinates, plus
//!   wire-length and overlap metrics ([`metrics`]);
//! * a plain-text interchange format ([`mod@format`]) in the spirit of the
//!   Bookshelf suite;
//! * a deterministic synthetic benchmark generator ([`synth`]) that stands
//!   in for the MCNC circuits evaluated in the paper (see `DESIGN.md` for
//!   the substitution rationale) including presets for all nine circuits of
//!   Table 1.
//!
//! # Example
//!
//! ```
//! use kraftwerk_netlist::{NetlistBuilder, PinDirection};
//! use kraftwerk_geom::{Point, Size};
//!
//! let mut b = NetlistBuilder::new();
//! b.core_region(kraftwerk_geom::Rect::new(0.0, 0.0, 100.0, 100.0));
//! let a = b.add_cell("a", Size::new(4.0, 8.0));
//! let c = b.add_cell("c", Size::new(4.0, 8.0));
//! let pad = b.add_fixed_cell("pad", Size::new(2.0, 2.0), Point::new(0.0, 50.0));
//! b.add_net("n1", [(a, PinDirection::Output), (c, PinDirection::Input)]);
//! b.add_net("n2", [(c, PinDirection::Output), (pad, PinDirection::Input)]);
//! let netlist = b.build()?;
//! assert_eq!(netlist.num_cells(), 3);
//! assert_eq!(netlist.num_movable(), 2);
//! # Ok::<(), kraftwerk_netlist::BuildError>(())
//! ```

mod builder;
mod ids;
mod model;
mod placement;
mod validate;

pub mod format;
pub mod metrics;
pub mod stats;
pub mod synth;

pub use builder::{BuildError, NetlistBuilder};
pub use ids::{CellId, NetId, PinId};
pub use model::{Cell, CellKind, Net, Netlist, Pin, PinDirection, Row};
pub use placement::Placement;
pub use validate::{ValidationError, ValidationIssue, MAX_NET_DEGREE};
