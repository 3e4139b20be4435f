//! Row legalization and detailed refinement.
//!
//! The paper hands its global placements to Domino \[17\] for final
//! (overlap-free) placement; this crate is the workspace's stand-in.
//! [`detail_place`] turns a spread-but-overlapping global placement into
//! a legal row placement in two stages:
//!
//! 1. [`legalize`] — assigns every standard cell to a row segment and
//!    packs each segment with the Abacus-style minimal-displacement
//!    clustering algorithm (movable blocks and fixed macros become
//!    obstacles that split rows into segments);
//! 2. [`refine`] — detailed improvement passes (intra-row median
//!    repositioning and adjacent-cell swaps) that keep the placement legal
//!    while recovering wire length, standing in for Domino's network-flow
//!    improvement.
//!
//! [`check_legality`] verifies the invariants the rest of the workspace
//! relies on (no overlap, row alignment, inside the core).
//!
//! ```
//! use kraftwerk_legalize::{check_legality, detail_place};
//! use kraftwerk_netlist::synth::{generate, SynthConfig};
//!
//! let nl = generate(&SynthConfig::with_size("demo", 80, 100, 4));
//! // Even the degenerate everything-at-the-center placement legalizes.
//! let placement = detail_place(&nl, &nl.initial_placement())?;
//! assert!(check_legality(&nl, &placement, 1e-6).is_legal());
//! # Ok::<(), kraftwerk_legalize::LegalizeError>(())
//! ```

mod abacus;
mod check;
mod refine;
mod window;

pub use abacus::{legalize, LegalizeError};
pub use check::{check_legality, LegalityReport};
pub use refine::refine;
pub use window::{hungarian, optimize_windows};

use kraftwerk_netlist::{Netlist, Placement};

/// Refinement passes [`detail_place`] runs after Abacus.
const REFINE_PASSES: usize = 2;

/// The flow's final placement: Abacus row legalization ([`legalize`]),
/// then two passes of detailed refinement ([`refine`]). The CLI's
/// `place`, the bench harness and the timing and floorplan drivers all
/// end here.
///
/// # Errors
///
/// [`LegalizeError::NoRows`] when the netlist has no rows and
/// [`LegalizeError::NoRoom`] when a cell fits no row segment.
pub fn detail_place(netlist: &Netlist, global: &Placement) -> Result<Placement, LegalizeError> {
    let mut legal = legalize(netlist, global)?;
    refine(netlist, &mut legal, REFINE_PASSES);
    Ok(legal)
}

#[cfg(test)]
mod tetris;
