//! The unified error taxonomy of the placement pipeline.
//!
//! Every fallible `try_*` entry point across the workspace returns a
//! [`KraftwerkError`]: upstream crates' typed errors (parsing, building,
//! validation, the linear solver) are absorbed as variants, and the
//! downstream crates (legalization, floorplanning, timing) convert their
//! errors through the message-carrying variants via `From` impls defined
//! next to those error types. The CLI maps each variant to a distinct
//! process exit code through [`KraftwerkError::exit_code`].

use kraftwerk_netlist::format::ParseError;
use kraftwerk_netlist::{BuildError, ValidationError};
use kraftwerk_sparse::SolverError;
use std::error::Error;
use std::fmt;

/// Any error the placement pipeline can return.
///
/// The taxonomy is deliberately flat: one variant per pipeline stage, so
/// callers (and the CLI's exit-code mapping) can route on the stage that
/// failed without unwrapping nested enums.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum KraftwerkError {
    /// Reading a netlist or placement file failed (I/O, not syntax).
    /// Carries the path and the OS error message.
    Io {
        /// The file that could not be read or written.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// The text format parser rejected the input.
    Parse(ParseError),
    /// Netlist construction rejected the input.
    Build(BuildError),
    /// Boundary validation ([`kraftwerk_netlist::Netlist::validate`])
    /// rejected the netlist.
    Validation(ValidationError),
    /// The linear solver rejected its inputs (non-finite right-hand side
    /// or dimension mismatch).
    Solver(SolverError),
    /// The transformation loop diverged and the watchdog exhausted its
    /// recovery ladder with no usable checkpoint to fall back to.
    Diverged {
        /// The transformation at which recovery was abandoned.
        iteration: usize,
        /// What tripped the watchdog last.
        reason: &'static str,
    },
    /// Row legalization failed; carries the rendered
    /// `kraftwerk_legalize::LegalizeError`.
    Legalize(String),
    /// Floorplanning failed; carries the rendered
    /// `kraftwerk_floorplan::FloorplanError`.
    Floorplan(String),
    /// Timing analysis failed; carries the rendered
    /// `kraftwerk_timing::TimingError`.
    Timing(String),
}

impl KraftwerkError {
    /// The process exit code the CLI maps this error to. Each pipeline
    /// stage has its own code so scripts can distinguish bad input (3–5)
    /// from runtime failures (6–9); `1` is reserved for uncategorized
    /// failures and `2` for usage errors.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            KraftwerkError::Io { .. } => 3,
            KraftwerkError::Parse(_) => 4,
            KraftwerkError::Build(_) | KraftwerkError::Validation(_) => 5,
            KraftwerkError::Solver(_) | KraftwerkError::Diverged { .. } => 6,
            KraftwerkError::Legalize(_) => 7,
            KraftwerkError::Floorplan(_) => 8,
            KraftwerkError::Timing(_) => 9,
        }
    }

    /// Short stage label (`"io"`, `"parse"`, …) for diagnostics and
    /// telemetry fields.
    #[must_use]
    pub fn stage(&self) -> &'static str {
        match self {
            KraftwerkError::Io { .. } => "io",
            KraftwerkError::Parse(_) => "parse",
            KraftwerkError::Build(_) => "build",
            KraftwerkError::Validation(_) => "validation",
            KraftwerkError::Solver(_) => "solver",
            KraftwerkError::Diverged { .. } => "diverged",
            KraftwerkError::Legalize(_) => "legalize",
            KraftwerkError::Floorplan(_) => "floorplan",
            KraftwerkError::Timing(_) => "timing",
        }
    }
}

impl fmt::Display for KraftwerkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KraftwerkError::Io { path, message } => write!(f, "{path}: {message}"),
            KraftwerkError::Parse(e) => write!(f, "parse error: {e}"),
            KraftwerkError::Build(e) => write!(f, "netlist error: {e}"),
            KraftwerkError::Validation(e) => write!(f, "{e}"),
            KraftwerkError::Solver(e) => write!(f, "solver error: {e}"),
            KraftwerkError::Diverged { iteration, reason } => write!(
                f,
                "placement diverged at transformation {iteration} ({reason}) with no recoverable checkpoint"
            ),
            KraftwerkError::Legalize(msg) => write!(f, "legalization error: {msg}"),
            KraftwerkError::Floorplan(msg) => write!(f, "floorplan error: {msg}"),
            KraftwerkError::Timing(msg) => write!(f, "timing error: {msg}"),
        }
    }
}

impl Error for KraftwerkError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KraftwerkError::Parse(e) => Some(e),
            KraftwerkError::Build(e) => Some(e),
            KraftwerkError::Validation(e) => Some(e),
            KraftwerkError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for KraftwerkError {
    fn from(e: ParseError) -> Self {
        KraftwerkError::Parse(e)
    }
}

impl From<BuildError> for KraftwerkError {
    fn from(e: BuildError) -> Self {
        KraftwerkError::Build(e)
    }
}

impl From<ValidationError> for KraftwerkError {
    fn from(e: ValidationError) -> Self {
        KraftwerkError::Validation(e)
    }
}

impl From<SolverError> for KraftwerkError {
    fn from(e: SolverError) -> Self {
        KraftwerkError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_per_stage() {
        let errors = [
            KraftwerkError::Io { path: "x".into(), message: "gone".into() },
            KraftwerkError::Parse(ParseError { line: 1, message: "bad".into() }),
            KraftwerkError::Build(BuildError::MissingCoreRegion),
            KraftwerkError::Solver(SolverError::NonFinite { what: "rhs" }),
            KraftwerkError::Legalize("no rows".into()),
            KraftwerkError::Floorplan("blocks do not fit".into()),
            KraftwerkError::Timing("no endpoints".into()),
        ];
        let mut codes: Vec<i32> = errors.iter().map(KraftwerkError::exit_code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len(), "stages must map to distinct codes");
        assert!(codes.iter().all(|&c| c >= 3), "0..2 are reserved");
    }

    #[test]
    fn conversions_and_display_round_trip_the_stage() {
        let e: KraftwerkError = ParseError { line: 7, message: "nope".into() }.into();
        assert_eq!(e.stage(), "parse");
        assert!(e.to_string().contains("line 7"));
        let e: KraftwerkError = SolverError::NonFinite { what: "rhs" }.into();
        assert_eq!(e.exit_code(), 6);
        let e = KraftwerkError::Diverged { iteration: 12, reason: "runaway displacement" };
        assert_eq!(e.exit_code(), 6);
        assert!(e.to_string().contains("transformation 12"));
    }
}
