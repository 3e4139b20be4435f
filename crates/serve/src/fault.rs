//! Fault injection: every degradation path the daemon promises to survive
//! is reachable on demand, from the environment (`KRAFTWERK_FAULT=` — a
//! daemon-wide fault applied to every job) or per job via the `"fault"`
//! protocol field.
//!
//! | fault        | injection                                   | expected outcome                         |
//! |--------------|---------------------------------------------|------------------------------------------|
//! | `parse`      | corrupts the netlist text before parsing    | `error` frame, stage `parse`, code 4     |
//! | `divergence` | force-scale boost (the CLI `--force-scale`) | `degraded` result after the watchdog's   |
//! |              |                                             | ladder: 4 trips, 3 recoveries            |
//! | `deadline`   | already-expired wall-clock deadline         | degraded result, `budget_exhausted`      |
//! | `stall`      | worker sleeps once: after the first         | degraded or ok, bounded by the deadline; |
//! |              | accepted transformation (flat modes), or    | `wall_ms` at least [`STALL_MS`]          |
//! |              | before the V-cycle (multilevel)             |                                          |

/// One injectable fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Corrupt the netlist text so parsing fails with the taxonomy's
    /// parse class.
    Parse,
    /// Multiply the force scale so the solver diverges and the watchdog
    /// degrades the run (the session-level `--force-scale` injection).
    Divergence,
    /// Expire the job's wall-clock deadline immediately.
    Deadline,
    /// Sleep the worker mid-job (after the first accepted
    /// transformation, or before a multilevel job's V-cycle), simulating
    /// a stalled dependency.
    Stall,
}

/// How long a [`FaultKind::Stall`] holds the worker, in milliseconds.
pub const STALL_MS: u64 = 250;

/// Force-scale boost used by [`FaultKind::Divergence`] — the same
/// injection strength the robustness suite uses for its
/// degraded-but-recoverable runs: strong enough to trip the watchdog
/// repeatedly, weak enough that the checkpointed best stays usable.
pub const DIVERGENCE_BOOST: f64 = 40.0;

impl FaultKind {
    /// Parses a fault name (wire field or `KRAFTWERK_FAULT` value).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "parse" => Some(Self::Parse),
            "divergence" => Some(Self::Divergence),
            "deadline" => Some(Self::Deadline),
            "stall" => Some(Self::Stall),
            _ => None,
        }
    }

    /// The wire/telemetry name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Parse => "parse",
            Self::Divergence => "divergence",
            Self::Deadline => "deadline",
            Self::Stall => "stall",
        }
    }

    /// The daemon-wide fault from the `KRAFTWERK_FAULT` environment
    /// variable, when set to a valid class name.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        std::env::var("KRAFTWERK_FAULT").ok().and_then(|v| Self::parse(&v))
    }

    /// Corrupts netlist text the way [`FaultKind::Parse`] does: the tail
    /// is truncated mid-token and replaced with garbage, guaranteeing a
    /// parse failure on any well-formed input.
    #[must_use]
    pub fn corrupt_netlist(text: &str) -> String {
        let keep = text.len() / 2;
        let mut cut = keep;
        while cut > 0 && !text.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}\n<<injected-parse-fault>>", &text[..cut])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for f in [
            FaultKind::Parse,
            FaultKind::Divergence,
            FaultKind::Deadline,
            FaultKind::Stall,
        ] {
            assert_eq!(FaultKind::parse(f.name()), Some(f));
        }
        assert_eq!(FaultKind::parse(" STALL "), Some(FaultKind::Stall));
        assert_eq!(FaultKind::parse("oom"), None);
    }

    #[test]
    fn corruption_defeats_the_parser() {
        let text = "kraftwerk-netlist 1\ncore 0 0 100 100\n";
        let bad = FaultKind::corrupt_netlist(text);
        assert!(kraftwerk_netlist::format::read_netlist(&bad).is_err());
    }
}
