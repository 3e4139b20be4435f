//! Mid-run field snapshots: downsampled density/potential grids and
//! sampled cell positions, captured every N transformations.
//!
//! The session emits [`TraceEvent::Snapshot`] records through the normal
//! sink machinery; [`RunRecorder`](crate::RunRecorder) folds them into
//! the JSONL report next to the iteration records.

use crate::event::TraceEvent;
use crate::json::{write_f64, JsonObject};
use crate::sink::{emit, enabled};

/// Snapshot kind for downsampled cell-density grids.
pub const SNAPSHOT_DENSITY: &str = "density";
/// Snapshot kind for downsampled potential/force-field grids.
pub const SNAPSHOT_POTENTIAL: &str = "potential";
/// Snapshot kind for sampled cell positions (`nx` cells, interleaved
/// `x,y` values, `ny == 2`).
pub const SNAPSHOT_CELLS: &str = "cells";

/// One captured snapshot, decoded from the event stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotRecord {
    /// What was captured (`density`, `potential`, or `cells`).
    pub kind: String,
    /// 1-based transformation number.
    pub iteration: u64,
    /// The 1-based position, among the run's iteration records, of the
    /// transformation the snapshot was taken in, set when the recorder
    /// folds it (not serialized). It equals `iteration` in a flat run; a
    /// multilevel run restarts `iteration` at every level, while the
    /// position keeps counting. [`RunReport::from_jsonl`](crate::RunReport::from_jsonl)
    /// reads it back from the record the line follows.
    pub position: u64,
    /// Grid columns (for `cells`: number of sampled cells).
    pub nx: usize,
    /// Grid rows (for `cells`: 2).
    pub ny: usize,
    /// Row-major samples (`nx * ny` of them).
    pub values: Vec<f64>,
}

impl SnapshotRecord {
    /// Encodes the record as one JSON object (one JSONL line, no
    /// newline) — identical to the originating event's encoding.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.str_field("type", "snapshot");
        o.str_field("kind", &self.kind);
        o.u64_field("iteration", self.iteration);
        o.u64_field("nx", self.nx as u64);
        o.u64_field("ny", self.ny as u64);
        let mut raw = String::from("[");
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                raw.push(',');
            }
            write_f64(&mut raw, *v);
        }
        raw.push(']');
        o.raw_field("values", &raw);
        o.finish()
    }
}

/// Convenience: emits one snapshot event when a sink is installed.
///
/// Callers should guard the (potentially expensive) downsampling behind
/// [`enabled`] themselves; this guard only protects against the sink
/// being uninstalled in between.
pub fn snapshot(kind: &'static str, iteration: u64, nx: usize, ny: usize, values: Vec<f64>) {
    if enabled() {
        emit(TraceEvent::Snapshot {
            kind,
            iteration,
            nx: nx as u32,
            ny: ny as u32,
            values,
        });
    }
}
