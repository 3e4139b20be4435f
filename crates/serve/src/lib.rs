//! Placement-as-a-service: a fault-tolerant job daemon for the Kraftwerk
//! placer, std-only (no external dependencies).
//!
//! The daemon speaks a newline-delimited JSON (JSONL) protocol over TCP:
//! each request is one JSON object on one line; responses and progress
//! updates stream back the same way. See [`proto`] for the frame
//! vocabulary, [`server`] for the robustness contract (backpressure,
//! deadlines, one session per job, per-job isolation, arena pooling,
//! crash-safe journaling), [`fault`] for the injectable failure classes,
//! [`journal`] for the crash-recovery format, and [`client`] for the
//! blocking client used by the load generator and the tests.
//!
//! # Protocol sketch
//!
//! ```text
//! -> {"type":"place","id":"j1","mode":"fast","netlist":"...", "deadline_s":10}
//! <- {"type":"queued","id":"j1","queue_depth":1}
//! <- {"type":"progress","id":"j1","iteration":5,"hpwl":123.4,...}
//! <- {"type":"result","id":"j1","status":"ok","hpwl":118.8,...}
//! ```
//!
//! Other request types: `ping`, `stats`, `recover` (last-known-good
//! positions from the journal directory after a crash), `shutdown`.
//! A full queue answers `{"type":"busy","retry_after_ms":...}`; invalid
//! requests answer `{"type":"error","stage":...,"code":...}` using the
//! same error taxonomy as the CLI exit codes.

pub mod client;
pub mod fault;
mod http;
pub mod journal;
mod metrics;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, JobOutcome, PlaceOptions};
pub use fault::FaultKind;
pub use journal::{recover_journals, JobJournal, RecoveredJob};
pub use proto::{Mode, ProtoError};
pub use server::{ServeConfig, Server, ServerHandle, ServerSummary};
