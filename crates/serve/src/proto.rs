//! The JSONL wire protocol: newline-delimited JSON frames, one request or
//! response per line, hand-rolled over [`kraftwerk_trace::json`] so the
//! daemon stays free of external dependencies.
//!
//! # Requests (client → daemon)
//!
//! ```text
//! {"type":"place","id":"j1","netlist":"<text>","mode":"fast",
//!  "deadline_s":5.0,"return_placement":true,"progress_every":8,
//!  "fault":"divergence"}
//! {"type":"ping"}
//! {"type":"stats"}
//! {"type":"recover","include_placement":true}
//! {"type":"shutdown"}
//! ```
//!
//! # Responses (daemon → client)
//!
//! `queued`, `progress` (streamed), then exactly one of `result` /
//! `error` / `busy` per job; `pong`, `stats`, `recovered`, `bye` for the
//! control frames. Error frames carry the [`kraftwerk_core::KraftwerkError`]
//! taxonomy's `stage` label and CLI-exit-code-equivalent `code`, so a
//! service client can branch on exactly the classes the CLI exposes.

use kraftwerk_core::{IterationStats, KraftwerkError};
use kraftwerk_trace::json::{Json, JsonObject};

use crate::fault::FaultKind;

/// Exit-code-equivalent for protocol-level misuse (malformed or truncated
/// frames, unknown frame types, missing required fields) — the same code
/// the CLI uses for usage errors.
pub const CODE_PROTOCOL: i64 = 2;
/// Exit-code-equivalent for request validation failures (oversized
/// frames, duplicate or illegal job ids) — the CLI's build/validation
/// class.
pub const CODE_VALIDATION: i64 = 5;
/// Exit-code-equivalent for uncategorized internal failures (a panicking
/// worker isolated by the job boundary).
pub const CODE_INTERNAL: i64 = 1;

/// Longest accepted job id; ids also must match `[A-Za-z0-9._-]+` so a
/// hostile id can never traverse out of the journal directory.
pub const MAX_JOB_ID_LEN: usize = 128;

/// Longest accepted client trace id (`trace_id` on `place` frames).
pub const MAX_TRACE_ID_LEN: usize = 128;

/// A structured service-boundary error: the `stage`/`code` pair mirrors
/// the [`KraftwerkError`] taxonomy (plus the `protocol`, `oversized`, and
/// `internal` service stages).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Short stage label (`"protocol"`, `"parse"`, `"validation"`, …).
    pub stage: String,
    /// CLI-exit-code-equivalent class.
    pub code: i64,
    /// Human-readable diagnostic.
    pub message: String,
}

impl ProtoError {
    /// A protocol-misuse error (code 2).
    #[must_use]
    pub fn protocol(message: impl Into<String>) -> Self {
        Self {
            stage: "protocol".into(),
            code: CODE_PROTOCOL,
            message: message.into(),
        }
    }

    /// A request-validation error (code 5).
    #[must_use]
    pub fn validation(message: impl Into<String>) -> Self {
        Self {
            stage: "validation".into(),
            code: CODE_VALIDATION,
            message: message.into(),
        }
    }

    /// Wraps a pipeline error, inheriting its taxonomy stage and exit
    /// code.
    #[must_use]
    pub fn pipeline(e: &KraftwerkError) -> Self {
        Self {
            stage: e.stage().to_string(),
            code: i64::from(e.exit_code()),
            message: e.to_string(),
        }
    }
}

/// Which placement flow a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// The paper's standard mode (`KraftwerkConfig::standard`).
    Standard,
    /// The paper's fast mode (`KraftwerkConfig::fast`) — the default.
    #[default]
    Fast,
    /// The multilevel V-cycle with the bound-to-bound net model
    /// (`try_place_multilevel`); no mid-run progress frames.
    Multilevel,
}

impl Mode {
    /// Parses a mode name from the wire.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "standard" => Some(Self::Standard),
            "fast" => Some(Self::Fast),
            "multilevel" | "multilevel-b2b" => Some(Self::Multilevel),
            _ => None,
        }
    }

    /// The wire/telemetry name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Standard => "standard",
            Self::Fast => "fast",
            Self::Multilevel => "multilevel",
        }
    }
}

/// A placement job request.
#[derive(Debug, Clone)]
pub struct PlaceRequest {
    /// Client-chosen job id, unique among in-flight jobs.
    pub id: String,
    /// The netlist in `kraftwerk::netlist::format` text.
    pub netlist_text: String,
    /// Placement flow.
    pub mode: Mode,
    /// Per-job wall-clock deadline in seconds; the server default
    /// applies when absent.
    pub deadline_s: Option<f64>,
    /// Optional transformation-cap override.
    pub max_transformations: Option<usize>,
    /// Whether the result frame carries the final placement text.
    pub return_placement: bool,
    /// Stream a progress frame every this many accepted transformations
    /// (`0` disables progress streaming).
    pub progress_every: usize,
    /// Per-job fault injection (overrides the daemon-wide
    /// `KRAFTWERK_FAULT` environment fault).
    pub fault: Option<FaultKind>,
    /// Client-supplied correlation id, echoed in every response frame
    /// for this job and stamped into the job's run-report metadata.
    pub trace_id: Option<String>,
}

/// One parsed request frame.
#[derive(Debug, Clone)]
pub enum Request {
    /// Submit a placement job.
    Place(Box<PlaceRequest>),
    /// Liveness check.
    Ping,
    /// Server statistics snapshot.
    Stats,
    /// Replay last-known-good state from the job journals (crash
    /// recovery).
    Recover {
        /// Include the journaled placement text per unfinished job.
        include_placement: bool,
    },
    /// Graceful shutdown: drain running jobs, then exit.
    Shutdown,
}

/// Moves the string value of `key` out of a parsed object (leaving an
/// empty string behind), so a multi-megabyte netlist is never copied
/// again after decoding. `None` when absent or not a string; like
/// [`Json::get`], the first field named `key` wins.
fn take_str(obj: &mut Json, key: &str) -> Option<String> {
    let Json::Obj(fields) = obj else {
        return None;
    };
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, Json::Str(s))) => Some(std::mem::take(s)),
        _ => None,
    }
}

fn bool_field(obj: &Json, key: &str, default: bool) -> bool {
    match obj.get(key) {
        Some(Json::Bool(b)) => *b,
        _ => default,
    }
}

/// Whether a job id is acceptable: non-empty, bounded, and restricted to
/// characters that cannot escape the journal directory.
#[must_use]
pub fn valid_job_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_JOB_ID_LEN
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// Whether a client trace id is acceptable: non-empty, bounded, and the
/// same journal-safe character set as job ids plus `:` (the common
/// hex-with-separators correlation-id shapes).
#[must_use]
pub fn valid_trace_id(trace_id: &str) -> bool {
    !trace_id.is_empty()
        && trace_id.len() <= MAX_TRACE_ID_LEN
        && trace_id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-' | ':'))
}

/// Parses one request line.
///
/// # Errors
///
/// [`ProtoError::protocol`] (code 2) for malformed JSON, unknown types,
/// or missing fields; [`ProtoError::validation`] (code 5) for illegal job
/// ids or trace ids or unknown fault names.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let mut value = kraftwerk_trace::json::parse(line)
        .map_err(|e| ProtoError::protocol(format!("malformed frame: {e}")))?;
    let Some(kind) = take_str(&mut value, "type") else {
        return Err(ProtoError::protocol("frame has no `type` field"));
    };
    match kind.as_str() {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "recover" => Ok(Request::Recover {
            include_placement: bool_field(&value, "include_placement", false),
        }),
        "place" => {
            let id = take_str(&mut value, "id")
                .ok_or_else(|| ProtoError::protocol("place frame has no `id`"))?;
            if !valid_job_id(&id) {
                return Err(ProtoError::validation(format!(
                    "illegal job id (want 1..={MAX_JOB_ID_LEN} chars of [A-Za-z0-9._-])"
                )));
            }
            let netlist_text = take_str(&mut value, "netlist")
                .ok_or_else(|| ProtoError::protocol("place frame has no `netlist`"))?;
            let mode = match value.get("mode").and_then(Json::as_str) {
                None => Mode::default(),
                Some(name) => Mode::parse(name)
                    .ok_or_else(|| ProtoError::protocol(format!("unknown mode `{name}`")))?,
            };
            let fault = match value.get("fault").and_then(Json::as_str) {
                None => None,
                Some(name) => Some(FaultKind::parse(name).ok_or_else(|| {
                    ProtoError::validation(format!("unknown fault class `{name}`"))
                })?),
            };
            let deadline_s = value.get("deadline_s").and_then(Json::as_f64);
            let max_transformations = value
                .get("max_transformations")
                .and_then(Json::as_f64)
                .map(|v| v.max(0.0) as usize);
            let progress_every = value
                .get("progress_every")
                .and_then(Json::as_f64)
                .map_or(0, |v| v.max(0.0) as usize);
            let trace_id = match take_str(&mut value, "trace_id") {
                None => None,
                Some(t) => {
                    if !valid_trace_id(&t) {
                        return Err(ProtoError::validation(format!(
                            "illegal trace id (want 1..={MAX_TRACE_ID_LEN} chars of [A-Za-z0-9._:-])"
                        )));
                    }
                    Some(t)
                }
            };
            Ok(Request::Place(Box::new(PlaceRequest {
                id,
                netlist_text,
                mode,
                deadline_s,
                max_transformations,
                return_placement: bool_field(&value, "return_placement", false),
                progress_every,
                fault,
                trace_id,
            })))
        }
        other => Err(ProtoError::protocol(format!("unknown frame type `{other}`"))),
    }
}

/// Adds the echoed `trace_id` field when the request carried one.
fn trace_field(o: &mut JsonObject, trace_id: Option<&str>) {
    if let Some(trace_id) = trace_id {
        o.str_field("trace_id", trace_id);
    }
}

/// The `queued` acknowledgment frame.
#[must_use]
pub fn queued_frame(id: &str, trace_id: Option<&str>, queue_depth: usize) -> String {
    let mut o = JsonObject::new();
    o.str_field("type", "queued");
    o.str_field("id", id);
    trace_field(&mut o, trace_id);
    o.u64_field("queue_depth", queue_depth as u64);
    o.finish()
}

/// The backpressure rejection frame: the queue is full, come back in
/// `retry_after_ms`.
#[must_use]
pub fn busy_frame(id: &str, trace_id: Option<&str>, retry_after_ms: u64, queue_depth: usize) -> String {
    let mut o = JsonObject::new();
    o.str_field("type", "busy");
    o.str_field("id", id);
    trace_field(&mut o, trace_id);
    o.u64_field("retry_after_ms", retry_after_ms);
    o.u64_field("queue_depth", queue_depth as u64);
    o.finish()
}

/// A streamed per-transformation progress frame.
#[must_use]
pub fn progress_frame(id: &str, trace_id: Option<&str>, stats: &IterationStats) -> String {
    let mut o = JsonObject::new();
    o.str_field("type", "progress");
    o.str_field("id", id);
    trace_field(&mut o, trace_id);
    o.u64_field("iteration", stats.iteration as u64);
    o.f64_field("hpwl", stats.hpwl);
    o.f64_field("peak_density", stats.peak_density);
    o.f64_field("max_displacement", stats.max_displacement);
    o.finish()
}

/// A structured error frame (one per failed job or rejected frame).
#[must_use]
pub fn error_frame(id: Option<&str>, trace_id: Option<&str>, err: &ProtoError) -> String {
    let mut o = JsonObject::new();
    o.str_field("type", "error");
    if let Some(id) = id {
        o.str_field("id", id);
    }
    trace_field(&mut o, trace_id);
    o.str_field("stage", &err.stage);
    o.i64_field("code", err.code);
    o.str_field("message", &err.message);
    o.finish()
}

/// Everything the daemon reports about one finished job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job id.
    pub id: String,
    /// Echoed client trace id, when the request carried one.
    pub trace_id: Option<String>,
    /// `"ok"` or `"degraded"` (checkpointed best after the watchdog gave
    /// up, or budget exhaustion).
    pub status: &'static str,
    /// Final half-perimeter wirelength.
    pub hpwl: f64,
    /// Accepted transformations.
    pub iterations: usize,
    /// Whether the paper's stopping criterion fired.
    pub converged: bool,
    /// Wall-clock job time in milliseconds (queue wait excluded).
    pub wall_ms: u64,
    /// Watchdog trips.
    pub trips: usize,
    /// Watchdog recoveries.
    pub recoveries: usize,
    /// Whether the wall-clock deadline cut the job short.
    pub budget_exhausted: bool,
    /// Milliseconds of deadline budget left when the job finished.
    pub remaining_budget_ms: Option<u64>,
    /// Whether the session arena came from the cross-request pool
    /// (always `false` for multilevel jobs, which use no pooled arena).
    pub arena_pooled: bool,
    /// Final placement text, when requested.
    pub placement: Option<String>,
}

/// The terminal `result` frame for a successful (possibly degraded) job.
#[must_use]
pub fn result_frame(report: &JobReport) -> String {
    let mut o = JsonObject::new();
    o.str_field("type", "result");
    o.str_field("id", &report.id);
    trace_field(&mut o, report.trace_id.as_deref());
    o.str_field("status", report.status);
    o.f64_field("hpwl", report.hpwl);
    o.u64_field("iterations", report.iterations as u64);
    o.bool_field("converged", report.converged);
    o.u64_field("wall_ms", report.wall_ms);
    o.u64_field("trips", report.trips as u64);
    o.u64_field("recoveries", report.recoveries as u64);
    o.bool_field("budget_exhausted", report.budget_exhausted);
    if let Some(ms) = report.remaining_budget_ms {
        o.u64_field("remaining_budget_ms", ms);
    }
    o.bool_field("arena_pooled", report.arena_pooled);
    if let Some(placement) = &report.placement {
        o.str_field("placement", placement);
    }
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_request_round_trips() {
        // Unknown keys are ignored, so a client that still sends the
        // retired `retry` flag decodes unchanged.
        let line = r#"{"type":"place","id":"j-1","netlist":"x","mode":"standard","deadline_s":2.5,"return_placement":true,"progress_every":4,"retry":true,"fault":"stall"}"#;
        let Request::Place(req) = parse_request(line).expect("parses") else {
            panic!("not a place request");
        };
        assert_eq!(req.id, "j-1");
        assert_eq!(req.mode, Mode::Standard);
        assert_eq!(req.deadline_s, Some(2.5));
        assert!(req.return_placement);
        assert_eq!(req.progress_every, 4);
        assert_eq!(req.fault, Some(FaultKind::Stall));
        assert_eq!(req.trace_id, None);
    }

    #[test]
    fn trace_id_is_parsed_validated_and_echoed() {
        let line = r#"{"type":"place","id":"j","netlist":"x","trace_id":"tr-1:abc.DEF_9"}"#;
        let Request::Place(req) = parse_request(line).expect("parses") else {
            panic!("not a place request");
        };
        assert_eq!(req.trace_id.as_deref(), Some("tr-1:abc.DEF_9"));
        // Hostile trace ids are a validation error, same class as bad ids.
        for bad in ["", "has space", "quote\"inside", &"t".repeat(200)] {
            assert!(!valid_trace_id(bad), "trace id {bad:?} must be rejected");
        }
        let err = parse_request(r#"{"type":"place","id":"j","netlist":"x","trace_id":"a b"}"#)
            .expect_err("bad trace id");
        assert_eq!(err.code, CODE_VALIDATION);
        // Every response-frame builder echoes it.
        let tid = Some("tr-9");
        assert!(queued_frame("j", tid, 1).contains("\"trace_id\":\"tr-9\""));
        assert!(busy_frame("j", tid, 5, 1).contains("\"trace_id\":\"tr-9\""));
        assert!(error_frame(Some("j"), tid, &ProtoError::validation("x"))
            .contains("\"trace_id\":\"tr-9\""));
        // And absent ids add no field at all.
        assert!(!queued_frame("j", None, 1).contains("trace_id"));
    }

    #[test]
    fn truncated_frame_is_a_protocol_error() {
        let err = parse_request(r#"{"type":"place","id":"x""#).expect_err("truncated");
        assert_eq!(err.code, CODE_PROTOCOL);
        assert_eq!(err.stage, "protocol");
    }

    #[test]
    fn hostile_job_ids_are_rejected() {
        for id in ["", "../../etc/passwd", "a b", &"x".repeat(200)] {
            assert!(!valid_job_id(id), "id {id:?} must be rejected");
        }
        assert!(valid_job_id("job_1.retry-2"));
    }

    #[test]
    fn unknown_type_and_missing_fields_are_protocol_errors() {
        assert_eq!(
            parse_request(r#"{"type":"warp"}"#).expect_err("unknown").code,
            CODE_PROTOCOL
        );
        assert_eq!(
            parse_request(r#"{"type":"place","id":"a"}"#)
                .expect_err("no netlist")
                .code,
            CODE_PROTOCOL
        );
        assert_eq!(
            parse_request(r#"{"type":"place","id":"!","netlist":"x"}"#)
                .expect_err("bad id")
                .code,
            CODE_VALIDATION
        );
    }

    #[test]
    fn near_cap_place_frame_decodes_in_linear_time() {
        let cap = crate::ServeConfig::default().max_frame_bytes;
        // Netlist-shaped text: short lines, so the frame alternates plain
        // runs with `\n` escapes (one extra byte each on the wire).
        let line = "cell c12345 4.25 1.0 std # padding\n";
        let lines = (cap - 1024) / (line.len() + 1);
        let netlist = line.repeat(lines);
        let mut o = JsonObject::new();
        o.str_field("type", "place");
        o.str_field("id", "near-cap");
        o.str_field("netlist", &netlist);
        o.str_field("trace_id", "tr-near-cap");
        let frame = o.finish();
        assert!(
            frame.len() <= cap && frame.len() > cap - 2048,
            "frame is {} bytes, cap {cap}",
            frame.len()
        );
        let started = std::time::Instant::now();
        let Request::Place(req) = parse_request(&frame).expect("near-cap frame parses") else {
            panic!("not a place request");
        };
        let elapsed = started.elapsed();
        // A decoder quadratic in the frame size needs tens of minutes on
        // this frame; a linear one takes milliseconds in release and well
        // under a second in a debug build.
        assert!(elapsed.as_secs_f64() < 5.0, "decode took {elapsed:?}");
        assert_eq!(req.id, "near-cap");
        assert_eq!(req.trace_id.as_deref(), Some("tr-near-cap"));
        assert!(req.netlist_text == netlist, "netlist text changed in decode");
    }

    #[test]
    fn frames_are_single_line_json() {
        let err = ProtoError::validation("multi\nline");
        let frame = error_frame(Some("j"), None, &err);
        assert!(!frame.contains('\n'), "frames must stay newline-free");
        let parsed = kraftwerk_trace::json::parse(&frame).expect("valid JSON");
        assert_eq!(parsed.get("code").and_then(Json::as_f64), Some(5.0));
        assert_eq!(parsed.get("stage").and_then(Json::as_str), Some("validation"));
    }
}
