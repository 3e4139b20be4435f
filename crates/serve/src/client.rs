//! A small blocking client for the daemon protocol, used by the load
//! generator, the verification smokes, and the integration tests. One
//! [`Client`] wraps one connection; frames are plain JSONL both ways.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use kraftwerk_trace::json::{parse, Json, JsonObject};

use crate::proto::Mode;

/// Errors a client call can produce (daemon-side errors arrive as
/// structured frames instead, see [`JobOutcome`]).
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The daemon closed the connection mid-exchange.
    Disconnected,
    /// The daemon sent a frame that does not parse as JSON.
    BadFrame(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Disconnected => write!(f, "daemon closed the connection"),
            Self::BadFrame(line) => write!(f, "unparseable frame: {line}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Options for one `place` request.
#[derive(Debug, Clone)]
pub struct PlaceOptions {
    /// Placement mode.
    pub mode: Mode,
    /// Per-job wall-clock deadline in seconds (`None`: daemon default).
    pub deadline_s: Option<f64>,
    /// Transformation cap override.
    pub max_transformations: Option<usize>,
    /// Whether the result frame should carry the placement text.
    pub return_placement: bool,
    /// Progress-frame stride (`0`: no progress frames).
    pub progress_every: usize,
    /// Per-job injected fault name (`parse`/`divergence`/`deadline`/`stall`).
    pub fault: Option<&'static str>,
    /// Client-supplied trace id, echoed in every response frame and
    /// stamped into the job's run report for cross-system correlation.
    pub trace_id: Option<String>,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        Self {
            mode: Mode::Fast,
            deadline_s: None,
            max_transformations: None,
            return_placement: false,
            progress_every: 0,
            fault: None,
            trace_id: None,
        }
    }
}

/// Terminal outcome of one job as seen by the client.
#[derive(Debug)]
pub struct JobOutcome {
    /// `"ok"`, `"degraded"`, `"error"`, or `"busy"`.
    pub status: String,
    /// Final HPWL (NaN for error/busy outcomes).
    pub hpwl: f64,
    /// Accepted transformations.
    pub iterations: u64,
    /// Job wall time reported by the daemon, milliseconds.
    pub wall_ms: u64,
    /// Always `false`: the daemon runs each job once and no longer
    /// retries a degraded one. Kept because perfbench's
    /// `serve.degraded_retries` metric still reads it.
    pub retried: bool,
    /// Whether the job's wall-clock budget ran out.
    pub budget_exhausted: bool,
    /// Whether the job reused a pooled arena.
    pub arena_pooled: bool,
    /// Error stage for `"error"` outcomes (`parse`, `validation`, ...).
    pub error_stage: Option<String>,
    /// Error taxonomy code for `"error"` outcomes.
    pub error_code: Option<i64>,
    /// Daemon `retry_after_ms` hint for `"busy"` outcomes.
    pub retry_after_ms: Option<u64>,
    /// Placement text when requested and produced.
    pub placement: Option<String>,
    /// Progress frames observed before the terminal frame.
    pub progress_frames: usize,
    /// Trace id echoed by the daemon on the terminal frame, if any.
    pub trace_id: Option<String>,
    /// Queue depth reported by the `queued` ack for this job, if seen.
    pub queue_depth: Option<u64>,
}

/// One blocking protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates socket connect/configure failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one raw frame line (callers append no newline).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_raw(&mut self, frame: &str) -> Result<(), ClientError> {
        self.writer.write_all(frame.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next frame and parses it.
    ///
    /// # Errors
    ///
    /// I/O failures, disconnect, or an unparseable frame.
    pub fn read_frame(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Disconnected);
        }
        parse(line.trim_end()).map_err(|_| ClientError::BadFrame(line))
    }

    /// Sends a `ping` and waits for the `pong`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn ping(&mut self) -> Result<Json, ClientError> {
        self.send_raw("{\"type\":\"ping\"}")?;
        self.read_frame()
    }

    /// Sends a `stats` request and returns the stats frame.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.send_raw("{\"type\":\"stats\"}")?;
        self.read_frame()
    }

    /// Sends a `shutdown` request (the daemon answers `bye` and drains).
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.send_raw("{\"type\":\"shutdown\"}")?;
        let _ = self.read_frame();
        Ok(())
    }

    /// Submits one placement job and blocks until its terminal frame,
    /// counting progress frames along the way.
    ///
    /// # Errors
    ///
    /// Transport failures only; daemon-side rejections and job errors
    /// come back as [`JobOutcome`] statuses.
    pub fn place(
        &mut self,
        id: &str,
        netlist_text: &str,
        opts: &PlaceOptions,
    ) -> Result<JobOutcome, ClientError> {
        let mut o = JsonObject::new();
        o.str_field("type", "place");
        o.str_field("id", id);
        o.str_field("mode", opts.mode.name());
        o.str_field("netlist", netlist_text);
        if let Some(d) = opts.deadline_s {
            o.f64_field("deadline_s", d);
        }
        if let Some(cap) = opts.max_transformations {
            o.u64_field("max_transformations", cap as u64);
        }
        o.bool_field("return_placement", opts.return_placement);
        o.u64_field("progress_every", opts.progress_every as u64);
        if let Some(fault) = opts.fault {
            o.str_field("fault", fault);
        }
        if let Some(trace_id) = &opts.trace_id {
            o.str_field("trace_id", trace_id);
        }
        self.send_raw(&o.finish())?;
        self.wait_for_outcome(id)
    }

    /// Reads frames until a terminal frame (`result`, `error`, `busy`)
    /// for `id` arrives.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn wait_for_outcome(&mut self, id: &str) -> Result<JobOutcome, ClientError> {
        let mut progress_frames = 0usize;
        let mut queue_depth = None;
        loop {
            let frame = self.read_frame()?;
            let kind = frame.get("type").and_then(Json::as_str).unwrap_or("");
            let frame_id = frame.get("id").and_then(Json::as_str);
            let trace_id = || {
                frame
                    .get("trace_id")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            };
            match kind {
                "progress" if frame_id == Some(id) => progress_frames += 1,
                "queued" if frame_id == Some(id) => {
                    queue_depth = frame
                        .get("queue_depth")
                        .and_then(Json::as_f64)
                        .map(|v| v.max(0.0) as u64);
                }
                "queued" => {}
                "busy" if frame_id == Some(id) => {
                    return Ok(JobOutcome {
                        status: "busy".into(),
                        hpwl: f64::NAN,
                        iterations: 0,
                        wall_ms: 0,
                        retried: false,
                        budget_exhausted: false,
                        arena_pooled: false,
                        error_stage: None,
                        error_code: None,
                        retry_after_ms: frame
                            .get("retry_after_ms")
                            .and_then(Json::as_f64)
                            .map(|v| v.max(0.0) as u64),
                        placement: None,
                        progress_frames,
                        trace_id: trace_id(),
                        queue_depth,
                    });
                }
                "error" if frame_id == Some(id) || frame_id.is_none() => {
                    return Ok(JobOutcome {
                        status: "error".into(),
                        hpwl: f64::NAN,
                        iterations: 0,
                        wall_ms: 0,
                        retried: false,
                        budget_exhausted: false,
                        arena_pooled: false,
                        error_stage: frame
                            .get("stage")
                            .and_then(Json::as_str)
                            .map(str::to_string),
                        error_code: frame.get("code").and_then(Json::as_f64).map(|v| v as i64),
                        retry_after_ms: None,
                        placement: None,
                        progress_frames,
                        trace_id: trace_id(),
                        queue_depth,
                    });
                }
                "result" if frame_id == Some(id) => {
                    let num =
                        |k: &str| frame.get(k).and_then(Json::as_f64).map(|v| v.max(0.0) as u64);
                    let flag = |k: &str| {
                        frame.get(k).map(|v| matches!(v, Json::Bool(true))).unwrap_or(false)
                    };
                    return Ok(JobOutcome {
                        status: frame
                            .get("status")
                            .and_then(Json::as_str)
                            .unwrap_or("ok")
                            .to_string(),
                        hpwl: frame.get("hpwl").and_then(Json::as_f64).unwrap_or(f64::NAN),
                        iterations: num("iterations").unwrap_or(0),
                        wall_ms: num("wall_ms").unwrap_or(0),
                        retried: false,
                        budget_exhausted: flag("budget_exhausted"),
                        arena_pooled: flag("arena_pooled"),
                        error_stage: None,
                        error_code: None,
                        retry_after_ms: None,
                        placement: frame
                            .get("placement")
                            .and_then(Json::as_str)
                            .map(str::to_string),
                        progress_frames,
                        trace_id: trace_id(),
                        queue_depth,
                    });
                }
                _ => {}
            }
        }
    }
}
