//! In-memory spans for the traced run: recorded around the benchmark's
//! calls into each layer, aggregated into per-layer self time, and
//! written once at the end as Chrome trace-event JSON (Perfetto opens it).

use kraftwerk_trace::json::JsonObject;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
    /// Display row: concurrent spans (jobs of different clients) get
    /// different lanes so the viewer does not nest them.
    lane: usize,
    trace_id: Option<String>,
}

/// Total self time of all spans sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Span name.
    pub name: &'static str,
    /// Summed duration minus the part covered by child spans, seconds.
    pub self_s: f64,
    /// Number of spans.
    pub calls: usize,
}

/// The span recorder of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// An empty trace for `workload`, its clock starting now.
    pub fn new(workload: &'static str) -> Self {
        Self {
            origin: Instant::now(),
            workload,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.secs(Instant::now());
        let id = self.push(name, now, f64::NAN);
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_s = self.secs(Instant::now());
    }

    /// Runs `f` inside a span; returns its result and wall time in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.begin(name);
        let started = Instant::now();
        let out = f();
        let took = started.elapsed().as_secs_f64();
        self.end(span);
        (out, took)
    }

    /// Records an already finished span under the innermost open span.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        let (s, e) = (self.secs(start), self.secs(end));
        self.push(name, s, e)
    }

    /// Records a finished top-level span on its own display lane, tagged
    /// with a request's trace id.
    pub fn add_root(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        lane: usize,
        trace_id: String,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.secs(start),
            end_s: self.secs(end),
            parent: None,
            lane,
            trace_id: Some(trace_id),
        });
        id
    }

    /// Records a finished span under `parent`.
    pub fn add_child(&mut self, parent: usize, name: &'static str, start: Instant, end: Instant) {
        let (start_s, end_s) = (self.secs(start), self.secs(end));
        let Span { lane, trace_id, .. } = self.spans[parent].clone();
        self.spans.push(Span {
            name,
            start_s,
            end_s,
            parent: Some(parent),
            lane,
            trace_id,
        });
    }

    fn push(&mut self, name: &'static str, start_s: f64, end_s: f64) -> usize {
        let parent = self.open.last().copied();
        let lane = parent.map_or(0, |p| self.spans[p].lane);
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s,
            end_s,
            parent,
            lane,
            trace_id: None,
        });
        id
    }

    /// Self time per span name, largest first.
    pub fn self_times(&self) -> Vec<LayerTime> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_s, s.end_s));
            }
        }
        let mut out: Vec<LayerTime> = Vec::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let self_s = (s.end_s - s.start_s) - covered(s.start_s, s.end_s, kids);
            match out.iter_mut().find(|l| l.name == s.name) {
                Some(l) => {
                    l.self_s += self_s;
                    l.calls += 1;
                }
                None => out.push(LayerTime {
                    name: s.name,
                    self_s,
                    calls: 1,
                }),
            }
        }
        out.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
        out
    }

    /// The spans as Chrome trace-event JSON (complete `X` events).
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = JsonObject::new();
                args.str_field("workload", self.workload);
                args.u64_field("id", id as u64);
                if let Some(p) = s.parent {
                    args.u64_field("parent", p as u64);
                }
                if let Some(t) = &s.trace_id {
                    args.str_field("trace_id", t);
                }
                let mut e = JsonObject::new();
                e.str_field("name", s.name);
                e.str_field("cat", s.name.split('.').next().unwrap_or(s.name));
                e.str_field("ph", "X");
                e.f64_field("ts", s.start_s * 1e6);
                e.f64_field("dur", (s.end_s - s.start_s) * 1e6);
                e.u64_field("pid", 1);
                e.u64_field("tid", s.lane as u64);
                e.raw_field("args", &args.finish());
                e.finish()
            })
            .collect();
        let mut doc = JsonObject::new();
        doc.raw_field("traceEvents", &format!("[{}]", events.join(",")));
        doc.str_field("displayTimeUnit", "ms");
        doc.finish()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(lo: f64, hi: f64, intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t: &Trace, ms: u64) -> Instant {
        t.origin + Duration::from_millis(ms)
    }

    fn self_s(times: &[LayerTime], name: &str) -> f64 {
        times
            .iter()
            .find(|l| l.name == name)
            .expect("span recorded")
            .self_s
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut t = Trace::new("test");
        let outer = t.push("outer", 0.0, 1.0);
        t.open.push(outer);
        let inner = t.add("inner", at(&t, 100), at(&t, 600));
        assert_eq!(t.spans[inner].parent, Some(outer));
        t.open.push(inner);
        t.add("leaf", at(&t, 200), at(&t, 300));
        t.add("leaf", at(&t, 400), at(&t, 450));
        t.open.clear();
        // A second root overlapping nothing of the first.
        t.add_root("job", at(&t, 2000), at(&t, 2500), 1, "tid-1".into());
        let times = t.self_times();
        assert!((self_s(&times, "outer") - 0.5).abs() < 1e-9);
        assert!((self_s(&times, "inner") - 0.35).abs() < 1e-9);
        assert!((self_s(&times, "leaf") - 0.15).abs() < 1e-9);
        assert!((self_s(&times, "job") - 0.5).abs() < 1e-9);
        assert_eq!(
            times.iter().find(|l| l.name == "leaf").map(|l| l.calls),
            Some(2)
        );
    }

    #[test]
    fn overlapping_children_are_counted_as_their_union() {
        let mut kids = vec![(0.2, 0.6), (0.1, 0.3), (0.9, 1.5)];
        assert!((covered(0.0, 1.0, &mut kids) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn chrome_json_parses_and_keeps_trace_ids() {
        let mut t = Trace::new("serve-small");
        let job = t.add_root("serve.job", at(&t, 0), at(&t, 10), 2, "bench-7".into());
        t.add_child(job, "serve.server", at(&t, 2), at(&t, 10));
        let doc = kraftwerk_trace::json::parse(&t.chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events");
        assert_eq!(events.len(), 2);
        let child_trace = events[1]
            .get("args")
            .and_then(|a| a.get("trace_id"))
            .and_then(|v| v.as_str());
        assert_eq!(child_trace, Some("bench-7"));
    }
}
