//! Scoped wall-clock timers.

use crate::event::TraceEvent;
use crate::sink::{emit, enabled};
use std::time::Instant;

/// A scoped timer: measures from creation to drop and emits a
/// [`TraceEvent::Span`] with the elapsed wall time.
///
/// When no sink is installed the guard is inert — it takes no timestamp
/// and emits nothing, so instrumentation stays in place at near-zero cost.
///
/// ```
/// {
///     let _guard = kraftwerk_trace::span("place.field");
///     // ... timed work ...
/// } // span event emitted here (if a sink is installed)
/// ```
#[derive(Debug)]
#[must_use = "a span measures until dropped; binding it to `_` drops immediately"]
pub struct SpanGuard {
    armed: Option<(&'static str, Instant)>,
}

impl SpanGuard {
    /// Ends the span now (alternative to letting it fall out of scope).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, t0)) = self.armed.take() {
            emit(TraceEvent::Span {
                name,
                seconds: t0.elapsed().as_secs_f64(),
            });
        }
    }
}

/// Starts a scoped timer named `name`. See [`SpanGuard`].
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        armed: enabled().then(|| (name, Instant::now())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::test_support::with_global_sink_lock;
    use crate::sink::{install, CollectorSink};
    use std::sync::Arc;

    #[test]
    fn span_emits_on_drop_with_nonnegative_duration() {
        with_global_sink_lock(|| {
            let collector = Arc::new(CollectorSink::new());
            install(collector.clone());
            span("tests.span").finish();
            let events = collector.snapshot();
            assert_eq!(events.len(), 1);
            match &events[0] {
                TraceEvent::Span { name, seconds } => {
                    assert_eq!(*name, "tests.span");
                    assert!(*seconds >= 0.0);
                }
                other => panic!("expected span, got {other:?}"),
            }
        });
    }

    #[test]
    fn span_is_inert_without_a_sink() {
        with_global_sink_lock(|| {
            let guard = span("tests.disabled");
            assert!(guard.armed.is_none(), "no clock read without a sink");
            guard.finish();
        });
    }
}
