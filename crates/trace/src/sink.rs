//! The global sink registry and stock sink implementations.

use crate::event::TraceEvent;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Receives every telemetry event while installed.
///
/// Implementations must be thread-safe: instrumented code may emit from
/// any thread. Delivery order is the emission order within one thread.
pub trait TraceSink: Send + Sync {
    /// Handles one event. Called only while a sink is installed, so
    /// implementations need no own enabled-check.
    fn event(&self, event: &TraceEvent);
}

/// Fast-path flag mirroring whether a sink is installed. Read with
/// `Relaxed` on every instrumentation site; the `RwLock` below is only
/// touched when it is `true`.
static ENABLED: AtomicBool = AtomicBool::new(false);

static SINK: RwLock<Option<Arc<dyn TraceSink>>> = RwLock::new(None);

/// Number of threads that currently hold a scoped sink. Zero in every
/// single-run configuration, so the extra check in [`enabled`] stays one
/// relaxed load unless a host (the placement daemon) opts in.
static SCOPED_ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's scoped sink, if any. Takes priority over the global
    /// sink for events emitted on this thread.
    static SCOPED: RefCell<Option<Arc<dyn TraceSink>>> = const { RefCell::new(None) };
}

/// Whether a sink is installed — globally, or scoped to this thread.
/// Instrumentation sites use this as the cheap guard before doing any
/// per-event work (timestamps, allocation).
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
        || (SCOPED_ACTIVE.load(Ordering::Relaxed) > 0
            && SCOPED.with(|slot| slot.borrow().is_some()))
}

/// Restores the previous scoped sink (usually none) when dropped.
///
/// Returned by [`install_scoped`]; deliberately `!Send` so the guard is
/// dropped on the thread whose slot it guards.
#[must_use = "dropping the guard immediately uninstalls the scoped sink"]
pub struct ScopedSinkGuard {
    previous: Option<Arc<dyn TraceSink>>,
    _thread_bound: PhantomData<*const ()>,
}

impl std::fmt::Debug for ScopedSinkGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ScopedSinkGuard")
    }
}

impl Drop for ScopedSinkGuard {
    fn drop(&mut self) {
        let restored = self.previous.take();
        let restores = restored.is_some();
        SCOPED.with(|slot| *slot.borrow_mut() = restored);
        if !restores {
            SCOPED_ACTIVE.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Installs `sink` for the current thread only, shadowing the global sink
/// for events emitted on this thread until the guard drops.
///
/// This is how a multi-tenant host (the placement daemon) captures one
/// job's telemetry into a per-job recorder without cross-talk from
/// concurrent jobs on sibling worker threads: emission happens on the
/// calling thread, so a scoped sink on the worker sees exactly its own
/// job's events. Threads with no scoped sink still deliver to the global
/// sink, and the zero-cost contract holds — when no scope is active
/// anywhere, [`enabled`] remains a single relaxed load.
pub fn install_scoped(sink: Arc<dyn TraceSink>) -> ScopedSinkGuard {
    let previous = SCOPED.with(|slot| slot.borrow_mut().replace(sink));
    if previous.is_none() {
        SCOPED_ACTIVE.fetch_add(1, Ordering::Relaxed);
    }
    ScopedSinkGuard { previous, _thread_bound: PhantomData }
}

/// This thread's scoped sink, if one is installed.
///
/// Work that one job hands to another thread passes this to
/// [`install_scoped`] there, so the job's events still reach the job's
/// sink.
#[must_use]
pub fn current_scoped() -> Option<Arc<dyn TraceSink>> {
    if SCOPED_ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    SCOPED.with(|slot| slot.borrow().clone())
}

/// Installs `sink` as the global sink, replacing any previous one.
///
/// # Panics
///
/// Panics if the registry lock is poisoned (a sink panicked).
pub fn install(sink: Arc<dyn TraceSink>) {
    let mut slot = SINK.write().expect("trace sink registry poisoned");
    *slot = Some(sink);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the global sink; tracing reverts to (near) zero cost.
///
/// # Panics
///
/// Panics if the registry lock is poisoned (a sink panicked).
pub fn uninstall() {
    let mut slot = SINK.write().expect("trace sink registry poisoned");
    ENABLED.store(false, Ordering::Release);
    *slot = None;
}

/// Delivers `event` to this thread's scoped sink if one is installed,
/// otherwise to the global sink, if any.
pub fn emit(event: TraceEvent) {
    if SCOPED_ACTIVE.load(Ordering::Relaxed) > 0 {
        let delivered = SCOPED.with(|slot| {
            let slot = slot.borrow();
            if let Some(sink) = slot.as_ref() {
                crate::alloc::untracked(|| sink.event(&event));
                true
            } else {
                false
            }
        });
        if delivered {
            return;
        }
    }
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let sink = {
        let slot = SINK.read().expect("trace sink registry poisoned");
        slot.clone()
    };
    if let Some(sink) = sink {
        // Sinks allocate (recorders clone field vectors); keep that out
        // of the opt-in heap accounting so telemetry delivery never
        // shows up as a phase allocation.
        crate::alloc::untracked(|| sink.event(&event));
    }
}

/// Convenience: emits a counter increment.
pub fn counter(name: &'static str, value: u64) {
    if enabled() {
        emit(TraceEvent::Counter { name, value });
    }
}

/// Convenience: emits a gauge sample.
pub fn gauge(name: &'static str, value: f64) {
    if enabled() {
        emit(TraceEvent::Gauge { name, value });
    }
}

/// Convenience: emits a structured event.
pub fn event(name: &'static str, fields: Vec<(&'static str, crate::Value)>) {
    if enabled() {
        emit(TraceEvent::Event { name, fields });
    }
}

/// A sink that buffers every event in memory (tests, ad-hoc tooling).
#[derive(Debug, Default)]
pub struct CollectorSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl CollectorSink {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of everything received so far.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("collector poisoned").clone()
    }

    /// Number of events received so far.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.lock().expect("collector poisoned").len()
    }

    /// Whether no events have been received.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for CollectorSink {
    fn event(&self, event: &TraceEvent) {
        self.events.lock().expect("collector poisoned").push(event.clone());
    }
}

/// Fans every event out to several sinks (e.g. a recorder plus a live
/// progress printer).
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl FanoutSink {
    /// Creates an empty fanout.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a downstream sink; returns `self` for chaining.
    #[must_use]
    pub fn with(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl std::fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FanoutSink({} sinks)", self.sinks.len())
    }
}

impl TraceSink for FanoutSink {
    fn event(&self, event: &TraceEvent) {
        for sink in &self.sinks {
            sink.event(event);
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::Mutex;

    /// Serializes tests that install the process-global sink.
    pub static GLOBAL_SINK_TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `f` holding the global-sink test lock, tolerating poisoning.
    pub fn with_global_sink_lock<R>(f: impl FnOnce() -> R) -> R {
        let _guard = match GLOBAL_SINK_TEST_LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let result = f();
        super::uninstall();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::with_global_sink_lock;
    use super::*;
    use crate::Value;

    #[test]
    fn enabled_tracks_install_state() {
        with_global_sink_lock(|| {
            assert!(!enabled());
            install(Arc::new(CollectorSink::new()));
            assert!(enabled());
            uninstall();
            assert!(!enabled());
        });
    }

    #[test]
    fn events_reach_the_installed_sink_and_stop_after_uninstall() {
        with_global_sink_lock(|| {
            let collector = Arc::new(CollectorSink::new());
            install(collector.clone());
            counter("tests.count", 2);
            gauge("tests.gauge", 1.5);
            event("tests.event", vec![("k", Value::from("v"))]);
            uninstall();
            counter("tests.count", 99);
            let events = collector.snapshot();
            assert_eq!(events.len(), 3);
            assert_eq!(events[0], TraceEvent::Counter { name: "tests.count", value: 2 });
            assert_eq!(events[1], TraceEvent::Gauge { name: "tests.gauge", value: 1.5 });
            assert_eq!(events[2].field("k"), Some(&Value::from("v")));
        });
    }

    #[test]
    fn fanout_delivers_to_all_downstreams() {
        let a = Arc::new(CollectorSink::new());
        let b = Arc::new(CollectorSink::new());
        let fan = FanoutSink::new().with(a.clone()).with(b.clone());
        fan.event(&TraceEvent::Counter { name: "c", value: 1 });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn scoped_sink_shadows_global_on_its_thread_only() {
        with_global_sink_lock(|| {
            let global = Arc::new(CollectorSink::new());
            install(global.clone());
            let scoped = Arc::new(CollectorSink::new());
            {
                let _guard = install_scoped(scoped.clone());
                assert!(enabled());
                counter("scoped.here", 1);
                // A sibling thread with no scope still hits the global sink.
                std::thread::spawn(|| counter("global.there", 2))
                    .join()
                    .expect("sibling thread");
            }
            counter("global.after", 3);
            uninstall();
            let scoped_events = scoped.snapshot();
            assert_eq!(scoped_events.len(), 1);
            assert_eq!(
                scoped_events[0],
                TraceEvent::Counter { name: "scoped.here", value: 1 }
            );
            let names: Vec<_> = global
                .snapshot()
                .iter()
                .map(|e| match e {
                    TraceEvent::Counter { name, .. } => *name,
                    _ => "?",
                })
                .collect();
            assert_eq!(names, vec!["global.there", "global.after"]);
        });
    }

    #[test]
    fn scoped_sink_enables_tracing_without_a_global_sink() {
        with_global_sink_lock(|| {
            assert!(!enabled());
            let scoped = Arc::new(CollectorSink::new());
            let guard = install_scoped(scoped.clone());
            assert!(enabled());
            counter("scoped.only", 7);
            drop(guard);
            assert!(!enabled());
            counter("scoped.gone", 8);
            assert_eq!(scoped.len(), 1);
        });
    }

    #[test]
    fn nested_scoped_sinks_restore_the_outer_scope() {
        with_global_sink_lock(|| {
            let outer = Arc::new(CollectorSink::new());
            let inner = Arc::new(CollectorSink::new());
            let _outer_guard = install_scoped(outer.clone());
            {
                let _inner_guard = install_scoped(inner.clone());
                counter("nested.inner", 1);
            }
            counter("nested.outer", 2);
            assert_eq!(inner.len(), 1);
            assert_eq!(outer.len(), 1);
            assert_eq!(
                outer.snapshot()[0],
                TraceEvent::Counter { name: "nested.outer", value: 2 }
            );
        });
    }

    #[test]
    fn emitting_with_no_sink_is_a_no_op() {
        with_global_sink_lock(|| {
            // Must not panic or deadlock.
            counter("nobody.listening", 1);
            emit(TraceEvent::Gauge { name: "g", value: 0.0 });
        });
    }
}
