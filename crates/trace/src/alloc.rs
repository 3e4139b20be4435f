//! Opt-in heap accounting behind the process's global allocator.
//!
//! The arena refactor promises zero steady-state heap allocation per
//! placement transformation; this module turns that claim into a
//! runtime-verified metric instead of a code-review argument. The
//! `kraftwerk` binary installs [`CountingAllocator`] as its
//! `#[global_allocator]`; the counters stay dormant (one relaxed atomic
//! load per allocation) until [`set_tracking`] switches them on — the
//! `--alloc-stats` CLI flag — so library users and the untraced hot path
//! pay nothing they can measure.
//!
//! [`stats`] / [`AllocStats::since`] sample the process-wide totals. The
//! placement session brackets each phase with them and emits the delta
//! as an `alloc` event, which [`RunRecorder`](crate::RunRecorder) folds
//! into the run's per-phase heap table ([`RunReport::alloc_table`](crate::RunReport::alloc_table)).
//!
//! Telemetry must not falsify its own measurement: delivering an event to
//! a sink allocates (the recorder clones field vectors), so the sink
//! dispatch path and every telemetry-side allocation runs under
//! [`untracked`], which pauses accounting on the current thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Whether an installed [`CountingAllocator`] updates the counters.
static TRACK: AtomicBool = AtomicBool::new(false);

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static IN_USE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Depth of [`untracked`] scopes on this thread; accounting is
    /// suspended while non-zero.
    static PAUSE_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// A counting wrapper around the system allocator, meant to be installed
/// as the binary's `#[global_allocator]`:
///
/// ```ignore
/// #[global_allocator]
/// static GLOBAL: kraftwerk_trace::alloc::CountingAllocator =
///     kraftwerk_trace::alloc::CountingAllocator::system();
/// ```
///
/// Every request is forwarded to [`System`] unconditionally; the counters
/// are only updated while [`set_tracking`]`(true)` is in effect and the
/// current thread is not inside an [`untracked`] scope.
#[derive(Debug)]
pub struct CountingAllocator {
    inner: System,
}

impl CountingAllocator {
    /// The system-allocator-backed counting allocator.
    #[must_use]
    pub const fn system() -> Self {
        Self { inner: System }
    }
}

#[inline]
fn counting_now() -> bool {
    TRACK.load(Ordering::Relaxed)
        && PAUSE_DEPTH.try_with(|depth| depth.get() == 0).unwrap_or(false)
}

#[inline]
fn record_alloc(size: usize) {
    if !counting_now() {
        return;
    }
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = IN_USE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn record_dealloc(size: usize) {
    if !counting_now() {
        return;
    }
    DEALLOCS.fetch_add(1, Ordering::Relaxed);
    // Blocks allocated before tracking started may be freed while it is
    // on; saturate instead of wrapping the live-bytes gauge.
    let _ = IN_USE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
        Some(live.saturating_sub(size as u64))
    });
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { self.inner.alloc(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { self.inner.alloc_zeroed(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record_dealloc(layout.size());
        unsafe { self.inner.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { self.inner.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        new_ptr
    }
}

/// Switches allocation accounting on or off. A no-op unless the binary
/// installed a [`CountingAllocator`] (the counters then simply stay
/// zero).
pub fn set_tracking(on: bool) {
    TRACK.store(on, Ordering::SeqCst);
}

/// Whether allocation accounting is currently switched on.
#[inline]
#[must_use]
pub fn tracking() -> bool {
    TRACK.load(Ordering::Relaxed)
}

/// A point-in-time sample of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations (including reallocs) observed while tracking.
    pub allocs: u64,
    /// Deallocations observed while tracking.
    pub deallocs: u64,
    /// Cumulative bytes requested by those allocations.
    pub bytes_allocated: u64,
    /// Tracked bytes currently live.
    pub bytes_in_use: u64,
    /// High-water mark of [`bytes_in_use`](Self::bytes_in_use).
    pub peak_bytes: u64,
}

impl AllocStats {
    /// The delta from `base` to `self` for the monotone counters;
    /// `bytes_in_use` and `peak_bytes` keep their absolute values (a peak
    /// is a high-water mark, not a rate).
    #[must_use]
    pub fn since(&self, base: &AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs.saturating_sub(base.allocs),
            deallocs: self.deallocs.saturating_sub(base.deallocs),
            bytes_allocated: self.bytes_allocated.saturating_sub(base.bytes_allocated),
            bytes_in_use: self.bytes_in_use,
            peak_bytes: self.peak_bytes,
        }
    }
}

/// Samples the current counters.
#[must_use]
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        deallocs: DEALLOCS.load(Ordering::Relaxed),
        bytes_allocated: ALLOC_BYTES.load(Ordering::Relaxed),
        bytes_in_use: IN_USE.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
    }
}

/// Suspends accounting on the current thread for the duration of `f`.
/// Telemetry-delivery code uses this so the act of measuring does not
/// show up in the measurement.
pub fn untracked<R>(f: impl FnOnce() -> R) -> R {
    let entered = PAUSE_DEPTH
        .try_with(|depth| {
            depth.set(depth.get() + 1);
        })
        .is_ok();
    let result = f();
    if entered {
        let _ = PAUSE_DEPTH.try_with(|depth| {
            depth.set(depth.get().saturating_sub(1));
        });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the counting allocator, so the
    // counters stay zero; these tests cover the bookkeeping around them.

    #[test]
    fn since_subtracts_monotone_counters_and_keeps_peaks() {
        let base = AllocStats {
            allocs: 10,
            deallocs: 4,
            bytes_allocated: 1000,
            bytes_in_use: 600,
            peak_bytes: 800,
        };
        let now = AllocStats {
            allocs: 15,
            deallocs: 9,
            bytes_allocated: 1600,
            bytes_in_use: 700,
            peak_bytes: 900,
        };
        let delta = now.since(&base);
        assert_eq!(delta.allocs, 5);
        assert_eq!(delta.deallocs, 5);
        assert_eq!(delta.bytes_allocated, 600);
        assert_eq!(delta.bytes_in_use, 700);
        assert_eq!(delta.peak_bytes, 900);
    }

    #[test]
    fn untracked_nests_and_restores() {
        untracked(|| {
            untracked(|| {});
        });
        // Accounting flag itself is orthogonal to the pause depth.
        assert!(!tracking());
    }
}
