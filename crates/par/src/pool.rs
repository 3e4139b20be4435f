//! The shared worker pool behind the deterministic primitives.
//!
//! Design constraints, in order of priority:
//!
//! 1. **Determinism does not depend on the pool.** Work is pre-split into
//!    chunks by the caller (chunk boundaries depend only on input size);
//!    the pool merely decides *which thread* executes each chunk. Nothing
//!    observable depends on that assignment.
//! 2. **The caller always makes progress.** The publishing thread claims
//!    chunks itself, so a job completes even if every worker is busy with
//!    another job (including the nested case where a chunk body publishes
//!    a job of its own).
//! 3. **Panics propagate, never hang.** A panicking chunk is caught, the
//!    remaining chunks still run, and the payload is re-raised on the
//!    publishing thread once the job has drained.
//!
//! There is one job slot. A job published from inside a chunk displaces
//! the enclosing job, and puts it back when done if it still has chunks
//! to hand out, so an idle worker can still claim them.
//!
//! Workers are spawned lazily, parked on a condvar while idle, and live
//! for the remainder of the process (there is no shutdown path — the pool
//! is a process-wide singleton and the OS reclaims parked threads at
//! exit).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Sanity cap on the worker count (`KRAFTWERK_THREADS` is clamped here).
pub(crate) const MAX_THREADS: usize = 256;

/// Utilization slots: slot 0 is the publishing (or inline) thread, slots
/// `1..=MAX_THREADS-1` belong to the workers of the same index.
pub(crate) const UTIL_SLOTS: usize = MAX_THREADS;

/// Cumulative busy nanoseconds per slot. Only written when a job was
/// published with `timed == true`, so an untraced run never touches them.
static BUSY_NS: [AtomicU64; UTIL_SLOTS] = [const { AtomicU64::new(0) }; UTIL_SLOTS];
/// Cumulative chunk-body executions per slot.
static CHUNKS: [AtomicU64; UTIL_SLOTS] = [const { AtomicU64::new(0) }; UTIL_SLOTS];

thread_local! {
    /// This thread's utilization slot; non-worker threads publish into 0.
    static WORKER_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Whether this thread is inside a chunk body (of a pool job or of an
    /// inline run).
    static IN_CHUNK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Sequence number of the pool job whose chunk this thread is running
    /// (0 outside any job).
    static ENCLOSING_JOB: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Marks the current thread as running chunk bodies until dropped.
///
/// Only a thread's outermost chunk is timed and counted: the time of a
/// fan-out nested inside a chunk (a `join` branch that publishes a job of
/// its own) already counts as that chunk's, and timing it again would
/// count one thread's busy time twice.
pub(crate) struct ChunkScope {
    outermost: bool,
}

impl ChunkScope {
    pub(crate) fn enter() -> Self {
        Self {
            outermost: !IN_CHUNK.with(|c| c.replace(true)),
        }
    }

    /// True when this thread was not inside a chunk body already.
    pub(crate) fn outermost(&self) -> bool {
        self.outermost
    }
}

impl Drop for ChunkScope {
    fn drop(&mut self) {
        if self.outermost {
            IN_CHUNK.with(|c| c.set(false));
        }
    }
}

/// Adds finished outermost chunk work to this thread's slot.
pub(crate) fn record_busy(busy_ns: u64, chunks: u64) {
    let slot = WORKER_SLOT.with(std::cell::Cell::get).min(UTIL_SLOTS - 1);
    BUSY_NS[slot].fetch_add(busy_ns, Ordering::Relaxed);
    CHUNKS[slot].fetch_add(chunks, Ordering::Relaxed);
}

/// Reads the cumulative per-slot counters: `(busy_ns, chunks)` per slot.
pub(crate) fn utilization_counters() -> Vec<(u64, u64)> {
    (0..UTIL_SLOTS)
        .map(|s| {
            (
                BUSY_NS[s].load(Ordering::Relaxed),
                CHUNKS[s].load(Ordering::Relaxed),
            )
        })
        .collect()
}

/// Type-erased pointer to the caller's chunk closure.
///
/// The publishing thread blocks until `pending` reaches zero, i.e. until
/// every chunk body has returned, before its stack frame (which owns the
/// closure) can unwind — and once `next >= total` no thread dereferences
/// the pointer again. So the pointer never dangles while reachable.
#[derive(Clone, Copy)]
struct RunPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the closure behind the pointer is `Sync`, and the lifetime
// argument is upheld by the blocking protocol described on `RunPtr`.
unsafe impl Send for RunPtr {}
// SAFETY: as above — shared references to a `Sync` closure are fine.
unsafe impl Sync for RunPtr {}

/// One published fan-out: `total` chunks claimed via an atomic cursor.
struct Job {
    seq: u64,
    run: RunPtr,
    /// Next chunk index to claim.
    next: AtomicUsize,
    total: usize,
    /// Chunks claimed but not yet finished plus chunks never claimed.
    pending: AtomicUsize,
    /// Only workers `0..max_helpers` adopt the job, so a job published at
    /// `threads` never runs on more than `threads` threads, even when an
    /// earlier, larger setting left surplus workers parked.
    max_helpers: usize,
    /// Captured from `kraftwerk_trace::enabled()` at publish time, so the
    /// per-chunk clock reads only happen under an installed sink.
    timed: bool,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    /// Claims and executes chunks until the cursor runs past `total`.
    fn execute(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            if i >= self.total {
                break;
            }
            // SAFETY: `pending > 0` here (this chunk has not finished),
            // so the publisher is still blocked and the closure alive.
            let run = unsafe { &*self.run.0 };
            let scope = ChunkScope::enter();
            let start = (self.timed && scope.outermost()).then(Instant::now);
            let outer_job = ENCLOSING_JOB.with(|c| c.replace(self.seq));
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(i))) {
                *self.panic.lock().expect("par: panic slot poisoned") = Some(payload);
            }
            ENCLOSING_JOB.with(|c| c.set(outer_job));
            drop(scope);
            // Recorded before this chunk's `pending` decrement, so the
            // counters are visible once the publisher sees the job done
            // and land in the phase that published the job.
            if let Some(start) = start {
                record_busy(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX), 1);
            }
            if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                *self.done.lock().expect("par: done flag poisoned") = true;
                self.done_cv.notify_all();
            }
        }
    }
}

/// The process-wide pool: a single job slot plus lazily spawned workers.
pub(crate) struct Pool {
    slot: Mutex<Option<Arc<Job>>>,
    work_cv: Condvar,
    next_seq: AtomicU64,
    spawned: Mutex<usize>,
    /// Workers that have started running (see `ensure_workers`).
    running: AtomicUsize,
}

/// The singleton instance.
pub(crate) fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        slot: Mutex::new(None),
        work_cv: Condvar::new(),
        next_seq: AtomicU64::new(1),
        spawned: Mutex::new(0),
        running: AtomicUsize::new(0),
    })
}

impl Pool {
    /// Runs `run(0..n_chunks)` across up to `threads` threads (publisher
    /// included) and returns once every chunk has finished, re-raising
    /// the first captured panic payload.
    pub(crate) fn run(
        &'static self,
        n_chunks: usize,
        threads: usize,
        timed: bool,
        run: &(dyn Fn(usize) + Sync),
    ) {
        let helpers = threads.min(MAX_THREADS) - 1;
        self.ensure_workers(helpers);
        // SAFETY: lifetime erasure only; see `RunPtr` for the protocol
        // that keeps the pointer valid while any thread can use it.
        let run = RunPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(run)
        });
        let job = Arc::new(Job {
            seq: self.next_seq.fetch_add(1, Ordering::SeqCst),
            run,
            next: AtomicUsize::new(0),
            total: n_chunks,
            pending: AtomicUsize::new(n_chunks),
            max_helpers: helpers,
            timed,
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        // A job published from inside a chunk (a `join` branch) displaces
        // the enclosing job from the single slot; it goes back once this
        // one is done, so an idle worker can still claim its remaining
        // chunks (the join's other branch) instead of leaving them to run
        // after this branch on the publishing thread.
        let enclosing = ENCLOSING_JOB.with(std::cell::Cell::get);
        let displaced = {
            let mut slot = self.slot.lock().expect("par: job slot poisoned");
            let displaced = slot.replace(job.clone());
            self.work_cv.notify_all();
            displaced
        };
        // The publisher claims chunks too: the job drains even when every
        // worker is occupied elsewhere.
        job.execute();
        let mut done = job.done.lock().expect("par: done flag poisoned");
        while !*done {
            done = job.done_cv.wait(done).expect("par: done flag poisoned");
        }
        drop(done);
        {
            let mut slot = self.slot.lock().expect("par: job slot poisoned");
            if slot.as_ref().is_some_and(|j| j.seq == job.seq) {
                // Only the enclosing job goes back: this thread is inside
                // one of its chunks, so its publisher is still blocked and
                // its closure alive. A job with no unclaimed chunk left has
                // nothing to hand out.
                *slot = displaced
                    .filter(|j| j.seq == enclosing && j.next.load(Ordering::SeqCst) < j.total);
                if slot.is_some() {
                    self.work_cv.notify_all();
                }
            }
        }
        let payload = job.panic.lock().expect("par: panic slot poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Tops the worker head-count up to `target` (never shrinks; surplus
    /// workers, index `max_helpers` and up, simply skip the job).
    ///
    /// Waits until each new worker runs, so the thread's start-up
    /// allocations land in the phase that started the pool (a
    /// deterministic `--alloc-stats` table), not in whichever phase runs
    /// when the thread first gets scheduled. The wait itself allocates
    /// nothing.
    fn ensure_workers(&'static self, target: usize) {
        let mut spawned = self.spawned.lock().expect("par: spawn count poisoned");
        while *spawned < target.min(MAX_THREADS - 1) {
            let index = *spawned;
            std::thread::Builder::new()
                .name(format!("kraftwerk-par-{index}"))
                .spawn(move || {
                    self.running.fetch_add(1, Ordering::SeqCst);
                    self.worker_loop(index);
                })
                .expect("par: spawn worker thread");
            while self.running.load(Ordering::SeqCst) <= index {
                std::thread::yield_now();
            }
            *spawned += 1;
        }
    }

    fn worker_loop(&'static self, index: usize) {
        WORKER_SLOT.with(|slot| slot.set((index + 1).min(UTIL_SLOTS - 1)));
        let mut last_seq = 0u64;
        loop {
            let job = {
                let mut slot = self.slot.lock().expect("par: job slot poisoned");
                loop {
                    match slot.as_ref() {
                        Some(job) if job.seq != last_seq => {
                            last_seq = job.seq;
                            break job.clone();
                        }
                        _ => slot = self.work_cv.wait(slot).expect("par: job slot poisoned"),
                    }
                }
            };
            if index < job.max_helpers {
                job.execute();
            }
        }
    }
}
