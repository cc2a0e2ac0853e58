//! Parallel execution backends.
//!
//! The paper evaluates the *same* ISO C++ source under several toolchains
//! (NVC++, AdaptiveCpp, GCC/TBB, Clang — Figs. 8 & 9) and finds small
//! differences "attributed mainly in the sorting algorithm". That axis is a
//! property of compilers and runtimes on one machine each; it is not
//! reproduced here (DESIGN.md "Execution substrate"). Every parallel
//! algorithm in this crate runs on one of two substrates:
//!
//! * [`Backend::Dynamic`] — a self-scheduling executor: workers claim
//!   grain-sized chunks from a shared atomic cursor (dynamic load
//!   balancing, like a TBB/rayon-style runtime);
//! * [`Backend::DetPar`] — a deterministic single-threaded schedule-replay
//!   executor for correctness fuzzing ([`crate::detpar`]): every region
//!   runs as an explicit seeded interleaving of chunk steps, so failures
//!   reproduce byte-identically from a seed.
//!
//! The backend and the thread count are a **scoped value of the calling
//! thread**, as the paper's ISO C++ passes the execution policy to every
//! call instead of sharing a runtime switch across the process:
//! [`with_backend`] and [`with_threads`] set them for the closure they run,
//! on the calling thread only. A thread with no [`with_threads`] scope uses
//! the process default that [`set_threads`] writes. The pool carries the
//! caller's setting to the workers that run a region's tickets, so a ticket,
//! and any region it opens, sees the setting of the thread that opened its
//! region. Nothing another thread does can change the setting under a
//! running region. A caller that sizes per-worker scratch and later opens
//! the region that indexes it records the [`thread_count`] it sized for and
//! opens the region inside `with_threads(recorded, ..)`, so a `set_threads`
//! on another thread cannot land between the two (`ForceTiles` does this).
//!
//! ## Substrate
//!
//! `Dynamic` is a scheduling discipline, not a thread source: each region
//! hands its *tickets* — a chunk-claiming loop with its dense worker index —
//! to the crate's one persistent worker pool (`crate::pool`, in-tree, no
//! external dependencies). The calling thread runs ticket 0 and at most
//! `thread_count() - 1` long-lived pool workers take the rest, so a region
//! launch is an allocation-free hand-off rather than `thread_count()`
//! OS-thread spawns and joins. Worker indices stay dense and are never held
//! by two threads at once (a ticket runs exactly once, on one thread); a
//! single worker still runs inline and never touches the pool. Every ticket
//! body here can finish the whole region by itself, which is the pool's
//! no-deadlock invariant; the pool's module header states the
//! forward-progress guarantee each policy receives.
//!
//! ## Panic safety
//!
//! The executor is panic-safe: if a user closure panics, on a pool worker
//! or on the caller, the *first* panic payload is captured, the remaining
//! workers stop claiming new work, and the payload is re-raised on the
//! calling thread once the region has drained. The pool worker survives.

use nbody_telemetry::{self as telemetry, record};
use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which parallel substrate executes `Par`/`ParUnseq` algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Self-scheduling chunk claiming (dynamic load balancing).
    Dynamic,
    /// Deterministic single-threaded schedule replay (correctness tooling,
    /// not a performance substrate — see [`crate::detpar`]).
    DetPar,
}

impl Backend {
    pub fn name(self) -> &'static str {
        match self {
            Backend::Dynamic => "dynamic",
            Backend::DetPar => "detpar",
        }
    }
}

/// One thread's execution setting: the executor its parallel regions run on
/// and the worker count of a `Dynamic` region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Setting {
    pub(crate) backend: Backend,
    /// In the thread's cell, 0 means "no scope": use the process default.
    /// [`current`] always returns it resolved (at least 1).
    pub(crate) threads: usize,
}

impl Setting {
    /// Upper bound (exclusive) on the worker indices a region under this
    /// setting passes to worker-keyed callbacks: the thread count under
    /// `Dynamic`, DetPar's fixed virtual workers under `DetPar`.
    pub(crate) fn workers(self) -> usize {
        match self.backend {
            Backend::Dynamic => self.threads.max(1),
            Backend::DetPar => crate::detpar::virtual_workers(),
        }
    }

    /// Grain size used by fine-grained dynamic scheduling under `Par`: small
    /// enough that uneven per-element cost balances, large enough that the
    /// claim cost amortises.
    pub(crate) fn par_grain(self, n: usize) -> usize {
        (n / (32 * self.workers())).clamp(1, 4096)
    }

    /// Grain size used by `ParUnseq` chunking: large contiguous blocks so
    /// the inner loops vectorize, like a SIMD-width-agnostic
    /// `#pragma omp simd`. Under `Dynamic` it follows the host's hardware
    /// threads; under `DetPar` the virtual workers, so a schedule does not
    /// depend on the host it is replayed on.
    pub(crate) fn unseq_grain(self, n: usize) -> usize {
        let workers = match self.backend {
            Backend::Dynamic => hardware_parallelism(),
            Backend::DetPar => crate::detpar::virtual_workers(),
        };
        (n / (8 * workers)).max(1024).min(n.max(1))
    }
}

thread_local! {
    static SETTING: Cell<Setting> =
        const { Cell::new(Setting { backend: Backend::Dynamic, threads: 0 }) };
}

/// The thread count of threads with no [`with_threads`] scope
/// (`0` = [`hardware_parallelism`]).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// This thread's setting, with the thread count resolved. A region reads it
/// once and sizes, dispatches and hands its helpers that one value.
pub(crate) fn current() -> Setting {
    let mut setting = SETTING.with(Cell::get);
    if setting.threads == 0 {
        // relaxed-ok: worker-count default only; any observed value yields
        // a correct (if differently-chunked) execution.
        setting.threads = match DEFAULT_THREADS.load(Ordering::Relaxed) {
            0 => hardware_parallelism(),
            n => n,
        };
    }
    setting
}

/// Run `f` with this thread's setting replaced by `setting`, restoring the
/// previous one afterwards — including when `f` panics (the restore runs
/// from a drop guard during unwinding, so a panicking closure cannot leak
/// its override into later regions of the thread).
pub(crate) fn scoped<R>(setting: Setting, f: impl FnOnce() -> R) -> R {
    struct Restore(Setting);
    impl Drop for Restore {
        fn drop(&mut self) {
            SETTING.with(|cell| cell.set(self.0));
        }
    }
    let _restore = Restore(SETTING.with(|cell| cell.replace(setting)));
    f()
}

/// The backend this thread's regions run on.
pub fn current_backend() -> Backend {
    SETTING.with(Cell::get).backend
}

/// Run `f` with this thread's regions on backend `b`, restoring the previous
/// backend afterwards, panics included. Other threads are not affected.
pub fn with_backend<R>(b: Backend, f: impl FnOnce() -> R) -> R {
    scoped(Setting { backend: b, ..SETTING.with(Cell::get) }, f)
}

/// Set the process default worker count of the `Dynamic` backend
/// (`0` = use [`hardware_parallelism`]): what every thread with no
/// [`with_threads`] scope uses for the regions it opens from now on.
pub fn set_threads(n: usize) {
    // relaxed-ok: worker-count default, see `current`.
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// Run `f` with this thread's worker count set to `n` (`0` = use
/// [`hardware_parallelism`]), restoring the previous one afterwards, panics
/// included. Other threads, and the process default, are not affected.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let threads = if n == 0 { hardware_parallelism() } else { n };
    scoped(Setting { threads, ..SETTING.with(Cell::get) }, f)
}

/// Number of hardware threads. Cached after the first query:
/// `available_parallelism` re-reads cgroup limits (and allocates) on every
/// call, which would break the zero-steady-state-allocation invariant for
/// grain computations inside parallel regions.
pub fn hardware_parallelism() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    // relaxed-ok: idempotent memoisation — racing initialisers compute the
    // same value, and a stale 0 merely recomputes it.
    match CACHED.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
            CACHED.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Upper bound (exclusive) on the worker indices this thread's next region
/// passes to worker-keyed callbacks ([`crate::foreach::for_each_chunk_worker`]).
/// Size per-worker scratch (interaction-list pools, partial accumulators)
/// with this, not with [`thread_count`]: the DetPar executor schedules
/// *virtual* workers whose count is fixed independently of the host CPUs.
pub fn max_workers() -> usize {
    current().workers()
}

/// Worker count this thread's `Dynamic` regions use.
pub fn thread_count() -> usize {
    current().threads
}

/// Captures the first panic raised by any worker of a parallel region, so
/// it can be re-raised on the calling thread after all siblings joined.
pub(crate) struct PanicCell {
    poisoned: AtomicBool,
    payload: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl PanicCell {
    pub(crate) fn new() -> Self {
        PanicCell { poisoned: AtomicBool::new(false), payload: Mutex::new(None) }
    }

    /// Run `f`, capturing a panic instead of unwinding across the thread
    /// boundary. Only the first captured payload is kept.
    pub(crate) fn run(&self, f: impl FnOnce()) {
        if let Err(p) = catch_unwind(AssertUnwindSafe(f)) {
            record!(counter STDPAR_PANICS_RECOVERED, 1);
            let mut slot = self.payload.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(p);
            }
            self.poisoned.store(true, Ordering::Release);
        }
    }

    /// True once any worker has panicked — used by the dynamic executor to
    /// stop claiming new chunks.
    pub(crate) fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Re-raise the first captured panic, if any.
    pub(crate) fn rethrow(&self) {
        let payload = self.payload.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(p) = payload {
            resume_unwind(p);
        }
    }
}

/// Run `f(worker, chunk_range)` over `range` with dynamic self-scheduling:
/// workers repeatedly claim the next `grain`-sized chunk from a shared
/// cursor (the Dynamic backend's fundamental primitive — load balancing like
/// a work-stealing runtime, without per-task queues). The claiming worker's
/// index (`0..workers`) is passed alongside each chunk, so callers can key
/// per-worker scratch state (e.g. reusable interaction lists) without locks.
/// A worker index is never observed concurrently by two threads.
///
/// Panic-safe: on a worker panic the remaining workers stop claiming new
/// chunks and the first payload is re-raised on the caller.
pub(crate) fn dynamic_chunks_worker(
    setting: Setting,
    range: Range<usize>,
    grain: usize,
    f: impl Fn(usize, Range<usize>) + Sync,
) {
    let n = range.len();
    if n == 0 {
        return;
    }
    let grain = grain.max(1);
    let workers = setting.threads.min(n.div_ceil(grain));
    record!(counter STDPAR_PAR_REGIONS, 1);
    record!(gauge STDPAR_WORKERS_HIGH_WATER, workers.max(1) as u64);
    record!(hist STDPAR_GRAIN_SIZES, grain.min(n) as u64);
    if workers <= 1 {
        let mut claimed: u64 = 0;
        let mut s = range.start;
        while s < range.end {
            let e = (s + grain).min(range.end);
            claimed += 1;
            f(0, s..e);
            s = e;
        }
        record!(counter STDPAR_CHUNKS_CLAIMED, claimed);
        return;
    }
    let cursor = AtomicUsize::new(range.start);
    let end = range.end;
    // Per-chunk capture (on top of the pool's per-ticket one) so that the
    // other claim loops stop at their next chunk and the tallies below are
    // still flushed.
    let panics = PanicCell::new();
    crate::pool::run(workers, setting, &|w| {
        // Claims tally locally and flush once at ticket exit so the shared
        // counter sees one RMW per worker, not per chunk.
        let t0 = telemetry::ENABLED.then(Instant::now);
        let mut claimed: u64 = 0;
        while !panics.poisoned() {
            // relaxed-ok: the RMW's atomicity alone makes claims disjoint;
            // chunk *data* is published by the pool's job hand-off, not by
            // this counter.
            let start = cursor.fetch_add(grain, Ordering::Relaxed);
            if start >= end {
                break;
            }
            claimed += 1;
            let stop = (start + grain).min(end);
            panics.run(|| f(w, start..stop));
        }
        if claimed > 0 {
            record!(counter STDPAR_CHUNKS_CLAIMED, claimed);
        }
        if let Some(t0) = t0 {
            record!(worker WORKER_BUSY_NANOS, w, t0.elapsed().as_nanos() as u64);
        }
    });
    panics.rethrow();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scope_is_the_calling_threads_alone() {
        with_backend(Backend::DetPar, || {
            with_threads(3, || {
                assert_eq!((current_backend(), thread_count(), max_workers()), (Backend::DetPar, 3, 4));
                let other = std::thread::spawn(|| SETTING.with(Cell::get)).join().unwrap();
                assert_eq!(other, Setting { backend: Backend::Dynamic, threads: 0 });
            });
        });
    }

    #[test]
    fn with_backend_restores() {
        let prev = current_backend();
        with_backend(Backend::DetPar, || {
            assert_eq!(current_backend(), Backend::DetPar);
        });
        assert_eq!(current_backend(), prev);
    }

    #[test]
    fn with_backend_restores_after_panicking_closure() {
        // Regression: the pre-guard implementation set the backend back
        // only on the normal return path, so a panicking closure leaked
        // its override into every later parallel region in the process.
        let prev = current_backend();
        let other = match prev {
            Backend::Dynamic => Backend::DetPar,
            Backend::DetPar => Backend::Dynamic,
        };
        let err = catch_unwind(AssertUnwindSafe(|| {
            with_backend(other, || -> () { panic!("scoped closure failed") })
        }));
        assert!(err.is_err());
        assert_eq!(current_backend(), prev, "panic leaked the backend override");
    }

    #[test]
    fn dynamic_chunks_worker_visits_every_index_once() {
        for grain in [1usize, 7, 64, 100_000] {
            let n = 10_007;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            dynamic_chunks_worker(current(), 0..n, grain, |_, r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "grain={grain}"
            );
        }
    }

    #[test]
    fn dynamic_chunks_worker_nonzero_start() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        dynamic_chunks_worker(current(), 40..100, 9, |_, r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), usize::from(i >= 40), "i={i}");
        }
    }

    #[test]
    fn dynamic_chunks_worker_propagates_first_panic_payload() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            dynamic_chunks_worker(current(), 0..10_000, 64, |_, r| {
                if r.contains(&0) {
                    panic!("worker exploded deliberately");
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "worker exploded deliberately");
    }

    #[test]
    fn dynamic_chunks_worker_propagates_panic_and_stays_usable() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            dynamic_chunks_worker(current(), 0..100_000, 64, |_, r| {
                if r.start == 0 {
                    panic!("boom {}", 42);
                }
            });
        }))
        .unwrap_err();
        // rustc may const-fold the formatted message into a `&str` payload.
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(msg, "boom 42");
        // The executor must remain fully functional after a panic.
        let count = AtomicUsize::new(0);
        dynamic_chunks_worker(current(), 0..1000, 10, |_, r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn multiple_panicking_workers_do_not_abort() {
        // Every chunk panics; exactly one payload must surface, and the
        // process must not abort from a panic-while-panicking.
        let err = catch_unwind(AssertUnwindSafe(|| {
            dynamic_chunks_worker(current(), 0..10_000, 64, |_, _| panic!("all workers fail"));
        }))
        .unwrap_err();
        assert_eq!(err.downcast_ref::<&str>().copied().unwrap_or(""), "all workers fail");
    }

    #[test]
    fn thread_count_override() {
        with_threads(5, || {
            assert_eq!(thread_count(), 5);
            with_threads(0, || assert_eq!(thread_count(), hardware_parallelism()));
            assert_eq!(thread_count(), 5);
        });
        assert_eq!(SETTING.with(Cell::get).threads, 0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            with_threads(7, || -> () { panic!("scoped closure failed") })
        }));
        assert!(err.is_err());
        assert_eq!(SETTING.with(Cell::get).threads, 0, "panic leaked the thread-count override");
    }

    #[test]
    fn unseq_grain_is_sane() {
        for backend in [Backend::Dynamic, Backend::DetPar] {
            let setting = Setting { backend, threads: 2 };
            assert!(setting.unseq_grain(10) >= 1);
            assert!(setting.unseq_grain(1_000_000) >= 1024);
            assert!(setting.unseq_grain(0) >= 1);
            assert!(setting.par_grain(0) >= 1);
            assert!(setting.par_grain(1_000_000) >= 1);
        }
    }
}
