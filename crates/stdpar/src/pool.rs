//! The one worker pool under every parallel region of this crate.
//!
//! The C++ runtimes the paper measures (TBB under libstdc++, the OpenMP
//! runtime under `nvc++ -stdpar=multicore`) serve each `for_each` /
//! `transform_reduce` / `sort` call from threads that outlive the call. So
//! does this module: [`run`] is the crate's only way to put work on another
//! OS thread, and every executor ([`crate::backend::dynamic_chunks_worker`],
//! [`crate::reduce::transform_reduce`], both phases of the merge sort,
//! [`run_pair`] and [`crate::taskgraph::TaskGraph::run`] —
//! the last reached only by the repo benchmark's probe since the step and
//! the service tick became plain regions) is a thin ticket body on top of it.
//!
//! ## The primitive
//!
//! `run(parts, f)` executes `f(0)`, …, `f(parts - 1)` exactly once each and
//! returns when every ticket has retired and no pool worker can still reach
//! the job. A *ticket* is what a spawned scoped thread used to be: one
//! chunk-claiming loop, one deque worker loop, one sort run, one merge pair.
//! The calling thread takes part: it always runs ticket 0 itself, then
//! claims further tickets from the same counter the workers use.
//!
//! * **Dispatch is allocation-free.** The job descriptor lives on the
//!   caller's stack and is published by pointer on a small fixed *job board*;
//!   the borrowed closure's lifetime is erased under the argument
//!   `std::thread::scope` makes — the caller does not return (or unwind)
//!   before every participant has left the job.
//! * **Workers are created lazily and live for the process.** An idle worker
//!   scans the board for a bounded, fixed spin budget and then parks on a
//!   `Condvar`, so back-to-back regions inside a step find it hot and an idle
//!   process burns no CPU. A caller that has run out of tickets waits for
//!   its helpers the same way: the same spin budget, then asleep until the
//!   last helper leaves the job.
//! * **A job carries its caller's setting.** The caller passes the
//!   execution setting it resolved for the region (`crate::backend`'s
//!   thread-local value), and a pool worker runs the job's tickets under it,
//!   so a region a ticket opens sees the thread count of the thread that
//!   opened the job, on whichever thread the ticket runs.
//! * **At most `threads - 1` workers take part in, or spin for, a
//!   job** (the caller is the remaining participant). Tickets beyond that are
//!   multiplexed over the participants. Workers left over from an earlier,
//!   larger `with_threads(n)` park on a second `Condvar` that is signalled
//!   only when the thread count grows again: on a 2-vCPU host, letting the
//!   merge sort's 8 runs wake 7 spinning workers doubled the step time of
//!   the small-N benchmark workload (EXPERIMENTS.md).
//!
//! ## The invariant every call site keeps
//!
//! **Any single participant can finish a whole job alone.** Claim loops exit
//! when the shared cursor is exhausted, sort runs and merge pairs are
//! independent, deque worker loops steal from every deque and exit on
//! `remaining == 0`, and a lock-bit holder releases before its chunk ends.
//! A ticket therefore never waits for a ticket that has not *started*. That is what makes the pool
//! deadlock-free by construction: a region opened inside a region, or by a
//! second thread while the workers are busy (cargo's parallel test threads
//! share this one process-global pool), simply runs its own tickets; a caller
//! that finds the board full runs the whole job inline. Idle workers help any
//! job on the board, so `run_pair` plus a nested region keep their overlap.
//!
//! ## What each execution policy receives
//!
//! * `Seq` never reaches this module.
//! * `Par` — *parallel forward progress*: every started ticket runs on a real
//!   OS thread that the kernel eventually reschedules, and a ticket never
//!   migrates between threads mid-run, so a ticket spinning on a lock bit
//!   held by another started ticket always sees it released (the Concurrent
//!   Octree build).
//! * `ParUnseq` — *weakly parallel*: the same threads, but the caller
//!   promised lock-freedom, so tickets are also free to be multiplexed in any
//!   order on any participant.
//! * `Backend::DetPar` never reaches this module: it is a single-threaded
//!   schedule replay.
//!
//! ## Panics
//!
//! A panicking ticket is caught where it ran (pool worker or caller), the
//! first payload is kept, unclaimed tickets are skipped, and the payload is
//! re-raised on the caller after the job has drained — `PanicCell`'s
//! first-payload semantics. Workers survive.

use crate::backend::{current, scoped, Backend, PanicCell, Setting};
use std::cell::Cell;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Jobs that can be open to helpers at once. More than one so that a region
/// nested in `run_pair` (or opened by a second caller thread) still gets
/// help; a caller that finds every slot taken runs inline.
const BOARD_SLOTS: usize = 4;

/// Failed board scans an idle worker (or a caller waiting for its helpers)
/// spins through before it parks. A private constant, not a
/// setting: long enough to bridge the serial code between two regions of a
/// step (a scan is five loads and a `pause`: the budget lasts about 0.1 ms
/// on the 2.1 GHz reference host, several times that where `pause` is
/// slow), short enough that a worker is parked within a millisecond of the
/// last region.
const SPIN_BUDGET: u32 = 1 << 13;

/// One region, on its caller's stack for exactly as long as [`run`] runs.
struct Job {
    /// The ticket body, lifetime erased (see the module header).
    f: *const (dyn Fn(usize) + Sync),
    parts: usize,
    /// Next unclaimed ticket. Starts at 1: ticket 0 is the caller's.
    next: AtomicUsize,
    /// Pool workers admitted so far (never decremented: it bounds how many
    /// distinct threads ever run tickets of this job).
    helpers: AtomicUsize,
    max_helpers: usize,
    /// The caller's setting, which its helpers run the tickets under.
    setting: Setting,
    panics: PanicCell,
}

impl Job {
    /// Would [`admit`](Job::admit) succeed: tickets are left and the job's
    /// share of the pool is not used up.
    fn joinable(&self) -> bool {
        // relaxed-ok: `next` is a hint here (claiming re-checks it) and
        // `helpers` is a plain admission count; neither publishes data.
        self.next.load(Ordering::Relaxed) < self.parts
            && self.helpers.load(Ordering::Relaxed) < self.max_helpers
    }

    /// Admit one more pool worker, if the job is still joinable.
    fn admit(&self) -> bool {
        // relaxed-ok: admission count only, see `joinable`.
        self.joinable()
            && self
                .helpers
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| {
                    (h < self.max_helpers).then_some(h + 1)
                })
                .is_ok()
    }

    fn run_ticket(&self, ticket: usize) {
        // SAFETY: `f` outlives the job — `run` borrows it for its whole
        // body and does not return before every participant has detached.
        let f = unsafe { &*self.f };
        self.panics.run(|| f(ticket));
    }

    /// Claim and run tickets until none are left (or one panicked). Whoever
    /// claims the last ticket takes the job off the board first, so idle
    /// workers stop attaching to a job that has nothing left to hand out.
    fn drain(&self, slot: &Slot) {
        while !self.panics.poisoned() {
            // relaxed-ok: the RMW's atomicity alone makes claims disjoint;
            // ticket data is published by the board slot (SeqCst) on the way
            // in and by the `refs` decrement on the way out.
            let ticket = self.next.fetch_add(1, Ordering::Relaxed);
            if ticket >= self.parts {
                break;
            }
            if ticket + 1 == self.parts {
                slot.job.store(ptr::null_mut(), Ordering::SeqCst);
            }
            self.run_ticket(ticket);
        }
    }
}

/// One board position. `busy` is the owning caller's claim, `job` the
/// published descriptor (null while unpublished), `refs` the number of
/// workers that may be dereferencing it. `waiting`, `gate` and `released`
/// are where the owning caller sleeps once it has outspun its helpers.
#[repr(align(64))]
struct Slot {
    busy: AtomicBool,
    job: AtomicPtr<Job>,
    refs: AtomicUsize,
    waiting: AtomicBool,
    gate: Mutex<()>,
    released: Condvar,
}

static BOARD: [Slot; BOARD_SLOTS] = [const {
    Slot {
        busy: AtomicBool::new(false),
        job: AtomicPtr::new(ptr::null_mut()),
        refs: AtomicUsize::new(0),
        waiting: AtomicBool::new(false),
        gate: Mutex::new(()),
        released: Condvar::new(),
    }
}; BOARD_SLOTS];

impl Slot {
    /// Run `with` on the published job, if any, holding a reference that
    /// keeps its caller from leaving.
    ///
    /// Soundness is a Dekker handshake over SeqCst operations: the worker
    /// increments `refs` and *then* reads `job`; the caller clears `job` and
    /// *then* waits for `refs == 0`. Either the caller sees the reference
    /// and waits, or the worker sees null (or a later, live job — the slot
    /// is not handed to another caller before `refs` has been seen at 0).
    fn attach<R>(&self, with: impl FnOnce(&Job) -> R) -> Option<R> {
        // relaxed-ok: a peek that only saves the RMW below on an empty slot;
        // the decision is re-made on the SeqCst load.
        if self.job.load(Ordering::Relaxed).is_null() {
            return None;
        }
        self.refs.fetch_add(1, Ordering::SeqCst);
        let job = self.job.load(Ordering::SeqCst);
        // SAFETY: non-null and read after the `refs` increment, so the
        // owning caller is still inside `run` (see above).
        let out = (!job.is_null()).then(|| with(unsafe { &*job }));
        // The last reference out wakes a caller asleep in `Published::drop`.
        // Same handshake, other direction: the caller raises `waiting` and
        // *then* reads `refs`, so it either sees this decrement or is seen
        // here. Taking `gate` orders the notification after its `wait`. The
        // slot is static, so touching it past the decrement is sound even
        // though the caller may already have left.
        if self.refs.fetch_sub(1, Ordering::SeqCst) == 1 && self.waiting.load(Ordering::SeqCst) {
            let _gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
            self.released.notify_one();
        }
        out
    }
}

/// Takes the job off the board and waits until no worker can reach it —
/// from a drop guard, so the caller's stack frame outlives every reference
/// to it on every path out of [`run`]. The wait spins for [`SPIN_BUDGET`]
/// (helpers of a balanced region finish within it) and then sleeps until
/// the last helper leaves, so a caller behind one long ticket leaves its
/// core to whoever else has work.
struct Published<'a>(&'a Slot);

impl Drop for Published<'_> {
    fn drop(&mut self) {
        let slot = self.0;
        slot.job.store(ptr::null_mut(), Ordering::SeqCst);
        let mut spins = 0u32;
        while slot.refs.load(Ordering::SeqCst) != 0 && spins < SPIN_BUDGET {
            spins += 1;
            std::hint::spin_loop();
        }
        if slot.refs.load(Ordering::SeqCst) != 0 {
            let mut gate = slot.gate.lock().unwrap_or_else(|e| e.into_inner());
            slot.waiting.store(true, Ordering::SeqCst);
            while slot.refs.load(Ordering::SeqCst) != 0 {
                gate = slot.released.wait(gate).unwrap_or_else(|e| e.into_inner());
            }
            slot.waiting.store(false, Ordering::SeqCst);
        }
        slot.busy.store(false, Ordering::Release);
    }
}

/// Worker bookkeeping. The mutex guards the number of workers spawned so far
/// and serialises every change of [`LIMIT`]; it is never taken on the
/// dispatch path while the workers a job needs are awake.
static SPAWNED_LOCK: Mutex<usize> = Mutex::new(0);
/// Mirror of the guarded count, for the lock-free fast path of [`run`].
static SPAWNED: AtomicUsize = AtomicUsize::new(0);
/// Workers with an id below this may scan and spin; the rest stay parked.
/// Tracks `threads - 1` of the latest region's setting.
static LIMIT: AtomicUsize = AtomicUsize::new(0);
/// Eligible workers currently parked on [`IDLE`].
static PARKED: AtomicUsize = AtomicUsize::new(0);
/// Where eligible workers sleep once their spin budget is spent.
static IDLE: Condvar = Condvar::new();
/// Where workers beyond [`LIMIT`] sleep until the thread count grows.
static RETIRED: Condvar = Condvar::new();

fn lock() -> MutexGuard<'static, usize> {
    // The guarded count is valid at every step, so a poisoned lock (a
    // failed thread spawn that panicked) is safe to keep using.
    SPAWNED_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Slow path of [`run`]: move [`LIMIT`] to `limit` and make sure `helpers`
/// workers exist. Allocates (thread spawn) — warm-up only.
#[cold]
fn prepare(limit: usize, helpers: usize) {
    let mut spawned = lock();
    let old = LIMIT.swap(limit, Ordering::SeqCst);
    if limit > old {
        RETIRED.notify_all();
    } else if limit < old {
        // Sleepers beyond the new limit move over to `RETIRED`.
        IDLE.notify_all();
    }
    while *spawned < helpers {
        let id = *spawned;
        let builder = std::thread::Builder::new().name(format!("stdpar-worker-{id}"));
        // Workers are detached on purpose: they live for the process, never
        // unwind (tickets are caught) and hold no resource to release.
        if builder.spawn(move || worker_main(id)).is_err() {
            // No thread to be had: the job still completes, multiplexed
            // over the participants that exist.
            break;
        }
        *spawned += 1;
        SPAWNED.store(*spawned, Ordering::Release);
    }
}

/// Wake up to `helpers` parked workers for a job just published.
fn wake(helpers: usize) {
    let parked = PARKED.load(Ordering::SeqCst);
    if parked == 0 {
        return;
    }
    // A worker raises `PARKED` and re-checks the board under this lock, and
    // only `wait` releases it: taking it here means every worker counted
    // above is either waiting (and gets the notification) or will see the
    // job on its re-check.
    let _guard = lock();
    for _ in 0..helpers.min(parked) {
        IDLE.notify_one();
    }
}

fn worker_main(id: usize) {
    let mut spins = 0u32;
    loop {
        // relaxed-ok: eligibility hint; the parking paths re-check under
        // the lock that every `LIMIT` change holds.
        if id >= LIMIT.load(Ordering::Relaxed) {
            let mut guard = lock();
            while id >= LIMIT.load(Ordering::SeqCst) {
                guard = RETIRED.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
            continue;
        }
        let mut helped = false;
        for slot in &BOARD {
            helped |= slot.attach(|job| {
                let admitted = job.admit();
                if admitted {
                    scoped(job.setting, || job.drain(slot));
                }
                admitted
            }) == Some(true);
        }
        if helped {
            spins = 0;
            continue;
        }
        spins += 1;
        if spins < SPIN_BUDGET {
            std::hint::spin_loop();
            continue;
        }
        spins = 0;
        let guard = lock();
        PARKED.fetch_add(1, Ordering::SeqCst);
        // Re-check after announcing: a job published before the
        // announcement is seen here, one published after it sees `PARKED`.
        let joinable = BOARD.iter().any(|slot| slot.attach(Job::joinable) == Some(true));
        if !joinable && id < LIMIT.load(Ordering::SeqCst) {
            drop(IDLE.wait(guard).unwrap_or_else(|e| e.into_inner()));
        }
        PARKED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run tickets `0..parts` of `f` exactly once each, on the caller plus at
/// most `setting.threads - 1` pool workers, which run them under `setting`
/// (the caller's, resolved once for the region); return when all have
/// retired. Ticket 0 always runs on the calling thread. Re-raises the first
/// panic.
pub(crate) fn run(parts: usize, setting: Setting, f: &(dyn Fn(usize) + Sync)) {
    let threads = setting.threads;
    let helpers = parts.min(threads).saturating_sub(1);
    let slot = BOARD.iter().find(|s| {
        // relaxed-ok: failure ordering of a try-lock.
        helpers > 0
            && s.busy.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok()
    });
    let Some(slot) = slot else {
        // One participant (or a full board): the caller is the whole job.
        (0..parts).for_each(f);
        return;
    };
    let job = Job {
        // SAFETY: erases the borrow's lifetime only. `published` is dropped
        // before `f`'s borrow (and `job`) ends, and its drop returns only
        // once no worker holds a reference to `job`.
        f: unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        },
        parts,
        next: AtomicUsize::new(1),
        helpers: AtomicUsize::new(0),
        max_helpers: helpers,
        setting,
        panics: PanicCell::new(),
    };
    // From here on every way out — a panic included — clears the slot and
    // waits for its helpers before `job` (declared first, dropped last) dies.
    let published = Published(slot);
    let limit = threads - 1;
    // relaxed-ok: fast-path hints; `prepare` re-reads both under its lock.
    if LIMIT.load(Ordering::Relaxed) != limit || SPAWNED.load(Ordering::Relaxed) < helpers {
        prepare(limit, helpers);
    }
    slot.job.store(&job as *const Job as *mut Job, Ordering::SeqCst);
    wake(helpers);
    job.run_ticket(0);
    job.drain(slot);
    drop(published);
    job.panics.rethrow();
}

/// Run two independent closures, overlapping them on the real parallel
/// backend: `a` runs on the caller (ticket 0 of a two-ticket pool job),
/// `b` on whichever participant claims ticket 1 — an idle pool worker, or
/// the caller once `a` is done. Under `Backend::DetPar` (or a single-thread
/// pool) they run sequentially — `a` then `b` — so deterministic replay
/// covers the pair.
///
/// The caller guarantees `a` and `b` touch disjoint state; the results are
/// then identical in both regimes. Panics propagate with their original
/// payload (if both panic, `a`'s wins — it unwinds the caller).
pub fn run_pair<A, B>(a: impl FnOnce() -> A, b: impl FnOnce() -> B + Send) -> (A, B)
where
    B: Send,
{
    let setting = current();
    if setting.backend == Backend::DetPar || setting.threads <= 1 {
        return (a(), b());
    }
    /// A value only the calling thread touches, inside a closure the pool
    /// requires to be `Sync`.
    struct CallerOnly<T>(Cell<Option<T>>);
    // SAFETY: the cells below are accessed from ticket 0 only, which
    // `pool::run` always runs on the calling thread, and from that same
    // thread after the job — never from a pool worker.
    unsafe impl<T> Sync for CallerOnly<T> {}
    impl<T> CallerOnly<T> {
        // Methods, so that closures capture the wrapper and not its field.
        fn take(&self) -> Option<T> {
            self.0.take()
        }
        fn set(&self, value: Option<T>) {
            self.0.set(value);
        }
    }

    let a = CallerOnly(Cell::new(Some(a)));
    let ra = CallerOnly(Cell::new(None));
    // `b` and its outcome cross threads (both are `Send`).
    let b = Mutex::new(Some(b));
    let rb = Mutex::new(None);
    run(2, setting, &|ticket| {
        if ticket == 0 {
            ra.set(a.take().map(|a| a()));
        } else {
            let b = b.lock().unwrap_or_else(|e| e.into_inner()).take();
            // Caught here, not by the pool, so that `a`'s panic wins.
            let out = b.map(|b| std::panic::catch_unwind(std::panic::AssertUnwindSafe(b)));
            *rb.lock().unwrap_or_else(|e| e.into_inner()) = out;
        }
    });
    let rb = rb.into_inner().unwrap_or_else(|e| e.into_inner());
    match (ra.take(), rb) {
        (Some(ra), Some(Ok(rb))) => (ra, rb),
        (_, Some(Err(payload))) => std::panic::resume_unwind(payload),
        _ => unreachable!("pool::run returned before both tickets retired"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{dynamic_chunks_worker, hardware_parallelism, with_backend, with_threads};
    use crate::foreach::{for_each_chunk_worker, for_each_index};
    use crate::policy::{Par, ParUnseq};
    use crate::reduce::transform_reduce;
    use crate::sort::sort_unstable_by;
    use crate::taskgraph::TaskGraph;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    /// Run `body` on its own thread; fail if it has not finished in time.
    fn watchdog(body: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        let runner = thread::spawn(move || {
            body();
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(()) => runner.join().unwrap(),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().unwrap_err())
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("pool test hung"),
        }
    }

    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default()
    }

    /// One region of each shape the crate has, checked for exactly-once results.
    fn one_of_each_shape(seed: u64) {
        let n = 3_000 + (seed as usize % 7) * 100;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        for_each_index(Par, 0..n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for_each_chunk_worker(ParUnseq, 0..n, 64, |_, r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 2));

        let sum = transform_reduce(Par, 0..n, 0u64, |a, b| a + b, |i| i as u64);
        assert_eq!(sum, (n as u64 - 1) * n as u64 / 2);

        let mut keys: Vec<u64> =
            (0..n as u64).map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        sort_unstable_by(Par, &mut keys, |a, b| a.cmp(b));
        assert_eq!(keys, expect);

        let mut graph = TaskGraph::new();
        let nodes = graph.add_nodes(40);
        let sink = graph.add_node();
        for node in nodes {
            graph.add_edge(node, sink);
        }
        let ran = AtomicUsize::new(0);
        graph.run(|node, _| {
            if node == sink {
                assert_eq!(ran.load(Ordering::SeqCst), 40, "sink ran before its predecessors");
            }
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 41);

        let (a, b) = run_pair(|| seed + 1, || seed + 2);
        assert_eq!((a, b), (seed + 1, seed + 2));
    }

    #[test]
    fn run_pair_returns_both_results_everywhere() {
        let (a, b) = run_pair(|| 6 * 7, || "done");
        assert_eq!((a, b), (42, "done"));
        with_backend(Backend::DetPar, || {
            let (a, b) = run_pair(|| 1, || 2);
            assert_eq!((a, b), (1, 2));
        });
    }

    #[test]
    fn run_pair_propagates_spawned_panic() {
        let err = std::panic::catch_unwind(|| {
            run_pair(|| 0u32, || -> u32 { panic!("b failed") })
        })
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "b failed");
    }

    #[test]
    fn a_panicking_ticket_surfaces_once_and_the_worker_survives() {
        // At the default thread count (at least 2): the pool's worker
        // eligibility follows the latest region's thread count, so a lower
        // count here could retire the worker that concurrently running tests'
        // regions let take ticket 1 before the panics.
        watchdog(|| {
            with_threads(hardware_parallelism().max(2), || {
                let caller = thread::current().id();
                // The pool workers seen taking ticket 1 of a two-ticket job,
                // until `done` holds. Any eligible worker may take it, so
                // which one does is not fixed.
                let workers_until = |label: &str, done: &dyn Fn(&HashSet<ThreadId>) -> bool| {
                    let seen = Mutex::new(HashSet::new());
                    let deadline = Instant::now() + Duration::from_secs(20);
                    while !done(&seen.lock().unwrap()) {
                        assert!(Instant::now() < deadline, "no pool worker joined a job {label}");
                        run(2, current(), &|_| {
                            if thread::current().id() != caller {
                                seen.lock().unwrap().insert(thread::current().id());
                            }
                            thread::sleep(Duration::from_millis(1));
                        });
                    }
                    seen.into_inner().unwrap()
                };
                let before = workers_until("before the panics", &|seen| !seen.is_empty());
                assert_eq!(before.len(), 1);
                let before = before.into_iter().next().unwrap();

                // On the pool worker: ticket 0 (always the caller's) holds the
                // caller, for a bounded time, until ticket 1 has been taken.
                let mut on_worker = false;
                for _ in 0..200 {
                    let taken = AtomicBool::new(false);
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        run(2, current(), &|ticket| {
                            if ticket == 0 {
                                let on = thread::current().id();
                                assert_eq!(on, caller, "ticket 0 left the caller");
                                let deadline = Instant::now() + Duration::from_millis(100);
                                while !taken.load(Ordering::Acquire) && Instant::now() < deadline {
                                    thread::yield_now();
                                }
                            } else {
                                taken.store(true, Ordering::Release);
                                if thread::current().id() != caller {
                                    panic!("ticket failed on the worker");
                                }
                            }
                        })
                    }));
                    if let Err(payload) = result {
                        assert_eq!(message(payload), "ticket failed on the worker");
                        on_worker = true;
                        break;
                    }
                }
                assert!(on_worker, "the pool worker never took a ticket in 200 jobs");

                // On the caller, with the worker panicking too: one payload.
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    dynamic_chunks_worker(current(), 0..64, 1, |_, _| panic!("every chunk fails"))
                }))
                .unwrap_err();
                assert_eq!(message(payload), "every chunk fails");
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    run(2, current(), &|ticket| {
                        if ticket == 0 {
                            panic!("ticket failed on the caller");
                        }
                    })
                }))
                .unwrap_err();
                assert_eq!(message(payload), "ticket failed on the caller");

                // The next region of each shape works, and the worker that
                // took ticket 1 before the panics still takes tickets.
                one_of_each_shape(5);
                workers_until("after the panics", &|seen| seen.contains(&before));
            });
        });
    }

    /// User + system time of the calling thread, in clock ticks (10 ms).
    #[cfg(target_os = "linux")]
    fn thread_cpu_ticks() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        // Fields after the parenthesised command name; utime and stime are the
        // 14th and 15th of the line, the 12th and 13th after the name.
        let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..].split_whitespace().collect();
        fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_caller_behind_a_long_ticket_sleeps() {
        watchdog(|| {
            with_threads(2, || {
                let caller = thread::current().id();
                let nap = Duration::from_millis(400);
                for attempt in 0.. {
                    assert!(attempt < 50, "the pool worker never took the long ticket");
                    let taken = AtomicBool::new(false);
                    let on_worker = AtomicBool::new(false);
                    let before = thread_cpu_ticks();
                    run(2, current(), &|ticket| {
                        if ticket == 0 {
                            // Hold the caller (asleep, for a bounded time) until
                            // ticket 1 has been taken.
                            let deadline = Instant::now() + Duration::from_millis(100);
                            while !taken.load(Ordering::Acquire) && Instant::now() < deadline {
                                thread::sleep(Duration::from_millis(1));
                            }
                        } else {
                            taken.store(true, Ordering::Release);
                            if thread::current().id() != caller {
                                on_worker.store(true, Ordering::Release);
                                thread::sleep(nap);
                            }
                        }
                    });
                    let burnt = thread_cpu_ticks() - before;
                    if on_worker.load(Ordering::Acquire) {
                        // The caller waited ~400 ms for its helper: a spinning
                        // or yielding wait reads ~40 ticks here, a sleeping one
                        // the spin budget (well under one tick).
                        assert!(burnt <= 10, "caller burnt {burnt} ticks waiting for its helper");
                        break;
                    }
                }
            });
        });
    }
}
