//! DetPar — the deterministic schedule-replay executor.
//!
//! The paper's correctness argument for the concurrent octree is scheduler
//! independence: the build must be correct under *any* interleaving that
//! satisfies the stated forward-progress guarantees. The real backend
//! only ever exercises whatever interleavings the OS happens to produce, so
//! this module adds a second substrate, [`Backend::DetPar`]
//! (`crate::backend::Backend::DetPar`): a single-threaded executor that runs
//! every parallel region as an *explicit* interleaving of chunk-granular
//! steps chosen by a seeded scheduler. The same seed replays the same
//! interleaving byte-for-byte, so a failure found by fuzzing the schedule
//! space reproduces from one integer.
//!
//! ## Execution model
//!
//! A region of `n` indices is split into grain-sized chunks exactly like the
//! real backend. Chunk `c` belongs to *virtual worker* `c % W` (with
//! `W = virtual_workers().min(nchunks)` — virtual, so a 1-core CI runner
//! explores the same interleavings as a workstation), and each worker's
//! chunks form its
//! program order: the scheduler only ever runs the *head* chunk of a
//! worker's queue, mirroring how a real thread executes its claims in
//! sequence. One **step** is one whole chunk run to completion; between
//! steps the installed [invariant probes](with_probe) fire, which is what
//! lets a weakened publish edge be observed *mid-region* at a deterministic
//! point instead of by luck.
//!
//! ## Schedule modes
//!
//! * [`ScheduleMode::RoundRobin`] — cycle through workers with pending
//!   steps (the "fair OS" schedule);
//! * [`ScheduleMode::Lifo`] — always the highest-index pending worker
//!   (workers complete in reverse, maximally unfair to low indices);
//! * [`ScheduleMode::Random`] — uniform seeded choice among pending
//!   workers;
//! * [`ScheduleMode::Adversarial`] — last-writer-first-descheduled: never
//!   re-run the worker that just ran while any other has pending steps
//!   (seeded tie-break). This maximally separates each worker's
//!   consecutive steps, scheduling every other worker *between* a worker's
//!   publish-side stores — the interleaving a misordered flag/data pair
//!   fears most;
//! * [`ScheduleMode::Trace`] — replay a recorded worker sequence (see
//!   [`record_trace`] / [`replay_trace`]), for shrinking a fuzz failure to
//!   an exact pinned schedule.
//!
//! All scheduler state is **thread-local**: concurrent `#[test]` threads
//! each get their own seed/mode/trace/probes and cannot perturb each
//! other's determinism assertions. Only the backend *selection*
//! ([`crate::backend::set_backend`]) remains process-global, like the real
//! substrates.
//!
//! DetPar trades throughput for control — it allocates its queue state per
//! region and runs on one thread, so it is never the default backend and the
//! zero-allocation gate does not run it; tests opt in explicitly via
//! `with_backend(Backend::DetPar, ..)`.

use nbody_telemetry::record;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;

/// How the DetPar scheduler picks the next virtual worker (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Fair cycle over workers with pending steps.
    RoundRobin,
    /// Highest-index pending worker first.
    Lifo,
    /// Uniform seeded choice among pending workers.
    Random,
    /// Never re-run the just-ran worker while another is pending.
    Adversarial,
    /// Replay the next recorded region trace (falls back to round-robin
    /// when the trace is missing or exhausted mid-region).
    Trace,
}

impl ScheduleMode {
    /// The self-contained modes a fuzz sweep iterates ([`Trace`]
    /// needs a recorded trace, so it is excluded).
    ///
    /// [`Trace`]: ScheduleMode::Trace
    pub const ALL: [ScheduleMode; 4] = [
        ScheduleMode::RoundRobin,
        ScheduleMode::Lifo,
        ScheduleMode::Random,
        ScheduleMode::Adversarial,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ScheduleMode::RoundRobin => "round-robin",
            ScheduleMode::Lifo => "lifo",
            ScheduleMode::Random => "random",
            ScheduleMode::Adversarial => "adversarial",
            ScheduleMode::Trace => "trace",
        }
    }
}

/// Per-thread scheduler state. Thread-local by design: the executor itself
/// is single-threaded, and test harnesses run many tests concurrently.
struct DetState {
    seed: u64,
    mode: ScheduleMode,
    /// Regions executed since the innermost [`with_schedule`] scope opened;
    /// salts the per-region RNG so consecutive regions of one pipeline get
    /// distinct (but still seed-determined) interleavings.
    region: u64,
    recording: bool,
    recorded: Vec<Vec<u32>>,
    replay: VecDeque<Vec<u32>>,
    probes: Vec<Rc<dyn Fn()>>,
}

impl DetState {
    fn new() -> Self {
        DetState {
            seed: 0,
            mode: ScheduleMode::RoundRobin,
            region: 0,
            recording: false,
            recorded: Vec::new(),
            replay: VecDeque::new(),
            probes: Vec::new(),
        }
    }
}

thread_local! {
    static STATE: RefCell<DetState> = RefCell::new(DetState::new());
}

/// DetPar's virtual worker count: enough queues that round-robin, LIFO and
/// adversarial schedules are structurally distinct, small enough that
/// per-worker scratch stays cheap. A constant, independent of the host CPU
/// count on purpose: schedule fuzzing must explore the same interleavings on
/// a 1-core CI runner as on a workstation.
pub const fn virtual_workers() -> usize {
    4
}

/// Set this thread's DetPar seed and schedule mode and reset the region
/// counter (so the next region sequence replays from scratch).
pub fn set_schedule(seed: u64, mode: ScheduleMode) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.seed = seed;
        s.mode = mode;
        s.region = 0;
    });
}

/// This thread's current DetPar (seed, mode).
pub fn schedule() -> (u64, ScheduleMode) {
    STATE.with(|s| {
        let s = s.borrow();
        (s.seed, s.mode)
    })
}

/// Run `f` under the given seed and mode, restoring the previous schedule
/// (and region counter) afterwards — including on panic, via a drop guard
/// like [`crate::backend::with_backend`]. Entering the scope resets the
/// region counter, so a pipeline wrapped in `with_schedule(seed, mode, ..)`
/// replays identically every time it is wrapped with the same seed.
pub fn with_schedule<R>(seed: u64, mode: ScheduleMode, f: impl FnOnce() -> R) -> R {
    struct Restore {
        seed: u64,
        mode: ScheduleMode,
        region: u64,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            STATE.with(|s| {
                let mut s = s.borrow_mut();
                s.seed = self.seed;
                s.mode = self.mode;
                s.region = self.region;
            });
        }
    }
    let _restore = STATE.with(|s| {
        let s = s.borrow();
        Restore { seed: s.seed, mode: s.mode, region: s.region }
    });
    set_schedule(seed, mode);
    f()
}

/// Run `f` with `probe` installed as a between-step invariant check: the
/// DetPar executor calls every installed probe after each completed step.
/// Probes nest (scopes push/pop a stack) and are removed on exit even if
/// `f` panics. A probe that panics aborts the region like a panicking chunk.
///
/// Probes must not themselves enter a parallel region.
///
/// The probe may borrow locals (it is not required to be `'static`): the
/// octree build, for example, installs a probe borrowing the tree it is
/// concurrently building.
pub fn with_probe<R>(probe: impl Fn(), f: impl FnOnce() -> R) -> R {
    struct PopProbe;
    impl Drop for PopProbe {
        fn drop(&mut self) {
            STATE.with(|s| {
                s.borrow_mut().probes.pop();
            });
        }
    }
    let probe: Rc<dyn Fn() + '_> = Rc::new(probe);
    // SAFETY: erasing the probe's lifetime to store it in the thread-local
    // stack is sound because every clone of this Rc is confined to this
    // scope: the drop guard below pops the entry before `with_probe`
    // returns (including on unwind), and the only other clones are the
    // per-region snapshot in `det_chunks_worker`, which lives on the stack
    // of a region that runs strictly inside `f`. Nothing stashes a probe
    // beyond the region that observed it — `det_chunks_worker` must keep
    // it that way.
    let probe: Rc<dyn Fn() + 'static> = unsafe { std::mem::transmute(probe) };
    STATE.with(|s| s.borrow_mut().probes.push(probe));
    let _pop = PopProbe;
    f()
}

/// Run `f` while recording the worker sequence of every DetPar region it
/// executes; returns `f`'s result and the recorded trace (one `Vec<u32>` of
/// worker indices per region, in region order). Feed the trace back through
/// [`replay_trace`] to pin the exact interleaving.
pub fn record_trace<R>(f: impl FnOnce() -> R) -> (R, Vec<Vec<u32>>) {
    struct StopRecording;
    impl Drop for StopRecording {
        fn drop(&mut self) {
            STATE.with(|s| s.borrow_mut().recording = false);
        }
    }
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.recording = true;
        s.recorded.clear();
    });
    let _stop = StopRecording;
    let out = f();
    let trace = STATE.with(|s| std::mem::take(&mut s.borrow_mut().recorded));
    (out, trace)
}

/// Run `f` in [`ScheduleMode::Trace`], replaying `trace` region by region
/// (the shape produced by [`record_trace`]). Restores the previous schedule
/// and clears any unconsumed trace afterwards, including on panic.
pub fn replay_trace<R>(trace: Vec<Vec<u32>>, f: impl FnOnce() -> R) -> R {
    struct ClearReplay;
    impl Drop for ClearReplay {
        fn drop(&mut self) {
            STATE.with(|s| s.borrow_mut().replay.clear());
        }
    }
    STATE.with(|s| {
        s.borrow_mut().replay = trace.into();
    });
    let _clear = ClearReplay;
    let (seed, _) = schedule();
    with_schedule(seed, ScheduleMode::Trace, f)
}

/// SplitMix64 step — the executor's only entropy source, so a region's
/// interleaving is a pure function of (seed, region index, mode).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Virtual worker count for a region of `n` indices at `grain` — the
/// [`virtual_workers`] clamped to the chunk count, mirroring how
/// the real backend clamps `thread_count()`.
pub(crate) fn det_worker_count(n: usize, grain: usize) -> usize {
    virtual_workers().min(n.div_ceil(grain.max(1))).max(1)
}

/// Run `f(worker, chunk_range)` over `range` as a deterministic interleaving
/// of chunk steps (the DetPar analogue of
/// [`crate::backend::dynamic_chunks_worker`]). Single-threaded: `f` needs
/// neither `Sync` nor `Send`, and may mutate captured state (`FnMut`) —
/// the reduction path exploits this for its per-worker partials.
///
/// A panicking chunk or probe propagates immediately (there are no sibling
/// threads to join); the remaining steps are abandoned.
pub(crate) fn det_chunks_worker(
    range: Range<usize>,
    grain: usize,
    mut f: impl FnMut(usize, Range<usize>),
) {
    let n = range.len();
    if n == 0 {
        return;
    }
    let grain = grain.max(1);
    let nchunks = n.div_ceil(grain);
    let workers = det_worker_count(n, grain);

    // Pull the per-region scheduling inputs out of the thread-local in one
    // borrow; nothing below holds a borrow while user code runs, so chunks
    // and probes may freely call back into this module (nested regions,
    // probe scopes).
    let (mut rng, mode, region_trace, probes) = STATE.with(|s| {
        let mut s = s.borrow_mut();
        let region = s.region;
        s.region += 1;
        // Salt the seed with the region ordinal: distinct regions of one
        // pipeline draw independent schedules, all determined by the seed.
        let mut rng = s.seed ^ region.wrapping_mul(0xA076_1D64_78BD_642F);
        splitmix64(&mut rng);
        let region_trace = if s.mode == ScheduleMode::Trace { s.replay.pop_front() } else { None };
        (rng, s.mode, region_trace, s.probes.clone())
    });

    record!(counter STDPAR_PAR_REGIONS, 1);
    record!(counter STDPAR_CHUNKS_CLAIMED, nchunks as u64);
    record!(counter STDPAR_DET_REGIONS, 1);
    record!(counter STDPAR_DET_STEPS, nchunks as u64);
    record!(gauge STDPAR_WORKERS_HIGH_WATER, workers as u64);
    record!(hist STDPAR_GRAIN_SIZES, grain.min(n) as u64);

    // Worker w's queue is chunks {w, w+W, w+2W, ...}; `next[w]` is the head.
    // Executing the head advances it by W — each worker runs its chunks in
    // program order, like a real thread draining its claims.
    let mut next: Vec<usize> = (0..workers).collect();
    let mut pending = workers;
    let mut last: Option<usize> = None;
    let mut cursor = 0usize; // round-robin scan position
    let mut executed: Vec<u32> = Vec::new();
    let recording = STATE.with(|s| s.borrow().recording);
    let mut trace_pos = 0usize;
    let mut probe_calls = 0u64;

    while pending > 0 {
        let w = match mode {
            ScheduleMode::RoundRobin => next_pending_from(&next, nchunks, workers, cursor),
            ScheduleMode::Lifo => (0..workers).rev().find(|&w| next[w] < nchunks).unwrap(),
            ScheduleMode::Random => {
                let k = (splitmix64(&mut rng) % pending as u64) as usize;
                nth_pending(&next, nchunks, k)
            }
            ScheduleMode::Adversarial => {
                // Exclude the just-ran worker whenever any other worker has
                // pending steps: its next store-side step is maximally
                // delayed, and every peer's loads land in the gap.
                let avoid = last.filter(|_| {
                    (0..workers).filter(|&w| next[w] < nchunks).count() > 1
                });
                let candidates =
                    (0..workers).filter(|&w| next[w] < nchunks && Some(w) != avoid).count();
                let k = (splitmix64(&mut rng) % candidates as u64) as usize;
                (0..workers)
                    .filter(|&w| next[w] < nchunks && Some(w) != avoid)
                    .nth(k)
                    .unwrap()
            }
            ScheduleMode::Trace => {
                let choice = region_trace
                    .as_ref()
                    .and_then(|t| t.get(trace_pos))
                    .map(|&w| w as usize)
                    .filter(|&w| w < workers && next[w] < nchunks);
                trace_pos += 1;
                choice.unwrap_or_else(|| next_pending_from(&next, nchunks, workers, cursor))
            }
        };
        cursor = (w + 1) % workers;
        let ci = next[w];
        next[w] += workers; // the worker's next chunk in its program order
        if next[w] >= nchunks {
            pending -= 1;
        }
        last = Some(w);
        if recording {
            executed.push(w as u32);
        }
        let s = range.start + ci * grain;
        let e = (s + grain).min(range.end);
        f(w, s..e);
        for probe in &probes {
            probe();
            probe_calls += 1;
        }
    }
    if probe_calls > 0 {
        record!(counter STDPAR_DET_PROBE_CALLS, probe_calls);
    }
    if recording {
        STATE.with(|s| s.borrow_mut().recorded.push(executed));
    }
}

/// First worker with pending steps scanning circularly from `cursor`.
fn next_pending_from(next: &[usize], nchunks: usize, workers: usize, cursor: usize) -> usize {
    (0..workers)
        .map(|k| (cursor + k) % workers)
        .find(|&w| next[w] < nchunks)
        .expect("next_pending_from called with no pending worker")
}

/// `k`-th worker (in index order) among those with pending steps.
fn nth_pending(next: &[usize], nchunks: usize, k: usize) -> usize {
    next.iter()
        .enumerate()
        .filter(|(_, &nx)| nx < nchunks)
        .nth(k)
        .map(|(w, _)| w)
        .expect("nth_pending out of range")
}

/// Deterministic reduction under DetPar: chunks fold into per-worker
/// partials (each worker's chunks combine in its program order), and the
/// partials combine in worker order — so the result is a pure function of
/// (seed-independent!) chunk geometry, not of the interleaving. The
/// schedule only decides *when* each fold runs, which is exactly what the
/// fuzzer wants to vary.
pub(crate) fn det_reduce<R>(
    range: Range<usize>,
    grain: usize,
    identity: R,
    reduce_op: impl Fn(R, R) -> R,
    transform: impl Fn(usize) -> R,
) -> R
where
    R: Clone,
{
    let n = range.len();
    if n == 0 {
        return identity;
    }
    let workers = det_worker_count(n, grain);
    let mut partials: Vec<Option<R>> = vec![None; workers];
    det_chunks_worker(range, grain, |w, r| {
        let mut acc = partials[w].take().unwrap_or_else(|| identity.clone());
        for i in r {
            acc = reduce_op(acc, transform(i));
        }
        partials[w] = Some(acc);
    });
    partials.into_iter().flatten().fold(identity, reduce_op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{test_lock, with_backend, Backend};
    use crate::foreach::for_each_index;
    use crate::policy::Par;
    use std::cell::Cell;

    fn visit_order(seed: u64, mode: ScheduleMode, n: usize) -> Vec<usize> {
        let order = RefCell::new(Vec::new());
        with_backend(Backend::DetPar, || {
            with_schedule(seed, mode, || {
                det_chunks_worker(0..n, 3, |_, r| order.borrow_mut().extend(r));
            });
        });
        order.into_inner()
    }

    #[test]
    fn covers_every_index_exactly_once_in_every_mode() {
        let _lock = test_lock();
        for mode in ScheduleMode::ALL {
            for seed in [0u64, 1, 99] {
                let mut got = visit_order(seed, mode, 101);
                got.sort_unstable();
                assert_eq!(got, (0..101).collect::<Vec<_>>(), "mode={}", mode.name());
            }
        }
    }

    #[test]
    fn same_seed_same_order_different_seed_usually_differs() {
        let _lock = test_lock();
        let a = visit_order(42, ScheduleMode::Random, 400);
        let b = visit_order(42, ScheduleMode::Random, 400);
        assert_eq!(a, b, "same seed must replay identically");
        let c = visit_order(43, ScheduleMode::Random, 400);
        assert_ne!(a, c, "different seeds should explore different schedules");
    }

    #[test]
    fn worker_program_order_is_preserved() {
        let _lock = test_lock();
        // Each worker's chunks must execute in increasing chunk order no
        // matter the mode: that is the real-thread program-order model.
        for mode in ScheduleMode::ALL {
            let seen = RefCell::new(std::collections::HashMap::<usize, usize>::new());
            with_schedule(7, mode, || {
                det_chunks_worker(0..1000, 10, |w, r| {
                    let ci = r.start / 10;
                    let mut seen = seen.borrow_mut();
                    if let Some(&prev) = seen.get(&w) {
                        assert!(ci > prev, "worker {w} ran chunk {ci} after {prev}");
                    }
                    seen.insert(w, ci);
                });
            });
        }
    }

    #[test]
    fn adversarial_never_repeats_a_worker_when_avoidable() {
        let _lock = test_lock();
        let seq = RefCell::new(Vec::new());
        with_schedule(5, ScheduleMode::Adversarial, || {
            det_chunks_worker(0..100, 1, |w, _| seq.borrow_mut().push(w));
        });
        let seq = seq.into_inner();
        assert_eq!(seq.len(), 100);
        let workers = seq.iter().copied().max().unwrap() + 1;
        // Worker w owns chunks {w, w+W, ...}: how many steps each must run.
        let totals: Vec<usize> = (0..workers).map(|w| (100 - w).div_ceil(workers)).collect();
        let mut done = vec![0usize; workers];
        for (p, pair) in seq.windows(2).enumerate() {
            done[pair[0]] += 1;
            if pair[0] == pair[1] {
                // A back-to-back repeat is only legal once every *other*
                // worker's queue has drained.
                for (v, (&d, &t)) in done.iter().zip(&totals).enumerate() {
                    if v != pair[0] {
                        assert_eq!(d, t, "repeat at step {p} while worker {v} still pending");
                    }
                }
            }
        }
    }

    #[test]
    fn probes_fire_between_every_step() {
        let _lock = test_lock();
        let fired = Rc::new(Cell::new(0usize));
        let chunks = Cell::new(0usize);
        let fired_probe = Rc::clone(&fired);
        with_probe(
            move || fired_probe.set(fired_probe.get() + 1),
            || {
                with_schedule(1, ScheduleMode::RoundRobin, || {
                    det_chunks_worker(0..64, 4, |_, _| chunks.set(chunks.get() + 1));
                });
            },
        );
        assert_eq!(chunks.get(), 16);
        assert_eq!(fired.get(), 16, "one probe call per step");
    }

    #[test]
    fn probes_may_borrow_locals() {
        let _lock = test_lock();
        // A probe borrowing stack state (the shape the octree build uses:
        // the probe watches the tree it is installed around).
        let steps = Cell::new(0usize);
        let chunks = Cell::new(0usize);
        with_probe(
            || steps.set(steps.get() + 1),
            || {
                with_schedule(2, ScheduleMode::Lifo, || {
                    det_chunks_worker(0..32, 4, |_, _| chunks.set(chunks.get() + 1));
                });
            },
        );
        assert_eq!((chunks.get(), steps.get()), (8, 8));
    }

    #[test]
    fn trace_replay_pins_the_exact_interleaving() {
        let _lock = test_lock();
        fn capture() -> Vec<usize> {
            let order = RefCell::new(Vec::new());
            det_chunks_worker(0..300, 7, |_, r| order.borrow_mut().extend(r));
            order.into_inner()
        }
        let (order_a, trace) =
            record_trace(|| with_schedule(11, ScheduleMode::Random, capture));
        assert_eq!(trace.len(), 1, "one region recorded");
        let order_b = replay_trace(trace, capture);
        assert_eq!(order_a, order_b, "trace replay must reproduce the interleaving");
    }

    #[test]
    fn det_reduce_matches_sequential_fold() {
        let _lock = test_lock();
        for mode in ScheduleMode::ALL {
            for seed in [3u64, 17] {
                with_schedule(seed, mode, || {
                    let got = det_reduce(0..10_000, 64, 0u64, |a, b| a + b, |i| i as u64);
                    assert_eq!(got, 9_999 * 10_000 / 2, "mode={}", mode.name());
                });
            }
        }
    }

    #[test]
    fn for_each_index_runs_under_detpar_backend() {
        let _lock = test_lock();
        use std::sync::atomic::{AtomicU32, Ordering};
        with_backend(Backend::DetPar, || {
            with_schedule(9, ScheduleMode::Adversarial, || {
                let hits: Vec<AtomicU32> = (0..5000).map(|_| AtomicU32::new(0)).collect();
                for_each_index(Par, 0..5000, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            });
        });
    }

    #[test]
    fn with_schedule_restores_on_panic() {
        let _lock = test_lock();
        set_schedule(123, ScheduleMode::RoundRobin);
        let err = std::panic::catch_unwind(|| {
            with_schedule(456, ScheduleMode::Adversarial, || -> () {
                panic!("schedule scope failed")
            })
        });
        assert!(err.is_err());
        assert_eq!(schedule(), (123, ScheduleMode::RoundRobin));
    }
}
