//! `std::for_each` analogues.
//!
//! [`for_each_index`] is the workhorse: the paper's kernels are all
//! `for_each(policy, views::iota(0, n), ...)` loops over body or node
//! indices (Algorithm 1). Under `par` the elements are scheduled
//! fine-grained and dynamically (each may block briefly on a lock); under
//! `par_unseq` they run in large contiguous chunks whose inner loop the
//! compiler can vectorize.
//!
//! Every loop here is a chunk loop: [`for_each_index`], [`for_each`] and
//! [`for_each_chunk_worker`] hand their chunks to `run_chunks`, which reads
//! the calling thread's setting once, takes the grain under it (the
//! policy's, or the caller's) and is the one place that runs chunks in
//! sequence or chooses the backend's executor.

use crate::backend::{current, Backend, Setting};
use crate::policy::ExecutionPolicy;
use std::ops::Range;

/// The chunk size a policy's element loops use: fine-grained claiming
/// under `Par` balances uneven per-element cost; large contiguous blocks
/// under `ParUnseq` keep a tight inner loop for vectorization.
fn policy_grain<P: ExecutionPolicy>(setting: Setting, n: usize) -> usize {
    if P::UNSEQUENCED {
        setting.unseq_grain(n)
    } else {
        setting.par_grain(n)
    }
}

/// Invoke `f(i)` for every `i` in `range` under `policy`.
pub fn for_each_index<P: ExecutionPolicy>(
    _policy: P,
    range: Range<usize>,
    f: impl Fn(usize) + Sync + Send,
) {
    let n = range.len();
    run_chunks::<P>(range, |s| policy_grain::<P>(s, n), |_, r| r.for_each(&f));
}

/// Invoke `f` on every element of `items` under `policy`.
pub fn for_each<P: ExecutionPolicy, T: Send>(
    _policy: P,
    items: &mut [T],
    f: impl Fn(&mut T) + Sync + Send,
) {
    let base = items.as_mut_ptr() as usize;
    let len = items.len();
    run_chunks::<P>(0..len, |s| policy_grain::<P>(s, len), move |_, r| {
        // SAFETY: chunks are disjoint index ranges over one slice.
        let ptr = base as *mut T;
        for i in r {
            f(unsafe { &mut *ptr.add(i) });
        }
    });
}

/// Invoke `f(worker, chunk_range)` over contiguous `grain`-sized chunks of
/// `range` (grain-level parallelism for kernels that manage their own inner
/// loop). Worker indices are dense (`0..workers`, bounded by
/// [`crate::backend::max_workers`]) and never observed concurrently by two
/// threads, so callers can key per-worker scratch state — reusable
/// interaction lists, local accumulators — without locks, which keeps the
/// combination valid even under `ParUnseq` (weakly parallel forward
/// progress forbids blocking). Under `Seq` the single worker has index 0.
pub fn for_each_chunk_worker<P: ExecutionPolicy>(
    _policy: P,
    range: Range<usize>,
    grain: usize,
    f: impl Fn(usize, Range<usize>) + Sync + Send,
) {
    run_chunks::<P>(range, |_| grain, f);
}

/// The one chunk loop: read the calling thread's setting once, take the
/// grain `grain` picks under it, and run the chunks in order on the caller
/// under `Seq` (worker 0), else on the executor of the setting's backend.
fn run_chunks<P: ExecutionPolicy>(
    range: Range<usize>,
    grain: impl FnOnce(Setting) -> usize,
    f: impl Fn(usize, Range<usize>) + Sync + Send,
) {
    let setting = current();
    let grain = grain(setting).max(1);
    if !P::IS_PARALLEL {
        let mut s = range.start;
        while s < range.end {
            let e = (s + grain).min(range.end);
            f(0, s..e);
            s = e;
        }
        return;
    }
    match setting.backend {
        Backend::Dynamic => crate::backend::dynamic_chunks_worker(setting, range, grain, f),
        Backend::DetPar => crate::detpar::det_chunks_worker(range, grain, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{max_workers, with_backend};
    use crate::policy::{Par, ParUnseq, Seq};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn check_visits_all<P: ExecutionPolicy + Copy>(p: P) {
        for backend in [Backend::Dynamic, Backend::DetPar] {
            with_backend(backend, || {
                let n = 4321;
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                for_each_index(p, 0..n, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "policy={} backend={}",
                    P::NAME,
                    backend.name()
                );
            });
        }
    }

    #[test]
    fn for_each_index_visits_all_seq() {
        check_visits_all(Seq);
    }

    #[test]
    fn for_each_index_visits_all_par() {
        check_visits_all(Par);
    }

    #[test]
    fn for_each_index_visits_all_par_unseq() {
        check_visits_all(ParUnseq);
    }

    #[test]
    fn for_each_index_empty_range() {
        for_each_index(Par, 5..5, |_| panic!("must not run"));
    }

    #[test]
    fn for_each_mutates_every_element() {
        for backend in [Backend::Dynamic, Backend::DetPar] {
            with_backend(backend, || {
                let mut v: Vec<u64> = (0..10_000).collect();
                for_each(Par, &mut v, |x| *x *= 2);
                assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i as u64));

                let mut w: Vec<u64> = (0..10_000).collect();
                for_each(ParUnseq, &mut w, |x| *x += 1);
                assert!(w.iter().enumerate().all(|(i, &x)| x == i as u64 + 1));

                let mut u: Vec<u64> = (0..97).collect();
                for_each(Seq, &mut u, |x| *x = 0);
                assert!(u.iter().all(|&x| x == 0));
            });
        }
    }

    #[test]
    fn par_supports_blocking_critical_sections() {
        // Starvation-free lock use must complete under `par` (parallel
        // forward progress): every element briefly takes the same lock.
        let lock = std::sync::Mutex::new(0u64);
        for_each_index(Par, 0..1000, |_| {
            *lock.lock().unwrap() += 1;
        });
        assert_eq!(*lock.lock().unwrap(), 1000);
    }

    #[test]
    fn panicking_element_propagates_message() {
        // The executor's panic-safety contract, visible at the algorithm
        // level: the original message survives.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_index(Par, 0..50_000, |i| {
                if i == 17 {
                    panic!("element 17 failed");
                }
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "element 17 failed");
    }

    #[test]
    fn for_each_chunk_worker_indices_are_bounded() {
        for backend in [Backend::Dynamic, Backend::DetPar] {
            with_backend(backend, || {
                let n = 5000;
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                for_each_chunk_worker(Par, 0..n, 64, |w, r| {
                    assert!(w < max_workers());
                    assert!(r.len() <= 64 && !r.is_empty());
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            });
        }
        // Seq runs everything on worker 0.
        for_each_chunk_worker(Seq, 0..100, 9, |w, _| assert_eq!(w, 0));
    }
}
