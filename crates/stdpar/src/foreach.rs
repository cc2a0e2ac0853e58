//! `std::for_each` analogues.
//!
//! [`for_each_index`] is the workhorse: the paper's kernels are all
//! `for_each(policy, views::iota(0, n), ...)` loops over body or node
//! indices (Algorithm 1). Under `par` the elements are scheduled
//! fine-grained and dynamically (each may block briefly on a lock); under
//! `par_unseq` they run in large contiguous chunks whose inner loop the
//! compiler can vectorize.
//!
//! Every loop here is a chunk loop: [`for_each_index`] and [`for_each`] pick
//! the policy's grain and hand their chunks to [`for_each_chunk_worker`],
//! the one place that chooses the backend's executor.

use crate::backend::{current_backend, par_grain, unseq_grain, Backend};
use crate::policy::ExecutionPolicy;
use std::ops::Range;

/// The chunk size a policy's element loops use: fine-grained claiming
/// under `Par` balances uneven per-element cost; large contiguous blocks
/// under `ParUnseq` keep a tight inner loop for vectorization.
fn policy_grain<P: ExecutionPolicy>(n: usize) -> usize {
    if P::UNSEQUENCED {
        unseq_grain(n)
    } else {
        par_grain(n)
    }
}

/// Invoke `f(i)` for every `i` in `range` under `policy`.
pub fn for_each_index<P: ExecutionPolicy>(
    policy: P,
    range: Range<usize>,
    f: impl Fn(usize) + Sync + Send,
) {
    let grain = policy_grain::<P>(range.len());
    for_each_chunk_worker(policy, range, grain, |_, r| r.for_each(&f));
}

/// Invoke `f` on every element of `items` under `policy`.
pub fn for_each<P: ExecutionPolicy, T: Send>(
    policy: P,
    items: &mut [T],
    f: impl Fn(&mut T) + Sync + Send,
) {
    let base = items.as_mut_ptr() as usize;
    let len = items.len();
    for_each_chunk_worker(policy, 0..len, policy_grain::<P>(len), move |_, r| {
        // SAFETY: chunks are disjoint index ranges over one slice.
        let ptr = base as *mut T;
        for i in r {
            f(unsafe { &mut *ptr.add(i) });
        }
    });
}

/// Invoke `f(chunk_range)` over contiguous chunks of `range` (grain-level
/// parallelism for kernels that manage their own inner loop).
pub fn for_each_chunk<P: ExecutionPolicy>(
    policy: P,
    range: Range<usize>,
    grain: usize,
    f: impl Fn(Range<usize>) + Sync + Send,
) {
    for_each_chunk_worker(policy, range, grain, |_, r| f(r));
}

/// [`for_each_chunk`] with the executing worker's index passed to `f`
/// alongside each chunk. Worker indices are dense (`0..workers`, bounded by
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
    let grain = grain.max(1);
    if !P::IS_PARALLEL {
        let mut s = range.start;
        while s < range.end {
            let e = (s + grain).min(range.end);
            f(0, s..e);
            s = e;
        }
        return;
    }
    match current_backend() {
        Backend::Dynamic => crate::backend::dynamic_chunks_worker(range, grain, f),
        Backend::DetPar => crate::detpar::det_chunks_worker(range, grain, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{max_workers, test_lock, with_backend};
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
        let _lock = test_lock();
        check_visits_all(Seq);
    }

    #[test]
    fn for_each_index_visits_all_par() {
        let _lock = test_lock();
        check_visits_all(Par);
    }

    #[test]
    fn for_each_index_visits_all_par_unseq() {
        let _lock = test_lock();
        check_visits_all(ParUnseq);
    }

    #[test]
    fn for_each_index_empty_range() {
        for_each_index(Par, 5..5, |_| panic!("must not run"));
    }

    #[test]
    fn for_each_mutates_every_element() {
        let _lock = test_lock();
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
    fn for_each_chunk_covers_range_once() {
        let _lock = test_lock();
        for backend in [Backend::Dynamic, Backend::DetPar] {
            with_backend(backend, || {
                let n = 1000;
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                for_each_chunk(Par, 0..n, 64, |r| {
                    assert!(r.len() <= 64 && !r.is_empty());
                    for i in r {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
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
        let _lock = test_lock();
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
        let _lock = test_lock();
        for backend in [Backend::Dynamic, Backend::DetPar] {
            with_backend(backend, || {
                let n = 5000;
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                for_each_chunk_worker(Par, 0..n, 64, |w, r| {
                    assert!(w < max_workers());
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
