//! `std::for_each` analogues.
//!
//! [`for_each_index`] is the workhorse: the paper's kernels are all
//! `for_each(policy, views::iota(0, n), ...)` loops over body or node
//! indices (Algorithm 1). Under `par` the elements are scheduled
//! fine-grained and dynamically (each may block briefly on a lock); under
//! `par_unseq` they run in large contiguous chunks whose inner loop the
//! compiler can vectorize.

use crate::backend::{
    current_backend, dynamic_chunks, par_grain, scoped_chunks, unseq_grain, Backend,
};
use crate::policy::ExecutionPolicy;
use std::ops::Range;

/// Invoke `f(i)` for every `i` in `range` under `policy`.
pub fn for_each_index<P: ExecutionPolicy>(
    _policy: P,
    range: Range<usize>,
    f: impl Fn(usize) + Sync + Send,
) {
    if !P::IS_PARALLEL {
        for i in range {
            f(i);
        }
        return;
    }
    match current_backend() {
        Backend::Dynamic => {
            let grain = if P::UNSEQUENCED {
                // Large contiguous blocks; tight inner loop for vectorization.
                unseq_grain(range.len())
            } else {
                // Fine-grained claiming balances uneven per-element cost.
                par_grain(range.len())
            };
            dynamic_chunks(range, grain, |r| {
                for i in r {
                    f(i);
                }
            });
        }
        Backend::Threads => {
            scoped_chunks(range, |_, r| {
                for i in r {
                    f(i);
                }
            });
        }
        Backend::DetPar => {
            let grain = if P::UNSEQUENCED { unseq_grain(range.len()) } else { par_grain(range.len()) };
            crate::detpar::det_chunks_worker(range, grain, |_, r| {
                for i in r {
                    f(i);
                }
            });
        }
    }
}

/// The `ci`-th grain-sized chunk of `range` (last chunk may be short),
/// computed arithmetically so chunked loops need no chunk-list allocation.
#[inline]
fn grain_chunk(range: &Range<usize>, grain: usize, ci: usize) -> Range<usize> {
    let s = range.start + ci * grain;
    s..(s + grain).min(range.end)
}

/// Invoke `f` on every element of `items` under `policy`.
pub fn for_each<P: ExecutionPolicy, T: Send>(
    _policy: P,
    items: &mut [T],
    f: impl Fn(&mut T) + Sync + Send,
) {
    if !P::IS_PARALLEL {
        for t in items.iter_mut() {
            f(t);
        }
        return;
    }
    let base = items.as_mut_ptr() as usize;
    let len = items.len();
    let touch = move |r: Range<usize>| {
        // SAFETY: chunks are disjoint index ranges over one slice.
        let ptr = base as *mut T;
        for i in r {
            f(unsafe { &mut *ptr.add(i) });
        }
    };
    match current_backend() {
        Backend::Dynamic => {
            let grain = if P::UNSEQUENCED { unseq_grain(len) } else { par_grain(len) };
            dynamic_chunks(0..len, grain, touch);
        }
        Backend::Threads => scoped_chunks(0..len, move |_, r| touch(r)),
        Backend::DetPar => {
            let grain = if P::UNSEQUENCED { unseq_grain(len) } else { par_grain(len) };
            crate::detpar::det_chunks_worker(0..len, grain, move |_, r| touch(r));
        }
    }
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
/// [`crate::backend::thread_count`]) and never observed concurrently by two
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
        Backend::Threads => {
            // Static distribution of grain-sized chunks over workers.
            let nchunks = range.len().div_ceil(grain);
            scoped_chunks(0..nchunks, |w, cis| {
                for ci in cis {
                    f(w, grain_chunk(&range, grain, ci));
                }
            });
        }
        Backend::DetPar => crate::detpar::det_chunks_worker(range, grain, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{test_lock, with_backend, Backend};
    use crate::policy::{Par, ParUnseq, Seq};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn check_visits_all<P: ExecutionPolicy + Copy>(p: P) {
        for backend in Backend::ALL {
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
        for backend in Backend::ALL {
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
        for backend in Backend::ALL {
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
        // The tentpole's panic-safety contract, visible at the algorithm
        // level: the original message survives both backends.
        for backend in Backend::ALL {
            with_backend(backend, || {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    for_each_index(Par, 0..50_000, |i| {
                        if i == 17 {
                            panic!("element 17 failed");
                        }
                    });
                }))
                .unwrap_err();
                let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
                assert_eq!(msg, "element 17 failed", "backend={}", backend.name());
            });
        }
    }

    #[test]
    fn grain_chunks_partition() {
        let range = 3..103usize;
        let grain = 7;
        let nchunks = range.len().div_ceil(grain);
        let chunks: Vec<_> = (0..nchunks).map(|ci| grain_chunk(&range, grain, ci)).collect();
        let total: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(total, 100);
        assert_eq!(chunks[0].start, 3);
        assert_eq!(chunks.last().unwrap().end, 103);
        assert!(chunks.iter().all(|c| c.len() <= 7 && !c.is_empty()));
        // Contiguous.
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn for_each_chunk_worker_indices_are_bounded() {
        let _lock = test_lock();
        use crate::backend::thread_count;
        for backend in Backend::ALL {
            with_backend(backend, || {
                let n = 5000;
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                for_each_chunk_worker(Par, 0..n, 64, |w, r| {
                    assert!(w < thread_count());
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
