//! `std::transform_reduce` and friends.
//!
//! The paper's CALCULATEBOUNDINGBOX step is exactly a `transform_reduce`
//! over body indices with a box-union reduction (Algorithm 3). The
//! reduction operator must be associative and commutative — the parallel
//! versions combine partials in unspecified order, as in C++.

use crate::backend::{current_backend, par_grain, thread_count, unseq_grain, Backend};
use crate::policy::ExecutionPolicy;
use crate::sync_slice::SyncSlice;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-ticket partials live in a stack array of this many slots instead of
/// a per-call `Vec`, so a reduction on up to this many threads allocates
/// nothing. Beyond it the partials spill to the heap (one allocation per
/// call, as before the pool); the ticket count is never capped.
const INLINE_PARTIALS: usize = 64;

/// `transform_reduce(policy, iota(range), identity, reduce, transform)`.
///
/// Maps each index through `transform` and folds the results with `reduce`,
/// starting from `identity` (which must be the neutral element).
pub fn transform_reduce<P, R>(
    _policy: P,
    range: Range<usize>,
    identity: R,
    reduce_op: impl Fn(R, R) -> R + Sync + Send,
    transform: impl Fn(usize) -> R + Sync + Send,
) -> R
where
    P: ExecutionPolicy,
    R: Send + Sync + Clone,
{
    let fold = |acc: R, r: Range<usize>| r.fold(acc, |acc, i| reduce_op(acc, transform(i)));
    if !P::IS_PARALLEL {
        return fold(identity, range);
    }
    let n = range.len();
    if n == 0 {
        return identity;
    }
    let grain = if P::UNSEQUENCED { unseq_grain(n) } else { par_grain(n).max(256) };
    match current_backend() {
        Backend::Dynamic => {
            // Self-scheduling: every ticket claims `grain`-sized chunks from
            // a shared cursor and folds them into its own accumulator.
            let cursor = AtomicUsize::new(range.start);
            let end = range.end;
            reduce_tickets(thread_count().min(n.div_ceil(grain)), identity, &reduce_op, |mut acc| {
                // A ticket that unwinds exhausts the cursor on its way out,
                // so its siblings stop at their next claim.
                let _stop = ExhaustOnUnwind { cursor: &cursor, end };
                loop {
                    // relaxed-ok: claim counter, see `dynamic_chunks_worker`.
                    let start = cursor.fetch_add(grain, Ordering::Relaxed);
                    if start >= end {
                        return acc;
                    }
                    acc = fold(acc, start..(start + grain).min(end));
                }
            })
        }
        Backend::DetPar => crate::detpar::det_reduce(range, grain, identity, reduce_op, transform),
    }
}

/// Moves a claim cursor to `end` if dropped by a panic.
struct ExhaustOnUnwind<'a> {
    cursor: &'a AtomicUsize,
    end: usize,
}

impl Drop for ExhaustOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // relaxed-ok: a stop hint; claims stay disjoint by the RMW, and
            // a ticket that misses it folds one more chunk at worst.
            self.cursor.store(self.end, Ordering::Relaxed);
        }
    }
}

/// Run `partial(identity)` for `tickets` tickets on the worker pool
/// and combine the results in ticket order. With at most one ticket the fold
/// runs inline, touching neither the pool nor the partials array.
fn reduce_tickets<R>(
    tickets: usize,
    identity: R,
    reduce_op: &(impl Fn(R, R) -> R + Sync),
    partial: impl Fn(R) -> R + Sync,
) -> R
where
    R: Send + Sync + Clone,
{
    if tickets <= 1 {
        return partial(identity);
    }
    let mut inline: [Option<R>; INLINE_PARTIALS] = std::array::from_fn(|_| None);
    let mut spilled = Vec::new();
    let partials = match inline.get_mut(..tickets) {
        Some(inline) => inline,
        None => {
            spilled.resize_with(tickets, || None);
            &mut spilled[..]
        }
    };
    let slots = SyncSlice::new(&mut *partials);
    crate::pool::run(tickets, &|t| {
        let acc = partial(identity.clone());
        // SAFETY: ticket `t` runs exactly once and is the only writer of
        // slot `t`; the slots are read again only after the job has drained.
        unsafe { slots.write(t, Some(acc)) };
    });
    // Taken out of their slots, not moved as an array: only the partials
    // that exist are touched, whatever `size_of::<R>()` is.
    partials.iter_mut().filter_map(Option::take).fold(identity, reduce_op)
}

/// Fold a slice with an associative+commutative operator.
pub fn reduce<P, T>(
    policy: P,
    items: &[T],
    identity: T,
    reduce_op: impl Fn(T, T) -> T + Sync + Send,
) -> T
where
    P: ExecutionPolicy,
    T: Send + Sync + Clone,
{
    transform_reduce(policy, 0..items.len(), identity, reduce_op, |i| items[i].clone())
}

/// Index of the minimum element under `key` (first one wins ties
/// deterministically by smallest index). Returns `None` for empty input.
pub fn min_element<P, T, K>(policy: P, items: &[T], key: impl Fn(&T) -> K + Sync) -> Option<usize>
where
    P: ExecutionPolicy,
    T: Sync,
    K: PartialOrd + Send + Sync + Clone,
{
    if items.is_empty() {
        return None;
    }
    let best = transform_reduce(
        policy,
        0..items.len(),
        None::<(usize, K)>,
        |a, b| match (a, b) {
            (None, x) => x,
            (x, None) => x,
            (Some((ia, ka)), Some((ib, kb))) => match kb.partial_cmp(&ka) {
                Some(std::cmp::Ordering::Less) => Some((ib, kb)),
                Some(std::cmp::Ordering::Equal) if ib < ia => Some((ib, kb)),
                _ => Some((ia, ka)),
            },
        },
        |i| Some((i, key(&items[i]))),
    );
    best.map(|(i, _)| i)
}

/// Index of the maximum element under `key`. See [`min_element`].
pub fn max_element<P, T, K>(policy: P, items: &[T], key: impl Fn(&T) -> K + Sync) -> Option<usize>
where
    P: ExecutionPolicy,
    T: Sync,
    K: PartialOrd + Send + Sync + Clone,
{
    if items.is_empty() {
        return None;
    }
    let best = transform_reduce(
        policy,
        0..items.len(),
        None::<(usize, K)>,
        |a, b| match (a, b) {
            (None, x) => x,
            (x, None) => x,
            (Some((ia, ka)), Some((ib, kb))) => match kb.partial_cmp(&ka) {
                Some(std::cmp::Ordering::Greater) => Some((ib, kb)),
                Some(std::cmp::Ordering::Equal) if ib < ia => Some((ib, kb)),
                _ => Some((ia, ka)),
            },
        },
        |i| Some((i, key(&items[i]))),
    );
    best.map(|(i, _)| i)
}

/// Count the indices for which `pred` holds.
pub fn count_if<P: ExecutionPolicy>(
    policy: P,
    range: Range<usize>,
    pred: impl Fn(usize) -> bool + Sync + Send,
) -> usize {
    transform_reduce(policy, range, 0usize, |a, b| a + b, |i| usize::from(pred(i)))
}

/// True iff `pred` holds for every index (vacuously true on empty ranges).
pub fn all_of<P: ExecutionPolicy>(
    policy: P,
    range: Range<usize>,
    pred: impl Fn(usize) -> bool + Sync + Send,
) -> bool {
    transform_reduce(policy, range, true, |a, b| a && b, pred)
}

/// True iff `pred` holds for at least one index.
pub fn any_of<P: ExecutionPolicy>(
    policy: P,
    range: Range<usize>,
    pred: impl Fn(usize) -> bool + Sync + Send,
) -> bool {
    transform_reduce(policy, range, false, |a, b| a || b, pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{test_lock, with_backend, Backend};
    use crate::policy::{Par, ParUnseq, Seq};

    fn sum_matches<P: ExecutionPolicy + Copy>(p: P) {
        for backend in [Backend::Dynamic, Backend::DetPar] {
            with_backend(backend, || {
                let n = 100_000usize;
                let got = transform_reduce(p, 0..n, 0u64, |a, b| a + b, |i| i as u64);
                assert_eq!(got, (n as u64 - 1) * n as u64 / 2);
            });
        }
    }

    #[test]
    fn sum_seq() {
        let _lock = test_lock();
        sum_matches(Seq);
    }

    #[test]
    fn sum_par() {
        let _lock = test_lock();
        sum_matches(Par);
    }

    #[test]
    fn sum_par_unseq() {
        let _lock = test_lock();
        sum_matches(ParUnseq);
    }

    #[test]
    fn empty_range_returns_identity() {
        assert_eq!(transform_reduce(Par, 7..7, 42u32, |a, b| a + b, |_| 1), 42);
    }

    #[test]
    fn reduce_slice() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(reduce(Par, &v, 0, |a, b| a + b), 5050);
        assert_eq!(reduce(ParUnseq, &v, u32::MAX, |a, b| a.min(b)), 1);
    }

    #[test]
    fn min_max_element() {
        let _lock = test_lock();
        let v = vec![5.0f64, -1.0, 3.0, -1.0, 9.0, 9.0];
        for backend in [Backend::Dynamic, Backend::DetPar] {
            with_backend(backend, || {
                assert_eq!(min_element(Par, &v, |&x| x), Some(1)); // first -1.0
                assert_eq!(max_element(Par, &v, |&x| x), Some(4)); // first 9.0
                assert_eq!(min_element(Seq, &v, |&x| x), Some(1));
                assert_eq!(max_element(ParUnseq, &v, |&x| x), Some(4));
            });
        }
        let empty: Vec<f64> = vec![];
        assert_eq!(min_element(Par, &empty, |&x| x), None);
        assert_eq!(max_element(Par, &empty, |&x| x), None);
    }

    #[test]
    fn count_all_any() {
        assert_eq!(count_if(Par, 0..100, |i| i % 3 == 0), 34);
        assert!(all_of(Par, 0..100, |i| i < 100));
        assert!(!all_of(ParUnseq, 0..100, |i| i < 99));
        assert!(any_of(Par, 0..100, |i| i == 57));
        assert!(!any_of(Par, 0..100, |i| i > 1000));
        // Vacuous truth / falsity on empty ranges.
        assert!(all_of(Par, 3..3, |_| false));
        assert!(!any_of(Par, 3..3, |_| true));
    }

    #[test]
    fn panicking_transform_propagates() {
        let _lock = test_lock();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            transform_reduce(Par, 0..100_000, 0u64, |a, b| a + b, |i| {
                if i == 31_337 {
                    panic!("bad index");
                }
                i as u64
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "bad index");
    }

    #[test]
    fn bounding_box_style_reduction() {
        // Mirrors paper Algorithm 3: reduce (min, max) tuples.
        let xs: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 1000) as f64 - 500.0).collect();
        let (lo, hi) = transform_reduce(
            ParUnseq,
            0..xs.len(),
            (f64::INFINITY, f64::NEG_INFINITY),
            |a, b| (a.0.min(b.0), a.1.max(b.1)),
            |i| (xs[i], xs[i]),
        );
        assert_eq!(lo, -500.0);
        assert_eq!(hi, 499.0);
    }
}
