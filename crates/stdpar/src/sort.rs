//! Parallel sorting (`std::sort(par, …)`) and permutation application.
//!
//! HILBERTSORT (paper Algorithm 7) sorts all bodies by the Hilbert index of
//! their grid cell with `std::sort(par, …)`. The paper notes (§V-A, issue 2)
//! that toolchains without `views::zip` instead "sort an auxiliary buffer of
//! Hilbert and body index pairs, applying it as a permutation afterwards" —
//! that is exactly the [`sort_by_key`] + [`apply_permutation`] pair here.
//!
//! The parallel sort is a hand-rolled merge sort: per-run `sort_unstable_by`
//! followed by log₂(runs) parallel pairwise merge passes. The `Dynamic`
//! backend over-decomposes into more runs than workers so the merge passes
//! balance (rayon/TBB-style).
//!
//! ## Scratch reuse
//!
//! The merge passes need an element-sized ping-pong buffer plus two run
//! lists. The plain entry points allocate them per call; the
//! [`sort_unstable_by_with_scratch`] / [`sort_by_key_with_scratch`]
//! variants borrow a caller-owned [`SortScratch`] instead, so a steady-state
//! caller (the Hilbert sort re-sorting every step) performs no heap
//! allocation after warm-up. The `_with_scratch` variants require `T: Copy`
//! and merge through `ptr::copy_nonoverlapping` for the run tails rather
//! than per-element `clone()`.

use crate::backend::{current_backend, thread_count, Backend};
use crate::foreach::for_each_index;
use crate::policy::ExecutionPolicy;
use crate::sync_slice::SyncSlice;
use std::cmp::Ordering;

/// Reusable sort scratch: the merge ping-pong buffer and both run lists.
///
/// Construction is allocation-free; buffers grow on first use and are
/// retained across calls, so repeated sorts of same-or-smaller inputs touch
/// the allocator zero times.
pub struct SortScratch<T> {
    /// Element ping-pong buffer (capacity-only: length stays 0, all access
    /// is by raw pointer, so no uninitialised `T` is dropped or read).
    buf: Vec<T>,
    /// Current sorted runs as `(start, end)` index pairs.
    runs: Vec<(usize, usize)>,
    /// Runs produced by the in-flight merge pass.
    next_runs: Vec<(usize, usize)>,
}

impl<T> Default for SortScratch<T> {
    fn default() -> Self {
        SortScratch { buf: Vec::new(), runs: Vec::new(), next_runs: Vec::new() }
    }
}

impl<T> SortScratch<T> {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sort `v` with comparator `cmp` under `policy`. Unstable.
pub fn sort_unstable_by<P, T>(_policy: P, v: &mut [T], cmp: impl Fn(&T, &T) -> Ordering + Sync + Send)
where
    P: ExecutionPolicy,
    T: Send + Clone,
{
    if !P::IS_PARALLEL || v.len() < 2048 || thread_count() <= 1 {
        v.sort_unstable_by(cmp);
        return;
    }
    merge_sort(v, &cmp, merge_sort_runs());
}

/// Sort by a key function. Unstable.
pub fn sort_by_key<P, T, K>(policy: P, v: &mut [T], key: impl Fn(&T) -> K + Sync + Send)
where
    P: ExecutionPolicy,
    T: Send + Clone,
    K: Ord,
{
    sort_unstable_by(policy, v, |a, b| key(a).cmp(&key(b)));
}

/// [`sort_unstable_by`] borrowing caller-owned scratch instead of
/// allocating: zero heap allocations once `scratch` has warmed up to the
/// input size. Requires `T: Copy` (run tails move via
/// `ptr::copy_nonoverlapping`).
pub fn sort_unstable_by_with_scratch<P, T>(
    _policy: P,
    v: &mut [T],
    scratch: &mut SortScratch<T>,
    cmp: impl Fn(&T, &T) -> Ordering + Sync + Send,
) where
    P: ExecutionPolicy,
    T: Send + Copy,
{
    if !P::IS_PARALLEL || v.len() < 2048 || thread_count() <= 1 {
        // `slice::sort_unstable_by` is allocation-free.
        v.sort_unstable_by(cmp);
        return;
    }
    merge_sort_core::<T, MemcpyOps>(v, &cmp, merge_sort_runs(), scratch);
}

/// [`sort_by_key`] borrowing caller-owned scratch. See
/// [`sort_unstable_by_with_scratch`].
pub fn sort_by_key_with_scratch<P, T, K>(
    policy: P,
    v: &mut [T],
    scratch: &mut SortScratch<T>,
    key: impl Fn(&T) -> K + Sync + Send,
) where
    P: ExecutionPolicy,
    T: Send + Copy,
    K: Ord,
{
    sort_unstable_by_with_scratch(policy, v, scratch, |a, b| key(a).cmp(&key(b)));
}

/// Run count for the parallel merge sort under the current backend.
fn merge_sort_runs() -> usize {
    match current_backend() {
        Backend::Dynamic => (4 * thread_count()).next_power_of_two(),
        // One run = a plain sequential `sort_unstable_by`: sorting has no
        // schedule-dependent intermediate states worth fuzzing, and the
        // deterministic executor must not spawn real merge threads.
        Backend::DetPar => 1,
    }
}

/// Gather `src` through `perm` into a new vector: `out[i] = src[perm[i]]`.
///
/// `perm` must be a permutation of `0..src.len()` (checked in debug builds
/// only — the O(N) validation and its marker vector are compiled out of
/// release builds).
/// This is the "apply it as a permutation afterwards" step of the paper's
/// AdaptiveCpp/Clang HILBERTSORT fallback.
pub fn apply_permutation<P, T>(policy: P, src: &[T], perm: &[u32]) -> Vec<T>
where
    P: ExecutionPolicy,
    T: Send + Sync + Copy,
{
    let mut out = Vec::new();
    apply_permutation_into(policy, src, perm, &mut out);
    out
}

/// [`apply_permutation`] writing into a caller-owned vector, reusing its
/// capacity: zero heap allocations once `out` has warmed up to `src.len()`.
pub fn apply_permutation_into<P, T>(policy: P, src: &[T], perm: &[u32], out: &mut Vec<T>)
where
    P: ExecutionPolicy,
    T: Send + Sync + Copy,
{
    assert_eq!(src.len(), perm.len(), "permutation length mismatch");
    #[cfg(debug_assertions)]
    assert!(is_permutation(perm), "perm is not a permutation of 0..n");
    let n = src.len();
    out.clear();
    out.reserve(n);
    // SAFETY: every index in 0..n is written exactly once below before use.
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(n)
    };
    {
        let view = SyncSlice::new(out.as_mut_slice());
        for_each_index(policy, 0..n, |i| unsafe {
            view.write(i, src[perm[i] as usize]);
        });
    }
}

/// O(N) permutation validity check — debug builds only (satellite of the
/// zero-allocation work: release builds must not pay the marker vector).
#[cfg(debug_assertions)]
fn is_permutation(perm: &[u32]) -> bool {
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        let p = p as usize;
        if p >= perm.len() || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// How merged elements move from `src` to `dst`: per-element `clone()` for
/// the `T: Clone` entry points, bitwise copies (`ptr::copy_nonoverlapping`
/// for whole run tails) for the `T: Copy` scratch-borrowing entry points.
/// A trait rather than specialization, which stable Rust lacks.
trait CopyOps<T> {
    /// Write `*val` into the (possibly uninitialised) slot at `dst`.
    ///
    /// # Safety
    /// `dst` must be valid for writes; the previous contents are not dropped.
    unsafe fn put(dst: *mut T, val: &T);

    /// Move `len` elements from `src` into the (possibly uninitialised)
    /// span at `dst`.
    ///
    /// # Safety
    /// Both pointers must be valid for `len` elements and non-overlapping;
    /// previous contents of `dst` are not dropped.
    unsafe fn fill_span(dst: *mut T, src: *const T, len: usize);

    /// Copy `src` over the *initialised* slice `dst`.
    fn copy_back(dst: &mut [T], src: &[T]);
}

enum CloneOps {}

impl<T: Clone> CopyOps<T> for CloneOps {
    unsafe fn put(dst: *mut T, val: &T) {
        unsafe { dst.write(val.clone()) }
    }

    unsafe fn fill_span(dst: *mut T, src: *const T, len: usize) {
        for k in 0..len {
            unsafe { dst.add(k).write((*src.add(k)).clone()) }
        }
    }

    fn copy_back(dst: &mut [T], src: &[T]) {
        dst.clone_from_slice(src);
    }
}

enum MemcpyOps {}

impl<T: Copy> CopyOps<T> for MemcpyOps {
    unsafe fn put(dst: *mut T, val: &T) {
        unsafe { dst.write(*val) }
    }

    unsafe fn fill_span(dst: *mut T, src: *const T, len: usize) {
        unsafe { std::ptr::copy_nonoverlapping(src, dst, len) }
    }

    fn copy_back(dst: &mut [T], src: &[T]) {
        dst.copy_from_slice(src);
    }
}

/// Fill `runs` with `parts` near-equal contiguous `(start, end)` runs over
/// `0..n`, reusing the vector's capacity.
fn fill_runs(runs: &mut Vec<(usize, usize)>, n: usize, parts: usize) {
    let parts = parts.min(n).max(1);
    runs.clear();
    let base = n / parts;
    let extra = n % parts;
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        runs.push((start, start + len));
        start += len;
    }
    debug_assert_eq!(start, n);
}

/// Parallel merge sort over a throwaway scratch, for the `T: Clone` entry
/// points (and driven directly by tests).
fn merge_sort<T: Send + Clone>(
    v: &mut [T],
    cmp: &(impl Fn(&T, &T) -> Ordering + Sync),
    nchunks: usize,
) {
    let mut scratch = SortScratch::default();
    merge_sort_core::<T, CloneOps>(v, cmp, nchunks, &mut scratch);
}

/// Parallel merge sort over caller scratch: per-chunk `sort_unstable_by`
/// followed by pairwise parallel merge passes ping-ponging between `v` and
/// `scratch.buf`. Panic-safe: a panicking comparator propagates its payload
/// to the caller after all workers joined (`v` is left in an unspecified
/// order).
fn merge_sort_core<T: Send, O: CopyOps<T>>(
    v: &mut [T],
    cmp: &(impl Fn(&T, &T) -> Ordering + Sync),
    nchunks: usize,
    scratch: &mut SortScratch<T>,
) {
    let n = v.len();
    let SortScratch { buf, runs, next_runs } = scratch;
    fill_runs(runs, n, nchunks);
    if runs.len() <= 1 {
        // A single run needs no scratch buffer and no merge passes at all.
        v.sort_unstable_by(cmp);
        return;
    }
    // An odd number of merge passes would leave the result in the scratch
    // buffer and force a copy back into `v`; splitting one level finer makes
    // the pass count even so the ping-pong ends in `v`.
    let passes = usize::BITS - (runs.len() - 1).leading_zeros();
    if passes % 2 == 1 && runs.len() * 2 <= n {
        let finer = (runs.len() * 2).next_power_of_two();
        fill_runs(runs, n, finer);
    }
    // Phase 1: one ticket per run sorts it in place.
    {
        let base = v.as_mut_ptr() as usize;
        let runs = runs.as_slice();
        crate::pool::run(runs.len(), &|k| {
            let (start, end) = runs[k];
            // SAFETY: runs are disjoint subslices of `v`.
            let sub =
                unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(start), end - start) };
            sub.sort_unstable_by(cmp);
        });
    }

    // Phase 2: pairwise parallel merges, ping-ponging with the scratch
    // buffer. The first merge pass writes every scratch slot (merged spans
    // tile the whole range), so the buffer needs *capacity* only — its
    // length stays 0 and all access goes through raw pointers, so no
    // uninitialised `T` is ever dropped or read.
    buf.clear();
    buf.reserve(n);
    let mut src_is_v = true;
    while runs.len() > 1 {
        next_runs.clear();
        next_runs.extend(runs.chunks(2).map(|pair| (pair[0].0, pair[pair.len() - 1].1)));
        {
            // One ticket per run pair merges it from `src` into `dst`.
            let (src_ptr, dst_ptr) = if src_is_v {
                (v.as_ptr() as usize, buf.as_mut_ptr() as usize)
            } else {
                (buf.as_ptr() as usize, v.as_mut_ptr() as usize)
            };
            let runs = runs.as_slice();
            crate::pool::run(next_runs.len(), &|k| {
                let left = runs[2 * k];
                let right = runs.get(2 * k + 1).copied().unwrap_or((left.1, left.1));
                // SAFETY: each merged output span [left.0, right.1) is
                // disjoint across pairs; src is not mutated.
                unsafe { merge_runs::<T, O>(src_ptr as *const T, dst_ptr as *mut T, left, right, cmp) };
            });
        }
        std::mem::swap(runs, next_runs);
        src_is_v = !src_is_v;
    }
    if !src_is_v {
        // Fallback when the pass count could not be made even: the final
        // data lives in scratch; copy back. SAFETY: every slot in 0..n was
        // written by the preceding merge pass.
        let merged = unsafe { std::slice::from_raw_parts(buf.as_ptr(), n) };
        O::copy_back(v, merged);
    }
}

/// Merge `src[left]` and `src[right]` (each sorted, given as `(start, end)`
/// pairs) into `dst[left.0..right.1]`.
///
/// # Safety
/// `src` and `dst` must both be valid for the full span, and no other thread
/// may access that span of `dst` concurrently.
unsafe fn merge_runs<T, O: CopyOps<T>>(
    src: *const T,
    dst: *mut T,
    left: (usize, usize),
    right: (usize, usize),
    cmp: &impl Fn(&T, &T) -> Ordering,
) {
    let mut a = left.0;
    let mut b = right.0;
    let mut o = left.0;
    unsafe {
        while a < left.1 && b < right.1 {
            let va = &*src.add(a);
            let vb = &*src.add(b);
            if cmp(vb, va) == Ordering::Less {
                O::put(dst.add(o), vb);
                b += 1;
            } else {
                O::put(dst.add(o), va);
                a += 1;
            }
            o += 1;
        }
        // Exactly one run has a tail; move it in one span.
        if a < left.1 {
            O::fill_span(dst.add(o), src.add(a), left.1 - a);
        } else if b < right.1 {
            O::fill_span(dst.add(o), src.add(b), right.1 - b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{set_threads, test_lock, with_backend, Backend};
    use crate::policy::{Par, ParUnseq, Seq};

    fn pseudo_random(n: usize, seed: u64) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s >> 16
            })
            .collect()
    }

    #[test]
    fn sorts_match_std_all_policies_and_backends() {
        let _lock = test_lock();
        let input = pseudo_random(50_000, 3);
        let mut expect = input.clone();
        expect.sort_unstable();
        for backend in [Backend::Dynamic, Backend::DetPar] {
            with_backend(backend, || {
                let mut a = input.clone();
                sort_unstable_by(Seq, &mut a, |x, y| x.cmp(y));
                assert_eq!(a, expect);
                let mut b = input.clone();
                sort_unstable_by(Par, &mut b, |x, y| x.cmp(y));
                assert_eq!(b, expect, "par backend={}", backend.name());
                let mut c = input.clone();
                sort_unstable_by(ParUnseq, &mut c, |x, y| x.cmp(y));
                assert_eq!(c, expect);
            });
        }
    }

    #[test]
    fn scratch_sort_matches_std_and_reuses_buffers() {
        let _lock = test_lock();
        let mut scratch = SortScratch::new();
        for backend in [Backend::Dynamic, Backend::DetPar] {
            with_backend(backend, || {
                // Multiple sizes through ONE scratch, including grow and
                // shrink, to catch stale-buffer reads.
                for (n, seed) in [(50_000usize, 3u64), (10_000, 7), (60_000, 11), (100, 1)] {
                    let input = pseudo_random(n, seed);
                    let mut expect = input.clone();
                    expect.sort_unstable();
                    let mut v = input.clone();
                    sort_unstable_by_with_scratch(Par, &mut v, &mut scratch, |x, y| x.cmp(y));
                    assert_eq!(v, expect, "n={n} backend={}", backend.name());
                }
            });
        }
    }

    #[test]
    fn sort_by_key_descending() {
        let mut v = pseudo_random(10_000, 4);
        sort_by_key(Par, &mut v, |&x| std::cmp::Reverse(x));
        assert!(v.windows(2).all(|w| w[0] >= w[1]));

        let mut w = pseudo_random(10_000, 4);
        let mut scratch = SortScratch::new();
        sort_by_key_with_scratch(Par, &mut w, &mut scratch, |&x| std::cmp::Reverse(x));
        assert_eq!(v, w);
    }

    #[test]
    fn single_thread_override_sorts_sequentially() {
        let _lock = test_lock();
        // With one worker the parallel entry points must fall through to the
        // allocation-free sequential sort and still be correct.
        set_threads(1);
        let mut v = pseudo_random(50_000, 13);
        let mut expect = v.clone();
        expect.sort_unstable();
        sort_unstable_by(Par, &mut v, |a, b| a.cmp(b));
        assert_eq!(v, expect);
        set_threads(0);
    }

    #[test]
    fn small_and_edge_inputs() {
        let mut empty: Vec<u64> = vec![];
        sort_unstable_by(Par, &mut empty, |a, b| a.cmp(b));
        assert!(empty.is_empty());

        let mut one = vec![5u64];
        sort_unstable_by(Par, &mut one, |a, b| a.cmp(b));
        assert_eq!(one, vec![5]);

        let mut dup = vec![3u64; 5000];
        sort_unstable_by(Par, &mut dup, |a, b| a.cmp(b));
        assert!(dup.iter().all(|&x| x == 3));

        // Already sorted and reverse sorted.
        let mut asc: Vec<u64> = (0..10_000).collect();
        sort_unstable_by(Par, &mut asc, |a, b| a.cmp(b));
        assert!(asc.windows(2).all(|w| w[0] <= w[1]));
        let mut desc: Vec<u64> = (0..10_000).rev().collect();
        sort_unstable_by(Par, &mut desc, |a, b| a.cmp(b));
        assert!(desc.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn merge_sort_handles_both_pass_parities() {
        // Drive the merge sort directly across run counts whose merge
        // pass counts have both parities, including counts too large to be
        // doubled (n < 2·chunks exercises the scratch copy-back fallback).
        for (n, nchunks) in
            [(6_000usize, 2usize), (6_000, 3), (6_000, 4), (6_000, 7), (6_000, 8), (100, 512)]
        {
            let mut v = pseudo_random(n, nchunks as u64);
            let mut expect = v.clone();
            expect.sort_unstable();
            merge_sort(&mut v, &|a, b| a.cmp(b), nchunks);
            assert_eq!(v, expect, "n={n} nchunks={nchunks} (clone path)");

            let mut w = pseudo_random(n, nchunks as u64);
            let mut scratch = SortScratch::new();
            merge_sort_core::<u64, MemcpyOps>(&mut w, &|a, b| a.cmp(b), nchunks, &mut scratch);
            assert_eq!(w, expect, "n={n} nchunks={nchunks} (copy path)");
        }
    }

    #[test]
    fn hilbert_style_pair_sort_and_permutation() {
        let _lock = test_lock();
        // The paper's fallback path: sort (key, index) pairs, then permute.
        let keys = pseudo_random(20_000, 5);
        let values: Vec<f64> = (0..20_000).map(|i| i as f64).collect();
        for backend in [Backend::Dynamic, Backend::DetPar] {
            with_backend(backend, || {
                let mut pairs: Vec<(u64, u32)> =
                    keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
                sort_by_key(Par, &mut pairs, |&(k, i)| (k, i));
                let perm: Vec<u32> = pairs.iter().map(|&(_, i)| i).collect();
                let sorted_vals = apply_permutation(Par, &values, &perm);
                let sorted_keys = apply_permutation(ParUnseq, &keys, &perm);
                assert!(sorted_keys.windows(2).all(|w| w[0] <= w[1]));
                // Each value still pairs with its original key.
                for (i, &v) in sorted_vals.iter().enumerate() {
                    assert_eq!(keys[v as usize], sorted_keys[i]);
                }
                // The `_into` variant agrees and reuses its output buffer.
                let mut out: Vec<f64> = Vec::new();
                apply_permutation_into(Par, &values, &perm, &mut out);
                assert_eq!(out, sorted_vals);
                let cap = out.capacity();
                apply_permutation_into(Par, &values, &perm, &mut out);
                assert_eq!(out, sorted_vals);
                assert_eq!(out.capacity(), cap);
            });
        }
    }

    #[test]
    #[should_panic]
    fn apply_permutation_length_mismatch_panics() {
        let _ = apply_permutation(Seq, &[1, 2, 3], &[0, 1]);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn is_permutation_detects_bad_inputs() {
        assert!(is_permutation(&[2, 0, 1]));
        assert!(!is_permutation(&[0, 0, 1]));
        assert!(!is_permutation(&[0, 3, 1]));
        assert!(is_permutation(&[]));
    }
}
