//! Contract and stress tests of the persistent worker pool
//! (`stdpar::pool`, reached through the public executors): concurrent
//! callers, nested regions, shrinking thread counts, a panicking reduction
//! chunk, reductions on more threads than inline partials. The tests that
//! need a ticket on a known thread (a panicking ticket, a sleeping caller)
//! drive the pool directly, in `pool.rs`'s own test module.
//!
//! Every test runs under a watchdog that fails instead of hanging. Each test
//! sets its thread count for its own thread, and the pool carries it to the
//! workers that run its tickets; the one test that writes the process
//! default (`set_threads`) reads it only on threads it spawns, so no other
//! test sees it.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};
use stdpar::backend::{hardware_parallelism, max_workers, set_threads, thread_count, with_threads};
use stdpar::prelude::*;

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
fn concurrent_callers_share_one_pool() {
    watchdog(|| {
        let start = Barrier::new(6);
        thread::scope(|s| {
            for caller in 0..6u64 {
                let start = &start;
                // The setting is each caller's own: scope it on the caller.
                s.spawn(move || {
                    start.wait();
                    with_threads(3, || {
                        for op in 0..40 {
                            one_of_each_shape(caller * 1000 + op);
                        }
                    });
                });
            }
        });
    });
}

#[test]
fn set_threads_is_the_default_of_threads_with_no_scope() {
    watchdog(|| {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                set_threads(0);
            }
        }
        let _reset = Reset;
        let fresh = || thread::spawn(|| (thread_count(), max_workers())).join().unwrap();
        set_threads(3);
        assert_eq!(fresh(), (3, 3));
        // A scope still wins over the default on its own thread.
        with_threads(2, || assert_eq!(thread_count(), 2));
        set_threads(0);
        let host = hardware_parallelism();
        assert_eq!(fresh(), (host, host));
    });
}

#[test]
fn regions_nest_in_regions_and_in_run_pair() {
    watchdog(|| {
        with_threads(3, || {
            let count = AtomicU64::new(0);
            for_each_index(Par, 0..12, |_| {
                for_each_index(Par, 0..10, |_| {
                    let inner = transform_reduce(Par, 0..1000, 0u64, |a, b| a + b, |_| 1);
                    count.fetch_add(inner, Ordering::Relaxed);
                });
            });
            assert_eq!(count.load(Ordering::Relaxed), 12 * 10 * 1000);

            let (a, b) = run_pair(
                || transform_reduce(Par, 0..5000, 0u64, |a, b| a + b, |i| i as u64),
                || {
                    let hits = AtomicUsize::new(0);
                    for_each_index(ParUnseq, 0..5000, |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                    hits.into_inner()
                },
            );
            assert_eq!((a, b), (4999 * 5000 / 2, 5000));
        });
    });
}

#[test]
fn a_ticket_on_a_worker_and_the_region_it_opens_see_the_callers_thread_count() {
    watchdog(|| {
        // Not the default, so a worker that fell back to it would show.
        let n = 3 + usize::from(hardware_parallelism() == 3);
        with_threads(n, || {
            let caller = thread::current().id();
            let on_worker = AtomicUsize::new(0);
            for _ in 0..2_000 {
                for_each_chunk_worker(Par, 0..16, 1, |_, _| {
                    assert_eq!(thread_count(), n);
                    for_each_chunk_worker(Par, 0..16, 1, |w, _| {
                        assert_eq!((thread_count(), max_workers()), (n, n));
                        assert!(w < n, "nested worker index {w} at {n} threads");
                    });
                    if thread::current().id() != caller {
                        on_worker.fetch_add(1, Ordering::Relaxed);
                    }
                    thread::sleep(Duration::from_micros(50));
                });
                if on_worker.load(Ordering::Relaxed) > 0 {
                    return;
                }
            }
            panic!("no pool worker took a chunk in 2 000 regions");
        });
    });
}

#[test]
fn shrinking_thread_counts_bound_the_participants() {
    watchdog(|| {
        for n in [8usize, 2, 1] {
            with_threads(n, || {
                for _ in 0..100 {
                    let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
                    let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
                    for_each_chunk_worker(Par, 0..64, 1, |worker, r| {
                        assert!(worker < n, "worker index {worker} at {n} threads");
                        for i in r {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                        seen.lock().unwrap().insert(thread::current().id());
                        // Long enough for every admitted worker to arrive.
                        thread::sleep(Duration::from_micros(50));
                    });
                    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                    let distinct = seen.into_inner().unwrap().len();
                    assert!(distinct <= n, "{distinct} threads ran tickets of a region at {n} threads");
                }
            });
        }
    });
}

#[test]
fn a_panicking_chunk_stops_the_other_reduce_claim_loops() {
    watchdog(|| {
        with_threads(2, || {
            // One ticket panics on the first index; the other must stop at
            // its next claim instead of folding the rest of the range. The
            // survivor folds nothing until that panic is unwinding, so the
            // bound holds however the host schedules the two tickets; only
            // the rest of the unwind is left as a window.
            struct Unwinding<'a>(&'a AtomicBool);
            impl Drop for Unwinding<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Release);
                }
            }
            let n = 1usize << 24;
            let unwinding = AtomicBool::new(false);
            let evaluated = AtomicUsize::new(0);
            let deadline = Instant::now() + Duration::from_secs(60);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                transform_reduce(Par, 0..n, 0u64, |a, b| a + b, |i| {
                    if i == 0 {
                        let _set = Unwinding(&unwinding);
                        panic!("first index");
                    }
                    while !unwinding.load(Ordering::Acquire) && Instant::now() < deadline {
                        thread::yield_now();
                    }
                    evaluated.fetch_add(1, Ordering::Relaxed);
                    i as u64
                })
            }))
            .unwrap_err();
            assert_eq!(message(payload), "first index");
            let evaluated = evaluated.load(Ordering::Relaxed);
            assert!(evaluated < n / 2, "{evaluated} of {n} indices folded after the panic");
        });
    });
}

#[test]
fn reduce_tickets_follow_the_thread_count_past_the_inline_partials() {
    watchdog(|| {
        // More tickets than the 64 stack slots for partials (`Par` claims
        // 256-index chunks: 79 of them, so all 67 threads get a ticket):
        // the partials spill to the heap and every index is still folded
        // exactly once.
        let threads = 64 + 3;
        let n = 20_000usize;
        with_threads(threads, || {
            let seen = AtomicUsize::new(0);
            let got = transform_reduce(Par, 0..n, 0u64, |a, b| a + b, |i| {
                seen.fetch_add(1, Ordering::Relaxed);
                i as u64
            });
            assert_eq!(got, (n as u64 - 1) * n as u64 / 2);
            assert_eq!(seen.load(Ordering::Relaxed), n);
        });
    });
}
