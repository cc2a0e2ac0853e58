//! Contract and stress tests of the persistent worker pool
//! (`stdpar::pool`, reached through the public executors): concurrent
//! callers, nested regions, panicking tickets, shrinking thread counts,
//! reductions on more threads than inline partials, a sleeping caller.
//!
//! Every test runs under a watchdog that fails instead of hanging, and the
//! tests take turns: the thread count they set is process-global.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};
use stdpar::backend::{
    chunk_of, dynamic_chunks_worker, scoped_chunks, with_backend, with_threads, Backend,
};
use stdpar::prelude::*;

static TURN: Mutex<()> = Mutex::new(());

/// Run `body` on its own thread; fail if it has not finished in time.
fn watchdog(body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
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
        for backend in Backend::ALL {
            with_backend(backend, || {
                with_threads(3, || {
                    let start = Barrier::new(6);
                    thread::scope(|s| {
                        for caller in 0..6u64 {
                            let start = &start;
                            s.spawn(move || {
                                start.wait();
                                for op in 0..40 {
                                    one_of_each_shape(caller * 1000 + op);
                                }
                            });
                        }
                    });
                });
            });
        }
    });
}

#[test]
fn regions_nest_in_regions_and_in_run_pair() {
    watchdog(|| {
        for backend in Backend::ALL {
            with_backend(backend, || {
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
    });
}

#[test]
fn a_panicking_ticket_surfaces_once_and_the_worker_survives() {
    watchdog(|| {
        with_threads(2, || {
            let caller = thread::current().id();
            // The one pool worker at 2 threads, as a warm region sees it.
            let worker_of = |label: &str| {
                let seen = Mutex::new(HashSet::new());
                let deadline = Instant::now() + Duration::from_secs(20);
                while seen.lock().unwrap().is_empty() {
                    assert!(Instant::now() < deadline, "no pool worker joined a region {label}");
                    scoped_chunks(0..2, |_, _| {
                        if thread::current().id() != caller {
                            seen.lock().unwrap().insert(thread::current().id());
                        }
                        thread::sleep(Duration::from_millis(1));
                    });
                }
                seen.into_inner().unwrap()
            };
            let before = worker_of("before the panics");
            assert_eq!(before.len(), 1);

            // On the pool worker: chunk 0 (always the caller's) holds the
            // caller, for a bounded time, until chunk 1 has been taken.
            let mut on_worker = false;
            for _ in 0..200 {
                let taken = AtomicBool::new(false);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    scoped_chunks(0..2, |chunk, _| {
                        if chunk == 0 {
                            assert_eq!(thread::current().id(), caller, "chunk 0 left the caller");
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
            assert!(on_worker, "the pool worker never took a ticket in 200 regions");

            // On the caller, with the worker panicking too: one payload.
            let payload = catch_unwind(AssertUnwindSafe(|| {
                dynamic_chunks_worker(0..64, 1, |_, _| panic!("every chunk fails"))
            }))
            .unwrap_err();
            assert_eq!(message(payload), "every chunk fails");
            let payload = catch_unwind(AssertUnwindSafe(|| {
                scoped_chunks(0..2, |chunk, _| {
                    if chunk == 0 {
                        panic!("ticket failed on the caller");
                    }
                })
            }))
            .unwrap_err();
            assert_eq!(message(payload), "ticket failed on the caller");

            // The next region works, and on the same worker thread.
            one_of_each_shape(5);
            assert_eq!(worker_of("after the panics"), before, "the worker was replaced");
        });
    });
}

#[test]
fn shrinking_thread_counts_bound_the_participants() {
    watchdog(|| {
        for backend in Backend::ALL {
            with_backend(backend, || {
                for n in [8usize, 2, 1] {
                    with_threads(n, || {
                        for _ in 0..100 {
                            let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
                            let hits: Vec<AtomicUsize> =
                                (0..64).map(|_| AtomicUsize::new(0)).collect();
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
                            assert!(
                                distinct <= n,
                                "{distinct} threads ran tickets of a region at {n} threads ({})",
                                backend.name()
                            );
                        }
                    });
                }
            });
        }
    });
}

#[test]
fn a_panicking_chunk_stops_the_other_reduce_claim_loops() {
    watchdog(|| {
        with_threads(2, || {
            with_backend(Backend::Dynamic, || {
                // One ticket panics on the first index; the other must stop
                // at its next claim instead of folding the rest of the range.
                let n = 1usize << 24;
                let evaluated = AtomicUsize::new(0);
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    transform_reduce(Par, 0..n, 0u64, |a, b| a + b, |i| {
                        if i == 0 {
                            panic!("first index");
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
    });
}

#[test]
fn reduce_tickets_follow_the_thread_count_past_the_inline_partials() {
    watchdog(|| {
        // More threads than the 64 stack slots for partials: they spill to
        // the heap, the static chunking still follows `thread_count()` (the
        // Threads backend's floating-point result is the chunked fold, bit
        // for bit) and every index is folded exactly once on both backends.
        let threads = 64 + 3;
        let n = 10_000usize;
        let term = |i: usize| 1.0 / (1.0 + i as f64);
        let chunked: f64 = (0..threads)
            .map(|t| chunk_of(&(0..n), threads, t).map(term).fold(0.0, |a, b| a + b))
            .fold(0.0, |a, b| a + b);
        with_threads(threads, || {
            with_backend(Backend::Threads, || {
                let got = transform_reduce(Par, 0..n, 0.0, |a, b| a + b, term);
                assert_eq!(got.to_bits(), chunked.to_bits());
            });
            for backend in [Backend::Threads, Backend::Dynamic] {
                with_backend(backend, || {
                    let seen = AtomicUsize::new(0);
                    let got = transform_reduce(ParUnseq, 0..n, 0u64, |a, b| a + b, |i| {
                        seen.fetch_add(1, Ordering::Relaxed);
                        i as u64
                    });
                    assert_eq!(got, (n as u64 - 1) * n as u64 / 2, "backend={}", backend.name());
                    assert_eq!(seen.load(Ordering::Relaxed), n, "backend={}", backend.name());
                });
            }
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
                scoped_chunks(0..2, |chunk, _| {
                    if chunk == 0 {
                        // Hold the caller (asleep, for a bounded time) until
                        // chunk 1 has been taken.
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
