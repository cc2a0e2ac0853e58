//! Integration tests of the forward-progress result matrix (paper §V-B):
//! which algorithm completes under which scheduling semantics.

use stdpar_nbody::math::{Aabb, Vec3};
use stdpar_nbody::octree::Octree;
use stdpar_nbody::progress::reduce::reduction;
use stdpar_nbody::progress::scheduler::{run_its, run_lockstep, Outcome};
use stdpar_nbody::progress::tree_insert::{contended_insertion, insertion_threads, SharedTree};
use stdpar_nbody::stdpar::backend::{with_backend, Backend};
use stdpar_nbody::stdpar::detpar::{with_schedule, ScheduleMode};
use stdpar_nbody::stdpar::prelude::{for_each_index, Par, ParUnseq, SyncSlice};
use std::sync::Mutex;

const BUDGET: u64 = 10_000_000;

#[test]
fn result_matrix_matches_the_paper() {
    // Octree build: needs parallel forward progress.
    assert!(run_its(contended_insertion(64, 0.5), BUDGET).completed());
    assert!(matches!(
        run_lockstep(contended_insertion(64, 0.5), 32, BUDGET),
        Outcome::Livelock { .. }
    ));
    // Wait-free reduction (the BVH pipeline): runs everywhere.
    assert!(run_its(reduction(64).0, BUDGET).completed());
    assert!(run_lockstep(reduction(64).0, 32, BUDGET).completed());
}

#[test]
fn its_octree_build_produces_a_correct_tree() {
    for n in [3usize, 17, 128, 500] {
        let tree = SharedTree::new();
        let (threads, tree) = insertion_threads(tree, n, 0.5);
        assert!(run_its(threads, BUDGET).completed(), "n={n}");
        assert_eq!(tree.collect_bodies(), (0..n).collect::<Vec<_>>());
        assert!(tree.no_locks_held());
    }
}

#[test]
fn warp_width_controls_the_hazard() {
    // Width 1 = ITS-equivalent; livelock risk appears with any real warp.
    assert!(run_lockstep(contended_insertion(32, 0.5), 1, BUDGET).completed());
    for warp in [2usize, 4, 8, 32] {
        let out = run_lockstep(contended_insertion(32, 0.5), warp, BUDGET);
        assert!(matches!(out, Outcome::Livelock { .. }), "warp={warp}: {out:?}");
    }
}

#[test]
fn reduction_sums_are_correct_under_every_schedule() {
    for warp in [1usize, 2, 16, 64] {
        let (threads, tree) = reduction(64);
        assert!(run_lockstep(threads, warp, BUDGET).completed());
        assert_eq!(tree.root_sum(), 64 * 65 / 2);
    }
}

#[test]
fn schedulers_are_deterministic() {
    let a = run_lockstep(contended_insertion(16, 0.5), 8, BUDGET);
    let b = run_lockstep(contended_insertion(16, 0.5), 8, BUDGET);
    assert_eq!(a, b);
    let c = run_its(contended_insertion(16, 0.5), BUDGET);
    let d = run_its(contended_insertion(16, 0.5), BUDGET);
    assert_eq!(c, d);
}

// --- DetPar: the schedule-replay executor against the same matrix ---------

#[test]
fn detpar_cannot_deadlock_a_lock_free_par_unseq_region() {
    // A `par_unseq` region is lock-free by contract: no chunk ever waits on
    // another chunk's progress. DetPar serializes chunks in an arbitrary
    // (seeded) order, so the region must complete — and produce identical
    // output — under *every* schedule, including the adversarial one that
    // maximally delays each worker's next step.
    let mut reference: Option<Vec<u64>> = None;
    with_backend(Backend::DetPar, || {
        for mode in ScheduleMode::ALL {
            for seed in [0u64, 3, 11] {
                with_schedule(seed, mode, || {
                    let mut out = vec![0u64; 10_000];
                    let view = SyncSlice::new(&mut out);
                    for_each_index(ParUnseq, 0..10_000, |i| unsafe {
                        *view.get_mut(i) = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 7;
                    });
                    match &reference {
                        None => reference = Some(out),
                        Some(r) => {
                            assert_eq!(&out, r, "mode={} seed={seed}", mode.name())
                        }
                    }
                });
            }
        }
    });
}

#[test]
fn detpar_par_region_tolerates_intra_chunk_blocking() {
    // `Par` regions may block (locks allowed, paper §II) as long as no
    // chunk holds a lock across its own completion — the octree's critical
    // sections are exactly that shape. DetPar runs each chunk to completion
    // before the next step, so a lock taken and released inside a chunk can
    // never be observed held by another chunk: the region must complete
    // under every schedule.
    let total = Mutex::new(0u64);
    with_backend(Backend::DetPar, || {
        for mode in ScheduleMode::ALL {
            with_schedule(5, mode, || {
                *total.lock().unwrap() = 0;
                for_each_index(Par, 0..2_000, |i| {
                    *total.lock().unwrap() += i as u64;
                });
                assert_eq!(*total.lock().unwrap(), 1_999 * 2_000 / 2, "mode={}", mode.name());
            });
        }
    });
}

#[test]
fn detpar_blocked_chunk_surfaces_as_budget_exhaustion_not_a_hang() {
    // The genuinely dangerous shape: a chunk spinning on a lock whose
    // holder will never run again (simulated via the stuck-lock fault).
    // Under DetPar the spinner would monopolize the single thread forever;
    // the bounded spin budget converts that hang into a deterministic
    // `SpinBudgetExhausted` diagnosis on every schedule — the DetPar row of
    // the paper's result matrix.
    let pos: Vec<Vec3> = (0..64)
        .map(|i| {
            let t = i as f64 * 0.37;
            Vec3::new(t.sin(), (1.7 * t).cos(), (0.3 * t).sin())
        })
        .collect();
    let bounds = Aabb::from_points(&pos);
    with_backend(Backend::DetPar, || {
        for mode in ScheduleMode::ALL {
            with_schedule(1, mode, || {
                let mut t = Octree::new();
                t.set_spin_budget(5_000);
                t.inject_stuck_lock();
                let err = t.build(Par, &pos, bounds).unwrap_err();
                assert!(
                    matches!(err, stdpar_nbody::octree::BuildError::SpinBudgetExhausted { .. }),
                    "mode={}: {err:?}",
                    mode.name()
                );
                // And the follow-up build completes: the abort left no
                // persistent damage.
                t.build(Par, &pos, bounds).unwrap();
            });
        }
    });
}

// --- Real threads: the worker pool under an oversubscribed `Par` build -----

#[test]
fn oversubscribed_octree_build_still_finishes() {
    // `threads = 4 × nproc`: more tickets (and more
    // pool workers) than cores, every one of them taking lock bits. `Par`
    // promises parallel forward progress — each started ticket sits on its
    // own OS thread and the kernel reschedules a preempted lock holder —
    // so every lock-bit wait ends. A watchdog turns a hang into a failure.
    use stdpar_nbody::octree::validate::collect_bodies;
    use stdpar_nbody::stdpar::backend::{hardware_parallelism, with_threads};
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        // A tight cluster plus a halo: deep subdivision, contended leaves.
        let pos: Vec<Vec3> = (0..20_000)
            .map(|i| {
                let t = i as f64 * 0.618_033_988_75;
                let r = if i % 4 == 0 { 1.0 } else { 1e-3 };
                Vec3::new(r * t.sin(), r * (1.7 * t).cos(), r * (0.3 * t).sin())
            })
            .collect();
        let bounds = Aabb::from_points(&pos);
        with_threads(4 * hardware_parallelism(), || {
            let mut tree = Octree::new();
            for _ in 0..5 {
                let stats = tree.build(Par, &pos, bounds).unwrap();
                assert_eq!(stats.bodies, pos.len());
            }
            let mut bodies = collect_bodies(&tree);
            bodies.sort_unstable();
            assert!(bodies.iter().copied().eq(0..pos.len() as u32));
        });
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(std::time::Duration::from_secs(120)) {
        Ok(()) => body.join().unwrap(),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(body.join().unwrap_err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("oversubscribed octree build hung: a lock-bit wait never ended")
        }
    }
}
