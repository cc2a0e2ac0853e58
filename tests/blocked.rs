//! Blocked-vs-per-body force equivalence, end to end through the solver
//! stack (DESIGN.md "Blocked traversal"): the blocked path must be a pure
//! performance knob — same physics and determinism as the per-body walk it
//! replaces (θ = 0 and the error budgets: `force_tiles.rs`).

use stdpar_nbody::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use stdpar_nbody::sim::make_solver;
use stdpar_nbody::sim::solver::SolverParams;
use stdpar_nbody::stdpar::backend::{set_threads, with_threads};

fn field(kind: SolverKind, state: &SystemState, params: SolverParams) -> Vec<Vec3> {
    let policy = if kind == SolverKind::Octree { DynPolicy::Par } else { DynPolicy::ParUnseq };
    let mut solver = make_solver(kind, policy, params).unwrap();
    let mut acc = vec![Vec3::ZERO; state.len()];
    solver.compute(state, &mut acc, false);
    acc
}

#[test]
fn blocked_results_are_bitwise_stable_across_policies() {
    // Fixed group size ⇒ fixed chunk partition ⇒ identical traversals and
    // summation order under every policy.
    let state = galaxy_collision(400, 23);
    let params = SolverParams {
        eval: ForceEval::Blocked { group: 32 },
        softening: 1e-3,
        ..SolverParams::default()
    };
    // The octree build is concurrency-order-dependent, so cross-policy
    // bitwise identity is only guaranteed for the BVH end to end (the
    // octree's in-crate test pins one tree and checks the same property).
    let mut reference: Option<Vec<Vec3>> = None;
    for policy in [DynPolicy::Seq, DynPolicy::Par, DynPolicy::ParUnseq] {
        let mut solver = make_solver(SolverKind::Bvh, policy, params).unwrap();
        let mut acc = vec![Vec3::ZERO; state.len()];
        solver.compute(&state, &mut acc, false);
        match &reference {
            None => reference = Some(acc),
            Some(r) => assert_eq!(r, &acc, "bvh blocked diverges: policy={policy:?}"),
        }
    }
}

#[test]
fn blocked_simulation_tracks_per_body_simulation() {
    // Whole-pipeline check: a short leapfrog run with the blocked solver
    // stays within the cross-solver tolerance of the per-body run.
    let state = galaxy_collision(500, 24);
    let mut finals = vec![];
    for eval in [ForceEval::PerBody, ForceEval::blocked()] {
        let opts = SimOptions { dt: 1e-3, softening: 1e-3, eval, ..SimOptions::default() };
        let mut sim = Simulation::new(state.clone(), SolverKind::Bvh, opts).unwrap();
        sim.run(10);
        finals.push(sim.into_state().positions);
    }
    let err = stdpar_nbody::sim::diagnostics::l2_error_relative(&finals[1], &finals[0]);
    assert!(err < 1e-4, "blocked vs per-body trajectory L2 {err}");
}

#[test]
fn blocked_edge_cases_through_solver_stack() {
    let params = SolverParams { eval: ForceEval::blocked(), ..SolverParams::default() };
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        // Single body: zero field.
        let one = SystemState::from_parts(vec![Vec3::new(0.1, 0.2, 0.3)], vec![Vec3::ZERO], vec![2.0]);
        assert_eq!(field(kind, &one, params)[0], Vec3::ZERO);
        // Duplicate positions: finite, and the twins agree.
        let p = Vec3::new(0.2, 0.2, 0.2);
        let dup = SystemState::from_parts(
            vec![p, p, Vec3::new(-0.7, 0.1, 0.0)],
            vec![Vec3::ZERO; 3],
            vec![1.0; 3],
        );
        let soft = SolverParams { softening: 0.05, ..params };
        let acc = field(kind, &dup, soft);
        assert!(acc.iter().all(|a| a.is_finite()), "{}", kind.name());
        assert!((acc[0] - acc[1]).norm() < 1e-12, "{}", kind.name());
    }
}

#[test]
fn force_regions_hold_their_thread_count_while_another_thread_flips_the_default() {
    // Another thread flips the process default thread count among 1..=3
    // while this one steps: each force region runs at the count its list
    // pool was sized for (`ForceTiles`), so no region indexes per-worker
    // lists sized for another count, and the blocked BVH field does not
    // depend on the count at all. Pools only grow, so the fresh solvers are
    // what would catch a region indexing past its pool: with the region
    // unpinned, about 1 in 10 of them panicked.
    let opts = SimOptions {
        dt: 1e-3,
        softening: 1e-3,
        eval: ForceEval::blocked(),
        policy: DynPolicy::Par,
        ..SimOptions::default()
    };
    let run = || {
        let mut sim = Simulation::new(galaxy_collision(1_000, 25), SolverKind::Bvh, opts).unwrap();
        sim.run(60);
        sim.into_state()
    };
    let probe = galaxy_collision(300, 26);
    let params = SolverParams { eval: ForceEval::blocked(), softening: 1e-3, ..SolverParams::default() };
    let (undisturbed, field_at_2) = with_threads(2, || (run(), field(SolverKind::Bvh, &probe, params)));
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let (stop, flips) = (AtomicBool::new(false), AtomicUsize::new(0));
    let disturbed = std::thread::scope(|s| {
        s.spawn(|| {
            for n in (1..=3).cycle() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                set_threads(n);
                flips.fetch_add(1, Ordering::Relaxed);
            }
        });
        let _stop = Stop(&stop);
        for _ in 0..200 {
            assert_eq!(field(SolverKind::Bvh, &probe, params), field_at_2);
        }
        run()
    });
    set_threads(0);
    assert!(flips.into_inner() > 0, "the default never flipped");
    assert_eq!(disturbed.positions, undisturbed.positions);
    assert_eq!(disturbed.velocities, undisturbed.velocities);
}
