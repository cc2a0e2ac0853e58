//! Incremental-vs-rebuild equivalence, end to end through the solver stack
//! (DESIGN.md § Incremental tree maintenance): serving a tree stale for `k`
//! steps behind the drift-padded MAC and then rebuilding it must be a pure
//! performance knob, and means the same thing for both trees.
//!
//! 1. With `max_stale_steps = 0` every step rebuilds, so the trajectory is
//!    bitwise the `Rebuild` lifecycle's — the octree builds on the same cube
//!    with the same moment pass, the BVH re-sorts lazily into the one
//!    ascending `(key, id)` order;
//! 2. with `max_stale_steps > 0` the stale-served steps stay inside the
//!    same error budgets as tree reuse — at the end of a run, and on the
//!    spinning disk at every step, against the refresh that opened its cycle
//!    (the drift-inflated MAC preserves the θ bound);
//! 3. a tree served without a rebuild — stale or reused — keeps its boxes,
//!    moments and order, never its bodies: at θ = 0 every step is the direct
//!    sum at the positions it ran at, on both trees and both walks;
//! 4. every octree the lifecycle serves satisfies the strict invariants
//!    (child after parent: the stackless walk's precondition).
//!
//! 2 and 3 run the whole eval × kernel matrix.

use stdpar_nbody::math::gravity::direct_accel;
use stdpar_nbody::octree::TreeInvariants;
use stdpar_nbody::prelude::*;
use stdpar_nbody::sim::make_solver;
use stdpar_nbody::sim::solver::{OctreeSolver, SolverParams};
use stdpar_nbody::telemetry::{self, metrics};

/// Deterministic small drift: every body moves a bit.
fn drift(positions: &mut [Vec3], step: usize, scale: f64) {
    for (i, p) in positions.iter_mut().enumerate() {
        let t = (i as f64) * 0.7 + (step as f64) * 1.3;
        *p += Vec3::new(t.sin(), (1.7 * t).cos(), (0.4 * t).sin()) * scale;
    }
}

fn bits(acc: &[Vec3]) -> Vec<[u64; 3]> {
    acc.iter().map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]).collect()
}

/// Each body's relative error against the direct sum at the current positions.
fn rel_errors<'a>(acc: &'a [Vec3], s: &'a SystemState, eps: f64) -> impl Iterator<Item = f64> + 'a {
    acc.iter().enumerate().map(move |(i, &a)| {
        let exact = direct_accel(s.positions[i], Some(i as u32), &s.positions, &s.masses, 1.0, eps);
        (a - exact).norm() / (1e-12 + exact.norm())
    })
}

fn mean_rel_error(acc: &[Vec3], state: &SystemState, softening: f64) -> f64 {
    rel_errors(acc, state, softening).sum::<f64>() / acc.len() as f64
}

#[test]
fn bvh_incremental_k0_is_bitwise_the_rebuild_lifecycle() {
    // k = 0, both trees: every step rebuilds the persistent tree. The BVH
    // re-sorts lazily against the previous permutation and rebuilds
    // boxes/moments from the (bitwise identical) sorted arrays; the octree
    // builds on the same cube with the same moment pass as any rebuild — so
    // whole trajectories must match the Rebuild lifecycle bit for bit. (The
    // octree runs under `Seq`: its parallel build is insertion-order
    // dependent.)
    let state = galaxy_collision(1_000, 32);
    let lazy_before = metrics::BVH_LAZY_RESORTS.get();
    for (kind, policy) in
        [(SolverKind::Bvh, DynPolicy::ParUnseq), (SolverKind::Octree, DynPolicy::Seq)]
    {
        let mut finals = vec![];
        for lifecycle in
            [TreeLifecycle::Rebuild, TreeLifecycle::Incremental { max_stale_steps: 0 }]
        {
            let opts = SimOptions {
                dt: 1e-3,
                theta: 0.5,
                softening: 1e-3,
                policy,
                lifecycle,
                ..SimOptions::default()
            };
            let mut sim = Simulation::new(state.clone(), kind, opts).unwrap();
            sim.run(8);
            finals.push(sim.into_state().positions);
        }
        assert_eq!(
            bits(&finals[0]),
            bits(&finals[1]),
            "{} incremental (k=0) trajectory diverged from rebuild",
            kind.name()
        );
    }
    if telemetry::ENABLED {
        assert!(
            metrics::BVH_LAZY_RESORTS.get() > lazy_before,
            "the incremental run must have exercised the lazy re-sort"
        );
    }
}

#[test]
fn octree_trees_stay_strictly_ordered_under_the_incremental_lifecycle() {
    // k = 3: one build, three stale serves, repeat. Every tree the solver
    // holds — fresh or served stale — passes the strict check (every child
    // group after its parent) against the positions it was built at.
    let mut state = galaxy_collision(1_200, 31);
    let params = SolverParams {
        theta: 0.5,
        softening: 1e-3,
        lifecycle: TreeLifecycle::Incremental { max_stale_steps: 3 },
        ..SolverParams::default()
    };
    let mut solver = OctreeSolver::new(Par, params);
    let mut acc = vec![Vec3::ZERO; state.len()];
    let mut built_at = state.positions.clone();
    for step in 0..9 {
        drift(&mut state.positions, step, 1e-4);
        let t = solver.compute(&state, &mut acc, false);
        let built = t.build.as_nanos() > 0;
        assert_eq!(built, step % 4 == 0, "step {step}: one build per four steps");
        if built {
            built_at.clone_from(&state.positions);
        }
        TreeInvariants::check(solver.tree(), &built_at)
            .unwrap_or_else(|e| panic!("step {step}: strict invariants failed: {e}"));
    }
}

#[test]
fn stale_served_steps_stay_inside_the_reuse_error_budget() {
    // k > 0: steps served from the unchanged tree with a drift-inflated
    // MAC. The trajectory must stay close to the per-step-rebuild run
    // (same budget as the `tree_reuse` bench path), and the field at the
    // end must still meet the absolute θ = 0.5 accuracy bar.
    let state = galaxy_collision(1_500, 33);
    let softening = 1e-3;
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        let mut finals = vec![];
        for lifecycle in
            [TreeLifecycle::Rebuild, TreeLifecycle::Incremental { max_stale_steps: 3 }]
        {
            let opts = SimOptions {
                dt: 1e-3,
                theta: 0.5,
                softening,
                lifecycle,
                ..SimOptions::default()
            };
            let mut sim = Simulation::new(state.clone(), kind, opts).unwrap();
            sim.run(16);
            let err = mean_rel_error(sim.accelerations(), sim.state(), softening);
            assert!(err < 0.01, "{} {}: field err {err}", kind.name(), lifecycle.name());
            finals.push(sim.into_state().positions);
        }
        let err = stdpar_nbody::sim::diagnostics::l2_error_relative(&finals[1], &finals[0]);
        assert!(err < 1e-2, "{}: stale-tree trajectory L2 {err}", kind.name());
    }

    // Per step, on the spinning disk: no stale step's mean error exceeds
    // 1.25x that of the refresh opening its cycle. (Stale BVH steps that
    // read the bodies where the last sort left them grew to 2-3x.) A debug
    // build checks a smaller disk from an earlier step.
    let (n, warm) = if cfg!(debug_assertions) { (1_024, 3) } else { (4_096, 19) };
    let disk = spinning_disk(n, 24);
    // The whole eval × kernel matrix: blocked lists and SIMD microkernels
    // consume the persistent tree and the stale-step MAC pad like the
    // per-body walk does.
    let matrix = [
        (ForceEval::PerBody, ForceKernel::Scalar, KernelPrecision::F64),
        (ForceEval::blocked(), ForceKernel::Scalar, KernelPrecision::F64),
        (ForceEval::blocked(), ForceKernel::Simd, KernelPrecision::F64),
        (ForceEval::blocked(), ForceKernel::Simd, KernelPrecision::MixedF32Far),
    ];
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        for (eval, kernel, precision) in matrix {
            let lifecycle = TreeLifecycle::Incremental { max_stale_steps: 3 };
            let opts = SimOptions { eval, kernel, precision, lifecycle, ..SimOptions::default() };
            let mut sim = Simulation::new(disk.clone(), kind, opts).unwrap();
            sim.run(warm); // the next step refreshes
            let mut refresh = 0.0;
            for step in 0..8 {
                sim.step();
                let err = mean_rel_error(sim.accelerations(), sim.state(), opts.softening);
                if step % 4 == 0 {
                    refresh = err;
                } else {
                    let (k, p) = (kernel.name(), precision.name());
                    let what = format!("{} {eval:?}/{k}/{p} step {step}", kind.name());
                    assert!(err <= 1.25 * refresh, "{what}: stale {err:e} vs refresh {refresh:e}");
                }
            }
        }
    }
}

#[test]
fn every_step_reads_the_bodies_where_they_are_now() {
    // θ = 0 opens every node, so each step's field is the direct sum at the
    // positions the step ran at, however old the tree: stale serves and the
    // `tree_rebuild_every` reuse alike.
    let state = galaxy_collision(300, 36);
    let incremental = TreeLifecycle::Incremental { max_stale_steps: 3 };
    let served = [(incremental, 1), (TreeLifecycle::Rebuild, 3)];
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        for (eval, kernel) in
            [(ForceEval::PerBody, ForceKernel::Scalar), (ForceEval::blocked(), ForceKernel::Simd)]
        {
            for (lifecycle, tree_rebuild_every) in served {
                let opts = SimOptions {
                    theta: 0.0,
                    eval,
                    kernel,
                    lifecycle,
                    tree_rebuild_every,
                    ..SimOptions::default()
                };
                let mut sim = Simulation::new(state.clone(), kind, opts).unwrap();
                let what = (kind, eval, kernel, lifecycle, tree_rebuild_every);
                for step in 1..=8 {
                    sim.step();
                    let errors = rel_errors(sim.accelerations(), sim.state(), opts.softening);
                    let worst = errors.fold(0.0, f64::max);
                    assert!(worst <= 1e-10, "{what:?}: step {step} relative error {worst:e}");
                }
            }
        }
    }
}

#[test]
fn body_count_change_falls_back_and_recovers() {
    // Resizing the system invalidates the persistent tree; the solver must
    // re-enter the lifecycle transparently and keep producing good fields.
    let softening = 1e-3;
    let params = SolverParams {
        theta: 0.5,
        softening,
        lifecycle: TreeLifecycle::Incremental { max_stale_steps: 2 },
        ..SolverParams::default()
    };
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        let policy = if kind == SolverKind::Octree { DynPolicy::Par } else { DynPolicy::ParUnseq };
        let mut solver = make_solver(kind, policy, params).unwrap();
        for n in [500usize, 800, 300] {
            let state = galaxy_collision(n, 35);
            let mut acc = vec![Vec3::ZERO; n];
            for _ in 0..3 {
                solver.compute(&state, &mut acc, false);
            }
            let err = mean_rel_error(&acc, &state, softening);
            assert!(err < 0.01, "{} n={n}: field err {err}", kind.name());
        }
    }
}
