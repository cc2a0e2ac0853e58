//! Blocked-vs-per-body force equivalence, end to end through the solver
//! stack (DESIGN.md "Blocked traversal"): the blocked path must be a pure
//! performance knob — same physics and determinism as the per-body walk it
//! replaces (θ = 0 and the error budgets: `force_tiles.rs`).

use stdpar_nbody::prelude::*;
use stdpar_nbody::sim::make_solver;
use stdpar_nbody::sim::solver::SolverParams;

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
