//! Stale-buffer guard for the shared scratch arena (DESIGN.md § Memory
//! management): a [`SimWorkspace`] reused across simulations whose body
//! count grows and then shrinks must leave no trace in the results. The
//! arena never shrinks its buffers, so after the 2200-body run every
//! buffer holds 2200 bodies' worth of stale data — the 400-body run that
//! follows must overwrite exactly what it reads and produce trajectories
//! **bitwise identical** to a run with a fresh arena.

use stdpar_nbody::prelude::*;
use stdpar_nbody::server::{CostModel, SchedulerConfig, SessionConfig, SessionManager, TickMode};
use stdpar_nbody::stdpar::backend::{with_backend, Backend};

/// Grow, then shrink: the middle run inflates every workspace buffer past
/// what the runs around it need.
const NS: [usize; 3] = [900, 2_200, 400];
const STEPS: usize = 3;

/// Run one short simulation per body count, all drawing scratch from the
/// same workspace, and return each run's final positions.
fn run_sequence(
    kind: SolverKind,
    policy: DynPolicy,
    eval: ForceEval,
    ws: &mut SimWorkspace,
) -> Vec<Vec<Vec3>> {
    NS.iter()
        .map(|&n| {
            let state = galaxy_collision(n, 1_000 + n as u64);
            let opts =
                SimOptions { dt: 1e-3, softening: 1e-3, policy, eval, ..SimOptions::default() };
            let mut sim = Simulation::new(state, kind, opts).unwrap();
            for _ in 0..STEPS {
                sim.step_into(ws);
            }
            sim.into_state().positions
        })
        .collect()
}

#[test]
fn reused_workspace_across_changing_n_matches_fresh() {
    // Octree under Seq (its parallel build is concurrency-order dependent,
    // so bitwise claims are sequential-only; see tests/blocked.rs), BVH
    // under ParUnseq (deterministic end to end).
    for eval in [ForceEval::PerBody, ForceEval::Blocked { group: 32 }] {
        for (kind, policy) in
            [(SolverKind::Octree, DynPolicy::Seq), (SolverKind::Bvh, DynPolicy::ParUnseq)]
        {
            let mut shared_ws = SimWorkspace::new();
            let shared = run_sequence(kind, policy, eval, &mut shared_ws);
            let fresh: Vec<Vec<Vec3>> = NS
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    // A brand-new workspace per run: nothing to go stale.
                    let mut ws = SimWorkspace::new();
                    let all = run_sequence(kind, policy, eval, &mut ws);
                    all[i].clone()
                })
                .collect();
            for (i, (s, f)) in shared.iter().zip(&fresh).enumerate() {
                assert_eq!(
                    s,
                    f,
                    "{}/{policy:?}/{eval:?}: run {i} (N={}) perturbed by workspace reuse",
                    kind.name(),
                    NS[i]
                );
            }
        }
    }
}

#[test]
fn recycled_session_slot_is_bitwise_invisible() {
    // The session pool recycles a closed session's slot — workspace,
    // interaction-list pool, and checkpoint ring — through a free list.
    // A 2200-body session inflates every grow-only buffer in the slot;
    // the 400-body session admitted into it afterwards must produce the
    // exact trajectory of the same session in a brand-new manager.
    let sched = SchedulerConfig {
        quantum_ns: 300,
        burst_ticks: 1,
        cost_model: CostModel::Fixed(100),
        ..SchedulerConfig::default()
    };
    for eval in [ForceEval::PerBody, ForceEval::Blocked { group: 32 }] {
        for kind in [SolverKind::Octree, SolverKind::Bvh] {
            for backend in [Backend::Dynamic, Backend::DetPar] {
                with_backend(backend, || {
                    let cfg = SessionConfig {
                        kind,
                        opts: SimOptions {
                            dt: 1e-3,
                            softening: 1e-3,
                            eval,
                            ..SimOptions::default()
                        },
                        ..SessionConfig::default()
                    };
                    // Capacity 1 forces the second admission into the
                    // recycled slot.
                    let mut mgr = SessionManager::new(1, TickMode::Batched, sched);
                    let big = mgr.admit(galaxy_collision(NS[1], 77), &cfg).unwrap();
                    mgr.tick();
                    mgr.close(big).unwrap();
                    let small = mgr.admit(galaxy_collision(NS[2], 78), &cfg).unwrap();
                    for _ in 0..2 {
                        mgr.tick();
                    }
                    let steps = mgr.session_steps(small).unwrap();
                    assert!(steps > 0);

                    let mut fresh = SessionManager::new(1, TickMode::Batched, sched);
                    let only = fresh.admit(galaxy_collision(NS[2], 78), &cfg).unwrap();
                    for _ in 0..2 {
                        fresh.tick();
                    }
                    assert_eq!(fresh.session_steps(only).unwrap(), steps);
                    assert_eq!(
                        mgr.session_state(small).unwrap().positions,
                        fresh.session_state(only).unwrap().positions,
                        "{}/{}/{eval:?}: recycled slot perturbed the trajectory",
                        backend.name(),
                        kind.name()
                    );
                    assert_eq!(
                        mgr.session_state(small).unwrap().velocities,
                        fresh.session_state(only).unwrap().velocities
                    );
                });
            }
        }
    }
}

#[test]
fn bvh_reused_workspace_agrees_across_policies() {
    // The BVH pipeline is bitwise-reproducible across policies (unique
    // Hilbert sort keys, per-element force and update phases, fixed blocked
    // chunking). Reusing one warm workspace across the grow-then-shrink
    // sequence must preserve that: any divergence means a stale buffer
    // leaked into the output.
    for eval in [ForceEval::PerBody, ForceEval::Blocked { group: 32 }] {
        let mut reference: Option<Vec<Vec<Vec3>>> = None;
        for policy in [DynPolicy::Seq, DynPolicy::Par, DynPolicy::ParUnseq] {
            let mut ws = SimWorkspace::new();
            let got = run_sequence(SolverKind::Bvh, policy, eval, &mut ws);
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(r, &got, "bvh {eval:?} diverges: policy={policy:?}"),
            }
        }
    }
}
