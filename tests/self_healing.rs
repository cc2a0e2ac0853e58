//! Soak matrix for the self-healing stepping layer (DESIGN.md §
//! Self-healing & checkpointing): every injected fault — a stuck lock that
//! fails the force pass, or numeric corruption of the state — must be
//! *detected* and *fully recovered* by the rollback-retry ladder, leaving a
//! final state that matches the uninjected run — bit-for-bit where only
//! rollback+replay was needed, and within the harness's established
//! `mean_rel_err`-style tolerance when dt-halving reshaped the trajectory.

use stdpar_nbody::prelude::*;
use stdpar_nbody::sim::diagnostics::l2_error_relative;
use stdpar_nbody::sim::{CheckpointRing, FaultInjector, FaultKind};
use stdpar_nbody::stdpar::backend::{with_backend, Backend};

fn opts() -> SimOptions {
    SimOptions { dt: 1e-3, softening: 5e-3, ..SimOptions::default() }
}

fn guarded(n: usize, seed: u64, cfg: GuardConfig) -> GuardedSimulation {
    GuardedSimulation::new(galaxy_collision(n, seed), SolverKind::Bvh, opts(), cfg).unwrap()
}

/// The error band the accuracy harness already accepts for approximate
/// force evaluation (the benchmark's `sim.force_rel_err` is ~1e-3; the
/// conservation suite tolerates 5e-3).
const REL_TOL: f64 = 5e-3;

#[test]
fn soak_transient_faults_recover_to_the_uninjected_trajectory() {
    // One scenario per state-level corruption mode that strikes the live
    // state. Scripted faults are transient (keyed by execution index, so
    // the replay runs clean): recovery is rollback+replay only, and the
    // final state must equal the uninjected run *exactly*.
    let scenarios = [
        ("nan-inject", FaultKind::NanInject, 0x50B0),
        ("position-bit-flip", FaultKind::PositionBitFlip, 0x50B1),
    ];
    let mut clean = guarded(400, 21, GuardConfig::default());
    clean.run(40).unwrap();

    for (name, kind, seed) in scenarios {
        let mut faulty = guarded(400, 21, GuardConfig::default())
            .with_injector(FaultInjector::new(seed).at_step(9, kind));
        faulty.run(40).unwrap_or_else(|e| panic!("{name}: guarded run died: {e}"));
        let s = faulty.stats();
        assert!(s.suspects + s.corrupts >= 1, "{name}: fault went undetected: {s:?}");
        assert!(s.rollbacks >= 1, "{name}: no recovery happened: {s:?}");
        assert_eq!(
            clean.state().positions,
            faulty.state().positions,
            "{name}: transient recovery must be bit-identical"
        );
        assert_eq!(clean.state().velocities, faulty.state().velocities, "{name}");
    }
}

#[test]
fn soak_rate_driven_corruption_stays_within_harness_tolerance() {
    // Poisson-style corruption at a realistic rate. Replays can be hit
    // again (the schedule keeps drawing), so dt-halving rungs may engage
    // and the trajectory may legitimately differ from the uninjected one —
    // but it must stay finite, conserve energy, and land within the same
    // relative-error band the approximate solvers already live in.
    let mut clean = guarded(400, 22, GuardConfig::default());
    clean.run(60).unwrap();

    let mut faulty = guarded(400, 22, GuardConfig::default()).with_injector(
        FaultInjector::new(0xDECAF)
            .with_rate(FaultKind::NanInject, 0.04)
            .with_rate(FaultKind::PositionBitFlip, 0.03),
    );
    faulty.run(60).unwrap();
    let s = faulty.stats();
    assert!(s.rollbacks >= 1, "rates should have fired over 60 steps: {s:?}");
    assert!(faulty.state().is_valid(), "recovered state must be finite");
    assert_eq!(faulty.sim().time(), clean.sim().time(), "logical time must not drift");
    let err = l2_error_relative(&clean.state().positions, &faulty.state().positions);
    assert!(err < REL_TOL, "recovered trajectory strayed: rel err {err:.3e}, stats {s:?}");
}

#[test]
fn soak_incremental_tree_recovers_within_tolerance() {
    // The soak row for a persistent tree: the rollback restarts the tree's
    // refresh cadence (a restore invalidates it), so the recovered
    // trajectory is the uninjected one within the stale-tree error band
    // rather than to the bit.
    let opts = SimOptions {
        lifecycle: TreeLifecycle::Incremental { max_stale_steps: 3 },
        eval: ForceEval::blocked(),
        ..opts()
    };
    let mk = || {
        let state = galaxy_collision(400, 28);
        GuardedSimulation::new(state, SolverKind::Bvh, opts, GuardConfig::default()).unwrap()
    };
    let mut clean = mk();
    clean.run(40).unwrap();
    let mut faulty =
        mk().with_injector(FaultInjector::new(0xB17).at_step(7, FaultKind::PositionBitFlip));
    faulty.run(40).unwrap();
    let s = faulty.stats();
    assert!(s.suspects + s.corrupts >= 1, "fault went undetected: {s:?}");
    assert!(s.rollbacks >= 1, "no recovery happened: {s:?}");
    assert_eq!(faulty.sim().time(), clean.sim().time(), "logical time must not drift");
    let err = l2_error_relative(&clean.state().positions, &faulty.state().positions);
    assert!(err < REL_TOL, "recovered trajectory strayed: rel err {err:.3e}, stats {s:?}");
}

#[test]
fn a_restore_invalidates_the_tree_the_solver_carries() {
    // Checkpoint, teleport one body, step until a rebuild or refresh has
    // put the teleported body into the tree, restore, step once. The tree
    // now in the solver belongs to the discarded timeline: the step after
    // the restore must build from the restored bodies (non-zero build time
    // — read from the step's own timings, not the process-wide reuse
    // counter) and give the clean run's accelerations, within the error
    // budget `tests/incremental_tree.rs` allows a stale tree. Both ways a
    // tree outlives a step, both trees.
    let carried = [
        ("incremental", TreeLifecycle::Incremental { max_stale_steps: 3 }, 1),
        ("rebuild every 4", TreeLifecycle::Rebuild, 4),
    ];
    for kind in [SolverKind::Bvh, SolverKind::Octree] {
        for (name, lifecycle, tree_rebuild_every) in carried {
            let what = format!("{} / {name}", kind.name());
            let opts = SimOptions {
                eval: ForceEval::blocked(),
                lifecycle,
                tree_rebuild_every,
                ..opts()
            };
            let state = galaxy_collision(400, 29);
            let mut clean = Simulation::new(state.clone(), kind, opts).unwrap();
            clean.run(3);

            let mut sim = Simulation::new(state, kind, opts).unwrap();
            let mut monitor = HealthMonitor::new(HealthConfig::default());
            let mut ring = CheckpointRing::with_capacity(2).unwrap();
            sim.run(2);
            ring.record(&sim, &monitor);
            sim.state_mut().positions[0] += Vec3::splat(50.0);
            let landed = (0..4).any(|_| sim.step().build.as_nanos() > 0);
            assert!(landed, "{what}: no rebuild or refresh within a cadence");
            ring.restore(0, &mut sim, &mut monitor).unwrap();
            assert_eq!(sim.steps_done(), 2, "{what}");

            let t = sim.step();
            assert!(t.build.as_nanos() > 0, "{what}: served from the discarded tree");
            let rel = |i: usize| {
                let (a, b) = (clean.accelerations()[i], sim.accelerations()[i]);
                (a - b).norm() / (1e-12 + a.norm())
            };
            let field = (0..sim.state().len()).map(rel).sum::<f64>() / sim.state().len() as f64;
            assert!(field < 1e-2, "{what}: mean rel field err {field:.3e}");
            assert!(rel(0) < 1e-2, "{what}: teleported body off by {:.3e}", rel(0));
        }
    }
}

#[test]
fn consecutive_faults_climb_through_dt_halving_to_older_slots() {
    // A burst of corruption on five consecutive execution indices defeats
    // every replay from the newest checkpoint: plain replay (rung 0), two
    // replays at dt/2 (rungs 1 and 2), then rungs 3 and 4 restore older ring
    // slots. The run still completes and stays physical.
    let inj = (10..=14).fold(FaultInjector::new(31), |inj, exec| {
        inj.at_step(exec, FaultKind::NanInject)
    });
    let mut guard = guarded(300, 23, GuardConfig::default()).with_injector(inj);
    guard.run(30).unwrap();
    let s = guard.stats();
    assert_eq!(s.rollbacks, 5, "one rung per corrupted replay: {s:?}");
    assert!(s.dt_halvings >= 1, "rung 1 never engaged: {s:?}");
    assert!(s.older_slot_restores >= 1, "no rung restored an older slot: {s:?}");
    assert_eq!(s.checkpoint_rejects, 0, "the older slots were chosen, not forced: {s:?}");
    assert!(guard.state().is_valid());
    // The incident closed: dt restored once the window passed.
    assert_eq!(guard.sim().options().dt, opts().dt, "dt must be restored after recovery");
}

#[test]
fn a_stuck_lock_is_replayed_to_the_uninjected_trajectory() {
    // A worker that dies holding the octree's root lock: the build spends
    // its spin budget and fails with `SpinBudgetExhausted`. The guard takes
    // the failed force pass like a corrupt state — one rollback, one plain
    // replay — and the run ends on the uninjected trajectory, to the bit.
    let mk = || {
        let state = galaxy_collision(300, 30);
        GuardedSimulation::new(state, SolverKind::Octree, opts(), GuardConfig::default()).unwrap()
    };
    let mut clean = mk();
    clean.run(12).unwrap();
    let mut faulty = mk().with_injector(FaultInjector::new(41).at_step(6, FaultKind::StuckLock));
    faulty.run(12).unwrap();
    let s = faulty.stats();
    assert_eq!(s.rollbacks, 1, "{s:?}");
    assert_eq!(s.corrupts, 1, "the failed force pass counts as corrupt: {s:?}");
    assert_eq!(clean.state().positions, faulty.state().positions);
    assert_eq!(clean.state().velocities, faulty.state().velocities);
}

#[test]
fn guarded_recovery_is_reproducible_under_detpar() {
    // The determinism backend plus a seeded schedule: two runs of the same
    // chaos must agree on every counter and every bit of the final state.
    let run = || {
        with_backend(Backend::DetPar, || {
            let mut guard = guarded(250, 24, GuardConfig::default()).with_injector(
                FaultInjector::new(0x5EED)
                    .with_rate(FaultKind::NanInject, 0.05)
                    .with_rate(FaultKind::PositionBitFlip, 0.04),
            );
            guard.run(25).unwrap();
            (guard.stats(), guard.state().clone())
        })
    };
    let (s1, st1) = run();
    let (s2, st2) = run();
    assert_eq!(s1, s2, "recovery history must be deterministic under DetPar");
    assert!(s1.rollbacks > 0, "schedule should have fired: {s1:?}");
    assert_eq!(st1.positions, st2.positions);
    assert_eq!(st1.velocities, st2.velocities);
}

#[test]
fn budget_exhaustion_is_a_typed_error_not_a_hang() {
    let cfg = GuardConfig { max_recoveries: 4, ..GuardConfig::default() };
    let mut guard = guarded(150, 25, cfg)
        .with_injector(FaultInjector::new(77).with_rate(FaultKind::NanInject, 1.0));
    match guard.run(100) {
        Err(GuardError::RecoveryBudgetExhausted { budget: 4, reason, .. }) => {
            assert!(!reason.is_empty());
        }
        other => panic!("expected RecoveryBudgetExhausted, got {other:?}"),
    }
    assert_eq!(guard.recoveries_used(), 4);
}

#[test]
fn kill_and_restart_from_a_corrupted_disk_checkpoint() {
    // End-to-end durability: run guarded with rotating disk checkpoints
    // while the injector sabotages the newest file (torn flush), then
    // "restart the process": resume must reject the damaged file with a
    // typed error and restart cleanly from the rotated previous one.
    let dir = std::env::temp_dir();
    let path = dir.join("self_healing_restart.bin");
    let prev = dir.join("self_healing_restart.bin.prev");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);

    let cfg = GuardConfig { disk_path: Some(path.clone()), disk_every: 3, ..GuardConfig::default() };
    let mut guard = guarded(200, 26, cfg)
        .with_injector(FaultInjector::new(88).at_step(8, FaultKind::CheckpointTruncation));
    guard.run(12).unwrap();
    assert!(guard.stats().disk_checkpoints >= 2, "{:?}", guard.stats());

    let (resumed, used_prev) = resume_state_from_disk(&path).unwrap();
    assert!(resumed.is_valid());
    assert_eq!(resumed.len(), 200);
    // Whether the sabotaged write was the newest file depends on the
    // cadence; either way the resume must succeed, and if the primary was
    // the damaged one the fallback flag must say so.
    if used_prev {
        assert!(stdpar_nbody::sim::io::try_load(&path).is_err());
    }

    // The resumed state seeds a fresh guarded run that steps cleanly.
    let mut resumed_guard = GuardedSimulation::new(
        resumed,
        SolverKind::Bvh,
        opts(),
        GuardConfig::default(),
    )
    .unwrap();
    resumed_guard.run(3).unwrap();
    assert!(resumed_guard.state().is_valid());

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&prev);
}

#[test]
fn healthy_guarded_run_is_bit_identical_to_plain() {
    // The watchdog and checkpointing must be pure observers on the healthy
    // path: same trajectory as the unwrapped simulation, to the bit.
    let state = galaxy_collision(500, 27);
    let mut plain = Simulation::new(state.clone(), SolverKind::Bvh, opts()).unwrap();
    let mut guard =
        GuardedSimulation::new(state, SolverKind::Bvh, opts(), GuardConfig::default()).unwrap();
    plain.run(25);
    guard.run(25).unwrap();
    assert_eq!(plain.state().positions, guard.state().positions);
    assert_eq!(plain.state().velocities, guard.state().velocities);
    let s = guard.stats();
    assert_eq!(s.rollbacks + s.suspects + s.corrupts, 0, "healthy run misjudged: {s:?}");
}
