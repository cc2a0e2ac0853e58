//! Multi-tenant service semantics (DESIGN.md § Multi-tenant service).
//!
//! End-to-end checks of the [`SessionManager`]: per-session trajectories
//! under the batched tick (one region per tick) must be **bitwise identical** to
//! solo [`Simulation`] runs of the same normalised options (for both
//! trees, on the default backend and under `Backend::DetPar`); the
//! deficit-round-robin planner must hand out exactly weight-proportional
//! step budgets under a fixed cost model regardless of worker count; a
//! quarantined session must freeze without perturbing its neighbours and
//! come back via checkpoint rollback; and snapshot save/stream/resume
//! must round-trip, rejecting zero-body snapshots with a typed error.

use std::fs;

use stdpar_nbody::prelude::*;
use stdpar_nbody::server::{
    AdmitError, CostModel, SchedulerConfig, SessionConfig, SessionManager, TickMode,
};
use stdpar_nbody::sim::io::{self, SnapshotError};
use stdpar_nbody::stdpar::backend::{with_backend, Backend};

fn base_opts() -> SimOptions {
    SimOptions { dt: 1e-3, softening: 1e-3, ..SimOptions::default() }
}

/// Deterministic scheduler: fixed per-step cost, one-quantum burst, so a
/// weight-w session is planned exactly 3·w steps per tick.
fn det_sched(workers: usize) -> SchedulerConfig {
    SchedulerConfig {
        quantum_ns: 300,
        burst_ticks: 1,
        cost_model: CostModel::Fixed(100),
        workers,
        ..SchedulerConfig::default()
    }
}

#[test]
fn batched_sessions_match_solo_simulations_bitwise() {
    // Sessions are admitted with `policy: Par`; the batched manager
    // normalises to Seq + Barrier, and the solo oracle runs those
    // normalised options directly. Any divergence means cross-session
    // state leaked through the shared graph run.
    for backend in [Backend::Dynamic, Backend::DetPar] {
        with_backend(backend, || {
            let mut mgr = SessionManager::new(8, TickMode::Batched, det_sched(4));
            let mut admitted = Vec::new();
            for (i, (kind, weight)) in [
                (SolverKind::Bvh, 1),
                (SolverKind::Octree, 2),
                (SolverKind::Bvh, 3),
                (SolverKind::Octree, 1),
            ]
            .into_iter()
            .enumerate()
            {
                let n = 150 + 40 * i;
                let seed = 9_000 + i as u64;
                let cfg = SessionConfig {
                    kind,
                    weight,
                    opts: SimOptions { policy: DynPolicy::Par, ..base_opts() },
                    ..SessionConfig::default()
                };
                let id = mgr.admit(galaxy_collision(n, seed), &cfg).unwrap();
                admitted.push((id, kind, n, seed));
            }
            for _ in 0..4 {
                mgr.tick();
            }
            for &(id, kind, n, seed) in &admitted {
                let steps = mgr.session_steps(id).unwrap();
                assert!(steps > 0, "{}: session never stepped", kind.name());
                let opts = SimOptions { policy: DynPolicy::Seq, ..base_opts() };
                let mut solo = Simulation::new(galaxy_collision(n, seed), kind, opts).unwrap();
                let mut ws = SimWorkspace::new();
                for _ in 0..steps {
                    solo.step_into(&mut ws);
                }
                let got = mgr.session_state(id).unwrap();
                assert_eq!(
                    got.positions,
                    solo.state().positions,
                    "{}/{}: batched trajectory diverged from solo after {steps} steps",
                    backend.name(),
                    kind.name()
                );
                assert_eq!(got.velocities, solo.state().velocities);
            }
        });
    }
}

#[test]
fn deficit_round_robin_budgets_are_exactly_weight_proportional() {
    // The plan is computed before execution, so the same fixed-cost
    // schedule must come out of an inline run and a 4-worker graph run.
    for workers in [1, 4] {
        let mut mgr = SessionManager::new(4, TickMode::Batched, det_sched(workers));
        let ids: Vec<_> = [1u32, 3, 2]
            .iter()
            .enumerate()
            .map(|(i, &weight)| {
                let cfg = SessionConfig { weight, opts: base_opts(), ..SessionConfig::default() };
                mgr.admit(galaxy_collision(64, 100 + i as u64), &cfg).unwrap()
            })
            .collect();
        for _ in 0..5 {
            mgr.tick();
        }
        for (id, want) in ids.iter().zip([15u64, 45, 30]) {
            // weight w earns 300·w ns/tick at 100 ns/step → 3·w steps/tick.
            assert_eq!(
                mgr.session_steps(*id).unwrap(),
                want,
                "workers={workers}: DRR budget not weight-proportional"
            );
        }
    }
}

#[test]
fn quarantine_freezes_one_session_without_perturbing_the_rest() {
    let mut mgr = SessionManager::new(4, TickMode::Batched, det_sched(4));
    let healthy_cfg = SessionConfig { opts: base_opts(), ..SessionConfig::default() };
    let healthy = mgr.admit(galaxy_collision(96, 21), &healthy_cfg).unwrap();
    // A watchdog that suspects any kinetic-energy change quarantines the
    // session on its first in-tick step.
    let fragile_cfg = SessionConfig {
        health: HealthConfig { ke_jump_factor: 1.0, ..HealthConfig::default() },
        ..healthy_cfg
    };
    let fragile = mgr.admit(galaxy_collision(96, 22), &fragile_cfg).unwrap();

    let r1 = mgr.tick();
    assert_eq!(r1.new_quarantines, 1, "the fragile session must trip its watchdog");
    assert!(mgr.quarantine_reason(fragile).unwrap().is_some());
    assert!(mgr.quarantine_reason(healthy).unwrap().is_none());
    let frozen_at = mgr.session_steps(fragile).unwrap();

    let healthy_before = mgr.session_steps(healthy).unwrap();
    let r2 = mgr.tick();
    assert_eq!(r2.sessions, 1, "only the healthy session may run");
    assert_eq!(r2.new_quarantines, 0);
    assert!(mgr.session_steps(healthy).unwrap() > healthy_before);
    assert_eq!(mgr.session_steps(fragile).unwrap(), frozen_at, "quarantine must freeze");

    // The healthy neighbour's trajectory must equal a solo run — the
    // quarantined slot can't have poisoned the shared tick.
    let steps = mgr.session_steps(healthy).unwrap();
    let opts = SimOptions { policy: DynPolicy::Seq, ..base_opts() };
    let mut solo = Simulation::new(galaxy_collision(96, 21), SolverKind::Bvh, opts).unwrap();
    let mut ws = SimWorkspace::new();
    for _ in 0..steps {
        solo.step_into(&mut ws);
    }
    assert_eq!(mgr.session_state(healthy).unwrap().positions, solo.state().positions);

    // Rollback to the admission checkpoint lifts the quarantine and
    // rewinds the clock.
    let restored = mgr.restore_quarantined(fragile).unwrap();
    assert_eq!(restored, 0, "admission checkpoint holds the step-0 state");
    assert!(mgr.quarantine_reason(fragile).unwrap().is_none());
    assert_eq!(
        mgr.session_state(fragile).unwrap().positions,
        galaxy_collision(96, 22).positions,
        "rollback must restore the admitted state bitwise"
    );
}

#[test]
fn snapshots_round_trip_and_reject_zero_body_files() {
    let dir = std::env::temp_dir();
    let path = dir.join("service_snapshot_test.bin");
    let empty = dir.join("service_snapshot_empty_test.bin");
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&empty);

    let cfg = SessionConfig { opts: base_opts(), ..SessionConfig::default() };
    let mut mgr = SessionManager::new(2, TickMode::Batched, det_sched(1));
    let id = mgr.admit(galaxy_collision(48, 31), &cfg).unwrap();
    mgr.tick();
    mgr.save_session(id, &path).unwrap();

    // The streamed snapshot is byte-identical to the atomic file save.
    let mut streamed = Vec::new();
    mgr.snapshot_to(id, &mut streamed).unwrap();
    assert_eq!(streamed, fs::read(&path).unwrap());

    // Resuming the snapshot into a fresh manager reproduces the state.
    let mut mgr2 = SessionManager::new(2, TickMode::Batched, det_sched(1));
    let resumed = mgr2.admit_from_snapshot(&path, &cfg).unwrap();
    assert_eq!(
        mgr2.session_state(resumed).unwrap().positions,
        mgr.session_state(id).unwrap().positions
    );

    // A structurally valid snapshot holding zero bodies is refused with
    // the typed end-to-end error, not admitted as a dead session.
    io::try_save(&SystemState::new(), &empty).unwrap();
    assert!(matches!(
        mgr2.admit_from_snapshot(&empty, &cfg),
        Err(AdmitError::Snapshot(SnapshotError::EmptyBody))
    ));

    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&empty);
}

#[test]
fn per_session_mode_matches_batched_results() {
    // The naive baseline must be semantically identical to the batched
    // tick — it exists as a performance baseline, not a behavioural fork.
    // (PerSession honours the admitted policy, so admit Seq to compare.)
    let run = |mode: TickMode| -> Vec<Vec3> {
        let mut mgr = SessionManager::new(2, mode, det_sched(1));
        let cfg = SessionConfig {
            opts: SimOptions { policy: DynPolicy::Seq, ..base_opts() },
            ..SessionConfig::default()
        };
        let id = mgr.admit(galaxy_collision(80, 41), &cfg).unwrap();
        for _ in 0..3 {
            mgr.tick();
        }
        assert_eq!(mgr.session_steps(id).unwrap(), 9);
        mgr.close(id).unwrap().positions
    };
    assert_eq!(run(TickMode::Batched), run(TickMode::PerSession));
}
