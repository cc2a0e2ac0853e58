//! End-to-end pipeline tests across crates: workload → simulation →
//! checkpoint → resume.

use stdpar_nbody::prelude::*;
use stdpar_nbody::sim::diagnostics::l2_error_relative;
use stdpar_nbody::sim::io;
use stdpar_nbody::sim::PhaseBusy;

#[test]
fn checkpoint_resume_is_equivalent_to_uninterrupted_run() {
    let state = galaxy_collision(400, 51);
    let opts = SimOptions { dt: 1e-3, ..SimOptions::default() };

    // Uninterrupted 10 steps.
    let mut a = Simulation::new(state.clone(), SolverKind::Octree, opts).unwrap();
    a.run(10);

    // 5 steps, checkpoint through the binary format, 5 more steps.
    let mut b1 = Simulation::new(state, SolverKind::Octree, opts).unwrap();
    b1.run(5);
    let mut buf = Vec::new();
    io::write_binary(b1.state(), &mut buf).unwrap();
    let restored = io::read_binary(&buf[..]).unwrap();
    let mut b2 = Simulation::new(restored, SolverKind::Octree, opts).unwrap();
    b2.run(5);

    let err = l2_error_relative(&b2.state().positions, &a.state().positions);
    // The resumed run recomputes the first acceleration from identical
    // state, so only tree-rebuild reassociation noise remains.
    assert!(err < 1e-9, "checkpoint/resume drifted: {err}");
}

#[test]
fn phase_busy_attribution_is_bounded_by_worker_time() {
    // Both `Stepping` values run the one barrier step: the same state bit
    // for bit, on every solver and policy — the sequential policy and an
    // all-pairs solver included. Phases are exclusive wall windows, so each
    // step's busy attribution is its wall spans, and their sum stays within
    // the step's own wall time, inside the workers × wall capacity bound.
    let rows = [
        (SolverKind::Bvh, DynPolicy::Par),
        (SolverKind::Octree, DynPolicy::Par),
        (SolverKind::Bvh, DynPolicy::Seq),
        (SolverKind::AllPairs, DynPolicy::Par),
    ];
    for (kind, policy) in rows {
        let run = |stepping| {
            let what = format!("{stepping:?}/{}/{policy:?}", kind.name());
            let opts = SimOptions { dt: 1e-3, policy, stepping, ..SimOptions::default() };
            let mut sim = Simulation::new(galaxy_collision(2_000, 55), kind, opts).unwrap();
            sim.step(); // warm-up: first step seeds accelerations
            for _ in 0..3 {
                let t0 = std::time::Instant::now();
                let t = sim.step();
                let wall = t0.elapsed().as_nanos() as u64;
                assert_eq!(t.busy, PhaseBusy::from_wall(&t), "{what}");
                assert!(t.busy.total() > 0, "{what}: busy attribution empty");
                assert!(t.busy.total() <= wall, "{what}: Σ phase busy exceeds {wall} ns wall");
            }
            sim
        };
        let (barrier, graph) = (run(Stepping::Barrier), run(Stepping::TaskGraph));
        let what = format!("{}/{policy:?}", kind.name());
        assert_eq!(barrier.state().positions, graph.state().positions, "{what}");
        assert_eq!(barrier.state().velocities, graph.state().velocities, "{what}");
        assert_eq!(barrier.accelerations(), graph.accelerations(), "{what}");
    }
}

#[test]
fn csv_snapshot_feeds_external_workflow() {
    // CSV written by the galaxy example's --csv path can be reloaded as a
    // full state when velocities/masses are included via io::write_csv.
    let state = spinning_disk(300, 54);
    let mut buf = Vec::new();
    io::write_csv(&state, &mut buf).unwrap();
    let text = String::from_utf8(buf.clone()).unwrap();
    assert!(text.starts_with("x,y,z,vx,vy,vz,m\n"));
    assert_eq!(text.lines().count(), 301);
    let back = io::read_csv(&buf[..]).unwrap();
    assert_eq!(back.positions, state.positions);
}

#[test]
fn workload_spec_round_trip_through_simulation() {
    for spec in [
        WorkloadSpec::GalaxyCollision { n: 150, seed: 1 },
        WorkloadSpec::Plummer { n: 150, seed: 1 },
        WorkloadSpec::SpinningDisk { n: 150, seed: 1 },
        WorkloadSpec::UniformCube { n: 150, seed: 1 },
    ] {
        let mut sim = Simulation::new(spec.generate(), SolverKind::Bvh, SimOptions::default())
            .unwrap();
        sim.run(3);
        assert!(sim.state().is_valid(), "{}", spec.name());
    }
}
