//! Physical conservation laws across the integration loop — the paper
//! notes its simulations "produce consistent final results across all
//! systems, conserving mass and energy".

use stdpar_nbody::math::gravity::direct_accel;
use stdpar_nbody::math::G_SI;
use stdpar_nbody::prelude::*;
use stdpar_nbody::sim::{FaultInjector, FaultKind};

#[test]
fn energy_is_conserved_by_tree_solvers() {
    let state = galaxy_collision(1_500, 11);
    let m0 = state.total_mass();
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        let opts =
            SimOptions { dt: 1e-3, theta: 0.5, softening: 5e-3, ..SimOptions::default() };
        let mut sim = Simulation::new(state.clone(), kind, opts).unwrap();
        let e0 = Diagnostics::measure(sim.state(), 1.0, 5e-3).total_energy;
        sim.run(100);
        let e1 = Diagnostics::measure(sim.state(), 1.0, 5e-3).total_energy;
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 5e-3, "{}: energy drift {drift}", kind.name());
        assert_eq!(sim.state().total_mass(), m0, "{}: mass touched", kind.name());
    }
}

#[test]
fn energy_is_conserved_under_taskgraph_stepping() {
    // `Stepping::TaskGraph` is still an accepted option and runs the barrier
    // step: a run configured with it must hold the same energy band and
    // exact mass as the rows above.
    let state = galaxy_collision(1_500, 11);
    let m0 = state.total_mass();
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        let opts = SimOptions {
            dt: 1e-3,
            theta: 0.5,
            softening: 5e-3,
            stepping: Stepping::TaskGraph,
            ..SimOptions::default()
        };
        let mut sim = Simulation::new(state.clone(), kind, opts).unwrap();
        let e0 = Diagnostics::measure(sim.state(), 1.0, 5e-3).total_energy;
        sim.run(100);
        let e1 = Diagnostics::measure(sim.state(), 1.0, 5e-3).total_energy;
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 5e-3, "{} task-graph: energy drift {drift}", kind.name());
        assert_eq!(sim.state().total_mass(), m0, "{} task-graph: mass touched", kind.name());
    }
}

/// Mean relative error of `sim`'s accelerations against the exact field at
/// its current positions.
fn mean_force_error(sim: &Simulation) -> f64 {
    let (state, o) = (sim.state(), sim.options());
    let errors = state.positions.iter().zip(sim.accelerations()).enumerate().map(|(i, (&p, &a))| {
        let exact =
            direct_accel(p, Some(i as u32), &state.positions, &state.masses, o.g, o.softening);
        (a - exact).norm() / (1e-12 + exact.norm())
    });
    errors.sum::<f64>() / state.len() as f64
}

/// The physics gate on the configuration the benchmark measures — blocked
/// traversal, SIMD kernel, a tree rebuilt every step — across all five
/// generators and both trees: the force field stays inside
/// the benchmark's 5e-3 tolerance along the run, energy inside the band of
/// the `galaxy_collision` rows above, and momentum inside 1e-3 of Σ m|v| (a
/// tree's forces are not pairwise antisymmetric, so it conserves momentum to
/// its force error, not to round-off like the all-pairs row below).
/// (`Incremental` is gated per step on the disk: `tests/incremental_tree.rs`.)
///
/// 2 000 steps in all: 6.5 s optimised, 3.3 min in a debug build (0.1 s a step),
/// so a debug build checks the first ten steps of each run and CI runs the
/// file with `--release` as well.
#[test]
fn measured_configuration_conserves_on_every_generator() {
    const N: usize = 2_000;
    let checked_at = if cfg!(debug_assertions) { [1, 5, 10] } else { [1, 100, 200] };
    let hour = 3_600.0;
    // (generator, state, G, dt, softening). Every row holds the benchmark's
    // force tolerance on both trees. The tightest is the octree on the thin
    // disk: its cubic-cell monopoles read 1.2e-2 per body, and the group box
    // of the default 32-body group opens enough nodes to bring that to
    // ≈ 2.4e-3 along the run. A group of 8 read 5.5e-3 (EXPERIMENTS.md "One
    // blocked group"), so the row bounds the default group size from below.
    let table = [
        ("galaxy_collision", galaxy_collision(N, 21), 1.0, 1e-3, 5e-3),
        ("plummer", plummer(N, 22), 1.0, 1e-3, 5e-3),
        ("solar_system", solar_system(N - 1, 23), G_SI, hour, 0.0),
        ("spinning_disk", spinning_disk(N, 24), 1.0, 1e-3, 5e-3),
        ("uniform_cube", uniform_cube(N, 25), 1.0, 1e-3, 5e-3),
    ];
    for (generator, state, g, dt, softening) in table {
        let e0 = Diagnostics::measure(&state, g, softening).total_energy;
        let p0 = state.momentum();
        let p_scale: f64 =
            state.velocities.iter().zip(&state.masses).map(|(v, m)| v.norm() * m).sum();
        for kind in [SolverKind::Octree, SolverKind::Bvh] {
            let what = format!("{generator}/{}", kind.name());
            let opts = SimOptions {
                g,
                dt,
                softening,
                theta: 0.5,
                eval: ForceEval::blocked(),
                kernel: ForceKernel::Simd,
                lifecycle: TreeLifecycle::Rebuild,
                ..SimOptions::default()
            };
            let mut sim = Simulation::new(state.clone(), kind, opts).unwrap();
            for until in checked_at {
                sim.run(until - sim.steps_done());
                let err = mean_force_error(&sim);
                assert!(err <= 5e-3, "{what}: force error {err:e} at step {until}");
            }
            let e1 = Diagnostics::measure(sim.state(), g, softening).total_energy;
            let drift = ((e1 - e0) / e0).abs();
            assert!(drift < 5e-3, "{what}: energy drift {drift}");
            let dp = (sim.state().momentum() - p0).norm();
            assert!(dp < 1e-3 * p_scale, "{what}: momentum moved by {dp:e} of {p_scale:e}");
            assert!(sim.state().is_valid(), "{what}");
        }
    }
}

#[test]
fn mass_is_conserved_exactly() {
    let state = plummer(1_000, 12);
    let m0 = state.total_mass();
    let mut sim = Simulation::new(state, SolverKind::Octree, SimOptions::default()).unwrap();
    sim.run(50);
    assert_eq!(sim.state().total_mass(), m0, "mass is never touched by the integrator");
}

#[test]
fn momentum_conservation_all_pairs_exact() {
    // The exact solver preserves momentum to round-off (Newton's 3rd law).
    let state = galaxy_collision(300, 13);
    let opts = SimOptions { dt: 1e-3, theta: 0.0, ..SimOptions::default() };
    let mut sim = Simulation::new(state, SolverKind::AllPairs, opts).unwrap();
    let p0 = sim.state().momentum();
    sim.run(50);
    let p1 = sim.state().momentum();
    assert!((p1 - p0).norm() < 1e-10, "momentum drift {:?}", p1 - p0);
}

#[test]
fn angular_momentum_is_stable_for_disk() {
    let state = spinning_disk(1_000, 14);
    let opts = SimOptions { dt: 1e-3, theta: 0.5, softening: 1e-2, ..SimOptions::default() };
    let mut sim = Simulation::new(state, SolverKind::Bvh, opts).unwrap();
    let l0 = sim.state().angular_momentum().z;
    sim.run(100);
    let l1 = sim.state().angular_momentum().z;
    assert!(((l1 - l0) / l0).abs() < 1e-2, "Lz drift {l0} -> {l1}");
}

#[test]
fn bound_system_stays_bound() {
    let state = plummer(800, 15);
    let opts = SimOptions { dt: 2e-3, theta: 0.5, softening: 1e-2, ..SimOptions::default() };
    let mut sim = Simulation::new(state, SolverKind::Octree, opts).unwrap();
    sim.run(200);
    let d = Diagnostics::measure(sim.state(), 1.0, 1e-2);
    assert!(d.total_energy < 0.0, "Plummer sphere evaporated: E = {}", d.total_energy);
    assert!(sim.state().is_valid());
    // No body should have been ejected to absurd distance in 0.4 time units.
    let max_r = sim.state().positions.iter().map(|p| p.norm()).fold(0.0, f64::max);
    assert!(max_r < 50.0, "body ejected to r = {max_r}");
}

#[test]
fn energy_is_conserved_through_guarded_recovery() {
    // The self-healing layer under live fault injection must not cost
    // physics: rollback-retry (and any dt-halving rungs) keep the guarded
    // run inside the same energy-drift band as the clean solvers above.
    let state = galaxy_collision(1_000, 16);
    let opts = SimOptions { dt: 1e-3, theta: 0.5, softening: 5e-3, ..SimOptions::default() };
    let e0 = Diagnostics::measure(&state, 1.0, 5e-3).total_energy;
    let m0 = state.total_mass();
    let mut guard =
        GuardedSimulation::new(state, SolverKind::Bvh, opts, GuardConfig::default())
            .unwrap()
            .with_injector(
                FaultInjector::new(0xC0_5E_4E)
                    .with_rate(FaultKind::NanInject, 0.05)
                    .with_rate(FaultKind::PositionBitFlip, 0.03),
            );
    guard.run(100).unwrap();
    let s = guard.stats();
    assert!(s.rollbacks >= 1, "injection should have fired over 100 steps: {s:?}");
    let e1 = Diagnostics::measure(guard.state(), 1.0, 5e-3).total_energy;
    let drift = ((e1 - e0) / e0).abs();
    assert!(drift < 5e-3, "guarded+faulted energy drift {drift} (stats {s:?})");
    assert_eq!(guard.state().total_mass(), m0, "rollback must never touch masses");
    assert!(guard.state().is_valid());
}

#[test]
fn kepler_orbit_period_is_correct() {
    // Earth-like circular orbit in G = 1 units: a = 1, M = 1 ⇒ T = 2π.
    let state = SystemState::from_parts(
        vec![Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO],
        vec![Vec3::new(0.0, 1.0, 0.0), Vec3::ZERO],
        vec![1e-9, 1.0],
    );
    let dt = 5e-4;
    let steps = (2.0 * std::f64::consts::PI / dt).round() as usize;
    let opts = SimOptions { dt, theta: 0.0, softening: 0.0, ..SimOptions::default() };
    let mut sim = Simulation::new(state, SolverKind::AllPairs, opts).unwrap();
    sim.run(steps);
    let err = (sim.state().positions[0] - Vec3::new(1.0, 0.0, 0.0)).norm();
    assert!(err < 2e-3, "orbit did not close: {err}");
}
