//! Schedule fuzzing under the DetPar backend (DESIGN.md "Determinism &
//! memory-ordering audit"): sweep a fixed seed × mode matrix over the full
//! solver pipeline and assert
//!
//! 1. byte-identical replay — the same seed reproduces the same
//!    accelerations bit for bit, so any failure in this file reproduces
//!    from one integer;
//! 2. physics equivalence — every schedule agrees with the sequential
//!    baseline to reassociation tolerance;
//! 3. trace pinning — a recorded interleaving replays bitwise;
//! 4. detection power — a deliberately weakened flag-before-payload
//!    publish (the store order a pair of `Relaxed` atomics is allowed to
//!    take) is caught by the adversarial schedule at every seed, while the
//!    correctly ordered variant never trips.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use stdpar_nbody::prelude::*;
use stdpar_nbody::sim::make_solver;
use stdpar_nbody::sim::solver::SolverParams;
use stdpar_nbody::stdpar::backend::{with_backend, Backend};
use stdpar_nbody::stdpar::detpar::{record_trace, replay_trace, with_schedule, ScheduleMode};
use stdpar_nbody::stdpar::prelude::for_each_chunk_worker;

/// The CI seed matrix: small on purpose — every seed must replay
/// byte-identically, so more seeds buy schedule-space coverage, not flake
/// tolerance. Keep in sync with the `schedule-fuzz` CI job description.
const SEEDS: [u64; 5] = [0, 1, 2, 7, 42];

fn accelerations_with(kind: SolverKind, state: &SystemState, params: SolverParams) -> Vec<Vec3> {
    let policy = if kind == SolverKind::Octree { DynPolicy::Par } else { DynPolicy::ParUnseq };
    let mut solver = make_solver(kind, policy, params).unwrap();
    let mut acc = vec![Vec3::ZERO; state.len()];
    solver.compute(state, &mut acc, false);
    acc
}

fn accelerations(kind: SolverKind, state: &SystemState, eval: ForceEval) -> Vec<Vec3> {
    let params = SolverParams { theta: 0.6, softening: 1e-3, eval, ..SolverParams::default() };
    accelerations_with(kind, state, params)
}

fn bits(acc: &[Vec3]) -> Vec<[u64; 3]> {
    acc.iter().map(|v| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]).collect()
}

#[test]
fn solver_pipeline_replays_byte_identically_from_seed() {
    let state = galaxy_collision(400, 91);
    with_backend(Backend::DetPar, || {
        for kind in [SolverKind::Octree, SolverKind::Bvh] {
            for eval in [ForceEval::PerBody, ForceEval::blocked()] {
                for mode in ScheduleMode::ALL {
                    for seed in SEEDS {
                        let a = with_schedule(seed, mode, || accelerations(kind, &state, eval));
                        let b = with_schedule(seed, mode, || accelerations(kind, &state, eval));
                        assert_eq!(
                            bits(&a),
                            bits(&b),
                            "{} {eval:?} mode={} seed={seed}: replay diverged",
                            kind.name(),
                            mode.name()
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn every_schedule_agrees_with_the_sequential_baseline() {
    let state = galaxy_collision(400, 92);
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        let params = SolverParams { theta: 0.6, softening: 1e-3, ..SolverParams::default() };
        let mut seq = make_solver(kind, DynPolicy::Seq, params).unwrap();
        let mut reference = vec![Vec3::ZERO; state.len()];
        seq.compute(&state, &mut reference, false);
        with_backend(Backend::DetPar, || {
            for mode in ScheduleMode::ALL {
                for seed in SEEDS {
                    let acc = with_schedule(seed, mode, || {
                        accelerations(kind, &state, ForceEval::PerBody)
                    });
                    for (i, (&a, &r)) in acc.iter().zip(&reference).enumerate() {
                        assert!(
                            (a - r).norm() <= 1e-9 * (1.0 + r.norm()),
                            "{} mode={} seed={seed} body {i}: {a:?} vs {r:?}",
                            kind.name(),
                            mode.name()
                        );
                    }
                }
            }
        });
    }
}

#[test]
fn simd_kernel_replays_byte_identically_from_seed() {
    // The SIMD microkernel row of the replay matrix: tiled evaluation and
    // the mixed-precision far field are deterministic functions of the
    // gathered lists, and the lists are deterministic under a pinned
    // schedule — so SIMD steps must replay bit for bit, exactly like the
    // scalar rows above. Both precisions, both trees, every mode × seed.
    let state = galaxy_collision(400, 95);
    with_backend(Backend::DetPar, || {
        for kind in [SolverKind::Octree, SolverKind::Bvh] {
            for precision in [KernelPrecision::F64, KernelPrecision::MixedF32Far] {
                let params = SolverParams {
                    theta: 0.6,
                    softening: 1e-3,
                    eval: ForceEval::blocked(),
                    kernel: ForceKernel::Simd,
                    precision,
                    ..SolverParams::default()
                };
                for mode in ScheduleMode::ALL {
                    for seed in SEEDS {
                        let a = with_schedule(seed, mode, || accelerations_with(kind, &state, params));
                        let b = with_schedule(seed, mode, || accelerations_with(kind, &state, params));
                        assert_eq!(
                            bits(&a),
                            bits(&b),
                            "{} simd/{} mode={} seed={seed}: replay diverged",
                            kind.name(),
                            precision.name(),
                            mode.name()
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn incremental_lifecycle_replays_byte_identically_from_seed() {
    // The incremental-lifecycle rows of the replay matrix: a persistent
    // tree carried across drifting states — build, stale serve with the
    // drift-padded MAC, refresh — must replay bit for bit under a pinned
    // schedule, exactly like the per-step-rebuild rows above. Every tree
    // served, stale ones included, passes the solver's strict validation
    // against the state it was built at (for the octree: child after
    // parent, the stackless walk's precondition).
    let mut states = vec![galaxy_collision(300, 96)];
    for step in 1..4 {
        let mut next = states[step - 1].clone();
        for (i, p) in next.positions.iter_mut().enumerate() {
            let t = (i as f64) * 0.7 + (step as f64) * 1.3;
            *p += Vec3::new(t.sin(), (1.7 * t).cos(), (0.4 * t).sin()) * 1e-4;
        }
        states.push(next);
    }
    let run = |kind: SolverKind| -> Vec<[u64; 3]> {
        let params = SolverParams {
            theta: 0.6,
            softening: 1e-3,
            lifecycle: TreeLifecycle::Incremental { max_stale_steps: 1 },
            ..SolverParams::default()
        };
        let policy = if kind == SolverKind::Octree { DynPolicy::Par } else { DynPolicy::ParUnseq };
        let mut solver = make_solver(kind, policy, params).unwrap();
        let mut acc = vec![Vec3::ZERO; states[0].len()];
        let mut out = Vec::new();
        let mut built_at = &states[0];
        for state in &states {
            if solver.compute(state, &mut acc, false).build.as_nanos() > 0 {
                built_at = state;
            }
            solver.validate(built_at).unwrap();
            out.extend(bits(&acc));
        }
        out
    };
    with_backend(Backend::DetPar, || {
        for kind in [SolverKind::Octree, SolverKind::Bvh] {
            for mode in ScheduleMode::ALL {
                for seed in SEEDS {
                    let a = with_schedule(seed, mode, || run(kind));
                    let b = with_schedule(seed, mode, || run(kind));
                    assert_eq!(
                        a,
                        b,
                        "{} incremental mode={} seed={seed}: replay diverged",
                        kind.name(),
                        mode.name()
                    );
                }
            }
        }
    });
}

/// Run a short integration and return the final phase-space coordinates bit
/// for bit. Four steps cover the whole incremental lifecycle (init, stale
/// serve, refresh) when the incremental rows ask for it.
fn step_state_bits(kind: SolverKind, lifecycle: TreeLifecycle) -> Vec<[u64; 3]> {
    let opts = SimOptions {
        dt: 1e-3,
        theta: 0.6,
        softening: 1e-3,
        policy: if kind == SolverKind::Octree { DynPolicy::Par } else { DynPolicy::ParUnseq },
        lifecycle,
        ..SimOptions::default()
    };
    let mut sim = Simulation::new(galaxy_collision(300, 98), kind, opts).unwrap();
    sim.run(4);
    let mut out = bits(&sim.state().positions);
    out.extend(bits(&sim.state().velocities));
    out
}

const LIFECYCLES: [TreeLifecycle; 2] =
    [TreeLifecycle::Rebuild, TreeLifecycle::Incremental { max_stale_steps: 1 }];

#[test]
fn barrier_stepping_replays_byte_identically_from_seed() {
    // The whole-step rows of the replay matrix: every region of a step —
    // kicks, bounding box, sort, build, moments, forces — runs under the
    // same DetPar virtual-worker loop, so a pinned (seed, mode) must
    // reproduce the multi-step trajectory bit for bit — both trees, both
    // lifecycles, every mode × seed.
    with_backend(Backend::DetPar, || {
        for kind in [SolverKind::Octree, SolverKind::Bvh] {
            for lifecycle in LIFECYCLES {
                for mode in ScheduleMode::ALL {
                    for seed in SEEDS {
                        let a = with_schedule(seed, mode, || step_state_bits(kind, lifecycle));
                        let b = with_schedule(seed, mode, || step_state_bits(kind, lifecycle));
                        assert_eq!(
                            a,
                            b,
                            "{} {lifecycle:?} mode={} seed={seed}: replay diverged",
                            kind.name(),
                            mode.name()
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn recorded_trace_replays_barrier_stepping_bitwise() {
    // Trace pinning: record one integration under a random schedule — each
    // of its regions is a chunk-granular entry of the trace — then replay
    // the trace and demand the same bits. This is the debugging contract:
    // any schedule-dependent failure in a step reproduces from its
    // recorded trace.
    with_backend(Backend::DetPar, || {
        for kind in [SolverKind::Octree, SolverKind::Bvh] {
            let (a, trace) = record_trace(|| {
                with_schedule(29, ScheduleMode::Random, || {
                    step_state_bits(kind, TreeLifecycle::Rebuild)
                })
            });
            assert!(!trace.is_empty(), "{}: the step recorded no DetPar regions", kind.name());
            let b = replay_trace(trace, || step_state_bits(kind, TreeLifecycle::Rebuild));
            assert_eq!(a, b, "{}: trace replay diverged", kind.name());
        }
    });
}

#[test]
fn recorded_trace_replays_the_pipeline_bitwise() {
    let state = galaxy_collision(300, 93);
    with_backend(Backend::DetPar, || {
        let (a, trace) = record_trace(|| {
            with_schedule(17, ScheduleMode::Random, || {
                accelerations(SolverKind::Octree, &state, ForceEval::blocked())
            })
        });
        assert!(!trace.is_empty(), "pipeline recorded no DetPar regions");
        let b = replay_trace(trace, || accelerations(SolverKind::Octree, &state, ForceEval::blocked()));
        assert_eq!(bits(&a), bits(&b), "trace replay diverged from the recording");
    });
}

/// The detection-power fixture: virtual worker 0 publishes a payload guarded
/// by a flag, split across its first two scheduler steps; every other worker
/// asserts the flag⇒payload implication on each of its steps. `weak = true`
/// raises the flag in the step *before* the payload write — the visible
/// order a `Relaxed` flag/payload pair is entitled to take — so any
/// schedule that interleaves a consumer between worker 0's first two steps
/// catches it.
fn flag_payload_fixture(weak: bool) {
    let flag = AtomicBool::new(false);
    let payload = AtomicU64::new(0);
    let w0_steps = AtomicUsize::new(0);
    for_each_chunk_worker(Par, 0..64, 1, |w, _| {
        if w == 0 {
            // relaxed-ok (whole fixture): DetPar is single-threaded — these
            // atomics model a *store order*, not a memory-ordering race.
            match (weak, w0_steps.fetch_add(1, Ordering::Relaxed)) {
                (true, 0) => flag.store(true, Ordering::Relaxed), // bug: flag first
                (true, 1) => payload.store(1, Ordering::Relaxed),
                (false, 0) => payload.store(1, Ordering::Relaxed), // correct: payload first
                (false, 1) => flag.store(true, Ordering::Relaxed),
                _ => {}
            }
        } else if flag.load(Ordering::Relaxed) {
            assert_eq!(payload.load(Ordering::Relaxed), 1, "flag visible before its payload");
        }
    });
}

#[test]
fn weakened_publish_is_caught_by_the_adversarial_schedule() {
    with_backend(Backend::DetPar, || {
        // The correctly ordered publish never trips, on any schedule.
        for mode in ScheduleMode::ALL {
            for seed in SEEDS {
                with_schedule(seed, mode, || flag_payload_fixture(false));
            }
        }
        // The weakened publish is caught by the adversarial schedule at
        // EVERY seed: after worker 0's flag step, adversarial scheduling
        // always runs some other worker next, and that worker's assertion
        // lands in the flag-set/payload-missing window. Silence the panic
        // hook while provoking the expected failures.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for seed in SEEDS {
            let caught = std::panic::catch_unwind(|| {
                with_schedule(seed, ScheduleMode::Adversarial, || flag_payload_fixture(true));
            });
            assert!(
                caught.is_err(),
                "seed {seed}: adversarial schedule failed to expose the weakened publish"
            );
        }
        let _ = std::panic::take_hook();
        std::panic::set_hook(hook);
    });
}

#[test]
fn octree_build_probes_hold_across_the_matrix() {
    // End-to-end version of the in-crate probe test: full seed × mode
    // matrix, probes armed, structural validation after every build.
    let state = galaxy_collision(500, 94);
    let bounds = Aabb::from_points(&state.positions);
    with_backend(Backend::DetPar, || {
        for mode in ScheduleMode::ALL {
            for seed in SEEDS {
                with_schedule(seed, mode, || {
                    let mut t = stdpar_nbody::octree::Octree::new();
                    t.set_step_probes(true);
                    t.build(Par, &state.positions, bounds).unwrap();
                    t.compute_multipoles(Par, &state.positions, &state.masses);
                    let total: f64 = state.masses.iter().sum();
                    assert!(
                        (t.node_mass_of(0) - total).abs() <= 1e-9 * total,
                        "mode={} seed={seed}",
                        mode.name()
                    );
                });
            }
        }
    });
}
