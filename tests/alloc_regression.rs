//! Zero-steady-state-allocation regression (DESIGN.md § Memory management).
//!
//! Every transient buffer of a simulation step lives in the
//! [`SimWorkspace`] arena or in solver-owned grow-only storage, so once
//! buffers have warmed up a step at constant N must perform **zero** heap
//! allocations — across both trees, every execution policy, per-body and
//! blocked traversal, the `Dynamic` executor, the self-healing guard, and
//! both step entry points (`step_into` with caller scratch, `step` with the
//! simulation-owned arena).
//!
//! Only compiled with `--features alloc-stats`, which lets this binary
//! install the counting [`GlobalAlloc`] from `stdpar::alloc_stats`. The
//! count is process-wide, so everything runs inside ONE `#[test]` function
//! — concurrent test threads would cross-pollute the deltas.
//!
//! The whole matrix runs twice: at 1 thread (every region inline) and at 2
//! threads, where every region is dispatched to the persistent worker pool
//! (`stdpar::pool`) — job descriptors live on the caller's stack and the
//! workers were spawned during warm-up, so real parallelism allocates
//! nothing either.
//!
//! Telemetry stays ON here (default `telemetry` feature): metric recording
//! is pure atomics, so the zero-allocation invariant must hold with the
//! full instrumentation live — this test is the proof.
#![cfg(feature = "alloc-stats")]

use stdpar_nbody::prelude::*;
use stdpar_nbody::telemetry::{self, metrics};
use stdpar_nbody::stdpar::alloc_stats::{allocation_count, CountingAlloc};
use stdpar_nbody::stdpar::backend::{set_threads, thread_count};

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Warm the pipeline, then assert that further steps allocate nothing —
/// both by the process-wide counter delta and by the per-phase counters
/// threaded through `StepTimings`.
fn assert_steady_state_clean(mut sim: Simulation, ws: &mut SimWorkspace, label: &str) {
    let label = format!("{label} at {} thread(s)", thread_count());
    for _ in 0..3 {
        sim.step_into(ws);
    }
    for step in 0..3 {
        let before = allocation_count();
        let t = sim.step_into(ws);
        let delta = allocation_count() - before;
        assert_eq!(
            delta,
            0,
            "{label}: steady-state step {step} performed {delta} allocations ({:?})",
            t.allocs
        );
        assert_eq!(
            t.allocs.total(),
            0,
            "{label}: per-phase counters nonzero at step {step}: {:?}",
            t.allocs
        );
    }
}

/// The whole configuration sweep at the current thread count.
fn assert_matrix_clean() {
    let threads = thread_count();
    // dt = 0 keeps positions fixed so the tree (and the octree's
    // node-usage-dependent moment storage) is identical every rebuild;
    // the build/sort/traversal phases still run in full each step.
    let state = galaxy_collision(1_500, 77);
    let evals = [ForceEval::PerBody, ForceEval::Blocked { group: 32 }];
    // The (eval, kernel, precision) matrix: the SIMD rows prove the tiled
    // microkernel's pooled scratch (targets, accumulators, converted f32
    // far-field copies) is grow-only like the interaction lists.
    let configs = [
        (ForceEval::PerBody, ForceKernel::Scalar, KernelPrecision::F64),
        (ForceEval::Blocked { group: 32 }, ForceKernel::Scalar, KernelPrecision::F64),
        (ForceEval::Blocked { group: 32 }, ForceKernel::Simd, KernelPrecision::F64),
        (ForceEval::Blocked { group: 32 }, ForceKernel::Simd, KernelPrecision::MixedF32Far),
    ];

    // Both trees x every policy x the eval/kernel matrix.
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        for policy in [DynPolicy::Seq, DynPolicy::Par, DynPolicy::ParUnseq] {
            for (eval, kernel, precision) in configs {
                let opts = SimOptions {
                    dt: 0.0,
                    softening: 1e-3,
                    policy,
                    eval,
                    kernel,
                    precision,
                    ..SimOptions::default()
                };
                let Ok(sim) = Simulation::new(state.clone(), kind, opts) else {
                    continue; // forward-progress rejection (octree + par_unseq)
                };
                let mut ws = SimWorkspace::new();
                let label = format!(
                    "{}/{:?}/{:?}/{}/{}",
                    kind.name(),
                    policy,
                    eval,
                    kernel.name(),
                    precision.name()
                );
                assert_steady_state_clean(sim, &mut ws, &label);
            }
        }
    }

    // The incremental lifecycle: drift scans, stale serves, lazy
    // re-sorts and refreshes must all run out of grow-only
    // solver/workspace storage. `max_stale_steps = 1` makes the
    // 3-step warm-up cover one full cycle (build, stale, refresh),
    // so the measured steps hit both the stale-serve and the
    // refresh paths warm.
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        for eval in evals {
            let opts = SimOptions {
                dt: 0.0,
                softening: 1e-3,
                policy: if kind == SolverKind::Octree {
                    DynPolicy::Par
                } else {
                    DynPolicy::ParUnseq
                },
                eval,
                lifecycle: TreeLifecycle::Incremental { max_stale_steps: 1 },
                ..SimOptions::default()
            };
            let sim = Simulation::new(state.clone(), kind, opts).unwrap();
            let mut ws = SimWorkspace::new();
            let label = format!("incremental/{}/{:?}", kind.name(), eval);
            assert_steady_state_clean(sim, &mut ws, &label);
        }
    }

    // The self-healing guard with checkpointing and the watchdog
    // fully active: the healthy path (fused health reduction every
    // step, ring checkpoint every other step, sampled-energy check
    // every other check) must add zero allocations on top of the
    // wrapped step once the ring is warm.
    {
        let opts = SimOptions { dt: 0.0, softening: 1e-3, ..SimOptions::default() };
        let cfg = GuardConfig {
            checkpoint_every: 2,
            health: HealthConfig { energy_check_every: 2, ..HealthConfig::default() },
            ..GuardConfig::default()
        };
        let mut guard =
            GuardedSimulation::new(state.clone(), SolverKind::Bvh, opts, cfg).unwrap();
        let mut ws = SimWorkspace::new();
        for _ in 0..3 {
            guard.step_into(&mut ws).unwrap();
        }
        for step in 0..4 {
            let before = allocation_count();
            let t = guard.step_into(&mut ws).unwrap();
            let delta = allocation_count() - before;
            assert_eq!(
                delta, 0,
                "guarded, {threads} thread(s): steady-state step {step} performed {delta} allocations"
            );
            assert_eq!(t.allocs.total(), 0, "guarded phase counters: {:?}", t.allocs);
        }
        assert!(
            guard.stats().checkpoint_records >= 3,
            "checkpointing must have been live during the measured window: {:?}",
            guard.stats()
        );
    }

    // The owned-workspace entry point: `step()` detaches and
    // restores the simulation's own arena without allocating.
    let opts = SimOptions {
        dt: 0.0,
        softening: 1e-3,
        eval: ForceEval::Blocked { group: 32 },
        ..SimOptions::default()
    };
    let mut sim = Simulation::new(state.clone(), SolverKind::Bvh, opts).unwrap();
    for _ in 0..3 {
        sim.step();
    }
    let before = allocation_count();
    let t = sim.step();
    let delta = allocation_count() - before;
    assert_eq!(delta, 0, "owned-workspace step() performed {delta} allocations at {threads} thread(s)");
    assert_eq!(t.allocs.total(), 0, "owned-workspace phase counters: {:?}", t.allocs);

    // Multi-tenant service ticks: the plan vector, each slot's step-time
    // notes, the latency window, and each slot's checkpoint ring are all
    // grow-only, so a warm tick at a constant session population must be
    // allocation-free end to end (plan → batched region → settle),
    // checkpoint cadence included.
    {
        use stdpar_nbody::server::{
            CostModel, SchedulerConfig, SessionConfig, SessionManager, TickMode,
        };
        let sched = SchedulerConfig {
            quantum_ns: 300,
            burst_ticks: 1,
            cost_model: CostModel::Fixed(100),
            ..SchedulerConfig::default()
        };
        let mut mgr = SessionManager::new(4, TickMode::Batched, sched);
        let cfg = SessionConfig {
            // dt = 0 for the same reason as the solver sweep above;
            // checkpoint every step so the ring-record path is inside the
            // measured window, not between cadence points.
            opts: SimOptions { dt: 0.0, softening: 1e-3, ..SimOptions::default() },
            checkpoint_every: 1,
            ..SessionConfig::default()
        };
        for seed in 0..3u64 {
            mgr.admit(galaxy_collision(600, 500 + seed), &cfg).unwrap();
        }
        for _ in 0..3 {
            mgr.tick();
        }
        for tick in 0..3 {
            let before = allocation_count();
            let report = mgr.tick();
            let delta = allocation_count() - before;
            assert_eq!(delta, 0, "server, {threads} thread(s): warm tick {tick} performed {delta} allocations");
            assert_eq!(
                report.steps, 9,
                "3 equal-weight sessions x 3 planned steps under the fixed cost model"
            );
            assert_eq!(report.new_quarantines, 0, "dt = 0 sessions must stay healthy");
        }
    }
}

#[test]
fn steady_state_steps_allocate_nothing() {
    // The zero-allocation invariant is a release-build property: debug
    // builds deliberately spend allocations on validation (e.g. the
    // `is_permutation` marker vector in `stdpar::sort`, compiled out of
    // release). CI runs this test with `--release`; a debug invocation
    // would report those validation buffers as false regressions.
    if cfg!(debug_assertions) {
        eprintln!("alloc gate skipped: debug-only validation paths allocate by design");
        return;
    }
    // The zero-allocation gate must cover the instrumented pipeline, not a
    // stripped one: telemetry is compiled in and actively recording below.
    #[allow(clippy::assertions_on_constants)]
    {
        assert!(telemetry::ENABLED, "alloc gate must run with telemetry compiled in");
    }
    metrics::reset();
    let sim_steps_before = metrics::SIM_STEPS.get();
    for threads in [1usize, 2] {
        set_threads(threads);
        assert_matrix_clean();
    }
    set_threads(0);

    // Telemetry recorded throughout the zero-allocation sweep above, so
    // every recording site exercised here is proven allocation-free.
    assert!(
        metrics::SIM_STEPS.get() > sim_steps_before,
        "telemetry must have counted the steps of the sweep"
    );
    assert!(metrics::OCTREE_MAC_ACCEPTS.get() > 0, "octree MAC telemetry live during sweep");
    assert!(metrics::BVH_MAC_ACCEPTS.get() > 0, "bvh MAC telemetry live during sweep");
    assert!(metrics::OCTREE_LIST_BODIES.count() > 0, "blocked-list telemetry live during sweep");
}

