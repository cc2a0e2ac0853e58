//! Fused stepping: one leapfrog step as two parallel regions whose chunk
//! bodies run a tile's dependent work straight after the tile, instead of one
//! region (and one global barrier) per phase.
//!
//! This module is the executor side: the two regions both trees share and the
//! per-phase busy table. The step is `TreeSolver::step_dag`
//! ([`crate::solver`]), written once for both trees, and what happens to the
//! tree between the regions is [`crate::upkeep`]'s verdict — the same one a
//! barrier step takes. Only tree solvers under a parallel policy and the
//! leapfrog integrator have such a step; [`crate::Simulation::new`] rejects
//! [`Stepping::TaskGraph`] for anything else (`SolverError::Unsupported`).
//!
//! # Step shape (two regions)
//!
//! The paper's step is bbox → sort → build → moments → force around the
//! integrator's two kicks, with a full barrier after every phase. The fused
//! step keeps the *data* dependences of the body-parallel phases and drops
//! the barriers between a tile and its one dependent. Every such dependence
//! is 1:1 — tile *t* of phase Y needs tile *t* of phase X and nothing else —
//! and a 1:1 edge is a loop body: "do X(t), then Y(t)" inside one chunk of
//! one `for_each_chunk_worker` region.
//!
//! 1. **Region A** — per tile, the opening kick + drift and then, on steps
//!    that rebuild or refresh, that tile's bounding-box partial, so bounding
//!    of a tile starts the moment its bodies have moved. The caller thread
//!    joins the partials.
//! 2. **Between the regions** — the verdict is carried out, for either tree
//!    by the code a barrier step runs: the phases of Alg. 2 / Alg. 6 as
//!    caller-thread parallel regions, handed the joined box.
//! 3. **Region B** — per force tile, the tile and then its closing kick: a
//!    tile's kick starts the moment its forces land, instead of after a
//!    global force barrier. The kick walks exactly the body set its force
//!    tile wrote ([`nbody_math::ForceTiles::tile_bodies`]), so program order
//!    inside the chunk orders every read after its write and slots stay
//!    disjoint across tiles.
//!
//! # Bitwise equivalence with the barrier oracle
//!
//! Every tile body that touches floats is the same function the barrier
//! loop calls — a force tile is [`nbody_math::ForceTiles::run_range`], a
//! kick tile the integrator's per-body [`kick_drift`] / [`kick`] — the box
//! join is an exact min/max fold, and tree upkeep is the barrier step's own
//! code. So a fused step produces bit-identical state to a barrier step for
//! the BVH under *any* backend and schedule, and for the octree under the
//! deterministic `Backend::DetPar` (each region is one entry of its
//! chunk-granular trace). The `schedule_fuzz` integration suite and the
//! in-module tests pin this down.
//!
//! # Timing attribution
//!
//! Two phases share a region here, so per-phase wall windows are
//! ill-defined; each tile body's execution time is accumulated into a
//! per-phase busy table instead — summed over workers — and surfaced
//! through [`StepTimings::busy`] (see [`PhaseBusy`]). Tree upkeep between
//! the regions is timed the classic way — its regions are exclusive, so
//! wall equals busy there.

use crate::integrator::{kick, kick_drift};
use crate::system::SystemState;
use crate::timing::{PhaseBusy, StepTimings};
use nbody_math::{Aabb, ForceTiles, TreeView, Vec3};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use stdpar::alloc_stats::allocation_count;
use stdpar::backend::par_grain;
use stdpar::prelude::*;

/// How one integration step is executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Stepping {
    /// Phase-by-phase parallel regions with a global barrier between
    /// phases — the paper's structure, and the bitwise oracle the fused
    /// mode is checked against.
    #[default]
    Barrier,
    /// Two fused regions per step (this module): no barrier between a tile
    /// and its dependent. The name dates from the DAG executor these
    /// regions replaced; the pinned benchmark spells it.
    TaskGraph,
}

impl Stepping {
    pub const ALL: [Stepping; 2] = [Stepping::Barrier, Stepping::TaskGraph];

    pub fn name(self) -> &'static str {
        match self {
            Stepping::Barrier => "barrier",
            Stepping::TaskGraph => "task-graph",
        }
    }
}

/// Per-phase busy-nanosecond tallies, accumulated by tile bodies across
/// workers and folded into [`StepTimings`] after the last region joined.
#[derive(Default)]
pub(crate) struct BusyTable {
    bbox: AtomicU64,
    force: AtomicU64,
    update: AtomicU64,
}

impl BusyTable {
    /// Run `f`, adding its execution time to `slot`.
    #[inline]
    fn timed<R>(slot: &AtomicU64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        // relaxed-ok: independent tallies; read only after the region's
        // join publishes every add.
        slot.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    /// Fold the tallies into the timing record: tile busy time adds onto
    /// whatever the caller-thread sections already timed, and the
    /// combined per-phase figures become both the `Duration` slots and
    /// the [`PhaseBusy`] attribution.
    pub(crate) fn fold_into(&self, t: &mut StepTimings) {
        // relaxed-ok (whole method): both regions joined before this.
        t.bbox += Duration::from_nanos(self.bbox.load(Ordering::Relaxed));
        t.force += Duration::from_nanos(self.force.load(Ordering::Relaxed));
        t.update += Duration::from_nanos(self.update.load(Ordering::Relaxed));
        t.busy = PhaseBusy::from_wall(t);
    }
}

/// Count heap allocations of `f` into `slot` (the saturating-delta rule
/// of [`timed_counted`], without the wall timer — tile bodies feed the
/// busy table themselves).
#[inline]
pub(crate) fn alloc_counted<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let before = allocation_count();
    let r = f();
    *slot += allocation_count().saturating_sub(before);
    r
}

/// **Region A**: per tile of `par_grain` bodies, the opening kick + drift and
/// then — when `bbox_parts` is given — that tile's bounding-box partial;
/// returns the join of the partials — CALCULATEBOUNDINGBOX at the drifted
/// positions (min/max are exact, so any join order is bitwise the barrier
/// reduction). Kick arithmetic is per-body and the barrier integrator's own
/// function, so any schedule is bitwise equivalent.
pub(crate) fn run_kick_drift(
    policy: impl ExecutionPolicy,
    mut bbox_parts: Option<&mut Vec<Aabb>>,
    state: &mut SystemState,
    accel: &[Vec3],
    dt: f64,
    busy: &BusyTable,
) -> Option<Aabb> {
    let n = state.len();
    let half = 0.5 * dt;
    let chunk = par_grain(n).max(1);
    let parts = bbox_parts.as_deref_mut().map(|p| {
        p.clear();
        p.resize(n.div_ceil(chunk), Aabb::EMPTY);
        SyncSlice::new(&mut p[..])
    });
    let vel = SyncSlice::new(&mut state.velocities);
    let pos = SyncSlice::new(&mut state.positions);
    for_each_chunk_worker(policy, 0..n, chunk, |_, r| {
        BusyTable::timed(&busy.update, || {
            for i in r.clone() {
                // SAFETY: the region's chunks partition 0..n.
                unsafe { kick_drift(vel.get_mut(i), pos.get_mut(i), accel[i], half, dt) };
            }
        });
        let Some(parts) = parts else { return };
        BusyTable::timed(&busy.bbox, || {
            // SAFETY: this chunk's own range — every write to it is the loop
            // above, earlier in this call, and no other chunk touches it.
            let drifted = unsafe { pos.slice(r.clone()) };
            let mut b = Aabb::EMPTY;
            for p in drifted {
                b.expand(*p);
            }
            // SAFETY: chunks start at multiples of `chunk`, so each has its
            // own partial slot.
            unsafe { parts.write(r.start / chunk, b) };
        });
    });
    let parts = bbox_parts?;
    Some(BusyTable::timed(&busy.bbox, || parts.iter().fold(Aabb::EMPTY, |a, b| a.union(*b))))
}

/// **Region B**: per force tile, the tile and then its closing kick. The kick
/// walks exactly the bodies its force tile wrote, so program order inside the
/// chunk orders all its acceleration reads and velocity slots stay disjoint
/// across tiles (tile body sets partition `0..n`).
pub(crate) fn run_force_kick(
    policy: impl ExecutionPolicy,
    ft: &ForceTiles<'_, impl TreeView>,
    velocities: &mut [Vec3],
    half: f64,
    busy: &BusyTable,
) {
    let out = ft.out();
    let vel = SyncSlice::new(velocities);
    for_each_chunk_worker(policy, 0..ft.tile_count(), 1, |w, tiles| {
        for t in tiles {
            BusyTable::timed(&busy.force, || ft.run_tile(t, w));
            BusyTable::timed(&busy.update, || {
                for b in ft.tile_bodies(t) {
                    // SAFETY: this tile's accelerations were written by the
                    // `run_tile` call just above, on this thread, and tile
                    // body sets partition 0..n so both the acceleration and
                    // the velocity slots are this tile's alone.
                    unsafe { kick(vel.get_mut(b), out.read(b), half) };
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::{IntegratorKind, SimOptions, Simulation};
    use crate::solver::{make_solver, SolverError, SolverKind, SolverParams};
    use crate::upkeep::tests::take_verdicts;
    use crate::upkeep::{TreeOps, Verdict};
    use crate::workload::galaxy_collision;
    use bh_bvh::Bvh;
    use bh_octree::Octree;
    use nbody_math::gravity::{ForceEval, ForceKernel, TreeLifecycle};
    use nbody_telemetry::metrics as m;
    use stdpar::backend::{with_backend, with_threads, Backend};
    use stdpar::detpar::{with_schedule, ScheduleMode};
    use stdpar::policy::DynPolicy;

    fn run_steps(kind: SolverKind, opts: SimOptions, n: usize, seed: u64, steps: usize) -> Simulation {
        let state = galaxy_collision(n, seed);
        let mut sim = Simulation::new(state, kind, opts).unwrap();
        sim.run(steps);
        sim
    }

    fn assert_states_identical(a: &Simulation, b: &Simulation, what: &str) {
        assert_eq!(a.state().positions, b.state().positions, "{what}: positions diverged");
        assert_eq!(a.state().velocities, b.state().velocities, "{what}: velocities diverged");
        assert_eq!(a.accelerations(), b.accelerations(), "{what}: accelerations diverged");
    }

    /// Telemetry counters are process globals and sibling unit tests move
    /// them, so a test comparing exact deltas runs alone: unless this
    /// process was started for `test` only (`<test> --exact`), start such a
    /// process from this test binary, check it passed, and return `false`.
    fn alone_in_process(test: &str) -> bool {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--exact") && args.iter().any(|a| a == test) {
            return true;
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([test, "--exact", "--test-threads=1"])
            .output()
            .unwrap();
        let said = [out.stdout, out.stderr].concat();
        let said = String::from_utf8_lossy(&said);
        assert!(out.status.success(), "{test} failed in its own process:\n{said}");
        false
    }

    /// What a run moved: `[tree_reuse_steps, bvh_lazy_resorts,
    /// bvh_full_resorts, octree_builds]`.
    fn counters() -> [u64; 4] {
        [
            m::TREE_REUSE_STEPS.get(),
            m::BVH_LAZY_RESORTS.get(),
            m::BVH_FULL_RESORTS.get(),
            m::OCTREE_BUILDS.get(),
        ]
    }

    /// Run `steps` steps under `stepping`; the final simulation, the verdict
    /// of the seeding force evaluation and of every step, and what the run
    /// moved of [`counters`].
    fn observed<T: TreeOps<Par>>(
        stepping: Stepping,
        opts: SimOptions,
        (n, seed, steps): (usize, u64, usize),
    ) -> (Simulation, Vec<Verdict>, [u64; 4]) {
        take_verdicts();
        let before = counters();
        let sim = run_steps(T::KIND, SimOptions { stepping, ..opts }, n, seed, steps);
        let after = counters();
        (sim, take_verdicts(), std::array::from_fn(|i| after[i] - before[i]))
    }

    /// One row of the executor-equivalence table: the same options stepped
    /// with barriers and fused give the same state bit for bit, take the
    /// same upkeep verdict at every step, and account alike. Returns the
    /// fused run.
    fn executors_agree<T: TreeOps<Par>>(
        opts: SimOptions,
        shape: (usize, u64, usize),
    ) -> Simulation {
        let what = format!(
            "{}/{:?}/{:?}/{:?}/every {}",
            T::KIND.name(),
            opts.eval,
            opts.kernel,
            opts.lifecycle,
            opts.tree_rebuild_every
        );
        let (barrier, verdicts, moved_b) = observed::<T>(Stepping::Barrier, opts, shape);
        let (graph, verdicts_g, moved_g) = observed::<T>(Stepping::TaskGraph, opts, shape);
        assert_states_identical(&barrier, &graph, &what);
        assert!(graph.last_timings().busy.total() > 0, "{what}: busy table must be populated");
        assert_eq!(verdicts, verdicts_g, "{what}: the executors decided differently");
        assert_eq!(verdicts.len(), 1 + shape.2, "{what}: one verdict per force evaluation");
        assert_eq!(verdicts[0], Verdict::Rebuild, "{what}: the seeding evaluation builds");

        if !nbody_telemetry::ENABLED {
            return graph;
        }
        let count = |of: &[Verdict]| verdicts[1..].iter().filter(|v| of.contains(v)).count() as u64;
        assert_eq!(moved_b, moved_g, "{what}: the executors account differently");
        let [reuse, lazy, full, octree_builds] = moved_g;
        assert_eq!(reuse, count(&[Verdict::ServeStale]), "{what}: one count per stale serve");
        let persistent = matches!(opts.lifecycle, TreeLifecycle::Incremental { .. });
        // The seeding evaluation and every rebuild or refresh after it.
        let upkept = 1 + count(&[Verdict::Rebuild, Verdict::Refresh]);
        if T::KIND == SolverKind::Bvh {
            // A persistent tree's builds all go through the re-sort (the
            // seeding one finds nothing to reuse); a plain full sort is not
            // counted as a re-sort.
            assert_eq!(lazy + full, if persistent { upkept } else { 0 }, "{what}");
            // Under the task graph too, a refresh repairs the previous order.
            assert_eq!(lazy > 0, persistent, "{what}");
            assert_eq!(octree_builds, 0, "{what}");
        } else {
            // An octree refresh is exactly one full build, like a rebuild.
            assert_eq!(octree_builds, upkept, "{what}");
            assert_eq!([lazy, full], [0; 2], "{what}");
        }
        graph
    }

    #[test]
    fn barrier_and_graph_executors_agree() {
        if !alone_in_process("dag::tests::barrier_and_graph_executors_agree") {
            return;
        }
        let lifecycles =
            [TreeLifecycle::Rebuild, TreeLifecycle::Incremental { max_stale_steps: 2 }];
        for (eval, kernel) in [
            (ForceEval::PerBody, ForceKernel::Scalar),
            (ForceEval::blocked(), ForceKernel::Scalar),
            (ForceEval::blocked(), ForceKernel::Simd),
        ] {
            for lifecycle in lifecycles {
                let opts = SimOptions {
                    dt: 1e-3,
                    policy: DynPolicy::ParUnseq,
                    eval,
                    kernel,
                    lifecycle,
                    ..SimOptions::default()
                };
                executors_agree::<Bvh>(opts, (400, 90, 6));
            }
        }

        // The `tree_rebuild_every` reuse ablation.
        let opts = SimOptions { dt: 1e-3, tree_rebuild_every: 3, ..SimOptions::default() };
        executors_agree::<Bvh>(opts, (300, 91, 7));

        // The BVH's graph step is the same under any backend, schedule and
        // worker count.
        let opts = SimOptions { dt: 1e-3, eval: ForceEval::blocked(), ..SimOptions::default() };
        let reference = executors_agree::<Bvh>(opts, (300, 92, 4));
        let graph = || {
            let opts = SimOptions { stepping: Stepping::TaskGraph, ..opts };
            run_steps(SolverKind::Bvh, opts, 300, 92, 4)
        };
        for backend in Backend::ALL {
            with_backend(backend, || {
                assert_states_identical(&reference, &graph(), &format!("{backend:?}"));
            });
        }
        with_backend(Backend::DetPar, || {
            for mode in ScheduleMode::ALL {
                with_schedule(17, mode, || {
                    assert_states_identical(&reference, &graph(), &format!("{mode:?}"));
                });
            }
        });
        with_threads(1, || assert_states_identical(&reference, &graph(), "single worker"));

        // The lock-mediated octree build is schedule-dependent, so its rows
        // pin the deterministic backend (which makes the build region
        // reproducible given the inputs).
        with_backend(Backend::DetPar, || {
            with_schedule(23, ScheduleMode::RoundRobin, || {
                for lifecycle in lifecycles {
                    let opts = SimOptions { dt: 1e-3, lifecycle, ..SimOptions::default() };
                    executors_agree::<Octree>(opts, (350, 93, 6));
                }
            });
        });
    }

    /// A fused step is plain parallel regions: it runs no task graph (two
    /// runs per step before the regions replaced them), and the regions it
    /// launches are countable.
    #[test]
    fn fused_steps_run_regions_and_no_graph() {
        if !alone_in_process("dag::tests::fused_steps_run_regions_and_no_graph") {
            return;
        }
        // What eight warm fused steps move of [dag nodes, dag runs, regions].
        // Two workers: the sort's merge rounds follow the worker count.
        let moved = |kind: SolverKind| {
            with_threads(2, || {
                let opts =
                    SimOptions { dt: 1e-3, stepping: Stepping::TaskGraph, ..SimOptions::default() };
                let mut sim = Simulation::new(galaxy_collision(400, 95), kind, opts).unwrap();
                sim.run(1); // the seeding barrier evaluation and first-use set-up
                let read = || {
                    [m::STDPAR_DAG_NODES.get(), m::STDPAR_DAG_RUNS.get(), m::STDPAR_PAR_REGIONS.get()]
                };
                let before = read();
                sim.run(8);
                let after = read();
                std::array::from_fn::<u64, 3, _>(|i| after[i] - before[i])
            })
        };
        let bvh = moved(SolverKind::Bvh);
        let octree = with_backend(Backend::DetPar, || {
            with_schedule(23, ScheduleMode::RoundRobin, || moved(SolverKind::Octree))
        });
        if !nbody_telemetry::ENABLED {
            return;
        }
        // Region A, the 23 sort / build / moment regions of a 400-body
        // rebuild, Region B. (A barrier step launches 26: the force phase and
        // the closing kick are one region each there.)
        assert_eq!(bvh, [0, 0, 8 * (1 + 23 + 1)], "bvh");
        // Region A, the 5 build and multipole regions, Region B. (A barrier
        // step launches 9: DetPar also counts the bounding-box reduction the
        // fused step folds into Region A.)
        assert_eq!(octree, [0, 0, 8 * (1 + 5 + 1)], "octree");
    }

    #[test]
    fn taskgraph_is_a_typed_error_where_no_graph_step_exists() {
        let state = galaxy_collision(120, 94);
        let base = SimOptions { dt: 1e-3, stepping: Stepping::TaskGraph, ..SimOptions::default() };
        let seq = SimOptions { policy: DynPolicy::Seq, ..base };
        let euler = SimOptions { integrator: IntegratorKind::SymplecticEuler, ..base };
        for (kind, opts, with) in [
            (SolverKind::Bvh, seq, "the sequential policy"),
            (SolverKind::AllPairs, base, "the all-pairs solvers"),
            (SolverKind::Octree, euler, "a non-leapfrog integrator"),
        ] {
            let err = Simulation::new(state.clone(), kind, opts).err();
            let want = SolverError::Unsupported { stepping: Stepping::TaskGraph, with };
            assert_eq!(err, Some(want), "{}", kind.name());
            let said = format!("task-graph stepping is not implemented for {with}");
            assert_eq!(want.to_string(), said);
            // The same options step fine with barriers.
            let barrier = SimOptions { stepping: Stepping::Barrier, ..opts };
            assert!(Simulation::new(state.clone(), kind, barrier).is_ok(), "{}", kind.name());
        }

        // A caller-supplied solver without a graph step keeps the documented
        // behaviour: barrier steps, and the same trajectory.
        for kind in [SolverKind::AllPairs, SolverKind::Bvh] {
            let run = |stepping| {
                let params =
                    SolverParams { softening: seq.softening, stepping, ..SolverParams::default() };
                let solver = make_solver(kind, DynPolicy::Seq, params).unwrap();
                let opts = SimOptions { stepping, ..seq };
                let mut sim = Simulation::with_solver(state.clone(), solver, opts);
                sim.run(3);
                sim
            };
            let (graph, barrier) = (run(Stepping::TaskGraph), run(Stepping::Barrier));
            assert_states_identical(&graph, &barrier, kind.name());
        }
    }

    #[test]
    fn taskgraph_handles_single_body_and_rejects_empty_systems() {
        let single = SystemState::from_parts(
            vec![Vec3::new(0.4, -0.1, 0.8)],
            vec![Vec3::new(0.1, 0.0, 0.0)],
            vec![2.0],
        );
        for kind in [SolverKind::Bvh, SolverKind::Octree] {
            let opts =
                SimOptions { dt: 1e-3, stepping: Stepping::TaskGraph, ..SimOptions::default() };
            // N == 0 is a typed construction error, not a panic deep in the
            // bbox/tree code on the first step.
            assert_eq!(
                Simulation::new(SystemState::new(), kind, opts).err(),
                Some(SolverError::EmptySystem),
                "{}",
                kind.name()
            );
            let mut sim = Simulation::new(single.clone(), kind, opts).unwrap();
            sim.run(3);
            assert_eq!(sim.steps_done(), 3, "{} n=1", kind.name());
            assert_eq!(sim.accelerations()[0], Vec3::ZERO);
        }
    }

    #[test]
    fn stepping_names_are_stable() {
        assert_eq!(Stepping::Barrier.name(), "barrier");
        assert_eq!(Stepping::TaskGraph.name(), "task-graph");
        assert_eq!(Stepping::default(), Stepping::Barrier);
    }
}
