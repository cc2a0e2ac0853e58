//! Barrier-free task-graph stepping: one leapfrog step as a static DAG
//! over body-range tiles, executed by [`stdpar::taskgraph::TaskGraph`]'s
//! work-stealing continuation scheduler instead of phase-by-phase
//! parallel regions with global barriers between them.
//!
//! # Step shape (three executor runs)
//!
//! The paper's step is bbox → sort → build → moments → force around the
//! integrator's two kicks, with a full barrier after every phase. The
//! task-graph step keeps the *data* dependences and drops the barriers:
//!
//! 1. **Run A1** — `KickDrift(t)` tiles (the opening kick + drift) with a
//!    `Bbox(t)` partial-reduction tile hanging off each one, so bounding
//!    of a tile starts the moment that tile's bodies have moved. Joining
//!    the box partials is an inherent global reduction, so the join runs
//!    on the caller thread (min/max are exact, any join order is bitwise
//!    identical to the barrier's `transform_reduce`).
//! 2. **Run A2** (BVH rebuild steps) — exactly the rebuild DAG laid out
//!    by [`bh_bvh::RebuildTasks::wire`]: per-tile key+sort nodes, a
//!    binary merge tree, sorted gathers, and per-subtree build/moment
//!    reductions whose edges are *per-subtree*, not a global barrier —
//!    moments for one subtree start while another subtree's gathers are
//!    still running. The concurrent octree's lock-mediated insertion
//!    build does not tile (see `bh_octree::force`); it stays a
//!    caller-thread parallel region between runs.
//! 3. **Run B** — `Force(t)` tiles with a 1:1 `Force(t) → Kick2(t)` edge
//!    each: a tile's closing kick starts the moment its forces land,
//!    instead of after a global force barrier. Kick2 tiles walk exactly
//!    the body set their force tile wrote
//!    ([`nbody_math::ForceTiles::tile_bodies`]), so the single edge orders
//!    every read after its write and slots stay disjoint across tiles.
//!
//! # Bitwise equivalence with the barrier oracle
//!
//! Every node body that touches floats is the same function the barrier
//! loop calls — a force tile is [`nbody_math::ForceTiles::run_range`] for
//! both trees and both executors, a rebuild reduction is the barrier level
//! pass's `reduce_box` / `reduce_moment` (`bh_bvh::tasks`) — kick
//! arithmetic is per-body, box/drift reductions are exact min/max folds,
//! and the BVH sort's distinct `(key, index)` pairs have a unique
//! ascending order. So a task-graph step produces bit-identical state to a
//! barrier step for the BVH under *any* backend and schedule, and for the
//! octree under the deterministic `Backend::DetPar` (whose node-granular trace
//! records and replays entire DAG executions). The `schedule_fuzz`
//! integration suite and the in-module tests pin this down.
//!
//! # Timing attribution
//!
//! Phases overlap here, so per-phase wall windows are ill-defined; each
//! node's execution time is accumulated into a per-phase busy table
//! instead and surfaced through [`StepTimings::busy`] (see
//! [`PhaseBusy`]). Caller-thread sections between runs (bbox join,
//! rebuild layout, octree build) are timed the classic way — they are
//! exclusive, so wall equals busy there.

use crate::resilient::ComputeError;
use crate::solver::{max_drift, BvhSolver, OctreeSolver};
use crate::system::SystemState;
use crate::timing::{timed_counted, PhaseBusy, StepTimings};
use crate::workspace::{DagScratch, SimWorkspace};
use bh_bvh::RebuildPhase;
use nbody_math::gravity::TreeLifecycle;
use nbody_math::{Aabb, ForceTiles, TreeView, Vec3};
use nbody_telemetry::record;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use stdpar::alloc_stats::allocation_count;
use stdpar::backend::{par_grain, thread_count};
use stdpar::prelude::*;
use stdpar::taskgraph::TaskGraph;

/// How one integration step is executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Stepping {
    /// Phase-by-phase parallel regions with a global barrier between
    /// phases — the paper's structure, and the bitwise oracle the
    /// task-graph mode is checked against.
    #[default]
    Barrier,
    /// One static DAG over body-range tiles per step (this module):
    /// barrier-free, work-stealing, deterministic under
    /// `Backend::DetPar`'s node-granular trace replay.
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

/// Sort/gather tiles per worker handed to the BVH rebuild DAG: enough
/// slack that the merge tree's narrowing rounds keep stealing targets
/// available without making tiles too small to amortise node dispatch.
const REBUILD_TILES_PER_WORKER: usize = 4;

/// Per-phase busy-nanosecond tallies, accumulated by node bodies across
/// workers and folded into [`StepTimings`] after the last run joined.
#[derive(Default)]
struct BusyTable {
    bbox: AtomicU64,
    sort: AtomicU64,
    build: AtomicU64,
    multipole: AtomicU64,
    force: AtomicU64,
    update: AtomicU64,
}

impl BusyTable {
    /// Run `f`, adding its execution time to `slot`.
    #[inline]
    fn timed<R>(slot: &AtomicU64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        // relaxed-ok: independent tallies; read only after the executor's
        // thread-scope join publishes every add.
        slot.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    /// Fold the tallies into the timing record: node busy time adds onto
    /// whatever the caller-thread sections already timed, and the
    /// combined per-phase figures become both the `Duration` slots and
    /// the [`PhaseBusy`] attribution.
    fn fold_into(&self, t: &mut StepTimings) {
        // relaxed-ok (whole method): all worker scopes joined before this.
        t.bbox += Duration::from_nanos(self.bbox.load(Ordering::Relaxed));
        t.sort += Duration::from_nanos(self.sort.load(Ordering::Relaxed));
        t.build += Duration::from_nanos(self.build.load(Ordering::Relaxed));
        t.multipole += Duration::from_nanos(self.multipole.load(Ordering::Relaxed));
        t.force += Duration::from_nanos(self.force.load(Ordering::Relaxed));
        t.update += Duration::from_nanos(self.update.load(Ordering::Relaxed));
        t.busy = PhaseBusy::from_wall(t);
    }
}

/// Count heap allocations of `f` into `slot` (the saturating-delta rule
/// of [`timed_counted`], without the wall timer — node bodies feed the
/// busy table themselves).
#[inline]
fn alloc_counted<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let before = allocation_count();
    let r = f();
    *slot += allocation_count().saturating_sub(before);
    r
}

/// Tree-maintenance shape of one step, decided up front (none of the
/// decisions depend on the drifted positions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Maint {
    /// Full rebuild after the drift (Run A2 / the octree build region).
    Rebuild,
    /// Traverse the previous step's tree as-is (the `tree_rebuild_every`
    /// reuse ablation — no drift scan, no MAC pad).
    Reuse,
    /// Incremental lifecycle stale serve: drift-scan for the MAC pad,
    /// then traverse the persistent tree.
    ServeStale,
}

/// Bodies covered by kick/bbox tile `t` at grain `chunk`.
#[inline]
fn tile_range(t: usize, chunk: usize, n: usize) -> std::ops::Range<usize> {
    (t * chunk).min(n)..((t + 1) * chunk).min(n)
}

/// **Run A1**: `KickDrift(t)` tiles, each with a dependent `Bbox(t)`
/// partial when `bbox_parts` is given. Returns nothing; the caller joins
/// the partials. Kick arithmetic is per-body and identical to the
/// barrier integrator's loop, so any schedule is bitwise equivalent.
fn run_kick_drift(
    g: &mut TaskGraph,
    bbox_parts: Option<&mut Vec<Aabb>>,
    state: &mut SystemState,
    accel: &[Vec3],
    dt: f64,
    busy: &BusyTable,
) {
    let n = state.len();
    let half = 0.5 * dt;
    let chunk = par_grain(n).max(1);
    let tiles = n.div_ceil(chunk);
    g.clear();
    let parts = bbox_parts.map(|p| {
        p.clear();
        p.resize(tiles, Aabb::EMPTY);
        SyncSlice::new(&mut p[..])
    });
    g.add_nodes(if parts.is_some() { 2 * tiles } else { tiles });
    if parts.is_some() {
        for t in 0..tiles {
            g.add_edge(t as u32, (tiles + t) as u32);
        }
    }
    let vel = SyncSlice::new(&mut state.velocities);
    let pos = SyncSlice::new(&mut state.positions);
    g.run(|node, _| {
        let id = node as usize;
        if id < tiles {
            BusyTable::timed(&busy.update, || {
                for i in tile_range(id, chunk, n) {
                    // SAFETY: kick-drift tiles partition 0..n.
                    unsafe {
                        let v = vel.get_mut(i);
                        *v += accel[i] * half;
                        *pos.get_mut(i) += *v * dt;
                    }
                }
            });
        } else {
            BusyTable::timed(&busy.bbox, || {
                let t = id - tiles;
                let r = tile_range(t, chunk, n);
                // SAFETY: the KickDrift(t) → Bbox(t) edge ordered every
                // write to this range before these reads.
                let drifted = unsafe { pos.slice(r) };
                let mut b = Aabb::EMPTY;
                for p in drifted {
                    b.expand(*p);
                }
                // unwrap-ok: bbox nodes are only added to the graph when
                // `bbox_parts` was provided (`parts` is Some on this arm by
                // construction of the node layout above).
                // SAFETY: one partial slot per bbox tile.
                unsafe { parts.expect("bbox tile without partials").write(t, b) };
            });
        }
    });
}

/// **Run B**: force tiles with 1:1 `Force(t) → Kick2(t)` edges. A kick
/// tile walks exactly the bodies its force tile wrote, so the one edge
/// orders all its acceleration reads and velocity slots stay disjoint
/// across tiles (tile body sets partition `0..n`).
fn run_force_kick(
    g: &mut TaskGraph,
    ft: &ForceTiles<'_, impl TreeView>,
    velocities: &mut [Vec3],
    half: f64,
    busy: &BusyTable,
) {
    let tiles = ft.tile_count();
    g.clear();
    g.add_nodes(2 * tiles);
    for t in 0..tiles {
        g.add_edge(t as u32, (tiles + t) as u32);
    }
    let out = ft.out();
    let vel = SyncSlice::new(velocities);
    g.run(|node, w| {
        let id = node as usize;
        if id < tiles {
            BusyTable::timed(&busy.force, || ft.run_tile(id, w));
        } else {
            BusyTable::timed(&busy.update, || {
                for b in ft.tile_bodies(id - tiles) {
                    // SAFETY: the Force(t) → Kick2(t) edge ordered this
                    // tile's acceleration writes before these reads, and
                    // tile body sets partition 0..n so the velocity slots
                    // are exclusive.
                    unsafe { *vel.get_mut(b) += out.read(b) * half };
                }
            });
        }
    });
}

/// One barrier-free leapfrog step of the BVH solver, or `None` when the
/// configuration rules it out (sequential policy, `Stepping::Barrier`).
pub(crate) fn bvh_step_dag<P: ExecutionPolicy>(
    s: &mut BvhSolver<P>,
    state: &mut SystemState,
    accel: &mut [Vec3],
    dt: f64,
    reuse: bool,
    ws: &mut SimWorkspace,
) -> Option<Result<StepTimings, ComputeError>> {
    if s.params.stepping != Stepping::TaskGraph || !P::IS_PARALLEL {
        return None;
    }
    Some(step_bvh(s, state, accel, dt, reuse, ws))
}

fn step_bvh<P: ExecutionPolicy>(
    s: &mut BvhSolver<P>,
    state: &mut SystemState,
    accel: &mut [Vec3],
    dt: f64,
    reuse: bool,
    ws: &mut SimWorkspace,
) -> Result<StepTimings, ComputeError> {
    let n = state.len();
    assert_eq!(accel.len(), n, "accel length mismatch");
    let mut t = StepTimings::default();
    let busy = BusyTable::default();

    let maint = match s.params.lifecycle {
        TreeLifecycle::Incremental { max_stale_steps } if n > 0 => {
            let ready = s.built && s.bvh.n_bodies() == n && s.ref_pos.len() == n;
            if ready && s.stale_steps < max_stale_steps as usize {
                Maint::ServeStale
            } else {
                Maint::Rebuild
            }
        }
        _ if reuse && s.built && s.bvh.n_bodies() == n => Maint::Reuse,
        _ => Maint::Rebuild,
    };

    // Run A1: opening kick + drift, with bbox partials on rebuild steps.
    {
        let DagScratch { graph, bbox_parts } = &mut ws.dag;
        let parts = (maint == Maint::Rebuild).then_some(bbox_parts);
        alloc_counted(&mut t.allocs.update, || {
            run_kick_drift(graph, parts, state, accel, dt, &busy)
        });
    }

    // Between runs: tree maintenance.
    let mut fp = s.params.force_params();
    match maint {
        Maint::Rebuild => {
            s.built = false;
            let bbox = BusyTable::timed(&busy.bbox, || {
                ws.dag.bbox_parts.iter().fold(Aabb::EMPTY, |a, b| a.union(*b))
            });
            let tiles_hint = thread_count() * REBUILD_TILES_PER_WORKER;
            // Run A2: the rebuild DAG, exactly as `RebuildTasks::wire`
            // lays it out. Layout/validation (the sequential prefix the
            // barrier sort also runs on the caller thread) is timed into
            // the sort slot, where the barrier path carries it too.
            let begun = timed_counted(&mut t.sort, &mut t.allocs.sort, || {
                s.bvh.begin_rebuild_tasks(
                    &state.positions,
                    &state.masses,
                    bbox,
                    tiles_hint,
                    &mut ws.bvh,
                )
            });
            let tasks = match begun {
                Ok(tasks) => tasks,
                Err(e) => return Err(ComputeError::Build(e)),
            };
            let graph = &mut ws.dag.graph;
            graph.clear();
            tasks.wire(graph);
            alloc_counted(&mut t.allocs.build, || {
                graph.run(|node, _| {
                    let slot = match tasks.node_phase(node) {
                        RebuildPhase::Sort => &busy.sort,
                        RebuildPhase::Build => &busy.build,
                        RebuildPhase::Moments => &busy.multipole,
                    };
                    BusyTable::timed(slot, || tasks.run_node(node));
                })
            });
            s.bvh.finish_rebuild_tasks();
            s.built = true;
            if matches!(s.params.lifecycle, TreeLifecycle::Incremental { .. }) {
                s.ref_pos.clear();
                s.ref_pos.extend_from_slice(&state.positions);
                s.stale_steps = 0;
            }
        }
        Maint::ServeStale => {
            // Drift scan — the bounding-box phase's analogue, exactly as
            // the barrier serve path computes it (sequential exact fold).
            let pad = timed_counted(&mut t.bbox, &mut t.allocs.bbox, || {
                max_drift(&s.ref_pos, &state.positions)
            });
            s.stale_steps += 1;
            fp.mac_pad = pad;
            record!(counter TREE_REUSE_STEPS, 1);
        }
        Maint::Reuse => {}
    }

    // Run B: forces + closing kick.
    {
        let ft = timed_counted(&mut t.force, &mut t.allocs.force, || {
            s.bvh.begin_force_tasks(&state.positions, accel, &fp, &mut ws.bvh)
        });
        alloc_counted(&mut t.allocs.force, || {
            run_force_kick(&mut ws.dag.graph, &ft, &mut state.velocities, 0.5 * dt, &busy)
        });
    }

    busy.fold_into(&mut t);
    Ok(t)
}

/// One barrier-free leapfrog step of the octree solver, or `None` when
/// the configuration rules it out. The lock-mediated insertion build
/// (and the incremental delta machinery) stays a caller-thread region
/// between the runs; kick/drift/bbox and force/kick tiles run on the
/// graph executor.
pub(crate) fn octree_step_dag<P: ParallelForwardProgress>(
    s: &mut OctreeSolver<P>,
    state: &mut SystemState,
    accel: &mut [Vec3],
    dt: f64,
    reuse: bool,
    ws: &mut SimWorkspace,
) -> Option<Result<StepTimings, ComputeError>> {
    if s.params.stepping != Stepping::TaskGraph || !P::IS_PARALLEL {
        return None;
    }
    Some(step_octree(s, state, accel, dt, reuse, ws))
}

fn step_octree<P: ParallelForwardProgress>(
    s: &mut OctreeSolver<P>,
    state: &mut SystemState,
    accel: &mut [Vec3],
    dt: f64,
    reuse: bool,
    ws: &mut SimWorkspace,
) -> Result<StepTimings, ComputeError> {
    let n = state.len();
    assert_eq!(accel.len(), n, "accel length mismatch");
    let mut t = StepTimings::default();
    let busy = BusyTable::default();

    let incremental = match s.params.lifecycle {
        TreeLifecycle::Incremental { max_stale_steps } if n > 0 => Some(max_stale_steps as usize),
        _ => None,
    };
    let rebuild =
        incremental.is_none() && !(reuse && s.built && s.tree.n_bodies() == n);

    // Run A1: opening kick + drift (+ bbox partials when rebuilding).
    {
        let DagScratch { graph, bbox_parts } = &mut ws.dag;
        let parts = rebuild.then_some(bbox_parts);
        alloc_counted(&mut t.allocs.update, || {
            run_kick_drift(graph, parts, state, accel, dt, &busy)
        });
    }

    // Between runs: tree maintenance — the octree build is lock-mediated
    // insertion and runs as its own caller-thread parallel region.
    let mut fp = s.params.force_params();
    if let Some(max_stale) = incremental {
        s.advance_incremental(state, max_stale, &mut fp, &mut t)?;
    } else if rebuild {
        s.built = false;
        let bbox = BusyTable::timed(&busy.bbox, || {
            ws.dag.bbox_parts.iter().fold(Aabb::EMPTY, |a, b| a.union(*b))
        });
        let built = timed_counted(&mut t.build, &mut t.allocs.build, || {
            s.tree.build(s.policy, &state.positions, bbox)
        });
        built.map_err(ComputeError::Build)?;
        timed_counted(&mut t.multipole, &mut t.allocs.multipole, || {
            s.tree.compute_multipoles(s.policy, &state.positions, &state.masses)
        });
        s.built = true;
    }

    // Run B: forces + closing kick.
    {
        let ft = timed_counted(&mut t.force, &mut t.allocs.force, || {
            s.tree.begin_force_tasks(&state.positions, &state.masses, accel, &fp, &mut ws.octree)
        });
        alloc_counted(&mut t.allocs.force, || {
            run_force_kick(&mut ws.dag.graph, &ft, &mut state.velocities, 0.5 * dt, &busy)
        });
    }

    busy.fold_into(&mut t);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::{SimOptions, Simulation};
    use crate::solver::SolverKind;
    use crate::workload::galaxy_collision;
    use nbody_math::gravity::{ForceEval, ForceKernel};
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

    #[test]
    fn bvh_taskgraph_step_matches_barrier_bitwise() {
        for (eval, kernel) in [
            (ForceEval::PerBody, ForceKernel::Scalar),
            (ForceEval::blocked(), ForceKernel::Scalar),
            (ForceEval::blocked(), ForceKernel::Simd),
        ] {
            for lifecycle in
                [TreeLifecycle::Rebuild, TreeLifecycle::Incremental { max_stale_steps: 2 }]
            {
                let opts = SimOptions {
                    dt: 1e-3,
                    policy: DynPolicy::ParUnseq,
                    eval,
                    kernel,
                    lifecycle,
                    ..SimOptions::default()
                };
                let barrier = run_steps(SolverKind::Bvh, opts, 400, 90, 6);
                let dag = run_steps(
                    SolverKind::Bvh,
                    SimOptions { stepping: Stepping::TaskGraph, ..opts },
                    400,
                    90,
                    6,
                );
                assert_states_identical(&barrier, &dag, &format!("{eval:?}/{kernel:?}/{lifecycle:?}"));
                assert!(dag.last_timings().busy.total() > 0, "busy table must be populated");
            }
        }
    }

    #[test]
    fn bvh_taskgraph_reuse_ablation_matches_barrier() {
        let opts = SimOptions { dt: 1e-3, tree_rebuild_every: 3, ..SimOptions::default() };
        let barrier = run_steps(SolverKind::Bvh, opts, 300, 91, 7);
        let dag = run_steps(
            SolverKind::Bvh,
            SimOptions { stepping: Stepping::TaskGraph, ..opts },
            300,
            91,
            7,
        );
        assert_states_identical(&barrier, &dag, "tree_rebuild_every=3");
    }

    #[test]
    fn bvh_taskgraph_identical_across_backends_and_schedules() {
        let opts = SimOptions {
            dt: 1e-3,
            stepping: Stepping::TaskGraph,
            eval: ForceEval::blocked(),
            ..SimOptions::default()
        };
        let reference = run_steps(SolverKind::Bvh, opts, 300, 92, 4);
        for backend in Backend::ALL {
            with_backend(backend, || {
                let sim = run_steps(SolverKind::Bvh, opts, 300, 92, 4);
                assert_states_identical(&reference, &sim, &format!("{backend:?}"));
            });
        }
        with_backend(Backend::DetPar, || {
            for mode in ScheduleMode::ALL {
                with_schedule(17, mode, || {
                    let sim = run_steps(SolverKind::Bvh, opts, 300, 92, 4);
                    assert_states_identical(&reference, &sim, &format!("{mode:?}"));
                });
            }
        });
        with_threads(1, || {
            let sim = run_steps(SolverKind::Bvh, opts, 300, 92, 4);
            assert_states_identical(&reference, &sim, "single worker");
        });
    }

    #[test]
    fn octree_taskgraph_step_matches_barrier_under_detpar() {
        // The lock-mediated octree build is schedule-dependent, so the
        // barrier/task-graph comparison pins the deterministic backend
        // (which makes the build region reproducible given the inputs).
        with_backend(Backend::DetPar, || {
            with_schedule(23, ScheduleMode::RoundRobin, || {
                for lifecycle in
                    [TreeLifecycle::Rebuild, TreeLifecycle::Incremental { max_stale_steps: 2 }]
                {
                    let opts = SimOptions { dt: 1e-3, lifecycle, ..SimOptions::default() };
                    let barrier = run_steps(SolverKind::Octree, opts, 350, 93, 6);
                    let dag = run_steps(
                        SolverKind::Octree,
                        SimOptions { stepping: Stepping::TaskGraph, ..opts },
                        350,
                        93,
                        6,
                    );
                    assert_states_identical(&barrier, &dag, &format!("{lifecycle:?}"));
                }
            });
        });
    }

    #[test]
    fn taskgraph_falls_back_for_sequential_and_non_tree_solvers() {
        // Seq policy and all-pairs solvers must silently use the barrier
        // path (and still advance correctly).
        for kind in [SolverKind::AllPairs, SolverKind::Bvh] {
            let opts = SimOptions {
                dt: 1e-3,
                policy: DynPolicy::Seq,
                stepping: Stepping::TaskGraph,
                ..SimOptions::default()
            };
            let a = run_steps(kind, opts, 120, 94, 3);
            let b = run_steps(
                kind,
                SimOptions { stepping: Stepping::Barrier, ..opts },
                120,
                94,
                3,
            );
            assert_states_identical(&a, &b, kind.name());
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
                Some(crate::solver::SolverError::EmptySystem),
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
