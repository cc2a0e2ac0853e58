//! Tree upkeep between steps: one state machine for both trees and both
//! executors, and the tree-specific verbs that carry out its verdicts.
//!
//! Before CALCULATEFORCE a tree solver either rebuilds its tree, reuses last
//! step's, serves the persistent tree stale behind a drift-padded MAC, or —
//! at the end of a stale window — rebuilds the persistent tree (a refresh).
//! [`Upkeep`] owns the state that choice depends on, [`Upkeep::decide`] is
//! the only function that makes it, and the drift scan, the MAC pad, the
//! reuse counter and the reference snapshot each happen once, here
//! (`scripts/walk_lint.sh`). [`TreeOps`] is what differs between the trees;
//! `crate::solver::TreeSolver` runs the same upkeep over it under the
//! barrier executor and between the two regions of a fused step.
//!
//! The state describes the timeline the tree was built on: whatever moves
//! the bodies other than a step — a checkpoint restore — must call
//! [`Upkeep::invalidate`] (through `ForceSolver::invalidate`).

use crate::fault::FaultKind;
use crate::solver::{ComputeError, SolverKind, SolverParams};
use crate::system::SystemState;
use crate::timing::{timed_counted, StepTimings};
use crate::workspace::{DagScratch, SimWorkspace};
use bh_bvh::{Bvh, BvhParams, BvhScratch, BvhView};
use bh_octree::{Octree, OctreeView, TraversalScratch};
use nbody_math::gravity::{ForceParams, TreeLifecycle};
use nbody_math::{Aabb, ForceTiles, TreeView, Vec3};
use nbody_telemetry::record;
use stdpar::prelude::*;

/// What tree upkeep does this step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Build from scratch at the current positions.
    Rebuild,
    /// Traverse the previous step's tree as it is (the `tree_rebuild_every`
    /// reuse ablation — no drift scan, no MAC pad).
    Reuse,
    /// Traverse the persistent tree, its MAC padded by the drift since the
    /// last refresh.
    ServeStale,
    /// The stale window is over: rebuild the persistent tree at the current
    /// positions.
    Refresh,
}

/// The upkeep state of one tree solver.
#[derive(Default)]
pub(crate) struct Upkeep {
    /// The tree matches the positions of the last rebuild or refresh.
    built: bool,
    /// Those positions, for a persistent tree: the reference of the drift
    /// scan. Grow-only.
    ref_pos: Vec<Vec3>,
    /// Steps served stale since then.
    stale_steps: usize,
}

impl Upkeep {
    /// This step's verdict. `tree_ready`: the tree holds `n` bodies (and a
    /// persistent one can still be refreshed). `Incremental` keeps its own
    /// cadence and ignores `reuse_tree`; an empty system has nothing to
    /// persist and takes the rebuild arm. Nothing read here depends on this
    /// step's drift, so a fused step decides before its first region.
    pub(crate) fn decide(
        &self,
        lifecycle: TreeLifecycle,
        n: usize,
        tree_ready: bool,
        reuse_tree: bool,
    ) -> Verdict {
        let verdict = match lifecycle {
            TreeLifecycle::Incremental { max_stale_steps } if n > 0 => {
                if !(self.built && tree_ready && self.ref_pos.len() == n) {
                    Verdict::Rebuild
                } else if self.stale_steps < max_stale_steps as usize {
                    Verdict::ServeStale
                } else {
                    Verdict::Refresh
                }
            }
            _ if reuse_tree && self.built && tree_ready => Verdict::Reuse,
            _ => Verdict::Rebuild,
        };
        #[cfg(test)]
        tests::log_verdict(verdict);
        verdict
    }

    /// [`Verdict::ServeStale`]: the drift scan — the bounding-box phase's
    /// analogue, timed into its slot, a sequential exact fold under either
    /// executor — is this step's MAC pad.
    pub(crate) fn serve_stale(&mut self, pos: &[Vec3], fp: &mut ForceParams, t: &mut StepTimings) {
        debug_assert_eq!(self.ref_pos.len(), pos.len());
        fp.mac_pad = timed_counted(&mut t.bbox, &mut t.allocs.bbox, || {
            self.ref_pos.iter().zip(pos).map(|(a, b)| (*b - *a).norm()).fold(0.0, f64::max)
        });
        self.stale_steps += 1;
        record!(counter TREE_REUSE_STEPS, 1);
    }

    /// The tree no longer describes the bodies, so the next verdict is
    /// [`Verdict::Rebuild`]: before every rebuild and refresh (a failed one
    /// must not leave a tree that claims to be current), and after a restore.
    pub(crate) fn invalidate(&mut self) {
        self.built = false;
    }

    /// A rebuild or refresh succeeded; a persistent tree passes the
    /// positions it ran at.
    pub(crate) fn rebuilt(&mut self, reference: Option<&[Vec3]>) {
        self.built = true;
        if let Some(positions) = reference {
            self.ref_pos.clear();
            self.ref_pos.extend_from_slice(positions);
            self.stale_steps = 0;
        }
    }
}

/// What a rebuild or refresh works on — the same under both executors, but
/// for who bounded the bodies.
pub(crate) struct Step<'a, P, S> {
    pub(crate) policy: P,
    pub(crate) state: &'a SystemState,
    pub(crate) scratch: &'a mut S,
    /// The bounding box a fused step joined from Region A's partials
    /// (min/max are exact, so the join is bitwise the reduction); `None`
    /// under the barrier executor.
    pub(crate) joined: Option<Aabb>,
    pub(crate) t: &'a mut StepTimings,
}

impl<P: ExecutionPolicy, S> Step<'_, P, S> {
    /// CALCULATEBOUNDINGBOX: the box the fused step already has, or one
    /// parallel reduction timed into its slot.
    fn bounds(&mut self) -> Aabb {
        self.joined.unwrap_or_else(|| {
            timed_counted(&mut self.t.bbox, &mut self.t.allocs.bbox, || {
                self.state.bounding_box(self.policy)
            })
        })
    }
}

/// What `crate::solver::TreeSolver` needs from a tree. `P` is a trait
/// parameter so a tree states its forward-progress requirement in the impl
/// header (the octree's lock-bit build needs `par`).
pub(crate) trait TreeOps<P: ExecutionPolicy>: Send + Sized + 'static {
    const KIND: SolverKind;
    type Scratch;
    type View<'a>: TreeView;

    fn new(params: &SolverParams) -> Self;
    /// This tree's scratch and the fused-step arena (a fused step borrows both).
    fn scratch(ws: &mut SimWorkspace) -> (&mut Self::Scratch, &mut DagScratch);
    /// The tree holds `n` bodies.
    fn holds(&self, n: usize) -> bool;

    /// [`Verdict::Rebuild`] and [`Verdict::Refresh`]: the phases between
    /// the bounding box and CALCULATEFORCE (Alg. 2 / Alg. 6), each timed
    /// into its slot, as parallel regions on the caller thread.
    /// `persistent`: the tree is kept across steps, so the build may repair
    /// what the previous one left instead of starting over.
    fn rebuild(
        &mut self,
        step: &mut Step<'_, P, Self::Scratch>,
        persistent: bool,
    ) -> Result<(), ComputeError>;

    fn begin_force_tasks<'a>(
        &'a self,
        positions: &'a [Vec3],
        masses: &'a [f64],
        accel: &'a mut [Vec3],
        fp: &ForceParams,
        scratch: &'a mut Self::Scratch,
    ) -> ForceTiles<'a, Self::View<'a>>;

    /// The barrier executor's force region.
    fn run_forces(policy: P, tiles: &ForceTiles<'_, Self::View<'_>>) {
        tiles.run_all(policy);
    }

    fn validate(&self, state: &SystemState) -> Result<(), ComputeError>;

    fn inject_fault(&mut self, _kind: FaultKind) -> bool {
        false
    }
}

/// The Concurrent Octree (paper §IV-A, Algorithm 2). It has nothing to
/// repair: a persistent tree is built from scratch like any other.
impl<P: ParallelForwardProgress> TreeOps<P> for Octree {
    const KIND: SolverKind = SolverKind::Octree;
    type Scratch = TraversalScratch;
    type View<'a> = OctreeView<'a>;

    fn new(params: &SolverParams) -> Self {
        let mut tree = Octree::new();
        tree.set_quadrupole(params.quadrupole);
        tree
    }

    fn scratch(ws: &mut SimWorkspace) -> (&mut TraversalScratch, &mut DagScratch) {
        (&mut ws.octree, &mut ws.dag)
    }

    fn holds(&self, n: usize) -> bool {
        self.n_bodies() == n
    }

    fn rebuild(
        &mut self,
        step: &mut Step<'_, P, TraversalScratch>,
        _persistent: bool,
    ) -> Result<(), ComputeError> {
        let cube = step.bounds();
        let (pos, mass) = (&step.state.positions, &step.state.masses);
        let (policy, t) = (step.policy, &mut *step.t);
        timed_counted(&mut t.build, &mut t.allocs.build, || self.build(policy, pos, cube))
            .map_err(ComputeError::Build)?;
        timed_counted(&mut t.multipole, &mut t.allocs.multipole, || {
            self.compute_multipoles(policy, pos, mass);
        });
        Ok(())
    }

    fn begin_force_tasks<'a>(
        &'a self,
        positions: &'a [Vec3],
        masses: &'a [f64],
        accel: &'a mut [Vec3],
        fp: &ForceParams,
        scratch: &'a mut TraversalScratch,
    ) -> ForceTiles<'a, OctreeView<'a>> {
        Octree::begin_force_tasks(self, positions, masses, accel, fp, scratch)
    }

    /// Paper: CALCULATEFORCE runs under `par_unseq` (independent, lock-free
    /// elements) whatever the build needed; a sequential solver stays
    /// sequential.
    fn run_forces(_policy: P, tiles: &ForceTiles<'_, OctreeView<'_>>) {
        if P::IS_PARALLEL {
            tiles.run_all(ParUnseq);
        } else {
            tiles.run_all(Seq);
        }
    }

    fn validate(&self, state: &SystemState) -> Result<(), ComputeError> {
        bh_octree::TreeInvariants::check(self, &state.positions)
            .map(|_| ())
            .map_err(ComputeError::InvariantViolation)
    }

    fn inject_fault(&mut self, kind: FaultKind) -> bool {
        let stuck = kind == FaultKind::StuckLock;
        if stuck {
            self.inject_stuck_lock();
        }
        stuck
    }
}

/// The Hilbert-sorted BVH (paper §IV-B, Algorithm 6).
impl<P: ExecutionPolicy> TreeOps<P> for Bvh {
    const KIND: SolverKind = SolverKind::Bvh;
    type Scratch = BvhScratch;
    type View<'a> = BvhView<'a>;

    fn new(params: &SolverParams) -> Self {
        Bvh::with_params(BvhParams {
            hilbert_bits: params.hilbert_bits,
            quadrupole: params.quadrupole,
        })
    }

    fn scratch(ws: &mut SimWorkspace) -> (&mut BvhScratch, &mut DagScratch) {
        (&mut ws.bvh, &mut ws.dag)
    }

    fn holds(&self, n: usize) -> bool {
        self.n_bodies() == n
    }

    fn rebuild(
        &mut self,
        step: &mut Step<'_, P, BvhScratch>,
        persistent: bool,
    ) -> Result<(), ComputeError> {
        let bbox = step.bounds();
        let Step { policy, state, scratch, t, .. } = step;
        let (policy, pos, mass) = (*policy, &state.positions, &state.masses);
        // A persistent BVH re-sorts lazily against its previous permutation
        // (a full sort inside when there is none to reuse, so this is also
        // its first build); either sort gives the one ascending `(key, id)`
        // order, so the tree is bitwise the same.
        timed_counted(&mut t.sort, &mut t.allocs.sort, || {
            if persistent {
                self.try_hilbert_resort_with(policy, pos, mass, bbox, scratch)
            } else {
                self.try_hilbert_sort_with(policy, pos, mass, bbox, scratch)
            }
        })
        .map_err(ComputeError::Build)?;
        timed_counted(&mut t.build, &mut t.allocs.build, || self.try_build_structure(policy))
            .map_err(ComputeError::Build)?;
        timed_counted(&mut t.multipole, &mut t.allocs.multipole, || {
            self.accumulate_moments(policy)
        });
        Ok(())
    }

    fn begin_force_tasks<'a>(
        &'a self,
        positions: &'a [Vec3],
        _masses: &'a [f64],
        accel: &'a mut [Vec3],
        fp: &ForceParams,
        scratch: &'a mut BvhScratch,
    ) -> ForceTiles<'a, BvhView<'a>> {
        Bvh::begin_force_tasks(self, positions, accel, fp, scratch)
    }

    fn validate(&self, _state: &SystemState) -> Result<(), ComputeError> {
        bh_bvh::validate::BvhInvariants::check(self)
            .map(|_| ())
            .map_err(ComputeError::InvariantViolation)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::RefCell;

    thread_local! {
        /// Every verdict decided on this thread, in order: lets the
        /// executor-equivalence test in `crate::dag` compare what the two
        /// executors decided, not only what they computed.
        static VERDICTS: RefCell<Vec<Verdict>> = const { RefCell::new(Vec::new()) };
    }

    pub(crate) fn log_verdict(v: Verdict) {
        VERDICTS.with(|log| log.borrow_mut().push(v));
    }

    /// Drain this thread's verdict log.
    pub(crate) fn take_verdicts() -> Vec<Verdict> {
        VERDICTS.with(|log| std::mem::take(&mut *log.borrow_mut()))
    }

    const REBUILD: TreeLifecycle = TreeLifecycle::Rebuild;
    const INC0: TreeLifecycle = TreeLifecycle::Incremental { max_stale_steps: 0 };
    const INC2: TreeLifecycle = TreeLifecycle::Incremental { max_stale_steps: 2 };

    /// A machine whose last rebuild was at `n` bodies when `ready`, and
    /// that never built otherwise.
    fn machine(ready: bool, n: usize, stale_steps: usize) -> Upkeep {
        Upkeep { built: ready, ref_pos: vec![Vec3::ZERO; if ready { n } else { 0 }], stale_steps }
    }

    #[test]
    fn decision_table() {
        use Verdict::{Rebuild as B, Refresh as F, Reuse as U, ServeStale as S};
        // (lifecycle, stale_steps, ready, reuse_tree) -> verdict at n = 0, 1, 400.
        // `stale_steps` runs over {0, k-1, k} of each incremental lifecycle.
        let table = [
            // Rebuild per step: only a ready tree and the caller's flag
            // together give Reuse; stale_steps plays no part.
            (REBUILD, 0, false, false, [B, B, B]),
            (REBUILD, 0, false, true,  [B, B, B]),
            (REBUILD, 0, true,  false, [B, B, B]),
            (REBUILD, 0, true,  true,  [U, U, U]),
            (REBUILD, 7, true,  true,  [U, U, U]),
            // Incremental ignores `reuse_tree` — except at n = 0, which has
            // nothing to persist and takes the rebuild arm above.
            // k = 0: every step of a ready tree refreshes.
            (INC0, 0, false, false, [B, B, B]),
            (INC0, 0, false, true,  [B, B, B]),
            (INC0, 0, true,  false, [B, F, F]),
            (INC0, 0, true,  true,  [U, F, F]),
            // k = 2: two stale serves, then the refresh.
            (INC2, 0, false, false, [B, B, B]),
            (INC2, 0, false, true,  [B, B, B]),
            (INC2, 0, true,  false, [B, S, S]),
            (INC2, 0, true,  true,  [U, S, S]),
            (INC2, 1, false, false, [B, B, B]),
            (INC2, 1, false, true,  [B, B, B]),
            (INC2, 1, true,  false, [B, S, S]),
            (INC2, 1, true,  true,  [U, S, S]),
            (INC2, 2, false, false, [B, B, B]),
            (INC2, 2, false, true,  [B, B, B]),
            (INC2, 2, true,  false, [B, F, F]),
            (INC2, 2, true,  true,  [U, F, F]),
        ];
        for (lifecycle, stale, ready, reuse, want) in table {
            for (n, want) in [0, 1, 400].into_iter().zip(want) {
                let got = machine(ready, n, stale).decide(lifecycle, n, ready, reuse);
                let cell = format!("{lifecycle:?} stale={stale} ready={ready} reuse={reuse} n={n}");
                assert_eq!(got, want, "{cell}");
            }
        }
        // Each part of "ready" alone withholds the persistent tree: the
        // machine never built, the tree disagrees, the body count changed.
        assert_eq!(machine(false, 0, 0).decide(INC2, 400, true, false), B);
        assert_eq!(machine(true, 400, 0).decide(INC2, 400, false, false), B);
        assert_eq!(machine(true, 399, 0).decide(INC2, 400, true, false), B);
        take_verdicts();
    }

    #[test]
    fn the_machine_keeps_its_cadence_and_forgets_on_invalidate() {
        use Verdict::{Rebuild as B, Refresh as F, ServeStale as S};
        let mut positions = vec![Vec3::ZERO; 5];
        let mut up = Upkeep::default();
        let mut seen = vec![];
        let mut step = |up: &mut Upkeep, positions: &[Vec3]| {
            let verdict = up.decide(INC2, positions.len(), true, true);
            let mut fp = ForceParams::default();
            match verdict {
                S => up.serve_stale(positions, &mut fp, &mut StepTimings::default()),
                _ => up.rebuilt(Some(positions)),
            }
            seen.push(verdict);
            fp.mac_pad
        };
        assert_eq!(step(&mut up, &positions), 0.0);
        // The pad is the largest displacement since the reference snapshot.
        positions[3] = Vec3::new(0.0, 3.0, 4.0);
        positions[1] = Vec3::new(1.0, 0.0, 0.0);
        assert_eq!(step(&mut up, &positions), 5.0);
        positions[3] = Vec3::new(0.0, 6.0, 8.0);
        assert_eq!(step(&mut up, &positions), 10.0);
        for _ in 0..4 {
            assert_eq!(step(&mut up, &positions), 0.0, "refreshed at these positions");
        }
        // A restore: whatever the cadence said, the next step builds.
        up.invalidate();
        step(&mut up, &positions);
        step(&mut up, &positions);
        assert_eq!(seen, [B, S, S, F, S, S, F, B, S]);
        take_verdicts();
    }
}
