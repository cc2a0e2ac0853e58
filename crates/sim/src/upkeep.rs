//! Tree upkeep between steps: one state machine for both trees, and the
//! tree-specific verbs that carry out its verdicts.
//!
//! Before CALCULATEFORCE a tree solver either rebuilds its tree, reuses last
//! step's, or serves the persistent tree stale behind a drift-padded MAC. At
//! the end of a stale window the persistent tree is rebuilt like any other.
//! A tree served without a rebuild keeps its boxes and moments, never its
//! bodies' positions: [`TreeOps::serve`] brings those up to date.
//! [`Upkeep`] owns the state that choice depends on, [`Upkeep::decide`] is
//! the only function that makes it, and the drift scan, the MAC pad, the
//! reuse counter and the reference snapshot each happen once, here
//! (`scripts/walk_lint.sh`). [`TreeOps`] is what differs between the trees;
//! `crate::solver::TreeSolver` runs the same upkeep over either.
//!
//! The state describes the timeline the tree was built on: whatever moves
//! the bodies other than a step — a checkpoint restore — must call
//! [`Upkeep::invalidate`] (through `ForceSolver::invalidate`).

use crate::fault::FaultKind;
use crate::solver::{ComputeError, SolverKind, SolverParams};
use crate::system::SystemState;
use crate::timing::{timed_counted, StepTimings};
use crate::workspace::SimWorkspace;
use bh_bvh::{Bvh, BvhParams, BvhScratch, BvhView};
use bh_octree::{Octree, OctreeView, TraversalScratch};
use nbody_math::gravity::{ForceParams, TreeLifecycle};
use nbody_math::{Aabb, ForceTiles, TreeView, Vec3};
use nbody_telemetry::record;
use stdpar::prelude::*;

/// What tree upkeep does this step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Build from scratch at the current positions, whatever the lifecycle:
    /// the end of an incremental stale window (a refresh) included.
    Rebuild,
    /// Traverse the previous step's tree as it is (the `tree_rebuild_every`
    /// reuse ablation — no drift scan, no MAC pad), its leaves at the
    /// current positions.
    Reuse,
    /// Traverse the persistent tree, its MAC padded by the drift since its
    /// last rebuild, its leaves at the current positions.
    ServeStale,
}

/// The upkeep state of one tree solver.
#[derive(Default)]
pub(crate) struct Upkeep {
    /// The tree matches the positions of the last rebuild.
    built: bool,
    /// Those positions, for a persistent tree: the reference of the drift
    /// scan. Grow-only.
    ref_pos: Vec<Vec3>,
    /// Steps served stale since then.
    stale_steps: usize,
}

impl Upkeep {
    /// This step's verdict. `tree_ready`: the tree holds `n` bodies.
    /// `Incremental` keeps its own
    /// cadence and ignores `reuse_tree`; an empty system has nothing to
    /// persist and takes the rebuild arm.
    pub(crate) fn decide(
        &self,
        lifecycle: TreeLifecycle,
        n: usize,
        tree_ready: bool,
        reuse_tree: bool,
    ) -> Verdict {
        match lifecycle {
            TreeLifecycle::Incremental { max_stale_steps } if n > 0 => {
                let ready = self.built && tree_ready && self.ref_pos.len() == n;
                if ready && self.stale_steps < max_stale_steps as usize {
                    Verdict::ServeStale
                } else {
                    Verdict::Rebuild
                }
            }
            _ if reuse_tree && self.built && tree_ready => Verdict::Reuse,
            _ => Verdict::Rebuild,
        }
    }

    /// [`Verdict::ServeStale`]: the drift scan — the bounding-box phase's
    /// analogue, timed into its slot, a sequential exact fold — is this
    /// step's MAC pad.
    pub(crate) fn serve_stale(&mut self, pos: &[Vec3], fp: &mut ForceParams, t: &mut StepTimings) {
        debug_assert_eq!(self.ref_pos.len(), pos.len());
        fp.mac_pad = timed_counted(&mut t.bbox, &mut t.allocs.bbox, || {
            self.ref_pos.iter().zip(pos).map(|(a, b)| (*b - *a).norm()).fold(0.0, f64::max)
        });
        self.stale_steps += 1;
        record!(counter TREE_REUSE_STEPS, 1);
    }

    /// The tree no longer describes the bodies, so the next verdict is
    /// [`Verdict::Rebuild`]: before every rebuild (a failed one must not
    /// leave a tree that claims to be current), and after a restore.
    pub(crate) fn invalidate(&mut self) {
        self.built = false;
    }

    /// A rebuild succeeded; a persistent tree passes the positions it ran
    /// at.
    pub(crate) fn rebuilt(&mut self, reference: Option<&[Vec3]>) {
        self.built = true;
        if let Some(positions) = reference {
            self.ref_pos.clear();
            self.ref_pos.extend_from_slice(positions);
            self.stale_steps = 0;
        }
    }
}

/// What a rebuild works on.
pub(crate) struct Step<'a, P, S> {
    pub(crate) policy: P,
    pub(crate) state: &'a SystemState,
    pub(crate) scratch: &'a mut S,
    pub(crate) t: &'a mut StepTimings,
}

impl<P: ExecutionPolicy, S> Step<'_, P, S> {
    /// CALCULATEBOUNDINGBOX: one parallel reduction timed into its slot.
    fn bounds(&mut self) -> Aabb {
        timed_counted(&mut self.t.bbox, &mut self.t.allocs.bbox, || {
            self.state.bounding_box(self.policy)
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
    /// This tree's scratch.
    fn scratch(ws: &mut SimWorkspace) -> &mut Self::Scratch;
    /// The tree holds `n` bodies.
    fn holds(&self, n: usize) -> bool;

    /// [`Verdict::Rebuild`]: the phases between the bounding box and
    /// CALCULATEFORCE (Alg. 2 / Alg. 6), each timed into its slot, as
    /// parallel regions on the caller thread. A tree kept across steps is
    /// built from scratch like any other.
    fn rebuild(&mut self, step: &mut Step<'_, P, Self::Scratch>) -> Result<(), ComputeError>;

    /// [`Verdict::Reuse`] and [`Verdict::ServeStale`]: the tree is served
    /// as it is, so bring whatever copy of the bodies its walk reads up to
    /// the current positions. The octree's leaves read the caller's arrays
    /// and need nothing.
    fn serve(&mut self, _policy: P, _state: &SystemState, _t: &mut StepTimings) {}

    fn begin_force_tasks<'a>(
        &'a self,
        positions: &'a [Vec3],
        masses: &'a [f64],
        accel: &'a mut [Vec3],
        fp: &ForceParams,
        scratch: &'a mut Self::Scratch,
    ) -> ForceTiles<'a, Self::View<'a>>;

    /// The force region.
    fn run_forces(policy: P, tiles: &ForceTiles<'_, Self::View<'_>>) {
        tiles.run_all(policy);
    }

    fn validate(&self, state: &SystemState) -> Result<(), ComputeError>;

    fn inject_fault(&mut self, _kind: FaultKind) -> bool {
        false
    }
}

/// The Concurrent Octree (paper §IV-A, Algorithm 2).
impl<P: ParallelForwardProgress> TreeOps<P> for Octree {
    const KIND: SolverKind = SolverKind::Octree;
    type Scratch = TraversalScratch;
    type View<'a> = OctreeView<'a>;

    fn new(params: &SolverParams) -> Self {
        let mut tree = Octree::new();
        tree.set_quadrupole(params.quadrupole);
        tree
    }

    fn scratch(ws: &mut SimWorkspace) -> &mut TraversalScratch {
        &mut ws.octree
    }

    fn holds(&self, n: usize) -> bool {
        self.n_bodies() == n
    }

    fn rebuild(&mut self, step: &mut Step<'_, P, TraversalScratch>) -> Result<(), ComputeError> {
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

    fn scratch(ws: &mut SimWorkspace) -> &mut BvhScratch {
        &mut ws.bvh
    }

    fn holds(&self, n: usize) -> bool {
        self.n_bodies() == n
    }

    fn rebuild(&mut self, step: &mut Step<'_, P, BvhScratch>) -> Result<(), ComputeError> {
        let bbox = step.bounds();
        let Step { policy, state, scratch, t } = step;
        let (policy, pos, mass) = (*policy, &state.positions, &state.masses);
        timed_counted(&mut t.sort, &mut t.allocs.sort, || {
            self.try_hilbert_sort_with(policy, pos, mass, bbox, scratch)
        })
        .map_err(ComputeError::Build)?;
        timed_counted(&mut t.build, &mut t.allocs.build, || self.try_build_structure(policy))
            .map_err(ComputeError::Build)?;
        timed_counted(&mut t.multipole, &mut t.allocs.multipole, || {
            self.accumulate_moments(policy)
        });
        Ok(())
    }

    /// Re-gather the sorted positions through the kept permutation (timed
    /// into the sort slot, whose gather it is): boxes, moments and order stay
    /// stale, every leaf and target reads its body where it is now.
    fn serve(&mut self, policy: P, state: &SystemState, t: &mut StepTimings) {
        timed_counted(&mut t.sort, &mut t.allocs.sort, || {
            self.regather_positions(policy, &state.positions)
        });
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
mod tests {
    use super::*;

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
        use Verdict::{Rebuild as B, Reuse as U, ServeStale as S};
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
            // k = 0: every step of a ready tree rebuilds.
            (INC0, 0, false, false, [B, B, B]),
            (INC0, 0, false, true,  [B, B, B]),
            (INC0, 0, true,  false, [B, B, B]),
            (INC0, 0, true,  true,  [U, B, B]),
            // k = 2: two stale serves, then the rebuild.
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
            (INC2, 2, true,  false, [B, B, B]),
            (INC2, 2, true,  true,  [U, B, B]),
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
    }

    #[test]
    fn the_machine_keeps_its_cadence_and_forgets_on_invalidate() {
        use Verdict::{Rebuild as B, ServeStale as S};
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
            assert_eq!(step(&mut up, &positions), 0.0, "rebuilt at these positions");
        }
        // A restore: whatever the cadence said, the next step builds.
        up.invalidate();
        step(&mut up, &positions);
        step(&mut up, &positions);
        assert_eq!(seen, [B, S, S, B, S, S, B, B, S]);
    }
}
