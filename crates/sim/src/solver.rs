//! Force solvers: the two tree strategies plus the two `O(N²)` all-pairs
//! baselines evaluated in the paper (§V-A "Algorithms").
//!
//! | solver | parallelised over | policy requirement |
//! |---|---|---|
//! | `All-Pairs` | bodies | any (paper: `par_unseq`) |
//! | `All-Pairs-Col` | force-pairs, atomic accumulation | parallel forward progress (`par`) |
//! | `Octree` | bodies / nodes | build+multipoles: `par`; force: `par_unseq` |
//! | `BVH` | bodies / nodes | any (`par_unseq` throughout) |
//!
//! The policy requirements are enforced twice: at compile time through the
//! [`ParallelForwardProgress`] bounds on the generic solver types, and at
//! run time in [`make_solver`] for the dynamic-dispatch path used by the
//! benchmark harness (where requesting `Octree` under `par_unseq` returns
//! [`SolverError::RequiresForwardProgress`] — the paper's "reliably caused
//! them to hang" case, §V-B).
//!
//! The two tree strategies are one [`TreeSolver`], generic over the tree
//! (`crate::upkeep::TreeOps`: implemented for `Octree` under policies with
//! parallel forward progress only, for `Bvh` under all).

use crate::fault::FaultKind;
use crate::integrator::Stepping;
use crate::system::SystemState;
use crate::timing::{timed_counted, StepTimings};
use crate::upkeep::{Step, TreeOps, Upkeep, Verdict};
use crate::workspace::SimWorkspace;
use bh_bvh::Bvh;
use bh_octree::Octree;
use nbody_math::atomic_f64::atomic_f64_vec;
use nbody_math::gravity::{
    pair_accel, ForceEval, ForceKernel, ForceParams, KernelPrecision, TreeLifecycle,
};
use nbody_math::{BuildError, Vec3};
use std::sync::atomic::Ordering;
use stdpar::policy::DynPolicy;
use stdpar::prelude::*;

/// Physics and accuracy parameters shared by all solvers.
#[derive(Clone, Copy, Debug)]
pub struct SolverParams {
    pub theta: f64,
    pub softening: f64,
    pub g: f64,
    /// Quadrupole extension (both trees).
    pub quadrupole: bool,
    /// Force-evaluation strategy (both trees): one traversal per body, or
    /// one traversal per group with shared SoA interaction lists.
    pub eval: ForceEval,
    /// Kernel consuming the blocked interaction lists (both trees; the
    /// scalar oracle or the tiled SIMD microkernel).
    pub kernel: ForceKernel,
    /// Precision mode of the SIMD kernel (f64 or mixed f32 far-field).
    pub precision: KernelPrecision,
    /// Hilbert grid resolution (BVH only).
    pub hilbert_bits: u32,
    /// Tree maintenance across steps (both trees): from-scratch rebuild
    /// per step, or a tree kept across steps that is rebuilt every
    /// `max_stale_steps + 1` steps and served stale in between with a
    /// drift-inflated MAC. `Incremental` manages its own reuse cadence
    /// and therefore ignores the `reuse_tree` flag of
    /// [`ForceSolver::try_compute_into`].
    pub lifecycle: TreeLifecycle,
    /// Read by nothing: every step is the barrier step.
    pub stepping: Stepping,
}

impl Default for SolverParams {
    fn default() -> Self {
        SolverParams {
            theta: 0.5,
            softening: 0.0,
            g: 1.0,
            quadrupole: false,
            eval: ForceEval::PerBody,
            kernel: ForceKernel::Scalar,
            precision: KernelPrecision::F64,
            hilbert_bits: 16,
            lifecycle: TreeLifecycle::Rebuild,
            stepping: Stepping::Barrier,
        }
    }
}

impl SolverParams {
    pub(crate) fn force_params(&self) -> ForceParams {
        ForceParams {
            theta: self.theta,
            softening: self.softening,
            g: self.g,
            use_quadrupole: self.quadrupole,
            eval: self.eval,
            kernel: self.kernel,
            precision: self.precision,
            lifecycle: self.lifecycle,
            mac_pad: 0.0,
        }
    }
}

/// The four algorithms of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    AllPairs,
    AllPairsCol,
    Octree,
    Bvh,
}

impl SolverKind {
    pub const ALL: [SolverKind; 4] =
        [SolverKind::AllPairs, SolverKind::AllPairsCol, SolverKind::Octree, SolverKind::Bvh];

    pub fn name(self) -> &'static str {
        match self {
            SolverKind::AllPairs => "all-pairs",
            SolverKind::AllPairsCol => "all-pairs-col",
            SolverKind::Octree => "octree",
            SolverKind::Bvh => "bvh",
        }
    }

    /// `O(N log N)` tree algorithms vs `O(N²)` baselines.
    pub fn is_tree(self) -> bool {
        matches!(self, SolverKind::Octree | SolverKind::Bvh)
    }
}

/// Solver construction failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverError {
    /// The algorithm takes locks / uses vectorization-unsafe atomics and
    /// therefore needs parallel forward progress; `par_unseq` was requested.
    RequiresForwardProgress(SolverKind),
    /// The system has zero bodies. Rejected at construction: an empty
    /// system has no bounding box, so letting it through only defers the
    /// failure to a panic deep in the tree build — callers that accept
    /// arbitrary configs (the session server) need the typed error here.
    EmptySystem,
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::RequiresForwardProgress(k) => write!(
                f,
                "{} requires parallel forward progress (par); par_unseq lacks it \
                 — on real GPUs without Independent Thread Scheduling this hangs",
                k.name()
            ),
            SolverError::EmptySystem => {
                write!(f, "simulation needs at least one body (the system is empty)")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// A force pass that could not produce accelerations. The guard
/// ([`crate::guard`]) treats one like a corrupt state: it rolls back and
/// replays; an unguarded [`crate::Simulation::step`] panics with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComputeError {
    /// Tree construction failed (see [`BuildError`]).
    Build(BuildError),
    /// Post-build validation found a structural violation.
    InvariantViolation(String),
}

impl std::fmt::Display for ComputeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComputeError::Build(e) => write!(f, "build failed: {e}"),
            ComputeError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
        }
    }
}

impl std::error::Error for ComputeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ComputeError::Build(e) => Some(e),
            ComputeError::InvariantViolation(_) => None,
        }
    }
}

/// A force solver that fills accelerations for the integrator.
///
/// The one required method is [`ForceSolver::try_compute_into`], which
/// draws every transient buffer from a caller-owned [`SimWorkspace`] —
/// the zero-steady-state-allocation contract (see `DESIGN.md` § Memory
/// management). The convenience entry points (`compute_into`, `compute`)
/// are provided on top; `compute` builds a throwaway arena per call,
/// trading allocations for ergonomics.
pub trait ForceSolver: Send {
    fn kind(&self) -> SolverKind;
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Compute `accel[i] = a_i` for the given state, drawing scratch
    /// buffers from `ws` and surfacing structural failures (tree build
    /// errors) as [`ComputeError`] values, which the guard
    /// ([`crate::guard`]) recovers from by rollback and replay.
    ///
    /// With `reuse_tree = true`, tree solvers skip the bounding-box, sort,
    /// build and multipole phases and traverse the *previous* step's tree
    /// (the Iwasawa et al. amortisation discussed in the paper's related
    /// work — an extra approximation, useful as an ablation).
    fn try_compute_into(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        reuse_tree: bool,
        ws: &mut SimWorkspace,
    ) -> Result<StepTimings, ComputeError>;

    /// Infallible [`ForceSolver::try_compute_into`]: panics on structural
    /// failure (the all-pairs baselines never fail).
    fn compute_into(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        reuse_tree: bool,
        ws: &mut SimWorkspace,
    ) -> StepTimings {
        match self.try_compute_into(state, accel, reuse_tree, ws) {
            Ok(t) => t,
            Err(e) => panic!("{} force computation failed: {e}", self.name()),
        }
    }

    /// [`ForceSolver::compute_into`] with a throwaway workspace
    /// (per-call allocations; prefer `compute_into` in steady-state loops).
    fn compute(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        reuse_tree: bool,
    ) -> StepTimings {
        self.compute_into(state, accel, reuse_tree, &mut SimWorkspace::new())
    }

    /// Check the solver's internal acceleration structure against `state`
    /// (tree invariants: every body reachable, boxes nested, no stale
    /// locks). Solvers without internal structure trivially pass.
    fn validate(&self, _state: &SystemState) -> Result<(), ComputeError> {
        Ok(())
    }

    /// Arm a one-shot injected fault for the next force pass that builds a
    /// tree. Returns `true` if this solver supports injecting `kind`: only
    /// the octree takes [`FaultKind::StuckLock`]; the state-level kinds are
    /// applied by the guard to the state itself.
    fn inject_fault(&mut self, _kind: FaultKind) -> bool {
        false
    }

    /// Forget any acceleration structure carried from one step to the next:
    /// the bodies were moved by something other than a step (a checkpoint
    /// restore), so the next call must rebuild from them instead of
    /// reusing, serving stale or refreshing a tree of the timeline that was
    /// discarded. Solvers that carry nothing ignore it.
    fn invalidate(&mut self) {}
}

/// Construct a solver for a runtime-selected policy.
pub fn make_solver(
    kind: SolverKind,
    policy: DynPolicy,
    params: SolverParams,
) -> Result<Box<dyn ForceSolver>, SolverError> {
    Ok(match (kind, policy) {
        (SolverKind::AllPairs, DynPolicy::Seq) => Box::new(AllPairsSolver { policy: Seq, params }),
        (SolverKind::AllPairs, DynPolicy::Par) => Box::new(AllPairsSolver { policy: Par, params }),
        (SolverKind::AllPairs, DynPolicy::ParUnseq) => {
            Box::new(AllPairsSolver { policy: ParUnseq, params })
        }
        (SolverKind::AllPairsCol, DynPolicy::Seq) => {
            Box::new(AllPairsColSolver::new(Seq, params))
        }
        (SolverKind::AllPairsCol, DynPolicy::Par) => {
            Box::new(AllPairsColSolver::new(Par, params))
        }
        (SolverKind::AllPairsCol, DynPolicy::ParUnseq) => {
            return Err(SolverError::RequiresForwardProgress(kind))
        }
        (SolverKind::Octree, DynPolicy::Seq) => Box::new(OctreeSolver::new(Seq, params)),
        (SolverKind::Octree, DynPolicy::Par) => Box::new(OctreeSolver::new(Par, params)),
        (SolverKind::Octree, DynPolicy::ParUnseq) => {
            return Err(SolverError::RequiresForwardProgress(kind))
        }
        (SolverKind::Bvh, DynPolicy::Seq) => Box::new(BvhSolver::new(Seq, params)),
        (SolverKind::Bvh, DynPolicy::Par) => Box::new(BvhSolver::new(Par, params)),
        (SolverKind::Bvh, DynPolicy::ParUnseq) => Box::new(BvhSolver::new(ParUnseq, params)),
    })
}

// ---------------------------------------------------------------------------
// All-Pairs (classical): parallel over bodies, no synchronization.
// ---------------------------------------------------------------------------

/// The classical brute-force baseline: each body sums over all others.
pub struct AllPairsSolver<P: ExecutionPolicy> {
    pub policy: P,
    pub params: SolverParams,
}

impl<P: ExecutionPolicy> ForceSolver for AllPairsSolver<P> {
    fn kind(&self) -> SolverKind {
        SolverKind::AllPairs
    }

    fn try_compute_into(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        _reuse: bool,
        _ws: &mut SimWorkspace,
    ) -> Result<StepTimings, ComputeError> {
        let mut t = StepTimings::default();
        let eps2 = self.params.softening * self.params.softening;
        let g = self.params.g;
        let pos = &state.positions;
        let mass = &state.masses;
        timed_counted(&mut t.force, &mut t.allocs.force, || {
            let out = SyncSlice::new(accel);
            for_each_index(self.policy, 0..pos.len(), |i| {
                let pi = pos[i];
                let mut a = Vec3::ZERO;
                for j in 0..pos.len() {
                    if j != i {
                        a += pair_accel(pos[j] - pi, mass[j], g, eps2);
                    }
                }
                unsafe { out.write(i, a) };
            });
        });
        Ok(t)
    }
}

// ---------------------------------------------------------------------------
// All-Pairs-Col: parallel over unordered force pairs, exploiting Newton's
// third law with concurrent atomic accumulation (paper: par + fetch_add).
// ---------------------------------------------------------------------------

/// The collision-style baseline: one element per unordered pair `(i, j)`;
/// each pair's force is accumulated into *both* bodies with relaxed
/// `AtomicF64::fetch_add`. Atomics are vectorization-unsafe, hence the
/// [`ParallelForwardProgress`] bound.
pub struct AllPairsColSolver<P: ParallelForwardProgress> {
    policy: P,
    params: SolverParams,
    acc: [Vec<nbody_math::AtomicF64>; 3],
}

impl<P: ParallelForwardProgress> AllPairsColSolver<P> {
    pub fn new(policy: P, params: SolverParams) -> Self {
        AllPairsColSolver { policy, params, acc: [Vec::new(), Vec::new(), Vec::new()] }
    }
}

/// `k`-th unordered pair `(i, j)` with `0 ≤ j < i < n`, enumerating row by
/// row: pairs `T(i) .. T(i+1)` have first index `i`, `T(i) = i(i−1)/2`.
#[inline]
pub fn pair_of(k: usize) -> (usize, usize) {
    #[inline]
    fn tri(i: usize) -> usize {
        i * (i - 1) / 2
    }
    let mut i = ((1.0 + (1.0 + 8.0 * k as f64).sqrt()) * 0.5) as usize;
    while tri(i) > k {
        i -= 1;
    }
    while tri(i + 1) <= k {
        i += 1;
    }
    (i, k - tri(i))
}

impl<P: ParallelForwardProgress> ForceSolver for AllPairsColSolver<P> {
    fn kind(&self) -> SolverKind {
        SolverKind::AllPairsCol
    }

    fn try_compute_into(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        _reuse: bool,
        _ws: &mut SimWorkspace,
    ) -> Result<StepTimings, ComputeError> {
        let mut t = StepTimings::default();
        let n = state.len();
        let eps2 = self.params.softening * self.params.softening;
        let g = self.params.g;
        // Accumulator vectors are solver-owned and grow-only: steady-state
        // steps at constant (or shrinking) N reallocate nothing.
        for c in &mut self.acc {
            if c.len() < n {
                *c = atomic_f64_vec(n, 0.0);
            }
        }
        timed_counted(&mut t.force, &mut t.allocs.force, || {
            let acc = &self.acc;
            for_each_index(self.policy, 0..n, |i| {
                acc[0][i].store(0.0, Ordering::Relaxed);
                acc[1][i].store(0.0, Ordering::Relaxed);
                acc[2][i].store(0.0, Ordering::Relaxed);
            });
            let pos = &state.positions;
            let mass = &state.masses;
            let pairs = n * n.saturating_sub(1) / 2;
            for_each_index(self.policy, 0..pairs, |k| {
                let (i, j) = pair_of(k);
                let d = pos[j] - pos[i];
                let r2 = d.norm2() + eps2;
                if r2 > 0.0 {
                    let f = d * (g / (r2 * r2.sqrt()));
                    // a_i += m_j f;  a_j -= m_i f  (Newton's third law).
                    let (mi, mj) = (mass[i], mass[j]);
                    acc[0][i].fetch_add(mj * f.x, Ordering::Relaxed);
                    acc[1][i].fetch_add(mj * f.y, Ordering::Relaxed);
                    acc[2][i].fetch_add(mj * f.z, Ordering::Relaxed);
                    acc[0][j].fetch_add(-mi * f.x, Ordering::Relaxed);
                    acc[1][j].fetch_add(-mi * f.y, Ordering::Relaxed);
                    acc[2][j].fetch_add(-mi * f.z, Ordering::Relaxed);
                }
            });
            let out = SyncSlice::new(accel);
            for_each_index(self.policy, 0..n, |i| {
                let a = Vec3::new(
                    acc[0][i].load(Ordering::Relaxed),
                    acc[1][i].load(Ordering::Relaxed),
                    acc[2][i].load(Ordering::Relaxed),
                );
                unsafe { out.write(i, a) };
            });
        });
        Ok(t)
    }
}

// ---------------------------------------------------------------------------
// The two tree strategies (paper §IV): one solver over `TreeOps`.
// ---------------------------------------------------------------------------

/// A tree strategy: the step skeleton Alg. 2 and Alg. 6 share (bounding box
/// → \[sort\] → build → multipoles → CALCULATEFORCE), written once. Which
/// phases run before the force phase is the crate's tree-upkeep state
/// machine's verdict; how, the tree's own operations (`upkeep.rs`).
pub struct TreeSolver<T, P> {
    policy: P,
    params: SolverParams,
    tree: T,
    upkeep: Upkeep,
}

/// The Concurrent Octree strategy (paper §IV-A).
pub type OctreeSolver<P> = TreeSolver<Octree, P>;
/// The Hilbert-sorted BVH strategy (paper §IV-B).
pub type BvhSolver<P> = TreeSolver<Bvh, P>;

// `TreeOps` is private on purpose: the two aliases above are the only trees.
#[allow(private_bounds)]
impl<P: ExecutionPolicy, T: TreeOps<P>> TreeSolver<T, P> {
    pub fn new(policy: P, params: SolverParams) -> Self {
        TreeSolver { policy, params, tree: T::new(&params), upkeep: Upkeep::default() }
    }

    /// Access the tree (post-`compute` introspection for tests/benches).
    pub fn tree(&self) -> &T {
        &self.tree
    }

    /// Decide this step's verdict, carry it out at the current positions
    /// and return the force phase's parameters. The tree is persistent (its
    /// rebuild positions kept as the drift scan's reference) under the
    /// incremental lifecycle on a non-empty system.
    fn maintain(
        &mut self,
        state: &SystemState,
        reuse_tree: bool,
        scratch: &mut T::Scratch,
        t: &mut StepTimings,
    ) -> Result<ForceParams, ComputeError> {
        let (n, lifecycle) = (state.len(), self.params.lifecycle);
        let persistent = matches!(lifecycle, TreeLifecycle::Incremental { .. }) && n > 0;
        let verdict = self.upkeep.decide(lifecycle, n, self.tree.holds(n), reuse_tree);
        let mut fp = self.params.force_params();
        match verdict {
            Verdict::Reuse => self.tree.serve(self.policy, state, t),
            Verdict::ServeStale => {
                self.upkeep.serve_stale(&state.positions, &mut fp, t);
                self.tree.serve(self.policy, state, t);
            }
            Verdict::Rebuild => {
                self.upkeep.invalidate();
                let mut step = Step { policy: self.policy, state, scratch, t };
                self.tree.rebuild(&mut step)?;
                self.upkeep.rebuilt(persistent.then_some(&state.positions));
            }
        }
        Ok(fp)
    }
}

#[allow(private_bounds)]
impl<P: ExecutionPolicy, T: TreeOps<P>> ForceSolver for TreeSolver<T, P> {
    fn kind(&self) -> SolverKind {
        T::KIND
    }

    fn try_compute_into(
        &mut self,
        state: &SystemState,
        accel: &mut [Vec3],
        reuse: bool,
        ws: &mut SimWorkspace,
    ) -> Result<StepTimings, ComputeError> {
        let mut t = StepTimings::default();
        let scratch = T::scratch(ws);
        let fp = self.maintain(state, reuse, scratch, &mut t)?;
        timed_counted(&mut t.force, &mut t.allocs.force, || {
            let tiles =
                self.tree.begin_force_tasks(&state.positions, &state.masses, accel, &fp, scratch);
            T::run_forces(self.policy, &tiles);
        });
        Ok(t)
    }

    fn validate(&self, state: &SystemState) -> Result<(), ComputeError> {
        self.tree.validate(state)
    }

    fn inject_fault(&mut self, kind: FaultKind) -> bool {
        self.tree.inject_fault(kind)
    }

    fn invalidate(&mut self) {
        self.upkeep.invalidate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::galaxy_collision;
    use nbody_math::gravity::direct_accel;

    fn compare_to_direct(kind: SolverKind, policy: DynPolicy, theta: f64, tol: f64) {
        let state = galaxy_collision(400, 11);
        let params = SolverParams { theta, softening: 1e-3, ..SolverParams::default() };
        let mut solver = make_solver(kind, policy, params).unwrap();
        let mut acc = vec![Vec3::ZERO; state.len()];
        solver.compute(&state, &mut acc, false);
        let mut mean = 0.0;
        for (i, &a) in acc.iter().enumerate() {
            let exact = direct_accel(
                state.positions[i],
                Some(i as u32),
                &state.positions,
                &state.masses,
                1.0,
                1e-3,
            );
            mean += (a - exact).norm() / (1e-12 + exact.norm());
        }
        mean /= state.len() as f64;
        assert!(mean < tol, "{} {:?}: mean rel err {mean}", kind.name(), policy);
    }

    #[test]
    fn all_pairs_is_exact() {
        compare_to_direct(SolverKind::AllPairs, DynPolicy::ParUnseq, 0.5, 1e-12);
        compare_to_direct(SolverKind::AllPairs, DynPolicy::Seq, 0.5, 1e-12);
    }

    #[test]
    fn all_pairs_col_is_exact_up_to_reassociation() {
        compare_to_direct(SolverKind::AllPairsCol, DynPolicy::Par, 0.5, 1e-9);
        compare_to_direct(SolverKind::AllPairsCol, DynPolicy::Seq, 0.5, 1e-9);
    }

    #[test]
    fn octree_theta_half_is_accurate() {
        compare_to_direct(SolverKind::Octree, DynPolicy::Par, 0.5, 0.01);
        compare_to_direct(SolverKind::Octree, DynPolicy::Seq, 0.5, 0.01);
    }

    #[test]
    fn bvh_theta_half_is_accurate() {
        compare_to_direct(SolverKind::Bvh, DynPolicy::ParUnseq, 0.5, 0.01);
        compare_to_direct(SolverKind::Bvh, DynPolicy::Seq, 0.5, 0.01);
    }

    #[test]
    fn forward_progress_requirements_enforced_at_runtime() {
        assert_eq!(
            make_solver(SolverKind::Octree, DynPolicy::ParUnseq, SolverParams::default())
                .err()
                .unwrap(),
            SolverError::RequiresForwardProgress(SolverKind::Octree)
        );
        assert_eq!(
            make_solver(SolverKind::AllPairsCol, DynPolicy::ParUnseq, SolverParams::default())
                .err()
                .unwrap(),
            SolverError::RequiresForwardProgress(SolverKind::AllPairsCol)
        );
        // BVH runs everywhere (the paper's portability result).
        assert!(make_solver(SolverKind::Bvh, DynPolicy::ParUnseq, SolverParams::default()).is_ok());
    }

    #[test]
    fn empty_and_single_body_systems_never_panic() {
        // Degenerate systems through every solver kind and policy: no
        // bodies at all, then a single body (zero net force).
        use crate::system::SystemState;
        let empty = SystemState::new();
        let single =
            SystemState::from_parts(vec![Vec3::new(0.3, -0.2, 0.9)], vec![Vec3::ZERO], vec![2.5]);
        for kind in SolverKind::ALL {
            for policy in [DynPolicy::Seq, DynPolicy::Par, DynPolicy::ParUnseq] {
                let Ok(mut solver) = make_solver(kind, policy, SolverParams::default()) else {
                    continue; // forward-progress rejection, covered elsewhere
                };
                let mut none: Vec<Vec3> = vec![];
                solver.compute(&empty, &mut none, false);
                let mut one = vec![Vec3::splat(99.0)];
                solver.compute(&single, &mut one, false);
                assert_eq!(one[0], Vec3::ZERO, "{} {:?}", kind.name(), policy);
            }
        }
    }

    #[test]
    fn try_compute_surfaces_octree_build_errors() {
        let state = galaxy_collision(100, 16);
        let mut solver = OctreeSolver::new(Par, SolverParams::default());
        assert!(solver.inject_fault(FaultKind::StuckLock));
        let mut acc = vec![Vec3::ZERO; state.len()];
        let mut ws = SimWorkspace::new();
        let err = solver.try_compute_into(&state, &mut acc, false, &mut ws).unwrap_err();
        assert!(
            matches!(err, ComputeError::Build(BuildError::SpinBudgetExhausted { .. })),
            "{err:?}"
        );
        assert!(std::error::Error::source(&err).is_some(), "{err}");
        // The failure is transient: the next call succeeds and validates.
        solver.try_compute_into(&state, &mut acc, false, &mut ws).unwrap();
        solver.validate(&state).unwrap();
        // Only the octree takes the fault.
        assert!(!BvhSolver::new(Par, SolverParams::default()).inject_fault(FaultKind::StuckLock));
    }

    #[test]
    fn pair_of_enumerates_all_pairs_exactly_once() {
        let n = 50usize;
        let mut seen = std::collections::HashSet::new();
        for k in 0..n * (n - 1) / 2 {
            let (i, j) = pair_of(k);
            assert!(j < i && i < n, "k={k} -> ({i},{j})");
            assert!(seen.insert((i, j)), "duplicate pair ({i},{j})");
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    #[test]
    fn solvers_agree_with_each_other() {
        let state = galaxy_collision(600, 12);
        let params = SolverParams { theta: 0.3, softening: 1e-3, ..SolverParams::default() };
        let mut reference = vec![Vec3::ZERO; state.len()];
        make_solver(SolverKind::AllPairs, DynPolicy::Par, params)
            .unwrap()
            .compute(&state, &mut reference, false);
        for kind in [SolverKind::AllPairsCol, SolverKind::Octree, SolverKind::Bvh] {
            let mut acc = vec![Vec3::ZERO; state.len()];
            make_solver(kind, DynPolicy::Par, params).unwrap().compute(&state, &mut acc, false);
            let mut mean = 0.0;
            for i in 0..state.len() {
                mean += (acc[i] - reference[i]).norm() / (1e-12 + reference[i].norm());
            }
            mean /= state.len() as f64;
            assert!(mean < 5e-3, "{}: {mean}", kind.name());
        }
    }

    #[test]
    fn tree_reuse_skips_build_phases() {
        let state = galaxy_collision(500, 13);
        let mut solver =
            make_solver(SolverKind::Octree, DynPolicy::Par, SolverParams::default()).unwrap();
        let mut acc = vec![Vec3::ZERO; state.len()];
        let t0 = solver.compute(&state, &mut acc, false);
        assert!(t0.build.as_nanos() > 0);
        let t1 = solver.compute(&state, &mut acc, true);
        assert_eq!(t1.build.as_nanos(), 0);
        assert_eq!(t1.multipole.as_nanos(), 0);
        assert!(t1.force.as_nanos() > 0);
        // Same positions → identical forces from the reused tree.
        let mut acc2 = vec![Vec3::ZERO; state.len()];
        solver.compute(&state, &mut acc2, true);
        assert_eq!(acc, acc2);
    }

    #[test]
    fn incremental_lifecycle_serves_stale_then_refreshes() {
        // State machine cadence for Incremental{2}: build, two stale serves
        // (no build/multipole time), then a refresh (build and multipole
        // time again), repeating.
        let mut state = galaxy_collision(400, 22);
        let params = SolverParams {
            lifecycle: TreeLifecycle::Incremental { max_stale_steps: 2 },
            softening: 1e-3,
            ..SolverParams::default()
        };
        for kind in [SolverKind::Octree, SolverKind::Bvh] {
            let mut solver = make_solver(kind, DynPolicy::Par, params).unwrap();
            let mut acc = vec![Vec3::ZERO; state.len()];
            let t0 = solver.compute(&state, &mut acc, false);
            assert!(t0.build.as_nanos() > 0, "{}: init must build", kind.name());
            assert!(t0.multipole.as_nanos() > 0, "{}: init must compute moments", kind.name());
            for step in 0..2 {
                // Drift slightly so the stale steps are non-trivial.
                for p in &mut state.positions {
                    *p += Vec3::splat(1e-5);
                }
                let t = solver.compute(&state, &mut acc, false);
                assert_eq!(t.build.as_nanos(), 0, "{} step {step}: stale serve", kind.name());
                assert_eq!(t.multipole.as_nanos(), 0, "{} step {step}", kind.name());
            }
            for p in &mut state.positions {
                *p += Vec3::splat(1e-5);
            }
            let t = solver.compute(&state, &mut acc, false);
            assert!(t.build.as_nanos() > 0, "{}: refresh must update structure", kind.name());
            assert!(t.multipole.as_nanos() > 0, "{}: refresh must update moments", kind.name());
            solver.validate(&state).unwrap();
        }
    }

    #[test]
    fn incremental_lifecycle_is_as_accurate_as_rebuild() {
        // Fresh incremental trees must stay within the same error budget
        // against the exact direct sum as the rebuild trees.
        let state = galaxy_collision(400, 23);
        let params = SolverParams {
            theta: 0.5,
            softening: 1e-3,
            lifecycle: TreeLifecycle::Incremental { max_stale_steps: 0 },
            ..SolverParams::default()
        };
        for kind in [SolverKind::Octree, SolverKind::Bvh] {
            let mut solver = make_solver(kind, DynPolicy::Par, params).unwrap();
            let mut acc = vec![Vec3::ZERO; state.len()];
            solver.compute(&state, &mut acc, false);
            let mut mean = 0.0;
            for (i, &a) in acc.iter().enumerate() {
                let exact = direct_accel(
                    state.positions[i],
                    Some(i as u32),
                    &state.positions,
                    &state.masses,
                    1.0,
                    1e-3,
                );
                mean += (a - exact).norm() / (1e-12 + exact.norm());
            }
            mean /= state.len() as f64;
            assert!(mean < 0.01, "{}: mean rel err {mean}", kind.name());
        }
    }

    #[test]
    fn timings_are_populated_per_kind() {
        let state = galaxy_collision(300, 14);
        let mut acc = vec![Vec3::ZERO; state.len()];
        let t = make_solver(SolverKind::Bvh, DynPolicy::Par, SolverParams::default())
            .unwrap()
            .compute(&state, &mut acc, false);
        assert!(t.sort.as_nanos() > 0, "BVH must time the Hilbert sort");
        assert!(t.build.as_nanos() > 0);
        assert!(t.multipole.as_nanos() > 0, "BVH must time moment accumulation separately");
        let t = make_solver(SolverKind::Octree, DynPolicy::Par, SolverParams::default())
            .unwrap()
            .compute(&state, &mut acc, false);
        assert_eq!(t.sort.as_nanos(), 0, "octree has no sort phase");
        assert!(t.multipole.as_nanos() > 0);
    }
}
