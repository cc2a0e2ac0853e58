//! CALCULATEFORCE for the octree (paper §IV-A.3, Fig. 3): the entry points.
//!
//! The walk over the walk-order layout `compute_multipoles` leaves behind,
//! the node geometry and the leaf naming are [`OctreeView`]
//! (`traverse.rs`); the criterion, both visitors, tiles, group boxes,
//! per-worker lists, kernels, telemetry and the two executors are
//! [`nbody_math::tiles`], shared with the BVH. Everything is read-only and
//! lock-free, so every policy is valid.
//!
//! The concurrent octree's insertion build is lock-mediated and runs as its
//! own parallel region; what does tile is this phase
//! ([`Octree::begin_force_tasks`]), so under fused stepping a tile's closing
//! kick can start the moment its forces land.

use crate::scratch::TraversalScratch;
use crate::traverse::OctreeView;
use crate::tree::Octree;
use nbody_math::{tiles, ForceTiles, Vec3};
use stdpar::prelude::*;

/// Re-export: shared force parameters (see [`nbody_math::gravity`]).
pub use nbody_math::gravity::ForceParams;
/// Re-export: exact `O(N²)` reference field.
pub use nbody_math::gravity::direct_accel;

impl Octree {
    /// Default blocked group size: [`tiles::DEFAULT_GROUP`], the one
    /// default of both trees, kept under this name for existing callers.
    pub const DEFAULT_BLOCK_GROUP: usize = tiles::DEFAULT_GROUP;

    /// Compute gravitational accelerations for every body.
    ///
    /// `accel[i]` receives `a_i = G Σ_j m_j (x_j − x_i) / (r² + ε²)^{3/2}`,
    /// with far-field sums approximated by node multipoles under the
    /// acceptance criterion `s/d < θ` (s = cell width). Runs under any
    /// policy (the paper uses `par_unseq`: the tiles are independent and
    /// lock-free). `params.eval` selects one walk per body, or one walk per
    /// contiguous group of depth-first-ordered bodies.
    pub fn compute_forces<P: ExecutionPolicy>(
        &self,
        policy: P,
        positions: &[Vec3],
        masses: &[f64],
        accel: &mut [Vec3],
        params: &ForceParams,
    ) {
        let mut scratch = TraversalScratch::new();
        self.compute_forces_with(policy, positions, masses, accel, params, &mut scratch);
    }

    /// [`Octree::compute_forces`] borrowing caller-owned scratch: the
    /// blocked path draws its per-worker interaction lists from `scratch`
    /// instead of allocating per call (the per-body path needs no scratch).
    ///
    /// # Panics
    /// As [`Octree::begin_force_tasks`], before the parallel region starts.
    pub fn compute_forces_with<P: ExecutionPolicy>(
        &self,
        policy: P,
        positions: &[Vec3],
        masses: &[f64],
        accel: &mut [Vec3],
        params: &ForceParams,
        scratch: &mut TraversalScratch,
    ) {
        self.begin_force_tasks(positions, masses, accel, params, scratch).run_all(policy);
    }

    /// The force phase as independent tiles — one per body group (blocked)
    /// or per `par_grain` chunk (per-body) — for a fused step to run each
    /// with its closing kick, or [`Octree::compute_forces_with`] in one
    /// region. The one constructor behind both drivers: every precondition
    /// is checked here, before any region starts. The tree is only
    /// shared-borrowed.
    ///
    /// # Panics
    /// If `positions`, `masses` or `accel` do not hold one entry per built
    /// body, `params` asks for quadrupoles the tree did not compute, or
    /// [`Octree::compute_multipoles`] has not run since the last build.
    pub fn begin_force_tasks<'a>(
        &'a self,
        positions: &'a [Vec3],
        masses: &'a [f64],
        accel: &'a mut [Vec3],
        params: &ForceParams,
        scratch: &'a mut TraversalScratch,
    ) -> ForceTiles<'a, OctreeView<'a>> {
        assert!(self.moments_current, "multipoles not computed since build");
        assert_eq!(positions.len(), self.n_bodies(), "positions length changed since build");
        assert_eq!(masses.len(), positions.len(), "masses length mismatch");
        if params.use_quadrupole {
            assert!(self.quadrupole_enabled(), "quadrupole requested but not computed");
        }
        let view = OctreeView { tree: self, positions, masses };
        ForceTiles::new(view, positions, params, &mut scratch.lists, accel)
    }

    /// Acceleration felt at point `p`, excluding body `exclude` (and its
    /// exact self-interaction) if given. This is the per-element kernel of
    /// [`Octree::compute_forces`], public for tests and probes.
    ///
    /// # Panics
    /// If [`Octree::compute_multipoles`] has not run since the last build.
    pub fn accel_at(
        &self,
        p: Vec3,
        exclude: Option<u32>,
        positions: &[Vec3],
        masses: &[f64],
        params: &ForceParams,
    ) -> Vec3 {
        assert!(self.moments_current, "multipoles not computed since build");
        tiles::accel_at(&OctreeView { tree: self, positions, masses }, p, exclude, params)
    }
}
