//! CALCULATEFORCE for the BVH (paper §IV-B.3): the entry points.
//!
//! The walk, the node geometry and the leaf naming are [`BvhView`]
//! (`traverse.rs`); the criterion, both visitors, tiles, group boxes,
//! per-worker lists, kernels, telemetry and the force region are
//! [`nbody_math::tiles`], shared with the octree.

use crate::build::Bvh;
use crate::scratch::BvhScratch;
use crate::traverse::BvhView;
use nbody_math::gravity::ForceParams;
use nbody_math::{tiles, ForceTiles, Vec3};
use stdpar::prelude::*;

impl Bvh {
    /// Default blocked group size: [`tiles::DEFAULT_GROUP`], the one
    /// default of both trees, kept under this name for existing callers.
    pub const DEFAULT_BLOCK_GROUP: usize = tiles::DEFAULT_GROUP;

    /// Compute gravitational accelerations for every body (original order).
    ///
    /// `positions` must be the array the tree was sorted from, or — on a
    /// tree served without a re-sort — the array its sorted copy was last
    /// re-gathered from. Every tile is independent and lock-free, so all
    /// policies — including `par_unseq` — are valid (the whole point of the
    /// BVH strategy: it only needs weakly parallel forward progress).
    ///
    /// `params.eval` selects the traversal: one walk per body, or one walk
    /// per contiguous group of Hilbert-sorted bodies with shared SoA
    /// interaction lists.
    pub fn compute_forces<P: ExecutionPolicy>(
        &self,
        policy: P,
        positions: &[Vec3],
        accel: &mut [Vec3],
        params: &ForceParams,
    ) {
        let mut scratch = BvhScratch::new();
        self.compute_forces_with(policy, positions, accel, params, &mut scratch);
    }

    /// [`Bvh::compute_forces`] borrowing caller-owned scratch: the blocked
    /// path draws its per-worker interaction lists from `scratch` instead
    /// of allocating per group (the per-body path needs no scratch).
    ///
    /// # Panics
    /// As [`Bvh::begin_force_tasks`], before the parallel region starts.
    pub fn compute_forces_with<P: ExecutionPolicy>(
        &self,
        policy: P,
        positions: &[Vec3],
        accel: &mut [Vec3],
        params: &ForceParams,
        scratch: &mut BvhScratch,
    ) {
        self.begin_force_tasks(positions, accel, params, scratch).run_all(policy);
    }

    /// The force phase as independent tiles — one per body group (blocked)
    /// or per four packets (per-body) — for [`Bvh::compute_forces_with`]
    /// and the tree solver to run in one region. The one constructor: every
    /// precondition is checked here, before any region starts. The tree is
    /// only shared-borrowed.
    ///
    /// # Panics
    /// If the moments were not accumulated since the last sort or build,
    /// `positions` or `accel` do not hold one entry per sorted body, or
    /// `params` asks for quadrupoles the tree did not accumulate.
    pub fn begin_force_tasks<'a>(
        &'a self,
        positions: &'a [Vec3],
        accel: &'a mut [Vec3],
        params: &ForceParams,
        scratch: &'a mut BvhScratch,
    ) -> ForceTiles<'a, BvhView<'a>> {
        assert!(self.moments_current, "moments not accumulated since sort or build");
        assert_eq!(positions.len(), self.n_bodies(), "positions length changed since sort");
        if params.use_quadrupole {
            assert!(self.quad.is_some(), "quadrupole requested but not accumulated");
        }
        ForceTiles::new(BvhView { bvh: self }, params, &mut scratch.lists, accel)
    }

    /// Acceleration at point `p`, excluding original body `exclude` if given.
    ///
    /// # Panics
    /// If the moments were not accumulated since the last sort or build.
    pub fn accel_at(&self, p: Vec3, exclude: Option<u32>, params: &ForceParams) -> Vec3 {
        assert!(self.moments_current, "moments not accumulated since sort or build");
        tiles::accel_at(&BvhView { bvh: self }, p, exclude, params)
    }
}
