//! Reusable scratch buffers for the octree force traversal.
//!
//! The blocked CALCULATEFORCE path needs per-worker interaction lists;
//! [`TraversalScratch`] owns them so a steady-state caller of
//! [`crate::Octree::compute_forces_with`] allocates nothing after warm-up.
//! What the walk reads — the walk-order layout and the depth-first body
//! order the blocked path groups by — is the tree's own grow-only storage,
//! written once per `compute_multipoles` like the node pool, co-location
//! chains and moment arrays.
//!
//! The plain [`crate::Octree::compute_forces`] entry point constructs a
//! throwaway scratch per call — same results, per-call allocations — so
//! existing callers are unaffected.

use nbody_math::ListsPool;

/// Scratch arena for octree force evaluation. Construction is
/// allocation-free; buffers grow on first use and are retained across
/// steps.
#[derive(Default)]
pub struct TraversalScratch {
    /// Per-worker interaction lists for the blocked traversal.
    pub(crate) lists: ListsPool,
}

impl TraversalScratch {
    pub fn new() -> Self {
        Self::default()
    }
}
