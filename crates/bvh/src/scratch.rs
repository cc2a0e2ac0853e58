//! Reusable scratch buffers for the BVH pipeline.
//!
//! Every transient buffer a steady-state BVH step needs lives here: the
//! `(hilbert, index)` pair buffer the sort keys are built in, the parallel
//! merge sort's ping-pong scratch, and the per-worker interaction-list pool
//! of the blocked traversal. Threading one [`BvhScratch`] through
//! [`crate::Bvh::try_hilbert_sort_with`] and
//! [`crate::Bvh::compute_forces_with`] makes the whole
//! sort → build → force cycle allocation-free after warm-up; the tree's own
//! node storage (`boxes`, `diag2`, moments) is already grow-only.
//!
//! The plain entry points (`try_hilbert_sort`, `compute_forces`) construct
//! a throwaway scratch per call — same results, per-call allocations —
//! so existing callers are unaffected.

use stdpar::sort::SortScratch;

/// Scratch arena for one BVH pipeline. Construction is allocation-free;
/// buffers grow on first use and are retained across steps.
#[derive(Default)]
pub struct BvhScratch {
    /// `(key, original index)` pairs for HILBERTSORT.
    pub(crate) pairs: Vec<(u64, u32)>,
    /// Merge-sort ping-pong buffer and run lists.
    pub(crate) sort: SortScratch<(u64, u32)>,
    /// Per-worker interaction lists for the blocked traversal.
    pub(crate) lists: nbody_math::ListsPool,
}

impl BvhScratch {
    pub fn new() -> Self {
        Self::default()
    }
}
