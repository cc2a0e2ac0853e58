//! # bh-bvh — the Hilbert-sorted BVH strategy (paper §IV-B)
//!
//! A *balanced* binary bounding-volume hierarchy over bodies sorted along a
//! Hilbert space-filling curve. Unlike the concurrent octree, every phase
//! needs only **weakly parallel forward progress**: no locks, no spinning,
//! no inter-element waiting — all algorithms run under `par_unseq` and would
//! run on GPUs without Independent Thread Scheduling. The approach follows
//! Alpay's Teralens / SpatialCL lineage cited by the paper.
//!
//! Phases (paper Algorithm 6):
//!
//! 1. **HILBERTSORT** — bodies are binned in the coarsest equidistant
//!    Cartesian grid holding them all; each body's grid cell is mapped to a
//!    Hilbert index with Skilling's algorithm; `(key, index)` pairs are
//!    sorted with `std::sort(par, …)` and applied as a permutation (the
//!    paper's §V-A fallback for toolchains without `views::zip`).
//! 2. **BUILDTREE + ACCUMULATEMASS** — the BVH is a complete binary tree in
//!    implicit heap layout (node `i` has children `2i`, `2i+1`; leaves are
//!    `leaves..2·leaves`). Leaves take one body each (in Hilbert order);
//!    each coarser level is produced by one `par_unseq` pass that unions
//!    child boxes and reduces child moments — writes are disjoint, no
//!    atomics needed.
//! 3. **CALCULATEFORCE** — the same stackless DFS as the octree, but the
//!    skip-list nature of the complete tree lets a backward step jump
//!    across multiple levels at once (`while i is a right child: i ← i/2`).
//!    The acceptance criterion uses the node **box diagonal** since BVH
//!    boxes may be elongated and overlap — the θ interpretation therefore
//!    differs from the octree, exactly as §IV-B.3 discusses.
//!
//! Upkeep between steps is phases 1–2 again, whoever drives the step and
//! whether or not the tree is kept across steps: a full
//! [`Bvh::try_hilbert_sort_with`], then [`Bvh::try_build_structure`] and
//! [`Bvh::accumulate_moments`]. The crate holds one rebuild and knows
//! nothing of the executor calling it. A step that serves the tree without
//! a rebuild re-gathers the sorted positions through the kept permutation
//! ([`Bvh::regather_positions`]).
//!
//! ```
//! use bh_bvh::Bvh;
//! use nbody_math::{Aabb, ForceParams, Vec3};
//! use stdpar::prelude::*;
//!
//! let pos = vec![Vec3::new(0.1, 0.2, 0.3), Vec3::new(0.8, 0.1, 0.9)];
//! let mass = vec![1.0, 2.0];
//! let mut bvh = Bvh::new();
//! bvh.hilbert_sort(ParUnseq, &pos, &mass, Aabb::from_points(&pos));
//! bvh.build_and_accumulate(ParUnseq);
//! let mut acc = vec![Vec3::ZERO; 2];
//! bvh.compute_forces(ParUnseq, &pos, &mut acc, &ForceParams::default());
//! assert!(acc[0].x > 0.0 && acc[1].x < 0.0);
//! ```

pub mod build;
pub mod force;
pub mod scratch;
pub mod sort;
pub mod traverse;
pub mod validate;

pub use build::{Bvh, BvhParams};
pub use scratch::BvhScratch;
pub use traverse::BvhView;
pub use nbody_math::gravity::ForceParams;
pub use nbody_math::BuildError;
