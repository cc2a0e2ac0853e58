//! What a BVH contributes to CALCULATEFORCE (paper §IV-B.3): its one
//! stackless traversal, its node geometry and how its leaves name bodies.
//!
//! Same depth-first search as the octree's — a *forward step* into the
//! first child, a *backward step* to the next sibling or up — with the
//! difference the paper calls out: the *skip-list* nature of the complete
//! binary tree lets the backward step jump "from a leaf node to the next
//! node in the DFS traversal across multiple levels without traversing
//! nodes in-between" (`while i is a right child { i /= 2 } i += 1`).
//!
//! [`BvhView::walk`] is the only copy of that loop; what happens at a node
//! is one of the two visitors of [`nbody_math::tiles`], shared with the
//! octree. BVH bounding boxes may be elongated and overlap, so the node
//! size in the acceptance criterion is the **box diagonal**, compared
//! against the distance to the *box* — which makes θ mean something slightly
//! different (and slightly more conservative) than for the octree. A leaf
//! names its body from the sorted copies, `sorted_pos[j]`, `sorted_mass[j]`
//! and `perm[j]`; a tree served without a re-sort re-gathers `sorted_pos`
//! first ([`Bvh::regather_positions`]), so the walk reads every body where
//! it is now.

use crate::build::Bvh;
use nbody_math::simd::Simd;
use nbody_math::{Aabb, Node, TreeView, Vec3, Visitor, WalkMetrics};
use nbody_telemetry::metrics;

/// Internal node `i` of total mass `m`, as the walk hands it to a visitor.
pub struct BvhNode<'a> {
    bvh: &'a Bvh,
    i: usize,
    m: f64,
}

impl Node for BvhNode<'_> {
    /// The box diagonal², precomputed at build time.
    #[inline(always)]
    fn size2(&self) -> f64 {
        self.bvh.diag2[self.i]
    }

    /// To the *box* rather than to the COM: elongated, overlapping BVH boxes
    /// can reach much closer to the body than their COM does.
    #[inline(always)]
    fn distance2_to_point(&self, p: Vec3) -> f64 {
        self.bvh.boxes[self.i].distance2_to_point(p)
    }

    /// [`Aabb::distance2_to_point`] per lane. The lane max lets its second
    /// operand win ties and NaN, `f64::max` ignores a NaN: with 0 and the
    /// clamped term second, each axis is the scalar one up to a zero's sign.
    #[inline(always)]
    fn distance2_to_points<S: Simd<Elem = f64>>(&self, p: &[S; 3]) -> S {
        let b = &self.bvh.boxes[self.i];
        let mut d = [S::zero(); 3];
        for c in 0..3 {
            d[c] = p[c].sub(S::splat(b.max[c])).max(S::splat(b.min[c]).sub(p[c]).max(S::zero()));
        }
        d[0].mul(d[0]).add(d[1].mul(d[1])).add(d[2].mul(d[2]))
    }

    #[inline(always)]
    fn distance2_to_box(&self, gbox: Aabb) -> f64 {
        self.bvh.boxes[self.i].distance2_to_box(gbox)
    }

    /// [`Aabb::distance2_to_box`] per lane, in [`Node::distance2_to_points`]'
    /// operand order: each axis is the scalar one up to a zero's sign.
    #[inline(always)]
    fn distance2_to_boxes<S: Simd<Elem = f64>>(&self, lo: &[S; 3], hi: &[S; 3]) -> S {
        let b = &self.bvh.boxes[self.i];
        let mut d = [S::zero(); 3];
        for c in 0..3 {
            d[c] = lo[c].sub(S::splat(b.max[c])).max(S::splat(b.min[c]).sub(hi[c]).max(S::zero()));
        }
        d[0].mul(d[0]).add(d[1].mul(d[1])).add(d[2].mul(d[2]))
    }

    #[inline(always)]
    fn com(&self) -> Vec3 {
        self.bvh.com[self.i]
    }

    #[inline(always)]
    fn mass(&self) -> f64 {
        self.m
    }

    #[inline(always)]
    fn quad(&self) -> Option<[f64; 6]> {
        self.bvh.quad.as_ref().map(|q| q[self.i])
    }
}

/// A built [`Bvh`] as the shared force code sees it: grouping order is the
/// Hilbert-sorted order. On the blocked path a tile is a contiguous run of
/// it: sorting places spatially adjacent bodies in adjacent leaves, so such a
/// run occupies a small box, and one walk per run tests the criterion
/// against that box with the conservative box-to-box distance (Tokuue &
/// Ishiyama's interaction-list batching).
pub struct BvhView<'a> {
    pub(crate) bvh: &'a Bvh,
}

impl<'a> TreeView for BvhView<'a> {
    type Node = BvhNode<'a>;

    fn n_bodies(&self) -> usize {
        self.bvh.n_bodies()
    }

    #[inline]
    fn target(&self, j: usize) -> (Vec3, usize) {
        (self.bvh.sorted_pos[j], self.bvh.perm[j] as usize)
    }

    /// Stackless skip-list depth-first search over the non-empty nodes.
    #[inline(always)]
    fn walk(&self, v: &mut impl Visitor<BvhNode<'a>>) {
        let bvh = self.bvh;
        let n = bvh.n_bodies();
        if n == 0 {
            return;
        }
        // Locals rather than loads through `bvh` at every step: the visitor
        // writes memory the compiler cannot prove apart from the tree. The
        // body arrays are cut to one length, so one bounds check serves all
        // three.
        let (mass, leaves) = (&bvh.mass[..], bvh.leaves);
        let (pos, body_mass) = (&bvh.sorted_pos[..n], &bvh.sorted_mass[..n]);
        let perm = &bvh.perm[..n];
        let mut i: usize = 1; // root
        loop {
            let m = mass[i];
            let mut descend = false;
            if m > 0.0 {
                // A node's depth is its level in the implicit heap.
                if i >= leaves {
                    let j = i - leaves;
                    v.leaf(pos[j], body_mass[j], perm[j], i.ilog2());
                } else if v.open(&BvhNode { bvh, i, m }, i.ilog2()) {
                    i *= 2; // forward step: descend into the left child
                    descend = true;
                }
            }
            if descend {
                continue;
            }
            // Backward step: skip-list jump to the next DFS node.
            loop {
                if i == 1 {
                    return;
                }
                if i & 1 == 0 {
                    i += 1; // right sibling
                    break;
                }
                i >>= 1; // climb (possibly several times: the multi-level jump)
            }
        }
    }

    #[inline]
    fn metrics(&self) -> WalkMetrics {
        WalkMetrics {
            mac_accepts: &metrics::BVH_MAC_ACCEPTS,
            mac_opens: &metrics::BVH_MAC_OPENS,
            list_bodies: &metrics::BVH_LIST_BODIES,
            list_nodes: &metrics::BVH_LIST_NODES,
        }
    }
}
