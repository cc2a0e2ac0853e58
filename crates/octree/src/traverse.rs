//! What an octree contributes to CALCULATEFORCE (paper §IV-A.3, Fig. 3):
//! its one stackless depth-first traversal, run over the tree's walk-order
//! copy, its node geometry and how its leaves name bodies.
//!
//! The paper's walk steps through the Fig. 1 child slots themselves: a
//! *forward step* descends to the first child (whose offset is always larger
//! than the parent's, by bump allocation), a *backward step* advances to the
//! next sibling or climbs through the per-group parent offset. It visits
//! every child slot, empty ones included, in bump-allocation order, and
//! pulls each node's tag, centre of mass and mass from five arrays.
//!
//! [`Octree::compute_multipoles`] therefore ends with one depth-first pass
//! that copies the non-empty nodes, children in index order — the order the
//! paper's walk meets them — into a `WalkLayout`: one link per entry and
//! one `WalkNode` per internal node. The walk is still the paper's
//! stackless DFS, with the backward step precomputed: an opened node moves to
//! the next entry, an accepted one jumps to its skip target, and the walk
//! never visits an empty slot or climbs a parent. It makes the same
//! decisions in the same order as the Fig. 3 walk (`validate.rs` keeps that
//! walk as the reference its tests compare event for event).
//!
//! [`OctreeView::walk`] is the only copy of that loop; what happens at a
//! node is one of the two visitors of [`nbody_math::tiles`], shared with the
//! BVH. The node size in the criterion is the cell width, compared against
//! the distance to the centre of mass. Leaves carry body indices, not
//! positions: a leaf names its body from the caller's live arrays, so a tree
//! served stale sees the bodies where they are now.

use crate::tree::Octree;
use nbody_math::simd::Simd;
use nbody_math::{Aabb, AtomicF64, Node, TreeView, Vec3, Visitor, WalkMetrics};
use nbody_telemetry::metrics;
use std::sync::atomic::Ordering;

/// Tag bit of a body entry in [`WalkLayout::links`]; an entry without it is
/// an internal node's skip target. Body indices fit in 31 bits
/// ([`crate::tags::MAX_INDEX`]).
pub(crate) const LEAF: u32 = 1 << 31;

/// An internal node as the walk reads it: 48 bytes, everything the MAC
/// needs (for the quadrupole terms, the node's slot).
#[derive(Clone, Copy)]
pub(crate) struct WalkNode {
    /// Centre of mass (bitwise [`Octree::node_com_of`]).
    pub(crate) com: Vec3,
    /// Mass (bitwise [`Octree::node_mass_of`]).
    pub(crate) mass: f64,
    /// Cell edge: the root edge halved once per level, as the Fig. 3 walk
    /// tracks it.
    pub(crate) width: f64,
    /// The node's Fig. 1 slot.
    pub(crate) slot: u32,
    /// Index into [`WalkLayout::nodes`] of the first internal node after
    /// this one's subtree.
    pub(crate) skip: u32,
}

/// The walk-order copy of a built tree, grow-only. Written by
/// [`Octree::compute_multipoles`]; meaningful while the tree's moments are
/// current.
#[derive(Default)]
pub(crate) struct WalkLayout {
    /// One entry per internal node and per body, in walk order: an internal
    /// node's skip target (the entry after its subtree), or `LEAF | b` for
    /// body `b` (a co-located chain in chain order).
    pub(crate) links: Vec<u32>,
    /// The depth of each `links` entry (the root's is 0), for the visitor.
    pub(crate) depths: Vec<u8>,
    /// The internal nodes, in walk order.
    pub(crate) nodes: Vec<WalkNode>,
    /// Bodies in the blocked path's grouping order: leaves in reverse walk
    /// order, each chain in chain order.
    pub(crate) order: Vec<u32>,
}

/// Per-node second-moment columns (see `Octree::node_quad`).
pub(crate) type QuadColumns = [Vec<AtomicF64>; 6];

/// A layout node (`WalkNode`) as the walk hands it to a visitor, with the tree's
/// quadrupole columns. (A copy, not a borrow, so the Fig. 3 reference walk
/// can hand over a node it makes on the fly; the inlined visitor reads only
/// the fields it needs.)
pub struct OctreeNode<'a> {
    pub(crate) node: WalkNode,
    pub(crate) quads: Option<&'a QuadColumns>,
}

impl Node for OctreeNode<'_> {
    #[inline(always)]
    fn size2(&self) -> f64 {
        self.node.width * self.node.width
    }

    #[inline(always)]
    fn distance2_to_point(&self, p: Vec3) -> f64 {
        (self.node.com - p).norm2()
    }

    #[inline(always)]
    fn distance2_to_points<S: Simd<Elem = f64>>(&self, p: &[S; 3]) -> S {
        let c = [self.node.com.x, self.node.com.y, self.node.com.z];
        let d = [S::splat(c[0]).sub(p[0]), S::splat(c[1]).sub(p[1]), S::splat(c[2]).sub(p[2])];
        d[0].mul(d[0]).add(d[1].mul(d[1])).add(d[2].mul(d[2]))
    }

    /// From the group box to the centre of mass: every member is at least
    /// that far from it.
    #[inline(always)]
    fn distance2_to_box(&self, gbox: Aabb) -> f64 {
        gbox.distance2_to_point(self.node.com)
    }

    /// [`Aabb::distance2_to_point`] of the centre of mass per lane box, in
    /// the operand order of the BVH's lane distances: each axis is the
    /// scalar one up to a zero's sign.
    #[inline(always)]
    fn distance2_to_boxes<S: Simd<Elem = f64>>(&self, lo: &[S; 3], hi: &[S; 3]) -> S {
        let c = [self.node.com.x, self.node.com.y, self.node.com.z];
        let mut d = [S::zero(); 3];
        for k in 0..3 {
            let com = S::splat(c[k]);
            d[k] = com.sub(hi[k]).max(lo[k].sub(com).max(S::zero()));
        }
        d[0].mul(d[0]).add(d[1].mul(d[1])).add(d[2].mul(d[2]))
    }

    #[inline(always)]
    fn com(&self) -> Vec3 {
        self.node.com
    }

    #[inline(always)]
    fn mass(&self) -> f64 {
        self.node.mass
    }

    #[inline(always)]
    fn quad(&self) -> Option<[f64; 6]> {
        // relaxed-ok: written by the multipole reduction, which joined
        // before any force walk starts.
        let i = self.node.slot as usize;
        self.quads.map(|q| std::array::from_fn(|k| q[k][i].load(Ordering::Relaxed)))
    }
}

/// A built [`Octree`] with the body arrays its leaves index, as the shared
/// force code sees it. The octree stores bodies in insertion order, which
/// is not spatially sorted, so the grouping order is the tree's own
/// depth-first leaf order (written by the relayout pass): a contiguous run
/// of it lives in one subtree and therefore in a small box.
pub struct OctreeView<'a> {
    pub(crate) tree: &'a Octree,
    pub(crate) positions: &'a [Vec3],
    pub(crate) masses: &'a [f64],
}

impl<'a> TreeView for OctreeView<'a> {
    type Node = OctreeNode<'a>;

    fn n_bodies(&self) -> usize {
        self.tree.n_bodies()
    }

    #[inline]
    fn target(&self, j: usize) -> (Vec3, usize) {
        let b = self.tree.layout.order[j] as usize;
        (self.positions[b], b)
    }

    /// Stackless depth-first search over the walk-order layout. The caller
    /// has checked that the moments (and with them the layout) are current.
    #[inline(always)]
    fn walk(&self, v: &mut impl Visitor<OctreeNode<'a>>) {
        // Locals rather than loads through `self` at every step: the visitor
        // writes memory the compiler cannot prove apart from the view.
        let OctreeView { tree, positions, masses } = *self;
        let (links, nodes) = (&tree.layout.links[..], &tree.layout.nodes[..]);
        let depths = &tree.layout.depths[..links.len()];
        let quads = tree.node_quad.as_ref();
        // `e` indexes `links`, `k` the internal node `links[e]` is (when it
        // is one).
        let (mut e, mut k) = (0usize, 0usize);
        while let Some(&link) = links.get(e) {
            let depth = u32::from(depths[e]);
            if link & LEAF != 0 {
                let b = link & !LEAF;
                v.leaf(positions[b as usize], masses[b as usize], b, depth);
                e += 1;
            } else {
                let node = &nodes[k];
                if v.open(&OctreeNode { node: *node, quads }, depth) {
                    // Forward step into the first child.
                    e += 1;
                    k += 1;
                } else {
                    // Skip step: past the whole subtree.
                    (e, k) = (link as usize, node.skip as usize);
                }
            }
        }
    }

    #[inline]
    fn metrics(&self) -> WalkMetrics {
        WalkMetrics {
            mac_accepts: &metrics::OCTREE_MAC_ACCEPTS,
            mac_opens: &metrics::OCTREE_MAC_OPENS,
            list_bodies: &metrics::OCTREE_LIST_BODIES,
            list_nodes: &metrics::OCTREE_LIST_NODES,
        }
    }
}
