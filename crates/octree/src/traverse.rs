//! The octree's one stackless depth-first traversal (paper §IV-A.3,
//! Fig. 3), run over the tree's walk-order copy.
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
//! [`Octree::walk`] is the only copy of that loop; what happens at a node is
//! a [`Visitor`] — the per-body accumulation and the group list gather, both
//! in [`crate::force`]. Leaves carry body indices, not positions: a visitor
//! reads the caller's live arrays, so a tree served stale sees the bodies
//! where they are now.

use crate::tree::Octree;
use nbody_math::Vec3;

/// Tag bit of a body entry in [`WalkLayout::links`]; an entry without it is
/// an internal node's skip target. Body indices fit in 31 bits
/// ([`crate::tags::MAX_INDEX`]).
pub(crate) const LEAF: u32 = 1 << 31;

/// An internal node as the walk reads it: 48 bytes, everything a visitor
/// needs to decide it (for the quadrupole terms, the node's slot).
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
    /// The internal nodes, in walk order.
    pub(crate) nodes: Vec<WalkNode>,
    /// Bodies in the blocked path's grouping order: leaves in reverse walk
    /// order, each chain in chain order.
    pub(crate) order: Vec<u32>,
}

/// What [`Octree::walk`] does at the entries it reaches.
///
/// Implementations mark both methods `#[inline(always)]`: `walk` calls each
/// from exactly one site, so the visitor's state stays in registers across
/// the whole traversal instead of living behind an outlined call.
pub(crate) trait Visitor {
    /// An internal node: `true` opens it (the walk descends into its
    /// children), `false` moves on past its subtree.
    fn open(&mut self, node: &WalkNode) -> bool;

    /// Body `b` of a leaf's co-location chain.
    fn leaf(&mut self, b: u32);
}

impl Octree {
    /// Stackless depth-first search over the walk-order layout. The caller
    /// has checked that the moments (and with them the layout) are current.
    #[inline(always)]
    pub(crate) fn walk(&self, v: &mut impl Visitor) {
        let (links, nodes) = (&self.layout.links[..], &self.layout.nodes[..]);
        // `e` indexes `links`, `k` the internal node `links[e]` is (when it
        // is one).
        let (mut e, mut k) = (0usize, 0usize);
        while let Some(&link) = links.get(e) {
            if link & LEAF != 0 {
                v.leaf(link & !LEAF);
                e += 1;
            } else {
                let node = &nodes[k];
                if v.open(node) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_math::gravity::pair_accel;
    use nbody_math::{Aabb, SplitMix64, Vec3};
    use stdpar::prelude::*;

    /// Two closures as a visitor.
    impl<O: FnMut(&WalkNode) -> bool, L: FnMut(u32)> Visitor for (O, L) {
        fn open(&mut self, node: &WalkNode) -> bool {
            (self.0)(node)
        }

        fn leaf(&mut self, b: u32) {
            (self.1)(b)
        }
    }

    /// The walk from `p` under the plain `s/d < theta` criterion: accepted
    /// nodes go to `far`, the bodies of opened leaves to `near`.
    fn walk_from(
        t: &Octree,
        p: Vec3,
        theta: f64,
        mut far: impl FnMut(&WalkNode),
        near: impl FnMut(u32),
    ) {
        let open = |node: &WalkNode| {
            let accept = node.width * node.width < theta * theta * node.com.distance2(p);
            if accept {
                far(node);
            }
            !accept
        };
        t.walk(&mut (open, near));
    }

    fn random_tree(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>, Octree) {
        let mut r = SplitMix64::new(seed);
        let pos: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)))
            .collect();
        let mass: Vec<f64> = (0..n).map(|_| r.uniform(0.5, 2.0)).collect();
        let mut t = Octree::new();
        t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
        t.compute_multipoles(Par, &pos, &mass);
        (pos, mass, t)
    }

    #[test]
    fn gravity_via_visitor_matches_builtin_kernel() {
        let (pos, mass, t) = random_tree(800, 121);
        let params = nbody_math::ForceParams { theta: 0.6, ..Default::default() };
        for b in (0..pos.len()).step_by(37) {
            let builtin = t.accel_at(pos[b], Some(b as u32), &pos, &mass, &params);
            let acc = std::cell::Cell::new(Vec3::ZERO);
            let add = |d: Vec3, m: f64| acc.set(acc.get() + pair_accel(d, m, 1.0, 0.0));
            walk_from(
                &t,
                pos[b],
                0.6,
                |node| add(node.com - pos[b], node.mass),
                |j| {
                    if j != b as u32 {
                        add(pos[j as usize] - pos[b], mass[j as usize]);
                    }
                },
            );
            assert!((acc.get() - builtin).norm() < 1e-12 * (1.0 + builtin.norm()), "body {b}");
        }
    }

    #[test]
    fn theta_zero_visits_every_body_exactly_once() {
        let (pos, _, t) = random_tree(500, 122);
        let mut seen = vec![0u32; pos.len()];
        walk_from(&t, Vec3::ZERO, 0.0, |_| panic!("θ=0 must never approximate"), |b| {
            seen[b as usize] += 1
        });
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn far_plus_near_masses_account_for_everything() {
        let (pos, mass, t) = random_tree(700, 123);
        let total: f64 = mass.iter().sum();
        let seen_mass = std::cell::Cell::new(0.0);
        walk_from(
            &t,
            pos[0],
            0.8,
            |node| seen_mass.set(seen_mass.get() + node.mass),
            |b| seen_mass.set(seen_mass.get() + mass[b as usize]),
        );
        assert!((seen_mass.get() - total).abs() < 1e-9 * total);
    }
}
