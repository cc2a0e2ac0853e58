//! The octree's one stackless depth-first traversal (paper §IV-A.3,
//! Fig. 3), and the generic visitor API on it.
//!
//! The traversal needs no stack: a *forward step* descends to the first
//! child (whose offset is always larger than the parent's, by bump
//! allocation); a *backward step* either advances to the next sibling or
//! climbs through the per-group parent offset, doubling the tracked cell
//! width. [`Octree::walk`] is the only copy of that loop; what happens at a
//! node is a [`Visitor`].
//!
//! The paper's introduction argues that the interest of Barnes-Hut trees
//! goes beyond gravity: "the tree data structures it uses are transferable
//! to other domains and algorithms" (§I), with t-SNE as the running
//! example (§VI). [`Octree::traverse`] exposes the *same* walk the force
//! kernels ([`crate::force`]) use, with the interaction kernel supplied by
//! the caller: an approximated far-node visitor and an exact leaf-body
//! visitor. `bh-tsne` builds its repulsion field on this.

use crate::tags::{self, Slot};
use crate::tree::Octree;
use nbody_math::Vec3;

/// What [`Octree::walk`] does at the slots it reaches (empty slots are
/// skipped).
///
/// Implementations mark both methods `#[inline(always)]`: `walk` calls each
/// from exactly one site, so the visitor's state stays in registers across
/// the whole traversal instead of living behind an outlined call.
pub(crate) trait Visitor {
    /// Internal node `i`, a cell of edge `width`: `true` opens it (the walk
    /// descends into its children), `false` moves on past its subtree.
    fn open(&mut self, i: u32, width: f64) -> bool;

    /// Body `b` of a leaf's co-location chain.
    fn leaf(&mut self, b: u32);
}

/// A far node accepted by the multipole acceptance criterion.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct NodeView {
    /// Node index (for [`Octree::node_quad_of`] etc.).
    pub index: u32,
    /// Total mass/weight of the subtree.
    pub mass: f64,
    /// Centre of mass of the subtree.
    pub com: Vec3,
    /// Cell edge length.
    pub width: f64,
}

// Note: kernels that need a body *count* rather than a mass (t-SNE) should
// build the tree with unit masses so `mass` is the count.

/// Two closures as a visitor, for walks whose `open` and `leaf` share no
/// state (each is still called from its one site in `walk`).
impl<O: FnMut(u32, f64) -> bool, L: FnMut(u32)> Visitor for (O, L) {
    #[inline(always)]
    fn open(&mut self, i: u32, width: f64) -> bool {
        (self.0)(i, width)
    }

    #[inline(always)]
    fn leaf(&mut self, b: u32) {
        (self.1)(b)
    }
}

impl Octree {
    /// Stackless depth-first search over the built tree.
    #[inline(always)]
    pub(crate) fn walk(&self, v: &mut impl Visitor) {
        if self.n_bodies() == 0 {
            return;
        }
        let mut i: u32 = 0;
        let mut width = self.root_edge();
        loop {
            let mut descend = false;
            match self.slot(i) {
                Slot::Node(c) => {
                    if v.open(i, width) {
                        // Forward step into the first child.
                        i = c;
                        width *= 0.5;
                        descend = true;
                    }
                }
                Slot::Empty => {}
                Slot::Body(head) => {
                    for b in self.chain(head) {
                        v.leaf(b);
                    }
                }
                Slot::Locked => unreachable!("locked slot during traversal"),
            }
            if descend {
                continue;
            }
            // Backward step: next sibling, or climb until one exists.
            loop {
                if i == 0 {
                    return;
                }
                if tags::sibling_rank(i) != tags::CHILDREN - 1 {
                    i += 1;
                    break;
                }
                i = self.parent_of(i);
                width *= 2.0;
            }
        }
    }

    /// Stackless depth-first traversal from `p`.
    ///
    /// A node of cell width `s` whose centre of mass is at distance `d`
    /// from `p` is handed to `far` when `s/d < theta`; otherwise the
    /// traversal descends, eventually handing individual bodies to `near`
    /// (including `p`'s own body, if any — filter in the closure).
    pub fn traverse(
        &self,
        p: Vec3,
        theta: f64,
        mut far: impl FnMut(NodeView),
        near: impl FnMut(u32),
    ) {
        let theta2 = theta * theta;
        let open = |i: u32, width: f64| {
            let com = self.node_com_of(i);
            if width * width < theta2 * com.distance2(p) {
                far(NodeView { index: i, mass: self.node_mass_of(i), com, width });
                false
            } else {
                true
            }
        };
        self.walk(&mut (open, near));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_math::gravity::{direct_accel, pair_accel};
    use nbody_math::{Aabb, SplitMix64};
    use stdpar::prelude::*;

    fn random_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut r = SplitMix64::new(seed);
        let pos = (0..n)
            .map(|_| Vec3::new(r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)))
            .collect();
        let mass = (0..n).map(|_| r.uniform(0.5, 2.0)).collect();
        (pos, mass)
    }

    #[test]
    fn gravity_via_visitor_matches_builtin_kernel() {
        let (pos, mass) = random_system(800, 121);
        let mut t = Octree::new();
        t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
        t.compute_multipoles(Par, &pos, &mass);

        let params = nbody_math::ForceParams { theta: 0.6, ..Default::default() };
        for b in (0..pos.len()).step_by(37) {
            let builtin = t.accel_at(pos[b], Some(b as u32), &pos, &mass, &params);
            let acc = std::cell::Cell::new(Vec3::ZERO);
            t.traverse(
                pos[b],
                0.6,
                |node| acc.set(acc.get() + pair_accel(node.com - pos[b], node.mass, 1.0, 0.0)),
                |j| {
                    if j != b as u32 {
                        acc.set(
                            acc.get()
                                + pair_accel(pos[j as usize] - pos[b], mass[j as usize], 1.0, 0.0),
                        );
                    }
                },
            );
            assert!((acc.get() - builtin).norm() < 1e-12 * (1.0 + builtin.norm()), "body {b}");
        }
    }

    #[test]
    fn theta_zero_visits_every_body_exactly_once() {
        let (pos, mass) = random_system(500, 122);
        let mut t = Octree::new();
        t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
        t.compute_multipoles(Par, &pos, &mass);
        let mut seen = vec![0u32; pos.len()];
        t.traverse(Vec3::ZERO, 0.0, |_| panic!("θ=0 must never approximate"), |b| {
            seen[b as usize] += 1
        });
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn far_plus_near_masses_account_for_everything() {
        let (pos, mass) = random_system(700, 123);
        let mut t = Octree::new();
        t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
        t.compute_multipoles(Par, &pos, &mass);
        let total: f64 = mass.iter().sum();
        let seen_mass = std::cell::Cell::new(0.0);
        t.traverse(
            pos[0],
            0.8,
            |node| seen_mass.set(seen_mass.get() + node.mass),
            |b| seen_mass.set(seen_mass.get() + mass[b as usize]),
        );
        assert!((seen_mass.get() - total).abs() < 1e-9 * total);
    }

    #[test]
    fn custom_kernel_example_tsne_style() {
        // t-SNE repulsion kernel: q = 1/(1+d²); contribution N_cell·q²·d.
        let (pos, _) = random_system(400, 124);
        let unit = vec![1.0; pos.len()]; // unit weights ⇒ node.mass = count
        let mut t = Octree::new();
        t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
        t.compute_multipoles(Par, &pos, &unit);
        let p = pos[7];
        let approx = std::cell::Cell::new(Vec3::ZERO);
        let z = std::cell::Cell::new(0.0f64);
        t.traverse(
            p,
            0.5,
            |node| {
                let d = p - node.com;
                let q = 1.0 / (1.0 + d.norm2());
                z.set(z.get() + node.mass * q);
                approx.set(approx.get() + d * (node.mass * q * q));
            },
            |b| {
                if b != 7 {
                    let d = p - pos[b as usize];
                    let q = 1.0 / (1.0 + d.norm2());
                    z.set(z.get() + q);
                    approx.set(approx.get() + d * (q * q));
                }
            },
        );
        let (approx, z) = (approx.get(), z.get());
        // Exact reference.
        let mut exact = Vec3::ZERO;
        let mut z_exact = 0.0;
        for (j, &x) in pos.iter().enumerate() {
            if j != 7 {
                let d = p - x;
                let q = 1.0 / (1.0 + d.norm2());
                z_exact += q;
                exact += d * (q * q);
            }
        }
        assert!((z - z_exact).abs() < 0.05 * z_exact, "Z {z} vs {z_exact}");
        assert!((approx - exact).norm() < 0.05 * (1e-9 + exact.norm()));
        // Gravity sanity so the import is exercised end-to-end.
        let _ = direct_accel(p, None, &pos, &unit, 1.0, 0.0);
    }
}
