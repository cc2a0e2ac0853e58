//! The octree's one stackless depth-first traversal (paper §IV-A.3,
//! Fig. 3).
//!
//! The traversal needs no stack: a *forward step* descends to the first
//! child (whose offset is always larger than the parent's, by bump
//! allocation); a *backward step* either advances to the next sibling or
//! climbs through the per-group parent offset, doubling the tracked cell
//! width. [`Octree::walk`] is the only copy of that loop; what happens at a
//! node is a [`Visitor`] — the per-body accumulation and the group list
//! gather, both in [`crate::force`].

use crate::tags::{self, Slot};
use crate::tree::Octree;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_math::gravity::pair_accel;
    use nbody_math::{Aabb, SplitMix64, Vec3};
    use stdpar::prelude::*;

    /// Two closures as a visitor.
    impl<O: FnMut(u32, f64) -> bool, L: FnMut(u32)> Visitor for (O, L) {
        fn open(&mut self, i: u32, width: f64) -> bool {
            (self.0)(i, width)
        }

        fn leaf(&mut self, b: u32) {
            (self.1)(b)
        }
    }

    /// The walk from `p` under the plain `s/d < theta` criterion: accepted
    /// nodes go to `far`, the bodies of opened leaves to `near`.
    fn walk_from(t: &Octree, p: Vec3, theta: f64, mut far: impl FnMut(u32), near: impl FnMut(u32)) {
        let open = |i: u32, width: f64| {
            let accept = width * width < theta * theta * t.node_com_of(i).distance2(p);
            if accept {
                far(i);
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
                |i| add(t.node_com_of(i) - pos[b], t.node_mass_of(i)),
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
            |i| seen_mass.set(seen_mass.get() + t.node_mass_of(i)),
            |b| seen_mass.set(seen_mass.get() + mass[b as usize]),
        );
        assert!((seen_mass.get() - total).abs() < 1e-9 * total);
    }
}
