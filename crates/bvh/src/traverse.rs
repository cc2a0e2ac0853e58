//! The BVH's one stackless traversal (paper §IV-B.3).
//!
//! Same depth-first search as the octree's — a *forward step* into the
//! first child, a *backward step* to the next sibling or up — with the
//! difference the paper calls out: the *skip-list* nature of the complete
//! binary tree lets the backward step jump "from a leaf node to the next
//! node in the DFS traversal across multiple levels without traversing
//! nodes in-between" (`while i is a right child { i /= 2 } i += 1`).
//!
//! [`Bvh::walk`] is the only copy of that loop. What happens at a node is a
//! [`Visitor`]: the per-body accumulation and the group list gather (both
//! in [`crate::force`]).

use crate::build::Bvh;

/// What [`Bvh::walk`] does at the nodes it reaches. Empty (zero-mass)
/// subtrees are skipped before either method is called.
///
/// Implementations mark both methods `#[inline(always)]`: `walk` calls each
/// from exactly one site, so the visitor's state stays in registers across
/// the whole traversal instead of living behind an outlined call.
pub(crate) trait Visitor {
    /// Internal node `i` of total mass `m`: `true` opens it (the walk
    /// descends into its children), `false` moves on past its subtree.
    fn open(&mut self, i: usize, m: f64) -> bool;

    /// The leaf holding sorted body `j`.
    fn leaf(&mut self, j: usize);
}

impl Bvh {
    /// Stackless skip-list depth-first search over the non-empty nodes.
    #[inline(always)]
    pub(crate) fn walk(&self, v: &mut impl Visitor) {
        if self.n_bodies() == 0 {
            return;
        }
        let mut i: usize = 1; // root
        loop {
            let m = self.mass[i];
            let mut descend = false;
            if m > 0.0 {
                if self.is_leaf(i) {
                    v.leaf(i - self.leaves);
                } else if v.open(i, m) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_math::gravity::pair_accel;
    use nbody_math::{Aabb, SplitMix64, Vec3};
    use std::cell::Cell;
    use stdpar::prelude::*;

    /// Two closures as a visitor.
    impl<O: FnMut(usize, f64) -> bool, L: FnMut(usize)> Visitor for (O, L) {
        fn open(&mut self, i: usize, m: f64) -> bool {
            (self.0)(i, m)
        }

        fn leaf(&mut self, j: usize) {
            (self.1)(j)
        }
    }

    /// The walk from `p` under the plain criterion (box diagonal `s`,
    /// distance-to-box `d`, `s/d < theta`): accepted nodes go to `far`, the
    /// original ids of the bodies in opened leaves to `near`.
    fn walk_from(
        b: &Bvh,
        p: Vec3,
        theta: f64,
        mut far: impl FnMut(usize),
        mut near: impl FnMut(u32),
    ) {
        let open = |i: usize, _m: f64| {
            let bounds = b.boxes[i];
            let accept = bounds.extent().norm2() < theta * theta * bounds.distance2_to_point(p);
            if accept {
                far(i);
            }
            !accept
        };
        b.walk(&mut (open, |j: usize| near(b.perm[j])));
    }

    fn build(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>, Bvh) {
        let mut r = SplitMix64::new(seed);
        let pos: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)))
            .collect();
        let mass: Vec<f64> = (0..n).map(|_| r.uniform(0.5, 2.0)).collect();
        let mut b = Bvh::new();
        b.hilbert_sort(ParUnseq, &pos, &mass, Aabb::from_points(&pos));
        b.build_and_accumulate(ParUnseq);
        (pos, mass, b)
    }

    #[test]
    fn theta_zero_visits_every_body_exactly_once() {
        let (pos, _, b) = build(300, 131);
        let mut seen = vec![0u32; pos.len()];
        walk_from(&b, Vec3::ZERO, 0.0, |_| panic!("θ=0 must never approximate"), |id| {
            seen[id as usize] += 1
        });
        assert!(seen.iter().all(|&s| s == 1));
    }

    #[test]
    fn mass_is_fully_accounted() {
        let (pos, mass, b) = build(700, 132);
        let total: f64 = mass.iter().sum();
        let seen = Cell::new(0.0f64);
        walk_from(
            &b,
            pos[0],
            0.7,
            |i| seen.set(seen.get() + b.mass[i]),
            |id| seen.set(seen.get() + mass[id as usize]),
        );
        assert!((seen.get() - total).abs() < 1e-9 * total);
    }

    #[test]
    fn gravity_via_visitor_matches_builtin() {
        let (pos, mass, b) = build(500, 133);
        let params = nbody_math::ForceParams { theta: 0.6, ..Default::default() };
        for probe in (0..pos.len()).step_by(41) {
            let builtin = b.accel_at(pos[probe], Some(probe as u32), &params);
            let acc = Cell::new(Vec3::ZERO);
            let add = |d: Vec3, m: f64| acc.set(acc.get() + pair_accel(d, m, 1.0, 0.0));
            walk_from(
                &b,
                pos[probe],
                0.6,
                |i| add(b.com[i] - pos[probe], b.mass[i]),
                |id| {
                    if id != probe as u32 {
                        add(pos[id as usize] - pos[probe], mass[id as usize]);
                    }
                },
            );
            assert!(
                (acc.get() - builtin).norm() < 1e-12 * (1.0 + builtin.norm()),
                "probe {probe}"
            );
        }
    }
}
