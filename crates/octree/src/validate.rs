//! Post-build structural validation (test and debugging support).
//!
//! A sequential walk of the tree that checks every invariant the concurrent
//! algorithms rely on. Used heavily by unit, integration and property tests;
//! cheap enough to call in debug assertions.

use crate::tags::{self, Slot, CHILDREN, FIRST_GROUP};
use crate::tree::{octant_center, Octree};
use nbody_math::{Aabb, Vec3};

/// Summary of a successful invariant check.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeInvariants {
    /// Bodies reachable from the root (each exactly once).
    pub reachable_bodies: usize,
    /// Internal nodes visited.
    pub internal_nodes: usize,
    /// Non-empty leaves.
    pub body_leaves: usize,
    /// Empty leaves.
    pub empty_leaves: usize,
    /// Deepest leaf.
    pub max_depth: u32,
    /// Longest co-located chain.
    pub max_chain_len: usize,
}

impl TreeInvariants {
    /// Walk the tree and verify:
    /// 1. no `Locked` tags remain;
    /// 2. every internal child offset is greater than its parent's index
    ///    (the stackless-DFS precondition) and group-aligned;
    /// 3. parent back-pointers match the walk;
    /// 4. every body lies inside the cell of the leaf that holds it;
    /// 5. every body index appears exactly once.
    pub fn check(tree: &Octree, positions: &[Vec3]) -> Result<TreeInvariants, String> {
        let n = tree.n_bodies();
        if n == 0 {
            return Ok(TreeInvariants::default());
        }
        let mut seen = vec![false; n];
        let groups = (tree.node_capacity().saturating_sub(FIRST_GROUP as usize))
            / CHILDREN as usize;
        let mut seen_groups = vec![false; groups];
        let mut inv = TreeInvariants::default();
        let root_cell = Aabb::new(
            tree.root_center - Vec3::splat(tree.root_edge * 0.5),
            tree.root_center + Vec3::splat(tree.root_edge * 0.5),
        );
        let mut stack: Vec<(u32, Vec3, f64, u32)> =
            vec![(0, tree.root_center, tree.root_edge * 0.5, 0)];
        while let Some((i, center, half, depth)) = stack.pop() {
            inv.max_depth = inv.max_depth.max(depth);
            match tree.slot(i) {
                Slot::Locked => return Err(format!("node {i} still Locked after build")),
                Slot::Empty => inv.empty_leaves += 1,
                Slot::Body(head) => {
                    inv.body_leaves += 1;
                    let mut chain_len = 0;
                    for b in tree.chain(head) {
                        chain_len += 1;
                        let bi = b as usize;
                        if bi >= n {
                            return Err(format!("leaf {i} references body {b} out of range"));
                        }
                        if seen[bi] {
                            return Err(format!("body {b} reachable twice"));
                        }
                        seen[bi] = true;
                        // Chained bodies may legitimately sit outside the
                        // exact cell when MAX_DEPTH chaining kicked in, but
                        // the chain head must be in-cell and all bodies in
                        // the root cube.
                        if b == head {
                            let cell = cell_box(center, half);
                            if !cell.contains(positions[bi]) {
                                return Err(format!(
                                    "body {b} at {:?} outside its leaf cell {cell:?}",
                                    positions[bi]
                                ));
                            }
                        }
                        if !root_cell.contains(positions[bi]) {
                            return Err(format!("body {b} outside the root cube"));
                        }
                    }
                    inv.max_chain_len = inv.max_chain_len.max(chain_len);
                }
                Slot::Node(c) => {
                    inv.internal_nodes += 1;
                    if c <= i {
                        return Err(format!("child offset {c} not greater than parent {i}"));
                    }
                    if c < FIRST_GROUP {
                        return Err(format!("child offset {c} below the first group"));
                    }
                    let g = tags::group_of(c) as usize;
                    if seen_groups[g] {
                        return Err(format!("child group {c} reachable twice (cycle)"));
                    }
                    seen_groups[g] = true;
                    if !(c - FIRST_GROUP).is_multiple_of(CHILDREN) {
                        return Err(format!("child offset {c} not group-aligned"));
                    }
                    if c + CHILDREN > tree.allocated_nodes() {
                        return Err(format!("child group {c} beyond allocation"));
                    }
                    let back = tree.parent_of(c);
                    if back != i {
                        return Err(format!("group at {c} has parent pointer {back}, expected {i}"));
                    }
                    for oct in 0..CHILDREN as usize {
                        stack.push((
                            c + oct as u32,
                            octant_center(center, half, oct),
                            half * 0.5,
                            depth + 1,
                        ));
                    }
                }
            }
        }
        inv.reachable_bodies = seen.iter().filter(|&&s| s).count();
        if inv.reachable_bodies != n {
            return Err(format!("only {}/{n} bodies reachable", inv.reachable_bodies));
        }
        Ok(inv)
    }
}

/// The cell box for (`center`, `half`).
fn cell_box(center: Vec3, half: f64) -> Aabb {
    // Inflate slightly: descent math accumulates rounding when halving, and
    // at depths where `half` shrinks below one ulp of the centre the cell
    // geometry degenerates — the absolute term covers that regime.
    let h = half * (1.0 + 1e-9) + center.abs().max_component() * 1e-12 + f64::MIN_POSITIVE;
    Aabb::new(center - Vec3::splat(h), center + Vec3::splat(h))
}

/// Collect every body id reachable from the root (order unspecified).
pub fn collect_bodies(tree: &Octree) -> Vec<u32> {
    let mut out = Vec::with_capacity(tree.n_bodies());
    let mut stack = Vec::new();
    collect_bodies_into(tree, &mut out, &mut stack);
    out
}

/// [`collect_bodies`] writing into caller-owned buffers, reusing their
/// capacity: zero heap allocations once `out` and `stack` have warmed up.
pub fn collect_bodies_into(tree: &Octree, out: &mut Vec<u32>, stack: &mut Vec<u32>) {
    out.clear();
    out.reserve(tree.n_bodies());
    stack.clear();
    stack.push(0u32);
    while let Some(i) = stack.pop() {
        match tree.slot(i) {
            Slot::Empty | Slot::Locked => {}
            Slot::Body(head) => out.extend(tree.chain(head)),
            Slot::Node(c) => stack.extend(c..c + CHILDREN),
        }
    }
}

/// Depth of the deepest leaf (0 = root only).
pub fn tree_depth(tree: &Octree) -> u32 {
    let mut max = 0;
    let mut stack = vec![(0u32, 0u32)];
    while let Some((i, d)) = stack.pop() {
        max = max.max(d);
        if let Slot::Node(c) = tree.slot(i) {
            for k in c..c + CHILDREN {
                stack.push((k, d + 1));
            }
        }
    }
    let _ = tags::EMPTY; // keep module linked in release builds
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_math::SplitMix64;
    use stdpar::prelude::*;

    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut r = SplitMix64::new(seed);
        (0..n)
            .map(|_| Vec3::new(r.uniform(-3.0, 3.0), r.uniform(-3.0, 3.0), r.uniform(-3.0, 3.0)))
            .collect()
    }

    #[test]
    fn invariants_hold_for_random_builds() {
        for seed in 40..45 {
            let pos = random_points(1500, seed);
            let mut t = Octree::new();
            t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
            let inv = TreeInvariants::check(&t, &pos).unwrap();
            assert_eq!(inv.reachable_bodies, 1500);
            assert!(inv.internal_nodes > 0);
            assert!(inv.max_depth > 0);
        }
    }

    #[test]
    fn invariants_hold_under_repeated_parallel_builds() {
        // Race-condition fishing: rebuild the same input many times.
        let pos = random_points(800, 50);
        let mut t = Octree::new();
        for _ in 0..20 {
            t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
            TreeInvariants::check(&t, &pos).unwrap();
        }
    }

    #[test]
    fn collect_bodies_matches_input_ids() {
        let pos = random_points(333, 51);
        let mut t = Octree::new();
        t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
        let mut ids = collect_bodies(&t);
        ids.sort_unstable();
        assert_eq!(ids, (0..333).collect::<Vec<u32>>());
    }

    #[test]
    fn depth_grows_with_clustering() {
        let spread = random_points(256, 52);
        let mut tight = spread.clone();
        for p in &mut tight {
            *p *= 1e-4; // same points, much tighter cluster
        }
        tight.push(Vec3::new(4.0, 4.0, 4.0)); // keep the root cube large
        let mut t1 = Octree::new();
        t1.build(Par, &spread, Aabb::from_points(&spread)).unwrap();
        let mut t2 = Octree::new();
        t2.build(Par, &tight, Aabb::from_points(&tight)).unwrap();
        assert!(tree_depth(&t2) > tree_depth(&t1));
    }
}
