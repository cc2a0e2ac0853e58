//! Post-build structural validation (test and debugging support).
//!
//! A sequential walk of the tree that checks every invariant the concurrent
//! algorithms rely on, and the walk-order layout against the tree it was
//! copied from. Used heavily by unit, integration and property tests;
//! cheap enough to call in debug assertions. The tests below keep the
//! paper's Fig. 3 tag walk as the reference the layout walk is compared to,
//! event for event.

use crate::tags::{self, Slot, CHILDREN, FIRST_GROUP};
use crate::traverse::{WalkLayout, LEAF};
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
    /// 5. every body index appears exactly once;
    /// 6. once the moments are current, the walk-order layout holds every
    ///    internal node and every body exactly once, its skip targets point
    ///    forward, inside the layout and at the same place in both arrays,
    ///    its payloads are bitwise the node moments, and its grouping order
    ///    is a permutation of the bodies.
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
        if tree.moments_current {
            check_layout(tree, inv.internal_nodes)?;
        }
        Ok(inv)
    }
}

/// Invariant 6 of [`TreeInvariants::check`]; `internal` is the number of
/// internal nodes the slot walk found.
fn check_layout(tree: &Octree, internal: usize) -> Result<(), String> {
    let WalkLayout { links, nodes, order, .. } = &tree.layout;
    let n = tree.n_bodies();
    let mut slot_seen = vec![false; tree.allocated_nodes() as usize];
    let mut body_seen = vec![false; n];
    // Internal entries before each entry: where a skip target lands in
    // `nodes`.
    let mut internal_before = Vec::with_capacity(links.len() + 1);
    let mut count = 0u32;
    for &link in links {
        internal_before.push(count);
        count += (link & LEAF == 0) as u32;
    }
    internal_before.push(count);
    let mut k = 0usize;
    for (e, &link) in links.iter().enumerate() {
        if link & LEAF != 0 {
            let b = (link & !LEAF) as usize;
            if b >= n || std::mem::replace(&mut body_seen[b], true) {
                return Err(format!("layout entry {e}: body {b} out of range or listed twice"));
            }
            continue;
        }
        let Some(node) = nodes.get(k) else {
            return Err(format!("layout entry {e}: internal node {k} has no payload"));
        };
        let i = node.slot;
        if i >= tree.allocated_nodes() || !matches!(tree.slot(i), Slot::Node(_)) {
            return Err(format!("layout node {k}: slot {i} is not internal"));
        }
        if std::mem::replace(&mut slot_seen[i as usize], true) {
            return Err(format!("layout node {k}: slot {i} listed twice"));
        }
        let target = link as usize;
        if target <= e || target > links.len() {
            let (lo, hi) = (e + 1, links.len());
            return Err(format!("layout entry {e}: skip target {target} not in {lo}..={hi}"));
        }
        if node.skip != internal_before[target] {
            return Err(format!(
                "layout node {k}: payload skip {} disagrees with link skip {target} ({})",
                node.skip, internal_before[target]
            ));
        }
        let (com, mass) = (tree.node_com_of(i), tree.node_mass_of(i));
        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        if bits(node.com) != bits(com) || node.mass.to_bits() != mass.to_bits() {
            return Err(format!("layout node {k}: payload differs from the moments of slot {i}"));
        }
        k += 1;
    }
    if k != nodes.len() || k != internal {
        let payloads = nodes.len();
        return Err(format!(
            "layout lists {k} internal nodes ({payloads} payloads), tree has {internal}"
        ));
    }
    if body_seen.iter().any(|&s| !s) {
        return Err("layout misses a body".into());
    }
    let mut sorted = order.clone();
    sorted.sort_unstable();
    if !sorted.iter().copied().eq(0..n as u32) {
        return Err("grouping order is not a permutation of the bodies".into());
    }
    Ok(())
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
    let mut stack = vec![0u32];
    while let Some(i) = stack.pop() {
        match tree.slot(i) {
            Slot::Empty | Slot::Locked => {}
            Slot::Body(head) => out.extend(tree.chain(head)),
            Slot::Node(c) => stack.extend(c..c + CHILDREN),
        }
    }
    out
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
    use crate::traverse::{OctreeNode, OctreeView, WalkNode};
    use crate::tree::MAX_DEPTH;
    use nbody_math::gravity::direct_accel;
    use nbody_math::{mac_accepts, tiles, ForceEval, ForceParams, SplitMix64};
    use nbody_math::{Node, TreeView, Visitor, WalkMetrics};
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

    /// The paper's Fig. 3 walk over the tag slots, as the crate ran it
    /// before the walk-order layout: the reference [`OctreeView::walk`] must
    /// reproduce event for event. A view of its own, so the shared visitors
    /// run on it; it hands them a [`WalkNode`] made from the moment accessors
    /// (its `skip` is meaningless here).
    struct Fig3<'a>(OctreeView<'a>);

    impl<'a> TreeView for Fig3<'a> {
        type Node = OctreeNode<'a>;

        fn n_bodies(&self) -> usize {
            self.0.n_bodies()
        }

        fn target(&self, j: usize) -> (Vec3, usize) {
            self.0.target(j)
        }

        fn walk(&self, v: &mut impl Visitor<OctreeNode<'a>>) {
            let OctreeView { tree, positions, masses } = self.0;
            if tree.n_bodies() == 0 {
                return;
            }
            let quads = tree.node_quad.as_ref();
            let (mut i, mut depth): (u32, u32) = (0, 0);
            let mut width = tree.root_edge();
            loop {
                let mut descend = false;
                match tree.slot(i) {
                    Slot::Node(c) => {
                        let (com, mass) = (tree.node_com_of(i), tree.node_mass_of(i));
                        let node = WalkNode { com, mass, width, slot: i, skip: 0 };
                        if v.open(&OctreeNode { node, quads }, depth) {
                            // Forward step into the first child.
                            i = c;
                            width *= 0.5;
                            depth += 1;
                            descend = true;
                        }
                    }
                    Slot::Empty => {}
                    Slot::Body(head) => {
                        for b in tree.chain(head) {
                            v.leaf(positions[b as usize], masses[b as usize], b, depth);
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
                    i = tree.parent_of(i);
                    width *= 2.0;
                    depth -= 1;
                }
            }
        }

        fn metrics(&self) -> WalkMetrics {
            self.0.metrics()
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Event {
        Open { slot: u32, width: u64, accept: bool, depth: u32 },
        Leaf { id: u32, depth: u32 },
    }

    /// Where the criterion measures from: a point (per-body walk) or a group
    /// box (gather).
    #[derive(Clone, Copy, Debug)]
    enum MacFrom {
        Point(Vec3),
        Group(Aabb),
    }

    /// Records every decision the walk makes under `s/d < theta`.
    struct Recorder {
        from: MacFrom,
        theta: f64,
        events: Vec<Event>,
    }

    impl Visitor<OctreeNode<'_>> for Recorder {
        fn open(&mut self, node: &OctreeNode<'_>, depth: u32) -> bool {
            let d2 = match self.from {
                MacFrom::Point(p) => node.distance2_to_point(p),
                MacFrom::Group(b) => node.distance2_to_box(b),
            };
            let accept = mac_accepts(node.size2(), d2, self.theta * self.theta, 0.0);
            let (slot, width) = (node.node.slot, node.node.width.to_bits());
            self.events.push(Event::Open { slot, width, accept, depth });
            !accept
        }

        fn leaf(&mut self, _p: Vec3, _m: f64, id: u32, depth: u32) {
            self.events.push(Event::Leaf { id, depth });
        }
    }

    fn events(view: OctreeView<'_>, from: MacFrom, theta: f64, paper: bool) -> Vec<Event> {
        let mut r = Recorder { from, theta, events: Vec::new() };
        if paper {
            Fig3(view).walk(&mut r);
        } else {
            view.walk(&mut r);
        }
        r.events
    }

    /// Radii from the Plummer cumulative mass profile, isotropic directions.
    fn plummer_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut r = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let radius = 1.0 / (r.uniform(1e-4, 0.999).powf(-2.0 / 3.0) - 1.0).sqrt();
                let z = r.uniform(-1.0, 1.0);
                let phi = r.uniform(0.0, std::f64::consts::TAU);
                let s = (1.0 - z * z).sqrt() * radius;
                Vec3::new(s * phi.cos(), s * phi.sin(), z * radius)
            })
            .collect()
    }

    fn with_moments(pos: &[Vec3], seed: u64) -> (Vec<f64>, Octree) {
        let mut r = SplitMix64::new(seed);
        let mass: Vec<f64> = (0..pos.len()).map(|_| r.uniform(0.5, 2.0)).collect();
        let mut t = Octree::new();
        t.build(Par, pos, Aabb::from_points(pos)).unwrap();
        t.compute_multipoles(Par, pos, &mass);
        (mass, t)
    }

    #[test]
    fn layout_walk_replays_the_fig3_walk() {
        let uniform = random_points(1500, 60);
        let plummer = plummer_points(1500, 61);
        let mut chain = random_points(200, 62);
        for k in (0..chain.len()).step_by(5) {
            chain[k] = chain[1];
        }
        // One ulp apart, 2^-99 of the root edge: unresolved at MAX_DEPTH.
        let a = 1e-14f64;
        let ulp = f64::from_bits(a.to_bits() + 1);
        let max_depth_pair = vec![Vec3::splat(a), Vec3::splat(ulp), Vec3::splat(1.0), Vec3::ZERO];
        let inputs: [(&str, Vec<Vec3>); 6] = [
            ("uniform", uniform),
            ("plummer", plummer),
            ("chain", chain),
            ("max-depth pair", max_depth_pair),
            ("single", vec![Vec3::new(0.3, -0.2, 0.5)]),
            ("empty", vec![]),
        ];
        for (name, pos) in inputs {
            let (mass, t) = with_moments(&pos, 63);
            let view = || OctreeView { tree: &t, positions: &pos, masses: &mass };
            let inv = TreeInvariants::check(&t, &pos).unwrap_or_else(|e| panic!("{name}: {e}"));
            match name {
                "chain" => assert!(inv.max_chain_len >= 40, "{name}: {inv:?}"),
                "max-depth pair" => {
                    assert!(inv.max_depth == MAX_DEPTH && inv.max_chain_len == 2, "{name}: {inv:?}")
                }
                _ => {}
            }
            let order = &t.layout.order;
            let group = |r: std::ops::Range<usize>| {
                MacFrom::Group(r.fold(Aabb::EMPTY, |mut b, j| {
                    b.expand(pos[order[j] as usize]);
                    b
                }))
            };
            let outside = MacFrom::Point(Vec3::new(9.0, -7.0, 5.0));
            let mut froms = vec![outside, MacFrom::Group(Aabb::from_points(&pos))];
            froms.extend(pos.iter().step_by(97).map(|&p| MacFrom::Point(p)));
            froms.extend((0..pos.len()).step_by(8 * 41).map(|j| group(j..(j + 8).min(pos.len()))));
            froms.extend((0..pos.len()).step_by(48 * 7).map(|j| group(j..(j + 48).min(pos.len()))));
            for theta in [0.0, 0.5, 1.0] {
                for &from in &froms {
                    let want = events(view(), from, theta, true);
                    let got = events(view(), from, theta, false);
                    assert_eq!(got, want, "{name} θ={theta} from {from:?}");
                    let leaves = want.iter().filter(|e| matches!(e, Event::Leaf { .. })).count();
                    if theta == 0.0 {
                        assert_eq!(leaves, pos.len(), "{name}: θ=0 reaches every body");
                    }
                }
            }
        }
    }

    #[test]
    fn stale_served_leaves_read_the_live_positions() {
        // Tree and moments stay at the build positions while the bodies
        // move for two steps, as under `TreeLifecycle::Incremental`: the
        // field must be the shared per-body visitor's on the Fig. 3 walk
        // over the old moments, with every leaf at its new position.
        let mut pos = plummer_points(1200, 64);
        let (mass, t) = with_moments(&pos, 65);
        let params = ForceParams { theta: 0.5, softening: 1e-3, ..ForceParams::default() };
        let mut scratch = crate::TraversalScratch::new();
        for step in 1..=2 {
            let mut r = SplitMix64::new(66 + step);
            for p in &mut pos {
                let mut kick = || r.uniform(-1e-3, 1e-3);
                *p += Vec3::new(kick(), kick(), kick());
            }
            let mut acc = vec![Vec3::ZERO; pos.len()];
            t.compute_forces_with(Par, &pos, &mass, &mut acc, &params, &mut scratch);
            let fig3 = Fig3(OctreeView { tree: &t, positions: &pos, masses: &mass });
            for (b, &a) in acc.iter().enumerate() {
                let want = tiles::accel_at(&fig3, pos[b], Some(b as u32), &params);
                assert_eq!(a, want, "step {step} body {b}");
            }
            // The blocked path's leaves read the same arrays: at θ = 0 it is
            // the direct sum at the new positions.
            let blocked = ForceParams { theta: 0.0, eval: ForceEval::blocked(), ..params };
            t.compute_forces_with(Par, &pos, &mass, &mut acc, &blocked, &mut scratch);
            for (b, &a) in acc.iter().enumerate() {
                let eps = params.softening;
                let exact = direct_accel(pos[b], Some(b as u32), &pos, &mass, 1.0, eps);
                assert!((a - exact).norm() <= 1e-10 * exact.norm(), "step {step} body {b}");
            }
        }
    }

    #[test]
    fn a_corrupt_layout_is_reported() {
        let pos = random_points(500, 67);
        let (_, t) = with_moments(&pos, 68);
        TreeInvariants::check(&t, &pos).unwrap();
        type Corrupt = fn(&mut WalkLayout);
        let corruptions: [(&str, Corrupt); 5] = [
            ("skip target onto itself", |l| l.links[0] = 0),
            ("payload skip off by one", |l| l.nodes[0].skip -= 1),
            ("payload mass", |l| l.nodes[1].mass = l.nodes[1].mass.next_up()),
            ("body twice", |l| {
                let leaves: Vec<usize> =
                    (0..l.links.len()).filter(|&e| l.links[e] & LEAF != 0).collect();
                l.links[leaves[1]] = l.links[leaves[0]];
            }),
            ("order not a permutation", |l| l.order[0] = l.order[1]),
        ];
        for (what, corrupt) in corruptions {
            let (_, mut bad) = with_moments(&pos, 68);
            corrupt(&mut bad.layout);
            assert!(TreeInvariants::check(&bad, &pos).is_err(), "{what} not reported");
        }
    }

    #[test]
    fn a_build_leaves_the_moments_stale() {
        let pos = random_points(300, 69);
        let (mass, mut t) = with_moments(&pos, 70);
        let params = ForceParams::default();
        t.accel_at(pos[0], Some(0), &pos, &mass, &params);
        t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.accel_at(pos[0], Some(0), &pos, &mass, &params)
        }));
        assert!(stale.is_err(), "forces on moments older than the build");
        // Failed builds too.
        t.compute_multipoles(Par, &pos, &mass);
        let bad = vec![Vec3::new(f64::NAN, 0.0, 0.0); pos.len()];
        assert!(t.build(Par, &bad, Aabb::from_points(&bad)).is_err());
        assert!(!t.moments_current);
    }
}
