//! CALCULATEMULTIPOLES — the wait-free parallel tree reduction (paper
//! §IV-A.2, Fig. 2).
//!
//! One logical thread is scheduled per allocated node; threads whose node is
//! internal exit immediately, so the available parallelism stays `O(N)`.
//! Each leaf thread computes its node's moments (mass and mass-weighted
//! position; optionally second moments for the quadrupole extension), stores
//! them into its own node's slots and signals completion with an
//! **acquire-release** integer increment on the parent's arrival counter.
//! The thread that observes the last arrival owns the now-complete parent:
//! it combines the eight child slots **in child-index order**, stores the
//! parent's totals, and recurses upward; its siblings exit.
//!
//! The release sequence on the arrival counter makes all sibling moment
//! writes happen-before the winner's reads, so no critical sections are
//! needed — the algorithm is wait-free. Acquire-release atomics are
//! vectorization-unsafe in the C++ model, so the paper runs this under
//! `par`; we mirror that with the [`ParallelForwardProgress`] bound.
//!
//! The paper's Fig. 2 instead folds each child into the parent with relaxed
//! `AtomicF64::fetch_add` at arrival time, which sums the children in
//! *arrival* order — correct up to floating-point reassociation, but a
//! different bitwise result on every schedule. Combining in child-index
//! order at the winner costs the same number of flops and makes the whole
//! reduction a pure function of (tree structure, positions, masses): any
//! schedule — real threads or DetPar replay — produces bit-identical
//! moments, which is what lets whole steps be validated bitwise against
//! each other whichever executor drives them.
//!
//! After the reduction, one sequential depth-first pass copies the
//! non-empty nodes into the walk-order layout the force walk runs on
//! (`Octree::relayout`, [`crate::traverse`]); until the next build, the
//! tree's moments count as current.

use crate::tags::{self, Slot, CHILDREN, FIRST_GROUP};
use crate::traverse::{WalkLayout, WalkNode, LEAF};
use crate::tree::{Octree, MAX_DEPTH};
use nbody_math::{AtomicF64, Vec3};
use std::sync::atomic::{AtomicU32, Ordering};
use stdpar::prelude::*;

impl Octree {
    /// Compute (and finalize) the multipole moments of every node.
    ///
    /// After this returns, [`Octree::node_mass_of`] is the total mass of the
    /// subtree and [`Octree::node_com_of`] its centre of mass; with
    /// quadrupoles enabled, [`Octree::node_quad_of`] is the central second
    /// moment tensor. The root (node 0) holds the totals of the whole
    /// system.
    ///
    /// Ends with the walk-order relayout CALCULATEFORCE runs on (see
    /// [`crate::traverse`]).
    pub fn compute_multipoles<P>(&mut self, policy: P, positions: &[Vec3], masses: &[f64])
    where
        P: ParallelForwardProgress,
    {
        assert_eq!(positions.len(), self.n_bodies(), "positions length changed since build");
        assert_eq!(masses.len(), self.n_bodies(), "masses length changed since build");
        self.reduce(policy, positions, masses);
        self.relayout();
        self.moments_current = true;
    }

    /// The Fig. 2 reduction proper (see module docs).
    fn reduce<P>(&mut self, policy: P, positions: &[Vec3], masses: &[f64])
    where
        P: ParallelForwardProgress,
    {
        let alloc = self.allocated_nodes() as usize;
        self.ensure_moment_storage(alloc, policy);

        // Degenerate roots (empty tree or a single leaf/chain) are cheap.
        match self.slot(0) {
            Slot::Empty => return,
            Slot::Body(head) => {
                let (m, mx, quad) = self.leaf_moment(head, positions, masses);
                self.store_moment(0, m, mx, quad);
                self.finalize(policy, alloc);
                return;
            }
            Slot::Locked => unreachable!("locked slot after build"),
            Slot::Node(_) => {}
        }

        let this = &*self;
        for_each_index(policy, FIRST_GROUP as usize..alloc, |i| {
            let i = i as u32;
            let (m, mx, quad) = match this.slot(i) {
                Slot::Node(_) => return, // internal: exit immediately (Fig. 2)
                Slot::Empty => (0.0, Vec3::ZERO, [0.0; 6]),
                Slot::Body(head) => this.leaf_moment(head, positions, masses),
                Slot::Locked => unreachable!("locked slot after build"),
            };
            this.store_moment(i, m, mx, quad);

            // Leaf-to-root climb: arrive at the parent; the last arriving
            // sibling combines the eight child slots in child-index order
            // and continues upward. Index-order combination makes the
            // result a pure function of the tree, not the schedule (see
            // module docs).
            let mut node = i;
            loop {
                let p = this.parent_of(node);
                let prev = this.arrivals[p as usize].fetch_add(1, Ordering::AcqRel);
                if prev + 1 != CHILDREN {
                    return; // a sibling will finish this parent
                }
                // This thread owns the completed parent: every sibling's
                // AcqRel increment joins the counter's release sequence,
                // and this thread's own AcqRel increment read the final
                // value — so all eight children's slot stores happen-before
                // the reads inside `combine_children`.
                let c = match this.slot(p) {
                    Slot::Node(c) => c,
                    _ => unreachable!("arrival counter reached CHILDREN on a non-internal node"),
                };
                let (m_p, mx_p, quad_p) = this.combine_children(c);
                this.store_moment(p, m_p, mx_p, quad_p);
                if p == 0 {
                    return; // root complete
                }
                node = p;
            }
        });

        self.finalize(policy, alloc);
    }

    /// Total mass of the subtree rooted at node `i` (after
    /// [`Octree::compute_multipoles`]).
    #[inline]
    pub fn node_mass_of(&self, i: u32) -> f64 {
        // relaxed-ok (also node_com_of/node_quad_of): read-only accessors
        // called after `compute_multipoles` returned — the reduction
        // region's join already ordered every moment write before them.
        self.node_mass[i as usize].load(Ordering::Relaxed)
    }

    /// Centre of mass of the subtree rooted at node `i`.
    #[inline]
    pub fn node_com_of(&self, i: u32) -> Vec3 {
        // relaxed-ok: see node_mass_of — same post-join read-only accessor.
        Vec3::new(
            self.node_com[0][i as usize].load(Ordering::Relaxed),
            self.node_com[1][i as usize].load(Ordering::Relaxed),
            self.node_com[2][i as usize].load(Ordering::Relaxed),
        )
    }

    /// Central second-moment tensor (xx, xy, xz, yy, yz, zz) of node `i`;
    /// zeros unless quadrupoles are enabled.
    #[inline]
    pub fn node_quad_of(&self, i: u32) -> [f64; 6] {
        // relaxed-ok: see node_mass_of — same post-join read-only accessor.
        match &self.node_quad {
            Some(q) => std::array::from_fn(|k| q[k][i as usize].load(Ordering::Relaxed)),
            None => [0.0; 6],
        }
    }

    /// Moments of a leaf: sums over the co-located chain starting at `head`.
    fn leaf_moment(&self, head: u32, positions: &[Vec3], masses: &[f64]) -> (f64, Vec3, [f64; 6]) {
        let mut m = 0.0;
        let mut mx = Vec3::ZERO;
        let mut quad = [0.0; 6];
        let want_quad = self.node_quad.is_some();
        for b in self.chain(head) {
            let w = masses[b as usize];
            let x = positions[b as usize];
            m += w;
            mx += x * w;
            if want_quad {
                quad[0] += w * x.x * x.x;
                quad[1] += w * x.x * x.y;
                quad[2] += w * x.x * x.z;
                quad[3] += w * x.y * x.y;
                quad[4] += w * x.y * x.z;
                quad[5] += w * x.z * x.z;
            }
        }
        (m, mx, quad)
    }

    // relaxed-ok (whole method): node `i`'s slots are written only by its
    // own leaf thread, and the subsequent AcqRel arrival increment on the
    // parent publishes them to whichever sibling climbs.
    fn store_moment(&self, i: u32, m: f64, mx: Vec3, quad: [f64; 6]) {
        let i = i as usize;
        self.node_mass[i].store(m, Ordering::Relaxed);
        self.node_com[0][i].store(mx.x, Ordering::Relaxed);
        self.node_com[1][i].store(mx.y, Ordering::Relaxed);
        self.node_com[2][i].store(mx.z, Ordering::Relaxed);
        if let Some(q) = &self.node_quad {
            for k in 0..6 {
                q[k][i].store(quad[k], Ordering::Relaxed);
            }
        }
    }

    /// Sum the raw moments of the eight children starting at slot `c`, in
    /// child-index order — the fixed summation order is what makes the
    /// reduction schedule-independent bit-for-bit.
    // relaxed-ok (whole method): only called by the thread whose AcqRel
    // arrival increment completed the parent — the counter's release
    // sequence ordered all eight children's stores before these loads.
    fn combine_children(&self, c: u32) -> (f64, Vec3, [f64; 6]) {
        let mut m = 0.0;
        let mut mx = Vec3::ZERO;
        let mut quad = [0.0; 6];
        for k in c as usize..(c + CHILDREN) as usize {
            m += self.node_mass[k].load(Ordering::Relaxed);
            mx += Vec3::new(
                self.node_com[0][k].load(Ordering::Relaxed),
                self.node_com[1][k].load(Ordering::Relaxed),
                self.node_com[2][k].load(Ordering::Relaxed),
            );
            if let Some(q) = &self.node_quad {
                for j in 0..6 {
                    quad[j] += q[j][k].load(Ordering::Relaxed);
                }
            }
        }
        (m, mx, quad)
    }

    /// Convert raw sums (Σm·x, Σm·x·xᵀ) into centre of mass and *central*
    /// second moments. Pure element-wise pass.
    // relaxed-ok (whole method): runs after the reduction region joined;
    // each index is touched by exactly one closure invocation, so the
    // atomics only paper over the shared `&self` — no cross-thread edges.
    fn finalize<P: ExecutionPolicy>(&self, policy: P, alloc: usize) {
        let this = self;
        for_each_index(policy, 0..alloc, |i| {
            let m = this.node_mass[i].load(Ordering::Relaxed);
            if m <= 0.0 {
                return;
            }
            let cx = this.node_com[0][i].load(Ordering::Relaxed) / m;
            let cy = this.node_com[1][i].load(Ordering::Relaxed) / m;
            let cz = this.node_com[2][i].load(Ordering::Relaxed) / m;
            this.node_com[0][i].store(cx, Ordering::Relaxed);
            this.node_com[1][i].store(cy, Ordering::Relaxed);
            this.node_com[2][i].store(cz, Ordering::Relaxed);
            if let Some(q) = &this.node_quad {
                // S_central = Σ m x xᵀ − M c cᵀ
                let c = [cx, cy, cz];
                let pairs = [(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 1, 1), (4, 1, 2), (5, 2, 2)];
                for (k, a, b) in pairs {
                    let raw = q[k][i].load(Ordering::Relaxed);
                    q[k][i].store(raw - m * c[a] * c[b], Ordering::Relaxed);
                }
            }
        });
    }

    fn ensure_moment_storage<P: ExecutionPolicy>(&mut self, alloc: usize, policy: P) {
        fn ensure_f64(v: &mut Vec<AtomicF64>, n: usize) {
            if v.len() < n {
                *v = (0..n).map(|_| AtomicF64::new(0.0)).collect();
            }
        }
        ensure_f64(&mut self.node_mass, alloc);
        for c in &mut self.node_com {
            ensure_f64(c, alloc);
        }
        if let Some(q) = &mut self.node_quad {
            for c in q.iter_mut() {
                ensure_f64(c, alloc);
            }
        }
        if self.arrivals.len() < alloc {
            let mut a = Vec::with_capacity(alloc);
            a.resize_with(alloc, || AtomicU32::new(0));
            self.arrivals = a;
        }
        // Zero the active prefix in parallel.
        // relaxed-ok (whole pass): initialization strictly before the
        // reduction region; the region boundary (thread scope join / DetPar
        // sequencing) orders these stores before any accumulate.
        let this = &*self;
        let has_quad = this.node_quad.is_some();
        for_each_index(policy, 0..alloc, |i| {
            this.node_mass[i].store(0.0, Ordering::Relaxed);
            this.node_com[0][i].store(0.0, Ordering::Relaxed);
            this.node_com[1][i].store(0.0, Ordering::Relaxed);
            this.node_com[2][i].store(0.0, Ordering::Relaxed);
            if has_quad {
                if let Some(q) = &this.node_quad {
                    for qk in q.iter() {
                        qk[i].store(0.0, Ordering::Relaxed);
                    }
                }
            }
            this.arrivals[i].store(0, Ordering::Relaxed);
        });
    }

    /// The walk-order relayout ([`crate::traverse`]): one depth-first pass
    /// over the non-empty slots, children in index order, that copies every
    /// internal node's moments and cell width into its [`WalkNode`], links
    /// every body, patches each skip target once its subtree is done, and
    /// fills the blocked path's grouping order from the back, leaf by leaf.
    /// Sequential, after the reduction joined. The buffers are presized from
    /// the node pool, which bounds every tree it can hold, so they allocate
    /// only when the pool itself grew.
    fn relayout(&mut self) {
        /// An opened internal node: where its skip targets go
        /// (`links[link]`, `nodes[node].skip`), and the cursor of the sibling
        /// group it sits in, to resume once its subtree is done.
        #[derive(Clone, Copy, Default)]
        struct Frame {
            link: u32,
            node: u32,
            base: u32,
            occupied_left: u32,
            width: f64,
        }

        let mut layout = std::mem::take(&mut self.layout);
        let WalkLayout { links, depths, nodes, order } = &mut layout;
        let n = self.n_bodies;
        // Every internal node owns one sibling group of the pool.
        let internal = (self.node_capacity() - FIRST_GROUP as usize) / CHILDREN as usize;
        links.clear();
        links.reserve_exact(internal + n);
        depths.clear();
        depths.reserve_exact(internal + n);
        nodes.clear();
        nodes.reserve_exact(internal);
        order.clear();
        order.reserve_exact(n);
        order.resize(n, 0);
        let mut unfilled = n;

        // relaxed-ok (every tag load below): `&mut self` — the build and
        // reduction regions joined before this pass, and no other thread
        // exists to order against.
        let tag = |i: u32| tags::decode(self.child[i as usize].load(Ordering::Relaxed));
        // Bit k set: slot `base + k` of a sibling group is not empty.
        let occupied = |base: u32| {
            (0..CHILDREN).fold(0u32, |m, k| m | u32::from(tag(base + k) != Slot::Empty) << k)
        };
        // The cursor over the current sibling group (the root alone at
        // first): its non-empty slots still to visit, each a cell of edge
        // `width`. No internal node sits deeper than MAX_DEPTH - 1 (the
        // insert chains instead), so a path holds at most MAX_DEPTH of them.
        let (mut base, mut width) = (0u32, self.root_edge);
        let mut occupied_left = u32::from(tag(0) != Slot::Empty);
        let mut stack = [Frame::default(); MAX_DEPTH as usize];
        let mut depth = 0;
        loop {
            if occupied_left == 0 {
                if depth == 0 {
                    break;
                }
                depth -= 1;
                let f = stack[depth];
                // Subtree done: both skip targets are whatever comes next.
                links[f.link as usize] = links.len() as u32;
                nodes[f.node as usize].skip = nodes.len() as u32;
                (base, occupied_left, width) = (f.base, f.occupied_left, f.width);
                continue;
            }
            let i = base + occupied_left.trailing_zeros();
            occupied_left &= occupied_left - 1;
            match tag(i) {
                Slot::Body(head) => {
                    let first = links.len();
                    links.extend(self.chain(head).map(|b| LEAF | b));
                    depths.resize(links.len(), depth as u8);
                    let len = links.len() - first;
                    unfilled -= len;
                    let slots = &mut order[unfilled..unfilled + len];
                    for (o, &link) in slots.iter_mut().zip(&links[first..]) {
                        *o = link & !LEAF;
                    }
                }
                Slot::Node(c) => {
                    let (link, node) = (links.len() as u32, nodes.len() as u32);
                    stack[depth] = Frame { link, node, base, occupied_left, width };
                    links.push(0);
                    depths.push(depth as u8);
                    depth += 1;
                    let (com, mass) = (self.node_com_of(i), self.node_mass_of(i));
                    nodes.push(WalkNode { com, mass, width, slot: i, skip: 0 });
                    (base, occupied_left, width) = (c, occupied(c), width * 0.5);
                }
                // Empty slots are masked out; none stays locked after a build.
                Slot::Empty | Slot::Locked => unreachable!("slot {i} empty or locked"),
            }
        }
        debug_assert_eq!(unfilled, 0, "every body reached");
        self.layout = layout;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_math::{Aabb, SplitMix64};

    fn random_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut r = SplitMix64::new(seed);
        let pos = (0..n)
            .map(|_| Vec3::new(r.uniform(-2.0, 2.0), r.uniform(-2.0, 2.0), r.uniform(-2.0, 2.0)))
            .collect();
        let mass = (0..n).map(|_| r.uniform(0.1, 3.0)).collect();
        (pos, mass)
    }

    fn built(pos: &[Vec3], mass: &[f64]) -> Octree {
        let mut t = Octree::new();
        t.build(Par, pos, Aabb::from_points(pos)).unwrap();
        t.compute_multipoles(Par, pos, mass);
        t
    }

    #[test]
    fn root_mass_is_total_mass() {
        let (pos, mass) = random_system(3000, 21);
        let t = built(&pos, &mass);
        let total: f64 = mass.iter().sum();
        assert!((t.node_mass_of(0) - total).abs() < 1e-9 * total);
    }

    #[test]
    fn root_com_is_global_com() {
        let (pos, mass) = random_system(3000, 22);
        let t = built(&pos, &mass);
        let total: f64 = mass.iter().sum();
        let mut com = Vec3::ZERO;
        for (p, m) in pos.iter().zip(&mass) {
            com += *p * *m;
        }
        com /= total;
        assert!((t.node_com_of(0) - com).norm() < 1e-10, "{:?} vs {com:?}", t.node_com_of(0));
    }

    #[test]
    fn single_body_root_moment() {
        let pos = vec![Vec3::new(1.0, 2.0, 3.0)];
        let mass = vec![4.0];
        let t = built(&pos, &mass);
        assert_eq!(t.node_mass_of(0), 4.0);
        assert_eq!(t.node_com_of(0), pos[0]);
    }

    #[test]
    fn empty_tree_moment() {
        let mut t = Octree::new();
        t.build(Par, &[], Aabb::EMPTY).unwrap();
        t.compute_multipoles(Par, &[], &[]);
        // Nothing to assert beyond "no panic"; root storage may be empty.
    }

    #[test]
    fn chained_bodies_counted_once_each() {
        let p = Vec3::new(0.3, 0.3, 0.3);
        let pos = vec![p, p, p, Vec3::new(-1.0, 0.0, 0.0)];
        let mass = vec![1.0, 2.0, 3.0, 4.0];
        let t = built(&pos, &mass);
        assert!((t.node_mass_of(0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn internal_node_mass_equals_subtree_sum() {
        let (pos, mass) = random_system(500, 23);
        let t = built(&pos, &mass);
        // For every internal node, mass == sum of children masses.
        for i in 0..t.allocated_nodes() {
            if let Slot::Node(c) = t.slot(i) {
                let kids: f64 = (c..c + 8).map(|k| t.node_mass_of(k)).sum();
                let own = t.node_mass_of(i);
                assert!((own - kids).abs() <= 1e-9 * own.max(1.0), "node {i}: {own} vs {kids}");
            }
        }
    }

    #[test]
    fn deterministic_up_to_fp_reassociation() {
        let (pos, mass) = random_system(2000, 24);
        let a = built(&pos, &mass);
        let b = built(&pos, &mass);
        assert!((a.node_mass_of(0) - b.node_mass_of(0)).abs() < 1e-9);
        assert!((a.node_com_of(0) - b.node_com_of(0)).norm() < 1e-9);
    }

    #[test]
    fn seq_and_par_agree() {
        let (pos, mass) = random_system(1500, 25);
        let mut ts = Octree::new();
        ts.build(Seq, &pos, Aabb::from_points(&pos)).unwrap();
        ts.compute_multipoles(Seq, &pos, &mass);
        let tp = built(&pos, &mass);
        assert!((ts.node_mass_of(0) - tp.node_mass_of(0)).abs() < 1e-9);
        assert!((ts.node_com_of(0) - tp.node_com_of(0)).norm() < 1e-9);
    }

    #[test]
    fn quadrupole_moments_match_direct_computation() {
        let (pos, mass) = random_system(300, 26);
        let mut t = Octree::new();
        t.set_quadrupole(true);
        t.build(Par, &pos, Aabb::from_points(&pos)).unwrap();
        t.compute_multipoles(Par, &pos, &mass);

        // Direct central second moment of the whole system.
        let m_tot: f64 = mass.iter().sum();
        let mut com = Vec3::ZERO;
        for (p, m) in pos.iter().zip(&mass) {
            com += *p * *m;
        }
        com /= m_tot;
        let mut s = [0.0f64; 6];
        for (p, m) in pos.iter().zip(&mass) {
            let d = *p - com;
            s[0] += m * d.x * d.x;
            s[1] += m * d.x * d.y;
            s[2] += m * d.x * d.z;
            s[3] += m * d.y * d.y;
            s[4] += m * d.y * d.z;
            s[5] += m * d.z * d.z;
        }
        let got = t.node_quad_of(0);
        for k in 0..6 {
            assert!(
                (got[k] - s[k]).abs() < 1e-8 * (1.0 + s[k].abs()),
                "component {k}: {} vs {}",
                got[k],
                s[k]
            );
        }
    }

    /// Every node's raw moment state as exact bit patterns.
    fn moment_bits(t: &Octree) -> Vec<u64> {
        let mut bits = Vec::new();
        for i in 0..t.allocated_nodes() {
            bits.push(t.node_mass_of(i).to_bits());
            let c = t.node_com_of(i);
            bits.extend([c.x.to_bits(), c.y.to_bits(), c.z.to_bits()]);
            bits.extend(t.node_quad_of(i).iter().map(|q| q.to_bits()));
        }
        bits
    }

    #[test]
    fn multipoles_bitwise_schedule_independent() {
        // Regression for the arrival-order fetch_add accumulation: given a
        // fixed tree structure, the moments must be bit-identical under
        // the parallel backend and every DetPar schedule, because the winner now
        // combines children in index order (a pure function of the tree).
        let (pos, mass) = random_system(2500, 27);
        let mut t = Octree::new();
        t.set_quadrupole(true);
        t.build(Seq, &pos, Aabb::from_points(&pos)).unwrap();
        t.compute_multipoles(Seq, &pos, &mass);
        let reference = moment_bits(&t);

        t.compute_multipoles(Par, &pos, &mass);
        assert_eq!(moment_bits(&t), reference);
        with_backend(Backend::DetPar, || {
            for mode in ScheduleMode::ALL {
                for seed in [0u64, 5, 91] {
                    with_schedule(seed, mode, || {
                        t.compute_multipoles(Par, &pos, &mass);
                        assert_eq!(
                            moment_bits(&t),
                            reference,
                            "mode {} seed {seed}",
                            mode.name()
                        );
                    });
                }
            }
        });
    }

    #[test]
    fn zero_mass_bodies_are_tolerated() {
        let pos = vec![Vec3::new(0.1, 0.0, 0.0), Vec3::new(-0.4, 0.2, 0.3)];
        let mass = vec![0.0, 0.0];
        let t = built(&pos, &mass);
        assert_eq!(t.node_mass_of(0), 0.0);
    }
}
