//! BVH storage and the BUILDTREE+ACCUMULATEMASS phase (paper §IV-B.2).

use nbody_math::{Aabb, BuildError, Vec3};
use stdpar::prelude::*;

/// Tuning parameters of the BVH.
#[derive(Clone, Copy, Debug)]
pub struct BvhParams {
    /// Grid resolution in bits per axis (1..=21). The paper grids bodies
    /// on "the coarsest equidistant Cartesian grid capable to hold all
    /// bodies"; finer grids give better curve locality at slightly higher
    /// key-computation cost.
    pub hilbert_bits: u32,
    /// Accumulate second moments for the quadrupole extension.
    pub quadrupole: bool,
}

impl Default for BvhParams {
    fn default() -> Self {
        BvhParams { hilbert_bits: 16, quadrupole: false }
    }
}

/// A balanced binary BVH in implicit heap layout.
///
/// Node indexing is 1-based: the root is node 1, node `i` has children `2i`
/// and `2i+1`, and the `leaves` leaf nodes occupy `leaves..2·leaves`. The
/// number of leaves is the smallest power of two ≥ N (excess leaves are
/// empty: zero mass, empty box). Levels, nodes-per-level and total node
/// count are all predetermined, as the paper requires.
pub struct Bvh {
    pub(crate) n: usize,
    pub(crate) leaves: usize,
    /// Sorted→original body index permutation (`perm[j]` = original id of
    /// the body in leaf `j`).
    pub(crate) perm: Vec<u32>,
    /// Bodies gathered into Hilbert order: by the last sort, or since then
    /// by [`Bvh::regather_positions`].
    pub(crate) sorted_pos: Vec<Vec3>,
    pub(crate) sorted_mass: Vec<f64>,
    /// Per-node bounding boxes (index 0 unused).
    pub(crate) boxes: Vec<Aabb>,
    /// Per-node squared box diagonal, precomputed at build time so the
    /// acceptance criterion does no per-visit `extent().norm2()`.
    pub(crate) diag2: Vec<f64>,
    /// Per-node total mass.
    pub(crate) mass: Vec<f64>,
    /// Per-node centre of mass.
    pub(crate) com: Vec<Vec3>,
    /// Optional central second moments (xx, xy, xz, yy, yz, zz).
    pub(crate) quad: Option<Vec<[f64; 6]>>,
    pub(crate) params: BvhParams,
    /// Set by `hilbert_sort`, consumed by `build_and_accumulate`.
    sorted: bool,
    /// Set by `accumulate_moments`, cleared by every sort and by
    /// `build_structure`: the node moments describe the bodies of the last
    /// sort (a re-gather moves the bodies, not the tree). The force entry
    /// points refuse a tree without it.
    pub(crate) moments_current: bool,
}

impl Default for Bvh {
    fn default() -> Self {
        Self::new()
    }
}

impl Bvh {
    pub fn new() -> Self {
        Self::with_params(BvhParams::default())
    }

    pub fn with_params(params: BvhParams) -> Self {
        assert!((1..=21).contains(&params.hilbert_bits), "hilbert_bits must be in 1..=21");
        Bvh {
            n: 0,
            leaves: 0,
            perm: Vec::new(),
            sorted_pos: Vec::new(),
            sorted_mass: Vec::new(),
            boxes: Vec::new(),
            diag2: Vec::new(),
            mass: Vec::new(),
            com: Vec::new(),
            quad: None,
            params,
            sorted: false,
            moments_current: false,
        }
    }

    /// Number of bodies.
    #[inline]
    pub fn n_bodies(&self) -> usize {
        self.n
    }

    /// Record that `hilbert_sort` has populated the sorted arrays.
    #[inline]
    pub(crate) fn mark_sorted(&mut self) {
        self.sorted = true;
    }

    /// Invalidate any previous sort (a failed re-sort must not leave the
    /// tree claiming stale sorted data is current), and with it the moments
    /// accumulated over that sort. Every sort and re-sort starts here.
    pub(crate) fn unmark_sorted(&mut self) {
        self.sorted = false;
        self.moments_current = false;
    }

    /// True when a successful sort's data is current (the lazy re-sort
    /// uses this to decide whether the previous permutation is reusable).
    #[inline]
    pub(crate) fn sorted_is_current(&self) -> bool {
        self.sorted
    }

    /// Number of leaf nodes (power of two, ≥ n).
    #[inline]
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// Number of tree levels (root = level 0).
    #[inline]
    pub fn levels(&self) -> u32 {
        if self.leaves == 0 {
            0
        } else {
            self.leaves.trailing_zeros() + 1
        }
    }

    /// Sorted→original permutation of the last build.
    #[inline]
    pub fn permutation(&self) -> &[u32] {
        &self.perm
    }

    /// Bodies in Hilbert order.
    #[inline]
    pub fn sorted_positions(&self) -> &[Vec3] {
        &self.sorted_pos
    }

    /// Node accessors (1-based; valid after [`Bvh::build_and_accumulate`]).
    #[inline]
    pub fn node_box(&self, i: usize) -> Aabb {
        self.boxes[i]
    }

    #[inline]
    pub fn node_mass(&self, i: usize) -> f64 {
        self.mass[i]
    }

    #[inline]
    pub fn node_com(&self, i: usize) -> Vec3 {
        self.com[i]
    }

    #[inline]
    pub fn node_quad(&self, i: usize) -> [f64; 6] {
        self.quad.as_ref().map(|q| q[i]).unwrap_or([0.0; 6])
    }

    /// True if node `i` is a leaf.
    #[inline]
    pub fn is_leaf(&self, i: usize) -> bool {
        i >= self.leaves
    }

    /// Original body id stored in leaf node `i` (None for empty leaves).
    #[inline]
    pub fn leaf_body(&self, i: usize) -> Option<u32> {
        debug_assert!(self.is_leaf(i));
        let j = i - self.leaves;
        if j < self.n {
            Some(self.perm[j])
        } else {
            None
        }
    }

    /// BUILDTREE + ACCUMULATEMASS: construct leaves from the sorted bodies,
    /// then reduce level by level up to the root. Requires a prior
    /// [`Bvh::hilbert_sort`](crate::sort) for the current positions.
    ///
    /// All loops are element-independent, so any policy works — including
    /// `ParUnseq` (the paper's choice).
    ///
    /// Errors with [`BuildError::NotSorted`] when called before a successful
    /// sort of the current bodies.
    pub fn try_build_and_accumulate<P: ExecutionPolicy>(
        &mut self,
        policy: P,
    ) -> Result<(), BuildError> {
        self.try_build_structure(policy)?;
        self.accumulate_moments(policy);
        Ok(())
    }

    /// Panicking variant of [`Bvh::try_build_and_accumulate`].
    pub fn build_and_accumulate<P: ExecutionPolicy>(&mut self, policy: P) {
        self.build_structure(policy);
        self.accumulate_moments(policy);
    }

    /// Fallible variant of [`Bvh::build_structure`]: errors with
    /// [`BuildError::NotSorted`] when called before a successful sort of the
    /// current bodies.
    pub fn try_build_structure<P: ExecutionPolicy>(
        &mut self,
        policy: P,
    ) -> Result<(), BuildError> {
        if !self.sorted {
            return Err(BuildError::NotSorted);
        }
        self.build_structure(policy);
        Ok(())
    }

    /// BUILDTREE: geometry only — per-node bounding boxes and squared
    /// diagonals, leaves up to the root. [`Bvh::accumulate_moments`]
    /// (ACCUMULATEMASS) fills masses/centres/quadrupoles afterwards; the
    /// split lets the step loop attribute structure and moment time to
    /// separate phases (`build` vs `multipole` in the timing breakdown).
    pub fn build_structure<P: ExecutionPolicy>(&mut self, policy: P) {
        assert!(self.sorted, "call hilbert_sort before build_structure");
        self.moments_current = false;
        let n = self.n;
        let leaves = if n == 0 { 1 } else { n.next_power_of_two() };
        self.leaves = leaves;
        let total = 2 * leaves;
        self.boxes.clear();
        self.boxes.resize(total, Aabb::EMPTY);
        // Point leaves have zero diagonal; empty nodes are never visited
        // (zero mass), so zero is a safe fill for the whole array.
        self.diag2.clear();
        self.diag2.resize(total, 0.0);

        // Leaf boxes: one body per leaf, in Hilbert order. Excess leaves
        // keep the `Aabb::EMPTY` fill.
        {
            let boxes = SyncSlice::new(&mut self.boxes);
            let pos = &self.sorted_pos;
            for_each_index(policy, 0..n, |j| unsafe {
                boxes.write(leaves + j, Aabb::from_point(pos[j]));
            });
        }

        // Level-by-level bottom-up reduction (one parallel pass per level).
        // The empty-box guard replaces the mass guard of the fused build:
        // a node's subtree is body-free exactly when its box is empty.
        let mut width = leaves / 2;
        while width >= 1 {
            let boxes = SyncSlice::new(&mut self.boxes);
            let diag2 = SyncSlice::new(&mut self.diag2);
            // SAFETY: one writer per node of this level; the level below
            // is final (previous pass joined).
            for_each_index(policy, width..2 * width, |i| unsafe { reduce_box(boxes, diag2, i) });
            width /= 2;
        }
        nbody_telemetry::record!(counter BVH_BUILDS, 1);
        nbody_telemetry::record!(gauge BVH_NODES_HIGH_WATER, total as u64);
    }

    /// ACCUMULATEMASS: per-node total mass, centre of mass and (optionally)
    /// central second moments, reduced level by level over the structure
    /// laid out by [`Bvh::build_structure`]. Must run after it; reruns are
    /// idempotent and reuse the node storage.
    pub fn accumulate_moments<P: ExecutionPolicy>(&mut self, policy: P) {
        assert!(self.sorted, "call hilbert_sort before accumulate_moments");
        let n = self.n;
        let leaves = self.leaves;
        let total = 2 * leaves;
        debug_assert_eq!(self.boxes.len(), total, "build_structure must run first");
        self.mass.clear();
        self.mass.resize(total, 0.0);
        self.com.clear();
        self.com.resize(total, Vec3::ZERO);
        if self.params.quadrupole {
            let q = self.quad.get_or_insert_with(Vec::new);
            q.clear();
            q.resize(total, [0.0; 6]);
        } else {
            self.quad = None;
        }

        // Leaf moments: one body per leaf, in Hilbert order.
        {
            let mass = SyncSlice::new(&mut self.mass);
            let com = SyncSlice::new(&mut self.com);
            let pos = &self.sorted_pos;
            let m = &self.sorted_mass;
            for_each_index(policy, 0..n, |j| unsafe {
                let i = leaves + j;
                mass.write(i, m[j]);
                com.write(i, pos[j]);
            });
        }

        // Level-by-level bottom-up reduction (one parallel pass per level).
        let mut width = leaves / 2;
        while width >= 1 {
            let mass = SyncSlice::new(&mut self.mass);
            let com = SyncSlice::new(&mut self.com);
            let quad = self.quad.as_mut().map(|q| SyncSlice::new(q));
            // SAFETY: one writer per node of this level; the level below
            // is final (previous pass joined).
            for_each_index(policy, width..2 * width, |i| unsafe {
                reduce_moment(mass, com, quad, i)
            });
            width /= 2;
        }
        self.moments_current = true;
    }
}

/// One BUILDTREE reduction: node `i`'s box and squared diagonal from its
/// children's boxes.
///
/// # Safety
/// `2 * i + 1 < boxes.len() == diag2.len()`; both children are final and
/// nothing else accesses node `i` concurrently.
#[inline]
unsafe fn reduce_box(boxes: SyncSlice<'_, Aabb>, diag2: SyncSlice<'_, f64>, i: usize) {
    let bx = boxes.read(2 * i).union(boxes.read(2 * i + 1));
    boxes.write(i, bx);
    diag2.write(i, if bx.is_empty() { 0.0 } else { bx.extent().norm2() });
}

/// One ACCUMULATEMASS reduction: node `i`'s mass, centre of mass and
/// (optionally) central second moments from its children's.
///
/// # Safety
/// `2 * i + 1` is in bounds of every column; both children are final and
/// nothing else accesses node `i` concurrently.
#[inline]
unsafe fn reduce_moment(
    mass: SyncSlice<'_, f64>,
    com: SyncSlice<'_, Vec3>,
    quad: Option<SyncSlice<'_, [f64; 6]>>,
    i: usize,
) {
    let (l, r) = (2 * i, 2 * i + 1);
    let (ml, mr) = (mass.read(l), mass.read(r));
    let m = ml + mr;
    mass.write(i, m);
    let c = if m > 0.0 { (com.read(l) * ml + com.read(r) * mr) / m } else { Vec3::ZERO };
    com.write(i, c);
    if let Some(q) = quad {
        // Parallel-axis combination of central second moments.
        let mut s = [0.0f64; 6];
        for (mk, k) in [(ml, l), (mr, r)] {
            if mk > 0.0 {
                let sk = q.read(k);
                let d = com.read(k) - c;
                s[0] += sk[0] + mk * d.x * d.x;
                s[1] += sk[1] + mk * d.x * d.y;
                s[2] += sk[2] + mk * d.x * d.z;
                s[3] += sk[3] + mk * d.y * d.y;
                s[4] += sk[4] + mk * d.y * d.z;
                s[5] += sk[5] + mk * d.z * d.z;
            }
        }
        q.write(i, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_math::SplitMix64;

    fn random_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut r = SplitMix64::new(seed);
        let pos = (0..n)
            .map(|_| Vec3::new(r.uniform(-2.0, 2.0), r.uniform(-2.0, 2.0), r.uniform(-2.0, 2.0)))
            .collect();
        let mass = (0..n).map(|_| r.uniform(0.1, 3.0)).collect();
        (pos, mass)
    }

    fn built(pos: &[Vec3], mass: &[f64]) -> Bvh {
        let mut b = Bvh::new();
        b.hilbert_sort(ParUnseq, pos, mass, Aabb::from_points(pos));
        b.build_and_accumulate(ParUnseq);
        b
    }

    #[test]
    fn leaf_count_is_power_of_two() {
        for n in [1usize, 2, 3, 7, 8, 9, 1000] {
            let (pos, mass) = random_system(n, n as u64);
            let b = built(&pos, &mass);
            assert!(b.leaf_count().is_power_of_two());
            assert!(b.leaf_count() >= n);
            assert!(b.leaf_count() < 2 * n.max(1));
        }
    }

    #[test]
    fn root_mass_and_com_match_totals() {
        let (pos, mass) = random_system(777, 61);
        let b = built(&pos, &mass);
        let total: f64 = mass.iter().sum();
        assert!((b.node_mass(1) - total).abs() < 1e-9 * total);
        let mut com = Vec3::ZERO;
        for (p, m) in pos.iter().zip(&mass) {
            com += *p * *m;
        }
        com /= total;
        assert!((b.node_com(1) - com).norm() < 1e-9);
    }

    #[test]
    fn parent_boxes_contain_child_boxes() {
        let (pos, mass) = random_system(500, 62);
        let b = built(&pos, &mass);
        for i in 1..b.leaf_count() {
            let pb = b.node_box(i);
            assert!(pb.contains_box(b.node_box(2 * i)), "node {i} left");
            assert!(pb.contains_box(b.node_box(2 * i + 1)), "node {i} right");
        }
    }

    #[test]
    fn root_box_contains_all_bodies() {
        let (pos, mass) = random_system(300, 63);
        let b = built(&pos, &mass);
        for &p in &pos {
            assert!(b.node_box(1).contains(p));
        }
    }

    #[test]
    fn every_body_in_exactly_one_leaf() {
        let (pos, mass) = random_system(143, 64);
        let b = built(&pos, &mass);
        let mut ids: Vec<u32> = (b.leaf_count()..2 * b.leaf_count())
            .filter_map(|i| b.leaf_body(i))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..143u32).collect::<Vec<_>>());
        // Excess leaves are empty.
        let empties = (b.leaf_count()..2 * b.leaf_count())
            .filter(|&i| b.leaf_body(i).is_none())
            .count();
        assert_eq!(empties, b.leaf_count() - 143);
    }

    #[test]
    fn single_body_tree() {
        let pos = vec![Vec3::new(1.0, 2.0, 3.0)];
        let mass = vec![5.0];
        let b = built(&pos, &mass);
        assert_eq!(b.leaf_count(), 1);
        assert_eq!(b.node_mass(1), 5.0);
        assert_eq!(b.node_com(1), pos[0]);
        assert_eq!(b.leaf_body(1), Some(0));
    }

    #[test]
    fn empty_input() {
        let mut b = Bvh::new();
        b.hilbert_sort(ParUnseq, &[], &[], Aabb::EMPTY);
        b.build_and_accumulate(ParUnseq);
        assert_eq!(b.n_bodies(), 0);
        assert_eq!(b.node_mass(1), 0.0);
    }

    #[test]
    fn duplicate_positions_each_get_a_leaf() {
        // No chaining needed: the balanced BVH holds one body per leaf
        // regardless of geometry — a robustness advantage over the octree.
        let p = Vec3::new(0.5, 0.5, 0.5);
        let pos = vec![p; 9];
        let mass = vec![1.0; 9];
        let b = built(&pos, &mass);
        assert_eq!(b.leaf_count(), 16);
        assert!((b.node_mass(1) - 9.0).abs() < 1e-12);
        assert!((b.node_com(1) - p).norm() < 1e-12);
    }

    #[test]
    fn levels_count() {
        let (pos, mass) = random_system(8, 65);
        let b = built(&pos, &mass);
        assert_eq!(b.leaf_count(), 8);
        assert_eq!(b.levels(), 4); // 8-4-2-1
    }

    #[test]
    fn seq_and_par_builds_agree() {
        let (pos, mass) = random_system(400, 66);
        let mut s = Bvh::new();
        s.hilbert_sort(Seq, &pos, &mass, Aabb::from_points(&pos));
        s.build_and_accumulate(Seq);
        let p = built(&pos, &mass);
        assert_eq!(s.permutation(), p.permutation());
        for i in 1..2 * s.leaf_count() {
            assert!((s.node_mass(i) - p.node_mass(i)).abs() < 1e-12);
            assert!((s.node_com(i) - p.node_com(i)).norm() < 1e-12);
        }
    }

    #[test]
    fn quadrupole_root_matches_direct() {
        let (pos, mass) = random_system(200, 67);
        let mut b = Bvh::with_params(BvhParams { quadrupole: true, ..BvhParams::default() });
        b.hilbert_sort(ParUnseq, &pos, &mass, Aabb::from_points(&pos));
        b.build_and_accumulate(ParUnseq);
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
        let got = b.node_quad(1);
        for k in 0..6 {
            assert!((got[k] - s[k]).abs() < 1e-8 * (1.0 + s[k].abs()), "k={k}");
        }
    }

    #[test]
    #[should_panic]
    fn build_without_sort_panics() {
        let mut b = Bvh::new();
        b.build_and_accumulate(ParUnseq);
    }
}
