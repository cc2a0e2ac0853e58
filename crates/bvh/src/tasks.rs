//! Task views of the BVH pipeline for barrier-free stepping.
//!
//! The barrier pipeline runs HILBERTSORT → BUILDTREE → ACCUMULATEMASS as
//! ~`2 + log₂(leaves)` separate parallel regions per step. This module
//! re-expresses the same work as a static DAG of `(phase, tile)` nodes
//! that one [`TaskGraph`] region executes end to end:
//!
//! ```text
//! Keys(t) ─→ SortChunk(t) ─→ Merge(0,k) ─→ … ─→ Merge(R-1,0)
//!                                                    │ (root merge)
//!                 ┌──────────────────────────────────┘
//!                 ▼
//!           GatherLeaf(t) ─→ BuildSub(s)  ─→ BuildTop
//!                       └──→ MomSub(s)    ─→ MomTop
//! ```
//!
//! * `Keys(t)` / `SortChunk(t)` — tile `t`'s `(key, index)` pairs are
//!   computed and sorted in place. `(key, index)` pairs are pairwise
//!   distinct (indices are unique), so the sorted whole is *unique*: the
//!   per-tile sort + binary merge tree below produces **bitwise** the
//!   same permutation as the barrier path's parallel merge sort — the
//!   same uniqueness argument the lazy re-sort relies on.
//! * `Merge(r,k)` — round `r` merges adjacent sorted blocks of width
//!   `chunk·2ʳ`, ping-ponging between the two pair buffers. The root
//!   merge (one node) produces the final sorted order.
//! * `GatherLeaf(t)` — tile `t` of the sorted order materialises the
//!   permutation, gathers positions/masses, and writes its leaf nodes'
//!   boxes and moments in one pass.
//! * `BuildSub(s)` / `MomSub(s)` — the complete binary tree decomposes
//!   into `S` independent subtrees above the leaf level plus a shared
//!   top; each subtree reduces its own levels with no synchronisation.
//!   `MomSub(s)` depends only on the `GatherLeaf` tiles whose body
//!   ranges intersect subtree `s` — **not** on `BuildSub(s)`: moments
//!   never read boxes, so the two reductions overlap freely. The edges
//!   are per-subtree, not a global barrier — subtree `s` can be folding
//!   moments while a distant tile is still gathering.
//!
//! The two node reductions are the functions the barrier level passes call
//! (`build::reduce_box`, `build::reduce_moment`), so a task-graph rebuild is
//! bitwise the barrier rebuild. CALCULATEFORCE tiles the same way
//! ([`Bvh::begin_force_tasks`], in [`crate::force`]).

use crate::build::{reduce_box, reduce_moment, Bvh, Curve};
use crate::scratch::BvhScratch;
use nbody_math::hilbert::HilbertGrid;
use nbody_math::{Aabb, Vec3};
use nbody_resilience::BuildError;
use nbody_telemetry::record;
use stdpar::prelude::*;
use std::ops::Range;

/// A sealed view of one full BVH rebuild (sort + build + moments) as DAG
/// node bodies. Created by [`Bvh::begin_rebuild_tasks`], which validates
/// inputs and sizes every buffer; while the view lives the tree is
/// exclusively borrowed, and [`Bvh::finish_rebuild_tasks`] (after the
/// graph ran) marks the sort current and records build telemetry.
pub struct RebuildTasks<'a> {
    // Geometry (all derived in `begin_rebuild_tasks`).
    n: usize,
    /// Sort/gather tile count (power of two, ≤ leaves).
    tiles: usize,
    /// Bodies per tile (`ceil(n / tiles)`).
    chunk: usize,
    /// Merge rounds (`log₂ tiles`).
    rounds: u32,
    /// Subtree count for the build/moment reductions (= `tiles`).
    subtrees: usize,
    leaves: usize,
    // Key computation.
    grid: HilbertGrid,
    curve: Curve,
    bits: u32,
    // Inputs.
    positions: &'a [Vec3],
    masses: &'a [f64],
    // Outputs (disjoint-range writes per node; the SyncSlice contract).
    pairs_a: SyncSlice<'a, (u64, u32)>,
    pairs_b: SyncSlice<'a, (u64, u32)>,
    perm: SyncSlice<'a, u32>,
    sorted_pos: SyncSlice<'a, Vec3>,
    sorted_mass: SyncSlice<'a, f64>,
    boxes: SyncSlice<'a, Aabb>,
    diag2: SyncSlice<'a, f64>,
    mass: SyncSlice<'a, f64>,
    com: SyncSlice<'a, Vec3>,
    quad: Option<SyncSlice<'a, [f64; 6]>>,
}

impl Bvh {
    /// Validate inputs and lay out every buffer for a task-graph rebuild,
    /// exactly as `try_hilbert_sort_with` + `build_structure` +
    /// `accumulate_moments` would. `tiles` is a parallelism hint; it is
    /// rounded to a power of two and capped at the leaf count.
    ///
    /// Errors precisely like [`Bvh::try_hilbert_sort_with`]
    /// ([`BuildError::LengthMismatch`], [`BuildError::InvalidPositions`]);
    /// on error the previous sort is invalidated, matching the barrier
    /// path's failed-re-sort contract.
    pub fn begin_rebuild_tasks<'a>(
        &'a mut self,
        positions: &'a [Vec3],
        masses: &'a [f64],
        bounds: Aabb,
        tiles: usize,
        scratch: &'a mut BvhScratch,
    ) -> Result<RebuildTasks<'a>, BuildError> {
        if positions.len() != masses.len() {
            return Err(BuildError::LengthMismatch {
                positions: positions.len(),
                masses: masses.len(),
            });
        }
        let n = positions.len();
        self.n = n;
        self.unmark_sorted();
        // Same sequential validation as the barrier sort (which also scans
        // every position once on the caller thread before going parallel).
        if n > 0
            && (bounds.is_empty()
                || !bounds.min.is_finite()
                || !bounds.max.is_finite()
                || !positions.iter().all(|p| p.is_finite()))
        {
            return Err(BuildError::InvalidPositions);
        }
        let leaves = if n == 0 { 1 } else { n.next_power_of_two() };
        self.leaves = leaves;
        let total = 2 * leaves;

        // The grid only feeds `Keys(t)` nodes, which are empty when n = 0;
        // a unit box keeps construction well-defined in that case.
        let grid_bounds = if n == 0 { Aabb::new(Vec3::ZERO, Vec3::ONE) } else { bounds };
        let grid = HilbertGrid::new(grid_bounds, self.params.hilbert_bits);

        let tiles = tiles.max(1).next_power_of_two().min(leaves);
        let chunk = n.div_ceil(tiles);
        let rounds = tiles.trailing_zeros();

        // Layout: everything the phases would clear+resize, front-loaded so
        // the node bodies only ever write disjoint ranges.
        scratch.pairs.clear();
        scratch.pairs.resize(n, (0, 0));
        scratch.pairs2.clear();
        scratch.pairs2.resize(n, (0, 0));
        self.perm.clear();
        self.perm.resize(n, 0);
        self.sorted_pos.clear();
        self.sorted_pos.resize(n, Vec3::ZERO);
        self.sorted_mass.clear();
        self.sorted_mass.resize(n, 0.0);
        self.boxes.clear();
        self.boxes.resize(total, Aabb::EMPTY);
        self.diag2.clear();
        self.diag2.resize(total, 0.0);
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

        Ok(RebuildTasks {
            n,
            tiles,
            chunk,
            rounds,
            subtrees: tiles,
            leaves,
            grid,
            curve: self.params.curve,
            bits: self.params.hilbert_bits,
            positions,
            masses,
            pairs_a: SyncSlice::new(&mut scratch.pairs),
            pairs_b: SyncSlice::new(&mut scratch.pairs2),
            perm: SyncSlice::new(&mut self.perm),
            sorted_pos: SyncSlice::new(&mut self.sorted_pos),
            sorted_mass: SyncSlice::new(&mut self.sorted_mass),
            boxes: SyncSlice::new(&mut self.boxes),
            diag2: SyncSlice::new(&mut self.diag2),
            mass: SyncSlice::new(&mut self.mass),
            com: SyncSlice::new(&mut self.com),
            quad: self.quad.as_mut().map(|q| SyncSlice::new(q)),
        })
    }

    /// Mark the task-graph rebuild complete: the sorted arrays are current
    /// and the per-step build telemetry is recorded (the task path's
    /// analogue of the records inside `build_structure`, and of the
    /// full-sort record of `try_hilbert_resort_with`: the rebuild DAG always
    /// sorts from scratch).
    pub fn finish_rebuild_tasks(&mut self) {
        self.mark_sorted();
        record!(counter BVH_FULL_RESORTS, 1);
        record!(counter BVH_BUILDS, 1);
        record!(gauge BVH_NODES_HIGH_WATER, (2 * self.leaves) as u64);
    }
}

impl RebuildTasks<'_> {
    /// Total DAG nodes this rebuild contributes.
    pub fn node_count(&self) -> usize {
        // keys + sort + (tiles-1) merges + gather + build_sub + mom_sub
        // + build_top + mom_top.
        let t = self.tiles;
        4 * t + (t - 1) + self.subtrees + 2
    }

    /// Coarse phase of local node `id`, for callers attributing per-node
    /// busy time to the step's phase breakdown. Gather nodes fuse the
    /// permutation application (sort work) with leaf box and leaf moment
    /// seeding; they count as [`RebuildPhase::Sort`], where the barrier
    /// path's permutation application also lives.
    pub fn node_phase(&self, id: u32) -> RebuildPhase {
        let id = id as usize;
        if id < self.bsub_off() {
            RebuildPhase::Sort
        } else if id < self.msub_off() || id == self.btop_id() {
            RebuildPhase::Build
        } else {
            RebuildPhase::Moments
        }
    }

    // Local node-id layout (dense, decoded by `run_node`):
    //   [0, T)        Keys(t)
    //   [T, 2T)       SortChunk(t)
    //   [2T, 3T-1)    Merge(r, k)  — round r's base is 2T + (T - T>>r)
    //   [3T-1, 4T-1)  GatherLeaf(t)
    //   [4T-1, 5T-1)  BuildSub(s)
    //   [5T-1, 6T-1)  MomSub(s)
    //   6T-1          BuildTop
    //   6T            MomTop
    #[inline]
    fn merge_off(&self) -> usize {
        2 * self.tiles
    }
    #[inline]
    fn gather_off(&self) -> usize {
        3 * self.tiles - 1
    }
    #[inline]
    fn bsub_off(&self) -> usize {
        4 * self.tiles - 1
    }
    #[inline]
    fn msub_off(&self) -> usize {
        4 * self.tiles - 1 + self.subtrees
    }
    #[inline]
    fn btop_id(&self) -> usize {
        4 * self.tiles - 1 + 2 * self.subtrees
    }
    #[inline]
    fn mtop_id(&self) -> usize {
        self.btop_id() + 1
    }

    /// Bodies covered by sort/gather tile `t`.
    #[inline]
    fn tile_range(&self, t: usize) -> Range<usize> {
        (t * self.chunk).min(self.n)..((t + 1) * self.chunk).min(self.n)
    }

    /// Bodies whose leaves fall inside subtree `s`.
    #[inline]
    fn subtree_range(&self, s: usize) -> Range<usize> {
        let per = self.leaves / self.subtrees;
        (per * s).min(self.n)..(per * (s + 1)).min(self.n)
    }

    /// Add this rebuild's nodes and edges to an empty graph. Node ids in
    /// the graph equal the local ids `run_node` decodes, so the caller's
    /// dispatch is just `|node, _| tasks.run_node(node)`.
    pub fn wire(&self, g: &mut TaskGraph) {
        assert!(g.is_empty(), "RebuildTasks::wire expects an empty graph");
        let t = self.tiles as u32;
        let nodes = g.add_nodes(self.node_count());
        debug_assert_eq!(nodes.len(), self.node_count());
        let (merge_off, gather_off) = (self.merge_off() as u32, self.gather_off() as u32);
        let (bsub_off, msub_off) = (self.bsub_off() as u32, self.msub_off() as u32);
        let (btop, mtop) = (self.btop_id() as u32, self.mtop_id() as u32);

        // Keys(t) → SortChunk(t).
        for i in 0..t {
            g.add_edge(i, t + i);
        }
        // The binary merge tree over the sorted tiles.
        for r in 0..self.rounds {
            let base = merge_off + (t - (t >> r));
            for k in 0..(t >> (r + 1)) {
                let node = base + k;
                let (left, right) = if r == 0 {
                    (t + 2 * k, t + 2 * k + 1)
                } else {
                    let prev = merge_off + (t - (t >> (r - 1)));
                    (prev + 2 * k, prev + 2 * k + 1)
                };
                g.add_edge(left, node);
                g.add_edge(right, node);
            }
        }
        // Root of the merge tree (or the lone sorted tile) → every gather.
        let sorted_root = if self.rounds == 0 { t } else { merge_off + t - 2 };
        for i in 0..t {
            g.add_edge(sorted_root, gather_off + i);
        }
        // GatherLeaf(t) → {BuildSub, MomSub}(s) only where the tile's body
        // range intersects the subtree's — per-subtree edges, not a global
        // barrier over all gathers.
        for s in 0..self.subtrees {
            let sr = self.subtree_range(s);
            for i in 0..self.tiles {
                let tr = self.tile_range(i);
                if tr.start < sr.end && sr.start < tr.end {
                    g.add_edge(gather_off + i as u32, bsub_off + s as u32);
                    g.add_edge(gather_off + i as u32, msub_off + s as u32);
                }
            }
            g.add_edge(bsub_off + s as u32, btop);
            g.add_edge(msub_off + s as u32, mtop);
        }
    }

    /// Execute local node `id` (as laid out by [`RebuildTasks::wire`]).
    pub fn run_node(&self, id: u32) {
        let id = id as usize;
        let t = self.tiles;
        if id < t {
            self.keys_tile(id);
        } else if id < 2 * t {
            self.sort_tile(id - t);
        } else if id < self.gather_off() {
            // Decode (round, k) from the packed merge ids.
            let rel = id - self.merge_off();
            let mut r = 0u32;
            loop {
                let base = t - (t >> r);
                let width = t >> (r + 1);
                if rel < base + width {
                    self.merge_tile(r, rel - base);
                    break;
                }
                r += 1;
            }
        } else if id < self.bsub_off() {
            self.gather_leaf_tile(id - self.gather_off());
        } else {
            // SAFETY (both closures): subtree node ranges are disjoint per
            // level and the apex has one writer, and `wire` orders each of
            // these DAG nodes after the ones that finish its children.
            let boxes = |i| unsafe { reduce_box(self.boxes, self.diag2, i) };
            let moments = |i| unsafe { reduce_moment(self.mass, self.com, self.quad, i) };
            if id < self.msub_off() {
                self.subtree_nodes(id - self.bsub_off(), boxes);
            } else if id < self.btop_id() {
                self.subtree_nodes(id - self.msub_off(), moments);
            } else if id == self.btop_id() {
                self.top_nodes(boxes);
            } else {
                debug_assert_eq!(id, self.mtop_id());
                self.top_nodes(moments);
            }
        }
    }

    /// `Keys(t)`: the barrier sort's key pass, restricted to one tile.
    fn keys_tile(&self, t: usize) {
        let (grid, curve, bits) = (self.grid, self.curve, self.bits);
        for i in self.tile_range(t) {
            let key = match curve {
                Curve::Hilbert => grid.key_of(self.positions[i]),
                Curve::Morton => {
                    let [x, y, z] = grid.cell_of(self.positions[i]);
                    debug_assert!(bits <= 21);
                    nbody_math::morton::morton3(x, y, z)
                }
            };
            // SAFETY: tiles partition 0..n; this node is range-exclusive.
            unsafe { self.pairs_a.write(i, (key, i as u32)) };
        }
    }

    /// `SortChunk(t)`: in-place, allocation-free sort of one tile. The
    /// comparator matches the barrier sort (`(key, index)` natural order);
    /// distinct pairs make the result order-unique.
    fn sort_tile(&self, t: usize) {
        let r = self.tile_range(t);
        // SAFETY: tiles partition 0..n; this node owns its range.
        let s = unsafe { self.pairs_a.slice_mut(r) };
        s.sort_unstable();
    }

    /// `Merge(round, k)`: merge two adjacent sorted blocks of width
    /// `chunk·2^round`, ping-ponging A→B→A… between the pair buffers.
    fn merge_tile(&self, round: u32, k: usize) {
        let w = self.chunk << round;
        let start = (k * 2 * w).min(self.n);
        let mid = (start + w).min(self.n);
        let end = (start + 2 * w).min(self.n);
        let (src, dst) = if round.is_multiple_of(2) {
            (&self.pairs_a, &self.pairs_b)
        } else {
            (&self.pairs_b, &self.pairs_a)
        };
        // SAFETY: merge blocks partition the array within a round, and the
        // DAG orders rounds, so src reads and dst writes are race-free.
        unsafe {
            let a = src.slice(start..mid);
            let b = src.slice(mid..end);
            let out = dst.slice_mut(start..end);
            let (mut i, mut j, mut o) = (0, 0, 0);
            while i < a.len() && j < b.len() {
                // `<=` keeps the merge stable (irrelevant for distinct
                // pairs, but it mirrors the lazy re-sort's merge).
                if a[i] <= b[j] {
                    out[o] = a[i];
                    i += 1;
                } else {
                    out[o] = b[j];
                    j += 1;
                }
                o += 1;
            }
            out[o..o + (a.len() - i)].copy_from_slice(&a[i..]);
            o += a.len() - i;
            out[o..].copy_from_slice(&b[j..]);
        }
    }

    /// The buffer the final merge round wrote (A when the round count is
    /// even — including zero — else B).
    #[inline]
    fn final_pairs(&self) -> &SyncSlice<'_, (u64, u32)> {
        if self.rounds.is_multiple_of(2) {
            &self.pairs_a
        } else {
            &self.pairs_b
        }
    }

    /// `GatherLeaf(t)`: materialise the permutation, gather bodies into
    /// sorted order, and write this tile's leaf boxes and leaf moments —
    /// the fused leaf passes of sort-apply, BUILDTREE and ACCUMULATEMASS.
    fn gather_leaf_tile(&self, t: usize) {
        let fin = self.final_pairs();
        let leaves = self.leaves;
        for j in self.tile_range(t) {
            // SAFETY: tiles partition 0..n (and the shifted leaf range);
            // every write below is range-exclusive to this node.
            unsafe {
                let (_, idx) = fin.read(j);
                let b = idx as usize;
                let (p, m) = (self.positions[b], self.masses[b]);
                self.perm.write(j, idx);
                self.sorted_pos.write(j, p);
                self.sorted_mass.write(j, m);
                self.boxes.write(leaves + j, Aabb::from_point(p));
                self.mass.write(leaves + j, m);
                self.com.write(leaves + j, p);
            }
        }
        // Excess leaves keep the EMPTY/zero fill from `begin_rebuild_tasks`,
        // exactly like the barrier path's resize fills.
    }

    /// `BuildSub(s)` / `MomSub(s)`: `reduce` each of subtree `s`'s nodes,
    /// bottom-up. At level width `w ≥ S` the subtree owns nodes
    /// `[w + (w/S)s, w + (w/S)(s+1))`; the children of every owned node lie
    /// in the subtree's own slice of the next-finer level, so no
    /// cross-subtree coordination is needed — and `MomSub` does not wait
    /// for `BuildSub`: moments read only child moments, never boxes.
    fn subtree_nodes(&self, s: usize, reduce: impl Fn(usize)) {
        let (leaves, sub) = (self.leaves, self.subtrees);
        let mut w = leaves / 2;
        while w >= sub {
            let per = w / sub;
            (w + per * s..w + per * (s + 1)).for_each(&reduce);
            w /= 2;
        }
    }

    /// `BuildTop` / `MomTop`: `reduce` each node of the shared apex levels
    /// (`w < S`), after all subtrees of the same reduction.
    fn top_nodes(&self, reduce: impl Fn(usize)) {
        let mut w = (self.subtrees / 2).min(self.leaves / 2);
        while w >= 1 {
            (w..2 * w).for_each(&reduce);
            w /= 2;
        }
    }
}

/// Coarse timing classification of one [`RebuildTasks`] node (see
/// [`RebuildTasks::node_phase`]): the three barrier phases a task-graph
/// rebuild overlaps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildPhase {
    /// Key tiles, per-tile sorts, merge rounds, and the sorted gathers.
    Sort,
    /// Box-structure reductions (per-subtree and top).
    Build,
    /// Moment reductions (per-subtree and top).
    Moments,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::BvhParams;
    use nbody_math::SplitMix64;
    use stdpar::backend::{with_backend, with_threads, Backend};
    use stdpar::detpar::{with_schedule, ScheduleMode};

    fn random_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut r = SplitMix64::new(seed);
        let pos = (0..n)
            .map(|_| Vec3::new(r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)))
            .collect();
        let mass = (0..n).map(|_| r.uniform(0.5, 2.0)).collect();
        (pos, mass)
    }

    /// Full task-graph rebuild of `bvh` from `pos`/`mass`.
    fn rebuild_by_tasks(
        bvh: &mut Bvh,
        pos: &[Vec3],
        mass: &[f64],
        bounds: Aabb,
        tiles: usize,
    ) {
        let mut scratch = BvhScratch::new();
        let mut g = TaskGraph::new();
        {
            let tasks = bvh
                .begin_rebuild_tasks(pos, mass, bounds, tiles, &mut scratch)
                .unwrap();
            tasks.wire(&mut g);
            g.run(|node, _| tasks.run_node(node));
        }
        bvh.finish_rebuild_tasks();
    }

    fn assert_trees_identical(a: &Bvh, b: &Bvh) {
        assert_eq!(a.permutation(), b.permutation());
        assert_eq!(a.sorted_positions(), b.sorted_positions());
        assert_eq!(a.sorted_mass, b.sorted_mass);
        assert_eq!(a.leaf_count(), b.leaf_count());
        for i in 1..2 * a.leaf_count() {
            assert_eq!(a.node_box(i).min, b.node_box(i).min, "box min, node {i}");
            assert_eq!(a.node_box(i).max, b.node_box(i).max, "box max, node {i}");
            assert_eq!(a.node_diag2(i).to_bits(), b.node_diag2(i).to_bits(), "diag2, node {i}");
            assert_eq!(a.node_mass(i).to_bits(), b.node_mass(i).to_bits(), "mass, node {i}");
            assert_eq!(a.node_com(i), b.node_com(i), "com, node {i}");
            assert_eq!(a.node_quad(i), b.node_quad(i), "quad, node {i}");
        }
    }

    #[test]
    fn task_rebuild_matches_barrier_bitwise() {
        for (n, tiles, quad) in
            [(1usize, 8usize, false), (7, 4, false), (137, 8, true), (1000, 16, false), (1000, 1, true)]
        {
            let (pos, mass) = random_system(n, 1000 + n as u64);
            let bounds = Aabb::from_points(&pos);
            let mut reference =
                Bvh::with_params(BvhParams { quadrupole: quad, ..BvhParams::default() });
            reference.hilbert_sort(Par, &pos, &mass, bounds);
            reference.build_and_accumulate(Par);

            let mut tasked =
                Bvh::with_params(BvhParams { quadrupole: quad, ..BvhParams::default() });
            rebuild_by_tasks(&mut tasked, &pos, &mass, bounds, tiles);
            assert_trees_identical(&tasked, &reference);
        }
    }

    #[test]
    fn task_rebuild_matches_barrier_on_morton_curve() {
        let (pos, mass) = random_system(512, 2001);
        let bounds = Aabb::from_points(&pos);
        let params = BvhParams { curve: Curve::Morton, ..BvhParams::default() };
        let mut reference = Bvh::with_params(params);
        reference.hilbert_sort(Par, &pos, &mass, bounds);
        reference.build_and_accumulate(Par);
        let mut tasked = Bvh::with_params(params);
        rebuild_by_tasks(&mut tasked, &pos, &mass, bounds, 8);
        assert_trees_identical(&tasked, &reference);
    }

    #[test]
    fn task_rebuild_identical_across_backends_and_schedules() {
        let (pos, mass) = random_system(700, 2002);
        let bounds = Aabb::from_points(&pos);
        let mut reference = Bvh::new();
        reference.hilbert_sort(Par, &pos, &mass, bounds);
        reference.build_and_accumulate(Par);
        for backend in Backend::ALL {
            with_backend(backend, || {
                let mut b = Bvh::new();
                rebuild_by_tasks(&mut b, &pos, &mass, bounds, 8);
                assert_trees_identical(&b, &reference);
            });
        }
        with_backend(Backend::DetPar, || {
            for mode in ScheduleMode::ALL {
                with_schedule(17, mode, || {
                    let mut b = Bvh::new();
                    rebuild_by_tasks(&mut b, &pos, &mass, bounds, 8);
                    assert_trees_identical(&b, &reference);
                });
            }
        });
        with_threads(1, || {
            let mut b = Bvh::new();
            rebuild_by_tasks(&mut b, &pos, &mass, bounds, 8);
            assert_trees_identical(&b, &reference);
        });
    }

    #[test]
    fn task_rebuild_empty_system() {
        let mut b = Bvh::new();
        rebuild_by_tasks(&mut b, &[], &[], Aabb::EMPTY, 8);
        assert_eq!(b.n_bodies(), 0);
        assert_eq!(b.node_mass(1), 0.0);
        // A subsequent barrier build still works (sort is current).
        b.try_build_and_accumulate(Par).unwrap();
    }

    #[test]
    fn begin_rebuild_rejects_bad_inputs_typed() {
        let mut b = Bvh::new();
        let mut scratch = BvhScratch::new();
        let err = b
            .begin_rebuild_tasks(
                &[Vec3::ZERO, Vec3::ONE],
                &[1.0],
                Aabb::new(Vec3::ZERO, Vec3::ONE),
                4,
                &mut scratch,
            )
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, BuildError::LengthMismatch { positions: 2, masses: 1 });
        let pos = vec![Vec3::new(f64::NAN, 0.0, 0.0), Vec3::ONE];
        let err = b
            .begin_rebuild_tasks(&pos, &[1.0, 1.0], Aabb::new(Vec3::ZERO, Vec3::ONE), 4, &mut scratch)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, BuildError::InvalidPositions);
        // The failed begin invalidated any previous sort.
        assert_eq!(b.try_build_and_accumulate(Par).unwrap_err(), BuildError::NotSorted);
    }
}
