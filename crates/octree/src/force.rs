//! CALCULATEFORCE for the octree (paper §IV-A.3, Fig. 3).
//!
//! Two visitors on the crate's one stackless walk ([`Octree::walk`], over
//! the walk-order layout `compute_multipoles` leaves behind): the per-body
//! accumulation behind [`Octree::accel_at`], and the group gather that fills
//! the flat interaction lists of the blocked path. Both read a node's centre
//! of mass, mass and width from its walk entry and a leaf's body from the
//! caller's live arrays; both are `par_unseq`-safe (read-only tree, no
//! locks).
//!
//! Everything around the walk — tiles, group boxes, per-worker lists,
//! kernels, telemetry, the two executors — is [`nbody_math::tiles`], shared
//! with the BVH; this module only says what an octree looks like to it
//! ([`OctreeView`]). The octree stores bodies in insertion order, which is
//! not spatially sorted, so on the blocked path a tile is a contiguous run
//! of the tree's own depth-first leaf order (written by the same relayout
//! pass): such a run lives in one subtree and therefore in a small box, and
//! one walk per run tests the criterion against that box with the
//! conservative point-to-box distance [`Aabb::distance2_to_point`] (every
//! member is at least that far from the node's centre of mass).
//!
//! The concurrent octree's insertion build is lock-mediated and runs as its
//! own parallel region; what does tile is this phase
//! ([`Octree::begin_force_tasks`]), so under fused stepping a tile's closing
//! kick can start the moment its forces land.

use crate::scratch::TraversalScratch;
use crate::traverse::{Visitor, WalkNode};
use crate::tree::Octree;
use nbody_math::gravity::{multipole_accel, pair_accel};
use nbody_math::{
    mac_accepts, Aabb, AtomicF64, ForceTiles, InteractionLists, TreeView, Vec3, WalkMetrics,
};
use nbody_telemetry::{metrics, MacCounts};
use std::sync::atomic::Ordering;
use stdpar::prelude::*;

/// Re-export: shared force parameters (see [`nbody_math::gravity`]).
pub use nbody_math::gravity::ForceParams;
/// Re-export: exact `O(N²)` reference field.
pub use nbody_math::gravity::direct_accel;

/// Per-node second-moment columns (see `Octree::node_quad`).
type QuadColumns = [Vec<AtomicF64>; 6];

/// Node `i`'s central second moments out of the columns.
#[inline(always)]
fn load_quad(q: &QuadColumns, i: u32) -> [f64; 6] {
    // relaxed-ok: written by the multipole reduction, which joined before
    // any force walk starts.
    std::array::from_fn(|k| q[k][i as usize].load(Ordering::Relaxed))
}

impl Octree {
    /// Default blocked group size, picked from single-shot scalar runs
    /// before the SIMD kernel and the walk-order layout; the
    /// `octree.force_ms` / `octree.walk_ms_est` rows of
    /// `benchmark/README.md` are measured at it. It is not the optimum: on
    /// the walk-order layout, Plummer 16k at 2 threads, groups of 16–32 take
    /// the force phase from 43.9 to 39.6–40.2 ms and lower the force error
    /// from 9.4e-4 to 7.3e-4 … 5.9e-4, since a larger group box only opens
    /// more nodes (EXPERIMENTS.md "The octree in walk order"; changing it is
    /// ROADMAP item 5(a)). Resolved from the `ForceEval::Blocked { group: 0 }`
    /// auto sentinel by [`nbody_math::gravity::ForceEval::resolve_group`].
    pub const DEFAULT_BLOCK_GROUP: usize = 8;

    /// Compute gravitational accelerations for every body.
    ///
    /// `accel[i]` receives `a_i = G Σ_j m_j (x_j − x_i) / (r² + ε²)^{3/2}`,
    /// with far-field sums approximated by node multipoles under the
    /// acceptance criterion `s/d < θ` (s = cell width). Runs under any
    /// policy (the paper uses `par_unseq`: the tiles are independent and
    /// lock-free). `params.eval` selects one walk per body, or one walk per
    /// contiguous group of depth-first-ordered bodies.
    pub fn compute_forces<P: ExecutionPolicy>(
        &self,
        policy: P,
        positions: &[Vec3],
        masses: &[f64],
        accel: &mut [Vec3],
        params: &ForceParams,
    ) {
        let mut scratch = TraversalScratch::new();
        self.compute_forces_with(policy, positions, masses, accel, params, &mut scratch);
    }

    /// [`Octree::compute_forces`] borrowing caller-owned scratch: the
    /// blocked path draws its per-worker interaction lists from `scratch`
    /// instead of allocating per call (the per-body path needs no scratch).
    ///
    /// # Panics
    /// As [`Octree::begin_force_tasks`], before the parallel region starts.
    pub fn compute_forces_with<P: ExecutionPolicy>(
        &self,
        policy: P,
        positions: &[Vec3],
        masses: &[f64],
        accel: &mut [Vec3],
        params: &ForceParams,
        scratch: &mut TraversalScratch,
    ) {
        self.begin_force_tasks(positions, masses, accel, params, scratch).run_all(policy);
    }

    /// The force phase as independent tiles — one per body group (blocked)
    /// or per `par_grain` chunk (per-body) — for a fused step to run each
    /// with its closing kick, or [`Octree::compute_forces_with`] in one
    /// region. The one constructor behind both drivers: every precondition
    /// is checked here, before any region starts. The tree is only
    /// shared-borrowed.
    ///
    /// # Panics
    /// If `positions`, `masses` or `accel` do not hold one entry per built
    /// body, `params` asks for quadrupoles the tree did not compute, or
    /// [`Octree::compute_multipoles`] has not run since the last build.
    pub fn begin_force_tasks<'a>(
        &'a self,
        positions: &'a [Vec3],
        masses: &'a [f64],
        accel: &'a mut [Vec3],
        params: &ForceParams,
        scratch: &'a mut TraversalScratch,
    ) -> ForceTiles<'a, OctreeView<'a>> {
        assert!(self.moments_current, "multipoles not computed since build");
        assert_eq!(positions.len(), self.n_bodies(), "positions length changed since build");
        assert_eq!(masses.len(), positions.len(), "masses length mismatch");
        if params.use_quadrupole {
            assert!(self.quadrupole_enabled(), "quadrupole requested but not computed");
        }
        let group = params.eval.resolve_group(Self::DEFAULT_BLOCK_GROUP);
        let view = OctreeView { tree: self, positions, masses, order: &self.layout.order };
        ForceTiles::new(view, params, group, &mut scratch.lists, accel)
    }

    /// Acceleration felt at point `p`, excluding body `exclude` (and its
    /// exact self-interaction) if given. This is the per-element kernel of
    /// [`Octree::compute_forces`], public for tests and probes.
    ///
    /// # Panics
    /// If [`Octree::compute_multipoles`] has not run since the last build.
    pub fn accel_at(
        &self,
        p: Vec3,
        exclude: Option<u32>,
        positions: &[Vec3],
        masses: &[f64],
        params: &ForceParams,
    ) -> Vec3 {
        assert!(self.moments_current, "multipoles not computed since build");
        let mut mac = MacCounts::default();
        let a = self.accel_at_counted(p, exclude, positions, masses, params, &mut mac);
        mac.flush(&metrics::OCTREE_MAC_ACCEPTS, &metrics::OCTREE_MAC_OPENS);
        a
    }

    /// [`Octree::accel_at`] with MAC accept/open decisions tallied into
    /// `mac` (plain locals — the caller batches chunks of bodies and
    /// flushes once, keeping atomics off the per-node hot path).
    fn accel_at_counted(
        &self,
        p: Vec3,
        exclude: Option<u32>,
        positions: &[Vec3],
        masses: &[f64],
        params: &ForceParams,
        mac: &mut MacCounts,
    ) -> Vec3 {
        let mut v = AccelAt {
            p,
            exclude,
            positions,
            masses,
            theta2: params.theta * params.theta,
            eps2: params.softening * params.softening,
            pad: params.mac_pad,
            // Resolve the quadrupole source once, outside the walk.
            quads: if params.use_quadrupole { self.node_quad.as_ref() } else { None },
            acc: Vec3::ZERO,
            mac: MacCounts::default(),
        };
        self.walk(&mut v);
        mac.accepts += v.mac.accepts;
        mac.opens += v.mac.opens;
        v.acc * params.g
    }
}

/// Per-body accumulation. G is hoisted: terms accumulate unscaled and the
/// single multiply happens once at exit. The MAC tally is the visitor's own
/// (registers for the whole walk), folded into the caller's at exit.
struct AccelAt<'a> {
    p: Vec3,
    exclude: Option<u32>,
    positions: &'a [Vec3],
    masses: &'a [f64],
    theta2: f64,
    eps2: f64,
    pad: f64,
    quads: Option<&'a QuadColumns>,
    acc: Vec3,
    mac: MacCounts,
}

impl Visitor for AccelAt<'_> {
    #[inline(always)]
    fn open(&mut self, node: &WalkNode) -> bool {
        let d = node.com - self.p;
        if mac_accepts(node.width * node.width, d.norm2(), self.theta2, self.pad) {
            // Far node: accept the multipole approximation.
            self.mac.accepts += 1;
            let quad = self.quads.map(|q| load_quad(q, node.slot));
            self.acc += multipole_accel(d, node.mass, quad.as_ref(), 1.0, self.eps2);
            false
        } else {
            self.mac.opens += 1;
            true
        }
    }

    /// Exact pair-wise interactions at leaf nodes.
    #[inline(always)]
    fn leaf(&mut self, b: u32) {
        if Some(b) != self.exclude {
            let b = b as usize;
            self.acc += pair_accel(self.positions[b] - self.p, self.masses[b], 1.0, self.eps2);
        }
    }
}

/// Group gather: the point distance `|com − p|²` of [`AccelAt`] replaced by
/// the conservative distance from the node's centre of mass to the group
/// box.
struct Gather<'a> {
    gbox: Aabb,
    positions: &'a [Vec3],
    masses: &'a [f64],
    theta2: f64,
    pad: f64,
    quads: Option<&'a QuadColumns>,
    lists: &'a mut InteractionLists,
    mac: &'a mut MacCounts,
}

impl Visitor for Gather<'_> {
    #[inline(always)]
    fn open(&mut self, node: &WalkNode) -> bool {
        let d2 = self.gbox.distance2_to_point(node.com);
        if mac_accepts(node.width * node.width, d2, self.theta2, self.pad) {
            self.mac.accepts += 1;
            let quad = self.quads.map(|q| load_quad(q, node.slot));
            self.lists.push_node(node.com, node.mass, quad);
            false
        } else {
            self.mac.opens += 1;
            true
        }
    }

    #[inline(always)]
    fn leaf(&mut self, b: u32) {
        self.lists.push_body(self.positions[b as usize], self.masses[b as usize]);
    }
}

/// A built [`Octree`] with the body arrays it indexes, as the shared
/// force-tile body sees it: walk order is the tree's depth-first leaf order.
pub struct OctreeView<'a> {
    tree: &'a Octree,
    positions: &'a [Vec3],
    masses: &'a [f64],
    /// The tree's depth-first body order (the blocked path's grouping key;
    /// the per-body path chunks original indices and never reads it).
    order: &'a [u32],
}

impl TreeView for OctreeView<'_> {
    fn n_bodies(&self) -> usize {
        self.tree.n_bodies()
    }

    #[inline]
    fn target(&self, j: usize) -> (Vec3, usize) {
        let b = self.order[j] as usize;
        (self.positions[b], b)
    }

    fn gather(
        &self,
        gbox: Aabb,
        theta2: f64,
        pad: f64,
        want_quad: bool,
        lists: &mut InteractionLists,
        mac: &mut MacCounts,
    ) {
        let &OctreeView { tree, positions, masses, .. } = self;
        let quads = if want_quad { tree.node_quad.as_ref() } else { None };
        tree.walk(&mut Gather { gbox, positions, masses, theta2, pad, quads, lists, mac });
    }

    #[inline]
    fn accel_one(&self, b: usize, params: &ForceParams, mac: &mut MacCounts) -> Vec3 {
        let p = self.positions[b];
        self.tree.accel_at_counted(p, Some(b as u32), self.positions, self.masses, params, mac)
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

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_math::{Aabb, SplitMix64};

    fn random_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut r = SplitMix64::new(seed);
        let pos = (0..n)
            .map(|_| Vec3::new(r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)))
            .collect();
        let mass = (0..n).map(|_| r.uniform(0.5, 2.0)).collect();
        (pos, mass)
    }

    fn built(pos: &[Vec3], mass: &[f64], quad: bool) -> Octree {
        let mut t = Octree::new();
        t.set_quadrupole(quad);
        t.build(Par, pos, Aabb::from_points(pos)).unwrap();
        t.compute_multipoles(Par, pos, mass);
        t
    }

    #[test]
    fn theta_zero_matches_direct_sum() {
        let (pos, mass) = random_system(300, 31);
        let t = built(&pos, &mass, false);
        let params = ForceParams { theta: 0.0, ..ForceParams::default() };
        let mut acc = vec![Vec3::ZERO; pos.len()];
        t.compute_forces(ParUnseq, &pos, &mass, &mut acc, &params);
        for (b, &a) in acc.iter().enumerate() {
            let exact = direct_accel(pos[b], Some(b as u32), &pos, &mass, 1.0, 0.0);
            assert!(
                (a - exact).norm() <= 1e-10 * (1.0 + exact.norm()),
                "body {b}: {a:?} vs {exact:?}"
            );
        }
    }

    #[test]
    fn theta_half_error_is_small() {
        let (pos, mass) = random_system(1000, 32);
        let t = built(&pos, &mass, false);
        let params = ForceParams { theta: 0.5, ..ForceParams::default() };
        let mut acc = vec![Vec3::ZERO; pos.len()];
        t.compute_forces(ParUnseq, &pos, &mass, &mut acc, &params);
        let mut rel = 0.0f64;
        for (b, &a) in acc.iter().enumerate() {
            let exact = direct_accel(pos[b], Some(b as u32), &pos, &mass, 1.0, 0.0);
            rel = rel.max((a - exact).norm() / (1e-12 + exact.norm()));
        }
        assert!(rel < 0.05, "max relative error {rel}");
    }

    #[test]
    fn error_is_monotone_in_theta_on_average() {
        let (pos, mass) = random_system(800, 33);
        let t = built(&pos, &mass, false);
        let mut errors = vec![];
        for theta in [0.2, 0.5, 1.0] {
            let params = ForceParams { theta, ..ForceParams::default() };
            let mut acc = vec![Vec3::ZERO; pos.len()];
            t.compute_forces(ParUnseq, &pos, &mass, &mut acc, &params);
            let mut total = 0.0;
            for (b, &a) in acc.iter().enumerate() {
                let exact = direct_accel(pos[b], Some(b as u32), &pos, &mass, 1.0, 0.0);
                total += (a - exact).norm() / (1e-12 + exact.norm());
            }
            errors.push(total / pos.len() as f64);
        }
        assert!(errors[0] <= errors[1] && errors[1] <= errors[2], "{errors:?}");
    }

    #[test]
    fn quadrupole_reduces_error() {
        let (pos, mass) = random_system(600, 34);
        let t = built(&pos, &mass, true);
        let mono = ForceParams { theta: 0.8, ..ForceParams::default() };
        let quad = ForceParams { theta: 0.8, use_quadrupole: true, ..ForceParams::default() };
        let mut am = vec![Vec3::ZERO; pos.len()];
        let mut aq = vec![Vec3::ZERO; pos.len()];
        t.compute_forces(ParUnseq, &pos, &mass, &mut am, &mono);
        t.compute_forces(ParUnseq, &pos, &mass, &mut aq, &quad);
        let (mut em, mut eq) = (0.0, 0.0);
        for b in 0..pos.len() {
            let exact = direct_accel(pos[b], Some(b as u32), &pos, &mass, 1.0, 0.0);
            em += (am[b] - exact).norm() / (1e-12 + exact.norm());
            eq += (aq[b] - exact).norm() / (1e-12 + exact.norm());
        }
        assert!(
            eq < em * 0.8,
            "quadrupole ({}) should beat monopole ({}) by a clear margin",
            eq / pos.len() as f64,
            em / pos.len() as f64
        );
    }

    #[test]
    fn two_body_force_is_newtonian() {
        let pos = vec![Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0)];
        let mass = vec![3.0, 5.0];
        let t = built(&pos, &mass, false);
        let params = ForceParams { theta: 0.5, g: 2.0, ..ForceParams::default() };
        let mut acc = vec![Vec3::ZERO; 2];
        t.compute_forces(Par, &pos, &mass, &mut acc, &params);
        // a_0 = G m_1 / r² toward +x.
        assert!((acc[0] - Vec3::new(2.0 * 5.0 / 4.0, 0.0, 0.0)).norm() < 1e-12);
        assert!((acc[1] - Vec3::new(-2.0 * 3.0 / 4.0, 0.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn softening_caps_close_encounters() {
        let pos = vec![Vec3::ZERO, Vec3::new(1e-9, 0.0, 0.0)];
        let mass = vec![1.0, 1.0];
        let t = built(&pos, &mass, false);
        let params = ForceParams { theta: 0.5, softening: 0.1, ..ForceParams::default() };
        let mut acc = vec![Vec3::ZERO; 2];
        t.compute_forces(Par, &pos, &mass, &mut acc, &params);
        // With ε = 0.1 the acceleration magnitude is bounded near m/ε².
        assert!(acc[0].norm() < 1.0 / (0.1f64 * 0.1), "{:?}", acc[0]);
        assert!(acc[0].is_finite() && acc[1].is_finite());
    }

    #[test]
    fn colocated_bodies_do_not_blow_up_with_softening() {
        let p = Vec3::new(0.2, 0.2, 0.2);
        let pos = vec![p, p, Vec3::new(-0.7, 0.1, 0.0)];
        let mass = vec![1.0, 1.0, 1.0];
        let t = built(&pos, &mass, false);
        let params = ForceParams { theta: 0.5, softening: 0.05, ..ForceParams::default() };
        let mut acc = vec![Vec3::ZERO; 3];
        t.compute_forces(Par, &pos, &mass, &mut acc, &params);
        assert!(acc.iter().all(|a| a.is_finite()));
        // The two co-located bodies feel identical acceleration from body 2
        // and zero from each other (r = 0 ⇒ zero-numerator guard).
        assert!((acc[0] - acc[1]).norm() < 1e-12);
    }

    #[test]
    fn exclude_none_includes_all_bodies() {
        let (pos, mass) = random_system(50, 35);
        let t = built(&pos, &mass, false);
        let params = ForceParams { theta: 0.0, ..ForceParams::default() };
        let probe = Vec3::new(5.0, 5.0, 5.0); // outside the cluster
        let got = t.accel_at(probe, None, &pos, &mass, &params);
        let exact = direct_accel(probe, None, &pos, &mass, 1.0, 0.0);
        assert!((got - exact).norm() < 1e-10);
    }

    #[test]
    fn policies_agree_bitwise_for_fixed_tree() {
        // The traversal is deterministic per body once the tree is fixed.
        let (pos, mass) = random_system(400, 36);
        let t = built(&pos, &mass, false);
        let params = ForceParams::default();
        let mut a1 = vec![Vec3::ZERO; pos.len()];
        let mut a2 = vec![Vec3::ZERO; pos.len()];
        t.compute_forces(Seq, &pos, &mass, &mut a1, &params);
        t.compute_forces(ParUnseq, &pos, &mass, &mut a2, &params);
        assert_eq!(a1, a2);
    }
}
