//! CALCULATEFORCE for the BVH (paper §IV-B.3).
//!
//! Two visitors on the crate's one stackless walk ([`Bvh::walk`]): the
//! per-body accumulation behind [`Bvh::accel_at`], and the group gather
//! that fills the flat interaction lists of the blocked path. BVH bounding
//! boxes may be elongated and overlap, so the node size in the acceptance
//! criterion is the **box diagonal**, compared against the distance to the
//! *box* — which makes θ mean something slightly different (and slightly
//! more conservative) than for the octree.
//!
//! Everything around the walk — tiles, group boxes, per-worker lists,
//! kernels, telemetry, the two executors — is [`nbody_math::tiles`], shared
//! with the octree; this module only says what a BVH looks like to it
//! ([`BvhView`]). On the blocked path a tile is a contiguous run of the
//! Hilbert-sorted order: sorting already places spatially adjacent bodies in
//! adjacent leaves, so such a run occupies a small box, and one walk per run
//! tests the criterion against that box with the conservative box-to-box
//! distance [`Aabb::distance2_to_box`] (Tokuue & Ishiyama's
//! interaction-list batching).

use crate::build::Bvh;
use crate::scratch::BvhScratch;
use crate::traverse::Visitor;
use nbody_math::gravity::{multipole_accel, pair_accel, ForceParams};
use nbody_math::{mac_accepts, Aabb, ForceTiles, InteractionLists, TreeView, Vec3, WalkMetrics};
use nbody_telemetry::{metrics, MacCounts};
use stdpar::prelude::*;

impl Bvh {
    /// Default blocked group size: the measured optimum for the BVH's tight
    /// Hilbert-run boxes (the `bvh.force_ms` / `bvh.walk_ms_est` rows of the
    /// per-layer table in `benchmark/README.md` are measured at it).
    /// Resolved from the `ForceEval::Blocked { group: 0 }` auto sentinel by
    /// [`nbody_math::gravity::ForceEval::resolve_group`].
    pub const DEFAULT_BLOCK_GROUP: usize = 32;

    /// Compute gravitational accelerations for every body (original order).
    ///
    /// `positions` must be the same array the tree was sorted from. Every
    /// tile is independent and lock-free, so all policies — including
    /// `par_unseq` — are valid (the whole point of the BVH strategy: it
    /// only needs weakly parallel forward progress).
    ///
    /// `params.eval` selects the traversal: one walk per body, or one walk
    /// per contiguous group of Hilbert-sorted bodies with shared SoA
    /// interaction lists.
    pub fn compute_forces<P: ExecutionPolicy>(
        &self,
        policy: P,
        positions: &[Vec3],
        accel: &mut [Vec3],
        params: &ForceParams,
    ) {
        let mut scratch = BvhScratch::new();
        self.compute_forces_with(policy, positions, accel, params, &mut scratch);
    }

    /// [`Bvh::compute_forces`] borrowing caller-owned scratch: the blocked
    /// path draws its per-worker interaction lists from `scratch` instead
    /// of allocating per group (the per-body path needs no scratch).
    ///
    /// # Panics
    /// As [`Bvh::begin_force_tasks`], before the parallel region starts.
    pub fn compute_forces_with<P: ExecutionPolicy>(
        &self,
        policy: P,
        positions: &[Vec3],
        accel: &mut [Vec3],
        params: &ForceParams,
        scratch: &mut BvhScratch,
    ) {
        self.begin_force_tasks(positions, accel, params, scratch).run_all(policy);
    }

    /// The force phase as independent tiles — one per body group (blocked)
    /// or per `par_grain` chunk (per-body) — for a fused step to run each
    /// with its closing kick, or [`Bvh::compute_forces_with`] in one
    /// region. The one constructor behind both drivers: every precondition
    /// is checked here, before any region starts. The tree is only
    /// shared-borrowed.
    ///
    /// # Panics
    /// If the moments were not accumulated since the last sort or build,
    /// `positions` or `accel` do not hold one entry per sorted body, or
    /// `params` asks for quadrupoles the tree did not accumulate.
    pub fn begin_force_tasks<'a>(
        &'a self,
        positions: &'a [Vec3],
        accel: &'a mut [Vec3],
        params: &ForceParams,
        scratch: &'a mut BvhScratch,
    ) -> ForceTiles<'a, BvhView<'a>> {
        assert!(self.moments_current, "moments not accumulated since sort or build");
        assert_eq!(positions.len(), self.n_bodies(), "positions length changed since sort");
        if params.use_quadrupole {
            assert!(self.quad.is_some(), "quadrupole requested but not accumulated");
        }
        let group = params.eval.resolve_group(Self::DEFAULT_BLOCK_GROUP);
        ForceTiles::new(BvhView { bvh: self, positions }, params, group, &mut scratch.lists, accel)
    }

    /// Acceleration at point `p`, excluding original body `exclude` if given.
    ///
    /// # Panics
    /// If the moments were not accumulated since the last sort or build.
    pub fn accel_at(&self, p: Vec3, exclude: Option<u32>, params: &ForceParams) -> Vec3 {
        assert!(self.moments_current, "moments not accumulated since sort or build");
        let mut mac = MacCounts::default();
        let a = self.accel_at_counted(p, exclude, params, &mut mac);
        mac.flush(&metrics::BVH_MAC_ACCEPTS, &metrics::BVH_MAC_OPENS);
        a
    }

    /// [`Bvh::accel_at`] with MAC accept/open decisions tallied into `mac`
    /// (plain locals — callers batch bodies and flush once per chunk).
    fn accel_at_counted(
        &self,
        p: Vec3,
        exclude: Option<u32>,
        params: &ForceParams,
        mac: &mut MacCounts,
    ) -> Vec3 {
        let mut v = AccelAt {
            bvh: self,
            p,
            exclude,
            theta2: params.theta * params.theta,
            eps2: params.softening * params.softening,
            pad: params.mac_pad,
            // Resolve the quadrupole source once, outside the walk.
            quad: if params.use_quadrupole { self.quad.as_deref() } else { None },
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
    bvh: &'a Bvh,
    p: Vec3,
    exclude: Option<u32>,
    theta2: f64,
    eps2: f64,
    pad: f64,
    quad: Option<&'a [[f64; 6]]>,
    acc: Vec3,
    mac: MacCounts,
}

impl Visitor for AccelAt<'_> {
    #[inline(always)]
    fn open(&mut self, i: usize, m: f64) -> bool {
        let b = self.bvh;
        let d = b.com[i] - self.p;
        // Node size: the box diagonal (boxes may be elongated, hence the
        // precomputed `diag2`), compared against the distance to the *box*
        // rather than to the COM — elongated, overlapping BVH boxes can
        // reach much closer to the body than their COM does.
        let d2 = b.boxes[i].distance2_to_point(self.p);
        if mac_accepts(b.diag2[i], d2, self.theta2, self.pad) {
            self.mac.accepts += 1;
            self.acc += multipole_accel(d, m, self.quad.map(|q| &q[i]), 1.0, self.eps2);
            false
        } else {
            self.mac.opens += 1;
            true
        }
    }

    /// Exact pair-wise interaction at leaf nodes.
    #[inline(always)]
    fn leaf(&mut self, j: usize) {
        let b = self.bvh;
        if Some(b.perm[j]) != self.exclude {
            self.acc += pair_accel(b.sorted_pos[j] - self.p, b.sorted_mass[j], 1.0, self.eps2);
        }
    }
}

/// Group gather: the point-to-box distance of [`AccelAt`] replaced by the
/// conservative box-to-box distance.
struct Gather<'a> {
    bvh: &'a Bvh,
    gbox: Aabb,
    theta2: f64,
    pad: f64,
    quad: Option<&'a [[f64; 6]]>,
    lists: &'a mut InteractionLists,
    mac: &'a mut MacCounts,
}

impl Visitor for Gather<'_> {
    #[inline(always)]
    fn open(&mut self, i: usize, m: f64) -> bool {
        let b = self.bvh;
        let d2 = b.boxes[i].distance2_to_box(self.gbox);
        if mac_accepts(b.diag2[i], d2, self.theta2, self.pad) {
            self.mac.accepts += 1;
            self.lists.push_node(b.com[i], m, self.quad.map(|q| q[i]));
            false
        } else {
            self.mac.opens += 1;
            true
        }
    }

    #[inline(always)]
    fn leaf(&mut self, j: usize) {
        self.lists.push_body(self.bvh.sorted_pos[j], self.bvh.sorted_mass[j]);
    }
}

/// A built [`Bvh`] as the shared force-tile body sees it: walk order is the
/// Hilbert-sorted order.
pub struct BvhView<'a> {
    bvh: &'a Bvh,
    /// Current positions in original order (the per-body path's targets;
    /// on a stale tree they differ from the sorted copy).
    positions: &'a [Vec3],
}

impl TreeView for BvhView<'_> {
    fn n_bodies(&self) -> usize {
        self.bvh.n_bodies()
    }

    #[inline]
    fn target(&self, j: usize) -> (Vec3, usize) {
        (self.bvh.sorted_pos[j], self.bvh.perm[j] as usize)
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
        let bvh = self.bvh;
        let quad = if want_quad { bvh.quad.as_deref() } else { None };
        bvh.walk(&mut Gather { bvh, gbox, theta2, pad, quad, lists, mac });
    }

    #[inline]
    fn accel_one(&self, b: usize, params: &ForceParams, mac: &mut MacCounts) -> Vec3 {
        self.bvh.accel_at_counted(self.positions[b], Some(b as u32), params, mac)
    }

    #[inline]
    fn metrics(&self) -> WalkMetrics {
        WalkMetrics {
            mac_accepts: &metrics::BVH_MAC_ACCEPTS,
            mac_opens: &metrics::BVH_MAC_OPENS,
            list_bodies: &metrics::BVH_LIST_BODIES,
            list_nodes: &metrics::BVH_LIST_NODES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_math::gravity::direct_accel;
    use nbody_math::{Aabb, SplitMix64};

    fn random_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut r = SplitMix64::new(seed);
        let pos = (0..n)
            .map(|_| Vec3::new(r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)))
            .collect();
        let mass = (0..n).map(|_| r.uniform(0.5, 2.0)).collect();
        (pos, mass)
    }

    fn built(pos: &[Vec3], mass: &[f64], quad: bool) -> Bvh {
        let mut b = Bvh::with_params(crate::BvhParams { quadrupole: quad, ..Default::default() });
        b.hilbert_sort(ParUnseq, pos, mass, Aabb::from_points(pos));
        b.build_and_accumulate(ParUnseq);
        b
    }

    #[test]
    fn theta_zero_matches_direct_sum() {
        let (pos, mass) = random_system(300, 81);
        let b = built(&pos, &mass, false);
        let params = ForceParams { theta: 0.0, ..ForceParams::default() };
        let mut acc = vec![Vec3::ZERO; pos.len()];
        b.compute_forces(ParUnseq, &pos, &mut acc, &params);
        for (i, &a) in acc.iter().enumerate() {
            let exact = direct_accel(pos[i], Some(i as u32), &pos, &mass, 1.0, 0.0);
            assert!(
                (a - exact).norm() <= 1e-10 * (1.0 + exact.norm()),
                "body {i}: {a:?} vs {exact:?}"
            );
        }
    }

    #[test]
    fn theta_half_error_is_small() {
        let (pos, mass) = random_system(1000, 82);
        let b = built(&pos, &mass, false);
        let params = ForceParams { theta: 0.5, ..ForceParams::default() };
        let mut acc = vec![Vec3::ZERO; pos.len()];
        b.compute_forces(ParUnseq, &pos, &mut acc, &params);
        let mut max_rel = 0.0f64;
        let mut mean_rel = 0.0f64;
        for (i, &a) in acc.iter().enumerate() {
            let exact = direct_accel(pos[i], Some(i as u32), &pos, &mass, 1.0, 0.0);
            let r = (a - exact).norm() / (1e-12 + exact.norm());
            max_rel = max_rel.max(r);
            mean_rel += r;
        }
        mean_rel /= pos.len() as f64;
        // The max is dominated by bodies whose exact force nearly cancels
        // (tiny denominator), so bound the mean tightly and the max loosely.
        assert!(mean_rel < 0.01, "mean relative error {mean_rel}");
        assert!(max_rel < 0.15, "max relative error {max_rel}");
    }

    #[test]
    fn bvh_is_more_accurate_than_octree_criterion_at_same_theta() {
        // Not a strict theorem, but on random clouds the diagonal-based MAC
        // must open at least as many nodes as a width-based MAC would, so
        // the error should be no larger than the coarse θ=1.2 budget.
        let (pos, mass) = random_system(500, 83);
        let b = built(&pos, &mass, false);
        let params = ForceParams { theta: 1.2, ..ForceParams::default() };
        let mut acc = vec![Vec3::ZERO; pos.len()];
        b.compute_forces(ParUnseq, &pos, &mut acc, &params);
        let mut mean = 0.0;
        for (i, &a) in acc.iter().enumerate() {
            let exact = direct_accel(pos[i], Some(i as u32), &pos, &mass, 1.0, 0.0);
            mean += (a - exact).norm() / (1e-12 + exact.norm());
        }
        mean /= pos.len() as f64;
        assert!(mean < 0.05, "mean relative error {mean}");
    }

    #[test]
    fn quadrupole_reduces_error() {
        let (pos, mass) = random_system(600, 84);
        let b = built(&pos, &mass, true);
        let mono = ForceParams { theta: 0.9, ..ForceParams::default() };
        let quad = ForceParams { theta: 0.9, use_quadrupole: true, ..ForceParams::default() };
        let mut am = vec![Vec3::ZERO; pos.len()];
        let mut aq = vec![Vec3::ZERO; pos.len()];
        b.compute_forces(ParUnseq, &pos, &mut am, &mono);
        b.compute_forces(ParUnseq, &pos, &mut aq, &quad);
        let (mut em, mut eq) = (0.0, 0.0);
        for i in 0..pos.len() {
            let exact = direct_accel(pos[i], Some(i as u32), &pos, &mass, 1.0, 0.0);
            em += (am[i] - exact).norm() / (1e-12 + exact.norm());
            eq += (aq[i] - exact).norm() / (1e-12 + exact.norm());
        }
        assert!(eq < em, "quad {eq} vs mono {em}");
    }

    #[test]
    fn two_body_force_is_newtonian() {
        let pos = vec![Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0)];
        let mass = vec![3.0, 5.0];
        let b = built(&pos, &mass, false);
        let params = ForceParams { theta: 0.5, g: 2.0, ..ForceParams::default() };
        let mut acc = vec![Vec3::ZERO; 2];
        b.compute_forces(Par, &pos, &mut acc, &params);
        assert!((acc[0] - Vec3::new(2.0 * 5.0 / 4.0, 0.0, 0.0)).norm() < 1e-12);
        assert!((acc[1] - Vec3::new(-2.0 * 3.0 / 4.0, 0.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn duplicate_positions_are_finite() {
        let p = Vec3::new(0.2, 0.2, 0.2);
        let pos = vec![p, p, Vec3::new(-0.7, 0.1, 0.0)];
        let mass = vec![1.0, 1.0, 1.0];
        let b = built(&pos, &mass, false);
        let params = ForceParams { theta: 0.5, ..ForceParams::default() };
        let mut acc = vec![Vec3::ZERO; 3];
        b.compute_forces(Par, &pos, &mut acc, &params);
        assert!(acc.iter().all(|a| a.is_finite()));
        assert!((acc[0] - acc[1]).norm() < 1e-12);
    }

    #[test]
    fn policies_and_backends_agree_bitwise() {
        let (pos, mass) = random_system(400, 85);
        let b = built(&pos, &mass, false);
        let params = ForceParams::default();
        let mut reference: Option<Vec<Vec3>> = None;
        for backend in Backend::ALL {
            with_backend(backend, || {
                let mut a = vec![Vec3::ZERO; pos.len()];
                b.compute_forces(ParUnseq, &pos, &mut a, &params);
                match &reference {
                    None => reference = Some(a),
                    Some(r) => assert_eq!(r, &a),
                }
            });
        }
        let mut seq = vec![Vec3::ZERO; pos.len()];
        b.compute_forces(Seq, &pos, &mut seq, &params);
        assert_eq!(reference.unwrap(), seq);
    }

    #[test]
    fn probe_outside_cluster() {
        let (pos, mass) = random_system(64, 86);
        let b = built(&pos, &mass, false);
        let probe = Vec3::new(10.0, 0.0, 0.0);
        let got = b.accel_at(probe, None, &ForceParams { theta: 0.5, ..Default::default() });
        let exact = direct_accel(probe, None, &pos, &mass, 1.0, 0.0);
        // Monopole truncation error scales like (cluster size / distance)²,
        // so a couple of percent is the right budget here.
        assert!((got - exact).norm() < 2e-2 * exact.norm());
    }
}
