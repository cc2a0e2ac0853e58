//! CALCULATEFORCE, written once for both trees: the acceptance criterion,
//! the four visitors that run on a tree's walk, and the force phase as
//! independent tiles.
//!
//! The paper's two CALCULATEFORCE walks (§IV-A.3, §IV-B.3) differ only in
//! the node size and the distance the MAC compares. So a tree crate
//! contributes a [`TreeView`] — its one stackless walk (reporting each
//! entry's depth), its node geometry (a [`Node`]: size², distance² to a
//! point, to eight points in lanes, to a group box and to eight group boxes
//! in lanes, centre of mass, mass, quadrupole), how a leaf entry names a
//! body (position, mass, original id, handed to [`Visitor::leaf`]), the
//! order its bodies are grouped in, and its four metric handles — and
//! everything else lives here: [`mac_accepts`], the per-body point query
//! and bitwise oracle ([`accel_at_counted`]), the per-body packet walk
//! ([`accel_packets`]), the group gather's bitwise oracle ([`gather`]), the
//! group gather in packets ([`gather_packet`]) and [`ForceTiles`], which
//! owns the partition of the bodies into tiles, the blocked tile body (a
//! packet of up to [`PACKET`] groups: group boxes → worker slot → one
//! packet gather → MAC flush → per group: its lists copied out of the
//! packet's → list histograms → scalar/SIMD kernel → scatter) and the
//! per-body tile body (packets of eight bodies). The force region
//! ([`ForceTiles::run_all`]) and any other partition of the tiles over
//! workers call the same function ([`ForceTiles::run_range`]) on the same
//! ranges, so their accelerations are bitwise equal by construction, on
//! every policy, backend and schedule.
//!
//! Tiles are fixed contiguous runs of the view's grouping order on both
//! paths: the decomposition depends on neither the policy nor the schedule,
//! each tile writes its own output slots and uses only its worker's lists —
//! no locks, no waiting — so the phase is valid under `par_unseq`.

use crate::gravity::{multipole_accel, pair_accel, ForceKernel, ForceParams};
use crate::interaction::{InteractionLists, KernelStats, ListsPool, PacketLists, WorkerKernelState};
use crate::simd::{f64x4, simd_level, Simd, SimdLevel, X2};
use crate::{Aabb, Vec3};
use nbody_telemetry::{record, Counter, Histogram, MacCounts};
use std::ops::Range;
use stdpar::backend::{max_workers, thread_count, with_threads};
use stdpar::prelude::*;

/// Drift-inflated multipole acceptance test.
///
/// With `pad == 0` this is the classic squared comparison `s² < θ²·d²`.
/// With `pad > 0` (stale-tree steps) both sides are padded conservatively:
/// the node size `s` grows by `2·pad` (every source body may have drifted
/// up to `pad` from the position the tree recorded) and the distance `d`
/// shrinks by `2·pad` (the target and the node may have drifted toward
/// each other), so acceptance implies the *true* geometry still satisfies
/// the θ criterion: `(s + 2·pad) < θ·(d − 2·pad)`.
///
/// `#[inline(always)]`: sits on the MAC hot path of both force visitors;
/// the `pad > 0` branch is perfectly predictable within a step.
#[inline(always)]
pub fn mac_accepts(s2: f64, d2: f64, theta2: f64, pad: f64) -> bool {
    if pad > 0.0 {
        let d = d2.sqrt() - 2.0 * pad;
        if d <= 0.0 {
            return false;
        }
        let s = s2.sqrt() + 2.0 * pad;
        s * s < theta2 * d * d
    } else {
        s2 < theta2 * d2
    }
}

/// [`mac_accepts`] in every lane of `d2` as a lane bitmask, with the same
/// IEEE ops. A `d ≤ 0` or NaN `d` lane fails the ordered `0 < d`.
#[inline(always)]
pub(crate) fn mac_accepts_lanes<S: Simd<Elem = f64>>(s2: f64, d2: S, theta2: f64, pad: f64) -> u32 {
    if pad > 0.0 {
        let d = d2.sqrt().sub(S::splat(2.0 * pad));
        let s = s2.sqrt() + 2.0 * pad;
        S::zero().lt(d) & S::splat(s * s).lt(S::splat(theta2).mul(d).mul(d))
    } else {
        S::splat(s2).lt(S::splat(theta2).mul(d2))
    }
}

/// An internal node as the MAC sees it: the three geometric questions the
/// criterion asks, and what an accepted node contributes.
pub trait Node {
    /// Node size²: the octree's cell width², the BVH's box diagonal².
    fn size2(&self) -> f64;
    /// Distance² to a body at `p` (the per-body MAC): octree `|com − p|²`,
    /// BVH `d²(box, p)`.
    fn distance2_to_point(&self, p: Vec3) -> f64;
    /// [`Node::distance2_to_point`] of the packet walk's lanes `p`, same ops.
    fn distance2_to_points<S: Simd<Elem = f64>>(&self, p: &[S; 3]) -> S;
    /// Distance² to a group box, at most every member's distance (the
    /// group MAC): octree `d²(gbox, com)`, BVH `d²(box, gbox)`.
    fn distance2_to_box(&self, gbox: Aabb) -> f64;
    /// [`Node::distance2_to_box`] of the packet gather's lane boxes (corners
    /// `lo`, `hi`), with [`Node::distance2_to_points`]' lane `max` operand
    /// order, same ops.
    fn distance2_to_boxes<S: Simd<Elem = f64>>(&self, lo: &[S; 3], hi: &[S; 3]) -> S;
    fn com(&self) -> Vec3;
    fn mass(&self) -> f64;
    /// Central second moments (xx, xy, xz, yy, yz, zz), if the tree
    /// accumulated them.
    fn quad(&self) -> Option<[f64; 6]>;
}

/// What a tree's walk does at the entries it reaches, at their depth (the
/// root's is 0; only the packet walk reads it). Empty subtrees are skipped
/// before either method is called.
///
/// All implementations below mark their methods `#[inline(always)]`, and a
/// walk calls each from exactly one site, so the visitor's state stays in
/// registers across the whole traversal instead of living behind an
/// outlined call.
pub trait Visitor<N> {
    /// An internal node: `true` opens it (the walk descends into its
    /// children), `false` moves on past its subtree.
    fn open(&mut self, node: &N, depth: u32) -> bool;

    /// A body of an opened leaf: its position, mass and original id.
    fn leaf(&mut self, p: Vec3, m: f64, id: u32, depth: u32);
}

/// The telemetry a tree's force walk records into.
pub struct WalkMetrics {
    pub mac_accepts: &'static Counter,
    pub mac_opens: &'static Counter,
    pub list_bodies: &'static Histogram,
    pub list_nodes: &'static Histogram,
}

/// What a tree contributes to CALCULATEFORCE: a built tree together with
/// the body arrays its leaves name.
pub trait TreeView: Sync {
    /// The node type the walk hands to [`Visitor::open`].
    type Node: Node;

    /// Bodies in the tree.
    fn n_bodies(&self) -> usize;

    /// Position and output slot (original body index) of the `j`-th body in
    /// grouping order. Over `0..n_bodies()` the slots are a permutation.
    fn target(&self, j: usize) -> (Vec3, usize);

    /// The tree's one stackless depth-first walk. `#[inline(always)]` in
    /// both trees.
    fn walk(&self, v: &mut impl Visitor<Self::Node>);

    /// Where this tree's walks are counted.
    fn metrics(&self) -> WalkMetrics;
}

/// Acceleration at point `p`, excluding original body `exclude` (and its
/// exact self-interaction) if given: one walk, MAC decisions flushed into
/// the tree's counters.
pub fn accel_at<V: TreeView>(
    view: &V,
    p: Vec3,
    exclude: Option<u32>,
    params: &ForceParams,
) -> Vec3 {
    let mut mac = MacCounts::default();
    let a = accel_at_counted(view, p, exclude, params, &mut mac);
    let metrics = view.metrics();
    mac.flush(metrics.mac_accepts, metrics.mac_opens);
    a
}

/// [`accel_at`] with MAC accept/open decisions tallied into `mac`: the
/// scalar walk the packet walk ([`accel_packets`]) is bitwise equal to.
#[inline(never)]
pub fn accel_at_counted<V: TreeView>(
    view: &V,
    p: Vec3,
    exclude: Option<u32>,
    params: &ForceParams,
    mac: &mut MacCounts,
) -> Vec3 {
    let mut v = AccelAt {
        p,
        exclude,
        theta2: params.theta * params.theta,
        eps2: params.softening * params.softening,
        pad: params.mac_pad,
        quad: params.use_quadrupole,
        acc: Vec3::ZERO,
        mac: MacCounts::default(),
    };
    view.walk(&mut v);
    mac.accepts += v.mac.accepts;
    mac.opens += v.mac.opens;
    v.acc * params.g
}

/// One walk collecting the interaction lists of a group box: a node
/// accepted for `gbox` (by the conservative box distance) is accepted for
/// every point inside it. Group members meet themselves in the body list;
/// the kernels' zero-distance guard makes those terms vanish, matching
/// [`accel_at_counted`]'s explicit exclusion. The bitwise oracle of
/// [`gather_packet`], which the force tiles run.
#[inline(never)]
pub fn gather<V: TreeView>(
    view: &V,
    gbox: Aabb,
    theta2: f64,
    pad: f64,
    want_quad: bool,
    lists: &mut InteractionLists,
    mac: &mut MacCounts,
) {
    view.walk(&mut Gather { gbox, theta2, pad, quad: want_quad, lists, mac });
}

/// Per-body accumulation. G is hoisted: terms accumulate unscaled and the
/// single multiply happens once at exit. The MAC tally is the visitor's own
/// (registers for the whole walk), folded into the caller's at exit.
struct AccelAt {
    p: Vec3,
    exclude: Option<u32>,
    theta2: f64,
    eps2: f64,
    pad: f64,
    quad: bool,
    acc: Vec3,
    mac: MacCounts,
}

impl<N: Node> Visitor<N> for AccelAt {
    #[inline(always)]
    fn open(&mut self, node: &N, _depth: u32) -> bool {
        if mac_accepts(node.size2(), node.distance2_to_point(self.p), self.theta2, self.pad) {
            // Far node: accept the multipole approximation.
            self.mac.accepts += 1;
            let quad = if self.quad { node.quad() } else { None };
            let d = node.com() - self.p;
            self.acc += multipole_accel(d, node.mass(), quad.as_ref(), 1.0, self.eps2);
            false
        } else {
            self.mac.opens += 1;
            true
        }
    }

    /// Exact pair-wise interaction at leaf bodies.
    #[inline(always)]
    fn leaf(&mut self, p: Vec3, m: f64, id: u32, _depth: u32) {
        if Some(id) != self.exclude {
            self.acc += pair_accel(p - self.p, m, 1.0, self.eps2);
        }
    }
}

/// Group gather: [`AccelAt`]'s point distance replaced by the distance to
/// the group box, and the terms listed instead of summed.
struct Gather<'a> {
    gbox: Aabb,
    theta2: f64,
    pad: f64,
    quad: bool,
    lists: &'a mut InteractionLists,
    mac: &'a mut MacCounts,
}

impl<N: Node> Visitor<N> for Gather<'_> {
    #[inline(always)]
    fn open(&mut self, node: &N, _depth: u32) -> bool {
        if mac_accepts(node.size2(), node.distance2_to_box(self.gbox), self.theta2, self.pad) {
            self.mac.accepts += 1;
            let quad = if self.quad { node.quad() } else { None };
            self.lists.push_node(node.com(), node.mass(), quad);
            false
        } else {
            self.mac.opens += 1;
            true
        }
    }

    #[inline(always)]
    fn leaf(&mut self, p: Vec3, m: f64, _id: u32, _depth: u32) {
        self.lists.push_body(p, m);
    }
}

/// Targets per packet walk: one AVX-512F f64 register, two AVX2 ones.
pub const PACKET: usize = 8;

/// The per-body walk of up to [`PACKET`] consecutive targets in lockstep,
/// as a GPU warp takes it: one walk over the union of the lanes' walks. The
/// lanes reaching an entry at depth `d` are `reach[d]`, those that opened
/// its parent; a node is opened while any reaching lane opens it.
///
/// Why the result is bitwise [`accel_at`]'s: lane `k` sees exactly the
/// entries its own [`AccelAt`] walk sees, in the same order, and runs the
/// same IEEE ops on them; no op mixes lanes, so packet composition cannot
/// matter. A lane that does not reach an entry, or whose term the scalar
/// path zeroes (its own body, `r² ≤ 0`, a massless node), keeps its bits:
/// the scalar "add nothing" or "add `Vec3::ZERO`". Those agree because the
/// accumulator starts at +0.0 and, rounding to nearest, never becomes −0.0.
struct AccelPacket<S> {
    p: [S; 3],
    ids: [u32; PACKET],
    theta2: f64,
    eps2: S,
    pad: f64,
    quad: bool,
    acc: [S; 3],
    /// Octree entries sit at most `MAX_DEPTH` (96) deep, BVH ones 63.
    reach: [u8; 128],
    mac: MacCounts,
}

impl<S: Simd<Elem = f64>> AccelPacket<S> {
    // No closures or `map`s on this path: they are functions of their own,
    // compiled without the entry point's target features, and the lane ops
    // inside them stay calls (AVX2 ran 4× slower than the scalar walk).

    /// `p − targets` per axis and its `norm2() + eps2`, as the scalar terms.
    #[inline(always)]
    fn offset(&self, p: Vec3) -> ([S; 3], S) {
        let (x, y, z) = (S::splat(p.x), S::splat(p.y), S::splat(p.z));
        let d = [x.sub(self.p[0]), y.sub(self.p[1]), z.sub(self.p[2])];
        let r2 = d[0].mul(d[0]).add(d[1].mul(d[1])).add(d[2].mul(d[2])).add(self.eps2);
        (d, r2)
    }

    /// `acc += d · k` in the lanes of `mask`.
    #[inline(always)]
    fn add(&mut self, d: [S; 3], k: S, mask: u32) {
        let [x, y, z] = self.acc;
        let (dx, dy, dz) = (d[0].mul(k), d[1].mul(k), d[2].mul(k));
        self.acc = [x.add_masked(dx, mask), y.add_masked(dy, mask), z.add_masked(dz, mask)];
    }

    /// [`multipole_accel`] at `g = 1` for the lanes of `lanes`.
    #[inline(always)]
    fn add_multipole<N: Node>(&mut self, node: &N, lanes: u32) {
        let m = node.mass();
        if m <= 0.0 {
            return;
        }
        let (d, r2) = self.offset(node.com());
        // `r2 <= 0.0` is `r2 <` the least subnormal, NaN and −0.0 included.
        let lanes = lanes & !r2.lt(S::splat(f64::from_bits(1)));
        let inv_r3 = S::splat(1.0).div(r2.mul(r2.sqrt()));
        let k = S::splat(m).mul(inv_r3);
        let Some(s) = (if self.quad { node.quad() } else { None }) else {
            return self.add(d, k, lanes);
        };
        let neg = S::splat(-1.0);
        let u = [d[0].mul(neg), d[1].mul(neg), d[2].mul(neg)];
        let (q0, q1, q2) = (S::splat(s[0]), S::splat(s[1]), S::splat(s[2]));
        let (q3, q4, q5) = (S::splat(s[3]), S::splat(s[4]), S::splat(s[5]));
        let su = [
            q0.mul(u[0]).add(q1.mul(u[1])).add(q2.mul(u[2])),
            q1.mul(u[0]).add(q3.mul(u[1])).add(q4.mul(u[2])),
            q2.mul(u[0]).add(q4.mul(u[1])).add(q5.mul(u[2])),
        ];
        let usu = u[0].mul(su[0]).add(u[1].mul(su[1])).add(u[2].mul(su[2]));
        let inv_r5 = inv_r3.div(r2);
        let inv_r7 = inv_r5.div(r2);
        let c_su = S::splat(3.0).mul(inv_r5);
        let c_u = S::splat(7.5).mul(usu).mul(inv_r7);
        let c_tr = S::splat(1.5 * (s[0] + s[3] + s[5])).mul(inv_r5);
        for c in 0..3 {
            let quad = su[c].mul(c_su).sub(u[c].mul(c_u)).add(u[c].mul(c_tr));
            self.acc[c] = self.acc[c].add_masked(d[c].mul(k).add(quad), lanes);
        }
    }
}

impl<S: Simd<Elem = f64>, N: Node> Visitor<N> for AccelPacket<S> {
    #[inline(always)]
    fn open(&mut self, node: &N, depth: u32) -> bool {
        let reach = u32::from(self.reach[depth as usize]);
        let d2 = node.distance2_to_points(&self.p);
        let accept = mac_accepts_lanes(node.size2(), d2, self.theta2, self.pad) & reach;
        let open = reach & !accept;
        self.mac.accepts += u64::from(accept.count_ones());
        self.mac.opens += u64::from(open.count_ones());
        if accept != 0 {
            self.add_multipole(node, accept);
        }
        self.reach[depth as usize + 1] = open as u8;
        open != 0
    }

    #[inline(always)]
    fn leaf(&mut self, p: Vec3, m: f64, id: u32, depth: u32) {
        let mut lanes = u32::from(self.reach[depth as usize]);
        for (k, &t) in self.ids.iter().enumerate() {
            lanes &= !(u32::from(t == id) << k);
        }
        if lanes == 0 {
            return;
        }
        let (d, r2) = self.offset(p);
        let k = S::splat(m).div(r2.mul(r2.sqrt()));
        self.add(d, k, lanes & S::zero().lt(r2));
    }
}

/// The group gather of up to [`PACKET`] consecutive groups in lockstep, as
/// [`AccelPacket`] walks eight bodies: lane `k` holds group `k`'s box, the
/// lanes reaching an entry at depth `d` are `reach[d]`, and a node is
/// opened while any reaching lane opens it. An accepted node or a reached
/// leaf body is listed once, in the shared [`PacketLists`], with the lanes
/// that list it beside it.
///
/// Why lane `k`'s entries are bitwise [`gather`]'s for its box: lane `k`
/// reaches exactly the entries its own walk reaches, in the same order, and
/// its MAC decision is the scalar one (same IEEE ops per lane). So the
/// entries masked with bit `k`, in list order, are the scalar lists.
struct GatherPacket<'a, S> {
    lo: [S; 3],
    hi: [S; 3],
    theta2: f64,
    pad: f64,
    quad: bool,
    /// As [`AccelPacket::reach`].
    reach: [u8; 128],
    mac: MacCounts,
    lists: &'a mut PacketLists,
}

impl<S: Simd<Elem = f64>, N: Node> Visitor<N> for GatherPacket<'_, S> {
    #[inline(always)]
    fn open(&mut self, node: &N, depth: u32) -> bool {
        let reach = u32::from(self.reach[depth as usize]);
        let d2 = node.distance2_to_boxes(&self.lo, &self.hi);
        let accept = mac_accepts_lanes(node.size2(), d2, self.theta2, self.pad) & reach;
        let open = reach & !accept;
        self.mac.accepts += u64::from(accept.count_ones());
        self.mac.opens += u64::from(open.count_ones());
        if accept != 0 {
            let quad = if self.quad { node.quad() } else { None };
            self.lists.push_node(node.com(), node.mass(), quad, accept as u8);
        }
        self.reach[depth as usize + 1] = open as u8;
        open != 0
    }

    #[inline(always)]
    fn leaf(&mut self, p: Vec3, m: f64, _id: u32, depth: u32) {
        self.lists.push_body(p, m, self.reach[depth as usize]);
    }
}

/// The group gather of `boxes` (at most [`PACKET`]) in one lockstep walk on
/// SIMD tier `level`, into `lists` (cleared first). Lane `k` of the result
/// ([`PacketLists::lane_into`]) is bitwise [`gather`]`(view, boxes[k], …)`'s
/// lists on every tier, and the returned MAC tallies are the sum of the
/// scalar gathers'.
///
/// # Panics
/// If `level` is wider than [`simd_level`], or there are more than
/// [`PACKET`] boxes.
pub fn gather_packet<V: TreeView>(
    view: &V,
    level: SimdLevel,
    boxes: &[Aabb],
    theta2: f64,
    pad: f64,
    want_quad: bool,
    lists: &mut PacketLists,
) -> MacCounts {
    assert!(level <= simd_level(), "SIMD tier {} is not supported by this CPU", level.name());
    assert!(boxes.len() <= PACKET, "{} group boxes in one packet", boxes.len());
    let (g, q) = (theta2, want_quad);
    match level {
        // SAFETY (both arms): `level` is at most the probed tier (asserted
        // above), so the CPU has the instantiation's features.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512F => unsafe { gather_packet_avx512(view, boxes, g, pad, q, lists) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { gather_packet_avx2(view, boxes, g, pad, q, lists) },
        _ => gather_lanes::<X2<f64x4>, V>(view, boxes, g, pad, q, lists),
    }
}

/// The AVX-512F packet gather: one `F64x8A` per box coordinate. Safety:
/// the caller has verified AVX-512F support ([`simd_level`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gather_packet_avx512<V: TreeView>(
    view: &V,
    boxes: &[Aabb],
    theta2: f64,
    pad: f64,
    want_quad: bool,
    lists: &mut PacketLists,
) -> MacCounts {
    gather_lanes::<crate::simd::avx512::F64x8A, V>(view, boxes, theta2, pad, want_quad, lists)
}

/// The AVX2 packet gather: two `F64x4A` per box coordinate. Safety: the
/// caller has verified AVX2+FMA support ([`simd_level`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gather_packet_avx2<V: TreeView>(
    view: &V,
    boxes: &[Aabb],
    theta2: f64,
    pad: f64,
    want_quad: bool,
    lists: &mut PacketLists,
) -> MacCounts {
    gather_lanes::<X2<crate::simd::avx2::F64x4A>, V>(view, boxes, theta2, pad, want_quad, lists)
}

/// The one packet-gather body, `#[inline(always)]` so each entry point
/// compiles it, the walk and the visitor under its own target features.
/// Idle lanes of a short packet hold a zero box and are masked off at the
/// root.
#[inline(always)]
fn gather_lanes<S: Simd<Elem = f64>, V: TreeView>(
    view: &V,
    boxes: &[Aabb],
    theta2: f64,
    pad: f64,
    quad: bool,
    lists: &mut PacketLists,
) -> MacCounts {
    const { assert!(S::LANES == PACKET) };
    let mut lanes = [[0.0; PACKET]; 6];
    for (k, b) in boxes.iter().enumerate() {
        for c in 0..3 {
            (lanes[c][k], lanes[3 + c][k]) = (b.min[c], b.max[c]);
        }
    }
    lists.clear();
    let mut v = GatherPacket {
        lo: [S::load(&lanes[0], 0), S::load(&lanes[1], 0), S::load(&lanes[2], 0)],
        hi: [S::load(&lanes[3], 0), S::load(&lanes[4], 0), S::load(&lanes[5], 0)],
        theta2,
        pad,
        quad,
        reach: [0; 128],
        mac: MacCounts::default(),
        lists,
    };
    v.reach[0] = ((1u32 << boxes.len()) - 1) as u8;
    view.walk(&mut v);
    v.mac
}

/// Per-body accelerations of targets `js` of the view's grouping order,
/// walked [`PACKET`] at a time on SIMD tier `level`: `out(slot, a)` for each
/// target `(p, slot)`, `a` bitwise [`accel_at`]`(view, p, Some(slot))` on
/// every tier. Returns the MAC tallies, exactly the scalar walks'.
///
/// # Panics
/// If `level` is wider than [`simd_level`] (the tiers up to the probed one
/// are the ones this CPU runs).
pub fn accel_packets<V: TreeView>(
    view: &V,
    level: SimdLevel,
    js: Range<usize>,
    params: &ForceParams,
    out: impl FnMut(usize, Vec3),
) -> MacCounts {
    assert!(level <= simd_level(), "SIMD tier {} is not supported by this CPU", level.name());
    match level {
        // SAFETY (both arms): `level` is at most the probed tier (asserted
        // above), so the CPU has the instantiation's features.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512F => unsafe { packets_avx512(view, js, params, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2Fma => unsafe { packets_avx2(view, js, params, out) },
        _ => packets::<X2<f64x4>, V>(view, js, params, out),
    }
}

/// The AVX-512F packet walk: one `F64x8A` per coordinate. Safety: the
/// caller has verified AVX-512F support ([`simd_level`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn packets_avx512<V: TreeView>(
    view: &V,
    js: Range<usize>,
    params: &ForceParams,
    out: impl FnMut(usize, Vec3),
) -> MacCounts {
    packets::<crate::simd::avx512::F64x8A, V>(view, js, params, out)
}

/// The AVX2 packet walk: two `F64x4A` per coordinate. Safety: the caller
/// has verified AVX2+FMA support ([`simd_level`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn packets_avx2<V: TreeView>(
    view: &V,
    js: Range<usize>,
    params: &ForceParams,
    out: impl FnMut(usize, Vec3),
) -> MacCounts {
    packets::<X2<crate::simd::avx2::F64x4A>, V>(view, js, params, out)
}

/// The one packet-walk body, `#[inline(always)]` so each entry point
/// compiles it, the walk and the visitor under its own target features. A
/// short last packet masks its idle lanes off at the root.
#[inline(always)]
fn packets<S: Simd<Elem = f64>, V: TreeView>(
    view: &V,
    js: Range<usize>,
    params: &ForceParams,
    mut out: impl FnMut(usize, Vec3),
) -> MacCounts {
    const { assert!(S::LANES == PACKET) };
    let mut v = AccelPacket {
        p: [S::zero(); 3],
        ids: [0; PACKET],
        theta2: params.theta * params.theta,
        eps2: S::splat(params.softening * params.softening),
        pad: params.mac_pad,
        quad: params.use_quadrupole,
        acc: [S::zero(); 3],
        reach: [0; 128],
        mac: MacCounts::default(),
    };
    for start in js.clone().step_by(PACKET) {
        let len = (js.end - start).min(PACKET);
        let mut lanes = [[0.0; PACKET]; 3];
        for (k, id) in v.ids.iter_mut().enumerate().take(len) {
            let (p, slot) = view.target(start + k);
            (lanes[0][k], lanes[1][k], lanes[2][k], *id) = (p.x, p.y, p.z, slot as u32);
        }
        v.p = [S::load(&lanes[0], 0), S::load(&lanes[1], 0), S::load(&lanes[2], 0)];
        v.acc = [S::zero(); 3];
        v.reach[0] = ((1u32 << len) - 1) as u8;
        view.walk(&mut v);
        for (c, a) in v.acc.iter().enumerate() {
            a.store(&mut lanes[c], 0);
        }
        for (k, &id) in v.ids.iter().take(len).enumerate() {
            out(id as usize, Vec3::new(lanes[0][k], lanes[1][k], lanes[2][k]) * params.g);
        }
    }
    v.mac
}

/// Bodies per blocked group when `ForceEval::Blocked { group: 0 }` asks for
/// the default, for both trees: one AVX-512F register tile (4 × f64x8), a
/// whole number of f64 tiles on every tier (the kernel body asserts it at
/// compile time). 32 beat 8 and 16 on the octree and tied 64 (EXPERIMENTS.md
/// § One blocked group).
pub const DEFAULT_GROUP: usize = 32;

/// The force phase of one step as independent tiles over a [`TreeView`].
/// Borrows everything (tree, lists pool, output), owns nothing.
pub struct ForceTiles<'a, V> {
    view: V,
    params: ForceParams,
    pool: &'a ListsPool,
    out: SyncSlice<'a, Vec3>,
    /// Bodies per tile: a packet of [`PACKET`] groups on the blocked path
    /// (256 at [`DEFAULT_GROUP`]), [`DEFAULT_GROUP`] (four whole packets of
    /// bodies) on the per-body path.
    chunk: usize,
    /// Bodies per group on the blocked path, `None` on the per-body path.
    group: Option<usize>,
    /// The thread count `new` sized the pool for. [`ForceTiles::run_all`]
    /// runs its region at it, so sizing and indexing read one value whatever
    /// another thread passes to `set_threads` in between.
    threads: usize,
}

impl<'a, V: TreeView> ForceTiles<'a, V> {
    /// Everything the force phase does before its first tile, whoever runs
    /// the tiles: check the output length, on the blocked path size the
    /// per-worker pool for the calling thread's setting (and remember its
    /// thread count), and record the SIMD dispatch gauge (both paths walk
    /// in packets, dispatched by tier).
    ///
    /// # Panics
    /// If `accel.len()` differs from the view's body count.
    pub fn new(view: V, params: &ForceParams, pool: &'a mut ListsPool, accel: &'a mut [Vec3]) -> Self {
        let (n, group) = (view.n_bodies(), params.eval.resolve_group().map(|g| g.max(1)));
        assert_eq!(accel.len(), n, "accel length mismatch");
        let threads = thread_count();
        if group.is_some() {
            pool.prepare(with_threads(threads, max_workers), params.use_quadrupole, n);
        }
        record!(gauge SIMD_DISPATCH_LEVEL, simd_level() as u64);
        ForceTiles {
            view,
            params: *params,
            pool,
            out: SyncSlice::new(accel),
            chunk: group.map_or(DEFAULT_GROUP, |g| g * PACKET),
            group,
            threads,
        }
    }

    /// The tree these tiles walk.
    pub fn view(&self) -> &V {
        &self.view
    }

    /// Number of independent force tiles.
    pub fn tile_count(&self) -> usize {
        self.view.n_bodies().div_ceil(self.chunk)
    }

    /// Positions of the grouping order covered by tile `t`: on the blocked
    /// path the [`PACKET`] consecutive groups of one packet gather (fewer
    /// in the last tile).
    #[inline]
    pub fn tile_range(&self, t: usize) -> Range<usize> {
        let n = self.view.n_bodies();
        (t * self.chunk).min(n)..((t + 1) * self.chunk).min(n)
    }

    /// The force phase: every tile in one parallel region, at the thread
    /// count the pool was sized for.
    pub fn run_all<P: ExecutionPolicy>(&self, policy: P) {
        let n = self.view.n_bodies();
        with_threads(self.threads, || {
            for_each_chunk_worker(policy, 0..n, self.chunk, |w, r| self.run_range(r, w));
        });
    }

    /// Evaluate the bodies at `r` of the grouping order: one tile
    /// ([`ForceTiles::tile_range`]) on the blocked path, any run on the
    /// per-body path. `worker` is the dense worker index the executor hands
    /// to the running callback (`for_each_chunk_worker`), and concurrent
    /// calls must cover disjoint ranges. A driver that opens its own region
    /// opens it at the thread count in force when `new` ran.
    pub fn run_range(&self, r: Range<usize>, worker: usize) {
        if let Some(group) = self.group {
            return self.run_packet(r, group, worker);
        }
        // Per body: packet walks, tier dispatch and MAC flush once per tile.
        let mac = accel_packets(&self.view, simd_level(), r, &self.params, |slot, a| {
            // SAFETY: target slots are a permutation and tiles partition
            // the grouping order, so the slot is this tile's.
            unsafe { self.out.write(slot, a) };
        });
        let metrics = self.view.metrics();
        mac.flush(metrics.mac_accepts, metrics.mac_opens);
    }

    /// The blocked tile body: one packet gather for up to [`PACKET`] groups
    /// of `group` bodies, then per group its lists copied out of the
    /// packet's and every member against them.
    fn run_packet(&self, r: Range<usize>, group: usize, worker: usize) {
        let (view, params) = (&self.view, &self.params);
        let theta2 = params.theta * params.theta;
        let mut boxes = [Aabb::EMPTY; PACKET];
        let groups = r.len().div_ceil(group);
        assert!(groups <= PACKET, "blocked range {r:?} is longer than one tile");
        for (k, gbox) in boxes.iter_mut().enumerate().take(groups) {
            for j in r.start + k * group..(r.start + (k + 1) * group).min(r.end) {
                gbox.expand(view.target(j).0);
            }
        }
        // SAFETY: `worker` is the executor's worker index — dense, below
        // `max_workers()` at `self.threads` (what `new` prepared the pool
        // for; out of range panics) and never observed concurrently by two
        // threads — so the slot is this thread's alone for the tile.
        let state = unsafe { self.pool.slot(worker) };
        let (pad, quad, packet) = (params.mac_pad, params.use_quadrupole, &mut state.packet);
        let mac = gather_packet(view, simd_level(), &boxes[..groups], theta2, pad, quad, packet);
        // One flush per *tile*, two histogram samples per group, amortised
        // over every member body.
        let metrics = view.metrics();
        mac.flush(metrics.mac_accepts, metrics.mac_opens);
        for k in 0..groups {
            state.packet.lane_into(k, &mut state.lists);
            metrics.list_bodies.record(state.lists.n_bodies() as u64);
            metrics.list_nodes.record(state.lists.n_nodes() as u64);
            let members = r.start + k * group..(r.start + (k + 1) * group).min(r.end);
            self.eval_members(members, state);
        }
    }

    /// Every member of group `r` against the group's lists, `state.lists`.
    fn eval_members(&self, r: Range<usize>, state: &mut WorkerKernelState) {
        let (view, params, out) = (&self.view, &self.params, self.out);
        let eps2 = params.softening * params.softening;
        let lists = &state.lists;
        match params.kernel {
            ForceKernel::Scalar => {
                for j in r {
                    let (p, slot) = view.target(j);
                    let a = lists.eval_at(p, params.g, eps2);
                    // SAFETY: target slots are a permutation and tiles
                    // partition the grouping order, so the slot is this tile's.
                    unsafe { out.write(slot, a) };
                }
            }
            ForceKernel::Simd => {
                let scratch = &mut state.scratch;
                scratch.clear_targets();
                for j in r.clone() {
                    scratch.push_target(view.target(j).0);
                }
                let mut ks = KernelStats::default();
                lists.eval_group(scratch, params.g, eps2, params.precision, &mut ks);
                record!(counter SIMD_GROUPS, ks.groups);
                record!(counter SIMD_TILES, ks.tiles);
                record!(counter SIMD_LANE_SLOTS, ks.lane_slots);
                record!(counter SIMD_ACTIVE_LANES, ks.active_lanes);
                for (t, j) in r.enumerate() {
                    // SAFETY: as above — this tile's own permutation slots.
                    unsafe { out.write(view.target(j).1, scratch.accel(t)) };
                }
            }
        }
    }
}
