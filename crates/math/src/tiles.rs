//! CALCULATEFORCE, written once for both trees and both executors: the
//! acceptance criterion, the two visitors that run on a tree's walk, and the
//! force phase as independent tiles.
//!
//! The paper's two CALCULATEFORCE walks (§IV-A.3, §IV-B.3) differ only in
//! the node size and the distance the MAC compares. So a tree crate
//! contributes a [`TreeView`] — its one stackless walk, its node geometry
//! (a [`Node`]: size², distance² to a point and to a group box, centre of
//! mass, mass, quadrupole), how a leaf entry names a body (position, mass,
//! original id, handed to [`Visitor::leaf`]), the order its bodies are
//! grouped in, and its four metric handles — and everything else lives here:
//! [`mac_accepts`], the per-body accumulation ([`accel_at_counted`]), the
//! group gather ([`gather`]) and [`ForceTiles`], which owns the partition of
//! the bodies into tiles, the blocked group body (group box → worker slot →
//! gather → MAC flush → list histograms → scalar/SIMD kernel → scatter) and
//! the per-body chunk body. The barrier driver ([`ForceTiles::run_all`], one
//! parallel region) and the fused step (one chunk per
//! [`ForceTiles::run_tile`], its closing kick behind it) call the same
//! function on the same ranges, so their accelerations are bitwise equal by
//! construction, on every policy, backend and schedule.
//!
//! Tiles are fixed contiguous chunks of the view's grouping order (blocked)
//! or of the original order (per-body): the decomposition depends on neither
//! the policy nor the schedule, each tile writes its own output slots and
//! uses only its worker's lists — no locks, no waiting — so the phase is
//! valid under `par_unseq`.

use crate::gravity::{multipole_accel, pair_accel, ForceKernel, ForceParams};
use crate::interaction::{InteractionLists, KernelStats, ListsPool};
use crate::simd::simd_level;
use crate::{Aabb, Vec3};
use nbody_telemetry::{record, Counter, Histogram, MacCounts};
use std::ops::Range;
use stdpar::backend::{max_workers, par_grain, unseq_grain};
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

/// An internal node as the MAC sees it: the three geometric questions the
/// criterion asks, and what an accepted node contributes.
pub trait Node {
    /// Node size²: the octree's cell width², the BVH's box diagonal².
    fn size2(&self) -> f64;
    /// Distance² to a body at `p` (the per-body MAC): octree `|com − p|²`,
    /// BVH `d²(box, p)`.
    fn distance2_to_point(&self, p: Vec3) -> f64;
    /// Distance² to a group box, at most every member's distance (the
    /// group MAC): octree `d²(gbox, com)`, BVH `d²(box, gbox)`.
    fn distance2_to_box(&self, gbox: Aabb) -> f64;
    fn com(&self) -> Vec3;
    fn mass(&self) -> f64;
    /// Central second moments (xx, xy, xz, yy, yz, zz), if the tree
    /// accumulated them.
    fn quad(&self) -> Option<[f64; 6]>;
}

/// What a tree's walk does at the entries it reaches. Empty subtrees are
/// skipped before either method is called.
///
/// Both implementations below mark their methods `#[inline(always)]`, and a
/// walk calls each from exactly one site, so the visitor's state stays in
/// registers across the whole traversal instead of living behind an
/// outlined call.
pub trait Visitor<N> {
    /// An internal node: `true` opens it (the walk descends into its
    /// children), `false` moves on past its subtree.
    fn open(&mut self, node: &N) -> bool;

    /// A body of an opened leaf: its position, mass and original id.
    fn leaf(&mut self, p: Vec3, m: f64, id: u32);
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

/// [`accel_at`] with MAC accept/open decisions tallied into `mac` (plain
/// locals — callers batch bodies and flush once per chunk, keeping atomics
/// off the per-node hot path).
///
/// `#[inline(never)]`, like [`gather`]: each walk is a function of its own,
/// as the per-tree copies were. Inlined into the tile body, the walk loop
/// shares registers with the tile body's live values, and the 16k steps
/// measured slower that way (EXPERIMENTS.md "One visitor pair").
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
/// [`accel_at_counted`]'s explicit exclusion.
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
    fn open(&mut self, node: &N) -> bool {
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
    fn leaf(&mut self, p: Vec3, m: f64, id: u32) {
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
    fn open(&mut self, node: &N) -> bool {
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
    fn leaf(&mut self, p: Vec3, m: f64, _id: u32) {
        self.lists.push_body(p, m);
    }
}

/// Bodies per blocked group when `ForceEval::Blocked { group: 0 }` asks for
/// the default, for both trees: one AVX-512F register tile (4 × f64x8), a
/// whole number of f64 tiles on every tier (the kernel body asserts it at
/// compile time). 32 beat 8 and 16 on the octree and tied 64 (EXPERIMENTS.md
/// § One blocked group).
pub const DEFAULT_GROUP: usize = 32;

/// The force phase of one step as independent tiles over a [`TreeView`].
/// Borrows everything (tree, positions, lists pool, output), owns nothing.
pub struct ForceTiles<'a, V> {
    view: V,
    /// The caller's positions in original order: the per-body path's
    /// targets.
    positions: &'a [Vec3],
    params: ForceParams,
    pool: &'a ListsPool,
    out: SyncSlice<'a, Vec3>,
    /// Bodies per tile: the block group, or `par_grain` on the per-body path.
    chunk: usize,
    blocked: bool,
}

impl<'a, V: TreeView> ForceTiles<'a, V> {
    /// Everything the force phase does before its first tile, for either
    /// driver: check the output length, and on the blocked path size the
    /// per-worker pool for the current backend and record the SIMD dispatch
    /// gauge. The tree has checked that `positions` holds one entry per body.
    ///
    /// # Panics
    /// If `accel.len()` differs from the view's body count.
    pub fn new(
        view: V,
        positions: &'a [Vec3],
        params: &ForceParams,
        pool: &'a mut ListsPool,
        accel: &'a mut [Vec3],
    ) -> Self {
        let (n, group) = (view.n_bodies(), params.eval.resolve_group());
        assert_eq!(accel.len(), n, "accel length mismatch");
        if group.is_some() {
            pool.prepare(max_workers(), params.use_quadrupole);
            if params.kernel == ForceKernel::Simd {
                record!(gauge SIMD_DISPATCH_LEVEL, simd_level() as u64);
            }
        }
        ForceTiles {
            view,
            positions,
            params: *params,
            pool,
            out: SyncSlice::new(accel),
            chunk: group.unwrap_or_else(|| par_grain(n)).max(1),
            blocked: group.is_some(),
        }
    }

    /// The tree these tiles walk.
    pub fn view(&self) -> &V {
        &self.view
    }

    /// The accelerations being written. A reader must be ordered after the
    /// tile that writes the slot it reads (the [`SyncSlice`] contract).
    pub fn out(&self) -> SyncSlice<'a, Vec3> {
        self.out
    }

    /// Number of independent force tiles.
    pub fn tile_count(&self) -> usize {
        self.view.n_bodies().div_ceil(self.chunk)
    }

    /// Positions covered by tile `t`: of the grouping order on the blocked
    /// path, of the original order on the per-body path.
    #[inline]
    pub fn tile_range(&self, t: usize) -> Range<usize> {
        let n = self.view.n_bodies();
        (t * self.chunk).min(n)..((t + 1) * self.chunk).min(n)
    }

    /// Original body indices whose accelerations tile `t` writes, in
    /// evaluation order — the exact slots a dependent integrator tile may
    /// read through a single `force(t) → kick(t)` edge. Over all tiles they
    /// partition `0..n`.
    pub fn tile_bodies(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        self.tile_range(t).map(move |j| if self.blocked { self.view.target(j).1 } else { j })
    }

    /// Execute force tile `t` on `worker` (see [`ForceTiles::run_range`]).
    pub fn run_tile(&self, t: usize, worker: usize) {
        self.run_range(self.tile_range(t), worker);
    }

    /// The barrier driver: every body in one parallel region. Per-body
    /// chunks need not be the tiles (any range evaluates the same bodies
    /// the same way), so they follow the policy's own grain.
    pub fn run_all<P: ExecutionPolicy>(&self, policy: P) {
        let n = self.view.n_bodies();
        let chunk = match (self.blocked, P::UNSEQUENCED) {
            (true, _) => self.chunk,
            (false, true) => unseq_grain(n),
            (false, false) => par_grain(n),
        };
        for_each_chunk_worker(policy, 0..n, chunk, |w, r| self.run_range(r, w));
    }

    /// Evaluate the bodies at `r`: one group ([`ForceTiles::tile_range`])
    /// on the blocked path, any run of original indices on the per-body
    /// path. `worker` is the dense worker index the executor hands to the
    /// running callback (`for_each_chunk_worker`), and concurrent calls must
    /// cover disjoint ranges.
    pub fn run_range(&self, r: Range<usize>, worker: usize) {
        if self.blocked {
            self.run_group(r, worker);
        } else {
            self.run_chunk(r);
        }
    }

    /// The blocked group body: one walk for the whole group, then every
    /// member against the shared lists.
    fn run_group(&self, r: Range<usize>, worker: usize) {
        let (view, params, out) = (&self.view, &self.params, self.out);
        let theta2 = params.theta * params.theta;
        let eps2 = params.softening * params.softening;
        let mut gbox = Aabb::EMPTY;
        for j in r.clone() {
            gbox.expand(view.target(j).0);
        }
        // SAFETY: `worker` is the executor's worker index — dense, below
        // `max_workers()` (what `new` prepared the pool for; out of range
        // panics) and never observed concurrently by two threads — so the
        // slot is this thread's alone for the duration of the group.
        let state = unsafe { self.pool.slot(worker) };
        let lists = &mut state.lists;
        lists.clear();
        let mut mac = MacCounts::default();
        gather(view, gbox, theta2, params.mac_pad, params.use_quadrupole, lists, &mut mac);
        // One flush and two histogram samples per *group*, amortised over
        // every member body.
        let metrics = view.metrics();
        mac.flush(metrics.mac_accepts, metrics.mac_opens);
        metrics.list_bodies.record(lists.n_bodies() as u64);
        metrics.list_nodes.record(lists.n_nodes() as u64);
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

    /// The per-body chunk body: one walk per body, MAC decisions tallied in
    /// a local and flushed once per chunk.
    fn run_chunk(&self, r: Range<usize>) {
        let mut mac = MacCounts::default();
        for b in r {
            let p = self.positions[b];
            let a = accel_at_counted(&self.view, p, Some(b as u32), &self.params, &mut mac);
            // SAFETY: per-body chunks partition 0..n.
            unsafe { self.out.write(b, a) };
        }
        let metrics = self.view.metrics();
        mac.flush(metrics.mac_accepts, metrics.mac_opens);
    }
}
