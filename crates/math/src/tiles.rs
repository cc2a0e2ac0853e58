//! CALCULATEFORCE as independent tiles, written once for both trees and
//! both executors.
//!
//! A tree crate contributes a [`TreeView`] — its one stackless walk behind
//! `gather` (group interaction lists) and `accel_one` (per-body
//! accumulation), plus the order its bodies are grouped in — and
//! [`ForceTiles`] owns everything around the walk: the partition of the
//! bodies into tiles, the blocked group body (group box → worker slot →
//! gather → MAC flush → list histograms → scalar/SIMD kernel → scatter) and
//! the per-body chunk body. The barrier driver ([`ForceTiles::run_all`], one
//! parallel region) and the fused step (one chunk per
//! [`ForceTiles::run_tile`], its closing kick behind it) call the same
//! function on the same ranges, so their accelerations are bitwise equal by
//! construction, on every policy, backend and schedule.
//!
//! Tiles are fixed contiguous chunks of the view's walk order (blocked) or
//! of the original order (per-body): the decomposition depends on neither
//! the policy nor the schedule, each tile writes its own output slots and
//! uses only its worker's lists — no locks, no waiting — so the phase is
//! valid under `par_unseq`.

use crate::gravity::{ForceKernel, ForceParams};
use crate::interaction::{InteractionLists, KernelStats, ListsPool};
use crate::simd::simd_level;
use crate::{Aabb, Vec3};
use nbody_telemetry::{record, Counter, Histogram, MacCounts};
use std::ops::Range;
use stdpar::backend::{max_workers, par_grain, unseq_grain};
use stdpar::prelude::*;

/// The telemetry a tree's force walk records into.
pub struct WalkMetrics {
    pub mac_accepts: &'static Counter,
    pub mac_opens: &'static Counter,
    pub list_bodies: &'static Histogram,
    pub list_nodes: &'static Histogram,
}

/// What [`ForceTiles`] needs from a tree: a built tree together with the
/// body arrays it was built from and the order its bodies are grouped in.
pub trait TreeView: Sync {
    /// Bodies in the tree.
    fn n_bodies(&self) -> usize;

    /// Position and output slot (original body index) of the `j`-th body in
    /// walk order. Over `0..n_bodies()` the slots are a permutation.
    fn target(&self, j: usize) -> (Vec3, usize);

    /// One stackless walk collecting the interaction lists of a group box:
    /// a node accepted for `gbox` (by the conservative box distance) is
    /// accepted for every point inside it. Group members meet themselves in
    /// the body list; the kernels' zero-distance guard makes those terms
    /// vanish, matching `accel_one`'s explicit exclusion.
    fn gather(
        &self,
        gbox: Aabb,
        theta2: f64,
        pad: f64,
        want_quad: bool,
        lists: &mut InteractionLists,
        mac: &mut MacCounts,
    );

    /// Acceleration of original body `b`, one walk, self-interaction
    /// excluded.
    fn accel_one(&self, b: usize, params: &ForceParams, mac: &mut MacCounts) -> Vec3;

    /// Where this tree's walks are counted.
    fn metrics(&self) -> WalkMetrics;
}

/// The force phase of one step as independent tiles over a [`TreeView`].
/// Borrows everything (tree, lists pool, output), owns nothing.
pub struct ForceTiles<'a, V> {
    view: V,
    params: ForceParams,
    pool: &'a ListsPool,
    out: SyncSlice<'a, Vec3>,
    /// Bodies per tile: the block group, or `par_grain` on the per-body path.
    chunk: usize,
    blocked: bool,
}

impl<'a, V: TreeView> ForceTiles<'a, V> {
    /// Everything the force phase does before its first tile, for either
    /// driver: check the output length, and on the blocked path (`group`
    /// resolved by the tree from `params.eval`) size the per-worker pool for
    /// the current backend and record the SIMD dispatch gauge.
    ///
    /// # Panics
    /// If `accel.len()` differs from the view's body count.
    pub fn new(
        view: V,
        params: &ForceParams,
        group: Option<usize>,
        pool: &'a mut ListsPool,
        accel: &'a mut [Vec3],
    ) -> Self {
        let n = view.n_bodies();
        assert_eq!(accel.len(), n, "accel length mismatch");
        if group.is_some() {
            pool.prepare(max_workers(), params.use_quadrupole);
            if params.kernel == ForceKernel::Simd {
                record!(gauge SIMD_DISPATCH_LEVEL, simd_level() as u64);
            }
        }
        ForceTiles {
            view,
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

    /// Positions covered by tile `t`: of the walk order on the blocked
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
        view.gather(gbox, theta2, params.mac_pad, params.use_quadrupole, lists, &mut mac);
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
                    // partition the walk order, so the slot is this tile's.
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
            let a = self.view.accel_one(b, &self.params, &mut mac);
            // SAFETY: per-body chunks partition 0..n.
            unsafe { self.out.write(b, a) };
        }
        let metrics = self.view.metrics();
        mac.flush(metrics.mac_accepts, metrics.mac_opens);
    }
}
