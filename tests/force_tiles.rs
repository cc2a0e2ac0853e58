//! The force-tile body (`nbody_math::tiles`), checked once for both trees
//! (DESIGN.md "Blocked traversal"): every test here is generic over a
//! [`Fixture`] and instantiated for the BVH and the octree.
//!
//! * the invariant the `unsafe` output writes rest on — tiles partition
//!   the bodies — and its consequence, that the force region, a region of
//!   one tile per chunk and every deterministic schedule give one
//!   bit-identical field;
//! * walk conformance of the `TreeView` each tree contributes (the shared
//!   gather against the shared per-body walk, mass accounting, θ = 0);
//! * the per-body path's packet walk, on every SIMD tier the CPU runs, is
//!   the scalar per-body walk bit for bit, MAC tallies included;
//! * the blocked path's packet gather, on every tier, lists for each group
//!   exactly the scalar group gather's entries, and the force region's
//!   field is the scalar gathers' bit for bit;
//! * every precondition is refused by the one constructor, through the
//!   force region and on its own, before a region starts;
//! * the accuracy budgets, and the physics every force field owes.

use stdpar_nbody::bvh::{Bvh, BvhParams, BvhScratch, BvhView};
use stdpar_nbody::math::gravity::{direct_accel, ForceParams};
use stdpar_nbody::math::simd::{simd_level, SimdLevel};
use stdpar_nbody::math::{tiles, ForceTiles, InteractionLists, PacketLists, SplitMix64, TreeView};
use stdpar_nbody::octree::{Octree, OctreeView, TraversalScratch};
use stdpar_nbody::prelude::*;
use stdpar_nbody::stdpar::backend::{with_backend, with_threads, Backend};
use stdpar_nbody::stdpar::detpar::{with_schedule, ScheduleMode};
use stdpar_nbody::stdpar::policy::ExecutionPolicy;
use stdpar_nbody::stdpar::for_each_chunk_worker;
use stdpar_nbody::telemetry::{self, metrics, MacCounts};
use std::sync::{RwLock, RwLockReadGuard};

/// The trees' MAC counters are process globals. The one test that reads
/// their deltas holds this for writing; every other test that walks a tree
/// holds it for reading.
static MAC_COUNTERS: RwLock<()> = RwLock::new(());

fn counters_moving() -> RwLockReadGuard<'static, ()> {
    MAC_COUNTERS.read().unwrap_or_else(|e| e.into_inner())
}

/// A tree the shared force-tile body runs on.
trait Fixture: Sized + Sync {
    type Scratch: Default;
    type View<'a>: TreeView
    where
        Self: 'a;
    const NAME: &'static str;
    /// Seed base of this tree's random systems.
    const SEED: u64;
    /// θ of the quadrupole budget row.
    const QUAD_THETA: f64;
    /// Softening of the co-located-bodies row (the octree chains them in
    /// one leaf at maximum depth).
    const DUP_SOFTENING: f64;

    fn built(pos: &[Vec3], mass: &[f64], quad: bool) -> Self;

    /// Sort or build again at `pos` and stop before the moments (the
    /// stale-moments refusal).
    fn rebuild_without_moments(&mut self, pos: &[Vec3], mass: &[f64]);

    /// The tiles' constructor (the caller drives them).
    fn tiles<'a>(
        &'a self,
        pos: &'a [Vec3],
        mass: &'a [f64],
        accel: &'a mut [Vec3],
        params: &ForceParams,
        scratch: &'a mut Self::Scratch,
    ) -> ForceTiles<'a, Self::View<'a>>;

    /// The barrier driver.
    fn forces_into<P: ExecutionPolicy>(
        &self,
        policy: P,
        pos: &[Vec3],
        mass: &[f64],
        accel: &mut [Vec3],
        params: &ForceParams,
    );

    fn forces<P: ExecutionPolicy>(
        &self,
        policy: P,
        pos: &[Vec3],
        mass: &[f64],
        params: &ForceParams,
    ) -> Vec<Vec3> {
        let mut acc = vec![Vec3::ZERO; pos.len()];
        self.forces_into(policy, pos, mass, &mut acc, params);
        acc
    }
}

impl Fixture for Bvh {
    type Scratch = BvhScratch;
    type View<'a> = BvhView<'a>;
    const NAME: &'static str = "bvh";
    const SEED: u64 = 90;
    const QUAD_THETA: f64 = 0.9;
    const DUP_SOFTENING: f64 = 0.0;

    fn built(pos: &[Vec3], mass: &[f64], quad: bool) -> Self {
        let mut b = Bvh::with_params(BvhParams { quadrupole: quad, ..Default::default() });
        b.hilbert_sort(ParUnseq, pos, mass, Aabb::from_points(pos));
        b.build_and_accumulate(ParUnseq);
        b
    }

    fn rebuild_without_moments(&mut self, pos: &[Vec3], mass: &[f64]) {
        self.hilbert_sort(ParUnseq, pos, mass, Aabb::from_points(pos));
    }

    fn tiles<'a>(
        &'a self,
        pos: &'a [Vec3],
        _mass: &'a [f64],
        accel: &'a mut [Vec3],
        params: &ForceParams,
        scratch: &'a mut BvhScratch,
    ) -> ForceTiles<'a, BvhView<'a>> {
        self.begin_force_tasks(pos, accel, params, scratch)
    }

    fn forces_into<P: ExecutionPolicy>(
        &self,
        policy: P,
        pos: &[Vec3],
        _mass: &[f64],
        accel: &mut [Vec3],
        params: &ForceParams,
    ) {
        self.compute_forces(policy, pos, accel, params);
    }
}

impl Fixture for Octree {
    type Scratch = TraversalScratch;
    type View<'a> = OctreeView<'a>;
    const NAME: &'static str = "octree";
    const SEED: u64 = 40;
    const QUAD_THETA: f64 = 0.8;
    const DUP_SOFTENING: f64 = 0.05;

    fn built(pos: &[Vec3], mass: &[f64], quad: bool) -> Self {
        let mut t = Octree::new();
        t.set_quadrupole(quad);
        t.build(Par, pos, Aabb::from_points(pos)).unwrap();
        t.compute_multipoles(Par, pos, mass);
        t
    }

    fn rebuild_without_moments(&mut self, pos: &[Vec3], _mass: &[f64]) {
        self.build(Par, pos, Aabb::from_points(pos)).unwrap();
    }

    fn tiles<'a>(
        &'a self,
        pos: &'a [Vec3],
        mass: &'a [f64],
        accel: &'a mut [Vec3],
        params: &ForceParams,
        scratch: &'a mut TraversalScratch,
    ) -> ForceTiles<'a, OctreeView<'a>> {
        self.begin_force_tasks(pos, mass, accel, params, scratch)
    }

    fn forces_into<P: ExecutionPolicy>(
        &self,
        policy: P,
        pos: &[Vec3],
        mass: &[f64],
        accel: &mut [Vec3],
        params: &ForceParams,
    ) {
        self.compute_forces(policy, pos, mass, accel, params);
    }
}

fn random_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
    let mut r = SplitMix64::new(seed);
    let pos = (0..n)
        .map(|_| Vec3::new(r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0)))
        .collect();
    let mass = (0..n).map(|_| r.uniform(0.5, 2.0)).collect();
    (pos, mass)
}

fn blocked() -> ForceParams {
    ForceParams { eval: ForceEval::blocked(), ..ForceParams::default() }
}

fn exact_field(pos: &[Vec3], mass: &[f64]) -> Vec<Vec3> {
    (0..pos.len()).map(|i| direct_accel(pos[i], Some(i as u32), pos, mass, 1.0, 0.0)).collect()
}

/// Each body's relative error against `exact`.
fn rel_errors<'a>(acc: &'a [Vec3], exact: &'a [Vec3]) -> impl Iterator<Item = f64> + 'a {
    acc.iter().zip(exact).map(|(&a, &e)| (a - e).norm() / (1e-12 + e.norm()))
}

fn mean_rel_error(acc: &[Vec3], exact: &[Vec3]) -> f64 {
    rel_errors(acc, exact).sum::<f64>() / acc.len() as f64
}

/// Every tile once, as one-tile chunks of a parallel region.
fn by_region<F: Fixture>(t: &F, pos: &[Vec3], mass: &[f64], params: &ForceParams) -> Vec<Vec3> {
    let mut acc = vec![Vec3::ZERO; pos.len()];
    let mut scratch = F::Scratch::default();
    let tiles = t.tiles(pos, mass, &mut acc, params, &mut scratch);
    for_each_chunk_worker(ParUnseq, 0..tiles.tile_count(), 1, |w, r| {
        for tile in r {
            tiles.run_range(tiles.tile_range(tile), w);
        }
    });
    drop(tiles);
    acc
}

fn tiles_partition_and_every_driver_agrees<F: Fixture>() {
    let _counting = counters_moving();
    let g = tiles::DEFAULT_GROUP;
    for n in [0, 1, g - 1, g, g + 1, 1000] {
        let (pos, mass) = random_system(n, F::SEED + 50 + n as u64);
        for quad in [false, true] {
            let t = F::built(&pos, &mass, quad);
            let base = ForceParams { use_quadrupole: quad, ..ForceParams::default() };
            for params in [
                base,
                ForceParams { eval: ForceEval::blocked(), ..base },
                ForceParams { eval: ForceEval::Blocked { group: 48 }, ..base },
                ForceParams { eval: ForceEval::blocked(), kernel: ForceKernel::Simd, ..base },
                ForceParams {
                    eval: ForceEval::Blocked { group: 48 },
                    kernel: ForceKernel::Simd,
                    ..base
                },
            ] {
                let (eval, kernel) = (params.eval, params.kernel);
                let what = format!("{} n={n} quad={quad} {eval:?}/{kernel:?}", F::NAME);

                // The tiles' ranges partition 0..n, and the bodies they name
                // (through the grouping order on the blocked path) are a
                // permutation of 0..n.
                {
                    let mut acc = vec![Vec3::ZERO; n];
                    let mut scratch = F::Scratch::default();
                    let tiles = t.tiles(&pos, &mass, &mut acc, &params, &mut scratch);
                    if n == 0 {
                        assert_eq!(tiles.tile_count(), 0, "{what}");
                    }
                    let covered: Vec<usize> =
                        (0..tiles.tile_count()).flat_map(|tile| tiles.tile_range(tile)).collect();
                    assert_eq!(covered, (0..n).collect::<Vec<_>>(), "{what}: not a partition");
                    let mut seen: Vec<usize> = (0..n).map(|j| tiles.view().target(j).1).collect();
                    seen.sort_unstable();
                    assert_eq!(seen, (0..n).collect::<Vec<_>>(), "{what}: not a permutation");
                }

                // One field, whoever runs the tiles.
                let reference = t.forces(Seq, &pos, &mass, &params);
                assert_eq!(t.forces(Par, &pos, &mass, &params), reference, "{what}: par region");
                assert_eq!(t.forces(ParUnseq, &pos, &mass, &params), reference, "{what}: region");
                assert_eq!(by_region(&t, &pos, &mass, &params), reference, "{what}: tile region");
                with_threads(1, || {
                    assert_eq!(by_region(&t, &pos, &mass, &params), reference, "{what}: 1 worker");
                });
                with_backend(Backend::DetPar, || {
                    for mode in ScheduleMode::ALL {
                        with_schedule(29, mode, || {
                            assert_eq!(
                                t.forces(ParUnseq, &pos, &mass, &params),
                                reference,
                                "{what}: {mode:?} region"
                            );
                            assert_eq!(
                                by_region(&t, &pos, &mass, &params),
                                reference,
                                "{what}: {mode:?} tile region"
                            );
                        });
                    }
                });
            }
        }
    }
}

/// Bodies and nodes of `lists` as (position bits, mass bits), sorted.
fn listed_bodies(lists: &InteractionLists) -> Vec<([u64; 3], u64)> {
    let mut v: Vec<_> = (0..lists.n_bodies())
        .map(|k| {
            let p = [lists.bx[k].to_bits(), lists.by[k].to_bits(), lists.bz[k].to_bits()];
            (p, lists.bm[k].to_bits())
        })
        .collect();
    v.sort_unstable();
    v
}

fn walk_conformance<F: Fixture>() {
    let _counting = counters_moving();
    let n = 700;
    let (pos, mass) = random_system(n, F::SEED + 30);
    let total: f64 = mass.iter().sum();
    for quad in [false, true] {
        let t = F::built(&pos, &mass, quad);
        let params = ForceParams { use_quadrupole: quad, ..blocked() };
        let mut acc = vec![Vec3::ZERO; n];
        let mut scratch = F::Scratch::default();
        let tiles = t.tiles(&pos, &mass, &mut acc, &params, &mut scratch);
        let view = tiles.view();
        assert_eq!(view.n_bodies(), n);
        let mut lists = InteractionLists::new(quad);

        // Group boxes of every shape the tiles produce: a point, a tile, all.
        let point = Aabb::from_point(view.target(17).0);
        let mut tile = Aabb::EMPTY;
        for j in tiles.tile_range(3) {
            tile.expand(view.target(j).0);
        }
        let all = Aabb::from_points(&pos);

        // θ = 0 opens everything: every body exactly once, no node.
        let mut want: Vec<_> = pos
            .iter()
            .zip(&mass)
            .map(|(p, m)| ([p.x.to_bits(), p.y.to_bits(), p.z.to_bits()], m.to_bits()))
            .collect();
        want.sort_unstable();
        for gbox in [point, tile, all] {
            lists.clear();
            let mut mac = MacCounts::default();
            tiles::gather(view, gbox, 0.0, 0.0, quad, &mut lists, &mut mac);
            assert_eq!(lists.n_nodes(), 0, "{}: θ=0 must never approximate", F::NAME);
            assert_eq!(mac.accepts, 0);
            assert_eq!(listed_bodies(&lists), want, "{}: θ=0 body list", F::NAME);
        }

        // Any θ, any pad: what is listed accounts for all the mass.
        for theta in [0.3, 0.7, 1.2] {
            for pad in [0.0, 1e-3] {
                for gbox in [point, tile, all] {
                    lists.clear();
                    let mut mac = MacCounts::default();
                    tiles::gather(view, gbox, theta * theta, pad, quad, &mut lists, &mut mac);
                    let listed: f64 = lists.bm.iter().chain(&lists.nm).sum();
                    assert!(
                        (listed - total).abs() < 1e-9 * total,
                        "{} θ={theta} pad={pad}: listed mass {listed} vs {total}",
                        F::NAME
                    );
                    assert_eq!(mac.accepts as usize, lists.n_nodes());
                    if let Some(q) = &lists.quad {
                        assert_eq!(q.len(), lists.n_nodes());
                    }
                }
            }
        }

        // A one-body group is the per-body walk: same MAC decisions, and
        // the gathered set evaluates to the per-body sum up to rounding.
        let one = ForceParams { theta: 0.6, g: 1.5, softening: 0.01, ..params };
        let eps2 = one.softening * one.softening;
        for j in (0..n).step_by(41) {
            let (p, slot) = view.target(j);
            assert_eq!(p, pos[slot], "{}: target position", F::NAME);
            lists.clear();
            let mut group_mac = MacCounts::default();
            let theta2 = one.theta * one.theta;
            tiles::gather(view, Aabb::from_point(p), theta2, 0.0, quad, &mut lists, &mut group_mac);
            let mut body_mac = MacCounts::default();
            let want = tiles::accel_at_counted(view, p, Some(slot as u32), &one, &mut body_mac);
            assert_eq!(
                (group_mac.accepts, group_mac.opens),
                (body_mac.accepts, body_mac.opens),
                "{} body {slot}: MAC decisions",
                F::NAME
            );
            let got = lists.eval_at(p, one.g, eps2);
            assert!(
                (got - want).norm() <= 1e-12 * (1.0 + want.norm()),
                "{} body {slot}: {got:?} vs {want:?}",
                F::NAME
            );
        }

        // A probe outside the cluster, excluding nobody: the direct sum at
        // θ = 0, the monopole truncation error — (size / distance)² — at 0.5.
        let probe = Vec3::new(10.0, 0.0, 0.0);
        let exact = direct_accel(probe, None, &pos, &mass, 1.0, 0.0);
        for (theta, tol) in [(0.0, 1e-10), (0.5, 2e-2)] {
            let got = tiles::accel_at(view, probe, None, &ForceParams { theta, ..params });
            assert!((got - exact).norm() < tol * exact.norm(), "{} θ={theta}", F::NAME);
        }
    }
}

fn bits(a: Vec3) -> [u64; 3] {
    [a.x, a.y, a.z].map(f64::to_bits)
}

/// The per-body path walks eight targets of the grouping order at a time.
/// On every tier this CPU runs, each body's value is its scalar walk's
/// (`tiles::accel_at`) bit for bit, and the MAC tallies are the scalar
/// walks' sums: through `tiles::accel_packets` on each tier, and through the
/// force region and the tree's counters on the dispatched one. Partial
/// packets, quadrupoles, a padded MAC and co-located bodies (the octree
/// chains them in one leaf) included.
fn per_body_packets_are_the_scalar_walk_bitwise<F: Fixture>() {
    let _reading = MAC_COUNTERS.write().unwrap_or_else(|e| e.into_inner());
    let (tiers, skipped): (Vec<SimdLevel>, Vec<SimdLevel>) =
        SimdLevel::ALL.into_iter().partition(|&l| l <= simd_level());
    for level in skipped {
        eprintln!("{} not detected; skipping its tier", level.name());
    }
    for n in [1, 7, 8, 9, 33, 1000] {
        let (mut pos, mass) = random_system(n, F::SEED + 70 + n as u64);
        for k in (5..n).step_by(7) {
            pos[k] = pos[3];
        }
        for quad in [false, true] {
            let t = F::built(&pos, &mass, quad);
            for (softening, mac_pad) in [(0.0, 0.0), (0.01, 0.0), (F::DUP_SOFTENING, 0.02)] {
                let params = ForceParams {
                    theta: 0.6,
                    g: 1.5,
                    softening,
                    mac_pad,
                    use_quadrupole: quad,
                    ..ForceParams::default()
                };
                let what = format!("{} n={n} quad={quad} ε={softening} pad={mac_pad}", F::NAME);
                let (mut unused, mut scratch) = (vec![Vec3::ZERO; n], F::Scratch::default());
                let tiles = t.tiles(&pos, &mass, &mut unused, &params, &mut scratch);
                let view = tiles.view();
                let mut want_mac = MacCounts::default();
                let want: Vec<[u64; 3]> = (0..n)
                    .map(|b| {
                        let exclude = Some(b as u32);
                        bits(tiles::accel_at_counted(view, pos[b], exclude, &params, &mut want_mac))
                    })
                    .collect();
                for &level in &tiers {
                    let mut got = vec![[0; 3]; n];
                    let mac = tiles::accel_packets(view, level, 0..n, &params, |slot, a| {
                        got[slot] = bits(a);
                    });
                    assert_eq!(got, want, "{what} {}", level.name());
                    let tally = |m: &MacCounts| (m.accepts, m.opens);
                    assert_eq!(tally(&mac), tally(&want_mac), "{what} {}: MAC", level.name());
                }
                let counters = view.metrics();
                drop(tiles);
                let (accepts, opens) = (counters.mac_accepts.get(), counters.mac_opens.get());
                let region = t.forces(Par, &pos, &mass, &params);
                assert_eq!(region.into_iter().map(bits).collect::<Vec<_>>(), want, "{what} region");
                if telemetry::ENABLED {
                    let moved = (
                        counters.mac_accepts.get() - accepts,
                        counters.mac_opens.get() - opens,
                    );
                    assert_eq!(moved, (want_mac.accepts, want_mac.opens), "{what}: counters");
                }
            }
        }
    }
}

/// Every column of `lists` as bits: bodies, nodes, then the quadrupole
/// columns if armed.
fn list_bits(lists: &InteractionLists) -> Vec<Vec<u64>> {
    let quad = lists.quad.iter().flat_map(|q| &q.s);
    let (bodies, nodes) = ([&lists.bx, &lists.by, &lists.bz, &lists.bm], [&lists.nx, &lists.ny]);
    bodies
        .into_iter()
        .chain(nodes)
        .chain([&lists.nz, &lists.nm])
        .chain(quad)
        .map(|c| c.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The blocked path gathers the lists of eight consecutive groups in one
/// lockstep walk. On every tier this CPU runs, each group's lists copied
/// out of the packet's (`PacketLists::lane_into`) are its scalar gather's
/// (`tiles::gather`) entry for entry, bit for bit, the packet's MAC tallies
/// are the sum of the scalar gathers', and the force region's field is the
/// scalar gathers' evaluated by the scalar kernel. Short last groups and
/// packets, quadrupoles, a padded MAC and co-located bodies included.
fn group_packets_are_the_scalar_gather_bitwise<F: Fixture>() {
    let _counting = counters_moving();
    let (tiers, skipped): (Vec<SimdLevel>, Vec<SimdLevel>) =
        SimdLevel::ALL.into_iter().partition(|&l| l <= simd_level());
    for level in skipped {
        eprintln!("{} not detected; skipping its tier", level.name());
    }
    let group = tiles::DEFAULT_GROUP;
    for n in [1, 31, 32, 33, 255, 257, 1000] {
        let (mut pos, mass) = random_system(n, F::SEED + 80 + n as u64);
        for k in (5..n).step_by(7) {
            pos[k] = pos[3];
        }
        for quad in [false, true] {
            let t = F::built(&pos, &mass, quad);
            for mac_pad in [0.0, 1e-3] {
                let params = ForceParams {
                    theta: 0.6,
                    g: 1.5,
                    softening: F::DUP_SOFTENING,
                    mac_pad,
                    use_quadrupole: quad,
                    ..blocked()
                };
                let what = format!("{} n={n} quad={quad} pad={mac_pad}", F::NAME);
                let theta2 = params.theta * params.theta;
                let eps2 = params.softening * params.softening;
                let (mut unused, mut scratch) = (vec![Vec3::ZERO; n], F::Scratch::default());
                let tiles = t.tiles(&pos, &mass, &mut unused, &params, &mut scratch);
                let view = tiles.view();
                let mut want_field = vec![[0; 3]; n];
                let mut lists = InteractionLists::new(quad);
                let mut packet = PacketLists::new(quad);
                let groups: Vec<_> =
                    (0..n).step_by(group).map(|s| s..(s + group).min(n)).collect();
                for members in groups.chunks(tiles::PACKET) {
                    let boxes: Vec<Aabb> = members
                        .iter()
                        .map(|g| {
                            let mut gbox = Aabb::EMPTY;
                            g.clone().for_each(|j| gbox.expand(view.target(j).0));
                            gbox
                        })
                        .collect();
                    let mut want_mac = MacCounts::default();
                    let want: Vec<_> = boxes
                        .iter()
                        .zip(members)
                        .map(|(&gbox, g)| {
                            lists.clear();
                            let mac = &mut want_mac;
                            tiles::gather(view, gbox, theta2, mac_pad, quad, &mut lists, mac);
                            for j in g.clone() {
                                let (p, slot) = view.target(j);
                                want_field[slot] = bits(lists.eval_at(p, params.g, eps2));
                            }
                            list_bits(&lists)
                        })
                        .collect();
                    for &level in &tiers {
                        let at = format!("{what} {} groups {:?}", level.name(), members[0]);
                        let (pad, out) = (mac_pad, &mut packet);
                        let mac = tiles::gather_packet(view, level, &boxes, theta2, pad, quad, out);
                        let tally = |m: &MacCounts| (m.accepts, m.opens);
                        assert_eq!(tally(&mac), tally(&want_mac), "{at}: MAC");
                        for (k, want) in want.iter().enumerate() {
                            packet.lane_into(k, &mut lists);
                            assert!(list_bits(&lists) == *want, "{at}: lane {k}'s lists");
                        }
                    }
                }
                drop(tiles);
                let region = t.forces(Par, &pos, &mass, &params);
                assert!(region.into_iter().map(bits).eq(want_field), "{what}: region field");
            }
        }
    }
}

/// The per-body pass dispatches by SIMD tier, so it records the tier in
/// the dispatch gauge (every other recorder records the same value).
#[test]
fn per_body_pass_records_the_dispatch_tier() {
    let _counting = counters_moving();
    let (pos, mass) = random_system(100, 11);
    metrics::SIMD_DISPATCH_LEVEL.reset();
    Bvh::built(&pos, &mass, false).forces(Seq, &pos, &mass, &ForceParams::default());
    let want = if telemetry::ENABLED { simd_level() as u64 } else { 0 };
    assert_eq!(metrics::SIMD_DISPATCH_LEVEL.get(), want);
}

fn theta_zero_blocked_matches_direct_sum<F: Fixture>() {
    let _counting = counters_moving();
    let (pos, mass) = random_system(257, F::SEED + 1);
    let t = F::built(&pos, &mass, false);
    let acc = t.forces(ParUnseq, &pos, &mass, &ForceParams { theta: 0.0, ..blocked() });
    for (i, &a) in acc.iter().enumerate() {
        let exact = direct_accel(pos[i], Some(i as u32), &pos, &mass, 1.0, 0.0);
        assert!(
            (a - exact).norm() <= 1e-10 * (1.0 + exact.norm()),
            "{} body {i}: {a:?} vs {exact:?}",
            F::NAME
        );
    }
}

fn blocked_error_within_per_body_budget<F: Fixture>() {
    let _counting = counters_moving();
    let (pos, mass) = random_system(1000, F::SEED + 2);
    let (t, exact) = (F::built(&pos, &mass, false), exact_field(&pos, &mass));
    let err = |params| mean_rel_error(&t.forces(ParUnseq, &pos, &mass, &params), &exact);
    // Per body the error grows with θ and meets the paper's budget at 0.5; the
    // largest error, where the exact force nearly cancels, gets a loose bound.
    let per_body = [0.2, 0.5, 1.0].map(|theta| err(ForceParams { theta, ..Default::default() }));
    let half = t.forces(ParUnseq, &pos, &mass, &ForceParams::default());
    let worst = rel_errors(&half, &exact).fold(0.0, f64::max);
    let what = (F::NAME, "per-body mean at θ = 0.2, 0.5, 1.0, max at 0.5", per_body, worst);
    assert!(per_body.is_sorted() && per_body[1] < 0.01 && per_body[2] < 0.05, "{what:?}");
    assert!(worst < 0.15, "{what:?}");
    let (mp, mb) = (per_body[1], err(ForceParams { theta: 0.5, ..blocked() }));
    // The group MAC is strictly more conservative than the per-body MAC
    // (box distance ≤ member distance: it opens at least every node the
    // per-body MAC opens), so the blocked answer must not be less accurate.
    assert!(mb <= mp + 1e-12, "{}: blocked mean rel err {mb} vs per-body {mp}", F::NAME);
    assert!(mb < 0.01, "{}: blocked mean rel err {mb}", F::NAME);
}

fn blocked_quadrupole_matches_budget<F: Fixture>() {
    let _counting = counters_moving();
    let (pos, mass) = random_system(600, F::SEED + 3);
    let (t, exact) = (F::built(&pos, &mass, true), exact_field(&pos, &mass));
    let err = |params| mean_rel_error(&t.forces(ParUnseq, &pos, &mass, &params), &exact);
    let mono = ForceParams { theta: F::QUAD_THETA, ..blocked() };
    let quad = ForceParams { use_quadrupole: true, ..mono };
    let mean = err(quad);
    assert!(mean < 0.01, "{}: mean relative error {mean}", F::NAME);
    // Per body, quadrupoles beat monopoles by a clear margin.
    let per_body = |params| err(ForceParams { eval: ForceEval::PerBody, ..params });
    let (eq, em) = (per_body(quad), per_body(mono));
    assert!(eq < 0.8 * em, "{}: per-body quadrupole {eq} vs monopole {em}", F::NAME);
}

fn blocked_edge_cases<F: Fixture>() {
    let _counting = counters_moving();
    for params in [ForceParams::default(), blocked()] {
        // Empty system: nothing to do, nothing to crash on.
        let t = F::built(&[], &[], false);
        assert!(t.forces(ParUnseq, &[], &[], &params).is_empty());
        // Single body: zero self force.
        let pos = vec![Vec3::new(0.3, 0.4, 0.5)];
        let t = F::built(&pos, &[2.0], false);
        assert_eq!(t.forces(ParUnseq, &pos, &[2.0], &params)[0], Vec3::ZERO);
        // Two bodies: Newton, a_0 = G m_1 / r² toward the other.
        let (pos, mass) = (vec![Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0)], vec![3.0, 5.0]);
        let two_g = ForceParams { g: 2.0, ..params };
        let acc = F::built(&pos, &mass, false).forces(Par, &pos, &mass, &two_g);
        assert!((acc[0] - Vec3::new(2.0 * 5.0 / 4.0, 0.0, 0.0)).norm() < 1e-12, "{}", F::NAME);
        assert!((acc[1] - Vec3::new(-2.0 * 3.0 / 4.0, 0.0, 0.0)).norm() < 1e-12, "{}", F::NAME);
        // A close encounter: softening ε bounds the acceleration by m / ε².
        let (pos, mass) = (vec![Vec3::ZERO, Vec3::new(1e-9, 0.0, 0.0)], vec![1.0, 1.0]);
        let soft = ForceParams { softening: 0.1, ..params };
        let acc = F::built(&pos, &mass, false).forces(Par, &pos, &mass, &soft);
        assert!(acc.iter().all(|a| a.is_finite() && a.norm() < 1.0 / (0.1f64 * 0.1)), "{acc:?}");
        // Duplicate positions stay finite and agree with each other (r = 0:
        // the zero-numerator guard).
        let p = Vec3::new(0.2, 0.2, 0.2);
        let pos = vec![p, p, Vec3::new(-0.7, 0.1, 0.0)];
        let mass = vec![1.0, 1.0, 1.0];
        let t = F::built(&pos, &mass, false);
        let soft = ForceParams { softening: F::DUP_SOFTENING, ..params };
        let acc = t.forces(ParUnseq, &pos, &mass, &soft);
        assert!(acc.iter().all(|a| a.is_finite()));
        assert!((acc[0] - acc[1]).norm() < 1e-12);
    }
}

/// Both trees resolve `group: 0` to the one default, one AVX-512F register
/// tile, bitwise on both kernels; the per-tree names are aliases of it.
fn zero_group_resolves_to_the_default_group<F: Fixture>() {
    let _counting = counters_moving();
    let (pos, mass) = random_system(200, F::SEED + 6);
    let t = F::built(&pos, &mass, false);
    for kernel in [ForceKernel::Scalar, ForceKernel::Simd] {
        let with_group = |group| ForceParams {
            eval: ForceEval::Blocked { group },
            kernel,
            ..ForceParams::default()
        };
        assert_eq!(
            t.forces(ParUnseq, &pos, &mass, &with_group(0)),
            t.forces(ParUnseq, &pos, &mass, &with_group(tiles::DEFAULT_GROUP)),
            "{} {kernel:?}",
            F::NAME
        );
    }
    assert_eq!(ForceEval::blocked().resolve_group(), Some(32));
    assert_eq!(Octree::DEFAULT_BLOCK_GROUP, tiles::DEFAULT_GROUP);
    assert_eq!(Bvh::DEFAULT_BLOCK_GROUP, tiles::DEFAULT_GROUP);
}

/// BVH only: Hilbert runs stay tight at any length, so the group size moves
/// the answer by far less than the θ = 0.5 error itself. (The octree's
/// group box is a subtree's cell; single bodies there already differ by 5 %
/// between group sizes.)
#[test]
fn bvh_group_size_only_perturbs_rounding() {
    let _counting = counters_moving();
    type F = Bvh;
    let (pos, mass) = random_system(500, F::SEED + 5);
    let t = F::built(&pos, &mass, false);
    let with_group =
        |group| ForceParams { eval: ForceEval::Blocked { group }, ..ForceParams::default() };
    let base = t.forces(ParUnseq, &pos, &mass, &with_group(8));
    for g in [1usize, 33, 512] {
        let a = t.forces(ParUnseq, &pos, &mass, &with_group(g));
        for i in 0..pos.len() {
            let rel = (a[i] - base[i]).norm() / (1e-12 + base[i].norm());
            assert!(rel < 0.05, "{} group {g}, body {i}: rel {rel}", F::NAME);
        }
    }
}

fn simd_kernel_matches_scalar_within_rounding<F: Fixture>() {
    let _counting = counters_moving();
    let (pos, mass) = random_system(700, F::SEED + 7);
    for quad in [false, true] {
        let t = F::built(&pos, &mass, quad);
        let base = ForceParams { theta: 0.6, use_quadrupole: quad, ..blocked() };
        let scalar = t.forces(ParUnseq, &pos, &mass, &base);
        let simd =
            t.forces(ParUnseq, &pos, &mass, &ForceParams { kernel: ForceKernel::Simd, ..base });
        for i in 0..pos.len() {
            let rel = (simd[i] - scalar[i]).norm() / (1e-12 + scalar[i].norm());
            assert!(rel < 1e-12, "{} quad={quad} body {i}: rel {rel}", F::NAME);
        }
        // Mixed precision stays within f32 noise of the f64 answer.
        let mixed = t.forces(
            ParUnseq,
            &pos,
            &mass,
            &ForceParams {
                kernel: ForceKernel::Simd,
                precision: KernelPrecision::MixedF32Far,
                ..base
            },
        );
        for i in 0..pos.len() {
            let rel = (mixed[i] - scalar[i]).norm() / (1e-12 + scalar[i].norm());
            assert!(rel < 1e-4, "{} mixed quad={quad} body {i}: rel {rel}", F::NAME);
        }
    }
}

#[derive(Clone, Copy)]
enum Bad {
    Positions,
    Masses,
    Accel,
    Quadrupole,
    /// Sorted (BVH) or rebuilt (octree) at new positions, moments not
    /// recomputed.
    StaleMoments,
}

/// Hand one malformed input to the force region (`tiles_only`: to the tiles'
/// constructor alone, which refuses before any region could start).
fn refuses<F: Fixture>(bad: Bad, tiles_only: bool) {
    let (pos, mass) = random_system(100, F::SEED + 9);
    let mut t = F::built(&pos, &mass, false);
    let (mut pos_in, mut mass_in, mut acc) = (pos.clone(), mass.clone(), vec![Vec3::ZERO; 100]);
    let mut params = blocked();
    match bad {
        Bad::Positions => pos_in.truncate(99),
        Bad::Masses => mass_in.truncate(99),
        Bad::Accel => acc.truncate(99),
        Bad::Quadrupole => params.use_quadrupole = true,
        Bad::StaleMoments => {
            pos_in = random_system(100, F::SEED + 10).0;
            t.rebuild_without_moments(&pos_in, &mass_in);
        }
    }
    if tiles_only {
        let mut scratch = F::Scratch::default();
        let _ = t.tiles(&pos_in, &mass_in, &mut acc, &params, &mut scratch);
    } else {
        t.forces_into(ParUnseq, &pos_in, &mass_in, &mut acc, &params);
    }
}

macro_rules! for_both_trees {
    ($($test:ident),* $(,)?) => {
        mod bvh {
            $(#[test] fn $test() { super::$test::<super::Bvh>() })*
        }
        mod octree {
            $(#[test] fn $test() { super::$test::<super::Octree>() })*
        }
    };
}

for_both_trees!(
    tiles_partition_and_every_driver_agrees,
    walk_conformance,
    per_body_packets_are_the_scalar_walk_bitwise,
    group_packets_are_the_scalar_gather_bitwise,
    theta_zero_blocked_matches_direct_sum,
    blocked_error_within_per_body_budget,
    blocked_quadrupole_matches_budget,
    blocked_edge_cases,
    zero_group_resolves_to_the_default_group,
    simd_kernel_matches_scalar_within_rounding,
);

macro_rules! refusals {
    ($($name:ident: $tree:ty, $bad:ident, $tiles_only:expr, $msg:literal;)*) => {
        mod refuses {
            use super::*;
            $(
                #[test]
                #[should_panic(expected = $msg)]
                fn $name() {
                    super::refuses::<$tree>(Bad::$bad, $tiles_only)
                }
            )*
        }
    };
}

refusals!(
    bvh_region_positions: Bvh, Positions, false, "positions length changed since sort";
    bvh_graph_positions: Bvh, Positions, true, "positions length changed since sort";
    bvh_region_accel: Bvh, Accel, false, "accel length mismatch";
    bvh_graph_accel: Bvh, Accel, true, "accel length mismatch";
    bvh_region_quadrupole: Bvh, Quadrupole, false, "quadrupole requested but not accumulated";
    bvh_graph_quadrupole: Bvh, Quadrupole, true, "quadrupole requested but not accumulated";
    bvh_region_stale_moments: Bvh, StaleMoments, false, "moments not accumulated since sort or build";
    bvh_graph_stale_moments: Bvh, StaleMoments, true, "moments not accumulated since sort or build";
    octree_region_positions: Octree, Positions, false, "positions length changed since build";
    octree_graph_positions: Octree, Positions, true, "positions length changed since build";
    octree_region_masses: Octree, Masses, false, "masses length mismatch";
    octree_graph_masses: Octree, Masses, true, "masses length mismatch";
    octree_region_accel: Octree, Accel, false, "accel length mismatch";
    octree_graph_accel: Octree, Accel, true, "accel length mismatch";
    octree_region_quadrupole: Octree, Quadrupole, false, "quadrupole requested but not computed";
    octree_graph_quadrupole: Octree, Quadrupole, true, "quadrupole requested but not computed";
    octree_region_stale_moments: Octree, StaleMoments, false, "multipoles not computed since build";
    octree_graph_stale_moments: Octree, StaleMoments, true, "multipoles not computed since build";
);
