//! Flat SoA interaction lists for the blocked force traversal, and the
//! scalar + SIMD kernels that consume them.
//!
//! The blocked CALCULATEFORCE path (see [`crate::gravity::ForceEval`])
//! separates *tree walking* from *force evaluation*: one conservative
//! traversal per body group collects everything the group interacts with
//! into two flat lists — opened leaf bodies (exact pair interactions) and
//! accepted nodes (multipole interactions) — and every group member is then
//! evaluated against those lists with tight loops over structure-of-arrays
//! `x/y/z/m` data. The loops carry no tree state, no tags and no pointer
//! chasing, so they admit all-pairs-style inner-loop optimisation (Tokuue
//! & Ishiyama; Cornerstone's traversal batching makes the same locality
//! argument).
//!
//! Two kernels consume the lists (selected by
//! [`crate::gravity::ForceKernel`]):
//!
//! * [`InteractionLists::eval_at`] — the scalar oracle: one target against
//!   the whole list, term-by-term identical to the per-body kernels.
//! * [`InteractionLists::eval_group`] — the tiled SIMD microkernel: the
//!   whole group of targets against L1-resident tiles of sources, sources
//!   across [`f64x4`] lanes, remainders masked by zero-mass sentinel
//!   padding so no list length is special-cased by allocation. An opt-in
//!   mixed-precision mode ([`KernelPrecision::MixedF32Far`]) accumulates
//!   far-field monopole terms in [`f32x8`].
//!
//! Both tree crates share these types so the octree and the BVH blocked
//! paths evaluate bit-identical kernels over their respective lists.

use crate::gravity::KernelPrecision;
use crate::simd::{f32x8, f64x4, simd_level, SimdF32, SimdF64, SimdLevel, F32_LANES, F64_LANES};
use crate::vec3::Vec3;

/// Sources per cache tile of the group×list microkernel: 4 SoA arrays ×
/// 256 × 8 B = 8 KiB, small enough that a tile stays L1-resident while
/// every target of the group streams over it.
const TILE: usize = 256;

/// Sentinel coordinate for masked remainder lanes: far from any real body
/// (workloads live within O(10²) of the origin), so the padded lane has
/// `r² > 0` for every target and its zero mass makes the lane contribute
/// exactly `0.0` — in f32 as well as f64 (1e10² = 1e20 is finite in f32).
const PAD_COORD: f64 = 1e10;

/// Central second moments of the accepted nodes, stored as six SoA columns
/// (xx, xy, xz, yy, yz, zz) so the quadrupole microkernel loads each
/// component with contiguous vector loads instead of gathering from an
/// array-of-structs.
#[derive(Clone, Debug, Default)]
pub struct QuadMoments {
    pub s: [Vec<f64>; 6],
}

impl QuadMoments {
    fn clear(&mut self) {
        for c in &mut self.s {
            c.clear();
        }
    }

    fn push(&mut self, q: [f64; 6]) {
        for (c, v) in self.s.iter_mut().zip(q) {
            c.push(v);
        }
    }

    /// Number of stored node moments.
    pub fn len(&self) -> usize {
        self.s[0].len()
    }

    /// True when no moments are stored.
    pub fn is_empty(&self) -> bool {
        self.s[0].is_empty()
    }
}

/// Interaction lists of one body group: SoA sources for the flat kernels.
///
/// The `quad` block is allocated only when quadrupole moments are in use;
/// when present its columns are index-aligned with the node list.
#[derive(Clone, Debug, Default)]
pub struct InteractionLists {
    /// Opened leaf bodies: positions (SoA) and masses.
    pub bx: Vec<f64>,
    pub by: Vec<f64>,
    pub bz: Vec<f64>,
    pub bm: Vec<f64>,
    /// Accepted nodes: centres of mass (SoA) and total masses.
    pub nx: Vec<f64>,
    pub ny: Vec<f64>,
    pub nz: Vec<f64>,
    pub nm: Vec<f64>,
    /// Optional central second moments, SoA per component.
    pub quad: Option<QuadMoments>,
}

impl InteractionLists {
    /// Empty lists; `want_quad` pre-arms the quadrupole block.
    pub fn new(want_quad: bool) -> Self {
        InteractionLists { quad: want_quad.then(QuadMoments::default), ..Default::default() }
    }

    /// Drop all entries, keeping allocations for reuse across groups.
    pub fn clear(&mut self) {
        self.bx.clear();
        self.by.clear();
        self.bz.clear();
        self.bm.clear();
        self.nx.clear();
        self.ny.clear();
        self.nz.clear();
        self.nm.clear();
        if let Some(q) = &mut self.quad {
            q.clear();
        }
    }

    /// Number of exact pair sources.
    #[inline]
    pub fn n_bodies(&self) -> usize {
        self.bx.len()
    }

    /// Number of multipole sources.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.nx.len()
    }

    /// Append an opened leaf body.
    #[inline]
    pub fn push_body(&mut self, p: Vec3, m: f64) {
        self.bx.push(p.x);
        self.by.push(p.y);
        self.bz.push(p.z);
        self.bm.push(m);
    }

    /// Append an accepted node (`quad` is ignored unless the block is armed).
    #[inline]
    pub fn push_node(&mut self, com: Vec3, m: f64, quad: Option<[f64; 6]>) {
        self.nx.push(com.x);
        self.ny.push(com.y);
        self.nz.push(com.z);
        self.nm.push(m);
        if let Some(q) = &mut self.quad {
            q.push(quad.unwrap_or([0.0; 6]));
        }
    }

    /// Acceleration at `p` from every listed source — the scalar oracle.
    ///
    /// Matches the per-body kernels term by term: pair sources use the
    /// softened monopole of [`crate::gravity::pair_accel`] (with its r² = 0
    /// guard, so a body in its own group contributes exactly zero), node
    /// sources the monopole+quadrupole of
    /// [`crate::gravity::multipole_accel`]. Only the summation *order*
    /// differs from the per-body traversal. `G` and the `eps²` broadcast
    /// are hoisted out of the inner loops: every source term accumulates
    /// the unscaled `m/r³` weight and the single `G` multiply happens once
    /// per component on exit.
    #[inline(always)]
    pub fn eval_at(&self, p: Vec3, g: f64, eps2: f64) -> Vec3 {
        let (mut ax, mut ay, mut az) = (0.0f64, 0.0f64, 0.0f64);

        // Exact pair interactions: branch-free except the compiled-to-select
        // zero-distance guard.
        for k in 0..self.bx.len() {
            let dx = self.bx[k] - p.x;
            let dy = self.by[k] - p.y;
            let dz = self.bz[k] - p.z;
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            let w = if r2 > 0.0 { self.bm[k] / (r2 * r2.sqrt()) } else { 0.0 };
            ax += dx * w;
            ay += dy * w;
            az += dz * w;
        }

        // Multipole interactions. Accepted nodes are strictly outside the
        // group box (the acceptance criterion rejects d = 0), so r2 > 0 is
        // kept only as a defensive select.
        match &self.quad {
            None => {
                for k in 0..self.nx.len() {
                    let dx = self.nx[k] - p.x;
                    let dy = self.ny[k] - p.y;
                    let dz = self.nz[k] - p.z;
                    let r2 = dx * dx + dy * dy + dz * dz + eps2;
                    let w = if r2 > 0.0 { self.nm[k] / (r2 * r2.sqrt()) } else { 0.0 };
                    ax += dx * w;
                    ay += dy * w;
                    az += dz * w;
                }
            }
            Some(quads) => {
                let [s0, s1, s2, s3, s4, s5] = &quads.s;
                for k in 0..self.nx.len() {
                    let dx = self.nx[k] - p.x;
                    let dy = self.ny[k] - p.y;
                    let dz = self.nz[k] - p.z;
                    let r2 = dx * dx + dy * dy + dz * dz + eps2;
                    if r2 <= 0.0 {
                        continue;
                    }
                    let r = r2.sqrt();
                    let inv_r3 = 1.0 / (r2 * r);
                    let m = self.nm[k];
                    ax += dx * (m * inv_r3);
                    ay += dy * (m * inv_r3);
                    az += dz * (m * inv_r3);
                    // Quadrupole terms; u points from the node COM to p.
                    let (ux, uy, uz) = (-dx, -dy, -dz);
                    let sux = s0[k] * ux + s1[k] * uy + s2[k] * uz;
                    let suy = s1[k] * ux + s3[k] * uy + s4[k] * uz;
                    let suz = s2[k] * ux + s4[k] * uy + s5[k] * uz;
                    let usu = ux * sux + uy * suy + uz * suz;
                    let tr = s0[k] + s3[k] + s5[k];
                    let inv_r5 = inv_r3 / r2;
                    let inv_r7 = inv_r5 / r2;
                    let c_u = 1.5 * tr * inv_r5 - 7.5 * usu * inv_r7;
                    ax += sux * (3.0 * inv_r5) + ux * c_u;
                    ay += suy * (3.0 * inv_r5) + uy * c_u;
                    az += suz * (3.0 * inv_r5) + uz * c_u;
                }
            }
        }
        Vec3::new(ax * g, ay * g, az * g)
    }

    /// Tiled SIMD evaluation of the whole group against these lists.
    ///
    /// Targets must have been gathered into `scratch` with
    /// [`KernelScratch::push_target`]; accelerations (already scaled by
    /// `g`) land in `scratch.ax/ay/az`, index-aligned with the targets.
    /// Dispatches once per call to the widest instruction set the CPU
    /// supports ([`simd_level`]); both instantiations execute the same
    /// IEEE-754 operation sequence, so results do not depend on the
    /// selected tier (see `crate::simd` module docs).
    pub fn eval_group(
        &self,
        scratch: &mut KernelScratch,
        g: f64,
        eps2: f64,
        precision: KernelPrecision,
        stats: &mut KernelStats,
    ) {
        // Far-field monopoles drop to f32 only when no quadrupole block is
        // armed: quadrupole corrections are near-field-accuracy terms and
        // stay in f64 (see DESIGN.md § SIMD force kernels).
        let far32 = precision == KernelPrecision::MixedF32Far && self.quad.is_none();
        if far32 {
            scratch.convert_far_sources(&self.nx, &self.ny, &self.nz, &self.nm);
        }
        stats.groups += 1;
        stats.tally(self.n_bodies(), F64_LANES);
        if far32 {
            stats.tally(self.n_nodes(), F32_LANES);
        } else {
            stats.tally(self.n_nodes(), F64_LANES);
        }
        match simd_level() {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => unsafe { eval_group_avx2(self, scratch, eps2, far32, stats) },
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2Fma => eval_group_portable(self, scratch, eps2, far32, stats),
            SimdLevel::Portable => eval_group_portable(self, scratch, eps2, far32, stats),
        }
        // The hoisted G multiply: once per target component, not per term.
        for t in 0..scratch.len() {
            scratch.ax[t] *= g;
            scratch.ay[t] *= g;
            scratch.az[t] *= g;
        }
    }
}

/// The AVX2+FMA instantiation: the kernel body over the 256-bit intrinsic
/// lane types. `#[target_feature]` blocks inlining into baseline callers,
/// so the indirect call is paid once per group.
///
/// # Safety
/// Caller must have verified AVX2+FMA support ([`simd_level`]) — this is
/// the runtime guarantee the `simd::avx2` types' safety contract names.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn eval_group_avx2(
    lists: &InteractionLists,
    scratch: &mut KernelScratch,
    eps2: f64,
    far32: bool,
    stats: &mut KernelStats,
) {
    eval_group_body::<crate::simd::avx2::F64x4A, crate::simd::avx2::F32x8A>(
        lists, scratch, eps2, far32, stats,
    );
}

/// Baseline-codegen instantiation over the portable array lane types.
fn eval_group_portable(
    lists: &InteractionLists,
    scratch: &mut KernelScratch,
    eps2: f64,
    far32: bool,
    stats: &mut KernelStats,
) {
    eval_group_body::<f64x4, f32x8>(lists, scratch, eps2, far32, stats);
}

/// The shared microkernel body, generic over the lane-operation impls:
/// every target of the group against L1-resident tiles of sources, sources
/// across lanes, accumulators per target. `#[inline(always)]` so each
/// instantiation compiles it under its own target features.
#[inline(always)]
fn eval_group_body<V: SimdF64, W: SimdF32>(
    lists: &InteractionLists,
    scratch: &mut KernelScratch,
    eps2: f64,
    far32: bool,
    stats: &mut KernelStats,
) {
    let n_targets = scratch.len();
    scratch.ax.clear();
    scratch.ax.resize(n_targets, 0.0);
    scratch.ay.clear();
    scratch.ay.resize(n_targets, 0.0);
    scratch.az.clear();
    scratch.az.resize(n_targets, 0.0);
    if n_targets == 0 {
        return;
    }

    // Exact pair sources (near field): always f64, zero-distance guard on
    // (a body can sit in its own group's list).
    stats.tiles += mono_tiles_f64::<V, true>(
        (&lists.bx, &lists.by, &lists.bz, &lists.bm),
        scratch,
        eps2,
    );

    match &lists.quad {
        None if far32 => {
            stats.tiles += mono_tiles_f32::<W>(scratch, eps2 as f32);
        }
        None => {
            // Guard off: the acceptance criterion guarantees every node is
            // strictly outside the group box (diag² < θ²·d² forces d² > 0),
            // so each target-to-COM distance is positive, and the masked
            // remainder lanes use far-away sentinels with r² ≈ 3e20.
            stats.tiles += mono_tiles_f64::<V, false>(
                (&lists.nx, &lists.ny, &lists.nz, &lists.nm),
                scratch,
                eps2,
            );
        }
        Some(q) => {
            stats.tiles += quad_tiles_f64::<V>(lists, q, scratch, eps2);
        }
    }
}

/// One masked remainder vector: the tail lanes `at..len` of the source
/// arrays, padded with far-away zero-mass sentinels.
#[inline(always)]
fn tail_f64<V: SimdF64>(s: &[f64], at: usize, pad: f64) -> V {
    let mut out = [pad; F64_LANES];
    for (i, v) in s[at..].iter().enumerate() {
        out[i] = *v;
    }
    V::from_lanes(out)
}

/// Monopole f64 microkernel over one SoA source list. Returns tiles
/// processed. Accumulates `m/r³`-weighted displacements into the scratch
/// accumulators (unscaled by G). `GUARD` selects the per-lane r² > 0 mask:
/// on for body lists (self-interactions), off for node lists where the
/// acceptance criterion already guarantees positive distances.
#[inline(always)]
fn mono_tiles_f64<V: SimdF64, const GUARD: bool>(
    (sx, sy, sz, sm): (&[f64], &[f64], &[f64], &[f64]),
    scratch: &mut KernelScratch,
    eps2: f64,
) -> u64 {
    let len = sx.len();
    if len == 0 {
        return 0;
    }
    let n_targets = scratch.len();
    let eps2v = V::splat(eps2);
    let mut tiles = 0u64;
    let mut tile = 0usize;
    while tile < len {
        let tend = (tile + TILE).min(len);
        let vend = tile + (tend - tile) / F64_LANES * F64_LANES;
        // Masked remainder of this tile, shared by every target.
        let (rx, ry, rz, rm) = if vend < tend {
            (
                tail_f64::<V>(&sx[..tend], vend, PAD_COORD),
                tail_f64::<V>(&sy[..tend], vend, PAD_COORD),
                tail_f64::<V>(&sz[..tend], vend, PAD_COORD),
                tail_f64::<V>(&sm[..tend], vend, 0.0),
            )
        } else {
            (V::zero(), V::zero(), V::zero(), V::zero())
        };
        for t in 0..n_targets {
            let px = V::splat(scratch.tx[t]);
            let py = V::splat(scratch.ty[t]);
            let pz = V::splat(scratch.tz[t]);
            let (mut accx, mut accy, mut accz) = (V::zero(), V::zero(), V::zero());
            let mut k = tile;
            while k < vend {
                let dx = V::load(sx, k).sub(px);
                let dy = V::load(sy, k).sub(py);
                let dz = V::load(sz, k).sub(pz);
                let r2 = dx.mul_add(dx, dy.mul_add(dy, dz.mul_add(dz, eps2v)));
                // w = m·r⁻³ via Newton rsqrt: the kernel is otherwise
                // divider-port-bound; when the guard is on, the masked
                // select doubles as the zero-distance guard (dead lanes
                // get w = 0 exactly).
                let rsq = r2.rsqrt();
                let rinv = if GUARD { V::zero_unless_pos(r2, rsq) } else { rsq };
                let w = V::load(sm, k).mul(rinv.mul(rinv).mul(rinv));
                accx = dx.mul_add(w, accx);
                accy = dy.mul_add(w, accy);
                accz = dz.mul_add(w, accz);
                k += F64_LANES;
            }
            if vend < tend {
                let dx = rx.sub(px);
                let dy = ry.sub(py);
                let dz = rz.sub(pz);
                let r2 = dx.mul_add(dx, dy.mul_add(dy, dz.mul_add(dz, eps2v)));
                let rsq = r2.rsqrt();
                let rinv = if GUARD { V::zero_unless_pos(r2, rsq) } else { rsq };
                let w = rm.mul(rinv.mul(rinv).mul(rinv));
                accx = dx.mul_add(w, accx);
                accy = dy.mul_add(w, accy);
                accz = dz.mul_add(w, accz);
            }
            scratch.ax[t] += accx.hsum();
            scratch.ay[t] += accy.hsum();
            scratch.az[t] += accz.hsum();
        }
        tiles += 1;
        tile = tend;
    }
    tiles
}

/// Mixed-precision far-field monopole microkernel: the converted f32
/// source copies in `scratch`, eight lanes at a time, per-target f32
/// accumulators widened to f64 once per tile.
#[inline(always)]
fn mono_tiles_f32<W: SimdF32>(scratch: &mut KernelScratch, eps2: f32) -> u64 {
    let len = scratch.far_len;
    if len == 0 {
        return 0;
    }
    let n_targets = scratch.len();
    let eps2v = W::splat(eps2);
    // The converted arrays are pre-padded to a lane multiple, so the whole
    // list is full vectors — remainder masking happened at conversion.
    let padded = scratch.fx.len();
    let mut tiles = 0u64;
    let mut tile = 0usize;
    while tile < padded {
        let tend = (tile + TILE).min(padded);
        for t in 0..n_targets {
            let px = W::splat(scratch.tx[t] as f32);
            let py = W::splat(scratch.ty[t] as f32);
            let pz = W::splat(scratch.tz[t] as f32);
            let (mut accx, mut accy, mut accz) = (W::zero(), W::zero(), W::zero());
            let mut k = tile;
            while k < tend {
                let dx = W::load(&scratch.fx, k).sub(px);
                let dy = W::load(&scratch.fy, k).sub(py);
                let dz = W::load(&scratch.fz, k).sub(pz);
                let r2 = dx.mul_add(dx, dy.mul_add(dy, dz.mul_add(dz, eps2v)));
                // Guard kept in f32: a node distance tiny in f64 can round
                // r² to 0.0f32, and an unguarded rsqrt(0) lane would poison
                // the accumulator with non-finite values.
                let rinv = W::zero_unless_pos(r2, r2.rsqrt());
                let w = W::load(&scratch.fm, k).mul(rinv.mul(rinv).mul(rinv));
                accx = dx.mul_add(w, accx);
                accy = dy.mul_add(w, accy);
                accz = dz.mul_add(w, accz);
                k += F32_LANES;
            }
            scratch.ax[t] += accx.hsum_f64();
            scratch.ay[t] += accy.hsum_f64();
            scratch.az[t] += accz.hsum_f64();
        }
        tiles += 1;
        tile = tend;
    }
    tiles
}

/// Monopole + quadrupole f64 microkernel over the node list with its SoA
/// second-moment columns. Same per-lane term structure as the scalar
/// quadrupole branch of [`InteractionLists::eval_at`].
#[inline(always)]
fn quad_tiles_f64<V: SimdF64>(
    lists: &InteractionLists,
    q: &QuadMoments,
    scratch: &mut KernelScratch,
    eps2: f64,
) -> u64 {
    let len = lists.nx.len();
    if len == 0 {
        return 0;
    }
    let n_targets = scratch.len();
    let [s0, s1, s2, s3, s4, s5] = &q.s;
    let eps2v = V::splat(eps2);
    let c15 = V::splat(1.5);
    // −7.5: the sign is folded into the constant so the c_u combination is
    // a single fused multiply-add instead of mul-mul-sub.
    let cn75 = V::splat(-7.5);
    let c3 = V::splat(3.0);
    // Quadrupole tiles carry 10 SoA arrays (80 B/source); halve the tile so
    // the working set stays L1-resident.
    let qtile = TILE / 2;
    let mut tiles = 0u64;
    let mut tile = 0usize;
    while tile < len {
        let tend = (tile + qtile).min(len);
        let vend = tile + (tend - tile) / F64_LANES * F64_LANES;
        let rem = vend < tend;
        // Masked remainder vectors (sentinel coordinates, zero mass and
        // zero moments → both monopole and quadrupole lanes vanish).
        let (rx, ry, rz, rm) = if rem {
            (
                tail_f64::<V>(&lists.nx[..tend], vend, PAD_COORD),
                tail_f64::<V>(&lists.ny[..tend], vend, PAD_COORD),
                tail_f64::<V>(&lists.nz[..tend], vend, PAD_COORD),
                tail_f64::<V>(&lists.nm[..tend], vend, 0.0),
            )
        } else {
            (V::zero(), V::zero(), V::zero(), V::zero())
        };
        let rs: [V; 6] = if rem {
            [
                tail_f64::<V>(&s0[..tend], vend, 0.0),
                tail_f64::<V>(&s1[..tend], vend, 0.0),
                tail_f64::<V>(&s2[..tend], vend, 0.0),
                tail_f64::<V>(&s3[..tend], vend, 0.0),
                tail_f64::<V>(&s4[..tend], vend, 0.0),
                tail_f64::<V>(&s5[..tend], vend, 0.0),
            ]
        } else {
            [V::zero(); 6]
        };
        for t in 0..n_targets {
            let px = V::splat(scratch.tx[t]);
            let py = V::splat(scratch.ty[t]);
            let pz = V::splat(scratch.tz[t]);
            let (mut accx, mut accy, mut accz) = (V::zero(), V::zero(), V::zero());
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            fn quad_step<V: SimdF64>(
                (px, py, pz): (V, V, V),
                (sx, sy, sz, sm): (V, V, V, V),
                s: [V; 6],
                (eps2v, c15, cn75, c3): (V, V, V, V),
                acc: (&mut V, &mut V, &mut V),
            ) {
                let dx = sx.sub(px);
                let dy = sy.sub(py);
                let dz = sz.sub(pz);
                let r2 = dx.mul_add(dx, dy.mul_add(dy, dz.mul_add(dz, eps2v)));
                // Reciprocal powers from one Newton rsqrt (the divider
                // port would otherwise serialise a sqrt plus three divs).
                // The masked select zeroes lanes with r² ≤ 0, so every
                // power below vanishes there, matching the scalar
                // `continue`.
                let rinv = V::zero_unless_pos(r2, r2.rsqrt());
                let inv_r2 = rinv.mul(rinv);
                let inv_r3 = inv_r2.mul(rinv);
                let inv_r5 = inv_r3.mul(inv_r2);
                let inv_r7 = inv_r5.mul(inv_r2);
                let w = sm.mul(inv_r3);
                *acc.0 = dx.mul_add(w, *acc.0);
                *acc.1 = dy.mul_add(w, *acc.1);
                *acc.2 = dz.mul_add(w, *acc.2);
                // u points from the node COM to the target: u = −d.
                let ux = px.sub(sx);
                let uy = py.sub(sy);
                let uz = pz.sub(sz);
                let sux = s[0].mul_add(ux, s[1].mul_add(uy, s[2].mul(uz)));
                let suy = s[1].mul_add(ux, s[3].mul_add(uy, s[4].mul(uz)));
                let suz = s[2].mul_add(ux, s[4].mul_add(uy, s[5].mul(uz)));
                let usu = ux.mul_add(sux, uy.mul_add(suy, uz.mul(suz)));
                let tr = s[0].add(s[3]).add(s[5]);
                // c_u = 1.5·tr·r⁻⁵ − 7.5·usu·r⁻⁷ with the sign inside cn75.
                let c_u = c15.mul(tr).mul_add(inv_r5, cn75.mul(usu).mul(inv_r7));
                let i5_3 = c3.mul(inv_r5);
                *acc.0 = sux.mul_add(i5_3, ux.mul_add(c_u, *acc.0));
                *acc.1 = suy.mul_add(i5_3, uy.mul_add(c_u, *acc.1));
                *acc.2 = suz.mul_add(i5_3, uz.mul_add(c_u, *acc.2));
            }
            let mut k = tile;
            while k < vend {
                quad_step::<V>(
                    (px, py, pz),
                    (
                        V::load(&lists.nx, k),
                        V::load(&lists.ny, k),
                        V::load(&lists.nz, k),
                        V::load(&lists.nm, k),
                    ),
                    [
                        V::load(s0, k),
                        V::load(s1, k),
                        V::load(s2, k),
                        V::load(s3, k),
                        V::load(s4, k),
                        V::load(s5, k),
                    ],
                    (eps2v, c15, cn75, c3),
                    (&mut accx, &mut accy, &mut accz),
                );
                k += F64_LANES;
            }
            if rem {
                quad_step(
                    (px, py, pz),
                    (rx, ry, rz, rm),
                    rs,
                    (eps2v, c15, cn75, c3),
                    (&mut accx, &mut accy, &mut accz),
                );
            }
            scratch.ax[t] += accx.hsum();
            scratch.ay[t] += accy.hsum();
            scratch.az[t] += accz.hsum();
        }
        tiles += 1;
        tile = tend;
    }
    tiles
}

/// Per-worker scratch of the SIMD group kernel: gathered target positions,
/// per-target accumulators, and the converted f32 far-field source copies
/// of the mixed-precision mode. Grow-only, pooled per worker next to the
/// interaction lists (see [`ListsPool`]), so warm steps allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct KernelScratch {
    /// Gathered target positions (SoA), one entry per group member.
    tx: Vec<f64>,
    ty: Vec<f64>,
    tz: Vec<f64>,
    /// Per-target acceleration accumulators, index-aligned with targets;
    /// scaled by `G` on kernel exit.
    pub ax: Vec<f64>,
    pub ay: Vec<f64>,
    pub az: Vec<f64>,
    /// f32 copies of the far-field node sources (mixed-precision mode),
    /// padded to a full [`f32x8`] multiple with sentinel lanes.
    fx: Vec<f32>,
    fy: Vec<f32>,
    fz: Vec<f32>,
    fm: Vec<f32>,
    /// Real (unpadded) far-field source count behind `fx..fm`.
    far_len: usize,
}

impl KernelScratch {
    /// Drop gathered targets (capacity retained) to start a new group.
    pub fn clear_targets(&mut self) {
        self.tx.clear();
        self.ty.clear();
        self.tz.clear();
    }

    /// Gather one group member as an evaluation target.
    #[inline]
    pub fn push_target(&mut self, p: Vec3) {
        self.tx.push(p.x);
        self.ty.push(p.y);
        self.tz.push(p.z);
    }

    /// Number of gathered targets.
    #[inline]
    pub fn len(&self) -> usize {
        self.tx.len()
    }

    /// True when no targets are gathered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tx.is_empty()
    }

    /// The evaluated acceleration of target `t` (valid after
    /// [`InteractionLists::eval_group`]).
    #[inline]
    pub fn accel(&self, t: usize) -> Vec3 {
        Vec3::new(self.ax[t], self.ay[t], self.az[t])
    }

    /// Convert the far-field node sources to f32, padding to a full lane
    /// multiple with sentinel entries so the f32 kernel needs no remainder
    /// path.
    fn convert_far_sources(&mut self, nx: &[f64], ny: &[f64], nz: &[f64], nm: &[f64]) {
        self.far_len = nx.len();
        let padded = self.far_len.div_ceil(F32_LANES) * F32_LANES;
        self.fx.clear();
        self.fy.clear();
        self.fz.clear();
        self.fm.clear();
        self.fx.extend(nx.iter().map(|&v| v as f32));
        self.fy.extend(ny.iter().map(|&v| v as f32));
        self.fz.extend(nz.iter().map(|&v| v as f32));
        self.fm.extend(nm.iter().map(|&v| v as f32));
        self.fx.resize(padded, PAD_COORD as f32);
        self.fy.resize(padded, PAD_COORD as f32);
        self.fz.resize(padded, PAD_COORD as f32);
        self.fm.resize(padded, 0.0);
    }
}

/// Chunk-local tally of SIMD-kernel work, flushed to telemetry once per
/// chunk by the blocked consumers (the math crate records nothing itself).
///
/// Lane utilization is list-shaped: `active_lanes / lane_slots` measures
/// how much of the vector width real sources occupy after sentinel
/// padding, independent of how many targets streamed over the list.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Groups evaluated through the SIMD kernel.
    pub groups: u64,
    /// Source tiles processed (across all lists and targets).
    pub tiles: u64,
    /// Total source lane slots, including sentinel padding.
    pub lane_slots: u64,
    /// Lane slots occupied by real sources.
    pub active_lanes: u64,
}

impl KernelStats {
    #[inline]
    fn tally(&mut self, sources: usize, lanes: usize) {
        self.active_lanes += sources as u64;
        self.lane_slots += (sources.div_ceil(lanes) * lanes) as u64;
    }
}

/// One worker's kernel state: its interaction lists plus the SIMD scratch
/// that evaluates them. Pooled per worker slot (see [`ListsPool`]).
#[derive(Default)]
pub struct WorkerKernelState {
    pub lists: InteractionLists,
    pub scratch: KernelScratch,
}

/// Capacity view of a grow-only buffer: the f64 and f32 columns of a
/// [`WorkerKernelState`] level alike.
trait GrowOnly {
    fn capacity(&self) -> usize;
    /// Raise the capacity to `cap` — exactly, so that levelling never
    /// overshoots the high-water mark and sets off another round.
    fn grow_to(&mut self, cap: usize);
}

impl<T> GrowOnly for Vec<T> {
    fn capacity(&self) -> usize {
        Vec::capacity(self)
    }

    fn grow_to(&mut self, cap: usize) {
        if self.capacity() < cap {
            self.reserve_exact(cap - self.len());
        }
    }
}

impl WorkerKernelState {
    /// Every heap buffer of this state, in a fixed order. The patterns name
    /// each field on purpose: a buffer added later does not compile until it
    /// is listed here, so it cannot escape [`ListsPool`]'s levelling.
    fn buffers_mut(&mut self) -> impl Iterator<Item = &mut dyn GrowOnly> {
        let WorkerKernelState {
            lists: InteractionLists { bx, by, bz, bm, nx, ny, nz, nm, quad },
            scratch: KernelScratch { tx, ty, tz, ax, ay, az, fx, fy, fz, fm, far_len: _ },
        } = self;
        let quad = quad.iter_mut().flat_map(|q| q.s.iter_mut());
        [bx, by, bz, bm, nx, ny, nz, nm, tx, ty, tz, ax, ay, az]
            .into_iter()
            .chain(quad)
            .map(|v| v as &mut dyn GrowOnly)
            .chain([fx, fy, fz, fm].into_iter().map(|v| v as &mut dyn GrowOnly))
    }
}

/// Per-worker pool of reusable kernel states, keyed by worker slot.
///
/// The blocked traversals walk the tree once per body group and previously
/// allocated fresh lists for every group. The pool instead holds one
/// long-lived state per *worker* (an executor-provided dense index, see
/// `stdpar::for_each_chunk_worker`): each group clears and refills its
/// worker's lists and target scratch, so the steady state performs zero
/// heap allocations once the buffers have grown to the largest group's
/// interaction count.
///
/// Slots are `UnsafeCell`s rather than mutexes on purpose: the blocked
/// force phase runs under `ParUnseq` (weakly parallel forward progress),
/// where blocking synchronisation is forbidden. Safety instead comes from
/// the executor contract that a worker index is never observed concurrently
/// by two threads.
#[derive(Default)]
pub struct ListsPool {
    slots: Vec<std::cell::UnsafeCell<WorkerKernelState>>,
}

// SAFETY: distinct slots are disjoint, and the executor contract (one
// worker index per thread at a time) makes each slot effectively
// thread-local for the duration of a parallel region.
unsafe impl Sync for ListsPool {}

impl ListsPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the pool for a parallel region: at least `workers` slots, each
    /// with its quadrupole block armed iff `want_quad`. Takes `&mut self`
    /// (no region may be in flight), so this is the only place slots are
    /// created. Existing slot capacity is retained.
    pub fn prepare(&mut self, workers: usize, want_quad: bool) {
        if self.slots.len() < workers {
            self.slots.resize_with(workers, || {
                std::cell::UnsafeCell::new(WorkerKernelState {
                    lists: InteractionLists::new(want_quad),
                    scratch: KernelScratch::default(),
                })
            });
        }
        for slot in &mut self.slots {
            let lists = &mut slot.get_mut().lists;
            match (&mut lists.quad, want_quad) {
                (q @ None, true) => *q = Some(QuadMoments::default()),
                (q @ Some(_), false) => *q = None,
                _ => {}
            }
        }
        self.level_capacities();
    }

    /// Raise every slot's buffers to the largest capacity any slot has
    /// reached. Which worker meets the longest list is the scheduler's
    /// choice and differs from step to step; without this a slot keeps
    /// growing (allocating) until it has met that list itself, with it the
    /// pool is warm one region after *any* worker has.
    fn level_capacities(&mut self) {
        let Some((first, rest)) = self.slots.split_first_mut() else { return };
        let first = first.get_mut();
        // Slot 0 up to the high-water mark, then every slot up to slot 0.
        for other in rest.iter_mut() {
            for (high, buf) in first.buffers_mut().zip(other.get_mut().buffers_mut()) {
                high.grow_to(buf.capacity());
            }
        }
        for other in rest {
            for (high, buf) in first.buffers_mut().zip(other.get_mut().buffers_mut()) {
                buf.grow_to(high.capacity());
            }
        }
    }

    /// Number of prepared slots.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Borrow worker `worker`'s kernel state for the duration of one group.
    ///
    /// The slot index is bounds-checked unconditionally (not just in debug
    /// builds): an unprepared pool is a caller bug that must fail loudly in
    /// release too, not reach `UnsafeCell::get` on an out-of-range slot.
    ///
    /// # Panics
    /// If `worker >= self.workers()` — call [`ListsPool::prepare`] for this
    /// region's worker count first.
    ///
    /// # Safety
    /// No two threads may pass the same `worker` concurrently — guaranteed
    /// when `worker` is the executor's worker index.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slot(&self, worker: usize) -> &mut WorkerKernelState {
        assert!(
            worker < self.slots.len(),
            "ListsPool::slot: worker {worker} out of bounds ({} slots prepared); \
             call prepare() before the parallel region",
            self.slots.len()
        );
        unsafe { &mut *self.slots[worker].get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::{multipole_accel, pair_accel};
    use crate::rng::SplitMix64;

    fn rand_vec(r: &mut SplitMix64) -> Vec3 {
        Vec3::new(r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0), r.uniform(-1.0, 1.0))
    }

    /// SIMD evaluation of one probe against `lists`, through a throwaway
    /// scratch.
    fn simd_eval(lists: &InteractionLists, p: Vec3, g: f64, eps2: f64) -> Vec3 {
        let mut scratch = KernelScratch::default();
        scratch.clear_targets();
        scratch.push_target(p);
        let mut stats = KernelStats::default();
        lists.eval_group(&mut scratch, g, eps2, KernelPrecision::F64, &mut stats);
        assert_eq!(stats.groups, 1);
        scratch.accel(0)
    }

    #[test]
    fn matches_pair_accel_sum() {
        let mut r = SplitMix64::new(7);
        let mut lists = InteractionLists::new(false);
        let mut srcs = vec![];
        for _ in 0..64 {
            let p = rand_vec(&mut r);
            let m = r.uniform(0.5, 2.0);
            lists.push_body(p, m);
            srcs.push((p, m));
        }
        let probe = Vec3::new(0.1, -0.3, 0.2);
        let eps2 = 1e-6;
        let got = lists.eval_at(probe, 2.0, eps2);
        let mut want = Vec3::ZERO;
        for (p, m) in srcs {
            want += pair_accel(p - probe, m, 2.0, eps2);
        }
        assert!((got - want).norm() < 1e-13 * (1.0 + want.norm()));
        // The SIMD kernel reassociates the sum and its Newton-rsqrt
        // reciprocal is a few ulp off the scalar div+sqrt per term.
        let simd = simd_eval(&lists, probe, 2.0, eps2);
        assert!((simd - want).norm() < 1e-13 * (1.0 + want.norm()));
    }

    #[test]
    fn matches_multipole_accel_sum_with_quadrupole() {
        let mut r = SplitMix64::new(8);
        let mut lists = InteractionLists::new(true);
        let mut srcs = vec![];
        for _ in 0..32 {
            let com = rand_vec(&mut r) + Vec3::splat(3.0); // well outside
            let m = r.uniform(0.5, 2.0);
            let q: [f64; 6] = std::array::from_fn(|_| r.uniform(-0.01, 0.01));
            lists.push_node(com, m, Some(q));
            srcs.push((com, m, q));
        }
        let probe = Vec3::new(0.1, -0.3, 0.2);
        let got = lists.eval_at(probe, 1.0, 0.0);
        let mut want = Vec3::ZERO;
        for (com, m, q) in srcs {
            want += multipole_accel(com - probe, m, Some(&q), 1.0, 0.0);
        }
        assert!((got - want).norm() < 1e-12 * (1.0 + want.norm()), "{got:?} vs {want:?}");
        let simd = simd_eval(&lists, probe, 1.0, 0.0);
        assert!((simd - want).norm() < 1e-12 * (1.0 + want.norm()), "{simd:?} vs {want:?}");
    }

    #[test]
    fn self_source_contributes_zero() {
        let mut lists = InteractionLists::new(false);
        let p = Vec3::new(0.4, 0.5, 0.6);
        lists.push_body(p, 7.0);
        assert_eq!(lists.eval_at(p, 1.0, 0.0), Vec3::ZERO);
        // With softening the zero displacement still yields zero force.
        assert_eq!(lists.eval_at(p, 1.0, 0.01), Vec3::ZERO);
        // The SIMD zero-distance guard is per-lane and must agree.
        assert_eq!(simd_eval(&lists, p, 1.0, 0.0), Vec3::ZERO);
    }

    #[test]
    fn clear_keeps_quad_block_armed() {
        let mut lists = InteractionLists::new(true);
        lists.push_node(Vec3::splat(2.0), 1.0, Some([0.1; 6]));
        lists.push_body(Vec3::ZERO, 1.0);
        lists.clear();
        assert_eq!(lists.n_bodies(), 0);
        assert_eq!(lists.n_nodes(), 0);
        assert!(lists.quad.as_ref().is_some_and(|q| q.is_empty()));
    }

    #[test]
    fn empty_lists_give_zero() {
        let lists = InteractionLists::new(false);
        assert_eq!(lists.eval_at(Vec3::splat(1.0), 1.0, 0.0), Vec3::ZERO);
        assert_eq!(simd_eval(&lists, Vec3::splat(1.0), 1.0, 0.0), Vec3::ZERO);
    }

    #[test]
    fn simd_remainder_classes_match_scalar() {
        // Every lane-remainder class for both lane widths (len % 8 covers
        // len % 4), bodies and monopole nodes, multi-target groups.
        let mut r = SplitMix64::new(99);
        for len in 16..=31usize {
            let mut lists = InteractionLists::new(false);
            for _ in 0..len {
                lists.push_body(rand_vec(&mut r), r.uniform(0.5, 2.0));
                lists.push_node(rand_vec(&mut r) + Vec3::splat(4.0), r.uniform(0.5, 2.0), None);
            }
            let mut scratch = KernelScratch::default();
            scratch.clear_targets();
            let targets: Vec<Vec3> = (0..5).map(|_| rand_vec(&mut r)).collect();
            for &t in &targets {
                scratch.push_target(t);
            }
            let mut stats = KernelStats::default();
            lists.eval_group(&mut scratch, 1.5, 1e-4, KernelPrecision::F64, &mut stats);
            for (i, &t) in targets.iter().enumerate() {
                let want = lists.eval_at(t, 1.5, 1e-4);
                let got = scratch.accel(i);
                assert!(
                    (got - want).norm() <= 1e-13 * (1.0 + want.norm()),
                    "len {len} target {i}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn mixed_precision_far_field_is_close_and_near_field_exact() {
        let mut r = SplitMix64::new(101);
        let mut lists = InteractionLists::new(false);
        for _ in 0..40 {
            lists.push_node(rand_vec(&mut r) + Vec3::splat(5.0), r.uniform(0.5, 2.0), None);
        }
        let probe = rand_vec(&mut r);
        let mut scratch = KernelScratch::default();
        scratch.clear_targets();
        scratch.push_target(probe);
        let mut stats = KernelStats::default();
        lists.eval_group(&mut scratch, 1.0, 0.0, KernelPrecision::MixedF32Far, &mut stats);
        let got = scratch.accel(0);
        let want = lists.eval_at(probe, 1.0, 0.0);
        // f32 mantissa noise on far-field terms only: ~1e-7 relative.
        assert!((got - want).norm() < 1e-5 * (1.0 + want.norm()), "{got:?} vs {want:?}");
        assert!((got - want).norm() > 0.0, "f32 path should differ in the last bits");

        // A bodies-only list in mixed mode stays pure f64 (near field).
        let mut near = InteractionLists::new(false);
        for _ in 0..17 {
            near.push_body(rand_vec(&mut r), r.uniform(0.5, 2.0));
        }
        scratch.clear_targets();
        scratch.push_target(probe);
        near.eval_group(&mut scratch, 1.0, 1e-6, KernelPrecision::MixedF32Far, &mut stats);
        let got = scratch.accel(0);
        let f64_path = simd_eval(&near, probe, 1.0, 1e-6);
        assert_eq!(got, f64_path, "near-field terms must not drop to f32");
    }

    #[test]
    fn kernel_stats_count_lane_padding() {
        let mut lists = InteractionLists::new(false);
        for i in 0..10 {
            lists.push_body(Vec3::splat(i as f64 + 2.0), 1.0);
        }
        let mut scratch = KernelScratch::default();
        scratch.clear_targets();
        scratch.push_target(Vec3::ZERO);
        let mut stats = KernelStats::default();
        lists.eval_group(&mut scratch, 1.0, 0.0, KernelPrecision::F64, &mut stats);
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.active_lanes, 10);
        // 10 bodies → 3 f64x4 vectors = 12 slots; empty node list adds none.
        assert_eq!(stats.lane_slots, 12);
        assert!(stats.tiles >= 1);
    }

    #[test]
    fn pool_prepare_arms_and_disarms_quad() {
        let mut pool = ListsPool::new();
        pool.prepare(3, true);
        assert_eq!(pool.workers(), 3);
        for w in 0..3 {
            let state = unsafe { pool.slot(w) };
            assert!(state.lists.quad.is_some());
            state.lists.push_node(Vec3::splat(2.0), 1.0, Some([0.1; 6]));
        }
        // Re-preparing without quadrupoles disarms the block; slot count
        // never shrinks.
        pool.prepare(2, false);
        assert_eq!(pool.workers(), 3);
        for w in 0..3 {
            let state = unsafe { pool.slot(w) };
            assert!(state.lists.quad.is_none());
        }
        pool.prepare(3, true);
        assert!(unsafe { pool.slot(0) }.lists.quad.is_some());
    }

    #[test]
    fn pool_prepare_levels_every_buffer_to_the_high_water_mark() {
        let mut pool = ListsPool::new();
        pool.prepare(3, true);
        // Whichever slot met the long lists, every slot is that warm after
        // the next prepare — f32 far-field copies and quad columns included.
        let state = unsafe { pool.slot(1) };
        for i in 0..100 {
            state.lists.push_body(Vec3::splat(i as f64), 1.0);
            state.lists.push_node(Vec3::splat(2.0), 1.0, Some([0.1; 6]));
            state.scratch.push_target(Vec3::splat(1.0));
        }
        let mut stats = KernelStats::default();
        state.lists.eval_group(&mut state.scratch, 1.0, 1e-6, KernelPrecision::F64, &mut stats);
        let l = &state.lists;
        state.scratch.convert_far_sources(&l.nx, &l.ny, &l.nz, &l.nm);
        pool.prepare(3, true);
        let caps = |pool: &ListsPool, w| -> Vec<usize> {
            unsafe { pool.slot(w) }.buffers_mut().map(|b| b.capacity()).collect()
        };
        let high = caps(&pool, 1);
        assert_eq!(high.len(), 24);
        assert!(high.iter().all(|&c| c > 0), "{high:?}");
        assert_eq!(caps(&pool, 0), high);
        assert_eq!(caps(&pool, 2), high);
        // Levelled: another prepare moves nothing.
        pool.prepare(3, true);
        assert_eq!(caps(&pool, 0), high);
    }

    #[test]
    #[should_panic(expected = "ListsPool::slot")]
    fn pool_slot_out_of_bounds_panics_with_clear_message() {
        // Regression: the bounds check was a `debug_assert!`, so a release
        // build of an unprepared pool fell through to raw slot indexing and
        // died with a bare "index out of bounds" (or worse, had the
        // indexing ever become unchecked, UB). The check is unconditional
        // now and names the pool and the missing prepare() call.
        let pool = ListsPool::new();
        let _ = unsafe { pool.slot(0) };
    }

    #[test]
    fn pool_slots_are_independent() {
        let mut pool = ListsPool::new();
        pool.prepare(2, false);
        unsafe {
            pool.slot(0).lists.push_body(Vec3::splat(1.0), 1.0);
            pool.slot(0).scratch.push_target(Vec3::splat(1.0));
            assert_eq!(pool.slot(0).lists.n_bodies(), 1);
            assert_eq!(pool.slot(0).scratch.len(), 1);
            assert_eq!(pool.slot(1).lists.n_bodies(), 0);
            assert_eq!(pool.slot(1).scratch.len(), 0);
        }
    }
}
