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
//!   group's targets across vector lanes (padded to a lane multiple with
//!   copies of the last target), each source broadcast once to a register
//!   tile of target vectors, L1-resident tiles of sources. Every target's
//!   sum is one sequential chain in the scalar oracle's order — bodies,
//!   then nodes — so nothing is reduced across lanes, no list length needs
//!   a special case, and the bits do not depend on the lane count. An
//!   opt-in mixed-precision mode ([`KernelPrecision::MixedF32Far`])
//!   accumulates far-field monopole terms in f32 lanes, widened into the
//!   f64 sum once per source tile.
//!
//! Both tree crates share these types so the octree and the BVH blocked
//! paths evaluate bit-identical kernels over their respective lists.

use crate::gravity::KernelPrecision;
use crate::simd::{f32x8, f64x4, simd_level, Simd, SimdLevel};
use crate::vec3::Vec3;
use std::ops::Range;

/// Sources per cache tile of the group×list microkernel: 4 SoA arrays ×
/// 256 × 8 B = 8 KiB, small enough that a tile stays L1-resident while
/// every target vector of the group streams over it. Also the period at
/// which the f32 far field widens its sums into f64.
const TILE: usize = 256;

/// The widest lane count of any tier (f32 under AVX-512F): the size of the
/// stack buffers that narrow f32 targets and widen f32 sums.
const MAX_LANES: usize = 16;

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

    /// Every column: bodies, nodes, then the quadrupole block's. The
    /// pattern names each field, so a column added later is not missed.
    fn columns_mut(&mut self) -> impl Iterator<Item = &mut Vec<f64>> {
        let InteractionLists { bx, by, bz, bm, nx, ny, nz, nm, quad } = self;
        let quad = quad.iter_mut().flat_map(|q| q.s.iter_mut());
        [bx, by, bz, bm, nx, ny, nz, nm].into_iter().chain(quad)
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
    ///
    /// `#[inline(always)]`, like [`InteractionLists::push_node`]: called from
    /// the gather walk's hot loop, where an outlined call costs more than the
    /// four pushes.
    #[inline(always)]
    pub fn push_body(&mut self, p: Vec3, m: f64) {
        self.bx.push(p.x);
        self.by.push(p.y);
        self.bz.push(p.z);
        self.bm.push(m);
    }

    /// Append an accepted node (`quad` is ignored unless the block is armed).
    ///
    /// `#[inline(always)]`: once per accepted node of every group walk. Left to
    /// the inliner, the shared gather called it out of line, and the octree's
    /// blocked step ran ~5 % slower than with per-tree gathers.
    #[inline(always)]
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
    /// `g`) are read back with [`KernelScratch::accel`], index-aligned with
    /// the targets. Dispatches once per call to the widest instruction set
    /// the CPU supports ([`simd_level`]). Every tier runs the same body with
    /// targets across lanes, so a target's result is the same sequence of
    /// IEEE-754 operations whatever the lane count: results do not depend
    /// on the selected tier (see `crate::simd` module docs).
    pub fn eval_group(
        &self,
        scratch: &mut KernelScratch,
        g: f64,
        eps2: f64,
        precision: KernelPrecision,
        stats: &mut KernelStats,
    ) {
        self.eval_group_on(simd_level(), scratch, g, eps2, precision, stats);
    }

    /// [`InteractionLists::eval_group`] on tier `level`.
    ///
    /// # Panics
    /// If `level` is wider than [`simd_level`] (the tiers up to the probed
    /// one are the ones this CPU runs).
    fn eval_group_on(
        &self,
        level: SimdLevel,
        scratch: &mut KernelScratch,
        g: f64,
        eps2: f64,
        precision: KernelPrecision,
        stats: &mut KernelStats,
    ) {
        assert!(level <= simd_level(), "SIMD tier {} is not supported by this CPU", level.name());
        // Far-field monopoles drop to f32 only when no quadrupole block is
        // armed: quadrupole corrections are near-field-accuracy terms and
        // stay in f64 (see DESIGN.md § SIMD force kernels).
        let far32 = precision == KernelPrecision::MixedF32Far && self.quad.is_none();
        if far32 {
            scratch.convert_far_sources(&self.nx, &self.ny, &self.nz, &self.nm);
        }
        stats.groups += 1;
        match level {
            // SAFETY (both arms): `level` is at most the probed tier
            // (asserted above), so the CPU has the instantiation's features.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512F => unsafe { eval_group_avx512(self, scratch, eps2, far32, stats) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2Fma => unsafe { eval_group_avx2(self, scratch, eps2, far32, stats) },
            _ => eval_group_portable(self, scratch, eps2, far32, stats),
        }
        // The hoisted G multiply: once per target component, not per term.
        for sum in &mut scratch.a {
            for v in sum {
                *v *= g;
            }
        }
    }
}

/// The AVX-512F instantiation: 8 f64 / 16 f32 target lanes, register tiles
/// of 4 target vectors (measured per shape, EXPERIMENTS.md § Targets across
/// lanes: best or tied on every shape at the default group, one f64 tile).
///
/// # Safety
/// Caller must have verified AVX-512F support ([`simd_level`]) — the
/// runtime guarantee the `simd::avx512` types' safety contract names.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn eval_group_avx512(
    lists: &InteractionLists,
    scratch: &mut KernelScratch,
    eps2: f64,
    far32: bool,
    stats: &mut KernelStats,
) {
    use crate::simd::avx512::{F32x16A, F64x8A};
    eval_group_body::<F64x8A, F32x16A, 4>(lists, scratch, eps2, far32, stats);
}

/// The AVX2+FMA instantiation: 4 f64 / 8 f32 target lanes, register tiles
/// of 2 target vectors (16 ymm registers; measured as for AVX-512: 2 ties 4
/// at groups 16 and 32, the default's four tiles, and wins at 8).
///
/// # Safety
/// Caller must have verified AVX2+FMA support ([`simd_level`]) — the
/// runtime guarantee the `simd::avx2` types' safety contract names.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn eval_group_avx2(
    lists: &InteractionLists,
    scratch: &mut KernelScratch,
    eps2: f64,
    far32: bool,
    stats: &mut KernelStats,
) {
    use crate::simd::avx2::{F32x8A, F64x4A};
    eval_group_body::<F64x4A, F32x8A, 2>(lists, scratch, eps2, far32, stats);
}

/// Baseline-codegen instantiation over the portable array lane types,
/// register tiles of 1 (every `R` measured ties behind the software `fma`).
fn eval_group_portable(
    lists: &InteractionLists,
    scratch: &mut KernelScratch,
    eps2: f64,
    far32: bool,
    stats: &mut KernelStats,
) {
    eval_group_body::<f64x4, f32x8, 1>(lists, scratch, eps2, far32, stats);
}

/// The one kernel body, generic over the f64 and f32 lane types and the
/// register tile `R` (target vectors per broadcast source): pad the targets
/// to a lane multiple, then stream the bodies and then the nodes over every
/// target vector. `#[inline(always)]` so each instantiation compiles it
/// under its own target features.
#[inline(always)]
fn eval_group_body<V, W, const R: usize>(
    lists: &InteractionLists,
    scratch: &mut KernelScratch,
    eps2: f64,
    far32: bool,
    stats: &mut KernelStats,
) where
    V: Simd<Elem = f64>,
    W: Simd<Elem = f32>,
{
    // Per instantiated tier, at compile time: a full default group is whole
    // f64 tiles, so it never reaches `stream`'s single-vector remainder.
    const { assert!(crate::tiles::DEFAULT_GROUP.is_multiple_of(V::LANES * R)) };
    let n = scratch.len();
    let lanes = if far32 { W::LANES } else { V::LANES };
    let KernelScratch { t, a, src32 } = scratch;
    for (t, a) in t.iter_mut().zip(a.iter_mut()) {
        a.clear();
        if let Some(&last) = t.last() {
            // Padding lanes repeat the last target: finite, strictly inside
            // the group box, and never read back.
            t.resize(n.div_ceil(lanes) * lanes, last);
            a.resize(t.len(), 0.0);
        }
    }
    if n == 0 {
        return;
    }

    // Exact pair sources (near field): always f64, zero-distance guard on
    // (a body can sit in its own group's list).
    let bodies = [&lists.bx, &lists.by, &lists.bz, &lists.bm].map(Vec::as_slice);
    stats.tiles += stream::<V, _, R>(&Mono::<_, true> { s: bodies, eps2 }, TILE, t, a, n);
    stats.tally(lists.n_bodies(), n, V::LANES);

    let nodes = [&lists.nx, &lists.ny, &lists.nz, &lists.nm].map(Vec::as_slice);
    match &lists.quad {
        None if far32 => {
            // Guard kept in f32: a node distance tiny in f64 can round r²
            // to 0.0f32, and an unguarded rsqrt(0) lane would poison the
            // sum with non-finite values.
            let far = Mono::<_, true> { s: src32.each_ref().map(Vec::as_slice), eps2: eps2 as f32 };
            stats.tiles += stream::<W, _, R>(&far, TILE, t, a, n);
            stats.tally(lists.n_nodes(), n, W::LANES);
        }
        None => {
            // Guard off: the acceptance criterion guarantees every node is
            // strictly outside the group box (diag² < θ²·d² forces d² > 0),
            // and every target lane, padding included, lies inside it.
            stats.tiles += stream::<V, _, R>(&Mono::<_, false> { s: nodes, eps2 }, TILE, t, a, n);
            stats.tally(lists.n_nodes(), n, V::LANES);
        }
        Some(q) => {
            let [s0, s1, s2, s3, s4, s5] = q.s.each_ref().map(Vec::as_slice);
            let [x, y, z, m] = nodes;
            let quad = Quad { s: [x, y, z, m, s0, s1, s2, s3, s4, s5], eps2 };
            // Quadrupole tiles carry 10 SoA arrays (80 B/source); halve the
            // tile so the working set stays L1-resident.
            stats.tiles += stream::<V, _, R>(&quad, TILE / 2, t, a, n);
            stats.tally(lists.n_nodes(), n, V::LANES);
        }
    }
    // Drop the padding lanes, so `accel` is bounds-checked against the
    // real targets (capacity is kept: warm steps allocate nothing).
    for col in t.iter_mut().chain(a.iter_mut()) {
        col.truncate(n);
    }
}

/// Every target vector of the group against one source list, tile by
/// tile: within a tile `R` target vectors at a time (single vectors for
/// the remainder), so each source is loaded and broadcast once per
/// register tile. Returns the source tiles streamed.
#[inline(always)]
fn stream<L, K, const R: usize>(
    k: &K,
    tile: usize,
    t: &[Vec<f64>; 3],
    a: &mut [Vec<f64>; 3],
    n: usize,
) -> u64
where
    L: Simd,
    L::Elem: Chain,
    K: Sources<L>,
{
    let vecs = n.div_ceil(L::LANES);
    let mut tiles = 0;
    for start in (0..k.len()).step_by(tile) {
        let src = start..(start + tile).min(k.len());
        let mut v = 0;
        while v + R <= vecs {
            register_tile::<L, K, R>(k, src.clone(), t, a, v);
            v += R;
        }
        while v < vecs {
            register_tile::<L, K, 1>(k, src.clone(), t, a, v);
            v += 1;
        }
        tiles += 1;
    }
    tiles
}

/// Sources `src` against target vectors `v..v + R`: targets and sums in
/// registers for the whole run of sources.
#[inline(always)]
fn register_tile<L, K, const R: usize>(
    k: &K,
    src: Range<usize>,
    t: &[Vec<f64>; 3],
    a: &mut [Vec<f64>; 3],
    v: usize,
) where
    L: Simd,
    L::Elem: Chain,
    K: Sources<L>,
{
    let at = |r: usize| (v + r) * L::LANES;
    let p: [[L; R]; 3] =
        std::array::from_fn(|c| std::array::from_fn(|r| <L::Elem as Chain>::targets(&t[c], at(r))));
    let mut acc: [[L; R]; 3] =
        std::array::from_fn(|c| std::array::from_fn(|r| <L::Elem as Chain>::seed(&a[c], at(r))));
    k.run(src, &p, &mut acc);
    for (sum, acc) in a.iter_mut().zip(acc) {
        for (r, acc) in acc.into_iter().enumerate() {
            <L::Elem as Chain>::flush(acc, sum, at(r));
        }
    }
}

/// How a lane type's register tile meets the per-target f64 sums.
trait Chain: Copy {
    /// Target lanes `at..` of one coordinate column.
    fn targets<L: Simd<Elem = Self>>(t: &[f64], at: usize) -> L;
    /// The sums a register tile starts from.
    fn seed<L: Simd<Elem = Self>>(sum: &[f64], at: usize) -> L;
    /// Hand a register tile's sums back.
    fn flush<L: Simd<Elem = Self>>(acc: L, sum: &mut [f64], at: usize);
}

/// f64: one sequential chain per target over the whole list — a register
/// tile continues it from, and leaves it in, the scratch.
impl Chain for f64 {
    #[inline(always)]
    fn targets<L: Simd<Elem = f64>>(t: &[f64], at: usize) -> L {
        L::load(t, at)
    }
    #[inline(always)]
    fn seed<L: Simd<Elem = f64>>(sum: &[f64], at: usize) -> L {
        L::load(sum, at)
    }
    #[inline(always)]
    fn flush<L: Simd<Elem = f64>>(acc: L, sum: &mut [f64], at: usize) {
        acc.store(sum, at);
    }
}

/// f32 (the mixed far field): targets narrowed lane by lane; each source
/// tile's chain starts at zero and is widened into the f64 sum at its end.
impl Chain for f32 {
    #[inline(always)]
    fn targets<L: Simd<Elem = f32>>(t: &[f64], at: usize) -> L {
        let mut lanes = [0.0f32; MAX_LANES];
        for (l, &v) in lanes.iter_mut().zip(&t[at..at + L::LANES]) {
            *l = v as f32;
        }
        L::load(&lanes, 0)
    }
    #[inline(always)]
    fn seed<L: Simd<Elem = f32>>(_: &[f64], _: usize) -> L {
        L::zero()
    }
    #[inline(always)]
    fn flush<L: Simd<Elem = f32>>(acc: L, sum: &mut [f64], at: usize) {
        let mut lanes = [0.0f32; MAX_LANES];
        acc.store(&mut lanes, 0);
        for (s, &l) in sum[at..at + L::LANES].iter_mut().zip(&lanes) {
            *s += l as f64;
        }
    }
}

/// A source list as a register tile streams it.
trait Sources<L: Simd> {
    fn len(&self) -> usize;
    /// Sources `src` against `R` target vectors `p` (x, y, z): each term is
    /// added to its target's sums in `acc`, in list order.
    fn run<const R: usize>(&self, src: Range<usize>, p: &[[L; R]; 3], acc: &mut [[L; R]; 3]);
}

/// Monopole sources: x, y, z, m columns. `GUARD` selects the per-lane
/// r² > 0 mask: on for body lists (a target meets itself) and the f32 far
/// field, off for f64 node lists, where the acceptance criterion already
/// guarantees positive distances.
struct Mono<'a, E, const GUARD: bool> {
    s: [&'a [E]; 4],
    eps2: E,
}

impl<L: Simd, const GUARD: bool> Sources<L> for Mono<'_, L::Elem, GUARD> {
    fn len(&self) -> usize {
        self.s[0].len()
    }

    #[inline(always)]
    fn run<const R: usize>(&self, src: Range<usize>, p: &[[L; R]; 3], acc: &mut [[L; R]; 3]) {
        let [x, y, z, m] = self.s.map(|c| &c[src.clone()]);
        let eps2 = L::splat(self.eps2);
        let mut a = *acc;
        for (((&x, &y), &z), &m) in x.iter().zip(y).zip(z).zip(m) {
            let (x, y, z, m) = (L::splat(x), L::splat(y), L::splat(z), L::splat(m));
            for r in 0..R {
                let dx = x.sub(p[0][r]);
                let dy = y.sub(p[1][r]);
                let dz = z.sub(p[2][r]);
                let r2 = dx.mul_add(dx, dy.mul_add(dy, dz.mul_add(dz, eps2)));
                // w = m·r⁻³ via Newton rsqrt: the kernel is otherwise
                // divider-port-bound; when the guard is on, the select
                // doubles as the zero-distance guard (dead lanes get w = 0
                // exactly).
                let rsq = r2.rsqrt();
                let rinv = if GUARD { L::zero_unless_pos(r2, rsq) } else { rsq };
                let w = m.mul(rinv.mul(rinv).mul(rinv));
                a[0][r] = dx.mul_add(w, a[0][r]);
                a[1][r] = dy.mul_add(w, a[1][r]);
                a[2][r] = dz.mul_add(w, a[2][r]);
            }
        }
        *acc = a;
    }
}

/// Monopole + quadrupole node sources: x, y, z, m and the six central
/// second-moment columns. Same per-term structure as the scalar quadrupole
/// branch of [`InteractionLists::eval_at`].
struct Quad<'a> {
    s: [&'a [f64]; 10],
    eps2: f64,
}

impl<L: Simd<Elem = f64>> Sources<L> for Quad<'_> {
    fn len(&self) -> usize {
        self.s[0].len()
    }

    #[inline(always)]
    fn run<const R: usize>(&self, src: Range<usize>, p: &[[L; R]; 3], acc: &mut [[L; R]; 3]) {
        let cols = self.s.map(|c| &c[src.clone()]);
        let eps2 = L::splat(self.eps2);
        // −7.5: the sign is folded into the constant so the c_u combination
        // is a single fused multiply-add instead of mul-mul-sub.
        let (cn75, c3) = (L::splat(-7.5), L::splat(3.0));
        let mut a = *acc;
        for k in 0..src.len() {
            let [x, y, z, m, s0, s1, s2, s3, s4, s5] = cols.map(|c| c[k]);
            // 1.5·tr(S) belongs to the source alone.
            let tr15 = L::splat(1.5 * (s0 + s3 + s5));
            let [x, y, z, m, s0, s1, s2, s3, s4, s5] =
                [x, y, z, m, s0, s1, s2, s3, s4, s5].map(L::splat);
            for r in 0..R {
                let (px, py, pz) = (p[0][r], p[1][r], p[2][r]);
                let dx = x.sub(px);
                let dy = y.sub(py);
                let dz = z.sub(pz);
                let r2 = dx.mul_add(dx, dy.mul_add(dy, dz.mul_add(dz, eps2)));
                // Reciprocal powers from one Newton rsqrt (the divider port
                // would otherwise serialise a sqrt plus three divs). The
                // select zeroes lanes with r² ≤ 0, so every power below
                // vanishes there, matching the scalar `continue`.
                let rinv = L::zero_unless_pos(r2, r2.rsqrt());
                let inv_r2 = rinv.mul(rinv);
                let inv_r3 = inv_r2.mul(rinv);
                let inv_r5 = inv_r3.mul(inv_r2);
                let inv_r7 = inv_r5.mul(inv_r2);
                let w = m.mul(inv_r3);
                a[0][r] = dx.mul_add(w, a[0][r]);
                a[1][r] = dy.mul_add(w, a[1][r]);
                a[2][r] = dz.mul_add(w, a[2][r]);
                // u points from the node COM to the target: u = −d.
                let ux = px.sub(x);
                let uy = py.sub(y);
                let uz = pz.sub(z);
                let sux = s0.mul_add(ux, s1.mul_add(uy, s2.mul(uz)));
                let suy = s1.mul_add(ux, s3.mul_add(uy, s4.mul(uz)));
                let suz = s2.mul_add(ux, s4.mul_add(uy, s5.mul(uz)));
                let usu = ux.mul_add(sux, uy.mul_add(suy, uz.mul(suz)));
                // c_u = 1.5·tr·r⁻⁵ − 7.5·usu·r⁻⁷ with the sign inside cn75.
                let c_u = tr15.mul_add(inv_r5, cn75.mul(usu).mul(inv_r7));
                let i5_3 = c3.mul(inv_r5);
                a[0][r] = sux.mul_add(i5_3, ux.mul_add(c_u, a[0][r]));
                a[1][r] = suy.mul_add(i5_3, uy.mul_add(c_u, a[1][r]));
                a[2][r] = suz.mul_add(i5_3, uz.mul_add(c_u, a[2][r]));
            }
        }
        *acc = a;
    }
}

/// The interaction lists of a packet of up to eight consecutive groups,
/// gathered by one lockstep walk (`tiles::gather_packet`): every entry any
/// group lists, once, in walk order, with the groups (lanes) that list it
/// as a bit mask beside it. [`PacketLists::lane_into`] copies one group's
/// lists out of it.
///
/// One shared list rather than one list per lane: consecutive groups list
/// mostly the same entries, and eight full lists per worker raised the
/// 16k workloads' peak RSS by 35–75 % (DESIGN.md "Group gather in
/// packets").
#[derive(Clone, Debug, Default)]
pub struct PacketLists {
    /// Every listed entry, once, in walk order.
    union: InteractionLists,
    /// The lanes listing each body of `union`, bit `k` for lane `k`.
    body_lanes: Vec<u8>,
    /// The lanes listing each node of `union`.
    node_lanes: Vec<u8>,
    /// Scratch of [`PacketLists::lane_into`]: the union positions of one
    /// lane's entries.
    index: Vec<u32>,
}

impl PacketLists {
    /// Empty lists; `want_quad` pre-arms the quadrupole block.
    pub fn new(want_quad: bool) -> Self {
        PacketLists { union: InteractionLists::new(want_quad), ..Default::default() }
    }

    /// Drop all entries, keeping allocations for reuse across packets.
    pub(crate) fn clear(&mut self) {
        self.union.clear();
        self.body_lanes.clear();
        self.node_lanes.clear();
    }

    /// Append an opened leaf body for the lanes of `lanes`.
    #[inline(always)]
    pub(crate) fn push_body(&mut self, p: Vec3, m: f64, lanes: u8) {
        self.union.push_body(p, m);
        self.body_lanes.push(lanes);
    }

    /// Append a node accepted by the lanes of `lanes`.
    #[inline(always)]
    pub(crate) fn push_node(&mut self, com: Vec3, m: f64, quad: Option<[f64; 6]>, lanes: u8) {
        self.union.push_node(com, m, quad);
        self.node_lanes.push(lanes);
    }

    /// Lane `k`'s lists into `lists`, replacing its entries: the entries
    /// whose mask has bit `k`, in union order — so exactly what lane `k`'s
    /// own walk would have listed, in its order.
    ///
    /// # Panics
    /// If `lists` and the union disagree on the quadrupole block.
    pub fn lane_into(&mut self, k: usize, lists: &mut InteractionLists) {
        let PacketLists { union, body_lanes, node_lanes, index } = self;
        assert_eq!(
            union.quad.is_some(),
            lists.quad.is_some(),
            "PacketLists::lane_into: quadrupole block armed on one side only"
        );
        // Both column orders are bodies (4), then nodes and their moments.
        let (mut src, mut dst) = (union.columns_mut(), lists.columns_mut());
        let bodies = lane_index(body_lanes, k, index);
        for (src, dst) in src.by_ref().zip(dst.by_ref()).take(4) {
            select(bodies, src, dst);
        }
        let nodes = lane_index(node_lanes, k, index);
        for (src, dst) in src.zip(dst) {
            select(nodes, src, dst);
        }
    }
}

/// The positions in `lanes` whose mask has bit `k`, in order: a
/// branchless compaction (every position written at the cursor, the
/// cursor advanced by the bit) into `index`.
#[inline(always)]
fn lane_index<'a>(lanes: &[u8], k: usize, index: &'a mut Vec<u32>) -> &'a [u32] {
    index.resize(lanes.len() + 1, 0);
    let mut at = 0;
    for (i, &m) in lanes.iter().enumerate() {
        index[at] = i as u32;
        at += usize::from(m >> k & 1);
    }
    &index[..at]
}

/// `dst` = the entries of `src` at `index`, sized to it.
#[inline(always)]
fn select(index: &[u32], src: &[f64], dst: &mut Vec<f64>) {
    dst.clear();
    dst.extend(index.iter().map(|&i| src[i as usize]));
}

/// Per-worker scratch of the SIMD group kernel: gathered target positions,
/// per-target sums, and the converted f32 far-field source copies of the
/// mixed-precision mode. Grow-only, pooled per worker next to the
/// interaction lists (see [`ListsPool`]), so warm steps allocate nothing —
/// the target padding included.
#[derive(Clone, Debug, Default)]
pub struct KernelScratch {
    /// Gathered target positions (x, y, z columns), one entry per group
    /// member. Inside [`InteractionLists::eval_group`] each column is padded
    /// to a lane multiple with copies of the last target.
    t: [Vec<f64>; 3],
    /// Per-target acceleration sums (x, y, z), index-aligned with the
    /// targets (padded like them inside the kernel, cut back with them on
    /// exit); scaled by `G` on kernel exit.
    a: [Vec<f64>; 3],
    /// f32 copies of the far-field node sources (x, y, z, m) in the
    /// mixed-precision mode.
    src32: [Vec<f32>; 4],
}

impl KernelScratch {
    /// Drop gathered targets (capacity retained) to start a new group.
    pub fn clear_targets(&mut self) {
        for t in &mut self.t {
            t.clear();
        }
    }

    /// Gather one group member as an evaluation target.
    #[inline]
    pub fn push_target(&mut self, p: Vec3) {
        let [x, y, z] = &mut self.t;
        x.push(p.x);
        y.push(p.y);
        z.push(p.z);
    }

    /// Number of gathered targets.
    #[inline]
    pub fn len(&self) -> usize {
        self.t[0].len()
    }

    /// True when no targets are gathered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.t[0].is_empty()
    }

    /// The evaluated acceleration of target `t` (valid after
    /// [`InteractionLists::eval_group`]).
    #[inline]
    pub fn accel(&self, t: usize) -> Vec3 {
        let [x, y, z] = &self.a;
        Vec3::new(x[t], y[t], z[t])
    }

    /// Convert the far-field node sources to f32.
    fn convert_far_sources(&mut self, nx: &[f64], ny: &[f64], nz: &[f64], nm: &[f64]) {
        for (dst, src) in self.src32.iter_mut().zip([nx, ny, nz, nm]) {
            dst.clear();
            dst.extend(src.iter().map(|&v| v as f32));
        }
    }
}

/// Chunk-local tally of SIMD-kernel work, flushed to telemetry once per
/// chunk by the blocked consumers (the math crate records nothing itself).
///
/// `active_lanes` counts real sources, once per group, so `group ×
/// active_lanes` is the pair-interaction count of full groups.
/// `lane_slots` weights the same sources by the target lanes the kernel
/// issued per real target, so `active_lanes / lane_slots` is the group's
/// target-lane occupancy: 1.0 when the group fills its vectors, below it
/// when the last vector carries padding copies.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Groups evaluated through the SIMD kernel.
    pub groups: u64,
    /// Source tiles streamed: ⌈len / 256⌉ per list and group (⌈len / 128⌉
    /// for quadrupole lists), independent of the group size and the lane
    /// width.
    pub tiles: u64,
    /// Real sources × issued target lanes / real targets, rounded up.
    pub lane_slots: u64,
    /// Real sources.
    pub active_lanes: u64,
}

impl KernelStats {
    /// One list of `sources` evaluated for `targets ≥ 1` targets on
    /// vectors of `lanes` lanes.
    #[inline]
    fn tally(&mut self, sources: usize, targets: usize, lanes: usize) {
        let issued = targets.div_ceil(lanes) * lanes;
        self.active_lanes += sources as u64;
        self.lane_slots += (sources * issued).div_ceil(targets) as u64;
    }
}

/// One worker's kernel state for one packet of groups at a time: the
/// packet's shared lists, the lists of the group being evaluated (copied
/// out of them) and the SIMD scratch that evaluates those. Pooled per
/// worker slot (see [`ListsPool`]).
#[derive(Default)]
pub struct WorkerKernelState {
    pub packet: PacketLists,
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
            packet: PacketLists { union, body_lanes, node_lanes, index },
            lists,
            scratch: KernelScratch { t, a, src32 },
        } = self;
        lists
            .columns_mut()
            .chain(union.columns_mut())
            .chain(t)
            .chain(a)
            .map(|v| v as &mut dyn GrowOnly)
            .chain(src32.iter_mut().map(|v| v as &mut dyn GrowOnly))
            .chain([body_lanes, node_lanes].map(|v| v as &mut dyn GrowOnly))
            .chain([index as &mut dyn GrowOnly])
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

    /// Size the pool for a parallel region over a tree of `bodies` bodies:
    /// at least `workers` slots, each with its quadrupole blocks armed iff
    /// `want_quad` and every list column reserved for `bodies` entries.
    /// Takes `&mut self` (no region may be in flight), so this is the only
    /// place slots are created. Existing slot capacity is retained.
    ///
    /// Why `bodies`: one group's accepted nodes and listed bodies partition
    /// the bodies, so its lists never hold more, and a packet's union lists
    /// each body at most once (its nodes have stayed below the body count
    /// on every workload measured; more would grow the columns as before).
    /// Reserved here, a list column does not grow mid-step the first time
    /// some group meets a long list — one reallocation per column, and one
    /// more per other slot when the pool levels them — and a reserved page
    /// no list reaches is never touched, so it costs no resident memory.
    pub fn prepare(&mut self, workers: usize, want_quad: bool, bodies: usize) {
        if self.slots.len() < workers {
            self.slots.resize_with(workers, || {
                std::cell::UnsafeCell::new(WorkerKernelState {
                    packet: PacketLists::new(want_quad),
                    lists: InteractionLists::new(want_quad),
                    scratch: KernelScratch::default(),
                })
            });
        }
        for slot in &mut self.slots {
            let state = slot.get_mut();
            let PacketLists { union, body_lanes, node_lanes, index } = &mut state.packet;
            for lists in [union, &mut state.lists] {
                match (&mut lists.quad, want_quad) {
                    (q @ None, true) => *q = Some(QuadMoments::default()),
                    (q @ Some(_), false) => *q = None,
                    _ => {}
                }
                for column in lists.columns_mut() {
                    column.grow_to(bodies);
                }
            }
            body_lanes.grow_to(bodies);
            node_lanes.grow_to(bodies);
            index.grow_to(bodies + 1);
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
        // The SIMD kernel's Newton-rsqrt reciprocal is a few ulp off the
        // scalar div+sqrt per term.
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
        // 1..=17 targets cover every target-lane remainder of 4, 8 and 16
        // lanes; lists of 16..=32 sources, bodies and monopole nodes.
        let mut r = SplitMix64::new(99);
        for group in 1..=17usize {
            let len = 15 + group;
            let mut lists = InteractionLists::new(false);
            for _ in 0..len {
                lists.push_body(rand_vec(&mut r), r.uniform(0.5, 2.0));
                lists.push_node(rand_vec(&mut r) + Vec3::splat(4.0), r.uniform(0.5, 2.0), None);
            }
            let mut scratch = KernelScratch::default();
            scratch.clear_targets();
            let targets: Vec<Vec3> = (0..group).map(|_| rand_vec(&mut r)).collect();
            for &t in &targets {
                scratch.push_target(t);
            }
            let mut stats = KernelStats::default();
            lists.eval_group(&mut scratch, 1.5, 1e-4, KernelPrecision::F64, &mut stats);
            assert_eq!(scratch.len(), group, "padding must not leak into the target count");
            for (i, &t) in targets.iter().enumerate() {
                let want = lists.eval_at(t, 1.5, 1e-4);
                let got = scratch.accel(i);
                assert!(
                    (got - want).norm() <= 1e-13 * (1.0 + want.norm()),
                    "group {group} target {i}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn accel_past_the_targets_panics() {
        // Three targets pad to a full vector inside the kernel; the padding
        // lanes' sums must not be readable afterwards.
        let mut lists = InteractionLists::new(false);
        lists.push_body(Vec3::splat(2.0), 1.0);
        let mut scratch = KernelScratch::default();
        for t in 0..3 {
            scratch.push_target(Vec3::splat(t as f64 * 1e-3));
        }
        let mut stats = KernelStats::default();
        lists.eval_group(&mut scratch, 1.0, 0.0, KernelPrecision::F64, &mut stats);
        let _ = scratch.accel(3);
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
        for i in 0..300 {
            lists.push_node(Vec3::splat(i as f64 + 20.0), 1.0, None);
        }
        let lanes: usize = match simd_level() {
            SimdLevel::Avx512F => 8,
            _ => 4,
        };
        let mut scratch = KernelScratch::default();
        for targets in [1, lanes, 2 * lanes, 2 * lanes + 1] {
            scratch.clear_targets();
            for t in 0..targets {
                scratch.push_target(Vec3::splat(t as f64 * 1e-3));
            }
            let mut stats = KernelStats::default();
            lists.eval_group(&mut scratch, 1.0, 0.0, KernelPrecision::F64, &mut stats);
            assert_eq!(stats.groups, 1);
            // Real sources, whatever the group: 10 bodies + 300 nodes.
            assert_eq!(stats.active_lanes, 310);
            // Target-lane occupancy: full vectors issue no padding.
            let issued = targets.div_ceil(lanes) * lanes;
            let want = (10 * issued).div_ceil(targets) + (300 * issued).div_ceil(targets);
            assert_eq!(stats.lane_slots, want as u64, "{targets} targets");
            if targets % lanes == 0 {
                assert_eq!(stats.lane_slots, stats.active_lanes);
            }
            // Source tiles: one body tile, two node tiles of 256.
            assert_eq!(stats.tiles, 3);
        }
    }

    #[test]
    fn kernel_tiers_agree_bitwise() {
        // Every tier this CPU runs, on every kernel shape: a target's sum
        // is one chain in list order whatever the lane count, so the bits
        // must not depend on the tier.
        let (tiers, skipped): (Vec<SimdLevel>, Vec<SimdLevel>) =
            SimdLevel::ALL.into_iter().partition(|&l| l <= simd_level());
        for level in skipped {
            eprintln!("{} not detected; skipping its tier", level.name());
        }
        let eval = |lists: &InteractionLists, targets: &[Vec3], eps2, precision, level| {
            let mut scratch = KernelScratch::default();
            for &t in targets {
                scratch.push_target(t);
            }
            let mut stats = KernelStats::default();
            lists.eval_group_on(level, &mut scratch, 1.25, eps2, precision, &mut stats);
            (0..targets.len())
                .map(|i| {
                    let a = scratch.accel(i);
                    assert!(a.is_finite(), "{} target {i}: {a:?}", level.name());
                    [a.x, a.y, a.z].map(f64::to_bits)
                })
                .collect::<Vec<_>>()
        };
        let mut r = SplitMix64::new(26);
        for group in 1..=33usize {
            let targets: Vec<Vec3> = (0..group).map(|_| rand_vec(&mut r) * 0.5).collect();
            // Bodies only, nodes only, both; past one source tile each.
            for (n_bodies, n_nodes) in [(300, 0), (0, 300), (37, 170)] {
                let shapes = [
                    (false, KernelPrecision::F64),
                    (true, KernelPrecision::F64),
                    (false, KernelPrecision::MixedF32Far),
                ];
                for (quad, precision) in shapes {
                    let mut lists = InteractionLists::new(quad);
                    for _ in 0..n_bodies {
                        lists.push_body(rand_vec(&mut r), r.uniform(0.5, 2.0));
                    }
                    for _ in 0..n_nodes {
                        let com = rand_vec(&mut r) + Vec3::splat(4.0);
                        let q = std::array::from_fn(|_| r.uniform(-0.01, 0.01));
                        lists.push_node(com, r.uniform(0.5, 2.0), Some(q));
                    }
                    let want = eval(&lists, &targets, 1e-4, precision, tiers[0]);
                    for &level in &tiers[1..] {
                        assert_eq!(
                            eval(&lists, &targets, 1e-4, precision, level),
                            want,
                            "{}: group {group}, {n_bodies} bodies, {n_nodes} nodes, {precision:?}, \
                             quad={quad}",
                            level.name()
                        );
                    }
                }
            }
            // ε = 0 with self-sources: every target is also a listed body,
            // so the zero-distance guard fires wherever a lane meets itself.
            let mut lists = InteractionLists::new(false);
            for &t in &targets {
                lists.push_body(t, r.uniform(0.5, 2.0));
                lists.push_body(rand_vec(&mut r), r.uniform(0.5, 2.0));
            }
            let want = eval(&lists, &targets, 0.0, KernelPrecision::F64, tiers[0]);
            for &level in &tiers[1..] {
                assert_eq!(
                    eval(&lists, &targets, 0.0, KernelPrecision::F64, level),
                    want,
                    "{}: group {group}, self-sources",
                    level.name()
                );
            }
        }
    }

    #[test]
    fn pool_prepare_arms_and_disarms_quad() {
        let mut pool = ListsPool::new();
        pool.prepare(3, true, 0);
        assert_eq!(pool.workers(), 3);
        for w in 0..3 {
            let state = unsafe { pool.slot(w) };
            assert!(state.lists.quad.is_some());
            state.lists.push_node(Vec3::splat(2.0), 1.0, Some([0.1; 6]));
        }
        // Re-preparing without quadrupoles disarms the block; slot count
        // never shrinks.
        pool.prepare(2, false, 0);
        assert_eq!(pool.workers(), 3);
        for w in 0..3 {
            let state = unsafe { pool.slot(w) };
            assert!(state.lists.quad.is_none());
        }
        pool.prepare(3, true, 0);
        assert!(unsafe { pool.slot(0) }.lists.quad.is_some());
    }

    #[test]
    fn pool_prepare_levels_every_buffer_to_the_high_water_mark() {
        let mut pool = ListsPool::new();
        pool.prepare(3, true, 0);
        // Whichever slot met the long lists, every slot is that warm after
        // the next prepare — f32 far-field copies and quad columns included.
        let state = unsafe { pool.slot(1) };
        for i in 0..100 {
            state.lists.push_body(Vec3::splat(i as f64), 1.0);
            state.lists.push_node(Vec3::splat(2.0), 1.0, Some([0.1; 6]));
            state.packet.push_body(Vec3::splat(i as f64), 1.0, 1);
            state.packet.push_node(Vec3::splat(2.0), 1.0, Some([0.1; 6]), 1);
            state.scratch.push_target(Vec3::splat(1.0));
        }
        let mut stats = KernelStats::default();
        state.lists.eval_group(&mut state.scratch, 1.0, 1e-6, KernelPrecision::F64, &mut stats);
        let l = &state.lists;
        state.scratch.convert_far_sources(&l.nx, &l.ny, &l.nz, &l.nm);
        pool.prepare(3, true, 0);
        let caps = |pool: &ListsPool, w| -> Vec<usize> {
            unsafe { pool.slot(w) }.buffers_mut().map(|b| b.capacity()).collect()
        };
        let high = caps(&pool, 1);
        assert_eq!(high.len(), 41);
        assert!(high.iter().all(|&c| c > 0), "{high:?}");
        assert_eq!(caps(&pool, 0), high);
        assert_eq!(caps(&pool, 2), high);
        // Levelled: another prepare moves nothing.
        pool.prepare(3, true, 0);
        assert_eq!(caps(&pool, 0), high);
    }

    #[test]
    fn pool_prepare_reserves_every_list_column_for_the_body_count() {
        let mut pool = ListsPool::new();
        pool.prepare(2, true, 1000);
        for w in 0..2 {
            let state = unsafe { pool.slot(w) };
            let PacketLists { union, body_lanes, node_lanes, index } = &mut state.packet;
            for lists in [union, &mut state.lists] {
                assert!(lists.columns_mut().all(|c| c.capacity() >= 1000));
            }
            assert!(body_lanes.capacity() >= 1000 && node_lanes.capacity() >= 1000);
            assert!(index.capacity() > 1000);
        }
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
        pool.prepare(2, false, 0);
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
