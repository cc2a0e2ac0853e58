//! Dependency-free portable SIMD: fixed-width lane types and a runtime
//! CPU-feature dispatch for the force microkernels.
//!
//! # One operation set, three instantiations
//!
//! The kernels are generic over the [`Simd`] lane-operation trait, whose
//! [`Simd::LANES`] constant is the only thing that differs between tiers.
//! The portable impls ([`f64x4`], [`f32x8`]) are array wrappers whose ops
//! are per-lane loops — correct everywhere, vectorised by LLVM as far as
//! the baseline ISA allows. The x86-64 impls wrap `__m256d`/`__m256`
//! (`avx2`, 4 / 8 lanes) and `__m512d`/`__m512` (`avx512`, 8 / 16
//! lanes) and map each op onto exactly one intrinsic; they exist because
//! LLVM's SLP vectoriser only rediscovers 128-bit vectors from the array
//! loops even inside a `#[target_feature]` function, so the wide tiers must
//! name their instructions explicitly.
//!
//! Every impl executes the *same IEEE-754 operation per lane*: sub and mul
//! are exactly rounded; `mul_add` is the IEEE `fusedMultiplyAdd` (one
//! rounding — identical from `vfmadd` and from the correctly-rounded
//! software fallback on FMA-less targets); `rsqrt` is the same integer
//! seed plus the same fused Newton steps; the guard select keeps or zeroes
//! bits. No op mixes lanes. A lane's result is therefore a function of that
//! lane's inputs alone, whatever the width and whichever tier runs it —
//! the dispatch changes throughput, never bits. The unit tests below
//! compare each wide impl with the portable one lane by lane, and
//! `interaction::tests::kernel_tiers_agree_bitwise` compares whole kernels.
//!
//! # Lane layout
//!
//! Kernels put *targets* across lanes (lane `k` = target `base + k` of the
//! group) and broadcast each source to every lane with [`Simd::splat`]. A
//! target's sum is one sequential chain over the source list, so nothing is
//! ever reduced across lanes and the summation order does not depend on
//! the lane count.
//!
//! # Dispatch
//!
//! [`simd_level`] probes the CPU once (cached in a relaxed atomic — the
//! probe is idempotent) and the kernel entry points select the matching
//! monomorphisation. `#[target_feature]` functions cannot be inlined into
//! callers lacking the feature, so the wide path lives behind one indirect
//! boundary per *group* (per tile of packets), amortised over its work.

use std::sync::atomic::{AtomicU8, Ordering};

/// Vector width tier selected at runtime. Ordered: higher = wider, and
/// every tier below the probed one runs on the same CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Baseline codegen (SSE2 on x86-64): the portable fallback, 4 f64 /
    /// 8 f32 lanes.
    Portable = 0,
    /// 256-bit AVX2 + FMA: kernels run through their
    /// `#[target_feature(enable = "avx2,fma")]` instantiations, 4 / 8 lanes.
    Avx2Fma = 1,
    /// 512-bit AVX-512F: the `#[target_feature(enable = "avx512f")]`
    /// instantiations, 8 / 16 lanes.
    Avx512F = 2,
}

impl SimdLevel {
    /// Every tier, narrowest first (index = discriminant).
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Portable, SimdLevel::Avx2Fma, SimdLevel::Avx512F];

    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2Fma => "avx2+fma",
            SimdLevel::Avx512F => "avx512f",
        }
    }
}

/// Probe result cache: 0 = unprobed, otherwise the tier's discriminant + 1.
// relaxed-ok: idempotent memoisation — racing initialisers compute the same
// value from CPUID, and a stale 0 merely re-probes.
static LEVEL: AtomicU8 = AtomicU8::new(0);

/// The SIMD tier this process dispatches to, probed once at first use.
#[inline]
pub fn simd_level() -> SimdLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => {
            let level = probe();
            LEVEL.store(level as u8 + 1, Ordering::Relaxed);
            level
        }
        v => SimdLevel::ALL[v as usize - 1],
    }
}

#[cfg(target_arch = "x86_64")]
fn probe() -> SimdLevel {
    use std::arch::is_x86_feature_detected as has;
    // AVX-512F is only taken together with AVX2 + FMA, so that every tier
    // below the probed one is supported too.
    if !(has!("avx2") && has!("fma")) {
        SimdLevel::Portable
    } else if has!("avx512f") {
        SimdLevel::Avx512F
    } else {
        SimdLevel::Avx2Fma
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn probe() -> SimdLevel {
    SimdLevel::Portable
}

/// The lane-operation set of the force microkernels: `LANES` lanes of
/// `Elem`. Every method is the same IEEE-754 per-lane operation in every
/// impl (see module docs), so kernel results are impl-independent.
pub trait Simd: Copy {
    type Elem: Copy;
    const LANES: usize;
    fn zero() -> Self;
    /// Broadcast one scalar across every lane.
    fn splat(v: Self::Elem) -> Self;
    /// Load `LANES` contiguous lanes from `s` starting at `at`.
    ///
    /// # Panics
    /// If `s[at..at + LANES]` is out of bounds.
    fn load(s: &[Self::Elem], at: usize) -> Self;
    /// Store the lanes to `s[at..at + LANES]`; panics if out of bounds.
    fn store(self, s: &mut [Self::Elem], at: usize);
    fn sub(self, rhs: Self) -> Self;
    fn mul(self, rhs: Self) -> Self;
    /// Fused `self·b + c`, one rounding (IEEE `fusedMultiplyAdd`).
    fn mul_add(self, b: Self, c: Self) -> Self;
    /// Per-lane reciprocal square root `x^(-1/2)` to ≈2-3 ulp: an
    /// integer-shift seed plus four (f64) or three (f32) Newton-Raphson
    /// steps.
    ///
    /// The force kernels are otherwise throughput-limited by the divider
    /// port (`vdivpd`/`vsqrtpd` share it and pipeline poorly); this
    /// formulation is pure mul/fma, which issues on the FMA ports. The seed
    /// is the classic bit trick (integer ops only) rather than a hardware
    /// estimate instruction (`vrsqrtps` is implementation-defined per CPU),
    /// so results are bit-identical across machines and dispatch tiers.
    ///
    /// Lanes with non-positive, subnormal, or non-finite input produce
    /// garbage — callers mask them with [`Simd::zero_unless_pos`].
    fn rsqrt(self) -> Self;
    /// Per-lane `if cond > 0.0 { val } else { +0.0 }` — a compare and a
    /// select. Zeroes even NaN/inf `val` lanes, so it masks the garbage
    /// lanes of [`Simd::rsqrt`] and the kernels' zero-distance guard in one
    /// select; a NaN `cond` lane fails the compare.
    fn zero_unless_pos(cond: Self, val: Self) -> Self;
    fn add(self, rhs: Self) -> Self;
    fn div(self, rhs: Self) -> Self;
    /// Correctly rounded per-lane square root (IEEE `squareRoot`).
    fn sqrt(self) -> Self;
    /// Per-lane `if self > rhs { self } else { rhs }`, the x86 `max`: `rhs`
    /// wins ties and NaN (`f64::max` ignores a NaN on either side).
    fn max(self, rhs: Self) -> Self;
    /// Bit `k` set where lane `k` has `self < rhs` (ordered: NaN clears it).
    fn lt(self, rhs: Self) -> u32;
    /// `self + rhs` in the lanes whose bit is set in `mask`, `self`'s bits
    /// elsewhere. Bits at or above [`Simd::LANES`] are ignored.
    fn add_masked(self, rhs: Self, mask: u32) -> Self;
}

/// A portable lane array: every op is a per-lane loop over `[$elem; $lanes]`.
macro_rules! portable {
    ($(#[$doc:meta])* $name:ident, $elem:ty, $lanes:literal, $magic:literal, $steps:literal) => {
        $(#[$doc])*
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy, Debug, Default, PartialEq)]
        pub struct $name(pub [$elem; $lanes]);

        impl Simd for $name {
            type Elem = $elem;
            const LANES: usize = $lanes;
            #[inline(always)]
            fn zero() -> Self {
                $name([0.0; $lanes])
            }
            #[inline(always)]
            fn splat(v: $elem) -> Self {
                $name([v; $lanes])
            }
            #[inline(always)]
            fn load(s: &[$elem], at: usize) -> Self {
                let s = &s[at..at + $lanes];
                $name(std::array::from_fn(|i| s[i]))
            }
            #[inline(always)]
            fn store(self, s: &mut [$elem], at: usize) {
                s[at..at + $lanes].copy_from_slice(&self.0);
            }
            #[inline(always)]
            fn sub(self, rhs: Self) -> Self {
                $name(std::array::from_fn(|i| self.0[i] - rhs.0[i]))
            }
            #[inline(always)]
            fn mul(self, rhs: Self) -> Self {
                $name(std::array::from_fn(|i| self.0[i] * rhs.0[i]))
            }
            /// The IEEE-754 `fusedMultiplyAdd`: identical from `vfmadd` and
            /// from the correctly-rounded software fallback on FMA-less
            /// targets (where it is slow — the portable tier is a
            /// compatibility path, not a fast path).
            #[inline(always)]
            fn mul_add(self, b: Self, c: Self) -> Self {
                $name(std::array::from_fn(|i| self.0[i].mul_add(b.0[i], c.0[i])))
            }
            #[inline(always)]
            fn rsqrt(self) -> Self {
                // Seed accurate to ~5 bits; each Newton step squares the
                // relative error, so the steps exceed the mantissa.
                let mut y = $name(std::array::from_fn(|i| {
                    <$elem>::from_bits($magic.wrapping_sub(self.0[i].to_bits() >> 1))
                }));
                let neg_half_x = self.mul(Self::splat(-0.5));
                let three_halves = Self::splat(1.5);
                for _ in 0..$steps {
                    // y ← y (3/2 + (−x/2)·y²), polynomial step fused.
                    let y2 = y.mul(y);
                    y = y.mul(neg_half_x.mul_add(y2, three_halves));
                }
                y
            }
            #[inline(always)]
            fn zero_unless_pos(cond: Self, val: Self) -> Self {
                $name(std::array::from_fn(|i| if cond.0[i] > 0.0 { val.0[i] } else { 0.0 }))
            }
            #[inline(always)]
            fn add(self, rhs: Self) -> Self {
                $name(std::array::from_fn(|i| self.0[i] + rhs.0[i]))
            }
            #[inline(always)]
            fn div(self, rhs: Self) -> Self {
                $name(std::array::from_fn(|i| self.0[i] / rhs.0[i]))
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                $name(self.0.map(<$elem>::sqrt))
            }
            #[inline(always)]
            fn max(self, rhs: Self) -> Self {
                $name(std::array::from_fn(|i| if self.0[i] > rhs.0[i] { self.0[i] } else { rhs.0[i] }))
            }
            #[inline(always)]
            fn lt(self, rhs: Self) -> u32 {
                (0..$lanes).fold(0, |m, i| m | u32::from(self.0[i] < rhs.0[i]) << i)
            }
            #[inline(always)]
            fn add_masked(self, rhs: Self, mask: u32) -> Self {
                $name(std::array::from_fn(|i| {
                    if mask >> i & 1 != 0 { self.0[i] + rhs.0[i] } else { self.0[i] }
                }))
            }
        }
    };
}

portable!(
    /// Four `f64` lanes, the portable tier's f64 vector.
    f64x4, f64, 4, 0x5FE6_EB50_C7B5_37A9u64, 4
);
portable!(
    /// Eight `f32` lanes for the mixed-precision far field.
    f32x8, f32, 8, 0x5F37_5A86u32, 3
);

/// Two lane vectors as one of twice the width, low half first: the packet
/// walk's eight `f64` lanes on the portable and AVX2 tiers. Every op is the
/// half's op on each half, so the same IEEE-754 operation per lane.
#[derive(Clone, Copy)]
pub(crate) struct X2<S>(pub S, pub S);

/// `X2`'s lane ops, half by half: `op(args)`, `self` first.
macro_rules! halves {
    ($($op:ident($($arg:ident),*)),*) => {$(
        #[inline(always)]
        fn $op(self $(, $arg: Self)*) -> Self {
            X2(self.0.$op($($arg.0),*), self.1.$op($($arg.1),*))
        }
    )*};
}

impl<S: Simd> Simd for X2<S> {
    type Elem = S::Elem;
    const LANES: usize = 2 * S::LANES;
    halves!(sub(rhs), mul(rhs), add(rhs), div(rhs), max(rhs), mul_add(b, c), rsqrt(), sqrt());
    #[inline(always)]
    fn zero() -> Self {
        X2(S::zero(), S::zero())
    }
    #[inline(always)]
    fn splat(v: Self::Elem) -> Self {
        X2(S::splat(v), S::splat(v))
    }
    #[inline(always)]
    fn load(s: &[Self::Elem], at: usize) -> Self {
        X2(S::load(s, at), S::load(s, at + S::LANES))
    }
    #[inline(always)]
    fn store(self, s: &mut [Self::Elem], at: usize) {
        self.0.store(s, at);
        self.1.store(s, at + S::LANES);
    }
    #[inline(always)]
    fn zero_unless_pos(cond: Self, val: Self) -> Self {
        X2(S::zero_unless_pos(cond.0, val.0), S::zero_unless_pos(cond.1, val.1))
    }
    #[inline(always)]
    fn lt(self, rhs: Self) -> u32 {
        self.0.lt(rhs.0) | self.1.lt(rhs.1) << S::LANES
    }
    #[inline(always)]
    fn add_masked(self, rhs: Self, mask: u32) -> Self {
        X2(self.0.add_masked(rhs.0, mask), self.1.add_masked(rhs.1, mask >> S::LANES))
    }
}

/// An x86 impl's lane ops that are one intrinsic: `op(args) => intrinsic`.
#[cfg(target_arch = "x86_64")]
macro_rules! intrinsic_ops {
    ($t:ident; $($op:ident($($arg:ident),*) => $f:ident),* $(,)?) => {$(
        #[inline(always)]
        fn $op(self $(, $arg: Self)*) -> Self {
            // SAFETY: the module safety contract.
            unsafe { $t($f(self.0 $(, $arg.0)*)) }
        }
    )*};
}

/// 256-bit AVX2+FMA impls of [`Simd`], one intrinsic per op.
///
/// # Safety contract
///
/// Values of these types are only ever created inside the
/// `#[target_feature(enable = "avx2,fma")]` kernel instantiation, which is
/// entered after runtime detection ([`super::simd_level`]); every
/// intrinsic's feature requirement is therefore met at each call site.
/// The module is `pub(crate)` so the contract is enforceable by
/// inspection: the only users are the entry points in `interaction.rs`
/// and `tiles.rs` (and the lane tests below, behind the same probe).
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::Simd;
    use core::arch::x86_64::*;

    /// `__m256d` impl of [`Simd`] — see the module safety contract.
    #[derive(Clone, Copy)]
    pub struct F64x4A(__m256d);

    /// `__m256` impl of [`Simd`] — see the module safety contract.
    #[derive(Clone, Copy)]
    pub struct F32x8A(__m256);

    impl Simd for F64x4A {
        type Elem = f64;
        const LANES: usize = 4;
        intrinsic_ops!(F64x4A;
            sub(rhs) => _mm256_sub_pd, mul(rhs) => _mm256_mul_pd, add(rhs) => _mm256_add_pd,
            div(rhs) => _mm256_div_pd, max(rhs) => _mm256_max_pd, sqrt() => _mm256_sqrt_pd,
            mul_add(b, c) => _mm256_fmadd_pd,
        );
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY (this and every block below): module safety contract.
            unsafe { F64x4A(_mm256_setzero_pd()) }
        }
        #[inline(always)]
        fn splat(v: f64) -> Self {
            unsafe { F64x4A(_mm256_set1_pd(v)) }
        }
        #[inline(always)]
        fn load(s: &[f64], at: usize) -> Self {
            // The slice index performs the same bounds check as the
            // portable load, making the raw read sound.
            let s = &s[at..at + Self::LANES];
            unsafe { F64x4A(_mm256_loadu_pd(s.as_ptr())) }
        }
        #[inline(always)]
        fn store(self, s: &mut [f64], at: usize) {
            let s = &mut s[at..at + Self::LANES];
            unsafe { _mm256_storeu_pd(s.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn rsqrt(self) -> Self {
            // Same integer seed and fused Newton steps as f64x4, lane for
            // lane: srli/sub_epi64 are the same wrapping u64 arithmetic,
            // fmadd/mul the same IEEE ops.
            unsafe {
                let magic = _mm256_set1_epi64x(0x5FE6_EB50_C7B5_37A9u64 as i64);
                let seed = _mm256_sub_epi64(magic, _mm256_srli_epi64::<1>(_mm256_castpd_si256(self.0)));
                let mut y = _mm256_castsi256_pd(seed);
                let neg_half_x = _mm256_mul_pd(self.0, _mm256_set1_pd(-0.5));
                let three_halves = _mm256_set1_pd(1.5);
                for _ in 0..4 {
                    let y2 = _mm256_mul_pd(y, y);
                    y = _mm256_mul_pd(y, _mm256_fmadd_pd(neg_half_x, y2, three_halves));
                }
                F64x4A(y)
            }
        }
        #[inline(always)]
        fn zero_unless_pos(cond: Self, val: Self) -> Self {
            // cond > 0.0 (ordered, quiet: NaN lanes fail the compare, as
            // in the portable `if`) → all-ones mask → AND keeps val bits
            // exactly, zeroed lanes are +0.0 like the portable else-arm.
            unsafe {
                let mask = _mm256_cmp_pd::<_CMP_GT_OQ>(cond.0, _mm256_setzero_pd());
                F64x4A(_mm256_and_pd(mask, val.0))
            }
        }
        #[inline(always)]
        fn lt(self, rhs: Self) -> u32 {
            unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(self.0, rhs.0)) as u32 }
        }
        #[inline(always)]
        fn add_masked(self, rhs: Self, mask: u32) -> Self {
            // Lane k's bit of `mask` spread to a whole lane, then a blend.
            unsafe {
                let bit = _mm256_set_epi64x(8, 4, 2, 1);
                let set = _mm256_and_si256(_mm256_set1_epi64x(i64::from(mask)), bit);
                let m = _mm256_castsi256_pd(_mm256_cmpeq_epi64(set, bit));
                F64x4A(_mm256_blendv_pd(self.0, _mm256_add_pd(self.0, rhs.0), m))
            }
        }
    }

    impl Simd for F32x8A {
        type Elem = f32;
        const LANES: usize = 8;
        intrinsic_ops!(F32x8A;
            sub(rhs) => _mm256_sub_ps, mul(rhs) => _mm256_mul_ps, add(rhs) => _mm256_add_ps,
            div(rhs) => _mm256_div_ps, max(rhs) => _mm256_max_ps, sqrt() => _mm256_sqrt_ps,
            mul_add(b, c) => _mm256_fmadd_ps,
        );
        #[inline(always)]
        fn zero() -> Self {
            unsafe { F32x8A(_mm256_setzero_ps()) }
        }
        #[inline(always)]
        fn splat(v: f32) -> Self {
            unsafe { F32x8A(_mm256_set1_ps(v)) }
        }
        #[inline(always)]
        fn load(s: &[f32], at: usize) -> Self {
            let s = &s[at..at + Self::LANES];
            unsafe { F32x8A(_mm256_loadu_ps(s.as_ptr())) }
        }
        #[inline(always)]
        fn store(self, s: &mut [f32], at: usize) {
            let s = &mut s[at..at + Self::LANES];
            unsafe { _mm256_storeu_ps(s.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn rsqrt(self) -> Self {
            unsafe {
                let magic = _mm256_set1_epi32(0x5F37_5A86u32 as i32);
                let seed = _mm256_sub_epi32(magic, _mm256_srli_epi32::<1>(_mm256_castps_si256(self.0)));
                let mut y = _mm256_castsi256_ps(seed);
                let neg_half_x = _mm256_mul_ps(self.0, _mm256_set1_ps(-0.5));
                let three_halves = _mm256_set1_ps(1.5);
                for _ in 0..3 {
                    let y2 = _mm256_mul_ps(y, y);
                    y = _mm256_mul_ps(y, _mm256_fmadd_ps(neg_half_x, y2, three_halves));
                }
                F32x8A(y)
            }
        }
        #[inline(always)]
        fn zero_unless_pos(cond: Self, val: Self) -> Self {
            unsafe {
                let mask = _mm256_cmp_ps::<_CMP_GT_OQ>(cond.0, _mm256_setzero_ps());
                F32x8A(_mm256_and_ps(mask, val.0))
            }
        }
        #[inline(always)]
        fn lt(self, rhs: Self) -> u32 {
            unsafe { _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(self.0, rhs.0)) as u32 }
        }
        #[inline(always)]
        fn add_masked(self, rhs: Self, mask: u32) -> Self {
            unsafe {
                let bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
                let set = _mm256_and_si256(_mm256_set1_epi32(mask as i32), bit);
                let m = _mm256_castsi256_ps(_mm256_cmpeq_epi32(set, bit));
                F32x8A(_mm256_blendv_ps(self.0, _mm256_add_ps(self.0, rhs.0), m))
            }
        }
    }
}

/// 512-bit AVX-512F impls of [`Simd`], one intrinsic per op: the AVX2 ops
/// at twice the width, with the guard select done through a mask register.
///
/// # Safety contract
///
/// As for `avx2`, with `#[target_feature(enable = "avx512f")]`: values
/// are only created inside that kernel instantiation (or the lane tests),
/// entered after [`super::simd_level`] reported [`super::SimdLevel::Avx512F`].
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512 {
    use super::Simd;
    use core::arch::x86_64::*;

    /// `__m512d` impl of [`Simd`] — see the module safety contract.
    #[derive(Clone, Copy)]
    pub struct F64x8A(__m512d);

    /// `__m512` impl of [`Simd`] — see the module safety contract.
    #[derive(Clone, Copy)]
    pub struct F32x16A(__m512);

    impl Simd for F64x8A {
        type Elem = f64;
        const LANES: usize = 8;
        intrinsic_ops!(F64x8A;
            sub(rhs) => _mm512_sub_pd, mul(rhs) => _mm512_mul_pd, add(rhs) => _mm512_add_pd,
            div(rhs) => _mm512_div_pd, max(rhs) => _mm512_max_pd, sqrt() => _mm512_sqrt_pd,
            mul_add(b, c) => _mm512_fmadd_pd,
        );
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY (this and every block below): module safety contract.
            unsafe { F64x8A(_mm512_setzero_pd()) }
        }
        #[inline(always)]
        fn splat(v: f64) -> Self {
            unsafe { F64x8A(_mm512_set1_pd(v)) }
        }
        #[inline(always)]
        fn load(s: &[f64], at: usize) -> Self {
            // Bounds-checked slice first, as in the AVX2 load.
            let s = &s[at..at + Self::LANES];
            unsafe { F64x8A(_mm512_loadu_pd(s.as_ptr())) }
        }
        #[inline(always)]
        fn store(self, s: &mut [f64], at: usize) {
            let s = &mut s[at..at + Self::LANES];
            unsafe { _mm512_storeu_pd(s.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn rsqrt(self) -> Self {
            // The f64x4 seed and Newton steps, eight lanes at a time.
            unsafe {
                let magic = _mm512_set1_epi64(0x5FE6_EB50_C7B5_37A9u64 as i64);
                let seed = _mm512_sub_epi64(magic, _mm512_srli_epi64::<1>(_mm512_castpd_si512(self.0)));
                let mut y = _mm512_castsi512_pd(seed);
                let neg_half_x = _mm512_mul_pd(self.0, _mm512_set1_pd(-0.5));
                let three_halves = _mm512_set1_pd(1.5);
                for _ in 0..4 {
                    let y2 = _mm512_mul_pd(y, y);
                    y = _mm512_mul_pd(y, _mm512_fmadd_pd(neg_half_x, y2, three_halves));
                }
                F64x8A(y)
            }
        }
        #[inline(always)]
        fn zero_unless_pos(cond: Self, val: Self) -> Self {
            // cond > 0.0 (ordered, quiet) into a mask register; the
            // zero-masking move keeps val's bits where set and writes +0.0
            // elsewhere — the AVX2 AND, lane for lane.
            unsafe {
                let mask = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(cond.0, _mm512_setzero_pd());
                F64x8A(_mm512_maskz_mov_pd(mask, val.0))
            }
        }
        #[inline(always)]
        fn lt(self, rhs: Self) -> u32 {
            unsafe { u32::from(_mm512_cmp_pd_mask::<_CMP_LT_OQ>(self.0, rhs.0)) }
        }
        #[inline(always)]
        fn add_masked(self, rhs: Self, mask: u32) -> Self {
            unsafe { F64x8A(_mm512_mask_add_pd(self.0, mask as __mmask8, self.0, rhs.0)) }
        }
    }

    impl Simd for F32x16A {
        type Elem = f32;
        const LANES: usize = 16;
        intrinsic_ops!(F32x16A;
            sub(rhs) => _mm512_sub_ps, mul(rhs) => _mm512_mul_ps, add(rhs) => _mm512_add_ps,
            div(rhs) => _mm512_div_ps, max(rhs) => _mm512_max_ps, sqrt() => _mm512_sqrt_ps,
            mul_add(b, c) => _mm512_fmadd_ps,
        );
        #[inline(always)]
        fn zero() -> Self {
            unsafe { F32x16A(_mm512_setzero_ps()) }
        }
        #[inline(always)]
        fn splat(v: f32) -> Self {
            unsafe { F32x16A(_mm512_set1_ps(v)) }
        }
        #[inline(always)]
        fn load(s: &[f32], at: usize) -> Self {
            let s = &s[at..at + Self::LANES];
            unsafe { F32x16A(_mm512_loadu_ps(s.as_ptr())) }
        }
        #[inline(always)]
        fn store(self, s: &mut [f32], at: usize) {
            let s = &mut s[at..at + Self::LANES];
            unsafe { _mm512_storeu_ps(s.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn rsqrt(self) -> Self {
            unsafe {
                let magic = _mm512_set1_epi32(0x5F37_5A86u32 as i32);
                let seed = _mm512_sub_epi32(magic, _mm512_srli_epi32::<1>(_mm512_castps_si512(self.0)));
                let mut y = _mm512_castsi512_ps(seed);
                let neg_half_x = _mm512_mul_ps(self.0, _mm512_set1_ps(-0.5));
                let three_halves = _mm512_set1_ps(1.5);
                for _ in 0..3 {
                    let y2 = _mm512_mul_ps(y, y);
                    y = _mm512_mul_ps(y, _mm512_fmadd_ps(neg_half_x, y2, three_halves));
                }
                F32x16A(y)
            }
        }
        #[inline(always)]
        fn zero_unless_pos(cond: Self, val: Self) -> Self {
            unsafe {
                let mask = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(cond.0, _mm512_setzero_ps());
                F32x16A(_mm512_maskz_mov_ps(mask, val.0))
            }
        }
        #[inline(always)]
        fn lt(self, rhs: Self) -> u32 {
            unsafe { u32::from(_mm512_cmp_ps_mask::<_CMP_LT_OQ>(self.0, rhs.0)) }
        }
        #[inline(always)]
        fn add_masked(self, rhs: Self, mask: u32) -> Self {
            unsafe { F32x16A(_mm512_mask_add_ps(self.0, mask as __mmask16, self.0, rhs.0)) }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_is_stable_and_probed_once() {
        let a = simd_level();
        let b = simd_level();
        assert_eq!(a, b);
        assert!(!a.name().is_empty());
        assert_eq!(SimdLevel::ALL[a as usize], a);
    }

    #[test]
    fn portable_arithmetic_is_lanewise() {
        let a = f64x4([1.0, 2.0, 3.0, 4.0]);
        let b = f64x4::splat(2.0);
        assert_eq!(a.sub(b).0, [-1.0, 0.0, 1.0, 2.0]);
        assert_eq!(a.mul(b).0, [2.0, 4.0, 6.0, 8.0]);
        let r = f64x4([4.0, 0.25, 1.0, 16.0]).rsqrt().0;
        for (got, want) in r.iter().zip([0.5, 2.0, 1.0, 0.25]) {
            assert!((got - want).abs() <= 4.0 * f64::EPSILON * want, "{got} vs {want}");
        }
        let cond = f64x4([1.0, 0.0, -3.0, f64::NAN]);
        assert_eq!(f64x4::zero_unless_pos(cond, a).0, [1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn mul_add_is_fused_per_lane() {
        // (1+2⁻³⁰)² − 1 = 2⁻²⁹ + 2⁻⁶⁰: the 2⁻⁶⁰ term survives only under
        // fma's single rounding (mul-then-add rounds it away at the 1.0
        // magnitude), so this pins fusion, not just the arithmetic.
        let x = 1.0 + (-30f64).exp2();
        let a = f64x4([1.0, 2.0, 3.0, x]);
        let b = f64x4([x, 0.5, -1.0, x]);
        let c = f64x4([-1.0, 0.5, -3.0, -1.0]);
        let got = a.mul_add(b, c);
        for i in 0..4 {
            assert_eq!(got.0[i], a.0[i].mul_add(b.0[i], c.0[i]), "lane {i}");
        }
        assert_ne!(got.0[3], x * x - 1.0, "lane fma must be fused, not mul-then-add");
        let x8 = 1.0 + (-14f32).exp2();
        let got8 = f32x8::splat(x8).mul_add(f32x8::splat(x8), f32x8::splat(-1.0));
        assert_eq!(got8.0[0], x8.mul_add(x8, -1.0));
        assert_ne!(got8.0[0], x8 * x8 - 1.0);
    }

    #[test]
    fn loads_and_stores_touch_contiguous_lanes() {
        let s: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert_eq!(f64x4::load(&s, 3).0, [3.0, 4.0, 5.0, 6.0]);
        let t: Vec<f32> = (0..12).map(|i| i as f32).collect();
        assert_eq!(f32x8::load(&t, 2).0, [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        let mut out = [0.0f64; 6];
        f64x4::splat(7.0).store(&mut out, 1);
        assert_eq!(out, [0.0, 7.0, 7.0, 7.0, 7.0, 0.0]);
    }

    /// The bits of lane op `f`, applied vector by vector over equal-length
    /// input columns (a multiple of every width).
    fn lanewise<L: Simd>(cols: &[&[L::Elem]], f: impl Fn(&[L]) -> L) -> Vec<u64>
    where
        L::Elem: Default + Into<f64>,
    {
        let n = cols[0].len();
        let mut out = vec![L::Elem::default(); n];
        for at in (0..n).step_by(L::LANES) {
            let args: Vec<L> = cols.iter().map(|c| L::load(c, at)).collect();
            f(&args).store(&mut out, at);
        }
        // f32 → f64 is exact and injective, so f64 bits tell f32 bits apart.
        out.into_iter().map(|v| v.into().to_bits()).collect()
    }

    /// The bits of every lane op of `T`, by name: `[a, b, c]` mixed-sign
    /// operands, `pos` positive rsqrt inputs, `cond` guard conditions
    /// (zeros, negatives, NaN), `x` special values (±0, NaN, ±inf,
    /// subnormals). A compare's bitmask is shown as the lanes it adds to.
    fn all_ops<T: Simd>(cols: &[[T::Elem; 16]; 6]) -> Vec<(&'static str, Vec<u64>)>
    where
        T::Elem: Default + Into<f64>,
    {
        let [a, b, c, pos, cond, x] = cols.each_ref().map(|c| c.as_slice());
        let s = b[3];
        let mask = |m: u32| T::zero().add_masked(T::splat(s), m);
        vec![
            ("add", lanewise::<T>(&[x, a], |v| v[0].add(v[1]))),
            ("div", lanewise::<T>(&[a, x], |v| v[0].div(v[1]))),
            ("div of special", lanewise::<T>(&[x, b], |v| v[0].div(v[1]))),
            ("sqrt", lanewise::<T>(&[x], |v| v[0].sqrt())),
            ("max", lanewise::<T>(&[x, a], |v| v[0].max(v[1]))),
            ("max swapped", lanewise::<T>(&[a, x], |v| v[0].max(v[1]))),
            ("max of zeros", lanewise::<T>(&[x, c], |v| v[0].max(v[1]))),
            ("lt", lanewise::<T>(&[x, c], |v| mask(v[0].lt(v[1])))),
            ("lt swapped", lanewise::<T>(&[c, x], |v| mask(v[0].lt(v[1])))),
            ("add_masked", lanewise::<T>(&[a, x, c], |v| v[0].add_masked(v[1], v[2].lt(v[0])))),
            ("load/store", lanewise::<T>(&[a], |v| v[0])),
            ("splat", lanewise::<T>(&[a], |v| T::splat(s).sub(v[0]))),
            ("zero", lanewise::<T>(&[a], |v| T::zero().sub(v[0]))),
            ("sub", lanewise::<T>(&[a, b], |v| v[0].sub(v[1]))),
            ("mul", lanewise::<T>(&[a, b], |v| v[0].mul(v[1]))),
            ("mul_add", lanewise::<T>(&[a, b, c], |v| v[0].mul_add(v[1], v[2]))),
            ("rsqrt", lanewise::<T>(&[pos], |v| v[0].rsqrt())),
            ("zero_unless_pos", lanewise::<T>(&[cond, a], |v| T::zero_unless_pos(v[0], v[1]))),
        ]
    }

    /// Sixteen lanes of each operand class (a multiple of every width): the
    /// eight below, then the same scaled by 3/4.
    fn operands_f64() -> [[f64; 16]; 6] {
        let x = 1.0 + (-30f64).exp2();
        let a = [1.5, -2.25, 1.0e-8 + 1e-20, 4.0e7, x, 0.3, -0.7, 42.0];
        let b = [0.5, 3.5, -1.0e8, 2.5e-7, x, 1.0, 2.0, -3.0];
        let c = [-1.0, -1.0, 0.125, -0.0625, 0.0, 7.5, -7.5, -0.0];
        let pos = [1.0e-3, 0.5, 2.0, 9.81e4, 1.0, 3.0, 123.0, 7.7e6];
        let cond = [1.0, 0.0, -3.0, f64::NAN, 2.0, -0.0, 0.5, 1e-300];
        // 5e-324 and 1e-40 are subnormal as f64 and as f32 respectively.
        let special = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 5e-324, 1e-40, -0.0];
        [a, b, c, pos, cond, special]
            .map(|h| std::array::from_fn(|i| if i < 8 { h[i] } else { h[i - 8] * 0.75 }))
    }

    /// The wide impls against the portable ones, both element types and the
    /// packet walk's eight lanes `P`; the whole determinism story rests on
    /// identical bits per lane.
    #[cfg(target_arch = "x86_64")]
    fn wide_impls_match_portable<F64, F32, P>(tier: SimdLevel)
    where
        F64: Simd<Elem = f64>,
        F32: Simd<Elem = f32>,
        P: Simd<Elem = f64>,
    {
        if simd_level() < tier {
            eprintln!("{} not detected; skipping its impl-equivalence test", tier.name());
            return;
        }
        let ops64 = operands_f64();
        assert_eq!(all_ops::<f64x4>(&ops64), all_ops::<F64>(&ops64));
        assert_eq!(all_ops::<X2<f64x4>>(&ops64), all_ops::<P>(&ops64));
        let ops32 = ops64.map(|col| col.map(|v| v as f32));
        assert_eq!(all_ops::<f32x8>(&ops32), all_ops::<F32>(&ops32));
        mac_lanes_match_mac_accepts::<P>();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_impls_match_portable_bitwise() {
        use super::avx2::{F32x8A, F64x4A};
        wide_impls_match_portable::<F64x4A, F32x8A, X2<F64x4A>>(SimdLevel::Avx2Fma);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_impls_match_portable_bitwise() {
        use super::avx512::{F32x16A, F64x8A};
        wide_impls_match_portable::<F64x8A, F32x16A, F64x8A>(SimdLevel::Avx512F);
    }

    /// The packet walk's lane MAC against the scalar `mac_accepts`, lane by
    /// lane: padded and not, `d ≤ 0` after the pad, ties, NaN and inf.
    fn mac_lanes_match_mac_accepts<T: Simd<Elem = f64>>() {
        use crate::tiles::{mac_accepts, mac_accepts_lanes};
        let d2s = [0.0, 1e-6, 3.9e-3, 4e-3, 0.25, 1.0, 4.0, 1e4, f64::NAN, f64::INFINITY, -0.0];
        for s2 in [0.0, 0.01, 1.0, 4.0, f64::NAN] {
            for theta2 in [0.0, 0.25, 1.0] {
                for pad in [0.0, 1e-3, 2.0] {
                    for at in 0..=d2s.len() - T::LANES {
                        let got = mac_accepts_lanes(s2, T::load(&d2s, at), theta2, pad);
                        for (k, &d2) in d2s[at..at + T::LANES].iter().enumerate() {
                            let want = mac_accepts(s2, d2, theta2, pad);
                            assert_eq!(got >> k & 1 == 1, want, "{s2} {d2} {theta2} {pad}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn portable_pairs_are_their_halves() {
        let ops64 = operands_f64();
        assert_eq!(all_ops::<X2<f64x4>>(&ops64), all_ops::<f64x4>(&ops64));
        assert_eq!(X2(f64x4::splat(1.0), f64x4::zero()).lt(X2::splat(0.5)), 0xF0);
        mac_lanes_match_mac_accepts::<X2<f64x4>>();
    }
}
