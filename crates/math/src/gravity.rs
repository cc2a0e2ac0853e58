//! Shared gravitational interaction kernels and parameters.
//!
//! Both tree strategies (octree and BVH) and both all-pairs baselines use
//! the same softened Newtonian kernel (paper Eq. 1, discretised with
//! Plummer softening ε):
//!
//! ```text
//! a_i = G Σ_j m_j (x_j − x_i) / (|x_j − x_i|² + ε²)^{3/2}
//! ```

use crate::vec3::Vec3;

/// How CALCULATEFORCE walks the tree.
///
/// `PerBody` is the paper's traversal: every body re-walks the tree from
/// the root. `Blocked` partitions the (spatially sorted) bodies into
/// contiguous groups of `group` bodies, runs **one** traversal per group
/// with the group's AABB in the acceptance criterion (conservative: a node
/// accepted for the whole group is accepted for every member), gathers the
/// accepted multipoles and opened leaf bodies into flat SoA interaction
/// lists, and then evaluates each member with a tight branch-free loop over
/// those lists (Tokuue & Ishiyama's interaction-list batching).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ForceEval {
    /// One stackless traversal per body (paper §IV-A.3 / §IV-B.3).
    #[default]
    PerBody,
    /// One traversal per contiguous group of `group` sorted bodies.
    Blocked {
        /// Bodies per shared interaction list (0: the default).
        group: usize,
    },
}

impl ForceEval {
    /// The blocked path at the default group size (see
    /// [`ForceEval::resolve_group`]).
    pub const fn blocked() -> Self {
        ForceEval::Blocked { group: 0 }
    }

    /// Group size of the blocked path (`None` for the per-body path), with
    /// the *auto* sentinel `group == 0` resolved to
    /// [`crate::tiles::DEFAULT_GROUP`], the one default of both trees.
    pub const fn resolve_group(self) -> Option<usize> {
        match self {
            ForceEval::PerBody => None,
            ForceEval::Blocked { group: 0 } => Some(crate::tiles::DEFAULT_GROUP),
            ForceEval::Blocked { group } => Some(group),
        }
    }
}

/// Which kernel implementation consumes the blocked interaction lists.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ForceKernel {
    /// The scalar reference kernel
    /// ([`crate::interaction::InteractionLists::eval_at`]): one target ×
    /// one source per iteration, term-identical to the per-body traversal.
    /// Retained as the oracle the SIMD path is tested against.
    #[default]
    Scalar,
    /// The tiled SIMD kernel
    /// ([`crate::interaction::InteractionLists::eval_group`]): the whole
    /// group against L1-resident source tiles, targets across vector lanes.
    Simd,
}

impl ForceKernel {
    pub fn name(self) -> &'static str {
        match self {
            ForceKernel::Scalar => "scalar",
            ForceKernel::Simd => "simd",
        }
    }
}

/// Floating-point precision of the SIMD kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelPrecision {
    /// Every term in f64 — bit-for-bit the same accuracy budget as the
    /// scalar kernel.
    #[default]
    F64,
    /// Far-field monopole terms accumulate in f32 lanes (twice the lane
    /// count), widened into the f64 sums once per 256-source tile;
    /// near-field pair terms and quadrupole corrections stay f64.
    /// Only the SIMD kernel honours this; the scalar oracle is always f64.
    MixedF32Far,
}

impl KernelPrecision {
    pub fn name(self) -> &'static str {
        match self {
            KernelPrecision::F64 => "f64",
            KernelPrecision::MixedF32Far => "mixed-f32-far",
        }
    }
}

/// How the acceleration structure is maintained across steps.
///
/// `Rebuild` is the paper's pipeline: every step re-sorts and rebuilds the
/// tree from scratch. `Incremental` means one thing for both trees: with
/// `max_stale_steps = k` the tree is *served unchanged* for `k` steps, with
/// the acceptance criterion inflated by the accumulated maximum body
/// displacement, and rebuilt from scratch on the step after (a refresh,
/// carried out exactly like a `Rebuild` step). See DESIGN.md § Incremental
/// tree maintenance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TreeLifecycle {
    /// From-scratch sort + build + multipoles every step (the oracle).
    #[default]
    Rebuild,
    /// A tree kept across steps: rebuilt every `max_stale_steps + 1` steps
    /// (`0` ⇒ rebuilt every step, never served stale).
    Incremental {
        /// Steps the tree may be reused *without* a refresh. During stale
        /// steps the MAC is padded by the accumulated max displacement.
        max_stale_steps: u32,
    },
}

impl TreeLifecycle {
    pub fn name(self) -> &'static str {
        match self {
            TreeLifecycle::Rebuild => "rebuild",
            TreeLifecycle::Incremental { .. } => "incremental",
        }
    }
}

/// Parameters of a Barnes-Hut force evaluation.
#[derive(Clone, Copy, Debug)]
pub struct ForceParams {
    /// Multipole acceptance threshold θ: a node of size `s` at distance `d`
    /// from the body is approximated when `s/d < θ`. The paper evaluates
    /// θ = 0.5; θ = 0 disables approximation (exact result). Note the
    /// *interpretation* of `s` differs between the strategies (octree: cell
    /// width; BVH: box diagonal), as §IV-B.3 of the paper discusses.
    pub theta: f64,
    /// Plummer softening length ε.
    pub softening: f64,
    /// Gravitational constant.
    pub g: f64,
    /// Include quadrupole terms when approximating (requires the tree to
    /// have accumulated second moments).
    pub use_quadrupole: bool,
    /// Traversal strategy (per-body re-walks vs blocked shared lists).
    pub eval: ForceEval,
    /// Kernel consuming the blocked interaction lists (ignored by the
    /// per-body traversal, which has no flat lists to vectorise).
    pub kernel: ForceKernel,
    /// Precision mode of the SIMD kernel (ignored by the scalar oracle).
    pub precision: KernelPrecision,
    /// How the tree is maintained across steps (rebuild vs incremental).
    /// Carried here so solvers and benches can thread one knob end to end;
    /// the traversals themselves only consume [`ForceParams::mac_pad`].
    pub lifecycle: TreeLifecycle,
    /// Accumulated maximum body displacement since the tree was last
    /// refreshed. Zero on fresh trees (the MAC stays the pure squared
    /// compare); positive on stale-tree steps, where every acceptance
    /// test is conservatively inflated by it (see [`crate::tiles::mac_accepts`]).
    pub mac_pad: f64,
}

impl Default for ForceParams {
    fn default() -> Self {
        ForceParams {
            theta: 0.5,
            softening: 0.0,
            g: 1.0,
            use_quadrupole: false,
            eval: ForceEval::PerBody,
            kernel: ForceKernel::Scalar,
            precision: KernelPrecision::F64,
            lifecycle: TreeLifecycle::Rebuild,
            mac_pad: 0.0,
        }
    }
}

/// Acceleration at a body from a point source of mass `m` displaced by
/// `d = x_source − x_body`, with squared softening `eps2`.
///
/// `#[inline(always)]`: this is the innermost term of every traversal loop
/// — an outlined call would cost more than the body.
#[inline(always)]
pub fn pair_accel(d: Vec3, m: f64, g: f64, eps2: f64) -> Vec3 {
    let r2 = d.norm2() + eps2;
    if r2 > 0.0 {
        d * (g * m / (r2 * r2.sqrt()))
    } else {
        Vec3::ZERO
    }
}

/// Monopole + optional quadrupole acceleration of a node with mass `m`,
/// displacement `d = com − x_body`, and central second moments `s`
/// (xx, xy, xz, yy, yz, zz).
///
/// `#[inline(always)]`: per-node term of the traversal inner loop, same
/// rationale as [`pair_accel`].
#[inline(always)]
pub fn multipole_accel(
    d: Vec3,
    m: f64,
    s: Option<&[f64; 6]>,
    g: f64,
    eps2: f64,
) -> Vec3 {
    if m <= 0.0 {
        return Vec3::ZERO;
    }
    let r2 = d.norm2() + eps2;
    if r2 <= 0.0 {
        return Vec3::ZERO;
    }
    let r = r2.sqrt();
    let inv_r3 = 1.0 / (r2 * r);
    let mut out = d * (g * m * inv_r3);
    if let Some(s) = s {
        // u points from the node COM to the body: u = −d.
        let u = -d;
        let su = Vec3::new(
            s[0] * u.x + s[1] * u.y + s[2] * u.z,
            s[1] * u.x + s[3] * u.y + s[4] * u.z,
            s[2] * u.x + s[4] * u.y + s[5] * u.z,
        );
        let usu = u.dot(su);
        let tr = s[0] + s[3] + s[5];
        let inv_r5 = inv_r3 / r2;
        let inv_r7 = inv_r5 / r2;
        // a_q = G [3 S u / r⁵ − (15/2)(uᵀSu) u / r⁷ + (3/2) tr(S) u / r⁵]
        out += (su * (3.0 * inv_r5) - u * (7.5 * usu * inv_r7) + u * (1.5 * tr * inv_r5)) * g;
    }
    out
}

/// Exact `O(N²)` reference field at point `p` (optionally excluding one
/// body). The accuracy referee for every approximate solver.
pub fn direct_accel(
    p: Vec3,
    exclude: Option<u32>,
    positions: &[Vec3],
    masses: &[f64],
    g: f64,
    softening: f64,
) -> Vec3 {
    let eps2 = softening * softening;
    let mut acc = Vec3::ZERO;
    for (j, (&x, &m)) in positions.iter().zip(masses.iter()).enumerate() {
        if Some(j as u32) == exclude {
            continue;
        }
        acc += pair_accel(x - p, m, g, eps2);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_accel_inverse_square() {
        let a1 = pair_accel(Vec3::new(1.0, 0.0, 0.0), 1.0, 1.0, 0.0);
        let a2 = pair_accel(Vec3::new(2.0, 0.0, 0.0), 1.0, 1.0, 0.0);
        assert!((a1.norm() / a2.norm() - 4.0).abs() < 1e-12);
        assert!(a1.x > 0.0); // attraction toward the source
    }

    #[test]
    fn pair_accel_zero_distance_is_zero_not_nan() {
        let a = pair_accel(Vec3::ZERO, 5.0, 1.0, 0.0);
        assert_eq!(a, Vec3::ZERO);
    }

    #[test]
    fn softening_bounds_magnitude() {
        let eps = 0.1;
        let a = pair_accel(Vec3::new(1e-12, 0.0, 0.0), 1.0, 1.0, eps * eps);
        assert!(a.norm() <= 1.0 / (eps * eps) * 1e-10);
        assert!(a.is_finite());
    }

    #[test]
    fn monopole_matches_pair_for_zero_quadrupole() {
        let d = Vec3::new(0.3, -0.4, 0.5);
        let m = 2.5;
        let a = multipole_accel(d, m, None, 1.0, 0.0);
        let b = pair_accel(d, m, 1.0, 0.0);
        assert!((a - b).norm() < 1e-15);
        let c = multipole_accel(d, m, Some(&[0.0; 6]), 1.0, 0.0);
        assert!((a - c).norm() < 1e-15);
    }

    #[test]
    fn quadrupole_matches_two_point_cluster() {
        // Cluster: two unit masses at ±e_x·h about the origin.
        // Quadrupole expansion of the field far away must beat the monopole.
        let h = 0.05;
        let srcs = [Vec3::new(h, 0.0, 0.0), Vec3::new(-h, 0.0, 0.0)];
        let masses = [1.0, 1.0];
        let s = [2.0 * h * h, 0.0, 0.0, 0.0, 0.0, 0.0]; // Σ m x'x'ᵀ
        for probe in [Vec3::new(1.0, 0.3, -0.2), Vec3::new(-0.5, 0.9, 0.7)] {
            let exact = direct_accel(probe, None, &srcs, &masses, 1.0, 0.0);
            let d = -probe; // com at origin
            let mono = multipole_accel(d, 2.0, None, 1.0, 0.0);
            let quad = multipole_accel(d, 2.0, Some(&s), 1.0, 0.0);
            assert!(
                (quad - exact).norm() < (mono - exact).norm(),
                "probe {probe:?}: quad {:.3e} vs mono {:.3e}",
                (quad - exact).norm(),
                (mono - exact).norm()
            );
        }
    }

    #[test]
    fn direct_accel_excludes_self() {
        let pos = vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)];
        let m = vec![1.0, 1.0];
        let with_self = direct_accel(Vec3::ZERO, None, &pos, &m, 1.0, 0.0);
        let without = direct_accel(Vec3::ZERO, Some(0), &pos, &m, 1.0, 0.0);
        // Body 0 contributes nothing at its own position anyway (r = 0 guard),
        // so both agree here; excluding body 1 removes the whole field.
        assert_eq!(with_self, without);
        assert_eq!(direct_accel(Vec3::ZERO, Some(1), &pos[..], &m[..], 1.0, 0.0).norm(), 0.0);
    }
}
