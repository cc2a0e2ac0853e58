//! SIMD ↔ scalar force-kernel equivalence at the solver level (DESIGN.md
//! "SIMD force kernels").
//!
//! The in-crate unit tests pin the tiled microkernel against the scalar
//! oracle list by list; this suite closes the loop end to end — full tree
//! build, blocked traversal, tiled evaluation — across both trees,
//! monopole and quadrupole lists, the mixed-precision far field, and body
//! counts swept through every SIMD lane-remainder class.
//!
//! Tolerances: the f64 SIMD kernel evaluates the same per-source terms as
//! the scalar kernel, in the same order, up to a few ulp per term
//! (Newton-rsqrt reciprocal instead of div+sqrt, fused multiply-adds), so
//! per-body agreement is bounded near machine epsilon. The mixed-precision mode
//! rounds far-field monopoles through f32; its error budget is measured
//! against ground truth and must stay within 2x of the scalar blocked
//! kernel's own discretisation error.

use stdpar_nbody::math::gravity::direct_accel;
use stdpar_nbody::prelude::*;
use stdpar_nbody::sim::make_solver;
use stdpar_nbody::sim::solver::SolverParams;

const SOFTENING: f64 = 1e-3;

fn accelerations(kind: SolverKind, state: &SystemState, params: SolverParams) -> Vec<Vec3> {
    let policy = if kind == SolverKind::Octree { DynPolicy::Par } else { DynPolicy::ParUnseq };
    let mut solver = make_solver(kind, policy, params).unwrap();
    let mut acc = vec![Vec3::ZERO; state.len()];
    solver.compute(state, &mut acc, false);
    acc
}

fn blocked_params(kernel: ForceKernel, precision: KernelPrecision, quad: bool) -> SolverParams {
    SolverParams {
        theta: 0.6,
        softening: SOFTENING,
        eval: ForceEval::blocked(),
        kernel,
        precision,
        quadrupole: quad,
        ..SolverParams::default()
    }
}

/// Mean relative error of `acc` against the exact all-pairs sum.
fn mean_rel_error(acc: &[Vec3], state: &SystemState) -> f64 {
    let mut total = 0.0;
    for (i, &a) in acc.iter().enumerate() {
        let exact = direct_accel(
            state.positions[i],
            Some(i as u32),
            &state.positions,
            &state.masses,
            1.0,
            SOFTENING,
        );
        total += (a - exact).norm() / (1e-12 + exact.norm());
    }
    total / acc.len() as f64
}

#[test]
fn f64_simd_matches_scalar_across_lane_remainder_classes() {
    // Eight consecutive body counts shift the trailing group through all
    // `len % 8` (and `% 4`) remainder classes, so the padded last target
    // vector of every lane width is exercised at full pipeline depth.
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        for quad in [false, true] {
            for n in 501..=508 {
                let state = galaxy_collision(n, 1000 + n as u64);
                let scalar = accelerations(
                    kind,
                    &state,
                    blocked_params(ForceKernel::Scalar, KernelPrecision::F64, quad),
                );
                let simd = accelerations(
                    kind,
                    &state,
                    blocked_params(ForceKernel::Simd, KernelPrecision::F64, quad),
                );
                for (i, (&s, &v)) in scalar.iter().zip(&simd).enumerate() {
                    assert!(
                        (s - v).norm() <= 1e-12 * (1.0 + s.norm()),
                        "{} quad={quad} n={n} body {i}: scalar {s:?} vs simd {v:?}",
                        kind.name()
                    );
                }
            }
        }
    }
}

#[test]
fn f64_simd_error_budget_equals_scalar() {
    // Against ground truth the f64 SIMD kernel must be indistinguishable
    // from the scalar kernel: both sit on the same MAC discretisation
    // error, orders of magnitude above their few-ulp disagreement.
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        let state = galaxy_collision(1_200, 321);
        let scalar_err = mean_rel_error(
            &accelerations(
                kind,
                &state,
                blocked_params(ForceKernel::Scalar, KernelPrecision::F64, false),
            ),
            &state,
        );
        let simd_err = mean_rel_error(
            &accelerations(
                kind,
                &state,
                blocked_params(ForceKernel::Simd, KernelPrecision::F64, false),
            ),
            &state,
        );
        assert!(
            (simd_err - scalar_err).abs() <= 1e-9 * (1.0 + scalar_err),
            "{}: f64 simd error {simd_err:.6e} drifted from scalar {scalar_err:.6e}",
            kind.name()
        );
    }
}

#[test]
fn mixed_precision_error_stays_within_budget() {
    // The f32 far field only touches accepted monopole nodes (never the
    // exact near-field pairs), so its additional error must disappear into
    // the MAC discretisation error: within 2x of the scalar blocked
    // kernel's own mean relative error, per ISSUE acceptance.
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        let state = galaxy_collision(1_200, 654);
        let scalar_err = mean_rel_error(
            &accelerations(
                kind,
                &state,
                blocked_params(ForceKernel::Scalar, KernelPrecision::F64, false),
            ),
            &state,
        );
        let mixed_err = mean_rel_error(
            &accelerations(
                kind,
                &state,
                blocked_params(ForceKernel::Simd, KernelPrecision::MixedF32Far, false),
            ),
            &state,
        );
        assert!(
            mixed_err <= 2.0 * scalar_err,
            "{}: mixed-precision error {mixed_err:.6e} exceeds 2x scalar budget {scalar_err:.6e}",
            kind.name()
        );
    }
}

#[test]
fn simd_kernel_is_deterministic_across_policies() {
    // Same tree, same lists, same kernel — every execution policy must
    // produce bit-identical accelerations, because the per-group kernel is
    // a pure function of the gathered lists and the group partition is
    // policy-independent.
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        for precision in [KernelPrecision::F64, KernelPrecision::MixedF32Far] {
            let state = galaxy_collision(900, 987);
            let params = blocked_params(ForceKernel::Simd, precision, false);
            let policies: &[DynPolicy] = if kind == SolverKind::Octree {
                &[DynPolicy::Seq, DynPolicy::Par]
            } else {
                &[DynPolicy::Seq, DynPolicy::Par, DynPolicy::ParUnseq]
            };
            let mut reference: Option<Vec<Vec3>> = None;
            for &policy in policies {
                let mut solver = make_solver(kind, policy, params).unwrap();
                let mut acc = vec![Vec3::ZERO; state.len()];
                solver.compute(&state, &mut acc, false);
                match &reference {
                    None => reference = Some(acc),
                    Some(r) => {
                        for (i, (&a, &b)) in r.iter().zip(&acc).enumerate() {
                            assert!(
                                a.x.to_bits() == b.x.to_bits()
                                    && a.y.to_bits() == b.y.to_bits()
                                    && a.z.to_bits() == b.z.to_bits(),
                                "{} {precision:?} {policy:?} body {i}: {a:?} vs {b:?}",
                                kind.name()
                            );
                        }
                    }
                }
            }
        }
    }
}
