//! Ablation: blocked force traversal vs per-body traversal, sweeping the
//! group size G and the list kernel for both trees.
//!
//! The blocked path amortises one conservative tree walk over G spatially
//! adjacent bodies and evaluates forces with flat SoA interaction lists
//! (see DESIGN.md "Blocked traversal"). Small G pays one walk per few
//! bodies; large G makes the group box big, the MAC conservative and the
//! lists long. The sweep locates the sweet spot and reports the speedup
//! of the best blocked configuration over the per-body baseline at equal
//! θ, plus the mean relative force error of every configuration (the
//! group MAC is conservative, so blocked error must not exceed per-body
//! error).
//!
//! The `--kernel=` list additionally ablates the kernel consuming the
//! lists (DESIGN.md "SIMD force kernels"): `scalar` (the oracle), `simd`
//! (tiled f64x4 microkernel), `simd-mixed` (f32x8 far-field monopoles).
//! SIMD rows report `speedup_vs_scalar` against the scalar row of the
//! same tree and group.
//!
//! Usage: `blocked_sweep [--n=100000] [--theta=0.5] [--smoke]
//! [--kernel=scalar,simd,simd-mixed] [--json=PATH] [--metrics=PATH]`
//!
//! `--json=PATH` additionally writes the measurements as one
//! machine-readable JSON document (the harness points this at
//! `BENCH_blocked.json` / `BENCH_simd.json`). `--metrics=PATH` writes the
//! step-level telemetry snapshot accumulated over the whole sweep (CI's
//! metrics job checks one with `metrics_check`); with telemetry compiled out
//! (`--no-default-features`) the snapshot is still written but reports
//! `"enabled": false` and all-zero metrics.

use nbody_bench::{arg, flag, print_banner, print_table};
use nbody_telemetry::json::fmt_f64;
use nbody_math::gravity::{direct_accel, ForceEval, ForceKernel, KernelPrecision};
use nbody_math::simd::simd_level;
use nbody_sim::prelude::*;
use nbody_sim::solver::SolverParams;
use nbody_sim::SimWorkspace;
use std::time::Instant;

// With `--features alloc-stats` the binary installs the counting allocator,
// so the `allocs/step` column reports real steady-state heap-allocation
// counts (it prints zeros otherwise — the counter never ticks).
#[cfg(feature = "alloc-stats")]
#[global_allocator]
static COUNTING_ALLOC: stdpar::alloc_stats::CountingAlloc = stdpar::alloc_stats::CountingAlloc;

struct Row {
    tree: &'static str,
    eval: String,
    kernel: &'static str,
    precision: &'static str,
    group: usize,
    force_s: f64,
    allocs: u64,
    err: f64,
    /// vs the per-body scalar baseline of the same tree.
    speedup: f64,
    /// vs the scalar row of the same tree and group (1.0 for scalar rows).
    speedup_vs_scalar: f64,
}

/// One `--kernel=` entry: a (kernel, precision) configuration.
#[derive(Clone, Copy, PartialEq)]
struct KernelCfg {
    kernel: ForceKernel,
    precision: KernelPrecision,
    name: &'static str,
}

const KERNEL_CFGS: [KernelCfg; 3] = [
    KernelCfg { kernel: ForceKernel::Scalar, precision: KernelPrecision::F64, name: "scalar" },
    KernelCfg { kernel: ForceKernel::Simd, precision: KernelPrecision::F64, name: "simd" },
    KernelCfg {
        kernel: ForceKernel::Simd,
        precision: KernelPrecision::MixedF32Far,
        name: "simd-mixed",
    },
];

fn parse_kernels(spec: &str) -> Vec<KernelCfg> {
    let mut out = vec![];
    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match KERNEL_CFGS.iter().find(|c| c.name == name) {
            Some(cfg) if !out.contains(cfg) => out.push(*cfg),
            Some(_) => {}
            None => {
                eprintln!(
                    "unknown kernel '{name}' (expected one of: scalar, simd, simd-mixed)"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(!out.is_empty(), "--kernel= list must name at least one kernel");
    out
}

fn mean_rel_error(acc: &[Vec3], state: &SystemState, softening: f64) -> f64 {
    let n = state.len();
    let stride = (n / 500).max(1);
    let mut total = 0.0;
    let mut count = 0usize;
    for i in (0..n).step_by(stride) {
        let exact = direct_accel(
            state.positions[i],
            Some(i as u32),
            &state.positions,
            &state.masses,
            1.0,
            softening,
        );
        total += (acc[i] - exact).norm() / (1e-12 + exact.norm());
        count += 1;
    }
    total / count as f64
}

/// Minimum force-phase time over `reps` evaluations on a warm solver, plus
/// the steady-state per-step allocation count (zero unless the binary was
/// built with `--features alloc-stats`).
fn time_force(
    kind: SolverKind,
    state: &SystemState,
    params: SolverParams,
    reps: usize,
) -> (f64, u64, Vec<Vec3>) {
    let policy = if kind == SolverKind::Octree { DynPolicy::Par } else { DynPolicy::ParUnseq };
    let mut solver = nbody_sim::make_solver(kind, policy, params).unwrap();
    let mut ws = SimWorkspace::new();
    let mut acc = vec![Vec3::ZERO; state.len()];
    solver.compute_into(state, &mut acc, false, &mut ws); // warm: build + force
    let mut best = f64::INFINITY;
    let mut allocs = 0;
    for _ in 0..reps {
        let start = Instant::now();
        let timings = solver.compute_into(state, &mut acc, true, &mut ws);
        let force = timings.force.as_secs_f64();
        // Fall back to wall time if a solver does not fill phase timings.
        best = best.min(if force > 0.0 { force } else { start.elapsed().as_secs_f64() });
        allocs = timings.allocs.total();
    }
    (best, allocs, acc)
}

fn default_group(kind: SolverKind) -> usize {
    match kind {
        SolverKind::Octree => bh_octree::Octree::DEFAULT_BLOCK_GROUP,
        _ => bh_bvh::Bvh::DEFAULT_BLOCK_GROUP,
    }
}

fn main() {
    print_banner("Ablation — blocked traversal: group-size × kernel sweep vs per-body, both trees");
    let smoke = flag("smoke");
    let theta: f64 = arg("theta", 0.5);
    let kernels = parse_kernels(&arg("kernel", "scalar".to_string()));
    let json_path: String = arg("json", String::new());
    let metrics_path: String = arg("metrics", String::new());
    // Scope the telemetry snapshot to this run: the counters are
    // process-global and monotonic.
    nbody_telemetry::metrics::reset();
    let softening = 1e-3;
    let n: usize = arg("n", if smoke { 20_000 } else { 100_000 });
    let reps = if smoke { 1 } else { 3 };
    let groups: &[usize] = if smoke { &[32] } else { &[8, 16, 32, 64, 128, 256] };
    let state = galaxy_collision(n, 2024);
    println!("simd dispatch: {}", simd_level().name());

    let mut rows: Vec<Row> = vec![];
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        let base = SolverParams { theta, softening, ..SolverParams::default() };
        let (per_body_s, allocs, acc) = time_force(kind, &state, base, reps);
        rows.push(Row {
            tree: kind.name(),
            eval: "per-body".into(),
            kernel: "scalar",
            precision: "f64",
            group: 0,
            force_s: per_body_s,
            allocs,
            err: mean_rel_error(&acc, &state, softening),
            speedup: 1.0,
            speedup_vs_scalar: 1.0,
        });
        for cfg in &kernels {
            for &g in groups {
                let params = SolverParams {
                    eval: ForceEval::Blocked { group: g },
                    kernel: cfg.kernel,
                    precision: cfg.precision,
                    ..base
                };
                let (secs, allocs, acc) = time_force(kind, &state, params, reps);
                let scalar_s = rows
                    .iter()
                    .find(|r| {
                        r.tree == kind.name() && r.group == g && r.kernel == "scalar"
                    })
                    .map(|r| r.force_s);
                rows.push(Row {
                    tree: kind.name(),
                    eval: format!("blocked[{g}]"),
                    kernel: cfg.kernel.name(),
                    precision: cfg.precision.name(),
                    group: g,
                    force_s: secs,
                    allocs,
                    err: mean_rel_error(&acc, &state, softening),
                    speedup: per_body_s / secs,
                    speedup_vs_scalar: scalar_s.map_or(1.0, |s| s / secs),
                });
            }
        }
    }

    print_table(
        &[
            "tree",
            "eval",
            "kernel",
            "precision",
            "force s",
            "allocs/step",
            "mean rel err",
            "speedup",
            "vs scalar",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.tree.into(),
                    r.eval.clone(),
                    r.kernel.into(),
                    r.precision.into(),
                    format!("{:.4}", r.force_s),
                    format!("{}", r.allocs),
                    format!("{:.3e}", r.err),
                    format!("{:.2}x", r.speedup),
                    format!("{:.2}x", r.speedup_vs_scalar),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!();
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        println!(
            "{}: default blocked group G={} (ForceEval::Blocked {{ group: 0 }} resolves here)",
            kind.name(),
            default_group(kind)
        );
        for cfg in &kernels {
            if let Some(best) = rows
                .iter()
                .filter(|r| r.tree == kind.name() && r.group > 0 && r.kernel == cfg.kernel.name())
                .filter(|r| r.precision == cfg.precision.name())
                .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
            {
                println!(
                    "{}/{}: best blocked group G={} -> {:.2}x over per-body, {:.2}x over \
                     scalar same-group (err {:.3e})",
                    kind.name(),
                    cfg.name,
                    best.group,
                    best.speedup,
                    best.speedup_vs_scalar,
                    best.err
                );
            }
        }
    }

    if !json_path.is_empty() {
        let mut body = String::new();
        for (i, r) in rows.iter().enumerate() {
            if i > 0 {
                body.push_str(",\n");
            }
            body.push_str(&format!(
                "    {{\"tree\": \"{}\", \"eval\": \"{}\", \"group\": {}, \
                 \"kernel\": \"{}\", \"precision\": \"{}\", \
                 \"force_s\": {}, \"allocs_per_step\": {}, \
                 \"mean_rel_err\": {}, \"speedup\": {}, \
                 \"speedup_vs_scalar\": {}}}",
                r.tree,
                if r.group == 0 { "per-body" } else { "blocked" },
                r.group,
                r.kernel,
                r.precision,
                fmt_f64(r.force_s),
                r.allocs,
                fmt_f64(r.err),
                fmt_f64(r.speedup),
                fmt_f64(r.speedup_vs_scalar),
            ));
        }
        let doc = format!(
            "{{\n  \"bench\": \"blocked_sweep\",\n  \"n\": {n},\n  \"theta\": {theta},\n  \
             \"softening\": {softening},\n  \"threads\": {},\n  \
             \"simd_dispatch\": \"{}\",\n  \
             \"default_group\": {{\"octree\": {}, \"bvh\": {}}},\n  \"rows\": [\n{body}\n  ]\n}}\n",
            stdpar::backend::hardware_parallelism(),
            simd_level().name(),
            default_group(SolverKind::Octree),
            default_group(SolverKind::Bvh),
        );
        std::fs::write(&json_path, doc).expect("write json");
        println!();
        println!("wrote {json_path}");
    }

    if !metrics_path.is_empty() {
        let snap = nbody_telemetry::MetricsSnapshot::capture();
        std::fs::write(&metrics_path, snap.to_json()).expect("write metrics json");
        println!("wrote {metrics_path} (telemetry enabled: {})", nbody_telemetry::ENABLED);
    }
}
