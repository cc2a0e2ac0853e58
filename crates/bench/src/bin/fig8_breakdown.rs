//! Figure 8 regenerator: relative execution time of the algorithm
//! components (everything except CALCULATEFORCE), small workload (10⁵).
//!
//! The paper plots, per toolchain (AdaptiveCpp / NVC++ / Clang), the share
//! of bounding-box, tree-build, multipole and sort phases, and finds the
//! spread between toolchains small and "attributed mainly in the sorting
//! algorithm". One host has one toolchain, so this prints the breakdown of
//! the one `stdpar` backend per tree (DESIGN.md, Fig. 8 row).
//!
//! Usage: `fig8_breakdown [--n=100000] [--steps=3]`

use nbody_bench::{arg, measure_sim, print_banner, print_table};
use nbody_sim::prelude::*;

fn main() {
    print_banner("Figure 8 — per-phase execution time breakdown (small: 10^5)");
    let n: usize = arg("n", 100_000);
    let steps: usize = arg("steps", 3);
    let state = galaxy_collision(n, 2024);

    let mut rows = vec![];
    for kind in [SolverKind::Octree, SolverKind::Bvh] {
        let policy = if kind == SolverKind::Octree { DynPolicy::Par } else { DynPolicy::ParUnseq };
        let m = measure_sim(
            kind.name().to_string(),
            state.clone(),
            kind,
            SimOptions { dt: 1e-3, policy, ..SimOptions::default() },
            1,
            steps,
        )
        .unwrap();
        let t = m.timings;
        let non_force = t.non_force().as_secs_f64().max(1e-12);
        let pct = |d: std::time::Duration| format!("{:5.1}%", 100.0 * d.as_secs_f64() / non_force);
        rows.push(vec![
            kind.name().into(),
            pct(t.bbox),
            pct(t.sort),
            pct(t.build),
            pct(t.multipole),
            pct(t.update),
            format!("{:.1}%", 100.0 * t.force.as_secs_f64() / t.total().as_secs_f64()),
        ]);
    }
    print_table(
        &["algorithm", "bbox", "sort", "build", "multipole", "update", "(force share of total)"],
        &rows,
    );
    println!();
    println!("columns bbox..update are relative to the NON-force time, as in the paper;");
    println!("the last column shows how dominant CALCULATEFORCE is overall.");
}
