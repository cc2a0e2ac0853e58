//! Figure 6 regenerator: algorithm throughput, small galaxy workload
//! (10⁵ bodies), across the configuration axis (the paper's system axis).
//!
//! On the paper's systems this figure shows: MI300X best for all-pairs
//! algorithms, the BVH running everywhere, the Octree only where parallel
//! forward progress exists, and the trees dominating the brute-force
//! baselines. Our configuration axis is the execution policy on one host.
//!
//! Usage: `fig6_small [--n=100000] [--steps=2] [--skip-allpairs]`

use nbody_bench::{arg, flag, fmt_throughput, measure_sim, print_banner, print_table};
use nbody_sim::prelude::*;

fn main() {
    print_banner("Figure 6 — algorithm throughput (small: 10^5)");
    let n: usize = arg("n", 100_000);
    let steps: usize = arg("steps", 2);
    let skip_allpairs = flag("skip-allpairs");
    let state = galaxy_collision(n, 2024);

    let mut rows = vec![];
    for kind in SolverKind::ALL {
        if skip_allpairs && !kind.is_tree() {
            continue;
        }
        for policy in [DynPolicy::Par, DynPolicy::ParUnseq] {
            let label = format!("{}/{}", kind.name(), policy.name());
            match measure_sim(
                label.clone(),
                state.clone(),
                kind,
                SimOptions { dt: 1e-3, policy, ..SimOptions::default() },
                0,
                steps,
            ) {
                Ok(m) => rows.push(vec![
                    kind.name().into(),
                    policy.name().into(),
                    fmt_throughput(m.throughput()),
                    format!("{:.2}", m.seconds),
                ]),
                Err(e) => rows.push(vec![
                    kind.name().into(),
                    policy.name().into(),
                    "n/a".into(),
                    format!("({e})"),
                ]),
            }
        }
    }
    print_table(&["algorithm", "policy", "throughput", "seconds"], &rows);
    println!();
    println!("n/a rows are the paper's portability result: octree and all-pairs-col");
    println!("cannot run under par_unseq (no parallel forward progress).");
}
