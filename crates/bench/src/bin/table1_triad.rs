//! Table I regenerator: BabelStream-style TRIAD memory-bandwidth
//! validation of the parallel substrate.
//!
//! The paper validates every system by running the BabelStream ISO C++
//! parallel-algorithms TRIAD kernel (`a[i] = b[i] + s·c[i]`) and comparing
//! against theoretical peak bandwidth. This binary does the same over the
//! `stdpar` crate: per policy (seq / par / par_unseq), it reports achieved
//! GB/s.
//!
//! Usage: `table1_triad [--elems=33554432] [--reps=50]`

use nbody_bench::{arg, print_banner, print_table};
use stdpar::prelude::*;
use std::time::Instant;

fn triad<P: ExecutionPolicy + Copy>(
    policy: P,
    a: &mut [f64],
    b: &[f64],
    c: &[f64],
    s: f64,
    reps: usize,
) -> f64 {
    // One warmup rep, then the timed loop; returns best GB/s over reps
    // (BabelStream reports the best iteration).
    let bytes = 3 * a.len() * std::mem::size_of::<f64>();
    let run = |a: &mut [f64]| {
        let out = SyncSlice::new(a);
        for_each_index(policy, 0..b.len(), |i| unsafe {
            out.write(i, b[i] + s * c[i]);
        });
    };
    run(a);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        run(a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    bytes as f64 / best / 1e9
}

fn main() {
    print_banner("Table I — TRIAD bandwidth validation (BabelStream stand-in)");
    let elems: usize = arg("elems", 1 << 25);
    let reps: usize = arg("reps", 20);
    let s = 0.4;
    let b: Vec<f64> = (0..elems).map(|i| i as f64 * 1e-9).collect();
    let c: Vec<f64> = (0..elems).map(|i| (i % 1024) as f64).collect();
    let mut a = vec![0.0f64; elems];

    let seq = triad(Seq, &mut a, &b, &c, s, reps.min(5));
    let par = triad(Par, &mut a, &b, &c, s, reps);
    let unseq = triad(ParUnseq, &mut a, &b, &c, s, reps);
    // Correctness spot check.
    assert!(a.iter().take(100).enumerate().all(|(i, &v)| v == b[i] + s * c[i]));

    println!(
        "TRIAD a[i] = b[i] + {s}·c[i], {} elements ({} MB/array), best of {reps} reps",
        elems,
        elems * 8 / (1 << 20)
    );
    print_table(
        &["seq GB/s", "par GB/s", "par_unseq GB/s"],
        &[vec![format!("{seq:.2}"), format!("{par:.2}"), format!("{unseq:.2}")]],
    );
}
