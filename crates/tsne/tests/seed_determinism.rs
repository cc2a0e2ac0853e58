//! Same seed, same embedding — bit for bit — once the schedule is fixed too.
//!
//! A test binary of its own because the thread count is process-global:
//! pinning one worker here slows down no other test. The live-schedule
//! counterpart (default thread count, bounded deviation) is
//! `gradient::tests::embedding_is_deterministic_for_fixed_seed`.

use bh_tsne::{Tsne, TsneConfig};
use nbody_math::SplitMix64;

#[test]
fn one_worker_embeddings_are_bitwise_identical() {
    // Two 4-D clusters of 30 points, as in the live-schedule test.
    let mut r = SplitMix64::new(13);
    let centers = [0.0, 6.0].into_iter().flat_map(|c| std::iter::repeat_n(c, 30 * 4));
    let data: Vec<f64> = centers.map(|c| c + r.normal() * 0.2).collect();
    let cfg = TsneConfig { iters: 40, perplexity: 8.0, seed: 5, ..Default::default() };
    let (a, b) = stdpar::backend::with_threads(1, || {
        (Tsne::new(cfg).run(&data, 4), Tsne::new(cfg).run(&data, 4))
    });
    assert_eq!(a, b);
    assert!(a.iter().all(|p| p[0].is_finite() && p[1].is_finite()));
}
