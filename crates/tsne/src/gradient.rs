//! Barnes-Hut t-SNE gradient descent (van der Maaten 2013).
//!
//! Gradient of the KL divergence, split as in the BH-SNE paper:
//!
//! ```text
//! ∂C/∂y_i = 4 ( Σ_j p_ij q_ij (y_i−y_j)  −  (1/Z) Σ_j q_ij² (y_i−y_j) )
//!            \_____ attractive, sparse _/    \__ repulsive, Barnes-Hut _/
//! ```
//!
//! with `q_ij = 1/(1+‖y_i−y_j‖²)` (unnormalised Student-t) and
//! `Z = Σ_{k≠l} q_kl`. The repulsive sum and `Z` are approximated with the
//! concurrent octree's visitor traversal at acceptance threshold θ, using
//! unit weights so node masses are body counts.

use crate::affinity::{gaussian_affinities, SparseAffinities};
use bh_octree::Octree;
use nbody_math::{Aabb, SplitMix64, Vec3};
use std::cell::Cell;
use stdpar::prelude::*;

/// Hyper-parameters (defaults follow the reference implementation).
#[derive(Clone, Copy, Debug)]
pub struct TsneConfig {
    pub perplexity: f64,
    /// Barnes-Hut acceptance threshold.
    pub theta: f64,
    pub learning_rate: f64,
    pub iters: usize,
    /// Multiply `P` by this factor for the first `exaggeration_iters`.
    pub early_exaggeration: f64,
    pub exaggeration_iters: usize,
    pub seed: u64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        TsneConfig {
            perplexity: 30.0,
            theta: 0.5,
            learning_rate: 200.0,
            iters: 500,
            early_exaggeration: 12.0,
            exaggeration_iters: 100,
            seed: 42,
        }
    }
}

/// The Barnes-Hut t-SNE embedder.
pub struct Tsne {
    config: TsneConfig,
}

impl Tsne {
    pub fn new(config: TsneConfig) -> Self {
        Tsne { config }
    }

    /// Embed `n × dim` row-major `data` into 2-D. Returns `n` points.
    pub fn run(&self, data: &[f64], dim: usize) -> Vec<[f64; 2]> {
        let p = gaussian_affinities(data, dim, self.config.perplexity);
        self.run_with_affinities(&p)
    }

    /// Embed from precomputed affinities.
    pub fn run_with_affinities(&self, p: &SparseAffinities) -> Vec<[f64; 2]> {
        let n = p.n();
        let cfg = self.config;
        let mut rng = SplitMix64::new(cfg.seed);
        // Standard tiny-Gaussian initialisation.
        let mut y: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(rng.normal() * 1e-4, rng.normal() * 1e-4, 0.0))
            .collect();
        let mut velocity = vec![Vec3::ZERO; n];
        let mut gains = vec![Vec3::ONE; n];
        let unit = vec![1.0f64; n];
        let mut tree = Octree::new();

        for iter in 0..cfg.iters {
            let exaggeration =
                if iter < cfg.exaggeration_iters { cfg.early_exaggeration } else { 1.0 };
            let momentum = if iter < cfg.exaggeration_iters { 0.5 } else { 0.8 };

            let (rep, z) = repulsion_field(&mut tree, &y, &unit, cfg.theta);
            let grad = gradient(p, &y, &rep, z, exaggeration);

            // Momentum update with per-coordinate adaptive gains.
            for i in 0..n {
                let g = grad[i];
                for c in 0..2 {
                    let sign_match = g[c].signum() == velocity[i][c].signum();
                    gains[i][c] =
                        if sign_match { (gains[i][c] * 0.8).max(0.01) } else { gains[i][c] + 0.2 };
                }
                velocity[i] = velocity[i] * momentum
                    - Vec3::new(g.x * gains[i].x, g.y * gains[i].y, 0.0) * cfg.learning_rate;
                y[i] += velocity[i];
                y[i].z = 0.0;
            }
            // Re-centre (the gradient is translation-invariant).
            let com: Vec3 = y.iter().fold(Vec3::ZERO, |a, &v| a + v) / n as f64;
            for v in &mut y {
                *v -= com;
            }
        }
        y.into_iter().map(|v| [v.x, v.y]).collect()
    }

    /// KL divergence of the current embedding (exact `O(N²)`; diagnostics).
    pub fn kl_divergence(p: &SparseAffinities, y: &[[f64; 2]]) -> f64 {
        let n = p.n();
        let mut z = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let dx = y[i][0] - y[j][0];
                    let dy = y[i][1] - y[j][1];
                    z += 1.0 / (1.0 + dx * dx + dy * dy);
                }
            }
        }
        let mut kl = 0.0;
        for i in 0..n {
            for (j, pij) in p.row(i) {
                if pij > 0.0 {
                    let dx = y[i][0] - y[j as usize][0];
                    let dy = y[i][1] - y[j as usize][1];
                    let qij = (1.0 / (1.0 + dx * dx + dy * dy)) / z;
                    kl += pij * (pij / qij.max(1e-300)).ln();
                }
            }
        }
        kl
    }
}

/// Barnes-Hut repulsive field: per point `Σ_j q² d` plus the global
/// normaliser `Z = Σ q`. Exact pairwise when `theta == 0`.
pub fn repulsion_field(
    tree: &mut Octree,
    y: &[Vec3],
    unit: &[f64],
    theta: f64,
) -> (Vec<Vec3>, f64) {
    let n = y.len();
    tree.build(Par, y, Aabb::from_points(y)).expect("tsne octree build");
    tree.compute_multipoles(Par, y, unit);

    let mut rep = vec![Vec3::ZERO; n];
    let mut z_parts = vec![0.0f64; n];
    {
        let rep_out = SyncSlice::new(&mut rep);
        let z_out = SyncSlice::new(&mut z_parts);
        let tree_ref = &*tree;
        for_each_index(Par, 0..n, |i| {
            let p = y[i];
            let acc = Cell::new(Vec3::ZERO);
            let z = Cell::new(0.0f64);
            tree_ref.traverse(
                p,
                theta,
                |node| {
                    let d = p - node.com;
                    let q = 1.0 / (1.0 + d.norm2());
                    z.set(z.get() + node.mass * q);
                    acc.set(acc.get() + d * (node.mass * q * q));
                },
                |b| {
                    if b != i as u32 {
                        let d = p - y[b as usize];
                        let q = 1.0 / (1.0 + d.norm2());
                        z.set(z.get() + q);
                        acc.set(acc.get() + d * (q * q));
                    }
                },
            );
            unsafe {
                rep_out.write(i, acc.get());
                z_out.write(i, z.get());
            }
        });
    }
    let z_total: f64 = z_parts.iter().sum();
    (rep, z_total.max(1e-12))
}

/// Full KL gradient from the sparse attractive term and the BH repulsion.
fn gradient(
    p: &SparseAffinities,
    y: &[Vec3],
    rep: &[Vec3],
    z: f64,
    exaggeration: f64,
) -> Vec<Vec3> {
    let n = y.len();
    let mut grad = vec![Vec3::ZERO; n];
    {
        let out = SyncSlice::new(&mut grad);
        for_each_index(Par, 0..n, |i| {
            let mut attr = Vec3::ZERO;
            for (j, pij) in p.row(i) {
                let d = y[i] - y[j as usize];
                let q = 1.0 / (1.0 + d.norm2());
                attr += d * (exaggeration * pij * q);
            }
            unsafe { out.write(i, (attr - rep[i] / z) * 4.0) };
        });
    }
    grad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_data(n_per: usize, dim: usize, centers: &[f64], seed: u64) -> Vec<f64> {
        let mut r = SplitMix64::new(seed);
        let mut data = Vec::new();
        for &c in centers {
            for _ in 0..n_per {
                for _ in 0..dim {
                    data.push(c + r.normal() * 0.2);
                }
            }
        }
        data
    }

    #[test]
    fn bh_repulsion_matches_exact_at_theta_zero_and_is_close_at_half() {
        let mut r = SplitMix64::new(7);
        let y: Vec<Vec3> =
            (0..300).map(|_| Vec3::new(r.normal(), r.normal(), 0.0)).collect();
        let unit = vec![1.0; y.len()];
        let mut tree = Octree::new();
        let (exact, z_exact) = repulsion_field(&mut tree, &y, &unit, 0.0);
        let (approx, z_approx) = repulsion_field(&mut tree, &y, &unit, 0.5);
        assert!((z_approx - z_exact).abs() < 0.02 * z_exact, "Z {z_approx} vs {z_exact}");
        let mut worst = 0.0f64;
        for (a, e) in approx.iter().zip(&exact) {
            worst = worst.max((*a - *e).norm() / (1e-9 + e.norm()));
        }
        assert!(worst < 0.25, "worst relative repulsion error {worst}");
        // And the exact branch really is exact: cross-check one point.
        let p = y[0];
        let mut reference = Vec3::ZERO;
        for (j, &x) in y.iter().enumerate() {
            if j != 0 {
                let d = p - x;
                let q = 1.0 / (1.0 + d.norm2());
                reference += d * (q * q);
            }
        }
        assert!((exact[0] - reference).norm() < 1e-12);
    }

    #[test]
    fn clusters_separate_and_kl_decreases() {
        let n_per = 60;
        let data = cluster_data(n_per, 8, &[0.0, 12.0, -12.0], 11);
        let p = gaussian_affinities(&data, 8, 15.0);

        let early = Tsne::new(TsneConfig {
            iters: 5,
            perplexity: 15.0,
            ..Default::default()
        })
        .run_with_affinities(&p);
        let late = Tsne::new(TsneConfig {
            iters: 350,
            perplexity: 15.0,
            ..Default::default()
        })
        .run_with_affinities(&p);

        let kl_early = Tsne::kl_divergence(&p, &early);
        let kl_late = Tsne::kl_divergence(&p, &late);
        assert!(kl_late < kl_early, "KL should decrease: {kl_early} -> {kl_late}");

        // Separation quality: inter-centroid vs intra-cluster spread.
        let centroid = |pts: &[[f64; 2]]| {
            let (mut cx, mut cy) = (0.0, 0.0);
            for p in pts {
                cx += p[0];
                cy += p[1];
            }
            [cx / pts.len() as f64, cy / pts.len() as f64]
        };
        let groups: Vec<&[[f64; 2]]> =
            vec![&late[..n_per], &late[n_per..2 * n_per], &late[2 * n_per..]];
        let cents: Vec<[f64; 2]> = groups.iter().map(|g| centroid(g)).collect();
        let intra: f64 = groups
            .iter()
            .zip(&cents)
            .map(|(g, c)| {
                g.iter().map(|p| ((p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2)).sqrt()).sum::<f64>()
                    / g.len() as f64
            })
            .sum::<f64>()
            / 3.0;
        let mut inter = 0.0;
        let mut pairs = 0.0;
        for a in 0..3 {
            for b in (a + 1)..3 {
                inter += ((cents[a][0] - cents[b][0]).powi(2)
                    + (cents[a][1] - cents[b][1]).powi(2))
                .sqrt();
                pairs += 1.0;
            }
        }
        inter /= pairs;
        assert!(
            inter > 2.0 * intra,
            "clusters not separated: inter {inter} vs intra {intra}"
        );
    }

    #[test]
    fn embedding_is_deterministic_for_fixed_seed() {
        let data = cluster_data(30, 4, &[0.0, 6.0], 13);
        let cfg = TsneConfig { iters: 40, perplexity: 8.0, seed: 5, ..Default::default() };
        let a = Tsne::new(cfg).run(&data, 4);
        let b = Tsne::new(cfg).run(&data, 4);
        // Default thread count, live schedule. The concurrent octree build
        // and its arrival-order multipole reduction commute floats, and the
        // gains update (a sign test) turns a last-bit difference into a
        // discrete jump: over 300 runs at 2, 4 and 8 threads the two
        // embeddings differed by exactly 0 (two thirds of the runs), by
        // 3e-13 to 4e-10, by 1.6e-5, or (3 runs) by 1.6e-2, on an extent of
        // 48 (EXPERIMENTS.md). What a live schedule can promise is a layout
        // that agrees to well under a percent of its extent, where another
        // seed moves points by the extent itself; the bitwise claim is made
        // where it holds, on one worker, in `tests/seed_determinism.rs`.
        let max_dev = |x: &[[f64; 2]], y: &[[f64; 2]]| {
            let dev = x.iter().zip(y).map(|(p, q)| (p[0] - q[0]).abs().max((p[1] - q[1]).abs()));
            dev.fold(0.0, f64::max)
        };
        let extent = a.iter().map(|p| p[0].abs().max(p[1].abs())).fold(0.0, f64::max);
        assert!(max_dev(&a, &b) < 1e-2 * extent, "{} of {extent}", max_dev(&a, &b));
        let other = Tsne::new(TsneConfig { seed: 6, ..cfg }).run(&data, 4);
        assert!(max_dev(&a, &other) > 0.1 * extent, "{} of {extent}", max_dev(&a, &other));
    }

    #[test]
    fn output_stays_planar_and_finite() {
        let data = cluster_data(25, 3, &[0.0, 4.0], 17);
        let emb = Tsne::new(TsneConfig { iters: 60, perplexity: 8.0, ..Default::default() })
            .run(&data, 3);
        assert_eq!(emb.len(), 50);
        assert!(emb.iter().all(|p| p[0].is_finite() && p[1].is_finite()));
    }
}
