//! Order statistics for op timings.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0 < p ≤ 1) in a sorted sample of
/// `n`: the value at `ceil(p·n) − 1`.
fn rank_index(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending sample of nanosecond counts;
/// 0 for an empty one.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank_index(sorted.len(), p)] as f64
}

/// Nearest-rank percentile of an ascending sample of values; 0 for an
/// empty one.
pub fn percentile_of(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank_index(sorted.len(), p)]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(n, p)
    }
}

/// The percentile rule: a percentile is reported as resolved only when at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile_resolved(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Most blocks a run is cut into for the quiet-block estimators.
pub const BLOCKS: usize = 16;

/// The quiet-block estimators read this percentile of the per-block values,
/// from the good end: of 16 blocks the fourth best, so a quarter of the run
/// is all the quiet time they need. (The best blocks include lucky ones and
/// spread 9-12% between runs of the small workloads on a quiet host; the
/// middle block is as noisy as the run on a busy one.)
pub const QUIET_PERCENTILE: f64 = 0.25;

/// Fewest ops in a block, where the run has that many.
pub const MIN_BLOCK_OPS: u64 = 8;

/// One of the consecutive blocks of a run: the ops it holds, as indices
/// into the run's latencies, and its wall time from the end of the block
/// before it (between-op time included).
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    pub ops: std::ops::Range<usize>,
    pub wall_ns: u64,
}

/// Cuts a run into up to [`BLOCKS`] consecutive blocks of equally many
/// calls. `marks` holds, per call of the closed loop, the ops completed and
/// the nanoseconds elapsed when it returned; a block ends only where the op
/// count is a multiple of `cycle`, so every block holds the same mix of ops.
/// Calls left over after the last whole block belong to no block.
pub fn blocks(marks: &[(u64, u64)], cycle: u64) -> Vec<Block> {
    let cuts: Vec<(u64, u64)> = marks
        .iter()
        .copied()
        .filter(|(ops, _)| ops % cycle.max(1) == 0)
        .collect();
    let Some(&(total, _)) = cuts.last() else {
        return Vec::new();
    };
    let ops_per_cut = (total / cuts.len() as u64).max(1);
    let per = cuts
        .len()
        .div_ceil(BLOCKS)
        .max(MIN_BLOCK_OPS.div_ceil(ops_per_cut) as usize)
        .min(cuts.len());
    let mut prev = (0u64, 0u64);
    cuts.chunks_exact(per)
        .map(|chunk| {
            let end = chunk[per - 1];
            let block = Block {
                ops: prev.0 as usize..end.0 as usize,
                wall_ns: end.1 - prev.1,
            };
            prev = end;
            block
        })
        .collect()
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Run-to-run spread as a share of the median: the interquartile distance
/// (exclusive method, as Python's `statistics.quantiles(n=4)`) from four
/// values up, the full range below that, 0 for a single value.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values).abs();
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let width = if v.len() < 4 {
        v[v.len() - 1] - v[0]
    } else {
        let q = |k: f64| {
            let pos = k * (v.len() + 1) as f64 / 4.0;
            let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
            let frac = (pos - lo as f64).clamp(0.0, 1.0);
            v[lo - 1] + frac * (v[lo] - v[lo - 1])
        };
        q(3.0) - q(1.0)
    };
    width / med
}

/// Jain fairness index `(Σx)² / (k·Σx²)`; 1 when every share is equal.
pub fn jain(xs: &[f64]) -> f64 {
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if xs.is_empty() || s2 == 0.0 {
        1.0
    } else {
        s * s / (xs.len() as f64 * s2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        // Of 16 blocks the quiet percentile is the fourth best, of 12 the third.
        let blocks: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(percentile_of(&blocks, QUIET_PERCENTILE), 4.0);
        assert_eq!(percentile_of(&blocks, 1.0 - QUIET_PERCENTILE), 12.0);
        assert_eq!(percentile_of(&blocks[..12], QUIET_PERCENTILE), 3.0);
        assert_eq!(percentile_of(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(percentile_resolved(100, 0.9));
        assert!(!percentile_resolved(99, 0.9));
        assert!(!percentile_resolved(100, 0.99));
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(percentile_resolved(1000, 0.99));
        assert!(!percentile_resolved(999, 0.99));
        assert!(percentile_resolved(20, 0.5));
        assert!(!percentile_resolved(0, 0.5));
    }

    #[test]
    fn blocks_hold_whole_cycles_and_drop_the_remainder() {
        // 100 calls of one op, 1 ms each, cycle of 4: 25 cuts, blocks of 2
        // cuts (8 ops, the minimum and also ceil(25 / 16)), 12 blocks, the
        // last cut left over.
        let marks: Vec<(u64, u64)> = (1..=100).map(|i| (i, i * 1_000_000)).collect();
        let b = blocks(&marks, 4);
        assert_eq!(b.len(), 12);
        assert_eq!(
            b[0],
            Block {
                ops: 0..8,
                wall_ns: 8_000_000
            }
        );
        assert_eq!(
            b[11],
            Block {
                ops: 88..96,
                wall_ns: 8_000_000
            }
        );
        // 64 calls of 128 ops: 16 blocks of 4 calls.
        let ticks: Vec<(u64, u64)> = (1..=64).map(|i| (i * 128, i * 7)).collect();
        let b = blocks(&ticks, 1);
        assert_eq!(b.len(), BLOCKS);
        assert_eq!(
            b[1],
            Block {
                ops: 512..1024,
                wall_ns: 28
            }
        );
        // Fewer ops than one block wants: a single block of all of them.
        let few: Vec<(u64, u64)> = (1..=5).map(|i| (i, i * 10)).collect();
        assert_eq!(
            blocks(&few, 1),
            vec![Block {
                ops: 0..5,
                wall_ns: 50
            }]
        );
        assert!(blocks(&[], 1).is_empty());
        assert!(blocks(&[(3, 9)], 4).is_empty());
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&[9.0, 11.0]) - 0.2).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn jain_index() {
        assert_eq!(jain(&[2.0, 2.0, 2.0]), 1.0);
        assert!((jain(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert_eq!(jain(&[]), 1.0);
    }
}
