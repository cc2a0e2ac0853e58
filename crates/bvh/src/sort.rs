//! HILBERTSORT (paper §IV-B.1, Algorithm 7).
//!
//! Bodies are binned on the coarsest equidistant Cartesian grid holding all
//! of them; each body's cell is mapped to a Hilbert index with Skilling's
//! algorithm (precomputed once, "to avoid recomputation"); the bodies are
//! then sorted by that key with the parallel sort.
//!
//! The paper's primary path zips masses and positions through the sort
//! (`views::zip`); its portable fallback — which we implement — sorts an
//! auxiliary buffer of `(hilbert, index)` pairs and applies the result as a
//! permutation (paper §V-A, implementation issue 2).

use crate::build::Bvh;
use nbody_math::hilbert::HilbertGrid;
use nbody_math::{Aabb, BuildError, Vec3};
use stdpar::prelude::*;

/// Maximum number of ascending runs the lazy re-sort will repair with a
/// natural merge; more disorder than this and a full parallel sort is the
/// faster (and simpler) option. Power of two so every merge round halves
/// the run count exactly.
pub const MAX_LAZY_RUNS: usize = 32;

/// Merge two ascending runs into `dst` (appending). Distinct elements, so
/// `<=` vs `<` is irrelevant for the output order — but `<=` keeps the
/// merge stable anyway.
fn merge_runs(a: &[(u64, u32)], b: &[(u64, u32)], dst: &mut Vec<(u64, u32)>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            dst.push(a[i]);
            i += 1;
        } else {
            dst.push(b[j]);
            j += 1;
        }
    }
    dst.extend_from_slice(&a[i..]);
    dst.extend_from_slice(&b[j..]);
}

/// A non-empty system sorts only inside a finite, non-empty box and at
/// finite positions (one sequential scan on the caller thread).
fn sortable(positions: &[Vec3], bounds: Aabb) -> bool {
    !bounds.is_empty()
        && bounds.min.is_finite()
        && bounds.max.is_finite()
        && positions.iter().all(|p| p.is_finite())
}

impl Bvh {
    /// Apply sorted `(key, index)` pairs as the permutation: gather
    /// positions and masses into the tree's retained buffers.
    fn gather_sorted<P: ExecutionPolicy>(
        &mut self,
        policy: P,
        positions: &[Vec3],
        masses: &[f64],
        sorted: &[(u64, u32)],
    ) {
        self.perm.clear();
        self.perm.extend(sorted.iter().map(|&(_, i)| i));
        apply_permutation_into(policy, positions, &self.perm, &mut self.sorted_pos);
        apply_permutation_into(policy, masses, &self.perm, &mut self.sorted_mass);
        self.mark_sorted();
    }

    /// Sort bodies along the Hilbert curve, panicking on invalid input.
    ///
    /// Thin wrapper over [`Bvh::try_hilbert_sort`] for callers that treat
    /// bad input as a programming error.
    pub fn hilbert_sort<P: ExecutionPolicy>(
        &mut self,
        policy: P,
        positions: &[Vec3],
        masses: &[f64],
        bounds: Aabb,
    ) {
        if let Err(e) = self.try_hilbert_sort(policy, positions, masses, bounds) {
            panic!("hilbert_sort: {e}");
        }
    }

    /// Sort bodies along the Hilbert curve.
    ///
    /// `bounds` is the output of CALCULATEBOUNDINGBOX. After this call,
    /// [`Bvh::sorted_positions`] and the permutation are valid and
    /// [`Bvh::build_and_accumulate`] may run. Any execution policy works
    /// (`par_unseq` in the paper).
    ///
    /// Errors with [`BuildError::LengthMismatch`] if `positions` and
    /// `masses` disagree, or [`BuildError::InvalidPositions`] if any
    /// position is non-finite or the bounds of a non-empty system are
    /// empty/non-finite.
    pub fn try_hilbert_sort<P: ExecutionPolicy>(
        &mut self,
        policy: P,
        positions: &[Vec3],
        masses: &[f64],
        bounds: Aabb,
    ) -> Result<(), BuildError> {
        let mut scratch = crate::scratch::BvhScratch::new();
        self.try_hilbert_sort_with(policy, positions, masses, bounds, &mut scratch)
    }

    /// [`Bvh::try_hilbert_sort`] borrowing caller-owned scratch: the pair
    /// buffer and the merge sort's ping-pong storage come from `scratch`,
    /// and the gathered `sorted_pos`/`sorted_mass` reuse their retained
    /// capacity, so a steady-state caller allocates nothing after warm-up.
    pub fn try_hilbert_sort_with<P: ExecutionPolicy>(
        &mut self,
        policy: P,
        positions: &[Vec3],
        masses: &[f64],
        bounds: Aabb,
        scratch: &mut crate::scratch::BvhScratch,
    ) -> Result<(), BuildError> {
        if positions.len() != masses.len() {
            return Err(BuildError::LengthMismatch {
                positions: positions.len(),
                masses: masses.len(),
            });
        }
        let n = positions.len();
        self.n = n;
        self.unmark_sorted();
        if n == 0 {
            self.perm.clear();
            self.sorted_pos.clear();
            self.sorted_mass.clear();
            self.mark_sorted();
            return Ok(());
        }
        if !sortable(positions, bounds) {
            return Err(BuildError::InvalidPositions);
        }

        // Precompute the keys (one pass), then sort (key, index) pairs.
        // The pair buffer and sort scratch come from the caller's arena.
        let grid = HilbertGrid::new(bounds, self.params.hilbert_bits);
        let pairs = &mut scratch.pairs;
        pairs.clear();
        pairs.resize(n, (0, 0));
        {
            let view = SyncSlice::new(pairs.as_mut_slice());
            for_each_index(policy, 0..n, |i| unsafe {
                view.write(i, (grid.key_of(positions[i]), i as u32));
            });
        }
        sort_unstable_by_with_scratch(policy, pairs, &mut scratch.sort, |a, b| a.cmp(b));
        self.gather_sorted(policy, positions, masses, pairs);
        Ok(())
    }

    /// Lazy re-sort for the incremental lifecycle: recompute the keys of
    /// the *previous* permutation order and fix only the locally-disordered
    /// stretches.
    ///
    /// Between consecutive small time steps most bodies keep their Hilbert
    /// rank, so the old order is a concatenation of a few ascending runs of
    /// the new keys. This entry point detects those runs in one O(N)
    /// comparison pass and repairs them with a natural merge:
    ///
    /// - 1 run — the old order is already sorted under the new keys; only
    ///   the gather of positions/masses runs (the permutation is unchanged).
    /// - ≤ [`MAX_LAZY_RUNS`] runs — adjacent runs are merged pairwise
    ///   (ping-pong between two scratch buffers) until one remains.
    /// - more runs, a changed body count, or no valid previous sort — full
    ///   [`Bvh::try_hilbert_sort_with`] fallback.
    ///
    /// `(key, id)` pairs are pairwise distinct (ids are unique), so the
    /// sorted sequence is unique and the merged result is **bitwise
    /// identical** to a full sort with the same `bounds` — the lazy path is
    /// an optimisation, never an approximation. Errors exactly as
    /// [`Bvh::try_hilbert_sort_with`] does.
    pub fn try_hilbert_resort_with<P: ExecutionPolicy>(
        &mut self,
        policy: P,
        positions: &[Vec3],
        masses: &[f64],
        bounds: Aabb,
        scratch: &mut crate::scratch::BvhScratch,
    ) -> Result<(), BuildError> {
        let n = positions.len();
        if !(self.sorted_is_current() && self.n == n && self.perm.len() == n && n > 0) {
            nbody_telemetry::record!(counter BVH_FULL_RESORTS, 1);
            return self.try_hilbert_sort_with(policy, positions, masses, bounds, scratch);
        }
        // From here on the previous sort is stale: a failed re-sort must
        // not leave the tree claiming its sorted data is current.
        self.unmark_sorted();
        if positions.len() != masses.len() {
            return Err(BuildError::LengthMismatch {
                positions: positions.len(),
                masses: masses.len(),
            });
        }
        if !sortable(positions, bounds) {
            return Err(BuildError::InvalidPositions);
        }

        // Recompute the keys in the previous sorted order: entry j holds
        // the new key of the body that occupied sorted slot j last step.
        let grid = HilbertGrid::new(bounds, self.params.hilbert_bits);
        let pairs = &mut scratch.pairs;
        pairs.clear();
        pairs.resize(n, (0, 0));
        {
            let view = SyncSlice::new(pairs.as_mut_slice());
            let perm = &self.perm;
            for_each_index(policy, 0..n, |j| unsafe {
                let b = perm[j];
                view.write(j, (grid.key_of(positions[b as usize]), b));
            });
        }

        // Ascending-run detection (strictly one O(N) comparison pass; the
        // `(key, id)` ordering matches the full sort's comparator).
        // Runs past the merge limit are counted, not kept: the fallback
        // discards the list, so it holds at most `MAX_LAZY_RUNS` entries and
        // a warm re-sort never grows it, however disordered the bodies.
        let runs = &mut scratch.runs;
        runs.clear();
        runs.reserve(MAX_LAZY_RUNS);
        let (mut start, mut count) = (0u32, 1usize);
        for j in 1..n {
            if pairs[j - 1] > pairs[j] {
                if count < MAX_LAZY_RUNS {
                    runs.push((start, j as u32));
                }
                start = j as u32;
                count += 1;
            }
        }
        runs.push((start, n as u32));
        nbody_telemetry::record!(hist BVH_RESORT_RUNS, count as u64);
        if count > MAX_LAZY_RUNS {
            nbody_telemetry::record!(counter BVH_FULL_RESORTS, 1);
            return self.try_hilbert_sort_with(policy, positions, masses, bounds, scratch);
        }

        // Natural merge: fold adjacent runs pairwise, ping-ponging between
        // the two pair buffers, until a single run spans the array. The
        // merge is sequential — the lazy path exists for the small-disorder
        // regime, where one O(N · log runs) scan beats a full parallel sort.
        let (mut src, mut dst) = (&mut scratch.pairs, &mut scratch.pairs2);
        let (mut rsrc, mut rdst) = (&mut scratch.runs, &mut scratch.runs2);
        while rsrc.len() > 1 {
            dst.clear();
            rdst.clear();
            let mut k = 0;
            while k < rsrc.len() {
                if k + 1 < rsrc.len() {
                    let (a0, a1) = rsrc[k];
                    let (b0, b1) = rsrc[k + 1];
                    debug_assert_eq!(a1, b0, "runs must tile the array");
                    merge_runs(
                        &src[a0 as usize..a1 as usize],
                        &src[b0 as usize..b1 as usize],
                        dst,
                    );
                    rdst.push((a0, b1));
                    k += 2;
                } else {
                    let (a0, a1) = rsrc[k];
                    dst.extend_from_slice(&src[a0 as usize..a1 as usize]);
                    rdst.push((a0, a1));
                    k += 1;
                }
            }
            std::mem::swap(&mut src, &mut dst);
            std::mem::swap(&mut rsrc, &mut rdst);
        }

        // Gather through the repaired permutation.
        self.gather_sorted(policy, positions, masses, src);
        nbody_telemetry::record!(counter BVH_LAZY_RESORTS, 1);
        Ok(())
    }

    /// [`Bvh::try_hilbert_resort_with`] with a throwaway scratch arena.
    pub fn try_hilbert_resort(
        &mut self,
        positions: &[Vec3],
        masses: &[f64],
        bounds: Aabb,
    ) -> Result<(), BuildError> {
        let mut scratch = crate::scratch::BvhScratch::new();
        self.try_hilbert_resort_with(Par, positions, masses, bounds, &mut scratch)
    }

    /// Hilbert keys of the *sorted* bodies (for tests/diagnostics).
    pub fn sorted_keys(&self, bounds: Aabb) -> Vec<u64> {
        let grid = HilbertGrid::new(bounds, self.params.hilbert_bits);
        self.sorted_pos.iter().map(|&p| grid.key_of(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_math::SplitMix64;

    fn random_system(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
        let mut r = SplitMix64::new(seed);
        let pos = (0..n)
            .map(|_| Vec3::new(r.uniform(0.0, 1.0), r.uniform(0.0, 1.0), r.uniform(0.0, 1.0)))
            .collect();
        let mass = (0..n).map(|_| r.uniform(0.1, 2.0)).collect();
        (pos, mass)
    }

    #[test]
    fn keys_are_nondecreasing_after_sort() {
        let (pos, mass) = random_system(5000, 71);
        let bounds = Aabb::from_points(&pos);
        let mut b = Bvh::new();
        b.hilbert_sort(ParUnseq, &pos, &mass, bounds);
        let keys = b.sorted_keys(bounds);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn permutation_preserves_body_data() {
        let (pos, mass) = random_system(1000, 72);
        let mut b = Bvh::new();
        b.hilbert_sort(Par, &pos, &mass, Aabb::from_points(&pos));
        let perm = b.permutation();
        for (j, &orig) in perm.iter().enumerate() {
            assert_eq!(b.sorted_positions()[j], pos[orig as usize]);
            assert_eq!(b.sorted_mass[j], mass[orig as usize]);
        }
        // It is a permutation.
        let mut sorted: Vec<u32> = perm.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000u32).collect::<Vec<_>>());
    }

    #[test]
    fn sorted_neighbours_are_spatially_close_on_average() {
        // The whole point of the Hilbert sort: adjacent bodies in the
        // sorted order are close in space, giving compact BVH leaves.
        let (pos, mass) = random_system(20_000, 73);
        let bounds = Aabb::from_points(&pos);
        let mut b = Bvh::new();
        b.hilbert_sort(ParUnseq, &pos, &mass, bounds);
        let sp = b.sorted_positions();
        let mean_sorted: f64 = sp.windows(2).map(|w| w[0].distance(w[1])).sum::<f64>()
            / (sp.len() - 1) as f64;
        let mean_unsorted: f64 = pos.windows(2).map(|w| w[0].distance(w[1])).sum::<f64>()
            / (pos.len() - 1) as f64;
        assert!(
            mean_sorted < mean_unsorted * 0.25,
            "sorted {mean_sorted} vs unsorted {mean_unsorted}"
        );
    }

    #[test]
    fn deterministic_across_policies_and_backends() {
        let (pos, mass) = random_system(3000, 74);
        let bounds = Aabb::from_points(&pos);
        let mut reference: Option<Vec<u32>> = None;
        for backend in Backend::ALL {
            with_backend(backend, || {
                let mut b = Bvh::new();
                b.hilbert_sort(Par, &pos, &mass, bounds);
                match &reference {
                    None => reference = Some(b.permutation().to_vec()),
                    Some(r) => assert_eq!(r, &b.permutation().to_vec(), "{}", backend.name()),
                }
            });
        }
    }

    #[test]
    fn scratch_reuse_across_changing_n_matches_fresh() {
        // One scratch arena across grow-then-shrink sorts must agree
        // bitwise with throwaway-scratch sorts (no stale-buffer reads).
        let mut scratch = crate::scratch::BvhScratch::new();
        for (n, seed) in [(3000usize, 74u64), (5000, 71), (1000, 72)] {
            let (pos, mass) = random_system(n, seed);
            let bounds = Aabb::from_points(&pos);
            let mut a = Bvh::new();
            a.try_hilbert_sort_with(Par, &pos, &mass, bounds, &mut scratch).unwrap();
            let mut b = Bvh::new();
            b.try_hilbert_sort(Par, &pos, &mass, bounds).unwrap();
            assert_eq!(a.permutation(), b.permutation(), "n={n}");
            assert_eq!(a.sorted_positions(), b.sorted_positions(), "n={n}");
        }
    }

    #[test]
    fn try_sort_rejects_bad_inputs_typed() {
        let mut b = Bvh::new();
        // Length mismatch.
        let err = b
            .try_hilbert_sort(Par, &[Vec3::ZERO, Vec3::ONE], &[1.0], Aabb::new(Vec3::ZERO, Vec3::ONE))
            .unwrap_err();
        assert_eq!(err, BuildError::LengthMismatch { positions: 2, masses: 1 });
        // NaN position.
        let pos = vec![Vec3::new(f64::NAN, 0.0, 0.0), Vec3::ONE];
        let err = b
            .try_hilbert_sort(Par, &pos, &[1.0, 1.0], Aabb::new(Vec3::ZERO, Vec3::ONE))
            .unwrap_err();
        assert_eq!(err, BuildError::InvalidPositions);
        // Empty bounds with bodies present.
        let err = b
            .try_hilbert_sort(Par, &[Vec3::ZERO], &[1.0], Aabb::EMPTY)
            .unwrap_err();
        assert_eq!(err, BuildError::InvalidPositions);
        // Build without a successful sort is typed, not a hang or panic.
        assert_eq!(b.try_build_and_accumulate(Par).unwrap_err(), BuildError::NotSorted);
    }

    #[test]
    fn try_sort_then_try_build_round_trip() {
        let (pos, mass) = random_system(500, 77);
        let mut b = Bvh::new();
        b.try_hilbert_sort(Par, &pos, &mass, Aabb::from_points(&pos)).unwrap();
        b.try_build_and_accumulate(Par).unwrap();
        crate::validate::BvhInvariants::check(&b).unwrap();
    }

    #[test]
    fn lazy_resort_matches_full_sort_bitwise() {
        // Random walk with small steps: the old order stays mostly sorted,
        // so the natural merge path runs — and must agree bitwise with a
        // from-scratch sort at every step.
        let (mut pos, mass) = random_system(4000, 80);
        let mut r = SplitMix64::new(81);
        let mut scratch = crate::scratch::BvhScratch::new();
        let mut lazy = Bvh::new();
        let bounds0 = Aabb::from_points(&pos);
        lazy.try_hilbert_sort_with(Par, &pos, &mass, bounds0, &mut scratch).unwrap();
        for _ in 0..8 {
            for p in &mut pos {
                *p += Vec3::new(
                    r.uniform(-1e-3, 1e-3),
                    r.uniform(-1e-3, 1e-3),
                    r.uniform(-1e-3, 1e-3),
                );
            }
            let bounds = Aabb::from_points(&pos);
            lazy.try_hilbert_resort_with(Par, &pos, &mass, bounds, &mut scratch).unwrap();
            let mut full = Bvh::new();
            full.try_hilbert_sort(Par, &pos, &mass, bounds).unwrap();
            assert_eq!(lazy.permutation(), full.permutation());
            assert_eq!(lazy.sorted_positions(), full.sorted_positions());
            assert_eq!(lazy.sorted_mass, full.sorted_mass);
        }
    }

    #[test]
    fn lazy_resort_identical_positions_keeps_permutation() {
        let (pos, mass) = random_system(2000, 82);
        let bounds = Aabb::from_points(&pos);
        let mut b = Bvh::new();
        b.hilbert_sort(Par, &pos, &mass, bounds);
        let perm0 = b.permutation().to_vec();
        b.try_hilbert_resort(&pos, &mass, bounds).unwrap();
        assert_eq!(b.permutation(), perm0.as_slice());
    }

    #[test]
    fn lazy_resort_heavy_shuffle_falls_back_to_full_sort() {
        // Teleporting every body produces far more runs than MAX_LAZY_RUNS,
        // so the full-sort fallback must fire and still be correct.
        let (pos, mass) = random_system(3000, 83);
        let bounds = Aabb::from_points(&pos);
        let mut b = Bvh::new();
        b.hilbert_sort(Par, &pos, &mass, bounds);
        let (pos2, _) = random_system(3000, 84);
        let bounds2 = Aabb::from_points(&pos2);
        b.try_hilbert_resort(&pos2, &mass, bounds2).unwrap();
        let mut full = Bvh::new();
        full.try_hilbert_sort(Par, &pos2, &mass, bounds2).unwrap();
        assert_eq!(b.permutation(), full.permutation());
        let keys = b.sorted_keys(bounds2);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn lazy_resort_changed_n_falls_back() {
        let (pos, mass) = random_system(1000, 85);
        let bounds = Aabb::from_points(&pos);
        let mut b = Bvh::new();
        b.hilbert_sort(Par, &pos, &mass, bounds);
        // Shrink the system: the previous permutation is unusable.
        let (pos2, mass2) = random_system(700, 86);
        let bounds2 = Aabb::from_points(&pos2);
        b.try_hilbert_resort(&pos2, &mass2, bounds2).unwrap();
        assert_eq!(b.n_bodies(), 700);
        let mut sorted: Vec<u32> = b.permutation().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..700u32).collect::<Vec<_>>());
    }

    #[test]
    fn lazy_resort_rejects_bad_inputs_typed() {
        let (pos, mass) = random_system(100, 87);
        let bounds = Aabb::from_points(&pos);
        let mut b = Bvh::new();
        b.hilbert_sort(Par, &pos, &mass, bounds);
        let mut bad = pos.clone();
        bad[3] = Vec3::new(f64::NAN, 0.0, 0.0);
        let err = b.try_hilbert_resort(&bad, &mass, bounds).unwrap_err();
        assert_eq!(err, BuildError::InvalidPositions);
        // The failed re-sort invalidated the previous sort: a build now
        // reports NotSorted instead of silently using stale data.
        assert_eq!(b.try_build_and_accumulate(Par).unwrap_err(), BuildError::NotSorted);
        // Recovery: a clean re-sort (full fallback) works again.
        b.try_hilbert_resort(&pos, &mass, bounds).unwrap();
        b.try_build_and_accumulate(Par).unwrap();
    }

    #[test]
    fn resort_counters_tell_a_lazy_resort_from_a_full_one() {
        use nbody_telemetry::metrics::{BVH_BUILDS, BVH_FULL_RESORTS, BVH_LAZY_RESORTS};
        if !nbody_telemetry::ENABLED {
            return;
        }
        // The counters are process globals and sibling tests re-sort
        // concurrently: count in a process that runs this test alone.
        let name = "sort::tests::resort_counters_tell_a_lazy_resort_from_a_full_one";
        let args: Vec<String> = std::env::args().collect();
        if !(args.iter().any(|a| a == "--exact") && args.iter().any(|a| a == name)) {
            let alone = std::process::Command::new(std::env::current_exe().unwrap())
                .args([name, "--exact", "--test-threads=1"])
                .output()
                .unwrap();
            assert!(alone.status.success(), "{}", String::from_utf8_lossy(&alone.stdout));
            return;
        }
        let (pos, mass) = random_system(1000, 88);
        let bounds = Aabb::from_points(&pos);
        let counters = || [BVH_FULL_RESORTS.get(), BVH_LAZY_RESORTS.get(), BVH_BUILDS.get()];
        let mut before = counters();
        let mut moved = || {
            let after = counters();
            let delta: [u64; 3] = std::array::from_fn(|i| after[i] - before[i]);
            before = after;
            delta
        };
        // [full re-sorts, lazy re-sorts, builds]: a plain sort is not a
        // re-sort; a fresh tree's re-sort has nothing to reuse and says so;
        // the next one repairs the previous order.
        let mut b = Bvh::new();
        b.hilbert_sort(Par, &pos, &mass, bounds);
        assert_eq!(moved(), [0, 0, 0]);
        let mut b = Bvh::new();
        b.try_hilbert_resort(&pos, &mass, bounds).unwrap();
        b.build_and_accumulate(Par);
        assert_eq!(moved(), [1, 0, 1]);
        b.try_hilbert_resort(&pos, &mass, bounds).unwrap();
        b.build_and_accumulate(Par);
        assert_eq!(moved(), [0, 1, 1]);

        // The merge limit, to the run: `n` points in distinct grid cells,
        // ranked along the curve by a first sort. Moving body `j` from the
        // point of rank `j` to the point of rank
        // `(j % len) * runs + (runs - 1 - j / len)` cuts the ascending
        // order into exactly `runs` ascending runs of `len` bodies.
        let n = 33 * 32;
        let bounds = Aabb::new(Vec3::ZERO, Vec3::new(n as f64, 1.0, 1.0));
        let mass = vec![1.0; n];
        let cells: Vec<Vec3> = (0..n).map(|x| Vec3::new(x as f64 + 0.5, 0.5, 0.5)).collect();
        let mut ranked = Bvh::new();
        ranked.hilbert_sort(Par, &cells, &mass, bounds);
        assert!(ranked.sorted_keys(bounds).windows(2).all(|w| w[0] < w[1]), "cells not distinct");
        let ascending = ranked.sorted_positions();
        for (runs, want) in [(MAX_LAZY_RUNS, [0, 1, 0]), (MAX_LAZY_RUNS + 1, [1, 0, 0])] {
            let mut b = Bvh::new();
            b.hilbert_sort(Par, ascending, &mass, bounds);
            moved();
            let len = n / runs;
            let cut: Vec<Vec3> =
                (0..n).map(|j| ascending[(j % len) * runs + (runs - 1 - j / len)]).collect();
            b.try_hilbert_resort(&cut, &mass, bounds).unwrap();
            assert_eq!(moved(), want, "{runs} runs");
            let mut full = Bvh::new();
            full.hilbert_sort(Par, &cut, &mass, bounds);
            assert_eq!(b.permutation(), full.permutation(), "{runs} runs");
        }
    }

    #[test]
    fn equal_keys_tie_break_by_index() {
        // Bodies in the same grid cell sort by original index → stable,
        // deterministic permutation.
        let p = Vec3::new(0.5, 0.5, 0.5);
        let pos = vec![p, p, p];
        let mass = vec![1.0, 2.0, 3.0];
        let mut b = Bvh::new();
        b.hilbert_sort(Par, &pos, &mass, Aabb::new(Vec3::ZERO, Vec3::ONE));
        assert_eq!(b.permutation(), &[0, 1, 2]);
    }
}
