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

    /// Bring the sorted positions up to `positions` through the kept
    /// permutation, for a step that serves the tree without a re-sort. The
    /// permutation, boxes and moments stay those of the last sort (the
    /// drift-padded MAC assumes no more of them); every leaf and blocked
    /// target then reads its body where it is now. Writes into the retained
    /// buffer, so a warm call allocates nothing.
    ///
    /// # Panics
    /// If `positions` does not hold one entry per sorted body.
    pub fn regather_positions<P: ExecutionPolicy>(&mut self, policy: P, positions: &[Vec3]) {
        apply_permutation_into(policy, positions, &self.perm, &mut self.sorted_pos);
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

    /// Forwards to [`Bvh::try_hilbert_sort_with`]: every BVH rebuild sorts
    /// in full. The name stays only because the pinned benchmark's
    /// `bvh_resort` probe calls it (ROADMAP 0(b)).
    pub fn try_hilbert_resort_with<P: ExecutionPolicy>(
        &mut self,
        policy: P,
        positions: &[Vec3],
        masses: &[f64],
        bounds: Aabb,
        scratch: &mut crate::scratch::BvhScratch,
    ) -> Result<(), BuildError> {
        self.try_hilbert_sort_with(policy, positions, masses, bounds, scratch)
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
    fn deterministic_across_policies() {
        let (pos, mass) = random_system(3000, 74);
        let bounds = Aabb::from_points(&pos);
        let mut seq = Bvh::new();
        seq.hilbert_sort(Seq, &pos, &mass, bounds);
        let mut par = Bvh::new();
        par.hilbert_sort(Par, &pos, &mass, bounds);
        assert_eq!(seq.permutation(), par.permutation());
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
        // A failed sort also invalidates the successful one before it, so a
        // build never uses stale data; a clean sort recovers.
        let (good, mass) = random_system(100, 87);
        let bounds = Aabb::from_points(&good);
        b.try_hilbert_sort(Par, &good, &mass, bounds).unwrap();
        let mut bad = good.clone();
        bad[3] = Vec3::new(f64::NAN, 0.0, 0.0);
        let err = b.try_hilbert_sort(Par, &bad, &mass, bounds).unwrap_err();
        assert_eq!(err, BuildError::InvalidPositions);
        assert_eq!(b.try_build_and_accumulate(Par).unwrap_err(), BuildError::NotSorted);
        b.try_hilbert_sort(Par, &good, &mass, bounds).unwrap();
        b.try_build_and_accumulate(Par).unwrap();
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
