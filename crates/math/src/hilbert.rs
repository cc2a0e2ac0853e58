//! Hilbert space-filling curve via Skilling's transpose algorithm.
//!
//! The Hilbert-sorted BVH strategy (paper §IV-B.1) grids all bodies in the
//! coarsest Cartesian grid containing them and sorts them by the Hilbert
//! index of their grid cell, computed "with the Skilling's Grey algorithm
//! \[17\]". This module implements Skilling's `AxestoTranspose` /
//! `TransposetoAxes` pair for any dimension `D` and bit depth, plus the
//! bit-interleaving that turns the transposed representation into a single
//! `u64` sort key, and a [`HilbertGrid`] helper that maps floating-point
//! positions inside a bounding box onto grid cells.
//!
//! Properties (all tested, including property-based tests):
//! * `hilbert_index` and `hilbert_coords` are inverse bijections on the
//!   `D`-dimensional grid of side `2^bits`;
//! * consecutive indices map to grid cells at Manhattan distance exactly 1
//!   (the curve is a Hamiltonian path over the grid), which is what gives
//!   the BVH its spatial locality.

use crate::aabb::Aabb;
use crate::vec3::Vec3;

/// Skilling's `AxestoTranspose`: convert grid coordinates (in-place) to the
/// "transposed" Hilbert representation, where the Hilbert index bits are
/// distributed across the `D` words, most-significant interleave first.
pub fn axes_to_transpose<const D: usize>(x: &mut [u32; D], bits: u32) {
    debug_assert!(bits >= 1 && (bits as usize) * D <= 64);
    let m = 1u32 << (bits - 1);
    // Inverse undo
    let mut q = m;
    while q > 1 {
        let p = q.wrapping_sub(1);
        for i in 0..D {
            if x[i] & q != 0 {
                x[0] ^= p; // invert low bits of x[0]
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode
    for i in 1..D {
        x[i] ^= x[i - 1];
    }
    let mut t = 0u32;
    let mut q = m;
    while q > 1 {
        if x[D - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for xi in x.iter_mut() {
        *xi ^= t;
    }
}

/// Skilling's `TransposetoAxes`: inverse of [`axes_to_transpose`].
pub fn transpose_to_axes<const D: usize>(x: &mut [u32; D], bits: u32) {
    debug_assert!(bits >= 1 && (bits as usize) * D <= 64);
    let m = 1u32 << (bits - 1);
    // Gray decode by H ^ (H/2)
    let mut t = x[D - 1] >> 1;
    for i in (1..D).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work
    let mut q = 2u32;
    while q <= m {
        let p = q.wrapping_sub(1);
        for i in (0..D).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
}

/// Interleave the transposed representation into a single `u64` Hilbert
/// index: bit `b` of axis `i` lands at position `(b * D + (D - 1 - i))`.
#[inline]
pub fn transpose_to_index<const D: usize>(x: &[u32; D], bits: u32) -> u64 {
    let mut h: u64 = 0;
    for b in (0..bits).rev() {
        for xi in x.iter() {
            h = (h << 1) | (((xi >> b) & 1) as u64);
        }
    }
    h
}

/// Inverse of [`transpose_to_index`].
#[inline]
pub fn index_to_transpose<const D: usize>(h: u64, bits: u32) -> [u32; D] {
    let mut x = [0u32; D];
    let total = bits as usize * D;
    for k in 0..total {
        // Bit (total-1-k) of h is the k-th most significant interleaved bit.
        let bit = (h >> (total - 1 - k)) & 1;
        let b = bits - 1 - (k / D) as u32;
        let i = k % D;
        x[i] |= (bit as u32) << b;
    }
    x
}

/// Hilbert index of grid cell `coords` on a `D`-dimensional grid of side
/// `2^bits`. Coordinates must be `< 2^bits`.
#[inline]
pub fn hilbert_index<const D: usize>(coords: [u32; D], bits: u32) -> u64 {
    debug_assert!(coords.iter().all(|&c| bits == 32 || c < (1u32 << bits)));
    let mut x = coords;
    axes_to_transpose(&mut x, bits);
    transpose_to_index(&x, bits)
}

/// Inverse of [`hilbert_index`].
#[inline]
pub fn hilbert_coords<const D: usize>(index: u64, bits: u32) -> [u32; D] {
    let mut x = index_to_transpose::<D>(index, bits);
    transpose_to_axes(&mut x, bits);
    x
}

/// 3-D convenience wrapper (up to 21 bits per axis → 63-bit index).
#[inline]
pub fn hilbert3(x: u32, y: u32, z: u32, bits: u32) -> u64 {
    hilbert_index([x, y, z], bits)
}

/// Default grid resolution for 3-D Hilbert keys: 21 bits per axis is the
/// finest grid whose index fits a `u64` (3 × 21 = 63 bits).
pub const HILBERT3_MAX_BITS: u32 = 21;

/// Maps floating-point positions inside a bounding box onto the coarsest
/// equidistant Cartesian grid holding all bodies (paper §IV-B.1) and
/// produces their Hilbert sort keys.
///
/// The grid is *cubic* (built from [`Aabb::to_cube`]) so cells are
/// equidistant in every axis, exactly as the paper describes.
#[derive(Clone, Copy, Debug)]
pub struct HilbertGrid {
    origin: Vec3,
    /// Multiplicative factor from world units to grid cells.
    inv_cell: f64,
    bits: u32,
    cells: u32,
}

impl HilbertGrid {
    /// Build a grid with `bits` bits per axis over (the bounding cube of)
    /// `bounds`.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or `bits` is not in `[1, 21]`.
    pub fn new(bounds: Aabb, bits: u32) -> Self {
        assert!(!bounds.is_empty(), "HilbertGrid needs a non-empty bounding box");
        assert!(
            (1..=HILBERT3_MAX_BITS).contains(&bits),
            "bits must be in [1,{HILBERT3_MAX_BITS}], got {bits}"
        );
        let cube = bounds.to_cube();
        let cells = 1u32 << bits;
        let edge = cube.extent().x;
        Self { origin: cube.min, inv_cell: cells as f64 / edge, bits, cells }
    }

    /// Bits of grid resolution per axis.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Grid cell of a position (clamped into range, so positions exactly on
    /// the upper cube face stay in the last cell).
    #[inline]
    pub fn cell_of(&self, p: Vec3) -> [u32; 3] {
        let to = |w: f64| -> u32 {
            let c = ((w) * self.inv_cell).floor();
            if c < 0.0 {
                0
            } else if c >= self.cells as f64 {
                self.cells - 1
            } else {
                c as u32
            }
        };
        [to(p.x - self.origin.x), to(p.y - self.origin.y), to(p.z - self.origin.z)]
    }

    /// Hilbert sort key of a position.
    #[inline]
    pub fn key_of(&self, p: Vec3) -> u64 {
        let [x, y, z] = self.cell_of(p);
        hilbert3(x, y, z, self.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn manhattan<const D: usize>(a: [u32; D], b: [u32; D]) -> u32 {
        a.iter().zip(b.iter()).map(|(&x, &y)| x.abs_diff(y)).sum()
    }

    #[test]
    fn round_trip_2d_exhaustive() {
        for bits in 1..=5u32 {
            let side = 1u32 << bits;
            for x in 0..side {
                for y in 0..side {
                    let h = hilbert_index([x, y], bits);
                    assert_eq!(hilbert_coords::<2>(h, bits), [x, y], "bits={bits}");
                }
            }
        }
    }

    #[test]
    fn round_trip_3d_exhaustive() {
        for bits in 1..=3u32 {
            let side = 1u32 << bits;
            for x in 0..side {
                for y in 0..side {
                    for z in 0..side {
                        let h = hilbert_index([x, y, z], bits);
                        assert_eq!(hilbert_coords::<3>(h, bits), [x, y, z]);
                    }
                }
            }
        }
    }

    #[test]
    fn round_trip_4d_sample() {
        let bits = 3;
        for seed in 0..500u32 {
            let c = [
                seed % 8,
                (seed / 8) % 8,
                (seed / 64) % 8,
                (seed * 7 + 3) % 8,
            ];
            let h = hilbert_index(c, bits);
            assert_eq!(hilbert_coords::<4>(h, bits), c);
        }
    }

    #[test]
    fn curve_is_bijection_2d() {
        let bits = 4;
        let side = 1u64 << bits;
        let mut seen = HashSet::new();
        for h in 0..side * side {
            let c = hilbert_coords::<2>(h, bits);
            assert!(seen.insert(c), "duplicate cell {c:?}");
        }
        assert_eq!(seen.len(), (side * side) as usize);
    }

    #[test]
    fn unit_step_property_2d() {
        // Consecutive Hilbert indices are grid neighbours (distance 1).
        for bits in 1..=5u32 {
            let total = 1u64 << (2 * bits);
            let mut prev = hilbert_coords::<2>(0, bits);
            for h in 1..total {
                let c = hilbert_coords::<2>(h, bits);
                assert_eq!(manhattan(prev, c), 1, "bits={bits}, h={h}");
                prev = c;
            }
        }
    }

    #[test]
    fn unit_step_property_3d() {
        for bits in 1..=3u32 {
            let total = 1u64 << (3 * bits);
            let mut prev = hilbert_coords::<3>(0, bits);
            for h in 1..total {
                let c = hilbert_coords::<3>(h, bits);
                assert_eq!(manhattan(prev, c), 1, "bits={bits}, h={h}");
                prev = c;
            }
        }
    }

    #[test]
    fn first_cell_is_origin_2d() {
        // Skilling's curve starts at the origin cell.
        for bits in 1..=6u32 {
            assert_eq!(hilbert_coords::<2>(0, bits), [0, 0]);
        }
    }

    #[test]
    fn deep_3d_round_trip() {
        let bits = HILBERT3_MAX_BITS;
        let max = (1u32 << bits) - 1;
        for c in [
            [0, 0, 0],
            [max, max, max],
            [max, 0, 0],
            [123_456, 654_321, 1_000_000],
            [1, max / 2, max - 1],
        ] {
            let h = hilbert3(c[0], c[1], c[2], bits);
            assert_eq!(hilbert_coords::<3>(h, bits), c);
        }
    }

    #[test]
    fn grid_maps_bounds_to_distinct_corners() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(10.0));
        let g = HilbertGrid::new(b, 8);
        let lo = g.cell_of(Vec3::ZERO);
        let hi = g.cell_of(Vec3::splat(10.0));
        assert_eq!(lo, [0, 0, 0]); // origin cell
        assert!(hi.iter().all(|&c| c >= 250), "{hi:?}");
        assert_ne!(g.key_of(Vec3::ZERO), g.key_of(Vec3::splat(10.0)));
    }

    #[test]
    fn grid_clamps_out_of_range_points() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(1.0));
        let g = HilbertGrid::new(b, 4);
        // Outside points clamp to edge cells rather than wrapping/panicking.
        let far = g.cell_of(Vec3::splat(100.0));
        assert_eq!(far, [15, 15, 15]);
        let near = g.cell_of(Vec3::splat(-100.0));
        assert_eq!(near, [0, 0, 0]);
    }

    #[test]
    fn nearby_points_get_nearby_keys_often() {
        // Weak locality check: sampling pairs of adjacent grid cells, the
        // mean |Δkey| must be far below the range of a random pair.
        let bits = 8;
        let side = 1u32 << bits;
        let mut sum_adj: f64 = 0.0;
        let mut count = 0usize;
        for x in (0..side - 1).step_by(17) {
            for y in (0..side).step_by(13) {
                for z in (0..side).step_by(11) {
                    let a = hilbert3(x, y, z, bits);
                    let b = hilbert3(x + 1, y, z, bits);
                    sum_adj += a.abs_diff(b) as f64;
                    count += 1;
                }
            }
        }
        let mean_adj = sum_adj / count as f64;
        let range = (1u64 << (3 * bits)) as f64;
        assert!(mean_adj < range / 50.0, "mean adjacent Δkey {mean_adj} vs range {range}");
    }

    #[test]
    #[should_panic]
    fn grid_rejects_empty_bounds() {
        let _ = HilbertGrid::new(Aabb::EMPTY, 8);
    }

    #[test]
    #[should_panic]
    fn grid_rejects_zero_bits() {
        let _ = HilbertGrid::new(Aabb::new(Vec3::ZERO, Vec3::ONE), 0);
    }
}
