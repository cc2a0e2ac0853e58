//! CRC-32 (IEEE 802.3 polynomial, reflected) — the payload checksum of the
//! versioned snapshot format (`nbody_sim::io`, DESIGN.md § Self-healing &
//! checkpointing).
//!
//! Implemented in-tree (the workspace is dependency-free) with two paths,
//! chosen per call by CPU feature:
//!
//! * on x86-64 with PCLMULQDQ and SSE4.1, inputs of at least 64 bytes are
//!   folded 64 bytes per iteration by carry-less multiplication (Gopal et
//!   al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
//!   Intel 2009 — the constants zlib's `crc32_simd` uses), then
//!   Barrett-reduced to 32 bits; the tail under 16 bytes takes the table;
//! * everywhere else, the byte-at-a-time table walk, which is also the
//!   reference the fold is tested against. The 1 KiB table is built in a
//!   `const fn`, so there is no runtime initialisation, no locking, and no
//!   allocation.
//!
//! A truncated or bit-flipped checkpoint disagrees with its stored digest
//! with probability `1 − 2⁻³²` — plenty for *detecting* torn writes, which
//! is all the recovery ladder needs (it falls back to an older checkpoint;
//! it never tries to repair).

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// The table walk over the pre-inverted register `crc`.
fn table_update(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Incremental CRC-32 accumulator, for checksumming streams without
/// buffering them (the snapshot codec folds each chunk in as it moves it).
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Start a fresh digest.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the digest.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        let bytes = if bytes.len() >= pclmul::MIN_LEN && pclmul::detected() {
            let (head, tail) = bytes.split_at(bytes.len() & !15);
            // SAFETY: the CPU supports PCLMULQDQ and SSE4.1 (just probed).
            self.state = unsafe { pclmul::fold(self.state, head) };
            tail
        } else {
            bytes
        };
        self.state = table_update(self.state, bytes);
    }

    /// Final digest value. The accumulator may keep receiving updates; this
    /// just reads the current value.
    #[inline]
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot convenience over [`Crc32`].
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finalize()
}

/// The carry-less-multiply fold (module docs). Each step multiplies a
/// 128-bit lane by `x^(k) mod P` constants so it lands on the lane 64 (or
/// 16) bytes further on; four lanes run independently until the tail.
#[cfg(target_arch = "x86_64")]
mod pclmul {
    use core::arch::x86_64::*;

    /// Shortest input the fold takes: one block per lane.
    pub(super) const MIN_LEN: usize = 64;

    // Bit-reflected `x^(4·128±32) mod P` (k1, k2), `x^(128±32) mod P` (k3,
    // k4), `x^64 mod P` (k5), P′ and the Barrett constant μ′.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// `std` caches the probe after its first call.
    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// `x · k` folded onto `next`: both 64-bit halves of `x` multiplied by
    /// their constant, the products xored with the data 16 bytes on.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Fold `data` — at least [`MIN_LEN`] bytes, a multiple of 16 — into the
    /// pre-inverted register `crc`.
    ///
    /// # Safety
    /// The CPU must support PCLMULQDQ and SSE4.1 ([`detected`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, data: &[u8]) -> u32 {
        let (blocks, rest) = data.as_chunks::<16>();
        debug_assert!(blocks.len() >= 4 && rest.is_empty());
        // SAFETY: each block is 16 readable bytes; the load is unaligned.
        let load = |i: usize| unsafe { _mm_loadu_si128(blocks[i].as_ptr().cast()) };

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut lanes = [load(0), load(1), load(2), load(3)];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let mut at = 4;
        while at + 4 <= blocks.len() {
            for (j, lane) in lanes.iter_mut().enumerate() {
                *lane = fold16(*lane, k1k2, load(at + j));
            }
            at += 4;
        }

        // Four lanes into one, then the remaining 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(lanes[0], k3k4, lanes[1]);
        x = fold16(x, k3k4, lanes[2]);
        x = fold16(x, k3k4, lanes[3]);
        for i in at..blocks.len() {
            x = fold16(x, k3k4, load(i));
        }

        // 128 → 64 bits, then 64 → 32 by Barrett reduction.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, k3k4));
        let k5 = _mm_set_epi64x(0, K5);
        let x_lo = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5);
        x = _mm_xor_si128(x_lo, _mm_srli_si128::<4>(x));
        let poly = _mm_set_epi64x(MU, P);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table walk alone: the reference every other path must equal.
    fn table_crc32(bytes: &[u8]) -> u32 {
        table_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// Whether `update` can take the fold on this CPU; says so when not.
    fn fold_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        if pclmul::detected() {
            return true;
        }
        eprintln!("pclmulqdq + sse4.1 not detected; skipping the fold-vs-table comparison");
        false
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // Long enough for the fold (values from zlib's `crc32`).
        assert_eq!(crc32(&b"The quick brown fox jumps over the lazy dog".repeat(4)), 0x60AC_3865);
        let ramp: Vec<u8> = (0..1024).map(|i| i as u8).collect();
        assert_eq!(crc32(&ramp), 0xB70B_4C26);
        assert_eq!(table_crc32(&ramp), 0xB70B_4C26);
    }

    #[test]
    fn fold_equals_table_at_every_length_and_offset() {
        if !fold_available() {
            return;
        }
        let data = pattern(1024 + 16);
        for offset in 0..16 {
            for len in 0..=1024 {
                let s = &data[offset..offset + len];
                assert_eq!(crc32(s), table_crc32(s), "offset {offset} length {len}");
            }
        }
        let mib = pattern(1 << 20);
        assert_eq!(crc32(&mib), table_crc32(&mib), "1 MiB");
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0u16..2048).map(|i| (i % 251) as u8).collect();
        let whole = crc32(&data);
        for split in [0, 1, 7, 1024, 2047, 2048] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), whole, "split at {split}");
        }
        // Every split of 300 bytes: either side may fall under or over the
        // fold's 64-byte threshold and leave a table tail behind.
        let data = pattern(300);
        let whole = table_crc32(&data);
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let data = vec![0xA5u8; 512];
        let base = crc32(&data);
        for byte in [0usize, 100, 511] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn truncation_changes_digest() {
        let data: Vec<u8> = (0..300u16).map(|i| i as u8).collect();
        let base = crc32(&data);
        assert_ne!(crc32(&data[..299]), base);
        assert_ne!(crc32(&data[..1]), base);
    }
}
