//! Randomised equivalence of the stdpar parallel algorithms with their
//! sequential counterparts, under both parallel policies (the crate-level
//! contract everything else builds on). Cases are generated by the in-tree
//! [`SplitMix64`]; every failure reproduces from the printed case index.

use stdpar::prelude::*;
use stdpar_nbody::math::SplitMix64;

fn random_vec<T>(rng: &mut SplitMix64, max_len: u64, gen: impl Fn(&mut SplitMix64) -> T) -> Vec<T> {
    let n = rng.next_below(max_len) as usize;
    (0..n).map(|_| gen(rng)).collect()
}

#[test]
fn sort_equals_std_sort() {
    let mut rng = SplitMix64::new(0x5027);
    for case in 0..12 {
        let v = random_vec(&mut rng, 5000, |r| r.next_u64() as i64);
        let mut expect = v.clone();
        expect.sort_unstable();
        let mut a = v.clone();
        sort_unstable_by(Par, &mut a, |x, y| x.cmp(y));
        assert_eq!(a, expect, "case {case}");
        let mut b = v.clone();
        sort_unstable_by(ParUnseq, &mut b, |x, y| x.cmp(y));
        assert_eq!(b, expect, "case {case}");
    }
}

#[test]
fn transform_reduce_equals_fold() {
    let mut rng = SplitMix64::new(0x7215);
    for case in 0..12 {
        let v = random_vec(&mut rng, 4000, |r| r.next_below(1000) as u32);
        let expect: u64 = v.iter().map(|&x| x as u64 * 3 + 1).sum();
        let f = |i: usize| v[i] as u64 * 3 + 1;
        assert_eq!(transform_reduce(Par, 0..v.len(), 0u64, |a, b| a + b, f), expect, "case {case}");
        assert_eq!(transform_reduce(ParUnseq, 0..v.len(), 0u64, |a, b| a + b, f), expect);
        assert_eq!(transform_reduce(Seq, 0..v.len(), 0u64, |a, b| a + b, f), expect);
    }
}

#[test]
fn permutation_gather_is_inverse_of_sorting() {
    let mut rng = SplitMix64::new(0x9e12);
    for case in 0..12 {
        let mut keys = random_vec(&mut rng, 2000, |r| r.next_u64() as u32);
        if keys.is_empty() {
            keys.push(rng.next_u64() as u32);
        }
        let mut pairs: Vec<(u32, u32)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        sort_unstable_by(Par, &mut pairs, |a, b| a.cmp(b));
        let perm: Vec<u32> = pairs.iter().map(|&(_, i)| i).collect();
        let mut gathered = Vec::new();
        apply_permutation_into(Par, &keys, &perm, &mut gathered);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(gathered, expect, "case {case}");
    }
}

#[test]
fn fill_generate_copy_smoke() {
    let mut a = vec![0u32; 10_000];
    fill(ParUnseq, &mut a, 7);
    assert!(a.iter().all(|&x| x == 7));
    let mut b = vec![0u32; 10_000];
    generate(Par, &mut b, |i| i as u32);
    let mut c = vec![0u32; 10_000];
    copy(ParUnseq, &b, &mut c);
    assert_eq!(b, c);
}
