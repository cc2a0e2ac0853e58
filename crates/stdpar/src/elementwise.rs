//! Element-wise bulk operations (`std::fill`, `std::copy`,
//! `std::generate`).
//!
//! These power the BabelStream-TRIAD validation benchmark (paper Table I)
//! and the UPDATEPOSITION step.

use crate::foreach::{for_each, for_each_index};
use crate::policy::ExecutionPolicy;
use crate::sync_slice::SyncSlice;

/// `std::fill`: set every element to `value`.
pub fn fill<P, T>(policy: P, out: &mut [T], value: T)
where
    P: ExecutionPolicy,
    T: Send + Sync + Copy,
{
    for_each(policy, out, |x| *x = value);
}

/// `std::copy`: `dst[i] = src[i]`.
pub fn copy<P, T>(policy: P, src: &[T], dst: &mut [T])
where
    P: ExecutionPolicy,
    T: Send + Sync + Copy,
{
    assert_eq!(src.len(), dst.len(), "copy length mismatch");
    let view = SyncSlice::new(dst);
    for_each_index(policy, 0..src.len(), |i| unsafe {
        view.write(i, src[i]);
    });
}

/// `std::generate` by index: `out[i] = f(i)`.
pub fn generate<P, T>(policy: P, out: &mut [T], f: impl Fn(usize) -> T + Sync + Send)
where
    P: ExecutionPolicy,
    T: Send + Sync + Send,
{
    let view = SyncSlice::new(out);
    for_each_index(policy, 0..view.len(), |i| unsafe {
        view.write(i, f(i));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{with_backend, Backend};
    use crate::policy::{Par, ParUnseq, Seq};

    #[test]
    fn fill_copy_generate_all_backends() {
        for backend in [Backend::Dynamic, Backend::DetPar] {
            with_backend(backend, || {
                let n = 30_000;
                let mut a = vec![0.0f64; n];
                fill(ParUnseq, &mut a, 2.5);
                assert!(a.iter().all(|&x| x == 2.5));

                let mut b = vec![0.0f64; n];
                copy(Par, &a, &mut b);
                assert_eq!(a, b);

                let mut c = vec![0u64; n];
                generate(ParUnseq, &mut c, |i| (i * i) as u64);
                assert!(c.iter().enumerate().all(|(i, &x)| x == (i * i) as u64));
            });
        }
    }

    #[test]
    fn triad_kernel_matches_reference() {
        // BabelStream TRIAD: a[i] = b[i] + s * c[i], the paper's Table I
        // validation kernel.
        let n = 100_000;
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let c: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let s = 0.4;
        let mut a = vec![0.0f64; n];
        let view = SyncSlice::new(&mut a);
        crate::foreach::for_each_index(ParUnseq, 0..n, |i| unsafe {
            view.write(i, b[i] + s * c[i]);
        });
        assert!(a.iter().enumerate().all(|(i, &x)| x == b[i] + s * c[i]));
    }

    #[test]
    fn seq_variants() {
        let mut v = vec![1u8; 10];
        fill(Seq, &mut v, 9);
        assert!(v.iter().all(|&x| x == 9));
    }

    #[test]
    #[should_panic]
    fn copy_length_mismatch_panics() {
        let mut dst = vec![0u8; 3];
        copy(Seq, &[1u8, 2], &mut dst);
    }
}
