//! Property-based tests for the `f32` SIMD kernel layer.
//!
//! Every backend runnable on this CPU (`Backend::available()` — the AVX2
//! path when the host supports it, plus the unrolled and scalar paths,
//! which are always available) must agree with an `f64` reference within
//! a rounding-proportional epsilon, on lengths covering the empty vector,
//! single elements, every SIMD tail shape (non-multiples of the 8/16/32
//! lane widths), and the embedding dims the trainer actually uses
//! (32/64/128). The compile-time [`Kernels`] trait impls are exercised
//! against the same reference so the trainer's inlined hot path and the
//! dispatched public API can never drift apart.

use proptest::prelude::*;
use v2v_linalg::kernels::{
    self, Backend, Kernels, ScalarKernels, UnrolledKernels,
};

/// Lengths that hit every vector-width tail: empty, scalar-only, partial
/// 8-lane, partial 32-lane, and the real embedding dims.
const LENGTHS: &[usize] = &[0, 1, 3, 7, 8, 9, 15, 31, 32, 33, 37, 64, 100, 128];

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-8.0f32..8.0, len..=len)
}

fn dot_ref(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| *x as f64 * *y as f64).sum()
}

fn l2_ref(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (*x as f64 - *y as f64).powi(2)).sum()
}

/// Absolute tolerance scaled to the worst-case accumulated magnitude:
/// n terms of at most `m` each, f32 rounding per term plus reassociation.
fn eps(n: usize, m: f64) -> f64 {
    1e-4 + n as f64 * m * 1e-5
}

proptest! {
    /// `dot` and `squared_l2` match the f64 reference on every backend.
    #[test]
    fn reductions_match_reference(idx in 0..LENGTHS.len(), seed in any::<u64>()) {
        let len = LENGTHS[idx];
        let mut rng = v2v_base::rng::Rng::seed_from_u64(seed);
        let a: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        let b: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        let want_dot = dot_ref(&a, &b);
        let want_l2 = l2_ref(&a, &b);
        let e = eps(len, 64.0);
        for bk in Backend::available() {
            let d = kernels::dot_on(bk, &a, &b) as f64;
            prop_assert!((d - want_dot).abs() < e, "{bk:?} dot: {d} vs {want_dot}");
            let l = kernels::squared_l2_on(bk, &a, &b) as f64;
            prop_assert!((l - want_l2).abs() < e, "{bk:?} l2: {l} vs {want_l2}");
            let c = kernels::cosine_prenormed_on(bk, &a, &b);
            prop_assert!((-1.0..=1.0).contains(&c), "{bk:?} cosine not clamped: {c}");
        }
    }

    /// `dot`, `squared_l2` and `cosine_prenormed` are symmetric to the
    /// bit on every backend: each lane multiplies (or squares the
    /// difference of) the same two floats whichever argument comes first,
    /// and the lanes are summed in the same order. The HNSW build leans on
    /// this: it caches `d(new, target)` from the search phase and reuses
    /// it as `d(target, new)` when it prunes the target's link list.
    #[test]
    fn reductions_are_bitwise_symmetric(idx in 0..LENGTHS.len(), seed in any::<u64>()) {
        let len = LENGTHS[idx];
        let mut rng = v2v_base::rng::Rng::seed_from_u64(seed);
        let a: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        let b: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        for bk in Backend::available() {
            prop_assert_eq!(
                kernels::dot_on(bk, &a, &b).to_bits(),
                kernels::dot_on(bk, &b, &a).to_bits(),
                "{:?} dot", bk
            );
            prop_assert_eq!(
                kernels::squared_l2_on(bk, &a, &b).to_bits(),
                kernels::squared_l2_on(bk, &b, &a).to_bits(),
                "{:?} squared_l2", bk
            );
            prop_assert_eq!(
                kernels::cosine_prenormed_on(bk, &a, &b).to_bits(),
                kernels::cosine_prenormed_on(bk, &b, &a).to_bits(),
                "{:?} cosine_prenormed", bk
            );
        }
    }

    /// `axpy` and `scale` match elementwise f64 references on every backend.
    #[test]
    fn updates_match_reference(
        idx in 0..LENGTHS.len(),
        alpha in -4.0f32..4.0,
        seed in any::<u64>(),
    ) {
        let len = LENGTHS[idx];
        let mut rng = v2v_base::rng::Rng::seed_from_u64(seed);
        let x: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        let y: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        for bk in Backend::available() {
            let mut got = y.clone();
            kernels::axpy_on(bk, alpha, &x, &mut got);
            for i in 0..len {
                let want = y[i] as f64 + alpha as f64 * x[i] as f64;
                prop_assert!(
                    (got[i] as f64 - want).abs() < 1e-4,
                    "{bk:?} axpy[{i}]: {} vs {want}", got[i]
                );
            }
            kernels::scale_on(bk, &mut got, alpha);
            for i in 0..len {
                let want = (y[i] as f64 + alpha as f64 * x[i] as f64) * alpha as f64;
                prop_assert!(
                    (got[i] as f64 - want).abs() < 1e-3,
                    "{bk:?} scale[{i}]: {} vs {want}", got[i]
                );
            }
        }
    }

    /// The scalar backend is the bit-exact sequential reference: summing
    /// in plain order reproduces it exactly (the checkpoint bit-identity
    /// contract for `V2V_NO_SIMD=1` runs).
    #[test]
    fn scalar_backend_is_bit_exact_sequential(a in vec_strategy(37), b in vec_strategy(37)) {
        let mut acc = 0.0f32;
        for (x, y) in a.iter().zip(&b) {
            acc += x * y;
        }
        prop_assert_eq!(kernels::dot_on(Backend::Scalar, &a, &b), acc);
    }

    /// The compile-time `Kernels` impls (the trainer's inlined hot path)
    /// agree with the dispatched public API for the same backend.
    #[test]
    fn kernels_trait_matches_dispatched(idx in 0..LENGTHS.len(), seed in any::<u64>()) {
        let len = LENGTHS[idx];
        let mut rng = v2v_base::rng::Rng::seed_from_u64(seed);
        let a: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        let b: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect();

        // SAFETY: scalar and unrolled impls are available on every CPU;
        // slices share one length.
        let (sd, ud) = unsafe {
            (ScalarKernels::dot(&a, &b), UnrolledKernels::dot(&a, &b))
        };
        prop_assert_eq!(sd, kernels::dot_on(Backend::Scalar, &a, &b));
        prop_assert_eq!(ud, kernels::dot_on(Backend::Unrolled, &a, &b));

        let mut y1 = b.clone();
        let mut y2 = b.clone();
        // SAFETY: as above.
        unsafe { ScalarKernels::axpy(0.5, &a, &mut y1) };
        kernels::axpy_on(Backend::Scalar, 0.5, &a, &mut y2);
        prop_assert_eq!(y1.clone(), y2.clone());

        #[cfg(target_arch = "x86_64")]
        if Backend::Avx2Fma.is_available() {
            use v2v_linalg::kernels::Avx2FmaKernels;
            // SAFETY: availability checked on the line above.
            let ad = unsafe { Avx2FmaKernels::dot(&a, &b) };
            prop_assert_eq!(ad, kernels::dot_on(Backend::Avx2Fma, &a, &b));
            let mut y3 = b.clone();
            let mut y4 = b.clone();
            // SAFETY: as above.
            unsafe { Avx2FmaKernels::axpy(0.5, &a, &mut y3) };
            kernels::axpy_on(Backend::Avx2Fma, 0.5, &a, &mut y4);
            prop_assert_eq!(y3, y4);
        }
    }
}

/// Deterministic sweep (not property-driven) over every tail shape and
/// trainer dim for every available backend — fast, and it pins the exact
/// boundary lengths even if the proptest sampler gets unlucky.
#[test]
fn exhaustive_length_sweep() {
    for &len in LENGTHS {
        let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37) - 3.0).collect();
        let b: Vec<f32> = (0..len).map(|i| 2.5 - (i as f32 * 0.21)).collect();
        let want = dot_ref(&a, &b);
        let e = eps(len, 64.0);
        for bk in Backend::available() {
            let d = kernels::dot_on(bk, &a, &b) as f64;
            assert!((d - want).abs() < e, "{bk:?} len {len}: {d} vs {want}");
            let mut y = b.clone();
            kernels::axpy_on(bk, -1.5, &a, &mut y);
            for i in 0..len {
                let w = b[i] as f64 - 1.5 * a[i] as f64;
                assert!((y[i] as f64 - w).abs() < 1e-4, "{bk:?} len {len} axpy[{i}]");
            }
        }
    }
}
