//! `f32` SIMD kernels with runtime CPU-feature dispatch.
//!
//! The embedding trainer and the ANN index spend nearly all of their time
//! in a handful of dense `f32` loops: dot products, `y += alpha * x`
//! updates, in-place scaling, and squared-L2 distances. This module is the
//! single home for those loops, compiled three ways and selected once per
//! process:
//!
//! * [`Backend::Avx2Fma`] — `x86-64` AVX2 + FMA intrinsics, picked via
//!   `is_x86_feature_detected!` at first use. Processes 32 floats per
//!   iteration into four independent accumulators so the FMA pipeline
//!   stays full, then an 8-wide loop, then a scalar tail.
//! * [`Backend::Unrolled`] — portable fallback for any CPU: four-way
//!   unrolled loops that use `f32::mul_add` only where the target
//!   guarantees hardware FMA (aarch64 NEON, x86-64 compiled with
//!   `+fma`) and plain mul+add elsewhere — on targets without FMA,
//!   `mul_add` lowers to a libm `fmaf` *call*, roughly 10x slower than
//!   the two plain ops it replaces.
//! * [`Backend::Scalar`] — the plain sequential reference loop. Forced by
//!   `V2V_NO_SIMD=1`, and the arithmetic every other backend is
//!   property-tested against. The scalar loops reproduce the historical
//!   trainer arithmetic bit for bit (same operation order, no FMA
//!   contraction), so `V2V_NO_SIMD=1 threads=1` runs match pre-kernel
//!   builds exactly.
//!
//! SIMD and FMA reassociate floating-point sums, so backends agree only to
//! within rounding (see the property tests), not bitwise. Anything that
//! needs bit-stable results across *processes* — notably training
//! checkpoints — must record which backend produced them; the trainer
//! folds [`backend_name`] into its checkpoint fingerprint for exactly this
//! reason.
//!
//! Within one backend the two-argument reductions — [`dot`],
//! [`squared_l2`], [`cosine_prenormed`] — are **symmetric to the bit**:
//! `f(a, b).to_bits() == f(b, a).to_bits()`. Each lane multiplies the same
//! two floats (or squares `a_i - b_i = -(b_i - a_i)`) whichever argument
//! comes first, and lanes are accumulated in the same order. The ANN index
//! caches `d(a, b)` and reads it back as `d(b, a)`; a kernel that treats
//! its arguments differently (say, pre-scaling one of them) would break
//! that, and the `reductions_are_bitwise_symmetric` property test.
//!
//! Every public kernel has an `*_on(backend, ...)` twin that runs a chosen
//! backend explicitly (panicking if it is unavailable on this CPU); the
//! plain forms dispatch to [`backend`]. Tests and benchmarks use the `_on`
//! forms to compare backends inside one process.

use std::sync::OnceLock;

/// A compiled implementation of the kernel set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// AVX2 + FMA intrinsics (x86-64 only, runtime-detected).
    Avx2Fma,
    /// Portable four-way unrolled `mul_add` loops.
    Unrolled,
    /// Plain sequential reference loops (forced by `V2V_NO_SIMD=1`).
    Scalar,
}

impl Backend {
    /// Canonical lower-case name, used in metrics and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Avx2Fma => "avx2fma",
            Backend::Unrolled => "unrolled",
            Backend::Scalar => "scalar",
        }
    }

    /// Whether this backend can run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2Fma => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2Fma => false,
            Backend::Unrolled | Backend::Scalar => true,
        }
    }

    /// Every backend runnable on this CPU (always includes
    /// [`Backend::Scalar`]); the property tests iterate this.
    pub fn available() -> Vec<Backend> {
        [Backend::Avx2Fma, Backend::Unrolled, Backend::Scalar]
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }
}

static BACKEND: OnceLock<Backend> = OnceLock::new();

/// The backend every plain kernel call dispatches to, resolved once per
/// process: `V2V_NO_SIMD=1` forces [`Backend::Scalar`]; otherwise the best
/// available SIMD backend wins.
pub fn backend() -> Backend {
    *BACKEND.get_or_init(|| {
        if std::env::var("V2V_NO_SIMD").is_ok_and(|v| !v.is_empty() && v != "0") {
            return Backend::Scalar;
        }
        if Backend::Avx2Fma.is_available() {
            return Backend::Avx2Fma;
        }
        Backend::Unrolled
    })
}

/// [`backend`]'s canonical name — what metrics gauges and bench JSON record.
pub fn backend_name() -> &'static str {
    backend().name()
}

// ------------------------------------------------------------- public API

/// Dot product `a · b`.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_on(backend(), a, b)
}

/// [`dot`] on an explicit backend.
///
/// # Panics
/// Panics if the lengths differ or `bk` is unavailable on this CPU.
#[inline]
pub fn dot_on(bk: Backend, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => {
            assert!(bk.is_available(), "avx2fma backend unavailable on this CPU");
            // SAFETY: the assert above (and `backend()` selection) guarantee
            // AVX2+FMA are present, which is the only requirement of the
            // `#[target_feature]` function; slices are equal-length.
            unsafe { avx2::dot(a, b) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => panic!("avx2fma backend unavailable on this CPU"),
        Backend::Unrolled => dot_unrolled(a, b),
        Backend::Scalar => dot_scalar(a, b),
    }
}

/// Squared Euclidean distance `Σ (a_i - b_i)²`.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    squared_l2_on(backend(), a, b)
}

/// [`squared_l2`] on an explicit backend.
///
/// # Panics
/// Panics if the lengths differ or `bk` is unavailable on this CPU.
#[inline]
pub fn squared_l2_on(bk: Backend, a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "squared_l2: length mismatch");
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => {
            assert!(bk.is_available(), "avx2fma backend unavailable on this CPU");
            // SAFETY: AVX2+FMA presence asserted; slices are equal-length.
            unsafe { avx2::squared_l2(a, b) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => panic!("avx2fma backend unavailable on this CPU"),
        Backend::Unrolled => squared_l2_unrolled(a, b),
        Backend::Scalar => squared_l2_scalar(a, b),
    }
}

/// `y += alpha * x` — the BLAS `axpy` kernel.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    axpy_on(backend(), alpha, x, y)
}

/// [`axpy`] on an explicit backend.
///
/// # Panics
/// Panics if the lengths differ or `bk` is unavailable on this CPU.
#[inline]
pub fn axpy_on(bk: Backend, alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => {
            assert!(bk.is_available(), "avx2fma backend unavailable on this CPU");
            // SAFETY: AVX2+FMA presence asserted; slices are equal-length.
            unsafe { avx2::axpy(alpha, x, y) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => panic!("avx2fma backend unavailable on this CPU"),
        Backend::Unrolled => axpy_unrolled(alpha, x, y),
        Backend::Scalar => axpy_scalar(alpha, x, y),
    }
}

/// `a *= alpha`, in place.
#[inline]
pub fn scale(a: &mut [f32], alpha: f32) {
    scale_on(backend(), a, alpha)
}

/// [`scale`] on an explicit backend.
///
/// # Panics
/// Panics if `bk` is unavailable on this CPU.
#[inline]
pub fn scale_on(bk: Backend, a: &mut [f32], alpha: f32) {
    match bk {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2Fma => {
            assert!(bk.is_available(), "avx2fma backend unavailable on this CPU");
            // SAFETY: AVX2+FMA presence asserted.
            unsafe { avx2::scale(a, alpha) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2Fma => panic!("avx2fma backend unavailable on this CPU"),
        Backend::Unrolled => scale_unrolled(a, alpha),
        Backend::Scalar => scale_scalar(a, alpha),
    }
}

/// Cosine similarity of two **pre-normalized** (unit-L2) vectors: their
/// dot product clamped to `[-1, 1]`. Callers that normalize rows once at
/// build time (the ANN index, binary stores) get cosine with no per-pair
/// norm or `sqrt` work.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn cosine_prenormed(a: &[f32], b: &[f32]) -> f32 {
    cosine_prenormed_on(backend(), a, b)
}

/// [`cosine_prenormed`] on an explicit backend.
///
/// # Panics
/// Panics if the lengths differ or `bk` is unavailable on this CPU.
#[inline]
pub fn cosine_prenormed_on(bk: Backend, a: &[f32], b: &[f32]) -> f32 {
    dot_on(bk, a, b).clamp(-1.0, 1.0)
}

// ---------------------------------------------------- compile-time kernels

/// Compile-time kernel selection for hot loops.
///
/// The dispatched free functions above pay an atomic load, a feature
/// re-check, and an uninlinable call per invocation. That is fine for
/// coarse work (one ANN distance over a whole vector) but ruinous inside
/// the trainer's SGD inner loop, which issues dozens of kernel calls per
/// training pair on dim-32..128 rows: each call clobbers the caller-saved
/// SIMD registers, re-runs the dispatch, and blocks register allocation
/// across adjacent kernels.
///
/// `Kernels` instead reifies a backend as a zero-sized type. A hot loop is
/// written once, generic over `K: Kernels`, and instantiated per backend;
/// the AVX2 instantiation is wrapped in a `#[target_feature(enable =
/// "avx2,fma")]` caller so every kernel call *inlines* and the surrounding
/// glue code is compiled with AVX2 codegen too. Dispatch then happens once
/// per outer unit of work (one training walk), not once per kernel call.
///
/// The methods are `unsafe fn`: they skip the length checks of the free
/// functions, and calling the [`Avx2FmaKernels`] impl on a CPU without
/// AVX2+FMA is undefined behavior. Select the type through [`backend`]
/// dispatch, as the trainer does.
pub trait Kernels {
    /// The runtime backend tag this type reifies.
    const BACKEND: Backend;

    /// Dot product `a · b`.
    ///
    /// # Safety
    /// `a.len() == b.len()` and `Self::BACKEND.is_available()`.
    unsafe fn dot(a: &[f32], b: &[f32]) -> f32;

    /// `y += alpha * x`.
    ///
    /// # Safety
    /// `x.len() == y.len()` and `Self::BACKEND.is_available()`.
    unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]);

    /// `a *= alpha`.
    ///
    /// # Safety
    /// `Self::BACKEND.is_available()`.
    unsafe fn scale(a: &mut [f32], alpha: f32);
}

/// [`Backend::Scalar`] reified as a [`Kernels`] type.
pub struct ScalarKernels;

impl Kernels for ScalarKernels {
    const BACKEND: Backend = Backend::Scalar;

    #[inline(always)]
    unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        dot_scalar(a, b)
    }

    #[inline(always)]
    unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len());
        axpy_scalar(alpha, x, y)
    }

    #[inline(always)]
    unsafe fn scale(a: &mut [f32], alpha: f32) {
        scale_scalar(a, alpha)
    }
}

/// [`Backend::Unrolled`] reified as a [`Kernels`] type.
pub struct UnrolledKernels;

impl Kernels for UnrolledKernels {
    const BACKEND: Backend = Backend::Unrolled;

    #[inline(always)]
    unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        dot_unrolled(a, b)
    }

    #[inline(always)]
    unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len());
        axpy_unrolled(alpha, x, y)
    }

    #[inline(always)]
    unsafe fn scale(a: &mut [f32], alpha: f32) {
        scale_unrolled(a, alpha)
    }
}

/// [`Backend::Avx2Fma`] reified as a [`Kernels`] type (x86-64 only).
///
/// Using this type on a CPU without AVX2+FMA is undefined behavior; it is
/// only meant to be named inside a `backend() == Backend::Avx2Fma` dispatch
/// arm, under a `#[target_feature(enable = "avx2,fma")]` wrapper so the
/// kernels inline.
#[cfg(target_arch = "x86_64")]
pub struct Avx2FmaKernels;

#[cfg(target_arch = "x86_64")]
impl Kernels for Avx2FmaKernels {
    const BACKEND: Backend = Backend::Avx2Fma;

    #[inline(always)]
    unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        // SAFETY: trait contract — caller guarantees AVX2+FMA presence and
        // equal lengths.
        avx2::dot(a, b)
    }

    #[inline(always)]
    unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len());
        // SAFETY: trait contract, as in `dot`.
        avx2::axpy(alpha, x, y)
    }

    #[inline(always)]
    unsafe fn scale(a: &mut [f32], alpha: f32) {
        // SAFETY: trait contract — caller guarantees AVX2+FMA presence.
        avx2::scale(a, alpha)
    }
}

// -------------------------------------------------------- scalar reference

#[inline]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

#[inline]
fn squared_l2_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

#[inline]
fn axpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[inline]
fn scale_scalar(a: &mut [f32], alpha: f32) {
    for x in a.iter_mut() {
        *x *= alpha;
    }
}

// ------------------------------------------------------- portable unrolled

/// `a * b + c`, fused only where the target guarantees hardware FMA.
///
/// On targets without FMA codegen (plain x86-64, which baselines at SSE2),
/// `f32::mul_add` lowers to a libm `fmaf` *call* — about an order of
/// magnitude slower than the mul+add pair it replaces. aarch64 NEON has
/// fused multiply-add in the baseline ISA, so `mul_add` is a single
/// instruction there.
#[inline(always)]
fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(any(target_arch = "aarch64", target_feature = "fma")) {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

#[inline]
fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        acc[0] = fmadd(x[0], y[0], acc[0]);
        acc[1] = fmadd(x[1], y[1], acc[1]);
        acc[2] = fmadd(x[2], y[2], acc[2]);
        acc[3] = fmadd(x[3], y[3], acc[3]);
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail = fmadd(*x, *y, tail);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[inline]
fn squared_l2_unrolled(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        let d0 = x[0] - y[0];
        let d1 = x[1] - y[1];
        let d2 = x[2] - y[2];
        let d3 = x[3] - y[3];
        acc[0] = fmadd(d0, d0, acc[0]);
        acc[1] = fmadd(d1, d1, acc[1]);
        acc[2] = fmadd(d2, d2, acc[2]);
        acc[3] = fmadd(d3, d3, acc[3]);
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail = fmadd(d, d, tail);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[inline]
fn axpy_unrolled(alpha: f32, x: &[f32], y: &mut [f32]) {
    let mut cy = y.chunks_exact_mut(4);
    let mut cx = x.chunks_exact(4);
    for (yo, xi) in (&mut cy).zip(&mut cx) {
        yo[0] = fmadd(alpha, xi[0], yo[0]);
        yo[1] = fmadd(alpha, xi[1], yo[1]);
        yo[2] = fmadd(alpha, xi[2], yo[2]);
        yo[3] = fmadd(alpha, xi[3], yo[3]);
    }
    for (yo, xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yo = fmadd(alpha, *xi, *yo);
    }
}

#[inline]
fn scale_unrolled(a: &mut [f32], alpha: f32) {
    for x in a.iter_mut() {
        *x *= alpha;
    }
}

// ------------------------------------------------------------ AVX2 + FMA

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Horizontal sum of the 8 lanes of `v`.
    ///
    /// # Safety
    /// Requires AVX (guaranteed by callers' `avx2,fma` target features).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0b01));
        _mm_cvtss_f32(s)
    }

    /// # Safety
    /// Requires AVX2+FMA and `a.len() == b.len()`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        // SAFETY: every load below reads 8 floats at offset `i + k*8` with
        // `i + 32 <= n`, so all accesses stay inside the slices.
        while i + 32 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 16)),
                _mm256_loadu_ps(bp.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(ap.add(i + 24)),
                _mm256_loadu_ps(bp.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        // SAFETY: `i + 8 <= n` bounds each 8-float load.
        while i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)), acc0);
            i += 8;
        }
        let mut sum = hsum(_mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)));
        while i < n {
            sum += a[i] * b[i];
            i += 1;
        }
        sum
    }

    /// # Safety
    /// Requires AVX2+FMA and `a.len() == b.len()`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0usize;
        // SAFETY: `i + 16 <= n` bounds each pair of 8-float loads.
        while i + 16 <= n {
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(ap.add(i + 8)),
                _mm256_loadu_ps(bp.add(i + 8)),
            );
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            i += 16;
        }
        // SAFETY: `i + 8 <= n` bounds each 8-float load.
        while i + 8 <= n {
            let d = _mm256_sub_ps(_mm256_loadu_ps(ap.add(i)), _mm256_loadu_ps(bp.add(i)));
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut sum = hsum(_mm256_add_ps(acc0, acc1));
        while i < n {
            let d = a[i] - b[i];
            sum += d * d;
            i += 1;
        }
        sum
    }

    /// # Safety
    /// Requires AVX2+FMA and `x.len() == y.len()`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = y.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let va = _mm256_set1_ps(alpha);
        let mut i = 0usize;
        // SAFETY: `i + 16 <= n` bounds each pair of 8-float loads/stores;
        // `x` and `y` are distinct slices (`&` vs `&mut`), so the
        // load-modify-store cannot overlap a source read.
        while i + 16 <= n {
            let y0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            let y1 = _mm256_fmadd_ps(
                va,
                _mm256_loadu_ps(xp.add(i + 8)),
                _mm256_loadu_ps(yp.add(i + 8)),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            _mm256_storeu_ps(yp.add(i + 8), y1);
            i += 16;
        }
        // SAFETY: `i + 8 <= n` bounds each 8-float load/store.
        while i + 8 <= n {
            let y0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            _mm256_storeu_ps(yp.add(i), y0);
            i += 8;
        }
        while i < n {
            y[i] += alpha * x[i];
            i += 1;
        }
    }

    /// # Safety
    /// Requires AVX2+FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale(a: &mut [f32], alpha: f32) {
        let n = a.len();
        let ap = a.as_mut_ptr();
        let va = _mm256_set1_ps(alpha);
        let mut i = 0usize;
        // SAFETY: `i + 8 <= n` bounds each 8-float load/store.
        while i + 8 <= n {
            _mm256_storeu_ps(ap.add(i), _mm256_mul_ps(va, _mm256_loadu_ps(ap.add(i))));
            i += 8;
        }
        while i < n {
            a[i] *= alpha;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available_and_named() {
        assert!(Backend::Scalar.is_available());
        assert!(Backend::Unrolled.is_available());
        let avail = Backend::available();
        assert!(avail.contains(&Backend::Scalar));
        assert!(avail.contains(&Backend::Unrolled));
        for b in avail {
            assert!(!b.name().is_empty());
        }
        assert_eq!(backend().name(), backend_name());
    }

    #[test]
    fn kernels_match_known_values_on_every_backend() {
        // 37 elements: exercises the 32-wide, 16-wide, 8-wide, and scalar
        // tails of every implementation.
        let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.25) - 4.0).collect();
        let b: Vec<f32> = (0..37).map(|i| 2.0 - (i as f32 * 0.125)).collect();
        let want_dot: f64 =
            a.iter().zip(&b).map(|(x, y)| *x as f64 * *y as f64).sum();
        let want_l2: f64 =
            a.iter().zip(&b).map(|(x, y)| (*x as f64 - *y as f64).powi(2)).sum();
        for bk in Backend::available() {
            let d = dot_on(bk, &a, &b) as f64;
            assert!((d - want_dot).abs() < 1e-3, "{bk:?} dot {d} vs {want_dot}");
            let l = squared_l2_on(bk, &a, &b) as f64;
            assert!((l - want_l2).abs() < 1e-3, "{bk:?} l2 {l} vs {want_l2}");

            let mut y = b.clone();
            axpy_on(bk, 0.5, &a, &mut y);
            for i in 0..y.len() {
                let want = b[i] + 0.5 * a[i];
                assert!((y[i] - want).abs() < 1e-5, "{bk:?} axpy[{i}]");
            }
            scale_on(bk, &mut y, -2.0);
            let want0 = -2.0 * (b[0] + 0.5 * a[0]);
            assert!((y[0] - want0).abs() < 1e-5, "{bk:?} scale");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for bk in Backend::available() {
            assert_eq!(dot_on(bk, &[], &[]), 0.0);
            assert_eq!(squared_l2_on(bk, &[], &[]), 0.0);
            assert_eq!(dot_on(bk, &[3.0], &[4.0]), 12.0);
            let mut y = [1.0f32];
            axpy_on(bk, 2.0, &[3.0], &mut y);
            assert_eq!(y[0], 7.0);
            let mut e: [f32; 0] = [];
            axpy_on(bk, 1.0, &[], &mut e);
            scale_on(bk, &mut e, 2.0);
        }
    }

    #[test]
    fn cosine_prenormed_clamps() {
        let a = [1.0f32, 0.0];
        for bk in Backend::available() {
            assert_eq!(cosine_prenormed_on(bk, &a, &a), 1.0);
            assert_eq!(cosine_prenormed_on(bk, &a, &[-1.0, 0.0]), -1.0);
            assert_eq!(cosine_prenormed_on(bk, &a, &[0.0, 1.0]), 0.0);
        }
        assert!((cosine_prenormed(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
