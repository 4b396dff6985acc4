//! Lock-free shared weight matrices for Hogwild!-style parallel SGD.
//!
//! word2vec (and therefore V2V) trains with unsynchronized parallel SGD:
//! worker threads update shared weight rows without locks, accepting the
//! occasional lost update because gradient sparsity makes collisions rare.
//!
//! Rust's memory model forbids plain data races, so [`HogwildMatrix`]
//! stores weights as `AtomicU32` bit patterns. Cold paths (`get`/`set`,
//! snapshots) access them with `Relaxed` loads/stores. The hot paths do
//! not: per-element atomic accessors force one bounds check and one
//! bit-cast per element and — more importantly — make the row loops
//! opaque to SIMD. Since the whole point of Hogwild is that racing
//! relaxed-width reads and writes of weight cells are *accepted* (lost or
//! mixed updates merely add gradient noise), the row kernels instead hand
//! the underlying buffer to `v2v_linalg::kernels` as plain `f32` rows via
//! [`row`](HogwildMatrix::row) / [`row_mut`](HogwildMatrix::row_mut):
//! `AtomicU32` is documented to have the same size and bit validity as
//! `u32`, so a row of atomics reinterprets as a row of `f32` exactly.
//!
//! The resulting contract (the "Hogwild contract" referenced by the
//! `SAFETY` comments):
//!
//! * rows may be read while another thread writes them — readers may see
//!   a mix of old and new elements, never garbage (word-sized plain
//!   loads/stores on every supported target);
//! * concurrent row updates may lose elements under contention, exactly
//!   as in the C original;
//! * single-threaded use is entirely race-free, so `threads == 1` runs
//!   stay deterministic.

use std::sync::atomic::{AtomicU32, Ordering};
use v2v_linalg::kernels;

/// A `rows x cols` matrix of `f32` weights that many threads may read and
/// write concurrently without synchronization.
pub struct HogwildMatrix {
    rows: usize,
    cols: usize,
    data: Vec<AtomicU32>,
}

/// `AtomicU32` is `repr(transparent)` over `u32` with identical size and
/// bit validity, and `f32` likewise round-trips through `u32` bits, so a
/// contiguous run of cells reinterprets as a run of `f32`.
const _LAYOUT: () = assert!(
    std::mem::size_of::<AtomicU32>() == std::mem::size_of::<f32>()
        && std::mem::align_of::<AtomicU32>() == std::mem::align_of::<f32>()
);

impl HogwildMatrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let data = (0..rows * cols).map(|_| AtomicU32::new(0)).collect();
        HogwildMatrix { rows, cols, data }
    }

    /// Builds from an `f32` buffer in row-major order.
    ///
    /// # Panics
    /// Panics if `init.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, init: Vec<f32>) -> Self {
        assert_eq!(init.len(), rows * cols, "init buffer has wrong length");
        let data = init.into_iter().map(|x| AtomicU32::new(x.to_bits())).collect();
        HogwildMatrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw pointer to the first element of row `r`, viewed as `f32`.
    ///
    /// # Panics
    /// Panics (via slice indexing) if `r` is out of range.
    #[inline(always)]
    fn row_ptr(&self, r: usize) -> *mut f32 {
        let base = r * self.cols;
        // One bounds check per *row* instead of per element.
        self.data[base..base + self.cols].as_ptr() as *mut f32
    }

    /// Row `r` as a plain `f32` slice, for whole-row kernel calls.
    ///
    /// Under the Hogwild contract (module docs) a concurrently-updated row
    /// may yield a mix of old and new elements; that is accepted SGD
    /// noise, not corruption. Single-threaded use is race-free.
    #[inline(always)]
    pub fn row(&self, r: usize) -> &[f32] {
        // SAFETY: `row_ptr` bounds-checks the range; the layout assertion
        // above guarantees `AtomicU32` cells reinterpret as `f32`; racing
        // writers are tolerated per the Hogwild contract.
        unsafe { std::slice::from_raw_parts(self.row_ptr(r), self.cols) }
    }

    /// Row `r` as a mutable `f32` slice — the Hogwild update target.
    ///
    /// Takes `&self` deliberately: overlapping "exclusive" views from
    /// concurrent threads are the Hogwild design (lost updates accepted).
    /// Callers must drop the returned slice before obtaining another view
    /// of the *same* row on the *same* thread.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)] // Hogwild: unsynchronized shared writes are the design
    pub fn row_mut(&self, r: usize) -> &mut [f32] {
        // SAFETY: as in `row`; mutation through `&self` is confined to
        // plain word stores that racing readers observe per-element, which
        // the Hogwild contract accepts.
        unsafe { std::slice::from_raw_parts_mut(self.row_ptr(r), self.cols) }
    }

    /// Reads element `(r, c)`.
    #[inline(always)]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        f32::from_bits(self.data[r * self.cols + c].load(Ordering::Relaxed))
    }

    /// Writes element `(r, c)`.
    #[inline(always)]
    pub fn set(&self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Copies row `r` into `out`.
    #[inline]
    pub fn load_row(&self, r: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.cols);
        out.copy_from_slice(self.row(r));
    }

    /// Dot product of row `r` with `v` (SIMD-dispatched).
    #[inline]
    pub fn dot_row(&self, r: usize, v: &[f32]) -> f32 {
        kernels::dot(self.row(r), v)
    }

    /// `row(r) += alpha * v` — the Hogwild update. Lost updates under
    /// contention are acceptable by design.
    #[inline]
    pub fn axpy_row(&self, r: usize, alpha: f32, v: &[f32]) {
        kernels::axpy(alpha, v, self.row_mut(r));
    }

    /// `acc += alpha * row(r)` — gradient accumulation into a local buffer.
    #[inline]
    pub fn accumulate_row(&self, r: usize, alpha: f32, acc: &mut [f32]) {
        kernels::axpy(alpha, self.row(r), acc);
    }

    /// Snapshots the whole matrix into a plain `Vec<f32>` (row-major).
    pub fn to_vec(&self) -> Vec<f32> {
        self.data.iter().map(|a| f32::from_bits(a.load(Ordering::Relaxed))).collect()
    }

    /// The whole matrix as a plain `Vec<f32>` (row-major) in the buffer it
    /// already owns: `AtomicU32` and `f32` have one size and alignment, so
    /// collecting the mapped cells reuses the allocation instead of
    /// copying it (`into_vec_keeps_the_buffer`).
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_iter().map(|a| f32::from_bits(a.into_inner())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn into_vec_keeps_the_buffer() {
        let m = HogwildMatrix::from_vec(3, 2, vec![1.0, -2.0, 0.5, 0.0, f32::MIN, 7.25]);
        let (want, at) = (m.to_vec(), m.data.as_ptr() as usize);
        let v = m.into_vec();
        assert_eq!(v, want);
        assert_eq!(v.as_ptr() as usize, at, "into_vec copied the buffer");
    }

    #[test]
    fn get_set_roundtrip() {
        let m = HogwildMatrix::zeros(3, 4);
        m.set(2, 3, 1.5);
        assert_eq!(m.get(2, 3), 1.5);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
    }

    #[test]
    fn from_vec_layout() {
        let m = HogwildMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn row_views_alias_atomic_cells() {
        let m = HogwildMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        m.row_mut(0)[2] = 9.0;
        assert_eq!(m.get(0, 2), 9.0, "kernel-side writes visible to atomic reads");
        m.set(1, 0, -1.0);
        assert_eq!(m.row(1)[0], -1.0, "atomic writes visible to kernel-side reads");
    }

    #[test]
    fn row_kernels() {
        let m = HogwildMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
        assert_eq!(m.dot_row(0, &[1.0, 1.0, 1.0]), 6.0);
        let mut buf = vec![0.0; 3];
        m.load_row(0, &mut buf);
        assert_eq!(buf, vec![1.0, 2.0, 3.0]);
        m.axpy_row(1, 2.0, &[1.0, 2.0, 3.0]);
        assert_eq!(m.get(1, 2), 6.0);
        let mut acc = vec![10.0, 10.0, 10.0];
        m.accumulate_row(0, -1.0, &mut acc);
        assert_eq!(acc, vec![9.0, 8.0, 7.0]);
    }

    /// Row kernels on a width that exercises the SIMD main loops + tail.
    #[test]
    fn wide_row_kernels_match_reference() {
        let cols = 37;
        let init: Vec<f32> = (0..2 * cols).map(|i| i as f32 * 0.5 - 9.0).collect();
        let m = HogwildMatrix::from_vec(2, cols, init.clone());
        let v: Vec<f32> = (0..cols).map(|i| 1.0 - i as f32 * 0.25).collect();
        let want: f64 = (0..cols).map(|i| init[i] as f64 * v[i] as f64).sum();
        assert!((m.dot_row(0, &v) as f64 - want).abs() < 1e-3);
        m.axpy_row(1, 2.0, &v);
        for i in 0..cols {
            let want = init[cols + i] + 2.0 * v[i];
            assert!((m.get(1, i) - want).abs() < 1e-4, "axpy col {i}");
        }
    }

    #[test]
    fn concurrent_updates_mostly_land() {
        // 8 threads x 1000 disjoint-row updates must all land exactly
        // (no contention on distinct rows).
        let m = std::sync::Arc::new(HogwildMatrix::zeros(8, 4));
        std::thread::scope(|s| {
            for t in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.axpy_row(t, 1.0, &[1.0, 1.0, 1.0, 1.0]);
                    }
                });
            }
        });
        for t in 0..8 {
            assert_eq!(m.get(t, 0), 1000.0);
        }
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn bad_init_panics() {
        HogwildMatrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_row_panics() {
        HogwildMatrix::zeros(2, 2).row(2);
    }
}
