//! Shuffled k-fold cross-validation.
//!
//! The paper's label-prediction protocol (§V): airports are split into 10
//! equal folds; each fold in turn hides its labels and is predicted from
//! the other nine. [`kfold`] produces the index splits; the caller runs the
//! classifier per fold.

use v2v_base::rng::Rng;

/// One train/test split.
#[derive(Clone, Debug)]
pub struct Fold {
    /// Indices used for training.
    pub train: Vec<usize>,
    /// Indices held out for evaluation.
    pub test: Vec<usize>,
}

/// Splits `0..n` into `folds` shuffled, near-equal folds and returns the
/// train/test splits. Fold sizes differ by at most one.
///
/// # Panics
/// Panics if `folds` is zero or exceeds `n`.
pub fn kfold(n: usize, folds: usize, seed: u64) -> Vec<Fold> {
    assert!(folds >= 1, "need at least one fold");
    assert!(folds <= n, "cannot make {folds} folds from {n} items");
    let mut indices: Vec<usize> = (0..n).collect();
    let mut rng = Rng::seed_from_u64(seed);
    rng.shuffle(&mut indices);

    // Spread the remainder over the first `n % folds` folds.
    let base = n / folds;
    let extra = n % folds;
    let mut out = Vec::with_capacity(folds);
    let mut start = 0;
    for f in 0..folds {
        let size = base + usize::from(f < extra);
        let test: Vec<usize> = indices[start..start + size].to_vec();
        let train: Vec<usize> =
            indices[..start].iter().chain(&indices[start + size..]).copied().collect();
        out.push(Fold { train, test });
        start += size;
    }
    out
}

/// Runs a full cross-validation: `evaluate(train, test)` returns a score
/// per fold (e.g. accuracy); the mean over folds is returned.
pub fn cross_validate<F: FnMut(&[usize], &[usize]) -> f64>(
    n: usize,
    folds: usize,
    seed: u64,
    mut evaluate: F,
) -> f64 {
    let splits = kfold(n, folds, seed);
    let total: f64 = splits.iter().map(|f| evaluate(&f.train, &f.test)).sum();
    total / splits.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_partition_everything() {
        let folds = kfold(103, 10, 1);
        assert_eq!(folds.len(), 10);
        let mut all: Vec<usize> = folds.iter().flat_map(|f| f.test.iter().copied()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn fold_sizes_near_equal() {
        let folds = kfold(103, 10, 2);
        let sizes: Vec<usize> = folds.iter().map(|f| f.test.len()).collect();
        assert!(sizes.iter().all(|&s| s == 10 || s == 11));
        assert_eq!(sizes.iter().sum::<usize>(), 103);
    }

    #[test]
    fn train_and_test_are_disjoint_and_complete() {
        for fold in kfold(50, 5, 3) {
            assert_eq!(fold.train.len() + fold.test.len(), 50);
            let train: std::collections::HashSet<_> = fold.train.iter().collect();
            assert!(fold.test.iter().all(|i| !train.contains(i)));
        }
    }

    #[test]
    fn shuffling_depends_on_seed() {
        let a = kfold(30, 3, 1);
        let b = kfold(30, 3, 1);
        let c = kfold(30, 3, 2);
        assert_eq!(a[0].test, b[0].test);
        assert_ne!(a[0].test, c[0].test);
    }

    #[test]
    fn leave_one_out_extreme() {
        let folds = kfold(4, 4, 0);
        for f in &folds {
            assert_eq!(f.test.len(), 1);
            assert_eq!(f.train.len(), 3);
        }
    }

    #[test]
    fn cross_validate_averages() {
        // Score = size of the test fold; mean must be n / folds.
        let mean = cross_validate(100, 10, 7, |_, test| test.len() as f64);
        assert!((mean - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot make")]
    fn too_many_folds_panics() {
        kfold(3, 5, 0);
    }
}
