//! Walker's alias method: O(1) sampling from a discrete distribution.
//!
//! Weighted walk strategies (edge-weighted, vertex-weighted) sample a
//! neighbor proportionally to a weight at every step; a per-vertex
//! [`AliasTable`] built once makes each step constant-time, which is what
//! keeps weighted corpora as cheap as uniform ones.

use v2v_base::rng::Rng;

/// A prepared alias table over `n` outcomes.
#[derive(Clone, Debug)]
pub struct AliasTable {
    /// Acceptance probability of the "own" outcome per bucket.
    prob: Vec<f64>,
    /// The alternative outcome per bucket.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds a table from non-negative weights (not necessarily
    /// normalized). Runs in `O(n)`.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one outcome");
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weights must be finite, non-negative, and not all zero"
        );
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
        }
        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut alias = vec![0u32; n];

        // Partition buckets into under-full and over-full stacks and pair
        // them up (Vose's stable construction).
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            let remaining = prob[l as usize] + prob[s as usize] - 1.0;
            prob[l as usize] = remaining;
            if remaining < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are numerically 1.0.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
            alias[i as usize] = i;
        }
        AliasTable { prob, alias }
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws one outcome index.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        if rng.gen_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical(weights: &[f64], draws: usize, seed: u64) -> Vec<f64> {
        let table = AliasTable::new(weights);
        let mut rng = Rng::seed_from_u64(seed);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let freq = empirical(&[1.0, 1.0, 1.0, 1.0], 100_000, 1);
        for f in freq {
            assert!((f - 0.25).abs() < 0.01, "frequency {f}");
        }
    }

    #[test]
    fn skewed_weights_respected() {
        let freq = empirical(&[8.0, 1.0, 1.0], 200_000, 2);
        assert!((freq[0] - 0.8).abs() < 0.01);
        assert!((freq[1] - 0.1).abs() < 0.01);
        assert!((freq[2] - 0.1).abs() < 0.01);
    }

    #[test]
    fn zero_weight_entries_never_sampled() {
        let freq = empirical(&[1.0, 0.0, 1.0], 50_000, 3);
        assert_eq!(freq[1], 0.0);
        assert!((freq[0] - 0.5).abs() < 0.02);
    }

    #[test]
    fn single_outcome() {
        let t = AliasTable::new(&[3.5]);
        let mut rng = Rng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn unnormalized_weights_equivalent() {
        let a = empirical(&[2.0, 6.0], 100_000, 5);
        let b = empirical(&[0.25, 0.75], 100_000, 5);
        assert!((a[0] - b[0]).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn empty_weights_panic() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic]
    fn all_zero_weights_panic() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn negative_weight_panics() {
        AliasTable::new(&[1.0, -1.0, 3.0]);
    }
}
