//! Negative-sampling distribution.
//!
//! word2vec draws negatives from the unigram distribution raised to the
//! 3/4 power — frequent words are down-weighted so negatives are not all
//! hubs. The draw itself uses the alias method (O(1)).

use v2v_base::rng::Rng;
use v2v_walks::alias::AliasTable;

/// Exponent applied to the unigram counts, word2vec's 3/4.
pub const DISTORTION: f64 = 0.75;

/// Prepared negative sampler over the vocabulary.
pub struct NegativeSampler {
    table: AliasTable,
}

impl NegativeSampler {
    /// Builds the sampler from corpus token counts (one per vocabulary
    /// item). Zero-count items get a tiny floor weight so the table stays
    /// valid for vocabularies with unvisited vertices.
    ///
    /// # Panics
    /// Panics on an empty vocabulary.
    pub fn new(counts: &[u64]) -> NegativeSampler {
        assert!(!counts.is_empty(), "negative sampler needs a vocabulary");
        let weights: Vec<f64> =
            counts.iter().map(|&c| (c.max(1) as f64).powf(DISTORTION)).collect();
        NegativeSampler { table: AliasTable::new(&weights) }
    }

    /// Draws one negative, avoiding `exclude` (the positive target) by
    /// redrawing. Every vocabulary item has a positive floor weight, so the
    /// redraw loop terminates with probability 1 whenever the vocabulary
    /// has a second item; a single-item vocabulary returns that item.
    #[inline]
    pub fn sample(&self, rng: &mut Rng, exclude: usize) -> usize {
        if self.table.len() == 1 {
            return self.table.sample(rng);
        }
        loop {
            let s = self.table.sample(rng);
            if s != exclude {
                return s;
            }
        }
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the vocabulary is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_distorted_frequencies() {
        // counts 16 and 1 -> weights 16^.75 = 8 and 1: ratio 8:1.
        let s = NegativeSampler::new(&[16, 1]);
        let mut rng = Rng::seed_from_u64(1);
        let hits0 = (0..90_000).filter(|_| s.sample(&mut rng, usize::MAX) == 0).count();
        let frac = hits0 as f64 / 90_000.0;
        assert!((frac - 8.0 / 9.0).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn excludes_positive_target() {
        let s = NegativeSampler::new(&[100, 1, 1]);
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..5000 {
            assert_ne!(s.sample(&mut rng, 0), 0);
        }
    }

    #[test]
    fn zero_counts_get_floor() {
        let s = NegativeSampler::new(&[0, 0, 5]);
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = [false; 3];
        for _ in 0..10_000 {
            seen[s.sample(&mut rng, usize::MAX)] = true;
        }
        assert!(seen.iter().all(|&x| x), "some item never sampled: {seen:?}");
    }

    #[test]
    fn single_word_vocab_degenerates_gracefully() {
        let s = NegativeSampler::new(&[3]);
        let mut rng = Rng::seed_from_u64(4);
        assert_eq!(s.sample(&mut rng, 0), 0); // cannot avoid the only word
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "vocabulary")]
    fn empty_counts_panic() {
        NegativeSampler::new(&[]);
    }
}
