//! Deterministic seed derivation.
//!
//! Each walk gets its own RNG stream, with the stream seed derived from
//! `(corpus seed, start vertex, walk index)` by SplitMix64. This makes the
//! corpus a pure function of the seed — identical across thread counts and
//! across runs — which the reproducibility tests rely on.

use v2v_base::rng::splitmix64;

/// Mixes several values into a single derived seed.
pub fn derive_seed(base: u64, a: u64, b: u64) -> u64 {
    let mut s = base ^ 0xA076_1D64_78BD_642F;
    let mut out = splitmix64(&mut s);
    s ^= a.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    out ^= splitmix64(&mut s);
    s ^= b.wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
    out ^ splitmix64(&mut s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_per_input() {
        let s = derive_seed(1, 2, 3);
        assert_ne!(s, derive_seed(1, 2, 4));
        assert_ne!(s, derive_seed(1, 3, 3));
        assert_ne!(s, derive_seed(2, 2, 3));
        assert_eq!(s, derive_seed(1, 2, 3));
    }

    #[test]
    fn derived_seeds_spread_bits() {
        // Adjacent inputs should not produce adjacent outputs.
        let a = derive_seed(0, 0, 0);
        let b = derive_seed(0, 0, 1);
        assert!((a ^ b).count_ones() > 8, "poor diffusion: {a:x} vs {b:x}");
    }
}
