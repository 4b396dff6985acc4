//! SplitMix64 (Steele, Lea & Flood 2014) — the workspace's one seed mixer:
//! per-walk seed derivation, request IDs, canary sampling, retry jitter
//! and the synthetic-graph generator all draw from these two functions.

/// One step of the SplitMix64 sequence: advances `state` and returns a
/// well-mixed 64-bit draw.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stateless form: the first draw of a sequence started at `x`.
#[inline]
pub fn mix(mut x: u64) -> u64 {
    splitmix64(&mut x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference outputs for seed 0 (Vigna's splitmix64.c).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn mix_is_one_step_from_its_argument() {
        for x in [0u64, 42, u64::MAX] {
            let mut s = x;
            assert_eq!(mix(x), splitmix64(&mut s));
            assert_eq!(s, x.wrapping_add(0x9E37_79B9_7F4A_7C15));
        }
    }
}
