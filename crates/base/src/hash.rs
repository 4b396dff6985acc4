//! FNV-1a 64-bit hashing — the workspace's one checksum primitive. Every
//! binary format's trailing checksum goes through [`crate::bytes::seal`]
//! and [`crate::bytes::unseal`], which call this; the `.v2s` store's
//! payload shards and fingerprint, the streamed corpus shards and the
//! build fingerprints chain it directly.

/// FNV-1a 64-bit offset basis: the initial `state` for a fresh hash.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds `bytes` into a running FNV-1a 64-bit state. Chainable:
/// `fnv1a64(fnv1a64(FNV_OFFSET, a), b)` hashes the concatenation `a ++ b`.
#[inline]
pub fn fnv1a64(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(FNV_OFFSET, b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(FNV_OFFSET, b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn chaining_equals_concatenation() {
        let whole = fnv1a64(FNV_OFFSET, b"hello world");
        let chained = fnv1a64(fnv1a64(FNV_OFFSET, b"hello "), b"world");
        assert_eq!(whole, chained);
    }
}
