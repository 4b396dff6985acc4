//! The workspace's one random source: SplitMix64 (Steele, Lea & Flood
//! 2014) as the seed mixer and xoshiro256++ (Blackman & Vigna 2018) as the
//! generator.
//!
//! Every stream the program draws goes through [`Rng`]: the walk corpus,
//! CBOW's initial rows, subsampling and negative draws, the HNSW levels,
//! the synthetic graphs and every property-test case. Per-walk seeds come
//! from [`derive_seed`]; request IDs, canary sampling, retry jitter and the
//! million-vertex generator call the mixer directly.

use std::ops::{Range, RangeInclusive};

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

/// Mixes a base seed and two coordinates into one decorrelated seed. Each
/// walk seeds its own [`Rng`] from `(corpus seed, start vertex, walk
/// index)` this way, and the trainer its per-walk and init streams, so
/// every output is a pure function of the seed on any thread count.
pub fn derive_seed(base: u64, a: u64, b: u64) -> u64 {
    let mut s = base ^ 0xA076_1D64_78BD_642F;
    let mut out = splitmix64(&mut s);
    s ^= a.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    out ^= splitmix64(&mut s);
    s ^= b.wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
    out ^ splitmix64(&mut s)
}

/// xoshiro256++: small, fast and not cryptographic. Its stream is a pure
/// function of the seed, and the pinned vectors in the tests below hold it
/// there: snapshots, checkpoints and the `cmp` smokes depend on every bit.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose state is the next four SplitMix64 draws from
    /// `seed`. The four states SplitMix64 finalises are distinct and its
    /// finaliser is a bijection, so at most one word is zero and the
    /// all-zero fixed point of xoshiro cannot occur.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        Rng { s: [(); 4].map(|_| splitmix64(&mut sm)) }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 random mantissa bits.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, 1)` with 24 random mantissa bits (the top ones).
    #[inline]
    pub fn gen_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform in `range`: `lo..hi` or `lo..=hi` over integers, `lo..hi`
    /// over floats.
    ///
    /// # Panics
    /// Panics on an empty range.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool p out of range");
        self.gen_f64() < p
    }

    /// Uniform in-place Fisher–Yates shuffle.
    #[inline]
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Uniform in `0..span` for `span > 0`: Lemire's multiply-shift with
    /// rejection, so no value is favoured.
    #[inline]
    fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        loop {
            let m = self.next_u64() as u128 * span as u128;
            if m as u64 >= span.wrapping_neg() % span {
                return (m >> 64) as u64;
            }
        }
    }
}

/// The ranges [`Rng::gen_range`] draws from.
pub trait SampleRange<T> {
    /// One uniform draw from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty gen_range");
                match (hi as u64).wrapping_sub(lo as u64).wrapping_add(1) {
                    // The whole 64-bit domain: every value is fair game.
                    0 => rng.next_u64() as $t,
                    span => lo.wrapping_add(rng.below(span) as $t),
                }
            }
        }
    )*};
}
int_range!(u32, u64, usize, i32);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty gen_range");
        self.start + (self.end - self.start) * rng.gen_f64()
    }
}

impl SampleRange<f32> for Range<f32> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> f32 {
        assert!(self.start < self.end, "empty gen_range");
        self.start + (self.end - self.start) * rng.gen_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{fnv1a64, FNV_OFFSET};

    #[test]
    fn splitmix_known_vectors() {
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

    // The known vectors below were captured from the xoshiro256++
    // generator this type replaced; every stream in the workspace depends
    // on them staying put.

    #[test]
    fn next_u64_known_vectors() {
        #[rustfmt::skip]
        let cases: [(u64, [u64; 8]); 3] = [
            (0, [0x53175D61490B23DF, 0x61DA6F3DC380D507, 0x5C0FDF91EC9A7BFC, 0x02EEBF8C3BBE5E1A,
                 0x7ECA04EBAF4A5EEA, 0x0543C37757F08D9A, 0xDB7490C75AB5026E, 0xD87343E6464BC959]),
            (7, [0x0E2C1A002AAE913D, 0x2C0FC8DDFA4E9E14, 0xB7B311B3B0D45872, 0x6D5D9F6A6318013C,
                 0xF6B263F2F5790376, 0x77385B627C22C489, 0xB951F9B3621EA380, 0x54705B5ADC01E528]),
            (u64::MAX,
             [0x56CCF8CE948E27B2, 0xE68588432E5A5B90, 0xE3E9B5A48119CA8B, 0x460F19495532AE73,
              0xA7D62040EA9263E1, 0x66F1FB2AC9402C14, 0xE243B47DE8A73F68, 0x7C93FDAB4C7B3DFF]),
        ];
        for (seed, want) in cases {
            let mut r = Rng::seed_from_u64(seed);
            assert_eq!([(); 8].map(|_| r.next_u64()), want, "seed {seed}");
        }
    }

    #[test]
    fn unit_draw_known_vectors() {
        let mut r = Rng::seed_from_u64(11);
        let f64s = [(); 4].map(|_| r.gen_f64().to_bits());
        assert_eq!(
            f64s,
            [0x3FEB8357798D4D28, 0x3FE9CE9432771CD5, 0x3FEEDAC21DDE9B13, 0x3FE34D8F1710A5B8]
        );
        let f32s = [(); 4].map(|_| r.gen_f32().to_bits());
        assert_eq!(f32s, [0x3E865560, 0x3F36934F, 0x3E055908, 0x3CA8C0A0]);
    }

    #[test]
    fn gen_range_known_vectors() {
        let mut r = Rng::seed_from_u64(12);
        let n = 1000usize;
        assert_eq!([(); 8].map(|_| r.gen_range(0..7usize)), [4, 6, 4, 1, 6, 0, 4, 3]);
        assert_eq!(
            [(); 8].map(|_| r.gen_range(0..n as u32)),
            [599, 687, 983, 234, 65, 595, 893, 373]
        );
        assert_eq!([(); 8].map(|_| r.gen_range(-8i32..=8)), [-2, -2, -7, -7, 4, 2, 4, 0]);
        assert_eq!(
            [(); 4].map(|_| r.gen_range(-1.0f32..1.0).to_bits()),
            [0x3EF79064, 0x3E59A530, 0xBF4ED772, 0x3F1148A2]
        );
        assert_eq!(
            [(); 4].map(|_| r.gen_range(0.0f64..1.0).to_bits()),
            [0x3FB8F7C41AB1FD48, 0x3FD08353E70A4322, 0x3FE1C2E152BCBB95, 0x3FE65C95B723797F]
        );
    }

    #[test]
    fn gen_bool_known_vector() {
        let mut r = Rng::seed_from_u64(13);
        let got = [(); 16].map(|_| r.gen_bool(0.25) as u8);
        assert_eq!(got, [1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1]);
    }

    #[test]
    fn shuffle_known_vector() {
        let mut r = Rng::seed_from_u64(14);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let want = [
            11, 41, 14, 9, 32, 33, 3, 30, 6, 12, 28, 5, 10, 22, 49, 16, 34, 29, 21, 38, 2, 18, 27,
            47, 24, 7, 13, 44, 43, 46, 17, 25, 19, 20, 8, 39, 1, 26, 0, 40, 23, 37, 48, 45, 15, 35,
            36, 31, 4, 42,
        ];
        assert_eq!(v, want);
    }

    #[test]
    fn property_case_seed_known_vector() {
        // The seed the property-test runner derives for case 3 of a test
        // named "t".
        let seed = fnv1a64(FNV_OFFSET, b"t") ^ 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut r = Rng::seed_from_u64(seed);
        assert_eq!(
            [(); 4].map(|_| r.next_u64()),
            [0x8CD7A410E4DA5EF3, 0xFC38030B0B5A3695, 0xCF2370539992E638, 0x763D4721D6DA1BCE]
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        let mut c = Rng::seed_from_u64(8);
        let xs = [(); 8].map(|_| a.next_u64());
        assert_eq!(xs, [(); 8].map(|_| b.next_u64()));
        assert_ne!(xs, [(); 8].map(|_| c.next_u64()));
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = Rng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.gen_f64()));
            assert!((0.0..1.0).contains(&r.gen_f32()));
        }
    }

    #[test]
    fn gen_range_bounds_hold() {
        let mut r = Rng::seed_from_u64(2);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let x = r.gen_range(3..=5);
            assert!((3..=5).contains(&x));
            seen_lo |= x == 3;
            seen_hi |= x == 5;
            let y = r.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&y));
            let z: usize = r.gen_range(0..7usize);
            assert!(z < 7);
        }
        assert!(seen_lo && seen_hi, "inclusive bounds never sampled");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = Rng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "p=0.25 hit {hits}/10000");
    }

    #[test]
    fn uniformity_rough_chi_square() {
        let mut r = Rng::seed_from_u64(4);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            buckets[r.gen_range(0..10usize)] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "bucket count {b} far from 1000");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(1);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements left in order after shuffle");
    }
}
