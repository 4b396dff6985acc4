//! The benchmark's own generator. Inputs must be byte-identical per seed on
//! every commit, so nothing here may come from the workspace: a later "one
//! RNG" refactor of the program cannot move the parent's and the change's
//! inputs apart.

/// splitmix64 (Steele, Lea & Flood 2014).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one named purpose, so adding a consumer
    /// never shifts the values another consumer sees.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero. Multiply-shift, so the
    /// bias is below 2^-32 for every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * ((self.next_u64() >> 40) as f32 / (1u32 << 24) as f32)
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}
