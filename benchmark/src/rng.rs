//! The benchmark's one source of randomness: a splitmix64 stream, so the
//! inputs are a pure function of `--seed` on every platform.

/// A seeded splitmix64 generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`. Distinct `salt`s give independent streams from
    /// one seed (one per input kind), so adding a draw to one input never
    /// shifts another.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no value to return");
        // The modulo bias is below 2^-40 for every n this benchmark uses.
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform value in the open interval `(0, 1)`.
    pub fn open_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// FNV-1a over everything the program receives, printed as
/// `input_digest` so equal seeds can be shown to give equal inputs.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_salt() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::new(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn open_unit_stays_inside_the_interval() {
        let mut r = Rng::new(3, 0);
        for _ in 0..10_000 {
            let x = r.open_unit();
            assert!(x > 0.0 && x < 1.0);
        }
    }
}
