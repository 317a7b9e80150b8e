//! The workspace's one seeded random stream: Sebastiano Vigna's
//! `splitmix64`.
//!
//! One 64-bit state word, full-period, and trivially stable across
//! platforms — the properties every replayable stream in the workspace
//! needs. [`Rng`] is the stream type: the synthetic datasets, the seeded
//! baselines, stochastic sampling, the fault injector, the bootstrap and
//! the simulator's per-process streams all draw from it, through its one
//! bounded draw ([`Rng::below`]) and its one distinct sampler
//! ([`Rng::shuffle_prefix`]). Call sites that keep a raw state word (WAL
//! checksums, anneal proposals, chaos fault schedules, retry jitter and
//! the seeded tie-break) call the [`splitmix64`] and [`unit_float`]
//! kernel directly, so each of those streams stays bit-identical to the
//! private copy this module replaced.

/// splitmix64's additive constant (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Advances `state` by the 64-bit golden ratio and returns the mixed
/// output word.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the top 53 bits of the next word.
pub fn unit_float(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A stream seeded directly from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// A child stream keyed by `stream`: independent per key, stable
    /// across runs. The parent is not advanced.
    pub fn derive(&self, stream: u64) -> Self {
        // Mix the key through one splitmix round so adjacent keys land
        // far apart in the parent's sequence space.
        let mut s = self.state ^ stream.wrapping_mul(GOLDEN);
        Self::new(splitmix64(&mut s))
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// A uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        unit_float(&mut self.state)
    }

    /// A draw in `[0, n)` by `next_u64() % n` (the bias is below
    /// `n / 2^64`); returns 0 when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        // Both conversions are lossless on 64-bit targets.
        let draw = self.next_u64() % u64::try_from(n).unwrap_or(u64::MAX);
        usize::try_from(draw).unwrap_or(0)
    }

    /// Moves a uniform sample of `k` distinct elements of `items` to its
    /// front, in selection order (a partial Fisher–Yates shuffle: for each
    /// `i < k`, swap `i` with `i + below(len − i)`). `k` is clamped to the
    /// length. A caller that means a set sorts the prefix itself.
    pub fn shuffle_prefix<T>(&mut self, items: &mut [T], k: usize) {
        let len = items.len();
        for i in 0..k.min(len) {
            let j = i + self.below(len - i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference outputs for seed 1234567 (Vigna's test vectors).
        let mut s = 1234567u64;
        assert_eq!(splitmix64(&mut s), 6457827717110365317);
        assert_eq!(splitmix64(&mut s), 3203168211198807973);
        assert_eq!(splitmix64(&mut s), 9817491932198370423);
    }

    #[test]
    fn stream_outputs_are_pinned() {
        // Recorded from the simulator's stream type and the fault
        // injector's distinct sampler before both moved onto `Rng`: the
        // simulator's traces and the injector's corruptions depend on
        // every one of these draws.
        let mut r = Rng::new(701).derive(3);
        assert_eq!(r.next_u64(), 0x8ad4_7334_9fff_e7a0);
        assert_eq!(r.below(1000), 972);
        assert_eq!(r.unit().to_bits(), 0x3fe6_d2fd_b1e8_80c1);
        let mut pool: Vec<usize> = (0..10).collect();
        r.shuffle_prefix(&mut pool, 4);
        assert_eq!(pool[..4], [2, 0, 7, 8]);
        assert_eq!(r.below(0), 0);
        // `FaultInjector::new(701)` seeds with `701 ^ GOLDEN`.
        let mut f = Rng::new(701 ^ GOLDEN);
        let mut records: Vec<usize> = (1..12).collect();
        f.shuffle_prefix(&mut records, 5);
        assert_eq!(records[..5], [11, 10, 9, 4, 3]);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn derived_streams_are_independent() {
        let root = Rng::new(42);
        let mut a = root.derive(1);
        let mut b = root.derive(2);
        assert_ne!(a.next_u64(), b.next_u64());
        // Deriving does not advance the parent.
        let mut c = root.derive(1);
        let mut d = root.derive(1);
        assert_eq!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn unit_is_in_range() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn below_is_in_range() {
        let mut r = Rng::new(3);
        for n in 1..1000 {
            assert!(r.below(n) < n);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn shuffle_prefix_permutes_and_clamps() {
        let mut r = Rng::new(7);
        for _ in 0..100 {
            let mut items: Vec<usize> = (0..10).collect();
            r.shuffle_prefix(&mut items, 4);
            let mut sorted = items.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..10).collect::<Vec<_>>(), "a permutation");
        }
        let mut short = [1, 2, 3];
        r.shuffle_prefix(&mut short, 10);
        short.sort_unstable();
        assert_eq!(short, [1, 2, 3], "k clamped to the length");
    }
}
