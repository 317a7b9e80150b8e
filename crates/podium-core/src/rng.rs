//! The workspace's one seeded random stream: Sebastiano Vigna's
//! `splitmix64`.
//!
//! One 64-bit state word, full-period, and trivially stable across
//! platforms — the properties every replayable stream in the workspace
//! needs: seeded tie-breaks and stochastic sampling in the engine, anneal
//! proposals, WAL checksums, chaos fault schedules, retry jitter, and the
//! simulator's per-process streams. Callers keep their own state word and
//! seed derivation, so every stream stays bit-identical to the private
//! copies this module replaced.

/// Advances `state` by the 64-bit golden ratio and returns the mixed
/// output word.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the top 53 bits of the next word.
pub fn unit_float(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
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
}
