//! Helpers shared by the integration tests.

/// FNV-1a 64 over the bit patterns of `words`. The accelerator-vs-software
/// tests compare to a tolerance, which a 1-ulp rounding drift would pass;
/// asserting this hash of the output words pins them bit for bit.
pub fn fnv1a(words: &[f32]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}
