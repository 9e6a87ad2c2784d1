//! Way-parallel set probe: a SWAR match over a packed tag signature.
//!
//! # Packed signature
//!
//! For every set with `ways <= 8` the cache maintains one `u64` signature
//! word, one byte per way:
//!
//! ```text
//! byte w = 0x80 | (tag_w & 0x7f)   when way w is valid
//!        = 0x00                    when way w is invalid / unused
//! ```
//!
//! A probe broadcasts its own signature byte to all eight lanes and XORs
//! against the set word; candidate ways are the zero bytes, found with
//! the classic haszero bit-trick. Because the probe byte always carries
//! `0x80`, invalid ways (byte `0x00`) can never match, and for `ways < 8`
//! the unused high lanes are likewise `0x00` — so every candidate lane is
//! a *valid in-range way*. The 7 tag bits give a 1/128 false-candidate
//! rate; candidates are confirmed against the full 64-bit tag array, so a
//! collision costs one extra compare and never wrong results.
//!
//! The haszero expression `(x - 0x01..01) & !x & 0x80..80` can mark a
//! byte *above* a true zero byte through borrow propagation (a false
//! positive), but never misses a zero byte and never marks a byte whose
//! high bit is set in `x` — the two properties the correctness argument
//! above relies on.

/// Lane-replication constant: `b * LANES` broadcasts byte `b`.
const LANES: u64 = 0x0101_0101_0101_0101;
/// High bit of every byte lane.
const HIGH: u64 = 0x8080_8080_8080_8080;

/// The signature byte for a valid line with this tag.
#[inline]
pub(crate) fn sig_byte(tag: u64) -> u64 {
    0x80 | (tag & 0x7f)
}

/// SWAR hit probe: returns the matching way, or `usize::MAX` on a miss.
/// `tags` is the set's way-packed tag slice (`len == ways <= 8`).
#[inline]
pub(crate) fn swar_hit(sig: u64, tags: &[u64], tag: u64) -> usize {
    let x = sig ^ (sig_byte(tag) * LANES);
    let mut cand = x.wrapping_sub(LANES) & !x & HIGH;
    while cand != 0 {
        // Candidate lanes are always in-range valid ways (module docs),
        // so this index cannot go past `ways`.
        let w = (cand.trailing_zeros() >> 3) as usize;
        if tags[w] == tag {
            return w;
        }
        cand &= cand - 1;
    }
    usize::MAX
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swar_finds_every_way_and_rejects_collisions() {
        for ways in 1..=8usize {
            let tags: Vec<u64> = (0..ways as u64).map(|w| 0x1000 + w * 128).collect();
            let mut sig = 0u64;
            for (w, &t) in tags.iter().enumerate() {
                sig |= sig_byte(t) << (8 * w);
            }
            for (w, &t) in tags.iter().enumerate() {
                assert_eq!(swar_hit(sig, &tags, t), w, "ways={ways} way={w}");
            }
            // Same low 7 bits as way 0's tag, different full tag: the
            // candidate must be rejected by the full-tag confirm.
            assert_eq!(swar_hit(sig, &tags, 0x1000 + 0x8000), usize::MAX);
            assert_eq!(swar_hit(sig, &tags, 0xdead_beef), usize::MAX);
        }
    }

    #[test]
    fn swar_never_matches_invalid_ways() {
        // All-invalid set: signature 0. Probing any tag — including tag 0,
        // whose stale array value an invalid way still holds — must miss.
        let tags = [0u64; 8];
        assert_eq!(swar_hit(0, &tags, 0), usize::MAX);
        assert_eq!(swar_hit(0, &tags, 0x80), usize::MAX);
    }
}
