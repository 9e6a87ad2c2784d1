//! Batch binary16 conversions over slices.
//!
//! The simulator's hottest loops convert whole rows at a time: DMA fills
//! into the 16-bit HotBuf/ColdBuf quantise every element, and the
//! precision-study kernels round entire feature vectors. These helpers
//! fuse the narrow-then-widen round trip into one pass per slice so the
//! callers never loop over scalars themselves (and the compiler sees one
//! tight, unrollable loop). All of them round exactly like
//! [`F16::from_f32`] / [`F16::to_f32`] — the equivalence tests pin each
//! batch function to its scalar counterpart elementwise. The two
//! quantisers round through [`quantize`], which needs no table lookup and
//! vectorises.

use crate::{quantize, F16};

/// Rounds every element through binary16 in place: `x = to_f32(from_f32(x))`.
///
/// This is the "value as the 16-bit SRAM would hold it" operation applied
/// to a whole row.
pub fn quantize_f32_slice(values: &mut [f32]) {
    for v in values {
        *v = quantize(*v);
    }
}

/// Rounds `src` through binary16 into `dst` in a single fused pass.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn quantize_f32_into(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "quantize_f32_into needs equal lengths");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = quantize(s);
    }
}

/// Narrows every `f32` to binary16 bits (`&[f32]` -> `&mut [u16]`),
/// rounding to nearest, ties to even.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn narrow_f32_slice(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "narrow_f32_slice needs equal lengths");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = F16::from_f32(s).to_bits();
    }
}

/// Widens binary16 bits to `f32` (`&[u16]` -> `&mut [f32]`); exact.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn widen_f16_slice(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "widen_f16_slice needs equal lengths");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = F16::from_bits(s).to_f32();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_in_place_matches_scalar() {
        let mut xs = [0.1f32, -2.5, 70000.0, 1e-9, f32::NAN];
        let expect: Vec<f32> = xs.iter().map(|&x| F16::from_f32(x).to_f32()).collect();
        quantize_f32_slice(&mut xs);
        for (got, want) in xs.iter().zip(&expect) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn quantize_into_matches_in_place() {
        let src = [0.3f32, 1.5, -0.0, 65504.0];
        let mut dst = [0.0f32; 4];
        quantize_f32_into(&src, &mut dst);
        let mut inplace = src;
        quantize_f32_slice(&mut inplace);
        assert_eq!(dst.map(f32::to_bits), inplace.map(f32::to_bits));
    }

    #[test]
    fn narrow_then_widen_round_trips() {
        let src = [0.25f32, -1.0, 3.75, 0.099_975_586];
        let mut bits = [0u16; 4];
        narrow_f32_slice(&src, &mut bits);
        let mut back = [0.0f32; 4];
        widen_f16_slice(&bits, &mut back);
        // All inputs are exactly representable in binary16.
        assert_eq!(src, back);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_lengths_panic() {
        quantize_f32_into(&[1.0], &mut [0.0, 0.0]);
    }
}
