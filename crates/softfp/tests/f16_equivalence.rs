//! Equivalence proofs for the fast binary16 conversion paths.
//!
//! `F16::to_f32` is a 64 Ki-entry lookup table, `F16::from_f32` is a
//! branch-reduced integer rounder and `quantize` rounds on the FPU; all
//! must be *bit-identical* to the scalar reference implementations
//! (`to_f32_scalar`, `from_f32_scalar`) on every input. These are named unit tests (not proptest) so a failure
//! points at the exact input class that regressed.

use pudiannao_softfp::{batch, quantize, F16};

/// Every one of the 2^16 bit patterns widens identically through the LUT
/// and the scalar path — including NaN payloads, compared on bits.
#[test]
fn lut_to_f32_matches_scalar_for_all_65536_patterns() {
    for bits in 0..=u16::MAX {
        let x = F16::from_bits(bits);
        assert_eq!(
            x.to_f32().to_bits(),
            x.to_f32_scalar().to_bits(),
            "to_f32 LUT diverges from scalar at 0x{bits:04X}"
        );
    }
}

/// Every finite binary16 value round-trips f16 -> f32 -> f16 unchanged;
/// NaNs canonicalise to the quiet pattern.
#[test]
fn round_trip_all_65536_patterns() {
    for bits in 0..=u16::MAX {
        let x = F16::from_bits(bits);
        if x.is_nan() {
            assert_eq!(F16::from_f32(x.to_f32()).to_bits(), F16::NAN.to_bits());
        } else {
            assert_eq!(F16::from_f32(x.to_f32()).to_bits(), bits, "bits 0x{bits:04X}");
        }
    }
}

/// Checks both fast roundings of `bits` against the scalar reference:
/// `F16::from_f32` on binary16 bits, and `quantize` on the widened `f32`
/// bits (so NaNs compare by payload and zeros by sign).
fn assert_from_f32_matches(bits: u32) {
    let x = f32::from_bits(bits);
    let want = F16::from_f32_scalar(x);
    assert_eq!(
        F16::from_f32(x).to_bits(),
        want.to_bits(),
        "from_f32 fast path diverges from scalar at f32 bits 0x{bits:08X} ({x})"
    );
    assert_eq!(
        quantize(x).to_bits(),
        want.to_f32_scalar().to_bits(),
        "quantize diverges from scalar at f32 bits 0x{bits:08X} ({x})"
    );
}

/// Dense deterministic f32 sweep: every exponent (both signs) crossed
/// with mantissa patterns that exercise the 13 rounded-away bits — all
/// low-bit patterns, all halfway/sticky combinations, and the extremes.
/// ~5.8M conversions, covering subnormal results, ties, and overflow.
#[test]
fn from_f32_matches_scalar_on_dense_sweep() {
    for sign in [0u32, 0x8000_0000] {
        for exp in 0..=0xFFu32 {
            let base = sign | (exp << 23);
            // All 2^13 patterns of the bits rounding falls on, against
            // mantissa high bits 0, to hit every remainder exactly.
            for low in 0..0x2000u32 {
                assert_from_f32_matches(base | low);
            }
            // March a coarse grid across the full 23-bit mantissa so the
            // kept bits (and carries out of them) are exercised too.
            for hi in (0..0x0080_0000u32).step_by(0x1FFF) {
                assert_from_f32_matches(base | hi);
            }
            // The boundaries of the mantissa range.
            assert_from_f32_matches(base | 0x007F_FFFF);
            assert_from_f32_matches(base | 0x0040_0000);
        }
    }
}

/// The exact bit neighbourhood of every interesting threshold: the
/// subnormal/normal boundary, the overflow boundary, and the smallest
/// magnitude that still rounds away from zero.
#[test]
fn from_f32_matches_scalar_around_thresholds() {
    let thresholds: [f32; 6] = [
        2.0f32.powi(-14), // smallest normal binary16
        2.0f32.powi(-24), // smallest subnormal binary16
        2.0f32.powi(-25), // half of it: ties to zero
        65504.0,          // largest finite binary16
        65520.0,          // ties to infinity
        65536.0,          // 2^16: always infinity
    ];
    for t in thresholds {
        let b = t.to_bits();
        for delta in -260i32..=260 {
            let bits = (b as i64 + i64::from(delta)) as u32;
            assert_from_f32_matches(bits);
            assert_from_f32_matches(bits | 0x8000_0000);
        }
    }
}

/// Named tie cases: exactly halfway values must round to the even
/// neighbour in both directions.
#[test]
fn from_f32_ties_round_to_even() {
    // 1 + 2^-11 is halfway between 1.0 and 1 + 2^-10 -> even (1.0).
    assert_eq!(F16::from_f32(1.0 + 2.0f32.powi(-11)).to_bits(), 0x3C00);
    // 1 + 3 * 2^-11 is halfway between 0x3C01 and 0x3C02 -> even (0x3C02).
    assert_eq!(F16::from_f32(1.0 + 3.0 * 2.0f32.powi(-11)).to_bits(), 0x3C02);
    // Subnormal tie: 1.5 * 2^-24 is halfway between 0x0001 and 0x0002
    // -> even (0x0002); 0.5 * 2^-24 ties down to zero.
    assert_eq!(F16::from_f32(1.5 * 2.0f32.powi(-24)).to_bits(), 0x0002);
    assert_eq!(F16::from_f32(2.0f32.powi(-25)).to_bits(), 0x0000);
    // Just above a tie rounds up regardless of parity.
    assert_eq!(
        F16::from_f32(f32::from_bits((1.0f32 + 2.0f32.powi(-11)).to_bits() + 1)).to_bits(),
        0x3C01
    );
}

/// Named subnormal cases: the fast path must hand these to the scalar
/// path, which shifts and rounds into the 10-bit subnormal field.
#[test]
fn from_f32_subnormal_edges() {
    let tiny = 2.0f32.powi(-24);
    assert_eq!(F16::from_f32(tiny).to_bits(), 0x0001);
    assert_eq!(F16::from_f32(tiny * 0.75).to_bits(), 0x0001);
    assert_eq!(F16::from_f32(-tiny).to_bits(), 0x8001);
    // Largest subnormal and the value that rounds up to MIN_POSITIVE.
    assert_eq!(F16::from_f32(2.0f32.powi(-14) - 2.0f32.powi(-24)).to_bits(), 0x03FF);
    let just_below_normal = f32::from_bits(2.0f32.powi(-14).to_bits() - 1);
    assert_eq!(F16::from_f32(just_below_normal).to_bits(), 0x0400);
    // Below half the smallest subnormal: zero with the sign preserved.
    assert_eq!(F16::from_f32(1e-9).to_bits(), 0x0000);
    assert_eq!(F16::from_f32(-1e-9).to_bits(), 0x8000);
}

/// Named overflow cases: the carry out of the fast path's rounding must
/// land exactly on the infinity encoding, never beyond it.
#[test]
fn from_f32_overflow_edges() {
    assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF); // MAX exactly
    assert_eq!(F16::from_f32(65519.0).to_bits(), 0x7BFF); // below the tie
    let just_below_tie = f32::from_bits(65520.0f32.to_bits() - 1);
    assert_eq!(F16::from_f32(just_below_tie).to_bits(), 0x7BFF);
    assert_eq!(F16::from_f32(65520.0).to_bits(), 0x7C00); // tie -> inf
    assert_eq!(F16::from_f32(-65520.0).to_bits(), 0xFC00);
    assert_eq!(F16::from_f32(1e9).to_bits(), 0x7C00);
    assert_eq!(F16::from_f32(f32::INFINITY).to_bits(), 0x7C00);
    assert_eq!(F16::from_f32(f32::NAN).to_bits(), 0x7E00);
}

/// Named special values for `quantize`: signed zeros keep their sign,
/// every NaN (the sign bit set included) becomes the positive canonical
/// quiet NaN, infinities pass through, and the overflow tie goes to
/// infinity of the input's sign.
#[test]
fn quantize_special_values() {
    let canonical_nan = F16::NAN.to_f32_scalar().to_bits();
    assert_eq!(canonical_nan, 0x7FC0_0000);
    let cases: [(u32, u32); 8] = [
        ((-0.0f32).to_bits(), 0x8000_0000),
        (0.0f32.to_bits(), 0x0000_0000),
        (0xFFC0_0001, canonical_nan), // negative NaN with a payload
        (0x7F80_0001, canonical_nan), // signalling NaN
        (f32::INFINITY.to_bits(), f32::INFINITY.to_bits()),
        (f32::NEG_INFINITY.to_bits(), f32::NEG_INFINITY.to_bits()),
        (65520.0f32.to_bits(), f32::INFINITY.to_bits()),
        ((-65520.0f32).to_bits(), f32::NEG_INFINITY.to_bits()),
    ];
    for (input, want) in cases {
        let x = f32::from_bits(input);
        assert_eq!(quantize(x).to_bits(), want, "quantize(0x{input:08X})");
        assert_from_f32_matches(input);
    }
}

/// The batch slice APIs agree elementwise with the scalar conversions on
/// a sweep covering every input class.
#[test]
fn batch_apis_match_scalar_elementwise() {
    let inputs: Vec<f32> = (0..=u16::MAX)
        .step_by(7)
        .map(|b| F16::from_bits(b).to_f32() * 1.001 + 3e-9)
        .chain([0.0, -0.0, f32::NAN, f32::INFINITY, 65520.0, 2.0f32.powi(-25)])
        .collect();
    let mut quantized = inputs.clone();
    batch::quantize_f32_slice(&mut quantized);
    let mut bits = vec![0u16; inputs.len()];
    batch::narrow_f32_slice(&inputs, &mut bits);
    let mut widened = vec![0.0f32; inputs.len()];
    batch::widen_f16_slice(&bits, &mut widened);
    let mut into = vec![0.0f32; inputs.len()];
    batch::quantize_f32_into(&inputs, &mut into);
    for (i, &x) in inputs.iter().enumerate() {
        let want16 = F16::from_f32_scalar(x);
        assert_eq!(bits[i], want16.to_bits(), "narrow at {x}");
        let want32 = want16.to_f32_scalar().to_bits();
        assert_eq!(quantized[i].to_bits(), want32, "quantize at {x}");
        assert_eq!(widened[i].to_bits(), want32, "widen at {x}");
        assert_eq!(into[i].to_bits(), want32, "quantize_into at {x}");
    }
}
