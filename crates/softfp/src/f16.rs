//! The [`F16`] type: IEEE-754 binary16 implemented on top of integer bits.

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An IEEE-754 binary16 ("half precision") floating-point number.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 significand bits.
/// All conversions and arithmetic round to nearest, ties to even, exactly
/// as PuDianNao's 16-bit functional units do.
///
/// `F16` is a plain 16-bit value: `Copy`, two bytes, no heap. Arithmetic
/// operators are implemented by widening to `f32`, operating, and rounding
/// once back to binary16 — which is correctly rounded for `+ - * /`
/// (see the crate docs). NaNs are canonicalised to a single quiet NaN
/// pattern (`0x7E00`) so equality on bits stays predictable in tests.
///
/// # Examples
///
/// ```
/// use pudiannao_softfp::F16;
///
/// let x = F16::from_f32(0.1);
/// // 0.1 is not representable; the nearest binary16 is 0.0999755859375.
/// assert_eq!(x.to_f32(), 0.099_975_586);
/// assert_eq!(F16::from_bits(x.to_bits()), x);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct F16(u16);

const FRAC_BITS: u32 = 10;
const EXP_BIAS: i32 = 15;
const EXP_MASK: u16 = 0x7C00;
const FRAC_MASK: u16 = 0x03FF;
const SIGN_MASK: u16 = 0x8000;
const QNAN_BITS: u16 = 0x7E00;

/// The exact binary32 encoding of the binary16 value `bits` — the
/// integer-only core of the scalar widening conversion, `const` so the
/// lookup table below can be built at compile time.
const fn to_f32_bits(bits: u16) -> u32 {
    let sign = (bits as u32 >> 15) << 31;
    let exp = ((bits & EXP_MASK) >> FRAC_BITS) as i32;
    let frac = (bits & FRAC_MASK) as u32;

    if exp == 0x1F {
        // Inf or NaN; NaN payloads gain the binary32 quiet bit.
        let quiet = if frac != 0 { 1u32 << 22 } else { 0 };
        return sign | 0x7F80_0000 | (frac << 13) | quiet;
    }
    if exp == 0 {
        if frac == 0 {
            return sign;
        }
        // Subnormal: value is frac * 2^-24. Normalise the leading 1 of
        // `frac` (bit position p = 10 - lead) up to f32 bit 23.
        let lead = frac.leading_zeros() - 21; // zeros within the 11-bit window
        let exp32 = (113 - lead as i32) as u32;
        let frac32 = (frac << (lead + 13)) & 0x007F_FFFF;
        return sign | (exp32 << 23) | frac32;
    }
    let exp32 = (exp - EXP_BIAS + 127) as u32;
    sign | (exp32 << 23) | (frac << 13)
}

/// Every binary16 bit pattern widened to binary32, precomputed at compile
/// time: `to_f32` is a single indexed load. 256 KiB, touched densely by
/// every simulated 16-bit arithmetic op.
static TO_F32_LUT: [f32; 1 << 16] = {
    let mut table = [0.0f32; 1 << 16];
    let mut i = 0usize;
    while i < table.len() {
        table[i] = f32::from_bits(to_f32_bits(i as u16));
        i += 1;
    }
    table
};

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// Canonical quiet NaN.
    pub const NAN: F16 = F16(QNAN_BITS);
    /// Largest finite value, `65504.0`.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, `-65504.0`.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, `2^-24`.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// The difference between `1.0` and the next larger representable
    /// number, `2^-10`.
    pub const EPSILON: F16 = F16(0x1400);

    /// Reinterprets raw bits as an `F16`.
    ///
    /// ```
    /// use pudiannao_softfp::F16;
    /// assert_eq!(F16::from_bits(0x3C00), F16::ONE);
    /// ```
    #[inline]
    #[must_use]
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    #[must_use]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to binary16, rounding to nearest, ties to even.
    ///
    /// Values above the binary16 range become infinities; tiny values round
    /// into the subnormal range or to zero. NaN inputs become the canonical
    /// quiet NaN.
    ///
    /// This is the branch-reduced hot path: inputs whose result is a
    /// normal binary16 (the overwhelming majority of real data) take a
    /// single range test plus integer rounding; everything else falls back
    /// to [`F16::from_f32_scalar`], which the equivalence tests pin this
    /// function against bit-for-bit.
    #[inline]
    #[must_use]
    pub fn from_f32(value: f32) -> F16 {
        let bits = value.to_bits();
        let abs = bits & 0x7FFF_FFFF;
        // Fast path: |x| in [2^-14, 2^16), i.e. f32 exponents 113..=142.
        // The result is a normal binary16, or infinity when rounding a
        // value in [65520, 65536) carries out of the mantissa — the carry
        // propagates into the exponent field and lands exactly on 0x7C00.
        if abs.wrapping_sub(0x3880_0000) < 0x0F00_0000 {
            let sign = ((bits >> 16) & 0x8000) as u16;
            // Round to nearest even at bit 13: adding 0xFFF plus the
            // result's prospective LSB carries exactly when the remainder
            // exceeds the halfway point, or ties with an odd LSB.
            let rounded = abs + 0x0FFF + ((abs >> 13) & 1);
            return F16(sign | ((rounded >> 13) - (112 << FRAC_BITS)) as u16);
        }
        F16::from_f32_scalar(value)
    }

    /// The reference scalar conversion from `f32`: handles every input
    /// class (zero, subnormal, normal, overflow, infinity, NaN) with
    /// explicit branches. [`F16::from_f32`] routes its fast path around
    /// this; the exhaustive equivalence tests keep the two bit-identical.
    #[must_use]
    pub fn from_f32_scalar(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN.
            return if frac == 0 { F16(sign | EXP_MASK) } else { F16::NAN };
        }

        // Unbiased exponent of the f32 value.
        let unbiased = exp - 127;
        // Target biased exponent in binary16.
        let half_exp = unbiased + EXP_BIAS;

        if half_exp >= 0x1F {
            // Overflow to infinity.
            return F16(sign | EXP_MASK);
        }

        // Full 24-bit significand (with implicit leading 1 for normals).
        let mut mantissa = frac | if exp != 0 { 0x0080_0000 } else { 0 };

        if half_exp <= 0 {
            // Subnormal or zero in binary16. We need to shift the 24-bit
            // significand right by (14 - unbiased) extra bits, for a total
            // shift of 13 + (1 - half_exp).
            let shift = 14 - half_exp; // >= 14, base shift 13 + denorm
            if shift > 25 {
                // Rounds to zero regardless of sticky bits (magnitude
                // strictly below half of the smallest subnormal).
                return F16(sign);
            }
            let shift = shift as u32;
            let halfway = 1u32 << (shift - 1);
            let rem = mantissa & ((1u32 << shift) - 1);
            let mut out = (mantissa >> shift) as u16;
            if rem > halfway || (rem == halfway && (out & 1) == 1) {
                out += 1; // may carry into the exponent field: correct.
            }
            return F16(sign | out);
        }

        // Normal result: round the low 13 bits away.
        let rem = mantissa & 0x1FFF;
        mantissa >>= 13;
        let mut out = ((half_exp as u32) << FRAC_BITS | (mantissa & 0x3FF)) as u16;
        if rem > 0x1000 || (rem == 0x1000 && (out & 1) == 1) {
            out += 1; // carry propagates into exponent; 0x7C00 = inf: correct.
        }
        F16(sign | out)
    }

    /// Converts to `f32`. This conversion is exact: every binary16 value is
    /// representable in binary32.
    ///
    /// Implemented as one load from a 64 Ki-entry lookup table indexed by
    /// the raw bits — the hottest conversion in the simulator (every
    /// widening arithmetic op performs two). The table is built at compile
    /// time from [`F16::to_f32_scalar`], and an exhaustive all-65536-
    /// pattern test keeps the two bit-identical.
    #[inline]
    #[must_use]
    pub fn to_f32(self) -> f32 {
        TO_F32_LUT[self.0 as usize]
    }

    /// The reference scalar widening conversion (no lookup table).
    /// [`F16::to_f32`] is a table lookup precomputed from this function;
    /// the exhaustive equivalence tests keep the two bit-identical.
    #[must_use]
    pub fn to_f32_scalar(self) -> f32 {
        f32::from_bits(to_f32_bits(self.0))
    }

    /// Converts from `f64`, rounding once to binary16.
    ///
    /// Double rounding through `f32` is avoided by converting through
    /// [`F16::from_f32`] only when exact; otherwise the significand is
    /// rounded directly from the `f64` bits.
    #[must_use]
    pub fn from_f64(value: f64) -> F16 {
        // f64 -> f16: p2 = 53 >= 2 * 11 + 2, so rounding f64 -> f32 -> f16
        // is NOT generally safe. Round directly from the f64 encoding by
        // going through a single-rounded f32 only when the f32 conversion
        // is exact; otherwise nudge the sticky bit.
        let as_f32 = value as f32;
        if f64::from(as_f32) == value || !value.is_finite() {
            return F16::from_f32(as_f32);
        }
        // Inexact f64 -> f32 step: reconstruct sticky information. The only
        // hazard is a value exactly halfway between two binary16 numbers
        // after the first rounding. Compare against the two binary16
        // neighbours of `as_f32` in f64 and pick the nearer (ties to even).
        let a = F16::from_f32(as_f32);
        let candidates = [a.prev(), a, a.next()];
        let mut best = a;
        let mut best_err = f64::INFINITY;
        for c in candidates {
            if c.is_nan() {
                continue;
            }
            let err = (f64::from(c.to_f32()) - value).abs();
            if err < best_err || (err == best_err && (c.to_bits() & 1) < (best.to_bits() & 1)) {
                best = c;
                best_err = err;
            }
        }
        best
    }

    /// The next representable value toward `+inf` (saturating at infinity).
    #[must_use]
    pub fn next(self) -> F16 {
        if self.is_nan() || self == F16::INFINITY {
            return self;
        }
        if self.0 == SIGN_MASK || self.0 == 0 {
            return F16(0x0001);
        }
        if self.0 & SIGN_MASK == 0 {
            F16(self.0 + 1)
        } else {
            F16(self.0 - 1)
        }
    }

    /// The next representable value toward `-inf` (saturating at -infinity).
    #[must_use]
    pub fn prev(self) -> F16 {
        if self.is_nan() || self == F16::NEG_INFINITY {
            return self;
        }
        if self.0 == 0 || self.0 == SIGN_MASK {
            return F16(0x8001);
        }
        if self.0 & SIGN_MASK == 0 {
            F16(self.0 - 1)
        } else {
            F16(self.0 + 1)
        }
    }

    /// Returns `true` if this value is NaN.
    #[inline]
    #[must_use]
    pub const fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & FRAC_MASK) != 0
    }

    /// Returns `true` for positive or negative infinity.
    #[inline]
    #[must_use]
    pub const fn is_infinite(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & FRAC_MASK) == 0
    }

    /// Returns `true` for any value that is neither infinite nor NaN.
    #[inline]
    #[must_use]
    pub const fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// Returns `true` for subnormal values (tiny but non-zero).
    #[inline]
    #[must_use]
    pub const fn is_subnormal(self) -> bool {
        (self.0 & EXP_MASK) == 0 && (self.0 & FRAC_MASK) != 0
    }

    /// Returns `true` for `+0.0` and `-0.0`.
    #[inline]
    #[must_use]
    pub const fn is_zero(self) -> bool {
        (self.0 & !SIGN_MASK) == 0
    }

    /// Returns `true` if the sign bit is set (including `-0.0` and NaNs
    /// with the sign bit set).
    #[inline]
    #[must_use]
    pub const fn is_sign_negative(self) -> bool {
        (self.0 & SIGN_MASK) != 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    #[must_use]
    pub const fn abs(self) -> F16 {
        F16(self.0 & !SIGN_MASK)
    }

    /// Correctly rounded square root (via the exact f32 path).
    #[must_use]
    pub fn sqrt(self) -> F16 {
        F16::from_f32(self.to_f32().sqrt())
    }

    /// The larger of two values; NaN loses against any number.
    #[must_use]
    pub fn max(self, other: F16) -> F16 {
        F16::from_f32(self.to_f32().max(other.to_f32()))
    }

    /// The smaller of two values; NaN loses against any number.
    #[must_use]
    pub fn min(self, other: F16) -> F16 {
        F16::from_f32(self.to_f32().min(other.to_f32()))
    }

    /// Total number of distinct finite, non-NaN bit patterns.
    /// Useful for exhaustive tests.
    pub const FINITE_PATTERNS: u32 = 2 * (0x7C00);

    fn canonicalize(self) -> F16 {
        if self.is_nan() {
            F16::NAN
        } else {
            self
        }
    }
}

/// The canonical quiet NaN widened to `f32`.
const QNAN_F32: f32 = f32::from_bits(to_f32_bits(QNAN_BITS));

/// Rounds `x` to binary16, ties to even, and returns the result widened
/// back to `f32`: bit for bit `F16::from_f32(x).to_f32()`, with no table
/// and no branch, so a loop over lanes vectorises.
///
/// The FPU does the rounding. Adding `c = 2^(e + 13)`, where `2^e` is
/// the binade of `|x|` (floored at the subnormal binade `2^-14`), lands
/// the sum in `c`'s binade, whose binary32 ulp `2^(e - 10)` is binary16's
/// ulp at `x`; the addition therefore rounds `|x|` to nearest-even on
/// binary16's grid, and subtracting `c` back is exact. Selects then map
/// `|x| >= 65520` (which rounds past `65504`) to infinity and any NaN to
/// the canonical quiet NaN, and give the result (zeros included) the sign
/// of `x`.
///
/// It pays off where many independent values round at once. A serial
/// chain, where each rounding feeds the next, is bound by latency and
/// gains nothing over [`F16::from_f32`] / [`F16::to_f32`].
///
/// ```
/// use pudiannao_softfp::{quantize, F16};
///
/// assert_eq!(quantize(0.1), F16::from_f32(0.1).to_f32());
/// assert_eq!(quantize(65520.0), f32::INFINITY);
/// assert_eq!(quantize(-1e-9).to_bits(), (-0.0f32).to_bits());
/// ```
#[inline]
#[must_use]
pub fn quantize(x: f32) -> f32 {
    let a = x.abs();
    // 2^13 times the binade of `a`; biased exponent 113 is 2^-14. For
    // |x| >= 2^16 the constant is meaningless, but the select replaces it.
    let c = f32::from_bits((a.to_bits() & 0x7F80_0000).max(113 << 23) + (13 << 23));
    let rounded = (a + c) - c;
    let rounded = if a >= 65520.0 { f32::INFINITY } else { rounded };
    if x.is_nan() {
        QNAN_F32
    } else {
        rounded.copysign(x)
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({} /*0x{:04X}*/)", self.to_f32(), self.0)
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl From<F16> for f32 {
    fn from(x: F16) -> f32 {
        x.to_f32()
    }
}

impl From<F16> for f64 {
    fn from(x: F16) -> f64 {
        f64::from(x.to_f32())
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> F16 {
        F16::from_f32(x)
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            #[inline]
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32()).canonicalize()
            }
        }
        impl $assign_trait for F16 {
            #[inline]
            fn $assign_method(&mut self, rhs: F16) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign, +);
impl_binop!(Sub, sub, SubAssign, sub_assign, -);
impl_binop!(Mul, mul, MulAssign, mul_assign, *);
impl_binop!(Div, div, DivAssign, div_assign, /);

impl Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

impl core::iter::Sum for F16 {
    fn sum<I: Iterator<Item = F16>>(iter: I) -> F16 {
        iter.fold(F16::ZERO, |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_round_trip() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 6.103_515_6e-5);
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 5.960_464_5e-8);
        assert_eq!(F16::EPSILON.to_f32(), 9.765_625e-4);
    }

    #[test]
    fn zero_signs() {
        assert!(F16::ZERO.is_zero());
        assert!(F16::NEG_ZERO.is_zero());
        assert!(F16::NEG_ZERO.is_sign_negative());
        assert_eq!(F16::ZERO, -F16::NEG_ZERO);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY);
        assert_eq!(F16::from_f32(-65520.0), F16::NEG_INFINITY);
        assert_eq!(F16::from_f32(1e9), F16::INFINITY);
        // 65519.99 rounds down to MAX.
        assert_eq!(F16::from_f32(65519.0), F16::MAX);
    }

    #[test]
    fn underflow_to_zero_and_subnormals() {
        // Below half of the smallest subnormal -> 0.
        assert_eq!(F16::from_f32(1e-9), F16::ZERO);
        assert_eq!(F16::from_f32(-1e-9), F16::NEG_ZERO);
        // Smallest subnormal is 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_bits(), 0x0001);
        // Exactly half of it rounds to even -> zero.
        assert_eq!(F16::from_f32(tiny / 2.0), F16::ZERO);
        // 3/4 of it rounds up.
        assert_eq!(F16::from_f32(tiny * 0.75).to_bits(), 0x0001);
        // 1.5x smallest subnormal: tie, rounds to even (0x0002).
        assert_eq!(F16::from_f32(tiny * 1.5).to_bits(), 0x0002);
    }

    #[test]
    fn ties_round_to_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10:
        // rounds to even -> 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway), F16::ONE);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9:
        // rounds to even -> 1 + 2^-9 (low bit even).
        let halfway2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway2).to_bits(), 0x3C02);
    }

    #[test]
    fn nan_behaviour() {
        assert!(F16::NAN.is_nan());
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert_eq!(F16::from_f32(f32::NAN).to_bits(), 0x7E00);
        assert!((F16::NAN + F16::ONE).is_nan());
        assert!((F16::INFINITY - F16::INFINITY).is_nan());
        assert!(F16::NAN.to_f32().is_nan());
        assert!(F16::NAN.partial_cmp(&F16::ONE).is_none());
    }

    #[test]
    fn exact_round_trip_through_f32() {
        // Every finite binary16 converts to f32 and back unchanged.
        for bits in 0..=u16::MAX {
            let x = F16::from_bits(bits);
            if x.is_nan() {
                assert!(F16::from_f32(x.to_f32()).is_nan());
            } else {
                assert_eq!(F16::from_f32(x.to_f32()).to_bits(), bits, "bits 0x{bits:04X}");
            }
        }
    }

    #[test]
    fn arithmetic_basics() {
        let a = F16::from_f32(2.5);
        let b = F16::from_f32(0.5);
        assert_eq!((a + b).to_f32(), 3.0);
        assert_eq!((a - b).to_f32(), 2.0);
        assert_eq!((a * b).to_f32(), 1.25);
        assert_eq!((a / b).to_f32(), 5.0);
        assert_eq!((-a).to_f32(), -2.5);
        let mut c = a;
        c += b;
        assert_eq!(c.to_f32(), 3.0);
    }

    #[test]
    fn precision_limit_visible() {
        // 2048 + 1 is not representable: 2048 has ulp 2 in binary16.
        let big = F16::from_f32(2048.0);
        assert_eq!((big + F16::ONE).to_f32(), 2048.0);
        // but 2048 + 2 is.
        assert_eq!((big + F16::from_f32(2.0)).to_f32(), 2050.0);
    }

    #[test]
    fn next_prev_walk() {
        assert_eq!(F16::ZERO.next().to_bits(), 0x0001);
        assert_eq!(F16::ZERO.prev().to_bits(), 0x8001);
        assert_eq!(F16::MAX.next(), F16::INFINITY);
        assert_eq!(F16::ONE.next().prev(), F16::ONE);
        assert_eq!(F16::NEG_ONE.prev().next(), F16::NEG_ONE);
    }

    #[test]
    fn from_f64_correct_rounding() {
        // A value whose f64->f32->f16 double rounding would go wrong:
        // pick x just above a binary16 midpoint but rounding to the
        // midpoint in f32 first.
        let one_ulp = 2.0f64.powi(-10);
        let midpoint = 1.0 + one_ulp / 2.0;
        let just_above = midpoint + 2.0f64.powi(-40);
        // Correct binary16 rounding takes just_above up to 1 + 2^-10.
        assert_eq!(F16::from_f64(just_above).to_bits(), 0x3C01);
        // The midpoint itself ties to even -> 1.0.
        assert_eq!(F16::from_f64(midpoint), F16::ONE);
        assert_eq!(F16::from_f64(f64::INFINITY), F16::INFINITY);
        assert!(F16::from_f64(f64::NAN).is_nan());
    }

    #[test]
    fn ordering_and_display() {
        assert!(F16::ONE < F16::from_f32(1.5));
        assert!(F16::NEG_INFINITY < F16::MIN);
        assert_eq!(format!("{}", F16::from_f32(2.5)), "2.5");
        assert!(format!("{:?}", F16::ONE).contains("0x3C00"));
    }

    #[test]
    fn sum_and_minmax() {
        let xs = [1.0f32, 2.0, 3.0, 4.0].map(F16::from_f32);
        let s: F16 = xs.into_iter().sum();
        assert_eq!(s.to_f32(), 10.0);
        assert_eq!(xs[0].max(xs[3]).to_f32(), 4.0);
        assert_eq!(xs[0].min(xs[3]).to_f32(), 1.0);
        assert_eq!(F16::NAN.max(F16::ONE), F16::ONE);
    }
}
