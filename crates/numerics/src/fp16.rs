//! Bit-accurate software IEEE 754 binary16 ("half precision").
//!
//! The HAAN accelerator accepts inputs and produces outputs in FP16 or FP32
//! (Section IV of the paper). The host simulation works in `f32`, so [`Fp16`]
//! provides the rounding behaviour an FP16 interface would introduce: values are
//! stored as the 16-bit pattern and converted with round-to-nearest-even.

use std::fmt;

/// An IEEE 754 binary16 value stored as its bit pattern.
///
/// # Example
///
/// ```
/// use haan_numerics::Fp16;
/// let x = Fp16::from_f32(1.0 / 3.0);
/// // Half precision has ~3 decimal digits.
/// assert!((x.to_f32() - 1.0 / 3.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fp16(u16);

const MAN_BITS: u32 = 10;
const EXP_BIAS: i32 = 15;

impl Fp16 {
    /// Positive zero.
    pub const ZERO: Fp16 = Fp16(0);
    /// One.
    pub const ONE: Fp16 = Fp16(0x3C00);
    /// Largest finite value (65504).
    pub const MAX: Fp16 = Fp16(0x7BFF);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: Fp16 = Fp16(0x0400);
    /// Positive infinity.
    pub const INFINITY: Fp16 = Fp16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: Fp16 = Fp16(0xFC00);

    /// Builds an [`Fp16`] from its raw bit pattern.
    #[must_use]
    pub fn from_bits(bits: u16) -> Self {
        Self(bits)
    }

    /// Returns the raw bit pattern.
    #[must_use]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to half precision with round-to-nearest-even,
    /// saturating overflow to infinity as IEEE 754 requires.
    #[must_use]
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        // NaN / infinity.
        if exp == 0xFF {
            return if man != 0 {
                Fp16(sign | 0x7E00) // quiet NaN
            } else {
                Fp16(sign | 0x7C00)
            };
        }

        // Re-bias the exponent from f32 (bias 127) to f16 (bias 15).
        let unbiased = exp - 127;
        let half_exp = unbiased + EXP_BIAS;

        if half_exp >= 0x1F {
            // Overflow to infinity.
            return Fp16(sign | 0x7C00);
        }

        if half_exp <= 0 {
            // Subnormal or underflow to zero.
            if half_exp < -(MAN_BITS as i32) {
                return Fp16(sign);
            }
            // Include the implicit leading one, then shift into the subnormal range:
            // value = full_man * 2^(unbiased-23) must become half_man * 2^-24,
            // so half_man = full_man >> (-unbiased - 1).
            let full_man = man | 0x0080_0000;
            let shift = (-unbiased - 1) as u32;
            let half_man = full_man >> shift;
            let round_bit = 1u32 << (shift - 1);
            let rounded = if (full_man & round_bit) != 0
                && ((full_man & (round_bit - 1)) != 0 || (half_man & 1) != 0)
            {
                half_man + 1
            } else {
                half_man
            };
            return Fp16(sign | rounded as u16);
        }

        // Normal case: keep 10 mantissa bits with round-to-nearest-even.
        let half_man = man >> 13;
        let round_bit = man & 0x1000;
        let sticky = man & 0x0FFF;
        let mut result = sign | ((half_exp as u16) << MAN_BITS) | half_man as u16;
        if round_bit != 0 && (sticky != 0 || (half_man & 1) != 0) {
            // Carry may propagate into the exponent, which is the correct IEEE behaviour.
            result = result.wrapping_add(1);
        }
        Fp16(result)
    }

    /// Converts back to `f32` exactly (every f16 is representable in f32).
    #[must_use]
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 >> 15) << 31;
        let exp = u32::from((self.0 >> MAN_BITS) & 0x1F);
        let man = u32::from(self.0 & 0x03FF);

        if exp == 0 {
            if man == 0 {
                return f32::from_bits(sign);
            }
            // Subnormal: value = man * 2^-24.
            let value = man as f32 * 2f32.powi(-(MAN_BITS as i32) - EXP_BIAS + 1);
            return if sign != 0 { -value } else { value };
        }
        if exp == 0x1F {
            return if man == 0 {
                f32::from_bits(sign | 0x7F80_0000)
            } else {
                f32::NAN
            };
        }
        let f32_exp = (exp as i32 - EXP_BIAS + 127) as u32;
        f32::from_bits(sign | (f32_exp << 23) | (man << 13))
    }

    /// True when the value is NaN.
    #[must_use]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// True when the value is positive or negative infinity.
    #[must_use]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// True when the value is finite (not NaN, not infinite).
    #[must_use]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// The sign, exponent and mantissa fields, as used by the square-root inverter
    /// derivation in Section IV-B of the paper.
    #[must_use]
    pub fn fields(self) -> (bool, u16, u16) {
        (
            self.0 >> 15 == 1,
            (self.0 >> MAN_BITS) & 0x1F,
            self.0 & 0x03FF,
        )
    }
}

impl From<f32> for Fp16 {
    fn from(value: f32) -> Self {
        Self::from_f32(value)
    }
}

impl From<Fp16> for f32 {
    fn from(value: Fp16) -> Self {
        value.to_f32()
    }
}

impl fmt::Display for Fp16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// `Fp16::from_f32(value).to_f32()` with no branch, so a loop over it
/// vectorizes: the numerical effect of storing `value` in FP16, the way
/// [`Format::round_trip_into`](crate::Format::round_trip_into) applies an
/// "FP16 interface" to a tensor. [`Fp16::from_f32`] and [`Fp16::to_f32`] stay
/// the oracle; the two agree on every one of the 2³² inputs.
///
/// Round-to-nearest-even is done on the magnitude's bits. In the normal range
/// adding `0xfff` plus the kept mantissa's low bit, then clearing the 13
/// dropped bits, rounds to 10 mantissa bits (a carry moves into the exponent),
/// and a result of 2¹⁶ or more is infinity. Below 2⁻¹⁴ FP16 is subnormal, a
/// multiple of 2⁻²⁴, and `(|x| + 0.5) − 0.5` has the f32 adder round to
/// exactly that (the ulp of 0.5 is 2⁻²⁴). The sign is put back afterwards, and
/// a NaN of either sign becomes [`f32::NAN`], as [`Fp16::to_f32`] returns.
///
/// # Example
///
/// ```
/// use haan_numerics::fp16::{round_trip, Fp16};
/// for x in [1.0f32 / 3.0, -65519.0, 65520.0, 3.0e-8, f32::NAN] {
///     let oracle = Fp16::from_f32(x).to_f32();
///     assert_eq!(round_trip(x).to_bits(), oracle.to_bits());
/// }
/// ```
#[inline]
#[must_use]
pub fn round_trip(value: f32) -> f32 {
    const SMALLEST_NORMAL: u32 = 0x3880_0000; // 2^-14
    const OVERFLOW: u32 = 0x4780_0000; // 2^16: every result this large is inf
    let bits = value.to_bits();
    let sign = bits & 0x8000_0000;
    let abs = bits & 0x7fff_ffff;
    let normal = (abs + 0xfff + ((abs >> 13) & 1)) & !0x1fff;
    let normal = if normal >= OVERFLOW {
        0x7f80_0000
    } else {
        normal
    };
    let subnormal = ((f32::from_bits(abs) + 0.5) - 0.5).to_bits();
    let magnitude = if abs < SMALLEST_NORMAL {
        subnormal
    } else {
        normal
    };
    if value.is_nan() {
        f32::NAN
    } else {
        f32::from_bits(sign | magnitude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_constants() {
        assert_eq!(Fp16::ONE.to_f32(), 1.0);
        assert_eq!(Fp16::ZERO.to_f32(), 0.0);
        assert_eq!(Fp16::MAX.to_f32(), 65504.0);
        assert_eq!(Fp16::MIN_POSITIVE.to_f32(), 2f32.powi(-14));
        assert!(Fp16::INFINITY.is_infinite());
        assert!(Fp16::NEG_INFINITY.is_infinite());
    }

    #[test]
    fn simple_values_are_exact() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, -3.25, 1024.0, 0.125] {
            assert_eq!(Fp16::from_f32(v).to_f32(), v, "{v}");
        }
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(Fp16::from_f32(1.0e6).is_infinite());
        assert!(Fp16::from_f32(-1.0e6).is_infinite());
        assert_eq!(Fp16::from_f32(-1.0e6).to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn underflow_goes_to_zero_or_subnormal() {
        assert_eq!(Fp16::from_f32(1.0e-10).to_f32(), 0.0);
        let sub = Fp16::from_f32(3.0e-7);
        assert!(sub.to_f32() > 0.0);
        assert!(sub.to_f32() < 2f32.powi(-14));
    }

    #[test]
    fn nan_propagates() {
        assert!(Fp16::from_f32(f32::NAN).is_nan());
        assert!(Fp16::from_f32(f32::NAN).to_f32().is_nan());
    }

    #[test]
    fn fields_match_ieee_layout() {
        let (s, e, m) = Fp16::from_f32(1.5).fields();
        assert!(!s);
        assert_eq!(e, 15); // biased exponent of 2^0
        assert_eq!(m, 0x200); // mantissa .5 -> top bit set
        let (s, _, _) = Fp16::from_f32(-2.0).fields();
        assert!(s);
    }

    #[test]
    fn rounding_is_to_nearest_even() {
        // 2049 is exactly between 2048 and 2050 in half precision (ulp = 2 at this scale);
        // round-to-nearest-even chooses 2048.
        assert_eq!(Fp16::from_f32(2049.0).to_f32(), 2048.0);
        assert_eq!(Fp16::from_f32(2051.0).to_f32(), 2052.0);
    }

    /// `round_trip(x)` against the oracle, bit for bit.
    fn assert_round_trip_matches_the_oracle(x: f32) {
        assert_eq!(
            round_trip(x).to_bits(),
            Fp16::from_f32(x).to_f32().to_bits(),
            "{x:e} ({:#010x})",
            x.to_bits()
        );
    }

    #[test]
    fn round_trip_matches_the_oracle_on_edge_values() {
        let ulp_up = |x: f32| f32::from_bits(x.to_bits() + 1);
        let ulp_down = |x: f32| f32::from_bits(x.to_bits() - 1);
        let tie = 2f32.powi(-25); // halfway between 0 and the smallest subnormal
        let smallest = 2f32.powi(-24); // the smallest FP16 subnormal
        let normal = 2f32.powi(-14); // the smallest FP16 normal
        let edges = [
            0.0,
            tie,
            ulp_up(tie),
            ulp_down(tie),
            3.0 * tie, // a tie that rounds up, to 2 · 2^-24
            smallest,
            normal,
            ulp_up(normal),
            ulp_down(normal),
            65504.0,
            65519.99,
            65520.0,
            2049.0,
            2051.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1), // the smallest f32 subnormal
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0x7fff_ffff), // NaN with a full payload
        ];
        for x in edges {
            assert_round_trip_matches_the_oracle(x);
            assert_round_trip_matches_the_oracle(-x);
        }
        assert_eq!(round_trip(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(round_trip(65520.0), f32::INFINITY);
        assert_eq!(round_trip(65519.99), 65504.0);
        assert_eq!(round_trip(-tie).to_bits(), (-0.0f32).to_bits());
        assert!(round_trip(-f32::NAN).is_nan());
    }

    #[test]
    #[ignore = "exhaustive: all 2^32 inputs; run in release with --ignored"]
    fn round_trip_matches_the_oracle_on_every_f32() {
        for bits in 0..=u32::MAX {
            let x = f32::from_bits(bits);
            if round_trip(x).to_bits() != Fp16::from_f32(x).to_f32().to_bits() {
                assert_round_trip_matches_the_oracle(x);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip_error_within_half_ulp(v in -60000.0f32..60000.0) {
            let h = Fp16::from_f32(v);
            let back = h.to_f32();
            // Relative error bounded by 2^-11 for normal values.
            if v.abs() > 1e-4 {
                prop_assert!(((back - v) / v).abs() < 2f32.powi(-10), "{} -> {}", v, back);
            }
        }

        #[test]
        fn prop_round_trip_matches_the_oracle(
            bits in 0u32..u32::MAX,
            near_fp16 in 0x3300_0000u32..0x4790_0000, // 2^-25 .. just past 65536
            sign in 0u32..2,
        ) {
            for x in [f32::from_bits(bits), f32::from_bits(near_fp16 | sign << 31)] {
                prop_assert_eq!(round_trip(x).to_bits(), Fp16::from_f32(x).to_f32().to_bits());
            }
        }

        #[test]
        fn prop_double_conversion_is_idempotent(v in -60000.0f32..60000.0) {
            let once = Fp16::from_f32(v).to_f32();
            let twice = Fp16::from_f32(once).to_f32();
            prop_assert_eq!(once.to_bits(), twice.to_bits());
        }

        #[test]
        fn prop_all_bit_patterns_convert_without_panic(bits in proptest::num::u16::ANY) {
            let h = Fp16::from_bits(bits);
            let f = h.to_f32();
            if h.is_finite() {
                prop_assert!(f.is_finite());
                // And converting back must give exactly the same bits (f16 ⊂ f32),
                // modulo NaN payloads which we do not preserve.
                prop_assert_eq!(Fp16::from_f32(f).to_bits(), bits);
            }
        }
    }
}
