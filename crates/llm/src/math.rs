//! The model's transcendental math: an f32 `exp` and a `tanh` built on it,
//! used by GELU, SiLU and the attention softmax in place of the host libm.
//!
//! Both are a range reduction plus a polynomial, written with plain `*` and
//! `+` on f32 values and their bits: no `mul_add`, no libm call (not even
//! `floor` or `round`, which are libm calls on baseline x86-64) and no branch
//! (the one `if` is a select of two computed values). An element loop over
//! them therefore auto-vectorizes, and, since rustc never contracts `a * b + c`
//! into an FMA, it returns the same bits at every ISA level and on every host,
//! whatever libm variant the host picks at run time.
//!
//! Accuracy against an f64 reference (pinned in this module's tests): `exp`
//! and `tanh` stay within 4 ulp wherever the result is a normal f32.

/// 1.5·2²³. Adding it to an f32 of magnitude below 2²² rounds the value to
/// the nearest integer (ties to even), which then sits in the sum's low
/// mantissa bits: `(v + ROUND_MAGIC).to_bits() - ROUND_MAGIC.to_bits()` is
/// that integer.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// ln 2 in two parts (Cody–Waite): `LN2_HI` has 9 significant bits, so
/// `k * LN2_HI` is exact for every `k` the clamped input can produce.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `exp` clamps its input to this range before reducing it, which keeps the
/// integer part `k` within what two power-of-two factors can scale by, and
/// changes no result: e^89 already overflows to +inf and e^-104 rounds to 0.
const EXP_MIN_INPUT: f32 = -104.0;
const EXP_MAX_INPUT: f32 = 89.0;
/// e^r ≈ 1 + r + r²·P(r) on |r| ≤ ln 2 / 2: the coefficients of P, highest
/// power first (Cephes `expf`).
const EXP_POLY: [f32; 6] = [
    1.987_569_2e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    5e-1,
];
/// tanh(a) ≈ a + a·s·Q(s) with s = a² on |a| < 0.625: the coefficients of Q,
/// highest power first (Cephes `tanhf`).
const TANH_POLY: [f32; 5] = [
    -5.704_988_7e-3,
    2.063_909e-2,
    -5.373_971_6e-2,
    1.333_144_2e-1,
    -3.333_328e-1,
];
/// Below this magnitude `tanh` uses its odd polynomial; at and above it,
/// `(1 - e^-2a) / (1 + e^-2a)` has no cancellation to lose bits to.
const TANH_POLY_LIMIT: f32 = 0.625;

/// e^x in f32.
///
/// `x = k·ln 2 + r` with integer `k` and `|r| ≤ ln 2 / 2`; e^r comes from a
/// degree-7 polynomial and 2^k is applied as two power-of-two factors built
/// from exponent bits, so that overflow gives +inf and underflow a correctly
/// scaled subnormal or 0. NaN in gives NaN out (the clamp keeps NaN).
#[inline]
#[must_use]
pub fn exp(x: f32) -> f32 {
    let x = x.clamp(EXP_MIN_INPUT, EXP_MAX_INPUT);
    let shifted = x * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let k = shifted - ROUND_MAGIC;
    let k_int = (shifted.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    let r = x - k * LN2_HI - k * LN2_LO;
    let p = horner(r, &EXP_POLY) * (r * r) + r + 1.0;
    // 2^k = 2^k_lo · 2^k_hi with both halves inside the normal exponent range.
    let k_lo = k_int >> 1;
    let k_hi = k_int.wrapping_sub(k_lo);
    p * pow2(k_lo) * pow2(k_hi)
}

/// `c[0]·vⁿ⁻¹ + … + c[n-1]` by Horner's rule, for a non-empty `c`.
#[inline]
fn horner(v: f32, c: &[f32]) -> f32 {
    c[1..].iter().fold(c[0], |acc, &ci| acc * v + ci)
}

/// 2^k for `k` in the normal exponent range [-126, 127].
#[inline]
fn pow2(k: i32) -> f32 {
    f32::from_bits((k.wrapping_add(127) << 23) as u32)
}

/// tanh(x) in f32, built on [`exp`].
///
/// Both forms are computed and one is selected by `|x|`: an odd polynomial
/// below 0.625, where `1 - e^-2|x|` would cancel, and `(1 - e) / (1 + e)`
/// with `e = e^-2|x|` above it. The sign is copied from `x`, so ±0 map to
/// ±0, ±inf to ±1 and NaN to NaN.
#[inline]
#[must_use]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let s = a * a;
    let poly = horner(s, &TANH_POLY) * s * a + a;
    let e = exp(-2.0 * a);
    let ratio = (1.0 - e) / (1.0 + e);
    let magnitude = if a < TANH_POLY_LIMIT { poly } else { ratio };
    magnitude.copysign(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance of `approx` from the f64 `exact` in units of the f32 ulp at
    /// `exact` (the spacing of f32 values at the correctly rounded result).
    fn ulps(approx: f32, exact: f64) -> f64 {
        let rounded = (exact as f32).abs();
        let ulp = f64::from(f32::from_bits(rounded.to_bits() + 1) - rounded);
        (f64::from(approx) - exact).abs() / ulp
    }

    /// Points `step` apart over `[lo, hi]`, both ends included.
    fn sweep(lo: f32, hi: f32, step: f32) -> impl Iterator<Item = f32> {
        let n = ((hi - lo) / step) as usize;
        (0..=n).map(move |i| lo + i as f32 * step).chain([hi])
    }

    #[test]
    fn exp_is_within_4_ulp_over_the_normal_range() {
        // Dense over [-20, 20], coarser out to the ends of the normal range.
        let points = sweep(-20.0, 20.0, 1e-5).chain(sweep(-87.3, 88.7, 1e-3));
        let mut worst = (0.0f64, 0.0f32);
        for x in points {
            let exact = f64::from(x).exp();
            let err = ulps(exp(x), exact);
            if err > worst.0 {
                worst = (err, x);
            }
        }
        assert!(worst.0 <= 4.0, "exp is {} ulp off at {}", worst.0, worst.1);
    }

    #[test]
    fn tanh_is_within_4_ulp_over_the_normal_range() {
        let tiny = (-30..=-1).flat_map(|e| {
            let v = 2f32.powi(e) * 1.234_567;
            [v, -v]
        });
        let points = sweep(-20.0, 20.0, 1e-5).chain(tiny);
        let mut worst = (0.0f64, 0.0f32);
        for x in points {
            let err = ulps(tanh(x), f64::from(x).tanh());
            if err > worst.0 {
                worst = (err, x);
            }
        }
        assert!(worst.0 <= 4.0, "tanh is {} ulp off at {}", worst.0, worst.1);
    }

    #[test]
    fn exp_edge_values() {
        assert_eq!(exp(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
        // Overflow: e^88.72 is the largest finite result, e^88.73 is +inf.
        assert!(exp(88.72).is_finite());
        assert_eq!(exp(88.73), f32::INFINITY);
        assert_eq!(exp(1e30), f32::INFINITY);
        // Underflow: subnormal results keep their scale, then round to 0.
        for x in [-90.0f32, -100.0, -103.0] {
            let sub = exp(x);
            assert!(sub > 0.0 && !sub.is_normal(), "e^{x} = {sub}");
            let err = (f64::from(sub) - f64::from(x).exp()).abs();
            assert!(err <= 2f64.powi(-149), "e^{x} is {err} off");
        }
        assert_eq!(exp(-104.0).to_bits(), 0);
        assert_eq!(exp(-1e30).to_bits(), 0);
    }

    #[test]
    fn tanh_edge_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(1e30), 1.0);
        assert!(tanh(f32::NAN).is_nan());
        assert!(tanh(-f32::NAN).is_nan());
        // The smallest subnormal and a tiny normal pass through unchanged.
        let min_sub = f32::from_bits(1);
        assert_eq!(tanh(min_sub), min_sub);
        assert_eq!(tanh(-1e-20), -1e-20);
    }

    #[test]
    fn odd_symmetry_is_exact() {
        for x in sweep(0.0, 12.0, 1e-3) {
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "tanh at {x}");
        }
    }
}
