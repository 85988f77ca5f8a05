//! FP ↔ fixed-point converter units (the FP2FX and FX2FP blocks of Figs. 4–6).
//!
//! The input-statistics calculator converts floating-point inputs to fixed point
//! before the adder trees, and the square-root inverter / normalization unit convert
//! fixed-point intermediates back to floating point. These converters are modelled as
//! small stateless units with a configurable target format and a per-conversion
//! latency/energy cost used by the accelerator's timing and power models.

use crate::fixed::{Fixed, QFormat};
use crate::format::Format;
use crate::fp16::Fp16;

/// A floating-point to fixed-point converter (FP2FX unit).
///
/// When the configured *input* format is already fixed-point/INT8 the unit operates in
/// bypass mode and simply re-interprets the value, matching the paper's description
/// ("If the inputs are already in fixed-point format (INT8), the FP2FX units will
/// bypass the conversion").
///
/// # Example
///
/// ```
/// use haan_numerics::{FpToFx, Format, QFormat};
/// let unit = FpToFx::new(Format::Fp16, QFormat::Q16_16);
/// let fx = unit.convert(1.5);
/// assert!((fx.to_f64() - 1.5).abs() < 1e-3);
/// assert!(!unit.is_bypass());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpToFx {
    input_format: Format,
    target: QFormat,
}

impl FpToFx {
    /// Creates a converter for inputs in `input_format` targeting the internal `target`
    /// fixed-point format.
    #[must_use]
    pub fn new(input_format: Format, target: QFormat) -> Self {
        Self {
            input_format,
            target,
        }
    }

    /// The internal fixed-point format produced by this unit.
    #[must_use]
    pub fn target(&self) -> QFormat {
        self.target
    }

    /// The external input format.
    #[must_use]
    pub fn input_format(&self) -> Format {
        self.input_format
    }

    /// True when the conversion is a bypass (inputs already fixed-point / INT8).
    #[must_use]
    pub fn is_bypass(&self) -> bool {
        self.input_format.is_integer()
    }

    /// Converts one element. The input is first rounded to the external format
    /// (FP16 inputs only carry FP16 precision) and then quantized to the target.
    #[must_use]
    pub fn convert(&self, value: f32) -> Fixed {
        let staged = match self.input_format {
            Format::Fp16 => Fp16::from_f32(value).to_f32(),
            _ => value,
        };
        Fixed::from_f64(f64::from(staged), self.target)
    }

    /// Converts a slice of elements.
    #[must_use]
    pub fn convert_slice(&self, values: &[f32]) -> Vec<Fixed> {
        values.iter().map(|&v| self.convert(v)).collect()
    }

    /// Latency of one conversion in cycles: one cycle for a real conversion, zero for
    /// bypass mode.
    #[must_use]
    pub fn latency_cycles(&self) -> u64 {
        if self.is_bypass() {
            0
        } else {
            1
        }
    }

    /// Relative energy per conversion (arbitrary units, FP32→FX = 1.0).
    #[must_use]
    pub fn energy_per_conversion(&self) -> f64 {
        match self.input_format {
            Format::Fp32 => 1.0,
            Format::Fp16 => 0.55,
            _ => 0.05,
        }
    }
}

/// A fixed-point to floating-point converter (FX2FP unit).
///
/// Used in front of the square-root inverter (the variance arrives in fixed point and
/// the fast-inverse-square-root bit trick operates on an FP32 pattern) and at the
/// output of the normalization unit. When quantization is enabled the output stays in
/// fixed point and the unit is bypassed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FxToFp {
    output_format: Format,
}

impl FxToFp {
    /// Creates a converter producing `output_format` values.
    #[must_use]
    pub fn new(output_format: Format) -> Self {
        Self { output_format }
    }

    /// The external output format.
    #[must_use]
    pub fn output_format(&self) -> Format {
        self.output_format
    }

    /// True when the conversion is a bypass (outputs kept in fixed point / INT8).
    #[must_use]
    pub fn is_bypass(&self) -> bool {
        self.output_format.is_integer()
    }

    /// Converts one fixed-point value to the output format, returning the `f32` the
    /// simulation carries forward.
    #[must_use]
    pub fn convert(&self, value: Fixed) -> f32 {
        let f = value.to_f32();
        match self.output_format {
            Format::Fp16 => Fp16::from_f32(f).to_f32(),
            _ => f,
        }
    }

    /// Converts a slice of fixed-point values.
    #[must_use]
    pub fn convert_slice(&self, values: &[Fixed]) -> Vec<f32> {
        values.iter().map(|&v| self.convert(v)).collect()
    }

    /// Latency of one conversion in cycles (zero in bypass mode).
    #[must_use]
    pub fn latency_cycles(&self) -> u64 {
        if self.is_bypass() {
            0
        } else {
            1
        }
    }

    /// Relative energy per conversion (arbitrary units, FX→FP32 = 1.0).
    #[must_use]
    pub fn energy_per_conversion(&self) -> f64 {
        match self.output_format {
            Format::Fp32 => 1.0,
            Format::Fp16 => 0.55,
            _ => 0.05,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fp32_conversion_preserves_value_within_resolution() {
        let unit = FpToFx::new(Format::Fp32, QFormat::Q16_16);
        let fx = unit.convert(std::f32::consts::E);
        assert!(
            (fx.to_f64() - f64::from(std::f32::consts::E)).abs() < QFormat::Q16_16.resolution()
        );
        assert_eq!(unit.latency_cycles(), 1);
        assert!(!unit.is_bypass());
    }

    #[test]
    fn fp16_conversion_goes_through_half_precision() {
        let unit = FpToFx::new(Format::Fp16, QFormat::Q16_16);
        let fine = 1.0009766f32; // representable in f16? next after 1.0 is 1.0009766
        let fx = unit.convert(fine);
        assert!((fx.to_f32() - fine).abs() < 1e-3);
    }

    #[test]
    fn int8_input_bypasses() {
        let unit = FpToFx::new(Format::Int8, QFormat::Q16_16);
        assert!(unit.is_bypass());
        assert_eq!(unit.latency_cycles(), 0);
        let fx = unit.convert(-5.0);
        assert!((fx.to_f64() + 5.0).abs() < 1e-4);
    }

    #[test]
    fn fx_to_fp_round_trips() {
        let to_fx = FpToFx::new(Format::Fp32, QFormat::Q16_16);
        let to_fp = FxToFp::new(Format::Fp32);
        let x = 13.375f32;
        let back = to_fp.convert(to_fx.convert(x));
        assert!((back - x).abs() < 1e-3);
        assert!(!to_fp.is_bypass());
    }

    #[test]
    fn quantized_output_bypasses_fx2fp() {
        let unit = FxToFp::new(Format::Int8);
        assert!(unit.is_bypass());
        assert_eq!(unit.latency_cycles(), 0);
    }

    #[test]
    fn energy_ordering() {
        assert!(
            FpToFx::new(Format::Fp16, QFormat::Q16_16).energy_per_conversion()
                < FpToFx::new(Format::Fp32, QFormat::Q16_16).energy_per_conversion()
        );
        assert!(
            FxToFp::new(Format::Int8).energy_per_conversion()
                < FxToFp::new(Format::Fp16).energy_per_conversion()
        );
    }

    #[test]
    fn slice_conversions_match_scalar() {
        let unit = FpToFx::new(Format::Fp32, QFormat::Q16_16);
        let xs = [1.0f32, 2.0, -3.5];
        let fx = unit.convert_slice(&xs);
        for (x, f) in xs.iter().zip(&fx) {
            assert_eq!(unit.convert(*x).raw(), f.raw());
        }
        let back = FxToFp::new(Format::Fp32).convert_slice(&fx);
        assert_eq!(back.len(), xs.len());
    }

    proptest! {
        #[test]
        fn prop_fp32_pipeline_error_is_bounded(x in -30000.0f32..30000.0) {
            let to_fx = FpToFx::new(Format::Fp32, QFormat::Q16_16);
            let to_fp = FxToFp::new(Format::Fp32);
            let back = to_fp.convert(to_fx.convert(x));
            prop_assert!((back - x).abs() <= QFormat::Q16_16.resolution() as f32 * 1.5);
        }
    }
}
