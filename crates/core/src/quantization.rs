//! Operand quantization policy for normalization inputs (Section III-C).
//!
//! HAAN reduces implementation cost by quantizing the normalization operands; the paper
//! evaluates INT8, FP16 and FP32 (Table II "Data format"). The policy here applies the
//! corresponding rounding to the *statistics path* — the values used to estimate the
//! mean/ISD — while the affine output remains in the model's working precision, which is
//! exactly what the accelerator's fixed-point internal datapath does.

use haan_numerics::Format;

/// The quantization policy applied to normalization operands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizationPolicy {
    format: Format,
}

impl QuantizationPolicy {
    /// A policy quantizing operands to the given format.
    #[must_use]
    pub fn new(format: Format) -> Self {
        Self { format }
    }

    /// The operand format.
    #[must_use]
    pub fn format(&self) -> Format {
        self.format
    }

    /// True when applying the policy cannot change any value (an FP32
    /// round-trip). The batched engine uses this to skip the scratch-buffer copy on
    /// the statistics path.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.format == Format::Fp32
    }

    /// Applies the policy to an operand vector, returning the values the statistics
    /// datapath would observe.
    #[must_use]
    pub fn apply(&self, z: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.apply_into(z, &mut out);
        out
    }

    /// Allocation-free variant of [`QuantizationPolicy::apply`]: clears `out` and
    /// fills it with the quantized operands, reusing its capacity. The batched
    /// normalization engine calls this once per row with one scratch buffer.
    pub fn apply_into(&self, z: &[f32], out: &mut Vec<f32>) {
        self.format.round_trip_into(z, out);
    }

    /// Mean squared quantization error introduced on a vector (diagnostic).
    #[must_use]
    pub fn mean_squared_error(&self, z: &[f32]) -> f64 {
        if z.is_empty() {
            return 0.0;
        }
        let quantized = self.apply(z);
        z.iter()
            .zip(&quantized)
            .map(|(a, b)| {
                let d = f64::from(a - b);
                d * d
            })
            .sum::<f64>()
            / z.len() as f64
    }
}

impl Default for QuantizationPolicy {
    fn default() -> Self {
        Self::new(Format::Fp16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Vec<f32> {
        (-64..64).map(|i| i as f32 / 7.0).collect()
    }

    #[test]
    fn fp32_policy_is_lossless() {
        let policy = QuantizationPolicy::new(Format::Fp32);
        assert!(policy.is_identity());
        assert_eq!(policy.apply(&ramp()), ramp());
        assert_eq!(policy.mean_squared_error(&ramp()), 0.0);
    }

    #[test]
    fn error_ordering_matches_format_precision() {
        let xs = ramp();
        let int8 = QuantizationPolicy::new(Format::Int8).mean_squared_error(&xs);
        let fp16 = QuantizationPolicy::new(Format::Fp16).mean_squared_error(&xs);
        let fp32 = QuantizationPolicy::new(Format::Fp32).mean_squared_error(&xs);
        assert!(fp32 <= fp16);
        assert!(fp16 <= int8);
        assert!(int8 > 0.0);
    }

    #[test]
    fn default_policy_is_fp16() {
        let policy = QuantizationPolicy::default();
        assert_eq!(policy.format(), Format::Fp16);
    }

    #[test]
    fn empty_input_has_zero_error() {
        assert_eq!(QuantizationPolicy::default().mean_squared_error(&[]), 0.0);
    }
}
