//! Numeric formats supported by the HAAN accelerator interface.

use crate::fixed::QFormat;
use crate::fp16;
use crate::quant::Int8Quantizer;
use std::fmt;

/// The external numeric formats the accelerator can be configured for
/// (Section IV of the paper: FP32, FP16 and INT8 inputs, fixed-point internals).
///
/// # Example
///
/// ```
/// use haan_numerics::Format;
/// assert_eq!(Format::Fp16.bits(), 16);
/// assert!(Format::Int8.is_integer());
/// let xs = [0.5f32, -1.25, 3.0];
/// let rounded = Format::Fp16.round_trip(&xs);
/// assert_eq!(rounded.len(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Format {
    /// IEEE 754 binary32. The "original" precision in the paper's accuracy tables.
    Fp32,
    /// IEEE 754 binary16.
    #[default]
    Fp16,
    /// Signed 8-bit integers with a per-tensor symmetric scale.
    Int8,
    /// An explicit fixed-point format (used for internal datapath experiments).
    Fixed(QFormat),
}

impl Format {
    /// Storage width in bits per element.
    #[must_use]
    pub fn bits(&self) -> u32 {
        match self {
            Format::Fp32 => 32,
            Format::Fp16 => 16,
            Format::Int8 => 8,
            Format::Fixed(q) => q.total_bits(),
        }
    }

    /// Storage width in bytes per element (rounded up).
    #[must_use]
    pub fn bytes(&self) -> u32 {
        self.bits().div_ceil(8)
    }

    /// True for integer / fixed-point formats (those bypass the FP2FX units in Fig. 4).
    #[must_use]
    pub fn is_integer(&self) -> bool {
        matches!(self, Format::Int8 | Format::Fixed(_))
    }

    /// True for floating-point formats.
    #[must_use]
    pub fn is_float(&self) -> bool {
        !self.is_integer()
    }

    /// Applies the quantization this format would impose on a tensor and converts the
    /// result back to `f32`, i.e. the numerical effect of storing `values` in this format.
    ///
    /// For [`Format::Int8`] a symmetric per-tensor scale is fitted to the data, which is
    /// how the paper applies INT8 quantization over the normalization input.
    #[must_use]
    pub fn round_trip(&self, values: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.round_trip_into(values, &mut out);
        out
    }

    /// Allocation-free variant of [`Format::round_trip`]: clears `out` and fills it
    /// with the rounded values, reusing its capacity. The batched normalization engine
    /// calls this once per row with one scratch buffer.
    pub fn round_trip_into(&self, values: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(values.len());
        match self {
            Format::Fp32 => out.extend_from_slice(values),
            Format::Fp16 => out.extend(values.iter().map(|&v| fp16::round_trip(v))),
            Format::Int8 => match Int8Quantizer::fit(values) {
                Ok(q) => out.extend(values.iter().map(|&v| q.dequantize(q.quantize(v)))),
                Err(_) => out.extend_from_slice(values),
            },
            Format::Fixed(q) => out.extend(
                values
                    .iter()
                    .map(|&v| crate::fixed::Fixed::from_f64(f64::from(v), *q).to_f32()),
            ),
        }
    }

    /// Relative energy cost of a multiply-accumulate in this format, normalised to FP32.
    ///
    /// These coefficients drive the accelerator power model; they follow the usual
    /// ASIC/FPGA energy scaling (FP16 ≈ 0.6×, INT8 ≈ 0.3× of FP32 MAC energy), which
    /// is consistent with the paper's observation that FP32 normalization consumes
    /// about 1.29× the power of FP16 and INT8 the least.
    #[must_use]
    pub fn relative_mac_energy(&self) -> f64 {
        match self {
            Format::Fp32 => 1.0,
            Format::Fp16 => 0.60,
            Format::Int8 => 0.30,
            Format::Fixed(q) => {
                // Scale with the square of the width relative to a 16-bit fixed MAC at 0.35.
                let w = f64::from(q.total_bits());
                0.35 * (w / 16.0).powi(2)
            }
        }
    }

    /// All formats evaluated in the paper's tables.
    #[must_use]
    pub fn paper_formats() -> [Format; 3] {
        [Format::Int8, Format::Fp16, Format::Fp32]
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Format::Fp32 => write!(f, "FP32"),
            Format::Fp16 => write!(f, "FP16"),
            Format::Int8 => write!(f, "INT8"),
            Format::Fixed(q) => write!(f, "FX({q})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(Format::Fp32.bits(), 32);
        assert_eq!(Format::Fp16.bits(), 16);
        assert_eq!(Format::Int8.bits(), 8);
        assert_eq!(Format::Fixed(QFormat::new(10, 2)).bits(), 12);
        assert_eq!(Format::Fixed(QFormat::new(10, 2)).bytes(), 2);
    }

    #[test]
    fn classification() {
        assert!(Format::Int8.is_integer());
        assert!(Format::Fixed(QFormat::Q16_16).is_integer());
        assert!(Format::Fp16.is_float());
        assert!(Format::Fp32.is_float());
    }

    #[test]
    fn fp32_round_trip_is_identity() {
        let xs = [1.0f32, -2.5, 0.0, 1e-3];
        assert_eq!(Format::Fp32.round_trip(&xs), xs.to_vec());
    }

    #[test]
    fn fp16_round_trip_loses_precision_gracefully() {
        let xs = [std::f32::consts::PI];
        let rt = Format::Fp16.round_trip(&xs);
        assert!((rt[0] - std::f32::consts::PI).abs() < 1e-3);
        assert_ne!(rt[0], std::f32::consts::PI);
    }

    #[test]
    fn int8_round_trip_error_is_bounded_by_scale() {
        let xs: Vec<f32> = (-50..50).map(|i| i as f32 / 10.0).collect();
        let rt = Format::Int8.round_trip(&xs);
        let max_abs = 5.0f32;
        let scale = max_abs / 127.0;
        for (a, b) in xs.iter().zip(&rt) {
            assert!((a - b).abs() <= scale * 0.51 + 1e-6);
        }
    }

    #[test]
    fn energy_ordering_matches_paper() {
        assert!(Format::Int8.relative_mac_energy() < Format::Fp16.relative_mac_energy());
        assert!(Format::Fp16.relative_mac_energy() < Format::Fp32.relative_mac_energy());
    }

    #[test]
    fn display_names() {
        assert_eq!(Format::Fp32.to_string(), "FP32");
        assert_eq!(Format::Int8.to_string(), "INT8");
        assert_eq!(Format::Fixed(QFormat::Q16_16).to_string(), "FX(Q16.16)");
        assert_eq!(Format::default(), Format::Fp16);
    }

    #[test]
    fn paper_formats_cover_the_table() {
        let fs = Format::paper_formats();
        assert!(fs.contains(&Format::Int8));
        assert!(fs.contains(&Format::Fp16));
        assert!(fs.contains(&Format::Fp32));
    }
}
