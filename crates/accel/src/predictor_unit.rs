//! The scalar ISD predictor unit (Section IV-B, last paragraph).
//!
//! For layers inside the calibrated skip range, the square-root inverter is bypassed
//! and a small scalar unit computes the predicted ISD in the logarithm domain from the
//! anchor layer's ISD and the decay coefficient `e` (the paper implements it with a
//! floating-point IP core; its hardware cost is negligible). The prediction itself is
//! the skip policy's ([`haan::IsdPredictor`], run by `haan::HaanNormalizer`, which
//! hands skipped sites their per-row ISDs); the simulator models only the unit's
//! latency.

/// The ISD predictor unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsdPredictorUnit;

impl IsdPredictorUnit {
    /// Latency of one prediction: a multiply-add in the log domain plus the
    /// exponentiation lookup (4 cycles total for the scalar FP pipeline).
    pub const LATENCY_CYCLES: u64 = 4;
}
