//! Numeric substrate for the HAAN reproduction.
//!
//! The HAAN accelerator ([arXiv:2502.11832]) mixes floating-point interfaces with
//! fixed-point internal datapaths and relies on a handful of numeric building blocks:
//!
//! * [`Fixed`] — a runtime-parameterised Qm.n fixed-point number with saturating
//!   arithmetic, mirroring the registers used inside the input-statistics calculator.
//! * [`Fp16`] — a bit-accurate software IEEE 754 binary16, used for the FP16
//!   input/output format of the accelerator.
//! * [`Format`] — the numeric formats the accelerator can be configured with
//!   (FP32, FP16, INT8, fixed-point), plus quantization helpers.
//! * [`FpToFx`] / [`FxToFp`] — the FP2FX / FX2FP converter units of Fig. 4 and Fig. 5.
//! * [`invsqrt`] — the fast inverse square root (magic constant `0x5F3759DF` plus
//!   Newton refinement) implemented by the Square Root Inverter (Fig. 5), together
//!   with the Mitchell logarithm approximation and its σ ≈ 0.450465 correction.
//! * [`stats`] — reference, one-pass and streaming (Welford) statistics
//!   (mean, variance, inverse standard deviation) used throughout the algorithm,
//!   plus the fused batched kernels behind the hot normalization path:
//!   [`stats::VectorStats::compute_chunked`] (lane-parallel one-pass statistics) and
//!   [`stats::normalize_rows_into`] (statistics + affine apply per row into a
//!   caller-provided buffer, no allocation). The scalar routines stay as the
//!   reference oracle; the fused kernels are property-tested against them.
//! * [`fusion`] — the cross-operation fusion kernel: fused residual-add +
//!   statistics ([`fusion::add_rows_stats_chunked`]), bit-identical to the
//!   composed add-then-statistics sequence it replaces.
//!
//! # Example
//!
//! ```
//! use haan_numerics::{invsqrt::fast_inv_sqrt, stats::VectorStats};
//!
//! let xs: Vec<f32> = (1..=64).map(|i| i as f32 / 8.0).collect();
//! let stats = VectorStats::compute(&xs);
//! let isd = fast_inv_sqrt(stats.variance, 1);
//! let exact = 1.0 / stats.variance.sqrt();
//! assert!((isd - exact).abs() / exact < 1e-2);
//! ```
//!
//! [arXiv:2502.11832]: https://arxiv.org/abs/2502.11832

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod error;
pub mod fixed;
pub mod format;
pub mod fp16;
pub mod fusion;
pub mod invsqrt;
pub mod quant;
pub mod stats;

pub use convert::{FpToFx, FxToFp};
pub use error::NumericError;
pub use fixed::{Fixed, QFormat};
pub use format::Format;
pub use fp16::Fp16;
pub use quant::Int8Quantizer;
