//! HAAN: holistic acceleration of normalization operations in large language models.
//!
//! This crate implements the algorithmic contribution of the DATE 2025 paper
//! *"HAAN: A Holistic Approach for Accelerating Normalization Operations in Large
//! Language Models"* (arXiv:2502.11832):
//!
//! * [`skipping`] — **Algorithm 1**, the ISD-skipping range search: Pearson-correlation
//!   scan over layer ranges of calibration `log(ISD)` profiles, returning the range
//!   whose ISD computation can be skipped and the log-linear decay coefficient.
//! * [`predictor`] — the log-linear ISD predictor of Eq. 3
//!   (`log ISD_k = log ISD_i + e·(k − i)`), including the `cal_decay` slope fit.
//! * [`quantization`] — operand quantization policy (INT8 / FP16 / FP32).
//! * [`config`] — [`HaanConfig`] with the per-model presets the paper evaluates
//!   (LLaMA-7B: `Nsub = 256`, skip (50, 60), INT8; OPT-2.7B: `Nsub = 1280`,
//!   skip (55, 62), FP16; GPT2-1.5B: `Nsub = 800`, skip (85, 92), FP16).
//! * [`normalizer`] — [`HaanNormalizer`], a drop-in
//!   [`Normalizer`](haan_llm::norm::Normalizer) that applies skipping, subsampling,
//!   quantization and the fast inverse square root, so any `haan-llm` model can be
//!   evaluated with HAAN statistics. Its one statistics policy is the **batched
//!   site** ([`normalize_matrix_into`](haan_llm::norm::Normalizer::normalize_matrix_into)):
//!   one call per normalization site processes a whole `seq × E` matrix with the
//!   per-site decisions hoisted out of the row loop, a reused scratch buffer, fused
//!   chunked kernels, and per-row skip anchors. The statistics path reads only the
//!   quantized first `Nsub` elements of each row (Eq. 4); a per-token call is a
//!   one-row batched site.
//! * [`backend`] — the execution backends of the batched engine and the
//!   [`NormBackend`] trait they implement: the two-pass scalar oracle and the fused
//!   chunked kernel, picked by [`BackendSelection`] in [`HaanConfig`] (fused by
//!   default). A backend attached with [`HaanNormalizer::with_external_backend`] —
//!   such as `haan_accel`'s cycle-level accelerator simulator — runs instead.
//! * [`calibration`] — the offline calibration pipeline (run a calibration set, gather
//!   ISD profiles, run Algorithm 1).
//! * [`evaluate`] — accuracy-evaluation helpers used to regenerate Tables I and II.
//!
//! # Quickstart
//!
//! ```
//! use haan::{CalibrationOutcome, Calibrator, HaanConfig, HaanNormalizer};
//! use haan_llm::norm::ReferenceNormalizer;
//! use haan_llm::{ModelConfig, TransformerModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Build a model and calibrate HAAN on a synthetic calibration set.
//! let model = TransformerModel::new(&ModelConfig::tiny_test(), 7)?;
//! let calibrator = Calibrator::new(8, 4).with_min_gap(2);
//! let CalibrationOutcome { plan, .. } = calibrator.calibrate_model(&model, 11)?;
//!
//! // 2. Evaluate the model with HAAN normalization instead of exact statistics.
//! let config = HaanConfig::builder().subsample(16).build();
//! let mut haan = HaanNormalizer::new(config).with_plan(plan);
//! let mut reference = ReferenceNormalizer::new();
//! let tokens = [1u32, 2, 3, 4];
//! let approx = model.logits(&tokens, &mut haan)?;
//! let exact = model.logits(&tokens, &mut reference)?;
//! assert_eq!(approx.shape(), exact.shape());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod calibration;
pub mod config;
pub mod error;
pub mod evaluate;
pub mod normalizer;
pub mod pearson;
pub mod predictor;
pub mod quantization;
pub mod skipping;

pub use backend::NormBackend;
pub use calibration::{CalibrationOutcome, Calibrator};
pub use config::{BackendSelection, HaanConfig, HaanConfigBuilder};
pub use error::HaanError;
pub use normalizer::{AnchorState, HaanNormalizer, NormalizerTelemetry};
pub use predictor::{cal_decay, IsdPredictor};
pub use skipping::{IsdSkipAlgorithm, SkipPlan};
