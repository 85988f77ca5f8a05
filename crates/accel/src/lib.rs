//! Cycle-level simulator of the HAAN hardware accelerator (Section IV of the paper).
//!
//! The accelerator has three pipelined stages (Fig. 3):
//!
//! 1. the **Input Statistics Calculator** ([`isc`], Fig. 4) — FP2FX conversion, parallel
//!    `Σz²/N` and `(Σz/N)²` datapaths built from multipliers and adder trees, producing
//!    the mean and variance in fixed point;
//! 2. the **Square Root Inverter** ([`sqrt_inv`], Fig. 5) — FX2FP conversion, the
//!    `0x5F3759DF` fast-inverse-square-root seed and one Newton refinement; skipped
//!    layers bypass it and take the scalar ISD predictor's fixed latency
//!    ([`predictor_unit`]) instead;
//! 3. the **Normalization Units** ([`norm_unit`], Fig. 6) — `(z − μ)·ISD·α + β` with
//!    configurable output format.
//!
//! [`pipeline`] composes the stages across token vectors (inter-sample pipelining)
//! with one stage-timing rule, [`pipeline::site_stage_timing`]. The crate models the
//! accelerator in two roles that share it:
//!
//! * [`AccelSimBackend`] ([`backend`]) is the functional simulator: an execution
//!   backend of the core crate's batched normalization engine. Attached with
//!   `haan::HaanNormalizer::with_external_backend`, it runs every batched site
//!   through the datapath units under the normalizer's skip, anchor, subsample and
//!   quantization policy, and accumulates the pipelined cycles.
//! * [`HaanAccelerator`] ([`accelerator`]) is the analytic model: stage timing,
//!   latency, power and energy of whole workloads, plus the FPGA cost of
//!   [`resources`] and [`power`] (Alveo U280 budget, Table III).
//!
//! # Example
//!
//! ```
//! use haan::{HaanConfig, HaanNormalizer};
//! use haan_accel::{AccelConfig, AccelSimBackend, HaanAccelerator};
//! use haan_llm::norm::{NormSite, Normalizer};
//! use haan_llm::{Matrix, NormKind};
//! use std::sync::Arc;
//!
//! // Functional simulation: one site of 4 token vectors through the datapath.
//! let backend = Arc::new(AccelSimBackend::new(AccelConfig::haan_v1())?);
//! let mut normalizer =
//!     HaanNormalizer::new(HaanConfig::default()).with_external_backend(backend.clone());
//! let tokens = Matrix::from_vec(4, 256, (0..4 * 256).map(|i| (i % 7) as f32).collect())?;
//! let site = NormSite { layer_index: 0, kind: NormKind::LayerNorm };
//! let out = normalizer.normalize_matrix(site, &tokens, &vec![1.0; 256], &vec![0.0; 256]);
//! assert_eq!(out.rows(), 4);
//!
//! // The analytic model prices the same layer with the same cycles.
//! let accel = HaanAccelerator::new(AccelConfig::haan_v1(), HaanConfig::default());
//! let report = accel.workload(256, 1, 4, NormKind::LayerNorm);
//! assert_eq!(report.total_cycles, backend.total_cycles());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accelerator;
pub mod adder_tree;
pub mod backend;
pub mod config;
pub mod error;
pub mod isc;
pub mod norm_unit;
pub mod pipeline;
pub mod power;
pub mod predictor_unit;
pub mod resources;
pub mod sqrt_inv;

pub use accelerator::{HaanAccelerator, WorkloadReport};
pub use backend::AccelSimBackend;
pub use config::AccelConfig;
pub use error::AccelError;
pub use pipeline::{PipelineReport, StageTiming};
pub use power::PowerEstimate;
pub use resources::ResourceEstimate;
