//! Cycle-level simulator of the HAAN hardware accelerator (Section IV of the paper).
//!
//! The accelerator has three pipelined stages (Fig. 3):
//!
//! 1. the **Input Statistics Calculator** ([`isc`], Fig. 4) — FP2FX conversion, parallel
//!    `Σz²/N` and `(Σz/N)²` datapaths built from multipliers and adder trees, producing
//!    the mean and variance in fixed point;
//! 2. the **Square Root Inverter** ([`sqrt_inv`], Fig. 5) — FX2FP conversion, the
//!    `0x5F3759DF` fast-inverse-square-root seed and one Newton refinement, plus the
//!    scalar **ISD predictor unit** ([`predictor_unit`]) used for skipped layers;
//! 3. the **Normalization Units** ([`norm_unit`], Fig. 6) — `(z − μ)·ISD·α + β` with
//!    configurable output format.
//!
//! [`memory`] implements the flattened chunked layout of Fig. 7, [`pipeline`] composes
//! the stages across token vectors (inter-sample pipelining), [`resources`] and
//! [`power`] model FPGA cost (Alveo U280 budget, Table III), and [`accelerator`] ties
//! everything into [`HaanAccelerator`], the functional + timing top level. [`backend`]
//! additionally exposes the datapath as an execution backend ([`AccelSimBackend`]) of
//! the core crate's batched normalization engine: attached with
//! `haan::HaanNormalizer::with_external_backend`, it runs every batched
//! normalization call through the simulator.
//!
//! # Example
//!
//! ```
//! use haan_accel::{AccelConfig, HaanAccelerator};
//! use haan::HaanConfig;
//!
//! let mut accel = HaanAccelerator::new(AccelConfig::haan_v1(), HaanConfig::default());
//! let tokens: Vec<Vec<f32>> = (0..4).map(|t| (0..256).map(|i| ((i + t) % 7) as f32).collect()).collect();
//! let gamma = vec![1.0f32; 256];
//! let beta = vec![0.0f32; 256];
//! let run = accel.normalize_layer(&tokens, &gamma, &beta, haan_llm::NormKind::LayerNorm, 0)?;
//! assert_eq!(run.outputs.len(), 4);
//! assert!(run.report.total_cycles > 0);
//! # Ok::<(), haan_accel::AccelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accelerator;
pub mod adder_tree;
pub mod backend;
pub mod config;
pub mod error;
pub mod isc;
pub mod memory;
pub mod norm_unit;
pub mod pipeline;
pub mod power;
pub mod predictor_unit;
pub mod resources;
pub mod sqrt_inv;

pub use accelerator::{HaanAccelerator, LayerRun, WorkloadReport};
pub use backend::AccelSimBackend;
pub use config::AccelConfig;
pub use error::AccelError;
pub use pipeline::{PipelineReport, StageTiming};
pub use power::PowerEstimate;
pub use resources::ResourceEstimate;
