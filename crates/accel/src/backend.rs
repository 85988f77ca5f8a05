//! [`AccelSimBackend`] — the accelerator simulator as a batched-engine backend.
//!
//! `haan_accel` sits *above* the `haan` core crate in the dependency graph, so the
//! core cannot name this type. It implements the core's [`NormBackend`] trait
//! instead and is attached to a normalizer as a trait object with
//! [`HaanNormalizer::with_external_backend`](haan::HaanNormalizer::with_external_backend);
//! the attached backend takes precedence over the configured software backend, so
//! every batched `Normalizer` call then runs through the cycle-level datapath model.
//! This is the crate's only functional accelerator: the normalizer's skip, anchor,
//! subsample and quantization policy decides what each site computes, and the
//! simulator executes it:
//!
//! * statistics come from the fixed-point [`InputStatisticsCalculator`] (Fig. 4)
//!   over the quantized subsampled prefix;
//! * the ISD comes from the [`SquareRootInverter`] (Fig. 5), or, at a skipped site,
//!   arrives in the request, predicted per row by the normalizer from the anchor
//!   site's ISDs (the timing charges the predictor unit's latency instead);
//! * the affine transform runs through the [`NormalizationUnit`] (Fig. 6), including
//!   its external-format output rounding;
//! * each batch is timed with [`site_stage_timing`] and the inter-sample
//!   [`pipeline_latency`] model, the same composition the analytic
//!   [`HaanAccelerator`](crate::HaanAccelerator) prices workloads with,
//!   accumulating total cycles across the run.
//!
//! The outputs therefore match the software backends only within the tolerance of
//! the hardware datapath — fixed-point accumulation, the fast-inverse-square-root
//! seed + Newton refinement, and external-format rounding each contribute; the
//! parity tests budget a 5e-2 relative envelope on normalized outputs, against the
//! ≤ 1e-5 the software backends hold (see `tests/backend_dispatch.rs`).

use crate::config::AccelConfig;
use crate::error::AccelError;
use crate::isc::InputStatisticsCalculator;
use crate::norm_unit::NormalizationUnit;
use crate::pipeline::{pipeline_latency, site_stage_timing};
use crate::sqrt_inv::SquareRootInverter;
use haan::backend::{BatchRequest, NormBackend, ResidualNormRequest};
use haan_llm::NormKind;
use haan_numerics::stats::RowNormMode;
use std::sync::atomic::{AtomicU64, Ordering};

/// The normalization kind a numerics-level row mode corresponds to.
fn norm_kind(mode: RowNormMode) -> NormKind {
    match mode {
        RowNormMode::LayerNorm => NormKind::LayerNorm,
        RowNormMode::RmsNorm => NormKind::RmsNorm,
    }
}

/// The cycle-level accelerator simulator behind the batched-engine backend trait.
///
/// Functional results go through the fixed-point datapath units; timing goes through
/// the pipeline model and accumulates in [`AccelSimBackend::total_cycles`]. The type
/// is internally synchronised (`&self` everywhere), so one instance can be shared —
/// via [`Arc`](std::sync::Arc) — between a normalizer and the test or report that reads its counters.
#[derive(Debug)]
pub struct AccelSimBackend {
    config: AccelConfig,
    total_cycles: AtomicU64,
    batches: AtomicU64,
}

impl AccelSimBackend {
    /// Pipeline-fill cost of the elementwise residual adder bank that a fused
    /// residual+norm site streams through before the statistics calculator: the
    /// adders sit in front of the ISC, so once full they add no per-element
    /// cycles — only this fixed fill latency, charged once per fused batch.
    pub const RESIDUAL_ADDER_FILL_CYCLES: u64 = 4;

    /// A backend simulating the given hardware configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when [`AccelConfig::validate`] rejects
    /// `config` (zero parallelism, zero pipelines or a non-positive clock), which
    /// would otherwise panic on the first batch.
    pub fn new(config: AccelConfig) -> Result<Self, AccelError> {
        config.validate()?;
        Ok(Self {
            config,
            total_cycles: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        })
    }

    /// The simulated hardware configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Total pipelined cycles accumulated over every batch this backend executed.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles.load(Ordering::Relaxed)
    }

    /// Number of batches (normalization sites) this backend executed.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }
}

impl NormBackend for AccelSimBackend {
    fn name(&self) -> &'static str {
        "accel-sim"
    }

    fn normalize_batch(
        &self,
        request: &BatchRequest<'_>,
        out: &mut [f32],
        mut isds_out: Option<&mut [f32]>,
        scratch: &mut Vec<f32>,
    ) {
        let isc = InputStatisticsCalculator::new(&self.config);
        let sri = SquareRootInverter::new(&self.config);
        let nu = NormalizationUnit::new(&self.config);
        let kind = norm_kind(request.mode);
        let cols = request.cols;
        for (r, (z, out_row)) in request
            .data
            .chunks_exact(cols)
            .zip(out.chunks_exact_mut(cols))
            .enumerate()
        {
            let (mean, isd) = if let Some(predicted) = request.predicted_isd {
                // Skipped layer: the ISD arrives from the predictor unit; only the
                // LayerNorm mean still streams (mean-only) through the statistics
                // calculator.
                let mean = match kind {
                    NormKind::LayerNorm => {
                        request
                            .quantization
                            .apply_into(&z[..request.prefix_len], scratch);
                        isc.compute(scratch, request.prefix_len, true)
                            .map_or(0.0, |stats| stats.mean)
                    }
                    NormKind::RmsNorm => 0.0,
                };
                (mean, predicted[r])
            } else {
                request
                    .quantization
                    .apply_into(&z[..request.prefix_len], scratch);
                let stats = isc
                    .compute(scratch, request.prefix_len, false)
                    .expect("batched buffers were validated by the caller");
                let second_moment = match kind {
                    NormKind::LayerNorm => stats.variance,
                    NormKind::RmsNorm => stats.variance + stats.mean * stats.mean,
                };
                let isd = sri
                    .compute(second_moment)
                    .expect("fixed-point second moments are finite and non-negative")
                    .isd;
                if let Some(isds) = isds_out.as_deref_mut() {
                    isds[r] = isd;
                }
                (stats.mean, isd)
            };
            let normalized = nu
                .normalize(z, mean, isd, request.gamma, request.beta, kind)
                .expect("batched buffers were validated by the caller");
            out_row.copy_from_slice(&normalized.output);
        }

        let stages = site_stage_timing(
            &self.config,
            request.prefix_len,
            cols,
            request.predicted_isd.is_some(),
            kind,
        );
        let report = pipeline_latency(stages, request.rows() as u64, self.config.pipelines as u64);
        self.total_cycles
            .fetch_add(report.total_cycles, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Fused residual+norm on the simulated datapath. Functionally this is the
    /// composed sequence — the residual adders are exact f32 adders in front of
    /// the statistics calculator, so fusing changes no bit of the result — and
    /// the timing model charges the batch's pipelined cycles plus the one-time
    /// adder-bank fill ([`AccelSimBackend::RESIDUAL_ADDER_FILL_CYCLES`]).
    fn fuse_residual_norm(
        &self,
        request: &ResidualNormRequest<'_>,
        sum_out: &mut [f32],
        out: &mut [f32],
        isds_out: Option<&mut [f32]>,
        scratch: &mut Vec<f32>,
    ) {
        for ((s, &a), &b) in sum_out
            .iter_mut()
            .zip(request.norm.data)
            .zip(request.residual)
        {
            *s = a + b;
        }
        let summed = BatchRequest {
            data: &*sum_out,
            ..request.norm
        };
        self.normalize_batch(&summed, out, isds_out, scratch);
        self.total_cycles
            .fetch_add(Self::RESIDUAL_ADDER_FILL_CYCLES, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haan::quantization::QuantizationPolicy;
    use haan_numerics::stats::{VectorStats, DEFAULT_EPS};

    fn request<'a>(
        data: &'a [f32],
        cols: usize,
        gamma: &'a [f32],
        beta: &'a [f32],
        quantization: &'a QuantizationPolicy,
    ) -> BatchRequest<'a> {
        BatchRequest {
            data,
            cols,
            gamma,
            beta,
            mode: RowNormMode::LayerNorm,
            eps: DEFAULT_EPS,
            prefix_len: cols,
            quantization,
            newton_iterations: Some(1),
            predicted_isd: None,
        }
    }

    #[test]
    fn simulated_rows_normalize_and_accumulate_cycles() {
        let backend = AccelSimBackend::new(AccelConfig::haan_v1()).expect("valid config");
        assert_eq!(backend.name(), "accel-sim");
        assert_eq!(backend.config().pd, 128);
        let cols = 256;
        let rows = 3;
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 31) % 23) as f32 / 5.0 - 2.0)
            .collect();
        let gamma = vec![1.0f32; cols];
        let beta = vec![0.0f32; cols];
        let quantization = QuantizationPolicy::new(haan_numerics::Format::Fp16);
        let req = request(&data, cols, &gamma, &beta, &quantization);
        let mut out = vec![0.0f32; rows * cols];
        let mut isds = vec![0.0f32; rows];
        backend.normalize_batch(&req, &mut out, Some(&mut isds), &mut Vec::new());
        for row in out.chunks_exact(cols) {
            let stats = VectorStats::compute(row);
            assert!(stats.mean.abs() < 1e-2);
            assert!((stats.variance - 1.0).abs() < 5e-2);
        }
        for isd in isds {
            assert!(isd > 0.0);
        }
        assert!(backend.total_cycles() > 0);
        assert_eq!(backend.batches(), 1);
    }

    #[test]
    fn degenerate_configurations_are_rejected_at_construction() {
        let degenerate: [fn(&mut AccelConfig); 4] = [
            |c| c.pd = 0,
            |c| c.pn = 0,
            |c| c.pipelines = 0,
            |c| c.clock_mhz = 0.0,
        ];
        for degrade in degenerate {
            let mut config = AccelConfig::haan_v1();
            degrade(&mut config);
            assert!(matches!(
                AccelSimBackend::new(config),
                Err(AccelError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn predicted_isds_bypass_the_square_root_inverter() {
        let backend = AccelSimBackend::new(AccelConfig::haan_v1()).expect("valid config");
        let cols = 64;
        let data: Vec<f32> = (0..cols).map(|i| (i as f32).sin()).collect();
        let gamma = vec![1.0f32; cols];
        let beta = vec![0.0f32; cols];
        let quantization = QuantizationPolicy::new(haan_numerics::Format::Fp32);
        let mut computed_req = request(&data, cols, &gamma, &beta, &quantization);
        let mut computed = vec![0.0f32; cols];
        let mut isds = vec![0.0f32; 1];
        backend.normalize_batch(
            &computed_req,
            &mut computed,
            Some(&mut isds),
            &mut Vec::new(),
        );
        // Re-run with the computed ISD injected as a prediction: same output.
        let predicted_isds = isds.clone();
        computed_req.predicted_isd = Some(&predicted_isds);
        let mut predicted = vec![0.0f32; cols];
        backend.normalize_batch(&computed_req, &mut predicted, None, &mut Vec::new());
        for (a, b) in computed.iter().zip(&predicted) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        // The skipped batch replaces the inverter stage with the predictor's fixed
        // latency, so it can never be slower per vector.
        assert_eq!(backend.batches(), 2);
    }
}
