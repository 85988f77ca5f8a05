//! The analytic HAAN accelerator model: stage timing, power, energy and FPGA cost of
//! whole normalization workloads. The functional datapath runs as the
//! [`AccelSimBackend`](crate::AccelSimBackend) under `haan::HaanNormalizer`'s policy.

use crate::config::AccelConfig;
use crate::error::AccelError;
use crate::pipeline::{pipeline_latency, site_stage_timing, StageTiming};
use crate::power::PowerModel;
use crate::resources::{DeviceCapacity, ResourceEstimate};
use haan::{HaanConfig, SkipPlan};
use haan_llm::NormKind;

/// Timing / energy summary of a whole normalization workload (all layers of a model at
/// a given sequence length).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadReport {
    /// Total cycles across all normalization layers.
    pub total_cycles: u64,
    /// Total latency in microseconds at the configured clock.
    pub latency_us: f64,
    /// Number of normalization layers processed.
    pub layers: usize,
    /// Number of layers whose ISD was predicted.
    pub skipped_layers: usize,
    /// Token vectors per layer.
    pub vectors_per_layer: u64,
    /// Average power in watts over the workload.
    pub average_power_w: f64,
    /// Energy in microjoules.
    pub energy_uj: f64,
    /// Pipeline stage balance of the non-skipped layers (1.0 = perfectly balanced).
    pub stage_balance: f64,
}

/// The analytic model of one accelerator configuration running one HAAN algorithm
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HaanAccelerator {
    config: AccelConfig,
    algorithm: HaanConfig,
    plan: Option<SkipPlan>,
}

impl HaanAccelerator {
    /// Creates an accelerator with the given hardware configuration and HAAN algorithm
    /// configuration. A fixed skip range in the algorithm configuration becomes a plan
    /// with zero decay; attach a calibrated plan with [`HaanAccelerator::with_plan`].
    #[must_use]
    pub fn new(config: AccelConfig, algorithm: HaanConfig) -> Self {
        let plan = algorithm.skip_range.map(|(start, end)| SkipPlan {
            start,
            end,
            decay: 0.0,
            correlation: 0.0,
            calibration_anchor_log_isd: 0.0,
        });
        Self {
            config,
            algorithm,
            plan,
        }
    }

    /// Attaches a calibrated skip plan.
    #[must_use]
    pub fn with_plan(mut self, plan: SkipPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The hardware configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The algorithm configuration.
    #[must_use]
    pub fn algorithm(&self) -> &HaanConfig {
        &self.algorithm
    }

    /// The active skip plan, if any.
    #[must_use]
    pub fn plan(&self) -> Option<&SkipPlan> {
        self.plan.as_ref()
    }

    /// Resource estimate of this configuration.
    #[must_use]
    pub fn resources(&self) -> ResourceEstimate {
        ResourceEstimate::for_config(&self.config)
    }

    /// Checks the design fits on the Alveo U280.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::ResourceOverflow`] when it does not.
    pub fn check_fits_u280(&self) -> Result<(), AccelError> {
        self.resources().check_fits(DeviceCapacity::alveo_u280())
    }

    /// Number of statistics-path elements read per vector of width `embedding_dim`.
    #[must_use]
    pub fn statistics_elements(&self, embedding_dim: usize) -> usize {
        self.algorithm
            .n_sub
            .unwrap_or(embedding_dim)
            .min(embedding_dim)
    }

    /// Per-vector stage timing for a (non-)skipped layer of the given width.
    #[must_use]
    pub fn layer_stage_timing(
        &self,
        embedding_dim: usize,
        skipped: bool,
        kind: NormKind,
    ) -> StageTiming {
        site_stage_timing(
            &self.config,
            self.statistics_elements(embedding_dim),
            embedding_dim,
            skipped,
            kind,
        )
    }

    /// Timing / power / energy estimate for the full normalization workload of a model:
    /// `num_norm_layers` layers of width `embedding_dim` over `seq_len` token vectors.
    #[must_use]
    pub fn workload(
        &self,
        embedding_dim: usize,
        num_norm_layers: usize,
        seq_len: usize,
        kind: NormKind,
    ) -> WorkloadReport {
        let skipped_layers = self
            .plan
            .as_ref()
            .map(|plan| {
                (0..num_norm_layers)
                    .filter(|&layer| plan.is_skipped(layer))
                    .count()
            })
            .unwrap_or(0);
        let normal_layers = num_norm_layers - skipped_layers;

        let normal_stages = self.layer_stage_timing(embedding_dim, false, kind);
        let skipped_stages = self.layer_stage_timing(embedding_dim, true, kind);
        let pipelines = self.config.pipelines as u64;
        let normal_report = pipeline_latency(normal_stages, seq_len as u64, pipelines);
        let skipped_report = pipeline_latency(skipped_stages, seq_len as u64, pipelines);

        let total_cycles = normal_report.total_cycles * normal_layers as u64
            + skipped_report.total_cycles * skipped_layers as u64;
        let latency_us = self.config.cycles_to_us(total_cycles);

        // Activity factors: the statistics lanes are busy for their stage share of the
        // initiation interval; skipped RMSNorm layers idle the statistics path entirely.
        let interval = normal_stages.bottleneck().max(1) as f64;
        let stats_activity_normal = normal_stages.isc as f64 / interval;
        let stats_activity_skipped =
            skipped_stages.isc as f64 / skipped_stages.bottleneck().max(1) as f64;
        let layer_weight = |count: usize| count as f64 / num_norm_layers.max(1) as f64;
        let stats_activity = stats_activity_normal * layer_weight(normal_layers)
            + stats_activity_skipped * layer_weight(skipped_layers);
        let norm_activity = 1.0;

        let power = PowerModel::calibrated().estimate(&self.config, stats_activity, norm_activity);
        let average_power_w = power.total_w();
        let energy_uj = average_power_w * latency_us;

        WorkloadReport {
            total_cycles,
            latency_us,
            layers: num_norm_layers,
            skipped_layers,
            vectors_per_layer: seq_len as u64,
            average_power_w,
            energy_uj,
            stage_balance: normal_stages.balance(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccelSimBackend;
    use haan::HaanNormalizer;
    use haan_llm::norm::{NormSite, Normalizer};
    use haan_llm::Matrix;
    use std::sync::Arc;

    fn tokens(rows: usize, cols: usize) -> Matrix {
        let data = (0..rows)
            .flat_map(|t| (0..cols).map(move |i| ((i * 31 + t * 7) % 23) as f32 / 5.0 - 2.0))
            .collect();
        Matrix::from_vec(rows, cols, data).expect("consistent shape")
    }

    /// Layer 0 anchors, layers 1..=3 are skipped; zero decay predicts each row's
    /// anchor ISD unchanged.
    fn zero_decay_plan() -> SkipPlan {
        SkipPlan {
            start: 0,
            end: 3,
            decay: 0.0,
            correlation: -1.0,
            calibration_anchor_log_isd: 0.0,
        }
    }

    fn site(layer_index: usize, kind: NormKind) -> NormSite {
        NormSite { layer_index, kind }
    }

    #[test]
    fn skipped_layers_use_the_predictor() {
        // The functional accelerator is the simulator attached under the
        // normalizer's skip policy: the anchor computes, the skipped layer gets
        // predicted per-row ISDs.
        let backend = Arc::new(AccelSimBackend::new(AccelConfig::haan_v1()).expect("valid config"));
        let config = HaanConfig::builder().subsample(64).build();
        let mut normalizer = HaanNormalizer::new(config)
            .with_plan(zero_decay_plan())
            .with_external_backend(backend.clone());
        let rows = 2;
        let batch = tokens(rows, 256);
        let gamma = vec![1.0f32; 256];
        let beta = vec![0.0f32; 256];
        let before = backend.batches();
        let anchored =
            normalizer.normalize_matrix(site(0, NormKind::LayerNorm), &batch, &gamma, &beta);
        let skipped =
            normalizer.normalize_matrix(site(1, NormKind::LayerNorm), &batch, &gamma, &beta);
        assert_eq!(backend.batches(), before + 2);
        assert_eq!(normalizer.telemetry().skipped_isd, rows as u64);
        // Identical inputs and zero decay: the skipped output matches the anchor's.
        for (a, b) in anchored.as_slice().iter().zip(skipped.as_slice()) {
            assert!((a - b).abs() < 2e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn model_and_simulator_charge_the_same_cycles() {
        // `workload` prices every layer with `layer_stage_timing`; the simulator must
        // charge exactly that for one site call.
        let (rows, cols) = (5, 1600);
        let batch = tokens(rows, cols);
        let gamma = vec![1.0f32; cols];
        let beta = vec![0.0f32; cols];
        for hardware in [
            AccelConfig::haan_v1(),
            AccelConfig::haan_v2(),
            AccelConfig::haan_v3(),
        ] {
            for n_sub in [None, Some(cols / 2)] {
                let algorithm = HaanConfig {
                    n_sub,
                    ..HaanConfig::default()
                };
                let accel =
                    HaanAccelerator::new(hardware, algorithm.clone()).with_plan(zero_decay_plan());
                let backend = Arc::new(AccelSimBackend::new(hardware).expect("valid config"));
                let mut normalizer = HaanNormalizer::new(algorithm)
                    .with_plan(zero_decay_plan())
                    .with_external_backend(backend.clone());
                for kind in [NormKind::LayerNorm, NormKind::RmsNorm] {
                    normalizer.begin_sequence();
                    for (layer, skipped) in [(0, false), (1, true)] {
                        assert_eq!(normalizer.is_skipped_site(layer), skipped);
                        let before = backend.total_cycles();
                        let mut out = Matrix::zeros(rows, cols);
                        normalizer.normalize_matrix_into(
                            site(layer, kind),
                            &batch,
                            &gamma,
                            &beta,
                            &mut out,
                        );
                        let model = pipeline_latency(
                            accel.layer_stage_timing(cols, skipped, kind),
                            rows as u64,
                            hardware.pipelines as u64,
                        );
                        assert_eq!(
                            backend.total_cycles() - before,
                            model.total_cycles,
                            "{hardware:?} n_sub {n_sub:?} {kind} skipped {skipped}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn subsampling_reduces_statistics_stage_time_and_power() {
        let full = HaanAccelerator::new(AccelConfig::haan_v1(), HaanConfig::unoptimized());
        let sub = HaanAccelerator::new(
            AccelConfig::haan_v1(),
            HaanConfig::builder()
                .subsample(800)
                .format(haan_numerics::Format::Fp16)
                .build(),
        );
        let full_timing = full.layer_stage_timing(1600, false, NormKind::LayerNorm);
        let sub_timing = sub.layer_stage_timing(1600, false, NormKind::LayerNorm);
        assert!(sub_timing.isc < full_timing.isc);
        assert_eq!(sub_timing.norm, full_timing.norm);

        let full_report = full.workload(1600, 97, 128, NormKind::LayerNorm);
        let sub_report = sub.workload(1600, 97, 128, NormKind::LayerNorm);
        assert!(sub_report.average_power_w < full_report.average_power_w);
    }

    #[test]
    fn workload_counts_skipped_layers() {
        let plan = SkipPlan {
            start: 85,
            end: 92,
            decay: -0.03,
            correlation: -1.0,
            calibration_anchor_log_isd: -1.0,
        };
        let accel = HaanAccelerator::new(
            AccelConfig::haan_v1(),
            HaanConfig::gpt2_1_5b_paper().rescaled_subsample(1600, 1600),
        )
        .with_plan(plan);
        let report = accel.workload(1600, 97, 256, NormKind::LayerNorm);
        assert_eq!(report.layers, 97);
        assert_eq!(report.skipped_layers, 7);
        assert_eq!(report.vectors_per_layer, 256);
        assert!(report.latency_us > 0.0);
        assert!(report.energy_uj > 0.0);
        assert!(report.stage_balance > 0.0 && report.stage_balance <= 1.0);
    }

    #[test]
    fn haan_v2_balances_the_pipeline_better_under_subsampling() {
        let algorithm = HaanConfig::builder().subsample(800).build();
        let v1 = HaanAccelerator::new(AccelConfig::haan_v1(), algorithm.clone());
        let v2 = HaanAccelerator::new(AccelConfig::haan_v2(), algorithm);
        let t1 = v1.layer_stage_timing(1600, false, NormKind::LayerNorm);
        let t2 = v2.layer_stage_timing(1600, false, NormKind::LayerNorm);
        assert!(
            t2.balance() > t1.balance(),
            "{} vs {}",
            t2.balance(),
            t1.balance()
        );
    }

    #[test]
    fn accessors_and_resource_check() {
        let accel = HaanAccelerator::new(AccelConfig::haan_v3(), HaanConfig::opt_2_7b_paper());
        assert_eq!(accel.config().pd, 64);
        assert_eq!(accel.algorithm().n_sub, Some(1280));
        assert!(accel.plan().is_some());
        assert!(accel.check_fits_u280().is_ok());
        assert_eq!(accel.statistics_elements(2560), 1280);
        assert_eq!(accel.statistics_elements(512), 512);
        let resources = accel.resources();
        assert!(resources.dsp > 0);
    }

    #[test]
    fn rmsnorm_skipped_layers_idle_the_statistics_path() {
        let plan = SkipPlan {
            start: 10,
            end: 20,
            decay: -0.05,
            correlation: -1.0,
            calibration_anchor_log_isd: 0.0,
        };
        let accel = HaanAccelerator::new(AccelConfig::haan_v1(), HaanConfig::llama_7b_paper())
            .with_plan(plan);
        let timing = accel.layer_stage_timing(4096, true, NormKind::RmsNorm);
        assert_eq!(timing.isc, 1);
        let normal = accel.layer_stage_timing(4096, false, NormKind::RmsNorm);
        assert!(normal.isc > 1);
    }
}
