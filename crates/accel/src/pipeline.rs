//! Inter-sample pipelining of the three accelerator stages.
//!
//! The input statistics calculator, square root inverter and normalization units
//! operate on different token vectors concurrently (Section IV-C: "operate in a
//! pipelined manner across multiple input samples"). The steady-state throughput is
//! therefore set by the slowest stage, and the paper's `(pd, pn)` choices aim to
//! balance the stages ("the time of the different stages of the pipeline is evenly
//! distributed").

use crate::config::AccelConfig;
use crate::isc::InputStatisticsCalculator;
use crate::norm_unit::NormalizationUnit;
use crate::predictor_unit::IsdPredictorUnit;
use crate::sqrt_inv::SquareRootInverter;
use haan_llm::NormKind;

/// Per-vector cycle counts of the three pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    /// Input statistics calculator cycles per vector (throughput-limiting part).
    pub isc: u64,
    /// Square root inverter (or predictor) cycles per vector.
    pub sqrt_inv: u64,
    /// Normalization unit cycles per vector.
    pub norm: u64,
}

impl StageTiming {
    /// The slowest stage, which sets the steady-state initiation interval.
    #[must_use]
    pub fn bottleneck(&self) -> u64 {
        self.isc.max(self.sqrt_inv).max(self.norm)
    }

    /// Sum of the stage latencies (the pipeline fill time for the first vector).
    #[must_use]
    pub fn fill(&self) -> u64 {
        self.isc + self.sqrt_inv + self.norm
    }

    /// Stage-balance metric in `(0, 1]`: the mean stage time divided by the bottleneck.
    /// A perfectly balanced pipeline scores 1.
    #[must_use]
    pub fn balance(&self) -> f64 {
        let bottleneck = self.bottleneck();
        if bottleneck == 0 {
            return 1.0;
        }
        let mean = (self.isc + self.sqrt_inv + self.norm) as f64 / 3.0;
        mean / bottleneck as f64
    }
}

/// Per-vector stage timing of one normalization site of width `cols` whose
/// statistics read the first `prefix_len` elements of each vector.
///
/// This is the one stage-composition rule: the analytic model
/// ([`HaanAccelerator::layer_stage_timing`](crate::HaanAccelerator::layer_stage_timing))
/// and the simulator ([`AccelSimBackend`](crate::AccelSimBackend)) both call it. A
/// `skipped` site takes its ISD from the predictor unit instead of the square root
/// inverter; a skipped RMSNorm site needs no mean, so it also bypasses the statistics
/// path.
#[must_use]
pub fn site_stage_timing(
    config: &AccelConfig,
    prefix_len: usize,
    cols: usize,
    skipped: bool,
    kind: NormKind,
) -> StageTiming {
    let isc = if skipped && kind == NormKind::RmsNorm {
        1
    } else {
        InputStatisticsCalculator::new(config).stage_cycles(prefix_len)
    };
    let sqrt_inv = if skipped {
        IsdPredictorUnit::LATENCY_CYCLES
    } else {
        SquareRootInverter::new(config).cycles()
    };
    StageTiming {
        isc,
        sqrt_inv,
        norm: NormalizationUnit::new(config).stage_cycles(cols),
    }
}

/// Timing of one pipelined run over a batch of vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Number of vectors processed.
    pub vectors: u64,
    /// Per-vector stage timing.
    pub stages: StageTiming,
    /// Total cycles, including the pipeline fill.
    pub total_cycles: u64,
    /// Steady-state initiation interval (cycles between consecutive vector completions).
    pub initiation_interval: u64,
}

impl PipelineReport {
    /// Average cycles per vector (total divided by vector count).
    #[must_use]
    pub fn cycles_per_vector(&self) -> f64 {
        if self.vectors == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.vectors as f64
        }
    }
}

/// Computes the pipelined latency of processing `vectors` vectors with the given
/// per-vector stage timing, over `pipelines` parallel sample pipelines.
#[must_use]
pub fn pipeline_latency(stages: StageTiming, vectors: u64, pipelines: u64) -> PipelineReport {
    let pipelines = pipelines.max(1);
    let per_pipeline = vectors.div_ceil(pipelines);
    let initiation_interval = stages.bottleneck();
    let total_cycles = if per_pipeline == 0 {
        0
    } else {
        stages.fill() + (per_pipeline - 1) * initiation_interval
    };
    PipelineReport {
        vectors,
        stages,
        total_cycles,
        initiation_interval,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_vector_latency_is_the_fill_time() {
        let stages = StageTiming {
            isc: 10,
            sqrt_inv: 6,
            norm: 13,
        };
        let report = pipeline_latency(stages, 1, 1);
        assert_eq!(report.total_cycles, 29);
        assert_eq!(report.initiation_interval, 13);
        assert_eq!(report.vectors, 1);
    }

    #[test]
    fn steady_state_throughput_is_set_by_the_bottleneck() {
        let stages = StageTiming {
            isc: 10,
            sqrt_inv: 6,
            norm: 13,
        };
        let report = pipeline_latency(stages, 101, 1);
        assert_eq!(report.total_cycles, 29 + 100 * 13);
        // Average cycles per vector approaches the bottleneck for long batches.
        assert!((report.cycles_per_vector() - 13.0).abs() < 0.3);
    }

    #[test]
    fn balanced_stages_score_one() {
        let balanced = StageTiming {
            isc: 8,
            sqrt_inv: 8,
            norm: 8,
        };
        assert!((balanced.balance() - 1.0).abs() < 1e-12);
        let skewed = StageTiming {
            isc: 2,
            sqrt_inv: 2,
            norm: 20,
        };
        assert!(skewed.balance() < 0.5);
        assert_eq!(
            StageTiming {
                isc: 0,
                sqrt_inv: 0,
                norm: 0
            }
            .balance(),
            1.0
        );
    }

    #[test]
    fn multiple_pipelines_divide_the_batch() {
        let stages = StageTiming {
            isc: 5,
            sqrt_inv: 5,
            norm: 5,
        };
        let single = pipeline_latency(stages, 100, 1);
        let dual = pipeline_latency(stages, 100, 2);
        assert!(dual.total_cycles < single.total_cycles);
        assert_eq!(dual.total_cycles, 15 + 49 * 5);
        // Zero pipelines is clamped to one.
        assert_eq!(
            pipeline_latency(stages, 10, 0).total_cycles,
            pipeline_latency(stages, 10, 1).total_cycles
        );
    }

    #[test]
    fn zero_vectors_take_zero_cycles() {
        let stages = StageTiming {
            isc: 5,
            sqrt_inv: 5,
            norm: 5,
        };
        let report = pipeline_latency(stages, 0, 1);
        assert_eq!(report.total_cycles, 0);
        assert_eq!(report.cycles_per_vector(), 0.0);
    }

    proptest! {
        #[test]
        fn prop_total_cycles_bounded_by_sequential_execution(
            isc in 1u64..64,
            sqrt_inv in 1u64..64,
            norm in 1u64..64,
            vectors in 1u64..512,
        ) {
            let stages = StageTiming { isc, sqrt_inv, norm };
            let report = pipeline_latency(stages, vectors, 1);
            // Pipelining can never be slower than fully sequential execution…
            prop_assert!(report.total_cycles <= stages.fill() * vectors);
            // …and never faster than the bottleneck stage processing every vector.
            prop_assert!(report.total_cycles >= stages.bottleneck() * vectors);
        }
    }
}
