//! The Input Statistics Calculator (Fig. 4).
//!
//! The unit streams `pd` elements per cycle from memory, converts them to fixed point
//! (FP2FX, bypassed for INT8 inputs), and feeds two parallel datapaths: one computing
//! `Σ zᵢ²/N` through a multiplier array and adder tree, the other computing
//! `(Σ zᵢ/N)²` through an adder tree and a final squaring multiplier. A subtractor then
//! produces `Var(z) = E[z²] − E[z]²` (Eq. 5). Because `N` (or the subsample length) is
//! known in advance, the `1/N` factor is a precomputed constant — and a pure shift when
//! `N` is a power of two.
//!
//! The input tensor sits in memory flattened row-major, in entries `pd` elements
//! wide (Fig. 7); the unit reads one entry per cycle, and in subsampling mode only
//! the initial entries of each vector.

use crate::adder_tree::AdderTree;
use crate::config::AccelConfig;
use crate::error::AccelError;
use haan_numerics::{FpToFx, QFormat};

/// Functional + timing result of one statistics computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IscResult {
    /// Mean of the processed elements (fixed-point rounded).
    pub mean: f32,
    /// Variance of the processed elements (fixed-point rounded, clamped at zero).
    pub variance: f32,
    /// Number of elements processed (after subsampling).
    pub elements: usize,
    /// Number of input passes (memory entries) consumed.
    pub passes: u64,
    /// Latency of this computation in cycles.
    pub cycles: u64,
}

/// The input statistics calculator.
#[derive(Debug, Clone, PartialEq)]
pub struct InputStatisticsCalculator {
    pd: usize,
    converter: FpToFx,
    accumulator_format: QFormat,
    sum_tree: AdderTree,
}

impl InputStatisticsCalculator {
    /// Builds the unit for an accelerator configuration.
    #[must_use]
    pub fn new(config: &AccelConfig) -> Self {
        let accumulator_format = QFormat::Q32_24;
        Self {
            pd: config.pd,
            converter: FpToFx::new(config.format, config.internal),
            accumulator_format,
            sum_tree: AdderTree::new(config.pd, accumulator_format),
        }
    }

    /// Input parallelism (elements per cycle).
    #[must_use]
    pub fn pd(&self) -> usize {
        self.pd
    }

    /// Computes mean and variance of the first `n_used` elements of `z`.
    ///
    /// When `mean_only` is set (a *skipped* layer that still needs the LayerNorm mean)
    /// the squaring datapath is idle, which the power model accounts for, but the cycle
    /// count is unchanged because both datapaths share the input stream.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidWorkload`] when `z` is empty or `n_used` is zero.
    pub fn compute(
        &self,
        z: &[f32],
        n_used: usize,
        mean_only: bool,
    ) -> Result<IscResult, AccelError> {
        if z.is_empty() || n_used == 0 {
            return Err(AccelError::InvalidWorkload(
                "the statistics calculator needs at least one element".to_string(),
            ));
        }
        let n = n_used.min(z.len());
        let inv_n = 1.0 / n as f64;

        // Stream the input pd elements per pass, accumulating Σz and Σz² in fixed point.
        let mut sum = haan_numerics::Fixed::zero(self.accumulator_format);
        let mut sum_sq = haan_numerics::Fixed::zero(self.accumulator_format);
        let mut passes = 0u64;
        for chunk in z[..n].chunks(self.pd) {
            passes += 1;
            let converted = self.converter.convert_slice(chunk);
            // Scale each element by 1/N before accumulation, as the hardware does with
            // its precomputed constant, which keeps the accumulator in range.
            let scaled: Vec<haan_numerics::Fixed> = converted
                .iter()
                .map(|v| {
                    haan_numerics::Fixed::from_f64(v.to_f64() * inv_n, self.accumulator_format)
                })
                .collect();
            sum = sum.saturating_add(self.sum_tree.reduce(&scaled));
            if !mean_only {
                let squared: Vec<haan_numerics::Fixed> = converted
                    .iter()
                    .map(|v| {
                        haan_numerics::Fixed::from_f64(
                            v.to_f64() * v.to_f64() * inv_n,
                            self.accumulator_format,
                        )
                    })
                    .collect();
                sum_sq = sum_sq.saturating_add(self.sum_tree.reduce(&squared));
            }
        }

        let mean = sum.to_f64();
        let variance = if mean_only {
            0.0
        } else {
            (sum_sq.to_f64() - mean * mean).max(0.0)
        };

        Ok(IscResult {
            mean: mean as f32,
            variance: variance as f32,
            elements: n,
            passes,
            cycles: self.cycles_for(n),
        })
    }

    /// Latency in cycles for processing `n_used` elements: one cycle per input pass plus
    /// the pipelined adder-tree depth, the FP2FX stage, and the final mean-square /
    /// subtract stage (2 cycles, Fig. 4's "Cycle 1 / Cycle 2").
    #[must_use]
    pub fn cycles_for(&self, n_used: usize) -> u64 {
        let passes = (n_used as u64).div_ceil(self.pd as u64).max(1);
        passes + self.converter.latency_cycles() + u64::from(self.sum_tree.depth()) + 2
    }

    /// Throughput-limiting cycles per vector when the unit is part of a pipeline
    /// (the pass count only; the fixed stages are overlapped with other vectors).
    #[must_use]
    pub fn stage_cycles(&self, n_used: usize) -> u64 {
        (n_used as u64).div_ceil(self.pd as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haan_numerics::stats::VectorStats;
    use proptest::prelude::*;

    fn unit(pd: usize) -> InputStatisticsCalculator {
        let config = AccelConfig {
            pd,
            ..AccelConfig::haan_v1()
        };
        InputStatisticsCalculator::new(&config)
    }

    #[test]
    fn matches_reference_statistics() {
        let isc = unit(128);
        let z: Vec<f32> = (0..512)
            .map(|i| ((i * 13) % 37) as f32 / 7.0 - 2.0)
            .collect();
        let result = isc.compute(&z, 512, false).unwrap();
        let reference = VectorStats::compute(&z);
        assert!((result.mean - reference.mean).abs() < 1e-2);
        assert!((result.variance - reference.variance).abs() < 5e-2);
        assert_eq!(result.elements, 512);
        assert_eq!(result.passes, 4);
    }

    #[test]
    fn subsampling_reduces_passes_and_cycles() {
        let isc = unit(128);
        let z: Vec<f32> = (0..1024).map(|i| (i as f32).sin()).collect();
        let full = isc.compute(&z, 1024, false).unwrap();
        let sub = isc.compute(&z, 256, false).unwrap();
        assert!(sub.passes < full.passes);
        assert!(sub.cycles < full.cycles);
        assert_eq!(sub.elements, 256);
        // The subsampled statistics still resemble the full ones for stationary data.
        assert!((sub.variance - full.variance).abs() / full.variance < 0.2);
    }

    #[test]
    fn mean_only_mode_produces_zero_variance() {
        let isc = unit(64);
        let z = vec![3.0f32; 128];
        let result = isc.compute(&z, 128, true).unwrap();
        assert!((result.mean - 3.0).abs() < 1e-3);
        assert_eq!(result.variance, 0.0);
    }

    #[test]
    fn cycle_model_matches_figure4_structure() {
        let isc = unit(128);
        // 512 elements / 128 lanes = 4 passes; adder tree depth log2(128) = 7;
        // +1 FP2FX, +2 final stages.
        assert_eq!(isc.cycles_for(512), 4 + 1 + 7 + 2);
        assert_eq!(isc.stage_cycles(512), 4);
        assert_eq!(isc.stage_cycles(1), 1);
        assert_eq!(isc.pd(), 128);
    }

    #[test]
    fn paper_example_two_by_four_with_bandwidth_two() {
        // Fig. 7: a 2×4 tensor in entries of width 2 occupies 4 entries, two per vector.
        let fig7 = unit(2);
        let rows: [[f32; 4]; 2] = [[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]];
        let entries: u64 = rows.iter().map(|row| fig7.stage_cycles(row.len())).sum();
        assert_eq!(entries, 4);
        let second = fig7.compute(&rows[1], 4, false).unwrap();
        assert_eq!(second.passes, 2);
        assert!((second.mean - 5.5).abs() < 1e-2);
        // Subsampling reads only the initial entry of each vector.
        assert_eq!(fig7.stage_cycles(2), 1);
    }

    #[test]
    fn subsampling_reads_only_initial_entries() {
        let isc = unit(64);
        assert_eq!(isc.stage_cycles(64), 1);
        assert_eq!(isc.stage_cycles(65), 2);
        assert_eq!(isc.stage_cycles(256), 4);
        // A prefix longer than the vector reads the whole vector and no more.
        let z: Vec<f32> = (0..256).map(|i| i as f32 / 256.0).collect();
        assert_eq!(isc.compute(&z, 10_000, false).unwrap().passes, 4);
        // Three 256-wide vectors: a 128-element prefix reads 6 entries, the full rows 12.
        let partial: u64 = (0..3)
            .map(|_| isc.compute(&z, 128, false).unwrap().passes)
            .sum();
        let full: u64 = (0..3)
            .map(|_| isc.compute(&z, 256, false).unwrap().passes)
            .sum();
        assert_eq!(partial, 6);
        assert_eq!(full, 12);
        assert_eq!(isc.compute(&z, 128, false).unwrap().elements, 128);
    }

    #[test]
    fn int8_input_bypasses_conversion_cycle() {
        let config = AccelConfig {
            format: haan_numerics::Format::Int8,
            ..AccelConfig::haan_v1()
        };
        let isc = InputStatisticsCalculator::new(&config);
        // Same pass/tree structure but no FP2FX cycle.
        assert_eq!(isc.cycles_for(512), 4 + 7 + 2);
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let isc = unit(16);
        assert!(isc.compute(&[], 16, false).is_err());
        assert!(isc.compute(&[1.0], 0, false).is_err());
    }

    proptest! {
        #[test]
        fn prop_variance_is_close_to_reference(
            xs in proptest::collection::vec(-8.0f32..8.0, 2..512),
            pd in 1usize..256,
        ) {
            let isc = unit(pd);
            let result = isc.compute(&xs, xs.len(), false).unwrap();
            let reference = VectorStats::compute(&xs);
            prop_assert!((result.mean - reference.mean).abs() < 0.05);
            prop_assert!((result.variance - reference.variance).abs() < 0.3);
            prop_assert!(result.variance >= 0.0);
        }

        #[test]
        fn prop_cycles_decrease_monotonically_with_subsampling(
            n_full in 2usize..2048,
            pd in 1usize..256,
        ) {
            let isc = unit(pd);
            let n_sub = n_full / 2 + 1;
            prop_assert!(isc.cycles_for(n_sub) <= isc.cycles_for(n_full));
        }
    }
}
