//! HAAN configuration and the per-model presets evaluated in the paper.

use crate::error::HaanError;
use haan_numerics::Format;

/// Which software backend the batched normalization engine runs.
///
/// The policy side of HAAN (skipping, subsampling, quantization) is independent of
/// *how* the row sweep executes; this enum picks the execution substrate (see
/// [`crate::backend`] for the backend implementations and `ARCHITECTURE.md` for the
/// dispatch diagram). A backend attached with
/// [`HaanNormalizer::with_external_backend`](crate::HaanNormalizer::with_external_backend)
/// — such as `haan_accel`'s cycle-level accelerator simulator — takes precedence over
/// this selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendSelection {
    /// The two-pass scalar oracle (`ScalarBackend`).
    Scalar,
    /// The fused chunked kernel (`FusedBackend`), the software hot path.
    #[default]
    Fused,
}

impl std::fmt::Display for BackendSelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            BackendSelection::Scalar => "scalar",
            BackendSelection::Fused => "fused",
        };
        f.write_str(name)
    }
}

/// Configuration of the HAAN normalization approximation.
///
/// Build one with [`HaanConfig::builder`] or use a per-model preset matching Section
/// V-A of the paper.
///
/// # Example
///
/// ```
/// use haan::HaanConfig;
/// use haan_numerics::Format;
///
/// let config = HaanConfig::builder()
///     .subsample(256)
///     .skip_range(50, 60)
///     .format(Format::Int8)
///     .build();
/// assert_eq!(config.n_sub, Some(256));
/// assert_eq!(config.skip_range, Some((50, 60)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HaanConfig {
    /// Human-readable label for reports.
    pub label: String,
    /// Subsample length `Nsub`; `None` disables subsampling (full input statistics).
    pub n_sub: Option<usize>,
    /// Fixed skip range `(i, j)`; `None` means either no skipping or a calibrated range.
    pub skip_range: Option<(usize, usize)>,
    /// Operand quantization format for the statistics datapath.
    pub format: Format,
    /// Number of Newton iterations in the fast inverse square root; `None` uses the
    /// exact square root (no bit-trick approximation).
    pub invsqrt_newton_iterations: Option<u32>,
    /// Execution-backend selection of the batched normalization engine.
    pub backend: BackendSelection,
}

impl HaanConfig {
    /// Starts building a configuration.
    #[must_use]
    pub fn builder() -> HaanConfigBuilder {
        HaanConfigBuilder::default()
    }

    /// A configuration with every optimization disabled — numerically equivalent to the
    /// reference normalizer; useful as a sanity baseline.
    #[must_use]
    pub fn unoptimized() -> Self {
        Self {
            label: "unoptimized".to_string(),
            n_sub: None,
            skip_range: None,
            format: Format::Fp32,
            invsqrt_newton_iterations: None,
            backend: BackendSelection::Fused,
        }
    }

    /// The LLaMA-7B preset of Section V-A: `Nsub = 256`, skip range (50, 60), INT8.
    #[must_use]
    pub fn llama_7b_paper() -> Self {
        Self {
            label: "HAAN (LLaMA-7B preset)".to_string(),
            n_sub: Some(256),
            skip_range: Some((50, 60)),
            format: Format::Int8,
            invsqrt_newton_iterations: Some(1),
            backend: BackendSelection::Fused,
        }
    }

    /// The OPT-2.7B preset of Section V-A: `Nsub = 1280`, skip range (55, 62), FP16.
    #[must_use]
    pub fn opt_2_7b_paper() -> Self {
        Self {
            label: "HAAN (OPT-2.7B preset)".to_string(),
            n_sub: Some(1280),
            skip_range: Some((55, 62)),
            format: Format::Fp16,
            invsqrt_newton_iterations: Some(1),
            backend: BackendSelection::Fused,
        }
    }

    /// The GPT2-1.5B preset of Section V-A: `Nsub = 800`, skip range (85, 92), FP16.
    #[must_use]
    pub fn gpt2_1_5b_paper() -> Self {
        Self {
            label: "HAAN (GPT2-1.5B preset)".to_string(),
            n_sub: Some(800),
            skip_range: Some((85, 92)),
            format: Format::Fp16,
            invsqrt_newton_iterations: Some(1),
            backend: BackendSelection::Fused,
        }
    }

    /// Scales a paper preset to a laptop-scale model: the skip range is kept (layer
    /// structure is preserved by `ModelConfig::scaled_down`) but `Nsub` is rescaled in
    /// proportion to the reduced embedding width.
    #[must_use]
    pub fn rescaled_subsample(mut self, paper_dim: usize, actual_dim: usize) -> Self {
        if let Some(n_sub) = self.n_sub {
            let scaled = (n_sub as f64 * actual_dim as f64 / paper_dim as f64).round() as usize;
            self.n_sub = Some(scaled.max(8).min(actual_dim));
        }
        self
    }

    /// Validates the configuration against a model's normalization-layer count.
    ///
    /// # Errors
    ///
    /// Returns [`HaanError::InvalidSkipRange`] or [`HaanError::InvalidConfig`] when a
    /// field is out of range.
    pub fn validate(&self, num_norm_layers: usize) -> Result<(), HaanError> {
        if let Some((start, end)) = self.skip_range {
            if start >= end || end >= num_norm_layers {
                return Err(HaanError::InvalidSkipRange {
                    range: (start, end),
                    num_layers: num_norm_layers,
                });
            }
        }
        if self.n_sub == Some(0) {
            return Err(HaanError::InvalidConfig(
                "subsample length must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

impl Default for HaanConfig {
    fn default() -> Self {
        Self {
            label: "HAAN (default)".to_string(),
            n_sub: None,
            skip_range: None,
            format: Format::Fp16,
            invsqrt_newton_iterations: Some(1),
            backend: BackendSelection::Fused,
        }
    }
}

/// Builder for [`HaanConfig`].
#[derive(Debug, Clone, Default)]
pub struct HaanConfigBuilder {
    config: HaanConfig,
}

impl HaanConfigBuilder {
    /// Sets the report label.
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.config.label = label.into();
        self
    }

    /// Enables subsampling with the given `Nsub`.
    #[must_use]
    pub fn subsample(mut self, n_sub: usize) -> Self {
        self.config.n_sub = Some(n_sub);
        self
    }

    /// Sets a fixed skip range `(start, end)` (inclusive endpoints, `start` is the anchor).
    #[must_use]
    pub fn skip_range(mut self, start: usize, end: usize) -> Self {
        self.config.skip_range = Some((start, end));
        self
    }

    /// Sets the operand quantization format.
    #[must_use]
    pub fn format(mut self, format: Format) -> Self {
        self.config.format = format;
        self
    }

    /// Sets the number of Newton iterations of the fast inverse square root
    /// (`None` = exact square root).
    #[must_use]
    pub fn invsqrt_iterations(mut self, iterations: Option<u32>) -> Self {
        self.config.invsqrt_newton_iterations = iterations;
        self
    }

    /// Sets the execution backend of the batched normalization engine.
    #[must_use]
    pub fn backend(mut self, backend: BackendSelection) -> Self {
        self.config.backend = backend;
        self
    }

    /// Finishes building.
    #[must_use]
    pub fn build(self) -> HaanConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper() {
        let llama = HaanConfig::llama_7b_paper();
        assert_eq!(llama.n_sub, Some(256));
        assert_eq!(llama.skip_range, Some((50, 60)));
        assert_eq!(llama.format, Format::Int8);

        let opt = HaanConfig::opt_2_7b_paper();
        assert_eq!(opt.n_sub, Some(1280));
        assert_eq!(opt.skip_range, Some((55, 62)));
        assert_eq!(opt.format, Format::Fp16);

        let gpt2 = HaanConfig::gpt2_1_5b_paper();
        assert_eq!(gpt2.n_sub, Some(800));
        assert_eq!(gpt2.skip_range, Some((85, 92)));
        assert_eq!(gpt2.format, Format::Fp16);
    }

    #[test]
    fn validation_against_layer_counts() {
        assert!(HaanConfig::llama_7b_paper().validate(65).is_ok());
        assert!(HaanConfig::llama_7b_paper().validate(40).is_err());
        assert!(HaanConfig::gpt2_1_5b_paper().validate(97).is_ok());
        let bad = HaanConfig {
            n_sub: Some(0),
            ..HaanConfig::default()
        };
        assert!(bad.validate(10).is_err());
        let reversed = HaanConfig::builder().skip_range(20, 10).build();
        assert!(reversed.validate(65).is_err());
        assert!(HaanConfig::unoptimized().validate(1).is_ok());
    }

    #[test]
    fn builder_sets_all_fields() {
        let config = HaanConfig::builder()
            .label("test")
            .subsample(128)
            .skip_range(3, 9)
            .format(Format::Int8)
            .invsqrt_iterations(Some(2))
            .build();
        assert_eq!(config.label, "test");
        assert_eq!(config.n_sub, Some(128));
        assert_eq!(config.skip_range, Some((3, 9)));
        assert_eq!(config.format, Format::Int8);
        assert_eq!(config.invsqrt_newton_iterations, Some(2));
    }

    #[test]
    fn rescaling_subsample_tracks_width_reduction() {
        let config = HaanConfig::llama_7b_paper().rescaled_subsample(4096, 64);
        // 256 / 4096 * 64 = 4, clamped up to the minimum of 8.
        assert_eq!(config.n_sub, Some(8));
        let config = HaanConfig::opt_2_7b_paper().rescaled_subsample(2560, 128);
        assert_eq!(config.n_sub, Some(64));
        // Without subsampling, rescaling is a no-op.
        assert_eq!(
            HaanConfig::unoptimized().rescaled_subsample(4096, 64).n_sub,
            None
        );
    }

    #[test]
    fn backend_selection_display_and_builder() {
        assert_eq!(BackendSelection::default(), BackendSelection::Fused);
        assert_eq!(BackendSelection::Scalar.to_string(), "scalar");
        assert_eq!(BackendSelection::Fused.to_string(), "fused");
        let config = HaanConfig::builder()
            .backend(BackendSelection::Scalar)
            .build();
        assert_eq!(config.backend, BackendSelection::Scalar);
        assert_eq!(HaanConfig::default().backend, BackendSelection::Fused);
    }

    #[test]
    fn partial_construction_via_struct_update_syntax() {
        // Ergonomics contract used by examples and the serving layer: every
        // engine-facing config must support `..Default::default()` construction.
        let config = HaanConfig {
            n_sub: Some(128),
            backend: BackendSelection::Scalar,
            ..Default::default()
        };
        assert_eq!(config.n_sub, Some(128));
        assert_eq!(config.backend, BackendSelection::Scalar);
        assert_eq!(config.format, HaanConfig::default().format);
        // The enum itself carries a default usable in that position.
        assert_eq!(BackendSelection::default(), BackendSelection::Fused);
    }

    #[test]
    fn default_and_unoptimized() {
        assert_eq!(HaanConfig::default().format, Format::Fp16);
        let unopt = HaanConfig::unoptimized();
        assert!(unopt.n_sub.is_none());
        assert!(unopt.skip_range.is_none());
        assert!(unopt.invsqrt_newton_iterations.is_none());
    }
}
