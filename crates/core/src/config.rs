//! HAAN configuration and the per-model presets evaluated in the paper.

use crate::error::HaanError;
use haan_numerics::Format;

/// How the batched normalization engine distributes rows across threads.
///
/// Row kernels are independent, so the parallel path is bit-identical to the
/// sequential one — the policy only trades latency against thread overhead. The
/// default is [`ParallelPolicy::Sequential`]: small models lose more to thread
/// startup than they gain, and determinism-sensitive callers get the simplest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParallelPolicy {
    /// Process every row on the calling thread. This is a hard guarantee: no layer
    /// of the engine (including [`BackendSelection::Auto`]) spawns worker threads
    /// behind a `Sequential` policy.
    #[default]
    Sequential,
    /// Split rows across up to `n` scoped worker threads (values of 0 or 1 fall back
    /// to the sequential path).
    Threads(usize),
    /// Use the host's available parallelism when the batch is large enough to
    /// amortise thread startup, otherwise stay sequential. The threshold here is
    /// format-blind (a policy knows nothing about operand formats);
    /// [`BackendSelection::Auto`] layers the format-aware variant
    /// ([`BackendSelection::auto_parallel_elements`]) on top of this policy.
    Auto,
}

/// Minimum batch rows before any auto heuristic fans out to worker threads.
const AUTO_PARALLEL_MIN_ROWS: usize = 4;

/// Elements-per-batch threshold for fanning out with untouched-FP32 statistics.
/// Thread startup costs tens of microseconds; only fan out when each worker gets a
/// meaningful slice of work. The format-aware variant is
/// [`BackendSelection::auto_parallel_elements`].
const AUTO_PARALLEL_ELEMENTS_FP32: usize = 64 * 1024;

impl ParallelPolicy {
    /// Number of worker threads to use for a `rows × cols` batch (1 = sequential).
    #[must_use]
    pub fn worker_count(&self, rows: usize, cols: usize) -> usize {
        let limit = match self {
            ParallelPolicy::Sequential => 1,
            ParallelPolicy::Threads(n) => (*n).max(1),
            ParallelPolicy::Auto => {
                if rows >= AUTO_PARALLEL_MIN_ROWS
                    && rows.saturating_mul(cols) >= AUTO_PARALLEL_ELEMENTS_FP32
                {
                    std::thread::available_parallelism().map_or(1, usize::from)
                } else {
                    1
                }
            }
        };
        limit.min(rows.max(1))
    }
}

/// Which execution backend the batched normalization engine dispatches to.
///
/// The policy side of HAAN (skipping, subsampling, quantization) is independent of
/// *how* the row sweep executes; this enum picks the execution substrate (see
/// [`crate::backend`] for the backend implementations and `ARCHITECTURE.md` for the
/// dispatch diagram). The default is [`BackendSelection::Auto`], which chooses
/// between the fused and row-parallel software paths from the batch shape, the
/// operand format and the configured [`ParallelPolicy`] — it never auto-selects the
/// scalar oracle (strictly slower) or the accelerator simulator (a functional/timing
/// model, not a fast path), and it never parallelizes a
/// [`ParallelPolicy::Sequential`] configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendSelection {
    /// Shape/format heuristic over the fused and parallel backends (see
    /// [`BackendSelection::resolve`]).
    #[default]
    Auto,
    /// Always the two-pass scalar oracle (`ScalarBackend`).
    Scalar,
    /// Always the fused sequential kernel (`FusedBackend`).
    Fused,
    /// Always the row-parallel path (`ParallelBackend`), honoring
    /// [`HaanConfig::parallel`]; with [`ParallelPolicy::Sequential`] it degrades to
    /// the fused sequential sweep.
    Parallel,
    /// The cycle-level accelerator simulator. Requires the external backend to be
    /// registered first (`haan_accel::AccelSimBackend::install()`) or attached with
    /// `HaanNormalizer::with_external_backend`.
    AccelSim,
}

/// The backend a [`BackendSelection`] resolved to for one concrete batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The two-pass scalar oracle.
    Scalar,
    /// The fused sequential kernel.
    Fused,
    /// The row-parallel path.
    Parallel,
    /// The accelerator simulator.
    AccelSim,
}

impl BackendSelection {
    /// Elements-per-batch threshold above which [`BackendSelection::Auto`] fans out
    /// to the row-parallel backend. Quantized statistics (FP16 / INT8 operands) cost
    /// roughly twice as much per element as the untouched-FP32 path, so thread
    /// startup amortises at half the batch size.
    #[must_use]
    pub fn auto_parallel_elements(format: Format) -> usize {
        match format {
            Format::Fp32 => AUTO_PARALLEL_ELEMENTS_FP32,
            // Quantized statistics paths (FP16 / INT8 / fixed point) pay the operand
            // round trip per element.
            _ => AUTO_PARALLEL_ELEMENTS_FP32 / 2,
        }
    }

    /// Resolves the selection for one concrete `rows × cols` batch.
    ///
    /// Explicit selections map to their backend unconditionally. `Auto` picks:
    ///
    /// 1. [`BackendKind::Parallel`] when the configured [`ParallelPolicy`] already
    ///    asks for more than one worker on this shape;
    /// 2. [`BackendKind::Parallel`] when the policy is [`ParallelPolicy::Auto`] and
    ///    the batch clears the *format-aware* threshold
    ///    ([`BackendSelection::auto_parallel_elements`], with at least 4 rows) even
    ///    though the policy's own format-blind threshold did not fan out — results
    ///    are bit-identical, so this only changes latency;
    /// 3. [`BackendKind::Fused`] otherwise. In particular
    ///    [`ParallelPolicy::Sequential`] is always honored: `Auto` never spawns
    ///    threads behind an explicitly sequential configuration.
    ///
    /// This is a pure function of the inputs so the heuristic is unit-testable.
    #[must_use]
    pub fn resolve(
        self,
        rows: usize,
        cols: usize,
        format: Format,
        parallel: ParallelPolicy,
    ) -> BackendKind {
        match self {
            BackendSelection::Scalar => BackendKind::Scalar,
            BackendSelection::Fused => BackendKind::Fused,
            BackendSelection::Parallel => BackendKind::Parallel,
            BackendSelection::AccelSim => BackendKind::AccelSim,
            BackendSelection::Auto => {
                if parallel.worker_count(rows, cols) > 1
                    || (parallel == ParallelPolicy::Auto
                        && rows >= AUTO_PARALLEL_MIN_ROWS
                        && rows.saturating_mul(cols) >= Self::auto_parallel_elements(format))
                {
                    BackendKind::Parallel
                } else {
                    BackendKind::Fused
                }
            }
        }
    }
}

impl std::fmt::Display for BackendSelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            BackendSelection::Auto => "auto",
            BackendSelection::Scalar => "scalar",
            BackendSelection::Fused => "fused",
            BackendSelection::Parallel => "parallel",
            BackendSelection::AccelSim => "accel-sim",
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
    /// Row-parallelism policy of the batched normalization engine.
    pub parallel: ParallelPolicy,
    /// Execution-backend selection of the batched normalization engine.
    pub backend: BackendSelection,
    /// Whether the block's residual+norm fusion site dispatches to the backend's
    /// fused entry point. Disabled, the normalizer runs the composed sequence
    /// (separate add → norm) the fused path is bit-identical to — useful for
    /// differential testing.
    pub fusion_enabled: bool,
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
            parallel: ParallelPolicy::Sequential,
            backend: BackendSelection::Auto,
            fusion_enabled: true,
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
            parallel: ParallelPolicy::Sequential,
            backend: BackendSelection::Auto,
            fusion_enabled: true,
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
            parallel: ParallelPolicy::Sequential,
            backend: BackendSelection::Auto,
            fusion_enabled: true,
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
            parallel: ParallelPolicy::Sequential,
            backend: BackendSelection::Auto,
            fusion_enabled: true,
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
            parallel: ParallelPolicy::Sequential,
            backend: BackendSelection::Auto,
            fusion_enabled: true,
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

    /// Sets the row-parallelism policy of the batched normalization engine.
    #[must_use]
    pub fn parallel(mut self, policy: ParallelPolicy) -> Self {
        self.config.parallel = policy;
        self
    }

    /// Sets the execution backend of the batched normalization engine.
    #[must_use]
    pub fn backend(mut self, backend: BackendSelection) -> Self {
        self.config.backend = backend;
        self
    }

    /// Enables or disables the block's residual+norm fusion site. On by default;
    /// disabling falls back to the composed sequence the fused path is
    /// parity-tested against.
    #[must_use]
    pub fn fusion(mut self, enabled: bool) -> Self {
        self.config.fusion_enabled = enabled;
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
    fn parallel_policy_worker_counts() {
        assert_eq!(ParallelPolicy::Sequential.worker_count(100, 4096), 1);
        assert_eq!(ParallelPolicy::Threads(4).worker_count(100, 4096), 4);
        // Degenerate thread counts fall back to sequential; requests are clamped to
        // the number of rows.
        assert_eq!(ParallelPolicy::Threads(0).worker_count(100, 4096), 1);
        assert_eq!(ParallelPolicy::Threads(8).worker_count(2, 16), 2);
        // Auto stays sequential for small batches.
        assert_eq!(ParallelPolicy::Auto.worker_count(2, 8), 1);
        assert!(ParallelPolicy::Auto.worker_count(64, 4096) >= 1);
        assert_eq!(ParallelPolicy::default(), ParallelPolicy::Sequential);

        let config = HaanConfig::builder()
            .parallel(ParallelPolicy::Threads(2))
            .build();
        assert_eq!(config.parallel, ParallelPolicy::Threads(2));
        assert_eq!(HaanConfig::default().parallel, ParallelPolicy::Sequential);
    }

    #[test]
    fn auto_selection_picks_the_expected_backend_per_shape() {
        let auto = BackendSelection::Auto;
        // Small batches stay on the fused sequential kernel.
        assert_eq!(
            auto.resolve(4, 64, Format::Fp32, ParallelPolicy::Auto),
            BackendKind::Fused
        );
        // A decode step (one row) never fans out, no matter how wide.
        assert_eq!(
            auto.resolve(1, 1 << 20, Format::Fp32, ParallelPolicy::Auto),
            BackendKind::Fused
        );
        // A Sequential policy is a hard guarantee: Auto never parallelizes it,
        // no matter the batch size.
        assert_eq!(
            auto.resolve(64, 4096, Format::Fp32, ParallelPolicy::Sequential),
            BackendKind::Fused
        );
        // With an Auto policy, big batches cross the elements threshold and fan out.
        assert_eq!(
            auto.resolve(64, 4096, Format::Fp32, ParallelPolicy::Auto),
            BackendKind::Parallel
        );
        // Quantized statistics amortise threads at half the batch size: 16×2048
        // elements sit between the FP16 (32 Ki) and FP32 (64 Ki) thresholds, so the
        // format-aware escalation fans out where the format-blind policy would not.
        assert_eq!(
            auto.resolve(16, 2048, Format::Fp16, ParallelPolicy::Auto),
            BackendKind::Parallel
        );
        assert_eq!(
            auto.resolve(16, 2048, Format::Fp32, ParallelPolicy::Auto),
            BackendKind::Fused
        );
        // An explicit thread request wins regardless of shape.
        assert_eq!(
            auto.resolve(2, 8, Format::Fp32, ParallelPolicy::Threads(2)),
            BackendKind::Parallel
        );
        // Explicit selections are unconditional.
        assert_eq!(
            BackendSelection::Scalar.resolve(64, 4096, Format::Fp32, ParallelPolicy::Auto),
            BackendKind::Scalar
        );
        assert_eq!(
            BackendSelection::Fused.resolve(64, 4096, Format::Fp32, ParallelPolicy::Auto),
            BackendKind::Fused
        );
        assert_eq!(
            BackendSelection::Parallel.resolve(1, 1, Format::Fp32, ParallelPolicy::Sequential),
            BackendKind::Parallel
        );
        assert_eq!(
            BackendSelection::AccelSim.resolve(1, 1, Format::Fp32, ParallelPolicy::Sequential),
            BackendKind::AccelSim
        );
    }

    #[test]
    fn backend_selection_display_and_builder() {
        assert_eq!(BackendSelection::default(), BackendSelection::Auto);
        assert_eq!(BackendSelection::Auto.to_string(), "auto");
        assert_eq!(BackendSelection::Scalar.to_string(), "scalar");
        assert_eq!(BackendSelection::Fused.to_string(), "fused");
        assert_eq!(BackendSelection::Parallel.to_string(), "parallel");
        assert_eq!(BackendSelection::AccelSim.to_string(), "accel-sim");
        let config = HaanConfig::builder()
            .backend(BackendSelection::Fused)
            .build();
        assert_eq!(config.backend, BackendSelection::Fused);
        assert_eq!(HaanConfig::default().backend, BackendSelection::Auto);
    }

    #[test]
    fn partial_construction_via_struct_update_syntax() {
        // Ergonomics contract used by examples and the serving layer: every
        // engine-facing config must support `..Default::default()` construction.
        let config = HaanConfig {
            n_sub: Some(128),
            backend: BackendSelection::Fused,
            ..Default::default()
        };
        assert_eq!(config.n_sub, Some(128));
        assert_eq!(config.backend, BackendSelection::Fused);
        assert_eq!(config.parallel, ParallelPolicy::default());
        assert_eq!(config.format, HaanConfig::default().format);
        // The enums themselves carry defaults usable in that position.
        assert_eq!(ParallelPolicy::default(), ParallelPolicy::Sequential);
        assert_eq!(BackendSelection::default(), BackendSelection::Auto);
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
