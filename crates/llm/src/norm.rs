//! Normalization operations and the [`Normalizer`] trait the HAAN algorithm plugs into.
//!
//! The model invokes the normalizer through two entry points:
//!
//! * [`Normalizer::normalize`] — one token vector at a time;
//! * [`Normalizer::normalize_matrix_into`] — the batched hot path: a whole `seq × E`
//!   hidden-state matrix per normalization site, writing into a caller-provided
//!   matrix. The default implementation loops [`Normalizer::normalize`] (so custom
//!   normalizers keep working unchanged); [`ReferenceNormalizer`] overrides it with
//!   the fused, allocation-free kernels of [`haan_numerics::stats`], and the HAAN
//!   normalizer (in the `haan` core crate) dispatches it to one execution backend —
//!   the fused kernel, the scalar oracle, or an attached one such as the cycle-level
//!   accelerator simulator — and runs its per-token calls as one-row batched sites.
//!
//! Each invocation carries *which* normalization layer (global index) it is computing
//! and the layer's [`NormKind`], so an implementation can keep cross-layer state —
//! exactly what HAAN's ISD-skipping predictor needs.

use crate::config::NormKind;
use crate::error::LlmError;
use crate::tensor::Matrix;
use haan_numerics::stats::{normalize_rows_into, RowNormMode, VectorStats, DEFAULT_EPS};

/// Identifies one normalization-layer invocation within a forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NormSite {
    /// Global index of the normalization layer, in execution order (0-based).
    pub layer_index: usize,
    /// Which kind of normalization this site applies.
    pub kind: NormKind,
}

/// A normalization operator applied to one token vector at a time.
///
/// `begin_sequence` is called before the first normalization layer of a forward pass
/// so that stateful implementations (like HAAN's predictor) can reset per-sample state.
///
/// # Example
///
/// ```
/// use haan_llm::norm::{Normalizer, NormSite, ReferenceNormalizer};
/// use haan_llm::NormKind;
///
/// let mut ln = ReferenceNormalizer::new();
/// let gamma = vec![1.0f32; 4];
/// let beta = vec![0.0f32; 4];
/// let site = NormSite { layer_index: 0, kind: NormKind::LayerNorm };
/// let out = ln.normalize(site, &[1.0, 2.0, 3.0, 4.0], &gamma, &beta);
/// let mean: f32 = out.iter().sum::<f32>() / 4.0;
/// assert!(mean.abs() < 1e-5);
/// ```
pub trait Normalizer {
    /// Normalizes the vector `z` with the learnable scale `gamma` and shift `beta`.
    fn normalize(&mut self, site: NormSite, z: &[f32], gamma: &[f32], beta: &[f32]) -> Vec<f32>;

    /// Normalizes every row of `input` at the same [`NormSite`], writing into `out`.
    ///
    /// This is the batched hot path the transformer forward pass uses: one call per
    /// normalization site instead of one per token, so implementations can hoist
    /// per-site decisions (skip plan lookup, quantization policy, scratch buffers,
    /// execution-backend selection) out of the row loop. The default implementation
    /// delegates to [`Normalizer::normalize`] row by row, preserving the exact
    /// observable behavior (site order, per-row statistics) for third-party
    /// implementations; the built-in normalizers override it with fused batch
    /// kernels, and the HAAN normalizer dispatches it to one execution backend
    /// (fused / scalar / an attached one such as the accelerator simulator).
    ///
    /// # Examples
    ///
    /// ```
    /// use haan_llm::norm::{NormSite, Normalizer, ReferenceNormalizer};
    /// use haan_llm::{Matrix, NormKind};
    ///
    /// let input = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0])?;
    /// let gamma = vec![1.0f32; 4];
    /// let beta = vec![0.0f32; 4];
    /// let site = NormSite { layer_index: 0, kind: NormKind::LayerNorm };
    /// let mut out = Matrix::zeros(2, 4);
    /// ReferenceNormalizer::new().normalize_matrix_into(site, &input, &gamma, &beta, &mut out);
    /// // Every row is normalized independently to (close to) zero mean.
    /// for row in 0..2 {
    ///     let mean: f32 = out.row(row).iter().sum::<f32>() / 4.0;
    ///     assert!(mean.abs() < 1e-5);
    /// }
    /// # Ok::<(), haan_llm::LlmError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Implementations panic when `out` has a different shape from `input`, or when
    /// `gamma` / `beta` do not have `input.cols()` elements (programmer error, same
    /// contract as the `debug_assert`s of [`Normalizer::normalize`] but enforced always
    /// since batched callers construct `out` themselves).
    fn normalize_matrix_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        out: &mut Matrix,
    ) {
        assert_eq!(
            input.shape(),
            out.shape(),
            "normalize_matrix_into shape mismatch"
        );
        for row in 0..input.rows() {
            let normalized = self.normalize(site, input.row(row), gamma, beta);
            out.row_mut(row).copy_from_slice(&normalized);
        }
    }

    /// Convenience wrapper over [`Normalizer::normalize_matrix_into`] that allocates
    /// the output matrix (once per call, not once per row).
    fn normalize_matrix(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
    ) -> Matrix {
        let mut out = Matrix::zeros(input.rows(), input.cols());
        self.normalize_matrix_into(site, input, gamma, beta, &mut out);
        out
    }

    /// Fused residual+norm site: writes `input + residual` into `sum_out` and the
    /// normalization of that sum into `out`.
    ///
    /// This is the transformer block's `attn_out + hidden → norm` seam. The default
    /// implementation is the composed sequence the block used before fusion existed —
    /// an elementwise add followed by [`Normalizer::normalize_matrix_into`] — so
    /// third-party normalizers observe exactly the same calls (same site, same summed
    /// matrix) as the unfused path. The HAAN normalizer overrides it to stream the
    /// add through the backend's fused residual+norm kernel.
    ///
    /// # Examples
    ///
    /// ```
    /// use haan_llm::norm::{NormSite, Normalizer, ReferenceNormalizer};
    /// use haan_llm::{Matrix, NormKind};
    ///
    /// let input = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0])?;
    /// let residual = Matrix::from_vec(1, 4, vec![0.5, 0.5, 0.5, 0.5])?;
    /// let gamma = vec![1.0f32; 4];
    /// let beta = vec![0.0f32; 4];
    /// let site = NormSite { layer_index: 0, kind: NormKind::LayerNorm };
    /// let (mut sum, mut normed) = (Matrix::zeros(1, 4), Matrix::zeros(1, 4));
    /// ReferenceNormalizer::new()
    ///     .normalize_residual_into(site, &input, &residual, &gamma, &beta, &mut sum, &mut normed);
    /// assert_eq!(sum.row(0), &[1.5, 2.5, 3.5, 4.5]);
    /// let mean: f32 = normed.row(0).iter().sum::<f32>() / 4.0;
    /// assert!(mean.abs() < 1e-5);
    /// # Ok::<(), haan_llm::LlmError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `residual` / `sum_out` / `out` differ from `input` in shape or when
    /// `gamma` / `beta` do not have `input.cols()` elements.
    #[allow(clippy::too_many_arguments)]
    fn normalize_residual_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        residual: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        sum_out: &mut Matrix,
        out: &mut Matrix,
    ) {
        assert_eq!(
            input.shape(),
            residual.shape(),
            "normalize_residual_into shape mismatch"
        );
        assert_eq!(
            input.shape(),
            sum_out.shape(),
            "normalize_residual_into shape mismatch"
        );
        for ((s, &a), &b) in sum_out
            .as_mut_slice()
            .iter_mut()
            .zip(input.as_slice())
            .zip(residual.as_slice())
        {
            *s = a + b;
        }
        self.normalize_matrix_into(site, sum_out, gamma, beta, out);
    }

    /// Norm+matmul site: normalizes `input` once and multiplies the result into
    /// every weight matrix, writing `rows × weights[i].cols()` into `outs[i]`.
    ///
    /// This is the transformer block's `norm → Q/K/V projections` seam (and the MLP's
    /// `norm → w_in/w_gate` seam): the consumers share one set of row statistics. The
    /// implementation is the composed sequence — materialize
    /// [`Normalizer::normalize_matrix`], then one matmul per consumer (the
    /// register-tiled kernel, since model weights are panel-packed). The built-in
    /// normalizers keep it: a fused software epilogue swept the whole weight
    /// matrix once per row and measured slower than this composition, whose
    /// matmul is bound by the kernel's arithmetic rate, not by weight bandwidth.
    /// The seam stays so a wrapper can observe or time the site with its consumers.
    ///
    /// # Examples
    ///
    /// ```
    /// use haan_llm::norm::{NormSite, Normalizer, ReferenceNormalizer};
    /// use haan_llm::{Matrix, NormKind};
    ///
    /// let input = Matrix::from_vec(2, 2, vec![3.0, 1.0, -1.0, 5.0])?;
    /// let identity = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0])?;
    /// let gamma = vec![1.0f32; 2];
    /// let beta = vec![0.0f32; 2];
    /// let site = NormSite { layer_index: 0, kind: NormKind::LayerNorm };
    /// let mut outs = [Matrix::zeros(2, 2)];
    /// let mut reference = ReferenceNormalizer::new();
    /// reference.normalize_matmul_into(site, &input, &gamma, &beta, &[&identity], &mut outs)?;
    /// // Multiplying by the identity recovers the normalized matrix itself.
    /// let normed = reference.normalize_matrix(site, &input, &gamma, &beta);
    /// assert_eq!(outs[0].as_slice(), normed.as_slice());
    /// # Ok::<(), haan_llm::LlmError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when `weights` and `outs` disagree in
    /// count or when any weight/output pair is incompatible with `input`'s shape.
    fn normalize_matmul_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        weights: &[&Matrix],
        outs: &mut [Matrix],
    ) -> Result<(), LlmError> {
        if weights.len() != outs.len() {
            return Err(LlmError::ShapeMismatch {
                op: "normalize_matmul_into",
                lhs: (weights.len(), 0),
                rhs: (outs.len(), 0),
            });
        }
        let normed = self.normalize_matrix(site, input, gamma, beta);
        for (weight, out) in weights.iter().zip(outs.iter_mut()) {
            normed.matmul_into(weight, out)?;
        }
        Ok(())
    }

    /// Called before the first normalization layer of each token's forward pass.
    fn begin_sequence(&mut self) {}

    /// A short human-readable description used in reports.
    fn description(&self) -> String {
        "unnamed normalizer".to_string()
    }
}

/// The composed-order oracle: wraps a normalizer and runs its fused sites as
/// their composed decompositions.
///
/// `Composed` forwards [`Normalizer::normalize`],
/// [`Normalizer::normalize_matrix_into`], [`Normalizer::begin_sequence`] and
/// [`Normalizer::description`] to the wrapped normalizer, and leaves
/// [`Normalizer::normalize_residual_into`] and
/// [`Normalizer::normalize_matmul_into`] on the trait defaults. A residual site
/// therefore runs an elementwise add followed by the wrapped
/// `normalize_matrix_into` — the order a fused residual+norm kernel must
/// reproduce bit for bit. Differential tests run the same normalizer bare and
/// wrapped and compare the two.
///
/// # Example
///
/// ```
/// use haan_llm::norm::{Composed, NormSite, Normalizer, ReferenceNormalizer};
/// use haan_llm::{Matrix, NormKind};
///
/// let input = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0])?;
/// let residual = Matrix::from_vec(1, 4, vec![0.5, -0.5, 0.5, -0.5])?;
/// let (gamma, beta) = (vec![1.0f32; 4], vec![0.0f32; 4]);
/// let site = NormSite { layer_index: 0, kind: NormKind::LayerNorm };
/// let mut composed = Composed(ReferenceNormalizer::new());
/// let (mut sum, mut normed) = (Matrix::zeros(1, 4), Matrix::zeros(1, 4));
/// composed.normalize_residual_into(site, &input, &residual, &gamma, &beta, &mut sum, &mut normed);
/// let direct = composed.0.normalize_matrix(site, &sum, &gamma, &beta);
/// assert_eq!(normed, direct);
/// # Ok::<(), haan_llm::LlmError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Composed<N>(pub N);

impl<N: Normalizer> Normalizer for Composed<N> {
    fn normalize(&mut self, site: NormSite, z: &[f32], gamma: &[f32], beta: &[f32]) -> Vec<f32> {
        self.0.normalize(site, z, gamma, beta)
    }

    fn normalize_matrix_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        out: &mut Matrix,
    ) {
        self.0.normalize_matrix_into(site, input, gamma, beta, out);
    }

    fn begin_sequence(&mut self) {
        self.0.begin_sequence();
    }

    fn description(&self) -> String {
        self.0.description()
    }
}

impl NormKind {
    /// The numerics-crate row mode equivalent to this normalization kind.
    #[must_use]
    pub fn row_mode(self) -> RowNormMode {
        match self {
            NormKind::LayerNorm => RowNormMode::LayerNorm,
            NormKind::RmsNorm => RowNormMode::RmsNorm,
        }
    }
}

/// The exact FP32 normalizer, used as the "Original" configuration in the accuracy
/// tables: every site applies its own [`NormKind`] with exact statistics and
/// [`DEFAULT_EPS`] — LayerNorm `s = γ · (z − μ)/σ + β`, RMSNorm `s = γ · z / rms(z) + β`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReferenceNormalizer;

impl ReferenceNormalizer {
    /// Creates the reference normalizer.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Normalizer for ReferenceNormalizer {
    fn normalize(&mut self, site: NormSite, z: &[f32], gamma: &[f32], beta: &[f32]) -> Vec<f32> {
        normalize_with_stats(z, gamma, beta, site.kind, DEFAULT_EPS)
    }

    fn normalize_matrix_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        out: &mut Matrix,
    ) {
        assert_eq!(
            input.shape(),
            out.shape(),
            "normalize_matrix_into shape mismatch"
        );
        let cols = input.cols();
        assert_eq!(
            gamma.len(),
            cols,
            "normalize_matrix_into gamma length mismatch"
        );
        assert_eq!(
            beta.len(),
            cols,
            "normalize_matrix_into beta length mismatch"
        );
        normalize_rows_into(
            input.as_slice(),
            cols,
            gamma,
            beta,
            site.kind.row_mode(),
            DEFAULT_EPS,
            out.as_mut_slice(),
        )
        .expect("buffer shapes were validated above");
    }

    fn description(&self) -> String {
        "reference normalizer (FP32, exact statistics)".to_string()
    }
}

/// Exact normalization of one vector: the two-pass f64 statistics of
/// [`VectorStats::compute`] and the affine transform `γ · (x − μ) · isd + β`.
/// For [`NormKind::RmsNorm`] the input is not re-centred and the ISD is `1/rms`.
#[must_use]
pub fn normalize_with_stats(
    z: &[f32],
    gamma: &[f32],
    beta: &[f32],
    kind: NormKind,
    eps: f32,
) -> Vec<f32> {
    if z.is_empty() {
        return Vec::new();
    }
    debug_assert_eq!(z.len(), gamma.len());
    debug_assert_eq!(z.len(), beta.len());
    let stats = VectorStats::compute(z);
    match kind {
        NormKind::LayerNorm => {
            let (mean, isd) = (stats.mean, stats.isd(eps));
            z.iter()
                .zip(gamma.iter().zip(beta))
                .map(|(&x, (&g, &b))| g * (x - mean) * isd + b)
                .collect()
        }
        NormKind::RmsNorm => {
            let inv_rms = 1.0 / stats.rms(eps);
            z.iter()
                .zip(gamma.iter().zip(beta))
                .map(|(&x, (&g, &b))| g * x * inv_rms + b)
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn site(kind: NormKind) -> NormSite {
        NormSite {
            layer_index: 0,
            kind,
        }
    }

    #[test]
    fn layernorm_output_has_zero_mean_unit_variance() {
        let z: Vec<f32> = (0..64).map(|i| (i as f32) * 0.3 - 5.0).collect();
        let gamma = vec![1.0f32; 64];
        let beta = vec![0.0f32; 64];
        let mut ln = ReferenceNormalizer::new();
        let out = ln.normalize(site(NormKind::LayerNorm), &z, &gamma, &beta);
        let stats = VectorStats::compute(&out);
        assert!(stats.mean.abs() < 1e-5);
        assert!((stats.variance - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layernorm_applies_affine_transform() {
        let z = vec![1.0f32, 3.0];
        let gamma = vec![2.0f32, 2.0];
        let beta = vec![10.0f32, 10.0];
        let mut ln = ReferenceNormalizer::new();
        let out = ln.normalize(site(NormKind::LayerNorm), &z, &gamma, &beta);
        // Normalized values are ±1, so output is 10 ± 2.
        assert!((out[0] - 8.0).abs() < 1e-3);
        assert!((out[1] - 12.0).abs() < 1e-3);
    }

    #[test]
    fn rmsnorm_does_not_recenter() {
        let z = vec![2.0f32, 2.0, 2.0, 2.0];
        let gamma = vec![1.0f32; 4];
        let beta = vec![0.0f32; 4];
        let mut rn = ReferenceNormalizer::new();
        let out = rn.normalize(site(NormKind::RmsNorm), &z, &gamma, &beta);
        // RMS of a constant vector is the constant, so output is ~1 everywhere (not 0).
        for v in out {
            assert!((v - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn reference_normalizer_dispatches_on_kind() {
        let z = vec![1.0f32, 2.0, 3.0, 4.0];
        let gamma = vec![1.0f32; 4];
        let beta = vec![0.0f32; 4];
        let mut reference = ReferenceNormalizer::new();
        let ln_out = reference.normalize(site(NormKind::LayerNorm), &z, &gamma, &beta);
        let rms_out = reference.normalize(site(NormKind::RmsNorm), &z, &gamma, &beta);
        assert_ne!(ln_out, rms_out);
        // Each site gets exactly its own kind's exact normalization.
        for (kind, out) in [(NormKind::LayerNorm, ln_out), (NormKind::RmsNorm, rms_out)] {
            assert_eq!(
                normalize_with_stats(&z, &gamma, &beta, kind, DEFAULT_EPS),
                out
            );
        }
        assert!(reference.description().contains("reference"));
    }

    #[test]
    fn normalize_with_stats_matches_known_values() {
        // Mean 2.5, variance 1.25: with eps 0 the outputs are (x − 2.5) / √1.25.
        let z = vec![1.0f32, 2.0, 3.0, 4.0];
        let gamma = vec![1.0f32; 4];
        let beta = vec![0.0f32; 4];
        let out = normalize_with_stats(&z, &gamma, &beta, NormKind::LayerNorm, 0.0);
        for (o, x) in out.iter().zip(&z) {
            assert!((o - (x - 2.5) / 1.25f32.sqrt()).abs() < 1e-6, "{o}");
        }
        assert!(normalize_with_stats(&[], &[], &[], NormKind::LayerNorm, 0.0).is_empty());
    }

    #[test]
    fn default_matches_new_on_a_constant_row() {
        // A constant row has zero variance: only a positive eps keeps its LayerNorm
        // finite.
        let z = vec![3.0f32; 8];
        let gamma = vec![1.0f32; 8];
        let beta = vec![0.5f32; 8];
        let mut from_default: ReferenceNormalizer = Default::default();
        let mut composed = Composed::<ReferenceNormalizer>::default();
        for kind in [NormKind::LayerNorm, NormKind::RmsNorm] {
            let expected = ReferenceNormalizer::new().normalize(site(kind), &z, &gamma, &beta);
            assert!(
                expected.iter().all(|v| v.is_finite()),
                "{kind}: {expected:?}"
            );
            assert_eq!(
                from_default.normalize(site(kind), &z, &gamma, &beta),
                expected,
                "{kind}"
            );
            assert_eq!(
                composed.normalize(site(kind), &z, &gamma, &beta),
                expected,
                "{kind}"
            );
        }
        from_default.begin_sequence(); // default impl is a no-op
        assert_eq!(from_default, ReferenceNormalizer::new());
    }

    #[test]
    fn batched_reference_matches_scalar_reference() {
        // The fused batched kernel must agree with the scalar oracle row by row for
        // both kinds, including rows that straddle the chunk-lane width.
        let cols = 37;
        let rows = 5;
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 97 % 41) as f32 - 20.0) / 4.0)
            .collect();
        let input = Matrix::from_vec(rows, cols, data).unwrap();
        let gamma: Vec<f32> = (0..cols).map(|i| 1.0 + (i % 7) as f32 * 0.05).collect();
        let beta: Vec<f32> = (0..cols).map(|i| (i % 4) as f32 * 0.1 - 0.15).collect();
        for kind in [NormKind::LayerNorm, NormKind::RmsNorm] {
            let mut reference = ReferenceNormalizer::new();
            let batched = reference.normalize_matrix(site(kind), &input, &gamma, &beta);
            for row in 0..rows {
                let scalar = reference.normalize(site(kind), input.row(row), &gamma, &beta);
                for (col, (a, b)) in batched.row(row).iter().zip(&scalar).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                        "{kind}: row {row} col {col}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn default_batched_impl_loops_the_scalar_path() {
        // A normalizer that does not override the batched entry point must observe
        // one scalar call per row, in row order.
        struct Recorder(Vec<usize>);
        impl Normalizer for Recorder {
            fn normalize(&mut self, _s: NormSite, z: &[f32], _g: &[f32], _b: &[f32]) -> Vec<f32> {
                self.0.push(z.len());
                z.to_vec()
            }
        }
        let input = Matrix::from_vec(3, 4, (0..12).map(|i| i as f32).collect()).unwrap();
        let gamma = vec![1.0f32; 4];
        let beta = vec![0.0f32; 4];
        let mut recorder = Recorder(Vec::new());
        let out = recorder.normalize_matrix(site(NormKind::LayerNorm), &input, &gamma, &beta);
        assert_eq!(out, input);
        assert_eq!(recorder.0, vec![4, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn batched_entry_point_rejects_mismatched_output() {
        let input = Matrix::zeros(2, 4);
        let mut out = Matrix::zeros(2, 3);
        let gamma = vec![1.0f32; 4];
        let beta = vec![0.0f32; 4];
        ReferenceNormalizer::new().normalize_matrix_into(
            site(NormKind::LayerNorm),
            &input,
            &gamma,
            &beta,
            &mut out,
        );
    }

    #[test]
    fn norm_kind_maps_to_row_mode() {
        assert_eq!(NormKind::LayerNorm.row_mode(), RowNormMode::LayerNorm);
        assert_eq!(NormKind::RmsNorm.row_mode(), RowNormMode::RmsNorm);
    }

    proptest! {
        #[test]
        fn prop_layernorm_is_scale_invariant(
            xs in proptest::collection::vec(-5.0f32..5.0, 8..64),
            scale in 0.5f32..20.0,
        ) {
            // LayerNorm(a·z) == LayerNorm(z) for a > 0 (up to eps effects).
            prop_assume!(VectorStats::compute(&xs).variance > 1e-3);
            let gamma = vec![1.0f32; xs.len()];
            let beta = vec![0.0f32; xs.len()];
            let scaled: Vec<f32> = xs.iter().map(|v| v * scale).collect();
            let a = normalize_with_stats(&xs, &gamma, &beta, NormKind::LayerNorm, 0.0);
            let b = normalize_with_stats(&scaled, &gamma, &beta, NormKind::LayerNorm, 0.0);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-2);
            }
        }

        #[test]
        fn prop_rmsnorm_output_rms_is_one(xs in proptest::collection::vec(-5.0f32..5.0, 8..64)) {
            prop_assume!(xs.iter().any(|v| v.abs() > 1e-2));
            let gamma = vec![1.0f32; xs.len()];
            let beta = vec![0.0f32; xs.len()];
            let out = normalize_with_stats(&xs, &gamma, &beta, NormKind::RmsNorm, 0.0);
            let ms: f32 = out.iter().map(|v| v * v).sum::<f32>() / out.len() as f32;
            prop_assert!((ms.sqrt() - 1.0).abs() < 1e-2);
        }
    }
}
