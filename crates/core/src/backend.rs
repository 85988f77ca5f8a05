//! Execution backends of the batched normalization engine.
//!
//! The HAAN *policy* decisions — which layers skip their ISD, how long the subsampled
//! prefix is, which operand format the statistics path sees — are made once per
//! normalization site by [`HaanNormalizer`](crate::HaanNormalizer) and encoded into a
//! plain-data [`BatchRequest`]. *Execution* of the row sweep is then delegated to a
//! [`NormBackend`], so the same batched API can run on different substrates:
//!
//! * [`ScalarBackend`] — the two-pass reference oracle, one simple row at a time.
//!   Slowest, numerically the most robust; every other backend is parity-tested
//!   against it.
//! * [`FusedBackend`] — the chunked one-pass statistics kernel
//!   ([`VectorStats::compute_chunked`]) fused with the affine apply, allocation-free.
//!   This is the default software hot path; when a request needs no HAAN
//!   approximation at all it lowers to [`normalize_rows_into`] directly.
//! * `AccelSimBackend` (in the `haan_accel` crate) — the cycle-level model of the
//!   paper's accelerator datapath (fixed-point statistics calculator, square root
//!   inverter, normalization units). `haan_accel` sits *above* this crate in the
//!   dependency graph, so it plugs in as a trait object attached with
//!   [`HaanNormalizer::with_external_backend`](crate::HaanNormalizer::with_external_backend).
//!
//! Both software backends run each row through one private row body — the skipped
//! row's prefix mean and predicted ISD, or the computed row's prefix statistics and
//! tracked ISD — and differ only in the statistics kernel it calls.
//!
//! A normalizer runs exactly one backend: the attached external one if there is one,
//! otherwise the software backend named by
//! [`BackendSelection`](crate::BackendSelection) in [`HaanConfig`](crate::HaanConfig).
//! See `ARCHITECTURE.md` at the repository root for the dispatch diagram.
//!
//! # Contract
//!
//! A backend receives a request whose buffers have already been validated (row-major
//! `data` of `rows × cols`, `gamma`/`beta`/output rows of length `cols`,
//! `1 ≤ prefix_len ≤ cols`). It must:
//!
//! 1. normalize every row of `data` into the matching row of `out`;
//! 2. for rows *without* a predicted ISD, estimate statistics from the quantized
//!    `prefix_len`-element prefix and report the ISD it used through `isds_out`
//!    (when provided) so the caller can record skip anchors;
//! 3. for rows *with* a predicted ISD, apply `predicted_isd[row]` as-is and estimate
//!    only the mean (LayerNorm) from the prefix.
//!
//! Telemetry is *not* a backend concern: element-read accounting is fully determined
//! by the request shape, so the caller computes it uniformly for every backend.
//!
//! # Fusion site
//!
//! Beyond the plain row sweep, a backend executes the transformer block's
//! residual+norm fusion site (the d-Matrix operation-fusion observation):
//! [`NormBackend::fuse_residual_norm`] takes a [`ResidualNormRequest`] whose residual
//! add streams through while row statistics accumulate, producing both the summed
//! matrix and the normalized matrix in one pass instead of write-then-re-read.
//!
//! The default implementation is the **scalar composition oracle** — a separate add
//! followed by `normalize_batch` — and [`ScalarBackend`] deliberately keeps it.
//! [`FusedBackend`] overrides it with a single-pass kernel whose float-operation
//! order is unchanged, so the fused output is bit-identical to its own composed
//! output (and within the usual ≤ 1e-5 relative tolerance of the scalar oracle).
//! Normalization folded into the following matmul has no backend entry point: the
//! transformer composes it as normalize-then-matmul (see `ARCHITECTURE.md`, "Fusion
//! sites", for the measurement that retired it).

use crate::quantization::QuantizationPolicy;
use haan_numerics::fusion::add_rows_stats_chunked;
use haan_numerics::invsqrt::fast_inv_sqrt;
use haan_numerics::stats::{
    apply_norm_into, normalize_rows_into, RowNormMode, VectorStats, DEFAULT_EPS,
};

/// One fully-resolved batched normalization request.
///
/// Everything the HAAN normalizer decides per site (skipping, subsampling,
/// quantization, inverse-square-root flavour) is hoisted into plain data here, so
/// backends only choose *how* to execute the row sweep, never *what* to compute.
#[derive(Debug, Clone, Copy)]
pub struct BatchRequest<'a> {
    /// Row-major input, `rows × cols`.
    pub data: &'a [f32],
    /// Row width (embedding dimension).
    pub cols: usize,
    /// Learnable scale, `cols` elements.
    pub gamma: &'a [f32],
    /// Learnable shift, `cols` elements.
    pub beta: &'a [f32],
    /// Which normalization statistic the rows are scaled by.
    pub mode: RowNormMode,
    /// Epsilon added to the squared statistic before inversion. (The accelerator
    /// simulator ignores this field: its square root inverter carries the hardware's
    /// fixed epsilon, [`DEFAULT_EPS`].)
    pub eps: f32,
    /// The statistics path reads only the first `prefix_len` elements of each row
    /// (the paper's `Nsub` subsampling); always in `1..=cols`.
    pub prefix_len: usize,
    /// Operand quantization applied to the statistics path (the apply path always
    /// sees the full-precision input).
    pub quantization: &'a QuantizationPolicy,
    /// Newton iterations of the fast inverse square root; `None` = exact square root.
    pub newton_iterations: Option<u32>,
    /// Per-row predicted ISDs for a skipped site (`rows` elements). `None` means the
    /// site computes statistics normally.
    pub predicted_isd: Option<&'a [f32]>,
}

impl BatchRequest<'_> {
    /// Number of rows in the request.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.cols).unwrap_or(0)
    }

    /// True when the request applies no HAAN approximation at all: full-width exact
    /// statistics, untouched operands, exact square root, no prediction. Such
    /// requests lower to the plain fused batch kernel.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.prefix_len == self.cols
            && self.quantization.is_identity()
            && self.newton_iterations.is_none()
            && self.predicted_isd.is_none()
            && self.eps == DEFAULT_EPS
    }
}

/// A fused residual+norm fusion site: the elementwise residual add and the row
/// statistics of the sum share one traversal.
///
/// This is the transformer block's `attn_out + hidden → norm` seam. The backend
/// produces *both* results — the summed matrix (the block still needs it for the
/// final residual connection) and the normalized matrix — without re-reading the sum
/// from memory.
#[derive(Debug, Clone, Copy)]
pub struct ResidualNormRequest<'a> {
    /// The normalization request. Its `data` field is the **pre-residual** input
    /// (e.g. the attention output); statistics are computed over `data + residual`.
    pub norm: BatchRequest<'a>,
    /// The residual rows added elementwise to `norm.data`, same `rows × cols` layout.
    pub residual: &'a [f32],
}

impl<'a> ResidualNormRequest<'a> {
    /// Builds a residual+norm fusion request from a validated [`BatchRequest`] and a
    /// same-shape residual buffer.
    ///
    /// # Examples
    ///
    /// ```
    /// use haan::backend::{BatchRequest, ResidualNormRequest};
    /// use haan::quantization::QuantizationPolicy;
    /// use haan_numerics::stats::{RowNormMode, DEFAULT_EPS};
    /// use haan_numerics::Format;
    ///
    /// let data = [1.0f32, 2.0, 3.0, 4.0];
    /// let residual = [0.5f32, -0.5, 0.25, -0.25];
    /// let gamma = [1.0f32, 1.0];
    /// let beta = [0.0f32, 0.0];
    /// let quantization = QuantizationPolicy::new(Format::Fp32);
    /// let norm = BatchRequest {
    ///     data: &data,
    ///     cols: 2,
    ///     gamma: &gamma,
    ///     beta: &beta,
    ///     mode: RowNormMode::LayerNorm,
    ///     eps: DEFAULT_EPS,
    ///     prefix_len: 2,
    ///     quantization: &quantization,
    ///     newton_iterations: None,
    ///     predicted_isd: None,
    /// };
    /// let request = ResidualNormRequest::new(norm, &residual);
    /// assert_eq!(request.norm.rows(), 2);
    /// assert_eq!(request.residual.len(), request.norm.data.len());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when `residual` and `norm.data` differ in length.
    #[must_use]
    pub fn new(norm: BatchRequest<'a>, residual: &'a [f32]) -> Self {
        assert_eq!(
            norm.data.len(),
            residual.len(),
            "residual buffer must match the input shape"
        );
        Self { norm, residual }
    }
}

/// An execution backend of the batched normalization engine.
///
/// Implementations are stateless or internally synchronised (`&self` receiver): one
/// backend value may serve many normalizer clones. See the [module docs](self) for
/// the execution contract and the list of built-in backends.
pub trait NormBackend: std::fmt::Debug + Send + Sync {
    /// Short stable identifier used in reports and benchmarks (e.g. `"fused"`).
    fn name(&self) -> &'static str;

    /// Executes the row sweep of one batched normalization site.
    ///
    /// `out` is the `rows × cols` output buffer, `isds_out` (when provided) receives
    /// the ISD used for every row that computed statistics, and `scratch` is a
    /// caller-owned buffer sequential backends may reuse for quantized prefixes
    /// (its contents are unspecified on entry and on exit).
    fn normalize_batch(
        &self,
        request: &BatchRequest<'_>,
        out: &mut [f32],
        isds_out: Option<&mut [f32]>,
        scratch: &mut Vec<f32>,
    );

    /// Executes a fused residual+norm site: writes `norm.data + residual` into
    /// `sum_out` and the normalized sum into `out` (both `rows × cols`).
    ///
    /// The default implementation is the **scalar composition oracle** — a separate
    /// elementwise add followed by [`NormBackend::normalize_batch`] over the summed
    /// rows. Fused backends override it with a single traversal; overrides must keep
    /// the float-operation order of the composition so the result stays bit-identical
    /// to their own composed path.
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
    }
}

/// The ISD-like statistic for a row mode: `1/σ` for LayerNorm, `1/rms` for RMSNorm
/// (both are "the ISD" in the paper's terminology), computed with the fast inverse
/// square root when `newton_iterations` is set.
#[must_use]
pub fn tracked_isd(
    mode: RowNormMode,
    mean: f32,
    variance: f32,
    eps: f32,
    newton_iterations: Option<u32>,
) -> f32 {
    let squared = match mode {
        RowNormMode::LayerNorm => variance,
        RowNormMode::RmsNorm => variance + mean * mean,
    };
    match newton_iterations {
        Some(iterations) => fast_inv_sqrt(squared + eps, iterations),
        None => 1.0 / (squared + eps).sqrt(),
    }
}

/// Statistics of one quantized row prefix, via the given stat kernel.
fn prefix_stats(
    request: &BatchRequest<'_>,
    z: &[f32],
    scratch: &mut Vec<f32>,
    stats_fn: fn(&[f32]) -> Option<VectorStats>,
) -> Option<VectorStats> {
    if request.quantization.is_identity() {
        // No format to apply: skip the scratch-buffer round trip entirely.
        stats_fn(&z[..request.prefix_len])
    } else {
        request
            .quantization
            .apply_into(&z[..request.prefix_len], scratch);
        stats_fn(scratch)
    }
}

/// The HAAN statistics policy of one row, shared by every software sweep.
///
/// A row with a predicted ISD (a skipped site) applies `predicted_isd[r]` and
/// estimates only the LayerNorm mean from the quantized prefix. Any other row
/// estimates its statistics from the quantized prefix, tracks its ISD, reports
/// it through `isds_out` and applies it. `stats_fn` is the statistics kernel of
/// the calling backend.
fn normalize_row(
    request: &BatchRequest<'_>,
    r: usize,
    z: &[f32],
    out_row: &mut [f32],
    isds_out: Option<&mut [f32]>,
    scratch: &mut Vec<f32>,
    stats_fn: fn(&[f32]) -> Option<VectorStats>,
) {
    let (mean, isd) = if let Some(predicted) = request.predicted_isd {
        // The mean (LayerNorm only) is still estimated from the subsampled
        // prefix; this is cheap because only the prefix entries are read.
        let mean = match request.mode {
            RowNormMode::LayerNorm => {
                prefix_stats(request, z, scratch, stats_fn).map_or(0.0, |stats| stats.mean)
            }
            RowNormMode::RmsNorm => 0.0,
        };
        (mean, predicted[r])
    } else {
        let Some(stats) = prefix_stats(request, z, scratch, stats_fn) else {
            // Unreachable with cols > 0: the identity fallback.
            out_row.copy_from_slice(z);
            return;
        };
        let isd = tracked_isd(
            request.mode,
            stats.mean,
            stats.variance,
            request.eps,
            request.newton_iterations,
        );
        if let Some(isds) = isds_out {
            isds[r] = isd;
        }
        (stats.mean, isd)
    };
    apply_norm_into(
        z,
        request.gamma,
        request.beta,
        request.mode,
        mean,
        isd,
        out_row,
    )
    .expect("batched buffers were validated by the caller");
}

/// The shared software row sweep: both software backends are this loop with a
/// different statistics kernel.
fn sweep_rows(
    request: &BatchRequest<'_>,
    out: &mut [f32],
    mut isds_out: Option<&mut [f32]>,
    scratch: &mut Vec<f32>,
    stats_fn: fn(&[f32]) -> Option<VectorStats>,
) {
    let cols = request.cols;
    for (r, (z, out_row)) in request
        .data
        .chunks_exact(cols)
        .zip(out.chunks_exact_mut(cols))
        .enumerate()
    {
        normalize_row(
            request,
            r,
            z,
            out_row,
            isds_out.as_deref_mut(),
            scratch,
            stats_fn,
        );
    }
}

/// The chunked statistics kernel of [`FusedBackend`].
fn chunked_stats(z: &[f32]) -> Option<VectorStats> {
    VectorStats::compute_chunked(z).ok()
}

/// The fused residual+norm row sweep of [`FusedBackend`]: statistics accumulate
/// while the residual add streams through.
///
/// Rows whose statistics need a quantized or subsampled prefix, or that apply a
/// predicted ISD, fall back to sum-then-[`normalize_row`] for that row (the
/// quantization round trip must see the summed values), which is exactly the
/// composed order — so every branch stays bit-identical to add-then-`normalize_batch`.
fn sweep_residual_rows(
    request: &ResidualNormRequest<'_>,
    sum_out: &mut [f32],
    out: &mut [f32],
    mut isds_out: Option<&mut [f32]>,
    scratch: &mut Vec<f32>,
) {
    let norm = &request.norm;
    let cols = norm.cols;
    // One traversal is only exact when the statistics see the plain full-width sum.
    let single_pass =
        norm.predicted_isd.is_none() && norm.quantization.is_identity() && norm.prefix_len == cols;
    for (r, (((z, res), sum_row), out_row)) in norm
        .data
        .chunks_exact(cols)
        .zip(request.residual.chunks_exact(cols))
        .zip(sum_out.chunks_exact_mut(cols))
        .zip(out.chunks_exact_mut(cols))
        .enumerate()
    {
        if single_pass {
            let stats = add_rows_stats_chunked(z, res, sum_row)
                .expect("rows are non-empty (cols >= 1 was validated by the caller)");
            let isd = tracked_isd(
                norm.mode,
                stats.mean,
                stats.variance,
                norm.eps,
                norm.newton_iterations,
            );
            if let Some(isds) = isds_out.as_deref_mut() {
                isds[r] = isd;
            }
            apply_norm_into(
                sum_row, norm.gamma, norm.beta, norm.mode, stats.mean, isd, out_row,
            )
            .expect("batched buffers were validated by the caller");
        } else {
            for ((s, &a), &b) in sum_row.iter_mut().zip(z).zip(res) {
                *s = a + b;
            }
            normalize_row(
                norm,
                r,
                sum_row,
                out_row,
                isds_out.as_deref_mut(),
                scratch,
                chunked_stats,
            );
        }
    }
}

/// The two-pass reference oracle: per-row statistics via the numerically robust
/// two-pass mean/variance, sequential row loop. The slowest backend, kept as the
/// parity baseline every other backend is tested against.
///
/// Deliberately keeps the default [`NormBackend::fuse_residual_norm`]
/// implementation: its fusion-site behavior **is** the scalar composition oracle the
/// differential suites compare against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarBackend;

impl NormBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn normalize_batch(
        &self,
        request: &BatchRequest<'_>,
        out: &mut [f32],
        isds_out: Option<&mut [f32]>,
        scratch: &mut Vec<f32>,
    ) {
        sweep_rows(request, out, isds_out, scratch, |z| {
            VectorStats::try_compute(z).ok()
        });
    }
}

/// The fused sequential hot path: shift-centred chunked one-pass statistics
/// ([`VectorStats::compute_chunked`]) fused with the affine apply, one reused
/// scratch buffer, zero allocation per row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedBackend;

impl NormBackend for FusedBackend {
    fn name(&self) -> &'static str {
        "fused"
    }

    fn normalize_batch(
        &self,
        request: &BatchRequest<'_>,
        out: &mut [f32],
        isds_out: Option<&mut [f32]>,
        scratch: &mut Vec<f32>,
    ) {
        if request.is_exact() && isds_out.is_none() {
            // No HAAN approximation and no anchor recording: the plain fused batch
            // kernel does the whole sweep in one call.
            normalize_rows_into(
                request.data,
                request.cols,
                request.gamma,
                request.beta,
                request.mode,
                request.eps,
                out,
            )
            .expect("batched buffers were validated by the caller");
            return;
        }
        sweep_rows(request, out, isds_out, scratch, chunked_stats);
    }

    fn fuse_residual_norm(
        &self,
        request: &ResidualNormRequest<'_>,
        sum_out: &mut [f32],
        out: &mut [f32],
        isds_out: Option<&mut [f32]>,
        scratch: &mut Vec<f32>,
    ) {
        sweep_residual_rows(request, sum_out, out, isds_out, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haan_llm::Matrix;
    use haan_numerics::Format;

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
            newton_iterations: None,
            predicted_isd: None,
        }
    }

    fn varied_matrix(rows: usize, cols: usize) -> Matrix {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i as u64 * 2654435761) % 1000) as f32 / 250.0 - 2.0)
            .collect();
        Matrix::from_vec(rows, cols, data).expect("consistent shape")
    }

    #[test]
    fn exact_requests_lower_to_the_plain_fused_kernel() {
        let input = varied_matrix(4, 64);
        let gamma = vec![1.0f32; 64];
        let beta = vec![0.0f32; 64];
        let quantization = QuantizationPolicy::new(Format::Fp32);
        let req = request(input.as_slice(), 64, &gamma, &beta, &quantization);
        assert!(req.is_exact());
        assert_eq!(req.rows(), 4);

        let mut lowered = vec![0.0f32; 4 * 64];
        FusedBackend.normalize_batch(&req, &mut lowered, None, &mut Vec::new());
        let mut reference = vec![0.0f32; 4 * 64];
        normalize_rows_into(
            input.as_slice(),
            64,
            &gamma,
            &beta,
            RowNormMode::LayerNorm,
            DEFAULT_EPS,
            &mut reference,
        )
        .unwrap();
        assert_eq!(lowered, reference);
    }

    #[test]
    fn predicted_rows_apply_the_given_isd() {
        let quantization = QuantizationPolicy::new(Format::Fp32);
        let data = [2.0f32, 4.0, 6.0, 8.0];
        let gamma = [1.0f32, 1.0];
        let beta = [0.0f32, 0.0];
        let predicted = [1.0f32, 0.5];
        let mut req = request(&data, 2, &gamma, &beta, &quantization);
        req.predicted_isd = Some(&predicted);
        let mut out = vec![0.0f32; 4];
        for backend in [&ScalarBackend as &dyn NormBackend, &FusedBackend] {
            backend.normalize_batch(&req, &mut out, None, &mut Vec::new());
            // Row 0: mean 3, isd 1 → (2−3)·1, (4−3)·1. Row 1: mean 7, isd 0.5.
            assert_eq!(out, vec![-1.0, 1.0, -0.5, 0.5], "{}", backend.name());
        }
    }

    #[test]
    fn tracked_isd_modes_newton_and_eps() {
        // LayerNorm tracks 1/σ; RMSNorm folds the mean back in.
        let exact = tracked_isd(RowNormMode::LayerNorm, 5.0, 4.0, DEFAULT_EPS, None);
        assert!((exact - 0.5).abs() < 1e-4);
        let rms = tracked_isd(RowNormMode::RmsNorm, 3.0, 0.0, DEFAULT_EPS, None);
        assert!((rms - 1.0 / 3.0).abs() < 1e-4);
        let fast = tracked_isd(RowNormMode::LayerNorm, 0.0, 4.0, DEFAULT_EPS, Some(1));
        assert!((fast - 0.5).abs() < 2e-3);
        // A custom epsilon floors the ISD of a zero-variance row.
        let floored = tracked_isd(RowNormMode::LayerNorm, 0.0, 0.0, 1e-2, None);
        assert!((floored - 10.0).abs() < 1e-3);
    }

    #[test]
    fn backends_honor_a_custom_eps() {
        // A constant row has zero variance: the output spread is set entirely by the
        // requested epsilon, so a larger eps must shrink the ISD accordingly.
        let quantization = QuantizationPolicy::new(Format::Fp32);
        let data = [2.0f32, 2.0, 2.0, 2.0];
        let gamma = [1.0f32; 4];
        let beta = [0.0f32; 4];
        let mut req = request(&data, 4, &gamma, &beta, &quantization);
        req.mode = RowNormMode::RmsNorm;
        req.eps = 1.0e-2;
        assert!(!req.is_exact());
        for backend in [&ScalarBackend as &dyn NormBackend, &FusedBackend] {
            let mut out = vec![0.0f32; 4];
            let mut isds = vec![0.0f32; 1];
            backend.normalize_batch(&req, &mut out, Some(&mut isds), &mut Vec::new());
            // 1/rms with rms² = 4 + 1e-2.
            let expected = 1.0 / (4.0f32 + 1.0e-2).sqrt();
            assert!(
                (isds[0] - expected).abs() < 1e-6,
                "{}: {} vs {expected}",
                backend.name(),
                isds[0]
            );
        }
    }
}
