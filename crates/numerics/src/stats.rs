//! Mean, variance and inverse-standard-deviation (ISD) computation.
//!
//! The HAAN algorithm is entirely about how these statistics are computed:
//!
//! * [`VectorStats::compute`] — the reference two-pass mean/variance (what FP32
//!   LayerNorm does),
//! * [`VectorStats::compute_one_pass`] — the `E[x²] − E[x]²` formulation the input
//!   statistics calculator implements in hardware (Eq. 5),
//! * [`VectorStats::compute_chunked`] — a shift-centred one-pass formulation over
//!   [`CHUNK_LANES`] independent accumulator lanes, the SIMD-amenable kernel the
//!   batched normalization engine is built on,
//! * [`normalize_row_into`] / [`normalize_rows_into`] — the fused hot path: statistics
//!   and the affine transform `(x − μ)·isd·γ + β` in one traversal per row, writing
//!   into a caller-provided buffer (no allocation),
//! * [`Welford`] — a streaming accumulator used by the activation profiler,
//! * [`isd`] / [`rms`] helpers shared across crates.
//!
//! The scalar routines are the reference oracle; every chunked/fused kernel is tested
//! to agree with them within tight tolerance (≤ 1e-5 relative on normalized outputs;
//! bit-exact is not required — the lane-parallel summation order differs, exactly as
//! a hardware adder tree's does).
//!
//! These kernels are the substrate of the core crate's execution backends: the
//! `haan::backend` module composes [`VectorStats::compute_chunked`] /
//! [`apply_norm_into`] / [`normalize_rows_into`] into the scalar and fused backends
//! behind one dispatchable trait (see `ARCHITECTURE.md` at the repository root for
//! the full layering).

use crate::error::NumericError;

/// A small epsilon matching the default of PyTorch's `LayerNorm` (1e-5), used to keep
/// the ISD finite for (nearly) constant inputs.
pub const DEFAULT_EPS: f32 = 1e-5;

/// Mean, variance and derived statistics of a vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorStats {
    /// Arithmetic mean.
    pub mean: f32,
    /// Population variance (divide by N, matching LayerNorm).
    pub variance: f32,
    /// Number of elements the statistics were computed from.
    pub count: usize,
}

impl VectorStats {
    /// Computes mean and variance with the numerically robust two-pass algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty; use [`VectorStats::try_compute`] for a fallible
    /// variant.
    #[must_use]
    pub fn compute(values: &[f32]) -> Self {
        Self::try_compute(values).expect("input slice is empty")
    }

    /// Fallible version of [`VectorStats::compute`].
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::EmptyInput`] for an empty slice.
    pub fn try_compute(values: &[f32]) -> Result<Self, NumericError> {
        if values.is_empty() {
            return Err(NumericError::EmptyInput);
        }
        let n = values.len() as f64;
        let mean = values.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
        let variance = values
            .iter()
            .map(|&v| {
                let d = f64::from(v) - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        Ok(Self {
            mean: mean as f32,
            variance: variance as f32,
            count: values.len(),
        })
    }

    /// Computes mean and variance with the one-pass `E[x²] − E[x]²` formulation used by
    /// the input statistics calculator (Eq. 5). Slightly less numerically robust than
    /// the two-pass algorithm, exactly like the hardware.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::EmptyInput`] for an empty slice.
    pub fn compute_one_pass(values: &[f32]) -> Result<Self, NumericError> {
        if values.is_empty() {
            return Err(NumericError::EmptyInput);
        }
        let n = values.len() as f64;
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for &v in values {
            let v = f64::from(v);
            sum += v;
            sum_sq += v * v;
        }
        let mean = sum / n;
        let variance = (sum_sq / n - mean * mean).max(0.0);
        Ok(Self {
            mean: mean as f32,
            variance: variance as f32,
            count: values.len(),
        })
    }

    /// Computes mean and variance with a shift-centred one-pass formulation over
    /// [`CHUNK_LANES`] independent accumulator lanes (hot loop in
    /// `accumulate_lanes`).
    ///
    /// This is the SIMD-amenable form of [`VectorStats::compute_one_pass`]:
    ///
    /// * every element is shifted by the first element before accumulation
    ///   (`Var(x − c) = Var(x)`), which removes the catastrophic `E[x²] − E[x]²`
    ///   cancellation for data whose mean dwarfs its spread;
    /// * the running `Σd` / `Σd²` chains are split across [`CHUNK_LANES`] f32 lanes so the
    ///   compiler keeps vector registers full, and every [`CHUNK_BLOCK`] elements the
    ///   lanes are flushed into f64 totals, bounding the f32 rounding error per block
    ///   regardless of row length.
    ///
    /// The summation order therefore differs from the scalar kernel — like a hardware
    /// adder tree — but the result agrees with the two-pass reference within tight
    /// tolerance. Inputs that underflow or overflow the f32 accumulators (subnormal
    /// scales, magnitudes near `f32::MAX`, NaN) fall back to the exact
    /// [`VectorStats::compute_one_pass`] path.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::EmptyInput`] for an empty slice.
    pub fn compute_chunked(values: &[f32]) -> Result<Self, NumericError> {
        if values.is_empty() {
            return Err(NumericError::EmptyInput);
        }
        let shift = values[0];
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for block in values.chunks(CHUNK_BLOCK) {
            let (chunks, remainder) = block.as_chunks::<CHUNK_LANES>();
            let (mut sum_lanes, mut sq_lanes) =
                accumulate_lanes(chunks, shift, [0.0; CHUNK_LANES], [0.0; CHUNK_LANES]);
            for (lane, &v) in remainder.iter().enumerate() {
                let d = v - shift;
                sum_lanes[lane] += d;
                sq_lanes[lane] += d * d;
            }
            // Pairwise lane reduction keeps the tree shape deterministic.
            let mut width = CHUNK_LANES / 2;
            while width > 0 {
                for lane in 0..width {
                    sum_lanes[lane] += sum_lanes[lane + width];
                    sq_lanes[lane] += sq_lanes[lane + width];
                }
                width /= 2;
            }
            sum += f64::from(sum_lanes[0]);
            sum_sq += f64::from(sq_lanes[0]);
        }
        // Underflow (squares of subnormal-scale shifts vanish in f32), overflow and
        // NaN all disqualify the fast accumulators; recompute exactly.
        let healthy = sum.is_finite()
            && sum_sq.is_finite()
            && (sum_sq >= 1e-30 || (sum_sq == 0.0 && sum == 0.0));
        if !healthy {
            return Self::compute_one_pass(values);
        }
        let n = values.len() as f64;
        let shifted_mean = sum / n;
        let variance = (sum_sq / n - shifted_mean * shifted_mean).max(0.0);
        Ok(Self {
            mean: (f64::from(shift) + shifted_mean) as f32,
            variance: variance as f32,
            count: values.len(),
        })
    }

    /// Standard deviation with the given epsilon.
    #[must_use]
    pub fn std_dev(&self, eps: f32) -> f32 {
        (self.variance + eps).sqrt()
    }

    /// Inverse standard deviation `1/σ` with the given epsilon.
    #[must_use]
    pub fn isd(&self, eps: f32) -> f32 {
        1.0 / self.std_dev(eps)
    }

    /// Root-mean-square value `sqrt(E[x²])`, the statistic used by RMSNorm.
    #[must_use]
    pub fn rms(&self, eps: f32) -> f32 {
        (self.variance + self.mean * self.mean + eps).sqrt()
    }
}

/// Computes the exact ISD of a vector with [`DEFAULT_EPS`].
///
/// # Errors
///
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn isd(values: &[f32]) -> Result<f32, NumericError> {
    Ok(VectorStats::try_compute(values)?.isd(DEFAULT_EPS))
}

/// Computes the RMS value of a vector with [`DEFAULT_EPS`].
///
/// # Errors
///
/// Returns [`NumericError::EmptyInput`] for an empty slice.
pub fn rms(values: &[f32]) -> Result<f32, NumericError> {
    Ok(VectorStats::try_compute(values)?.rms(DEFAULT_EPS))
}

/// Number of independent accumulator lanes in the chunked/fused kernels.
pub const CHUNK_LANES: usize = 16;

/// Elements accumulated in f32 lanes between f64 flushes in
/// [`VectorStats::compute_chunked`]: 16 additions per lane per block keeps the f32
/// rounding error a few ULP while amortising the f64 conversion.
pub const CHUNK_BLOCK: usize = 256;

/// Hot lane loop of [`VectorStats::compute_chunked`]: accumulates shifted sums and
/// squares across the whole-chunk portion of one block.
///
/// Deliberately `#[inline(never)]` with by-value accumulators: isolated like this,
/// LLVM vectorizes the fixed-shape `[f32; CHUNK_LANES]` loop into packed lane
/// arithmetic, whereas inlined next to the remainder/reduction-tree code (whose
/// dynamic indexing forces the accumulators into memory) the same loop is
/// SLP-scalarized — ~3× slower. The per-lane operation order is identical either
/// way, so results are bit-identical.
#[inline(never)]
pub(crate) fn accumulate_lanes(
    chunks: &[[f32; CHUNK_LANES]],
    shift: f32,
    mut sum_lanes: [f32; CHUNK_LANES],
    mut sq_lanes: [f32; CHUNK_LANES],
) -> ([f32; CHUNK_LANES], [f32; CHUNK_LANES]) {
    for chunk in chunks {
        for lane in 0..CHUNK_LANES {
            let d = chunk[lane] - shift;
            sum_lanes[lane] += d;
            sq_lanes[lane] += d * d;
        }
    }
    (sum_lanes, sq_lanes)
}

/// Which statistic the fused row kernels normalize by.
///
/// This mirrors the normalization kinds of the transformer substrate without depending
/// on it (the LLM crate sits above the numerics crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowNormMode {
    /// `γ · (x − μ)/σ + β` — recentre and rescale.
    LayerNorm,
    /// `γ · x / rms(x) + β` — rescale only.
    RmsNorm,
}

/// Applies the affine normalization `(x − μ)·isd·γ + β` (or the RMSNorm form) with
/// caller-provided statistics, writing into `out`.
///
/// This is the software equivalent of the accelerator's normalization units consuming
/// the statistics produced by the input statistics calculator: the statistics path and
/// the apply path are decoupled, so HAAN can inject subsampled or predicted statistics.
/// For [`RowNormMode::RmsNorm`], `mean` is ignored and `isd` is interpreted as `1/rms`.
///
/// # Errors
///
/// Returns [`NumericError::LengthMismatch`] when `gamma`, `beta` or `out` disagree with
/// `z` in length.
pub fn apply_norm_into(
    z: &[f32],
    gamma: &[f32],
    beta: &[f32],
    mode: RowNormMode,
    mean: f32,
    isd: f32,
    out: &mut [f32],
) -> Result<(), NumericError> {
    check_len("gamma", z.len(), gamma.len())?;
    check_len("beta", z.len(), beta.len())?;
    check_len("out", z.len(), out.len())?;
    // Re-slice to one common length so the compiler can hoist every bounds check and
    // vectorise the loops.
    let n = z.len();
    let (z, gamma, beta, out) = (&z[..n], &gamma[..n], &beta[..n], &mut out[..n]);
    match mode {
        RowNormMode::LayerNorm => {
            for i in 0..n {
                out[i] = (z[i] - mean) * (gamma[i] * isd) + beta[i];
            }
        }
        RowNormMode::RmsNorm => {
            for i in 0..n {
                out[i] = gamma[i] * (z[i] * isd) + beta[i];
            }
        }
    }
    Ok(())
}

/// Fused normalization of one row: chunked one-pass statistics plus the affine apply,
/// writing into `out` without allocating. Returns the statistics that were used so
/// callers (telemetry, anchor tracking) don't recompute them.
///
/// # Errors
///
/// Returns [`NumericError::EmptyInput`] for an empty row and
/// [`NumericError::LengthMismatch`] for inconsistent buffer lengths.
pub fn normalize_row_into(
    z: &[f32],
    gamma: &[f32],
    beta: &[f32],
    mode: RowNormMode,
    eps: f32,
    out: &mut [f32],
) -> Result<VectorStats, NumericError> {
    let stats = VectorStats::compute_chunked(z)?;
    let isd = match mode {
        RowNormMode::LayerNorm => stats.isd(eps),
        RowNormMode::RmsNorm => 1.0 / stats.rms(eps),
    };
    apply_norm_into(z, gamma, beta, mode, stats.mean, isd, out)?;
    Ok(stats)
}

/// Fused batched normalization: every `cols`-wide row of the row-major `data` buffer
/// is normalized into the matching row of `out` with exact (full-width, chunked)
/// statistics. One traversal per row, zero allocation.
///
/// This is the engine the batched `Normalizer` implementations dispatch to; the HAAN
/// normalizer composes [`VectorStats::compute_chunked`] over a subsampled prefix with
/// [`apply_norm_into`] instead, injecting its estimated statistics.
///
/// # Examples
///
/// ```
/// use haan_numerics::stats::{normalize_rows_into, RowNormMode, DEFAULT_EPS};
///
/// // Two rows of three elements, normalized independently into one output buffer.
/// let data = [1.0f32, 2.0, 3.0, 10.0, 20.0, 30.0];
/// let gamma = [1.0f32; 3];
/// let beta = [0.0f32; 3];
/// let mut out = [0.0f32; 6];
/// normalize_rows_into(&data, 3, &gamma, &beta, RowNormMode::LayerNorm, DEFAULT_EPS, &mut out)?;
/// // LayerNorm is scale-invariant, so both rows normalize to the same values…
/// assert!((out[0] - out[3]).abs() < 1e-4);
/// // …and each normalized row has (close to) zero mean.
/// assert!(out.iter().take(3).sum::<f32>().abs() < 1e-5);
/// # Ok::<(), haan_numerics::NumericError>(())
/// ```
///
/// # Errors
///
/// Returns [`NumericError::LengthMismatch`] when `data` is not a whole number of rows
/// or when `gamma` / `beta` / `out` lengths disagree, and
/// [`NumericError::EmptyInput`] when `cols` is zero while `data` is non-empty.
pub fn normalize_rows_into(
    data: &[f32],
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    mode: RowNormMode,
    eps: f32,
    out: &mut [f32],
) -> Result<(), NumericError> {
    if cols == 0 {
        return if data.is_empty() {
            Ok(())
        } else {
            Err(NumericError::EmptyInput)
        };
    }
    if !data.len().is_multiple_of(cols) {
        return Err(NumericError::LengthMismatch {
            what: "data",
            expected: data.len().div_ceil(cols) * cols,
            actual: data.len(),
        });
    }
    check_len("gamma", cols, gamma.len())?;
    check_len("beta", cols, beta.len())?;
    check_len("out", data.len(), out.len())?;
    for (row, out_row) in data.chunks_exact(cols).zip(out.chunks_exact_mut(cols)) {
        normalize_row_into(row, gamma, beta, mode, eps, out_row)?;
    }
    Ok(())
}

pub(crate) fn check_len(
    what: &'static str,
    expected: usize,
    actual: usize,
) -> Result<(), NumericError> {
    if expected == actual {
        Ok(())
    } else {
        Err(NumericError::LengthMismatch {
            what,
            expected,
            actual,
        })
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Used by the activation profiler to aggregate ISD statistics over many tokens without
/// storing them all.
///
/// # Example
///
/// ```
/// use haan_numerics::stats::Welford;
/// let mut acc = Welford::new();
/// for v in [1.0f32, 2.0, 3.0, 4.0] {
///     acc.push(v);
/// }
/// assert_eq!(acc.count(), 4);
/// assert!((acc.mean() - 2.5).abs() < 1e-6);
/// assert!((acc.population_variance() - 1.25).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f32) {
        self.count += 1;
        let delta = f64::from(value) - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = f64::from(value) - self.mean;
        self.m2 += delta * delta2;
    }

    /// Adds every element of a slice.
    pub fn extend_from_slice(&mut self, values: &[f32]) {
        for &v in values {
            self.push(v);
        }
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (zero for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (zero for fewer than one observation).
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (zero for fewer than two observations).
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Merges another accumulator into this one (parallel Welford combination).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
    }
}

/// Relative error between an approximate and an exact value, `|approx − exact| / |exact|`.
///
/// Returns zero when the exact value is zero and the approximation matches it.
#[must_use]
pub fn relative_error(approx: f64, exact: f64) -> f64 {
    if exact == 0.0 {
        if approx == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        ((approx - exact) / exact).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn two_pass_matches_known_values() {
        let s = VectorStats::compute(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-6);
        assert!((s.variance - 1.25).abs() < 1e-6);
        assert_eq!(s.count, 4);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(VectorStats::try_compute(&[]).is_err());
        assert!(VectorStats::compute_one_pass(&[]).is_err());
        assert!(isd(&[]).is_err());
        assert!(rms(&[]).is_err());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn compute_panics_on_empty() {
        let _ = VectorStats::compute(&[]);
    }

    #[test]
    fn one_pass_matches_two_pass_for_well_conditioned_data() {
        let xs: Vec<f32> = (0..512)
            .map(|i| ((i * 37) % 101) as f32 / 10.0 - 5.0)
            .collect();
        let a = VectorStats::compute(&xs);
        let b = VectorStats::compute_one_pass(&xs).unwrap();
        assert!((a.mean - b.mean).abs() < 1e-4);
        assert!((a.variance - b.variance).abs() < 1e-3);
    }

    #[test]
    fn isd_and_rms_relationships() {
        let xs = [3.0f32, -3.0, 3.0, -3.0];
        let s = VectorStats::compute(&xs);
        // Mean 0, variance 9: σ = 3, ISD = 1/3, RMS = 3.
        assert!((s.isd(0.0) - 1.0 / 3.0).abs() < 1e-6);
        assert!((s.rms(0.0) - 3.0).abs() < 1e-6);
        assert!((isd(&xs).unwrap() - 1.0 / 3.0).abs() < 1e-4);
        assert!((rms(&xs).unwrap() - 3.0).abs() < 1e-4);
    }

    #[test]
    fn eps_keeps_isd_finite_for_constant_input() {
        let xs = [2.0f32; 16];
        let s = VectorStats::compute(&xs);
        assert!(s.isd(DEFAULT_EPS).is_finite());
        assert!(s.isd(DEFAULT_EPS) > 100.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f32> = (0..1000).map(|i| (i as f32).sin() * 4.0 + 1.0).collect();
        let mut acc = Welford::new();
        acc.extend_from_slice(&xs);
        let reference = VectorStats::compute(&xs);
        assert_eq!(acc.count(), 1000);
        assert!((acc.mean() - f64::from(reference.mean)).abs() < 1e-4);
        assert!((acc.population_variance() - f64::from(reference.variance)).abs() < 1e-3);
        assert!(acc.sample_variance() > acc.population_variance());
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f32> = (0..100).map(|i| i as f32 * 0.37 - 5.0).collect();
        let mut whole = Welford::new();
        whole.extend_from_slice(&xs);

        let mut left = Welford::new();
        let mut right = Welford::new();
        left.extend_from_slice(&xs[..37]);
        right.extend_from_slice(&xs[37..]);
        left.merge(&right);

        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.population_variance() - whole.population_variance()).abs() < 1e-9);

        // Merging with an empty accumulator is a no-op in both directions.
        let mut empty = Welford::new();
        empty.merge(&whole);
        assert_eq!(empty.count(), whole.count());
        let snapshot = whole;
        let mut whole2 = whole;
        whole2.merge(&Welford::new());
        assert_eq!(whole2, snapshot);
    }

    #[test]
    fn relative_error_edge_cases() {
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!(relative_error(1.0, 0.0).is_infinite());
        assert!((relative_error(1.1, 1.0) - 0.1).abs() < 1e-12);
    }

    /// Scalar oracle for the fused kernels: two-pass statistics, then the affine
    /// transform element by element.
    fn normalize_row_reference(
        z: &[f32],
        gamma: &[f32],
        beta: &[f32],
        mode: RowNormMode,
        eps: f32,
    ) -> Vec<f32> {
        let stats = VectorStats::compute(z);
        match mode {
            RowNormMode::LayerNorm => {
                let isd = stats.isd(eps);
                z.iter()
                    .zip(gamma.iter().zip(beta))
                    .map(|(&x, (&g, &b))| g * (x - stats.mean) * isd + b)
                    .collect()
            }
            RowNormMode::RmsNorm => {
                let inv_rms = 1.0 / stats.rms(eps);
                z.iter()
                    .zip(gamma.iter().zip(beta))
                    .map(|(&x, (&g, &b))| g * x * inv_rms + b)
                    .collect()
            }
        }
    }

    /// The edge shapes every chunked/fused kernel must handle: a single element, a
    /// lane-width row, rows straddling the lane width, and a paper-width row.
    const EDGE_LENGTHS: [usize; 8] = [1, 2, 7, 8, 9, 13, 127, 4096];

    fn varied_row(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| (((i * 2654435761) % 1000) as f32 / 250.0 - 2.0) * scale)
            .collect()
    }

    #[test]
    fn chunked_matches_two_pass_on_edge_shapes() {
        for len in EDGE_LENGTHS {
            for scale in [1.0f32, 1e-3, 1e3] {
                let xs = varied_row(len, scale);
                let reference = VectorStats::compute(&xs);
                let chunked = VectorStats::compute_chunked(&xs).unwrap();
                assert_eq!(chunked.count, reference.count);
                assert!(
                    relative_error(f64::from(chunked.mean), f64::from(reference.mean)) < 1e-5
                        || (chunked.mean - reference.mean).abs() < 1e-6,
                    "len {len} scale {scale}: mean {} vs {}",
                    chunked.mean,
                    reference.mean
                );
                assert!(
                    relative_error(f64::from(chunked.variance), f64::from(reference.variance))
                        < 1e-4
                        || (chunked.variance - reference.variance).abs() < 1e-9,
                    "len {len} scale {scale}: variance {} vs {}",
                    chunked.variance,
                    reference.variance
                );
            }
        }
        assert!(VectorStats::compute_chunked(&[]).is_err());
    }

    #[test]
    fn chunked_handles_constant_and_subnormal_rows() {
        // Constant rows: zero variance regardless of summation order.
        for len in EDGE_LENGTHS {
            let xs = vec![3.25f32; len];
            let s = VectorStats::compute_chunked(&xs).unwrap();
            assert!((s.mean - 3.25).abs() < 1e-6);
            assert!(
                s.variance.abs() < 1e-9,
                "len {len}: variance {}",
                s.variance
            );
        }
        // Subnormal-scale values must not flush to garbage (accumulation is f64).
        let tiny: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 1.0e-38).collect();
        let reference = VectorStats::compute(&tiny);
        let chunked = VectorStats::compute_chunked(&tiny).unwrap();
        assert!((chunked.mean - reference.mean).abs() <= f32::EPSILON * 1e-35);
        assert!(relative_error(f64::from(chunked.variance), f64::from(reference.variance)) < 1e-4);
    }

    #[test]
    fn fused_row_matches_scalar_reference_on_edge_shapes() {
        for mode in [RowNormMode::LayerNorm, RowNormMode::RmsNorm] {
            for len in EDGE_LENGTHS {
                let z = varied_row(len, 1.5);
                let gamma: Vec<f32> = (0..len).map(|i| 1.0 + (i % 5) as f32 * 0.1).collect();
                let beta: Vec<f32> = (0..len).map(|i| (i % 3) as f32 * 0.2 - 0.2).collect();
                let reference = normalize_row_reference(&z, &gamma, &beta, mode, DEFAULT_EPS);
                let mut fused = vec![0.0f32; len];
                let stats =
                    normalize_row_into(&z, &gamma, &beta, mode, DEFAULT_EPS, &mut fused).unwrap();
                assert_eq!(stats.count, len);
                for (i, (f, r)) in fused.iter().zip(&reference).enumerate() {
                    assert!(
                        (f - r).abs() <= 1e-6 * r.abs().max(1.0),
                        "{mode:?} len {len} element {i}: {f} vs {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_batch_matches_per_row_kernel() {
        let cols = 13; // deliberately not a multiple of the lane width
        let rows = 7;
        let data: Vec<f32> = (0..rows * cols).map(|i| (i as f32).sin() * 2.0).collect();
        let gamma = vec![1.1f32; cols];
        let beta = vec![-0.3f32; cols];
        let mut batched = vec![0.0f32; rows * cols];
        normalize_rows_into(
            &data,
            cols,
            &gamma,
            &beta,
            RowNormMode::LayerNorm,
            DEFAULT_EPS,
            &mut batched,
        )
        .unwrap();
        for row in 0..rows {
            let mut single = vec![0.0f32; cols];
            normalize_row_into(
                &data[row * cols..(row + 1) * cols],
                &gamma,
                &beta,
                RowNormMode::LayerNorm,
                DEFAULT_EPS,
                &mut single,
            )
            .unwrap();
            assert_eq!(&batched[row * cols..(row + 1) * cols], &single[..]);
        }
    }

    #[test]
    fn batched_kernel_validates_shapes() {
        let mut out = vec![0.0f32; 8];
        // Empty input with zero cols is a no-op.
        assert!(normalize_rows_into(
            &[],
            0,
            &[],
            &[],
            RowNormMode::LayerNorm,
            DEFAULT_EPS,
            &mut []
        )
        .is_ok());
        // Non-empty input with zero cols is an error.
        assert!(normalize_rows_into(
            &[1.0],
            0,
            &[],
            &[],
            RowNormMode::LayerNorm,
            DEFAULT_EPS,
            &mut out
        )
        .is_err());
        // Ragged data length.
        assert!(normalize_rows_into(
            &[1.0, 2.0, 3.0],
            2,
            &[1.0, 1.0],
            &[0.0, 0.0],
            RowNormMode::LayerNorm,
            DEFAULT_EPS,
            &mut out[..3]
        )
        .is_err());
        // Mismatched gamma / beta / out.
        let z = [1.0f32, 2.0, 3.0, 4.0];
        let mut out4 = [0.0f32; 4];
        assert!(apply_norm_into(
            &z,
            &[1.0; 3],
            &[0.0; 4],
            RowNormMode::LayerNorm,
            0.0,
            1.0,
            &mut out4
        )
        .is_err());
        assert!(apply_norm_into(
            &z,
            &[1.0; 4],
            &[0.0; 2],
            RowNormMode::LayerNorm,
            0.0,
            1.0,
            &mut out4
        )
        .is_err());
        assert!(apply_norm_into(
            &z,
            &[1.0; 4],
            &[0.0; 4],
            RowNormMode::LayerNorm,
            0.0,
            1.0,
            &mut out4[..2]
        )
        .is_err());
    }

    #[test]
    fn apply_norm_into_honours_injected_statistics() {
        // With mean 0 and ISD 1 LayerNorm apply is the affine identity.
        let z = [1.0f32, -2.0, 3.0, -4.0];
        let gamma = [2.0f32; 4];
        let beta = [1.0f32; 4];
        let mut out = [0.0f32; 4];
        apply_norm_into(
            &z,
            &gamma,
            &beta,
            RowNormMode::LayerNorm,
            0.0,
            1.0,
            &mut out,
        )
        .unwrap();
        for (o, &x) in out.iter().zip(&z) {
            assert!((o - (2.0 * x + 1.0)).abs() < 1e-6);
        }
        // RMSNorm ignores the mean entirely.
        let mut rms_out = [0.0f32; 4];
        apply_norm_into(
            &z,
            &gamma,
            &beta,
            RowNormMode::RmsNorm,
            1.0e9,
            0.5,
            &mut rms_out,
        )
        .unwrap();
        for (o, &x) in rms_out.iter().zip(&z) {
            assert!((o - (2.0 * x * 0.5 + 1.0)).abs() < 1e-6);
        }
    }

    proptest! {
        #[test]
        fn prop_variance_is_non_negative(xs in proptest::collection::vec(-100.0f32..100.0, 1..256)) {
            let s = VectorStats::compute(&xs);
            prop_assert!(s.variance >= 0.0);
            prop_assert!(VectorStats::compute_one_pass(&xs).unwrap().variance >= 0.0);
        }

        #[test]
        fn prop_one_pass_close_to_two_pass(xs in proptest::collection::vec(-10.0f32..10.0, 2..256)) {
            let a = VectorStats::compute(&xs);
            let b = VectorStats::compute_one_pass(&xs).unwrap();
            prop_assert!((a.mean - b.mean).abs() < 1e-3);
            prop_assert!((a.variance - b.variance).abs() < 1e-2);
        }

        #[test]
        fn prop_chunked_close_to_two_pass(xs in proptest::collection::vec(-10.0f32..10.0, 1..300)) {
            let a = VectorStats::compute(&xs);
            let b = VectorStats::compute_chunked(&xs).unwrap();
            prop_assert!((a.mean - b.mean).abs() < 1e-4);
            prop_assert!((a.variance - b.variance).abs() < 1e-3);
            prop_assert!(b.variance >= 0.0);
        }

        #[test]
        fn prop_fused_row_close_to_scalar_reference(
            xs in proptest::collection::vec(-8.0f32..8.0, 1..200),
            gamma_scale in 0.5f32..2.0,
            beta_shift in -1.0f32..1.0,
        ) {
            let gamma = vec![gamma_scale; xs.len()];
            let beta = vec![beta_shift; xs.len()];
            for mode in [RowNormMode::LayerNorm, RowNormMode::RmsNorm] {
                let reference = normalize_row_reference(&xs, &gamma, &beta, mode, DEFAULT_EPS);
                let mut fused = vec![0.0f32; xs.len()];
                normalize_row_into(&xs, &gamma, &beta, mode, DEFAULT_EPS, &mut fused).unwrap();
                for (f, r) in fused.iter().zip(&reference) {
                    prop_assert!((f - r).abs() <= 1e-5 * r.abs().max(1.0), "{f} vs {r}");
                }
            }
        }

        #[test]
        fn prop_welford_merge_associative(
            xs in proptest::collection::vec(-10.0f32..10.0, 1..64),
            ys in proptest::collection::vec(-10.0f32..10.0, 1..64),
        ) {
            let mut merged = Welford::new();
            merged.extend_from_slice(&xs);
            let mut other = Welford::new();
            other.extend_from_slice(&ys);
            merged.merge(&other);

            let mut sequential = Welford::new();
            sequential.extend_from_slice(&xs);
            sequential.extend_from_slice(&ys);

            prop_assert_eq!(merged.count(), sequential.count());
            prop_assert!((merged.mean() - sequential.mean()).abs() < 1e-6);
            prop_assert!((merged.population_variance() - sequential.population_variance()).abs() < 1e-6);
        }
    }
}
