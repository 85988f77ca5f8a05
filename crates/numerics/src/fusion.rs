//! Cross-operation fusion kernel: residual add + row statistics.
//!
//! The d-Matrix fusion paper observes that normalization around a transformer block
//! wastes memory bandwidth: the residual sum is written out and immediately re-read
//! to compute row statistics. [`add_rows_stats_chunked`] closes that seam in
//! software and is written so that the fused result is **bit-identical** to the
//! composed sequence it replaces: it computes `sum_out = a + b` elementwise while
//! accumulating the same shift-centred, lane-parallel statistics as
//! [`VectorStats::compute_chunked`] over the summed values — one traversal while the
//! row is cache-hot instead of a write followed by a full re-read. Every float
//! operation (the `a + b` add, the shift, the lane assignment, the pairwise lane
//! tree, the health check, the one-pass fallback) matches the composed
//! `add`-then-`compute_chunked` sequence exactly.
//!
//! The paper's other fusion seam, normalization folded into the following matmul,
//! has no kernel here: on a CPU that streams the weights from memory the matmul is
//! bound by weight bandwidth, and a software epilogue measured slower than
//! normalize-then-matmul (see `ARCHITECTURE.md`, "Fusion sites").

use crate::error::NumericError;
use crate::stats::{check_len, VectorStats, CHUNK_BLOCK, CHUNK_LANES};

/// Hot lane loop of [`add_rows_stats_chunked`]: sums the whole-chunk portion of one
/// block elementwise into `chunks_s` while accumulating the shifted statistics lanes.
///
/// `#[inline(never)]` with by-value accumulators for the same reason as
/// `stats::accumulate_lanes`: isolated, LLVM keeps the fixed-shape
/// `[f32; CHUNK_LANES]` loop packed; inlined next to the remainder/reduction-tree
/// code it is SLP-scalarized. Identical per-lane operation order, bit-identical
/// results.
#[inline(never)]
fn add_accumulate_lanes(
    chunks_a: &[[f32; CHUNK_LANES]],
    chunks_b: &[[f32; CHUNK_LANES]],
    chunks_s: &mut [[f32; CHUNK_LANES]],
    shift: f32,
    mut sum_lanes: [f32; CHUNK_LANES],
    mut sq_lanes: [f32; CHUNK_LANES],
) -> ([f32; CHUNK_LANES], [f32; CHUNK_LANES]) {
    for ((ca, cb), cs) in chunks_a.iter().zip(chunks_b).zip(chunks_s) {
        for lane in 0..CHUNK_LANES {
            let s = ca[lane] + cb[lane];
            cs[lane] = s;
            let d = s - shift;
            sum_lanes[lane] += d;
            sq_lanes[lane] += d * d;
        }
    }
    (sum_lanes, sq_lanes)
}

/// Fused residual add + chunked row statistics: writes `sum_out[i] = a[i] + b[i]` and
/// returns the [`VectorStats::compute_chunked`] statistics of the summed row, in one
/// traversal.
///
/// Bit-identical to the composed sequence
/// `for i { sum_out[i] = a[i] + b[i] }; VectorStats::compute_chunked(sum_out)`:
/// the shift is the first summed element, the lane/block accumulation structure is the
/// same, and unhealthy accumulators fall back to
/// [`VectorStats::compute_one_pass`] over the (already written) summed row exactly like
/// the composed kernel does.
///
/// # Errors
///
/// Returns [`NumericError::EmptyInput`] for empty rows and
/// [`NumericError::LengthMismatch`] when `b` or `sum_out` disagree with `a` in length.
pub fn add_rows_stats_chunked(
    a: &[f32],
    b: &[f32],
    sum_out: &mut [f32],
) -> Result<VectorStats, NumericError> {
    check_len("residual", a.len(), b.len())?;
    check_len("sum_out", a.len(), sum_out.len())?;
    if a.is_empty() {
        return Err(NumericError::EmptyInput);
    }
    let shift = a[0] + b[0];
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for ((block_a, block_b), block_s) in a
        .chunks(CHUNK_BLOCK)
        .zip(b.chunks(CHUNK_BLOCK))
        .zip(sum_out.chunks_mut(CHUNK_BLOCK))
    {
        let (chunks_a, rem_a) = block_a.as_chunks::<CHUNK_LANES>();
        let (chunks_b, rem_b) = block_b.as_chunks::<CHUNK_LANES>();
        let (chunks_s, rem_s) = block_s.as_chunks_mut::<CHUNK_LANES>();
        let (mut sum_lanes, mut sq_lanes) = add_accumulate_lanes(
            chunks_a,
            chunks_b,
            chunks_s,
            shift,
            [0.0; CHUNK_LANES],
            [0.0; CHUNK_LANES],
        );
        for (lane, ((&va, &vb), vs)) in rem_a.iter().zip(rem_b).zip(rem_s).enumerate() {
            let s = va + vb;
            *vs = s;
            let d = s - shift;
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
    // Same disqualification rule as `compute_chunked`; the summed row is fully
    // written at this point, so the exact fallback sees the same values the composed
    // sequence would.
    let healthy =
        sum.is_finite() && sum_sq.is_finite() && (sum_sq >= 1e-30 || (sum_sq == 0.0 && sum == 0.0));
    if !healthy {
        return VectorStats::compute_one_pass(sum_out);
    }
    let n = a.len() as f64;
    let shifted_mean = sum / n;
    let variance = (sum_sq / n - shifted_mean * shifted_mean).max(0.0);
    Ok(VectorStats {
        mean: (f64::from(shift) + shifted_mean) as f32,
        variance: variance as f32,
        count: a.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGE_LENGTHS: [usize; 8] = [1, 2, 7, 8, 9, 13, 127, 300];

    fn varied_row(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| (((i * 2_654_435_761) % 1000) as f32 / 250.0 - 2.0) * scale)
            .collect()
    }

    #[test]
    fn fused_add_stats_is_bit_identical_to_add_then_chunked() {
        for &len in &EDGE_LENGTHS {
            for &scale in &[1.0f32, 1e-3, 1e3] {
                let a = varied_row(len, scale);
                let b = varied_row(len, scale * 0.5);
                let mut fused_sum = vec![0.0f32; len];
                let fused = add_rows_stats_chunked(&a, &b, &mut fused_sum).unwrap();

                let composed_sum: Vec<f32> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
                let composed = VectorStats::compute_chunked(&composed_sum).unwrap();

                assert_eq!(fused_sum, composed_sum, "len {len} scale {scale}");
                assert_eq!(fused.mean.to_bits(), composed.mean.to_bits());
                assert_eq!(fused.variance.to_bits(), composed.variance.to_bits());
                assert_eq!(fused.count, composed.count);
            }
        }
    }

    #[test]
    fn fused_add_stats_subnormal_rows_take_the_exact_fallback_identically() {
        // Squares of ~1e-38-scale deviations vanish in f32, tripping the health check
        // in both the fused and the composed kernel; the fallbacks must agree too.
        for &len in &EDGE_LENGTHS {
            let a = varied_row(len, 1e-38);
            let b = varied_row(len, 0.5e-38);
            let mut fused_sum = vec![0.0f32; len];
            let fused = add_rows_stats_chunked(&a, &b, &mut fused_sum).unwrap();

            let composed_sum: Vec<f32> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
            let composed = VectorStats::compute_chunked(&composed_sum).unwrap();

            assert_eq!(fused_sum, composed_sum);
            assert_eq!(fused.mean.to_bits(), composed.mean.to_bits());
            assert_eq!(fused.variance.to_bits(), composed.variance.to_bits());
        }
    }

    #[test]
    fn fused_add_stats_rejects_mismatched_lengths_and_empty_rows() {
        let mut sum = [0.0f32; 2];
        assert!(matches!(
            add_rows_stats_chunked(&[1.0, 2.0], &[1.0], &mut sum),
            Err(NumericError::LengthMismatch {
                what: "residual",
                ..
            })
        ));
        assert!(matches!(
            add_rows_stats_chunked(&[1.0, 2.0], &[1.0, 2.0], &mut sum[..1]),
            Err(NumericError::LengthMismatch {
                what: "sum_out",
                ..
            })
        ));
        let mut empty: [f32; 0] = [];
        assert!(matches!(
            add_rows_stats_chunked(&[], &[], &mut empty),
            Err(NumericError::EmptyInput)
        ));
    }
}
