//! Seeded random weight initialisation helpers.
//!
//! The reproduction has no pretrained checkpoints, so weights are drawn from seeded
//! Gaussians. The per-block output gains are shaped (see [`depth_gain`]) so that the
//! residual-stream variance evolves with depth the way the paper's Fig. 2 ISD profiles
//! show: fast growth in the first blocks, then a steady exponential ramp that makes
//! `log(ISD)` approximately linear in the later layers.

use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Draws a `rows × cols` matrix with i.i.d. Gaussian entries of the given standard
/// deviation (Box–Muller, so only `rand::Rng` is required).
#[must_use]
pub fn gaussian_matrix(rng: &mut StdRng, rows: usize, cols: usize, std: f32) -> Matrix {
    let data = gaussian_samples(rng, std).take(rows * cols).collect();
    Matrix::from_vec(rows, cols, data).expect("dimensions are consistent by construction")
}

/// [`gaussian_matrix`] in the column-panel layout of projection weights
/// ([`Matrix::packed_from_fn`]): the same draws in the same order, each written
/// straight into its panel slot.
#[must_use]
pub fn gaussian_weight(rng: &mut StdRng, rows: usize, cols: usize, std: f32) -> Matrix {
    let mut samples = gaussian_samples(rng, std);
    Matrix::packed_from_fn(rows, cols, |_, _| {
        samples.next().expect("the sample stream never ends")
    })
}

/// An endless stream of Gaussian samples: Box–Muller pairs, cosine then sine.
/// A pair is drawn only when its first sample is taken.
fn gaussian_samples(rng: &mut StdRng, std: f32) -> impl Iterator<Item = f32> + '_ {
    std::iter::repeat_with(move || {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        [r * theta.cos() * std, r * theta.sin() * std]
    })
    .flatten()
}

/// Draws a bias / scale vector with i.i.d. Gaussian entries around `mean`.
#[must_use]
pub fn gaussian_vector(rng: &mut StdRng, len: usize, mean: f32, std: f32) -> Vec<f32> {
    gaussian_matrix(rng, 1, len, std)
        .as_slice()
        .iter()
        .map(|v| v + mean)
        .collect()
}

/// The gain applied to a block's output projections as a function of its depth.
///
/// * The first few blocks get a boost so the residual stream variance jumps early
///   (the steep initial ISD drop in Fig. 2).
/// * Later blocks ramp exponentially at `rate`, which makes the cumulative variance —
///   and therefore `log(ISD)` — approximately linear in the layer index for the deep
///   half of the model.
#[must_use]
pub fn depth_gain(block_index: usize, num_blocks: usize, rate: f32) -> f32 {
    let early_boost = match block_index {
        0 => 3.0,
        1 => 2.0,
        2 => 1.5,
        _ => 1.0,
    };
    let _ = num_blocks;
    early_boost * (rate * block_index as f32).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use haan_numerics::stats::VectorStats;
    use rand::SeedableRng;

    #[test]
    fn gaussian_matrix_has_requested_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = gaussian_matrix(&mut rng, 64, 64, 0.5);
        let stats = VectorStats::compute(m.as_slice());
        assert!(stats.mean.abs() < 0.02);
        assert!((stats.variance.sqrt() - 0.5).abs() < 0.02);
    }

    #[test]
    fn gaussian_matrix_is_deterministic_per_seed() {
        let a = gaussian_matrix(&mut StdRng::seed_from_u64(3), 4, 4, 1.0);
        let b = gaussian_matrix(&mut StdRng::seed_from_u64(3), 4, 4, 1.0);
        let c = gaussian_matrix(&mut StdRng::seed_from_u64(4), 4, 4, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gaussian_weight_draws_the_gaussian_matrix_stream() {
        // Odd sizes leave a discarded sine sample; the next draw must still line up.
        let mut rng_a = StdRng::seed_from_u64(12);
        let mut rng_b = StdRng::seed_from_u64(12);
        for (rows, cols) in [(3, 5), (17, 33)] {
            let dense = gaussian_matrix(&mut rng_a, rows, cols, 0.7);
            let packed = gaussian_weight(&mut rng_b, rows, cols, 0.7);
            assert!(packed.is_packed());
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(packed.get(r, c).to_bits(), dense.get(r, c).to_bits());
                }
            }
        }
    }

    #[test]
    fn gaussian_vector_is_centred_on_mean() {
        let mut rng = StdRng::seed_from_u64(11);
        let v = gaussian_vector(&mut rng, 4096, 1.0, 0.05);
        let stats = VectorStats::compute(&v);
        assert!((stats.mean - 1.0).abs() < 0.01);
        assert_eq!(v.len(), 4096);
    }

    #[test]
    fn odd_sized_matrix_is_filled_completely() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = gaussian_matrix(&mut rng, 3, 3, 1.0);
        assert_eq!(m.as_slice().len(), 9);
    }

    #[test]
    fn depth_gain_boosts_early_blocks_and_ramps_later() {
        assert!(depth_gain(0, 32, 0.05) > depth_gain(3, 32, 0.05));
        assert!(depth_gain(20, 32, 0.05) > depth_gain(10, 32, 0.05));
        // With zero rate, deep blocks all share the same gain.
        assert_eq!(depth_gain(10, 32, 0.0), depth_gain(20, 32, 0.0));
    }
}
