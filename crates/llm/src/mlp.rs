//! Position-wise feed-forward networks (GeLU MLP for GPT-2/OPT, SwiGLU for LLaMA).

use crate::config::ModelFamily;
use crate::error::LlmError;
use crate::init::gaussian_weight;
use crate::tensor::{gelu, silu, Matrix};
use rand::rngs::StdRng;

/// A position-wise feed-forward network.
///
/// GPT-2/OPT use the classic two-matrix GeLU MLP; LLaMA uses the gated SwiGLU variant
/// with three matrices. Both are supported so that the LLaMA-7B and GPT-2/OPT subjects
/// of the paper exercise their actual block structure.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedForward {
    family: ModelFamily,
    embedding_dim: usize,
    mlp_dim: usize,
    w_in: Matrix,
    w_gate: Option<Matrix>,
    w_out: Matrix,
}

impl FeedForward {
    /// Creates a feed-forward layer with seeded Gaussian weights. `output_gain` scales
    /// the down-projection, shaping the residual-stream variance growth with depth.
    #[must_use]
    pub fn new(
        rng: &mut StdRng,
        family: ModelFamily,
        embedding_dim: usize,
        mlp_dim: usize,
        output_gain: f32,
    ) -> Self {
        let std_in = (1.0 / embedding_dim as f32).sqrt();
        let std_out = (1.0 / mlp_dim as f32).sqrt() * output_gain;
        let w_gate = match family {
            ModelFamily::Llama => Some(gaussian_weight(rng, embedding_dim, mlp_dim, std_in)),
            ModelFamily::Opt | ModelFamily::Gpt2 => None,
        };
        Self {
            family,
            embedding_dim,
            mlp_dim,
            w_in: gaussian_weight(rng, embedding_dim, mlp_dim, std_in),
            w_gate,
            w_out: gaussian_weight(rng, mlp_dim, embedding_dim, std_out),
        }
    }

    /// Embedding width.
    #[must_use]
    pub fn embedding_dim(&self) -> usize {
        self.embedding_dim
    }

    /// Hidden width.
    #[must_use]
    pub fn mlp_dim(&self) -> usize {
        self.mlp_dim
    }

    /// True when this is a gated (SwiGLU) MLP.
    #[must_use]
    pub fn is_gated(&self) -> bool {
        self.w_gate.is_some()
    }

    /// The input (up) projection weights — a matmul consumer of the pre-MLP
    /// normalization site.
    #[must_use]
    pub fn w_in(&self) -> &Matrix {
        &self.w_in
    }

    /// The gate projection weights of a SwiGLU MLP (a second matmul consumer of
    /// the same fused site), or `None` for the ungated GeLU variant.
    #[must_use]
    pub fn w_gate(&self) -> Option<&Matrix> {
        self.w_gate.as_ref()
    }

    /// Every projection weight: in, gate (when gated), out.
    pub(crate) fn projection_weights(&self) -> impl Iterator<Item = &Matrix> {
        std::iter::once(&self.w_in)
            .chain(&self.w_gate)
            .chain(std::iter::once(&self.w_out))
    }

    /// Runs the MLP over a `seq × E` input.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the input width differs from the
    /// configured embedding dimension.
    pub fn forward(&self, input: &Matrix) -> Result<Matrix, LlmError> {
        if input.cols() != self.embedding_dim {
            return Err(LlmError::ShapeMismatch {
                op: "mlp forward",
                lhs: input.shape(),
                rhs: (self.embedding_dim, self.mlp_dim),
            });
        }
        // The activation rides the in-projection: each range of a split
        // product activates its own columns.
        let mut hidden = Matrix::zeros(input.rows(), self.mlp_dim);
        match &self.w_gate {
            None => input.matmul_activate_into(&self.w_in, &mut hidden, gelu)?,
            Some(w_gate) => {
                input.matmul_into(&self.w_in, &mut hidden)?;
                let mut gate = Matrix::zeros(input.rows(), self.mlp_dim);
                input.matmul_activate_into(w_gate, &mut gate, silu)?;
                hidden.mul_assign(&gate)?;
            }
        }
        hidden.matmul(&self.w_out)
    }

    /// Number of multiply-accumulate operations for a sequence of the given length.
    #[must_use]
    pub fn mac_count(&self, seq_len: usize) -> u64 {
        let matrices = if self.is_gated() { 3 } else { 2 };
        matrices * seq_len as u64 * self.embedding_dim as u64 * self.mlp_dim as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn gelu_mlp_shape_and_structure() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = FeedForward::new(&mut rng, ModelFamily::Gpt2, 16, 64, 1.0);
        assert!(!mlp.is_gated());
        assert_eq!(mlp.embedding_dim(), 16);
        assert_eq!(mlp.mlp_dim(), 64);
        let out = mlp.forward(&Matrix::zeros(3, 16)).unwrap();
        assert_eq!(out.shape(), (3, 16));
    }

    #[test]
    fn swiglu_mlp_is_gated() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = FeedForward::new(&mut rng, ModelFamily::Llama, 16, 48, 1.0);
        assert!(mlp.is_gated());
        let input = crate::init::gaussian_matrix(&mut rng, 4, 16, 1.0);
        let out = mlp.forward(&input).unwrap();
        assert_eq!(out.shape(), (4, 16));
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let mut rng = StdRng::seed_from_u64(3);
        for family in [ModelFamily::Gpt2, ModelFamily::Llama] {
            let mlp = FeedForward::new(&mut rng, family, 8, 16, 1.0);
            let out = mlp.forward(&Matrix::zeros(2, 8)).unwrap();
            assert!(out.frobenius_norm() < 1e-6);
        }
    }

    #[test]
    fn wrong_width_is_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = FeedForward::new(&mut rng, ModelFamily::Gpt2, 16, 32, 1.0);
        assert!(mlp.forward(&Matrix::zeros(2, 8)).is_err());
    }

    #[test]
    fn mac_count_reflects_gating() {
        let mut rng = StdRng::seed_from_u64(5);
        let gelu_mlp = FeedForward::new(&mut rng, ModelFamily::Gpt2, 16, 32, 1.0);
        let swiglu_mlp = FeedForward::new(&mut rng, ModelFamily::Llama, 16, 32, 1.0);
        assert_eq!(gelu_mlp.mac_count(10), 2 * 10 * 16 * 32);
        assert_eq!(swiglu_mlp.mac_count(10), 3 * 10 * 16 * 32);
    }

    #[test]
    fn gpt2_and_opt_share_the_ungated_structure() {
        let mut rng = StdRng::seed_from_u64(6);
        let opt_mlp = FeedForward::new(&mut rng, ModelFamily::Opt, 8, 16, 1.0);
        assert!(!opt_mlp.is_gated());
    }
}
