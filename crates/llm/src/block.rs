//! A Pre-LN transformer block: `x + Attn(Norm(x))` followed by `x + MLP(Norm(x))`.

use crate::attention::{AttnScratch, MultiHeadAttention};
use crate::config::{ModelConfig, NormKind};
use crate::error::LlmError;
use crate::init::{depth_gain, gaussian_vector};
use crate::mlp::FeedForward;
use crate::norm::{NormSite, Normalizer};
use crate::paging::PagedKvCache;
use crate::tensor::Matrix;
use rand::rngs::StdRng;

/// One decoder block with its two normalization layers' learnable parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerBlock {
    block_index: usize,
    norm_kind: NormKind,
    gamma_attn: Vec<f32>,
    beta_attn: Vec<f32>,
    gamma_mlp: Vec<f32>,
    beta_mlp: Vec<f32>,
    attention: MultiHeadAttention,
    mlp: FeedForward,
}

impl TransformerBlock {
    /// The exponential depth-gain rate used to shape the residual-stream variance so
    /// that the deep-layer ISD profile is log-linear (Fig. 2).
    pub const DEPTH_GAIN_RATE: f32 = 0.08;

    /// Creates one block of the given model at `block_index`, drawing weights from `rng`.
    #[must_use]
    pub fn new(rng: &mut StdRng, config: &ModelConfig, block_index: usize) -> Self {
        let gain = depth_gain(block_index, config.num_blocks, Self::DEPTH_GAIN_RATE);
        let e = config.embedding_dim;
        Self {
            block_index,
            norm_kind: config.norm_kind(),
            gamma_attn: gaussian_vector(rng, e, 1.0, 0.05),
            beta_attn: gaussian_vector(rng, e, 0.0, 0.02),
            gamma_mlp: gaussian_vector(rng, e, 1.0, 0.05),
            beta_mlp: gaussian_vector(rng, e, 0.0, 0.02),
            attention: MultiHeadAttention::new(rng, e, config.num_heads, gain),
            mlp: FeedForward::new(rng, config.family, e, config.mlp_dim, gain),
        }
    }

    /// The block's position in the model.
    #[must_use]
    pub fn block_index(&self) -> usize {
        self.block_index
    }

    /// Every projection weight: attention Q/K/V/O, then the MLP's in/gate/out.
    pub(crate) fn projection_weights(&self) -> impl Iterator<Item = &Matrix> {
        self.attention
            .projection_weights()
            .into_iter()
            .chain(self.mlp.projection_weights())
    }

    /// Global index of the block's first normalization layer (pre-attention).
    #[must_use]
    pub fn first_norm_index(&self) -> usize {
        2 * self.block_index
    }

    /// Runs the block over a `seq × E` hidden-state matrix.
    ///
    /// `normalizer` is invoked once per token vector per normalization layer with the
    /// correct global [`NormSite`], so stateful normalizers observe layers in execution
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] if the hidden-state width is inconsistent
    /// with the block's weights.
    pub fn forward<N: Normalizer + ?Sized>(
        &self,
        hidden: &Matrix,
        normalizer: &mut N,
    ) -> Result<Matrix, LlmError> {
        if hidden.cols() != self.gamma_attn.len() {
            return Err(LlmError::ShapeMismatch {
                op: "block forward",
                lhs: hidden.shape(),
                rhs: (self.gamma_attn.len(), self.gamma_attn.len()),
            });
        }
        let (queries, keys, values) = self.project_qkv(hidden, normalizer)?;
        let after_attn = self.attention.forward_projected(&queries, &keys, &values)?;
        let (summed, normed_mlp) = self.residual_norm_mlp_site(&after_attn, hidden, normalizer);
        let mut out = self.mlp.forward(&normed_mlp)?;
        out.add_assign(&summed)?;
        Ok(out)
    }

    /// Runs the block incrementally over the hidden-state rows of the newest
    /// positions of many decode streams — the per-block half of
    /// [`TransformerModel::advance_many`](crate::TransformerModel::advance_many)
    /// and of every [`DecodeContext`](crate::DecodeContext) pass. Stream `s`
    /// contributes `segments[s]` consecutive rows of `hidden` (decode streams
    /// one row, chunk-prefilling streams a whole chunk), in stream order. Both
    /// normalization sites and every projection (Q/K/V, attention output, MLP)
    /// run once over the **entire stacked batch**; only the score/softmax/value
    /// loop runs per stream, each segment attending against (and appending to)
    /// its own paged cache through its own reusable [`AttnScratch`].
    /// Normalization, projections and residuals are row-local, so stacking
    /// changes no float: every stream's rows are bit-identical to
    /// [`TransformerBlock::forward`] over its full prefix, restricted to the
    /// new rows.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the hidden width is
    /// inconsistent with the block's weights, `segments`/`streams` disagree, or
    /// the segment rows do not sum to the batch rows, and
    /// [`LlmError::KvPoolExhausted`] when a stream's cache cannot grow.
    pub fn forward_cached_segments<N: Normalizer + ?Sized>(
        &self,
        hidden: &Matrix,
        segments: &[usize],
        normalizer: &mut N,
        streams: &mut [(&mut PagedKvCache, &mut AttnScratch)],
    ) -> Result<Matrix, LlmError> {
        let total: usize = segments.iter().sum();
        let e = self.gamma_attn.len();
        if hidden.cols() != e || hidden.rows() != total || segments.len() != streams.len() {
            return Err(LlmError::ShapeMismatch {
                op: "block forward_cached_segments",
                lhs: hidden.shape(),
                rhs: (total, e),
            });
        }
        let (queries, keys, values) = self.project_qkv(hidden, normalizer)?;
        // Per-stream attention: one cached pass per segment, reading its rows
        // of the batched Q/K/V in place and writing its head-concat rows
        // straight into the row batch.
        let mut heads = Matrix::zeros(total, e);
        let (q, k, v) = (queries.as_slice(), keys.as_slice(), values.as_slice());
        let mut start = 0;
        for (&rows, (cache, scratch)) in segments.iter().zip(streams.iter_mut()) {
            let seg = start * e..(start + rows) * e;
            self.attention.attend_paged_projected(
                &q[seg.clone()],
                &k[seg.clone()],
                &v[seg.clone()],
                cache,
                scratch,
                &mut heads.as_mut_slice()[seg],
            )?;
            start += rows;
        }
        let after_attn = self.attention.project_output(&heads)?;
        let (summed, normed_mlp) = self.residual_norm_mlp_site(&after_attn, hidden, normalizer);
        let mut out = self.mlp.forward(&normed_mlp)?;
        out.add_assign(&summed)?;
        Ok(out)
    }

    /// The pre-attention normalization site and the Q/K/V projections it feeds:
    /// one [`Normalizer::normalize_matmul_into`] call per batch, so a normalizer
    /// sees the site together with its consumers. Returns the projected
    /// (queries, keys, values).
    fn project_qkv<N: Normalizer + ?Sized>(
        &self,
        hidden: &Matrix,
        normalizer: &mut N,
    ) -> Result<(Matrix, Matrix, Matrix), LlmError> {
        let site = NormSite {
            layer_index: self.first_norm_index(),
            kind: self.norm_kind,
        };
        let weights = self.attention.qkv_weights();
        let rows = hidden.rows();
        let mut outs = [
            Matrix::zeros(rows, weights[0].cols()),
            Matrix::zeros(rows, weights[1].cols()),
            Matrix::zeros(rows, weights[2].cols()),
        ];
        normalizer.normalize_matmul_into(
            site,
            hidden,
            &self.gamma_attn,
            &self.beta_attn,
            &weights,
            &mut outs,
        )?;
        let [queries, keys, values] = outs;
        Ok((queries, keys, values))
    }

    /// The pre-MLP normalization site, fused with the preceding residual add:
    /// one [`Normalizer::normalize_residual_into`] call computes
    /// `summed = after_attn + hidden` and its row statistics in a single pass.
    /// Returns `(summed, normed)` — the summed stream feeds the block's final
    /// residual, the normed rows feed the MLP.
    fn residual_norm_mlp_site<N: Normalizer + ?Sized>(
        &self,
        after_attn: &Matrix,
        hidden: &Matrix,
        normalizer: &mut N,
    ) -> (Matrix, Matrix) {
        let site = NormSite {
            layer_index: self.first_norm_index() + 1,
            kind: self.norm_kind,
        };
        let mut summed = Matrix::zeros(after_attn.rows(), after_attn.cols());
        let mut normed = Matrix::zeros(after_attn.rows(), after_attn.cols());
        normalizer.normalize_residual_into(
            site,
            after_attn,
            hidden,
            &self.gamma_mlp,
            &self.beta_mlp,
            &mut summed,
            &mut normed,
        );
        (summed, normed)
    }

    /// Multiply-accumulate count of the block for a given sequence length.
    #[must_use]
    pub fn mac_count(&self, seq_len: usize) -> u64 {
        self.attention.mac_count(seq_len) + self.mlp.mac_count(seq_len)
    }

    /// Multiply-accumulate count of one KV-cached decode step at sequence length
    /// `seq_len`: one token through the MLP plus the incremental attention cost.
    /// Affine in `seq_len`, where a full-recompute step pays
    /// [`TransformerBlock::mac_count`]`(seq_len)`.
    #[must_use]
    pub fn mac_count_decode_step(&self, seq_len: usize) -> u64 {
        self.attention.mac_count_decode_step(seq_len) + self.mlp.mac_count(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norm::ReferenceNormalizer;
    use haan_numerics::stats::VectorStats;
    use rand::SeedableRng;

    fn block(index: usize) -> TransformerBlock {
        let mut rng = StdRng::seed_from_u64(index as u64 + 1);
        TransformerBlock::new(&mut rng, &ModelConfig::tiny_test(), index)
    }

    #[test]
    fn forward_preserves_shape() {
        let b = block(0);
        let mut rng = StdRng::seed_from_u64(0);
        let hidden = crate::init::gaussian_matrix(&mut rng, 6, 32, 1.0);
        let out = b.forward(&hidden, &mut ReferenceNormalizer::new()).unwrap();
        assert_eq!(out.shape(), hidden.shape());
    }

    #[test]
    fn residual_stream_variance_grows_through_a_block() {
        let b = block(0);
        let mut rng = StdRng::seed_from_u64(7);
        let hidden = crate::init::gaussian_matrix(&mut rng, 8, 32, 1.0);
        let out = b.forward(&hidden, &mut ReferenceNormalizer::new()).unwrap();
        let var_in = VectorStats::compute(hidden.as_slice()).variance;
        let var_out = VectorStats::compute(out.as_slice()).variance;
        assert!(
            var_out > var_in,
            "block 0 should add variance to the stream"
        );
    }

    #[test]
    fn norm_indices_are_contiguous() {
        assert_eq!(block(0).first_norm_index(), 0);
        assert_eq!(block(3).first_norm_index(), 6);
        assert_eq!(block(3).block_index(), 3);
    }

    #[test]
    fn normalizer_sees_both_sites_in_order() {
        struct SiteRecorder {
            seen: Vec<usize>,
        }
        impl Normalizer for SiteRecorder {
            fn normalize(
                &mut self,
                site: NormSite,
                z: &[f32],
                _gamma: &[f32],
                _beta: &[f32],
            ) -> Vec<f32> {
                self.seen.push(site.layer_index);
                z.to_vec()
            }
        }
        let b = block(2);
        let mut recorder = SiteRecorder { seen: Vec::new() };
        let hidden = Matrix::zeros(3, 32);
        b.forward(&hidden, &mut recorder).unwrap();
        // Three tokens through two norm layers: indices 4,4,4 then 5,5,5.
        assert_eq!(recorder.seen, vec![4, 4, 4, 5, 5, 5]);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let b = block(0);
        let hidden = Matrix::zeros(3, 16);
        assert!(b.forward(&hidden, &mut ReferenceNormalizer::new()).is_err());
    }

    #[test]
    fn mac_count_is_positive_and_additive() {
        let b = block(0);
        assert!(b.mac_count(16) > 0);
        assert!(b.mac_count(32) > b.mac_count(16));
    }

    /// One stream's cached pass: `hidden` is a single segment.
    fn cached_step(
        b: &TransformerBlock,
        hidden: &Matrix,
        cache: &mut PagedKvCache,
    ) -> Result<Matrix, LlmError> {
        b.forward_cached_segments(
            hidden,
            &[hidden.rows()],
            &mut ReferenceNormalizer::new(),
            &mut [(cache, &mut AttnScratch::new())],
        )
    }

    #[test]
    fn cached_block_matches_full_forward_row_by_row() {
        use crate::paging::KvBlockPool;
        let b = block(1);
        let mut rng = StdRng::seed_from_u64(11);
        let hidden = crate::init::gaussian_matrix(&mut rng, 5, 32, 1.0);
        let full = b.forward(&hidden, &mut ReferenceNormalizer::new()).unwrap();
        // Prefill rows 0..3 in one call, then decode rows 3 and 4 one at a time.
        let mut cache = PagedKvCache::new(KvBlockPool::shared(8, 2, 32));
        let mut prefix = Matrix::zeros(3, 32);
        for row in 0..3 {
            prefix.row_mut(row).copy_from_slice(hidden.row(row));
        }
        let prefill = cached_step(&b, &prefix, &mut cache).unwrap();
        for row in 0..3 {
            assert_eq!(prefill.row(row), full.row(row), "prefill row {row}");
        }
        for step in 3..5 {
            let mut row = Matrix::zeros(1, 32);
            row.row_mut(0).copy_from_slice(hidden.row(step));
            let out = cached_step(&b, &row, &mut cache).unwrap();
            assert_eq!(out.row(0), full.row(step), "decode row {step}");
        }
        assert!(cached_step(&b, &Matrix::zeros(1, 16), &mut cache).is_err());
    }

    #[test]
    fn lockstep_rows_match_independent_single_stream_steps() {
        use crate::paging::KvBlockPool;
        // Three streams with different prefixes, advanced one token each: the
        // lockstep row batch must reproduce each stream's solo 1-row step bit for
        // bit (normalization and the MLP are row-local; attention is per-stream).
        let b = block(0);
        let mut rng = StdRng::seed_from_u64(21);
        let prefixes: Vec<Matrix> = [2usize, 4, 1]
            .iter()
            .map(|&rows| crate::init::gaussian_matrix(&mut rng, rows, 32, 1.0))
            .collect();
        let step_rows = crate::init::gaussian_matrix(&mut rng, 3, 32, 1.0);

        let pool = KvBlockPool::shared(64, 4, 32);
        let mut lockstep_kv: Vec<PagedKvCache> = Vec::new();
        let mut solo_kv: Vec<PagedKvCache> = Vec::new();
        for prefix in &prefixes {
            for kvs in [&mut lockstep_kv, &mut solo_kv] {
                let mut kv = PagedKvCache::new(std::sync::Arc::clone(&pool));
                cached_step(&b, prefix, &mut kv).unwrap();
                kvs.push(kv);
            }
        }
        let mut scratches: Vec<AttnScratch> = (0..3).map(|_| AttnScratch::new()).collect();
        let mut streams: Vec<(&mut PagedKvCache, &mut AttnScratch)> =
            lockstep_kv.iter_mut().zip(&mut scratches).collect();
        let batched = b
            .forward_cached_segments(
                &step_rows,
                &[1, 1, 1],
                &mut ReferenceNormalizer::new(),
                &mut streams,
            )
            .unwrap();
        for (s, kv) in solo_kv.iter_mut().enumerate() {
            let mut row = Matrix::zeros(1, 32);
            row.row_mut(0).copy_from_slice(step_rows.row(s));
            let solo = cached_step(&b, &row, kv).unwrap();
            assert_eq!(batched.row(s), solo.row(0), "stream {s}");
            assert_eq!(lockstep_kv[s].len(), kv.len());
        }
        // A mismatched stream count is rejected.
        let mut streams: Vec<(&mut PagedKvCache, &mut AttnScratch)> =
            lockstep_kv.iter_mut().zip(&mut scratches).take(2).collect();
        assert!(b
            .forward_cached_segments(
                &step_rows,
                &[1, 1, 1],
                &mut ReferenceNormalizer::new(),
                &mut streams,
            )
            .is_err());
    }

    #[test]
    fn block_decode_step_macs_are_affine_in_sequence_length() {
        let b = block(0);
        let d1 = b.mac_count_decode_step(64) - b.mac_count_decode_step(32);
        let d2 = b.mac_count_decode_step(96) - b.mac_count_decode_step(64);
        assert_eq!(d1, d2);
        assert!(b.mac_count(128) > b.mac_count_decode_step(128));
    }
}
