//! Multi-head causal self-attention, with a full-sequence path and an
//! incremental paged-KV path.
//!
//! [`MultiHeadAttention::forward`] recomputes the whole `seq × seq` score matrix —
//! the reference oracle. The incremental path (`attend_paged_projected`, entered
//! by [`TransformerBlock::forward_cached_segments`](crate::block::TransformerBlock::forward_cached_segments))
//! appends freshly projected key/value rows to a pool-backed
//! [`PagedKvCache`] and attends only the new query rows against the cache,
//! making decode O(seq) per token. The two are bit-identical on the positions
//! they both compute: projections are row-local matmuls, the offset causal
//! softmax shares the zero-offset reduction order, and masked score columns
//! contribute exact `+0.0` terms to the value reduction.

use crate::error::LlmError;
use crate::init::gaussian_weight;
use crate::paging::PagedKvCache;
use crate::tensor::Matrix;
use rand::rngs::StdRng;

/// Reusable scratch for the paged attention path: the per-head panels, score
/// matrix, and the full-width gather panels an incremental attention call
/// would otherwise allocate on every step.
///
/// A [`DecodeContext`](crate::model::DecodeContext) owns one scratch and passes
/// it to every step, so the O(sequence-length) buffers of a long-lived decode
/// stream are allocated once and reused: steady-state decode performs no
/// growth (pinned by [`AttnScratch::buffer_capacity`] telemetry in the decode
/// bench). The buffers carry no state between calls — every call overwrites
/// what it reads — so one scratch may serve any number of streams as long as
/// calls do not interleave.
#[derive(Debug, Default)]
pub struct AttnScratch {
    concat: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    scores: Matrix,
    head_out: Matrix,
    keys_all: Matrix,
    values_all: Matrix,
}

impl AttnScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total elements the scratch buffers can hold without reallocating. Flat
    /// across decode steps once the stream is warmed up — the decode bench
    /// asserts exactly that.
    #[must_use]
    pub fn buffer_capacity(&self) -> usize {
        self.concat.buffer_capacity()
            + self.q.buffer_capacity()
            + self.k.buffer_capacity()
            + self.v.buffer_capacity()
            + self.scores.buffer_capacity()
            + self.head_out.buffer_capacity()
            + self.keys_all.buffer_capacity()
            + self.values_all.buffer_capacity()
    }
}

/// A multi-head causal self-attention layer with full (not KV-cached) computation.
///
/// The projection weights are stored as `E × E` matrices; heads are processed by
/// slicing the projected queries/keys/values column-wise.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHeadAttention {
    embedding_dim: usize,
    num_heads: usize,
    w_query: Matrix,
    w_key: Matrix,
    w_value: Matrix,
    w_output: Matrix,
}

impl MultiHeadAttention {
    /// Creates an attention layer with seeded Gaussian weights. `output_gain` scales
    /// the output projection, which is how the model shapes the depth profile of the
    /// residual-stream variance.
    ///
    /// # Panics
    ///
    /// Panics if `num_heads` does not divide `embedding_dim`.
    #[must_use]
    pub fn new(rng: &mut StdRng, embedding_dim: usize, num_heads: usize, output_gain: f32) -> Self {
        assert!(
            embedding_dim.is_multiple_of(num_heads),
            "head count must divide the embedding dimension"
        );
        let std = (1.0 / embedding_dim as f32).sqrt();
        Self {
            embedding_dim,
            num_heads,
            w_query: gaussian_weight(rng, embedding_dim, embedding_dim, std),
            w_key: gaussian_weight(rng, embedding_dim, embedding_dim, std),
            w_value: gaussian_weight(rng, embedding_dim, embedding_dim, std),
            w_output: gaussian_weight(rng, embedding_dim, embedding_dim, std * output_gain),
        }
    }

    /// Embedding width.
    #[must_use]
    pub fn embedding_dim(&self) -> usize {
        self.embedding_dim
    }

    /// Number of heads.
    #[must_use]
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Width of one head.
    #[must_use]
    pub fn head_dim(&self) -> usize {
        self.embedding_dim / self.num_heads
    }

    /// The Q/K/V projection weights, in that order — the matmul consumers a
    /// norm+matmul site multiplies the normalized input by. The
    /// output projection is not included: it consumes attention output, not the
    /// normalized residual stream.
    #[must_use]
    pub fn qkv_weights(&self) -> [&Matrix; 3] {
        [&self.w_query, &self.w_key, &self.w_value]
    }

    /// Every projection weight: Q, K, V and the output projection.
    pub(crate) fn projection_weights(&self) -> [&Matrix; 4] {
        [&self.w_query, &self.w_key, &self.w_value, &self.w_output]
    }

    /// The output projection of stacked head-concat rows (row-local, so any
    /// stacking of streams gives each row the float it gets alone).
    pub(crate) fn project_output(&self, heads: &Matrix) -> Result<Matrix, LlmError> {
        heads.matmul(&self.w_output)
    }

    /// [`MultiHeadAttention::forward`] from already-projected queries, keys and
    /// values (each `seq × E`, heads concatenated) — the back half a norm+matmul
    /// site enters after producing the projections, and the one `forward` calls
    /// after projecting its input.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the three matrices disagree in
    /// shape or their width differs from the configured embedding dimension.
    pub fn forward_projected(
        &self,
        queries: &Matrix,
        keys: &Matrix,
        values: &Matrix,
    ) -> Result<Matrix, LlmError> {
        if queries.cols() != self.embedding_dim
            || keys.shape() != queries.shape()
            || values.shape() != queries.shape()
        {
            return Err(LlmError::ShapeMismatch {
                op: "attention forward_projected",
                lhs: queries.shape(),
                rhs: keys.shape(),
            });
        }
        let seq = queries.rows();
        let head_dim = self.head_dim();
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut concat = Matrix::zeros(seq, self.embedding_dim);
        let mut q = Matrix::zeros(seq, head_dim);
        let mut k = Matrix::zeros(seq, head_dim);
        let mut v = Matrix::zeros(seq, head_dim);
        let mut scores = Matrix::zeros(seq, seq);
        let mut head_out = Matrix::zeros(seq, head_dim);

        for head in 0..self.num_heads {
            let col_start = head * head_dim;
            queries.columns_into(col_start, head_dim, &mut q)?;
            keys.columns_into(col_start, head_dim, &mut k)?;
            values.columns_into(col_start, head_dim, &mut v)?;

            q.matmul_transposed_into(&k, &mut scores)?;
            scores.scale_in_place(scale);
            scores.causal_softmax_rows();
            scores.matmul_into(&v, &mut head_out)?;
            concat.set_columns(col_start, &head_out)?;
        }
        concat.matmul(&self.w_output)
    }

    /// Runs causal self-attention over a `seq × E` input and returns a `seq × E` output.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the input width differs from the
    /// configured embedding dimension.
    pub fn forward(&self, input: &Matrix) -> Result<Matrix, LlmError> {
        if input.cols() != self.embedding_dim {
            return Err(LlmError::ShapeMismatch {
                op: "attention forward",
                lhs: input.shape(),
                rhs: (self.embedding_dim, self.embedding_dim),
            });
        }
        let queries = input.matmul(&self.w_query)?;
        let keys = input.matmul(&self.w_key)?;
        let values = input.matmul(&self.w_value)?;
        self.forward_projected(&queries, &keys, &values)
    }

    /// The incremental attention sublayer from already-projected new rows:
    /// appends `new_keys`/`new_values` to the paged cache (borrowing pool pages
    /// as needed), attends the projected `queries` against the whole cache, and
    /// returns the head-concat rows *before* the output projection (held in
    /// `scratch`). The decode path enters here after projecting Q/K/V straight
    /// out of the normalization site, and applies
    /// [`MultiHeadAttention::project_output`] once over every stream's rows.
    ///
    /// Feeding a whole sequence in one call (prefill) is bit-identical to
    /// [`MultiHeadAttention::forward_projected`]; feeding it in chunks (decode)
    /// is bit-identical to recomputing the full prefix and keeping the last
    /// rows, because every kernel involved reduces in the same order either way.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the three matrices disagree in
    /// shape or their width differs from the configured embedding dimension or
    /// the cache's width, and [`LlmError::KvPoolExhausted`] when the pool cannot
    /// supply the pages the appended rows need (the cache is left unchanged).
    pub(crate) fn attend_paged_projected<'s>(
        &self,
        queries: &Matrix,
        new_keys: &Matrix,
        new_values: &Matrix,
        cache: &mut PagedKvCache,
        scratch: &'s mut AttnScratch,
    ) -> Result<&'s Matrix, LlmError> {
        if queries.cols() != self.embedding_dim
            || new_keys.shape() != queries.shape()
            || new_values.shape() != queries.shape()
            || cache.embedding_dim() != self.embedding_dim
        {
            return Err(LlmError::ShapeMismatch {
                op: "attention attend_paged_projected",
                lhs: queries.shape(),
                rhs: (cache.len(), cache.embedding_dim()),
            });
        }
        let offset = cache.len();
        cache.append(new_keys, new_values)?;
        self.attend_paged(queries, offset, cache, scratch)
    }

    /// The per-head score/softmax/value loop over every cached position. One
    /// pool-lock acquisition gathers every live row at full width, then each
    /// head slices its K/V panels from the local copy, lock-free, resizing the
    /// caller's scratch to this call's shapes (an allocation only when the
    /// stream outgrew every earlier call). Returns the head-concat rows.
    fn attend_paged<'s>(
        &self,
        queries: &Matrix,
        offset: usize,
        cache: &PagedKvCache,
        scratch: &'s mut AttnScratch,
    ) -> Result<&'s Matrix, LlmError> {
        let AttnScratch {
            concat,
            q,
            k,
            v,
            scores,
            head_out,
            keys_all,
            values_all,
        } = scratch;
        let new = queries.rows();
        let total = cache.len();
        let head_dim = self.head_dim();
        let scale = 1.0 / (head_dim as f32).sqrt();
        keys_all.resize(total, self.embedding_dim);
        values_all.resize(total, self.embedding_dim);
        cache.gather_window(0, keys_all, values_all);
        // Reshape (allocation-free at steady state); every element written
        // below, so stale contents never leak: `concat` is covered column-block
        // by column-block across the head loop, the rest per head.
        concat.resize(new, self.embedding_dim);
        q.resize(new, head_dim);
        k.resize(total, head_dim);
        v.resize(total, head_dim);
        scores.resize(new, total);
        head_out.resize(new, head_dim);

        for head in 0..self.num_heads {
            let col_start = head * head_dim;
            queries.columns_into(col_start, head_dim, q)?;
            keys_all.window_into(0, col_start, k)?;
            values_all.window_into(0, col_start, v)?;

            q.matmul_transposed_into(k, scores)?;
            scores.scale_in_place(scale);
            scores.causal_softmax_rows_offset(offset);
            scores.matmul_into(v, head_out)?;
            concat.set_columns(col_start, head_out)?;
        }
        Ok(concat)
    }

    /// Number of multiply-accumulate operations for a sequence of the given length,
    /// used by the analytic runtime model.
    #[must_use]
    pub fn mac_count(&self, seq_len: usize) -> u64 {
        let e = self.embedding_dim as u64;
        let s = seq_len as u64;
        // Four projections plus the two score/value matmuls.
        4 * s * e * e + 2 * s * s * e
    }

    /// Multiply-accumulate operations of one KV-cached decode step: processing the
    /// single token at position `seq_len - 1` with `seq_len - 1` positions already
    /// cached. Affine in `seq_len` (four one-row projections plus two
    /// length-`seq_len` score/value reductions per head), where the full-recompute
    /// path pays [`MultiHeadAttention::mac_count`]`(seq_len)` — quadratic — for the
    /// same token.
    #[must_use]
    pub fn mac_count_decode_step(&self, seq_len: usize) -> u64 {
        let e = self.embedding_dim as u64;
        let s = seq_len as u64;
        4 * e * e + 2 * s * e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haan_numerics::stats::VectorStats;
    use rand::SeedableRng;

    fn attention(dim: usize, heads: usize) -> MultiHeadAttention {
        let mut rng = StdRng::seed_from_u64(42);
        MultiHeadAttention::new(&mut rng, dim, heads, 1.0)
    }

    #[test]
    fn output_shape_matches_input() {
        let attn = attention(32, 4);
        let input = Matrix::zeros(5, 32);
        let out = attn.forward(&input).unwrap();
        assert_eq!(out.shape(), (5, 32));
        assert_eq!(attn.head_dim(), 8);
        assert_eq!(attn.num_heads(), 4);
        assert_eq!(attn.embedding_dim(), 32);
    }

    #[test]
    fn wrong_width_is_rejected() {
        let attn = attention(32, 4);
        assert!(attn.forward(&Matrix::zeros(5, 16)).is_err());
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn indivisible_heads_panic() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = MultiHeadAttention::new(&mut rng, 30, 4, 1.0);
    }

    #[test]
    fn causality_first_token_ignores_the_rest() {
        // Changing later tokens must not change the first row of the output.
        let attn = attention(16, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let a = crate::init::gaussian_matrix(&mut rng, 4, 16, 1.0);
        let mut b = a.clone();
        for col in 0..16 {
            b.set(3, col, b.get(3, col) + 5.0);
        }
        let out_a = attn.forward(&a).unwrap();
        let out_b = attn.forward(&b).unwrap();
        for col in 0..16 {
            assert!((out_a.get(0, col) - out_b.get(0, col)).abs() < 1e-6);
        }
        // The last row, by contrast, must change.
        let last_diff: f32 = (0..16)
            .map(|c| (out_a.get(3, c) - out_b.get(3, c)).abs())
            .sum();
        assert!(last_diff > 1e-3);
    }

    #[test]
    fn output_gain_scales_output_magnitude() {
        let mut rng_small = StdRng::seed_from_u64(9);
        let mut rng_large = StdRng::seed_from_u64(9);
        let small = MultiHeadAttention::new(&mut rng_small, 16, 2, 0.5);
        let large = MultiHeadAttention::new(&mut rng_large, 16, 2, 2.0);
        let mut rng = StdRng::seed_from_u64(10);
        let input = crate::init::gaussian_matrix(&mut rng, 8, 16, 1.0);
        let out_small = small.forward(&input).unwrap();
        let out_large = large.forward(&input).unwrap();
        let var_small = VectorStats::compute(out_small.as_slice()).variance;
        let var_large = VectorStats::compute(out_large.as_slice()).variance;
        assert!(var_large > var_small * 4.0);
    }

    #[test]
    fn mac_count_grows_with_sequence_length() {
        let attn = attention(32, 4);
        assert!(attn.mac_count(64) > attn.mac_count(32));
        assert_eq!(attn.mac_count(1), 4 * 32 * 32 + 2 * 32);
    }

    /// One incremental attention call over `cache`: project the new rows,
    /// attend them through the paged path, apply the output projection.
    fn paged_forward(
        attn: &MultiHeadAttention,
        input: &Matrix,
        cache: &mut PagedKvCache,
    ) -> Result<Matrix, LlmError> {
        let [wq, wk, wv] = attn.qkv_weights();
        let (q, k, v) = (input.matmul(wq)?, input.matmul(wk)?, input.matmul(wv)?);
        let mut scratch = AttnScratch::new();
        let heads = attn.attend_paged_projected(&q, &k, &v, cache, &mut scratch)?;
        attn.project_output(heads)
    }

    #[test]
    fn cached_prefill_is_bit_identical_to_the_full_path() {
        use crate::paging::KvBlockPool;
        let attn = attention(32, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let input = crate::init::gaussian_matrix(&mut rng, 6, 32, 1.0);
        let full = attn.forward(&input).unwrap();
        let mut cache = PagedKvCache::new(KvBlockPool::shared(8, 4, 32));
        let cached = paged_forward(&attn, &input, &mut cache).unwrap();
        assert_eq!(full, cached);
        assert_eq!(cache.len(), 6);
        assert!(!cache.is_empty());
        assert_eq!(cache.embedding_dim(), 32);
    }

    #[test]
    fn incremental_decode_matches_full_recompute_bit_for_bit() {
        use crate::paging::KvBlockPool;
        // Feed the sequence token by token; every step's output row must equal the
        // last row of a full forward pass over the prefix so far.
        let attn = attention(16, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let input = crate::init::gaussian_matrix(&mut rng, 5, 16, 1.0);
        let mut cache = PagedKvCache::new(KvBlockPool::shared(5, 2, 16));
        for step in 0..5 {
            let mut row = Matrix::zeros(1, 16);
            row.row_mut(0).copy_from_slice(input.row(step));
            let out = paged_forward(&attn, &row, &mut cache).unwrap();
            let mut prefix = Matrix::zeros(step + 1, 16);
            for p in 0..=step {
                prefix.row_mut(p).copy_from_slice(input.row(p));
            }
            let oracle = attn.forward(&prefix).unwrap();
            assert_eq!(out.row(0), oracle.row(step), "step {step}");
        }
        assert_eq!(cache.len(), 5);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_path_rejects_bad_shapes_and_overflow() {
        use crate::paging::KvBlockPool;
        let attn = attention(16, 2);
        let mut cache = PagedKvCache::new(KvBlockPool::shared(2, 2, 16));
        let mut scratch = AttnScratch::new();
        // Narrow query rows.
        assert!(paged_forward(&attn, &Matrix::zeros(1, 8), &mut cache).is_err());
        // A cache pooled at a different width.
        let mut narrow = PagedKvCache::new(KvBlockPool::shared(4, 2, 8));
        assert!(paged_forward(&attn, &Matrix::zeros(1, 16), &mut narrow).is_err());
        // Keys and values that disagree with the queries in shape.
        let (q, kv) = (Matrix::zeros(2, 16), Matrix::zeros(1, 16));
        assert!(attn
            .attend_paged_projected(&q, &kv, &kv, &mut cache, &mut scratch)
            .is_err());
        // More rows than the pool holds.
        assert!(paged_forward(&attn, &Matrix::zeros(3, 16), &mut cache).is_err());
        paged_forward(&attn, &Matrix::zeros(2, 16), &mut cache).unwrap();
        assert!(paged_forward(&attn, &Matrix::zeros(1, 16), &mut cache).is_err());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn paged_path_surfaces_pool_exhaustion_without_corrupting_the_cache() {
        use crate::paging::KvBlockPool;
        let attn = attention(16, 2);
        let pool = KvBlockPool::shared(4, 2, 16);
        let mut cache = PagedKvCache::new(pool);
        paged_forward(&attn, &Matrix::zeros(4, 16), &mut cache).unwrap();
        let err = paged_forward(&attn, &Matrix::zeros(1, 16), &mut cache).unwrap_err();
        assert!(matches!(err, LlmError::KvPoolExhausted { .. }));
        assert_eq!(cache.len(), 4, "failed step must leave the cache intact");
        // Width mismatches are still shape errors, not pool errors.
        assert!(matches!(
            paged_forward(&attn, &Matrix::zeros(1, 8), &mut cache),
            Err(LlmError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn decode_step_macs_are_affine_in_sequence_length() {
        let attn = attention(32, 4);
        // Second difference of an affine function is zero: O(seq) per token.
        let d1 = attn.mac_count_decode_step(64) - attn.mac_count_decode_step(32);
        let d2 = attn.mac_count_decode_step(96) - attn.mac_count_decode_step(64);
        assert_eq!(d1, d2);
        // The full-recompute cost of the same token is quadratic and much larger.
        assert!(attn.mac_count(256) > 16 * attn.mac_count_decode_step(256));
        assert_eq!(attn.mac_count_decode_step(1), 4 * 32 * 32 + 2 * 32);
    }
}
