//! Multi-head causal self-attention, with a full-sequence path and an
//! incremental paged-KV path.
//!
//! [`MultiHeadAttention::forward`] recomputes the whole `seq × seq` score matrix —
//! the reference oracle. The incremental path (`attend_paged_projected`, entered
//! by [`TransformerBlock::forward_cached_segments`](crate::block::TransformerBlock::forward_cached_segments))
//! appends freshly projected key/value rows to a pool-backed
//! [`PagedKvCache`] and attends only the new query rows against the cache,
//! making decode O(seq) per token. It runs one fused score → softmax → value
//! pass per (query row, head) over the K/V rows where they live in the pool
//! pages. The two are bit-identical on the positions they both compute:
//! projections are row-local matmuls, each score is the oracle's
//! `dot_unrolled` times the scale, both run the one causal softmax row body,
//! and the value sum adds every cached position in ascending order, masked
//! ones (weight `0.0`) included, exactly as the oracle's matmul does.

use crate::error::LlmError;
use crate::init::gaussian_weight;
use crate::paging::PagedKvCache;
use crate::tensor::{causal_softmax_row, dot_unrolled, Matrix};
use rand::rngs::StdRng;

/// Reusable scratch for the paged attention path: the one score row (one
/// entry per cached position) the fused kernel needs. The kernel reads K/V
/// in place from the pool pages and writes the caller's head-concat rows
/// directly, so nothing else is buffered.
///
/// A [`DecodeContext`](crate::model::DecodeContext) owns one scratch and passes
/// it to every step, so a long-lived decode stream allocates its score row
/// once and reuses it: steady-state decode performs no growth beyond
/// amortized doubling (pinned by [`AttnScratch::buffer_capacity`] telemetry
/// in the decode bench). The row carries no state between calls — every call
/// overwrites what it reads — so one scratch may serve any number of streams
/// as long as calls do not interleave.
#[derive(Debug, Default)]
pub struct AttnScratch {
    scores: Vec<f32>,
}

impl AttnScratch {
    /// An empty scratch; the score row grows on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Elements the score row can hold without reallocating. Flat across
    /// decode steps once the stream is warmed up — the decode bench asserts
    /// exactly that.
    #[must_use]
    pub fn buffer_capacity(&self) -> usize {
        self.scores.capacity()
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
        self.project_output(&self.attend_full(queries, keys, values)?)
    }

    /// The head-concat rows of [`MultiHeadAttention::forward_projected`],
    /// before the output projection: per head, the whole `seq × seq` score
    /// matrix, its causal softmax and the value product. The oracle of the
    /// paged kernel.
    fn attend_full(
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
        Ok(concat)
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

    /// The incremental attention sublayer from already-projected new rows
    /// (row-major, `E` wide, heads concatenated: a segment of the batched
    /// projections). Appends `new_keys`/`new_values` to the paged cache
    /// (borrowing pool pages as needed), then runs one fused pass per (query
    /// row, head) inside one pool-lock visit that reads the K/V rows in place:
    /// score each visible position as `dot_unrolled(q, k) * scale`, run the
    /// causal softmax row body, and add `s[p] · v[p]` over *every* cached
    /// position in ascending `p` into the head's columns of `heads` (the
    /// head-concat rows before the output projection, as long as `queries`).
    ///
    /// Those are [`MultiHeadAttention::forward_projected`]'s per-head
    /// operations in its order, the masked positions' `0.0` weights included,
    /// so a prefill is bit-identical to it and a chunked feed to recomputing
    /// the full prefix and keeping the last rows, non-finite K/V included.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the four slices differ in
    /// length, are not whole rows of the configured embedding dimension, or
    /// the cache is pooled at another width, and [`LlmError::KvPoolExhausted`]
    /// when the pool cannot supply the pages the appended rows need (the cache
    /// is left unchanged).
    pub(crate) fn attend_paged_projected(
        &self,
        queries: &[f32],
        new_keys: &[f32],
        new_values: &[f32],
        cache: &mut PagedKvCache,
        scratch: &mut AttnScratch,
        heads: &mut [f32],
    ) -> Result<(), LlmError> {
        let e = self.embedding_dim;
        let len = queries.len();
        if !len.is_multiple_of(e)
            || new_keys.len() != len
            || new_values.len() != len
            || heads.len() != len
            || cache.embedding_dim() != e
        {
            return Err(LlmError::ShapeMismatch {
                op: "attention attend_paged_projected",
                lhs: (len / e, e),
                rhs: (cache.len(), cache.embedding_dim()),
            });
        }
        let offset = cache.len();
        cache.append_rows(new_keys, new_values)?;
        let head_dim = self.head_dim();
        let scale = 1.0 / (head_dim as f32).sqrt();
        let scores = &mut scratch.scores;
        scores.resize(cache.len(), 0.0);
        cache.visit_rows(|rows| {
            let query_rows = queries.chunks_exact(e).zip(heads.chunks_exact_mut(e));
            for (i, (q_row, out_row)) in query_rows.enumerate() {
                let limit = offset + i + 1;
                for head in (0..e).step_by(head_dim) {
                    let cols = head..head + head_dim;
                    let q = &q_row[cols.clone()];
                    for (s, (k, _)) in scores[..limit].iter_mut().zip(rows.iter()) {
                        *s = dot_unrolled(q, &k[cols.clone()]) * scale;
                    }
                    causal_softmax_row(scores, limit);
                    let out = &mut out_row[cols.clone()];
                    out.fill(0.0);
                    for (&s, (_, v)) in scores.iter().zip(rows.iter()) {
                        for (o, &v) in out.iter_mut().zip(&v[cols.clone()]) {
                            *o += s * v;
                        }
                    }
                }
            }
        });
        Ok(())
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
        let mut heads = Matrix::zeros(q.rows(), q.cols());
        attn.attend_paged_projected(
            q.as_slice(),
            k.as_slice(),
            v.as_slice(),
            cache,
            &mut AttnScratch::new(),
            heads.as_mut_slice(),
        )?;
        attn.project_output(&heads)
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

    /// The paged head-concat rows of `rows` of the projected `q`/`k`/`v`,
    /// appended to and attended against `cache`.
    fn paged_heads(
        attn: &MultiHeadAttention,
        [q, k, v]: [&Matrix; 3],
        rows: std::ops::Range<usize>,
        cache: &mut PagedKvCache,
    ) -> Vec<f32> {
        let e = attn.embedding_dim();
        let seg = rows.start * e..rows.end * e;
        let mut heads = vec![0.0; seg.len()];
        attn.attend_paged_projected(
            &q.as_slice()[seg.clone()],
            &k.as_slice()[seg.clone()],
            &v.as_slice()[seg],
            cache,
            &mut AttnScratch::new(),
            &mut heads,
        )
        .unwrap();
        heads
    }

    #[test]
    fn fused_paged_kernel_matches_the_full_recompute_oracle() {
        use crate::init::gaussian_matrix;
        use crate::paging::KvBlockPool;
        use crate::tensor::identity_bits;
        // Head width 10 leaves a tail after dot_unrolled's 4-wide chunks.
        let (e, seq) = (20, 20);
        let attn = attention(e, 2);
        let mut rng = StdRng::seed_from_u64(17);
        let q = gaussian_matrix(&mut rng, seq, e, 1.0);
        let mut k = gaussian_matrix(&mut rng, seq, e, 1.0);
        let mut v = gaussian_matrix(&mut rng, seq, e, 1.0);
        // Non-finite K and V from position 9 on, in both heads.
        k.set(9, 3, f32::INFINITY);
        v.set(10, 12, f32::NEG_INFINITY);
        v.set(11, 1, f32::NAN);
        k.set(15, 15, f32::NAN);
        v.set(17, 4, f32::INFINITY);
        let prefix = |m: &Matrix, rows: usize| {
            Matrix::from_vec(rows, e, m.as_slice()[..rows * e].to_vec()).unwrap()
        };
        // The oracle's rows `rows` of a full recompute over positions `..rows.end`.
        let oracle = |rows: std::ops::Range<usize>| {
            let full = attn
                .attend_full(
                    &prefix(&q, rows.end),
                    &prefix(&k, rows.end),
                    &prefix(&v, rows.end),
                )
                .unwrap();
            identity_bits(&full.as_slice()[rows.start * e..])
        };
        let (mut finite, mut nan) = (0, 0);
        let mut check = |rows: std::ops::Range<usize>, cache: &mut PagedKvCache| {
            let got = paged_heads(&attn, [&q, &k, &v], rows.clone(), cache);
            finite += got.iter().filter(|x| x.is_finite()).count();
            nan += got.iter().filter(|x| x.is_nan()).count();
            assert_eq!(identity_bits(&got), oracle(rows.clone()), "rows {rows:?}");
        };
        for page_rows in [1, 4, 16] {
            let pool = KvBlockPool::shared(96, page_rows, e);
            // A cancelled stream hands its pages back to the LIFO free list, so
            // the next stream's page ids run in reverse.
            let mut cancelled = PagedKvCache::new(std::sync::Arc::clone(&pool));
            cancelled
                .append(&Matrix::zeros(2 * seq, e), &Matrix::zeros(2 * seq, e))
                .unwrap();
            drop(cancelled);
            let mut cache = PagedKvCache::new(std::sync::Arc::clone(&pool));
            // Multi-row feeds mask the columns past each row's own position.
            let mut fed = 0;
            let mut forked = None;
            for feed in [5, 1, 3, 1, 3, 7] {
                check(fed..fed + feed, &mut cache);
                fed += feed;
                if fed == 6 {
                    forked = Some(cache.fork());
                }
            }
            let table = cache.page_table();
            assert!(table.windows(2).any(|w| w[0] > w[1]), "{table:?}");
            // A second stream shares the first six rows; its first append
            // copy-on-writes the partly filled tail page (when there is one)
            // and the shared pages are read in place.
            let mut forked = forked.expect("forked after six rows");
            let mut fed = 6;
            for feed in [4, 3, 7] {
                check(fed..fed + feed, &mut forked);
                fed += feed;
            }
            let tail = 6 / page_rows;
            if 6 % page_rows != 0 {
                assert_ne!(forked.page_table()[tail], cache.page_table()[tail]);
            }
            assert_eq!(forked.page_table()[..tail], cache.page_table()[..tail]);
        }
        assert!(
            finite > 0 && nan > 0,
            "{finite} finite and {nan} NaN outputs"
        );
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
        let (q, kv, mut heads) = ([0.0; 32], [0.0; 16], [0.0; 32]);
        assert!(attn
            .attend_paged_projected(&q, &kv, &kv, &mut cache, &mut scratch, &mut heads)
            .is_err());
        // Rows that are not whole rows of the embedding width.
        let ragged = [0.0; 20];
        let mut ragged_heads = [0.0; 20];
        assert!(attn
            .attend_paged_projected(
                &ragged,
                &ragged,
                &ragged,
                &mut cache,
                &mut scratch,
                &mut ragged_heads
            )
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
