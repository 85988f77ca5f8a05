//! Multi-head causal self-attention, with a full-sequence path and two
//! incremental KV-cached paths.
//!
//! [`MultiHeadAttention::forward`] recomputes the whole `seq × seq` score matrix —
//! the reference oracle. [`MultiHeadAttention::forward_cached`] appends freshly
//! projected key/value rows to a dense [`AttentionKvCache`] and attends only the
//! new query rows against the cache, making decode O(seq) per token;
//! [`MultiHeadAttention::forward_paged`] is the same computation over a
//! pool-backed [`crate::paging::PagedKvCache`]. All three are
//! bit-identical on the positions they both compute: projections are row-local
//! matmuls, the offset causal softmax shares the zero-offset reduction order,
//! masked score columns contribute exact `+0.0` terms to the value reduction, and
//! the paged gather produces the very panels the dense window copy produces.

use crate::error::LlmError;
use crate::init::gaussian_weight;
use crate::paging::{KvStore, PagedKvCache};
use crate::tensor::Matrix;
use rand::rngs::StdRng;

/// Per-layer key/value cache of one decode stream: the projected K and V rows of
/// every position processed so far, stored full-width (heads concatenated, exactly
/// as [`MultiHeadAttention::forward`] lays them out before head slicing).
///
/// Storage is preallocated at `capacity × E`, so appending rows during decode never
/// allocates. One cache belongs to one attention layer of one stream; a
/// [`DecodeContext`](crate::model::DecodeContext) owns one per block.
#[derive(Debug, Clone)]
pub struct AttentionKvCache {
    keys: Matrix,
    values: Matrix,
    len: usize,
}

/// Equality is *logical*: two caches are equal when they hold the same live K/V
/// rows (same width, same length). Capacity and stale storage beyond `len` —
/// e.g. rows retained by [`AttentionKvCache::clear`] — do not participate.
impl PartialEq for AttentionKvCache {
    fn eq(&self, other: &Self) -> bool {
        let live = self.len * self.keys.cols();
        self.len == other.len
            && self.keys.cols() == other.keys.cols()
            && self.keys.as_slice()[..live] == other.keys.as_slice()[..live]
            && self.values.as_slice()[..live] == other.values.as_slice()[..live]
    }
}

impl AttentionKvCache {
    /// Creates an empty cache with room for `capacity` positions of an
    /// `embedding_dim`-wide attention layer.
    #[must_use]
    pub fn new(capacity: usize, embedding_dim: usize) -> Self {
        Self {
            keys: Matrix::zeros(capacity, embedding_dim),
            values: Matrix::zeros(capacity, embedding_dim),
            len: 0,
        }
    }

    /// Number of positions cached so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no position has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of positions the cache can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.keys.rows()
    }

    /// Width of the cached rows.
    #[must_use]
    pub fn embedding_dim(&self) -> usize {
        self.keys.cols()
    }

    /// Forgets every cached position (the storage is retained), as at the start of
    /// a new sequence.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Forgets every position past `len` (no-op when the cache is already that
    /// short) — the rollback primitive a failed multi-block pass uses to restore
    /// a consistent stream state.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// Appends projected key/value rows for the next positions.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the rows do not fit the remaining
    /// capacity or have the wrong width.
    fn append(&mut self, keys: &Matrix, values: &Matrix) -> Result<(), LlmError> {
        self.keys.set_rows(self.len, keys)?;
        self.values.set_rows(self.len, values)?;
        self.len += keys.rows();
        Ok(())
    }
}

/// Reusable scratch for the cached attention paths: the per-head panels, score
/// matrix, and (for paged storage) the full-width gather panels that
/// [`MultiHeadAttention::forward_cached`]/[`MultiHeadAttention::forward_paged`]
/// would otherwise allocate on every step.
///
/// A [`DecodeContext`](crate::model::DecodeContext) owns one scratch and passes
/// it to every step, so the O(sequence-length) buffers of a long-lived decode
/// stream are allocated once and reused; [`AttnScratch::reserve`] pre-sizes
/// them to the stream's maximum so steady-state decode performs no growth at
/// all (pinned by [`AttnScratch::buffer_capacity`] telemetry in the decode
/// bench). The buffers carry no state between calls — every path overwrites
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
    /// An empty scratch; buffers grow on first use (or via
    /// [`AttnScratch::reserve`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows every buffer to the sizes an attention call with `new_rows` fresh
    /// query rows over `total_rows` cached positions needs, so later calls at
    /// or below those sizes allocate nothing.
    pub fn reserve(
        &mut self,
        new_rows: usize,
        total_rows: usize,
        embedding_dim: usize,
        num_heads: usize,
    ) {
        let head_dim = embedding_dim / num_heads.max(1);
        self.concat.resize(new_rows, embedding_dim);
        self.q.resize(new_rows, head_dim);
        self.k.resize(total_rows, head_dim);
        self.v.resize(total_rows, head_dim);
        self.scores.resize(new_rows, total_rows);
        self.head_out.resize(new_rows, head_dim);
        self.keys_all.resize(total_rows, embedding_dim);
        self.values_all.resize(total_rows, embedding_dim);
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
    /// site enters after producing the projections. Bit-identical to
    /// [`MultiHeadAttention::forward`] given the same projections, because it is
    /// the same per-head loop over the same kernels.
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
        let seq = input.rows();
        let queries = input.matmul(&self.w_query)?;
        let keys = input.matmul(&self.w_key)?;
        let values = input.matmul(&self.w_value)?;

        let head_dim = self.head_dim();
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut concat = Matrix::zeros(seq, self.embedding_dim);

        // One set of scratch buffers reused across heads: the per-head loop performs
        // no allocation.
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

    /// Runs causal self-attention incrementally: projects the `new × E` input rows,
    /// appends their K/V rows to `cache`, and attends the new query rows against
    /// the whole cache (prefix plus the rows just appended). Returns the `new × E`
    /// output for the new positions only.
    ///
    /// Passing the entire sequence through one call (prefill) is bit-identical to
    /// [`MultiHeadAttention::forward`]; passing it in chunks (decode) is
    /// bit-identical to recomputing the full prefix and keeping the last rows,
    /// because every kernel involved reduces in the same order either way.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the input width differs from the
    /// configured embedding dimension, the cache was built for a different width,
    /// or the new rows exceed the cache capacity.
    pub fn forward_cached(
        &self,
        input: &Matrix,
        cache: &mut AttentionKvCache,
    ) -> Result<Matrix, LlmError> {
        self.forward_cached_with(input, cache, &mut AttnScratch::new())
    }

    /// [`MultiHeadAttention::forward_cached`] reusing caller-owned scratch
    /// buffers instead of allocating panels per call — the steady-state decode
    /// path (see [`AttnScratch`]).
    ///
    /// # Errors
    ///
    /// The contract of [`MultiHeadAttention::forward_cached`].
    pub fn forward_cached_with(
        &self,
        input: &Matrix,
        cache: &mut AttentionKvCache,
        scratch: &mut AttnScratch,
    ) -> Result<Matrix, LlmError> {
        if input.cols() != self.embedding_dim || cache.embedding_dim() != self.embedding_dim {
            return Err(LlmError::ShapeMismatch {
                op: "attention forward_cached",
                lhs: input.shape(),
                rhs: (cache.capacity(), cache.embedding_dim()),
            });
        }
        let offset = cache.len();
        let total = offset + input.rows();
        if total > cache.capacity() {
            return Err(LlmError::ShapeMismatch {
                op: "attention forward_cached (capacity)",
                lhs: (total, self.embedding_dim),
                rhs: (cache.capacity(), cache.embedding_dim()),
            });
        }
        let queries = self.project_and_append(input, |keys, values| cache.append(keys, values))?;
        let heads = self.attend_cached(&queries, offset, total, scratch, |col_start, k, v| {
            cache.keys.window_into(0, col_start, k)?;
            cache.values.window_into(0, col_start, v)
        })?;
        self.project_output(heads)
    }

    /// The attention half of [`MultiHeadAttention::forward_cached_with`] from
    /// already-projected new rows: appends `new_keys`/`new_values` to the cache,
    /// attends the projected `queries` against the whole cache, and returns the
    /// head-concat rows *before* the output projection (held in `scratch`). The
    /// decode path enters here after projecting Q/K/V straight out of the
    /// normalization site, and applies [`MultiHeadAttention::project_output`]
    /// once over every stream's rows.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the three matrices disagree in
    /// shape, their width differs from the configured embedding dimension or the
    /// cache's width, or the new rows exceed the cache capacity.
    pub(crate) fn attend_cached_projected<'s>(
        &self,
        queries: &Matrix,
        new_keys: &Matrix,
        new_values: &Matrix,
        cache: &mut AttentionKvCache,
        scratch: &'s mut AttnScratch,
    ) -> Result<&'s Matrix, LlmError> {
        if queries.cols() != self.embedding_dim
            || new_keys.shape() != queries.shape()
            || new_values.shape() != queries.shape()
            || cache.embedding_dim() != self.embedding_dim
        {
            return Err(LlmError::ShapeMismatch {
                op: "attention forward_cached_projected",
                lhs: queries.shape(),
                rhs: (cache.capacity(), cache.embedding_dim()),
            });
        }
        let offset = cache.len();
        let total = offset + queries.rows();
        if total > cache.capacity() {
            return Err(LlmError::ShapeMismatch {
                op: "attention forward_cached_projected (capacity)",
                lhs: (total, self.embedding_dim),
                rhs: (cache.capacity(), cache.embedding_dim()),
            });
        }
        cache.append(new_keys, new_values)?;
        self.attend_cached(queries, offset, total, scratch, |col_start, k, v| {
            cache.keys.window_into(0, col_start, k)?;
            cache.values.window_into(0, col_start, v)
        })
    }

    /// [`MultiHeadAttention::forward_cached`] over pool-backed paged storage:
    /// projects the new rows, appends their K/V rows to `cache` (borrowing pool
    /// pages as needed), and attends the new queries against the whole cache.
    /// Bit-identical to the dense path — the paged gather fills the same per-head
    /// scratch panels the dense window copy fills, in the same row order, and
    /// every kernel downstream is shared.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the input width differs from the
    /// configured embedding dimension or the cache was pooled at a different
    /// width, and [`LlmError::KvPoolExhausted`] when the pool cannot supply the
    /// pages the appended rows need (the cache is left unchanged).
    pub fn forward_paged(
        &self,
        input: &Matrix,
        cache: &mut PagedKvCache,
    ) -> Result<Matrix, LlmError> {
        self.forward_paged_with(input, cache, &mut AttnScratch::new())
    }

    /// [`MultiHeadAttention::forward_paged`] reusing caller-owned scratch
    /// buffers — gather panels included — instead of allocating per call.
    ///
    /// # Errors
    ///
    /// The contract of [`MultiHeadAttention::forward_paged`].
    pub fn forward_paged_with(
        &self,
        input: &Matrix,
        cache: &mut PagedKvCache,
        scratch: &mut AttnScratch,
    ) -> Result<Matrix, LlmError> {
        if input.cols() != self.embedding_dim || cache.embedding_dim() != self.embedding_dim {
            return Err(LlmError::ShapeMismatch {
                op: "attention forward_paged",
                lhs: input.shape(),
                rhs: (cache.len(), cache.embedding_dim()),
            });
        }
        let offset = cache.len();
        let total = offset + input.rows();
        let queries = self.project_and_append(input, |keys, values| cache.append(keys, values))?;
        let heads = self.attend_paged(&queries, offset, total, cache, scratch)?;
        self.project_output(heads)
    }

    /// [`MultiHeadAttention::attend_cached_projected`] over paged storage:
    /// appends the projected K/V rows (borrowing pool pages as needed) and
    /// returns the head-concat rows before the output projection.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] on shape or width disagreement and
    /// [`LlmError::KvPoolExhausted`] when the pool cannot supply the pages the
    /// appended rows need (the cache is left unchanged).
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
                op: "attention forward_paged_projected",
                lhs: queries.shape(),
                rhs: (cache.len(), cache.embedding_dim()),
            });
        }
        let offset = cache.len();
        let total = offset + queries.rows();
        cache.append(new_keys, new_values)?;
        self.attend_paged(queries, offset, total, cache, scratch)
    }

    /// [`MultiHeadAttention::attend_cached_projected`] /
    /// [`MultiHeadAttention::attend_paged_projected`] dispatched on a
    /// [`KvStore`].
    ///
    /// # Errors
    ///
    /// The contract of whichever storage path runs.
    pub(crate) fn attend_kv_projected<'s>(
        &self,
        queries: &Matrix,
        new_keys: &Matrix,
        new_values: &Matrix,
        kv: &mut KvStore,
        scratch: &'s mut AttnScratch,
    ) -> Result<&'s Matrix, LlmError> {
        match kv {
            KvStore::Dense(cache) => {
                self.attend_cached_projected(queries, new_keys, new_values, cache, scratch)
            }
            KvStore::Paged(cache) => {
                self.attend_paged_projected(queries, new_keys, new_values, cache, scratch)
            }
        }
    }

    /// [`MultiHeadAttention::forward_cached`] /
    /// [`MultiHeadAttention::forward_paged`] dispatched on a [`KvStore`].
    ///
    /// # Errors
    ///
    /// The contract of whichever storage path runs.
    pub fn forward_kv(&self, input: &Matrix, kv: &mut KvStore) -> Result<Matrix, LlmError> {
        self.forward_kv_with(input, kv, &mut AttnScratch::new())
    }

    /// [`MultiHeadAttention::forward_kv`] reusing caller-owned scratch buffers.
    ///
    /// # Errors
    ///
    /// The contract of whichever storage path runs.
    pub fn forward_kv_with(
        &self,
        input: &Matrix,
        kv: &mut KvStore,
        scratch: &mut AttnScratch,
    ) -> Result<Matrix, LlmError> {
        match kv {
            KvStore::Dense(cache) => self.forward_cached_with(input, cache, scratch),
            KvStore::Paged(cache) => self.forward_paged_with(input, cache, scratch),
        }
    }

    /// The shared front half of the cached paths: projects the new rows and hands
    /// the fresh K/V rows to the storage-specific `append`, returning the
    /// projected queries.
    fn project_and_append(
        &self,
        input: &Matrix,
        append: impl FnOnce(&Matrix, &Matrix) -> Result<(), LlmError>,
    ) -> Result<Matrix, LlmError> {
        let queries = input.matmul(&self.w_query)?;
        let new_keys = input.matmul(&self.w_key)?;
        let new_values = input.matmul(&self.w_value)?;
        append(&new_keys, &new_values)?;
        Ok(queries)
    }

    /// The shared back half of the cached paths, resizing the caller's scratch
    /// to this call's shapes (an allocation only when the stream outgrew every
    /// earlier call) before running the head loop. Returns the head-concat rows.
    fn attend_cached<'s>(
        &self,
        queries: &Matrix,
        offset: usize,
        total: usize,
        scratch: &'s mut AttnScratch,
        gather: impl FnMut(usize, &mut Matrix, &mut Matrix) -> Result<(), LlmError>,
    ) -> Result<&'s Matrix, LlmError> {
        let AttnScratch {
            concat,
            q,
            k,
            v,
            scores,
            head_out,
            ..
        } = scratch;
        self.attend_into(
            queries, offset, total, gather, concat, q, k, v, scores, head_out,
        )?;
        Ok(concat)
    }

    /// The paged back half: one pool-lock acquisition gathers every live row at
    /// full width, then the per-head loop slices panels from the local copy
    /// exactly as the dense path slices its cache matrices — lock-free and
    /// byte-identical. Returns the head-concat rows.
    fn attend_paged<'s>(
        &self,
        queries: &Matrix,
        offset: usize,
        total: usize,
        cache: &PagedKvCache,
        scratch: &'s mut AttnScratch,
    ) -> Result<&'s Matrix, LlmError> {
        // Split borrows: the gather panels are read by the closure while the
        // remaining scratch fields are written by the head loop.
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
        keys_all.resize(total, self.embedding_dim);
        values_all.resize(total, self.embedding_dim);
        cache.gather_window(0, keys_all, values_all);
        self.attend_into(
            queries,
            offset,
            total,
            |col_start, k, v| {
                keys_all.window_into(0, col_start, k)?;
                values_all.window_into(0, col_start, v)
            },
            concat,
            q,
            k,
            v,
            scores,
            head_out,
        )?;
        Ok(concat)
    }

    /// The per-head score/softmax/value loop over `total` cached positions,
    /// with the storage-specific `gather` filling the per-head K/V scratch
    /// panels (rows in position order), leaving the head-concat rows in
    /// `concat`. Every numeric kernel lives here, which is what makes dense
    /// and paged storage bit-identical by construction.
    #[allow(clippy::too_many_arguments)] // the split-borrowed scratch fields
    fn attend_into(
        &self,
        queries: &Matrix,
        offset: usize,
        total: usize,
        mut gather: impl FnMut(usize, &mut Matrix, &mut Matrix) -> Result<(), LlmError>,
        concat: &mut Matrix,
        q: &mut Matrix,
        k: &mut Matrix,
        v: &mut Matrix,
        scores: &mut Matrix,
        head_out: &mut Matrix,
    ) -> Result<(), LlmError> {
        let new = queries.rows();
        let head_dim = self.head_dim();
        let scale = 1.0 / (head_dim as f32).sqrt();
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
            gather(col_start, k, v)?;

            q.matmul_transposed_into(k, scores)?;
            scores.scale_in_place(scale);
            scores.causal_softmax_rows_offset(offset);
            scores.matmul_into(v, head_out)?;
            concat.set_columns(col_start, head_out)?;
        }
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

    #[test]
    fn cached_prefill_is_bit_identical_to_the_full_path() {
        let attn = attention(32, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let input = crate::init::gaussian_matrix(&mut rng, 6, 32, 1.0);
        let full = attn.forward(&input).unwrap();
        let mut cache = AttentionKvCache::new(8, 32);
        let cached = attn.forward_cached(&input, &mut cache).unwrap();
        assert_eq!(full, cached);
        assert_eq!(cache.len(), 6);
        assert!(!cache.is_empty());
        assert_eq!(cache.capacity(), 8);
        assert_eq!(cache.embedding_dim(), 32);
    }

    #[test]
    fn incremental_decode_matches_full_recompute_bit_for_bit() {
        // Feed the sequence token by token; every step's output row must equal the
        // last row of a full forward pass over the prefix so far.
        let attn = attention(16, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let input = crate::init::gaussian_matrix(&mut rng, 5, 16, 1.0);
        let mut cache = AttentionKvCache::new(5, 16);
        for step in 0..5 {
            let mut row = Matrix::zeros(1, 16);
            row.row_mut(0).copy_from_slice(input.row(step));
            let out = attn.forward_cached(&row, &mut cache).unwrap();
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
        let attn = attention(16, 2);
        let mut cache = AttentionKvCache::new(2, 16);
        assert!(attn
            .forward_cached(&Matrix::zeros(1, 8), &mut cache)
            .is_err());
        let mut narrow = AttentionKvCache::new(4, 8);
        assert!(attn
            .forward_cached(&Matrix::zeros(1, 16), &mut narrow)
            .is_err());
        assert!(attn
            .forward_cached(&Matrix::zeros(3, 16), &mut cache)
            .is_err());
        attn.forward_cached(&Matrix::zeros(2, 16), &mut cache)
            .unwrap();
        assert!(attn
            .forward_cached(&Matrix::zeros(1, 16), &mut cache)
            .is_err());
    }

    #[test]
    fn cache_equality_ignores_stale_storage_and_capacity() {
        let attn = attention(16, 2);
        let mut rng = StdRng::seed_from_u64(8);
        let old = crate::init::gaussian_matrix(&mut rng, 4, 16, 1.0);
        let fresh = crate::init::gaussian_matrix(&mut rng, 2, 16, 1.0);
        // `reused` keeps stale rows from a previous stream after clear(); `clean`
        // never saw them. Logically the two caches are the same stream state.
        let mut reused = AttentionKvCache::new(6, 16);
        attn.forward_cached(&old, &mut reused).unwrap();
        reused.clear();
        attn.forward_cached(&fresh, &mut reused).unwrap();
        let mut clean = AttentionKvCache::new(4, 16);
        attn.forward_cached(&fresh, &mut clean).unwrap();
        assert_eq!(reused, clean);
        // Different live content still compares unequal.
        let mut other = AttentionKvCache::new(4, 16);
        attn.forward_cached(&old, &mut other).unwrap();
        assert_ne!(clean, other);
    }

    #[test]
    fn paged_path_is_bit_identical_to_the_dense_cache() {
        use crate::paging::{KvBlockPool, KvStore, PagedKvCache};
        let attn = attention(16, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let input = crate::init::gaussian_matrix(&mut rng, 6, 16, 1.0);
        let pool = KvBlockPool::shared(16, 2, 16);
        let mut dense = KvStore::Dense(AttentionKvCache::new(6, 16));
        let mut paged = KvStore::Paged(PagedKvCache::new(pool));
        // Prefill three rows at once, then decode one row at a time; every chunk
        // must agree bit for bit between the two storages.
        let mut prefix = Matrix::zeros(3, 16);
        for row in 0..3 {
            prefix.row_mut(row).copy_from_slice(input.row(row));
        }
        let out_dense = attn.forward_kv(&prefix, &mut dense).unwrap();
        let out_paged = attn.forward_kv(&prefix, &mut paged).unwrap();
        assert_eq!(out_dense, out_paged, "prefill");
        for step in 3..6 {
            let mut row = Matrix::zeros(1, 16);
            row.row_mut(0).copy_from_slice(input.row(step));
            let out_dense = attn.forward_kv(&row, &mut dense).unwrap();
            let out_paged = attn.forward_kv(&row, &mut paged).unwrap();
            assert_eq!(out_dense, out_paged, "step {step}");
        }
        assert_eq!(dense.len(), paged.len());
    }

    #[test]
    fn paged_path_surfaces_pool_exhaustion_without_corrupting_the_cache() {
        use crate::paging::{KvBlockPool, PagedKvCache};
        let attn = attention(16, 2);
        let pool = KvBlockPool::shared(4, 2, 16);
        let mut cache = PagedKvCache::new(pool);
        attn.forward_paged(&Matrix::zeros(4, 16), &mut cache)
            .unwrap();
        let err = attn
            .forward_paged(&Matrix::zeros(1, 16), &mut cache)
            .unwrap_err();
        assert!(matches!(err, LlmError::KvPoolExhausted { .. }));
        assert_eq!(cache.len(), 4, "failed step must leave the cache intact");
        // Width mismatches are still shape errors, not pool errors.
        assert!(matches!(
            attn.forward_paged(&Matrix::zeros(1, 8), &mut cache),
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
