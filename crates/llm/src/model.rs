//! The decoder-only transformer model tying embeddings, blocks and the final norm together.
//!
//! Two forward-pass APIs coexist:
//!
//! * the stateless full-sequence calls ([`TransformerModel::logits`] and friends),
//!   which recompute the whole prefix every time — the reference oracle;
//! * the stateful incremental API: [`TransformerModel::start_decode`] creates a
//!   [`DecodeContext`] whose per-block K/V rows live in pool-backed pages (a
//!   private [`KvBlockPool`] by default, a shared one via
//!   [`TransformerModel::start_decode_in`]), and [`DecodeContext::prefill`] /
//!   [`DecodeContext::step`] advance it with O(seq) work per token instead of
//!   O(seq²). Both APIs are bit-identical (see `tests/kv_decode.rs`).
//!
//! Many concurrent streams advance together through
//! [`TransformerModel::advance_many`]: each stream feeds its own rows (one
//! decode token or a prompt chunk) and every row-local stage (normalization,
//! MLP, logit projection) runs once over the stacked rows — which is how a
//! serving engine turns per-stream decode into wide fused normalization
//! batches.

use crate::attention::AttnScratch;
use crate::block::TransformerBlock;
use crate::config::ModelConfig;
use crate::error::LlmError;
use crate::init::{gaussian_matrix, gaussian_vector};
use crate::norm::{NormSite, Normalizer};
use crate::paging::{EvictionPolicy, KvBlockPool, PagedKvCache};
use crate::tensor::{log_softmax, Matrix, VocabHead};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A decoder-only transformer with seeded random weights.
///
/// The model is generic over the [`Normalizer`] used at inference time, which is how the
/// reproduction compares "Original" (exact FP32 statistics) against HAAN (skipped /
/// subsampled / quantized statistics) on identical weights: build the model once, then
/// evaluate it with different normalizers.
///
/// # Example
///
/// ```
/// use haan_llm::{ModelConfig, TransformerModel};
/// use haan_llm::norm::ReferenceNormalizer;
///
/// let model = TransformerModel::new(&ModelConfig::tiny_test(), 42)?;
/// let tokens = [1u32, 5, 9, 3];
/// let logits = model.logits(&tokens, &mut ReferenceNormalizer::new())?;
/// assert_eq!(logits.shape(), (4, 64));
/// # Ok::<(), haan_llm::LlmError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerModel {
    config: ModelConfig,
    token_embedding: Matrix,
    /// The tied vocabulary head: `token_embedding` again, in the layout of
    /// [`VocabHead`], built at load. The row-major table serves embedding
    /// lookups.
    head: VocabHead,
    position_embedding: Matrix,
    blocks: Vec<TransformerBlock>,
    final_gamma: Vec<f32>,
    final_beta: Vec<f32>,
    seed: u64,
}

impl TransformerModel {
    /// Builds a model with the given configuration and weight seed.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] when the configuration is inconsistent.
    pub fn new(config: &ModelConfig, seed: u64) -> Result<Self, LlmError> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let e = config.embedding_dim;
        let token_embedding = gaussian_matrix(&mut rng, config.vocab_size, e, 1.0);
        let position_embedding = gaussian_matrix(&mut rng, config.max_seq_len, e, 0.3);
        let blocks = (0..config.num_blocks)
            .map(|i| TransformerBlock::new(&mut rng, config, i))
            .collect();
        Ok(Self {
            config: config.clone(),
            head: VocabHead::new(&token_embedding),
            token_embedding,
            position_embedding,
            blocks,
            final_gamma: gaussian_vector(&mut rng, e, 1.0, 0.05),
            final_beta: gaussian_vector(&mut rng, e, 0.0, 0.02),
            seed,
        })
    }

    /// The model configuration.
    #[must_use]
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Every projection weight of every block, in block order (attention
    /// Q/K/V/O, then the MLP's in/gate/out). All of them are stored in the
    /// column-panel layout of [`Matrix::packed_from_fn`]; the embeddings stay
    /// row-major because lookups read rows. The tied logit projection runs on
    /// a [`VocabHead`] copy of the token embedding.
    #[must_use]
    pub fn projection_weights(&self) -> Vec<&Matrix> {
        self.blocks
            .iter()
            .flat_map(TransformerBlock::projection_weights)
            .collect()
    }

    /// The weight seed the model was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of normalization layers executed per token.
    #[must_use]
    pub fn num_norm_layers(&self) -> usize {
        self.config.num_norm_layers()
    }

    /// Validates a token sequence against the vocabulary and maximum length.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidSequenceLength`] or [`LlmError::TokenOutOfRange`].
    pub fn validate_tokens(&self, tokens: &[u32]) -> Result<(), LlmError> {
        if tokens.is_empty() || tokens.len() > self.config.max_seq_len {
            return Err(LlmError::InvalidSequenceLength {
                length: tokens.len(),
                max: self.config.max_seq_len,
            });
        }
        self.check_vocab(tokens)
    }

    /// The vocabulary half of token validation, shared by the stateless path and
    /// [`DecodeContext`] (whose length check is position-offset-aware instead).
    fn check_vocab(&self, tokens: &[u32]) -> Result<(), LlmError> {
        for &t in tokens {
            if t as usize >= self.config.vocab_size {
                return Err(LlmError::TokenOutOfRange {
                    token: t,
                    vocab: self.config.vocab_size,
                });
            }
        }
        Ok(())
    }

    /// Embeds `tokens` at absolute positions `position_offset..` — the shared
    /// entry of the stateless forward pass (`position_offset == 0`) and the
    /// incremental one, so the two can never disagree on the embedding rule.
    fn embed_rows(&self, tokens: &[u32], position_offset: usize) -> Matrix {
        let e = self.config.embedding_dim;
        let mut hidden = Matrix::zeros(tokens.len(), e);
        for (row, &token) in tokens.iter().enumerate() {
            let tok_row = self.token_embedding.row(token as usize);
            let pos_row = self.position_embedding.row(position_offset + row);
            for (col, value) in hidden.row_mut(row).iter_mut().enumerate() {
                *value = tok_row[col] + pos_row[col];
            }
        }
        hidden
    }

    /// Applies the optional final normalization layer — shared by the stateless
    /// and incremental paths so the final `NormSite` index stays in one place.
    fn apply_final_norm<N: Normalizer + ?Sized>(
        &self,
        hidden: Matrix,
        normalizer: &mut N,
    ) -> Matrix {
        if !self.config.final_norm {
            return hidden;
        }
        let site = NormSite {
            layer_index: 2 * self.blocks.len(),
            kind: self.config.norm_kind(),
        };
        normalizer.normalize_matrix(site, &hidden, &self.final_gamma, &self.final_beta)
    }

    /// Runs the model up to (and including) the final normalization layer, returning the
    /// `seq × E` hidden states.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid token sequences or internal shape mismatches.
    pub fn forward_hidden<N: Normalizer + ?Sized>(
        &self,
        tokens: &[u32],
        normalizer: &mut N,
    ) -> Result<Matrix, LlmError> {
        self.validate_tokens(tokens)?;
        normalizer.begin_sequence();
        let mut hidden = self.embed_rows(tokens, 0);
        for block in &self.blocks {
            hidden = block.forward(&hidden, normalizer)?;
        }
        Ok(self.apply_final_norm(hidden, normalizer))
    }

    /// Runs the model and projects onto the (tied) vocabulary, returning `seq × vocab`
    /// logits.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid token sequences or internal shape mismatches.
    pub fn logits<N: Normalizer + ?Sized>(
        &self,
        tokens: &[u32],
        normalizer: &mut N,
    ) -> Result<Matrix, LlmError> {
        let hidden = self.forward_hidden(tokens, normalizer)?;
        self.head.logits(&hidden)
    }

    /// Sum of next-token log-probabilities of `continuation` given `prompt`, the scoring
    /// rule the multiple-choice task harness uses (same convention as lm-eval-harness).
    ///
    /// # Errors
    ///
    /// Returns an error for invalid token sequences.
    pub fn score_continuation<N: Normalizer + ?Sized>(
        &self,
        prompt: &[u32],
        continuation: &[u32],
        normalizer: &mut N,
    ) -> Result<f64, LlmError> {
        if continuation.is_empty() {
            return Err(LlmError::InvalidSequenceLength {
                length: 0,
                max: self.config.max_seq_len,
            });
        }
        let mut tokens = Vec::with_capacity(prompt.len() + continuation.len());
        tokens.extend_from_slice(prompt);
        tokens.extend_from_slice(continuation);
        let logits = self.logits(&tokens, normalizer)?;
        let mut total = 0.0f64;
        for (offset, &target) in continuation.iter().enumerate() {
            // The logit row predicting `target` is the one for the preceding position.
            let predictor_row = prompt.len() + offset;
            if predictor_row == 0 {
                continue;
            }
            let log_probs = log_softmax(logits.row(predictor_row - 1));
            total += f64::from(log_probs[target as usize]);
        }
        Ok(total)
    }

    /// Total multiply-accumulate count of one forward pass, used by the analytic GPU
    /// runtime model.
    #[must_use]
    pub fn mac_count(&self, seq_len: usize) -> u64 {
        let block_macs: u64 = self.blocks.iter().map(|b| b.mac_count(seq_len)).sum();
        let head_macs =
            seq_len as u64 * self.config.embedding_dim as u64 * self.config.vocab_size as u64;
        block_macs + head_macs
    }

    /// Multiply-accumulate count of one KV-cached decode step at sequence length
    /// `seq_len` (one new token, `seq_len - 1` cached positions): incremental
    /// attention plus one token through every MLP and the vocabulary head. Affine
    /// in `seq_len`; the stateless API pays [`TransformerModel::mac_count`]
    /// `(seq_len)` — quadratic in attention, linear everywhere else — for the same
    /// token.
    #[must_use]
    pub fn mac_count_decode_step(&self, seq_len: usize) -> u64 {
        let block_macs: u64 = self
            .blocks
            .iter()
            .map(|b| b.mac_count_decode_step(seq_len))
            .sum();
        let head_macs = self.config.embedding_dim as u64 * self.config.vocab_size as u64;
        block_macs + head_macs
    }

    /// Rows per page of the private pool [`TransformerModel::start_decode`]
    /// creates (shared pools choose their own page size).
    pub const DEFAULT_KV_PAGE_ROWS: usize = 16;

    /// Starts an incremental decode stream: a [`DecodeContext`] whose per-block
    /// K/V rows are paged out of a private [`KvBlockPool`]. Pages materialize
    /// lazily as the stream grows, so a short stream touches far less memory
    /// than a dense `max_seq × E` preallocation would; to share one pool
    /// across many streams use [`TransformerModel::start_decode_in`].
    ///
    /// The private pool's capacity is twice the full-stream footprint — a bound,
    /// not an allocation — so a sliding-window eviction (which transiently holds
    /// the old window and the recomputed one) always has headroom.
    #[must_use]
    pub fn start_decode(&self) -> DecodeContext<'_> {
        let e = self.config.embedding_dim;
        let capacity = 2 * self.config.max_seq_len * self.blocks.len().max(1);
        let page_rows = Self::DEFAULT_KV_PAGE_ROWS.min(self.config.max_seq_len);
        let pool = KvBlockPool::shared(capacity, page_rows, e);
        self.start_decode_in(&pool)
            .expect("a freshly sized private pool always matches the model")
    }

    /// Starts an incremental decode stream whose K/V pages come from `pool`,
    /// shared with any number of other streams (of this or any other model with
    /// the same embedding width). Memory is bounded by the pool, not by
    /// `streams × max_seq`; when the pool runs dry, the stream's next
    /// `prefill`/`step` fails with the typed [`LlmError::KvPoolExhausted`]
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the pool rows are not
    /// `embedding_dim` wide.
    pub fn start_decode_in(&self, pool: &Arc<KvBlockPool>) -> Result<DecodeContext<'_>, LlmError> {
        let e = self.config.embedding_dim;
        if pool.embedding_dim() != e {
            return Err(LlmError::ShapeMismatch {
                op: "start_decode_in (pool width)",
                lhs: (pool.page_rows(), pool.embedding_dim()),
                rhs: (self.config.max_seq_len, e),
            });
        }
        Ok(DecodeContext {
            model: self,
            kv: self
                .blocks
                .iter()
                .map(|_| PagedKvCache::new(Arc::clone(pool)))
                .collect(),
            len: 0,
            history: Vec::new(),
            eviction: EvictionPolicy::Reject,
            scratch: AttnScratch::new(),
        })
    }

    /// Starts an incremental decode stream whose caches begin as the shared,
    /// refcounted pages of an interned [`KvPrefix`]: the new context maps the
    /// prefix's full pages (raising their refcounts — no row is copied) and is
    /// positioned at `prefix.rows()`, ready for the prompt's *suffix*. Because
    /// a prefix always covers whole pages, the context's first append starts a
    /// fresh page — shared pages are never written, so every sharer stays
    /// bit-identical to a solo stream that prefilled the same tokens itself.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] when the prefix was captured from a
    /// different model (seed, width, or depth mismatch).
    pub fn start_decode_with_prefix(
        &self,
        prefix: &KvPrefix,
    ) -> Result<DecodeContext<'_>, LlmError> {
        if prefix.model_seed != self.seed
            || prefix.embedding_dim != self.config.embedding_dim
            || prefix.pages_per_block.len() != self.blocks.len()
        {
            return Err(LlmError::InvalidConfig(
                "start_decode_with_prefix: prefix captured from a different model".to_string(),
            ));
        }
        Ok(DecodeContext {
            model: self,
            kv: prefix
                .pages_per_block
                .iter()
                .map(|pages| PagedKvCache::attach_prefix(&prefix.pool, pages, prefix.rows))
                .collect(),
            len: prefix.rows,
            history: prefix.tokens.clone(),
            eviction: EvictionPolicy::Reject,
            scratch: AttnScratch::new(),
        })
    }

    /// Advances many decode streams in one batched pass, each by its own
    /// *variable-length* feed — decode streams feed one token, catching-up
    /// streams a whole prompt chunk — and returns one logits row per stream,
    /// the row of its **last** fed position (exactly what greedy decode and
    /// [`DecodeContext::prefill_last`] consume).
    ///
    /// The point is batching width for the normalizer: every row-local stage
    /// — both normalization sites of every block, the final norm, the MLPs,
    /// the vocabulary projection — runs once over all stacked rows, so a fused
    /// [`Normalizer::normalize_matrix_into`] sees `Σ feed lengths` rows per
    /// site per tick; only attention loops per stream, each segment attending
    /// against its own cache (see
    /// [`TransformerBlock::forward_cached_segments`]). Outputs are
    /// bit-identical to feeding each context alone: every shared kernel is
    /// row-local with a fixed reduction order, and HAAN's skip-anchor state is
    /// per-row within a pass, so a row records and consumes only its own
    /// anchors. Streams may sit at different positions; streams under
    /// [`EvictionPolicy::SlidingWindow`] are evicted (per stream, before the
    /// pass) exactly as a solo feed would.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] when `contexts` is empty, does not
    /// match `feeds`, or contains a context of a different model;
    /// [`LlmError::InvalidSequenceLength`] for an empty feed or a non-windowed
    /// stream past capacity; and any single-stream forward-pass error. On
    /// error every cache is rolled back to its pre-pass length, so a failed
    /// tick (e.g. [`LlmError::KvPoolExhausted`] mid-stack) is retryable.
    pub fn advance_many<N: Normalizer + ?Sized>(
        &self,
        contexts: &mut [&mut DecodeContext<'_>],
        feeds: &[&[u32]],
        normalizer: &mut N,
    ) -> Result<Matrix, LlmError> {
        if contexts.is_empty() || contexts.len() != feeds.len() {
            return Err(LlmError::InvalidConfig(format!(
                "advance_many: {} contexts for {} feeds",
                contexts.len(),
                feeds.len()
            )));
        }
        for ctx in contexts.iter() {
            if !std::ptr::eq(ctx.model, self) {
                return Err(LlmError::InvalidConfig(
                    "advance_many: every context must belong to the same model".to_string(),
                ));
            }
        }
        for feed in feeds {
            if feed.is_empty() {
                return Err(LlmError::InvalidSequenceLength {
                    length: 0,
                    max: self.config.max_seq_len,
                });
            }
            self.check_vocab(feed)?;
        }
        // Per-stream eviction first, exactly as a solo feed would apply it.
        for (ctx, feed) in contexts.iter_mut().zip(feeds) {
            ctx.make_room(feed.len(), normalizer)?;
        }
        normalizer.begin_sequence();
        let e = self.config.embedding_dim;
        let segments: Vec<usize> = feeds.iter().map(|f| f.len()).collect();
        let total: usize = segments.iter().sum();
        let mut hidden = Matrix::zeros(total, e);
        let mut start = 0;
        for (feed, ctx) in feeds.iter().zip(contexts.iter()) {
            for (offset, &token) in feed.iter().enumerate() {
                let tok_row = self.token_embedding.row(token as usize);
                let pos_row = self.position_embedding.row(ctx.len + offset);
                for (col, value) in hidden.row_mut(start + offset).iter_mut().enumerate() {
                    *value = tok_row[col] + pos_row[col];
                }
            }
            start += feed.len();
        }
        for (b, block) in self.blocks.iter().enumerate() {
            // Split borrows: each context lends this block's cache and its own
            // attention scratch for the per-stream halves of the pass.
            let mut streams: Vec<(&mut PagedKvCache, &mut AttnScratch)> = contexts
                .iter_mut()
                .map(|ctx| {
                    let DecodeContext { kv, scratch, .. } = &mut **ctx;
                    (&mut kv[b], &mut *scratch)
                })
                .collect();
            match block.forward_cached_segments(&hidden, &segments, normalizer, &mut streams) {
                Ok(out) => hidden = out,
                Err(err) => {
                    // Roll every stream's caches back to the pre-pass length so a
                    // failed tick (e.g. pool exhaustion mid-stack) is retryable.
                    for ctx in contexts.iter_mut() {
                        let len = ctx.len;
                        for kv in &mut ctx.kv {
                            kv.truncate(len);
                        }
                    }
                    return Err(err);
                }
            }
        }
        let hidden = self.apply_final_norm(hidden, normalizer);
        // One output row per stream: its last fed position (the projection is
        // row-local, so skipping the earlier prefill rows changes no float).
        let mut last_rows = Matrix::zeros(contexts.len(), e);
        let mut start = 0;
        for (s, &rows) in segments.iter().enumerate() {
            last_rows
                .row_mut(s)
                .copy_from_slice(hidden.row(start + rows - 1));
            start += rows;
        }
        for (ctx, feed) in contexts.iter_mut().zip(feeds) {
            ctx.len += feed.len();
            ctx.history.extend_from_slice(feed);
        }
        self.head.logits(&last_rows)
    }
}

/// A content-addressed, refcounted K/V prefix: the whole-page prefix of one
/// decoded prompt, exported by [`DecodeContext::export_prefix`] and attachable
/// to any number of new streams via
/// [`TransformerModel::start_decode_with_prefix`]. All sharers map the *same*
/// pool pages (the prefix holds one reference, each attached stream one more),
/// so N streams with a common system prompt pay for its K/V rows once; the
/// pages return to the pool when the last owner — prefix or stream — drops.
#[derive(Debug)]
pub struct KvPrefix {
    /// The prompt tokens the shared rows cover (`rows` of them).
    tokens: Vec<u32>,
    /// Per block: the whole pages holding positions `0..rows`, in order.
    pages_per_block: Vec<Vec<usize>>,
    /// Shared positions — always a whole-page multiple, so an attached stream's
    /// first append starts a fresh page and never writes a shared one.
    rows: usize,
    pool: Arc<KvBlockPool>,
    model_seed: u64,
    embedding_dim: usize,
}

impl KvPrefix {
    /// The tokens the shared pages cover.
    #[must_use]
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// Shared positions per block (a whole-page multiple).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The pool owning the shared pages.
    #[must_use]
    pub fn pool(&self) -> &Arc<KvBlockPool> {
        &self.pool
    }

    /// Pool pages the prefix holds across all blocks (its footprint — what N
    /// sharers split between them instead of paying N times).
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.pages_per_block.iter().map(Vec::len).sum()
    }

    /// Seed of the model whose forward pass produced the shared rows; a prefix
    /// only attaches to contexts of the same model.
    #[must_use]
    pub fn model_seed(&self) -> u64 {
        self.model_seed
    }
}

impl Drop for KvPrefix {
    fn drop(&mut self) {
        for pages in &self.pages_per_block {
            self.pool.release_pages(pages);
        }
    }
}

/// The stateful side of the incremental forward-pass API: one decode stream's
/// per-block K/V storage plus its position counter.
///
/// A context is created by [`TransformerModel::start_decode`] (a private pool)
/// or [`TransformerModel::start_decode_in`] (a shared pool), filled with the
/// prompt by [`DecodeContext::prefill`], and advanced
/// one token at a time by [`DecodeContext::step`] — each step costs O(seq)
/// instead of the O(seq²) a stateless [`TransformerModel::logits`] call pays.
/// Both entry points run the new rows through the given [`Normalizer`] exactly
/// as a fresh full forward pass would (including
/// [`Normalizer::begin_sequence`]), so stateful normalizers — the HAAN skip
/// predictor, a serving-engine session — observe the same per-site call pattern
/// for the new token as under full recompute, and the produced logits are
/// bit-identical to it.
///
/// Streams meant to outlive `max_seq_len` opt into
/// [`EvictionPolicy::SlidingWindow`] via [`DecodeContext::with_eviction`]; the
/// context then drops its oldest positions (freeing their pool pages) and
/// recomputes the kept window instead of failing.
///
/// # Example
///
/// ```
/// use haan_llm::norm::ReferenceNormalizer;
/// use haan_llm::{ModelConfig, TransformerModel};
///
/// let model = TransformerModel::new(&ModelConfig::tiny_test(), 42)?;
/// let mut ctx = model.start_decode();
/// let mut norm = ReferenceNormalizer::new();
/// let prompt_logits = ctx.prefill(&[1, 5, 9], &mut norm)?;
/// // Bit-identical to the stateless full-sequence call.
/// let oracle = model.logits(&[1, 5, 9], &mut ReferenceNormalizer::new())?;
/// assert_eq!(prompt_logits, oracle);
/// // One more token costs O(seq), not a full recompute.
/// let step_logits = ctx.step(3, &mut norm)?;
/// assert_eq!(step_logits.len(), 64);
/// assert_eq!(ctx.len(), 4);
/// # Ok::<(), haan_llm::LlmError>(())
/// ```
#[derive(Debug)]
pub struct DecodeContext<'m> {
    model: &'m TransformerModel,
    /// One paged K/V cache per transformer block, in block order.
    kv: Vec<PagedKvCache>,
    /// Number of positions processed so far.
    len: usize,
    /// The tokens currently resident in the caches, oldest first — `len` long.
    /// Kept so sliding-window eviction can recompute the retained suffix.
    history: Vec<u32>,
    /// What happens when the stream would outgrow `max_seq_len`.
    eviction: EvictionPolicy,
    /// Reusable attention scratch (one score row), so steady-state decode
    /// allocates nothing per step — see [`AttnScratch`].
    scratch: AttnScratch,
}

impl<'m> DecodeContext<'m> {
    /// The model this context decodes with.
    #[must_use]
    pub fn model(&self) -> &'m TransformerModel {
        self.model
    }

    /// Number of positions already processed (prompt plus generated).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no position has been processed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remaining positions before the model's maximum sequence length. Under
    /// [`EvictionPolicy::SlidingWindow`] reaching zero triggers an eviction on
    /// the next feed rather than an error.
    #[must_use]
    pub fn remaining_capacity(&self) -> usize {
        self.model.config.max_seq_len - self.len
    }

    /// The tokens currently resident in the K/V caches (the whole stream until
    /// the first eviction, the retained window afterwards).
    #[must_use]
    pub fn resident_tokens(&self) -> &[u32] {
        &self.history
    }

    /// The configured eviction policy.
    #[must_use]
    pub fn eviction(&self) -> EvictionPolicy {
        self.eviction
    }

    /// Sets the eviction policy (builder style). `keep_last` is validated at
    /// eviction time: it must leave room for the incoming tokens.
    #[must_use]
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }

    /// Sets the eviction policy in place — the non-consuming counterpart of
    /// [`DecodeContext::with_eviction`], for contexts already embedded in a
    /// larger structure (e.g. a serving-layer decode group configuring one
    /// member stream as windowed).
    pub fn set_eviction(&mut self, eviction: EvictionPolicy) {
        self.eviction = eviction;
    }

    /// Elements the context's reusable attention scratch can hold without
    /// reallocating — flat across steady-state decode steps (the decode bench
    /// asserts no growth once a stream is warmed up).
    #[must_use]
    pub fn scratch_capacity(&self) -> usize {
        self.scratch.buffer_capacity()
    }

    /// Captures the stream's whole-page K/V prefix as a shareable, refcounted
    /// [`KvPrefix`]: the pages holding positions `0..⌊len/page_rows⌋·page_rows`
    /// of every block (no row copied, each page's refcount raised), plus the
    /// tokens they cover. A partially-filled tail page is *not* captured —
    /// prefixes cover whole pages only, so attached streams never write shared
    /// storage.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] when the context holds less than one
    /// full page of positions.
    pub fn export_prefix(&self) -> Result<KvPrefix, LlmError> {
        // A validated model has at least one block, and every block's cache
        // borrows from the same pool.
        let pool = Arc::clone(self.kv[0].pool());
        let page_rows = pool.page_rows();
        let rows = (self.len / page_rows) * page_rows;
        if rows == 0 {
            return Err(LlmError::InvalidConfig(format!(
                "export_prefix: {} positions held, less than one {page_rows}-row page",
                self.len
            )));
        }
        let full_pages = rows / page_rows;
        let pages_per_block: Vec<Vec<usize>> = self
            .kv
            .iter()
            .map(|cache| {
                let pages = &cache.page_table()[..full_pages];
                pool.retain_pages(pages);
                pages.to_vec()
            })
            .collect();
        Ok(KvPrefix {
            tokens: self.history[..rows].to_vec(),
            pages_per_block,
            rows,
            pool,
            model_seed: self.model.seed,
            embedding_dim: self.model.config.embedding_dim,
        })
    }

    /// Forgets the stream: clears every block's K/V cache (returning its pages
    /// to the pool) and rewinds the position counter, ready for a fresh prompt.
    pub fn reset(&mut self) {
        for kv in &mut self.kv {
            kv.clear();
        }
        self.len = 0;
        self.history.clear();
    }

    /// Feeds the next `tokens` through the model in one batched incremental pass,
    /// returning the `tokens.len() × vocab` logits of the new positions. Called
    /// once with the whole prompt this is the prefill phase; [`DecodeContext::step`]
    /// is the one-token special case.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidSequenceLength`] when `tokens` is empty or would
    /// grow the stream past the model's maximum sequence length,
    /// [`LlmError::TokenOutOfRange`] for out-of-vocabulary tokens, and any
    /// forward-pass shape error.
    pub fn prefill<N: Normalizer + ?Sized>(
        &mut self,
        tokens: &[u32],
        normalizer: &mut N,
    ) -> Result<Matrix, LlmError> {
        let hidden = self.advance(tokens, normalizer)?;
        self.model.head.logits(&hidden)
    }

    /// Feeds the next `tokens` and returns only the *final* position's logits —
    /// the greedy-decode prefill entry. Hidden states still advance for every
    /// token (their K/V rows land in the caches), but only the last row is
    /// projected onto the vocabulary, saving the `(n-1) × E × vocab` MACs
    /// [`DecodeContext::prefill`] spends on rows a decode loop discards. The
    /// projection is row-local, so the returned row is bit-identical to the last
    /// row of [`DecodeContext::prefill`].
    ///
    /// # Errors
    ///
    /// Same contract as [`DecodeContext::prefill`].
    pub fn prefill_last<N: Normalizer + ?Sized>(
        &mut self,
        tokens: &[u32],
        normalizer: &mut N,
    ) -> Result<Vec<f32>, LlmError> {
        let hidden = self.advance(tokens, normalizer)?;
        let mut last = Matrix::zeros(1, hidden.cols());
        last.row_mut(0)
            .copy_from_slice(hidden.row(hidden.rows() - 1));
        let logits = self.model.head.logits(&last)?;
        Ok(logits.row(0).to_vec())
    }

    /// Feeds one token and returns the logits row predicting its successor.
    ///
    /// # Errors
    ///
    /// Same contract as [`DecodeContext::prefill`].
    pub fn step<N: Normalizer + ?Sized>(
        &mut self,
        token: u32,
        normalizer: &mut N,
    ) -> Result<Vec<f32>, LlmError> {
        self.prefill_last(&[token], normalizer)
    }

    /// Embeds the new tokens at their absolute positions and runs them through
    /// every block's cached path plus the final norm, returning the new rows'
    /// hidden states. Applies the eviction policy first when the tokens would
    /// not fit.
    fn advance<N: Normalizer + ?Sized>(
        &mut self,
        tokens: &[u32],
        normalizer: &mut N,
    ) -> Result<Matrix, LlmError> {
        if tokens.is_empty() {
            return Err(LlmError::InvalidSequenceLength {
                length: 0,
                max: self.model.config.max_seq_len,
            });
        }
        self.make_room(tokens.len(), normalizer)?;
        self.advance_within_capacity(tokens, normalizer)
    }

    /// [`DecodeContext::advance`] once room is guaranteed — also the re-prefill
    /// pass of an eviction. On any error the caches are rolled back to the
    /// pre-pass length, so a failed pass (e.g. pool exhaustion mid-stack) leaves
    /// the stream consistent and retryable.
    fn advance_within_capacity<N: Normalizer + ?Sized>(
        &mut self,
        tokens: &[u32],
        normalizer: &mut N,
    ) -> Result<Matrix, LlmError> {
        let config = &self.model.config;
        if self.len + tokens.len() > config.max_seq_len {
            return Err(LlmError::InvalidSequenceLength {
                length: self.len + tokens.len(),
                max: config.max_seq_len,
            });
        }
        self.model.check_vocab(tokens)?;
        match run_blocks(
            self.model,
            tokens,
            self.len,
            &mut self.kv,
            &mut self.scratch,
            normalizer,
        ) {
            Ok(out) => {
                self.len += tokens.len();
                self.history.extend_from_slice(tokens);
                Ok(out)
            }
            Err(err) => {
                for kv in &mut self.kv {
                    kv.truncate(self.len);
                }
                Err(err)
            }
        }
    }

    /// Ensures `incoming` more positions fit, applying the eviction policy if
    /// not.
    fn make_room<N: Normalizer + ?Sized>(
        &mut self,
        incoming: usize,
        normalizer: &mut N,
    ) -> Result<(), LlmError> {
        let max = self.model.config.max_seq_len;
        if self.len + incoming <= max {
            return Ok(());
        }
        match self.eviction {
            EvictionPolicy::Reject => Err(LlmError::InvalidSequenceLength {
                length: self.len + incoming,
                max,
            }),
            EvictionPolicy::SlidingWindow { keep_last } => {
                if keep_last + incoming > max {
                    // The window itself leaves no room for the incoming tokens.
                    return Err(LlmError::InvalidSequenceLength {
                        length: keep_last + incoming,
                        max,
                    });
                }
                self.evict_to(keep_last, normalizer)
            }
        }
    }

    /// Drops every position but the newest `keep_last`, freeing their K/V pages,
    /// and recomputes the kept suffix re-embedded at positions `0..keep_last` —
    /// one incremental pass, after which the context is bit-identical to a fresh
    /// one prefilled with the kept tokens.
    fn evict_to<N: Normalizer + ?Sized>(
        &mut self,
        keep_last: usize,
        normalizer: &mut N,
    ) -> Result<(), LlmError> {
        let keep = keep_last.min(self.len);
        let kept: Vec<u32> = self.history[self.history.len() - keep..].to_vec();
        // Recompute the kept window into *fresh* caches before touching the
        // live ones, so eviction is all-or-nothing: a failed recompute (e.g.
        // pool pressure from concurrent streams) drops the fresh caches —
        // returning their pages — and leaves the stream exactly as it was,
        // still consistent and retryable. The price is transiently holding the
        // old window and the kept window at once (`keep_last` extra rows per
        // block); pools serving windowed streams are sized with that headroom.
        let mut fresh: Vec<PagedKvCache> = self
            .kv
            .iter()
            .map(|cache| PagedKvCache::new(Arc::clone(cache.pool())))
            .collect();
        if !kept.is_empty() {
            // The same pass a fresh context's prefill over `kept` would run —
            // begin_sequence, every block site, the final norm — so stateful
            // normalizers observe an identical call pattern and the recomputed
            // window is bit-identical to that fresh prefill.
            run_blocks(
                self.model,
                &kept,
                0,
                &mut fresh,
                &mut self.scratch,
                normalizer,
            )?;
        }
        self.kv = fresh; // the old caches drop here, freeing their pages
        self.len = keep;
        self.history = kept;
        Ok(())
    }
}

/// One single-context incremental pass: embeds `tokens` at positions
/// `position_offset..`, runs them through every block's cached path as one
/// segment over `kv` (one cache per block), and applies the final norm,
/// returning the new rows' hidden states. Starts with
/// [`Normalizer::begin_sequence`], exactly as a stateless forward pass does.
fn run_blocks<N: Normalizer + ?Sized>(
    model: &TransformerModel,
    tokens: &[u32],
    position_offset: usize,
    kv: &mut [PagedKvCache],
    scratch: &mut AttnScratch,
    normalizer: &mut N,
) -> Result<Matrix, LlmError> {
    normalizer.begin_sequence();
    let mut hidden = model.embed_rows(tokens, position_offset);
    let rows = [tokens.len()];
    for (block, cache) in model.blocks.iter().zip(kv) {
        hidden = block.forward_cached_segments(
            &hidden,
            &rows,
            normalizer,
            &mut [(cache, &mut *scratch)],
        )?;
    }
    Ok(model.apply_final_norm(hidden, normalizer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norm::{normalize_with_stats, Composed, NormSite, Normalizer, ReferenceNormalizer};

    fn tiny_model() -> TransformerModel {
        TransformerModel::new(&ModelConfig::tiny_test(), 42).unwrap()
    }

    #[test]
    fn construction_is_deterministic_per_seed() {
        let a = TransformerModel::new(&ModelConfig::tiny_test(), 1).unwrap();
        let b = TransformerModel::new(&ModelConfig::tiny_test(), 1).unwrap();
        let c = TransformerModel::new(&ModelConfig::tiny_test(), 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.seed(), 1);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = ModelConfig::tiny_test();
        cfg.num_heads = 5;
        assert!(TransformerModel::new(&cfg, 0).is_err());
    }

    #[test]
    fn hidden_and_logit_shapes() {
        let model = tiny_model();
        let tokens = [0u32, 1, 2, 3, 4];
        let hidden = model
            .forward_hidden(&tokens, &mut ReferenceNormalizer::new())
            .unwrap();
        assert_eq!(hidden.shape(), (5, 32));
        let logits = model
            .logits(&tokens, &mut ReferenceNormalizer::new())
            .unwrap();
        assert_eq!(logits.shape(), (5, 64));
        assert_eq!(model.num_norm_layers(), 9);
    }

    #[test]
    fn token_validation() {
        let model = tiny_model();
        assert!(model.validate_tokens(&[0, 1, 2]).is_ok());
        assert!(model.validate_tokens(&[]).is_err());
        assert!(model.validate_tokens(&[999]).is_err());
        let too_long = vec![0u32; 100];
        assert!(model.validate_tokens(&too_long).is_err());
    }

    #[test]
    fn different_normalizers_give_similar_but_not_identical_outputs() {
        let model = tiny_model();
        let tokens = [3u32, 7, 11, 13];
        let exact = model
            .logits(&tokens, &mut ReferenceNormalizer::new())
            .unwrap();
        // The same exact statistics, however the reference normalizer is built or
        // wrapped, give the same logits.
        for mut same in [
            Composed::<ReferenceNormalizer>::default(),
            Composed(ReferenceNormalizer::new()),
        ] {
            assert_eq!(model.logits(&tokens, &mut same).unwrap(), exact);
        }
        // A normalizer with a wider epsilon gives similar, not identical, logits.
        struct WideEps;
        impl Normalizer for WideEps {
            fn normalize(&mut self, site: NormSite, z: &[f32], g: &[f32], b: &[f32]) -> Vec<f32> {
                normalize_with_stats(z, g, b, site.kind, 1e-2)
            }
        }
        let wide = model.logits(&tokens, &mut WideEps).unwrap();
        assert_ne!(wide, exact);
        let max_diff = wide
            .as_slice()
            .iter()
            .zip(exact.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff < 0.5, "max |Δlogit| {max_diff}");
    }

    #[test]
    fn scoring_prefers_the_model_own_prediction() {
        let model = tiny_model();
        let prompt = [1u32, 2, 3];
        let logits = model
            .logits(&prompt, &mut ReferenceNormalizer::new())
            .unwrap();
        let last = logits.row(2);
        let best = last
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i as u32)
            .unwrap();
        let worst = last
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i as u32)
            .unwrap();
        let mut norm = ReferenceNormalizer::new();
        let score_best = model
            .score_continuation(&prompt, &[best], &mut norm)
            .unwrap();
        let score_worst = model
            .score_continuation(&prompt, &[worst], &mut norm)
            .unwrap();
        assert!(score_best > score_worst);
        assert!(model.score_continuation(&prompt, &[], &mut norm).is_err());
    }

    #[test]
    fn mac_count_scales_with_sequence_length() {
        let model = tiny_model();
        assert!(model.mac_count(16) > model.mac_count(8));
    }

    #[test]
    fn decode_step_macs_are_linear_per_token() {
        // The cached decode step is affine in sequence length (zero second
        // difference), i.e. O(seq) work per token; the stateless path's cost for
        // the same token grows quadratically.
        let model = tiny_model();
        let d1 = model.mac_count_decode_step(16) - model.mac_count_decode_step(8);
        let d2 = model.mac_count_decode_step(24) - model.mac_count_decode_step(16);
        assert_eq!(d1, d2, "decode-step MACs must be affine in seq_len");
        let full_d1 = model.mac_count(16) - model.mac_count(8);
        let full_d2 = model.mac_count(24) - model.mac_count(16);
        assert!(
            full_d2 > full_d1,
            "full-recompute MACs must grow superlinearly"
        );
        assert!(model.mac_count(32) > model.mac_count_decode_step(32));
    }

    #[test]
    fn decode_context_prefill_matches_stateless_logits() {
        let model = tiny_model();
        let tokens = [3u32, 7, 11, 13, 2];
        let mut ctx = model.start_decode();
        assert!(ctx.is_empty());
        let cached = ctx
            .prefill(&tokens, &mut ReferenceNormalizer::new())
            .unwrap();
        let oracle = model
            .logits(&tokens, &mut ReferenceNormalizer::new())
            .unwrap();
        assert_eq!(cached, oracle);
        assert_eq!(ctx.len(), 5);
        assert_eq!(ctx.model().seed(), model.seed());
        assert_eq!(ctx.remaining_capacity(), model.config().max_seq_len - 5);
    }

    #[test]
    fn prefill_last_is_the_last_row_of_prefill() {
        let model = tiny_model();
        let tokens = [1u32, 8, 2, 19];
        let mut full_ctx = model.start_decode();
        let full = full_ctx
            .prefill(&tokens, &mut ReferenceNormalizer::new())
            .unwrap();
        let mut last_ctx = model.start_decode();
        let last = last_ctx
            .prefill_last(&tokens, &mut ReferenceNormalizer::new())
            .unwrap();
        assert_eq!(last.as_slice(), full.row(tokens.len() - 1));
        assert_eq!(last_ctx.len(), full_ctx.len());
    }

    #[test]
    fn decode_context_steps_match_full_recompute() {
        let model = tiny_model();
        let mut ctx = model.start_decode();
        let mut norm = ReferenceNormalizer::new();
        let mut tokens = vec![5u32];
        ctx.prefill(&tokens, &mut norm).unwrap();
        for &next in &[9u32, 1, 30, 12] {
            tokens.push(next);
            let stepped = ctx.step(next, &mut norm).unwrap();
            let oracle = model
                .logits(&tokens, &mut ReferenceNormalizer::new())
                .unwrap();
            assert_eq!(stepped.as_slice(), oracle.row(tokens.len() - 1));
        }
        ctx.reset();
        assert!(ctx.is_empty());
        // After a reset the context replays a fresh stream bit-identically.
        let replay = ctx.prefill(&tokens, &mut norm).unwrap();
        let oracle = model
            .logits(&tokens, &mut ReferenceNormalizer::new())
            .unwrap();
        assert_eq!(replay, oracle);
    }

    #[test]
    fn streams_share_a_pool_and_return_pages_on_reset() {
        use crate::paging::KvBlockPool;
        let model = tiny_model();
        let pool = KvBlockPool::shared(
            2 * model.config().max_seq_len * model.config().num_blocks,
            8,
            model.config().embedding_dim,
        );
        let mut a = model.start_decode_in(&pool).unwrap();
        let mut b = model.start_decode_in(&pool).unwrap();
        a.prefill(&[1, 2, 3], &mut ReferenceNormalizer::new())
            .unwrap();
        b.prefill(&[4, 5], &mut ReferenceNormalizer::new()).unwrap();
        // One page per block per stream at this length.
        assert_eq!(pool.pages_in_use(), 2 * model.config().num_blocks);
        // Interleaved growth stays bit-identical to the stateless oracle.
        let stepped = a.step(9, &mut ReferenceNormalizer::new()).unwrap();
        let oracle = model
            .logits(&[1, 2, 3, 9], &mut ReferenceNormalizer::new())
            .unwrap();
        assert_eq!(stepped.as_slice(), oracle.row(3));
        a.reset();
        assert_eq!(pool.pages_in_use(), model.config().num_blocks);
        drop(b);
        assert_eq!(pool.pages_in_use(), 0);
        // A mismatched pool width is a shape error.
        let narrow = KvBlockPool::shared(64, 8, 16);
        assert!(model.start_decode_in(&narrow).is_err());
    }

    #[test]
    fn pool_exhaustion_mid_pass_is_typed_and_retryable() {
        use crate::paging::KvBlockPool;
        let model = tiny_model();
        // Six 1-row pages: a 2-token prefill needs 2 pages per block × 4 blocks,
        // so the pool runs dry mid-stack (after block 2).
        let pool = KvBlockPool::shared(6, 1, model.config().embedding_dim);
        let mut ctx = model.start_decode_in(&pool).unwrap();
        let err = ctx
            .prefill(&[1, 2], &mut ReferenceNormalizer::new())
            .unwrap_err();
        assert!(matches!(err, LlmError::KvPoolExhausted { .. }));
        // The failed pass rolled back: the stream is still empty and consistent,
        // and every page grabbed by the aborted pass was returned.
        assert!(ctx.is_empty());
        assert_eq!(pool.pages_in_use(), 0);
        // A shorter prompt fits (4 blocks × 1 page) and matches the oracle.
        let logits = ctx.prefill(&[1], &mut ReferenceNormalizer::new()).unwrap();
        let oracle = model.logits(&[1], &mut ReferenceNormalizer::new()).unwrap();
        assert_eq!(logits, oracle);
    }

    #[test]
    fn advance_many_matches_individual_steps_bit_for_bit() {
        use crate::paging::KvBlockPool;
        let model = tiny_model();
        let pool = KvBlockPool::shared(
            4 * model.config().max_seq_len * model.config().num_blocks,
            8,
            model.config().embedding_dim,
        );
        let prompts: [&[u32]; 3] = [&[1, 5, 9], &[2, 4], &[7, 3, 1, 12]];
        let mut lockstep: Vec<DecodeContext> = prompts
            .iter()
            .map(|p| {
                let mut ctx = model.start_decode_in(&pool).unwrap();
                ctx.prefill(p, &mut ReferenceNormalizer::new()).unwrap();
                ctx
            })
            .collect();
        let mut solo: Vec<DecodeContext> = prompts
            .iter()
            .map(|p| {
                let mut ctx = model.start_decode();
                ctx.prefill(p, &mut ReferenceNormalizer::new()).unwrap();
                ctx
            })
            .collect();
        for round in 0..3u32 {
            let tokens: Vec<u32> = (0..3u32).map(|s| (round * 7 + s) % 8).collect();
            let feeds: Vec<&[u32]> = tokens.iter().map(std::slice::from_ref).collect();
            let mut refs: Vec<&mut DecodeContext> = lockstep.iter_mut().collect();
            let batched = model
                .advance_many(&mut refs, &feeds, &mut ReferenceNormalizer::new())
                .unwrap();
            assert_eq!(batched.shape(), (3, model.config().vocab_size));
            for (s, ctx) in solo.iter_mut().enumerate() {
                let solo_logits = ctx
                    .step(tokens[s], &mut ReferenceNormalizer::new())
                    .unwrap();
                assert_eq!(batched.row(s), solo_logits.as_slice(), "stream {s}");
            }
        }
        for (ctx, solo_ctx) in lockstep.iter().zip(&solo) {
            assert_eq!(ctx.len(), solo_ctx.len());
            assert_eq!(ctx.resident_tokens(), solo_ctx.resident_tokens());
        }
    }

    #[test]
    fn advance_many_with_mixed_length_feeds_matches_solo_feeds() {
        // One pass stacking a one-token decode feed, a prompt chunk into a
        // fed context, and a whole prompt into a fresh one: each logits row
        // is the solo feed's last row, and each cache ends where solo does.
        let model = tiny_model();
        let warm: [&[u32]; 3] = [&[1, 5, 9], &[2, 4], &[]];
        let feeds: [&[u32]; 3] = [&[6], &[7, 3, 1, 12, 0], &[3, 8, 2, 6]];
        let mut batched: Vec<DecodeContext> = Vec::new();
        let mut solo: Vec<DecodeContext> = Vec::new();
        for prefix in warm {
            for contexts in [&mut batched, &mut solo] {
                let mut ctx = model.start_decode();
                if !prefix.is_empty() {
                    ctx.prefill(prefix, &mut ReferenceNormalizer::new())
                        .unwrap();
                }
                contexts.push(ctx);
            }
        }
        let mut refs: Vec<&mut DecodeContext> = batched.iter_mut().collect();
        let logits = model
            .advance_many(&mut refs, &feeds, &mut ReferenceNormalizer::new())
            .unwrap();
        assert_eq!(logits.shape(), (3, model.config().vocab_size));
        for (s, (ctx, feed)) in solo.iter_mut().zip(feeds).enumerate() {
            let last = ctx
                .prefill_last(feed, &mut ReferenceNormalizer::new())
                .unwrap();
            assert_eq!(logits.row(s), last.as_slice(), "stream {s}");
            assert_eq!(batched[s].resident_tokens(), ctx.resident_tokens());
        }
    }

    #[test]
    fn advance_many_rejects_mismatched_inputs() {
        let model = tiny_model();
        let other = TransformerModel::new(&ModelConfig::tiny_test(), 7).unwrap();
        let mut ctx = model.start_decode();
        let mut foreign = other.start_decode();
        let mut norm = ReferenceNormalizer::new();
        let empty: &mut [&mut DecodeContext] = &mut [];
        assert!(model.advance_many(empty, &[], &mut norm).is_err());
        assert!(model
            .advance_many(&mut [&mut ctx], &[&[1], &[2]], &mut norm)
            .is_err());
        assert!(model
            .advance_many(&mut [&mut foreign], &[&[1]], &mut norm)
            .is_err());
        assert!(model
            .advance_many(&mut [&mut ctx], &[&[999]], &mut norm)
            .is_err());
        assert!(model
            .advance_many(&mut [&mut ctx], &[&[]], &mut norm)
            .is_err());
    }

    #[test]
    fn sliding_window_eviction_stays_parity_correct_within_the_window() {
        use crate::paging::EvictionPolicy;
        let model = tiny_model();
        let max = model.config().max_seq_len;
        let keep = max / 2;
        let mut ctx = model
            .start_decode()
            .with_eviction(EvictionPolicy::SlidingWindow { keep_last: keep });
        assert_eq!(
            ctx.eviction(),
            EvictionPolicy::SlidingWindow { keep_last: keep }
        );
        let mut history: Vec<u32> = (0..max as u32).map(|i| i % 8).collect();
        ctx.prefill(&history, &mut ReferenceNormalizer::new())
            .unwrap();
        assert_eq!(ctx.remaining_capacity(), 0);
        // Step well past the model's maximum sequence length. Before each step,
        // mirror the eviction rule to compute the oracle window.
        for round in 0..(max + 3) as u32 {
            let token = (round * 3) % 8;
            let mut window: Vec<u32> = history.clone();
            if window.len() + 1 > max {
                window = window[window.len() - keep..].to_vec();
            }
            window.push(token);
            let stepped = ctx.step(token, &mut ReferenceNormalizer::new()).unwrap();
            let oracle = model
                .logits(&window, &mut ReferenceNormalizer::new())
                .unwrap();
            assert_eq!(
                stepped.as_slice(),
                oracle.row(window.len() - 1),
                "round {round}"
            );
            assert_eq!(ctx.resident_tokens(), window.as_slice());
            history = window;
        }
        // A window that leaves no room for the incoming tokens is rejected.
        let mut hopeless = model
            .start_decode()
            .with_eviction(EvictionPolicy::SlidingWindow { keep_last: max });
        let full: Vec<u32> = (0..max as u32).map(|i| i % 8).collect();
        hopeless
            .prefill(&full, &mut ReferenceNormalizer::new())
            .unwrap();
        assert!(matches!(
            hopeless.step(0, &mut ReferenceNormalizer::new()),
            Err(LlmError::InvalidSequenceLength { .. })
        ));
    }

    #[test]
    fn failed_eviction_is_all_or_nothing() {
        use crate::paging::{EvictionPolicy, KvBlockPool};
        let model = tiny_model();
        let max = model.config().max_seq_len;
        let blocks = model.config().num_blocks;
        // Exactly one full window per block: no headroom for the eviction
        // recompute, which transiently needs the old window plus the kept one.
        let pool = KvBlockPool::shared(max * blocks, max, model.config().embedding_dim);
        let mut ctx = model
            .start_decode_in(&pool)
            .unwrap()
            .with_eviction(EvictionPolicy::SlidingWindow { keep_last: max / 2 });
        let prompt: Vec<u32> = (0..max as u32).map(|i| i % 8).collect();
        let mut norm = ReferenceNormalizer::new();
        ctx.prefill(&prompt, &mut norm).unwrap();
        let err = ctx.step(1, &mut norm).unwrap_err();
        assert!(matches!(err, LlmError::KvPoolExhausted { .. }));
        // The stream is untouched: the old window is still fully resident and
        // answers exactly as before the failed eviction.
        assert_eq!(ctx.len(), max);
        assert_eq!(ctx.resident_tokens(), prompt.as_slice());
        // Once pressure is gone (reset returns the pages), decoding resumes.
        ctx.reset();
        let logits = ctx.prefill(&[1, 2], &mut norm).unwrap();
        let oracle = model
            .logits(&[1, 2], &mut ReferenceNormalizer::new())
            .unwrap();
        assert_eq!(logits, oracle);
    }

    #[test]
    fn decode_context_validates_tokens_and_capacity() {
        let model = tiny_model();
        let mut ctx = model.start_decode();
        let mut norm = ReferenceNormalizer::new();
        assert!(ctx.prefill(&[], &mut norm).is_err());
        assert!(ctx.prefill(&[999], &mut norm).is_err());
        let max = model.config().max_seq_len;
        let full: Vec<u32> = (0..max as u32).map(|i| i % 8).collect();
        ctx.prefill(&full, &mut norm).unwrap();
        assert_eq!(ctx.remaining_capacity(), 0);
        assert!(ctx.step(0, &mut norm).is_err());
    }
}
