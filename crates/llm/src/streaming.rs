//! Solo greedy decode on top of [`TransformerModel`].
//!
//! [`StreamingModel`] holds the growing token buffer of one decode stream and
//! advances it one token per [`StreamingModel::decode_step`] call through any
//! [`Normalizer`]. By default the stream rides a [`DecodeContext`] whose
//! per-block K/V rows are **paged out of a [`KvBlockPool`](crate::KvBlockPool)**
//! (a private pool under [`StreamingModel::new`]; pass a pool-backed or
//! windowed context to [`StreamingModel::from_context`]): the prompt is
//! prefilled on the first step and every later step feeds exactly one token,
//! so per-step work is O(seq) instead of the O(seq²) full recompute.
//!
//! This is the solo driver and the parity reference of serving. The stream
//! lifecycle under load — chunked catch-up, preemption (park) and resume —
//! lives in one place, the serving layer's `DecodeGroup`, which picks tokens
//! with the same [`greedy_argmax`].
//!
//! One parity oracle is kept deliberately: [`StreamingModel::new_full_recompute`]
//! re-runs the whole prefix every step (the *incrementality* oracle). The
//! cached stream generates bit-identical tokens (see `tests/kv_decode.rs`).

use crate::error::LlmError;
use crate::model::{DecodeContext, TransformerModel};
use crate::norm::Normalizer;
use crate::paging::EvictionPolicy;

/// One greedy decode stream over a shared model.
///
/// # Example
///
/// ```
/// use haan_llm::norm::ReferenceNormalizer;
/// use haan_llm::streaming::StreamingModel;
/// use haan_llm::{ModelConfig, TransformerModel};
///
/// let model = TransformerModel::new(&ModelConfig::tiny_test(), 42)?;
/// let mut stream = StreamingModel::new(&model, &[1, 5, 9])?;
/// let mut norm = ReferenceNormalizer::new();
/// let next = stream.decode_step(&mut norm)?;
/// assert_eq!(stream.generated(), &[next]);
/// assert_eq!(stream.tokens().len(), 4);
/// # Ok::<(), haan_llm::LlmError>(())
/// ```
#[derive(Debug)]
pub struct StreamingModel<'m> {
    model: &'m TransformerModel,
    /// KV-cached decode state; `None` selects the full-prefix-recompute oracle.
    context: Option<DecodeContext<'m>>,
    tokens: Vec<u32>,
    /// Leading tokens of `tokens` already fed to the context; the unfed suffix
    /// is `tokens[fed..]`. Tracked separately from `context.len()` because a
    /// sliding-window eviction shrinks the context without un-feeding anything.
    fed: usize,
    prompt_len: usize,
}

impl<'m> StreamingModel<'m> {
    /// Starts a KV-cached decode stream from a prompt, on the pool-backed paged
    /// storage of [`TransformerModel::start_decode`] (a private pool; use
    /// [`StreamingModel::from_context`] to ride a shared one): the prompt is
    /// prefilled into the stream's [`DecodeContext`] on the first
    /// [`StreamingModel::decode_step`] and each later step feeds one token.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidSequenceLength`] or [`LlmError::TokenOutOfRange`]
    /// when the prompt is empty, too long, or out of vocabulary.
    pub fn new(model: &'m TransformerModel, prompt: &[u32]) -> Result<Self, LlmError> {
        Self::from_context(model.start_decode(), prompt)
    }

    /// Starts a KV-cached decode stream on a caller-built [`DecodeContext`] —
    /// e.g. one borrowing pages from a shared [`KvBlockPool`](crate::KvBlockPool)
    /// via [`TransformerModel::start_decode_in`], or a context configured with a
    /// sliding-window [`EvictionPolicy`] so the stream can generate past the
    /// model's maximum sequence length.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidConfig`] when the context has already been fed,
    /// plus the prompt contract of [`StreamingModel::new`].
    pub fn from_context(context: DecodeContext<'m>, prompt: &[u32]) -> Result<Self, LlmError> {
        if !context.is_empty() {
            return Err(LlmError::InvalidConfig(
                "streaming decode requires an unused decode context".to_string(),
            ));
        }
        let model = context.model();
        model.validate_tokens(prompt)?;
        Ok(Self {
            model,
            context: Some(context),
            tokens: prompt.to_vec(),
            fed: 0,
            prompt_len: prompt.len(),
        })
    }

    /// Starts a decode stream that re-runs the full prefix every step — the
    /// stateless *incrementality* oracle the cached paths are tested against.
    /// Same greedy decoding, same contract, O(seq²) per step.
    ///
    /// # Errors
    ///
    /// Same contract as [`StreamingModel::new`].
    pub fn new_full_recompute(
        model: &'m TransformerModel,
        prompt: &[u32],
    ) -> Result<Self, LlmError> {
        model.validate_tokens(prompt)?;
        Ok(Self {
            model,
            context: None,
            tokens: prompt.to_vec(),
            fed: 0,
            prompt_len: prompt.len(),
        })
    }

    /// The model this stream decodes with.
    #[must_use]
    pub fn model(&self) -> &'m TransformerModel {
        self.model
    }

    /// The full token buffer: prompt followed by generated tokens.
    #[must_use]
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// The tokens generated so far (excluding the prompt).
    #[must_use]
    pub fn generated(&self) -> &[u32] {
        &self.tokens[self.prompt_len..]
    }

    /// Length of the original prompt.
    #[must_use]
    pub fn prompt_len(&self) -> usize {
        self.prompt_len
    }

    /// Remaining decode capacity before the model's maximum sequence length.
    /// A cached stream under a sliding-window [`EvictionPolicy`] keeps decoding
    /// past zero: the context evicts its oldest positions instead of failing.
    #[must_use]
    pub fn remaining_capacity(&self) -> usize {
        self.model
            .config()
            .max_seq_len
            .saturating_sub(self.tokens.len())
    }

    /// True when the stream survives running out of capacity by sliding-window
    /// eviction instead of erroring.
    #[must_use]
    pub fn is_windowed(&self) -> bool {
        self.context.as_ref().is_some_and(|context| {
            matches!(context.eviction(), EvictionPolicy::SlidingWindow { .. })
        })
    }

    /// Runs one greedy decode step: the unprocessed suffix of the token buffer
    /// (the whole prompt on the first call, one token afterwards) is fed through
    /// `normalizer`, and the arg-max of the final position's logits is appended to
    /// the stream. In full-recompute mode the entire buffer is re-run instead.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::InvalidSequenceLength`] when the stream is already at
    /// the model's maximum sequence length (unless windowed), or any forward-pass
    /// error.
    pub fn decode_step<N: Normalizer + ?Sized>(
        &mut self,
        normalizer: &mut N,
    ) -> Result<u32, LlmError> {
        if self.remaining_capacity() == 0 && !self.is_windowed() {
            return Err(LlmError::InvalidSequenceLength {
                length: self.tokens.len() + 1,
                max: self.model.config().max_seq_len,
            });
        }
        let last_logits: Vec<f32> = match &mut self.context {
            None => {
                let logits = self.model.logits(&self.tokens, normalizer)?;
                logits.row(self.tokens.len() - 1).to_vec()
            }
            // Feed whatever the context has not seen yet — the prompt on the
            // first step, exactly one token per step afterwards — projecting
            // only the final position onto the vocabulary.
            Some(context) => context.prefill_last(&self.tokens[self.fed..], normalizer)?,
        };
        self.fed = self.tokens.len();
        let next = greedy_argmax(&last_logits);
        self.tokens.push(next);
        Ok(next)
    }

    /// Runs up to `steps` greedy decode steps, returning the generated tokens (the
    /// suffix appended by this call).
    ///
    /// # Errors
    ///
    /// Propagates the first [`StreamingModel::decode_step`] error.
    pub fn decode<N: Normalizer + ?Sized>(
        &mut self,
        steps: usize,
        normalizer: &mut N,
    ) -> Result<Vec<u32>, LlmError> {
        let mut generated = Vec::with_capacity(steps);
        for _ in 0..steps {
            generated.push(self.decode_step(normalizer)?);
        }
        Ok(generated)
    }
}

/// Greedy decoding's token choice: the index of the largest logit.
///
/// # Panics
///
/// Panics on an empty row or a NaN logit.
#[must_use]
pub fn greedy_argmax(logits: &[f32]) -> u32 {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
        .map(|(i, _)| i as u32)
        .expect("non-empty vocabulary")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::norm::ReferenceNormalizer;

    fn tiny_model() -> TransformerModel {
        TransformerModel::new(&ModelConfig::tiny_test(), 42).expect("valid test model")
    }

    #[test]
    fn decode_step_matches_manual_argmax() {
        let model = tiny_model();
        let prompt = [1u32, 5, 9];
        let mut stream = StreamingModel::new(&model, &prompt).unwrap();
        assert_eq!(stream.prompt_len(), 3);
        assert_eq!(stream.model().seed(), model.seed());
        let mut norm = ReferenceNormalizer::new();
        let next = stream.decode_step(&mut norm).unwrap();

        let logits = model
            .logits(&prompt, &mut ReferenceNormalizer::new())
            .unwrap();
        let expected = logits
            .row(prompt.len() - 1)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i as u32)
            .unwrap();
        assert_eq!(next, expected);
        assert_eq!(stream.tokens(), &[1, 5, 9, next]);
        assert_eq!(stream.generated(), &[next]);
    }

    #[test]
    fn multi_step_decode_is_deterministic() {
        let model = tiny_model();
        let mut a = StreamingModel::new(&model, &[2u32, 4, 6]).unwrap();
        let mut b = StreamingModel::new(&model, &[2u32, 4, 6]).unwrap();
        let ga = a.decode(4, &mut ReferenceNormalizer::new()).unwrap();
        let gb = b.decode(4, &mut ReferenceNormalizer::new()).unwrap();
        assert_eq!(ga, gb);
        assert_eq!(ga.len(), 4);
        assert_eq!(a.generated(), ga.as_slice());
    }

    #[test]
    fn cached_and_full_recompute_streams_generate_identical_tokens() {
        let model = tiny_model();
        let prompt = [7u32, 3, 1, 12];
        let mut cached = StreamingModel::new(&model, &prompt).unwrap();
        let mut oracle = StreamingModel::new_full_recompute(&model, &prompt).unwrap();
        let from_cache = cached.decode(6, &mut ReferenceNormalizer::new()).unwrap();
        let from_oracle = oracle.decode(6, &mut ReferenceNormalizer::new()).unwrap();
        assert_eq!(from_cache, from_oracle);
    }

    #[test]
    fn decode_stops_at_max_sequence_length() {
        let model = tiny_model();
        let max = model.config().max_seq_len;
        let prompt: Vec<u32> = (0..max as u32 - 1).map(|i| i % 8).collect();
        for mut stream in [
            StreamingModel::new(&model, &prompt).unwrap(),
            StreamingModel::new_full_recompute(&model, &prompt).unwrap(),
        ] {
            assert_eq!(stream.remaining_capacity(), 1);
            let mut norm = ReferenceNormalizer::new();
            stream.decode_step(&mut norm).unwrap();
            assert_eq!(stream.remaining_capacity(), 0);
            assert!(stream.decode_step(&mut norm).is_err());
        }
    }

    #[test]
    fn invalid_prompts_are_rejected() {
        let model = tiny_model();
        assert!(StreamingModel::new(&model, &[]).is_err());
        assert!(StreamingModel::new(&model, &[9999]).is_err());
        assert!(StreamingModel::new_full_recompute(&model, &[]).is_err());
    }

    #[test]
    fn from_context_requires_a_fresh_context_and_supports_shared_pools() {
        use crate::paging::KvBlockPool;
        let model = tiny_model();
        let pool = KvBlockPool::shared(
            model.config().max_seq_len * model.config().num_blocks,
            8,
            model.config().embedding_dim,
        );
        let ctx = model.start_decode_in(&pool).unwrap();
        let mut pooled = StreamingModel::from_context(ctx, &[2, 4, 6]).unwrap();
        let mut private = StreamingModel::new(&model, &[2, 4, 6]).unwrap();
        let a = pooled.decode(4, &mut ReferenceNormalizer::new()).unwrap();
        let b = private.decode(4, &mut ReferenceNormalizer::new()).unwrap();
        assert_eq!(a, b, "pool sharing must not change the generated tokens");
        assert!(pool.pages_in_use() > 0);

        let mut used = model.start_decode();
        used.prefill(&[1], &mut ReferenceNormalizer::new()).unwrap();
        assert!(StreamingModel::from_context(used, &[1, 2]).is_err());
    }

    #[test]
    fn windowed_streams_decode_past_the_model_maximum() {
        use crate::paging::EvictionPolicy;
        let model = tiny_model();
        let max = model.config().max_seq_len;
        let keep = max / 2;
        let ctx = model
            .start_decode()
            .with_eviction(EvictionPolicy::SlidingWindow { keep_last: keep });
        let mut stream = StreamingModel::from_context(ctx, &[3, 1, 4]).unwrap();
        assert!(stream.is_windowed());
        let mut norm = ReferenceNormalizer::new();
        // Run well past max_seq_len; an unwindowed stream would error at max.
        let steps = max + 5;
        let generated = stream.decode(steps, &mut norm).unwrap();
        assert_eq!(generated.len(), steps);
        assert_eq!(stream.tokens().len(), 3 + steps);
        assert!(stream.tokens().len() > max);
        // Every token after the first eviction must match a manual greedy oracle
        // over the resident window (stateless full recompute of the window).
        let mut window: Vec<u32> = vec![3, 1, 4];
        for &token in &generated {
            let logits = model
                .logits(&window, &mut ReferenceNormalizer::new())
                .unwrap();
            assert_eq!(token, greedy_argmax(logits.row(window.len() - 1)));
            if window.len() + 1 > max {
                window = window[window.len() - keep..].to_vec();
            }
            window.push(token);
        }
        let mut unwindowed = StreamingModel::new(&model, &[3, 1, 4]).unwrap();
        assert!(!unwindowed.is_windowed());
        unwindowed.decode(max - 3, &mut norm).unwrap();
        assert!(unwindowed.decode_step(&mut norm).is_err());
    }
}
