//! A timing [`Normalizer`] wrapper for the traced in-process replica.
//!
//! It forwards **every** trait method to the wrapped normalizer, the fused
//! residual and norm+matmul entry points and `begin_sequence` included, so a
//! pass through the wrapper takes exactly the path the bare normalizer takes.
//! A wrapper that forwarded only `normalize_matrix_into` would silently time
//! the composed fallback instead.

use crate::measure::Samples;
use haan_llm::norm::{NormSite, Normalizer};
use haan_llm::{LlmError, Matrix};
use std::time::Instant;

/// Calls of one trait method and the time spent in them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Calls {
    pub count: u64,
    pub ns: u64,
}

impl Calls {
    fn add(&mut self, started: Instant) {
        self.count += 1;
        self.ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
}

/// Per-method counts and time of a [`TimedNormalizer`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CallStats {
    /// `normalize` (one row at a time).
    pub row: Calls,
    /// `normalize_matrix_into` and `normalize_matrix`.
    pub plain: Calls,
    /// `normalize_residual_into` (fused residual + norm).
    pub residual: Calls,
    /// `normalize_matmul_into` (norm fused into the following matmuls).
    pub matmul: Calls,
    pub begin_sequence: u64,
}

impl CallStats {
    pub fn normalize_calls(&self) -> u64 {
        self.row.count + self.plain.count + self.residual.count + self.matmul.count
    }

    /// Share of normalization calls that arrived through a fused entry point.
    pub fn fused_call_frac(&self) -> f64 {
        crate::measure::ratio(
            (self.residual.count + self.matmul.count) as f64,
            self.normalize_calls() as f64,
        )
    }
}

/// Wraps a normalizer, timing each call from outside.
#[derive(Debug)]
pub struct TimedNormalizer<N> {
    inner: N,
    pub stats: CallStats,
    /// Microseconds of each pure normalization call (`normalize_matrix_into`,
    /// `normalize_matrix`, `normalize_residual_into`); the norm+matmul calls
    /// are left out because their time includes the matmuls.
    pub site_us: Samples,
}

impl<N: Normalizer> TimedNormalizer<N> {
    pub fn new(inner: N) -> Self {
        Self {
            inner,
            stats: CallStats::default(),
            site_us: Samples::default(),
        }
    }

    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Clears the counters (the wrapped normalizer keeps its own state).
    pub fn reset(&mut self) {
        self.stats = CallStats::default();
        self.site_us = Samples::default();
    }

    fn note_site(&mut self, started: Instant) {
        self.site_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
}

impl<N: Normalizer> Normalizer for TimedNormalizer<N> {
    fn normalize(&mut self, site: NormSite, z: &[f32], gamma: &[f32], beta: &[f32]) -> Vec<f32> {
        let started = Instant::now();
        let out = self.inner.normalize(site, z, gamma, beta);
        self.stats.row.add(started);
        out
    }

    fn normalize_matrix_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        out: &mut Matrix,
    ) {
        let started = Instant::now();
        self.inner
            .normalize_matrix_into(site, input, gamma, beta, out);
        self.stats.plain.add(started);
        self.note_site(started);
    }

    fn normalize_matrix(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
    ) -> Matrix {
        let started = Instant::now();
        let out = self.inner.normalize_matrix(site, input, gamma, beta);
        self.stats.plain.add(started);
        self.note_site(started);
        out
    }

    fn normalize_residual_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        residual: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        sum_out: &mut Matrix,
        out: &mut Matrix,
    ) {
        let started = Instant::now();
        self.inner
            .normalize_residual_into(site, input, residual, gamma, beta, sum_out, out);
        self.stats.residual.add(started);
        self.note_site(started);
    }

    fn normalize_matmul_into(
        &mut self,
        site: NormSite,
        input: &Matrix,
        gamma: &[f32],
        beta: &[f32],
        weights: &[&Matrix],
        outs: &mut [Matrix],
    ) -> Result<(), LlmError> {
        let started = Instant::now();
        let result = self
            .inner
            .normalize_matmul_into(site, input, gamma, beta, weights, outs);
        self.stats.matmul.add(started);
        result
    }

    fn begin_sequence(&mut self) {
        self.stats.begin_sequence += 1;
        self.inner.begin_sequence();
    }

    fn description(&self) -> String {
        format!("timed {}", self.inner.description())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haan::{HaanConfig, HaanNormalizer};
    use haan_llm::{ModelConfig, TransformerModel};

    /// One lockstep tick of three streams, wrapped and unwrapped.
    fn tick<N: Normalizer>(model: &TransformerModel, normalizer: &mut N) -> Matrix {
        let prompts: [&[u32]; 3] = [&[2, 9, 4], &[1, 7], &[5, 5, 5, 5]];
        let mut contexts: Vec<_> = prompts.iter().map(|_| model.start_decode()).collect();
        for (context, prompt) in contexts.iter_mut().zip(prompts) {
            context.prefill(prompt, normalizer).unwrap();
        }
        let mut refs: Vec<_> = contexts.iter_mut().collect();
        let feeds: [&[u32]; 3] = [&[3], &[8], &[1]];
        model.advance_many(&mut refs, &feeds, normalizer).unwrap()
    }

    #[test]
    fn a_wrapped_tick_is_bit_identical_and_takes_the_fused_path() {
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 11).unwrap();
        let config = HaanConfig::default();
        let bare = tick(&model, &mut HaanNormalizer::new(config.clone()));
        let mut timed = TimedNormalizer::new(HaanNormalizer::new(config));
        let wrapped = tick(&model, &mut timed);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&bare), bits(&wrapped));

        // Three prefills and one tick, each one pass: per block one norm+matmul
        // site and one residual site, plus the final norm.
        let blocks = model.config().num_blocks as u64;
        let passes = 4;
        let stats = timed.stats;
        assert_eq!(stats.matmul.count, passes * blocks);
        assert_eq!(stats.residual.count, passes * blocks);
        assert_eq!(stats.plain.count, passes);
        assert_eq!(stats.row.count, 0);
        assert_eq!(stats.begin_sequence, passes);
        assert_eq!(
            timed.site_us.len() as u64,
            stats.plain.count + stats.residual.count
        );
        assert!(stats.matmul.ns > 0 && stats.residual.ns > 0);
        let fused = (2 * blocks) as f64 / (2 * blocks + 1) as f64;
        assert_eq!(stats.fused_call_frac(), fused);
        assert!(timed.description().starts_with("timed HAAN normalizer"));
    }
}
