//! Workspace root of the HAAN reproduction.
//!
//! This crate only re-exports the member crates so that the repository-level examples
//! (`examples/`) and integration tests (`tests/`) can exercise the whole stack through
//! one dependency. Library users should depend on the individual crates directly:
//!
//! * [`haan`] — the HAAN algorithm (ISD skipping, subsampling, quantization).
//! * [`haan_llm`] — the transformer simulation substrate.
//! * [`haan_numerics`] — fixed-point / FP16 / fast-inverse-sqrt numerics.
//! * [`haan_accel`] — the cycle-level accelerator simulator.
//! * [`haan_baselines`] — DFX / SOLE / MHAA / GPU baselines and the end-to-end model.
//! * [`haan_serve`] — the serving layer (continuously batched decode groups with
//!   admission control, each normalizing in-process).
//! * [`haan_router`] — the routing tier: a multi-group session router with
//!   prefix-aware placement, automatic prefix detection, and rebalancing over
//!   the park/resume seam.
//! * [`haan_obs`] — the unified observability layer (metrics registry, flight
//!   recorder, span-profiling sink) the serving stack reports through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use haan;
pub use haan_accel;
pub use haan_baselines;
pub use haan_llm;
pub use haan_numerics;
pub use haan_obs;
pub use haan_router;
pub use haan_serve;

/// Diagnostics shared by the repository-level examples and the tests that pin
/// their behavior, so the pinned metric is the *same computation* the example
/// prints (copy-pasting it would let the two drift apart silently).
pub mod diagnostics {
    /// Accuracy delta between exact and HAAN logits at one position.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct NextTokenDelta {
        /// Arg-max of the exact logits.
        pub exact_choice: usize,
        /// Arg-max of the approximated (HAAN) logits.
        pub approx_choice: usize,
        /// Rank of the exact model's choice in the approximated ordering
        /// (1 = full agreement).
        pub rank_of_exact_choice: usize,
        /// Mean `|Δlogit|` across the vocabulary.
        pub mean_abs_delta: f64,
        /// Standard deviation of the exact logits (the spread the delta is judged
        /// against: near-tied top logits make arg-max flips expected noise).
        pub exact_spread: f64,
    }

    /// Computes the next-token accuracy delta of `approx` logits against `exact`
    /// logits (same position, same vocabulary).
    ///
    /// # Panics
    ///
    /// Panics when the rows are empty, of different lengths, or non-finite.
    #[must_use]
    pub fn next_token_delta(exact: &[f32], approx: &[f32]) -> NextTokenDelta {
        assert_eq!(exact.len(), approx.len(), "logit rows must align");
        let argmax = |row: &[f32]| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(i, _)| i)
                .expect("non-empty row")
        };
        let exact_choice = argmax(exact);
        let approx_choice = argmax(approx);
        let exact_choice_logit = approx[exact_choice];
        let rank_of_exact_choice = 1 + approx
            .iter()
            .filter(|&&logit| logit > exact_choice_logit)
            .count();
        let mean_abs_delta = exact
            .iter()
            .zip(approx)
            .map(|(a, b)| f64::from((a - b).abs()))
            .sum::<f64>()
            / exact.len() as f64;
        let mean_exact = exact.iter().map(|&v| f64::from(v)).sum::<f64>() / exact.len() as f64;
        let exact_spread = (exact
            .iter()
            .map(|&v| (f64::from(v) - mean_exact).powi(2))
            .sum::<f64>()
            / exact.len() as f64)
            .sqrt();
        NextTokenDelta {
            exact_choice,
            approx_choice,
            rank_of_exact_choice,
            mean_abs_delta,
            exact_spread,
        }
    }
}

/// The arXiv identifier of the reproduced paper.
pub const PAPER_ARXIV_ID: &str = "2502.11832";

/// The paper title.
pub const PAPER_TITLE: &str =
    "HAAN: A Holistic Approach for Accelerating Normalization Operations in Large Language Models";

#[cfg(test)]
mod tests {
    use super::diagnostics::next_token_delta;

    #[test]
    fn metadata_is_present() {
        assert!(super::PAPER_TITLE.contains("HAAN"));
        assert_eq!(super::PAPER_ARXIV_ID, "2502.11832");
    }

    #[test]
    fn next_token_delta_ranks_and_measures() {
        // Exact picks index 2; approx flips indices 2 and 3, leaving the exact
        // choice ranked second with a uniform delta of 0 except at those slots.
        let exact = [0.0f32, 1.0, 4.0, 3.0];
        let approx = [0.0f32, 1.0, 3.0, 4.0];
        let delta = next_token_delta(&exact, &approx);
        assert_eq!(delta.exact_choice, 2);
        assert_eq!(delta.approx_choice, 3);
        assert_eq!(delta.rank_of_exact_choice, 2);
        assert!((delta.mean_abs_delta - 0.5).abs() < 1e-9);
        assert!(delta.exact_spread > 1.0);
        // Identical rows agree at rank 1 with zero delta.
        let same = next_token_delta(&exact, &exact);
        assert_eq!(same.rank_of_exact_choice, 1);
        assert_eq!(same.mean_abs_delta, 0.0);
    }
}
