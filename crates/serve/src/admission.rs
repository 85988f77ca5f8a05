//! Admission control: gating new decode streams against live K/V pool pressure.
//!
//! PR 5 made `KvBlockPool` a bounded shared arena; this module makes it a
//! *managed* one. Instead of letting every offered stream race the pool and
//! fail mid-stack with [`LlmError::KvPoolExhausted`](haan_llm::LlmError), the
//! engine consults an [`AdmissionController`] **before** a stream allocates
//! anything, using a watermark policy over the pool's live page counters:
//!
//! * **admit** while the stream's estimated footprint keeps projected occupancy
//!   at or below [`AdmissionPolicy::queue_above`] of the pool;
//! * **queue** above the watermark — the stream holds no pages and is prefilled
//!   by its [`DecodeGroup`](crate::DecodeGroup) as soon as pages free up;
//! * **shed** with a typed [`ServeError::Shed`](crate::ServeError) (carrying a
//!   retry-after hint) when the queue is full or the stream could never fit.
//!
//! Decisions are pure functions of the policy and the observed counters
//! ([`AdmissionController::decide`]), so every drill is reproducible; the
//! controller adds only monotone telemetry counters ([`AdmissionStats`]).

use haan_llm::KvBlockPool;
use haan_obs::ObsSink;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The watermark policy of the admission controller.
///
/// All fields have serviceable defaults, so partial construction works:
///
/// ```
/// use haan_serve::AdmissionPolicy;
///
/// let policy = AdmissionPolicy {
///     max_queued: 8,
///     ..Default::default()
/// };
/// assert_eq!(policy.queue_above, 0.75);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Occupancy watermark as a fraction of the pool's total pages: a stream is
    /// admitted only while `pages_in_use + projected + its estimate` stays at
    /// or below this fraction; above it, streams queue. The slack between the
    /// watermark and 1.0 is the growth headroom already-admitted streams decode
    /// into before preemption kicks in.
    pub queue_above: f64,
    /// Most streams allowed to sit queued at once; offers beyond this are shed.
    pub max_queued: usize,
    /// Retry-after hint carried by [`ServeError::Shed`](crate::ServeError),
    /// microseconds.
    pub retry_after_us: u64,
    /// Extra rows per block added to the prompt length when estimating a
    /// stream's footprint, reserving decode-growth headroom at admission time.
    pub reserve_rows: usize,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            queue_above: 0.75,
            max_queued: usize::MAX,
            retry_after_us: 10_000,
            reserve_rows: 0,
        }
    }
}

/// What the controller decided for one offered stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// The stream fits under the watermark: start it now.
    Admit,
    /// The pool is above the watermark: hold the stream (no pages allocated)
    /// until admitted streams free capacity.
    Queue,
    /// The queue is full (or the stream can never fit): refuse, telling the
    /// client when to retry.
    Shed {
        /// Suggested client backoff before re-offering, microseconds.
        retry_after_us: u64,
    },
}

/// Monotone admission telemetry, snapshotted by
/// [`AdmissionController::stats`] /
/// [`ServeEngine::admission_stats`](crate::ServeEngine::admission_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Streams offered to the controller.
    pub offered: u64,
    /// Streams that actually started decoding (admitted immediately, or queued
    /// and later activated).
    pub admitted: u64,
    /// Offers that were queued at decision time.
    pub queued: u64,
    /// Offers refused with [`ServeError::Shed`](crate::ServeError).
    pub shed: u64,
}

impl AdmissionStats {
    /// Fraction of offered streams that were shed (0 when nothing was offered).
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// The engine-wide admission controller: one watermark policy plus monotone
/// counters. Decisions are pure ([`AdmissionController::decide`]); the stateful
/// entry points only add counting.
#[derive(Debug, Default)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    offered: AtomicU64,
    admitted: AtomicU64,
    queued: AtomicU64,
    shed: AtomicU64,
    /// Observability sink mirroring the counters as `admission.*` metrics.
    obs: Option<Arc<dyn ObsSink>>,
}

impl AdmissionController {
    /// Creates a controller under `policy` with zeroed counters.
    #[must_use]
    pub fn new(policy: AdmissionPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// Installs (or clears) an observability sink: every counted decision is
    /// mirrored into it as `admission.offered` / `admission.queued` /
    /// `admission.shed` / `admission.admitted`.
    #[must_use]
    pub fn with_obs_sink(mut self, obs: Option<Arc<dyn ObsSink>>) -> Self {
        self.obs = obs;
        self
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Estimated pool footprint of a stream, in pages: every transformer block
    /// keeps its own page table, so a stream of `rows` cached positions holds
    /// `blocks × ceil((rows + reserve_rows) / page_rows)` pages.
    #[must_use]
    pub fn page_estimate(&self, pool: &KvBlockPool, blocks: usize, rows: usize) -> usize {
        blocks.max(1) * (rows + self.policy.reserve_rows).div_ceil(pool.page_rows())
    }

    /// [`AdmissionController::page_estimate`] for a stream whose first
    /// `shared_rows` positions map already-materialized pages of an interned
    /// [`KvPrefix`](haan_llm::KvPrefix): the shared whole pages are refcounted,
    /// not copied, so only the pages past the prefix count against the
    /// watermark. `shared_rows` is always a whole-page multiple (the exporter
    /// enforces it), so the subtraction is exact, not heuristic.
    #[must_use]
    pub fn page_estimate_shared(
        &self,
        pool: &KvBlockPool,
        blocks: usize,
        rows: usize,
        shared_rows: usize,
    ) -> usize {
        let full = (rows + self.policy.reserve_rows).div_ceil(pool.page_rows());
        let shared = (shared_rows / pool.page_rows()).min(full);
        blocks.max(1) * (full - shared)
    }

    /// The pure watermark decision for one stream: `est_pages` is the stream's
    /// own estimated footprint, `projected_pages` the combined estimate of
    /// streams already accepted in this offer batch but not yet resident (their
    /// pages are spoken for), and `queued_now` how many streams are already
    /// waiting.
    #[must_use]
    pub fn decide(
        &self,
        pool: &KvBlockPool,
        est_pages: usize,
        projected_pages: usize,
        queued_now: usize,
    ) -> AdmissionDecision {
        let shed = AdmissionDecision::Shed {
            retry_after_us: self.policy.retry_after_us,
        };
        let total = pool.pages_total();
        if est_pages > total {
            // Queuing cannot help a stream larger than the whole pool.
            return shed;
        }
        let in_use = total - pool.pages_free();
        let projected_occupancy = (in_use + projected_pages + est_pages) as f64;
        if projected_occupancy <= self.policy.queue_above * total as f64 {
            AdmissionDecision::Admit
        } else if queued_now < self.policy.max_queued {
            AdmissionDecision::Queue
        } else {
            shed
        }
    }

    /// [`AdmissionController::decide`] plus counting: `offered` always, and
    /// `queued`/`shed` as decided. `admitted` is **not** counted here — it
    /// counts activations, which the caller reports via
    /// [`AdmissionController::note_admitted`] when the stream actually starts
    /// decoding (immediately for admitted streams, later for queued ones).
    #[must_use]
    pub fn offer(
        &self,
        pool: &KvBlockPool,
        est_pages: usize,
        projected_pages: usize,
        queued_now: usize,
    ) -> AdmissionDecision {
        self.offered.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.counter_add("admission.offered", 1);
        }
        let decision = self.decide(pool, est_pages, projected_pages, queued_now);
        match decision {
            AdmissionDecision::Admit => {}
            AdmissionDecision::Queue => {
                self.queued.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &self.obs {
                    obs.counter_add("admission.queued", 1);
                }
            }
            AdmissionDecision::Shed { .. } => {
                self.shed.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &self.obs {
                    obs.counter_add("admission.shed", 1);
                }
            }
        }
        decision
    }

    /// Records one queued-or-admitted stream actually starting to decode.
    pub fn note_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &self.obs {
            obs.counter_add("admission.admitted", 1);
        }
    }

    /// Snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            offered: self.offered.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> std::sync::Arc<KvBlockPool> {
        // 10 pages of 4 rows.
        KvBlockPool::shared(40, 4, 8)
    }

    #[test]
    fn watermark_splits_admit_queue_shed() {
        let pool = pool();
        let controller = AdmissionController::new(AdmissionPolicy {
            queue_above: 0.5, // watermark at 5 of 10 pages
            max_queued: 1,
            retry_after_us: 123,
            reserve_rows: 0,
        });
        // 4 rows per stream, 1 block → 1 page each.
        assert_eq!(controller.page_estimate(&pool, 1, 4), 1);
        // First five offers fit under the watermark.
        let mut projected = 0;
        let mut queued = 0;
        for _ in 0..5 {
            assert_eq!(
                controller.offer(&pool, 1, projected, queued),
                AdmissionDecision::Admit
            );
            projected += 1;
        }
        // The sixth queues, the seventh sheds with the policy hint.
        assert_eq!(
            controller.offer(&pool, 1, projected, queued),
            AdmissionDecision::Queue
        );
        queued += 1;
        assert_eq!(
            controller.offer(&pool, 1, projected, queued),
            AdmissionDecision::Shed {
                retry_after_us: 123
            }
        );
        let stats = controller.stats();
        assert_eq!(stats.offered, 7);
        assert_eq!(stats.queued, 1);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.admitted, 0, "activations are reported separately");
        controller.note_admitted();
        assert_eq!(controller.stats().admitted, 1);
        assert!((stats.shed_rate() - 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(AdmissionStats::default().shed_rate(), 0.0);
    }

    #[test]
    fn streams_larger_than_the_pool_are_always_shed() {
        let pool = pool();
        let controller = AdmissionController::new(AdmissionPolicy::default());
        // 11 pages > the pool's 10: queuing can never help.
        assert!(matches!(
            controller.decide(&pool, 11, 0, 0),
            AdmissionDecision::Shed { .. }
        ));
        // 10 pages exceeds the 7.5-page watermark but fits the pool: queue.
        assert_eq!(controller.decide(&pool, 10, 0, 0), AdmissionDecision::Queue);
    }

    #[test]
    fn shared_prefix_rows_are_free_in_the_estimate() {
        let pool = pool(); // 10 pages of 4 rows
        let controller = AdmissionController::new(AdmissionPolicy::default());
        // 12 total rows, 8 shared: only ceil(12/4) - 8/4 = 1 page per block.
        assert_eq!(controller.page_estimate_shared(&pool, 4, 12, 8), 4);
        // No sharing degenerates to the plain estimate.
        assert_eq!(
            controller.page_estimate_shared(&pool, 4, 12, 0),
            controller.page_estimate(&pool, 4, 12)
        );
        // Sharing can never drive the estimate below zero.
        assert_eq!(controller.page_estimate_shared(&pool, 4, 4, 40), 0);
    }

    #[test]
    fn reserve_rows_inflate_the_estimate() {
        let pool = pool();
        let with_reserve = AdmissionController::new(AdmissionPolicy {
            reserve_rows: 8,
            ..Default::default()
        });
        // 4 blocks × ceil((2 + 8) / 4) = 4 × 3.
        assert_eq!(with_reserve.page_estimate(&pool, 4, 2), 12);
        let without = AdmissionController::new(AdmissionPolicy::default());
        assert_eq!(without.page_estimate(&pool, 4, 2), 4);
        assert_eq!(without.page_estimate(&pool, 0, 2), 1, "blocks floor at 1");
    }

    #[test]
    fn live_pool_occupancy_counts_against_the_watermark() {
        use haan_llm::norm::ReferenceNormalizer;
        use haan_llm::{ModelConfig, TransformerModel};
        // 10 pages of 4 rows, sized for the tiny test model's width.
        let pool = KvBlockPool::shared(40, 4, 32);
        let controller = AdmissionController::new(AdmissionPolicy {
            queue_above: 0.5,
            ..Default::default()
        });
        assert_eq!(controller.decide(&pool, 5, 0, 0), AdmissionDecision::Admit);
        // Occupy 4 pages for real (one page in each of the 4 blocks); the same
        // offer now projects past the 5-page watermark.
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 7).unwrap();
        let mut context = model.start_decode_in(&pool).unwrap();
        context
            .prefill(&[1, 2, 3, 4], &mut ReferenceNormalizer::new())
            .unwrap();
        assert_eq!(pool.pages_in_use(), 4);
        assert_eq!(controller.decide(&pool, 5, 0, 0), AdmissionDecision::Queue);
        assert_eq!(controller.decide(&pool, 1, 0, 0), AdmissionDecision::Admit);
    }
}
