//! Batched multi-stream decode: many KV-cached streams advanced in lockstep
//! through one in-process normalizer, with admission control and
//! preempt/resume.
//!
//! Each [`DecodeGroup::step_all`] tick gathers every ready stream and advances
//! them through [`TransformerModel::advance_many`] — one incremental pass over
//! the stacked rows, so the group's own [`HaanNormalizer`] executes **one
//! batched call per normalization site carrying every stream's rows**, on the
//! thread that ticks the group. Attention stays per-stream (each row attends
//! against its own paged K/V cache); every row-local stage (both norm sites per
//! block, the MLPs, the final norm, the logit projection) runs batched. A
//! single stream is a group of one.
//!
//! # Continuous batching
//!
//! The group is continuously fed, not a fixed batch (see `docs/SERVING.md`,
//! "Continuous batching"):
//!
//! * **Per-tick join/leave** — [`DecodeGroup::add_stream`] offers new prompts
//!   mid-flight; finished, cancelled, and shed slots free capacity that queued
//!   streams backfill on the next tick. [`GroupStats`] counts the churn
//!   (`joins`/`leaves`) and the per-tick row occupancy (`occupied_rows`).
//! * **One activation path** — a joining (or resuming) stream's catch-up feed
//!   rides the *same batched pass* as the decode rows: the whole feed on its
//!   first tick by default, or at most
//!   [`ServeConfig::prefill_chunk_rows`](crate::ServeConfig::prefill_chunk_rows)
//!   rows per tick, so a long prompt never stalls other streams behind a
//!   monolithic prefill.
//! * **Prefix sharing** — [`DecodeGroup::add_stream_with_prefix`] attaches a
//!   stream to an interned [`KvPrefix`]: the common prompt's whole K/V pages
//!   are refcounted and mapped by every sharer instead of recomputed and
//!   duplicated per stream.
//!
//! # Slot lifecycle
//!
//! A slot is *live* while its stream is queued or active: only then does it
//! hold a decode context (paged K/V, resident-token history, attention
//! scratch) and a catch-up backlog. The moment the stream finishes, is
//! cancelled, shed or migrated, the slot drops that state and keeps only its
//! record: status, tokens, prompt length and correlation ID. Ticks, admission
//! counts and preemption walk the live slots only, so their cost follows the
//! streams in flight, not the sessions the group has served.
//!
//! A terminal slot stays readable until the caller hands it back with
//! [`DecodeGroup::retire`], which returns its tokens and marks it
//! [`StreamStatus::Retired`]. The next [`DecodeGroup::add_stream`],
//! [`DecodeGroup::add_stream_with_prefix`] or [`DecodeGroup::adopt_stream`]
//! reuses the lowest retired slot. Reuse is explicit: a caller that never
//! retires keeps every transcript and sees slot indices grow as before.
//!
//! # Overload behavior
//!
//! Streams share a bounded [`KvBlockPool`], so a group can be *offered* more
//! work than the pool holds. Three mechanisms make that safe (see
//! `docs/SERVING.md`, "Overload behavior"):
//!
//! * **Admission** — every prompt is offered to the engine's
//!   [`AdmissionController`] at construction. Streams past the watermark are
//!   *queued* (they hold zero pages until pages free up); streams past the
//!   queue bound are *shed* ([`StreamStatus::Shed`] — their slots never
//!   decode, and the count is visible in [`GroupStats`]).
//! * **Preemption** — when a lockstep tick hits pool exhaustion, the group
//!   parks a victim (fewest tokens decoded, ties to the least recently
//!   advanced): its pages are freed but its token history is kept, and the
//!   tick retries with the survivors.
//! * **Resume** — each tick activates queued streams (parked victims and
//!   never-started admissions alike) whose pages fit the tick's page budget;
//!   their catch-up feed (`resident ++ unfed` tokens) drains through the
//!   lockstep pass. An activation that the pass cannot seat goes back to the
//!   queue before any resident stream is preempted.
//!
//! Parity: generated tokens are bit-identical to each stream decoding alone on
//! a private normalizer — **including streams that were preempted and
//! resumed**, because a resume replays exactly the K/V rows the stream held at
//! park time (`tests/serving_chaos.rs` drills this under injected faults).
//! Row kernels are row-local, and HAAN's skip-anchor state is per-row within a
//! pass, so row `s` of a lockstep tick records and consumes exactly the
//! anchors stream `s` would see solo (`tests/kv_decode.rs`).

use crate::admission::{AdmissionController, AdmissionDecision};
use crate::engine::Shared;
use crate::error::ServeError;
use haan::HaanNormalizer;
use haan_llm::streaming::greedy_argmax;
use haan_llm::{DecodeContext, EvictionPolicy, KvBlockPool, KvPrefix, LlmError, TransformerModel};
use haan_obs::EventKind;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Lifecycle state of one [`DecodeGroup`] member stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamStatus {
    /// Waiting for pool pages: admitted-but-not-started, or parked by a
    /// preemption. Holds zero pages; resumes automatically.
    Queued,
    /// Resident: holds pages and advances in lockstep ticks.
    Active,
    /// Reached the model's maximum sequence length; pages released.
    Finished,
    /// Refused by admission control; this slot never decodes.
    Shed,
    /// Cancelled by [`DecodeGroup::cancel`]; pages released, history kept.
    Cancelled,
    /// Extracted by [`DecodeGroup::extract_stream`] and adopted by another
    /// group; this slot is a tombstone and never decodes again. The stream's
    /// live state (tokens, status, correlation ID) continues at its new
    /// group's slot.
    Migrated,
    /// Handed back through [`DecodeGroup::retire`]: the slot holds no tokens
    /// and the next stream added to the group may reuse it.
    Retired,
}

impl StreamStatus {
    /// Queued and active streams are live: they hold a decode context.
    fn is_live(self) -> bool {
        matches!(self, Self::Queued | Self::Active)
    }
}

/// Monotone per-group robustness counters, snapshotted by
/// [`DecodeGroup::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Prompts offered to admission control at construction.
    pub offered: u64,
    /// Streams that started decoding (immediately or after queueing).
    pub admitted: u64,
    /// Offers that had to wait at construction time.
    pub queued: u64,
    /// Offers refused; their slots never decode.
    pub shed: u64,
    /// Streams parked under pool pressure (mid-tick or via
    /// [`DecodeGroup::preempt`]).
    pub preemptions: u64,
    /// Parked streams successfully re-prefilled.
    pub resumes: u64,
    /// Rows re-prefilled by those resumes — the recompute cost of preemption.
    pub resume_reprefill_rows: u64,
    /// Streams that reached the model's maximum sequence length.
    pub completed: u64,
    /// [`DecodeGroup::step_all`] ticks executed (failed ticks included).
    pub ticks: u64,
    /// Transitions *into* the active set: activations of queued streams
    /// (first starts and preemption resumes alike), whether at construction
    /// or joined mid-flight via [`DecodeGroup::add_stream`].
    pub joins: u64,
    /// Transitions *out of* the active set: parks (pressure or
    /// [`DecodeGroup::preempt`]), completions, and cancellations of active
    /// streams.
    pub leaves: u64,
    /// Total K/V rows fed through the batched lockstep passes: decode rows
    /// plus every catch-up (prompt or resume) row, since all of them ride the
    /// same batched site calls. Divided by [`GroupStats::ticks`] it is the
    /// mean batching width of a tick.
    pub occupied_rows: u64,
}

impl GroupStats {
    /// Mean rows per tick in the batched lockstep pass (0 before any tick).
    #[must_use]
    pub fn mean_tick_occupancy_rows(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.occupied_rows as f64 / self.ticks as f64
        }
    }
}

/// The portable state of a stream in flight between groups: everything
/// [`DecodeGroup::extract_stream`] captured, everything
/// [`DecodeGroup::adopt_stream`] needs to continue it bit-identically. Only
/// obtainable from `extract_stream` — the fields never leave this crate, so a
/// carrier is always internally consistent.
#[derive(Debug)]
pub struct MigratedStream {
    tokens: Vec<u32>,
    fed: usize,
    prompt_len: usize,
    parked_resident: Option<Vec<u32>>,
    catchup: Vec<u32>,
    eviction: EvictionPolicy,
    activated: bool,
    corr: u64,
}

impl MigratedStream {
    /// The stream's full token buffer (prompt followed by generated tokens).
    #[must_use]
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// The engine-wide correlation ID the stream keeps across the move.
    #[must_use]
    pub fn correlation_id(&self) -> u64 {
        self.corr
    }
}

/// One slot of a [`DecodeGroup`]: the record every slot keeps, plus the live
/// state only a queued or active stream holds.
#[derive(Debug)]
struct GroupStream<'m> {
    status: StreamStatus,
    /// Prompt followed by generated tokens; the unfed suffix is
    /// `tokens[live.fed..]`.
    tokens: Vec<u32>,
    prompt_len: usize,
    /// Engine-wide correlation ID: every flight-recorder event of this
    /// stream's lifecycle carries it (see [`DecodeGroup::correlation_id`]).
    corr: u64,
    /// `Some` exactly while the status is live. Every terminal transition
    /// drops it in [`DecodeGroup::set_status`], and with it the context's
    /// pages, page lists and attention scratch.
    live: Option<LiveState<'m>>,
}

/// What a queued or active stream needs to decode: its decode context (paged
/// K/V), its feed position and backlog, and its scheduling stamps.
#[derive(Debug)]
struct LiveState<'m> {
    context: DecodeContext<'m>,
    /// Tokens already fed: the unfed suffix is `tokens[fed..]` (the whole
    /// prompt before the stream first activates, exactly one token
    /// afterwards).
    fed: usize,
    /// The K/V-resident tokens captured when the stream was parked; a resume
    /// re-prefills exactly these plus the unfed suffix. `None` for streams
    /// that have never been parked (their catch-up feed is just `tokens[fed..]`).
    parked_resident: Option<Vec<u32>>,
    /// Catch-up backlog: the tokens an activation moved out of `tokens[fed..]`
    /// (after any trimmed resident window) that the lockstep passes drain,
    /// `prefill_chunk_rows` per tick or all at once. The stream emits a token
    /// only on the pass that drains the backlog — its logits row is the last
    /// prompt position, exactly as one-shot prefill.
    catchup: Vec<u32>,
    /// Tick at which the stream last advanced — the preemption tie-breaker
    /// (least recently advanced loses).
    last_advanced_tick: u64,
    /// Whether this stream's activation has been reported to admission.
    activated: bool,
}

impl<'m> LiveState<'m> {
    fn new(context: DecodeContext<'m>, fed: usize) -> Self {
        Self {
            context,
            fed,
            parked_resident: None,
            catchup: Vec::new(),
            last_advanced_tick: 0,
            activated: false,
        }
    }

    fn is_windowed(&self) -> bool {
        matches!(
            self.context.eviction(),
            EvictionPolicy::SlidingWindow { .. }
        )
    }
}

impl<'m> GroupStream<'m> {
    fn live(&self) -> &LiveState<'m> {
        self.live
            .as_ref()
            .expect("queued and active streams hold live state")
    }

    fn live_mut(&mut self) -> &mut LiveState<'m> {
        self.live
            .as_mut()
            .expect("queued and active streams hold live state")
    }

    /// True when the stream contributes a row to this tick's lockstep pass:
    /// active with room to grow, or active under a sliding window (which
    /// evicts instead of stopping).
    fn is_lockstep_ready(&self) -> bool {
        matches!(self.status, StreamStatus::Active) && {
            let live = self.live();
            live.context.remaining_capacity() > 0 || live.is_windowed()
        }
    }

    /// Builds the catch-up feed of a queued stream: the K/V rows it held when
    /// parked (trimmed to the eviction window when the resume would overflow
    /// `max_seq_len`, mirroring the eviction a never-parked stream would have
    /// performed) followed by its unfed tokens.
    fn resume_feed(&self, max_seq_len: usize) -> Vec<u32> {
        let live = self.live();
        let tail = live.catchup.len() + (self.tokens.len() - live.fed);
        let mut feed = live.parked_resident.clone().unwrap_or_default();
        if let EvictionPolicy::SlidingWindow { keep_last } = live.context.eviction() {
            if feed.len() + tail > max_seq_len {
                let keep = keep_last.min(feed.len());
                feed.drain(..feed.len() - keep);
            }
        }
        feed.extend_from_slice(&live.catchup);
        feed.extend_from_slice(&self.tokens[live.fed..]);
        feed
    }
}

/// A queued stream moved into the active set this tick, with the state its
/// activation replaced: a failed first pass restores it exactly, so the
/// activation is not committed (counted, reported) until a pass carries it.
#[derive(Debug)]
struct Activation {
    index: usize,
    parked_resident: Option<Vec<u32>>,
    catchup: Vec<u32>,
    fed: usize,
}

/// A set of KV-cached greedy decode streams advanced in lockstep through one
/// normalizer the group owns.
///
/// Created by [`ServeEngine::decode_group`](crate::ServeEngine::decode_group).
/// Each [`DecodeGroup::step_all`] tick finishes streams at capacity, activates
/// queued streams whose pages now fit, then feeds every active stream — one
/// decode token, or rows of its catch-up backlog — in a single batched pass.
/// Streams that reach the model's maximum sequence length stop contributing
/// rows — their slots report `None` — and streams queued, shed, or cancelled
/// report `None` until (unless) they activate. See the [module docs](self)
/// for the slot and overload lifecycles.
#[derive(Debug)]
pub struct DecodeGroup<'m> {
    model: &'m TransformerModel,
    /// The engine's clock, sink and correlation-ID allocator.
    shared: Arc<Shared>,
    /// The group's private normalizer, built from the engine's configuration:
    /// every norm site of a tick runs here, in-process.
    normalizer: HaanNormalizer,
    streams: Vec<GroupStream<'m>>,
    /// Live (queued or active) slots, oldest first: the only slots a tick,
    /// an admission count or a preemption looks at.
    live: Vec<usize>,
    /// Number of queued slots, kept in step by [`DecodeGroup::set_status`].
    queued: usize,
    /// Retired slots, handed out again lowest first.
    free: BTreeSet<usize>,
    pool: Arc<KvBlockPool>,
    admission: Arc<AdmissionController>,
    stats: GroupStats,
    /// Upper bound on catch-up rows fed per stream per tick (0 = unbounded:
    /// the whole backlog drains in the activation tick's pass).
    prefill_chunk_rows: usize,
}

impl<'m> DecodeGroup<'m> {
    /// Builds a group of `prompts.len()` streams whose K/V pages come from
    /// `pool`, whose normalization runs through `normalizer`, and whose admission
    /// is decided by `admission`: each prompt is offered in order, with
    /// already-accepted prompts' page estimates counting against the
    /// watermark, so an oversubscribed construction queues (and eventually
    /// sheds) the tail instead of letting every stream race the pool. Each
    /// tick drains at most `prefill_chunk_rows` catch-up rows per stream
    /// (0 = the whole backlog at once).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when `prompts` is empty or any
    /// prompt fails the model's token validation, or when the pool width does
    /// not match the model. Overload is **not** an error: shed slots come back
    /// as [`StreamStatus::Shed`] and simply never decode.
    pub(crate) fn new(
        shared: Arc<Shared>,
        normalizer: HaanNormalizer,
        pool: &Arc<KvBlockPool>,
        model: &'m TransformerModel,
        prompts: &[&[u32]],
        admission: Arc<AdmissionController>,
        prefill_chunk_rows: usize,
    ) -> Result<Self, ServeError> {
        let invalid = |err: LlmError| ServeError::InvalidRequest(err.to_string());
        let blocks = model.config().num_blocks;
        let mut group = Self {
            model,
            shared,
            normalizer,
            streams: Vec::with_capacity(prompts.len()),
            live: Vec::with_capacity(prompts.len()),
            queued: 0,
            free: BTreeSet::new(),
            pool: Arc::clone(pool),
            admission,
            stats: GroupStats::default(),
            prefill_chunk_rows,
        };
        // Pages spoken for by prompts accepted earlier in this construction
        // (they are not resident yet, so the pool cannot see them).
        let mut projected_pages = 0usize;
        let mut queued_here = 0usize;
        for prompt in prompts {
            model.validate_tokens(prompt).map_err(invalid)?;
            let est = group.admission.page_estimate(pool, blocks, prompt.len());
            let shared = &group.shared;
            let corr = shared.next_corr();
            shared.emit(
                Some(corr),
                EventKind::Offer {
                    est_pages: est as u64,
                },
            );
            group.stats.offered += 1;
            let admitted = match group
                .admission
                .offer(pool, est, projected_pages, queued_here)
            {
                AdmissionDecision::Admit => {
                    projected_pages += est;
                    shared.emit(Some(corr), EventKind::Admit);
                    true
                }
                AdmissionDecision::Queue => {
                    projected_pages += est;
                    queued_here += 1;
                    group.stats.queued += 1;
                    shared.emit(Some(corr), EventKind::Queue);
                    true
                }
                AdmissionDecision::Shed { retry_after_us } => {
                    group.stats.shed += 1;
                    shared.emit(Some(corr), EventKind::Shed { retry_after_us });
                    false
                }
            };
            let live = if admitted {
                Some(LiveState::new(
                    model.start_decode_in(pool).map_err(invalid)?,
                    0,
                ))
            } else {
                None
            };
            group.push_slot(prompt.to_vec(), prompt.len(), corr, live);
        }
        Ok(group)
    }

    /// Seats a new stream — queued when it carries live state, shed when it
    /// does not — in the lowest retired slot, or a new one. Returns the slot.
    fn push_slot(
        &mut self,
        tokens: Vec<u32>,
        prompt_len: usize,
        corr: u64,
        live: Option<LiveState<'m>>,
    ) -> usize {
        let status = if live.is_some() {
            StreamStatus::Queued
        } else {
            StreamStatus::Shed
        };
        let stream = GroupStream {
            status,
            tokens,
            prompt_len,
            corr,
            live,
        };
        let index = match self.free.pop_first() {
            Some(index) => {
                self.streams[index] = stream;
                index
            }
            None => {
                self.streams.push(stream);
                self.streams.len() - 1
            }
        };
        if status.is_live() {
            self.live.push(index);
            self.queued += 1;
        }
        index
    }

    /// Moves slot `index` to `status`, keeping the live set and the queued
    /// count in step. This is the one place a stream leaves the live set:
    /// a terminal status (finished, cancelled, migrated) drops the slot's
    /// live state here, returning its pages and freeing its attention
    /// scratch.
    fn set_status(&mut self, index: usize, status: StreamStatus) {
        let stream = &mut self.streams[index];
        let was = stream.status;
        stream.status = status;
        if was == StreamStatus::Queued {
            self.queued -= 1;
        }
        if status == StreamStatus::Queued {
            self.queued += 1;
        }
        if was.is_live() && !status.is_live() {
            stream.live = None;
            self.live.retain(|&i| i != index);
        }
    }

    /// Hands a terminal slot back: returns its tokens (prompt followed by
    /// generated tokens; empty for a migrated tombstone) and marks the slot
    /// [`StreamStatus::Retired`], so the next stream added to or adopted by
    /// this group may reuse it (lowest retired slot first). Until then the
    /// slot reads as retired: no tokens, zero capacity, and every mutating
    /// call refuses it.
    ///
    /// Retiring is the caller's decision: a group never reuses a slot on its
    /// own, so a caller that never retires can read every transcript for as
    /// long as the group lives.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] for a queued or active stream
    /// (cancel it first) and [`ServeError::Retired`] for a slot already
    /// retired.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn retire(&mut self, index: usize) -> Result<Vec<u32>, ServeError> {
        match self.streams[index].status {
            StreamStatus::Queued | StreamStatus::Active => {
                return Err(ServeError::InvalidRequest(
                    "only finished, shed, cancelled or migrated streams can retire".to_string(),
                ));
            }
            StreamStatus::Retired => return Err(ServeError::Retired),
            StreamStatus::Finished
            | StreamStatus::Shed
            | StreamStatus::Cancelled
            | StreamStatus::Migrated => {}
        }
        self.set_status(index, StreamStatus::Retired);
        self.free.insert(index);
        let stream = &mut self.streams[index];
        stream.prompt_len = 0;
        Ok(std::mem::take(&mut stream.tokens))
    }

    /// The per-tick catch-up bound inherited from
    /// [`ServeConfig::prefill_chunk_rows`](crate::ServeConfig::prefill_chunk_rows)
    /// (0 = unbounded).
    #[must_use]
    pub fn prefill_chunk_rows(&self) -> usize {
        self.prefill_chunk_rows
    }

    /// The model the group decodes with.
    #[must_use]
    pub fn model(&self) -> &'m TransformerModel {
        self.model
    }

    /// Number of slots: live, terminal and retired ones alike. Without
    /// [`DecodeGroup::retire`] this is the number of streams ever seated.
    #[must_use]
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// True when the group has no streams — only for groups born empty via
    /// [`ServeEngine::empty_decode_group`](crate::ServeEngine::empty_decode_group)
    /// that have not been fed yet ([`ServeEngine::decode_group`](crate::ServeEngine::decode_group)
    /// rejects empty prompt sets).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Number of streams that can still make progress: lockstep-ready actives
    /// plus queued streams waiting to (re)start.
    #[must_use]
    pub fn ready_streams(&self) -> usize {
        self.queued
            + self
                .live
                .iter()
                .filter(|&&i| self.streams[i].is_lockstep_ready())
                .count()
    }

    /// Stream `index`'s lifecycle state.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn status(&self, index: usize) -> StreamStatus {
        self.streams[index].status
    }

    /// The group's robustness counters (admission split, preemptions, resumes
    /// and their re-prefill cost, completions, ticks).
    #[must_use]
    pub fn stats(&self) -> GroupStats {
        self.stats
    }

    /// Stream `index`'s engine-wide correlation ID: the key its lifecycle
    /// events carry in the flight recorder
    /// ([`FlightRecorder::stream_events`](haan_obs::FlightRecorder::stream_events)).
    /// IDs are allocated in stream-creation order per engine, so same-seed
    /// drills assign them deterministically. A retired slot keeps its last
    /// stream's ID until it is reused.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn correlation_id(&self, index: usize) -> u64 {
        self.streams[index].corr
    }

    /// Stream `index`'s full token buffer: prompt followed by generated tokens
    /// (empty for a migrated or retired slot).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn tokens(&self, index: usize) -> &[u32] {
        &self.streams[index].tokens
    }

    /// Stream `index`'s generated tokens (excluding the prompt).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn generated(&self, index: usize) -> &[u32] {
        let stream = &self.streams[index];
        &stream.tokens[stream.prompt_len..]
    }

    /// Stream `index`'s remaining capacity before the model's maximum sequence
    /// length: the live context's room for active streams, the room the
    /// stream *would* have for queued ones, zero for every other slot.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn remaining_capacity(&self, index: usize) -> usize {
        let stream = &self.streams[index];
        match stream.status {
            StreamStatus::Active => stream.live().context.remaining_capacity(),
            StreamStatus::Queued => {
                // The rows the stream will hold right after its (re)prefill.
                let resident = stream
                    .live()
                    .parked_resident
                    .as_ref()
                    .map_or(stream.tokens.len(), Vec::len);
                self.model.config().max_seq_len.saturating_sub(resident)
            }
            StreamStatus::Finished
            | StreamStatus::Shed
            | StreamStatus::Cancelled
            | StreamStatus::Migrated
            | StreamStatus::Retired => 0,
        }
    }

    /// Sets stream `index`'s K/V eviction policy (e.g. a sliding window so the
    /// stream can outlive `max_seq_len`). Must be called before the stream
    /// first activates — mid-stream policy changes would break the park/resume
    /// parity contract.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when the stream has already fed
    /// tokens or is no longer live.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn set_eviction(
        &mut self,
        index: usize,
        eviction: EvictionPolicy,
    ) -> Result<(), ServeError> {
        match self.streams[index].live.as_mut() {
            Some(live) if live.fed == 0 => {
                live.context.set_eviction(eviction);
                Ok(())
            }
            _ => Err(ServeError::InvalidRequest(
                "eviction policy must be set before the stream's first tick".to_string(),
            )),
        }
    }

    /// Offers one more prompt to the group **mid-flight**: the new stream is
    /// admitted, queued, or shed against live pool pressure exactly like a
    /// construction-time prompt, and an admitted stream activates on the next
    /// [`DecodeGroup::step_all`] tick — backfilling capacity freed by finished,
    /// cancelled, or shed slots without restarting the group. Returns the new
    /// stream's slot: the lowest [retired](DecodeGroup::retire) one when there
    /// is one, else a new slot at the end.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when the prompt fails the
    /// model's token validation. Overload is not an error: a refused prompt
    /// comes back as a [`StreamStatus::Shed`] slot.
    pub fn add_stream(&mut self, prompt: &[u32]) -> Result<usize, ServeError> {
        let invalid = |err: LlmError| ServeError::InvalidRequest(err.to_string());
        self.model.validate_tokens(prompt).map_err(invalid)?;
        let est =
            self.admission
                .page_estimate(&self.pool, self.model.config().num_blocks, prompt.len());
        let context = self.model.start_decode_in(&self.pool).map_err(invalid)?;
        self.push_offered(context, prompt.to_vec(), 0, est)
    }

    /// [`DecodeGroup::add_stream`] for a prompt that starts with an interned
    /// shared prefix: the new stream *attaches* to the prefix's
    /// already-materialized whole pages (refcounted, never copied — see
    /// [`KvPrefix`]) and only prefills `suffix`, so N streams with a common
    /// system prompt pay its K/V pages once. Admission charges only the
    /// non-shared pages ([`page_estimate_shared`](crate::AdmissionController::page_estimate_shared)).
    /// Tokens are bit-identical to a stream that prefilled
    /// `prefix.tokens() ++ suffix` from scratch: the shared pages hold exactly
    /// the rows that prefill would recompute.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when `suffix` is empty or fails
    /// token validation, when the prefix belongs to another pool or model, or
    /// when the combined prompt exceeds the model's maximum sequence length.
    pub fn add_stream_with_prefix(
        &mut self,
        prefix: &KvPrefix,
        suffix: &[u32],
    ) -> Result<usize, ServeError> {
        let invalid = |err: LlmError| ServeError::InvalidRequest(err.to_string());
        if suffix.is_empty() {
            return Err(ServeError::InvalidRequest(
                "a prefix stream needs at least one suffix token".to_string(),
            ));
        }
        if !Arc::ptr_eq(prefix.pool(), &self.pool) {
            return Err(ServeError::InvalidRequest(
                "prefix pages live in a different K/V pool than this group".to_string(),
            ));
        }
        let mut tokens = prefix.tokens().to_vec();
        tokens.extend_from_slice(suffix);
        self.model.validate_tokens(&tokens).map_err(invalid)?;
        let est = self.admission.page_estimate_shared(
            &self.pool,
            self.model.config().num_blocks,
            tokens.len(),
            prefix.rows(),
        );
        // The context maps the shared pages from birth (holding one reference
        // each), so even a queued stream's eventual prefill is suffix-only.
        let context = self
            .model
            .start_decode_with_prefix(prefix)
            .map_err(invalid)?;
        self.push_offered(context, tokens, prefix.rows(), est)
    }

    /// Shared tail of [`DecodeGroup::add_stream`] /
    /// [`DecodeGroup::add_stream_with_prefix`]: runs the admission offer
    /// (counting live queued slots) and seats the slot. A shed stream drops
    /// its context, so refused slots pin no shared pages.
    fn push_offered(
        &mut self,
        context: DecodeContext<'m>,
        tokens: Vec<u32>,
        fed: usize,
        est: usize,
    ) -> Result<usize, ServeError> {
        let queued_now = self.queued;
        let shared = Arc::clone(&self.shared);
        let corr = shared.next_corr();
        shared.emit(
            Some(corr),
            EventKind::Offer {
                est_pages: est as u64,
            },
        );
        self.stats.offered += 1;
        let admitted = match self.admission.offer(&self.pool, est, 0, queued_now) {
            AdmissionDecision::Admit => {
                shared.emit(Some(corr), EventKind::Admit);
                true
            }
            AdmissionDecision::Queue => {
                self.stats.queued += 1;
                shared.emit(Some(corr), EventKind::Queue);
                true
            }
            AdmissionDecision::Shed { retry_after_us } => {
                self.stats.shed += 1;
                shared.emit(Some(corr), EventKind::Shed { retry_after_us });
                false
            }
        };
        if fed > 0 && admitted {
            shared.emit(
                Some(corr),
                EventKind::PrefixAttach {
                    shared_rows: fed as u64,
                },
            );
        }
        let prompt_len = tokens.len();
        let live = admitted.then(|| LiveState::new(context, fed));
        Ok(self.push_slot(tokens, prompt_len, corr, live))
    }

    /// Parks stream `index`: captures its K/V-resident tokens, frees its
    /// pages, and re-queues it. The unfed token (if any) stays in `tokens` —
    /// and a mid-catch-up stream keeps its `catchup` backlog — so the resume
    /// feed reconstructs the exact solo state.
    fn park(&mut self, index: usize) {
        debug_assert!(matches!(self.streams[index].status, StreamStatus::Active));
        let live = self.streams[index].live_mut();
        live.parked_resident = Some(live.context.resident_tokens().to_vec());
        live.context.reset();
        self.set_status(index, StreamStatus::Queued);
    }

    /// Forcibly parks an active stream: frees its pool pages while keeping its
    /// token history, exactly as a pressure-triggered preemption would. The
    /// stream re-queues and resumes automatically. Returns `false` (and does
    /// nothing) for streams that are not active or are about to finish.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn preempt(&mut self, index: usize) -> bool {
        if !self.streams[index].is_lockstep_ready() {
            return false;
        }
        self.park(index);
        self.shared
            .emit(Some(self.streams[index].corr), EventKind::Preempt);
        self.stats.preemptions += 1;
        self.stats.leaves += 1;
        true
    }

    /// Cancels a queued or active stream: frees its pages, keeps its token
    /// history, and marks it [`StreamStatus::Cancelled`] — it never decodes
    /// again. Returns `false` for every other slot.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn cancel(&mut self, index: usize) -> bool {
        match self.streams[index].status {
            status @ (StreamStatus::Queued | StreamStatus::Active) => {
                if status == StreamStatus::Active {
                    self.stats.leaves += 1;
                }
                self.set_status(index, StreamStatus::Cancelled);
                self.shared
                    .emit(Some(self.streams[index].corr), EventKind::Cancel);
                true
            }
            StreamStatus::Finished
            | StreamStatus::Shed
            | StreamStatus::Cancelled
            | StreamStatus::Migrated
            | StreamStatus::Retired => false,
        }
    }

    /// Extracts a queued or active stream for adoption by another group,
    /// riding the bit-identical park/resume seam: an active stream is parked
    /// first (its K/V-resident tokens captured, its pages returned to this
    /// group's pool), then the slot becomes a [`StreamStatus::Migrated`]
    /// tombstone and the stream's full state — token history, catch-up
    /// backlog, eviction policy, correlation ID — moves into the returned
    /// carrier. [`DecodeGroup::adopt_stream`] on any group of the same model
    /// continues it with zero token divergence: the destination's transparent
    /// resume re-prefills exactly the rows a preemption resume would have.
    ///
    /// A never-activated stream whose context was attached to an interned
    /// prefix drops the attachment (those shared pages live in *this* group's
    /// pool) and re-prefills its whole prompt at the destination.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] for every slot that is not
    /// queued or active — there is nothing live to move.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    pub fn extract_stream(&mut self, index: usize) -> Result<MigratedStream, ServeError> {
        match self.streams[index].status {
            StreamStatus::Active => {
                self.park(index);
                self.stats.leaves += 1;
            }
            StreamStatus::Queued => {}
            StreamStatus::Finished
            | StreamStatus::Shed
            | StreamStatus::Cancelled
            | StreamStatus::Migrated
            | StreamStatus::Retired => {
                return Err(ServeError::InvalidRequest(
                    "only queued or active streams can migrate".to_string(),
                ));
            }
        }
        let stream = &mut self.streams[index];
        let live = stream.live.take().expect("queued streams hold live state");
        // A never-parked stream carries no K/V state; any rows it had fed
        // (a prefix attachment) are gone with the old pool, so the whole
        // prompt re-prefills at the destination.
        let fed = if live.parked_resident.is_some() {
            live.fed
        } else {
            0
        };
        // The tombstone keeps only the correlation ID; `prompt_len` drops to
        // zero so `generated()` stays in bounds of the now-empty buffer.
        let migrated = MigratedStream {
            tokens: std::mem::take(&mut stream.tokens),
            fed,
            prompt_len: std::mem::take(&mut stream.prompt_len),
            parked_resident: live.parked_resident,
            catchup: live.catchup,
            eviction: live.context.eviction(),
            activated: live.activated,
            corr: stream.corr,
        };
        self.set_status(index, StreamStatus::Migrated);
        Ok(migrated)
    }

    /// Adopts a stream extracted from another group of the same model: a
    /// fresh context is opened in **this** group's pool, the carried state is
    /// re-queued, and the next [`DecodeGroup::step_all`] tick resumes it
    /// transparently (a previously-parked migrant counts toward this group's
    /// resume / re-prefill stats — that re-prefill *is* the migration cost).
    /// No admission offer runs: migration is a router decision, not a new
    /// request, and a stream admitted once stays admitted. Returns the slot
    /// index (the lowest retired slot when there is one).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when the context cannot open in
    /// this group's pool (e.g. mismatched embedding width).
    pub fn adopt_stream(&mut self, migrated: MigratedStream) -> Result<usize, ServeError> {
        let invalid = |err: LlmError| ServeError::InvalidRequest(err.to_string());
        let mut context = self.model.start_decode_in(&self.pool).map_err(invalid)?;
        context.set_eviction(migrated.eviction);
        let live = LiveState {
            parked_resident: migrated.parked_resident,
            catchup: migrated.catchup,
            activated: migrated.activated,
            ..LiveState::new(context, migrated.fed)
        };
        Ok(self.push_slot(
            migrated.tokens,
            migrated.prompt_len,
            migrated.corr,
            Some(live),
        ))
    }

    /// The pool pages a queued stream's transparent resume would need in this
    /// group (`None` for non-queued slots) — the router's rebalance gate:
    /// migrating a victim only helps when the destination can actually seat
    /// it.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn resume_pages_needed(&self, index: usize) -> Option<usize> {
        let stream = &self.streams[index];
        if !matches!(stream.status, StreamStatus::Queued) {
            return None;
        }
        let feed = stream.resume_feed(self.model.config().max_seq_len);
        Some(self.model.config().num_blocks * feed.len().div_ceil(self.pool.page_rows()))
    }

    /// Live slots currently in `status`, oldest first.
    fn live_in(&self, status: StreamStatus) -> Vec<usize> {
        self.live
            .iter()
            .copied()
            .filter(|&i| self.streams[i].status == status)
            .collect()
    }

    /// Finishes active streams that can no longer accept a token, releasing
    /// their pool pages (windowed streams evict instead of finishing).
    fn finish_exhausted_streams(&mut self) {
        for index in self.live_in(StreamStatus::Active) {
            let stream = &self.streams[index];
            let live = stream.live();
            if live.context.remaining_capacity() > 0 || live.is_windowed() {
                continue;
            }
            let generated = (stream.tokens.len() - stream.prompt_len) as u64;
            self.set_status(index, StreamStatus::Finished);
            self.shared.emit(
                Some(self.streams[index].corr),
                EventKind::Finish { generated },
            );
            self.stats.completed += 1;
            self.stats.leaves += 1;
        }
    }

    /// Activates queued streams whose catch-up feed fits this tick's page
    /// budget, oldest slot first, **without feeding anything**: the feed
    /// becomes the stream's `catchup` backlog, which the lockstep pass drains.
    /// The budget starts at the pool's free pages and drops by each activated
    /// feed's estimate, so one tick never activates more than the pool holds.
    /// (A prefix-attached context keeps its shared resident rows, which are a
    /// whole-page multiple, so the feed's own pages are exactly its growth.)
    /// Returns the activations, oldest first, for the pass to commit or undo.
    fn activate_queued_streams(&mut self) -> Vec<Activation> {
        let page_rows = self.pool.page_rows();
        let blocks = self.model.config().num_blocks;
        let max_seq_len = self.model.config().max_seq_len;
        let mut budget = self.pool.pages_free();
        let mut activations = Vec::new();
        for index in self.live_in(StreamStatus::Queued) {
            let stream = &mut self.streams[index];
            let feed = stream.resume_feed(max_seq_len);
            let est = blocks * feed.len().div_ceil(page_rows);
            if est > budget {
                continue;
            }
            budget -= est;
            let fed_all = stream.tokens.len();
            let live = stream.live_mut();
            activations.push(Activation {
                index,
                parked_resident: live.parked_resident.take(),
                catchup: std::mem::replace(&mut live.catchup, feed),
                fed: std::mem::replace(&mut live.fed, fed_all),
            });
            self.set_status(index, StreamStatus::Active);
        }
        activations
    }

    /// Commits an activation once a pass carried the stream: counts the join
    /// (and the resume with its re-prefill rows, or the first admission) and
    /// reports it.
    fn commit_activation(&mut self, activation: &Activation) {
        let stream = &mut self.streams[activation.index];
        let corr = stream.corr;
        let live = stream.live_mut();
        self.stats.joins += 1;
        if activation.parked_resident.is_some() {
            let rows = live.catchup.len() as u64;
            self.stats.resumes += 1;
            self.stats.resume_reprefill_rows += rows;
            self.shared.emit(
                Some(corr),
                EventKind::Resume {
                    reprefill_rows: rows,
                },
            );
        } else {
            self.shared.emit(Some(corr), EventKind::Activate);
        }
        if !live.activated {
            live.activated = true;
            self.stats.admitted += 1;
            self.admission.note_admitted();
        }
    }

    /// Puts an uncommitted activation back in the queue exactly as it was.
    /// The failed pass already rolled the stream's context back.
    fn undo_activation(&mut self, activation: Activation) {
        let live = self.streams[activation.index].live_mut();
        live.parked_resident = activation.parked_resident;
        live.catchup = activation.catchup;
        live.fed = activation.fed;
        self.set_status(activation.index, StreamStatus::Queued);
    }

    /// Picks the preemption victim among the lockstep-ready streams: fewest
    /// tokens decoded, ties to the least recently advanced, then the lowest
    /// index — a deterministic order, so drills reproduce exactly.
    fn preemption_victim(&self, ready: &[usize]) -> usize {
        ready
            .iter()
            .copied()
            .min_by_key(|&i| {
                let stream = &self.streams[i];
                (
                    stream.tokens.len() - stream.prompt_len,
                    stream.live().last_advanced_tick,
                    i,
                )
            })
            .expect("ready set is non-empty")
    }

    /// Advances the group one tick and returns, per slot, the token it
    /// generated (`None` for slots that did not advance: at capacity, still
    /// queued, mid catch-up, or not live).
    ///
    /// Tick order: finish streams at capacity (freeing their pages), activate
    /// queued streams whose pages fit the tick's budget (their feed becomes a
    /// backlog), then advance every active stream together through
    /// [`TransformerModel::advance_many`]: one batched pass, one batched
    /// normalizer call per site carrying each stream's rows (one decode
    /// token, or up to `prefill_chunk_rows` backlog rows — the whole backlog
    /// when that bound is 0). When that pass hits pool exhaustion, the group
    /// first returns this tick's activations to the queue, newest first; then
    /// it parks a victim (fewest tokens decoded, ties to least recently
    /// advanced) and retries with the survivors. Only live slots are visited.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors ([`LlmError`]), including
    /// [`LlmError::KvPoolExhausted`] when even a single resident stream cannot
    /// make progress (parking the last ready stream cannot free enough pages
    /// for its own resume). A failed tick is **retry-safe**: every underlying
    /// pass rolls back on error and uncommitted activations return to the
    /// queue, so streams keep a consistent token/K-V state and calling
    /// `step_all` again resumes exactly where the tick stopped.
    pub fn step_all(&mut self) -> Result<Vec<Option<u32>>, LlmError> {
        self.stats.ticks += 1;
        let tick = self.stats.ticks;
        let shared = Arc::clone(&self.shared);
        let mut results = vec![None; self.streams.len()];
        self.finish_exhausted_streams();
        let mut activations = self.activate_queued_streams();
        // Lockstep pass with preempt-and-retry: every active stream
        // contributes its next feed — one decode token, or rows of its
        // catch-up backlog — in one batched variable-length pass. A stream
        // emits a token only on the pass that exhausts its feed; mid-catch-up
        // rows produce no token this tick.
        loop {
            // Slot order, so the contexts can be borrowed in one sweep.
            let mut ready: Vec<usize> = self
                .live
                .iter()
                .copied()
                .filter(|&i| self.streams[i].is_lockstep_ready())
                .collect();
            ready.sort_unstable();
            if ready.is_empty() {
                debug_assert!(activations.is_empty(), "activated streams are ready");
                return Ok(results);
            }
            let feeds: Vec<Vec<u32>> = ready
                .iter()
                .map(|&i| {
                    let stream = &self.streams[i];
                    let live = stream.live();
                    if live.catchup.is_empty() {
                        debug_assert_eq!(live.fed + 1, stream.tokens.len());
                        stream.tokens[live.fed..].to_vec()
                    } else {
                        let take = match self.prefill_chunk_rows {
                            0 => live.catchup.len(),
                            rows => rows.min(live.catchup.len()),
                        };
                        live.catchup[..take].to_vec()
                    }
                })
                .collect();
            let feed_refs: Vec<&[u32]> = feeds.iter().map(Vec::as_slice).collect();
            let mut contexts = contexts_mut(&mut self.streams, &ready);
            // Span profiling: the advance clock runs only with a sink
            // installed. The measured span is the whole pass — attention,
            // MLP, logits and every normalization site.
            let advance_started = shared.obs().map(|_| Instant::now());
            match self
                .model
                .advance_many(&mut contexts, &feed_refs, &mut self.normalizer)
            {
                Ok(logits) => {
                    if let (Some(obs), Some(t)) = (shared.obs(), advance_started) {
                        obs.record("group.phase.advance_ns", ns_since(t));
                    }
                    for activation in &activations {
                        self.commit_activation(activation);
                    }
                    let mut tick_rows = 0u64;
                    for (row, &i) in ready.iter().enumerate() {
                        let stream = &mut self.streams[i];
                        let live = stream.live.as_mut().expect("ready streams are live");
                        let rows = feeds[row].len();
                        if live.catchup.is_empty() {
                            live.fed += rows;
                        } else {
                            live.catchup.drain(..rows);
                            shared.emit(
                                Some(stream.corr),
                                EventKind::ChunkDrain { rows: rows as u64 },
                            );
                        }
                        live.last_advanced_tick = tick;
                        self.stats.occupied_rows += rows as u64;
                        tick_rows += rows as u64;
                        if live.catchup.is_empty() && live.fed == stream.tokens.len() {
                            let next = greedy_argmax(logits.row(row));
                            stream.tokens.push(next);
                            results[i] = Some(next);
                        }
                    }
                    if let Some(obs) = shared.obs() {
                        obs.record("group.tick_rows", tick_rows);
                    }
                    return Ok(results);
                }
                Err(LlmError::KvPoolExhausted {
                    requested_pages,
                    free_pages,
                }) => {
                    shared.emit(
                        None,
                        EventKind::PoolExhausted {
                            requested_pages: requested_pages as u64,
                            free_pages: free_pages as u64,
                        },
                    );
                    // The failed pass rolled every context back. This tick's
                    // activations yield first: they hold nothing yet, so
                    // re-queuing one costs no preemption.
                    if let Some(newest) = activations.pop() {
                        self.undo_activation(newest);
                        continue;
                    }
                    if ready.len() == 1 {
                        // Parking the only ready stream cannot help: its own
                        // resume would need at least the pages it holds now.
                        return Err(LlmError::KvPoolExhausted {
                            requested_pages,
                            free_pages,
                        });
                    }
                    // Park the victim and retry with one fewer stream.
                    let victim = self.preemption_victim(&ready);
                    self.park(victim);
                    shared.emit(Some(self.streams[victim].corr), EventKind::Preempt);
                    self.stats.preemptions += 1;
                    self.stats.leaves += 1;
                }
                Err(err) => {
                    while let Some(newest) = activations.pop() {
                        self.undo_activation(newest);
                    }
                    return Err(err);
                }
            }
        }
    }

    /// Runs up to `ticks` lockstep rounds, returning the total number of tokens
    /// generated (streams stop contributing once they reach capacity).
    ///
    /// # Errors
    ///
    /// Propagates the first [`DecodeGroup::step_all`] error.
    pub fn decode(&mut self, ticks: usize) -> Result<usize, LlmError> {
        let mut generated = 0;
        for _ in 0..ticks {
            generated += self.step_all()?.iter().flatten().count();
        }
        Ok(generated)
    }
}

/// Nanoseconds elapsed since `started`, saturated into `u64`.
fn ns_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Mutable borrows of the decode contexts of the `sorted` slots (ascending,
/// distinct, all live), taken in one sweep that skips every other slot.
fn contexts_mut<'a, 'm>(
    streams: &'a mut [GroupStream<'m>],
    sorted: &[usize],
) -> Vec<&'a mut DecodeContext<'m>> {
    let mut contexts = Vec::with_capacity(sorted.len());
    let mut rest = streams;
    let mut base = 0;
    for &index in sorted {
        let (stream, tail) = std::mem::take(&mut rest)[index - base..]
            .split_first_mut()
            .expect("ready slots are in bounds");
        contexts.push(&mut stream.live_mut().context);
        rest = tail;
        base = index + 1;
    }
    contexts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{KvPoolPolicy, ServeConfig, ServeEngine};
    use haan::{BackendSelection, HaanConfig};
    use haan_llm::norm::ReferenceNormalizer;
    use haan_llm::{ModelConfig, StreamingModel, TransformerModel};

    fn engine() -> ServeEngine {
        ServeEngine::start(ServeConfig {
            normalizer: HaanConfig {
                backend: BackendSelection::Fused,
                ..HaanConfig::unoptimized()
            },
            ..Default::default()
        })
    }

    #[test]
    fn group_matches_private_full_recompute_streams() {
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let engine = engine();
        let prompts: [&[u32]; 3] = [&[2, 9, 4], &[1, 7], &[5, 5, 5, 5]];
        let mut group = engine.decode_group(&model, &prompts).unwrap();
        assert_eq!(group.len(), 3);
        assert!(!group.is_empty());
        assert_eq!(group.model().seed(), 23);
        const TICKS: usize = 5;
        let generated = group.decode(TICKS).unwrap();
        assert_eq!(generated, 3 * TICKS);
        for (i, prompt) in prompts.iter().enumerate() {
            let mut oracle = StreamingModel::new_full_recompute(&model, prompt).unwrap();
            let expected = oracle
                .decode(TICKS, &mut ReferenceNormalizer::new())
                .unwrap();
            assert_eq!(group.generated(i), expected.as_slice(), "stream {i}");
            assert_eq!(group.tokens(i).len(), prompt.len() + TICKS);
            assert_eq!(group.status(i), StreamStatus::Active);
        }
        let stats = group.stats();
        assert_eq!((stats.offered, stats.admitted, stats.shed), (3, 3, 0));
        assert_eq!(stats.ticks, TICKS as u64);
        // Lockstep ticks carry one row per stream: rows/tick must exceed 1.
        assert!(stats.mean_tick_occupancy_rows() > 1.0);
    }

    #[test]
    fn exhausted_streams_stop_contributing_rows() {
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let max = model.config().max_seq_len;
        let engine = engine();
        // One stream a single token from the end, one with plenty of room.
        let long: Vec<u32> = (0..(max as u32 - 1)).map(|i| i % 8).collect();
        let prompts: [&[u32]; 2] = [&long, &[3, 1]];
        let mut group = engine.decode_group(&model, &prompts).unwrap();
        let first = group.step_all().unwrap();
        assert!(first.iter().all(Option::is_some), "prefill tick fills both");
        assert_eq!(
            group.remaining_capacity(0),
            1,
            "one slot left after prefill"
        );
        let second = group.step_all().unwrap();
        assert!(second.iter().all(Option::is_some));
        assert_eq!(group.remaining_capacity(0), 0);
        assert_eq!(group.ready_streams(), 1);
        let third = group.step_all().unwrap();
        assert!(third[0].is_none(), "full stream must be skipped, not error");
        assert!(third[1].is_some());
        assert_eq!(group.status(0), StreamStatus::Finished);
        assert_eq!(group.stats().completed, 1);
    }

    #[test]
    fn pool_pressure_queues_streams_and_stuck_groups_fail_typed() {
        // An engine pool with room for one stream's prompt but not two: the
        // second stream queues at admission, the first activates on tick 1 —
        // and once neither the active stream can grow nor the queued one fit,
        // ticks fail with the typed pool error, retry-safely.
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let engine = ServeEngine::start(ServeConfig {
            normalizer: HaanConfig {
                backend: BackendSelection::Fused,
                ..HaanConfig::unoptimized()
            },
            // 6 pages of 4 rows; each 4-token prompt estimates 4 pages
            // (tiny_test has 4 blocks), so the watermark (4.5 pages) admits
            // exactly one.
            kv_pool: KvPoolPolicy {
                page_rows: 4,
                capacity_rows: 24,
            },
            ..Default::default()
        });
        let prompts: [&[u32]; 2] = [&[1, 2, 3, 4], &[5, 6, 7, 8]];
        let mut group = engine.decode_group(&model, &prompts).unwrap();
        assert_eq!(group.stats().queued, 1);
        let first = group.step_all().unwrap();
        assert!(first[0].is_some(), "admitted stream prefills");
        assert!(first[1].is_none(), "queued stream waits without erroring");
        assert_eq!(group.status(0), StreamStatus::Active);
        assert_eq!(group.status(1), StreamStatus::Queued);
        // Stream 0 now holds 4 full pages; growing it needs one page per
        // block (4 > 2 free), and stream 1's resume needs 4. Nobody can move:
        // the tick fails typed, and retries neither panic nor corrupt state.
        for _ in 0..2 {
            let err = group.step_all().unwrap_err();
            assert!(matches!(err, LlmError::KvPoolExhausted { .. }), "{err:?}");
            assert_eq!(group.tokens(0).len(), prompts[0].len() + 1);
            assert_eq!(group.tokens(1).len(), prompts[1].len());
        }
    }

    #[test]
    fn preempted_streams_resume_bit_identically() {
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let engine = engine();
        let prompts: [&[u32]; 2] = [&[2, 9, 4], &[1, 7, 3]];
        let mut group = engine.decode_group(&model, &prompts).unwrap();
        group.decode(2).unwrap();
        // Park stream 0 by hand: its pages free, its history stays.
        let pages_before = engine.kv_pool(model.config().embedding_dim).pages_in_use();
        assert!(group.preempt(0));
        assert_eq!(group.status(0), StreamStatus::Queued);
        assert!(
            engine.kv_pool(model.config().embedding_dim).pages_in_use() < pages_before,
            "preemption must free the victim's pages"
        );
        assert!(
            !group.preempt(0),
            "queued streams cannot be preempted again"
        );
        // The next ticks resume it transparently…
        group.decode(3).unwrap();
        assert_eq!(group.status(0), StreamStatus::Active);
        let stats = group.stats();
        assert_eq!((stats.preemptions, stats.resumes), (1, 1));
        assert!(stats.resume_reprefill_rows > 0);
        // …and both streams still match their solo oracles exactly.
        for (i, prompt) in prompts.iter().enumerate() {
            let mut oracle = StreamingModel::new_full_recompute(&model, prompt).unwrap();
            let expected = oracle.decode(5, &mut ReferenceNormalizer::new()).unwrap();
            assert_eq!(group.generated(i), expected.as_slice(), "stream {i}");
        }
    }

    #[test]
    fn cancelled_streams_free_pages_and_never_decode_again() {
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let engine = engine();
        let prompts: [&[u32]; 2] = [&[2, 9, 4], &[1, 7, 3]];
        let mut group = engine.decode_group(&model, &prompts).unwrap();
        group.decode(2).unwrap();
        let generated_at_cancel = group.generated(0).len();
        assert!(group.cancel(0));
        assert!(!group.cancel(0), "cancel is not idempotent-true");
        assert_eq!(group.status(0), StreamStatus::Cancelled);
        assert_eq!(group.remaining_capacity(0), 0);
        let results = group.step_all().unwrap();
        assert!(results[0].is_none());
        assert!(results[1].is_some());
        assert_eq!(
            group.generated(0).len(),
            generated_at_cancel,
            "cancelled streams keep their history but stop decoding"
        );
    }

    #[test]
    fn invalid_groups_are_rejected() {
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let engine = engine();
        assert!(engine.decode_group(&model, &[]).is_err());
        let bad: [&[u32]; 2] = [&[1, 2], &[40_000]];
        assert!(engine.decode_group(&model, &bad).is_err());
    }

    #[test]
    fn never_ticked_group_reports_zero_mean_occupancy() {
        // Satellite: a group that has never ticked must report 0.0, not NaN.
        assert_eq!(GroupStats::default().mean_tick_occupancy_rows(), 0.0);
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let engine = engine();
        let group = engine.empty_decode_group(&model).unwrap();
        assert!(group.is_empty());
        assert_eq!(group.stats().mean_tick_occupancy_rows(), 0.0);
    }

    #[test]
    fn migrated_streams_continue_bit_identically() {
        // Two groups on one engine (same model, same pool — a valid move even
        // without a router): extract an in-flight stream from one, adopt it
        // into the other, and the combined transcript must match the solo
        // full-recompute oracle token for token.
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let engine = engine();
        let prompts: [&[u32]; 2] = [&[2, 9, 4], &[1, 7, 3]];
        let mut source = engine.decode_group(&model, &prompts).unwrap();
        let mut dest = engine.empty_decode_group(&model).unwrap();
        source.decode(3).unwrap();
        let corr = source.correlation_id(0);
        let migrated = source.extract_stream(0).unwrap();
        assert_eq!(migrated.correlation_id(), corr);
        assert_eq!(migrated.tokens().len(), prompts[0].len() + 3);
        assert_eq!(source.status(0), StreamStatus::Migrated);
        assert_eq!(source.remaining_capacity(0), 0);
        assert!(!source.cancel(0), "tombstones cannot be cancelled");
        assert!(
            source.extract_stream(0).is_err(),
            "tombstones cannot migrate twice"
        );
        let slot = dest.adopt_stream(migrated).unwrap();
        assert_eq!(dest.status(slot), StreamStatus::Queued);
        assert_eq!(dest.correlation_id(slot), corr);
        dest.decode(4).unwrap();
        source.decode(4).unwrap();
        // The move cost exactly one transparent resume on the destination.
        assert_eq!(dest.stats().resumes, 1);
        assert!(dest.stats().resume_reprefill_rows > 0);
        for (prompt, (group, index), ticks) in [
            (prompts[0], (&dest, slot), 7usize),
            (prompts[1], (&source, 1), 7usize),
        ] {
            let mut oracle = StreamingModel::new_full_recompute(&model, prompt).unwrap();
            let expected = oracle
                .decode(ticks, &mut ReferenceNormalizer::new())
                .unwrap();
            assert_eq!(group.generated(index), expected.as_slice());
        }
    }

    #[test]
    fn never_activated_migrants_reprefill_their_whole_prompt() {
        // A queued, never-activated stream migrates with fed reset: its
        // destination prefills the full prompt and parity still holds.
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let engine = engine();
        let prompts: [&[u32]; 1] = [&[2, 9, 4, 6]];
        let mut source = engine.decode_group(&model, &prompts).unwrap();
        let mut dest = engine.empty_decode_group(&model).unwrap();
        let migrated = source.extract_stream(0).unwrap();
        let slot = dest.adopt_stream(migrated).unwrap();
        dest.decode(5).unwrap();
        assert_eq!(dest.status(slot), StreamStatus::Active);
        // Never activated at the source: admission is counted where the
        // stream first actually runs.
        assert_eq!(dest.stats().resumes, 0, "no park happened — no resume");
        let mut oracle = StreamingModel::new_full_recompute(&model, prompts[0]).unwrap();
        let expected = oracle.decode(5, &mut ReferenceNormalizer::new()).unwrap();
        assert_eq!(dest.generated(slot), expected.as_slice());
    }

    #[test]
    fn eviction_changes_are_rejected_after_the_first_tick() {
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let engine = engine();
        let prompts: [&[u32]; 1] = [&[2, 9, 4]];
        let mut group = engine.decode_group(&model, &prompts).unwrap();
        assert!(group
            .set_eviction(0, EvictionPolicy::SlidingWindow { keep_last: 8 })
            .is_ok());
        group.step_all().unwrap();
        assert!(group.set_eviction(0, EvictionPolicy::Reject).is_err());
    }

    #[test]
    fn activation_reserves_pages_and_never_preempts_an_admitted_stream() {
        // 6 pages of 4 rows and 4 blocks: each 4-token prompt needs 4 pages,
        // so one tick can seat stream 0 but not both. Activation must reserve
        // pages: activating both against one free-page count makes the pass
        // preempt the admitted stream 0 to run the queued stream 1.
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        for chunk in [0, 4] {
            let engine = ServeEngine::start(ServeConfig {
                normalizer: HaanConfig {
                    backend: BackendSelection::Fused,
                    ..HaanConfig::unoptimized()
                },
                kv_pool: KvPoolPolicy {
                    page_rows: 4,
                    capacity_rows: 24,
                },
                prefill_chunk_rows: chunk,
                ..Default::default()
            });
            let prompts: [&[u32]; 2] = [&[1, 2, 3, 4], &[5, 6, 7, 8]];
            let mut group = engine.decode_group(&model, &prompts).unwrap();
            assert_eq!(group.prefill_chunk_rows(), chunk);
            let first = group.step_all().unwrap();
            assert_eq!(group.status(0), StreamStatus::Active, "chunk {chunk}");
            assert_eq!(group.status(1), StreamStatus::Queued, "chunk {chunk}");
            assert!(first[0].is_some() && first[1].is_none(), "chunk {chunk}");
            assert_eq!(group.stats().preemptions, 0, "chunk {chunk}");
        }
    }

    /// The slot bookkeeping agrees with the slots: live state exactly on
    /// queued and active slots, the live set and queued count match them,
    /// and the free set is the retired slots.
    fn assert_bookkeeping(group: &DecodeGroup<'_>) {
        let mut live = group.live.clone();
        live.sort_unstable();
        let expected: Vec<usize> = (0..group.len())
            .filter(|&i| group.status(i).is_live())
            .collect();
        assert_eq!(live, expected, "live set");
        for (i, stream) in group.streams.iter().enumerate() {
            assert_eq!(stream.live.is_some(), stream.status.is_live(), "slot {i}");
        }
        let queued = (0..group.len())
            .filter(|&i| group.status(i) == StreamStatus::Queued)
            .count();
        assert_eq!(group.queued, queued, "queued count");
        let retired: Vec<usize> = (0..group.len())
            .filter(|&i| group.status(i) == StreamStatus::Retired)
            .collect();
        assert_eq!(group.free.iter().copied().collect::<Vec<_>>(), retired);
    }

    #[test]
    fn terminal_transitions_drop_live_state() {
        // Finish, cancel, migrate and shed each leave a slot with its record
        // only: no context, so no pages, page list or attention scratch.
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let max = model.config().max_seq_len;
        let engine = engine();
        let pool = engine.kv_pool(model.config().embedding_dim);
        let long: Vec<u32> = (0..(max as u32 - 1)).map(|i| i % 8).collect();
        let prompts: [&[u32]; 3] = [&long, &[2, 9, 4], &[1, 7, 3]];
        let mut group = engine.decode_group(&model, &prompts).unwrap();
        let mut dest = engine.empty_decode_group(&model).unwrap();
        // Prefill fills 31 rows, the next token the 32nd; tick 3 finishes it.
        group.decode(3).unwrap();
        assert_eq!(group.status(0), StreamStatus::Finished);
        assert!(group.cancel(1));
        dest.adopt_stream(group.extract_stream(2).unwrap()).unwrap();
        for i in 0..prompts.len() {
            assert!(
                group.streams[i].live.is_none(),
                "slot {i} ({:?}) kept its live state",
                group.status(i)
            );
        }
        assert_bookkeeping(&group);
        assert_eq!(group.ready_streams(), 0);
        assert_eq!(group.tokens(0).len(), max + 1, "records stay readable");
        assert_eq!(group.generated(1).len(), 3);
        assert_eq!(pool.pages_in_use(), 0, "terminal slots hold no pages");

        // 6 pages cannot hold a 31-token prompt's 32: admission sheds it.
        let small = ServeEngine::start(ServeConfig {
            kv_pool: KvPoolPolicy {
                page_rows: 4,
                capacity_rows: 24,
            },
            ..Default::default()
        });
        let mut group = small.empty_decode_group(&model).unwrap();
        let slot = group.add_stream(&long).unwrap();
        assert_eq!(group.status(slot), StreamStatus::Shed);
        assert!(group.streams[slot].live.is_none());
        assert_bookkeeping(&group);
    }

    #[test]
    fn retire_recycles_terminal_slots_lowest_first() {
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let engine = engine();
        let prompts: [&[u32]; 3] = [&[2, 9, 4], &[1, 7, 3], &[5, 5]];
        let mut group = engine.decode_group(&model, &prompts).unwrap();
        group.decode(2).unwrap();
        let queued = group.add_stream(&[3, 3]).unwrap();
        // Live slots are refused and left as they were.
        for slot in [0, queued] {
            let status = group.status(slot);
            assert!(
                matches!(group.retire(slot), Err(ServeError::InvalidRequest(_))),
                "{status:?}"
            );
            assert_eq!(group.status(slot), status);
        }
        assert_bookkeeping(&group);
        // Terminal slots hand their tokens back and read as retired.
        assert!(group.cancel(2));
        assert!(group.cancel(0));
        let tokens = group.tokens(0).to_vec();
        assert_eq!(group.retire(2).unwrap(), group_tokens(prompts[2], 2));
        assert_eq!(group.retire(0).unwrap(), tokens);
        assert_eq!(group.retire(0), Err(ServeError::Retired));
        assert_eq!(group.status(0), StreamStatus::Retired);
        assert!(group.tokens(0).is_empty() && group.generated(0).is_empty());
        assert_eq!(group.remaining_capacity(0), 0);
        assert!(!group.cancel(0) && !group.preempt(0));
        assert!(group.extract_stream(0).is_err());
        assert!(group.set_eviction(0, EvictionPolicy::Reject).is_err());
        assert_eq!(group.resume_pages_needed(0), None);
        assert_bookkeeping(&group);
        // New streams take the lowest retired slot first, then grow the group.
        let reused: Vec<usize> = [&[4u32, 4, 4][..], &[6, 1], &[7, 2]]
            .iter()
            .map(|prompt| group.add_stream(prompt).unwrap())
            .collect();
        assert_eq!(reused, [0, 2, 4]);
        assert_eq!(group.len(), 5);
        assert_bookkeeping(&group);
        group.decode(4).unwrap();
        assert_bookkeeping(&group);
        let expected: [(usize, &[u32]); 5] = [
            (0, &[4, 4, 4]),
            (1, &[1, 7, 3]),
            (2, &[6, 1]),
            (queued, &[3, 3]),
            (4, &[7, 2]),
        ];
        for (slot, prompt) in expected {
            let mut oracle = StreamingModel::new_full_recompute(&model, prompt).unwrap();
            let solo = oracle
                .decode(group.generated(slot).len(), &mut ReferenceNormalizer::new())
                .unwrap();
            assert_eq!(group.generated(slot), solo.as_slice(), "slot {slot}");
            assert_eq!(group.tokens(slot)[..prompt.len()], *prompt, "slot {slot}");
        }
    }

    /// `prompt` followed by its first `n` greedy tokens from the solo
    /// full-recompute oracle.
    fn group_tokens(prompt: &[u32], n: usize) -> Vec<u32> {
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let mut oracle = StreamingModel::new_full_recompute(&model, prompt).unwrap();
        let mut tokens = prompt.to_vec();
        tokens.extend(oracle.decode(n, &mut ReferenceNormalizer::new()).unwrap());
        tokens
    }

    #[test]
    fn bookkeeping_follows_preemption_queueing_and_adoption() {
        // Pool pressure (6 pages) queues, preempts and resumes; migration
        // moves streams both ways. The live set and queued count must match
        // the slots after every call.
        let model = TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap();
        let engine = ServeEngine::start(ServeConfig {
            normalizer: HaanConfig {
                backend: BackendSelection::Fused,
                ..HaanConfig::unoptimized()
            },
            kv_pool: KvPoolPolicy {
                page_rows: 4,
                capacity_rows: 48,
            },
            ..Default::default()
        });
        let prompts: [&[u32]; 4] = [&[1, 2, 3], &[4, 5], &[6, 7, 8], &[9, 1]];
        let mut group = engine.decode_group(&model, &prompts).unwrap();
        let mut other = engine.empty_decode_group(&model).unwrap();
        assert_bookkeeping(&group);
        for tick in 0..12 {
            // Exhausted ticks are retry-safe; the bookkeeping must hold anyway.
            let _ = group.step_all();
            assert_bookkeeping(&group);
            if tick == 3 {
                let active = (0..group.len())
                    .find(|&i| group.status(i) == StreamStatus::Active)
                    .unwrap();
                assert!(group.preempt(active));
                assert_bookkeeping(&group);
                let moved = other
                    .adopt_stream(group.extract_stream(active).unwrap())
                    .unwrap();
                assert_eq!(group.retire(active).unwrap(), Vec::<u32>::new());
                assert_bookkeeping(&group);
                let back = group
                    .adopt_stream(other.extract_stream(moved).unwrap())
                    .unwrap();
                assert_eq!(back, active, "the retired slot is reused");
                assert_bookkeeping(&group);
            }
        }
        assert!(group.stats().preemptions > 0);
        for (i, prompt) in prompts.iter().enumerate() {
            let mut oracle = StreamingModel::new_full_recompute(&model, prompt).unwrap();
            let solo = oracle
                .decode(group.generated(i).len(), &mut ReferenceNormalizer::new())
                .unwrap();
            assert_eq!(group.generated(i), solo.as_slice(), "stream {i}");
        }
    }
}
