//! Serving layer of the HAAN reproduction: continuously batched, KV-cached
//! decode groups with admission control, over in-process HAAN normalization.
//!
//! HAAN's premise is that normalization sits on every token's critical path,
//! and batched normalization kernels pay off most when many concurrent token
//! streams share one pass. This crate supplies that front end on top of the
//! `haan` core:
//!
//! * [`ServeEngine`] — what the groups of one engine share: the admission
//!   controller, one K/V block pool per embedding width (sized by
//!   [`KvPoolPolicy`]), the bounded interned-prefix store, correlation IDs and
//!   the observability sink. The engine starts no thread.
//! * [`DecodeGroup`] — batched multi-stream decode
//!   ([`ServeEngine::decode_group`]): every tick advances all ready streams in
//!   lockstep through one incremental pass, and the group's **own**
//!   [`HaanNormalizer`](haan::HaanNormalizer) — built from
//!   [`ServeConfig::normalizer`], [`ServeConfig::plan`] and [`ServeConfig::obs`]
//!   — runs each normalization site as one batched call carrying one row per
//!   stream, on the thread that ticks the group (so every
//!   [`BackendSelection`](haan::BackendSelection) backend and the fused
//!   residual+norm site serve traffic unchanged). A single stream is a group of
//!   one. The group is *continuously batched*: prompts join mid-flight
//!   ([`DecodeGroup::add_stream`]) and backfill freed capacity (and reuse
//!   slots handed back through [`DecodeGroup::retire`]), long prompts
//!   prefill in bounded chunks stacked into the same batched passes as the
//!   decode rows ([`ServeConfig::prefill_chunk_rows`]), and streams with a
//!   common prompt prefix share its K/V pages through an interned, refcounted
//!   [`KvPrefix`] ([`ServeEngine::intern_prefix`] /
//!   [`DecodeGroup::add_stream_with_prefix`]) — all bit-identical to solo
//!   decode.
//! * [`AdmissionController`] / [`AdmissionPolicy`] — overload safety: new
//!   streams are admitted, queued, or shed (typed [`ServeError::Shed`] with a
//!   retry-after hint) against live [`KvBlockPool`](haan_llm::KvBlockPool)
//!   pressure, and a [`DecodeGroup`] under pool pressure *preempts* its
//!   youngest stream (freeing its pages, keeping its token history) and
//!   transparently re-prefills it when pages free — bit-identical to a stream
//!   that was never preempted. A failed tick is typed and retry-safe.
//! * [`faults`] — a deterministic fault-injection harness
//!   ([`FaultInjector`] / [`SeededFaults`]): seeded, budgeted pool exhaustion
//!   threaded through the real allocation path, so chaos drills reproduce
//!   exactly per seed (see `tests/serving_chaos.rs` and `examples/chaos.rs`).
//! * **Observability** — install an [`ObsSink`](haan_obs::ObsSink) via
//!   [`ServeConfig::obs`] and the whole stack emits into it: hierarchical
//!   metrics (`group.*` lockstep-tick shape and phase timings, `pool.*` page
//!   occupancy, `admission.*` decisions, `serve.prefix.*` store traffic,
//!   `haan.*` per-site skip and fused-path counters) into an
//!   [`ObsRegistry`](haan_obs::ObsRegistry), and clock-stamped lifecycle
//!   events (offer → admit/queue/shed → chunk-drain → preempt/resume →
//!   finish, correlated per stream via [`DecodeGroup::correlation_id`]) into a
//!   [`FlightRecorder`](haan_obs::FlightRecorder). Disabled — the default —
//!   every instrumentation site is one branch on a `None`. See
//!   `docs/OBSERVABILITY.md` and `examples/observability.rs`.
//!
//! See `docs/SERVING.md` for the serving guide (engine and groups, admission
//! tuning, anchor-state lifetime, continuous batching) and `ARCHITECTURE.md`
//! for the diagrams.
//!
//! # Example
//!
//! Batched multi-stream decode over pooled K/V pages:
//!
//! ```
//! use haan_llm::{ModelConfig, TransformerModel};
//! use haan_serve::{ServeConfig, ServeEngine};
//!
//! let model = TransformerModel::new(&ModelConfig::tiny_test(), 42)?;
//! let engine = ServeEngine::start(ServeConfig::default());
//! let prompts: [&[u32]; 2] = [&[1, 5, 9], &[2, 4]];
//! let mut group = engine.decode_group(&model, &prompts)?;
//! group.decode(3)?; // 3 ticks × 2 streams, one batched call per site per tick
//! assert_eq!(group.generated(0).len(), 3);
//! assert_eq!(group.generated(1).len(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod engine;
pub mod error;
pub mod faults;
pub mod multi;

pub use admission::{AdmissionController, AdmissionDecision, AdmissionPolicy, AdmissionStats};
pub use engine::{KvPoolPolicy, ServeConfig, ServeEngine};
pub use error::ServeError;
pub use faults::{FaultInjector, FaultPlan, InjectedFaults, SeededFaults};
pub use haan_llm::{KvPrefix, PrefixStore, PrefixStoreStats};
pub use multi::{DecodeGroup, GroupStats, MigratedStream, StreamStatus};
