//! Laptop-scale transformer simulation substrate for the HAAN reproduction.
//!
//! The HAAN paper evaluates on pretrained LLaMA-7B / OPT-2.7B / GPT-2 checkpoints,
//! real downstream tasks and an A100 GPU. None of those fit this environment, so this
//! crate provides the closest synthetic equivalents that exercise the same code paths
//! (see `DESIGN.md` at the repository root for the substitution table):
//!
//! * [`tensor`] — a minimal row-major matrix type with the handful of operations a
//!   decoder-only transformer needs (matmul, softmax, GeLU), plus the
//!   panel layouts of the projection weights and the vocabulary head.
//! * [`pool`] — the process-wide [`WorkerPool`] that large products split
//!   their panel ranges over, started on first use.
//! * `math` (crate-private) — the f32 `exp` and `tanh` behind GeLU, SiLU and
//!   the softmax: branch-free, so their element loops vectorize, and
//!   independent of the host libm.
//! * [`norm`] — the [`Normalizer`] trait plus [`norm::ReferenceNormalizer`], the
//!   exact LayerNorm/RMSNorm that applies each site's own kind. The HAAN normalizer in the `haan` crate plugs into the
//!   same trait, so a model can be evaluated with either; [`norm::Composed`]
//!   wraps any normalizer to run its fused sites in the composed order.
//! * [`model`] / [`block`] / [`attention`] / [`mlp`] — a from-scratch Pre-LN
//!   decoder-only transformer with seeded random weights shaped so that the residual
//!   stream statistics evolve with depth the way the paper's Fig. 2 profiles show.
//! * [`config`] — model configurations mirroring the paper's subjects (LLaMA-7B,
//!   OPT-2.7B, GPT2-117M/355M/1.5B) plus laptop-scale variants that keep the *layer
//!   structure* (and therefore the normalization-layer count) while shrinking widths.
//! * [`activations`] — ISD/mean recording across normalization layers.
//! * [`synthetic`] — a direct generator of per-layer ISD profiles matching Fig. 2,
//!   used when only the statistics (not the activations) are needed.
//! * [`dataset`] — seeded synthetic token streams standing in for WikiText calibration
//!   data.
//! * [`tasks`] — synthetic multiple-choice suites standing in for PIQA, WinoGrande,
//!   HellaSwag and ARC-easy/challenge.
//! * [`runtime`] — an analytic GPU runtime-breakdown model reproducing Fig. 1(b).
//! * [`paging`] — the paged K/V subsystem: a shared [`KvBlockPool`] of fixed-size
//!   pages, per-stream page tables ([`PagedKvCache`]), and the
//!   [`EvictionPolicy`] of streams that outlive `max_seq_len`.
//! * [`prefix`] — the bounded LRU [`PrefixStore`] of interned, refcounted
//!   [`KvPrefix`] handles (content-addressed by [`prefix_fingerprint`]):
//!   refcount-0 entries past capacity are evicted and their pages returned to
//!   the pool, with typed hit/miss/eviction stats.
//! * [`streaming`] — [`StreamingModel`], the solo greedy decode stream that
//!   pushes every normalization site of each step through any [`Normalizer`].
//!   It rides the incremental forward-pass API ([`TransformerModel::start_decode`]
//!   / [`DecodeContext`]) so decode is O(seq) per token, with K/V rows paged out
//!   of a [`KvBlockPool`] (the full-recompute loop is kept as the parity oracle).
//!   Many streams advance in one batched pass through
//!   [`TransformerModel::advance_many`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activations;
pub mod attention;
pub mod block;
pub mod config;
pub mod dataset;
pub mod error;
pub mod init;
mod math;
pub mod mlp;
pub mod model;
pub mod norm;
pub mod paging;
pub mod pool;
pub mod prefix;
pub mod runtime;
pub mod streaming;
pub mod synthetic;
pub mod tasks;
pub mod tensor;

pub use attention::AttnScratch;
pub use config::{ModelConfig, ModelFamily, NormKind};
pub use error::LlmError;
pub use model::{DecodeContext, KvPrefix, TransformerModel};
pub use norm::Normalizer;
pub use paging::{AllocFaultHook, EvictionPolicy, KvBlockPool, PagedKvCache};
pub use pool::{host_threads, WorkerPool};
pub use prefix::{prefix_fingerprint, PrefixStore, PrefixStoreStats};
pub use streaming::StreamingModel;
pub use tensor::{Matrix, VocabHead};
