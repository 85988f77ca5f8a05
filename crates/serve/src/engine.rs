//! The serving engine: the state its decode groups share — admission, the K/V
//! block pools, the interned-prefix store, correlation IDs and the
//! observability sink — and the normalizer configuration each group builds its
//! own [`HaanNormalizer`] from.

use crate::admission::{AdmissionController, AdmissionPolicy, AdmissionStats};
use crate::error::ServeError;
use crate::faults::FaultInjector;
use crate::multi::DecodeGroup;
use haan::{HaanConfig, HaanNormalizer, SkipPlan};
use haan_llm::{KvBlockPool, KvPrefix, LlmError, PrefixStore, PrefixStoreStats, TransformerModel};
use haan_obs::{EventKind, ObsEvent, ObsSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration of a [`ServeEngine`].
///
/// Every field has a serviceable default, so partial construction works:
///
/// ```
/// use haan::HaanConfig;
/// use haan_serve::{KvPoolPolicy, ServeConfig};
///
/// let config = ServeConfig {
///     normalizer: HaanConfig::builder().subsample(64).build(),
///     kv_pool: KvPoolPolicy {
///         page_rows: 8,
///         ..Default::default()
///     },
///     ..Default::default()
/// };
/// assert!(config.plan.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The HAAN configuration every decode group builds its own normalizer
    /// from. Its backend (fused by default) runs in-process on the thread that
    /// ticks the group, so a group's output is bit-identical to direct
    /// `normalize_matrix_into` calls on a normalizer of the same configuration.
    pub normalizer: HaanConfig,
    /// Calibrated skip plan attached to every group's normalizer, if any.
    pub plan: Option<SkipPlan>,
    /// Sizing of the shared K/V block pools behind
    /// [`ServeEngine::decode_group`].
    pub kv_pool: KvPoolPolicy,
    /// Watermark policy of the admission controller gating new decode streams
    /// against live pool pressure (see [`AdmissionPolicy`]).
    pub admission: AdmissionPolicy,
    /// Per-tick bound on the catch-up rows (prompt or resume feed) each
    /// stream of every [`ServeEngine::decode_group`] drains inside the batched
    /// lockstep pass. 0 — the default — drains a stream's whole backlog on
    /// its activation tick; `K > 0` spreads an `L`-row feed over `⌈L/K⌉`
    /// ticks so a long prompt never stalls the other streams' next token.
    /// Tokens are the same either way ([`DecodeGroup::prefill_chunk_rows`]).
    pub prefill_chunk_rows: usize,
    /// Bound of the engine's interned-prefix LRU store
    /// ([`ServeEngine::intern_prefix`]): interning past this many resident
    /// prefixes evicts the least-recently-used entries **no stream currently
    /// maps** (refcount 0), returning their pages to the pool. 0 disables
    /// eviction (the pre-LRU pin-until-shutdown behavior, fine for a fixed
    /// set of system prompts). See [`PrefixStoreStats`].
    pub prefix_store_capacity: usize,
    /// Optional deterministic fault injector, threaded through pool allocation
    /// (see [`crate::faults`]). `None` in production; chaos drills install a
    /// [`SeededFaults`](crate::SeededFaults).
    pub faults: Option<Arc<dyn FaultInjector>>,
    /// Optional observability sink (see [`haan_obs`]): when installed it is
    /// threaded through the admission controller, every K/V pool, every
    /// decode group this engine starts and each group's normalizer — metrics,
    /// flight-recorder events, and span timings all flow into it. `None` (the
    /// default) keeps every instrumentation site a single branch.
    pub obs: Option<Arc<dyn ObsSink>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            normalizer: HaanConfig::default(),
            plan: None,
            kv_pool: KvPoolPolicy::default(),
            admission: AdmissionPolicy::default(),
            prefill_chunk_rows: 0,
            prefix_store_capacity: 64,
            faults: None,
            obs: None,
        }
    }
}

/// Sizing of the engine's shared [`KvBlockPool`]s: every decode stream the
/// engine starts borrows its K/V pages from one pool per embedding width, so
/// memory is bounded by the pool instead of `streams × max_seq × E`.
///
/// Sizing heuristic (see `ROADMAP.md`): `capacity_rows ≈ expected concurrent
/// streams × model blocks × expected live positions per stream`. Pool pages are
/// materialized lazily, so an over-provisioned capacity only bounds, it does
/// not allocate; an under-provisioned one surfaces as
/// [`LlmError::KvPoolExhausted`] on the stream that could not grow (never as a
/// panic, and never corrupting the stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvPoolPolicy {
    /// Rows per page. Smaller pages waste less slack per block/stream but grow
    /// page tables faster; 16 suits decode (1 row per step) with short prompts.
    pub page_rows: usize,
    /// Total K/V row pairs per pool (one pool per distinct embedding width).
    pub capacity_rows: usize,
}

impl Default for KvPoolPolicy {
    fn default() -> Self {
        Self {
            page_rows: 16,
            capacity_rows: 16_384,
        }
    }
}

/// Engine state every decode group keeps a handle on: the clock events are
/// stamped with, the sink, and the correlation-ID allocator.
#[derive(Debug)]
pub(crate) struct Shared {
    epoch: Instant,
    obs: Option<Arc<dyn ObsSink>>,
    /// Monotone correlation-ID allocator: every decode stream the engine
    /// starts draws a unique ID here, so flight-recorder events from all
    /// layers can be joined back into per-stream lifecycles.
    next_corr: AtomicU64,
}

impl Shared {
    pub(crate) fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// The installed observability sink, if any.
    pub(crate) fn obs(&self) -> Option<&Arc<dyn ObsSink>> {
        self.obs.as_ref()
    }

    /// Allocates the next stream correlation ID (1-based; deterministic in
    /// stream-creation order per engine).
    pub(crate) fn next_corr(&self) -> u64 {
        self.next_corr.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Emits one flight-recorder event stamped with the engine clock.
    /// A single branch when no sink is installed.
    pub(crate) fn emit(&self, stream: Option<u64>, kind: EventKind) {
        if let Some(obs) = &self.obs {
            obs.event(ObsEvent {
                t_us: self.now_us(),
                stream,
                kind,
            });
        }
    }
}

/// The serving engine.
///
/// An engine holds what its decode groups share: the admission controller,
/// one K/V block pool per embedding width, the interned-prefix store, the
/// correlation-ID allocator and the observability sink. It starts no thread.
/// Each [`DecodeGroup`] it creates owns a private [`HaanNormalizer`] built
/// from [`ServeConfig::normalizer`], [`ServeConfig::plan`] and
/// [`ServeConfig::obs`], so every normalization site of a tick runs on the
/// thread that ticks the group. See `ARCHITECTURE.md` ("Serving layer").
pub struct ServeEngine {
    shared: Arc<Shared>,
    haan: HaanConfig,
    plan: Option<SkipPlan>,
    /// Shared K/V block pools of the engine's decode streams, one per distinct
    /// embedding width (created on first use).
    kv_pools: Mutex<Vec<Arc<KvBlockPool>>>,
    kv_pool_policy: KvPoolPolicy,
    /// Admission controller shared by every group this engine starts.
    admission: Arc<AdmissionController>,
    /// Per-tick prompt-chunk bound handed to every decode group.
    prefill_chunk_rows: usize,
    /// Content-addressed interned K/V prefixes: a bounded LRU — entries past
    /// [`ServeConfig::prefix_store_capacity`] are evicted once no stream maps
    /// them, returning their pages to the pool (see [`PrefixStore`]).
    prefixes: PrefixStore,
    /// Fault injector installed into every pool this engine creates.
    faults: Option<Arc<dyn FaultInjector>>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("admission", &self.admission_stats())
            .field("prefixes", &self.prefix_store_len())
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Starts an engine from `config`.
    #[must_use]
    pub fn start(config: ServeConfig) -> Self {
        let admission =
            Arc::new(AdmissionController::new(config.admission).with_obs_sink(config.obs.clone()));
        Self {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                obs: config.obs,
                next_corr: AtomicU64::new(0),
            }),
            haan: config.normalizer,
            plan: config.plan,
            kv_pools: Mutex::new(Vec::new()),
            kv_pool_policy: config.kv_pool,
            admission,
            prefill_chunk_rows: config.prefill_chunk_rows,
            prefixes: PrefixStore::new(config.prefix_store_capacity),
            faults: config.faults,
        }
    }

    /// A fresh normalizer of the engine's configuration, skip plan and sink.
    fn normalizer(&self) -> HaanNormalizer {
        let mut normalizer = HaanNormalizer::new(self.haan.clone());
        if let Some(plan) = self.plan {
            normalizer = normalizer.with_plan(plan);
        }
        normalizer.set_obs_sink(self.shared.obs.clone());
        normalizer
    }

    /// The engine's shared K/V block pool for streams of the given embedding
    /// width, created (lazily, sized by [`KvPoolPolicy`]) on first use. Every
    /// stream of [`ServeEngine::decode_group`] borrows its pages here, so
    /// concurrent streams share one bounded arena instead of each
    /// preallocating `max_seq × E` per block.
    #[must_use]
    pub fn kv_pool(&self, embedding_dim: usize) -> Arc<KvBlockPool> {
        // Poison recovery: the registry only ever grows by fully constructed
        // pools, so no half-built state can leak past a panicking thread.
        let mut pools = haan_obs::lock_recover(&self.kv_pools);
        if let Some(pool) = pools
            .iter()
            .find(|pool| pool.embedding_dim() == embedding_dim)
        {
            return Arc::clone(pool);
        }
        let pool = KvBlockPool::shared(
            self.kv_pool_policy.capacity_rows.max(1),
            self.kv_pool_policy.page_rows.max(1),
            embedding_dim,
        );
        if let Some(injector) = &self.faults {
            let injector = Arc::clone(injector);
            pool.set_alloc_fault(Some(Arc::new(move |requested, free| {
                injector.on_pool_alloc(requested, free)
            })));
        }
        if let Some(obs) = self.shared.obs() {
            pool.set_obs_sink(Some(Arc::clone(obs)));
        }
        pools.push(Arc::clone(&pool));
        pool
    }

    /// The engine's admission controller (shared with every
    /// [`DecodeGroup`] it starts).
    #[must_use]
    pub fn admission(&self) -> Arc<AdmissionController> {
        Arc::clone(&self.admission)
    }

    /// Admission telemetry accumulated so far (offered / admitted / queued /
    /// shed stream counts).
    #[must_use]
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Microseconds elapsed on the engine clock, the time base of its
    /// flight-recorder events.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.shared.now_us()
    }

    /// Starts a **batched multi-stream** decode group: `prompts.len()` KV-cached
    /// streams that advance in lockstep, one token per stream per
    /// [`DecodeGroup::step_all`] tick. Each tick gathers every ready stream and
    /// runs one incremental pass over the stacked rows, so the group's own
    /// normalizer executes **one batched call per site with one row per
    /// stream**. A single stream is a group of one. K/V pages come from the
    /// engine's shared pool; tokens are bit-identical to each stream decoding
    /// alone (see `tests/kv_decode.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when `prompts` is empty or any
    /// prompt is empty, too long for the model, or out of vocabulary.
    ///
    /// # Examples
    ///
    /// ```
    /// use haan_llm::{ModelConfig, TransformerModel};
    /// use haan_serve::{ServeConfig, ServeEngine};
    ///
    /// let model = TransformerModel::new(&ModelConfig::tiny_test(), 42)?;
    /// let engine = ServeEngine::start(ServeConfig::default());
    /// let mut group = engine.decode_group(&model, &[&[1, 5, 9]])?;
    /// let tick = group.step_all()?; // one O(seq) forward pass, in-process
    /// assert_eq!(group.generated(0), &[tick[0].unwrap()]);
    /// // The stream's K/V pages live in the engine's shared pool.
    /// assert!(engine.kv_pool(model.config().embedding_dim).pages_in_use() > 0);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn decode_group<'m>(
        &self,
        model: &'m TransformerModel,
        prompts: &[&[u32]],
    ) -> Result<DecodeGroup<'m>, ServeError> {
        if prompts.is_empty() {
            return Err(ServeError::InvalidRequest(
                "a decode group needs at least one prompt".to_string(),
            ));
        }
        self.group_of(model, prompts)
    }

    /// Starts a decode group with **no streams**: the routing-tier entry
    /// point. A router owns one empty group per engine and feeds it entirely
    /// through [`DecodeGroup::add_stream`] / [`DecodeGroup::adopt_stream`], so
    /// membership is decided per stream at placement time instead of at
    /// construction.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when the engine's pool width
    /// does not match the model.
    pub fn empty_decode_group<'m>(
        &self,
        model: &'m TransformerModel,
    ) -> Result<DecodeGroup<'m>, ServeError> {
        self.group_of(model, &[])
    }

    fn group_of<'m>(
        &self,
        model: &'m TransformerModel,
        prompts: &[&[u32]],
    ) -> Result<DecodeGroup<'m>, ServeError> {
        let pool = self.kv_pool(model.config().embedding_dim);
        DecodeGroup::new(
            Arc::clone(&self.shared),
            self.normalizer(),
            &pool,
            model,
            prompts,
            self.admission(),
            self.prefill_chunk_rows,
        )
    }

    /// Re-bases the engine's correlation-ID allocator: the next stream draws
    /// `base + 1`, then `base + 2`, and so on. A router gives each member
    /// engine a disjoint base (e.g. `group_index << 32`) so one shared
    /// [`ObsSink`] sees fleet-unique stream IDs — and a migrated stream,
    /// which keeps its ID across groups, still reads as one lifecycle.
    ///
    /// Call before the engine starts streams; re-basing later can re-issue
    /// IDs already in use.
    pub fn set_correlation_base(&self, base: u64) {
        self.shared.next_corr.store(base, Ordering::SeqCst);
    }

    /// Interns the whole-page prefix of `tokens` for `model`, returning the
    /// engine-wide shared handle. Content-equal prefixes (same model, same
    /// leading tokens) always return the same `Arc`: the first call prefills
    /// the shared rows once through a fresh normalizer of the engine's
    /// configuration and exports their K/V pages
    /// ([`DecodeContext::export_prefix`](haan_llm::DecodeContext::export_prefix));
    /// every later call — and every stream attached via
    /// [`DecodeGroup::add_stream_with_prefix`] — maps those same refcounted
    /// pages instead of recomputing them. Only `⌊len / page_rows⌋ × page_rows`
    /// leading tokens are shared (whole pages only, so sharers never write a
    /// shared page); feed the remainder as part of each stream's suffix.
    ///
    /// The store is a bounded LRU ([`ServeConfig::prefix_store_capacity`]):
    /// interning past the bound evicts the least-recently-used prefixes no
    /// stream currently maps, returning their pages to the pool (each evicted
    /// entry emits a `prefix_evict` flight-recorder event). Explicit
    /// reclamation is [`ServeEngine::release_prefix`]; counters are
    /// [`ServeEngine::prefix_store_stats`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when the tokens fail validation
    /// or are too few to fill one page, and [`ServeError::Shed`] when the pool
    /// has no room to materialize the prefix right now (retry after the hint).
    pub fn intern_prefix(
        &self,
        model: &TransformerModel,
        tokens: &[u32],
    ) -> Result<Arc<KvPrefix>, ServeError> {
        let pool = self.kv_pool(model.config().embedding_dim);
        let page_rows = pool.page_rows();
        let shared_rows = (tokens.len() / page_rows) * page_rows;
        if shared_rows == 0 {
            return Err(ServeError::InvalidRequest(format!(
                "a prefix of {} tokens fills no whole page (page_rows = {page_rows})",
                tokens.len()
            )));
        }
        let shared_tokens = &tokens[..shared_rows];
        model
            .validate_tokens(shared_tokens)
            .map_err(|err| ServeError::InvalidRequest(err.to_string()))?;
        if let Some(existing) = self.prefixes.lookup(model.seed(), &pool, shared_tokens) {
            if let Some(obs) = self.shared.obs() {
                obs.counter_add("serve.prefix.hits", 1);
            }
            return Ok(existing);
        }
        // Miss: materialize outside the store lock (the prefill runs a whole
        // forward pass). A racing thread may intern the same prefix meanwhile;
        // the insert below keeps the store canonical and drops our duplicate
        // (releasing its pages).
        let mut context = model
            .start_decode_in(&pool)
            .map_err(|err| ServeError::InvalidRequest(err.to_string()))?;
        context
            .prefill_last(shared_tokens, &mut self.normalizer())
            .map_err(|err| match err {
                LlmError::KvPoolExhausted {
                    requested_pages,
                    free_pages,
                } => {
                    self.shared.emit(
                        None,
                        EventKind::PoolExhausted {
                            requested_pages: requested_pages as u64,
                            free_pages: free_pages as u64,
                        },
                    );
                    ServeError::Shed {
                        retry_after_us: self.admission.policy().retry_after_us,
                    }
                }
                other => ServeError::InvalidRequest(other.to_string()),
            })?;
        let prefix = Arc::new(
            context
                .export_prefix()
                .map_err(|err| ServeError::InvalidRequest(err.to_string()))?,
        );
        let (canonical, evicted) = self.prefixes.insert(Arc::clone(&prefix));
        if let Some(obs) = self.shared.obs() {
            // A racing thread may have interned first; only the winner counts.
            if Arc::ptr_eq(&canonical, &prefix) {
                obs.counter_add("serve.prefix.interned", 1);
            }
        }
        for victim in evicted {
            if let Some(obs) = self.shared.obs() {
                obs.counter_add("serve.prefix.evictions", 1);
            }
            self.shared.emit(
                None,
                EventKind::PrefixEvict {
                    rows: victim.rows() as u64,
                },
            );
        }
        Ok(canonical)
    }

    /// Removes the interned prefix covering `tokens` (whole-page truncated,
    /// exactly as [`ServeEngine::intern_prefix`] would intern it) from the
    /// engine's prefix store, returning whether one was resident. Streams
    /// already attached keep their shared pages; the pages return to the pool
    /// once the last such stream drops (immediately, when none is attached).
    /// This is the explicit-reclamation path for fixed-set callers; the LRU
    /// bound ([`ServeConfig::prefix_store_capacity`]) is the automatic one.
    pub fn release_prefix(&self, model: &TransformerModel, tokens: &[u32]) -> bool {
        let pool = self.kv_pool(model.config().embedding_dim);
        let page_rows = pool.page_rows();
        let shared_rows = (tokens.len() / page_rows) * page_rows;
        if shared_rows == 0 {
            return false;
        }
        self.prefixes
            .release(model.seed(), &pool, &tokens[..shared_rows])
    }

    /// Counter snapshot of the engine's interned-prefix store (hits / misses /
    /// interned / evictions / released).
    #[must_use]
    pub fn prefix_store_stats(&self) -> PrefixStoreStats {
        self.prefixes.stats()
    }

    /// Prefixes currently resident in the engine's interned-prefix store.
    #[must_use]
    pub fn prefix_store_len(&self) -> usize {
        self.prefixes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, SeededFaults};
    use crate::StreamStatus;
    use haan::BackendSelection;
    use haan_llm::ModelConfig;
    use haan_obs::Obs;

    fn fused_config() -> ServeConfig {
        ServeConfig {
            normalizer: HaanConfig::builder()
                .backend(BackendSelection::Fused)
                .build(),
            ..Default::default()
        }
    }

    fn model() -> TransformerModel {
        TransformerModel::new(&ModelConfig::tiny_test(), 42).unwrap()
    }

    #[test]
    fn standalone_streams_shed_when_the_pool_is_hot() {
        // A standalone stream is a group of one with no room to queue in.
        let model = model();
        let blocks = model.config().num_blocks;
        let engine = ServeEngine::start(ServeConfig {
            // 4 pages of 4 rows; the watermark (0.75) allows 3 pages.
            kv_pool: KvPoolPolicy {
                page_rows: 4,
                capacity_rows: 16,
            },
            admission: AdmissionPolicy {
                max_queued: 0,
                ..Default::default()
            },
            ..fused_config()
        });
        // tiny_test has 4 blocks: even a 1-token prompt estimates 4 pages > 3.
        assert_eq!(blocks, 4);
        let mut group = engine.decode_group(&model, &[&[1]]).unwrap();
        assert_eq!(group.status(0), StreamStatus::Shed);
        assert_eq!(group.step_all().unwrap(), vec![None]);
        let stats = engine.admission_stats();
        assert_eq!((stats.offered, stats.shed, stats.admitted), (1, 1, 0));
    }

    #[test]
    fn interning_is_content_addressed() {
        let model = model();
        let engine = ServeEngine::start(fused_config());
        let prompt: Vec<u32> = (0..20).map(|i| i % 7).collect();
        let a = engine.intern_prefix(&model, &prompt).unwrap();
        // Only the whole 16-row page is interned, so a different tail shares it.
        let mut other_tail = prompt.clone();
        other_tail[17] = 3;
        let b = engine.intern_prefix(&model, &other_tail).unwrap();
        let mut other_head = prompt.clone();
        other_head[0] = 5;
        let c = engine.intern_prefix(&model, &other_head).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "equal content must share the Arc");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(engine.prefix_store_len(), 2);
    }

    #[test]
    fn an_installed_sink_sees_group_phases_site_counters_and_fault_events() {
        let model = model();
        let obs = Obs::shared(256);
        let faults = Arc::new(SeededFaults::new(
            11,
            FaultPlan {
                exhaust_probability: 1.0,
                max_exhaustions: 1,
            },
        ));
        let engine = ServeEngine::start(ServeConfig {
            obs: Some(Arc::clone(&obs) as Arc<dyn ObsSink>),
            faults: Some(faults.clone()),
            ..fused_config()
        });
        let mut group = engine.decode_group(&model, &[&[1, 2, 3]]).unwrap();
        // Tick 1's pass hits the injected exhaustion and the activation goes
        // back to the queue; tick 2's pass prefills, tick 3's decodes. Only
        // the two passes that committed are timed.
        assert_eq!(group.decode(3).unwrap(), 2);
        assert_eq!(faults.injected().exhaustions, 1);
        let snapshot = obs.export();
        assert_eq!(
            snapshot
                .histogram("group.phase.advance_ns")
                .map(|h| h.count),
            Some(2)
        );
        // The group's own normalizer reports into the engine's sink.
        let last_site = model.num_norm_layers() - 1;
        for site in [0, last_site] {
            let rows = snapshot.counter(&format!("haan.exact.site_{site}"));
            assert!(rows.is_some_and(|rows| rows > 0), "site {site}: {rows:?}");
        }
        assert_eq!(snapshot.counter("pool.exhaustions"), Some(1));
        let labels: Vec<&str> = obs
            .recorder()
            .events()
            .iter()
            .map(|e| e.kind.label())
            .collect();
        assert!(labels.contains(&"pool_exhausted"));
        assert!(labels.contains(&"activate"));
    }

    #[test]
    fn debug_impl_reports_state() {
        let engine = ServeEngine::start(fused_config());
        let rendered = format!("{engine:?}");
        assert!(rendered.contains("ServeEngine"));
    }
}
