//! Routing tier of the HAAN reproduction: many decode groups, one front door.
//!
//! A single [`DecodeGroup`] batches every stream
//! through one engine and one K/V pool. Real serving fleets shard: each
//! *group* (engine + pool + admission) is an independent failure and capacity
//! domain, and a **router** in front decides which group each session lands
//! on. This crate adds that tier on top of `haan_serve` without touching the
//! bit-identity contract — every routed stream still decodes exactly the
//! tokens its solo full-recompute oracle would.
//!
//! * **Placement** — [`Router::place`] admits a prompt into one of N groups
//!   under a [`PlacementPolicy`]: [`PlacementPolicy::LeastLoaded`] picks the
//!   group with the most free pool pages (ties: fewer live streams, then
//!   lowest index), [`PlacementPolicy::PrefixAffinity`] routes prompts that
//!   share an interned prefix to the group already holding its K/V pages —
//!   sharing is per-pool, so affinity is what makes cross-stream prefix reuse
//!   actually happen in a sharded fleet — and falls back to least-loaded.
//! * **Automatic prefix detection** — the router fingerprints every
//!   whole-page prefix of the prompts it sees ([`prefix_fingerprint`]); a
//!   prefix observed [`RouterConfig::auto_prefix_min_count`] times is
//!   promoted: interned once on the chosen group (through the engine's
//!   bounded LRU [`PrefixStore`](haan_llm::PrefixStore)) and attached by
//!   every later sharer instead of being recomputed per stream.
//! * **Rebalancing** — [`Router::migrate`] moves a live stream between groups
//!   over the bit-identical park/resume seam
//!   ([`DecodeGroup::extract_stream`] / [`DecodeGroup::adopt_stream`]):
//!   the victim parks (pages freed at the source), re-queues at the
//!   destination, and transparently re-prefills there on the next tick.
//!   [`Router::rebalance`] automates the policy (move queued streams from the
//!   most pressured group to the slackest one while the move can actually
//!   seat them); [`Router::drain_group`] evacuates every live stream of a
//!   failing group — the chaos-drill primitive. A migration retires its
//!   source tombstone, so the source group reuses the slot.
//! * **Recycling** — [`Router::retire`] hands a finished, cancelled or shed
//!   session back: it returns the tokens and frees both the group slot and
//!   the router's session record for reuse. [`SessionId`]s carry a
//!   generation, so a retired id reads as [`StreamStatus::Retired`] (or is
//!   refused with [`ServeError::Retired`]) and never reaches the session
//!   that reuses its slot. A fleet whose caller retires every session it is
//!   done with holds state for the sessions in flight only.
//! * **Fleet ticks** — [`Router::step_all`] ticks every group on the calling
//!   thread; [`Router::step_all_concurrent`] moves groups onto other cores
//!   only when their tick work (active streams × model parameters) passes
//!   [`TICK_THREAD_MIN_WORK`], the caller always ticking the first range of
//!   groups itself.
//! * **Observability** — with a sink installed on the member engines the
//!   router emits `router.*` counters (`router.placed`,
//!   `router.prefix_hits`, `router.prefix_misses`, `router.auto_interned`,
//!   `router.migrations`, `router.tick_threads`), the `router.groups` gauge, and `place` / `migrate`
//!   flight-recorder events keyed by the stream's fleet-unique correlation ID
//!   (each member engine gets a disjoint ID base, and a migrated stream keeps
//!   its ID across groups — one lifecycle, end to end).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use haan_llm::{
    host_threads, prefix_fingerprint, KvBlockPool, KvPrefix, LlmError, TransformerModel,
};
use haan_obs::{EventKind, ObsEvent, ObsSink};
use haan_serve::{DecodeGroup, GroupStats, ServeConfig, ServeEngine, ServeError, StreamStatus};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

/// How [`Router::place`] chooses a group for a new prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The group with the most free pool pages (ties broken by fewer live
    /// streams, then lowest index). Ignores prefix locality entirely — the
    /// baseline the affinity policy is benchmarked against.
    LeastLoaded,
    /// Route a prompt that starts with an interned prefix to the group
    /// already holding that prefix's K/V pages, so sharers attach instead of
    /// recomputing; prompts with no interned prefix fall back to
    /// least-loaded.
    #[default]
    PrefixAffinity,
}

/// Router construction knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The placement policy (default [`PlacementPolicy::PrefixAffinity`]).
    pub placement: PlacementPolicy,
    /// Promote a whole-page prompt prefix to an interned shared prefix once
    /// it has been observed this many times (default 2; `0` disables
    /// automatic detection — only benches that want a pure least-loaded
    /// baseline without sharing turn it off).
    pub auto_prefix_min_count: usize,
    /// Upper bound on distinct candidate prefixes tracked while counting
    /// recurrences (default 4096). New candidates past the bound are ignored
    /// until old ones promote; already-counted candidates keep counting.
    pub max_tracked_prefixes: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            placement: PlacementPolicy::PrefixAffinity,
            auto_prefix_min_count: 2,
            max_tracked_prefixes: 4096,
        }
    }
}

/// Opaque handle to a routed session, returned by [`Router::place`]. Stays
/// valid across migrations — the router tracks where the stream currently
/// lives — until [`Router::retire`] hands the session back. The handle
/// carries its record's generation, so a retired handle never addresses the
/// session that reuses its record or its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    index: usize,
    generation: u64,
    corr: u64,
}

/// What [`Router::location`] returns for a retired [`SessionId`]: an index
/// no group or slot has.
pub const RETIRED_LOCATION: (usize, usize) = (usize::MAX, usize::MAX);

/// Router-level counters (the same numbers the `router.*` metrics export).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Sessions placed.
    pub placed: u64,
    /// Placements that attached to an interned prefix (shared K/V pages).
    pub prefix_hits: u64,
    /// Placements that prefilled their whole prompt (no usable prefix on the
    /// chosen group).
    pub prefix_misses: u64,
    /// Prefixes the detector promoted and interned.
    pub auto_interned: u64,
    /// Streams moved between groups ([`Router::migrate`], including
    /// [`Router::rebalance`] and [`Router::drain_group`]).
    pub migrations: u64,
    /// Threads [`Router::step_all_concurrent`] spawned, summed over its
    /// ticks: `parts − 1` per tick split into `parts` ranges, 0 for a tick
    /// the caller ran inline.
    pub tick_threads: u64,
}

impl RouterStats {
    /// Fraction of placements that attached to a shared prefix (0.0 before
    /// any placement).
    #[must_use]
    pub fn prefix_hit_rate(&self) -> f64 {
        if self.placed == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / self.placed as f64
        }
    }
}

/// Per-group plus fleet-aggregated decode statistics
/// ([`Router::fleet_stats`]).
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Each member group's own counters, in group order.
    pub groups: Vec<GroupStats>,
    /// Field-wise sums across the fleet. `totals.mean_tick_occupancy_rows()`
    /// is zero-guarded like any [`GroupStats`] — a fleet that never ticked
    /// reports `0.0`, not NaN.
    pub totals: GroupStats,
}

/// The result of one fleet tick ([`Router::step_all`]).
#[derive(Debug)]
pub struct RouterTick {
    /// Per group, per stream slot: the token decoded this tick (`None` for
    /// slots that did not advance — queued, finished, shed, cancelled,
    /// migrated tombstones, or every slot of an exhausted group).
    pub tokens: Vec<Vec<Option<u32>>>,
    /// Groups whose tick failed with
    /// [`LlmError::KvPoolExhausted`] this round. Their streams did not
    /// advance (the failed tick rolled back, retry-safely) but the rest of
    /// the fleet did — a dry pool in one group never stalls the others.
    /// Feed these to [`Router::drain_group`] to evacuate.
    pub exhausted_groups: Vec<usize>,
}

/// Smallest per-group tick work, in active streams × model parameters, for
/// which [`Router::step_all_concurrent`] ticks a group off the calling
/// thread. Measured on a 2-core AVX2 host with 2-group fleets of the E=64
/// serving model (98,816 parameters) under the default [`ServeConfig`]: a
/// second thread ticks a fleet 1.7–2.6× slower than the caller alone at 1
/// decoding stream per group, breaks even at 3–5 streams, and takes 0.7–0.8× of
/// the inline time at 8 and 0.67× at 16. The probe is noisy (one run still
/// lost at 8), so the gate sits at 8 streams of that model: `serve_mixed`-
/// shaped fleets (a few live streams per group) never spawn, while the
/// 16-stream groups of `bench_report`'s routing fleet do.
pub const TICK_THREAD_MIN_WORK: usize = 8 * 98_816;

/// The contiguous group ranges one [`Router::step_all_concurrent`] tick runs
/// in parallel, given each group's active streams and the model's parameter
/// count. A group is heavy when `active × params` reaches
/// [`TICK_THREAD_MIN_WORK`]; the tick runs `parts = min(heavy groups, host
/// threads)` ranges. With `parts ≤ 1` it is one range over the whole fleet.
/// Otherwise range `i` starts at the heavy group of rank `i · heavy / parts`,
/// so every range holds an equal share of the heavy groups (±1) and a light
/// group rides in the range of the heavy group before it (the first range
/// when none is). `threads` is asked only when at least two groups are heavy.
fn tick_ranges(
    active: &[usize],
    params: usize,
    threads: impl FnOnce() -> usize,
) -> Vec<Range<usize>> {
    let heavy: Vec<usize> = (0..active.len())
        .filter(|&g| active[g].saturating_mul(params) >= TICK_THREAD_MIN_WORK)
        .collect();
    let parts = if heavy.len() > 1 {
        heavy.len().min(threads())
    } else {
        1
    };
    let start = |i: usize| {
        if i == 0 {
            0
        } else if i == parts {
            active.len()
        } else {
            heavy[i * heavy.len() / parts]
        }
    };
    (0..parts).map(|i| start(i)..start(i + 1)).collect()
}

/// A recurring-prefix candidate under observation.
#[derive(Debug)]
struct Candidate {
    tokens: Vec<u32>,
    count: usize,
}

/// Streaming detector of recurring whole-page prompt prefixes: counts
/// fingerprint recurrences and promotes the longest prefix that reaches the
/// threshold.
#[derive(Debug)]
struct PrefixIndex {
    min_count: usize,
    page_rows: usize,
    max_tracked: usize,
    counts: HashMap<u64, Candidate>,
    promoted: HashSet<u64>,
}

impl PrefixIndex {
    fn new(min_count: usize, page_rows: usize, max_tracked: usize) -> Self {
        Self {
            min_count,
            page_rows,
            max_tracked,
            counts: HashMap::new(),
            promoted: HashSet::new(),
        }
    }

    /// Counts every whole-page prefix of `prompt`; returns the longest one
    /// that just reached the promotion threshold (at most one per call). A
    /// promoted prefix stops being tracked — the router interns it and serves
    /// later sharers from the interned map.
    fn observe(&mut self, model_seed: u64, prompt: &[u32]) -> Option<Vec<u32>> {
        if self.min_count == 0 {
            return None;
        }
        let mut best: Option<u64> = None;
        let mut len = (prompt.len() / self.page_rows) * self.page_rows;
        while len > 0 {
            let tokens = &prompt[..len];
            let fp = prefix_fingerprint(model_seed, tokens);
            len -= self.page_rows;
            if self.promoted.contains(&fp) {
                // The prompt extends a prefix that already promoted; every
                // shorter prefix is subsumed by it — stop counting them, or
                // each cohort would re-promote all its own sub-prefixes.
                break;
            }
            let candidate = match self.counts.get_mut(&fp) {
                Some(candidate) => candidate,
                None => {
                    if self.counts.len() >= self.max_tracked {
                        continue;
                    }
                    self.counts.entry(fp).or_insert(Candidate {
                        tokens: tokens.to_vec(),
                        count: 0,
                    })
                }
            };
            // Fingerprints bucket, content decides: a colliding prefix is
            // simply not counted.
            if candidate.tokens != tokens {
                continue;
            }
            candidate.count += 1;
            if candidate.count >= self.min_count && best.is_none() {
                best = Some(fp);
            }
        }
        let fp = best?;
        self.promoted.insert(fp);
        self.counts.remove(&fp).map(|c| c.tokens)
    }
}

/// An interned prefix and the group whose pool holds its pages.
#[derive(Debug)]
struct InternedPrefix {
    group: usize,
    prefix: Arc<KvPrefix>,
}

/// Where a routed session currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Placement {
    group: usize,
    slot: usize,
}

/// One session record: reused after [`Router::retire`], with the generation
/// bumped so the retired [`SessionId`] stops matching.
#[derive(Debug)]
struct SessionRecord {
    generation: u64,
    /// `None` while the record is free.
    placement: Option<Placement>,
}

/// One member of the fleet: an engine, its (initially empty) decode group,
/// and the group's K/V pool.
#[derive(Debug)]
struct RouterGroup<'m> {
    group: DecodeGroup<'m>,
    pool: Arc<KvBlockPool>,
    engine: ServeEngine,
}

/// A multi-group session router: N independent engine+pool groups behind one
/// placement, rebalancing, and draining front door. See the [module
/// docs](self) for the policy catalogue.
#[derive(Debug)]
pub struct Router<'m> {
    model: &'m TransformerModel,
    groups: Vec<RouterGroup<'m>>,
    sessions: Vec<SessionRecord>,
    /// Records freed by [`Router::retire`], reused lowest first.
    free_sessions: BTreeSet<usize>,
    interned: HashMap<u64, InternedPrefix>,
    index: PrefixIndex,
    placement: PlacementPolicy,
    obs: Option<Arc<dyn ObsSink>>,
    stats: RouterStats,
}

impl<'m> Router<'m> {
    /// Builds a router with one group per entry of `group_configs`: each
    /// config starts its own [`ServeEngine`] (own pool, own admission) and one
    /// decode group with its own normalizer. Group `i`'s correlation IDs are re-based to `i << 32`, so one
    /// shared sink sees fleet-unique stream IDs. The router's own events and
    /// counters go to the first config's sink (install the same `Arc` on
    /// every group for a fleet-wide view).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when `group_configs` is empty
    /// or a group cannot open a decode group for `model`.
    pub fn new(
        model: &'m TransformerModel,
        group_configs: Vec<ServeConfig>,
        config: RouterConfig,
    ) -> Result<Self, ServeError> {
        if group_configs.is_empty() {
            return Err(ServeError::InvalidRequest(
                "a router needs at least one group".to_string(),
            ));
        }
        let obs = group_configs[0].obs.clone();
        let mut groups = Vec::with_capacity(group_configs.len());
        for (i, cfg) in group_configs.into_iter().enumerate() {
            let engine = ServeEngine::start(cfg);
            engine.set_correlation_base((i as u64) << 32);
            let group = engine.empty_decode_group(model)?;
            let pool = engine.kv_pool(model.config().embedding_dim);
            groups.push(RouterGroup {
                group,
                pool,
                engine,
            });
        }
        let page_rows = groups[0].pool.page_rows();
        if let Some(sink) = &obs {
            sink.gauge_set("router.groups", groups.len() as f64);
        }
        Ok(Self {
            model,
            groups,
            sessions: Vec::new(),
            free_sessions: BTreeSet::new(),
            interned: HashMap::new(),
            index: PrefixIndex::new(
                config.auto_prefix_min_count,
                page_rows,
                config.max_tracked_prefixes,
            ),
            placement: config.placement,
            obs,
            stats: RouterStats::default(),
        })
    }

    /// [`Router::new`] with `n` identical groups cloned from `serve`.
    ///
    /// # Errors
    ///
    /// As [`Router::new`] (an `n` of zero is an empty fleet).
    pub fn with_uniform_groups(
        model: &'m TransformerModel,
        n: usize,
        serve: &ServeConfig,
        config: RouterConfig,
    ) -> Result<Self, ServeError> {
        Self::new(model, vec![serve.clone(); n], config)
    }

    /// Number of member groups.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The model the fleet decodes.
    #[must_use]
    pub fn model(&self) -> &'m TransformerModel {
        self.model
    }

    /// Group `index`'s engine (pool, admission, prefix store, clock).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn engine(&self, index: usize) -> &ServeEngine {
        &self.groups[index].engine
    }

    /// Group `index`'s decode group (read access — placement goes through
    /// [`Router::place`]).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of bounds.
    #[must_use]
    pub fn group(&self, index: usize) -> &DecodeGroup<'m> {
        &self.groups[index].group
    }

    /// The router's own counters.
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Per-group and fleet-total decode statistics.
    #[must_use]
    pub fn fleet_stats(&self) -> FleetStats {
        let groups: Vec<GroupStats> = self.groups.iter().map(|g| g.group.stats()).collect();
        let mut totals = GroupStats::default();
        for s in &groups {
            totals.offered += s.offered;
            totals.admitted += s.admitted;
            totals.queued += s.queued;
            totals.shed += s.shed;
            totals.preemptions += s.preemptions;
            totals.resumes += s.resumes;
            totals.resume_reprefill_rows += s.resume_reprefill_rows;
            totals.completed += s.completed;
            totals.ticks += s.ticks;
            totals.joins += s.joins;
            totals.leaves += s.leaves;
            totals.occupied_rows += s.occupied_rows;
        }
        FleetStats { groups, totals }
    }

    /// Where session `id` currently lives, or `None` once it is retired.
    fn placement(&self, id: SessionId) -> Option<Placement> {
        self.sessions
            .get(id.index)
            .filter(|record| record.generation == id.generation)
            .and_then(|record| record.placement)
    }

    /// Where session `id` currently lives: `(group, slot)`. Migration changes
    /// this; the [`SessionId`] itself never does. A retired id returns
    /// [`RETIRED_LOCATION`].
    #[must_use]
    pub fn location(&self, id: SessionId) -> (usize, usize) {
        self.placement(id)
            .map_or(RETIRED_LOCATION, |p| (p.group, p.slot))
    }

    /// Session `id`'s lifecycle status at its current group
    /// ([`StreamStatus::Retired`] once retired).
    #[must_use]
    pub fn status(&self, id: SessionId) -> StreamStatus {
        self.placement(id).map_or(StreamStatus::Retired, |p| {
            self.groups[p.group].group.status(p.slot)
        })
    }

    /// Session `id`'s full token buffer (prompt followed by generated
    /// tokens), wherever it currently lives; empty once retired.
    #[must_use]
    pub fn tokens(&self, id: SessionId) -> &[u32] {
        self.placement(id)
            .map_or(&[], |p| self.groups[p.group].group.tokens(p.slot))
    }

    /// Session `id`'s generated tokens (excluding the prompt); empty once
    /// retired.
    #[must_use]
    pub fn generated(&self, id: SessionId) -> &[u32] {
        self.placement(id)
            .map_or(&[], |p| self.groups[p.group].group.generated(p.slot))
    }

    /// Session `id`'s fleet-unique correlation ID (constant across
    /// migrations, and still the key of its flight-recorder events after it
    /// is retired).
    #[must_use]
    pub fn correlation_id(&self, id: SessionId) -> u64 {
        id.corr
    }

    /// The group with the most free pool pages (ties: fewer live streams,
    /// then lowest index), optionally excluding one group.
    fn least_loaded(&self, exclude: Option<usize>) -> usize {
        let mut best = usize::MAX;
        let mut best_key = (0usize, usize::MAX);
        for (i, g) in self.groups.iter().enumerate() {
            if Some(i) == exclude {
                continue;
            }
            // More free pages wins; fewer ready streams breaks ties (so an
            // idle fleet round-robins instead of piling onto group 0).
            let key = (g.pool.pages_free(), usize::MAX - g.group.ready_streams());
            if best == usize::MAX || key > best_key {
                best = i;
                best_key = key;
            }
        }
        best
    }

    /// The longest interned prefix of `prompt` (any group, or a specific
    /// one).
    fn lookup_interned(
        &self,
        prompt: &[u32],
        on_group: Option<usize>,
    ) -> Option<(usize, Arc<KvPrefix>)> {
        let page_rows = self.index.page_rows;
        let model_seed = self.model.seed();
        let mut len = (prompt.len() / page_rows) * page_rows;
        while len > 0 {
            let fp = prefix_fingerprint(model_seed, &prompt[..len]);
            if let Some(entry) = self.interned.get(&fp) {
                if entry.prefix.tokens() == &prompt[..len]
                    && on_group.is_none_or(|g| g == entry.group)
                {
                    return Some((entry.group, Arc::clone(&entry.prefix)));
                }
            }
            len -= page_rows;
        }
        None
    }

    fn emit(&self, group: usize, corr: u64, kind: EventKind) {
        if let Some(sink) = &self.obs {
            sink.event(ObsEvent {
                t_us: self.groups[group].engine.now_us(),
                stream: Some(corr),
                kind,
            });
        }
    }

    fn count(&self, name: &'static str, delta: u64) {
        if let Some(sink) = &self.obs {
            sink.counter_add(name, delta);
        }
    }

    /// Places a prompt: observes it for prefix detection, picks a group under
    /// the placement policy, interns a just-promoted prefix on that group,
    /// and admits the stream — attached to the longest interned prefix the
    /// chosen group holds, when the prompt extends one. The stream activates
    /// on the group's next tick, subject to that group's admission control
    /// (an overloaded group can still queue or shed it — check
    /// [`Router::status`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when the prompt fails the
    /// model's token validation.
    pub fn place(&mut self, prompt: &[u32]) -> Result<SessionId, ServeError> {
        let promoted = self.index.observe(self.model.seed(), prompt);
        let chosen = match self.placement {
            PlacementPolicy::PrefixAffinity => self
                .lookup_interned(prompt, None)
                .map(|(g, _)| g)
                .unwrap_or_else(|| self.least_loaded(None)),
            PlacementPolicy::LeastLoaded => self.least_loaded(None),
        };
        if let Some(tokens) = promoted {
            // Intern on the group this cohort is landing on; under pool
            // pressure (Shed) the fleet just keeps prefilling per stream.
            if let Ok(prefix) = self.groups[chosen]
                .engine
                .intern_prefix(self.model, &tokens)
            {
                let fp = prefix_fingerprint(self.model.seed(), prefix.tokens());
                self.interned.insert(
                    fp,
                    InternedPrefix {
                        group: chosen,
                        prefix,
                    },
                );
                self.stats.auto_interned += 1;
                self.count("router.auto_interned", 1);
            }
        }
        // Re-resolve on the chosen group so a prefix interned this very call
        // (the promoting prompt itself) already attaches.
        let attach = self.lookup_interned(prompt, Some(chosen));
        let slot = match attach {
            Some((_, prefix)) if prompt.len() > prefix.rows() => {
                self.stats.prefix_hits += 1;
                self.count("router.prefix_hits", 1);
                self.groups[chosen]
                    .group
                    .add_stream_with_prefix(&prefix, &prompt[prefix.rows()..])?
            }
            _ => {
                self.stats.prefix_misses += 1;
                self.count("router.prefix_misses", 1);
                self.groups[chosen].group.add_stream(prompt)?
            }
        };
        let corr = self.groups[chosen].group.correlation_id(slot);
        self.stats.placed += 1;
        self.count("router.placed", 1);
        self.emit(
            chosen,
            corr,
            EventKind::Place {
                group: chosen as u64,
            },
        );
        let placement = Some(Placement {
            group: chosen,
            slot,
        });
        let index = match self.free_sessions.pop_first() {
            Some(index) => {
                self.sessions[index].placement = placement;
                index
            }
            None => {
                self.sessions.push(SessionRecord {
                    generation: 0,
                    placement,
                });
                self.sessions.len() - 1
            }
        };
        Ok(SessionId {
            index,
            generation: self.sessions[index].generation,
            corr,
        })
    }

    /// Forcibly parks session `id` at its current group
    /// ([`DecodeGroup::preempt`]); it re-queues there and resumes
    /// automatically. Returns `false` for streams that are not active and
    /// for retired sessions.
    pub fn preempt(&mut self, id: SessionId) -> bool {
        self.placement(id)
            .is_some_and(|p| self.groups[p.group].group.preempt(p.slot))
    }

    /// Cancels session `id` at its current group ([`DecodeGroup::cancel`]):
    /// pages freed, token history kept, never decodes again. Returns `false`
    /// for streams already finished, shed, or cancelled, and for retired
    /// sessions.
    pub fn cancel(&mut self, id: SessionId) -> bool {
        self.placement(id)
            .is_some_and(|p| self.groups[p.group].group.cancel(p.slot))
    }

    /// Hands session `id` back ([`DecodeGroup::retire`]): returns its full
    /// token buffer, frees its slot for the group's next stream and its
    /// record for the router's next session. From then on `id` reads as
    /// retired everywhere: [`StreamStatus::Retired`], empty tokens,
    /// [`RETIRED_LOCATION`], `false` from [`Router::cancel`] and
    /// [`Router::preempt`], [`ServeError::Retired`] from [`Router::migrate`]
    /// and from a second `retire`. Its correlation ID stays readable.
    ///
    /// A session that is never retired keeps its slot and its transcript for
    /// as long as the router lives.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Retired`] for a retired session and
    /// [`ServeError::InvalidRequest`] for a queued or active one (cancel it
    /// first).
    pub fn retire(&mut self, id: SessionId) -> Result<Vec<u32>, ServeError> {
        let p = self.placement(id).ok_or(ServeError::Retired)?;
        let tokens = self.groups[p.group].group.retire(p.slot)?;
        let record = &mut self.sessions[id.index];
        record.placement = None;
        record.generation += 1;
        self.free_sessions.insert(id.index);
        Ok(tokens)
    }

    /// Moves session `id` to `to_group` over the park/resume seam: the stream
    /// parks at its current group (pages freed there), re-queues at the
    /// destination, and transparently resumes on the destination's next tick
    /// — bit-identical to never having moved. The destination pays the
    /// resume re-prefill (visible in its
    /// [`GroupStats::resume_reprefill_rows`]). The source slot's tombstone is
    /// retired at once, so the source group reuses the slot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Retired`] for a retired session, and
    /// [`ServeError::InvalidRequest`] when `to_group` is out of bounds or the
    /// session's group, or when the stream is not live (only queued or
    /// active streams migrate).
    pub fn migrate(&mut self, id: SessionId, to_group: usize) -> Result<(), ServeError> {
        let from = self.placement(id).ok_or(ServeError::Retired)?;
        if to_group >= self.groups.len() {
            return Err(ServeError::InvalidRequest(format!(
                "destination group {to_group} does not exist"
            )));
        }
        if to_group == from.group {
            return Err(ServeError::InvalidRequest(
                "the stream already lives in that group".to_string(),
            ));
        }
        let migrated = self.groups[from.group].group.extract_stream(from.slot)?;
        let corr = migrated.correlation_id();
        let slot = self.groups[to_group].group.adopt_stream(migrated)?;
        self.groups[from.group].group.retire(from.slot)?;
        self.sessions[id.index].placement = Some(Placement {
            group: to_group,
            slot,
        });
        self.stats.migrations += 1;
        self.count("router.migrations", 1);
        self.emit(
            to_group,
            corr,
            EventKind::Migrate {
                from_group: from.group as u64,
                to_group: to_group as u64,
            },
        );
        Ok(())
    }

    /// The session currently at `(group, slot)`, if the router placed one
    /// there.
    fn session_at(&self, group: usize, slot: usize) -> Option<SessionId> {
        let here = Some(Placement { group, slot });
        self.sessions
            .iter()
            .position(|record| record.placement == here)
            .map(|index| self.session_id(index))
    }

    /// The current handle of the placed session in record `index`.
    fn session_id(&self, index: usize) -> SessionId {
        let p = self.sessions[index]
            .placement
            .expect("only placed records have a handle");
        SessionId {
            index,
            generation: self.sessions[index].generation,
            corr: self.groups[p.group].group.correlation_id(p.slot),
        }
    }

    /// One rebalancing sweep: while some group has queued streams and
    /// strictly less free pool capacity than the slackest group — and the
    /// slack group can actually seat a victim's resume — migrate one queued
    /// stream over. Returns how many streams moved.
    ///
    /// # Errors
    ///
    /// Propagates migration failures (none are expected from a consistent
    /// fleet).
    pub fn rebalance(&mut self) -> Result<usize, ServeError> {
        let mut moved = 0;
        // One pass per live session at most — the loop always terminates.
        for _ in 0..self.sessions.len() {
            let mut candidate: Option<(SessionId, usize)> = None;
            let mut candidate_free = usize::MAX;
            for (i, g) in self.groups.iter().enumerate() {
                let free = g.pool.pages_free();
                if free >= candidate_free {
                    continue;
                }
                // The oldest queued slot is the victim: it has waited longest
                // and holds no pages, so the move costs nothing at the source.
                for slot in 0..g.group.len() {
                    if matches!(g.group.status(slot), StreamStatus::Queued) {
                        if let Some(id) = self.session_at(i, slot) {
                            candidate = Some((id, i));
                            candidate_free = free;
                            break;
                        }
                    }
                }
            }
            let Some((id, from)) = candidate else { break };
            let to = self.least_loaded(Some(from));
            if to == usize::MAX || to == from {
                break;
            }
            let (_, slot) = self.location(id);
            let needed = self.groups[from]
                .group
                .resume_pages_needed(slot)
                .unwrap_or(0);
            let to_free = self.groups[to].pool.pages_free();
            if to_free <= candidate_free || needed > to_free {
                break;
            }
            self.migrate(id, to)?;
            moved += 1;
        }
        Ok(moved)
    }

    /// Evacuates every live (queued or active) stream of `from` to the rest
    /// of the fleet, each to the least-loaded healthy group at the moment of
    /// its move. The chaos-drill primitive: after a group's pool is
    /// fault-injected dry, draining it lets its streams finish elsewhere,
    /// bit-identically. Returns how many streams moved.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidRequest`] when `from` is out of bounds or
    /// the fleet has no other group; propagates migration failures.
    pub fn drain_group(&mut self, from: usize) -> Result<usize, ServeError> {
        if from >= self.groups.len() {
            return Err(ServeError::InvalidRequest(format!(
                "group {from} does not exist"
            )));
        }
        if self.groups.len() < 2 {
            return Err(ServeError::InvalidRequest(
                "draining needs at least one other group".to_string(),
            ));
        }
        let victims: Vec<SessionId> = self
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, record)| {
                record.placement.is_some_and(|p| {
                    p.group == from
                        && matches!(
                            self.groups[p.group].group.status(p.slot),
                            StreamStatus::Queued | StreamStatus::Active
                        )
                })
            })
            .map(|(index, _)| self.session_id(index))
            .collect();
        let mut moved = 0;
        for id in victims {
            let to = self.least_loaded(Some(from));
            self.migrate(id, to)?;
            moved += 1;
        }
        Ok(moved)
    }

    fn collect_tick(
        results: Vec<Result<Vec<Option<u32>>, LlmError>>,
        lens: &[usize],
    ) -> Result<RouterTick, LlmError> {
        let mut tokens = Vec::with_capacity(results.len());
        let mut exhausted_groups = Vec::new();
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok(t) => tokens.push(t),
                Err(LlmError::KvPoolExhausted { .. }) => {
                    exhausted_groups.push(i);
                    tokens.push(vec![None; lens[i]]);
                }
                Err(err) => return Err(err),
            }
        }
        Ok(RouterTick {
            tokens,
            exhausted_groups,
        })
    }

    /// Ticks every group once, sequentially. A group whose tick fails with
    /// [`LlmError::KvPoolExhausted`] is reported in
    /// [`RouterTick::exhausted_groups`] instead of failing the fleet (the
    /// failed tick rolled back retry-safely); any other error propagates.
    ///
    /// # Errors
    ///
    /// Returns the first non-exhaustion decode error.
    pub fn step_all(&mut self) -> Result<RouterTick, LlmError> {
        let lens: Vec<usize> = self.groups.iter().map(|g| g.group.len()).collect();
        let results = self.groups.iter_mut().map(|g| g.group.step_all()).collect();
        Self::collect_tick(results, &lens)
    }

    /// [`Router::step_all`] with the fleet's heavy groups split across the
    /// host's cores. A group is heavy when its tick's work (active streams ×
    /// [`ModelConfig::parameter_count`](haan_llm::ModelConfig::parameter_count))
    /// reaches [`TICK_THREAD_MIN_WORK`]; below that a thread spawn costs more
    /// than the tick it would take off the caller. Active streams are read in
    /// O(1) as [`GroupStats::joins`] − [`GroupStats::leaves`]; a count over
    /// every slot ([`DecodeGroup::ready_streams`]) grows with the sessions a
    /// group has served (about 0.9 µs per group at 1,500 slots, cache-hot,
    /// where a light E=64 tick is about 50 µs). Queued streams activate
    /// during the tick and count from the next one, so the tick that starts
    /// a burst runs inline. The groups are cut into `min(heavy groups, host
    /// threads)` contiguous ranges: the calling thread ticks the first range
    /// and each other range ticks on one scoped thread, so a fleet with at
    /// most one heavy group ticks entirely inline, exactly as
    /// [`Router::step_all`] does. Groups share
    /// nothing (separate engines, pools, normalizers), so the split changes
    /// no tokens and no [`Router::fleet_stats`]. [`RouterStats::tick_threads`]
    /// (and the `router.tick_threads` counter) counts the threads spawned.
    ///
    /// # Errors
    ///
    /// As [`Router::step_all`].
    ///
    /// # Panics
    ///
    /// Panics if a group's tick thread panics.
    pub fn step_all_concurrent(&mut self) -> Result<RouterTick, LlmError> {
        let lens: Vec<usize> = self.groups.iter().map(|g| g.group.len()).collect();
        let active: Vec<usize> = self
            .groups
            .iter()
            .map(|g| {
                let stats = g.group.stats();
                stats.joins.saturating_sub(stats.leaves) as usize
            })
            .collect();
        let ranges = tick_ranges(&active, self.model.config().parameter_count(), host_threads);
        let spawned = ranges.len() - 1;
        let tick = |groups: &mut [RouterGroup<'m>]| -> Vec<Result<Vec<Option<u32>>, LlmError>> {
            groups.iter_mut().map(|g| g.group.step_all()).collect()
        };
        let mut rest = self.groups.as_mut_slice();
        let mut chunks = ranges.iter().map(|range| {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
            rest = tail;
            chunk
        });
        let first = chunks.next().expect("a tick has at least one range");
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .map(|groups| scope.spawn(move || tick(groups)))
                .collect();
            let mut results = tick(first);
            for handle in handles {
                results.extend(handle.join().expect("group tick thread panicked"));
            }
            results
        });
        if spawned > 0 {
            self.stats.tick_threads += spawned as u64;
            self.count("router.tick_threads", spawned as u64);
        }
        Self::collect_tick(results, &lens)
    }

    /// Ticks the whole fleet `ticks` times (sequentially), returning the
    /// union of groups that reported pool exhaustion at least once.
    ///
    /// # Errors
    ///
    /// As [`Router::step_all`].
    pub fn decode(&mut self, ticks: usize) -> Result<Vec<usize>, LlmError> {
        let mut exhausted = HashSet::new();
        for _ in 0..ticks {
            exhausted.extend(self.step_all()?.exhausted_groups);
        }
        let mut exhausted: Vec<usize> = exhausted.into_iter().collect();
        exhausted.sort_unstable();
        Ok(exhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haan::{BackendSelection, HaanConfig};
    use haan_llm::norm::ReferenceNormalizer;
    use haan_llm::{ModelConfig, StreamingModel};
    use haan_serve::KvPoolPolicy;

    fn serve_config(capacity_rows: usize) -> ServeConfig {
        ServeConfig {
            normalizer: HaanConfig {
                backend: BackendSelection::Fused,
                ..HaanConfig::unoptimized()
            },
            kv_pool: KvPoolPolicy {
                page_rows: 4,
                capacity_rows,
            },
            ..Default::default()
        }
    }

    fn model() -> TransformerModel {
        TransformerModel::new(&ModelConfig::tiny_test(), 23).unwrap()
    }

    #[test]
    fn empty_fleets_are_rejected() {
        let model = model();
        assert!(Router::new(&model, Vec::new(), RouterConfig::default()).is_err());
        assert!(
            Router::with_uniform_groups(&model, 0, &serve_config(64), RouterConfig::default())
                .is_err()
        );
    }

    #[test]
    fn least_loaded_placement_round_robins_an_idle_fleet() {
        let model = model();
        let mut router = Router::with_uniform_groups(
            &model,
            3,
            &serve_config(256),
            RouterConfig {
                placement: PlacementPolicy::LeastLoaded,
                auto_prefix_min_count: 0,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let a = router.place(&[1, 2, 3]).unwrap();
        let b = router.place(&[4, 5, 6]).unwrap();
        let c = router.place(&[7, 1, 2]).unwrap();
        let groups: HashSet<usize> = [a, b, c].iter().map(|&id| router.location(id).0).collect();
        assert_eq!(
            groups.len(),
            3,
            "identical pools must spread by stream count"
        );
        assert_eq!(router.stats().placed, 3);
        assert_eq!(router.stats().prefix_hits, 0);
    }

    #[test]
    fn recurring_prefixes_promote_and_attach_sharers() {
        let model = model();
        let mut router =
            Router::with_uniform_groups(&model, 2, &serve_config(512), RouterConfig::default())
                .unwrap();
        // Shared 8-token (two-page) system prompt, distinct user suffixes.
        let shared: Vec<u32> = (0..8).map(|i| (i % 8) + 1).collect();
        let prompts: Vec<Vec<u32>> = (0..4)
            .map(|i| {
                let mut p = shared.clone();
                p.extend([20 + i, 30 + i]);
                p
            })
            .collect();
        let ids: Vec<SessionId> = prompts.iter().map(|p| router.place(p).unwrap()).collect();
        let stats = router.stats();
        assert_eq!(stats.auto_interned, 1, "one cohort, one promotion");
        // The second observation promotes; it and both later sharers attach.
        assert_eq!(stats.prefix_hits, 3);
        assert_eq!(stats.prefix_misses, 1);
        // Affinity keeps the cohort on the interning group.
        let home = router.location(ids[1]).0;
        for &id in &ids[1..] {
            assert_eq!(router.location(id).0, home);
        }
        // And the sharing is bit-invisible: all streams match their oracles.
        router.decode(4).unwrap();
        for (id, prompt) in ids.iter().zip(&prompts) {
            let mut oracle = StreamingModel::new_full_recompute(&model, prompt).unwrap();
            let expected = oracle.decode(4, &mut ReferenceNormalizer::new()).unwrap();
            assert_eq!(router.generated(*id), expected.as_slice());
        }
    }

    #[test]
    fn migration_keeps_streams_bit_identical_and_ledger_clean() {
        let model = model();
        let mut router = Router::with_uniform_groups(
            &model,
            2,
            &serve_config(256),
            RouterConfig {
                placement: PlacementPolicy::LeastLoaded,
                auto_prefix_min_count: 0,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let prompt = [2u32, 9, 4, 6];
        let id = router.place(&prompt).unwrap();
        router.decode(3).unwrap();
        let (from, _) = router.location(id);
        let corr = router.correlation_id(id);
        let to = 1 - from;
        let from_in_use = router.engine(from).kv_pool(model.config().embedding_dim);
        router.migrate(id, to).unwrap();
        assert_eq!(router.location(id).0, to);
        assert_eq!(
            router.correlation_id(id),
            corr,
            "identity survives the move"
        );
        assert_eq!(
            from_in_use.pages_in_use(),
            0,
            "the source pool must be fully released"
        );
        assert!(router.migrate(id, to).is_err(), "already there");
        router.decode(4).unwrap();
        let mut oracle = StreamingModel::new_full_recompute(&model, &prompt).unwrap();
        let expected = oracle.decode(7, &mut ReferenceNormalizer::new()).unwrap();
        assert_eq!(router.generated(id), expected.as_slice());
        assert_eq!(router.stats().migrations, 1);
        let fleet = router.fleet_stats();
        assert_eq!(
            fleet.totals.resumes, 1,
            "one transparent resume at the destination"
        );
    }

    #[test]
    fn retired_sessions_are_refused_everywhere() {
        let model = model();
        let mut router = Router::with_uniform_groups(
            &model,
            2,
            &serve_config(256),
            RouterConfig {
                placement: PlacementPolicy::LeastLoaded,
                auto_prefix_min_count: 0,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let old = router.place(&[2, 9, 4]).unwrap();
        router.decode(2).unwrap();
        assert!(matches!(
            router.retire(old),
            Err(ServeError::InvalidRequest(_))
        ));
        assert_eq!(
            router.status(old),
            StreamStatus::Active,
            "refusal changes nothing"
        );
        assert!(router.cancel(old));
        let corr = router.correlation_id(old);
        let (group, slot) = router.location(old);
        let tokens = router.tokens(old).to_vec();
        assert_eq!(router.retire(old).unwrap(), tokens);
        // An idle fleet places on the lowest group: the next session reuses
        // both the retired record and the retired slot.
        let prompt = [1u32, 7, 3, 5];
        let new = router.place(&prompt).unwrap();
        assert_eq!(router.location(new), (group, slot), "the slot is reused");
        assert_ne!(new, old);
        router.decode(1).unwrap();
        let before = router.tokens(new).to_vec();
        // Every entry point refuses the retired id and leaves `new` alone.
        assert_eq!(router.status(old), StreamStatus::Retired);
        assert!(router.tokens(old).is_empty());
        assert!(router.generated(old).is_empty());
        assert_eq!(router.location(old), RETIRED_LOCATION);
        assert_eq!(router.correlation_id(old), corr);
        assert!(!router.cancel(old));
        assert!(!router.preempt(old));
        assert_eq!(router.migrate(old, 1 - group), Err(ServeError::Retired));
        assert_eq!(router.retire(old), Err(ServeError::Retired));
        assert_eq!(router.status(new), StreamStatus::Active);
        assert_eq!(router.tokens(new), before.as_slice());
        assert_ne!(router.correlation_id(new), corr);
        // A migration retires the tombstone it leaves: the slot is reused.
        router.migrate(new, 1 - group).unwrap();
        assert_eq!(router.group(group).status(slot), StreamStatus::Retired);
        let third = router.place(&[5, 5]).unwrap();
        assert_eq!(router.location(third), (group, slot));
        router.decode(3).unwrap();
        let mut oracle = StreamingModel::new_full_recompute(&model, &prompt).unwrap();
        let expected = oracle.decode(4, &mut ReferenceNormalizer::new()).unwrap();
        assert_eq!(router.generated(new), expected.as_slice());
        assert_eq!(router.status(old), StreamStatus::Retired);
    }

    /// The E=64 serving model of the `serve_mixed` benchmark.
    fn serving_model() -> TransformerModel {
        let config = ModelConfig {
            name: "decode-bench".to_string(),
            family: haan_llm::ModelFamily::Gpt2,
            num_blocks: 2,
            embedding_dim: 64,
            num_heads: 4,
            mlp_dim: 128,
            vocab_size: 128,
            max_seq_len: 256,
            final_norm: true,
            paper_embedding_dim: 64,
        };
        TransformerModel::new(&config, 42).unwrap()
    }

    /// Ticks two identical fleets, `streams[g]` streams on group `g`, five
    /// times: one through `step_all`, one through `step_all_concurrent`.
    /// Every tick's tokens and fleet stats must match. The concurrent fleet
    /// must tick its first tick inline (every stream is still queued, so no
    /// group is active yet) and spawn `threads_per_tick` threads on each
    /// later tick.
    fn assert_concurrent_matches_sequential(
        model: &TransformerModel,
        serve: &ServeConfig,
        streams: &[usize],
        threads_per_tick: u64,
    ) {
        let build = || {
            let mut router = Router::with_uniform_groups(
                model,
                streams.len(),
                serve,
                RouterConfig {
                    placement: PlacementPolicy::LeastLoaded,
                    auto_prefix_min_count: 0,
                    ..RouterConfig::default()
                },
            )
            .unwrap();
            let vocab = model.config().vocab_size as u32;
            // Least-loaded placement round-robins an idle fleet: fill every
            // group to the widest count, then cancel each group's surplus.
            let widest = streams.iter().copied().max().unwrap_or(0);
            let ids: Vec<SessionId> = (0..(widest * streams.len()) as u32)
                .map(|i| {
                    let prompt = [(i % 7) + 1, (i * 3) % vocab, (i * 5 + 2) % vocab];
                    router.place(&prompt).unwrap()
                })
                .collect();
            let mut kept = vec![0; streams.len()];
            for id in ids {
                let group = router.location(id).0;
                kept[group] += 1;
                if kept[group] > streams[group] {
                    assert!(router.cancel(id));
                }
            }
            assert_eq!(kept, vec![widest; streams.len()]);
            router
        };
        let (mut seq, mut conc) = (build(), build());
        for tick in 1..=5u64 {
            let a = seq.step_all().unwrap();
            let b = conc.step_all_concurrent().unwrap();
            assert_eq!(a.tokens, b.tokens, "tick {tick}");
            assert_eq!(a.exhausted_groups, b.exhausted_groups, "tick {tick}");
            assert_eq!(seq.fleet_stats().groups, conc.fleet_stats().groups);
            assert_eq!(seq.fleet_stats().totals, conc.fleet_stats().totals);
            assert_eq!(conc.stats().tick_threads, (tick - 1) * threads_per_tick);
            // The gate's O(1) active count is the number of active slots.
            for g in 0..streams.len() {
                let group = conc.group(g);
                let active = (0..group.len())
                    .filter(|&i| group.status(i) == StreamStatus::Active)
                    .count() as u64;
                assert_eq!(group.stats().joins - group.stats().leaves, active);
            }
        }
        assert_eq!(seq.stats().tick_threads, 0, "step_all never spawns");
    }

    #[test]
    fn concurrent_ticks_match_sequential_ticks() {
        // Tiny groups sit far below the gate: every tick runs inline.
        assert_concurrent_matches_sequential(&model(), &serve_config(256), &[2, 2, 2], 0);
        let model = serving_model();
        // A `serve_mixed`-shaped fleet (2 groups, 1–4 streams) never spawns.
        let serve = ServeConfig {
            kv_pool: KvPoolPolicy {
                page_rows: 16,
                capacity_rows: 1024,
            },
            ..ServeConfig::default()
        };
        for streams in [[1, 0], [1, 1], [4, 2], [4, 4]] {
            assert_concurrent_matches_sequential(&model, &serve, &streams, 0);
        }
        // Three groups above the gate split into `min(3, host threads)`
        // ranges; a light fourth group rides along without a thread.
        let heavy = TICK_THREAD_MIN_WORK.div_ceil(model.config().parameter_count());
        let parts = 3.min(host_threads()) as u64;
        assert_concurrent_matches_sequential(
            &model,
            &serve,
            &[heavy, 1, heavy, heavy + 2],
            parts - 1,
        );
    }

    #[test]
    fn tick_ranges_split_only_heavy_groups() {
        let params = 98_816;
        let h = TICK_THREAD_MIN_WORK.div_ceil(params); // active streams of a heavy group
        assert!((h - 1) * params < TICK_THREAD_MIN_WORK && h * params >= TICK_THREAD_MIN_WORK);
        let never = || -> usize { panic!("the thread count is read only for two heavy groups") };
        // All idle, one heavy group, or only light ones: one inline range.
        assert_eq!(tick_ranges(&[0, 0, 0], params, never), vec![0..3]);
        assert_eq!(tick_ranges(&[], params, never), vec![0..0]);
        assert_eq!(tick_ranges(&[1, h, h - 1], params, never), vec![0..3]);
        // Heavy and light groups mixed: each range starts at a heavy group,
        // a light group rides with the range before it.
        assert_eq!(tick_ranges(&[h, 1, h, 0], params, || 2), vec![0..2, 2..4]);
        assert_eq!(tick_ranges(&[1, h, 1, h], params, || 2), vec![0..3, 3..4]);
        assert_eq!(tick_ranges(&[h, h, 0, 0], params, || 8), vec![0..1, 1..4]);
        // More heavy groups than threads: equal shares of heavy groups.
        assert_eq!(tick_ranges(&[h, h, h, h], params, || 2), vec![0..2, 2..4]);
        assert_eq!(
            tick_ranges(&[h, h, h, h], params, || 3),
            vec![0..1, 1..2, 2..4]
        );
        // One host thread: everything inline.
        assert_eq!(tick_ranges(&[h, h, h], params, || 1), vec![0..3]);
        // Stream counts that overflow the work product still count as heavy.
        assert_eq!(
            tick_ranges(&[usize::MAX, usize::MAX], params, || 2),
            vec![0..1, 1..2]
        );
    }

    #[test]
    fn fleet_stats_on_a_never_ticked_fleet_are_finite() {
        let model = model();
        let router =
            Router::with_uniform_groups(&model, 2, &serve_config(64), RouterConfig::default())
                .unwrap();
        let fleet = router.fleet_stats();
        assert_eq!(fleet.totals.mean_tick_occupancy_rows(), 0.0);
        assert!(fleet
            .groups
            .iter()
            .all(|g| g.mean_tick_occupancy_rows() == 0.0));
    }
}
