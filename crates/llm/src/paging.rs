//! Paged key/value storage: a shared block pool, per-stream page tables, and the
//! eviction policy of long-lived decode streams.
//!
//! A dense cache would preallocate `max_seq × E` K and V matrices per block per
//! stream, so a thousand mostly-short streams would reserve a thousand
//! full-length caches. Paged storage splits K/V rows into fixed-size **pages**
//! owned by one shared [`KvBlockPool`]: every stream's [`PagedKvCache`] holds
//! only a *page table* (pool page ids, in position order) and borrows pages on
//! demand, so resident memory tracks the tokens actually cached, across all
//! streams, instead of `streams × max_seq`. Freed pages (stream reset,
//! eviction, drop) return to the pool's free list and are reused by whichever
//! stream appends next.
//!
//! Paged reads add nothing numeric and copy nothing: an attention call visits
//! the live rows in place, in position order, under one pool-lock acquisition
//! (`PagedKvCache::visit_rows`), so its kernel reads exactly the rows a full
//! recompute projects (see
//! [`TransformerBlock::forward_cached_segments`](crate::block::TransformerBlock::forward_cached_segments)).
//!
//! # Example
//!
//! ```
//! use haan_llm::paging::KvBlockPool;
//! use haan_llm::norm::ReferenceNormalizer;
//! use haan_llm::{ModelConfig, TransformerModel};
//!
//! let model = TransformerModel::new(&ModelConfig::tiny_test(), 42)?;
//! // One pool, many streams: each borrows pages as it grows.
//! let pool = KvBlockPool::shared(256, 8, model.config().embedding_dim);
//! let mut a = model.start_decode_in(&pool)?;
//! let mut b = model.start_decode_in(&pool)?;
//! a.prefill(&[1, 5, 9], &mut ReferenceNormalizer::new())?;
//! b.prefill(&[2, 4], &mut ReferenceNormalizer::new())?;
//! assert!(pool.pages_in_use() > 0);
//! drop((a, b));
//! assert_eq!(pool.pages_in_use(), 0); // pages return to the free list
//! # Ok::<(), haan_llm::LlmError>(())
//! ```

use crate::error::LlmError;
use crate::tensor::Matrix;
use haan_obs::ObsSink;
use std::sync::{Arc, Mutex};

/// A fault hook consulted on every page allocation: given the requested page
/// count and the pool's current free pages, returning `true` makes the
/// allocation fail with [`LlmError::KvPoolExhausted`] exactly as a genuinely
/// exhausted pool would (all-or-nothing, caller state untouched). Installed via
/// [`KvBlockPool::set_alloc_fault`] by deterministic fault-injection harnesses;
/// see `haan_serve::faults`.
pub type AllocFaultHook = Arc<dyn Fn(usize, usize) -> bool + Send + Sync>;

/// What a [`DecodeContext`](crate::DecodeContext) does when the next tokens would
/// grow the stream past the model's `max_seq_len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Refuse with [`LlmError::InvalidSequenceLength`] — the historical behavior,
    /// and the default.
    #[default]
    Reject,
    /// Keep only the newest `keep_last` positions: the context recomputes the
    /// kept suffix (re-embedded at positions `0..keep_last`) into fresh pages in
    /// one incremental pass, then drops the old window's pages. After an
    /// eviction the stream is bit-identical to a fresh context prefilled with
    /// the kept suffix — "parity-correct within the window" — which is the only
    /// sound semantics under absolute position embeddings (stale K/V rows were
    /// projected at positions that no longer exist). Eviction costs one
    /// `keep_last`-row pass, amortized over the `max_seq_len - keep_last` steps
    /// until the window fills again.
    ///
    /// Eviction is **all-or-nothing**: the recomputed window lands in fresh
    /// stores first, so a failed recompute (e.g. [`LlmError::KvPoolExhausted`]
    /// under concurrent pool pressure) leaves the stream untouched and
    /// retryable. The flip side is transient double residency — old window plus
    /// kept window at once — so pools serving windowed streams need
    /// `keep_last` rows per block of headroom beyond the steady state.
    SlidingWindow {
        /// Positions retained per eviction; must leave room for the incoming
        /// tokens (`keep_last + incoming ≤ max_seq_len`).
        keep_last: usize,
    },
}

/// Bookkeeping behind the pool mutex: page storage (grown lazily, page by page,
/// up to the configured capacity) and the free list.
#[derive(Debug)]
struct PoolInner {
    /// Key rows of every materialized page, `page_rows × embedding_dim` each,
    /// indexed by page id.
    keys: Vec<f32>,
    /// Value rows, same layout as `keys`.
    values: Vec<f32>,
    /// Ids of materialized pages currently unowned (LIFO, so recently freed —
    /// cache-warm — pages are handed out first).
    free: Vec<usize>,
    /// Reference count per materialized page id. Pages handed out by
    /// [`KvBlockPool::alloc_pages`] start at 1; prefix sharing and cache forks
    /// raise the count via `retain_pages`, and `release_pages` only free-lists
    /// a page when its count reaches zero — so N streams mapping the same
    /// prompt-prefix pages cannot double-free them, and a page with more than
    /// one owner is never writable (enforced in `write_rows`).
    refcounts: Vec<u32>,
    /// Next never-materialized page id; allocation prefers the free list and
    /// only materializes fresh storage when it is empty.
    next_fresh: usize,
    /// High-water mark of pages in use, for capacity-planning telemetry.
    peak_in_use: usize,
}

/// A shared pool of fixed-size K/V pages, the backing store of every
/// [`PagedKvCache`].
///
/// One pool serves every attention layer of every stream whose embedding width
/// matches: a page is just `page_rows` full-width K rows plus the matching V
/// rows, so block index and stream identity live entirely in the page tables
/// that reference it. The pool is `Sync` (interior mutex) and is shared as
/// `Arc<KvBlockPool>` — see [`KvBlockPool::shared`].
///
/// Capacity is a hard bound: when the free list is empty and every page has been
/// materialized, allocation fails with the typed
/// [`LlmError::KvPoolExhausted`] and the failed append leaves the requesting
/// cache unchanged. Sizing heuristic: `capacity_rows ≈ expected concurrent
/// streams × num_blocks × expected live positions per stream` (see
/// `ROADMAP.md`).
pub struct KvBlockPool {
    page_rows: usize,
    embedding_dim: usize,
    num_pages: usize,
    inner: Mutex<PoolInner>,
    /// Optional allocation fault hook (deterministic fault injection), behind
    /// its own mutex and *cloned out before* the inner lock is taken, so a hook
    /// can never deadlock the pool however it is implemented.
    alloc_fault: Mutex<Option<AllocFaultHook>>,
    /// Optional observability sink (same clone-out-first discipline as the
    /// fault hook): occupancy gauges and exhaustion counters are emitted
    /// *after* the inner guard is dropped, so a sink can call back into the
    /// pool's read-side accessors without deadlocking.
    obs: Mutex<Option<Arc<dyn ObsSink>>>,
}

impl std::fmt::Debug for KvBlockPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvBlockPool")
            .field("page_rows", &self.page_rows)
            .field("embedding_dim", &self.embedding_dim)
            .field("num_pages", &self.num_pages)
            .field("pages_in_use", &self.pages_in_use())
            .finish_non_exhaustive()
    }
}

impl KvBlockPool {
    /// Creates a pool able to hold `capacity_rows` K/V row pairs of width
    /// `embedding_dim`, in pages of `page_rows` rows (the capacity is rounded up
    /// to whole pages). Storage is materialized lazily, page by page, as streams
    /// grow — a fresh pool owns no row data.
    ///
    /// # Panics
    ///
    /// Panics when any argument is zero.
    #[must_use]
    pub fn new(capacity_rows: usize, page_rows: usize, embedding_dim: usize) -> Self {
        assert!(
            capacity_rows > 0 && page_rows > 0 && embedding_dim > 0,
            "pool dimensions must be nonzero"
        );
        Self {
            page_rows,
            embedding_dim,
            num_pages: capacity_rows.div_ceil(page_rows),
            inner: Mutex::new(PoolInner {
                keys: Vec::new(),
                values: Vec::new(),
                free: Vec::new(),
                refcounts: Vec::new(),
                next_fresh: 0,
                peak_in_use: 0,
            }),
            alloc_fault: Mutex::new(None),
            obs: Mutex::new(None),
        }
    }

    /// [`KvBlockPool::new`] wrapped in the `Arc` every sharing site needs.
    #[must_use]
    pub fn shared(capacity_rows: usize, page_rows: usize, embedding_dim: usize) -> Arc<Self> {
        Arc::new(Self::new(capacity_rows, page_rows, embedding_dim))
    }

    /// Rows per page.
    #[must_use]
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Width of the stored rows.
    #[must_use]
    pub fn embedding_dim(&self) -> usize {
        self.embedding_dim
    }

    /// Total pages the pool may materialize (the hard capacity bound).
    #[must_use]
    pub fn pages_total(&self) -> usize {
        self.num_pages
    }

    /// Total K/V row pairs the pool may hold.
    #[must_use]
    pub fn capacity_rows(&self) -> usize {
        self.num_pages * self.page_rows
    }

    /// Pages currently owned by some cache's page table.
    #[must_use]
    pub fn pages_in_use(&self) -> usize {
        let inner = self.lock();
        inner.next_fresh - inner.free.len()
    }

    /// Highest number of simultaneously owned pages observed so far.
    #[must_use]
    pub fn peak_pages_in_use(&self) -> usize {
        self.lock().peak_in_use
    }

    /// Pages still allocatable (free-listed plus never materialized).
    #[must_use]
    pub fn pages_free(&self) -> usize {
        let inner = self.lock();
        self.num_pages - (inner.next_fresh - inner.free.len())
    }

    /// Bytes of K/V storage materialized so far (monotone: freed pages stay
    /// materialized on the free list for reuse).
    #[must_use]
    pub fn bytes_materialized(&self) -> usize {
        self.lock().next_fresh * self.page_bytes()
    }

    /// Pages materialized so far (monotone high-water mark;
    /// `bytes_materialized == pages_materialized × page_bytes` always holds,
    /// and `pages_materialized == pages_in_use + free-listed pages` — the
    /// reproducibility invariant the refcounting property tests pin).
    #[must_use]
    pub fn pages_materialized(&self) -> usize {
        self.lock().next_fresh
    }

    /// Current reference count of one page: 0 for free or never-materialized
    /// pages, 1 for uniquely owned ones, more when prefix sharing or cache
    /// forks map the page into several page tables.
    #[must_use]
    pub fn page_refcount(&self, page: usize) -> u32 {
        self.lock().refcounts.get(page).copied().unwrap_or(0)
    }

    /// Bytes of K/V storage currently referenced by page tables.
    #[must_use]
    pub fn bytes_in_use(&self) -> usize {
        self.pages_in_use() * self.page_bytes()
    }

    /// Bytes one page occupies once materialized (K plus V rows).
    #[must_use]
    pub fn page_bytes(&self) -> usize {
        2 * self.page_elements() * std::mem::size_of::<f32>()
    }

    /// Elements of one page's key (equivalently, value) storage.
    fn page_elements(&self) -> usize {
        self.page_rows * self.embedding_dim
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        // Poison recovery: every critical section below either completes its
        // writes or never started them (page-id bookkeeping is updated before
        // the row copies, and the copies are plain slice writes that cannot
        // observe torn state), or writes nothing at all (`visit_rows` lends
        // its visitor shared slices only, so a visitor that panics leaves the
        // pool exactly as it found it). The inner data therefore stays
        // consistent even if a thread panicked while holding the guard.
        haan_obs::lock_recover(&self.inner)
    }

    /// Installs (or, with `None`, removes) an observability sink. The pool
    /// emits `pool.exhaustions` counter increments on every failed allocation
    /// (genuine or fault-injected) and refreshes the `pool.pages_in_use` /
    /// `pool.pages_free` gauges whenever occupancy changes.
    pub fn set_obs_sink(&self, obs: Option<Arc<dyn ObsSink>>) {
        *haan_obs::lock_recover(&self.obs) = obs;
    }

    /// Clones the sink out (never emit while holding `inner` — see `obs`).
    fn obs_sink(&self) -> Option<Arc<dyn ObsSink>> {
        haan_obs::lock_recover(&self.obs).clone()
    }

    /// Refreshes the occupancy gauges on the installed sink, if any. Callers
    /// must have dropped the inner guard first; the fresh reads here retake it.
    fn emit_occupancy(&self, obs: &Arc<dyn ObsSink>) {
        obs.gauge_set("pool.pages_in_use", self.pages_in_use() as f64);
        obs.gauge_set("pool.pages_free", self.pages_free() as f64);
    }

    /// Installs (or, with `None`, removes) a deterministic allocation fault
    /// hook: before every page allocation the hook sees the requested page
    /// count and the current free count, and returning `true` fails the
    /// allocation with the same typed [`LlmError::KvPoolExhausted`] (and the
    /// same all-or-nothing caller rollback) a genuinely dry pool produces.
    pub fn set_alloc_fault(&self, hook: Option<AllocFaultHook>) {
        *haan_obs::lock_recover(&self.alloc_fault) = hook;
    }

    /// Allocates `count` pages all-or-nothing, so a failed grow never leaves a
    /// cache holding rows it cannot store.
    fn alloc_pages(&self, count: usize) -> Result<Vec<usize>, LlmError> {
        // Clone the hook out before taking the inner lock (see `alloc_fault`).
        let hook = haan_obs::lock_recover(&self.alloc_fault).clone();
        let obs = self.obs_sink();
        if let Some(hook) = hook {
            let free = self.pages_free();
            if hook(count, free) {
                if let Some(obs) = &obs {
                    obs.counter_add("pool.exhaustions", 1);
                }
                return Err(LlmError::KvPoolExhausted {
                    requested_pages: count,
                    free_pages: free,
                });
            }
        }
        let mut inner = self.lock();
        let free = self.num_pages - (inner.next_fresh - inner.free.len());
        if count > free {
            drop(inner);
            if let Some(obs) = &obs {
                obs.counter_add("pool.exhaustions", 1);
            }
            return Err(LlmError::KvPoolExhausted {
                requested_pages: count,
                free_pages: free,
            });
        }
        let mut pages = Vec::with_capacity(count);
        for _ in 0..count {
            if let Some(page) = inner.free.pop() {
                debug_assert_eq!(inner.refcounts[page], 0, "free-listed page has owners");
                inner.refcounts[page] = 1;
                pages.push(page);
            } else {
                let page = inner.next_fresh;
                inner.next_fresh += 1;
                let len = inner.next_fresh * self.page_elements();
                inner.keys.resize(len, 0.0);
                inner.values.resize(len, 0.0);
                inner.refcounts.push(1);
                pages.push(page);
            }
        }
        let in_use = inner.next_fresh - inner.free.len();
        inner.peak_in_use = inner.peak_in_use.max(in_use);
        drop(inner);
        if let Some(obs) = &obs {
            if count > 0 {
                self.emit_occupancy(obs);
            }
        }
        Ok(pages)
    }

    /// Drops one reference per listed page, free-listing each page whose count
    /// reaches zero. Shared pages (prefix sharing, forks) survive until their
    /// last owner releases them — the refcount is what makes a sharer's drop,
    /// preemption, or rollback safe for everyone else.
    ///
    /// # Panics
    ///
    /// Panics when a page is released more often than it was retained (a
    /// double-free — always a bug, never an overload condition).
    pub(crate) fn release_pages(&self, pages: &[usize]) {
        if pages.is_empty() {
            return;
        }
        let mut inner = self.lock();
        for &page in pages {
            assert!(
                inner.refcounts.get(page).is_some_and(|&rc| rc > 0),
                "double-free of pool page {page}"
            );
            inner.refcounts[page] -= 1;
            if inner.refcounts[page] == 0 {
                inner.free.push(page);
            }
        }
        debug_assert!(
            inner.free.len() <= inner.next_fresh,
            "released more pages than were ever allocated"
        );
        drop(inner);
        if let Some(obs) = self.obs_sink() {
            self.emit_occupancy(&obs);
        }
    }

    /// Adds one reference per listed page (prefix attach, cache fork). Every
    /// retain must be balanced by one [`KvBlockPool::release_pages`] entry.
    ///
    /// # Panics
    ///
    /// Panics when a page is not currently owned (retaining a free page would
    /// alias storage the next allocation hands out).
    pub(crate) fn retain_pages(&self, pages: &[usize]) {
        if pages.is_empty() {
            return;
        }
        let mut inner = self.lock();
        for &page in pages {
            assert!(
                inner.refcounts.get(page).is_some_and(|&rc| rc > 0),
                "cannot retain unowned pool page {page}"
            );
            inner.refcounts[page] += 1;
        }
    }

    /// Writes row-major `keys`/`values` rows (same length, whole rows of width
    /// `embedding_dim`) into the pages of one cache, starting at logical row
    /// `start_row` of its page table.
    ///
    /// # Panics
    ///
    /// Panics when a written page is shared (refcount > 1): writers must
    /// copy-on-write first, or they would corrupt every other stream mapping
    /// the page.
    fn write_rows(&self, pages: &[usize], start_row: usize, keys: &[f32], values: &[f32]) {
        let e = self.embedding_dim;
        let mut inner = self.lock();
        let rows = keys.chunks_exact(e).zip(values.chunks_exact(e));
        for (r, (key, value)) in rows.enumerate() {
            let logical = start_row + r;
            let page = pages[logical / self.page_rows];
            let slot = logical % self.page_rows;
            assert!(
                inner.refcounts[page] <= 1,
                "write to shared pool page {page} (refcount {})",
                inner.refcounts[page]
            );
            let dst = (page * self.page_rows + slot) * e;
            inner.keys[dst..dst + e].copy_from_slice(key);
            inner.values[dst..dst + e].copy_from_slice(value);
        }
    }

    /// Copies the first `rows` K/V rows of page `src` into page `dst` — the
    /// copy half of copy-on-write, run under one lock acquisition.
    fn copy_page_rows(&self, src: usize, dst: usize, rows: usize) {
        let e = self.embedding_dim;
        let len = rows.min(self.page_rows) * e;
        let mut inner = self.lock();
        let from = src * self.page_elements();
        let to = dst * self.page_elements();
        inner.keys.copy_within(from..from + len, to);
        inner.values.copy_within(from..from + len, to);
    }
}

/// The rows of one cache inside the locked pool, lent to a visitor by
/// [`PagedKvCache::visit_rows`]: read-only, copy-free, and walked in position
/// order by [`KvRows::iter`].
pub(crate) struct KvRows<'a> {
    keys: &'a [f32],
    values: &'a [f32],
    pages: &'a [usize],
    page_len: usize,
    width: usize,
    len: usize,
}

impl<'a> KvRows<'a> {
    /// The full-width `(key, value)` rows of positions `0..len`, in position
    /// order: position `p` is row `p % page_rows` of page
    /// `pages[p / page_rows]`, walked page by page with no division.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&'a [f32], &'a [f32])> + 'a {
        let (keys, values, page_len, width) = (self.keys, self.values, self.page_len, self.width);
        self.pages
            .iter()
            .flat_map(move |&page| {
                let at = page * page_len..(page + 1) * page_len;
                keys[at.clone()]
                    .chunks_exact(width)
                    .zip(values[at].chunks_exact(width))
            })
            .take(self.len)
    }
}

/// One attention layer's K/V rows of one stream, resident in pool pages.
///
/// The cache owns a page table (`Vec` of pool page ids, position order) and its
/// live length; everything else lives in the shared [`KvBlockPool`]. Pages are
/// borrowed on append and returned on [`PagedKvCache::clear`] or drop. It is
/// the K/V storage of every
/// [`DecodeContext`](crate::DecodeContext), one per block.
#[derive(Debug)]
pub struct PagedKvCache {
    pool: Arc<KvBlockPool>,
    /// Page ids in position order: logical row `r` lives in
    /// `pages[r / page_rows]` at slot `r % page_rows`.
    pages: Vec<usize>,
    len: usize,
}

impl PagedKvCache {
    /// Creates an empty cache borrowing from `pool`. No page is allocated until
    /// the first append.
    #[must_use]
    pub fn new(pool: Arc<KvBlockPool>) -> Self {
        Self {
            pool,
            pages: Vec::new(),
            len: 0,
        }
    }

    /// Number of positions cached so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no position has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Width of the cached rows.
    #[must_use]
    pub fn embedding_dim(&self) -> usize {
        self.pool.embedding_dim()
    }

    /// The cache's page table: pool page ids in position order.
    #[must_use]
    pub fn page_table(&self) -> &[usize] {
        &self.pages
    }

    /// The pool this cache borrows from.
    #[must_use]
    pub fn pool(&self) -> &Arc<KvBlockPool> {
        &self.pool
    }

    /// Forgets every cached position and returns the pages to the pool.
    pub fn clear(&mut self) {
        self.pool.release_pages(&self.pages);
        self.pages.clear();
        self.len = 0;
    }

    /// Forgets every position past `len`, dropping one reference on each
    /// now-unmapped page (shared pages stay alive for their other owners) —
    /// the rollback primitive a failed multi-block pass uses to restore a
    /// consistent stream state.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.len = len;
        let keep_pages = len.div_ceil(self.pool.page_rows());
        self.pool.release_pages(&self.pages[keep_pages..]);
        self.pages.truncate(keep_pages);
    }

    /// A cache whose first `len` rows are the given (whole, already-owned)
    /// pages, shared by reference — the storage half of attaching an interned
    /// prefix to a new stream. Raises each page's refcount.
    pub(crate) fn attach_prefix(pool: &Arc<KvBlockPool>, pages: &[usize], len: usize) -> Self {
        debug_assert!(len.div_ceil(pool.page_rows()) == pages.len());
        pool.retain_pages(pages);
        Self {
            pool: Arc::clone(pool),
            pages: pages.to_vec(),
            len,
        }
    }

    /// A second cache mapping the same rows: the page table is cloned and every
    /// page's refcount raised — no row data is copied. Both caches read the
    /// shared pages; the first to [`PagedKvCache::append`] past a shared page
    /// copy-on-writes its private replacement, so neither ever observes the
    /// other's writes.
    #[must_use]
    pub fn fork(&self) -> Self {
        self.pool.retain_pages(&self.pages);
        Self {
            pool: Arc::clone(&self.pool),
            pages: self.pages.clone(),
            len: self.len,
        }
    }

    /// Appends projected key/value rows for the next positions, borrowing fresh
    /// pages from the pool as needed (all-or-nothing: on failure the cache is
    /// unchanged). When the partially-filled tail page is shared with another
    /// cache (after a [`PagedKvCache::fork`] or a prefix attach), the live tail
    /// rows are first copied into a private page — copy-on-write — so shared
    /// pages are never written.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::ShapeMismatch`] when the rows have the wrong width and
    /// [`LlmError::KvPoolExhausted`] when the pool cannot supply the pages.
    pub fn append(&mut self, keys: &Matrix, values: &Matrix) -> Result<(), LlmError> {
        let e = self.pool.embedding_dim();
        if keys.cols() != e || values.shape() != keys.shape() {
            return Err(LlmError::ShapeMismatch {
                op: "paged kv append",
                lhs: keys.shape(),
                rhs: (values.rows(), e),
            });
        }
        self.append_rows(keys.as_slice(), values.as_slice())
    }

    /// [`PagedKvCache::append`] of row-major rows: `keys` and `values` hold
    /// the same whole number of `embedding_dim`-wide rows, which the caller
    /// has checked.
    pub(crate) fn append_rows(&mut self, keys: &[f32], values: &[f32]) -> Result<(), LlmError> {
        let e = self.pool.embedding_dim();
        debug_assert!(keys.len() == values.len() && keys.len().is_multiple_of(e));
        let new_rows = keys.len() / e;
        let page_rows = self.pool.page_rows();
        let tail_rows = self.len % page_rows;
        let shared_tail = tail_rows != 0
            && self
                .pages
                .last()
                .is_some_and(|&page| self.pool.page_refcount(page) > 1);
        let needed_pages = (self.len + new_rows).div_ceil(page_rows);
        let grow = needed_pages - self.pages.len() + usize::from(shared_tail);
        // One all-or-nothing allocation covers both the growth and the private
        // tail replacement, so a failed grow never leaves a half-forked table.
        let mut grown = self.pool.alloc_pages(grow)?;
        if shared_tail {
            let fresh = grown.pop().expect("allocated with the grow batch");
            let old = *self.pages.last().expect("shared tail implies a tail page");
            self.pool.copy_page_rows(old, fresh, tail_rows);
            *self.pages.last_mut().expect("tail page") = fresh;
            self.pool.release_pages(&[old]);
        }
        self.pages.extend(grown);
        self.pool.write_rows(&self.pages, self.len, keys, values);
        self.len += new_rows;
        Ok(())
    }

    /// Lends `visit` every live row, in place and in position order
    /// ([`KvRows`]), under one pool-lock acquisition, and returns what it
    /// returns. The attention kernel runs inside the visit, once per stream
    /// per block, so the rows are read where they live instead of copied out
    /// first. The visitor must not call back into the pool: the lock is held.
    pub(crate) fn visit_rows<R>(&self, visit: impl FnOnce(KvRows<'_>) -> R) -> R {
        let inner = self.pool.lock();
        visit(KvRows {
            keys: &inner.keys,
            values: &inner.values,
            pages: &self.pages,
            page_len: self.pool.page_elements(),
            width: self.pool.embedding_dim,
            len: self.len,
        })
    }
}

impl Drop for PagedKvCache {
    fn drop(&mut self) {
        self.pool.release_pages(&self.pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::gaussian_matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rows(n: usize, e: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        gaussian_matrix(&mut rng, n, e, 1.0)
    }

    #[test]
    fn pool_materializes_lazily_and_rounds_capacity_up_to_pages() {
        let pool = KvBlockPool::shared(10, 4, 8);
        assert_eq!(pool.pages_total(), 3);
        assert_eq!(pool.capacity_rows(), 12);
        assert_eq!(pool.page_rows(), 4);
        assert_eq!(pool.embedding_dim(), 8);
        assert_eq!(pool.bytes_materialized(), 0);
        assert_eq!(pool.pages_in_use(), 0);
        assert_eq!(pool.pages_free(), 3);

        let mut cache = PagedKvCache::new(Arc::clone(&pool));
        cache.append(&rows(5, 8, 1), &rows(5, 8, 2)).unwrap();
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.page_table().len(), 2);
        assert_eq!(pool.pages_in_use(), 2);
        assert_eq!(pool.bytes_materialized(), 2 * pool.page_bytes());
        assert_eq!(pool.bytes_in_use(), 2 * pool.page_bytes());
        assert_eq!(pool.peak_pages_in_use(), 2);
        assert_eq!(cache.pool().pages_free(), 1);
        assert_eq!(cache.embedding_dim(), 8);
        assert!(!cache.is_empty());
    }

    #[test]
    fn freed_pages_are_reused_before_fresh_ones() {
        let pool = KvBlockPool::shared(16, 4, 8);
        let mut a = PagedKvCache::new(Arc::clone(&pool));
        a.append(&rows(8, 8, 1), &rows(8, 8, 2)).unwrap();
        let first_tables: Vec<usize> = a.page_table().to_vec();
        a.clear();
        assert_eq!(pool.pages_in_use(), 0);
        assert_eq!(pool.bytes_materialized(), 2 * pool.page_bytes());

        let mut b = PagedKvCache::new(Arc::clone(&pool));
        b.append(&rows(8, 8, 3), &rows(8, 8, 4)).unwrap();
        // No new materialization: b runs entirely on a's freed pages.
        assert_eq!(pool.bytes_materialized(), 2 * pool.page_bytes());
        let mut reused: Vec<usize> = b.page_table().to_vec();
        reused.sort_unstable();
        let mut original = first_tables;
        original.sort_unstable();
        assert_eq!(reused, original);
    }

    #[test]
    fn exhaustion_is_a_typed_error_and_leaves_the_cache_unchanged() {
        let pool = KvBlockPool::shared(8, 4, 8);
        let mut cache = PagedKvCache::new(Arc::clone(&pool));
        cache.append(&rows(6, 8, 1), &rows(6, 8, 2)).unwrap();
        // 6 rows hold 2 pages; 8 more rows would need 2 further pages with 0 free.
        let err = cache.append(&rows(8, 8, 3), &rows(8, 8, 4)).unwrap_err();
        assert_eq!(
            err,
            LlmError::KvPoolExhausted {
                requested_pages: 2,
                free_pages: 0,
            }
        );
        assert_eq!(cache.len(), 6, "failed append must not change the cache");
        assert_eq!(cache.page_table().len(), 2);
        // Appending within the remaining slack of the last page still works.
        cache.append(&rows(2, 8, 5), &rows(2, 8, 6)).unwrap();
        assert_eq!(cache.len(), 8);
    }

    #[test]
    fn append_rejects_mismatched_shapes() {
        let pool = KvBlockPool::shared(8, 4, 8);
        let mut cache = PagedKvCache::new(pool);
        assert!(cache.append(&rows(2, 4, 1), &rows(2, 4, 2)).is_err());
        assert!(cache.append(&rows(2, 8, 1), &rows(3, 8, 2)).is_err());
        assert!(cache.is_empty());
    }

    /// Every live row of `cache` as the visitor lends it, keys and values
    /// each flattened in position order.
    fn visited(cache: &PagedKvCache) -> (Vec<f32>, Vec<f32>) {
        cache.visit_rows(|rows| {
            rows.iter().fold(
                (Vec::new(), Vec::new()),
                |(mut keys, mut values), (k, v)| {
                    keys.extend_from_slice(k);
                    values.extend_from_slice(v);
                    (keys, values)
                },
            )
        })
    }

    #[test]
    fn visited_rows_match_the_dense_rows() {
        // Rows appended in uneven chunks come back in position order at any
        // page size, also when the page table's ids run out of order: a
        // stream that freed its pages leaves them on the LIFO free list, so
        // the next stream takes them in reverse.
        let e = 16;
        for page_rows in [1, 4, 16] {
            let pool = KvBlockPool::shared(64, page_rows, e);
            let mut first = PagedKvCache::new(Arc::clone(&pool));
            first.append(&rows(20, e, 1), &rows(20, e, 2)).unwrap();
            drop(first);
            let mut paged = PagedKvCache::new(Arc::clone(&pool));
            let (mut dense_keys, mut dense_values) = (Vec::new(), Vec::new());
            for (chunk, seed) in [(5usize, 10u64), (1, 20), (6, 30)] {
                let k = rows(chunk, e, seed);
                let v = rows(chunk, e, seed + 1);
                paged.append(&k, &v).unwrap();
                dense_keys.extend_from_slice(k.as_slice());
                dense_values.extend_from_slice(v.as_slice());
            }
            let table = paged.page_table();
            if page_rows < 12 {
                assert!(
                    table.windows(2).any(|w| w[0] > w[1]),
                    "page ids out of order: {table:?}"
                );
            }
            let (keys, values) = visited(&paged);
            assert_eq!(keys, dense_keys, "keys at page_rows {page_rows}");
            assert_eq!(values, dense_values, "values at page_rows {page_rows}");
        }
    }

    #[test]
    fn drop_returns_pages_to_the_pool() {
        let pool = KvBlockPool::shared(8, 2, 4);
        {
            let mut cache = PagedKvCache::new(Arc::clone(&pool));
            cache.append(&rows(3, 4, 1), &rows(3, 4, 2)).unwrap();
            assert_eq!(pool.pages_in_use(), 2);
        }
        assert_eq!(pool.pages_in_use(), 0);
        assert_eq!(pool.peak_pages_in_use(), 2);
    }

    #[test]
    fn clear_empties_the_cache_and_returns_its_pages() {
        let pool = KvBlockPool::shared(8, 2, 4);
        let mut cache = PagedKvCache::new(Arc::clone(&pool));
        assert!(cache.is_empty());
        cache.append(&rows(3, 4, 1), &rows(3, 4, 2)).unwrap();
        assert_eq!(cache.len(), 3);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(pool.pages_in_use(), 0);
    }

    #[test]
    fn eviction_policy_default_rejects() {
        assert_eq!(EvictionPolicy::default(), EvictionPolicy::Reject);
    }

    #[test]
    fn alloc_fault_hook_injects_typed_exhaustion_and_uninstalls_cleanly() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = KvBlockPool::shared(16, 4, 8);
        let seen = Arc::new(AtomicUsize::new(0));
        let seen_hook = Arc::clone(&seen);
        pool.set_alloc_fault(Some(Arc::new(move |requested, free| {
            seen_hook.fetch_add(1, Ordering::SeqCst);
            assert!(free <= 4, "free pages reported to the hook");
            requested >= 1
        })));
        let mut cache = PagedKvCache::new(Arc::clone(&pool));
        let err = cache.append(&rows(2, 8, 1), &rows(2, 8, 2)).unwrap_err();
        assert_eq!(
            err,
            LlmError::KvPoolExhausted {
                requested_pages: 1,
                free_pages: 4,
            },
            "injected fault must be indistinguishable from real exhaustion"
        );
        assert!(cache.is_empty(), "failed append leaves the cache unchanged");
        assert_eq!(seen.load(Ordering::SeqCst), 1);
        // Uninstalling restores normal allocation.
        pool.set_alloc_fault(None);
        cache.append(&rows(2, 8, 1), &rows(2, 8, 2)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(seen.load(Ordering::SeqCst), 1, "removed hook is not called");
    }

    #[test]
    fn fork_shares_pages_without_copying() {
        let pool = KvBlockPool::shared(32, 4, 8);
        let mut a = PagedKvCache::new(Arc::clone(&pool));
        a.append(&rows(8, 8, 1), &rows(8, 8, 2)).unwrap();
        let before = pool.bytes_materialized();
        let b = a.fork();
        assert_eq!(b.len(), 8);
        assert_eq!(b.page_table(), a.page_table());
        assert_eq!(pool.bytes_materialized(), before, "fork copies no rows");
        assert_eq!(pool.pages_in_use(), 2, "shared pages are counted once");
        for &page in a.page_table() {
            assert_eq!(pool.page_refcount(page), 2);
        }
        drop(b);
        for &page in a.page_table() {
            assert_eq!(pool.page_refcount(page), 1);
        }
        drop(a);
        assert_eq!(pool.pages_in_use(), 0);
    }

    #[test]
    fn divergent_append_copy_on_writes_only_the_shared_tail_page() {
        let e = 8;
        let pool = KvBlockPool::shared(64, 4, e);
        let mut a = PagedKvCache::new(Arc::clone(&pool));
        // 6 rows: one full page plus a half-filled tail page.
        a.append(&rows(6, e, 1), &rows(6, e, 2)).unwrap();
        let mut b = a.fork();
        let full_page = a.page_table()[0];
        let old_tail = a.page_table()[1];
        // b diverges: its tail page must be replaced privately, the full page
        // stays shared, and a's view of rows 0..6 is untouched.
        b.append(&rows(3, e, 3), &rows(3, e, 4)).unwrap();
        assert_eq!(
            b.page_table()[0],
            full_page,
            "full prefix page still shared"
        );
        assert_ne!(b.page_table()[1], old_tail, "tail page was forked");
        assert_eq!(pool.page_refcount(full_page), 2);
        assert_eq!(pool.page_refcount(old_tail), 1, "a keeps the old tail");
        // Visited rows agree on the shared region and a never sees b's rows.
        let (ka, va) = visited(&a);
        let (kb, vb) = visited(&b);
        assert_eq!(ka.len(), 6 * e, "a still holds six rows");
        assert_eq!(
            ka,
            kb[..6 * e],
            "shared keys stay byte-identical after the fork"
        );
        assert_eq!(
            va,
            vb[..6 * e],
            "shared values stay byte-identical after the fork"
        );
        // a appends too: its tail is again uniquely owned, no further copy.
        let in_use = pool.pages_in_use();
        a.append(&rows(1, e, 5), &rows(1, e, 6)).unwrap();
        assert_eq!(
            pool.pages_in_use(),
            in_use,
            "a writes its own tail in place"
        );
    }

    #[test]
    fn truncate_on_a_fork_releases_only_its_own_references() {
        let pool = KvBlockPool::shared(32, 4, 8);
        let mut a = PagedKvCache::new(Arc::clone(&pool));
        a.append(&rows(12, 8, 1), &rows(12, 8, 2)).unwrap();
        let mut b = a.fork();
        b.truncate(4);
        assert_eq!(pool.pages_in_use(), 3, "a still maps all three pages");
        assert_eq!(pool.page_refcount(a.page_table()[0]), 2);
        assert_eq!(pool.page_refcount(a.page_table()[2]), 1);
        b.clear();
        a.clear();
        assert_eq!(pool.pages_in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "double-free")]
    fn releasing_an_unowned_page_panics() {
        let pool = KvBlockPool::new(8, 4, 8);
        pool.release_pages(&[0]);
    }

    #[test]
    fn pool_lock_recovers_from_poisoning() {
        let pool = KvBlockPool::shared(8, 4, 8);
        let poisoner = Arc::clone(&pool);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("poison the pool lock on purpose");
        })
        .join();
        // Every entry point still works: the pool recovers the guard instead of
        // cascading the panic into unrelated streams.
        let mut cache = PagedKvCache::new(Arc::clone(&pool));
        cache.append(&rows(3, 8, 1), &rows(3, 8, 2)).unwrap();
        assert_eq!(pool.pages_in_use(), 1);
        assert_eq!(pool.pages_free(), 1);
    }

    #[test]
    fn obs_sink_sees_occupancy_gauges_and_exhaustion_counter() {
        let pool = KvBlockPool::shared(8, 4, 8);
        let obs = haan_obs::Obs::shared(16);
        pool.set_obs_sink(Some(obs.clone() as Arc<dyn ObsSink>));
        let mut cache = PagedKvCache::new(Arc::clone(&pool));
        cache.append(&rows(6, 8, 1), &rows(6, 8, 2)).unwrap();
        let snap = obs.export();
        assert_eq!(snap.gauge("pool.pages_in_use"), Some(2.0));
        assert_eq!(snap.gauge("pool.pages_free"), Some(0.0));
        // A dry pool bumps the exhaustion counter on the typed error path.
        cache.append(&rows(8, 8, 3), &rows(8, 8, 4)).unwrap_err();
        assert_eq!(obs.export().counter("pool.exhaustions"), Some(1));
        cache.clear();
        let snap = obs.export();
        assert_eq!(snap.gauge("pool.pages_in_use"), Some(0.0));
        assert_eq!(snap.gauge("pool.pages_free"), Some(2.0));
        // Detaching the sink stops emission without disturbing the pool.
        pool.set_obs_sink(None);
        cache.append(&rows(2, 8, 5), &rows(2, 8, 6)).unwrap();
        assert_eq!(obs.export().gauge("pool.pages_in_use"), Some(0.0));
    }
}
