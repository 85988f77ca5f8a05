//! The flight recorder: a bounded ring of structured, clock-stamped events.
//!
//! Every event carries the microsecond timestamp of the serving engine's
//! injected clock and an optional **correlation ID** naming the decode stream
//! it belongs to, so a stream's full lifecycle (offer → admit/queue → chunked
//! prefill → preempt → resume → finish) can be reconstructed after the fact
//! from the recorder alone — the chaos drills assert exactly that. The ring is
//! bounded: once `capacity` events are held, each append drops the oldest
//! event and bumps [`FlightRecorder::dropped`], so a long-running engine pays
//! constant memory.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// What happened, with the numbers that mattered at the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A stream was offered to admission control.
    Offer {
        /// Estimated pool footprint of the stream, pages.
        est_pages: u64,
    },
    /// The offer was admitted: the stream starts (pre)filling now.
    Admit,
    /// The offer was queued: the stream holds no pages yet.
    Queue,
    /// The offer was refused with a typed retry-after hint.
    Shed {
        /// Suggested client backoff, microseconds.
        retry_after_us: u64,
    },
    /// A queued stream was activated and begins (chunked) prefill.
    Activate,
    /// One prefill chunk of `rows` rows was drained into a lockstep tick.
    ChunkDrain {
        /// Prompt rows fed in this chunk.
        rows: u64,
    },
    /// An interned prefix's pages were attached to a joining stream.
    PrefixAttach {
        /// Cached positions mapped from the shared prefix.
        shared_rows: u64,
    },
    /// The stream was preempted (parked, pages freed) under pool pressure.
    Preempt,
    /// A parked stream resumed (its cache will be re-prefilled).
    Resume {
        /// Rows re-prefilled to rebuild the parked stream's cache.
        reprefill_rows: u64,
    },
    /// A page allocation failed with the typed exhaustion error.
    PoolExhausted {
        /// Pages the failing allocation asked for.
        requested_pages: u64,
        /// Pages that were free at that moment.
        free_pages: u64,
    },
    /// The stream decoded to completion.
    Finish {
        /// Tokens the stream generated.
        generated: u64,
    },
    /// The stream was cancelled by its client.
    Cancel,
    /// A router placed the stream on a decode group.
    Place {
        /// Index of the chosen group in the router's fleet.
        group: u64,
    },
    /// A router migrated the stream between decode groups (parked on the
    /// source, adopted — and transparently re-prefilled — by the destination).
    Migrate {
        /// Index of the group the stream left.
        from_group: u64,
        /// Index of the group that adopted it.
        to_group: u64,
    },
    /// A refcount-0 interned prefix was evicted from the bounded prefix
    /// store; its pages returned to the pool.
    PrefixEvict {
        /// Cached positions the evicted prefix covered.
        rows: u64,
    },
}

impl EventKind {
    /// Short stable label (used by dumps and name-keyed assertions).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Offer { .. } => "offer",
            EventKind::Admit => "admit",
            EventKind::Queue => "queue",
            EventKind::Shed { .. } => "shed",
            EventKind::Activate => "activate",
            EventKind::ChunkDrain { .. } => "chunk_drain",
            EventKind::PrefixAttach { .. } => "prefix_attach",
            EventKind::Preempt => "preempt",
            EventKind::Resume { .. } => "resume",
            EventKind::PoolExhausted { .. } => "pool_exhausted",
            EventKind::Finish { .. } => "finish",
            EventKind::Cancel => "cancel",
            EventKind::Place { .. } => "place",
            EventKind::Migrate { .. } => "migrate",
            EventKind::PrefixEvict { .. } => "prefix_evict",
        }
    }
}

/// One recorded event: clock stamp, optional stream correlation, payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Microseconds on the engine's injected clock (since engine start).
    pub t_us: u64,
    /// Correlation ID of the decode stream this event belongs to, if any
    /// (engine-wide events like prefix evictions carry `None`).
    pub stream: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10} us] ", self.t_us)?;
        match self.stream {
            Some(id) => write!(f, "stream {id:<4} ")?,
            None => write!(f, "engine      ")?,
        }
        match self.kind {
            EventKind::Offer { est_pages } => write!(f, "offer (est {est_pages} pages)"),
            EventKind::Shed { retry_after_us } => {
                write!(f, "shed (retry after ~{retry_after_us} us)")
            }
            EventKind::ChunkDrain { rows } => write!(f, "chunk_drain ({rows} rows)"),
            EventKind::PrefixAttach { shared_rows } => {
                write!(f, "prefix_attach ({shared_rows} shared rows)")
            }
            EventKind::Resume { reprefill_rows } => {
                write!(f, "resume (re-prefill {reprefill_rows} rows)")
            }
            EventKind::PoolExhausted {
                requested_pages,
                free_pages,
            } => write!(
                f,
                "pool_exhausted (wanted {requested_pages}, free {free_pages})"
            ),
            EventKind::Finish { generated } => write!(f, "finish ({generated} tokens)"),
            EventKind::Place { group } => write!(f, "place (group {group})"),
            EventKind::Migrate {
                from_group,
                to_group,
            } => write!(f, "migrate (group {from_group} -> {to_group})"),
            EventKind::PrefixEvict { rows } => write!(f, "prefix_evict ({rows} rows)"),
            _ => write!(f, "{}", self.kind.label()),
        }
    }
}

#[derive(Debug, Default)]
struct RecorderInner {
    ring: VecDeque<ObsEvent>,
    appended: u64,
    dropped: u64,
}

/// A bounded ring buffer of [`ObsEvent`]s.
///
/// ```
/// use haan_obs::{EventKind, FlightRecorder, ObsEvent};
///
/// let recorder = FlightRecorder::new(128);
/// recorder.record(ObsEvent { t_us: 10, stream: Some(1), kind: EventKind::Admit });
/// recorder.record(ObsEvent { t_us: 25, stream: Some(1), kind: EventKind::Finish { generated: 4 } });
/// let lifecycle = recorder.stream_events(1);
/// assert_eq!(lifecycle.len(), 2);
/// assert_eq!(lifecycle[0].kind, EventKind::Admit);
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
    capacity: usize,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(RecorderInner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Appends one event, evicting the oldest if the ring is full.
    pub fn record(&self, event: ObsEvent) {
        let mut inner = crate::lock_recover(&self.inner);
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(event);
        inner.appended += 1;
    }

    /// Largest number of events the ring holds.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        crate::lock_recover(&self.inner).ring.len()
    }

    /// Whether no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events ever appended (including ones since evicted).
    #[must_use]
    pub fn appended(&self) -> u64 {
        crate::lock_recover(&self.inner).appended
    }

    /// Events evicted by ring wraparound; non-zero means the oldest part of a
    /// lifecycle may be missing from [`FlightRecorder::stream_events`].
    #[must_use]
    pub fn dropped(&self) -> u64 {
        crate::lock_recover(&self.inner).dropped
    }

    /// Snapshot of all held events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<ObsEvent> {
        crate::lock_recover(&self.inner)
            .ring
            .iter()
            .copied()
            .collect()
    }

    /// The held events correlated to `stream`, oldest first — a stream's
    /// reconstructed lifecycle.
    #[must_use]
    pub fn stream_events(&self, stream: u64) -> Vec<ObsEvent> {
        crate::lock_recover(&self.inner)
            .ring
            .iter()
            .filter(|e| e.stream == Some(stream))
            .copied()
            .collect()
    }

    /// Renders `stream`'s lifecycle as one line per event (see
    /// `docs/OBSERVABILITY.md` for how to read it).
    #[must_use]
    pub fn dump_stream(&self, stream: u64) -> String {
        use std::fmt::Write as _;
        let events = self.stream_events(stream);
        let mut out = format!("stream {stream}: {} events\n", events.len());
        for event in events {
            let _ = writeln!(out, "  {event}");
        }
        out
    }

    /// Discards all held events (counters are kept).
    pub fn clear(&self) {
        crate::lock_recover(&self.inner).ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(t_us: u64, stream: Option<u64>, kind: EventKind) -> ObsEvent {
        ObsEvent { t_us, stream, kind }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let recorder = FlightRecorder::new(3);
        for t in 0..5u64 {
            recorder.record(event(t, Some(t), EventKind::Admit));
        }
        assert_eq!(recorder.capacity(), 3);
        assert_eq!(recorder.len(), 3);
        assert_eq!(recorder.appended(), 5);
        assert_eq!(recorder.dropped(), 2);
        // The survivors are the newest three, in order.
        let times: Vec<u64> = recorder.events().iter().map(|e| e.t_us).collect();
        assert_eq!(times, [2, 3, 4]);
        recorder.clear();
        assert!(recorder.is_empty());
        assert_eq!(recorder.dropped(), 2, "clear keeps the drop count");
    }

    #[test]
    fn correlation_ids_partition_the_stream_views() {
        let recorder = FlightRecorder::new(64);
        recorder.record(event(1, Some(7), EventKind::Offer { est_pages: 2 }));
        recorder.record(event(2, Some(9), EventKind::Offer { est_pages: 2 }));
        recorder.record(event(3, Some(7), EventKind::Admit));
        recorder.record(event(4, None, EventKind::PrefixEvict { rows: 16 }));
        recorder.record(event(5, Some(7), EventKind::Finish { generated: 3 }));
        let seven = recorder.stream_events(7);
        assert_eq!(seven.len(), 3);
        assert!(seven.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        assert_eq!(recorder.stream_events(9).len(), 1);
        assert!(recorder.stream_events(8).is_empty());
        let dump = recorder.dump_stream(7);
        assert!(dump.contains("stream 7: 3 events"));
        assert!(dump.contains("offer"));
        assert!(dump.contains("finish (3 tokens)"));
    }

    #[test]
    fn event_labels_and_display_are_stable() {
        let kinds = [
            (EventKind::Offer { est_pages: 1 }, "offer"),
            (EventKind::Admit, "admit"),
            (EventKind::Queue, "queue"),
            (EventKind::Shed { retry_after_us: 9 }, "shed"),
            (EventKind::Activate, "activate"),
            (EventKind::ChunkDrain { rows: 4 }, "chunk_drain"),
            (EventKind::PrefixAttach { shared_rows: 8 }, "prefix_attach"),
            (EventKind::Preempt, "preempt"),
            (EventKind::Resume { reprefill_rows: 2 }, "resume"),
            (
                EventKind::PoolExhausted {
                    requested_pages: 3,
                    free_pages: 1,
                },
                "pool_exhausted",
            ),
            (EventKind::Finish { generated: 0 }, "finish"),
            (EventKind::Cancel, "cancel"),
            (EventKind::Place { group: 2 }, "place"),
            (
                EventKind::Migrate {
                    from_group: 0,
                    to_group: 3,
                },
                "migrate",
            ),
            (EventKind::PrefixEvict { rows: 16 }, "prefix_evict"),
        ];
        for (kind, label) in kinds {
            assert_eq!(kind.label(), label);
            let line = event(0, None, kind).to_string();
            assert!(line.contains(label), "{line} should mention {label}");
        }
        let line = event(12, Some(3), EventKind::Preempt).to_string();
        assert!(line.contains("stream 3"));
        assert!(line.contains("12 us"));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let recorder = FlightRecorder::new(0);
        recorder.record(event(1, None, EventKind::Admit));
        recorder.record(event(2, None, EventKind::Cancel));
        assert_eq!(recorder.len(), 1);
        assert_eq!(recorder.events()[0].t_us, 2);
    }
}
