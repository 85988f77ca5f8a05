//! The [`ObsSink`] trait: the zero-cost-when-disabled seam the stack emits to.
//!
//! Instrumented layers hold an `Option<Arc<dyn ObsSink>>`; with `None` (the
//! default everywhere) each site is a single branch on the hot path and emits
//! nothing. Installing a sink turns the same sites into metric updates and
//! flight-recorder appends. [`Obs`] is the batteries-included sink — a
//! registry plus a recorder — that the examples, benches, and chaos drills
//! use.

use crate::recorder::{FlightRecorder, ObsEvent};
use crate::registry::{ObsRegistry, ObsSnapshot};
use std::fmt;
use std::sync::Arc;

/// Receiver of observability signals from the serving stack.
///
/// Every method has a no-op default, so a sink implements only what it cares
/// about. Implementations must be cheap and non-blocking: they run inside the
/// lockstep decode tick and every normalization site call.
pub trait ObsSink: fmt::Debug + Send + Sync {
    /// A structured, clock-stamped flight-recorder event.
    fn event(&self, event: ObsEvent) {
        let _ = event;
    }

    /// Adds `delta` to the counter named `name`.
    fn counter_add(&self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the gauge named `name`.
    fn gauge_set(&self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Records `value` into the histogram named `name`.
    fn record(&self, name: &str, value: u64) {
        let _ = (name, value);
    }
}

/// The standard sink: an [`ObsRegistry`] plus a [`FlightRecorder`].
///
/// ```
/// use haan_obs::{EventKind, Obs, ObsEvent, ObsSink};
///
/// let obs = Obs::new(1024);
/// obs.counter_add("serve.prefix.hits", 1);
/// obs.record("group.tick_rows", 42);
/// obs.event(ObsEvent { t_us: 5, stream: Some(1), kind: EventKind::Admit });
/// assert_eq!(obs.registry().export().counter("serve.prefix.hits"), Some(1));
/// assert_eq!(obs.recorder().stream_events(1).len(), 1);
/// ```
#[derive(Debug)]
pub struct Obs {
    registry: ObsRegistry,
    recorder: FlightRecorder,
}

impl Obs {
    /// Creates a sink whose flight recorder holds at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            registry: ObsRegistry::new(),
            recorder: FlightRecorder::new(capacity),
        }
    }

    /// Shared-ownership constructor, ready to hand to an engine config.
    #[must_use]
    pub fn shared(capacity: usize) -> Arc<Self> {
        Arc::new(Self::new(capacity))
    }

    /// The metric registry.
    #[must_use]
    pub fn registry(&self) -> &ObsRegistry {
        &self.registry
    }

    /// The flight recorder.
    #[must_use]
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Shorthand for `registry().export()`.
    #[must_use]
    pub fn export(&self) -> ObsSnapshot {
        self.registry.export()
    }
}

impl ObsSink for Obs {
    fn event(&self, event: ObsEvent) {
        self.recorder.record(event);
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.registry.counter(name).add(delta);
    }

    fn gauge_set(&self, name: &str, value: f64) {
        self.registry.gauge(name).set(value);
    }

    fn record(&self, name: &str, value: u64) {
        self.registry.histogram(name).record(value);
    }
}

/// A sink that discards everything — for measuring the cost of the sink
/// dispatch itself (the "enabled but idle" floor in the perf report).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ObsSink for NullSink {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::EventKind;

    #[test]
    fn obs_routes_to_registry_and_recorder() {
        let obs = Obs::new(8);
        obs.counter_add("a.count", 2);
        obs.gauge_set("a.gauge", 1.25);
        obs.record("a.hist", 100);
        obs.event(ObsEvent {
            t_us: 1,
            stream: Some(4),
            kind: EventKind::Queue,
        });
        let snapshot = obs.export();
        assert_eq!(snapshot.counter("a.count"), Some(2));
        assert_eq!(snapshot.gauge("a.gauge"), Some(1.25));
        assert_eq!(snapshot.histogram("a.hist").map(|h| h.count), Some(1));
        assert_eq!(obs.recorder().stream_events(4).len(), 1);
    }

    #[test]
    fn null_sink_and_defaults_swallow_everything() {
        let sink = NullSink;
        sink.counter_add("x", 1);
        sink.gauge_set("x", 1.0);
        sink.record("x", 1);
        sink.event(ObsEvent {
            t_us: 0,
            stream: None,
            kind: EventKind::Admit,
        });
        // Trait-object dispatch works for shared sinks.
        let dynamic: Arc<dyn ObsSink> = Obs::shared(4);
        dynamic.counter_add("via.dyn", 1);
    }
}
