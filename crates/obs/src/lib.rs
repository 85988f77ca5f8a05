//! `haan_obs` — the unified observability layer of the HAAN reproduction.
//!
//! The serving stack's snapshot APIs (`GroupStats`, `AdmissionStats`, pool
//! counters) have no shared clock and no history. This crate is the one seam
//! they all report through:
//!
//! * [`ObsRegistry`] — lock-cheap named [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket log-scale [`Histogram`]s, exportable as round-trippable
//!   JSON or Prometheus-style text ([`ObsSnapshot`]).
//! * [`FlightRecorder`] — a bounded ring of structured [`ObsEvent`]s stamped
//!   by the engine's injected clock and correlated per stream, so "why was
//!   this stream's first token late?" is answerable after the fact.
//! * [`ObsSink`] — the zero-cost-when-disabled trait the serving engine,
//!   decode groups, K/V pool, and normalizer emit into; [`Obs`] bundles a
//!   registry and recorder behind it.
//!
//! The metric name catalog and event schema live in `docs/OBSERVABILITY.md`.
//! This crate sits below every other workspace crate and has no dependencies,
//! so any layer can emit without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod recorder;
mod registry;
mod sink;

pub use recorder::{EventKind, FlightRecorder, ObsEvent};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, ObsRegistry, ObsSnapshot};
pub use sink::{NullSink, Obs, ObsSink};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
///
/// Every long-lived lock in the stack (pool free lists, prefix stores, fault
/// injector sites) wants the same policy — a poisoned mutex means a *past*
/// caller panicked, and refusing service forever on its account would turn one
/// panic into a full outage. This helper is that policy, deduplicated.
///
/// ```
/// use std::sync::Mutex;
///
/// let counter = Mutex::new(0u32);
/// *haan_obs::lock_recover(&counter) += 1;
/// assert_eq!(*haan_obs::lock_recover(&counter), 1);
/// ```
pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn lock_recover_survives_poisoning() {
        let mutex = std::sync::Arc::new(Mutex::new(41u32));
        let poisoner = std::sync::Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().expect("first lock");
            panic!("poison the mutex");
        })
        .join();
        assert!(mutex.is_poisoned());
        let mut guard = super::lock_recover(&mutex);
        *guard += 1;
        assert_eq!(*guard, 42);
    }
}
