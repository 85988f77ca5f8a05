//! Deterministic fault injection for overload and chaos drills.
//!
//! Robustness claims ("admitted work completes bit-identical to solo decode,
//! whatever the pool does") are only testable if failures can be *provoked on
//! demand and reproduced exactly*. This module defines the [`FaultInjector`]
//! trait the engine threads through **pool allocation**:
//! [`FaultInjector::on_pool_alloc`] is consulted (via
//! [`KvBlockPool::set_alloc_fault`](haan_llm::KvBlockPool::set_alloc_fault))
//! before every page allocation; returning `true` injects a typed
//! [`LlmError::KvPoolExhausted`](haan_llm::LlmError) exactly as if the pool were
//! full, which exercises the preemption/resume and retry-rollback paths.
//!
//! [`SeededFaults`] is the stock deterministic implementation: a [`FaultPlan`]
//! of a probability and a budget driven by one seeded ChaCha12 stream. Pool
//! allocations happen on the thread that ticks the group, in a deterministic
//! order, so a given seed reproduces the exact same fault schedule on every
//! run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// A source of injected faults, threaded through the engine's pool allocation.
///
/// The hook defaults to "no fault". Implementations must be `Send + Sync`
/// (busy router groups tick on separate threads) and should be deterministic per
/// seed if drills built on them are to reproduce.
pub trait FaultInjector: std::fmt::Debug + Send + Sync {
    /// Consulted before every pool page allocation with the requested page
    /// count and the pages currently free; return `true` to inject a typed
    /// pool-exhaustion failure in place of the allocation.
    fn on_pool_alloc(&self, requested_pages: usize, free_pages: usize) -> bool {
        let _ = (requested_pages, free_pages);
        false
    }
}

/// Probability and budget of the stock [`SeededFaults`] injector.
///
/// The default plan injects nothing:
///
/// ```
/// use haan_serve::FaultPlan;
///
/// let plan = FaultPlan {
///     exhaust_probability: 0.2,
///     max_exhaustions: 3,
/// };
/// assert_eq!(FaultPlan::default().exhaust_probability, 0.0);
/// assert_ne!(plan, FaultPlan::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Per-allocation probability of injecting pool exhaustion.
    pub exhaust_probability: f64,
    /// Most pool exhaustions to inject in total.
    pub max_exhaustions: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            exhaust_probability: 0.0,
            max_exhaustions: u64::MAX,
        }
    }
}

/// Counts of faults actually injected so far, snapshotted by
/// [`SeededFaults::injected`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Pool exhaustions injected.
    pub exhaustions: u64,
}

#[derive(Debug)]
struct SiteState {
    rng: StdRng,
    injected: u64,
}

/// The stock deterministic injector: seeded Bernoulli draws per allocation,
/// bounded by the plan's budget. Counter snapshots are cheap, so
/// [`SeededFaults::injected`] is safe to call from assertions mid-drill.
#[derive(Debug)]
pub struct SeededFaults {
    plan: FaultPlan,
    pool: Mutex<SiteState>,
}

impl SeededFaults {
    /// Creates an injector executing `plan` with draws derived from `seed`.
    #[must_use]
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        Self {
            plan,
            // The tag is part of the seed → schedule mapping that seeded
            // drills rely on; changing it changes every drill's faults.
            pool: Mutex::new(SiteState {
                rng: StdRng::seed_from_u64(seed ^ 0x706f_6f6c),
                injected: 0,
            }),
        }
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Snapshot of the faults injected so far.
    #[must_use]
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            exhaustions: haan_obs::lock_recover(&self.pool).injected,
        }
    }
}

impl FaultInjector for SeededFaults {
    fn on_pool_alloc(&self, _requested_pages: usize, _free_pages: usize) -> bool {
        if self.plan.exhaust_probability <= 0.0 {
            return false;
        }
        // The site lock only guards an RNG and a counter; both stay internally
        // consistent across a panic mid-draw, so poisoning is recoverable.
        let mut state = haan_obs::lock_recover(&self.pool);
        if state.injected >= self.plan.max_exhaustions {
            return false;
        }
        if state.rng.gen_bool(self.plan.exhaust_probability.min(1.0)) {
            state.injected += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let faults = SeededFaults::new(7, FaultPlan::default());
        for _ in 0..64 {
            assert!(!faults.on_pool_alloc(4, 4));
        }
        assert_eq!(faults.injected(), InjectedFaults::default());
    }

    #[test]
    fn schedules_reproduce_exactly_per_seed() {
        let plan = FaultPlan {
            exhaust_probability: 0.3,
            ..Default::default()
        };
        let run = |seed: u64| {
            let faults = SeededFaults::new(seed, plan);
            let pool: Vec<bool> = (0..64).map(|_| faults.on_pool_alloc(1, 8)).collect();
            (pool, faults.injected())
        };
        let first = run(42);
        assert_eq!(first, run(42), "same seed must replay the same schedule");
        assert_ne!(first, run(43), "different seeds should diverge");
        assert!(first.0.iter().any(|&hit| hit), "p=0.3 over 64 draws");
        assert!(first.1.exhaustions > 0);
    }

    #[test]
    fn budgets_cap_each_fault_kind() {
        let faults = SeededFaults::new(
            1,
            FaultPlan {
                exhaust_probability: 1.0,
                max_exhaustions: 2,
            },
        );
        assert_eq!(faults.plan().max_exhaustions, 2);
        assert!(faults.on_pool_alloc(1, 1));
        assert!(faults.on_pool_alloc(1, 1));
        assert!(!faults.on_pool_alloc(1, 1), "budget of 2 is spent");
        assert_eq!(faults.injected(), InjectedFaults { exhaustions: 2 });
    }
}
