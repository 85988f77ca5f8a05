//! Wall-clock measurement helper of `bench_report`, the workspace's one
//! micro-benchmark harness: it times ns/element of the normalization paths, GFLOP/s
//! of the matmul kernels and the other per-call costs it serialises.

use std::time::{Duration, Instant};

/// Result of timing one routine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Nanoseconds per invocation of the routine (best of the measurement batches).
    pub nanos_per_iter: f64,
    /// Total invocations measured.
    pub iterations: u64,
}

/// Times `routine`, returning the best-of-batches nanoseconds per invocation.
///
/// The routine is first calibrated so one batch lasts roughly `target_batch`, then
/// `batches` batches are measured and the fastest is reported (minimum-of-runs is the
/// usual noise filter for short kernels).
pub fn measure<O, F: FnMut() -> O>(
    mut routine: F,
    target_batch: Duration,
    batches: u32,
) -> Measurement {
    let calibration_start = Instant::now();
    std::hint::black_box(routine());
    let once = calibration_start.elapsed().max(Duration::from_nanos(1));
    let per_batch = (target_batch.as_nanos() / once.as_nanos()).clamp(1, 10_000_000) as u64;

    let mut best = f64::INFINITY;
    let mut total_iters = 1u64;
    for _ in 0..batches.max(1) {
        let start = Instant::now();
        for _ in 0..per_batch {
            std::hint::black_box(routine());
        }
        let elapsed = start.elapsed().as_nanos() as f64 / per_batch as f64;
        best = best.min(elapsed);
        total_iters += per_batch;
    }
    Measurement {
        nanos_per_iter: best,
        iterations: total_iters,
    }
}

/// Convenience wrapper with the defaults the report binaries use (≈20 ms batches,
/// best of 5).
pub fn measure_default<O, F: FnMut() -> O>(routine: F) -> Measurement {
    measure(routine, Duration::from_millis(20), 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_positive_and_counts_iterations() {
        let m = measure(
            || std::hint::black_box(3u64).wrapping_mul(7),
            Duration::from_millis(1),
            2,
        );
        assert!(m.nanos_per_iter > 0.0);
        assert!(m.iterations > 1);
    }

    #[test]
    fn slower_routines_measure_slower() {
        let fast = measure_default(|| std::hint::black_box(1u64).wrapping_add(1));
        let slow = measure_default(|| {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc
        });
        assert!(slow.nanos_per_iter > fast.nanos_per_iter);
    }
}
