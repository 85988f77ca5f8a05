//! The one measurement of `bench_report`, the workspace's micro-benchmark
//! harness: every timed number it reports comes from [`rounds`] over the paths
//! of one comparison, as the [`Spread`] (median, min, max, n) of its rounds.

use haan_obs::json::JsonValue;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rounds of every comparison: each path is sampled once per round. Odd, so
/// the median is one of the samples.
pub const ROUNDS: usize = 9;

/// Wall time one [`ns_per_call`] sample batches calls up to.
const BATCH: Duration = Duration::from_millis(10);

/// The median, extremes and count of one path's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The middle sample (the upper middle of an even count).
    pub median: f64,
    /// The smallest sample.
    pub min: f64,
    /// The largest sample.
    pub max: f64,
    /// Samples taken.
    pub n: usize,
}

impl Spread {
    /// The spread of `samples`.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self {
            median: sorted[sorted.len() / 2],
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }

    /// The same spread in another unit: `convert` must be monotonic, and a
    /// decreasing one (ns per call into calls per second) swaps the extremes.
    #[must_use]
    pub fn map(self, convert: impl Fn(f64) -> f64) -> Self {
        let (a, b) = (convert(self.min), convert(self.max));
        Self {
            median: convert(self.median),
            min: a.min(b),
            max: a.max(b),
            n: self.n,
        }
    }
}

impl From<Spread> for JsonValue {
    fn from(spread: Spread) -> Self {
        JsonValue::object([
            ("median", JsonValue::from(spread.median)),
            ("min", JsonValue::from(spread.min)),
            ("max", JsonValue::from(spread.max)),
            ("n", JsonValue::from(spread.n)),
        ])
    }
}

/// Samples the `P` paths of one comparison over [`ROUNDS`] rounds and returns
/// each path's spread. `sample(path)` takes one sample of path `path`; every
/// round samples each path once, starting at a different path each round, so
/// a drift in host load or clock falls on every path alike. A ratio of two
/// paths is the ratio of their medians.
pub fn rounds<const P: usize>(mut sample: impl FnMut(usize) -> f64) -> [Spread; P] {
    let mut samples: [Vec<f64>; P] = std::array::from_fn(|_| Vec::with_capacity(ROUNDS));
    for round in 0..ROUNDS {
        for path in (0..P).map(|i| (i + round) % P) {
            samples[path].push(sample(path));
        }
    }
    samples.map(|s| Spread::of(&s))
}

/// One sample of a short routine: nanoseconds per call over a batch of about
/// `BATCH`. The batch is sized from one first call, which also warms the
/// routine's caches and is not counted.
pub fn ns_per_call<O>(mut routine: impl FnMut() -> O) -> f64 {
    let started = Instant::now();
    black_box(routine());
    let once = started.elapsed().max(Duration::from_nanos(1));
    let calls = (BATCH.as_nanos() / once.as_nanos()).clamp(1, 10_000_000) as u32;
    let started = Instant::now();
    for _ in 0..calls {
        black_box(routine());
    }
    started.elapsed().as_nanos() as f64 / f64::from(calls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_positive_and_counts_rounds() {
        let [a, b] = rounds(|path| ns_per_call(|| black_box(3u64 + path as u64).wrapping_mul(7)));
        for spread in [a, b] {
            assert!(spread.min > 0.0);
            assert_eq!(spread.n, ROUNDS);
        }
    }

    #[test]
    fn slower_routines_measure_slower() {
        let [fast, slow] = rounds(|path| {
            if path == 0 {
                ns_per_call(|| black_box(1u64).wrapping_add(1))
            } else {
                ns_per_call(|| (0..1000u64).fold(0u64, |acc, i| acc.wrapping_add(black_box(i))))
            }
        });
        assert!(slow.median > fast.median);
    }

    /// Every path of `P` is sampled once per round and starts ⌊R/P⌋ or
    /// ⌈R/P⌉ of the R = `ROUNDS` rounds.
    fn assert_balanced<const P: usize>() {
        let (mut starts, mut calls) = ([0; P], 0);
        let spreads: [Spread; P] = rounds(|path| {
            if calls % P == 0 {
                starts[path] += 1;
            }
            calls += 1;
            0.0
        });
        assert_eq!(spreads.map(|s| s.n), [ROUNDS; P], "{P} paths");
        for s in starts {
            assert!(
                s == ROUNDS / P || s == ROUNDS.div_ceil(P),
                "{P} paths: starts {starts:?}"
            );
        }
    }

    #[test]
    fn every_path_starts_a_balanced_share_of_rounds() {
        assert_balanced::<1>();
        assert_balanced::<2>();
        assert_balanced::<3>();
        assert_balanced::<4>();
        assert_balanced::<5>();
    }

    #[test]
    fn spread_of_known_samples() {
        let spread = Spread::of(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0]);
        let expected = Spread {
            median: 4.0,
            min: 1.0,
            max: 9.0,
            n: 9,
        };
        assert_eq!(spread, expected);
        // A decreasing conversion swaps the extremes.
        let rate = spread.map(|v| 36.0 / v);
        assert_eq!(
            (rate.median, rate.min, rate.max, rate.n),
            (9.0, 4.0, 36.0, 9)
        );
        let json = JsonValue::from(spread);
        assert_eq!(json.render(), r#"{"median":4,"min":1,"max":9,"n":9}"#);
    }
}
