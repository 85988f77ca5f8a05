//! The metrics registry: lock-cheap counters, gauges, and log-scale histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`s over
//! atomics: the registry mutex is touched only at registration time, never on
//! the record path. Metric names are hierarchical dot-paths
//! (`group.tick_rows`, `pool.pages_in_use`, `haan.skip_rate.site_0`);
//! [`ObsRegistry::export`] snapshots every metric sorted by name, and the
//! snapshot renders as JSON (round-trippable via [`ObsSnapshot::from_json`])
//! or Prometheus-style text.

use crate::json::JsonValue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-bucket resolution of [`Histogram`]: `2^SUB_BITS` buckets per octave.
const SUB_BITS: u32 = 3;
/// Sub-buckets per power of two (8 → worst-case quantile error ≤ 1/8).
const SUB: usize = 1 << SUB_BITS;
/// Total fixed bucket count covering the whole `u64` range.
const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A monotonically increasing counter handle.
///
/// Cloning shares the underlying atomic; increments are a single relaxed
/// `fetch_add`, no lock.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle holding an `f64` (bit-cast into an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        let gauge = Gauge(Arc::default());
        gauge.set(0.0);
        gauge
    }
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket log-scale histogram over `u64` samples.
///
/// Values below `2·2^SUB_BITS` (= 16) get exact unit-width buckets; above
/// that, each power-of-two octave splits into 8 equal sub-buckets, so a
/// quantile estimate is off by at most a factor `1/8` of the true value —
/// constant memory (one atomic per bucket) regardless of sample count,
/// replacing the bounded sorted-window percentile vector the serving
/// telemetry used before.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Saturating sum of all recorded samples (for mean estimates).
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index of `value` (exact below 16, log-scale with [`SUB`]
/// sub-buckets per octave above).
fn bucket_index(value: u64) -> usize {
    if value < 2 * SUB as u64 {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros() as usize;
        let shift = msb - SUB_BITS as usize;
        let sub = ((value >> shift) as usize) & (SUB - 1);
        (msb - SUB_BITS as usize + 1) * SUB + sub
    }
}

/// Inclusive lower bound of bucket `index` (inverse of [`bucket_index`]).
fn bucket_lower(index: usize) -> u64 {
    if index < 2 * SUB {
        index as u64
    } else {
        let octave = index / SUB;
        let sub = index % SUB;
        ((SUB + sub) as u64) << (octave - 1)
    }
}

/// Inclusive upper bound of bucket `index`.
fn bucket_upper(index: usize) -> u64 {
    if index + 1 < NUM_BUCKETS {
        bucket_lower(index + 1) - 1
    } else {
        u64::MAX
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap: a multi-day run must degrade the mean,
        // not corrupt it.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |sum| {
                Some(sum.saturating_add(value))
            });
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Snapshot of the histogram (consistent enough for reporting: buckets are
    /// read one by one while writers may proceed).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then_some((bucket_lower(i), count))
            })
            .collect();
        let count = buckets.iter().map(|&(_, c)| c).sum();
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) — midpoint of the bucket where
    /// the cumulative count crosses `q · count`, exact for values below 16.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// A point-in-time view of one [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// `(inclusive_lower_bound, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile of the snapshot; see [`Histogram::quantile`].
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(lower, count) in &self.buckets {
            seen += count;
            if seen >= rank {
                let upper = bucket_upper(bucket_index(lower)).min(self.max);
                let mid = lower + (upper - lower) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// The process-wide metric registry: named counters, gauges, and histograms.
///
/// ```
/// use haan_obs::ObsRegistry;
///
/// let registry = ObsRegistry::new();
/// registry.counter("serve.prefix.hits").add(3);
/// registry.gauge("pool.pages_in_use").set(5.0);
/// registry.histogram("group.tick_rows").record(120);
/// let snapshot = registry.export();
/// assert_eq!(snapshot.counter("serve.prefix.hits"), Some(3));
/// let round_trip = haan_obs::ObsSnapshot::from_json(&snapshot.to_json()).unwrap();
/// assert_eq!(round_trip, snapshot);
/// ```
#[derive(Debug, Default)]
pub struct ObsRegistry {
    inner: Mutex<RegistryInner>,
}

impl ObsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, creating it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = crate::lock_recover(&self.inner);
        match inner.counters.get(name) {
            Some(counter) => counter.clone(),
            None => {
                let counter = Counter::default();
                inner.counters.insert(name.to_string(), counter.clone());
                counter
            }
        }
    }

    /// The gauge named `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = crate::lock_recover(&self.inner);
        match inner.gauges.get(name) {
            Some(gauge) => gauge.clone(),
            None => {
                let gauge = Gauge::default();
                inner.gauges.insert(name.to_string(), gauge.clone());
                gauge
            }
        }
    }

    /// The histogram named `name`, creating it empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = crate::lock_recover(&self.inner);
        match inner.histograms.get(name) {
            Some(histogram) => Arc::clone(histogram),
            None => {
                let histogram = Arc::new(Histogram::default());
                inner
                    .histograms
                    .insert(name.to_string(), Arc::clone(&histogram));
                histogram
            }
        }
    }

    /// Snapshot of every registered metric, sorted by name.
    #[must_use]
    pub fn export(&self) -> ObsSnapshot {
        let inner = crate::lock_recover(&self.inner);
        ObsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time export of an [`ObsRegistry`]: plain data, renderable as
/// JSON (lossless, see [`ObsSnapshot::from_json`]) or Prometheus-style text.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsSnapshot {
    /// `(name, value)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` per histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl ObsSnapshot {
    /// The exported value of counter `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The exported value of gauge `name`, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The exported snapshot of histogram `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as a compact JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let histograms = self.histograms.iter().map(|(name, h)| {
            (
                name.clone(),
                JsonValue::object([
                    ("count", JsonValue::Number(h.count as f64)),
                    ("sum", JsonValue::Number(h.sum as f64)),
                    ("min", JsonValue::Number(h.min as f64)),
                    ("max", JsonValue::Number(h.max as f64)),
                    ("p50", JsonValue::Number(h.quantile(0.50) as f64)),
                    ("p90", JsonValue::Number(h.quantile(0.90) as f64)),
                    ("p99", JsonValue::Number(h.quantile(0.99) as f64)),
                    (
                        "buckets",
                        JsonValue::array(h.buckets.iter().map(|&(lower, count)| {
                            JsonValue::array([
                                JsonValue::Number(lower as f64),
                                JsonValue::Number(count as f64),
                            ])
                        })),
                    ),
                ]),
            )
        });
        JsonValue::object([
            (
                "counters",
                JsonValue::object(
                    self.counters
                        .iter()
                        .map(|(name, v)| (name.clone(), JsonValue::Number(*v as f64))),
                ),
            ),
            (
                "gauges",
                JsonValue::object(
                    self.gauges
                        .iter()
                        .map(|(name, v)| (name.clone(), JsonValue::Number(*v))),
                ),
            ),
            ("histograms", JsonValue::object(histograms)),
        ])
        .render()
    }

    /// Parses a document produced by [`ObsSnapshot::to_json`] back into a
    /// snapshot (the derived quantile fields are recomputed from the buckets,
    /// so `from_json(to_json(s)) == s`).
    ///
    /// # Errors
    ///
    /// Returns a description when the document is not valid JSON or does not
    /// have the snapshot shape.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(json)?;
        let object = |key: &str| -> Result<&[(String, JsonValue)], String> {
            match doc.get(key) {
                Some(JsonValue::Object(pairs)) => Ok(pairs),
                _ => Err(format!("missing {key:?} object")),
            }
        };
        let counters = object("counters")?
            .iter()
            .map(|(name, v)| {
                v.as_u64()
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("counter {name:?} is not a u64"))
            })
            .collect::<Result<_, _>>()?;
        let gauges = object("gauges")?
            .iter()
            .map(|(name, v)| {
                v.as_number()
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("gauge {name:?} is not a number"))
            })
            .collect::<Result<_, _>>()?;
        let histograms = object("histograms")?
            .iter()
            .map(|(name, h)| {
                let field = |key: &str| -> Result<u64, String> {
                    h.get(key)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("histogram {name:?} field {key:?} is not a u64"))
                };
                let buckets = match h.get("buckets") {
                    Some(JsonValue::Array(entries)) => entries
                        .iter()
                        .map(|entry| match entry {
                            JsonValue::Array(pair) if pair.len() == 2 => pair[0]
                                .as_u64()
                                .zip(pair[1].as_u64())
                                .ok_or_else(|| format!("histogram {name:?} bucket is not u64")),
                            _ => Err(format!("histogram {name:?} bucket is not a pair")),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err(format!("histogram {name:?} has no bucket array")),
                };
                Ok((
                    name.clone(),
                    HistogramSnapshot {
                        count: field("count")?,
                        sum: field("sum")?,
                        min: field("min")?,
                        max: field("max")?,
                        buckets,
                    },
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            counters,
            gauges,
            histograms,
        })
    }

    /// Renders the snapshot as Prometheus-style exposition text (dots in
    /// metric names become underscores; histograms emit cumulative
    /// `_bucket{le=…}` series plus `_sum` and `_count`).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let sanitize = |name: &str| name.replace('.', "_");
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
        }
        for (name, value) in &self.gauges {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
        }
        for (name, h) in &self.histograms {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for &(lower, count) in &h.buckets {
                cumulative += count;
                let le = bucket_upper(bucket_index(lower));
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_inverse_and_contiguous() {
        // Every bucket's bounds map back to its own index, and consecutive
        // buckets tile the line without gaps.
        for index in 0..NUM_BUCKETS {
            let lower = bucket_lower(index);
            let upper = bucket_upper(index);
            assert_eq!(bucket_index(lower), index, "lower bound of {index}");
            assert_eq!(bucket_index(upper), index, "upper bound of {index}");
            assert!(lower <= upper);
            if index + 1 < NUM_BUCKETS {
                assert_eq!(bucket_upper(index) + 1, bucket_lower(index + 1));
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact_and_large_values_stay_within_an_eighth() {
        let h = Histogram::default();
        for v in 0..16u64 {
            h.record(v);
        }
        // Values below 16 occupy exact unit buckets.
        for v in 0..16u64 {
            let snapshot = h.snapshot();
            assert!(snapshot.buckets.contains(&(v, 1)));
        }
        let h = Histogram::default();
        h.record(1_000_000);
        let q = h.quantile(0.5);
        let err = (q as f64 - 1_000_000.0).abs() / 1_000_000.0;
        assert!(err <= 1.0 / 8.0, "quantile {q} err {err}");
    }

    #[test]
    fn quantiles_clamp_to_observed_min_and_max() {
        let h = Histogram::default();
        h.record(1000);
        // A single sample: every quantile is that sample's bucket, clamped to
        // the observed extremes so it can never exceed what was recorded.
        assert_eq!(h.quantile(0.0), 1000);
        assert_eq!(h.quantile(0.5), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.snapshot().sum, u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn registry_handles_are_shared_and_export_is_sorted() {
        let registry = ObsRegistry::new();
        let a = registry.counter("z.last");
        let b = registry.counter("z.last");
        a.inc();
        b.add(2);
        registry.counter("a.first").inc();
        registry.gauge("mid.gauge").set(1.5);
        registry.histogram("h.hist").record(7);
        let snapshot = registry.export();
        assert_eq!(snapshot.counter("z.last"), Some(3));
        let names: Vec<&str> = snapshot.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a.first", "z.last"]);
        assert_eq!(snapshot.gauge("mid.gauge"), Some(1.5));
        assert_eq!(snapshot.histogram("h.hist").map(|h| h.count), Some(1));
        assert_eq!(snapshot.counter("missing"), None);
        assert_eq!(snapshot.gauge("missing"), None);
        assert!(snapshot.histogram("missing").is_none());
    }

    #[test]
    fn export_round_trips_through_json() {
        let registry = ObsRegistry::new();
        registry.counter("serve.prefix.hits").add(42);
        registry.gauge("pool.pages_in_use").set(12.5);
        registry.gauge("haan.skip_rate.site_0").set(0.75);
        let h = registry.histogram("group.tick_rows");
        for v in [0, 1, 15, 16, 1000, 123_456_789, u64::MAX] {
            h.record(v);
        }
        let snapshot = registry.export();
        let parsed = ObsSnapshot::from_json(&snapshot.to_json()).expect("parses");
        assert_eq!(parsed, snapshot);
        // And the parse surface rejects junk.
        assert!(ObsSnapshot::from_json("{}").is_err());
        assert!(ObsSnapshot::from_json("[1]").is_err());
        assert!(ObsSnapshot::from_json(
            "{\"counters\":{\"a\":-1},\"gauges\":{},\"histograms\":{}}"
        )
        .is_err());
    }

    #[test]
    fn prometheus_text_has_cumulative_buckets() {
        let registry = ObsRegistry::new();
        registry.counter("serve.prefix.hits").add(2);
        registry.gauge("pool.pages_in_use").set(3.0);
        let h = registry.histogram("group.tick_rows");
        h.record(1);
        h.record(1);
        h.record(100);
        let text = registry.export().to_prometheus();
        assert!(text.contains("# TYPE serve_prefix_hits counter\nserve_prefix_hits 2"));
        assert!(text.contains("# TYPE pool_pages_in_use gauge\npool_pages_in_use 3"));
        assert!(text.contains("group_tick_rows_bucket{le=\"1\"} 2"));
        assert!(text.contains("group_tick_rows_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("group_tick_rows_count 3"));
        assert!(text.contains("group_tick_rows_sum 102"));
    }

    #[test]
    fn histogram_mean_is_exact_until_saturation() {
        let h = Histogram::default();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let snapshot = h.snapshot();
        assert!((snapshot.mean() - 20.0).abs() < 1e-12);
        assert_eq!(HistogramSnapshot::default().mean(), 0.0);
    }
}
