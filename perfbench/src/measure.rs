//! Measurement helpers: percentiles that refuse unsupported tails, failure and
//! SLO accounting, peak RSS, and the report the command prints.

use haan_obs::json::JsonValue;
use std::time::Instant;

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The samples of one timing (or other per-event) metric.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        ratio(self.sum(), self.0.len() as f64)
    }

    /// Nearest-rank `p`-quantile (`p` in `(0, 1)`). Refused when fewer than
    /// [`MIN_BEYOND`] samples lie above its rank: such a tail is one or two
    /// outliers, not a percentile.
    pub fn quantile(&self, p: f64) -> Result<f64, String> {
        let n = self.0.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        let beyond = n.saturating_sub(rank);
        if n == 0 || beyond < MIN_BEYOND {
            return Err(format!(
                "p{} of {n} samples refused: {beyond} lie beyond it, {MIN_BEYOND} are needed",
                p * 100.0
            ));
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Ok(sorted[rank - 1])
    }
}

/// The median of a few repeated measurements (set-up times). Unlike
/// [`Samples::quantile`] it applies no tail rule: the median of three is the
/// point of repeating.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Latency limits a session must meet to count toward `slo_frac`.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    pub ttft_ms: f64,
    pub itl_ms: f64,
}

/// Per-session outcome accounting. A session that is shed, errors, or fails
/// its output check is a failure and never meets the SLO.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    pub offered: u64,
    pub completed: u64,
    pub met_slo: u64,
    pub shed: u64,
    pub errored: u64,
    pub failed_checks: u64,
}

impl Ledger {
    /// Records a session that generated its whole budget. It meets the SLO
    /// when its first token and its mean gap between tokens are within limits.
    pub fn complete(&mut self, ttft_ms: f64, mean_itl_ms: f64, slo: Slo) {
        self.completed += 1;
        if ttft_ms <= slo.ttft_ms && mean_itl_ms <= slo.itl_ms {
            self.met_slo += 1;
        }
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.errored + self.failed_checks
    }

    pub fn slo_frac(&self) -> f64 {
        ratio(self.met_slo as f64, self.offered as f64)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("reading /proc/self/status: {err}"))?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|err| format!("parsing {line:?}: {err}"))?;
    Ok(kib / 1024.0)
}

/// One reported metric; `samples` is set for every metric derived from
/// repeated measurements.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: String,
    samples: Option<usize>,
}

/// Everything one run prints: every metric by name, with unit and sample
/// count, then the one-line JSON result.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        });
    }

    /// Adds the p50 and p90 of `samples` as `<name>_p50` / `<name>_p90`.
    pub fn add_tails(&mut self, name: &str, samples: &Samples, unit: &str) -> Result<(), String> {
        for (suffix, p) in [("p50", 0.5), ("p90", 0.9)] {
            let value = samples
                .quantile(p)
                .map_err(|err| format!("{name}_{suffix}: {err}"))?;
            self.add(
                &format!("{name}_{suffix}"),
                value,
                unit,
                Some(samples.len()),
            );
        }
        Ok(())
    }

    /// A free-form line printed above the metrics (shapes, checks, shares).
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints every note and metric, then the JSON result line whose metrics
    /// are exactly `declared` (`(name, unit)` pairs from `BENCHMARK.json`).
    ///
    /// # Errors
    ///
    /// A declared metric that this run did not produce, or produced in
    /// another unit, is a bug in the benchmark: no JSON is printed.
    pub fn print(&self, declared: &[(String, String)]) -> Result<(), String> {
        for note in &self.notes {
            println!("# {note}");
        }
        for m in &self.metrics {
            let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            println!("{:<32} {:>16.6} {}{samples}", m.name, m.value, m.unit);
        }
        println!(
            "{:<32} {:>16.6} frac  ({} failed of {} attempted)",
            "failed_frac",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        let mut metrics = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let metric = self
                .metrics
                .iter()
                .find(|m| &m.name == name)
                .ok_or_else(|| format!("declared metric {name} was not measured"))?;
            if &metric.unit != unit {
                return Err(format!(
                    "metric {name} measured in {} but declared in {unit}",
                    metric.unit
                ));
            }
            metrics.push((
                name.clone(),
                JsonValue::object([
                    ("value", JsonValue::Number(metric.value)),
                    ("unit", JsonValue::String(unit.clone())),
                ]),
            ));
        }
        let result = JsonValue::object([
            ("correct", JsonValue::Bool(self.correct)),
            ("attempted", JsonValue::Number(self.attempted.max(1) as f64)),
            ("failed", JsonValue::Number(self.failed as f64)),
            ("metrics", JsonValue::Object(metrics)),
        ]);
        println!("{}", result.render());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 0..n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p90 of 99 samples has rank 90: only 9 lie beyond it.
        assert!(samples(99).quantile(0.9).is_err());
        // p90 of 100 samples has rank 90: exactly 10 lie beyond it.
        assert_eq!(samples(100).quantile(0.9), Ok(89.0));
        // The median needs 20 samples under the same rule.
        assert!(samples(19).quantile(0.5).is_err());
        assert_eq!(samples(20).quantile(0.5), Ok(9.0));
        assert!(Samples::default().quantile(0.5).is_err());
    }

    #[test]
    fn every_timing_prints_its_sample_count() {
        let mut report = Report::default();
        report.add_tails("itl_ms", &samples(200), "ms").unwrap();
        assert_eq!(report.metrics.len(), 2);
        assert!(report.metrics.iter().all(|m| m.samples == Some(200)));
        let err = report.add_tails("ttft_ms", &samples(50), "ms").unwrap_err();
        assert!(err.contains("ttft_ms_p90"), "{err}");
    }

    #[test]
    fn shed_errored_and_failed_sessions_are_failures_and_slo_misses() {
        let slo = Slo {
            ttft_ms: 10.0,
            itl_ms: 5.0,
        };
        let mut ledger = Ledger {
            offered: 5,
            ..Ledger::default()
        };
        ledger.complete(4.0, 2.0, slo); // meets both limits
        ledger.complete(40.0, 2.0, slo); // first token too late
        ledger.shed += 1;
        ledger.errored += 1;
        ledger.failed_checks += 1;
        assert_eq!(ledger.failed(), 3);
        assert_eq!(ledger.slo_frac(), 1.0 / 5.0);
    }

    #[test]
    fn the_median_of_repeats_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        let mib = peak_rss_mib().unwrap();
        assert!(mib > 0.0);
    }
}
