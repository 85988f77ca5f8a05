//! Parts shared by the two serving workloads: per-session latency tracking,
//! the solo replay check, and the traced run's per-layer metrics.

use crate::measure::{ratio, Ledger, Report, Samples, Slo};
use crate::replica::{MatmulProbe, Replica};
use haan::{HaanConfig, HaanNormalizer};
use haan_llm::{StreamingModel, TransformerModel};
use haan_obs::HistogramSnapshot;
use haan_serve::{AdmissionStats, GroupStats};

/// Latency state of one live session. Times are seconds on the run's clock.
#[derive(Debug, Clone)]
pub struct Session {
    pub prompt: Vec<u32>,
    budget: usize,
    generated: usize,
    last: f64,
    ttft: f64,
    gap_sum: f64,
    /// Whether this session's latencies count toward the run's samples.
    pub counted: bool,
}

impl Session {
    /// `start` is when the session was due (open loop) or joined (closed
    /// loop): its first-token latency counts from there.
    pub fn new(prompt: Vec<u32>, budget: usize, start: f64, counted: bool) -> Self {
        Self {
            prompt,
            budget,
            generated: 0,
            last: start,
            ttft: 0.0,
            gap_sum: 0.0,
            counted,
        }
    }

    /// Records a token delivered at time `t`; returns true once the budget
    /// is generated.
    pub fn token(&mut self, t: f64, ttft_ms: &mut Samples, itl_ms: &mut Samples) -> bool {
        let gap = t - self.last;
        if self.generated == 0 {
            self.ttft = gap;
            if self.counted {
                ttft_ms.push(gap * 1e3);
            }
        } else {
            self.gap_sum += gap;
            itl_ms.push(gap * 1e3);
        }
        self.last = t;
        self.generated += 1;
        self.generated >= self.budget
    }

    /// Books a finished session into the ledger against `slo`.
    pub fn finish(&self, ledger: &mut Ledger, slo: Slo) {
        let gaps = self.generated.saturating_sub(1) as f64;
        ledger.complete(self.ttft * 1e3, ratio(self.gap_sum, gaps) * 1e3, slo);
    }
}

/// Replays `prompt` solo through `StreamingModel` with a private
/// `HaanNormalizer` of `config`, and checks the served tokens bit for bit.
pub fn replay_matches(
    model: &TransformerModel,
    config: &HaanConfig,
    prompt: &[u32],
    served: &[u32],
) -> Result<bool, String> {
    let mut solo = StreamingModel::new(model, prompt).map_err(|e| e.to_string())?;
    let mut normalizer = HaanNormalizer::new(config.clone());
    let expected = solo
        .decode(served.len(), &mut normalizer)
        .map_err(|e| e.to_string())?;
    Ok(expected == served)
}

/// The group counters accumulated between two snapshots.
pub fn group_delta(after: GroupStats, before: GroupStats) -> GroupStats {
    GroupStats {
        offered: after.offered - before.offered,
        admitted: after.admitted - before.admitted,
        queued: after.queued - before.queued,
        shed: after.shed - before.shed,
        preemptions: after.preemptions - before.preemptions,
        resumes: after.resumes - before.resumes,
        resume_reprefill_rows: after.resume_reprefill_rows - before.resume_reprefill_rows,
        completed: after.completed - before.completed,
        ticks: after.ticks - before.ticks,
        joins: after.joins - before.joins,
        leaves: after.leaves - before.leaves,
        occupied_rows: after.occupied_rows - before.occupied_rows,
    }
}

/// The admission counters accumulated between two snapshots.
pub fn admission_delta(after: AdmissionStats, before: AdmissionStats) -> AdmissionStats {
    AdmissionStats {
        offered: after.offered - before.offered,
        admitted: after.admitted - before.admitted,
        queued: after.queued - before.queued,
        shed: after.shed - before.shed,
    }
}

/// Everything the traced half of a serving run measured.
#[derive(Debug)]
pub struct ServeTrace {
    pub tick_ms: Samples,
    pub stats: GroupStats,
    pub admission: AdmissionStats,
    pub queue_wait_us: Option<HistogramSnapshot>,
    /// Prompt rows the activation prefills fed (prefix-attached rows excluded).
    pub prompt_rows: u64,
    pub kv_bytes_peak: f64,
    pub replica: Replica,
    pub probe: MatmulProbe,
}

/// `samples.quantile(p)`, with the metric named in a refusal.
pub fn quantile(samples: &Samples, p: f64, name: &str) -> Result<f64, String> {
    samples.quantile(p).map_err(|err| format!("{name}: {err}"))
}

/// Adds the serve, admission, llm and core metrics of a traced serving run,
/// and the tick's Fig. 1(b)-style breakdown as notes.
pub fn add_layer_metrics(report: &mut Report, t: &ServeTrace) -> Result<(), String> {
    let ticks = t.tick_ms.len();
    let tick_p50 = quantile(&t.tick_ms, 0.5, "serve.tick_ms_p50")?;
    report.add("serve.tick_ms_p50", tick_p50, "ms", Some(ticks));
    let tick_p90 = quantile(&t.tick_ms, 0.9, "serve.tick_ms_p90")?;
    report.add("serve.tick_ms_p90", tick_p90, "ms", Some(ticks));
    report.add(
        "serve.rows_per_tick",
        t.stats.mean_tick_occupancy_rows(),
        "rows",
        Some(t.stats.ticks as usize),
    );
    let wait = t.queue_wait_us.clone().unwrap_or_default();
    report.add(
        "serve.queue_wait_us_p50",
        wait.quantile(0.5) as f64,
        "us",
        Some(wait.count as usize),
    );
    report.add(
        "serve.preemptions",
        t.stats.preemptions as f64,
        "count",
        None,
    );
    let rows_fed = t.stats.occupied_rows + t.prompt_rows + t.stats.resume_reprefill_rows;
    report.add(
        "serve.reprefill_frac",
        ratio(t.stats.resume_reprefill_rows as f64, rows_fed as f64),
        "frac",
        None,
    );
    let offered = t.admission.offered as f64;
    report.add(
        "admission.queued_frac",
        ratio(t.admission.queued as f64, offered),
        "frac",
        None,
    );
    report.add(
        "admission.shed_frac",
        ratio(t.admission.shed as f64, offered),
        "frac",
        None,
    );
    report.add(
        "llm.prefill_row_frac",
        ratio(t.prompt_rows as f64, rows_fed as f64),
        "frac",
        None,
    );
    report.add("llm.kv_bytes_peak", t.kv_bytes_peak, "B", None);

    // Composition uses means, which add up: matmul (probe) + normalization
    // (wrapper) + attention and the rest (remainder) = the in-process tick.
    let r = &t.replica;
    let advance = r.advance_ms.mean();
    let (fused_ms, pure_ms) = r.wrapper_ms_per_tick();
    // The norm+matmul calls include the Q/K/V matmuls: charge the probe's
    // Q/K/V time to matmul and only the excess to normalization.
    let norm_ms = pure_ms + fused_ms - t.probe.qkv_ms();
    let matmul_ms = t.probe.total_ms();
    let other = advance - matmul_ms - norm_ms;
    // The served p50 tick is a decode tick without activation prefills, the
    // kind of tick the replica runs.
    let hop = tick_p50 - advance;
    report.add(
        "llm.advance_ms_per_tick",
        advance,
        "ms",
        Some(r.advance_ms.len()),
    );
    report.add(
        "llm.matmul_gflops",
        t.probe.flops / (matmul_ms * 1e6),
        "GFLOP/s",
        None,
    );
    report.add("llm.matmul_share", matmul_ms / advance, "frac", None);
    report.add("llm.weight_bytes_per_tick", t.probe.weight_bytes, "B", None);
    report.add("serve.overhead_ms_per_tick", hop, "ms", Some(ticks));
    report.add(
        "core.norm_ms_per_tick",
        norm_ms,
        "ms",
        Some(r.ticks as usize),
    );
    report.add("core.norm_share", norm_ms / advance, "frac", None);
    report.add(
        "core.fused_call_frac",
        r.calls.fused_call_frac(),
        "frac",
        None,
    );
    let site_us = quantile(&r.site_us, 0.5, "core.site_us_p50")?;
    report.add("core.site_us_p50", site_us, "us", Some(r.site_us.len()));
    report.add("core.skip_frac", r.telemetry.skip_fraction(), "frac", None);
    report.add("core.read_frac", r.telemetry.read_fraction(), "frac", None);

    report.note(format!(
        "replica: {} streams, one tick bit-identical wrapped vs bare: {}, fused path taken: {}",
        r.streams, r.identical, r.fused_path
    ));
    report.note(format!(
        "replica calls over {} ticks: norm+matmul {} ({:.3} ms), residual+norm {} ({:.3} ms), plain {} ({:.3} ms), row {}, begin_sequence {}",
        r.ticks,
        r.calls.matmul.count,
        r.calls.matmul.ns as f64 / 1e6,
        r.calls.residual.count,
        r.calls.residual.ns as f64 / 1e6,
        r.calls.plain.count,
        r.calls.plain.ns as f64 / 1e6,
        r.calls.row.count,
        r.calls.begin_sequence
    ));
    report.note(format!(
        "in-process tick {advance:.3} ms: matmul {matmul_ms:.3} ms (probe, {:.3} ms of it Q/K/V), normalization {norm_ms:.3} ms (wrapper), attention+other {other:.3} ms (remainder, {})",
        t.probe.qkv_ms(),
        if other >= 0.0 { "non-negative" } else { "NEGATIVE" }
    ));
    report.note(format!(
        "Fig. 1(b) shares of the served tick p50 {tick_p50:.3} ms: matmul {:.4}, normalization {:.4}, attention+other {:.4}, serve overhead {:.4}",
        matmul_ms / tick_p50,
        norm_ms / tick_p50,
        other / tick_p50,
        hop / tick_p50,
    ));
    report
        .note("llm.weight_bytes_per_tick is computed from tensor sizes, not measured".to_string());
    if !(r.identical && r.fused_path) {
        return Err("the timing wrapper changed the replica's path or logits".to_string());
    }
    Ok(())
}

/// Zero-valued placeholders for the layers a workload does not exercise, so
/// every run reports the same per-layer metric set.
pub fn add_unexercised(report: &mut Report, names: &[(&str, &str)], why: &str) {
    for (name, unit) in names {
        report.add(name, 0.0, unit, None);
    }
    report.note(format!(
        "not exercised ({why}): {}",
        names.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(", ")
    ));
}
