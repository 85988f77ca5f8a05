//! `serve_mixed`: an open loop of seeded Poisson arrivals on a `Router` over
//! up to two decode groups, with the E=64 decode-bench model shape.
//!
//! About half the prompts start with a whole-page prefix from one of a few
//! cohorts — what prefix-affinity placement and automatic interning act on —
//! and the rest are short and unshared. Output lengths are seeded; a session
//! leaves through `Router::cancel` once its budget is generated. Compute per
//! row is tiny, so the router, admission, paging, the per-site engine hop and
//! the scheduler timer dominate the tick.

use crate::inputs::Rng;
use crate::measure::{median, peak_rss_mib, ratio, secs, Ledger, Report, Samples, Slo};
use crate::replica;
use crate::serving::{self, ServeTrace, Session};
use haan_llm::{ModelConfig, ModelFamily, TransformerModel};
use haan_numerics::stats::RowNormMode;
use haan_obs::{Obs, ObsSink};
use haan_router::{Router, RouterConfig, SessionId};
use haan_serve::{AdmissionStats, ServeConfig, StreamStatus};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered sessions per second, fixed: a rate the parent sustains without a
/// growing admission backlog.
pub const RATE_PER_S: f64 = 100.0;
pub const COHORTS: usize = 4;
/// Shared prefix length: two whole 16-row pages.
pub const PREFIX_LEN: usize = 32;
const SHARED_PROB: f64 = 0.5;
const SUFFIX_LEN: (usize, usize) = (4, 12);
const UNSHARED_LEN: (usize, usize) = (4, 16);
const BUDGET: (usize, usize) = (16, 80);
/// Sessions of the warm-up burst that ends set-up (every cohort appears at
/// least twice, so every cohort prefix is interned before timing).
const WARM_SESSIONS: usize = 24;
pub const SLO: Slo = Slo {
    ttft_ms: 15.0,
    itl_ms: 5.0,
};
const MODEL_SEED: u64 = 42;
const SETUP_REPS: usize = 5;
const REPLICA_TICKS: usize = 150;
/// Longest a run keeps ticking after its window to finish in-flight sessions.
const DRAIN_LIMIT_S: f64 = 10.0;

/// The E=64 decode-bench model shape.
pub fn model_config() -> ModelConfig {
    ModelConfig {
        name: "decode-bench".to_string(),
        family: ModelFamily::Gpt2,
        num_blocks: 2,
        embedding_dim: 64,
        num_heads: 4,
        mlp_dim: 128,
        vocab_size: 128,
        max_seq_len: 256,
        final_norm: true,
        paper_embedding_dim: 64,
    }
}

/// Decode groups: one per core, never more than two.
pub fn groups() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Seconds after the start of the loop the session is due.
    pub due: f64,
    pub prompt: Vec<u32>,
    pub budget: usize,
    pub shared: bool,
}

/// All inputs of one seed: the warm-up burst and the timed arrivals.
#[derive(Debug, PartialEq)]
pub struct Inputs {
    pub warm: Vec<Arrival>,
    pub arrivals: Vec<Arrival>,
}

impl Inputs {
    pub fn generate(seed: u64, seconds: f64) -> Self {
        let vocab = model_config().vocab_size;
        let mut rng = Rng::derive(seed, 2);
        let prefixes: Vec<Vec<u32>> = (0..COHORTS)
            .map(|_| rng.tokens(PREFIX_LEN, vocab))
            .collect();
        let make = |rng: &mut Rng, due: f64, cohort: Option<usize>| {
            let prompt = match cohort {
                Some(c) => {
                    let mut p = prefixes[c].clone();
                    let len = rng.range(SUFFIX_LEN.0, SUFFIX_LEN.1);
                    p.extend(rng.tokens(len, vocab));
                    p
                }
                None => {
                    let len = rng.range(UNSHARED_LEN.0, UNSHARED_LEN.1);
                    rng.tokens(len, vocab)
                }
            };
            Arrival {
                due,
                prompt,
                budget: rng.range(BUDGET.0, BUDGET.1),
                shared: cohort.is_some(),
            }
        };
        let warm = (0..WARM_SESSIONS)
            .map(|i| make(&mut rng, 0.0, (i % 2 == 0).then_some((i / 2) % COHORTS)))
            .collect();
        let mut arrivals = Vec::new();
        let mut due = rng.exponential(RATE_PER_S);
        while due < seconds {
            let cohort = (rng.unit() < SHARED_PROB).then(|| rng.range(0, COHORTS - 1));
            arrivals.push(make(&mut rng, due, cohort));
            due += rng.exponential(RATE_PER_S);
        }
        Self { warm, arrivals }
    }
}

struct Live {
    id: SessionId,
    session: Session,
    attached: bool,
}

/// What one stretch of the loop measured.
#[derive(Default)]
struct Window {
    /// Seconds from the first arrival's due time to the last session's end.
    seconds: f64,
    tokens: u64,
    ttft_ms: Samples,
    itl_ms: Samples,
    tick_ms: Samples,
    place_us: Samples,
    lag_ms: Samples,
    ledger: Ledger,
    /// Prompt rows prefilled (prefix-attached rows excluded).
    prompt_rows: u64,
    prompt_tokens: u64,
    attached_tokens: u64,
    exhausted_ticks: u64,
    /// `(prompt, served tokens)` of the first completed prefix-attached and
    /// the first completed unshared session.
    attached_done: Option<(Vec<u32>, Vec<u32>)>,
    unshared_done: Option<(Vec<u32>, Vec<u32>)>,
}

struct OpenLoop<'m> {
    router: Router<'m>,
    clock: Instant,
}

impl<'m> OpenLoop<'m> {
    fn start(
        model: &'m TransformerModel,
        serve: &ServeConfig,
        inputs: &Inputs,
    ) -> Result<Self, String> {
        let router = Router::with_uniform_groups(model, groups(), serve, RouterConfig::default())
            .map_err(|e| e.to_string())?;
        let mut lp = Self {
            router,
            clock: Instant::now(),
        };
        lp.drive(&inputs.warm, 0.0, false)?;
        Ok(lp)
    }

    /// Places each arrival when it is due and ticks the fleet until every
    /// placed session has generated its budget. Tokens count toward the
    /// window's throughput only before `window_s`.
    fn drive(
        &mut self,
        arrivals: &[Arrival],
        window_s: f64,
        counted: bool,
    ) -> Result<Window, String> {
        let mut w = Window::default();
        let origin = secs(self.clock);
        let now = |lp: &Self| secs(lp.clock) - origin;
        // Live sessions by their (group, slot) location.
        let mut live: HashMap<(usize, usize), Live> = HashMap::new();
        let mut next = 0;
        loop {
            let t = now(self);
            while next < arrivals.len() && arrivals[next].due <= t {
                let a = &arrivals[next];
                next += 1;
                let begin = now(self);
                let hits = self.router.stats().prefix_hits;
                let placed = self.router.place(&a.prompt);
                w.place_us.push((now(self) - begin) * 1e6);
                w.lag_ms.push((begin - a.due) * 1e3);
                if counted {
                    w.ledger.offered += 1;
                    w.prompt_tokens += a.prompt.len() as u64;
                }
                let Ok(id) = placed else {
                    w.ledger.errored += u64::from(counted);
                    continue;
                };
                if self.router.status(id) == StreamStatus::Shed {
                    w.ledger.shed += u64::from(counted);
                    continue;
                }
                let attached = self.router.stats().prefix_hits > hits;
                if counted {
                    let shared = if attached { PREFIX_LEN as u64 } else { 0 };
                    w.attached_tokens += shared;
                    w.prompt_rows += a.prompt.len() as u64 - shared;
                }
                let session = Session::new(a.prompt.clone(), a.budget, a.due, counted);
                live.insert(
                    self.router.location(id),
                    Live {
                        id,
                        session,
                        attached,
                    },
                );
            }
            if live.is_empty() {
                let Some(a) = arrivals.get(next) else { break };
                let wait = (a.due - now(self)).clamp(0.0, 1e-3);
                std::thread::sleep(Duration::from_secs_f64(wait));
                continue;
            }
            if t > window_s + DRAIN_LIMIT_S {
                w.ledger.errored += live.len() as u64 * u64::from(counted);
                break;
            }
            let started = Instant::now();
            let tick = self
                .router
                .step_all_concurrent()
                .map_err(|e| e.to_string())?;
            let t = now(self);
            w.tick_ms.push(secs(started) * 1e3);
            w.exhausted_ticks += u64::from(!tick.exhausted_groups.is_empty());
            for (g, tokens) in tick.tokens.iter().enumerate() {
                for (slot, token) in tokens.iter().enumerate() {
                    if token.is_none() {
                        continue;
                    }
                    let Some(l) = live.get_mut(&(g, slot)) else {
                        continue;
                    };
                    if counted && t < window_s {
                        w.tokens += 1;
                    }
                    if !l.session.token(t, &mut w.ttft_ms, &mut w.itl_ms) {
                        continue;
                    }
                    let l = live.remove(&(g, slot)).expect("looked up above");
                    self.router.cancel(l.id);
                    if l.session.counted {
                        l.session.finish(&mut w.ledger, SLO);
                        let done = if l.attached {
                            &mut w.attached_done
                        } else {
                            &mut w.unshared_done
                        };
                        if done.is_none() {
                            let served = self.router.generated(l.id).to_vec();
                            *done = Some((l.session.prompt, served));
                        }
                    }
                }
            }
        }
        w.seconds = now(self);
        Ok(w)
    }

    fn admission(&self) -> AdmissionStats {
        let mut total = AdmissionStats::default();
        for g in 0..self.router.num_groups() {
            let s = self.router.engine(g).admission_stats();
            total.offered += s.offered;
            total.admitted += s.admitted;
            total.queued += s.queued;
            total.shed += s.shed;
        }
        total
    }
}

/// Replays one prefix-attached and one unshared completed session solo;
/// returns how many matched of how many were checked.
fn check(model: &TransformerModel, w: &Window) -> Result<(u64, u64), String> {
    let config = ServeConfig::default().normalizer;
    let mut matched = 0;
    let mut checked = 0;
    for (prompt, served) in [&w.attached_done, &w.unshared_done].into_iter().flatten() {
        checked += 1;
        if serving::replay_matches(model, &config, prompt, served)? {
            matched += 1;
        }
    }
    // A run without a completed attached session has not checked sharing.
    Ok((matched, checked.max(2)))
}

fn shape_note(report: &mut Report, w: &Window) {
    let c = model_config();
    report.note(format!(
        "serve_mixed: open loop, Poisson {RATE_PER_S}/s on a Router over {} groups, ServeConfig::default(); model E={} heads={} MLP={} blocks={} vocab={}; {:.0}% of prompts carry one of {COHORTS} {PREFIX_LEN}-token cohort prefixes; budgets {}..={}; SLO ttft<={} ms, mean itl<={} ms",
        groups(), c.embedding_dim, c.num_heads, c.mlp_dim, c.num_blocks, c.vocab_size,
        SHARED_PROB * 100.0, BUDGET.0, BUDGET.1, SLO.ttft_ms, SLO.itl_ms
    ));
    report.note(format!(
        "measured share of prompt tokens served from shared prefixes: {:.4} ({} of {}); pool-exhausted ticks: {}; loop busy ticking {:.3} of the time",
        ratio(w.attached_tokens as f64, w.prompt_tokens as f64),
        w.attached_tokens,
        w.prompt_tokens,
        w.exhausted_ticks,
        w.tick_ms.sum() / 1e3 / w.seconds
    ));
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    if trace {
        return traced(seed, seconds);
    }
    let mut report = Report::default();
    let serve = ServeConfig::default();
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let model =
            TransformerModel::new(&model_config(), MODEL_SEED).map_err(|e| e.to_string())?;
        let inputs = Inputs::generate(seed, seconds);
        let mut lp = OpenLoop::start(&model, &serve, &inputs)?;
        setups.push(secs(started));
        if rep + 1 < SETUP_REPS {
            continue;
        }
        let mut w = lp.drive(&inputs.arrivals, seconds, true)?;
        drop(lp);
        let (matched, checked) = check(&model, &w)?;
        w.ledger.failed_checks += checked - matched;
        shape_note(&mut report, &w);
        report.note(format!(
            "solo replay: {matched} of {checked} sessions bit-identical (one prefix-attached)"
        ));
        report.add("setup_s", median(&setups), "s", Some(setups.len()));
        report.add(
            "tok_s",
            w.tokens as f64 / seconds,
            "1/s",
            Some(w.tick_ms.len()),
        );
        report.add_tails("ttft_ms", &w.ttft_ms, "ms")?;
        report.add_tails("itl_ms", &w.itl_ms, "ms")?;
        report.add(
            "slo_frac",
            w.ledger.slo_frac(),
            "frac",
            Some(w.ledger.offered as usize),
        );
        report.add("peak_rss_mib", peak_rss_mib()?, "MiB", None);
        report.attempted = w.ledger.offered;
        report.failed = w.ledger.failed();
        report.correct = matched == checked;
    }
    Ok(report)
}

fn traced(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let model = TransformerModel::new(&model_config(), MODEL_SEED).map_err(|e| e.to_string())?;
    let half = seconds / 2.0;
    let inputs = Inputs::generate(seed, half);
    let untraced = {
        let mut lp = OpenLoop::start(&model, &ServeConfig::default(), &inputs)?;
        lp.drive(&inputs.arrivals, half, true)?
    };

    let obs = Obs::shared(1 << 16);
    let serve = ServeConfig {
        obs: Some(Arc::clone(&obs) as Arc<dyn ObsSink>),
        ..ServeConfig::default()
    };
    let mut lp = OpenLoop::start(&model, &serve, &inputs)?;
    let stats_before = lp.router.fleet_stats().totals;
    let admission_before = lp.admission();
    let router_before = lp.router.stats();
    let w = lp.drive(&inputs.arrivals, half, true)?;
    let stats = serving::group_delta(lp.router.fleet_stats().totals, stats_before);
    let admission = serving::admission_delta(lp.admission(), admission_before);
    let router_stats = lp.router.stats();
    let e = model.config().embedding_dim;
    let kv_bytes_peak: usize = (0..lp.router.num_groups())
        .map(|g| lp.router.engine(g).kv_pool(e).bytes_materialized())
        .sum();
    drop(lp);
    shape_note(&mut report, &w);

    let streams = (stats.mean_tick_occupancy_rows().round() as usize).max(1);
    let prompts: Vec<Vec<u32>> = inputs
        .arrivals
        .iter()
        .take(streams)
        .map(|a| a.prompt.clone())
        .collect();
    let config = ServeConfig::default().normalizer;
    let mut probe = replica::MatmulProbe::new(model.config(), streams);
    let trace = ServeTrace {
        tick_ms: w.tick_ms.clone(),
        stats,
        admission,
        queue_wait_us: obs.export().histogram("serve.queue_wait_us").cloned(),
        prompt_rows: w.prompt_rows,
        kv_bytes_peak: kv_bytes_peak as f64,
        replica: replica::run(&model, &config, &prompts, REPLICA_TICKS, &mut probe)?,
        probe,
    };
    serving::add_layer_metrics(&mut report, &trace)?;
    report.add(
        "router.place_us_p50",
        serving::quantile(&w.place_us, 0.5, "router.place_us_p50")?,
        "us",
        Some(w.place_us.len()),
    );
    let placed = router_stats.placed - router_before.placed;
    let hits = router_stats.prefix_hits - router_before.prefix_hits;
    report.add(
        "router.prefix_hit_rate",
        ratio(hits as f64, placed as f64),
        "frac",
        Some(placed as usize),
    );
    report.add(
        "bench.gen_lag_ms_p90",
        serving::quantile(&w.lag_ms, 0.9, "bench.gen_lag_ms_p90")?,
        "ms",
        Some(w.lag_ms.len()),
    );
    report.add(
        "numerics.stats_ns_per_elem",
        replica::stats_ns_per_elem(streams, e),
        "ns",
        None,
    );
    report.add(
        "numerics.normalize_ns_per_elem",
        replica::normalize_ns_per_elem(streams, e, RowNormMode::LayerNorm),
        "ns",
        None,
    );
    let (tick_untraced, tick_traced) = (untraced.tick_ms.mean(), w.tick_ms.mean());
    report.add(
        "obs.trace_overhead_pct",
        (ratio(tick_traced, tick_untraced) - 1.0) * 100.0,
        "%",
        None,
    );
    report.note(format!(
        "mean tick ms untraced half {tick_untraced:.4}, traced half {tick_traced:.4}; tok_s untraced half {:.3}",
        untraced.tokens as f64 / half
    ));
    report.attempted = untraced.ledger.offered + w.ledger.offered;
    report.failed = untraced.ledger.failed() + w.ledger.failed();
    report.correct = true;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_yields_the_same_schedule_prompts_and_budgets() {
        let a = Inputs::generate(5, 2.0);
        assert_eq!(a, Inputs::generate(5, 2.0));
        assert_ne!(a, Inputs::generate(6, 2.0));
        assert!(a.arrivals.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.arrivals.iter().all(|x| x.due < 2.0));
        // The rate holds to within a few standard deviations of a Poisson count.
        let n = a.arrivals.len() as f64;
        let expected = 2.0 * RATE_PER_S;
        assert!((n - expected).abs() < 5.0 * expected.sqrt(), "{n} arrivals");
        let shared = a.arrivals.iter().filter(|x| x.shared).count() as f64;
        assert!((shared / n - SHARED_PROB).abs() < 0.15);
        let model = model_config();
        for x in a.warm.iter().chain(&a.arrivals) {
            assert!(x.prompt.len() + x.budget < model.max_seq_len);
            assert!(x.prompt.iter().all(|&t| (t as usize) < model.vocab_size));
        }
    }

    #[test]
    fn the_warm_up_burst_shows_every_cohort_twice() {
        let inputs = Inputs::generate(1, 1.0);
        for c in 0..COHORTS {
            let with_prefix = inputs
                .warm
                .iter()
                .filter(|x| {
                    x.shared && x.prompt[..PREFIX_LEN] == inputs.warm[2 * c].prompt[..PREFIX_LEN]
                })
                .count();
            assert!(with_prefix >= 2, "cohort {c}");
        }
    }
}
