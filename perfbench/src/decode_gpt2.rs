//! `decode_gpt2`: a closed loop of client sessions on one `DecodeGroup` of a
//! GPT-2-small-shaped model (E=768, 12 heads, MLP 3072, 2 blocks, vocabulary
//! 512, seeded synthetic weights).
//!
//! Each of the clients keeps one session in the group: a short prompt and a
//! fixed generation budget. When a session has generated its budget it is
//! cancelled and its client immediately joins a new one. Streaming ~56 MB of
//! f32 weights per tick makes the matmuls nearly the whole tick, so a matmul
//! or weight-format change shows here and a norm-kernel change cannot.

use crate::inputs::Rng;
use crate::measure::{median, peak_rss_mib, ratio, secs, Ledger, Report, Samples, Slo};
use crate::replica;
use crate::serving::{self, ServeTrace, Session};
use haan_llm::{ModelConfig, ModelFamily, TransformerModel};
use haan_numerics::stats::RowNormMode;
use haan_obs::{Obs, ObsSink};
use haan_serve::{DecodeGroup, ServeConfig, ServeEngine, StreamStatus};
use std::sync::Arc;
use std::time::Instant;

pub const CLIENTS: usize = 8;
pub const BUDGET: usize = 24;
const PROMPT_LEN: (usize, usize) = (4, 12);
/// Client `i`'s first session is cut to `1 + STAGGER * i` tokens, so sessions
/// end on different ticks instead of in waves.
const STAGGER: usize = 3;
const MODEL_SEED: u64 = 768;
const SETUP_REPS: usize = 3;
/// Completed sessions at which `peak_rss_mib` is read. Every cancelled
/// session keeps its group slot, so the process grows with the sessions it
/// has served; reading after a fixed number of them keeps the figure
/// independent of how many a run's speed lets it serve.
const RSS_SESSIONS: u64 = 48;
const REPLICA_TICKS: usize = 30;
/// Offers a client makes before a run gives up on a shedding engine.
const MAX_OFFERS: usize = 100;
/// The closed loop has no latency SLO; sessions are only counted.
const NO_SLO: Slo = Slo {
    ttft_ms: f64::INFINITY,
    itl_ms: f64::INFINITY,
};

pub fn model_config() -> ModelConfig {
    ModelConfig {
        name: "gpt2-small-shaped".to_string(),
        family: ModelFamily::Gpt2,
        num_blocks: 2,
        embedding_dim: 768,
        num_heads: 12,
        mlp_dim: 3072,
        vocab_size: 512,
        max_seq_len: 64,
        final_norm: true,
        paper_embedding_dim: 768,
    }
}

struct Client {
    slot: usize,
    session: Session,
}

/// What one stretch of ticks measured.
#[derive(Default)]
struct Window {
    seconds: f64,
    tokens: u64,
    ttft_ms: Samples,
    itl_ms: Samples,
    tick_ms: Samples,
    ledger: Ledger,
    prompt_rows: u64,
    /// `VmHWM` once `RSS_SESSIONS` sessions completed in the window.
    peak_rss_mib: Option<f64>,
    /// `(prompt, served tokens)` of the sessions completed in the window.
    done: Vec<(Vec<u32>, Vec<u32>)>,
}

struct ClosedLoop<'m> {
    group: DecodeGroup<'m>,
    clients: Vec<Client>,
    rng: Rng,
    clock: Instant,
}

impl<'m> ClosedLoop<'m> {
    /// Joins every client and ticks until each has finished its (cut) first
    /// session: the warm-up that ends set-up.
    fn start(model: &'m TransformerModel, engine: &ServeEngine, seed: u64) -> Result<Self, String> {
        let group = engine
            .empty_decode_group(model)
            .map_err(|e| e.to_string())?;
        let mut lp = Self {
            group,
            clients: Vec::new(),
            rng: Rng::derive(seed, 1),
            clock: Instant::now(),
        };
        let mut warm = Window::default();
        for i in 0..CLIENTS {
            let (slot, prompt) = lp.join(&mut warm, false)?;
            let session = Session::new(prompt, 1 + STAGGER * i, 0.0, false);
            lp.clients.push(Client { slot, session });
        }
        let mut rejoined = [false; CLIENTS];
        while !rejoined.iter().all(|&r| r) {
            for i in lp.tick(&mut warm, false)? {
                rejoined[i] = true;
            }
        }
        Ok(lp)
    }

    fn now(&self) -> f64 {
        secs(self.clock)
    }

    /// Offers a fresh prompt until the group admits (or queues) it.
    fn join(&mut self, w: &mut Window, counted: bool) -> Result<(usize, Vec<u32>), String> {
        let vocab = self.group.model().config().vocab_size;
        for _ in 0..MAX_OFFERS {
            let len = self.rng.range(PROMPT_LEN.0, PROMPT_LEN.1);
            let prompt = self.rng.tokens(len, vocab);
            let slot = self.group.add_stream(&prompt).map_err(|e| e.to_string())?;
            if counted {
                w.ledger.offered += 1;
            }
            if self.group.status(slot) != StreamStatus::Shed {
                if counted {
                    w.prompt_rows += prompt.len() as u64;
                }
                return Ok((slot, prompt));
            }
            if counted {
                w.ledger.shed += 1;
            }
        }
        Err(format!("{MAX_OFFERS} offers in a row were shed"))
    }

    /// One tick; returns the clients whose session finished (and who joined
    /// a new one).
    fn tick(&mut self, w: &mut Window, counted: bool) -> Result<Vec<usize>, String> {
        let started = Instant::now();
        let out = self.group.step_all().map_err(|e| e.to_string())?;
        let t = self.now();
        w.tick_ms.push(secs(started) * 1e3);
        let mut finished = Vec::new();
        for i in 0..self.clients.len() {
            let slot = self.clients[i].slot;
            if out.get(slot).copied().flatten().is_none() {
                continue;
            }
            if counted {
                w.tokens += 1;
            }
            let client = &mut self.clients[i];
            if !client.session.token(t, &mut w.ttft_ms, &mut w.itl_ms) {
                continue;
            }
            self.group.cancel(slot);
            let session = &self.clients[i].session;
            if session.counted {
                session.finish(&mut w.ledger, NO_SLO);
                w.done
                    .push((session.prompt.clone(), self.group.generated(slot).to_vec()));
            }
            let (slot, prompt) = self.join(w, counted)?;
            let t = self.now();
            self.clients[i] = Client {
                slot,
                session: Session::new(prompt, BUDGET, t, counted),
            };
            finished.push(i);
        }
        Ok(finished)
    }

    fn measure(&mut self, seconds: f64) -> Result<Window, String> {
        let mut w = Window::default();
        let origin = self.now();
        while self.now() - origin < seconds {
            self.tick(&mut w, true)?;
            if w.peak_rss_mib.is_none() && w.ledger.completed >= RSS_SESSIONS {
                w.peak_rss_mib = Some(peak_rss_mib()?);
            }
        }
        w.seconds = self.now() - origin;
        Ok(w)
    }
}

/// Replays the first and the last completed session solo; returns how many
/// matched of how many were checked.
fn check(model: &TransformerModel, w: &Window) -> Result<(u64, u64), String> {
    let config = ServeConfig::default().normalizer;
    let picks = match (w.done.first(), w.done.last()) {
        (Some(a), Some(b)) if w.done.len() > 1 => vec![a, b],
        (Some(a), _) => vec![a],
        _ => return Err("no session completed in the window".to_string()),
    };
    let mut matched = 0;
    for (prompt, served) in &picks {
        if serving::replay_matches(model, &config, prompt, served)? {
            matched += 1;
        }
    }
    Ok((matched, picks.len() as u64))
}

fn shape_note(report: &mut Report) {
    let c = model_config();
    report.note(format!(
        "decode_gpt2: closed loop, {CLIENTS} clients on one DecodeGroup, ServeConfig::default(); model E={} heads={} MLP={} blocks={} vocab={}; prompts {}..={} tokens, budget {BUDGET} tokens; shared-prefix share of prompt tokens 0",
        c.embedding_dim, c.num_heads, c.mlp_dim, c.num_blocks, c.vocab_size, PROMPT_LEN.0, PROMPT_LEN.1
    ));
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    if trace {
        return traced(seed, seconds);
    }
    let mut report = Report::default();
    shape_note(&mut report);
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let model =
            TransformerModel::new(&model_config(), MODEL_SEED).map_err(|e| e.to_string())?;
        let engine = ServeEngine::start(ServeConfig::default());
        let mut lp = ClosedLoop::start(&model, &engine, seed)?;
        setups.push(secs(started));
        if rep + 1 < SETUP_REPS {
            continue;
        }
        let mut w = lp.measure(seconds)?;
        drop(lp);
        drop(engine);
        let (matched, checked) = check(&model, &w)?;
        w.ledger.failed_checks += checked - matched;
        report.note(format!(
            "solo replay: {matched} of {checked} sessions bit-identical"
        ));
        report.add("setup_s", median(&setups), "s", Some(setups.len()));
        report.add(
            "tok_s",
            w.tokens as f64 / w.seconds,
            "1/s",
            Some(w.tick_ms.len()),
        );
        report.add_tails("ttft_ms", &w.ttft_ms, "ms")?;
        report.add_tails("itl_ms", &w.itl_ms, "ms")?;
        let rss = w.peak_rss_mib.ok_or(format!(
            "peak_rss_mib: fewer than {RSS_SESSIONS} sessions completed in the window"
        ))?;
        report.add("peak_rss_mib", rss, "MiB", None);
        report.attempted = w.ledger.offered;
        report.failed = w.ledger.failed();
        report.correct = matched == checked;
    }
    Ok(report)
}

fn traced(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    shape_note(&mut report);
    let model = TransformerModel::new(&model_config(), MODEL_SEED).map_err(|e| e.to_string())?;
    let half = seconds / 2.0;
    let untraced = {
        let engine = ServeEngine::start(ServeConfig::default());
        let mut lp = ClosedLoop::start(&model, &engine, seed)?;
        lp.measure(half)?
    };

    let obs = Obs::shared(1 << 16);
    let engine = ServeEngine::start(ServeConfig {
        obs: Some(Arc::clone(&obs) as Arc<dyn ObsSink>),
        ..ServeConfig::default()
    });
    let mut lp = ClosedLoop::start(&model, &engine, seed)?;
    let (stats_before, admission_before) = (lp.group.stats(), engine.admission_stats());
    let w = lp.measure(half)?;
    let stats = serving::group_delta(lp.group.stats(), stats_before);
    let admission = serving::admission_delta(engine.admission_stats(), admission_before);
    let prompts: Vec<Vec<u32>> = lp
        .clients
        .iter()
        .map(|c| c.session.prompt.clone())
        .collect();
    drop(lp);
    let kv_bytes_peak = engine
        .kv_pool(model.config().embedding_dim)
        .bytes_materialized() as f64;
    drop(engine);

    let config = ServeConfig::default().normalizer;
    let mut probe = replica::MatmulProbe::new(model.config(), CLIENTS);
    let trace = ServeTrace {
        tick_ms: w.tick_ms.clone(),
        stats,
        admission,
        queue_wait_us: obs.export().histogram("serve.queue_wait_us").cloned(),
        prompt_rows: w.prompt_rows,
        kv_bytes_peak,
        replica: replica::run(&model, &config, &prompts, REPLICA_TICKS, &mut probe)?,
        probe,
    };
    serving::add_layer_metrics(&mut report, &trace)?;
    let e = model.config().embedding_dim;
    report.add(
        "numerics.stats_ns_per_elem",
        replica::stats_ns_per_elem(CLIENTS, e),
        "ns",
        None,
    );
    report.add(
        "numerics.normalize_ns_per_elem",
        replica::normalize_ns_per_elem(CLIENTS, e, RowNormMode::LayerNorm),
        "ns",
        None,
    );
    let (tok_untraced, tok_traced) = (
        untraced.tokens as f64 / untraced.seconds,
        w.tokens as f64 / w.seconds,
    );
    report.add(
        "obs.trace_overhead_pct",
        (ratio(tok_untraced, tok_traced) - 1.0) * 100.0,
        "%",
        None,
    );
    report.note(format!(
        "tok_s untraced half {tok_untraced:.3}, traced half {tok_traced:.3}"
    ));
    serving::add_unexercised(
        &mut report,
        &[("router.prefix_hit_rate", "frac")],
        "no router",
    );
    report.attempted = untraced.ledger.offered + w.ledger.offered;
    report.failed = untraced.ledger.failed() + w.ledger.failed();
    report.correct = true;
    Ok(report)
}
