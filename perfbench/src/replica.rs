//! Layer probes of the traced run, all timed from outside through public entry
//! points:
//!
//! * the in-process replica: `TransformerModel::advance_many` over the same
//!   stream count as the served tick, normalizing through a
//!   [`TimedNormalizer`] around a private `HaanNormalizer` of the served
//!   config — what a tick costs without the serving layer;
//! * the matmul probe: `Matrix::matmul_into` / `matmul_transposed_into` on
//!   the model's own weight shapes at the tick's row count;
//! * the numerics kernels on the workload's row shape.

use crate::measure::{median, secs, Samples};
use crate::timed::{CallStats, TimedNormalizer};
use haan::{HaanConfig, HaanNormalizer, NormalizerTelemetry};
use haan_llm::{KvBlockPool, Matrix, ModelConfig, ModelFamily, TransformerModel};
use haan_numerics::stats::{normalize_rows_into, RowNormMode, VectorStats, DEFAULT_EPS};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each probe; the median is reported.
const PROBE_REPS: usize = 7;

/// Greedy arg-max of a logits row.
pub fn argmax(logits: &[f32]) -> u32 {
    let mut best = 0;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best as u32
}

/// What the replica measured.
#[derive(Debug)]
pub struct Replica {
    pub streams: usize,
    /// Milliseconds of each timed `advance_many` tick.
    pub advance_ms: Samples,
    /// Wrapper counters over the timed ticks.
    pub calls: CallStats,
    pub ticks: u64,
    /// Microseconds of each pure normalization call.
    pub site_us: Samples,
    pub telemetry: NormalizerTelemetry,
    /// Logits of one tick were bit-identical wrapped and unwrapped.
    pub identical: bool,
    /// That tick made the calls a fused pass makes: per block one
    /// norm+matmul and one residual+norm call, one final norm, one
    /// `begin_sequence`.
    pub fused_path: bool,
}

impl Replica {
    /// Wrapper time per tick, split into (norm+matmul calls, all other calls).
    pub fn wrapper_ms_per_tick(&self) -> (f64, f64) {
        let per_tick = |ns: u64| ns as f64 / 1e6 / self.ticks.max(1) as f64;
        let c = &self.calls;
        (
            per_tick(c.matmul.ns),
            per_tick(c.plain.ns + c.residual.ns + c.row.ns),
        )
    }
}

/// Runs the replica: prefills `prompts` (one stream each) in a private pool,
/// checks one tick wrapped against unwrapped, then times `ticks` lockstep
/// decode ticks through the wrapper, each followed by one `probe` run.
pub fn run(
    model: &TransformerModel,
    config: &HaanConfig,
    prompts: &[Vec<u32>],
    ticks: usize,
    probe: &mut MatmulProbe,
) -> Result<Replica, String> {
    let cfg = model.config();
    let capacity = prompts.len() * cfg.num_blocks * cfg.max_seq_len * 2;
    let pool = KvBlockPool::shared(capacity, 16, cfg.embedding_dim);
    let mut bare = HaanNormalizer::new(config.clone());
    let mut timed = TimedNormalizer::new(HaanNormalizer::new(config.clone()));
    let err = |e: haan_llm::LlmError| e.to_string();

    let mut bare_contexts = Vec::new();
    let mut contexts = Vec::new();
    let mut next = Vec::new();
    for prompt in prompts {
        let mut a = model.start_decode_in(&pool).map_err(err)?;
        let mut b = model.start_decode_in(&pool).map_err(err)?;
        let la = a.prefill_last(prompt, &mut bare).map_err(err)?;
        b.prefill_last(prompt, &mut timed).map_err(err)?;
        next.push(argmax(&la));
        bare_contexts.push(a);
        contexts.push(b);
    }

    let feeds: Vec<[u32; 1]> = next.iter().map(|&t| [t]).collect();
    let feed_refs: Vec<&[u32]> = feeds.iter().map(|f| f.as_slice()).collect();
    let mut refs: Vec<_> = bare_contexts.iter_mut().collect();
    let expected = model
        .advance_many(&mut refs, &feed_refs, &mut bare)
        .map_err(err)?;
    drop(refs);
    drop(bare_contexts);
    timed.reset();
    let mut refs: Vec<_> = contexts.iter_mut().collect();
    let got = model
        .advance_many(&mut refs, &feed_refs, &mut timed)
        .map_err(err)?;
    let identical = expected
        .as_slice()
        .iter()
        .zip(got.as_slice())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    let blocks = cfg.num_blocks as u64;
    let s = timed.stats;
    let fused_path = s.matmul.count == blocks
        && s.residual.count == blocks
        && s.plain.count == u64::from(cfg.final_norm)
        && s.row.count == 0
        && s.begin_sequence == 1;

    let mut next: Vec<u32> = (0..prompts.len()).map(|i| argmax(got.row(i))).collect();
    timed.reset();
    let mut advance_ms = Samples::default();
    for _ in 0..ticks {
        let feeds: Vec<[u32; 1]> = next.iter().map(|&t| [t]).collect();
        let feed_refs: Vec<&[u32]> = feeds.iter().map(|f| f.as_slice()).collect();
        let started = Instant::now();
        let logits = model
            .advance_many(&mut refs, &feed_refs, &mut timed)
            .map_err(err)?;
        advance_ms.push(secs(started) * 1e3);
        next = (0..prompts.len()).map(|i| argmax(logits.row(i))).collect();
        // Interleaved, so the probe and the replica see the same machine.
        probe.time_once()?;
    }
    Ok(Replica {
        streams: prompts.len(),
        advance_ms,
        calls: timed.stats,
        ticks: ticks as u64,
        site_us: timed.site_us.clone(),
        telemetry: timed.inner().telemetry(),
        identical,
        fused_path,
    })
}

/// The matmuls of one decode tick at `rows` streams, on freshly allocated
/// weights of the model's shapes: per block Q/K/V and the MLP over all
/// `rows`, the output projection once per stream (attention runs per
/// stream), and the tied vocabulary projection. Distinct weights per block
/// keep the probe streaming the bytes a tick streams. GPT-2-family (ungated
/// MLP) shapes only.
#[derive(Debug)]
pub struct MatmulProbe {
    blocks: Vec<[Matrix; 6]>,
    vocab: Matrix,
    x: Matrix,
    x1: Matrix,
    h: Matrix,
    outs: [Matrix; 4],
    rows: usize,
    total_ms: Samples,
    qkv_ms: Samples,
    /// Floating-point operations of one tick's matmuls.
    pub flops: f64,
    /// Weight bytes one tick streams (computed from tensor sizes).
    pub weight_bytes: f64,
}

impl MatmulProbe {
    pub fn new(cfg: &ModelConfig, rows: usize) -> Self {
        assert_eq!(
            cfg.family,
            ModelFamily::Gpt2,
            "the probe covers ungated MLPs"
        );
        let (e, m, v) = (cfg.embedding_dim, cfg.mlp_dim, cfg.vocab_size);
        let filled = |r: usize, c: usize| {
            let data = (0..r * c).map(|i| ((i % 13) as f32 - 6.0) * 0.01).collect();
            Matrix::from_vec(r, c, data).expect("consistent shape")
        };
        let per_block = 4 * e * e + 2 * e * m;
        let macs = (rows * per_block * cfg.num_blocks + rows * e * v) as f64;
        Self {
            blocks: (0..cfg.num_blocks)
                .map(|_| {
                    let [q, k, v, o] = [0; 4].map(|_| filled(e, e));
                    [q, k, v, o, filled(e, m), filled(m, e)]
                })
                .collect(),
            vocab: filled(v, e),
            x: filled(rows, e),
            x1: filled(1, e),
            h: filled(rows, m),
            outs: [
                Matrix::zeros(rows, e),
                Matrix::zeros(1, e),
                Matrix::zeros(rows, m),
                Matrix::zeros(rows, v),
            ],
            rows,
            total_ms: Samples::default(),
            qkv_ms: Samples::default(),
            flops: 2.0 * macs,
            weight_bytes: (4 * (per_block * cfg.num_blocks + v * e)) as f64,
        }
    }

    /// Times the matmuls of one tick once.
    pub fn time_once(&mut self) -> Result<(), String> {
        let err = |e: haan_llm::LlmError| e.to_string();
        let [out_e, out1, out_m, out_v] = &mut self.outs;
        let mut qkv = 0.0;
        let started = Instant::now();
        for [q, k, v, o, up, down] in &self.blocks {
            let q_started = Instant::now();
            for w in [q, k, v] {
                self.x.matmul_into(w, out_e).map_err(err)?;
            }
            qkv += secs(q_started);
            for _ in 0..self.rows {
                self.x1.matmul_into(o, out1).map_err(err)?;
            }
            self.x.matmul_into(up, out_m).map_err(err)?;
            self.h.matmul_into(down, out_e).map_err(err)?;
        }
        self.x
            .matmul_transposed_into(&self.vocab, out_v)
            .map_err(err)?;
        black_box(&self.outs);
        self.total_ms.push(secs(started) * 1e3);
        self.qkv_ms.push(qkv * 1e3);
        Ok(())
    }

    /// Mean milliseconds of every matmul of one tick.
    pub fn total_ms(&self) -> f64 {
        self.total_ms.mean()
    }

    /// Mean milliseconds of the Q/K/V projections, which a fused pass
    /// computes inside its norm+matmul call.
    pub fn qkv_ms(&self) -> f64 {
        self.qkv_ms.mean()
    }
}

fn probe_rows(rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| ((i * 2_654_435_761) % 1000) as f32 / 250.0 - 2.0)
        .collect()
}

/// Nanoseconds per element of `VectorStats::compute_chunked` over `cols`-wide rows.
pub fn stats_ns_per_elem(rows: usize, cols: usize) -> f64 {
    let data = probe_rows(rows, cols);
    let reps = (1 << 22) / data.len() + 1;
    let mut times = Vec::new();
    for _ in 0..PROBE_REPS {
        let started = Instant::now();
        for _ in 0..reps {
            for row in data.chunks_exact(cols) {
                black_box(VectorStats::compute_chunked(black_box(row)).ok());
            }
        }
        times.push(secs(started) * 1e9 / (reps * data.len()) as f64);
    }
    median(&times)
}

/// Nanoseconds per element of `normalize_rows_into` over a `rows × cols` batch.
pub fn normalize_ns_per_elem(rows: usize, cols: usize, mode: RowNormMode) -> f64 {
    let data = probe_rows(rows, cols);
    let gamma = vec![1.0f32; cols];
    let beta = vec![0.0f32; cols];
    let mut out = vec![0.0f32; data.len()];
    let reps = (1 << 22) / data.len() + 1;
    let mut times = Vec::new();
    for _ in 0..PROBE_REPS {
        let started = Instant::now();
        for _ in 0..reps {
            normalize_rows_into(
                black_box(&data),
                cols,
                &gamma,
                &beta,
                mode,
                DEFAULT_EPS,
                &mut out,
            )
            .expect("consistent shapes");
            black_box(&out);
        }
        times.push(secs(started) * 1e9 / (reps * data.len()) as f64);
    }
    median(&times)
}
