//! `bench_report` — the machine-readable perf trajectory of the batched
//! normalization engine.
//!
//! Measures ns/element of the normalization paths (scalar oracle vs fused batched vs
//! the HAAN engine on exact statistics) on paper-width (4096-element) rows, plus
//! per-backend ns/element of the execution backends (`BackendSelection::{Scalar,
//! Fused}` and the attached accelerator simulator) through the same
//! `normalize_matrix_into` entry point, plus the fused
//! residual+norm site against its composed decomposition, plus KV-cached,
//! multi-stream, overload, continuous-batching, observability and routing numbers
//! of the `haan_serve` decode groups, plus matmul GFLOP/s of the cache-blocked
//! kernels and of the register-tiled kernel over panel-packed weights, and writes
//! the numbers to `BENCH_norm.json` (first CLI argument overrides the output path).
//! Future PRs diff this file to keep the perf trajectory honest.

use haan::backend::NormBackend;
use haan::{BackendSelection, HaanConfig, HaanNormalizer};
use haan_accel::{AccelConfig, AccelSimBackend};
use haan_bench::timing::{measure_default, Measurement};
use haan_bench::{print_experiment_header, to_json, MarkdownTable};
use haan_llm::norm::{Composed, NormSite, Normalizer, ReferenceNormalizer};
use haan_llm::{Matrix, ModelConfig, ModelFamily, NormKind, StreamingModel, TransformerModel};
use haan_obs::json::JsonValue;
use haan_router::{PlacementPolicy, Router, RouterConfig};
use haan_serve::{DecodeGroup, GroupStats, KvPoolPolicy, ServeConfig, ServeEngine};
use std::sync::Arc;

const ROWS: usize = 16;
const COLS: usize = 4096;
/// (rows, k, n) of the decode-shaped matmul: decode_gpt2's 8 streams through
/// its widest projection (E = 768 into the 3072-wide MLP).
const DECODE_MATMUL_SHAPE: (usize, usize, usize) = (8, 768, 3072);
/// Distinct weights the cold decode-shaped matmul cycles through, at least this
/// many bytes in all, so that each call streams its weight from memory as a
/// decode tick does rather than from cache.
const COLD_WEIGHT_BYTES: usize = 64 << 20;

fn input_matrix() -> Matrix {
    let data: Vec<f32> = (0..ROWS * COLS)
        .map(|i| ((i as u64 * 2654435761) % 1000) as f32 / 250.0 - 2.0)
        .collect();
    Matrix::from_vec(ROWS, COLS, data).expect("consistent shape")
}

/// Fusion-site workload: enough paper-width (4096-element) rows that the
/// matrices spill past cache, so the fused residual site is measured against
/// the memory pass it removes rather than L1-resident arithmetic.
const FUSION_ROWS: usize = 1024;

/// The residual+norm fusion site measured three ways: the fused request shape,
/// the scalar composition (separate add → norm — the parity oracle and the
/// pre-fusion operation order), and the composed decomposition on the same
/// fused backend (the normalizer wrapped in [`Composed`]), which isolates the
/// pure fusion gain from the backend's kernel quality.
struct FusionSite {
    name: &'static str,
    fused_ns_per_element: f64,
    composed_ns_per_element: f64,
    same_backend_composed_ns_per_element: f64,
}

impl FusionSite {
    fn speedup_vs_composed(&self) -> f64 {
        self.composed_ns_per_element / self.fused_ns_per_element
    }

    fn speedup_vs_same_backend(&self) -> f64 {
        self.same_backend_composed_ns_per_element / self.fused_ns_per_element
    }
}

/// Measures the residual+norm fusion site through `normalize_residual_into` on
/// an exact-statistics config — the fused residual single pass only engages
/// when quantization is the identity, so the exact config is where fusion shows
/// its full effect.
fn run_fusion_benchmark() -> FusionSite {
    let fusion_matrix = |rows: usize, cols: usize, salt: u64, scale: f32| {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let x = (i as u64).wrapping_mul(2654435761).wrapping_add(salt);
                (x % 1000) as f32 / 500.0 * scale - scale
            })
            .collect();
        Matrix::from_vec(rows, cols, data).expect("consistent shape")
    };
    let input = fusion_matrix(FUSION_ROWS, COLS, 7, 2.0);
    let residual = fusion_matrix(FUSION_ROWS, COLS, 1913, 1.5);
    let gamma: Vec<f32> = (0..COLS).map(|i| 1.0 + (i % 5) as f32 * 0.1).collect();
    let beta: Vec<f32> = (0..COLS).map(|i| (i % 3) as f32 * 0.2 - 0.2).collect();
    let site = NormSite {
        layer_index: 0,
        kind: NormKind::LayerNorm,
    };

    let haan = |backend: BackendSelection| {
        HaanNormalizer::new(HaanConfig {
            backend,
            ..HaanConfig::unoptimized()
        })
    };
    let measure = |norm: &mut dyn Normalizer| {
        let mut summed = Matrix::zeros(FUSION_ROWS, COLS);
        let mut normed = Matrix::zeros(FUSION_ROWS, COLS);
        let residual_m = measure_default(|| {
            norm.normalize_residual_into(
                site,
                &input,
                &residual,
                &gamma,
                &beta,
                &mut summed,
                &mut normed,
            );
            std::hint::black_box(normed.get(0, 0));
        });
        residual_m.nanos_per_iter / (FUSION_ROWS * COLS) as f64
    };

    FusionSite {
        name: "residual_norm",
        fused_ns_per_element: measure(&mut haan(BackendSelection::Fused)),
        composed_ns_per_element: measure(&mut Composed(haan(BackendSelection::Scalar))),
        same_backend_composed_ns_per_element: measure(&mut Composed(haan(BackendSelection::Fused))),
    }
}

/// Sequence lengths of the decode benchmark (the sequence length *reached* after
/// the timed steps).
const DECODE_SEQS: [usize; 2] = [64, 256];
/// Greedy steps timed per run (after one untimed step that absorbs the prefill).
const DECODE_TIMED_STEPS: usize = 7;
/// Runs per configuration; tokens/s is aggregated over all of them.
const DECODE_RUNS: usize = 3;

/// The decode-benchmark subject: laptop-scale widths but a 256-position context,
/// so the O(seq²) vs O(seq) difference at `DECODE_SEQS` is what dominates.
fn decode_bench_model() -> TransformerModel {
    let config = ModelConfig {
        name: "decode-bench".to_string(),
        family: ModelFamily::Gpt2,
        num_blocks: 2,
        embedding_dim: 64,
        num_heads: 4,
        mlp_dim: 128,
        vocab_size: 128,
        max_seq_len: *DECODE_SEQS.iter().max().expect("non-empty"),
        final_norm: true,
        paper_embedding_dim: 64,
    };
    TransformerModel::new(&config, 42).expect("valid decode benchmark model")
}

struct DecodePoint {
    seq: usize,
    prefill_tokens_per_s: f64,
    cached_tokens_per_s: f64,
    full_recompute_tokens_per_s: f64,
}

impl DecodePoint {
    fn cached_speedup(&self) -> f64 {
        self.cached_tokens_per_s / self.full_recompute_tokens_per_s
    }
}

/// Measures prefill throughput plus cached vs full-recompute greedy decode
/// tokens/s at sequence length `seq`. Both decode paths run the same
/// `StreamingModel` loop through the same normalizer type; the only variable is
/// whether the prefix is recomputed (`new_full_recompute`) or cached (`new`).
fn run_decode_benchmark(model: &TransformerModel, seq: usize) -> DecodePoint {
    let vocab = model.config().vocab_size as u32;
    let prompt: Vec<u32> = (0..(seq - DECODE_TIMED_STEPS - 1) as u32)
        .map(|i| i % vocab)
        .collect();

    let mut prefill_elapsed = 0.0f64;
    let mut cached_elapsed = 0.0f64;
    let mut full_elapsed = 0.0f64;
    for _ in 0..DECODE_RUNS {
        // Prefill: one batched incremental pass over the whole prompt.
        let mut ctx = model.start_decode();
        let mut norm = ReferenceNormalizer::new();
        let started = std::time::Instant::now();
        std::hint::black_box(ctx.prefill(&prompt, &mut norm).expect("prefill"));
        prefill_elapsed += started.elapsed().as_secs_f64();

        // Constant-factor guard (ROADMAP): the context's reusable attention
        // scratch reaches its high-water mark on the first post-prefill step
        // (amortized Vec doubling absorbs the per-step row growth) and must
        // never grow again — steady-state decode allocates nothing per step.
        ctx.step(0, &mut norm).expect("scratch warm-up step");
        let scratch_capacity = ctx.scratch_capacity();
        assert!(scratch_capacity > 0, "the warmed scratch cannot be empty");
        for step in 0..DECODE_TIMED_STEPS as u32 {
            ctx.step(step % vocab, &mut norm).expect("steady step");
        }
        assert_eq!(
            ctx.scratch_capacity(),
            scratch_capacity,
            "attention scratch grew during steady-state decode at seq {seq}"
        );

        // Cached decode: the first (untimed) step absorbs the prompt prefill,
        // then every timed step feeds exactly one token.
        let mut stream = StreamingModel::new(model, &prompt).expect("valid prompt");
        let mut norm = ReferenceNormalizer::new();
        stream.decode_step(&mut norm).expect("warm-up step");
        let started = std::time::Instant::now();
        for _ in 0..DECODE_TIMED_STEPS {
            std::hint::black_box(stream.decode_step(&mut norm).expect("cached step"));
        }
        cached_elapsed += started.elapsed().as_secs_f64();

        // Full-recompute oracle: same loop, whole prefix re-run every step.
        let mut stream = StreamingModel::new_full_recompute(model, &prompt).expect("valid prompt");
        let mut norm = ReferenceNormalizer::new();
        stream.decode_step(&mut norm).expect("warm-up step");
        let started = std::time::Instant::now();
        for _ in 0..DECODE_TIMED_STEPS {
            std::hint::black_box(stream.decode_step(&mut norm).expect("full step"));
        }
        full_elapsed += started.elapsed().as_secs_f64();
    }
    let timed_tokens = (DECODE_RUNS * DECODE_TIMED_STEPS) as f64;
    DecodePoint {
        seq,
        prefill_tokens_per_s: (DECODE_RUNS * prompt.len()) as f64 / prefill_elapsed,
        cached_tokens_per_s: timed_tokens / cached_elapsed,
        full_recompute_tokens_per_s: timed_tokens / full_elapsed,
    }
}

/// Concurrent stream counts of the batched multi-stream decode benchmark.
const MULTI_STREAM_COUNTS: [usize; 3] = [1, 8, 64];
/// Lockstep ticks timed per stream count (after the untimed prefill tick).
const MULTI_STREAM_TICKS: usize = 12;
/// Prompt length of every stream in the multi-stream benchmark.
const MULTI_STREAM_PROMPT: usize = 4;

struct MultiStreamPoint {
    streams: usize,
    aggregate_tokens_per_s: f64,
    /// Rows per normalization call over the timed lockstep ticks only
    /// ([`GroupStats::mean_tick_occupancy_rows`]: one row per stream per site).
    rows_per_batch: f64,
    /// Pool pages actually materialized while all streams were alive, in bytes.
    paged_pool_bytes: usize,
    /// What the same streams would preallocate under dense per-stream caches.
    dense_equivalent_bytes: usize,
}

/// Advances `streams` concurrent decode streams in lockstep through one
/// `ServeEngine::decode_group`: every tick makes one batched normalizer call
/// per site carrying one row per stream, which is the batching width
/// the paged pool + multi-stream step exist to produce. `obs` is `None` for
/// the perf-gate runs (the zero-cost disabled path) and a live sink for the
/// informational enabled A/B of the observability block.
fn run_multi_stream_benchmark(
    model: &TransformerModel,
    streams: usize,
    obs: Option<std::sync::Arc<dyn haan_obs::ObsSink>>,
) -> MultiStreamPoint {
    let config = model.config();
    let rows_per_stream_block = MULTI_STREAM_PROMPT + MULTI_STREAM_TICKS + 1;
    let engine = ServeEngine::start(ServeConfig {
        normalizer: HaanConfig {
            backend: BackendSelection::Fused,
            ..HaanConfig::unoptimized()
        },
        kv_pool: KvPoolPolicy {
            page_rows: 16,
            capacity_rows: 2 * streams * config.num_blocks * rows_per_stream_block,
        },
        obs,
        ..Default::default()
    });
    let vocab = config.vocab_size as u32;
    let prompts: Vec<Vec<u32>> = (0..streams)
        .map(|s| {
            (0..MULTI_STREAM_PROMPT as u32)
                .map(|i| (s as u32 * 13 + i * 5) % vocab)
                .collect()
        })
        .collect();
    let prompt_refs: Vec<&[u32]> = prompts.iter().map(Vec::as_slice).collect();
    let mut group = engine
        .decode_group(model, &prompt_refs)
        .expect("valid multi-stream prompts");
    // Untimed prefill tick (per-stream passes: prompts differ in length in
    // general), then timed lockstep ticks.
    group.step_all().expect("prefill tick");
    let after_prefill = group.stats();
    let started = std::time::Instant::now();
    for _ in 0..MULTI_STREAM_TICKS {
        group.step_all().expect("lockstep tick");
    }
    let elapsed = started.elapsed().as_secs_f64();
    let stats = group.stats();
    let timed = GroupStats {
        ticks: stats.ticks - after_prefill.ticks,
        occupied_rows: stats.occupied_rows - after_prefill.occupied_rows,
        ..stats
    };
    let pool = engine.kv_pool(config.embedding_dim);
    let paged_pool_bytes = pool.bytes_materialized();
    let dense_equivalent_bytes = streams
        * config.num_blocks
        * 2
        * config.max_seq_len
        * config.embedding_dim
        * std::mem::size_of::<f32>();
    MultiStreamPoint {
        streams,
        aggregate_tokens_per_s: (streams * MULTI_STREAM_TICKS) as f64 / elapsed,
        rows_per_batch: timed.mean_tick_occupancy_rows(),
        paged_pool_bytes,
        dense_equivalent_bytes,
    }
}

/// Groups of the routing fleet (4 × 16 streams vs 1 × 64 aggregate).
const ROUTING_GROUPS: usize = 4;
/// Total streams routed in the throughput comparison.
const ROUTING_STREAMS: usize = 64;
/// Timed fleet ticks (after the untimed prefill tick).
const ROUTING_TICKS: usize = 12;
/// Prompt length of the throughput streams.
const ROUTING_PROMPT: usize = 4;
/// Shared-prefix workload of the placement comparison: cohorts × members.
const ROUTING_COHORTS: usize = 8;
const ROUTING_COHORT_MEMBERS: usize = 8;
/// Tokens of each cohort's shared prefix (two 16-row pages).
const ROUTING_SHARED_PREFIX: usize = 32;
/// Streams of the chaos-drain drill.
const ROUTING_CHAOS_STREAMS: usize = 16;

struct RoutingPoint {
    /// Aggregate tok/s of 4 groups × 16 streams ticked concurrently.
    multi_group_tokens_per_s: f64,
    /// Aggregate tok/s of 1 group × 64 streams (the single-tenant baseline).
    single_group_tokens_per_s: f64,
    /// Prefix-attach rate of affinity placement on the cohort workload.
    affinity_hit_rate: f64,
    /// The same workload under least-loaded placement (cohorts scatter).
    least_loaded_hit_rate: f64,
    /// Streams drained off the fault-injected group in the chaos drill.
    chaos_drained_streams: usize,
    /// Rows re-prefilled by the drained streams' resumes at healthy groups —
    /// the whole-fleet cost of the migrations.
    migration_reprefill_rows: u64,
}

/// The per-group engine config of the routing benchmarks, mirroring the
/// multi-stream benchmark's pool shape.
fn routing_serve_config(model: &TransformerModel, streams_per_group: usize) -> ServeConfig {
    let config = model.config();
    let rows_per_stream_block = ROUTING_PROMPT + ROUTING_TICKS + 1;
    ServeConfig {
        normalizer: HaanConfig {
            backend: BackendSelection::Fused,
            ..HaanConfig::unoptimized()
        },
        kv_pool: KvPoolPolicy {
            page_rows: 16,
            capacity_rows: 2 * streams_per_group * config.num_blocks * rows_per_stream_block,
        },
        ..Default::default()
    }
}

/// Aggregate tok/s of `ROUTING_STREAMS` streams spread over `groups` groups,
/// every group ticking on its own thread — the sharding payoff the router
/// exists to unlock (one group runs all its streams on one thread; N groups
/// tick on N threads).
fn run_routing_throughput(model: &TransformerModel, groups: usize) -> f64 {
    let vocab = model.config().vocab_size as u32;
    let mut router = Router::with_uniform_groups(
        model,
        groups,
        &routing_serve_config(model, ROUTING_STREAMS / groups),
        RouterConfig {
            placement: PlacementPolicy::LeastLoaded,
            auto_prefix_min_count: 0,
            ..RouterConfig::default()
        },
    )
    .expect("routing fleet starts");
    for s in 0..ROUTING_STREAMS {
        let prompt: Vec<u32> = (0..ROUTING_PROMPT as u32)
            .map(|i| (s as u32 * 13 + i * 5) % vocab)
            .collect();
        router.place(&prompt).expect("placement");
    }
    // Untimed prefill tick, then timed concurrent lockstep ticks.
    router.step_all_concurrent().expect("prefill tick");
    let started = std::time::Instant::now();
    for _ in 0..ROUTING_TICKS {
        router.step_all_concurrent().expect("fleet tick");
    }
    let elapsed = started.elapsed().as_secs_f64();
    (ROUTING_STREAMS * ROUTING_TICKS) as f64 / elapsed
}

/// Prefix-attach hit rate of the cohort workload under `placement`: 8 cohorts
/// share a 32-token prefix each; affinity keeps every cohort on the group
/// holding its interned pages, least-loaded scatters them across pools.
fn run_routing_placement(model: &TransformerModel, placement: PlacementPolicy) -> f64 {
    let mut router = Router::with_uniform_groups(
        model,
        ROUTING_GROUPS,
        &routing_serve_config(model, ROUTING_STREAMS / ROUTING_GROUPS),
        RouterConfig {
            placement,
            ..RouterConfig::default()
        },
    )
    .expect("routing fleet starts");
    let vocab = model.config().vocab_size as u32;
    for cohort in 0..ROUTING_COHORTS {
        let shared: Vec<u32> = (0..ROUTING_SHARED_PREFIX as u32)
            .map(|i| (cohort as u32 * 31 + i * 7) % vocab)
            .collect();
        for member in 0..ROUTING_COHORT_MEMBERS {
            let mut prompt = shared.clone();
            prompt.extend((0..4u32).map(|i| (member as u32 * 11 + i) % vocab));
            router.place(&prompt).expect("placement");
        }
    }
    router.stats().prefix_hit_rate()
}

/// The chaos drill: one group's pool is fault-injected dry mid-decode, its
/// streams drain to the healthy groups, and every drained stream must stay
/// bit-identical to its solo full-recompute oracle.
fn run_routing_chaos(model: &TransformerModel) -> (usize, u64) {
    let vocab = model.config().vocab_size as u32;
    let mut router = Router::with_uniform_groups(
        model,
        ROUTING_GROUPS,
        &routing_serve_config(model, ROUTING_CHAOS_STREAMS / ROUTING_GROUPS),
        RouterConfig {
            placement: PlacementPolicy::LeastLoaded,
            auto_prefix_min_count: 0,
            ..RouterConfig::default()
        },
    )
    .expect("routing fleet starts");
    let prompts: Vec<Vec<u32>> = (0..ROUTING_CHAOS_STREAMS)
        .map(|s| {
            // Three tokens against 16-row pages: the first tick has page
            // slack, later growth needs fresh pages from the faulted pool.
            (0..3u32).map(|i| (s as u32 * 17 + i * 3) % vocab).collect()
        })
        .collect();
    let ids: Vec<_> = prompts
        .iter()
        .map(|p| router.place(p).expect("placement"))
        .collect();
    router.decode(1).expect("healthy tick");
    let victim = router.location(ids[0]).0;
    router
        .engine(victim)
        .kv_pool(model.config().embedding_dim)
        .set_alloc_fault(Some(std::sync::Arc::new(|_, _| true)));
    // Page slack means a few ticks pass before the victim group actually
    // needs an allocation; tick until it reports dry.
    let mut exhausted = false;
    for _ in 0..20 {
        if router
            .step_all()
            .expect("fleet survives a dry group")
            .exhausted_groups
            .contains(&victim)
        {
            exhausted = true;
            break;
        }
    }
    assert!(exhausted, "the fault-injected group never ran dry");
    let drained = router.drain_group(victim).expect("drain");
    router.decode(4).expect("post-drain decode");
    for (id, prompt) in ids.iter().zip(&prompts) {
        let generated = router.generated(*id).to_vec();
        let mut oracle = StreamingModel::new_full_recompute(model, prompt).expect("oracle");
        let expected = oracle
            .decode(generated.len(), &mut ReferenceNormalizer::new())
            .expect("oracle decode");
        assert_eq!(
            generated, expected,
            "a drained stream diverged from its solo oracle"
        );
    }
    (drained, router.fleet_stats().totals.resume_reprefill_rows)
}

/// Runs all three routing benchmarks.
fn run_routing_benchmark(model: &TransformerModel) -> RoutingPoint {
    let multi = run_routing_throughput(model, ROUTING_GROUPS);
    let single = run_routing_throughput(model, 1);
    let affinity = run_routing_placement(model, PlacementPolicy::PrefixAffinity);
    let least = run_routing_placement(model, PlacementPolicy::LeastLoaded);
    let (chaos_drained_streams, migration_reprefill_rows) = run_routing_chaos(model);
    RoutingPoint {
        multi_group_tokens_per_s: multi,
        single_group_tokens_per_s: single,
        affinity_hit_rate: affinity,
        least_loaded_hit_rate: least,
        chaos_drained_streams,
        migration_reprefill_rows,
    }
}

/// Overload factor of the robustness drill: offered streams per pool-sized slot.
const ROBUSTNESS_OVERLOAD: usize = 4;
/// Streams the drill pool is sized for (full-length, to the model maximum).
const ROBUSTNESS_POOL_STREAMS: usize = 2;
/// Seed of the drill's fault injector; the drill is bit-reproducible per seed.
const ROBUSTNESS_SEED: u64 = 0xC0FFEE;

struct RobustnessPoint {
    offered: u64,
    admitted: u64,
    queued: u64,
    shed: u64,
    preemptions: u64,
    resumes: u64,
    resume_reprefill_rows: u64,
    completed: u64,
    drill_ticks: u64,
    pool_exhausted_retries: u64,
    injected_exhaustions: u64,
}

impl RobustnessPoint {
    fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

/// The overload drill of `tests/serving_chaos.rs`, measured: a pool sized for
/// `ROBUSTNESS_POOL_STREAMS` full-length streams is offered `ROBUSTNESS_OVERLOAD`×
/// as many prompts under seeded pool-exhaustion injection, and the group runs
/// until every admitted stream completes. The numbers are the admission split
/// and the preemption/resume traffic (with its re-prefill cost).
fn run_robustness_benchmark() -> RobustnessPoint {
    use haan_serve::{AdmissionPolicy, FaultPlan, SeededFaults, StreamStatus};
    let model = TransformerModel::new(&ModelConfig::tiny_test(), 42).expect("valid drill model");
    let config = model.config();
    let max = config.max_seq_len;
    let faults = std::sync::Arc::new(SeededFaults::new(
        ROBUSTNESS_SEED,
        FaultPlan {
            exhaust_probability: 0.1,
            max_exhaustions: 4,
        },
    ));
    let engine = ServeEngine::start(ServeConfig {
        normalizer: HaanConfig {
            backend: BackendSelection::Fused,
            ..HaanConfig::unoptimized()
        },
        kv_pool: KvPoolPolicy {
            page_rows: 4,
            capacity_rows: ROBUSTNESS_POOL_STREAMS * max * config.num_blocks,
        },
        admission: AdmissionPolicy {
            queue_above: 0.75,
            max_queued: 3,
            retry_after_us: 500,
            reserve_rows: max,
        },
        faults: Some(faults.clone() as std::sync::Arc<dyn haan_serve::FaultInjector>),
        ..Default::default()
    });
    let offered = ROBUSTNESS_OVERLOAD * ROBUSTNESS_POOL_STREAMS;
    let prompts: Vec<Vec<u32>> = (0..offered as u32)
        .map(|i| vec![i % 8, (i + 3) % 8, (i * 5 + 1) % 8, (i + 1) % 8])
        .collect();
    let prompt_refs: Vec<&[u32]> = prompts.iter().map(Vec::as_slice).collect();
    let mut group = engine
        .decode_group(&model, &prompt_refs)
        .expect("overload is not a constructor error");
    let mut pool_exhausted_retries = 0u64;
    loop {
        match group.step_all() {
            Ok(_) => {}
            Err(haan_llm::LlmError::KvPoolExhausted { .. }) => {
                pool_exhausted_retries += 1;
                continue;
            }
            Err(err) => panic!("only pool exhaustion is expected in the drill: {err:?}"),
        }
        let settled = (0..group.len())
            .all(|i| matches!(group.status(i), StreamStatus::Finished | StreamStatus::Shed));
        if settled {
            break;
        }
    }
    let stats = group.stats();
    let injected = faults.injected();
    RobustnessPoint {
        offered: stats.offered,
        admitted: stats.admitted,
        queued: stats.queued,
        shed: stats.shed,
        preemptions: stats.preemptions,
        resumes: stats.resumes,
        resume_reprefill_rows: stats.resume_reprefill_rows,
        completed: stats.completed,
        drill_ticks: stats.ticks,
        pool_exhausted_retries,
        injected_exhaustions: injected.exhaustions,
    }
}

/// Resident streams of the continuous-batching benchmark.
const CONTINUOUS_WIDTH: usize = 8;
/// Prompt-chunk bound of the chunked configuration (rows per stream per tick).
const CONTINUOUS_CHUNK: usize = 16;
/// Long prompts joined mid-flight, one at a time.
const CONTINUOUS_JOINS: usize = 8;
/// Length of each joining prompt (3 chunk ticks to first token).
const CONTINUOUS_JOIN_PROMPT: usize = 48;
/// Shared-prefix length of the page-sharing comparison (whole pages).
const CONTINUOUS_PREFIX_TOKENS: usize = 64;

struct ContinuousBatchingPoint {
    chunked_occupancy_rows: f64,
    unchunked_occupancy_rows: f64,
    chunked_max_tick_rows: u64,
    unchunked_max_tick_rows: u64,
    join_latency_p50_us: u64,
    join_latency_p99_us: u64,
    join_first_token_ticks: u64,
    max_resident_token_delay_ticks: u64,
    shared_pool_bytes: usize,
    unshared_pool_bytes: usize,
}

/// One continuous-batching join drill: `CONTINUOUS_WIDTH` resident streams
/// decode while `CONTINUOUS_JOINS` long prompts join one at a time. Returns
/// the group's mean tick occupancy, each join's wall-clock latency to first
/// token (µs) and tick count, the worst per-tick token delay any already
/// resident stream suffered while a join was prefilling (the acceptance bar:
/// 0 under chunking — residents never miss a tick), and the most rows one
/// tick's batched pass carried after warm-up.
fn run_continuous_join_drill(
    model: &TransformerModel,
    chunk: usize,
) -> (f64, Vec<u64>, u64, u64, u64) {
    let config = model.config();
    let vocab = config.vocab_size as u32;
    let engine = ServeEngine::start(ServeConfig {
        normalizer: HaanConfig {
            backend: BackendSelection::Fused,
            ..HaanConfig::unoptimized()
        },
        prefill_chunk_rows: chunk,
        kv_pool: KvPoolPolicy {
            page_rows: 16,
            capacity_rows: 8192,
        },
        ..Default::default()
    });
    let prompts: Vec<Vec<u32>> = (0..CONTINUOUS_WIDTH)
        .map(|s| (0..4u32).map(|i| (s as u32 * 13 + i * 5) % vocab).collect())
        .collect();
    let prompt_refs: Vec<&[u32]> = prompts.iter().map(Vec::as_slice).collect();
    let mut group = engine
        .decode_group(model, &prompt_refs)
        .expect("valid resident prompts");
    // Warm ticks: every resident emits from here on.
    for _ in 0..2 {
        group.step_all().expect("warm-up tick");
    }
    let mut resident: Vec<usize> = (0..CONTINUOUS_WIDTH).collect();
    let mut join_latencies_us = Vec::with_capacity(CONTINUOUS_JOINS);
    let mut join_ticks_total = 0u64;
    let mut max_delay_ticks = 0u64;
    let mut max_tick_rows = 0u64;
    let mut tick = |group: &mut DecodeGroup<'_>, what: &str| {
        let rows_before = group.stats().occupied_rows;
        let results = group.step_all().expect(what);
        max_tick_rows = max_tick_rows.max(group.stats().occupied_rows - rows_before);
        results
    };
    for join in 0..CONTINUOUS_JOINS {
        let prompt: Vec<u32> = (0..CONTINUOUS_JOIN_PROMPT as u32)
            .map(|i| (i * 29 + join as u32 * 7 + 3) % vocab)
            .collect();
        let started = std::time::Instant::now();
        let index = group.add_stream(&prompt).expect("join offer");
        let mut delay_this_join = 0u64;
        loop {
            join_ticks_total += 1;
            let results = tick(&mut group, "join tick");
            delay_this_join += resident.iter().filter(|&&i| results[i].is_none()).count() as u64;
            if results[index].is_some() {
                break;
            }
        }
        join_latencies_us.push(started.elapsed().as_micros() as u64);
        max_delay_ticks = max_delay_ticks.max(delay_this_join);
        resident.push(index);
        tick(&mut group, "settle tick");
    }
    let occupancy = group.stats().mean_tick_occupancy_rows();
    (
        occupancy,
        join_latencies_us,
        join_ticks_total,
        max_delay_ticks,
        max_tick_rows,
    )
}

/// Measures the continuous-batching tentpole: tick occupancy and the widest
/// tick with vs without chunked prefill over the same join drill (unchunked,
/// a join's whole prompt rides one pass), join latency percentiles under
/// chunking, and the live pool footprint of `CONTINUOUS_WIDTH` streams behind
/// one interned `CONTINUOUS_PREFIX_TOKENS`-token prefix vs the same streams
/// each materializing their own copy.
fn run_continuous_batching_benchmark(model: &TransformerModel) -> ContinuousBatchingPoint {
    let config = model.config();
    let vocab = config.vocab_size as u32;
    let (
        chunked_occupancy_rows,
        mut join_latencies_us,
        join_ticks,
        max_delay,
        chunked_max_tick_rows,
    ) = run_continuous_join_drill(model, CONTINUOUS_CHUNK);
    let (unchunked_occupancy_rows, _, _, _, unchunked_max_tick_rows) =
        run_continuous_join_drill(model, 0);
    join_latencies_us.sort_unstable();
    let percentile = |p: f64| {
        let rank = ((join_latencies_us.len() as f64 - 1.0) * p).round() as usize;
        join_latencies_us[rank]
    };

    // Page sharing: the same suffix streams behind one interned prefix vs
    // each paying the prefix themselves, live bytes after a few ticks.
    let serve_config = || ServeConfig {
        normalizer: HaanConfig {
            backend: BackendSelection::Fused,
            ..HaanConfig::unoptimized()
        },
        kv_pool: KvPoolPolicy {
            page_rows: 16,
            capacity_rows: 8192,
        },
        ..Default::default()
    };
    let prefix_tokens: Vec<u32> = (0..CONTINUOUS_PREFIX_TOKENS as u32)
        .map(|i| (i * 11) % vocab)
        .collect();
    let suffixes: Vec<Vec<u32>> = (0..CONTINUOUS_WIDTH as u32)
        .map(|s| vec![s % vocab, (s * 17 + 3) % vocab])
        .collect();
    let base_prompt: [u32; 3] = [1, 2, 3];

    let shared_engine = ServeEngine::start(serve_config());
    let prefix = shared_engine
        .intern_prefix(model, &prefix_tokens)
        .expect("whole-page prefix");
    let mut shared_group = shared_engine
        .decode_group(model, &[&base_prompt])
        .expect("base stream");
    for suffix in &suffixes {
        shared_group
            .add_stream_with_prefix(&prefix, suffix)
            .expect("attach to shared prefix");
    }
    for _ in 0..4 {
        shared_group.step_all().expect("shared tick");
    }
    let shared_pool_bytes = shared_engine.kv_pool(config.embedding_dim).bytes_in_use();

    let unshared_engine = ServeEngine::start(serve_config());
    let full_prompts: Vec<Vec<u32>> = suffixes
        .iter()
        .map(|suffix| {
            let mut prompt = prefix_tokens.clone();
            prompt.extend_from_slice(suffix);
            prompt
        })
        .collect();
    let mut unshared_refs: Vec<&[u32]> = vec![&base_prompt];
    unshared_refs.extend(full_prompts.iter().map(Vec::as_slice));
    let mut unshared_group = unshared_engine
        .decode_group(model, &unshared_refs)
        .expect("unshared prompts");
    for _ in 0..4 {
        unshared_group.step_all().expect("unshared tick");
    }
    let unshared_pool_bytes = unshared_engine.kv_pool(config.embedding_dim).bytes_in_use();

    ContinuousBatchingPoint {
        chunked_occupancy_rows,
        unchunked_occupancy_rows,
        chunked_max_tick_rows,
        unchunked_max_tick_rows,
        join_latency_p50_us: percentile(0.5),
        join_latency_p99_us: percentile(0.99),
        join_first_token_ticks: join_ticks / CONTINUOUS_JOINS as u64,
        max_resident_token_delay_ticks: max_delay,
        shared_pool_bytes,
        unshared_pool_bytes,
    }
}

/// Instrumentation checks a decode token pays on the hot path with no sink
/// installed (a deliberate over-estimate: per site per tick the normalizer
/// tests the option for its skip/exact and fused-path counters, plus the pool
/// and group checks).
const OBS_CHECKS_PER_TOKEN: f64 = 64.0;

struct ObservabilityPoint {
    export_ns: f64,
    event_append_ns: f64,
    counter_add_ns: f64,
    histogram_record_ns: f64,
    disabled_check_ns: f64,
    /// Modeled worst-case hot-path overhead of the disabled sink:
    /// `disabled_check_ns × OBS_CHECKS_PER_TOKEN` as a percentage of the
    /// measured ns/token of the widest (sink-free) multi-stream point.
    disabled_overhead_pct: f64,
    /// Informational A/B: the widest multi-stream point re-run with a live
    /// `Obs` sink installed (metrics + flight recorder).
    enabled_tokens_per_s: f64,
}

/// Measures the observability layer itself: registry export cost on a
/// representative metric population, flight-recorder append cost, raw
/// counter/histogram record cost, and — the one the decode hot path actually
/// pays by default — the cost of checking a disabled (`None`) sink.
fn run_observability_benchmark(
    model: &TransformerModel,
    disabled_tokens_per_s: f64,
) -> ObservabilityPoint {
    use haan_obs::{EventKind, Obs, ObsEvent, ObsSink};

    // Populate a registry shaped like the serving drill's real export.
    let obs = Obs::new(4096);
    for site in 0..9u64 {
        obs.counter_add(&format!("haan.skip.site_{site}"), site);
        obs.counter_add(&format!("haan.path.fused_residual.site_{site}"), site);
        obs.gauge_set(&format!("haan.skip_rate.site_{site}"), 0.5);
    }
    for name in [
        "admission.offered",
        "admission.admitted",
        "serve.prefix.hits",
        "pool.exhaustions",
    ] {
        obs.counter_add(name, 7);
    }
    for name in ["group.tick_rows", "group.phase.advance_ns"] {
        for v in 0..256u64 {
            obs.record(name, v * 37 + 1);
        }
    }
    let export = measure_default(|| {
        std::hint::black_box(obs.registry().export());
    });
    let event_append = measure_default(|| {
        obs.event(ObsEvent {
            t_us: 1,
            stream: Some(1),
            kind: EventKind::Admit,
        });
    });
    let counter = obs.registry().counter("bench.counter");
    let counter_add = measure_default(|| counter.add(1));
    let histogram = obs.registry().histogram("bench.hist");
    let histogram_record = measure_default(|| histogram.record(1_234));

    // The disabled path: every instrumentation site is one branch on a `None`
    // option. 1024 checks per timed iteration amortize the timer overhead.
    let disabled: Option<Arc<dyn ObsSink>> = None;
    let disabled_check = measure_default(|| {
        for _ in 0..1024 {
            if let Some(sink) = std::hint::black_box(&disabled) {
                sink.counter_add("never", 1);
            }
        }
    });
    let disabled_check_ns = disabled_check.nanos_per_iter / 1024.0;
    let ns_per_token = 1e9 / disabled_tokens_per_s;
    let disabled_overhead_pct = 100.0 * disabled_check_ns * OBS_CHECKS_PER_TOKEN / ns_per_token;

    // Informational enabled A/B at the widest multi-stream point.
    let sink = Obs::shared(1 << 14);
    let enabled = run_multi_stream_benchmark(
        model,
        *MULTI_STREAM_COUNTS.last().expect("non-empty"),
        Some(sink as Arc<dyn ObsSink>),
    );

    ObservabilityPoint {
        export_ns: export.nanos_per_iter,
        event_append_ns: event_append.nanos_per_iter,
        counter_add_ns: counter_add.nanos_per_iter,
        histogram_record_ns: histogram_record.nanos_per_iter,
        disabled_check_ns,
        disabled_overhead_pct,
        enabled_tokens_per_s: enabled.aggregate_tokens_per_s,
    }
}

struct PathResult {
    name: &'static str,
    measurement: Measurement,
}

impl PathResult {
    fn ns_per_element(&self) -> f64 {
        self.measurement.nanos_per_iter / (ROWS * COLS) as f64
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_norm.json".to_string());
    print_experiment_header(
        "BENCH_norm",
        "normalization ns/element (scalar vs fused) and matmul GFLOP/s",
    );

    let input = input_matrix();
    let gamma = vec![1.0f32; COLS];
    let beta = vec![0.0f32; COLS];
    let site = NormSite {
        layer_index: 0,
        kind: NormKind::LayerNorm,
    };

    // Scalar oracle: one allocating per-row call per token, exactly what the forward
    // pass did before the batched engine.
    let scalar = PathResult {
        name: "scalar_reference",
        measurement: {
            let mut norm = ReferenceNormalizer::new();
            measure_default(|| {
                for row in 0..ROWS {
                    std::hint::black_box(norm.normalize(site, input.row(row), &gamma, &beta));
                }
            })
        },
    };

    // Fused batched path: chunked one-pass statistics plus the affine apply, written
    // into one reused output matrix.
    let fused = PathResult {
        name: "fused_batched",
        measurement: {
            let mut norm = ReferenceNormalizer::new();
            let mut out = Matrix::zeros(ROWS, COLS);
            measure_default(|| {
                norm.normalize_matrix_into(site, &input, &gamma, &beta, &mut out);
                std::hint::black_box(out.get(0, 0));
            })
        },
    };

    // The HAAN engine on an unoptimized config (exact statistics) and its default
    // fused backend: the engine's own overhead on top of the plain fused kernel.
    let haan_sequential = PathResult {
        name: "haan_exact_sequential",
        measurement: {
            let mut norm = HaanNormalizer::new(HaanConfig::unoptimized());
            let mut out = Matrix::zeros(ROWS, COLS);
            measure_default(|| {
                norm.normalize_matrix_into(site, &input, &gamma, &beta, &mut out);
                std::hint::black_box(out.get(0, 0));
            })
        },
    };

    let paths = [&scalar, &fused, &haan_sequential];
    let mut table = MarkdownTable::new(vec!["path", "ns/element", "speedup vs scalar"]);
    for path in paths {
        table.push_row(vec![
            path.name.to_string(),
            format!("{:.3}", path.ns_per_element()),
            format!("{:.2}x", scalar.ns_per_element() / path.ns_per_element()),
        ]);
    }
    println!("{}", table.render());

    // Per-backend dispatch: the same `normalize_matrix_into` call routed through each
    // execution backend of the engine on an exact-statistics config, so differences
    // are pure execution cost. The accelerator simulator (attached, so it runs
    // instead of the configured backend) is a functional/timing model, not a fast
    // path — its number is reported for completeness, not compared.
    let accel_sim: Arc<dyn NormBackend> = Arc::new(AccelSimBackend::new(AccelConfig::haan_v1()));
    let backend_paths: Vec<PathResult> = [
        ("scalar", BackendSelection::Scalar, None),
        ("fused", BackendSelection::Fused, None),
        ("accel_sim", BackendSelection::Fused, Some(accel_sim)),
    ]
    .into_iter()
    .map(|(name, backend, external)| PathResult {
        name,
        measurement: {
            let config = HaanConfig {
                backend,
                ..HaanConfig::unoptimized()
            };
            let mut norm = HaanNormalizer::new(config);
            if let Some(external) = external {
                norm = norm.with_external_backend(external);
            }
            let mut out = Matrix::zeros(ROWS, COLS);
            measure_default(|| {
                norm.normalize_matrix_into(site, &input, &gamma, &beta, &mut out);
                std::hint::black_box(out.get(0, 0));
            })
        },
    })
    .collect();
    let backend_scalar_ns = backend_paths[0].ns_per_element();
    let mut backend_table =
        MarkdownTable::new(vec!["backend", "ns/element", "speedup vs scalar backend"]);
    for path in &backend_paths {
        backend_table.push_row(vec![
            path.name.to_string(),
            format!("{:.3}", path.ns_per_element()),
            format!("{:.2}x", backend_scalar_ns / path.ns_per_element()),
        ]);
    }
    println!("{}", backend_table.render());

    // Fusion site: the fused residual+norm request shape vs the scalar
    // composition (the pre-fusion operation order) and vs the composed
    // decomposition on the same backend (under `Composed`).
    let fusion_site = run_fusion_benchmark();
    let mut fusion_table = MarkdownTable::new(vec![
        "fusion site",
        "fused ns/element",
        "composed ns/element",
        "speedup",
        "same-backend composed",
        "pure-fusion gain",
    ]);
    fusion_table.push_row(vec![
        fusion_site.name.to_string(),
        format!("{:.3}", fusion_site.fused_ns_per_element),
        format!("{:.3}", fusion_site.composed_ns_per_element),
        format!("{:.2}x", fusion_site.speedup_vs_composed()),
        format!("{:.3}", fusion_site.same_backend_composed_ns_per_element),
        format!("{:.2}x", fusion_site.speedup_vs_same_backend()),
    ]);
    println!("{}", fusion_table.render());

    // Decode path: prefill throughput plus cached vs full-recompute greedy decode
    // tokens/s on a 256-position model — the payoff of the stateful
    // DecodeContext/KV-cache API over the stateless O(seq²) loop.
    let decode_model = decode_bench_model();
    let decode_points: Vec<DecodePoint> = DECODE_SEQS
        .iter()
        .map(|&seq| run_decode_benchmark(&decode_model, seq))
        .collect();
    let mut decode_table = MarkdownTable::new(vec![
        "seq",
        "prefill tok/s",
        "cached decode tok/s",
        "full-recompute tok/s",
        "cached speedup",
    ]);
    for point in &decode_points {
        decode_table.push_row(vec![
            point.seq.to_string(),
            format!("{:.0}", point.prefill_tokens_per_s),
            format!("{:.0}", point.cached_tokens_per_s),
            format!("{:.0}", point.full_recompute_tokens_per_s),
            format!("{:.1}x", point.cached_speedup()),
        ]);
    }
    println!("{}", decode_table.render());

    // Batched multi-stream decode: N concurrent streams in lockstep through one
    // engine decode group — one batched normalizer call per site per tick, one
    // row per stream — with K/V rows paged out of the engine's shared pool.
    let multi_points: Vec<MultiStreamPoint> = MULTI_STREAM_COUNTS
        .iter()
        .map(|&streams| run_multi_stream_benchmark(&decode_model, streams, None))
        .collect();
    let mut multi_table = MarkdownTable::new(vec![
        "streams",
        "aggregate tok/s",
        "rows/batch",
        "paged pool bytes",
        "dense-equivalent bytes",
    ]);
    for point in &multi_points {
        multi_table.push_row(vec![
            point.streams.to_string(),
            format!("{:.0}", point.aggregate_tokens_per_s),
            format!("{:.1}", point.rows_per_batch),
            point.paged_pool_bytes.to_string(),
            point.dense_equivalent_bytes.to_string(),
        ]);
    }
    println!("{}", multi_table.render());

    // Robustness under overload: the 4× oversubscription drill with seeded
    // fault injection — admission split and preemption/resume traffic.
    let robustness = run_robustness_benchmark();
    let mut robustness_table = MarkdownTable::new(vec!["robustness metric", "value"]);
    robustness_table.push_row(vec![
        "offered / admitted / queued / shed".to_string(),
        format!(
            "{} / {} / {} / {}",
            robustness.offered, robustness.admitted, robustness.queued, robustness.shed
        ),
    ]);
    robustness_table.push_row(vec![
        "shed rate".to_string(),
        format!("{:.2}", robustness.shed_rate()),
    ]);
    robustness_table.push_row(vec![
        "preemptions / resumes".to_string(),
        format!("{} / {}", robustness.preemptions, robustness.resumes),
    ]);
    robustness_table.push_row(vec![
        "resume re-prefill rows".to_string(),
        robustness.resume_reprefill_rows.to_string(),
    ]);
    robustness_table.push_row(vec![
        "injected exhaustions / typed retries".to_string(),
        format!(
            "{} / {}",
            robustness.injected_exhaustions, robustness.pool_exhausted_retries
        ),
    ]);
    println!("{}", robustness_table.render());

    // Continuous batching: chunked-prefill occupancy vs whole-backlog activation,
    // join latency while residents keep ticking, and the live pool footprint
    // of prefix sharing vs per-stream prefix copies.
    let continuous = run_continuous_batching_benchmark(&decode_model);
    let mut continuous_table = MarkdownTable::new(vec!["continuous batching metric", "value"]);
    continuous_table.push_row(vec![
        "mean tick occupancy rows (chunked / unchunked)".to_string(),
        format!(
            "{:.1} / {:.1}",
            continuous.chunked_occupancy_rows, continuous.unchunked_occupancy_rows
        ),
    ]);
    continuous_table.push_row(vec![
        "max rows in one tick (chunked / unchunked)".to_string(),
        format!(
            "{} / {}",
            continuous.chunked_max_tick_rows, continuous.unchunked_max_tick_rows
        ),
    ]);
    continuous_table.push_row(vec![
        "join latency p50 / p99 (µs)".to_string(),
        format!(
            "{} / {}",
            continuous.join_latency_p50_us, continuous.join_latency_p99_us
        ),
    ]);
    continuous_table.push_row(vec![
        "mean ticks to a joiner's first token".to_string(),
        continuous.join_first_token_ticks.to_string(),
    ]);
    continuous_table.push_row(vec![
        "resident tokens delayed during joins".to_string(),
        continuous.max_resident_token_delay_ticks.to_string(),
    ]);
    continuous_table.push_row(vec![
        "pool bytes, shared / unshared prefix".to_string(),
        format!(
            "{} / {}",
            continuous.shared_pool_bytes, continuous.unshared_pool_bytes
        ),
    ]);
    println!("{}", continuous_table.render());

    // Observability: what the instrumentation layer itself costs — export and
    // append micro-costs, and the modeled hot-path tax of the disabled sink
    // against the widest (sink-free) multi-stream point measured above.
    let widest_disabled = multi_points
        .last()
        .expect("at least one multi-stream point")
        .aggregate_tokens_per_s;
    let observability = run_observability_benchmark(&decode_model, widest_disabled);
    let mut obs_table = MarkdownTable::new(vec!["observability metric", "value"]);
    obs_table.push_row(vec![
        "registry export (ns)".to_string(),
        format!("{:.0}", observability.export_ns),
    ]);
    obs_table.push_row(vec![
        "flight-recorder append (ns)".to_string(),
        format!("{:.1}", observability.event_append_ns),
    ]);
    obs_table.push_row(vec![
        "counter add / histogram record (ns)".to_string(),
        format!(
            "{:.1} / {:.1}",
            observability.counter_add_ns, observability.histogram_record_ns
        ),
    ]);
    obs_table.push_row(vec![
        "disabled-sink check (ns)".to_string(),
        format!("{:.3}", observability.disabled_check_ns),
    ]);
    obs_table.push_row(vec![
        "disabled-sink decode overhead (%)".to_string(),
        format!("{:.4}", observability.disabled_overhead_pct),
    ]);
    obs_table.push_row(vec![
        "tok/s, sink disabled / enabled".to_string(),
        format!(
            "{:.0} / {:.0}",
            widest_disabled, observability.enabled_tokens_per_s
        ),
    ]);
    println!("{}", obs_table.render());

    // Routing tier: does sharding 64 streams over 4 concurrently-ticked
    // groups hold aggregate throughput, does prefix-affinity placement beat
    // least-loaded on shared-prefix traffic, and does a chaos drain off a
    // dry group stay bit-identical (asserted inside the drill).
    let routing = run_routing_benchmark(&decode_model);
    let mut routing_table = MarkdownTable::new(vec!["routing metric", "value"]);
    routing_table.push_row(vec![
        format!(
            "tok/s, {ROUTING_GROUPS} groups x {} streams (concurrent)",
            ROUTING_STREAMS / ROUTING_GROUPS
        ),
        format!("{:.0}", routing.multi_group_tokens_per_s),
    ]);
    routing_table.push_row(vec![
        format!("tok/s, 1 group x {ROUTING_STREAMS} streams"),
        format!("{:.0}", routing.single_group_tokens_per_s),
    ]);
    routing_table.push_row(vec![
        "prefix hit rate, affinity / least-loaded".to_string(),
        format!(
            "{:.2} / {:.2}",
            routing.affinity_hit_rate, routing.least_loaded_hit_rate
        ),
    ]);
    routing_table.push_row(vec![
        "chaos drill: streams drained off the dry group".to_string(),
        format!("{}", routing.chaos_drained_streams),
    ]);
    routing_table.push_row(vec![
        "chaos drill: migration re-prefill rows".to_string(),
        format!("{}", routing.migration_reprefill_rows),
    ]);
    println!("{}", routing_table.render());

    // Matmul GFLOP/s of the cache-blocked kernels on a square problem.
    let n = 256;
    let a = Matrix::from_vec(n, n, (0..n * n).map(|i| (i as f32).sin()).collect()).unwrap();
    let b = Matrix::from_vec(n, n, (0..n * n).map(|i| (i as f32).cos()).collect()).unwrap();
    let flops = 2.0 * (n * n * n) as f64;
    let mut out = Matrix::zeros(n, n);
    let matmul = measure_default(|| {
        a.matmul_into(&b, &mut out).expect("square shapes");
        std::hint::black_box(out.get(0, 0));
    });
    let matmul_t = measure_default(|| {
        a.matmul_transposed_into(&b, &mut out)
            .expect("square shapes");
        std::hint::black_box(out.get(0, 0));
    });
    let gflops = |m: &Measurement| flops / m.nanos_per_iter;
    // The same kernel, and the register-tiled one over panel-packed weights,
    // at the widest projection of a decode_gpt2 tick: 8 stream rows × E=768
    // against the 768 × 3072 MLP input weight.
    let (rows, inner, cols) = DECODE_MATMUL_SHAPE;
    let x = Matrix::from_vec(
        rows,
        inner,
        (0..rows * inner).map(|i| (i as f32).sin()).collect(),
    )
    .unwrap();
    let w_row_major = Matrix::from_vec(
        inner,
        cols,
        (0..inner * cols).map(|i| (i as f32).cos()).collect(),
    )
    .unwrap();
    let w_packed = Matrix::packed_from_fn(inner, cols, |r, c| w_row_major.get(r, c));
    let mut decode_out = Matrix::zeros(rows, cols);
    let decode_flops = 2.0 * (rows * inner * cols) as f64;
    let mut decode_gflops = |w: &Matrix| {
        let m = measure_default(|| {
            x.matmul_into(w, &mut decode_out).expect("decode shapes");
            std::hint::black_box(decode_out.get(0, 0));
        });
        decode_flops / m.nanos_per_iter
    };
    let decode_row_major_gflops = decode_gflops(&w_row_major);
    let decode_packed_gflops = decode_gflops(&w_packed);
    let packed_speedup = decode_packed_gflops / decode_row_major_gflops;
    // The packed product again, cycling cold weights; `decode_parts` is how
    // many cores `matmul_into` split it over.
    let cold_weights: Vec<Matrix> = (0..COLD_WEIGHT_BYTES.div_ceil(4 * inner * cols))
        .map(|w| Matrix::packed_from_fn(inner, cols, |r, c| w_row_major.get(r, c) + w as f32))
        .collect();
    let mut next_weight = 0;
    let cold = measure_default(|| {
        x.matmul_into(&cold_weights[next_weight], &mut decode_out)
            .expect("decode shapes");
        next_weight = (next_weight + 1) % cold_weights.len();
        std::hint::black_box(decode_out.get(0, 0));
    });
    let decode_cold_packed_gflops = decode_flops / cold.nanos_per_iter;
    let decode_parts = x.matmul_parts(&w_packed);
    let avx2 = cfg!(target_feature = "avx2");
    let mut mm_table = MarkdownTable::new(vec!["kernel", "GFLOP/s"]);
    mm_table.push_row(vec![
        "matmul_blocked".to_string(),
        format!("{:.2}", gflops(&matmul)),
    ]);
    mm_table.push_row(vec![
        "matmul_transposed_blocked".to_string(),
        format!("{:.2}", gflops(&matmul_t)),
    ]);
    mm_table.push_row(vec![
        format!("matmul_blocked, {rows}x{inner}·{inner}x{cols}"),
        format!("{decode_row_major_gflops:.2}"),
    ]);
    mm_table.push_row(vec![
        format!("matmul_packed, {rows}x{inner}·{inner}x{cols}"),
        format!("{decode_packed_gflops:.2} ({packed_speedup:.2}x)"),
    ]);
    mm_table.push_row(vec![
        format!(
            "matmul_packed, {rows}x{inner}·{inner}x{cols}, {} cold weights, {decode_parts} parts, avx2 {avx2}",
            cold_weights.len()
        ),
        format!("{decode_cold_packed_gflops:.2}"),
    ]);
    println!("{}", mm_table.render());

    let path_json = |p: &PathResult| {
        JsonValue::object([
            ("ns_per_element", JsonValue::from(p.ns_per_element())),
            (
                "speedup_vs_scalar",
                JsonValue::from(scalar.ns_per_element() / p.ns_per_element()),
            ),
            ("iterations", JsonValue::from(p.measurement.iterations)),
        ])
    };
    // Hardware threads of this host: recorded in the JSON and read by the routing
    // floor below.
    let host_threads = std::thread::available_parallelism().map_or(2, usize::from);
    let report = JsonValue::object([
        ("benchmark", JsonValue::from("normalization_batched_engine")),
        (
            "workload",
            JsonValue::object([
                ("rows", JsonValue::from(ROWS)),
                ("cols", JsonValue::from(COLS)),
                ("kind", JsonValue::from("LayerNorm")),
            ]),
        ),
        (
            "normalization",
            JsonValue::object(paths.iter().map(|p| (p.name, path_json(p)))),
        ),
        (
            "backends",
            JsonValue::object(backend_paths.iter().map(|p| {
                (
                    p.name,
                    JsonValue::object([
                        ("ns_per_element", JsonValue::from(p.ns_per_element())),
                        (
                            "speedup_vs_scalar_backend",
                            JsonValue::from(backend_scalar_ns / p.ns_per_element()),
                        ),
                        ("iterations", JsonValue::from(p.measurement.iterations)),
                    ]),
                )
            })),
        ),
        (
            "fusion",
            JsonValue::object([
                ("rows", JsonValue::from(FUSION_ROWS)),
                ("cols", JsonValue::from(COLS)),
                (
                    fusion_site.name,
                    JsonValue::object([
                        (
                            "fused_ns_per_element",
                            JsonValue::from(fusion_site.fused_ns_per_element),
                        ),
                        (
                            "composed_ns_per_element",
                            JsonValue::from(fusion_site.composed_ns_per_element),
                        ),
                        (
                            "speedup_vs_composed",
                            JsonValue::from(fusion_site.speedup_vs_composed()),
                        ),
                        (
                            "same_backend_composed_ns_per_element",
                            JsonValue::from(fusion_site.same_backend_composed_ns_per_element),
                        ),
                        (
                            "speedup_vs_same_backend",
                            JsonValue::from(fusion_site.speedup_vs_same_backend()),
                        ),
                    ]),
                ),
            ]),
        ),
        (
            "decode",
            JsonValue::object(
                [
                    (
                        "model".to_string(),
                        JsonValue::object([
                            ("blocks", JsonValue::from(decode_model.config().num_blocks)),
                            (
                                "embedding_dim",
                                JsonValue::from(decode_model.config().embedding_dim),
                            ),
                            (
                                "vocab_size",
                                JsonValue::from(decode_model.config().vocab_size),
                            ),
                        ]),
                    ),
                    (
                        "timed_steps_per_run".to_string(),
                        JsonValue::from(DECODE_TIMED_STEPS),
                    ),
                    ("runs".to_string(), JsonValue::from(DECODE_RUNS)),
                ]
                .into_iter()
                .chain(decode_points.iter().map(|point| {
                    (
                        format!("seq_{}", point.seq),
                        JsonValue::object([
                            (
                                "prefill_tokens_per_s",
                                JsonValue::from(point.prefill_tokens_per_s),
                            ),
                            (
                                "cached_decode_tokens_per_s",
                                JsonValue::from(point.cached_tokens_per_s),
                            ),
                            (
                                "full_recompute_decode_tokens_per_s",
                                JsonValue::from(point.full_recompute_tokens_per_s),
                            ),
                            (
                                "cached_speedup_vs_full_recompute",
                                JsonValue::from(point.cached_speedup()),
                            ),
                        ]),
                    )
                })),
            ),
        ),
        (
            "multi_stream_decode",
            JsonValue::object(
                [
                    ("ticks".to_string(), JsonValue::from(MULTI_STREAM_TICKS)),
                    (
                        "prompt_tokens".to_string(),
                        JsonValue::from(MULTI_STREAM_PROMPT),
                    ),
                ]
                .into_iter()
                .chain(multi_points.iter().map(|point| {
                    (
                        format!("streams_{}", point.streams),
                        JsonValue::object([
                            (
                                "aggregate_tokens_per_s",
                                JsonValue::from(point.aggregate_tokens_per_s),
                            ),
                            ("rows_per_batch", JsonValue::from(point.rows_per_batch)),
                            ("paged_pool_bytes", JsonValue::from(point.paged_pool_bytes)),
                            (
                                "dense_equivalent_bytes",
                                JsonValue::from(point.dense_equivalent_bytes),
                            ),
                        ]),
                    )
                })),
            ),
        ),
        (
            "robustness",
            JsonValue::object([
                ("overload_factor", JsonValue::from(ROBUSTNESS_OVERLOAD)),
                (
                    "pool_sized_for_streams",
                    JsonValue::from(ROBUSTNESS_POOL_STREAMS),
                ),
                ("seed", JsonValue::from(ROBUSTNESS_SEED)),
                ("offered", JsonValue::from(robustness.offered)),
                ("admitted", JsonValue::from(robustness.admitted)),
                ("queued", JsonValue::from(robustness.queued)),
                ("shed", JsonValue::from(robustness.shed)),
                ("shed_rate", JsonValue::from(robustness.shed_rate())),
                ("preemptions", JsonValue::from(robustness.preemptions)),
                ("resumes", JsonValue::from(robustness.resumes)),
                (
                    "resume_reprefill_rows",
                    JsonValue::from(robustness.resume_reprefill_rows),
                ),
                ("completed", JsonValue::from(robustness.completed)),
                ("drill_ticks", JsonValue::from(robustness.drill_ticks)),
                (
                    "pool_exhausted_retries",
                    JsonValue::from(robustness.pool_exhausted_retries),
                ),
                (
                    "injected_exhaustions",
                    JsonValue::from(robustness.injected_exhaustions),
                ),
            ]),
        ),
        (
            "continuous_batching",
            JsonValue::object([
                ("resident_streams", JsonValue::from(CONTINUOUS_WIDTH)),
                ("prefill_chunk_rows", JsonValue::from(CONTINUOUS_CHUNK)),
                ("joins", JsonValue::from(CONTINUOUS_JOINS)),
                (
                    "join_prompt_tokens",
                    JsonValue::from(CONTINUOUS_JOIN_PROMPT),
                ),
                ("prefix_tokens", JsonValue::from(CONTINUOUS_PREFIX_TOKENS)),
                (
                    "chunked_tick_occupancy_rows",
                    JsonValue::from(continuous.chunked_occupancy_rows),
                ),
                (
                    "unchunked_tick_occupancy_rows",
                    JsonValue::from(continuous.unchunked_occupancy_rows),
                ),
                (
                    "chunked_max_tick_rows",
                    JsonValue::from(continuous.chunked_max_tick_rows),
                ),
                (
                    "unchunked_max_tick_rows",
                    JsonValue::from(continuous.unchunked_max_tick_rows),
                ),
                (
                    "join_latency_p50_us",
                    JsonValue::from(continuous.join_latency_p50_us),
                ),
                (
                    "join_latency_p99_us",
                    JsonValue::from(continuous.join_latency_p99_us),
                ),
                (
                    "join_first_token_ticks",
                    JsonValue::from(continuous.join_first_token_ticks),
                ),
                (
                    "resident_token_delay_ticks",
                    JsonValue::from(continuous.max_resident_token_delay_ticks),
                ),
                (
                    "shared_prefix_pool_bytes",
                    JsonValue::from(continuous.shared_pool_bytes),
                ),
                (
                    "unshared_prefix_pool_bytes",
                    JsonValue::from(continuous.unshared_pool_bytes),
                ),
            ]),
        ),
        (
            "observability",
            JsonValue::object([
                ("export_ns", JsonValue::from(observability.export_ns)),
                (
                    "event_append_ns",
                    JsonValue::from(observability.event_append_ns),
                ),
                (
                    "counter_add_ns",
                    JsonValue::from(observability.counter_add_ns),
                ),
                (
                    "histogram_record_ns",
                    JsonValue::from(observability.histogram_record_ns),
                ),
                (
                    "disabled_check_ns",
                    JsonValue::from(observability.disabled_check_ns),
                ),
                ("checks_per_token", JsonValue::from(OBS_CHECKS_PER_TOKEN)),
                (
                    "disabled_overhead_pct",
                    JsonValue::from(observability.disabled_overhead_pct),
                ),
                ("disabled_tokens_per_s", JsonValue::from(widest_disabled)),
                (
                    "enabled_tokens_per_s",
                    JsonValue::from(observability.enabled_tokens_per_s),
                ),
            ]),
        ),
        (
            "routing",
            JsonValue::object([
                ("groups", JsonValue::from(ROUTING_GROUPS)),
                ("streams", JsonValue::from(ROUTING_STREAMS)),
                ("ticks", JsonValue::from(ROUTING_TICKS)),
                (
                    "multi_group_tokens_per_s",
                    JsonValue::from(routing.multi_group_tokens_per_s),
                ),
                (
                    "single_group_tokens_per_s",
                    JsonValue::from(routing.single_group_tokens_per_s),
                ),
                (
                    "affinity_hit_rate",
                    JsonValue::from(routing.affinity_hit_rate),
                ),
                (
                    "least_loaded_hit_rate",
                    JsonValue::from(routing.least_loaded_hit_rate),
                ),
                (
                    "chaos_drained_streams",
                    JsonValue::from(routing.chaos_drained_streams),
                ),
                (
                    "migration_reprefill_rows",
                    JsonValue::from(routing.migration_reprefill_rows),
                ),
            ]),
        ),
        (
            "matmul",
            JsonValue::object([
                ("blocked_gflops", JsonValue::from(gflops(&matmul))),
                (
                    "transposed_blocked_gflops",
                    JsonValue::from(gflops(&matmul_t)),
                ),
                ("n", JsonValue::from(n)),
                (
                    "decode_shape",
                    JsonValue::object([
                        ("rows", JsonValue::from(rows)),
                        ("k", JsonValue::from(inner)),
                        ("n", JsonValue::from(cols)),
                        ("row_major_gflops", JsonValue::from(decode_row_major_gflops)),
                        ("packed_gflops", JsonValue::from(decode_packed_gflops)),
                        ("packed_speedup", JsonValue::from(packed_speedup)),
                        (
                            "cold_packed_gflops",
                            JsonValue::from(decode_cold_packed_gflops),
                        ),
                        ("cold_weights", JsonValue::from(cold_weights.len())),
                        ("parts", JsonValue::from(decode_parts)),
                        ("avx2", JsonValue::from(avx2)),
                    ]),
                ),
            ]),
        ),
        ("host_threads", JsonValue::from(host_threads)),
    ]);
    let rendered = to_json(&report);
    std::fs::write(&out_path, format!("{rendered}\n")).expect("write BENCH_norm.json");
    println!("wrote {out_path}");

    let fused_speedup = scalar.ns_per_element() / fused.ns_per_element();
    assert!(
        fused_speedup >= 1.0,
        "fused path regressed below the scalar oracle ({fused_speedup:.2}x)"
    );
    assert!(
        fusion_site.speedup_vs_composed() >= 1.2,
        "fused {} ({:.3} ns/element) must beat the composed path \
         ({:.3} ns/element) by >= 1.2x on {COLS}-wide rows, got {:.2}x",
        fusion_site.name,
        fusion_site.fused_ns_per_element,
        fusion_site.composed_ns_per_element,
        fusion_site.speedup_vs_composed()
    );
    assert!(
        fusion_site.speedup_vs_same_backend() >= 1.0,
        "fused {} regressed below its own composed decomposition ({:.2}x)",
        fusion_site.name,
        fusion_site.speedup_vs_same_backend()
    );
    let longest = decode_points.last().expect("at least one decode point");
    assert!(
        longest.cached_speedup() >= 3.0,
        "cached decode regressed to {:.2}x of full recompute at seq {}",
        longest.cached_speedup(),
        longest.seq
    );
    let widest = multi_points
        .last()
        .expect("at least one multi-stream point");
    assert!(
        widest.rows_per_batch > 1.0,
        "batched multi-stream decode at {} streams put only {:.2} rows per site per tick",
        widest.streams,
        widest.rows_per_batch
    );
    assert!(
        widest.paged_pool_bytes < widest.dense_equivalent_bytes,
        "paged K/V ({} bytes) should undercut dense per-stream caches ({} bytes)",
        widest.paged_pool_bytes,
        widest.dense_equivalent_bytes
    );
    assert_eq!(
        robustness.admitted, robustness.completed,
        "every admitted stream of the overload drill must complete"
    );
    assert!(
        robustness.shed > 0 && robustness.preemptions > 0 && robustness.resumes > 0,
        "a 4x overload drill with no shedding or preemption measured nothing"
    );
    // Every stream the drill ever holds feeds one row, plus at most one chunk
    // of a joining prompt; without a bound a join's whole prompt rides a tick.
    let chunked_row_bound = (CONTINUOUS_WIDTH + CONTINUOUS_JOINS + CONTINUOUS_CHUNK) as u64;
    assert!(
        continuous.chunked_max_tick_rows <= chunked_row_bound,
        "a chunked tick carried {} rows, over the {chunked_row_bound}-row bound of \
         resident streams plus one chunk",
        continuous.chunked_max_tick_rows
    );
    assert!(
        continuous.unchunked_max_tick_rows >= CONTINUOUS_JOIN_PROMPT as u64,
        "an unchunked join should feed its whole {CONTINUOUS_JOIN_PROMPT}-row prompt in \
         one tick, the widest tick carried {}",
        continuous.unchunked_max_tick_rows
    );
    assert_eq!(
        continuous.max_resident_token_delay_ticks, 0,
        "a joining prompt delayed a resident stream's token past its tick"
    );
    assert!(
        continuous.shared_pool_bytes < continuous.unshared_pool_bytes,
        "prefix sharing ({} bytes) should undercut per-stream copies ({} bytes)",
        continuous.shared_pool_bytes,
        continuous.unshared_pool_bytes
    );
    assert!(
        observability.disabled_overhead_pct < 1.0,
        "a disabled obs sink should cost < 1% of a decode token, got {:.4}%",
        observability.disabled_overhead_pct
    );
    // With one hardware thread the concurrent-group comparison measures pure
    // scheduler overhead, not sharding — hold it to a sanity floor there and
    // to the full 10% bar wherever real parallelism exists.
    let routing_floor = if host_threads > 1 { 0.9 } else { 0.5 };
    assert!(
        routing.multi_group_tokens_per_s >= routing_floor * routing.single_group_tokens_per_s,
        "sharding over {ROUTING_GROUPS} groups dropped aggregate throughput \
         below {routing_floor:.1}x of one group ({:.0} vs {:.0} tok/s, {host_threads} host threads)",
        routing.multi_group_tokens_per_s,
        routing.single_group_tokens_per_s
    );
    assert!(
        routing.affinity_hit_rate > routing.least_loaded_hit_rate,
        "prefix-affinity placement ({:.2}) should beat least-loaded ({:.2}) \
         on a shared-prefix workload",
        routing.affinity_hit_rate,
        routing.least_loaded_hit_rate
    );
    assert!(
        routing.chaos_drained_streams > 0,
        "the chaos drill drained no streams off the dry group"
    );
    assert!(
        packed_speedup >= 1.5,
        "panel-packed weights ({decode_packed_gflops:.2} GFLOP/s) must beat the row-major \
         kernel ({decode_row_major_gflops:.2} GFLOP/s) by >= 1.5x at \
         {rows}x{inner}·{inner}x{cols}, got {packed_speedup:.2}x"
    );
}
