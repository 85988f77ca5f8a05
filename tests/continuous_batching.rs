//! Continuous-batching suite: chunked prefill, mid-flight join/leave, and
//! shared-prefix attach must all be **bit-identical** to solo decode while
//! changing the *shape* of the work — long prompts amortized over ticks,
//! retired capacity backfilled from the admission queue, and common prompt
//! prefixes paying their K/V pages once.
//!
//! Why exact equality holds: every op outside attention is row-local, the
//! fused kernels reduce in a fixed order regardless of batch width, and HAAN's
//! skip anchors are recorded and consumed per row within one pass — so
//! stacking prompt chunks into the decode passes, splitting a prefill across
//! ticks, or mapping already-materialized prefix pages computes the same
//! floats, not merely close ones (see `tests/kv_decode.rs` for the base
//! invariant).

use haan::{BackendSelection, HaanConfig, HaanNormalizer, SkipPlan};
use haan_llm::norm::Composed;
use haan_llm::pool::handoffs_on_this_thread;
use haan_llm::{host_threads, Matrix, ModelConfig, ModelFamily, StreamingModel, TransformerModel};
use haan_obs::{Obs, ObsSink};
use haan_serve::{KvPoolPolicy, ServeConfig, ServeEngine, StreamStatus};
use std::sync::Arc;

fn tiny_model() -> TransformerModel {
    TransformerModel::new(&ModelConfig::tiny_test(), 42).expect("valid test model")
}

/// A 2-block variant of the tiny model with a long context window, for the
/// 128-token shared prefix and the 256-token joining prompt (the tiny config
/// caps at 32 positions).
fn long_context_config(max_seq_len: usize) -> ModelConfig {
    ModelConfig {
        name: format!("tiny-long-{max_seq_len}"),
        family: ModelFamily::Gpt2,
        num_blocks: 2,
        embedding_dim: 32,
        num_heads: 4,
        mlp_dim: 64,
        vocab_size: 64,
        max_seq_len,
        final_norm: true,
        paper_embedding_dim: 32,
    }
}

fn haan_config() -> HaanConfig {
    HaanConfig::builder()
        .label("continuous batching")
        .backend(BackendSelection::Fused)
        .build()
}

/// A skip plan whose range straddles block boundaries of the 9-site tiny
/// model, so prompt chunks cross the anchor/skipped seam every tick.
fn skip_plan() -> SkipPlan {
    SkipPlan {
        start: 2,
        end: 5,
        decay: -0.05,
        correlation: -1.0,
        calibration_anchor_log_isd: -0.25,
    }
}

#[test]
fn chunked_streaming_prefill_matches_one_shot_across_skip_anchor_sites() {
    // Single-stream parity: a prompt prefilled in tick-sized chunks — a group
    // of one per chunk size — under a HAAN skip plan (whose anchor sites the
    // chunk boundaries straddle) decodes exactly like the solo one-shot
    // prefill, and emits its first token on the backlog-draining tick.
    let model = tiny_model();
    let prompt: Vec<u32> = (0..13u32).map(|i| (i * 5) % 8).collect();
    const STEPS: usize = 5;
    let mut oracle_norm = HaanNormalizer::new(haan_config()).with_plan(skip_plan());
    let mut oracle = StreamingModel::new(&model, &prompt).expect("one-shot stream");
    let expected = oracle.decode(STEPS, &mut oracle_norm).expect("one-shot");
    for chunk in [0usize, 1, 2, 3, 5, 13, 64] {
        let engine = ServeEngine::start(ServeConfig {
            normalizer: haan_config(),
            plan: Some(skip_plan()),
            prefill_chunk_rows: chunk,
            ..Default::default()
        });
        let mut group = engine
            .decode_group(&model, &[&prompt])
            .expect("chunked stream");
        let mut ticks = 0;
        while group.generated(0).len() < STEPS {
            group.step_all().expect("chunked tick");
            ticks += 1;
        }
        assert_eq!(
            group.generated(0),
            expected.as_slice(),
            "chunk {chunk} diverged from one-shot"
        );
        let prefill_ticks = match chunk {
            0 => 1,
            rows => prompt.len().div_ceil(rows),
        };
        assert_eq!(ticks, prefill_ticks + STEPS - 1, "chunk {chunk}");
    }
}

#[test]
fn chunked_group_prefill_is_bit_identical_and_amortized_over_ticks() {
    // The tentpole invariant at the group level: prompts longer than the chunk
    // bound prefill across several ticks *inside the batched lockstep passes*,
    // emit their first token only on the tick that drains the backlog, and
    // generate exactly what solo full-recompute decode generates — under a
    // skip plan the chunk boundaries straddle.
    let model = tiny_model();
    const CHUNK: usize = 3;
    let engine = ServeEngine::start(ServeConfig {
        normalizer: haan_config(),
        plan: Some(skip_plan()),
        prefill_chunk_rows: CHUNK,
        kv_pool: KvPoolPolicy {
            page_rows: 8,
            capacity_rows: 4 * model.config().max_seq_len * model.config().num_blocks,
        },
        ..Default::default()
    });
    let prompts: [&[u32]; 4] = [
        &[2],
        &[1, 9, 17, 4, 8],
        &[3, 3, 3, 3, 3, 3, 3],
        &[5, 1, 0, 7, 2, 6, 4, 3, 5, 1, 0, 7, 2],
    ];
    let mut group = engine
        .decode_group(&model, &prompts)
        .expect("valid prompts");
    assert_eq!(group.prefill_chunk_rows(), CHUNK);
    const TICKS: usize = 9;
    let mut first_token_tick = [0usize; 4];
    for tick in 1..=TICKS {
        let results = group.step_all().expect("chunked tick");
        for (i, result) in results.iter().enumerate() {
            if result.is_some() && first_token_tick[i] == 0 {
                first_token_tick[i] = tick;
            }
        }
    }
    // A prompt of L tokens needs ⌈L / CHUNK⌉ chunk ticks before its first
    // token — the split-across-K-ticks shape the test exists to pin.
    for (i, prompt) in prompts.iter().enumerate() {
        assert_eq!(
            first_token_tick[i],
            prompt.len().div_ceil(CHUNK),
            "stream {i}: first token must land on the backlog-draining tick"
        );
    }
    // Bit-identical to solo full recompute, over everything each stream made.
    for (i, prompt) in prompts.iter().enumerate() {
        let generated = group.generated(i);
        assert_eq!(generated.len(), TICKS + 1 - first_token_tick[i]);
        let mut private = HaanNormalizer::new(haan_config()).with_plan(skip_plan());
        let mut oracle = StreamingModel::new_full_recompute(&model, prompt).unwrap();
        let expected = oracle.decode(generated.len(), &mut private).unwrap();
        assert_eq!(generated, expected.as_slice(), "stream {i} diverged");
    }
    // The chunk rows rode the batched passes: mean occupancy beats the one
    // row per stream per tick that pure decode would carry.
    let stats = group.stats();
    assert_eq!(stats.joins, prompts.len() as u64);
    assert_eq!(stats.ticks, TICKS as u64);
    assert!(
        stats.mean_tick_occupancy_rows() > prompts.len() as f64,
        "chunked prefill must raise tick occupancy above pure decode, got {}",
        stats.mean_tick_occupancy_rows()
    );
}

#[test]
fn mid_flight_join_matches_solo_oracle_and_leave_backfills_the_slot() {
    // Continuous feeding: a stream joins a live group and matches its solo
    // oracle; a stream joining a full pool queues, and the tick after an
    // active stream leaves (cancel) it activates — the freed slot is
    // backfilled from the admission queue without restarting the group.
    let model = tiny_model();
    let blocks = model.config().num_blocks;
    // 20 pages of 8 rows: two resident streams grow to 8 pages each, which
    // pins the pool above the admission watermark and below the activation
    // gate for a third 9-token prompt (9 rows → 8 pages) until one leaves.
    let engine = ServeEngine::start(ServeConfig {
        normalizer: haan_config(),
        plan: Some(skip_plan()),
        prefill_chunk_rows: 2,
        kv_pool: KvPoolPolicy {
            page_rows: 8,
            capacity_rows: 20 * 8,
        },
        ..Default::default()
    });
    let prompts: [&[u32]; 2] = [&[1, 9, 17, 4], &[4, 8, 15, 16]];
    let mut group = engine
        .decode_group(&model, &prompts)
        .expect("valid prompts");
    // Grow both residents past one page per block (8 rows) so the pool holds
    // 2 × blocks × 2 pages = 16 of the 20 pages.
    for tick in 1..=7 {
        let results = group.step_all().expect("warm-up tick");
        // The 4-token prompts drain their 2-row chunks over the first two
        // ticks; from then on every tick yields a token.
        assert_eq!(results[0].is_some(), tick >= 2);
        assert_eq!(results[1].is_some(), tick >= 2);
    }
    let pool = engine.kv_pool(model.config().embedding_dim);
    assert_eq!(pool.pages_in_use(), 2 * blocks * 2);

    let joiner_prompt: Vec<u32> = vec![7, 2, 5, 1, 6, 0, 3, 4, 2];
    let joiner = group.add_stream(&joiner_prompt).expect("valid prompt");
    assert_eq!(group.status(joiner), StreamStatus::Queued);
    // Only 4 pages are free; the joiner needs blocks × ⌈9/8⌉ = 8, so it must
    // stay queued while both residents hold their pages.
    let results = group.step_all().expect("full-pool tick");
    assert_eq!(group.status(joiner), StreamStatus::Queued);
    assert!(results[joiner].is_none());
    assert!(results[0].is_some() && results[1].is_some());

    // Stream 0 leaves (client cancellation): its pages free this instant, and
    // the very next tick activates the queued joiner into the freed capacity.
    let leaves_before = group.stats().leaves;
    assert!(group.cancel(0));
    assert_eq!(group.status(0), StreamStatus::Cancelled);
    assert_eq!(group.stats().leaves, leaves_before + 1);
    group.step_all().expect("backfill tick");
    assert_eq!(
        group.status(joiner),
        StreamStatus::Active,
        "the queued stream must backfill the freed slot on the next tick"
    );
    // Drain the joiner's chunked backlog and decode a few tokens.
    for _ in 0..7 {
        group.step_all().expect("joiner tick");
    }
    let generated = group.generated(joiner);
    assert!(
        !generated.is_empty(),
        "the joiner must have started emitting"
    );
    let mut private = HaanNormalizer::new(haan_config()).with_plan(skip_plan());
    let mut oracle = StreamingModel::new_full_recompute(&model, &joiner_prompt).unwrap();
    let expected = oracle.decode(generated.len(), &mut private).unwrap();
    assert_eq!(
        generated,
        expected.as_slice(),
        "mid-flight joiner diverged from its solo oracle"
    );
    // The survivor was never perturbed by the join/leave churn.
    let mut private = HaanNormalizer::new(haan_config()).with_plan(skip_plan());
    let mut oracle = StreamingModel::new_full_recompute(&model, prompts[1]).unwrap();
    let expected = oracle
        .decode(group.generated(1).len(), &mut private)
        .unwrap();
    assert_eq!(group.generated(1), expected.as_slice());
    let stats = group.stats();
    assert_eq!(stats.joins, 3, "two construction joins plus the backfill");
    assert!(stats.leaves >= 1);
}

#[test]
fn eight_streams_share_a_128_token_prefix_bit_identically_and_cheaply() {
    // The acceptance bar: 8 streams decoding behind one interned 128-token
    // (8-page) prefix generate exactly what 8 unshared streams generate,
    // while the shared pool holds < 40 % of the unshared pages — and every
    // page drains on teardown.
    let model = TransformerModel::new(&long_context_config(192), 42).expect("valid model");
    let page_rows = 16usize;
    let config = || ServeConfig {
        normalizer: haan_config(),
        kv_pool: KvPoolPolicy {
            page_rows,
            capacity_rows: 256 * page_rows,
        },
        ..Default::default()
    };
    let prefix_tokens: Vec<u32> = (0..128u32).map(|i| (i * 11) % 64).collect();
    let suffixes: Vec<Vec<u32>> = (0..8u32).map(|i| vec![i % 64, (i * 13 + 7) % 64]).collect();
    let base_prompt: [u32; 3] = [1, 2, 3];
    const TICKS: usize = 4;

    // Shared engine: one interned prefix, eight attached streams.
    let shared_engine = ServeEngine::start(config());
    let prefix = shared_engine
        .intern_prefix(&model, &prefix_tokens)
        .expect("whole-page prefix");
    assert_eq!(prefix.rows(), 128);
    // page_count is the whole-prefix footprint: 8 pages in each block.
    assert_eq!(
        prefix.page_count(),
        model.config().num_blocks * (128 / page_rows)
    );
    // Interning the same content again returns the same handle — no recompute.
    let again = shared_engine
        .intern_prefix(&model, &prefix_tokens)
        .expect("re-intern");
    assert!(std::sync::Arc::ptr_eq(&prefix, &again));
    let shared_pool = shared_engine.kv_pool(model.config().embedding_dim);
    let prefix_pages = prefix.page_count();
    assert_eq!(shared_pool.pages_in_use(), prefix_pages);
    let mut shared_group = shared_engine
        .decode_group(&model, &[&base_prompt])
        .expect("base stream");
    let shared_indices: Vec<usize> = suffixes
        .iter()
        .map(|suffix| {
            shared_group
                .add_stream_with_prefix(&prefix, suffix)
                .expect("attach to shared prefix")
        })
        .collect();
    for _ in 0..TICKS {
        shared_group.step_all().expect("shared tick");
    }
    let shared_pages = shared_pool.pages_in_use();

    // Unshared engine: the same eight prompts, each materializing its own
    // copy of the prefix.
    let unshared_engine = ServeEngine::start(config());
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
        .decode_group(&model, &unshared_refs)
        .expect("unshared prompts");
    for _ in 0..TICKS {
        unshared_group.step_all().expect("unshared tick");
    }
    let unshared_pages = unshared_engine
        .kv_pool(model.config().embedding_dim)
        .pages_in_use();

    // Bit-identical outputs, stream by stream (and against a solo oracle).
    for (slot, &index) in shared_indices.iter().enumerate() {
        assert_eq!(
            shared_group.generated(index),
            unshared_group.generated(slot + 1),
            "shared-prefix stream {slot} diverged from its unshared twin"
        );
        assert_eq!(shared_group.tokens(index).len(), 130 + TICKS);
    }
    let mut private = HaanNormalizer::new(haan_config());
    let mut oracle = StreamingModel::new(&model, &full_prompts[0]).unwrap();
    let expected = oracle.decode(TICKS, &mut private).unwrap();
    assert_eq!(
        shared_group.generated(shared_indices[0]),
        expected.as_slice()
    );

    // The memory acceptance bar: shared residency under 40 % of unshared.
    assert!(
        (shared_pages as f64) < 0.4 * unshared_pages as f64,
        "shared prefix must cut residency below 40 %: {shared_pages} vs {unshared_pages}"
    );
    assert!(shared_pages >= prefix_pages, "the prefix pages stay mapped");

    // Teardown: streams release their references first, the interned prefix
    // keeps its pages alive until the engine drops, then everything drains.
    drop(prefix);
    drop(again);
    drop(shared_group);
    assert_eq!(
        shared_pool.pages_in_use(),
        prefix_pages,
        "after the streams drop, only the interned prefix holds pages"
    );
    drop(shared_engine);
    assert_eq!(
        shared_pool.pages_in_use(),
        0,
        "refcounts must drain to zero"
    );
    assert_eq!(shared_pool.bytes_in_use(), 0);
}

/// Rows `obs` saw take the fused residual+norm path, over every site.
fn fused_residual_rows(obs: &Obs) -> u64 {
    obs.export()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("haan.path.fused_residual.site_"))
        .map(|(_, rows)| rows)
        .sum()
}

#[test]
fn fused_decode_group_matches_fused_and_composed_solo_oracles() {
    // Cross-operation fusion regression: a DecodeGroup running the fused
    // residual+norm kernel inside every block must generate exactly what solo
    // full-recompute decode generates, both on a bare HaanNormalizer (fused)
    // and on the same normalizer under `Composed` (the composed op order:
    // separate add → norm) — so fused == composed as well — under a skip plan
    // whose anchors the fused site records and consumes. Path counters prove
    // which order each side ran.
    let model = tiny_model();
    let prompts: [&[u32]; 3] = [&[2], &[1, 9, 17, 4, 8], &[5, 1, 0, 7, 2, 6, 4, 3]];
    const TICKS: usize = 8;
    let obs = Obs::shared(1 << 12);
    let engine = ServeEngine::start(ServeConfig {
        normalizer: haan_config(),
        plan: Some(skip_plan()),
        prefill_chunk_rows: 3,
        kv_pool: KvPoolPolicy {
            page_rows: 8,
            capacity_rows: 4 * model.config().max_seq_len * model.config().num_blocks,
        },
        obs: Some(Arc::clone(&obs) as Arc<dyn ObsSink>),
        ..Default::default()
    });
    let mut group = engine
        .decode_group(&model, &prompts)
        .expect("valid prompts");
    for _ in 0..TICKS {
        group.step_all().expect("tick");
    }
    // Every block's second norm site is the fused residual site.
    assert!(
        fused_residual_rows(&obs) > 0,
        "the fused residual kernel never ran"
    );
    let observed = |normalizer: &mut HaanNormalizer| {
        let obs = Obs::shared(1 << 12);
        normalizer.set_obs_sink(Some(Arc::clone(&obs) as Arc<dyn ObsSink>));
        obs
    };
    for (i, prompt) in prompts.iter().enumerate() {
        let generated = group.generated(i);
        let mut fused = HaanNormalizer::new(haan_config()).with_plan(skip_plan());
        let fused_obs = observed(&mut fused);
        let mut oracle = StreamingModel::new_full_recompute(&model, prompt).unwrap();
        let expected = oracle.decode(generated.len(), &mut fused).unwrap();
        assert_eq!(
            generated, expected,
            "stream {i} diverged from its fused solo full-recompute oracle"
        );
        assert!(
            fused_residual_rows(&fused_obs) > 0,
            "solo oracle never fused"
        );

        let mut composed = Composed(HaanNormalizer::new(haan_config()).with_plan(skip_plan()));
        let composed_obs = observed(&mut composed.0);
        let mut oracle = StreamingModel::new_full_recompute(&model, prompt).unwrap();
        let expected = oracle.decode(generated.len(), &mut composed).unwrap();
        assert_eq!(
            generated, expected,
            "stream {i} diverged from its composed solo full-recompute oracle"
        );
        assert_eq!(
            fused_residual_rows(&composed_obs),
            0,
            "the composed oracle took the fused path"
        );
    }
}

#[test]
fn long_prompt_joining_a_wide_group_never_stalls_resident_streams() {
    // The latency acceptance bar: a 256-token prompt joining a 64-stream
    // group prefills in 32-row chunks stacked into the shared passes, and no
    // resident stream's next token slips by even one tick — the joiner's
    // whole prefill costs residents nothing but the chunk rows riding along.
    let model = TransformerModel::new(&long_context_config(320), 42).expect("valid model");
    const WIDTH: usize = 64;
    const CHUNK: usize = 32;
    let engine = ServeEngine::start(ServeConfig {
        normalizer: haan_config(),
        prefill_chunk_rows: CHUNK,
        kv_pool: KvPoolPolicy {
            page_rows: 16,
            capacity_rows: 16384,
        },
        ..Default::default()
    });
    let prompts: Vec<Vec<u32>> = (0..WIDTH as u32)
        .map(|i| vec![i % 64, (i * 3 + 1) % 64, (i * 7 + 2) % 64])
        .collect();
    let prompt_refs: Vec<&[u32]> = prompts.iter().map(Vec::as_slice).collect();
    let mut group = engine
        .decode_group(&model, &prompt_refs)
        .expect("wide group");
    for _ in 0..2 {
        let results = group.step_all().expect("warm-up tick");
        assert!(results.iter().take(WIDTH).all(Option::is_some));
    }

    let joiner_prompt: Vec<u32> = (0..256u32).map(|i| (i * 29 + 3) % 64).collect();
    let joiner = group.add_stream(&joiner_prompt).expect("long prompt");
    let prefill_ticks = joiner_prompt.len().div_ceil(CHUNK);
    for tick in 1..=prefill_ticks {
        let results = group.step_all().expect("prefill tick");
        assert!(
            results.iter().take(WIDTH).all(Option::is_some),
            "tick {tick}: a resident stream missed its token during the join"
        );
        assert_eq!(
            results[joiner].is_some(),
            tick == prefill_ticks,
            "the joiner emits exactly when its {prefill_ticks}-tick backlog drains"
        );
    }
    // The joiner's output is the solo-decode output, chunking and batching
    // notwithstanding.
    let mut results_after = Vec::new();
    for _ in 0..2 {
        results_after.push(group.step_all().expect("steady tick")[joiner]);
    }
    assert!(results_after.iter().all(Option::is_some));
    let generated = group.generated(joiner);
    assert_eq!(generated.len(), 3);
    let mut private = HaanNormalizer::new(haan_config());
    let mut oracle = StreamingModel::new(&model, &joiner_prompt).unwrap();
    let expected = oracle.decode(generated.len(), &mut private).unwrap();
    assert_eq!(
        generated,
        expected.as_slice(),
        "joiner diverged from solo decode"
    );
    // Occupancy: every tick carried at least the resident width, and the
    // prefill ticks carried the chunk rows on top.
    let stats = group.stats();
    assert!(stats.mean_tick_occupancy_rows() > WIDTH as f64);
}

/// The `serve_mixed` benchmark's model (E = 64): every projection weight and
/// the vocabulary head sit under the split gate, so a tick of its group,
/// prompt catch-up and logits included, hands nothing to the worker pool and
/// runs exactly as it did before the pool existed.
#[test]
fn an_e64_serving_tick_hands_nothing_to_the_worker_pool() {
    let config = ModelConfig {
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
    };
    let model = TransformerModel::new(&config, 11).expect("valid E=64 model");
    let engine = ServeEngine::start(ServeConfig::default());
    let mut group = engine.empty_decode_group(&model).expect("group");
    for s in 0..16u32 {
        let prompt: Vec<u32> = (0..4 + s % 9).map(|i| (s * 7 + i * 3) % 128).collect();
        group.add_stream(&prompt).expect("valid prompt");
    }
    let before = handoffs_on_this_thread();
    for _ in 0..6 {
        group.step_all().expect("E=64 tick");
    }
    assert_eq!(
        handoffs_on_this_thread(),
        before,
        "an E=64 tick handed work to the pool"
    );
    assert!(group.stats().mean_tick_occupancy_rows() >= 16.0);
    // The counter does see a product that splits: a GPT-2-small projection
    // hands every range but the caller's to the pool.
    let weight = Matrix::packed_from_fn(768, 768, |r, c| (r + c) as f32);
    let _ = Matrix::zeros(8, 768).matmul(&weight).expect("shapes");
    assert_eq!(
        handoffs_on_this_thread() - before,
        (host_threads().min(768 / 16) - 1) as u64
    );
}
