//! Parity suite of the stateful incremental forward-pass API: KV-cached decode
//! over paged, pool-backed K/V storage (`DecodeContext` / `StreamingModel` /
//! serve-layer `DecodeGroup`) must be **bit-identical** to the stateless
//! full-prefix recompute oracle, over edge shapes, across HAAN skip-anchor
//! sites, and with many streams interleaving pages of one shared pool.
//!
//! Why exact equality is the right bar: every operation outside the attention
//! score matrix is row-local (embeddings, norms, MLP, residuals, logit
//! projection), the blocked matmul kernels reduce each output element in
//! ascending-k order regardless of how many rows are in flight, the offset causal
//! softmax shares the zero-offset reduction order, and masked score columns
//! contribute exact `+0.0` terms — so the cached path computes the same floats,
//! not merely close ones. HAAN's skip predictor keeps the property because its
//! per-row anchors are recorded and consumed within one pass over the same rows.
//! Paged storage adds nothing numeric: the attention kernel reads the live rows
//! in place, in position order, and runs the oracle's operations in its order.

use haan::{BackendSelection, HaanConfig, HaanNormalizer, SkipPlan};
use haan_llm::norm::ReferenceNormalizer;
use haan_llm::streaming::greedy_argmax;
use haan_llm::{
    EvictionPolicy, KvBlockPool, LlmError, ModelConfig, StreamingModel, TransformerModel,
};
use haan_numerics::Format;
use haan_serve::{KvPoolPolicy, ServeConfig, ServeEngine, StreamStatus};

fn model() -> TransformerModel {
    TransformerModel::new(&ModelConfig::tiny_test(), 42).expect("valid test model")
}

fn haan_config() -> HaanConfig {
    // Subsampled FP16 statistics on the fused backend: the serving hot path, and
    // deterministic whether rows arrive one at a time or as a whole prefix.
    HaanConfig::builder()
        .label("kv-decode parity")
        .subsample(16)
        .format(Format::Fp16)
        .backend(BackendSelection::Fused)
        .build()
}

/// Skip plans straddling the interesting site boundaries of the 9-site test model
/// (sites 0..=7 are block norms, site 8 is the final norm): one plan anchored
/// mid-stack, one whose skip range runs through the final-norm site.
fn skip_plans() -> [SkipPlan; 2] {
    let plan = |start: usize, end: usize| SkipPlan {
        start,
        end,
        decay: -0.05,
        correlation: -1.0,
        calibration_anchor_log_isd: -0.25,
    };
    [plan(2, 5), plan(6, 8)]
}

#[test]
fn cached_prefill_matches_stateless_forward_over_edge_shapes() {
    let model = model();
    let max = model.config().max_seq_len;
    let prompts: Vec<Vec<u32>> = vec![
        vec![5],                                              // single token
        vec![1, 5, 9],                                        // short
        (0..max as u32).map(|i| i % 8).collect(),             // exactly max_seq
        (0..(max as u32 - 1)).map(|i| (i * 3) % 8).collect(), // max_seq - 1
    ];
    for prompt in &prompts {
        // Exact statistics.
        let mut ctx = model.start_decode();
        let cached = ctx
            .prefill(prompt, &mut ReferenceNormalizer::new())
            .expect("cached prefill");
        let oracle = model
            .logits(prompt, &mut ReferenceNormalizer::new())
            .expect("stateless oracle");
        assert_eq!(cached, oracle, "reference: prompt len {}", prompt.len());

        // HAAN skipping/subsampling/quantization across both skip plans.
        for plan in skip_plans() {
            let mut ctx = model.start_decode();
            let mut cached_norm = HaanNormalizer::new(haan_config()).with_plan(plan);
            let cached = ctx.prefill(prompt, &mut cached_norm).expect("haan prefill");
            let mut oracle_norm = HaanNormalizer::new(haan_config()).with_plan(plan);
            let oracle = model.logits(prompt, &mut oracle_norm).expect("haan oracle");
            assert_eq!(
                cached,
                oracle,
                "haan plan ({}, {}): prompt len {}",
                plan.start,
                plan.end,
                prompt.len()
            );
        }
    }
}

#[test]
fn cached_steps_match_full_recompute_across_anchor_sites() {
    // Step the context one token at a time; each step's logits row must equal the
    // last row of a stateless full-prefix pass, for both exact statistics and a
    // skip plan whose anchor/skipped boundary the pass crosses every step.
    let model = model();
    let tokens: Vec<u32> = vec![3, 7, 11, 13, 2, 9, 31, 4];
    for plan in skip_plans() {
        let mut ctx = model.start_decode();
        let mut cached_norm = HaanNormalizer::new(haan_config()).with_plan(plan);
        let mut oracle_norm = HaanNormalizer::new(haan_config()).with_plan(plan);
        ctx.prefill(&tokens[..2], &mut cached_norm)
            .expect("prefill");
        for n in 3..=tokens.len() {
            let stepped = ctx
                .step(tokens[n - 1], &mut cached_norm)
                .expect("cached step");
            let oracle = model
                .logits(&tokens[..n], &mut oracle_norm)
                .expect("stateless oracle");
            assert_eq!(
                stepped.as_slice(),
                oracle.row(n - 1),
                "plan ({}, {}) step {n}",
                plan.start,
                plan.end
            );
        }
        // The anchor states both normalizers hold afterwards describe the same
        // last pass: cached saw 1 row, the oracle saw the full prefix, and the
        // new token's row anchor must agree (it is the last row either way).
        let cached_rows = cached_norm.anchor_state().row_log_isds().to_vec();
        let oracle_rows = oracle_norm.anchor_state().row_log_isds().to_vec();
        assert_eq!(cached_rows.len(), 1);
        assert_eq!(cached_rows.last(), oracle_rows.last());
    }
}

#[test]
fn prompt_of_one_token_decodes_to_max_seq() {
    // Shape edge: a 1-token prompt, decoded greedily to the model's capacity.
    let model = model();
    let mut cached = StreamingModel::new(&model, &[5]).unwrap();
    let mut oracle = StreamingModel::new_full_recompute(&model, &[5]).unwrap();
    let steps = model.config().max_seq_len - 1;
    let mut cached_norm = ReferenceNormalizer::new();
    let mut oracle_norm = ReferenceNormalizer::new();
    let generated_cached = cached.decode(steps, &mut cached_norm).unwrap();
    let generated_oracle = oracle.decode(steps, &mut oracle_norm).unwrap();
    assert_eq!(generated_cached, generated_oracle);
    assert_eq!(cached.remaining_capacity(), 0);
    assert!(cached.decode_step(&mut cached_norm).is_err());
    assert!(oracle.decode_step(&mut oracle_norm).is_err());
}

#[test]
fn prefill_of_exactly_max_seq_fills_the_context() {
    let model = model();
    let max = model.config().max_seq_len;
    let prompt: Vec<u32> = (0..max as u32).map(|i| (i * 5) % 8).collect();
    let mut ctx = model.start_decode();
    let mut norm = HaanNormalizer::new(haan_config()).with_plan(skip_plans()[0]);
    let logits = ctx
        .prefill(&prompt, &mut norm)
        .expect("full-capacity prefill");
    assert_eq!(logits.shape(), (max, model.config().vocab_size));
    assert_eq!(ctx.remaining_capacity(), 0);
    assert!(ctx.step(0, &mut norm).is_err(), "no capacity left");
    // Reset reclaims the stream without reallocating.
    ctx.reset();
    assert_eq!(ctx.remaining_capacity(), max);
}

#[test]
fn paged_decode_is_bit_identical_to_full_recompute_across_skip_sites() {
    // The paging parity bar: pool-backed paged K/V storage (shared pool with
    // 4-row pages, two interleaved streams) against the stateless full
    // recompute, under HAAN subsampled/quantized statistics and both skip plans
    // — prefill and step-by-step decode, bit for bit.
    let model = model();
    let pool = KvBlockPool::shared(
        2 * model.config().max_seq_len * model.config().num_blocks,
        4,
        model.config().embedding_dim,
    );
    let prompts: [&[u32]; 2] = [&[3, 7, 11], &[1, 2, 3, 4, 5]];
    let recompute = |plan: SkipPlan, tokens: &[u32]| {
        let mut norm = HaanNormalizer::new(haan_config()).with_plan(plan);
        model.logits(tokens, &mut norm).expect("stateless oracle")
    };
    for plan in skip_plans() {
        let mut streams: Vec<_> = prompts
            .iter()
            .map(|prompt| {
                let mut ctx = model.start_decode_in(&pool).expect("matching pool width");
                let mut norm = HaanNormalizer::new(haan_config()).with_plan(plan);
                let logits = ctx.prefill(prompt, &mut norm).expect("paged prefill");
                assert_eq!(logits, recompute(plan, prompt), "prefill, plan {plan:?}");
                (ctx, norm, prompt.to_vec())
            })
            .collect();
        // Interleave the streams' steps so their pool pages interleave too.
        for step in 0..6u32 {
            for (s, (ctx, norm, tokens)) in streams.iter_mut().enumerate() {
                let token = (step * 5 + s as u32) % 8;
                tokens.push(token);
                let from_paged = ctx.step(token, norm).expect("paged step");
                let oracle = recompute(plan, tokens);
                assert_eq!(
                    from_paged.as_slice(),
                    oracle.row(tokens.len() - 1),
                    "stream {s} step {step}"
                );
            }
        }
    }
    drop(pool);
}

#[test]
fn windowed_stream_outlives_max_seq_and_stays_parity_correct() {
    // Sliding-window eviction under a HAAN skip plan: a stream decoding far past
    // max_seq_len must, at every step, match the stateless oracle over the
    // resident window (the satellite acceptance bar for eviction).
    let model = model();
    let max = model.config().max_seq_len;
    let keep = max / 2;
    let plan = skip_plans()[0];
    let mut ctx = model
        .start_decode()
        .with_eviction(EvictionPolicy::SlidingWindow { keep_last: keep });
    let mut norm = HaanNormalizer::new(haan_config()).with_plan(plan);
    let mut window: Vec<u32> = vec![4, 2, 7];
    ctx.prefill(&window, &mut norm).expect("prefill");
    for round in 0..(2 * max) as u32 {
        let token = (round * 3 + 1) % 8;
        if window.len() + 1 > max {
            window = window[window.len() - keep..].to_vec();
        }
        window.push(token);
        let stepped = ctx.step(token, &mut norm).expect("windowed step");
        let mut oracle_norm = HaanNormalizer::new(haan_config()).with_plan(plan);
        let oracle = model
            .logits(&window, &mut oracle_norm)
            .expect("stateless oracle over the window");
        assert_eq!(
            stepped.as_slice(),
            oracle.row(window.len() - 1),
            "round {round}"
        );
        assert_eq!(ctx.resident_tokens(), window.as_slice());
    }
    assert!(
        ctx.len() <= max,
        "the context must never exceed the model maximum"
    );
}

#[test]
fn windowed_stream_survives_preemption_and_stays_parity_correct() {
    // The overload-issue satellite: a sliding-window stream — a group of one —
    // that is repeatedly *preempted* (pages freed, token history kept) and
    // transparently resumed, including past max_seq_len where the resume must
    // re-apply the window trim, generates exactly what (a) a never-preempted
    // twin group generates and (b) a fresh-context stateless oracle over the
    // resident window predicts — under the HAAN fused/FP16/subsampled config
    // with a skip plan, the serving hot path.
    let model = model();
    let max = model.config().max_seq_len;
    let blocks = model.config().num_blocks;
    let keep = max / 2;
    let plan = skip_plans()[0];
    let window_policy = EvictionPolicy::SlidingWindow { keep_last: keep };
    let engine_of = || {
        ServeEngine::start(ServeConfig {
            normalizer: haan_config(),
            plan: Some(plan),
            kv_pool: KvPoolPolicy {
                page_rows: 4,
                capacity_rows: 2 * max * blocks,
            },
            ..Default::default()
        })
    };
    let (engine, twin_engine) = (engine_of(), engine_of());
    let prompt: [u32; 3] = [4, 2, 7];
    let mut preempted = engine
        .decode_group(&model, &[&prompt])
        .expect("windowed stream");
    let mut twin = twin_engine
        .decode_group(&model, &[&prompt])
        .expect("twin stream");
    for group in [&mut preempted, &mut twin] {
        group
            .set_eviction(0, window_policy)
            .expect("set before the first tick");
    }
    let pool = engine.kv_pool(model.config().embedding_dim);
    // Manually tracked resident window, for the fresh-context oracle: the
    // first tick feeds the whole prompt, every later tick feeds the previous
    // round's token (evicting first when the window would overflow).
    let mut window: Vec<u32> = prompt.to_vec();
    let mut pending: Option<u32> = None;
    let mut parks = 0;
    for round in 0..2 * max as u32 {
        if let Some(token) = pending.take() {
            if window.len() + 1 > max {
                window = window[window.len() - keep..].to_vec();
            }
            window.push(token);
        }
        // Preempt on a cadence that lands before, during, and after the first
        // window wrap-around.
        if round % 7 == 3 {
            assert!(preempted.preempt(0), "an active stream must park");
            assert_eq!(preempted.status(0), StreamStatus::Queued);
            assert_eq!(pool.pages_in_use(), 0, "parking returns every page");
            parks += 1;
        }
        let ours = preempted.step_all().expect("resume and step")[0].expect("a token per tick");
        let expected = twin.step_all().expect("twin step")[0].expect("a twin token per tick");
        assert_eq!(ours, expected, "round {round}: parked ≠ never-parked");
        let mut oracle_norm = HaanNormalizer::new(haan_config()).with_plan(plan);
        let oracle = model
            .logits(&window, &mut oracle_norm)
            .expect("fresh-context oracle over the resident window");
        let oracle_token = greedy_argmax(oracle.row(window.len() - 1));
        assert_eq!(ours, oracle_token, "round {round}: ≠ fresh-context oracle");
        pending = Some(ours);
    }
    assert!(parks >= 8, "the cadence must have parked through the wrap");
    assert_eq!(preempted.status(0), StreamStatus::Active);
    assert_eq!(preempted.stats().resumes, parks);
    assert_eq!(preempted.tokens(0), twin.tokens(0));
}

#[test]
fn pool_pressure_is_a_typed_error_and_the_stream_stays_consistent() {
    // A pool too small for the stream's growth: the step that cannot get a page
    // fails with the typed KvPoolExhausted (no panic), the failed pass rolls
    // back, and the rolled-back stream still answers correctly after a reset.
    let model = model();
    let blocks = model.config().num_blocks;
    // Room for 12 positions per block — less than max_seq_len (32).
    let pool = KvBlockPool::shared(12 * blocks, 4, model.config().embedding_dim);
    let mut ctx = model.start_decode_in(&pool).expect("pool matches model");
    let mut norm = ReferenceNormalizer::new();
    let mut tokens: Vec<u32> = vec![1, 2, 3, 4];
    ctx.prefill(&tokens, &mut norm).expect("prefill fits");
    let mut err = None;
    for round in 0..16u32 {
        let token = round % 8;
        match ctx.step(token, &mut norm) {
            Ok(_) => tokens.push(token),
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    let err = err.expect("the pool must run out before 16 more tokens");
    assert!(
        matches!(err, LlmError::KvPoolExhausted { .. }),
        "expected a typed pool-exhaustion error, got {err:?}"
    );
    // Rollback left the stream exactly where it was before the failed step:
    // another pass over the same state must match the stateless oracle.
    assert_eq!(ctx.len(), tokens.len());
    assert_eq!(ctx.resident_tokens(), tokens.as_slice());
    ctx.reset();
    assert_eq!(pool.pages_in_use(), 0, "reset returns every page");
    let logits = ctx
        .prefill(&[5, 6, 7], &mut norm)
        .expect("post-reset prefill");
    let oracle = model
        .logits(&[5, 6, 7], &mut ReferenceNormalizer::new())
        .expect("oracle");
    assert_eq!(logits, oracle);
}

#[test]
fn windowed_stream_runs_forever_in_bounded_pool_memory() {
    // A pool sized for one full window plus eviction headroom per block
    // (eviction recomputes the kept window into fresh pages before freeing the
    // old ones): an endless stream never exhausts the pool and peak residency
    // stays within the bound.
    let model = model();
    let max = model.config().max_seq_len;
    let blocks = model.config().num_blocks;
    let pool = KvBlockPool::shared(2 * max * blocks, 4, model.config().embedding_dim);
    let mut ctx = model
        .start_decode_in(&pool)
        .expect("pool matches model")
        .with_eviction(EvictionPolicy::SlidingWindow { keep_last: max / 2 });
    let mut norm = ReferenceNormalizer::new();
    ctx.prefill(&[3, 1, 4], &mut norm).expect("prefill");
    for round in 0..(3 * max) as u32 {
        ctx.step(round % 8, &mut norm)
            .expect("windowed stream must never exhaust its bounded pool");
    }
    assert!(ctx.len() <= max);
    assert!(
        pool.peak_pages_in_use() <= pool.pages_total(),
        "peak residency {} exceeded the pool bound {}",
        pool.peak_pages_in_use(),
        pool.pages_total()
    );
}

#[test]
fn engine_decode_group_matches_solo_full_recompute_with_skipping() {
    // The batched multi-stream step through the engine: four streams advanced in
    // lockstep (one fused request per site per tick, one row per stream) under a
    // HAAN skip plan must generate exactly the tokens of four solo
    // full-recompute decodes on private normalizers.
    let model = model();
    let plan = skip_plans()[0];
    let engine = ServeEngine::start(ServeConfig {
        normalizer: haan_config(),
        plan: Some(plan),
        kv_pool: KvPoolPolicy {
            page_rows: 8,
            capacity_rows: 4 * model.config().max_seq_len * model.config().num_blocks,
        },
        ..Default::default()
    });
    let prompts: [&[u32]; 4] = [&[1, 9, 17], &[4, 8, 15, 16, 23], &[2], &[6, 6, 6]];
    let mut group = engine
        .decode_group(&model, &prompts)
        .expect("valid prompts");
    const TICKS: usize = 6;
    for _ in 0..TICKS {
        let results = group.step_all().expect("lockstep tick");
        assert!(results.iter().all(Option::is_some));
    }
    for (i, prompt) in prompts.iter().enumerate() {
        let mut private = HaanNormalizer::new(haan_config()).with_plan(plan);
        let mut oracle = StreamingModel::new_full_recompute(&model, prompt).unwrap();
        let expected = oracle.decode(TICKS, &mut private).unwrap();
        assert_eq!(
            group.generated(i),
            expected.as_slice(),
            "stream {i} diverged from solo full recompute"
        );
    }
    // Lockstep ticks carry one row per stream — the batch occupancy the whole
    // exercise exists to produce.
    let stats = group.stats();
    assert!(
        stats.mean_tick_occupancy_rows() > 1.0,
        "expected > 1 row per site per tick, got {}",
        stats.mean_tick_occupancy_rows()
    );
    // All pages come from one engine pool, bounded and shared.
    let pool = engine.kv_pool(model.config().embedding_dim);
    assert!(pool.pages_in_use() > 0);
    drop(group);
    assert_eq!(
        pool.pages_in_use(),
        0,
        "dropped streams release their pages"
    );
}

#[test]
fn interleaved_engine_decode_streams_match_solo_full_recompute() {
    // Two KV-cached decode streams — each a group of one — share one
    // ServeEngine and its pool, their ticks interleaving. Each must generate
    // exactly the tokens of a full-recompute decode on a private HAAN
    // normalizer: incremental, multi-tenant decode changes nothing observable.
    let model = model();
    let plan = skip_plans()[0];
    let engine = ServeEngine::start(ServeConfig {
        normalizer: haan_config(),
        plan: Some(plan),
        ..Default::default()
    });
    let prompts: [&[u32]; 2] = [&[1, 9, 17], &[4, 8, 15, 16, 23]];
    let mut streams: Vec<_> = prompts
        .iter()
        .map(|prompt| {
            engine
                .decode_group(&model, &[prompt])
                .expect("valid prompt")
        })
        .collect();
    const STEPS: usize = 6;
    for _ in 0..STEPS {
        for stream in &mut streams {
            assert!(stream.step_all().expect("engine decode step")[0].is_some());
        }
    }
    for (prompt, stream) in prompts.iter().zip(&streams) {
        let mut private = HaanNormalizer::new(haan_config()).with_plan(plan);
        let mut oracle = StreamingModel::new_full_recompute(&model, prompt).unwrap();
        let expected = oracle.decode(STEPS, &mut private).unwrap();
        assert_eq!(
            stream.generated(0),
            expected.as_slice(),
            "prompt {prompt:?} diverged from solo full recompute"
        );
    }
    assert_eq!(engine.admission_stats().admitted, 2);
}
