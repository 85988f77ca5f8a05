//! Chaos suite of the overload-safe serving layer: a deterministic,
//! seeded fault-injection drill proving that admission control, preemption,
//! and resume keep every *admitted* stream **bit-identical** to a solo decode
//! while an oversubscribed pool sheds the rest with typed errors — no panics —
//! and that the whole drill reproduces exactly per seed.
//!
//! The drill shape follows the acceptance bar of the overload issue: a K/V
//! pool sized for N full-length streams is offered 4N prompts. Admission
//! splits the offers into admit / queue / shed; pool pressure forces at least
//! one preemption (pages freed, token history kept) and at least one resume
//! (transparent re-prefill); the injector adds pool exhaustions in the middle
//! of ticks. Despite all of it, every stream that decoded at all must match
//! `StreamingModel::new_full_recompute` — the same oracle the parity suite in
//! `tests/kv_decode.rs` holds the fault-free paths to.

use haan::{BackendSelection, HaanConfig};
use haan_llm::norm::ReferenceNormalizer;
use haan_llm::{LlmError, ModelConfig, StreamingModel, TransformerModel};
use haan_obs::{Obs, ObsSink};
use haan_serve::{
    AdmissionPolicy, FaultPlan, GroupStats, InjectedFaults, KvPoolPolicy, SeededFaults,
    ServeConfig, ServeEngine, ServeError, StreamStatus,
};
use std::sync::Arc;

fn model() -> TransformerModel {
    TransformerModel::new(&ModelConfig::tiny_test(), 42).expect("valid test model")
}

fn fused() -> HaanConfig {
    HaanConfig {
        backend: BackendSelection::Fused,
        ..HaanConfig::unoptimized()
    }
}

/// Everything observable about one drill run; two runs with the same seed must
/// produce equal transcripts.
#[derive(Debug, PartialEq, Eq)]
struct DrillTranscript {
    tokens: Vec<Vec<u32>>,
    statuses: Vec<StreamStatus>,
    stats: GroupStats,
    injected: InjectedFaults,
    pool_exhausted_retries: u32,
    ticks: u32,
}

/// Offers 4N prompts to a pool sized for N full-length streams and drives the
/// group until every non-shed stream finishes, retrying ticks that fail with
/// the typed pool error (injected or real — both are retry-safe).
fn run_overload_drill(seed: u64) -> DrillTranscript {
    let model = model();
    let config = model.config();
    let max = config.max_seq_len;
    let blocks = config.num_blocks;
    const N: usize = 2;
    let faults = Arc::new(SeededFaults::new(
        seed,
        FaultPlan {
            exhaust_probability: 0.1,
            max_exhaustions: 4,
        },
    ));
    let engine = ServeEngine::start(ServeConfig {
        normalizer: fused(),
        // Pool sized for exactly N streams decoded all the way to max_seq_len.
        kv_pool: KvPoolPolicy {
            page_rows: 4,
            capacity_rows: N * max * blocks,
        },
        // Conservative admission: every offer is costed at prompt + max_seq
        // rows, and at most 3 offers may wait in the queued state.
        admission: AdmissionPolicy {
            queue_above: 0.75,
            max_queued: 3,
            retry_after_us: 500,
            reserve_rows: max,
        },
        faults: Some(Arc::clone(&faults) as Arc<dyn haan_serve::FaultInjector>),
        ..Default::default()
    });
    let prompts: Vec<Vec<u32>> = (0..(4 * N) as u32)
        .map(|i| vec![i % 8, (i + 3) % 8, (i * 5 + 1) % 8, (i + 1) % 8])
        .collect();
    let prompt_refs: Vec<&[u32]> = prompts.iter().map(Vec::as_slice).collect();
    let mut group = engine
        .decode_group(&model, &prompt_refs)
        .expect("overload is not a constructor error");
    let mut pool_exhausted_retries = 0u32;
    let mut ticks = 0u32;
    loop {
        ticks += 1;
        assert!(ticks < 2_000, "the drill must converge");
        match group.step_all() {
            Ok(_) => {}
            // Retry-safe by contract: the failed tick rolled everything back.
            Err(LlmError::KvPoolExhausted { .. }) => {
                pool_exhausted_retries += 1;
                continue;
            }
            Err(err) => panic!("only pool exhaustion is expected, got {err:?}"),
        }
        let all_settled = (0..group.len())
            .all(|i| matches!(group.status(i), StreamStatus::Finished | StreamStatus::Shed));
        if all_settled {
            break;
        }
    }
    let transcript = DrillTranscript {
        tokens: (0..group.len()).map(|i| group.tokens(i).to_vec()).collect(),
        statuses: (0..group.len()).map(|i| group.status(i)).collect(),
        stats: group.stats(),
        injected: faults.injected(),
        pool_exhausted_retries,
        ticks,
    };
    // Parity: every stream that decoded at all is bit-identical to the same
    // prompt decoding alone on a private full-recompute oracle, preemptions
    // and injected exhaustions notwithstanding. Shed slots never decoded.
    for (i, prompt) in prompts.iter().enumerate() {
        match transcript.statuses[i] {
            StreamStatus::Finished => {
                let mut oracle =
                    StreamingModel::new_full_recompute(&model, prompt).expect("oracle stream");
                let mut expected = oracle
                    .decode(max - prompt.len(), &mut ReferenceNormalizer::new())
                    .expect("oracle decode");
                // A group stream fills its K/V context to max_seq_len, so it
                // emits one token more than the token-count-capped solo
                // stream; the stateless forward over the full sequence is the
                // oracle for that last emission.
                let full = model
                    .logits(oracle.tokens(), &mut ReferenceNormalizer::new())
                    .expect("stateless oracle");
                let last = full.row(max - 1);
                expected.push(
                    last.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                        .map(|(i, _)| i as u32)
                        .expect("non-empty vocabulary"),
                );
                assert_eq!(
                    &transcript.tokens[i][prompt.len()..],
                    expected.as_slice(),
                    "admitted stream {i} must match its solo oracle"
                );
            }
            StreamStatus::Shed => {
                assert_eq!(
                    transcript.tokens[i].as_slice(),
                    prompt.as_slice(),
                    "shed stream {i} must never decode"
                );
            }
            other => panic!("stream {i} ended the drill as {other:?}"),
        }
    }
    transcript
}

#[test]
fn overload_drill_sheds_typed_preempts_and_stays_bit_identical() {
    let transcript = run_overload_drill(0xC0FFEE);
    let stats = transcript.stats;
    // 4N offered against a pool sized for N: the admission split is exact.
    assert_eq!(stats.offered, 8);
    assert_eq!(stats.queued, 3, "three offers wait under the watermark");
    assert_eq!(stats.shed, 4, "offers past the queue bound are shed");
    assert_eq!(stats.admitted, 4, "every non-shed stream eventually ran");
    assert_eq!(stats.completed, 4);
    // The drill is only interesting if overload actually bit: at least one
    // preemption with its resume, and at least one injected mid-tick
    // exhaustion, must have occurred.
    assert!(stats.preemptions >= 1, "stats: {stats:?}");
    assert!(stats.resumes >= 1, "stats: {stats:?}");
    assert!(stats.resume_reprefill_rows > 0);
    assert!(
        transcript.injected.exhaustions >= 1,
        "the injector must have fired: {:?}",
        transcript.injected
    );
}

#[test]
fn chaos_drill_reproduces_exactly_per_seed() {
    // Same seed → the same admissions, the same victims, the same injected
    // faults, the same tokens, tick for tick.
    let first = run_overload_drill(7);
    let second = run_overload_drill(7);
    assert_eq!(first, second);
    // A different seed moves the injected faults (the drill stays correct —
    // parity is asserted inside the run — but the transcript may differ).
    let other = run_overload_drill(8);
    assert_eq!(other.stats.completed, 4);
}

/// Solo full-recompute oracle for a group stream that ran to capacity: the
/// group fills its K/V context to `max_seq_len`, so it emits one token more
/// than a token-count-capped solo decode; the stateless forward over the full
/// sequence supplies that last emission.
fn solo_oracle_to_capacity(model: &TransformerModel, prompt: &[u32]) -> Vec<u32> {
    let max = model.config().max_seq_len;
    let mut oracle = StreamingModel::new_full_recompute(model, prompt).expect("oracle stream");
    let mut expected = oracle
        .decode(max - prompt.len(), &mut ReferenceNormalizer::new())
        .expect("oracle decode");
    let full = model
        .logits(oracle.tokens(), &mut ReferenceNormalizer::new())
        .expect("stateless oracle");
    let last = full.row(max - 1);
    expected.push(
        last.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i as u32)
            .expect("non-empty vocabulary"),
    );
    expected
}

#[test]
fn chunked_prefix_drill_survives_mid_chunk_exhaustion_and_sharer_preemption() {
    // The continuous-batching chaos bar: ~4× overload where every offered
    // stream decodes behind one interned shared prefix, prompts prefill in
    // 2-row chunks inside the lockstep passes, the injector exhausts the pool
    // mid-chunk, and one sharer is *forcibly preempted mid-prefill*. Partial
    // prefills must resume bit-identically, the shared pages must survive the
    // sharer's preemption (the surviving sharers and the interned handle keep
    // them mapped), and every stream that ran must match its solo oracle.
    let model = model();
    let config = model.config();
    let max = config.max_seq_len;
    let blocks = config.num_blocks;
    const N: usize = 2;
    let faults = Arc::new(SeededFaults::new(
        0xD12117,
        FaultPlan {
            exhaust_probability: 0.1,
            max_exhaustions: 5,
        },
    ));
    // The whole drill records into one flight recorder, sized so nothing is
    // evicted: the lifecycle assertions below reconstruct a stream's history
    // from the recorder *alone*.
    let obs = Obs::shared(1 << 16);
    let engine = ServeEngine::start(ServeConfig {
        normalizer: fused(),
        prefill_chunk_rows: 2,
        kv_pool: KvPoolPolicy {
            page_rows: 4,
            capacity_rows: N * max * blocks,
        },
        faults: Some(Arc::clone(&faults) as Arc<dyn haan_serve::FaultInjector>),
        obs: Some(Arc::clone(&obs) as Arc<dyn ObsSink>),
        ..Default::default()
    });
    // One whole page per block of shared prompt, paid once. The injector
    // hooks the interning prefill's allocations too: a Shed here is the
    // documented retry path, not an error.
    let prefix_tokens: [u32; 4] = [9, 2, 7, 4];
    let prefix = loop {
        match engine.intern_prefix(&model, &prefix_tokens) {
            Ok(prefix) => break prefix,
            Err(ServeError::Shed { .. }) => continue,
            Err(err) => panic!("interning only sheds under injected exhaustion, got {err:?}"),
        }
    };
    let exhaustions_before_drill = faults.injected().exhaustions;
    let prefix_pages = prefix.page_count();
    assert_eq!(prefix_pages, blocks);
    let base_prompt: [u32; 3] = [1, 2, 3];
    let mut group = engine
        .decode_group(&model, &[&base_prompt])
        .expect("base stream");
    let suffixes: Vec<Vec<u32>> = (0..8u32)
        .map(|i| vec![i % 8, (i * 3 + 1) % 8, (i + 5) % 8, (i * 7 + 2) % 8])
        .collect();
    let sharers: Vec<usize> = suffixes
        .iter()
        .map(|suffix| {
            group
                .add_stream_with_prefix(&prefix, suffix)
                .expect("offering under overload is not an error")
        })
        .collect();
    let pool = engine.kv_pool(config.embedding_dim);

    // Tick once so sharers activate and start draining their chunked
    // backlogs, then preempt one that is still mid-prefill (active, nothing
    // emitted yet): its partial prefill parks and must resume bit-identically.
    group.step_all().expect("activation tick");
    let victim = *sharers
        .iter()
        .find(|&&i| group.status(i) == StreamStatus::Active && group.generated(i).is_empty())
        .expect("a sharer is still mid-prefill after one 2-row chunk tick");
    assert!(group.preempt(victim), "an active sharer must park");
    assert_eq!(group.status(victim), StreamStatus::Queued);
    assert!(
        pool.pages_in_use() >= prefix_pages,
        "the shared pages must survive a sharer's preemption"
    );

    // Drive the drill to convergence, retrying ticks the injector fails.
    let mut ticks = 1u32;
    loop {
        ticks += 1;
        assert!(ticks < 2_000, "the drill must converge");
        match group.step_all() {
            Ok(_) => {}
            Err(LlmError::KvPoolExhausted { .. }) => continue,
            Err(err) => panic!("only pool exhaustion is expected, got {err:?}"),
        }
        let all_settled = (0..group.len())
            .all(|i| matches!(group.status(i), StreamStatus::Finished | StreamStatus::Shed));
        if all_settled {
            break;
        }
    }
    let stats = group.stats();
    assert!(
        stats.preemptions >= 1 && stats.resumes >= 1,
        "the forced park must have resumed: {stats:?}"
    );
    assert!(
        faults.injected().exhaustions > exhaustions_before_drill,
        "the injector must have fired mid-drill (i.e. mid-chunk): {:?}",
        faults.injected()
    );
    assert!(
        stats.mean_tick_occupancy_rows() > 1.0,
        "chunk rows must have ridden the batched passes: {stats:?}"
    );

    // Parity: every stream that decoded matches its solo oracle — the forced
    // mid-prefill preemption, the injected exhaustions, and the page sharing
    // are all invisible in the tokens.
    for (slot, &index) in sharers.iter().enumerate() {
        match group.status(index) {
            StreamStatus::Finished => {
                let mut prompt = prefix_tokens.to_vec();
                prompt.extend_from_slice(&suffixes[slot]);
                let expected = solo_oracle_to_capacity(&model, &prompt);
                assert_eq!(
                    &group.tokens(index)[prompt.len()..],
                    expected.as_slice(),
                    "sharer {slot} (stream {index}) diverged from its solo oracle"
                );
            }
            StreamStatus::Shed => {
                assert!(
                    group.generated(index).is_empty(),
                    "shed sharer {slot} must never decode"
                );
            }
            other => panic!("sharer {slot} ended the drill as {other:?}"),
        }
    }
    assert_eq!(
        &group.tokens(0)[base_prompt.len()..],
        solo_oracle_to_capacity(&model, &base_prompt).as_slice(),
        "the base stream must match its solo oracle"
    );

    // The observability acceptance bar: the forced victim's full lifecycle —
    // offer → admit/queue → chunked prefill → preempt → resume → finish — is
    // reconstructable from the flight recorder alone (event *kinds* only;
    // timestamps are wall-clock and excluded from determinism claims).
    assert_eq!(obs.recorder().dropped(), 0, "the ring must hold the drill");
    let corr = group.correlation_id(victim);
    let lifecycle: Vec<&'static str> = obs
        .recorder()
        .stream_events(corr)
        .iter()
        .map(|e| e.kind.label())
        .collect();
    let pos = |label: &str| {
        lifecycle
            .iter()
            .position(|&l| l == label)
            .unwrap_or_else(|| panic!("{label} missing from lifecycle {lifecycle:?}"))
    };
    assert_eq!(lifecycle[0], "offer", "lifecycle {lifecycle:?}");
    assert!(
        lifecycle[1] == "admit" || lifecycle[1] == "queue",
        "every offer resolves immediately: {lifecycle:?}"
    );
    if let Some(attach) = lifecycle.iter().position(|&l| l == "prefix_attach") {
        assert!(
            attach < pos("chunk_drain"),
            "shared pages attach before any chunk drains: {lifecycle:?}"
        );
    }
    let preempt = pos("preempt");
    assert!(
        pos("chunk_drain") < preempt,
        "the victim was parked mid-prefill, after draining a chunk: {lifecycle:?}"
    );
    let resume = pos("resume");
    assert!(preempt < resume, "the park must resume: {lifecycle:?}");
    assert!(
        lifecycle[resume..].contains(&"chunk_drain"),
        "the resumed stream re-prefills in chunks: {lifecycle:?}"
    );
    assert_eq!(
        lifecycle.last().copied(),
        Some("finish"),
        "lifecycle {lifecycle:?}"
    );
    // Engine-wide events landed too: the injected mid-drill exhaustions are
    // in the same recorder, uncorrelated.
    let engine_labels: Vec<&'static str> = obs
        .recorder()
        .events()
        .iter()
        .filter(|e| e.stream.is_none())
        .map(|e| e.kind.label())
        .collect();
    assert!(
        engine_labels.contains(&"pool_exhausted"),
        "{engine_labels:?}"
    );

    // Teardown: streams release their pages; the interned prefix keeps its
    // footprint until the engine drops.
    drop(group);
    drop(prefix);
    assert_eq!(pool.pages_in_use(), prefix_pages);
    drop(engine);
    assert_eq!(pool.pages_in_use(), 0, "every shared page must drain");
}

#[test]
fn shed_streams_get_a_typed_retry_hint_not_a_panic() {
    // A deliberately hot pool: work it cannot take is refused typed, carrying
    // the policy's retry-after hint, never as a panic.
    let model = model();
    let engine = ServeEngine::start(ServeConfig {
        normalizer: fused(),
        kv_pool: KvPoolPolicy {
            page_rows: 4,
            capacity_rows: 16,
        },
        admission: AdmissionPolicy {
            max_queued: 0,
            retry_after_us: 1_234,
            ..Default::default()
        },
        ..Default::default()
    });
    // Two pages per block for 4 blocks: a 4-page pool cannot materialize it.
    let err = engine
        .intern_prefix(&model, &[1, 2, 3, 4, 5, 6, 7, 8])
        .expect_err("a 4-page pool cannot hold an 8-page prefix");
    match err {
        ServeError::Shed { retry_after_us } => assert_eq!(retry_after_us, 1_234),
        other => panic!("expected Shed, got {other:?}"),
    }
    // A stream with no room to queue is shed at admission; its slot never
    // decodes.
    let mut group = engine
        .decode_group(&model, &[&[1, 2, 3, 4]])
        .expect("overload is not a constructor error");
    assert_eq!(group.status(0), StreamStatus::Shed);
    assert_eq!(
        group.step_all().expect("a shed slot is skipped"),
        vec![None]
    );
    assert_eq!(engine.admission_stats().shed, 1);
}
