//! Chaos demo: deterministic fault injection against an oversubscribed serving
//! engine — the `chaos_smoke` CI drill.
//!
//! A K/V pool sized for 2 full-length streams is offered 8 prompts. The
//! admission controller admits what fits under the watermark, queues a bounded
//! tail, and sheds the rest with a typed retry-after hint. A seeded
//! `SeededFaults` injector adds pool exhaustions in the middle of decode
//! ticks. Under all of it the `DecodeGroup` preempts victims (freeing their
//! pages, keeping their token history), transparently resumes them, and every
//! admitted stream's tokens come out **bit-identical** to the same prompt
//! decoding alone — the property `tests/serving_chaos.rs` asserts; this
//! example exercises the same drill as a runnable smoke check and prints the
//! overload ledger.
//!
//! Run with: `cargo run --release --example chaos`

use haan::{BackendSelection, HaanConfig};
use haan_llm::norm::ReferenceNormalizer;
use haan_llm::{LlmError, ModelConfig, StreamingModel, TransformerModel};
use haan_serve::{
    AdmissionPolicy, FaultInjector, FaultPlan, KvPoolPolicy, SeededFaults, ServeConfig,
    ServeEngine, StreamStatus,
};
use std::sync::Arc;

const SEED: u64 = 0xC0FFEE;
const POOL_STREAMS: usize = 2;
const OVERLOAD: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = TransformerModel::new(&ModelConfig::tiny_test(), 42)?;
    let config = model.config();
    let max = config.max_seq_len;
    let faults = Arc::new(SeededFaults::new(
        SEED,
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
            capacity_rows: POOL_STREAMS * max * config.num_blocks,
        },
        admission: AdmissionPolicy {
            queue_above: 0.75,
            max_queued: 3,
            retry_after_us: 500,
            reserve_rows: max,
        },
        faults: Some(Arc::clone(&faults) as Arc<dyn FaultInjector>),
        ..Default::default()
    });
    println!(
        "chaos drill: pool sized for {POOL_STREAMS} full streams, {} offered, seed {SEED:#x}",
        POOL_STREAMS * OVERLOAD
    );

    let prompts: Vec<Vec<u32>> = (0..(POOL_STREAMS * OVERLOAD) as u32)
        .map(|i| vec![i % 8, (i + 3) % 8, (i * 5 + 1) % 8, (i + 1) % 8])
        .collect();
    let prompt_refs: Vec<&[u32]> = prompts.iter().map(Vec::as_slice).collect();
    let mut group = engine.decode_group(&model, &prompt_refs)?;

    // Drive the drill to completion; ticks that fail with the typed pool error
    // (injected or real) are retry-safe and simply run again.
    let mut typed_retries = 0u32;
    loop {
        match group.step_all() {
            Ok(_) => {}
            Err(LlmError::KvPoolExhausted { .. }) => {
                typed_retries += 1;
                continue;
            }
            Err(err) => return Err(err.into()),
        }
        let settled = (0..group.len())
            .all(|i| matches!(group.status(i), StreamStatus::Finished | StreamStatus::Shed));
        if settled {
            break;
        }
    }

    let stats = group.stats();
    println!(
        "admission: {} offered → {} admitted, {} queued, {} shed ({:.0}% shed)",
        stats.offered,
        stats.admitted,
        stats.queued,
        stats.shed,
        100.0 * stats.shed as f64 / stats.offered as f64
    );
    println!(
        "pressure: {} preemptions, {} resumes ({} rows re-prefilled), {} injected exhaustions, {typed_retries} typed tick retries",
        stats.preemptions,
        stats.resumes,
        stats.resume_reprefill_rows,
        faults.injected().exhaustions
    );
    println!(
        "drill: {} ticks, every admitted stream ran to the model maximum",
        stats.ticks
    );

    // The whole point: despite shedding, queueing, preemption, and injected
    // exhaustion, each admitted stream is bit-identical to decoding alone.
    let mut checked = 0;
    for (i, prompt) in prompts.iter().enumerate() {
        if group.status(i) != StreamStatus::Finished {
            continue;
        }
        let mut oracle = StreamingModel::new_full_recompute(&model, prompt)?;
        let expected = oracle.decode(max - prompt.len(), &mut ReferenceNormalizer::new())?;
        let got = &group.generated(i)[..expected.len()];
        assert_eq!(got, expected.as_slice(), "stream {i} diverged from solo");
        checked += 1;
    }
    assert!(stats.shed > 0, "the drill must shed under 4x overload");
    assert!(
        stats.preemptions > 0,
        "the drill must preempt under pressure"
    );
    assert!(
        faults.injected().exhaustions > 0,
        "the injector must have fired"
    );
    println!("parity: {checked} admitted streams bit-identical to solo decode ✔");
    Ok(())
}
