//! Batched multi-stream decode demo: a `DecodeGroup` advancing many KV-cached
//! streams in lockstep over one shared paged K/V pool.
//!
//! Six decode streams share one `ServeEngine`. Instead of stepping them one at a
//! time, the group advances every ready stream per tick through
//! `TransformerModel::advance_many`: **one batched normalizer call per site
//! carrying one row per stream**, while each stream's K/V rows stay in pages
//! borrowed from the engine's shared `KvBlockPool`. The demo checks every stream
//! bit-for-bit against the stateless full-recompute oracle on a private HAAN
//! normalizer, then shows a sliding-window stream decoding past the model's
//! maximum sequence length in bounded pool memory.
//!
//! Run with: `cargo run --release --example multi_stream`

use haan::{BackendSelection, HaanConfig, HaanNormalizer, SkipPlan};
use haan_llm::{EvictionPolicy, ModelConfig, StreamingModel, TransformerModel};
use haan_numerics::Format;
use haan_serve::{KvPoolPolicy, ServeConfig, ServeEngine};

const STREAMS: usize = 6;
const TICKS: usize = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = HaanConfig {
        label: "multi-stream demo".to_string(),
        n_sub: Some(16),
        format: Format::Fp16,
        backend: BackendSelection::Fused,
        ..Default::default()
    };
    let plan = SkipPlan {
        start: 2,
        end: 5,
        decay: -0.05,
        correlation: -1.0,
        calibration_anchor_log_isd: -0.25,
    };
    let model = TransformerModel::new(&ModelConfig::tiny_test(), 2024)?;
    let engine = ServeEngine::start(ServeConfig {
        normalizer: config.clone(),
        plan: Some(plan),
        kv_pool: KvPoolPolicy {
            page_rows: 8,
            capacity_rows: 2 * STREAMS * model.config().num_blocks * model.config().max_seq_len,
        },
        ..Default::default()
    });

    // 1. A decode group: six streams, one lockstep tick advances all of them.
    let prompts: Vec<Vec<u32>> = (0..STREAMS as u32)
        .map(|s| (0..3 + s % 3).map(|i| (s * 11 + i * 7) % 64).collect())
        .collect();
    let prompt_refs: Vec<&[u32]> = prompts.iter().map(Vec::as_slice).collect();
    let mut group = engine.decode_group(&model, &prompt_refs)?;
    let generated = group.decode(TICKS)?;
    assert_eq!(generated, STREAMS * TICKS, "every stream stays ready");
    for (i, prompt) in prompt_refs.iter().enumerate() {
        println!("stream {i}: {:?} → {:?}", prompt, group.generated(i));
    }

    // Parity: each stream must match a solo full-recompute decode on a private
    // HAAN normalizer, bit for bit — lockstep batching is a pure throughput
    // decision, never a numerics decision.
    for (i, prompt) in prompt_refs.iter().enumerate() {
        let mut private = HaanNormalizer::new(config.clone()).with_plan(plan);
        let mut oracle = StreamingModel::new_full_recompute(&model, prompt)?;
        let expected = oracle.decode(TICKS, &mut private)?;
        assert_eq!(
            group.generated(i),
            expected.as_slice(),
            "lockstep decode diverged from the solo oracle on stream {i}"
        );
    }
    println!("parity: lockstep multi-stream decode == solo full recompute, bit for bit");

    // The whole point: one batched call per site per tick, one row per stream.
    let stats = group.stats();
    println!(
        "group: {} rows over {} ticks — {:.1} rows per tick",
        stats.occupied_rows,
        stats.ticks,
        stats.mean_tick_occupancy_rows(),
    );
    assert!(
        stats.mean_tick_occupancy_rows() > 1.0,
        "lockstep ticks must put more than one row per site call"
    );

    // Pool residency: pages are shared, bounded, and returned on drop.
    let pool = engine.kv_pool(model.config().embedding_dim);
    println!(
        "pool: {}/{} pages in use ({} bytes materialized) across {} streams",
        pool.pages_in_use(),
        pool.pages_total(),
        pool.bytes_materialized(),
        STREAMS,
    );
    assert!(pool.pages_in_use() > 0);
    drop(group);
    assert_eq!(pool.pages_in_use(), 0, "dropped streams return their pages");
    println!("pool: all pages returned after the group was dropped");

    // 2. Sliding-window eviction: a stream that outlives max_seq_len keeps
    //    decoding in bounded memory (oldest positions dropped, window recomputed).
    let max = model.config().max_seq_len;
    let ctx = model
        .start_decode_in(&pool)?
        .with_eviction(EvictionPolicy::SlidingWindow { keep_last: max / 2 });
    let mut windowed = StreamingModel::from_context(ctx, &[3, 17, 31])?;
    let mut norm = HaanNormalizer::new(config).with_plan(plan);
    let steps = max + 8; // well past the model's maximum sequence length
    windowed.decode(steps, &mut norm)?;
    assert_eq!(windowed.tokens().len(), 3 + steps);
    println!(
        "windowed stream: {} tokens generated past max_seq_len={} ({} pages peak)",
        steps,
        max,
        pool.peak_pages_in_use(),
    );

    Ok(())
}
