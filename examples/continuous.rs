//! Continuous batching demo: chunked prefill, mid-flight join/leave, and
//! shared-prefix attach on one `DecodeGroup`.
//!
//! A `DecodeGroup` is *continuously fed*: prompts join a live group
//! (`add_stream`) and activate on the next tick, long prompts prefill in
//! bounded chunks that ride the same fused normalization requests as the
//! decode rows (`ServeConfig::prefill_chunk_rows`), cancelled or finished
//! slots free capacity that queued prompts backfill, streams sharing a
//! common system prompt attach to one interned, refcounted copy of its K/V
//! pages (`ServeEngine::intern_prefix` + `add_stream_with_prefix`), and a
//! caller that hands each finished slot back (`DecodeGroup::retire`) serves
//! any number of sessions in a bounded set of slots. The demo
//! shows each mechanism and checks the outputs bit-for-bit against solo
//! full-recompute decode — continuous batching changes the schedule and the
//! memory, never the tokens.
//!
//! Run with: `cargo run --release --example continuous`

use haan::{BackendSelection, HaanConfig, HaanNormalizer, SkipPlan};
use haan_llm::{ModelConfig, StreamingModel, TransformerModel};
use haan_serve::{KvPoolPolicy, ServeConfig, ServeEngine, StreamStatus};

const CHUNK_ROWS: usize = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = HaanConfig {
        label: "continuous batching demo".to_string(),
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
        prefill_chunk_rows: CHUNK_ROWS,
        kv_pool: KvPoolPolicy {
            page_rows: 4,
            capacity_rows: 8 * model.config().num_blocks * model.config().max_seq_len,
        },
        ..Default::default()
    });
    let oracle = |prompt: &[u32], steps: usize| -> Result<Vec<u32>, Box<dyn std::error::Error>> {
        let mut norm = HaanNormalizer::new(config.clone()).with_plan(plan);
        let mut stream = StreamingModel::new_full_recompute(&model, prompt)?;
        Ok(stream.decode(steps, &mut norm)?)
    };

    // 1. Chunked prefill: a 10-token prompt drains in 3-row chunks stacked
    //    into the same batched passes as the other streams' decode rows, and
    //    emits its first token on the tick that drains the backlog.
    let prompts: [&[u32]; 2] = [&[1, 9, 17], &[4, 8, 15, 16, 23, 42, 2, 7, 11, 5]];
    let mut group = engine.decode_group(&model, &prompts)?;
    let mut first_token_tick = [0usize; 2];
    for tick in 1..=6 {
        let results = group.step_all()?;
        for (i, result) in results.iter().enumerate() {
            if result.is_some() && first_token_tick[i] == 0 {
                first_token_tick[i] = tick;
            }
        }
    }
    for (i, prompt) in prompts.iter().enumerate() {
        assert_eq!(first_token_tick[i], prompt.len().div_ceil(CHUNK_ROWS));
        assert_eq!(
            group.generated(i),
            oracle(prompt, group.generated(i).len())?.as_slice()
        );
        println!(
            "stream {i}: {:>2}-token prompt → first token on tick {} ({CHUNK_ROWS} rows/chunk), {:?}",
            prompt.len(),
            first_token_tick[i],
            group.generated(i),
        );
    }

    // 2. Mid-flight join and leave: a prompt joins the live group and matches
    //    its solo oracle; a cancelled slot frees its pages on the spot.
    let joiner_prompt: [u32; 7] = [3, 1, 4, 1, 5, 9, 2];
    let joiner = group.add_stream(&joiner_prompt)?;
    assert_eq!(group.status(joiner), StreamStatus::Queued);
    for _ in 0..5 {
        group.step_all()?;
    }
    assert_eq!(group.status(joiner), StreamStatus::Active);
    assert_eq!(
        group.generated(joiner),
        oracle(&joiner_prompt, group.generated(joiner).len())?.as_slice()
    );
    println!(
        "joined mid-flight: stream {joiner} activated next tick and decoded {:?}",
        group.generated(joiner)
    );
    assert!(group.cancel(0));
    let stats = group.stats();
    println!(
        "join/leave counters: joins {} · leaves {} · mean tick occupancy {:.1} rows",
        stats.joins,
        stats.leaves,
        stats.mean_tick_occupancy_rows()
    );
    drop(group);

    // 3. Prefix sharing: four streams attach to one interned 8-token prefix
    //    (two whole pages per block, paid once) and fork only their tails.
    let pool = engine.kv_pool(model.config().embedding_dim);
    let prefix_tokens: [u32; 8] = [9, 2, 7, 4, 1, 8, 3, 6];
    let prefix = engine.intern_prefix(&model, &prefix_tokens)?;
    let before = pool.pages_in_use();
    let mut group = engine.decode_group(&model, &[&[5, 5]])?;
    let suffixes: [[u32; 2]; 4] = [[0, 1], [2, 3], [4, 5], [6, 7]];
    let sharers: Vec<usize> = suffixes
        .iter()
        .map(|suffix| group.add_stream_with_prefix(&prefix, suffix))
        .collect::<Result<_, _>>()?;
    for _ in 0..4 {
        group.step_all()?;
    }
    for (&index, suffix) in sharers.iter().zip(&suffixes) {
        let mut full = prefix_tokens.to_vec();
        full.extend_from_slice(suffix);
        assert_eq!(
            group.generated(index),
            oracle(&full, group.generated(index).len())?.as_slice()
        );
    }
    println!(
        "prefix sharing: {} pages hold the shared prefix once; {} sharers (plus the base stream) added only {} pages",
        prefix.page_count(),
        sharers.len(),
        pool.pages_in_use() - before,
    );
    drop(group);
    assert_eq!(pool.pages_in_use(), before, "streams returned their pages");

    // 4. Slot recycling: each session is cancelled after two tokens, which
    //    drops its context at once, then retired, which hands its tokens
    //    back and frees the slot for the next `add_stream`.
    const SESSIONS: usize = 200;
    const IN_FLIGHT: usize = 4;
    let mut group = engine.empty_decode_group(&model)?;
    let mut in_flight: Vec<(usize, Vec<u32>)> = Vec::new();
    let (mut offered, mut served) = (0usize, 0usize);
    while served < SESSIONS {
        while in_flight.len() < IN_FLIGHT && offered < SESSIONS {
            let prompt: Vec<u32> = (0..3)
                .map(|i| ((offered * 5 + i * 11) % 60 + 1) as u32)
                .collect();
            offered += 1;
            in_flight.push((group.add_stream(&prompt)?, prompt));
        }
        group.step_all()?;
        let mut i = 0;
        while i < in_flight.len() {
            let slot = in_flight[i].0;
            let done = matches!(group.status(slot), StreamStatus::Shed)
                || group.generated(slot).len() >= 2;
            if !done {
                i += 1;
                continue;
            }
            let (slot, prompt) = in_flight.swap_remove(i);
            group.cancel(slot);
            let tokens = group.retire(slot)?;
            if served.is_multiple_of(50) {
                let generated = &tokens[prompt.len()..];
                assert_eq!(generated, oracle(&prompt, generated.len())?.as_slice());
            }
            served += 1;
        }
    }
    assert!(
        group.len() <= IN_FLIGHT,
        "{} slots for {IN_FLIGHT} sessions in flight",
        group.len()
    );
    assert_eq!(pool.pages_in_use(), before, "retired streams hold no pages");
    println!(
        "slot recycling: {served} sessions served in {} slots (at most {IN_FLIGHT} in flight)",
        group.len()
    );

    println!("continuous batching demo complete: all outputs bit-identical to solo decode");
    Ok(())
}
