//! Observability demo: the `obs_smoke` CI drill.
//!
//! Runs the same oversubscribed, fault-injected decode drill as
//! `examples/chaos.rs` — 8 prompts against a pool sized for 2, chunked
//! prefill, seeded mid-tick exhaustions — but with an [`haan_obs::Obs`] sink
//! installed on the engine. Afterwards it dumps the metric registry (JSON and
//! Prometheus renderings of the same [`haan_obs::ObsSnapshot`]) and replays
//! one preempted stream's full lifecycle from the flight recorder alone, then
//! asserts the key signals are present: tick shape and phase timings were
//! metered, the fused residual+norm path and pool exhaustion were counted, and
//! the lifecycle events
//! (offer → admit/queue → chunk-drain → preempt → resume → finish) were all
//! recorded with the right correlation ID.
//!
//! Run with: `cargo run --release --example observability`

use haan::{BackendSelection, HaanConfig};
use haan_llm::{LlmError, ModelConfig, TransformerModel};
use haan_obs::{Obs, ObsSink, ObsSnapshot};
use haan_serve::{
    AdmissionPolicy, FaultInjector, FaultPlan, KvPoolPolicy, SeededFaults, ServeConfig,
    ServeEngine, StreamStatus,
};
use std::sync::Arc;

const SEED: u64 = 0x0B5E55;
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
    let obs = Obs::shared(1 << 16);
    let engine = ServeEngine::start(ServeConfig {
        // A skip range (sites 3..=5 predicted from the site-2 anchor) so the
        // per-site skip counters and skip-rate gauges have something to show.
        normalizer: HaanConfig {
            backend: BackendSelection::Fused,
            skip_range: Some((2, 5)),
            ..HaanConfig::unoptimized()
        },
        prefill_chunk_rows: 2,
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
        obs: Some(Arc::clone(&obs) as Arc<dyn ObsSink>),
        ..Default::default()
    });
    println!(
        "observability drill: pool sized for {POOL_STREAMS} full streams, {} offered, seed {SEED:#x}",
        POOL_STREAMS * OVERLOAD
    );

    let prompts: Vec<Vec<u32>> = (0..(POOL_STREAMS * OVERLOAD) as u32)
        .map(|i| vec![i % 8, (i + 3) % 8, (i * 5 + 1) % 8, (i + 1) % 8])
        .collect();
    let prompt_refs: Vec<&[u32]> = prompts.iter().map(Vec::as_slice).collect();
    let mut group = engine.decode_group(&model, &prompt_refs)?;
    loop {
        match group.step_all() {
            Ok(_) => {}
            Err(LlmError::KvPoolExhausted { .. }) => continue,
            Err(err) => return Err(err.into()),
        }
        let settled = (0..group.len())
            .all(|i| matches!(group.status(i), StreamStatus::Finished | StreamStatus::Shed));
        if settled {
            break;
        }
    }
    let stats = group.stats();
    assert!(stats.shed > 0, "the drill must shed under 4x overload");
    assert!(stats.preemptions > 0, "the drill must preempt");
    assert!(faults.injected().exhaustions > 0, "the injector must fire");

    // ---- The registry: one export, two renderings, lossless round-trip. ----
    let snapshot = obs.export();
    println!("\n== registry export (JSON) ==\n{}", snapshot.to_json());
    println!("\n== registry export (Prometheus) ==");
    for line in snapshot.to_prometheus().lines() {
        if !line.starts_with('#') && !line.contains("_bucket") {
            println!("{line}");
        }
    }
    let round_trip = ObsSnapshot::from_json(&snapshot.to_json()).expect("export parses back");
    assert_eq!(round_trip, snapshot, "JSON round-trip must be lossless");

    // Key metrics from every instrumented layer landed in the one registry.
    assert!(snapshot.counter("admission.offered").unwrap_or(0) > 0);
    assert!(snapshot.counter("pool.exhaustions").unwrap_or(0) > 0);
    assert!(snapshot.gauge("pool.pages_in_use").is_some());
    let ticks = snapshot.histogram("group.tick_rows").expect("tick shape");
    assert!(
        ticks.count > 0 && ticks.max > 1,
        "lockstep ticks batch rows"
    );
    let advance = snapshot
        .histogram("group.phase.advance_ns")
        .expect("phase timings metered");
    assert!(
        advance.count > 0,
        "group.phase.advance_ns must have samples"
    );
    assert!(
        snapshot
            .counters
            .iter()
            .any(|(name, rows)| name.starts_with("haan.path.fused_residual.site_") && *rows > 0),
        "the group's normalizer must take the fused residual+norm path"
    );
    assert!(
        snapshot
            .counters
            .iter()
            .any(|(name, rows)| name.starts_with("haan.skip.site_") && *rows > 0),
        "skipped sites must be counted per site"
    );
    assert!(
        snapshot
            .gauges
            .iter()
            .any(|(name, rate)| name.starts_with("haan.skip_rate.site_") && *rate > 0.99),
        "sites inside the skip range are always predicted"
    );

    // ---- The flight recorder: replay one preempted stream's lifecycle. ----
    let victim = (0..group.len())
        .map(|i| group.correlation_id(i))
        .find(|&corr| {
            let events = obs.recorder().stream_events(corr);
            events.iter().any(|e| e.kind.label() == "preempt")
                && events.last().is_some_and(|e| e.kind.label() == "finish")
        })
        .expect("some admitted stream was preempted and finished");
    println!("\n== lifecycle of preempted stream {victim} ==");
    print!("{}", obs.recorder().dump_stream(victim));
    let labels: Vec<&'static str> = obs
        .recorder()
        .stream_events(victim)
        .iter()
        .map(|e| e.kind.label())
        .collect();
    for key in ["offer", "preempt", "resume", "finish"] {
        assert!(labels.contains(&key), "{key} missing from {labels:?}");
    }
    assert!(
        obs.recorder()
            .events()
            .iter()
            .any(|e| e.kind.label() == "pool_exhausted"),
        "pool_exhausted missing from the engine-wide event stream"
    );
    println!(
        "\nrecorder: {} events held ({} appended, {} dropped) ✔",
        obs.recorder().len(),
        obs.recorder().appended(),
        obs.recorder().dropped()
    );

    Ok(())
}
