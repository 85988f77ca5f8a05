//! Accelerator simulation: inspect the HAAN accelerator's resource / power / latency
//! estimates, compare against the DFX, SOLE, MHAA and GPU baselines on the GPT2-1.5B
//! workload, and run an anchor and a skipped normalization layer through the
//! cycle-level simulator.
//!
//! The simulator is an execution *backend* of the batched normalization engine:
//! attaching an `AccelSimBackend` to a `HaanNormalizer` with `with_external_backend`
//! routes every `normalize_matrix_into` call through the fixed-point datapath and the
//! pipeline cycle model, under the normalizer's skip plan, subsampling and
//! quantization (see `ARCHITECTURE.md` for the dispatch diagram).
//!
//! Run with: `cargo run --release --example accelerator_sim`

use haan::{HaanConfig, HaanNormalizer, SkipPlan};
use haan_accel::pipeline::pipeline_latency;
use haan_accel::{AccelConfig, AccelSimBackend, HaanAccelerator};
use haan_baselines::{
    compare_engines, DfxEngine, GpuNormEngine, MhaaEngine, NormEngine, NormWorkload, SoleEngine,
};
use haan_llm::norm::{NormSite, Normalizer};
use haan_llm::NormKind;
use haan_numerics::Format;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // HAAN-v1 with the paper's GPT-2 settings: half-length subsampling and a skip range
    // covering ten deep layers.
    let algorithm = HaanConfig::builder()
        .label("HAAN (GPT-2)")
        .subsample(800)
        .format(Format::Fp16)
        .build();
    let plan = SkipPlan {
        start: 85,
        end: 95,
        decay: -0.035,
        correlation: -0.999,
        calibration_anchor_log_isd: -1.5,
    };
    let accel = HaanAccelerator::new(AccelConfig::haan_v1(), algorithm.clone()).with_plan(plan);
    accel.check_fits_u280()?;

    let resources = accel.resources();
    println!(
        "HAAN-v1 on the Alveo U280: {} LUT, {} FF, {} DSP",
        resources.lut, resources.ff, resources.dsp
    );

    // Whole-model normalization workload at sequence length 512.
    let report = accel.workload(1600, 97, 512, NormKind::LayerNorm);
    println!(
        "GPT2-1.5B, seq 512: {:.1} us, {:.2} W, {:.1} uJ ({} of {} layers skipped, stage balance {:.2})",
        report.latency_us,
        report.average_power_w,
        report.energy_uj,
        report.skipped_layers,
        report.layers,
        report.stage_balance
    );

    // Compare against the baselines.
    let sole = SoleEngine::default();
    let dfx = DfxEngine::default();
    let mhaa = MhaaEngine::default();
    let gpu = GpuNormEngine::a100();
    let others: [&dyn NormEngine; 4] = [&sole, &mhaa, &dfx, &gpu];
    println!("\nnormalized latency / power vs HAAN-v1 (GPT2-1.5B, seq 512):");
    for row in compare_engines(&accel, &others, &NormWorkload::gpt2_1_5b(512)) {
        println!(
            "  {:10} latency {:6.2}x   power {:5.2}x",
            row.engine, row.normalized_latency, row.normalized_power
        );
    }

    // The simulator as an execution backend: attach it to a normalizer with the same
    // algorithm and plan, then run the anchor layer 85 and the skipped layer 86 over a
    // small batch of token vectors. Keeping the `Arc` lets us read its cycle counter.
    let backend = Arc::new(AccelSimBackend::new(AccelConfig::haan_v1()).expect("valid config"));
    let mut normalizer = HaanNormalizer::new(algorithm)
        .with_plan(plan)
        .with_external_backend(backend.clone());
    let rows = 8;
    let data = (0..rows)
        .flat_map(|t| (0..1600).map(move |i| ((i * 7 + t * 13) % 29) as f32 / 7.0 - 2.0))
        .collect();
    let batch = haan_llm::Matrix::from_vec(rows, 1600, data)?;
    let gamma = vec![1.0f32; 1600];
    let beta = vec![0.0f32; 1600];
    println!(
        "\n{} over {rows} tokens (model: pipelined layer_stage_timing):",
        normalizer.description()
    );
    for layer_index in [85, 86] {
        let skipped = normalizer.is_skipped_site(layer_index);
        let before = backend.total_cycles();
        let site = NormSite {
            layer_index,
            kind: NormKind::LayerNorm,
        };
        normalizer.normalize_matrix(site, &batch, &gamma, &beta);
        let model = pipeline_latency(
            accel.layer_stage_timing(1600, skipped, NormKind::LayerNorm),
            rows as u64,
            accel.config().pipelines as u64,
        );
        println!(
            "  layer {layer_index} ({}): {} cycles simulated, {} cycles model",
            if skipped { "skipped" } else { "anchor" },
            backend.total_cycles() - before,
            model.total_cycles
        );
    }
    println!(
        "  {} of {} rows took a predicted ISD, {:.0}% of elements read",
        normalizer.telemetry().skipped_isd,
        normalizer.telemetry().calls,
        normalizer.telemetry().read_fraction() * 100.0
    );
    Ok(())
}
