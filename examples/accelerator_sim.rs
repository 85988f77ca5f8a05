//! Accelerator simulation: run the cycle-level HAAN accelerator on a normalization
//! layer, inspect its resource / power / latency estimates, and compare against the
//! DFX, SOLE, MHAA and GPU baselines on the GPT2-1.5B workload.
//!
//! The simulator is also an execution *backend* of the batched normalization
//! engine: attaching an `AccelSimBackend` to a `HaanNormalizer` with
//! `with_external_backend` routes every `normalize_matrix_into` call through the
//! fixed-point datapath and the pipeline cycle model instead of the configured
//! software backend — the final section below does exactly that (see
//! `ARCHITECTURE.md` for the dispatch diagram).
//!
//! Run with: `cargo run --release --example accelerator_sim`

use haan::{HaanConfig, HaanNormalizer, SkipPlan};
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
    let mut accel = HaanAccelerator::new(AccelConfig::haan_v1(), algorithm).with_plan(plan);
    accel.check_fits_u280()?;

    let resources = accel.resources();
    println!(
        "HAAN-v1 on the Alveo U280: {} LUT, {} FF, {} DSP",
        resources.lut, resources.ff, resources.dsp
    );

    // Functional run of one normalization layer over a small batch of token vectors.
    let tokens: Vec<Vec<f32>> = (0..8)
        .map(|t| {
            (0..1600)
                .map(|i| ((i * 7 + t * 13) % 29) as f32 / 7.0 - 2.0)
                .collect()
        })
        .collect();
    let gamma = vec![1.0f32; 1600];
    let beta = vec![0.0f32; 1600];
    let run = accel.normalize_layer(&tokens, &gamma, &beta, NormKind::LayerNorm, 0)?;
    println!(
        "one layer, {} tokens: {} cycles ({} cycles/vector steady state)",
        tokens.len(),
        run.report.total_cycles,
        run.report.initiation_interval
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

    // The simulator as an execution backend: attach it to a normalizer, then drive
    // it through the exact same `normalize_matrix_into` call path the software
    // backends use. Keeping the `Arc` lets us read its cycle counter afterwards.
    let backend = Arc::new(AccelSimBackend::new(AccelConfig::haan_v1()));
    let backend_config = HaanConfig::builder()
        .label("HAAN (accel-sim backend)")
        .subsample(800)
        .format(Format::Fp16)
        .build();
    let mut normalizer = HaanNormalizer::new(backend_config).with_external_backend(backend.clone());
    let batch = haan_llm::Matrix::from_vec(
        tokens.len(),
        1600,
        tokens.iter().flatten().copied().collect(),
    )?;
    let site = NormSite {
        layer_index: 0,
        kind: NormKind::LayerNorm,
    };
    let normalized = normalizer.normalize_matrix(site, &batch, &gamma, &beta);
    println!(
        "\naccel-sim backend via normalize_matrix_into: {} ({} rows normalized, {:.0}% of elements read, {} cycles)",
        normalizer.description(),
        normalized.rows(),
        normalizer.telemetry().read_fraction() * 100.0,
        backend.total_cycles()
    );
    Ok(())
}
