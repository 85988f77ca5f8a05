//! Quickstart: calibrate HAAN on a model, attach the resulting skip plan to the HAAN
//! normalizer, and compare its outputs and telemetry against exact normalization.
//!
//! The normalizer runs one execution backend. The configuration names a software
//! one (`HaanConfig::builder().backend(BackendSelection::…)`): `Fused`, the
//! default, or `Scalar`, the two-pass oracle. A backend attached with
//! `HaanNormalizer::with_external_backend` runs instead; the cycle-level
//! accelerator simulator plugs in that way (see `examples/accelerator_sim.rs` and
//! `ARCHITECTURE.md` for the dispatch diagram).
//!
//! Run with: `cargo run --release --example quickstart`

use haan::{BackendSelection, Calibrator, HaanConfig, HaanNormalizer};
use haan_llm::norm::ReferenceNormalizer;
use haan_llm::{ModelConfig, TransformerModel};
use haan_numerics::Format;
use haan_repro::diagnostics::next_token_delta;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a laptop-scale GPT-2-style model (paper layer structure, shrunk width).
    let config = ModelConfig::gpt2_117m().scaled_down(64, 128);
    let model = TransformerModel::new(&config, 2024)?;
    println!(
        "model: {} with {} normalization layers",
        config.name,
        model.num_norm_layers()
    );

    // 2. Calibrate: run a synthetic calibration set, record per-layer log(ISD), and let
    //    Algorithm 1 pick the skip range and decay coefficient.
    let outcome = Calibrator::new(16, 24)
        .with_min_gap(6)
        .calibrate_model(&model, 7)?;
    println!(
        "Algorithm 1 selected skip range ({}, {}) with decay {:.4} (correlation {:.3})",
        outcome.plan.start, outcome.plan.end, outcome.plan.decay, outcome.plan.correlation
    );

    // 3. Build the HAAN normalizer: subsampled statistics, FP16 operands, fast inverse
    //    square root, plus the calibrated skip plan. Every batched site runs on the
    //    fused kernel (the default backend, spelled out here); `Scalar` would run
    //    the two-pass oracle instead.
    let haan_config = HaanConfig::builder()
        .label("HAAN quickstart")
        .subsample(32)
        .format(Format::Fp16)
        .backend(BackendSelection::Fused)
        .build();
    let mut haan = HaanNormalizer::new(haan_config).with_plan(outcome.plan);
    let mut reference = ReferenceNormalizer::new();

    // 4. Run the same tokens through both normalizers and compare the next-token
    //    logits. HAAN is an approximation and this untrained, laptop-scale model has
    //    near-tied top logits, so an occasional argmax flip is expected quantization
    //    noise — report the accuracy delta instead of a binary match/mismatch.
    let tokens = [3u32, 17, 31, 45, 59, 73];
    let exact = model.logits(&tokens, &mut reference)?;
    let approx = model.logits(&tokens, &mut haan)?;
    let last = tokens.len() - 1;
    // The same metric `tests/end_to_end.rs::quickstart_accuracy_delta_stays_pinned`
    // asserts on, so the printed numbers and the pinned thresholds cannot drift.
    let delta = next_token_delta(exact.row(last), approx.row(last));
    println!(
        "next-token logits: exact argmax = {}, HAAN argmax = {} \
         (exact choice ranked #{} of {} by HAAN)",
        delta.exact_choice,
        delta.approx_choice,
        delta.rank_of_exact_choice,
        exact.row(last).len()
    );
    println!(
        "accuracy delta: mean |Δlogit| = {:.4} ({:.1}% of the exact logit spread {:.3})",
        delta.mean_abs_delta,
        100.0 * delta.mean_abs_delta / delta.exact_spread,
        delta.exact_spread
    );

    // 5. Inspect what HAAN actually did.
    let telemetry = haan.telemetry();
    println!(
        "telemetry: {} normalization calls, {:.0}% ISDs predicted, {:.0}% of input elements read",
        telemetry.calls,
        telemetry.skip_fraction() * 100.0,
        telemetry.read_fraction() * 100.0
    );
    Ok(())
}
