//! Fusion site: the fused residual+norm request shape vs its composed
//! decomposition (separate add → norm).
//!
//! The same `normalize_residual_into` entry point runs twice — once on a bare
//! `HaanNormalizer` (the fused kernel) and once on the same normalizer wrapped
//! in `haan_llm::norm::Composed`, which runs the composed operation order — and
//! the outputs must be bit-identical: the fused kernel preserves the composed
//! reduction order exactly (see `tests/fusion_parity.rs`). A
//! scalar-backend oracle bounds both within the documented tolerance. What
//! the fusion buys in time is measured by `bench_report`'s `fusion` block.
//!
//! Run with: `cargo run --release --example fusion`

use haan::{BackendSelection, HaanConfig, HaanNormalizer};
use haan_llm::norm::{Composed, NormSite, Normalizer};
use haan_llm::{Matrix, NormKind};

/// Rows of the demonstration batch: a prefill-sized chunk.
const ROWS: usize = 1024;
/// Paper-width rows (GPT-2-XL hidden size); the acceptance width of the
/// `fusion` block in `bench_report`.
const COLS: usize = 4096;

fn patterned_matrix(rows: usize, cols: usize, salt: u64, scale: f32) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let x = (i as u64).wrapping_mul(2654435761).wrapping_add(salt);
            (x % 1000) as f32 / 500.0 * scale - scale
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("consistent shape")
}

/// Exact-statistics (Fp32, full-row) configuration: the fused residual+norm
/// single pass engages only when quantization is the identity, so the exact
/// config is where the fusion site shows its full effect.
fn normalizer(backend: BackendSelection) -> HaanNormalizer {
    HaanNormalizer::new(HaanConfig {
        backend,
        ..HaanConfig::unoptimized()
    })
}

fn max_abs_delta(a: &Matrix, b: &Matrix) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let input = patterned_matrix(ROWS, COLS, 7, 2.0);
    let residual = patterned_matrix(ROWS, COLS, 1913, 1.5);
    let gamma: Vec<f32> = (0..COLS).map(|i| 1.0 + (i % 5) as f32 * 0.1).collect();
    let beta: Vec<f32> = (0..COLS).map(|i| (i % 3) as f32 * 0.2 - 0.2).collect();
    let site = NormSite {
        layer_index: 0,
        kind: NormKind::LayerNorm,
    };

    // The fused path must be bit-identical to the composed decomposition on
    // the same backend, and oracle-close on the scalar one.
    let mut fused = normalizer(BackendSelection::Fused);
    let mut composed = Composed(normalizer(BackendSelection::Fused));
    let mut oracle = Composed(normalizer(BackendSelection::Scalar));

    let mut runs = Vec::new();
    let parity_runs: [&mut dyn Normalizer; 3] = [&mut fused, &mut composed, &mut oracle];
    for norm in parity_runs {
        let mut summed = Matrix::zeros(ROWS, COLS);
        let mut normed = Matrix::zeros(ROWS, COLS);
        norm.normalize_residual_into(
            site,
            &input,
            &residual,
            &gamma,
            &beta,
            &mut summed,
            &mut normed,
        );
        runs.push((summed, normed));
    }
    let (oracle_run, rest) = runs.split_last().expect("three runs");
    let (composed_run, rest) = rest.split_last().expect("two fused-backend runs");
    let fused_run = &rest[0];
    assert_eq!(
        fused_run, composed_run,
        "the fused site must be bit-identical to the composed path on the same backend"
    );
    assert_eq!(
        fused_run.0, oracle_run.0,
        "residual sums are exact on every backend"
    );
    let norm_delta = max_abs_delta(&fused_run.1, &oracle_run.1);
    assert!(
        norm_delta <= 1e-4,
        "normalized rows vs oracle: {norm_delta}"
    );
    println!(
        "parity: fused == composed bit-identically; |Δ| vs scalar oracle ≤ {norm_delta:.2e} \
         (normalized rows, {ROWS}x{COLS})"
    );
    Ok(())
}
