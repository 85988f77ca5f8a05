//! Backend-parity suite of the batched normalization engine.
//!
//! Every execution backend must agree with the two-pass scalar oracle
//! ([`BackendSelection::Scalar`]) through the *same* `normalize_matrix_into` entry
//! point, across the edge shapes the fused kernels are hardened against (a single
//! element, rows straddling the chunk-lane width, constant rows, subnormal-scale
//! rows). Tolerances:
//!
//! * **fused** — ≤ 1e-5 relative against the scalar oracle (the chunked
//!   lane-parallel summation order differs, exactly like a hardware adder tree, so
//!   bit-exactness against the oracle is not possible);
//! * **accel-sim** — ≤ 5e-2 relative: the fixed-point statistics calculator, the
//!   `0x5F3759DF` seed + Newton refinement, and the external-format output rounding
//!   each contribute quantization error by design.

use haan::{BackendSelection, HaanConfig, HaanNormalizer, SkipPlan};
use haan_accel::{AccelConfig, AccelSimBackend};
use haan_llm::norm::{NormSite, Normalizer};
use haan_llm::{Matrix, NormKind};
use haan_numerics::Format;
use std::sync::Arc;

fn site(layer_index: usize, kind: NormKind) -> NormSite {
    NormSite { layer_index, kind }
}

/// The edge shapes of the kernel-level tests, lifted to matrices: `(rows, cols)`.
const EDGE_SHAPES: [(usize, usize); 5] = [(1, 1), (3, 7), (2, 16), (5, 13), (4, 127)];

fn varied_matrix(rows: usize, cols: usize, scale: f32) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| (((i * 2654435761) % 1000) as f32 / 250.0 - 2.0) * scale)
        .collect();
    Matrix::from_vec(rows, cols, data).expect("consistent shape")
}

fn constant_matrix(rows: usize, cols: usize, value: f32) -> Matrix {
    Matrix::from_vec(rows, cols, vec![value; rows * cols]).expect("consistent shape")
}

fn config_with_backend(backend: BackendSelection, format: Format) -> HaanConfig {
    HaanConfig::builder()
        .label(format!("parity {backend}"))
        .format(format)
        .backend(backend)
        .build()
}

fn run_backend(
    backend: BackendSelection,
    format: Format,
    input: &Matrix,
    gamma: &[f32],
    beta: &[f32],
    kind: NormKind,
) -> Matrix {
    let mut normalizer = HaanNormalizer::new(config_with_backend(backend, format));
    normalizer.begin_sequence();
    normalizer.normalize_matrix(site(0, kind), input, gamma, beta)
}

fn assert_close(a: &Matrix, b: &Matrix, tolerance: f32, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for row in 0..a.rows() {
        for (col, (x, y)) in a.row(row).iter().zip(b.row(row)).enumerate() {
            assert!(
                (x - y).abs() <= tolerance * y.abs().max(1.0),
                "{what}: row {row} col {col}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn software_backends_match_the_scalar_oracle_on_edge_shapes() {
    for kind in [NormKind::LayerNorm, NormKind::RmsNorm] {
        for format in [Format::Fp32, Format::Fp16, Format::Int8] {
            for (rows, cols) in EDGE_SHAPES {
                for scale in [1.0f32, 1e-3] {
                    let input = varied_matrix(rows, cols, scale);
                    let gamma: Vec<f32> = (0..cols).map(|i| 1.0 + (i % 5) as f32 * 0.1).collect();
                    let beta: Vec<f32> = (0..cols).map(|i| (i % 3) as f32 * 0.2 - 0.2).collect();
                    let oracle = run_backend(
                        BackendSelection::Scalar,
                        format,
                        &input,
                        &gamma,
                        &beta,
                        kind,
                    );
                    let fused =
                        run_backend(BackendSelection::Fused, format, &input, &gamma, &beta, kind);
                    let label = format!("{kind} {format} {rows}x{cols} scale {scale}");
                    assert_close(&fused, &oracle, 1e-5, &format!("fused vs oracle [{label}]"));
                }
            }
        }
    }
}

#[test]
fn software_backends_agree_on_constant_and_subnormal_rows() {
    for (rows, cols) in [(2, 1), (3, 13), (2, 127)] {
        // Constant rows: zero variance, the eps floor dominates.
        let constant = constant_matrix(rows, cols, 3.25);
        // Subnormal-scale rows: the chunked kernel's f32 lanes underflow and it must
        // fall back to the exact path rather than emit garbage.
        let subnormal = varied_matrix(rows, cols, 1.0e-38);
        for (name, input) in [("constant", &constant), ("subnormal", &subnormal)] {
            let gamma = vec![1.0f32; cols];
            let beta = vec![0.1f32; cols];
            let kind = NormKind::LayerNorm;
            let oracle = run_backend(
                BackendSelection::Scalar,
                Format::Fp32,
                input,
                &gamma,
                &beta,
                kind,
            );
            let fused = run_backend(
                BackendSelection::Fused,
                Format::Fp32,
                input,
                &gamma,
                &beta,
                kind,
            );
            assert_close(
                &fused,
                &oracle,
                1e-5,
                &format!("fused vs oracle [{name} {rows}x{cols}]"),
            );
        }
    }
}

#[test]
fn accel_sim_backend_tracks_the_oracle_within_hardware_tolerance() {
    // Attach the simulator directly so the test can also read its cycle counters.
    // `(rows, cols, Nsub)`; the subsampled input is the paper-style prefix read.
    let inputs = [
        (1, 1, None),
        (3, 7, None),
        (4, 127, None),
        (2, 256, None),
        (1, 256, Some(64)),
    ];
    let backend = Arc::new(AccelSimBackend::new(AccelConfig::haan_v1()).expect("valid config"));
    for kind in [NormKind::LayerNorm, NormKind::RmsNorm] {
        for (rows, cols, n_sub) in inputs {
            let input = varied_matrix(rows, cols, 1.0);
            let gamma: Vec<f32> = (0..cols).map(|i| 1.0 + (i % 4) as f32 * 0.05).collect();
            let beta: Vec<f32> = (0..cols).map(|i| (i % 2) as f32 * 0.1).collect();
            let config_for = |backend| HaanConfig {
                n_sub,
                ..config_with_backend(backend, Format::Fp16)
            };
            let oracle = HaanNormalizer::new(config_for(BackendSelection::Scalar))
                .normalize_matrix(site(0, kind), &input, &gamma, &beta);
            let mut accel = HaanNormalizer::new(config_for(BackendSelection::Fused))
                .with_external_backend(backend.clone());
            let simulated = accel.normalize_matrix(site(0, kind), &input, &gamma, &beta);
            assert_close(
                &simulated,
                &oracle,
                5e-2,
                &format!("accel-sim vs oracle [{kind} {rows}x{cols} Nsub {n_sub:?}]"),
            );
            // Telemetry accounting is backend-independent.
            assert_eq!(accel.telemetry().calls, rows as u64);
            assert_eq!(
                accel.telemetry().elements_read,
                (rows * n_sub.unwrap_or(cols)) as u64
            );
        }
    }
    // Every site also went through the pipeline timing model.
    assert!(backend.total_cycles() > 0);
    assert_eq!(backend.batches(), 2 * inputs.len() as u64);
}

#[test]
fn an_attached_backend_runs_both_entry_points_over_the_configured_one() {
    // The attached backend takes precedence over `HaanConfig::backend`, here the
    // scalar oracle, on the plain and the fused residual+norm entry point alike.
    let backend = Arc::new(AccelSimBackend::new(AccelConfig::haan_v1()).expect("valid config"));
    let config = HaanConfig::builder()
        .label("attached accel-sim")
        .backend(BackendSelection::Scalar)
        .format(Format::Fp16)
        .build();
    let mut normalizer = HaanNormalizer::new(config).with_external_backend(backend.clone());
    assert!(normalizer.description().contains("accel-sim"));
    let (rows, cols) = (4, 96);
    let input = varied_matrix(rows, cols, 1.0);
    let residual = varied_matrix(rows, cols, 0.5);
    let gamma = vec![1.0f32; cols];
    let beta = vec![0.0f32; cols];
    let oracle_of = |data: &Matrix| {
        run_backend(
            BackendSelection::Scalar,
            Format::Fp16,
            data,
            &gamma,
            &beta,
            NormKind::LayerNorm,
        )
    };

    let before = backend.batches();
    let simulated =
        normalizer.normalize_matrix(site(0, NormKind::LayerNorm), &input, &gamma, &beta);
    assert_eq!(
        backend.batches(),
        before + 1,
        "matrix site skipped the attachment"
    );
    assert_close(&simulated, &oracle_of(&input), 5e-2, "attached accel-sim");

    let mut summed = Matrix::zeros(rows, cols);
    let mut normed = Matrix::zeros(rows, cols);
    normalizer.normalize_residual_into(
        site(1, NormKind::LayerNorm),
        &input,
        &residual,
        &gamma,
        &beta,
        &mut summed,
        &mut normed,
    );
    assert_eq!(
        backend.batches(),
        before + 2,
        "residual site skipped the attachment"
    );
    assert_close(
        &normed,
        &oracle_of(&summed),
        5e-2,
        "attached accel-sim residual",
    );
}

#[test]
fn skipped_sites_stay_parity_across_backends() {
    // A zero-decay plan predicts each skipped row's ISD from its own anchor row, so
    // anchor-layer and skipped-layer outputs must match per backend — and the
    // software backends must agree with each other about both.
    let plan = SkipPlan {
        start: 0,
        end: 2,
        decay: 0.0,
        correlation: -1.0,
        calibration_anchor_log_isd: 0.0,
    };
    let input = varied_matrix(6, 64, 1.0);
    let gamma = vec![1.0f32; 64];
    let beta = vec![0.0f32; 64];
    let mut per_backend = Vec::new();
    for backend in [BackendSelection::Scalar, BackendSelection::Fused] {
        let config = HaanConfig::builder().backend(backend).subsample(32).build();
        let mut normalizer = HaanNormalizer::new(config).with_plan(plan);
        normalizer.begin_sequence();
        let anchored =
            normalizer.normalize_matrix(site(0, NormKind::LayerNorm), &input, &gamma, &beta);
        let skipped =
            normalizer.normalize_matrix(site(1, NormKind::LayerNorm), &input, &gamma, &beta);
        assert_eq!(normalizer.telemetry().skipped_isd, 6);
        assert_close(
            &skipped,
            &anchored,
            1e-4,
            &format!("{backend}: skipped vs anchored"),
        );
        per_backend.push(skipped);
    }
    assert_close(
        &per_backend[1],
        &per_backend[0],
        1e-5,
        "fused vs scalar on a skipped site",
    );
}
