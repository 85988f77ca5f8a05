//! Differential fusion-parity suite: the block's two fusion seams (fused
//! residual+norm, and the norm+matmul site that composes normalize-then-matmul)
//! against their composed scalar decompositions.
//!
//! The composed sequence — separate add → norm → matmul — is the oracle, and it
//! stays reachable two ways: on the scalar backend (which deliberately keeps the
//! composed [`NormBackend`](haan::backend::NormBackend) trait default) and on
//! any backend by wrapping the normalizer in
//! [`Composed`](haan_llm::norm::Composed). Every fused-vs-composed comparison
//! reads the `haan.path.fused_residual.site_N` counter on both sides, so a
//! test cannot pass with a fused path that never engaged.
//! Tolerances mirror `tests/backend_dispatch.rs`:
//!
//! * **fused vs its own composed path** — bit-identical: the fused residual
//!   sweep reproduces the chunked statistics kernel's reduction order over the
//!   summed row;
//! * **fused vs the scalar oracle** — ≤ 1e-5 relative on normalized rows, with
//!   a wider 1e-4 envelope after a matmul consumer (the per-element 1e-5
//!   statistics difference accumulates across the reduction);
//! * **accel-sim** — ≤ 5e-2 relative on normalized rows, and bit-identical to
//!   its own composed decomposition.

use haan::{AnchorState, BackendSelection, HaanConfig, HaanNormalizer, SkipPlan};
use haan_accel::{AccelConfig, AccelSimBackend};
use haan_llm::norm::{Composed, NormSite, Normalizer};
use haan_llm::{Matrix, NormKind};
use haan_numerics::Format;
use haan_obs::{Obs, ObsSink};
use std::sync::Arc;

/// Edge shapes `(rows, cols)`: a single element, rows straddling the 16-lane
/// chunk width, a non-lane-multiple width, and a multi-chunk-block width.
const EDGE_SHAPES: [(usize, usize); 5] = [(1, 1), (3, 7), (2, 16), (5, 13), (4, 127)];

fn site(layer_index: usize, kind: NormKind) -> NormSite {
    NormSite { layer_index, kind }
}

fn varied_matrix(rows: usize, cols: usize, scale: f32) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| (((i * 2654435761) % 1000) as f32 / 250.0 - 2.0) * scale)
        .collect();
    Matrix::from_vec(rows, cols, data).expect("consistent shape")
}

fn offset_matrix(rows: usize, cols: usize, scale: f32) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| (((i * 1597334677) % 997) as f32 / 300.0 - 1.5) * scale)
        .collect();
    Matrix::from_vec(rows, cols, data).expect("consistent shape")
}

fn affine(cols: usize) -> (Vec<f32>, Vec<f32>) {
    let gamma: Vec<f32> = (0..cols).map(|i| 1.0 + (i % 5) as f32 * 0.1).collect();
    let beta: Vec<f32> = (0..cols).map(|i| (i % 3) as f32 * 0.2 - 0.2).collect();
    (gamma, beta)
}

fn config(backend: BackendSelection, format: Format) -> HaanConfig {
    HaanConfig::builder()
        .label(format!("fusion parity {backend}"))
        .format(format)
        .backend(backend)
        .build()
}

/// Attaches a fresh observability sink to `normalizer` and returns it.
fn observe(normalizer: &mut HaanNormalizer) -> Arc<Obs> {
    let obs = Obs::shared(1 << 10);
    normalizer.set_obs_sink(Some(Arc::clone(&obs) as Arc<dyn ObsSink>));
    obs
}

/// Rows the sink saw take the fused residual+norm path, over every site.
fn fused_residual_rows(obs: &Obs) -> u64 {
    obs.export()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("haan.path.fused_residual.site_"))
        .map(|(_, rows)| rows)
        .sum()
}

/// Asserts the fused side took the fused residual path and the composed side
/// never did.
fn assert_paths(fused: &Obs, composed: &Obs, what: &str) {
    assert!(
        fused_residual_rows(fused) > 0,
        "{what}: the fused residual kernel never ran"
    );
    assert_eq!(
        fused_residual_rows(composed),
        0,
        "{what}: the composed side took the fused path"
    );
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

/// Runs the residual+norm site, returning `(summed, normed)`.
fn run_residual<N: Normalizer>(
    normalizer: &mut N,
    kind: NormKind,
    input: &Matrix,
    residual: &Matrix,
    gamma: &[f32],
    beta: &[f32],
) -> (Matrix, Matrix) {
    let mut summed = Matrix::zeros(input.rows(), input.cols());
    let mut normed = Matrix::zeros(input.rows(), input.cols());
    normalizer.normalize_residual_into(
        site(0, kind),
        input,
        residual,
        gamma,
        beta,
        &mut summed,
        &mut normed,
    );
    (summed, normed)
}

/// Runs the norm+matmul site over the given consumers.
fn run_norm_matmul<N: Normalizer>(
    normalizer: &mut N,
    kind: NormKind,
    input: &Matrix,
    gamma: &[f32],
    beta: &[f32],
    weights: &[&Matrix],
) -> Vec<Matrix> {
    let mut outs: Vec<Matrix> = weights
        .iter()
        .map(|w| Matrix::zeros(input.rows(), w.cols()))
        .collect();
    normalizer
        .normalize_matmul_into(site(0, kind), input, gamma, beta, weights, &mut outs)
        .expect("valid consumer shapes");
    outs
}

#[test]
fn fused_residual_norm_matches_the_composed_scalar_oracle() {
    for kind in [NormKind::LayerNorm, NormKind::RmsNorm] {
        for format in [Format::Fp32, Format::Fp16, Format::Int8] {
            for (rows, cols) in EDGE_SHAPES {
                let input = varied_matrix(rows, cols, 1.0);
                let residual = offset_matrix(rows, cols, 1.0);
                let (gamma, beta) = affine(cols);

                // Composed oracle: explicit add, then the plain batched scalar path.
                let mut oracle_sum = input.clone();
                oracle_sum.add_assign(&residual).unwrap();
                let mut oracle = HaanNormalizer::new(config(BackendSelection::Scalar, format));
                let oracle_norm =
                    oracle.normalize_matrix(site(0, kind), &oracle_sum, &gamma, &beta);

                let mut fused = HaanNormalizer::new(config(BackendSelection::Fused, format));
                let obs = observe(&mut fused);
                let (summed, normed) =
                    run_residual(&mut fused, kind, &input, &residual, &gamma, &beta);

                let label = format!("{kind} {format} {rows}x{cols}");
                assert!(
                    fused_residual_rows(&obs) > 0,
                    "the fused residual kernel never ran [{label}]"
                );
                // The streamed residual add is the same f32 add: bit-identical sums.
                assert_eq!(summed, oracle_sum, "summed stream diverged [{label}]");
                assert_close(
                    &normed,
                    &oracle_norm,
                    1e-5,
                    &format!("fused residual+norm vs oracle [{label}]"),
                );
            }
        }
    }
}

#[test]
fn fused_sites_are_bit_identical_to_their_own_composed_path() {
    // A bare normalizer vs the same normalizer under `Composed`, on the same
    // backend, must not change a single bit: the fused kernels reproduce the
    // composed reduction orders exactly.
    for kind in [NormKind::LayerNorm, NormKind::RmsNorm] {
        for (rows, cols) in EDGE_SHAPES {
            let input = varied_matrix(rows, cols, 1.0);
            let residual = offset_matrix(rows, cols, 1.0);
            let (gamma, beta) = affine(cols);
            let weights = [varied_matrix(cols, 5, 0.4), varied_matrix(cols, 33, 0.3)];
            let weight_refs: Vec<&Matrix> = weights.iter().collect();

            for backend in [BackendSelection::Fused, BackendSelection::Scalar] {
                let mut on = HaanNormalizer::new(config(backend, Format::Fp32));
                let mut off = Composed(HaanNormalizer::new(config(backend, Format::Fp32)));
                let (obs_on, obs_off) = (observe(&mut on), observe(&mut off.0));
                let label = format!("{kind} {backend} {rows}x{cols}");

                let (sum_on, norm_on) =
                    run_residual(&mut on, kind, &input, &residual, &gamma, &beta);
                let (sum_off, norm_off) =
                    run_residual(&mut off, kind, &input, &residual, &gamma, &beta);
                assert_eq!(sum_on, sum_off, "residual sums diverged [{label}]");
                assert_eq!(norm_on, norm_off, "residual norms diverged [{label}]");

                let outs_on = run_norm_matmul(&mut on, kind, &input, &gamma, &beta, &weight_refs);
                let outs_off = run_norm_matmul(&mut off, kind, &input, &gamma, &beta, &weight_refs);
                assert_eq!(outs_on, outs_off, "norm+matmul outputs diverged [{label}]");
                assert_eq!(
                    on.telemetry(),
                    off.0.telemetry(),
                    "telemetry accounting diverged [{label}]"
                );
                assert_paths(&obs_on, &obs_off, &label);
            }
        }
    }
}

#[test]
fn norm_matmul_site_matches_the_composed_scalar_oracle() {
    for kind in [NormKind::LayerNorm, NormKind::RmsNorm] {
        for format in [Format::Fp32, Format::Fp16, Format::Int8] {
            for (rows, cols) in EDGE_SHAPES {
                let input = varied_matrix(rows, cols, 1.0);
                let (gamma, beta) = affine(cols);
                // Multi-consumer request: three weight matrices of distinct widths,
                // including a single-column consumer.
                let weights = [
                    varied_matrix(cols, 1, 0.5),
                    varied_matrix(cols, 5, 0.4),
                    varied_matrix(cols, 64, 0.2),
                ];
                let weight_refs: Vec<&Matrix> = weights.iter().collect();

                let mut oracle = HaanNormalizer::new(config(BackendSelection::Scalar, format));
                let oracle_norm = oracle.normalize_matrix(site(0, kind), &input, &gamma, &beta);
                let oracle_outs: Vec<Matrix> = weight_refs
                    .iter()
                    .map(|w| oracle_norm.matmul(w).unwrap())
                    .collect();

                let mut fused = HaanNormalizer::new(config(BackendSelection::Fused, format));
                let outs = run_norm_matmul(&mut fused, kind, &input, &gamma, &beta, &weight_refs);

                for (n, (out, oracle_out)) in outs.iter().zip(&oracle_outs).enumerate() {
                    assert_close(
                        out,
                        oracle_out,
                        1e-4,
                        &format!(
                            "norm+matmul consumer {n} vs oracle [{kind} {format} {rows}x{cols}]"
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn fusion_sites_handle_constant_and_subnormal_rows() {
    for (rows, cols) in [(2, 1), (3, 13), (2, 127)] {
        // Constant summed rows: zero variance, the eps floor dominates. Subnormal
        // rows: the chunked kernel's f32 lanes underflow and the fused sweep must
        // take the same exact-path fallback the composed kernel takes.
        let constant = Matrix::from_vec(rows, cols, vec![1.625; rows * cols]).unwrap();
        let subnormal = varied_matrix(rows, cols, 1.0e-38);
        for (name, input) in [("constant", &constant), ("subnormal", &subnormal)] {
            let residual = input.clone();
            let gamma = vec![1.0f32; cols];
            let beta = vec![0.1f32; cols];
            let weights = [varied_matrix(cols, 7, 1.0)];
            let weight_refs: Vec<&Matrix> = weights.iter().collect();

            let mut on = HaanNormalizer::new(config(BackendSelection::Fused, Format::Fp32));
            let mut off = Composed(HaanNormalizer::new(config(
                BackendSelection::Fused,
                Format::Fp32,
            )));
            let (obs_on, obs_off) = (observe(&mut on), observe(&mut off.0));
            let label = format!("{name} {rows}x{cols}");

            let (sum_on, norm_on) = run_residual(
                &mut on,
                NormKind::LayerNorm,
                input,
                &residual,
                &gamma,
                &beta,
            );
            let (sum_off, norm_off) = run_residual(
                &mut off,
                NormKind::LayerNorm,
                input,
                &residual,
                &gamma,
                &beta,
            );
            assert_eq!(sum_on, sum_off, "sums diverged [{label}]");
            assert_eq!(norm_on, norm_off, "norms diverged [{label}]");
            for (a, b) in norm_on.as_slice().iter().zip(norm_off.as_slice()) {
                assert!(
                    a.is_finite() && b.is_finite(),
                    "non-finite output [{label}]"
                );
            }

            let outs_on = run_norm_matmul(
                &mut on,
                NormKind::LayerNorm,
                input,
                &gamma,
                &beta,
                &weight_refs,
            );
            let outs_off = run_norm_matmul(
                &mut off,
                NormKind::LayerNorm,
                input,
                &gamma,
                &beta,
                &weight_refs,
            );
            assert_eq!(outs_on, outs_off, "norm+matmul diverged [{label}]");
            assert_paths(&obs_on, &obs_off, &label);
        }
    }
}

/// The skipped-site outputs of [`anchor_round_trip`]: the residual site's
/// normalized rows and the norm+matmul site's consumer outputs.
type SkippedOutputs = (Matrix, Vec<Matrix>);

/// A quantized, subsampled sequence through an anchor site (0) and a skipped
/// site (1), both entered through the fusion entry points. `haan` reaches the
/// HAAN normalizer inside `normalizer` to inspect its anchor state.
fn anchor_round_trip<N: Normalizer>(
    normalizer: &mut N,
    haan: impl Fn(&N) -> &HaanNormalizer,
) -> (AnchorState, SkippedOutputs) {
    const ROWS: usize = 6;
    const COLS: usize = 48;
    let input = varied_matrix(ROWS, COLS, 1.3);
    let residual = offset_matrix(ROWS, COLS, 0.9);
    let (gamma, beta) = affine(COLS);
    let weights = [varied_matrix(COLS, 16, 0.4)];
    let weight_refs: Vec<&Matrix> = weights.iter().collect();

    normalizer.begin_sequence();
    // Anchor site through the fused residual shape records per-row anchors.
    let mut summed = Matrix::zeros(ROWS, COLS);
    let mut normed = Matrix::zeros(ROWS, COLS);
    normalizer.normalize_residual_into(
        site(0, NormKind::LayerNorm),
        &input,
        &residual,
        &gamma,
        &beta,
        &mut summed,
        &mut normed,
    );
    let state = haan(normalizer).anchor_state();
    assert!(!state.is_empty(), "anchor site must record anchors");
    assert_eq!(state.row_log_isds().len(), ROWS);
    assert_eq!(
        state.scalar_log_isd(),
        state.row_log_isds().last().copied(),
        "the scalar tier is the last row's anchor"
    );

    // Skipped site consumes the per-row anchors through both entry points.
    let mut skip_sum = Matrix::zeros(ROWS, COLS);
    let mut skip_norm = Matrix::zeros(ROWS, COLS);
    normalizer.normalize_residual_into(
        site(1, NormKind::LayerNorm),
        &input,
        &residual,
        &gamma,
        &beta,
        &mut skip_sum,
        &mut skip_norm,
    );
    let mut outs = vec![Matrix::zeros(ROWS, 16)];
    normalizer
        .normalize_matmul_into(
            site(1, NormKind::LayerNorm),
            &input,
            &gamma,
            &beta,
            &weight_refs,
            &mut outs,
        )
        .unwrap();
    assert!(haan(normalizer).telemetry().skipped_isd >= 2 * ROWS as u64);
    (haan(normalizer).anchor_state(), (skip_norm, outs))
}

#[test]
fn quantized_skip_anchor_sites_round_trip_anchor_state_bit_identically() {
    // The resulting AnchorState must be bit-identical between the fused and
    // composed paths.
    let plan = SkipPlan {
        start: 0,
        end: 2,
        decay: -0.04,
        correlation: -1.0,
        calibration_anchor_log_isd: -0.3,
    };
    let build = || {
        let config = HaanConfig::builder()
            .label("anchor round trip")
            .subsample(24)
            .format(Format::Fp16)
            .backend(BackendSelection::Fused)
            .build();
        HaanNormalizer::new(config).with_plan(plan)
    };
    let mut fused = build();
    let mut composed = Composed(build());
    let (obs_fused, obs_composed) = (observe(&mut fused), observe(&mut composed.0));
    let (fused_state, fused_outs) = anchor_round_trip(&mut fused, |n| n);
    let (composed_state, composed_outs) = anchor_round_trip(&mut composed, |n| &n.0);
    assert_eq!(
        fused_state, composed_state,
        "anchor state diverged fused vs composed"
    );
    assert_eq!(
        fused_outs, composed_outs,
        "skipped-site outputs diverged fused vs composed"
    );
    assert_paths(&obs_fused, &obs_composed, "anchor round trip");
}

#[test]
fn accel_sim_fusion_sites_report_cycles_and_match_their_composed_path() {
    let fused_backend =
        Arc::new(AccelSimBackend::new(AccelConfig::haan_v1()).expect("valid config"));
    let composed_backend =
        Arc::new(AccelSimBackend::new(AccelConfig::haan_v1()).expect("valid config"));
    let (rows, cols) = (3, 96);
    let input = varied_matrix(rows, cols, 1.0);
    let residual = offset_matrix(rows, cols, 1.0);
    let (gamma, beta) = affine(cols);
    let weights = [varied_matrix(cols, 24, 0.3)];
    let weight_refs: Vec<&Matrix> = weights.iter().collect();

    let mut fused = HaanNormalizer::new(config(BackendSelection::Fused, Format::Fp16))
        .with_external_backend(fused_backend.clone());
    let mut composed = Composed(
        HaanNormalizer::new(config(BackendSelection::Fused, Format::Fp16))
            .with_external_backend(composed_backend.clone()),
    );
    let (obs_fused, obs_composed) = (observe(&mut fused), observe(&mut composed.0));

    let (sum_f, norm_f) = run_residual(
        &mut fused,
        NormKind::LayerNorm,
        &input,
        &residual,
        &gamma,
        &beta,
    );
    let (sum_c, norm_c) = run_residual(
        &mut composed,
        NormKind::LayerNorm,
        &input,
        &residual,
        &gamma,
        &beta,
    );
    // The simulated residual adders are exact f32 adders in front of the
    // statistics calculator: fusing changes no bit of the datapath result.
    assert_eq!(sum_f, sum_c, "accel-sim residual sums diverged");
    assert_eq!(norm_f, norm_c, "accel-sim residual norms diverged");

    let outs_f = run_norm_matmul(
        &mut fused,
        NormKind::LayerNorm,
        &input,
        &gamma,
        &beta,
        &weight_refs,
    );
    let outs_c = run_norm_matmul(
        &mut composed,
        NormKind::LayerNorm,
        &input,
        &gamma,
        &beta,
        &weight_refs,
    );
    assert_eq!(outs_f, outs_c, "accel-sim norm+matmul diverged");
    assert_paths(&obs_fused, &obs_composed, "accel-sim");

    // Against the scalar software oracle the hardware envelope applies.
    let mut oracle_sum = input.clone();
    oracle_sum.add_assign(&residual).unwrap();
    let mut oracle = HaanNormalizer::new(config(BackendSelection::Scalar, Format::Fp16));
    let oracle_norm =
        oracle.normalize_matrix(site(0, NormKind::LayerNorm), &oracle_sum, &gamma, &beta);
    assert_close(&norm_f, &oracle_norm, 5e-2, "accel-sim residual vs oracle");

    // Timing honesty: both fused sites went through the pipeline model, and the
    // fused residual batch additionally charges the adder-bank fill, so the
    // fused run can never report fewer cycles than its composed twin.
    assert!(fused_backend.total_cycles() > 0);
    assert_eq!(fused_backend.batches(), composed_backend.batches());
    assert_eq!(
        fused_backend.total_cycles(),
        composed_backend.total_cycles() + AccelSimBackend::RESIDUAL_ADDER_FILL_CYCLES
    );
}
