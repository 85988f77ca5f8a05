//! Property tests of the fusion-site entry points: random shapes, site kinds,
//! skip plans and formats through [`HaanNormalizer`]'s fused residual+norm and
//! (composed) norm+matmul entry points on the fused backend, checked against the
//! scalar composition oracle.
//!
//! Tolerances mirror `tests/backend_dispatch.rs` at the repository root:
//!
//! * fused vs the backend's **own composed path** (the same normalizer wrapped
//!   in [`Composed`]): bit-identical, including the returned
//!   [`AnchorState`](haan::AnchorState) at anchor sites, with the
//!   `haan.path.fused_residual.site_N` counter proving which side fused;
//! * fused software backends vs the **scalar oracle**: ≤ 1e-5 relative on
//!   normalized rows, ≤ 1e-4 after a matmul consumer (the reduction accumulates
//!   the per-element statistics difference).

use haan::{BackendSelection, HaanConfig, HaanNormalizer, SkipPlan};
use haan_llm::norm::{Composed, NormSite, Normalizer};
use haan_llm::{Matrix, NormKind};
use haan_numerics::Format;
use haan_obs::{Obs, ObsSink};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic pseudo-random matrix from a seed (the shim's strategies sample
/// independently, so data is derived from a sampled seed instead of a
/// shape-dependent `collection::vec`).
fn seeded_matrix(rows: usize, cols: usize, seed: u64, scale: f32) -> Matrix {
    let mut state = seed | 1;
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * scale
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("consistent shape")
}

fn assert_close(a: &Matrix, b: &Matrix, tolerance: f32, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert!(
            (x - y).abs() <= tolerance * y.abs().max(1.0),
            "{what}: {x} vs {y}"
        );
    }
}

struct Case {
    kind: NormKind,
    backend: BackendSelection,
    format: Format,
    plan: Option<SkipPlan>,
    subsample: Option<usize>,
}

fn build(case: &Case) -> HaanNormalizer {
    let mut builder = HaanConfig::builder()
        .format(case.format)
        .backend(case.backend);
    if let Some(n_sub) = case.subsample {
        builder = builder.subsample(n_sub);
    }
    let normalizer = HaanNormalizer::new(builder.build());
    match case.plan {
        Some(plan) => normalizer.with_plan(plan),
        None => normalizer,
    }
}

/// Attaches a fresh observability sink to `normalizer` and returns it.
fn observe(normalizer: &mut HaanNormalizer) -> Arc<Obs> {
    let obs = Obs::shared(1 << 10);
    normalizer.set_obs_sink(Some(Arc::clone(&obs) as Arc<dyn ObsSink>));
    obs
}

/// Rows the sink saw take the fused residual+norm path at site 0.
fn fused_residual_rows(obs: &Obs) -> u64 {
    obs.export()
        .counter("haan.path.fused_residual.site_0")
        .unwrap_or(0)
}

/// One anchor-then-skipped sequence through both fusion entry points,
/// returning `(summed, normed, matmul outs)`.
fn run_sequence<N: Normalizer>(
    normalizer: &mut N,
    case: &Case,
    input: &Matrix,
    residual: &Matrix,
    gamma: &[f32],
    beta: &[f32],
    weights: &[&Matrix],
) -> (Matrix, Matrix, Vec<Matrix>) {
    normalizer.begin_sequence();
    let (rows, cols) = input.shape();
    let mut summed = Matrix::zeros(rows, cols);
    let mut normed = Matrix::zeros(rows, cols);
    normalizer.normalize_residual_into(
        NormSite {
            layer_index: 0,
            kind: case.kind,
        },
        input,
        residual,
        gamma,
        beta,
        &mut summed,
        &mut normed,
    );
    let mut outs: Vec<Matrix> = weights
        .iter()
        .map(|w| Matrix::zeros(rows, w.cols()))
        .collect();
    normalizer
        .normalize_matmul_into(
            NormSite {
                layer_index: 1,
                kind: case.kind,
            },
            input,
            gamma,
            beta,
            weights,
            &mut outs,
        )
        .expect("valid consumer shapes");
    (summed, normed, outs)
}

proptest! {
    #[test]
    fn prop_fused_sites_match_their_composed_path_and_the_scalar_oracle(
        rows in 1usize..7,
        cols in 1usize..140,
        seed in 1u64..u64::MAX,
        picks in (0usize..2, 0usize..3, 0usize..4),
        consumer_cols in proptest::collection::vec(1usize..40, 1..4),
    ) {
        let (kind_pick, format_pick, site_pick) = picks;
        let case = Case {
            kind: if kind_pick == 0 { NormKind::LayerNorm } else { NormKind::RmsNorm },
            backend: BackendSelection::Fused,
            format: [Format::Fp32, Format::Fp16, Format::Int8][format_pick],
            // Skip plans and subsampling are drawn from the same pick: each
            // combination of {plain, skipped, subsampled, both} occurs.
            plan: (site_pick % 2 == 1).then_some(SkipPlan {
                start: 1,
                end: 2,
                decay: -0.04,
                correlation: -1.0,
                calibration_anchor_log_isd: -0.3,
            }),
            subsample: (site_pick >= 2).then_some(cols.div_ceil(2)),
        };
        let input = seeded_matrix(rows, cols, seed, 2.0);
        let residual = seeded_matrix(rows, cols, seed.rotate_left(17), 1.5);
        let gamma: Vec<f32> = (0..cols).map(|i| 1.0 + (i % 5) as f32 * 0.1).collect();
        let beta: Vec<f32> = (0..cols).map(|i| (i % 3) as f32 * 0.2 - 0.2).collect();
        let weights: Vec<Matrix> = consumer_cols
            .iter()
            .enumerate()
            .map(|(i, &n)| seeded_matrix(cols, n, seed.rotate_left(23 + i as u32), 0.5))
            .collect();
        let weight_refs: Vec<&Matrix> = weights.iter().collect();

        // Fused vs the same backend's composed path: bit-identical, anchors included.
        let mut fused = build(&case);
        let mut composed = Composed(build(&case));
        let (obs_fused, obs_composed) = (observe(&mut fused), observe(&mut composed.0));
        let fused_out = run_sequence(&mut fused, &case, &input, &residual, &gamma, &beta, &weight_refs);
        let composed_out =
            run_sequence(&mut composed, &case, &input, &residual, &gamma, &beta, &weight_refs);
        prop_assert_eq!(&fused_out.0, &composed_out.0, "summed stream diverged");
        prop_assert_eq!(&fused_out.1, &composed_out.1, "normalized rows diverged");
        prop_assert_eq!(&fused_out.2, &composed_out.2, "norm+matmul outputs diverged");
        prop_assert_eq!(fused.anchor_state(), composed.0.anchor_state());
        prop_assert_eq!(fused.telemetry(), composed.0.telemetry());
        prop_assert_eq!(fused_residual_rows(&obs_fused), rows as u64, "fused side did not fuse");
        prop_assert_eq!(fused_residual_rows(&obs_composed), 0, "composed side fused");

        // Fused software backend vs the scalar composition oracle.
        let oracle_case = Case { backend: BackendSelection::Scalar, ..case };
        let mut oracle = Composed(build(&oracle_case));
        let oracle_out =
            run_sequence(&mut oracle, &oracle_case, &input, &residual, &gamma, &beta, &weight_refs);
        prop_assert_eq!(&fused_out.0, &oracle_out.0, "sums must be exact on every backend");
        assert_close(&fused_out.1, &oracle_out.1, 1e-5, "fused residual+norm vs scalar oracle");
        for (fused_c, oracle_c) in fused_out.2.iter().zip(&oracle_out.2) {
            assert_close(fused_c, oracle_c, 1e-4, "norm+matmul vs scalar oracle");
        }
    }
}
