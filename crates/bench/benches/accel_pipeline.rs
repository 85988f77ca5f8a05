//! Cycle-accurate accelerator simulation throughput: one normalization site through
//! the attached simulator backend, and the analytic workload model used by the figure
//! binaries.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use haan::{HaanConfig, HaanNormalizer};
use haan_accel::{AccelConfig, AccelSimBackend, HaanAccelerator};
use haan_llm::norm::{NormSite, Normalizer};
use haan_llm::{Matrix, NormKind};
use haan_numerics::Format;
use std::sync::Arc;

fn bench_accel(c: &mut Criterion) {
    let mut group = c.benchmark_group("accelerator");

    // Functional simulation of one site over a small token batch.
    group.bench_function("accel_sim_site_functional_16x1600", |b| {
        let algorithm = HaanConfig::builder()
            .subsample(800)
            .format(Format::Fp16)
            .build();
        let backend = Arc::new(AccelSimBackend::new(AccelConfig::haan_v1()));
        let mut normalizer = HaanNormalizer::new(algorithm).with_external_backend(backend);
        let data = (0..16)
            .flat_map(|t| (0..1600).map(move |i| ((i + t * 13) % 41) as f32 / 10.0 - 2.0))
            .collect();
        let tokens = Matrix::from_vec(16, 1600, data).expect("consistent shape");
        let gamma = vec![1.0f32; 1600];
        let beta = vec![0.0f32; 1600];
        let site = NormSite {
            layer_index: 0,
            kind: NormKind::LayerNorm,
        };
        let mut out = Matrix::zeros(16, 1600);
        b.iter(|| {
            normalizer.normalize_matrix_into(site, black_box(&tokens), &gamma, &beta, &mut out);
        })
    });

    // Analytic workload model for the three published configurations.
    for (name, config) in [
        ("haan_v1", AccelConfig::haan_v1()),
        ("haan_v2", AccelConfig::haan_v2()),
        ("haan_v3", AccelConfig::haan_v3()),
    ] {
        group.bench_function(format!("workload_model_{name}"), |b| {
            let accel = HaanAccelerator::new(config, HaanConfig::gpt2_1_5b_paper());
            b.iter(|| accel.workload(black_box(1600), 97, 512, NormKind::LayerNorm))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_accel);
criterion_main!(benches);
