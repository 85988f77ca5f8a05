//! Same bits on every ISA level: golden hashes of a seeded GPT-2-small-shaped
//! model and of one LLaMA-preset HAAN site.
//!
//! The workspace builds for `x86-64-v3` (`.cargo/config.toml`), and CI runs the
//! test suite a second time at baseline `x86-64` (SSE2). rustc never contracts
//! `a * b + c` into an FMA and never reassociates float sums, so wider vectors
//! must not change a single output bit, and the packed matmul's panel-range
//! split across cores must not either. These constants pin that: both builds,
//! split or not, must reproduce them exactly.
//!
//! No host libm runs in the model's forward pass: GELU, SiLU and the softmax
//! take their `exp` and `tanh` from the crate-local `haan_llm::math`, plain
//! f32 arithmetic with no FMA contraction. A host libm is picked at run time
//! by CPU, so a variant that rounds differently would otherwise move these
//! hashes without any change in this repository.

use haan::{HaanConfig, HaanNormalizer};
use haan_llm::norm::{NormSite, Normalizer};
use haan_llm::streaming::greedy_argmax;
use haan_llm::{Matrix, ModelConfig, ModelFamily, NormKind, TransformerModel};

/// FNV-1a over the little-endian bytes of the values' bits.
fn bits_hash(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The `decode_gpt2` benchmark's model: GPT-2-small widths, 2 blocks.
fn gpt2_small_shaped() -> TransformerModel {
    let config = ModelConfig {
        name: "gpt2-small-shaped".to_string(),
        family: ModelFamily::Gpt2,
        num_blocks: 2,
        embedding_dim: 768,
        num_heads: 12,
        mlp_dim: 3072,
        vocab_size: 512,
        max_seq_len: 64,
        final_norm: true,
        paper_embedding_dim: 768,
    };
    TransformerModel::new(&config, 768).expect("valid GPT-2-shaped model")
}

const PROMPT: [u32; 8] = [1, 17, 42, 99, 123, 256, 300, 511];
const GREEDY_STEPS: usize = 16;

const PREFILL_LOGITS_HASH: u64 = 0xb11f_63dc_47ac_79c0;
/// The seeded model echoes its last token (the tied embedding dominates its
/// logits), so the tokens pin the arg-max and the final row pins the bits.
const GREEDY_TOKENS: [u32; GREEDY_STEPS] = [511; GREEDY_STEPS];
const FINAL_LOGITS_HASH: u64 = 0x5395_dc45_158d_91d3;
const LLAMA_ANCHOR_SITE_HASH: u64 = 0x6152_8c1c_e87e_2e67;
const LLAMA_SKIPPED_SITE_HASH: u64 = 0xcd92_b4f4_4755_c1de;

#[test]
fn gpt2_prefill_and_greedy_decode_bits_are_pinned() {
    let model = gpt2_small_shaped();
    // The prefill rows cross the split gate: on a multi-core host every
    // projection runs as a panel-range split.
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let rows = Matrix::zeros(PROMPT.len(), 768);
    for weight in model.projection_weights() {
        let panels = weight.cols().div_ceil(16);
        assert_eq!(rows.matmul_parts(weight), threads.min(panels));
    }
    let mut norm = HaanNormalizer::new(HaanConfig::default());

    let mut context = model.start_decode();
    let prefill = context.prefill(&PROMPT, &mut norm).expect("prefill");
    assert_eq!(prefill.shape(), (PROMPT.len(), 512));
    let prefill_hash = bits_hash(prefill.as_slice());

    let mut context = model.start_decode();
    let mut logits = context.prefill_last(&PROMPT, &mut norm).expect("prefill");
    let mut tokens = Vec::with_capacity(GREEDY_STEPS);
    for _ in 0..GREEDY_STEPS {
        let next = greedy_argmax(&logits);
        tokens.push(next);
        logits = context.step(next, &mut norm).expect("decode step");
    }
    let final_hash = bits_hash(&logits);

    assert_eq!(
        prefill_hash, PREFILL_LOGITS_HASH,
        "prefill logits bits moved"
    );
    assert_eq!(tokens, GREEDY_TOKENS, "greedy tokens moved");
    assert_eq!(final_hash, FINAL_LOGITS_HASH, "final logits bits moved");
}

#[test]
fn llama_preset_site_bits_are_pinned() {
    const ROWS: usize = 64;
    const WIDTH: usize = 4096;
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 40) as f32 / (1u32 << 23) as f32 - 1.0
    };
    let mut matrix = || {
        Matrix::from_vec(ROWS, WIDTH, (0..ROWS * WIDTH).map(|_| next()).collect())
            .expect("consistent shape")
    };
    // Distinct rows at the two sites, so the skipped site's predicted ISD
    // differs from its exact one.
    let inputs = [matrix(), matrix()];
    let gamma: Vec<f32> = (0..WIDTH).map(|_| 1.0 + 0.05 * next()).collect();
    let beta = vec![0.0; WIDTH];

    let mut norm = HaanNormalizer::new(HaanConfig::llama_7b_paper());
    let (anchor, skipped) = (50, 55);
    assert!(norm.is_anchor_site(anchor) && norm.is_skipped_site(skipped));
    norm.begin_sequence();
    let mut hashes = [0u64; 2];
    for ((hash, layer_index), input) in hashes.iter_mut().zip([anchor, skipped]).zip(&inputs) {
        let site = NormSite {
            layer_index,
            kind: NormKind::RmsNorm,
        };
        let mut out = Matrix::zeros(ROWS, WIDTH);
        norm.normalize_matrix_into(site, input, &gamma, &beta, &mut out);
        *hash = bits_hash(out.as_slice());
    }

    assert_eq!(hashes[0], LLAMA_ANCHOR_SITE_HASH, "anchor site bits moved");
    assert_eq!(
        hashes[1], LLAMA_SKIPPED_SITE_HASH,
        "skipped site bits moved"
    );
}
