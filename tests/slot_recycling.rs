//! Slot recycling: a group whose caller retires every stream it is done with
//! serves any number of sessions in a bounded number of slots, returns every
//! pool page, and stays bit-identical to solo decode.

use haan::{BackendSelection, HaanConfig};
use haan_llm::norm::ReferenceNormalizer;
use haan_llm::streaming::greedy_argmax;
use haan_llm::{ModelConfig, StreamingModel, TransformerModel};
use haan_serve::{AdmissionPolicy, KvPoolPolicy, ServeConfig, ServeEngine, StreamStatus};
use std::collections::BTreeMap;

const SESSIONS: usize = 10_000;
const CONCURRENT: usize = 8;
const MAX_QUEUED: usize = 2;

/// One session in flight: its number, prompt and token budget (`None` runs
/// to the model's maximum sequence length).
struct Session {
    n: usize,
    prompt: Vec<u32>,
    budget: Option<usize>,
}

/// Session `n`: mostly 2–4-token prompts cancelled after 1–3 tokens; every
/// 100th a 29-token prompt that runs until it finishes at `max_seq_len`.
fn session(n: usize, max_seq_len: usize) -> Session {
    let (len, budget) = if n % 100 == 50 {
        (max_seq_len - 3, None)
    } else {
        (2 + n % 3, Some(1 + n % 3))
    };
    let prompt = (0..len)
        .map(|i| ((n * 7 + i * 13) % 61 + 1) as u32)
        .collect();
    Session { n, prompt, budget }
}

/// The tokens a stream decoding `prompt` alone generates: `n` from the
/// full-recompute oracle, plus, for a stream that filled the context, the
/// stateless forward's argmax at the last position.
fn solo(model: &TransformerModel, prompt: &[u32], n: usize) -> Vec<u32> {
    let max = model.config().max_seq_len;
    let mut oracle = StreamingModel::new_full_recompute(model, prompt).expect("oracle stream");
    let mut expected = oracle
        .decode(n.min(max - prompt.len()), &mut ReferenceNormalizer::new())
        .expect("oracle decode");
    if n > max - prompt.len() {
        let full = model
            .logits(oracle.tokens(), &mut ReferenceNormalizer::new())
            .expect("stateless oracle");
        expected.push(greedy_argmax(full.row(max - 1)));
    }
    expected
}

#[test]
fn ten_thousand_sessions_reuse_a_bounded_set_of_slots() {
    // One block of tiny_test's shape keeps 10k sessions quick in a debug
    // build; the slot lifecycle does not depend on depth.
    let config = ModelConfig {
        name: "recycling-test".to_string(),
        num_blocks: 1,
        ..ModelConfig::tiny_test()
    };
    let model = TransformerModel::new(&config, 23).expect("model");
    let max = model.config().max_seq_len;
    let engine = ServeEngine::start(ServeConfig {
        normalizer: HaanConfig {
            backend: BackendSelection::Fused,
            ..HaanConfig::unoptimized()
        },
        // 18 pages of 4 rows, 13.5 below the watermark. A short stream holds
        // at most 2 pages and a long one 8: an offer that would pass the
        // watermark queues, or sheds past MAX_QUEUED.
        kv_pool: KvPoolPolicy {
            page_rows: 4,
            capacity_rows: 72,
        },
        admission: AdmissionPolicy {
            max_queued: MAX_QUEUED,
            ..AdmissionPolicy::default()
        },
        ..Default::default()
    });
    let pool = engine.kv_pool(model.config().embedding_dim);
    let mut group = engine.empty_decode_group(&model).expect("group");
    let mut in_flight: BTreeMap<usize, Session> = BTreeMap::new();
    let (mut offered, mut served, mut shed, mut finished, mut checked) = (0, 0, 0, 0, 0);
    let mut max_slots = 0;
    while served < SESSIONS {
        while in_flight.len() < CONCURRENT && offered < SESSIONS {
            let s = session(offered, max);
            offered += 1;
            let slot = group.add_stream(&s.prompt).expect("valid prompt");
            max_slots = max_slots.max(group.len());
            if group.status(slot) == StreamStatus::Shed {
                assert_eq!(group.retire(slot).expect("shed slots retire"), s.prompt);
                shed += 1;
                served += 1;
                // Back off until the next tick, as the retry hint asks.
                break;
            }
            assert!(
                in_flight.insert(slot, s).is_none(),
                "slot {slot} double-booked"
            );
        }
        group.step_all().expect("tick");
        let done: Vec<usize> = in_flight
            .iter()
            .filter(|&(&slot, s)| {
                group.status(slot) == StreamStatus::Finished
                    || s.budget.is_some_and(|b| group.generated(slot).len() >= b)
            })
            .map(|(&slot, _)| slot)
            .collect();
        for slot in done {
            let s = in_flight.remove(&slot).expect("in flight");
            if group.status(slot) == StreamStatus::Finished {
                finished += 1;
            } else {
                assert!(group.cancel(slot));
            }
            let tokens = group.retire(slot).expect("terminal slots retire");
            assert_eq!(group.status(slot), StreamStatus::Retired);
            assert_eq!(tokens[..s.prompt.len()], s.prompt[..]);
            if s.n.is_multiple_of(997) || s.n % 1000 == 50 {
                let generated = &tokens[s.prompt.len()..];
                assert_eq!(
                    generated,
                    solo(&model, &s.prompt, generated.len()).as_slice(),
                    "session {} diverged from its solo oracle",
                    s.n
                );
                checked += 1;
            }
            served += 1;
        }
    }
    let stats = group.stats();
    assert!(
        max_slots <= CONCURRENT + MAX_QUEUED,
        "{max_slots} slots for at most {CONCURRENT} concurrent sessions"
    );
    assert_eq!(
        group.len(),
        max_slots,
        "slots are never dropped, only reused"
    );
    assert_eq!(pool.pages_in_use(), 0, "every page returned");
    assert_eq!(stats.offered, SESSIONS as u64);
    assert!(
        stats.queued > 0 && shed > 0 && finished > 0,
        "the drill must queue, shed and finish streams: {stats:?}"
    );
    assert!(checked >= 10, "{checked} sampled transcripts");
    for slot in 0..group.len() {
        assert_eq!(group.status(slot), StreamStatus::Retired, "slot {slot}");
    }
}
