//! Property tests for scenario serialization and replay: any declarative
//! [`Scenario`] (1) serde round-trips losslessly and (2) when the
//! deserialized copy is run on the deterministic backend, it reproduces
//! the original `trace_hash` bit-for-bit — i.e. the JSON *is* the
//! execution, byte for byte. And (3) a stored scenario with one byte
//! changed is refused by the decoder or by [`Scenario::validate`], or
//! decodes to a value that re-encodes stably — never a panic.

use one_for_all::consensus::{Algorithm, Bit};
use one_for_all::explore::load_corpus;
use one_for_all::prelude::{Backend, CoinSpec, CrashPlan, Scenario, Sim};
use one_for_all::scenario::{CostModel, DelayModel, Snapshot, VirtualTime};
use one_for_all::topology::{Partition, ProcessId};
use proptest::prelude::*;
use std::path::Path;
use std::sync::OnceLock;

mod common;
use common::change_one_byte;

/// Strategy: a valid partition of up to 6 processes (compacted ids).
fn partition_strategy() -> impl Strategy<Value = Partition> {
    (1usize..=6)
        .prop_flat_map(|n| proptest::collection::vec(0usize..n.min(3), n))
        .prop_map(|raw| {
            let mut ids = raw;
            let mut seen = Vec::new();
            for &x in &ids {
                if !seen.contains(&x) {
                    seen.push(x);
                }
            }
            for x in &mut ids {
                *x = seen.iter().position(|d| d == x).unwrap();
            }
            Partition::from_assignment(&ids).expect("compacted assignment is valid")
        })
}

/// Strategy: a crash plan over `n` processes mixing all trigger kinds.
fn crash_plan_strategy(n: usize) -> impl Strategy<Value = CrashPlan> {
    proptest::collection::vec((0usize..n, 0u8..3, 0u64..40), 0..n.max(1)).prop_map(move |entries| {
        let mut plan = CrashPlan::new();
        for (p, kind, x) in entries {
            let p = ProcessId(p);
            plan = match kind {
                0 => plan.crash_at_step(p, x),
                1 => plan.crash_at_round(p, 1 + x % 8),
                _ => plan.crash_at_time(p, VirtualTime::from_ticks(x * 250)),
            };
        }
        plan
    })
}

/// Strategy: a declarative (fully serializable) scenario.
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    partition_strategy()
        .prop_flat_map(|partition| {
            let n = partition.n();
            (
                Just(partition),
                proptest::collection::vec(any::<bool>(), n),
                0u64..10_000,
                any::<bool>(),
                crash_plan_strategy(n),
                0u8..3,  // delay model choice
                0u8..3,  // coin spec choice
                1u64..6, // sm op cost
            )
        })
        .prop_map(
            |(partition, bits, seed, common, crashes, delay_kind, coin_kind, sm_cost)| {
                let proposals: Vec<Bit> = bits.into_iter().map(Bit::from).collect();
                let algorithm = if common {
                    Algorithm::CommonCoin
                } else {
                    Algorithm::LocalCoin
                };
                let delay = match delay_kind {
                    0 => DelayModel::Constant(700),
                    1 => DelayModel::Uniform { lo: 200, hi: 900 },
                    _ => DelayModel::Laggard {
                        slow: vec![ProcessId(0)],
                        factor: 7,
                        base: Box::new(DelayModel::Uniform { lo: 300, hi: 800 }),
                    },
                };
                let coin = match coin_kind {
                    0 => CoinSpec::Seeded,
                    1 => CoinSpec::Alternating,
                    _ => CoinSpec::Scripted(vec![false, true, true]),
                };
                Scenario::new(partition, algorithm)
                    .proposals(proposals)
                    .seed(seed)
                    .delay(delay)
                    .crashes(crashes)
                    .coin(coin)
                    .costs(CostModel::new().with_sm_op_cost(sm_cost))
                    .max_rounds(24)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serialization is lossless: serialize → deserialize → serialize
    /// yields byte-identical JSON, and the structured fields survive.
    #[test]
    fn scenario_serde_round_trips_losslessly(scenario in scenario_strategy()) {
        let json = serde_json::to_string(&scenario).expect("scenario serializes");
        let copy: Scenario = serde_json::from_str(&json).expect("scenario deserializes");
        let json2 = serde_json::to_string(&copy).expect("copy serializes");
        prop_assert_eq!(&json2, &json, "round trip must be byte-identical");
        prop_assert_eq!(copy.partition, scenario.partition);
        prop_assert_eq!(copy.proposals, scenario.proposals);
        prop_assert_eq!(copy.seed, scenario.seed);
        prop_assert_eq!(copy.crashes, scenario.crashes);
        prop_assert_eq!(copy.network, scenario.network);
        prop_assert_eq!(copy.churn, scenario.churn);
        prop_assert_eq!(copy.costs, scenario.costs);
        prop_assert_eq!(copy.config, scenario.config);
    }

    /// Replay: running the deserialized copy reproduces the original
    /// execution bit for bit (trace hash, decisions, counters).
    #[test]
    fn deserialized_scenario_replays_bit_for_bit(scenario in scenario_strategy()) {
        let json = serde_json::to_string(&scenario).expect("scenario serializes");
        let copy: Scenario = serde_json::from_str(&json).expect("scenario deserializes");
        let original = Sim.run(&scenario);
        let replayed = Sim.run(&copy);
        prop_assert_eq!(original.trace_hash, replayed.trace_hash);
        prop_assert!(original.trace_hash.is_some());
        prop_assert_eq!(original.decisions, replayed.decisions);
        prop_assert_eq!(original.halts, replayed.halts);
        prop_assert_eq!(original.counters, replayed.counters);
        prop_assert_eq!(original.events_processed, replayed.events_processed);
        // Whatever happened, it happened safely on both.
        prop_assert!(original.agreement_holds());
    }
}

/// The served scenario of the golden snapshot (a replicated log under
/// Poisson clients, duplicating network, a timed crash), as JSON.
fn served_scenario() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let snap: Snapshot = serde_json::from_str(include_str!("fixtures/served_snapshot.json"))
            .expect("the golden snapshot decodes");
        serde_json::to_string(&snap.scenario).expect("encodes")
    })
}

/// The scenario of every regression corpus entry, as JSON.
fn corpus_scenarios() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions");
        let entries = load_corpus(&dir).expect("the corpus loads");
        assert!(!entries.is_empty(), "the corpus has entries");
        (entries.iter())
            .map(|e| serde_json::to_string(&e.scenario).expect("encodes"))
            .collect()
    })
}

/// Refused by the decoder or by [`Scenario::validate`], or decoded to a
/// scenario whose encoding decodes back to itself; a panic fails the
/// test.
fn refuse_or_validate(bytes: &[u8]) {
    let Some(scenario) = std::str::from_utf8(bytes)
        .ok()
        .and_then(|text| serde_json::from_str::<Scenario>(text).ok())
    else {
        return;
    };
    let _ = scenario.validate();
    let json = serde_json::to_string(&scenario).expect("a decoded scenario encodes");
    let again: Scenario = serde_json::from_str(&json).expect("its encoding decodes");
    assert_eq!(
        serde_json::to_string(&again).expect("encodes"),
        json,
        "a decoded scenario re-encodes to the same bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// No stored scenario panics the decoder or `validate`: one changed
    /// byte of a served scenario.
    #[test]
    fn a_served_scenario_with_one_byte_changed_is_refused_or_validates(
        at in any::<usize>(),
        pick in any::<u8>(),
    ) {
        refuse_or_validate(&change_one_byte(served_scenario(), at, pick));
    }

    /// The same over the regression corpus: one changed byte of one
    /// entry's scenario.
    #[test]
    fn a_corpus_scenario_with_one_byte_changed_is_refused_or_validates(
        entry in any::<usize>(),
        at in any::<usize>(),
        pick in any::<u8>(),
    ) {
        let scenarios = corpus_scenarios();
        refuse_or_validate(&change_one_byte(&scenarios[entry % scenarios.len()], at, pick));
    }
}
