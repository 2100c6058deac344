//! Integration: adversarial delays and adversarial coins.
//!
//! The model allows arbitrary finite message delays and the adversary
//! controls scheduling — but not the coins. These tests push both knobs:
//! a laggard cluster whose links are 50× slower, and pinned coins that
//! either stall the common-coin algorithm (indulgence) or force its
//! deciding round.

use one_for_all::consensus::{Algorithm, Bit, InvariantChecker};
use one_for_all::prelude::{Backend, CoinSpec, Scenario, Sim};
use one_for_all::scenario::DelayModel;
use one_for_all::topology::{Partition, ProcessId};
use std::sync::Arc;

#[test]
fn laggard_cluster_does_not_block_the_rest() {
    // Fig 1 right: make P[3] = {p6, p7} 50x slower. P[1] ∪ P[2] covers
    // 5 of 7 — a majority — so decisions cannot wait on the laggards.
    let partition = Partition::fig1_right();
    let slow = vec![ProcessId(5), ProcessId(6)];
    for seed in 0..5 {
        let checker = Arc::new(InvariantChecker::new());
        let out = Sim.run(
            &Scenario::new(partition.clone(), Algorithm::CommonCoin)
                .proposals_split(3)
                .delay(DelayModel::Laggard {
                    slow: slow.clone(),
                    factor: 50,
                    base: Box::new(DelayModel::Uniform { lo: 500, hi: 1500 }),
                })
                .observer(checker.clone())
                .seed(seed),
        );
        assert!(out.all_correct_decided, "seed {seed}");
        assert!(out.agreement_holds());
        checker.assert_clean();
        // The fastest deciders should not be the laggards.
        let fast_decided: Vec<u64> = (0..5)
            .filter_map(|i| out.decisions[i].map(|d| d.round))
            .collect();
        assert_eq!(fast_decided.len(), 5);
    }
}

#[test]
fn adversarial_common_coin_stalls_safely() {
    // Everyone proposes 1 but the "common coin" always returns 0: Algorithm 3
    // can never pass its line-9 test. Indulgence: no termination, no
    // wrong decision — and the estimate never drifts off 1.
    let out = Sim.run(
        &Scenario::new(Partition::even(4, 2), Algorithm::CommonCoin)
            .proposals_all(Bit::One)
            .coin(CoinSpec::Constant(Bit::Zero))
            .max_rounds(12)
            .seed(1),
    );
    assert_eq!(out.trace_hash, Some(0x4258_a06d_c7ce_65aa));
    assert_eq!(out.events_processed, 192);
    assert_eq!(out.deciders(), 0, "coin never matches: no decision");
    assert!(out.agreement_holds());
    // All processes ran out the round budget rather than crashing.
    assert!(out
        .halts
        .iter()
        .all(|h| *h == Some(one_for_all::consensus::Halt::Stopped)));
}

#[test]
fn matching_coin_decides_immediately() {
    let out = Sim.run(
        &Scenario::new(Partition::even(4, 2), Algorithm::CommonCoin)
            .proposals_all(Bit::One)
            .coin(CoinSpec::Constant(Bit::One))
            .seed(1),
    );
    assert_eq!(out.trace_hash, Some(0xfae8_f1da_5fea_baec));
    assert_eq!(out.events_processed, 32);
    assert!(out.all_correct_decided);
    assert_eq!(out.decided_value, Some(Bit::One));
    assert_eq!(out.max_decision_round, 1);
}

#[test]
fn scripted_coin_pins_the_deciding_round() {
    // Unanimous 1s; coin reads 0, 0, 1, ... — every process must decide in
    // exactly round 3.
    let out = Sim.run(
        &Scenario::new(Partition::single_cluster(3), Algorithm::CommonCoin)
            .proposals_all(Bit::One)
            .coin(CoinSpec::Scripted(vec![false, false, true]))
            .seed(9),
    );
    assert_eq!(out.trace_hash, Some(0xe46b_4184_1aa7_145f));
    assert_eq!(out.events_processed, 36);
    assert!(out.all_correct_decided);
    for d in out.decisions.iter().flatten() {
        assert_eq!(d.value, Bit::One);
        assert_eq!(d.round, 3, "decision must wait for the matching coin");
    }
}

#[test]
fn extreme_delay_variance_is_survivable() {
    // Delays spanning three orders of magnitude.
    for seed in 0..4 {
        let out = Sim.run(
            &Scenario::new(Partition::even(6, 3), Algorithm::LocalCoin)
                .proposals_split(3)
                .delay(DelayModel::Uniform { lo: 10, hi: 20_000 })
                .seed(seed),
        );
        assert!(out.all_correct_decided, "seed {seed}");
        assert!(out.agreement_holds());
    }
}
