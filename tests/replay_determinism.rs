//! Integration: bit-for-bit deterministic replay of whole executions.

use one_for_all::consensus::Algorithm;
use one_for_all::prelude::{Backend, CrashPlan, Outcome, Scenario, Sim};
use one_for_all::scenario::DelayModel;
use one_for_all::topology::{Partition, ProcessId};

fn scenario(seed: u64, keep: bool) -> Scenario {
    let mut sc = Scenario::new(Partition::fig1_right(), Algorithm::LocalCoin)
        .proposals_split(3)
        .delay(DelayModel::Uniform { lo: 100, hi: 900 })
        .crashes(CrashPlan::new().crash_at_step(ProcessId(6), 9))
        .seed(seed);
    if keep {
        sc = sc.keep_trace();
    }
    sc
}

fn run(seed: u64, keep: bool) -> Outcome {
    Sim.run(&scenario(seed, keep))
}

#[test]
fn same_seed_replays_identically() {
    let a = run(7, false);
    let b = run(7, false);
    assert_eq!(a.trace_hash, b.trace_hash);
    assert!(a.trace_hash.is_some());
    assert_eq!(a.decided_value, b.decided_value);
    assert_eq!(a.latest_decision_time, b.latest_decision_time);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.decisions, b.decisions);
}

#[test]
fn serde_round_tripped_scenario_replays_identically() {
    // The scenario value itself is the replay artifact: serialize, parse
    // back, re-run — same trace hash.
    let sc = scenario(21, false);
    let json = serde_json::to_string(&sc).expect("scenario serializes");
    let replay: Scenario = serde_json::from_str(&json).expect("scenario parses");
    let a = Sim.run(&sc);
    let b = Sim.run(&replay);
    assert_eq!(a.trace_hash, b.trace_hash);
    assert_eq!(a.decisions, b.decisions);
}

#[test]
fn different_seeds_schedule_differently() {
    let hashes: Vec<u64> = (0..8)
        .map(|s| run(s, false).trace_hash.expect("sim always hashes"))
        .collect();
    let distinct: std::collections::HashSet<u64> = hashes.iter().copied().collect();
    assert!(
        distinct.len() >= 7,
        "8 seeds should give (almost) 8 schedules: {hashes:?}"
    );
}

#[test]
fn trace_retention_does_not_change_the_execution() {
    let lean = run(11, false);
    let fat = run(11, true);
    assert_eq!(lean.trace_hash, fat.trace_hash);
    assert!(lean.events.is_none());
    let events = fat.events.expect("trace kept");
    assert_eq!(events.len() as u64, {
        // hash-only recorder counted the same number of events
        let mut recorder = one_for_all::scenario::TraceRecorder::new(false);
        for e in &events {
            recorder.record(e.at, e.event);
        }
        recorder.count()
    });
}

#[test]
fn crash_timing_is_part_of_the_replayed_state() {
    // Same seed but different crash step: different trace.
    let base = run(3, false);
    let shifted = Sim.run(
        &Scenario::new(Partition::fig1_right(), Algorithm::LocalCoin)
            .proposals_split(3)
            .delay(DelayModel::Uniform { lo: 100, hi: 900 })
            .crashes(CrashPlan::new().crash_at_step(ProcessId(6), 10))
            .seed(3),
    );
    assert_ne!(base.trace_hash, shifted.trace_hash);
}
