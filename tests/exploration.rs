//! Integration: exhaustive schedule exploration of small systems.

use one_for_all::consensus::{Algorithm, Bit, ProtocolConfig};
use one_for_all::scenario::CrashPlan;
use one_for_all::sim::Explorer;
use one_for_all::topology::{Partition, ProcessId};

#[test]
fn two_cluster_three_process_system_is_safe_on_thousands_of_schedules() {
    for algorithm in Algorithm::ALL {
        let report = Explorer::new(Partition::from_sizes(&[2, 1]).unwrap(), algorithm)
            .proposals_split(1)
            .max_rounds(1)
            .max_schedules(4_000)
            .run();
        assert!(report.is_safe(), "{algorithm}: {report:?}");
        assert!(report.schedules_run >= 100, "{algorithm}: {report:?}");
    }
}

#[test]
fn exploration_with_a_crashed_member_keeps_amplification_sound() {
    // p2 of the 2-cluster crashes at start: p1 alone represents P[1].
    let report = Explorer::new(
        Partition::from_sizes(&[2, 1]).unwrap(),
        Algorithm::CommonCoin,
    )
    .proposals(vec![Bit::One, Bit::Zero, Bit::Zero])
    .crashes(CrashPlan::new().crash_at_start(ProcessId(1)))
    .max_rounds(2)
    .max_schedules(3_000)
    .run();
    assert!(report.is_safe(), "{report:?}");
}

#[test]
fn ablation_violations_are_reachable_by_exploration() {
    // Without cluster pre-agreement, amplification is unsound: in
    // {p1,p2} {p3} with p1 proposing 1 and p2 proposing 0, a receiver
    // whose first delivery is p1's message exits the phase-1 exchange with
    // est2 = 1 (the whole cluster credited), while one that hears p2 first
    // exits with est2 = 0 — a WA1 violation two deliveries deep, which the
    // explorer must find.
    let report = Explorer::new(
        Partition::from_sizes(&[2, 1]).unwrap(),
        Algorithm::LocalCoin,
    )
    .config(ProtocolConfig::ablation_no_preagree().with_max_rounds(1))
    .proposals(vec![Bit::One, Bit::Zero, Bit::Zero])
    .max_schedules(4_000)
    .run();
    assert!(
        report.invariant_violations > 0,
        "exploration should find a WA1-breaking schedule: {report:?}"
    );
    // The faithful configuration is clean on the same scenario.
    let clean = Explorer::new(
        Partition::from_sizes(&[2, 1]).unwrap(),
        Algorithm::LocalCoin,
    )
    .max_rounds(1)
    .proposals(vec![Bit::One, Bit::Zero, Bit::Zero])
    .max_schedules(4_000)
    .run();
    assert!(clean.is_safe(), "{clean:?}");
}

#[test]
fn unanimous_input_decides_it_on_every_schedule() {
    // Local coin: unanimity decides in round 1 on *every* schedule (the
    // common-coin variant would additionally need a matching coin).
    let report = Explorer::new(Partition::from_sizes(&[3]).unwrap(), Algorithm::LocalCoin)
        .proposals(vec![Bit::Zero; 3])
        .max_rounds(1)
        .max_schedules(3_000)
        .run();
    assert!(report.is_safe());
    assert!(report.values_decided[0]);
    assert!(!report.values_decided[1], "validity on all schedules");
    assert_eq!(report.schedules_with_undecided, 0);
}
