//! Checkpoint/restore is exact on the equivalence corpus: pausing a run
//! at **every** epoch boundary and chaining the legs back together must
//! reproduce the straight-through execution bit for bit — same
//! decisions, halts, crash sets, counters, per-process accounting,
//! multiset trace hash, event count, and `end_time` — on both event
//! engines, with snapshots surviving JSON serde and hopping between
//! engines mid-run. This is the contract that lets a time-budgeted run
//! (`ofa --budget-secs`) stop, save its [`Snapshot`], and let the next
//! invocation pick up where it left off without changing the result.

use one_for_all::prelude::{Backend, CrashPlan, Engine, Outcome, Scenario, Sim};
use one_for_all::scenario::{DelayModel, DivergeSpec, Snapshot, VirtualTime};
use one_for_all::sim::RunOutcome;
use one_for_all::topology::{Partition, ProcessId};
use proptest::prelude::*;

mod common;
use common::scenario_strategy;

/// Pin the parallel-engine core guard open (it is a perf heuristic, not
/// a correctness knob) so this suite exercises the parallel engine even
/// on a single-core CI box.
fn unlock_cores() {
    one_for_all::sim::override_available_cores(64);
}

/// Every deterministic observable must match; only wall-clock timing is
/// allowed to differ between a straight run and a chain of resumed legs.
fn assert_same_outcome(label: &str, a: &Outcome, b: &Outcome) {
    prop_assert_eq!(&a.decisions, &b.decisions, "{}: decisions", label);
    prop_assert_eq!(&a.halts, &b.halts, "{}: halts", label);
    prop_assert_eq!(&a.crashed, &b.crashed, "{}: crashed", label);
    prop_assert_eq!(
        a.all_correct_decided,
        b.all_correct_decided,
        "{}: all_correct_decided",
        label
    );
    prop_assert_eq!(a.counters, b.counters, "{}: counters", label);
    prop_assert_eq!(&a.per_process, &b.per_process, "{}: per_process", label);
    prop_assert_eq!(a.trace_hash, b.trace_hash, "{}: trace_hash", label);
    prop_assert_eq!(
        a.events_processed,
        b.events_processed,
        "{}: events_processed",
        label
    );
    prop_assert_eq!(a.end_time, b.end_time, "{}: end_time", label);
    prop_assert_eq!(
        a.latest_decision_time,
        b.latest_decision_time,
        "{}: latest_decision_time",
        label
    );
    prop_assert_eq!(a.sm_proposes, b.sm_proposes, "{}: sm_proposes", label);
    prop_assert_eq!(a.sm_objects, b.sm_objects, "{}: sm_objects", label);
    prop_assert_eq!(a.engine_used, b.engine_used, "{}: engine_used", label);
    // Service metrics ride the snapshot too: in-flight proposer queues
    // and partially-filled latency histograms must survive the cut.
    prop_assert_eq!(&a.service, &b.service, "{}: service", label);
}

/// Runs `scenario` as a chain of single-epoch legs — pause at every
/// multiple of the delay model's minimum (the parallel engine's epoch
/// length), resume, repeat — and returns the final outcome plus the
/// first and last snapshots captured along the way.
fn run_stepped(
    scenario: &Scenario,
) -> (Outcome, Option<Box<Snapshot>>, Option<Box<Snapshot>>, u64) {
    let step = scenario.network.min_delay();
    prop_assert!(step > 0, "corpus delay models have a positive minimum");
    let mut cut = step;
    let mut first: Option<Box<Snapshot>> = None;
    let mut last: Option<Box<Snapshot>> = None;
    let mut legs: u64 = 0;
    let mut pending = Sim.run_until(scenario, VirtualTime::from_ticks(cut));
    loop {
        legs += 1;
        prop_assert!(legs < 100_000, "stepped run did not converge");
        match pending {
            RunOutcome::Done(out) => return (out, first, last, legs),
            RunOutcome::Paused(snap) => {
                prop_assert_eq!(snap.at.ticks(), cut, "pause lands on the requested cut");
                if first.is_none() {
                    first = Some(snap.clone());
                }
                last = Some(snap.clone());
                cut += step;
                pending = Sim.resume_until(&snap, VirtualTime::from_ticks(cut));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole property, on the same 64-scenario corpus that proved
    /// engine equivalence: checkpointing at every epoch and resuming
    /// changes nothing. Additionally, resuming straight to completion
    /// from the first and from the last checkpoint (what a CI gate does
    /// with an uploaded artifact — via [`Backend::run_from`]) matches
    /// too, and the first snapshot survives a JSON round trip.
    #[test]
    fn every_epoch_checkpoint_resumes_bit_for_bit(scenario in scenario_strategy()) {
        unlock_cores();
        for engine in [Engine::EventDriven, Engine::ParallelEvent { workers: 3 }] {
            let scenario = scenario.clone().engine(engine);
            let straight = Sim.run(&scenario);
            let (stepped, first, last, _) = run_stepped(&scenario);
            assert_same_outcome("stepped chain", &straight, &stepped);
            // Runs short enough to finish inside the first epoch never
            // pause; otherwise every checkpoint must resume exactly.
            for (label, snap) in [("first", &first), ("last", &last)] {
                if let Some(snap) = snap {
                    assert_same_outcome(label, &straight, &Sim.run_from(snap));
                }
            }
            if let Some(snap) = &first {
                let json = serde_json::to_string(&**snap).expect("snapshot serializes");
                let copy: Snapshot = serde_json::from_str(&json).expect("snapshot deserializes");
                prop_assert_eq!(copy.at, snap.at);
                assert_same_outcome("serde round trip", &straight, &Sim.resume(&copy));
            }
        }
    }

    /// Snapshots are engine-independent: a checkpoint taken on the
    /// sequential event engine resumes on the parallel engine (and vice
    /// versa) to the same outcome, modulo the recorded engine.
    #[test]
    fn snapshots_hop_between_engines(scenario in scenario_strategy()) {
        unlock_cores();
        let seq = scenario.clone().engine(Engine::EventDriven);
        let straight = Sim.run(&seq);
        let cut = VirtualTime::from_ticks(2 * scenario.network.min_delay());
        for (from, to) in [
            (Engine::EventDriven, Engine::ParallelEvent { workers: 3 }),
            (Engine::ParallelEvent { workers: 3 }, Engine::EventDriven),
        ] {
            match Sim.run_until(&scenario.clone().engine(from), cut) {
                RunOutcome::Done(out) => {
                    // Finished before the cut: nothing to hop (engines
                    // may differ, so only the deterministic core fields
                    // are compared).
                    prop_assert_eq!(&straight.decisions, &out.decisions);
                    prop_assert_eq!(straight.trace_hash, out.trace_hash);
                    prop_assert_eq!(straight.end_time, out.end_time);
                }
                RunOutcome::Paused(mut snap) => {
                    snap.scenario = snap.scenario.clone().engine(to);
                    let hopped = Sim.resume(&snap);
                    // `engine_used` legitimately differs across the hop.
                    prop_assert_eq!(&straight.decisions, &hopped.decisions);
                    prop_assert_eq!(&straight.per_process, &hopped.per_process);
                    prop_assert_eq!(straight.counters, hopped.counters);
                    prop_assert_eq!(straight.trace_hash, hopped.trace_hash);
                    prop_assert_eq!(straight.events_processed, hopped.events_processed);
                    prop_assert_eq!(straight.end_time, hopped.end_time);
                }
            }
        }
    }
}

/// An event budget composes with checkpointing: a stepped run hits the
/// same budget cut as a straight run.
#[test]
fn budget_cut_is_identical_across_legs() {
    unlock_cores();
    for max_events in [40u64, 400] {
        let scenario = Scenario::new(Partition::even(9, 3), Algorithm::LocalCoin)
            .proposals_split(4)
            .max_events(max_events)
            .seed(5)
            .engine(Engine::EventDriven);
        let straight = Sim.run(&scenario);
        let (stepped, _, _, _) = run_stepped(&scenario);
        assert_eq!(straight.trace_hash, stepped.trace_hash);
        assert_eq!(straight.events_processed, stepped.events_processed);
        assert_eq!(straight.end_time, stepped.end_time);
    }
}

use one_for_all::consensus::Algorithm;
use one_for_all::prelude::ChurnPlan;

/// A churn scenario (leave + rejoin, with message loss and duplication)
/// checkpoints and resumes bit for bit on both event engines — including
/// when the cut falls *between* a leave and its rejoin, so the resumed
/// leg must fire a rejoin whose leave is pre-cut history.
#[test]
fn churn_scenario_checkpoints_between_leave_and_rejoin() {
    unlock_cores();
    for engine in [Engine::EventDriven, Engine::ParallelEvent { workers: 3 }] {
        let scenario = Scenario::new(Partition::even(9, 3), Algorithm::CommonCoin)
            .proposals_split(4)
            .delay(DelayModel::Constant(500))
            .loss_ppm(30_000)
            .dup_ppm(10_000)
            .churn(
                ChurnPlan::new()
                    .leave_rejoin(
                        ProcessId(2),
                        VirtualTime::from_ticks(900),
                        VirtualTime::from_ticks(2_600),
                    )
                    .leave(ProcessId(7), VirtualTime::from_ticks(1_400)),
            )
            .seed(23)
            .engine(engine);
        let straight = Sim.run(&scenario);
        // p7 left for good; p2 rejoined and is no longer down at the end.
        assert!(straight.crashed.contains(ProcessId(7)));
        assert!(!straight.crashed.contains(ProcessId(2)));
        // Cut between p3's leave (t=900) and its rejoin (t=2600).
        let snap = match Sim.run_until(&scenario, VirtualTime::from_ticks(1_500)) {
            RunOutcome::Paused(snap) => snap,
            RunOutcome::Done(_) => panic!("run must still be in flight at the cut"),
        };
        let resumed = Sim.resume(&snap);
        assert_eq!(straight.trace_hash, resumed.trace_hash);
        assert_eq!(straight.decisions, resumed.decisions);
        assert_eq!(straight.per_process, resumed.per_process);
        assert_eq!(straight.counters, resumed.counters);
        assert_eq!(straight.events_processed, resumed.events_processed);
        assert_eq!(straight.end_time, resumed.end_time);
    }
}

/// A cut *inside* lazy broadcasts: on the default network and costs
/// (`Uniform{500,1500}` delays, one tick per send) every start-up
/// broadcast is one heap entry that is about half delivered at t = 1000
/// (and the first phase-2 broadcasts have just joined them).
/// What is left of each leaves in the snapshot as the single deliveries
/// it stands for — the format has no half-drained form, and needs none —
/// duplicated destinations' copies included, and the run resumes to the
/// straight-through outcome on one shard and on three.
#[test]
fn checkpoint_inside_a_lazy_broadcast_resumes_bit_for_bit() {
    unlock_cores();
    let n = 12;
    let engines = [Engine::EventDriven, Engine::ParallelEvent { workers: 3 }];
    for dup_ppm in [0, 150_000] {
        let scenario = Scenario::new(Partition::even(n, 4), Algorithm::CommonCoin)
            .proposals_split(5)
            .dup_ppm(dup_ppm)
            .seed(31);
        // The straight-through run, per engine the tail resumes on.
        let straight = engines.map(|engine| Sim.run(&scenario.clone().engine(engine)));
        assert!(straight[0].all_correct_decided);
        for from in engines {
            let cut = VirtualTime::from_ticks(1_000);
            let mut snap = match Sim.run_until(&scenario.clone().engine(from), cut) {
                RunOutcome::Paused(snap) => snap,
                RunOutcome::Done(_) => panic!("run must still be in flight at the cut"),
            };
            let json = serde_json::to_string(&*snap).expect("snapshot serializes");
            let singles = json.matches("{\"One\":{\"at\":").count();
            assert!(
                singles > n,
                "dup={dup_ppm}: {singles} pending deliveries at the cut"
            );
            assert!(!json.contains("{\"Broadcast\":{\"at\":"), "dup={dup_ppm}");
            for (to, straight) in engines.into_iter().zip(&straight) {
                snap.scenario = snap.scenario.clone().engine(to);
                let what = format!("dup={dup_ppm} {from:?} -> {to:?}");
                assert_same_outcome(&what, straight, &Sim.resume(&snap));
            }
        }
    }
}

/// A cut *inside slot 0's proposal dissemination*: a traffic-driven log
/// on the default network and costs (`Uniform{500,1500}` delays, one
/// tick per send), where at t = 1000 about half of every replica's
/// `APP` broadcast has been delivered. Those proposals are in the
/// machines' proposal stores — a slot's own proposals never wait in the
/// mailbox stash — while the other half is still in flight; both halves
/// ride the snapshot (format unchanged), and the run resumes to the
/// straight-through outcome, service statistics included, on one shard
/// and on three.
#[test]
fn checkpoint_inside_an_app_storm_resumes_bit_for_bit() {
    unlock_cores();
    let n = 12;
    let engines = [Engine::EventDriven, Engine::ParallelEvent { workers: 3 }];
    let spec = TrafficSpec {
        arrival: ArrivalProcess::Poisson { mean_gap: 150 },
        clients: 2 * n as u64,
        queue_cap: 16,
        batch_max: 4,
        batch_min: 0,
    };
    for dup_ppm in [0, 150_000] {
        let scenario = Scenario::new(Partition::even(n, 4), Algorithm::CommonCoin)
            .replicated_log_traffic(Algorithm::CommonCoin, 3, spec)
            .dup_ppm(dup_ppm)
            .seed(37);
        let straight = engines.map(|engine| Sim.run(&scenario.clone().engine(engine)));
        assert!(straight[0].all_correct_decided);
        assert!(straight[0].service.committed > 0);
        for from in engines {
            let cut = VirtualTime::from_ticks(1_000);
            let mut snap = match Sim.run_until(&scenario.clone().engine(from), cut) {
                RunOutcome::Paused(snap) => snap,
                RunOutcome::Done(_) => panic!("run must still be in flight at the cut"),
            };
            // Proposals on both sides of the cut, none in a stash.
            let json = serde_json::to_string(&*snap).expect("snapshot serializes");
            let in_flight = json.matches("\"msg\":{\"App\":").count();
            assert!(
                in_flight > n,
                "dup={dup_ppm}: {in_flight} proposals in flight"
            );
            assert!(
                !json.contains("\"apps\":[{"),
                "dup={dup_ppm}: a stashed proposal"
            );
            let copy: Snapshot = serde_json::from_str(&json).expect("snapshot deserializes");
            assert_eq!(copy.at, snap.at);
            for (to, straight) in engines.into_iter().zip(&straight) {
                snap.scenario = snap.scenario.clone().engine(to);
                let what = format!("dup={dup_ppm} {from:?} -> {to:?}");
                assert_same_outcome(&what, straight, &Sim.resume(&snap));
            }
        }
    }
}

/// Diverging with an empty spec is exactly a resume; diverging with an
/// extra post-cut crash equals a straight run whose crash plan carried
/// that trigger from the start (pre-cut history is unaffected by a
/// time-based trigger that fires later).
#[test]
fn diverge_rewrites_only_the_tail() {
    unlock_cores();
    let scenario = Scenario::new(Partition::even(8, 2), Algorithm::CommonCoin)
        .proposals_split(3)
        .delay(DelayModel::Constant(500))
        .seed(17)
        .engine(Engine::EventDriven);
    let cut = VirtualTime::from_ticks(800);
    let snap = match Sim.run_until(&scenario, cut) {
        RunOutcome::Paused(snap) => snap,
        RunOutcome::Done(_) => panic!("run must still be in flight at the cut"),
    };

    // Empty spec: identical to the straight-through run.
    let straight = Sim.run(&scenario);
    let replay = Sim.diverge(&snap, &DivergeSpec::new());
    assert_eq!(straight.trace_hash, replay.trace_hash);
    assert_eq!(straight.decisions, replay.decisions);
    assert_eq!(straight.end_time, replay.end_time);

    // Post-cut crash: equals the straight run that always had it. The
    // trigger sits just past the cut, well before the earliest decision
    // (~t=1566 for this seed), so it fires while the protocol is still
    // in flight.
    let crash_at = VirtualTime::from_ticks(1_000);
    let spec = DivergeSpec::new().crashes(CrashPlan::new().crash_at_time(ProcessId(1), crash_at));
    let diverged = Sim.diverge(&snap, &spec);
    let with_crash = Sim.run(
        &scenario.clone().crashes(
            scenario
                .crashes
                .clone()
                .crash_at_time(ProcessId(1), crash_at),
        ),
    );
    assert!(diverged.crashed.contains(ProcessId(1)));
    assert_eq!(with_crash.trace_hash, diverged.trace_hash);
    assert_eq!(with_crash.decisions, diverged.decisions);
    assert_eq!(with_crash.per_process, diverged.per_process);
    assert_eq!(with_crash.end_time, diverged.end_time);

    // Seed and coin overrides are deterministic: the same divergence
    // twice is the same world.
    let spec = DivergeSpec::new().seed(999);
    let once = Sim.diverge(&snap, &spec);
    let twice = Sim.diverge(&snap, &spec);
    assert_eq!(once.trace_hash, twice.trace_hash);
    assert_eq!(once.decisions, twice.decisions);
    assert_eq!(once.end_time, twice.end_time);
}

use one_for_all::consensus::{ArrivalProcess, TrafficSpec};

/// A traffic-driven replicated log checkpoints **mid-burst** and resumes
/// bit for bit on both event engines: bursts of 6 commands against a
/// batch cap of 2 keep proposer queues non-empty across cuts, and
/// commits land throughout the run, so stepping at every epoch is
/// guaranteed to cut through states with queued in-flight commands and a
/// partially-filled latency histogram — all of which must ride the
/// snapshot (including through JSON) without changing the final service
/// stats.
#[test]
fn traffic_checkpoint_mid_burst_resumes_bit_for_bit() {
    unlock_cores();
    let spec = TrafficSpec {
        arrival: ArrivalProcess::Bursty {
            burst: 6,
            period: 2_000,
            phase: 100,
        },
        clients: 9,
        queue_cap: 8,
        batch_max: 2,
        batch_min: 0,
    };
    for engine in [Engine::EventDriven, Engine::ParallelEvent { workers: 3 }] {
        let scenario = Scenario::new(Partition::even(9, 3), Algorithm::LocalCoin)
            .replicated_log_traffic(Algorithm::LocalCoin, 6, spec)
            .delay(DelayModel::Constant(500))
            .seed(29)
            .engine(engine);
        let straight = Sim.run(&scenario);
        // The workload is non-trivial: commands queued beyond one batch
        // (the mid-burst state a cut must capture), commits measured.
        assert!(straight.service.submitted > 0, "{:?}", straight.service);
        assert!(straight.service.committed > 0, "{:?}", straight.service);
        assert!(
            straight.service.max_queue_depth > 2,
            "bursts must outrun the batch cap: {:?}",
            straight.service
        );
        assert!(!straight.service.latency.is_empty());
        // Pause at every epoch boundary and chain the legs.
        let (stepped, first, _, legs) = run_stepped(&scenario);
        assert!(legs > 2, "the run must span several epochs");
        assert_same_outcome("mid-burst stepped chain", &straight, &stepped);
        // A single snapshot also survives JSON — queued commands, per-
        // client think-time state, and histogram buckets all serialize.
        let snap = first.expect("the run pauses at least once");
        let json = serde_json::to_string(&*snap).expect("snapshot serializes");
        let copy: Snapshot = serde_json::from_str(&json).expect("snapshot deserializes");
        let resumed = Sim.resume(&copy);
        assert_same_outcome("mid-burst serde resume", &straight, &resumed);
    }
}
