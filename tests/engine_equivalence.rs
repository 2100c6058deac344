//! The event-driven engines are drop-in replacements for the thread
//! conductor: for any declarative [`Scenario`] — random partition ×
//! **body kind (binary algorithm, multivalued workload, replicated
//! log)** × failure pattern × **network model (flat or clustered link
//! classes, lognormal jitter, asymmetric overrides, probabilistic loss
//! and duplication)** × **churn (leaves and rejoins)** × cost model ×
//! coin × seed —
//! all three engines (`Threads` × `EventDriven` × `ParallelEvent`) must
//! produce the **same** [`Outcome`]: per-process decisions, halts, crash
//! sets, agreement, counters, event counts, **client-service metrics
//! (submitted/committed/shed counts, batch counts, queue high-water
//! marks, and the full latency histogram — the corpus crosses arrival
//! processes with backpressure limits)**, and the replay trace hash, bit
//! for bit. The parallel engine must additionally be invariant under the
//! worker count.
//!
//! This is the contract that lets every existing test, experiment, and
//! scenario corpus move to the scalable engines without re-validation —
//! and what justified flipping `Scenario`'s default engine to
//! [`Engine::EventDriven`].

use one_for_all::consensus::{Algorithm, ArrivalProcess, TrafficSpec};
use one_for_all::prelude::{Backend, Engine, Partition, Scenario, Sim};
use proptest::prelude::*;

mod common;
use common::scenario_strategy;

/// The parallel-engine core guard is a perf heuristic (more shards than
/// cores falls back to `EventDriven`); pin a big count so this suite
/// exercises the parallel engine even on a single-core CI box — the
/// determinism contract never depends on the host's parallelism.
fn unlock_cores() {
    one_for_all::sim::override_available_cores(64);
}

/// A fixed traffic-driven replicated log actually serves commands — the
/// proptest corpus above proves traffic scenarios *match* across
/// engines; this pins that the dimension is not vacuous (commands are
/// submitted, batched, committed, and measured) and that the identical
/// service stats include a non-empty latency histogram. It does so on a
/// reliable network, under 1 % message loss, and with one replica
/// leaving and rejoining mid-run, where every replica that never left
/// decides, the offered load still covers what was committed and shed,
/// and the latency percentiles stay ordered.
#[test]
fn traffic_scenario_serves_commands_identically_on_all_engines() {
    unlock_cores();
    let spec = TrafficSpec {
        arrival: ArrivalProcess::Poisson { mean_gap: 120 },
        clients: 8,
        queue_cap: 16,
        batch_max: 4,
        batch_min: 0,
    };
    let churn = ChurnPlan::new().leave_rejoin(
        ProcessId(5),
        VirtualTime::from_ticks(1_500),
        VirtualTime::from_ticks(6_000),
    );
    for (what, loss_ppm, churn, churned) in [
        ("reliable", 0, ChurnPlan::new(), 0),
        ("1% loss", 10_000, ChurnPlan::new(), 0),
        ("churn", 0, churn, 1),
    ] {
        let scenario = Scenario::new(Partition::even(8, 4), Algorithm::LocalCoin)
            .replicated_log_traffic(Algorithm::LocalCoin, 4, spec)
            .loss_ppm(loss_ppm)
            .churn(churn)
            .seed(11);
        let threads = Sim.run(&scenario.clone().engine(Engine::Threads));
        let event = Sim.run(&scenario.clone().engine(Engine::EventDriven));
        let par = Sim.run(&scenario.parallel(4));
        assert_eq!(
            par.engine_used,
            Some(Engine::ParallelEvent { workers: 4 }),
            "{what}"
        );
        assert_eq!(threads.service, event.service, "{what}");
        assert_eq!(threads.service, par.service, "{what}");
        assert_eq!(threads.trace_hash, event.trace_hash, "{what}");
        assert_eq!(threads.trace_hash, par.trace_hash, "{what}");
        // Every replica that never left decides (the one that left at
        // t1500 may rejoin too late to).
        assert!(
            threads.deciders() >= 8 - churned,
            "{what}: only {} replicas decided",
            threads.deciders()
        );
        let s = &threads.service;
        assert!(s.submitted > 0, "{what}: clients submitted nothing: {s:?}");
        assert!(s.committed > 0, "{what}: nothing committed: {s:?}");
        assert!(s.batches > 0, "{what}: no batches decided: {s:?}");
        assert!(
            s.max_queue_depth > 0,
            "{what}: queue gauge never moved: {s:?}"
        );
        assert!(
            !s.latency.is_empty(),
            "{what}: empty latency histogram: {s:?}"
        );
        assert_eq!(s.latency.total(), s.committed, "{what}");
        let offered = s.submitted + s.shed;
        assert!(offered >= s.committed + s.shed, "{what}: {s:?}");
        assert!(
            s.latency.percentile(99) >= s.latency.percentile(50),
            "{what}: percentiles are monotone: {s:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The acceptance corpus: >= 50 random seeded scenarios, each run on
    /// all three engines, must match on every observable — not just the
    /// safety predicates but the entire outcome including the replay
    /// hash. The hash is an order-independent multiset hash (so shard
    /// partials can merge), pinning the executions to the same multiset
    /// of timestamped events; the *order* is pinned indirectly, because
    /// any reordering that changes some process's delivery sequence also
    /// changes that process's behavior — and with it the per-process
    /// counters, decisions, and clocks asserted below.
    #[test]
    fn all_three_engines_produce_identical_outcomes(scenario in scenario_strategy()) {
        unlock_cores();
        // The E9 ablation preset (amplification without cluster
        // pre-agreement) deliberately breaks WA1, so agreement may
        // genuinely fail there — the multi-instance bodies hit this far
        // more often than single-shot consensus does.
        let config_is_sound = scenario.config.cluster_preagree || !scenario.config.amplify;
        let m = scenario.partition.m();
        let threads = Sim.run(&scenario.clone().engine(Engine::Threads));
        let par = Sim.run(&scenario.clone().parallel(3));
        let event = Sim.run(&scenario.engine(Engine::EventDriven));
        // The engine actually used is recorded, not guessed: every body
        // in this corpus is declarative and every delay model has a
        // positive minimum, so the only parallel fallback is the shard
        // count (single-cluster partitions have nothing to shard).
        prop_assert_eq!(threads.engine_used, Some(Engine::Threads));
        prop_assert_eq!(event.engine_used, Some(Engine::EventDriven));
        let expected_par = if m >= 2 {
            Engine::ParallelEvent { workers: 3.min(m as u64) }
        } else {
            Engine::EventDriven
        };
        prop_assert_eq!(par.engine_used, Some(expected_par));
        // The acceptance predicates…
        prop_assert_eq!(
            threads.decisions.iter().map(|d| d.map(|d| d.value)).collect::<Vec<_>>(),
            event.decisions.iter().map(|d| d.map(|d| d.value)).collect::<Vec<_>>(),
            "decided values diverged"
        );
        prop_assert_eq!(threads.agreement_holds(), event.agreement_holds());
        prop_assert_eq!(threads.deciders(), event.deciders());
        // …and the full execution fingerprint, pairwise across engines.
        for other in [&event, &par] {
            prop_assert_eq!(&threads.decisions, &other.decisions);
            prop_assert_eq!(&threads.halts, &other.halts);
            prop_assert_eq!(&threads.crashed, &other.crashed);
            prop_assert_eq!(threads.all_correct_decided, other.all_correct_decided);
            prop_assert_eq!(threads.counters, other.counters);
            prop_assert_eq!(&threads.per_process, &other.per_process);
            prop_assert_eq!(threads.trace_hash, other.trace_hash);
            prop_assert!(threads.trace_hash.is_some());
            prop_assert_eq!(threads.events_processed, other.events_processed);
            prop_assert_eq!(threads.end_time, other.end_time);
            prop_assert_eq!(threads.latest_decision_time, other.latest_decision_time);
            prop_assert_eq!(threads.sm_proposes, other.sm_proposes);
            prop_assert_eq!(threads.sm_objects, other.sm_objects);
            // Service metrics are part of the contract too: arrivals are
            // pure functions of (seed, client, k) compared against the
            // process-local virtual clock, so every engine must see the
            // same submissions, sheds, batches, queue high-water marks,
            // and the identical latency histogram.
            prop_assert_eq!(&threads.service, &other.service);
        }
        // Under sound configurations, whatever happened happened safely
        // (the ablation preset exists precisely to violate this).
        if config_is_sound {
            prop_assert!(threads.agreement_holds());
        }
    }

    /// The parallel engine is a function of the scenario alone, not of
    /// the pool size: any two worker counts (and repeated runs) produce
    /// identical outcomes on every field except the recorded engine.
    #[test]
    fn parallel_engine_is_invariant_under_worker_count(scenario in scenario_strategy()) {
        unlock_cores();
        let two = Sim.run(&scenario.clone().parallel(2));
        let many = Sim.run(&scenario.clone().parallel(7));
        let again = Sim.run(&scenario.parallel(7));
        prop_assert_eq!(&two.decisions, &many.decisions);
        prop_assert_eq!(&two.halts, &many.halts);
        prop_assert_eq!(two.counters, many.counters);
        prop_assert_eq!(&two.per_process, &many.per_process);
        prop_assert_eq!(two.trace_hash, many.trace_hash);
        prop_assert_eq!(two.events_processed, many.events_processed);
        prop_assert_eq!(two.end_time, many.end_time);
        prop_assert_eq!(&two.service, &many.service);
        prop_assert_eq!(many.trace_hash, again.trace_hash);
        prop_assert_eq!(&many.decisions, &again.decisions);
        prop_assert_eq!(many.engine_used, again.engine_used);
    }

    /// The engine knob and the workload bodies survive serde, and a
    /// deserialized event-driven scenario replays the original execution
    /// bit for bit.
    #[test]
    fn event_driven_scenarios_serde_round_trip_and_replay(scenario in scenario_strategy()) {
        let scenario = scenario.engine(Engine::EventDriven);
        let json = serde_json::to_string(&scenario).expect("scenario serializes");
        let copy: Scenario = serde_json::from_str(&json).expect("scenario deserializes");
        prop_assert_eq!(copy.engine, Engine::EventDriven);
        prop_assert_eq!(&copy.body, &scenario.body, "bodies round-trip");
        let original = Sim.run(&scenario);
        let replayed = Sim.run(&copy);
        prop_assert_eq!(original.trace_hash, replayed.trace_hash);
        prop_assert_eq!(original.decisions, replayed.decisions);
    }
}

use one_for_all::prelude::{NetworkModel, Outcome};
use one_for_all::scenario::{CostModel, DelayModel};

/// Every field `all_three_engines_produce_identical_outcomes` compares,
/// for the fixed (non-proptest) cases below.
fn assert_same_run(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.decisions, b.decisions, "{what}: decisions");
    assert_eq!(a.halts, b.halts, "{what}: halts");
    assert_eq!(a.crashed, b.crashed, "{what}: crashed");
    assert_eq!(
        a.all_correct_decided, b.all_correct_decided,
        "{what}: all_correct_decided"
    );
    assert_eq!(a.counters, b.counters, "{what}: counters");
    assert_eq!(a.per_process, b.per_process, "{what}: per_process");
    assert_eq!(a.trace_hash, b.trace_hash, "{what}: trace_hash");
    assert_eq!(
        a.events_processed, b.events_processed,
        "{what}: events_processed"
    );
    assert_eq!(a.end_time, b.end_time, "{what}: end_time");
    assert_eq!(
        a.latest_decision_time, b.latest_decision_time,
        "{what}: latest_decision_time"
    );
    assert_eq!(a.sm_proposes, b.sm_proposes, "{what}: sm_proposes");
    assert_eq!(a.sm_objects, b.sm_objects, "{what}: sm_objects");
    assert_eq!(a.service, b.service, "{what}: service");
}

/// Networks whose minimum delay is zero give the sharded loop no
/// lookahead window, so a parallel request runs as one shard — and that
/// one shard must order same-instant events (zero delay *and* zero
/// costs put whole rounds on one tick; a duplicate's extra delay may be
/// zero too) exactly like the conductor does.
#[test]
fn zero_lookahead_networks_match_on_all_engines() {
    unlock_cores();
    let zero_costs = CostModel {
        send_cost: 0,
        recv_cost: 0,
        sm_op_cost: 0,
        coin_cost: 0,
    };
    for delay in [
        DelayModel::Constant(0),
        DelayModel::Uniform { lo: 0, hi: 40 },
    ] {
        for costs in [CostModel::new(), zero_costs] {
            for dup_ppm in [0, 150_000] {
                for (seed, algorithm) in [
                    (3u64, Algorithm::LocalCoin),
                    (4, Algorithm::CommonCoin),
                    (5, Algorithm::LocalCoin),
                ] {
                    let what = format!("{delay:?} {costs:?} dup={dup_ppm} seed={seed}");
                    let scenario = Scenario::new(Partition::even(9, 3), algorithm)
                        .proposals_split(4)
                        .network(NetworkModel::flat(delay.clone()).with_dup_ppm(dup_ppm))
                        .costs(costs)
                        .max_rounds(24)
                        .seed(seed);
                    let threads = Sim.run(&scenario.clone().engine(Engine::Threads));
                    let event = Sim.run(&scenario.clone().engine(Engine::EventDriven));
                    let par = Sim.run(&scenario.parallel(3));
                    assert_eq!(threads.engine_used, Some(Engine::Threads), "{what}");
                    assert_eq!(event.engine_used, Some(Engine::EventDriven), "{what}");
                    assert_eq!(
                        par.engine_used,
                        Some(Engine::EventDriven),
                        "{what}: no lookahead, so the request resolves to one shard"
                    );
                    assert_same_run(&threads, &event, &what);
                    assert_same_run(&threads, &par, &what);
                    assert!(threads.agreement_holds(), "{what}");
                }
            }
        }
    }
}

/// An event budget that runs out *inside* a batched broadcast: with a
/// constant delay and zero send cost every broadcast is one heap entry
/// expanding to `n` deliveries, so event counts at broadcast boundaries
/// are multiples of `n` until the first duplicate or mid-broadcast
/// crash. Sweeping `max_events` over `2n` consecutive values therefore
/// cuts at every offset inside a broadcast (and on both sides of a
/// boundary); every engine and shard count must stop after the same
/// event prefix.
#[test]
fn event_budget_inside_a_batched_broadcast_cuts_identically() {
    unlock_cores();
    let n = 12u64;
    for dup_ppm in [0, 80_000] {
        let base = Scenario::new(Partition::even(n as usize, 4), Algorithm::CommonCoin)
            .proposals_split(5)
            .network(NetworkModel::flat(DelayModel::Constant(700)).with_dup_ppm(dup_ppm))
            .costs(CostModel {
                send_cost: 0,
                recv_cost: 1,
                sm_op_cost: 3,
                coin_cost: 1,
            })
            .seed(21);
        let total = Sim.run(&base.clone().event_driven()).events_processed;
        assert!(total > 6 * n, "the run must span several broadcasts");
        // One window around the second broadcast's end, one mid-run.
        for boundary in [2 * n, (total / (2 * n)) * n] {
            for max_events in (boundary - n)..(boundary + n) {
                let what = format!("dup={dup_ppm} max_events={max_events}");
                let scenario = base.clone().max_events(max_events);
                let threads = Sim.run(&scenario.clone().engine(Engine::Threads));
                assert_eq!(threads.events_processed, max_events, "{what}");
                let event = Sim.run(&scenario.clone().engine(Engine::EventDriven));
                assert_eq!(event.engine_used, Some(Engine::EventDriven), "{what}");
                assert_same_run(&threads, &event, &what);
                for workers in [2, 3] {
                    let par = Sim.run(&scenario.clone().parallel(workers));
                    assert_eq!(
                        par.engine_used,
                        Some(Engine::ParallelEvent { workers }),
                        "{what}"
                    );
                    assert_same_run(&threads, &par, &format!("{what} par={workers}"));
                }
            }
        }
    }
}

/// An event budget that runs out *inside* a lazy broadcast: under
/// sampled delays (or a per-send cost) a broadcast is one heap entry
/// delivering one destination per pop, interleaved with every other
/// broadcast in flight. A shard's pending count must include each such
/// entry's undelivered destinations and its window keys must list them,
/// or the coordinator never cuts the epoch at the globally
/// `max_events`-th event. Sweeping `max_events` over `2n` consecutive
/// values early and mid-run cuts at every offset; every engine and shard
/// count must stop after the same event prefix.
#[test]
fn event_budget_inside_a_lazy_broadcast_cuts_identically() {
    unlock_cores();
    let n = 12u64;
    for send_cost in [0, 1] {
        for dup_ppm in [0, 150_000] {
            let base = Scenario::new(Partition::even(n as usize, 4), Algorithm::CommonCoin)
                .proposals_split(5)
                .network(
                    NetworkModel::flat(DelayModel::Uniform { lo: 300, hi: 900 })
                        .with_dup_ppm(dup_ppm),
                )
                .costs(CostModel {
                    send_cost,
                    recv_cost: 1,
                    sm_op_cost: 3,
                    coin_cost: 1,
                })
                .seed(21);
            let total = Sim.run(&base.clone().event_driven()).events_processed;
            assert!(total > 2 * n * n, "the run must span several exchanges");
            // One window inside the start-up broadcasts, one mid-run.
            for centre in [2 * n, total / 2] {
                for max_events in (centre - n)..(centre + n) {
                    let what = format!("send={send_cost} dup={dup_ppm} max_events={max_events}");
                    let scenario = base.clone().max_events(max_events);
                    let threads = Sim.run(&scenario.clone().engine(Engine::Threads));
                    assert_eq!(threads.events_processed, max_events, "{what}");
                    let event = Sim.run(&scenario.clone().engine(Engine::EventDriven));
                    assert_eq!(event.engine_used, Some(Engine::EventDriven), "{what}");
                    assert_same_run(&threads, &event, &what);
                    for workers in [2, 3] {
                        let par = Sim.run(&scenario.clone().parallel(workers));
                        assert_eq!(
                            par.engine_used,
                            Some(Engine::ParallelEvent { workers }),
                            "{what}"
                        );
                        assert_same_run(&threads, &par, &format!("{what} par={workers}"));
                    }
                }
            }
        }
    }
}

/// A lazy broadcast packs each destination's delivery offset into 32
/// bits; a destination further out than that is scheduled on its own.
/// Delays straddling the limit put both kinds in one broadcast, and the
/// duplicates' copies with them.
#[test]
fn delays_beyond_the_packed_offset_range_match_on_all_engines() {
    unlock_cores();
    for seed in 0..6 {
        let what = format!("seed={seed}");
        let scenario = Scenario::new(Partition::even(9, 3), Algorithm::CommonCoin)
            .proposals_split(4)
            .network(
                NetworkModel::flat(DelayModel::Uniform {
                    lo: 1_000,
                    hi: 1 << 34,
                })
                .with_dup_ppm(100_000),
            )
            .max_rounds(24)
            .seed(seed);
        let threads = Sim.run(&scenario.clone().engine(Engine::Threads));
        assert!(
            threads.end_time.ticks() > 1 << 33,
            "{what}: delays beyond 2^32"
        );
        let event = Sim.run(&scenario.clone().engine(Engine::EventDriven));
        assert_same_run(&threads, &event, &what);
        let par = Sim.run(&scenario.parallel(3));
        assert_eq!(
            par.engine_used,
            Some(Engine::ParallelEvent { workers: 3 }),
            "{what}"
        );
        assert_same_run(&threads, &par, &what);
    }
}

use one_for_all::prelude::CrashPlan;
use one_for_all::scenario::LatencyDist;
use one_for_all::topology::ProcessId;

/// Strategy: scenarios whose broadcasts take the lazy form — every
/// network shape that spreads a broadcast's deliveries over time
/// (sampled flat delays, clustered classes with intra ≠ inter latency,
/// and a constant delay that only a per-send cost spreads), crossed with
/// send costs, loss and duplication, and a step-indexed crash placed
/// inside the victim's first broadcast (the prefix already sent stays
/// sent, as point-to-point sends).
fn lazy_broadcast_strategy() -> impl Strategy<Value = Scenario> {
    common::partition_strategy()
        .prop_flat_map(|partition| {
            let n = partition.n();
            (
                Just(partition),
                proptest::collection::vec(any::<bool>(), n),
                (0u64..10_000, any::<bool>()),
                (0u8..4, 0u8..4, 0u8..3), // network shape, loss/dup preset, send cost
                // The victim and how many of its start-up steps succeed.
                proptest::option::of((0..n, 2..n.max(3) as u64)),
            )
        })
        .prop_map(
            |(partition, bits, (seed, common), (net_kind, rate_kind, send_kind), crash)| {
                let algorithm = if common {
                    Algorithm::CommonCoin
                } else {
                    Algorithm::LocalCoin
                };
                let network = match net_kind {
                    0 => NetworkModel::flat(DelayModel::Uniform { lo: 200, hi: 900 }),
                    1 => NetworkModel::clustered(
                        LatencyDist::Uniform { lo: 100, hi: 300 },
                        LatencyDist::Uniform { lo: 600, hi: 1400 },
                    ),
                    2 => NetworkModel::clustered(
                        LatencyDist::Constant(250),
                        LatencyDist::LogNormal {
                            median: 900,
                            sigma_milli: 700,
                            floor: 400,
                            cap: 2500,
                        },
                    ),
                    _ => NetworkModel::flat(DelayModel::Constant(700)),
                };
                let (loss, dup) = match rate_kind {
                    0 => (0, 0),
                    1 => (30_000, 0),
                    2 => (0, 150_000),
                    _ => (40_000, 60_000),
                };
                let crashes = match crash {
                    Some((victim, steps)) => {
                        CrashPlan::new().crash_at_step(ProcessId(victim), steps)
                    }
                    None => CrashPlan::new(),
                };
                Scenario::new(partition, algorithm)
                    .proposals(bits.into_iter().map(Into::into).collect())
                    .seed(seed)
                    .network(network.with_loss_ppm(loss).with_dup_ppm(dup))
                    .crashes(crashes)
                    .costs(CostModel {
                        send_cost: [0, 1, 3][send_kind as usize],
                        recv_cost: 1,
                        sm_op_cost: 2,
                        coin_cost: 1,
                    })
                    .max_rounds(24)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lazy broadcasts pop in exactly the order their single deliveries
    /// would: the conductor (which schedules every send on its own) and
    /// the event loop on one, two and three shards agree on every
    /// compared field, and the one-shard loop's ordered kept trace equals
    /// the conductor's element for element.
    #[test]
    fn lazy_broadcasts_match_per_destination_sends(scenario in lazy_broadcast_strategy()) {
        unlock_cores();
        let kept = scenario.clone().keep_trace();
        let threads = Sim.run(&kept.clone().engine(Engine::Threads));
        let event = Sim.run(&kept.engine(Engine::EventDriven));
        prop_assert_eq!(threads.engine_used, Some(Engine::Threads));
        prop_assert_eq!(event.engine_used, Some(Engine::EventDriven));
        prop_assert!(threads.events.as_ref().is_some_and(|t| !t.is_empty()));
        prop_assert_eq!(&threads.events, &event.events);
        assert_same_run(&threads, &event, "event");
        let m = scenario.partition.m() as u64;
        for workers in [2, 3] {
            let par = Sim.run(&scenario.clone().parallel(workers));
            if m >= 2 {
                let used = Engine::ParallelEvent { workers: workers.min(m) };
                prop_assert_eq!(par.engine_used, Some(used));
            }
            assert_same_run(&threads, &par, &format!("par={workers}"));
        }
        prop_assert!(threads.agreement_holds());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The trace hash is a multiset hash, so it cannot see event
    /// *order*. The kept trace can: the event engine's ordered
    /// [`Outcome::events`] must equal the conductor's element for
    /// element (the benchmark's traced pass replays that order), and a
    /// parallel request that keeps the trace resolves to one shard and
    /// records the same vector.
    #[test]
    fn kept_traces_match_the_conductor_element_for_element(scenario in scenario_strategy()) {
        unlock_cores();
        let scenario = scenario.keep_trace();
        let threads = Sim.run(&scenario.clone().engine(Engine::Threads));
        let event = Sim.run(&scenario.clone().engine(Engine::EventDriven));
        let par = Sim.run(&scenario.parallel(3));
        prop_assert_eq!(event.engine_used, Some(Engine::EventDriven));
        prop_assert_eq!(par.engine_used, Some(Engine::EventDriven));
        let reference = threads.events.expect("the conductor kept its trace");
        prop_assert!(!reference.is_empty());
        prop_assert_eq!(Some(&reference), event.events.as_ref());
        prop_assert_eq!(Some(&reference), par.events.as_ref());
        prop_assert_eq!(threads.trace_hash, event.trace_hash);
    }
}

use one_for_all::consensus::Payload;
use one_for_all::scenario::VirtualTime;

/// Strategy: the bodies that disseminate proposals — one multivalued
/// instance, and replicated logs of one to three slots fed from
/// pre-seeded queues or from client traffic — on the three network
/// shapes that decide how an `APP` travels and when it lands: a constant
/// delay with free sends (a broadcast expands in one go, so a replica
/// receives a slot's `n` proposals back to back), the default sampled
/// network and costs (one destination per pop, proposals interleaved
/// with the binary stages), and clustered links whose inter-cluster
/// latency is several times the intra-cluster one (a far cluster is
/// still in slot `s` when the near ones' proposals for slot `s + 1`
/// arrive, and waits for relays of a proposal its stage already
/// decided). Crossed with duplication and with the crashes that cut
/// dissemination short: the stage-1 proposer at a virtual time mid-run
/// (later slots need a second stage and relays), a step-indexed crash
/// inside the victim's own `APP` broadcast, and one a few steps after
/// start-up — `n` sends, a cluster propose, `n` sends and a `recv` entry
/// — which under a constant delay is the `recv` entry of one of the
/// first `n` deliveries, all of them proposals.
fn app_path_strategy() -> impl Strategy<Value = Scenario> {
    common::partition_strategy()
        .prop_flat_map(|partition| {
            (
                Just(partition),
                (0u64..10_000, any::<bool>()),
                (0u8..3, 1u64..4),       // body kind, log slots
                (0u8..3, any::<bool>()), // network shape, duplication
                (0u8..4, 0u64..1_000),   // crash kind, its free parameter
            )
        })
        .prop_map(
            |(partition, (seed, common), (body_kind, slots), (net_kind, dup), (crash_kind, x))| {
                let n = partition.n();
                let algorithm = if common {
                    Algorithm::CommonCoin
                } else {
                    Algorithm::LocalCoin
                };
                let payload = |tag: &str, i: usize| {
                    Payload::from_bytes(format!("{tag}{i}s{}", seed % 89).as_bytes())
                        .expect("fits the payload limit")
                };
                let scenario = Scenario::new(partition, algorithm).seed(seed);
                let scenario = match body_kind {
                    0 => {
                        scenario.multivalued(algorithm, (0..n).map(|i| payload("mv", i)).collect())
                    }
                    1 => scenario.replicated_log(
                        algorithm,
                        slots,
                        (0..n)
                            .map(|i| (0..i % 3).map(|j| payload("q", i * 10 + j)).collect())
                            .collect(),
                    ),
                    _ => scenario.replicated_log_traffic(
                        algorithm,
                        slots,
                        TrafficSpec {
                            arrival: ArrivalProcess::Poisson { mean_gap: 140 },
                            clients: 2 * n as u64,
                            queue_cap: 16,
                            batch_max: 4,
                            batch_min: 0,
                        },
                    ),
                };
                let scenario = match net_kind {
                    0 => scenario
                        .network(NetworkModel::flat(DelayModel::Constant(700)))
                        .costs(CostModel {
                            send_cost: 0,
                            recv_cost: 1,
                            sm_op_cost: 2,
                            coin_cost: 1,
                        }),
                    1 => scenario, // Uniform{500,1500}, one tick per send
                    _ => scenario.network(NetworkModel::clustered(
                        LatencyDist::Constant(150),
                        LatencyDist::Uniform { lo: 900, hi: 2600 },
                    )),
                };
                let n = n as u64;
                let crashes = match crash_kind {
                    0 => CrashPlan::new(),
                    1 => CrashPlan::new()
                        .crash_at_time(ProcessId(0), VirtualTime::from_ticks(400 + 7 * x)),
                    2 => CrashPlan::new().crash_at_step(ProcessId((x / n % n) as usize), 1 + x % n),
                    _ => CrashPlan::new()
                        .crash_at_step(ProcessId((x / n % n) as usize), 2 * n + 2 + x % n),
                };
                scenario
                    .dup_ppm(if dup { 150_000 } else { 0 })
                    .crashes(crashes)
                    .max_rounds(24)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The conductor runs the blocking reduction, which stashes every
    /// `APP` in the mailbox; the event loop runs the machines, which
    /// write a slot's own proposals straight into the proposal store.
    /// Both must be one execution: every compared `Outcome` field —
    /// `counters.stale_dropped` and `service` among them — on one, two
    /// and three shards, and the ordered kept trace on one.
    #[test]
    fn direct_proposal_path_matches_the_stash_path(scenario in app_path_strategy()) {
        unlock_cores();
        let kept = scenario.clone().keep_trace();
        let threads = Sim.run(&kept.clone().engine(Engine::Threads));
        let event = Sim.run(&kept.engine(Engine::EventDriven));
        prop_assert_eq!(threads.engine_used, Some(Engine::Threads));
        prop_assert_eq!(event.engine_used, Some(Engine::EventDriven));
        prop_assert!(threads.events.as_ref().is_some_and(|t| !t.is_empty()));
        prop_assert_eq!(&threads.events, &event.events);
        assert_same_run(&threads, &event, "event");
        let m = scenario.partition.m() as u64;
        for workers in [2, 3] {
            let par = Sim.run(&scenario.clone().parallel(workers));
            if m >= 2 {
                let used = Engine::ParallelEvent { workers: workers.min(m) };
                prop_assert_eq!(par.engine_used, Some(used));
            }
            assert_same_run(&threads, &par, &format!("par={workers}"));
        }
        prop_assert!(threads.agreement_holds());
    }
}

// ---------------------------------------------------------------------
// Waves: same-instant batched broadcasts taken member by member.
//
// With a constant delay and free sends every process of a round
// broadcasts at one clock value, so ~n batched broadcasts land at one
// instant and the event loop expands them block by block (whole
// clusters): each member takes the wave in one run while its deliveries
// are inert, and only the ones that can reach the cluster's memory keep
// the broadcast order. The conductor sends and delivers one message at
// a time, so it is the oracle: every case below compares it against the
// loop on one shard and on two (most also three), *without* a kept
// trace or an observer (either would force the one-block broadcast-major
// order), on partitions of more than one block.
// ---------------------------------------------------------------------

use one_for_all::consensus::{ObsEvent, Observer};
use one_for_all::prelude::ChurnPlan;
use one_for_all::scenario::TraceEvent;
use std::sync::{Arc, Mutex};

/// Singleton clusters next to a large one (`n = 68`): the shard loop
/// packs `{1,1}`, `{40}` and `{1,18,1,1,5}` into three blocks.
fn uneven_partition() -> Partition {
    Partition::from_sizes(&[1, 1, 40, 1, 18, 1, 1, 5]).expect("valid sizes")
}

const WAVE_COSTS: CostModel = CostModel {
    send_cost: 0,
    recv_cost: 1,
    sm_op_cost: 3,
    coin_cost: 1,
};

/// Every cost zero: all of a round lands on one tick, and so does a
/// duplicate's copy one delay later.
const ZERO_COSTS: CostModel = CostModel {
    send_cost: 0,
    recv_cost: 0,
    sm_op_cost: 0,
    coin_cost: 0,
};

fn wave_scenario(partition: Partition, costs: CostModel) -> Scenario {
    let n = partition.n();
    Scenario::new(partition, Algorithm::CommonCoin)
        .proposals_split(n / 2)
        .network(NetworkModel::flat(DelayModel::Constant(700)))
        .costs(costs)
        .max_rounds(24)
        .seed(21)
}

/// `Threads == EventDriven == par=2 == par=3` on every compared field;
/// returns the conductor's outcome.
fn assert_engines_match(scenario: &Scenario, what: &str) -> Outcome {
    engines_match_on(scenario, what, &[2, 3])
}

/// `Threads == EventDriven ==` the parallel engine on each of `workers`,
/// on every compared field; returns the conductor's outcome.
fn engines_match_on(scenario: &Scenario, what: &str, workers: &[u64]) -> Outcome {
    unlock_cores();
    let threads = Sim.run(&scenario.clone().engine(Engine::Threads));
    let event = Sim.run(&scenario.clone().engine(Engine::EventDriven));
    assert_eq!(threads.engine_used, Some(Engine::Threads), "{what}");
    assert_eq!(event.engine_used, Some(Engine::EventDriven), "{what}");
    assert_same_run(&threads, &event, &format!("{what} event"));
    for &workers in workers {
        let par = Sim.run(&scenario.clone().parallel(workers));
        assert_eq!(
            par.engine_used,
            Some(Engine::ParallelEvent { workers }),
            "{what}"
        );
        assert_same_run(&threads, &par, &format!("{what} par={workers}"));
    }
    threads
}

/// The distinct instants at which deliveries land, ascending, with the
/// number of deliveries at each — read off the event loop's kept trace.
fn delivery_instants(scenario: &Scenario) -> Vec<(u64, u64)> {
    let kept = Sim.run(&scenario.clone().keep_trace().event_driven());
    let mut instants = std::collections::BTreeMap::new();
    for e in kept.events.expect("kept") {
        if let TraceEvent::Deliver { .. } = e.event {
            *instants.entry(e.at.ticks()).or_insert(0) += 1;
        }
    }
    instants.into_iter().collect()
}

#[test]
fn waves_match_the_conductor_on_uneven_and_singleton_partitions() {
    for (name, partition) in [
        ("uneven", uneven_partition()),
        // 70 one-process clusters: blocks of 32, 32 and 6.
        ("singletons", Partition::singletons(70)),
    ] {
        for costs in [WAVE_COSTS, ZERO_COSTS] {
            let scenario = wave_scenario(partition.clone(), costs);
            let what = format!("{name} {costs:?}");
            let out = assert_engines_match(&scenario, &what);
            assert!(out.all_correct_decided, "{what}");
            let n = partition.n() as u64;
            let (_, first) = delivery_instants(&scenario)[0];
            assert_eq!(
                first,
                n * n,
                "{what}: the first wave is all n start broadcasts"
            );
        }
    }
}

/// The budget runs out in the middle of a wave — inside a later
/// broadcast of it, not its first — and exactly on a wave's last
/// delivery, in the first wave and in the second.
#[test]
fn event_budget_inside_and_on_the_edge_of_a_wave_cuts_identically() {
    let base = wave_scenario(uneven_partition(), WAVE_COSTS);
    let n = base.partition.n() as u64;
    let instants = delivery_instants(&base);
    let (first, second) = (instants[0].1, instants[1].1);
    assert!(
        first == n * n && second > 3 * n,
        "two multi-broadcast waves"
    );
    for max_events in [
        n + n / 2,
        first / 2 + 7,
        first - 1,
        first,
        first + 1,
        first + 2 * n + 5,
        first + second - 1,
        first + second,
    ] {
        let what = format!("max_events={max_events}");
        let out = assert_engines_match(&base.clone().max_events(max_events), &what);
        assert_eq!(out.events_processed, max_events, "{what}");
    }
}

/// A timed crash and a churn rejoin at exactly a wave's instant: both
/// sort before that instant's deliveries, so the victim receives none of
/// the wave and the rejoiner all of it.
#[test]
fn crashes_and_rejoins_at_a_waves_instant_match_the_conductor() {
    let base = wave_scenario(uneven_partition(), WAVE_COSTS);
    let instants = delivery_instants(&base);
    for (crash_at, rejoin_at) in [
        (instants[0].0, instants[0].0),
        (instants[1].0, instants[0].0),
        (instants[0].0, instants[1].0),
    ] {
        let what = format!("crash@{crash_at} rejoin@{rejoin_at}");
        // p3 sits in the 40-cluster, p62 in a singleton, p30 rejoins
        // into the 40-cluster.
        let scenario = base
            .clone()
            .crashes(
                CrashPlan::new()
                    .crash_at_time(ProcessId(3), VirtualTime::from_ticks(crash_at))
                    .crash_at_time(ProcessId(62), VirtualTime::from_ticks(crash_at)),
            )
            .churn(ChurnPlan::new().leave_rejoin(
                ProcessId(30),
                VirtualTime::from_ticks(1),
                VirtualTime::from_ticks(rejoin_at),
            ));
        let out = assert_engines_match(&scenario, &what);
        assert!(out.crashed.contains(ProcessId(3)), "{what}");
        assert!(out.agreement_holds(), "{what}");
    }
}

/// Loss and duplication under waves. Lost destinations are never
/// events; a duplicated one's copy is a plain `Deliver` entry one delay
/// later — with every cost zero that is exactly the next wave's instant,
/// where it sorts *between* that wave's broadcasts and cuts it in two.
#[test]
fn loss_and_duplication_inside_waves_match_the_conductor() {
    for costs in [WAVE_COSTS, ZERO_COSTS] {
        for (loss_ppm, dup_ppm) in [(0, 20_000), (20_000, 0), (10_000, 30_000), (50_000, 0)] {
            let what = format!("{costs:?} loss={loss_ppm} dup={dup_ppm}");
            let scenario = wave_scenario(uneven_partition(), costs)
                .loss_ppm(loss_ppm)
                .dup_ppm(dup_ppm);
            let out = assert_engines_match(&scenario, &what);
            assert!(out.agreement_holds(), "{what}");
            // Up to 1 % loss every correct process decides; past it the
            // protocol is only required to decide somewhere.
            if loss_ppm <= 10_000 {
                assert!(
                    out.all_correct_decided,
                    "{what}: a correct process is undecided"
                );
            } else {
                assert!(out.deciders() > 0, "{what}: nobody decided");
            }
            if loss_ppm == 0 {
                assert!(
                    out.events_processed > out.counters.messages_sent,
                    "{what}: copies are events too"
                );
            }
        }
    }
}

/// Two-process clusters under loss are where the order *inside* a
/// cluster shows: a replica that lost both messages of some cluster
/// completes its exchange at a later broadcast of the wave than its
/// cluster mate, with a different tally, and whichever of the two
/// reaches the cluster's first-proposer-wins object first fixes what
/// both adopt. A wave lets each member run ahead only through deliveries
/// its machine calls inert, and takes the completing ones in broadcast
/// order; expanding a block plainly replica by replica (every delivery
/// taken as inert) fails this case.
#[test]
fn cluster_mates_with_different_histories_keep_their_delivery_order() {
    let scenario = Scenario::new(Partition::even(40, 20), Algorithm::LocalCoin)
        .proposals_split(20)
        .network(NetworkModel::flat(DelayModel::Constant(700)))
        .costs(WAVE_COSTS)
        .loss_ppm(20_000)
        .max_rounds(24)
        .seed(0);
    let out = assert_engines_match(&scenario, "pairs under loss");
    assert!(out.sm_proposes > 0 && out.agreement_holds());
}

/// The case above over 40 seeds, for both algorithms, on pairs and on
/// clusters of one to twelve members: 2 % loss, plus 3 % duplication on
/// every other seed, gives cluster mates different histories in every
/// round, so members of one cluster reach their completing deliveries at
/// different broadcasts of a wave and then race for the cluster's memory.
#[test]
fn cluster_mates_keep_their_order_under_loss_on_many_seeds() {
    let partitions = [
        Partition::even(40, 20),
        Partition::from_sizes(&[1, 1, 12, 3, 3, 5, 2, 2]).expect("valid sizes"),
    ];
    for partition in partitions {
        let n = partition.n();
        for algorithm in [Algorithm::LocalCoin, Algorithm::CommonCoin] {
            for seed in 0..40 {
                let what = format!("n={n} {algorithm:?} seed={seed}");
                let scenario = Scenario::new(partition.clone(), algorithm)
                    .proposals_split(n / 2)
                    .network(NetworkModel::flat(DelayModel::Constant(700)))
                    .costs(WAVE_COSTS)
                    .loss_ppm(20_000)
                    .dup_ppm(if seed % 2 == 1 { 30_000 } else { 0 })
                    .max_rounds(8)
                    .seed(seed);
                let out = engines_match_on(&scenario, &what, &[2]);
                assert!(out.sm_proposes > 0 && out.agreement_holds(), "{what}");
            }
        }
    }
}

/// Step-, round- and time-indexed crashes and a churn rejoin under
/// waves, over 30 seeds, with 2 % loss on every other one: a step or
/// round trigger fires inside a member's inert run or at a completing
/// delivery, the timed crash and the rejoin land at a wave's instant
/// (where they sort before its deliveries), and the rejoiner and the
/// victims' cluster mates carry histories that differ from their mates'.
#[test]
fn crashes_and_a_rejoin_under_waves_match_the_conductor_on_many_seeds() {
    let partition = Partition::from_sizes(&[1, 1, 12, 3, 3, 5, 2, 2]).expect("valid sizes");
    let n = partition.n() as u64;
    for seed in 0..30u64 {
        let algorithm = if seed % 4 < 2 {
            Algorithm::CommonCoin
        } else {
            Algorithm::LocalCoin
        };
        let base = Scenario::new(partition.clone(), algorithm)
            .proposals_split(n as usize / 2)
            .network(NetworkModel::flat(DelayModel::Constant(700)))
            .costs(WAVE_COSTS)
            .loss_ppm(if seed % 2 == 1 { 20_000 } else { 0 })
            .max_rounds(24)
            .seed(seed);
        let instants = delivery_instants(&base);
        let early = instants.len().min(4);
        let at = |k: u64| VirtualTime::from_ticks(instants[(seed + k) as usize % early].0);
        // Four distinct processes: the offsets differ by multiples of 7.
        let victim = |k: u64| ProcessId(((seed * 3 + k * 7) % n) as usize);
        let scenario = base
            .crashes(
                CrashPlan::new()
                    .crash_at_step(victim(0), 2 + seed * 5 % 60)
                    .crash_at_round(victim(1), 1 + seed % 3)
                    .crash_at_time(victim(2), at(0)),
            )
            .churn(ChurnPlan::new().leave_rejoin(
                victim(3),
                VirtualTime::from_ticks(1 + seed * 37 % 700),
                at(1),
            ));
        let what = format!("{algorithm:?} seed={seed}");
        let out = engines_match_on(&scenario, &what, &[2]);
        assert!(out.agreement_holds(), "{what}");
    }
}

/// The bodies that disseminate proposals under waves, over 24 seeds: one
/// multivalued instance, or a two-slot log served from client traffic,
/// on pairs, with loss, duplication, a timed crash and a step-indexed
/// one. Their `APP`s are inert wherever they land, so a member's inert
/// run crosses a whole dissemination wave; its proposal wait is inert to
/// all but the awaited proposal; and a lost proposal splits a pair's
/// votes, so the two race for their cluster's memory.
#[test]
fn proposal_bodies_under_waves_match_the_conductor_on_many_seeds() {
    let partition = Partition::even(24, 12);
    let n = partition.n();
    for seed in 0..24u64 {
        let algorithm = if seed / 2 % 2 == 0 {
            Algorithm::CommonCoin
        } else {
            Algorithm::LocalCoin
        };
        let scenario = Scenario::new(partition.clone(), algorithm);
        let scenario = if seed % 2 == 0 {
            let payload =
                |i: usize| Payload::from_bytes(format!("mv{i}s{seed}").as_bytes()).expect("fits");
            scenario.multivalued(algorithm, (0..n).map(payload).collect())
        } else {
            let traffic = TrafficSpec {
                arrival: ArrivalProcess::Poisson { mean_gap: 140 },
                clients: 2 * n as u64,
                queue_cap: 16,
                batch_max: 4,
                batch_min: 0,
            };
            scenario.replicated_log_traffic(algorithm, 2, traffic)
        };
        let x = seed as usize;
        let scenario = scenario
            .network(NetworkModel::flat(DelayModel::Constant(700)))
            .costs(WAVE_COSTS)
            .loss_ppm([20_000, 20_000, 20_000, 20_000, 0, 0][x % 6])
            .dup_ppm([0, 30_000, 0][x % 3])
            .crashes(
                CrashPlan::new()
                    .crash_at_time(
                        ProcessId(x % n),
                        VirtualTime::from_ticks(700 * (1 + seed % 5) + 4),
                    )
                    .crash_at_step(ProcessId((x + 11) % n), 3 * n as u64 + seed * 7),
            )
            .max_rounds(24)
            .seed(seed);
        let what = format!("seed={seed}");
        let out = engines_match_on(&scenario, &what, &[2]);
        assert!(out.agreement_holds(), "{what}");
    }
}

/// Records every protocol event in the order the engine emits it.
#[derive(Default)]
struct OrderLog(Mutex<Vec<(ProcessId, ObsEvent)>>);

impl Observer for OrderLog {
    fn on_event(&self, who: ProcessId, event: &ObsEvent) {
        self.0.lock().expect("no panics").push((who, *event));
    }
}

/// Where the global order is observable the wave keeps it: a kept trace
/// and an order-recording observer see the conductor's exact sequence on
/// one shard, on a partition the unobserved run expands in three blocks.
#[test]
fn kept_traces_and_observers_see_the_conductors_order_under_waves() {
    let base = wave_scenario(uneven_partition(), WAVE_COSTS);
    let kept = base.clone().keep_trace();
    let threads = Sim.run(&kept.clone().engine(Engine::Threads));
    let event = Sim.run(&kept.engine(Engine::EventDriven));
    assert!(threads.events.as_ref().is_some_and(|t| !t.is_empty()));
    assert_eq!(threads.events, event.events);
    assert_same_run(&threads, &event, "kept trace");

    let observed = |engine| {
        let log = Arc::new(OrderLog::default());
        let out = Sim.run(&base.clone().observer(log.clone()).engine(engine));
        let seen = std::mem::take(&mut *log.0.lock().expect("no panics"));
        (out, seen)
    };
    let (threads, reference) = observed(Engine::Threads);
    let (event, seen) = observed(Engine::EventDriven);
    assert!(!reference.is_empty());
    assert_eq!(reference, seen, "observer callback order");
    assert_same_run(&threads, &event, "observer");
}

// ---------------------------------------------------------------------
// Absorbed deliveries: the event loop applies a delivery that cannot
// reach the cluster's memory without stepping the machine, and charges
// its one `recv` step itself. A step-indexed crash trigger that fires
// on that step must halt the process exactly as the machine's own
// failing `recv` entry does in the conductor. Nearly every delivery is
// absorbed, so a trigger anywhere past a process's first steps lands on
// one; the cases below spread triggers over whole runs.
// ---------------------------------------------------------------------

/// Step-indexed crashes at a spread of step counts, over 30 seeds, for
/// both algorithms, under waves (constant delay, free sends: absorbed in
/// members' inert runs) and under the default sampled delays (single
/// deliveries off lazy cursors).
#[test]
fn step_crashes_on_absorbed_deliveries_match_the_conductor_on_many_seeds() {
    let partition = Partition::from_sizes(&[1, 1, 12, 3, 3, 5, 2, 2]).expect("valid sizes");
    let n = partition.n() as u64;
    for seed in 0..30u64 {
        for algorithm in [Algorithm::LocalCoin, Algorithm::CommonCoin] {
            for waves in [true, false] {
                // Two victims: one inside its first round's deliveries,
                // one anywhere in its first few rounds.
                let victim = |k: u64| ProcessId(((seed * 5 + k * 11) % n) as usize);
                let plan = CrashPlan::new()
                    .crash_at_step(victim(0), n + 2 + seed * 7 % (3 * n))
                    .crash_at_step(victim(1), 1 + seed * 37 % (12 * n));
                let scenario = Scenario::new(partition.clone(), algorithm)
                    .proposals_split(n as usize / 2)
                    .crashes(plan)
                    .max_rounds(24)
                    .seed(seed);
                let scenario = if waves {
                    scenario
                        .network(NetworkModel::flat(DelayModel::Constant(700)))
                        .costs(WAVE_COSTS)
                } else {
                    scenario
                };
                let what = format!("{algorithm:?} seed={seed} waves={waves}");
                let out = engines_match_on(&scenario, &what, &[2]);
                assert!(out.agreement_holds(), "{what}");
            }
        }
    }
}

/// A replicated log with a step trigger and 3 % duplication: the trigger
/// lands on an absorbed `APP`, `PHASE` or `DECIDE` of some slot, and
/// duplicates' copies arrive as single deliveries beside the waves (or
/// the lazy cursors) and are absorbed there.
#[test]
fn a_step_crash_in_a_log_body_with_duplicates_matches_the_conductor() {
    let partition = Partition::even(12, 4);
    let n = partition.n();
    let queues: Vec<Vec<Payload>> = (0..n)
        .map(|i| {
            let cmd = |c| Payload::from_bytes(format!("p{i}{c}").as_bytes()).expect("fits");
            vec![cmd('a'), cmd('b')]
        })
        .collect();
    for seed in 0..8u64 {
        for waves in [true, false] {
            let scenario = Scenario::new(partition.clone(), Algorithm::CommonCoin)
                .replicated_log(Algorithm::CommonCoin, 3, queues.clone())
                .crashes(
                    CrashPlan::new()
                        .crash_at_step(ProcessId(seed as usize % n), 3 * n as u64 + seed * 19),
                )
                .max_rounds(24)
                .seed(seed);
            let scenario = if waves {
                scenario
                    .network(NetworkModel::flat(DelayModel::Constant(700)))
                    .costs(WAVE_COSTS)
            } else {
                scenario
            };
            let scenario = scenario.dup_ppm(30_000);
            let what = format!("seed={seed} waves={waves}");
            let out = engines_match_on(&scenario, &what, &[2]);
            assert!(out.agreement_holds(), "{what}");
            assert!(
                out.events_processed > out.counters.messages_sent,
                "{what}: copies are events too"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The calendar queue: a shard keeps its pending events in a ring of
// one-tick buckets spanning `SPAN` ticks, with an overflow heap beyond
// it (`crates/sim/src/queue.rs`). The conductor keeps a binary heap, so
// it is the oracle for every case below: delays and lifecycle events
// far past the ring, shards whose own next event is further out than
// what other shards send them, budget cuts inside one crowded instant,
// and a pause whose pending events straddle the ring's end.
// ---------------------------------------------------------------------

use one_for_all::scenario::Snapshot;
use one_for_all::sim::RunOutcome;

/// The ring's span in ticks (`SPAN` in `crates/sim/src/queue.rs`).
const SPAN: u64 = 4096;

/// Delays from one tick to three ring spans, with duplicates (whose
/// copies land up to another three spans later): most sends start in the
/// overflow and reach the ring only as time catches up.
fn delays_across_spans(seed: u64) -> Scenario {
    Scenario::new(Partition::even(9, 3), Algorithm::CommonCoin)
        .proposals_split(4)
        .network(
            NetworkModel::flat(DelayModel::Uniform {
                lo: 1,
                hi: 3 * SPAN,
            })
            .with_dup_ppm(100_000),
        )
        .max_rounds(24)
        .seed(seed)
}

#[test]
fn delays_spanning_several_ring_spans_match_on_all_engines() {
    for seed in 0..4 {
        let what = format!("seed={seed}");
        let out = assert_engines_match(&delays_across_spans(seed), &what);
        assert!(out.end_time.ticks() > 3 * SPAN, "{what}: several spans");
        assert!(out.agreement_holds(), "{what}");
    }
}

/// A timed crash and a churn leave/rejoin scheduled spans ahead: they
/// sit in the overflow from the start and must still pop in key order
/// against the deliveries of their instant.
#[test]
fn a_timed_crash_and_a_rejoin_far_beyond_the_span_match_on_all_engines() {
    for (seed, crash_at, rejoin_at) in [
        (3, 2 * SPAN + 11, SPAN + 2_000),
        (8, SPAN + 500, 2 * SPAN + 5),
    ] {
        let what = format!("seed={seed} crash@{crash_at} rejoin@{rejoin_at}");
        let scenario = Scenario::new(Partition::even(12, 3), Algorithm::LocalCoin)
            .proposals_split(6)
            .network(NetworkModel::flat(DelayModel::Uniform {
                lo: 1_500,
                hi: 2_500,
            }))
            .crashes(
                CrashPlan::new().crash_at_time(ProcessId(1), VirtualTime::from_ticks(crash_at)),
            )
            .churn(ChurnPlan::new().leave_rejoin(
                ProcessId(6),
                VirtualTime::from_ticks(SPAN + 3),
                VirtualTime::from_ticks(rejoin_at),
            ))
            .max_rounds(24)
            .seed(seed);
        let out = assert_engines_match(&scenario, &what);
        assert!(
            out.end_time.ticks() > crash_at.max(rejoin_at),
            "{what}: both land mid-run ({:?})",
            out.end_time
        );
        assert!(out.agreement_holds(), "{what}");
    }
}

/// Intra-cluster messages (every shard's own traffic, self-deliveries
/// included) take longer than a ring span; inter-cluster ones a few
/// hundred ticks. So a shard's own next event is far out while other
/// shards' deliveries to it land sooner, at a barrier, in epochs where
/// it has nothing of its own to run: those arrivals are ordinary pushes
/// in front of a tick the shard has read but not made current.
#[test]
fn idle_shards_take_arrivals_before_their_own_next_event() {
    for seed in 0..3 {
        let what = format!("seed={seed}");
        let scenario = Scenario::new(Partition::even(9, 3), Algorithm::CommonCoin)
            .proposals_split(4)
            .network(NetworkModel::clustered(
                LatencyDist::Uniform {
                    lo: SPAN + 400,
                    hi: SPAN + 900,
                },
                LatencyDist::Uniform { lo: 300, hi: 900 },
            ))
            .max_rounds(24)
            .seed(seed);
        let out = assert_engines_match(&scenario, &what);
        assert!(out.all_correct_decided, "{what}");
    }
}

/// Every cost zero and a two-tick delay window: a round's `n²` lazy
/// deliveries land on two instants. The budget runs out inside the first
/// of them, at its last event and just past it.
#[test]
fn event_budget_inside_an_instant_of_lazy_destinations_cuts_identically() {
    let base = Scenario::new(uneven_partition(), Algorithm::CommonCoin)
        .proposals_split(34)
        .network(NetworkModel::flat(DelayModel::Uniform { lo: 700, hi: 701 }))
        .costs(ZERO_COSTS)
        .max_rounds(24)
        .seed(21);
    let n = base.partition.n() as u64;
    let instants = delivery_instants(&base);
    let first = instants[0].1;
    assert!(
        instants[0].0 == 700 && first > n * n / 4,
        "a crowded first instant: {:?}",
        &instants[..2]
    );
    for max_events in [n / 2, first / 2 + 3, first - 1, first, first + 1, first + n] {
        let what = format!("max_events={max_events}");
        let out = assert_engines_match(&base.clone().max_events(max_events), &what);
        assert_eq!(out.events_processed, max_events, "{what}");
    }
}

/// The delivery times a snapshot leaves pending.
fn pending_times(snap: &Snapshot) -> Vec<u64> {
    let Some(serde_json::Value::Seq(events)) = snap.engine_state.get("events") else {
        panic!("a snapshot lists its pending events");
    };
    events
        .iter()
        .map(|e| {
            let body = e.get("One").or_else(|| e.get("Broadcast"));
            match body.and_then(|b| b.get("at")) {
                Some(&serde_json::Value::U64(at)) => at,
                other => panic!("a pending event has a time: {other:?}"),
            }
        })
        .collect()
}

/// Paused where the pending events reach more than a ring span past the
/// cut — the pausing shards held them in both the ring and the overflow,
/// and the resuming ones start with everything beyond the cut — each
/// event engine resumes to the conductor's straight run.
#[test]
fn a_pause_with_events_in_the_ring_and_the_overflow_resumes_on_all_engines() {
    unlock_cores();
    for seed in 0..3 {
        let scenario = delays_across_spans(seed);
        let threads = Sim.run(&scenario.clone().engine(Engine::Threads));
        let cut = VirtualTime::from_ticks(SPAN + 100);
        for engine in [
            Engine::EventDriven,
            Engine::ParallelEvent { workers: 2 },
            Engine::ParallelEvent { workers: 3 },
        ] {
            let what = format!("seed={seed} {engine:?}");
            let RunOutcome::Paused(snap) = Sim.run_until(&scenario.clone().engine(engine), cut)
            else {
                panic!("{what}: the run outlasts the cut");
            };
            let times = pending_times(&snap);
            let (lo, hi) = (times.iter().min(), times.iter().max());
            let (&lo, &hi) = lo.zip(hi).expect("events pending at the cut");
            assert!(
                lo >= cut.ticks() && hi - cut.ticks() >= SPAN,
                "{what}: {lo}..={hi}"
            );
            let resumed = Sim.resume(&snap);
            assert_eq!(resumed.engine_used, Some(engine), "{what}");
            assert_same_run(&threads, &resumed, &what);
        }
    }
}
