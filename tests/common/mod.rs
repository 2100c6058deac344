//! Shared strategies for the cross-engine property suites: the
//! 64-scenario equivalence corpus (`engine_equivalence.rs`) and the
//! checkpoint/resume suite (`checkpoint_resume.rs`) must draw from the
//! *same* distribution — a resumed run is only proven equivalent on the
//! corpus the straight-through contract was proven on. Also the one-byte
//! mutation the decoder suites apply to stored files.
#![allow(dead_code)]

use one_for_all::consensus::{
    Algorithm, ArrivalProcess, Bit, Payload, ProtocolConfig, TrafficSpec,
};
use one_for_all::prelude::{ChurnPlan, CoinSpec, CrashPlan, NetworkModel, PoissonChurn, Scenario};
use one_for_all::scenario::{
    Body, CostModel, DelayModel, LatencyDist, MvWorkload, SmrWorkload, VirtualTime,
};
use one_for_all::topology::{Partition, ProcessId};
use proptest::prelude::*;

/// Strategy: a valid partition of up to 7 processes (compacted ids).
pub fn partition_strategy() -> impl Strategy<Value = Partition> {
    (1usize..=7)
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
pub fn crash_plan_strategy(n: usize) -> impl Strategy<Value = CrashPlan> {
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

/// Strategy: a declarative scenario spanning all three body kinds
/// (binary algorithm, multivalued workload, replicated log — the new
/// machines must match too), both algorithms, every delay-model shape
/// (constant delay exercises the event engine's broadcast batching),
/// every network-model shape (flat legacy, flat with loss/duplication,
/// clustered link classes with lognormal jitter, and asymmetric per-pair
/// overrides — the fate-aware scheduler paths must match too), churn
/// (scheduled leaves and rejoins with fresh mailboxes), every
/// protocol-config preset (paper, pure message passing, and the
/// WA1-breaking E9 ablation — the machines' non-amplified and
/// no-preagree paths must match too), zero and non-zero send costs, coin
/// overrides, and mixed proposals.
pub fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    partition_strategy()
        .prop_flat_map(|partition| {
            let n = partition.n();
            (
                Just(partition),
                proptest::collection::vec(any::<bool>(), n),
                0u64..10_000,
                any::<bool>(),
                crash_plan_strategy(n),
                (0u8..3, 0u8..3, 0u8..3), // delay model, coin spec, config preset
                (0u64..3, 1u64..6),       // send cost (0 => broadcasts batch), sm op cost
                // body kind, log slots, traffic kind (0 = pre-seeded
                // queues), backpressure preset
                (0u8..3, 1u64..4, 0u8..5, 0u8..3),
                // network shape, loss/dup rate preset, Poisson churn preset
                (0u8..4, 0u8..3, 0u8..3),
                // churn entries: (process, leave units, rejoin?, rejoin units)
                proptest::collection::vec((0usize..n, 1u64..8, any::<bool>(), 1u64..8), 0..3),
            )
        })
        .prop_map(
            |(
                partition,
                bits,
                seed,
                common,
                crashes,
                (delay_kind, coin_kind, cfg),
                (send, sm),
                (body_kind, slots, traffic_kind, bp_kind),
                (net_kind, rate_kind, poisson_kind),
                churn_entries,
            )| {
                let n = partition.n();
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
                let config = match cfg {
                    0 => ProtocolConfig::paper(),
                    1 => ProtocolConfig::pure_message_passing(),
                    _ => ProtocolConfig::ablation_no_preagree(),
                };
                let payload = |tag: &str, i: usize| {
                    Payload::from_bytes(format!("{tag}{i}s{}", seed % 97).as_bytes())
                        .expect("fits the payload limit")
                };
                let body = match body_kind {
                    0 => Body::Algo(algorithm),
                    1 => Body::Multivalued(MvWorkload {
                        algorithm,
                        proposals: (0..n).map(|i| payload("mv", i)).collect(),
                    }),
                    _ => {
                        // Traffic and pre-seeded queues are mutually
                        // exclusive; traffic kind 0 keeps the original
                        // pre-seeded corpus verbatim.
                        let traffic = match traffic_kind {
                            0 => None,
                            k => {
                                let arrival = match k {
                                    1 => ArrivalProcess::Periodic {
                                        period: 130,
                                        phase: seed % 70,
                                    },
                                    2 => ArrivalProcess::Poisson { mean_gap: 160 },
                                    3 => ArrivalProcess::Bursty {
                                        burst: 4,
                                        period: 600,
                                        phase: 50,
                                    },
                                    _ => ArrivalProcess::ClosedLoop {
                                        think_lo: 90,
                                        think_hi: 400,
                                    },
                                };
                                // Backpressure presets from shed-heavy to
                                // roomy — overflow counting, batch fill,
                                // and the high-water gauge must all match
                                // across engines.
                                let (queue_cap, batch_max) = match bp_kind {
                                    0 => (2, 1),
                                    1 => (8, 4),
                                    _ => (64, 16),
                                };
                                Some(TrafficSpec {
                                    arrival,
                                    clients: n as u64 * 2,
                                    queue_cap,
                                    batch_max,
                                    batch_min: 0,
                                })
                            }
                        };
                        let queues = if traffic.is_some() {
                            Vec::new()
                        } else {
                            // Mixed queue lengths, including an empty
                            // queue (proposes empty payloads) when n > 1.
                            (0..n)
                                .map(|i| (0..i % 3).map(|j| payload("q", i * 10 + j)).collect())
                                .collect()
                        };
                        Body::ReplicatedLog(SmrWorkload {
                            algorithm,
                            slots,
                            queues,
                            traffic,
                        })
                    }
                };
                // Network shape: 0 keeps the pre-network-model flat
                // corpus verbatim (no loss/dup), the rest layer rates,
                // cluster-aware classes, and a directed asymmetric
                // override on top.
                let (loss, dup) = match rate_kind {
                    0 => (0, 0),
                    1 => (20_000, 0),
                    _ => (50_000, 30_000),
                };
                let network = match net_kind {
                    0 | 1 => NetworkModel::flat(delay),
                    2 => NetworkModel::clustered(
                        LatencyDist::Constant(300),
                        LatencyDist::LogNormal {
                            median: 900,
                            sigma_milli: 700,
                            floor: 400,
                            cap: 2500,
                        },
                    ),
                    _ => NetworkModel::clustered(
                        LatencyDist::Uniform { lo: 250, hi: 600 },
                        LatencyDist::Constant(1000),
                    )
                    .with_link(
                        ProcessId(0),
                        ProcessId(n - 1),
                        LatencyDist::Uniform { lo: 1200, hi: 1800 },
                    ),
                };
                let network = if net_kind == 0 {
                    network
                } else {
                    network.with_loss_ppm(loss).with_dup_ppm(dup)
                };
                // Churn rides on processes the crash plan leaves alone
                // (a process may not appear in both plans).
                let mut churn = ChurnPlan::new();
                for (p, lu, has_rejoin, ru) in churn_entries {
                    let p = ProcessId(p);
                    if crashes.trigger(p).is_some() {
                        continue;
                    }
                    let leave = VirtualTime::from_ticks(500 + lu * 400);
                    churn = if has_rejoin {
                        churn.leave_rejoin(
                            p,
                            leave,
                            VirtualTime::from_ticks(leave.ticks() + ru * 500),
                        )
                    } else {
                        churn.leave(p, leave)
                    };
                }
                // Poisson arrivals ride on top of (and skip processes
                // named by) the explicit plans — the rates are high
                // enough that small systems actually churn.
                churn = match poisson_kind {
                    0 => churn,
                    1 => churn.poisson(40_000),
                    _ => churn.poisson_spec(PoissonChurn {
                        rate_ppm: 120_000,
                        mean_down_ticks: 1_200,
                        horizon_ticks: 6_000,
                    }),
                };
                let mut scenario = Scenario::new(partition, algorithm)
                    .config(config)
                    .proposals(proposals)
                    .seed(seed)
                    .network(network)
                    .churn(churn)
                    .crashes(crashes)
                    .coin(coin)
                    .costs(CostModel {
                        send_cost: send,
                        recv_cost: 1,
                        sm_op_cost: sm,
                        coin_cost: 1,
                    })
                    .max_rounds(24);
                scenario.body = body;
                scenario
            },
        )
}

/// `text` with byte `at` (mod its length) changed: a digit to another
/// digit, anything else to a printable ASCII byte chosen by `pick`.
pub fn change_one_byte(text: &str, at: usize, pick: u8) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    let len = bytes.len();
    let b = &mut bytes[at % len];
    *b = if b.is_ascii_digit() {
        b'0' + (*b - b'0' + 1 + pick % 9) % 10
    } else {
        b' ' + pick % 95
    };
    bytes
}
