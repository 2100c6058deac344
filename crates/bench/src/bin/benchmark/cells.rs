//! The five workloads, each at three sizes: the measured cell, the
//! reduced cell whose kept trace fits in memory for the traced pass, and
//! a tiny cell for `--quick` and the unit tests.

use ofa_core::{Algorithm, ArrivalProcess, Bit, TrafficSpec};
use ofa_scenario::{CoinSpec, CostModel, CrashPlan, DelayModel, Engine, Scenario, VirtualTime};
use ofa_topology::{Partition, ProcessId};

/// Which of a workload's three cells to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The cell the end-to-end metrics are measured on.
    Full,
    /// Same shape, `n` cut so the kept trace stays under ~3·10⁶ events.
    Trace,
    /// `n <= 60`: a smoke run of every code path in well under a second.
    Quick,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Trace => "trace",
            Size::Quick => "quick",
        }
    }

    pub fn parse(s: &str) -> Option<Size> {
        [Size::Full, Size::Trace, Size::Quick]
            .into_iter()
            .find(|z| z.name() == s)
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README table.
    pub why: &'static str,
    /// Replicated-KV workloads report client-service statistics and count
    /// one operation per correct replica × slot; consensus workloads
    /// count one per correct process.
    pub kv: bool,
    /// The workload only means something on the parallel engine.
    pub parallel: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "consensus-fastpath",
        why: "n=5000 unanimous, constant delay: broadcasts stay one heap entry and the PRF is bypassed, so a per-message heap or NetIndex optimisation must show no change here",
        kv: false,
        parallel: false,
    },
    Workload {
        name: "consensus-split",
        why: "n=1000 split proposals, default sampled delays and costs (the CLI-default path): one heap entry and two PRF draws per message, ~97% of deliveries stale",
        kv: false,
        parallel: false,
    },
    Workload {
        name: "kv-serve",
        why: "n=1000 replicated KV under open-loop Poisson clients: LogSm over MultivaluedSm, APP relay storms through Mailbox, TrafficState pull at every slot boundary",
        kv: true,
        parallel: false,
    },
    Workload {
        name: "kv-serve-par2",
        why: "kv-serve on Engine::ParallelEvent{workers:2}: the only workload where shard heaps, cross-shard exchange and epoch barriers do work; same trace hash as kv-serve",
        kv: true,
        parallel: true,
    },
    Workload {
        name: "kv-faults",
        why: "kv-serve with 1% message duplication and the winning proposer crashed at tick 30000: two-stage slots, the fate PRF, client fail-over on the same layers",
        kv: true,
        parallel: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The bench-table cost model (`escale`, `serve`): sends are free, so a
/// broadcast's sends share one timestamp and collapse to one outbox
/// entry.
const BATCHING_COSTS: CostModel = CostModel {
    send_cost: 0,
    recv_cost: 1,
    sm_op_cost: 10,
    coin_cost: 1,
};

/// `(n, clusters)` of the consensus cells and `(n, clusters, slots)` of
/// the KV cells, by size.
fn consensus_shape(fastpath: bool, size: Size) -> (usize, usize) {
    match (size, fastpath) {
        (Size::Full, true) => (5_000, 50),
        (Size::Full, false) => (1_000, 10),
        (Size::Trace, _) => (400, 4),
        (Size::Quick, _) => (60, 3),
    }
}

pub fn kv_shape(size: Size) -> (usize, usize, u64) {
    match size {
        Size::Full => (1_000, 10, 8),
        Size::Trace => (200, 2, 4),
        Size::Quick => (40, 2, 2),
    }
}

/// Builds `workload`'s scenario. The scenario seed is the only input the
/// benchmark seed reaches: it keys the delay and fate PRFs and the client
/// arrival streams. The common coin alternates instead of following the
/// seed: a fair coin makes the number of rounds geometric, so the amount
/// of work (and with it every end-to-end metric) would swing by tens of
/// percent between seeds; alternating pins it without touching a code
/// path (see README.md).
///
/// # Panics
///
/// Panics on a workload name that is not in [`WORKLOADS`].
pub fn scenario(workload: &str, size: Size, seed: u64) -> Scenario {
    let base = match workload {
        "consensus-fastpath" => {
            // `escale::scenario(n)` verbatim.
            let (n, m) = consensus_shape(true, size);
            Scenario::new(Partition::even(n, m), Algorithm::LocalCoin)
                .proposals_all(Bit::One)
                .delay(DelayModel::Constant(1_000))
                .costs(BATCHING_COSTS)
                .max_rounds(16)
        }
        "consensus-split" => {
            // What `ofa --sizes 100x10 --algorithm cc` runs once the
            // event cap is lifted: default network, default costs.
            let (n, m) = consensus_shape(false, size);
            Scenario::new(Partition::even(n, m), Algorithm::CommonCoin)
                .proposals_split(n / 2)
                .max_rounds(64)
        }
        "kv-serve" | "kv-serve-par2" | "kv-faults" => {
            let (n, m, slots) = kv_shape(size);
            let traffic = TrafficSpec {
                arrival: ArrivalProcess::Poisson { mean_gap: 125 },
                // ~205 arrivals per slot at the winning proposer: under
                // `batch_max`, and enough commits that their count varies
                // by ~3 % with the seed.
                clients: 4 * n as u64,
                queue_cap: 256,
                batch_max: 256,
                batch_min: 0,
            };
            let kv = Scenario::new(Partition::even(n, m), Algorithm::CommonCoin)
                .replicated_log_traffic(Algorithm::CommonCoin, slots, traffic)
                .delay(DelayModel::Constant(1_000))
                .costs(BATCHING_COSTS)
                .max_rounds(64);
            match workload {
                "kv-serve-par2" => kv.engine(Engine::ParallelEvent { workers: 2 }),
                // p0 is the stage-1 proposer whose batch wins every slot:
                // after the crash every slot needs a second binary stage.
                // Scheduled in virtual time, so commands due while p0 is
                // dead are offered (and counted) all the same. Duplication
                // rather than loss: loss strands correct replicas, which
                // are failed operations whose number depends on the seed.
                "kv-faults" => kv.dup_ppm(10_000).crashes(
                    CrashPlan::new()
                        .crash_at_time(ProcessId(0), VirtualTime::from_ticks(crash_tick(size))),
                ),
                _ => kv,
            }
        }
        other => panic!("unknown workload {other:?}"),
    };
    base.seed(seed)
        .coin(CoinSpec::Alternating)
        .max_events(u64::MAX)
}

/// When p0 crashes in `kv-faults`: mid-run for each cell size, with at
/// least one slot still to open (a slot takes ~6 400 ticks at full size,
/// ~3 700 in the trace cell, ~3 100 in the quick cell).
fn crash_tick(size: Size) -> u64 {
    match size {
        Size::Full => 30_000,
        Size::Trace => 6_000,
        Size::Quick => 2_000,
    }
}
