//! Replicated-log replicas: repeated multivalued consensus driving the
//! key-value state machine.
//!
//! Slot `j` of the log is multivalued consensus instance `j`. Each replica
//! proposes its next pending command for every slot; the decided command
//! (some replica's proposal) is appended and applied. Identical logs ⇒
//! identical states.
//!
//! The execution itself is the serializable
//! [`ofa_scenario::Body::ReplicatedLog`] workload — the engine-agnostic
//! replica loop lives in `ofa-core` ([`ofa_core::run_replicated_log`]
//! blocking, [`ofa_core::sm::LogSm`] event-driven), so full replicated-KV
//! runs execute on any backend and *scale on the event-driven engine*
//! (the benchmark's `kv-serve` cell runs `n = 1 000` replicas). This
//! module adds the KV
//! interpretation: command encoding on the way in, and a
//! [`LogCollector`] observer that reconstructs each replica's committed
//! log, state, and digest from the [`ofa_core::ObsEvent::MvDecided`]
//! stream on the way out.

use crate::{Command, KvState};
use ofa_core::{Algorithm, MvDecision, ObsEvent, Observer, Payload};
use ofa_scenario::{Backend, Outcome, Scenario};
use ofa_topology::{Partition, ProcessId};
use parking_lot::Mutex;
use std::sync::Arc;

/// The outcome of one replica's run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaReport {
    /// The decided log (one command per slot).
    pub log: Vec<Command>,
    /// The proposer adopted in each slot.
    pub proposers: Vec<ProcessId>,
    /// Binary stages used per slot.
    pub stages: Vec<u64>,
    /// The final state digest.
    pub digest: u64,
    /// The final state.
    pub state: KvState,
}

/// An [`Observer`] that reconstructs per-replica committed logs from the
/// [`ObsEvent::MvDecided`] stream — works identically on the simulator
/// (either engine) and on the real-thread runtime, since all of them
/// route protocol observations through the same hook.
///
/// # Examples
///
/// See [`run_replicated_kv`], which wires a collector into a
/// [`Body::ReplicatedLog`](ofa_scenario::Body::ReplicatedLog) scenario.
#[derive(Debug)]
pub struct LogCollector {
    slots: Mutex<Vec<Vec<MvDecision>>>,
}

impl LogCollector {
    /// A collector for `n` replicas.
    pub fn new(n: usize) -> Self {
        LogCollector {
            slots: Mutex::new(vec![Vec::new(); n]),
        }
    }

    /// The committed slots observed for replica `i`, in slot order.
    pub fn committed(&self, i: ProcessId) -> Vec<MvDecision> {
        self.slots.lock()[i.index()].clone()
    }

    /// Builds replica `i`'s report, provided it committed all `slots`
    /// slots (crashed/stopped replicas yield `None`).
    pub fn report(&self, i: ProcessId, slots: u64) -> Option<ReplicaReport> {
        let committed = self.committed(i);
        if committed.len() as u64 != slots {
            return None;
        }
        let mut state = KvState::new();
        let mut log = Vec::with_capacity(committed.len());
        let mut proposers = Vec::with_capacity(committed.len());
        let mut stages = Vec::with_capacity(committed.len());
        for mv in &committed {
            let cmd = Command::decode(&mv.payload).expect("committed payload is a valid command");
            state.apply(&cmd);
            log.push(cmd);
            proposers.push(mv.proposer);
            stages.push(mv.stages);
        }
        Some(ReplicaReport {
            log,
            proposers,
            stages,
            digest: state.digest(),
            state,
        })
    }
}

impl Observer for LogCollector {
    fn on_event(&self, who: ProcessId, event: &ObsEvent) {
        if let ObsEvent::MvDecided {
            mv_index,
            proposer,
            payload,
            stages,
        } = *event
        {
            let mut slots = self.slots.lock();
            let mine = &mut slots[who.index()];
            debug_assert_eq!(
                mine.len() as u64,
                mv_index,
                "slots commit in order at each replica"
            );
            mine.push(MvDecision {
                payload,
                proposer,
                stages,
            });
        }
    }
}

/// Encodes per-replica command queues into the payload queues of a
/// [`Body::ReplicatedLog`](ofa_scenario::Body::ReplicatedLog) workload.
/// Empty queues propose [`Command::Noop`] so decoded logs stay
/// well-formed.
///
/// # Panics
///
/// Panics if a command exceeds the payload limit (see
/// [`Command::encode`]).
pub fn encode_queues(commands: &[Vec<Command>]) -> Vec<Vec<Payload>> {
    commands
        .iter()
        .map(|queue| {
            if queue.is_empty() {
                vec![Command::Noop
                    .encode()
                    .expect("Noop always fits the payload limit")]
            } else {
                queue
                    .iter()
                    .map(|c| {
                        c.encode()
                            .expect("replica commands must fit the payload limit")
                    })
                    .collect()
            }
        })
        .collect()
}

/// Convenience: run a replicated KV fleet on the simulator (on the
/// scenario's default engine — event-driven) and collect the per-replica
/// reports.
///
/// Returns the per-process reports (crashed/stopped processes yield
/// `None`) and the unified outcome.
pub fn run_replicated_kv(
    partition: Partition,
    commands: Vec<Vec<Command>>,
    slots: usize,
    algorithm: Algorithm,
    seed: u64,
    crashes: ofa_scenario::CrashPlan,
) -> (Vec<Option<ReplicaReport>>, Outcome) {
    assert_eq!(
        partition.n(),
        commands.len(),
        "one command queue per process"
    );
    let n = partition.n();
    let collector = Arc::new(LogCollector::new(n));
    let outcome = ofa_sim::Sim.run(
        &Scenario::new(partition, algorithm)
            .replicated_log(algorithm, slots as u64, encode_queues(&commands))
            .crashes(crashes)
            .seed(seed)
            .observer(Arc::clone(&collector) as Arc<dyn Observer>),
    );
    let reports = (0..n)
        .map(|i| collector.report(ProcessId(i), slots as u64))
        .collect();
    (reports, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofa_scenario::{CrashPlan, Engine};

    fn demo_commands(n: usize) -> Vec<Vec<Command>> {
        (0..n)
            .map(|i| {
                vec![
                    Command::put(&format!("k{i}"), &format!("v{i}")),
                    Command::put("shared", &format!("from-p{}", i + 1)),
                ]
            })
            .collect()
    }

    #[test]
    fn replicas_agree_on_log_and_state() {
        let part = Partition::fig1_right();
        let (reports, out) = run_replicated_kv(
            part,
            demo_commands(7),
            4,
            Algorithm::CommonCoin,
            11,
            CrashPlan::new(),
        );
        assert!(out.all_correct_decided);
        assert_eq!(
            out.engine_used,
            Some(Engine::EventDriven),
            "replicated KV runs on the scalable engine by default"
        );
        let first = reports[0].as_ref().expect("p1 completed");
        assert_eq!(first.log.len(), 4);
        for (i, r) in reports.iter().enumerate() {
            let r = r
                .as_ref()
                .unwrap_or_else(|| panic!("p{} incomplete", i + 1));
            assert_eq!(r.log, first.log, "p{} log diverged", i + 1);
            assert_eq!(r.digest, first.digest, "p{} state diverged", i + 1);
            assert_eq!(r.proposers, first.proposers);
        }
        // Validity: every decided command was someone's proposal.
        let all_proposals: Vec<Command> = demo_commands(7).concat();
        for cmd in &first.log {
            assert!(all_proposals.contains(cmd), "foreign command {cmd}");
        }
    }

    #[test]
    fn survives_crashes_outside_majority_cluster() {
        // Fig 1 right: crash p1 and p6; P[2] keeps everyone alive.
        let part = Partition::fig1_right();
        let crashes = CrashPlan::new()
            .crash_at_start(ProcessId(0))
            .crash_at_start(ProcessId(5));
        let (reports, out) =
            run_replicated_kv(part, demo_commands(7), 3, Algorithm::LocalCoin, 5, crashes);
        assert!(out.all_correct_decided);
        let survivors: Vec<&ReplicaReport> = reports
            .iter()
            .enumerate()
            .filter(|(i, _)| ![0usize, 5].contains(i))
            .map(|(_, r)| r.as_ref().expect("survivor completed"))
            .collect();
        let first = survivors[0];
        for r in &survivors {
            assert_eq!(r.log, first.log);
            assert_eq!(r.digest, first.digest);
        }
    }

    #[test]
    fn empty_queues_commit_noops() {
        let part = Partition::even(4, 2);
        let (reports, out) = run_replicated_kv(
            part,
            vec![Vec::new(); 4],
            2,
            Algorithm::CommonCoin,
            3,
            CrashPlan::new(),
        );
        assert!(out.all_correct_decided);
        let r = reports[0].as_ref().unwrap();
        assert!(r.log.iter().all(|c| *c == Command::Noop));
        assert!(r.state.is_empty());
    }

    #[test]
    fn reports_match_on_both_engines() {
        // The collector sees the same MvDecided stream from the blocking
        // bodies (conductor) and the state machines (event engine).
        let part = Partition::even(5, 2);
        let queues = encode_queues(&demo_commands(5));
        let base = Scenario::new(part, Algorithm::LocalCoin)
            .replicated_log(Algorithm::LocalCoin, 3, queues)
            .seed(21);
        let mut outputs = Vec::new();
        for engine in [Engine::Threads, Engine::EventDriven] {
            let collector = Arc::new(LogCollector::new(5));
            let out = ofa_sim::Sim.run(
                &base
                    .clone()
                    .engine(engine)
                    .observer(Arc::clone(&collector) as Arc<dyn Observer>),
            );
            assert!(out.all_correct_decided);
            assert_eq!(out.engine_used, Some(engine));
            outputs.push((
                out.trace_hash,
                (0..5)
                    .map(|i| collector.report(ProcessId(i), 3))
                    .collect::<Vec<_>>(),
            ));
        }
        assert_eq!(outputs[0], outputs[1]);
    }
}
