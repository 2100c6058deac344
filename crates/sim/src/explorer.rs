//! Bounded exhaustive schedule exploration (stateless model checking).
//!
//! The simulator's timed scheduler samples one asynchronous schedule per
//! seed. For *small* configurations we can do better: enumerate **every**
//! message-delivery order up to a budget and check agreement, validity,
//! and the WA1/WA2 predicates on each. This is a replay-based DFS: a
//! schedule is the sequence of indices chosen among the pending deliveries
//! at each scheduling point; running a prefix deterministically reproduces
//! the execution up to its first unexplored branch.
//!
//! Coins stay seeded (fixed per run), so the exploration quantifies over
//! *asynchrony only* — exactly the adversary of the paper's model (the
//! adversary controls scheduling, not the coins).

use crate::backend::RunSpec;
use crate::conductor::{conduct, SchedEvent, Scheduler};
use ofa_core::{Algorithm, Bit, Halt, InvariantChecker, ProtocolConfig};
use ofa_scenario::{CoinSpec, CrashPlan};
use ofa_topology::{Partition, ProcessId};
use std::sync::Arc;

/// A scheduler driven by an explicit choice script: at each scheduling
/// point with `k` pending deliveries, consume the next script entry
/// (default 0) as the index to release. Records the branching factor of
/// every point so the DFS can enumerate siblings.
struct ChoiceScheduler {
    pending: Vec<SchedEvent>,
    script: Vec<usize>,
    cursor: usize,
    /// `(chosen_index, branching_factor)` per scheduling point.
    log: Vec<(usize, usize)>,
    clock: u64,
}

impl ChoiceScheduler {
    fn new(script: Vec<usize>) -> Self {
        ChoiceScheduler {
            pending: Vec::new(),
            script,
            cursor: 0,
            log: Vec::new(),
            clock: 0,
        }
    }
}

impl Scheduler for ChoiceScheduler {
    fn push_send(&mut self, from: ProcessId, to: ProcessId, msg: ofa_core::MsgKind, _sent_at: u64) {
        // Times are just sequence numbers in exploration mode.
        self.pending.push(SchedEvent::Deliver {
            to,
            from,
            msg,
            at: 0,
        });
    }

    fn push_crash(&mut self, _pid: ProcessId, _at: u64) {
        panic!("the explorer does not support time-triggered crashes; use AtStep/AtRound");
    }

    fn pop(&mut self) -> Option<SchedEvent> {
        if self.pending.is_empty() {
            return None;
        }
        let k = self.pending.len();
        let choice = self
            .script
            .get(self.cursor)
            .copied()
            .unwrap_or(0)
            .min(k - 1);
        self.cursor += 1;
        self.log.push((choice, k));
        self.clock += 1;
        let ev = self.pending.remove(choice);
        Some(match ev {
            SchedEvent::Deliver { to, from, msg, .. } => SchedEvent::Deliver {
                to,
                from,
                msg,
                at: self.clock,
            },
            other => other,
        })
    }
}

/// Exhaustive (within budget) exploration of delivery schedules.
///
/// # Examples
///
/// ```
/// use ofa_core::Algorithm;
/// use ofa_sim::Explorer;
/// use ofa_topology::Partition;
///
/// // Every delivery order of a 3-process, 2-cluster system, 2 rounds deep:
/// let report = Explorer::new(Partition::from_sizes(&[2, 1]).unwrap(), Algorithm::CommonCoin)
///     .proposals_split(1)
///     .max_rounds(2)
///     .max_schedules(200)
///     .run();
/// assert_eq!(report.agreement_failures, 0);
/// assert_eq!(report.invariant_violations, 0);
/// assert!(report.schedules_run > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Explorer {
    partition: Partition,
    algorithm: Algorithm,
    config: ProtocolConfig,
    proposals: Vec<Bit>,
    crash_plan: CrashPlan,
    seed: u64,
    max_schedules: u64,
}

impl Explorer {
    /// Starts an explorer with alternating proposals, no crashes, a
    /// 2-round budget, and a 10 000-schedule budget.
    pub fn new(partition: Partition, algorithm: Algorithm) -> Self {
        let n = partition.n();
        Explorer {
            partition,
            algorithm,
            config: ProtocolConfig::paper().with_max_rounds(2),
            proposals: (0..n).map(|i| Bit::from(i % 2 == 1)).collect(),
            crash_plan: CrashPlan::new(),
            seed: 0,
            max_schedules: 10_000,
        }
    }

    /// Sets the protocol configuration (keep `max_rounds` small!).
    pub fn config(mut self, config: ProtocolConfig) -> Self {
        self.config = config;
        self
    }

    /// Bounds the protocol rounds per process (depth of the exploration).
    pub fn max_rounds(mut self, rounds: u64) -> Self {
        self.config = self.config.with_max_rounds(rounds);
        self
    }

    /// Sets every process's proposal.
    pub fn proposals(mut self, proposals: Vec<Bit>) -> Self {
        self.proposals = proposals;
        self
    }

    /// First `ones` processes propose 1, the rest 0.
    pub fn proposals_split(mut self, ones: usize) -> Self {
        let n = self.partition.n();
        self.proposals = (0..n).map(|i| Bit::from(i < ones)).collect();
        self
    }

    /// Sets the failure pattern (AtStep / AtRound / at-start only).
    ///
    /// # Panics
    ///
    /// Panics (on `run`) if the plan contains an `AtTime` trigger.
    pub fn crashes(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }

    /// Seeds the (fixed-per-run) coins.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the number of schedules explored.
    pub fn max_schedules(mut self, max: u64) -> Self {
        self.max_schedules = max;
        self
    }

    fn run_one(&self, script: Vec<usize>) -> (RunResult, Vec<(usize, usize)>) {
        let checker = Arc::new(InvariantChecker::new());
        let spec = RunSpec {
            partition: self.partition.clone(),
            body: ofa_scenario::Body::Algo(self.algorithm),
            config: self.config,
            proposals: self.proposals.clone(),
            seed: self.seed,
            costs: ofa_scenario::CostModel::default(),
            crash_plan: self.crash_plan.clone(),
            churn: ofa_scenario::ChurnPlan::new(),
            // The explorer's own seed, without the scenario's domain
            // separator: the coin stream it has always explored.
            coin: CoinSpec::Seeded,
            coin_seed: self.seed,
            observer: Some(checker.clone()),
            keep_trace: false,
            max_events: 200_000,
        };
        let mut scheduler = ChoiceScheduler::new(script);
        let raw = conduct(spec, &mut scheduler);

        let mut decided: Vec<Bit> = Vec::new();
        let mut undecided_correct = 0u64;
        for (res, _) in &raw.results {
            match res {
                Ok(d) => decided.push(d.value),
                Err(Halt::Stopped) => undecided_correct += 1,
                Err(Halt::Crashed) => {}
            }
        }
        let agreement = decided.windows(2).all(|w| w[0] == w[1]);
        let validity = decided.iter().all(|v| self.proposals.contains(v));
        (
            RunResult {
                agreement,
                validity,
                violations: checker.violations(),
                undecided_correct,
                decided_values: decided,
            },
            scheduler.log,
        )
    }

    /// Runs the DFS and aggregates what it found.
    pub fn run(self) -> ExploreReport {
        let mut report = ExploreReport::default();
        // DFS over schedule prefixes. Each run extends its prefix with
        // default-0 choices; siblings are enumerated from the log.
        let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
        while let Some(prefix) = stack.pop() {
            if report.schedules_run >= self.max_schedules {
                report.exhausted = false;
                return report;
            }
            let prefix_len = prefix.len();
            let (result, log) = self.run_one(prefix.clone());
            report.absorb(&result);
            // Enumerate unexplored siblings of every default choice made
            // beyond the prefix. Pushing deepest-first means the stack
            // pops the *shallowest* sibling next, so under a budget the
            // exploration diversifies early scheduling decisions (where
            // executions actually diverge) before tail permutations.
            for i in (prefix_len..log.len()).rev() {
                let (chosen, branching) = log[i];
                debug_assert_eq!(chosen, 0, "beyond the prefix all choices default to 0");
                for alt in (1..branching).rev() {
                    let mut sibling: Vec<usize> = log[..i].iter().map(|&(c, _)| c).collect();
                    sibling.push(alt);
                    stack.push(sibling);
                }
            }
        }
        report.exhausted = true;
        report
    }
}

#[derive(Debug)]
struct RunResult {
    agreement: bool,
    validity: bool,
    violations: Vec<String>,
    undecided_correct: u64,
    decided_values: Vec<Bit>,
}

/// Aggregate result of a schedule exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Number of complete schedules executed.
    pub schedules_run: u64,
    /// `true` iff the DFS finished within the schedule budget.
    pub exhausted: bool,
    /// Schedules on which two processes decided differently.
    pub agreement_failures: u64,
    /// Schedules on which a non-proposed value was decided.
    pub validity_failures: u64,
    /// Total WA1/WA2 (and derived) violations reported by the checker.
    pub invariant_violations: u64,
    /// Schedules on which some correct process ran out of rounds
    /// undecided (legal for randomized consensus under a round cap).
    pub schedules_with_undecided: u64,
    /// Whether 0 / 1 was decided on some schedule (both may be true
    /// across different schedules with mixed inputs — that is not an
    /// agreement failure).
    pub values_decided: [bool; 2],
    /// A few sample violation messages (capped at 10).
    pub sample_violations: Vec<String>,
}

impl ExploreReport {
    fn absorb(&mut self, r: &RunResult) {
        self.schedules_run += 1;
        if !r.agreement {
            self.agreement_failures += 1;
        }
        if !r.validity {
            self.validity_failures += 1;
        }
        self.invariant_violations += r.violations.len() as u64;
        if r.undecided_correct > 0 {
            self.schedules_with_undecided += 1;
        }
        for v in &r.decided_values {
            self.values_decided[v.as_bool() as usize] = true;
        }
        for v in r
            .violations
            .iter()
            .take(10 - self.sample_violations.len().min(10))
        {
            if self.sample_violations.len() < 10 {
                self.sample_violations.push(v.clone());
            }
        }
    }

    /// `true` iff no safety property was ever violated.
    pub fn is_safe(&self) -> bool {
        self.agreement_failures == 0
            && self.validity_failures == 0
            && self.invariant_violations == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_unanimous_system_is_safe_on_all_schedules() {
        let report = Explorer::new(Partition::from_sizes(&[2]).unwrap(), Algorithm::CommonCoin)
            .proposals(vec![Bit::One, Bit::One])
            .max_rounds(1)
            .max_schedules(60_000)
            .run();
        assert!(report.is_safe());
        assert!(report.schedules_run >= 1);
        assert!(report.values_decided[1]);
        assert!(!report.values_decided[0], "validity: 0 was never proposed");
    }

    #[test]
    fn mixed_inputs_explore_many_schedules_safely() {
        let report = Explorer::new(
            Partition::from_sizes(&[2, 1]).unwrap(),
            Algorithm::LocalCoin,
        )
        .proposals_split(1)
        .max_rounds(1)
        .max_schedules(3_000)
        .run();
        assert!(report.schedules_run > 10, "should branch: {report:?}");
        assert!(report.is_safe(), "{report:?}");
    }

    #[test]
    fn budget_caps_exploration() {
        let report = Explorer::new(
            Partition::from_sizes(&[2, 2]).unwrap(),
            Algorithm::LocalCoin,
        )
        .max_rounds(2)
        .max_schedules(50)
        .run();
        assert_eq!(report.schedules_run, 50);
        assert!(!report.exhausted);
        assert!(report.is_safe());
    }

    #[test]
    fn crash_at_start_is_explored_safely() {
        let report = Explorer::new(
            Partition::from_sizes(&[2, 1]).unwrap(),
            Algorithm::CommonCoin,
        )
        .crashes(CrashPlan::new().crash_at_start(ProcessId(2)))
        .max_rounds(2)
        .max_schedules(2_000)
        .run();
        assert!(report.is_safe(), "{report:?}");
        assert!(report.schedules_run > 0);
    }

    #[test]
    #[should_panic(expected = "time-triggered")]
    fn at_time_crash_rejected() {
        let _ = Explorer::new(Partition::from_sizes(&[2]).unwrap(), Algorithm::LocalCoin)
            .crashes(
                CrashPlan::new()
                    .crash_at_time(ProcessId(0), ofa_scenario::VirtualTime::from_ticks(5)),
            )
            .max_schedules(10)
            .run();
    }

    #[test]
    fn trigger_enum_is_public() {
        // AtStep(0) crashes are the explorer-friendly form.
        let t = ofa_scenario::CrashTrigger::AtStep(0);
        assert_eq!(format!("{t:?}"), "AtStep(0)");
    }
}
