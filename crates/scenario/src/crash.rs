//! Crash injection (§II-A: "a crash is a premature halt").
//!
//! Three trigger kinds cover the failure patterns the paper reasons about:
//!
//! * [`CrashTrigger::AtStep`] — crash at the `k`-th environment call.
//!   Because `broadcast` is a per-destination send loop, a step-indexed
//!   crash lands *inside* a broadcast, delivering the message to an
//!   arbitrary prefix of processes — exactly the paper's non-reliable
//!   broadcast macro-operation.
//! * [`CrashTrigger::AtTime`] — crash at a virtual time (scheduled as a
//!   simulator event; fires even while the process is blocked).
//! * [`CrashTrigger::AtRound`] — crash when the process enters its
//!   `r`-th protocol round, for round-aligned failure patterns. Rounds
//!   are counted cumulatively across consensus instances, so the
//!   trigger also fires inside multi-instance bodies (multivalued
//!   stages, replicated-log slots).

use crate::VirtualTime;
use ofa_core::{Halt, ObsEvent};
use ofa_metrics::{CounterSnapshot, ServiceStats};
use ofa_topology::{ProcessId, ProcessSet};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// When a process should crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashTrigger {
    /// Crash at the `k`-th environment call (0 = before any step — the
    /// process is crashed from the start).
    AtStep(u64),
    /// Crash at the given virtual time.
    AtTime(VirtualTime),
    /// Crash upon entering the given round (cumulative across
    /// instances: the `r`-th `RoundStart` the process observes).
    AtRound(u64),
}

/// The failure pattern of one run: which processes crash, and when.
///
/// # Examples
///
/// ```
/// use ofa_scenario::{CrashPlan, CrashTrigger, VirtualTime};
/// use ofa_topology::ProcessId;
///
/// let plan = CrashPlan::new()
///     .crash_at_start(ProcessId(0))
///     .crash_at_step(ProcessId(3), 12)
///     .crash_at_time(ProcessId(5), VirtualTime::from_ticks(2_000));
/// assert_eq!(plan.len(), 3);
/// assert!(plan.trigger(ProcessId(3)).is_some());
/// assert!(plan.trigger(ProcessId(1)).is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrashPlan {
    triggers: HashMap<ProcessId, CrashTrigger>,
}

impl CrashPlan {
    /// No crashes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Crashes `p` before it takes any step.
    pub fn crash_at_start(mut self, p: ProcessId) -> Self {
        self.triggers.insert(p, CrashTrigger::AtStep(0));
        self
    }

    /// Crashes `p` at its `k`-th environment call.
    pub fn crash_at_step(mut self, p: ProcessId, k: u64) -> Self {
        self.triggers.insert(p, CrashTrigger::AtStep(k));
        self
    }

    /// Crashes `p` at virtual time `t`.
    pub fn crash_at_time(mut self, p: ProcessId, t: VirtualTime) -> Self {
        self.triggers.insert(p, CrashTrigger::AtTime(t));
        self
    }

    /// Crashes `p` when it enters its `r`-th protocol round (counted
    /// cumulatively across instances for multi-instance bodies).
    pub fn crash_at_round(mut self, p: ProcessId, r: u64) -> Self {
        self.triggers.insert(p, CrashTrigger::AtRound(r));
        self
    }

    /// Crashes every member of `set` from the start.
    pub fn crash_set_at_start(mut self, set: &ProcessSet) -> Self {
        for p in set {
            self.triggers.insert(p, CrashTrigger::AtStep(0));
        }
        self
    }

    /// Inserts (or overwrites) the trigger for `p` in place — the
    /// non-builder form, for merging plans (e.g. a divergent-replay
    /// spec's extra crashes onto a checkpoint's original plan).
    pub fn insert(&mut self, p: ProcessId, trigger: CrashTrigger) {
        self.triggers.insert(p, trigger);
    }

    /// Removes the trigger for `p` in place, returning it if any — the
    /// inverse of [`CrashPlan::insert`], for schedule mutation (the
    /// adversarial explorer's remove-a-crash operator).
    pub fn remove(&mut self, p: ProcessId) -> Option<CrashTrigger> {
        self.triggers.remove(&p)
    }

    /// The trigger for `p`, if any.
    pub fn trigger(&self, p: ProcessId) -> Option<CrashTrigger> {
        self.triggers.get(&p).copied()
    }

    /// Number of planned crashes.
    pub fn len(&self) -> usize {
        self.triggers.len()
    }

    /// `true` if no crash is planned.
    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty()
    }

    /// The processes with a plan entry, as a set over universe `n`.
    pub fn planned_set(&self, n: usize) -> ProcessSet {
        ProcessSet::from_indices(n, self.triggers.keys().map(|p| p.index()))
    }

    /// Iterates over `(process, trigger)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, CrashTrigger)> + '_ {
        self.triggers.iter().map(|(p, t)| (*p, *t))
    }
}

/// Serialized as a process-index-sorted list of `[index, trigger]` pairs,
/// so the encoding is canonical regardless of hash-map iteration order.
impl Serialize for CrashPlan {
    fn to_value(&self) -> serde::Value {
        let mut entries: Vec<(ProcessId, CrashTrigger)> = self.iter().collect();
        entries.sort_by_key(|(p, _)| *p);
        serde::Value::Seq(
            entries
                .into_iter()
                .map(|(p, t)| {
                    serde::Value::Seq(vec![serde::Value::U64(p.index() as u64), t.to_value()])
                })
                .collect(),
        )
    }
}

impl Deserialize for CrashPlan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries: Vec<(usize, CrashTrigger)> = Deserialize::from_value(v)?;
        let mut plan = CrashPlan::new();
        for (i, t) in entries {
            plan.triggers.insert(ProcessId(i), t);
        }
        Ok(plan)
    }
}

/// One process's account under the rules every execution environment
/// shares: what a step is, when a step- or round-indexed
/// [`CrashTrigger`] fires, and how an [`ObsEvent`] counts. Plain data:
/// only the thread stepping a process ever writes its account.
///
/// What stays with each environment is what it charges per operation
/// (its clock, the per-operation counters, trace records) and its own
/// crash sources (an [`CrashTrigger::AtTime`] trigger); an environment
/// whose crash source fired sets [`ProcAccount::crashed_self`].
///
/// # Examples
///
/// ```
/// use ofa_core::Halt;
/// use ofa_scenario::{CrashPlan, ProcAccount};
/// use ofa_topology::ProcessId;
///
/// let plan = CrashPlan::new().crash_at_step(ProcessId(0), 1);
/// let mut account = ProcAccount::new(&plan, ProcessId(0));
/// assert_eq!(account.step(), Ok(()));
/// assert_eq!(account.step(), Err(Halt::Crashed));
/// ```
// `repr(C)` keeps what every step reads (the steps, the trigger, the
// crash flag) and the message counters on the account's first cache
// line: the event loop steps a process for nearly every delivery.
#[derive(Debug, Clone, Default, PartialEq)]
#[repr(C)]
pub struct ProcAccount {
    /// Environment calls taken by this incarnation (the `AtStep`
    /// countdown).
    pub steps: u64,
    /// The process's `AtStep` or `AtRound` trigger, read from the plan
    /// once.
    trigger: Option<CrashTrigger>,
    /// The process crashed: a trigger fired, or its environment's own
    /// crash source did. Every later step fails.
    pub crashed_self: bool,
    /// Metric counters; they persist across churn incarnations.
    pub counters: CounterSnapshot,
    /// Client-service statistics merged in by each incarnation's
    /// terminal emission (traffic-driven replicated logs only).
    pub service: ServiceStats,
}

impl ProcAccount {
    /// A fresh account for `pid` under `plan`.
    pub fn new(plan: &CrashPlan, pid: ProcessId) -> Self {
        ProcAccount {
            trigger: plan
                .trigger(pid)
                .filter(|t| !matches!(t, CrashTrigger::AtTime(_))),
            ..ProcAccount::default()
        }
    }

    /// Counts one environment call. An `AtStep(k)` trigger fails step
    /// `k + 1` and every step after it.
    #[inline]
    pub fn step(&mut self) -> Result<(), Halt> {
        self.steps += 1;
        if matches!(self.trigger, Some(CrashTrigger::AtStep(k)) if self.steps > k) {
            self.crashed_self = true;
        }
        if self.crashed_self {
            return Err(Halt::Crashed);
        }
        Ok(())
    }

    /// Takes `n` steps at once if no step can fail: no `AtStep` trigger
    /// is planned and no crash has happened. Otherwise takes none and
    /// returns `false`, so the caller steps one call at a time.
    #[inline]
    pub fn steps_at_once(&mut self, n: u64) -> bool {
        if self.crashed_self || matches!(self.trigger, Some(CrashTrigger::AtStep(_))) {
            return false;
        }
        self.steps += n;
        true
    }

    /// Folds an observation into the counters. An `AtRound(r)` trigger
    /// fires at the `r`-th `RoundStart`, counted across instances
    /// (multivalued stages, log slots), so it fires inside
    /// multi-instance bodies too.
    #[inline]
    pub fn observe(&mut self, event: &ObsEvent) {
        let c = &mut self.counters;
        match *event {
            ObsEvent::RoundStart { .. } => {
                c.rounds_started += 1;
                if matches!(self.trigger, Some(CrashTrigger::AtRound(r)) if c.rounds_started >= r) {
                    self.crashed_self = true;
                }
            }
            ObsEvent::Deciding { relayed: true, .. } => c.decide_relays += 1,
            ObsEvent::Deciding { relayed: false, .. } => c.decisions += 1,
            ObsEvent::MailboxStats { stale_dropped } => c.stale_dropped += stale_dropped,
            _ => {}
        }
    }

    /// Resets for a churn rejoin: the next incarnation starts at step
    /// 0, not crashed. The counters and service statistics persist.
    /// Churned processes carry no trigger: the two plans are disjoint.
    pub fn rejoin(&mut self) {
        self.steps = 0;
        self.crashed_self = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate() {
        let plan = CrashPlan::new()
            .crash_at_start(ProcessId(1))
            .crash_at_round(ProcessId(2), 3);
        assert_eq!(plan.trigger(ProcessId(1)), Some(CrashTrigger::AtStep(0)));
        assert_eq!(plan.trigger(ProcessId(2)), Some(CrashTrigger::AtRound(3)));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn later_entries_overwrite() {
        let plan = CrashPlan::new()
            .crash_at_start(ProcessId(0))
            .crash_at_step(ProcessId(0), 9);
        assert_eq!(plan.trigger(ProcessId(0)), Some(CrashTrigger::AtStep(9)));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn set_crash_covers_all_members() {
        let set = ProcessSet::from_indices(7, [0, 5, 6]);
        let plan = CrashPlan::new().crash_set_at_start(&set);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.planned_set(7), set);
    }

    #[test]
    fn empty_plan() {
        let plan = CrashPlan::new();
        assert!(plan.is_empty());
        assert!(plan.planned_set(4).is_empty());
        assert_eq!(plan.iter().count(), 0);
    }

    fn round_start(instance: u64, round: u64) -> ObsEvent {
        ObsEvent::RoundStart { instance, round }
    }

    #[test]
    fn a_step_trigger_fails_the_step_after_its_count_and_no_earlier_one() {
        for k in [0u64, 1, 5] {
            let p = ProcessId(2);
            let mut account = ProcAccount::new(&CrashPlan::new().crash_at_step(p, k), p);
            for step in 1..=k {
                assert_eq!(account.step(), Ok(()), "AtStep({k}), step {step}");
            }
            assert!(!account.crashed_self);
            assert_eq!(account.step(), Err(Halt::Crashed), "AtStep({k})");
            assert_eq!(account.step(), Err(Halt::Crashed), "and every step after");
            assert_eq!(account.steps, k + 2);
        }
        // Another process's trigger, and a timed one, are not this
        // account's to fire.
        let plan = CrashPlan::new()
            .crash_at_step(ProcessId(0), 0)
            .crash_at_time(ProcessId(1), VirtualTime::from_ticks(0));
        for p in [ProcessId(1), ProcessId(3)] {
            let mut account = ProcAccount::new(&plan, p);
            assert!((0..100).all(|_| account.step().is_ok()), "{p}");
        }
    }

    #[test]
    fn steps_at_once_only_where_no_step_can_fail() {
        let p = ProcessId(0);
        let mut free = ProcAccount::new(&CrashPlan::new().crash_at_round(p, 9), p);
        assert!(free.steps_at_once(6));
        assert_eq!(free.steps, 6);
        free.crashed_self = true;
        assert!(!free.steps_at_once(6), "a crashed process takes no step");
        let mut armed = ProcAccount::new(&CrashPlan::new().crash_at_step(p, 100), p);
        assert!(!armed.steps_at_once(6), "a step trigger is planned");
        assert_eq!(armed.steps, 0, "a refusal takes no step");
    }

    #[test]
    fn a_round_trigger_counts_round_starts_across_instances() {
        let p = ProcessId(1);
        let mut account = ProcAccount::new(&CrashPlan::new().crash_at_round(p, 3), p);
        // Two rounds of instance 0, then round 1 of instance 1: the third
        // round start overall, though no instance reached round 3.
        account.observe(&round_start(0, 1));
        account.observe(&round_start(0, 2));
        assert_eq!(account.step(), Ok(()));
        account.observe(&round_start(1, 1));
        assert!(account.crashed_self);
        assert_eq!(account.counters.rounds_started, 3);
        assert_eq!(account.step(), Err(Halt::Crashed));
    }

    #[test]
    fn observations_fold_into_their_counters() {
        let mut account = ProcAccount::default();
        let deciding = |relayed| ObsEvent::Deciding {
            instance: 0,
            round: 2,
            value: ofa_core::Bit::One,
            relayed,
        };
        account.observe(&deciding(false));
        account.observe(&deciding(true));
        account.observe(&deciding(true));
        account.observe(&ObsEvent::MailboxStats { stale_dropped: 7 });
        account.observe(&ObsEvent::MailboxStats { stale_dropped: 5 });
        account.observe(&ObsEvent::Propose {
            instance: 0,
            value: ofa_core::Bit::Zero,
        });
        let expected = CounterSnapshot {
            decisions: 1,
            decide_relays: 2,
            stale_dropped: 12,
            ..CounterSnapshot::default()
        };
        assert_eq!(account.counters, expected);
        assert!(!account.crashed_self, "no trigger, no crash");
    }

    #[test]
    fn a_rejoin_resets_the_steps_and_the_crash_but_keeps_the_counters() {
        let p = ProcessId(4);
        let mut account = ProcAccount::new(&CrashPlan::new(), p);
        account.step().expect("no trigger");
        account.observe(&round_start(0, 1));
        account.counters.messages_sent = 9;
        account.service.committed = 3;
        account.crashed_self = true;
        let before = account.clone();
        account.rejoin();
        assert_eq!((account.steps, account.crashed_self), (0, false));
        assert_eq!(account.counters, before.counters);
        assert_eq!(account.service, before.service);
        assert_eq!(account.step(), Ok(()));
    }
}
