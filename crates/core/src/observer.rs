//! Online invariant checking: WA1, WA2, agreement, validity.
//!
//! The paper states two *weak agreement* predicates that hold at every
//! round of Algorithm 2:
//!
//! * **WA1** (after phase 1):
//!   `(est2_i ≠ ⊥) ∧ (est2_j ≠ ⊥) ⇒ (est2_i = est2_j)`,
//! * **WA2** (after phase 2):
//!   `(rec_i = {v})` and `(rec_j = {⊥})` are mutually exclusive.
//!
//! [`InvariantChecker`] receives [`ObsEvent`]s from every process of a run
//! and verifies WA1, WA2, agreement, and validity *online*, per protocol
//! instance. The E9 ablation demonstrates WA1 violations by running
//! amplification without cluster pre-agreement and counting what this
//! checker reports.

use crate::{fmt_est, Bit, ObsEvent};
use ofa_topology::ProcessId;
use parking_lot::Mutex;
use std::collections::HashMap;

/// A sink for protocol events, shared by all processes of a run.
pub trait Observer: Send + Sync {
    /// Called by process `who`'s environment on each protocol event.
    fn on_event(&self, who: ProcessId, event: &ObsEvent);
}

/// Classification of `rec_i` stored for WA2 checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecKind {
    SingleValue(Bit),
    BotOnly,
    Mixed,
}

#[derive(Debug, Default)]
struct CheckState {
    /// Proposals per (instance, process).
    proposals: HashMap<(u64, ProcessId), Bit>,
    /// Non-⊥ est2 values per (instance, round).
    est2: HashMap<(u64, u64), Vec<(ProcessId, Bit)>>,
    /// Rec kinds per (instance, round).
    recs: HashMap<(u64, u64), Vec<(ProcessId, RecKind)>>,
    /// Decisions per (instance, process).
    decisions: HashMap<(u64, ProcessId), Bit>,
    violations: Vec<String>,
}

/// An [`Observer`] that checks the paper's invariants as events arrive.
///
/// # Examples
///
/// ```
/// use ofa_core::{Bit, InvariantChecker, Observer, ObsEvent};
/// use ofa_topology::ProcessId;
///
/// let checker = InvariantChecker::new();
/// checker.on_event(ProcessId(0), &ObsEvent::Propose { instance: 0, value: Bit::One });
/// checker.on_event(
///     ProcessId(0),
///     &ObsEvent::Deciding { instance: 0, round: 1, value: Bit::One, relayed: false },
/// );
/// assert!(checker.is_clean());
/// assert_eq!(checker.decisions().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct InvariantChecker {
    state: Mutex<CheckState>,
}

impl InvariantChecker {
    /// Creates a checker with no recorded events.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` if no invariant has been violated so far.
    pub fn is_clean(&self) -> bool {
        self.state.lock().violations.is_empty()
    }

    /// The violations recorded so far (empty for conforming executions).
    pub fn violations(&self) -> Vec<String> {
        self.state.lock().violations.clone()
    }

    /// The instance-0 decisions recorded so far, by process.
    pub fn decisions(&self) -> HashMap<ProcessId, Bit> {
        self.decisions_for(0)
    }

    /// The decisions of one protocol instance, by process.
    pub fn decisions_for(&self, instance: u64) -> HashMap<ProcessId, Bit> {
        self.state
            .lock()
            .decisions
            .iter()
            .filter(|((i, _), _)| *i == instance)
            .map(|((_, p), v)| (*p, *v))
            .collect()
    }

    /// The instance-0 proposals recorded so far, by process.
    pub fn proposals(&self) -> HashMap<ProcessId, Bit> {
        self.state
            .lock()
            .proposals
            .iter()
            .filter(|((i, _), _)| *i == 0)
            .map(|((_, p), v)| (*p, *v))
            .collect()
    }

    /// Panics with the violation list if any invariant was broken.
    ///
    /// # Panics
    ///
    /// Panics iff `!self.is_clean()`.
    pub fn assert_clean(&self) {
        let v = self.violations();
        assert!(v.is_empty(), "invariant violations: {v:#?}");
    }
}

impl Observer for InvariantChecker {
    fn on_event(&self, who: ProcessId, event: &ObsEvent) {
        let mut st = self.state.lock();
        match *event {
            ObsEvent::Propose { instance, value } => {
                st.proposals.insert((instance, who), value);
            }
            ObsEvent::Est2 {
                instance,
                round,
                est2,
            } => {
                if let Some(v) = est2 {
                    if let Some(&(other, w)) = st
                        .est2
                        .get(&(instance, round))
                        .and_then(|xs| xs.iter().find(|x| x.1 != v))
                    {
                        st.violations.push(format!(
                            "WA1 violated at instance {instance} round {round}: {who} championed {} but {other} championed {}",
                            fmt_est(Some(v)),
                            fmt_est(Some(w)),
                        ));
                    }
                    st.est2.entry((instance, round)).or_default().push((who, v));
                }
            }
            ObsEvent::Rec {
                instance,
                round,
                saw_zero,
                saw_one,
                saw_bot,
            } => {
                let kind = match (saw_zero, saw_one, saw_bot) {
                    (true, true, _) => {
                        st.violations.push(format!(
                            "WA1 corollary violated at instance {instance} round {round}: {who} received both 0 and 1 in phase 2"
                        ));
                        RecKind::Mixed
                    }
                    (false, false, _) => RecKind::BotOnly,
                    (z, o, true) => {
                        let _ = (z, o);
                        RecKind::Mixed
                    }
                    (true, false, false) => RecKind::SingleValue(Bit::Zero),
                    (false, true, false) => RecKind::SingleValue(Bit::One),
                };
                let clashes: Vec<String> = st
                    .recs
                    .get(&(instance, round))
                    .into_iter()
                    .flatten()
                    .filter(|&&(_, other_kind)| {
                        matches!(
                            (kind, other_kind),
                            (RecKind::SingleValue(_), RecKind::BotOnly)
                                | (RecKind::BotOnly, RecKind::SingleValue(_))
                        )
                    })
                    .map(|&(other, other_kind)| {
                        format!(
                            "WA2 violated at instance {instance} round {round}: {who} saw {kind:?} while {other} saw {other_kind:?}"
                        )
                    })
                    .collect();
                st.violations.extend(clashes);
                st.recs
                    .entry((instance, round))
                    .or_default()
                    .push((who, kind));
            }
            ObsEvent::Deciding {
                instance,
                value,
                round,
                ..
            } => {
                // Agreement: all decided values of an instance must match.
                if let Some((&(_, other), &w)) = st
                    .decisions
                    .iter()
                    .find(|&((i, _), &w)| *i == instance && w != value)
                {
                    st.violations.push(format!(
                        "AGREEMENT violated in instance {instance}: {who} decided {value} (round {round}) but {other} decided {w}"
                    ));
                }
                // Validity: the decided value must have been proposed in
                // this instance.
                let any_proposals = st.proposals.keys().any(|(i, _)| *i == instance);
                if any_proposals
                    && !st
                        .proposals
                        .iter()
                        .any(|((i, _), &p)| *i == instance && p == value)
                {
                    st.violations.push(format!(
                        "VALIDITY violated in instance {instance}: {who} decided {value}, which nobody proposed"
                    ));
                }
                st.decisions.insert((instance, who), value);
            }
            ObsEvent::RoundStart { .. }
            | ObsEvent::ClusterAgreed { .. }
            | ObsEvent::Coin { .. }
            | ObsEvent::MailboxStats { .. }
            | ObsEvent::MvDecided { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Est;

    fn est2(round: u64, est2: Est) -> ObsEvent {
        ObsEvent::Est2 {
            instance: 0,
            round,
            est2,
        }
    }

    fn rec(round: u64, z: bool, o: bool, b: bool) -> ObsEvent {
        ObsEvent::Rec {
            instance: 0,
            round,
            saw_zero: z,
            saw_one: o,
            saw_bot: b,
        }
    }

    fn deciding(round: u64, value: Bit) -> ObsEvent {
        ObsEvent::Deciding {
            instance: 0,
            round,
            value,
            relayed: false,
        }
    }

    #[test]
    fn wa1_same_value_is_clean() {
        let c = InvariantChecker::new();
        c.on_event(ProcessId(0), &est2(1, Some(Bit::One)));
        c.on_event(ProcessId(1), &est2(1, Some(Bit::One)));
        c.on_event(ProcessId(2), &est2(1, None));
        assert!(c.is_clean());
    }

    #[test]
    fn wa1_conflicting_values_flagged() {
        let c = InvariantChecker::new();
        c.on_event(ProcessId(0), &est2(3, Some(Bit::One)));
        c.on_event(ProcessId(1), &est2(3, Some(Bit::Zero)));
        let v = c.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("WA1"), "{v:?}");
        assert!(v[0].contains("round 3"));
    }

    #[test]
    fn wa1_different_rounds_or_instances_do_not_clash() {
        let c = InvariantChecker::new();
        c.on_event(ProcessId(0), &est2(1, Some(Bit::One)));
        c.on_event(ProcessId(1), &est2(2, Some(Bit::Zero)));
        c.on_event(
            ProcessId(1),
            &ObsEvent::Est2 {
                instance: 7,
                round: 1,
                est2: Some(Bit::Zero),
            },
        );
        assert!(c.is_clean());
    }

    #[test]
    fn wa2_single_vs_bot_flagged() {
        let c = InvariantChecker::new();
        c.on_event(ProcessId(0), &rec(2, false, true, false));
        c.on_event(ProcessId(1), &rec(2, false, false, true));
        let v = c.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("WA2"));
    }

    #[test]
    fn wa2_single_vs_mixed_is_fine() {
        let c = InvariantChecker::new();
        c.on_event(ProcessId(0), &rec(2, false, true, false));
        c.on_event(ProcessId(1), &rec(2, false, true, true));
        assert!(c.is_clean());
    }

    #[test]
    fn agreement_violation_flagged() {
        let c = InvariantChecker::new();
        c.on_event(
            ProcessId(0),
            &ObsEvent::Propose {
                instance: 0,
                value: Bit::Zero,
            },
        );
        c.on_event(
            ProcessId(1),
            &ObsEvent::Propose {
                instance: 0,
                value: Bit::One,
            },
        );
        c.on_event(ProcessId(0), &deciding(1, Bit::Zero));
        c.on_event(ProcessId(1), &deciding(2, Bit::One));
        let v = c.violations();
        assert!(v.iter().any(|s| s.contains("AGREEMENT")), "{v:?}");
    }

    #[test]
    fn agreement_is_per_instance() {
        let c = InvariantChecker::new();
        c.on_event(ProcessId(0), &deciding(1, Bit::Zero));
        c.on_event(
            ProcessId(1),
            &ObsEvent::Deciding {
                instance: 1,
                round: 1,
                value: Bit::One,
                relayed: false,
            },
        );
        assert!(c.is_clean(), "different instances may decide differently");
        assert_eq!(c.decisions_for(0).len(), 1);
        assert_eq!(c.decisions_for(1).len(), 1);
    }

    #[test]
    fn validity_violation_flagged() {
        let c = InvariantChecker::new();
        c.on_event(
            ProcessId(0),
            &ObsEvent::Propose {
                instance: 0,
                value: Bit::Zero,
            },
        );
        c.on_event(
            ProcessId(1),
            &ObsEvent::Propose {
                instance: 0,
                value: Bit::Zero,
            },
        );
        c.on_event(ProcessId(1), &deciding(1, Bit::One));
        let v = c.violations();
        assert!(v.iter().any(|s| s.contains("VALIDITY")), "{v:?}");
    }

    #[test]
    #[should_panic(expected = "invariant violations")]
    fn assert_clean_panics_on_violation() {
        let c = InvariantChecker::new();
        c.on_event(ProcessId(0), &est2(1, Some(Bit::One)));
        c.on_event(ProcessId(1), &est2(1, Some(Bit::Zero)));
        c.assert_clean();
    }
}
