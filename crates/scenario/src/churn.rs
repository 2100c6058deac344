//! Churn: scheduled leaves and rejoins.
//!
//! A [`crate::CrashPlan`] models the paper's crash faults — premature,
//! permanent halts. Real deployments also *churn*: a process leaves
//! (indistinguishable from a crash to its peers) and later rejoins with
//! a fresh runtime state. [`ChurnPlan`] schedules both halves at virtual
//! times: at `leave` the process crashes exactly like a
//! [`crate::CrashTrigger::AtTime`] trigger; at `rejoin` (if any) it
//! restarts its protocol machine from its original proposal with a fresh
//! mailbox, a rejoin-domain local-coin stream, and its accumulated
//! metric counters, then re-enters dissemination.
//!
//! Each process has at most one leave and one optional rejoin, so a
//! rejoined process is always on its second incarnation — which is what
//! lets checkpoints re-seed churn events from the plan (like timed
//! crashes) instead of storing incarnation state.
//!
//! Besides explicit per-process events, a plan can carry a
//! [`PoissonChurn`] *arrival process*: leaves arrive per process at a
//! `rate_ppm` per million ticks, with exponentially distributed
//! downtimes. The arrivals are a pure PRF of `(scenario seed, process)`
//! on a churn-separated domain — the same `(seed, p, k)` purity rule as
//! message delays — so a backend expands them into explicit events with
//! [`ChurnPlan::resolve`] before running, and every engine (and every
//! checkpoint resume) sees the identical expansion.

use crate::network::mix_delay_seed;
use crate::VirtualTime;
use ofa_topology::{ProcessId, ProcessSet};
use rand::distributions::exponential_ticks;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Domain separator folded into the churn-arrival PRF so Poisson churn
/// never collides with the delay, fate, duplication, or coin streams
/// derived from the same master seed.
const CHURN_DOMAIN_SEP: u64 = 0x000C_4A2B_0A12_5EED;

/// A Poisson churn arrival process: each process (independently)
/// leaves after an exponentially distributed wait and stays down for an
/// exponentially distributed time before rejoining.
///
/// Arrivals are sampled per process from a domain-separated PRF of the
/// scenario seed, so the expansion into explicit [`ChurnEvent`]s
/// ([`ChurnPlan::resolve`]) is a pure function of `(seed, n)` — the
/// same purity contract as per-message delays, which is what keeps all
/// three engines and checkpoint resumes bit-for-bit equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoissonChurn {
    /// Expected leaves per process per million ticks (the arrival
    /// rate). `0` disables the process entirely.
    pub rate_ppm: u32,
    /// Mean downtime in ticks before the rejoin; `0` means churned
    /// processes leave forever (no rejoin).
    pub mean_down_ticks: u64,
    /// Sampling horizon: a first arrival at or beyond this virtual time
    /// is discarded (the process never churns). Keeps the expansion
    /// finite and the event heap free of far-future no-ops.
    pub horizon_ticks: u64,
}

impl PoissonChurn {
    /// Default mean downtime (ticks): ten default network delays.
    pub const DEFAULT_MEAN_DOWN: u64 = 10_000;
    /// Default sampling horizon (ticks): ~tens of consensus rounds
    /// under the default network calibration.
    pub const DEFAULT_HORIZON: u64 = 100_000;
}

/// One process's scheduled departure, and optionally its return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// When the process leaves (crashes).
    pub leave: VirtualTime,
    /// When it rejoins, if ever. Must be strictly after `leave`.
    pub rejoin: Option<VirtualTime>,
}

/// The churn pattern of one run: which processes leave, and when (if
/// ever) they come back.
///
/// # Examples
///
/// ```
/// use ofa_scenario::{ChurnPlan, VirtualTime};
/// use ofa_topology::ProcessId;
///
/// let plan = ChurnPlan::new()
///     .leave(ProcessId(2), VirtualTime::from_ticks(3_000))
///     .leave_rejoin(
///         ProcessId(5),
///         VirtualTime::from_ticks(1_000),
///         VirtualTime::from_ticks(4_000),
///     );
/// assert_eq!(plan.len(), 2);
/// assert!(plan.event(ProcessId(5)).unwrap().rejoin.is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnPlan {
    events: HashMap<ProcessId, ChurnEvent>,
    poisson: Option<PoissonChurn>,
}

impl ChurnPlan {
    /// No churn.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `p` to leave at `t` and never return — equivalent to a
    /// timed crash, but kept in the churn plan (the two plans must name
    /// disjoint processes).
    pub fn leave(mut self, p: ProcessId, t: VirtualTime) -> Self {
        self.events.insert(
            p,
            ChurnEvent {
                leave: t,
                rejoin: None,
            },
        );
        self
    }

    /// Schedules `p` to leave at `leave` and rejoin at `rejoin`.
    pub fn leave_rejoin(mut self, p: ProcessId, leave: VirtualTime, rejoin: VirtualTime) -> Self {
        self.events.insert(
            p,
            ChurnEvent {
                leave,
                rejoin: Some(rejoin),
            },
        );
        self
    }

    /// Inserts (or overwrites) the churn event for `p` in place.
    pub fn insert(&mut self, p: ProcessId, event: ChurnEvent) {
        self.events.insert(p, event);
    }

    /// Removes the churn event for `p` in place, returning it if any.
    pub fn remove(&mut self, p: ProcessId) -> Option<ChurnEvent> {
        self.events.remove(&p)
    }

    /// Adds a Poisson arrival process with default downtime and horizon
    /// ([`PoissonChurn::DEFAULT_MEAN_DOWN`],
    /// [`PoissonChurn::DEFAULT_HORIZON`]): every process not named by an
    /// explicit event or the crash plan leaves at rate `rate_ppm` per
    /// million ticks and rejoins after an exponential downtime.
    pub fn poisson(self, rate_ppm: u32) -> Self {
        self.poisson_spec(PoissonChurn {
            rate_ppm,
            mean_down_ticks: PoissonChurn::DEFAULT_MEAN_DOWN,
            horizon_ticks: PoissonChurn::DEFAULT_HORIZON,
        })
    }

    /// Adds (or replaces, or with `None` clears) the full Poisson
    /// arrival spec.
    pub fn poisson_spec(mut self, spec: PoissonChurn) -> Self {
        self.poisson = Some(spec);
        self
    }

    /// The Poisson arrival spec, if any.
    pub fn poisson_arrivals(&self) -> Option<PoissonChurn> {
        self.poisson
    }

    /// Expands the plan into explicit events only: Poisson arrivals are
    /// sampled — one leave/rejoin pair per process, from a
    /// churn-domain-separated PRF of `(seed, process)` — for every
    /// process not already named by an explicit event or by `crashes`
    /// (whose failure semantics would race). A pure function of its
    /// arguments: backends call this once before running, so all
    /// engines, snapshots, and resumes see the identical expansion.
    pub fn resolve(&self, seed: u64, n: usize, crashes: &crate::CrashPlan) -> ChurnPlan {
        let Some(spec) = self.poisson else {
            return self.clone();
        };
        let mut resolved = ChurnPlan {
            events: self.events.clone(),
            poisson: None,
        };
        if spec.rate_ppm == 0 {
            return resolved;
        }
        let mean_gap = 1_000_000u64 / u64::from(spec.rate_ppm);
        for i in 0..n {
            let p = ProcessId(i);
            if resolved.events.contains_key(&p) || crashes.trigger(p).is_some() {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(mix_delay_seed(seed ^ CHURN_DOMAIN_SEP, p, p, 0));
            let leave = exponential_ticks(&mut rng, mean_gap);
            if leave >= spec.horizon_ticks {
                continue;
            }
            let rejoin = (spec.mean_down_ticks > 0).then(|| {
                let down = exponential_ticks(&mut rng, spec.mean_down_ticks).max(1);
                VirtualTime::from_ticks(leave + down)
            });
            resolved.events.insert(
                p,
                ChurnEvent {
                    leave: VirtualTime::from_ticks(leave),
                    rejoin,
                },
            );
        }
        resolved
    }

    /// The churn event for `p`, if any.
    pub fn event(&self, p: ProcessId) -> Option<ChurnEvent> {
        self.events.get(&p).copied()
    }

    /// Number of explicitly churning processes (a Poisson spec adds
    /// more at [`ChurnPlan::resolve`] time).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no churn is planned — neither explicit events nor a
    /// Poisson arrival process that could generate some.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.poisson.is_none_or(|p| p.rate_ppm == 0)
    }

    /// The churning processes, as a set over universe `n`.
    pub fn planned_set(&self, n: usize) -> ProcessSet {
        ProcessSet::from_indices(n, self.events.keys().map(|p| p.index()))
    }

    /// Iterates over `(process, event)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, ChurnEvent)> + '_ {
        self.events.iter().map(|(p, e)| (*p, *e))
    }

    /// Checks internal consistency against a universe of `n` processes
    /// and a crash plan.
    ///
    /// # Errors
    ///
    /// An event naming a process index `>= n`, a rejoin not strictly
    /// after its leave, a process in both the churn and the crash plan
    /// (their failure semantics would race), or a Poisson spec out of
    /// range (`rate_ppm > 1_000_000`, or a nonzero rate with a zero
    /// horizon), as a one-line message.
    pub fn validate(&self, n: usize, crashes: &crate::CrashPlan) -> Result<(), String> {
        if let Some(spec) = self.poisson {
            if spec.rate_ppm > 1_000_000 {
                return Err(format!(
                    "poisson churn rate {} ppm exceeds 1_000_000",
                    spec.rate_ppm
                ));
            }
            if spec.rate_ppm != 0 && spec.horizon_ticks == 0 {
                return Err(format!(
                    "poisson churn with rate {} ppm needs a nonzero horizon",
                    spec.rate_ppm
                ));
            }
        }
        for (p, e) in self.iter() {
            if p.index() >= n {
                return Err(format!(
                    "churn event names process index {} but n={n}",
                    p.index()
                ));
            }
            if let Some(r) = e.rejoin.filter(|&r| r <= e.leave) {
                return Err(format!(
                    "process {} rejoins at {} but leaves at {} (rejoin must be later)",
                    p.index(),
                    r.ticks(),
                    e.leave.ticks()
                ));
            }
            if crashes.trigger(p).is_some() {
                return Err(format!(
                    "process {} appears in both the churn plan and the crash plan",
                    p.index()
                ));
            }
        }
        Ok(())
    }
}

/// Serialized as a process-index-sorted list of `[index, event]` pairs —
/// same canonical shape as [`crate::CrashPlan`]. A plan carrying a
/// Poisson spec serializes as `{events, poisson}` instead; the bare list
/// shape is kept whenever no spec is set so pre-Poisson scenario JSON
/// replays byte-identically.
impl Serialize for ChurnPlan {
    fn to_value(&self) -> serde::Value {
        let mut entries: Vec<(ProcessId, ChurnEvent)> = self.iter().collect();
        entries.sort_by_key(|(p, _)| *p);
        let events = serde::Value::Seq(
            entries
                .into_iter()
                .map(|(p, e)| {
                    serde::Value::Seq(vec![serde::Value::U64(p.index() as u64), e.to_value()])
                })
                .collect(),
        );
        match self.poisson {
            None => events,
            Some(spec) => serde::Value::Map(vec![
                ("events".to_string(), events),
                ("poisson".to_string(), spec.to_value()),
            ]),
        }
    }
}

impl Deserialize for ChurnPlan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let (events_value, poisson) = match v {
            serde::Value::Map(_) => {
                let events = v
                    .get("events")
                    .ok_or_else(|| serde::Error::msg("ChurnPlan: missing field \"events\""))?;
                let poisson = match v.get("poisson") {
                    Some(spec) => Some(Deserialize::from_value(spec)?),
                    None => None,
                };
                (events, poisson)
            }
            _ => (v, None),
        };
        let entries: Vec<(usize, ChurnEvent)> = Deserialize::from_value(events_value)?;
        let mut plan = ChurnPlan::new();
        plan.poisson = poisson;
        for (i, e) in entries {
            plan.events.insert(ProcessId(i), e);
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrashPlan;

    #[test]
    fn builders_accumulate_and_overwrite() {
        let plan = ChurnPlan::new()
            .leave(ProcessId(1), VirtualTime::from_ticks(500))
            .leave_rejoin(
                ProcessId(1),
                VirtualTime::from_ticks(700),
                VirtualTime::from_ticks(900),
            );
        assert_eq!(plan.len(), 1, "later entries overwrite");
        let e = plan.event(ProcessId(1)).unwrap();
        assert_eq!(e.leave.ticks(), 700);
        assert_eq!(e.rejoin.unwrap().ticks(), 900);
        assert!(plan.planned_set(3).contains(ProcessId(1)));
    }

    #[test]
    fn serde_is_canonical_and_round_trips() {
        let plan = ChurnPlan::new()
            .leave(ProcessId(3), VirtualTime::from_ticks(100))
            .leave_rejoin(
                ProcessId(0),
                VirtualTime::from_ticks(50),
                VirtualTime::from_ticks(120),
            );
        let json = serde_json::to_string(&plan).unwrap();
        // Sorted by process index regardless of insertion order.
        assert!(
            json.find("[0,").unwrap() < json.find("[3,").unwrap(),
            "{json}"
        );
        let copy: ChurnPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(copy, plan);
    }

    #[test]
    fn poisson_resolution_is_pure_and_respects_exclusions() {
        let plan = ChurnPlan::new()
            .leave(ProcessId(0), VirtualTime::from_ticks(123))
            .poisson_spec(PoissonChurn {
                rate_ppm: 5_000, // mean first leave at 200 ticks
                mean_down_ticks: 500,
                horizon_ticks: 1_000_000,
            });
        let crashes = CrashPlan::new().crash_at_start(ProcessId(1));
        let a = plan.resolve(42, 64, &crashes);
        let b = plan.resolve(42, 64, &crashes);
        assert_eq!(a, b, "resolution is a pure function of (seed, n)");
        assert!(
            a.poisson_arrivals().is_none(),
            "resolved plans are explicit"
        );
        // The explicit event survives untouched; the crash-planned
        // process is skipped; everyone else churned (rate ≫ horizon⁻¹).
        assert_eq!(a.event(ProcessId(0)).unwrap().leave.ticks(), 123);
        assert!(a.event(ProcessId(1)).is_none(), "crash plan wins");
        assert!(a.len() > 32, "high rate churns most of the universe");
        a.validate(64, &crashes).unwrap();
        // A different seed samples a different expansion.
        assert_ne!(a, plan.resolve(43, 64, &crashes));
        // Zero downtime means leaves without rejoins.
        let forever = ChurnPlan::new()
            .poisson_spec(PoissonChurn {
                rate_ppm: 5_000,
                mean_down_ticks: 0,
                horizon_ticks: 1_000_000,
            })
            .resolve(7, 16, &CrashPlan::new());
        assert!(forever.iter().all(|(_, e)| e.rejoin.is_none()));
    }

    #[test]
    fn poisson_horizon_caps_the_expansion() {
        let sparse = ChurnPlan::new()
            .poisson_spec(PoissonChurn {
                rate_ppm: 100, // mean first leave at 10_000 ticks
                mean_down_ticks: 100,
                horizon_ticks: 10, // essentially no arrivals fit
            })
            .resolve(1, 1_000, &CrashPlan::new());
        assert!(sparse.len() < 10, "horizon discards late arrivals");
    }

    #[test]
    fn poisson_serde_round_trips_and_legacy_shape_is_preserved() {
        // No Poisson spec: the pre-Poisson bare-list shape, byte-compat.
        let legacy = ChurnPlan::new().leave(ProcessId(2), VirtualTime::from_ticks(9));
        let json = serde_json::to_string(&legacy).unwrap();
        assert!(
            json.starts_with('['),
            "legacy plans keep the list shape: {json}"
        );
        // With a spec: the {events, poisson} map, lossless.
        let plan = ChurnPlan::new()
            .leave(ProcessId(2), VirtualTime::from_ticks(9))
            .poisson(250);
        let json = serde_json::to_string(&plan).unwrap();
        let copy: ChurnPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(copy, plan);
        assert_eq!(copy.poisson_arrivals().unwrap().rate_ppm, 250);
    }

    #[test]
    fn poisson_zero_horizon_is_rejected() {
        let err = ChurnPlan::new()
            .poisson_spec(PoissonChurn {
                rate_ppm: 10,
                mean_down_ticks: 0,
                horizon_ticks: 0,
            })
            .validate(4, &CrashPlan::new())
            .unwrap_err();
        assert!(err.contains("needs a nonzero horizon"), "{err}");
    }

    #[test]
    fn rejoin_before_leave_is_rejected() {
        let err = ChurnPlan::new()
            .leave_rejoin(
                ProcessId(0),
                VirtualTime::from_ticks(500),
                VirtualTime::from_ticks(500),
            )
            .validate(2, &CrashPlan::new())
            .unwrap_err();
        assert!(err.contains("rejoin must be later"), "{err}");
    }

    #[test]
    fn overlap_with_crash_plan_is_rejected() {
        let err = ChurnPlan::new()
            .leave(ProcessId(0), VirtualTime::from_ticks(500))
            .validate(2, &CrashPlan::new().crash_at_start(ProcessId(0)))
            .unwrap_err();
        assert!(
            err.contains("both the churn plan and the crash plan"),
            "{err}"
        );
    }
}
