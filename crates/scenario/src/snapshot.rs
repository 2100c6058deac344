//! Checkpoint/restore of in-flight executions.
//!
//! A [`Snapshot`] freezes a deterministic run at a virtual-time cut: the
//! scenario that produced it, the cut time `at`, and an engine-state value
//! holding every resident state machine, mailbox, scheduler entry, PRF
//! send counter, coin stream, shared-memory content, and metric counter.
//! Resuming a snapshot continues the run **bit-for-bit** — the same
//! decisions, counters, `end_time`, and multiset trace hash as the
//! straight-through execution — on any event engine, because the engine
//! state is stored in a canonical engine-independent form (sequential
//! runs can resume parallel checkpoints and vice versa).
//!
//! The cut contract: at checkpoint time `T`, every event scheduled
//! strictly before `T` has been processed and none at `>= T` has.
//! Everything not yet delivered rides in the snapshot's heap section.
//!
//! Snapshots also enable **divergent replay** ([`DivergeSpec`]): resume a
//! checkpoint with a mutated tail — a crash injected after the cut, a
//! different delay seed, a common-coin override — to explore "what if the
//! run had gone differently from here".

use crate::{CoinSpec, CrashPlan, Scenario, VirtualTime};
use serde::{Deserialize, Serialize};

/// Current snapshot format version; bumped on incompatible layout
/// changes so stale CI artifacts fail loudly instead of resuming wrong.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A serializable checkpoint of one in-flight deterministic execution.
///
/// Produced by checkpoint-capable backends (`ofa-sim`'s `run_until`);
/// consumed by [`crate::Backend::run_from`]. The embedded [`Scenario`]
/// is the *resume* scenario: mutating its tail-relevant knobs before
/// resuming (crash triggers after the cut, the coin spec, the seed used
/// for not-yet-drawn delays) is exactly the [`DivergeSpec`] mechanism.
#[derive(Debug, Clone, Serialize)]
pub struct Snapshot {
    /// Snapshot format version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// The scenario the run was started from.
    pub scenario: Scenario,
    /// The virtual-time cut: events before `at` happened, events at or
    /// after `at` are still pending in `engine_state`.
    pub at: VirtualTime,
    /// Canonical engine state (machines, mailboxes, heap, counters,
    /// coins, memories) in the simulator's engine-independent encoding.
    pub engine_state: serde::Value,
}

/// Read by hand: the version first, because another layout may not
/// decode the rest.
impl Deserialize for Snapshot {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::msg(format!("Snapshot: missing field {name:?}")))
        };
        let version = Deserialize::from_value(field("version")?)?;
        if version != SNAPSHOT_VERSION {
            return Err(serde::Error::msg(format!(
                "Snapshot: format version {version} (this build reads {SNAPSHOT_VERSION})"
            )));
        }
        Ok(Snapshot {
            version,
            scenario: Deserialize::from_value(field("scenario")?)?,
            at: Deserialize::from_value(field("at")?)?,
            engine_state: field("engine_state")?.clone(),
        })
    }
}

/// A mutation of a checkpoint's *tail*: what to change about the world
/// from the cut onward before resuming. Everything before the cut is
/// already history inside the snapshot and cannot be altered.
#[derive(Debug, Clone, Default)]
pub struct DivergeSpec {
    /// Replace the master seed for randomness not yet consumed at the
    /// cut (message delays of future sends). Coins and counters already
    /// captured keep their exact state.
    pub seed: Option<u64>,
    /// Replace the common-coin source for rounds evaluated after the
    /// cut (common coins are stateless by round, so this is exact).
    pub coin: Option<CoinSpec>,
    /// Additional crash triggers. Time-based triggers that fire before
    /// the cut are ignored (that time already happened); step/round
    /// triggers apply to processes still running.
    pub extra_crashes: CrashPlan,
}

impl DivergeSpec {
    /// No changes: resuming with this spec replays the original tail.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a replacement delay seed for the tail.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets a replacement common-coin source for the tail.
    pub fn coin(mut self, coin: CoinSpec) -> Self {
        self.coin = Some(coin);
        self
    }

    /// Adds crash triggers to the tail.
    pub fn crashes(mut self, plan: CrashPlan) -> Self {
        self.extra_crashes = plan;
        self
    }

    /// Applies the mutation to a snapshot's embedded scenario, yielding
    /// the scenario the diverged resume should run under.
    pub fn apply(&self, scenario: &Scenario) -> Scenario {
        let mut diverged = scenario.clone();
        if let Some(seed) = self.seed {
            diverged.seed = seed;
        }
        if let Some(coin) = &self.coin {
            diverged.coin = coin.clone();
        }
        for (p, trigger) in self.extra_crashes.iter() {
            diverged.crashes.insert(p, trigger);
        }
        diverged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrashTrigger;
    use ofa_core::Algorithm;
    use ofa_topology::{Partition, ProcessId};

    fn snapshot() -> Snapshot {
        Snapshot {
            version: SNAPSHOT_VERSION,
            scenario: Scenario::new(Partition::even(4, 2), Algorithm::LocalCoin).seed(7),
            at: VirtualTime::from_ticks(1_234),
            engine_state: serde::Value::Map(vec![(
                "counters".to_string(),
                serde::Value::Seq(vec![serde::Value::U64(3)]),
            )]),
        }
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let copy: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(copy.version, SNAPSHOT_VERSION);
        assert_eq!(copy.at, snap.at);
        assert_eq!(copy.scenario.seed, 7);
        assert_eq!(
            serde_json::to_string(&copy).unwrap(),
            json,
            "canonical form is stable"
        );
    }

    #[test]
    fn version_mismatch_fails_loudly() {
        let mut snap = snapshot();
        snap.version = SNAPSHOT_VERSION + 1;
        let json = serde_json::to_string(&snap).unwrap();
        let err = serde_json::from_str::<Snapshot>(&json).unwrap_err();
        assert!(err.to_string().contains("format version"), "{err}");
    }

    #[test]
    fn another_version_is_refused_before_its_scenario_is_decoded() {
        let scenario = serde::Value::Str("a layout this build cannot read".to_string());
        assert!(Scenario::from_value(&scenario).is_err());
        let value = serde::Value::Map(vec![
            ("version".to_string(), 2u32.to_value()),
            ("scenario".to_string(), scenario),
            ("at".to_string(), VirtualTime::from_ticks(1).to_value()),
            ("engine_state".to_string(), serde::Value::Null),
        ]);
        let err = Snapshot::from_value(&value).unwrap_err().to_string();
        assert!(err.contains("format version 2"), "{err}");
    }

    #[test]
    fn diverge_spec_mutates_only_what_it_names() {
        let snap = snapshot();
        let spec = DivergeSpec::new()
            .seed(99)
            .crashes(CrashPlan::new().crash_at_time(ProcessId(1), VirtualTime::from_ticks(2_000)));
        let diverged = spec.apply(&snap.scenario);
        assert_eq!(diverged.seed, 99);
        assert_eq!(diverged.coin, snap.scenario.coin, "coin untouched");
        assert_eq!(diverged.crashes.len(), snap.scenario.crashes.len() + 1);
        assert!(diverged.crashes.iter().any(|(p, t)| p == ProcessId(1)
            && matches!(t, CrashTrigger::AtTime(at) if at.ticks() == 2_000)));
    }
}
