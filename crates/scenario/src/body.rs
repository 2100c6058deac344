//! What each process executes: a paper algorithm, a multivalued/SMR
//! workload, or a custom protocol.

use ofa_core::{Algorithm, Bit, Decision, Env, Halt, Payload, ProtocolConfig, TrafficSpec};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A custom protocol body, run once per process in place of one of the
/// built-in bodies (see [`crate::Scenario::custom_body`]).
///
/// Implementors receive the process's [`ofa_core::Env`] plus its binary
/// proposal and return a decision or halt like the built-in algorithms.
/// `ofa-mm` uses this for the m&m comparator. Any [`crate::Backend`] —
/// the deterministic simulator as well as the real-thread runtime — can
/// execute a custom body, since bodies only ever talk to the abstract
/// environment; virtual-time backends run custom bodies on the thread
/// conductor (they are blocking code, unlike the built-in bodies, which
/// also exist as resumable state machines).
pub trait ProcessBody: Send + Sync {
    /// Executes the protocol on behalf of `env.me()`.
    ///
    /// # Errors
    ///
    /// Returns the [`ofa_core::Halt`] that interrupted the process.
    fn run(
        &self,
        env: &mut dyn Env,
        proposal: Bit,
        config: &ProtocolConfig,
    ) -> Result<Decision, Halt>;
}

/// A serializable multivalued-consensus workload: one instance in which
/// process `i` proposes `proposals[i]` (an arbitrary payload), reduced to
/// the scenario's binary algorithm per [`ofa_core::multivalued_propose`].
///
/// The reported per-process [`Decision`] is
/// [`ofa_core::mv_body_decision`]: digest parity of the decided
/// `(proposer, payload)` pair as the value (agreement on payloads implies
/// agreement on the bit) and the stage count as the round.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MvWorkload {
    /// The binary algorithm driving the reduction's stages.
    pub algorithm: Algorithm,
    /// One payload proposal per process.
    pub proposals: Vec<Payload>,
}

/// A serializable replicated-log (SMR) workload: `slots` multivalued
/// instances in order, process `i` proposing from `queues[i]` (cycled;
/// an empty queue proposes empty payloads), per
/// [`ofa_core::run_replicated_log`].
///
/// Committed slots surface as [`ofa_core::ObsEvent::MvDecided`]
/// observations — attach an observer (e.g. `ofa-smr`'s log collector) to
/// reconstruct the decided command sequence. The reported per-process
/// [`Decision`] is [`ofa_core::log_body_decision`]: parity of the
/// whole-log digest, round = slot count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmrWorkload {
    /// The binary algorithm driving each slot's reduction.
    pub algorithm: Algorithm,
    /// Number of log slots to commit.
    pub slots: u64,
    /// One command queue (of payload-encoded commands) per process.
    pub queues: Vec<Vec<Payload>>,
    /// Optional client-traffic spec: when set, proposals come from a
    /// per-process [`ofa_core::TrafficState`] (arrival process + bounded
    /// proposer queue + batching) instead of the pre-seeded `queues`, and
    /// the run reports client-service statistics. `None` preserves the
    /// classic pre-seeded workload, and is absent from the encoding (as
    /// in workloads saved before the traffic layer existed).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub traffic: Option<TrafficSpec>,
}

/// What each process executes.
#[derive(Clone)]
pub enum Body {
    /// One of the paper's binary algorithms.
    Algo(Algorithm),
    /// One multivalued consensus instance (serializable workload).
    Multivalued(MvWorkload),
    /// A replicated log / SMR run (serializable workload).
    ReplicatedLog(SmrWorkload),
    /// A custom protocol (e.g. the m&m comparator).
    Custom(Arc<dyn ProcessBody>),
}

impl Body {
    /// Runs the body on `env` (the blocking reference path used by the
    /// thread conductor and the real-thread runtime; virtual-time
    /// event-driven engines run the equivalent `ofa_core::sm` machines).
    ///
    /// # Errors
    ///
    /// Propagates the body's [`Halt`].
    pub fn run(
        &self,
        env: &mut dyn Env,
        proposal: Bit,
        config: &ProtocolConfig,
    ) -> Result<Decision, Halt> {
        match self {
            Body::Algo(a) => a.run(env, proposal, config),
            Body::Multivalued(mv) => {
                let mine = mv.proposals[env.me().index()];
                ofa_core::run_multivalued_body(env, mine, mv.algorithm, config)
            }
            Body::ReplicatedLog(smr) => {
                static EMPTY: Vec<Payload> = Vec::new();
                let queue = smr.queues.get(env.me().index()).unwrap_or(&EMPTY);
                ofa_core::run_replicated_log(
                    env,
                    queue,
                    smr.slots,
                    smr.algorithm,
                    config,
                    smr.traffic.as_ref(),
                )
            }
            Body::Custom(b) => b.run(env, proposal, config),
        }
    }

    /// `true` for the declarative bodies that also exist as resumable
    /// state machines — everything except [`Body::Custom`], which is
    /// opaque blocking code.
    pub fn has_state_machine(&self) -> bool {
        !matches!(self, Body::Custom(_))
    }
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Body::Algo(a) => f.debug_tuple("Algo").field(a).finish(),
            Body::Multivalued(mv) => f
                .debug_struct("Multivalued")
                .field("algorithm", &mv.algorithm)
                .field("proposals", &mv.proposals.len())
                .finish(),
            Body::ReplicatedLog(smr) => f
                .debug_struct("ReplicatedLog")
                .field("algorithm", &smr.algorithm)
                .field("slots", &smr.slots)
                .field("queues", &smr.queues.len())
                .finish(),
            Body::Custom(_) => f.debug_tuple("Custom").field(&"..").finish(),
        }
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Body::Algo(a), Body::Algo(b)) => a == b,
            (Body::Multivalued(a), Body::Multivalued(b)) => a == b,
            (Body::ReplicatedLog(a), Body::ReplicatedLog(b)) => a == b,
            (Body::Custom(a), Body::Custom(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// The declarative variants serialize as tagged maps; [`Body::Custom`] —
/// an opaque function value — serializes as the marker string `"custom"`,
/// which deliberately fails to deserialize: only declarative scenarios
/// round-trip.
impl Serialize for Body {
    fn to_value(&self) -> serde::Value {
        match self {
            Body::Algo(a) => serde::Value::Map(vec![("Algo".to_string(), a.to_value())]),
            Body::Multivalued(mv) => {
                serde::Value::Map(vec![("Multivalued".to_string(), mv.to_value())])
            }
            Body::ReplicatedLog(smr) => {
                serde::Value::Map(vec![("ReplicatedLog".to_string(), smr.to_value())])
            }
            Body::Custom(_) => serde::Value::Str("custom".to_string()),
        }
    }
}

impl Deserialize for Body {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if let Some(a) = v.get("Algo") {
            return Deserialize::from_value(a).map(Body::Algo);
        }
        if let Some(mv) = v.get("Multivalued") {
            return Deserialize::from_value(mv).map(Body::Multivalued);
        }
        if let Some(smr) = v.get("ReplicatedLog") {
            return Deserialize::from_value(smr).map(Body::ReplicatedLog);
        }
        Err(serde::Error::msg(
            "only declarative bodies (Algo | Multivalued | ReplicatedLog) deserialize; \
             custom bodies are code, not data",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(s: &str) -> Payload {
        Payload::from_bytes(s.as_bytes()).expect("fits")
    }

    #[test]
    fn algo_round_trips_custom_does_not() {
        let b = Body::Algo(Algorithm::CommonCoin);
        let v = b.to_value();
        assert_eq!(Body::from_value(&v).unwrap(), b);

        struct Nop;
        impl ProcessBody for Nop {
            fn run(
                &self,
                _env: &mut dyn Env,
                _proposal: Bit,
                _config: &ProtocolConfig,
            ) -> Result<Decision, Halt> {
                Err(Halt::Stopped)
            }
        }
        let c = Body::Custom(Arc::new(Nop));
        assert!(Body::from_value(&c.to_value()).is_err());
    }

    #[test]
    fn workload_bodies_round_trip() {
        let mv = Body::Multivalued(MvWorkload {
            algorithm: Algorithm::LocalCoin,
            proposals: vec![payload("a"), payload("b")],
        });
        assert_eq!(Body::from_value(&mv.to_value()).unwrap(), mv);

        let smr = Body::ReplicatedLog(SmrWorkload {
            algorithm: Algorithm::CommonCoin,
            slots: 3,
            queues: vec![vec![payload("x")], vec![]],
            traffic: None,
        });
        assert_eq!(Body::from_value(&smr.to_value()).unwrap(), smr);

        // pre-traffic serialized form (no `traffic` entry) still loads
        let Body::ReplicatedLog(inner) = &smr else {
            unreachable!()
        };
        let mut v = inner.to_value();
        if let serde::Value::Map(entries) = &mut v {
            entries.retain(|(k, _)| k != "traffic");
        }
        assert_eq!(SmrWorkload::from_value(&v).unwrap(), *inner);

        let traffic = Body::ReplicatedLog(SmrWorkload {
            algorithm: Algorithm::CommonCoin,
            slots: 2,
            queues: vec![],
            traffic: Some(TrafficSpec {
                arrival: ofa_core::ArrivalProcess::Periodic {
                    period: 10,
                    phase: 0,
                },
                clients: 4,
                queue_cap: 8,
                batch_max: 4,
                batch_min: 0,
            }),
        });
        assert_eq!(Body::from_value(&traffic.to_value()).unwrap(), traffic);
    }

    #[test]
    fn equality_semantics() {
        let a = Body::Algo(Algorithm::LocalCoin);
        assert_eq!(a.clone(), a);
        assert_ne!(a, Body::Algo(Algorithm::CommonCoin));
        assert!(a.has_state_machine());
    }
}
