//! # `ofa-scenario` — one backend-agnostic execution surface
//!
//! The paper's core claim is that the *same* hybrid-model protocol runs
//! unchanged over any cluster decomposition. This crate makes the claim an
//! API: a [`Scenario`] is a *declarative, serializable value* describing
//! one consensus execution — partition, protocol body, configuration,
//! proposals, seed, failure pattern, delay/cost models, coin source,
//! observer hook — and a [`Backend`] is anything that can execute it
//! (`ofa-sim`'s deterministic simulator, `ofa-runtime`'s real threads).
//! Every backend returns the same [`Outcome`] type, whose safety
//! predicates ([`Outcome::agreement_holds`], [`Outcome::deciders`],
//! [`Outcome::decided`]) are defined exactly once for the whole workspace.
//!
//! On top of single executions, [`Sweep`] runs `Scenario × seeds ×
//! parameter grid` on any backend (optionally fanned out across threads)
//! and aggregates the outcomes — the shape of every experiment in
//! `ofa-bench`.
//!
//! ```
//! use ofa_core::Algorithm;
//! use ofa_scenario::Scenario;
//! use ofa_topology::Partition;
//!
//! // A scenario is data: build it, serialize it, ship it, replay it.
//! let scenario = Scenario::new(Partition::fig1_right(), Algorithm::CommonCoin)
//!     .proposals_split(3)
//!     .seed(42);
//! let json = serde_json::to_string(&scenario).unwrap();
//! let replay: Scenario = serde_json::from_str(&json).unwrap();
//! assert_eq!(replay.partition, scenario.partition);
//! // `ofa_sim::Sim.run(&replay)` reproduces the original trace hash
//! // bit-for-bit; `ofa_runtime::Threads.run(&replay)` runs the same
//! // description on real threads.
//! ```
//!
//! The substrate-neutral description types ([`CrashPlan`], [`DelayModel`],
//! [`CostModel`], [`VirtualTime`], the trace types, [`ProcessBody`]) live
//! here too, so both substrates — and any future one — share one
//! vocabulary, and so does the one per-process account every
//! environment keeps ([`ProcAccount`]: steps, step and round crash
//! triggers, counters).

#![warn(missing_docs)]

mod backend;
mod body;
mod churn;
mod crash;
mod delay;
mod lanes;
mod network;
mod outcome;
#[allow(clippy::module_inception)]
mod scenario;
mod snapshot;
mod sweep;
mod time;
mod trace;

pub use backend::Backend;
pub use body::{Body, MvWorkload, ProcessBody, SmrWorkload};
pub use churn::{ChurnEvent, ChurnPlan, PoissonChurn};
pub use crash::{CrashPlan, CrashTrigger, ProcAccount};
pub use delay::{CostModel, DelayModel};
pub use network::{Fate, LatencyDist, LinkClasses, LinkOverride, NetIndex, NetworkModel};
pub use outcome::{BackendKind, Outcome};
pub use scenario::{CoinSpec, Engine, Scenario};
pub use snapshot::{DivergeSpec, Snapshot, SNAPSHOT_VERSION};
pub use sweep::{default_workers, run_pool, Sweep, SweepReport, SweepRun, SweepView};
pub use time::VirtualTime;
pub use trace::{DeliverPrefix, TimedEvent, TraceEvent, TraceRecorder};
