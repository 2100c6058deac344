//! # `one-for-all` — scalable consensus in a hybrid communication model
//!
//! A complete Rust reproduction of Raynal & Cao, *"One for All and All for
//! One: Scalable Consensus in a Hybrid Communication Model"* (ICDCS 2019):
//! randomized binary consensus for systems whose processes are partitioned
//! into clusters — shared memory (with `compare&swap`) inside each
//! cluster, asynchronous reliable messages between everyone.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`consensus`] | `ofa-core` | Algorithms 1–3 (blocking + resumable [`consensus::sm`] machines), baselines, invariants |
//! | [`topology`] | `ofa-topology` | partitions, predicate, m&m graphs |
//! | [`sharedmem`] | `ofa-sharedmem` | cluster memory: first-proposer-wins consensus objects |
//! | [`coins`] | `ofa-coins` | local/common/adversarial coins |
//! | [`scenario`] | `ofa-scenario` | `Scenario` values, `Backend` trait, unified `Outcome`, `Sweep`, [`scenario::Engine`] knob |
//! | [`sim`] | `ofa-sim` | deterministic backend (`Sim`): thread-conductor + event-driven engines, explorer |
//! | [`explore`] | `ofa-explore` | adversarial schedule explorer + regression corpus |
//! | [`runtime`] | `ofa-runtime` | real-thread backend (`Threads`) |
//! | [`mm`] | `ofa-mm` | the m&m comparison model |
//! | [`smr`] | `ofa-smr` | multivalued consensus, replicated KV |
//! | [`metrics`] | `ofa-metrics` | counters, statistics, tables |
//!
//! # Sixty seconds to a decision
//!
//! A [`scenario::Scenario`] describes one execution — partition,
//! algorithm, proposals, seed, failure pattern — as a plain (serializable)
//! value; any [`scenario::Backend`] runs it and returns the same
//! [`scenario::Outcome`] shape:
//!
//! ```
//! use one_for_all::prelude::*;
//!
//! // Figure 1 (right): {p1} {p2,p3,p4,p5} {p6,p7}.
//! let scenario = Scenario::new(Partition::fig1_right(), Algorithm::CommonCoin)
//!     .proposals_split(3) // p1..p3 propose 1, the rest 0
//!     .seed(42);
//! // Deterministic virtual-time simulation…
//! let outcome = Sim.run(&scenario);
//! assert!(outcome.all_correct_decided);
//! assert!(outcome.agreement_holds());
//! // …and the *same value* on real threads.
//! let real = Threads.run(&scenario);
//! assert!(real.agreement_holds());
//! println!("decided {:?} in <= {} rounds", outcome.decided_value, outcome.max_decision_round);
//! ```
//!
//! Parameter studies go through [`scenario::Sweep`]
//! (`Scenario × seeds × grid → outcomes + aggregate stats`). See the
//! `examples/` directory for the headline fault-tolerance scenario, a
//! geo-replicated key-value store, the efficiency/scalability tradeoff
//! sweep, and an annotated execution trace.

#![warn(missing_docs)]

pub use ofa_coins as coins;
pub use ofa_core as consensus;
pub use ofa_explore as explore;
pub use ofa_metrics as metrics;
pub use ofa_mm as mm;
pub use ofa_runtime as runtime;
pub use ofa_scenario as scenario;
pub use ofa_sharedmem as sharedmem;
pub use ofa_sim as sim;
pub use ofa_smr as smr;
pub use ofa_topology as topology;

/// Most-used items in one import.
pub mod prelude {
    pub use ofa_core::{Algorithm, Bit, Decision, Halt, ProtocolConfig};
    pub use ofa_runtime::Threads;
    pub use ofa_scenario::{
        Backend, ChurnPlan, CoinSpec, CrashPlan, CrashTrigger, Engine, NetworkModel, Outcome,
        PoissonChurn, Scenario, Sweep,
    };
    pub use ofa_sim::Sim;
    pub use ofa_topology::{ClusterId, Partition, ProcessId, ProcessSet};
}
