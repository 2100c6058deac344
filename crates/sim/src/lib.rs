//! # `ofa-sim` — deterministic simulator for hybrid-model consensus
//!
//! Runs the protocol under a deterministic discrete-event scheduler. It
//! is one of the execution substrates behind the unified
//! [`ofa_scenario::Scenario`] API: describe a run once, execute it here
//! via the [`Sim`] backend (or on real threads via `ofa_runtime::Threads`)
//! and get back the same [`ofa_scenario::Outcome`] shape either way.
//!
//! The simulator itself has **three interchangeable engines**, selected
//! by [`ofa_scenario::Scenario::engine`] and implemented by two loops:
//!
//! * [`Engine::Threads`](ofa_scenario::Engine::Threads) — the
//!   conductor, and the reference: each process runs the *actual*
//!   blocking `ofa-core` algorithm on its own OS thread, serialized by a
//!   conductor baton;
//! * [`Engine::EventDriven`](ofa_scenario::Engine::EventDriven) — the
//!   sharded event loop with **one shard** on the calling thread: each
//!   process is a resumable `ofa_core::sm` state machine stepped
//!   straight off the event heap — no threads, no baton — which lifts
//!   the process-count ceiling from thousands to tens of thousands (the
//!   benchmark's `consensus-fastpath` cell runs `n = 5 000`);
//! * [`Engine::ParallelEvent`](ofa_scenario::Engine::ParallelEvent) —
//!   the same event loop with `W` shards on `W` threads: shards own
//!   whole *clusters* and exchange cross-shard deliveries at
//!   deterministic virtual-time epoch barriers (the benchmark's
//!   `kv-serve-par2` cell: the `n = 1 000` replicated KV on two shards,
//!   with `kv-serve`'s trace hash).
//!
//! All engines produce identical outcomes — decisions, counters, event
//! counts, trace hashes — for any declarative scenario, and the
//! parallel engine additionally for any worker count.
//!
//! What this backend adds over the shared scenario vocabulary:
//!
//! * **virtual time** — tunable per-operation costs
//!   ([`ofa_scenario::CostModel`]) and message delays
//!   ([`ofa_scenario::DelayModel`]), so the paper's
//!   efficiency/scalability tradeoff (cheap intra-cluster memory vs slow
//!   asynchronous messages) becomes measurable (experiment E7);
//! * **crash injection** — [`ofa_scenario::CrashPlan`] supports crashes at
//!   a step index (which lands *inside* a broadcast, reproducing the
//!   paper's non-reliable broadcast macro-operation), at a virtual time,
//!   or at round entry;
//! * **reproducibility** — every run folds its event stream into
//!   [`ofa_scenario::Outcome::trace_hash`]; the same scenario replays
//!   bit-for-bit, even after a serde round-trip;
//! * **schedule exploration** — [`Explorer`] enumerates message-delivery
//!   orders exhaustively (within a budget) for small configurations and
//!   checks agreement/validity plus the WA1/WA2 predicates on every
//!   schedule.
//!
//! # Examples
//!
//! ```
//! use ofa_core::{Algorithm, Bit};
//! use ofa_scenario::{Backend, CrashPlan, Scenario};
//! use ofa_sim::Sim;
//! use ofa_topology::{Partition, ProcessId};
//!
//! // The paper's headline scenario: Figure 1 (right), all processes
//! // crash except p3 in the majority cluster — consensus still terminates.
//! let mut plan = CrashPlan::new();
//! for i in [0, 1, 3, 4, 5, 6] {
//!     plan = plan.crash_at_start(ProcessId(i));
//! }
//! let scenario = Scenario::new(Partition::fig1_right(), Algorithm::CommonCoin)
//!     .proposals_split(4)
//!     .crashes(plan)
//!     .seed(1);
//! let out = Sim.run(&scenario);
//! assert!(out.all_correct_decided);
//! assert_eq!(out.deciders(), 1);
//! ```

#![warn(missing_docs)]

mod backend;
mod checkpoint;
mod conductor;
mod engine;
mod explorer;
mod order;
mod par;
mod queue;

#[doc(hidden)]
pub use backend::override_available_cores;
pub use backend::{CheckpointError, RunOutcome, Sim};
pub use explorer::{ExploreReport, Explorer};
