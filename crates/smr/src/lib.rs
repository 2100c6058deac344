//! # `ofa-smr` — replicated services on hybrid-model consensus
//!
//! The paper closes by inviting "the scalability benefits of the hybrid
//! communication model for other distributed computing problems". This
//! crate takes the invitation for the canonical one — state machine
//! replication:
//!
//! * [`multivalued_propose`] (re-exported from `ofa-core`, which also
//!   hosts the resumable [`ofa_core::sm::MultivaluedSm`] /
//!   [`ofa_core::sm::LogSm`] machines) — multivalued consensus from the
//!   paper's *binary* algorithms (reduction with relay-on-first-use; see
//!   its module docs for the liveness argument),
//! * [`Command`] / [`KvState`] — a deterministic key-value state machine
//!   with compact payload encoding,
//! * [`LogCollector`] / [`run_replicated_kv`] — replicated logs as
//!   serializable [`ofa_scenario::Body::ReplicatedLog`] scenarios: slot
//!   `j` is multivalued instance `j`; identical logs yield identical
//!   states, verified by state digests. Runs on either execution engine;
//!   the event-driven default scales to thousands of replicas (the
//!   benchmark's `kv-serve` cell runs `n = 1 000`).
//!
//! Everything inherits the hybrid model's fault tolerance: with a majority
//! cluster, the replicated KV store keeps committing despite `n - 1`
//! crashes concentrated outside one surviving process of that cluster.
//!
//! # Examples
//!
//! ```
//! use ofa_core::Algorithm;
//! use ofa_scenario::CrashPlan;
//! use ofa_smr::{run_replicated_kv, Command};
//! use ofa_topology::Partition;
//!
//! let commands = vec![
//!     vec![Command::put("a", "1")],
//!     vec![Command::put("b", "2")],
//!     vec![Command::put("c", "3")],
//! ];
//! let (reports, out) = run_replicated_kv(
//!     Partition::from_sizes(&[2, 1]).unwrap(),
//!     commands,
//!     2,
//!     Algorithm::CommonCoin,
//!     7,
//!     CrashPlan::new(),
//! );
//! assert!(out.all_correct_decided);
//! let digest = reports[0].as_ref().unwrap().digest;
//! assert!(reports.iter().flatten().all(|r| r.digest == digest));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod kv;
mod replica;

pub use kv::{Command, EncodeError, KvState};
pub use ofa_core::{multivalued_propose, MvDecision, INSTANCE_STRIDE};
pub use replica::{encode_queues, run_replicated_kv, LogCollector, ReplicaReport};
