//! Intra-cluster shared memory for the hybrid communication model
//! (Raynal & Cao, ICDCS 2019, §II-A).
//!
//! Each cluster `P[x]` owns a memory `MEM_x` that provides consensus
//! objects `CONS_x[r, ph]`, so deterministic wait-free consensus is
//! solvable *inside* a cluster. The paper builds them from compare&swap;
//! the algorithms use one fact about them: `propose` returns the first
//! proposal. This crate realizes that object directly — one lock orders
//! every propose to a memory, and the first write to a slot wins:
//!
//! * [`ClusterMemory`] — one cluster's unbounded array of consensus
//!   objects, addressed by [`Slot`],
//! * [`MemoryBank`] — one memory per cluster of a partition,
//! * [`CodableValue`] — the `u64` word encoding of proposed values.
//!
//! # Examples
//!
//! ```
//! use ofa_sharedmem::{MemoryBank, Slot};
//! use ofa_topology::{Partition, ProcessId};
//!
//! let part = Partition::fig1_right();
//! let bank = MemoryBank::for_partition(&part);
//! // All of P[2] agrees on the phase-1 estimate of round 1:
//! let v = bank.memory_of(&part, ProcessId(1)).propose(Slot::new(1, 1), 1u8);
//! assert_eq!(v, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

mod cluster_memory;
mod codable;

pub use cluster_memory::{ClusterMemory, MemoryBank, Slot};
pub use codable::CodableValue;
