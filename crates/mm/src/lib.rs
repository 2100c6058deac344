//! # `ofa-mm` — the m&m comparison model
//!
//! The paper's §III-C contrasts the hybrid (cluster) communication model
//! against the **m&m model** of Aguilera et al. (PODC 2018), where shared
//! memories are induced by a graph: one `p_i`-centered memory per process,
//! accessible by the closed neighborhood `S_i` (appendix, Figure 2). This
//! crate makes the comparison executable:
//!
//! * [`MmMemories`] — the `n` per-process memories with domain access
//!   control and invocation accounting,
//! * [`MmBenOr`] — the comparator: Algorithm 2 with amplification off
//!   and the m&m domain step as its memory step (see `protocol` module
//!   docs for the substitution note), runnable under the `ofa-sim`
//!   conductor,
//! * [`analytic`] / [`measured`] — the §III-C quantities: `m` vs `n`
//!   memories, `1` vs `α_i + 1` consensus-object invocations per process
//!   per phase.
//!
//! # Examples
//!
//! ```
//! use ofa_mm::analytic;
//! use ofa_topology::{MmGraph, Partition};
//!
//! let row = analytic(
//!     "fig2",
//!     &Partition::from_sizes(&[3, 2]).unwrap(),
//!     &MmGraph::fig2(),
//! );
//! assert_eq!(row.hybrid_memories, 2); // m
//! assert_eq!(row.mm_memories, 5);     // n
//! assert_eq!(row.mm_invocations_max, 4); // p3: α + 1
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compare;
mod memories;
mod protocol;

pub use compare::{analytic, measured, ComparisonRow};
pub use memories::MmMemories;
pub use protocol::MmBenOr;
