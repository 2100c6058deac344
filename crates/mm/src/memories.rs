//! The m&m shared-memory substrate: one memory per process, accessible by
//! its closed neighborhood (paper §III-C and appendix).
//!
//! In the uniform m&m model there are `n` memories. The `p_i`-centered
//! memory is shared by the domain `S_i = {i} ∪ N(i)`: `p_i` accesses it
//! directly, its neighbors remotely. Contrast with the hybrid model's `m`
//! disjoint cluster memories, each accessed by exactly one cluster.

use ofa_sharedmem::{MemoryBank, Slot};
use ofa_topology::{ClusterId, MmGraph, ProcessId, ProcessSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// The `n` per-process memories of a uniform m&m system, with domain
/// access control and per-accessor invocation accounting.
///
/// # Examples
///
/// ```
/// use ofa_mm::MmMemories;
/// use ofa_sharedmem::Slot;
/// use ofa_topology::{MmGraph, ProcessId};
///
/// let mems = MmMemories::new(MmGraph::fig2());
/// // p2 ∈ S1 = {p1, p2}: allowed to access p1's memory.
/// let v = mems.propose(ProcessId(1), ProcessId(0), Slot::new(1, 1), 7);
/// assert_eq!(v, 7);
/// assert_eq!(mems.invocations_by(ProcessId(1)), 1);
/// ```
#[derive(Debug)]
pub struct MmMemories {
    graph: MmGraph,
    /// Memory `i` is the `p_i`-centered memory.
    memories: MemoryBank,
    domains: Vec<ProcessSet>,
    invocations_by: Vec<AtomicU64>,
    phase_entries: Vec<AtomicU64>,
}

impl MmMemories {
    /// Builds the memory family induced by `graph`.
    pub fn new(graph: MmGraph) -> Self {
        let n = graph.n();
        MmMemories {
            domains: graph.domains(),
            memories: MemoryBank::with_len(n),
            invocations_by: (0..n).map(|_| AtomicU64::new(0)).collect(),
            phase_entries: (0..n).map(|_| AtomicU64::new(0)).collect(),
            graph,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &MmGraph {
        &self.graph
    }

    /// Number of memories (`n` — vs `m` in the hybrid model).
    pub fn memory_count(&self) -> usize {
        self.memories.len()
    }

    /// Proposes to the consensus object at `slot` in the `owner`-centered
    /// memory, on behalf of `accessor`.
    ///
    /// # Panics
    ///
    /// Panics if `accessor ∉ S_owner` — the m&m model only lets a process
    /// access the memories of its closed neighborhood.
    pub fn propose(&self, accessor: ProcessId, owner: ProcessId, slot: Slot, enc: u64) -> u64 {
        assert!(
            self.domains[owner.index()].contains(accessor),
            "{accessor} is outside the domain S{} = {}",
            owner.index() + 1,
            self.domains[owner.index()],
        );
        self.invocations_by[accessor.index()].fetch_add(1, Ordering::Relaxed);
        self.memories
            .memory(ClusterId(owner.index()))
            .propose_raw(slot, enc)
    }

    /// Records that `accessor` entered a protocol phase (denominator of
    /// the invocations-per-phase metric).
    pub fn note_phase_entry(&self, accessor: ProcessId) {
        self.phase_entries[accessor.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Total consensus-object invocations performed by `accessor`.
    pub fn invocations_by(&self, accessor: ProcessId) -> u64 {
        self.invocations_by[accessor.index()].load(Ordering::Relaxed)
    }

    /// Phase entries recorded for `accessor`.
    pub fn phase_entries_of(&self, accessor: ProcessId) -> u64 {
        self.phase_entries[accessor.index()].load(Ordering::Relaxed)
    }

    /// Measured invocations per phase for `accessor` (`α_i + 1` when the
    /// comparator ran to completion), `None` before any phase.
    pub fn invocations_per_phase(&self, accessor: ProcessId) -> Option<f64> {
        let phases = self.phase_entries_of(accessor);
        if phases == 0 {
            None
        } else {
            Some(self.invocations_by(accessor) as f64 / phases as f64)
        }
    }

    /// Number of memories that materialized at least one consensus object.
    pub fn touched_memories(&self) -> usize {
        (0..self.memories.len())
            .filter(|&i| self.memories.memory(ClusterId(i)).object_count() > 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_access_is_enforced() {
        let mems = MmMemories::new(MmGraph::fig2());
        // p1's domain S1 = {p1, p2}: p3 may not access it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mems.propose(ProcessId(2), ProcessId(0), Slot::new(1, 1), 0)
        }));
        assert!(result.is_err(), "out-of-domain access must panic");
        // p2 may.
        assert_eq!(
            mems.propose(ProcessId(1), ProcessId(0), Slot::new(1, 1), 3),
            3
        );
    }

    #[test]
    fn first_proposal_wins_per_memory() {
        let mems = MmMemories::new(MmGraph::complete(3));
        let s = Slot::new(1, 1);
        assert_eq!(mems.propose(ProcessId(0), ProcessId(1), s, 10), 10);
        assert_eq!(mems.propose(ProcessId(2), ProcessId(1), s, 20), 10);
        // A different memory is independent.
        assert_eq!(mems.propose(ProcessId(2), ProcessId(2), s, 20), 20);
    }

    #[test]
    fn accounting_matches_usage() {
        let g = MmGraph::fig2();
        let mems = MmMemories::new(g.clone());
        let me = ProcessId(2); // p3: degree 3
        mems.note_phase_entry(me);
        let mut domain: Vec<ProcessId> = g.domain(me).iter().collect();
        domain.sort();
        for owner in domain {
            mems.propose(me, owner, Slot::new(1, 1), 1);
        }
        assert_eq!(mems.invocations_by(me), 4); // α_3 + 1 = 4
        assert_eq!(mems.invocations_per_phase(me), Some(4.0));
        assert_eq!(mems.invocations_per_phase(ProcessId(0)), None);
        assert_eq!(mems.touched_memories(), 4);
        assert_eq!(mems.memory_count(), 5);
    }
}
