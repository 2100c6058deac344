//! The per-cluster shared memory `MEM_x` (§II-A and §III-B).
//!
//! Algorithm 2 needs, per cluster, two unbounded arrays of consensus
//! objects `CONS_x[r, 1]` and `CONS_x[r, 2]` (`r >= 1`); Algorithm 3 needs
//! a single array `CONS_x[r]`. The algorithms use one fact about these
//! objects: `propose` returns the first proposal. [`ClusterMemory`]
//! realizes the paper's compare&swap object directly: one lock orders
//! every propose to the memory, and the first write to a [`Slot`] wins.
//! A slot exists once it is first proposed to, so the "unbounded array"
//! of the paper costs memory only for rounds actually executed.
//! [`MemoryBank`] holds one [`ClusterMemory`] per cluster of a partition.

use crate::CodableValue;
use ofa_topology::{ClusterId, Partition};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
/// Address of one consensus object inside a cluster memory: protocol
/// instance, round number, and phase within the round.
///
/// Algorithm 2 uses phases 1 and 2; Algorithm 3 uses a single phase (0 by
/// convention). Higher layers that run *many* consensus instances over the
/// same memory (multivalued consensus, replicated logs — see `ofa-smr`)
/// disambiguate them with the `instance` coordinate; plain single-shot
/// consensus uses instance 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot {
    /// Protocol instance (0 for single-shot consensus).
    pub instance: u64,
    /// Round number `r >= 1`.
    pub round: u64,
    /// Phase within the round.
    pub phase: u8,
}

impl Slot {
    /// Creates a slot address in instance 0.
    pub fn new(round: u64, phase: u8) -> Self {
        Slot {
            instance: 0,
            round,
            phase,
        }
    }

    /// Creates a slot address in an explicit instance.
    pub fn in_instance(instance: u64, round: u64, phase: u8) -> Self {
        Slot {
            instance,
            round,
            phase,
        }
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.instance == 0 {
            write!(f, "[{},{}]", self.round, self.phase)
        } else {
            write!(f, "[i{}:{},{}]", self.instance, self.round, self.phase)
        }
    }
}

/// The shared memory of one cluster: an unbounded array of
/// first-proposer-wins consensus objects, indexed by [`Slot`].
///
/// Values are stored in their [`CodableValue`] `u64` encoding so that one
/// memory can serve consensus over any codable type; the typed wrappers
/// live in `ofa-core`.
///
/// # Examples
///
/// ```
/// use ofa_sharedmem::{ClusterMemory, Slot};
///
/// let mem = ClusterMemory::new();
/// // Two processes of the cluster propose for round 1, phase 1:
/// let a = mem.propose_raw(Slot::new(1, 1), 0);
/// let b = mem.propose_raw(Slot::new(1, 1), 1);
/// assert_eq!(a, b); // intra-cluster agreement
/// assert_eq!(mem.propose_count(), 2);
/// ```
#[derive(Default)]
pub struct ClusterMemory {
    words: Mutex<HashMap<Slot, u64>>,
    proposes: AtomicU64,
}

impl ClusterMemory {
    /// Creates an empty cluster memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Proposes the encoded value `enc` to the consensus object at `slot`,
    /// returning the decided encoding: the first word proposed there.
    pub fn propose_raw(&self, slot: Slot, enc: u64) -> u64 {
        self.proposes.fetch_add(1, Ordering::Relaxed);
        *self.words.lock().entry(slot).or_insert(enc)
    }

    /// Typed convenience over [`ClusterMemory::propose_raw`].
    pub fn propose<V: CodableValue>(&self, slot: Slot, value: V) -> V {
        V::decode(self.propose_raw(slot, value.encode()))
    }

    /// Total `propose` invocations on this memory — the §III-C metric
    /// (a hybrid-model process performs exactly one per phase).
    pub fn propose_count(&self) -> u64 {
        self.proposes.load(Ordering::Relaxed)
    }

    /// Number of consensus objects proposed to so far.
    pub fn object_count(&self) -> usize {
        self.words.lock().len()
    }

    /// The decided contents of this memory in canonical (sorted) order,
    /// plus the propose counter — everything a checkpoint needs.
    pub fn checkpoint(&self) -> (Vec<(Slot, u64)>, u64) {
        let mut decided: Vec<(Slot, u64)> = self
            .words
            .lock()
            .iter()
            .map(|(&slot, &w)| (slot, w))
            .collect();
        decided.sort_unstable();
        (decided, self.propose_count())
    }

    /// Rebuilds a memory from a [`ClusterMemory::checkpoint`]: each slot
    /// is re-decided directly (without charging the propose counter) and
    /// the counter is restored to its captured value.
    pub fn restore(decided: &[(Slot, u64)], proposes: u64) -> Self {
        ClusterMemory {
            words: Mutex::new(decided.iter().copied().collect()),
            proposes: AtomicU64::new(proposes),
        }
    }
}

impl fmt::Debug for ClusterMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterMemory")
            .field("objects", &self.object_count())
            .field("proposes", &self.propose_count())
            .finish()
    }
}

/// One [`ClusterMemory`] per cluster of a partition — the `m` memories of
/// the hybrid model (the m&m model would need `n`; see `ofa-mm`).
///
/// # Examples
///
/// ```
/// use ofa_sharedmem::{MemoryBank, Slot};
/// use ofa_topology::{Partition, ProcessId};
///
/// let part = Partition::fig1_right();
/// let bank = MemoryBank::for_partition(&part);
/// assert_eq!(bank.len(), 3);
///
/// // p2 and p5 share P[2]'s memory; p1 does not.
/// let v2 = bank.memory_of(&part, ProcessId(1)).propose(Slot::new(1, 1), 0u8);
/// let v5 = bank.memory_of(&part, ProcessId(4)).propose(Slot::new(1, 1), 1u8);
/// assert_eq!(v2, v5);
/// let v1 = bank.memory_of(&part, ProcessId(0)).propose(Slot::new(1, 1), 1u8);
/// assert_eq!(v1, 1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryBank {
    memories: Vec<Arc<ClusterMemory>>,
}

impl MemoryBank {
    /// Creates a bank with one fresh memory per cluster of `partition`.
    pub fn for_partition(partition: &Partition) -> Self {
        MemoryBank {
            memories: (0..partition.m())
                .map(|_| Arc::new(ClusterMemory::new()))
                .collect(),
        }
    }

    /// Creates a bank with `m` fresh memories.
    pub fn with_len(m: usize) -> Self {
        MemoryBank {
            memories: (0..m).map(|_| Arc::new(ClusterMemory::new())).collect(),
        }
    }

    /// Number of memories (`m`).
    pub fn len(&self) -> usize {
        self.memories.len()
    }

    /// `true` if the bank holds no memory.
    pub fn is_empty(&self) -> bool {
        self.memories.is_empty()
    }

    /// The memory of cluster `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.index() >= len()`.
    pub fn memory(&self, x: ClusterId) -> &Arc<ClusterMemory> {
        &self.memories[x.index()]
    }

    /// The memory of the cluster process `i` belongs to.
    pub fn memory_of(
        &self,
        partition: &Partition,
        i: ofa_topology::ProcessId,
    ) -> &Arc<ClusterMemory> {
        self.memory(partition.cluster_of(i))
    }

    /// Total `propose` invocations across all memories.
    pub fn total_proposes(&self) -> u64 {
        self.memories.iter().map(|m| m.propose_count()).sum()
    }

    /// Total consensus objects materialized across all memories.
    pub fn total_objects(&self) -> usize {
        self.memories.iter().map(|m| m.object_count()).sum()
    }

    /// Per-cluster [`ClusterMemory::checkpoint`]s, in cluster order.
    pub fn checkpoint(&self) -> Vec<(Vec<(Slot, u64)>, u64)> {
        self.memories.iter().map(|m| m.checkpoint()).collect()
    }

    /// Rebuilds a bank from a [`MemoryBank::checkpoint`].
    pub fn restore(clusters: &[(Vec<(Slot, u64)>, u64)]) -> Self {
        MemoryBank {
            memories: clusters
                .iter()
                .map(|(decided, proposes)| Arc::new(ClusterMemory::restore(decided, *proposes)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofa_topology::ProcessId;

    #[test]
    fn distinct_slots_are_independent() {
        let mem = ClusterMemory::new();
        assert_eq!(mem.propose_raw(Slot::new(1, 1), 7), 7);
        assert_eq!(mem.propose_raw(Slot::new(1, 2), 9), 9);
        assert_eq!(mem.propose_raw(Slot::new(2, 1), 3), 3);
        assert_eq!(mem.object_count(), 3);
        assert_eq!(mem.propose_count(), 3);
    }

    #[test]
    fn same_slot_agrees() {
        let mem = ClusterMemory::new();
        let s = Slot::new(4, 2);
        assert_eq!(mem.propose_raw(s, 100), 100);
        assert_eq!(mem.propose_raw(s, 200), 100);
        assert_eq!(mem.checkpoint(), (vec![(s, 100)], 2));
    }

    #[test]
    fn typed_propose_round_trips() {
        let mem = ClusterMemory::new();
        let got: Option<bool> = mem.propose(Slot::new(1, 0), Some(true));
        assert_eq!(got, Some(true));
        let again: Option<bool> = mem.propose(Slot::new(1, 0), None);
        assert_eq!(again, Some(true));
    }

    #[test]
    fn every_word_is_a_proposal() {
        let mem = ClusterMemory::new();
        let s = Slot::new(1, 1);
        assert_eq!(mem.propose_raw(s, u64::MAX), u64::MAX);
        assert_eq!(mem.propose_raw(s, 0), u64::MAX);
        let (decided, proposes) = mem.checkpoint();
        assert_eq!(decided, vec![(s, u64::MAX)]);
        let back = ClusterMemory::restore(&decided, proposes);
        assert_eq!(back.propose_raw(s, 1), u64::MAX);
        assert_eq!(back.propose_count(), 3);
        assert_eq!(back.checkpoint().0, decided);
    }

    #[test]
    fn concurrent_cluster_members_agree() {
        use std::sync::Arc;
        let mem = Arc::new(ClusterMemory::new());
        for round in 1..=20u64 {
            let handles: Vec<_> = (0..6u64)
                .map(|v| {
                    let mem = Arc::clone(&mem);
                    std::thread::spawn(move || mem.propose_raw(Slot::new(round, 1), v))
                })
                .collect();
            let got: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(
                got.windows(2).all(|w| w[0] == w[1]),
                "round {round} disagreed"
            );
            assert!(got[0] < 6);
        }
    }

    #[test]
    fn bank_memories_are_disjoint() {
        let part = Partition::fig1_left(); // {p1,p2,p3} {p4,p5} {p6,p7}
        let bank = MemoryBank::for_partition(&part);
        let s = Slot::new(1, 1);
        assert_eq!(bank.memory_of(&part, ProcessId(0)).propose_raw(s, 0), 0);
        // p4 is in a different cluster: its memory is untouched.
        assert_eq!(bank.memory_of(&part, ProcessId(3)).propose_raw(s, 1), 1);
        assert_eq!(bank.total_proposes(), 2);
        assert_eq!(bank.total_objects(), 2);
        assert_eq!(bank.len(), 3);
    }

    #[test]
    fn slot_display() {
        assert_eq!(Slot::new(3, 2).to_string(), "[3,2]");
    }
}
