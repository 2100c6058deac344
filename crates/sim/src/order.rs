//! The total order every scheduler of the simulator dispatches in: the
//! [`EventKey`] tie-break, the earliest-first [`Keyed`] heap slot, and the
//! per-sender [`SendCounters`] that supply the key's `k`. The conductor's
//! heap and every shard of the event loop (`par.rs`, `queue.rs`) share
//! them, which is what makes their pop orders one order.

use ofa_topology::ProcessId;

/// Deterministic total-order tie-break for events that share a delivery
/// time. The key is *locally computable by the sender* — `(class, sender,
/// sender's send-op counter, destination)` — rather than a global
/// registration sequence number, so the conductor and every shard of the
/// event loop derive the identical dispatch order for the same logical
/// sends, no matter in which real-time order they were pushed.
///
/// Field order is the comparison order (derived lexicographic `Ord`):
/// crashes (`class` 0) sort before deliveries (`class` 1) at equal times;
/// a sender's messages sort by its own counter `k` (broadcasts occupy `n`
/// consecutive counter values, one per destination in index order, so a
/// batched entry expands in exactly the order `n` individual entries
/// would have had — nothing from the same sender can interleave, and
/// other senders order entirely before or after by `from`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey {
    /// 0 = crash, 1 = delivery.
    pub(crate) class: u8,
    /// The sender (the victim, for crashes).
    pub(crate) from: u32,
    /// The sender's send-op counter value for this message.
    pub(crate) k: u64,
    /// The destination (the victim, for crashes).
    pub(crate) to: u32,
}

impl EventKey {
    pub(crate) fn deliver(from: ProcessId, k: u64, to: ProcessId) -> Self {
        EventKey {
            class: 1,
            from: from.index() as u32,
            k,
            to: to.index() as u32,
        }
    }

    pub(crate) fn crash(pid: ProcessId) -> Self {
        EventKey {
            class: 0,
            from: pid.index() as u32,
            k: 0,
            to: pid.index() as u32,
        }
    }

    /// Rejoins share the crash class (they are lifecycle events of one
    /// process, ordered before deliveries at the same instant) but use
    /// `k = 1`: a process's rejoin is strictly later than its own leave,
    /// and `k` keeps the key distinct from any crash key.
    pub(crate) fn rejoin(pid: ProcessId) -> Self {
        EventKey {
            class: 0,
            from: pid.index() as u32,
            k: 1,
            to: pid.index() as u32,
        }
    }
}

/// A heap slot ordered **earliest-first** by `(at, key)` — `BinaryHeap`
/// is a max-heap, so the comparison is inverted. One definition shared
/// by the conductor's scheduler and the event loop's per-shard heaps, so
/// their pop orders can never diverge.
#[derive(Debug)]
pub(crate) struct Keyed<E> {
    pub(crate) at: u64,
    pub(crate) key: EventKey,
    pub(crate) ev: E,
}

impl<E> PartialEq for Keyed<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.key) == (other.at, other.key)
    }
}
impl<E> Eq for Keyed<E> {}
impl<E> PartialOrd for Keyed<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Keyed<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// Per-sender send-op counters: the `k` component of [`EventKey`] and the
/// per-message input of [`NetIndex::delay_of`](ofa_scenario::NetIndex::delay_of). Kept as a lazily-grown
/// vector so schedulers need no up-front `n`.
#[derive(Debug, Default)]
pub(crate) struct SendCounters(Vec<u64>);

impl SendCounters {
    /// Returns the sender's current counter and advances it by `by`.
    pub(crate) fn take(&mut self, from: ProcessId, by: u64) -> u64 {
        let i = from.index();
        if i >= self.0.len() {
            self.0.resize(i + 1, 0);
        }
        let k = self.0[i];
        self.0[i] += by;
        k
    }

    /// The raw per-sender counters (index = process), for checkpointing.
    pub(crate) fn values(&self) -> &[u64] {
        &self.0
    }

    /// Rebuilds counters from a checkpointed [`SendCounters::values`].
    pub(crate) fn from_values(values: Vec<u64>) -> Self {
        SendCounters(values)
    }
}
