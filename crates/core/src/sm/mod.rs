//! Resumable state machines: the paper's algorithms without threads.
//!
//! The `Env`-trait algorithms ([`crate::ben_or_hybrid`],
//! [`crate::common_coin_hybrid`], [`crate::multivalued_propose`],
//! [`crate::run_replicated_log`]) are written in blocking pseudocode
//! style: `recv` suspends the caller, so every process needs its own call
//! stack — one OS thread per simulated process. That reference shape is
//! faithful to the paper but caps simulations at a few thousand processes.
//!
//! This module is the same protocol stack turned inside out, one machine
//! per layer:
//!
//! * [`ConsensusSm`] — one *binary* consensus instance (Algorithm 2 or 3);
//! * [`MultivaluedSm`] — the multivalued reduction, driving the binary
//!   stages of one instance through embedded [`ConsensusSm`]s;
//! * [`LogSm`] — a replicated-log replica, chaining one [`MultivaluedSm`]
//!   per log slot over a single shared mailbox.
//!
//! Every machine is a plain struct that consumes one delivered
//! [`crate::Msg`] per step and reports `Poll`-style [`Progress`] — it
//! never blocks, so a
//! single-threaded engine can drive hundreds of thousands of processes
//! straight off an event heap (see `ofa-sim`'s event-driven engine). The
//! wait-free operations of the hybrid model — intra-cluster consensus and
//! coins — stay synchronous, provided by the engine through [`SmCtx`];
//! only message reception suspends a machine.
//!
//! The machines are **step-for-step equivalent** to the blocking
//! algorithms: every environment interaction (send, receive, cluster
//! propose, coin, observation) happens in the same order with the same
//! arguments, so an engine that accounts steps and virtual time like the
//! thread conductor reproduces the conductor's executions bit for bit
//! (`tests/engine_equivalence.rs` asserts exactly that, trace hash
//! included, across all three body kinds).
//!
//! # Anatomy of a step
//!
//! ```text
//!  deliver Msg            absorbed            begin_recv
//!  ─────────▶ on_msg ─▶ absorb_inert ────────────────────────────▶ NeedMsg / Halted
//!                       (no SmCtx)  │ refused ┌─────────────────────────────┐
//!                                   └───────▶│ mailbox → tally → cluster   │──▶ Progress
//!                                            │ consensus / coins (SmCtx) → │
//!                                            │ broadcasts                  │
//!                                            └─────────────────────────────┘
//! ```
//!
//! A delivery that is not absorbed can carry a machine arbitrarily far —
//! completing an exchange, pre-agreeing in the cluster, broadcasting the
//! next phase, finishing a binary stage and opening the next one, even
//! committing a log slot and starting the next instance — until it
//! genuinely needs a fresh message (or terminates). Outgoing messages
//! accumulate in the step's outbox and are returned inside the
//! [`Progress`] value.
//!
//! # Inert deliveries
//!
//! The only state two processes of a cluster share is the cluster's
//! consensus objects, reached through [`SmCtx::cluster_propose`]; a
//! machine's mailbox, tallies, store and outbox are its own. A delivery
//! that cannot reach that call commutes with every delivery to another
//! process, so an engine may take it out of the global order as long as
//! each process's own deliveries keep theirs.
//!
//! Each machine decides that in one place, `absorb_inert`: it applies such
//! a delivery and answers `true`, or answers `false` and touches nothing.
//! It takes no [`SmCtx`], so an absorbed delivery sends nothing, observes
//! nothing, draws no coin, and cannot reach the cluster's memory: the
//! types say so. Every `on_msg` starts with it, and an absorbed delivery
//! then costs only the `recv` entry step (where a crash trigger halts the
//! machine, as `halt` does); so `absorb_inert` is `on_msg` minus that step
//! by construction, and an engine calling it directly charges the step
//! itself. The answer only has to be conservative: `false` for a delivery
//! that turns out inert costs an engine some speed, never correctness.

mod consensus;
mod log;
mod multivalued;

pub use consensus::{ConsensusSm, ConsensusSnap};
pub use log::{LogSm, LogSnap};
pub use multivalued::{MultivaluedSm, MvProgress, MvSnap};

use crate::pattern::est_index;
use crate::{Bit, Decision, Est, Halt, MsgKind, ObsEvent, ProtocolConfig};
use ofa_sharedmem::Slot;
use ofa_topology::{Partition, ProcessId};

/// The synchronous services a state machine needs while stepping: the
/// wait-free operations of the hybrid model plus bookkeeping hooks.
///
/// This is [`crate::Env`] minus the blocking `recv` — message input is
/// *pushed* via the machines' `on_msg` instead of pulled. Engines
/// implement it once per process and are free to charge virtual time,
/// count steps, record traces, and inject crashes by returning
/// `Err(Halt)` from the fallible methods, exactly like an `Env`.
pub trait SmCtx {
    /// Hands one message to the network; returns the virtual send time
    /// the engine assigns (0 where time is not modeled). The machine
    /// records that timestamp in its outbox entry.
    ///
    /// # Errors
    ///
    /// `Err(Halt)` if the process crashes at this step; like the paper's
    /// non-reliable broadcast, any prefix already sent stays sent.
    fn send(&mut self, to: ProcessId, msg: MsgKind) -> Result<u64, Halt>;

    /// Offers the context a whole broadcast: `msg` to `p_0 … p_{n-1}` in
    /// index order (`n >= 2`). A context that takes it does everything
    /// `n` calls of [`SmCtx::send`] would have done — steps, costs,
    /// counts, trace — and returns `(sent_at, stride)`: the send to
    /// `p_j` was stamped `sent_at + j·stride`. It may take the offer
    /// only when none of those sends could have failed. `None` (the
    /// default) declines: nothing happened, and the broadcast goes out
    /// one [`SmCtx::send`] at a time.
    fn send_to_all(&mut self, _n: usize, _msg: MsgKind) -> Option<(u64, u64)> {
        None
    }

    /// Charged when the machine is about to suspend for a message — the
    /// equivalent of entering the blocking `recv` call.
    ///
    /// # Errors
    ///
    /// `Err(Halt)` if the process crashes at this step.
    fn begin_recv(&mut self) -> Result<(), Halt>;

    /// Proposes to the cluster's consensus object (wait-free).
    ///
    /// # Errors
    ///
    /// `Err(Halt)` if the process crashes at this step.
    fn cluster_propose(&mut self, slot: Slot, enc: u64) -> Result<u64, Halt>;

    /// Draws this process's local coin.
    ///
    /// # Errors
    ///
    /// `Err(Halt)` if the process crashes at this step.
    fn local_coin(&mut self) -> Result<Bit, Halt>;

    /// Reads the common coin at `index`.
    ///
    /// # Errors
    ///
    /// `Err(Halt)` if the process crashes at this step.
    fn common_coin(&mut self, index: u64) -> Result<Bit, Halt>;

    /// Reports a protocol-level event (tracing, invariants). Default:
    /// ignored.
    fn observe(&mut self, _event: ObsEvent) {}

    /// Notes one invocation of the `broadcast` macro-operation (the sends
    /// themselves still go through [`SmCtx::send`]). Default: ignored.
    fn note_broadcast(&mut self) {}

    /// This process's current virtual clock in ticks (0 where time is
    /// not modeled) — the reference point traffic-driven workloads
    /// compare PRF arrival times against.
    fn now(&self) -> u64 {
        0
    }

    /// Reports the machine's accumulated client-service statistics —
    /// emitted once, at the machine's terminal progress point. Engines
    /// fold the stats into the run outcome; the default discards them.
    fn service_stats(&mut self, _stats: &ofa_metrics::ServiceStats) {}
}

/// One outgoing message produced by a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outgoing {
    /// Destination process.
    pub to: ProcessId,
    /// Payload.
    pub msg: MsgKind,
    /// Virtual send time reported by [`SmCtx::send`].
    pub sent_at: u64,
}

/// An outbox entry: a single send, or a whole broadcast.
///
/// A broadcast whose sends are evenly spaced in virtual time — send `j`
/// stamped `sent_at + j·stride`, which is what an engine charging a
/// fixed per-send cost produces (`stride = 0` when sends are free) —
/// collapses into one [`OutItem::Broadcast`] entry. Schedulers can then
/// keep it as a single pending event instead of `n` — the difference
/// between O(n²) and O(n) heap residency per round at cluster scale —
/// and the outbox never holds `n` per-destination entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutItem {
    /// One point-to-point send.
    One(Outgoing),
    /// `msg` sent to every process `p_0 … p_{n-1}` in index order, the
    /// send to `p_j` stamped `sent_at + j·stride`.
    Broadcast {
        /// Payload (identical for every destination).
        msg: MsgKind,
        /// Virtual send time of the first send (to `p_0`).
        sent_at: u64,
        /// Virtual time between consecutive sends (0 = all at once).
        stride: u64,
    },
}

/// The sends produced by one step, in send order.
pub type Outbox = Vec<OutItem>;

/// `Poll`-style progress reported by every step of a machine.
#[derive(Debug, PartialEq, Eq)]
pub enum Progress {
    /// The machine is suspended waiting for the next delivered message;
    /// this step produced no sends.
    NeedMsg,
    /// The machine produced sends (drain them into the network) and is
    /// again suspended waiting for the next delivered message.
    Sent(Outbox),
    /// Terminal: the machine decided. Any final broadcasts are in the
    /// outbox. The machine must not be stepped again.
    Decided(Decision, Outbox),
    /// Terminal: the machine halted without deciding (crash or stop).
    /// Sends already performed before the halt are in the outbox — a
    /// crash mid-broadcast delivers to an arbitrary prefix, like the
    /// paper's non-reliable broadcast macro-operation.
    Halted(Halt, Outbox),
}

impl Progress {
    /// `true` for the terminal variants.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Progress::Decided(..) | Progress::Halted(..))
    }
}

/// The `broadcast(msg)` macro-operation shared by all machines: send to
/// every process (including self) in index order into `outbox`,
/// collapsing into one [`OutItem::Broadcast`] when the sends are evenly
/// spaced in time. Counts one broadcast via [`SmCtx::note_broadcast`].
///
/// A context may take the whole broadcast in one call
/// ([`SmCtx::send_to_all`]); one that declines is sent to one
/// destination at a time, with the same outbox either way. The evenly
/// spaced case never materializes per-destination entries —
/// at cluster scale a broadcast is the common operation, and pushing `n`
/// entries only to truncate them both costs the writes and leaves an
/// `O(n)`-capacity buffer behind (with outbox recycling, one such
/// buffer *per machine* — `O(n²)` resident memory). Per-destination
/// entries are materialized lazily, only once a timestamp leaves the
/// stride the first two sends set or a send crashes mid-broadcast (the
/// prefix already sent stays sent, like the paper's non-reliable
/// broadcast).
pub(crate) fn broadcast_into<C: SmCtx + ?Sized>(
    outbox: &mut Outbox,
    n: usize,
    msg: MsgKind,
    ctx: &mut C,
) -> Result<(), Halt> {
    ctx.note_broadcast();
    if n >= 2 {
        if let Some((sent_at, stride)) = ctx.send_to_all(n, msg) {
            outbox.push(OutItem::Broadcast {
                msg,
                sent_at,
                stride,
            });
            return Ok(());
        }
    }
    let mut even = true;
    // `due` runs ahead of the loop as `first_at + j·stride`, the
    // timestamp send `j` must carry for the broadcast to stay whole
    // (an add per send: this loop is the engines' hottest).
    let (mut first_at, mut stride, mut due) = (0, 0, 0u64);
    let materialize_prefix = |outbox: &mut Outbox, j: usize, first_at: u64, stride: u64| {
        outbox.extend((0..j).map(|i| {
            OutItem::One(Outgoing {
                to: ProcessId(i),
                msg,
                sent_at: first_at + i as u64 * stride,
            })
        }));
    };
    for j in 0..n {
        match ctx.send(ProcessId(j), msg) {
            Ok(sent_at) => {
                if j < 2 {
                    // Sends 0 and 1 fix the two terms.
                    if j == 0 {
                        first_at = sent_at;
                    } else {
                        // Clocks never run backwards; if one did, the
                        // zero stride fails the comparison below.
                        stride = sent_at.saturating_sub(first_at);
                    }
                    due = first_at + stride;
                }
                if even && sent_at != due {
                    materialize_prefix(outbox, j, first_at, stride);
                    even = false;
                }
                due = due.wrapping_add(stride);
                if !even {
                    outbox.push(OutItem::One(Outgoing {
                        to: ProcessId(j),
                        msg,
                        sent_at,
                    }));
                }
            }
            Err(halt) => {
                if even {
                    materialize_prefix(outbox, j, first_at, stride);
                }
                return Err(halt);
            }
        }
    }
    if even {
        match n {
            0 => {}
            1 => outbox.push(OutItem::One(Outgoing {
                to: ProcessId(0),
                msg,
                sent_at: first_at,
            })),
            _ => outbox.push(OutItem::Broadcast {
                msg,
                sent_at: first_at,
                stride,
            }),
        }
    }
    Ok(())
}

/// Upper bound on the capacity of a recycled outbox buffer. Recycling
/// exists to spare the per-step allocation of *typical* outboxes (a
/// broadcast entry or a handful of sends); holding onto an occasional
/// `O(n)`-entry buffer per machine would instead pin `O(n²)` memory
/// across a large run, so oversized buffers are dropped and return to
/// the allocator.
const MAX_RECYCLED_CAPACITY: usize = 64;

/// Adopts a drained buffer into `slot` if it improves on the current
/// capacity without exceeding [`MAX_RECYCLED_CAPACITY`] — the shared
/// implementation behind every machine's `recycle_outbox`.
pub(crate) fn recycle_into(slot: &mut Outbox, buf: Outbox) {
    debug_assert!(buf.is_empty(), "recycled buffers must be drained");
    if buf.capacity() <= MAX_RECYCLED_CAPACITY && slot.capacity() < buf.capacity() {
        *slot = buf;
    }
}

/// Accumulates an inner machine's sends into an outer layer's outbox,
/// adopting the inner buffer wholesale when the outer one is empty (the
/// common case, since outboxes are taken at every suspension — a move,
/// no copy and no fresh allocation). Shared by the multi-instance
/// machines so the outbox-propagation behavior cannot drift between
/// layers.
pub(crate) fn absorb_out(slot: &mut Outbox, out: Outbox) {
    if slot.is_empty() {
        *slot = out;
    } else {
        slot.extend(out);
    }
}

/// Immutable per-run topology shared by all machines of one execution:
/// the partition plus precomputed cluster sizes, so a machine's
/// per-message supporter accounting is O(1) instead of O(n/64).
#[derive(Debug)]
pub struct SmTopology {
    partition: Partition,
    cluster_sizes: Vec<usize>,
}

impl SmTopology {
    /// Precomputes the shared topology of a run.
    pub fn new(partition: Partition) -> Self {
        let cluster_sizes = partition.sizes();
        SmTopology {
            partition,
            cluster_sizes,
        }
    }

    /// The underlying partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    pub(crate) fn n(&self) -> usize {
        self.partition.n()
    }

    /// The credit unit a sender maps to: its cluster index under "one for
    /// all" amplification, its own index otherwise.
    fn unit_of(&self, from: ProcessId, amplify: bool) -> (usize, usize) {
        if amplify {
            let x = self.partition.cluster_of(from).index();
            (x, self.cluster_sizes[x])
        } else {
            (from.index(), 1)
        }
    }

    fn units(&self, amplify: bool) -> usize {
        if amplify {
            self.partition.m()
        } else {
            self.partition.n()
        }
    }
}

/// A set over credit units (clusters or single processes) with an
/// incrementally maintained total weight.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
struct UnitSet {
    words: Vec<u64>,
    weight: usize,
}

impl UnitSet {
    fn with_units(units: usize) -> Self {
        UnitSet {
            words: vec![0; units.div_ceil(64)],
            weight: 0,
        }
    }

    fn contains(&self, unit: usize) -> bool {
        self.words[unit / 64] & (1 << (unit % 64)) != 0
    }

    /// Inserts `unit` with `weight`; no-op if already present.
    fn credit(&mut self, unit: usize, weight: usize) {
        if !self.contains(unit) {
            self.words[unit / 64] |= 1 << (unit % 64);
            self.weight += weight;
        }
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.weight = 0;
    }
}

/// Incremental supporter accounting for one `msg_exchange` invocation —
/// semantically identical to [`crate::Supporters`] (same majority, `rec`,
/// and coverage answers on the same credit sequence) but O(1) per
/// message: because every process belongs to exactly one cluster, each
/// per-value supporter set is a disjoint union of whole credit units, so
/// set cardinalities reduce to weight counters. Mid-exchange tallies
/// are part of a machine's wait state, so checkpoints capture them.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct Tally {
    n: usize,
    /// Supporter weights for `0`, `1`, `⊥` (indexed by `est_index`).
    sets: [UnitSet; 3],
    /// Union of all supporter sets.
    cover: UnitSet,
}

impl Tally {
    pub(crate) fn new(n: usize, units: usize) -> Self {
        Tally {
            n,
            sets: [
                UnitSet::with_units(units),
                UnitSet::with_units(units),
                UnitSet::with_units(units),
            ],
            cover: UnitSet::with_units(units),
        }
    }

    /// Refuses a checkpointed tally not shaped like `self`, the one the
    /// scenario builds: another `n`, or unit sets of another word count.
    pub(crate) fn check_shape(&self, loaded: &Tally) -> Result<(), String> {
        let words =
            |t: &Tally| [&t.sets[0], &t.sets[1], &t.sets[2], &t.cover].map(|s| s.words.len());
        let (loaded, built) = ((loaded.n, words(loaded)), (self.n, words(self)));
        if loaded == built {
            return Ok(());
        }
        Err(format!(
            "its tally (n, words per unit set) is {loaded:?}, not the scenario's {built:?}"
        ))
    }

    pub(crate) fn reset(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.cover.clear();
    }

    /// Credits `unit` (with `weight` processes) as a supporter of `est`.
    pub(crate) fn credit(&mut self, est: Est, unit: usize, weight: usize) {
        self.sets[est_index(est)].credit(unit, weight);
        self.cover.credit(unit, weight);
    }

    /// Line 7 of Algorithm 1: supporters jointly cover a strict majority.
    pub(crate) fn coverage_is_majority(&self) -> bool {
        2 * self.cover.weight > self.n
    }

    /// Whether crediting `unit` (with `weight` processes) would complete
    /// the exchange: the unit is not covered yet and its weight lifts the
    /// coverage to a strict majority. Reads only; what
    /// [`Tally::coverage_is_majority`] answers after the credit, given that
    /// the coverage is below a majority (which holds at every suspension:
    /// a majority ends the exchange in the step that reaches it).
    pub(crate) fn would_complete(&self, unit: usize, weight: usize) -> bool {
        !self.cover.contains(unit) && 2 * (self.cover.weight + weight) > self.n
    }

    /// Line 6 of Algorithm 2: the value supported by a strict majority.
    pub(crate) fn majority_value(&self) -> Option<Bit> {
        Bit::ALL
            .into_iter()
            .find(|&b| 2 * self.sets[est_index(Some(b))].weight > self.n)
    }

    /// The paper's `rec_i` as `(saw_zero, saw_one, saw_bot)`.
    pub(crate) fn rec(&self) -> crate::RecSet {
        crate::RecSet {
            saw_zero: self.sets[est_index(Some(Bit::Zero))].weight > 0,
            saw_one: self.sets[est_index(Some(Bit::One))].weight > 0,
            saw_bot: self.sets[est_index(None)].weight > 0,
        }
    }
}

/// An [`SmCtx`] that models nothing: sends cost no time, the cluster
/// object echoes the proposal, coins are constant 0. Useful for doc
/// examples and tests of machines whose behavior does not depend on the
/// services (e.g. single-process universes).
#[derive(Debug, Default)]
pub struct NullCtx;

impl SmCtx for NullCtx {
    fn send(&mut self, _to: ProcessId, _msg: MsgKind) -> Result<u64, Halt> {
        Ok(0)
    }
    fn begin_recv(&mut self) -> Result<(), Halt> {
        Ok(())
    }
    fn cluster_propose(&mut self, _slot: Slot, enc: u64) -> Result<u64, Halt> {
        Ok(enc)
    }
    fn local_coin(&mut self) -> Result<Bit, Halt> {
        Ok(Bit::Zero)
    }
    fn common_coin(&mut self, _index: u64) -> Result<Bit, Halt> {
        Ok(Bit::Zero)
    }
}

/// The stage/round budget every machine applies (kept here so the
/// constructor signatures stay small).
pub(crate) fn over_budget(cfg: &ProtocolConfig, round: u64) -> bool {
    matches!(cfg.max_rounds, Some(max) if round > max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_matches_supporters_semantics() {
        use crate::{RecClass, Supporters};
        use ofa_topology::ProcessSet;
        // Fig 1 right: {p1} {p2..p5} {p6,p7} — compare the incremental
        // tally against the reference Supporters on the same credits.
        let part = Partition::fig1_right();
        let topo = SmTopology::new(part.clone());
        let n = part.n();
        let mut tally = Tally::new(n, topo.units(true));
        let mut sup = Supporters::empty(n);
        let credits: [(usize, Est); 4] = [
            (1, Some(Bit::One)),  // p2 → cluster {p2..p5}
            (4, Some(Bit::One)),  // p5 → same cluster (dedup)
            (0, None),            // p1 → singleton
            (5, Some(Bit::Zero)), // p6 → {p6,p7}
        ];
        for (from, est) in credits {
            let from = ProcessId(from);
            let (unit, weight) = topo.unit_of(from, true);
            tally.credit(est, unit, weight);
            sup.credit(est, part.cluster_members_of(from));
            assert_eq!(
                tally.coverage_is_majority(),
                sup.coverage().is_majority_of(n)
            );
            assert_eq!(tally.majority_value(), sup.majority_value());
            assert_eq!(tally.rec(), sup.rec());
        }
        assert_eq!(tally.rec().classify(), RecClass::Conflict);
        // Reset empties everything.
        tally.reset();
        assert!(!tally.coverage_is_majority());
        assert_eq!(tally.rec(), Supporters::empty(n).rec());
        // Non-amplified: units are processes.
        let mut tally = Tally::new(n, topo.units(false));
        let mut sup = Supporters::empty(n);
        for (from, est) in credits {
            let from = ProcessId(from);
            let (unit, weight) = topo.unit_of(from, false);
            tally.credit(est, unit, weight);
            sup.credit(est, &ProcessSet::singleton(n, from));
            assert_eq!(tally.majority_value(), sup.majority_value());
            assert_eq!(
                tally.coverage_is_majority(),
                sup.coverage().is_majority_of(n)
            );
        }
    }

    #[test]
    fn broadcast_into_collapses_uniform_sends() {
        let mut outbox = Outbox::new();
        let msg = MsgKind::Decide {
            instance: 0,
            value: Bit::One,
        };
        broadcast_into(&mut outbox, 3, msg, &mut NullCtx).unwrap();
        let whole = OutItem::Broadcast {
            msg,
            sent_at: 0,
            stride: 0,
        };
        assert_eq!(outbox, vec![whole]);
        // A single-destination universe keeps the point-to-point form.
        let mut outbox = Outbox::new();
        broadcast_into(&mut outbox, 1, msg, &mut NullCtx).unwrap();
        assert!(matches!(outbox[0], OutItem::One(_)));
    }

    /// Charges sends the way the engines' contexts do: one step and
    /// `send_cost` ticks per send, each send logged with its timestamp;
    /// crashes once `crash_after` steps were taken, and stalls for ten
    /// ticks before step `stall_at`. With `takes_whole` it accepts a
    /// broadcast in one call whenever no send of it can crash or stall.
    #[derive(Default)]
    struct CostCtx {
        clock: u64,
        send_cost: u64,
        steps: u64,
        crash_after: Option<u64>,
        stall_at: Option<u64>,
        takes_whole: bool,
        sends: Vec<(ProcessId, u64)>,
    }

    impl SmCtx for CostCtx {
        fn send(&mut self, to: ProcessId, _msg: MsgKind) -> Result<u64, Halt> {
            self.steps += 1;
            if self.crash_after.is_some_and(|k| self.steps > k) {
                return Err(Halt::Crashed);
            }
            if self.stall_at == Some(self.steps) {
                self.clock += 10;
            }
            self.clock += self.send_cost;
            self.sends.push((to, self.clock));
            Ok(self.clock)
        }
        fn send_to_all(&mut self, n: usize, _msg: MsgKind) -> Option<(u64, u64)> {
            if !self.takes_whole || self.crash_after.is_some() || self.stall_at.is_some() {
                return None;
            }
            let sent_at = self.clock + self.send_cost;
            self.steps += n as u64;
            self.sends
                .extend((0..n).map(|j| (ProcessId(j), sent_at + j as u64 * self.send_cost)));
            self.clock += n as u64 * self.send_cost;
            Some((sent_at, self.send_cost))
        }
        fn begin_recv(&mut self) -> Result<(), Halt> {
            Ok(())
        }
        fn cluster_propose(&mut self, _slot: Slot, enc: u64) -> Result<u64, Halt> {
            Ok(enc)
        }
        fn local_coin(&mut self) -> Result<Bit, Halt> {
            Ok(Bit::Zero)
        }
        fn common_coin(&mut self, _index: u64) -> Result<Bit, Halt> {
            Ok(Bit::Zero)
        }
    }

    #[test]
    fn broadcast_into_keeps_a_costed_broadcast_whole() {
        let msg = MsgKind::Decide {
            instance: 0,
            value: Bit::One,
        };
        let n = 5;
        let ctx = |crash_after| CostCtx {
            clock: 40,
            send_cost: 1,
            crash_after,
            ..CostCtx::default()
        };
        // A per-send cost spaces the sends evenly: still one item, and
        // every send was still performed (a step and a record each).
        let (mut outbox, mut c) = (Outbox::new(), ctx(None));
        broadcast_into(&mut outbox, n, msg, &mut c).unwrap();
        let whole = OutItem::Broadcast {
            msg,
            sent_at: 41,
            stride: 1,
        };
        assert_eq!(outbox, vec![whole]);
        assert_eq!(c.steps, n as u64);
        let expected: Vec<_> = (0..n).map(|j| (ProcessId(j), 41 + j as u64)).collect();
        assert_eq!(c.sends, expected);
        // A crash mid-broadcast: the prefix already sent stays sent, as
        // point-to-point items carrying their own timestamps.
        let (mut outbox, mut c) = (Outbox::new(), ctx(Some(3)));
        assert_eq!(
            broadcast_into(&mut outbox, n, msg, &mut c),
            Err(Halt::Crashed)
        );
        let prefix: Vec<_> = (0..3)
            .map(|j| {
                OutItem::One(Outgoing {
                    to: ProcessId(j),
                    msg,
                    sent_at: 41 + j as u64,
                })
            })
            .collect();
        assert_eq!(outbox, prefix);
        // A send off the pace the first two set: every send keeps the
        // timestamp it was made at, as point-to-point items.
        let (mut outbox, mut c) = (Outbox::new(), ctx(None));
        c.stall_at = Some(4);
        broadcast_into(&mut outbox, n, msg, &mut c).unwrap();
        assert_eq!(c.sends[3], (ProcessId(3), 54));
        let singles: Vec<_> = (c.sends.iter())
            .map(|&(to, sent_at)| OutItem::One(Outgoing { to, msg, sent_at }))
            .collect();
        assert_eq!(outbox, singles);
    }
    #[test]
    fn broadcast_into_is_the_same_taken_whole_or_sent_one_by_one() {
        let msg = MsgKind::Decide {
            instance: 0,
            value: Bit::One,
        };
        let run = |ctx: CostCtx, n| {
            let (mut outbox, mut ctx) = (Outbox::new(), ctx);
            let result = broadcast_into(&mut outbox, n, msg, &mut ctx);
            (result, outbox, ctx.clock, ctx.steps, ctx.sends)
        };
        for send_cost in [0, 3] {
            for n in [1, 2, 5] {
                let ctx = |takes_whole| CostCtx {
                    clock: 40,
                    send_cost,
                    takes_whole,
                    ..CostCtx::default()
                };
                let declined = run(ctx(false), n);
                assert_eq!(declined.3, n as u64, "one step per send");
                assert_eq!(run(ctx(true), n), declined, "cost {send_cost}, n = {n}");
            }
        }
        // A context that cannot rule a crash out declines, and the sent
        // prefix is kept exactly as before.
        let crashing = |takes_whole| CostCtx {
            clock: 40,
            send_cost: 1,
            crash_after: Some(3),
            takes_whole,
            ..CostCtx::default()
        };
        let (result, outbox, ..) = run(crashing(true), 5);
        assert_eq!(result, Err(Halt::Crashed));
        assert_eq!(outbox.len(), 3);
        assert_eq!(run(crashing(true), 5), run(crashing(false), 5));
    }

    use super::consensus::tests::{draw, TestCtx};
    use crate::multivalued::INSTANCE_STRIDE;
    use crate::{Algorithm, Msg, Payload, Phase};
    use std::sync::Arc;

    /// One process's machine, of any of the three layers.
    #[allow(clippy::large_enum_variant)]
    enum Layer {
        Consensus(ConsensusSm),
        Multivalued(MultivaluedSm),
        Log(LogSm),
    }

    /// A [`Layer`]'s snapshot.
    #[derive(Debug, PartialEq)]
    enum LayerSnap {
        Consensus(ConsensusSnap),
        Multivalued(MvSnap),
        Log(LogSnap),
    }

    impl Layer {
        fn new(layer: u8, algorithm: Algorithm, me: ProcessId, topo: &Arc<SmTopology>) -> Self {
            let cfg = ProtocolConfig::paper().with_max_rounds(6);
            let topo = Arc::clone(topo);
            let text = |s: String| Payload::from_bytes(s.as_bytes()).expect("fits");
            let i = me.index();
            match layer {
                0 => {
                    let bit = Bit::from(i.is_multiple_of(2));
                    Layer::Consensus(ConsensusSm::new(algorithm, me, topo, 0, bit, cfg))
                }
                1 => {
                    let proposal = text(format!("v{i}"));
                    Layer::Multivalued(MultivaluedSm::new(algorithm, me, topo, 1, proposal, cfg))
                }
                _ => {
                    let queue = vec![text(format!("a{i}")), text(format!("b{i}"))];
                    Layer::Log(LogSm::new(algorithm, me, topo, queue, 3, cfg, None))
                }
            }
        }

        /// `start` (no message) or `on_msg`, a multivalued decision
        /// reported as its binary digest.
        fn step(&mut self, msg: Option<Msg>, ctx: &mut TestCtx) -> Progress {
            match (self, msg) {
                (Layer::Consensus(sm), None) => sm.start(ctx),
                (Layer::Consensus(sm), Some(m)) => sm.on_msg(m, ctx),
                (Layer::Log(sm), None) => sm.start(ctx),
                (Layer::Log(sm), Some(m)) => sm.on_msg(m, ctx),
                (Layer::Multivalued(sm), msg) => {
                    let progress = match msg {
                        None => sm.start(ctx),
                        Some(m) => sm.on_msg(m, ctx),
                    };
                    match progress {
                        MvProgress::NeedMsg => Progress::NeedMsg,
                        MvProgress::Sent(out) => Progress::Sent(out),
                        MvProgress::Decided(mv, out) => {
                            Progress::Decided(crate::mv_body_decision(&mv), out)
                        }
                        MvProgress::Halted(h, out) => Progress::Halted(h, out),
                    }
                }
            }
        }

        fn absorb_inert(&mut self, msg: Msg) -> bool {
            match self {
                Layer::Consensus(sm) => sm.absorb_inert(msg),
                Layer::Multivalued(sm) => sm.absorb_inert(msg),
                Layer::Log(sm) => sm.absorb_inert(msg),
            }
        }

        fn snapshot(&self) -> LayerSnap {
            match self {
                Layer::Consensus(sm) => LayerSnap::Consensus(sm.snapshot()),
                Layer::Multivalued(sm) => LayerSnap::Multivalued(sm.snapshot()),
                Layer::Log(sm) => LayerSnap::Log(sm.snapshot()),
            }
        }
    }

    /// A step's sends, and whether it was the machine's last.
    fn sends(progress: Progress) -> (Outbox, bool) {
        match progress {
            Progress::NeedMsg => (Vec::new(), false),
            Progress::Sent(out) => (out, false),
            Progress::Decided(_, out) | Progress::Halted(_, out) => (out, true),
        }
    }

    /// A copy of `msg` from a random sender, moved by the bits of `r` to a
    /// neighbouring exchange, instance or proposer: stale, current and
    /// future rounds and phases, decides of this and other instances,
    /// proposals of this and other multivalued instances.
    fn perturb(msg: Msg, r: u64, n: usize) -> Msg {
        let near = |x: u64, bits: u64, step: u64| match bits % 3 {
            0 => x,
            1 => x + step,
            _ => x.saturating_sub(step),
        };
        let kind = match msg.kind {
            MsgKind::Phase {
                instance,
                round,
                phase,
                ..
            } => MsgKind::Phase {
                instance: near(instance, r >> 8, 1),
                round: near(round, r >> 12, 1),
                phase: match (r >> 16) % 3 {
                    0 => Phase::One,
                    1 => Phase::Two,
                    _ => phase,
                },
                est: [None, Some(Bit::Zero), Some(Bit::One)][(r >> 20) as usize % 3],
            },
            MsgKind::Decide { instance, .. } => MsgKind::Decide {
                instance: near(instance, r >> 8, 1),
                value: Bit::from((r >> 16) & 1 == 1),
            },
            MsgKind::App {
                instance, payload, ..
            } => MsgKind::App {
                instance: near(instance, r >> 8, INSTANCE_STRIDE),
                seq: (r >> 16) % (n as u64 + 1),
                payload,
            },
        };
        Msg {
            from: ProcessId(r as usize % n),
            kind,
        }
    }

    /// Runs six processes of `layer` machines in clusters `{p0} {p1 p2
    /// p3} {p4 p5}` — every delivery in an order drawn from `seed`, and
    /// `junk` in every 8 steps a [`perturb`]ed copy of a message sent
    /// so far instead. Every recipient is built twice: one copy takes
    /// each delivery through `on_msg`, its twin through `absorb_inert`,
    /// falling back to `on_msg` where that answers `false`. At each
    /// delivery it asserts that a `false` touched nothing; that for an absorbed
    /// delivery `on_msg` made exactly one context call (its `recv` entry)
    /// and returned `NeedMsg` with no event and no `cluster_propose`; and
    /// that the two copies then hold equal snapshots. The last process
    /// sees `p0`'s proposals only once nothing else is in flight, so
    /// multivalued stages wait for them. Returns how many deliveries were
    /// absorbed and how many others reached `cluster_propose`.
    fn check_inertness(layer: u8, algorithm: Algorithm, seed: u64, junk: u64) -> (u64, u64) {
        let part = Partition::from_sizes(&[1, 3, 2]).expect("valid sizes");
        let n = part.n();
        let topo = Arc::new(SmTopology::new(part));
        let mut rng = seed;
        let build = || -> Vec<Layer> {
            (0..n)
                .map(|i| Layer::new(layer, algorithm, ProcessId(i), &topo))
                .collect()
        };
        let (mut machines, mut twins) = (build(), build());
        let coins: Vec<Bit> = (0..n).map(|_| Bit::from(draw(&mut rng) & 1 == 1)).collect();
        let ctxs_for = || -> Vec<TestCtx> { coins.iter().map(|&c| TestCtx::new(c)).collect() };
        let (mut ctxs, mut twin_ctxs) = (ctxs_for(), ctxs_for());
        let mut done = vec![false; n];
        let (mut in_flight, mut sent) = (Vec::<(usize, Msg)>::new(), Vec::<Msg>::new());
        let file = |from: usize, outbox: Outbox, in_flight: &mut Vec<_>, sent: &mut Vec<_>| {
            for item in outbox {
                let from = ProcessId(from);
                let (msg, to) = match item {
                    OutItem::One(o) => (o.msg, o.to.index()..o.to.index() + 1),
                    OutItem::Broadcast { msg, .. } => (msg, 0..n),
                };
                sent.push(Msg { from, kind: msg });
                in_flight.extend(to.map(|to| (to, Msg { from, kind: msg })));
            }
        };
        for i in 0..n {
            let progress = machines[i].step(None, &mut ctxs[i]);
            assert_eq!(twins[i].step(None, &mut twin_ctxs[i]), progress);
            let (out, end) = sends(progress);
            done[i] = end;
            file(i, out, &mut in_flight, &mut sent);
        }
        let held =
            |&(to, m): &(usize, Msg)| to == n - 1 && matches!(m.kind, MsgKind::App { seq: 0, .. });
        let (mut inert, mut proposing) = (0, 0);
        for _ in 0..20_000 {
            if in_flight.is_empty() {
                break;
            }
            let (to, msg) = if draw(&mut rng) % 8 < junk {
                let r = draw(&mut rng) << 31 | draw(&mut rng);
                let original = sent[r as usize % sent.len()];
                (draw(&mut rng) as usize % n, perturb(original, r, n))
            } else {
                let free: Vec<usize> = (0..in_flight.len())
                    .filter(|&j| !held(&in_flight[j]))
                    .collect();
                let r = draw(&mut rng) as usize;
                let pick = if free.is_empty() {
                    r
                } else {
                    free[r % free.len()]
                };
                in_flight.remove(pick % in_flight.len())
            };
            if done[to] {
                continue;
            }
            let what = format!("layer {layer} {algorithm:?} seed {seed}: {msg:?} to p{to}");
            let before = twins[to].snapshot();
            let absorbed = twins[to].absorb_inert(msg);
            let ctx = &ctxs[to];
            let (calls, proposes, events) = (ctx.calls, ctx.proposes, ctx.events.len());
            let progress = machines[to].step(Some(msg), &mut ctxs[to]);
            let ctx = &ctxs[to];
            let proposed = ctx.proposes > proposes;
            if absorbed {
                assert_eq!(progress, Progress::NeedMsg, "{what}");
                assert_eq!(ctx.calls, calls + 1, "{what}: the recv entry only");
                assert_eq!(ctx.events.len(), events, "{what}");
                assert!(!proposed, "{what}");
            } else {
                assert_eq!(
                    twins[to].snapshot(),
                    before,
                    "{what}: a `false` touched nothing"
                );
                let twin = twins[to].step(Some(msg), &mut twin_ctxs[to]);
                assert_eq!(twin, progress, "{what}");
            }
            assert_eq!(twins[to].snapshot(), machines[to].snapshot(), "{what}");
            inert += u64::from(absorbed);
            proposing += u64::from(proposed);
            let (out, end) = sends(progress);
            done[to] = end;
            file(to, out, &mut in_flight, &mut sent);
        }
        (inert, proposing)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// `absorb_inert` is `on_msg` minus the `recv` entry on all three
        /// machines: whatever the delivery order and whatever stray
        /// messages arrive, a delivery the recipient's machine absorbs
        /// never reaches `cluster_propose` when stepped instead, and
        /// absorbing it leaves the machine where stepping it does.
        #[test]
        fn an_inert_delivery_never_proposes(
            layer in 0u8..3,
            common in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
            junk in 0u64..4,
        ) {
            let algorithm = if common { Algorithm::CommonCoin } else { Algorithm::LocalCoin };
            check_inertness(layer, algorithm, seed, junk);
        }
    }

    /// The property above is not vacuous: on every layer and algorithm
    /// some deliveries are absorbed and some others do reach the cluster.
    #[test]
    fn inertness_runs_see_both_kinds_of_delivery() {
        for layer in 0..3 {
            for algorithm in [Algorithm::LocalCoin, Algorithm::CommonCoin] {
                let (mut inert, mut proposing) = (0, 0);
                for seed in 0..8 {
                    let (i, p) = check_inertness(layer, algorithm, seed, seed % 4);
                    inert += i;
                    proposing += p;
                }
                assert!(
                    inert > 0 && proposing > 0,
                    "layer {layer} {algorithm:?}: {inert} {proposing}"
                );
            }
        }
    }
}
