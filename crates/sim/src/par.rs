//! The sharded event loop: the one loop behind both event engines.
//!
//! Every process is an `ofa_core::sm` machine (`engine.rs`) stepped
//! straight off a queue of pending events. The paper's own structure says
//! how to split that queue: **clusters are natural shards**. Intra-cluster
//! traffic is shared memory (`MEM_x` never crosses a cluster boundary)
//! and every remaining interaction is a scheduled message delivery — so
//! each shard owns a subset of the clusters (their machines, their
//! `ClusterMemory`, and a local event queue) and shards only interact through
//! cross-shard deliveries exchanged at deterministic virtual-time
//! **epoch barriers**.
//!
//! [`Engine::EventDriven`](ofa_scenario::Engine) is this loop with **one
//! shard** that owns every cluster, driven on the calling thread: no
//! spawned thread, no channel, no barrier, no lookahead window.
//! [`Engine::ParallelEvent`](ofa_scenario::Engine) is the same loop with
//! `W` shards: the coordinator drives shard 0 itself and spawns one
//! thread for each of shards `1..W`. Nothing else differs between them.
//!
//! # Why the runs are bit-for-bit reproducible
//!
//! Everything order-sensitive in a run is a *pure function of the
//! scenario*:
//!
//! * **Delays, loss, and duplication** come from the compiled
//!   [`ofa_scenario::NetworkModel`] ([`NetIndex`]), keyed by
//!   `(seed, sender, destination, sender-counter)` — no shared RNG
//!   stream to race on, and message fates resolve identically wherever
//!   they are evaluated.
//! * **Tie-breaks** come from the deterministic
//!   [`EventKey`](crate::order) total order — no registration
//!   sequence numbers.
//! * **The trace hash** is a multiset hash, so per-shard recorders merge
//!   into exactly the value one global recorder would produce.
//!
//! Each shard pops its local events in `(time, key)` order, which equals
//! the one-shard dispatch order *restricted to the shard*. (The queue is
//! a calendar of one-tick buckets, below, not a heap; it pops in exactly
//! the order `BinaryHeap<Keyed<_>>` does, and the conductor's heap is the
//! oracle the corpus holds it against.) Since
//! same-epoch events on different shards touch disjoint state (machines
//! and memories are shard-owned; the conservative lookahead below keeps
//! their messages out of the current epoch), any shard count computes the
//! identical run — same decisions, halts, counters, event counts, end
//! time, and shard-merged trace hash. `tests/engine_equivalence.rs`
//! asserts this across the whole corpus, against the thread conductor.
//!
//! # The epoch protocol
//!
//! Every message takes at least [`NetIndex::min_delay`] ticks, so an
//! event processed at virtual time `t` can only schedule deliveries at
//! `t + min_delay` or later (send timestamps never precede the event
//! being dispatched). With the epoch `[T, T + min_delay)`, the event set
//! of the epoch is therefore *closed*: nothing processed inside it — on
//! any shard — can add to it. One epoch is one round trip: the
//! coordinator picks `T` = earliest pending event anywhere and sends
//! every shard [`Cmd::Run`] with the deliveries routed to it at the last
//! barrier; the shard enqueues them, pops its queue while the next event
//! is inside the window, and replies with its outgoing cross-shard sends.
//! A lone shard has nobody to exchange with, so its window is unbounded
//! (which is why it also serves networks whose minimum delay is zero).
//!
//! Broadcasts stay whole end to end: one queue entry on the sender's
//! shard plus one descriptor per *other shard* (not per destination)
//! across the barrier, each covering the shard's own members — O(n) queue
//! residency per all-to-all round, not O(n²). The entry takes one of two
//! forms, both order-exact (see [`ShardState::route`]):
//!
//! * **Batched** ([`SPending::Broadcast`]) when every destination lands
//!   at the same instant — a constant delay and no per-send cost. Member
//!   `g`'s delivery has key `(from, k0 + g, g)`: the sender's consecutive
//!   counter values make member order the order `n` single entries would
//!   pop in, and the positive shared delay keeps anything the deliveries
//!   trigger out of that instant. A tick taken whole reads the batch as
//!   one source beside the tick's other deliveries (below).
//! * **Lazy** ([`SPending::Lazy`]) otherwise — sampled delays, or a
//!   per-send cost spacing the sends. A [`Cursor`] over the shard's
//!   surviving destinations sorted by delivery `(time, key)` lives in the
//!   shard's cursor arena, and its queue entry names the arena slot and
//!   sits under the *next* destination's time and key. A pop delivers
//!   that one destination and re-keys the entry to the one after it, so
//!   the queue always holds exactly the minimum of what `n` single
//!   entries would hold, and pops in their order; a window of ticks taken
//!   whole (below) takes all of the cursor's destinations in the window
//!   at once and re-queues it once. The shard draws each destination's
//!   fate ([`NetIndex::fate_of`]), then the survivors' delays in one call
//!   per broadcast ([`NetIndex::delays_of`]); they come in index order
//!   with delivery offsets inside the delay window plus the send spacing,
//!   so a stable counting sort on the offset orders them
//!   ([`Cursor::sort_descending`]). Only while it crosses a barrier is a
//!   cursor boxed inside its entry.
//!
//! # The queue: a calendar, in heap order
//!
//! A shard's pending events live in a [`Calendar`]
//! (`crates/sim/src/queue.rs`): a ring of one-tick buckets over a fixed
//! span of virtual time, with an overflow heap beyond it. Delays are
//! whole ticks within a known window, so a pop is a look into the
//! current tick's bucket instead of a sift through a heap of every
//! broadcast in flight. Its order argument, in short: every entry is in
//! its own tick's bucket or, past the span, in the overflow; a bucket is
//! sorted by the packed [`EventKey`] when its tick becomes current, and
//! a push at the current tick is inserted in place — so it pops in
//! exactly the `(at, EventKey)` order `BinaryHeap<Keyed<SPending>>`
//! pops in, and windows taken whole, lazy cursors, the event budget, epochs,
//! [`ShardState::keys`], checkpoints and kept traces mean what they did
//! byte for byte. A tick becomes current only when the loop pops from
//! it: window checks and [`StepReport::next_at`] only read it, so a
//! cross-shard arrival at a barrier, at or after the window's end but
//! before the shard's own next event, is an ordinary push. Each entry's
//! handle carries a [`Kind`] tag beside the slot of its payload, so the
//! loop can classify a tick without touching a payload, and a tick whose
//! order cannot show is taken whole and never sorted (below).
//!
//! # Instants: a window of ticks whose order cannot show is taken whole
//!
//! A tick often holds many deliveries. Under a constant delay and free
//! sends a round's ~n broadcasts land at one instant, and delivered one
//! broadcast after the other they visit all n machines between two visits
//! to the same one. Under sampled delays an instant holds single
//! deliveries off many lazy cursors — about 530 per tick at n = 1000, half
//! a delivery per process — and popping them in `(time, key)` order costs
//! a sort of the tick and a re-key per delivery. Where the order inside
//! the ticks cannot show, the loop takes them whole instead, a **window**
//! of ticks `[T, T + w)` at a time ([`ShardState::float_window`]), `w`
//! the minimum delay up to [`WINDOW_CAP`] and cut at the epoch's end (a
//! shard holding no lazy cursor has nothing to gather, and its window is
//! one tick):
//!
//! * first its lazy cursors are gathered, each in one visit — all of its
//!   destinations in the window, a run at the end of its order, into the
//!   records of the tick each lands at, the cursor re-queued once under
//!   its next destination, past the window — skipping those to finished
//!   processes, which are events and nothing else unless a duplicate's
//!   copy is still to be queued (or a rejoin inside the window can revive
//!   them: then none is skipped);
//! * then its ticks are taken in order, each on its own
//!   ([`ShardState::float_tick`]), as follows;
//! * the tick's crashes and rejoins run first, in key order (their class
//!   sorts them before every delivery);
//! * its plain deliveries join the records the window gathered for it,
//!   the tick skips those to processes finished by now (no copy to
//!   queue), and the rest are grouped by recipient with a counting sort,
//!   key order inside each group;
//! * a batched broadcast writes no record: it is a source that every
//!   surviving member reads beside its group, in key order (member `g`'s
//!   delivery has key `(from, k0 + g, g)`), so a tick of broadcasts alone
//!   costs no record per delivery;
//! * each recipient takes its deliveries, its group and the broadcasts
//!   merged in key order, for as long as its machine absorbs them — so
//!   its machine, process state and proposal array stay hot across the
//!   instant — and pauses at the first it would not absorb. The paused
//!   deliveries go in global key order from one heap, each followed by
//!   its recipient's next run.
//!
//! So every process receives its deliveries in key order, and those that
//! can reach `ClusterMemory` reach it in the order the sorted tick would
//! give them. Every delivery still goes through [`ShardState::take`], a
//! duplicated one's copy is queued after it, on a reliable network the
//! rest of a finished recipient's deliveries are counted in one step, and
//! the event count and `end_time` advance as for the popped tick. The
//! argument that makes clusters shards holds just as well inside one
//! shard — a window is an epoch of one shard — under three
//! preconditions, all checked where the window is opened
//! ([`ShardState::tick_floats`]):
//!
//! 1. **A window is shorter than the minimum delay.**
//!    [`NetIndex::min_delay`] `> 0` (batching a broadcast requires it
//!    too), and a window spans at most that many ticks, so nothing a step
//!    inside it sends, nor a duplicate's copy, lands inside it: its event
//!    set is closed once it is opened.
//! 2. **Inert deliveries float.** Inside a shard the only state a
//!    delivery can share with a delivery to another process is their
//!    cluster's first-proposer-wins `ClusterMemory`: clock, steps,
//!    counters, mailbox, proposal store and coin are the recipient's own,
//!    a send's key comes from the sender's own counter, and the trace
//!    hash is a multiset. So a delivery that cannot reach
//!    `ClusterMemory` commutes with every delivery to another process —
//!    partial-order reduction's independence. Inert means *absorbable
//!    without a step context*: [`Machine::absorb_inert`], the one place
//!    each machine decides it and the first thing its `on_msg` does,
//!    applies the delivery where its conservative rules hold (and
//!    refuses it, untouched, elsewhere), the loop charging the one
//!    `recv` step itself. `ClusterMemory` is reachable only through a
//!    context, so an absorbed delivery leaves it alone by construction —
//!    the recipient's `cluster_proposes` cannot move. (Plain
//!    recipient-major order would break this: two members of one cluster
//!    with different histories — a lost message, a rejoin — finish an
//!    exchange at different deliveries of the instant and race for their
//!    cluster's consensus object.)
//! 3. **Unobservable order.** No kept trace, no observer, and a remaining
//!    event budget that covers every event the shard holds
//!    ([`StepReport::pending`]), so it cannot run out inside the window.
//!
//! A window never reaches past the epoch's end, which is also the pause
//! cut, and nothing of it outlives the call that takes it: between calls
//! the queue holds every pending event, as checkpoints, the budget's
//! [`ShardState::keys`] and the barrier exchange read it. When any
//! precondition fails the tick is sorted and popped in order. A popped
//! batched broadcast is delivered member by member, as far as the budget
//! reaches: its keys are consecutive, so nothing else sorts inside it.
//! Those deliveries are still absorbed where they can be — in global
//! order: an absorbed delivery emits no observer event, and its `Deliver`
//! fingerprint is recorded where a stepped one's is. On the benchmark's
//! cells 99.85–99.97 % of the deliveries to live processes are absorbed.
//! Nothing selects any of this, and the conductor, which sends and
//! delivers one message at a time, is the oracle the equivalence corpus
//! holds every instant against.
//!
//! The event budget (`Scenario::max_events`) keeps its exact sequential
//! semantics. One shard simply stops after `remaining` events. Several
//! shards report a cheap upper bound on their pending events with every
//! reply; only in an epoch where that bound exceeds the remaining budget
//! does the coordinator ask for the window's event keys ([`Cmd::Keys`])
//! and cut the epoch at the globally `remaining`-th event in
//! `(time, key)` order.
//!
//! Pausing at a virtual-time cut clamps the window to the cut, so no
//! shard ever processes an event at or beyond it; the pause lands on a
//! barrier, where every pending event sits in some shard's queue, ready
//! to export in the canonical [`EngineSnap`] form — which is why a
//! snapshot resumes on any shard count.
//!
//! Observers are supported (they are `Send + Sync` by contract) and see
//! a deterministic event subsequence *per process*, but with several
//! shards the global interleaving of callbacks across shards is
//! real-time concurrent — the one observable this loop does not
//! linearize. Order-sensitive observers belong on one shard; see the
//! [`Engine`](ofa_scenario::Engine) docs.

use crate::backend::{rejoin_coin_seed, RawOutcome, RunSpec};
use crate::checkpoint::{CanonEvent, ClusterCells, EngineSnap, ProcSnap};
use crate::engine::{Input, Machine, MachineSnap, ProcState};
use crate::order::{EventKey, Keyed, SendCounters};
use crate::queue::{Calendar, Handle, Slab};
use ofa_core::sm::{OutItem, Progress, SmTopology};
use ofa_core::{Halt, Msg, MsgKind};
use ofa_metrics::{CounterSnapshot, ServiceStats};
use ofa_scenario::{
    CrashTrigger, DeliverPrefix, Fate, NetIndex, TraceEvent, TraceRecorder, VirtualTime,
};
use ofa_sharedmem::{MemoryBank, Slot};
use ofa_topology::{Partition, ProcessId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{mpsc, Arc};

/// What a pending event is. A [`SPending::Broadcast`] is a
/// same-instant broadcast kept whole: the shard holding it delivers it to
/// its own members (destination `g` holds sender-counter `k0 + g`). A
/// [`SPending::Lazy`] is any other broadcast kept whole, as it crosses a
/// barrier: the shard it lands on keeps its [`Cursor`] in an arena
/// ([`ShardState::schedule`]), and it delivers one destination per pop,
/// or every destination of a tick at once.
#[derive(Debug)]
pub(crate) enum SPending {
    Deliver { to: u32, from: u32, msg: MsgKind },
    Broadcast { from: u32, k0: u64, msg: MsgKind },
    Lazy(Box<Cursor>),
    Crash { pid: u32 },
    Rejoin { pid: u32 },
}

/// What a queue handle stands for, kept beside it in the calendar so a
/// tick can be classified without touching a payload. A `Lazy` handle's
/// slot is its cursor's in [`ShardState::cursors`]; every other handle's
/// is its payload's in [`ShardState::events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Deliver,
    Broadcast,
    Lazy,
    /// A crash or a rejoin.
    Lifecycle,
}

/// A broadcast whose destinations land at different times (sampled
/// delays, or sends spaced by a per-send cost), as one shard holds it:
/// the shard's members it still has to reach, in delivery order.
/// Destination `g` holds sender-counter `k0 + g` and was sent at
/// `base + g·stride`.
///
/// What a tick's gather reads comes first and shares one cache line
/// (the arena keeps cursors line-aligned); the message, which only a
/// live recipient's delivery reads, sits in the next.
#[derive(Debug)]
#[repr(C, align(64))]
pub(crate) struct Cursor {
    /// One word per undelivered surviving destination (lost ones are
    /// never events): `(at − base) << 32 | g << 1 | duplicated`, sorted
    /// descending, so the next delivery in `(at, EventKey)` order is the
    /// last element, and a tick's destinations are a run at the end.
    /// Empty while the broadcast crosses a barrier — the receiving shard
    /// fills it in ([`ShardState::schedule`]).
    order: Vec<u64>,
    base: u64,
    k0: u64,
    from: u32,
    stride: u64,
    msg: MsgKind,
}

impl Cursor {
    /// The largest `at − base` a packed word holds. A destination beyond
    /// it (a delay of more than four billion ticks) is scheduled as a
    /// plain [`SPending::Deliver`] instead.
    const MAX_OFFSET: u64 = u32::MAX as u64;

    fn pack(offset: u64, g: u32, dup: bool) -> u64 {
        debug_assert!(offset <= Self::MAX_OFFSET && g <= u32::MAX >> 1);
        offset << 32 | u64::from(g) << 1 | u64::from(dup)
    }

    /// Appends `words` to the empty `out` in descending order — the
    /// order of [`Cursor::order`]. `words` must be in ascending
    /// destination order (which [`ShardState::schedule`] produces), so a
    /// stable counting sort on the offset alone is exact: words with one
    /// offset differ only in their destination. Offsets fall within the
    /// delay window plus the broadcast's send spacing; a window much
    /// wider than the word count falls back to a comparison sort.
    fn sort_descending(words: &[u64], out: &mut Vec<u64>, counts: &mut Vec<u32>) {
        debug_assert!(out.is_empty() && words.is_sorted_by_key(|&w| w as u32));
        out.reserve_exact(words.len());
        let offsets = words.iter().map(|&w| w >> 32);
        let (Some(lo), Some(hi)) = (offsets.clone().min(), offsets.max()) else {
            return;
        };
        if hi - lo >= 8 * words.len() as u64 {
            out.extend_from_slice(words);
            out.sort_unstable_by(|a, b| b.cmp(a));
            return;
        }
        // One bucket per offset, latest first; each bucket filled from the
        // highest destination down.
        counts.clear();
        counts.resize((hi - lo + 1) as usize, 0);
        for &w in words {
            counts[(hi - (w >> 32)) as usize] += 1;
        }
        let mut start = 0;
        for c in counts.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        out.resize(words.len(), 0);
        for &w in words.iter().rev() {
            let c = &mut counts[(hi - (w >> 32)) as usize];
            out[*c as usize] = w;
            *c += 1;
        }
    }

    /// A packed word as `(at, destination, duplicated)`.
    fn unpack(&self, w: u64) -> (u64, u32, bool) {
        (self.base + (w >> 32), (w as u32) >> 1, w & 1 == 1)
    }

    /// The undelivered destinations, next first.
    fn remaining(&self) -> impl Iterator<Item = (u64, u32, bool)> + '_ {
        self.order.iter().rev().map(|&w| self.unpack(w))
    }

    /// Where the entry holding this cursor sorts: the next destination's
    /// delivery time and key.
    fn next_key(&self) -> Option<(u64, EventKey)> {
        let (at, g, _) = self.remaining().next()?;
        let from = ProcessId(self.from as usize);
        let key = EventKey::deliver(from, self.k0 + u64::from(g), ProcessId(g as usize));
        Some((at, key))
    }
}

/// The most ticks one window taken whole spans (module docs,
/// "Instants"): the window's lazy broadcasts are each visited once, and
/// its records wait for their ticks in per-tick buffers, whose memory
/// grows with the span. On the full `consensus-split` cell (2-vCPU VM)
/// 16, 32 and 64 ticks cost +1.2 %, +3.4 % and +6.9 % peak RSS, and 32
/// was about 7 % faster than 16; 64 no faster than 32.
const WINDOW_CAP: u64 = 32;

/// How many of a window's lazy broadcasts [`ShardState::gather_window`]
/// reads ahead of gathering them.
const TOUCH_BATCH: usize = 16;

/// A pending event with its delivery time and ordering key — a slot of
/// a shard's queue (ordered earliest-first by `(at, EventKey)`), and also
/// what crosses an epoch barrier: time and key are sender-local
/// computations, so the receiving shard just enqueues.
pub(crate) type SEntry = Keyed<SPending>;

// Every pending event crosses a barrier by value; whatever a lazy
// broadcast carries lives behind its `Box` there, and in the shard's
// cursor arena once it lands.
const _: () = assert!(std::mem::size_of::<SEntry>() <= 104);

impl SEntry {
    fn deliver(at: u64, from: u32, k: u64, to: u32, msg: MsgKind) -> Self {
        Keyed {
            at,
            key: EventKey::deliver(ProcessId(from as usize), k, ProcessId(to as usize)),
            ev: SPending::Deliver { to, from, msg },
        }
    }

    /// A batched broadcast sorts where its first destination would: the
    /// key carries the first of the consecutive sender-counter values.
    fn broadcast(at: u64, from: u32, k0: u64, msg: MsgKind) -> Self {
        Keyed {
            at,
            key: EventKey::deliver(ProcessId(from as usize), k0, ProcessId(0)),
            ev: SPending::Broadcast { from, k0, msg },
        }
    }

    fn crash(pid: ProcessId, at: u64) -> Self {
        Keyed {
            at,
            key: EventKey::crash(pid),
            ev: SPending::Crash {
                pid: pid.index() as u32,
            },
        }
    }

    fn rejoin(pid: ProcessId, at: u64) -> Self {
        Keyed {
            at,
            key: EventKey::rejoin(pid),
            ev: SPending::Rejoin {
                pid: pid.index() as u32,
            },
        }
    }

    /// The canonical checkpoint form of a pending delivery, and back
    /// ([`SEntry::from_canon`]). Timed crashes and churn rejoins have
    /// none: they are re-derived from the resume scenario's plans, which
    /// is what lets a divergent replay swap the tail's failure pattern.
    /// A lazy broadcast has one per undelivered destination instead
    /// ([`ShardState::checkpoint`] exports those).
    pub(crate) fn to_canon(at: u64, key: EventKey, ev: &SPending) -> Option<CanonEvent> {
        match *ev {
            SPending::Deliver { to, from, msg } => Some(CanonEvent::One {
                at,
                from,
                k: key.k,
                to,
                msg,
            }),
            SPending::Broadcast { from, k0, msg } => {
                Some(CanonEvent::Broadcast { at, from, k0, msg })
            }
            SPending::Lazy(_) | SPending::Crash { .. } | SPending::Rejoin { .. } => None,
        }
    }

    pub(crate) fn from_canon(ev: &CanonEvent) -> Self {
        match *ev {
            CanonEvent::One {
                at,
                from,
                k,
                to,
                msg,
            } => SEntry::deliver(at, from, k, to, msg),
            CanonEvent::Broadcast { at, from, k0, msg } => SEntry::broadcast(at, from, k0, msg),
        }
    }
}

/// One empty barrier buffer per destination shard (`SEntry` is not
/// `Clone`, so `vec![...; n]` is unavailable).
fn fresh_buffers(shards: usize) -> Vec<Vec<SEntry>> {
    let mut v = Vec::with_capacity(shards);
    v.resize_with(shards, Vec::new);
    v
}

/// What the coordinator asks of a shard; every command first enqueues
/// the deliveries routed to the shard at the last barrier.
enum Cmd {
    /// Process local events with `at < t_end` in `(time, key)` order,
    /// at most `limit` of them; reply [`Reply::Ran`].
    Run {
        incoming: Vec<SEntry>,
        t_end: u64,
        limit: u64,
    },
    /// Report the `(time, key)` of every local event with `at < t_end`
    /// (only in an epoch the event budget may cut); reply
    /// [`Reply::Keys`].
    Keys { incoming: Vec<SEntry>, t_end: u64 },
    /// Halt stragglers and report results; reply [`Reply::Finished`].
    Finish,
    /// Capture the shard's state for a pause-time checkpoint; reply
    /// [`Reply::Checkpointed`].
    Checkpoint { incoming: Vec<SEntry> },
}

enum Reply {
    Ran(StepReport),
    Keys(Vec<(u64, EventKey)>),
    Finished(Box<ShardResult>),
    Checkpointed(Box<ShardSnap>),
}

/// One shard's post-step report: barrier-bound sends plus progress.
struct StepReport {
    /// Outgoing deliveries, indexed by destination shard.
    outgoing: Vec<Vec<SEntry>>,
    processed: u64,
    end_time: u64,
    /// Earliest event still pending in the local queue.
    next_at: Option<u64>,
    /// An upper bound on the events the local queue holds: one per
    /// entry, a batched broadcast counted as one per member, a lazy one
    /// as its undelivered destinations.
    pending: u64,
}

/// A shard's final report: its members' terminal state (results,
/// counters, client-service statistics), in member order — the state
/// vector itself, moved rather than copied.
struct ShardResult {
    procs: Vec<ProcState>,
    trace: TraceRecorder,
}

/// One shard's contribution to a pause-time checkpoint: its slice of the
/// canonical [`EngineSnap`], per member in member order.
struct ShardSnap {
    /// Machine snapshots; `None` for finished processes.
    machines: Vec<Option<MachineSnap>>,
    procs: Vec<ProcSnap>,
    /// This shard's per-sender counter vector. Only members' entries
    /// ever advance here, so merging shards element-wise by `max`
    /// reconstructs the global vector.
    counters: Vec<u64>,
    /// Pending deliveries in the local queue (broadcast descriptors are
    /// per-shard copies the snapshot's `normalize` dedupes).
    events: Vec<CanonEvent>,
    trace: TraceRecorder,
}

/// Which shard owns which process.
struct Layout {
    /// Per shard: its processes, ascending global index.
    members: Vec<Vec<u32>>,
    /// Global process index → owning shard.
    owner: Vec<u32>,
    /// Global process index → local index within its owner.
    local_of: Vec<u32>,
}

impl Layout {
    /// Deterministic balanced cluster→shard assignment: clusters sorted
    /// by size (largest first, index as tie-break) go to the currently
    /// lightest shard. Any clustering-respecting assignment yields the
    /// same run — the balance only matters for wall-clock.
    fn new(partition: &Partition, shards: usize) -> Self {
        let sizes = partition.sizes();
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        order.sort_by_key(|&c| (Reverse(sizes[c]), c));
        let mut shard_of = vec![0usize; sizes.len()];
        let mut load = vec![0usize; shards];
        for c in order {
            let s = (0..shards)
                .min_by_key(|&s| (load[s], s))
                .expect(">0 shards");
            shard_of[c] = s;
            load[s] += sizes[c];
        }
        let n = partition.n();
        let mut layout = Layout {
            members: vec![Vec::new(); shards],
            owner: vec![0; n],
            local_of: vec![0; n],
        };
        for i in 0..n {
            let s = shard_of[partition.cluster_of(ProcessId(i)).index()];
            layout.owner[i] = s as u32;
            layout.local_of[i] = layout.members[s].len() as u32;
            layout.members[s].push(i as u32);
        }
        layout
    }
}

/// A message as its deliveries at one instant share it: the sender, the
/// message, and the part of the delivery fingerprint they all share.
#[derive(Debug, Clone, Copy)]
struct Source {
    from: u32,
    msg: MsgKind,
    shared: DeliverPrefix,
}

impl Source {
    fn new(at: u64, from: u32, msg: MsgKind) -> Self {
        let shared = DeliverPrefix::new(VirtualTime::from_ticks(at), &msg);
        Source { from, msg, shared }
    }
}

/// A batched broadcast of a tick taken whole: member `g`'s delivery
/// holds sender-counter `k0 + g`.
#[derive(Debug, Clone, Copy)]
struct Batch {
    k0: u64,
    src: Source,
}

/// One delivery of a tick taken whole ([`ShardState::float_tick`]) off a
/// plain entry or a lazy broadcast — a lazy one's only if its recipient
/// was live when the window gathered it, the window holds a crash or a
/// rejoin, or it has a copy to queue: its key's sender and
/// counter value, its recipient's member index, and where its message is
/// (`slot << 2 | plain << 1 | duplicated`: the arena slot of the lazy
/// broadcast it came off, or with `plain` the slot of the plain delivery
/// it is in [`ShardState::events`]).
#[derive(Debug, Default, Clone, Copy)]
struct TickRecord {
    k: u64,
    from: u32,
    li: u32,
    src: u32,
}

/// Where a recipient is in its deliveries of a tick taken whole: member
/// `li`, at its grouped record `pos` and the tick's batched broadcast
/// `bi`, whichever sorts first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Place {
    li: u32,
    pos: u32,
    bi: u32,
}

/// A recipient paused at a delivery it would not absorb, as the pause
/// heap orders it: the delivery's key (`from`, `k`; unique in a tick)
/// and the recipient's place there.
type Paused = Reverse<(u32, u64, Place)>;

/// A shard's scratch for taking windows of ticks whole; empty between
/// windows, kept for its capacity.
#[derive(Debug, Default)]
struct TickScratch {
    /// The tick's crashes and rejoins.
    lifecycle: Vec<Handle<Kind>>,
    /// The tick's batched broadcasts, in key order once gathered.
    broadcasts: Vec<Batch>,
    /// The window's lazy broadcasts, as the queue gave them up.
    lazy: Vec<Handle<Kind>>,
    /// Per tick of the window: the deliveries its lazy broadcasts
    /// gathered for it, and how many to finished processes it skipped.
    window: Vec<Vec<TickRecord>>,
    skipped: Vec<u64>,
    /// The tick's other deliveries as gathered: its window's, then its
    /// plain entries'.
    records: Vec<TickRecord>,
    /// The same, grouped by recipient and in key order inside a group
    /// (its first `records.len()`; never shrinks).
    grouped: Vec<TickRecord>,
    /// The arena slots of the lazy broadcasts the window exhausted, freed
    /// once its deliveries are done.
    spent: Vec<u32>,
    /// The counting sort's per-member counts, then group ends.
    ends: Vec<u32>,
    /// Recipients paused at a refusal, next delivery first.
    paused: BinaryHeap<Paused>,
}

impl TickScratch {
    /// Groups the gathered records by recipient into `grouped`: a
    /// counting sort on the member index (`members` of them), after which
    /// `ends[li]` is the end of member `li`'s group. A record to a member
    /// that is `done` by now is dropped, unless its copy is still to be
    /// queued, and counted: the window gathered it while the member was
    /// live, and at its tick it is an event and nothing else. Returns how
    /// many were dropped.
    fn group(&mut self, members: usize, done: &[bool]) -> u64 {
        self.ends.clear();
        self.ends.resize(members, 0);
        let spent = |r: &TickRecord| done[r.li as usize] && r.src & 1 == 0;
        let mut dropped = 0;
        for r in &self.records {
            if spent(r) {
                dropped += 1;
            } else {
                self.ends[r.li as usize] += 1;
            }
        }
        let mut start = 0;
        for e in &mut self.ends {
            (*e, start) = (start, start + *e);
        }
        let len = self.records.len();
        if self.grouped.len() < len {
            self.grouped.resize(len, TickRecord::default());
        }
        for r in self.records.iter().filter(|r| !spent(r)) {
            let end = &mut self.ends[r.li as usize];
            self.grouped[*end as usize] = *r;
            *end += 1;
        }
        dropped
    }
}

/// A shard's scratch for scheduling a lazy broadcast
/// ([`ShardState::schedule`]); empty between broadcasts, kept for its
/// capacity.
#[derive(Debug, Default)]
struct Lanes {
    /// The destinations that are events (on a lossy network: those not
    /// lost), ascending.
    dests: Vec<u32>,
    /// On a lossy network, the fate of each of `dests`.
    fates: Vec<Fate>,
    /// The delay of each of `dests`.
    delays: Vec<u64>,
    /// The cursor's words before they are sorted, and the counting sort's
    /// counts.
    words: Vec<u64>,
    counts: Vec<u32>,
}

/// What a shard did with its ticks and deliveries.
#[cfg(test)]
#[derive(Debug, Default)]
struct Stats {
    /// Windows of ticks taken whole (module docs, "Instants").
    windows: u64,
    /// Ticks taken whole, unsorted.
    whole: u64,
    /// Ticks sorted and popped in `(time, key)` order.
    ordered: u64,
    /// Ticks taken whole that held a batched broadcast beside a single
    /// delivery.
    mixed: u64,
    /// The most batched broadcasts one tick taken whole held.
    largest: usize,
    /// Deliveries off lazy broadcasts and single entries that ticks taken
    /// whole gathered for live recipients (or for a duplicate's copy).
    gathered: u64,
    /// Deliveries of ticks taken whole that went in a recipient's run,
    /// ahead of key order (those to finished recipients included).
    in_runs: u64,
    /// Deliveries of ticks taken whole that a live recipient would not
    /// absorb, taken in key order.
    refusals: u64,
    /// Deliveries to live processes the machine absorbed, the `recv`
    /// step charged by the loop — in ticks taken whole or not.
    absorbed: u64,
    /// Deliveries to live processes stepped with a full context.
    stepped: u64,
    /// The most entries the queue ever held.
    heap_peak: usize,
}

/// One delivery to a live process as the test log holds it: `(at, who,
/// from, k, stepped)`.
#[cfg(test)]
type Logged = (u64, u32, u32, u64, bool);

/// Everything one shard owns; the run-wide inputs are borrowed from the
/// coordinator's frame (shard threads are scoped).
struct ShardState<'a> {
    id: usize,
    layout: &'a Layout,
    spec: &'a RunSpec,
    net: &'a NetIndex,
    /// The network neither loses nor duplicates: every fate is
    /// [`Fate::Deliver`], decided once here instead of per destination.
    reliable: bool,
    topo: &'a Arc<SmTopology>,
    /// One bank shared by every shard: memories are per cluster and each
    /// cluster belongs to exactly one shard, so there is no contention.
    memory: &'a MemoryBank,
    /// Per member, in member order.
    machines: Vec<Machine>,
    procs: Vec<ProcState>,
    /// Per member, whether its process has finished: `procs[li].finished`
    /// in a bit the gather of a tick reads for every delivery, where the
    /// process state is far away in memory.
    done: Vec<bool>,
    trace: TraceRecorder,
    /// The pending events, popped in `(time, key)` order — or a tick at a
    /// time, where its order cannot show.
    queue: Calendar<Kind>,
    /// The payloads of the queue's handles, lazy broadcasts' aside.
    events: Slab<SPending>,
    /// The arena of the queue's lazy broadcasts.
    cursors: Slab<Cursor>,
    /// Whether nothing observes the order inside a tick and nothing lands
    /// on the tick being processed — the run-wide preconditions for taking
    /// a tick whole (module docs, "Instants").
    ticks_float: bool,
    /// How many ticks a window taken whole spans at most:
    /// [`NetIndex::min_delay`], up to [`WINDOW_CAP`].
    window: u64,
    tick: TickScratch,
    /// Batched broadcasts resident in the queue (for [`StepReport::pending`]).
    batched: usize,
    /// Undelivered destinations of the lazy broadcasts resident in the
    /// queue (for [`StepReport::pending`]).
    undelivered: usize,
    /// The (emptied) buffers of exhausted cursors: the next lazy
    /// broadcast routed here takes one instead of allocating.
    spare: Vec<Vec<u64>>,
    /// Scratch for [`ShardState::schedule`].
    lanes: Lanes,
    #[cfg(test)]
    stats: Stats,
    /// Every delivery to a live process, in the order made (tests that
    /// switch it on).
    #[cfg(test)]
    log: Option<Vec<Logged>>,
    counters: SendCounters,
    /// Barrier-bound sends, indexed by destination shard.
    outgoing: Vec<Vec<SEntry>>,
    end_time: u64,
}

impl<'a> ShardState<'a> {
    /// Builds shard `id`: fresh, or restored from a checkpoint's engine
    /// state and its members' machines, loaded in member order (a
    /// finished member has none, and a fresh machine holds its place).
    fn build(
        id: usize,
        layout: &'a Layout,
        spec: &'a RunSpec,
        net: &'a NetIndex,
        topo: &'a Arc<SmTopology>,
        memory: &'a MemoryBank,
        resume: Option<(&EngineSnap, Vec<Option<Machine>>)>,
    ) -> Self {
        let members = &layout.members[id];
        let (resume, loaded) = resume.unzip();
        let mut loaded = loaded.into_iter().flatten();
        let machines = members
            .iter()
            .map(|&g| {
                let fresh = || Machine::build(spec, topo, g as usize);
                loaded.next().flatten().unwrap_or_else(fresh)
            })
            .collect();
        let procs: Vec<ProcState> = members
            .iter()
            .map(|&g| {
                let pid = ProcessId(g as usize);
                match resume {
                    None => ProcState::for_process(spec.seed, pid, &spec.crash_plan),
                    Some(snap) => {
                        ProcState::restore(&snap.procs[g as usize], pid, &spec.crash_plan)
                    }
                }
            })
            .collect();
        let done = procs.iter().map(|p| p.finished.is_some()).collect();
        let mut st = ShardState {
            id,
            layout,
            spec,
            net,
            reliable: net.loss_ppm() == 0 && net.dup_ppm() == 0,
            topo,
            memory,
            machines,
            procs,
            done,
            trace: match resume {
                // The resumed accumulator continues on shard 0; every
                // shard's recorder merges into one at the end.
                Some(snap) if id == 0 => TraceRecorder::resume(snap.trace_hash, snap.trace_count),
                _ => TraceRecorder::new(spec.keep_trace),
            },
            queue: Calendar::new(),
            events: Slab::new(),
            cursors: Slab::new(),
            ticks_float: net.min_delay() > 0 && !spec.keep_trace && spec.observer.is_none(),
            window: net.min_delay().min(WINDOW_CAP),
            tick: TickScratch::default(),
            batched: 0,
            undelivered: 0,
            spare: Vec::new(),
            lanes: Lanes::default(),
            #[cfg(test)]
            stats: Stats::default(),
            #[cfg(test)]
            log: None,
            counters: match resume {
                None => SendCounters::default(),
                // Every shard gets the full counter vector; only its
                // members' entries advance here.
                Some(snap) => SendCounters::from_values(snap.send_counters.clone()),
            },
            outgoing: fresh_buffers(layout.members.len()),
            end_time: 0,
        };
        if let Some(snap) = resume {
            // Checkpointed deliveries re-enter under their captured keys
            // and times (no randomness is re-drawn): point-to-point
            // events on the destination's owner, broadcast descriptors
            // on every shard (each expands one over its own members).
            for ev in &snap.events {
                match *ev {
                    CanonEvent::One { to, .. } if layout.owner[to as usize] as usize != id => {}
                    _ => st.push(SEntry::from_canon(ev)),
                }
            }
        }
        // Timed crashes and churn are not checkpointed: a resumed shard
        // re-seeds the cut's future from the *resume* plan (this is what
        // lets a diverge swap the tail's failure pattern). Triggers
        // before the cut already happened — except that a rejoin after
        // the cut fires even when its leave is already history.
        let seeded_from = resume.map_or(0, |snap| snap.at);
        let mine = |pid: ProcessId| layout.owner[pid.index()] as usize == id;
        for (pid, trig) in spec.crash_plan.iter() {
            if let CrashTrigger::AtTime(t) = trig {
                if mine(pid) && t.ticks() >= seeded_from {
                    st.push(SEntry::crash(pid, t.ticks()));
                }
            }
        }
        // Churn leaves are crashes; rejoins restart the member.
        for (pid, e) in spec.churn.iter().filter(|&(pid, _)| mine(pid)) {
            if e.leave.ticks() >= seeded_from {
                st.push(SEntry::crash(pid, e.leave.ticks()));
            }
            if let Some(r) = e.rejoin.filter(|r| r.ticks() >= seeded_from) {
                st.push(SEntry::rejoin(pid, r.ticks()));
            }
        }
        if resume.is_none() {
            // Initial steps, ascending — the global start order
            // restricted to this shard (each drains its sends before the
            // next process starts, like the conductor's initial bursts).
            // A resumed shard's machines took theirs in the original leg.
            for li in 0..st.machines.len() {
                st.dispatch(li, Input::Start);
            }
        }
        st
    }

    fn members(&self) -> &'a [u32] {
        &self.layout.members[self.id]
    }

    /// Queues a pending event other than a lazy broadcast (those are
    /// [`ShardState::schedule`]d).
    fn push(&mut self, entry: SEntry) {
        let kind = match entry.ev {
            SPending::Deliver { .. } => Kind::Deliver,
            SPending::Broadcast { .. } => {
                self.batched += 1;
                Kind::Broadcast
            }
            SPending::Crash { .. } | SPending::Rejoin { .. } => Kind::Lifecycle,
            SPending::Lazy(_) => unreachable!("lazy broadcasts are scheduled"),
        };
        let slot = self.events.insert(entry.ev);
        self.enqueue_handle(entry.at, entry.key, slot, kind);
    }

    fn enqueue_handle(&mut self, at: u64, key: EventKey, slot: u32, kind: Kind) {
        self.queue.push(at, key, slot, kind);
        #[cfg(test)]
        {
            self.stats.heap_peak = self.stats.heap_peak.max(self.queue.len());
        }
    }

    /// Routes one outbox item: fates, delays and keys are computed here,
    /// on the sender's shard (they are functions of the sender's local
    /// history), then the delivery goes to the local queue or a barrier
    /// buffer.
    fn route(&mut self, from: ProcessId, item: OutItem) {
        let n = self.layout.owner.len();
        match item {
            OutItem::One(o) => self.route_one(from, o.to, o.msg, o.sent_at),
            OutItem::Broadcast {
                msg,
                sent_at,
                stride,
            } => {
                // Whole end to end either way: one local queue entry plus
                // one descriptor per *other shard*. Per-destination
                // fates resolve lazily wherever the descriptor lands.
                let k0 = self.counters.take(from, n as u64);
                let from = from.index() as u32;
                // A batch is read whole in the tick it lands in, which is
                // the order `n` single entries would have had only if
                // they all land at one instant and nothing its deliveries
                // trigger can land at that instant too — so a zero
                // delay, like a sampled one or spaced sends, goes
                // destination by destination.
                let same_instant = self.net.constant_broadcast_delay();
                match same_instant.filter(|&d| d > 0 && stride == 0) {
                    Some(d) => {
                        let at = sent_at + d;
                        for (s, buf) in self.outgoing.iter_mut().enumerate() {
                            if s != self.id {
                                buf.push(SEntry::broadcast(at, from, k0, msg));
                            }
                        }
                        self.push(SEntry::broadcast(at, from, k0, msg));
                    }
                    None => {
                        // Nothing of it lands sooner than this, which is
                        // all the coordinator needs of a descriptor in
                        // transit; the shard it lands on keys it exactly.
                        let at = sent_at + self.net.min_delay();
                        let key = EventKey::deliver(ProcessId(from as usize), k0, ProcessId(0));
                        for s in 0..self.outgoing.len() {
                            let cursor = Cursor {
                                from,
                                k0,
                                msg,
                                base: sent_at,
                                stride,
                                order: self.spare.pop().unwrap_or_default(),
                            };
                            if s == self.id {
                                self.schedule(cursor);
                            } else {
                                let ev = SPending::Lazy(Box::new(cursor));
                                self.outgoing[s].push(Keyed { at, key, ev });
                            }
                        }
                    }
                }
            }
        }
    }

    /// Takes a lazy broadcast into this shard's queue: resolves the fate
    /// and delivery time of each of the shard's own members (the same
    /// per-message functions [`ShardState::send`] evaluates: a fate per
    /// destination with [`NetIndex::fate_of`], then the survivors' delays
    /// in one [`NetIndex::delays_of`] call, so wherever this runs it
    /// computes what `n` single sends would have), sorts the survivors
    /// into delivery order, puts the cursor in the arena and enqueues the
    /// broadcast under its first survivor.
    fn schedule(&mut self, mut cursor: Cursor) {
        let (net, seed, members) = (self.net, self.spec.seed, self.members());
        let from = ProcessId(cursor.from as usize);
        let mut lanes = std::mem::take(&mut self.lanes);
        let Lanes {
            dests,
            fates,
            delays,
            words,
            counts,
        } = &mut lanes;
        // The destinations that are events, and (on a lossy network) the
        // fate of each.
        fates.clear();
        let dests: &[u32] = if self.reliable {
            members
        } else {
            dests.clear();
            for &g in members {
                let (to, k) = (ProcessId(g as usize), cursor.k0 + u64::from(g));
                let fate = net.fate_of(seed, from, to, k);
                if fate != Fate::Lost {
                    fates.push(fate);
                    dests.push(g);
                }
            }
            dests
        };
        net.delays_of(seed, from, cursor.k0, dests, delays);
        for (i, (&g, &delay)) in dests.iter().zip(delays.iter()).enumerate() {
            let sent_at = u64::from(g) * cursor.stride;
            let offset = sent_at + delay;
            if offset > Cursor::MAX_OFFSET {
                let (to, k) = (ProcessId(g as usize), cursor.k0 + u64::from(g));
                self.send(from, to, k, cursor.msg, cursor.base + sent_at);
                continue;
            }
            words.push(Cursor::pack(offset, g, fates.get(i) == Some(&Fate::Dup)));
        }
        Cursor::sort_descending(words, &mut cursor.order, counts);
        words.clear();
        self.lanes = lanes;
        match cursor.next_key() {
            Some((at, key)) => {
                self.undelivered += cursor.order.len();
                let slot = self.cursors.insert(cursor);
                self.enqueue_handle(at, key, slot, Kind::Lazy);
            }
            None => self.spare.push(cursor.order),
        }
    }

    /// One message: the sender's next counter value fixes its fate, its
    /// delay, and (if duplicated) its copy's extra delay.
    fn route_one(&mut self, from: ProcessId, to: ProcessId, msg: MsgKind, sent_at: u64) {
        let k = self.counters.take(from, 1);
        self.send(from, to, k, msg, sent_at);
    }

    fn send(&mut self, from: ProcessId, to: ProcessId, k: u64, msg: MsgKind, sent_at: u64) {
        let fate = self.net.fate_of(self.spec.seed, from, to, k);
        if fate == Fate::Lost {
            return; // consumed the counter, routes nothing
        }
        let at = sent_at + self.net.delay_of(self.spec.seed, from, to, k);
        self.enqueue(from.index() as u32, to.index() as u32, k, at, msg);
        if fate == Fate::Dup {
            self.enqueue(
                from.index() as u32,
                to.index() as u32,
                k,
                self.dup_at(at, from, to, k),
                msg,
            );
        }
    }

    /// When the copy of a duplicated message lands: it shares the
    /// original's key; its extra delay is a fresh sample of the link
    /// class, so it is >= the lookahead.
    fn dup_at(&self, at: u64, from: ProcessId, to: ProcessId, k: u64) -> u64 {
        at + self.net.dup_extra_of(self.spec.seed, from, to, k)
    }

    fn enqueue(&mut self, from: u32, to: u32, k: u64, at: u64, msg: MsgKind) {
        let entry = SEntry::deliver(at, from, k, to, msg);
        let dest = self.layout.owner[to as usize] as usize;
        if dest == self.id {
            self.push(entry);
        } else {
            self.outgoing[dest].push(entry);
        }
    }

    /// The fate of a batched broadcast's copy to member `g`.
    fn fate(&self, from: u32, k0: u64, g: u32) -> Fate {
        if self.reliable {
            return Fate::Deliver;
        }
        let (from, to) = (ProcessId(from as usize), ProcessId(g as usize));
        self.net
            .fate_of(self.spec.seed, from, to, k0 + u64::from(g))
    }

    /// Those of this shard's members a batched broadcast actually
    /// reaches: lost destinations are never events.
    fn survivors(&self, from: u32, k0: u64) -> impl Iterator<Item = u32> + '_ {
        (self.members().iter().copied()).filter(move |&g| self.fate(from, k0, g) != Fate::Lost)
    }

    /// Runs one machine step with a freshly assembled context, then
    /// routes the resulting progress (sends, termination records).
    fn dispatch(&mut self, li: usize, input: Input) {
        let me = ProcessId(self.members()[li] as usize);
        let memory = self.memory.memory_of(self.topo.partition(), me);
        let mut ctx = self.procs[li].ctx(me, self.spec, memory, &mut self.trace);
        let sm = &mut self.machines[li];
        let progress = match input {
            Input::Start => sm.start(&mut ctx),
            Input::Deliver(msg) => sm.on_msg(msg, &mut ctx),
            Input::End(halt) => sm.halt(halt, &mut ctx),
        };
        let (result, mut outbox) = match progress {
            Progress::NeedMsg => return,
            Progress::Sent(outbox) => (None, outbox),
            Progress::Decided(decision, outbox) => (Some(Ok(decision)), outbox),
            Progress::Halted(halt, outbox) => (Some(Err(halt)), outbox),
        };
        for item in outbox.drain(..) {
            self.route(me, item);
        }
        match result {
            // Hand the drained buffer back: the next step's sends reuse
            // its capacity instead of allocating.
            None => self.machines[li].recycle_outbox(outbox),
            Some(result) => {
                self.procs[li].finish(me, result, &mut self.trace);
                self.done[li] = true;
            }
        }
    }

    fn crash(&mut self, pid: u32, at: u64) {
        let li = self.layout.local_of[pid as usize] as usize;
        if self.procs[li].finished.is_some() {
            return;
        }
        let who = ProcessId(pid as usize);
        self.trace
            .record(VirtualTime::from_ticks(at), TraceEvent::Crash { who });
        self.procs[li].on_crash_event(at);
        self.dispatch(li, Input::End(Halt::Crashed));
    }

    /// Restarts a churned member — exactly the conductor's fresh seat:
    /// fresh machine (fresh mailbox, original proposal), reset runtime
    /// state, rejoin-domain coin stream; metric counters persist.
    fn rejoin(&mut self, pid: u32, at: u64) {
        let li = self.layout.local_of[pid as usize] as usize;
        // A process that decided before its scheduled leave ignored the
        // leave; it ignores the rejoin too.
        if !matches!(self.procs[li].finished, Some((Err(Halt::Crashed), _))) {
            return;
        }
        let who = ProcessId(pid as usize);
        self.trace
            .record(VirtualTime::from_ticks(at), TraceEvent::Rejoin { who });
        self.machines[li] = Machine::build(self.spec, self.topo, pid as usize);
        self.procs[li].rejoin(rejoin_coin_seed(self.spec.seed), who, at);
        self.done[li] = false;
        self.dispatch(li, Input::Start);
    }

    /// Pops and processes local events with `at < t_end` in `(time,
    /// key)` order, at most `limit` of them. The count and `end_time`
    /// advance for every event — including deliveries to
    /// already-finished processes — exactly like the conductor's main
    /// loop. Nothing processed here can schedule inside the window
    /// (several shards: the lookahead; one shard: it pops the queue as it
    /// goes), so popping directly is the whole-window order.
    ///
    /// Ticks whose order cannot show are taken whole instead, a window
    /// of them at a time ([`ShardState::float_window`]; module docs,
    /// "Instants").
    fn run(&mut self, t_end: u64, limit: u64) -> StepReport {
        let mut processed: u64 = 0;
        while processed < limit {
            if let Some(at) = self.queue.open(t_end) {
                if self.tick_floats(limit - processed) {
                    let w_end = at.saturating_add(self.window).min(t_end);
                    processed += self.float_window(at, w_end);
                    continue;
                }
                #[cfg(test)]
                {
                    self.stats.ordered += 1;
                }
            }
            let e = match self.queue.first(t_end) {
                Some((at, h)) if h.kind == Kind::Lazy => self.pop_lazy(at, h.slot),
                Some(_) => {
                    let (at, h) = self.queue.pop().expect("first() found it");
                    let ev = self.events.take(h.slot);
                    Keyed {
                        at,
                        key: h.key(),
                        ev,
                    }
                }
                None => break,
            };
            let before = processed;
            match e.ev {
                SPending::Deliver { to, from, msg } => {
                    processed += 1;
                    let li = self.layout.local_of[to as usize] as usize;
                    let src = Source::new(e.at, from, msg);
                    self.take(e.at, li, &src, e.key.k, false, false);
                }
                SPending::Crash { pid } => {
                    processed += 1;
                    self.crash(pid, e.at);
                }
                SPending::Rejoin { pid } => {
                    processed += 1;
                    self.rejoin(pid, e.at);
                }
                SPending::Broadcast { from, k0, msg } => {
                    // Member order is key order, and nothing else sorts
                    // inside a broadcast's consecutive keys. A budget that
                    // runs out inside it ends the run there.
                    self.batched -= 1;
                    let src = Source::new(e.at, from, msg);
                    for (li, &g) in self.members().iter().enumerate() {
                        if processed == limit {
                            break;
                        }
                        let fate = self.fate(from, k0, g);
                        if fate != Fate::Lost {
                            let k = k0 + u64::from(g);
                            self.take(e.at, li, &src, k, fate == Fate::Dup, false);
                            processed += 1;
                        }
                    }
                }
                SPending::Lazy(_) => unreachable!("pop_lazy yields single deliveries"),
            }
            if processed > before {
                self.end_time = self.end_time.max(e.at);
            }
        }
        self.report(processed)
    }

    /// Delivers `src`'s message (sender-counter value `k`) at `at` to
    /// member `li` — the one delivery routine of the loop — and returns
    /// whether it was taken. A finished member's delivery is an event and
    /// nothing else. (Crashed processes are finished too — a crash event
    /// halts the machine in the same dispatch — so one check covers the
    /// conductor's `finished || crashed[]` pair.) A live member's gets the
    /// fingerprint and the accounting the conductor does around a
    /// delivery burst, and is applied: one that cannot reach the cluster's
    /// memory the machine absorbs without a context
    /// ([`Machine::absorb_inert`], the first half of its `on_msg`), and the
    /// other half, the `recv` entry step, is charged here
    /// ([`ofa_scenario::ProcAccount::step`]): a step-indexed crash that
    /// fires there halts the process, as `on_msg` does when its
    /// `begin_recv` fails.
    /// Any other delivery steps the machine. The machine is asked first,
    /// which changes nothing (it, the trace and the process's accounting
    /// are disjoint), so that with `inert_only` a delivery it will not
    /// absorb is left alone — nothing recorded, charged or queued — and
    /// `false` comes back: a recipient's run through a tick pauses there.
    /// A duplicated delivery's copy is queued after it.
    fn take(
        &mut self,
        at: u64,
        li: usize,
        src: &Source,
        k: u64,
        dup: bool,
        inert_only: bool,
    ) -> bool {
        debug_assert_eq!(self.done[li], self.procs[li].finished.is_some());
        if !self.done[li] {
            let msg = Msg {
                from: ProcessId(src.from as usize),
                kind: src.msg,
            };
            let absorbed = self.machines[li].absorb_inert(msg);
            if inert_only && !absorbed {
                return false;
            }
            let who = ProcessId(self.members()[li] as usize);
            let at_time = VirtualTime::from_ticks(at);
            (self.trace).record_delivery(src.shared, at_time, who, msg.from, msg.kind);
            self.procs[li].on_delivered(at, self.spec.costs.recv_cost);
            #[cfg(test)]
            {
                self.stats.absorbed += u64::from(absorbed);
                self.stats.stepped += u64::from(!absorbed);
                if let Some(log) = &mut self.log {
                    log.push((at, who.index() as u32, src.from, k, !absorbed));
                }
            }
            if !absorbed {
                self.dispatch(li, Input::Deliver(msg));
            } else if let Err(halt) = self.procs[li].account.step() {
                self.dispatch(li, Input::End(halt));
            }
        }
        // After the delivery, not before: queue order is `(at, key)`
        // whatever the push order.
        if dup {
            self.push_copy(at, src.from, k, self.members()[li], src.msg);
        }
        true
    }

    /// Queues the copy of the duplicated delivery `(from, k)` to `g` at
    /// `at`, as a per-destination send would have queued it: key reused,
    /// fresh link-class extra delay (positive, as every delay is where
    /// a broadcast is batched or a tick taken whole).
    fn push_copy(&mut self, at: u64, from: u32, k: u64, g: u32, msg: MsgKind) {
        let (sender, to) = (ProcessId(from as usize), ProcessId(g as usize));
        let then = self.dup_at(at, sender, to, k);
        self.push(SEntry::deliver(then, from, k, g, msg));
    }

    /// Takes the next destination off the lazy broadcast that is the
    /// queue's next event, as the plain delivery it stands for. The
    /// broadcast stays in the queue, re-keyed to the destination after it,
    /// until none is left and its cursor goes back to the pool; a
    /// duplicated destination's copy is queued as the delivery pops.
    fn pop_lazy(&mut self, at: u64, slot: u32) -> SEntry {
        let cursor = &mut self.cursors[slot];
        let next = cursor.order.pop().expect("resident cursors are not empty");
        let (_, to, dup) = cursor.unpack(next);
        let (from, k, msg) = (cursor.from, cursor.k0 + u64::from(to), cursor.msg);
        match cursor.next_key() {
            Some((then, key)) => self.queue.rekey_next(then, key),
            None => {
                self.queue.pop();
                self.spare.push(self.cursors.take(slot).order);
            }
        }
        self.undelivered -= 1;
        if dup {
            self.push_copy(at, from, k, to, msg);
        }
        SEntry::deliver(at, from, k, to, msg)
    }

    /// Whether the window that opens at the tick [`Calendar::open`] just
    /// opened can be taken whole with `budget` events left to run (module
    /// docs, "Instants"): the run's order inside a tick cannot show and
    /// nothing lands inside the window being processed, and the budget
    /// cannot run out inside it — it covers every event the shard
    /// holds.
    fn tick_floats(&self, budget: u64) -> bool {
        self.ticks_float && self.pending() <= budget
    }

    /// Takes the window of ticks `[at, w_end)` whole (module docs,
    /// "Instants"), and returns its event count. Its lazy broadcasts are
    /// gathered first, each in one visit ([`ShardState::gather_window`]);
    /// then its ticks are taken in order, each with its own crashes,
    /// rejoins, batched broadcasts and plain deliveries
    /// ([`ShardState::float_tick`]). Nothing the window processes lands
    /// inside it, and nothing of it outlives this call. A shard holding
    /// no lazy broadcast has nothing to gather: its window is the one
    /// tick at `at`.
    #[inline(never)]
    fn float_window(&mut self, at: u64, w_end: u64) -> u64 {
        let mut t = std::mem::take(&mut self.tick);
        let gather = self.undelivered > 0;
        let w_end = if gather { w_end } else { at + 1 };
        let width = (w_end - at) as usize;
        if t.window.len() < width {
            t.window.resize_with(width, Vec::new);
        }
        t.skipped.clear();
        t.skipped.resize(width, 0);
        if gather {
            // A rejoin inside the window can revive a finished recipient,
            // so the gather keeps what it would skip while the window
            // holds one.
            let mut lifecycle = false;
            let pick = |h: &Handle<Kind>| {
                lifecycle |= h.kind == Kind::Lifecycle;
                h.kind == Kind::Lazy
            };
            self.queue.take_where(w_end, pick, &mut t.lazy);
            self.gather_window(at, w_end, !lifecycle, &mut t);
        }
        #[cfg(test)]
        {
            self.stats.windows += 1;
        }
        let mut count = 0;
        let mut next = self.queue.next_at().filter(|&n| n < w_end);
        for dt in 0..width {
            let tick = at + dt as u64;
            let handles = if next == Some(tick) {
                self.queue.open(w_end);
                let handles = self.queue.take_tick();
                next = self.queue.next_at().filter(|&n| n < w_end);
                handles
            } else if t.window[dt].is_empty() && t.skipped[dt] == 0 {
                continue;
            } else {
                Vec::new()
            };
            std::mem::swap(&mut t.records, &mut t.window[dt]);
            let taken = t.skipped[dt] + self.float_tick(tick, handles, &mut t);
            std::mem::swap(&mut t.records, &mut t.window[dt]);
            // A tick of broadcasts all lost here holds no event.
            if taken > 0 {
                count += taken;
                self.end_time = self.end_time.max(tick);
            }
        }
        for slot in t.spent.drain(..) {
            self.spare.push(self.cursors.take(slot).order);
        }
        self.tick = t;
        count
    }

    /// Gathers the destinations of the window `[at, w_end)` off its lazy
    /// broadcasts (`t.lazy`): each broadcast's run at the end of its
    /// order, in one visit, into the records of the tick each lands at
    /// (`t.window`), the broadcast re-queued once under its next
    /// destination, past the window. With `skip_finished`, those to
    /// finished processes are only counted (`t.skipped`): events and
    /// nothing else, unless a duplicated one's copy is still to be
    /// queued.
    fn gather_window(&mut self, at: u64, w_end: u64, skip_finished: bool, t: &mut TickScratch) {
        let local_of = &self.layout.local_of;
        let lazy = std::mem::take(&mut t.lazy);
        // The window's broadcasts are far apart in memory, and most of
        // them have not been read since the last window: reading the next
        // destinations of a few of them first, in a loop of independent
        // loads, has the memory fetch them side by side rather than one
        // after the other in the gather below (`consensus-split` about
        // 5 % faster, in 75 of 98 alternating pairs, 2-vCPU VM).
        for batch in lazy.chunks(TOUCH_BATCH) {
            let touched = (batch.iter()).fold(0, |acc, h| {
                acc ^ self.cursors[h.slot].order.last().copied().unwrap_or(0)
            });
            std::hint::black_box(touched);
            for h in batch {
                let cursor = &mut self.cursors[h.slot];
                let src = h.slot << 2;
                // Offsets from `first` on land in the window, until `end`.
                let (first, end) = (at - cursor.base, w_end - cursor.base);
                let mut rest = cursor.order.len();
                while let Some(&w) = cursor.order[..rest].last() {
                    let offset = w >> 32;
                    if offset >= end {
                        break;
                    }
                    rest -= 1;
                    let dt = (offset - first) as usize;
                    let (g, dup) = ((w as u32) >> 1, w & 1 == 1);
                    let li = local_of[g as usize];
                    if skip_finished && self.done[li as usize] && !dup {
                        t.skipped[dt] += 1;
                        continue;
                    }
                    t.window[dt].push(TickRecord {
                        k: cursor.k0 + u64::from(g),
                        from: cursor.from,
                        li,
                        src: src | u32::from(dup),
                    });
                }
                let run = cursor.order.len() - rest;
                debug_assert!(run > 0, "a cursor is queued under its next destination");
                cursor.order.truncate(rest);
                self.undelivered -= run;
                match cursor.next_key() {
                    Some((then, key)) => self.queue.push(then, key, h.slot, Kind::Lazy),
                    None => t.spent.push(h.slot),
                }
            }
        }
        t.lazy = lazy;
        t.lazy.clear();
    }

    /// Takes the tick at `at` of a window whole, step by step as the
    /// module docs ("Instants") list them — its `handles` (no lazy
    /// broadcast among them) and the records its window gathered for it
    /// (`t.records`) — and returns its event count, those the gather
    /// skipped aside.
    fn float_tick(&mut self, at: u64, handles: Vec<Handle<Kind>>, t: &mut TickScratch) -> u64 {
        // Crashes and rejoins sort before every delivery of their tick.
        t.lifecycle
            .extend(handles.iter().filter(|h| h.kind == Kind::Lifecycle));
        t.lifecycle.sort_unstable_by_key(|h| h.key());
        for h in t.lifecycle.drain(..) {
            match self.events.take(h.slot) {
                SPending::Crash { pid } => self.crash(pid, at),
                SPending::Rejoin { pid } => self.rejoin(pid, at),
                _ => unreachable!("a lifecycle handle holds a crash or a rejoin"),
            }
        }
        let mut count = self.gather_tick(at, &handles, t);
        t.broadcasts.sort_unstable_by_key(|b| (b.src.from, b.k0));
        let members = self.procs.len();
        count += t.group(members, &self.done);
        let len = t.ends.last().map_or(0, |&end| end as usize);
        #[cfg(test)]
        {
            let s = &mut self.stats;
            s.whole += 1;
            s.gathered += len as u64;
            s.largest = s.largest.max(t.broadcasts.len());
            let single = handles.iter().any(|h| h.kind == Kind::Deliver);
            s.mixed += u64::from(single && !t.broadcasts.is_empty());
        }
        // Every member reads the broadcasts; without any, only the
        // recipients of records have deliveries.
        let (mut li, mut pos) = (0, 0);
        while li < members {
            if t.broadcasts.is_empty() {
                let Some(r) = t.grouped[..len].get(pos) else {
                    break;
                };
                li = r.li as usize;
            }
            let end = t.ends[li] as usize;
            if end - pos > 1 {
                t.grouped[pos..end].sort_unstable_by_key(|r| (r.from, r.k));
            }
            let place = Place {
                li: li as u32,
                pos: pos as u32,
                bi: 0,
            };
            count += self.tick_run(at, t, place, false);
            (li, pos) = (li + 1, end);
        }
        while let Some(Reverse((.., place))) = t.paused.pop() {
            count += self.tick_run(at, t, place, true);
        }
        for h in handles.iter().filter(|h| h.kind == Kind::Deliver) {
            self.events.take(h.slot);
        }
        t.records.clear();
        t.broadcasts.clear();
        self.queue.recycle(handles);
        count
    }

    /// Gathers the tick at `at`'s own deliveries (its `handles`) into
    /// `t.broadcasts` and `t.records`, and returns how many other events
    /// it holds: its crashes and rejoins.
    fn gather_tick(&mut self, at: u64, handles: &[Handle<Kind>], t: &mut TickScratch) -> u64 {
        let local_of = &self.layout.local_of;
        let mut others = 0;
        for h in handles {
            match h.kind {
                Kind::Deliver => {
                    // Its payload stays in the slab until the tick is done.
                    let SPending::Deliver { to, from, .. } = self.events[h.slot] else {
                        unreachable!("a delivery handle holds a delivery")
                    };
                    t.records.push(TickRecord {
                        k: h.key().k,
                        from,
                        li: local_of[to as usize],
                        src: h.slot << 2 | 2,
                    });
                }
                Kind::Broadcast => self.gather_broadcast(at, h.slot, t),
                Kind::Lifecycle => others += 1,
                Kind::Lazy => unreachable!("a window gathers its lazy broadcasts first"),
            }
        }
        others
    }

    /// Takes the batched broadcast in `slot` into the tick at `at`.
    // Out of line: inlined, it slowed the gather's cursor loop by about 5 %
    // on `consensus-split`, which has no batched broadcast (2-vCPU VM).
    #[inline(never)]
    fn gather_broadcast(&mut self, at: u64, slot: u32, t: &mut TickScratch) {
        let SPending::Broadcast { from, k0, msg } = self.events.take(slot) else {
            unreachable!("a broadcast handle holds a broadcast")
        };
        self.batched -= 1;
        let src = Source::new(at, from, msg);
        t.broadcasts.push(Batch { k0, src });
    }

    /// Member `p.li`'s run through its deliveries of the tick at `at` from
    /// `p` on — its grouped records up to its group's end and the tick's
    /// batched broadcasts, merged in key order, lost ones skipped — and
    /// returns how many it took. It takes them for as long as it absorbs
    /// them and is paused under the first it would not; with `refused`,
    /// the first is the one it was paused at, and is taken whatever its
    /// machine says. On a reliable network the rest of a finished
    /// member's deliveries are counted at once: those are events and
    /// nothing else. (An unreliable one still resolves each fate, since a
    /// duplicate's copy is queued even for a finished recipient.)
    fn tick_run(&mut self, at: u64, t: &mut TickScratch, mut p: Place, mut refused: bool) -> u64 {
        let li = p.li as usize;
        let g = self.members()[li];
        let end = t.ends[li];
        let mut taken = 0;
        loop {
            if self.reliable && self.done[li] {
                let rest = (t.broadcasts.len() - p.bi as usize) + (end - p.pos) as usize;
                #[cfg(test)]
                {
                    self.stats.in_runs += rest as u64;
                }
                return taken + rest as u64;
            }
            let batch =
                (t.broadcasts.get(p.bi as usize)).map(|b| (b.src.from, b.k0 + u64::from(g)));
            let record = (p.pos < end).then(|| {
                let r = &t.grouped[p.pos as usize];
                (r.from, r.k)
            });
            let from_batch = match (batch, record) {
                (None, None) => return taken,
                (Some(b), Some(r)) => b < r,
                (b, _) => b.is_some(),
            };
            // A broadcast's source by reference: copying the `Batch` out
            // cost `consensus-fastpath` about 15 % (2-vCPU VM).
            let (k, dup, record_src);
            let src = if from_batch {
                let b = &t.broadcasts[p.bi as usize];
                let fate = self.fate(b.src.from, b.k0, g);
                if fate == Fate::Lost {
                    p.bi += 1;
                    continue;
                }
                (k, dup) = (b.k0 + u64::from(g), fate == Fate::Dup);
                &b.src
            } else {
                let r = t.grouped[p.pos as usize];
                (k, dup) = (r.k, r.src & 1 == 1);
                record_src = self.record_source(at, &r);
                &record_src
            };
            if !self.take(at, li, src, k, dup, !refused) {
                t.paused.push(Reverse((src.from, k, p)));
                return taken;
            }
            #[cfg(test)]
            {
                self.stats.refusals += u64::from(refused);
                self.stats.in_runs += u64::from(!refused);
            }
            refused = false;
            taken += 1;
            if from_batch {
                p.bi += 1;
            } else {
                p.pos += 1;
            }
        }
    }

    /// The message of a gathered record of the tick at `at`: off the lazy
    /// broadcast or out of the plain entry it names.
    fn record_source(&self, at: u64, r: &TickRecord) -> Source {
        let slot = r.src >> 2;
        let msg = if r.src & 2 == 0 {
            self.cursors[slot].msg
        } else {
            match self.events[slot] {
                SPending::Deliver { msg, .. } => msg,
                _ => unreachable!("a plain record names a delivery"),
            }
        };
        Source::new(at, r.from, msg)
    }

    /// The `(time, key)` of every local event with `at < t_end`, without
    /// consuming them.
    fn keys(&self, t_end: u64) -> Vec<(u64, EventKey)> {
        let mut keys = Vec::new();
        for (at, h) in self.queue.iter().filter(|&(at, _)| at < t_end) {
            if h.kind == Kind::Lazy {
                let cursor = &self.cursors[h.slot];
                let sender = ProcessId(cursor.from as usize);
                let inside = cursor.remaining().take_while(|&(at, ..)| at < t_end);
                keys.extend(inside.map(|(at, g, _)| {
                    let to = ProcessId(g as usize);
                    (at, EventKey::deliver(sender, cursor.k0 + u64::from(g), to))
                }));
                continue;
            }
            match self.events[h.slot] {
                SPending::Broadcast { from, k0, .. } => {
                    let sender = ProcessId(from as usize);
                    keys.extend(self.survivors(from, k0).map(|g| {
                        let to = ProcessId(g as usize);
                        (at, EventKey::deliver(sender, k0 + u64::from(g), to))
                    }));
                }
                _ => keys.push((at, h.key())),
            }
        }
        keys
    }

    /// [`StepReport::pending`]: an upper bound on the events the queue
    /// holds.
    fn pending(&self) -> u64 {
        let fan_out = self.members().len().saturating_sub(1);
        (self.queue.len() + self.batched * fan_out + self.undelivered) as u64
    }

    fn report(&mut self, processed: u64) -> StepReport {
        let shards = self.outgoing.len();
        StepReport {
            outgoing: std::mem::replace(&mut self.outgoing, fresh_buffers(shards)),
            processed,
            end_time: self.end_time,
            next_at: self.queue.next_at(),
            pending: self.pending(),
        }
    }

    fn accept(&mut self, incoming: Vec<SEntry>) {
        for entry in incoming {
            match entry.ev {
                SPending::Lazy(cursor) => self.schedule(*cursor),
                _ => self.push(entry),
            }
        }
    }

    fn take_trace(&mut self) -> TraceRecorder {
        std::mem::replace(&mut self.trace, TraceRecorder::new(false))
    }

    /// Captures this shard's slice of a pause-time checkpoint. The
    /// coordinator only asks at an epoch barrier, so the barrier buffers
    /// are empty and every pending event sits in the local queue.
    fn checkpoint(&mut self) -> Box<ShardSnap> {
        debug_assert!(
            self.outgoing.iter().all(Vec::is_empty),
            "checkpoint with unrouted barrier sends"
        );
        let machines = self
            .machines
            .iter()
            .zip(&self.procs)
            .map(|(m, p)| p.finished.is_none().then(|| m.snapshot()))
            .collect();
        let mut events = Vec::new();
        for (at, h) in self.queue.iter() {
            if h.kind == Kind::Lazy {
                // What is left of a lazy broadcast leaves as the single
                // deliveries it stands for — copies of duplicated ones
                // included, which a plain delivery no longer spawns.
                let cursor = &self.cursors[h.slot];
                let &Cursor { from, k0, msg, .. } = cursor;
                for (at, to, dup) in cursor.remaining() {
                    let k = k0 + u64::from(to);
                    let one = |at| CanonEvent::One {
                        at,
                        from,
                        k,
                        to,
                        msg,
                    };
                    events.push(one(at));
                    if dup {
                        let (from, to) = (ProcessId(from as usize), ProcessId(to as usize));
                        events.push(one(self.dup_at(at, from, to, k)));
                    }
                }
                continue;
            }
            match self.events[h.slot] {
                // A descriptor none of whose local members survive is
                // not a pending event here; some shard that owns a
                // survivor exports it.
                SPending::Broadcast { from, k0, .. }
                    if self.survivors(from, k0).next().is_none() => {}
                ref ev => events.extend(SEntry::to_canon(at, h.key(), ev)),
            }
        }
        Box::new(ShardSnap {
            machines,
            procs: self.procs.iter().map(ProcState::snapshot).collect(),
            counters: self.counters.values().to_vec(),
            events,
            trace: self.take_trace(),
        })
    }

    /// Stops the stragglers (ascending member order — the conductor's
    /// final baton round restricted to this shard) and hands over the
    /// results.
    fn finish_run(&mut self) -> Box<ShardResult> {
        for li in 0..self.machines.len() {
            if self.procs[li].finished.is_none() {
                self.dispatch(li, Input::End(Halt::Stopped));
            }
        }
        Box::new(ShardResult {
            procs: std::mem::take(&mut self.procs),
            trace: self.take_trace(),
        })
    }

    fn exec(&mut self, cmd: Cmd) -> Reply {
        match cmd {
            Cmd::Run {
                incoming,
                t_end,
                limit,
            } => {
                self.accept(incoming);
                Reply::Ran(self.run(t_end, limit))
            }
            Cmd::Keys { incoming, t_end } => {
                self.accept(incoming);
                Reply::Keys(self.keys(t_end))
            }
            Cmd::Finish => Reply::Finished(self.finish_run()),
            Cmd::Checkpoint { incoming } => {
                self.accept(incoming);
                Reply::Checkpointed(self.checkpoint())
            }
        }
    }
}

/// The coordinator: shard 0 lives on the calling thread, shards `1..W`
/// each on a scoped thread behind a channel pair.
struct Coordinator<'a> {
    local: ShardState<'a>,
    remote: Vec<(mpsc::Sender<Cmd>, mpsc::Receiver<Reply>)>,
    /// Per shard: deliveries routed to it at the last barrier.
    pending_in: Vec<Vec<SEntry>>,
    /// Per shard: its queue's earliest event.
    next_at: Vec<Option<u64>>,
    /// Per shard: [`StepReport::pending`].
    heap_bound: Vec<u64>,
    events_processed: u64,
    end_time: u64,
}

impl Coordinator<'_> {
    /// One lockstep round: shard `s` executes `cmd(s)`; replies come
    /// back in shard order. Remote shards are commanded first, so they
    /// work while this thread runs shard 0.
    fn round(&mut self, mut cmd: impl FnMut(usize, Vec<SEntry>) -> Cmd) -> Vec<Reply> {
        let mut cmd = |s: usize| cmd(s, std::mem::take(&mut self.pending_in[s]));
        for (s, (tx, _)) in self.remote.iter().enumerate() {
            tx.send(cmd(s + 1)).expect("shard alive");
        }
        let mut replies = Vec::with_capacity(1 + self.remote.len());
        replies.push(self.local.exec(cmd(0)));
        for (_, rx) in &self.remote {
            replies.push(rx.recv().expect("shard alive"));
        }
        replies
    }

    fn absorb(&mut self, s: usize, reply: Reply) {
        let Reply::Ran(rep) = reply else {
            unreachable!("a run round replies Ran");
        };
        for (dest, batch) in rep.outgoing.into_iter().enumerate() {
            self.pending_in[dest].extend(batch);
        }
        self.next_at[s] = rep.next_at;
        self.heap_bound[s] = rep.pending;
        self.events_processed += rep.processed;
        self.end_time = self.end_time.max(rep.end_time);
    }

    /// The epoch loop. Returns `true` if it paused at `stop_at` (every
    /// pending event is at or past the cut, none of those has been
    /// processed), `false` at quiescence or budget exhaustion.
    fn run_epochs(&mut self, max_events: u64, lookahead: u64, stop_at: Option<u64>) -> bool {
        let layout = self.local.layout;
        let shards = layout.members.len();
        while self.events_processed < max_events {
            // Earliest pending event anywhere — in a queue or in a
            // barrier buffer about to be routed — and an upper bound on
            // how many there are.
            let mut t_next = self.next_at.iter().flatten().copied().min();
            let mut bound: u64 = self.heap_bound.iter().sum();
            for (s, buf) in self.pending_in.iter().enumerate() {
                for entry in buf {
                    t_next = Some(t_next.map_or(entry.at, |t| t.min(entry.at)));
                    bound += match entry.ev {
                        SPending::Broadcast { .. } | SPending::Lazy(_) => {
                            layout.members[s].len() as u64
                        }
                        _ => 1,
                    };
                }
            }
            let Some(t0) = t_next else {
                return false; // quiescent
            };
            let cut = stop_at.unwrap_or(u64::MAX);
            if t0 >= cut {
                return true;
            }
            // Never let a shard touch an event at or past the cut.
            let t_end = t0.saturating_add(lookahead).min(cut);
            let remaining = max_events - self.events_processed;
            let limits = if shards == 1 || bound <= remaining {
                // The budget cannot cut between shards: there is only
                // one (its own prefix is the global one), or everything
                // pending fits.
                vec![remaining; shards]
            } else {
                // The budget may bind inside this epoch: cut it at the
                // globally `remaining`-th event in (time, key) order.
                let replies = self.round(|_, incoming| Cmd::Keys { incoming, t_end });
                let mut keys: Vec<(u64, EventKey, usize)> = Vec::new();
                for (s, reply) in replies.into_iter().enumerate() {
                    let Reply::Keys(shard_keys) = reply else {
                        unreachable!("a keys round replies Keys");
                    };
                    keys.extend(shard_keys.into_iter().map(|(at, key)| (at, key, s)));
                }
                keys.sort_unstable();
                let mut limits = vec![0u64; shards];
                let cut = usize::try_from(remaining).unwrap_or(usize::MAX);
                for &(_, _, s) in keys.iter().take(cut) {
                    limits[s] += 1;
                }
                limits
            };
            let replies = self.round(|s, incoming| Cmd::Run {
                incoming,
                t_end,
                limit: limits[s],
            });
            for (s, reply) in replies.into_iter().enumerate() {
                self.absorb(s, reply);
            }
        }
        false
    }

    /// Pauses at a barrier: each shard routes its barrier buffer onto
    /// its queue and exports its slice of the canonical snapshot.
    fn checkpoint(&mut self, at: u64, memory: &MemoryBank) -> EngineSnap {
        let layout = self.local.layout;
        let n = layout.owner.len();
        let mut machines = vec![None; n];
        let mut procs: Vec<Option<ProcSnap>> = vec![None; n];
        let mut send_counters = vec![0u64; n];
        let mut events = Vec::new();
        let mut trace = TraceRecorder::new(false);
        let replies = self.round(|_, incoming| Cmd::Checkpoint { incoming });
        for (members, reply) in layout.members.iter().zip(replies) {
            let Reply::Checkpointed(ss) = reply else {
                unreachable!("a checkpoint round replies Checkpointed");
            };
            for ((&g, m), p) in members.iter().zip(ss.machines).zip(ss.procs) {
                machines[g as usize] = m;
                procs[g as usize] = Some(p);
            }
            // Each sender's counter advances only on its owner shard:
            // element-wise max over the shards' vectors is the global
            // one.
            for (global, c) in send_counters.iter_mut().zip(ss.counters) {
                *global = (*global).max(c);
            }
            events.extend(ss.events);
            trace.merge(ss.trace);
        }
        let mut snap = EngineSnap {
            at,
            events_processed: self.events_processed,
            end_time: self.end_time,
            trace_hash: trace.hash(),
            trace_count: trace.count(),
            send_counters,
            machines,
            procs: procs
                .into_iter()
                .map(|p| p.expect("every process checkpointed"))
                .collect(),
            memory: (memory.checkpoint().into_iter())
                .map(|(cells, proposes)| ClusterCells {
                    decided: (cells.into_iter())
                        .map(|(s, w)| (s.instance, s.round, s.phase, w))
                        .collect(),
                    proposes,
                })
                .collect(),
            events,
        };
        snap.normalize();
        snap
    }

    /// Quiescent or budget exhausted: stops the stragglers and merges
    /// the shards' results.
    fn finish(&mut self, memory: &MemoryBank) -> RawOutcome {
        let layout = self.local.layout;
        let n = layout.owner.len();
        // Every slot is overwritten: the layout covers each process once.
        let mut results = vec![(Err(Halt::Stopped), 0u64); n];
        let mut counters = vec![CounterSnapshot::default(); n];
        let mut service = ServiceStats::new();
        let mut trace: Option<TraceRecorder> = None;
        let replies = self.round(|_, _| Cmd::Finish);
        for (members, reply) in layout.members.iter().zip(replies) {
            let Reply::Finished(res) = reply else {
                unreachable!("a finish round replies Finished");
            };
            // Sums, maxima and a multiset hash: merge order is moot, and
            // a lone shard's recorder (which may have kept its events)
            // passes through whole.
            for (&g, p) in members.iter().zip(&res.procs) {
                results[g as usize] = p.finished.expect("all machines have terminated");
                counters[g as usize] = p.account.counters;
                service.merge(&p.account.service);
            }
            match &mut trace {
                None => trace = Some(res.trace),
                Some(t) => t.merge(res.trace),
            }
        }
        let trace = trace.expect("at least one shard");
        let end_time = self
            .end_time
            .max(results.iter().map(|(_, c)| *c).max().unwrap_or(0));
        RawOutcome {
            results,
            counters,
            service,
            trace_hash: trace.hash(),
            trace_events: trace.into_events(),
            events_processed: self.events_processed,
            end_time,
            sm_objects: memory.total_objects(),
            sm_proposes: memory.total_proposes(),
        }
    }
}

/// Where a resumed leg starts: the decoded engine state (its `machines`
/// taken out) and, per process, its machine built and loaded from it —
/// `None` for a finished process, which is never dispatched again.
pub(crate) struct Resume {
    pub(crate) snap: EngineSnap,
    pub(crate) machines: Vec<Option<Machine>>,
}

/// How a [`conduct_sharded`] leg ended: ran to completion, or paused at
/// the requested virtual-time cut with the full engine state captured.
pub(crate) enum LegResult {
    Done(RawOutcome),
    Paused(Box<EngineSnap>),
}

/// Runs one *leg* of a declarative-body execution on `shards` shards of
/// the event loop: optionally restored from a canonical checkpoint
/// (`resume`), optionally pausing at a virtual-time cut (`stop_at`). The
/// cut contract: every event scheduled strictly before `stop_at` is
/// processed, none at `>= stop_at` is. A leg that reaches quiescence (or
/// the event budget) before the cut completes normally — exactly like
/// the straight-through run.
///
/// The caller (the backend's shard resolution) guarantees that more than
/// one shard comes with a non-zero [`NetIndex::min_delay`] lookahead and
/// no trace retention; one shard needs neither.
///
/// # Panics
///
/// Panics if the spec's body is [`Body::Custom`](ofa_scenario::Body) —
/// custom bodies are blocking code; route them to the thread conductor —
/// or if a resume's shape does not match the spec (wrong process
/// count), which the backend's snapshot check refuses before any leg
/// starts.
pub(crate) fn conduct_sharded(
    spec: RunSpec,
    net: &NetIndex,
    shards: usize,
    resume: Option<Resume>,
    stop_at: Option<u64>,
) -> LegResult {
    let n = spec.partition.n();
    assert_eq!(
        spec.proposals.len(),
        n,
        "need one proposal per process (got {} for n={n})",
        spec.proposals.len()
    );
    let (resume, mut loaded) = match resume {
        Some(Resume { snap, machines }) => (Some(snap), machines),
        None => (None, Vec::new()),
    };
    let resume = resume.as_ref();
    if let Some(snap) = resume {
        assert_eq!(loaded.len(), n, "snapshot is for a different n");
        assert_eq!(snap.procs.len(), n, "snapshot is for a different n");
    }
    let shards = shards.clamp(1, spec.partition.m());
    // A lone shard has nobody to wait for: its window is unbounded.
    let lookahead = if shards == 1 {
        u64::MAX
    } else {
        net.min_delay()
    };
    assert!(lookahead > 0, "several shards need a positive lookahead");

    let layout = Layout::new(&spec.partition, shards);
    let topo = Arc::new(SmTopology::new(spec.partition.clone()));
    let bank = match resume {
        None => MemoryBank::for_partition(topo.partition()),
        Some(snap) => {
            let clusters: Vec<_> = (snap.memory.iter())
                .map(|c| {
                    let cells = c.decided.iter();
                    let decided =
                        cells.map(|&(i, r, ph, word)| (Slot::in_instance(i, r, ph), word));
                    (decided.collect(), c.proposes)
                })
                .collect();
            MemoryBank::restore(&clusters)
        }
    };
    let (layout, spec, topo, bank) = (&layout, &spec, &topo, &bank);
    // A resumed shard takes its own members' loaded machines.
    let mut own = |id: usize| {
        let members = layout.members[id].iter();
        resume.map(|snap| (snap, members.map(|&g| loaded[g as usize].take()).collect()))
    };
    // Every shard builds itself (and takes its initial steps) on the
    // thread that will drive it.
    let build =
        move |id: usize, resume| ShardState::build(id, layout, spec, net, topo, bank, resume);

    std::thread::scope(|scope| {
        let remote = (1..shards)
            .map(|id| {
                let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
                let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
                let resume = own(id);
                scope.spawn(move || {
                    let mut st = build(id, resume);
                    let _ = reply_tx.send(Reply::Ran(st.report(0)));
                    // Ends when the coordinator drops its sender.
                    for cmd in cmd_rx {
                        if reply_tx.send(st.exec(cmd)).is_err() {
                            return;
                        }
                    }
                });
                (cmd_tx, reply_rx)
            })
            .collect();
        let mut all = Coordinator {
            local: build(0, own(0)),
            remote,
            pending_in: fresh_buffers(shards),
            next_at: vec![None; shards],
            heap_bound: vec![0; shards],
            events_processed: resume.map_or(0, |s| s.events_processed),
            end_time: resume.map_or(0, |s| s.end_time),
        };
        let started = Reply::Ran(all.local.report(0));
        all.absorb(0, started);
        for s in 1..shards {
            let started = all.remote[s - 1].1.recv().expect("shard alive");
            all.absorb(s, started);
        }
        if all.run_epochs(spec.max_events, lookahead, stop_at) {
            let at = stop_at.expect("only a requested cut pauses");
            LegResult::Paused(Box::new(all.checkpoint(at, bank)))
        } else {
            LegResult::Done(all.finish(bank))
        }
    })
}

#[cfg(test)]
mod tests {
    use crate::Sim;
    use ofa_core::{Algorithm, Bit};
    use ofa_scenario::{Backend, CrashPlan, DelayModel, Engine, Outcome, Scenario};
    use ofa_topology::{Partition, ProcessId};

    /// The core-count guard is a perf heuristic; on a small CI box it
    /// would silently resolve to one shard and these
    /// equivalence tests would exercise nothing. Pin a big count —
    /// determinism never depends on the host's parallelism.
    fn unlock_cores() {
        crate::override_available_cores(64);
    }

    /// Every observable except `engine_used` (which legitimately records
    /// different engines / worker counts) must match.
    fn assert_same_run(a: &Outcome, b: &Outcome) {
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.halts, b.halts);
        assert_eq!(a.crashed, b.crashed);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.per_process, b.per_process);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.latest_decision_time, b.latest_decision_time);
        assert_eq!(a.sm_proposes, b.sm_proposes);
        assert_eq!(a.sm_objects, b.sm_objects);
    }

    #[test]
    fn parallel_matches_event_driven_on_sampled_delays() {
        unlock_cores();
        for seed in 0..4 {
            let scenario = Scenario::new(Partition::even(12, 4), Algorithm::LocalCoin)
                .proposals_split(5)
                .seed(seed);
            let seq = Sim.run(&scenario.clone().event_driven());
            let par = Sim.run(&scenario.parallel(3));
            assert_eq!(par.engine_used, Some(Engine::ParallelEvent { workers: 3 }));
            assert_same_run(&seq, &par);
        }
    }

    #[test]
    fn parallel_matches_on_the_broadcast_batch_path() {
        unlock_cores();
        // Constant delay: broadcasts cross the barrier as one descriptor
        // per shard and expand per member — outcomes must still be
        // bit-identical to the sequential single-entry expansion.
        let scenario = Scenario::new(Partition::even(18, 6), Algorithm::CommonCoin)
            .proposals_split(7)
            .delay(DelayModel::Constant(800))
            .seed(2);
        let seq = Sim.run(&scenario.clone().event_driven());
        let par = Sim.run(&scenario.parallel(4));
        assert_eq!(par.engine_used, Some(Engine::ParallelEvent { workers: 4 }));
        assert_same_run(&seq, &par);
    }

    #[test]
    fn parallel_is_deterministic_across_worker_counts() {
        unlock_cores();
        let part = Partition::even(10, 5);
        let queues = (0..10)
            .map(|i| vec![ofa_core::Payload::from_bytes(format!("c{i}").as_bytes()).expect("fits")])
            .collect::<Vec<_>>();
        let scenario = Scenario::new(part, Algorithm::CommonCoin)
            .replicated_log(Algorithm::CommonCoin, 2, queues)
            .seed(11);
        let two = Sim.run(&scenario.clone().parallel(2));
        let five = Sim.run(&scenario.clone().parallel(5));
        let again = Sim.run(&scenario.parallel(5));
        assert_eq!(two.engine_used, Some(Engine::ParallelEvent { workers: 2 }));
        assert_eq!(five.engine_used, Some(Engine::ParallelEvent { workers: 5 }));
        assert_same_run(&two, &five);
        assert_same_run(&five, &again);
    }

    #[test]
    fn parallel_matches_under_crashes_and_budget_cut() {
        unlock_cores();
        use ofa_scenario::VirtualTime;
        let plan = CrashPlan::new()
            .crash_at_step(ProcessId(1), 6)
            .crash_at_round(ProcessId(4), 2)
            .crash_at_time(ProcessId(2), VirtualTime::from_ticks(1_500));
        // A tight event budget exercises the epoch-cut path: the
        // parallel engine must stop after exactly the same event prefix.
        for max_events in [50u64, 500, 5_000] {
            let scenario = Scenario::new(Partition::even(9, 3), Algorithm::LocalCoin)
                .proposals_split(4)
                .crashes(plan.clone())
                .max_events(max_events)
                .seed(9);
            let seq = Sim.run(&scenario.clone().event_driven());
            let par = Sim.run(&scenario.parallel(3));
            assert_same_run(&seq, &par);
        }
    }

    #[test]
    fn unparallelizable_scenarios_fall_back_observably() {
        unlock_cores();
        // One cluster => one shard: nothing to parallelize.
        let single = Sim.run(
            &Scenario::new(Partition::single_cluster(6), Algorithm::LocalCoin)
                .proposals_split(3)
                .parallel(4),
        );
        assert_eq!(single.engine_used, Some(Engine::EventDriven));
        // Zero minimum delay: no conservative lookahead window.
        let zero = Sim.run(
            &Scenario::new(Partition::even(6, 3), Algorithm::LocalCoin)
                .proposals_split(3)
                .delay(DelayModel::Uniform { lo: 0, hi: 40 })
                .parallel(4),
        );
        assert_eq!(zero.engine_used, Some(Engine::EventDriven));
        // Trace retention: only one shard records events in dispatch order.
        let trace = Sim.run(
            &Scenario::new(Partition::even(6, 3), Algorithm::LocalCoin)
                .proposals_split(3)
                .keep_trace()
                .parallel(4),
        );
        assert_eq!(trace.engine_used, Some(Engine::EventDriven));
        assert!(trace.events.is_some());
    }

    #[test]
    fn headline_crash_pattern_on_the_parallel_engine() {
        unlock_cores();
        // Fig 1 right, 6 of 7 crashed: the lone majority-cluster
        // survivor still decides — across shards.
        let mut plan = CrashPlan::new();
        for i in [0usize, 1, 3, 4, 5, 6] {
            plan = plan.crash_at_start(ProcessId(i));
        }
        let scenario = Scenario::new(Partition::fig1_right(), Algorithm::LocalCoin)
            .proposals_split(2)
            .crashes(plan)
            .seed(3);
        let seq = Sim.run(&scenario.clone().event_driven());
        let par = Sim.run(&scenario.parallel(3));
        assert_eq!(par.engine_used, Some(Engine::ParallelEvent { workers: 3 }));
        assert!(par.all_correct_decided);
        assert_eq!(par.deciders(), 1);
        assert_eq!(par.crashed.len(), 6);
        assert_same_run(&seq, &par);
    }

    #[test]
    fn observers_fire_on_the_parallel_engine() {
        unlock_cores();
        use ofa_core::InvariantChecker;
        use std::sync::Arc;
        let checker = Arc::new(InvariantChecker::new());
        let out = Sim.run(
            &Scenario::new(Partition::even(10, 2), Algorithm::LocalCoin)
                .proposals_split(5)
                .observer(checker.clone())
                .seed(11)
                .parallel(2),
        );
        assert_eq!(out.engine_used, Some(Engine::ParallelEvent { workers: 2 }));
        assert!(out.all_correct_decided);
        checker.assert_clean();
        assert_eq!(checker.decisions().len(), 10);
    }

    /// Builds `scenario`'s one-shard loop (the event-driven engine's),
    /// runs it for at most `limit` events, and hands `check` the shard and
    /// its report.
    fn one_shard(
        scenario: &Scenario,
        limit: u64,
        check: impl FnOnce(&mut super::ShardState<'_>, super::StepReport),
    ) {
        one_shard_logged(scenario, limit, false, check);
    }

    /// [`one_shard`], with the shard's delivery log switched on if `log`.
    fn one_shard_logged(
        scenario: &Scenario,
        limit: u64,
        log: bool,
        check: impl FnOnce(&mut super::ShardState<'_>, super::StepReport),
    ) {
        use super::{Layout, ShardState};
        use crate::backend::RunSpec;
        use ofa_core::sm::SmTopology;
        use ofa_sharedmem::MemoryBank;
        use std::sync::Arc;
        let spec = RunSpec::from_scenario(scenario);
        let net = scenario.network.compile(&scenario.partition);
        let layout = Layout::new(&spec.partition, 1);
        let topo = Arc::new(SmTopology::new(spec.partition.clone()));
        let bank = MemoryBank::for_partition(topo.partition());
        let mut shard = ShardState::build(0, &layout, &spec, &net, &topo, &bank, None);
        if log {
            shard.log = Some(Vec::new());
        }
        let report = shard.run(u64::MAX, limit);
        check(&mut shard, report);
    }

    /// The shard's `(absorbed, stepped)` split, after checking that it
    /// covers every delivery to a live process exactly once.
    fn absorbed_and_stepped(shard: &super::ShardState<'_>) -> (u64, u64) {
        let delivered: u64 = (shard.procs.iter())
            .map(|p| p.account.counters.messages_delivered)
            .sum();
        let s = &shard.stats;
        assert_eq!(s.absorbed + s.stepped, delivered, "{s:?}");
        (s.absorbed, s.stepped)
    }

    /// The benchmark's cost model for the batched workloads (`cells.rs`):
    /// free sends, so a broadcast lands at one instant.
    const BATCHING_COSTS: ofa_scenario::CostModel = ofa_scenario::CostModel {
        send_cost: 0,
        recv_cost: 1,
        sm_op_cost: 10,
        coin_cost: 1,
    };

    /// Free sends and free steps: a step sends at the instant it ran, so a
    /// duplicate's copy, one constant delay after its original, lands
    /// among the broadcasts of the steps that ran at the original's
    /// instant.
    const FREE_COSTS: ofa_scenario::CostModel = ofa_scenario::CostModel {
        send_cost: 0,
        recv_cost: 0,
        sm_op_cost: 0,
        coin_cost: 0,
    };

    /// The benchmark's quick `kv-serve` cell (`cells.rs`).
    fn quick_kv_serve() -> Scenario {
        use ofa_core::{ArrivalProcess, TrafficSpec};
        let n = 40;
        let traffic = TrafficSpec {
            arrival: ArrivalProcess::Poisson { mean_gap: 125 },
            clients: 4 * n as u64,
            queue_cap: 256,
            batch_max: 256,
            batch_min: 0,
        };
        Scenario::new(Partition::even(n, 2), Algorithm::CommonCoin)
            .replicated_log_traffic(Algorithm::CommonCoin, 2, traffic)
            .delay(DelayModel::Constant(1_000))
            .costs(BATCHING_COSTS)
            .max_rounds(64)
            .seed(42)
            .coin(ofa_scenario::CoinSpec::Alternating)
            .max_events(u64::MAX)
    }

    /// The benchmark's quick `consensus-fastpath` cell (`cells.rs`).
    fn quick_consensus_fastpath() -> Scenario {
        Scenario::new(Partition::even(60, 3), Algorithm::LocalCoin)
            .proposals_all(Bit::One)
            .delay(DelayModel::Constant(1_000))
            .costs(BATCHING_COSTS)
            .max_rounds(16)
            .seed(42)
            .coin(ofa_scenario::CoinSpec::Alternating)
            .max_events(u64::MAX)
    }

    #[test]
    fn sampled_delay_broadcasts_stay_one_heap_entry_each() {
        // The CLI-default path: sampled delays and a per-send cost. Every
        // process has a few broadcasts in flight per round and each is
        // one entry, so the heap stays O(n) where per-destination
        // entries would put n² on it.
        let n = 200;
        let scenario = Scenario::new(Partition::even(n, 4), Algorithm::CommonCoin)
            .proposals_split(n / 2)
            .seed(42);
        one_shard(&scenario, u64::MAX, |shard, report| {
            assert_eq!(shard.queue.len(), 0, "the run drains");
            assert!(
                report.processed >= 3 * (n * n) as u64,
                "at least three all-to-all exchanges: {} events",
                report.processed
            );
            assert!(
                shard.stats.heap_peak <= 4 * n,
                "heap peaked at {} entries for n = {n}",
                shard.stats.heap_peak
            );
        });
    }

    #[test]
    fn quick_consensus_split_cell_stays_inside_the_calendar_ring() {
        use ofa_scenario::CoinSpec;
        // The benchmark's quick `consensus-split` cell (`cells.rs`): the
        // CLI-default network and costs. Everything it schedules lands
        // inside the ring's window, and nothing is ever scheduled before
        // the tick being taken — the overflow and the rewind are for
        // other inputs. (The full n = 1000 cell stays inside the ring
        // too.)
        let n = 60;
        let scenario = Scenario::new(Partition::even(n, 3), Algorithm::CommonCoin)
            .proposals_split(n / 2)
            .max_rounds(64)
            .seed(42)
            .coin(CoinSpec::Alternating)
            .max_events(u64::MAX);
        one_shard(&scenario, u64::MAX, |shard, report| {
            assert_eq!(shard.queue.len(), 0, "the run drains");
            assert_eq!(report.processed, 9_900);
            let stats = &shard.queue.stats;
            assert_eq!((stats.overflow_pushes, stats.rewinds), (0, 0), "{stats:?}");
            // Lazy cursors, no batched broadcast: most events go to
            // processes that have decided, and of the rest 93 % are
            // absorbed (99.85 % on the full n = 1000 cell).
            let s = &shard.stats;
            assert_eq!(s.largest, 0);
            assert_eq!(absorbed_and_stepped(shard), (1_393, 105));
            // Nothing observes the order inside a tick: every tick is
            // taken whole, in windows of up to `WINDOW_CAP` ticks (the
            // minimum delay is 500) whose lazy broadcasts are gathered
            // once each, and only the deliveries a live process would not
            // absorb go in key order — every stepped one, here. The
            // queue never makes a tick current: its ticks hold nothing
            // but lazy broadcasts, which the windows take. (The full cell
            // takes all 7 509 of its ticks whole in 236 windows and
            // gathers 2 022 032 deliveries to live processes, of which
            // 3 000 are refused.)
            assert_eq!(super::WINDOW_CAP, 32);
            assert_eq!((s.whole, s.windows, s.ordered), (2_147, 73, 0), "{s:?}");
            assert_eq!(stats.ticks, 0, "{stats:?}");
            assert_eq!((s.gathered, s.refusals), (1_502, 105), "{s:?}");
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// A cursor's counting sort orders its words exactly as the
        /// descending comparison sort does: any send spacing, delays in a
        /// narrow window or one wide enough to take the fallback, lost
        /// destinations skipped, duplicated ones flagged.
        #[test]
        fn cursor_counting_sort_equals_the_comparison_sort(
            shape in (1u32..600, 0u8..3, 0u64..2_000, 0u8..3),
            seed in proptest::prelude::any::<u64>(),
        ) {
            use super::Cursor;
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let (members, stride, lo, width) = shape;
            let mut rng = StdRng::seed_from_u64(seed);
            let stride = [0, 1, 7][stride as usize];
            // A window narrower than, near, and far wider than the
            // destination count (the last one takes the fallback).
            let hi = lo + [0, 2 * u64::from(members), 1 << 31][width as usize];
            let mut words = Vec::new();
            for g in 0..members {
                let offset = u64::from(g) * stride + rng.gen_range(lo..=hi);
                let (lost, dup) = (rng.gen_range(0u32..10) == 0, rng.gen_range(0u32..4) == 0);
                if !lost {
                    words.push(Cursor::pack(offset, g, dup));
                }
            }
            let mut want = words.clone();
            want.sort_unstable_by(|a, b| b.cmp(a));
            let (mut got, mut counts) = (Vec::new(), Vec::new());
            Cursor::sort_descending(&words, &mut got, &mut counts);
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn quick_kv_serve_cell_takes_its_instants_inert_first() {
        // The benchmark's quick `kv-serve` cell, as it is measured: no
        // kept trace, no observer, no binding budget. If a future default
        // attaches an observer or a budget rule sorts every tick, the
        // recipients' inert-first runs — the whole point of taking an
        // instant whole — are silently off; this is the alarm.
        let n = 40;
        one_shard(&quick_kv_serve(), u64::MAX, |shard, report| {
            assert_eq!(shard.queue.len(), 0, "the run drains");
            let s = &shard.stats;
            assert_eq!(s.ordered, 0, "{s:?}");
            assert!(
                s.largest >= n,
                "a round's n broadcasts land together: {s:?}"
            );
            // Every event of this cell is a batched delivery, n per
            // broadcast, and the ticks average more than half a round.
            assert_eq!(report.processed, 16_000);
            let broadcasts = report.processed / n as u64;
            assert!(
                s.whole * n as u64 <= 2 * broadcasts,
                "{broadcasts} broadcasts in {s:?}"
            );
            // Three deliveries per replica per slot can reach the
            // cluster's memory — two exchange completions and the
            // decision — and only those keep the key order.
            assert_eq!((s.refusals, s.in_runs), (240, 15_760));
            // Only those are stepped; every other delivery to a live
            // replica is absorbed (the rest reach finished ones).
            assert_eq!(absorbed_and_stepped(shard), (13_400, 240));
            // A tick is out of the queue while it is taken, so what its
            // deliveries schedule no longer sits beside it: the loop that
            // popped one broadcast at a time peaked at 139 entries here.
            // `heap_peak` counts resident entries, as it did when the
            // queue was a binary heap (which also read 120), and nothing
            // here lands past the calendar ring's span.
            assert_eq!(s.heap_peak, 120);
            let stats = &shard.queue.stats;
            assert_eq!((stats.overflow_pushes, stats.rewinds), (0, 0), "{stats:?}");
        });
    }

    #[test]
    fn quick_kv_faults_shape_takes_its_mixed_instants_whole() {
        // The quick `kv-serve` cell with 1 % duplication, as the
        // benchmark's `kv-faults` has it, and free steps: a duplicate's
        // copy lands among a round's broadcasts (under the cell's own
        // costs every step delays its sends, and no copy does — none of
        // the full `kv-faults` cell's 73 ticks holds both). Such a tick is
        // taken whole all the same, the copy read beside the broadcasts in
        // key order.
        let scenario = quick_kv_serve().dup_ppm(10_000).costs(FREE_COSTS);
        one_shard(&scenario, u64::MAX, |shard, _| {
            assert_eq!(shard.queue.len(), 0, "the run drains");
            let s = &shard.stats;
            assert_eq!(s.ordered, 0, "{s:?}");
            assert!(s.mixed > 0, "no tick held a broadcast and a copy: {s:?}");
        });
    }

    #[test]
    fn quick_consensus_fastpath_cell_orders_two_deliveries_per_process() {
        // n = 60 unanimous: each process completes two exchanges, and the
        // decisions reach processes that already decided.
        one_shard(&quick_consensus_fastpath(), u64::MAX, |shard, report| {
            assert_eq!(report.processed, 10_800);
            let s = &shard.stats;
            assert_eq!((s.refusals, s.in_runs), (120, 10_680));
            let (absorbed, stepped) = absorbed_and_stepped(shard);
            assert_eq!(stepped, 120);
            assert!(absorbed > 0);
        });
    }

    /// The tick tests' network: free sends and `delay`. A sampled delay
    /// four ticks wide puts several lazy deliveries per process in a tick
    /// (700 ticks: a window spans [`WINDOW_CAP`](super::WINDOW_CAP)
    /// ticks; 5: it spans the minimum delay); under a constant one every
    /// broadcast is batched, and then the steps are free too
    /// ([`FREE_COSTS`]).
    fn narrow_ticks(
        partition: Partition,
        algorithm: Algorithm,
        seed: u64,
        delay: DelayModel,
    ) -> Scenario {
        let n = partition.n();
        let costs = match delay {
            DelayModel::Constant(_) => FREE_COSTS,
            _ => BATCHING_COSTS,
        };
        Scenario::new(partition, algorithm)
            .proposals_split(n / 2)
            .delay(delay)
            .costs(costs)
            .max_rounds(24)
            .seed(seed)
    }

    /// [`narrow_ticks`]' sampled delays, the minimum above and below the
    /// window cap.
    const LONG: DelayModel = DelayModel::Uniform { lo: 700, hi: 703 };
    const SHORT: DelayModel = DelayModel::Uniform { lo: 5, hi: 8 };

    /// Where the global order is observable no tick is taken whole: a kept
    /// trace, an observer, and a budget that runs out inside the first
    /// instant get every delivery in `(time, key)` order — and the inert
    /// ones among them are still absorbed, in that order. A budget that
    /// runs out later sorts the tick it ends in. On batched broadcasts and
    /// on lazy ones alike.
    #[test]
    fn observable_orders_take_no_tick_whole() {
        use ofa_core::InvariantChecker;
        use std::sync::Arc;
        let lazy = narrow_ticks(Partition::even(24, 4), Algorithm::CommonCoin, 5, LONG);
        for (net, base, first) in [
            // The 31st broadcast of the 60 at the first instant.
            ("batched", quick_consensus_fastpath(), 60 * 30 + 7),
            // The first tick holds about a quarter of the 576 start
            // broadcasts' deliveries.
            ("lazy", lazy, 24 * 24 / 8),
        ] {
            let mut all = 0;
            one_shard(&base, u64::MAX, |shard, report| {
                let s = &shard.stats;
                assert!(s.whole > 0 && s.ordered == 0, "{net}: {s:?}");
                all = report.processed;
            });
            let observed = base.clone().observer(Arc::new(InvariantChecker::new()));
            for (what, scenario, limit) in [
                ("kept trace", base.clone().keep_trace(), u64::MAX),
                ("observer", observed, u64::MAX),
                ("budget", base.clone(), first),
                ("later budget", base.clone(), all / 2 + 7),
            ] {
                one_shard(&scenario, limit, |shard, report| {
                    let s = &shard.stats;
                    assert!(s.ordered > 0, "{net}, {what}: {s:?}");
                    assert_eq!(report.processed, limit.min(all), "{net}, {what}");
                    if what != "later budget" {
                        let runs = (s.whole, s.in_runs, s.refusals);
                        assert_eq!(runs, (0, 0, 0), "{net}, {what}: {s:?}");
                    }
                    let (absorbed, stepped) = absorbed_and_stepped(shard);
                    assert!(absorbed > stepped, "{net}, {what}: {absorbed} {stepped}");
                });
            }
        }
    }

    /// What one shard did on `scenario`: its delivery log, event count,
    /// end time, trace hash and tick counts.
    fn logged_run(scenario: &Scenario) -> (Vec<super::Logged>, u64, u64, u64, (u64, u64)) {
        let mut out = None;
        one_shard_logged(scenario, u64::MAX, true, |shard, report| {
            let log = shard.log.take().expect("switched on");
            let ticks = (shard.stats.whole, shard.stats.ordered);
            let hash = shard.finish_run().trace.hash();
            out = Some((log, report.processed, report.end_time, hash, ticks));
        });
        out.expect("ran")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A tick taken whole against the same tick popped in key order
        /// (a kept trace makes the order observable): on batched
        /// broadcasts under a constant delay, and on lazy ones under a
        /// sampled delay narrow enough that a tick holds several
        /// deliveries per process — taken a window of ticks at a time,
        /// the window as wide as the cap or as the minimum delay — with
        /// loss, duplication (whose copies share ticks with broadcasts),
        /// crashes and a rejoin inside a window, every process receives
        /// the same deliveries in the same order, the deliveries it
        /// refuses to absorb — the only ones that can reach its cluster's
        /// memory — go in global `(time, key)` order, and the event count,
        /// end time and trace hash agree.
        #[test]
        fn a_tick_taken_whole_keeps_each_process_order_and_the_refusals_key_order(
            shape in (
                0usize..3,
                proptest::prelude::any::<bool>(),
                0usize..3,
                0u8..4,
                0u64..1_000,
            ),
        ) {
            let (p, local, net, faults, seed) = shape;
            let partition = [
                Partition::even(24, 4),
                Partition::from_sizes(&[1, 1, 12, 3, 3, 5, 2, 2]).expect("valid sizes"),
                Partition::even(40, 20),
            ][p].clone();
            let n = partition.n();
            let algorithm = if local { Algorithm::LocalCoin } else { Algorithm::CommonCoin };
            let delay = [DelayModel::Constant(700), LONG, SHORT][net].clone();
            let base = narrow_ticks(partition, algorithm, seed, delay);
            let lo = base.network.min_delay();
            let at = ofa_scenario::VirtualTime::from_ticks;
            let scenario = match faults {
                0 => base,
                1 => base.loss_ppm(20_000),
                2 => base.dup_ppm(30_000),
                // The leave is a window of its own; the start steps send at
                // 10 (the shared-memory propose), and the rejoin lands two
                // ticks into the window their first deliveries open.
                _ => base
                    .crashes(
                        CrashPlan::new()
                            .crash_at_step(ProcessId(seed as usize % n), 2 + seed % 40)
                            .crash_at_time(ProcessId((seed as usize + 7) % n), at(2 * lo + 1 + seed % 3)),
                    )
                    .churn(ofa_scenario::ChurnPlan::new().leave_rejoin(
                        ProcessId((seed as usize + 3) % n),
                        at(1),
                        at(lo + 12),
                    )),
            };
            let (whole, events, end, hash, ticks) = logged_run(&scenario);
            let (ordered, events_o, end_o, hash_o, ticks_o) = logged_run(&scenario.keep_trace());
            proptest::prop_assert!(ticks.0 > 0 && ticks.1 == 0, "{:?}", ticks);
            proptest::prop_assert!(ticks_o.0 == 0 && ticks_o.1 > 0, "{:?}", ticks_o);
            proptest::prop_assert_eq!((events, end, hash), (events_o, end_o, hash_o));
            let per_process = |log: &[super::Logged]| {
                let mut seqs = vec![Vec::new(); n];
                for &(_, who, from, k, _) in log {
                    seqs[who as usize].push((from, k));
                }
                seqs
            };
            proptest::prop_assert_eq!(per_process(&whole), per_process(&ordered));
            let refusals = |log: &[super::Logged]| -> Vec<_> {
                (log.iter().filter(|e| e.4))
                    .map(|&(at, who, from, k, _)| (at, from, k, who))
                    .collect()
            };
            let (refused, refused_o) = (refusals(&whole), refusals(&ordered));
            proptest::prop_assert!(refused.is_sorted(), "refusals out of key order");
            proptest::prop_assert_eq!(refused, refused_o);
        }
    }

    /// A process that finished before a window and rejoins at a later tick
    /// of it takes the window's deliveries from its rejoin on: the window
    /// gathered them although the process was finished when it was
    /// opened. Against the same run popped in key order.
    #[test]
    fn a_rejoin_inside_a_window_takes_the_deliveries_after_it() {
        let at = ofa_scenario::VirtualTime::from_ticks;
        let churned = ProcessId(5);
        // The start steps send at 10 (the shared-memory propose), so their
        // broadcasts land at 710–713; the window that opens at 710 holds
        // the rejoin at 712.
        let scenario = narrow_ticks(Partition::even(12, 3), Algorithm::CommonCoin, 3, LONG)
            .churn(ofa_scenario::ChurnPlan::new().leave_rejoin(churned, at(1), at(712)));
        let (whole, events, end, hash, (windows, ordered)) = {
            let mut out = None;
            one_shard_logged(&scenario, u64::MAX, true, |shard, report| {
                let log = shard.log.take().expect("switched on");
                let s = (shard.stats.windows, shard.stats.ordered);
                let hash = shard.finish_run().trace.hash();
                out = Some((log, report.processed, report.end_time, hash, s));
            });
            out.expect("ran")
        };
        assert!(
            windows > 0 && ordered == 0,
            "{windows} windows, {ordered} ordered"
        );
        let first = whole.iter().map(|e| e.0).min().expect("deliveries");
        assert_eq!(first, 710, "the window opens at the first delivery");
        let inside: Vec<_> = (whole.iter())
            .filter(|e| e.1 == churned.index() as u32 && e.0 < 710 + super::WINDOW_CAP)
            .collect();
        assert!(
            !inside.is_empty(),
            "no delivery after the rejoin inside the window"
        );
        assert!(inside.iter().all(|e| e.0 >= 712), "{inside:?}");
        let (log_o, events_o, end_o, hash_o, _) = logged_run(&scenario.keep_trace());
        assert_eq!((events, end, hash), (events_o, end_o, hash_o));
        let of = |log: &[super::Logged]| -> Vec<_> {
            (log.iter().filter(|e| e.1 == churned.index() as u32))
                .map(|&(at, _, from, k, _)| (at, from, k))
                .collect()
        };
        assert_eq!(of(&whole), of(&log_o));
    }

    #[test]
    fn a_thousand_broadcasts_at_one_instant_keep_their_fingerprint() {
        // n = 1030 broadcasts per instant. The conductor cannot reach this
        // size in a test, so the oracle is the fingerprint this scenario
        // had when the loop popped one broadcast at a time (commit
        // a51ccc8) — which also holds the folded send and delivery
        // fingerprints to the per-event ones at scale.
        let n = 1030;
        let scenario = Scenario::new(Partition::even(n, 10), Algorithm::LocalCoin)
            .proposals_all(Bit::One)
            .delay(DelayModel::Constant(1_000))
            .costs(BATCHING_COSTS)
            .max_events(u64::MAX)
            .seed(7);
        one_shard(&scenario, u64::MAX, |shard, report| {
            assert_eq!(report.processed, 3_182_700);
            assert_eq!(shard.stats.ordered, 0);
            let result = shard.finish_run();
            assert_eq!(result.trace.hash(), 0x98e4_a98d_7fa1_8910);
        });
    }

    #[test]
    fn proposal_bit_column_must_match_n() {
        unlock_cores();
        // Same contract as the other engines.
        let scenario = Scenario::new(Partition::even(4, 2), Algorithm::LocalCoin)
            .proposals(vec![Bit::One; 4])
            .parallel(2);
        assert!(Sim.run(&scenario).all_correct_decided);
    }
}
