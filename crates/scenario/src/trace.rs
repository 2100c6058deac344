//! Execution traces and replay hashes.
//!
//! Every simulator run folds its full event stream into a 64-bit
//! [`TraceRecorder::hash`] (always on, O(1) memory), so tests can assert
//! *bit-for-bit deterministic replay*: same seed ⇒ same hash. Optionally,
//! the recorder also retains the events themselves for inspection and
//! pretty-printing (the `trace_walkthrough` example).
//!
//! The hash is a **multiset** hash: each `(timestamp, event)` pair is
//! avalanched into an independent 64-bit fingerprint and the fingerprints
//! are combined with wrapping addition, so the result is independent of
//! recording *order* (but still sensitive to content, timestamps, and
//! multiplicity). That is what lets the parallel event engine keep one
//! recorder per shard and [`TraceRecorder::merge`] the partials into a
//! value bit-identical to a single-threaded recorder of the same events —
//! the "shard-merged trace hash" the engine-equivalence corpus asserts.

use crate::lanes::{self, Lanes};
use crate::VirtualTime;
use ofa_core::{Decision, Halt, MsgKind};
use ofa_topology::ProcessId;
use std::fmt;

/// One step of an execution, as recorded by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `who` handed a message to the network.
    Send {
        /// Sending process.
        who: ProcessId,
        /// Destination process.
        to: ProcessId,
        /// Payload.
        msg: MsgKind,
    },
    /// A message was delivered into `who`'s input queue.
    Deliver {
        /// Receiving process.
        who: ProcessId,
        /// Original sender.
        from: ProcessId,
        /// Payload.
        msg: MsgKind,
    },
    /// `who` invoked its cluster's consensus object.
    ClusterPropose {
        /// Invoking process.
        who: ProcessId,
        /// Round of the object's slot.
        round: u64,
        /// Phase of the object's slot.
        phase: u8,
        /// Proposed encoding.
        proposed: u64,
        /// Decided encoding.
        decided: u64,
    },
    /// `who` entered a round.
    RoundStart {
        /// The process.
        who: ProcessId,
        /// The round.
        round: u64,
    },
    /// `who` drew a coin.
    Coin {
        /// The process.
        who: ProcessId,
        /// `true` for the common coin.
        common: bool,
        /// The bit drawn (as bool).
        value: bool,
    },
    /// `who` finished with a decision.
    Decided {
        /// The process.
        who: ProcessId,
        /// Its decision.
        decision: Decision,
    },
    /// `who` halted without deciding.
    Halted {
        /// The process.
        who: ProcessId,
        /// Why.
        halt: Halt,
    },
    /// `who` crashed (trigger fired).
    Crash {
        /// The process.
        who: ProcessId,
    },
    /// `who` rejoined after a churn leave, restarting with fresh state.
    Rejoin {
        /// The process.
        who: ProcessId,
    },
}

/// A recorded event with its virtual timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// When it happened (the acting process's local clock).
    pub at: VirtualTime,
    /// What happened.
    pub event: TraceEvent,
}

impl fmt::Display for TimedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>8}] ", self.at.ticks())?;
        match self.event {
            TraceEvent::Send { who, to, msg } => write!(f, "{who} → {to}: {msg}"),
            TraceEvent::Deliver { who, from, msg } => write!(f, "{who} ⇐ {from}: {msg}"),
            TraceEvent::ClusterPropose {
                who,
                round,
                phase,
                proposed,
                decided,
            } => write!(
                f,
                "{who} CONS[{round},{phase}].propose({proposed}) = {decided}"
            ),
            TraceEvent::RoundStart { who, round } => write!(f, "{who} enters round {round}"),
            TraceEvent::Coin { who, common, value } => write!(
                f,
                "{who} {} coin = {}",
                if common { "common" } else { "local" },
                value as u8
            ),
            TraceEvent::Decided { who, decision } => write!(f, "{who} {decision}"),
            TraceEvent::Halted { who, halt } => write!(f, "{who} halted: {halt}"),
            TraceEvent::Crash { who } => write!(f, "{who} CRASHES"),
            TraceEvent::Rejoin { who } => write!(f, "{who} REJOINS"),
        }
    }
}

/// Folds events into a replay hash; optionally retains them.
#[derive(Debug)]
pub struct TraceRecorder {
    hash: u64,
    count: u64,
    keep: bool,
    events: Vec<TimedEvent>,
}

impl TraceRecorder {
    /// Creates a recorder. With `keep_events` the full trace is retained
    /// in memory; the hash is always computed.
    pub fn new(keep_events: bool) -> Self {
        TraceRecorder {
            hash: 0,
            count: 0,
            keep: keep_events,
            events: Vec::new(),
        }
    }

    /// Rebuilds a recorder mid-stream from a checkpointed accumulator
    /// (`hash`, `count`). Retained-event mode is not resumable — events
    /// before the checkpoint are gone — so the recorder is hash-only.
    pub fn resume(hash: u64, count: u64) -> Self {
        TraceRecorder {
            hash,
            count,
            keep: false,
            events: Vec::new(),
        }
    }

    /// Records one event.
    pub fn record(&mut self, at: VirtualTime, event: TraceEvent) {
        let mut h = fold(fold(BASIS, at.ticks()), discriminant_code(&event));
        let (words, len) = encode_words(&event);
        for &w in &words[..len] {
            h = fold(h, w);
        }
        self.add(finalize(h));
        if self.keep {
            self.events.push(TimedEvent { at, event });
        }
    }

    /// Records the `n` sends of one broadcast: `who` sends `msg` to
    /// `p_0 … p_{n-1}` in index order, the send to `p_j` at
    /// `at + j·stride` — exactly what `n` calls of
    /// [`TraceRecorder::record`] with those [`TraceEvent::Send`]s add
    /// (and retain), with the message encoded once and, when the sends
    /// share one timestamp, everything before the destination folded
    /// once. The `n` fingerprints are summed in one lane loop, run on the
    /// widest vector unit the CPU has, and added to the hash together.
    pub fn record_broadcast(
        &mut self,
        at: VirtualTime,
        stride: u64,
        who: ProcessId,
        n: usize,
        msg: MsgKind,
    ) {
        let sum = lanes::widest(SendSum {
            at: at.ticks(),
            stride,
            who: who.index() as u64,
            n: n as u64,
            code: encode_msg(&msg),
        });
        self.hash = self.hash.wrapping_add(sum);
        self.count += n as u64;
        if self.keep {
            self.events.extend((0..n).map(|j| TimedEvent {
                at: VirtualTime::from_ticks(at.ticks() + j as u64 * stride),
                event: TraceEvent::Send {
                    who,
                    to: ProcessId(j),
                    msg,
                },
            }));
        }
    }

    /// Records the delivery of `msg` from `from` into `who`'s input queue
    /// at `at` — exactly what [`TraceRecorder::record`] adds (and
    /// retains) for that [`TraceEvent::Deliver`] — given the part of the
    /// fingerprint every delivery of `msg` at `at` shares.
    pub fn record_delivery(
        &mut self,
        shared: DeliverPrefix,
        at: VirtualTime,
        who: ProcessId,
        from: ProcessId,
        msg: MsgKind,
    ) {
        debug_assert_eq!(
            shared,
            DeliverPrefix::new(at, &msg),
            "a prefix of another delivery"
        );
        let h = fold(fold(shared.head, who.index() as u64), from.index() as u64);
        self.add(finalize(fold(h, shared.code)));
        if self.keep {
            self.events.push(TimedEvent {
                at,
                event: TraceEvent::Deliver { who, from, msg },
            });
        }
    }

    /// Adds one event's fingerprint order-independently (multiset hash).
    fn add(&mut self, fingerprint: u64) {
        self.hash = self.hash.wrapping_add(fingerprint);
        self.count += 1;
    }

    /// Folds another recorder's partial trace into this one. Because the
    /// hash is a multiset hash, merging shard-local recorders in any
    /// order yields the same hash a single recorder of all events would
    /// have — the parallel engine's per-shard traces merge losslessly.
    ///
    /// Intended for recorders that observed *disjoint shares of one
    /// run*. The hash and count are always exact; retained events are
    /// simply concatenated, **not** re-sorted into timestamp order (the
    /// parallel engine never retains events — scenarios that keep a
    /// trace run on a sequential engine), and a `keep_events` mismatch
    /// between the two recorders keeps only the self side's events
    /// while the count still covers both.
    pub fn merge(&mut self, other: TraceRecorder) {
        self.hash = self.hash.wrapping_add(other.hash);
        self.count += other.count;
        if self.keep {
            self.events.extend(other.events);
        }
    }

    /// The replay hash of everything recorded so far.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Number of events recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The retained events (empty unless `keep_events` was set).
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Consumes the recorder, returning the retained events.
    pub fn into_events(self) -> Vec<TimedEvent> {
        self.events
    }
}

/// What the deliveries of one message at one instant share — every
/// destination of a same-instant broadcast: the timestamp and event kind
/// already folded into the fingerprint state, and the message already
/// encoded. [`TraceRecorder::record_delivery`] finishes it per
/// destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliverPrefix {
    head: u64,
    code: u64,
}

impl DeliverPrefix {
    /// The shared part of delivering `msg` at `at`.
    pub fn new(at: VirtualTime, msg: &MsgKind) -> Self {
        DeliverPrefix {
            head: fold(fold(BASIS, at.ticks()), DELIVER_CODE),
            code: encode_msg(msg),
        }
    }
}

/// The fingerprints of one broadcast's `n` sends, summed: `who` sends
/// the message encoded as `code` to `p_j` at `at + j·stride`. The lane
/// loop of [`TraceRecorder::record_broadcast`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SendSum {
    pub(crate) at: u64,
    pub(crate) stride: u64,
    pub(crate) who: u64,
    pub(crate) n: u64,
    pub(crate) code: u64,
}

impl Lanes for SendSum {
    type Output = u64;

    #[inline(always)]
    fn run(self) -> u64 {
        let SendSum {
            at,
            stride,
            who,
            n,
            code,
        } = self;
        let head = |ticks| fold(fold(fold(BASIS, ticks), SEND_CODE), who);
        let send = |head, j| finalize(fold(fold(head, j), code));
        let mut sum = 0u64;
        if stride == 0 {
            let shared = head(at);
            for j in 0..n {
                sum = sum.wrapping_add(send(shared, j));
            }
        } else {
            for j in 0..n {
                sum = sum.wrapping_add(send(head(at + j * stride), j));
            }
        }
        sum
    }
}

// The per-event fingerprint: FNV-1a lifted from bytes to whole words
// (one xor-multiply per 64 bits, high bits fed back), then a
// splitmix-style finalizer so the recorder's commutative sum still
// separates near-identical events. Billions of events are hashed per
// large run, so this is on the simulator's hottest path — and every
// recording entry point is written over these three items, so there is
// one definition of what an event hashes to.

/// The FNV offset basis every fingerprint starts from.
const BASIS: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn fold(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    h ^ (h >> 32)
}

#[inline]
fn finalize(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

const SEND_CODE: u64 = 1;
const DELIVER_CODE: u64 = 2;

fn discriminant_code(e: &TraceEvent) -> u64 {
    match e {
        TraceEvent::Send { .. } => SEND_CODE,
        TraceEvent::Deliver { .. } => DELIVER_CODE,
        TraceEvent::ClusterPropose { .. } => 3,
        TraceEvent::RoundStart { .. } => 4,
        TraceEvent::Coin { .. } => 5,
        TraceEvent::Decided { .. } => 6,
        TraceEvent::Halted { .. } => 7,
        TraceEvent::Crash { .. } => 8,
        TraceEvent::Rejoin { .. } => 9,
    }
}

fn encode_msg(m: &MsgKind) -> u64 {
    match *m {
        MsgKind::Phase {
            instance,
            round,
            phase,
            est,
        } => {
            let e = match est {
                None => 2u64,
                Some(b) => b.as_bool() as u64,
            };
            (instance << 32) ^ ((round << 8) | ((phase.slot_index() as u64) << 4) | e)
        }
        MsgKind::Decide { instance, value } => {
            0x8000_0000_0000_0000 | (instance << 8) | value.as_bool() as u64
        }
        MsgKind::App {
            instance,
            seq,
            payload,
        } => {
            let mut h = instance.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq;
            for &b in payload.as_bytes() {
                h = h.wrapping_mul(31).wrapping_add(b as u64);
            }
            0x4000_0000_0000_0000 | (h >> 2)
        }
    }
}

/// Encodes an event into at most 5 words without allocating (the
/// recorder folds billions of events on large runs).
fn encode_words(e: &TraceEvent) -> ([u64; 5], usize) {
    let mut words = [0u64; 5];
    let len = match *e {
        TraceEvent::Send { who, to, msg } => {
            words[..3].copy_from_slice(&[who.index() as u64, to.index() as u64, encode_msg(&msg)]);
            3
        }
        TraceEvent::Deliver { who, from, msg } => {
            words[..3].copy_from_slice(&[
                who.index() as u64,
                from.index() as u64,
                encode_msg(&msg),
            ]);
            3
        }
        TraceEvent::ClusterPropose {
            who,
            round,
            phase,
            proposed,
            decided,
        } => {
            words = [who.index() as u64, round, phase as u64, proposed, decided];
            5
        }
        TraceEvent::RoundStart { who, round } => {
            words[..2].copy_from_slice(&[who.index() as u64, round]);
            2
        }
        TraceEvent::Coin { who, common, value } => {
            words[..3].copy_from_slice(&[who.index() as u64, common as u64, value as u64]);
            3
        }
        TraceEvent::Decided { who, decision } => {
            words[..4].copy_from_slice(&[
                who.index() as u64,
                decision.value.as_bool() as u64,
                decision.round,
                decision.relayed as u64,
            ]);
            4
        }
        TraceEvent::Halted { who, halt } => {
            words[..2].copy_from_slice(&[who.index() as u64, matches!(halt, Halt::Crashed) as u64]);
            2
        }
        TraceEvent::Crash { who } | TraceEvent::Rejoin { who } => {
            words[0] = who.index() as u64;
            1
        }
    };
    (words, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofa_core::Bit;

    fn sample_events() -> Vec<(VirtualTime, TraceEvent)> {
        vec![
            (
                VirtualTime::from_ticks(1),
                TraceEvent::RoundStart {
                    who: ProcessId(0),
                    round: 1,
                },
            ),
            (
                VirtualTime::from_ticks(2),
                TraceEvent::Send {
                    who: ProcessId(0),
                    to: ProcessId(1),
                    msg: MsgKind::Decide {
                        instance: 0,
                        value: Bit::One,
                    },
                },
            ),
        ]
    }

    #[test]
    fn same_events_same_hash() {
        let mut a = TraceRecorder::new(false);
        let mut b = TraceRecorder::new(true);
        for (t, e) in sample_events() {
            a.record(t, e);
            b.record(t, e);
        }
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.count(), 2);
        assert_eq!(b.events().len(), 2);
        assert!(a.events().is_empty(), "hash-only recorder keeps nothing");
    }

    #[test]
    fn different_events_different_hash() {
        let mut a = TraceRecorder::new(false);
        let mut b = TraceRecorder::new(false);
        for (t, e) in sample_events() {
            a.record(t, e);
        }
        // Same count, different content.
        b.record(
            VirtualTime::from_ticks(1),
            TraceEvent::RoundStart {
                who: ProcessId(0),
                round: 2,
            },
        );
        b.record(
            VirtualTime::from_ticks(2),
            TraceEvent::Crash { who: ProcessId(1) },
        );
        assert_ne!(a.hash(), b.hash(), "content must matter");
        // Multiplicity matters too (multiset, not set).
        let mut c = TraceRecorder::new(false);
        let (t, e) = sample_events()[0];
        c.record(t, e);
        c.record(t, e);
        let mut d = TraceRecorder::new(false);
        d.record(t, e);
        assert_ne!(c.hash(), d.hash(), "multiplicity must matter");
    }

    #[test]
    fn hash_is_order_independent_and_shard_partials_merge() {
        // The multiset property: recording in any order — or recording
        // disjoint shares on separate recorders and merging — produces
        // the same hash as one sequential recorder.
        let mut seq = TraceRecorder::new(false);
        for (t, e) in sample_events() {
            seq.record(t, e);
        }
        let mut rev = TraceRecorder::new(false);
        for (t, e) in sample_events().into_iter().rev() {
            rev.record(t, e);
        }
        assert_eq!(seq.hash(), rev.hash(), "order must not matter");
        let mut shard_a = TraceRecorder::new(false);
        let mut shard_b = TraceRecorder::new(false);
        for (i, (t, e)) in sample_events().into_iter().enumerate() {
            if i % 2 == 0 {
                shard_a.record(t, e);
            } else {
                shard_b.record(t, e);
            }
        }
        shard_b.merge(shard_a);
        assert_eq!(seq.hash(), shard_b.hash(), "shard partials must merge");
        assert_eq!(seq.count(), shard_b.count());
    }

    /// One message of each kind, the `APP` carrying a full payload.
    fn sample_msgs() -> [MsgKind; 3] {
        let payload = ofa_core::Payload::from_bytes(&[0xA7; ofa_core::MAX_PAYLOAD]).expect("fits");
        [
            MsgKind::Phase {
                instance: 3,
                round: 2,
                phase: ofa_core::Phase::Two,
                est: None,
            },
            MsgKind::Decide {
                instance: 3,
                value: Bit::Zero,
            },
            MsgKind::App {
                instance: 3,
                seq: 5,
                payload,
            },
        ]
    }

    #[test]
    fn a_broadcast_of_sends_records_what_n_sends_record() {
        let who = ProcessId(4);
        println!("the sends are summed on {:?}", lanes::Build::widest());
        // Around each lane width the loop can be built for, and wide.
        for (n, msg) in [0, 1, 7, 8, 9, 15, 16, 17, 1000, 5003]
            .into_iter()
            .flat_map(|n| sample_msgs().map(|msg| (n, msg)))
        {
            for stride in [0, 1, 7] {
                for keep in [false, true] {
                    let mut one_by_one = TraceRecorder::new(keep);
                    for j in 0..n {
                        one_by_one.record(
                            VirtualTime::from_ticks(40 + j as u64 * stride),
                            TraceEvent::Send {
                                who,
                                to: ProcessId(j),
                                msg,
                            },
                        );
                    }
                    let mut whole = TraceRecorder::new(keep);
                    whole.record_broadcast(VirtualTime::from_ticks(40), stride, who, n, msg);
                    assert_eq!(
                        whole.hash(),
                        one_by_one.hash(),
                        "n {n} {msg:?} stride {stride}"
                    );
                    assert_eq!(whole.count(), n as u64);
                    assert_eq!(whole.events(), one_by_one.events(), "in send order");
                    assert_eq!(whole.events().len(), if keep { n } else { 0 });
                }
            }
        }
    }

    #[test]
    fn a_prefixed_delivery_records_what_a_deliver_event_records() {
        let at = VirtualTime::from_ticks(1_040);
        for msg in sample_msgs() {
            let shared = DeliverPrefix::new(at, &msg);
            for keep in [false, true] {
                let (mut plain, mut prefixed) =
                    (TraceRecorder::new(keep), TraceRecorder::new(keep));
                // One prefix serves every destination and sender.
                for (who, from) in [(0, 6), (1, 6), (6, 6), (2, 0)] {
                    let (who, from) = (ProcessId(who), ProcessId(from));
                    plain.record(at, TraceEvent::Deliver { who, from, msg });
                    prefixed.record_delivery(shared, at, who, from, msg);
                    assert_eq!(prefixed.hash(), plain.hash(), "{msg:?} {who} ⇐ {from}");
                }
                assert_eq!(prefixed.count(), 4);
                assert_eq!(prefixed.events(), plain.events());
                assert_eq!(prefixed.events().len(), if keep { 4 } else { 0 });
            }
        }
    }

    #[test]
    fn timestamp_affects_hash() {
        let mut a = TraceRecorder::new(false);
        let mut b = TraceRecorder::new(false);
        let e = TraceEvent::Crash { who: ProcessId(0) };
        a.record(VirtualTime::from_ticks(5), e);
        b.record(VirtualTime::from_ticks(6), e);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn display_is_readable() {
        let te = TimedEvent {
            at: VirtualTime::from_ticks(12),
            event: TraceEvent::Deliver {
                who: ProcessId(1),
                from: ProcessId(0),
                msg: MsgKind::Phase {
                    instance: 0,
                    round: 1,
                    phase: ofa_core::Phase::One,
                    est: Some(Bit::Zero),
                },
            },
        };
        let s = te.to_string();
        assert!(s.contains("p2 ⇐ p1"), "{s}");
        assert!(s.contains("PHASE1(1,0)"), "{s}");
    }
}
