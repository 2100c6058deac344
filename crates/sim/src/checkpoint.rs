//! The canonical checkpoint format shared by every event engine.
//!
//! A checkpoint freezes a run at a virtual-time cut `T`: every event
//! scheduled strictly before `T` has been processed, none at `>= T` has.
//! [`EngineSnap`] is the *engine-independent* encoding of everything
//! live at that cut — per-process machine snapshots, process accounting
//! (clocks, steps, coin streams, metric counters), shared-memory
//! contents, per-sender PRF send counters, the trace-hash accumulator,
//! and the pending event set in canonical [`CanonEvent`] form. Every
//! shard of the event loop (`par.rs`) exports its slice of this one
//! shape and restores from the whole, which is what lets a run paused on
//! one shard resume on several and vice versa.
//!
//! Two normalizations make the encoding canonical:
//!
//! * **Events are sorted** by `(time, sender, counter, destination)` —
//!   the same total order the shard heaps dispatch in — so the byte
//!   encoding is independent of heap iteration order and shard count.
//!   Batched broadcasts stay batched: one [`CanonEvent::Broadcast`]
//!   descriptor (destinations `0..n` implied, destination `g` holding
//!   sender-counter `k0 + g`), deduplicated across the per-shard copies
//!   several shards keep. A lazy broadcast (`par.rs`) is exported as
//!   the single deliveries it still stands for.
//! * **Timed crashes are excluded.** They are a pure function of the
//!   scenario's crash plan, so the resume path re-seeds `AtTime`
//!   triggers with `at >= T` from the *resume* scenario — which is
//!   exactly what lets a divergent replay swap the tail's failure
//!   pattern.

use ofa_core::{Decision, Halt, MsgKind};
use ofa_metrics::{CounterSnapshot, ServiceStats};
use serde::{Deserialize, Serialize};

/// One pending delivery, in the engine-independent form. Times and
/// ordering keys were fixed when the message was sent (they are
/// functions of the sender's local history), so restoring re-draws no
/// randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum CanonEvent {
    /// A point-to-point delivery.
    One {
        /// Delivery time.
        at: u64,
        /// Sender index.
        from: u32,
        /// The sender's send-op counter for this message (the tie-break
        /// key component).
        k: u64,
        /// Destination index.
        to: u32,
        /// The message.
        msg: MsgKind,
    },
    /// A batched uniform broadcast: destinations `0..n` implied,
    /// destination `g` holds sender-counter `k0 + g`.
    Broadcast {
        /// Shared delivery time of every destination.
        at: u64,
        /// Sender index.
        from: u32,
        /// The sender's counter for destination 0.
        k0: u64,
        /// The message.
        msg: MsgKind,
    },
}

impl CanonEvent {
    /// The canonical dispatch order: `(time, sender, counter,
    /// destination)` — every pending event is a delivery (class 1), so
    /// this is exactly the shard heaps' `(at, EventKey)` order.
    pub(crate) fn sort_key(&self) -> (u64, u32, u64, u32) {
        match *self {
            CanonEvent::One {
                at, from, k, to, ..
            } => (at, from, k, to),
            CanonEvent::Broadcast { at, from, k0, .. } => (at, from, k0, 0),
        }
    }
}

/// One process's accounting state at the cut.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ProcSnap {
    /// The process-local virtual clock.
    pub(crate) clock: u64,
    /// Environment calls taken (the `AtStep` crash countdown).
    pub(crate) steps: u64,
    /// `true` once this process crashed itself.
    pub(crate) crashed_self: bool,
    /// The seeded local-coin xoshiro state.
    pub(crate) coin_rng: [u64; 4],
    /// Local-coin flips taken so far.
    pub(crate) coin_flips: u64,
    /// Metric counters accumulated so far.
    pub(crate) counters: CounterSnapshot,
    /// Terminal result and final clock, if the process already finished.
    pub(crate) finished: Option<Finished>,
    /// Client-service statistics emitted so far (traffic-driven
    /// replicated logs only; empty — and omitted from the encoding, which
    /// keeps pre-traffic checkpoints byte-identical — otherwise).
    #[serde(default, skip_serializing_if = "ServiceStats::is_empty")]
    pub(crate) service: ServiceStats,
}

/// How and when a process finished: `ok` with its decision or `halt`
/// with its halt (exactly one is set), at its final `clock`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Finished {
    #[serde(skip_serializing_if = "Option::is_none")]
    ok: Option<Decision>,
    #[serde(skip_serializing_if = "Option::is_none")]
    halt: Option<Halt>,
    clock: u64,
}

impl Finished {
    pub(crate) fn new((result, clock): (Result<Decision, Halt>, u64)) -> Finished {
        let (ok, halt) = match result {
            Ok(d) => (Some(d), None),
            Err(h) => (None, Some(h)),
        };
        Finished { ok, halt, clock }
    }

    /// The result and clock, or `None` unless exactly one of `ok` and
    /// `halt` is set.
    pub(crate) fn get(&self) -> Option<(Result<Decision, Halt>, u64)> {
        match (self.ok, self.halt) {
            (Some(d), None) => Some((Ok(d), self.clock)),
            (None, Some(h)) => Some((Err(h), self.clock)),
            _ => None,
        }
    }
}

/// The complete engine state at a virtual-time cut, in canonical
/// engine-independent form. This is the payload behind
/// [`ofa_scenario::Snapshot::engine_state`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct EngineSnap {
    /// The cut time `T`.
    pub(crate) at: u64,
    /// Events dispatched so far (the `max_events` budget position).
    pub(crate) events_processed: u64,
    /// Max event timestamp dispatched so far.
    pub(crate) end_time: u64,
    /// The multiset trace-hash accumulator.
    pub(crate) trace_hash: u64,
    /// Trace records hashed so far.
    pub(crate) trace_count: u64,
    /// Per-sender PRF send counters (index = process).
    pub(crate) send_counters: Vec<u64>,
    /// Per-process machine snapshots; `Null` for finished processes
    /// (they are never dispatched again).
    pub(crate) machines: Vec<serde::Value>,
    /// Per-process accounting.
    pub(crate) procs: Vec<ProcSnap>,
    /// Per-cluster shared memory, in cluster order.
    pub(crate) memory: Vec<ClusterCells>,
    /// Pending deliveries in canonical sorted order; timed crashes are
    /// re-seeded from the resume scenario, not stored.
    pub(crate) events: Vec<CanonEvent>,
}

/// One cluster's shared memory at the cut. `ofa-sharedmem` is
/// serialization-free, so each decided cell is flattened to
/// `(instance, round, phase, word)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct ClusterCells {
    /// The decided cells.
    pub(crate) decided: Vec<(u64, u64, u8, u64)>,
    /// `propose` calls taken so far.
    pub(crate) proposes: u64,
}

impl EngineSnap {
    /// Sorts the pending events into canonical dispatch order and
    /// collapses the per-shard copies of each batched broadcast (every
    /// shard keeps its own descriptor of the same logical broadcast;
    /// `(from, k0)` identifies it globally).
    pub(crate) fn normalize(&mut self) {
        self.events.sort_unstable_by_key(CanonEvent::sort_key);
        self.events.dedup_by(|a, b| {
            matches!(
                (*a, *b),
                (
                    CanonEvent::Broadcast { from: fa, k0: ka, .. },
                    CanonEvent::Broadcast { from: fb, k0: kb, .. },
                ) if fa == fb && ka == kb
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msg() -> MsgKind {
        // Any MsgKind works; the codec treats it opaquely.
        MsgKind::Decide {
            instance: 0,
            value: ofa_core::Bit::One,
        }
    }

    #[test]
    fn canon_events_sort_and_dedupe_like_the_schedulers() {
        use crate::par::SEntry;
        use crate::queue::Calendar;

        let msg = sample_msg();
        let one = |at, from, k, to| CanonEvent::One {
            at,
            from,
            k,
            to,
            msg,
        };
        let broadcast = CanonEvent::Broadcast {
            at: 20,
            from: 1,
            k0: 4,
            msg,
        };
        // Two shards' queues at a pause: each holds its own deliveries
        // and its own copy of the in-flight broadcast.
        let shard_a = [broadcast, one(15, 2, 0, 1), one(20, 1, 3, 0)];
        let shard_b = [one(15, 0, 7, 2), broadcast];
        // What the shards export…
        let mut snap = EngineSnap {
            at: 10,
            events_processed: 0,
            end_time: 0,
            trace_hash: 0,
            trace_count: 0,
            send_counters: vec![],
            machines: vec![],
            procs: vec![],
            memory: vec![],
            events: shard_a
                .iter()
                .chain(&shard_b)
                .map(|ev| {
                    let e = SEntry::from_canon(ev);
                    SEntry::to_canon(e.at, e.key, &e.ev).expect("deliveries export")
                })
                .collect(),
        };
        snap.normalize();
        assert_eq!(snap.events.len(), 4, "shard copies collapse");
        // …normalizes into the order one shard's queue pops them in.
        let mut queue = Calendar::new();
        let entries: Vec<SEntry> = snap.events.iter().map(SEntry::from_canon).collect();
        for (slot, e) in entries.iter().enumerate() {
            queue.push(e.at, e.key, slot as u32, ());
        }
        let popped: Vec<CanonEvent> = std::iter::from_fn(|| {
            let (at, h) = queue.pop()?;
            SEntry::to_canon(at, h.key(), &entries[h.slot as usize].ev)
        })
        .collect();
        assert_eq!(popped, snap.events);
        assert_eq!(
            snap.events
                .iter()
                .map(CanonEvent::sort_key)
                .collect::<Vec<_>>(),
            vec![(15, 0, 7, 2), (15, 2, 0, 1), (20, 1, 3, 0), (20, 1, 4, 0)],
        );
    }

    #[test]
    fn engine_snap_round_trips() {
        let msg = sample_msg();
        let snap = EngineSnap {
            at: 1_000,
            events_processed: 42,
            end_time: 990,
            trace_hash: 0xDEAD_BEEF,
            trace_count: 42,
            send_counters: vec![3, 0, 9],
            machines: vec![serde::Value::Null, serde::Value::U64(1), serde::Value::Null],
            procs: vec![ProcSnap {
                clock: 980,
                steps: 17,
                crashed_self: false,
                coin_rng: [1, 2, 3, 4],
                coin_flips: 5,
                counters: CounterSnapshot::default(),
                service: ServiceStats::default(),
                finished: Some(Finished::new((Err(Halt::Crashed), 980))),
            }],
            memory: vec![ClusterCells {
                decided: vec![(0, 2, 1, 77)],
                proposes: 4,
            }],
            events: vec![CanonEvent::One {
                at: 1_005,
                from: 0,
                k: 3,
                to: 2,
                msg,
            }],
        };
        let copy = EngineSnap::from_value(&snap.to_value()).expect("round trip");
        assert_eq!(copy.at, snap.at);
        assert_eq!(copy.send_counters, snap.send_counters);
        assert_eq!(copy.procs[0].coin_rng, [1, 2, 3, 4]);
        let finished = copy.procs[0].finished.and_then(|f| f.get());
        assert_eq!(finished, Some((Err(Halt::Crashed), 980)));
        assert_eq!(copy.memory, snap.memory);
        assert_eq!(copy.events, snap.events);
        assert_eq!(copy.machines.len(), 3);
    }
}
