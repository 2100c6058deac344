//! The process-facing environment: everything a hybrid-model process can
//! do, as one object-safe trait.
//!
//! The paper's model gives a process four capabilities: send/receive
//! messages over reliable asynchronous channels, invoke its cluster's
//! consensus objects, and draw local/common coins. [`Env`] captures
//! exactly those, so each algorithm is written **once** in blocking
//! pseudocode style and runs unchanged on the deterministic simulator
//! (`ofa-sim`), the real thread runtime (`ofa-runtime`), and the loopback
//! environment used by unit tests.

use crate::{Bit, Est, Halt, Msg, MsgKind};
use ofa_sharedmem::Slot;
use ofa_topology::{Partition, ProcessId};

/// The world as seen by one process of the hybrid model.
///
/// All methods that interact with the world return `Result<_, Halt>`:
/// substrates inject crashes and stop signals by returning `Err`.
pub trait Env {
    /// This process's identity.
    fn me(&self) -> ProcessId;

    /// The cluster partition (known to every process, §II-A).
    fn partition(&self) -> &Partition;

    /// Sends `msg` to `to` over the reliable asynchronous channel.
    fn send(&mut self, to: ProcessId, msg: MsgKind) -> Result<(), Halt>;

    /// Receives the next delivered message, blocking until one is
    /// available.
    ///
    /// # Errors
    ///
    /// `Err(Halt::Crashed)` if this process crashed; `Err(Halt::Stopped)`
    /// if no message can ever arrive (quiescence) or the run was stopped.
    fn recv(&mut self) -> Result<Msg, Halt>;

    /// Proposes the encoded value `enc` to this cluster's consensus object
    /// `CONS_x[slot]`, returning the decided encoding. Wait-free.
    fn cluster_propose(&mut self, slot: Slot, enc: u64) -> Result<u64, Halt>;

    /// Draws this process's local coin (Algorithm 2, line 14).
    fn local_coin(&mut self) -> Result<Bit, Halt>;

    /// Reads the common coin's bit for `round` (Algorithm 3, line 6).
    fn common_coin(&mut self, round: u64) -> Result<Bit, Halt>;

    /// Reports a protocol-level event to observers (tracing, invariant
    /// checking). Default: ignored.
    fn observe(&mut self, _event: ObsEvent) {}

    /// This process's current virtual clock in ticks. Virtual-time
    /// substrates return the process-local clock (bit-identical across
    /// engines); substrates without a modeled clock keep the default
    /// `0`, which is why traffic-driven workloads are rejected there.
    fn now(&self) -> u64 {
        0
    }

    /// The scenario's master randomness seed, for workload-level PRFs
    /// (e.g. [`crate::traffic::traffic_word`]). Default: `0`.
    fn seed(&self) -> u64 {
        0
    }

    /// Reports the process's accumulated client-service statistics —
    /// emitted once per body incarnation, at its terminal progress
    /// point. Substrates fold the stats into the run outcome; the
    /// default discards them.
    fn service_stats(&mut self, _stats: &ofa_metrics::ServiceStats) {}

    /// Whether this process serves client traffic in a traffic-driven
    /// replicated log. Default `true`; virtual-time substrates return
    /// `false` for processes scheduled to churn. The multivalued
    /// reduction decides whichever copy of a proposer's `APP` payload a
    /// process holds, so a proposer's batch descriptor must be identical
    /// every time it is broadcast for a given slot — and a restarted
    /// incarnation cannot reproduce its first incarnation's
    /// clock-dependent batches. Churn-planned replicas therefore propose
    /// empty filler slots in *both* incarnations; their clients are
    /// treated as failed over and unserved.
    fn serves_traffic(&self) -> bool {
        true
    }

    /// The `broadcast(msg)` macro-operation of §II-A: sends `msg` to every
    /// process **including the sender**, in index order.
    ///
    /// Like the paper's macro-operation it is *not reliable*: if the
    /// process crashes mid-loop (a `send` returns `Err(Halt::Crashed)`),
    /// an arbitrary prefix of processes receives the message.
    ///
    /// # Errors
    ///
    /// Propagates the first `Halt` returned by `send`.
    fn broadcast(&mut self, msg: MsgKind) -> Result<(), Halt> {
        let n = self.partition().n();
        for j in 0..n {
            self.send(ProcessId(j), msg)?;
        }
        Ok(())
    }
}

/// Protocol-level events emitted by the algorithms via [`Env::observe`],
/// consumed by tracers and the WA1/WA2 invariant checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// The process entered the protocol proposing `value`.
    Propose {
        /// Protocol instance (0 for single-shot consensus).
        instance: u64,
        /// The proposed value `v_i`.
        value: Bit,
    },
    /// The process entered round `round` (line 3).
    RoundStart {
        /// Protocol instance.
        instance: u64,
        /// The new round number.
        round: u64,
    },
    /// The intra-cluster consensus object at `slot` returned `decided`.
    ClusterAgreed {
        /// Which object.
        slot: Slot,
        /// The decided encoding (decode with the algorithm's value type).
        decided: u64,
    },
    /// The value championed after phase 1 of `round` (`est2_i`, line 7).
    /// The WA1 predicate quantifies over these events.
    Est2 {
        /// Protocol instance.
        instance: u64,
        /// The round.
        round: u64,
        /// `Some(v)` if a majority supported `v`, otherwise `⊥`.
        est2: Est,
    },
    /// The reception set after phase 2 of `round` (`rec_i`, line 10).
    /// The WA2 predicate quantifies over these events.
    Rec {
        /// Protocol instance.
        instance: u64,
        /// The round.
        round: u64,
        /// `0` was received.
        saw_zero: bool,
        /// `1` was received.
        saw_one: bool,
        /// `⊥` was received.
        saw_bot: bool,
    },
    /// A coin was drawn.
    Coin {
        /// The round.
        round: u64,
        /// `true` for the common coin, `false` for a local coin.
        common: bool,
        /// The drawn bit.
        value: Bit,
    },
    /// The process is about to decide `value` in `round` (it broadcasts
    /// `DECIDE(value)` first, per lines 12/17).
    Deciding {
        /// Protocol instance.
        instance: u64,
        /// The deciding round (the process's current round).
        round: u64,
        /// The decided value.
        value: Bit,
        /// `true` if adopted from a received `DECIDE` message (line 17),
        /// `false` for a direct decision (line 12).
        relayed: bool,
    },
    /// Mailbox hygiene report, emitted once when a consensus instance
    /// finishes (decided or halted): how many stale messages the
    /// process's [`crate::Mailbox`] discarded during the instance —
    /// past-slot arrivals plus buffers pruned when the served slot
    /// advanced. Substrates fold the delta into
    /// `ofa_metrics::CounterSnapshot::stale_dropped`
    /// (`ofa_scenario::ProcAccount::observe`).
    MailboxStats {
        /// Stale messages dropped since the previous report by the same
        /// process (a delta, so multi-instance layers sum correctly).
        stale_dropped: u64,
    },
    /// A multivalued consensus instance decided (see
    /// [`crate::multivalued_propose`]). Layers above binary consensus —
    /// replicated logs, observers reconstructing decided command
    /// sequences — key on this event; `mv_index` is the *multivalued*
    /// instance (log slot), not a binary instance id.
    MvDecided {
        /// The multivalued instance (log slot for replicated logs).
        mv_index: u64,
        /// The proposer whose value was adopted.
        proposer: ofa_topology::ProcessId,
        /// The decided payload.
        payload: crate::Payload,
        /// How many binary stages the reduction needed.
        stages: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofa_topology::Partition;

    /// Minimal Env: loops messages back to self, no other process.
    struct Loopback {
        part: Partition,
        queue: std::collections::VecDeque<Msg>,
        sent: Vec<(ProcessId, MsgKind)>,
    }

    impl Env for Loopback {
        fn me(&self) -> ProcessId {
            ProcessId(0)
        }
        fn partition(&self) -> &Partition {
            &self.part
        }
        fn send(&mut self, to: ProcessId, msg: MsgKind) -> Result<(), Halt> {
            self.sent.push((to, msg));
            if to == self.me() {
                self.queue.push_back(Msg {
                    from: self.me(),
                    kind: msg,
                });
            }
            Ok(())
        }
        fn recv(&mut self) -> Result<Msg, Halt> {
            self.queue.pop_front().ok_or(Halt::Stopped)
        }
        fn cluster_propose(&mut self, _slot: Slot, enc: u64) -> Result<u64, Halt> {
            Ok(enc)
        }
        fn local_coin(&mut self) -> Result<Bit, Halt> {
            Ok(Bit::Zero)
        }
        fn common_coin(&mut self, _round: u64) -> Result<Bit, Halt> {
            Ok(Bit::One)
        }
    }

    #[test]
    fn default_broadcast_sends_to_all_in_index_order() {
        let mut env = Loopback {
            part: Partition::fig1_left(),
            queue: Default::default(),
            sent: Vec::new(),
        };
        let msg = MsgKind::Decide {
            instance: 0,
            value: Bit::One,
        };
        env.broadcast(msg).unwrap();
        assert_eq!(env.sent.len(), 7);
        for (j, (to, kind)) in env.sent.iter().enumerate() {
            assert_eq!(*to, ProcessId(j));
            assert_eq!(*kind, msg);
        }
        // self-delivery happened
        assert_eq!(env.recv().unwrap().kind, msg);
    }

    #[test]
    fn env_is_object_safe() {
        fn takes_dyn(_: &mut dyn Env) {}
        let mut env = Loopback {
            part: Partition::single_cluster(1),
            queue: Default::default(),
            sent: Vec::new(),
        };
        takes_dyn(&mut env);
    }
}
