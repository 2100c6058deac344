//! [`LogSm`]: a replicated-log replica as a resumable machine.

use super::{MultivaluedSm, MvProgress, MvSnap, Outbox, Progress, SmCtx, SmTopology};
use crate::multivalued::{log_body_decision, queue_proposal, LogDigest};
use crate::traffic::{TrafficSnap, TrafficState};
use crate::{Algorithm, Halt, Mailbox, Msg, Payload, ProtocolConfig};
use ofa_topology::ProcessId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A replicated-log replica as a resumable state machine — the exact
/// event-driven twin of [`crate::run_replicated_log`]: `slots`
/// [`MultivaluedSm`] instances chained in order over one shared mailbox,
/// proposing from this process's command queue (cycled), folding every
/// decided slot into a [`LogDigest`] and reporting the digest parity as
/// the final binary [`Progress::Decided`].
///
/// Every committed slot is observed as [`crate::ObsEvent::MvDecided`]
/// (by the embedded multivalued machines), which is how log collectors
/// — e.g. `ofa-smr`'s replicated-KV report builder — reconstruct the
/// committed command sequence per replica.
#[derive(Debug)]
pub struct LogSm {
    algorithm: Algorithm,
    me: ProcessId,
    topo: Arc<SmTopology>,
    cfg: ProtocolConfig,
    slots: u64,
    queue: Vec<Payload>,
    slot: u64,
    digest: LogDigest,
    inner: Option<MultivaluedSm>,
    outbox: Outbox,
    done: bool,
    /// Live client traffic, replacing the pre-seeded queue: each slot
    /// boundary pulls due arrivals and proposes a batch descriptor; the
    /// accumulated service stats are emitted once, at the terminal
    /// progress — exactly like [`crate::run_replicated_log`].
    traffic: Option<TrafficState>,
}

/// A [`LogSm`]'s checkpoint. `traffic` is absent from snapshots written
/// before served logs existed, and reads as `None` there.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogSnap {
    slot: u64,
    digest: u64,
    inner: Option<MvSnap>,
    done: bool,
    #[serde(default)]
    traffic: Option<TrafficSnap>,
}

impl LogSm {
    /// Creates a replica for `me` committing `slots` log slots, proposing
    /// from `queue` (cycled; an empty queue proposes empty payloads) —
    /// or, with `traffic`, from the live arrival-driven proposer queue.
    pub fn new(
        algorithm: Algorithm,
        me: ProcessId,
        topo: Arc<SmTopology>,
        queue: Vec<Payload>,
        slots: u64,
        cfg: ProtocolConfig,
        traffic: Option<TrafficState>,
    ) -> Self {
        LogSm {
            algorithm,
            me,
            topo,
            cfg,
            slots,
            queue,
            slot: 0,
            digest: LogDigest::new(),
            inner: None,
            outbox: Vec::new(),
            done: false,
            traffic,
        }
    }

    /// `true` once a terminal [`Progress`] has been returned.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The replica's resumable wait state: slot cursor, the rolling
    /// [`LogDigest`], the running slot machine and the live traffic. The
    /// command queue and slot count are scenario inputs, and the outbox
    /// is empty at every suspension, so neither is captured.
    pub fn snapshot(&self) -> LogSnap {
        LogSnap {
            slot: self.slot,
            digest: self.digest.value(),
            inner: self.inner.as_ref().map(MultivaluedSm::snapshot),
            done: self.done,
            traffic: self.traffic.as_ref().map(TrafficState::snapshot),
        }
    }

    /// Loads a [`LogSm::snapshot`] into this replica, built by
    /// [`LogSm::new`] for the same process of the same scenario; a
    /// running slot machine is built by [`MultivaluedSm::new`], then
    /// loaded. Traffic loads only into a replica built to serve it.
    ///
    /// # Errors
    ///
    /// A running slot past the log's end, or what the slot machine or the
    /// traffic refuses; the replica is then half loaded.
    pub fn restore(&mut self, snap: LogSnap) -> Result<(), String> {
        if !snap.done && snap.slot >= self.slots {
            return Err(format!("it runs slot {} of {}", snap.slot, self.slots));
        }
        self.inner = match snap.inner {
            None => None,
            Some(loaded) => {
                let (topo, empty) = (Arc::clone(&self.topo), Payload::empty());
                let (alg, me, cfg) = (self.algorithm, self.me, self.cfg);
                let mut inner = MultivaluedSm::new(alg, me, topo, snap.slot, empty, cfg);
                inner.restore(loaded)?;
                Some(inner)
            }
        };
        if let (Some(traffic), Some(loaded)) = (&mut self.traffic, snap.traffic) {
            traffic.restore(loaded)?;
        }
        (self.slot, self.done) = (snap.slot, snap.done);
        self.digest = LogDigest::from_raw(snap.digest);
        Ok(())
    }

    /// Hands a drained outbox buffer back for reuse, routing it to the
    /// running slot machine when one is active (see
    /// [`super::ConsensusSm::recycle_outbox`]).
    pub fn recycle_outbox(&mut self, buf: Outbox) {
        match self.inner.as_mut() {
            Some(inner) => inner.recycle_outbox(buf),
            None => super::recycle_into(&mut self.outbox, buf),
        }
    }

    /// Accumulates a slot machine's sends (see [`super::absorb_out`]).
    fn absorb_out(&mut self, out: Outbox) {
        super::absorb_out(&mut self.outbox, out);
    }

    /// Runs the replica up to its first suspension (or straight to the
    /// decision for a zero-slot log). Call exactly once.
    pub fn start<C: SmCtx + ?Sized>(&mut self, ctx: &mut C) -> Progress {
        assert!(
            self.slot == 0 && self.inner.is_none() && !self.done,
            "start() must be the first step"
        );
        if self.slots == 0 {
            return self.finish_decided(ctx);
        }
        self.open_slot(Mailbox::new(), ctx)
    }

    /// Consumes one delivered message and advances as far as possible —
    /// possibly committing the current slot and opening the next within
    /// the same step (an absorbed one only re-enters `recv`).
    ///
    /// # Panics
    ///
    /// Panics if called after a terminal `Progress`.
    pub fn on_msg<C: SmCtx + ?Sized>(&mut self, msg: Msg, ctx: &mut C) -> Progress {
        assert!(!self.done, "on_msg() on a finished machine");
        if self.absorb_inert(msg) {
            return match ctx.begin_recv() {
                Ok(()) => Progress::NeedMsg,
                Err(h) => self.halt(h, ctx),
            };
        }
        let inner = self.inner.as_mut().expect("running replica has a slot");
        let progress = inner.on_msg(msg, ctx);
        self.after_slot_progress(progress, ctx)
    }

    /// Applies `msg` if its delivery cannot reach [`SmCtx::cluster_propose`]
    /// and says whether it did: the running slot's
    /// [`MultivaluedSm::absorb_inert`].
    pub fn absorb_inert(&mut self, msg: Msg) -> bool {
        debug_assert!(!self.done, "absorb_inert() on a finished machine");
        self.inner
            .as_mut()
            .is_some_and(|inner| inner.absorb_inert(msg))
    }

    /// Ends the replica externally (crash event or run shutdown).
    pub fn halt<C: SmCtx + ?Sized>(&mut self, halt: Halt, ctx: &mut C) -> Progress {
        assert!(!self.done, "halt() on a finished machine");
        if let Some(inner) = self.inner.as_mut() {
            match inner.halt(halt, ctx) {
                MvProgress::Halted(h, out) => {
                    self.absorb_out(out);
                    return self.finish_halt(h, ctx);
                }
                other => unreachable!("halt() is terminal, got {other:?}"),
            }
        }
        self.finish_halt(halt, ctx)
    }

    /// Starts the multivalued instance of the current slot and runs its
    /// progress (and any follow-on slots it completes) to suspension.
    fn open_slot<C: SmCtx + ?Sized>(&mut self, mailbox: Mailbox, ctx: &mut C) -> Progress {
        let proposal = match &mut self.traffic {
            Some(t) => {
                // The slot boundary is the batching deadline: pull every
                // arrival due by now, then propose the next batch (or the
                // empty filler) — same two calls, same clock, as the
                // blocking reference.
                t.pull(ctx.now());
                t.next_batch()
            }
            None => queue_proposal(&self.queue, self.slot),
        };
        let mut inner = MultivaluedSm::with_mailbox(
            self.algorithm,
            self.me,
            Arc::clone(&self.topo),
            self.slot,
            proposal,
            self.cfg,
            mailbox,
        );
        let progress = inner.start(ctx);
        self.inner = Some(inner);
        self.after_slot_progress(progress, ctx)
    }

    /// Routes one slot's [`MvProgress`]: suspend, commit-and-continue, or
    /// terminate.
    fn after_slot_progress<C: SmCtx + ?Sized>(
        &mut self,
        progress: MvProgress,
        ctx: &mut C,
    ) -> Progress {
        match progress {
            MvProgress::NeedMsg => self.suspend(),
            MvProgress::Sent(out) => {
                self.absorb_out(out);
                self.suspend()
            }
            MvProgress::Halted(h, out) => {
                self.absorb_out(out);
                self.finish_halt(h, ctx)
            }
            MvProgress::Decided(mv, out) => {
                self.absorb_out(out);
                if let Some(t) = &mut self.traffic {
                    t.on_committed(&mv.payload, ctx.now());
                }
                self.digest.absorb(&mv);
                self.slot += 1;
                let inner = self.inner.take().expect("slot machine present");
                if self.slot == self.slots {
                    return self.finish_decided(ctx);
                }
                // The shared mailbox carries buffered future-slot traffic
                // into the next instance, like the blocking loop.
                self.open_slot(inner.into_mailbox(), ctx)
            }
        }
    }

    fn suspend(&mut self) -> Progress {
        if self.outbox.is_empty() {
            Progress::NeedMsg
        } else {
            Progress::Sent(std::mem::take(&mut self.outbox))
        }
    }

    /// The once-per-incarnation service report, fired from both terminal
    /// paths — the event-driven mirror of the blocking wrapper's emit.
    fn emit_service<C: SmCtx + ?Sized>(&mut self, ctx: &mut C) {
        if let Some(t) = &self.traffic {
            ctx.service_stats(t.stats());
        }
    }

    fn finish_decided<C: SmCtx + ?Sized>(&mut self, ctx: &mut C) -> Progress {
        self.done = true;
        self.emit_service(ctx);
        Progress::Decided(
            log_body_decision(&self.digest, self.slots),
            std::mem::take(&mut self.outbox),
        )
    }

    fn finish_halt<C: SmCtx + ?Sized>(&mut self, halt: Halt, ctx: &mut C) -> Progress {
        self.done = true;
        self.emit_service(ctx);
        Progress::Halted(halt, std::mem::take(&mut self.outbox))
    }
}

#[cfg(test)]
mod tests {
    use super::super::consensus::tests::{crashing, loop_back, payload, TestCtx};
    use super::*;
    use crate::{Bit, ObsEvent};
    use ofa_topology::Partition;

    #[test]
    fn zero_slot_log_decides_immediately() {
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(2)));
        let mut sm = LogSm::new(
            Algorithm::LocalCoin,
            ProcessId(0),
            topo,
            vec![payload("a")],
            0,
            ProtocolConfig::paper(),
            None,
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        let Progress::Decided(d, outbox) = sm.start(&mut ctx) else {
            panic!("zero slots should decide immediately");
        };
        assert!(outbox.is_empty(), "no slots, no sends");
        assert_eq!(d.round, 0);
        assert!(sm.is_done());
    }

    #[test]
    fn solo_replica_commits_all_slots_cycling_its_queue() {
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(1)));
        let slots = 3;
        let mut sm = LogSm::new(
            Algorithm::LocalCoin,
            ProcessId(0),
            topo,
            vec![payload("cmd-a"), payload("cmd-b")],
            slots,
            ProtocolConfig::paper(),
            None,
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        let mut queue: Vec<Msg> = Vec::new();
        let mut decided = None;
        match sm.start(&mut ctx) {
            Progress::Sent(out) => loop_back(&mut queue, out),
            other => panic!("expected sends, got {other:?}"),
        }
        while decided.is_none() {
            assert!(!queue.is_empty(), "starved without deciding");
            let msg = queue.remove(0);
            match sm.on_msg(msg, &mut ctx) {
                Progress::Sent(out) => loop_back(&mut queue, out),
                Progress::NeedMsg => {}
                Progress::Decided(d, out) => {
                    loop_back(&mut queue, out);
                    decided = Some(d);
                }
                Progress::Halted(h, _) => panic!("{h}"),
            }
        }
        let d = decided.unwrap();
        assert_eq!(d.round, slots, "deciding round reports the slot count");
        // All three slots were committed with the cycled proposals.
        let committed: Vec<(u64, Payload)> = ctx
            .events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::MvDecided {
                    mv_index, payload, ..
                } => Some((*mv_index, *payload)),
                _ => None,
            })
            .collect();
        assert_eq!(
            committed,
            vec![
                (0, payload("cmd-a")),
                (1, payload("cmd-b")),
                (2, payload("cmd-a")),
            ]
        );
        // The digest matches an offline replay of the same slots.
        let mut digest = LogDigest::new();
        for (slot, p) in &committed {
            digest.absorb(&crate::MvDecision {
                payload: *p,
                proposer: ProcessId(0),
                stages: *slot + 1, // stages do not enter the digest
            });
        }
        assert_eq!(d.value, Bit::from(digest.value() & 1 == 1));
    }

    /// A crash trigger on the `recv` entry of a proposal of the running
    /// slot: `on_msg` returns what absorbing it and then `halt` return on
    /// a twin restored from the same snapshot, with the same events — the
    /// running stage's mailbox report.
    #[test]
    fn crash_on_an_absorbed_proposal_is_absorb_then_halt() {
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(2)));
        let (alg, me, cfg) = (Algorithm::LocalCoin, ProcessId(0), ProtocolConfig::paper());
        let mut sm = LogSm::new(alg, me, Arc::clone(&topo), vec![], 2, cfg, None);
        let mut ctx = TestCtx::new(Bit::Zero);
        assert!(matches!(sm.start(&mut ctx), Progress::Sent(_)));
        let mut twin = LogSm::new(alg, me, topo, vec![], 2, cfg, None);
        twin.restore(sm.snapshot()).expect("restores");
        let proposal = Msg {
            from: ProcessId(1),
            kind: crate::MsgKind::App {
                instance: 0,
                seq: 1,
                payload: payload("theirs"),
            },
        };
        assert!(twin.absorb_inert(proposal));
        let halted = crashing(|ctx| twin.halt(Halt::Crashed, ctx));
        assert_eq!(crashing(|ctx| sm.on_msg(proposal, ctx)), halted);
        assert_eq!(halted.0, Progress::Halted(Halt::Crashed, vec![]));
        assert_eq!(halted.1, [ObsEvent::MailboxStats { stale_dropped: 0 }]);
    }
}
