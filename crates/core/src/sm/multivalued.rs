//! [`MultivaluedSm`]: the multivalued reduction as a resumable machine.
//!
//! # A slot's own proposals are consumed on arrival
//!
//! The blocking reduction receives an `APP` message inside a binary
//! instance, so all it can do is stash it in the [`Mailbox`] and absorb
//! the stash at the next stage boundary. This machine sees every
//! delivery first ([`MultivaluedSm::absorb_inert`], the start of every
//! [`MultivaluedSm::on_msg`]): a proposal of *its own* instance
//! (`instance == base`) is offered straight to the `ProposalStore` —
//! first arrival wins — and the delivery costs the one `recv` re-entry
//! that a message the stage's mailbox did not serve costs. Every other
//! message, proposals of earlier and later instances included, takes the
//! mailbox as before. Which way a message goes depends on nothing but
//! its own `instance` against the machine's.
//!
//! Nothing observable can tell the two ways apart:
//!
//! * the store is only read (`holds`, `relay_due`, `payload_of`) right
//!   after an absorb — opening a stage, or in the proposal wait — where
//!   the stash path has just moved the same entries in; between two
//!   absorbs neither path reads it, so *when* an entry arrived in it
//!   cannot matter;
//! * both keep the first copy of a `(instance, seq)`: stashed proposals
//!   of this instance can only predate the machine (they arrived during
//!   an earlier slot), and [`MultivaluedSm::start`] absorbs them before
//!   the first delivery;
//! * a stashed current-instance entry was never counted into
//!   `stale_dropped` (every stage ends, and every wait-loop pump ends,
//!   with an absorb while the instance is still current), and no
//!   [`ObsEvent`] fires on an `APP`;
//! * the step count, what a crash trigger landing on that step does
//!   ([`MultivaluedSm::halt`], through the stage's own `halt`), and the
//!   stage's terminal `MailboxStats` report are [`ConsensusSm::on_msg`]'s
//!   own.
//!
//! The unit tests below keep the stash-everything `on_msg` as a
//! reference twin and compare the two step by step;
//! `tests/engine_equivalence.rs` compares this machine with the blocking
//! reduction, which still stashes every proposal, on whole runs. A
//! snapshot written when current-instance proposals still sat in the
//! stash restores unchanged — the next absorb finds them, as it always
//! did.
//!
//! What it buys: dissemination is all-to-all, so a slot is `n²` proposal
//! deliveries. Through the stash each was a B-tree insert and, at the
//! next absorb, a removal, across a working set far outside the cache —
//! at `n = 1000` about 136 KB of half-full leaves per replica per slot,
//! 136 of a served run's 173 MB — where the store takes one write into
//! an array the machine owns anyway.

use super::{broadcast_into, ConsensusSm, ConsensusSnap, Outbox, Progress, SmCtx, SmTopology};
use crate::multivalued::{stage_budget, MvDecision, ProposalStore, StoreSnap, INSTANCE_STRIDE};
use crate::{Algorithm, Bit, Halt, Mailbox, Msg, MsgKind, ObsEvent, Payload, ProtocolConfig};
use ofa_topology::ProcessId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// `Poll`-style progress of a [`MultivaluedSm`] — like [`Progress`] but
/// terminal decisions carry the full [`MvDecision`] (payload, proposer,
/// stages), which log layers need; binary-body adapters convert via
/// [`crate::mv_body_decision`].
#[derive(Debug, PartialEq, Eq)]
pub enum MvProgress {
    /// Suspended waiting for the next delivered message; no sends.
    NeedMsg,
    /// Sends produced; suspended again.
    Sent(Outbox),
    /// Terminal: the multivalued instance decided.
    Decided(MvDecision, Outbox),
    /// Terminal: halted without deciding (crash or stop).
    Halted(Halt, Outbox),
}

impl MvProgress {
    /// `true` for the terminal variants.
    pub fn is_terminal(&self) -> bool {
        matches!(self, MvProgress::Decided(..) | MvProgress::Halted(..))
    }
}

/// What the machine is doing while suspended. The stage machine is
/// boxed: one `MultivaluedSm` per process at `n` in the thousands makes
/// the inline-variant size difference a real memory cost.
#[derive(Debug)]
enum MvState {
    /// A binary stage machine is running (it owns the shared mailbox).
    Stage(Box<ConsensusSm>),
    /// A stage decided 1 but `p_k`'s proposal has not arrived yet:
    /// pumping the mailbox (owned here again) until it shows up.
    AwaitProposal(Mailbox, ProcessId),
    /// Terminal: the machine finished and owns the mailbox for handoff.
    Finished(Mailbox),
}

/// One multivalued consensus instance as a resumable state machine —
/// the exact event-driven twin of [`crate::multivalued_propose`]: the
/// same dissemination broadcast, the same stage loop over embedded
/// binary instances (as [`ConsensusSm`]s sharing one [`Mailbox`]), the
/// same relay-on-first-use, in the same environment-interaction order,
/// so both engines produce bit-identical traces.
///
/// Lifecycle mirrors [`ConsensusSm`]: [`MultivaluedSm::start`] once, then
/// [`MultivaluedSm::on_msg`] per delivered message until a terminal
/// [`MvProgress`]. Replicated logs chain instances with
/// [`MultivaluedSm::with_mailbox`] / [`MultivaluedSm::into_mailbox`].
#[derive(Debug)]
pub struct MultivaluedSm {
    algorithm: Algorithm,
    me: ProcessId,
    topo: Arc<SmTopology>,
    cfg: ProtocolConfig,
    mv_index: u64,
    base: u64,
    budget: Option<u64>,
    store: ProposalStore,
    stage: u64,
    state: MvState,
    outbox: Outbox,
    done: bool,
}

/// A [`MultivaluedSm`]'s checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MvSnap {
    mv_index: u64,
    store: StoreSnap,
    stage: u64,
    state: MvStateSnap,
    done: bool,
}

/// An [`MvState`] as checkpointed, under the same variant names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum MvStateSnap {
    Stage(ConsensusSnap),
    AwaitProposal(Mailbox, ProcessId),
    Finished(Mailbox),
}

/// Where the stage driver goes after a binary stage reports progress.
enum Drive {
    /// Suspend (possibly with sends) — the stage machine waits.
    Suspend,
    /// The stage decided 0: open the next stage.
    NextStage,
    /// Terminal multivalued progress.
    Terminal(MvProgress),
}

impl MultivaluedSm {
    /// Creates a machine for `me` proposing `proposal` in multivalued
    /// instance `mv_index`, with a fresh mailbox.
    pub fn new(
        algorithm: Algorithm,
        me: ProcessId,
        topo: Arc<SmTopology>,
        mv_index: u64,
        proposal: Payload,
        cfg: ProtocolConfig,
    ) -> Self {
        Self::with_mailbox(algorithm, me, topo, mv_index, proposal, cfg, Mailbox::new())
    }

    /// Like [`MultivaluedSm::new`] but adopting an existing [`Mailbox`]
    /// (the shared-mailbox contract of the blocking reduction: instances
    /// run in increasing `mv_index` order over one mailbox).
    pub fn with_mailbox(
        algorithm: Algorithm,
        me: ProcessId,
        topo: Arc<SmTopology>,
        mv_index: u64,
        proposal: Payload,
        cfg: ProtocolConfig,
        mailbox: Mailbox,
    ) -> Self {
        let n = topo.n();
        let base = mv_index * INSTANCE_STRIDE;
        let budget = stage_budget(&cfg, n);
        MultivaluedSm {
            algorithm,
            me,
            topo,
            cfg,
            mv_index,
            base,
            budget,
            store: ProposalStore::new(n, base, me, proposal),
            stage: 0,
            state: MvState::Finished(mailbox),
            outbox: Vec::new(),
            done: false,
        }
    }

    /// Releases the mailbox (with everything still buffered for future
    /// instances) so the next instance of a log can adopt it. Call after
    /// a terminal [`MvProgress`].
    pub fn into_mailbox(self) -> Mailbox {
        match self.state {
            MvState::Finished(mb) | MvState::AwaitProposal(mb, _) => mb,
            MvState::Stage(sm) => sm.into_mailbox(),
        }
    }

    /// `true` once a terminal [`MvProgress`] has been returned.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// This machine's process identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// The machine's resumable wait state — stage cursor, proposal
    /// store, and the current internal state (a running stage as its
    /// [`ConsensusSm::snapshot`]). The outbox is omitted: empty at every
    /// suspension.
    pub fn snapshot(&self) -> MvSnap {
        MvSnap {
            mv_index: self.mv_index,
            store: self.store.snapshot(),
            stage: self.stage,
            state: match &self.state {
                MvState::Stage(sm) => MvStateSnap::Stage(sm.snapshot()),
                MvState::AwaitProposal(mb, k) => MvStateSnap::AwaitProposal(mb.clone(), *k),
                MvState::Finished(mb) => MvStateSnap::Finished(mb.clone()),
            },
            done: self.done,
        }
    }

    /// Loads a [`MultivaluedSm::snapshot`] into this machine, built by
    /// [`MultivaluedSm::new`] for the same process and instance, so
    /// `base` and the stage budget stay the constructor's; a running
    /// stage is built by [`ConsensusSm::new`], then loaded.
    ///
    /// # Errors
    ///
    /// Another instance, a store or tally not shaped for this `n`, or a
    /// wait on a process outside it; the machine is then half loaded.
    pub fn restore(&mut self, snap: MvSnap) -> Result<(), String> {
        if snap.mv_index != self.mv_index {
            return Err(format!(
                "its multivalued instance is {}, not {}",
                snap.mv_index, self.mv_index
            ));
        }
        self.store.restore(snap.store)?;
        self.state = match snap.state {
            MvStateSnap::Stage(stage) => {
                let topo = Arc::clone(&self.topo);
                let mut sm =
                    ConsensusSm::new(self.algorithm, self.me, topo, 0, Bit::Zero, self.cfg);
                sm.restore(stage)?;
                MvState::Stage(Box::new(sm))
            }
            MvStateSnap::AwaitProposal(_, k) if k.index() >= self.topo.n() => {
                let n = self.topo.n();
                return Err(format!("it waits for the proposal of {k}, outside n = {n}"));
            }
            MvStateSnap::AwaitProposal(mb, k) => MvState::AwaitProposal(mb, k),
            MvStateSnap::Finished(mb) => MvState::Finished(mb),
        };
        (self.stage, self.done) = (snap.stage, snap.done);
        Ok(())
    }

    /// Hands a drained outbox buffer back for reuse (see
    /// [`ConsensusSm::recycle_outbox`]). Routed to the running binary
    /// stage when one is active — that is where broadcasts originate,
    /// and the stage's buffer moves wholesale up to this layer at every
    /// suspension, so one buffer cycles through the whole machine stack.
    pub fn recycle_outbox(&mut self, buf: Outbox) {
        match &mut self.state {
            MvState::Stage(sm) => sm.recycle_outbox(buf),
            _ => super::recycle_into(&mut self.outbox, buf),
        }
    }

    /// Accumulates a binary stage's sends (see [`super::absorb_out`]).
    fn absorb_out(&mut self, out: Outbox) {
        super::absorb_out(&mut self.outbox, out);
    }

    /// Runs the machine up to its first suspension: broadcasts the `APP`
    /// dissemination and opens stage 1. Call exactly once.
    pub fn start<C: SmCtx + ?Sized>(&mut self, ctx: &mut C) -> MvProgress {
        assert!(
            self.stage == 0 && !self.done,
            "start() must be the first step"
        );
        if let Err(h) = broadcast_into(
            &mut self.outbox,
            self.topo.n(),
            MsgKind::App {
                instance: self.base,
                seq: self.me.index() as u64,
                payload: self.store.payload_of(self.me),
            },
            ctx,
        ) {
            return self.finish_halt(h);
        }
        let first = match self.open_next_stage(ctx) {
            Ok(p) => p,
            Err(terminal) => return terminal,
        };
        self.drive(first, ctx)
    }

    /// Consumes one delivered message and advances as far as possible —
    /// through the current binary stage, across stage boundaries, into
    /// the proposal wait, up to the decision.
    ///
    /// # Panics
    ///
    /// Panics if called after a terminal `MvProgress`.
    pub fn on_msg<C: SmCtx + ?Sized>(&mut self, msg: Msg, ctx: &mut C) -> MvProgress {
        assert!(!self.done, "on_msg() on a finished machine");
        if self.absorb_inert(msg) {
            return match ctx.begin_recv() {
                Ok(()) => MvProgress::NeedMsg,
                Err(h) => self.halt(h, ctx),
            };
        }
        match &mut self.state {
            MvState::Stage(sm) => {
                let progress = sm.on_msg(msg, ctx);
                self.drive(progress, ctx)
            }
            // `p_k`'s proposal, the one delivery the wait refuses: it
            // ends the instance with no `recv` step, which was charged
            // when the wait began.
            MvState::AwaitProposal(_, k) => {
                let k = *k;
                let (seq, payload) = self.own_proposal(&msg).expect("the wait refuses p_k's");
                self.store.offer(seq, payload);
                self.finish_decided(k, ctx)
            }
            MvState::Finished(_) => unreachable!("on_msg() on a finished machine"),
        }
    }

    /// Applies `msg` if its delivery cannot reach [`SmCtx::cluster_propose`]
    /// and says whether it did (see [`super`], "Inert deliveries"). In a
    /// stage, a proposal of this instance enters the store and anything
    /// else is the stage's ([`ConsensusSm::absorb_inert`]). In the proposal
    /// wait, `p_k`'s proposal is refused (it ends the instance, and a log
    /// then opens its next slot); another proposal of this instance enters
    /// the store, and anything else is buffered and the stash absorbed.
    pub fn absorb_inert(&mut self, msg: Msg) -> bool {
        debug_assert!(!self.done, "absorb_inert() on a finished machine");
        let own_proposal = self.own_proposal(&msg);
        match &mut self.state {
            MvState::Stage(sm) => match own_proposal {
                Some((seq, payload)) => {
                    self.store.offer(seq, payload);
                    true
                }
                None => sm.absorb_inert(msg),
            },
            MvState::AwaitProposal(mailbox, k) => {
                match own_proposal {
                    Some((seq, _)) if seq == k.index() as u64 => return false,
                    Some((seq, payload)) => self.store.offer(seq, payload),
                    None => {
                        mailbox.buffer(msg);
                        self.store.absorb(mailbox);
                    }
                }
                debug_assert!(!self.store.holds(*k), "only p_k's proposal ends the wait");
                true
            }
            MvState::Finished(_) => unreachable!("absorb_inert() on a finished machine"),
        }
    }

    /// `msg`'s `(seq, payload)` if it is a proposal of this very
    /// instance — the one kind of message this layer takes itself.
    fn own_proposal(&self, msg: &Msg) -> Option<(u64, Payload)> {
        match msg.kind {
            MsgKind::App {
                instance,
                seq,
                payload,
            } if instance == self.base => Some((seq, payload)),
            _ => None,
        }
    }

    /// Ends the machine externally (crash event or run shutdown) — the
    /// blocking `recv` returning `Err(halt)` wherever it was waiting.
    pub fn halt<C: SmCtx + ?Sized>(&mut self, halt: Halt, ctx: &mut C) -> MvProgress {
        assert!(!self.done, "halt() on a finished machine");
        if let MvState::Stage(sm) = &mut self.state {
            // The active binary instance emits its mailbox report, like
            // the blocking instance does when the halt propagates out.
            match sm.halt(halt, ctx) {
                Progress::Halted(h, out) => {
                    self.absorb_out(out);
                    return self.finish_halt(h);
                }
                other => unreachable!("halt() is terminal, got {other:?}"),
            }
        }
        self.finish_halt(halt)
    }

    /// Runs binary-stage progress through the stage loop until the
    /// machine suspends or terminates — the state-machine form of the
    /// blocking reduction's `loop { …; binary_instance(…)?; … }`.
    fn drive<C: SmCtx + ?Sized>(&mut self, mut progress: Progress, ctx: &mut C) -> MvProgress {
        loop {
            match self.step_stage(progress, ctx) {
                Drive::Suspend => return self.suspend(),
                Drive::Terminal(p) => return p,
                Drive::NextStage => match self.open_next_stage(ctx) {
                    Ok(p) => progress = p,
                    Err(terminal) => return terminal,
                },
            }
        }
    }

    /// Routes one binary stage [`Progress`] report.
    fn step_stage<C: SmCtx + ?Sized>(&mut self, progress: Progress, ctx: &mut C) -> Drive {
        match progress {
            Progress::NeedMsg => Drive::Suspend,
            Progress::Sent(out) => {
                self.absorb_out(out);
                Drive::Suspend
            }
            Progress::Halted(h, out) => {
                self.absorb_out(out);
                Drive::Terminal(self.finish_halt(h))
            }
            Progress::Decided(d, out) => {
                self.absorb_out(out);
                // Reclaim the shared mailbox from the finished stage.
                let MvState::Stage(sm) =
                    std::mem::replace(&mut self.state, MvState::Finished(Mailbox::new()))
                else {
                    unreachable!("a stage progress implies a running stage")
                };
                let mut mailbox = sm.into_mailbox();
                if d.value == Bit::One {
                    let k = self.proposer();
                    // Absorb before the first check (the relay may
                    // already be in the stash), like the blocking wait
                    // loop.
                    self.store.absorb(&mut mailbox);
                    self.state = MvState::Finished(mailbox);
                    if self.store.holds(k) {
                        return Drive::Terminal(self.finish_decided(k, ctx));
                    }
                    // Enter the wait loop: charge the pump's recv entry.
                    if let Err(h) = ctx.begin_recv() {
                        return Drive::Terminal(self.finish_halt(h));
                    }
                    let MvState::Finished(mailbox) =
                        std::mem::replace(&mut self.state, MvState::Finished(Mailbox::new()))
                    else {
                        unreachable!()
                    };
                    self.state = MvState::AwaitProposal(mailbox, k);
                    Drive::Suspend
                } else {
                    self.state = MvState::Finished(mailbox);
                    Drive::NextStage
                }
            }
        }
    }

    /// Opens the next binary stage: budget check, absorb, vote, relay on
    /// first use, construct and start the stage machine. Returns the
    /// stage's first [`Progress`], or the terminal [`MvProgress`] if the
    /// budget ran out / the relay crashed.
    fn open_next_stage<C: SmCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<Progress, MvProgress> {
        self.stage += 1;
        if let Some(max) = self.budget {
            if self.stage > max {
                return Err(self.finish_halt(Halt::Stopped));
            }
        }
        let MvState::Finished(mailbox) =
            std::mem::replace(&mut self.state, MvState::Finished(Mailbox::new()))
        else {
            unreachable!("the stage loop owns the mailbox between stages")
        };
        let mut mailbox = mailbox;
        self.store.absorb(&mut mailbox);
        let k = self.proposer();
        let vote = Bit::from(self.store.holds(k));
        if let Some(relay) = self.store.relay_due(k) {
            if let Err(h) = broadcast_into(&mut self.outbox, self.topo.n(), relay, ctx) {
                self.state = MvState::Finished(mailbox);
                return Err(self.finish_halt(h));
            }
        }
        let mut sm = Box::new(ConsensusSm::with_mailbox(
            self.algorithm,
            self.me,
            Arc::clone(&self.topo),
            self.base + self.stage,
            vote,
            self.cfg,
            mailbox,
        ));
        let progress = sm.start(ctx);
        self.state = MvState::Stage(sm);
        Ok(progress)
    }

    /// The stage's proposer `p_k`, `k = (stage - 1) mod n`.
    fn proposer(&self) -> ProcessId {
        ProcessId(((self.stage - 1) as usize) % self.topo.n())
    }

    fn suspend(&mut self) -> MvProgress {
        if self.outbox.is_empty() {
            MvProgress::NeedMsg
        } else {
            MvProgress::Sent(std::mem::take(&mut self.outbox))
        }
    }

    fn finish_decided<C: SmCtx + ?Sized>(&mut self, k: ProcessId, ctx: &mut C) -> MvProgress {
        let mv = MvDecision {
            payload: self.store.payload_of(k),
            proposer: k,
            stages: self.stage,
        };
        ctx.observe(ObsEvent::MvDecided {
            mv_index: self.mv_index,
            proposer: mv.proposer,
            payload: mv.payload,
            stages: mv.stages,
        });
        self.done = true;
        MvProgress::Decided(mv, std::mem::take(&mut self.outbox))
    }

    fn finish_halt(&mut self, halt: Halt) -> MvProgress {
        self.done = true;
        MvProgress::Halted(halt, std::mem::take(&mut self.outbox))
    }
}

#[cfg(test)]
mod tests {
    use super::super::consensus::tests::{crashing, draw, loop_back, payload, TestCtx};
    use super::*;
    use ofa_topology::Partition;

    /// A solo machine decides its own proposal in one stage, feeding
    /// itself its own broadcasts.
    #[test]
    fn solo_decides_own_proposal_in_stage_one() {
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(1)));
        let mut sm = MultivaluedSm::new(
            Algorithm::LocalCoin,
            ProcessId(0),
            topo,
            0,
            payload("solo-value"),
            ProtocolConfig::paper(),
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        let mut queue: Vec<Msg> = Vec::new();
        match sm.start(&mut ctx) {
            MvProgress::Sent(out) => loop_back(&mut queue, out),
            other => panic!("expected sends, got {other:?}"),
        }
        loop {
            assert!(!queue.is_empty(), "starved without deciding");
            let msg = queue.remove(0);
            match sm.on_msg(msg, &mut ctx) {
                MvProgress::Sent(out) => loop_back(&mut queue, out),
                MvProgress::NeedMsg => {}
                MvProgress::Decided(mv, _) => {
                    assert_eq!(mv.payload, payload("solo-value"), "validity");
                    assert_eq!(mv.proposer, ProcessId(0));
                    assert_eq!(mv.stages, 1);
                    break;
                }
                MvProgress::Halted(h, _) => panic!("{h}"),
            }
        }
        assert!(sm.is_done());
        // The decision was observed for log collectors.
        assert!(ctx
            .events
            .iter()
            .any(|e| matches!(e, ObsEvent::MvDecided { mv_index: 0, .. })));
    }

    /// `on_msg` as it was before a slot's own proposals went straight to
    /// the store: every `APP` takes the running stage's mailbox stash (or
    /// `buffer` + `absorb` in the proposal wait), exactly like the
    /// blocking [`crate::multivalued_propose`]. The reference the direct
    /// path is compared against below.
    fn on_msg_via_stash(sm: &mut MultivaluedSm, msg: Msg, ctx: &mut TestCtx) -> MvProgress {
        match &mut sm.state {
            MvState::Stage(stage) => {
                let progress = stage.on_msg(msg, ctx);
                sm.drive(progress, ctx)
            }
            MvState::AwaitProposal(mailbox, k) => {
                let k = *k;
                mailbox.buffer(msg);
                sm.store.absorb(mailbox);
                if sm.store.holds(k) {
                    return sm.finish_decided(k, ctx);
                }
                if let Err(h) = ctx.begin_recv() {
                    return sm.finish_halt(h);
                }
                sm.suspend()
            }
            MvState::Finished(_) => unreachable!("on_msg() on a finished machine"),
        }
    }

    type Step = fn(&mut MultivaluedSm, Msg, &mut TestCtx) -> MvProgress;
    const DIRECT: Step = |sm, msg, ctx| sm.on_msg(msg, ctx);
    const VIA_STASH: Step = on_msg_via_stash;

    /// `n` singleton-cluster processes running multivalued instance
    /// `mv_index`, each with its own deterministic context, plus the
    /// messages in flight as `(destination, message)`.
    struct World {
        machines: Vec<MultivaluedSm>,
        ctxs: Vec<TestCtx>,
        in_flight: Vec<(usize, Msg)>,
        /// Every progress value returned so far, as `(process, progress)`.
        log: Vec<(usize, MvProgress)>,
        /// Deliveries that found their machine waiting for a proposal.
        deliveries_in_wait: usize,
    }

    impl World {
        fn new(n: usize, mv_index: u64, coin: Bit) -> Self {
            let topo = Arc::new(SmTopology::new(Partition::singletons(n)));
            let machines = (0..n)
                .map(|i| {
                    MultivaluedSm::new(
                        Algorithm::LocalCoin,
                        ProcessId(i),
                        Arc::clone(&topo),
                        mv_index,
                        payload(&format!("proposal-{i}")),
                        ProtocolConfig::paper(),
                    )
                })
                .collect();
            World {
                machines,
                ctxs: (0..n).map(|_| TestCtx::new(coin)).collect(),
                in_flight: Vec::new(),
                log: Vec::new(),
                deliveries_in_wait: 0,
            }
        }

        fn n(&self) -> usize {
            self.machines.len()
        }

        /// Files a step's progress: its sends go in flight (a broadcast
        /// as one message per destination, a crashed sender's prefix as
        /// the point-to-point sends it is), the value into the log.
        fn file(&mut self, from: usize, progress: MvProgress) {
            let outbox = match &progress {
                MvProgress::NeedMsg => &[][..],
                MvProgress::Sent(out)
                | MvProgress::Decided(_, out)
                | MvProgress::Halted(_, out) => out,
            };
            for item in outbox {
                let from = ProcessId(from);
                match *item {
                    super::super::OutItem::One(o) => self
                        .in_flight
                        .push((o.to.index(), Msg { from, kind: o.msg })),
                    super::super::OutItem::Broadcast { msg, .. } => self
                        .in_flight
                        .extend((0..self.n()).map(|to| (to, Msg { from, kind: msg }))),
                }
            }
            self.log.push((from, progress));
        }

        fn start(&mut self) {
            for i in 0..self.n() {
                let progress = self.machines[i].start(&mut self.ctxs[i]);
                self.file(i, progress);
            }
        }

        /// Delivers the `pick`-th message in flight (dropped when its
        /// destination is done, like an engine would) through `step`.
        fn deliver(&mut self, pick: usize, step: Step) {
            let (to, msg) = self.in_flight.remove(pick % self.in_flight.len());
            if !self.machines[to].is_done() {
                let waiting = matches!(self.machines[to].state, MvState::AwaitProposal(..));
                self.deliveries_in_wait += usize::from(waiting);
                let progress = step(&mut self.machines[to], msg, &mut self.ctxs[to]);
                self.file(to, progress);
            }
        }

        /// Delivers everything in flight, and everything that sets in
        /// flight, in an order drawn from `seed`. Copies of `p_0`'s
        /// proposal (stage 1's) reach `starved` only once nothing else
        /// is in flight, so it votes 0, learns that stage 1 decided 1
        /// all the same, and waits for the proposal.
        fn run(&mut self, seed: u64, starved: Option<usize>, step: Step) {
            self.run_until(seed, starved, step, |_| false);
        }

        /// [`World::run`], stopping early once `stop` holds after a
        /// delivery.
        fn run_until(
            &mut self,
            seed: u64,
            starved: Option<usize>,
            step: Step,
            stop: impl Fn(&World) -> bool,
        ) {
            let held = |&(to, m): &(usize, Msg)| {
                Some(to) == starved && matches!(m.kind, MsgKind::App { seq: 0, .. })
            };
            let mut rng = seed;
            while !self.in_flight.is_empty() && !stop(self) {
                let free: Vec<usize> = (0..self.in_flight.len())
                    .filter(|&j| !held(&self.in_flight[j]))
                    .collect();
                let r = draw(&mut rng) as usize;
                self.deliver(
                    if free.is_empty() {
                        r
                    } else {
                        free[r % free.len()]
                    },
                    step,
                );
            }
        }
    }

    /// The direct path and the stash path are the same machine: over
    /// pseudo-random delivery orders (proposals overtaking and trailing
    /// the binary stages, relays, a process left waiting for the decided
    /// proposal) and with one process crashed at each step of its run in
    /// turn — the `recv` entry of every proposal delivery among them —
    /// both return the same `MvProgress` at every step, take the same
    /// number of context steps, and observe the same events,
    /// `MailboxStats` reports included.
    #[test]
    fn direct_path_returns_what_the_stash_path_returns() {
        let n = 4;
        let both = |seed: u64, starved: Option<usize>, crash: Option<(usize, u64)>| {
            let what = format!("seed {seed} starved {starved:?} crash {crash:?}");
            let [direct, stash] = [DIRECT, VIA_STASH].map(|step| {
                // A coin stuck at 1 lets stage 1 decide 1 over the
                // starved process's 0-vote.
                let mut w = World::new(n, 1, Bit::from(starved.is_some()));
                if let Some((victim, after)) = crash {
                    w.ctxs[victim].crash_after = Some(after);
                }
                w.start();
                w.run(seed, starved, step);
                w
            });
            assert_eq!(direct.log, stash.log, "{what}");
            for (d, s) in direct.ctxs.iter().zip(&stash.ctxs) {
                assert_eq!(d.calls, s.calls, "{what}");
                assert_eq!(d.events, s.events, "{what}");
            }
            direct
        };
        let mut waited = 0;
        for seed in 0..24u64 {
            let starved = (seed % 3 != 0).then_some(1 + seed as usize % (n - 1));
            let w = both(seed, starved, None);
            let deciders = w
                .log
                .iter()
                .filter(|(_, p)| matches!(p, MvProgress::Decided(..)));
            assert_eq!(deciders.count(), n, "seed {seed}: everybody decides");
            waited += w.deliveries_in_wait;
            if seed < 2 {
                let victim = 1 + seed as usize;
                for after in 0..w.ctxs[victim].calls {
                    both(seed, starved, Some((victim, after)));
                }
            }
        }
        assert!(waited > 0, "a starved process sat in the proposal wait");
    }

    /// A machine waiting for `p_k`'s proposal is inert to everything but
    /// that proposal: other proposals of its instance only fill the
    /// store, other instances' proposals, phase messages and decides only
    /// fill the stash. The awaited proposal ends the instance — and in a
    /// log the next slot's first step pre-agrees in the cluster — so
    /// `absorb_inert` refuses it.
    #[test]
    fn the_proposal_wait_is_inert_to_all_but_the_awaited_proposal() {
        let base = INSTANCE_STRIDE;
        let (mut waits, mut entered) = (0, 0);
        for seed in 0..24u64 {
            let Some((mut w, starved)) = wait_world(seed) else {
                continue;
            };
            let n = w.n();
            waits += 1;
            let sm = &w.machines[starved];
            let MvState::AwaitProposal(_, k) = sm.state else {
                unreachable!()
            };
            let phase = |instance| Msg {
                from: ProcessId(2),
                kind: MsgKind::Phase {
                    instance,
                    round: 1,
                    phase: crate::Phase::One,
                    est: Some(Bit::One),
                },
            };
            let decide = |instance| Msg {
                from: ProcessId(2),
                kind: MsgKind::Decide {
                    instance,
                    value: Bit::One,
                },
            };
            let awaited = own_app(base, 3, k.index() as u64, "proposal");
            for other in [
                own_app(base, 3, k.index() as u64 + 1, "another"),
                own_app(base + INSTANCE_STRIDE, 3, k.index() as u64, "next slot"),
                phase(base + 1),
                phase(base + 2),
                decide(base + 1),
                decide(base + 2),
            ] {
                assert!(
                    restored(sm, n).absorb_inert(other),
                    "seed {seed}: {other:?}"
                );
            }
            assert!(!restored(sm, n).absorb_inert(awaited), "seed {seed}");
            // Absorbing what the wait is inert to does what `on_msg`
            // does (a proposal not held yet enters the store); the
            // awaited proposal is refused, untouched.
            let sm = &mut w.machines[starved];
            for seq in (0..n as u64).filter(|&seq| seq != k.index() as u64) {
                let fresh = !sm.store.holds(ProcessId(seq as usize));
                let msg = own_app(base, 3, seq, "late");
                let mut twin = restored(sm, n);
                let ctx = &mut w.ctxs[starved];
                assert!(sm.absorb_inert(msg), "seed {seed}");
                assert_eq!(twin.on_msg(msg, ctx), MvProgress::NeedMsg, "seed {seed}");
                assert_eq!(sm.snapshot(), twin.snapshot(), "seed {seed}");
                assert!(sm.store.holds(ProcessId(seq as usize)), "seed {seed}");
                entered += u64::from(fresh);
            }
            let snap = sm.snapshot();
            assert!(!sm.absorb_inert(awaited), "seed {seed}");
            assert_eq!(sm.snapshot(), snap, "seed {seed}");
            let ctx = &mut w.ctxs[starved];
            let progress = w.machines[starved].on_msg(awaited, ctx);
            assert!(
                matches!(progress, MvProgress::Decided(..)),
                "seed {seed}: {progress:?}"
            );
        }
        assert!(waits > 0, "a starved process sat in the proposal wait");
        assert!(entered > 0, "some wait absorbed a proposal it lacked");
    }

    /// A [`World`] of four processes in multivalued instance 1, run
    /// from `seed` until its starved process sits in the proposal wait,
    /// and that process — `None` if it decides without waiting. The
    /// starved process also loses one other proposer's dissemination, so
    /// that proposal arrives late.
    fn wait_world(seed: u64) -> Option<(World, usize)> {
        let n = 4;
        let starved = 1 + seed as usize % (n - 1);
        let late = if starved == 1 { 2 } else { 1 };
        let mut w = World::new(n, 1, Bit::One);
        w.start();
        w.in_flight.retain(|&(to, m)| {
            to != starved || m.from.index() != late || !matches!(m.kind, MsgKind::App { .. })
        });
        let waiting = |w: &World| matches!(w.machines[starved].state, MvState::AwaitProposal(..));
        w.run_until(seed, Some(starved), DIRECT, waiting);
        waiting(&w).then_some((w, starved))
    }

    /// A crash trigger on the `recv` entry of a proposal the wait absorbs:
    /// `on_msg` returns what absorbing it and then `halt` return on a twin
    /// restored from the same snapshot, with the same events (none: the
    /// stage reported its mailbox when it decided).
    #[test]
    fn crash_on_a_proposal_in_the_wait_is_absorb_then_halt() {
        let mut waits = 0;
        for (w, starved) in (0..24).filter_map(wait_world) {
            let sm = &w.machines[starved];
            let MvState::AwaitProposal(_, k) = sm.state else {
                unreachable!()
            };
            let another = (k.index() + 1) % w.n();
            let msg = own_app(INSTANCE_STRIDE, 3, another as u64, "another");
            let (mut copy, mut twin) = (restored(sm, w.n()), restored(sm, w.n()));
            assert!(twin.absorb_inert(msg));
            let halted = crashing(|ctx| twin.halt(Halt::Crashed, ctx));
            assert_eq!(crashing(|ctx| copy.on_msg(msg, ctx)), halted);
            assert_eq!(halted, (MvProgress::Halted(Halt::Crashed, vec![]), vec![]));
            waits += 1;
        }
        assert!(waits > 0, "a starved process sat in the proposal wait");
    }

    /// A copy of `sm` (of the singleton-cluster [`World`] of `n`
    /// processes) through its snapshot.
    fn restored(sm: &MultivaluedSm, n: usize) -> MultivaluedSm {
        let topo = Arc::new(SmTopology::new(Partition::singletons(n)));
        let (alg, cfg) = (Algorithm::LocalCoin, ProtocolConfig::paper());
        let mut copy = MultivaluedSm::new(alg, sm.me, topo, sm.mv_index, payload("x"), cfg);
        copy.restore(sm.snapshot()).expect("restores");
        copy
    }

    fn own_app(base: u64, from: usize, seq: u64, text: &str) -> Msg {
        Msg {
            from: ProcessId(from),
            kind: MsgKind::App {
                instance: base,
                seq,
                payload: payload(text),
            },
        }
    }

    /// A running stage never sees its instance's proposals: after all
    /// `n` arrive the store holds every one and the stash is empty,
    /// each delivery having cost exactly one `recv` entry. A `seq`
    /// naming no process is accounted the same and otherwise ignored.
    #[test]
    fn own_proposals_skip_the_stash() {
        let n = 4;
        let mut w = World::new(n, 2, Bit::Zero);
        let base = 2 * INSTANCE_STRIDE;
        let (mut sm, ctx) = (w.machines.swap_remove(0), &mut w.ctxs[0]);
        assert!(matches!(sm.start(ctx), MvProgress::Sent(_)));
        assert!(matches!(sm.state, MvState::Stage(_)));
        let calls = ctx.calls;
        for i in 0..n {
            let msg = own_app(base, i, i as u64, &format!("proposal-{i}"));
            assert_eq!(sm.on_msg(msg, ctx), MvProgress::NeedMsg);
        }
        for seq in [n as u64, u64::MAX] {
            let msg = own_app(base, 1, seq, "nobody's");
            assert_eq!(sm.on_msg(msg, ctx), MvProgress::NeedMsg);
        }
        assert_eq!(ctx.calls, calls + n as u64 + 2);
        for i in 0..n {
            assert_eq!(
                sm.store.payload_of(ProcessId(i)),
                payload(&format!("proposal-{i}"))
            );
        }
        // A later instance's proposal still waits in the stash.
        let later = own_app(base + INSTANCE_STRIDE, 3, 3, "next slot");
        assert_eq!(sm.on_msg(later, ctx), MvProgress::NeedMsg);
        let MsgKind::App { payload: next, .. } = later.kind else {
            unreachable!()
        };
        let stashed = sm.into_mailbox().take_apps();
        assert_eq!(stashed.len(), 1, "only the later instance's proposal");
        assert_eq!(
            (stashed[0].instance, stashed[0].payload),
            (base + INSTANCE_STRIDE, next)
        );
    }

    /// A crash trigger landing on the `recv` entry of a proposal's
    /// delivery halts the machine with the stage's terminal mailbox
    /// report, exactly as the stash path does.
    #[test]
    fn crash_on_a_proposal_delivery_halts_like_the_stash_path() {
        let [direct, stash] = [DIRECT, VIA_STASH].map(|step| {
            let mut w = World::new(3, 0, Bit::Zero);
            let (sm, ctx) = (&mut w.machines[0], &mut w.ctxs[0]);
            assert!(matches!(sm.start(ctx), MvProgress::Sent(_)));
            // One stale message first, so the report carries a count.
            let stale = Msg {
                from: ProcessId(1),
                kind: MsgKind::Phase {
                    instance: 0,
                    round: 1,
                    phase: crate::Phase::One,
                    est: Some(Bit::One),
                },
            };
            assert_eq!(step(sm, stale, ctx), MvProgress::NeedMsg);
            ctx.crash_after = Some(ctx.calls);
            let progress = step(sm, own_app(0, 1, 1, "proposal-1"), ctx);
            assert_eq!(progress, MvProgress::Halted(Halt::Crashed, Vec::new()));
            assert!(sm.is_done());
            std::mem::take(&mut ctx.events)
        });
        assert_eq!(direct, stash);
        assert_eq!(
            direct.last(),
            Some(&ObsEvent::MailboxStats { stale_dropped: 1 })
        );
    }

    /// A snapshot written before proposals went straight to the store
    /// has them in the running stage's `mailbox.apps` with `have` still
    /// empty. The format did not change, so such a value restores, and
    /// the restored machine — absorbing the stash at its next stage
    /// boundary, as ever — goes on to return what an uninterrupted
    /// machine returns.
    #[test]
    fn parent_layout_snapshot_restores_and_decides_the_same() {
        let n = 3;
        let base = INSTANCE_STRIDE;
        // Both worlds follow one schedule: the first `n` deliveries are
        // proposals (nobody leaves stage 1 on those), the rest anything.
        let pick = |w: &World, i: usize, r: usize| {
            let apps = |(_, m): &(usize, Msg)| matches!(m.kind, MsgKind::App { .. });
            let eligible: Vec<usize> = (0..w.in_flight.len())
                .filter(|&j| i >= n || apps(&w.in_flight[j]))
                .collect();
            eligible[r % eligible.len()]
        };
        for seed in 0..12u64 {
            let cut_at = n + (seed as usize % 4) * n;
            let mut straight = World::new(n, 1, Bit::Zero);
            let mut cut = World::new(n, 1, Bit::Zero);
            let mut rng = seed;
            straight.start();
            cut.start();
            let mut i = 0;
            while !straight.in_flight.is_empty() {
                let j = pick(&straight, i, draw(&mut rng) as usize);
                assert_eq!(straight.in_flight, cut.in_flight, "seed {seed}");
                straight.deliver(j, DIRECT);
                // The cut world makes its first deliveries the old way…
                cut.deliver(j, if i < cut_at { VIA_STASH } else { DIRECT });
                i += 1;
                if i == n {
                    // …which, this early, really is the old layout: the
                    // proposals received sit in the stage's stash and
                    // the store holds the machine's own only.
                    let mut stashed = 0;
                    for sm in &cut.machines {
                        assert!(
                            matches!(sm.state, MvState::Stage(_)),
                            "seed {seed}: not in a stage: {sm:?}"
                        );
                        stashed += restored(sm, n).into_mailbox().take_apps().len();
                        let held = (0..n).filter(|&k| sm.store.holds(ProcessId(k)));
                        assert_eq!(held.count(), 1, "seed {seed}: only its own proposal");
                    }
                    assert!(stashed > 0, "seed {seed}");
                }
                if i == cut_at {
                    // …then every machine goes through a snapshot.
                    for sm in &mut cut.machines {
                        *sm = restored(sm, n);
                        assert_eq!(sm.base, base);
                    }
                }
            }
            assert!(i > cut_at, "seed {seed}: the run outlasts the cut");
            assert_eq!(straight.log, cut.log, "seed {seed}");
        }
    }

    #[test]
    fn zero_budget_halts_before_any_stage() {
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(1)));
        // max_rounds(0) still leaves the 4n stage floor, so drive the
        // budget down via a 1-process partition: floor is 4. Instead use
        // an external halt to check the pre-stage path.
        let mut sm = MultivaluedSm::new(
            Algorithm::LocalCoin,
            ProcessId(0),
            topo,
            0,
            payload("x"),
            ProtocolConfig::paper().with_max_rounds(0),
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        // The binary stages inherit max_rounds(0) and stop immediately.
        let progress = sm.start(&mut ctx);
        assert!(
            matches!(progress, MvProgress::Halted(Halt::Stopped, _)),
            "got {progress:?}"
        );
    }

    #[test]
    fn external_halt_before_start_is_terminal() {
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(2)));
        let mut sm = MultivaluedSm::new(
            Algorithm::LocalCoin,
            ProcessId(0),
            topo,
            0,
            payload("y"),
            ProtocolConfig::paper(),
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        assert!(matches!(sm.start(&mut ctx), MvProgress::Sent(_)));
        let progress = sm.halt(Halt::Crashed, &mut ctx);
        assert!(matches!(progress, MvProgress::Halted(Halt::Crashed, _)));
        assert!(sm.is_done());
    }
}
