//! [`ConsensusSm`]: one binary consensus instance as a resumable machine.

use super::{broadcast_into, Outbox, Progress, SmCtx, SmTopology, Tally};
use crate::{
    Algorithm, Bit, Decision, Est, Halt, Mailbox, MailboxItem, Msg, MsgKind, ObsEvent, Phase,
    ProtocolConfig,
};
use ofa_sharedmem::{CodableValue, Slot};
use ofa_topology::ProcessId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The slot-phase index Algorithm 3 uses for its single per-round object
/// (kept identical to the blocking implementation).
const CC_SLOT: u8 = 0;

/// One consensus process as a resumable state machine — Algorithm 2
/// (local coin) or Algorithm 3 (common coin), selected at construction.
///
/// Lifecycle: create, [`ConsensusSm::start`] once, then feed every
/// delivered message through [`ConsensusSm::on_msg`] until a terminal
/// [`Progress`] is returned (or the engine ends the run with
/// [`ConsensusSm::halt`]). Outgoing messages ride inside each `Progress`.
///
/// Multi-instance layers ([`super::MultivaluedSm`], [`super::LogSm`])
/// construct consecutive instances with [`ConsensusSm::with_mailbox`],
/// threading one [`Mailbox`] through the whole sequence exactly like the
/// blocking [`crate::ben_or_hybrid_instance`] contract requires — future
/// instances' messages buffered during instance `i` survive into
/// instance `i + 1`.
///
/// # Examples
///
/// A one-process universe decides as soon as its own broadcasts loop
/// back:
///
/// ```
/// use ofa_core::sm::{ConsensusSm, NullCtx, OutItem, Progress, SmTopology};
/// use ofa_core::{Algorithm, Bit, Msg, ProtocolConfig};
/// use ofa_topology::{Partition, ProcessId};
/// use std::sync::Arc;
///
/// let topo = Arc::new(SmTopology::new(Partition::single_cluster(1)));
/// let mut sm = ConsensusSm::new(
///     Algorithm::LocalCoin,
///     ProcessId(0),
///     topo,
///     0,
///     Bit::One,
///     ProtocolConfig::paper(),
/// );
/// let mut ctx = NullCtx;
/// // start() broadcasts PHASE1 and suspends:
/// let Progress::Sent(outbox) = sm.start(&mut ctx) else { panic!() };
/// // deliver the machine its own messages until it decides:
/// let mut pending: Vec<Msg> = flatten(&outbox, 1);
/// loop {
///     let msg = pending.remove(0);
///     match sm.on_msg(msg, &mut ctx) {
///         Progress::Sent(out) => pending.extend(flatten(&out, 1)),
///         Progress::Decided(d, _) => {
///             assert_eq!(d.value, Bit::One);
///             break;
///         }
///         Progress::NeedMsg => {}
///         Progress::Halted(h, _) => panic!("{h}"),
///     }
/// }
///
/// fn flatten(outbox: &[OutItem], n: usize) -> Vec<Msg> {
///     let mut msgs = Vec::new();
///     for item in outbox {
///         match *item {
///             OutItem::One(o) => msgs.push(Msg { from: ProcessId(0), kind: o.msg }),
///             OutItem::Broadcast { msg, .. } => {
///                 msgs.extend((0..n).map(|_| Msg { from: ProcessId(0), kind: msg }));
///             }
///         }
///     }
///     msgs
/// }
/// ```
#[derive(Debug)]
pub struct ConsensusSm {
    algorithm: Algorithm,
    me: ProcessId,
    topo: Arc<SmTopology>,
    cfg: ProtocolConfig,
    instance: u64,
    /// `est1` of Algorithm 2 / `est` of Algorithm 3.
    est: Bit,
    round: u64,
    phase: Phase,
    tally: Tally,
    mailbox: Mailbox,
    outbox: Outbox,
    done: bool,
}

/// A [`ConsensusSm`]'s checkpoint: what its constructor cannot derive
/// from the scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsensusSnap {
    instance: u64,
    est: Bit,
    round: u64,
    phase: Phase,
    tally: Tally,
    mailbox: Mailbox,
    done: bool,
}

impl ConsensusSm {
    /// Creates a machine for `me` proposing `proposal` in `instance`
    /// (single-shot consensus uses instance 0) with a fresh mailbox.
    pub fn new(
        algorithm: Algorithm,
        me: ProcessId,
        topo: Arc<SmTopology>,
        instance: u64,
        proposal: Bit,
        cfg: ProtocolConfig,
    ) -> Self {
        Self::with_mailbox(algorithm, me, topo, instance, proposal, cfg, Mailbox::new())
    }

    /// Like [`ConsensusSm::new`] but adopting an existing [`Mailbox`] —
    /// the state-machine equivalent of the blocking instance functions'
    /// shared-mailbox parameter. Retrieve it back with
    /// [`ConsensusSm::into_mailbox`] once the machine terminates.
    pub fn with_mailbox(
        algorithm: Algorithm,
        me: ProcessId,
        topo: Arc<SmTopology>,
        instance: u64,
        proposal: Bit,
        cfg: ProtocolConfig,
        mailbox: Mailbox,
    ) -> Self {
        let n = topo.n();
        let units = topo.units(cfg.amplify);
        ConsensusSm {
            algorithm,
            me,
            topo,
            cfg,
            instance,
            est: proposal,
            round: 0,
            phase: Phase::One,
            tally: Tally::new(n, units),
            mailbox,
            outbox: Vec::new(),
            done: false,
        }
    }

    /// Releases the mailbox (with everything still buffered for future
    /// instances) so the next instance of a multi-instance layer can
    /// adopt it.
    pub fn into_mailbox(self) -> Mailbox {
        self.mailbox
    }

    /// This machine's process identity.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// `true` once a terminal [`Progress`] has been returned.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The machine's resumable wait state: instance, estimate,
    /// round/phase cursor, supporter tallies, and the mailbox. The outbox
    /// is omitted — it is provably empty at every suspension (each step
    /// `take`s it into the returned [`Progress`]).
    pub fn snapshot(&self) -> ConsensusSnap {
        ConsensusSnap {
            instance: self.instance,
            est: self.est,
            round: self.round,
            phase: self.phase,
            tally: self.tally.clone(),
            mailbox: self.mailbox.clone(),
            done: self.done,
        }
    }

    /// Loads a [`ConsensusSm::snapshot`] into this machine, built by
    /// [`ConsensusSm::new`] for the same process of the same scenario.
    ///
    /// # Errors
    ///
    /// A tally not shaped like this machine's (another `n`, or unit sets
    /// of another size); nothing is loaded then.
    pub fn restore(&mut self, snap: ConsensusSnap) -> Result<(), String> {
        self.tally.check_shape(&snap.tally)?;
        ConsensusSnap {
            instance: self.instance,
            est: self.est,
            round: self.round,
            phase: self.phase,
            tally: self.tally,
            mailbox: self.mailbox,
            done: self.done,
        } = snap;
        Ok(())
    }

    /// Hands a drained outbox buffer back to the machine so the next
    /// step's sends reuse its capacity instead of allocating. Engines
    /// call this after draining a [`Progress`]'s outbox; the machine's
    /// own buffer is empty at every suspension (it was `take`n into the
    /// progress value), so the swap never discards pending sends.
    /// Oversized buffers are dropped rather than retained (see
    /// `sm::recycle_into`).
    pub fn recycle_outbox(&mut self, buf: Outbox) {
        super::recycle_into(&mut self.outbox, buf);
    }

    /// Runs the machine up to its first suspension: proposes, enters
    /// round 1 (cluster pre-agreement + `PHASE1` broadcast) and pumps any
    /// buffered input. Call exactly once, before any [`ConsensusSm::on_msg`].
    pub fn start<C: SmCtx + ?Sized>(&mut self, ctx: &mut C) -> Progress {
        assert!(
            self.round == 0 && !self.done,
            "start() must be the first step"
        );
        ctx.observe(ObsEvent::Propose {
            instance: self.instance,
            value: self.est,
        });
        let res = self.next_round(ctx).and_then(|d| match d {
            Some(d) => Ok(Some(d)),
            None => self.pump(ctx),
        });
        self.finish_step(res, ctx)
    }

    /// Consumes one delivered message and advances as far as possible
    /// (an absorbed one only re-enters `recv`).
    ///
    /// # Panics
    ///
    /// Panics if called after a terminal `Progress` (the engine must stop
    /// stepping a finished machine).
    pub fn on_msg<C: SmCtx + ?Sized>(&mut self, msg: Msg, ctx: &mut C) -> Progress {
        assert!(!self.done, "on_msg() on a finished machine");
        if self.absorb_inert(msg) {
            return match ctx.begin_recv() {
                Ok(()) => Progress::NeedMsg,
                Err(h) => self.halt(h, ctx),
            };
        }
        let item = self
            .mailbox
            .accept(msg, self.instance, self.round, self.phase)
            .expect("absorb_inert refuses only what the mailbox serves");
        let res = self.apply(item, ctx).and_then(|d| match d {
            Some(d) => Ok(Some(d)),
            None => self.pump(ctx),
        });
        self.finish_step(res, ctx)
    }

    /// Applies `msg` if its delivery cannot reach [`SmCtx::cluster_propose`]
    /// and says whether it did (see [`super`], "Inert deliveries"): a
    /// credit short of a majority, or whatever the mailbox routes (stale,
    /// buffered, remembered, stashed). A completing credit and a `DECIDE`
    /// of this instance are refused, untouched. No pump follows a credit:
    /// the slot's buffer was drained when it opened, and a remembered
    /// `DECIDE` of this instance would have ended it.
    pub fn absorb_inert(&mut self, msg: Msg) -> bool {
        debug_assert!(!self.done, "absorb_inert() on a finished machine");
        match msg.kind {
            MsgKind::Phase {
                instance,
                round,
                phase,
                est,
            } if (instance, round, phase) == (self.instance, self.round, self.phase) => {
                let (unit, weight) = self.topo.unit_of(msg.from, self.cfg.amplify);
                if self.tally.would_complete(unit, weight) {
                    return false;
                }
                self.tally.credit(est, unit, weight);
                debug_assert!(
                    !self
                        .mailbox
                        .holds_for(self.instance, self.round, self.phase),
                    "the pump has nothing to serve after an inert credit"
                );
                true
            }
            MsgKind::Decide { instance, .. } if instance == self.instance => false,
            _ => {
                let served = self
                    .mailbox
                    .accept(msg, self.instance, self.round, self.phase);
                debug_assert!(served.is_none(), "the mailbox served {served:?}");
                true
            }
        }
    }

    /// Ends the machine externally — a crash event or run shutdown while
    /// the machine is suspended. Mirrors the blocking `recv` returning
    /// `Err(halt)`.
    pub fn halt<C: SmCtx + ?Sized>(&mut self, halt: Halt, ctx: &mut C) -> Progress {
        self.finish_step(Err(halt), ctx)
    }

    /// Converts a step result into [`Progress`], draining the outbox and
    /// emitting the end-of-instance mailbox report on terminal steps. A
    /// step that sent nothing leaves the (recycled) buffer in place.
    fn finish_step<C: SmCtx + ?Sized>(
        &mut self,
        res: Result<Option<Decision>, Halt>,
        ctx: &mut C,
    ) -> Progress {
        let report = |mailbox: &mut Mailbox, ctx: &mut C| {
            ctx.observe(ObsEvent::MailboxStats {
                stale_dropped: mailbox.take_stale_delta(),
            });
        };
        if matches!(res, Ok(None)) && self.outbox.is_empty() {
            return Progress::NeedMsg;
        }
        let outbox = std::mem::take(&mut self.outbox);
        match res {
            Ok(None) => Progress::Sent(outbox),
            Ok(Some(decision)) => {
                self.done = true;
                report(&mut self.mailbox, ctx);
                Progress::Decided(decision, outbox)
            }
            Err(halt) => {
                self.done = true;
                report(&mut self.mailbox, ctx);
                Progress::Halted(halt, outbox)
            }
        }
    }

    /// Serves buffered input for the current slot until the machine
    /// genuinely needs a fresh message (charging the `recv` entry) or
    /// terminates.
    fn pump<C: SmCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<Option<Decision>, Halt> {
        loop {
            match self
                .mailbox
                .take_buffered(self.instance, self.round, self.phase)
            {
                Some(item) => {
                    if let Some(d) = self.apply(item, ctx)? {
                        return Ok(Some(d));
                    }
                }
                None => {
                    ctx.begin_recv()?;
                    return Ok(None);
                }
            }
        }
    }

    /// Processes one mailbox item for the current exchange.
    fn apply<C: SmCtx + ?Sized>(
        &mut self,
        item: MailboxItem,
        ctx: &mut C,
    ) -> Result<Option<Decision>, Halt> {
        match item {
            MailboxItem::Decide { value } => self.decide(value, true, ctx).map(Some),
            MailboxItem::Phase { from, est } => {
                // Lines 5-6 of Algorithm 1: credit the sender (amplified
                // to its whole cluster when the switch is on)…
                let (unit, weight) = self.topo.unit_of(from, self.cfg.amplify);
                self.tally.credit(est, unit, weight);
                // …and exit once the supporters cover a strict majority.
                if self.tally.coverage_is_majority() {
                    self.complete_exchange(ctx)
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// The code after `msg_exchange` returns `Completed` — phase
    /// transition, decision, or next round.
    fn complete_exchange<C: SmCtx + ?Sized>(
        &mut self,
        ctx: &mut C,
    ) -> Result<Option<Decision>, Halt> {
        match (self.algorithm, self.phase) {
            (Algorithm::LocalCoin, Phase::One) => {
                // (6-7) est2 <- majority value or ⊥.
                let mut est2: Est = self.tally.majority_value();
                ctx.observe(ObsEvent::Est2 {
                    instance: self.instance,
                    round: self.round,
                    est2,
                });
                // (8) est2 <- CONS_x[r, 2].propose(est2)
                if self.cfg.cluster_preagree {
                    let decided = self.preagree(ctx, Phase::Two.slot_index(), est2.encode())?;
                    est2 = Est::decode(decided);
                }
                // (9) msg_exchange(r, 2, est2)
                self.begin_exchange(Phase::Two, est2, ctx)?;
                Ok(None)
            }
            (Algorithm::LocalCoin, Phase::Two) => {
                // (10-11) classify rec.
                let rec = self.tally.rec();
                ctx.observe(ObsEvent::Rec {
                    instance: self.instance,
                    round: self.round,
                    saw_zero: rec.saw_zero,
                    saw_one: rec.saw_one,
                    saw_bot: rec.saw_bot,
                });
                match rec.classify() {
                    // (12) rec = {v}: decide v.
                    crate::RecClass::Single(v) => self.decide(v, false, ctx).map(Some),
                    // (13) rec = {v, ⊥}: adopt v.
                    crate::RecClass::ValueAndBot(v) => {
                        self.est = v;
                        self.next_round(ctx)
                    }
                    // (14) rec = {⊥}: flip the local coin.
                    crate::RecClass::BotOnly => {
                        let c = ctx.local_coin()?;
                        ctx.observe(ObsEvent::Coin {
                            round: self.round,
                            common: false,
                            value: c,
                        });
                        self.est = c;
                        self.next_round(ctx)
                    }
                    // Unreachable when WA1 holds (see the blocking
                    // implementation for the E9 ablation rationale).
                    crate::RecClass::Conflict => {
                        self.est = Bit::Zero;
                        self.next_round(ctx)
                    }
                }
            }
            (Algorithm::CommonCoin, _) => {
                // (6) s <- common_coin(), at a per-instance offset.
                let coin_index = self
                    .instance
                    .wrapping_mul(0x1_0000_0000)
                    .wrapping_add(self.round);
                let coin = ctx.common_coin(coin_index)?;
                ctx.observe(ObsEvent::Coin {
                    round: self.round,
                    common: true,
                    value: coin,
                });
                // (7-10) decide when the coin matches the majority value.
                if let Some(v) = self.tally.majority_value() {
                    self.est = v;
                    if coin == v {
                        return self.decide(v, false, ctx).map(Some);
                    }
                } else {
                    self.est = coin;
                }
                self.next_round(ctx)
            }
        }
    }

    /// Lines 2-5: enter the next round — budget check, cluster
    /// pre-agreement, first (or only) exchange of the round.
    fn next_round<C: SmCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<Option<Decision>, Halt> {
        self.round += 1;
        if super::over_budget(&self.cfg, self.round) {
            return Err(Halt::Stopped);
        }
        ctx.observe(ObsEvent::RoundStart {
            instance: self.instance,
            round: self.round,
        });
        let slot_phase = match self.algorithm {
            Algorithm::LocalCoin => Phase::One.slot_index(),
            Algorithm::CommonCoin => CC_SLOT,
        };
        if self.cfg.cluster_preagree {
            let decided = self.preagree(ctx, slot_phase, self.est.encode())?;
            self.est = Bit::decode(decided);
        }
        self.begin_exchange(Phase::One, Some(self.est), ctx)?;
        Ok(None)
    }

    /// One intra-cluster consensus invocation plus its observation.
    fn preagree<C: SmCtx + ?Sized>(
        &mut self,
        ctx: &mut C,
        slot_phase: u8,
        enc: u64,
    ) -> Result<u64, Halt> {
        let slot = Slot::in_instance(self.instance, self.round, slot_phase);
        let decided = ctx.cluster_propose(slot, enc)?;
        ctx.observe(ObsEvent::ClusterAgreed { slot, decided });
        Ok(decided)
    }

    /// Starts `msg_exchange(r, ph, est)`: broadcast, fresh supporter
    /// tally.
    fn begin_exchange<C: SmCtx + ?Sized>(
        &mut self,
        phase: Phase,
        est: Est,
        ctx: &mut C,
    ) -> Result<(), Halt> {
        self.phase = phase;
        self.tally.reset();
        broadcast_into(
            &mut self.outbox,
            self.topo.n(),
            MsgKind::Phase {
                instance: self.instance,
                round: self.round,
                phase,
                est,
            },
            ctx,
        )
    }

    /// Decides `value` (line 12 direct / line 17 relayed): observe,
    /// broadcast `DECIDE`, return the decision.
    fn decide<C: SmCtx + ?Sized>(
        &mut self,
        value: Bit,
        relayed: bool,
        ctx: &mut C,
    ) -> Result<Decision, Halt> {
        ctx.observe(ObsEvent::Deciding {
            instance: self.instance,
            round: self.round,
            value,
            relayed,
        });
        broadcast_into(
            &mut self.outbox,
            self.topo.n(),
            MsgKind::Decide {
                instance: self.instance,
                value,
            },
            ctx,
        )?;
        Ok(Decision {
            value,
            round: self.round,
            relayed,
        })
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::super::{OutItem, Outbox, Progress, SmTopology};
    use super::*;
    use ofa_topology::Partition;
    use std::collections::HashMap;

    /// Deterministic test ctx: first-wins cluster objects, scripted
    /// coins, counted ops, optional crash at the k-th fallible call.
    pub(in crate::sm) struct TestCtx {
        cluster: HashMap<Slot, u64>,
        coin: Bit,
        pub(in crate::sm) calls: u64,
        /// `cluster_propose` calls, counted on entry (crashing ones too).
        pub(in crate::sm) proposes: u64,
        pub(in crate::sm) crash_after: Option<u64>,
        pub(in crate::sm) events: Vec<ObsEvent>,
    }

    impl TestCtx {
        pub(in crate::sm) fn new(coin: Bit) -> Self {
            TestCtx {
                cluster: HashMap::new(),
                coin,
                calls: 0,
                proposes: 0,
                crash_after: None,
                events: Vec::new(),
            }
        }

        fn step(&mut self) -> Result<(), Halt> {
            self.calls += 1;
            if let Some(k) = self.crash_after {
                if self.calls > k {
                    return Err(Halt::Crashed);
                }
            }
            Ok(())
        }
    }

    impl SmCtx for TestCtx {
        fn send(&mut self, _to: ProcessId, _msg: MsgKind) -> Result<u64, Halt> {
            self.step()?;
            Ok(0)
        }
        fn begin_recv(&mut self) -> Result<(), Halt> {
            self.step()
        }
        fn cluster_propose(&mut self, slot: Slot, enc: u64) -> Result<u64, Halt> {
            self.proposes += 1;
            self.step()?;
            Ok(*self.cluster.entry(slot).or_insert(enc))
        }
        fn local_coin(&mut self) -> Result<Bit, Halt> {
            self.step()?;
            Ok(self.coin)
        }
        fn common_coin(&mut self, _index: u64) -> Result<Bit, Halt> {
            self.step()?;
            Ok(self.coin)
        }
        fn observe(&mut self, event: ObsEvent) {
            self.events.push(event);
        }
    }

    /// `step` on a fresh context whose first call crashes — the `recv`
    /// entry, for a delivery the machine absorbs — and what it observed.
    pub(in crate::sm) fn crashing<P>(step: impl FnOnce(&mut TestCtx) -> P) -> (P, Vec<ObsEvent>) {
        let mut ctx = TestCtx::new(Bit::Zero);
        ctx.crash_after = Some(0);
        let progress = step(&mut ctx);
        (progress, ctx.events)
    }

    /// The next draw of a small deterministic generator (an LCG's high
    /// bits).
    pub(in crate::sm) fn draw(rng: &mut u64) -> u64 {
        *rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *rng >> 33
    }

    pub(in crate::sm) fn payload(s: &str) -> crate::Payload {
        crate::Payload::from_bytes(s.as_bytes()).expect("fits")
    }

    /// Queues a solo machine's sends to itself, one message per item (a
    /// broadcast reaches the only process once).
    pub(in crate::sm) fn loop_back(queue: &mut Vec<Msg>, outbox: Outbox) {
        queue.extend(outbox.into_iter().map(|item| Msg {
            from: ProcessId(0),
            kind: match item {
                OutItem::One(o) => o.msg,
                OutItem::Broadcast { msg, .. } => msg,
            },
        }));
    }

    fn solo(algorithm: Algorithm, proposal: Bit) -> ConsensusSm {
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(1)));
        ConsensusSm::new(
            algorithm,
            ProcessId(0),
            topo,
            0,
            proposal,
            ProtocolConfig::paper(),
        )
    }

    /// A copy of `sm` through its snapshot.
    fn restored(sm: &ConsensusSm) -> ConsensusSm {
        let topo = Arc::clone(&sm.topo);
        let mut copy = ConsensusSm::new(sm.algorithm, sm.me, topo, 0, Bit::Zero, sm.cfg);
        copy.restore(sm.snapshot()).expect("restores");
        copy
    }

    /// A snapshot loads only into a machine of its own universe: a
    /// tally for three processes is refused by a machine of four, which
    /// keeps its own state.
    #[test]
    fn restore_refuses_a_tally_of_another_universe() {
        let machine = |n| {
            let topo = Arc::new(SmTopology::new(Partition::single_cluster(n)));
            let cfg = ProtocolConfig::paper();
            ConsensusSm::new(Algorithm::LocalCoin, ProcessId(0), topo, 0, Bit::One, cfg)
        };
        let mut four = machine(4);
        let before = four.snapshot();
        let refused = four.restore(machine(3).snapshot()).unwrap_err();
        assert!(refused.starts_with("its tally"), "{refused}");
        assert_eq!(four.snapshot(), before);
        four.restore(machine(4).snapshot()).expect("same universe");
    }

    /// Feeds a solo machine its own outbox until a terminal progress.
    fn run_solo(mut sm: ConsensusSm, ctx: &mut TestCtx) -> Progress {
        let mut queue: Vec<Msg> = Vec::new();
        match sm.start(ctx) {
            Progress::Sent(out) => loop_back(&mut queue, out),
            Progress::NeedMsg => {}
            terminal => return terminal,
        }
        while !queue.is_empty() {
            let msg = queue.remove(0);
            match sm.on_msg(msg, ctx) {
                Progress::Sent(out) => loop_back(&mut queue, out),
                Progress::NeedMsg => {}
                terminal => return terminal,
            }
        }
        panic!("solo machine starved without deciding");
    }

    #[test]
    fn solo_local_coin_decides_own_proposal_in_round_one() {
        for v in Bit::ALL {
            let mut ctx = TestCtx::new(Bit::Zero);
            let progress = run_solo(solo(Algorithm::LocalCoin, v), &mut ctx);
            let Progress::Decided(d, _) = progress else {
                panic!("expected decision, got {progress:?}");
            };
            assert_eq!(d.value, v, "validity");
            assert_eq!(d.round, 1);
            assert!(!d.relayed);
        }
    }

    #[test]
    fn solo_common_coin_waits_for_matching_coin() {
        // Coin constantly 0, proposal 1: the machine must keep the
        // estimate at 1 (line 8) and never decide within the budget.
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(1)));
        let sm = ConsensusSm::new(
            Algorithm::CommonCoin,
            ProcessId(0),
            topo,
            0,
            Bit::One,
            ProtocolConfig::paper().with_max_rounds(5),
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        let progress = run_solo(sm, &mut ctx);
        assert_eq!(progress, Progress::Halted(Halt::Stopped, Vec::new()));

        // Coin 1: decides immediately.
        let mut ctx = TestCtx::new(Bit::One);
        let progress = run_solo(solo(Algorithm::CommonCoin, Bit::One), &mut ctx);
        let Progress::Decided(d, _) = progress else {
            panic!("expected decision, got {progress:?}");
        };
        assert_eq!(d.value, Bit::One);
        assert_eq!(d.round, 1);
    }

    #[test]
    fn zero_round_budget_stops_before_any_exchange() {
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(1)));
        let mut sm = ConsensusSm::new(
            Algorithm::LocalCoin,
            ProcessId(0),
            topo,
            0,
            Bit::One,
            ProtocolConfig::paper().with_max_rounds(0),
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        assert_eq!(sm.start(&mut ctx), Progress::Halted(Halt::Stopped, vec![]));
        assert!(sm.is_done());
    }

    #[test]
    fn relayed_decide_is_adopted_and_rebroadcast() {
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(2)));
        let mut sm = ConsensusSm::new(
            Algorithm::LocalCoin,
            ProcessId(0),
            Arc::clone(&topo),
            0,
            Bit::Zero,
            ProtocolConfig::paper(),
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        assert!(matches!(sm.start(&mut ctx), Progress::Sent(_)));
        let progress = sm.on_msg(
            Msg {
                from: ProcessId(1),
                kind: MsgKind::Decide {
                    instance: 0,
                    value: Bit::One,
                },
            },
            &mut ctx,
        );
        let Progress::Decided(d, outbox) = progress else {
            panic!("expected relayed decision, got {progress:?}");
        };
        assert_eq!(d.value, Bit::One);
        assert!(d.relayed);
        // The DECIDE must be relayed exactly once, as one broadcast.
        assert_eq!(
            outbox,
            vec![OutItem::Broadcast {
                msg: MsgKind::Decide {
                    instance: 0,
                    value: Bit::One
                },
                sent_at: 0,
                stride: 0
            }]
        );
    }

    #[test]
    fn crash_mid_broadcast_keeps_the_sent_prefix() {
        // n = 3, crash at the 3rd fallible call: cluster_propose, then
        // one successful send, then the second send crashes.
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(3)));
        let mut sm = ConsensusSm::new(
            Algorithm::LocalCoin,
            ProcessId(0),
            topo,
            0,
            Bit::One,
            ProtocolConfig::paper(),
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        ctx.crash_after = Some(2);
        let progress = sm.start(&mut ctx);
        let Progress::Halted(Halt::Crashed, outbox) = progress else {
            panic!("expected crash, got {progress:?}");
        };
        assert_eq!(outbox.len(), 1, "exactly the pre-crash send survives");
        assert!(matches!(outbox[0], OutItem::One(o) if o.to == ProcessId(0)));
        assert!(sm.is_done());
    }

    #[test]
    fn irrelevant_message_costs_one_recv_entry() {
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(2)));
        let mut sm = ConsensusSm::new(
            Algorithm::LocalCoin,
            ProcessId(0),
            topo,
            0,
            Bit::One,
            ProtocolConfig::paper(),
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        assert!(matches!(sm.start(&mut ctx), Progress::Sent(_)));
        let calls_before = ctx.calls;
        let progress = sm.on_msg(
            Msg {
                from: ProcessId(1),
                kind: MsgKind::Phase {
                    instance: 0,
                    round: 9,
                    phase: Phase::One,
                    est: Some(Bit::Zero),
                },
            },
            &mut ctx,
        );
        // Future-slot message: buffered, machine re-enters recv (1 call).
        assert_eq!(progress, Progress::NeedMsg);
        assert_eq!(ctx.calls, calls_before + 1);
    }

    /// Clusters `{p0} {p1 p2} {p3}`: a strict majority of n = 4 takes
    /// three processes' worth of coverage. Only the credit that reaches it
    /// (and a `DECIDE` of the instance) is not inert — and that credit is
    /// the one that pre-agrees in the cluster.
    #[test]
    fn only_a_completing_credit_or_a_current_decide_is_not_inert() {
        let part = Partition::from_sizes(&[1, 2, 1]).expect("valid sizes");
        let topo = Arc::new(SmTopology::new(part));
        let mut sm = ConsensusSm::new(
            Algorithm::LocalCoin,
            ProcessId(0),
            topo,
            0,
            Bit::One,
            ProtocolConfig::paper(),
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        assert!(matches!(sm.start(&mut ctx), Progress::Sent(_)));
        let absorbs = |sm: &ConsensusSm, m| restored(sm).absorb_inert(m);
        let msg = |from: usize, instance: u64, round: u64, phase: Phase| Msg {
            from: ProcessId(from),
            kind: MsgKind::Phase {
                instance,
                round,
                phase,
                est: Some(Bit::One),
            },
        };
        let decide = |instance: u64| Msg {
            from: ProcessId(3),
            kind: MsgKind::Decide {
                instance,
                value: Bit::One,
            },
        };
        let app = Msg {
            from: ProcessId(1),
            kind: MsgKind::App {
                instance: 0,
                seq: 1,
                payload: crate::Payload::empty(),
            },
        };
        // Other exchanges, other instances' decides and any APP.
        for other in [
            msg(1, 0, 0, Phase::One),
            msg(1, 0, 1, Phase::Two),
            msg(1, 0, 2, Phase::One),
            msg(1, 1, 1, Phase::One),
            decide(1),
            app,
        ] {
            assert!(absorbs(&sm, other), "{other:?}");
        }
        assert!(!absorbs(&sm, decide(0)));
        // p1 covers its cluster (2 of 4): not yet a majority.
        let p1 = msg(1, 0, 1, Phase::One);
        assert!(absorbs(&sm, p1));
        let proposes = ctx.proposes;
        assert_eq!(sm.on_msg(p1, &mut ctx), Progress::NeedMsg);
        assert_eq!(ctx.proposes, proposes);
        // p2 is in the covered cluster; p0 and p3 would each complete.
        assert!(absorbs(&sm, msg(2, 0, 1, Phase::One)));
        let p3 = msg(3, 0, 1, Phase::One);
        assert!(!absorbs(&sm, msg(0, 0, 1, Phase::One)));
        assert!(!absorbs(&sm, p3));
        assert!(matches!(sm.on_msg(p3, &mut ctx), Progress::Sent(_)));
        assert_eq!(ctx.proposes, proposes + 1, "phase two pre-agrees");
        // The exchange moved on: phase one is stale now, and a lone
        // phase-two credit from p0 covers a quarter.
        assert!(absorbs(&sm, msg(0, 0, 1, Phase::One)));
        assert!(absorbs(&sm, msg(0, 0, 1, Phase::Two)));
    }

    /// `absorb_inert` against `on_msg` on the same machine state, in the
    /// `{p0} {p1 p2} {p3}` world of the test above: a stale `PHASE` is
    /// counted into `stale_dropped`, a future one is buffered, a short
    /// credit enters the tally — each exactly as `on_msg` leaves it, which
    /// took one context call — and the completing credit is refused,
    /// untouched.
    #[test]
    fn absorb_inert_applies_what_on_msg_does_and_refuses_a_completing_credit() {
        let part = Partition::from_sizes(&[1, 2, 1]).expect("valid sizes");
        let topo = Arc::new(SmTopology::new(part));
        let (algorithm, cfg) = (Algorithm::LocalCoin, ProtocolConfig::paper());
        let mut sm = ConsensusSm::new(algorithm, ProcessId(0), Arc::clone(&topo), 0, Bit::One, cfg);
        let mut ctx = TestCtx::new(Bit::Zero);
        assert!(matches!(sm.start(&mut ctx), Progress::Sent(_)));
        let msg = |from: usize, round: u64, phase: Phase| Msg {
            from: ProcessId(from),
            kind: MsgKind::Phase {
                instance: 0,
                round,
                phase,
                est: Some(Bit::One),
            },
        };
        // `sm` absorbs; its twin, restored from the same snapshot, steps.
        let mut both = |sm: &mut ConsensusSm, m: Msg| {
            let (snap, mut twin) = (sm.snapshot(), restored(sm));
            let absorbed = sm.absorb_inert(m);
            if absorbed {
                let calls = ctx.calls;
                assert_eq!(twin.on_msg(m, &mut ctx), Progress::NeedMsg);
                assert_eq!(ctx.calls, calls + 1, "the recv entry only");
                assert_eq!(sm.snapshot(), twin.snapshot());
            } else {
                assert_eq!(sm.snapshot(), snap, "a refusal touches nothing");
            }
            absorbed
        };
        assert!(both(&mut sm, msg(1, 0, Phase::One)), "stale");
        assert_eq!(sm.mailbox.stale_dropped(), 1);
        assert!(both(&mut sm, msg(3, 2, Phase::One)), "future");
        assert_eq!(sm.mailbox.buffered(), 1);
        assert!(both(&mut sm, msg(1, 1, Phase::One)), "p1 covers 2 of 4");
        assert!(
            both(&mut sm, msg(2, 1, Phase::One)),
            "p2 is in p1's cluster"
        );
        assert!(!both(&mut sm, msg(3, 1, Phase::One)), "p3 completes");
        assert!(!both(&mut sm, msg(0, 1, Phase::One)), "so would p0");
        assert_eq!((sm.mailbox.stale_dropped(), sm.mailbox.buffered()), (1, 1));
    }

    /// A crash trigger on the `recv` entry of an absorbed (stale)
    /// delivery: `on_msg` returns what absorbing it and then `halt` return
    /// on a twin restored from the same snapshot, with the same events — a
    /// mailbox report that counts the stale message.
    #[test]
    fn crash_on_an_absorbed_delivery_is_absorb_then_halt() {
        let (mut sm, mut ctx) = (solo(Algorithm::LocalCoin, Bit::One), TestCtx::new(Bit::One));
        assert!(matches!(sm.start(&mut ctx), Progress::Sent(_)));
        let mut twin = restored(&sm);
        let stale = Msg {
            from: ProcessId(0),
            kind: MsgKind::Phase {
                instance: 0,
                round: 0,
                phase: Phase::One,
                est: None,
            },
        };
        assert!(twin.absorb_inert(stale));
        let halted = crashing(|ctx| twin.halt(Halt::Crashed, ctx));
        assert_eq!(crashing(|ctx| sm.on_msg(stale, ctx)), halted);
        assert_eq!(halted.0, Progress::Halted(Halt::Crashed, vec![]));
        assert_eq!(halted.1, [ObsEvent::MailboxStats { stale_dropped: 1 }]);
    }

    #[test]
    fn a_recycled_outbox_survives_a_stale_delivery() {
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(2)));
        let mut sm = ConsensusSm::new(
            Algorithm::LocalCoin,
            ProcessId(0),
            topo,
            0,
            Bit::One,
            ProtocolConfig::paper(),
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        let Progress::Sent(mut outbox) = sm.start(&mut ctx) else {
            panic!("start broadcasts PHASE1");
        };
        outbox.clear();
        outbox.reserve(8);
        let capacity = outbox.capacity();
        sm.recycle_outbox(outbox);
        // A round-0 message in round 1: stale, nothing to send.
        let stale = MsgKind::Phase {
            instance: 0,
            round: 0,
            phase: Phase::One,
            est: Some(Bit::Zero),
        };
        let progress = sm.on_msg(
            Msg {
                from: ProcessId(1),
                kind: stale,
            },
            &mut ctx,
        );
        assert_eq!(progress, Progress::NeedMsg);
        assert_eq!(sm.outbox.capacity(), capacity, "the buffer is still there");
    }

    #[test]
    fn mailbox_hands_over_between_instances() {
        // A message for instance 1 delivered during instance 0 must
        // survive the handoff into the next machine.
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(2)));
        let mut sm = ConsensusSm::new(
            Algorithm::LocalCoin,
            ProcessId(0),
            Arc::clone(&topo),
            0,
            Bit::Zero,
            ProtocolConfig::paper(),
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        assert!(matches!(sm.start(&mut ctx), Progress::Sent(_)));
        // Deliver a future-instance decide: buffered, not served.
        assert_eq!(
            sm.on_msg(
                Msg {
                    from: ProcessId(1),
                    kind: MsgKind::Decide {
                        instance: 1,
                        value: Bit::One,
                    },
                },
                &mut ctx,
            ),
            Progress::NeedMsg
        );
        // End instance 0 via a same-instance decide.
        let progress = sm.on_msg(
            Msg {
                from: ProcessId(1),
                kind: MsgKind::Decide {
                    instance: 0,
                    value: Bit::Zero,
                },
            },
            &mut ctx,
        );
        assert!(matches!(progress, Progress::Decided(..)));
        // Instance 1 adopts the mailbox and is short-circuited by the
        // remembered decide before any message arrives.
        let mut next = ConsensusSm::with_mailbox(
            Algorithm::LocalCoin,
            ProcessId(0),
            topo,
            1,
            Bit::Zero,
            ProtocolConfig::paper(),
            sm.into_mailbox(),
        );
        let progress = next.start(&mut ctx);
        let Progress::Decided(d, _) = progress else {
            panic!("expected relayed decision, got {progress:?}");
        };
        assert_eq!(d.value, Bit::One);
        assert!(d.relayed);
    }

    #[test]
    fn mailbox_stats_are_reported_on_termination() {
        let topo = Arc::new(SmTopology::new(Partition::single_cluster(1)));
        let mut sm = ConsensusSm::new(
            Algorithm::LocalCoin,
            ProcessId(0),
            topo,
            0,
            Bit::One,
            ProtocolConfig::paper().with_max_rounds(0),
        );
        let mut ctx = TestCtx::new(Bit::Zero);
        let _ = sm.start(&mut ctx);
        assert!(ctx
            .events
            .iter()
            .any(|e| matches!(e, ObsEvent::MailboxStats { .. })));
    }
}
