//! The event engines' per-process half: resumable state machines, no
//! threads.
//!
//! The thread conductor (`conductor.rs`) runs the blocking `Env`-trait
//! algorithms by giving every simulated process its own OS thread and
//! serializing them with a rendezvous baton — two context switches per
//! burst, a few thousand processes at most. The event engines replace
//! the thread per process with an `ofa_core::sm` state machine — a
//! [`ConsensusSm`] for binary bodies, a [`MultivaluedSm`] for
//! multivalued workloads, a [`LogSm`] for replicated logs — wrapped here
//! as a [`Machine`], with its accounting in a [`ProcState`] and its
//! per-step services in an [`EventCtx`]. The loop that dispatches their
//! steps straight off a heap of pending events is the sharded event
//! loop in `par.rs`; [`Engine::EventDriven`](ofa_scenario::Engine) is
//! that loop with one shard on the calling thread — no spawned threads,
//! no baton, no channels.
//!
//! It is **observationally identical** to the conductor. What a step is,
//! when a step- or round-indexed crash fires and how an observation
//! counts is one [`ProcAccount`], shared with the conductor's `SimEnv`
//! and the thread runtime. The rest of a step — its virtual-time cost,
//! its per-operation counter and its trace record — [`EventCtx`] charges
//! itself, written apart from `SimEnv` but in the same order; and the
//! machines mirror the blocking algorithms operation for operation, so
//! the same scenario
//! produces the same decisions, counters, event counts — and the same
//! trace hash, bit for bit (`tests/engine_equivalence.rs`, across all
//! three declarative body kinds). What changes is the constant factor and
//! the ceiling: a burst is a function call, and whole broadcasts stay
//! single queue entries (read whole in the tick they land in under a
//! constant delay), so
//! the benchmark's `consensus-fastpath` cell (`n = 5 000`, 7.5·10⁷
//! events) finishes in about a second on one core, and its `kv-serve`
//! cell runs the replicated KV at `n = 1 000`.
//!
//! Most deliveries are not a step at all. A process leaves a message
//! exchange once its supporters cover a majority of cluster weight, so
//! nearly every delivery (99.9 % on the benchmark's cells) leaves the
//! recipient where it was: it cannot reach the cluster's shared memory.
//! Every machine's `on_msg` is `absorb_inert` followed by the `recv`
//! entry step, or, where `absorb_inert` refuses, the step that can reach
//! the cluster. The loop makes the first half of that call itself
//! ([`Machine::absorb_inert`], no context) and charges the `recv` entry
//! through [`ProcAccount::step`], the step function [`EventCtx`] uses
//! too. A step-indexed crash that fires there halts the process through
//! [`Machine::halt`], which is what `on_msg` does when its `begin_recv`
//! fails: the same terminal mailbox report, the same empty outbox. Only
//! the refused deliveries build an [`EventCtx`] and step the machine.

use crate::backend::RunSpec;
use crate::checkpoint::{Finished, ProcSnap};
use ofa_coins::SeededLocalCoin;
use ofa_core::sm::{
    ConsensusSm, ConsensusSnap, LogSm, LogSnap, MultivaluedSm, MvProgress, MvSnap, OutItem,
    Progress, SmCtx, SmTopology,
};
use ofa_core::TrafficState;
use ofa_core::{mv_body_decision, Bit, Decision, Halt, Msg, MsgKind, ObsEvent};
use ofa_metrics::ServiceStats;
use ofa_scenario::{Body, CrashPlan, ProcAccount, TraceEvent, TraceRecorder, VirtualTime};
use ofa_sharedmem::{ClusterMemory, Slot};
use ofa_topology::ProcessId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One process's machine, shaped by the scenario body. The multivalued
/// variant adapts [`MvProgress`] to [`Progress`] via
/// [`mv_body_decision`], exactly like the blocking body wrapper.
// A run's machine population is homogeneous — every element of the
// machines vec is the same variant — so boxing `LogSm` (which carries
// the traffic queue inline) would buy nothing for mixed workloads and
// cost a pointer chase per step on SMR runs.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Machine {
    Consensus(ConsensusSm),
    Multivalued(MultivaluedSm),
    Log(LogSm),
}

impl Machine {
    /// Builds process `i`'s machine as a fresh run of `spec` does: the
    /// one constructor, which a resumed process takes too before its
    /// snapshot is loaded ([`Machine::restore`]).
    ///
    /// # Panics
    ///
    /// Panics on [`Body::Custom`] — custom bodies are blocking code;
    /// route them to the thread conductor.
    pub(crate) fn build(spec: &RunSpec, topo: &Arc<SmTopology>, i: usize) -> Machine {
        let (me, topo, config) = (ProcessId(i), Arc::clone(topo), spec.config);
        match &spec.body {
            Body::Algo(alg) => Machine::Consensus(ConsensusSm::new(
                *alg,
                me,
                topo,
                0,
                spec.proposals[i],
                config,
            )),
            Body::Multivalued(mv) => Machine::Multivalued(MultivaluedSm::new(
                mv.algorithm,
                me,
                topo,
                0,
                mv.proposals[i],
                config,
            )),
            Body::ReplicatedLog(smr) => {
                // Like `Env::serves_traffic`, a churn-planned process
                // proposes empty filler slots in both incarnations, not
                // clock-dependent batches: a restarted proposer could not
                // re-broadcast its first incarnation's batches
                // identically, which the reduction's agreement requires.
                let serves = spec.churn.event(me).is_none();
                let n = topo.partition().n() as u32;
                let traffic = (smr.traffic.as_ref().filter(|_| serves))
                    .map(|t| TrafficState::new(t, spec.seed, i as u32, n));
                Machine::Log(LogSm::new(
                    smr.algorithm,
                    me,
                    topo,
                    smr.queues.get(i).cloned().unwrap_or_default(),
                    smr.slots,
                    config,
                    traffic,
                ))
            }
            Body::Custom(_) => {
                panic!("the event-driven engines run declarative bodies only")
            }
        }
    }

    pub(crate) fn start(&mut self, ctx: &mut EventCtx<'_>) -> Progress {
        match self {
            Machine::Consensus(sm) => sm.start(ctx),
            Machine::Multivalued(sm) => adapt(sm.start(ctx)),
            Machine::Log(sm) => sm.start(ctx),
        }
    }

    pub(crate) fn on_msg(&mut self, msg: Msg, ctx: &mut EventCtx<'_>) -> Progress {
        match self {
            Machine::Consensus(sm) => sm.on_msg(msg, ctx),
            Machine::Multivalued(sm) => adapt(sm.on_msg(msg, ctx)),
            Machine::Log(sm) => sm.on_msg(msg, ctx),
        }
    }

    /// Applies `msg` if its delivery cannot reach the cluster's shared
    /// memory (`ofa_core::sm`, "Inert deliveries") and says whether it
    /// did: the call every `on_msg` starts with, so an absorbed delivery
    /// is all of `on_msg` but the `recv` entry step, which the caller
    /// charges with [`ProcAccount::step`]. Such a delivery commutes
    /// with every delivery to another process. `false` leaves the machine
    /// untouched, for `on_msg` (which asks again and steps).
    pub(crate) fn absorb_inert(&mut self, msg: Msg) -> bool {
        match self {
            Machine::Consensus(sm) => sm.absorb_inert(msg),
            Machine::Multivalued(sm) => sm.absorb_inert(msg),
            Machine::Log(sm) => sm.absorb_inert(msg),
        }
    }

    pub(crate) fn halt(&mut self, halt: Halt, ctx: &mut EventCtx<'_>) -> Progress {
        match self {
            Machine::Consensus(sm) => sm.halt(halt, ctx),
            Machine::Multivalued(sm) => adapt(sm.halt(halt, ctx)),
            Machine::Log(sm) => sm.halt(halt, ctx),
        }
    }

    /// Returns a drained outbox buffer to the machine for reuse by the
    /// next step (allocation-free stepping — the buffer cycles
    /// machine → scheduler drain → machine).
    pub(crate) fn recycle_outbox(&mut self, buf: Vec<OutItem>) {
        match self {
            Machine::Consensus(sm) => sm.recycle_outbox(buf),
            Machine::Multivalued(sm) => sm.recycle_outbox(buf),
            Machine::Log(sm) => sm.recycle_outbox(buf),
        }
    }

    /// The machine's resumable state (wait state, tallies, mailboxes,
    /// stage position) for a checkpoint. Outboxes are always empty at
    /// suspension points (every step `mem::take`s them into its
    /// `Progress`), so they are not captured.
    pub(crate) fn snapshot(&self) -> MachineSnap {
        match self {
            Machine::Consensus(sm) => MachineSnap::Consensus(sm.snapshot()),
            Machine::Multivalued(sm) => MachineSnap::Multivalued(sm.snapshot()),
            Machine::Log(sm) => MachineSnap::Log(sm.snapshot()),
        }
    }

    /// Loads a [`Machine::snapshot`] into this machine, built by
    /// [`Machine::build`] for the same process.
    ///
    /// # Errors
    ///
    /// A snapshot of another body kind or of a finished machine (a
    /// checkpoint writes a finished process as `null`), or what the
    /// machine's own `restore` refuses.
    pub(crate) fn restore(&mut self, snap: MachineSnap) -> Result<(), String> {
        match (&mut *self, snap) {
            (Machine::Consensus(sm), MachineSnap::Consensus(s)) => sm.restore(s)?,
            (Machine::Multivalued(sm), MachineSnap::Multivalued(s)) => sm.restore(s)?,
            (Machine::Log(sm), MachineSnap::Log(s)) => sm.restore(s)?,
            _ => return Err("it is of another body kind than the scenario's".into()),
        }
        let done = match self {
            Machine::Consensus(sm) => sm.is_done(),
            Machine::Multivalued(sm) => sm.is_done(),
            Machine::Log(sm) => sm.is_done(),
        };
        if done {
            return Err("it has finished, but its process has not".into());
        }
        Ok(())
    }
}

/// A [`Machine`]'s checkpoint, tagged by its layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum MachineSnap {
    Consensus(ConsensusSnap),
    Multivalued(MvSnap),
    Log(LogSnap),
}

/// [`MvProgress`] → [`Progress`] for a multivalued *body*: terminal
/// decisions reduce to the digest-parity binary decision.
fn adapt(progress: MvProgress) -> Progress {
    match progress {
        MvProgress::NeedMsg => Progress::NeedMsg,
        MvProgress::Sent(out) => Progress::Sent(out),
        MvProgress::Decided(mv, out) => Progress::Decided(mv_body_decision(&mv), out),
        MvProgress::Halted(h, out) => Progress::Halted(h, out),
    }
}

/// Mutable per-process execution state: the process's clock, coin
/// stream and terminal result, beside the [`ProcAccount`] the conductor
/// and the thread runtime keep too (steps, step and round triggers,
/// counters, service statistics). Each state is stepped by exactly one
/// thread, so none of it is atomic.
// `repr(C)` puts the clock beside the head of the account, which every
// delivery charges too. With rustc's own field order here and in
// `ProcAccount`, `kv-faults` took ≈ 5 % more CPU time (paired runs on a
// shared 2-core x86-64 host).
#[repr(C)]
pub(crate) struct ProcState {
    pub(crate) clock: u64,
    /// Persists across churn incarnations: a rejoin resets its steps and
    /// crash flag, and the second incarnation's emissions add to it.
    pub(crate) account: ProcAccount,
    local_coin: SeededLocalCoin,
    pub(crate) finished: Option<(Result<Decision, Halt>, u64)>,
}

impl ProcState {
    /// Fresh state for process `pid` under the run's crash plan.
    pub(crate) fn for_process(seed: u64, pid: ProcessId, crash_plan: &CrashPlan) -> Self {
        ProcState {
            clock: 0,
            local_coin: SeededLocalCoin::for_process(seed, pid),
            account: ProcAccount::new(crash_plan, pid),
            finished: None,
        }
    }

    /// Captures this process's accounting for a checkpoint.
    pub(crate) fn snapshot(&self) -> ProcSnap {
        let (coin_rng, coin_flips) = self.local_coin.state();
        ProcSnap {
            clock: self.clock,
            steps: self.account.steps,
            crashed_self: self.account.crashed_self,
            coin_rng,
            coin_flips,
            counters: self.account.counters,
            service: self.account.service.clone(),
            finished: self.finished.map(Finished::new),
        }
    }

    /// Rebuilds a process from a checkpoint. Crash triggers are
    /// re-derived from the *resume* plan (not stored), so a divergent
    /// replay's extra step/round triggers apply to still-running
    /// processes.
    pub(crate) fn restore(snap: &ProcSnap, pid: ProcessId, crash_plan: &CrashPlan) -> Self {
        let mut account = ProcAccount::new(crash_plan, pid);
        account.steps = snap.steps;
        account.crashed_self = snap.crashed_self;
        account.counters = snap.counters;
        account.service = snap.service.clone();
        ProcState {
            clock: snap.clock,
            local_coin: SeededLocalCoin::from_state(snap.coin_rng, snap.coin_flips),
            account,
            finished: snap.finished.and_then(|f| f.get()),
        }
    }

    /// Wake-up + receive accounting for one delivery — the conductor
    /// charges these inside the blocked `recv` when the baton returns.
    pub(crate) fn on_delivered(&mut self, at: u64, recv_cost: u64) {
        self.clock = self.clock.max(at);
        self.clock += recv_cost;
        self.account.counters.messages_delivered += 1;
    }

    /// Wake-up accounting for a timed crash event.
    pub(crate) fn on_crash_event(&mut self, at: u64) {
        self.clock = self.clock.max(at);
    }

    /// Resets runtime state for a churn rejoin: the second incarnation
    /// starts with the rejoin-domain coin stream, its clock at the rejoin
    /// time (or the clock the first incarnation crashed at, whichever is
    /// later — matching the conductor's fresh seat), and its account
    /// reset ([`ProcAccount::rejoin`]).
    pub(crate) fn rejoin(&mut self, coin_seed: u64, pid: ProcessId, at: u64) {
        let crash_clock = self.finished.as_ref().map(|(_, c)| *c).unwrap_or(0);
        self.clock = crash_clock.max(at);
        self.account.rejoin();
        self.local_coin = SeededLocalCoin::for_process(coin_seed, pid);
        self.finished = None;
    }

    /// Records the terminal trace event and stores the result — what the
    /// conductor does when a process thread reports `Finished`.
    pub(crate) fn finish(
        &mut self,
        who: ProcessId,
        result: Result<Decision, Halt>,
        trace: &mut TraceRecorder,
    ) {
        let clock = self.clock;
        let event = match &result {
            Ok(d) => TraceEvent::Decided { who, decision: *d },
            Err(h) => TraceEvent::Halted { who, halt: *h },
        };
        trace.record(VirtualTime::from_ticks(clock), event);
        self.finished = Some((result, clock));
    }

    /// Assembles the per-step [`SmCtx`] over this state — the one place
    /// the borrow split between process state and run-wide services is
    /// spelled out. The context borrows the state whole: a process stepped
    /// again right after its previous step reads the fields that step just
    /// wrote, in place, instead of copying them out first.
    pub(crate) fn ctx<'a>(
        &'a mut self,
        me: ProcessId,
        spec: &'a RunSpec,
        memory: &'a ClusterMemory,
        trace: &'a mut TraceRecorder,
    ) -> EventCtx<'a> {
        EventCtx {
            me,
            spec,
            state: self,
            memory,
            trace,
        }
    }
}

/// What to feed a machine on dispatch.
pub(crate) enum Input {
    Start,
    Deliver(Msg),
    End(Halt),
}

/// The [`SmCtx`] the engine hands a machine for one step: steps and
/// observations go to the process's [`ProcAccount`], the rules every
/// environment shares; the virtual-time costs, per-operation counters
/// and trace records are charged here, written independently of the
/// conductor's `SimEnv`, in the same order.
pub(crate) struct EventCtx<'a> {
    me: ProcessId,
    /// The run-wide services: costs, the common coin, the observer.
    spec: &'a RunSpec,
    state: &'a mut ProcState,
    memory: &'a ClusterMemory,
    trace: &'a mut TraceRecorder,
}

impl EventCtx<'_> {
    /// One environment call ([`ProcAccount::step`]).
    fn step(&mut self) -> Result<(), Halt> {
        self.state.account.step()
    }

    fn record(&mut self, event: TraceEvent) {
        self.trace
            .record(VirtualTime::from_ticks(self.state.clock), event);
    }
}

impl SmCtx for EventCtx<'_> {
    fn send(&mut self, to: ProcessId, msg: MsgKind) -> Result<u64, Halt> {
        self.step()?;
        self.state.clock += self.spec.costs.send_cost;
        self.state.account.counters.messages_sent += 1;
        self.record(TraceEvent::Send {
            who: self.me,
            to,
            msg,
        });
        Ok(self.state.clock)
    }

    fn send_to_all(&mut self, n: usize, msg: MsgKind) -> Option<(u64, u64)> {
        // Only a broadcast no send of which can crash is taken whole: a
        // step-indexed trigger may fire between two sends, and a fired
        // one fails the very first — both keep the per-send loop, which
        // stops at the right prefix.
        let st = &mut *self.state;
        if !st.account.steps_at_once(n as u64) {
            return None;
        }
        let stride = self.spec.costs.send_cost;
        let sent_at = st.clock + stride;
        st.clock += n as u64 * stride;
        st.account.counters.messages_sent += n as u64;
        let at = VirtualTime::from_ticks(sent_at);
        self.trace.record_broadcast(at, stride, self.me, n, msg);
        Some((sent_at, stride))
    }

    fn begin_recv(&mut self) -> Result<(), Halt> {
        // The step the blocking code charges on entering `recv`; the
        // receive cost itself is charged at delivery time by the engine.
        self.step()
    }

    fn cluster_propose(&mut self, slot: Slot, enc: u64) -> Result<u64, Halt> {
        self.step()?;
        self.state.clock += self.spec.costs.sm_op_cost;
        let decided = self.memory.propose_raw(slot, enc);
        self.state.account.counters.cluster_proposes += 1;
        self.record(TraceEvent::ClusterPropose {
            who: self.me,
            round: slot.round,
            phase: slot.phase,
            proposed: enc,
            decided,
        });
        Ok(decided)
    }

    fn local_coin(&mut self) -> Result<Bit, Halt> {
        self.step()?;
        self.state.clock += self.spec.costs.coin_cost;
        let bit = Bit::from(self.state.local_coin.flip());
        self.state.account.counters.local_coin_flips += 1;
        self.record(TraceEvent::Coin {
            who: self.me,
            common: false,
            value: bit.as_bool(),
        });
        Ok(bit)
    }

    fn common_coin(&mut self, index: u64) -> Result<Bit, Halt> {
        self.step()?;
        self.state.clock += self.spec.costs.coin_cost;
        let bit = Bit::from(self.spec.coin.bit(self.spec.coin_seed, index));
        self.state.account.counters.common_coin_queries += 1;
        self.record(TraceEvent::Coin {
            who: self.me,
            common: true,
            value: bit.as_bool(),
        });
        Ok(bit)
    }

    fn observe(&mut self, event: ObsEvent) {
        self.state.account.observe(&event);
        if let ObsEvent::RoundStart { round, .. } = event {
            self.record(TraceEvent::RoundStart {
                who: self.me,
                round,
            });
        }
        if let Some(obs) = &self.spec.observer {
            obs.on_event(self.me, &event);
        }
    }

    fn note_broadcast(&mut self) {
        self.state.account.counters.broadcasts += 1;
    }

    fn now(&self) -> u64 {
        self.state.clock
    }

    fn service_stats(&mut self, stats: &ServiceStats) {
        self.state.account.service.merge(stats);
    }
}

#[cfg(test)]
mod tests {
    use ofa_core::{Algorithm, Bit, InvariantChecker};
    use ofa_scenario::{Backend, CrashPlan, DelayModel, Engine, Scenario};
    use ofa_topology::{Partition, ProcessId};
    use std::sync::Arc;

    use crate::Sim;

    /// Both engines, same scenario: every observable field must match,
    /// including the replay hash.
    fn assert_engines_identical(scenario: Scenario) {
        let threads = Sim.run(&scenario.clone().engine(Engine::Threads));
        let event = Sim.run(&scenario.engine(Engine::EventDriven));
        assert_eq!(threads.engine_used, Some(Engine::Threads));
        assert_eq!(event.engine_used, Some(Engine::EventDriven));
        assert_eq!(threads.decisions, event.decisions);
        assert_eq!(threads.halts, event.halts);
        assert_eq!(threads.crashed, event.crashed);
        assert_eq!(threads.counters, event.counters);
        assert_eq!(threads.per_process, event.per_process);
        assert_eq!(threads.trace_hash, event.trace_hash);
        assert_eq!(threads.events_processed, event.events_processed);
        assert_eq!(threads.end_time, event.end_time);
        assert_eq!(threads.latest_decision_time, event.latest_decision_time);
        assert_eq!(threads.sm_proposes, event.sm_proposes);
    }

    fn payload(s: &str) -> ofa_core::Payload {
        ofa_core::Payload::from_bytes(s.as_bytes()).expect("fits")
    }

    #[test]
    fn engines_match_with_sampled_delays() {
        for seed in 0..4 {
            assert_engines_identical(
                Scenario::new(Partition::fig1_right(), Algorithm::LocalCoin)
                    .proposals_split(3)
                    .seed(seed),
            );
        }
    }

    #[test]
    fn engines_match_on_the_broadcast_batch_path() {
        // Constant delay exercises the single-heap-entry broadcast fast
        // path in the event engine only — outcomes must still be
        // bit-identical to the conductor's per-send entries.
        for seed in 0..4 {
            assert_engines_identical(
                Scenario::new(Partition::even(12, 3), Algorithm::CommonCoin)
                    .proposals_split(5)
                    .delay(DelayModel::Constant(800))
                    .seed(seed),
            );
        }
    }

    #[test]
    fn engines_match_under_crashes() {
        use ofa_scenario::VirtualTime;
        let plan = CrashPlan::new()
            .crash_at_step(ProcessId(1), 6)
            .crash_at_round(ProcessId(4), 2)
            .crash_at_time(ProcessId(2), VirtualTime::from_ticks(1_500));
        assert_engines_identical(
            Scenario::new(Partition::fig1_left(), Algorithm::LocalCoin)
                .proposals_split(4)
                .crashes(plan)
                .seed(9),
        );
    }

    #[test]
    fn a_step_crash_inside_a_broadcast_keeps_the_sent_prefix() {
        use super::{Machine, ProcState};
        use crate::backend::RunSpec;
        use ofa_core::sm::{OutItem, Progress, SmTopology};
        use ofa_core::{Halt, ProtocolConfig};
        use ofa_scenario::{CoinSpec, CostModel, Scenario, TraceRecorder};
        use ofa_sharedmem::MemoryBank;
        // `start` is one cluster propose (step 1) and then the first
        // broadcast, sends 0..n at steps 2..: a trigger at step 4 lets
        // exactly three sends out. The context must decline the whole
        // broadcast (it cannot rule the crash out) and the per-send loop
        // must stop where it always did.
        let part = Partition::even(6, 2);
        let topo = Arc::new(SmTopology::new(part.clone()));
        let bank = MemoryBank::for_partition(&part);
        let me = ProcessId(1);
        let spec = RunSpec::from_scenario(
            &Scenario::new(part.clone(), Algorithm::LocalCoin)
                .proposals_all(Bit::One)
                .config(ProtocolConfig::default())
                .coin(CoinSpec::Constant(Bit::Zero))
                .seed(7),
        );
        let run = |plan: &CrashPlan| {
            let mut state = ProcState::for_process(7, me, plan);
            let mut trace = TraceRecorder::new(true);
            let mut machine = Machine::build(&spec, &topo, me.index());
            let mut ctx = state.ctx(me, &spec, bank.memory_of(&part, me), &mut trace);
            let progress = machine.start(&mut ctx);
            (progress, state.account.counters.messages_sent, trace)
        };
        let (progress, sent, trace) = run(&CrashPlan::new().crash_at_step(me, 4));
        let Progress::Halted(Halt::Crashed, outbox) = progress else {
            panic!("the trigger fires inside the broadcast: {progress:?}");
        };
        assert_eq!(sent, 3);
        assert_eq!(outbox.len(), 3, "{outbox:?}");
        for (j, item) in outbox.iter().enumerate() {
            assert!(matches!(item, OutItem::One(o) if o.to == ProcessId(j)));
        }
        let sends = |t: &TraceRecorder| {
            (t.events().iter())
                .filter(|e| matches!(e.event, ofa_scenario::TraceEvent::Send { .. }))
                .count()
        };
        assert_eq!(sends(&trace), 3);
        // Without a step trigger the same context takes the broadcast
        // whole: one item, n sends recorded.
        let (progress, sent, trace) = run(&CrashPlan::new());
        let Progress::Sent(outbox) = progress else {
            panic!("nothing stops the start step: {progress:?}");
        };
        assert!(matches!(outbox[..], [OutItem::Broadcast { .. }]));
        assert_eq!((sent, sends(&trace)), (6, 6));
        // And whole runs agree with the conductor, which sends one
        // message at a time, wherever the trigger lands: before, inside
        // and after the first broadcast, batched or lazy.
        for step in [1, 2, 4, 7, 8, 11] {
            for delay in [
                DelayModel::Constant(800),
                DelayModel::Uniform { lo: 500, hi: 1_500 },
            ] {
                let base = Scenario::new(part.clone(), Algorithm::CommonCoin)
                    .proposals_split(3)
                    .delay(delay)
                    .crashes(CrashPlan::new().crash_at_step(me, step))
                    .seed(5);
                let free_sends = CostModel {
                    send_cost: 0,
                    ..CostModel::new()
                };
                assert_engines_identical(base.clone().costs(free_sends));
                assert_engines_identical(base);
            }
        }
    }

    #[test]
    fn engines_match_on_multivalued_bodies() {
        for (seed, algorithm) in [(1u64, Algorithm::LocalCoin), (2, Algorithm::CommonCoin)] {
            let part = Partition::fig1_right();
            let proposals = (0..part.n())
                .map(|i| payload(&format!("from-p{}", i + 1)))
                .collect();
            assert_engines_identical(
                Scenario::new(part, algorithm)
                    .multivalued(algorithm, proposals)
                    .seed(seed),
            );
        }
    }

    #[test]
    fn engines_match_on_replicated_log_bodies() {
        let part = Partition::even(6, 2);
        let queues = (0..6)
            .map(|i| vec![payload(&format!("cmd-{i}a")), payload(&format!("cmd-{i}b"))])
            .collect::<Vec<_>>();
        assert_engines_identical(
            Scenario::new(part, Algorithm::CommonCoin)
                .replicated_log(Algorithm::CommonCoin, 3, queues)
                .seed(7),
        );
    }

    #[test]
    fn round_crashes_fire_inside_replicated_log_bodies() {
        // Rounds are counted cumulatively across instances, so an
        // AtRound trigger is not a silent no-op for multivalued/SMR
        // workloads (it used to be: the old check looked for instance-0
        // rounds, which multi-instance bodies never run).
        let part = Partition::even(6, 2);
        let queues = (0..6)
            .map(|i| vec![payload(&format!("c{i}"))])
            .collect::<Vec<_>>();
        let scenario = Scenario::new(part, Algorithm::CommonCoin)
            .replicated_log(Algorithm::CommonCoin, 2, queues)
            .crashes(CrashPlan::new().crash_at_round(ProcessId(3), 2))
            .seed(5);
        let out = Sim.run(&scenario.clone().event_driven());
        assert!(
            out.crashed.contains(ProcessId(3)),
            "the round trigger must fire inside the log body"
        );
        assert!(out.all_correct_decided, "survivors keep committing");
        // And identically on the conductor.
        assert_engines_identical(scenario);
    }

    #[test]
    fn engines_match_on_multivalued_bodies_under_crashes() {
        let part = Partition::fig1_right();
        let proposals = (0..part.n()).map(|i| payload(&format!("v{i}"))).collect();
        let plan = CrashPlan::new()
            .crash_at_start(ProcessId(0))
            .crash_at_step(ProcessId(5), 25);
        assert_engines_identical(
            Scenario::new(part, Algorithm::CommonCoin)
                .multivalued(Algorithm::CommonCoin, proposals)
                .crashes(plan)
                .seed(3),
        );
    }

    #[test]
    fn headline_crash_pattern_on_the_event_engine() {
        // Fig 1 right, 6 of 7 crashed: the lone majority-cluster survivor
        // still decides.
        let mut plan = CrashPlan::new();
        for i in [0usize, 1, 3, 4, 5, 6] {
            plan = plan.crash_at_start(ProcessId(i));
        }
        let out = Sim.run(
            &Scenario::new(Partition::fig1_right(), Algorithm::LocalCoin)
                .proposals_split(2)
                .crashes(plan)
                .seed(3)
                .event_driven(),
        );
        assert!(out.all_correct_decided);
        assert_eq!(out.deciders(), 1);
        assert_eq!(out.crashed.len(), 6);
    }

    #[test]
    fn observer_and_invariants_run_on_the_event_engine() {
        let checker = Arc::new(InvariantChecker::new());
        let out = Sim.run(
            &Scenario::new(Partition::even(10, 2), Algorithm::LocalCoin)
                .proposals_split(5)
                .observer(checker.clone())
                .seed(11)
                .event_driven(),
        );
        assert!(out.all_correct_decided);
        checker.assert_clean();
        assert_eq!(checker.decisions().len(), 10);
    }

    #[test]
    fn quick_scale_run_decides_in_round_one() {
        // A miniature of the consensus-fastpath cell: unanimous proposals,
        // constant delay, zero send cost (so broadcasts batch), hundreds
        // of processes in one fast single-threaded run.
        use ofa_scenario::CostModel;
        let n = 400;
        let out = Sim.run(
            &Scenario::new(Partition::even(n, 8), Algorithm::LocalCoin)
                .proposals_all(Bit::One)
                .delay(DelayModel::Constant(1_000))
                .costs(CostModel {
                    send_cost: 0,
                    recv_cost: 1,
                    sm_op_cost: 10,
                    coin_cost: 1,
                })
                .max_events(u64::MAX)
                .seed(7)
                .event_driven(),
        );
        assert!(out.all_correct_decided);
        assert_eq!(out.deciders(), n);
        assert_eq!(out.max_decision_round, 1, "unanimity decides in round 1");
        assert_eq!(
            out.counters.messages_sent,
            3 * (n as u64) * (n as u64),
            "two phase broadcasts plus one decide broadcast per process"
        );
    }
}
