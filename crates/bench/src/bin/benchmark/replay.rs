//! Replays a kept trace through each layer's public API, with a span
//! around every layer call (see [`crate::spans`] for the granularity).
//!
//! The engines keep their loops `pub(crate)`, so the per-layer numbers
//! come from this file's own code driving the same layers with the same
//! inputs the engine gave them, in the order the engine recorded:
//!
//! * every event → a fresh [`TraceRecorder::record`]; the final hash must
//!   equal the run's;
//! * every `Send` → [`NetIndex::delay_of`] (skipped, as the engines skip
//!   it, under a constant broadcast delay) and [`NetIndex::fate_of`]
//!   (only with loss or duplication configured);
//! * every `Deliver` → `on_msg` on bench-owned [`ConsensusSm`] /
//!   [`LogSm`] instances through [`ReplayCtx`], which answers cluster
//!   proposes from real [`ClusterMemory`] objects (a child span), hands
//!   back the recorded coins, and advances a per-process clock by the
//!   public [`CostModel`]. Every event a machine emits is compared, with
//!   its timestamp, against the next recorded event, so a replayed
//!   machine cannot drift from the engine's unnoticed;
//! * the same delivery stream a second time into standalone
//!   [`Mailbox::accept`], with the `(instance, round, phase)` watermark
//!   rebuilt from each process's own `Send`s;
//! * for KV cells, each replica's `now()` queries and committed payloads
//!   into a standalone [`TrafficState`], whose final statistics must
//!   equal what the replayed replica reported.
//!
//! The mailbox and traffic replays re-measure work that also happens
//! inside `on_msg`; their shares are *nested in* `sm.share`, not added to
//! it.

use crate::spans::{SpanId, Spans, BATCH};
use ofa_core::sm::{ConsensusSm, LogSm, Progress, SmCtx, SmTopology};
use ofa_core::{
    Bit, Decision, Halt, Mailbox, MailboxItem, Msg, MsgKind, ObsEvent, Payload, Phase, TrafficState,
};
use ofa_metrics::ServiceStats;
use ofa_scenario::{
    Body, CostModel, NetIndex, Outcome, Scenario, SmrWorkload, TimedEvent, TraceEvent,
    TraceRecorder, VirtualTime,
};
use ofa_sharedmem::{MemoryBank, Slot};
use ofa_topology::{Partition, ProcessId};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;

/// What the replay measured, beyond the spans themselves.
#[derive(Debug)]
pub struct Replay {
    pub spans: Spans,
    /// `start` + `on_msg` + `halt` calls.
    pub steps: u64,
    pub sends: u64,
    /// High-water mark of any standalone mailbox's future-slot buffer.
    pub mailbox_buffered_peak: u64,
    /// Arrivals materialized by the standalone traffic states.
    pub traffic_arrivals: u64,
    /// Consensus objects the replay's cluster memories materialized.
    pub sharedmem_objects: u64,
    /// Per-replica committed payloads, in slot order (KV cells).
    pub commits: Vec<Vec<Payload>>,
    /// Most binary stages any committed slot needed (KV cells).
    pub stages_per_slot_max: u64,
    /// The standalone traffic states' merged statistics (KV cells).
    pub service: ServiceStats,
}

/// One bench-owned machine per process, shaped by the scenario body.
// A run's machines are all the same variant (as in the engine), so boxing
// the larger one would only add a pointer chase to every step.
#[allow(clippy::large_enum_variant)]
enum Machine {
    Consensus(ConsensusSm),
    Log(LogSm),
}

impl Machine {
    fn start(&mut self, ctx: &mut ReplayCtx<'_, '_>) -> Progress {
        match self {
            Machine::Consensus(sm) => sm.start(ctx),
            Machine::Log(sm) => sm.start(ctx),
        }
    }

    fn on_msg(&mut self, msg: Msg, ctx: &mut ReplayCtx<'_, '_>) -> Progress {
        match self {
            Machine::Consensus(sm) => sm.on_msg(msg, ctx),
            Machine::Log(sm) => sm.on_msg(msg, ctx),
        }
    }

    fn halt(&mut self, halt: Halt, ctx: &mut ReplayCtx<'_, '_>) -> Progress {
        match self {
            Machine::Consensus(sm) => sm.halt(halt, ctx),
            Machine::Log(sm) => sm.halt(halt, ctx),
        }
    }

    fn recycle_outbox(&mut self, buf: ofa_core::sm::Outbox) {
        match self {
            Machine::Consensus(sm) => sm.recycle_outbox(buf),
            Machine::Log(sm) => sm.recycle_outbox(buf),
        }
    }
}

fn build_machines(scenario: &Scenario, topo: &Arc<SmTopology>) -> Vec<Machine> {
    let n = scenario.partition.n();
    (0..n)
        .map(|i| match &scenario.body {
            Body::Algo(algorithm) => Machine::Consensus(ConsensusSm::new(
                *algorithm,
                ProcessId(i),
                Arc::clone(topo),
                0,
                scenario.proposals[i],
                scenario.config,
            )),
            Body::ReplicatedLog(smr) => Machine::Log(LogSm::new(
                smr.algorithm,
                ProcessId(i),
                Arc::clone(topo),
                smr.queues.get(i).cloned().unwrap_or_default(),
                smr.slots,
                scenario.config,
                smr.traffic
                    .as_ref()
                    .map(|spec| TrafficState::new(spec, scenario.seed, i as u32, n as u32)),
            )),
            Body::Multivalued(_) | Body::Custom(_) => {
                panic!("the benchmark replays consensus and replicated-log cells only")
            }
        })
        .collect()
}

/// Everything the state-machine replay shares across processes.
struct SmReplay<'a> {
    events: &'a [TimedEvent],
    cursor: usize,
    spans: Spans,
    costs: CostModel,
    partition: &'a Partition,
    memory: MemoryBank,
    clocks: Vec<u64>,
    /// The batch span machine steps currently run under.
    step_span: Option<SpanId>,
    steps: u64,
    sends: u64,
    stale_dropped: u64,
    stages_per_slot_max: u64,
    /// Per process: every `now()` the machine asked for. A traffic-fed
    /// replica asks exactly twice per slot — before the pull that opens
    /// it and at its commit — so this is the standalone traffic replay's
    /// clock. Behind a `RefCell` because `SmCtx::now` takes `&self`.
    nows: RefCell<Vec<Vec<u64>>>,
    commits: Vec<Vec<Payload>>,
    services: Vec<Option<ServiceStats>>,
}

impl SmReplay<'_> {
    /// The next recorded event must be exactly `event`, stamped with
    /// `who`'s replayed clock.
    fn expect(&mut self, who: ProcessId, event: TraceEvent) {
        let got = TimedEvent {
            at: VirtualTime::from_ticks(self.clocks[who.index()]),
            event,
        };
        let want = self.events.get(self.cursor);
        assert!(
            want == Some(&got),
            "replay diverged at event {}: the engine recorded {}, the replayed machine produced {got}",
            self.cursor,
            want.map_or("nothing".to_string(), ToString::to_string),
        );
        self.cursor += 1;
    }

    /// The next recorded event must be `who`'s coin of the given kind;
    /// returns the recorded bit.
    fn recorded_coin(&mut self, who: ProcessId, common: bool) -> Bit {
        let value = match self.events.get(self.cursor).map(|e| e.event) {
            Some(TraceEvent::Coin {
                who: w,
                common: c,
                value,
            }) if w == who && c == common => value,
            other => panic!(
                "replay diverged at event {}: {who} drew a coin, the engine recorded {other:?}",
                self.cursor
            ),
        };
        self.expect(who, TraceEvent::Coin { who, common, value });
        Bit::from(value)
    }

    /// Routes a step's progress the way the engine does: recycle the
    /// outbox, and on a terminal step match the engine's terminal record.
    fn after_step(
        &mut self,
        who: ProcessId,
        progress: Progress,
        machine: &mut Machine,
        results: &mut [Option<Result<Decision, Halt>>],
    ) {
        self.steps += 1;
        let result = match progress {
            Progress::NeedMsg => return,
            Progress::Sent(mut outbox) => {
                outbox.clear();
                machine.recycle_outbox(outbox);
                return;
            }
            Progress::Decided(decision, _) => Ok(decision),
            Progress::Halted(halt, _) => Err(halt),
        };
        self.expect(
            who,
            match result {
                Ok(decision) => TraceEvent::Decided { who, decision },
                Err(halt) => TraceEvent::Halted { who, halt },
            },
        );
        results[who.index()] = Some(result);
    }
}

/// The [`SmCtx`] a replayed machine steps against.
struct ReplayCtx<'r, 'a> {
    me: ProcessId,
    r: &'r mut SmReplay<'a>,
}

impl ReplayCtx<'_, '_> {
    fn charge(&mut self, ticks: u64) {
        self.r.clocks[self.me.index()] += ticks;
    }
}

impl SmCtx for ReplayCtx<'_, '_> {
    fn send(&mut self, to: ProcessId, msg: MsgKind) -> Result<u64, Halt> {
        self.charge(self.r.costs.send_cost);
        self.r.sends += 1;
        self.r.expect(
            self.me,
            TraceEvent::Send {
                who: self.me,
                to,
                msg,
            },
        );
        Ok(self.r.clocks[self.me.index()])
    }

    fn begin_recv(&mut self) -> Result<(), Halt> {
        Ok(())
    }

    fn cluster_propose(&mut self, slot: Slot, enc: u64) -> Result<u64, Halt> {
        self.charge(self.r.costs.sm_op_cost);
        let memory = self.r.memory.memory_of(self.r.partition, self.me);
        let parent = self.r.step_span;
        let decided = self.r.spans.time("sharedmem.propose", parent, || {
            memory.propose_raw(slot, enc)
        });
        self.r.expect(
            self.me,
            TraceEvent::ClusterPropose {
                who: self.me,
                round: slot.round,
                phase: slot.phase,
                proposed: enc,
                decided,
            },
        );
        Ok(decided)
    }

    fn local_coin(&mut self) -> Result<Bit, Halt> {
        self.charge(self.r.costs.coin_cost);
        Ok(self.r.recorded_coin(self.me, false))
    }

    fn common_coin(&mut self, _index: u64) -> Result<Bit, Halt> {
        self.charge(self.r.costs.coin_cost);
        Ok(self.r.recorded_coin(self.me, true))
    }

    fn observe(&mut self, event: ObsEvent) {
        match event {
            ObsEvent::RoundStart { round, .. } => self.r.expect(
                self.me,
                TraceEvent::RoundStart {
                    who: self.me,
                    round,
                },
            ),
            ObsEvent::MailboxStats { stale_dropped } => self.r.stale_dropped += stale_dropped,
            ObsEvent::MvDecided {
                payload, stages, ..
            } => {
                self.r.commits[self.me.index()].push(payload);
                self.r.stages_per_slot_max = self.r.stages_per_slot_max.max(stages);
            }
            _ => {}
        }
    }

    fn now(&self) -> u64 {
        let now = self.r.clocks[self.me.index()];
        self.r.nows.borrow_mut()[self.me.index()].push(now);
        now
    }

    fn service_stats(&mut self, stats: &ServiceStats) {
        self.r.services[self.me.index()] = Some(stats.clone());
    }
}

/// Replays `outcome.events` (a kept trace of `scenario` on the event
/// engine) through every layer.
///
/// # Panics
///
/// Panics when the replay does not reproduce the run: recorder hash,
/// any emitted event, any terminal result, the stale-drop count, or the
/// service statistics differ.
pub fn replay(scenario: &Scenario, outcome: &Outcome) -> Replay {
    let events = outcome
        .events
        .as_deref()
        .expect("the trace cell keeps its trace");
    let mut spans = Spans::new();
    replay_recorder(events, outcome, &mut spans);
    replay_net(scenario, events, &mut spans);
    let mailbox_buffered_peak = replay_mailboxes(scenario.partition.n(), events, &mut spans);
    let mut sm = replay_machines(scenario, outcome, events, spans);
    let (service, traffic_arrivals) = replay_traffic(scenario, outcome, &mut sm);
    Replay {
        steps: sm.steps,
        spans: sm.spans,
        sends: sm.sends,
        mailbox_buffered_peak,
        traffic_arrivals,
        sharedmem_objects: sm.memory.total_objects() as u64,
        commits: sm.commits,
        stages_per_slot_max: sm.stages_per_slot_max,
        service,
    }
}

/// Reads the next batch's worth of the kept trace into cache before a
/// span is opened over it. The engine consumes each event as it makes
/// it; streaming it back from a trace that is far larger than any cache
/// is a cost of replaying, not of the layer under the span.
fn warm(events: &[TimedEvent], from: usize) {
    let mut scratch = TraceRecorder::new(false);
    for e in events.iter().skip(from).take(BATCH as usize) {
        scratch.record(e.at, e.event);
    }
    black_box(scratch.hash());
}

fn replay_recorder(events: &[TimedEvent], outcome: &Outcome, spans: &mut Spans) {
    let mut recorder = TraceRecorder::new(false);
    for (i, chunk) in events.chunks(BATCH as usize).enumerate() {
        warm(events, i * BATCH as usize);
        let span = spans.open("trace.record", None);
        for e in chunk {
            recorder.record(e.at, e.event);
        }
        spans.close(span, chunk.len() as u32);
    }
    assert_eq!(
        Some(recorder.hash()),
        outcome.trace_hash,
        "a fresh recorder over the kept trace must reproduce the run's hash"
    );
    assert_eq!(recorder.count(), events.len() as u64);
}

fn replay_net(scenario: &Scenario, events: &[TimedEvent], spans: &mut Spans) {
    let net: NetIndex = scenario.network.compile(&scenario.partition);
    let seed = scenario.seed;
    // `k` is the sender's send-op counter, as the schedulers assign it.
    let sends = || {
        let mut counters = vec![0u64; scenario.partition.n()];
        events.iter().filter_map(move |e| match e.event {
            TraceEvent::Send { who, to, .. } => {
                let k = counters[who.index()];
                counters[who.index()] += 1;
                Some((who, to, k))
            }
            _ => None,
        })
    };
    // Materialized so the spans cover layer calls only, not the filter.
    let handoffs: Vec<(ProcessId, ProcessId, u64)> = sends().collect();
    let mut sink = 0u64;
    if net.constant_broadcast_delay().is_none() {
        for chunk in handoffs.chunks(BATCH as usize) {
            let span = spans.open("net.delay_of", None);
            for &(from, to, k) in chunk {
                sink = sink.wrapping_add(net.delay_of(seed, from, to, k));
            }
            spans.close(span, chunk.len() as u32);
        }
    }
    if net.loss_ppm() + net.dup_ppm() > 0 {
        for chunk in handoffs.chunks(BATCH as usize) {
            let span = spans.open("net.fate_of", None);
            for &(from, to, k) in chunk {
                sink = sink.wrapping_add(net.fate_of(seed, from, to, k) as u64);
            }
            spans.close(span, chunk.len() as u32);
        }
    }
    black_box(sink);
}

/// The standalone mailbox replay; returns the buffered high-water mark.
fn replay_mailboxes(n: usize, events: &[TimedEvent], spans: &mut Spans) -> u64 {
    let mut boxes: Vec<Mailbox> = (0..n).map(|_| Mailbox::new()).collect();
    let mut marks: Vec<(u64, u64, Phase)> = vec![(0, 0, Phase::One); n];
    let mut peak = 0u64;
    let mut sink = 0u64;
    let mut i = 0;
    while i < events.len() {
        match events[i].event {
            TraceEvent::Deliver { .. } => {
                warm(events, i);
                let span = spans.open("mailbox.accept", None);
                let mut calls = 0;
                while calls < BATCH {
                    let Some(TraceEvent::Deliver { who, from, msg }) =
                        events.get(i).map(|e| e.event)
                    else {
                        break;
                    };
                    let (instance, round, phase) = marks[who.index()];
                    let item =
                        boxes[who.index()].accept(Msg { from, kind: msg }, instance, round, phase);
                    sink += u64::from(item.is_some());
                    calls += 1;
                    i += 1;
                }
                spans.close(span, calls);
            }
            // A process's own phase broadcast is where it moved to: serve
            // what was buffered for the new slot, like the machine's pump.
            TraceEvent::Send {
                who,
                msg:
                    MsgKind::Phase {
                        instance,
                        round,
                        phase,
                        ..
                    },
                ..
            } if marks[who.index()] != (instance, round, phase) => {
                let mailbox = &mut boxes[who.index()];
                peak = peak.max(mailbox.buffered() as u64);
                let entered_instance = marks[who.index()].0 != instance;
                marks[who.index()] = (instance, round, phase);
                spans.time("mailbox.drain", None, || {
                    if entered_instance {
                        mailbox.absorb_apps(instance, |app| sink += app.seq);
                    }
                    while let Some(MailboxItem::Phase { .. }) =
                        mailbox.take_buffered(instance, round, phase)
                    {
                        sink += 1;
                    }
                });
                i += 1;
            }
            _ => i += 1,
        }
    }
    black_box(sink);
    peak
}

fn replay_machines<'a>(
    scenario: &'a Scenario,
    outcome: &Outcome,
    events: &'a [TimedEvent],
    spans: Spans,
) -> SmReplay<'a> {
    let n = scenario.partition.n();
    let topo = Arc::new(SmTopology::new(scenario.partition.clone()));
    let mut machines = build_machines(scenario, &topo);
    let mut results: Vec<Option<Result<Decision, Halt>>> = vec![None; n];
    let mut r = SmReplay {
        events,
        cursor: 0,
        spans,
        costs: scenario.costs,
        partition: &scenario.partition,
        memory: MemoryBank::for_partition(&scenario.partition),
        clocks: vec![0; n],
        step_span: None,
        steps: 0,
        sends: 0,
        stale_dropped: 0,
        stages_per_slot_max: 0,
        nows: RefCell::new(vec![Vec::new(); n]),
        commits: vec![Vec::new(); n],
        services: vec![None; n],
    };

    // Initial steps, in process order, like the engine.
    for (i, machine) in machines.iter_mut().enumerate() {
        let who = ProcessId(i);
        let span = r.spans.open("sm.start", None);
        r.step_span = Some(span);
        let progress = machine.start(&mut ReplayCtx { me: who, r: &mut r });
        r.after_step(who, progress, machine, &mut results);
        r.spans.close(span, 1);
    }

    while r.cursor < events.len() {
        let TimedEvent { at, event } = events[r.cursor];
        match event {
            TraceEvent::Deliver { .. } => {
                warm(events, r.cursor);
                let span = r.spans.open("sm.on_msg", None);
                r.step_span = Some(span);
                let mut calls = 0;
                while calls < BATCH {
                    let Some(&TimedEvent {
                        at,
                        event: TraceEvent::Deliver { who, from, msg },
                    }) = events.get(r.cursor)
                    else {
                        break;
                    };
                    r.cursor += 1;
                    let clock = &mut r.clocks[who.index()];
                    *clock = (*clock).max(at.ticks()) + r.costs.recv_cost;
                    let machine = &mut machines[who.index()];
                    let progress = machine.on_msg(
                        Msg { from, kind: msg },
                        &mut ReplayCtx { me: who, r: &mut r },
                    );
                    r.after_step(who, progress, machine, &mut results);
                    calls += 1;
                }
                r.spans.close(span, calls);
            }
            TraceEvent::Crash { who } => {
                r.cursor += 1;
                let clock = &mut r.clocks[who.index()];
                *clock = (*clock).max(at.ticks());
                halt_machine(&mut r, &mut machines, &mut results, who, Halt::Crashed);
            }
            // The engine stops whoever is still running at quiescence:
            // no event precedes the halt, only its terminal record.
            TraceEvent::Halted { who, halt } if results[who.index()].is_none() => {
                halt_machine(&mut r, &mut machines, &mut results, who, halt);
            }
            other => panic!(
                "replay diverged at event {}: no replayed machine produced {other:?}",
                r.cursor
            ),
        }
    }

    for (i, result) in results.iter().enumerate() {
        let result = result.unwrap_or_else(|| panic!("p{i} never terminated in the replay"));
        assert_eq!(
            (result.ok(), result.err()),
            (outcome.decisions[i], outcome.halts[i]),
            "p{i}'s replayed result differs from the engine's"
        );
    }
    assert_eq!(
        r.stale_dropped, outcome.counters.stale_dropped,
        "replayed machines dropped a different number of stale messages"
    );
    assert_eq!(r.sends, outcome.counters.messages_sent);
    r
}

fn halt_machine(
    r: &mut SmReplay<'_>,
    machines: &mut [Machine],
    results: &mut [Option<Result<Decision, Halt>>],
    who: ProcessId,
    halt: Halt,
) {
    let span = r.spans.open("sm.halt", None);
    r.step_span = Some(span);
    let machine = &mut machines[who.index()];
    let progress = machine.halt(halt, &mut ReplayCtx { me: who, r });
    r.after_step(who, progress, machine, results);
    r.spans.close(span, 1);
}

/// Drives one standalone [`TrafficState`] per replica from the clocks
/// and payloads the machine replay collected. Returns the merged
/// statistics and the number of arrivals materialized.
fn replay_traffic(
    scenario: &Scenario,
    outcome: &Outcome,
    sm: &mut SmReplay<'_>,
) -> (ServiceStats, u64) {
    let mut merged = ServiceStats::new();
    let Body::ReplicatedLog(SmrWorkload {
        traffic: Some(spec),
        ..
    }) = &scenario.body
    else {
        return (merged, 0);
    };
    let n = scenario.partition.n();
    let nows = sm.nows.take();
    let mut sink = 0usize;
    for (i, times) in nows.iter().enumerate() {
        let mut state = TrafficState::new(spec, scenario.seed, i as u32, n as u32);
        // now() is asked in pull, commit, pull, commit, … order.
        for (j, &now) in times.iter().enumerate() {
            if j % 2 == 0 {
                sm.spans.time("traffic.pull", None, || {
                    state.pull(now);
                    sink += state.next_batch().len();
                });
            } else {
                let payload = sm.commits[i][j / 2];
                sm.spans
                    .time("traffic.commit", None, || state.on_committed(&payload, now));
            }
        }
        if let Some(reported) = &sm.services[i] {
            assert_eq!(
                state.stats(),
                reported,
                "p{i}'s standalone traffic state ended differently from the replayed replica's"
            );
        }
        merged.merge(state.stats());
    }
    black_box(sink);
    assert_eq!(
        merged, outcome.service,
        "replayed service statistics differ from the run's"
    );
    let arrivals = merged.submitted + merged.shed;
    (merged, arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{self, Size};
    use ofa_scenario::Backend;
    use ofa_sim::Sim;

    fn traced(workload: &str) -> (Scenario, Outcome) {
        let scenario = cells::scenario(workload, Size::Quick, 3).keep_trace();
        let outcome = Sim.run(&scenario);
        (scenario, outcome)
    }

    #[test]
    fn replay_reproduces_decisions_and_hash_on_a_12_process_cell() {
        use ofa_core::Algorithm;
        // Smaller than the quick cells, with sampled delays and a fair
        // coin, so every ctx method and the mailbox buffering all run.
        for (algorithm, seed) in [(Algorithm::LocalCoin, 5), (Algorithm::CommonCoin, 9)] {
            let scenario = Scenario::new(Partition::even(12, 3), algorithm)
                .proposals_split(6)
                .seed(seed)
                .keep_trace();
            let outcome = Sim.run(&scenario);
            assert!(outcome.all_correct_decided);
            // `replay` panics unless hash, events and decisions match.
            let replay = replay(&scenario, &outcome);
            assert_eq!(replay.sends, outcome.counters.messages_sent);
            let totals = replay.spans.totals();
            assert_eq!(
                totals["trace.record"].calls,
                outcome.events.as_ref().unwrap().len() as u64
            );
            assert_eq!(totals["net.delay_of"].calls, replay.sends);
            assert!(!totals.contains_key("net.fate_of"), "lossless network");
            assert_eq!(
                totals["sm.on_msg"].calls,
                outcome.counters.messages_delivered
            );
            assert_eq!(totals["mailbox.accept"].calls, totals["sm.on_msg"].calls);
            assert_eq!(totals["sharedmem.propose"].calls, outcome.sm_proposes);
            assert_eq!(replay.sharedmem_objects, outcome.sm_objects as u64);
        }
    }

    #[test]
    fn replay_reproduces_every_quick_cell() {
        for w in cells::WORKLOADS.iter().filter(|w| !w.parallel) {
            let (scenario, outcome) = traced(w.name);
            let replay = replay(&scenario, &outcome);
            let totals = replay.spans.totals();
            if w.kv {
                let (_, _, slots) = cells::kv_shape(Size::Quick);
                assert_eq!(replay.service, outcome.service);
                assert!(totals["traffic.pull"].calls > 0);
                assert!(replay.commits.iter().all(|c| c.len() as u64 <= slots));
            } else {
                assert!(!totals.contains_key("traffic.pull"));
            }
            // Constant-delay cells never consult the delay PRF.
            assert_eq!(
                totals.contains_key("net.delay_of"),
                w.name == "consensus-split",
                "{}",
                w.name
            );
            assert_eq!(
                totals.contains_key("net.fate_of"),
                w.name == "kv-faults",
                "{}",
                w.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "replay diverged")]
    fn a_tampered_trace_is_caught() {
        let (scenario, mut outcome) = traced("consensus-split");
        // Same multiset (so the recorder hash still matches), wrong order.
        let events = outcome.events.as_mut().unwrap();
        let last = events.len() - 1;
        events.swap(0, last);
        replay(&scenario, &outcome);
    }
}
