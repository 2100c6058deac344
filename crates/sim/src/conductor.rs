//! The deterministic conductor: real threads, one at a time.
//!
//! Each simulated process runs the *actual* protocol code (`ofa-core`
//! algorithms are ordinary blocking functions) on its own OS thread, but a
//! single-threaded conductor hands out an execution baton so that exactly
//! one process thread runs at any moment. A process runs a **burst** —
//! from wake-up until it blocks in `recv` or returns — then control goes
//! back to the conductor, which picks the next event (message delivery or
//! timed crash) from a [`Scheduler`].
//!
//! Because every shared-state mutation happens while holding the baton and
//! every scheduling choice is a function of the seeded RNG, whole
//! executions are bit-for-bit reproducible (asserted via trace hashes)
//! while still exercising the real concurrent data structures
//! (`ofa-sharedmem` consensus objects).
//!
//! Each process thread owns its [`ProcAccount`] (steps, step and round
//! triggers, counters) and hands it back with its result; a timed crash
//! is the conductor's own, checked at every step.

use crate::backend::{rejoin_coin_seed, RawOutcome, RunSpec};
use crate::order::{EventKey, Keyed, SendCounters};
use ofa_coins::SeededLocalCoin;
use ofa_core::{Bit, Decision, Env, Halt, Msg, MsgKind, ObsEvent, Observer};
use ofa_metrics::ServiceStats;
use ofa_scenario::{
    CoinSpec, CostModel, CrashTrigger, Fate, NetIndex, ProcAccount, TraceEvent, TraceRecorder,
    VirtualTime,
};
use ofa_sharedmem::{MemoryBank, Slot};
use ofa_topology::{Partition, ProcessId};
use parking_lot::Mutex;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

/// An event the scheduler can release.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SchedEvent {
    /// Deliver a message.
    Deliver {
        /// Receiver.
        to: ProcessId,
        /// Original sender.
        from: ProcessId,
        /// Payload.
        msg: MsgKind,
        /// Delivery time (ticks).
        at: u64,
    },
    /// Fire a timed crash.
    Crash {
        /// The victim.
        pid: ProcessId,
        /// Crash time (ticks).
        at: u64,
    },
    /// Restart a churned process with fresh state.
    Rejoin {
        /// The returning process.
        pid: ProcessId,
        /// Rejoin time (ticks).
        at: u64,
    },
}

/// Orders pending deliveries and timed crashes. The production scheduler
/// is [`TimedScheduler`]; the explorer substitutes a choice-driven one.
pub(crate) trait Scheduler {
    /// Registers a sent message (called in send order while draining the
    /// outbox — the only place delay randomness is consumed).
    fn push_send(&mut self, from: ProcessId, to: ProcessId, msg: MsgKind, sent_at: u64);
    /// Registers a timed crash.
    fn push_crash(&mut self, pid: ProcessId, at: u64);
    /// Registers a churn rejoin. Only schedulers driving churn-capable
    /// engines need this; the default rejects it loudly.
    fn push_rejoin(&mut self, pid: ProcessId, at: u64) {
        let _ = at;
        panic!("this scheduler does not support churn rejoins (process {pid})");
    }
    /// Releases the next event, or `None` when quiescent.
    fn pop(&mut self) -> Option<SchedEvent>;
}

/// The production scheduler: delivery time = send time + the keyed delay
/// of the compiled [`NetIndex`]; ties broken by [`EventKey`]. Loss,
/// duplication, and delay are all pure functions of the sender's local
/// history, which is what makes the conductor and the sharded event
/// loop agree on one global event order.
pub(crate) struct TimedScheduler {
    heap: BinaryHeap<Keyed<SchedEvent>>,
    seed: u64,
    net: NetIndex,
    counters: SendCounters,
}

impl TimedScheduler {
    pub(crate) fn new(seed: u64, net: NetIndex) -> Self {
        TimedScheduler {
            heap: BinaryHeap::new(),
            seed,
            net,
            counters: SendCounters::default(),
        }
    }

    fn push_delivery(&mut self, from: ProcessId, to: ProcessId, k: u64, msg: MsgKind, at: u64) {
        self.heap.push(Keyed {
            at,
            key: EventKey::deliver(from, k, to),
            ev: SchedEvent::Deliver { to, from, msg, at },
        });
    }
}

impl Scheduler for TimedScheduler {
    fn push_send(&mut self, from: ProcessId, to: ProcessId, msg: MsgKind, sent_at: u64) {
        let k = self.counters.take(from, 1);
        match self.net.fate_of(self.seed, from, to, k) {
            // Lost messages still consume the counter (the fate is part
            // of the message's identity) but schedule nothing.
            Fate::Lost => {}
            fate => {
                let at = sent_at + self.net.delay_of(self.seed, from, to, k);
                self.push_delivery(from, to, k, msg, at);
                if fate == Fate::Dup {
                    // The copy shares the key; its extra delay is a
                    // fresh link-class sample, so it is at least the
                    // class floor — which keeps duplicates at or beyond
                    // the sharded loop's `min_delay` lookahead horizon.
                    let at2 = at + self.net.dup_extra_of(self.seed, from, to, k);
                    self.push_delivery(from, to, k, msg, at2);
                }
            }
        }
    }

    fn push_crash(&mut self, pid: ProcessId, at: u64) {
        self.heap.push(Keyed {
            at,
            key: EventKey::crash(pid),
            ev: SchedEvent::Crash { pid, at },
        });
    }

    fn push_rejoin(&mut self, pid: ProcessId, at: u64) {
        self.heap.push(Keyed {
            at,
            key: EventKey::rejoin(pid),
            ev: SchedEvent::Rejoin { pid, at },
        });
    }

    fn pop(&mut self) -> Option<SchedEvent> {
        self.heap.pop().map(|entry| entry.ev)
    }
}

/// A message queued for the conductor to turn into a scheduled delivery.
struct OutMsg {
    from: ProcessId,
    to: ProcessId,
    msg: MsgKind,
    sent_at: u64,
}

/// State shared between the conductor and all process envs. Mutation only
/// happens while holding the baton, so plain mutexes never contend.
pub(crate) struct Shared {
    partition: Partition,
    costs: CostModel,
    queues: Vec<Mutex<VecDeque<Msg>>>,
    outbox: Mutex<Vec<OutMsg>>,
    crashed: Vec<AtomicBool>,
    stopped: AtomicBool,
    wake_time: Vec<AtomicU64>,
    memory: MemoryBank,
    /// The run's master seed, surfaced via [`Env::seed`] for
    /// workload-level PRFs. Rejoined incarnations see the *master* seed
    /// (their local-coin stream uses [`rejoin_coin_seed`] separately).
    seed: u64,
    coin: CoinSpec,
    /// The seed [`CoinSpec::bit`] reads.
    coin_seed: u64,
    observer: Option<Arc<dyn Observer>>,
    trace: Mutex<TraceRecorder>,
    /// `true` per process iff it appears in the churn plan — surfaced as
    /// `!`[`Env::serves_traffic`]: churn-planned replicas propose empty
    /// filler slots in both incarnations (a restarted proposer could not
    /// re-broadcast its clock-dependent batches identically, which the
    /// multivalued reduction's agreement requires).
    churn_planned: Vec<bool>,
}

/// How a process thread ended: its result, its local clock then, and its
/// account, which a rejoined seat takes over.
type Finished = (Result<Decision, Halt>, u64, Box<ProcAccount>);

/// What a process thread reports when it hands the baton back.
enum YieldMsg {
    /// Blocked in `recv` with an empty queue.
    Blocked,
    /// The protocol returned (decision or halt).
    Finished(Finished),
}

/// The per-process environment handed to the protocol code.
struct SimEnv {
    me: ProcessId,
    shared: Arc<Shared>,
    go_rx: mpsc::Receiver<()>,
    yield_tx: mpsc::Sender<YieldMsg>,
    clock: u64,
    account: ProcAccount,
    local_coin: SeededLocalCoin,
}

impl SimEnv {
    /// Counts an environment call ([`ProcAccount::step`]), then checks
    /// the conductor's own crash source, the timed crash events.
    fn step(&mut self) -> Result<(), Halt> {
        self.account.step()?;
        self.check_crash()
    }

    fn check_crash(&mut self) -> Result<(), Halt> {
        if self.shared.crashed[self.me.index()].load(Ordering::SeqCst) {
            self.account.crashed_self = true;
            return Err(Halt::Crashed);
        }
        Ok(())
    }

    /// Hands the baton back as Blocked; waits for the next grant.
    fn yield_blocked(&mut self) -> Result<(), Halt> {
        if self.yield_tx.send(YieldMsg::Blocked).is_err() {
            return Err(Halt::Stopped); // conductor is gone
        }
        if self.go_rx.recv().is_err() {
            return Err(Halt::Stopped); // conductor is gone
        }
        let wake = self.shared.wake_time[self.me.index()].load(Ordering::SeqCst);
        self.clock = self.clock.max(wake);
        Ok(())
    }

    fn trace(&self, event: TraceEvent) {
        self.shared
            .trace
            .lock()
            .record(VirtualTime::from_ticks(self.clock), event);
    }
}

impl Env for SimEnv {
    fn me(&self) -> ProcessId {
        self.me
    }

    fn partition(&self) -> &Partition {
        &self.shared.partition
    }

    fn send(&mut self, to: ProcessId, msg: MsgKind) -> Result<(), Halt> {
        self.step()?;
        self.clock += self.shared.costs.send_cost;
        self.account.counters.messages_sent += 1;
        self.trace(TraceEvent::Send {
            who: self.me,
            to,
            msg,
        });
        self.shared.outbox.lock().push(OutMsg {
            from: self.me,
            to,
            msg,
            sent_at: self.clock,
        });
        Ok(())
    }

    fn broadcast(&mut self, msg: MsgKind) -> Result<(), Halt> {
        self.account.counters.broadcasts += 1;
        let n = self.shared.partition.n();
        for j in 0..n {
            self.send(ProcessId(j), msg)?;
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Msg, Halt> {
        self.step()?;
        loop {
            let popped = self.shared.queues[self.me.index()].lock().pop_front();
            if let Some(msg) = popped {
                self.clock += self.shared.costs.recv_cost;
                self.account.counters.messages_delivered += 1;
                return Ok(msg);
            }
            if self.shared.stopped.load(Ordering::SeqCst) {
                return Err(Halt::Stopped);
            }
            self.yield_blocked()?;
            self.check_crash()?;
        }
    }

    fn cluster_propose(&mut self, slot: Slot, enc: u64) -> Result<u64, Halt> {
        self.step()?;
        self.clock += self.shared.costs.sm_op_cost;
        let mem = self
            .shared
            .memory
            .memory_of(&self.shared.partition, self.me);
        let decided = mem.propose_raw(slot, enc);
        self.account.counters.cluster_proposes += 1;
        self.trace(TraceEvent::ClusterPropose {
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
        self.clock += self.shared.costs.coin_cost;
        let bit = Bit::from(self.local_coin.flip());
        self.account.counters.local_coin_flips += 1;
        self.trace(TraceEvent::Coin {
            who: self.me,
            common: false,
            value: bit.as_bool(),
        });
        Ok(bit)
    }

    fn common_coin(&mut self, round: u64) -> Result<Bit, Halt> {
        self.step()?;
        self.clock += self.shared.costs.coin_cost;
        let bit = Bit::from(self.shared.coin.bit(self.shared.coin_seed, round));
        self.account.counters.common_coin_queries += 1;
        self.trace(TraceEvent::Coin {
            who: self.me,
            common: true,
            value: bit.as_bool(),
        });
        Ok(bit)
    }

    fn observe(&mut self, event: ObsEvent) {
        self.account.observe(&event);
        if let ObsEvent::RoundStart { round, .. } = event {
            self.trace(TraceEvent::RoundStart {
                who: self.me,
                round,
            });
        }
        if let Some(obs) = &self.shared.observer {
            obs.on_event(self.me, &event);
        }
    }

    fn now(&self) -> u64 {
        self.clock
    }

    fn seed(&self) -> u64 {
        self.shared.seed
    }

    fn service_stats(&mut self, stats: &ServiceStats) {
        self.account.service.merge(stats);
    }

    fn serves_traffic(&self) -> bool {
        !self.shared.churn_planned[self.me.index()]
    }
}

/// Per-process conductor-side handle.
struct Seat {
    go_tx: mpsc::SyncSender<()>,
    yield_rx: mpsc::Receiver<YieldMsg>,
    join: Option<std::thread::JoinHandle<()>>,
    finished: Option<Finished>,
}

/// Spawns one process thread, parked until its first baton. `init_clock`
/// is 0 at run start; a rejoined incarnation starts at the rejoin time
/// (or the clock its first incarnation crashed at, whichever is later),
/// exactly like the event-driven engines, and from its first
/// incarnation's account.
fn spawn_seat(
    i: usize,
    init_clock: u64,
    account: ProcAccount,
    coin_seed: u64,
    shared: &Arc<Shared>,
    spec: &RunSpec,
) -> Seat {
    let (go_tx, go_rx) = mpsc::sync_channel::<()>(0);
    let (yield_tx, yield_rx) = mpsc::channel::<YieldMsg>();
    let shared_cl = Arc::clone(shared);
    let (body, config, proposal) = (spec.body.clone(), spec.config, spec.proposals[i]);
    let join = std::thread::Builder::new()
        .name(format!("sim-p{}", i + 1))
        .spawn(move || {
            let mut env = SimEnv {
                me: ProcessId(i),
                shared: shared_cl,
                go_rx,
                yield_tx,
                clock: init_clock,
                account,
                local_coin: SeededLocalCoin::for_process(coin_seed, ProcessId(i)),
            };
            // Wait for the first baton; if the conductor vanished, exit.
            if env.go_rx.recv().is_err() {
                return;
            }
            let result = body.run(&mut env, proposal, &config);
            let finished = (result, env.clock, Box::new(env.account));
            let _ = env.yield_tx.send(YieldMsg::Finished(finished));
        })
        .expect("spawn simulated process thread");
    Seat {
        go_tx,
        yield_rx,
        join: Some(join),
        finished: None,
    }
}

/// Runs a spec under the given scheduler. The scheduler is borrowed so
/// callers (the explorer) can read back what it recorded.
pub(crate) fn conduct<S: Scheduler>(spec: RunSpec, scheduler: &mut S) -> RawOutcome {
    let n = spec.partition.n();
    assert_eq!(
        spec.proposals.len(),
        n,
        "need one proposal per process (got {} for n={n})",
        spec.proposals.len()
    );

    let shared = Arc::new(Shared {
        partition: spec.partition.clone(),
        costs: spec.costs,
        queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
        outbox: Mutex::new(Vec::new()),
        crashed: (0..n).map(|_| AtomicBool::new(false)).collect(),
        stopped: AtomicBool::new(false),
        wake_time: (0..n).map(|_| AtomicU64::new(0)).collect(),
        memory: MemoryBank::for_partition(&spec.partition),
        seed: spec.seed,
        coin: spec.coin.clone(),
        coin_seed: spec.coin_seed,
        observer: spec.observer.clone(),
        trace: Mutex::new(TraceRecorder::new(spec.keep_trace)),
        churn_planned: (0..n)
            .map(|i| spec.churn.event(ProcessId(i)).is_some())
            .collect(),
    });

    // Schedule the timed crashes up front.
    for (pid, trig) in spec.crash_plan.iter() {
        if let CrashTrigger::AtTime(t) = trig {
            scheduler.push_crash(pid, t.ticks());
        }
    }
    // Churn leaves are crashes (identical semantics to the peers);
    // rejoins restart the process with a fresh seat.
    for (pid, e) in spec.churn.iter() {
        scheduler.push_crash(pid, e.leave.ticks());
        if let Some(r) = e.rejoin {
            scheduler.push_rejoin(pid, r.ticks());
        }
    }

    // Spawn one thread per process; each waits for its first baton.
    let mut seats: Vec<Seat> = Vec::with_capacity(n);
    for i in 0..n {
        seats.push(spawn_seat(
            i,
            0,
            ProcAccount::new(&spec.crash_plan, ProcessId(i)),
            spec.seed,
            &shared,
            &spec,
        ));
    }

    let run_burst = |seats: &mut Vec<Seat>, shared: &Arc<Shared>, pid: usize| {
        if seats[pid].finished.is_some() {
            return;
        }
        seats[pid]
            .go_tx
            .send(())
            .expect("process thread exited without yielding");
        match seats[pid].yield_rx.recv() {
            Ok(YieldMsg::Blocked) => {}
            Ok(YieldMsg::Finished((result, clock, account))) => {
                let event = match &result {
                    Ok(d) => TraceEvent::Decided {
                        who: ProcessId(pid),
                        decision: *d,
                    },
                    Err(h) => TraceEvent::Halted {
                        who: ProcessId(pid),
                        halt: *h,
                    },
                };
                shared
                    .trace
                    .lock()
                    .record(VirtualTime::from_ticks(clock), event);
                seats[pid].finished = Some((result, clock, account));
                if let Some(j) = seats[pid].join.take() {
                    j.join().expect("simulated process panicked");
                }
            }
            Err(_) => {
                // Thread died without a final message: propagate its panic.
                if let Some(j) = seats[pid].join.take() {
                    if let Err(payload) = j.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
                panic!("simulated process p{} exited abnormally", pid + 1);
            }
        }
    };

    let drain_outbox = |shared: &Arc<Shared>, scheduler: &mut S| {
        let msgs: Vec<OutMsg> = std::mem::take(&mut *shared.outbox.lock());
        for m in msgs {
            scheduler.push_send(m.from, m.to, m.msg, m.sent_at);
        }
    };

    // Initial bursts, in process order.
    for pid in 0..n {
        run_burst(&mut seats, &shared, pid);
        drain_outbox(&shared, scheduler);
    }

    // Main event loop.
    let mut events_processed: u64 = 0;
    let mut end_time: u64 = 0;
    while events_processed < spec.max_events {
        let Some(ev) = scheduler.pop() else { break };
        events_processed += 1;
        match ev {
            SchedEvent::Deliver { to, from, msg, at } => {
                end_time = end_time.max(at);
                let i = to.index();
                if seats[i].finished.is_some() || shared.crashed[i].load(Ordering::SeqCst) {
                    continue; // dropped on the floor
                }
                shared.trace.lock().record(
                    VirtualTime::from_ticks(at),
                    TraceEvent::Deliver { who: to, from, msg },
                );
                shared.queues[i].lock().push_back(Msg { from, kind: msg });
                shared.wake_time[i].fetch_max(at, Ordering::SeqCst);
                run_burst(&mut seats, &shared, i);
                drain_outbox(&shared, scheduler);
            }
            SchedEvent::Crash { pid, at } => {
                end_time = end_time.max(at);
                let i = pid.index();
                if seats[i].finished.is_some() {
                    continue;
                }
                shared.crashed[i].store(true, Ordering::SeqCst);
                shared
                    .trace
                    .lock()
                    .record(VirtualTime::from_ticks(at), TraceEvent::Crash { who: pid });
                shared.wake_time[i].fetch_max(at, Ordering::SeqCst);
                run_burst(&mut seats, &shared, i);
                drain_outbox(&shared, scheduler);
            }
            SchedEvent::Rejoin { pid, at } => {
                end_time = end_time.max(at);
                let i = pid.index();
                // A process that decided before its scheduled leave
                // ignored the leave; it ignores the rejoin too.
                if !matches!(seats[i].finished, Some((Err(Halt::Crashed), ..))) {
                    continue;
                }
                shared
                    .trace
                    .lock()
                    .record(VirtualTime::from_ticks(at), TraceEvent::Rejoin { who: pid });
                let (_, crash_clock, mut account) = seats[i]
                    .finished
                    .take()
                    .expect("a crashed seat has finished");
                account.rejoin();
                let clock = crash_clock.max(at);
                shared.crashed[i].store(false, Ordering::SeqCst);
                shared.queues[i].lock().clear();
                shared.wake_time[i].store(clock, Ordering::SeqCst);
                // Fresh seat: new mailbox, rejoin-domain coin stream,
                // original proposal; the account carries over.
                seats[i] = spawn_seat(
                    i,
                    clock,
                    *account,
                    rejoin_coin_seed(spec.seed),
                    &shared,
                    &spec,
                );
                run_burst(&mut seats, &shared, i);
                drain_outbox(&shared, scheduler);
            }
        }
    }

    // Quiescent or budget exhausted: stop the stragglers.
    shared.stopped.store(true, Ordering::SeqCst);
    for pid in 0..n {
        run_burst(&mut seats, &shared, pid);
    }

    let mut results = Vec::with_capacity(n);
    let mut counters = Vec::with_capacity(n);
    let mut service = ServiceStats::new();
    for s in seats.iter_mut() {
        let (result, clock, account) = s.finished.take().expect("all processes have yielded");
        results.push((result, clock));
        counters.push(account.counters);
        service.merge(&account.service);
        if let Some(j) = s.join.take() {
            j.join().expect("simulated process panicked");
        }
    }

    let trace = std::mem::replace(&mut *shared.trace.lock(), TraceRecorder::new(false));
    let trace_hash = trace.hash();
    let end_time = end_time.max(results.iter().map(|(_, c)| *c).max().unwrap_or(0));
    RawOutcome {
        results,
        counters,
        service,
        trace_hash,
        trace_events: trace.into_events(),
        events_processed,
        end_time,
        sm_objects: shared.memory.total_objects(),
        sm_proposes: shared.memory.total_proposes(),
    }
}
