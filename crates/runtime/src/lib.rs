//! # `ofa-runtime` — real-concurrency runtime for hybrid-model consensus
//!
//! Runs the `ofa-core` algorithms with *genuine* parallelism: one OS
//! thread per process, crossbeam channels as the reliable asynchronous
//! network, and the real lock-free `ofa-sharedmem` consensus objects as
//! each cluster's memory. This is the deployment the paper motivates —
//! each cluster a multicore address space, message passing in between —
//! collapsed onto one machine.
//!
//! Where `ofa-sim` gives determinism and virtual time, this runtime gives
//! real races and wall-clock latency. Both execute the *same* protocol
//! code, and both are backends of the unified
//! [`ofa_scenario::Scenario`] API: the [`Threads`] backend here accepts
//! exactly the scenario values the simulator accepts — failure patterns
//! ([`ofa_scenario::CrashPlan`]), coin overrides
//! ([`ofa_scenario::CoinSpec`]), custom protocol bodies
//! ([`ofa_scenario::ProcessBody`]), observers — and returns the same
//! [`ofa_scenario::Outcome`] type.
//!
//! # Examples
//!
//! ```
//! use ofa_core::{Algorithm, Bit};
//! use ofa_runtime::Threads;
//! use ofa_scenario::{Backend, Scenario};
//! use ofa_topology::Partition;
//!
//! let scenario = Scenario::new(Partition::fig1_right(), Algorithm::CommonCoin)
//!     .proposals_split(3)
//!     .seed(7);
//! let out = Threads.run(&scenario);
//! assert!(out.all_correct_decided);
//! assert!(out.agreement_holds());
//! ```

#![warn(missing_docs)]

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use ofa_coins::{CommonCoin, LocalCoin, SeededLocalCoin};
use ofa_core::{Bit, Decision, Env, Halt, Msg, MsgKind, ObsEvent, Observer};
use ofa_scenario::{Backend, BackendKind, CrashTrigger, Outcome, ProcAccount, Scenario};
use ofa_sharedmem::{MemoryBank, Slot};
use ofa_topology::{Partition, ProcessId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long `recv` sleeps between checks of the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// The environment backing one process thread.
struct ThreadEnv {
    me: ProcessId,
    partition: Partition,
    senders: Vec<Sender<Msg>>,
    receiver: Receiver<Msg>,
    memory: MemoryBank,
    account: ProcAccount,
    common_coin: Arc<dyn CommonCoin>,
    local_coin: SeededLocalCoin,
    observer: Option<Arc<dyn Observer>>,
    stop: Arc<AtomicBool>,
    /// Wall-clock instant at which an `AtTime` trigger fires (virtual
    /// ticks read as microseconds from run start — see [`Threads`]).
    crash_at_instant: Option<Instant>,
}

impl ThreadEnv {
    fn step(&mut self) -> Result<(), Halt> {
        self.check_timed_crash();
        self.account.step()
    }

    fn check_timed_crash(&mut self) {
        if self.crash_at_instant.is_some_and(|at| Instant::now() >= at) {
            self.account.crashed_self = true;
        }
    }
}

impl Env for ThreadEnv {
    fn me(&self) -> ProcessId {
        self.me
    }

    fn partition(&self) -> &Partition {
        &self.partition
    }

    fn send(&mut self, to: ProcessId, msg: MsgKind) -> Result<(), Halt> {
        self.step()?;
        self.account.counters.messages_sent += 1;
        // A closed channel means the receiver finished — the message is
        // simply dropped, like a message to a decided process.
        let _ = self.senders[to.index()].send(Msg {
            from: self.me,
            kind: msg,
        });
        Ok(())
    }

    fn broadcast(&mut self, msg: MsgKind) -> Result<(), Halt> {
        self.account.counters.broadcasts += 1;
        let n = self.partition.n();
        for j in 0..n {
            self.send(ProcessId(j), msg)?;
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Msg, Halt> {
        self.step()?;
        loop {
            match self.receiver.recv_timeout(POLL_INTERVAL) {
                Ok(m) => {
                    self.account.counters.messages_delivered += 1;
                    return Ok(m);
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Timed crashes fire even while blocked, like the
                    // simulator's scheduled crash events.
                    self.check_timed_crash();
                    if self.account.crashed_self {
                        return Err(Halt::Crashed);
                    }
                    if self.stop.load(Ordering::SeqCst) {
                        return Err(Halt::Stopped);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(Halt::Stopped),
            }
        }
    }

    fn cluster_propose(&mut self, slot: Slot, enc: u64) -> Result<u64, Halt> {
        self.step()?;
        self.account.counters.cluster_proposes += 1;
        Ok(self
            .memory
            .memory_of(&self.partition, self.me)
            .propose_raw(slot, enc))
    }

    fn local_coin(&mut self) -> Result<Bit, Halt> {
        self.step()?;
        self.account.counters.local_coin_flips += 1;
        Ok(Bit::from(self.local_coin.flip()))
    }

    fn common_coin(&mut self, round: u64) -> Result<Bit, Halt> {
        self.step()?;
        self.account.counters.common_coin_queries += 1;
        Ok(Bit::from(self.common_coin.bit(round)))
    }

    fn observe(&mut self, event: ObsEvent) {
        self.account.observe(&event);
        if let Some(obs) = &self.observer {
            obs.on_event(self.me, &event);
        }
    }
}

/// The real-thread backend: one OS thread per process.
///
/// Scenario semantics on this substrate:
///
/// * [`ofa_scenario::DelayModel`] / [`ofa_scenario::CostModel`] are
///   ignored — transit time and operation cost are whatever the hardware
///   does;
/// * [`CrashTrigger::AtStep`] and [`CrashTrigger::AtRound`] behave exactly
///   as in the simulator; [`CrashTrigger::AtTime`] reads the virtual
///   ticks as **microseconds of wall-clock time** from run start (an
///   approximation — real time is not virtual time);
/// * [`Scenario::keep_trace`] / `max_events` are ignored (no global event
///   order exists to record), so [`Outcome::trace_hash`] is `None`;
/// * [`Scenario::timeout_ms`] bounds the run: undecided processes are
///   stopped (indulgence — they stop *without* deciding).
///
/// # Examples
///
/// ```
/// use ofa_core::Algorithm;
/// use ofa_runtime::Threads;
/// use ofa_scenario::{Backend, Scenario};
/// use ofa_topology::Partition;
///
/// let out = Threads.run(
///     &Scenario::new(Partition::even(6, 2), Algorithm::LocalCoin).proposals_split(3),
/// );
/// assert!(out.agreement_holds());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Threads;

impl Backend for Threads {
    fn name(&self) -> &'static str {
        "threads"
    }

    fn run(&self, scenario: &Scenario) -> Outcome {
        run_scenario(scenario)
    }
}

/// What a process thread hands back when its body returns: its index,
/// its result, when it returned, and its account.
type Done = (usize, Result<Decision, Halt>, Duration, ProcAccount);

/// Executes `scenario` on real threads and assembles the unified outcome.
fn run_scenario(scenario: &Scenario) -> Outcome {
    scenario.assert_valid();
    if let ofa_scenario::Body::ReplicatedLog(smr) = &scenario.body {
        assert!(
            smr.traffic.is_none(),
            "the real-thread runtime has no virtual clock: traffic-driven \
             workloads (arrival processes, latency histograms) need a \
             virtual-time backend — run this scenario on `Sim`"
        );
    }
    let n = scenario.partition.n();
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded::<Msg>();
        senders.push(tx);
        receivers.push(rx);
    }
    let memory = MemoryBank::for_partition(&scenario.partition);
    let common_coin = scenario.build_coin();
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();

    let (done_tx, done_rx) = unbounded::<Done>();
    let mut handles = Vec::with_capacity(n);
    for (i, receiver) in receivers.into_iter().enumerate() {
        let me = ProcessId(i);
        let crash_at_instant = match scenario.crashes.trigger(me) {
            Some(CrashTrigger::AtTime(t)) => Some(started + Duration::from_micros(t.ticks())),
            _ => None,
        };
        let mut env = ThreadEnv {
            me,
            partition: scenario.partition.clone(),
            senders: senders.clone(),
            receiver,
            memory: memory.clone(),
            account: ProcAccount::new(&scenario.crashes, me),
            common_coin: Arc::clone(&common_coin),
            local_coin: SeededLocalCoin::for_process(scenario.seed, me),
            observer: scenario.observer.clone(),
            stop: Arc::clone(&stop),
            crash_at_instant,
        };
        let body = scenario.body.clone();
        let config = scenario.config;
        let proposal = scenario.proposals[i];
        let done_tx = done_tx.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("ofa-p{}", i + 1))
                .spawn(move || {
                    let result = body.run(&mut env, proposal, &config);
                    let _ = done_tx.send((i, result, started.elapsed(), env.account));
                })
                .expect("spawn process thread"),
        );
    }
    drop(done_tx);
    drop(senders);

    // Collect results; on deadline, raise the stop flag so blocked
    // processes bail out with Halt::Stopped.
    let mut results: Vec<Option<Done>> = vec![None; n];
    let mut collected = 0;
    let deadline = started + scenario.timeout_duration();
    while collected < n {
        let now = Instant::now();
        let wait = deadline.saturating_duration_since(now).max(POLL_INTERVAL);
        match done_rx.recv_timeout(wait) {
            Ok(done) => {
                let i = done.0;
                results[i] = Some(done);
                collected += 1;
            }
            Err(RecvTimeoutError::Timeout) => {
                stop.store(true, Ordering::SeqCst);
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if Instant::now() >= deadline {
            stop.store(true, Ordering::SeqCst);
        }
    }
    for h in handles {
        h.join().expect("process thread panicked");
    }

    let mut latest_decision = None;
    let mut flat = Vec::with_capacity(n);
    let mut per_process = Vec::with_capacity(n);
    for slot in results {
        let (_, res, at, account) = slot.expect("every thread reports");
        if res.is_ok() {
            latest_decision = Some(latest_decision.unwrap_or(Duration::ZERO).max(at));
        }
        flat.push(res);
        per_process.push(account.counters);
    }
    let mut out = Outcome::assemble(
        BackendKind::Threads,
        flat,
        per_process,
        memory.total_objects(),
        memory.total_proposes(),
    );
    out.elapsed = started.elapsed();
    out.latest_decision = latest_decision;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofa_core::Algorithm;
    use ofa_scenario::{CoinSpec, CrashPlan};
    use ofa_topology::ProcessSet;

    #[test]
    fn seven_processes_fig1_right_agree() {
        for seed in 0..3 {
            let out = Threads.run(
                &Scenario::new(Partition::fig1_right(), Algorithm::LocalCoin)
                    .proposals_split(3)
                    .seed(seed),
            );
            assert!(out.all_correct_decided, "seed {seed}");
            assert!(out.agreement_holds(), "seed {seed}");
            assert_eq!(out.deciders(), 7);
            assert!(out.trace_hash.is_none(), "real threads have no trace");
            assert!(out.latest_decision.is_some());
        }
    }

    #[test]
    fn unanimous_input_decides_that_value() {
        for v in Bit::ALL {
            let out = Threads.run(
                &Scenario::new(Partition::fig1_left(), Algorithm::CommonCoin)
                    .proposals_all(v)
                    .seed(1),
            );
            assert!(out.all_correct_decided);
            assert_eq!(out.decided_value, Some(v), "validity");
        }
    }

    #[test]
    fn headline_crash_pattern_one_survivor_decides() {
        let mut plan = CrashPlan::new();
        for i in [0usize, 1, 3, 4, 5, 6] {
            plan = plan.crash_at_start(ProcessId(i));
        }
        let out = Threads.run(
            &Scenario::new(Partition::fig1_right(), Algorithm::CommonCoin)
                .proposals_split(4)
                .crashes(plan)
                .seed(2),
        );
        assert!(out.all_correct_decided);
        assert_eq!(out.deciders(), 1);
        assert_eq!(out.crashed.len(), 6);
        assert!(out.decisions[2].is_some(), "p3 is the survivor");
    }

    #[test]
    fn stalled_minority_is_stopped_safely() {
        // Pure message-passing, majority crashed: never decides; the
        // timeout stops it without a wrong decision.
        let crashed = ProcessSet::from_indices(4, [0, 1]);
        let out = Threads.run(
            &Scenario::new(Partition::singletons(4), Algorithm::LocalCoin)
                .proposals_split(2)
                .crashes(CrashPlan::new().crash_set_at_start(&crashed))
                .timeout(Duration::from_millis(300))
                .seed(3),
        );
        assert!(!out.all_correct_decided);
        assert_eq!(out.deciders(), 0);
        assert!(out.agreement_holds());
    }

    #[test]
    fn invariants_hold_under_real_races() {
        use ofa_core::InvariantChecker;
        for seed in 0..5 {
            let checker = Arc::new(InvariantChecker::new());
            let out = Threads.run(
                &Scenario::new(Partition::even(8, 3), Algorithm::LocalCoin)
                    .proposals_split(4)
                    .observer(checker.clone())
                    .seed(seed),
            );
            assert!(out.all_correct_decided, "seed {seed}");
            checker.assert_clean();
        }
    }

    #[test]
    fn crash_mid_broadcast_is_safe() {
        for step in [1u64, 3, 6] {
            let out = Threads.run(
                &Scenario::new(Partition::fig1_left(), Algorithm::LocalCoin)
                    .proposals_split(4)
                    .crashes(CrashPlan::new().crash_at_step(ProcessId(0), step))
                    .seed(step),
            );
            assert!(out.agreement_holds());
            assert!(out.all_correct_decided, "step {step}");
        }
    }

    #[test]
    fn crash_at_round_two() {
        let out = Threads.run(
            &Scenario::new(Partition::even(6, 2), Algorithm::LocalCoin)
                .proposals_split(3)
                .crashes(CrashPlan::new().crash_at_round(ProcessId(5), 2))
                .seed(9),
        );
        assert!(out.agreement_holds());
        // p6 either decided in round 1 or crashed at round 2.
        let p6 = &out.decisions[5];
        assert!(p6.is_none() || p6.unwrap().round < 2);
    }

    #[test]
    fn scripted_coin_override_applies() {
        // A constant-1 common coin plus unanimous-1 proposals: decided
        // value must be 1 (validity would force it anyway; this checks
        // the CoinSpec plumbing end to end).
        let out = Threads.run(
            &Scenario::new(Partition::even(4, 2), Algorithm::CommonCoin)
                .proposals_all(Bit::One)
                .coin(CoinSpec::Constant(Bit::One))
                .seed(4),
        );
        assert!(out.all_correct_decided);
        assert_eq!(out.decided_value, Some(Bit::One));
    }

    #[test]
    fn timed_crash_fires_even_while_blocked() {
        use ofa_scenario::VirtualTime;
        // Crash p1 1ms (1000 ticks-as-µs) in; a stalled singleton system
        // keeps it blocked in recv, so only the timed trigger can fire.
        let crashed = ProcessSet::from_indices(3, [1, 2]);
        let out = Threads.run(
            &Scenario::new(Partition::singletons(3), Algorithm::LocalCoin)
                .proposals_split(1)
                .crashes(
                    CrashPlan::new()
                        .crash_at_time(ProcessId(0), VirtualTime::from_ticks(1_000))
                        .crash_set_at_start(&crashed),
                )
                .timeout(Duration::from_millis(400))
                .seed(8),
        );
        assert!(out.crashed.contains(ProcessId(0)), "timed crash must fire");
        assert_eq!(out.deciders(), 0);
    }

    #[test]
    #[should_panic(expected = "no virtual clock")]
    fn traffic_workloads_are_rejected() {
        // Arrival processes are pure functions of virtual time; real
        // threads have none, so the backend refuses rather than serving
        // a silently different (wall-clock) workload.
        use ofa_core::{ArrivalProcess, TrafficSpec};
        let _ = Threads.run(
            &Scenario::new(Partition::even(4, 2), Algorithm::LocalCoin).replicated_log_traffic(
                Algorithm::LocalCoin,
                2,
                TrafficSpec {
                    arrival: ArrivalProcess::Periodic {
                        period: 100,
                        phase: 0,
                    },
                    clients: 4,
                    queue_cap: 8,
                    batch_max: 4,
                    batch_min: 0,
                },
            ),
        );
    }
}
