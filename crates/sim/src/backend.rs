//! The [`Sim`] backend: deterministic execution of any
//! [`ofa_scenario::Scenario`].

use crate::checkpoint::{EngineSnap, ProcSnap};
use crate::conductor::{conduct, TimedScheduler};
use crate::par::{conduct_sharded, leg_machine, LegResult};
use ofa_coins::CommonCoin;
use ofa_core::sm::SmTopology;
use ofa_core::{Bit, Decision, Halt, Observer, ProtocolConfig};
use ofa_metrics::{CounterSnapshot, ServiceStats};
use ofa_scenario::{
    default_workers, Backend, BackendKind, Body, ChurnPlan, CoinSpec, CostModel, CrashPlan,
    DivergeSpec, Engine, Outcome, Scenario, Snapshot, TimedEvent, VirtualTime, SNAPSHOT_VERSION,
};
use ofa_topology::Partition;
use serde::{Deserialize as _, Serialize as _};
use std::sync::Arc;
use std::time::Instant;

/// The deterministic discrete-event backend.
///
/// Every run is a pure function of the scenario value: the same
/// [`Scenario`] — including one deserialized from JSON — reproduces the
/// same [`Outcome::trace_hash`] bit-for-bit. The scenario's
/// [`Engine`] knob selects *how* processes execute — blocking algorithms
/// on conducted threads ([`Engine::Threads`], the reference) or resumable
/// state machines on a single thread ([`Engine::EventDriven`], the
/// scalable engine) — with identical outcomes either way; custom
/// protocol bodies always run on the thread conductor.
///
/// # Examples
///
/// ```
/// use ofa_core::{Algorithm, Bit};
/// use ofa_scenario::{Backend, Scenario};
/// use ofa_sim::Sim;
/// use ofa_topology::Partition;
///
/// // Figure 1 (right), mixed proposals, common-coin algorithm:
/// let scenario = Scenario::new(Partition::fig1_right(), Algorithm::CommonCoin)
///     .proposals_split(3) // p1..p3 propose 1, the rest propose 0
///     .seed(7);
/// let outcome = Sim.run(&scenario);
/// assert!(outcome.all_correct_decided);
/// assert!(outcome.agreement_holds());
/// outcome.decided_value.expect("someone decided");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Sim;

/// How a time-budgeted [`Sim::run_until`] / [`Sim::resume_until`] leg
/// ended.
// `Done` is the overwhelmingly common case and every caller consumes it
// immediately; boxing it would tax the straight-through path to slim an
// enum that lives for one `match`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run reached quiescence (or its event budget) before the cut
    /// and completed normally.
    Done(Outcome),
    /// The run paused at the virtual-time cut; the snapshot resumes it
    /// bit-for-bit (serialize it, ship it, [`Sim::resume`] it).
    Paused(Box<Snapshot>),
}

impl Sim {
    /// Runs `scenario` until the virtual-time cut `stop_at`: every event
    /// scheduled strictly before the cut is processed, none at or after
    /// it. If the run finishes first, this is exactly [`Backend::run`].
    ///
    /// The returned [`Snapshot`] resumes **bit-for-bit** on either event
    /// engine: the final `Outcome`'s deterministic fields (decisions,
    /// counters, `events_processed`, `end_time`, trace hash) equal the
    /// straight-through run's.
    ///
    /// # Panics
    ///
    /// Panics if the scenario cannot checkpoint: a custom (blocking)
    /// body or an explicit [`Engine::Threads`] request, a retained trace
    /// ([`Scenario::keep_trace`]), an observer, or a [`CoinSpec::Custom`]
    /// coin (snapshots must serialize; custom coins cannot).
    pub fn run_until(&self, scenario: &Scenario, stop_at: VirtualTime) -> RunOutcome {
        run_leg(scenario, None, Some(stop_at))
    }

    /// Resumes a checkpoint to completion (same as [`Backend::run_from`]).
    pub fn resume(&self, snapshot: &Snapshot) -> Outcome {
        expect_done(resume_leg(snapshot, &snapshot.scenario, None))
    }

    /// Resumes a checkpoint up to a further cut — chained legs: a run
    /// can be carried across any number of pause/resume hops (each CI
    /// gate invocation runs one leg) and still end bit-identical.
    pub fn resume_until(&self, snapshot: &Snapshot, stop_at: VirtualTime) -> RunOutcome {
        resume_leg(snapshot, &snapshot.scenario, Some(stop_at))
    }

    /// Resumes a checkpoint with a mutated tail: everything before the
    /// cut is history (identical to the original run); the
    /// [`DivergeSpec`] rewrites what happens after — extra crashes, a
    /// different delay seed, a common-coin override.
    pub fn diverge(&self, snapshot: &Snapshot, spec: &DivergeSpec) -> Outcome {
        let diverged = spec.apply(&snapshot.scenario);
        expect_done(resume_leg(snapshot, &diverged, None))
    }

    /// Checks that `snapshot` can resume under its scenario: the
    /// scenario itself ([`Scenario::validate`], and that it can
    /// checkpoint at all), the engine state, the cut time it was taken
    /// at, the process and cluster counts, every pending event's
    /// processes and time, and that every machine's state loads into the
    /// machine the scenario builds for its process. (The format version
    /// is the decoder's to refuse: a [`Snapshot`] of another version
    /// does not decode.)
    /// [`Sim::resume`], [`Sim::resume_until`] and [`Sim::diverge`]
    /// run the same check and panic where it fails; a caller holding a
    /// snapshot it did not make (a file) checks first to refuse it.
    ///
    /// # Errors
    ///
    /// The first part of the snapshot that does not decode
    /// ([`CheckpointError::Decode`]) or does not agree with the rest
    /// ([`CheckpointError::Refused`]).
    pub fn check_snapshot(&self, snapshot: &Snapshot) -> Result<(), CheckpointError> {
        decode_snapshot(snapshot, &snapshot.scenario).map(drop)
    }
}

/// Why [`Sim::check_snapshot`] refuses a snapshot.
#[derive(Debug)]
pub enum CheckpointError {
    /// A part of the engine state does not decode.
    Decode(serde::Error),
    /// The snapshot decodes but cannot resume: its scenario is invalid
    /// or cannot checkpoint, its cut, sizes or pending events disagree
    /// with the rest, or a machine does not load into the one the
    /// scenario builds. Displayed as the reason alone.
    Refused(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Decode(e) => e.fmt(f),
            CheckpointError::Refused(reason) => f.write_str(reason),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<serde::Error> for CheckpointError {
    fn from(e: serde::Error) -> Self {
        CheckpointError::Decode(e)
    }
}

fn expect_done(run: RunOutcome) -> Outcome {
    match run {
        RunOutcome::Done(out) => out,
        RunOutcome::Paused(_) => unreachable!("no cut was requested"),
    }
}

impl Backend for Sim {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&self, scenario: &Scenario) -> Outcome {
        run_scenario(scenario)
    }

    fn run_from(&self, snapshot: &Snapshot) -> Outcome {
        self.resume(snapshot)
    }
}

/// How `scenario` will execute — the decision recorded, under its
/// engine name, in [`Outcome::engine_used`]: `None` is the thread
/// conductor, `Some(shards)` the sharded event loop on that many shards.
/// The ladder:
///
/// * [`Body::Custom`](ofa_scenario::Body::Custom) bodies are blocking
///   code → the conductor, whatever was requested.
/// * [`Engine::Threads`] → the conductor; [`Engine::EventDriven`] → one
///   shard, on the calling thread.
/// * [`Engine::ParallelEvent`] → as many shards as requested (auto
///   workers resolve to the host parallelism), capped by the cluster
///   count `m` — see [`parallel_shards`] for when that is one.
///
/// Every fallback is observable in [`Outcome::engine_used`], never
/// silent.
fn resolve_shards(scenario: &Scenario) -> Option<usize> {
    if !scenario.body.has_state_machine() {
        return None;
    }
    match scenario.engine {
        Engine::Threads => None,
        Engine::EventDriven => Some(1),
        Engine::ParallelEvent { workers } => {
            Some(parallel_shards(scenario, workers, available_cores()))
        }
    }
}

/// The [`Outcome::engine_used`] name of a [`resolve_shards`] decision:
/// one shard *is* [`Engine::EventDriven`]; [`Engine::ParallelEvent`]
/// carries the resolved shard count.
fn engine_used(shards: Option<usize>) -> Engine {
    match shards {
        None => Engine::Threads,
        Some(1) => Engine::EventDriven,
        Some(shards) => Engine::ParallelEvent {
            workers: shards as u64,
        },
    }
}

/// The shard count of a `ParallelEvent` request, with the host core
/// count passed in so the guard is a pure, testable function. It is one
/// shard when several cannot help or cannot be exact: a single cluster
/// (nothing to split), more shards than the host has cores (epoch
/// barriers on an oversubscribed box cost more than they buy, as a
/// single-core host once showed), a zero
/// [`ofa_scenario::NetworkModel::min_delay`] (no conservative lookahead
/// window between shards), or a retained trace
/// ([`Scenario::keep_trace`] — only one shard records events in
/// dispatch *order*; the hash needs no order and is always computed).
fn parallel_shards(scenario: &Scenario, workers: u64, cores: usize) -> usize {
    let requested = if workers == 0 {
        default_workers()
    } else {
        workers as usize
    };
    let shards = requested.min(scenario.partition.m());
    if shards > cores || scenario.network.min_delay() == 0 || scenario.keep_trace {
        1
    } else {
        shards
    }
}

/// Process-wide override for [`available_cores`]; `0` = no override.
static CORES_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Overrides the core count [`parallel_shards`]' guard
/// sees. `0` clears the override. The determinism contract does not
/// depend on the host's parallelism — this exists so equivalence tests
/// can exercise the parallel engine on small CI boxes, and is hidden
/// because the guard is a perf heuristic, not a correctness knob.
#[doc(hidden)]
pub fn override_available_cores(cores: usize) {
    CORES_OVERRIDE.store(cores, std::sync::atomic::Ordering::Relaxed);
}

/// The host's scheduling parallelism — the ceiling above which extra
/// shards only add barrier synchronization cost (measured 0.93× vs the
/// sequential event engine at `n = 10⁴` on one core). Overridable via
/// [`override_available_cores`] or the `OFA_CORES` environment variable
/// (useful to pin CI benchmark runs to a known shard plan).
pub(crate) fn available_cores() -> usize {
    let forced = CORES_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Some(v) = std::env::var("OFA_CORES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&v| v > 0)
    {
        return v;
    }
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// Everything needed to run one simulated execution.
pub(crate) struct RunSpec {
    pub partition: Partition,
    pub body: Body,
    pub config: ProtocolConfig,
    pub proposals: Vec<Bit>,
    pub seed: u64,
    pub costs: CostModel,
    pub crash_plan: CrashPlan,
    pub churn: ChurnPlan,
    pub common_coin: Arc<dyn CommonCoin>,
    pub observer: Option<Arc<dyn Observer>>,
    pub keep_trace: bool,
    pub max_events: u64,
}

impl RunSpec {
    /// Everything an engine needs of `scenario`, built exactly once per
    /// run (the body, proposals and crash plan are cloned here and
    /// nowhere else).
    pub(crate) fn from_scenario(scenario: &Scenario) -> Self {
        RunSpec {
            partition: scenario.partition.clone(),
            body: scenario.body.clone(),
            config: scenario.config,
            proposals: scenario.proposals.clone(),
            seed: scenario.seed,
            costs: scenario.costs,
            crash_plan: scenario.crashes.clone(),
            // Poisson churn arrivals expand into explicit events here,
            // once, before any engine sees the plan — the expansion is a
            // pure PRF of the scenario seed, so a leg resumed from a
            // snapshot re-derives the identical plan.
            churn: scenario
                .churn
                .resolve(scenario.seed, scenario.partition.n(), &scenario.crashes),
            common_coin: scenario.build_coin(),
            observer: scenario.observer.clone(),
            keep_trace: scenario.keep_trace,
            max_events: scenario.max_events,
        }
    }
}

/// Executes `scenario` on the engine it resolves to and shapes the raw
/// result into the unified [`Outcome`].
pub(crate) fn run_scenario(scenario: &Scenario) -> Outcome {
    scenario.assert_valid();
    let started = Instant::now();
    match resolve_shards(scenario) {
        None => {
            let net = scenario.network.compile(&scenario.partition);
            let mut scheduler = TimedScheduler::new(scenario.seed, net);
            let raw = conduct(RunSpec::from_scenario(scenario), &mut scheduler);
            finish_outcome(Engine::Threads, raw, started)
        }
        Some(shards) => expect_done(run_sharded(scenario, shards, None, None, started)),
    }
}

/// Runs one leg — fresh or resumed, to completion or to a cut — on
/// `shards` shards of the event loop, and shapes the result.
fn run_sharded(
    scenario: &Scenario,
    shards: usize,
    resume: Option<&EngineSnap>,
    stop_at: Option<VirtualTime>,
    started: Instant,
) -> RunOutcome {
    let spec = RunSpec::from_scenario(scenario);
    let net = scenario.network.compile(&scenario.partition);
    let cut = stop_at.map(|t| t.ticks());
    match conduct_sharded(spec, &net, shards, resume, cut) {
        LegResult::Done(raw) => {
            RunOutcome::Done(finish_outcome(engine_used(Some(shards)), raw, started))
        }
        LegResult::Paused(snap) => RunOutcome::Paused(Box::new(Snapshot {
            version: SNAPSHOT_VERSION,
            scenario: scenario.clone(),
            at: VirtualTime::from_ticks(snap.at),
            engine_state: snap.to_value(),
        })),
    }
}

/// Raw result of a run on either loop, before [`finish_outcome`] shapes
/// it into the unified [`Outcome`].
pub(crate) struct RawOutcome {
    pub results: Vec<(Result<Decision, Halt>, u64)>,
    pub counters: Vec<CounterSnapshot>,
    /// Run-wide client-service statistics (traffic-driven replicated
    /// logs only; empty otherwise), merged over processes in index order.
    pub service: ServiceStats,
    pub trace_hash: u64,
    pub trace_events: Vec<TimedEvent>,
    pub events_processed: u64,
    pub end_time: u64,
    pub sm_objects: usize,
    pub sm_proposes: u64,
}

/// Domain separator folded into the master seed for the local-coin
/// stream of a rejoined process: a second incarnation must not replay
/// its first incarnation's coin flips. Shared by all engines.
const REJOIN_COIN_DOMAIN: u64 = 0x8E01_12EC_015E_ED01;

/// The local-coin seed used by every engine for rejoined incarnations.
pub(crate) fn rejoin_coin_seed(seed: u64) -> u64 {
    seed ^ REJOIN_COIN_DOMAIN
}

/// Shapes a raw engine result into the unified [`Outcome`].
fn finish_outcome(engine: Engine, raw: RawOutcome, started: Instant) -> Outcome {
    let latest_decision_ticks = raw
        .results
        .iter()
        .filter(|(res, _)| res.is_ok())
        .map(|(_, clock)| *clock)
        .max()
        .unwrap_or(0);
    let results: Vec<_> = raw.results.iter().map(|(res, _)| *res).collect();
    let mut out = Outcome::assemble(
        BackendKind::Sim,
        results,
        raw.counters,
        raw.sm_objects,
        raw.sm_proposes,
    );
    // Record which engine actually ran — every fallback (custom body →
    // conductor, unparallelizable scenario → one shard) is observable
    // here, not silent.
    out.engine_used = Some(engine);
    out.service = raw.service;
    out.latest_decision_time = VirtualTime::from_ticks(latest_decision_ticks);
    out.end_time = VirtualTime::from_ticks(raw.end_time);
    out.events_processed = raw.events_processed;
    out.trace_hash = Some(raw.trace_hash);
    out.events = if raw.trace_events.is_empty() {
        None
    } else {
        Some(raw.trace_events)
    };
    out.elapsed = started.elapsed();
    out
}

/// Resolves the shard count for a checkpoint-capable leg, or says why
/// a snapshot cannot capture the scenario.
fn checkpoint_shards(scenario: &Scenario) -> Result<usize, String> {
    let refusal = if !scenario.body.has_state_machine() {
        "checkpointing requires a declarative body (custom bodies are blocking code)"
    } else if scenario.keep_trace {
        "checkpointing cannot retain an ordered trace (the multiset hash is always kept)"
    } else if scenario.observer.is_some() {
        "checkpointing does not capture observer state"
    } else if matches!(scenario.coin, CoinSpec::Custom(_)) {
        "checkpointing requires a serializable coin spec"
    } else if let Some(shards) = resolve_shards(scenario) {
        return Ok(shards);
    } else {
        "the thread engine cannot checkpoint; use an event engine"
    };
    Err(refusal.to_string())
}

/// Runs one checkpoint-capable leg — fresh or resumed, to completion or
/// to a cut.
fn run_leg(
    scenario: &Scenario,
    resume: Option<&EngineSnap>,
    stop_at: Option<VirtualTime>,
) -> RunOutcome {
    scenario.assert_valid();
    let started = Instant::now();
    let shards = checkpoint_shards(scenario).unwrap_or_else(|e| panic!("{e}"));
    run_sharded(scenario, shards, resume, stop_at, started)
}

/// Decodes a snapshot's engine state and continues it under `scenario`
/// (the snapshot's own scenario, or a diverged rewrite of it).
fn resume_leg(
    snapshot: &Snapshot,
    scenario: &Scenario,
    stop_at: Option<VirtualTime>,
) -> RunOutcome {
    let snap = decode_snapshot(snapshot, scenario).unwrap_or_else(|e| panic!("{e}"));
    run_leg(scenario, Some(&snap), stop_at)
}

/// Decodes `snapshot`'s engine state for a resume under `scenario`, and
/// refuses what a leg would otherwise panic on: an invalid scenario
/// ([`Scenario::validate`]) or one that cannot checkpoint, an engine
/// state that does not decode or was taken at
/// another cut time, another process or cluster count, a pending event
/// that names a process outside `0..n` or is timed before the cut, and
/// a machine that does not load into the one the scenario builds for
/// its process (another body kind, or a part shaped for another `n`).
/// The one decoder behind every resume and [`Sim::check_snapshot`].
fn decode_snapshot(
    snapshot: &Snapshot,
    scenario: &Scenario,
) -> Result<EngineSnap, CheckpointError> {
    use CheckpointError::Refused;
    scenario.validate().map_err(Refused)?;
    checkpoint_shards(scenario).map_err(Refused)?;
    let snap = EngineSnap::from_value(&snapshot.engine_state)?;
    if snap.at != snapshot.at.ticks() {
        return Err(Refused(format!(
            "snapshot cut time {} disagrees with its engine state ({})",
            snapshot.at.ticks(),
            snap.at
        )));
    }
    let (n, m) = (scenario.partition.n(), scenario.partition.m());
    let lens = (
        snap.machines.len(),
        snap.procs.len(),
        snap.send_counters.len(),
        snap.memory.len(),
    );
    if lens != (n, n, n, m) {
        let (machines, procs, counters, memories) = lens;
        return Err(Refused(format!(
            "snapshot holds {machines} machines, {procs} processes, {counters} send counters \
             and {memories} cluster memories for n = {n}, m = {m}"
        )));
    }
    let unreadable = |p: &ProcSnap| p.finished.is_some_and(|f| f.get().is_none());
    if let Some(i) = snap.procs.iter().position(unreadable) {
        return Err(Refused(format!(
            "process {i} finished with both or neither of a decision and a halt"
        )));
    }
    for ev in &snap.events {
        let (at, from, _, to) = ev.sort_key();
        if from as usize >= n || to as usize >= n {
            return Err(Refused(format!(
                "pending event {ev:?} names a process outside n = {n}"
            )));
        }
        if at < snap.at {
            return Err(Refused(format!(
                "pending event {ev:?} is timed before the cut {}",
                snap.at
            )));
        }
    }
    let spec = RunSpec::from_scenario(scenario);
    let topo = Arc::new(SmTopology::new(scenario.partition.clone()));
    for (i, m) in snap.machines.iter().enumerate() {
        if let Some(m) = m {
            leg_machine(&spec, &topo, i, Some(m)).map_err(Refused)?;
        }
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofa_core::{Algorithm, Bit};
    use ofa_scenario::CrashPlan;
    use ofa_topology::{Partition, ProcessId, ProcessSet};
    use std::sync::Arc;

    #[test]
    fn parallel_guard_respects_the_core_count() {
        // More shards than cores degrades to the sequential event engine,
        // observably, while a big-enough box keeps the request.
        let scenario = Scenario::new(Partition::even(12, 4), Algorithm::LocalCoin)
            .proposals_split(5)
            .parallel(4);
        assert_eq!(
            parallel_shards(&scenario, 4, 1),
            1,
            "4 shards on 1 core must fall back"
        );
        assert_eq!(
            parallel_shards(&scenario, 4, 2),
            1,
            "4 shards on 2 cores must fall back"
        );
        assert_eq!(
            parallel_shards(&scenario, 4, 4),
            4,
            "4 shards on 4 cores run as requested"
        );
        assert_eq!(
            parallel_shards(&scenario, 9, 64),
            4,
            "shards cap at the cluster count"
        );
        assert_eq!(engine_used(Some(1)), Engine::EventDriven);
        assert_eq!(engine_used(Some(4)), Engine::ParallelEvent { workers: 4 });
    }

    #[test]
    fn unanimous_one_cluster_decides_fast() {
        let out = Sim.run(
            &Scenario::new(Partition::single_cluster(4), Algorithm::LocalCoin)
                .proposals_all(Bit::One)
                .seed(1),
        );
        assert!(out.all_correct_decided);
        assert!(
            out.decided(Bit::One),
            "validity: unanimous input decides it"
        );
        assert_eq!(out.deciders(), 4);
        assert_eq!(out.max_decision_round, 1, "unanimous input: one round");
    }

    #[test]
    fn fig1_right_mixed_proposals_agree() {
        for seed in 0..5 {
            let out = Sim.run(
                &Scenario::new(Partition::fig1_right(), Algorithm::LocalCoin)
                    .proposals_split(3)
                    .seed(seed),
            );
            assert!(out.all_correct_decided, "seed {seed}");
            assert!(out.agreement_holds(), "seed {seed}");
        }
    }

    #[test]
    fn common_coin_variant_agrees() {
        for seed in 0..5 {
            let out = Sim.run(
                &Scenario::new(Partition::fig1_left(), Algorithm::CommonCoin)
                    .proposals_split(4)
                    .seed(seed),
            );
            assert!(out.all_correct_decided, "seed {seed}");
            assert!(out.agreement_holds(), "seed {seed}");
        }
    }

    #[test]
    fn same_scenario_same_trace_hash() {
        let scenario = |seed| {
            Scenario::new(Partition::fig1_right(), Algorithm::LocalCoin)
                .proposals_split(4)
                .seed(seed)
        };
        let a = Sim.run(&scenario(42));
        let b = Sim.run(&scenario(42));
        assert_eq!(a.trace_hash, b.trace_hash, "replay must be exact");
        assert!(a.trace_hash.is_some());
        assert_eq!(a.decided_value, b.decided_value);
        assert_eq!(a.latest_decision_time, b.latest_decision_time);
        let c = Sim.run(&scenario(43));
        // Different seed: almost surely a different schedule.
        assert_ne!(a.trace_hash, c.trace_hash);
    }

    #[test]
    fn crash_all_but_one_in_majority_cluster_still_decides() {
        // The paper's headline: Fig 1 right, crash everything except p3.
        let mut plan = CrashPlan::new();
        for i in [0usize, 1, 3, 4, 5, 6] {
            plan = plan.crash_at_start(ProcessId(i));
        }
        let out = Sim.run(
            &Scenario::new(Partition::fig1_right(), Algorithm::LocalCoin)
                .proposals_split(2)
                .crashes(plan)
                .seed(3),
        );
        assert!(out.all_correct_decided, "p3 alone must decide");
        assert_eq!(out.deciders(), 1);
        assert_eq!(out.crashed.len(), 6);
    }

    #[test]
    fn minority_survivors_stall_but_stay_safe() {
        // Pure message passing (singletons), crash a majority: no decision,
        // but also no wrong decision (indulgence).
        let part = Partition::singletons(5);
        let crashed = ProcessSet::from_indices(5, [0, 1, 2]);
        let out = Sim.run(
            &Scenario::new(part, Algorithm::LocalCoin)
                .proposals_split(2)
                .crashes(CrashPlan::new().crash_set_at_start(&crashed))
                .max_rounds(20)
                .seed(5),
        );
        assert!(!out.all_correct_decided);
        assert_eq!(out.deciders(), 0);
        assert!(out.agreement_holds());
    }

    #[test]
    fn trace_is_kept_on_request() {
        let out = Sim.run(
            &Scenario::new(Partition::single_cluster(2), Algorithm::CommonCoin)
                .proposals_all(Bit::Zero)
                .keep_trace(),
        );
        let events = out.events.expect("trace kept");
        assert!(!events.is_empty());
        // The trace must contain decisions for both processes.
        let decided = events
            .iter()
            .filter(|e| matches!(e.event, ofa_scenario::TraceEvent::Decided { .. }))
            .count();
        assert_eq!(decided, 2);
    }

    #[test]
    fn observer_sees_invariants_hold() {
        use ofa_core::InvariantChecker;
        let checker = Arc::new(InvariantChecker::new());
        let out = Sim.run(
            &Scenario::new(Partition::fig1_right(), Algorithm::LocalCoin)
                .proposals_split(3)
                .observer(checker.clone())
                .seed(11),
        );
        assert!(out.all_correct_decided);
        checker.assert_clean();
        assert_eq!(checker.decisions().len(), 7);
    }

    #[test]
    fn mid_broadcast_crash_partial_delivery_is_safe() {
        // Crash p2 a few env-calls in: its first broadcast is cut short.
        for step in [1u64, 2, 3, 5, 8] {
            let out = Sim.run(
                &Scenario::new(Partition::fig1_left(), Algorithm::LocalCoin)
                    .proposals_split(4)
                    .crashes(CrashPlan::new().crash_at_step(ProcessId(1), step))
                    .seed(step),
            );
            assert!(out.agreement_holds(), "step {step}");
            assert!(out.all_correct_decided, "step {step}");
            assert!(out.crashed.contains(ProcessId(1)));
        }
    }

    #[test]
    fn deserialized_scenario_reproduces_trace_hash() {
        let scenario = Scenario::new(Partition::fig1_right(), Algorithm::CommonCoin)
            .proposals_split(3)
            .crashes(CrashPlan::new().crash_at_step(ProcessId(5), 9))
            .seed(1234);
        let json = serde_json::to_string(&scenario).unwrap();
        let replay: Scenario = serde_json::from_str(&json).unwrap();
        let a = Sim.run(&scenario);
        let b = Sim.run(&replay);
        assert_eq!(a.trace_hash, b.trace_hash, "serde round-trip must replay");
        assert_eq!(a.decided_value, b.decided_value);
    }

    #[test]
    fn custom_bodies_fall_back_to_the_thread_conductor() {
        use ofa_core::{Decision, Env, Halt, ProtocolConfig};
        use ofa_scenario::ProcessBody;

        // A custom body is blocking code, so an EventDriven request must
        // run it on the conductor — same outcome either way, and the
        // fallback is recorded in `engine_used` rather than guessed.
        struct Delegate;
        impl ProcessBody for Delegate {
            fn run(
                &self,
                env: &mut dyn Env,
                proposal: Bit,
                config: &ProtocolConfig,
            ) -> Result<Decision, Halt> {
                Algorithm::LocalCoin.run(env, proposal, config)
            }
        }
        let base = Scenario::new(Partition::even(6, 2), Algorithm::LocalCoin)
            .proposals_split(3)
            .seed(5);
        let direct = Sim.run(&base.clone().engine(ofa_scenario::Engine::EventDriven));
        assert_eq!(
            direct.engine_used,
            Some(ofa_scenario::Engine::EventDriven),
            "declarative bodies run on the requested engine"
        );
        let custom = Sim.run(
            &base
                .custom_body(Arc::new(Delegate))
                .engine(ofa_scenario::Engine::EventDriven),
        );
        assert_eq!(
            custom.engine_used,
            Some(ofa_scenario::Engine::Threads),
            "custom bodies fall back to the conductor, observably"
        );
        assert_eq!(direct.trace_hash, custom.trace_hash);
        assert_eq!(direct.decisions, custom.decisions);
    }

    #[test]
    #[should_panic(expected = "one proposal per process")]
    fn wrong_proposal_count_panics() {
        let _ = Sim.run(
            &Scenario::new(Partition::single_cluster(3), Algorithm::LocalCoin)
                .proposals(vec![Bit::One]),
        );
    }
}
