//! The declarative description of one consensus execution.

use crate::{Body, ChurnPlan, CostModel, CrashPlan, DelayModel, NetworkModel, ProcessBody};
use ofa_core::{Algorithm, Bit, Observer, ProtocolConfig};
use ofa_topology::Partition;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Which common coin a scenario uses (paper §II-B): plain data, stored
/// with the scenario and read by every backend through [`CoinSpec::bit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoinSpec {
    /// The default: a fair seeded coin ([`ofa_coins::common_bit`]) keyed
    /// by [`Scenario::coin_seed`] — identical across all backends.
    Seeded,
    /// An adversarial coin that always returns the same bit.
    Constant(Bit),
    /// A coin that alternates by round parity: `true` on odd rounds.
    Alternating,
    /// A coin replaying a fixed script, then repeating its last bit
    /// (`false` for an empty script). Rounds are 1-based in the paper:
    /// round `r` reads `script[r - 1]`.
    Scripted(Vec<bool>),
}

impl CoinSpec {
    /// The common bit `b_r` for `round` of a run whose coin seed is
    /// `coin_seed` (only [`CoinSpec::Seeded`] reads the seed).
    pub fn bit(&self, coin_seed: u64, round: u64) -> bool {
        match self {
            CoinSpec::Seeded => ofa_coins::common_bit(coin_seed, round),
            CoinSpec::Constant(b) => b.as_bool(),
            CoinSpec::Alternating => round % 2 == 1,
            CoinSpec::Scripted(script) => {
                let i = (round.max(1) - 1) as usize;
                (script.get(i).or(script.last()).copied()).unwrap_or(false)
            }
        }
    }
}

/// Which execution engine a virtual-time backend uses to drive the
/// processes of a scenario (real-time backends ignore the knob).
///
/// All engines consume the same scheduler event stream and produce
/// identical [`crate::Outcome`]s — decisions, agreement, decider sets,
/// even trace hashes — for any declarative scenario
/// (`tests/engine_equivalence.rs` asserts this on a seeded corpus
/// covering binary, multivalued, and replicated-log bodies). They differ
/// only in *how* a process is represented and scheduled:
///
/// * [`Engine::Threads`] — the reference engine: each process runs the
///   blocking `Env`-trait algorithm on its own OS thread, with a
///   conductor baton serializing execution. Faithful to the paper's
///   pseudocode, but two context switches per burst cap it at a few
///   thousand processes.
/// * [`Engine::EventDriven`] — the default: each process is a resumable
///   `ofa_core::sm` state machine ([`ofa_core::sm::ConsensusSm`],
///   [`ofa_core::sm::MultivaluedSm`], [`ofa_core::sm::LogSm`], matching
///   the body) stepped directly off a heap of pending events. It is the
///   cluster-sharded event loop below with **one shard** that owns every
///   cluster, driven on the calling thread: no spawned threads, no
///   baton, no channels. Scales to tens of thousands of processes (the
///   benchmark's `consensus-fastpath` cell runs `n = 5 000`). Custom
///   protocol bodies
///   ([`crate::Body::Custom`]) are blocking code and fall back to
///   [`Engine::Threads`] — [`crate::Outcome::engine_used`] records which
///   engine actually ran.
/// * [`Engine::ParallelEvent`] — the same event loop with several
///   shards, one per worker thread: each shard owns its clusters'
///   machines, shared memories, and event heap, and shards exchange
///   cross-shard deliveries at deterministic virtual-time epoch barriers
///   (conservative lookahead = [`crate::NetworkModel::min_delay`]).
///   Bit-for-bit identical to [`Engine::EventDriven`] for any seed *and
///   any worker count* — the cluster partition is exactly the paper's
///   communication structure, so shards only interact through the
///   message schedule, which is a pure function of the scenario.
///   Resolves to one shard — reported, via
///   [`crate::Outcome::engine_used`], as [`Engine::EventDriven`] — when
///   several cannot help or cannot be exact: a single cluster, more
///   shards than the host has cores, a network whose
///   [`crate::NetworkModel::min_delay`] is zero (no lookahead window), or
///   [`crate::Scenario::keep_trace`] (only one shard records events in
///   dispatch *order*); and to [`Engine::Threads`] for custom bodies.
///   One caveat survives on purpose: with several shards an attached
///   [`crate::Scenario::observer`] is invoked from shard threads
///   concurrently, so while every *per-process* event subsequence (and
///   the whole [`crate::Outcome`]) is deterministic, the global
///   interleaving of callbacks across processes is not — per-process
///   collectors (e.g. `ofa-smr`'s `LogCollector`, which large SMR runs
///   rely on) are unaffected; use [`Engine::EventDriven`] for
///   order-sensitive observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Engine {
    /// One OS thread per process + conductor baton (the reference).
    Threads,
    /// The state-machine event loop on one shard, on the calling thread
    /// (the default).
    EventDriven,
    /// The same event loop sharded by cluster over worker threads.
    ParallelEvent {
        /// Worker threads to use; `0` = auto (one per available core,
        /// capped by the number of clusters).
        workers: u64,
    },
}

impl Engine {
    /// Shorthand for [`Engine::ParallelEvent`] with auto-detected workers.
    pub fn parallel() -> Self {
        Engine::ParallelEvent { workers: 0 }
    }
}

impl Default for Engine {
    /// The scalable engine: since the bit-for-bit equivalence corpus
    /// covers every declarative body, new scenarios default to it. Pin
    /// [`Engine::Threads`] (CLI: `--engine threads`) to run the
    /// conductor reference instead.
    fn default() -> Self {
        Engine::EventDriven
    }
}

/// The engine of a scenario stored before the knob existed: those
/// corpora ran on the conductor, so they replay there (the engines are
/// equivalent, but fidelity-by-construction is free here).
fn engine_before_the_knob() -> Engine {
    Engine::Threads
}

/// A complete, backend-agnostic description of one consensus execution:
/// *what* to run (partition, body, configuration, proposals) and *under
/// which conditions* (seed, failure pattern, network/cost models, coin).
///
/// The same `Scenario` value executes on any [`crate::Backend`] — the
/// deterministic simulator, the real-thread runtime, or any future
/// substrate — which is the paper's central claim made into an API: the
/// protocol (and now its whole workload description) is independent of the
/// communication substrate underneath.
///
/// Fields that are plain data serialize via serde and round-trip
/// losslessly, so scenarios can be stored, shipped, and replayed
/// bit-for-bit on the simulator. The two hooks that carry code rather
/// than data — a [`Body::Custom`] body and the [`Scenario::observer`] —
/// do not survive serialization (the observer is silently dropped; a
/// custom body fails to deserialize).
///
/// # Examples
///
/// ```
/// use ofa_core::Algorithm;
/// use ofa_scenario::Scenario;
/// use ofa_topology::Partition;
///
/// let scenario = Scenario::new(Partition::fig1_right(), Algorithm::CommonCoin)
///     .proposals_split(3)
///     .seed(42);
/// // The description is a value: serialize, ship, replay.
/// let json = serde_json::to_string(&scenario).unwrap();
/// let copy: Scenario = serde_json::from_str(&json).unwrap();
/// assert_eq!(copy.seed, 42);
/// assert_eq!(copy.partition, scenario.partition);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// The cluster decomposition.
    pub partition: Partition,
    /// What every process executes.
    pub body: Body,
    /// Protocol switches (pre-agreement, amplification, round budget).
    pub config: ProtocolConfig,
    /// One proposal per process.
    pub proposals: Vec<Bit>,
    /// Master seed for all randomness (delays, local coins, common coin).
    pub seed: u64,
    /// The network model: link-class latencies, jitter, loss,
    /// duplication (virtual-time backends only). Scenarios stored before
    /// the network model kept a bare [`DelayModel`] under `delay`, which
    /// reads as the equivalent flat lossless network.
    #[serde(alias = "delay")]
    pub network: NetworkModel,
    /// Per-operation cost model (virtual-time backends only).
    pub costs: CostModel,
    /// The failure pattern.
    pub crashes: CrashPlan,
    /// The churn pattern: scheduled leaves and rejoins (none when absent,
    /// as in scenarios stored before churn existed).
    #[serde(default)]
    pub churn: ChurnPlan,
    /// The common-coin source.
    pub coin: CoinSpec,
    /// Retain the full event trace (backends that record one).
    pub keep_trace: bool,
    /// Cap on simulator events (safety net against non-termination).
    pub max_events: u64,
    /// Wall-clock budget in milliseconds (real-time backends only).
    pub timeout_ms: u64,
    /// Process-execution engine for virtual-time backends.
    #[serde(default = "engine_before_the_knob")]
    pub engine: Engine,
    /// Observer hook (e.g. [`ofa_core::InvariantChecker`]); not serialized.
    #[serde(skip)]
    pub observer: Option<Arc<dyn Observer>>,
}

impl Scenario {
    /// Starts a scenario for `partition` running `algorithm` with the
    /// paper's configuration, alternating proposals (`0, 1, 0, 1, …`),
    /// seed 0, default delays/costs, no crashes, the seeded fair coin, a
    /// round budget of 512, a 10-second wall-clock budget, and the
    /// default ([`Engine::EventDriven`]) execution engine.
    pub fn new(partition: Partition, algorithm: Algorithm) -> Self {
        let n = partition.n();
        Scenario {
            partition,
            body: Body::Algo(algorithm),
            config: ProtocolConfig::paper().with_max_rounds(512),
            proposals: (0..n).map(|i| Bit::from(i % 2 == 1)).collect(),
            seed: 0,
            network: NetworkModel::default(),
            costs: CostModel::default(),
            crashes: CrashPlan::new(),
            churn: ChurnPlan::new(),
            coin: CoinSpec::Seeded,
            keep_trace: false,
            max_events: 5_000_000,
            timeout_ms: 10_000,
            engine: Engine::default(),
            observer: None,
        }
    }

    /// Replaces the algorithm with a custom protocol body (e.g. the m&m
    /// comparator of `ofa-mm`). Custom bodies are blocking code: on
    /// virtual-time backends they always run on the thread conductor
    /// regardless of the [`Scenario::engine`] knob (see
    /// [`crate::Outcome::engine_used`]).
    pub fn custom_body(mut self, body: Arc<dyn ProcessBody>) -> Self {
        self.body = Body::Custom(body);
        self
    }

    /// Replaces the body with a serializable multivalued-consensus
    /// workload: process `i` proposes `proposals[i]`, reduced to this
    /// scenario's binary `algorithm`.
    pub fn multivalued(mut self, algorithm: Algorithm, proposals: Vec<ofa_core::Payload>) -> Self {
        self.body = Body::Multivalued(crate::MvWorkload {
            algorithm,
            proposals,
        });
        self
    }

    /// Replaces the body with a serializable replicated-log workload:
    /// `slots` multivalued instances, process `i` proposing from
    /// `queues[i]` (cycled).
    pub fn replicated_log(
        mut self,
        algorithm: Algorithm,
        slots: u64,
        queues: Vec<Vec<ofa_core::Payload>>,
    ) -> Self {
        self.body = Body::ReplicatedLog(crate::SmrWorkload {
            algorithm,
            slots,
            queues,
            traffic: None,
        });
        self
    }

    /// Replaces the body with a *traffic-driven* replicated-log workload:
    /// `slots` multivalued instances whose proposals come from simulated
    /// clients per `traffic` (arrival process, bounded proposer queues,
    /// batch-fill-or-go batching) instead of pre-seeded queues. The run
    /// reports client-service statistics ([`crate::Outcome::service`]).
    /// Virtual-time backends only — the real-thread runtime has no
    /// modeled clock and rejects traffic scenarios.
    ///
    /// Composes with a churn plan, but churn-planned replicas serve no
    /// clients (they propose empty filler slots in both incarnations —
    /// see [`ofa_core::Env::serves_traffic`] for why agreement demands
    /// it); their clients are counted as failed over, not shed.
    pub fn replicated_log_traffic(
        mut self,
        algorithm: Algorithm,
        slots: u64,
        traffic: ofa_core::TrafficSpec,
    ) -> Self {
        self.body = Body::ReplicatedLog(crate::SmrWorkload {
            algorithm,
            slots,
            queues: Vec::new(),
            traffic: Some(traffic),
        });
        self
    }

    /// Sets the protocol configuration.
    pub fn config(mut self, config: ProtocolConfig) -> Self {
        self.config = config;
        self
    }

    /// Bounds the number of protocol rounds per process.
    pub fn max_rounds(mut self, rounds: u64) -> Self {
        self.config = self.config.with_max_rounds(rounds);
        self
    }

    /// Sets every process's proposal explicitly.
    ///
    /// Backends panic on `run` if the length differs from `n`.
    pub fn proposals(mut self, proposals: Vec<Bit>) -> Self {
        self.proposals = proposals;
        self
    }

    /// All processes propose the same value.
    pub fn proposals_all(mut self, v: Bit) -> Self {
        self.proposals = vec![v; self.partition.n()];
        self
    }

    /// The first `ones` processes propose 1, the rest 0 — a convenient
    /// mixed-input workload.
    pub fn proposals_split(mut self, ones: usize) -> Self {
        let n = self.partition.n();
        self.proposals = (0..n).map(|i| Bit::from(i < ones)).collect();
        self
    }

    /// Seeds all randomness (delays, local coins, common coin).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the message delay model — shorthand for a flat, lossless
    /// [`NetworkModel`] over `delay` (byte-compatible with the
    /// pre-network-model behavior).
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.network = NetworkModel::flat(delay);
        self
    }

    /// Sets the full network model (link classes, jitter, loss,
    /// duplication).
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Sets the per-message loss rate in parts per million, keeping the
    /// current latency classes.
    pub fn loss_ppm(mut self, ppm: u32) -> Self {
        self.network.loss_ppm = ppm;
        self
    }

    /// Sets the per-message duplication rate in parts per million,
    /// keeping the current latency classes.
    pub fn dup_ppm(mut self, ppm: u32) -> Self {
        self.network.dup_ppm = ppm;
        self
    }

    /// Sets the churn pattern (scheduled leaves and rejoins).
    pub fn churn(mut self, plan: ChurnPlan) -> Self {
        self.churn = plan;
        self
    }

    /// Sets the per-operation cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Sets the failure pattern.
    pub fn crashes(mut self, plan: CrashPlan) -> Self {
        self.crashes = plan;
        self
    }

    /// Selects the common-coin source.
    pub fn coin(mut self, coin: CoinSpec) -> Self {
        self.coin = coin;
        self
    }

    /// Attaches an observer (e.g. [`ofa_core::InvariantChecker`]).
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Retains the full event trace in the outcome (on backends that
    /// record one; the replay hash is always on).
    pub fn keep_trace(mut self) -> Self {
        self.keep_trace = true;
        self
    }

    /// Caps the number of simulator events.
    pub fn max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Selects the process-execution engine for virtual-time backends.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Shorthand for selecting [`Engine::EventDriven`].
    pub fn event_driven(self) -> Self {
        self.engine(Engine::EventDriven)
    }

    /// Shorthand for selecting [`Engine::ParallelEvent`] with
    /// auto-detected workers (`workers` > 0 pins the pool size — useful
    /// for benchmarking and for the determinism-across-worker-counts
    /// tests).
    pub fn parallel(self, workers: u64) -> Self {
        self.engine(Engine::ParallelEvent { workers })
    }

    /// Sets the wall-clock budget for real-time backends, after which
    /// undecided processes are stopped (indulgence: they stop *without*
    /// deciding). Sub-millisecond durations round **up** to 1 ms so a
    /// positive budget never truncates to zero.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout_ms = timeout.as_micros().div_ceil(1_000) as u64;
        self
    }

    /// The wall-clock budget as a [`Duration`].
    pub fn timeout_duration(&self) -> Duration {
        Duration::from_millis(self.timeout_ms)
    }

    /// The seed of this scenario's common coin ([`CoinSpec::bit`]): the
    /// master seed under [`ofa_coins::COIN_DOMAIN_SEP`], so the coin's
    /// stream differs from the delay and local-coin streams. The one place
    /// the separator is applied.
    pub fn coin_seed(&self) -> u64 {
        self.seed ^ ofa_coins::COIN_DOMAIN_SEP
    }

    /// Checks internal consistency: the proposal vector (and the
    /// multivalued proposals or command queues) have one entry per
    /// process; the traffic spec, network model and churn plan are
    /// well-formed; and no crash trigger, laggard or link override names
    /// a process index `>= n` — the latter matters for deserialized
    /// scenarios, where a silently ignored out-of-range trigger would
    /// report a fault-free run as if the failure pattern had been
    /// exercised.
    ///
    /// # Errors
    ///
    /// The first inconsistency found, as a one-line message.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.partition.n();
        if self.proposals.len() != n {
            return Err(format!(
                "need one proposal per process (got {} for n={n})",
                self.proposals.len()
            ));
        }
        match &self.body {
            Body::Multivalued(mv) if mv.proposals.len() != n => {
                return Err(format!(
                    "need one multivalued proposal per process (got {} for n={n})",
                    mv.proposals.len()
                ));
            }
            Body::ReplicatedLog(smr) => {
                if smr.slots == 0 {
                    return Err("a replicated log needs at least one slot (got 0)".into());
                }
                if let Some(spec) = &smr.traffic {
                    spec.validate()?;
                    // Traffic-driven workloads synthesize proposals from
                    // client arrivals; pre-seeded queues are either absent
                    // or full-length (ignored slots would silently change
                    // the workload's meaning otherwise).
                    if !smr.queues.is_empty() {
                        return Err(format!(
                            "a traffic-driven replicated log must not also pre-seed \
                             command queues (got {} queues)",
                            smr.queues.len()
                        ));
                    }
                } else if smr.queues.len() != n {
                    return Err(format!(
                        "need one command queue per process (got {} for n={n})",
                        smr.queues.len()
                    ));
                }
            }
            Body::Multivalued(_) | Body::Algo(_) | Body::Custom(_) => {}
        }
        for (p, trigger) in self.crashes.iter() {
            if p.index() >= n {
                return Err(format!(
                    "crash trigger {trigger:?} names process index {} but n={n}",
                    p.index()
                ));
            }
        }
        self.network.validate(n)?;
        self.churn.validate(n, &self.crashes)
    }

    /// [`Scenario::validate`] for the backends, which run only valid
    /// scenarios.
    ///
    /// # Panics
    ///
    /// With [`Scenario::validate`]'s message if the scenario is invalid.
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("partition", &self.partition)
            .field("body", &self.body)
            .field("seed", &self.seed)
            .field("crashes", &self.crashes.len())
            .field("coin", &self.coin)
            .field("observer", &self.observer.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofa_topology::ProcessId;

    #[test]
    fn defaults_match_documented_contract() {
        let sc = Scenario::new(Partition::fig1_right(), Algorithm::LocalCoin);
        assert_eq!(sc.proposals.len(), 7);
        assert_eq!(sc.config.max_rounds, Some(512));
        assert_eq!(sc.seed, 0);
        assert!(sc.crashes.is_empty());
        assert_eq!(sc.timeout_duration(), Duration::from_secs(10));
        assert_eq!(sc.engine, Engine::EventDriven, "scalable engine by default");
        sc.assert_valid();
    }

    #[test]
    fn serde_round_trip_is_lossless() {
        let sc = Scenario::new(
            Partition::from_sizes(&[2, 3]).unwrap(),
            Algorithm::CommonCoin,
        )
        .proposals_split(2)
        .seed(99)
        .delay(DelayModel::Uniform { lo: 10, hi: 40 })
        .crashes(CrashPlan::new().crash_at_step(ProcessId(1), 7))
        .coin(CoinSpec::Scripted(vec![true, false]))
        .max_rounds(16);
        let json = serde_json::to_string(&sc).unwrap();
        let copy: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&copy).unwrap(), json);
        assert_eq!(copy.partition, sc.partition);
        assert_eq!(copy.proposals, sc.proposals);
        assert_eq!(copy.crashes, sc.crashes);
        assert_eq!(copy.coin, sc.coin);
    }

    #[test]
    fn scenarios_stored_before_the_engine_knob_still_deserialize() {
        // Simulate a pre-knob corpus entry: serialize, strip the field.
        let sc = Scenario::new(Partition::single_cluster(2), Algorithm::LocalCoin)
            .engine(Engine::EventDriven);
        let json = serde_json::to_string(&sc).unwrap();
        assert!(json.contains("\"engine\":\"EventDriven\""), "{json}");
        let stripped = json.replace(",\"engine\":\"EventDriven\"", "");
        assert_ne!(stripped, json, "field must have been removed");
        let old: Scenario = serde_json::from_str(&stripped).unwrap();
        assert_eq!(
            old.engine,
            Engine::Threads,
            "absent knob = reference engine"
        );
    }

    #[test]
    fn parallel_engine_knob_round_trips_and_refuses_the_bare_string() {
        let sc = Scenario::new(Partition::even(6, 3), Algorithm::LocalCoin).parallel(4);
        assert_eq!(sc.engine, Engine::ParallelEvent { workers: 4 });
        let json = serde_json::to_string(&sc).unwrap();
        assert!(json.contains("\"ParallelEvent\":{\"workers\":4}"), "{json}");
        let copy: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(copy.engine, sc.engine);
        // No serializer ever wrote the bare string or a map without
        // `workers`: both are refused, not read as auto workers.
        let bare = json.replace("{\"ParallelEvent\":{\"workers\":4}}", "\"ParallelEvent\"");
        assert_ne!(bare, json);
        assert!(serde_json::from_str::<Scenario>(&bare).is_err());
        let no_workers = json.replace("{\"workers\":4}", "{}");
        assert!(serde_json::from_str::<Scenario>(&no_workers).is_err());
    }

    #[test]
    fn scenarios_stored_before_the_network_model_still_deserialize() {
        // A pre-network-model corpus entry stored a bare DelayModel
        // under the "delay" key and had no "churn" field.
        let sc = Scenario::new(Partition::single_cluster(2), Algorithm::LocalCoin)
            .delay(DelayModel::Uniform { lo: 10, hi: 40 });
        let json = serde_json::to_string(&sc).unwrap();
        let legacy = json
            .replace(
                "\"network\":{\"classes\":{\"Flat\":{\"Uniform\":{\"lo\":10,\"hi\":40}}},\"loss_ppm\":0,\"dup_ppm\":0}",
                "\"delay\":{\"Uniform\":{\"lo\":10,\"hi\":40}}",
            )
            .replace(",\"churn\":[]", "");
        assert_ne!(legacy, json, "both fields must have been rewritten");
        let old: Scenario = serde_json::from_str(&legacy).unwrap();
        assert_eq!(old.network, sc.network, "delay key lifts to a flat network");
        assert!(old.churn.is_empty(), "absent churn = none");
    }

    #[test]
    fn churn_and_network_knobs_round_trip() {
        let sc = Scenario::new(Partition::even(4, 2), Algorithm::LocalCoin)
            .loss_ppm(1_000)
            .dup_ppm(50)
            .churn(ChurnPlan::new().leave_rejoin(
                ProcessId(1),
                crate::VirtualTime::from_ticks(500),
                crate::VirtualTime::from_ticks(900),
            ));
        sc.assert_valid();
        let json = serde_json::to_string(&sc).unwrap();
        let copy: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(copy.network, sc.network);
        assert_eq!(copy.churn, sc.churn);
    }

    #[test]
    #[should_panic(expected = "both the churn plan and the crash plan")]
    fn churn_crash_overlap_is_rejected() {
        Scenario::new(Partition::single_cluster(3), Algorithm::LocalCoin)
            .crashes(CrashPlan::new().crash_at_start(ProcessId(1)))
            .churn(ChurnPlan::new().leave(ProcessId(1), crate::VirtualTime::from_ticks(100)))
            .assert_valid();
    }

    #[test]
    fn traffic_workload_round_trips_and_validates() {
        let spec = ofa_core::TrafficSpec {
            arrival: ofa_core::ArrivalProcess::Poisson { mean_gap: 40 },
            clients: 16,
            queue_cap: 64,
            batch_max: 8,
            batch_min: 0,
        };
        let sc = Scenario::new(Partition::even(4, 2), Algorithm::LocalCoin).replicated_log_traffic(
            Algorithm::LocalCoin,
            5,
            spec,
        );
        sc.assert_valid();
        let json = serde_json::to_string(&sc).unwrap();
        let copy: Scenario = serde_json::from_str(&json).unwrap();
        match &copy.body {
            Body::ReplicatedLog(smr) => assert_eq!(smr.traffic.as_ref(), Some(&spec)),
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "must not also pre-seed")]
    fn traffic_plus_preseeded_queues_is_rejected() {
        let mut sc = Scenario::new(Partition::single_cluster(2), Algorithm::LocalCoin)
            .replicated_log_traffic(
                Algorithm::LocalCoin,
                2,
                ofa_core::TrafficSpec {
                    arrival: ofa_core::ArrivalProcess::Periodic {
                        period: 5,
                        phase: 0,
                    },
                    clients: 2,
                    queue_cap: 4,
                    batch_max: 2,
                    batch_min: 0,
                },
            );
        if let Body::ReplicatedLog(smr) = &mut sc.body {
            smr.queues = vec![vec![], vec![]];
        }
        sc.assert_valid();
    }

    #[test]
    fn coin_specs_keep_their_stored_bytes() {
        // The bytes stored scenarios and snapshots hold.
        let rows = [
            (CoinSpec::Seeded, r#""Seeded""#),
            (CoinSpec::Constant(Bit::Zero), r#"{"Constant":"Zero"}"#),
            (CoinSpec::Constant(Bit::One), r#"{"Constant":"One"}"#),
            (CoinSpec::Alternating, r#""Alternating""#),
            (
                CoinSpec::Scripted(vec![true, false, false, true]),
                r#"{"Scripted":[true,false,false,true]}"#,
            ),
            (CoinSpec::Scripted(vec![]), r#"{"Scripted":[]}"#),
        ];
        for (coin, json) in rows {
            assert_eq!(serde_json::to_string(&coin).unwrap(), json);
            assert_eq!(serde_json::from_str::<CoinSpec>(json).unwrap(), coin);
        }
        // The marker of a coin given as code is refused.
        assert!(serde_json::from_str::<CoinSpec>(r#""custom""#).is_err());
    }

    /// `CoinSpec::bit` over rounds `0..=64`, one character per round: a
    /// stored scenario must replay every coin bit it drew.
    #[test]
    fn every_coin_keeps_its_bits() {
        let row = |coin: &CoinSpec, seed: u64| -> String {
            (0..=64)
                .map(|r| if coin.bit(seed, r) { '1' } else { '0' })
                .collect()
        };
        // Scenario seeds 0, 5 and 42 under the domain separator, then the
        // same numbers as raw coin seeds (the exhaustive explorer's).
        let seeds = [0, 5, 42];
        let seeded = [
            "10000110101110011100110101100000011111010001100010111011100101110",
            "00011010101111110001010100001100010101001110001100000010110111111",
            "01010111010000001000110111001101101000110110011000100010100101000",
        ];
        let raw = [
            "11110000010110001010100110101001111101001010110110110111010110100",
            "00101010011010110101111000101101000011100001101011100101110010001",
            "10100110101000000001010011100000000010010001000101010110011110011",
        ];
        for ((seed, seeded), raw) in seeds.into_iter().zip(seeded).zip(raw) {
            let sc = Scenario::new(Partition::single_cluster(2), Algorithm::CommonCoin).seed(seed);
            assert_eq!(
                row(&CoinSpec::Seeded, sc.coin_seed()),
                seeded,
                "seed {seed}"
            );
            assert_eq!(row(&CoinSpec::Seeded, seed), raw, "raw seed {seed}");
        }
        let ones = "1".repeat(65);
        let fixed = [
            (CoinSpec::Constant(Bit::Zero), "0".repeat(65)),
            (CoinSpec::Constant(Bit::One), ones.clone()),
            (CoinSpec::Alternating, "01".repeat(32) + "0"),
            (
                CoinSpec::Scripted(vec![true, false, false, true]),
                "1100".to_string() + &ones[4..],
            ),
            (
                CoinSpec::Scripted(vec![false, false, true]),
                "000".to_string() + &ones[3..],
            ),
            (CoinSpec::Scripted(vec![]), "0".repeat(65)),
        ];
        for (coin, bits) in fixed {
            for seed in [0, 5, 42, 5 ^ ofa_coins::COIN_DOMAIN_SEP] {
                assert_eq!(row(&coin, seed), bits, "{coin:?} at seed {seed}");
            }
        }
    }

    #[test]
    fn seeded_coin_uses_domain_separator() {
        let sc = Scenario::new(Partition::single_cluster(2), Algorithm::CommonCoin).seed(5);
        assert_eq!(sc.coin_seed(), 5 ^ ofa_coins::COIN_DOMAIN_SEP);
        for r in 1..=32 {
            let direct = ofa_coins::common_bit(5 ^ ofa_coins::COIN_DOMAIN_SEP, r);
            assert_eq!(sc.coin.bit(sc.coin_seed(), r), direct);
        }
    }

    #[test]
    #[should_panic(expected = "one proposal per process")]
    fn wrong_proposal_count_is_rejected() {
        Scenario::new(Partition::single_cluster(3), Algorithm::LocalCoin)
            .proposals(vec![Bit::One])
            .assert_valid();
    }

    #[test]
    #[should_panic(expected = "names process index 7 but n=3")]
    fn out_of_range_crash_trigger_is_rejected() {
        // e.g. a hand-written JSON crash plan using 1-based ids.
        Scenario::new(Partition::single_cluster(3), Algorithm::LocalCoin)
            .crashes(CrashPlan::new().crash_at_start(ProcessId(7)))
            .assert_valid();
    }

    #[test]
    #[should_panic(expected = "laggard set names process index 9")]
    fn out_of_range_laggard_is_rejected() {
        Scenario::new(Partition::single_cluster(4), Algorithm::LocalCoin)
            .delay(DelayModel::Laggard {
                slow: vec![ProcessId(9)],
                factor: 3,
                base: Box::new(DelayModel::Constant(5)),
            })
            .assert_valid();
    }
}
