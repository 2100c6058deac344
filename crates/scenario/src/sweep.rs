//! Scenario sweeps: `Scenario × seeds × parameter grid → Vec<Outcome>`.
//!
//! Experiments rarely run one execution; they run a base scenario across
//! many seeds and a grid of parameter variants (cluster counts, delay
//! models, crash patterns, …) and aggregate. [`Sweep`] packages that loop
//! once, for every [`Backend`], with optional thread fan-out for
//! single-threaded backends like the simulator.

use crate::{Backend, Outcome, Scenario};
use ofa_metrics::Summary;
use std::sync::Arc;

/// The natural worker-thread count for CPU-bound fan-out on this host:
/// one per available core (1 if the parallelism cannot be queried).
///
/// This is the shared sizing heuristic for everything in the workspace
/// that spreads deterministic work over a pool — [`run_pool`] (the
/// explorer's generations) and the simulator's cluster-sharded
/// `Engine::ParallelEvent { workers: 0 }` both resolve "auto" through
/// it.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs every scenario on `backend` over `workers` scoped threads
/// (`0` = [`default_workers`]) and returns the outcomes in input order,
/// whatever the worker count or thread interleaving. Each thread claims
/// the next unclaimed index and reports into that index's slot; one
/// worker (or one scenario) runs serially on the calling thread.
pub fn run_pool<B: Backend + Sync + ?Sized>(
    backend: &B,
    scenarios: &[Scenario],
    workers: usize,
) -> Vec<Outcome> {
    let workers = if workers == 0 {
        default_workers()
    } else {
        workers
    }
    .min(scenarios.len());
    if workers <= 1 {
        return scenarios.iter().map(|sc| backend.run(sc)).collect();
    }
    let mut slots: Vec<Option<Outcome>> = Vec::new();
    slots.resize_with(scenarios.len(), || None);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Outcome)>();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let next_ref = &next;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(sc) = scenarios.get(i) else {
                    break;
                };
                if tx.send((i, backend.run(sc))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, outcome) in rx {
            slots[i] = Some(outcome);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every scenario reports"))
        .collect()
}

/// A function that derives a variant scenario from the base scenario.
type Patch = Arc<dyn Fn(Scenario) -> Scenario + Send + Sync>;

/// One point of a sweep's parameter grid: a label plus a scenario patch.
#[derive(Clone)]
struct Variant {
    label: String,
    patch: Patch,
}

/// Runs a base [`Scenario`] across seeds and parameter variants on any
/// [`Backend`], collecting unified [`Outcome`]s plus aggregate statistics.
///
/// The base scenario's [`Scenario::observer`] hook is dropped for sweep
/// runs — a single observer object cannot distinguish the interleaved
/// events of many runs (see [`Sweep::run`]); use observers on single
/// executions instead.
///
/// # Examples
///
/// ```no_run
/// use ofa_core::Algorithm;
/// use ofa_scenario::{Scenario, Sweep};
/// use ofa_topology::Partition;
///
/// # fn demo(backend: &(impl ofa_scenario::Backend + Sync)) {
/// let report = Sweep::new(Scenario::new(Partition::fig1_right(), Algorithm::CommonCoin)
///         .proposals_split(3))
///     .seeds(0..20)
///     .vary("m=1", |sc| {
///         let n = sc.partition.n();
///         Scenario { partition: Partition::single_cluster(n), ..sc }
///     })
///     .run(backend);
/// assert!(report.all_agree());
/// # }
/// ```
pub struct Sweep {
    base: Scenario,
    seeds: Vec<u64>,
    variants: Vec<Variant>,
    workers: usize,
}

impl std::fmt::Debug for Sweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("seeds", &self.seeds.len())
            .field(
                "variants",
                &self
                    .variants
                    .iter()
                    .map(|v| v.label.as_str())
                    .collect::<Vec<_>>(),
            )
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl Sweep {
    /// Starts a sweep over `base` with its single seed, no parameter
    /// variants, and serial execution.
    pub fn new(base: Scenario) -> Self {
        Sweep {
            base,
            seeds: Vec::new(),
            variants: Vec::new(),
            workers: 1,
        }
    }

    /// Sets the seeds to sweep (replacing the base scenario's seed).
    /// An empty iterator keeps just the base seed.
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Adds one parameter-grid point: `patch` maps the base scenario to
    /// the variant scenario. Calling `vary` at least once replaces the
    /// implicit identity variant.
    pub fn vary(
        mut self,
        label: impl Into<String>,
        patch: impl Fn(Scenario) -> Scenario + Send + Sync + 'static,
    ) -> Self {
        self.variants.push(Variant {
            label: label.into(),
            patch: Arc::new(patch),
        });
        self
    }

    /// Fans the runs out over up to `workers` OS threads. Worth it for
    /// single-threaded backends (the simulator); real-thread backends
    /// already parallelize internally, so keep this at 1 there.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The full job list, in deterministic (variant-major) order.
    ///
    /// Each job drops the base scenario's observer: one shared observer
    /// would see the events of *every* run interleaved (all runs use
    /// protocol instance 0, so e.g. an `InvariantChecker` would report
    /// cross-run "violations" on perfectly safe sweeps, racily so under
    /// `workers > 1`). Attach observers when running single scenarios.
    fn jobs(&self) -> Vec<(String, u64, Scenario)> {
        let seeds: Vec<u64> = if self.seeds.is_empty() {
            vec![self.base.seed]
        } else {
            self.seeds.clone()
        };
        let identity: Variant = Variant {
            label: "base".to_string(),
            patch: Arc::new(|sc| sc),
        };
        let variants: &[Variant] = if self.variants.is_empty() {
            std::slice::from_ref(&identity)
        } else {
            &self.variants
        };
        let mut jobs = Vec::with_capacity(variants.len() * seeds.len());
        for v in variants {
            for &seed in &seeds {
                let mut sc = (v.patch)(self.base.clone()).seed(seed);
                sc.observer = None;
                jobs.push((v.label.clone(), seed, sc));
            }
        }
        jobs
    }

    /// Runs every `(variant, seed)` combination on `backend` and collects
    /// the outcomes in deterministic variant-major, seed-minor order
    /// (regardless of worker count).
    pub fn run<B: Backend + Sync + ?Sized>(&self, backend: &B) -> SweepReport {
        let (keys, scenarios): (Vec<(String, u64)>, Vec<Scenario>) = self
            .jobs()
            .into_iter()
            .map(|(variant, seed, sc)| ((variant, seed), sc))
            .unzip();
        let runs = keys
            .into_iter()
            .zip(run_pool(backend, &scenarios, self.workers))
            .map(|((variant, seed), outcome)| SweepRun {
                variant,
                seed,
                outcome,
            })
            .collect();
        SweepReport { runs }
    }
}

/// One executed `(variant, seed)` combination of a [`Sweep`].
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The variant label (`"base"` for the implicit identity variant).
    pub variant: String,
    /// The seed this run used.
    pub seed: u64,
    /// The unified outcome.
    pub outcome: Outcome,
}

/// All outcomes of a [`Sweep`], with aggregate statistics.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// The runs, in deterministic variant-major, seed-minor order.
    pub runs: Vec<SweepRun>,
}

impl SweepReport {
    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// `true` if the sweep produced no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Iterates over the outcomes.
    pub fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.runs.iter().map(|r| &r.outcome)
    }

    /// A borrowed view over all runs (no outcome data is copied). The
    /// report-level aggregates delegate here, so every statistic is
    /// defined once, on [`SweepView`].
    pub fn all(&self) -> SweepView<'_> {
        SweepView {
            runs: self.runs.iter().collect(),
        }
    }

    /// A borrowed view over the runs of one variant label (no outcome
    /// data is copied).
    pub fn variant<'a>(&'a self, label: &str) -> SweepView<'a> {
        SweepView {
            runs: self.runs.iter().filter(|r| r.variant == label).collect(),
        }
    }

    /// `true` iff agreement held in every run — the sweep-level safety
    /// check.
    pub fn all_agree(&self) -> bool {
        self.all().all_agree()
    }

    /// Fraction of runs where every correct process decided.
    pub fn termination_rate(&self) -> f64 {
        self.all().termination_rate()
    }

    /// Summary of `max_decision_round` across runs.
    pub fn rounds(&self) -> Summary {
        self.all().rounds()
    }

    /// Summary of virtual-time decision latency (ticks) across runs.
    pub fn latency_ticks(&self) -> Summary {
        self.all().latency_ticks()
    }

    /// Summary of total messages sent across runs.
    pub fn messages(&self) -> Summary {
        self.all().messages()
    }
}

/// A borrowed subset of a [`SweepReport`]'s runs (e.g. one variant),
/// exposing the same aggregates without copying any outcome data.
#[derive(Debug, Clone)]
pub struct SweepView<'a> {
    runs: Vec<&'a SweepRun>,
}

impl<'a> SweepView<'a> {
    /// Number of runs in the view.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Iterates over the runs.
    pub fn runs(&self) -> impl Iterator<Item = &'a SweepRun> + '_ {
        self.runs.iter().copied()
    }

    /// Iterates over the outcomes.
    pub fn outcomes(&self) -> impl Iterator<Item = &'a Outcome> + '_ {
        self.runs.iter().map(|r| &r.outcome)
    }

    /// `true` iff agreement held in every run of the view.
    pub fn all_agree(&self) -> bool {
        self.outcomes().all(Outcome::agreement_holds)
    }

    /// Fraction of runs where every correct process decided.
    pub fn termination_rate(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        self.outcomes().filter(|o| o.all_correct_decided).count() as f64 / self.runs.len() as f64
    }

    /// Summary of `max_decision_round` across the view's runs.
    pub fn rounds(&self) -> Summary {
        Summary::of(self.outcomes().map(|o| o.max_decision_round as f64))
    }

    /// Summary of virtual-time decision latency (ticks) across the view.
    pub fn latency_ticks(&self) -> Summary {
        Summary::of(
            self.outcomes()
                .map(|o| o.latest_decision_time.ticks() as f64),
        )
    }

    /// Summary of total messages sent across the view's runs.
    pub fn messages(&self) -> Summary {
        Summary::of(self.outcomes().map(|o| o.counters.messages_sent as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackendKind;
    use ofa_core::{Algorithm, Bit, Decision};
    use ofa_metrics::CounterSnapshot;
    use ofa_topology::Partition;

    /// A fake backend: "decides" the majority proposal in round `seed % 3
    /// + 1` without running any protocol — enough to test sweep plumbing.
    struct Echo;
    impl Backend for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn run(&self, sc: &Scenario) -> Outcome {
            sc.assert_valid();
            assert!(
                sc.observer.is_none(),
                "sweeps must strip the shared observer hook"
            );
            let ones = sc.proposals.iter().filter(|b| **b == Bit::One).count();
            let v = Bit::from(ones * 2 > sc.proposals.len());
            let results = (0..sc.partition.n())
                .map(|_| {
                    Ok(Decision {
                        value: v,
                        round: sc.seed % 3 + 1,
                        relayed: false,
                    })
                })
                .collect();
            Outcome::assemble(
                BackendKind::Sim,
                results,
                vec![CounterSnapshot::default(); sc.partition.n()],
                0,
                0,
            )
        }
    }

    fn base() -> Scenario {
        Scenario::new(Partition::fig1_right(), Algorithm::CommonCoin).proposals_split(5)
    }

    #[test]
    fn sweep_orders_runs_deterministically() {
        let sweep = Sweep::new(base())
            .seeds(0..4)
            .vary("a", |sc| sc)
            .vary("b", |sc| sc.proposals_split(1));
        let report = sweep.run(&Echo);
        assert_eq!(report.len(), 8);
        let order: Vec<(String, u64)> = report
            .runs
            .iter()
            .map(|r| (r.variant.clone(), r.seed))
            .collect();
        let expected: Vec<(String, u64)> = ["a", "b"]
            .iter()
            .flat_map(|v| (0..4).map(move |s| (v.to_string(), s)))
            .collect();
        assert_eq!(order, expected);
        assert!(report.all_agree());
        assert_eq!(report.termination_rate(), 1.0);
    }

    #[test]
    fn parallel_run_matches_serial_order() {
        let serial = Sweep::new(base()).seeds(0..16).run(&Echo);
        let parallel = Sweep::new(base()).seeds(0..16).workers(4).run(&Echo);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.runs.iter().zip(parallel.runs.iter()) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.variant, b.variant);
            assert_eq!(a.outcome.max_decision_round, b.outcome.max_decision_round);
        }
    }

    #[test]
    fn variant_filter_and_aggregates() {
        let report = Sweep::new(base())
            .seeds(0..6)
            .vary("ones", |sc| sc.proposals_all(Bit::One))
            .vary("zeros", |sc| sc.proposals_all(Bit::Zero))
            .run(&Echo);
        let ones = report.variant("ones");
        assert_eq!(ones.len(), 6);
        assert!(ones.outcomes().all(|o| o.decided(Bit::One)));
        let rounds = report.rounds();
        assert!(rounds.min >= 1.0 && rounds.max <= 3.0);
    }

    #[test]
    fn empty_seed_list_keeps_base_seed() {
        let report = Sweep::new(base().seed(9)).run(&Echo);
        assert_eq!(report.len(), 1);
        assert_eq!(report.runs[0].seed, 9);
        assert_eq!(report.runs[0].variant, "base");
    }
}
