//! The guided search loop: generations of mutated schedules, evaluated
//! in parallel, selected by [`Fitness`].
//!
//! # Determinism contract
//!
//! The whole trajectory — every candidate, every fitness, the best
//! schedule, the committed corpus, the per-generation log — is a pure
//! function of `(base scenario, explorer seed, population, limits,
//! filter, stop bounds)`:
//!
//! * Candidate `slot` of generation `g` derives its RNG from the PRF
//!   [`mix_explore`]`(seed, g, slot)` — never from a shared mutable
//!   stream, so candidates are independent of evaluation order.
//! * Evaluation fans out over [`run_pool`], which returns outcomes in
//!   slot order, so worker count and thread interleaving cannot reorder
//!   results.
//! * The stop condition is counted in *simulated events*, not wall
//!   clock: `--budget-secs B` buys `B ×` [`EVENTS_PER_SEC`] events.
//!   Two machines of different speeds stop at the same generation.
//!
//! Re-running with the same inputs therefore replays the search
//! bit-for-bit, which is what lets a corpus entry carry only its
//! `(seed, generation, slot)` provenance.

use crate::{mutate, CorpusEntry, CorpusFilter, Fitness, Limits, PinnedOutcome, Provenance};
use ofa_scenario::{run_pool, Scenario};
use ofa_sim::Sim;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Simulated-events-per-second calibration behind `--budget-secs`: the
/// rough single-core throughput of the event-driven engine, fixed by
/// convention so the budget is a deterministic event count rather than
/// a machine-dependent wall clock.
pub const EVENTS_PER_SEC: u64 = 2_000_000;

/// Generations to run when neither a generation cap nor an event budget
/// is configured.
pub const DEFAULT_GENERATIONS: u64 = 32;

/// How many corpus entries a search keeps (the worst ones win).
pub const CORPUS_CAP: usize = 8;

/// Domain separator folded into the candidate-derivation PRF so the
/// explorer's randomness never collides with the delay, fate, churn, or
/// coin streams (same convention as the scenario-level separators).
const EXPLORE_DOMAIN_SEP: u64 = 0xE691_04E5_CAED_5EED;

/// SplitMix64-style mix of `(explorer seed, generation, slot)` into the
/// RNG seed that derives that candidate — the root of the explorer's
/// replay contract.
pub fn mix_explore(seed: u64, generation: u64, slot: u64) -> u64 {
    let mut z = seed ^ EXPLORE_DOMAIN_SEP;
    for w in [generation, slot] {
        z = z
            .wrapping_add(w)
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
    }
    z
}

/// Everything that parameterizes a search. Two configs that compare
/// equal field-by-field (ignoring `workers`, which only changes how
/// fast evaluation goes) produce bit-identical trajectories.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// The explorer seed — the root of all search randomness.
    pub seed: u64,
    /// Candidates per generation.
    pub population: usize,
    /// Evaluation threads; `0` = one per available core.
    pub workers: usize,
    /// Hard cap on generations, if any.
    pub generations: Option<u64>,
    /// Stop once this many simulated events have been spent, if set
    /// (checked at generation boundaries).
    pub event_budget: Option<u64>,
    /// The unmutated starting schedule.
    pub base: Scenario,
    /// Bounds on mutation.
    pub limits: Limits,
    /// Which evaluated schedules join the corpus.
    pub filter: CorpusFilter,
}

impl ExploreConfig {
    /// A config with the conventional defaults: population 16, auto
    /// workers, limits sized to the base universe, violations-only
    /// corpus filter, and no stop bound (callers set one, or
    /// [`DEFAULT_GENERATIONS`] applies).
    pub fn new(base: Scenario) -> ExploreConfig {
        let limits = Limits::for_n(base.partition.n());
        ExploreConfig {
            seed: 0,
            population: 16,
            workers: 0,
            generations: None,
            event_budget: None,
            base,
            limits,
            filter: CorpusFilter::default(),
        }
    }
}

/// The current global best: the worst schedule found so far.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Best {
    /// The schedule itself.
    pub scenario: Scenario,
    /// Its fitness.
    pub fitness: Fitness,
    /// Where it was found.
    pub found: Provenance,
}

/// One line of the search log: what a generation evaluated and what it
/// changed. Serialized as JSONL by the CLI; byte-identical across
/// replays of the same search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenRecord {
    /// The generation index (0-based).
    pub generation: u64,
    /// Candidates evaluated this generation.
    pub evaluated: u64,
    /// The slot holding this generation's best candidate.
    pub gen_best_slot: u64,
    /// That candidate's fitness.
    pub gen_best: Fitness,
    /// Whether the global best improved this generation.
    pub improved: bool,
    /// The global best fitness after this generation.
    pub best: Fitness,
    /// Cumulative simulated events spent, across all generations.
    pub events_spent: u64,
    /// Corpus entries held after this generation.
    pub corpus_size: u64,
}

/// The resumable part of a search: everything [`Explorer::step`]
/// mutates, serializable so a time-budgeted CI gate can stop at a
/// generation boundary and pick up where it left off.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchState {
    /// The seed this state belongs to (guards against resuming a state
    /// file with a mismatched config).
    pub explorer_seed: u64,
    /// The next generation to run.
    pub generation: u64,
    /// Cumulative simulated events spent.
    pub events_spent: u64,
    /// The unmutated base schedule's fitness (generation 0, slot 0).
    pub baseline: Option<Fitness>,
    /// The worst schedule found so far.
    pub best: Option<Best>,
    /// The current corpus, worst-first, deduplicated by trace hash.
    pub corpus: Vec<CorpusEntry>,
    /// One record per completed generation.
    pub history: Vec<GenRecord>,
}

impl SearchState {
    fn fresh(seed: u64) -> SearchState {
        SearchState {
            explorer_seed: seed,
            generation: 0,
            events_spent: 0,
            baseline: None,
            best: None,
            corpus: Vec::new(),
            history: Vec::new(),
        }
    }
}

/// Why [`Explorer::resume`] refuses a [`SearchState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The state was produced under another explorer seed: the search it
    /// continues is not this config's.
    SeedMismatch {
        /// The seed the state was produced under.
        state: u64,
        /// The seed of the config it was to resume under.
        config: u64,
    },
    /// The stored best schedule fails [`Scenario::validate`], with its
    /// message: the next generation would run it.
    InvalidBest(String),
    /// The stored best schedule runs on another partition than the
    /// config's base (their cluster sizes, in that order): its mutants
    /// would be scored in another universe.
    OtherPartition(Vec<usize>, Vec<usize>),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::SeedMismatch { state, config } => {
                write!(f, "it belongs to explorer seed {state}, not {config}")
            }
            ResumeError::InvalidBest(e) => write!(f, "its best schedule is invalid: {e}"),
            ResumeError::OtherPartition(best, base) => write!(
                f,
                "its best schedule runs on clusters of sizes {best:?}, not the base's {base:?}"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

/// The explorer: holds a config and a [`SearchState`], advances one
/// generation per [`Explorer::step`].
#[derive(Debug, Clone)]
pub struct Explorer {
    config: ExploreConfig,
    state: SearchState,
}

impl Explorer {
    /// Starts a fresh search.
    ///
    /// # Panics
    ///
    /// Panics if the base scenario is invalid, carries an observer or a
    /// non-serializable custom coin (the search must be able to commit
    /// any candidate as JSON), or the population is zero.
    pub fn new(config: ExploreConfig) -> Explorer {
        let state = SearchState::fresh(config.seed);
        Explorer::with_state(config, state)
    }

    /// Resumes a search from a previously serialized state.
    ///
    /// # Errors
    ///
    /// A [`ResumeError`] if the state was produced under another explorer
    /// seed, or its best schedule is invalid or runs on another partition
    /// than the config's base.
    ///
    /// # Panics
    ///
    /// Panics on the same config invalidity as [`Explorer::new`].
    pub fn resume(config: ExploreConfig, state: SearchState) -> Result<Explorer, ResumeError> {
        if state.explorer_seed != config.seed {
            return Err(ResumeError::SeedMismatch {
                state: state.explorer_seed,
                config: config.seed,
            });
        }
        if let Some(best) = &state.best {
            best.scenario.validate().map_err(ResumeError::InvalidBest)?;
            let (ours, base) = (&best.scenario.partition, &config.base.partition);
            if ours != base {
                return Err(ResumeError::OtherPartition(ours.sizes(), base.sizes()));
            }
        }
        Ok(Explorer::with_state(config, state))
    }

    fn with_state(mut config: ExploreConfig, state: SearchState) -> Explorer {
        assert!(config.population >= 1, "population must be at least 1");
        config.base.observer = None;
        config.base.assert_valid();
        assert!(
            serde_json::to_string(&config.base)
                .is_ok_and(|json| serde_json::from_str::<Scenario>(&json).is_ok()),
            "explorer base scenario must round-trip as JSON (no custom coins)"
        );
        Explorer { config, state }
    }

    /// The config the search runs under.
    pub fn config(&self) -> &ExploreConfig {
        &self.config
    }

    /// The current search state.
    pub fn state(&self) -> &SearchState {
        &self.state
    }

    /// The worst schedule found so far.
    pub fn best(&self) -> Option<&Best> {
        self.state.best.as_ref()
    }

    /// The current corpus, worst-first.
    pub fn corpus(&self) -> &[CorpusEntry] {
        &self.state.corpus
    }

    /// `true` once a stop bound is reached: the generation cap, the
    /// event budget, or — with neither configured —
    /// [`DEFAULT_GENERATIONS`].
    pub fn finished(&self) -> bool {
        if let Some(cap) = self.config.generations {
            if self.state.generation >= cap {
                return true;
            }
        }
        if let Some(budget) = self.config.event_budget {
            if self.state.events_spent >= budget {
                return true;
            }
        }
        if self.config.generations.is_none() && self.config.event_budget.is_none() {
            return self.state.generation >= DEFAULT_GENERATIONS;
        }
        false
    }

    /// Derives the candidate for `(generation, slot)` — a pure function
    /// of the config plus the current best (which is itself determined
    /// by the preceding generations).
    fn candidate(&self, generation: u64, slot: usize) -> Scenario {
        if generation == 0 && slot == 0 {
            // The unmutated base: its fitness is the baseline every
            // improvement is measured against.
            let mut base = self.config.base.clone();
            base.observer = None;
            return base;
        }
        let mut rng = StdRng::seed_from_u64(mix_explore(self.config.seed, generation, slot as u64));
        let hill_climb = slot < self.config.population / 2;
        if hill_climb {
            if let Some(best) = &self.state.best {
                // Exploit: one step off the worst schedule known.
                return mutate(&best.scenario, &mut rng, &self.config.limits);
            }
        }
        // Explore: a short random walk (1–3 stacked steps) off the base.
        let steps = 1 + (slot % 3);
        let mut sc = self.config.base.clone();
        for _ in 0..steps {
            sc = mutate(&sc, &mut rng, &self.config.limits);
        }
        sc
    }

    /// Runs one generation: derive candidates, evaluate, select, admit
    /// corpus entries, log. Returns the generation's record (also
    /// appended to the state's history).
    pub fn step(&mut self) -> GenRecord {
        let generation = self.state.generation;
        let n = self.config.base.partition.n();
        let candidates: Vec<Scenario> = (0..self.config.population)
            .map(|slot| self.candidate(generation, slot))
            .collect();
        let outcomes = run_pool(&Sim, &candidates, self.config.workers);
        let scored: Vec<Fitness> = outcomes.iter().map(|o| Fitness::of(n, o)).collect();
        self.state.events_spent += outcomes.iter().map(|o| o.events_processed).sum::<u64>();
        if generation == 0 {
            self.state.baseline = Some(scored[0]);
        }

        // Selection: strict argmax, lowest slot on ties — deterministic.
        let (gen_best_slot, &gen_best) = scored
            .iter()
            .enumerate()
            .max_by(|(ia, fa), (ib, fb)| fa.cmp(fb).then(ib.cmp(ia)))
            .expect("population is nonempty");
        let improved = self
            .state
            .best
            .as_ref()
            .is_none_or(|b| gen_best > b.fitness);
        if improved {
            self.state.best = Some(Best {
                scenario: candidates[gen_best_slot].clone(),
                fitness: gen_best,
                found: Provenance {
                    explorer_seed: self.config.seed,
                    generation,
                    slot: gen_best_slot as u64,
                },
            });
        }

        // Corpus admission, in slot order; dedup by trace hash; keep the
        // worst CORPUS_CAP entries.
        for (slot, (fitness, outcome)) in scored.iter().zip(&outcomes).enumerate() {
            if !self.config.filter.admits(fitness) {
                continue;
            }
            let pinned = PinnedOutcome::of(outcome);
            if self
                .state
                .corpus
                .iter()
                .any(|e| e.pinned.trace_hash == pinned.trace_hash)
            {
                continue;
            }
            self.state.corpus.push(CorpusEntry {
                name: format!("explore-s{}-g{}-p{}", self.config.seed, generation, slot),
                scenario: candidates[slot].clone(),
                fitness: *fitness,
                pinned,
                found: Provenance {
                    explorer_seed: self.config.seed,
                    generation,
                    slot: slot as u64,
                },
            });
        }
        self.state
            .corpus
            .sort_by(|a, b| b.fitness.cmp(&a.fitness).then(a.name.cmp(&b.name)));
        self.state.corpus.truncate(CORPUS_CAP);

        let record = GenRecord {
            generation,
            evaluated: self.config.population as u64,
            gen_best_slot: gen_best_slot as u64,
            gen_best,
            improved,
            best: self.state.best.as_ref().expect("set above").fitness,
            events_spent: self.state.events_spent,
            corpus_size: self.state.corpus.len() as u64,
        };
        self.state.history.push(record);
        self.state.generation += 1;
        record
    }

    /// Runs to a stop bound and returns the final state.
    pub fn run(&mut self) -> &SearchState {
        while !self.finished() {
            self.step();
        }
        &self.state
    }

    /// Runs until a stop bound or until `deadline` passes (checked at
    /// generation boundaries, so the trajectory prefix stays exact).
    /// Returns `true` if the search finished, `false` if it paused on
    /// the deadline with resumable state.
    pub fn run_until(&mut self, deadline: std::time::Instant) -> bool {
        while !self.finished() {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            self.step();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofa_core::Algorithm;
    use ofa_topology::Partition;

    fn small_config(seed: u64) -> ExploreConfig {
        let base = Scenario::new(Partition::even(8, 2), Algorithm::CommonCoin)
            .proposals_split(3)
            .max_rounds(12);
        ExploreConfig {
            seed,
            population: 6,
            generations: Some(4),
            filter: CorpusFilter {
                min_rounds: Some(2),
                min_undecided: Some(1),
            },
            ..ExploreConfig::new(base)
        }
    }

    fn state_json(explorer: &Explorer) -> String {
        serde_json::to_string(explorer.state()).unwrap()
    }

    #[test]
    fn same_seed_replays_bit_for_bit() {
        let mut a = Explorer::new(small_config(42));
        let mut b = Explorer::new(small_config(42));
        a.run();
        b.run();
        assert_eq!(state_json(&a), state_json(&b));
        assert_eq!(a.state().history.len(), 4);
        assert!(a.state().baseline.is_some());
    }

    #[test]
    fn worker_count_does_not_change_the_trajectory() {
        let mut serial = Explorer::new(ExploreConfig {
            workers: 1,
            ..small_config(7)
        });
        let mut wide = Explorer::new(ExploreConfig {
            workers: 4,
            ..small_config(7)
        });
        serial.run();
        wide.run();
        assert_eq!(state_json(&serial), state_json(&wide));
    }

    #[test]
    fn different_seeds_search_differently() {
        let mut a = Explorer::new(small_config(1));
        let mut b = Explorer::new(small_config(2));
        a.run();
        b.run();
        assert_ne!(state_json(&a), state_json(&b));
    }

    #[test]
    fn event_budget_stops_at_a_generation_boundary() {
        let mut explorer = Explorer::new(ExploreConfig {
            generations: None,
            event_budget: Some(1), // exhausted by the first generation
            ..small_config(3)
        });
        explorer.run();
        assert_eq!(explorer.state().generation, 1);
        assert!(explorer.state().events_spent >= 1);
    }

    #[test]
    fn resume_continues_the_same_trajectory() {
        let mut whole = Explorer::new(small_config(9));
        whole.run();
        let mut first = Explorer::new(small_config(9));
        first.step();
        first.step();
        let parked: SearchState =
            serde_json::from_str(&serde_json::to_string(first.state()).unwrap()).unwrap();
        let mut resumed = Explorer::resume(small_config(9), parked).expect("the same seed");
        resumed.run();
        assert_eq!(state_json(&whole), state_json(&resumed));
    }

    #[test]
    fn search_finds_something_at_least_as_bad_as_the_baseline() {
        let mut explorer = Explorer::new(small_config(5));
        explorer.run();
        let best = explorer.best().expect("a best always exists");
        assert!(best.fitness >= explorer.state().baseline.unwrap());
        // The log is internally consistent: monotone best fitness.
        let mut prev = None;
        for rec in &explorer.state().history {
            if let Some(p) = prev {
                assert!(rec.best >= p);
            }
            prev = Some(rec.best);
        }
    }

    #[test]
    fn mismatched_resume_seed_is_rejected() {
        let state = SearchState::fresh(1);
        let refused = Explorer::resume(small_config(2), state).unwrap_err();
        assert_eq!(
            refused,
            ResumeError::SeedMismatch {
                state: 1,
                config: 2
            }
        );
        assert_eq!(refused.to_string(), "it belongs to explorer seed 1, not 2");
    }

    #[test]
    fn a_best_of_another_partition_is_rejected() {
        let mut first = Explorer::new(small_config(9));
        first.step();
        let mut config = small_config(9);
        config.base = Scenario::new(Partition::even(9, 3), Algorithm::CommonCoin);
        let refused = Explorer::resume(config, first.state().clone()).unwrap_err();
        assert_eq!(
            refused,
            ResumeError::OtherPartition(vec![4, 4], vec![3, 3, 3])
        );
        assert_eq!(
            refused.to_string(),
            "its best schedule runs on clusters of sizes [4, 4], not the base's [3, 3, 3]"
        );
        Explorer::resume(small_config(9), first.state().clone()).expect("its own partition");
    }
}
