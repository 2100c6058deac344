//! Integration: the adversarial schedule explorer through the facade.
//!
//! The crate-level suites pin the explorer's internals; these tests pin
//! the public contract end to end: the trajectory is a pure function of
//! the explorer seed (independent of the evaluation worker count and
//! byte-identical across replays), a hand-planted bad schedule never
//! outranks what the search finds under the same mutation limits, and
//! the emitted corpus round-trips through [`load_corpus`] with pins
//! that replay. A stored search state with one byte changed is refused
//! or resumes, never a panic.

use one_for_all::consensus::Algorithm;
use one_for_all::explore::{
    load_corpus, write_corpus, CorpusFilter, ExploreConfig, Explorer, Fitness, PinnedOutcome,
    SearchState,
};
use one_for_all::prelude::{Backend, CrashPlan, Partition, Scenario, Sim};
use one_for_all::topology::ProcessId;
use proptest::prelude::*;
use std::sync::OnceLock;

mod common;
use common::change_one_byte;

fn base() -> Scenario {
    Scenario::new(Partition::even(12, 3), Algorithm::CommonCoin)
        .proposals_split(5)
        .max_rounds(16)
}

fn config(seed: u64) -> ExploreConfig {
    ExploreConfig {
        seed,
        population: 6,
        generations: Some(4),
        filter: CorpusFilter {
            min_rounds: Some(4),
            min_undecided: Some(1),
        },
        ..ExploreConfig::new(base())
    }
}

fn state_json(explorer: &Explorer) -> String {
    serde_json::to_string(explorer.state()).unwrap()
}

#[test]
fn trajectory_is_independent_of_worker_count_and_replays_byte_for_byte() {
    let mut serial = Explorer::new(ExploreConfig {
        workers: 1,
        ..config(42)
    });
    let mut wide = Explorer::new(ExploreConfig {
        workers: 4,
        ..config(42)
    });
    serial.run();
    wide.run();
    // Worker count changes evaluation parallelism only — the serialized
    // state (baseline, best, corpus, full per-generation history) is
    // byte-identical, which is exactly what `--log` files are made of.
    assert_eq!(state_json(&serial), state_json(&wide));
    let log: Vec<String> = serial
        .state()
        .history
        .iter()
        .map(|rec| serde_json::to_string(rec).unwrap())
        .collect();
    let replay: Vec<String> = wide
        .state()
        .history
        .iter()
        .map(|rec| serde_json::to_string(rec).unwrap())
        .collect();
    assert_eq!(log, replay);
    assert_eq!(log.len(), 4, "one record per generation");
}

#[test]
fn search_outranks_a_hand_planted_bad_schedule() {
    // A schedule a human adversary might plant: crash a minority at
    // various points so decisions drag. The explorer searches the same
    // space under the same limits — whatever it finds must be at least
    // this bad, or guided search would be worse than guessing.
    let planted = base()
        .crashes(
            CrashPlan::new()
                .crash_at_step(one_for_all::topology::ProcessId(0), 0)
                .crash_at_round(one_for_all::topology::ProcessId(4), 2)
                .crash_at_round(one_for_all::topology::ProcessId(8), 3),
        )
        .seed(7);
    let planted_fitness = Fitness::of(12, &Sim.run(&planted));
    assert!(!planted_fitness.violation, "the planted schedule is safe");

    let mut explorer = Explorer::new(config(3));
    explorer.run();
    let best = explorer.best().expect("a finished search has a best");
    assert!(
        best.fitness >= planted_fitness,
        "explorer best {:?} outranked by the planted schedule {planted_fitness:?}",
        best.fitness
    );
}

#[test]
fn emitted_corpus_round_trips_and_replays_pinned() {
    let mut explorer = Explorer::new(config(21));
    explorer.run();
    assert!(
        !explorer.corpus().is_empty(),
        "this search is known to find corpus-worthy schedules"
    );
    let dir = std::env::temp_dir().join(format!("ofa-explore-search-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let written = write_corpus(&dir, explorer.corpus()).unwrap();
    let loaded = load_corpus(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(written, loaded.len());
    for entry in &loaded {
        // Same schedule, fresh run: the pin (trace hash included) holds.
        let outcome = Sim.run(&entry.scenario);
        assert_eq!(
            PinnedOutcome::of(&outcome),
            entry.pinned,
            "{} does not replay its pinned outcome",
            entry.name
        );
        assert!(
            explorer.config().filter.admits(&entry.fitness),
            "{} slipped past the corpus filter",
            entry.name
        );
    }
}

/// A small search, paused after two generations, as its state file.
fn paused_state() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let mut explorer = Explorer::new(small_config());
        explorer.step();
        explorer.step();
        serde_json::to_string(explorer.state()).expect("encodes")
    })
}

/// Four processes, so that most digits changed in a crash plan's
/// process index name one outside `n`.
fn small_config() -> ExploreConfig {
    let crashes = (1..4).fold(CrashPlan::new(), |plan, p| {
        plan.crash_at_round(ProcessId(p), 9)
    });
    let base = Scenario::new(Partition::even(4, 2), Algorithm::CommonCoin)
        .proposals_split(2)
        .max_rounds(8)
        .crashes(crashes);
    ExploreConfig {
        seed: 7,
        population: 2,
        workers: 1,
        ..ExploreConfig::new(base)
    }
}

/// Refused by the decoder or by [`Explorer::resume`], or resumed for
/// one generation; a panic fails the test.
fn refuse_or_resume(bytes: &[u8]) {
    let Some(state) = std::str::from_utf8(bytes)
        .ok()
        .and_then(|text| serde_json::from_str::<SearchState>(text).ok())
    else {
        return;
    };
    if let Ok(mut explorer) = Explorer::resume(small_config(), state) {
        explorer.step();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// No stored search state panics a resume: one changed byte is
    /// refused by the decoder or by [`Explorer::resume`], or the search
    /// resumes and runs a generation.
    #[test]
    fn a_search_state_with_one_byte_changed_is_refused_or_resumes(
        at in any::<usize>(),
        pick in any::<u8>(),
    ) {
        refuse_or_resume(&change_one_byte(paused_state(), at, pick));
    }
}
