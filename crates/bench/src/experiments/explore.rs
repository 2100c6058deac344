//! EXPLORE — the adversarial schedule explorer as a tracked workload.
//!
//! Runs a fixed-seed guided search (`ofa-explore`) over crash/churn/
//! loss/coin schedules against a lossy cluster-scale base scenario and
//! reports the whole trajectory, one row per generation: the
//! generation's best fitness (undecided processes, rounds, virtual-time
//! stretch), whether the global best improved, and the evaluation
//! throughput. The trajectory is a pure function of the explorer seed —
//! deterministic columns are identical across machines and worker
//! counts — so the table doubles as a regression pin on the search
//! itself, while the events/s column feeds the CI bench-trend gate.
//!
//! The experiment also *asserts* on what the search finds: the best
//! schedule must score at least the unmutated baseline, and no schedule
//! may violate agreement — the explorer hunting safety bugs and never
//! finding one is exactly the regression signal we want from CI.

use ofa_core::Algorithm;
use ofa_explore::{CorpusFilter, ExploreConfig, Explorer, GenRecord, Limits, SearchState};
use ofa_metrics::{fmt_f64, Table};
use ofa_scenario::{DelayModel, Engine, Scenario};
use ofa_topology::Partition;
use std::path::Path;
use std::time::Instant;

/// The shape of one EXPLORE run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// System size of the base schedule.
    pub n: usize,
    /// Candidates per generation.
    pub population: usize,
    /// Generations to run.
    pub generations: u64,
    /// Explorer seed.
    pub seed: u64,
}

/// The full run: the corpus regime — `n = 10³` under 1 % base loss.
/// Sized for the single-threaded CI gate: a stuck candidate costs tens
/// of simulated megaevents, so 64 evaluations is minutes, not hours.
pub const FULL: Params = Params {
    n: 1_000,
    population: 8,
    generations: 8,
    seed: 1,
};

/// The CI smoke run: same axes, seconds of work.
pub const QUICK: Params = Params {
    n: 200,
    population: 8,
    generations: 6,
    seed: 1,
};

/// The search config a run uses (exposed so tests and the regression
/// corpus generator search exactly what the table tracks): split
/// proposals, `m = n/100` clusters, constant delay, 1 % base loss, and
/// a corpus filter admitting round-4+ or stuck schedules.
pub fn config(params: &Params) -> ExploreConfig {
    let n = params.n;
    // No event cap: candidates terminate
    // via the round budget; the default 5M-event guard would truncate
    // cluster-scale runs into uniform "nobody decided" fitness noise.
    let base = Scenario::new(Partition::even(n, (n / 100).max(2)), Algorithm::CommonCoin)
        .proposals_split(n / 2)
        .seed(42)
        .delay(DelayModel::Constant(1_000))
        .loss_ppm(10_000)
        .max_rounds(12)
        .max_events(u64::MAX)
        .engine(Engine::EventDriven);
    ExploreConfig {
        seed: params.seed,
        population: params.population,
        generations: Some(params.generations),
        filter: CorpusFilter {
            min_rounds: Some(4),
            min_undecided: Some(1),
        },
        limits: Limits::for_n(n),
        ..ExploreConfig::new(base)
    }
}

const TITLE: &str = "EXPLORE: adversarial schedule search — guided mutation over crash/churn/\
                     loss/coin schedules, fixed seed, deterministic trajectory";
const COLUMNS: [&str; 9] = [
    "gen",
    "best slot",
    "undecided",
    "rounds",
    "stretch",
    "improved",
    "events",
    "wall [s]",
    "events/s",
];

/// Checks the invariants a finished (or paused) search must satisfy:
/// no agreement violation anywhere, and a best at least as bad as the
/// unmutated baseline.
fn assert_search(state: &SearchState) {
    if let Some(best) = &state.best {
        assert!(
            !best.fitness.violation,
            "explorer found an agreement violation — found schedule: {}",
            serde_json::to_string(&best.scenario).unwrap_or_else(|e| e.to_string())
        );
        assert!(
            Some(best.fitness) >= state.baseline,
            "global best {:?} scores below the baseline {:?}",
            best.fitness,
            state.baseline
        );
    }
    assert!(
        state.corpus.iter().all(|e| !e.fitness.violation),
        "corpus entry records an agreement violation"
    );
}

/// Renders the trajectory: one row per generation; `walls[i]` is the
/// wall-clock cost of history entry `offset + i` (entries replayed from
/// a resumed state have no wall measurement and show `—`).
fn build_table(history: &[GenRecord], offset: usize, walls: &[f64]) -> Table {
    let mut table = Table::new(TITLE, &COLUMNS);
    let mut prev_events = 0;
    for (i, rec) in history.iter().enumerate() {
        let gen_events = rec.events_spent - prev_events;
        prev_events = rec.events_spent;
        let wall = i.checked_sub(offset).and_then(|j| walls.get(j)).copied();
        table.row([
            rec.generation.to_string(),
            rec.gen_best_slot.to_string(),
            rec.gen_best.undecided.to_string(),
            rec.gen_best.max_round.to_string(),
            rec.gen_best.stretch.to_string(),
            rec.improved.to_string(),
            gen_events.to_string(),
            wall.map_or("—".to_string(), |w| fmt_f64(w, 2)),
            wall.map_or("—".to_string(), |w| {
                format!("{:.2e}", gen_events as f64 / w.max(f64::EPSILON))
            }),
        ]);
    }
    table
}

/// Runs the search to completion; returns the per-generation records
/// (for assertions) and the table.
///
/// # Panics
///
/// Panics if the search finds an agreement violation (a real safety
/// bug — the schedule is printed) or scores below its own baseline.
pub fn run(params: &Params) -> (Vec<GenRecord>, Table) {
    let mut explorer = Explorer::new(config(params));
    let mut walls = Vec::new();
    while !explorer.finished() {
        let t = Instant::now();
        explorer.step();
        walls.push(t.elapsed().as_secs_f64());
    }
    assert_search(explorer.state());
    let history = explorer.state().history.clone();
    let table = build_table(&history, 0, &walls);
    (history, table)
}

/// Resumable variant of [`run`] for the time-budgeted CI gate. The
/// explorer's own [`SearchState`] is the checkpoint: an expired
/// `deadline` saves it under `dir` at a generation boundary and returns
/// `paused = true`; the next invocation resumes the trajectory
/// bit-for-bit (deterministic columns of the finished table are
/// identical to a monolithic [`run`]).
///
/// # Panics
///
/// Same search assertions as [`run`], plus on unreadable/unwritable
/// state files.
pub fn run_resumable(
    params: &Params,
    dir: &Path,
    deadline: Instant,
) -> (Vec<GenRecord>, Table, bool) {
    let state_file = dir.join("explore_state.json");
    let mut explorer = match std::fs::read_to_string(&state_file) {
        Ok(text) => {
            let state: SearchState =
                serde_json::from_str(&text).expect("explore state file parses");
            Explorer::resume(config(params), state)
        }
        Err(_) => Explorer::new(config(params)),
    };
    let offset = explorer.state().history.len();
    let mut walls = Vec::new();
    let mut paused = false;
    while !explorer.finished() {
        if Instant::now() >= deadline {
            paused = true;
            break;
        }
        let t = Instant::now();
        explorer.step();
        walls.push(t.elapsed().as_secs_f64());
    }
    assert_search(explorer.state());
    let table = build_table(&explorer.state().history, offset, &walls);
    if paused {
        std::fs::create_dir_all(dir).expect("checkpoint state dir is writable");
        let json = serde_json::to_string(explorer.state()).expect("search state serializes");
        std::fs::write(&state_file, json).expect("state file is writable");
    } else {
        let _ = std::fs::remove_file(&state_file);
    }
    (explorer.state().history.clone(), table, paused)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Params = Params {
        n: 40,
        population: 4,
        generations: 3,
        seed: 5,
    };

    #[test]
    fn trajectory_is_deterministic() {
        let (a, table) = run(&TINY);
        let (b, _) = run(&TINY);
        assert_eq!(a, b, "same params, same trajectory");
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn resumable_search_matches_the_monolithic_trajectory() {
        let dir =
            std::env::temp_dir().join(format!("ofa-explore-resumable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (mono, _) = run(&TINY);
        let expired = Instant::now() - std::time::Duration::from_secs(1);
        let (rows, _, paused) = run_resumable(&TINY, &dir, expired);
        assert!(paused, "expired budget must pause");
        assert!(rows.is_empty());
        let generous = Instant::now() + std::time::Duration::from_secs(600);
        let (rows, table, paused) = run_resumable(&TINY, &dir, generous);
        assert!(!paused);
        assert_eq!(rows, mono, "resumed trajectory equals monolithic");
        assert_eq!(table.len(), 3);
        assert!(!dir.join("explore_state.json").exists(), "state cleans up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
