//! Adversarial schedule explorer: guided fault-injection search over
//! crash/delay/coin schedules.
//!
//! The paper's claims are probabilistic — consensus terminates in an
//! expected-constant number of rounds *over the random choices*. The
//! test suite checks those claims on fixed and swept schedules; this
//! crate goes hunting for the schedules the sweeps miss. An
//! [`Explorer`] searches the space
//! `CrashPlan × ChurnPlan × delay seed × loss/dup ppm × CoinSpec`
//! for worst-case executions:
//!
//! * **Mutation** ([`mutate`], bounded by [`Limits`]) takes one small
//!   validity-preserving step: add/move/remove a crash, add/shift a
//!   churn event, perturb the Poisson churn rate or the delay seed,
//!   step the loss/duplication rate, or flip the common-coin override.
//! * **Fitness** ([`Fitness`]) ranks outcomes lexicographically:
//!   agreement violations (found bugs) above liveness misses
//!   (correct-but-stuck processes) above rounds-to-decide above
//!   virtual-time stretch.
//! * **Search** ([`Explorer`]) runs generations mixing hill-climbing
//!   (one step off the best) with random walks (stacked steps off the
//!   base), evaluated over a thread pool, selected by strict argmax.
//! * **Corpus** ([`CorpusEntry`], admitted by [`CorpusFilter`]) records
//!   the worst finds as self-contained JSON — schedule plus
//!   [`PinnedOutcome`] — for the committed regression suite in
//!   `tests/regressions/`.
//!
//! The entire trajectory is a pure function of the explorer seed and
//! config: candidate derivation is a PRF of `(seed, generation, slot)`,
//! evaluation results are index-addressed, and the budget is counted in
//! simulated events, so two machines stop at the same generation. `ofa
//! explore` is the CLI front end.

mod corpus;
mod fitness;
mod mutate;
mod search;

pub use corpus::{load_corpus, write_corpus, CorpusEntry, PinnedOutcome, Provenance};
pub use fitness::{CorpusFilter, Fitness};
pub use mutate::{mutate, Limits};
pub use search::{
    mix_explore, Best, ExploreConfig, Explorer, GenRecord, ResumeError, SearchState, CORPUS_CAP,
    DEFAULT_GENERATIONS, EVENTS_PER_SEC,
};
