//! # `ofa-bench` — the experiment harness
//!
//! One module per experiment of the reproduction; each exposes a
//! `run(..)` function returning an [`ofa_metrics::Table`] (plus typed
//! values where tests assert on them). The `experiments` binary prints
//! every table.
//!
//! | id | claim |
//! |----|-------|
//! | E1 | Figure 1 decompositions run both algorithms to agreement |
//! | E2 | one-for-all: 6-of-7 crashes survived with a majority cluster |
//! | E3 | §III-B termination predicate is empirically exact |
//! | E4 | common-coin decision rounds ≈ 2, independent of n |
//! | E5 | clustering collapses local-coin round counts |
//! | E6 | §III-C hybrid-vs-m&m structural comparison |
//! | E7 | efficiency/scalability tradeoff (sm cost vs net delay) |
//! | E8 | fault-tolerance frontier beats the `⌊(n-1)/2⌋` MP bound |
//! | E9 | ablation: amplification needs cluster pre-agreement |
//! | E10 | Figure 2 m&m domains recomputed verbatim |

#![warn(missing_docs)]

/// The experiment modules, E1 through E10.
pub mod experiments {
    pub mod e1;
    pub mod e10;
    pub mod e2;
    pub mod e3;
    pub mod e4;
    pub mod e5;
    pub mod e6;
    pub mod e7;
    pub mod e8;
    pub mod e9;
}

use ofa_metrics::Table;

/// Every experiment id, in presentation order. The single source of
/// truth for "all experiments" — `run_all`, the `experiments` binary's
/// `--quick` path, and CI smoke loops all iterate this.
pub const ALL_IDS: [&str; 10] = ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10"];

/// Runs every experiment at its default scale, returning `(id, table)`
/// pairs in order.
pub fn run_all() -> Vec<(&'static str, Table)> {
    ALL_IDS
        .iter()
        .map(|id| {
            let t = run_one_scaled(id, Scale::Full).expect("ALL_IDS entries are valid");
            (*id, t)
        })
        .collect()
}

/// Runs one experiment by id (case-insensitive), at default scale.
pub fn run_one(id: &str) -> Option<Table> {
    run_one_scaled(id, Scale::Full)
}

/// How much work [`run_one_scaled`] does per experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Each experiment's own default trial counts.
    Full,
    /// A single trial per cell — seconds, not minutes; used by the CI
    /// bench-smoke job (`experiments --quick`) to prove the harness
    /// end-to-end without paying for statistical quality.
    Quick,
}

/// Runs one experiment by id (case-insensitive) at the given [`Scale`].
pub fn run_one_scaled(id: &str, scale: Scale) -> Option<Table> {
    use experiments::*;
    let t = |full: u64| match scale {
        Scale::Full => full,
        Scale::Quick => 1,
    };
    Some(match id.to_ascii_lowercase().as_str() {
        "e1" => e1::run(t(e1::TRIALS)),
        "e2" => e2::run(t(e2::TRIALS)),
        "e3" => e3::run(t(e3::TRIALS)).1,
        "e4" => e4::run(t(e4::TRIALS), &e4::SIZES).1,
        "e5" => e5::run(t(e5::TRIALS), &e5::SIZES).2,
        "e6" => e6::run(),
        "e7" => e7::run(t(e7::TRIALS)).1,
        "e8" => e8::run().1,
        "e9" => e9::run(t(e9::TRIALS)).1,
        "e10" => e10::run().1,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_one_rejects_unknown_ids() {
        assert!(run_one("e99").is_none());
        assert!(run_one("explore").is_none(), "the search is `ofa explore`");
        assert!(run_one("E10").is_some());
    }
}
