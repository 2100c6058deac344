//! # `ofa-core` — hybrid-model randomized binary consensus
//!
//! The primary contribution of *“One for All and All for One: Scalable
//! Consensus in a Hybrid Communication Model”* (Raynal & Cao, ICDCS 2019),
//! as a Rust library:
//!
//! * [`msg_exchange`] — Algorithm 1, the all-to-all communication pattern
//!   with "one for all" cluster amplification,
//! * [`ben_or_hybrid`] — Algorithm 2, local-coin consensus (a hybrid
//!   extension of Ben-Or 1983),
//! * [`common_coin_hybrid`] — Algorithm 3, common-coin consensus (a hybrid
//!   extension of the Friedman–Mostéfaoui–Raynal protocol),
//! * the pure message-passing baselines the paper extends — the same
//!   algorithms under [`ProtocolConfig::pure_message_passing`],
//! * [`InvariantChecker`] — online verification of the paper's WA1/WA2
//!   weak-agreement predicates plus agreement and validity.
//!
//! ## Architecture
//!
//! The algorithms exist in two step-for-step equivalent forms:
//!
//! * **Blocking reference** — written in the paper's pseudocode style
//!   against the object-safe [`Env`] trait, with crashes and stop
//!   signals surfacing as `Err(`[`Halt`]`)` and propagating with `?`
//!   (line numbers are cited in comments). Execution substrates
//!   implement `Env`: `ofa-sim`'s thread-conductor engine and
//!   `ofa-runtime`'s real threads.
//! * **Resumable state machines** ([`sm`]) — the same protocols with the
//!   control flow inverted: an [`sm::ConsensusSm`] consumes one
//!   delivered message per step and never blocks, so a single-threaded
//!   event-driven engine (in `ofa-sim`) can drive tens of thousands of
//!   processes without one thread each.
//!
//! ## Quick taste
//!
//! ```
//! use ofa_core::{Bit, ProtocolConfig};
//!
//! // Select the paper's algorithm, bounded to 64 rounds:
//! let cfg = ProtocolConfig::paper().with_max_rounds(64);
//! assert!(cfg.amplify);
//! // `ben_or_hybrid(&mut env, Bit::One, &cfg)` runs it on any Env —
//! // see `ofa_scenario::Scenario` for one-line complete executions.
//! let _ = (cfg, Bit::One);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod common_coin_alg;
mod config;
mod env;
mod halt;
mod local_coin_alg;
mod mailbox;
mod msg;
mod multivalued;
mod observer;
mod pattern;
mod payload;
pub mod sm;
pub mod traffic;
mod value;

pub use common_coin_alg::{common_coin_hybrid, common_coin_hybrid_instance};
pub use config::{Decision, ProtocolConfig};
pub use env::{Env, ObsEvent};
pub use halt::Halt;
pub use local_coin_alg::{ben_or_hybrid, ben_or_hybrid_instance};
pub use mailbox::{AppMsg, Mailbox, MailboxItem};
pub use msg::{Msg, MsgKind, Phase};
pub use multivalued::{
    log_body_decision, multivalued_propose, mv_body_decision, queue_proposal, run_multivalued_body,
    run_replicated_log, LogDigest, MvDecision, INSTANCE_STRIDE,
};
pub use observer::{InvariantChecker, Observer};
pub use pattern::{credited_set, msg_exchange, Exchange, RecClass, RecSet, Supporters};
pub use payload::{Payload, MAX_PAYLOAD};
pub use traffic::{ArrivalProcess, TrafficSpec, TrafficState};
pub use value::{fmt_est, Bit, Est};

/// The kind of algorithm to run — used by substrates and the experiment
/// harness to select a protocol uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Algorithm {
    /// Algorithm 2: local-coin consensus ([`ben_or_hybrid`]).
    LocalCoin,
    /// Algorithm 3: common-coin consensus ([`common_coin_hybrid`]).
    CommonCoin,
}

impl Algorithm {
    /// Both algorithms, for exhaustive experiment sweeps.
    pub const ALL: [Algorithm; 2] = [Algorithm::LocalCoin, Algorithm::CommonCoin];

    /// Runs the selected algorithm on `env`.
    ///
    /// # Errors
    ///
    /// Propagates the algorithm's [`Halt`].
    pub fn run(
        self,
        env: &mut dyn Env,
        proposal: Bit,
        cfg: &ProtocolConfig,
    ) -> Result<Decision, Halt> {
        match self {
            Algorithm::LocalCoin => ben_or_hybrid(env, proposal, cfg),
            Algorithm::CommonCoin => common_coin_hybrid(env, proposal, cfg),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::LocalCoin => write!(f, "local-coin (Alg 2)"),
            Algorithm::CommonCoin => write!(f, "common-coin (Alg 3)"),
        }
    }
}

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn algorithm_display() {
        assert_eq!(Algorithm::LocalCoin.to_string(), "local-coin (Alg 2)");
        assert_eq!(Algorithm::CommonCoin.to_string(), "common-coin (Alg 3)");
    }

    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Bit>();
        assert_send::<Decision>();
        assert_send::<Halt>();
        assert_send::<Msg>();
        assert_send::<ProtocolConfig>();
        assert_send::<Algorithm>();
    }
}
