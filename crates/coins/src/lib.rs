//! Coin sources for randomized consensus (paper §II-B).
//!
//! The paper's two algorithms differ only in their source of randomness:
//!
//! * a **local coin** ([`SeededLocalCoin`]) returns an independent fair
//!   bit per flip, private to each process (Algorithm 2 / Ben-Or style);
//! * a **common coin** ([`common_bit`]) gives the *same* bit `b_r` to
//!   every process that reads round `r` (Algorithm 3).
//!
//! Both are pure functions of a seed, so whole executions replay
//! bit-for-bit. Which common coin a run uses — seeded, or an adversarial
//! constant, alternating or scripted one — is scenario data
//! (`ofa_scenario::CoinSpec`), not code.
//!
//! # Examples
//!
//! ```
//! use ofa_coins::{common_bit, SeededLocalCoin};
//!
//! // Common coin: a pure function of (seed, round), the same everywhere.
//! assert_eq!(common_bit(42, 7), common_bit(42, 7));
//!
//! // Local coins: deterministic per (seed, process), independent across
//! // processes.
//! let mut c = SeededLocalCoin::for_process(42, ofa_topology::ProcessId(0));
//! let _bit: bool = c.flip();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use ofa_topology::ProcessId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Domain separator XORed into a scenario's master seed to give the seed
/// of its common coin, so the coin's bit stream differs from the delay
/// and local-coin streams derived from the same seed. It is applied in
/// one place, `ofa_scenario::Scenario::coin_seed`, which every backend
/// reads.
pub const COIN_DOMAIN_SEP: u64 = 0xC0_1D_5E_ED;

/// SplitMix64 finalizer — a well-distributed 64-bit mixing function used to
/// derive per-round and per-process randomness from a master seed.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seeded local coin.
///
/// Two processes with different ids (or different master seeds) obtain
/// computationally independent streams; the same `(seed, process)` pair
/// replays the same stream, which is what makes simulator runs
/// reproducible.
#[derive(Debug, Clone)]
pub struct SeededLocalCoin {
    rng: StdRng,
    flips: u64,
}

impl SeededLocalCoin {
    /// Derives the coin of `process` from a master seed.
    pub fn for_process(master_seed: u64, process: ProcessId) -> Self {
        let seed = splitmix64(master_seed ^ splitmix64(process.index() as u64 + 1));
        SeededLocalCoin {
            rng: StdRng::seed_from_u64(seed),
            flips: 0,
        }
    }

    /// Returns 0 or 1, each with probability 1/2 (`local_coin()` in the
    /// paper).
    pub fn flip(&mut self) -> bool {
        self.flips += 1;
        self.rng.gen_bool(0.5)
    }

    /// The coin's raw state — generator words plus flip count — for
    /// checkpointing a run mid-flight.
    pub fn state(&self) -> ([u64; 4], u64) {
        (self.rng.state(), self.flips)
    }

    /// Rebuilds a coin from a captured [`state`], resuming its stream
    /// exactly where it left off.
    ///
    /// [`state`]: SeededLocalCoin::state
    pub fn from_state(rng: [u64; 4], flips: u64) -> Self {
        SeededLocalCoin {
            rng: StdRng::from_state(rng),
            flips,
        }
    }
}

/// The seeded common coin's bit for `round`: a fair PRF of
/// `(seed, round)`, identical wherever it is evaluated.
///
/// The paper assumes the common coin as an oracle and points to textbook
/// constructions; a pre-shared seed is the standard experimental stand-in
/// and preserves the defining property (same `r` ⇒ same bit everywhere).
/// It is addressed by round rather than by invocation count, so a process
/// that skipped rounds (e.g. after adopting a relayed `DECIDE`) still
/// reads the bit every other process read.
pub fn common_bit(seed: u64, round: u64) -> bool {
    splitmix64(seed ^ splitmix64(round.wrapping_mul(0xA24B_AED4_963E_E407))) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_coin_agrees_across_replicas() {
        // A pure function: two evaluations at one seed never differ.
        for r in 1..=1000 {
            assert_eq!(common_bit(7, r), common_bit(7, r), "round {r}");
        }
    }

    #[test]
    fn common_coin_differs_across_seeds_somewhere() {
        assert!((1..=64).any(|r| common_bit(1, r) != common_bit(2, r)));
    }

    #[test]
    fn common_coin_is_roughly_fair() {
        let ones = (1..=10_000).filter(|&r| common_bit(99, r)).count();
        assert!(
            (4500..=5500).contains(&ones),
            "common coin strongly biased: {ones}/10000"
        );
    }

    #[test]
    fn local_coin_replays_per_process_and_seed() {
        let p = ProcessId(3);
        let mut a = SeededLocalCoin::for_process(5, p);
        let mut b = SeededLocalCoin::for_process(5, p);
        let sa: Vec<bool> = (0..100).map(|_| a.flip()).collect();
        let sb: Vec<bool> = (0..100).map(|_| b.flip()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn local_coins_differ_across_processes() {
        let mut a = SeededLocalCoin::for_process(5, ProcessId(0));
        let mut b = SeededLocalCoin::for_process(5, ProcessId(1));
        let sa: Vec<bool> = (0..64).map(|_| a.flip()).collect();
        let sb: Vec<bool> = (0..64).map(|_| b.flip()).collect();
        assert_ne!(
            sa, sb,
            "streams should differ with overwhelming probability"
        );
    }

    #[test]
    fn local_coin_is_roughly_fair() {
        let mut c = SeededLocalCoin::for_process(123, ProcessId(0));
        let ones = (0..10_000).filter(|_| c.flip()).count();
        assert!((4500..=5500).contains(&ones), "local coin biased: {ones}");
    }
}
