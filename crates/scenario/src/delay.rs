//! Message-delay and operation-cost models.
//!
//! The paper's premise (§I): intra-cluster shared memory is *efficient*
//! but does not scale; message passing *scales* but is slow due to
//! asynchrony. The simulator makes that premise a tunable: every
//! shared-memory consensus invocation costs [`CostModel::sm_op_cost`]
//! ticks while every message takes a [`DelayModel`]-sampled transit time —
//! experiment E7 sweeps their ratio.

use crate::LatencyDist;
use ofa_topology::ProcessId;
use serde::{Deserialize, Serialize};

/// Per-operation virtual-time costs charged to the invoking process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of handing one message to the network (per destination).
    pub send_cost: u64,
    /// Cost of consuming one delivered message.
    pub recv_cost: u64,
    /// Cost of one intra-cluster consensus-object invocation
    /// (`CONS_x[r, ph].propose`). The paper's "efficient" dimension.
    pub sm_op_cost: u64,
    /// Cost of drawing a coin.
    pub coin_cost: u64,
}

impl CostModel {
    /// Default calibration: shared-memory ops are ~100× cheaper than the
    /// default constant network delay of [`DelayModel::default`].
    pub fn new() -> Self {
        CostModel {
            send_cost: 1,
            recv_cost: 1,
            sm_op_cost: 10,
            coin_cost: 1,
        }
    }

    /// Sets the shared-memory operation cost (returns a modified copy).
    pub fn with_sm_op_cost(mut self, ticks: u64) -> Self {
        self.sm_op_cost = ticks;
        self
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new()
    }
}

/// How long a message takes from send to delivery.
///
/// All variants model the paper's *reliable asynchronous* channels: every
/// sampled delay is finite, no message is lost or reordered within the
/// model's own guarantees (delivery order is delay order, so reordering
/// happens naturally under non-constant delays).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DelayModel {
    /// Every message takes exactly this many ticks.
    Constant(u64),
    /// Uniformly random in `[lo, hi]` (inclusive).
    Uniform {
        /// Minimum delay.
        lo: u64,
        /// Maximum delay.
        hi: u64,
    },
    /// Base model, but messages **from or to** the listed processes are
    /// multiplied by `factor` — an adversarial laggard set (e.g. make an
    /// entire cluster slow).
    Laggard {
        /// The slow processes.
        slow: Vec<ProcessId>,
        /// Multiplier applied to the base delay.
        factor: u64,
        /// The underlying model.
        base: Box<DelayModel>,
    },
}

/// Domain separator folded into the per-message delay PRF so delay
/// randomness never collides with coin or local-coin streams derived
/// from the same master seed.
const DELAY_DOMAIN_SEP: u64 = 0x5DEE_CE66_D1CE_5EED;

/// SplitMix64-style mix of the delay PRF inputs into one RNG seed. Also
/// the mixer behind the network model's loss/duplication fate PRF, which
/// feeds it domain-separated master seeds.
pub(crate) fn mix_delay_seed(seed: u64, from: ProcessId, to: ProcessId, k: u64) -> u64 {
    mix_tail(mix_head(seed, from), to.index() as u64, k)
}

/// The part of [`mix_delay_seed`] every message of one sender shares.
pub(crate) fn mix_head(seed: u64, from: ProcessId) -> u64 {
    mix_step(seed ^ DELAY_DOMAIN_SEP, from.index() as u64)
}

/// The rest of [`mix_delay_seed`], from its sender's [`mix_head`].
pub(crate) fn mix_tail(head: u64, to: u64, k: u64) -> u64 {
    mix_step(mix_step(head, to), k)
}

fn mix_step(z: u64, w: u64) -> u64 {
    let z = z
        .wrapping_add(w)
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

impl DelayModel {
    /// The transit time of the sender's `k`-th network handoff (counted
    /// per sending process across the whole run) to `to`.
    ///
    /// A *pure function* of `(seed, from, to, k)`: the delay does not
    /// depend on the order in which messages are registered with a
    /// scheduler. That is what lets the sharded parallel engine assign
    /// delays shard-locally and still agree bit-for-bit with the
    /// single-threaded engines — every engine uses this derivation.
    pub fn delay_of(&self, seed: u64, from: ProcessId, to: ProcessId, k: u64) -> u64 {
        match self {
            // The scale fast path: no RNG construction per message.
            DelayModel::Constant(d) => *d,
            DelayModel::Uniform { lo, hi } => {
                LatencyDist::Uniform { lo: *lo, hi: *hi }.sample(mix_delay_seed(seed, from, to, k))
            }
            DelayModel::Laggard { slow, factor, base } => {
                let d = base.delay_of(seed, from, to, k);
                if slow.contains(&from) || slow.contains(&to) {
                    d.saturating_mul(*factor)
                } else {
                    d
                }
            }
        }
    }

    /// A lower bound on every delay this model can produce — the
    /// conservative lookahead of the parallel engine: events scheduled
    /// within one `min_delay` window cannot causally affect each other
    /// across shards. A zero bound disables parallel execution.
    pub fn min_delay(&self) -> u64 {
        match self {
            DelayModel::Constant(d) => *d,
            DelayModel::Uniform { lo, .. } => *lo,
            DelayModel::Laggard { slow, factor, base } => {
                let b = base.min_delay();
                if slow.is_empty() {
                    b
                } else {
                    b.min(b.saturating_mul(*factor))
                }
            }
        }
    }

    /// Default network: uniform in `[500, 1500]` ticks (mean 1000, i.e.
    /// 100× the default `sm_op_cost`).
    pub fn default_network() -> Self {
        DelayModel::Uniform { lo: 500, hi: 1500 }
    }
}

impl Default for DelayModel {
    fn default() -> Self {
        Self::default_network()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let d = DelayModel::Constant(7);
        for k in 0..10 {
            assert_eq!(d.delay_of(1, ProcessId(0), ProcessId(1), k), 7);
        }
    }

    #[test]
    fn uniform_within_bounds_and_varies() {
        let d = DelayModel::Uniform { lo: 10, hi: 20 };
        let samples: Vec<u64> = (0..200)
            .map(|k| d.delay_of(2, ProcessId(0), ProcessId(1), k))
            .collect();
        assert!(samples.iter().all(|&s| (10..=20).contains(&s)));
        assert!(samples.iter().any(|&s| s != samples[0]), "should vary");
    }

    #[test]
    fn laggard_multiplies_only_slow_links() {
        let d = DelayModel::Laggard {
            slow: vec![ProcessId(2)],
            factor: 10,
            base: Box::new(DelayModel::Constant(5)),
        };
        assert_eq!(d.delay_of(3, ProcessId(0), ProcessId(1), 0), 5);
        assert_eq!(d.delay_of(3, ProcessId(2), ProcessId(1), 1), 50);
        assert_eq!(d.delay_of(3, ProcessId(0), ProcessId(2), 2), 50);
    }

    #[test]
    fn keyed_delay_is_a_pure_function_and_respects_bounds() {
        let d = DelayModel::Uniform { lo: 10, hi: 20 };
        let (p, q) = (ProcessId(3), ProcessId(7));
        // Pure: same inputs, same delay, in any evaluation order.
        let first = d.delay_of(9, p, q, 0);
        let later = d.delay_of(9, p, q, 5);
        assert_eq!(d.delay_of(9, p, q, 5), later);
        assert_eq!(d.delay_of(9, p, q, 0), first);
        assert!((10..=20).contains(&first));
        // Distinct keys vary (statistically: over 64 keys at least one
        // differs from the first for an 11-value range).
        assert!((0..64).any(|k| d.delay_of(9, p, q, k) != first));
        // Distinct seeds decorrelate the whole stream.
        assert!((0..64).any(|k| d.delay_of(10, p, q, k) != d.delay_of(9, p, q, k)));
    }

    #[test]
    fn min_delay_bounds_every_sample() {
        assert_eq!(DelayModel::Constant(7).min_delay(), 7);
        assert_eq!(DelayModel::Uniform { lo: 200, hi: 900 }.min_delay(), 200);
        let lag = DelayModel::Laggard {
            slow: vec![ProcessId(0)],
            factor: 7,
            base: Box::new(DelayModel::Uniform { lo: 300, hi: 800 }),
        };
        assert_eq!(lag.min_delay(), 300);
        // A zero factor can *shrink* delays on slow links.
        let shrink = DelayModel::Laggard {
            slow: vec![ProcessId(1)],
            factor: 0,
            base: Box::new(DelayModel::Constant(50)),
        };
        assert_eq!(shrink.min_delay(), 0);
        // No slow processes: the factor never applies.
        let noop = DelayModel::Laggard {
            slow: vec![],
            factor: 0,
            base: Box::new(DelayModel::Constant(50)),
        };
        assert_eq!(noop.min_delay(), 50);
    }

    #[test]
    fn cost_model_builder() {
        let c = CostModel::new().with_sm_op_cost(42);
        assert_eq!(c.sm_op_cost, 42);
        assert_eq!(CostModel::default(), CostModel::new());
    }
}
