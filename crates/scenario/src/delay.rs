//! Message-delay and operation-cost models.
//!
//! The paper's premise (§I): intra-cluster shared memory is *efficient*
//! but does not scale; message passing *scales* but is slow due to
//! asynchrony. The simulator makes that premise a tunable: every
//! shared-memory consensus invocation costs [`CostModel::sm_op_cost`]
//! ticks while every message takes a sampled transit time (a
//! [`DelayModel`] on a flat network) — experiment E7 sweeps their ratio.

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

/// How long a message takes from send to delivery: the stored value of a
/// flat network ([`crate::LinkClasses::Flat`]).
///
/// All variants model the paper's *reliable asynchronous* channels: every
/// sampled delay is finite, no message is lost or reordered within the
/// model's own guarantees (delivery order is delay order, so reordering
/// happens naturally under non-constant delays). It is data only:
/// [`crate::NetworkModel::compile`] lowers it into the one class table
/// every network draws from, its base delay serving every link and each
/// `Laggard` level adding one layer.
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
    /// multiplied by `factor` (saturating) — an adversarial laggard set (e.g. make an
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

impl DelayModel {
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
    fn cost_model_builder() {
        let c = CostModel::new().with_sm_op_cost(42);
        assert_eq!(c.sm_op_cost, 42);
        assert_eq!(CostModel::default(), CostModel::new());
    }
}
