//! Per-process event counters.
//!
//! Every execution substrate (simulator engines, thread runtime) keeps one
//! [`CounterSnapshot`] per process, written only by the thread stepping
//! that process, and aggregates them with [`CounterSnapshot::merge`]. The
//! counters back the paper's structural comparisons: consensus-object
//! invocations per phase (§III-C), message counts, coin usage, and round
//! counts.

use serde::{Deserialize, Serialize};

/// Event counters for one process (or one whole run, when merged):
/// plain data, suitable for aggregation and serialization.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Point-to-point sends (a broadcast to `n` processes counts `n`).
    pub messages_sent: u64,
    /// Messages actually delivered to the algorithm.
    pub messages_delivered: u64,
    /// Invocations of the `broadcast` macro-operation.
    pub broadcasts: u64,
    /// Invocations of an intra-cluster (or m&m) consensus object — the
    /// quantity compared in §III-C of the paper.
    pub cluster_proposes: u64,
    /// Shared-register read/write operations. No substrate counts them;
    /// the field stays because the `Outcome` JSON and stored snapshots
    /// carry it.
    pub register_ops: u64,
    /// Local coin flips (Algorithm 2, line 14).
    pub local_coin_flips: u64,
    /// Common coin queries (Algorithm 3, line 6).
    pub common_coin_queries: u64,
    /// Rounds entered (line 3 of both algorithms).
    pub rounds_started: u64,
    /// Direct decisions (`return(v)` at line 12 / 9).
    pub decisions: u64,
    /// Decisions adopted from a relayed `DECIDE` message (line 17 / 13).
    pub decide_relays: u64,
    /// Stale mailbox entries discarded (past-slot arrivals plus buffers
    /// pruned when the served slot advanced).
    pub stale_dropped: u64,
}

impl CounterSnapshot {
    /// Field-wise sum, used to aggregate per-process counters into a
    /// per-run total.
    pub fn merge(self, other: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            messages_sent: self.messages_sent + other.messages_sent,
            messages_delivered: self.messages_delivered + other.messages_delivered,
            broadcasts: self.broadcasts + other.broadcasts,
            cluster_proposes: self.cluster_proposes + other.cluster_proposes,
            register_ops: self.register_ops + other.register_ops,
            local_coin_flips: self.local_coin_flips + other.local_coin_flips,
            common_coin_queries: self.common_coin_queries + other.common_coin_queries,
            rounds_started: self.rounds_started + other.rounds_started,
            decisions: self.decisions + other.decisions,
            decide_relays: self.decide_relays + other.decide_relays,
            stale_dropped: self.stale_dropped + other.stale_dropped,
        }
    }

    /// Sums an iterator of snapshots.
    pub fn merge_all<I: IntoIterator<Item = CounterSnapshot>>(iter: I) -> CounterSnapshot {
        iter.into_iter()
            .fold(CounterSnapshot::default(), CounterSnapshot::merge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fieldwise() {
        let a = CounterSnapshot {
            messages_sent: 1,
            decisions: 1,
            ..Default::default()
        };
        let b = CounterSnapshot {
            messages_sent: 10,
            cluster_proposes: 4,
            ..Default::default()
        };
        let m = a.merge(b);
        assert_eq!(m.messages_sent, 11);
        assert_eq!(m.cluster_proposes, 4);
        assert_eq!(m.decisions, 1);
    }

    #[test]
    fn merge_all_over_processes() {
        let snaps = (0..5).map(|i| CounterSnapshot {
            broadcasts: i,
            ..Default::default()
        });
        assert_eq!(CounterSnapshot::merge_all(snaps).broadcasts, 10);
    }
}
