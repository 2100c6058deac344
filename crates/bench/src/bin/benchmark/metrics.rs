//! The metric tables — the code-side twin of `BENCHMARK.json` (a unit
//! test keeps the two in step) — and the summary statistics.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
    /// A simulated statistic: a pure function of the scenario, so it must
    /// repeat bit-for-bit across repeats of one seed.
    pub exact: bool,
    pub what: &'static str,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact,
        what,
    }
}

/// A measured (wall-clock or memory) end-to-end metric.
const WALL: bool = false;
/// A simulated statistic (see [`MetricDef::exact`]).
const EXACT: bool = true;

use Better::{Higher, Lower};

/// What a user of the system sees, per workload. Every workload reports
/// every metric and none is ever zero: the consensus workloads read the
/// client-service rows as "one command per process, admitted
/// unconditionally, committed when the process decides".
pub const END_TO_END: [MetricDef; 12] = [
    metric(
        "wall_s",
        "s",
        Lower,
        0.25,
        WALL,
        "wall time of the one Sim::run call",
    ),
    metric(
        "events_per_s",
        "1/s",
        Higher,
        0.25,
        WALL,
        "events_processed / wall_s: the number to claim on",
    ),
    metric("peak_rss_mb", "MB", Lower, 0.10, WALL, "the run's VmHWM"),
    metric(
        "setup_s",
        "s",
        Lower,
        0.25,
        WALL,
        "scenario construction + Sim::run with max_events(0), in its own process",
    ),
    metric(
        "decision_ticks",
        "ticks",
        Lower,
        0.05,
        EXACT,
        "virtual clock of the last process to decide",
    ),
    metric(
        "msgs_per_decision",
        "count",
        Lower,
        0.05,
        EXACT,
        "messages sent / deciders",
    ),
    metric(
        "decided_share",
        "ratio",
        Higher,
        0.01,
        EXACT,
        "1 - operations failed / attempted",
    ),
    metric(
        "commit_p50_ticks",
        "ticks",
        Lower,
        0.20,
        EXACT,
        "median due-time → commit latency",
    ),
    metric(
        "commit_p99_ticks",
        "ticks",
        Lower,
        0.20,
        EXACT,
        "99th-percentile due-time → commit latency",
    ),
    metric(
        "commits_per_kilotick",
        "1/kt",
        Higher,
        0.15,
        EXACT,
        "commands committed per 1000 virtual ticks",
    ),
    metric(
        "commits_per_wall_s",
        "1/s",
        Higher,
        0.25,
        WALL,
        "commands committed per wall second",
    ),
    metric(
        "admitted_share",
        "ratio",
        Higher,
        0.05,
        EXACT,
        "commands admitted / offered (1 - shed share)",
    ),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    metric(name, unit, better, 0.0, WALL, what)
}

/// Single layers, from the traced pass. `*_ns` is mean self time per
/// call; `*.share` is the layer's summed self time over the trace cell's
/// plain `Sim::run` wall.
pub const PER_LAYER: [MetricDef; 41] = [
    layer("net.delay_of_ns", "ns", Lower, "NetIndex::delay_of"),
    layer("net.fate_of_ns", "ns", Lower, "NetIndex::fate_of"),
    layer("net.calls", "count", Lower, "delay_of + fate_of calls"),
    layer("net.share", "ratio", Lower, "NetIndex share of the run"),
    layer("trace.record_ns", "ns", Lower, "TraceRecorder::record"),
    layer("trace.events", "count", Lower, "events recorded"),
    layer("trace.share", "ratio", Lower, "trace hashing share"),
    layer("sm.on_msg_ns", "ns", Lower, "ConsensusSm/LogSm::on_msg"),
    layer("sm.start_ns", "ns", Lower, "ConsensusSm/LogSm::start"),
    layer("sm.steps", "count", Lower, "start + on_msg + halt calls"),
    layer(
        "sm.sends_per_step",
        "count",
        Lower,
        "messages sent per step",
    ),
    layer(
        "sm.stale_ratio",
        "ratio",
        Lower,
        "stale_dropped / messages_delivered",
    ),
    layer(
        "sm.share",
        "ratio",
        Lower,
        "state-machine share (incl. mailbox, traffic)",
    ),
    layer(
        "mailbox.accept_ns",
        "ns",
        Lower,
        "Mailbox::accept, standalone",
    ),
    layer("mailbox.accepts", "count", Lower, "accept calls"),
    layer(
        "mailbox.buffered_peak",
        "count",
        Lower,
        "future-slot buffer high-water mark",
    ),
    layer(
        "mailbox.share",
        "ratio",
        Lower,
        "mailbox share (nested in sm.share)",
    ),
    layer(
        "sharedmem.propose_ns",
        "ns",
        Lower,
        "ClusterMemory::propose_raw",
    ),
    layer("sharedmem.proposes", "count", Lower, "propose calls"),
    layer(
        "sharedmem.objects",
        "count",
        Lower,
        "consensus objects materialized",
    ),
    layer("sharedmem.share", "ratio", Lower, "cluster-memory share"),
    layer(
        "traffic.pull_ns",
        "ns",
        Lower,
        "TrafficState::pull + next_batch",
    ),
    layer("traffic.pulls", "count", Lower, "pull calls"),
    layer("traffic.arrivals", "count", Lower, "arrivals materialized"),
    layer(
        "traffic.batch_fill",
        "count",
        Higher,
        "commands per committed batch",
    ),
    layer(
        "traffic.share",
        "ratio",
        Lower,
        "traffic share (nested in sm.share)",
    ),
    layer(
        "metrics.hist_record_ns",
        "ns",
        Lower,
        "LatencyHistogram::record",
    ),
    layer(
        "metrics.hist_merge_ns",
        "ns",
        Lower,
        "LatencyHistogram::merge",
    ),
    layer(
        "smr.decode_apply_ns",
        "ns",
        Lower,
        "Command::decode + KvState::apply",
    ),
    layer(
        "smr.stages_per_slot_max",
        "count",
        Lower,
        "most binary stages any slot needed",
    ),
    layer(
        "sim.ns_per_event",
        "ns",
        Lower,
        "plain wall / events_processed",
    ),
    layer(
        "sim.residual_share",
        "ratio",
        Lower,
        "1 - net - trace - sm - sharedmem shares",
    ),
    layer("sim.setup_ns_per_process", "ns", Lower, "set-up time / n"),
    layer("sim.bytes_per_process", "B", Lower, "peak RSS / n"),
    layer(
        "sim.par_speedup",
        "ratio",
        Higher,
        "events_per_s of kv-serve-par2 over kv-serve",
    ),
    layer("sim.par_shards", "count", Higher, "shards the engine ran"),
    layer(
        "checkpoint.pause_s",
        "s",
        Lower,
        "Sim::run_until to mid-run",
    ),
    layer("checkpoint.snapshot_bytes", "B", Lower, "snapshot as JSON"),
    layer("checkpoint.codec_s", "s", Lower, "serde_json out and back"),
    layer("checkpoint.resume_s", "s", Lower, "Sim::resume to the end"),
    layer(
        "tracecell.overhead_ratio",
        "ratio",
        Lower,
        "kept-trace wall / plain wall",
    ),
];

/// Median, quartiles and sample count of one metric over a run's
/// repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the spreads printed here are the ones the
/// driver computes.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples to summarize");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return Summary {
            median: v[0],
            q1: v[0],
            q3: v[0],
            n: 1,
        };
    }
    let quantile = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: quantile(2),
        q1: quantile(1),
        q3: quantile(3),
        n: ld,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let s = summarize(&[1.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
        assert_eq!(summarize(&[7.0]).spread(), 0.0);
    }

    #[test]
    fn names_are_contract_shaped_and_unique() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let workloads = crate::cells::WORKLOADS.iter().map(|w| w.name);
        let metrics = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name);
        for name in workloads.chain(metrics) {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(m.unit, "_/%.-", 16), "{}: unit {:?}", m.name, m.unit);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for w in &crate::cells::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
