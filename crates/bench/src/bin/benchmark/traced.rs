//! The traced pass: the per-layer metrics of one workload.
//!
//! End-to-end numbers are measured with nothing attached. This pass runs
//! a reduced *trace cell* of the same shape once plain (in a child, for
//! its wall time and RSS) and once with the trace kept and a
//! [`LogCollector`] attached, replays the kept trace through the layers
//! ([`crate::replay`]), and adds the layers no workload exercises on its
//! own: checkpointing, the latency histogram and the KV state machine.

use crate::cells::{self, Size, Workload};
use crate::child::{self, CellRun};
use crate::metrics::PER_LAYER;
use crate::replay::{self, Replay};
use crate::spans::{LayerTotals, Spans};
use ofa_core::traffic::traffic_word;
use ofa_core::Observer;
use ofa_metrics::LatencyHistogram;
use ofa_scenario::{Backend, Outcome, Scenario, Snapshot, VirtualTime};
use ofa_sim::{RunOutcome, Sim};
use ofa_smr::{Command, KvState, LogCollector};
use ofa_topology::ProcessId;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One traced pass's per-layer metrics, by name; every [`PER_LAYER`]
/// name is present (0 where the layer does no work on this workload).
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// What one traced pass produced.
pub struct TracedPass {
    pub metrics: LayerMetrics,
    /// The replay's spans, for `--spans FILE` (none for the parallel
    /// workload, which cannot keep a trace).
    pub spans: Option<Spans>,
}

/// Runs one traced pass of `w` with cells of `size` ([`Size::Trace`], or
/// [`Size::Quick`] under `--quick`; the parallel speed-up compares
/// [`Size::Full`] cells unless quick).
///
/// # Errors
///
/// Returns a message when a child fails or a cross-check does not hold;
/// replay divergence panics (see [`replay::replay`]).
pub fn traced_pass(w: &Workload, size: Size, seed: u64) -> Result<TracedPass, String> {
    let mut m: LayerMetrics = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let scenario = cells::scenario(w.name, size, seed);
    let n = scenario.partition.n() as f64;

    let plain = child::spawn_run(w.name, size, seed)?;
    m.insert("sim.ns_per_event", plain.wall_s * 1e9 / plain.events as f64);
    m.insert(
        "sim.bytes_per_process",
        plain.peak_rss_kb as f64 * 1024.0 / n,
    );
    m.insert(
        "sm.stale_ratio",
        plain.stale_dropped as f64 / plain.messages_delivered as f64,
    );
    let setup_s = child::setup_seconds(|| cells::scenario(w.name, size, seed));
    m.insert("sim.setup_ns_per_process", setup_s * 1e9 / n);
    checkpoint_legs(&scenario, &plain, &mut m)?;
    histogram_micro(seed, &mut m);

    let spans = if w.parallel {
        // A kept trace forces the sequential engine, so there is nothing
        // of the parallel engine to replay; report what only it has.
        let full = if size == Size::Quick {
            size
        } else {
            Size::Full
        };
        let sequential = child::spawn_run("kv-serve", full, seed)?;
        let parallel = child::spawn_run(w.name, full, seed)?;
        if parallel.trace_hash != sequential.trace_hash {
            return Err(format!(
                "{} hash {:016x} != kv-serve hash {:016x}",
                w.name, parallel.trace_hash, sequential.trace_hash
            ));
        }
        m.insert(
            "sim.par_speedup",
            parallel.events_per_s() / sequential.events_per_s(),
        );
        let shards = parallel.engine_used.strip_prefix("par=");
        m.insert(
            "sim.par_shards",
            shards.and_then(|s| s.parse().ok()).unwrap_or(0.0),
        );
        None
    } else {
        Some(replayed_layers(w, &scenario, &plain, &mut m)?.spans)
    };
    Ok(TracedPass { metrics: m, spans })
}

/// Keeps the trace cell's trace, replays it, and fills in every metric
/// that comes from spans.
fn replayed_layers(
    w: &Workload,
    scenario: &Scenario,
    plain: &CellRun,
    m: &mut LayerMetrics,
) -> Result<Replay, String> {
    let n = scenario.partition.n();
    let collector = Arc::new(LogCollector::new(n));
    let kept = Sim.run(
        &scenario
            .clone()
            .keep_trace()
            .observer(Arc::clone(&collector) as Arc<dyn Observer>),
    );
    if kept.trace_hash != Some(plain.trace_hash) {
        return Err(format!("{}: keeping the trace changed the hash", w.name));
    }
    m.insert(
        "tracecell.overhead_ratio",
        kept.elapsed.as_secs_f64() / plain.wall_s,
    );
    let replay = replay::replay(scenario, &kept);
    let totals = replay.spans.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let plain_ns = plain.wall_s * 1e9;
    let share =
        |names: &[&str]| names.iter().map(|s| get(s).self_ns as f64).sum::<f64>() / plain_ns;

    let (delay, fate) = (get("net.delay_of"), get("net.fate_of"));
    m.insert("net.delay_of_ns", delay.mean_ns());
    m.insert("net.fate_of_ns", fate.mean_ns());
    m.insert("net.calls", (delay.calls + fate.calls) as f64);
    m.insert("net.share", share(&["net.delay_of", "net.fate_of"]));

    let record = get("trace.record");
    m.insert("trace.record_ns", record.mean_ns());
    m.insert("trace.events", record.calls as f64);
    m.insert("trace.share", share(&["trace.record"]));

    m.insert("sm.on_msg_ns", get("sm.on_msg").mean_ns());
    m.insert("sm.start_ns", get("sm.start").mean_ns());
    m.insert("sm.steps", replay.steps as f64);
    m.insert(
        "sm.sends_per_step",
        replay.sends as f64 / replay.steps as f64,
    );
    m.insert("sm.share", share(&["sm.start", "sm.on_msg", "sm.halt"]));

    let accept = get("mailbox.accept");
    m.insert("mailbox.accept_ns", accept.mean_ns());
    m.insert("mailbox.accepts", accept.calls as f64);
    m.insert("mailbox.buffered_peak", replay.mailbox_buffered_peak as f64);
    m.insert("mailbox.share", share(&["mailbox.accept", "mailbox.drain"]));

    let propose = get("sharedmem.propose");
    m.insert("sharedmem.propose_ns", propose.mean_ns());
    m.insert("sharedmem.proposes", propose.calls as f64);
    m.insert("sharedmem.objects", replay.sharedmem_objects as f64);
    m.insert("sharedmem.share", share(&["sharedmem.propose"]));

    let pull: LayerTotals = get("traffic.pull");
    m.insert("traffic.pull_ns", pull.mean_ns());
    m.insert("traffic.pulls", pull.calls as f64);
    m.insert("traffic.arrivals", replay.traffic_arrivals as f64);
    if replay.service.batches > 0 {
        m.insert(
            "traffic.batch_fill",
            replay.service.committed as f64 / replay.service.batches as f64,
        );
    }
    m.insert("traffic.share", share(&["traffic.pull", "traffic.commit"]));

    // Everything the engines keep to themselves: scheduler heap,
    // dispatch, accounting. Mailbox and traffic are inside `sm.share`.
    let attributed = ["net.share", "trace.share", "sm.share", "sharedmem.share"];
    m.insert(
        "sim.residual_share",
        1.0 - attributed.iter().map(|s| m[s]).sum::<f64>(),
    );

    if w.kv {
        kv_layers(&collector, &kept, &replay, m)?;
    }
    Ok(replay)
}

/// Cross-checks the collector against the replay and times the KV
/// interpretation of the committed commands.
fn kv_layers(
    collector: &LogCollector,
    kept: &Outcome,
    replay: &Replay,
    m: &mut LayerMetrics,
) -> Result<(), String> {
    let n = kept.decisions.len();
    let logs: Vec<_> = (0..n).map(|i| collector.committed(ProcessId(i))).collect();
    let longest = logs.iter().max_by_key(|l| l.len()).expect("n >= 1");
    for (i, log) in logs.iter().enumerate() {
        // Identical logs ⇒ identical states: every replica's committed
        // sequence is a prefix of the longest one.
        if log[..] != longest[..log.len()] {
            return Err(format!("replica p{i}'s committed log diverges"));
        }
        let payloads: Vec<_> = log.iter().map(|mv| mv.payload).collect();
        if payloads != replay.commits[i] {
            return Err(format!("replica p{i}: replay committed different payloads"));
        }
    }
    let stages = logs.iter().flatten().map(|mv| mv.stages).max().unwrap_or(0);
    if stages != replay.stages_per_slot_max {
        return Err("replay saw a different stage count".to_string());
    }
    m.insert("smr.stages_per_slot_max", stages as f64);

    // A committed batch descriptor stands for `count` client commands;
    // give each a KV reading and time decode + apply.
    let encoded: Vec<_> = (0..kept.service.committed)
        .map(|i| {
            Command::put(&format!("k{}", i % 97), &format!("v{i}"))
                .encode()
                .expect("short keys fit a payload")
        })
        .collect();
    let mut state = KvState::new();
    let started = Instant::now();
    for payload in &encoded {
        state.apply(&Command::decode(payload).expect("round-trips"));
    }
    let elapsed = started.elapsed();
    black_box(state.digest());
    if !encoded.is_empty() {
        m.insert(
            "smr.decode_apply_ns",
            elapsed.as_nanos() as f64 / encoded.len() as f64,
        );
    }
    Ok(())
}

/// Pauses the cell at half its virtual duration, ships the snapshot
/// through JSON, resumes it, and checks the result is the straight run.
fn checkpoint_legs(
    scenario: &Scenario,
    plain: &CellRun,
    m: &mut LayerMetrics,
) -> Result<(), String> {
    let cut = VirtualTime::from_ticks(plain.end_ticks / 2);
    let started = Instant::now();
    let RunOutcome::Paused(snapshot) = Sim.run_until(scenario, cut) else {
        return Err("the cell finished before half its own duration".to_string());
    };
    m.insert("checkpoint.pause_s", started.elapsed().as_secs_f64());

    let started = Instant::now();
    let json = serde_json::to_string(&*snapshot).map_err(|e| e.to_string())?;
    let shipped: Snapshot = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    m.insert("checkpoint.codec_s", started.elapsed().as_secs_f64());
    m.insert("checkpoint.snapshot_bytes", json.len() as f64);

    let started = Instant::now();
    let resumed = Sim.resume(&shipped);
    m.insert("checkpoint.resume_s", started.elapsed().as_secs_f64());
    let resumed = CellRun::from_outcome(&resumed);
    let same = |a: &CellRun| {
        (
            a.trace_hash,
            a.events,
            a.deciders,
            a.decision_ticks,
            a.end_ticks,
            a.messages_sent,
            a.stale_dropped,
            a.committed,
        )
    };
    if same(&resumed) != same(plain) {
        return Err(format!(
            "resumed run differs from the straight-through run: {resumed:?} vs {plain:?}"
        ));
    }
    Ok(())
}

/// `LatencyHistogram::record` over a seeded latency-shaped stream, and
/// `merge` of per-replica-sized histograms into one.
fn histogram_micro(seed: u64, m: &mut LayerMetrics) {
    const SAMPLES: u64 = 1 << 20;
    const PARTS: usize = 1 << 10;
    // The traffic PRF, spread over the log-linear range commit latencies
    // occupy (10³–10⁵ ticks).
    let values: Vec<u64> = (0..SAMPLES)
        .map(|k| 1_000 + traffic_word(seed, 0, k) % 100_000)
        .collect();
    let mut parts = vec![LatencyHistogram::new(); PARTS];
    let started = Instant::now();
    for (i, &v) in values.iter().enumerate() {
        parts[i % PARTS].record(v);
    }
    m.insert(
        "metrics.hist_record_ns",
        started.elapsed().as_nanos() as f64 / SAMPLES as f64,
    );
    let mut merged = LatencyHistogram::new();
    let started = Instant::now();
    for part in &parts {
        merged.merge(part);
    }
    m.insert(
        "metrics.hist_merge_ns",
        started.elapsed().as_nanos() as f64 / PARTS as f64,
    );
    assert_eq!(black_box(merged.total()), SAMPLES);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `traced_pass` needs child processes of the benchmark binary, which
    /// a unit-test binary is not; the in-process half is what is testable.
    fn in_process(name: &str) -> LayerMetrics {
        let w = cells::workload(name).unwrap();
        let scenario = cells::scenario(name, Size::Quick, 11);
        let plain = CellRun::from_outcome(&Sim.run(&scenario));
        let mut m: LayerMetrics = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
        checkpoint_legs(&scenario, &plain, &mut m).unwrap();
        histogram_micro(11, &mut m);
        replayed_layers(w, &scenario, &plain, &mut m).unwrap();
        m
    }

    #[test]
    fn shares_and_residual_sum_to_one() {
        for name in ["consensus-split", "kv-faults"] {
            let m = in_process(name);
            let sum = m["net.share"]
                + m["trace.share"]
                + m["sm.share"]
                + m["sharedmem.share"]
                + m["sim.residual_share"];
            assert!((sum - 1.0).abs() < 1e-9, "{name}: {sum}");
            for (k, v) in &m {
                assert!(v.is_finite(), "{name}: {k} = {v}");
                if k.ends_with(".share") && *k != "sim.residual_share" {
                    assert!(*v >= 0.0, "{name}: {k} = {v}");
                }
            }
            assert_eq!(m.len(), PER_LAYER.len(), "no name outside the table");
        }
    }

    #[test]
    fn layers_see_the_work_the_workload_gives_them() {
        let split = in_process("consensus-split");
        assert!(split["net.delay_of_ns"] > 0.0 && split["net.fate_of_ns"] == 0.0);
        assert_eq!(split["traffic.pulls"], 0.0);
        assert!(split["checkpoint.snapshot_bytes"] > 0.0);
        let faults = in_process("kv-faults");
        assert!(faults["net.delay_of_ns"] == 0.0 && faults["net.fate_of_ns"] > 0.0);
        assert!(faults["traffic.pulls"] > 0.0 && faults["traffic.batch_fill"] > 0.0);
        assert!(
            faults["smr.stages_per_slot_max"] > 1.0,
            "p0's crash costs a stage"
        );
        assert!(faults["smr.decode_apply_ns"] > 0.0);
    }
}
