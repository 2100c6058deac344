//! One measured execution per fresh process.
//!
//! Every repeat of a cell runs in a child process of this same binary,
//! so wall time, allocator state and peak RSS are what a one-shot `ofa`
//! invocation pays. The child prints one JSON line; the parent parses it.

use crate::cells::{self, Size};
use ofa_scenario::{Backend, Engine, Outcome, Scenario};
use ofa_sim::Sim;
use serde::{Deserialize, Serialize};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one execution of a cell reports. Everything but `wall_s` and
/// `peak_rss_kb` is a pure function of the scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRun {
    pub wall_s: f64,
    pub peak_rss_kb: u64,
    pub events: u64,
    pub trace_hash: u64,
    pub engine_used: String,
    /// Processes that did not crash.
    pub correct: u64,
    pub deciders: u64,
    pub agreement: bool,
    pub decision_ticks: u64,
    pub end_ticks: u64,
    pub messages_sent: u64,
    pub messages_delivered: u64,
    pub stale_dropped: u64,
    /// Client-service statistics (all zero on consensus workloads).
    pub submitted: u64,
    pub committed: u64,
    pub shed: u64,
    pub latency_samples: u64,
    pub commit_p50_ticks: u64,
    pub commit_p99_ticks: u64,
}

impl CellRun {
    pub fn from_outcome(out: &Outcome) -> CellRun {
        CellRun {
            wall_s: out.elapsed.as_secs_f64(),
            peak_rss_kb: peak_rss_kb(),
            events: out.events_processed,
            trace_hash: out.trace_hash.expect("the simulator always hashes"),
            engine_used: engine_name(out.engine_used),
            correct: (out.decisions.len() - out.crashed.len()) as u64,
            deciders: out.deciders() as u64,
            agreement: out.agreement_holds(),
            decision_ticks: out.latest_decision_time.ticks(),
            end_ticks: out.end_time.ticks(),
            messages_sent: out.counters.messages_sent,
            messages_delivered: out.counters.messages_delivered,
            stale_dropped: out.counters.stale_dropped,
            submitted: out.service.submitted,
            committed: out.service.committed,
            shed: out.service.shed,
            latency_samples: out.service.latency.total(),
            commit_p50_ticks: out.service.latency.percentile(50),
            commit_p99_ticks: out.service.latency.percentile(99),
        }
    }

    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s
    }
}

pub fn engine_name(engine: Option<Engine>) -> String {
    match engine {
        Some(Engine::Threads) => "threads".to_string(),
        Some(Engine::EventDriven) => "event".to_string(),
        Some(Engine::ParallelEvent { workers }) => format!("par={workers}"),
        None => "none".to_string(),
    }
}

/// This process's peak resident set, from `/proc/self/status`.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS is read from /proc/self/status (Linux only)");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status")
}

/// Set-up time of a scenario: construction plus a `Sim::run` that is cut
/// off before the first event — every machine built, every `start`
/// broadcast issued and scheduled, nothing delivered.
pub fn setup_seconds(build: impl FnOnce() -> Scenario) -> f64 {
    let started = Instant::now();
    let scenario = build().max_events(0);
    let out = Sim.run(&scenario);
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(out.events_processed, 0);
    elapsed
}

/// What a child is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Run the cell once and report a [`CellRun`].
    Run,
    /// Report `{"setup_s": …}` for the cell.
    Setup,
}

impl Task {
    pub fn name(self) -> &'static str {
        match self {
            Task::Run => "run",
            Task::Setup => "setup",
        }
    }

    pub fn parse(s: &str) -> Option<Task> {
        [Task::Run, Task::Setup].into_iter().find(|t| t.name() == s)
    }
}

/// The child side: runs `task` and prints its one JSON line.
pub fn child_main(task: Task, workload: &str, size: Size, seed: u64) {
    let line = match task {
        Task::Run => {
            let out = Sim.run(&cells::scenario(workload, size, seed));
            serde_json::to_string(&CellRun::from_outcome(&out))
        }
        Task::Setup => {
            let s = setup_seconds(|| cells::scenario(workload, size, seed));
            serde_json::to_string(&serde::Value::Map(vec![(
                "setup_s".to_string(),
                serde::Value::F64(s),
            )]))
        }
    };
    println!("{}", line.expect("finite numbers serialize"));
}

/// The parent side: runs `task` in a fresh child and returns its JSON.
fn spawn(task: Task, workload: &str, size: Size, seed: u64) -> Result<serde::Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut command = Command::new(exe);
    if task == Task::Setup {
        // Set-up is timed on one core for every workload (`OFA_CORES` is
        // ofa-sim's own knob). The parallel engine builds its shards on
        // worker threads that live for ~25 ms; whether the OS runs them
        // side by side flips by the minute on a small VM, and `setup_s`
        // of `kv-serve-par2` read 27 ms or 50 ms accordingly. The work
        // is the same either way, and it is the work this metric guards.
        command.env("OFA_CORES", "1");
    }
    let out = command
        .args([
            "--child",
            task.name(),
            "--workload",
            workload,
            "--size",
            size.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child ({workload}, {task:?}) ended with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("child printed {line:?}: {e}"))
}

pub fn spawn_run(workload: &str, size: Size, seed: u64) -> Result<CellRun, String> {
    let v = spawn(Task::Run, workload, size, seed)?;
    CellRun::from_value(&v).map_err(|e| e.to_string())
}

pub fn spawn_setup(workload: &str, size: Size, seed: u64) -> Result<f64, String> {
    let v = spawn(Task::Setup, workload, size, seed)?;
    v.get("setup_s")
        .ok_or("child printed no setup_s".to_string())
        .and_then(|s| f64::from_value(s).map_err(|e| e.to_string()))
}
