//! The repository's benchmark: five workloads, twelve end-to-end
//! metrics, and a trace-replayed per-layer breakdown. `README.md` beside
//! this file has the workload table, the metric glossary and how to
//! state a claim against it; `BENCHMARK.json` at the repository root is
//! the contract the numbers are judged by.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--check-repeat] [--json FILE] [--spans FILE]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` each runs
//! both passes (end-to-end with nothing attached, then traced). Each
//! (workload, pass) ends with one JSON line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

mod cells;
mod child;
mod metrics;
mod replay;
mod spans;
mod traced;

use cells::{Size, Workload, WORKLOADS};
use child::CellRun;
use metrics::{summarize, MetricDef, Summary, END_TO_END, PER_LAYER};
use ofa_scenario::default_workers;
use serde::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// `run_seconds` of `BENCHMARK.json`: how long one pass measures.
const DEFAULT_SECONDS: f64 = 20.0;
/// Under `--quick` the cells take milliseconds; two repeats are enough
/// to exercise every code path.
const QUICK_SECONDS: f64 = 0.05;
/// Set-up is measured this many times per run; its median is reported.
const SETUP_REPEATS: usize = 7;
/// Fewest repeats of a cell, whatever `--seconds` says: the determinism
/// gate needs two executions to compare.
const MIN_REPEATS: usize = 2;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--check-repeat] [--json FILE] [--spans FILE]";

#[derive(Debug, Default)]
struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    check_repeat: bool,
    json: Option<String>,
    spans: Option<String>,
    /// Internal: this process is a child asked to run one task.
    child: Option<(child::Task, Size)>,
}

impl Options {
    fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut o = Options {
            seed: 42,
            ..Options::default()
        };
        let mut child_task = None;
        let mut child_size = Size::Full;
        let mut args = args.skip(1);
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    o.workload =
                        Some(cells::workload(&name).ok_or(format!("unknown workload {name:?}"))?);
                }
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".to_string());
                    }
                    o.seconds = Some(s);
                }
                "--trace" => {
                    o.trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    });
                }
                "--quick" => o.quick = true,
                "--check-repeat" => o.check_repeat = true,
                "--json" => o.json = Some(value()?),
                "--spans" => o.spans = Some(value()?),
                "--child" => {
                    let name = value()?;
                    child_task =
                        Some(child::Task::parse(&name).ok_or(format!("unknown task {name:?}"))?);
                }
                "--size" => {
                    let name = value()?;
                    child_size = Size::parse(&name).ok_or(format!("unknown size {name:?}"))?;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        o.child = child_task.map(|t| (t, child_size));
        if o.child.is_some() && o.workload.is_none() {
            return Err("--child needs --workload".to_string());
        }
        Ok(o)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }

    /// The measured cell, and the cell the traced pass keeps a trace of.
    fn sizes(&self) -> (Size, Size) {
        if self.quick {
            (Size::Quick, Size::Quick)
        } else {
            (Size::Full, Size::Trace)
        }
    }
}

/// One pass (end-to-end or traced) of one workload.
struct Pass {
    traced: bool,
    /// Per metric, in table order.
    summaries: Vec<(&'static MetricDef, Summary)>,
    attempted: u64,
    failed: u64,
    /// Why the outputs are not correct (empty = correct).
    problems: Vec<String>,
    /// Not a metric: what identifies the execution that was measured.
    fingerprint: String,
}

impl Pass {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn summary(&self, name: &str) -> &Summary {
        let (_, s) = self.summaries.iter().find(|(d, _)| d.name == name).unwrap();
        s
    }

    /// The contract's result line.
    fn json_line(&self) -> String {
        let metrics = self
            .summaries
            .iter()
            .map(|(d, s)| {
                let entry = vec![
                    ("value".to_string(), Value::F64(s.median)),
                    ("unit".to_string(), Value::Str(d.unit.to_string())),
                ];
                (d.name.to_string(), Value::Map(entry))
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("metrics are finite")
    }

    fn print(&self, w: &Workload) {
        let pass = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!("\n== {} · {pass} · {}", w.name, self.fingerprint);
        for (d, s) in &self.summaries {
            let bound = if self.traced {
                String::new()
            } else {
                format!("  bound {:.0}%", d.bound * 100.0)
            };
            println!(
                "{:<28} {:>14.6} {:<6} q1 {:<12.6} q3 {:<12.6} n={:<2} spread {:>5.2}%  {} is better{bound}",
                d.name,
                s.median,
                d.unit,
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0,
                d.better.name(),
            );
        }
        for p in &self.problems {
            println!("INCORRECT: {p}");
        }
        println!("{}", self.json_line());
    }
}

/// Operations `(attempted, failed)` of one execution: one per correct
/// process, times the slot count on the KV workloads. A replica that
/// stops short fails all its slots: the outcome does not say how far it
/// got, and a conservative count cannot flatter a change.
fn operations(w: &Workload, size: Size, run: &CellRun) -> (u64, u64) {
    let per_process = if w.kv { cells::kv_shape(size).2 } else { 1 };
    (
        run.correct * per_process,
        (run.correct - run.deciders.min(run.correct)) * per_process,
    )
}

/// The end-to-end metrics of one execution, except `setup_s`.
fn end_to_end_values(w: &Workload, size: Size, run: &CellRun) -> BTreeMap<&'static str, f64> {
    let (attempted, failed) = operations(w, size, run);
    // A consensus workload's "commands" are its proposals: admitted
    // unconditionally, committed when their process decides.
    let (commits, p50, p99, admitted) = if w.kv {
        (
            run.committed,
            run.commit_p50_ticks,
            run.commit_p99_ticks,
            run.submitted as f64 / (run.submitted + run.shed) as f64,
        )
    } else {
        (run.deciders, run.decision_ticks, run.decision_ticks, 1.0)
    };
    BTreeMap::from([
        ("wall_s", run.wall_s),
        ("events_per_s", run.events_per_s()),
        ("peak_rss_mb", run.peak_rss_kb as f64 / 1024.0),
        ("decision_ticks", run.decision_ticks as f64),
        (
            "msgs_per_decision",
            // `max(1)`: a run nobody decided in fails the gate; it must
            // still print a finite line saying so.
            run.messages_sent as f64 / run.deciders.max(1) as f64,
        ),
        ("decided_share", 1.0 - failed as f64 / attempted as f64),
        ("commit_p50_ticks", p50 as f64),
        ("commit_p99_ticks", p99 as f64),
        (
            "commits_per_kilotick",
            commits as f64 * 1_000.0 / run.end_ticks as f64,
        ),
        ("commits_per_wall_s", commits as f64 / run.wall_s),
        ("admitted_share", admitted),
    ])
}

/// The correctness gate on one execution; `first` is the run's first
/// repeat, which every later one must reproduce.
fn gate(w: &Workload, size: Size, run: &CellRun, first: &CellRun, problems: &mut Vec<String>) {
    let mut check = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    check(run.agreement, "two processes decided differently".into());
    check(
        run.deciders == run.correct,
        format!(
            "{} of {} correct processes decided",
            run.deciders, run.correct
        ),
    );
    check(
        run.latency_samples == run.committed,
        format!(
            "{} latency samples for {} commits",
            run.latency_samples, run.committed
        ),
    );
    let engine = if w.parallel { "par=2" } else { "event" };
    check(
        run.engine_used == engine,
        format!("ran on engine {:?}, not {engine:?}", run.engine_used),
    );
    check(
        run.trace_hash == first.trace_hash,
        format!(
            "trace hash {:016x} differs from the first repeat's {:016x}",
            run.trace_hash, first.trace_hash
        ),
    );
    let exact = |r: &CellRun| -> Vec<f64> {
        let values = end_to_end_values(w, size, r);
        let exact = END_TO_END.iter().filter(|d| d.exact);
        exact.map(|d| values[d.name]).collect()
    };
    check(
        exact(run) == exact(first),
        "a simulated statistic differs between repeats of one seed".into(),
    );
}

/// The end-to-end pass: set-up children, then fresh-process repeats of
/// the cell until `seconds` are used up.
fn end_to_end_pass(w: &Workload, size: Size, seed: u64, seconds: f64) -> Result<Pass, String> {
    let mut problems = Vec::new();
    let setups = (0..SETUP_REPEATS)
        .map(|_| child::spawn_setup(w.name, size, seed))
        .collect::<Result<Vec<f64>, String>>()?;

    let window = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    // The sequential run the parallel engine must reproduce; inside the
    // window, so the pass still ends on time.
    let reference = match w.parallel {
        true => Some(child::spawn_run("kv-serve", size, seed)?),
        false => None,
    };
    let mut runs: Vec<CellRun> = Vec::new();
    loop {
        let repeat = Instant::now();
        runs.push(child::spawn_run(w.name, size, seed)?);
        // Stop when another repeat like the last would overrun.
        if runs.len() >= MIN_REPEATS && started.elapsed() + repeat.elapsed() > window {
            break;
        }
    }

    if let Some(reference) = reference.filter(|r| r.trace_hash != runs[0].trace_hash) {
        problems.push(format!(
            "trace hash {:016x} differs from kv-serve's {:016x}",
            runs[0].trace_hash, reference.trace_hash
        ));
    }
    let (mut attempted, mut failed) = (0, 0);
    let mut columns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for run in &runs {
        let before = problems.len();
        gate(w, size, run, &runs[0], &mut problems);
        let (a, f) = operations(w, size, run);
        attempted += a;
        // An execution that fails the gate is a failed run, not a fast one.
        failed += if problems.len() > before { a } else { f };
        for (name, v) in end_to_end_values(w, size, run) {
            columns.entry(name).or_default().push(v);
        }
    }
    columns.insert("setup_s", setups);
    problems.dedup();
    Ok(Pass {
        traced: false,
        summaries: END_TO_END
            .iter()
            .map(|d| (d, summarize(&columns[d.name])))
            .collect(),
        attempted,
        failed,
        problems,
        fingerprint: format!(
            "trace_hash {:016x} events {} engine {} seed {seed}",
            runs[0].trace_hash, runs[0].events, runs[0].engine_used
        ),
    })
}

/// The traced pass, repeated while `seconds` allow; each per-layer
/// metric is the median over the passes.
fn traced_passes(
    w: &Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    spans_file: Option<&str>,
) -> Result<Pass, String> {
    let window = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut columns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut passes = 0u64;
    let spans = loop {
        let pass = Instant::now();
        let traced = traced::traced_pass(w, size, seed)?;
        passes += 1;
        for (name, v) in traced.metrics {
            columns.entry(name).or_default().push(v);
        }
        if started.elapsed() + pass.elapsed() > window {
            break traced.spans;
        }
    };
    if let (Some(path), Some(spans)) = (spans_file, spans) {
        // Spans stay in memory until the end; the file holds the last pass's.
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        spans
            .write_to(&mut out)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(Pass {
        traced: true,
        summaries: PER_LAYER
            .iter()
            .map(|d| (d, summarize(&columns[d.name])))
            .collect(),
        // A traced pass either reproduces the run or fails outright.
        attempted: passes,
        failed: 0,
        problems: Vec::new(),
        fingerprint: format!("{} cell, seed {seed}", size.name()),
    })
}

/// Runs the selected workloads and passes; returns them with whether
/// every output was correct.
fn run_set(o: &Options) -> (Vec<(&'static Workload, Vec<Pass>)>, bool) {
    let (full, trace) = o.sizes();
    let mut ok = true;
    let mut set = Vec::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| o.workload.is_none_or(|only| only.name == w.name))
    {
        if w.parallel && default_workers() < 2 {
            // Never silently measured on the sequential fallback.
            println!(
                "\n== {} · skipped: needs 2 cores, {} available",
                w.name,
                default_workers()
            );
            ok &= o.workload.is_none();
            continue;
        }
        let mut passes = Vec::new();
        for traced in [false, true] {
            if o.trace.is_some_and(|only| only != traced) {
                continue;
            }
            let pass = if traced {
                traced_passes(w, trace, o.seed, o.seconds(), o.spans.as_deref())
            } else {
                end_to_end_pass(w, full, o.seed, o.seconds())
            };
            match pass {
                Ok(pass) => {
                    pass.print(w);
                    ok &= pass.correct();
                    passes.push(pass);
                }
                Err(e) => {
                    println!("\n== {} · FAILED: {e}", w.name);
                    ok = false;
                }
            }
        }
        set.push((w, passes));
    }
    (set, ok)
}

/// `--check-repeat`: two sets of the same code must agree — wall-clock
/// medians within their bound, simulated statistics exactly.
fn sets_agree(
    first: &[(&'static Workload, Vec<Pass>)],
    second: &[(&'static Workload, Vec<Pass>)],
) -> bool {
    let mut agree = true;
    println!("\n== repeatability: second set against the first");
    for ((w, a), (_, b)) in first.iter().zip(second) {
        for (pa, pb) in a.iter().zip(b).filter(|(pa, _)| !pa.traced) {
            for (d, s) in &pa.summaries {
                let again = pb.summary(d.name);
                let (x, y) = (s.median, again.median);
                let moved = (y - x).abs() / x.abs();
                let within = if d.exact { x == y } else { moved <= d.bound };
                agree &= within;
                println!(
                    "{:<20} {:<22} {:>14.6} → {:>14.6}  moved {:>6.2}%  spread {:>5.2}% / {:>5.2}%  {}",
                    w.name,
                    d.name,
                    x,
                    y,
                    moved * 100.0,
                    s.spread() * 100.0,
                    again.spread() * 100.0,
                    match (within, d.exact) {
                        (true, _) => "ok",
                        (false, true) => "DIFFERS (must be identical)",
                        (false, false) => "DIFFERS by more than its bound",
                    }
                );
            }
        }
    }
    agree
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and configuration the numbers belong to.
fn fingerprint(o: &Options) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let str = |s: String| Value::Str(s);
    Value::Map(vec![
        (
            "cores_available".to_string(),
            Value::U64(default_workers() as u64),
        ),
        ("cpu_model".to_string(), str(cpu)),
        ("rustc".to_string(), str(command_line("rustc", &["-V"]))),
        (
            "git_commit".to_string(),
            str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".to_string(), Value::U64(o.seed)),
        ("seconds_per_pass".to_string(), Value::F64(o.seconds())),
        (
            "setup_repeats".to_string(),
            Value::U64(SETUP_REPEATS as u64),
        ),
        (
            "cells".to_string(),
            str(if o.quick { "quick" } else { "full" }.to_string()),
        ),
    ])
}

/// The `--json FILE` document: fingerprint, metric definitions, and per
/// workload its network and cost model and every summary.
fn report(o: &Options, set: &[(&'static Workload, Vec<Pass>)]) -> Value {
    let str = |s: &str| Value::Str(s.to_string());
    let defs = |table: &[MetricDef], bounded: bool| {
        Value::Seq(
            table
                .iter()
                .map(|d| {
                    let mut entry = vec![
                        ("name".to_string(), str(d.name)),
                        ("unit".to_string(), str(d.unit)),
                        ("better".to_string(), str(d.better.name())),
                        ("what".to_string(), str(d.what)),
                    ];
                    if bounded {
                        entry.push(("bound".to_string(), Value::F64(d.bound)));
                        entry.push(("exact".to_string(), Value::Bool(d.exact)));
                    }
                    Value::Map(entry)
                })
                .collect(),
        )
    };
    let workloads = set
        .iter()
        .map(|(w, passes)| {
            let scenario = cells::scenario(w.name, o.sizes().0, o.seed);
            let mut entry = vec![
                ("name".to_string(), str(w.name)),
                ("why".to_string(), str(w.why)),
                ("n".to_string(), Value::U64(scenario.partition.n() as u64)),
                (
                    "network".to_string(),
                    serde::Serialize::to_value(&scenario.network),
                ),
                (
                    "costs".to_string(),
                    serde::Serialize::to_value(&scenario.costs),
                ),
            ];
            for pass in passes {
                let rows = pass
                    .summaries
                    .iter()
                    .map(|(d, s)| {
                        let row = vec![
                            ("median".to_string(), Value::F64(s.median)),
                            ("q1".to_string(), Value::F64(s.q1)),
                            ("q3".to_string(), Value::F64(s.q3)),
                            ("n".to_string(), Value::U64(s.n as u64)),
                            ("unit".to_string(), str(d.unit)),
                        ];
                        (d.name.to_string(), Value::Map(row))
                    })
                    .collect();
                let key = if pass.traced {
                    "per_layer"
                } else {
                    "end_to_end"
                };
                entry.push((key.to_string(), Value::Map(rows)));
                entry.push((format!("{key}_fingerprint"), str(&pass.fingerprint)));
            }
            Value::Map(entry)
        })
        .collect();
    Value::Map(vec![
        ("fingerprint".to_string(), fingerprint(o)),
        ("end_to_end_metrics".to_string(), defs(&END_TO_END, true)),
        ("per_layer_metrics".to_string(), defs(&PER_LAYER, false)),
        ("workloads".to_string(), Value::Seq(workloads)),
    ])
}

fn main() -> ExitCode {
    let o = match Options::parse(std::env::args()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let (Some((task, size)), Some(w)) = (o.child, o.workload) {
        child::child_main(task, w.name, size, o.seed);
        return ExitCode::SUCCESS;
    }
    let (set, mut ok) = run_set(&o);
    if o.check_repeat {
        let (second, second_ok) = run_set(&o);
        ok &= second_ok && sets_agree(&set, &second);
    }
    if let Some(path) = &o.json {
        let doc = serde_json::to_string(&report(&o, &set)).expect("report is finite");
        if let Err(e) = std::fs::write(path, doc + "\n") {
            eprintln!("benchmark: {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofa_scenario::Backend;

    fn quick_run(name: &str) -> (&'static Workload, CellRun) {
        let w = cells::workload(name).unwrap();
        let out = ofa_sim::Sim.run(&cells::scenario(name, Size::Quick, 5));
        (w, CellRun::from_outcome(&out))
    }

    #[test]
    fn every_workload_passes_its_gate_and_reports_no_zero() {
        ofa_sim::override_available_cores(2);
        for w in &WORKLOADS {
            let (w, run) = quick_run(w.name);
            let mut problems = Vec::new();
            gate(w, Size::Quick, &run, &run, &mut problems);
            assert_eq!(problems, Vec::<String>::new(), "{}", w.name);
            assert_eq!(operations(w, Size::Quick, &run).1, 0, "{}", w.name);
            let values = end_to_end_values(w, Size::Quick, &run);
            for d in END_TO_END.iter().filter(|d| d.name != "setup_s") {
                assert!(values[d.name] > 0.0, "{}: {} is zero", w.name, d.name);
            }
        }
        // The parallel workload reproduces the sequential one's hash.
        assert_eq!(
            quick_run("kv-serve-par2").1.trace_hash,
            quick_run("kv-serve").1.trace_hash
        );
    }

    #[test]
    fn the_gate_catches_what_it_is_there_for() {
        let (w, good) = quick_run("kv-serve");
        let mut bad = good.clone();
        bad.deciders -= 1;
        bad.trace_hash ^= 1;
        bad.latency_samples += 1;
        bad.engine_used = "threads".to_string();
        let mut problems = Vec::new();
        gate(w, Size::Quick, &bad, &good, &mut problems);
        assert_eq!(problems.len(), 5, "{problems:?}");
        assert!(operations(w, Size::Quick, &bad).1 > 0);
    }

    #[test]
    fn result_line_and_child_record_parse_back() {
        let (w, run) = quick_run("consensus-split");
        let text = serde_json::to_string(&run).unwrap();
        let back: CellRun = serde_json::from_str(&text).unwrap();
        assert_eq!(back, run);

        let values = end_to_end_values(w, Size::Quick, &run);
        let pass = Pass {
            traced: false,
            summaries: END_TO_END
                .iter()
                .map(|d| (d, summarize(&[values.get(d.name).copied().unwrap_or(0.25)])))
                .collect(),
            attempted: 60,
            failed: 0,
            problems: Vec::new(),
            fingerprint: String::new(),
        };
        let line: Value = serde_json::from_str(&pass.json_line()).unwrap();
        let Value::Map(keys) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let metrics = line.get("metrics").unwrap();
        for d in &END_TO_END {
            let m = metrics
                .get(d.name)
                .unwrap_or_else(|| panic!("{} missing", d.name));
            assert_eq!(m.get("unit"), Some(&Value::Str(d.unit.to_string())));
            assert!(matches!(m.get("value"), Some(Value::F64(_))));
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it in step with
    /// the tables the binary reports from.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(dir.pop(), "no BENCHMARK.json above the manifest");
        };
        let doc: Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            let Some(Value::Seq(items)) = doc.get(key) else {
                panic!("{key} missing")
            };
            items
                .iter()
                .map(|i| match i.get(field) {
                    Some(Value::Str(s)) => s.clone(),
                    Some(Value::F64(x)) => x.to_string(),
                    other => panic!("{key}.{field}: {other:?}"),
                })
                .collect()
        };
        let table =
            |t: &[MetricDef], f: fn(&MetricDef) -> String| t.iter().map(f).collect::<Vec<_>>();
        assert_eq!(
            names("workloads", "name"),
            WORKLOADS.map(|w| w.name.to_string())
        );
        assert_eq!(
            names("workloads", "why"),
            WORKLOADS.map(|w| w.why.to_string())
        );
        for (key, t) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            assert_eq!(
                names(key, "name"),
                table(t, |d| d.name.to_string()),
                "{key}"
            );
            assert_eq!(
                names(key, "unit"),
                table(t, |d| d.unit.to_string()),
                "{key}"
            );
            assert_eq!(
                names(key, "better"),
                table(t, |d| d.better.name().to_string()),
                "{key}"
            );
        }
        assert_eq!(
            names("end_to_end", "bound"),
            table(&END_TO_END, |d| d.bound.to_string())
        );
        assert_eq!(
            doc.get("run_seconds"),
            Some(&Value::U64(DEFAULT_SECONDS as u64))
        );
    }
}
