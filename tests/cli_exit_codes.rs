//! `ofa`'s run path never ends ambiguously: a finished run exits 0 only
//! when every correct process decided, and exit code 4 comes with one
//! stderr line naming the cause the outcome shows — in the human report
//! and under `--json` alike. An invalid scenario — from the flags or
//! inside a snapshot `--resume` cannot use — exits 2 with one `error:`
//! line, never a panic, and so does nothing about a closed stdout. An
//! `ofa explore` paused on `--wall-secs` exits 3 and resumes to the
//! straight run's log; a stored file it cannot resume exits 2.

use ofa_core::Algorithm;
use ofa_explore::{ExploreConfig, Explorer};
use ofa_scenario::{
    Body, CrashPlan, DelayModel, Engine, LatencyDist, LinkClasses, NetworkModel, Scenario,
    SmrWorkload, Snapshot, VirtualTime,
};
use ofa_topology::{Partition, ProcessId};
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn ofa(args: &str) -> Output {
    ofa_with(&args.split_whitespace().collect::<Vec<_>>())
}

/// `ofa` with each argument as given (a path may hold spaces).
fn ofa_with(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ofa"))
        .args(args)
        .output()
        .expect("the ofa binary runs")
}

/// Exit code, and stderr's lines (the cause is the only one).
fn code_and_stderr(out: &Output) -> (Option<i32>, Vec<String>) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    (
        out.status.code(),
        stderr.lines().map(String::from).collect(),
    )
}

/// A refusal: exit 2, an `error:` line, and no panic.
fn assert_refused(what: &str, out: &Output) {
    let (code, stderr) = code_and_stderr(out);
    assert_eq!(code, Some(2), "{what}: {stderr:?}");
    assert!(
        stderr.iter().any(|line| line.starts_with("error: ")),
        "{what}: {stderr:?}"
    );
    assert!(
        !stderr.iter().any(|line| line.contains("panicked")),
        "{what}: {stderr:?}"
    );
}

#[test]
fn event_budget_exhaustion_exits_4_and_says_so() {
    for json in ["", " --json"] {
        let out = ofa(&format!("--sizes 3x3 --seed 5 --max-events 40{json}"));
        let (code, stderr) = code_and_stderr(&out);
        assert_eq!(code, Some(4), "{json}: {stderr:?}");
        assert_eq!(
            stderr,
            ["error: event budget exhausted after 40 events (raise --max-events)"],
            "{json}"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        if json.is_empty() {
            assert!(stdout.contains("deciders: 0/9"), "{stdout}");
        } else {
            assert!(stdout.contains("\"events_processed\":40"), "{stdout}");
        }
    }
}

#[test]
fn round_budget_exhaustion_exits_4_and_says_so() {
    for json in ["", " --json"] {
        let out = ofa(&format!("--sizes 3x3 --seed 5 --max-rounds 0{json}"));
        let (code, stderr) = code_and_stderr(&out);
        assert_eq!(code, Some(4), "{json}: {stderr:?}");
        assert_eq!(
            stderr,
            ["error: stopped undecided (round budget or stall)"],
            "{json}"
        );
    }
}

#[test]
fn a_run_where_every_correct_process_decides_exits_0() {
    // A crashed process is not a correct one left undecided.
    for args in [
        "--sizes 3x3 --seed 5",
        "--sizes 3x3 --seed 5 --crash p1@3 --json",
    ] {
        let (code, stderr) = code_and_stderr(&ofa(args));
        assert_eq!(code, Some(0), "{args}: {stderr:?}");
        assert!(stderr.is_empty(), "{args}: {stderr:?}");
    }
    assert!(String::from_utf8_lossy(&ofa("--help").stdout).contains("\n    4  run finished"));
}

#[test]
fn an_invalid_scenario_from_the_flags_exits_2_without_panicking() {
    for args in [
        "--crash p99@r1",
        "--serve poisson:0",
        "--serve periodic:0",
        "--serve poisson:10 --queue-cap 0",
        "--serve poisson:10 --batch-max 0",
        "--serve poisson:10 --batch-min 5 --batch-max 2",
        "--churn p1@t100 --crash p1@r1",
        "--serve poisson:10 --slots 0",
    ] {
        let out = ofa(args);
        assert_refused(args, &out);
        assert_eq!(code_and_stderr(&out).1.len(), 1, "{args}: one line");
    }
}

#[test]
fn a_flag_the_run_never_reads_is_refused() {
    for args in [
        "--slots 8",
        "--queue-cap 64",
        "--batch-max 16",
        "--batch-min 0",
        "--clients 4",
        "--checkpoint-every 5000",
        "--checkpoint-at 1500 --checkpoint-every 5000",
        "--checkpoint-file run.snap.json",
        "--resume run.snap.json --checkpoint-file next.snap.json",
        "--trace --runtime",
        "--loss 0 --runtime",
    ] {
        // A usage error: the `error:` line, then the help.
        assert_refused(args, &ofa(args));
    }
}

#[test]
fn help_exits_0_and_lists_each_flag_once() {
    for args in ["--help", "-h", "explore --help", "explore -h"] {
        let out = ofa(args);
        assert_eq!(out.status.code(), Some(0), "{args}");
        let help = String::from_utf8_lossy(&out.stdout);
        let mut names: Vec<&str> = help
            .lines()
            .filter_map(|line| line.strip_prefix("    --"))
            .map(|rest| rest.split(' ').next().unwrap_or(rest))
            .collect();
        let listed = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), listed, "{args}: a flag listed twice");
        assert!(listed > 10, "{args}: {help}");
    }
}

#[test]
fn a_closed_stdout_keeps_the_runs_own_exit_code() {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_ofa"))
        .args(["--sizes", "3x3", "--seed", "5", "--max-events", "40"])
        .stdout(Stdio::from(writer))
        .output()
        .expect("the ofa binary runs");
    let (code, stderr) = code_and_stderr(&out);
    assert_eq!(code, Some(4), "{stderr:?}");
    assert_eq!(
        stderr,
        ["error: event budget exhausted after 40 events (raise --max-events)"]
    );
}

#[test]
fn a_paused_explore_resumes_to_the_straight_runs_log() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_explore_resume");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let path = |name: &str| dir.join(name).to_str().expect("a UTF-8 path").to_string();
    let (straight, paused, resumed, state) = (
        path("straight.log"),
        path("paused.log"),
        path("resumed.log"),
        path("search.state.json"),
    );
    // A state file left by an earlier run would be resumed, not started.
    let _ = std::fs::remove_file(&state);
    let base = "explore --sizes 3x3 --population 2 --generations 2 --seed 4";
    let explore = |extra: &[&str]| {
        let mut args: Vec<&str> = base.split_whitespace().collect();
        args.extend_from_slice(extra);
        let out = ofa_with(&args);
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (code, stderr) = explore(&["--log", &straight]);
    assert_eq!(code, Some(0), "straight run: {stderr}");
    let (code, stderr) = explore(&["--state", &state, "--wall-secs", "0", "--log", &paused]);
    assert_eq!(code, Some(3), "paused run: {stderr}");
    assert!(
        std::path::Path::new(&state).exists(),
        "the pause wrote its state"
    );
    // The state belongs to seed 4: resuming it under another seed is
    // refused, and the file is left for the matching resume.
    let (code, stderr) = explore(&["--state", &state, "--seed", "2"]);
    assert_eq!(code, Some(2), "resumed under another seed: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "error: resuming search state {state}: it belongs to explorer seed 4, not 2"
        )),
        "{stderr}"
    );
    let (code, stderr) = explore(&["--state", &state, "--log", &resumed]);
    assert_eq!(code, Some(0), "resumed run: {stderr}");
    let read = |p: &str| std::fs::read(p).expect("the log was written");
    assert!(
        !read(&straight).is_empty(),
        "the search logged its generations"
    );
    assert_eq!(read(&straight), read(&resumed), "resume changed the log");
}

#[test]
fn a_stored_file_that_cannot_resume_exits_2_without_panicking() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_stored_files");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let path = |name: &str| dir.join(name).to_str().expect("a UTF-8 path").to_string();
    // A search state whose best schedule crashes a process outside n.
    let mut explorer = Explorer::new(ExploreConfig {
        seed: 4,
        population: 2,
        ..ExploreConfig::new(Scenario::new(Partition::even(9, 3), Algorithm::CommonCoin))
    });
    explorer.step();
    let mut state = explorer.state().clone();
    let best = state.best.as_mut().expect("a generation sets the best");
    best.scenario.crashes = CrashPlan::new().crash_at_step(ProcessId(99), 3);
    let invalid = path("invalid-best.state.json");
    let json = serde_json::to_string(&state).expect("encodes");
    std::fs::write(&invalid, json).expect("written");
    let out = ofa_with(&[
        "explore", "--sizes", "3x3", "--seed", "4", "--state", &invalid,
    ]);
    assert_refused("an invalid best schedule", &out);
    assert_eq!(
        code_and_stderr(&out).1,
        [format!(
            "error: resuming search state {invalid}: its best schedule is invalid: \
             crash trigger AtStep(3) names process index 99 but n=9"
        )]
    );
    // A file nested past the decoder's recursion limit.
    let deep = path("deep.json");
    std::fs::write(&deep, "[".repeat(200_000) + &"]".repeat(200_000)).expect("written");
    for args in [
        &["--resume", &deep][..],
        &["explore", "--sizes", "3x3", "--state", &deep],
    ] {
        let out = ofa_with(args);
        assert_refused("deep nesting", &out);
        let (_, stderr) = code_and_stderr(&out);
        assert!(
            stderr[0].contains("serde error: recursion limit exceeded"),
            "{stderr:?}"
        );
    }
}

/// The engine state's entries.
fn engine_entries(snap: &mut Snapshot) -> &mut Vec<(String, Value)> {
    match &mut snap.engine_state {
        Value::Map(entries) => entries,
        other => panic!("engine state is not a map: {other:?}"),
    }
}

fn drop_a_field(snap: &mut Snapshot) {
    engine_entries(snap).retain(|(name, _)| name != "trace_hash");
}

/// One entry of the engine state.
fn engine_field<'a>(snap: &'a mut Snapshot, name: &str) -> &'a mut Value {
    engine_entries(snap)
        .iter_mut()
        .find_map(|(key, v)| (key == name).then_some(v))
        .unwrap_or_else(|| panic!("the engine state has no {name}"))
}

/// Sets `field` of the first pending point-to-point delivery.
fn set_in_first_delivery(snap: &mut Snapshot, field: &str, value: u64) {
    let Value::Seq(events) = engine_field(snap, "events") else {
        panic!("the engine state lists its events");
    };
    let fields = events
        .iter_mut()
        .find_map(|ev| match ev {
            Value::Map(tagged) => match tagged.as_mut_slice() {
                [(tag, Value::Map(fields))] if tag == "One" => Some(fields),
                _ => None,
            },
            _ => None,
        })
        .expect("a pending delivery at the cut");
    let slot = fields
        .iter_mut()
        .find_map(|(key, v)| (key == field).then_some(v))
        .unwrap_or_else(|| panic!("a delivery has no {field}"));
    *slot = Value::U64(value);
}

fn send_to_nobody(snap: &mut Snapshot) {
    let n = snap.scenario.partition.n() as u64;
    set_in_first_delivery(snap, "to", n);
}

fn send_from_nobody(snap: &mut Snapshot) {
    let n = snap.scenario.partition.n() as u64;
    set_in_first_delivery(snap, "from", n);
}

fn deliver_before_the_cut(snap: &mut Snapshot) {
    let early = snap.at.ticks() - 1;
    set_in_first_delivery(snap, "at", early);
}

fn drop_a_cluster_memory(snap: &mut Snapshot) {
    let Value::Seq(memory) = engine_field(snap, "memory") else {
        panic!("the engine state lists its cluster memories");
    };
    memory.pop();
}

fn pick_the_thread_engine(snap: &mut Snapshot) {
    snap.scenario.engine = Engine::Threads;
}

fn keep_the_trace(snap: &mut Snapshot) {
    snap.scenario.keep_trace = true;
}

fn move_the_cut(snap: &mut Snapshot) {
    snap.at = VirtualTime::from_ticks(snap.at.ticks() + 1);
}

fn replace_a_machine(snap: &mut Snapshot) {
    let Value::Seq(machines) = engine_field(snap, "machines") else {
        panic!("the engine state lists its machines");
    };
    let live = machines
        .iter_mut()
        .find(|m| **m != Value::Null)
        .expect("a live machine at the cut");
    *live = Value::Map(vec![("Bogus".to_string(), Value::U64(1))]);
}

fn bump_the_version(snap: &mut Snapshot) {
    snap.version += 1;
}

fn drop_a_proposal(snap: &mut Snapshot) {
    snap.scenario.proposals.pop();
}

/// A replicated log of zero slots would run nothing and report success.
fn zero_the_slots(snap: &mut Snapshot) {
    let n = snap.scenario.partition.n();
    snap.scenario.body = Body::ReplicatedLog(SmrWorkload {
        algorithm: Algorithm::LocalCoin,
        slots: 0,
        queues: vec![Vec::new(); n],
        traffic: None,
    });
}

fn invert_a_latency_bound(snap: &mut Snapshot) {
    snap.scenario.network = NetworkModel::clustered(
        LatencyDist::Uniform { lo: 9, hi: 3 },
        LatencyDist::Constant(5),
    );
}

/// The CLI-default network is flat: swap its uniform delay bounds.
fn invert_the_flat_delay_bounds(snap: &mut Snapshot) {
    match &mut snap.scenario.network.classes {
        LinkClasses::Flat(DelayModel::Uniform { lo, hi }) => std::mem::swap(lo, hi),
        other => panic!("the CLI default is a flat uniform delay: {other:?}"),
    }
}

#[test]
fn a_corrupt_snapshot_exits_2_without_panicking() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_exit_codes");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let path = |name: &str| dir.join(name).to_str().expect("a UTF-8 path").to_string();
    let good = path("good.snap.json");
    let paused = ofa_with(&[
        "--sizes",
        "3,2,2",
        "--checkpoint-at",
        "1500",
        "--checkpoint-file",
        &good,
    ]);
    assert_eq!(paused.status.code(), Some(3), "paused at the cut");
    let text = std::fs::read_to_string(&good).expect("the snapshot was written");
    let resumed = ofa_with(&["--resume", &good]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "the intact snapshot resumes"
    );
    type Corruption = fn(&mut Snapshot);
    // `DECODE`: the snapshot or its engine state does not decode, and
    // the refusal keeps the decoder's text. `REFUSED`: the snapshot decodes
    // but cannot resume, and the refusal is the reason alone.
    const DECODE: bool = false;
    const REFUSED: bool = true;
    let corruptions: [(&str, Corruption, bool); 14] = [
        ("missing field", drop_a_field, DECODE),
        ("cut time off by one", move_the_cut, REFUSED),
        ("bogus machine", replace_a_machine, DECODE),
        ("wrong version", bump_the_version, DECODE),
        ("missing proposal", drop_a_proposal, REFUSED),
        ("inverted latency bounds", invert_a_latency_bound, REFUSED),
        (
            "inverted flat delay bounds",
            invert_the_flat_delay_bounds,
            REFUSED,
        ),
        ("zero log slots", zero_the_slots, REFUSED),
        ("event destination outside n", send_to_nobody, REFUSED),
        ("event sender outside n", send_from_nobody, REFUSED),
        ("event before the cut", deliver_before_the_cut, REFUSED),
        ("a cluster memory short", drop_a_cluster_memory, REFUSED),
        ("thread engine", pick_the_thread_engine, REFUSED),
        ("kept trace", keep_the_trace, REFUSED),
    ];
    let resume = |what: &str, json: &str, refused: bool| {
        let file = path(&format!("{}.snap.json", what.replace(' ', "-")));
        std::fs::write(&file, json).expect("written");
        let out = ofa_with(&["--resume", &file]);
        assert_refused(what, &out);
        let (_, stderr) = code_and_stderr(&out);
        let says_serde = stderr.iter().any(|line| line.contains("serde error"));
        assert_eq!(says_serde, !refused, "{what}: {stderr:?}");
        (file, stderr)
    };
    for (what, corrupt, refused) in corruptions {
        let mut snap: Snapshot = serde_json::from_str(&text).expect("the snapshot decodes");
        corrupt(&mut snap);
        let (file, stderr) = resume(
            what,
            &serde_json::to_string(&snap).expect("encodes"),
            refused,
        );
        if what == "thread engine" {
            assert_eq!(
                stderr,
                [format!(
                    "error: resuming {file}: the thread engine cannot checkpoint; \
                     use an event engine"
                )]
            );
        }
    }
    // A scenario stored before the engine knob existed decodes as
    // `Engine::Threads`, which cannot resume a snapshot.
    let no_engine = text.replace(",\"engine\":\"EventDriven\"", "");
    assert_ne!(no_engine, text, "the snapshot names its engine");
    resume("no engine key", &no_engine, REFUSED);
}
