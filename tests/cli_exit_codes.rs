//! `ofa`'s run path never ends ambiguously: a finished run exits 0 only
//! when every correct process decided, and exit code 4 comes with one
//! stderr line naming the cause the outcome shows — in the human report
//! and under `--json` alike. An invalid scenario — from the flags or
//! inside a snapshot `--resume` cannot use — exits 2 with one `error:`
//! line, never a panic, and so does nothing about a closed stdout.

use ofa_core::Algorithm;
use ofa_scenario::{
    Body, DelayModel, LatencyDist, LinkClasses, NetworkModel, SmrWorkload, Snapshot, VirtualTime,
};
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

fn move_the_cut(snap: &mut Snapshot) {
    snap.at = VirtualTime::from_ticks(snap.at.ticks() + 1);
}

fn replace_a_machine(snap: &mut Snapshot) {
    let machines = engine_entries(snap)
        .iter_mut()
        .find_map(|(name, v)| match v {
            Value::Seq(machines) if name == "machines" => Some(machines),
            _ => None,
        })
        .expect("the engine state lists its machines");
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
    let corruptions: [(&str, Corruption); 8] = [
        ("missing field", drop_a_field),
        ("cut time off by one", move_the_cut),
        ("bogus machine", replace_a_machine),
        ("wrong version", bump_the_version),
        ("missing proposal", drop_a_proposal),
        ("inverted latency bounds", invert_a_latency_bound),
        ("inverted flat delay bounds", invert_the_flat_delay_bounds),
        ("zero log slots", zero_the_slots),
    ];
    for (what, corrupt) in corruptions {
        let mut snap: Snapshot = serde_json::from_str(&text).expect("the snapshot decodes");
        corrupt(&mut snap);
        let file = path(&format!("{}.snap.json", what.replace(' ', "-")));
        let json = serde_json::to_string(&snap).expect("encodes");
        std::fs::write(&file, json).expect("written");
        assert_refused(what, &ofa_with(&["--resume", &file]));
    }
}
