//! `ofa`'s run path never ends ambiguously: a finished run exits 0 only
//! when every correct process decided, and exit code 4 comes with one
//! stderr line naming the cause the outcome shows — in the human report
//! and under `--json` alike.

use std::process::{Command, Output};

fn ofa(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ofa"))
        .args(args.split_whitespace())
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
