//! Regenerates every table of EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p ofa-bench --bin experiments                  # all
//! cargo run --release -p ofa-bench --bin experiments e4 e7           # subset
//! cargo run --release -p ofa-bench --bin experiments --csv e6        # CSV out
//! cargo run --release -p ofa-bench --bin experiments --quick         # 1 trial/cell
//! cargo run --release -p ofa-bench --bin experiments explore --quick \
//!     --budget-secs 120 --state-dir .ofa-checkpoints --out BENCH_explore.json
//! ```
//!
//! `--quick` runs each requested experiment with a single trial per
//! cell — the CI bench-smoke uses it to prove the harness end-to-end in
//! seconds. `--out <path>` additionally writes the tables as
//! machine-readable JSON (`{"experiments": [{id, title, columns, rows}]}`)
//! — the CI explore gate archives it as a per-run build artifact. How
//! fast the system is, is the `benchmark` binary's question, not this
//! one's.
//!
//! `--budget-secs <s>` runs the EXPLORE search resumably: the search
//! runs generation by generation, and when the wall-clock budget expires
//! its state is saved under `--state-dir` (default `.ofa-checkpoints`)
//! and the process exits with code **3**. Re-running with the same
//! state dir resumes bit-for-bit; a run that finishes the whole search
//! exits 0 with rows whose deterministic columns equal a monolithic
//! run's.
//!
//! Tables go to stdout through one locked handle; a reader that went
//! away (`experiments | head`) ends the printing, not the run, and the
//! exit status stays the run's own.

use ofa_bench::Scale;
use ofa_metrics::Table;
use std::io::Write;

fn print_tables(tables: &[(String, Table)], banner: bool, csv: bool, markdown: bool) {
    let mut out = std::io::stdout().lock();
    let printed = tables.iter().try_for_each(|(id, table)| {
        if banner {
            writeln!(out, "── {id} ──")?;
        }
        if csv {
            writeln!(out, "{}", table.to_csv())
        } else if markdown {
            writeln!(out, "{}", table.to_markdown())
        } else {
            writeln!(out, "{table}")
        }
    });
    if let Err(e) = printed {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing stdout: {e}");
        }
    }
}

/// Writes the `--out` JSON document. `paused` is present only for
/// resumable runs, recording whether the search stopped at its budget.
fn write_out(path: &str, tables: &[(String, Table)], quick: bool, paused: Option<bool>) {
    let entries: Vec<serde::Value> = tables
        .iter()
        .map(|(id, table)| {
            let mut map = match serde::Serialize::to_value(table) {
                serde::Value::Map(m) => m,
                other => unreachable!("tables serialize as maps, got {other:?}"),
            };
            map.insert(0, ("id".to_string(), serde::Value::Str(id.clone())));
            serde::Value::Map(map)
        })
        .collect();
    let mut doc = vec![
        ("quick".to_string(), serde::Value::Bool(quick)),
        ("experiments".to_string(), serde::Value::Seq(entries)),
    ];
    if let Some(paused) = paused {
        doc.insert(1, ("paused".to_string(), serde::Value::Bool(paused)));
    }
    let json = serde_json::to_string(&serde::Value::Map(doc))
        .expect("tables contain no non-finite floats");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let markdown = args.iter().any(|a| a == "--markdown");
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let mut out_path: Option<String> = None;
    let mut budget_secs: Option<u64> = None;
    let mut state_dir: String = ".ofa-checkpoints".to_string();
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" | "--markdown" | "--quick" => {}
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => out_path = Some(path.clone()),
                    None => {
                        eprintln!("--out requires a file path");
                        std::process::exit(2);
                    }
                }
            }
            "--budget-secs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(secs) => budget_secs = Some(secs),
                    None => {
                        eprintln!("--budget-secs requires a number of seconds");
                        std::process::exit(2);
                    }
                }
            }
            "--state-dir" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => state_dir = dir.clone(),
                    None => {
                        eprintln!("--state-dir requires a directory path");
                        std::process::exit(2);
                    }
                }
            }
            flag if flag.starts_with("--") => {
                eprintln!(
                    "unknown flag: {flag} (expected --csv, --markdown, --quick, --out, \
                     --budget-secs, --state-dir)"
                );
                std::process::exit(2);
            }
            id => ids.push(id.to_string()),
        }
        i += 1;
    }

    if let Some(secs) = budget_secs {
        // Only the EXPLORE search runs resumably: it checkpoints its own
        // search state at generation boundaries.
        if ids.len() != 1 || !ids[0].eq_ignore_ascii_case("explore") {
            eprintln!("--budget-secs supports exactly one experiment: explore");
            std::process::exit(2);
        }
        use ofa_bench::experiments::explore;
        let dir = std::path::PathBuf::from(&state_dir);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
        let params = match scale {
            Scale::Full => &explore::FULL,
            Scale::Quick => &explore::QUICK,
        };
        let (_rows, table, paused) = explore::run_resumable(params, &dir, deadline);
        let tables = vec![("EXPLORE".to_string(), table)];
        print_tables(&tables, false, csv, markdown);
        if let Some(path) = &out_path {
            write_out(path, &tables, scale == Scale::Quick, Some(paused));
        }
        if paused {
            eprintln!(
                "budget of {secs}s expired; checkpoint state saved under {}",
                dir.display()
            );
            std::process::exit(3);
        }
        return;
    }

    let tables: Vec<(String, Table)> = if ids.is_empty() {
        ofa_bench::ALL_IDS
            .iter()
            .map(|id| {
                let t = ofa_bench::run_one_scaled(id, scale)
                    .expect("built-in experiment ids are valid");
                (id.to_string(), t)
            })
            .collect()
    } else {
        let mut out = Vec::new();
        for id in &ids {
            match ofa_bench::run_one_scaled(id, scale) {
                Some(t) => out.push((id.to_ascii_uppercase(), t)),
                None => {
                    eprintln!(
                        "unknown experiment id: {id} (expected one of {})",
                        ofa_bench::ALL_IDS.join(", ").to_ascii_lowercase()
                    );
                    std::process::exit(2);
                }
            }
        }
        out
    };

    print_tables(&tables, ids.is_empty(), csv, markdown);

    if let Some(path) = out_path {
        write_out(&path, &tables, scale == Scale::Quick, None);
    }
}
