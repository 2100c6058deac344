//! Regenerates the E1–E10 tables of the reproduction.
//!
//! ```text
//! cargo run --release -p ofa-bench --bin experiments                  # all
//! cargo run --release -p ofa-bench --bin experiments e4 e7           # subset
//! cargo run --release -p ofa-bench --bin experiments --csv e6        # CSV out
//! cargo run --release -p ofa-bench --bin experiments --quick         # 1 trial/cell
//! ```
//!
//! `--quick` runs each requested experiment with a single trial per
//! cell — the CI bench-smoke uses it to prove the harness end-to-end in
//! seconds. How fast the system is, is the `benchmark` binary's
//! question, not this one's. An unknown id or flag exits 2.
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

fn main() {
    let mut csv = false;
    let mut markdown = false;
    let mut scale = Scale::Full;
    let mut ids: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--csv" => csv = true,
            "--markdown" => markdown = true,
            "--quick" => scale = Scale::Quick,
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag: {flag} (expected --csv, --markdown, --quick)");
                std::process::exit(2);
            }
            id => ids.push(id.to_string()),
        }
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
}
