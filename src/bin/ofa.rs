//! `ofa` — run one hybrid-model consensus execution from the command line.
//!
//! ```text
//! ofa --sizes 1,4,2 --algorithm cc --ones 3 --seed 42
//! ofa --sizes 3,2,2 --algorithm lc --crash p1@0 --crash p6@12 --trace
//! ofa --sizes 2,2 --crash p3@r2        # crash p3 when it enters round 2
//! ofa --sizes 2,2 --crash p1@t1500     # crash p1 at virtual time 1500
//! ofa --sizes 2,2 --runtime            # real threads instead of the simulator
//! ofa --sizes 1,4,2 --engine threads    # pin the reference thread conductor
//! ofa --sizes 40,40,40 --engine par     # cluster-sharded parallel engine
//! ofa --sizes 100x10 --max-events 10000000   # ten clusters of 100, 10^7-event budget
//! ofa --sizes 10,10,10 --serve poisson:200 --clients 64   # client traffic
//! ofa --sizes 1,4,2 --json             # unified Outcome as JSON
//! ofa --checkpoint-at 5000 --checkpoint-file run.snap.json   # pause, exit 3
//! ofa --resume run.snap.json                                 # continue
//! ofa --resume run.snap.json --diverge-crash p2@t9000        # what-if tail
//! ofa --budget-secs 60 --checkpoint-file run.snap.json  # time-budgeted leg
//! ofa explore --seed 1 --budget-secs 30   # hunt for worst-case schedules
//! ofa --help
//! ```
//!
//! The CLI builds one [`Scenario`] value and executes it on the selected
//! [`Backend`] — the same description runs on either substrate. With the
//! checkpoint flags the run becomes *resumable*: a paused leg writes a
//! [`Snapshot`] JSON file and exits with code 3; `--resume` continues it
//! bit-for-bit (same decisions, counters, end time, and trace hash as a
//! straight-through run), and the `--diverge-*` flags mutate the tail
//! before resuming.
//!
//! A finished run exits 0 only when every correct process decided:
//! 1 reports an agreement violation, 4 a correct process left undecided
//! (with the visible cause — event budget, or round budget / stall — on
//! stderr).

use one_for_all::consensus::{ArrivalProcess, TrafficSpec};
use one_for_all::explore::{
    write_corpus, CorpusFilter, ExploreConfig, Explorer, Fitness, Limits, SearchState,
    EVENTS_PER_SEC,
};
use one_for_all::prelude::*;
use one_for_all::scenario::{BackendKind, DivergeSpec, Snapshot, VirtualTime};
use one_for_all::sim::RunOutcome;
use std::process::exit;
use std::time::{Duration, Instant};

const HELP: &str = "\
ofa — run one hybrid-model consensus execution

USAGE:
    ofa [OPTIONS]

OPTIONS:
    --sizes a,b,c      cluster sizes, e.g. 1,4,2 (default: 1,4,2 = Fig.1 right);
                       MxK stands for K clusters of M processes (100x10 =
                       ten clusters of 100) and mixes with commas: 1,4x2,2
    --algorithm lc|cc  local-coin (Alg 2) or common-coin (Alg 3) [default: cc]
    --ones K           first K processes propose 1, the rest 0 [default: n/2]
    --seed S           randomness seed [default: 0]
    --crash pI@K       crash process I (1-based) at env-call K (repeatable;
                       K=0 crashes before any step)
    --crash pI@rR      crash process I when it enters round R
    --crash pI@tT      crash process I at virtual time T
    --loss P           drop each message with probability P ppm (parts per
                       million, 0..=1000000) — deterministic per (seed,
                       link, message) [default: 0]
    --dup P            duplicate each delivered message with probability P
                       ppm; the copy arrives after an extra link delay
                       [default: 0]
    --churn pI@tT+rR   process I leaves (crashes) at virtual time T and
                       rejoins at virtual time R with a fresh mailbox
                       (repeatable; omit +rR for a leave without rejoin)
    --churn-poisson PPM[:DOWN[:HORIZON]]
                       Poisson churn arrivals: every process not named by
                       --churn/--crash leaves at rate PPM per million
                       ticks and rejoins after an exponential downtime of
                       mean DOWN ticks (0 = leave forever) [default:
                       10000]; first leaves at/after HORIZON ticks are
                       discarded [default: 100000]. Arrivals are a pure
                       PRF of (seed, process) — identical on every
                       engine and across checkpoint resumes
    --max-rounds R     round budget [default: 512]
    --max-events N     simulator event budget: the run stops after N events
                       with whoever has not decided reported as stopped
                       (an all-to-all exchange is n^2 events, so n = 1000
                       needs ~10^7) [default: 5000000]
    --trace            print the full event trace (simulator only)
    --engine E         simulator process engine: event (single-threaded
                       event-driven state machines; scales to n >> 10^4),
                       par or par=N (cluster-sharded parallel event engine
                       on N workers, N omitted = one per core; identical
                       outcomes to event, bit for bit), or threads (the
                       reference conductor — pin this to reproduce
                       pre-flip runs) [default: event]
    --runtime          execute on real threads instead of the simulator
                       (--engine does not apply)
    --json             print the unified Outcome as JSON (suppresses the
                       human-readable report)
    --help             show this message

SERVING TRAFFIC (simulator only; replaces the single-shot consensus body
with a traffic-driven replicated log):
    --serve ARRIVAL    clients submit commands per ARRIVAL, in ticks of
                       virtual time: periodic:P[:PHASE] (one command every
                       P ticks), poisson:MEAN_GAP (exponential gaps),
                       bursty:N:P[:PHASE] (N commands every P ticks), or
                       closed:LO:HI (closed loop — each client waits for
                       its commit, then thinks for LO..=HI ticks). Every
                       arrival is a pure function of (seed, client, k), so
                       any engine and worker count serves the identical
                       workload.
    --clients N        number of clients; client c submits to replica
                       c mod n [default: n]
    --slots N          log slots (consensus instances) to run [default: 8]
    --queue-cap N      bounded proposer queue depth — arrivals that find
                       it full are shed and counted [default: 64]
    --batch-max N      max commands batched into one proposal [default: 16]
    --batch-min N      min queued commands before a non-empty proposal;
                       below it the proposer passes (fill-or-timeout)
                       [default: 0]

CHECKPOINT / RESUME (simulator event engines only):
    --checkpoint-at T     pause at virtual time T: write the snapshot to
                          --checkpoint-file and exit with code 3
    --checkpoint-every T  leg length in virtual-time ticks for budgeted
                          runs [default: 5000]
    --checkpoint-file F   snapshot path [default: ofa.snapshot.json]
    --budget-secs S       wall-clock budget: run legs of --checkpoint-every
                          ticks until the budget expires, then write the
                          snapshot and exit 3; a finished run exits
                          normally. Resuming the snapshot continues the
                          run bit-for-bit.
    --resume F            resume from snapshot F (scenario flags are
                          ignored — the snapshot embeds the scenario;
                          --engine still switches the engine mid-run)
    --diverge-seed S      resume with a different delay seed for the tail
    --diverge-coin C      resume with a different common coin for the
                          tail: seeded|alternating
    --diverge-crash SPEC  add a crash to the tail (repeatable; pI@K,
                          pI@rR, or pI@tT like --crash)

SUBCOMMANDS:
    explore            adversarial schedule search (ofa explore --help)

EXIT CODES:
    0  run finished, agreement holds      2  usage / IO error
    1  run finished, agreement VIOLATED   3  paused at a checkpoint
    4  run finished with a correct process undecided; one stderr line
       names the cause: the event budget ran out (raise --max-events),
       or the processes stopped on their own (round budget or stall)
";

const EXPLORE_HELP: &str = "\
ofa explore — guided search for worst-case schedules

Searches crash plans, churn plans, delay seeds, loss/duplication rates,
and common-coin overrides for the schedules that hurt the most: agreement
violations first, then stuck-but-correct processes, then rounds-to-
decide, then virtual-time stretch. The whole trajectory is a pure
function of --seed: candidates derive from a PRF of (seed, generation,
slot), evaluation results are collected by slot index, and the budget is
counted in simulated events — the same search replays bit-for-bit on any
machine and worker count.

USAGE:
    ofa explore [OPTIONS]

SEARCH:
    --seed S           explorer seed — the whole search replays from it
                       [default: 0]
    --budget-secs B    stop once B x 2,000,000 simulated events are spent
                       (checked at generation boundaries; deterministic,
                       unlike wall clock)
    --generations G    hard cap on generations [default if no budget: 32]
    --population P     candidates per generation [default: 16]
    --workers W        evaluation threads; 0 = one per core [default: 0]

BASE SCHEDULE (the unmutated starting point):
    --sizes a,b,c      cluster sizes; MxK = K clusters of M [default: 1,4,2]
    --algorithm lc|cc  consensus algorithm [default: cc]
    --ones K           first K processes propose 1 [default: n/2]
    --max-rounds R     round budget per run [default: 64]
    --loss P           starting loss rate, ppm [default: 0]
    --dup P            starting duplication rate, ppm [default: 0]

MUTATION LIMITS:
    --max-loss P       cap on mutated loss rates, ppm [default: 50000]
    --max-dup P        cap on mutated duplication rates, ppm [default: 10000]
    --max-poisson P    cap on mutated Poisson churn rates, ppm; 0 disables
                       the operator [default: 2000]
    --horizon T        virtual-time window for mutated crash/churn times
                       [default: 100000]

CORPUS (agreement violations always qualify):
    --min-rounds R     also record schedules reaching round R
    --min-undecided U  also record schedules leaving U correct processes
                       stuck
    --emit-corpus DIR  write qualifying schedules to DIR as JSON entries
                       (schedule + pinned outcome + provenance)

OUTPUT / RESUMABILITY:
    --log FILE         write the search log (one JSON record per
                       generation) — byte-identical across replays
    --state FILE       resumable search state: loaded if present, written
                       on a --wall-secs pause
    --wall-secs S      wall-clock safety stop for CI gates: pause at a
                       generation boundary after S seconds, save --state,
                       exit 3 (the trajectory prefix stays exact)
    --json             print the final summary as JSON

EXIT CODES:
    0  search finished, no violation found   2  usage / IO error
    1  search found an agreement VIOLATION   3  paused on --wall-secs
";

struct Options {
    sizes: Vec<usize>,
    algorithm: Algorithm,
    ones: Option<usize>,
    seed: u64,
    crashes: Vec<(usize, CrashWhen)>,
    loss_ppm: u32,
    dup_ppm: u32,
    churn: Vec<(usize, u64, Option<u64>)>,
    churn_poisson: Option<PoissonChurn>,
    max_rounds: u64,
    max_events: Option<u64>,
    serve: Option<ArrivalProcess>,
    clients: u64,
    slots: u64,
    queue_cap: u32,
    batch_max: u32,
    batch_min: u32,
    trace: bool,
    engine: Option<Engine>,
    runtime: bool,
    json: bool,
    checkpoint_at: Option<u64>,
    checkpoint_every: u64,
    checkpoint_file: String,
    budget_secs: Option<u64>,
    resume: Option<String>,
    diverge_seed: Option<u64>,
    diverge_coin: Option<CoinSpec>,
    diverge_crashes: Vec<(usize, CrashWhen)>,
}

/// A parsed `--crash` / `--diverge-crash` trigger.
enum CrashWhen {
    Step(u64),
    Round(u64),
    Time(u64),
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        sizes: vec![1, 4, 2],
        algorithm: Algorithm::CommonCoin,
        ones: None,
        seed: 0,
        crashes: Vec::new(),
        loss_ppm: 0,
        dup_ppm: 0,
        churn: Vec::new(),
        churn_poisson: None,
        max_rounds: 512,
        max_events: None,
        serve: None,
        clients: 0,
        slots: 8,
        queue_cap: 64,
        batch_max: 16,
        batch_min: 0,
        trace: false,
        engine: None,
        runtime: false,
        json: false,
        checkpoint_at: None,
        checkpoint_every: 5_000,
        checkpoint_file: "ofa.snapshot.json".to_string(),
        budget_secs: None,
        resume: None,
        diverge_seed: None,
        diverge_coin: None,
        diverge_crashes: Vec::new(),
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                print!("{HELP}");
                exit(0);
            }
            "--sizes" => opts.sizes = parse_sizes(&value(&mut i)?)?,
            "--algorithm" => {
                opts.algorithm = match value(&mut i)?.as_str() {
                    "lc" | "local" => Algorithm::LocalCoin,
                    "cc" | "common" => Algorithm::CommonCoin,
                    other => return Err(format!("unknown algorithm {other:?} (use lc|cc)")),
                };
            }
            "--ones" => {
                opts.ones = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?,
                )
            }
            "--seed" => {
                opts.seed = value(&mut i)?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--max-rounds" => {
                opts.max_rounds = value(&mut i)?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--max-events" => {
                let raw = value(&mut i)?;
                opts.max_events = Some(
                    raw.parse()
                        .map_err(|e| format!("bad --max-events {raw:?}: {e}"))?,
                );
            }
            "--crash" => {
                let spec = value(&mut i)?;
                opts.crashes.push(parse_crash(&spec)?);
            }
            "--loss" => {
                opts.loss_ppm = parse_ppm(&value(&mut i)?, "--loss")?;
            }
            "--dup" => {
                opts.dup_ppm = parse_ppm(&value(&mut i)?, "--dup")?;
            }
            "--churn" => {
                let spec = value(&mut i)?;
                opts.churn.push(parse_churn(&spec)?);
            }
            "--churn-poisson" => {
                opts.churn_poisson = Some(parse_churn_poisson(&value(&mut i)?)?);
            }
            "--serve" => {
                opts.serve = Some(parse_arrival(&value(&mut i)?)?);
            }
            "--clients" => {
                opts.clients = value(&mut i)?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--slots" => {
                opts.slots = value(&mut i)?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--queue-cap" => {
                opts.queue_cap = value(&mut i)?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--batch-max" => {
                opts.batch_max = value(&mut i)?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--batch-min" => {
                opts.batch_min = value(&mut i)?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?
            }
            "--trace" => opts.trace = true,
            "--engine" => {
                opts.engine = Some(match value(&mut i)?.as_str() {
                    "threads" => Engine::Threads,
                    "event" | "event-driven" => Engine::EventDriven,
                    "par" | "parallel" => Engine::parallel(),
                    spec if spec.starts_with("par=") => {
                        let workers = spec["par=".len()..]
                            .parse::<u64>()
                            .map_err(|e| format!("bad worker count in {spec:?}: {e}"))?;
                        Engine::ParallelEvent { workers }
                    }
                    other => {
                        return Err(format!(
                            "unknown engine {other:?} (use threads|event|par|par=N)"
                        ))
                    }
                });
            }
            "--runtime" => opts.runtime = true,
            "--json" => opts.json = true,
            "--checkpoint-at" => {
                opts.checkpoint_at = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?,
                )
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = value(&mut i)?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?;
                if opts.checkpoint_every == 0 {
                    return Err("--checkpoint-every must be positive".into());
                }
            }
            "--checkpoint-file" => opts.checkpoint_file = value(&mut i)?,
            "--budget-secs" => {
                opts.budget_secs = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?,
                )
            }
            "--resume" => opts.resume = Some(value(&mut i)?),
            "--diverge-seed" => {
                opts.diverge_seed = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?,
                )
            }
            "--diverge-coin" => {
                opts.diverge_coin = Some(match value(&mut i)?.as_str() {
                    "seeded" => CoinSpec::Seeded,
                    "alternating" => CoinSpec::Alternating,
                    other => {
                        return Err(format!("unknown coin {other:?} (use seeded|alternating)"))
                    }
                });
            }
            "--diverge-crash" => {
                let spec = value(&mut i)?;
                opts.diverge_crashes.push(parse_crash(&spec)?);
            }
            other => return Err(format!("unknown option {other:?} (try --help)")),
        }
        i += 1;
    }
    let checkpointing = opts.checkpoint_at.is_some() || opts.budget_secs.is_some();
    if (checkpointing || opts.resume.is_some()) && opts.runtime {
        return Err("checkpoint/resume runs on the simulator, not --runtime".into());
    }
    if opts.runtime
        && (opts.loss_ppm > 0
            || opts.dup_ppm > 0
            || !opts.churn.is_empty()
            || opts.churn_poisson.is_some())
    {
        return Err("--loss/--dup/--churn model the simulated network, not --runtime".into());
    }
    if opts.serve.is_some() && opts.runtime {
        return Err("--serve needs the simulator's virtual clock, not --runtime".into());
    }
    if opts.max_events.is_some() && opts.runtime {
        return Err("--max-events budgets simulator events, not --runtime".into());
    }
    if opts.serve.is_none()
        && (opts.clients > 0
            || opts.slots != 8
            || opts.queue_cap != 64
            || opts.batch_max != 16
            || opts.batch_min != 0)
    {
        return Err("--clients/--slots/--queue-cap/--batch-* require --serve".into());
    }
    if (checkpointing || opts.resume.is_some()) && opts.trace {
        return Err("checkpointing cannot retain an ordered trace (drop --trace)".into());
    }
    if checkpointing && matches!(opts.engine, Some(Engine::Threads)) {
        return Err("the thread engine cannot checkpoint; use --engine event or par".into());
    }
    let diverging = opts.diverge_seed.is_some()
        || opts.diverge_coin.is_some()
        || !opts.diverge_crashes.is_empty();
    if diverging && opts.resume.is_none() {
        return Err("--diverge-* flags require --resume".into());
    }
    Ok(opts)
}

/// Parses a `--sizes` list: comma-separated cluster sizes, where `MxK`
/// stands for `K` clusters of `M` processes (`1,4x2,2` = `1,4,4,2`).
fn parse_sizes(raw: &str) -> Result<Vec<usize>, String> {
    /// Far beyond any runnable system; keeps `1x99999999999` from
    /// allocating before the partition is even built.
    const MAX_CLUSTERS: usize = 1 << 20;
    let num = |s: &str| {
        s.trim()
            .parse::<usize>()
            .map_err(|e| format!("bad --sizes entry {s:?}: {e}"))
    };
    let mut sizes = Vec::new();
    for entry in raw.split(',') {
        let (size, count) = match entry.split_once('x') {
            Some((size, count)) => (num(size)?, num(count)?),
            None => (num(entry)?, 1),
        };
        if count > MAX_CLUSTERS - sizes.len() {
            return Err(format!(
                "--sizes {raw:?}: more than {MAX_CLUSTERS} clusters"
            ));
        }
        sizes.extend(std::iter::repeat_n(size, count));
    }
    Ok(sizes)
}

/// Parses `pI@K` (step trigger), `pI@rR` (round trigger), or `pI@tT`
/// (virtual-time trigger) into a 0-based process index plus trigger.
fn parse_crash(spec: &str) -> Result<(usize, CrashWhen), String> {
    let (proc_part, when_part) = spec
        .split_once('@')
        .ok_or_else(|| format!("bad crash spec {spec:?}, expected pI@K, pI@rR, or pI@tT"))?;
    let pid: usize = proc_part
        .trim_start_matches('p')
        .parse()
        .map_err(|e: std::num::ParseIntError| e.to_string())?;
    if pid == 0 {
        return Err("process numbering is 1-based".into());
    }
    let when = if let Some(round_part) = when_part.strip_prefix('r') {
        let round: u64 = round_part
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())?;
        CrashWhen::Round(round)
    } else if let Some(time_part) = when_part.strip_prefix('t') {
        let at: u64 = time_part
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())?;
        CrashWhen::Time(at)
    } else {
        let step: u64 = when_part
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string())?;
        CrashWhen::Step(step)
    };
    Ok((pid - 1, when))
}

/// Parses a `--serve` arrival spec: `periodic:P[:PHASE]`,
/// `poisson:MEAN_GAP`, `bursty:N:P[:PHASE]`, or `closed:LO:HI`.
fn parse_arrival(spec: &str) -> Result<ArrivalProcess, String> {
    let num = |s: &str| {
        s.parse::<u64>()
            .map_err(|e| format!("bad number {s:?} in --serve {spec:?}: {e}"))
    };
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["periodic", p] => Ok(ArrivalProcess::Periodic {
            period: num(p)?,
            phase: 0,
        }),
        ["periodic", p, ph] => Ok(ArrivalProcess::Periodic {
            period: num(p)?,
            phase: num(ph)?,
        }),
        ["poisson", gap] => Ok(ArrivalProcess::Poisson {
            mean_gap: num(gap)?,
        }),
        ["bursty", b, p] => Ok(ArrivalProcess::Bursty {
            burst: num(b)?,
            period: num(p)?,
            phase: 0,
        }),
        ["bursty", b, p, ph] => Ok(ArrivalProcess::Bursty {
            burst: num(b)?,
            period: num(p)?,
            phase: num(ph)?,
        }),
        ["closed", lo, hi] => Ok(ArrivalProcess::ClosedLoop {
            think_lo: num(lo)?,
            think_hi: num(hi)?,
        }),
        _ => Err(format!(
            "bad --serve spec {spec:?} (use periodic:P[:PHASE], poisson:MEAN_GAP, \
             bursty:N:P[:PHASE], or closed:LO:HI)"
        )),
    }
}

/// Parses a parts-per-million rate (`0..=1_000_000`).
fn parse_ppm(raw: &str, flag: &str) -> Result<u32, String> {
    let ppm: u32 = raw
        .parse()
        .map_err(|e: std::num::ParseIntError| format!("bad {flag} value {raw:?}: {e}"))?;
    if ppm > 1_000_000 {
        return Err(format!("{flag} is parts per million (max 1000000)"));
    }
    Ok(ppm)
}

/// Parses `pI@tT+rR` (leave at time T, rejoin at time R) or `pI@tT`
/// (leave only) into a 0-based process index plus tick times.
fn parse_churn(spec: &str) -> Result<(usize, u64, Option<u64>), String> {
    let bad = || format!("bad churn spec {spec:?}, expected pI@tT+rR or pI@tT");
    let (proc_part, when_part) = spec.split_once('@').ok_or_else(bad)?;
    let pid: usize = proc_part
        .trim_start_matches('p')
        .parse()
        .map_err(|e: std::num::ParseIntError| e.to_string())?;
    if pid == 0 {
        return Err("process numbering is 1-based".into());
    }
    let when_part = when_part.strip_prefix('t').ok_or_else(bad)?;
    let (leave_part, rejoin_part) = match when_part.split_once('+') {
        Some((l, r)) => (l, Some(r.strip_prefix('r').ok_or_else(bad)?)),
        None => (when_part, None),
    };
    let leave: u64 = leave_part
        .parse()
        .map_err(|e: std::num::ParseIntError| e.to_string())?;
    let rejoin = rejoin_part
        .map(|r| r.parse::<u64>().map_err(|e| e.to_string()))
        .transpose()?;
    if let Some(r) = rejoin {
        if r <= leave {
            return Err(format!(
                "churn rejoin time {r} must be after leave time {leave}"
            ));
        }
    }
    Ok((pid - 1, leave, rejoin))
}

/// Parses a `--churn-poisson` spec: `PPM[:DOWN[:HORIZON]]`.
fn parse_churn_poisson(spec: &str) -> Result<PoissonChurn, String> {
    let num = |s: &str| {
        s.parse::<u64>()
            .map_err(|e| format!("bad number {s:?} in --churn-poisson {spec:?}: {e}"))
    };
    let parts: Vec<&str> = spec.split(':').collect();
    let (rate, down, horizon) = match parts.as_slice() {
        [rate] => (rate, None, None),
        [rate, down] => (rate, Some(down), None),
        [rate, down, horizon] => (rate, Some(down), Some(horizon)),
        _ => {
            return Err(format!(
                "bad --churn-poisson spec {spec:?} (use PPM[:DOWN[:HORIZON]])"
            ))
        }
    };
    let rate_ppm = parse_ppm(rate, "--churn-poisson")?;
    Ok(PoissonChurn {
        rate_ppm,
        mean_down_ticks: down
            .map(|s| num(s))
            .transpose()?
            .unwrap_or(PoissonChurn::DEFAULT_MEAN_DOWN),
        horizon_ticks: horizon
            .map(|s| num(s))
            .transpose()?
            .unwrap_or(PoissonChurn::DEFAULT_HORIZON),
    })
}

fn build_churn(entries: &[(usize, u64, Option<u64>)], poisson: Option<PoissonChurn>) -> ChurnPlan {
    let mut plan = ChurnPlan::new();
    for &(p, leave, rejoin) in entries {
        let leave = VirtualTime::from_ticks(leave);
        plan = match rejoin {
            Some(r) => plan.leave_rejoin(ProcessId(p), leave, VirtualTime::from_ticks(r)),
            None => plan.leave(ProcessId(p), leave),
        };
    }
    match poisson {
        Some(spec) => plan.poisson_spec(spec),
        None => plan,
    }
}

fn build_plan(entries: &[(usize, CrashWhen)]) -> CrashPlan {
    let mut plan = CrashPlan::new();
    for (p, when) in entries {
        plan = match when {
            CrashWhen::Step(k) => plan.crash_at_step(ProcessId(*p), *k),
            CrashWhen::Round(r) => plan.crash_at_round(ProcessId(*p), *r),
            CrashWhen::Time(t) => plan.crash_at_time(ProcessId(*p), VirtualTime::from_ticks(*t)),
        };
    }
    plan
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "explore") {
        explore_main(&args[1..]);
        return;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            exit(2);
        }
    };

    if let Some(path) = &opts.resume {
        run_resumed(&opts, path);
        return;
    }

    let partition = match Partition::from_sizes(&opts.sizes) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: invalid --sizes: {e}");
            exit(2);
        }
    };
    let n = partition.n();
    let ones = opts.ones.unwrap_or(n / 2).min(n);

    let mut scenario = Scenario::new(partition.clone(), opts.algorithm)
        .proposals_split(ones)
        .config(ProtocolConfig::paper().with_max_rounds(opts.max_rounds))
        .crashes(build_plan(&opts.crashes))
        .loss_ppm(opts.loss_ppm)
        .dup_ppm(opts.dup_ppm)
        .churn(build_churn(&opts.churn, opts.churn_poisson))
        .seed(opts.seed);
    if let Some(max) = opts.max_events {
        scenario = scenario.max_events(max);
    }
    if let Some(arrival) = opts.serve {
        scenario = scenario.replicated_log_traffic(
            opts.algorithm,
            opts.slots,
            TrafficSpec {
                arrival,
                clients: if opts.clients == 0 {
                    n as u64
                } else {
                    opts.clients
                },
                queue_cap: opts.queue_cap,
                batch_max: opts.batch_max,
                batch_min: opts.batch_min,
            },
        );
    }
    if let Some(engine) = opts.engine {
        scenario = scenario.engine(engine);
    }
    if opts.trace && !opts.runtime {
        scenario = scenario.keep_trace();
    }

    if !opts.json {
        println!("partition: {partition}");
        println!(
            "algorithm: {} | proposals: {ones}x1 + {}x0 | seed {}",
            opts.algorithm,
            n - ones,
            opts.seed
        );
        for (p, when) in &opts.crashes {
            match when {
                CrashWhen::Step(k) => println!("crash: p{} at step {k}", p + 1),
                CrashWhen::Round(r) => println!("crash: p{} at round {r}", p + 1),
                CrashWhen::Time(t) => println!("crash: p{} at time {t}", p + 1),
            }
        }
        if opts.loss_ppm > 0 || opts.dup_ppm > 0 {
            println!(
                "network: loss {} ppm | dup {} ppm",
                opts.loss_ppm, opts.dup_ppm
            );
        }
        for &(p, leave, rejoin) in &opts.churn {
            match rejoin {
                Some(r) => println!("churn: p{} leaves at t{leave}, rejoins at t{r}", p + 1),
                None => println!("churn: p{} leaves at t{leave}", p + 1),
            }
        }
        if let Some(spec) = &opts.churn_poisson {
            println!(
                "churn: poisson arrivals at {} ppm | mean downtime {} | horizon {}",
                spec.rate_ppm, spec.mean_down_ticks, spec.horizon_ticks
            );
        }
        if let Some(arrival) = &opts.serve {
            println!(
                "serving: {arrival:?} | {} clients | {} slots | queue cap {} | batch {}..={}",
                if opts.clients == 0 {
                    n as u64
                } else {
                    opts.clients
                },
                opts.slots,
                opts.queue_cap,
                opts.batch_min,
                opts.batch_max,
            );
        }
    }

    if opts.checkpoint_at.is_some() || opts.budget_secs.is_some() {
        let first = opts.checkpoint_at.unwrap_or(opts.checkpoint_every);
        run_legs(
            Sim.run_until(&scenario, VirtualTime::from_ticks(first)),
            &opts,
            scenario.max_events,
        );
        return;
    }

    let backend: &dyn Backend = if opts.runtime { &Threads } else { &Sim };
    report(&backend.run(&scenario), &opts, scenario.max_events);
}

/// Why a finished run left a correct process undecided, as far as its
/// outcome shows — `None` when every correct process decided. A
/// simulator run that used up its event budget shows it
/// (`events_processed` reached `max_events`); everything else — the
/// round budget, a stall outside the paper's liveness condition — looks
/// the same from here.
fn undecided_cause(out: &Outcome, max_events: u64) -> Option<String> {
    if out.all_correct_decided {
        return None;
    }
    let budgeted = out.backend == BackendKind::Sim && out.events_processed >= max_events;
    Some(if budgeted {
        format!(
            "event budget exhausted after {} events (raise --max-events)",
            out.events_processed
        )
    } else {
        "stopped undecided (round budget or stall)".to_string()
    })
}

/// `ofa explore` options.
struct ExploreOpts {
    seed: u64,
    budget_secs: Option<u64>,
    generations: Option<u64>,
    population: usize,
    workers: usize,
    sizes: Vec<usize>,
    algorithm: Algorithm,
    ones: Option<usize>,
    max_rounds: u64,
    loss_ppm: u32,
    dup_ppm: u32,
    max_loss: Option<u32>,
    max_dup: Option<u32>,
    max_poisson: Option<u32>,
    horizon: Option<u64>,
    min_rounds: Option<u64>,
    min_undecided: Option<u64>,
    emit_corpus: Option<String>,
    log: Option<String>,
    state: Option<String>,
    wall_secs: Option<u64>,
    json: bool,
}

fn parse_explore_args(args: &[String]) -> Result<ExploreOpts, String> {
    let mut opts = ExploreOpts {
        seed: 0,
        budget_secs: None,
        generations: None,
        population: 16,
        workers: 0,
        sizes: vec![1, 4, 2],
        algorithm: Algorithm::CommonCoin,
        ones: None,
        max_rounds: 64,
        loss_ppm: 0,
        dup_ppm: 0,
        max_loss: None,
        max_dup: None,
        max_poisson: None,
        horizon: None,
        min_rounds: None,
        min_undecided: None,
        emit_corpus: None,
        log: None,
        state: None,
        wall_secs: None,
        json: false,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
    };
    let num = |s: String| s.parse::<u64>().map_err(|e| e.to_string());
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                print!("{EXPLORE_HELP}");
                exit(0);
            }
            "--seed" => opts.seed = num(value(&mut i)?)?,
            "--budget-secs" => opts.budget_secs = Some(num(value(&mut i)?)?),
            "--generations" => opts.generations = Some(num(value(&mut i)?)?),
            "--population" => {
                opts.population = num(value(&mut i)?)? as usize;
                if opts.population == 0 {
                    return Err("--population must be positive".into());
                }
            }
            "--workers" => opts.workers = num(value(&mut i)?)? as usize,
            "--sizes" => opts.sizes = parse_sizes(&value(&mut i)?)?,
            "--algorithm" => {
                opts.algorithm = match value(&mut i)?.as_str() {
                    "lc" | "local" => Algorithm::LocalCoin,
                    "cc" | "common" => Algorithm::CommonCoin,
                    other => return Err(format!("unknown algorithm {other:?} (use lc|cc)")),
                };
            }
            "--ones" => opts.ones = Some(num(value(&mut i)?)? as usize),
            "--max-rounds" => opts.max_rounds = num(value(&mut i)?)?,
            "--loss" => opts.loss_ppm = parse_ppm(&value(&mut i)?, "--loss")?,
            "--dup" => opts.dup_ppm = parse_ppm(&value(&mut i)?, "--dup")?,
            "--max-loss" => opts.max_loss = Some(parse_ppm(&value(&mut i)?, "--max-loss")?),
            "--max-dup" => opts.max_dup = Some(parse_ppm(&value(&mut i)?, "--max-dup")?),
            "--max-poisson" => {
                opts.max_poisson = Some(parse_ppm(&value(&mut i)?, "--max-poisson")?)
            }
            "--horizon" => {
                opts.horizon = Some(num(value(&mut i)?)?);
                if opts.horizon == Some(0) {
                    return Err("--horizon must be positive".into());
                }
            }
            "--min-rounds" => opts.min_rounds = Some(num(value(&mut i)?)?),
            "--min-undecided" => opts.min_undecided = Some(num(value(&mut i)?)?),
            "--emit-corpus" => opts.emit_corpus = Some(value(&mut i)?),
            "--log" => opts.log = Some(value(&mut i)?),
            "--state" => opts.state = Some(value(&mut i)?),
            "--wall-secs" => opts.wall_secs = Some(num(value(&mut i)?)?),
            "--json" => opts.json = true,
            other => return Err(format!("unknown option {other:?} (try ofa explore --help)")),
        }
        i += 1;
    }
    if opts.wall_secs.is_some() && opts.state.is_none() {
        return Err("--wall-secs pauses into a state file; add --state FILE".into());
    }
    Ok(opts)
}

/// Runs `ofa explore`: build the base schedule and the search config,
/// run (or resume) the explorer, then write the log/corpus/state and
/// report. Exit codes: 0 finished clean, 1 finished having found an
/// agreement violation, 3 paused on `--wall-secs`.
fn explore_main(args: &[String]) {
    let opts = match parse_explore_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{EXPLORE_HELP}");
            exit(2);
        }
    };
    let partition = match Partition::from_sizes(&opts.sizes) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: invalid --sizes: {e}");
            exit(2);
        }
    };
    let n = partition.n();
    let ones = opts.ones.unwrap_or(n / 2).min(n);
    // No event cap: mutated schedules always terminate via the round
    // budget, and the default 5M-event guard would silently truncate
    // cluster-scale runs into "nobody decided" fitness noise.
    let base = Scenario::new(partition, opts.algorithm)
        .proposals_split(ones)
        .config(ProtocolConfig::paper().with_max_rounds(opts.max_rounds))
        .loss_ppm(opts.loss_ppm)
        .dup_ppm(opts.dup_ppm)
        .max_events(u64::MAX);

    let mut limits = Limits::for_n(n);
    if let Some(v) = opts.max_loss {
        limits.max_loss_ppm = v;
    }
    if let Some(v) = opts.max_dup {
        limits.max_dup_ppm = v;
    }
    if let Some(v) = opts.max_poisson {
        limits.max_poisson_ppm = v;
    }
    if let Some(v) = opts.horizon {
        limits.horizon_ticks = v;
    }
    let config = ExploreConfig {
        seed: opts.seed,
        population: opts.population,
        workers: opts.workers,
        generations: opts.generations,
        event_budget: opts.budget_secs.map(|b| b * EVENTS_PER_SEC),
        base,
        limits,
        filter: CorpusFilter {
            min_rounds: opts.min_rounds,
            min_undecided: opts.min_undecided,
        },
    };

    let mut explorer = match &opts.state {
        Some(path) if std::path::Path::new(path).exists() => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: reading {path}: {e}");
                    exit(2);
                }
            };
            let state: SearchState = match serde_json::from_str(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: decoding search state {path}: {e}");
                    exit(2);
                }
            };
            if !opts.json {
                eprintln!("resumed: {path} at generation {}", state.generation);
            }
            Explorer::resume(config, state)
        }
        _ => Explorer::new(config),
    };

    let deadline = opts
        .wall_secs
        .map(|secs| Instant::now() + Duration::from_secs(secs));
    let finished = loop {
        if explorer.finished() {
            break true;
        }
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                break false;
            }
        }
        let rec = explorer.step();
        if !opts.json {
            eprintln!(
                "gen {:>3}: best {:?}{}",
                rec.generation,
                rec.best,
                if rec.improved { "  <- improved" } else { "" }
            );
        }
    };

    // The search log is the full per-generation history so far —
    // byte-identical however the run was paused and resumed.
    if let Some(path) = &opts.log {
        let mut log = String::new();
        for rec in &explorer.state().history {
            match serde_json::to_string(rec) {
                Ok(line) => {
                    log.push_str(&line);
                    log.push('\n');
                }
                Err(e) => {
                    eprintln!("error: serializing search log: {e}");
                    exit(2);
                }
            }
        }
        if let Err(e) = std::fs::write(path, log) {
            eprintln!("error: writing {path}: {e}");
            exit(2);
        }
    }

    if !finished {
        let path = opts.state.as_deref().expect("--wall-secs requires --state");
        match serde_json::to_string(explorer.state()) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("error: writing {path}: {e}");
                    exit(2);
                }
            }
            Err(e) => {
                eprintln!("error: serializing search state: {e}");
                exit(2);
            }
        }
        if opts.json {
            println!(
                "{{\"paused_at_generation\":{},\"state\":{:?}}}",
                explorer.state().generation,
                path
            );
        } else {
            println!(
                "paused at generation {} — state written to {path} (rerun to resume)",
                explorer.state().generation
            );
        }
        exit(3);
    }

    if let Some(dir) = &opts.emit_corpus {
        match write_corpus(std::path::Path::new(dir), explorer.corpus()) {
            Ok(count) => {
                if !opts.json {
                    eprintln!("corpus: {count} entries written to {dir}");
                }
            }
            Err(e) => {
                eprintln!("error: writing corpus to {dir}: {e}");
                exit(2);
            }
        }
    }

    let state = explorer.state();
    let best = explorer
        .best()
        .expect("a finished search evaluated something");
    if opts.json {
        let summary = serde_json::to_string(state).unwrap_or_else(|e| {
            eprintln!("error: serializing summary: {e}");
            exit(2);
        });
        println!("{summary}");
    } else {
        println!(
            "explored {} generations x {} candidates | {} simulated events",
            state.generation,
            explorer.config().population,
            state.events_spent
        );
        println!(
            "baseline: {}",
            fitness_text(&state.baseline.unwrap_or_default())
        );
        println!(
            "worst (gen {} slot {}): {}",
            best.found.generation,
            best.found.slot,
            fitness_text(&best.fitness)
        );
        match serde_json::to_string(&best.scenario) {
            Ok(json) => println!("worst schedule: {json}"),
            Err(e) => {
                eprintln!("error: serializing schedule: {e}");
                exit(2);
            }
        }
        println!("corpus: {} entries held", state.corpus.len());
    }
    if best.fitness.violation {
        if !opts.json {
            println!("\nagreement: VIOLATED by the worst schedule — found a bug");
        }
        exit(1);
    }
}

/// One-line human rendering of a [`Fitness`].
fn fitness_text(f: &Fitness) -> String {
    format!(
        "violation {} | undecided {} | rounds {} | stretch {} ticks",
        f.violation, f.undecided, f.max_round, f.stretch
    )
}

/// Loads a snapshot, applies any `--diverge-*` tail mutations, and
/// continues the run — straight to completion, to a `--checkpoint-at`
/// cut, or under a `--budget-secs` wall-clock budget.
fn run_resumed(opts: &Options, path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {path}: {e}");
            exit(2);
        }
    };
    let mut snap: Snapshot = match serde_json::from_str(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: decoding snapshot {path}: {e}");
            exit(2);
        }
    };
    let spec = DivergeSpec {
        seed: opts.diverge_seed,
        coin: opts.diverge_coin.clone(),
        extra_crashes: build_plan(&opts.diverge_crashes),
    };
    snap.scenario = spec.apply(&snap.scenario);
    if let Some(engine) = opts.engine {
        snap.scenario = snap.scenario.engine(engine);
    }
    if let Err(e) = Sim.check_snapshot(&snap) {
        eprintln!("error: resuming {path}: {e}");
        exit(2);
    }
    if !opts.json {
        println!("resumed: {path} at t={}", snap.at.ticks());
    }
    let resumed_at = snap.at.ticks();
    if opts.checkpoint_at.is_some() || opts.budget_secs.is_some() {
        let first = opts
            .checkpoint_at
            .unwrap_or(resumed_at + opts.checkpoint_every);
        run_legs(
            Sim.resume_until(&snap, VirtualTime::from_ticks(first)),
            opts,
            snap.scenario.max_events,
        );
    } else {
        report(&Sim.resume(&snap), opts, snap.scenario.max_events);
    }
}

/// Drives a checkpointed run leg by leg. A single `--checkpoint-at` cut
/// pauses unconditionally; under `--budget-secs` the run advances by
/// `--checkpoint-every` ticks per leg until the wall-clock budget
/// expires. A pause writes the snapshot and exits 3. `max_events` is the
/// scenario's event budget, for the final report.
fn run_legs(mut pending: RunOutcome, opts: &Options, max_events: u64) {
    let deadline = opts
        .budget_secs
        .map(|secs| Instant::now() + Duration::from_secs(secs));
    loop {
        match pending {
            RunOutcome::Done(out) => {
                report(&out, opts, max_events);
                return;
            }
            RunOutcome::Paused(snap) => {
                let expired = match (opts.checkpoint_at, deadline) {
                    // A fixed cut always pauses there.
                    (Some(_), _) => true,
                    (None, Some(deadline)) => Instant::now() >= deadline,
                    (None, None) => true,
                };
                if expired {
                    save_snapshot(&snap, opts);
                    exit(3);
                }
                let next = snap.at.ticks() + opts.checkpoint_every;
                pending = Sim.resume_until(&snap, VirtualTime::from_ticks(next));
            }
        }
    }
}

fn save_snapshot(snap: &Snapshot, opts: &Options) {
    let json = match serde_json::to_string(snap) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("error: serializing snapshot: {e}");
            exit(2);
        }
    };
    if let Err(e) = std::fs::write(&opts.checkpoint_file, json) {
        eprintln!("error: writing {}: {e}", opts.checkpoint_file);
        exit(2);
    }
    if opts.json {
        println!(
            "{{\"paused_at\":{},\"checkpoint\":{:?}}}",
            snap.at.ticks(),
            opts.checkpoint_file
        );
    } else {
        println!(
            "paused at t={} — snapshot written to {} (resume with --resume)",
            snap.at.ticks(),
            opts.checkpoint_file
        );
    }
}

/// Prints the outcome (JSON or human-readable), then exits 1 on an
/// agreement violation, or 4 — with the cause on stderr — when a correct
/// process ended undecided under the `max_events` budget the run had.
fn report(out: &Outcome, opts: &Options, max_events: u64) {
    if opts.json {
        match serde_json::to_string(out) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("error: serializing outcome: {e}");
                exit(2);
            }
        }
    } else {
        print_report(out, opts);
    }
    if !out.agreement_holds() {
        exit(1);
    }
    if let Some(cause) = undecided_cause(out, max_events) {
        eprintln!("error: {cause}");
        exit(4);
    }
}

/// The human-readable report.
fn print_report(out: &Outcome, opts: &Options) {
    let n = out.decisions.len();

    if let Some(events) = &out.events {
        for e in events {
            println!("{e}");
        }
        println!();
    }
    if opts.runtime {
        println!("— real-thread run: {:?} —", out.elapsed);
    } else {
        let engine = match out.engine_used {
            Some(Engine::Threads) => " [threads]",
            Some(Engine::EventDriven) => " [event]",
            Some(Engine::ParallelEvent { .. }) => " [par]",
            None => "",
        };
        println!(
            "— simulated run{engine}: {} events, end {} —",
            out.events_processed, out.end_time
        );
    }
    for (i, d) in out.decisions.iter().enumerate() {
        match d {
            Some(d) => println!("  p{}: {d}", i + 1),
            None => println!("  p{}: {}", i + 1, halt_text(out.halts[i])),
        }
    }
    if let Some(hash) = out.trace_hash {
        println!(
            "  messages {} | cluster proposes {} | trace hash {hash:016x}",
            out.counters.messages_sent, out.counters.cluster_proposes
        );
    } else {
        println!(
            "  messages {} | cluster proposes {}",
            out.counters.messages_sent, out.counters.cluster_proposes
        );
    }
    let s = &out.service;
    if !s.is_empty() {
        println!(
            "  served: {} submitted | {} committed | {} shed | {} batches | max queue {}",
            s.submitted, s.committed, s.shed, s.batches, s.max_queue_depth
        );
        println!(
            "  latency p50 {} | p90 {} | p99 {} ticks | throughput {:.2} cmds/kilotick",
            s.latency.percentile(50),
            s.latency.percentile(90),
            s.latency.percentile(99),
            s.throughput_per_kilotick(out.end_time.ticks()),
        );
    }
    println!(
        "\nagreement: {} | deciders: {}/{n}",
        if out.agreement_holds() {
            "holds"
        } else {
            "VIOLATED"
        },
        out.deciders()
    );
}

fn halt_text(h: Option<Halt>) -> &'static str {
    match h {
        Some(Halt::Crashed) => "crashed",
        Some(Halt::Stopped) => "stopped (undecided)",
        None => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn sizes_accept_the_repeat_shorthand() {
        assert_eq!(parse_sizes("1,4,2"), Ok(vec![1, 4, 2]));
        assert_eq!(parse_sizes("100x10"), Ok(vec![100; 10]));
        assert_eq!(parse_sizes("1, 4x2 ,2"), Ok(vec![1, 4, 4, 2]));
        assert_eq!(parse_sizes("3x0,2"), Ok(vec![2]));
        for junk in ["", "x", "4x", "x4", "4x2x2", "a,b", "-1", "1x99999999999"] {
            assert!(parse_sizes(junk).is_err(), "{junk:?} must be refused");
        }
    }

    #[test]
    fn max_events_reaches_the_scenario_budget() {
        let opts = parse_args(&args("--sizes 100x10 --max-events 10000000")).unwrap();
        assert_eq!(opts.sizes, vec![100; 10]);
        assert_eq!(opts.max_events, Some(10_000_000));
        assert_eq!(parse_args(&args("--sizes 2,2")).unwrap().max_events, None);
        for junk in ["--max-events", "--max-events lots", "--max-events -5"] {
            assert!(parse_args(&args(junk)).is_err(), "{junk:?} must be refused");
        }
        assert!(parse_args(&args("--runtime --max-events 10")).is_err());
    }
}
