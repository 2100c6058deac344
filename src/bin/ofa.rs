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
//!
//! Each command's flags are one table of [`Flag`] entries: the parser
//! and `--help` both read it, so a flag's name, help and default are
//! written once. The flags both commands take live on [`Base`].

use one_for_all::consensus::{ArrivalProcess, TrafficSpec};
use one_for_all::explore::{
    write_corpus, ExploreConfig, Explorer, Fitness, Limits, SearchState, DEFAULT_GENERATIONS,
    EVENTS_PER_SEC,
};
use one_for_all::prelude::*;
use one_for_all::scenario::{BackendKind, DivergeSpec, Snapshot, VirtualTime};
use one_for_all::sim::RunOutcome;
use std::io::Write as _;
use std::process::exit;
use std::time::{Duration, Instant};

/// Applies a flag's value (`""` for a switch) to a command's options.
/// The parser puts the flag and the value in front of an error.
type Setter<O> = fn(&mut O, &str) -> Result<(), String>;

/// What a flag needs of the others: a complaint completes "FLAG …".
type Rule<O> = fn(&O) -> Option<&'static str>;

/// One flag of a command: its entry is the only place its name, its
/// help and its default are written.
struct Flag<O> {
    name: &'static str,
    /// The value's placeholder; `None` for a switch.
    metavar: Option<&'static str>,
    help: &'static str,
    set: Setter<O>,
    /// The `[default: …]` of `--help`, read off `O::default()`.
    shown: Option<fn(&O) -> String>,
    /// Checked once all flags are parsed, and only if this one was given.
    needs: Option<Rule<O>>,
}

/// A flag taking a value, or a switch if `metavar` is empty.
fn flag<O>(name: &'static str, metavar: &'static str, set: Setter<O>) -> Flag<O> {
    Flag {
        name,
        metavar: (!metavar.is_empty()).then_some(metavar),
        help: "",
        set,
        shown: None,
        needs: None,
    }
}

impl<O> Flag<O> {
    fn help(self, help: &'static str) -> Self {
        Flag { help, ..self }
    }

    fn shown(mut self, shown: fn(&O) -> String) -> Self {
        self.shown = Some(shown);
        self
    }

    fn needs(mut self, needs: Rule<O>) -> Self {
        self.needs = Some(needs);
        self
    }
}

/// A command's flags, section by section in `--help` order.
type Table<O> = Vec<(&'static str, Vec<Flag<O>>)>;

/// A command: its options, its flag table, and the `--help` prose
/// around the table.
trait Command: Default + 'static {
    /// How the command is invoked.
    const NAME: &'static str;
    /// `--help` above the flags.
    const ABOUT: &'static str;
    /// `--help` below the flags.
    const EXIT_CODES: &'static str;

    fn table() -> Table<Self>;
    fn base(&self) -> &Base;
    fn base_mut(&mut self) -> &mut Base;
    /// Why the flags of the simulated network cannot apply, if they
    /// cannot.
    fn simulated(&self) -> Option<&'static str> {
        None
    }
}

/// `--help`, which `-h` also spells.
const HELP: &str = "--help";

/// Parses `args` onto `O::default()` by the command's table, then checks
/// what each given flag needs of the others.
fn parse<O: Command>(args: &[String]) -> Result<O, String> {
    let table = O::table();
    let mut opts = O::default();
    let mut given = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        let name = if arg == "-h" { HELP } else { arg };
        let flag = table
            .iter()
            .flat_map(|(_, flags)| flags)
            .find(|f| f.name == name)
            .ok_or_else(|| format!("unknown option {arg:?} (try {} --help)", O::NAME))?;
        let value = match flag.metavar {
            Some(_) => args
                .next()
                .ok_or_else(|| format!("missing value after {arg}"))?,
            None => "",
        };
        (flag.set)(&mut opts, value).map_err(|e| format!("bad {name} {value:?}: {e}"))?;
        given.push(flag);
    }
    for flag in given {
        if let Some(why) = flag.needs.and_then(|needs| needs(&opts)) {
            return Err(format!("{} {why}", flag.name));
        }
    }
    Ok(opts)
}

/// [`parse`], or the error and `--help` on stderr and exit 2.
fn parse_or_exit<O: Command>(args: &[String]) -> O {
    parse(args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{}", help::<O>());
        exit(2)
    })
}

/// `--help`, rendered from the table: each flag's help wrapped beside
/// it, ending in the `[default: …]` that `O::default()` starts from.
fn help<O: Command>() -> String {
    const COLUMN: usize = 26;
    const WIDTH: usize = 78;
    let indent = " ".repeat(COLUMN);
    let defaults = O::default();
    let mut text = O::ABOUT.to_string();
    for (section, flags) in O::table() {
        text += &format!("\n{section}:\n");
        for f in flags {
            let head = match f.metavar {
                Some(metavar) => format!("    {} {metavar}", f.name),
                None => format!("    {}", f.name),
            };
            if head.len() + 2 > COLUMN {
                text += &format!("{head}\n{indent}");
            } else {
                text += &format!("{head:COLUMN$}");
            }
            let default = f
                .shown
                .map(|shown| format!("[default: {}]", shown(&defaults)));
            let words = f.help.split_whitespace().chain(default.as_deref());
            text += &wrap(words, WIDTH - COLUMN).join(&format!("\n{indent}"));
            text.push('\n');
        }
    }
    text + O::EXIT_CODES
}

/// `words` in lines of at most `width` characters; a longer word gets a
/// line of its own.
fn wrap<'a>(words: impl Iterator<Item = &'a str>, width: usize) -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    for word in words {
        match lines.last_mut() {
            Some(line) if line.chars().count() + 1 + word.chars().count() <= width => {
                line.push(' ');
                line.push_str(word);
            }
            _ => lines.push(word.to_string()),
        }
    }
    lines
}

/// What `ofa` and `ofa explore` share: the base scenario, the seed and
/// the output format.
struct Base {
    sizes: Vec<usize>,
    algorithm: Algorithm,
    /// `None`: the first half of the processes propose 1.
    ones: Option<usize>,
    max_rounds: u64,
    loss_ppm: u32,
    dup_ppm: u32,
    seed: u64,
    json: bool,
}

impl Base {
    /// Fig. 1 (right) under the common coin, with a round budget of
    /// `max_rounds`.
    fn new(max_rounds: u64) -> Base {
        Base {
            sizes: vec![1, 4, 2],
            algorithm: Algorithm::CommonCoin,
            ones: None,
            max_rounds,
            loss_ppm: 0,
            dup_ppm: 0,
            seed: 0,
            json: false,
        }
    }

    /// How many of `n` processes propose 1.
    fn ones(&self, n: usize) -> usize {
        self.ones.unwrap_or(n / 2).min(n)
    }

    /// The base scenario: partition, proposals, round budget, loss and
    /// duplication. Not the seed, which seeds the run in `ofa` and the
    /// search in `ofa explore`. Invalid `--sizes` exit 2.
    fn scenario(&self) -> Scenario {
        let partition = or_exit(Partition::from_sizes(&self.sizes), "invalid --sizes");
        let ones = self.ones(partition.n());
        Scenario::new(partition, self.algorithm)
            .proposals_split(ones)
            .config(ProtocolConfig::paper().with_max_rounds(self.max_rounds))
            .loss_ppm(self.loss_ppm)
            .dup_ppm(self.dup_ppm)
    }
}

/// The flags on [`Base`] that shape the scenario, first in both
/// commands' tables.
fn scenario_flags<O: Command>() -> Vec<Flag<O>> {
    let flag = flag::<O>;
    vec![
        flag("--sizes", "a,b,c", |o, v| {
            parse_sizes(v).map(|sizes| o.base_mut().sizes = sizes)
        })
        .help(
            "cluster sizes, e.g. 1,4,2 (Fig. 1, right); MxK stands for K clusters of M \
             processes (100x10 = ten clusters of 100) and mixes with commas: 1,4x2,2",
        )
        .shown(|o| {
            let sizes: Vec<String> = o.base().sizes.iter().map(usize::to_string).collect();
            sizes.join(",")
        }),
        flag("--algorithm", "lc|cc", |o, v| {
            o.base_mut().algorithm = match v {
                "lc" | "local" => Algorithm::LocalCoin,
                "cc" | "common" => Algorithm::CommonCoin,
                _ => return Err("use lc|cc".into()),
            };
            Ok(())
        })
        .help("local-coin (Alg 2) or common-coin (Alg 3)")
        .shown(|o| {
            match o.base().algorithm {
                Algorithm::LocalCoin => "lc",
                Algorithm::CommonCoin => "cc",
            }
            .into()
        }),
        flag("--ones", "K", |o, v| {
            int(v).map(|k| o.base_mut().ones = Some(k))
        })
        .help("the first K processes propose 1, the rest 0")
        .shown(|_| "n/2".into()),
        flag("--seed", "S", |o, v| int(v).map(|s| o.base_mut().seed = s))
            .help(
                "randomness seed: the run, or under ofa explore the whole search, \
                 replays bit for bit from it",
            )
            .shown(|o| o.base().seed.to_string()),
        flag("--max-rounds", "R", |o, v| {
            int(v).map(|r| o.base_mut().max_rounds = r)
        })
        .help("round budget of each run")
        .shown(|o| o.base().max_rounds.to_string()),
        flag("--loss", "P", |o, v| {
            ppm(v).map(|p| o.base_mut().loss_ppm = p)
        })
        .help(
            "drop each message with probability P ppm (parts per million, \
             0..=1000000), deterministically per (seed, link, message)",
        )
        .shown(|o| o.base().loss_ppm.to_string())
        .needs(O::simulated),
        flag("--dup", "P", |o, v| {
            ppm(v).map(|p| o.base_mut().dup_ppm = p)
        })
        .help(
            "duplicate each delivered message with probability P ppm; the copy \
             arrives after an extra link delay",
        )
        .shown(|o| o.base().dup_ppm.to_string())
        .needs(O::simulated),
    ]
}

/// The output flags on [`Base`], last where the command lists its
/// output.
fn output_flags<O: Command>() -> Vec<Flag<O>> {
    let flag = flag::<O>;
    vec![
        flag("--json", "", |o, _| on(&mut o.base_mut().json)).help(
            "print the result as JSON (the run's Outcome, or the search's final \
             state) instead of the human-readable report",
        ),
        flag(HELP, "", |_, _| {
            Out::stdout().print(format_args!("{}", help::<O>()));
            exit(0)
        })
        .help("show this message"),
    ]
}

/// `ofa`'s options.
struct Opts {
    base: Base,
    crashes: Vec<(ProcessId, CrashTrigger)>,
    churn: Vec<(ProcessId, u64, Option<u64>)>,
    churn_poisson: Option<PoissonChurn>,
    max_events: Option<u64>,
    trace: bool,
    engine: Option<Engine>,
    runtime: bool,
    serve: Option<ArrivalProcess>,
    /// `None`: one client per process.
    clients: Option<u64>,
    slots: u64,
    queue_cap: u32,
    batch_max: u32,
    batch_min: u32,
    checkpoint_at: Option<u64>,
    checkpoint_every: u64,
    checkpoint_file: String,
    budget_secs: Option<u64>,
    resume: Option<String>,
    diverge_seed: Option<u64>,
    diverge_coin: Option<CoinSpec>,
    diverge_crashes: Vec<(ProcessId, CrashTrigger)>,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            base: Base::new(512),
            crashes: Vec::new(),
            churn: Vec::new(),
            churn_poisson: None,
            max_events: None,
            trace: false,
            engine: None,
            runtime: false,
            serve: None,
            clients: None,
            slots: 8,
            queue_cap: 64,
            batch_max: 16,
            batch_min: 0,
            checkpoint_at: None,
            checkpoint_every: 5_000,
            checkpoint_file: "ofa.snapshot.json".to_string(),
            budget_secs: None,
            resume: None,
            diverge_seed: None,
            diverge_coin: None,
            diverge_crashes: Vec::new(),
        }
    }
}

impl Opts {
    /// The run pauses: at a fixed cut, or when its wall-clock budget
    /// runs out.
    fn checkpointing(&self) -> bool {
        self.checkpoint_at.is_some() || self.budget_secs.is_some()
    }
}

/// The rule of the `--serve` companions.
fn serving(o: &Opts) -> Option<&'static str> {
    o.serve.is_none().then_some("requires --serve")
}

/// The rule of the `--diverge-*` flags.
fn resuming(o: &Opts) -> Option<&'static str> {
    o.resume.is_none().then_some("requires --resume")
}

impl Command for Opts {
    const NAME: &'static str = "ofa";
    const ABOUT: &'static str = "\
ofa — run one hybrid-model consensus execution

USAGE:
    ofa [OPTIONS]
";
    const EXIT_CODES: &'static str = "
SUBCOMMANDS:
    explore            adversarial schedule search (ofa explore --help)

EXIT CODES:
    0  run finished, agreement holds      2  usage / IO error
    1  run finished, agreement VIOLATED   3  paused at a checkpoint
    4  run finished with a correct process undecided; one stderr line
       names the cause: the event budget ran out (raise --max-events),
       or the processes stopped on their own (round budget or stall)
";

    fn table() -> Table<Opts> {
        let flag = flag::<Opts>;
        let mut options = scenario_flags();
        options.extend([
            flag("--crash", "pI@K", |o, v| {
                parse_crash(v).map(|c| o.crashes.push(c))
            })
            .help(
                "crash process I (1-based) at env-call K (K=0 crashes before any step); \
                 pI@rR crashes it when it enters round R, pI@tT at virtual time T \
                 (repeatable)",
            ),
            flag("--churn", "pI@tT+rR", |o, v| {
                parse_churn(v).map(|c| o.churn.push(c))
            })
            .help(
                "process I leaves (crashes) at virtual time T and rejoins at virtual time \
                 R with a fresh mailbox (repeatable; omit +rR for a leave without rejoin)",
            )
            .needs(Opts::simulated),
            flag("--churn-poisson", "PPM[:DOWN[:HORIZON]]", |o, v| {
                parse_churn_poisson(v).map(|c| o.churn_poisson = Some(c))
            })
            .help(
                "Poisson churn arrivals: every process not named by --churn/--crash leaves \
                 at rate PPM per million ticks and rejoins after an exponential downtime of \
                 mean DOWN ticks (0 = leave forever); first leaves at/after HORIZON ticks \
                 are discarded. Arrivals are a pure PRF of (seed, process), identical on \
                 every engine and across checkpoint resumes",
            )
            .shown(|_| {
                format!(
                    "DOWN {}, HORIZON {}",
                    PoissonChurn::DEFAULT_MEAN_DOWN,
                    PoissonChurn::DEFAULT_HORIZON
                )
            })
            .needs(Opts::simulated),
            flag("--max-events", "N", |o, v| {
                int(v).map(|max| o.max_events = Some(max))
            })
            .help(
                "simulator event budget: the run stops after N events with whoever has not \
                 decided reported as stopped (an all-to-all exchange is n^2 events, so \
                 n = 1000 needs ~10^7)",
            )
            .shown(|o| o.base.scenario().max_events.to_string())
            .needs(Opts::simulated),
            flag("--trace", "", |o, _| on(&mut o.trace))
                .help("print the full event trace (simulator only; not with checkpoints)")
                .needs(|o| {
                    let paused = o.checkpointing() || o.resume.is_some();
                    o.simulated()
                        .or(paused.then_some("cannot be kept across a checkpoint (drop it)"))
                }),
            flag("--engine", "E", |o, v| {
                o.engine = Some(match v {
                    "threads" => Engine::Threads,
                    "event" | "event-driven" => Engine::EventDriven,
                    "par" | "parallel" => Engine::parallel(),
                    _ => match v.strip_prefix("par=") {
                        Some(workers) => Engine::ParallelEvent {
                            workers: int(workers)?,
                        },
                        None => return Err("use threads|event|par|par=N".into()),
                    },
                });
                Ok(())
            })
            .help(
                "simulator process engine: event (single-threaded event-driven state \
                 machines; scales to n >> 10^4), par or par=N (cluster-sharded parallel \
                 event engine on N workers, N omitted = one per core; identical outcomes \
                 to event, bit for bit), or threads (the reference conductor; pin this to \
                 reproduce pre-flip runs)",
            )
            .shown(|o| engine_name(o.base.scenario().engine).into())
            .needs(|o| {
                (o.checkpointing() && o.engine == Some(Engine::Threads))
                    .then_some("threads cannot checkpoint; use --engine event or par")
            }),
            flag("--runtime", "", |o, _| on(&mut o.runtime))
                .help("execute on real threads instead of the simulator (--engine does not apply)"),
        ]);
        options.extend(output_flags());
        let serving = vec![
            flag("--serve", "ARRIVAL", |o, v| {
                parse_arrival(v).map(|a| o.serve = Some(a))
            })
            .help(
                "clients submit commands per ARRIVAL, in ticks of virtual time: \
                 periodic:P[:PHASE] (one command every P ticks), poisson:MEAN_GAP \
                 (exponential gaps), bursty:N:P[:PHASE] (N commands every P \
                 ticks), or closed:LO:HI (closed loop: each client waits for its \
                 commit, then thinks for LO..=HI ticks). Every arrival is a pure \
                 function of (seed, client, k), so any engine and worker count \
                 serves the identical workload.",
            )
            .needs(Opts::simulated),
            flag("--clients", "N", |o, v| int(v).map(|c| o.clients = Some(c)))
                .help("number of clients; client c submits to replica c mod n")
                .shown(|_| "n".into())
                .needs(serving),
            flag("--slots", "N", |o, v| int(v).map(|s| o.slots = s))
                .help("log slots (consensus instances) to run")
                .shown(|o| o.slots.to_string())
                .needs(serving),
            flag("--queue-cap", "N", |o, v| int(v).map(|c| o.queue_cap = c))
                .help(
                    "bounded proposer queue depth; arrivals that find it full are \
                     shed and counted",
                )
                .shown(|o| o.queue_cap.to_string())
                .needs(serving),
            flag("--batch-max", "N", |o, v| int(v).map(|b| o.batch_max = b))
                .help("max commands batched into one proposal")
                .shown(|o| o.batch_max.to_string())
                .needs(serving),
            flag("--batch-min", "N", |o, v| int(v).map(|b| o.batch_min = b))
                .help(
                    "min queued commands before a non-empty proposal; below it the \
                     proposer passes (fill-or-timeout)",
                )
                .shown(|o| o.batch_min.to_string())
                .needs(serving),
        ];
        let checkpoint = vec![
            flag("--checkpoint-at", "T", |o, v| {
                int(v).map(|t| o.checkpoint_at = Some(t))
            })
            .help(
                "pause at virtual time T: write the snapshot to --checkpoint-file \
                 and exit with code 3",
            )
            .needs(Opts::simulated),
            flag("--checkpoint-every", "T", |o, v| {
                positive(v).map(|t| o.checkpoint_every = t)
            })
            .help("leg length in virtual-time ticks of a --budget-secs run")
            .shown(|o| o.checkpoint_every.to_string())
            .needs(|o| o.budget_secs.is_none().then_some("requires --budget-secs")),
            flag("--checkpoint-file", "F", |o, v| {
                text(v).map(|f| o.checkpoint_file = f)
            })
            .help("snapshot path of a --checkpoint-at or --budget-secs run")
            .shown(|o| o.checkpoint_file.clone())
            .needs(|o| (!o.checkpointing()).then_some("requires --checkpoint-at or --budget-secs")),
            flag("--budget-secs", "S", |o, v| {
                int(v).map(|s| o.budget_secs = Some(s))
            })
            .help(
                "wall-clock budget: run legs of --checkpoint-every ticks until the \
                 budget expires, then write the snapshot and exit 3; a finished run \
                 exits normally. Resuming the snapshot continues the run \
                 bit-for-bit.",
            )
            .needs(Opts::simulated),
            flag("--resume", "F", |o, v| text(v).map(|f| o.resume = Some(f)))
                .help(
                    "resume from snapshot F (scenario flags are ignored: the \
                     snapshot embeds the scenario; --engine still switches the \
                     engine mid-run)",
                )
                .needs(Opts::simulated),
            flag("--diverge-seed", "S", |o, v| {
                int(v).map(|s| o.diverge_seed = Some(s))
            })
            .help("resume with a different delay seed for the tail")
            .needs(resuming),
            flag("--diverge-coin", "C", |o, v| {
                o.diverge_coin = Some(match v {
                    "seeded" => CoinSpec::Seeded,
                    "alternating" => CoinSpec::Alternating,
                    _ => return Err("use seeded|alternating".into()),
                });
                Ok(())
            })
            .help("resume with a different common coin for the tail: seeded|alternating")
            .needs(resuming),
            flag("--diverge-crash", "SPEC", |o, v| {
                parse_crash(v).map(|c| o.diverge_crashes.push(c))
            })
            .help("add a crash to the tail (repeatable; pI@K, pI@rR, or pI@tT like --crash)")
            .needs(resuming),
        ];
        vec![
            ("OPTIONS", options),
            (
                "SERVING TRAFFIC (simulator only; replaces the single-shot consensus body\n\
                 with a traffic-driven replicated log)",
                serving,
            ),
            (
                "CHECKPOINT / RESUME (simulator event engines only)",
                checkpoint,
            ),
        ]
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn base_mut(&mut self) -> &mut Base {
        &mut self.base
    }

    fn simulated(&self) -> Option<&'static str> {
        self.runtime.then_some("needs the simulator, not --runtime")
    }
}

/// `ofa explore`'s options.
struct ExploreOpts {
    base: Base,
    /// The search's parameters. Its base scenario and seed are taken
    /// from `base` when the search starts.
    config: ExploreConfig,
    emit_corpus: Option<String>,
    log: Option<String>,
    state: Option<String>,
    wall_secs: Option<u64>,
}

impl Default for ExploreOpts {
    fn default() -> ExploreOpts {
        let base = Base::new(64);
        ExploreOpts {
            config: ExploreConfig::new(base.scenario()),
            base,
            emit_corpus: None,
            log: None,
            state: None,
            wall_secs: None,
        }
    }
}

impl Command for ExploreOpts {
    const NAME: &'static str = "ofa explore";
    const ABOUT: &'static str = "\
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
";
    const EXIT_CODES: &'static str = "
EXIT CODES:
    0  search finished, no violation found   2  usage / IO error
    1  search found an agreement VIOLATION   3  paused on --wall-secs
";

    fn table() -> Table<ExploreOpts> {
        let flag = flag::<ExploreOpts>;
        let search = vec![
            flag("--budget-secs", "B", |o, v| {
                int(v).map(|b: u64| o.config.event_budget = Some(b.saturating_mul(EVENTS_PER_SEC)))
            })
            .help(
                "stop once B x 2,000,000 simulated events are spent (checked at \
                 generation boundaries; deterministic, unlike wall clock)",
            ),
            flag("--generations", "G", |o, v| {
                int(v).map(|g| o.config.generations = Some(g))
            })
            .help("hard cap on generations")
            .shown(|_| format!("{DEFAULT_GENERATIONS} without --budget-secs")),
            flag("--population", "P", |o, v| {
                positive(v).map(|p| o.config.population = p)
            })
            .help("candidates per generation")
            .shown(|o| o.config.population.to_string()),
            flag("--workers", "W", |o, v| {
                int(v).map(|w| o.config.workers = w)
            })
            .help("evaluation threads; 0 = one per core")
            .shown(|o| o.config.workers.to_string()),
        ];
        let mutation = vec![
            flag("--max-loss", "P", |o, v| {
                ppm(v).map(|p| o.config.limits.max_loss_ppm = p)
            })
            .help("cap on mutated loss rates, ppm")
            .shown(|o| o.config.limits.max_loss_ppm.to_string()),
            flag("--max-dup", "P", |o, v| {
                ppm(v).map(|p| o.config.limits.max_dup_ppm = p)
            })
            .help("cap on mutated duplication rates, ppm")
            .shown(|o| o.config.limits.max_dup_ppm.to_string()),
            flag("--max-poisson", "P", |o, v| {
                ppm(v).map(|p| o.config.limits.max_poisson_ppm = p)
            })
            .help("cap on mutated Poisson churn rates, ppm; 0 disables the operator")
            .shown(|o| o.config.limits.max_poisson_ppm.to_string()),
            flag("--horizon", "T", |o, v| {
                positive(v).map(|t| o.config.limits.horizon_ticks = t)
            })
            .help("virtual-time window for mutated crash/churn times")
            .shown(|o| o.config.limits.horizon_ticks.to_string()),
        ];
        let corpus = vec![
            flag("--min-rounds", "R", |o, v| {
                int(v).map(|r| o.config.filter.min_rounds = Some(r))
            })
            .help("also record schedules reaching round R"),
            flag("--min-undecided", "U", |o, v| {
                int(v).map(|u| o.config.filter.min_undecided = Some(u))
            })
            .help("also record schedules leaving U correct processes stuck"),
            flag("--emit-corpus", "DIR", |o, v| {
                text(v).map(|d| o.emit_corpus = Some(d))
            })
            .help(
                "write qualifying schedules to DIR as JSON entries (schedule + \
                 pinned outcome + provenance)",
            ),
        ];
        let mut output = vec![
            flag("--log", "FILE", |o, v| text(v).map(|f| o.log = Some(f))).help(
                "write the search log (one JSON record per generation), byte-identical \
                 across replays",
            ),
            flag("--state", "FILE", |o, v| text(v).map(|f| o.state = Some(f)))
                .help("resumable search state: loaded if present, written on a --wall-secs pause"),
            flag("--wall-secs", "S", |o, v| {
                int(v).map(|s| o.wall_secs = Some(s))
            })
            .help(
                "wall-clock safety stop for CI gates: pause at a generation boundary \
                 after S seconds, save --state, exit 3 (the trajectory prefix stays \
                 exact)",
            )
            .needs(|o| {
                o.state
                    .is_none()
                    .then_some("pauses into a state file; add --state FILE")
            }),
        ];
        output.extend(output_flags());
        vec![
            (
                "BASE SCHEDULE (the unmutated starting point)",
                scenario_flags(),
            ),
            ("SEARCH", search),
            ("MUTATION LIMITS", mutation),
            ("CORPUS (agreement violations always qualify)", corpus),
            ("OUTPUT / RESUMABILITY", output),
        ]
    }

    fn base(&self) -> &Base {
        &self.base
    }

    fn base_mut(&mut self) -> &mut Base {
        &mut self.base
    }
}

/// An integer flag value.
fn int<T: std::str::FromStr<Err = std::num::ParseIntError>>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|e: T::Err| e.to_string())
}

/// A positive integer flag value.
fn positive<T: std::str::FromStr<Err = std::num::ParseIntError> + PartialEq + Default>(
    raw: &str,
) -> Result<T, String> {
    match int(raw)? {
        zero if zero == T::default() => Err("must be positive".into()),
        value => Ok(value),
    }
}

/// A parts-per-million rate (`0..=1_000_000`).
fn ppm(raw: &str) -> Result<u32, String> {
    match int(raw)? {
        rate if rate > 1_000_000 => Err("parts per million, at most 1000000".into()),
        rate => Ok(rate),
    }
}

/// A text flag value (a path).
fn text(raw: &str) -> Result<String, String> {
    Ok(raw.to_string())
}

/// Turns a switch on.
fn on(switch: &mut bool) -> Result<(), String> {
    *switch = true;
    Ok(())
}

/// Parses a `--sizes` list: comma-separated cluster sizes, where `MxK`
/// stands for `K` clusters of `M` processes (`1,4x2,2` = `1,4,4,2`).
fn parse_sizes(raw: &str) -> Result<Vec<usize>, String> {
    /// Far beyond any runnable system; keeps `1x99999999999` from
    /// allocating before the partition is even built.
    const MAX_CLUSTERS: usize = 1 << 20;
    let num = |s: &str| int(s.trim()).map_err(|e| format!("entry {s:?}: {e}"));
    let mut sizes = Vec::new();
    for entry in raw.split(',') {
        let (size, count) = match entry.split_once('x') {
            Some((size, count)) => (num(size)?, num(count)?),
            None => (num(entry)?, 1),
        };
        if count > MAX_CLUSTERS - sizes.len() {
            return Err(format!("more than {MAX_CLUSTERS} clusters"));
        }
        sizes.extend(std::iter::repeat_n(size, count));
    }
    Ok(sizes)
}

/// Parses the 1-based `pI` of a crash or churn spec.
fn parse_process(raw: &str) -> Result<ProcessId, String> {
    match int(raw.trim_start_matches('p'))? {
        0 => Err("process numbering is 1-based".into()),
        pid => Ok(ProcessId(pid - 1)),
    }
}

/// Parses `pI@K` (step trigger), `pI@rR` (round trigger), or `pI@tT`
/// (virtual-time trigger) into a process plus trigger.
fn parse_crash(spec: &str) -> Result<(ProcessId, CrashTrigger), String> {
    let (proc_part, when_part) = spec
        .split_once('@')
        .ok_or("expected pI@K, pI@rR, or pI@tT")?;
    let pid = parse_process(proc_part)?;
    let when = if let Some(round) = when_part.strip_prefix('r') {
        CrashTrigger::AtRound(int(round)?)
    } else if let Some(at) = when_part.strip_prefix('t') {
        CrashTrigger::AtTime(VirtualTime::from_ticks(int(at)?))
    } else {
        CrashTrigger::AtStep(int(when_part)?)
    };
    Ok((pid, when))
}

/// Parses `pI@tT+rR` (leave at time T, rejoin at time R) or `pI@tT`
/// (leave only) into a process plus tick times.
fn parse_churn(spec: &str) -> Result<(ProcessId, u64, Option<u64>), String> {
    let bad = "expected pI@tT+rR or pI@tT";
    let (proc_part, when_part) = spec.split_once('@').ok_or(bad)?;
    let pid = parse_process(proc_part)?;
    let when_part = when_part.strip_prefix('t').ok_or(bad)?;
    let (leave, rejoin) = match when_part.split_once('+') {
        Some((l, r)) => (int(l)?, Some(int(r.strip_prefix('r').ok_or(bad)?)?)),
        None => (int(when_part)?, None),
    };
    if let Some(r) = rejoin.filter(|&r| r <= leave) {
        return Err(format!(
            "churn rejoin time {r} must be after leave time {leave}"
        ));
    }
    Ok((pid, leave, rejoin))
}

/// Parses a `--serve` arrival spec: `periodic:P[:PHASE]`,
/// `poisson:MEAN_GAP`, `bursty:N:P[:PHASE]`, or `closed:LO:HI`.
fn parse_arrival(spec: &str) -> Result<ArrivalProcess, String> {
    use ArrivalProcess::*;
    let (kind, numbers) = spec.split_once(':').unwrap_or((spec, ""));
    let numbers = numbers.split(':').map(int).collect::<Result<Vec<u64>, _>>();
    Ok(match (kind, numbers.as_deref()) {
        ("periodic", Ok(&[period])) => Periodic { period, phase: 0 },
        ("periodic", Ok(&[period, phase])) => Periodic { period, phase },
        ("poisson", Ok(&[mean_gap])) => Poisson { mean_gap },
        ("bursty", Ok(&[burst, period])) => Bursty {
            burst,
            period,
            phase: 0,
        },
        ("bursty", Ok(&[burst, period, phase])) => Bursty {
            burst,
            period,
            phase,
        },
        ("closed", Ok(&[think_lo, think_hi])) => ClosedLoop { think_lo, think_hi },
        _ => {
            return Err(
                "use periodic:P[:PHASE], poisson:MEAN_GAP, bursty:N:P[:PHASE], \
                 or closed:LO:HI"
                    .into(),
            )
        }
    })
}

/// Parses a `--churn-poisson` spec: `PPM[:DOWN[:HORIZON]]`.
fn parse_churn_poisson(spec: &str) -> Result<PoissonChurn, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() > 3 {
        return Err("use PPM[:DOWN[:HORIZON]]".into());
    }
    let ticks = |i: usize, default| parts.get(i).map_or(Ok(default), |s| int(s));
    Ok(PoissonChurn {
        rate_ppm: ppm(parts[0])?,
        mean_down_ticks: ticks(1, PoissonChurn::DEFAULT_MEAN_DOWN)?,
        horizon_ticks: ticks(2, PoissonChurn::DEFAULT_HORIZON)?,
    })
}

fn build_churn(
    entries: &[(ProcessId, u64, Option<u64>)],
    poisson: Option<PoissonChurn>,
) -> ChurnPlan {
    let mut plan = ChurnPlan::new();
    for &(p, leave, rejoin) in entries {
        let leave = VirtualTime::from_ticks(leave);
        plan = match rejoin {
            Some(r) => plan.leave_rejoin(p, leave, VirtualTime::from_ticks(r)),
            None => plan.leave(p, leave),
        };
    }
    match poisson {
        Some(spec) => plan.poisson_spec(spec),
        None => plan,
    }
}

fn build_plan(entries: &[(ProcessId, CrashTrigger)]) -> CrashPlan {
    let mut plan = CrashPlan::new();
    for &(p, trigger) in entries {
        plan.insert(p, trigger);
    }
    plan
}

/// The `--engine` spelling of `engine`.
fn engine_name(engine: Engine) -> &'static str {
    match engine {
        Engine::Threads => "threads",
        Engine::EventDriven => "event",
        Engine::ParallelEvent { .. } => "par",
    }
}

/// `result`'s value, or one `error: {what}: …` line and exit 2.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, what: impl std::fmt::Display) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        exit(2)
    })
}

/// Standard output, locked once per process. `println!` panics when the
/// reader has gone away (`ofa … | head`); a write here that fails ends
/// the printing instead, and the run exits with its own status.
struct Out {
    lock: std::io::StdoutLock<'static>,
    closed: bool,
}

impl Out {
    fn stdout() -> Out {
        Out {
            lock: std::io::stdout().lock(),
            closed: false,
        }
    }

    fn print(&mut self, args: std::fmt::Arguments<'_>) {
        if self.closed {
            return;
        }
        if let Err(e) = self.lock.write_fmt(args) {
            self.closed = true;
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                eprintln!("error: writing stdout: {e}");
            }
        }
    }
}

/// `println!` onto an [`Out`].
macro_rules! say {
    ($out:expr) => {
        $out.print(format_args!("\n"))
    };
    ($out:expr, $($arg:tt)*) => {
        $out.print(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "explore") {
        explore_main(&args[1..]);
        return;
    }
    let opts: Opts = parse_or_exit(&args);

    let mut stdout = Out::stdout();
    if let Some(path) = &opts.resume {
        run_resumed(&opts, path, &mut stdout);
        return;
    }

    let mut scenario = opts
        .base
        .scenario()
        .crashes(build_plan(&opts.crashes))
        .churn(build_churn(&opts.churn, opts.churn_poisson))
        .seed(opts.base.seed);
    let n = scenario.partition.n();
    let ones = opts.base.ones(n);
    let clients = opts.clients.unwrap_or(n as u64);
    if let Some(max) = opts.max_events {
        scenario = scenario.max_events(max);
    }
    if let Some(arrival) = opts.serve {
        scenario = scenario.replicated_log_traffic(
            opts.base.algorithm,
            opts.slots,
            TrafficSpec {
                arrival,
                clients,
                queue_cap: opts.queue_cap,
                batch_max: opts.batch_max,
                batch_min: opts.batch_min,
            },
        );
    }
    if let Some(engine) = opts.engine {
        scenario = scenario.engine(engine);
    }
    if opts.trace {
        scenario = scenario.keep_trace();
    }
    if let Err(e) = scenario.validate() {
        eprintln!("error: {e}");
        exit(2);
    }

    if !opts.base.json {
        say!(stdout, "partition: {}", scenario.partition);
        say!(
            stdout,
            "algorithm: {} | proposals: {ones}x1 + {}x0 | seed {}",
            opts.base.algorithm,
            n - ones,
            opts.base.seed
        );
        for (p, when) in &opts.crashes {
            match when {
                CrashTrigger::AtStep(k) => say!(stdout, "crash: p{} at step {k}", p.0 + 1),
                CrashTrigger::AtRound(r) => say!(stdout, "crash: p{} at round {r}", p.0 + 1),
                CrashTrigger::AtTime(t) => {
                    say!(stdout, "crash: p{} at time {}", p.0 + 1, t.ticks())
                }
            }
        }
        if opts.base.loss_ppm > 0 || opts.base.dup_ppm > 0 {
            say!(
                stdout,
                "network: loss {} ppm | dup {} ppm",
                opts.base.loss_ppm,
                opts.base.dup_ppm
            );
        }
        for &(p, leave, rejoin) in &opts.churn {
            match rejoin {
                Some(r) => say!(
                    stdout,
                    "churn: p{} leaves at t{leave}, rejoins at t{r}",
                    p.0 + 1
                ),
                None => say!(stdout, "churn: p{} leaves at t{leave}", p.0 + 1),
            }
        }
        if let Some(spec) = &opts.churn_poisson {
            say!(
                stdout,
                "churn: poisson arrivals at {} ppm | mean downtime {} | horizon {}",
                spec.rate_ppm,
                spec.mean_down_ticks,
                spec.horizon_ticks
            );
        }
        if let Some(arrival) = &opts.serve {
            say!(
                stdout,
                "serving: {arrival:?} | {clients} clients | {} slots | queue cap {} | batch {}..={}",
                opts.slots,
                opts.queue_cap,
                opts.batch_min,
                opts.batch_max,
            );
        }
    }

    if opts.checkpointing() {
        let first = opts.checkpoint_at.unwrap_or(opts.checkpoint_every);
        run_legs(
            Sim.run_until(&scenario, VirtualTime::from_ticks(first)),
            &opts,
            scenario.max_events,
            &mut stdout,
        );
        return;
    }

    let backend: &dyn Backend = if opts.runtime { &Threads } else { &Sim };
    report(
        &backend.run(&scenario),
        &opts,
        scenario.max_events,
        &mut stdout,
    );
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

/// Runs `ofa explore`: build the base schedule and the search config,
/// run (or resume) the explorer, then write the log/corpus/state and
/// report. Exit codes: 0 finished clean, 1 finished having found an
/// agreement violation, 3 paused on `--wall-secs`.
fn explore_main(args: &[String]) {
    let opts: ExploreOpts = parse_or_exit(args);
    let mut stdout = Out::stdout();
    // No event cap: mutated schedules always terminate via the round
    // budget, and the default 5M-event guard would silently truncate
    // cluster-scale runs into "nobody decided" fitness noise.
    let base = opts.base.scenario().max_events(u64::MAX);
    let sized = Limits::for_n(base.partition.n());
    let config = ExploreConfig {
        seed: opts.base.seed,
        base,
        limits: Limits {
            max_crashes: sized.max_crashes,
            max_churn: sized.max_churn,
            ..opts.config.limits
        },
        ..opts.config
    };

    let mut explorer = match &opts.state {
        Some(path) if std::path::Path::new(path).exists() => {
            let text = or_exit(
                std::fs::read_to_string(path),
                format_args!("reading {path}"),
            );
            let state: SearchState = or_exit(
                serde_json::from_str(&text),
                format_args!("decoding search state {path}"),
            );
            let explorer = or_exit(
                Explorer::resume(config, state),
                format_args!("resuming search state {path}"),
            );
            if !opts.base.json {
                let generation = explorer.state().generation;
                eprintln!("resumed: {path} at generation {generation}");
            }
            explorer
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
        if !opts.base.json {
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
        let log: String = explorer
            .state()
            .history
            .iter()
            .map(|rec| or_exit(serde_json::to_string(rec), "serializing search log") + "\n")
            .collect();
        or_exit(std::fs::write(path, log), format_args!("writing {path}"));
    }

    if !finished {
        let path = opts.state.as_deref().expect("--wall-secs requires --state");
        let json = or_exit(
            serde_json::to_string(explorer.state()),
            "serializing search state",
        );
        or_exit(std::fs::write(path, json), format_args!("writing {path}"));
        if opts.base.json {
            say!(
                stdout,
                "{{\"paused_at_generation\":{},\"state\":{:?}}}",
                explorer.state().generation,
                path
            );
        } else {
            say!(
                stdout,
                "paused at generation {} — state written to {path} (rerun to resume)",
                explorer.state().generation
            );
        }
        exit(3);
    }

    if let Some(dir) = &opts.emit_corpus {
        let count = or_exit(
            write_corpus(std::path::Path::new(dir), explorer.corpus()),
            format_args!("writing corpus to {dir}"),
        );
        if !opts.base.json {
            eprintln!("corpus: {count} entries written to {dir}");
        }
    }

    let state = explorer.state();
    let best = explorer
        .best()
        .expect("a finished search evaluated something");
    if opts.base.json {
        let summary = or_exit(serde_json::to_string(state), "serializing summary");
        say!(stdout, "{summary}");
    } else {
        say!(
            stdout,
            "explored {} generations x {} candidates | {} simulated events",
            state.generation,
            explorer.config().population,
            state.events_spent
        );
        say!(
            stdout,
            "baseline: {}",
            fitness_text(&state.baseline.unwrap_or_default())
        );
        say!(
            stdout,
            "worst (gen {} slot {}): {}",
            best.found.generation,
            best.found.slot,
            fitness_text(&best.fitness)
        );
        let json = or_exit(
            serde_json::to_string(&best.scenario),
            "serializing schedule",
        );
        say!(stdout, "worst schedule: {json}");
        say!(stdout, "corpus: {} entries held", state.corpus.len());
    }
    if best.fitness.violation {
        if !opts.base.json {
            say!(
                stdout,
                "\nagreement: VIOLATED by the worst schedule — found a bug"
            );
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
fn run_resumed(opts: &Opts, path: &str, stdout: &mut Out) {
    let text = or_exit(
        std::fs::read_to_string(path),
        format_args!("reading {path}"),
    );
    let mut snap: Snapshot = or_exit(
        serde_json::from_str(&text),
        format_args!("decoding snapshot {path}"),
    );
    let spec = DivergeSpec {
        seed: opts.diverge_seed,
        coin: opts.diverge_coin.clone(),
        extra_crashes: build_plan(&opts.diverge_crashes),
    };
    snap.scenario = spec.apply(&snap.scenario);
    if let Some(engine) = opts.engine {
        snap.scenario = snap.scenario.engine(engine);
    }
    or_exit(Sim.check_snapshot(&snap), format_args!("resuming {path}"));
    if !opts.base.json {
        say!(stdout, "resumed: {path} at t={}", snap.at.ticks());
    }
    let resumed_at = snap.at.ticks();
    if opts.checkpointing() {
        let first = opts
            .checkpoint_at
            .unwrap_or(resumed_at + opts.checkpoint_every);
        run_legs(
            Sim.resume_until(&snap, VirtualTime::from_ticks(first)),
            opts,
            snap.scenario.max_events,
            stdout,
        );
    } else {
        report(&Sim.resume(&snap), opts, snap.scenario.max_events, stdout);
    }
}

/// Drives a checkpointed run leg by leg. A single `--checkpoint-at` cut
/// pauses unconditionally; under `--budget-secs` the run advances by
/// `--checkpoint-every` ticks per leg until the wall-clock budget
/// expires. A pause writes the snapshot and exits 3. `max_events` is the
/// scenario's event budget, for the final report.
fn run_legs(mut pending: RunOutcome, opts: &Opts, max_events: u64, stdout: &mut Out) {
    let deadline = opts
        .budget_secs
        .map(|secs| Instant::now() + Duration::from_secs(secs));
    loop {
        match pending {
            RunOutcome::Done(out) => {
                report(&out, opts, max_events, stdout);
                return;
            }
            RunOutcome::Paused(snap) => {
                // A fixed cut always pauses there.
                let fixed = opts.checkpoint_at.is_some();
                if fixed || deadline.is_none_or(|deadline| Instant::now() >= deadline) {
                    save_snapshot(&snap, opts, stdout);
                    exit(3);
                }
                let next = snap.at.ticks() + opts.checkpoint_every;
                pending = Sim.resume_until(&snap, VirtualTime::from_ticks(next));
            }
        }
    }
}

fn save_snapshot(snap: &Snapshot, opts: &Opts, stdout: &mut Out) {
    let json = or_exit(serde_json::to_string(snap), "serializing snapshot");
    or_exit(
        std::fs::write(&opts.checkpoint_file, json),
        format_args!("writing {}", opts.checkpoint_file),
    );
    if opts.base.json {
        say!(
            stdout,
            "{{\"paused_at\":{},\"checkpoint\":{:?}}}",
            snap.at.ticks(),
            opts.checkpoint_file
        );
    } else {
        say!(
            stdout,
            "paused at t={} — snapshot written to {} (resume with --resume)",
            snap.at.ticks(),
            opts.checkpoint_file
        );
    }
}

/// Prints the outcome (JSON or human-readable), then exits 1 on an
/// agreement violation, or 4 — with the cause on stderr — when a correct
/// process ended undecided under the `max_events` budget the run had.
fn report(out: &Outcome, opts: &Opts, max_events: u64, stdout: &mut Out) {
    if opts.base.json {
        let json = or_exit(serde_json::to_string(out), "serializing outcome");
        say!(stdout, "{json}");
    } else {
        print_report(out, opts, stdout);
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
fn print_report(out: &Outcome, opts: &Opts, stdout: &mut Out) {
    let n = out.decisions.len();

    if let Some(events) = &out.events {
        for e in events {
            say!(stdout, "{e}");
        }
        say!(stdout);
    }
    if opts.runtime {
        say!(stdout, "— real-thread run: {:?} —", out.elapsed);
    } else {
        let engine = match out.engine_used {
            Some(engine) => format!(" [{}]", engine_name(engine)),
            None => String::new(),
        };
        say!(
            stdout,
            "— simulated run{engine}: {} events, end {} —",
            out.events_processed,
            out.end_time
        );
    }
    for (i, d) in out.decisions.iter().enumerate() {
        match d {
            Some(d) => say!(stdout, "  p{}: {d}", i + 1),
            None => say!(stdout, "  p{}: {}", i + 1, halt_text(out.halts[i])),
        }
    }
    let hash = out.trace_hash.map(|h| format!(" | trace hash {h:016x}"));
    say!(
        stdout,
        "  messages {} | cluster proposes {}{}",
        out.counters.messages_sent,
        out.counters.cluster_proposes,
        hash.unwrap_or_default()
    );
    let s = &out.service;
    if !s.is_empty() {
        say!(
            stdout,
            "  served: {} submitted | {} committed | {} shed | {} batches | max queue {}",
            s.submitted,
            s.committed,
            s.shed,
            s.batches,
            s.max_queue_depth
        );
        say!(
            stdout,
            "  latency p50 {} | p90 {} | p99 {} ticks | throughput {:.2} cmds/kilotick",
            s.latency.percentile(50),
            s.latency.percentile(90),
            s.latency.percentile(99),
            s.throughput_per_kilotick(out.end_time.ticks()),
        );
    }
    say!(
        stdout,
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

    fn parse_line<O: Command>(line: &str) -> Result<O, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
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
        let opts = parse_line::<Opts>("--sizes 100x10 --max-events 10000000").unwrap();
        assert_eq!(opts.base.sizes, vec![100; 10]);
        assert_eq!(opts.max_events, Some(10_000_000));
        assert_eq!(parse_line::<Opts>("--sizes 2,2").unwrap().max_events, None);
        for junk in ["--max-events", "--max-events lots", "--max-events -5"] {
            assert!(
                parse_line::<Opts>(junk).is_err(),
                "{junk:?} must be refused"
            );
        }
        assert!(parse_line::<Opts>("--runtime --max-events 10").is_err());
    }

    /// A value each metavar accepts.
    fn sample(metavar: &str) -> &'static str {
        match metavar {
            "a,b,c" => "1,4x2,2",
            "lc|cc" => "lc",
            "pI@K" | "SPEC" => "p2@r3",
            "pI@tT+rR" => "p2@t5+r9",
            "PPM[:DOWN[:HORIZON]]" => "100:50:1000",
            "E" => "par=2",
            "ARRIVAL" => "bursty:4:100:7",
            "C" => "alternating",
            "F" | "DIR" | "FILE" => "out.json",
            _ => "3",
        }
    }

    /// Each entry parses a sample value, and `--help` lists it once.
    fn check_table<O: Command>() {
        let help = help::<O>();
        for f in O::table().into_iter().flat_map(|(_, flags)| flags) {
            let listed = help.lines().filter(|line| {
                line.strip_prefix("    ").and_then(|l| l.split(' ').next()) == Some(f.name)
            });
            assert_eq!(listed.count(), 1, "{} in\n{help}", f.name);
            if f.name != HELP {
                let value = f.metavar.map_or("", sample);
                assert_eq!(
                    (f.set)(&mut O::default(), value),
                    Ok(()),
                    "{} {value}",
                    f.name
                );
            }
        }
    }

    #[test]
    fn every_entry_parses_a_sample_and_help_lists_it_once() {
        check_table::<Opts>();
        check_table::<ExploreOpts>();
        let run = help::<Opts>();
        assert!(run.contains("[default: 1,4,2]"), "{run}");
        assert!(run.contains("[default: 512]"), "{run}");
        assert!(help::<ExploreOpts>().contains("[default: 64]"));
    }

    #[test]
    fn a_junk_integer_is_refused_with_the_flags_name() {
        for line in [
            "--seed x",
            "--slots -1",
            "--max-rounds 1.5",
            "--crash p1@rx",
        ] {
            let err = parse_line::<Opts>(line).err().expect("refused");
            let flag = line.split(' ').next().unwrap();
            assert!(err.starts_with(&format!("bad {flag} ")), "{line}: {err}");
        }
        let err = parse_line::<ExploreOpts>("--population many").err();
        assert!(err.is_some_and(|e| e.starts_with("bad --population ")));
    }

    #[test]
    fn a_companion_flag_is_accepted_beside_the_flag_it_needs() {
        for line in [
            "--serve poisson:9 --slots 8 --clients 5",
            "--budget-secs 60 --checkpoint-every 5000",
            "--checkpoint-at 9 --checkpoint-file f.json",
            "--resume f.json --diverge-seed 3",
        ] {
            assert!(parse_line::<Opts>(line).is_ok(), "{line}");
        }
    }
}
