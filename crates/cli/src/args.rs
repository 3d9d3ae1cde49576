//! Argument parsing for the `anr` binary.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

/// Which method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodArg {
    /// Our method (a): maximize the stable link ratio.
    OursA,
    /// Our method (b): minimize the moving distance.
    OursB,
    /// Direct-translation baseline.
    Direct,
    /// Hungarian baseline.
    Hungarian,
    /// All four, in the paper's order.
    All,
}

impl MethodArg {
    fn parse(s: &str) -> Result<Self, ArgError> {
        match s {
            "a" | "ours_a" => Ok(MethodArg::OursA),
            "b" | "ours_b" => Ok(MethodArg::OursB),
            "direct" | "direct_translation" => Ok(MethodArg::Direct),
            "hungarian" | "hung" => Ok(MethodArg::Hungarian),
            "all" => Ok(MethodArg::All),
            other => Err(ArgError::BadValue {
                flag: "--method",
                value: other.to_string(),
                expected: "a | b | direct | hungarian | all",
            }),
        }
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `anr scenario --id N [--method M] [--separation S] [--robots R]`
    Scenario {
        /// Scenario id (1–7).
        id: u8,
        /// Method selection.
        method: MethodArg,
        /// FoI separation in communication ranges.
        separation: f64,
        /// Robot count.
        robots: usize,
    },
    /// `anr sweep --id N [--quick] [--charts DIR]`
    Sweep {
        /// Scenario id (1–7).
        id: u8,
        /// Use the short separation sweep.
        quick: bool,
        /// Optional chart output directory.
        charts: Option<PathBuf>,
    },
    /// `anr render --id N [--out DIR] [--separation S]`
    Render {
        /// Scenario id (1–7).
        id: u8,
        /// Output directory for the SVGs.
        out: PathBuf,
        /// FoI separation in communication ranges.
        separation: f64,
    },
    /// `anr mission [--stops K] [--robots R]`
    Mission {
        /// Number of FoIs on the tour (≥ 2).
        stops: usize,
        /// Robot count.
        robots: usize,
    },
    /// `anr fault-sweep [--id N] [--robots R] [--loss CSV] [--crashes CSV]
    /// [--seed S] [--workers W] [--out FILE]`
    FaultSweep {
        /// Scenario id (1–7) whose deployment supplies the topology.
        id: u8,
        /// Robot count.
        robots: usize,
        /// Loss probabilities to sweep.
        loss: Vec<f64>,
        /// Crash counts to sweep.
        crashes: Vec<usize>,
        /// Master seed.
        seed: u64,
        /// Worker threads for the grid (0 = auto).
        workers: usize,
        /// Write the JSON grid here instead of stdout.
        out: Option<PathBuf>,
    },
    /// `anr serve [--port P] [--workers W] [--queue N] [--cache-mb MB]
    /// [--max-requests N]`
    Serve {
        /// TCP port to listen on (0 = OS-assigned; the bound port is
        /// printed before serving starts).
        port: u16,
        /// Plan worker threads (0 = auto).
        workers: usize,
        /// Admission queue capacity; connections beyond it get `Busy`.
        queue: usize,
        /// Plan cache budget in mebibytes (0 disables caching).
        cache_mb: usize,
        /// Stop after this many accepted connections (0 = run until
        /// killed).
        max_requests: u64,
    },
    /// `anr bench [--smoke] [--repeats N] [--tier10k] [--against FILE]
    /// [--distsim] [--large] [--ckpt FILE] [--serve] [--concurrency N]
    /// [--requests N] [--out FILE]`
    Bench {
        /// Tiny problem sizes and one repeat — a CI smoke run.
        smoke: bool,
        /// Timed runs per scenario (min/median/max are reported).
        repeats: usize,
        /// Run the event-engine scaling tier (`anr-distsim`) instead
        /// of the pipeline trajectory.
        distsim: bool,
        /// Distsim tier only: include the 10⁶-robot series.
        large: bool,
        /// Distsim tier only: also write the 10⁴-robot checkpoint
        /// artifact here.
        ckpt: Option<PathBuf>,
        /// Pipeline tier only: also run the 10⁴-robot scale tier
        /// (scenario 1, one end-to-end march).
        tier10k: bool,
        /// Pipeline tier only: committed baseline report to guard
        /// against — exit non-zero when any pipeline stage median
        /// regresses beyond 2× the baseline (plus a 10 ms grace).
        against: Option<PathBuf>,
        /// Run the plan-server load generator (`anr-serve`) instead of
        /// the pipeline trajectory.
        serve: bool,
        /// Serve tier only: concurrent client connections (0 = mode
        /// default).
        concurrency: usize,
        /// Serve tier only: requests per phase (0 = mode default).
        requests: usize,
        /// Where to write the JSON trajectory (default
        /// `BENCH_pipeline.json`, `BENCH_distsim.json` with
        /// `--distsim`, or `BENCH_serve.json` with `--serve`).
        out: PathBuf,
    },
    /// `anr audit [--id N] [--method a|b] [--separation S] [--robots R]`
    Audit {
        /// Scenario id (1–7); `None` audits every bundled scenario.
        id: Option<u8>,
        /// Method whose transition is audited (`all` is rejected).
        method: MethodArg,
        /// FoI separation in communication ranges.
        separation: f64,
        /// Robot count.
        robots: usize,
    },
    /// `anr lint [--root DIR] [--baseline FILE] [--jsonl FILE]
    /// [--graph FILE] [--panics FILE] [--capabilities FILE]
    /// [--models FILE] [--report panics|caps|taint|locks|models]
    /// [--workers N] [--deny] [--write-baseline] [--list-rules]`
    Lint {
        /// Workspace root to scan.
        root: PathBuf,
        /// Baseline file overriding `<root>/lint.allow.toml`.
        baseline: Option<PathBuf>,
        /// Also write the findings as JSONL here.
        jsonl: Option<PathBuf>,
        /// Write the cross-crate call graph (`anr-lint-graph/1`) here.
        graph: Option<PathBuf>,
        /// Write the panic-reachability report (`anr-lint-panics/1`) here.
        panics: Option<PathBuf>,
        /// Write the capability surface (`anr-lint-caps/1`) here.
        capabilities: Option<PathBuf>,
        /// Write the protocol model surface (`anr-lint-models/1`) here.
        models: Option<PathBuf>,
        /// Print an auxiliary report (`panics`, `caps`, `taint`,
        /// `locks`, `models`) instead of the findings.
        report: Option<String>,
        /// Scan worker threads (0 = auto); output is worker-count
        /// independent.
        workers: usize,
        /// Exit non-zero on any non-baselined finding.
        deny: bool,
        /// Regenerate the baseline file instead of reporting.
        write_baseline: bool,
        /// Print the rule table instead of scanning.
        list_rules: bool,
    },
    /// `anr info` — the scenario catalog.
    Info,
    /// `anr help` / `--help`.
    Help,
}

/// A full CLI invocation: global flags plus the subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// `--trace <file.jsonl>`: write every trace event here.
    pub trace: Option<PathBuf>,
    /// The subcommand.
    pub command: Command,
}

/// Argument-parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArgError {
    /// No subcommand given.
    NoCommand,
    /// Unknown subcommand.
    UnknownCommand {
        /// The offending word.
        got: String,
    },
    /// Unknown flag for the subcommand.
    UnknownFlag {
        /// The offending flag.
        flag: String,
    },
    /// A flag is missing its value.
    MissingValue {
        /// The flag without a value.
        flag: String,
    },
    /// A flag's value failed to parse.
    BadValue {
        /// The flag.
        flag: &'static str,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// A required flag is absent.
    MissingFlag {
        /// The absent flag.
        flag: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::NoCommand => write!(f, "no command given (try `anr help`)"),
            ArgError::UnknownCommand { got } => {
                write!(f, "unknown command `{got}` (try `anr help`)")
            }
            ArgError::UnknownFlag { flag } => write!(f, "unknown flag `{flag}`"),
            ArgError::MissingValue { flag } => write!(f, "flag `{flag}` needs a value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "bad value `{value}` for {flag} (expected {expected})"),
            ArgError::MissingFlag { flag } => write!(f, "required flag `{flag}` missing"),
        }
    }
}

impl Error for ArgError {}

/// The help text.
pub(crate) const HELP: &str = "\
anr — optimal marching of autonomous networked robots (ICDCS 2016)

USAGE:
  anr [--trace <file.jsonl>] <command> [flags]

COMMANDS:
  anr scenario --id <1-7> [--method a|b|direct|hungarian|all]
               [--separation <ranges>] [--robots <n>]
               (`march` is an alias for `scenario`)
  anr sweep    --id <1-7> [--quick] [--charts <dir>]
  anr render   --id <1-7> [--out <dir>] [--separation <ranges>]
  anr mission  [--stops <k>] [--robots <n>]
  anr fault-sweep [--id <1-7>] [--robots <n>] [--loss <p,p,...>]
               [--crashes <k,k,...>] [--seed <s>] [--workers <w>]
               [--out <file.json>]
  anr audit    [--id <1-7>] [--method a|b] [--separation <ranges>]
               [--robots <n>]
  anr serve    [--port <p>] [--workers <w>] [--queue <n>]
               [--cache-mb <mb>] [--max-requests <n>]
  anr bench    [--smoke] [--repeats <n>] [--tier10k] [--against <f>]
               [--distsim] [--large] [--ckpt <file>]
               [--serve] [--concurrency <n>] [--requests <n>]
               [--out <file.json>]
  anr lint     [--root <dir>] [--baseline <file>] [--jsonl <file>]
               [--graph <file>] [--panics <file>] [--capabilities <file>]
               [--models <file>] [--report panics|caps|taint|locks|models]
               [--workers <n>] [--deny] [--write-baseline] [--list-rules]
  anr info
  anr help

GLOBAL FLAGS:
  --trace <file.jsonl>   write structured trace events (pipeline stage
                         spans, solver iterations, audit violations,
                         fault-sweep cells) as JSON Lines

`anr audit` re-checks the continuous-time connectivity guarantee with
the closed-form per-link extremum (no sampling) and exits non-zero if
any audited transition ever disconnects.

`anr fault-sweep` runs the grid on the fault-injecting event engine
(anr-distsim): dormant robots and idle rounds cost nothing, so large
swarms fit the budget. `anr bench --distsim` times that engine's
n-scaling tier
(10k and 100k robots; 10⁶ with --large) plus checkpoint save/restore,
writing BENCH_distsim.json; `--ckpt <file>` also writes the 10k-robot
snapshot as an artifact.

`anr serve` runs the marching-as-a-service plan server on localhost:
length-prefixed framed requests (scenario id or custom FoI polygon,
robot count, seed, march-config overrides) are answered with a metrics
header plus the trajectory timeline in bounded chunks, behind a
content-addressed plan cache and a bounded worker pool (overload gets
an explicit Busy frame). The bound port is printed on startup. `anr
bench --serve` drives a server with hundreds of concurrent clients and
writes cold/hot latency percentiles, throughput, and cache-hit
byte-identity to BENCH_serve.json.

`anr lint` runs the workspace determinism & panic-safety analyzer
(anr-lint) against the checked-in `lint.allow.toml` baseline; with
`--deny` it exits non-zero on any non-baselined finding. `--graph` and
`--panics` write the cross-crate call graph and pub-surface panic
reachability as JSONL; `--report panics` prints the latter instead of
the findings; `--write-baseline` regenerates the baseline in place.
";

struct Cursor {
    args: Vec<String>,
    pos: usize,
}

impl Cursor {
    fn next(&mut self) -> Option<String> {
        let v = self.args.get(self.pos).cloned();
        if v.is_some() {
            self.pos += 1;
        }
        v
    }

    fn value_for(&mut self, flag: &str) -> Result<String, ArgError> {
        self.next().ok_or(ArgError::MissingValue {
            flag: flag.to_string(),
        })
    }
}

fn parse_num<T: std::str::FromStr>(
    flag: &'static str,
    raw: &str,
    expected: &'static str,
) -> Result<T, ArgError> {
    raw.parse().map_err(|_| ArgError::BadValue {
        flag,
        value: raw.to_string(),
        expected,
    })
}

/// Parses a comma-separated list like `0,0.1,0.2`.
fn parse_list<T: std::str::FromStr>(
    flag: &'static str,
    raw: &str,
    expected: &'static str,
) -> Result<Vec<T>, ArgError> {
    raw.split(',')
        .map(|part| parse_num(flag, part.trim(), expected))
        .collect()
}

/// Parses command-line arguments (exclusive of the program name).
///
/// # Errors
///
/// [`ArgError`] describing the first problem encountered.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, ArgError> {
    let mut cur = Cursor {
        args: args.into_iter().collect(),
        pos: 0,
    };
    let cmd = cur.next().ok_or(ArgError::NoCommand)?;
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "info" => Ok(Command::Info),
        "audit" => {
            let mut id = None;
            let mut method = MethodArg::OursA;
            let mut separation = 30.0;
            let mut robots = 144usize;
            while let Some(flag) = cur.next() {
                match flag.as_str() {
                    "--id" => id = Some(parse_num::<u8>("--id", &cur.value_for("--id")?, "1-7")?),
                    "--method" => method = MethodArg::parse(&cur.value_for("--method")?)?,
                    "--separation" => {
                        separation =
                            parse_num("--separation", &cur.value_for("--separation")?, "a number")?
                    }
                    "--robots" => {
                        robots = parse_num("--robots", &cur.value_for("--robots")?, "an integer")?
                    }
                    other => {
                        return Err(ArgError::UnknownFlag {
                            flag: other.to_string(),
                        })
                    }
                }
            }
            Ok(Command::Audit {
                id,
                method,
                separation,
                robots,
            })
        }
        "scenario" | "march" => {
            let mut id = None;
            let mut method = MethodArg::All;
            let mut separation = 30.0;
            let mut robots = 144usize;
            while let Some(flag) = cur.next() {
                match flag.as_str() {
                    "--id" => id = Some(parse_num::<u8>("--id", &cur.value_for("--id")?, "1-7")?),
                    "--method" => method = MethodArg::parse(&cur.value_for("--method")?)?,
                    "--separation" => {
                        separation =
                            parse_num("--separation", &cur.value_for("--separation")?, "a number")?
                    }
                    "--robots" => {
                        robots = parse_num("--robots", &cur.value_for("--robots")?, "an integer")?
                    }
                    other => {
                        return Err(ArgError::UnknownFlag {
                            flag: other.to_string(),
                        })
                    }
                }
            }
            Ok(Command::Scenario {
                id: id.ok_or(ArgError::MissingFlag { flag: "--id" })?,
                method,
                separation,
                robots,
            })
        }
        "sweep" => {
            let mut id = None;
            let mut quick = false;
            let mut charts = None;
            while let Some(flag) = cur.next() {
                match flag.as_str() {
                    "--id" => id = Some(parse_num::<u8>("--id", &cur.value_for("--id")?, "1-7")?),
                    "--quick" => quick = true,
                    "--charts" => charts = Some(PathBuf::from(cur.value_for("--charts")?)),
                    other => {
                        return Err(ArgError::UnknownFlag {
                            flag: other.to_string(),
                        })
                    }
                }
            }
            Ok(Command::Sweep {
                id: id.ok_or(ArgError::MissingFlag { flag: "--id" })?,
                quick,
                charts,
            })
        }
        "render" => {
            let mut id = None;
            let mut out = PathBuf::from("target/figures");
            let mut separation = 30.0;
            while let Some(flag) = cur.next() {
                match flag.as_str() {
                    "--id" => id = Some(parse_num::<u8>("--id", &cur.value_for("--id")?, "1-7")?),
                    "--out" => out = PathBuf::from(cur.value_for("--out")?),
                    "--separation" => {
                        separation =
                            parse_num("--separation", &cur.value_for("--separation")?, "a number")?
                    }
                    other => {
                        return Err(ArgError::UnknownFlag {
                            flag: other.to_string(),
                        })
                    }
                }
            }
            Ok(Command::Render {
                id: id.ok_or(ArgError::MissingFlag { flag: "--id" })?,
                out,
                separation,
            })
        }
        "mission" => {
            let mut stops = 3usize;
            let mut robots = 144usize;
            while let Some(flag) = cur.next() {
                match flag.as_str() {
                    "--stops" => {
                        stops = parse_num("--stops", &cur.value_for("--stops")?, "an integer ≥ 2")?
                    }
                    "--robots" => {
                        robots = parse_num("--robots", &cur.value_for("--robots")?, "an integer")?
                    }
                    other => {
                        return Err(ArgError::UnknownFlag {
                            flag: other.to_string(),
                        })
                    }
                }
            }
            Ok(Command::Mission { stops, robots })
        }
        "fault-sweep" => {
            let mut id = 1u8;
            let mut robots = 64usize;
            let mut loss = vec![0.0, 0.05, 0.1, 0.2];
            let mut crashes = vec![0usize, 1, 2];
            let mut seed = 42u64;
            let mut workers = 0usize;
            let mut out = None;
            while let Some(flag) = cur.next() {
                match flag.as_str() {
                    "--id" => id = parse_num("--id", &cur.value_for("--id")?, "1-7")?,
                    "--robots" => {
                        robots = parse_num("--robots", &cur.value_for("--robots")?, "an integer")?
                    }
                    "--loss" => {
                        loss = parse_list(
                            "--loss",
                            &cur.value_for("--loss")?,
                            "comma-separated probabilities",
                        )?
                    }
                    "--crashes" => {
                        crashes = parse_list(
                            "--crashes",
                            &cur.value_for("--crashes")?,
                            "comma-separated integers",
                        )?
                    }
                    "--seed" => {
                        seed = parse_num("--seed", &cur.value_for("--seed")?, "an integer")?
                    }
                    "--workers" => {
                        workers = parse_num(
                            "--workers",
                            &cur.value_for("--workers")?,
                            "an integer (0 = auto)",
                        )?
                    }
                    "--out" => out = Some(PathBuf::from(cur.value_for("--out")?)),
                    other => {
                        return Err(ArgError::UnknownFlag {
                            flag: other.to_string(),
                        })
                    }
                }
            }
            Ok(Command::FaultSweep {
                id,
                robots,
                loss,
                crashes,
                seed,
                workers,
                out,
            })
        }
        "serve" => {
            let mut port = 0u16;
            let mut workers = 0usize;
            let mut queue = 1024usize;
            let mut cache_mb = 256usize;
            let mut max_requests = 0u64;
            while let Some(flag) = cur.next() {
                match flag.as_str() {
                    "--port" => port = parse_num("--port", &cur.value_for("--port")?, "0-65535")?,
                    "--workers" => {
                        workers = parse_num(
                            "--workers",
                            &cur.value_for("--workers")?,
                            "an integer (0 = auto)",
                        )?
                    }
                    "--queue" => {
                        queue = parse_num("--queue", &cur.value_for("--queue")?, "an integer ≥ 1")?
                    }
                    "--cache-mb" => {
                        cache_mb = parse_num(
                            "--cache-mb",
                            &cur.value_for("--cache-mb")?,
                            "an integer (0 disables caching)",
                        )?
                    }
                    "--max-requests" => {
                        max_requests = parse_num(
                            "--max-requests",
                            &cur.value_for("--max-requests")?,
                            "an integer (0 = unbounded)",
                        )?
                    }
                    other => {
                        return Err(ArgError::UnknownFlag {
                            flag: other.to_string(),
                        })
                    }
                }
            }
            if queue == 0 {
                return Err(ArgError::BadValue {
                    flag: "--queue",
                    value: "0".to_string(),
                    expected: "an integer ≥ 1",
                });
            }
            Ok(Command::Serve {
                port,
                workers,
                queue,
                cache_mb,
                max_requests,
            })
        }
        "bench" => {
            let mut smoke = false;
            let mut repeats = 5usize;
            let mut distsim = false;
            let mut large = false;
            let mut ckpt = None;
            let mut tier10k = false;
            let mut against = None;
            let mut serve = false;
            let mut concurrency = 0usize;
            let mut requests = 0usize;
            let mut out: Option<PathBuf> = None;
            while let Some(flag) = cur.next() {
                match flag.as_str() {
                    "--smoke" => smoke = true,
                    "--repeats" => {
                        repeats =
                            parse_num("--repeats", &cur.value_for("--repeats")?, "an integer ≥ 1")?
                    }
                    "--distsim" => distsim = true,
                    "--large" => large = true,
                    "--ckpt" => ckpt = Some(PathBuf::from(cur.value_for("--ckpt")?)),
                    "--tier10k" => tier10k = true,
                    "--against" => against = Some(PathBuf::from(cur.value_for("--against")?)),
                    "--serve" => serve = true,
                    "--concurrency" => {
                        concurrency = parse_num(
                            "--concurrency",
                            &cur.value_for("--concurrency")?,
                            "an integer (0 = mode default)",
                        )?
                    }
                    "--requests" => {
                        requests = parse_num(
                            "--requests",
                            &cur.value_for("--requests")?,
                            "an integer (0 = mode default)",
                        )?
                    }
                    "--out" => out = Some(PathBuf::from(cur.value_for("--out")?)),
                    other => {
                        return Err(ArgError::UnknownFlag {
                            flag: other.to_string(),
                        })
                    }
                }
            }
            if repeats == 0 {
                return Err(ArgError::BadValue {
                    flag: "--repeats",
                    value: "0".to_string(),
                    expected: "an integer ≥ 1",
                });
            }
            if serve && distsim {
                return Err(ArgError::BadValue {
                    flag: "--serve",
                    value: "set".to_string(),
                    expected: "at most one of --serve and --distsim",
                });
            }
            if (large || ckpt.is_some()) && !distsim {
                return Err(ArgError::BadValue {
                    flag: if large { "--large" } else { "--ckpt" },
                    value: "set".to_string(),
                    expected: "only valid together with --distsim",
                });
            }
            if (tier10k || against.is_some()) && (distsim || serve) {
                return Err(ArgError::BadValue {
                    flag: if tier10k { "--tier10k" } else { "--against" },
                    value: "set".to_string(),
                    expected: "only valid for the pipeline tier",
                });
            }
            if (concurrency > 0 || requests > 0) && !serve {
                return Err(ArgError::BadValue {
                    flag: if concurrency > 0 {
                        "--concurrency"
                    } else {
                        "--requests"
                    },
                    value: "set".to_string(),
                    expected: "only valid together with --serve",
                });
            }
            let out = out.unwrap_or_else(|| {
                PathBuf::from(if distsim {
                    "BENCH_distsim.json"
                } else if serve {
                    "BENCH_serve.json"
                } else {
                    "BENCH_pipeline.json"
                })
            });
            Ok(Command::Bench {
                smoke,
                repeats,
                distsim,
                large,
                ckpt,
                tier10k,
                against,
                serve,
                concurrency,
                requests,
                out,
            })
        }
        "lint" => {
            let mut root = PathBuf::from(".");
            let mut baseline = None;
            let mut jsonl = None;
            let mut graph = None;
            let mut panics = None;
            let mut capabilities = None;
            let mut models = None;
            let mut report = None;
            let mut workers = 1;
            let mut deny = false;
            let mut write_baseline = false;
            let mut list_rules = false;
            while let Some(flag) = cur.next() {
                match flag.as_str() {
                    "--root" => root = PathBuf::from(cur.value_for("--root")?),
                    "--baseline" => baseline = Some(PathBuf::from(cur.value_for("--baseline")?)),
                    "--jsonl" => jsonl = Some(PathBuf::from(cur.value_for("--jsonl")?)),
                    "--graph" => graph = Some(PathBuf::from(cur.value_for("--graph")?)),
                    "--panics" => panics = Some(PathBuf::from(cur.value_for("--panics")?)),
                    "--capabilities" => {
                        capabilities = Some(PathBuf::from(cur.value_for("--capabilities")?));
                    }
                    "--models" => models = Some(PathBuf::from(cur.value_for("--models")?)),
                    "--report" => {
                        let value = cur.value_for("--report")?;
                        if !matches!(
                            value.as_str(),
                            "panics" | "caps" | "taint" | "locks" | "models"
                        ) {
                            return Err(ArgError::BadValue {
                                flag: "--report",
                                value,
                                expected: "`panics`, `caps`, `taint`, `locks`, or `models`",
                            });
                        }
                        report = Some(value);
                    }
                    "--workers" => {
                        let value = cur.value_for("--workers")?;
                        workers = value.parse().map_err(|_| ArgError::BadValue {
                            flag: "--workers",
                            value,
                            expected: "an integer ≥ 0",
                        })?;
                    }
                    "--deny" => deny = true,
                    "--write-baseline" => write_baseline = true,
                    "--list-rules" => list_rules = true,
                    other => {
                        return Err(ArgError::UnknownFlag {
                            flag: other.to_string(),
                        })
                    }
                }
            }
            Ok(Command::Lint {
                root,
                baseline,
                jsonl,
                graph,
                panics,
                capabilities,
                models,
                report,
                workers,
                deny,
                write_baseline,
                list_rules,
            })
        }
        other => Err(ArgError::UnknownCommand {
            got: other.to_string(),
        }),
    }
}

/// Parses a full invocation: the global `--trace <file>` flag (accepted
/// anywhere on the command line) plus the subcommand.
///
/// # Errors
///
/// [`ArgError`] describing the first problem encountered.
pub fn parse_invocation<I: IntoIterator<Item = String>>(args: I) -> Result<Invocation, ArgError> {
    let mut trace = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--trace" {
            trace = Some(PathBuf::from(it.next().ok_or(ArgError::MissingValue {
                flag: "--trace".to_string(),
            })?));
        } else {
            rest.push(arg);
        }
    }
    Ok(Invocation {
        trace,
        command: parse_args(rest)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Command, ArgError> {
        parse_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_scenario_defaults() {
        let cmd = parse(&["scenario", "--id", "3"]).unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                id: 3,
                method: MethodArg::All,
                separation: 30.0,
                robots: 144,
            }
        );
    }

    #[test]
    fn parses_scenario_full() {
        let cmd = parse(&[
            "scenario",
            "--id",
            "7",
            "--method",
            "b",
            "--separation",
            "50",
            "--robots",
            "64",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Scenario {
                id: 7,
                method: MethodArg::OursB,
                separation: 50.0,
                robots: 64,
            }
        );
    }

    #[test]
    fn method_aliases() {
        assert_eq!(MethodArg::parse("a").unwrap(), MethodArg::OursA);
        assert_eq!(MethodArg::parse("ours_b").unwrap(), MethodArg::OursB);
        assert_eq!(MethodArg::parse("hung").unwrap(), MethodArg::Hungarian);
        assert!(MethodArg::parse("bogus").is_err());
    }

    #[test]
    fn sweep_flags() {
        let cmd = parse(&["sweep", "--id", "2", "--quick", "--charts", "out"]).unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                id: 2,
                quick: true,
                charts: Some(PathBuf::from("out")),
            }
        );
    }

    #[test]
    fn missing_required_id() {
        assert_eq!(
            parse(&["sweep"]),
            Err(ArgError::MissingFlag { flag: "--id" })
        );
    }

    #[test]
    fn missing_value() {
        assert!(matches!(
            parse(&["scenario", "--id"]),
            Err(ArgError::MissingValue { .. })
        ));
    }

    #[test]
    fn unknown_flag_and_command() {
        assert!(matches!(
            parse(&["scenario", "--id", "1", "--bogus", "x"]),
            Err(ArgError::UnknownFlag { .. })
        ));
        assert!(matches!(
            parse(&["frobnicate"]),
            Err(ArgError::UnknownCommand { .. })
        ));
        assert_eq!(parse(&[]), Err(ArgError::NoCommand));
    }

    #[test]
    fn info_parses() {
        assert_eq!(parse(&["info"]).unwrap(), Command::Info);
    }

    #[test]
    fn fault_sweep_defaults() {
        let cmd = parse(&["fault-sweep"]).unwrap();
        assert_eq!(
            cmd,
            Command::FaultSweep {
                id: 1,
                robots: 64,
                loss: vec![0.0, 0.05, 0.1, 0.2],
                crashes: vec![0, 1, 2],
                seed: 42,
                workers: 0,
                out: None,
            }
        );
    }

    #[test]
    fn fault_sweep_full() {
        let cmd = parse(&[
            "fault-sweep",
            "--id",
            "3",
            "--robots",
            "36",
            "--loss",
            "0,0.3",
            "--crashes",
            "0,2,4",
            "--seed",
            "7",
            "--workers",
            "4",
            "--out",
            "grid.json",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::FaultSweep {
                id: 3,
                robots: 36,
                loss: vec![0.0, 0.3],
                crashes: vec![0, 2, 4],
                seed: 7,
                workers: 4,
                out: Some(PathBuf::from("grid.json")),
            }
        );
    }

    #[test]
    fn bench_defaults_and_flags() {
        assert_eq!(
            parse(&["bench"]).unwrap(),
            Command::Bench {
                smoke: false,
                repeats: 5,
                distsim: false,
                large: false,
                ckpt: None,
                tier10k: false,
                against: None,
                serve: false,
                concurrency: 0,
                requests: 0,
                out: PathBuf::from("BENCH_pipeline.json"),
            }
        );
        assert_eq!(
            parse(&["bench", "--smoke", "--repeats", "3", "--out", "b.json"]).unwrap(),
            Command::Bench {
                smoke: true,
                repeats: 3,
                distsim: false,
                large: false,
                ckpt: None,
                tier10k: false,
                against: None,
                serve: false,
                concurrency: 0,
                requests: 0,
                out: PathBuf::from("b.json"),
            }
        );
        assert!(matches!(
            parse(&["bench", "--repeats", "0"]),
            Err(ArgError::BadValue {
                flag: "--repeats",
                ..
            })
        ));
    }

    #[test]
    fn bench_distsim_tier_flags() {
        // --distsim switches the default output file.
        assert_eq!(
            parse(&["bench", "--distsim", "--smoke"]).unwrap(),
            Command::Bench {
                smoke: true,
                repeats: 5,
                distsim: true,
                large: false,
                ckpt: None,
                tier10k: false,
                against: None,
                serve: false,
                concurrency: 0,
                requests: 0,
                out: PathBuf::from("BENCH_distsim.json"),
            }
        );
        assert_eq!(
            parse(&["bench", "--distsim", "--large", "--ckpt", "c.ckpt"]).unwrap(),
            Command::Bench {
                smoke: false,
                repeats: 5,
                distsim: true,
                large: true,
                ckpt: Some(PathBuf::from("c.ckpt")),
                tier10k: false,
                against: None,
                serve: false,
                concurrency: 0,
                requests: 0,
                out: PathBuf::from("BENCH_distsim.json"),
            }
        );
        // Pipeline-tier flags are rejected with --distsim.
        assert!(matches!(
            parse(&["bench", "--distsim", "--tier10k"]),
            Err(ArgError::BadValue {
                flag: "--tier10k",
                ..
            })
        ));
        let parsed = parse(&["bench", "--tier10k", "--against", "base.json"]).unwrap();
        assert!(matches!(
            parsed,
            Command::Bench {
                tier10k: true,
                ref against,
                ..
            } if against.as_deref() == Some(std::path::Path::new("base.json"))
        ));
        // --large / --ckpt only make sense for the distsim tier.
        assert!(matches!(
            parse(&["bench", "--large"]),
            Err(ArgError::BadValue {
                flag: "--large",
                ..
            })
        ));
        assert!(matches!(
            parse(&["bench", "--ckpt", "c.ckpt"]),
            Err(ArgError::BadValue { flag: "--ckpt", .. })
        ));
    }

    #[test]
    fn serve_defaults_and_flags() {
        assert_eq!(
            parse(&["serve"]).unwrap(),
            Command::Serve {
                port: 0,
                workers: 0,
                queue: 1024,
                cache_mb: 256,
                max_requests: 0,
            }
        );
        assert_eq!(
            parse(&[
                "serve",
                "--port",
                "4800",
                "--workers",
                "4",
                "--queue",
                "32",
                "--cache-mb",
                "16",
                "--max-requests",
                "100",
            ])
            .unwrap(),
            Command::Serve {
                port: 4800,
                workers: 4,
                queue: 32,
                cache_mb: 16,
                max_requests: 100,
            }
        );
        assert!(matches!(
            parse(&["serve", "--queue", "0"]),
            Err(ArgError::BadValue {
                flag: "--queue",
                ..
            })
        ));
        assert!(matches!(
            parse(&["serve", "--port", "99999"]),
            Err(ArgError::BadValue { flag: "--port", .. })
        ));
    }

    #[test]
    fn bench_serve_tier_flags() {
        // --serve switches the default output file.
        assert_eq!(
            parse(&["bench", "--serve", "--smoke"]).unwrap(),
            Command::Bench {
                smoke: true,
                repeats: 5,
                distsim: false,
                large: false,
                ckpt: None,
                tier10k: false,
                against: None,
                serve: true,
                concurrency: 0,
                requests: 0,
                out: PathBuf::from("BENCH_serve.json"),
            }
        );
        assert!(matches!(
            parse(&[
                "bench",
                "--serve",
                "--concurrency",
                "200",
                "--requests",
                "400"
            ])
            .unwrap(),
            Command::Bench {
                serve: true,
                concurrency: 200,
                requests: 400,
                ..
            }
        ));
        // The serve tier excludes the other tiers and their flags.
        assert!(matches!(
            parse(&["bench", "--serve", "--distsim"]),
            Err(ArgError::BadValue {
                flag: "--serve",
                ..
            })
        ));
        assert!(matches!(
            parse(&["bench", "--serve", "--tier10k"]),
            Err(ArgError::BadValue {
                flag: "--tier10k",
                ..
            })
        ));
        // Client-load flags make no sense without --serve.
        assert!(matches!(
            parse(&["bench", "--concurrency", "9"]),
            Err(ArgError::BadValue {
                flag: "--concurrency",
                ..
            })
        ));
        assert!(matches!(
            parse(&["bench", "--requests", "9"]),
            Err(ArgError::BadValue {
                flag: "--requests",
                ..
            })
        ));
    }

    #[test]
    fn fault_sweep_bad_list_rejected() {
        assert!(matches!(
            parse(&["fault-sweep", "--loss", "0,zebra"]),
            Err(ArgError::BadValue { flag: "--loss", .. })
        ));
    }

    #[test]
    fn help_variants() {
        for h in [&["help"][..], &["--help"], &["-h"]] {
            assert_eq!(parse(h).unwrap(), Command::Help);
        }
    }

    #[test]
    fn march_is_a_scenario_alias() {
        assert_eq!(
            parse(&["march", "--id", "2"]).unwrap(),
            parse(&["scenario", "--id", "2"]).unwrap(),
        );
    }

    #[test]
    fn audit_defaults_and_flags() {
        assert_eq!(
            parse(&["audit"]).unwrap(),
            Command::Audit {
                id: None,
                method: MethodArg::OursA,
                separation: 30.0,
                robots: 144,
            }
        );
        assert_eq!(
            parse(&["audit", "--id", "4", "--method", "b", "--robots", "36"]).unwrap(),
            Command::Audit {
                id: Some(4),
                method: MethodArg::OursB,
                separation: 30.0,
                robots: 36,
            }
        );
    }

    #[test]
    fn invocation_extracts_global_trace_flag() {
        let inv = parse_invocation(
            ["--trace", "out.jsonl", "march", "--id", "1"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(inv.trace, Some(PathBuf::from("out.jsonl")));
        assert!(matches!(inv.command, Command::Scenario { id: 1, .. }));

        // The flag is global: it also parses after the subcommand.
        let inv = parse_invocation(
            ["audit", "--id", "3", "--trace", "t.jsonl"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(inv.trace, Some(PathBuf::from("t.jsonl")));
        assert!(matches!(inv.command, Command::Audit { id: Some(3), .. }));

        let inv = parse_invocation(["info"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(inv.trace, None);

        assert!(matches!(
            parse_invocation(
                ["scenario", "--id", "1", "--trace"]
                    .iter()
                    .map(|s| s.to_string())
            ),
            Err(ArgError::MissingValue { .. })
        ));
    }

    #[test]
    fn lint_defaults_and_flags() {
        assert_eq!(
            parse(&["lint"]).unwrap(),
            Command::Lint {
                root: PathBuf::from("."),
                baseline: None,
                jsonl: None,
                graph: None,
                panics: None,
                capabilities: None,
                models: None,
                report: None,
                workers: 1,
                deny: false,
                write_baseline: false,
                list_rules: false,
            }
        );
        assert_eq!(
            parse(&[
                "lint",
                "--root",
                "ws",
                "--baseline",
                "allow.toml",
                "--jsonl",
                "out.jsonl",
                "--graph",
                "graph.jsonl",
                "--panics",
                "panics.jsonl",
                "--capabilities",
                "caps.jsonl",
                "--models",
                "models.jsonl",
                "--report",
                "caps",
                "--workers",
                "4",
                "--deny",
                "--write-baseline",
                "--list-rules",
            ])
            .unwrap(),
            Command::Lint {
                root: PathBuf::from("ws"),
                baseline: Some(PathBuf::from("allow.toml")),
                jsonl: Some(PathBuf::from("out.jsonl")),
                graph: Some(PathBuf::from("graph.jsonl")),
                panics: Some(PathBuf::from("panics.jsonl")),
                capabilities: Some(PathBuf::from("caps.jsonl")),
                models: Some(PathBuf::from("models.jsonl")),
                report: Some("caps".to_string()),
                workers: 4,
                deny: true,
                write_baseline: true,
                list_rules: true,
            }
        );
        assert!(matches!(
            parse(&["lint", "--report", "calls"]),
            Err(ArgError::BadValue {
                flag: "--report",
                ..
            })
        ));
    }

    #[test]
    fn bad_number_reported() {
        assert!(matches!(
            parse(&["scenario", "--id", "three"]),
            Err(ArgError::BadValue { flag: "--id", .. })
        ));
    }

    #[test]
    fn errors_display() {
        for e in [
            ArgError::NoCommand,
            ArgError::UnknownCommand { got: "x".into() },
            ArgError::UnknownFlag { flag: "--x".into() },
            ArgError::MissingValue { flag: "--x".into() },
            ArgError::MissingFlag { flag: "--id" },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
