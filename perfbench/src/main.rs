//! End-to-end and per-layer benchmark of the marching pipeline, the
//! protocol simulators and the plan server.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <march-dense|march-scale|protocols|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload sets up several times (reporting the median as
//! `setup_s`), then repeats a fixed *pass* of operations until
//! `--seconds` have elapsed (at least three passes). Every operation's
//! output is checked against a reference recorded when the benchmark was
//! added; a mismatch, an error or a refused request counts in `failed`. With `--trace 0` the last stdout
//! line carries the end-to-end metrics; with `--trace 1` the workload
//! re-runs each pass with spans around every call into the crates and
//! reports the per-layer metrics instead. See `perfbench/README.md` for
//! the metric definitions and the layer → end-to-end mapping.

#![forbid(unsafe_code)]

mod march;
mod protocols;
mod reference;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// Command-line options shared by every workload.
pub(crate) struct Options {
    pub(crate) seed: u64,
    pub(crate) run_for: Duration,
    pub(crate) trace: bool,
}

/// What a workload hands back: operation counts and named metrics.
#[derive(Default)]
pub(crate) struct Outcome {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation; `ok == false` counts it failed.
    pub(crate) fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub(crate) fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// End-to-end metrics (`--trace 0`), reported by every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("slow_op_ms", "ms"),
    ("fast_op_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`). A layer the workload never calls
/// reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("core.audit_ms", "ms"),
    ("core.audit_pieces", "count"),
    ("core.audit_checks", "count"),
    ("coverage.lloyd_ms", "ms"),
    ("coverage.lloyd_iters", "count"),
    ("coverage.lloyd_ms_per_iter", "ms"),
    ("mesh.foi_ms", "ms"),
    ("mesh.foi_vertices", "count"),
    ("harmonic.fill_ms", "ms"),
    ("harmonic.m1_ms", "ms"),
    ("harmonic.m1_iters", "count"),
    ("harmonic.m2_ms", "ms"),
    ("harmonic.m2_iters", "count"),
    ("netgraph.triangulate_ms", "ms"),
    ("netgraph.links", "count"),
    ("harmonic.rotation_ms", "ms"),
    ("harmonic.rotation_evals", "count"),
    ("core.repair_ms", "ms"),
    ("core.trajectories_ms", "ms"),
    ("core.timeline_rows", "count"),
    ("core.fault_sweep_flood_ms", "ms"),
    ("core.fault_sweep_hop_ms", "ms"),
    ("distsim.msgs_sent", "count"),
    ("distsim.msgs_per_s", "1/s"),
    ("distsim.rounds", "count"),
    ("distsim.cells_converged_frac", "frac"),
    ("core.objective_ms", "ms"),
    ("core.objective_msgs", "count"),
    ("harmonic.distributed_ms", "ms"),
    ("harmonic.distributed_rounds", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.reply_bytes", "B"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.busy", "count"),
    ("serve.errors", "count"),
    ("trace.overhead_frac", "frac"),
];

const WORKLOADS: [&str; 4] = ["march-dense", "march-scale", "protocols", "serve-mix"];

fn parse_args() -> Result<(String, Options), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return Err("--workload, --seed, --seconds and --trace are all required".into());
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok((
        workload,
        Options {
            seed,
            run_for: Duration::from_secs_f64(seconds),
            trace,
        },
    ))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "workload {workload} seed {} seconds {} trace {} | cores {cores} | anr_par::default_workers {}",
        opts.seed,
        opts.run_for.as_secs_f64(),
        u8::from(opts.trace),
        anr_par::default_workers()
    );

    let result = match workload.as_str() {
        "march-dense" => march::dense(&opts),
        "march-scale" => march::scale(&opts),
        "protocols" => protocols::run(&opts),
        _ => serve::run(&opts),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {workload} could not run: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !opts.trace {
        match peak_rss_mb() {
            Some(mb) => outcome.metric("peak_rss_mb", mb),
            None => {
                eprintln!("error: cannot read VmHWM from /proc/self/status");
                return ExitCode::FAILURE;
            }
        }
    }

    let registry: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    let mut complete = true;
    for &(name, unit) in registry {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => {
                complete = false;
                0.0
            }
            None if opts.trace => 0.0,
            None => {
                eprintln!("error: {workload} did not measure {name}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!("  {name:<32} {value:>16.6} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    // An empty run cannot be judged: report it as one failed operation.
    if outcome.attempted == 0 {
        outcome.record(false);
    }
    let correct = complete && outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
