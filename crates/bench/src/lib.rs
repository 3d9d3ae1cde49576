//! # anr-bench — experiment harness for the ICDCS 2016 reproduction
//!
//! Shared plumbing for the per-figure experiment binaries (see
//! `src/bin/`): scenario → problem construction, running all four
//! methods, and CSV emission. Every table and figure of the paper's
//! evaluation maps to one binary:
//!
//! | target | reproduces |
//! |---|---|
//! | `fig2_pipeline` | Fig. 2 pipeline stages (SVG + stage stats) |
//! | `fig3_scenarios` | Fig. 3 rows 4–5 (scenarios 1, 2, 4, 5) |
//! | `fig4_scenario3` | Fig. 4 (scenario 3, flower pond) |
//! | `fig5_hole_to_hole` | Fig. 5 (scenarios 6, 7) |
//! | `table1_connectivity` | Table I (global connectivity Y/N) |
//! | `fig6_density` | Fig. 6 (density-adjusted deployment) |
//! | `ablation_*` | design-choice ablations from DESIGN.md |
//! | `fault_sweep` | protocol survival under loss and churn (JSON grid) |

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod distsim;
pub mod serve;
pub mod timing;

pub use distsim::{
    run_distsim_bench, DistsimBenchOptions, DistsimBenchReport, DistsimSeries, DistsimSweepTiming,
};
pub use serve::{run_serve_bench, BusyBurst, PhaseStats, ServeBenchOptions, ServeBenchReport};
pub use timing::{
    run_pipeline_bench, stage_regressions, BenchOptions, MarchTiming, PipelineBenchReport,
};

use anr_march::{
    direct_translation, hungarian_direct, march, MarchConfig, MarchError, MarchOutcome,
    MarchProblem, Method,
};
use anr_scenarios::{build_scenario, ScenarioError, ScenarioParams};
use std::error::Error;
use std::fmt;

/// Experiment-level error.
#[derive(Debug)]
#[non_exhaustive]
pub enum BenchError {
    /// Scenario construction failed.
    Scenario(ScenarioError),
    /// A method run failed.
    March(MarchError),
    /// A fault-sweep simulation failed.
    Sim(anr_distsim::SimError),
    /// A checkpoint save/restore round trip failed.
    Ckpt(anr_distsim::CkptError),
    /// The benchmark was asked for zero timed repetitions.
    ZeroRepeats,
    /// The comparison baseline method was missing from a method-sweep
    /// result set, so ratios against it cannot be computed.
    MissingBaseline {
        /// The method expected to anchor the comparison.
        method: &'static str,
        /// Scenario whose sweep was being computed.
        scenario: u8,
        /// FoI separation (in communication ranges) of the failing row.
        separation: f64,
    },
    /// A wall-clock trace could not be folded into timing rows (the
    /// ring dropped events or a span never ended).
    Trace(anr_trace::FoldError),
    /// The serve load generator observed a response stream that failed
    /// protocol validation.
    Serve(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Scenario(e) => write!(f, "scenario: {e}"),
            BenchError::March(e) => write!(f, "march: {e}"),
            BenchError::Sim(e) => write!(f, "simulation: {e}"),
            BenchError::Ckpt(e) => write!(f, "checkpoint: {e}"),
            BenchError::ZeroRepeats => write!(f, "repeats must be at least 1"),
            BenchError::MissingBaseline {
                method,
                scenario,
                separation,
            } => write!(
                f,
                "method `{method}` missing from scenario {scenario} results at separation {separation}"
            ),
            BenchError::Trace(e) => write!(f, "timing trace: {e}"),
            BenchError::Serve(msg) => write!(f, "serve bench: {msg}"),
        }
    }
}

impl Error for BenchError {}

impl From<ScenarioError> for BenchError {
    fn from(e: ScenarioError) -> Self {
        BenchError::Scenario(e)
    }
}

impl From<MarchError> for BenchError {
    fn from(e: MarchError) -> Self {
        BenchError::March(e)
    }
}

impl From<anr_trace::FoldError> for BenchError {
    fn from(e: anr_trace::FoldError) -> Self {
        BenchError::Trace(e)
    }
}

impl From<anr_distsim::SimError> for BenchError {
    fn from(e: anr_distsim::SimError) -> Self {
        BenchError::Sim(e)
    }
}

impl From<anr_distsim::CkptError> for BenchError {
    fn from(e: anr_distsim::CkptError) -> Self {
        BenchError::Ckpt(e)
    }
}

/// Builds the marching problem for scenario `id` at the given separation
/// (in communication ranges).
///
/// # Errors
///
/// Propagates scenario/problem construction failures.
pub fn scenario_problem(id: u8, separation_ranges: f64) -> Result<MarchProblem, BenchError> {
    let s = build_scenario(
        id,
        &ScenarioParams {
            separation_ranges,
            ..Default::default()
        },
    )?;
    Ok(MarchProblem::with_lattice_deployment(
        s.m1, s.m2, s.robots, s.range,
    )?)
}

/// Like [`scenario_problem`], with an explicit robot count (the bench
/// tiers: 144 smoke, 1296 full, 10_000 large).
///
/// # Errors
///
/// Propagates scenario/problem construction failures.
pub fn scenario_problem_sized(
    id: u8,
    separation_ranges: f64,
    robots: usize,
) -> Result<MarchProblem, BenchError> {
    let s = build_scenario(
        id,
        &ScenarioParams {
            robots,
            separation_ranges,
            ..Default::default()
        },
    )?;
    Ok(MarchProblem::with_lattice_deployment(
        s.m1, s.m2, s.robots, s.range,
    )?)
}

/// The four evaluated methods, in the paper's presentation order.
pub const METHOD_NAMES: [&str; 4] = ["ours_a", "ours_b", "direct_translation", "hungarian"];

/// Runs all four methods on `problem`, in [`METHOD_NAMES`] order.
///
/// # Errors
///
/// Propagates the first method failure.
pub fn run_all_methods(
    problem: &MarchProblem,
    config: &MarchConfig,
) -> Result<Vec<(&'static str, MarchOutcome)>, BenchError> {
    Ok(vec![
        ("ours_a", march(problem, Method::MaxStableLinks, config)?),
        ("ours_b", march(problem, Method::MinMovingDistance, config)?),
        ("direct_translation", direct_translation(problem, config)?),
        ("hungarian", hungarian_direct(problem, config)?),
    ])
}

/// Prints the CSV header used by the sweep binaries.
pub fn print_sweep_header() {
    println!("scenario,separation_ranges,method,total_distance_m,distance_ratio_vs_hungarian,stable_link_ratio,global_connectivity");
}

/// One measured point of a separation sweep.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SweepRow {
    /// Scenario id (1–7).
    pub(crate) scenario: u8,
    /// FoI separation in communication ranges.
    pub(crate) separation: f64,
    /// Method name (see [`METHOD_NAMES`]).
    pub(crate) method: &'static str,
    /// Total moving distance `D` in metres.
    pub(crate) distance: f64,
    /// `D` relative to the Hungarian optimum at the same separation.
    pub(crate) ratio: f64,
    /// Total stable link ratio `L`.
    pub(crate) link_ratio: f64,
    /// Global connectivity `C`.
    pub(crate) connected: u8,
}

/// Runs the full four-method comparison over a separation sweep,
/// returning one row per (separation, method).
///
/// # Errors
///
/// Propagates scenario/method failures.
pub(crate) fn sweep_scenario_rows(
    id: u8,
    separations: &[f64],
    config: &MarchConfig,
) -> Result<Vec<SweepRow>, BenchError> {
    let mut rows = Vec::new();
    for &sep in separations {
        let problem = scenario_problem(id, sep)?;
        let results = run_all_methods(&problem, config)?;
        let Some(hungarian_d) = results
            .iter()
            .find(|(name, _)| *name == "hungarian")
            .map(|(_, o)| o.metrics.total_distance)
        else {
            return Err(BenchError::MissingBaseline {
                method: "hungarian",
                scenario: id,
                separation: sep,
            });
        };
        for (name, outcome) in &results {
            rows.push(SweepRow {
                scenario: id,
                separation: sep,
                method: name,
                distance: outcome.metrics.total_distance,
                ratio: outcome.metrics.total_distance / hungarian_d,
                link_ratio: outcome.metrics.stable_link_ratio,
                connected: outcome.metrics.global_connectivity,
            });
        }
    }
    Ok(rows)
}

/// Prints sweep rows as CSV (header via [`print_sweep_header`]).
pub(crate) fn print_rows(rows: &[SweepRow]) {
    for r in rows {
        println!(
            "{},{},{},{:.1},{:.4},{:.4},{}",
            r.scenario, r.separation, r.method, r.distance, r.ratio, r.link_ratio, r.connected,
        );
    }
}

/// Writes the two per-scenario SVG charts (the paper's rows 4 and 5:
/// D/D_hungarian and L versus separation) into `dir`.
///
/// # Errors
///
/// Propagates I/O errors.
pub(crate) fn write_sweep_charts(
    id: u8,
    rows: &[SweepRow],
    dir: &std::path::Path,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let series = |metric: fn(&SweepRow) -> f64, method: &str| -> Vec<(f64, f64)> {
        rows.iter()
            .filter(|r| r.scenario == id && r.method == method)
            .map(|r| (r.separation, metric(r)))
            .collect()
    };
    let labels = [
        ("ours (a)", "ours_a"),
        ("ours (b)", "ours_b"),
        ("direct translation", "direct_translation"),
        ("Hungarian", "hungarian"),
    ];

    let mut dchart = anr_viz::LineChart::new(
        &format!("Scenario {id}: total moving distance vs. separation"),
        "separation (× communication range)",
        "D / D_hungarian",
    );
    for (label, method) in labels {
        dchart.add_series(label, series(|r| r.ratio, method));
    }
    dchart.save(dir.join(format!("scenario{id}_distance.svg")))?;

    let mut lchart = anr_viz::LineChart::new(
        &format!("Scenario {id}: total stable link ratio vs. separation"),
        "separation (× communication range)",
        "L",
    );
    lchart.y_from_zero(true);
    for (label, method) in labels {
        lchart.add_series(label, series(|r| r.link_ratio, method));
    }
    lchart.save(dir.join(format!("scenario{id}_link_ratio.svg")))?;
    Ok(())
}

/// Runs the comparison sweep, prints CSV and — when `--charts <dir>` is
/// passed — writes the per-scenario SVG charts.
///
/// # Errors
///
/// Propagates scenario/method failures; chart I/O errors are reported to
/// stderr without failing the run.
pub fn sweep_scenario(id: u8, separations: &[f64], config: &MarchConfig) -> Result<(), BenchError> {
    let rows = sweep_scenario_rows(id, separations, config)?;
    print_rows(&rows);
    if let Some(dir) = charts_flag() {
        if let Err(e) = write_sweep_charts(id, &rows, &dir) {
            eprintln!("warning: failed to write charts to {}: {e}", dir.display());
        }
    }
    Ok(())
}

/// Runs the comparison sweep for several scenarios concurrently (the
/// scenarios fan out over [`anr_par::par_map`]; each sweep itself is
/// serial), then prints CSV rows in scenario order and — when
/// `--charts <dir>` is passed — writes the per-scenario SVG charts.
/// The output is identical, byte for byte, to calling
/// [`sweep_scenario`] once per id.
///
/// # Errors
///
/// Propagates the first scenario/method failure, in id order.
pub fn sweep_scenarios_parallel(
    ids: &[u8],
    separations: &[f64],
    config: &MarchConfig,
) -> Result<(), BenchError> {
    let results = anr_par::par_map(ids, 0, |&id| sweep_scenario_rows(id, separations, config));
    for (i, result) in results.into_iter().enumerate() {
        let rows = result?;
        print_rows(&rows);
        if let Some(dir) = charts_flag() {
            if let Err(e) = write_sweep_charts(ids[i], &rows, &dir) {
                eprintln!("warning: failed to write charts to {}: {e}", dir.display());
            }
        }
    }
    Ok(())
}

/// Parses `--charts <dir>` from the CLI arguments.
pub fn charts_flag() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--charts")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
}

/// The paper's separation sweep: 10×–100× the communication range.
pub fn paper_separations() -> Vec<f64> {
    (1..=10).map(|k| 10.0 * k as f64).collect()
}

/// A shorter sweep for quick runs (`--quick`).
pub fn quick_separations() -> Vec<f64> {
    vec![10.0, 40.0, 100.0]
}

/// Returns true when `--quick` is among the CLI arguments.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Parses `--scenario <id>` from the CLI arguments.
pub fn scenario_flag() -> Option<u8> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_problem_builds() {
        let p = scenario_problem(1, 15.0).unwrap();
        assert_eq!(p.num_robots(), 144);
    }

    #[test]
    fn run_all_methods_order() {
        let p = scenario_problem(1, 12.0).unwrap();
        let results = run_all_methods(&p, &MarchConfig::default()).unwrap();
        let names: Vec<&str> = results.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, METHOD_NAMES.to_vec());
    }

    #[test]
    fn separations_cover_paper_range() {
        let s = paper_separations();
        assert_eq!(s.first(), Some(&10.0));
        assert_eq!(s.last(), Some(&100.0));
        assert_eq!(s.len(), 10);
    }
}
