//! Command execution for the `anr` binary.

use crate::{Command, MethodArg};
use anr_geom::Point;
use anr_march::{
    audit_piecewise, direct_translation, hungarian_direct, march_mission, march_traced,
    run_fault_sweep_traced, MarchConfig, MarchError, MarchOutcome, MarchProblem, Method,
    MetricsError, Mission, SweepConfig,
};
use anr_netgraph::UnitDiskGraph;
use anr_scenarios::{blob, build_scenario, ScenarioError, ScenarioParams};
use anr_trace::Tracer;
use anr_viz::{palette, SvgCanvas};
use std::error::Error;
use std::fmt;

/// Errors surfaced by the CLI commands.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Scenario construction failed.
    Scenario(ScenarioError),
    /// A marching run failed.
    March(MarchError),
    /// File output failed.
    Io(std::io::Error),
    /// A parameter is out of range for the command.
    BadParameter(String),
    /// The fault-sweep simulation failed.
    Sim(anr_distsim::SimError),
    /// The continuous-time audit itself failed to run.
    Metrics(MetricsError),
    /// `anr audit` found a transition that disconnects.
    AuditFailed {
        /// Scenario ids whose transition lost connectivity.
        scenarios: Vec<u8>,
    },
    /// The lint run itself failed (I/O or a malformed baseline).
    Lint(anr_lint::LintError),
    /// `anr lint --deny` found non-baselined violations.
    LintFailed {
        /// Number of findings not covered by the baseline.
        open: usize,
    },
    /// SVG rendering failed (empty viewport or bad width).
    Viz(anr_viz::VizError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Scenario(e) => write!(f, "scenario: {e}"),
            CliError::March(e) => write!(f, "march: {e}"),
            CliError::Io(e) => write!(f, "io: {e}"),
            CliError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
            CliError::Sim(e) => write!(f, "simulation: {e}"),
            CliError::Metrics(e) => write!(f, "audit: {e}"),
            CliError::AuditFailed { scenarios } => {
                let ids: Vec<String> = scenarios.iter().map(u8::to_string).collect();
                write!(
                    f,
                    "audit failed: network disconnects in scenario(s) {}",
                    ids.join(", ")
                )
            }
            CliError::Lint(e) => write!(f, "lint: {e}"),
            CliError::LintFailed { open } => {
                write!(f, "lint failed: {open} non-baselined finding(s)")
            }
            CliError::Viz(e) => write!(f, "render: {e}"),
        }
    }
}

impl Error for CliError {}

impl From<MetricsError> for CliError {
    fn from(e: MetricsError) -> Self {
        CliError::Metrics(e)
    }
}

impl From<anr_distsim::SimError> for CliError {
    fn from(e: anr_distsim::SimError) -> Self {
        CliError::Sim(e)
    }
}

impl From<ScenarioError> for CliError {
    fn from(e: ScenarioError) -> Self {
        CliError::Scenario(e)
    }
}

impl From<MarchError> for CliError {
    fn from(e: MarchError) -> Self {
        CliError::March(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<anr_viz::VizError> for CliError {
    fn from(e: anr_viz::VizError) -> Self {
        CliError::Viz(e)
    }
}

fn scenario_problem(id: u8, separation: f64, robots: usize) -> Result<MarchProblem, CliError> {
    let s = build_scenario(
        id,
        &ScenarioParams {
            robots,
            separation_ranges: separation,
            ..Default::default()
        },
    )?;
    Ok(MarchProblem::with_lattice_deployment(
        s.m1, s.m2, s.robots, s.range,
    )?)
}

/// Normalized times for a timeline of `len` rows, matching the spacing
/// `evaluate_timeline` uses when it computes the reported metrics.
fn uniform_times(len: usize) -> Vec<f64> {
    if len <= 1 {
        vec![0.0]
    } else {
        let steps = (len - 1) as f64;
        (0..len).map(|k| k as f64 / steps).collect()
    }
}

fn print_outcome(name: &str, out: &MarchOutcome) {
    println!(
        "{:<20} L = {:.3}  D = {:>9.0} m  C = {}  preserved {}/{} links, {} new",
        name,
        out.metrics.stable_link_ratio,
        out.metrics.total_distance,
        out.metrics.global_connectivity,
        out.metrics.preserved_links,
        out.metrics.initial_links,
        out.metrics.new_links,
    );
}

/// Executes a parsed command with tracing disabled.
///
/// # Errors
///
/// [`CliError`] on any failure; `main` prints it and exits non-zero.
pub fn run_command(command: Command) -> Result<(), CliError> {
    run_command_traced(command, &Tracer::disabled())
}

/// Executes a parsed command, emitting structured events to `tracer`
/// (pipeline stage spans, solver iterations, audit violations,
/// fault-sweep cells). With [`Tracer::disabled`] this is exactly
/// [`run_command`]: tracing is observation only.
///
/// # Errors
///
/// [`CliError`] on any failure; `main` prints it and exits non-zero.
pub fn run_command_traced(command: Command, tracer: &Tracer) -> Result<(), CliError> {
    match command {
        Command::Help => {
            print!("{}", crate::args::HELP);
            Ok(())
        }
        Command::Info => {
            println!(
                "{:<4} {:<50} {:>12} {:>12} {:>6}",
                "id", "scenario", "M1 area m²", "M2 area m²", "holes"
            );
            for id in 1..=7u8 {
                let s = build_scenario(id, &ScenarioParams::default())?;
                println!(
                    "{:<4} {:<50} {:>12.0} {:>12.0} {:>3}+{}",
                    id,
                    s.name,
                    s.m1.area(),
                    s.m2.area(),
                    s.m1.holes().len(),
                    s.m2.holes().len(),
                );
            }
            println!("\ndefaults: 144 robots, r_c = 80 m, separation 30 × r_c");
            Ok(())
        }
        Command::Scenario {
            id,
            method,
            separation,
            robots,
        } => {
            let problem = scenario_problem(id, separation, robots)?;
            let config = MarchConfig::default();
            println!(
                "scenario {id}: {} robots, separation {:.0} m",
                problem.num_robots(),
                separation * problem.range,
            );
            let runs: Vec<(&str, MethodArg)> = match method {
                MethodArg::All => vec![
                    ("our method (a)", MethodArg::OursA),
                    ("our method (b)", MethodArg::OursB),
                    ("direct translation", MethodArg::Direct),
                    ("Hungarian", MethodArg::Hungarian),
                ],
                m => vec![(label_of(m), m)],
            };
            for (name, m) in runs {
                let out = run_method(&problem, m, &config, tracer)?;
                print_outcome(name, &out);
            }
            Ok(())
        }
        Command::Sweep { id, quick, charts } => {
            let separations: Vec<f64> = if quick {
                vec![10.0, 40.0, 100.0]
            } else {
                (1..=10).map(|k| 10.0 * k as f64).collect()
            };
            let config = MarchConfig::default();
            println!("scenario,separation_ranges,method,total_distance_m,stable_link_ratio,global_connectivity");
            let mut rows: Vec<(f64, &str, f64, f64)> = Vec::new();
            for &sep in &separations {
                let problem = scenario_problem(id, sep, 144)?;
                for (name, m) in [
                    ("ours_a", MethodArg::OursA),
                    ("ours_b", MethodArg::OursB),
                    ("direct_translation", MethodArg::Direct),
                    ("hungarian", MethodArg::Hungarian),
                ] {
                    let out = run_method(&problem, m, &config, tracer)?;
                    println!(
                        "{id},{sep},{name},{:.1},{:.4},{}",
                        out.metrics.total_distance,
                        out.metrics.stable_link_ratio,
                        out.metrics.global_connectivity,
                    );
                    rows.push((
                        sep,
                        name,
                        out.metrics.total_distance,
                        out.metrics.stable_link_ratio,
                    ));
                }
            }
            if let Some(dir) = charts {
                std::fs::create_dir_all(&dir)?;
                let mut chart = anr_viz::LineChart::new(
                    &format!("Scenario {id}: stable link ratio"),
                    "separation (× r_c)",
                    "L",
                );
                chart.y_from_zero(true);
                for name in ["ours_a", "ours_b", "direct_translation", "hungarian"] {
                    chart.add_series(
                        name,
                        rows.iter()
                            .filter(|(_, n, _, _)| *n == name)
                            .map(|&(s, _, _, l)| (s, l))
                            .collect(),
                    );
                }
                chart.save(dir.join(format!("scenario{id}_link_ratio.svg")))?;
                println!("chart written to {}", dir.display());
            }
            Ok(())
        }
        Command::Render {
            id,
            out,
            separation,
        } => {
            let problem = scenario_problem(id, separation, 144)?;
            let outcome = march_traced(
                &problem,
                Method::MaxStableLinks,
                &MarchConfig::default(),
                tracer,
            )?;
            std::fs::create_dir_all(&out)?;

            let initial = UnitDiskGraph::new(&problem.positions, problem.range);
            let mut svg = SvgCanvas::fitting([problem.m1.bbox()], 800.0)?;
            svg.deployment(&problem.m1, &problem.positions, &initial.links(), |_, _| {
                true
            });
            svg.save(out.join(format!("scenario{id}_before.svg")))?;

            let after = UnitDiskGraph::new(&outcome.final_positions, problem.range);
            let mut svg = SvgCanvas::fitting([problem.m2.bbox()], 800.0)?;
            svg.deployment(
                &problem.m2,
                &outcome.final_positions,
                &after.links(),
                |i, j| initial.has_link(i, j),
            );
            svg.save(out.join(format!("scenario{id}_after.svg")))?;

            let mut svg = SvgCanvas::fitting([problem.m1.bbox(), problem.m2.bbox()], 1200.0)?;
            svg.region(&problem.m1, palette::FOI_FILL, palette::FOI_STROKE);
            svg.region(&problem.m2, palette::FOI_FILL, palette::FOI_STROKE);
            for path in outcome.transition.paths() {
                svg.polyline(path.waypoints(), palette::TRAJECTORY, 0.5);
            }
            svg.save(out.join(format!("scenario{id}_trajectories.svg")))?;

            println!(
                "rendered scenario {id} to {} (L = {:.3}, C = {})",
                out.display(),
                outcome.metrics.stable_link_ratio,
                outcome.metrics.global_connectivity,
            );
            Ok(())
        }
        Command::FaultSweep {
            id,
            robots,
            loss,
            crashes,
            seed,
            workers,
            out,
        } => {
            let problem = scenario_problem(id, 10.0, robots)?;
            if let Some(&c) = crashes.iter().find(|&&c| c >= problem.num_robots()) {
                return Err(CliError::BadParameter(format!(
                    "--crashes {c} but the deployment has {} robots",
                    problem.num_robots()
                )));
            }
            let config = SweepConfig {
                loss_rates: loss,
                crash_counts: crashes,
                seed,
                workers,
                ..Default::default()
            };
            let report =
                run_fault_sweep_traced(&problem.positions, problem.range, &config, tracer)?;
            let json = report.to_json();
            match out {
                Some(path) => {
                    std::fs::write(&path, &json)?;
                    eprintln!(
                        "fault sweep of scenario {id} ({} robots, {} cells/protocol) written to {}",
                        report.robots,
                        config.loss_rates.len() * config.crash_counts.len(),
                        path.display()
                    );
                }
                None => print!("{json}"),
            }
            Ok(())
        }
        Command::Serve {
            port,
            workers,
            queue,
            cache_mb,
            max_requests,
        } => {
            let config = anr_serve::ServeConfig {
                port,
                workers,
                queue_capacity: queue,
                cache_bytes: cache_mb << 20,
                max_requests,
                ..anr_serve::ServeConfig::default()
            };
            let report = anr_serve::run_server(&config, tracer, |bound| {
                println!("anr serve: listening on 127.0.0.1:{bound}");
            })
            .map_err(|e| CliError::BadParameter(e.to_string()))?;
            eprintln!(
                "anr serve: done — {} accepted, {} served, {} busy, \
                 {} protocol errors, {} plan errors, {} worker panics, \
                 cache {} hits / {} misses",
                report.stats.accepted,
                report.stats.served,
                report.stats.busy,
                report.stats.protocol_errors,
                report.stats.plan_errors,
                report.stats.worker_panics,
                report.stats.cache.hits,
                report.stats.cache.misses,
            );
            Ok(())
        }
        Command::Bench {
            smoke,
            serve: true,
            concurrency,
            requests,
            out,
            ..
        } => {
            let report = anr_bench::run_serve_bench(&anr_bench::ServeBenchOptions {
                smoke,
                concurrency,
                requests,
            })
            .map_err(|e| CliError::BadParameter(e.to_string()))?;
            std::fs::write(&out, report.to_json())?;
            eprintln!(
                "serve bench: {} requests x {} clients against {} workers",
                report.requests, report.concurrency, report.server_workers,
            );
            eprintln!(
                "  cold: p50 {:.2} ms, p99 {:.2} ms, {:.0} req/s",
                report.cold.p50_ms, report.cold.p99_ms, report.cold.throughput_rps,
            );
            eprintln!(
                "  hot:  p50 {:.2} ms, p99 {:.2} ms, {:.0} req/s \
                 (hit speedup {:.0}x, bytes identical = {})",
                report.hot.p50_ms,
                report.hot.p99_ms,
                report.hot.throughput_rps,
                report.hit_speedup_p50,
                report.hit_bytes_identical,
            );
            eprintln!(
                "  busy burst: {}/{} refused, {} served; worker panics = {}",
                report.busy.busy_replies,
                report.busy.clients,
                report.busy.served,
                report.server.worker_panics,
            );
            eprintln!("serve benchmark written to {}", out.display());
            Ok(())
        }
        Command::Bench {
            smoke,
            repeats,
            distsim: true,
            large,
            ckpt,
            out,
            ..
        } => {
            let report = anr_bench::run_distsim_bench(&anr_bench::DistsimBenchOptions {
                smoke,
                repeats,
                large,
            })
            .map_err(|e| CliError::BadParameter(e.to_string()))?;
            std::fs::write(&out, report.to_json())?;
            for series in &report.series {
                eprintln!(
                    "distsim {} n={}: run {:.1} ms ({} rounds, {} messages), \
                     save {:.2} ms / restore {:.2} ms ({} bytes), resume identical = {}",
                    series.protocol,
                    series.robots,
                    series.run_ms,
                    series.rounds,
                    series.sent,
                    series.save_ms,
                    series.restore_ms,
                    series.ckpt_bytes,
                    series.resume_identical,
                );
            }
            eprintln!(
                "distsim fault sweep (event engine, n={}): {:.1} ms over {} cells/protocol",
                report.sweep.robots, report.sweep.total_ms, report.sweep.cells,
            );
            if let Some(path) = ckpt {
                std::fs::write(&path, &report.checkpoint_artifact)?;
                eprintln!(
                    "checkpoint artifact ({} bytes) written to {}",
                    report.checkpoint_artifact.len(),
                    path.display()
                );
            }
            eprintln!("distsim benchmark written to {}", out.display());
            Ok(())
        }
        Command::Bench {
            smoke,
            repeats,
            distsim: false,
            tier10k,
            against,
            out,
            ..
        } => {
            let report = anr_bench::run_pipeline_bench(&anr_bench::BenchOptions {
                smoke,
                repeats,
                scale_tier: tier10k,
            })
            .map_err(|e| CliError::BadParameter(e.to_string()))?;
            std::fs::write(&out, report.to_json())?;
            if let Some(t) = &report.scale {
                eprintln!(
                    "scale tier: {} robots marched end-to-end in {:.0} ms \
                     ({} timeline rows, {} audit checks)",
                    t.robots,
                    t.march.median_ms(),
                    t.timeline_rows,
                    t.audit_checks,
                );
            }
            if let Some(baseline_path) = &against {
                let baseline = std::fs::read_to_string(baseline_path)?;
                let regressions = anr_bench::stage_regressions(&report, &baseline, 2.0, 10.0);
                if !regressions.is_empty() {
                    for r in &regressions {
                        eprintln!("stage regression: {r}");
                    }
                    return Err(CliError::BadParameter(format!(
                        "{} pipeline stage(s) regressed beyond 2x or missing against the baseline {}",
                        regressions.len(),
                        baseline_path.display(),
                    )));
                }
                eprintln!(
                    "stage medians within 2x of baseline {}",
                    baseline_path.display()
                );
            }
            for sc in &report.scenarios {
                eprintln!(
                    "scenario {}: {} robots marched in {:.1} ms (median of {}; {} stage rows)",
                    sc.id,
                    sc.robots,
                    sc.march.median_ms(),
                    sc.march.calls(),
                    sc.stages.len(),
                );
            }
            eprintln!(
                "fault sweep ({} cells/protocol): serial {:.1} ms vs {} workers {:.1} ms, \
                 byte-identical = {}",
                report.fault_sweep.cells,
                report.fault_sweep.serial_ms,
                report.fault_sweep.workers,
                report.fault_sweep.parallel_ms,
                report.fault_sweep.byte_identical,
            );
            eprintln!("benchmark trajectory written to {}", out.display());
            Ok(())
        }
        Command::Audit {
            id,
            method,
            separation,
            robots,
        } => {
            if method == MethodArg::All {
                return Err(CliError::BadParameter(
                    "audit needs a single method (a, b, direct, or hungarian)".to_string(),
                ));
            }
            let ids: Vec<u8> = match id {
                Some(i) => vec![i],
                None => (1..=7).collect(),
            };
            let config = MarchConfig::default();
            let mut failed = Vec::new();
            for id in ids {
                let problem = scenario_problem(id, separation, robots)?;
                let outcome = run_method(&problem, method, &config, tracer)?;
                let times = uniform_times(outcome.timeline.len());
                let report = audit_piecewise(&outcome.timeline, &times, problem.range, tracer)?;
                println!(
                    "scenario {id}: C = {}  L = {:.3}  ({}/{} initial links stable, {} violations)",
                    report.global_connectivity,
                    report.stable_link_ratio,
                    report.preserved_links,
                    report.initial_links,
                    report.violations.len(),
                );
                for v in &report.violations {
                    println!(
                        "  link ({}, {}) out of range on s in [{:.4}, {:.4}] (max distance {:.1} m)",
                        v.link.0, v.link.1, v.interval.0, v.interval.1, v.max_distance,
                    );
                }
                if report.global_connectivity != 1 {
                    failed.push(id);
                }
            }
            if failed.is_empty() {
                println!("audit: every audited transition stayed connected (C = 1)");
                Ok(())
            } else {
                Err(CliError::AuditFailed { scenarios: failed })
            }
        }
        Command::Lint {
            root,
            baseline,
            jsonl,
            graph,
            panics,
            capabilities,
            models,
            report: aux_report,
            workers,
            deny,
            write_baseline,
            list_rules,
        } => {
            if list_rules {
                for rule in anr_lint::RULES {
                    println!(
                        "{:<3} {:<5} {}",
                        rule.id,
                        rule.severity.as_str(),
                        rule.summary
                    );
                }
                return Ok(());
            }
            let _span = tracer.span("lint");
            let options = anr_lint::LintOptions {
                root: root.clone(),
                baseline: baseline.clone(),
                workers,
            };
            if write_baseline {
                let baseline_path = baseline.unwrap_or_else(|| root.join("lint.allow.toml"));
                let existing = std::fs::read_to_string(&baseline_path).unwrap_or_default();
                let rendered =
                    anr_lint::write_baseline(&options, &existing).map_err(CliError::Lint)?;
                std::fs::write(&baseline_path, rendered)?;
                println!("baseline written to {}", baseline_path.display());
                return Ok(());
            }
            let report = anr_lint::lint_workspace(&options).map_err(CliError::Lint)?;
            tracer.counter_add("lint_files", report.files_scanned as u64);
            tracer.counter_add("lint_findings", report.findings.len() as u64);
            tracer.counter_add("lint_open", report.non_baselined() as u64);
            for (path, contents, what) in [
                (&jsonl, report.to_jsonl(), "findings JSONL"),
                (&graph, report.graph.to_jsonl(), "call graph"),
                (&panics, report.panics.to_jsonl(), "panic reachability"),
                (&capabilities, report.caps.to_jsonl(), "capability surface"),
                (&models, report.models.to_jsonl(), "model surface"),
            ] {
                if let Some(path) = path {
                    std::fs::write(path, contents)?;
                    eprintln!("{what} written to {}", path.display());
                }
            }
            match aux_report.as_deref() {
                Some("panics") => print!("{}", report.panics.to_human()),
                Some("caps") => print!("{}", report.caps.to_human()),
                Some("taint") => print!("{}", report.taint.to_human()),
                Some("locks") => print!("{}", report.locks.to_human()),
                Some("models") => print!("{}", report.models.to_human()),
                _ => print!("{}", report.to_human()),
            }
            if deny && report.non_baselined() > 0 {
                return Err(CliError::LintFailed {
                    open: report.non_baselined(),
                });
            }
            Ok(())
        }
        Command::Mission { stops, robots } => {
            if stops < 2 {
                return Err(CliError::BadParameter(
                    "--stops must be at least 2".to_string(),
                ));
            }
            // A seeded chain of blob FoIs spaced ~2.2 km apart.
            let fois = (0..stops)
                .map(|k| {
                    let center =
                        Point::new(2200.0 * k as f64, if k % 2 == 0 { 0.0 } else { 500.0 });
                    blob(center, 260_000.0, 100 + k as u64, 56)
                        .map(anr_geom::PolygonWithHoles::without_holes)
                })
                .collect::<Result<Vec<_>, _>>()?;
            let mission = Mission::new(fois, robots, 80.0);
            let outcome = march_mission(&mission, Method::MaxStableLinks, &MarchConfig::default())?;
            for (k, leg) in outcome.legs.iter().enumerate() {
                print_outcome(&format!("leg {} → {}", k + 1, k + 2), leg);
            }
            println!(
                "mission: D = {:.0} m, mean L = {:.3}, all legs connected = {}",
                outcome.metrics.total_distance,
                outcome.metrics.mean_stable_link_ratio,
                outcome.metrics.global_connectivity == 1,
            );
            Ok(())
        }
    }
}

fn label_of(m: MethodArg) -> &'static str {
    match m {
        MethodArg::OursA => "our method (a)",
        MethodArg::OursB => "our method (b)",
        MethodArg::Direct => "direct translation",
        MethodArg::Hungarian => "Hungarian",
        MethodArg::All => "all",
    }
}

fn run_method(
    problem: &MarchProblem,
    method: MethodArg,
    config: &MarchConfig,
    tracer: &Tracer,
) -> Result<MarchOutcome, CliError> {
    Ok(match method {
        MethodArg::OursA => march_traced(problem, Method::MaxStableLinks, config, tracer)?,
        MethodArg::OursB => march_traced(problem, Method::MinMovingDistance, config, tracer)?,
        MethodArg::Direct => direct_translation(problem, config)?,
        MethodArg::Hungarian => hungarian_direct(problem, config)?,
        MethodArg::All => unreachable!("expanded by the caller"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_runs() {
        run_command(Command::Help).unwrap();
    }

    #[test]
    fn info_runs() {
        run_command(Command::Info).unwrap();
    }

    #[test]
    fn scenario_single_method_runs() {
        run_command(Command::Scenario {
            id: 1,
            method: MethodArg::Hungarian,
            separation: 12.0,
            robots: 144,
        })
        .unwrap();
    }

    #[test]
    fn mission_too_few_stops_rejected() {
        assert!(matches!(
            run_command(Command::Mission {
                stops: 1,
                robots: 36
            }),
            Err(CliError::BadParameter(_))
        ));
    }

    #[test]
    fn render_writes_files() {
        let dir = std::env::temp_dir().join("anr_cli_render_test");
        run_command(Command::Render {
            id: 1,
            out: dir.clone(),
            separation: 12.0,
        })
        .unwrap();
        assert!(dir.join("scenario1_before.svg").exists());
        assert!(dir.join("scenario1_after.svg").exists());
        assert!(dir.join("scenario1_trajectories.svg").exists());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn errors_display() {
        let e = CliError::BadParameter("x".into());
        assert!(!e.to_string().is_empty());
        let e = CliError::AuditFailed {
            scenarios: vec![3, 5],
        };
        assert!(e.to_string().contains("3, 5"));
    }

    #[test]
    fn audit_certifies_one_scenario() {
        run_command(Command::Audit {
            id: Some(1),
            method: MethodArg::OursA,
            separation: 12.0,
            robots: 144,
        })
        .unwrap();
    }

    #[test]
    fn audit_rejects_method_all() {
        assert!(matches!(
            run_command(Command::Audit {
                id: Some(1),
                method: MethodArg::All,
                separation: 12.0,
                robots: 64,
            }),
            Err(CliError::BadParameter(_))
        ));
    }

    #[test]
    fn traced_scenario_emits_stage_spans() {
        let tracer = Tracer::ring(1 << 16);
        run_command_traced(
            Command::Scenario {
                id: 1,
                method: MethodArg::OursA,
                separation: 12.0,
                robots: 144,
            },
            &tracer,
        )
        .unwrap();
        let events = tracer.events();
        for stage in [
            "march",
            "triangulate",
            "harmonic_m1",
            "harmonic_m2",
            "lloyd",
        ] {
            assert!(
                events.iter().any(|e| e.name == stage),
                "missing stage span `{stage}` in CLI trace"
            );
        }
        assert!(events.iter().any(|e| e.name == "pcg_iter"));
    }

    #[test]
    fn fault_sweep_writes_json() {
        let path = std::env::temp_dir().join("anr_cli_fault_sweep_test.json");
        run_command(Command::FaultSweep {
            id: 1,
            robots: 64,
            loss: vec![0.0, 0.1],
            crashes: vec![0, 1],
            seed: 5,
            workers: 0,
            out: Some(path.clone()),
        })
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"protocol\": \"flooding\""));
        assert!(json.contains("\"protocol\": \"hop_field\""));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lint_gate_passes_on_this_workspace() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        run_command(Command::Lint {
            root,
            baseline: None,
            jsonl: None,
            graph: None,
            panics: None,
            capabilities: None,
            models: None,
            report: None,
            workers: 1,
            deny: true,
            write_baseline: false,
            list_rules: false,
        })
        .unwrap();
    }

    #[test]
    fn lint_list_rules_runs() {
        run_command(Command::Lint {
            root: std::path::PathBuf::from("."),
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
            list_rules: true,
        })
        .unwrap();
    }

    #[test]
    fn bench_serve_writes_json() {
        let path = std::env::temp_dir().join("anr_cli_bench_serve_test.json");
        run_command(Command::Bench {
            smoke: true,
            repeats: 1,
            distsim: false,
            large: false,
            ckpt: None,
            tier10k: false,
            against: None,
            serve: true,
            concurrency: 4,
            requests: 6,
            out: path.clone(),
        })
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"schema\": \"anr-bench-serve/1\""));
        assert!(json.contains("\"hit_bytes_identical\": true"));
        assert!(json.contains("\"worker_panics\": 0"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fault_sweep_rejects_excessive_crashes() {
        assert!(matches!(
            run_command(Command::FaultSweep {
                id: 1,
                robots: 64,
                loss: vec![0.0],
                crashes: vec![500],
                seed: 5,
                workers: 0,
                out: None,
            }),
            Err(CliError::BadParameter(_))
        ));
    }
}
