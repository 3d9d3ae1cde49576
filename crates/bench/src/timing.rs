//! Wall-clock trajectory of the marching pipeline.
//!
//! [`run_pipeline_bench`] times every stage of the pipeline —
//! mesh → harmonic map → rotation search → full march → guarded
//! Lloyd — on the seed scenarios, pitting the PCG harmonic solver
//! against the Gauss–Seidel reference, and times the fault sweep
//! serial versus parallel. The result is a deterministic-schema JSON
//! document (`BENCH_pipeline.json` at the repo root); the numbers, of
//! course, depend on the machine, so the core count rides along.

use crate::BenchError;
use anr_coverage::{GridPartition, LloydConfig};
use anr_harmonic::{fill_holes, harmonic_map_to_disk, DiskOverlay, HarmonicConfig, Solver};
use anr_march::{march_traced, run_fault_sweep, MarchConfig, MarchProblem, Method, SweepConfig};
use anr_mesh::FoiMesher;
use anr_netgraph::{extract_triangulation, UnitDiskGraph};
use anr_scenarios::{build_scenario, ScenarioParams};
use anr_trace::Tracer;

/// What to bench and how hard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchOptions {
    /// Smoke mode: scenario 1 only, fewer robots, one repeat — fast
    /// enough for CI.
    pub smoke: bool,
    /// Timed repetitions per stage; the median is reported.
    pub repeats: usize,
    /// Also run the 10⁴-robot scale tier (scenario 1, one repeat):
    /// a single full march at 10k robots, reported separately.
    pub scale_tier: bool,
}

/// One timed stage of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name (`"mesh"`, `"harmonic_pcg"`, ...).
    pub stage: &'static str,
    /// Median wall time over the repeats, milliseconds.
    pub median_ms: f64,
}

/// PCG-versus-Gauss-Seidel comparison on one scenario's target mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverComparison {
    /// Median PCG wall time, milliseconds.
    pub pcg_ms: f64,
    /// Median Gauss–Seidel wall time, milliseconds.
    pub gs_ms: f64,
    /// `gs_ms / pcg_ms`.
    pub speedup: f64,
    /// PCG iterations to converge.
    pub pcg_iterations: usize,
    /// Gauss–Seidel sweeps to converge.
    pub gs_iterations: usize,
    /// Max per-vertex distance between the two disk embeddings.
    pub max_position_diff: f64,
}

/// Everything measured on one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioTimings {
    /// Scenario id (1–7).
    pub id: u8,
    /// Robots in the deployment.
    pub robots: usize,
    /// Vertices of the hole-filled target-FoI mesh the harmonic solves
    /// run on.
    pub mesh_vertices: usize,
    /// The per-stage medians.
    pub stages: Vec<StageTiming>,
    /// Per-stage wall-time medians of the pipeline's **own** trace
    /// spans (triangulate, harmonic maps, rotation search, repair,
    /// trajectories, Lloyd, metrics), collected from the same runs as
    /// the `march` stage timing.
    pub march_stages: Vec<StageTiming>,
    /// The harmonic-solver duel.
    pub harmonic: SolverComparison,
    /// Linear motion pieces the continuous audit decomposed the march
    /// timeline into.
    pub audit_pieces: usize,
    /// Connectivity checks the audit performed: spanning-tree builds plus
    /// the exact sweep's check instants on pieces no tree certified.
    pub audit_checks: usize,
}

/// Serial-versus-parallel fault-sweep timing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepTiming {
    /// Robots in the swept deployment.
    pub robots: usize,
    /// Grid cells per protocol.
    pub cells: usize,
    /// Median wall time with `workers = 1`, milliseconds.
    pub serial_ms: f64,
    /// Median wall time with auto workers, milliseconds.
    pub parallel_ms: f64,
    /// The auto worker count used.
    pub workers: usize,
    /// Did the two runs produce byte-identical JSON?
    pub byte_identical: bool,
}

/// One full march at scale-tier size (10⁴ robots, one repeat).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleTierTiming {
    /// Robots in the deployment.
    pub robots: usize,
    /// End-to-end march wall time, milliseconds (single run).
    pub march_ms: f64,
    /// Per-stage wall times from the pipeline's own trace spans.
    pub march_stages: Vec<StageTiming>,
    /// Timeline rows the metrics were evaluated on.
    pub timeline_rows: usize,
    /// Audit pieces of the march timeline.
    pub audit_pieces: usize,
    /// Audit connectivity checks (tree builds plus exact-sweep check
    /// instants) of the march timeline.
    pub audit_checks: usize,
}

/// The full benchmark trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineBenchReport {
    /// Logical cores of the machine the numbers were taken on.
    pub cores: usize,
    /// Worker threads the parallel paths (audit, assignment, rotation,
    /// fault sweep) fan out over (`anr_par::default_workers()`).
    pub workers: usize,
    /// Repeats per stage.
    pub repeats: usize,
    /// Was this a smoke run?
    pub smoke: bool,
    /// One entry per benched scenario.
    pub scenarios: Vec<ScenarioTimings>,
    /// The fault-sweep duel.
    pub fault_sweep: FaultSweepTiming,
    /// The 10⁴-robot scale tier, when requested.
    pub scale: Option<ScaleTierTiming>,
}

/// Median of a set of timings, `0.0` when empty.
fn median_of(mut times: Vec<f64>) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    times.sort_by(|a, b| a.total_cmp(b));
    let mid = times.len() / 2;
    if times.len() % 2 == 1 {
        times[mid]
    } else {
        (times[mid - 1] + times[mid]) / 2.0
    }
}

/// Medians the wall time of `f` over `repeats` runs, in milliseconds.
/// Each run is timed through a wall-clock tracer span — the same clock
/// the pipeline's own stage spans use — rather than an ad-hoc timer.
/// The closure's result is returned (from the last run) so the timed
/// work cannot be optimized away.
pub(crate) fn median_ms<T>(
    repeats: usize,
    mut f: impl FnMut() -> T,
) -> Result<(f64, T), BenchError> {
    let tracer = Tracer::wall(2 * repeats);
    let mut last = None;
    for _ in 0..repeats {
        let _rep = tracer.span("bench_rep");
        last = Some(f());
    }
    let Some(last) = last else {
        return Err(BenchError::ZeroRepeats);
    };
    let times = tracer.span_durations_ms("bench_rep");
    // With anr-trace's `off` feature the spans vanish and the medians
    // degrade to 0.0; with tracing on, every repeat leaves one span.
    if tracer.is_enabled() && times.len() != repeats {
        return Err(BenchError::TimingMissing {
            expected: repeats,
            got: times.len(),
        });
    }
    Ok((median_of(times), last))
}

fn bench_scenario(
    id: u8,
    robots: usize,
    separation: f64,
    repeats: usize,
) -> Result<ScenarioTimings, BenchError> {
    let s = build_scenario(
        id,
        &ScenarioParams {
            robots,
            separation_ranges: separation,
            ..Default::default()
        },
    )?;
    let problem = MarchProblem::with_lattice_deployment(s.m1, s.m2, s.robots, s.range)?;
    let n = problem.num_robots();
    let config = MarchConfig::default();
    let spacing = config.resolve_mesh_spacing(problem.m2.area(), n);

    // Stage 1: grid-mesh the target FoI and fill its holes.
    let (mesh_ms, filled2) = median_ms(repeats, || {
        let foi2 = FoiMesher::new(spacing).mesh(&problem.m2)?;
        fill_holes(foi2.mesh()).map_err(anr_march::MarchError::from)
    })?;
    let filled2 = filled2?;

    // Stage 2: the harmonic duel on that mesh — same system, two
    // solvers.
    let pcg_cfg = HarmonicConfig {
        solver: Solver::Pcg,
        ..HarmonicConfig::default()
    };
    let gs_cfg = HarmonicConfig {
        solver: Solver::GaussSeidel,
        ..HarmonicConfig::default()
    };
    let (pcg_ms, pcg_map) = median_ms(repeats, || harmonic_map_to_disk(filled2.mesh(), &pcg_cfg))?;
    let (gs_ms, gs_map) = median_ms(repeats, || harmonic_map_to_disk(filled2.mesh(), &gs_cfg))?;
    let pcg_map = pcg_map.map_err(anr_march::MarchError::from)?;
    let gs_map = gs_map.map_err(anr_march::MarchError::from)?;
    let max_position_diff = pcg_map
        .positions()
        .iter()
        .zip(gs_map.positions())
        .map(|(a, b)| a.distance(*b))
        .fold(0.0f64, f64::max);

    // Stage 3: rotation search over the composed disk maps (method (a)
    // objective). The deployment-side map is prepared untimed.
    let t_mesh = extract_triangulation(&problem.positions, problem.range)
        .map_err(anr_march::MarchError::from)?;
    let filled_t = fill_holes(&t_mesh).map_err(anr_march::MarchError::from)?;
    let disk_t =
        harmonic_map_to_disk(filled_t.mesh(), &pcg_cfg).map_err(anr_march::MarchError::from)?;
    let robot_disk: Vec<_> = (0..n).map(|v| disk_t.position(v)).collect();
    let overlay = DiskOverlay::new(
        filled2.mesh(),
        pcg_map.positions(),
        filled2.virtual_vertices(),
    );
    let links = UnitDiskGraph::new(&problem.positions, problem.range).links();
    let disk_locator = anr_mesh::PointLocator::new(overlay.disk_mesh());
    let (rotation_ms, _) = median_ms(repeats, || {
        // Same shape as the pipeline's rotation stage: locator hoisted
        // out of the sweep, angle batches fanned over workers.
        config.rotation.maximize_batch(|thetas| {
            anr_par::par_map(thetas, 0, |&theta| {
                let q = overlay.map_all_with(&disk_locator, &robot_disk, theta);
                if links.is_empty() {
                    return 1.0;
                }
                links
                    .iter()
                    .filter(|&&(i, j)| q[i].position.distance(q[j].position) <= problem.range)
                    .count() as f64
                    / links.len() as f64
            })
        })
    })?;

    // Stage 4: the full pipeline, end to end. The same runs feed the
    // per-stage view: march emits a wall-clocked span for every
    // pipeline stage, so the stage medians come for free.
    let stage_tracer = Tracer::wall(1 << 17);
    let (march_ms, outcome) = median_ms(repeats, || {
        march_traced(&problem, Method::MaxStableLinks, &config, &stage_tracer)
    })?;
    let outcome = outcome?;
    let march_stages: Vec<StageTiming> = [
        "triangulate",
        "harmonic_m1",
        "harmonic_m2",
        "rotation",
        "repair",
        "trajectories",
        "lloyd",
        "metrics",
    ]
    .iter()
    .map(|&stage| StageTiming {
        stage,
        median_ms: median_of(stage_tracer.span_durations_ms(stage)),
    })
    .collect();

    // Stage 5: the guarded Lloyd refinement from the mapped positions.
    let partition = GridPartition::new(&problem.m2, spacing * 0.2);
    let lloyd_cfg = LloydConfig {
        record_history: true,
        ..config.lloyd
    };
    let (lloyd_ms, _) = median_ms(repeats, || {
        anr_coverage::run_lloyd_guarded(
            &outcome.mapped,
            &partition,
            &config.density,
            &lloyd_cfg,
            problem.range,
        )
    })?;

    Ok(ScenarioTimings {
        id,
        robots: n,
        mesh_vertices: filled2.mesh().num_vertices(),
        stages: vec![
            StageTiming {
                stage: "mesh",
                median_ms: mesh_ms,
            },
            StageTiming {
                stage: "harmonic_pcg",
                median_ms: pcg_ms,
            },
            StageTiming {
                stage: "harmonic_gs",
                median_ms: gs_ms,
            },
            StageTiming {
                stage: "rotation",
                median_ms: rotation_ms,
            },
            StageTiming {
                stage: "march",
                median_ms: march_ms,
            },
            StageTiming {
                stage: "lloyd",
                median_ms: lloyd_ms,
            },
        ],
        march_stages,
        harmonic: SolverComparison {
            pcg_ms,
            gs_ms,
            speedup: if pcg_ms > 0.0 { gs_ms / pcg_ms } else { 0.0 },
            pcg_iterations: pcg_map.iterations(),
            gs_iterations: gs_map.iterations(),
            max_position_diff,
        },
        audit_pieces: outcome.metrics.audit_pieces,
        audit_checks: outcome.metrics.audit_checks,
    })
}

/// One end-to-end march at the 10⁴-robot scale tier (scenario 1,
/// single run — at this size a single march is minutes of compute, so
/// medians over repeats are not worth their cost).
fn bench_scale_tier(robots: usize) -> Result<ScaleTierTiming, BenchError> {
    let problem = crate::scenario_problem_sized(1, 10.0, robots)?;
    let config = MarchConfig::default();
    let tracer = Tracer::wall(1 << 18);
    let (march_ms, outcome) = median_ms(1, || {
        march_traced(&problem, Method::MaxStableLinks, &config, &tracer)
    })?;
    let outcome = outcome?;
    let march_stages = [
        "triangulate",
        "harmonic_m1",
        "harmonic_m2",
        "rotation",
        "repair",
        "trajectories",
        "lloyd",
        "metrics",
    ]
    .iter()
    .map(|&stage| StageTiming {
        stage,
        median_ms: median_of(tracer.span_durations_ms(stage)),
    })
    .collect();
    Ok(ScaleTierTiming {
        robots: problem.num_robots(),
        march_ms,
        march_stages,
        timeline_rows: outcome.timeline.len(),
        audit_pieces: outcome.metrics.audit_pieces,
        audit_checks: outcome.metrics.audit_checks,
    })
}

fn bench_fault_sweep(
    robots: usize,
    smoke: bool,
    repeats: usize,
) -> Result<FaultSweepTiming, BenchError> {
    let s = build_scenario(
        1,
        &ScenarioParams {
            robots,
            separation_ranges: 10.0,
            ..Default::default()
        },
    )?;
    let problem = MarchProblem::with_lattice_deployment(s.m1, s.m2, s.robots, s.range)?;
    let base = if smoke {
        SweepConfig {
            loss_rates: vec![0.0, 0.1],
            crash_counts: vec![0, 1],
            max_rounds: 2000,
            ..Default::default()
        }
    } else {
        SweepConfig::default()
    };
    let cells = base.loss_rates.len() * base.crash_counts.len();
    let workers = anr_par::default_workers();
    let serial_cfg = SweepConfig {
        workers: 1,
        ..base.clone()
    };
    let parallel_cfg = SweepConfig { workers, ..base };
    let (serial_ms, serial) = median_ms(repeats, || {
        run_fault_sweep(&problem.positions, problem.range, &serial_cfg)
    })?;
    let (parallel_ms, parallel) = median_ms(repeats, || {
        run_fault_sweep(&problem.positions, problem.range, &parallel_cfg)
    })?;
    let byte_identical = serial?.to_json() == parallel?.to_json();
    Ok(FaultSweepTiming {
        robots: problem.num_robots(),
        cells,
        serial_ms,
        parallel_ms,
        workers,
        byte_identical,
    })
}

/// Runs the full pipeline benchmark.
///
/// # Errors
///
/// Propagates scenario construction and pipeline failures.
pub fn run_pipeline_bench(opts: &BenchOptions) -> Result<PipelineBenchReport, BenchError> {
    // The scenario FoIs have the paper's fixed areas, so the robot count
    // can't drop below the paper's 144 even in smoke mode — fewer robots
    // make the deployment too sparse to triangulate. Smoke trims
    // scenarios and repeats instead. The full run deploys a denser
    // 1296-robot swarm (mesh spacing tracks robot pitch, so the
    // harmonic system grows with the swarm): at ~400 vertices both
    // solvers finish in well under a millisecond and constant factors
    // dominate; at ~3400 the O(n) vs O(√n) iteration counts are what
    // you measure.
    let (ids, robots, separation): (&[u8], usize, f64) = if opts.smoke {
        (&[1], 144, 10.0)
    } else {
        (&[1, 2, 3, 4, 5, 6, 7], 1296, 10.0)
    };
    let mut scenarios = Vec::new();
    for &id in ids {
        scenarios.push(bench_scenario(id, robots, separation, opts.repeats)?);
    }
    let fault_sweep = bench_fault_sweep(64, opts.smoke, opts.repeats)?;
    let scale = if opts.scale_tier {
        Some(bench_scale_tier(10_000)?)
    } else {
        None
    };
    Ok(PipelineBenchReport {
        cores: anr_par::default_workers(),
        workers: anr_par::default_workers(),
        repeats: opts.repeats,
        smoke: opts.smoke,
        scenarios,
        fault_sweep,
        scale,
    })
}

fn json_ms(x: f64) -> String {
    format!("{x:.3}")
}

impl PipelineBenchReport {
    /// Serializes the report as a self-contained JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"anr-bench-pipeline/4\",\n");
        s.push_str(&format!("  \"cores\": {},\n", self.cores));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        s.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        s.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        s.push_str("  \"scenarios\": [\n");
        for (si, sc) in self.scenarios.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"id\": {},\n", sc.id));
            s.push_str(&format!("      \"robots\": {},\n", sc.robots));
            s.push_str(&format!("      \"mesh_vertices\": {},\n", sc.mesh_vertices));
            s.push_str("      \"stages\": [\n");
            for (i, st) in sc.stages.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"stage\": \"{}\", \"median_ms\": {}}}{}\n",
                    st.stage,
                    json_ms(st.median_ms),
                    if i + 1 < sc.stages.len() { "," } else { "" },
                ));
            }
            s.push_str("      ],\n");
            s.push_str("      \"march_stages\": [\n");
            for (i, st) in sc.march_stages.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"stage\": \"{}\", \"median_ms\": {}}}{}\n",
                    st.stage,
                    json_ms(st.median_ms),
                    if i + 1 < sc.march_stages.len() {
                        ","
                    } else {
                        ""
                    },
                ));
            }
            s.push_str("      ],\n");
            let h = &sc.harmonic;
            s.push_str(&format!(
                "      \"harmonic\": {{\"pcg_ms\": {}, \"gs_ms\": {}, \"speedup\": {:.2}, \
                 \"pcg_iterations\": {}, \"gs_iterations\": {}, \"max_position_diff\": {:.3e}}},\n",
                json_ms(h.pcg_ms),
                json_ms(h.gs_ms),
                h.speedup,
                h.pcg_iterations,
                h.gs_iterations,
                h.max_position_diff,
            ));
            s.push_str(&format!(
                "      \"audit_pieces\": {},\n      \"audit_checks\": {}\n",
                sc.audit_pieces, sc.audit_checks,
            ));
            s.push_str(&format!(
                "    }}{}\n",
                if si + 1 < self.scenarios.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        let fsw = &self.fault_sweep;
        s.push_str(&format!(
            "  \"fault_sweep\": {{\"robots\": {}, \"cells\": {}, \"serial_ms\": {}, \
             \"parallel_ms\": {}, \"workers\": {}, \"byte_identical\": {}}},\n",
            fsw.robots,
            fsw.cells,
            json_ms(fsw.serial_ms),
            json_ms(fsw.parallel_ms),
            fsw.workers,
            fsw.byte_identical,
        ));
        match &self.scale {
            None => s.push_str("  \"scale_tier\": null\n"),
            Some(t) => {
                s.push_str("  \"scale_tier\": {\n");
                s.push_str(&format!("    \"robots\": {},\n", t.robots));
                s.push_str(&format!("    \"march_ms\": {},\n", json_ms(t.march_ms)));
                s.push_str("    \"march_stages\": [\n");
                for (i, st) in t.march_stages.iter().enumerate() {
                    s.push_str(&format!(
                        "      {{\"stage\": \"{}\", \"median_ms\": {}}}{}\n",
                        st.stage,
                        json_ms(st.median_ms),
                        if i + 1 < t.march_stages.len() {
                            ","
                        } else {
                            ""
                        },
                    ));
                }
                s.push_str("    ],\n");
                s.push_str(&format!("    \"timeline_rows\": {},\n", t.timeline_rows));
                s.push_str(&format!("    \"audit_pieces\": {},\n", t.audit_pieces));
                s.push_str(&format!("    \"audit_checks\": {}\n", t.audit_checks));
                s.push_str("  }\n");
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Extracts `(scenario id, stage, median_ms)` triples from a pipeline
/// bench report's JSON — the committed `BENCH_pipeline*.json` baselines
/// this crate itself writes (scenario `march_stages` sections only).
///
/// The parser is keyed on this crate's own serializer layout; lines it
/// does not recognize are skipped, so schema `/2` baselines (without
/// audit counters) parse fine.
#[must_use]
pub fn parse_march_stage_medians(json: &str) -> Vec<(u8, String, f64)> {
    let mut out = Vec::new();
    let mut scenario: Option<u8> = None;
    let mut in_march_stages = false;
    let mut in_scale_tier = false;
    for line in json.lines() {
        let t = line.trim();
        if t.starts_with("\"scale_tier\"") {
            in_scale_tier = true;
        }
        if let Some(rest) = t.strip_prefix("\"id\":") {
            scenario = rest.trim_end_matches(',').trim().parse().ok();
        }
        if t.starts_with("\"march_stages\"") {
            in_march_stages = !in_scale_tier;
            continue;
        }
        if in_march_stages {
            if t.starts_with(']') {
                in_march_stages = false;
                continue;
            }
            let (Some(id), Some(si)) = (scenario, t.find("\"stage\": \"")) else {
                continue;
            };
            let rest = &t[si + 10..];
            let Some(se) = rest.find('\"') else { continue };
            let stage = rest[..se].to_string();
            let Some(mi) = t.find("\"median_ms\": ") else {
                continue;
            };
            let med = t[mi + 13..]
                .trim_end_matches(['}', ',', ' '])
                .parse::<f64>();
            if let Ok(m) = med {
                out.push((id, stage, m));
            }
        }
    }
    out
}

/// Compares a fresh report's per-scenario pipeline-stage medians against
/// a committed baseline report (same scale!), returning one message per
/// stage that regressed beyond `factor`× the baseline plus `grace_ms`.
///
/// The absolute grace keeps sub-millisecond stages from tripping the
/// guard on scheduler jitter. Stages or scenarios missing from either
/// side are ignored (a new stage has no baseline to regress from).
#[must_use]
pub fn stage_regressions(
    current: &PipelineBenchReport,
    baseline_json: &str,
    factor: f64,
    grace_ms: f64,
) -> Vec<String> {
    let baseline = parse_march_stage_medians(baseline_json);
    let mut messages = Vec::new();
    for sc in &current.scenarios {
        for st in &sc.march_stages {
            let Some((_, _, base)) = baseline
                .iter()
                .find(|(id, stage, _)| *id == sc.id && stage == st.stage)
            else {
                continue;
            };
            let limit = base * factor + grace_ms;
            if st.median_ms > limit {
                messages.push(format!(
                    "scenario {} stage `{}`: {:.3} ms exceeds {:.3} ms \
                     ({factor}x baseline {:.3} ms + {grace_ms} ms grace)",
                    sc.id, st.stage, st.median_ms, limit, base,
                ));
            }
        }
    }
    messages
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        let mut k = 0;
        let (m, last) = median_ms(3, || {
            k += 1;
            k
        })
        .unwrap();
        assert!(m >= 0.0);
        assert_eq!(last, 3);
    }

    #[test]
    fn smoke_bench_runs_and_serializes() {
        let report = run_pipeline_bench(&BenchOptions {
            smoke: true,
            repeats: 1,
            scale_tier: false,
        })
        .unwrap();
        assert_eq!(report.scenarios.len(), 1);
        assert!(report.fault_sweep.byte_identical);
        let sc = &report.scenarios[0];
        assert_eq!(sc.stages.len(), 6);
        assert_eq!(sc.march_stages.len(), 8);
        // Every pipeline stage span was seen and timed on this machine.
        for st in &sc.march_stages {
            assert!(st.median_ms > 0.0, "stage `{}` never timed", st.stage);
        }
        // Same linear system, two solvers: the embeddings agree tightly.
        assert!(
            sc.harmonic.max_position_diff < 1e-6,
            "diff {}",
            sc.harmonic.max_position_diff
        );
        let json = report.to_json();
        for key in [
            "\"schema\": \"anr-bench-pipeline/4\"",
            "\"workers\"",
            "\"audit_pieces\"",
            "\"audit_checks\"",
            "\"scale_tier\": null",
            "\"stage\": \"harmonic_pcg\"",
            "\"stage\": \"lloyd\"",
            "\"march_stages\"",
            "\"stage\": \"triangulate\"",
            "\"stage\": \"trajectories\"",
            "\"speedup\"",
            "\"fault_sweep\"",
            "\"byte_identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(sc.audit_checks >= 1, "audit never checked connectivity");
        assert!(sc.audit_pieces >= 1, "audit saw no motion pieces");

        // The report's own JSON round-trips through the baseline parser,
        // and an identical baseline never trips the regression guard.
        let parsed = parse_march_stage_medians(&json);
        assert_eq!(parsed.len(), sc.march_stages.len());
        for st in &sc.march_stages {
            assert!(
                parsed.iter().any(|(id, stage, m)| *id == sc.id
                    && stage == st.stage
                    && (*m - st.median_ms).abs() <= 0.0005),
                "stage `{}` lost by the parser",
                st.stage
            );
        }
        assert!(stage_regressions(&report, &json, 2.0, 10.0).is_empty());

        // A baseline claiming everything ran in ~0 ms flags every stage
        // slower than the grace budget.
        let zeroed: String = json
            .lines()
            .map(|l| {
                if l.contains("\"median_ms\"") {
                    let head = l.split("\"median_ms\"").next().unwrap();
                    format!("{head}\"median_ms\": 0.000}},")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let slow: Vec<_> = sc
            .march_stages
            .iter()
            .filter(|st| st.median_ms > 10.0)
            .collect();
        let flagged = stage_regressions(&report, &zeroed, 2.0, 10.0);
        assert_eq!(flagged.len(), slow.len(), "{flagged:?}");
    }
}
