//! Wall-clock trajectory of the marching pipeline.
//!
//! [`run_pipeline_bench`] marches every bench scenario `repeats` times
//! on one wall-clock tracer and folds the pipeline's own span tree
//! ([`Tracer::fold_spans`]): the `march` root gives the end-to-end time,
//! and every span path below it (`triangulate`, `harmonic_m2/foi_mesh`,
//! `metrics/audit.certify`, ...) becomes one stage row with its call
//! count, min/median/max and work counters. A trace of the same run and
//! the report agree by construction. The fault sweep is timed serial
//! versus parallel alongside. The result is a deterministic-schema JSON
//! document (`BENCH_pipeline.json` at the repo root); the numbers, of
//! course, depend on the machine, so the core count rides along.

use crate::BenchError;
use anr_march::{march_traced, run_fault_sweep, MarchConfig, Method, SweepConfig};
use anr_trace::{SpanRow, Tracer};

/// What to bench and how hard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchOptions {
    /// Smoke mode: scenario 1 only, fewer robots — fast enough for CI.
    pub smoke: bool,
    /// Timed marches per scenario; rows report min/median/max.
    pub repeats: usize,
    /// Also run the 10⁴-robot scale tier (scenario 1, one march),
    /// reported separately.
    pub scale_tier: bool,
}

/// Everything measured on one scenario's marches.
#[derive(Debug, Clone, PartialEq)]
pub struct MarchTiming {
    /// Scenario id (1–7).
    pub id: u8,
    /// Robots in the deployment.
    pub robots: usize,
    /// The pipeline's `march` root span, one call per repeat.
    pub march: SpanRow,
    /// Every span path below `march`, in the order the pipeline first
    /// opened it.
    pub stages: Vec<SpanRow>,
    /// Timeline rows the metrics were evaluated on.
    pub timeline_rows: usize,
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

/// The full benchmark trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineBenchReport {
    /// Logical cores of the machine the numbers were taken on.
    pub cores: usize,
    /// Worker threads the parallel paths (audit, assignment, rotation,
    /// fault sweep) fan out over (`anr_par::default_workers()`).
    pub workers: usize,
    /// Marches per scenario.
    pub repeats: usize,
    /// Was this a smoke run?
    pub smoke: bool,
    /// One entry per benched scenario.
    pub scenarios: Vec<MarchTiming>,
    /// The fault-sweep duel.
    pub fault_sweep: FaultSweepTiming,
    /// The 10⁴-robot scale tier, when requested.
    pub scale: Option<MarchTiming>,
}

impl PipelineBenchReport {
    /// Every timed march: the scenarios, then the scale tier.
    fn marches(&self) -> impl Iterator<Item = &MarchTiming> {
        self.scenarios.iter().chain(&self.scale)
    }
}

/// Medians the wall time of `f` over `repeats` runs, in milliseconds,
/// each run inside a `bench_rep` span of a wall-clock tracer folded
/// like the pipeline's own spans. The closure's result is returned
/// (from the last run) so the timed work cannot be optimized away.
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
    // With anr-trace's `off` feature the spans vanish and the median
    // degrades to 0.0.
    let rows = tracer.fold_spans("bench_rep")?;
    Ok((rows.first().map_or(0.0, SpanRow::median_ms), last))
}

/// Marches scenario `id` (`robots` robots, FoIs 10 ranges apart)
/// `repeats` times with method (a) on one wall-clock tracer and folds
/// the `march` span tree.
fn bench_march(id: u8, robots: usize, repeats: usize) -> Result<MarchTiming, BenchError> {
    let problem = crate::scenario_problem_sized(id, 10.0, robots)?;
    let config = MarchConfig::default();
    // Room for every record of every repeat: a 10⁴-robot march emits
    // tens of thousands (solver iterations, rotation evaluations).
    let tracer = Tracer::wall(repeats.max(1) << 17);
    let mut outcome = None;
    for _ in 0..repeats {
        outcome = Some(march_traced(
            &problem,
            Method::MaxStableLinks,
            &config,
            &tracer,
        )?);
    }
    let Some(outcome) = outcome else {
        return Err(BenchError::ZeroRepeats);
    };
    let mut stages = tracer.fold_spans("march")?;
    let march = if stages.is_empty() {
        SpanRow::new("march", Vec::new())
    } else {
        stages.remove(0)
    };
    Ok(MarchTiming {
        id,
        robots: problem.num_robots(),
        march,
        stages,
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
    let problem = crate::scenario_problem_sized(1, 10.0, robots)?;
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
/// Propagates scenario construction and pipeline failures, and
/// [`BenchError::Trace`] when the stage spans cannot be folded.
pub fn run_pipeline_bench(opts: &BenchOptions) -> Result<PipelineBenchReport, BenchError> {
    // The scenario FoIs have the paper's fixed areas, so the robot count
    // can't drop below the paper's 144 even in smoke mode — fewer robots
    // make the deployment too sparse to triangulate. Smoke trims
    // scenarios instead. The full run deploys a denser 1296-robot swarm
    // (mesh spacing tracks robot pitch, so the harmonic system grows
    // with the swarm).
    let (ids, robots): (&[u8], usize) = if opts.smoke {
        (&[1], 144)
    } else {
        (&[1, 2, 3, 4, 5, 6, 7], 1296)
    };
    let mut scenarios = Vec::new();
    for &id in ids {
        scenarios.push(bench_march(id, robots, opts.repeats)?);
    }
    let fault_sweep = bench_fault_sweep(64, opts.smoke, opts.repeats)?;
    // At 10⁴ robots one march is seconds of compute: one run, no median.
    let scale = if opts.scale_tier {
        Some(bench_march(1, 10_000, 1)?)
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

/// One march's summary as a one-line JSON object after `indent`.
fn push_march_summary(s: &mut String, indent: &str, m: &MarchTiming) {
    s.push_str(&format!(
        "{indent}{{\"id\": {}, \"robots\": {}, \"march_ms\": {}, \"march_min_ms\": {}, \
         \"march_max_ms\": {}, \"timeline_rows\": {}, \"audit_pieces\": {}, \"audit_checks\": {}}}",
        m.id,
        m.robots,
        json_ms(m.march.median_ms()),
        json_ms(m.march.min_ms()),
        json_ms(m.march.max_ms()),
        m.timeline_rows,
        m.audit_pieces,
        m.audit_checks,
    ));
}

impl PipelineBenchReport {
    /// Serializes the report as a self-contained JSON document: one
    /// summary per march, then one flat line per stage row, so a reader
    /// can parse each row on its own.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"anr-bench-pipeline/5\",\n");
        s.push_str(&format!("  \"cores\": {},\n", self.cores));
        s.push_str(&format!("  \"workers\": {},\n", self.workers));
        s.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        s.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        s.push_str("  \"scenarios\": [\n");
        for (i, m) in self.scenarios.iter().enumerate() {
            push_march_summary(&mut s, "    ", m);
            s.push_str(if i + 1 < self.scenarios.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n");
        match &self.scale {
            None => s.push_str("  \"scale_tier\": null,\n"),
            Some(m) => {
                push_march_summary(&mut s, "  \"scale_tier\": ", m);
                s.push_str(",\n");
            }
        }
        s.push_str("  \"stages\": [\n");
        let rows: Vec<(&MarchTiming, &SpanRow)> = self
            .marches()
            .flat_map(|m| m.stages.iter().map(move |r| (m, r)))
            .collect();
        for (i, (m, r)) in rows.iter().enumerate() {
            let counters: Vec<String> = r
                .counters
                .iter()
                .map(|(name, total)| format!("\"{name}\": {total}"))
                .collect();
            s.push_str(&format!(
                "    {{\"scenario\": {}, \"robots\": {}, \"stage\": \"{}\", \"calls\": {}, \
                 \"min_ms\": {}, \"median_ms\": {}, \"max_ms\": {}, \"counters\": {{{}}}}}{}\n",
                m.id,
                m.robots,
                r.path,
                r.calls(),
                json_ms(r.min_ms()),
                json_ms(r.median_ms()),
                json_ms(r.max_ms()),
                counters.join(", "),
                if i + 1 < rows.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        let fsw = &self.fault_sweep;
        s.push_str(&format!(
            "  \"fault_sweep\": {{\"robots\": {}, \"cells\": {}, \"serial_ms\": {}, \
             \"parallel_ms\": {}, \"workers\": {}, \"byte_identical\": {}}}\n",
            fsw.robots,
            fsw.cells,
            json_ms(fsw.serial_ms),
            json_ms(fsw.parallel_ms),
            fsw.workers,
            fsw.byte_identical,
        ));
        s.push_str("}\n");
        s
    }
}

/// One baseline stage row: scenario, robots, stage path, median ms.
type BaselineRow = (u8, usize, String, f64);

/// The raw value of `"key": value` on one serialized line, quotes
/// stripped.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// The stage rows of a pipeline bench report's JSON (this crate's
/// `to_json` layout: one row per line); other lines are skipped.
fn baseline_rows(json: &str) -> Vec<BaselineRow> {
    json.lines()
        .filter_map(|line| {
            Some((
                json_field(line, "scenario")?.parse().ok()?,
                json_field(line, "robots")?.parse().ok()?,
                json_field(line, "stage")?.to_string(),
                json_field(line, "median_ms")?.parse().ok()?,
            ))
        })
        .collect()
}

/// Compares a fresh report's stage medians against a committed
/// baseline report, returning one message per baseline stage that
/// regressed beyond `factor`× its median plus `grace_ms`, or that is
/// missing from the fresh report (same scenario and robot count).
///
/// The absolute grace keeps sub-millisecond stages from tripping the
/// guard on scheduler jitter. A baseline without any stage row fails
/// too: a guard that checks nothing must not pass. Stages only the
/// fresh report has are new and have no baseline to regress from.
#[must_use]
pub fn stage_regressions(
    current: &PipelineBenchReport,
    baseline_json: &str,
    factor: f64,
    grace_ms: f64,
) -> Vec<String> {
    let baseline = baseline_rows(baseline_json);
    if baseline.is_empty() {
        return vec!["baseline has no stage rows, so it guards nothing".to_string()];
    }
    let mut messages = Vec::new();
    for (id, robots, stage, base) in &baseline {
        let row = current
            .marches()
            .filter(|m| m.id == *id && m.robots == *robots)
            .find_map(|m| m.stages.iter().find(|r| r.path == *stage));
        let Some(row) = row else {
            messages.push(format!(
                "scenario {id} ({robots} robots) stage `{stage}`: in the baseline \
                 but missing from this report"
            ));
            continue;
        };
        let limit = base * factor + grace_ms;
        if row.median_ms() > limit {
            messages.push(format!(
                "scenario {id} ({robots} robots) stage `{stage}`: {:.3} ms exceeds {limit:.3} ms \
                 ({factor}x baseline {base:.3} ms + {grace_ms} ms grace)",
                row.median_ms(),
            ));
        }
    }
    messages
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built two-stage report, no march needed.
    fn tiny_report() -> PipelineBenchReport {
        let mut slow = SpanRow::new("slow/inner", vec![20.0, 30.0]);
        slow.counters.insert("work.items", 8);
        PipelineBenchReport {
            cores: 1,
            workers: 1,
            repeats: 2,
            smoke: true,
            scenarios: vec![MarchTiming {
                id: 1,
                robots: 144,
                march: SpanRow::new("march", vec![40.0, 50.0]),
                stages: vec![SpanRow::new("fast", vec![1.0, 2.0]), slow],
                timeline_rows: 9,
                audit_pieces: 8,
                audit_checks: 1,
            }],
            fault_sweep: FaultSweepTiming {
                robots: 64,
                cells: 4,
                serial_ms: 1.0,
                parallel_ms: 1.0,
                workers: 1,
                byte_identical: true,
            },
            scale: None,
        }
    }

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
        assert_eq!(SpanRow::new("s", vec![1.0, 2.0, 9.0]).median_ms(), 2.0);
        assert_eq!(SpanRow::new("s", vec![1.0, 2.0, 3.0, 9.0]).median_ms(), 2.5);
        assert!(matches!(median_ms(0, || ()), Err(BenchError::ZeroRepeats)));
    }

    #[test]
    fn rows_round_trip_through_the_baseline_reader() {
        let report = tiny_report();
        let json = report.to_json();
        assert_eq!(
            baseline_rows(&json),
            [
                (1, 144, "fast".to_string(), 1.5),
                (1, 144, "slow/inner".to_string(), 25.0),
            ]
        );
        assert!(json.contains("\"counters\": {\"work.items\": 8}"));
        assert!(stage_regressions(&report, &json, 2.0, 10.0).is_empty());
    }

    #[test]
    fn guard_fails_on_a_renamed_stage() {
        let report = tiny_report();
        let renamed = report
            .to_json()
            .replace("\"stage\": \"slow/inner\"", "\"stage\": \"slow/renamed\"");
        let flagged = stage_regressions(&report, &renamed, 2.0, 10.0);
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert!(flagged[0].contains("`slow/renamed`") && flagged[0].contains("missing"));
        // Same stage at another robot count is another row.
        let rescaled = report.to_json().replace(
            "\"robots\": 144, \"stage\": \"slow/inner\"",
            "\"robots\": 145, \"stage\": \"slow/inner\"",
        );
        assert_eq!(stage_regressions(&report, &rescaled, 2.0, 10.0).len(), 1);
    }

    #[test]
    fn guard_fails_on_a_baseline_without_rows() {
        let report = tiny_report();
        let old_layout =
            "{\"march_stages\": [\n{\"stage\": \"slow/inner\", \"median_ms\": 1.0}\n]}";
        for baseline in ["", old_layout] {
            let flagged = stage_regressions(&report, baseline, 2.0, 10.0);
            assert_eq!(flagged.len(), 1, "{flagged:?}");
            assert!(flagged[0].contains("guards nothing"));
        }
    }

    #[test]
    fn guard_flags_slow_stages_only() {
        let report = tiny_report();
        let zeroed = report
            .to_json()
            .lines()
            .map(|l| match l.find("\"median_ms\": ") {
                Some(at) => {
                    let tail = &l[at..];
                    let end = tail.find(',').unwrap();
                    format!("{}\"median_ms\": 0.000{}", &l[..at], &tail[end..])
                }
                None => l.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n");
        // Only slow/inner (25 ms median) exceeds 2 × 0 + 10 ms grace.
        let flagged = stage_regressions(&report, &zeroed, 2.0, 10.0);
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert!(flagged[0].contains("`slow/inner`"));
    }

    #[test]
    fn committed_smoke_baseline_guards_scenario_one() {
        let rows = baseline_rows(include_str!("../../../BENCH_pipeline_smoke.json"));
        assert_eq!(rows.len(), 8, "{rows:?}");
        assert!(rows
            .iter()
            .all(|(id, robots, _, m)| *id == 1 && *robots == 144 && *m > 0.0));
    }

    #[test]
    fn smoke_bench_runs_and_serializes() {
        let report = run_pipeline_bench(&BenchOptions {
            smoke: true,
            repeats: 2,
            scale_tier: false,
        })
        .unwrap();
        assert_eq!(report.scenarios.len(), 1);
        assert!(report.fault_sweep.byte_identical);
        let sc = &report.scenarios[0];
        assert!(sc.audit_checks >= 1, "audit never checked connectivity");
        assert!(sc.audit_pieces >= 1, "audit saw no motion pieces");
        assert!(sc.timeline_rows >= 2);
        let json = report.to_json();
        for key in [
            "\"schema\": \"anr-bench-pipeline/5\"",
            "\"workers\"",
            "\"audit_pieces\"",
            "\"audit_checks\"",
            "\"scale_tier\": null",
            "\"fault_sweep\"",
            "\"byte_identical\": true",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        if !Tracer::wall(1).is_enabled() {
            return; // anr-trace `off`: no spans, no rows.
        }
        assert_eq!(sc.march.calls(), 2);
        assert!(!sc.stages.is_empty());
        for r in &sc.stages {
            assert!(r.calls() >= 1, "stage `{}` never ran", r.path);
            assert!(
                0.0 < r.min_ms() && r.min_ms() <= r.median_ms() && r.median_ms() <= r.max_ms(),
                "stage `{}` spread {:?}",
                r.path,
                r.durations_ms()
            );
        }
        // Every row survives the baseline reader, and an identical
        // baseline never trips the guard.
        assert_eq!(baseline_rows(&json).len(), sc.stages.len());
        assert!(stage_regressions(&report, &json, 2.0, 10.0).is_empty());
    }
}
