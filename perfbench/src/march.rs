//! The `march-dense` and `march-scale` workloads, and the traced march
//! recomposed from the crates' public calls.

use crate::reference::{MarchRef, MARCH_DENSE, MARCH_SCALE};
use crate::stats::{
    add, repeated_setup, report_layers, report_passes, run_passes, timed, Layers, Spans, SplitMix,
};
use crate::{Options, Outcome};
use anr_coverage::GridPartition;
use anr_geom::{Point, PolygonWithHoles};
use anr_harmonic::{fill_holes, harmonic_map_to_disk, DiskOverlay};
use anr_march::{
    evaluate_timeline, march, repair_connectivity_strict, MarchConfig, MarchError, MarchProblem,
    Method, TrajectorySet, TransitionMetrics,
};
use anr_mesh::{FoiMesher, PointLocator};
use anr_netgraph::{extract_triangulation, UnitDiskGraph};
use anr_scenarios::{build_scenario, ScenarioParams};

/// Robots of the dense tier: the paper's FoIs at 9× the paper's swarm.
const DENSE_ROBOTS: usize = 1296;
/// Robots of the constant-density tier.
const SCALE_ROBOTS: usize = 5184;
/// The paper's swarm size, which fixes the density the scale tier keeps.
const PAPER_ROBOTS: usize = 144;
/// FoI centroid separation, in communication ranges, at paper size.
const SEPARATION_RANGES: f64 = 10.0;

/// One march to run and the outputs it must reproduce.
struct Case {
    problem: MarchProblem,
    expect: &'static MarchRef,
}

fn dense_setup() -> Result<Vec<Case>, String> {
    MARCH_DENSE
        .iter()
        .map(|expect| {
            let params = ScenarioParams {
                robots: DENSE_ROBOTS,
                separation_ranges: SEPARATION_RANGES,
                ..Default::default()
            };
            let s = build_scenario(expect.scenario, &params).map_err(|e| e.to_string())?;
            let problem = MarchProblem::with_lattice_deployment(s.m1, s.m2, s.robots, s.range)
                .map_err(|e| e.to_string())?;
            Ok(Case { problem, expect })
        })
        .collect()
}

/// Scales a region about its own centroid.
fn scaled(region: &PolygonWithHoles, factor: f64) -> Result<PolygonWithHoles, String> {
    let c = region.centroid();
    let holes = region
        .holes()
        .iter()
        .map(|h| h.scaled_about(c, factor))
        .collect();
    PolygonWithHoles::new(region.outer().scaled_about(c, factor), holes).map_err(|e| e.to_string())
}

/// Scenario `id` at the paper's robot density with `robots` robots: both
/// FoIs and their centroid separation grow by √(robots / 144).
pub(crate) fn constant_density(
    id: u8,
    robots: usize,
) -> Result<(PolygonWithHoles, PolygonWithHoles, f64), String> {
    let k = (robots as f64 / PAPER_ROBOTS as f64).sqrt();
    let params = ScenarioParams {
        robots,
        separation_ranges: SEPARATION_RANGES * k,
        ..Default::default()
    };
    let s = build_scenario(id, &params).map_err(|e| e.to_string())?;
    Ok((scaled(&s.m1, k)?, scaled(&s.m2, k)?, s.range))
}

fn scale_setup() -> Result<Vec<Case>, String> {
    MARCH_SCALE
        .iter()
        .map(|expect| {
            let (m1, m2, range) = constant_density(expect.scenario, SCALE_ROBOTS)?;
            let problem = MarchProblem::with_lattice_deployment(m1, m2, SCALE_ROBOTS, range)
                .map_err(|e| e.to_string())?;
            Ok(Case { problem, expect })
        })
        .collect()
}

/// Checks a march's `L`, `C` and `D` against the recorded reference.
fn check(case: &Case, m: &TransitionMetrics) -> bool {
    let e = case.expect;
    let ok = m.global_connectivity == 1
        && m.preserved_links == e.preserved_links
        && m.initial_links == e.initial_links
        && (m.total_distance - e.total_distance).abs() <= 1e-9 * e.total_distance.abs();
    if !ok {
        eprintln!(
            "mismatch: sc{} n={} observed C={} preserved={} initial={} D={:?}; expected C=1 preserved={} initial={} D={:?}",
            e.scenario,
            case.problem.num_robots(),
            m.global_connectivity,
            m.preserved_links,
            m.initial_links,
            m.total_distance,
            e.preserved_links,
            e.initial_links,
            e.total_distance,
        );
    }
    ok
}

/// Runs `march()` once; returns its metrics (if it succeeded) and
/// seconds.
fn plain(case: &Case) -> (Option<TransitionMetrics>, f64) {
    let (out, t) = timed(|| {
        march(
            &case.problem,
            Method::MaxStableLinks,
            &MarchConfig::default(),
        )
    });
    match out {
        Ok(o) => (Some(o.metrics), t),
        Err(e) => {
            eprintln!("march failed on sc{}: {e}", case.expect.scenario);
            (None, t)
        }
    }
}

pub(crate) fn dense(opts: &Options) -> Result<Outcome, String> {
    let (cases, setup_s) = repeated_setup(dense_setup)?;
    run(opts, cases, setup_s)
}

pub(crate) fn scale(opts: &Options) -> Result<Outcome, String> {
    let (cases, setup_s) = repeated_setup(scale_setup)?;
    run(opts, cases, setup_s)
}

fn run(opts: &Options, cases: Vec<Case>, setup_s: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = SplitMix::new(opts.seed);
    let mut order: Vec<usize> = (0..cases.len()).collect();
    if opts.trace {
        traced(opts, &cases, &mut rng, &mut order, &mut out);
        return Ok(out);
    }
    let mut pass_s = Vec::new();
    let mut per_case: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    run_passes(opts.run_for, |_| {
        rng.shuffle(&mut order);
        let mut pass = 0.0;
        for &i in &order {
            let (metrics, t) = plain(&cases[i]);
            out.record(metrics.is_some_and(|m| check(&cases[i], &m)));
            per_case[i].push(t);
            pass += t;
        }
        pass_s.push(pass);
    });
    out.metric("setup_s", setup_s);
    report_passes(&mut out, &pass_s, &per_case);
    Ok(out)
}

/// Trace mode: every pass runs each march twice — `march()` untimed by
/// spans, then the recomposed traced march — and requires both to agree.
fn traced(
    opts: &Options,
    cases: &[Case],
    rng: &mut SplitMix,
    order: &mut [usize],
    out: &mut Outcome,
) {
    let mut samples: Vec<Layers> = Vec::new();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut last_spans = Spans::new();
    run_passes(opts.run_for, |k| {
        rng.shuffle(order);
        let mut layers = Layers::new();
        let mut spans = Spans::new();
        let (mut plain_pass, mut traced_pass) = (0.0, 0.0);
        for &i in order.iter() {
            let case = &cases[i];
            // Alternate which side runs first so neither always runs cold.
            let run_plain = || plain(case);
            let run_traced = |spans: &mut Spans, layers: &mut Layers| {
                timed(|| recomposed(&case.problem, &MarchConfig::default(), spans, layers))
            };
            let ((expected, tp), (got, tt)) = if k % 2 == 0 {
                let p = run_plain();
                (p, run_traced(&mut spans, &mut layers))
            } else {
                let t = run_traced(&mut spans, &mut layers);
                (run_plain(), t)
            };
            plain_pass += tp;
            traced_pass += tt;
            let same = match (&expected, &got) {
                (Some(a), Ok(b)) => a == b,
                _ => false,
            };
            if !same {
                eprintln!(
                    "recomposed march differs from march() on sc{}: {:?} vs {:?}",
                    case.expect.scenario, expected, got
                );
            }
            out.record(expected.is_some_and(|m| check(case, &m)) && same);
        }
        plain_s.push(plain_pass);
        traced_s.push(traced_pass);
        for (metric, span) in FOLD {
            add(&mut layers, metric, spans.total_ms(span));
        }
        let per_iter = layers["coverage.lloyd_ms"] / layers["coverage.lloyd_iters"].max(1.0);
        layers.insert("coverage.lloyd_ms_per_iter", per_iter);
        samples.push(layers);
        last_spans = spans;
    });
    last_spans.print_table();
    report_layers(out, &samples, &plain_s, &traced_s);
}

/// Which spans each per-layer time metric sums.
const FOLD: [(&str, &str); 17] = [
    ("netgraph.triangulate_ms", "extract_triangulation"),
    ("netgraph.triangulate_ms", "UnitDiskGraph::links"),
    ("harmonic.fill_ms", "fill_holes"),
    ("harmonic.m1_ms", "harmonic_map_to_disk.m1"),
    ("mesh.foi_ms", "FoiMesher::mesh"),
    ("harmonic.m2_ms", "harmonic_map_to_disk.m2"),
    ("harmonic.rotation_ms", "DiskOverlay::new"),
    ("harmonic.rotation_ms", "PointLocator::new"),
    ("harmonic.rotation_ms", "RotationSearch::maximize_batch"),
    ("harmonic.rotation_ms", "DiskOverlay::map_all_with"),
    ("core.repair_ms", "repair_connectivity_strict"),
    ("core.trajectories_ms", "TrajectorySet::straight"),
    ("core.trajectories_ms", "sample_times_with_breakpoints"),
    ("core.trajectories_ms", "sample_at"),
    ("coverage.lloyd_ms", "GridPartition::new"),
    ("coverage.lloyd_ms", "run_lloyd_guarded"),
    ("core.audit_ms", "evaluate_timeline"),
];

/// The march pipeline recomposed from public calls, in `march()`'s order,
/// inside a `march` span with a span around each call. Adds per-layer
/// work counts to `layers` and returns the transition metrics, which must
/// equal `march()`'s.
fn recomposed(
    problem: &MarchProblem,
    config: &MarchConfig,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<TransitionMetrics, MarchError> {
    spans.enter("march");
    let metrics = recomposed_calls(problem, config, spans, layers);
    spans.exit();
    metrics
}

fn recomposed_calls(
    problem: &MarchProblem,
    config: &MarchConfig,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<TransitionMetrics, MarchError> {
    let n = problem.num_robots();
    let positions = &problem.positions;
    let range = problem.range;

    let t_mesh = spans.call("extract_triangulation", || {
        extract_triangulation(positions, range)
    })?;
    if let Some(robot) = (0..n).find(|&v| t_mesh.vertex_neighbors(v).is_empty()) {
        return Err(MarchError::RobotOutsideTriangulation { robot });
    }
    let filled_t = spans.call("fill_holes", || fill_holes(&t_mesh))?;
    let disk_t = spans.call("harmonic_map_to_disk.m1", || {
        harmonic_map_to_disk(filled_t.mesh(), &config.harmonic)
    })?;
    let robot_disk: Vec<Point> = (0..n).map(|v| disk_t.position(v)).collect();

    let spacing = config.resolve_mesh_spacing(problem.m2.area(), n);
    let foi2 = spans.call("FoiMesher::mesh", || {
        FoiMesher::new(spacing).mesh(&problem.m2)
    })?;
    let filled2 = spans.call("fill_holes", || fill_holes(foi2.mesh()))?;
    let disk2 = spans.call("harmonic_map_to_disk.m2", || {
        harmonic_map_to_disk(filled2.mesh(), &config.harmonic)
    })?;
    let overlay = spans.call("DiskOverlay::new", || {
        DiskOverlay::new(
            filled2.mesh(),
            disk2.positions(),
            filled2.virtual_vertices(),
        )
    });

    let links = spans.call("UnitDiskGraph::links", || {
        UnitDiskGraph::new(positions, range).links()
    });
    let disk_locator = spans.call("PointLocator::new", || {
        PointLocator::new(overlay.disk_mesh())
    });
    let map_at = |theta: f64| -> Vec<Point> {
        overlay
            .map_all_with(&disk_locator, &robot_disk, theta)
            .into_iter()
            .map(|m| problem.m2.clamp_inside(m.position))
            .collect()
    };
    let score_at = |theta: f64| -> f64 {
        let q = map_at(theta);
        if links.is_empty() {
            1.0
        } else {
            links
                .iter()
                .filter(|&&(i, j)| q[i].distance(q[j]) <= range)
                .count() as f64
                / links.len() as f64
        }
    };
    let (rotation, _score, evals) = spans.call("RotationSearch::maximize_batch", || {
        config
            .rotation
            .maximize_batch(|thetas| anr_par::par_map(thetas, 0, |&t| score_at(t)))
    });
    let mut targets = spans.call("DiskOverlay::map_all_with", || map_at(rotation));

    spans.call("repair_connectivity_strict", || {
        let boundary: Vec<usize> = filled_t
            .mesh()
            .boundary_loops()
            .into_iter()
            .next()
            .unwrap_or_default()
            .into_iter()
            .filter(|&v| v < n)
            .collect();
        repair_connectivity_strict(positions, &mut targets, &boundary, range)
    });

    let obstacles = problem.obstacles();
    let transition = spans.call("TrajectorySet::straight", || {
        TrajectorySet::straight(positions, &targets, &obstacles)
    });
    let times = spans.call("sample_times_with_breakpoints", || {
        transition.sample_times_with_breakpoints(config.time_samples)
    });
    let mut timeline = spans.call("sample_at", || transition.sample_at(&times));
    let mut total_distance = transition.total_length();

    let mut lloyd_iters = 0;
    if config.refine_coverage {
        let partition = spans.call("GridPartition::new", || {
            GridPartition::new(&problem.m2, spacing * 0.2)
        });
        let lloyd_config = anr_coverage::LloydConfig {
            record_history: true,
            ..config.lloyd
        };
        let lloyd = spans.call("run_lloyd_guarded", || {
            anr_coverage::run_lloyd_guarded(
                &targets,
                &partition,
                &config.density,
                &lloyd_config,
                range,
            )
        });
        total_distance += lloyd.total_movement;
        timeline.extend(lloyd.history.iter().cloned());
        lloyd_iters = lloyd.iterations;
    }

    let metrics = spans.call("evaluate_timeline", || {
        evaluate_timeline(&timeline, range, total_distance)
    })?;

    add(layers, "netgraph.links", links.len() as f64);
    add(
        layers,
        "mesh.foi_vertices",
        foi2.mesh().num_vertices() as f64,
    );
    add(layers, "harmonic.m1_iters", disk_t.iterations() as f64);
    add(layers, "harmonic.m2_iters", disk2.iterations() as f64);
    add(layers, "harmonic.rotation_evals", evals as f64);
    add(layers, "coverage.lloyd_iters", lloyd_iters as f64);
    add(layers, "core.timeline_rows", timeline.len() as f64);
    add(layers, "core.audit_pieces", metrics.audit_pieces as f64);
    add(layers, "core.audit_checks", metrics.audit_checks as f64);
    Ok(metrics)
}
