//! Cross-crate property tests: randomized FoI shapes and deployments
//! through the full pipeline.

use anr_marching::geom::{Point, Polygon, PolygonWithHoles};
use anr_marching::march::{march, MarchConfig, MarchProblem, Method};
use anr_marching::netgraph::UnitDiskGraph;
use anr_marching::scenarios::blob;
use proptest::prelude::*;

proptest! {
    // Full-pipeline runs are comparatively expensive; a handful of cases
    // each is plenty to sweep the seeded shape space.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn marching_between_random_blobs_keeps_connectivity(
        seed1 in 0u64..1000,
        seed2 in 1000u64..2000,
        sep in 8.0..40.0f64,
    ) {
        let m1 = PolygonWithHoles::without_holes(
            blob(Point::ORIGIN, 200_000.0, seed1, 48).unwrap(),
        );
        let m2 = PolygonWithHoles::without_holes(
            blob(Point::new(sep * 80.0, 0.0), 180_000.0, seed2, 48).unwrap(),
        );
        let problem = MarchProblem::with_lattice_deployment(m1, m2, 96, 80.0).unwrap();
        let out = march(&problem, Method::MaxStableLinks, &MarchConfig::default()).unwrap();

        // The paper's guarantee: global connectivity at every sample.
        prop_assert_eq!(out.metrics.global_connectivity, 1);
        // Everyone ends inside the target FoI.
        for q in &out.final_positions {
            prop_assert!(problem.m2.contains(*q));
        }
        // Stable link ratio is meaningful.
        prop_assert!(out.metrics.stable_link_ratio > 0.3);
        prop_assert!(out.metrics.stable_link_ratio <= 1.0);
    }

    #[test]
    fn metrics_are_internally_consistent(
        seed in 0u64..500,
    ) {
        let m1 = PolygonWithHoles::without_holes(
            blob(Point::ORIGIN, 150_000.0, seed, 48).unwrap(),
        );
        let m2 = PolygonWithHoles::without_holes(
            blob(Point::new(1500.0, 0.0), 150_000.0, seed + 7, 48).unwrap(),
        );
        let problem = MarchProblem::with_lattice_deployment(m1, m2, 72, 80.0).unwrap();
        let out = march(&problem, Method::MinMovingDistance, &MarchConfig::default()).unwrap();

        prop_assert_eq!(out.metrics.initial_links,
            UnitDiskGraph::new(&problem.positions, 80.0).num_links());
        prop_assert!(out.metrics.preserved_links <= out.metrics.initial_links);
        let expect_ratio = out.metrics.preserved_links as f64 / out.metrics.initial_links as f64;
        prop_assert!((out.metrics.stable_link_ratio - expect_ratio).abs() < 1e-12);
        // D is at least the sum of straight-line displacements.
        let lower: f64 = problem.positions.iter()
            .zip(&out.final_positions)
            .map(|(a, b)| a.distance(*b))
            .sum();
        prop_assert!(out.metrics.total_distance >= lower - 1e-6);
    }

    #[test]
    fn degenerate_square_fois_work(side in 250.0..500.0f64, robots in 16usize..48) {
        // Axis-aligned rectangles are a degenerate boundary case for the
        // meshing (collinear boundary runs): the pipeline must not panic.
        let m1 = PolygonWithHoles::without_holes(
            Polygon::rectangle(Point::ORIGIN, side, side),
        );
        let m2 = PolygonWithHoles::without_holes(
            Polygon::rectangle(Point::new(side + 900.0, 0.0), side, side * 0.8),
        );
        // Skip deployments whose lattice pitch exceeds the range.
        let pitch = (side * side / robots as f64 * 2.0 / 3f64.sqrt()).sqrt();
        // Near-range pitches can disconnect after the coverage
        // refinement redistributes the lattice; stay clearly below r_c.
        prop_assume!(pitch < 68.0);
        let problem = match MarchProblem::with_lattice_deployment(m1, m2, robots, 80.0) {
            Ok(p) => p,
            // Marginal lattices can end up disconnected after refinement.
            Err(anr_marching::march::MarchError::DisconnectedDeployment { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("problem: {e}"))),
        };
        let out = match march(&problem, Method::MaxStableLinks, &MarchConfig::default()) {
            Ok(o) => o,
            // A robot connected only through over-range Delaunay edges is
            // a documented error path, not a pipeline failure.
            Err(anr_marching::march::MarchError::RobotOutsideTriangulation { .. }) => {
                return Ok(())
            }
            Err(e) => return Err(TestCaseError::fail(format!("march: {e}"))),
        };
        prop_assert_eq!(out.metrics.global_connectivity, 1);
    }
}

/// Checks the exact audit of a piecewise-linear timeline against
/// `samples + 1` evenly spaced instants: everything the dense check can
/// see must agree with the exact (quadratic-extremum) verdict, and the
/// exact verdict may only be *stricter* — it catches violations that
/// slip between samples, never the reverse. Every disconnected sample
/// must lie in a reported disconnected interval, and every sample well
/// inside one must be disconnected.
fn check_against_dense_sampling(
    rows: &[Vec<Point>],
    times: &[f64],
    range: f64,
    samples: usize,
) -> Result<(), TestCaseError> {
    use anr_marching::march::audit_piecewise;
    use anr_marching::trace::Tracer;

    let n = rows[0].len();
    let report = audit_piecewise(rows, times, range, &Tracer::disabled()).unwrap();

    let sample_pos = |s: f64| -> Vec<Point> {
        let seg = times.partition_point(|&t| t <= s).clamp(1, times.len() - 1) - 1;
        let tau = (s - times[seg]) / (times[seg + 1] - times[seg]);
        (0..n)
            .map(|i| {
                let a = rows[seg][i];
                let b = rows[seg + 1][i];
                Point::new(a.x + (b.x - a.x) * tau, a.y + (b.y - a.y) * tau)
            })
            .collect()
    };

    let initial = UnitDiskGraph::new(&rows[0], range).links();
    let mut sampled_stable: std::collections::HashSet<(usize, usize)> =
        initial.iter().copied().collect();
    let mut sampled_connected = true;
    for k in 0..=samples {
        let s = times[0] + (times[times.len() - 1] - times[0]) * k as f64 / samples as f64;
        let pos = sample_pos(s);
        let connected = UnitDiskGraph::new(&pos, range).is_connected();
        sampled_connected &= connected;
        sampled_stable.retain(|&(i, j)| pos[i].distance(pos[j]) <= range);
        let reported = |margin: f64| {
            report
                .disconnected_intervals
                .iter()
                .any(|&(lo, hi)| lo + margin < s && s < hi - margin)
        };
        if !connected {
            prop_assert!(
                reported(-1e-9),
                "sample {} disconnected outside every reported interval",
                s
            );
        }
        if reported(1e-9) {
            prop_assert!(
                !connected,
                "sample {} connected inside a reported disconnect",
                s
            );
        }
    }

    let exact_violated: std::collections::HashSet<(usize, usize)> =
        report.violations.iter().map(|v| v.link).collect();

    // Exact bookkeeping is internally consistent.
    prop_assert_eq!(report.initial_links, initial.len());
    prop_assert_eq!(
        report.preserved_links,
        report.initial_links - exact_violated.len()
    );
    prop_assert!(report.certified_pieces <= report.pieces);
    prop_assert_eq!(
        report.global_connectivity == 1,
        report.disconnected_intervals.is_empty()
    );

    for &link in &initial {
        if !exact_violated.contains(&link) {
            // Exact says stable ⇒ no sample may see it out of range.
            prop_assert!(
                sampled_stable.contains(&link),
                "auditor kept {:?} but a dense sample breaks it",
                link
            );
        } else if !sampled_stable.contains(&link) {
            // Both agree it breaks — fine.
        } else {
            // Exact caught a violation the samples missed: it must
            // be a genuinely narrow excursion (shorter than two
            // sample steps), not a bookkeeping error.
            let v = report.violations.iter().find(|v| v.link == link).unwrap();
            prop_assert!(
                v.interval.1 - v.interval.0 < 2.0 / samples as f64,
                "wide violation {:?} of {:?} invisible to {} samples",
                v.interval,
                link,
                samples
            );
            prop_assert!(v.max_distance > range);
        }
    }

    // Connectivity: a dense-sample disconnect must be caught
    // exactly; the exact C may only be stricter.
    if report.global_connectivity == 1 {
        prop_assert!(sampled_connected);
    }
    Ok(())
}

proptest! {
    // Dense-sampling cross-checks are cheap; run more cases than the
    // full-pipeline properties above.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The closed-form continuous-time auditor against brute force, on
    /// two kinds of random piecewise-linear timelines: 6 free robots
    /// over 2 pieces (10⁴ samples), and 72 robots in 4 drifting,
    /// jittering clusters over 4 pieces (10³ samples) — large enough that
    /// spanning-tree certified pieces, exactly swept ones and the
    /// boundaries between them all occur.
    #[test]
    fn exact_audit_agrees_with_dense_sampling(
        coords in prop::collection::vec((-250.0..250.0f64, -250.0..250.0f64), 18),
        centers in prop::collection::vec((-120.0..120.0f64, -120.0..120.0f64), 4),
        drift in prop::collection::vec((-60.0..60.0f64, -60.0..60.0f64), 16),
        offsets in prop::collection::vec((-50.0..50.0f64, -50.0..50.0f64), 72),
        jitter in prop::collection::vec((-12.0..12.0f64, -12.0..12.0f64), 360),
    ) {
        let n = coords.len() / 3;
        let rows: Vec<Vec<Point>> = (0..3)
            .map(|k| (0..n).map(|i| {
                let (x, y) = coords[k * n + i];
                Point::new(x, y)
            }).collect())
            .collect();
        check_against_dense_sampling(&rows, &[0.0, 0.5, 1.0], 150.0, 10_000)?;

        let mut center: Vec<(f64, f64)> = centers;
        let mut clustered = Vec::new();
        for k in 0..5 {
            if k > 0 {
                for (c, d) in center.iter_mut().zip(&drift[4 * (k - 1)..4 * k]) {
                    *c = (c.0 + d.0, c.1 + d.1);
                }
            }
            clustered.push((0..72).map(|i| {
                let (cx, cy) = center[i % 4];
                let (ox, oy) = offsets[i];
                let (jx, jy) = jitter[k * 72 + i];
                Point::new(cx + ox + jx, cy + oy + jy)
            }).collect::<Vec<_>>());
        }
        check_against_dense_sampling(&clustered, &[0.0, 0.25, 0.5, 0.75, 1.0], 150.0, 1_000)?;
    }
}
