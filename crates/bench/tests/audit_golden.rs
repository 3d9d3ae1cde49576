//! Golden pins of the continuous-time audit.
//!
//! Each case reduces an [`AuditReport`] to an FNV-1a digest of every
//! field except `connectivity_checks` (whose meaning depends on how the
//! audit organizes its work), with `f64`s hashed by their bit patterns.
//! The digests were recorded from the global event-axis audit that
//! preceded the certificate-first one, so any change to `L`, `C`, a
//! violation interval, a maximum distance or a disconnected interval —
//! down to the last bit — fails here.
//!
//! On a mismatch the assertion prints every case's current digest.

use anr_bench::scenario_problem_sized;
use anr_geom::Point;
use anr_march::{
    audit_piecewise, march, AuditReport, MarchConfig, Method, Polyline, TrajectorySet,
};
use anr_trace::Tracer;

const SEPARATION: f64 = 10.0;

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn digest(r: &AuditReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(r.robots as u64);
    h.u64(r.initial_links as u64);
    h.u64(r.preserved_links as u64);
    h.f64(r.stable_link_ratio);
    h.u64(u64::from(r.global_connectivity));
    h.u64(r.violations.len() as u64);
    for v in &r.violations {
        h.u64(v.link.0 as u64);
        h.u64(v.link.1 as u64);
        h.f64(v.interval.0);
        h.f64(v.interval.1);
        h.f64(v.max_distance);
    }
    h.u64(r.disconnected_intervals.len() as u64);
    for &(lo, hi) in &r.disconnected_intervals {
        h.f64(lo);
        h.f64(hi);
    }
    h.u64(r.pieces as u64);
    h.0
}

fn uniform_times(rows: usize) -> Vec<f64> {
    if rows <= 1 {
        return vec![0.0];
    }
    (0..rows).map(|k| k as f64 / (rows - 1) as f64).collect()
}

fn audit_rows(rows: &[Vec<Point>], range: f64) -> u64 {
    let report = audit_piecewise(rows, &uniform_times(rows.len()), range, &Tracer::disabled())
        .expect("audit");
    digest(&report)
}

fn march_digest(id: u8, robots: usize) -> u64 {
    let problem = scenario_problem_sized(id, SEPARATION, robots).expect("scenario");
    let outcome = march(&problem, Method::MaxStableLinks, &MarchConfig::default()).expect("march");
    audit_rows(&outcome.timeline, problem.range)
}

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn set_digest(set: &TrajectorySet, samples: Option<usize>) -> u64 {
    let times = match samples {
        Some(s) => set.sample_times_with_breakpoints(s),
        None => set.breakpoints(),
    };
    let rows = set.sample_at(&times);
    let report = audit_piecewise(&rows, &times, 80.0, &Tracer::disabled()).expect("audit");
    digest(&report)
}

/// The synthetic timelines of the audit's unit tests (detours,
/// handovers, grazing breakpoints) plus degenerate sizes.
fn synthetic_cases() -> Vec<(&'static str, u64)> {
    let chain = |n: usize, detour: Option<usize>| -> TrajectorySet {
        TrajectorySet::new(
            (0..n)
                .map(|i| {
                    let x = i as f64 * 50.0;
                    if Some(i) == detour {
                        Polyline::new(vec![p(x, 0.0), p(x + 150.0, -200.0), p(x + 300.0, 40.0)])
                    } else {
                        Polyline::new(vec![p(x, 0.0), p(x + 300.0, 40.0)])
                    }
                })
                .collect(),
        )
    };
    let detouring_chain = TrajectorySet::new(
        (0..80)
            .map(|i| {
                let x = i as f64 * 50.0;
                if i % 11 == 3 {
                    Polyline::new(vec![
                        p(x, 0.0),
                        p(x + 90.0, -160.0),
                        p(x + 180.0, 30.0),
                        p(x + 300.0, 40.0),
                    ])
                } else {
                    Polyline::new(vec![p(x, 0.0), p(x + 150.0, 20.0), p(x + 300.0, 40.0)])
                }
            })
            .collect(),
    );
    let bowing_pair = TrajectorySet::new(vec![
        Polyline::stationary(p(0.0, 0.0)),
        Polyline::new(vec![p(76.0, 0.0), p(80.2, 0.0), p(72.4, 0.0)]),
    ]);
    let handover = vec![
        vec![p(0.0, 0.0), p(140.0, 0.0), p(70.0, 10.0), p(-70.0, 10.0)],
        vec![p(0.0, 0.0), p(140.0, 0.0), p(210.0, 10.0), p(70.0, 10.0)],
    ];
    let grazing = vec![
        vec![p(0.0, 0.0), p(70.0, 0.0)],
        vec![p(0.0, 0.0), p(80.0, 0.0)],
        vec![p(0.0, 0.0), p(90.0, 0.0)],
        vec![p(0.0, 0.0), p(80.0, 0.0)],
        vec![p(0.0, 0.0), p(70.0, 0.0)],
    ];
    // Two stationary 34-robot chains 140 apart, bridged by two relays
    // handing over on the middle piece: no spanning tree of links stays
    // up over it. Rising relays overlap (connected throughout), sliding
    // ones split the swarm mid-piece, and far-lifted ones start apart.
    let relay_handover = |start: [Point; 2], end: [Point; 2]| -> Vec<Vec<Point>> {
        let row = |relays: [Point; 2]| -> Vec<Point> {
            let mut v: Vec<Point> = (0..34).map(|k| p(-50.0 * k as f64, 0.0)).collect();
            v.extend((0..34).map(|k| p(140.0 + 50.0 * k as f64, 0.0)));
            v.extend(relays);
            v
        };
        vec![row(start), row(start), row(end), row(end)]
    };
    let rising = |lift: f64| {
        relay_handover(
            [p(70.0, 0.0), p(70.0, -lift)],
            [p(70.0, lift), p(70.0, 0.0)],
        )
    };
    let sliding = relay_handover(
        [p(70.0, 10.0), p(-70.0, 10.0)],
        [p(210.0, 10.0), p(70.0, 10.0)],
    );
    let pair = |q: Point| vec![vec![p(0.0, 0.0), p(50.0, 0.0)], vec![p(0.0, 0.0), q]];
    vec![
        ("rigid_chain_70", set_digest(&chain(70, None), None)),
        ("detour_chain_70", set_digest(&chain(70, Some(0)), None)),
        (
            "detour_chain_70_mid",
            set_digest(&chain(70, Some(35)), Some(30)),
        ),
        ("detouring_chain_80", set_digest(&detouring_chain, Some(40))),
        ("bowing_pair", set_digest(&bowing_pair, None)),
        ("handover", audit_rows(&handover, 80.0)),
        ("grazing", audit_rows(&grazing, 80.0)),
        ("relay_handover_70", audit_rows(&rising(45.0), 80.0)),
        ("relay_gap_70", audit_rows(&rising(200.0), 80.0)),
        ("relay_slide_70", audit_rows(&sliding, 80.0)),
        ("n0", audit_rows(&[vec![], vec![]], 80.0)),
        ("n0_single_row", audit_rows(&[vec![]], 80.0)),
        (
            "n1",
            audit_rows(&[vec![p(0.0, 0.0)], vec![p(500.0, 9.0)]], 80.0),
        ),
        ("n2_kept", audit_rows(&pair(p(70.0, 30.0)), 80.0)),
        ("n2_broken", audit_rows(&pair(p(300.0, 0.0)), 80.0)),
        (
            "n2_apart",
            audit_rows(&vec![vec![p(0.0, 0.0), p(500.0, 0.0)]; 2], 80.0),
        ),
        (
            "single_row_connected",
            audit_rows(&[vec![p(0.0, 0.0), p(50.0, 0.0)]], 80.0),
        ),
        (
            "single_row_split",
            audit_rows(&[vec![p(0.0, 0.0), p(500.0, 0.0)]], 80.0),
        ),
    ]
}

#[test]
fn audit_matches_golden_digests_on_synthetic_timelines() {
    const EXPECTED: [(&str, u64); 18] = [
        ("rigid_chain_70", 0x055efc0985bba43a),
        ("detour_chain_70", 0xd35c2b86c26dac00),
        ("detour_chain_70_mid", 0xa2156af72c2941dd),
        ("detouring_chain_80", 0x29c47016c01ae034),
        ("bowing_pair", 0x8473c1da6117f90c),
        ("handover", 0x680042270bba8828),
        ("grazing", 0xd51fded1d4ddc485),
        ("relay_handover_70", 0x69a2bae315f7e481),
        ("relay_gap_70", 0x492e50cd5a9a157a),
        ("relay_slide_70", 0x2c69ad175109a4fd),
        ("n0", 0xff3e3a3ac85bb978),
        ("n0_single_row", 0x1e390143d34b0399),
        ("n1", 0xaad6938e638b1499),
        ("n2_kept", 0x5ef6a22ca0d08436),
        ("n2_broken", 0x87d841ac9afdc2f8),
        ("n2_apart", 0xc44145a71a25d447),
        ("single_row_connected", 0x7df16935abbfce57),
        ("single_row_split", 0x67069cb8c1fc4077),
    ];
    assert_eq!(synthetic_cases(), EXPECTED);
}

#[test]
fn audit_matches_golden_digests_on_every_scenario_at_144_robots() {
    const EXPECTED: [(u8, u64); 7] = [
        (1, 0xb18313c7eb9b1443),
        (2, 0xc1eb5455ef47f332),
        (3, 0x17fbbfccc99ec1ba),
        (4, 0xf67ba8cc700f9c14),
        (5, 0x99d0d48e8d8524f7),
        (6, 0x7126906fa4bcef79),
        (7, 0x68ab0acd2ece7c57),
    ];
    let got: Vec<(u8, u64)> = (1..=7u8).map(|id| (id, march_digest(id, 144))).collect();
    assert_eq!(got, EXPECTED);
}

#[test]
fn audit_matches_golden_digests_on_dense_scenarios_at_1296_robots() {
    const EXPECTED: [(u8, u64); 3] = [
        (1, 0xc910a92d60ca9202),
        (2, 0x0b1503df35ec6dca),
        (4, 0xc9b2f2138c271cdf),
    ];
    let got: Vec<(u8, u64)> = [1u8, 2, 4]
        .into_iter()
        .map(|id| (id, march_digest(id, 1296)))
        .collect();
    assert_eq!(got, EXPECTED);
}
