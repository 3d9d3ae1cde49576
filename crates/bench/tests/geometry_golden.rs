//! Golden pins of the geometry under the march.
//!
//! Two families of FNV-1a digests (`f64`s hashed by their bit
//! patterns), recorded from the all-triangle Bowyer–Watson scan and the
//! full-edge-scan polygon predicates that preceded the circumcircle grid
//! and the edge-box filters:
//!
//! * `delaunay` triangle lists (or the error it returns) on the point
//!   sets `FoiMesher` triangulates for every scenario FoI, with and
//!   without jitter, on the robot deployments, on exact integer grids
//!   (every cell cocircular), on seeded random clouds and on degenerate
//!   inputs;
//! * the `march()` outcome: `mapped`, `final_positions`, `rotation`,
//!   `timeline`, `D` and `lloyd_iterations`.
//!
//! Any change to a triangle, its orientation or the list order, or to
//! any bit of a march outcome, fails here. On a mismatch the assertion
//! prints every case's current digest.

use anr_bench::scenario_problem_sized;
use anr_geom::Point;
use anr_march::{march, MarchConfig, MarchOutcome, Method};
use anr_mesh::{delaunay, FoiMesher};

const SEPARATION: f64 = 10.0;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn points(&mut self, pts: &[Point]) {
        self.u64(pts.len() as u64);
        for p in pts {
            self.f64(p.x);
            self.f64(p.y);
        }
    }
}

fn delaunay_digest(pts: &[Point]) -> u64 {
    let mut h = Fnv::new();
    match delaunay(pts) {
        Ok(m) => {
            h.u64(m.num_vertices() as u64);
            h.u64(m.num_triangles() as u64);
            for t in m.triangles() {
                for &v in t {
                    h.u64(v as u64);
                }
            }
        }
        Err(e) => {
            h.u64(u64::MAX);
            for b in format!("{e:?}").bytes() {
                h.u64(u64::from(b));
            }
        }
    }
    h.0
}

/// Seeded LCG cloud in `[0, scale)²`.
fn cloud(n: usize, seed: u64, scale: f64) -> Vec<Point> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| Point::new(next() * scale, next() * scale))
        .collect()
}

/// Exact integer grid, row-major.
fn integer_grid(nx: usize, ny: usize) -> Vec<Point> {
    (0..ny)
        .flat_map(|j| (0..nx).map(move |i| Point::new(i as f64, j as f64)))
        .collect()
}

fn point_set_cases() -> Vec<(String, Vec<Point>)> {
    let mut cases = Vec::new();
    for robots in [144usize, 1296] {
        for id in 1..=7u8 {
            let problem = scenario_problem_sized(id, SEPARATION, robots).expect("scenario");
            let n = problem.positions.len();
            for (name, region) in [("m1", &problem.m1), ("m2", &problem.m2)] {
                let spacing = MarchConfig::default().resolve_mesh_spacing(region.area(), n);
                for (tag, jitter) in [("j", 1e-3), ("exact", 0.0)] {
                    let pts = FoiMesher::new(spacing).jitter(jitter).sample_points(region);
                    cases.push((format!("foi_{name}_sc{id}_{robots}_{tag}"), pts));
                }
            }
            cases.push((format!("robots_sc{id}_{robots}"), problem.positions.clone()));
        }
    }
    for (nx, ny) in [(8usize, 8usize), (30, 20), (60, 60)] {
        cases.push((format!("grid_{nx}x{ny}"), integer_grid(nx, ny)));
    }
    for (n, seed) in [(100usize, 1u64), (1000, 2), (5000, 3)] {
        cases.push((format!("cloud_{n}"), cloud(n, seed, 1000.0)));
    }
    cases.push(("coincident".into(), vec![Point::new(3.0, 4.0); 12]));
    cases.push((
        "collinear".into(),
        (0..50)
            .map(|i| Point::new(i as f64, 2.0 * i as f64))
            .collect(),
    ));
    let huge: Vec<Point> = cloud(200, 4, 1.0)
        .into_iter()
        .map(|p| Point::new(p.x * 1e300, p.y * 1e300))
        .collect();
    cases.push(("huge_1e300".into(), huge));
    let tiny: Vec<Point> = cloud(200, 5, 1.0)
        .into_iter()
        .map(|p| Point::new(p.x * 1e-300, p.y * 1e-300))
        .collect();
    cases.push(("tiny_1e-300".into(), tiny));
    // Large offsets and small scales: the circumcircle cache and the
    // grid's cell mapping both lose relative precision.
    for (tag, scale, offset) in [("offset_1e7", 100.0, 1e7), ("scale_1e-4", 1e-4, 0.0)] {
        let moved: Vec<Point> = cloud(400, 6, scale)
            .into_iter()
            .map(|p| Point::new(p.x + offset, p.y - offset))
            .collect();
        cases.push((format!("cloud_{tag}"), moved));
    }
    cases
}

#[test]
fn delaunay_matches_golden_digests() {
    let got: Vec<(String, u64)> = point_set_cases()
        .into_iter()
        .map(|(name, pts)| (name, delaunay_digest(&pts)))
        .collect();
    let expected: Vec<(String, u64)> = EXPECTED_DELAUNAY
        .iter()
        .map(|&(name, d)| (name.to_string(), d))
        .collect();
    assert_eq!(got, expected);
}

const EXPECTED_DELAUNAY: [(&str, u64); 82] = [
    ("foi_m1_sc1_144_j", 0x81f1d62d329139cb),
    ("foi_m1_sc1_144_exact", 0x8283f86d063aecdd),
    ("foi_m2_sc1_144_j", 0xd35cc6fdf31e7297),
    ("foi_m2_sc1_144_exact", 0xedf5740e89b638a1),
    ("robots_sc1_144", 0xe2f733cd3cec0615),
    ("foi_m1_sc2_144_j", 0x81f1d62d329139cb),
    ("foi_m1_sc2_144_exact", 0x8283f86d063aecdd),
    ("foi_m2_sc2_144_j", 0x87c7281df5c8123b),
    ("foi_m2_sc2_144_exact", 0x0dd7910d824cf693),
    ("robots_sc2_144", 0xe2f733cd3cec0615),
    ("foi_m1_sc3_144_j", 0x81f1d62d329139cb),
    ("foi_m1_sc3_144_exact", 0x8283f86d063aecdd),
    ("foi_m2_sc3_144_j", 0x8a489afdab223994),
    ("foi_m2_sc3_144_exact", 0xbae033c0a9f0a1c5),
    ("robots_sc3_144", 0xe2f733cd3cec0615),
    ("foi_m1_sc4_144_j", 0x81f1d62d329139cb),
    ("foi_m1_sc4_144_exact", 0x8283f86d063aecdd),
    ("foi_m2_sc4_144_j", 0x4dc7d9a70e4c008e),
    ("foi_m2_sc4_144_exact", 0x78f44601b93b075c),
    ("robots_sc4_144", 0xe2f733cd3cec0615),
    ("foi_m1_sc5_144_j", 0x81f1d62d329139cb),
    ("foi_m1_sc5_144_exact", 0x8283f86d063aecdd),
    ("foi_m2_sc5_144_j", 0x0689b71165f23ca3),
    ("foi_m2_sc5_144_exact", 0x2d2ce1fc971d9ee2),
    ("robots_sc5_144", 0xe2f733cd3cec0615),
    ("foi_m1_sc6_144_j", 0x131d2bf88983a745),
    ("foi_m1_sc6_144_exact", 0xcb50d373f8618e28),
    ("foi_m2_sc6_144_j", 0xd5d553ef5f6f8756),
    ("foi_m2_sc6_144_exact", 0x40302e160da82491),
    ("robots_sc6_144", 0x6c5f7a49d52a3dcb),
    ("foi_m1_sc7_144_j", 0x601aa5900c5c6591),
    ("foi_m1_sc7_144_exact", 0x2f90acaa242b1414),
    ("foi_m2_sc7_144_j", 0x296d72a724c03b09),
    ("foi_m2_sc7_144_exact", 0xd1fc66ea77ded0dc),
    ("robots_sc7_144", 0xf0808c29c8d12f2f),
    ("foi_m1_sc1_1296_j", 0x95ecbef67e78080e),
    ("foi_m1_sc1_1296_exact", 0x833083a6cabb0e2f),
    ("foi_m2_sc1_1296_j", 0xa92c8aec862f0963),
    ("foi_m2_sc1_1296_exact", 0x499c9d33360196cc),
    ("robots_sc1_1296", 0x22aa185d6045a58e),
    ("foi_m1_sc2_1296_j", 0x95ecbef67e78080e),
    ("foi_m1_sc2_1296_exact", 0x833083a6cabb0e2f),
    ("foi_m2_sc2_1296_j", 0x0ba589f68c4bd57e),
    ("foi_m2_sc2_1296_exact", 0xcd7512fc2fb56623),
    ("robots_sc2_1296", 0x22aa185d6045a58e),
    ("foi_m1_sc3_1296_j", 0x95ecbef67e78080e),
    ("foi_m1_sc3_1296_exact", 0x833083a6cabb0e2f),
    ("foi_m2_sc3_1296_j", 0xfec93857a2153bc1),
    ("foi_m2_sc3_1296_exact", 0x12f6ee94d80d27d3),
    ("robots_sc3_1296", 0x22aa185d6045a58e),
    ("foi_m1_sc4_1296_j", 0x95ecbef67e78080e),
    ("foi_m1_sc4_1296_exact", 0x833083a6cabb0e2f),
    ("foi_m2_sc4_1296_j", 0xb220255c6b275016),
    ("foi_m2_sc4_1296_exact", 0x45b88ab503814942),
    ("robots_sc4_1296", 0x22aa185d6045a58e),
    ("foi_m1_sc5_1296_j", 0x95ecbef67e78080e),
    ("foi_m1_sc5_1296_exact", 0x833083a6cabb0e2f),
    ("foi_m2_sc5_1296_j", 0xbb5130662f38b02d),
    ("foi_m2_sc5_1296_exact", 0xab5a0ff7577be752),
    ("robots_sc5_1296", 0x22aa185d6045a58e),
    ("foi_m1_sc6_1296_j", 0xfe6b20f4845ef083),
    ("foi_m1_sc6_1296_exact", 0x52a0cd043f2c1cfb),
    ("foi_m2_sc6_1296_j", 0x2ea8e9d4d1cf7df3),
    ("foi_m2_sc6_1296_exact", 0x7cda1b5853caea85),
    ("robots_sc6_1296", 0x489659333fb8ddd4),
    ("foi_m1_sc7_1296_j", 0x0005682d5197e393),
    ("foi_m1_sc7_1296_exact", 0xa5c11693f09847f8),
    ("foi_m2_sc7_1296_j", 0x46b6ce2f7d4fd07d),
    ("foi_m2_sc7_1296_exact", 0xc07588f813bdcd8d),
    ("robots_sc7_1296", 0x60bee2269176635a),
    ("grid_8x8", 0x5ecbb8676884cd58),
    ("grid_30x20", 0x34f8b7a6c068e3aa),
    ("grid_60x60", 0xaaf73e56ce5d1553),
    ("cloud_100", 0xffa7fe51e143e8b6),
    ("cloud_1000", 0xfd953851c19dca13),
    ("cloud_5000", 0x96eea1a17a85d111),
    ("coincident", 0xfac047142ef525c1),
    ("collinear", 0xfac047142ef525c1),
    ("huge_1e300", 0xfac047142ef525c1),
    ("tiny_1e-300", 0xfac047142ef525c1),
    ("cloud_offset_1e7", 0x6148ec2c79929b65),
    ("cloud_scale_1e-4", 0x606013d761ad3056),
];

fn march_digest(o: &MarchOutcome) -> u64 {
    let mut h = Fnv::new();
    h.points(&o.mapped);
    h.points(&o.final_positions);
    h.f64(o.rotation);
    h.u64(o.timeline.len() as u64);
    for row in &o.timeline {
        h.points(row);
    }
    h.f64(o.metrics.total_distance);
    h.u64(o.lloyd_iterations as u64);
    h.0
}

fn march_case(id: u8, robots: usize) -> u64 {
    let problem = scenario_problem_sized(id, SEPARATION, robots).expect("scenario");
    let outcome = march(&problem, Method::MaxStableLinks, &MarchConfig::default()).expect("march");
    march_digest(&outcome)
}

#[test]
fn march_matches_golden_digests_on_every_scenario_at_144_robots() {
    const EXPECTED: [(u8, u64); 7] = [
        (1, 0x677d61d291831f0c),
        (2, 0xe109a91968fb40be),
        (3, 0xa3a1002a9b78aacb),
        (4, 0x4423c32e196f84ad),
        (5, 0x86fdc258aa9860d4),
        (6, 0x6b9da7114a368d4b),
        (7, 0x4840a454c1f92197),
    ];
    let got: Vec<(u8, u64)> = (1..=7u8).map(|id| (id, march_case(id, 144))).collect();
    assert_eq!(got, EXPECTED);
}

#[test]
fn march_matches_golden_digests_on_dense_scenarios_at_1296_robots() {
    const EXPECTED: [(u8, u64); 3] = [
        (1, 0x41e7acb43c77d832),
        (2, 0xed41b43f463fc0fe),
        (4, 0x4fbf37107460f035),
    ];
    let got: Vec<(u8, u64)> = [1u8, 2, 4]
        .into_iter()
        .map(|id| (id, march_case(id, 1296)))
        .collect();
    assert_eq!(got, EXPECTED);
}
