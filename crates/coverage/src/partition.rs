//! Sample-grid Voronoi partition of a field of interest.

use crate::Density;
use anr_geom::{NearestGrid, Point, PolygonWithHoles};

/// A dense sample grid over a FoI used to evaluate Voronoi regions,
/// centroids and coverage integrals on concave, multiply-connected
/// regions.
///
/// Build once per FoI and reuse across Lloyd iterations; each
/// [`GridPartition::assign`] is a nearest-site query per sample
/// accelerated by a bucket grid over the sites.
#[derive(Debug, Clone)]
pub struct GridPartition {
    region: PolygonWithHoles,
    samples: Vec<Point>,
    /// Area represented by each sample (spacing²).
    cell_area: f64,
}

impl GridPartition {
    /// Samples `region` on a square grid with the given spacing.
    ///
    /// # Panics
    ///
    /// Panics when `spacing <= 0` or when the region is so thin that no
    /// sample lands inside it.
    pub fn new(region: &PolygonWithHoles, spacing: f64) -> Self {
        assert!(spacing > 0.0, "spacing must be positive");
        let samples = region.grid_points(spacing);
        assert!(
            !samples.is_empty(),
            "no grid samples inside the region; decrease the spacing"
        );
        GridPartition {
            region: region.clone(),
            samples,
            cell_area: spacing * spacing,
        }
    }

    /// The sampled region.
    #[inline]
    pub fn region(&self) -> &PolygonWithHoles {
        &self.region
    }

    /// The sample points.
    #[inline]
    pub fn samples(&self) -> &[Point] {
        &self.samples
    }

    /// Area represented by one sample.
    #[inline]
    pub fn cell_area(&self) -> f64 {
        self.cell_area
    }

    /// Assigns every sample to its nearest site; returns per-site sample
    /// index lists (the discrete Voronoi regions).
    ///
    /// The nearest-site pass — the hot loop of every Lloyd iteration —
    /// buckets the sites into a uniform [`NearestGrid`] (rebuilt per
    /// call, `O(sites)`) and answers each sample with an expanding ring
    /// search, so the cost is `samples × O(1)` instead of `samples ×
    /// sites`. Sample chunks fan
    /// out over worker threads ([`anr_par`]); ties (lowest site index
    /// among equidistant sites) and output order are identical to the
    /// brute-force serial loop whatever the worker count — pinned by
    /// `assign_grid_matches_brute_force`.
    ///
    /// # Panics
    ///
    /// Panics when `sites` is empty.
    pub fn assign(&self, sites: &[Point]) -> Vec<Vec<usize>> {
        let mut regions: Vec<Vec<usize>> = vec![Vec::new(); sites.len()];
        for (k, &i) in self.nearest_sites(sites).iter().flatten().enumerate() {
            regions[i].push(k);
        }
        regions
    }

    /// The nearest-site pass: each sample's site index, per sample chunk
    /// in sample order.
    fn nearest_sites(&self, sites: &[Point]) -> Vec<Vec<usize>> {
        assert!(!sites.is_empty(), "need at least one site");
        let grid = NearestGrid::new(sites);
        anr_par::par_chunks(&self.samples, 2048, 0, |chunk| {
            chunk
                .iter()
                .map(|&s| grid.nearest(sites, s))
                .collect::<Vec<usize>>()
        })
    }

    /// Reference nearest-site pass: the plain `samples × sites` loop the
    /// bucket-grid [`GridPartition::assign`] is pinned against.
    pub fn assign_brute_force(&self, sites: &[Point]) -> Vec<Vec<usize>> {
        assert!(!sites.is_empty(), "need at least one site");
        let nearest = anr_par::par_chunks(&self.samples, 2048, 0, |chunk| {
            chunk
                .iter()
                .map(|&s| {
                    let mut best = 0usize;
                    let mut best_d = f64::INFINITY;
                    for (i, &site) in sites.iter().enumerate() {
                        let d = site.distance_sq(s);
                        if d < best_d {
                            best_d = d;
                            best = i;
                        }
                    }
                    best
                })
                .collect::<Vec<usize>>()
        });
        let mut regions: Vec<Vec<usize>> = vec![Vec::new(); sites.len()];
        for (k, &i) in nearest.iter().flatten().enumerate() {
            regions[i].push(k);
        }
        regions
    }

    /// Density-weighted centroid of each site's Voronoi region.
    ///
    /// Sites whose region is empty keep their current position. Centroids
    /// that fall outside the region (possible for concave regions and
    /// holes) are snapped to the nearest region point, per Sec. III-D-3.
    ///
    /// Each sample's weighted position is added to its site's sums
    /// straight off the nearest-site pass, in ascending sample order —
    /// the order [`GridPartition::assign`]'s region lists hold — so no
    /// region lists are built and the sums are bit-identical to summing
    /// over them.
    pub fn centroids(&self, sites: &[Point], density: &Density) -> Vec<Point> {
        // Per site: Σρx, Σρy, Σρ and the sample count.
        let mut sums = vec![(0.0f64, 0.0f64, 0.0f64, 0usize); sites.len()];
        for (k, &i) in self.nearest_sites(sites).iter().flatten().enumerate() {
            let p = self.samples[k];
            let rho = density.eval(&self.region, p);
            let s = &mut sums[i];
            s.0 += rho * p.x;
            s.1 += rho * p.y;
            s.2 += rho;
            s.3 += 1;
        }
        sites
            .iter()
            .zip(&sums)
            .map(|(&site, &(wx, wy, w, count))| {
                if count == 0 {
                    return site;
                }
                self.region.clamp_inside(Point::new(wx / w, wy / w))
            })
            .collect()
    }

    /// The sample point nearest to `p` — the "nearest grid point" rule
    /// for hole-avoidance fallbacks.
    ///
    /// Construction guarantees at least one sample; for an (impossible)
    /// empty sample set the query point itself is returned.
    pub fn nearest_sample(&self, p: Point) -> Point {
        self.samples
            .iter()
            .min_by(|a, b| a.distance_sq(p).total_cmp(&b.distance_sq(p)))
            .copied()
            .unwrap_or(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_geom::Polygon;

    fn square(side: f64) -> PolygonWithHoles {
        PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, side, side))
    }

    #[test]
    fn sample_count_tracks_area() {
        let part = GridPartition::new(&square(100.0), 5.0);
        let expect = (100.0f64 / 5.0).powi(2);
        assert!((part.samples().len() as f64 - expect).abs() / expect < 0.1);
        assert_eq!(part.cell_area(), 25.0);
    }

    #[test]
    fn assign_partitions_all_samples() {
        let part = GridPartition::new(&square(60.0), 4.0);
        let sites = vec![Point::new(15.0, 30.0), Point::new(45.0, 30.0)];
        let regions = part.assign(&sites);
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].len() + regions[1].len(), part.samples().len());
        // Symmetric split.
        let diff = regions[0].len() as isize - regions[1].len() as isize;
        assert!(diff.abs() < 20, "unbalanced split: {diff}");
        // Every sample assigned to its nearer site.
        for &k in &regions[0] {
            let s = part.samples()[k];
            assert!(s.distance(sites[0]) <= s.distance(sites[1]) + 1e-9);
        }
    }

    #[test]
    fn uniform_centroid_of_single_site_is_region_center() {
        let part = GridPartition::new(&square(80.0), 2.0);
        let c = part.centroids(&[Point::new(7.0, 9.0)], &Density::Uniform);
        assert!(c[0].distance(Point::new(40.0, 40.0)) < 2.0);
    }

    #[test]
    fn density_pulls_centroid() {
        let part = GridPartition::new(&square(80.0), 2.0);
        let dens = Density::Radial {
            center: Point::new(70.0, 40.0),
            falloff: 15.0,
            gain: 20.0,
        };
        let c = part.centroids(&[Point::new(40.0, 40.0)], &dens);
        assert!(c[0].x > 45.0, "centroid {} not pulled toward density", c[0]);
    }

    #[test]
    fn centroid_snapped_out_of_hole() {
        let outer = Polygon::rectangle(Point::ORIGIN, 100.0, 100.0);
        let hole = Polygon::rectangle(Point::new(35.0, 35.0), 30.0, 30.0);
        let region = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        let part = GridPartition::new(&region, 2.5);
        // One site centered: its region is the whole FoI, whose centroid
        // is the hole center — must be snapped to the hole boundary.
        let c = part.centroids(&[Point::new(50.0, 48.0)], &Density::Uniform);
        assert!(region.contains(c[0]));
        assert!(!region.in_hole(c[0]));
    }

    #[test]
    fn empty_region_site_keeps_position() {
        let part = GridPartition::new(&square(50.0), 2.0);
        // Second site is far outside; all samples go to the first.
        let sites = vec![Point::new(25.0, 25.0), Point::new(4000.0, 4000.0)];
        let c = part.centroids(&sites, &Density::Uniform);
        assert_eq!(c[1], sites[1]);
    }

    #[test]
    fn nearest_sample_is_in_region() {
        let outer = Polygon::rectangle(Point::ORIGIN, 100.0, 100.0);
        let hole = Polygon::rectangle(Point::new(40.0, 40.0), 20.0, 20.0);
        let region = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        let part = GridPartition::new(&region, 3.0);
        let s = part.nearest_sample(Point::new(50.0, 50.0)); // hole center
        assert!(region.contains(s));
        assert!(!region.in_hole(s));
    }

    #[test]
    fn assign_grid_matches_brute_force() {
        // Deterministic pseudo-random sites (LCG), including exact
        // duplicates (index ties) and far-outlier sites.
        let part = GridPartition::new(&square(100.0), 1.5);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut sites: Vec<Point> = (0..200)
            .map(|_| Point::new(next() * 140.0 - 20.0, next() * 140.0 - 20.0))
            .collect();
        sites.push(sites[17]); // exact duplicate: tie must pick index 17
        sites.push(Point::new(5000.0, -5000.0)); // far outlier
        assert_eq!(part.assign(&sites), part.assign_brute_force(&sites));

        // Sample exactly equidistant between two sites.
        let part = GridPartition::new(&square(10.0), 1.0);
        let sites = vec![Point::new(2.0, 5.0), Point::new(8.0, 5.0)];
        assert_eq!(part.assign(&sites), part.assign_brute_force(&sites));

        // Degenerate: all sites coincident.
        let sites = vec![Point::new(5.0, 5.0); 4];
        assert_eq!(part.assign(&sites), part.assign_brute_force(&sites));
    }

    #[test]
    fn fused_centroids_match_region_list_sums() {
        // The formula `centroids` replaced: sums over `assign`'s lists.
        fn via_regions(part: &GridPartition, sites: &[Point], density: &Density) -> Vec<Point> {
            let regions = part.assign(sites);
            sites
                .iter()
                .zip(&regions)
                .map(|(&site, region)| {
                    if region.is_empty() {
                        return site;
                    }
                    let (mut wx, mut wy, mut w) = (0.0, 0.0, 0.0);
                    for &k in region {
                        let p = part.samples()[k];
                        let rho = density.eval(part.region(), p);
                        wx += rho * p.x;
                        wy += rho * p.y;
                        w += rho;
                    }
                    part.region().clamp_inside(Point::new(wx / w, wy / w))
                })
                .collect()
        }
        let outer = Polygon::rectangle(Point::ORIGIN, 300.0, 200.0);
        let hole = Polygon::regular(Point::new(150.0, 100.0), 40.0, 16);
        let region = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        let part = GridPartition::new(&region, 1.7);
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut sites: Vec<Point> = (0..150)
            .map(|_| Point::new(next() * 300.0, next() * 200.0))
            .collect();
        sites.push(sites[3]); // tie: the duplicate's region is empty
        sites.push(Point::new(-9000.0, 9000.0)); // far away: empty region
        for density in [
            Density::Uniform,
            Density::Radial {
                center: Point::new(40.0, 60.0),
                falloff: 25.0,
                gain: 6.0,
            },
            Density::HoleProximity {
                falloff: 30.0,
                gain: 8.0,
            },
        ] {
            let fused = part.centroids(&sites, &density);
            let want = via_regions(&part, &sites, &density);
            assert_eq!(fused.len(), want.len());
            for (a, b) in fused.iter().zip(&want) {
                assert_eq!(
                    (a.x.to_bits(), a.y.to_bits()),
                    (b.x.to_bits(), b.y.to_bits())
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn assign_empty_sites_panics() {
        let part = GridPartition::new(&square(10.0), 1.0);
        let _ = part.assign(&[]);
    }
}
