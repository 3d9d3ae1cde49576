//! Meshing a field of interest (FoI).
//!
//! Implements the paper's "grid and triangulate the surface data of M2"
//! step (Sec. III-B): resample the outer boundary and hole boundaries,
//! sprinkle interior grid points, Delaunay-triangulate, and keep the
//! triangles inside the region.

use crate::{delaunay, MeshError, TriMesh};
use anr_geom::{Point, PolygonWithHoles};

/// A meshed field of interest: the triangulation plus its boundary
/// structure and the region it discretizes.
#[derive(Debug, Clone)]
pub struct FoiMesh {
    mesh: TriMesh,
    region: PolygonWithHoles,
    outer_loop: Vec<usize>,
    hole_loops: Vec<Vec<usize>>,
}

impl FoiMesh {
    /// The triangle mesh.
    #[inline]
    pub fn mesh(&self) -> &TriMesh {
        &self.mesh
    }

    /// The region this mesh discretizes.
    #[inline]
    pub fn region(&self) -> &PolygonWithHoles {
        &self.region
    }

    /// Vertex indices of the outer boundary loop, in cyclic order.
    #[inline]
    pub fn outer_loop(&self) -> &[usize] {
        &self.outer_loop
    }

    /// Vertex indices of each hole boundary loop.
    #[inline]
    pub fn hole_loops(&self) -> &[Vec<usize>] {
        &self.hole_loops
    }

    /// Consumes the FoI mesh, returning the raw triangle mesh.
    pub fn into_mesh(self) -> TriMesh {
        self.mesh
    }
}

/// Configurable FoI mesher.
///
/// `spacing` controls both the boundary resampling step and the interior
/// grid pitch; the resulting triangles have edges of roughly that length.
///
/// ```
/// use anr_geom::{Point, Polygon, PolygonWithHoles};
/// use anr_mesh::FoiMesher;
///
/// let outer = Polygon::rectangle(Point::ORIGIN, 100.0, 100.0);
/// let hole = Polygon::rectangle(Point::new(40.0, 40.0), 20.0, 20.0);
/// let foi = PolygonWithHoles::new(outer, vec![hole]).unwrap();
/// let meshed = FoiMesher::new(8.0).mesh(&foi)?;
/// assert_eq!(meshed.hole_loops().len(), 1);
/// # Ok::<(), anr_mesh::MeshError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FoiMesher {
    spacing: f64,
    min_boundary_points: usize,
    jitter: f64,
    check_topology: bool,
}

impl FoiMesher {
    /// Creates a mesher with the given grid spacing.
    ///
    /// # Panics
    ///
    /// Panics when `spacing <= 0`.
    pub fn new(spacing: f64) -> Self {
        assert!(spacing > 0.0, "spacing must be positive");
        FoiMesher {
            spacing,
            min_boundary_points: 16,
            jitter: 1e-3,
            check_topology: true,
        }
    }

    /// Minimum number of points on the outer boundary (default 16).
    pub fn min_boundary_points(&mut self, n: usize) -> &mut Self {
        self.min_boundary_points = n.max(3);
        self
    }

    /// Relative jitter applied to interior grid points to break
    /// cocircular degeneracies (default `1e-3`, as a fraction of the
    /// spacing). Set to 0 to disable.
    pub fn jitter(&mut self, j: f64) -> &mut Self {
        self.jitter = j.max(0.0);
        self
    }

    /// Whether to verify that the mesh boundary-loop count matches the
    /// region's hole count (default true).
    pub fn check_topology(&mut self, check: bool) -> &mut Self {
        self.check_topology = check;
        self
    }

    /// The point set [`FoiMesher::mesh`] triangulates: the resampled
    /// outer boundary, then each hole boundary, then the interior grid
    /// points farther than `0.45 · spacing` from every boundary — all
    /// jittered deterministically unless the jitter is 0.
    pub fn sample_points(&self, region: &PolygonWithHoles) -> Vec<Point> {
        let mut points: Vec<Point> = Vec::new();

        // Boundary samples are jittered tangentially-agnostically by the
        // same magnitude as grid points: exactly collinear runs along
        // polygon edges are a worst case for the incremental Delaunay
        // cavity and the offset is far below the mesh resolution.
        let bjit = self.jitter * self.spacing * 0.1;
        let mut bk = 0xB0D5u64;

        // Outer boundary samples.
        for p in region
            .outer()
            .resample_boundary(self.spacing, self.min_boundary_points)
        {
            bk += 1;
            points.push(if bjit > 0.0 { jittered(p, bk, bjit) } else { p });
        }

        // Hole boundary samples.
        for h in region.holes() {
            for p in h.resample_boundary(self.spacing, 8.max(self.min_boundary_points / 2)) {
                bk += 1;
                points.push(if bjit > 0.0 { jittered(p, bk, bjit) } else { p });
            }
        }

        // Interior grid, inset from all boundaries to avoid slivers.
        let inset = 0.45 * self.spacing;
        let mut k = 0u64;
        for p in region.grid_points(self.spacing) {
            k += 1;
            if region.distance_to_boundary(p) <= inset {
                continue;
            }
            let q = if self.jitter > 0.0 {
                jittered(p, k, self.jitter * self.spacing)
            } else {
                p
            };
            points.push(q);
        }

        points
    }

    /// Meshes the region.
    ///
    /// # Errors
    ///
    /// * [`MeshError::EmptyMesh`] — spacing too coarse for the region.
    /// * [`MeshError::TopologyMismatch`] — the triangulation's boundary
    ///   structure does not match the region (usually the spacing is too
    ///   coarse to resolve a hole or a neck).
    /// * Any error from the underlying Delaunay step.
    pub fn mesh(&self, region: &PolygonWithHoles) -> Result<FoiMesh, MeshError> {
        let points = self.sample_points(region);
        if points.len() < 3 {
            return Err(MeshError::EmptyMesh);
        }

        let dt = delaunay(&points)?;

        // Keep triangles whose centroid lies in the region. Because the
        // boundary is sampled at the same pitch as the interior grid,
        // centroid-inside is a faithful inside test at this resolution.
        let mut keep: Vec<[usize; 3]> = Vec::new();
        for (ti, t) in dt.triangles().iter().enumerate() {
            let tri = dt.triangle(ti);
            let c = tri.centroid();
            if !region.contains(c) {
                continue;
            }
            // Reject slivers spanning a concave notch of the *outer*
            // boundary: probe points between the centroid and each
            // corner. Probes are strictly interior to the triangle, so
            // chords that legitimately cut hole-polygon corners by a
            // sagitta of O(spacing²) are not rejected.
            let probes = [c.midpoint(tri.a), c.midpoint(tri.b), c.midpoint(tri.c)];
            if probes.iter().any(|&m| !region.outer().contains(m)) {
                continue;
            }
            keep.push(*t);
        }

        if keep.is_empty() {
            return Err(MeshError::EmptyMesh);
        }

        // Compact vertex indices: drop unused points.
        let mut remap: Vec<Option<usize>> = vec![None; points.len()];
        let mut verts: Vec<Point> = Vec::new();
        let mut tris: Vec<[usize; 3]> = Vec::with_capacity(keep.len());
        for t in keep {
            let mut nt = [0usize; 3];
            for (k, &v) in t.iter().enumerate() {
                nt[k] = *remap[v].get_or_insert_with(|| {
                    verts.push(points[v]);
                    verts.len() - 1
                });
            }
            tris.push(nt);
        }

        let mesh = TriMesh::new(verts, tris)?;
        let loops = mesh.boundary_loops();

        if self.check_topology {
            let expected = 1 + region.holes().len();
            if loops.len() != expected {
                return Err(MeshError::TopologyMismatch {
                    expected_loops: expected,
                    got_loops: loops.len(),
                });
            }
        }

        let mut it = loops.into_iter();
        let outer_loop = it.next().ok_or(MeshError::EmptyMesh)?;
        let hole_loops: Vec<Vec<usize>> = it.collect();

        Ok(FoiMesh {
            mesh,
            region: region.clone(),
            outer_loop,
            hole_loops,
        })
    }
}

/// Deterministic per-index jitter in `[-mag, mag]²` (splitmix64 hash).
fn jittered(p: Point, index: u64, mag: f64) -> Point {
    let h = |x: u64| -> u64 {
        let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let ux = (h(index) >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    let uy = (h(index.wrapping_add(0x1234_5678)) >> 11) as f64 / (1u64 << 53) as f64;
    Point::new(p.x + (2.0 * ux - 1.0) * mag, p.y + (2.0 * uy - 1.0) * mag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anr_geom::Polygon;

    fn square_region(side: f64) -> PolygonWithHoles {
        PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, side, side))
    }

    #[test]
    fn meshes_a_square() {
        let foi = square_region(100.0);
        let m = FoiMesher::new(10.0).mesh(&foi).unwrap();
        assert!(m.mesh().num_triangles() > 50);
        assert_eq!(m.hole_loops().len(), 0);
        assert_eq!(m.mesh().euler_characteristic(), 1);
        // Mesh area approximates region area.
        let err = (m.mesh().total_area() - foi.area()).abs() / foi.area();
        assert!(err < 0.05, "area error {err}");
    }

    #[test]
    fn meshes_a_square_with_hole() {
        let outer = Polygon::rectangle(Point::ORIGIN, 100.0, 100.0);
        let hole = Polygon::rectangle(Point::new(35.0, 35.0), 30.0, 30.0);
        let foi = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        let m = FoiMesher::new(8.0).mesh(&foi).unwrap();
        assert_eq!(m.hole_loops().len(), 1);
        assert_eq!(m.mesh().euler_characteristic(), 0);
        let err = (m.mesh().total_area() - foi.area()).abs() / foi.area();
        assert!(err < 0.08, "area error {err}");
    }

    #[test]
    fn meshes_multiple_holes() {
        let outer = Polygon::rectangle(Point::ORIGIN, 120.0, 120.0);
        let h1 = Polygon::regular(Point::new(30.0, 30.0), 12.0, 12);
        let h2 = Polygon::regular(Point::new(85.0, 80.0), 15.0, 12);
        let foi = PolygonWithHoles::new(outer, vec![h1, h2]).unwrap();
        let m = FoiMesher::new(7.0).mesh(&foi).unwrap();
        assert_eq!(m.hole_loops().len(), 2);
        assert_eq!(m.mesh().euler_characteristic(), -1);
    }

    #[test]
    fn meshes_concave_region() {
        // L-shaped region.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 40.0),
            Point::new(40.0, 40.0),
            Point::new(40.0, 100.0),
            Point::new(0.0, 100.0),
        ])
        .unwrap();
        let foi = PolygonWithHoles::without_holes(l);
        let m = FoiMesher::new(6.0).mesh(&foi).unwrap();
        assert_eq!(m.hole_loops().len(), 0);
        // No triangle centroid in the notch.
        for t in 0..m.mesh().num_triangles() {
            let c = m.mesh().triangle(t).centroid();
            assert!(foi.contains(c));
        }
    }

    #[test]
    fn too_coarse_spacing_errors() {
        let foi = square_region(1.0);
        // spacing way larger than the region but boundary sampling still
        // produces a ring of points; the mesher should either succeed
        // with a tiny mesh or report a topology/empty error, never panic.
        let r = FoiMesher::new(50.0).mesh(&foi);
        match r {
            Ok(m) => assert!(m.mesh().num_triangles() > 0),
            Err(MeshError::EmptyMesh) | Err(MeshError::TopologyMismatch { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn outer_loop_vertices_are_on_outer_boundary() {
        let foi = square_region(50.0);
        let m = FoiMesher::new(5.0).mesh(&foi).unwrap();
        for &v in m.outer_loop() {
            let d = foi.outer().distance_to_boundary(m.mesh().vertex(v));
            assert!(d < 1.0, "outer-loop vertex {v} is {d} from boundary");
        }
    }

    #[test]
    fn hole_loop_vertices_are_on_hole_boundary() {
        let outer = Polygon::rectangle(Point::ORIGIN, 100.0, 100.0);
        let hole = Polygon::regular(Point::new(50.0, 50.0), 18.0, 16);
        let foi = PolygonWithHoles::new(outer, vec![hole.clone()]).unwrap();
        let m = FoiMesher::new(7.0).mesh(&foi).unwrap();
        assert_eq!(m.hole_loops().len(), 1);
        for &v in &m.hole_loops()[0] {
            let d = hole.distance_to_boundary(m.mesh().vertex(v));
            assert!(d < 1.5, "hole-loop vertex {v} is {d} from hole boundary");
        }
    }

    #[test]
    fn jitter_zero_still_meshes_grid() {
        let foi = square_region(40.0);
        let m = FoiMesher::new(5.0).jitter(0.0).mesh(&foi).unwrap();
        assert!(m.mesh().num_triangles() > 0);
    }

    #[test]
    fn mesh_vertices_inside_region() {
        let outer = Polygon::rectangle(Point::ORIGIN, 80.0, 60.0);
        let hole = Polygon::rectangle(Point::new(30.0, 20.0), 20.0, 20.0);
        let foi = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        let m = FoiMesher::new(6.0).mesh(&foi).unwrap();
        for v in m.mesh().vertices() {
            assert!(
                foi.contains(*v) || foi.distance_to_boundary(*v) < 0.1,
                "vertex {v} outside region"
            );
        }
    }
}
