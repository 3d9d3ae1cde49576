//! Simple polygons: containment, measures, boundary operations.

use crate::{orient2d, Aabb, GeomError, Point, Segment, Vector, EPS};

/// A simple (non-self-intersecting) polygon given by its vertex loop.
///
/// Vertices may be listed clockwise or counter-clockwise; queries are
/// orientation-agnostic and [`Polygon::to_ccw`] normalizes when needed.
/// The last vertex is implicitly connected back to the first.
///
/// ```
/// use anr_geom::{Point, Polygon};
/// let tri = Polygon::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(4.0, 0.0),
///     Point::new(0.0, 4.0),
/// ])?;
/// assert_eq!(tri.area(), 8.0);
/// assert!(tri.contains(Point::new(1.0, 1.0)));
/// # Ok::<(), anr_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from a vertex loop.
    ///
    /// # Errors
    ///
    /// * [`GeomError::TooFewVertices`] for fewer than 3 vertices.
    /// * [`GeomError::NonFiniteCoordinate`] for NaN/∞ coordinates.
    /// * [`GeomError::DegeneratePolygon`] when the area is (near) zero.
    pub fn new(vertices: Vec<Point>) -> Result<Self, GeomError> {
        if vertices.len() < 3 {
            return Err(GeomError::TooFewVertices {
                got: vertices.len(),
            });
        }
        if vertices.iter().any(|p| !p.is_finite()) {
            return Err(GeomError::NonFiniteCoordinate);
        }
        let poly = Polygon { vertices };
        let scale = poly.bbox().diagonal();
        if poly.area() <= EPS * scale * scale {
            return Err(GeomError::DegeneratePolygon);
        }
        Ok(poly)
    }

    /// A regular `n`-gon of circumradius `radius` centered at `center`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` or `radius <= 0`.
    pub fn regular(center: Point, radius: f64, n: usize) -> Self {
        assert!(n >= 3, "regular polygon needs n >= 3");
        assert!(radius > 0.0, "regular polygon needs positive radius");
        let verts = (0..n)
            .map(|i| {
                let theta = std::f64::consts::TAU * i as f64 / n as f64;
                Point::new(
                    center.x + radius * theta.cos(),
                    center.y + radius * theta.sin(),
                )
            })
            .collect();
        Polygon { vertices: verts }
    }

    /// An axis-aligned rectangle.
    ///
    /// # Panics
    ///
    /// Panics when width or height is not positive.
    pub fn rectangle(min: Point, width: f64, height: f64) -> Self {
        assert!(
            width > 0.0 && height > 0.0,
            "rectangle extents must be positive"
        );
        Polygon {
            vertices: vec![
                min,
                Point::new(min.x + width, min.y),
                Point::new(min.x + width, min.y + height),
                Point::new(min.x, min.y + height),
            ],
        }
    }

    /// The vertex loop.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always false: construction rejects empty polygons.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Iterator over boundary edges, in vertex order.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Signed area via the shoelace formula (positive = counter-clockwise).
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut sum = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            sum += p.x * q.y - q.x * p.y;
        }
        0.5 * sum
    }

    /// Absolute area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Boundary length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Is the vertex loop counter-clockwise?
    #[inline]
    pub fn is_ccw(&self) -> bool {
        self.signed_area() > 0.0
    }

    /// Returns the polygon with a counter-clockwise vertex loop.
    pub fn to_ccw(&self) -> Polygon {
        if self.is_ccw() {
            self.clone()
        } else {
            let mut v = self.vertices.clone();
            v.reverse();
            Polygon { vertices: v }
        }
    }

    /// Area centroid (first moment / area), not the vertex average.
    pub fn centroid(&self) -> Point {
        let n = self.vertices.len();
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut a = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
            a += w;
        }
        // a = 2 * signed area; construction guarantees |a| > 0.
        Point::new(cx / (3.0 * a), cy / (3.0 * a))
    }

    /// Bounding box of the vertex loop.
    pub fn bbox(&self) -> Aabb {
        // Construction guarantees at least three vertices; the fallback
        // keeps this panic-free all the same.
        Aabb::from_points(self.vertices.iter().copied())
            .unwrap_or(Aabb::new(Point::ORIGIN, Point::ORIGIN))
    }

    /// Point-in-polygon test (boundary counts as inside).
    ///
    /// Crossing-number algorithm, orientation-agnostic. Points within a
    /// small tolerance of the boundary are reported as contained. The
    /// crossing number runs first: only a point it calls outside pays
    /// for the bounding box and the boundary distance.
    pub fn contains(&self, p: Point) -> bool {
        if self.contains_strict(p) {
            return true;
        }
        let scale = self.bbox().diagonal().max(1.0);
        self.distance_to_boundary(p) <= EPS * scale * 10.0
    }

    /// Point-in-polygon by crossing number, with no boundary tolerance.
    ///
    /// Boundary points may report either way up to floating-point noise;
    /// use [`Polygon::contains`] for a boundary-inclusive test.
    pub fn contains_strict(&self, p: Point) -> bool {
        let n = self.vertices.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let vi = self.vertices[i];
            let vj = self.vertices[j];
            if ((vi.y > p.y) != (vj.y > p.y))
                && (p.x < (vj.x - vi.x) * (p.y - vi.y) / (vj.y - vi.y) + vi.x)
            {
                inside = !inside;
            }
            j = i;
        }
        inside
    }

    /// Distance from `p` to the nearest boundary point (0 on the boundary).
    pub fn distance_to_boundary(&self, p: Point) -> f64 {
        self.edges()
            .map(|e| e.distance_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// The boundary point nearest to `p`.
    pub fn closest_boundary_point(&self, p: Point) -> Point {
        let mut best = self.vertices[0];
        let mut best_d = f64::INFINITY;
        for e in self.edges() {
            let q = e.closest_point(p);
            let d = q.distance(p);
            if d < best_d {
                best_d = d;
                best = q;
            }
        }
        best
    }

    /// Does the open segment `(a, b)` cross the polygon boundary?
    ///
    /// Endpoint touches on the boundary are not counted as crossings.
    ///
    /// Edges whose bounding box misses the segment's are skipped before
    /// the exact [`Segment::crosses_interior`] test. The boxes are
    /// compared with a slack of `1e-5` of the two pieces' extents and
    /// coordinate magnitudes — past both the `EPS` parameter slack
    /// [`Segment::intersection`] accepts and its rounding, so a skipped
    /// edge is one the exact test would not report.
    pub fn segment_crosses_boundary(&self, seg: Segment) -> bool {
        let (sb, ss) = slack_box(seg);
        self.edges().any(|e| {
            let (eb, es) = slack_box(e);
            // NaN or infinite sizes make every comparison false: no skip.
            let slack = 1e-5 * (ss + es);
            let apart = eb.min.x > sb.max.x + slack
                || sb.min.x > eb.max.x + slack
                || eb.min.y > sb.max.y + slack
                || sb.min.y > eb.max.y + slack;
            !apart && seg.crosses_interior(e)
        })
    }

    /// Resamples the boundary at (approximately) uniform arclength
    /// spacing, returning at least `min_points` points.
    ///
    /// Original vertices are not necessarily kept; the result is a new
    /// closed loop suitable for meshing.
    ///
    /// # Panics
    ///
    /// Panics when `spacing <= 0`.
    pub fn resample_boundary(&self, spacing: f64, min_points: usize) -> Vec<Point> {
        assert!(spacing > 0.0, "spacing must be positive");
        let perimeter = self.perimeter();
        let count = ((perimeter / spacing).ceil() as usize).max(min_points.max(3));
        let step = perimeter / count as f64;

        let mut result = Vec::with_capacity(count);
        let mut remaining = 0.0; // distance until next sample
        for e in self.edges() {
            let len = e.length();
            let mut along = remaining;
            while along < len {
                result.push(e.at(along / len));
                along += step;
            }
            remaining = along - len;
        }
        // Guard against accumulation error producing one extra point.
        result.truncate(count);
        result
    }

    /// Returns the polygon translated by `v`.
    pub fn translated(&self, v: Vector) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&p| p + v).collect(),
        }
    }

    /// Returns the polygon uniformly scaled about `center` by `factor`.
    ///
    /// # Panics
    ///
    /// Panics when `factor <= 0`.
    pub fn scaled_about(&self, center: Point, factor: f64) -> Polygon {
        assert!(factor > 0.0, "scale factor must be positive");
        Polygon {
            vertices: self
                .vertices
                .iter()
                .map(|&p| center + (p - center) * factor)
                .collect(),
        }
    }

    /// Returns the polygon scaled (about its centroid) to have exactly
    /// `target_area`.
    ///
    /// # Panics
    ///
    /// Panics when `target_area <= 0`.
    pub fn scaled_to_area(&self, target_area: f64) -> Polygon {
        assert!(target_area > 0.0, "target area must be positive");
        let factor = (target_area / self.area()).sqrt();
        self.scaled_about(self.centroid(), factor)
    }

    /// Returns the polygon rotated by `theta` about `center`.
    pub fn rotated_about(&self, center: Point, theta: f64) -> Polygon {
        let rot = crate::Rotation::about(center, theta);
        Polygon {
            vertices: self.vertices.iter().map(|&p| rot.apply(p)).collect(),
        }
    }

    /// Clips the polygon against the half-plane on the **left** of the
    /// directed line `a → b` (Sutherland–Hodgman step).
    ///
    /// Returns `None` when the intersection is empty or degenerate.
    /// Clipping a convex polygon stays convex; clipping a non-convex
    /// polygon is correct whenever the result is a single piece (the
    /// case for Voronoi-cell construction, where the clip regions are
    /// convex intersections).
    pub fn clip_half_plane(&self, a: Point, b: Point) -> Option<Polygon> {
        let inside = |p: Point| orient2d(a, b, p) >= 0.0;
        let n = self.vertices.len();
        let mut out: Vec<Point> = Vec::with_capacity(n + 4);
        for i in 0..n {
            let cur = self.vertices[i];
            let next = self.vertices[(i + 1) % n];
            let cur_in = inside(cur);
            let next_in = inside(next);
            if cur_in {
                out.push(cur);
            }
            if cur_in != next_in {
                // Edge crosses the clip line: add the intersection.
                let d = b - a;
                let e = next - cur;
                let denom = d.cross(e);
                if denom.abs() > f64::MIN_POSITIVE {
                    // Solve cross(d, cur + t*e - a) = 0.
                    let t = -d.cross(cur - a) / denom;
                    out.push(cur.lerp(next, t.clamp(0.0, 1.0)));
                }
            }
        }
        // Drop consecutive duplicates created by vertices on the line.
        out.dedup_by(|x, y| x.distance(*y) < EPS * (1.0 + x.to_vector().norm()));
        if out.len() >= 2 {
            let first = out[0];
            let last = out[out.len() - 1];
            if first.distance(last) < EPS * (1.0 + first.to_vector().norm()) {
                out.pop();
            }
        }
        Polygon::new(out).ok()
    }
}

/// Bounding box of `s` and the size its box-test slack scales with:
/// the box's extent plus the largest coordinate magnitude.
fn slack_box(s: Segment) -> (Aabb, f64) {
    let min = Point::new(s.a.x.min(s.b.x), s.a.y.min(s.b.y));
    let max = Point::new(s.a.x.max(s.b.x), s.a.y.max(s.b.y));
    let magnitude =
        s.a.x
            .abs()
            .max(s.a.y.abs())
            .max(s.b.x.abs())
            .max(s.b.y.abs());
    let size = (max.x - min.x) + (max.y - min.y) + magnitude;
    (Aabb { min, max }, size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn unit_square() -> Polygon {
        Polygon::rectangle(Point::ORIGIN, 1.0, 1.0)
    }

    #[test]
    fn rejects_too_few_vertices() {
        assert!(matches!(
            Polygon::new(vec![p(0.0, 0.0), p(1.0, 0.0)]),
            Err(GeomError::TooFewVertices { got: 2 })
        ));
    }

    #[test]
    fn rejects_nonfinite() {
        assert!(matches!(
            Polygon::new(vec![p(0.0, 0.0), p(1.0, f64::NAN), p(0.0, 1.0)]),
            Err(GeomError::NonFiniteCoordinate)
        ));
    }

    #[test]
    fn rejects_degenerate() {
        assert!(matches!(
            Polygon::new(vec![p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)]),
            Err(GeomError::DegeneratePolygon)
        ));
    }

    #[test]
    fn square_measures() {
        let sq = unit_square();
        assert_eq!(sq.area(), 1.0);
        assert_eq!(sq.perimeter(), 4.0);
        assert!(sq.is_ccw());
        assert_eq!(sq.centroid(), p(0.5, 0.5));
    }

    #[test]
    fn clockwise_polygon_negative_signed_area() {
        let mut verts = unit_square().vertices().to_vec();
        verts.reverse();
        let cw = Polygon::new(verts).unwrap();
        assert!(cw.signed_area() < 0.0);
        assert!(cw.to_ccw().is_ccw());
        // containment unaffected by orientation
        assert!(cw.contains(p(0.5, 0.5)));
    }

    #[test]
    fn contains_interior_exterior_boundary() {
        let sq = unit_square();
        assert!(sq.contains(p(0.5, 0.5)));
        assert!(!sq.contains(p(1.5, 0.5)));
        assert!(sq.contains(p(1.0, 0.5))); // boundary inclusive
        assert!(sq.contains(p(0.0, 0.0))); // corner
    }

    #[test]
    fn contains_concave() {
        // L-shape
        let l = Polygon::new(vec![
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(2.0, 1.0),
            p(1.0, 1.0),
            p(1.0, 2.0),
            p(0.0, 2.0),
        ])
        .unwrap();
        assert!(l.contains(p(0.5, 1.5)));
        assert!(l.contains(p(1.5, 0.5)));
        assert!(!l.contains(p(1.5, 1.5))); // the notch
    }

    #[test]
    fn distance_and_closest_point() {
        let sq = unit_square();
        assert_eq!(sq.distance_to_boundary(p(0.5, 0.5)), 0.5);
        assert_eq!(sq.distance_to_boundary(p(2.0, 0.5)), 1.0);
        assert_eq!(sq.closest_boundary_point(p(0.5, -3.0)), p(0.5, 0.0));
    }

    #[test]
    fn segment_crossing_boundary() {
        let sq = unit_square();
        let crossing = Segment::new(p(-1.0, 0.5), p(2.0, 0.5));
        let inside = Segment::new(p(0.25, 0.25), p(0.75, 0.75));
        assert!(sq.segment_crosses_boundary(crossing));
        assert!(!sq.segment_crosses_boundary(inside));
    }

    /// The boundary-tolerant containment test with no shortcut: the
    /// formula [`Polygon::contains`] must reproduce bit for bit.
    fn contains_unfiltered(poly: &Polygon, q: Point) -> bool {
        let scale = poly.bbox().diagonal().max(1.0);
        poly.distance_to_boundary(q) <= EPS * scale * 10.0 || poly.contains_strict(q)
    }

    /// Every edge through the exact test, no box filter.
    fn crosses_unfiltered(poly: &Polygon, seg: Segment) -> bool {
        poly.edges().any(|e| seg.crosses_interior(e))
    }

    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Polygons of the shapes the march queries: a 64-gon (the scenario
    /// FoI outlines), a concave star, an L, axis-aligned rectangles, and
    /// copies far from the origin and at a tiny scale.
    fn predicate_polygons() -> Vec<Polygon> {
        let star = Polygon::new(
            (0..40)
                .map(|i| {
                    let a = std::f64::consts::TAU * i as f64 / 40.0;
                    let r = if i % 2 == 0 { 300.0 } else { 120.0 };
                    p(r * a.cos(), r * a.sin())
                })
                .collect(),
        )
        .unwrap();
        let l = Polygon::new(vec![
            p(0.0, 0.0),
            p(200.0, 0.0),
            p(200.0, 80.0),
            p(80.0, 80.0),
            p(80.0, 200.0),
            p(0.0, 200.0),
        ])
        .unwrap();
        let gon = Polygon::regular(p(500.0, -200.0), 400.0, 64);
        vec![
            gon.clone(),
            star.clone(),
            l,
            Polygon::rectangle(p(-50.0, -50.0), 100.0, 100.0),
            gon.translated(Vector::new(3e7, -1e7)),
            star.scaled_about(Point::ORIGIN, 1e-4),
        ]
    }

    /// Query points: random points around the box, every vertex, edge
    /// midpoints, and points on edges pushed off by ±1e-13…1e-5 of the
    /// polygon's size.
    fn predicate_points(poly: &Polygon, next: &mut impl FnMut() -> f64) -> Vec<Point> {
        let bb = poly.bbox();
        let d = bb.diagonal();
        let mut pts: Vec<Point> = (0..300)
            .map(|_| {
                p(
                    bb.min.x - 0.2 * d + next() * 1.4 * (bb.max.x - bb.min.x + 0.3 * d),
                    bb.min.y - 0.2 * d + next() * 1.4 * (bb.max.y - bb.min.y + 0.3 * d),
                )
            })
            .collect();
        pts.extend_from_slice(poly.vertices());
        for e in poly.edges() {
            pts.push(e.midpoint());
            let t = next();
            let on = e.at(t);
            let dir = e.direction();
            let normal = Vector::new(-dir.y, dir.x) / dir.norm();
            for k in [1e-13, 1e-11, 1e-9, 1e-8, 1e-7, 1e-5] {
                pts.push(on + normal * (k * d));
                pts.push(on - normal * (k * d));
            }
        }
        pts
    }

    #[test]
    fn contains_matches_the_unfiltered_formula() {
        let mut next = lcg(0x5eed);
        let (mut inside, mut outside) = (0usize, 0usize);
        for poly in predicate_polygons() {
            for q in predicate_points(&poly, &mut next) {
                let want = contains_unfiltered(&poly, q);
                assert_eq!(poly.contains(q), want, "contains({q}) on {poly:?}");
                if want {
                    inside += 1;
                } else {
                    outside += 1;
                }
            }
        }
        assert!(
            inside > 1000 && outside > 1000,
            "{inside} in / {outside} out"
        );
    }

    #[test]
    fn segment_crossing_matches_the_unfiltered_formula() {
        let mut next = lcg(0xc0ffee);
        let (mut crossing, mut clear) = (0usize, 0usize);
        let mut check = |poly: &Polygon, seg: Segment| {
            let want = crosses_unfiltered(poly, seg);
            assert_eq!(
                poly.segment_crosses_boundary(seg),
                want,
                "segment {:?} on {poly:?}",
                seg
            );
            if want {
                crossing += 1;
            } else {
                clear += 1;
            }
        };
        for poly in predicate_polygons() {
            let pts = predicate_points(&poly, &mut next);
            let pick = |next: &mut dyn FnMut() -> f64| pts[(next() * pts.len() as f64) as usize];
            // Random segments between query points (boundary endpoints
            // and near-boundary points included).
            for _ in 0..1500 {
                let (a, b) = (pick(&mut next), pick(&mut next));
                check(&poly, Segment::new(a, b));
            }
            let verts = poly.vertices();
            let nv = verts.len();
            for (i, e) in poly.edges().enumerate() {
                // Collinear with the edge: inside it, overlapping one end,
                // spanning it, and disjoint along its line.
                for (t0, t1) in [(0.2, 0.7), (-0.3, 0.4), (-0.5, 1.5), (1.1, 1.6), (0.0, 1.0)] {
                    check(&poly, Segment::new(e.at(t0), e.at(t1)));
                }
                // Endpoints touching the boundary: vertex to vertex, edge
                // point to edge point, vertex to a random point.
                let j = (i + nv / 3 + 1) % nv;
                check(&poly, Segment::new(verts[i], verts[j]));
                check(
                    &poly,
                    Segment::new(e.midpoint(), poly.edges().nth(j).unwrap().at(0.3)),
                );
                check(&poly, Segment::new(verts[i], pick(&mut next)));
                // Zero-length segment on the boundary.
                check(&poly, Segment::new(e.midpoint(), e.midpoint()));
            }
        }
        assert!(
            crossing > 1000 && clear > 1000,
            "{crossing} crossing / {clear} clear"
        );
    }

    #[test]
    fn resample_boundary_spacing() {
        let sq = unit_square();
        let pts = sq.resample_boundary(0.25, 3);
        assert_eq!(pts.len(), 16);
        // All resampled points lie on the boundary.
        for q in &pts {
            assert!(sq.distance_to_boundary(*q) < 1e-9);
        }
        // Consecutive spacing close to requested.
        for w in pts.windows(2) {
            assert!((w[0].distance(w[1]) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn resample_respects_min_points() {
        let sq = unit_square();
        let pts = sq.resample_boundary(10.0, 12);
        assert_eq!(pts.len(), 12);
    }

    #[test]
    fn translation_and_scaling() {
        let sq = unit_square();
        let moved = sq.translated(Vector::new(5.0, 5.0));
        assert_eq!(moved.centroid(), p(5.5, 5.5));
        assert_eq!(moved.area(), 1.0);

        let scaled = sq.scaled_to_area(25.0);
        assert!((scaled.area() - 25.0).abs() < 1e-9);
        assert!(scaled.centroid().distance(sq.centroid()) < 1e-9);
    }

    #[test]
    fn rotation_preserves_area() {
        let sq = unit_square();
        let rot = sq.rotated_about(sq.centroid(), 0.7);
        assert!((rot.area() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regular_polygon_approaches_circle_area() {
        let c = Polygon::regular(p(3.0, 3.0), 2.0, 256);
        let circle_area = std::f64::consts::PI * 4.0;
        assert!((c.area() - circle_area).abs() / circle_area < 1e-3);
    }

    #[test]
    fn centroid_matches_vertex_mean_for_regular() {
        let c = Polygon::regular(p(1.0, -2.0), 3.0, 7);
        assert!(c.centroid().distance(p(1.0, -2.0)) < 1e-9);
    }

    #[test]
    fn clip_half_plane_basic() {
        let sq = unit_square();
        // Keep the left half: clip line x = 0.5 pointing up (left side
        // of the upward line is x < 0.5... the left of a→b with a=(0.5,0),
        // b=(0.5,1) is the half-plane x <= 0.5).
        let half = sq.clip_half_plane(p(0.5, 0.0), p(0.5, 1.0)).unwrap();
        assert!((half.area() - 0.5).abs() < 1e-9);
        assert!(half.contains(p(0.25, 0.5)));
        assert!(!half.contains(p(0.75, 0.5)));
    }

    #[test]
    fn clip_half_plane_no_intersection() {
        let sq = unit_square();
        // Clip line far to the left, keeping only x <= -1: empty.
        assert!(sq.clip_half_plane(p(-1.0, 0.0), p(-1.0, 1.0)).is_none());
    }

    #[test]
    fn clip_half_plane_whole_polygon() {
        let sq = unit_square();
        // Keep x <= 5: the whole square survives.
        let c = sq.clip_half_plane(p(5.0, 0.0), p(5.0, 1.0)).unwrap();
        assert!((c.area() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clip_through_vertex() {
        // Diagonal clip through two corners halves the square.
        let sq = unit_square();
        let c = sq.clip_half_plane(p(0.0, 0.0), p(1.0, 1.0)).unwrap();
        assert!((c.area() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn successive_clips_build_a_cell() {
        // Clip a big square by two perpendicular bisectors: quadrant.
        let sq = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
        let c = sq
            .clip_half_plane(p(5.0, 10.0), p(5.0, 0.0)) // keep x >= 5
            .and_then(|c| c.clip_half_plane(p(0.0, 5.0), p(10.0, 5.0))) // keep y >= 5... left of →x is +y
            .unwrap();
        assert!((c.area() - 25.0).abs() < 1e-9);
        assert!(c.contains(p(7.5, 7.5)));
    }

    #[test]
    #[should_panic]
    fn regular_panics_on_small_n() {
        let _ = Polygon::regular(Point::ORIGIN, 1.0, 2);
    }
}
