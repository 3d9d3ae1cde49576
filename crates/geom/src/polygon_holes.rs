//! Polygons with holes — the Field-of-Interest (FoI) model.
//!
//! The paper's FoIs may contain "obstacles or landscape features that
//! forbid mobile robot placement" (Sec. III-D-3). A
//! [`PolygonWithHoles`] is an outer simple polygon minus a set of
//! disjoint hole polygons strictly inside it.

use crate::{Aabb, GeomError, Point, Polygon, Segment, Vector, EPS};

/// An outer boundary polygon minus zero or more disjoint holes.
///
/// ```
/// use anr_geom::{Point, Polygon, PolygonWithHoles};
/// let outer = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
/// let hole = Polygon::rectangle(Point::new(4.0, 4.0), 2.0, 2.0);
/// let foi = PolygonWithHoles::new(outer, vec![hole])?;
/// assert!(foi.contains(Point::new(1.0, 1.0)));
/// assert!(!foi.contains(Point::new(5.0, 5.0))); // inside the hole
/// assert_eq!(foi.area(), 96.0);
/// # Ok::<(), anr_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PolygonWithHoles {
    outer: Polygon,
    holes: Vec<Polygon>,
}

impl PolygonWithHoles {
    /// Creates a region from an outer boundary and holes.
    ///
    /// # Errors
    ///
    /// * [`GeomError::HoleOutsideBoundary`] when a hole vertex falls
    ///   outside the outer polygon.
    /// * [`GeomError::OverlappingHoles`] when two holes' boundaries
    ///   intersect or one contains the other.
    pub fn new(outer: Polygon, holes: Vec<Polygon>) -> Result<Self, GeomError> {
        for (i, h) in holes.iter().enumerate() {
            if !h.vertices().iter().all(|&v| outer.contains(v)) {
                return Err(GeomError::HoleOutsideBoundary { hole: i });
            }
        }
        for i in 0..holes.len() {
            for j in (i + 1)..holes.len() {
                if holes_overlap(&holes[i], &holes[j]) {
                    return Err(GeomError::OverlappingHoles {
                        first: i,
                        second: j,
                    });
                }
            }
        }
        Ok(PolygonWithHoles { outer, holes })
    }

    /// A region with no holes.
    pub fn without_holes(outer: Polygon) -> Self {
        PolygonWithHoles {
            outer,
            holes: Vec::new(),
        }
    }

    /// The outer boundary.
    #[inline]
    pub fn outer(&self) -> &Polygon {
        &self.outer
    }

    /// The holes.
    #[inline]
    pub fn holes(&self) -> &[Polygon] {
        &self.holes
    }

    /// Does the region have holes?
    #[inline]
    pub fn has_holes(&self) -> bool {
        !self.holes.is_empty()
    }

    /// Region area: outer area minus hole areas.
    pub fn area(&self) -> f64 {
        self.outer.area() - self.holes.iter().map(Polygon::area).sum::<f64>()
    }

    /// Area centroid of the region (holes subtracted).
    pub fn centroid(&self) -> Point {
        let ao = self.outer.area();
        let co = self.outer.centroid();
        let mut wx = ao * co.x;
        let mut wy = ao * co.y;
        let mut w = ao;
        for h in &self.holes {
            let a = h.area();
            let c = h.centroid();
            wx -= a * c.x;
            wy -= a * c.y;
            w -= a;
        }
        Point::new(wx / w, wy / w)
    }

    /// Bounding box of the outer boundary.
    #[inline]
    pub fn bbox(&self) -> Aabb {
        self.outer.bbox()
    }

    /// Is `p` inside the region (inside outer, not strictly inside any
    /// hole; both boundaries count as inside)?
    pub fn contains(&self, p: Point) -> bool {
        if !self.outer.contains(p) {
            return false;
        }
        !self.holes.iter().any(|h| {
            h.contains_strict(p) && {
                let scale = h.bbox().diagonal().max(1.0);
                h.distance_to_boundary(p) > EPS * scale * 10.0
            }
        })
    }

    /// Is `p` strictly inside a hole (hole boundary excluded)?
    pub fn in_hole(&self, p: Point) -> bool {
        self.outer.contains(p) && !self.contains(p)
    }

    /// Index of the hole strictly containing `p`, if any.
    pub fn hole_containing(&self, p: Point) -> Option<usize> {
        self.holes.iter().position(|h| {
            h.contains_strict(p) && {
                let scale = h.bbox().diagonal().max(1.0);
                h.distance_to_boundary(p) > EPS * scale * 10.0
            }
        })
    }

    /// Distance from `p` to the nearest boundary (outer or any hole).
    pub fn distance_to_boundary(&self, p: Point) -> f64 {
        let mut d = self.outer.distance_to_boundary(p);
        for h in &self.holes {
            d = d.min(h.distance_to_boundary(p));
        }
        d
    }

    /// Distance from `p` to the nearest *hole* boundary.
    ///
    /// Returns `f64::INFINITY` when the region has no holes. Used by
    /// density functions such as "more robots near the fire" (Sec. IV-E).
    pub fn distance_to_holes(&self, p: Point) -> f64 {
        self.holes
            .iter()
            .map(|h| h.distance_to_boundary(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// The region point nearest to `p`.
    ///
    /// If `p` is already inside the region, `p` itself; if `p` is in a
    /// hole, the nearest point on that hole's boundary; if outside the
    /// outer polygon, the nearest point on the outer boundary.
    pub fn clamp_inside(&self, p: Point) -> Point {
        if self.contains(p) {
            return p;
        }
        if let Some(i) = self.hole_containing(p) {
            return self.holes[i].closest_boundary_point(p);
        }
        self.outer.closest_boundary_point(p)
    }

    /// Does the open segment cross into forbidden space (outside the
    /// outer boundary or through a hole)?
    ///
    /// Endpoint touches on boundaries do not count. The test is
    /// conservative for robot motion: it also flags segments whose
    /// midpoint is in forbidden space (fully-contained crossings).
    pub fn segment_blocked(&self, seg: Segment) -> bool {
        if self.outer.segment_crosses_boundary(seg) {
            return true;
        }
        if self.holes.iter().any(|h| h.segment_crosses_boundary(seg)) {
            return true;
        }
        // Segment entirely in forbidden space (or hole) without crossing
        // an edge: check the midpoint.
        !self.contains(seg.midpoint())
    }

    /// Interior sample points on a square grid of the given `spacing`.
    ///
    /// Only points inside the region (outside holes) are returned; the
    /// grid is aligned to the bounding box with a half-spacing inset.
    ///
    /// # Panics
    ///
    /// Panics when `spacing <= 0`.
    pub fn grid_points(&self, spacing: f64) -> Vec<Point> {
        assert!(spacing > 0.0, "spacing must be positive");
        let bb = self.bbox();
        let mut pts = Vec::new();
        let mut y = bb.min.y + spacing / 2.0;
        while y < bb.max.y {
            let mut x = bb.min.x + spacing / 2.0;
            while x < bb.max.x {
                let p = Point::new(x, y);
                if self.contains(p) {
                    pts.push(p);
                }
                x += spacing;
            }
            y += spacing;
        }
        pts
    }

    /// Returns the region translated by `v`.
    pub fn translated(&self, v: Vector) -> PolygonWithHoles {
        PolygonWithHoles {
            outer: self.outer.translated(v),
            holes: self.holes.iter().map(|h| h.translated(v)).collect(),
        }
    }
}

/// Overlap test used during validation: vertices of one hole inside the
/// other, or boundary edges intersecting.
fn holes_overlap(a: &Polygon, b: &Polygon) -> bool {
    if !a.bbox().intersects(&b.bbox()) {
        return false;
    }
    if b.vertices().iter().any(|&v| a.contains_strict(v))
        || a.vertices().iter().any(|&v| b.contains_strict(v))
    {
        return true;
    }
    a.edges()
        .any(|ea| b.edges().any(|eb| ea.crosses_interior(eb)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn region() -> PolygonWithHoles {
        let outer = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
        let hole = Polygon::rectangle(p(4.0, 4.0), 2.0, 2.0);
        PolygonWithHoles::new(outer, vec![hole]).unwrap()
    }

    #[test]
    fn area_subtracts_holes() {
        assert_eq!(region().area(), 96.0);
    }

    #[test]
    fn centroid_of_symmetric_region_is_center() {
        assert!(region().centroid().distance(p(5.0, 5.0)) < 1e-9);
    }

    #[test]
    fn centroid_shifts_away_from_offset_hole() {
        let outer = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
        let hole = Polygon::rectangle(p(7.0, 4.0), 2.0, 2.0);
        let r = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        assert!(r.centroid().x < 5.0);
    }

    #[test]
    fn contains_respects_holes() {
        let r = region();
        assert!(r.contains(p(1.0, 1.0)));
        assert!(!r.contains(p(5.0, 5.0)));
        assert!(r.contains(p(4.0, 5.0))); // hole boundary counts as region
        assert!(!r.contains(p(11.0, 5.0)));
    }

    #[test]
    fn in_hole_and_hole_containing() {
        let r = region();
        assert!(r.in_hole(p(5.0, 5.0)));
        assert_eq!(r.hole_containing(p(5.0, 5.0)), Some(0));
        assert_eq!(r.hole_containing(p(1.0, 1.0)), None);
        assert!(!r.in_hole(p(20.0, 20.0))); // outside entirely is not "in hole"
    }

    #[test]
    fn rejects_hole_outside() {
        let outer = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
        let hole = Polygon::rectangle(p(9.0, 9.0), 5.0, 5.0);
        assert!(matches!(
            PolygonWithHoles::new(outer, vec![hole]),
            Err(GeomError::HoleOutsideBoundary { hole: 0 })
        ));
    }

    #[test]
    fn rejects_overlapping_holes() {
        let outer = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
        let h1 = Polygon::rectangle(p(2.0, 2.0), 3.0, 3.0);
        let h2 = Polygon::rectangle(p(4.0, 4.0), 3.0, 3.0);
        assert!(matches!(
            PolygonWithHoles::new(outer, vec![h1, h2]),
            Err(GeomError::OverlappingHoles { .. })
        ));
    }

    #[test]
    fn accepts_disjoint_holes() {
        let outer = Polygon::rectangle(Point::ORIGIN, 10.0, 10.0);
        let h1 = Polygon::rectangle(p(1.0, 1.0), 2.0, 2.0);
        let h2 = Polygon::rectangle(p(6.0, 6.0), 2.0, 2.0);
        let r = PolygonWithHoles::new(outer, vec![h1, h2]).unwrap();
        assert_eq!(r.holes().len(), 2);
        assert_eq!(r.area(), 92.0);
    }

    #[test]
    fn distance_to_holes() {
        let r = region();
        assert_eq!(r.distance_to_holes(p(1.0, 5.0)), 3.0);
        let no_holes = PolygonWithHoles::without_holes(Polygon::rectangle(Point::ORIGIN, 1.0, 1.0));
        assert_eq!(no_holes.distance_to_holes(p(0.5, 0.5)), f64::INFINITY);
    }

    #[test]
    fn clamp_inside_cases() {
        let r = region();
        // already inside
        assert_eq!(r.clamp_inside(p(1.0, 1.0)), p(1.0, 1.0));
        // in hole -> hole boundary
        let c = r.clamp_inside(p(5.0, 5.0));
        assert!(r.holes()[0].distance_to_boundary(c) < 1e-9);
        // outside -> outer boundary
        let c = r.clamp_inside(p(15.0, 5.0));
        assert!(c.distance(p(10.0, 5.0)) < 1e-9);
    }

    #[test]
    fn segment_blocked_by_hole() {
        let r = region();
        assert!(r.segment_blocked(Segment::new(p(1.0, 5.0), p(9.0, 5.0))));
        assert!(!r.segment_blocked(Segment::new(p(1.0, 1.0), p(9.0, 1.0))));
        assert!(r.segment_blocked(Segment::new(p(5.0, -1.0), p(5.0, 1.0)))); // enters from outside
    }

    #[test]
    fn segment_fully_inside_hole_is_blocked() {
        let r = region();
        assert!(r.segment_blocked(Segment::new(p(4.5, 5.0), p(5.5, 5.0))));
    }

    #[test]
    fn grid_points_avoid_holes() {
        let r = region();
        let pts = r.grid_points(1.0);
        assert!(!pts.is_empty());
        for q in &pts {
            assert!(r.contains(*q));
            assert!(!r.in_hole(*q));
        }
        // Roughly area / spacing^2 points.
        assert!((pts.len() as f64 - r.area()).abs() / r.area() < 0.15);
    }

    #[test]
    fn translated_moves_everything() {
        let r = region().translated(Vector::new(100.0, 0.0));
        assert!(r.contains(p(101.0, 1.0)));
        assert!(!r.contains(p(105.0, 5.0)));
        assert_eq!(r.area(), 96.0);
    }
}
