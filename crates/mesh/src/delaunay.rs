//! Bowyer–Watson Delaunay triangulation.

use crate::{MeshError, TriMesh};
use anr_geom::{in_circle, orient2d, Aabb, Point};

/// Computes the Delaunay triangulation of a point set.
///
/// Incremental Bowyer–Watson with a super-triangle: each point is
/// inserted by removing every triangle whose circumcircle contains it and
/// re-triangulating the resulting cavity. The triangles tested for a
/// point come from a bucket grid of their circumcircles, so an
/// insertion costs its neighbourhood plus the few circles too wide to
/// file in cells, not a scan of every live triangle.
///
/// The output indices match the input point order. Near-duplicate points
/// (closer than `1e-9` times the bounding-box diagonal) are rejected via
/// [`MeshError::DegenerateTriangle`]-free construction — they simply
/// produce slivers that are filtered; callers should deduplicate inputs.
///
/// # Errors
///
/// * [`MeshError::TooFewPoints`] for fewer than 3 points.
/// * [`MeshError::AllCollinear`] when no triangle can be formed.
///
/// # Example
///
/// ```
/// use anr_geom::Point;
/// use anr_mesh::delaunay;
///
/// let pts = vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(0.0, 1.0),
///     Point::new(1.0, 1.0),
/// ];
/// let mesh = delaunay(&pts)?;
/// assert_eq!(mesh.num_triangles(), 2);
/// # Ok::<(), anr_mesh::MeshError>(())
/// ```
pub fn delaunay(points: &[Point]) -> Result<TriMesh, MeshError> {
    if points.len() < 3 {
        return Err(MeshError::TooFewPoints { got: points.len() });
    }

    let Some(bb) = Aabb::from_points(points.iter().copied()) else {
        return Err(MeshError::TooFewPoints { got: 0 });
    };
    let span = bb.diagonal().max(1.0);
    let center = bb.center();

    // Super-triangle large enough to strictly contain every point.
    let m = 20.0 * span;
    let s0 = Point::new(center.x - 2.0 * m, center.y - m);
    let s1 = Point::new(center.x + 2.0 * m, center.y - m);
    let s2 = Point::new(center.x, center.y + 2.0 * m);

    let n = points.len();
    let mut verts: Vec<Point> = points.to_vec();
    verts.push(s0); // index n
    verts.push(s1); // index n + 1
    verts.push(s2); // index n + 2

    // Active triangle list, with each triangle's circumcircle cached in
    // struct-of-arrays form. The cached circle is only a *prefilter*: a
    // triangle whose circle (with a generous relative slack) excludes the
    // query point cannot pass the exact guarded in_circle test below, so
    // skipping it never changes the bad set — the expensive determinant
    // runs only for the handful of candidates near the cavity.
    let mut tris: Vec<[usize; 3]> = vec![[n, n + 1, n + 2]];
    let mut alive: Vec<bool> = vec![true];
    let (c0x, c0y, c0r) = circumcircle(s0, s1, s2);
    let mut ccx: Vec<f64> = vec![c0x];
    let mut ccy: Vec<f64> = vec![c0y];
    let mut cr2: Vec<f64> = vec![c0r];
    let mut dead = 0usize;
    // The triangles offered to the prefilter come from a bucket grid of
    // the cached circles instead of a scan of every live triangle. The
    // grid presents every triangle the prefilter could keep, and the bad
    // set does not depend on visit order (the edge map below is keyed,
    // the hull sorted), so the output is the scan's, triangle for
    // triangle.
    let mut grid = CircleGrid::new(&bb, n);
    grid.insert(0, c0x, c0y, c0r);
    let mut bad: Vec<usize> = Vec::new();

    for pi in 0..n {
        let p = verts[pi];

        // Find all "bad" triangles whose circumcircle contains p.
        bad.clear();
        for ti in grid.candidates(p, &alive) {
            let dx = p.x - ccx[ti];
            let dy = p.y - ccy[ti];
            let d2 = dx * dx + dy * dy;
            let r2 = cr2[ti];
            // Conservative reject: slack is ~1e10× the worst rounding
            // error of the cached center (degenerate triangles cache an
            // infinite radius and always fall through to the exact test).
            if d2 > r2 + 1e-6 * (d2 + r2) {
                continue;
            }
            let t = tris[ti];
            let (a, b, c) = (verts[t[0]], verts[t[1]], verts[t[2]]);
            // Triangles are maintained CCW, required by in_circle's sign.
            // The guard is relative to the determinant's length⁴ scale so
            // cocircular quadruples classify consistently as "not inside"
            // instead of flipping sign with rounding noise.
            let scale = {
                let s = (a.distance_sq(p) + b.distance_sq(p) + c.distance_sq(p)) / 3.0;
                s * s
            };
            if in_circle(a, b, c, p) > 1e-12 * scale {
                bad.push(ti);
            }
        }

        // Boundary of the cavity: edges of bad triangles not shared by
        // two bad triangles.
        let mut edge_count: std::collections::BTreeMap<(usize, usize), (usize, usize, i32)> =
            std::collections::BTreeMap::new();
        for &ti in &bad {
            let t = tris[ti];
            for k in 0..3 {
                let a = t[k];
                let b = t[(k + 1) % 3];
                let key = (a.min(b), a.max(b));
                edge_count
                    .entry(key)
                    .and_modify(|e| e.2 += 1)
                    .or_insert((a, b, 1));
            }
        }

        for &ti in &bad {
            alive[ti] = false;
        }

        let mut hull: Vec<(usize, usize)> = edge_count
            .values()
            .filter(|&&(_, _, cnt)| cnt == 1)
            .map(|&(a, b, _)| (a, b))
            .collect();
        // Deterministic insertion order.
        hull.sort_unstable();

        for (a, b) in hull {
            // Orient the new triangle CCW.
            let (va, vb) = (verts[a], verts[b]);
            let t = if orient2d(va, vb, p) > 0.0 {
                [a, b, pi]
            } else {
                [b, a, pi]
            };
            // Skip degenerate (collinear) triangles.
            if orient2d(verts[t[0]], verts[t[1]], verts[t[2]]) <= 0.0 {
                continue;
            }
            let (cx, cy, r2) = circumcircle(verts[t[0]], verts[t[1]], verts[t[2]]);
            grid.insert(tris.len(), cx, cy, r2);
            tris.push(t);
            alive.push(true);
            ccx.push(cx);
            ccy.push(cy);
            cr2.push(r2);
        }

        // Compact dead slots once they dominate, preserving relative
        // order so the final triangle list (and thus the output mesh) is
        // identical to the never-compacted scan; the grid's ids follow.
        dead += bad.len();
        if dead * 2 > tris.len() && tris.len() > 64 {
            let mut remap = vec![usize::MAX; tris.len()];
            let mut w = 0usize;
            for r in 0..tris.len() {
                if alive[r] {
                    remap[r] = w;
                    tris[w] = tris[r];
                    ccx[w] = ccx[r];
                    ccy[w] = ccy[r];
                    cr2[w] = cr2[r];
                    w += 1;
                }
            }
            tris.truncate(w);
            ccx.truncate(w);
            ccy.truncate(w);
            cr2.truncate(w);
            alive.truncate(w);
            alive.fill(true);
            grid.remap(&remap);
            dead = 0;
        }
    }

    // Drop triangles touching the super-triangle.
    let final_tris: Vec<[usize; 3]> = tris
        .into_iter()
        .zip(alive)
        .filter(|(t, a)| *a && t.iter().all(|&v| v < n))
        .map(|(t, _)| t)
        .collect();

    if final_tris.is_empty() {
        return Err(MeshError::AllCollinear);
    }

    verts.truncate(n);
    TriMesh::new(verts, final_tris)
}

/// Circles spanning more grid cells than this go on the always-scanned
/// list instead of into the cells.
const MAX_CIRCLE_CELLS: usize = 32;

/// Coordinates, centres and radii at or beyond this magnitude could
/// overflow the prefilter's squared distances, which then passes every
/// triangle; such circles are always scanned.
const SAFE_MAGNITUDE: f64 = 1e150;

/// Uniform bucket grid of cached circumcircles over the input points'
/// bounding box (about `n / 2` cells, never more than `n`).
///
/// A triangle is filed in every cell its *inflated* circle's bounding
/// box overlaps. The prefilter keeps a triangle for query `p` only when
/// the computed `d2 ≤ r2 + 1e-6 (d2 + r2)`, i.e. within about
/// `(1 + 1e-6) r` of the cached centre; the registered box reaches
/// `(1 + 1e-5) r` plus slack for the rounding of its ends and for radii
/// near underflow. Cell indices are a monotone function of each
/// coordinate, so every query the prefilter could keep lies in a cell
/// the triangle is filed in. Every query point lies in the box, so
/// circles are clipped to it. Infinite, non-finite, oversized or
/// hugely wide circles go on `wide`, which every query scans.
struct CircleGrid {
    x0: f64,
    y0: f64,
    inv_x: f64,
    inv_y: f64,
    nx: usize,
    ny: usize,
    /// False when the points' box itself is beyond [`SAFE_MAGNITUDE`]:
    /// then every circle is wide and the grid degenerates to the scan.
    safe: bool,
    cells: Vec<Vec<usize>>,
    wide: Vec<usize>,
}

impl CircleGrid {
    fn new(bb: &Aabb, n: usize) -> Self {
        let target = (n / 2).max(1);
        let (w, h) = (bb.max.x - bb.min.x, bb.max.y - bb.min.y);
        let safe = [bb.min.x, bb.min.y, bb.max.x, bb.max.y]
            .iter()
            .all(|v| v.abs() < SAFE_MAGNITUDE);
        let (nx, ny) = if !safe {
            (1, 1)
        } else if w > 0.0 && h > 0.0 {
            let nx = ((target as f64 * w / h).sqrt().round() as usize).clamp(1, target);
            (nx, (target / nx).max(1))
        } else if w > 0.0 {
            (target, 1)
        } else if h > 0.0 {
            (1, target)
        } else {
            (1, 1)
        };
        let axis = |k: usize, len: f64| -> (usize, f64) {
            let inv = k as f64 / len;
            if k > 1 && inv.is_finite() {
                (k, inv)
            } else {
                (1, 0.0)
            }
        };
        let (nx, inv_x) = axis(nx, w);
        let (ny, inv_y) = axis(ny, h);
        CircleGrid {
            x0: bb.min.x,
            y0: bb.min.y,
            inv_x,
            inv_y,
            nx,
            ny,
            safe,
            cells: vec![Vec::new(); nx * ny],
            wide: Vec::new(),
        }
    }

    /// Files triangle `ti` with cached circle `(cx, cy, r2)`.
    fn insert(&mut self, ti: usize, cx: f64, cy: f64, r2: f64) {
        let r = r2.sqrt() * (1.0 + 1e-5) + 1e-12 * (cx.abs() + cy.abs()) + 1e-150;
        if !(self.safe
            && r < SAFE_MAGNITUDE
            && cx.abs() < SAFE_MAGNITUDE
            && cy.abs() < SAFE_MAGNITUDE)
        {
            self.wide.push(ti);
            return;
        }
        let (i0, i1) = (
            axis_cell(cx - r, self.x0, self.inv_x, self.nx),
            axis_cell(cx + r, self.x0, self.inv_x, self.nx),
        );
        let (j0, j1) = (
            axis_cell(cy - r, self.y0, self.inv_y, self.ny),
            axis_cell(cy + r, self.y0, self.inv_y, self.ny),
        );
        if (i1 - i0 + 1) * (j1 - j0 + 1) > MAX_CIRCLE_CELLS {
            self.wide.push(ti);
            return;
        }
        for j in j0..=j1 {
            for i in i0..=i1 {
                self.cells[j * self.nx + i].push(ti);
            }
        }
    }

    /// The live triangles filed in `p`'s cell, then the wide ones. Dead
    /// ids met on the way are dropped from both lists.
    fn candidates(&mut self, p: Point, alive: &[bool]) -> impl Iterator<Item = usize> + '_ {
        let cell = axis_cell(p.y, self.y0, self.inv_y, self.ny) * self.nx
            + axis_cell(p.x, self.x0, self.inv_x, self.nx);
        let list = &mut self.cells[cell];
        list.retain(|&t| alive[t]);
        self.wide.retain(|&t| alive[t]);
        list.iter().chain(&self.wide).copied()
    }

    /// Renumbers ids after the triangle list is compacted (`usize::MAX`
    /// marks a dropped triangle).
    fn remap(&mut self, remap: &[usize]) {
        for list in self.cells.iter_mut().chain(std::iter::once(&mut self.wide)) {
            list.retain_mut(|t| {
                *t = remap[*t];
                *t != usize::MAX
            });
        }
    }
}

/// Cell index of coordinate `v` along one grid axis: monotone
/// non-decreasing in `v`, clamped to `0..k` (NaN maps to 0).
fn axis_cell(v: f64, lo: f64, inv: f64, k: usize) -> usize {
    let f = (v - lo) * inv;
    if f > 0.0 {
        (f as usize).min(k - 1)
    } else {
        0
    }
}

/// Circumcircle of triangle `abc` as `(center_x, center_y, radius²)`.
///
/// Near-collinear triangles (twice-area below `1e-8` of the longest
/// squared edge, where the division would amplify rounding into the
/// cached center) return an infinite radius, which makes the caller's
/// prefilter pass-through — the exact in_circle test then decides.
fn circumcircle(a: Point, b: Point, c: Point) -> (f64, f64, f64) {
    let bx = b.x - a.x;
    let by = b.y - a.y;
    let cx = c.x - a.x;
    let cy = c.y - a.y;
    let d = 2.0 * (bx * cy - by * cx);
    let b2 = bx * bx + by * by;
    let c2 = cx * cx + cy * cy;
    let ex = bx - cx;
    let ey = by - cy;
    let l2max = b2.max(c2).max(ex * ex + ey * ey);
    if d.abs() <= 1e-8 * l2max {
        return (a.x, a.y, f64::INFINITY);
    }
    let ux = (cy * b2 - by * c2) / d;
    let uy = (bx * c2 - cx * b2) / d;
    (a.x + ux, a.y + uy, ux * ux + uy * uy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// The all-triangle Bowyer–Watson scan that preceded the circumcircle
    /// grid, kept verbatim as the oracle `delaunay` is pinned against.
    fn delaunay_scan(points: &[Point]) -> Result<TriMesh, MeshError> {
        if points.len() < 3 {
            return Err(MeshError::TooFewPoints { got: points.len() });
        }

        let Some(bb) = Aabb::from_points(points.iter().copied()) else {
            return Err(MeshError::TooFewPoints { got: 0 });
        };
        let span = bb.diagonal().max(1.0);
        let center = bb.center();

        // Super-triangle large enough to strictly contain every point.
        let m = 20.0 * span;
        let s0 = Point::new(center.x - 2.0 * m, center.y - m);
        let s1 = Point::new(center.x + 2.0 * m, center.y - m);
        let s2 = Point::new(center.x, center.y + 2.0 * m);

        let n = points.len();
        let mut verts: Vec<Point> = points.to_vec();
        verts.push(s0); // index n
        verts.push(s1); // index n + 1
        verts.push(s2); // index n + 2

        // Active triangle list, with each triangle's circumcircle cached in
        // struct-of-arrays form. The cached circle is only a *prefilter*: a
        // triangle whose circle (with a generous relative slack) excludes the
        // query point cannot pass the exact guarded in_circle test below, so
        // skipping it never changes the bad set — the expensive determinant
        // runs only for the handful of candidates near the cavity.
        let mut tris: Vec<[usize; 3]> = vec![[n, n + 1, n + 2]];
        let mut alive: Vec<bool> = vec![true];
        let (c0x, c0y, c0r) = circumcircle(s0, s1, s2);
        let mut ccx: Vec<f64> = vec![c0x];
        let mut ccy: Vec<f64> = vec![c0y];
        let mut cr2: Vec<f64> = vec![c0r];
        let mut dead = 0usize;

        for pi in 0..n {
            let p = verts[pi];

            // Find all "bad" triangles whose circumcircle contains p.
            let mut bad: Vec<usize> = Vec::new();
            for ti in 0..tris.len() {
                if !alive[ti] {
                    continue;
                }
                let dx = p.x - ccx[ti];
                let dy = p.y - ccy[ti];
                let d2 = dx * dx + dy * dy;
                let r2 = cr2[ti];
                // Conservative reject: slack is ~1e10× the worst rounding
                // error of the cached center (degenerate triangles cache an
                // infinite radius and always fall through to the exact test).
                if d2 > r2 + 1e-6 * (d2 + r2) {
                    continue;
                }
                let t = tris[ti];
                let (a, b, c) = (verts[t[0]], verts[t[1]], verts[t[2]]);
                // Triangles are maintained CCW, required by in_circle's sign.
                // The guard is relative to the determinant's length⁴ scale so
                // cocircular quadruples classify consistently as "not inside"
                // instead of flipping sign with rounding noise.
                let scale = {
                    let s = (a.distance_sq(p) + b.distance_sq(p) + c.distance_sq(p)) / 3.0;
                    s * s
                };
                if in_circle(a, b, c, p) > 1e-12 * scale {
                    bad.push(ti);
                }
            }

            // Boundary of the cavity: edges of bad triangles not shared by
            // two bad triangles.
            let mut edge_count: std::collections::BTreeMap<(usize, usize), (usize, usize, i32)> =
                std::collections::BTreeMap::new();
            for &ti in &bad {
                let t = tris[ti];
                for k in 0..3 {
                    let a = t[k];
                    let b = t[(k + 1) % 3];
                    let key = (a.min(b), a.max(b));
                    edge_count
                        .entry(key)
                        .and_modify(|e| e.2 += 1)
                        .or_insert((a, b, 1));
                }
            }

            for &ti in &bad {
                alive[ti] = false;
            }

            let mut hull: Vec<(usize, usize)> = edge_count
                .values()
                .filter(|&&(_, _, cnt)| cnt == 1)
                .map(|&(a, b, _)| (a, b))
                .collect();
            // Deterministic insertion order.
            hull.sort_unstable();

            for (a, b) in hull {
                // Orient the new triangle CCW.
                let (va, vb) = (verts[a], verts[b]);
                let t = if orient2d(va, vb, p) > 0.0 {
                    [a, b, pi]
                } else {
                    [b, a, pi]
                };
                // Skip degenerate (collinear) triangles.
                if orient2d(verts[t[0]], verts[t[1]], verts[t[2]]) <= 0.0 {
                    continue;
                }
                let (cx, cy, r2) = circumcircle(verts[t[0]], verts[t[1]], verts[t[2]]);
                tris.push(t);
                alive.push(true);
                ccx.push(cx);
                ccy.push(cy);
                cr2.push(r2);
            }

            // Compact dead slots once they dominate, preserving relative
            // order so the final triangle list (and thus the output mesh) is
            // identical to the never-compacted scan.
            dead += bad.len();
            if dead * 2 > tris.len() && tris.len() > 64 {
                let mut w = 0usize;
                for r in 0..tris.len() {
                    if alive[r] {
                        tris[w] = tris[r];
                        ccx[w] = ccx[r];
                        ccy[w] = ccy[r];
                        cr2[w] = cr2[r];
                        w += 1;
                    }
                }
                tris.truncate(w);
                ccx.truncate(w);
                ccy.truncate(w);
                cr2.truncate(w);
                alive.truncate(w);
                alive.fill(true);
                dead = 0;
            }
        }

        // Drop triangles touching the super-triangle.
        let final_tris: Vec<[usize; 3]> = tris
            .into_iter()
            .zip(alive)
            .filter(|(t, a)| *a && t.iter().all(|&v| v < n))
            .map(|(t, _)| t)
            .collect();

        if final_tris.is_empty() {
            return Err(MeshError::AllCollinear);
        }

        verts.truncate(n);
        TriMesh::new(verts, final_tris)
    }

    /// `delaunay` and the scan agree on the whole `Result`: the same
    /// triangles in the same order and orientation, or the same error.
    fn assert_matches_scan(pts: &[Point]) {
        let fast = delaunay(pts).map(|m| (m.vertices().to_vec(), m.triangles().to_vec()));
        let scan = delaunay_scan(pts).map(|m| (m.vertices().to_vec(), m.triangles().to_vec()));
        match (&fast, &scan) {
            (Ok((fv, ft)), Ok((sv, st))) => {
                assert_eq!(fv.len(), sv.len());
                assert!(
                    fv.iter()
                        .zip(sv)
                        .all(|(a, b)| a.x.to_bits() == b.x.to_bits()
                            && a.y.to_bits() == b.y.to_bits())
                );
                assert_eq!(ft, st, "triangle lists differ");
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!(
                "grid {:?} vs scan {:?}",
                fast.map(|m| m.1.len()),
                scan.map(|m| m.1.len())
            ),
        }
    }

    fn lcg_cloud(n: usize, seed: u64, scale: f64) -> Vec<Point> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n).map(|_| p(next() * scale, next() * scale)).collect()
    }

    #[test]
    fn grid_matches_scan_on_random_clouds() {
        for (n, seed) in [
            (3usize, 1u64),
            (4, 2),
            (10, 3),
            (65, 4),
            (300, 5),
            (2500, 6),
        ] {
            assert_matches_scan(&lcg_cloud(n, seed, 1000.0));
        }
        // Strips: extreme aspect ratios put every circle in a few cells
        // along one axis.
        let strip: Vec<Point> = lcg_cloud(800, 7, 1.0)
            .into_iter()
            .map(|q| p(q.x * 1e5, q.y * 1e-2))
            .collect();
        assert_matches_scan(&strip);
        let tall: Vec<Point> = strip.iter().map(|q| p(q.y, q.x)).collect();
        assert_matches_scan(&tall);
    }

    #[test]
    fn grid_matches_scan_on_cocircular_integer_grids() {
        for (nx, ny) in [(2usize, 2usize), (6, 6), (25, 9), (40, 40)] {
            let pts: Vec<Point> = (0..ny)
                .flat_map(|j| (0..nx).map(move |i| p(i as f64, j as f64)))
                .collect();
            assert_matches_scan(&pts);
            // Same grid in a scrambled insertion order.
            let mut shuffled = pts.clone();
            let k = shuffled.len();
            for i in 0..k {
                shuffled.swap(i, (i * 7919 + 13) % k);
            }
            assert_matches_scan(&shuffled);
        }
    }

    #[test]
    fn grid_matches_scan_on_boundary_ring_then_interior() {
        // The FoI mesher's order: a ring of boundary samples first (wide
        // circles), then interior rows.
        let mut pts: Vec<Point> = (0..120)
            .map(|i| {
                let a = std::f64::consts::TAU * i as f64 / 120.0;
                p(500.0 + 480.0 * a.cos(), 500.0 + 480.0 * a.sin())
            })
            .collect();
        for j in 0..30 {
            for i in 0..30 {
                let q = p(40.0 + 31.0 * i as f64, 40.0 + 31.0 * j as f64);
                if q.distance(p(500.0, 500.0)) < 460.0 {
                    pts.push(q);
                }
            }
        }
        assert_matches_scan(&pts);
    }

    #[test]
    fn grid_matches_scan_on_degenerate_inputs() {
        assert_matches_scan(&[p(1.0, 1.0); 9]);
        let collinear: Vec<Point> = (0..40).map(|i| p(i as f64, 3.0 * i as f64)).collect();
        assert_matches_scan(&collinear);
        let horizontal: Vec<Point> = (0..40).map(|i| p(i as f64, 7.0)).collect();
        assert_matches_scan(&horizontal);
        let vertical: Vec<Point> = (0..40).map(|i| p(-2.0, i as f64)).collect();
        assert_matches_scan(&vertical);
        // Nearly collinear: one point a hair off the line.
        let mut near = collinear.clone();
        near.push(p(20.0, 60.0 + 1e-9));
        assert_matches_scan(&near);
        // Duplicates mixed into a cloud.
        let mut dup = lcg_cloud(200, 8, 50.0);
        dup.extend_from_within(0..40);
        assert_matches_scan(&dup);
        for scale in [1e300, 1e200, 1e150, 1e100, 1e-100, 1e-150, 1e-300, 1e-310] {
            let pts: Vec<Point> = lcg_cloud(150, 9, 1.0)
                .into_iter()
                .map(|q| p(q.x * scale, q.y * scale))
                .collect();
            assert_matches_scan(&pts);
        }
        let offset: Vec<Point> = lcg_cloud(300, 10, 10.0)
            .into_iter()
            .map(|q| p(q.x + 1e12, q.y - 3e11))
            .collect();
        assert_matches_scan(&offset);
        // Mixed magnitudes: a far outlier stretches the box.
        let mut outlier = lcg_cloud(300, 11, 10.0);
        outlier.push(p(1e140, -1e140));
        assert_matches_scan(&outlier);
        // Non-finite coordinates never panic and match the scan.
        let mut nan = lcg_cloud(50, 12, 10.0);
        nan.insert(10, p(f64::NAN, 1.0));
        assert_matches_scan(&nan);
        let mut inf = lcg_cloud(50, 13, 10.0);
        inf.push(p(f64::INFINITY, 0.0));
        assert_matches_scan(&inf);
    }

    #[test]
    fn grid_matches_scan_on_a_4096_vertex_foi() {
        // The largest FoI polygon a plan request may carry.
        use anr_geom::{Polygon, PolygonWithHoles};
        let outer = Polygon::regular(p(0.0, 0.0), 600.0, 4096);
        let hole = Polygon::regular(p(100.0, 50.0), 120.0, 64);
        let foi = PolygonWithHoles::new(outer, vec![hole]).unwrap();
        for jitter in [1e-3, 0.0] {
            let pts = crate::FoiMesher::new(25.0)
                .jitter(jitter)
                .sample_points(&foi);
            assert!(pts.len() > 1000, "{} points", pts.len());
            assert_matches_scan(&pts);
        }
    }

    #[test]
    fn circle_grid_has_at_most_n_cells() {
        for n in [0usize, 1, 2, 3, 7, 100, 10_000] {
            for (w, h) in [
                (1.0, 1.0),
                (1e6, 1e-6),
                (1e-6, 1e6),
                (0.0, 5.0),
                (5.0, 0.0),
                (0.0, 0.0),
            ] {
                let bb = Aabb::new(p(-3.0, 2.0), p(-3.0 + w, 2.0 + h));
                let g = CircleGrid::new(&bb, n);
                assert!(
                    g.cells.len() <= n.max(1),
                    "n {n} box {w}x{h}: {} cells",
                    g.cells.len()
                );
                assert_eq!(g.cells.len(), g.nx * g.ny);
            }
        }
        // A box beyond the safe magnitude degenerates to one cell (every
        // circle is then scanned).
        for far in [f64::INFINITY, -1e200, 1e200] {
            let g = CircleGrid::new(&Aabb::new(p(0.0, 0.0), p(far, 1.0)), 1000);
            assert_eq!(g.cells.len(), 1);
        }
        let g = CircleGrid::new(&Aabb::new(p(0.0, 0.0), p(f64::NAN, 1.0)), 1000);
        assert!(g.cells.len() <= 1000);
    }

    #[test]
    fn too_few_points() {
        assert!(matches!(
            delaunay(&[p(0.0, 0.0), p(1.0, 0.0)]),
            Err(MeshError::TooFewPoints { got: 2 })
        ));
    }

    #[test]
    fn collinear_points_error() {
        let pts: Vec<Point> = (0..5).map(|i| p(i as f64, 2.0 * i as f64)).collect();
        assert!(matches!(delaunay(&pts), Err(MeshError::AllCollinear)));
    }

    #[test]
    fn triangle_of_three_points() {
        let m = delaunay(&[p(0.0, 0.0), p(4.0, 0.0), p(0.0, 3.0)]).unwrap();
        assert_eq!(m.num_triangles(), 1);
        assert_eq!(m.num_vertices(), 3);
        assert!((m.total_area() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn square_has_two_triangles() {
        let m = delaunay(&[p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)]).unwrap();
        assert_eq!(m.num_triangles(), 2);
        assert!((m.total_area() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn delaunay_prefers_short_diagonal() {
        // Quadrilateral where one diagonal choice violates the empty-
        // circle property: the Delaunay result must use the short one.
        let pts = vec![p(0.0, 0.0), p(10.0, 0.0), p(10.0, 1.0), p(0.0, 1.0)];
        let m = delaunay(&pts).unwrap();
        // The shared edge must be a diagonal (0-2 or 1-3), both have the
        // same length here; check total area is exact instead and that
        // the empty-circle property holds.
        assert!((m.total_area() - 10.0).abs() < 1e-9);
        assert_empty_circle(&m);
    }

    fn assert_empty_circle(m: &TriMesh) {
        for t in 0..m.num_triangles() {
            let [a, b, c] = m.triangles()[t];
            let (pa, pb, pc) = (m.vertex(a), m.vertex(b), m.vertex(c));
            for v in 0..m.num_vertices() {
                if v == a || v == b || v == c {
                    continue;
                }
                let val = in_circle(pa, pb, pc, m.vertex(v));
                // Allow tiny positive values from floating-point noise on
                // cocircular configurations.
                let scale = (pa.distance(pb) * pb.distance(pc) * pc.distance(pa))
                    .powi(2)
                    .max(1.0);
                assert!(
                    val <= 1e-6 * scale,
                    "vertex {v} inside circumcircle of triangle {t} (val {val})"
                );
            }
        }
    }

    #[test]
    fn empty_circle_property_random_cloud() {
        // Deterministic pseudo-random points via an LCG.
        let mut seed: u64 = 42;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        let pts: Vec<Point> = (0..60).map(|_| p(next() * 100.0, next() * 100.0)).collect();
        let m = delaunay(&pts).unwrap();
        assert_eq!(m.num_vertices(), 60);
        assert_empty_circle(&m);
        // Convex-hull area check: triangulation covers the hull.
        assert!(m.total_area() > 0.0);
        assert_eq!(m.boundary_loops().len(), 1);
        assert_eq!(m.euler_characteristic(), 1);
    }

    #[test]
    fn grid_points_triangulate_fully() {
        // Structured grids are the worst case for cocircular quadruples;
        // the triangulation must still tile the full square.
        let mut pts = Vec::new();
        for j in 0..6 {
            for i in 0..6 {
                pts.push(p(i as f64, j as f64));
            }
        }
        let m = delaunay(&pts).unwrap();
        assert!((m.total_area() - 25.0).abs() < 1e-6);
        assert_eq!(m.num_triangles(), 50);
        assert_eq!(m.euler_characteristic(), 1);
    }

    #[test]
    fn output_indices_match_input_order() {
        let pts = vec![p(0.0, 0.0), p(2.0, 0.0), p(1.0, 2.0), p(1.0, 0.7)];
        let m = delaunay(&pts).unwrap();
        for (i, q) in pts.iter().enumerate() {
            assert_eq!(m.vertex(i), *q);
        }
    }
}
