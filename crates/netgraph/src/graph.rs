//! The unit-disk connectivity graph of a robot deployment.

use crate::UnionFind;
use anr_geom::Point;
use std::collections::VecDeque;

/// Connectivity graph of robots with identical communication range:
/// robots `i` and `j` share a link iff `‖pᵢ − pⱼ‖ ≤ r_c`.
///
/// The graph snapshot stores positions, the range, and a sorted adjacency
/// list. It is the `e_ij(t)` of the paper evaluated at one instant.
///
/// ```
/// use anr_geom::Point;
/// use anr_netgraph::UnitDiskGraph;
///
/// let g = UnitDiskGraph::new(
///     &[Point::new(0.0, 0.0), Point::new(60.0, 0.0), Point::new(120.0, 0.0)],
///     80.0,
/// );
/// assert_eq!(g.degree(1), 2);
/// assert!(g.is_connected());
/// assert_eq!(g.bfs_hops(0)[2], Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct UnitDiskGraph {
    positions: Vec<Point>,
    range: f64,
    adjacency: Vec<Vec<usize>>,
    num_links: usize,
}

impl UnitDiskGraph {
    /// Builds the connectivity graph of `positions` with communication
    /// range `range`.
    ///
    /// # Panics
    ///
    /// Panics when `range <= 0` or a position is non-finite.
    pub fn new(positions: &[Point], range: f64) -> Self {
        assert!(range > 0.0, "communication range must be positive");
        assert!(
            positions.iter().all(|p| p.is_finite()),
            "positions must be finite"
        );
        let n = positions.len();
        let mut adjacency = vec![Vec::new(); n];
        let mut num_links = 0;
        let r2 = range * range;

        // Cell table: robots sorted by their (row, column) cell of side
        // `range`, so the three candidate cells of each neighbouring row
        // are one contiguous run, found by binary search. Sorting keeps
        // the table O(n) whatever the positions' extent (cell indices
        // saturate far out, and the distance test decides every pair).
        let cell = |v: f64| (v / range).floor() as i64;
        let mut table: Vec<(i64, i64, usize)> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| (cell(p.y), cell(p.x), i))
            .collect();
        table.sort_unstable();
        for (i, &p) in positions.iter().enumerate() {
            let (ky, kx) = (cell(p.y), cell(p.x));
            let (x0, x1) = (kx.saturating_sub(1), kx.saturating_add(1));
            for row in [ky.checked_sub(1), Some(ky), ky.checked_add(1)]
                .into_iter()
                .flatten()
            {
                let lo = table.partition_point(|&(y, x, _)| (y, x) < (row, x0));
                let hi = table.partition_point(|&(y, x, _)| (y, x) <= (row, x1));
                for &(_, _, j) in &table[lo..hi] {
                    if j > i && positions[j].distance_sq(p) <= r2 {
                        adjacency[i].push(j);
                        adjacency[j].push(i);
                        num_links += 1;
                    }
                }
            }
        }
        for a in adjacency.iter_mut() {
            a.sort_unstable();
        }

        UnitDiskGraph {
            positions: positions.to_vec(),
            range,
            adjacency,
            num_links,
        }
    }

    /// Number of robots.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True for an empty deployment.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Robot positions.
    #[inline]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The communication range used to build the graph.
    #[inline]
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Sorted neighbor list of robot `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adjacency[i]
    }

    /// Number of links incident to robot `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[inline]
    pub fn degree(&self, i: usize) -> usize {
        self.adjacency[i].len()
    }

    /// The full adjacency list (e.g. to drive an
    /// [`anr_distsim::Simulator`]).
    #[inline]
    pub fn adjacency(&self) -> &[Vec<usize>] {
        &self.adjacency
    }

    /// Consumes the graph, returning the adjacency list.
    pub fn into_adjacency(self) -> Vec<Vec<usize>> {
        self.adjacency
    }

    /// Total number of undirected links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// All undirected links as `(i, j)` with `i < j`.
    pub fn links(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.num_links);
        for (i, nbrs) in self.adjacency.iter().enumerate() {
            for &j in nbrs {
                if j > i {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Do robots `i` and `j` share a link?
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn has_link(&self, i: usize, j: usize) -> bool {
        self.adjacency[i].binary_search(&j).is_ok()
    }

    /// BFS hop distance from `source` to every robot (`None` =
    /// unreachable).
    ///
    /// # Panics
    ///
    /// Panics when `source` is out of range.
    pub fn bfs_hops(&self, source: usize) -> Vec<Option<usize>> {
        self.multi_source_hops(&[source])
    }

    /// BFS hop distance from the nearest of several `sources`.
    ///
    /// Used by the isolated-subgroup detection (Sec. III-D-1), where
    /// every boundary vertex is a source.
    ///
    /// # Panics
    ///
    /// Panics when any source is out of range.
    pub fn multi_source_hops(&self, sources: &[usize]) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.len()];
        let mut queue = VecDeque::new();
        for &s in sources {
            assert!(s < self.len(), "source out of range");
            if dist[s].is_none() {
                dist[s] = Some(0);
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            let Some(d) = dist[u] else { continue };
            for &v in &self.adjacency[u] {
                if dist[v].is_none() {
                    dist[v] = Some(d + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Is the whole network one connected component?
    ///
    /// An empty graph counts as connected.
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        self.bfs_hops(0).iter().all(Option::is_some)
    }

    /// Connected components as sorted vertex lists, largest first.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let mut uf = UnionFind::new(self.len());
        for (i, j) in self.links() {
            uf.union(i, j);
        }
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for v in 0..self.len() {
            by_root.entry(uf.find(v)).or_default().push(v);
        }
        let mut comps: Vec<Vec<usize>> = by_root.into_values().collect();
        for c in comps.iter_mut() {
            c.sort_unstable();
        }
        comps.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        comps
    }

    /// Robots with no links at all.
    pub fn isolated_robots(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.degree(i) == 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn line(n: usize, spacing: f64) -> Vec<Point> {
        (0..n).map(|i| p(i as f64 * spacing, 0.0)).collect()
    }

    #[test]
    fn line_graph_structure() {
        let g = UnitDiskGraph::new(&line(5, 60.0), 80.0);
        assert_eq!(g.num_links(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert!(g.is_connected());
    }

    #[test]
    fn range_boundary_is_inclusive() {
        let g = UnitDiskGraph::new(&[p(0.0, 0.0), p(80.0, 0.0)], 80.0);
        assert!(g.has_link(0, 1));
        let g = UnitDiskGraph::new(&[p(0.0, 0.0), p(80.01, 0.0)], 80.0);
        assert!(!g.has_link(0, 1));
    }

    #[test]
    fn disconnected_components() {
        let mut pts = line(3, 50.0);
        pts.extend([p(1000.0, 0.0), p(1050.0, 0.0)]);
        let g = UnitDiskGraph::new(&pts, 80.0);
        assert!(!g.is_connected());
        let comps = g.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2]); // largest first
        assert_eq!(comps[1], vec![3, 4]);
    }

    #[test]
    fn bfs_hops_on_line() {
        let g = UnitDiskGraph::new(&line(6, 70.0), 80.0);
        let hops = g.bfs_hops(0);
        for (i, h) in hops.iter().enumerate() {
            assert_eq!(*h, Some(i));
        }
    }

    #[test]
    fn multi_source_hops_take_nearest() {
        let g = UnitDiskGraph::new(&line(7, 70.0), 80.0);
        let hops = g.multi_source_hops(&[0, 6]);
        assert_eq!(hops[3], Some(3));
        assert_eq!(hops[5], Some(1));
        assert_eq!(hops[0], Some(0));
    }

    #[test]
    fn unreachable_is_none() {
        let g = UnitDiskGraph::new(&[p(0.0, 0.0), p(500.0, 0.0)], 80.0);
        assert_eq!(g.bfs_hops(0)[1], None);
    }

    #[test]
    fn isolated_robots_listed() {
        let g = UnitDiskGraph::new(&[p(0.0, 0.0), p(50.0, 0.0), p(900.0, 0.0)], 80.0);
        assert_eq!(g.isolated_robots(), vec![2]);
    }

    #[test]
    fn links_are_canonical_pairs() {
        let g = UnitDiskGraph::new(&line(4, 60.0), 80.0);
        for (i, j) in g.links() {
            assert!(i < j);
            assert!(g.has_link(i, j));
            assert!(g.has_link(j, i));
        }
    }

    #[test]
    fn spatial_hash_matches_bruteforce() {
        // Pseudo-random cloud; compare against O(n²) construction.
        let mut seed: u64 = 99;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        let pts: Vec<Point> = (0..80).map(|_| p(next() * 500.0, next() * 500.0)).collect();
        let g = UnitDiskGraph::new(&pts, 90.0);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let expect = pts[i].distance(pts[j]) <= 90.0;
                assert_eq!(g.has_link(i, j), expect, "link ({i}, {j})");
            }
        }
    }

    /// O(n²) adjacency with the construction's own range test.
    fn brute_adjacency(pts: &[Point], range: f64) -> Vec<Vec<usize>> {
        (0..pts.len())
            .map(|i| {
                (0..pts.len())
                    .filter(|&j| j != i && pts[j].distance_sq(pts[i]) <= range * range)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn cell_table_matches_bruteforce_on_hostile_positions() {
        let mut cases: Vec<(Vec<Point>, f64)> = Vec::new();
        // Lattice on exact cell boundaries, negative quadrant included.
        let lattice: Vec<Point> = (-6..6)
            .flat_map(|j| (-6..6).map(move |i| p(40.0 * i as f64, 40.0 * j as f64)))
            .collect();
        cases.push((lattice.clone(), 80.0));
        cases.push((lattice.clone(), 40.0));
        // Duplicates and a far straggler.
        let mut dup = lattice.clone();
        dup.extend_from_within(0..10);
        dup.push(p(1e9, -1e9));
        cases.push((dup, 80.0));
        // Positions whose cell indices saturate i64, at both ends, next
        // to ordinary ones: no table cell per unit of extent, no overflow.
        cases.push((
            vec![
                p(1e300, 1e300),
                p(1e300, 1e300),
                p(-1e300, 5.0),
                p(f64::MAX, -f64::MAX),
                p(0.0, 0.0),
                p(50.0, 0.0),
                p(1e300 + 1e285, 1e300),
            ],
            80.0,
        ));
        cases.push((
            lattice
                .iter()
                .map(|q| p(q.x * 1e-140, q.y * 1e-140))
                .collect(),
            8e-139,
        ));
        for (pts, range) in cases {
            let g = UnitDiskGraph::new(&pts, range);
            let want = brute_adjacency(&pts, range);
            assert_eq!(g.adjacency(), want.as_slice(), "range {range}");
            assert_eq!(g.num_links(), want.iter().map(Vec::len).sum::<usize>() / 2);
        }
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = UnitDiskGraph::new(&[], 10.0);
        assert!(g.is_connected());
        assert!(g.connected_components().is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_range_panics() {
        let _ = UnitDiskGraph::new(&[p(0.0, 0.0)], 0.0);
    }
}
