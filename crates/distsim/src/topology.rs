//! Pluggable neighbor discovery for the event engine.
//!
//! The synchronous simulators take a fully materialized
//! `Vec<Vec<usize>>` adjacency. At 10⁶ robots that is still affordable
//! (the unit-disk graph is sparse), but computing every row up front is
//! wasted work when an event-driven run only ever touches a fraction of
//! the swarm. [`GridTopology`] therefore resolves neighbor rows
//! **lazily**: positions are bucketed once into a uniform grid of
//! range-sized cells (the same prune `anr_netgraph::UnitDiskGraph`
//! uses), and a node's row is computed from its 3×3 cell neighborhood
//! on first use, then cached. Rows come out sorted ascending —
//! byte-identical to the corresponding unit-disk graph row, which is
//! what makes a lazy run identical to one over the prebuilt adjacency.

use crate::SimError;
use anr_geom::Point;
use std::collections::BTreeMap;

/// A communication topology the engine can query neighbor-by-neighbor.
///
/// Implementations must be **deterministic** (same row for the same
/// index, every time) and **symmetric** (`v ∈ neighbors(u)` iff
/// `u ∈ neighbors(v)`); rows must not contain the node itself.
pub trait Topology {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// True for an empty topology.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The neighbor row of `u` (may be computed and cached on first
    /// use). The returned order is the broadcast expansion order, so it
    /// must be stable across calls.
    fn neighbors(&mut self, u: usize) -> &[usize];

    /// Is there a link `u — v`?
    fn has_link(&mut self, u: usize, v: usize) -> bool {
        self.neighbors(u).contains(&v)
    }
}

/// A prebuilt adjacency list, validated once at construction.
#[derive(Debug, Clone)]
pub struct ExplicitTopology {
    adjacency: Vec<Vec<usize>>,
}

impl ExplicitTopology {
    /// Wraps `adjacency`, enforcing the same invariants as
    /// [`Simulator::new`](crate::Simulator::new): in-range
    /// neighbor indices and symmetry.
    ///
    /// # Errors
    ///
    /// [`SimError::BadNeighborIndex`] or
    /// [`SimError::AsymmetricTopology`].
    pub fn new(adjacency: Vec<Vec<usize>>) -> Result<Self, SimError> {
        for (u, nbrs) in adjacency.iter().enumerate() {
            for &v in nbrs {
                if v >= adjacency.len() {
                    return Err(SimError::BadNeighborIndex {
                        node: u,
                        neighbor: v,
                    });
                }
                if !adjacency[v].contains(&u) {
                    return Err(SimError::AsymmetricTopology { from: u, to: v });
                }
            }
        }
        Ok(ExplicitTopology { adjacency })
    }

    /// The wrapped adjacency rows.
    pub fn adjacency(&self) -> &[Vec<usize>] {
        &self.adjacency
    }
}

impl Topology for ExplicitTopology {
    fn len(&self) -> usize {
        self.adjacency.len()
    }

    fn neighbors(&mut self, u: usize) -> &[usize] {
        &self.adjacency[u]
    }
}

/// Lazy unit-disk topology over robot positions.
///
/// Construction buckets the positions into range-sized grid cells —
/// `O(n)` work and memory. Neighbor rows are computed on demand from
/// the 3×3 cell neighborhood and cached, so a run that wakes `k` of
/// `n` robots resolves only `k` rows. Resolved rows are sorted
/// ascending and match `anr_netgraph::UnitDiskGraph::adjacency` exactly
/// (same `‖pᵢ − pⱼ‖² ≤ r²` criterion, same order).
#[derive(Debug, Clone)]
pub struct GridTopology {
    positions: Vec<Point>,
    range_sq: f64,
    buckets: BTreeMap<(i64, i64), Vec<usize>>,
    keys: Vec<(i64, i64)>,
    rows: Vec<Option<Vec<usize>>>,
    resolved: usize,
}

impl GridTopology {
    /// Buckets `positions` into cells of side `range`.
    ///
    /// # Panics
    ///
    /// Panics when `range <= 0` or a position is non-finite (the same
    /// contract as `anr_netgraph::UnitDiskGraph::new`).
    pub fn new(positions: &[Point], range: f64) -> Self {
        assert!(range > 0.0, "communication range must be positive");
        assert!(
            positions.iter().all(|p| p.is_finite()),
            "positions must be finite"
        );
        let key = |p: Point| -> (i64, i64) {
            ((p.x / range).floor() as i64, (p.y / range).floor() as i64)
        };
        let mut buckets: BTreeMap<(i64, i64), Vec<usize>> = BTreeMap::new();
        let mut keys = Vec::with_capacity(positions.len());
        for (i, &p) in positions.iter().enumerate() {
            let k = key(p);
            keys.push(k);
            buckets.entry(k).or_default().push(i);
        }
        GridTopology {
            positions: positions.to_vec(),
            range_sq: range * range,
            buckets,
            keys,
            rows: vec![None; positions.len()],
            resolved: 0,
        }
    }

    /// Rows resolved so far (observability for the lazy prune).
    pub fn resolved_rows(&self) -> usize {
        self.resolved
    }

    fn compute_row(&self, u: usize) -> Vec<usize> {
        let p = self.positions[u];
        let (kx, ky) = self.keys[u];
        let mut row = Vec::new();
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(cands) = self.buckets.get(&(kx + dx, ky + dy)) {
                    for &j in cands {
                        if j != u && self.positions[j].distance_sq(p) <= self.range_sq {
                            row.push(j);
                        }
                    }
                }
            }
        }
        row.sort_unstable();
        row
    }
}

impl Topology for GridTopology {
    fn len(&self) -> usize {
        self.positions.len()
    }

    fn neighbors(&mut self, u: usize) -> &[usize] {
        if self.rows[u].is_none() {
            let row = self.compute_row(u);
            self.rows[u] = Some(row);
            self.resolved += 1;
        }
        match &self.rows[u] {
            Some(row) => row,
            None => &[],
        }
    }

    fn has_link(&mut self, u: usize, v: usize) -> bool {
        // Rows are sorted ascending; binary search beats the linear
        // default.
        self.neighbors(u).binary_search(&v).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice(cols: usize, rows: usize, pitch: f64) -> Vec<Point> {
        (0..cols * rows)
            .map(|i| Point::new((i % cols) as f64 * pitch, (i / cols) as f64 * pitch))
            .collect()
    }

    #[test]
    fn grid_rows_match_unit_disk_graph() {
        let pts = lattice(7, 5, 55.0);
        let mut t = GridTopology::new(&pts, 80.0);
        for u in 0..pts.len() {
            // The all-pairs unit-disk row, ascending.
            let row: Vec<usize> = (0..pts.len())
                .filter(|&v| v != u && pts[v].distance_sq(pts[u]) <= 80.0 * 80.0)
                .collect();
            assert_eq!(t.neighbors(u), &row[..], "row {u}");
        }
    }

    #[test]
    fn rows_resolve_lazily_and_cache() {
        let pts = lattice(10, 10, 55.0);
        let mut t = GridTopology::new(&pts, 80.0);
        assert_eq!(t.resolved_rows(), 0);
        let row: Vec<usize> = t.neighbors(0).to_vec();
        assert_eq!(t.resolved_rows(), 1);
        assert_eq!(t.neighbors(0), &row[..], "cached row is stable");
        assert_eq!(t.resolved_rows(), 1, "second query hits the cache");
        assert!(t.has_link(0, 1));
        assert!(!t.has_link(0, 99));
    }

    #[test]
    fn explicit_topology_validates() {
        assert!(ExplicitTopology::new(vec![vec![1], vec![0]]).is_ok());
        assert!(matches!(
            ExplicitTopology::new(vec![vec![5], vec![0]]),
            Err(SimError::BadNeighborIndex { .. })
        ));
        assert!(matches!(
            ExplicitTopology::new(vec![vec![1], vec![]]),
            Err(SimError::AsymmetricTopology { .. })
        ));
    }
}
