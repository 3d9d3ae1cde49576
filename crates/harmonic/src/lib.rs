//! # anr-harmonic — discrete harmonic maps to the unit disk
//!
//! The modified harmonic map is the core of the optimal-marching paper
//! (Sec. II-B, III-B): instead of mapping the robot triangulation `T`
//! directly onto the target field of interest `M2` (which would require a
//! convex target), both `T` and `M2` are harmonically mapped onto the
//! unit disk; rotating one disk and overlaying them induces a map
//! `T → M2`, and the rotation angle is searched to maximize the stable
//! link ratio (method *a*) or minimize moving distance (method *b*).
//!
//! This crate implements each piece:
//!
//! * [`harmonic_map_to_disk`] — boundary vertices uniformly distributed
//!   along the unit circle (by hop count, as in the paper's distributed
//!   protocol, or by chord length), interior vertices iterated to the
//!   weighted average of their neighbors until fixed (Tutte/uniform or
//!   mean-value weights);
//! * [`fill_holes`] — one virtual vertex per inner hole, fan-connected to
//!   the hole's boundary loop, so multiply-connected FoIs become
//!   topological disks (Sec. III-D-3);
//! * [`DiskOverlay`] — the overlapped-disks correspondence: rotate,
//!   point-locate, barycentrically interpolate the original geographic
//!   coordinates (paper Eqn. 1), with the nearest-real-grid-point
//!   fallback for robots that land in a filled hole;
//! * [`RotationSearch`] — the depth-limited bisection the paper runs with
//!   search depth 4, plus an exhaustive sweep for validation.
//!
//! ## Example
//!
//! ```
//! use anr_geom::Point;
//! use anr_mesh::delaunay;
//! use anr_harmonic::{harmonic_map_to_disk, HarmonicConfig};
//!
//! // A 4×4 grid of robots.
//! let mut pts = Vec::new();
//! for j in 0..4 {
//!     for i in 0..4 {
//!         pts.push(Point::new(i as f64 * 60.0, j as f64 * 60.0));
//!     }
//! }
//! let mesh = delaunay(&pts)?;
//! let disk = harmonic_map_to_disk(&mesh, &HarmonicConfig::default())?;
//! // Every vertex ends up inside (or on) the unit circle.
//! assert!(disk.positions().iter().all(|p| p.to_vector().norm() <= 1.0 + 1e-9));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod compose;
mod disk;
mod distributed;
mod error;
mod holes;
mod rotation;

pub use compose::{DiskOverlay, MappedPoint};
pub use disk::{
    harmonic_map_to_disk, harmonic_map_to_disk_traced, harmonic_map_with_boundary, BoundaryParam,
    DiskMap, HarmonicConfig, Solver, Weighting,
};
pub use distributed::{
    distributed_harmonic_map, DistributedHarmonicConfig, DistributedHarmonicOutcome,
};
pub use error::HarmonicError;
pub use holes::{fill_holes, FilledMesh};
pub use rotation::RotationSearch;
