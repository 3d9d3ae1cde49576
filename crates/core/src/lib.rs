//! # anr-march — optimal marching of autonomous networked robots
//!
//! Reference implementation of *"Optimal Marching of Autonomous Networked
//! Robots"* (Ban, Jin, Wu — ICDCS 2016). A swarm of mobile robots that
//! has finished its task in one field of interest (FoI) must redeploy to
//! a second, possibly distant, concave, multiply-connected FoI while
//!
//! * keeping **global connectivity** at every instant of the transition
//!   (no robot or subgroup is ever cut off),
//! * preserving as many **local communication links** as possible (the
//!   *total stable link ratio* `L`, Definition 1),
//! * spending little **total moving distance** `D`.
//!
//! The paper's method — reproduced by [`march`] — harmonically maps both
//! the robot triangulation and the target FoI onto unit disks, searches
//! the disk rotation that maximizes `L` (method **a**,
//! [`Method::MaxStableLinks`]) or minimizes `D` (method **b**,
//! [`Method::MinMovingDistance`]), composes the maps to obtain each
//! robot's destination, repairs any predicted isolation (Sec. III-D-1),
//! moves the robots along straight (hole-avoiding) paths, and finishes
//! with a connectivity-guarded Lloyd refinement to optimal coverage
//! positions.
//!
//! The two comparison methods of the evaluation are also here:
//! [`direct_translation`] (rigid translation + Hungarian touch-up) and
//! [`hungarian_direct`] (pure minimum-distance assignment).
//!
//! ## Example
//!
//! ```no_run
//! use anr_geom::{Point, Polygon, PolygonWithHoles};
//! use anr_march::{march, MarchConfig, MarchProblem, Method};
//!
//! // 36 robots in a square FoI, marching to a translated square.
//! let m1 = PolygonWithHoles::without_holes(
//!     Polygon::rectangle(Point::ORIGIN, 300.0, 300.0),
//! );
//! let m2 = PolygonWithHoles::without_holes(
//!     Polygon::rectangle(Point::new(1000.0, 0.0), 300.0, 300.0),
//! );
//! let problem = MarchProblem::with_lattice_deployment(m1, m2, 36, 80.0)?;
//! let outcome = march(&problem, Method::MaxStableLinks, &MarchConfig::default())?;
//! assert_eq!(outcome.metrics.global_connectivity, 1);
//! println!("L = {:.2}, D = {:.0} m", outcome.metrics.stable_link_ratio,
//!          outcome.metrics.total_distance);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod audit;
mod baselines;
mod distributed;
mod energy;
mod error;
mod faultsweep;
mod metrics;
mod mission;
mod pipeline;
mod problem;
mod repair;
mod replan;
mod resilience;
mod trajectory;

pub use audit::{
    audit_piecewise, audit_piecewise_with_workers, audit_trajectories, AuditReport, LinkViolation,
};
pub use baselines::{direct_translation, hungarian_direct};
pub use distributed::{
    distributed_objective, distributed_objective_under_faults, DistributedObjective,
    FaultyObjective, FaultyObjectiveError,
};
pub use energy::{EnergyModel, EnergyReport};
pub use error::MarchError;
pub use faultsweep::{
    run_fault_sweep, run_fault_sweep_traced, FaultSweepReport, ProtocolGrid, SurvivalStats,
    SweepConfig, SweepProtocols,
};
pub use metrics::{
    edge_stretch_stats, evaluate_timeline, MetricsError, StretchStats, TransitionMetrics,
};
pub use mission::{march_mission, Mission, MissionMetrics, MissionOutcome};
pub use pipeline::{march, march_traced, MarchOutcome, Method};
pub use problem::{optimal_coverage_positions, MarchConfig, MarchProblem};
pub use repair::{repair_connectivity, repair_connectivity_strict, RepairReport};
pub use replan::{replan_after_failure, replan_midway, shrink_target_for, ReplanOutcome};
pub use resilience::{survives_failures, ResilienceReport};
pub use trajectory::{route_around_obstacles, Polyline, TrajectorySet};
