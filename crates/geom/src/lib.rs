//! Planar geometry substrate for UAV data-collection planning.
//!
//! This crate provides the geometric primitives needed by the planners in
//! `uavdc-core`: 2-D/3-D points, axis-aligned bounding boxes, the square
//! grid partition of the monitoring region (the paper's `δ`-squares), disc
//! coverage predicates (the UAV's hovering coverage circle of radius `R0`),
//! and a sparse uniform-grid spatial index for fast "all sensors within
//! radius `r` of a point" queries.
//!
//! Everything here is deterministic and allocation-conscious: queries write
//! into caller-provided buffers where it matters, and the spatial index
//! stores only its occupied buckets, in one sorted list (no per-node
//! boxing, and memory O(points) however large the region).
//!
//! # Example
//!
//! ```
//! use uavdc_geom::{Point2, GridSpec, SpatialGrid};
//!
//! // A 100 m x 100 m region partitioned into 10 m squares.
//! let grid = GridSpec::new(Point2::new(0.0, 0.0), 100.0, 100.0, 10.0);
//! assert_eq!(grid.num_cells(), 100);
//!
//! // Index a few sensor positions and query coverage of a cell center.
//! let sensors = vec![Point2::new(12.0, 13.0), Point2::new(95.0, 95.0)];
//! let index = SpatialGrid::build(&sensors, 10.0);
//! let covered = index.query_radius(grid.cell_center(grid.cell_at(1, 1)), 15.0);
//! assert_eq!(covered, vec![0]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod aabb;
mod disc;
mod grid;
mod order;
mod point;
mod polyline;
mod spatial;

pub use aabb::Aabb;
pub use disc::{disc_disc_overlap_area, Disc};
pub use grid::{CellId, GridSpec};
pub use order::{cmp_f64, cmp_f64_desc, TotalF64};
pub use point::{Point2, Point3};
pub use polyline::{distance_matrix, path_length, tour_length};
pub use spatial::SpatialGrid;

/// Numerical tolerance used by approximate geometric comparisons in this
/// crate (metres, for the paper's units).
pub const EPS: f64 = 1e-9;

/// Returns true when `a` and `b` differ by at most [`EPS`] in absolute value.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}
